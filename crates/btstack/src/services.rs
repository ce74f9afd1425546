//! SDP-lite service/port tables.
//!
//! The paper's target-scanning phase asks the device for its supported
//! service ports and tries to connect to each one, looking for a port that
//! does not require pairing (falling back to SDP, which never does).  The
//! simulated devices expose the same information through a [`ServiceTable`].

use btcore::Psm;

/// One service offered by a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// The service's L2CAP port.
    pub psm: Psm,
    /// Human-readable service name.
    pub name: String,
    /// Whether connecting to this port requires a completed pairing.
    pub requires_pairing: bool,
}

impl ServiceRecord {
    /// Creates a service record.
    pub fn new(psm: Psm, name: impl Into<String>, requires_pairing: bool) -> Self {
        ServiceRecord {
            psm,
            name: name.into(),
            requires_pairing,
        }
    }
}

/// The set of services a device offers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceTable {
    records: Vec<ServiceRecord>,
}

impl ServiceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ServiceTable::default()
    }

    /// Creates a table from records.
    pub fn from_records(records: Vec<ServiceRecord>) -> Self {
        ServiceTable { records }
    }

    /// A minimal table containing only SDP (every Bluetooth device has it).
    pub fn sdp_only() -> Self {
        ServiceTable::from_records(vec![ServiceRecord::new(Psm::SDP, "SDP", false)])
    }

    /// Builds a typical table with `n` services; SDP and the first few audio /
    /// HID services never require pairing, the rest do.  Used by the device
    /// profiles to model "supports 6 service ports" vs "supports 13 service
    /// ports" without enumerating real SDP records.
    pub fn typical(n: usize) -> Self {
        let catalogue: [(Psm, &str, bool); 13] = [
            (Psm::SDP, "SDP", false),
            (Psm::RFCOMM, "RFCOMM", true),
            (Psm::AVDTP, "AVDTP", false),
            (Psm::AVCTP, "AVCTP", false),
            (Psm::HID_CONTROL, "HID Control", true),
            (Psm::HID_INTERRUPT, "HID Interrupt", true),
            (Psm::BNEP, "BNEP", true),
            (Psm::AVCTP_BROWSING, "AVCTP Browsing", false),
            (Psm::ATT, "ATT", false),
            (Psm::UPNP, "UPnP", true),
            (Psm::TCS_BIN, "TCS-BIN", true),
            (Psm::IPSP, "IPSP", true),
            (Psm::OTS, "OTS", true),
        ];
        let records = catalogue
            .iter()
            .take(n.clamp(1, catalogue.len()))
            .map(|(psm, name, pairing)| ServiceRecord::new(*psm, *name, *pairing))
            .collect();
        ServiceTable { records }
    }

    /// Builds a typical LE service table with `n` services, drawn from the
    /// SPSM catalogue (SIG-assigned fixed SPSMs first, then vendor SPSMs in
    /// the dynamic `0x0080..=0x00FF` range).  The LE counterpart of
    /// [`ServiceTable::typical`]: EATT and OTS never require pairing, the
    /// deeper vendor channels do.
    pub fn le_typical(n: usize) -> Self {
        let catalogue: [(Psm, &str, bool); 6] = [
            (Psm::EATT, "EATT", false),
            (Psm::OTS_LE, "OTS", false),
            (Psm::LE_DYNAMIC_START, "Vendor Stream", false),
            (Psm(0x0081), "Vendor Sync", true),
            (Psm(0x0082), "Vendor Debug", true),
            (Psm(0x0029), "3D Sync", true),
        ];
        let records = catalogue
            .iter()
            .take(n.clamp(1, catalogue.len()))
            .map(|(psm, name, pairing)| ServiceRecord::new(*psm, *name, *pairing))
            .collect();
        ServiceTable { records }
    }

    /// Adds a record.
    pub fn push(&mut self, record: ServiceRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[ServiceRecord] {
        &self.records
    }

    /// Number of services (the paper correlates this with time-to-detection).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Looks up a service by port.
    pub fn find(&self, psm: Psm) -> Option<&ServiceRecord> {
        self.records.iter().find(|r| r.psm == psm)
    }

    /// Returns `true` if the given port is offered at all.
    pub fn supports(&self, psm: Psm) -> bool {
        self.find(psm).is_some()
    }

    /// Returns `true` if the given port is offered and does not require
    /// pairing.
    pub fn connectable_without_pairing(&self, psm: Psm) -> bool {
        self.find(psm).map(|r| !r.requires_pairing).unwrap_or(false)
    }

    /// The ports that do not require pairing (potentially exploitable ports
    /// in the paper's terminology).
    pub fn pairing_free_ports(&self) -> Vec<Psm> {
        self.records
            .iter()
            .filter(|r| !r.requires_pairing)
            .map(|r| r.psm)
            .collect()
    }

    /// Every offered port.
    pub fn ports(&self) -> Vec<Psm> {
        self.records.iter().map(|r| r.psm).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdp_only_table() {
        let t = ServiceTable::sdp_only();
        assert_eq!(t.len(), 1);
        assert!(t.supports(Psm::SDP));
        assert!(t.connectable_without_pairing(Psm::SDP));
        assert!(!t.is_empty());
    }

    #[test]
    fn typical_table_sizes() {
        assert_eq!(ServiceTable::typical(6).len(), 6);
        assert_eq!(ServiceTable::typical(13).len(), 13);
        // Clamped to the catalogue size.
        assert_eq!(ServiceTable::typical(50).len(), 13);
        assert_eq!(ServiceTable::typical(0).len(), 1);
    }

    #[test]
    fn sdp_is_always_pairing_free() {
        for n in 1..=13 {
            let t = ServiceTable::typical(n);
            assert!(t.connectable_without_pairing(Psm::SDP));
            assert!(t.pairing_free_ports().contains(&Psm::SDP));
        }
    }

    #[test]
    fn le_typical_table_exposes_eatt_without_pairing() {
        let t = ServiceTable::le_typical(4);
        assert_eq!(t.len(), 4);
        assert!(t.connectable_without_pairing(Psm::EATT));
        assert!(t.supports(Psm::LE_DYNAMIC_START));
        for record in t.records() {
            assert!(
                record.psm.is_valid_spsm(),
                "{} must be a defined SPSM",
                record.psm
            );
        }
        // Clamped like the classic catalogue.
        assert_eq!(ServiceTable::le_typical(50).len(), 6);
        assert_eq!(ServiceTable::le_typical(0).len(), 1);
    }

    #[test]
    fn unsupported_port_is_not_connectable() {
        let t = ServiceTable::typical(3);
        assert!(!t.supports(Psm(0x0F0F)));
        assert!(!t.connectable_without_pairing(Psm(0x0F0F)));
        assert!(t.find(Psm(0x0F0F)).is_none());
    }

    #[test]
    fn ports_lists_every_record() {
        let t = ServiceTable::typical(5);
        assert_eq!(t.ports().len(), 5);
        assert!(t.ports().contains(&Psm::SDP));
    }

    #[test]
    fn push_extends_the_table() {
        let mut t = ServiceTable::new();
        assert!(t.is_empty());
        t.push(ServiceRecord::new(Psm::RFCOMM, "Serial", true));
        assert_eq!(t.len(), 1);
        assert!(t.supports(Psm::RFCOMM));
        assert!(!t.connectable_without_pairing(Psm::RFCOMM));
    }
}
