//! Phase 1 — target scanning (§III-B).
//!
//! The scanner records the target's meta-information (address, name, class,
//! OUI) and probes its service ports to find one that can be used *without
//! pairing*: it sends a Connection Request to every well-known PSM and
//! classifies the response.  If every offered port demands pairing it falls
//! back to SDP, which is always pairing-free.

use btcore::{Cid, DeviceMeta, Identifier, LinkType, Psm};
use hci::medium::LinkHandle;
use l2cap::command::{
    Command, ConnectionRequest, DisconnectionRequest, LeCreditBasedConnectionRequest,
};
use l2cap::consts::ConnectionResult;
use l2cap::packet::parse_signaling;
use serde::{Deserialize, Serialize};

/// Classification of one probed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortStatus {
    /// The port accepted a connection without pairing.
    OpenWithoutPairing,
    /// The port exists but demands pairing/authentication.
    RequiresPairing,
    /// The port is not offered.
    NotSupported,
    /// The target did not answer the probe.
    NoResponse,
}

/// Result of probing one service port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortProbe {
    /// The probed port.
    pub psm: Psm,
    /// What the probe concluded.
    pub status: PortStatus,
}

/// The complete scan report for a target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanReport {
    /// Device metadata captured during inquiry.
    pub meta: DeviceMeta,
    /// Every probed port and its status.
    pub probes: Vec<PortProbe>,
    /// The port chosen for fuzzing (pairing-free), if any.
    pub chosen_port: Option<Psm>,
}

impl ScanReport {
    /// Ports that accepted a connection without pairing.
    pub fn pairing_free_ports(&self) -> Vec<Psm> {
        self.probes
            .iter()
            .filter(|p| p.status == PortStatus::OpenWithoutPairing)
            .map(|p| p.psm)
            .collect()
    }

    /// Ports the device offers at all (with or without pairing).
    pub fn offered_ports(&self) -> Vec<Psm> {
        self.probes
            .iter()
            .filter(|p| {
                matches!(
                    p.status,
                    PortStatus::OpenWithoutPairing | PortStatus::RequiresPairing
                )
            })
            .map(|p| p.psm)
            .collect()
    }
}

/// The target scanner.
#[derive(Debug, Default)]
pub struct TargetScanner {
    next_scid: u16,
}

impl TargetScanner {
    /// Creates a scanner.
    pub fn new() -> Self {
        TargetScanner { next_scid: 0x0070 }
    }

    /// Probes every well-known port over `link` and produces the scan
    /// report: classic PSMs via Connection Request on a BR/EDR link, LE
    /// SPSMs via LE Credit Based Connection Request on an LE-U link.
    ///
    /// Connections opened during probing are immediately torn down again so
    /// the scan does not consume the target's channel budget.
    pub fn scan(&mut self, meta: DeviceMeta, link: &mut LinkHandle) -> ScanReport {
        let le = meta.link_type == LinkType::Le;
        let catalogue = if le {
            Psm::well_known_le()
        } else {
            Psm::well_known()
        };
        let mut probes = Vec::new();
        for psm in catalogue {
            let status = if le {
                self.probe_le_port(link, *psm)
            } else {
                self.probe_port(link, *psm)
            };
            probes.push(PortProbe { psm: *psm, status });
        }
        let chosen_port = probes
            .iter()
            .find(|p| p.status == PortStatus::OpenWithoutPairing)
            .map(|p| p.psm)
            // The pairing-free fallback: SDP on classic (every device has
            // it), EATT on LE.
            .or(Some(if le { Psm::EATT } else { Psm::SDP }));
        ScanReport {
            meta,
            probes,
            chosen_port,
        }
    }

    fn probe_le_port(&mut self, link: &mut LinkHandle, spsm: Psm) -> PortStatus {
        let scid = Cid(self.next_scid);
        self.next_scid += 1;
        let frame = l2cap::packet::signaling_frame(
            Identifier(1),
            &Command::LeCreditBasedConnectionRequest(LeCreditBasedConnectionRequest {
                spsm: spsm.value(),
                scid,
                mtu: 247,
                mps: 64,
                initial_credits: 4,
            }),
        );
        let responses = link.send_frame(&frame);
        let mut status = PortStatus::NoResponse;
        let mut allocated_dcid = None;
        for rsp in &responses {
            if let Ok(sig) = parse_signaling(rsp) {
                if let Command::LeCreditBasedConnectionResponse(rsp) = sig.command() {
                    status = match rsp.result {
                        0 => {
                            allocated_dcid = Some(rsp.dcid);
                            PortStatus::OpenWithoutPairing
                        }
                        // Insufficient authentication / authorization /
                        // encryption: the SPSM exists but wants pairing.
                        0x0005..=0x0008 => PortStatus::RequiresPairing,
                        _ => PortStatus::NotSupported,
                    };
                }
            }
        }
        if let Some(dcid) = allocated_dcid {
            let frame = l2cap::packet::signaling_frame(
                Identifier(2),
                &Command::DisconnectionRequest(DisconnectionRequest { dcid, scid }),
            );
            let _ = link.send_frame(&frame);
        }
        status
    }

    fn probe_port(&mut self, link: &mut LinkHandle, psm: Psm) -> PortStatus {
        let scid = Cid(self.next_scid);
        self.next_scid += 1;
        let frame = l2cap::packet::signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest { psm, scid }),
        );
        let responses = link.send_frame(&frame);
        let mut status = PortStatus::NoResponse;
        let mut allocated_dcid = None;
        for rsp in &responses {
            if let Ok(sig) = parse_signaling(rsp) {
                if sig.code != l2cap::code::CommandCode::ConnectionResponse.value() {
                    continue;
                }
                if let Command::ConnectionResponse(rsp) = sig.command() {
                    status = match rsp.result {
                        ConnectionResult::Success | ConnectionResult::Pending => {
                            allocated_dcid = Some(rsp.dcid);
                            PortStatus::OpenWithoutPairing
                        }
                        ConnectionResult::RefusedSecurityBlock => PortStatus::RequiresPairing,
                        ConnectionResult::RefusedPsmNotSupported => PortStatus::NotSupported,
                        _ => PortStatus::NotSupported,
                    };
                }
            }
        }
        // Tear the probe connection down again.
        if let Some(dcid) = allocated_dcid {
            let frame = l2cap::packet::signaling_frame(
                Identifier(2),
                &Command::DisconnectionRequest(DisconnectionRequest { dcid, scid }),
            );
            let _ = link.send_frame(&frame);
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{BdAddr, FuzzRng, SimClock};
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::link::LinkConfig;
    use hci::medium::EventMedium;
    use l2cap::packet::signaling_frame;

    #[test]
    fn port_statuses_stream_like_their_derived_encodings() {
        for status in [
            PortStatus::OpenWithoutPairing,
            PortStatus::RequiresPairing,
            PortStatus::NotSupported,
            PortStatus::NoResponse,
        ] {
            let json = serde_json::to_string_streamed(&status);
            assert_eq!(json, format!("\"{status:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<PortStatus>(&json).unwrap(),
                status
            );
        }
    }

    fn scan_profile(id: ProfileId) -> ScanReport {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(id);
        let (_, adapter) =
            btstack::device::share(profile.build(clock.clone(), FuzzRng::seed_from(3)));
        air.register_shared(adapter);
        let meta = air.inquiry().pop().expect("device must be discoverable");
        let mut link = air
            .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(4))
            .unwrap();
        TargetScanner::new().scan(meta, &mut link)
    }

    #[test]
    fn scan_finds_sdp_without_pairing_on_every_profile() {
        for id in ProfileId::ALL {
            let report = scan_profile(id);
            assert!(
                report.pairing_free_ports().contains(&Psm::SDP),
                "{id}: SDP must be open"
            );
            assert_eq!(report.chosen_port, Some(Psm::SDP));
        }
    }

    #[test]
    fn scan_distinguishes_pairing_protected_and_unsupported_ports() {
        let report = scan_profile(ProfileId::D2);
        let rfcomm = report.probes.iter().find(|p| p.psm == Psm::RFCOMM).unwrap();
        assert_eq!(rfcomm.status, PortStatus::RequiresPairing);
        let ots = report.probes.iter().find(|p| p.psm == Psm::OTS).unwrap();
        assert_eq!(ots.status, PortStatus::NotSupported);
        assert!(report.offered_ports().len() >= report.pairing_free_ports().len());
    }

    #[test]
    fn scan_reports_meta_information() {
        let report = scan_profile(ProfileId::D5);
        assert_eq!(report.meta.name, "Airpods 1 gen");
        assert_ne!(report.meta.addr, BdAddr::NULL);
    }

    #[test]
    fn scanning_does_not_leak_channels() {
        // After scanning, a fresh connection must still be possible even on a
        // device with a small channel budget (the probes disconnect).
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D5);
        let (shared, adapter) =
            btstack::device::share(profile.build(clock.clone(), FuzzRng::seed_from(3)));
        air.register_shared(adapter);
        let meta = air.inquiry().pop().unwrap();
        let mut link = air
            .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(4))
            .unwrap();
        TargetScanner::new().scan(meta, &mut link);
        assert_eq!(shared.lock().status(), btstack::device::HostStatus::Running);
        let frame = signaling_frame(
            Identifier(5),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0100),
            }),
        );
        let responses = link.send_frame(&frame);
        let accepted = responses.iter().any(|f| {
            matches!(
                parse_signaling(f).map(|s| s.command()),
                Ok(Command::ConnectionResponse(rsp)) if rsp.result == ConnectionResult::Success
            )
        });
        assert!(accepted, "post-scan connection must still be accepted");
    }
}
