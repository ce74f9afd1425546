//! The eight test-device profiles of the paper's Table V.
//!
//! Each profile records the descriptive columns of Table V (vendor, model,
//! chip, OS/firmware, Bluetooth stack and version) and the simulation
//! parameters derived from them: the vendor stack quirks, the number of
//! service ports, the per-frame processing cost, and the seeded
//! vulnerabilities corresponding to the zero-days the paper found on that
//! device (none for D4, D6 and D7).

use btcore::{BdAddr, DeviceClass, DeviceMeta, FuzzRng, LinkType, SimClock};
use serde::{Deserialize, Serialize};

use crate::device::SimulatedDevice;
use crate::services::ServiceTable;
use crate::vendor::VendorStack;
use crate::vuln::VulnerabilitySpec;

/// Identifier of one of the paper's eight test devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ProfileId {
    D1,
    D2,
    D3,
    D4,
    D5,
    D6,
    D7,
    D8,
    /// Extended scenario device (beyond the paper's Table V): LE-only
    /// wearable.
    D9,
    /// Extended scenario device: dual-mode phone fuzzed over its LE-U link.
    D10,
    /// Extended scenario device: ERTM-capable BR/EDR audio device.
    D11,
}

impl ProfileId {
    /// All eight devices in Table V order.
    pub const ALL: [ProfileId; 8] = [
        ProfileId::D1,
        ProfileId::D2,
        ProfileId::D3,
        ProfileId::D4,
        ProfileId::D5,
        ProfileId::D6,
        ProfileId::D7,
        ProfileId::D8,
    ];

    /// The extended scenario devices this reproduction adds beyond Table V:
    /// an LE-only wearable, a dual-mode phone fuzzed over LE, and an
    /// ERTM-capable audio device.
    pub const EXTENDED: [ProfileId; 3] = [ProfileId::D9, ProfileId::D10, ProfileId::D11];
}

impl std::fmt::Display for ProfileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::str::FromStr for ProfileId {
    type Err = String;

    /// Parses a profile name (`"D1"` … `"D11"`), as the service CLI's
    /// `--targets` flag spells them.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ProfileId::ALL
            .into_iter()
            .chain(ProfileId::EXTENDED)
            .find(|id| id.to_string() == s)
            .ok_or_else(|| format!("unknown device profile `{s}` (expected D1..D11)"))
    }
}

/// A full device profile: the descriptive Table V columns plus simulation
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Which of D1–D8 this is.
    pub id: ProfileId,
    /// Device type column of Table V.
    pub device_type: String,
    /// Vendor column.
    pub vendor: String,
    /// Device name column.
    pub name: String,
    /// Release year.
    pub year: u16,
    /// Model column.
    pub model: String,
    /// Chip column.
    pub chip: String,
    /// OS or firmware column.
    pub os_or_firmware: String,
    /// Bluetooth stack column.
    pub stack: VendorStack,
    /// Bluetooth version column.
    pub bt_version: String,
    /// The transport the campaign fuzzes this device over.
    pub link_type: LinkType,
    /// Whether the device also serves the *other* transport (a dual-mode
    /// controller).  A dual-mode device accepts links over both BR/EDR and
    /// LE at once, each with its own isolated acceptor.
    pub dual_mode: bool,
    /// Bluetooth device address used in the simulation.
    pub addr: BdAddr,
    /// Device class broadcast during inquiry.
    pub class: DeviceClass,
    /// Number of service ports the device exposes (drives scan and detection
    /// time).
    pub service_ports: usize,
    /// Virtual processing time per frame in microseconds (models application
    /// logic complexity).
    pub processing_cost_micros: u64,
    /// Hit probability of each seeded vulnerability (empty = no known
    /// vulnerability, matching the paper's D4/D6/D7 results).
    pub vuln_probabilities: Vec<(String, f64)>,
}

impl DeviceProfile {
    /// Returns the profile for one of the paper's devices (D1–D8) or one of
    /// this reproduction's extended scenario devices (D9–D11; not part of
    /// the paper's Table V, see [`ProfileId::EXTENDED`]).
    pub fn table5(id: ProfileId) -> DeviceProfile {
        match id {
            ProfileId::D9 => DeviceProfile {
                id,
                device_type: "Wearable".into(),
                vendor: "Samsung".into(),
                name: "Galaxy Fit e".into(),
                year: 2019,
                model: "SM-R375".into(),
                chip: "nRF52832".into(),
                os_or_firmware: "R375XXU0ASH2".into(),
                stack: VendorStack::Zephyr,
                bt_version: "5.0 LE only".into(),
                link_type: LinkType::Le,
                dual_mode: false,
                addr: BdAddr::new([0xC8, 0x7B, 0x23, 0x10, 0x00, 0x09]),
                class: DeviceClass::Wearable,
                service_ports: 3,
                processing_cost_micros: 110,
                vuln_probabilities: vec![("zephyr-le-credit-underflow".into(), 0.060)],
            },
            ProfileId::D10 => DeviceProfile {
                id,
                device_type: "Smartphone".into(),
                vendor: "Google".into(),
                name: "Pixel 6 (LE)".into(),
                year: 2021,
                model: "GB7N6".into(),
                chip: "Tensor G1".into(),
                os_or_firmware: "Android 13".into(),
                stack: VendorStack::BlueDroid,
                bt_version: "5.2 dual mode".into(),
                link_type: LinkType::Le,
                dual_mode: true,
                addr: BdAddr::new([0xF8, 0x8F, 0xCA, 0x10, 0x00, 0x0A]),
                class: DeviceClass::Smartphone,
                service_ports: 5,
                processing_cost_micros: 190,
                vuln_probabilities: vec![("bluedroid-spsm-confusion".into(), 0.100)],
            },
            ProfileId::D11 => DeviceProfile {
                id,
                device_type: "Speaker".into(),
                vendor: "Sonos".into(),
                name: "Move".into(),
                year: 2019,
                model: "S17".into(),
                chip: "AMLogic A113".into(),
                os_or_firmware: "Sonos OS S2".into(),
                stack: VendorStack::BlueZ,
                bt_version: "5.0 + EDR".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0x34, 0xE1, 0x2D, 0x10, 0x00, 0x0B]),
                class: DeviceClass::Audio,
                service_ports: 6,
                processing_cost_micros: 230,
                vuln_probabilities: vec![("bluez-ertm-mode-confusion".into(), 0.040)],
            },
            ProfileId::D1 => DeviceProfile {
                id,
                device_type: "Tablet PC".into(),
                vendor: "Google".into(),
                name: "Nexus 7".into(),
                year: 2013,
                model: "ASUS-1A005A".into(),
                chip: "Snapdragon 600".into(),
                os_or_firmware: "Android 6.0.1".into(),
                stack: VendorStack::BlueDroid,
                bt_version: "4.0 + LE".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0xF8, 0x8F, 0xCA, 0x10, 0x00, 0x01]),
                class: DeviceClass::Tablet,
                service_ports: 7,
                processing_cost_micros: 260,
                vuln_probabilities: vec![("bluedroid-config-null-deref".into(), 0.050)],
            },
            ProfileId::D2 => DeviceProfile {
                id,
                device_type: "Smartphone".into(),
                vendor: "Google".into(),
                name: "Pixel 3".into(),
                year: 2018,
                model: "GA00464".into(),
                chip: "Snapdragon 845".into(),
                os_or_firmware: "Android 11.0.1".into(),
                stack: VendorStack::BlueDroid,
                bt_version: "5.0 + LE".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0xF8, 0x8F, 0xCA, 0x10, 0x00, 0x02]),
                class: DeviceClass::Smartphone,
                service_ports: 8,
                processing_cost_micros: 220,
                vuln_probabilities: vec![("bluedroid-config-null-deref".into(), 0.060)],
            },
            ProfileId::D3 => DeviceProfile {
                id,
                device_type: "Smartphone".into(),
                vendor: "Samsung".into(),
                name: "Galaxy 7".into(),
                year: 2016,
                model: "SM-G930L".into(),
                chip: "Exynos 8890".into(),
                os_or_firmware: "Android 8.0.0".into(),
                stack: VendorStack::BlueDroid,
                bt_version: "4.2".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0x84, 0x25, 0xDB, 0x10, 0x00, 0x03]),
                class: DeviceClass::Smartphone,
                service_ports: 9,
                processing_cost_micros: 300,
                vuln_probabilities: vec![("bluedroid-create-channel-dos".into(), 0.020)],
            },
            ProfileId::D4 => DeviceProfile {
                id,
                device_type: "Smartphone".into(),
                vendor: "Apple".into(),
                name: "iPhone 6S".into(),
                year: 2015,
                model: "A1688".into(),
                chip: "A9".into(),
                os_or_firmware: "iOS 15.0.2".into(),
                stack: VendorStack::AppleIos,
                bt_version: "4.2".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0xAC, 0xBC, 0x32, 0x10, 0x00, 0x04]),
                class: DeviceClass::Smartphone,
                service_ports: 8,
                processing_cost_micros: 200,
                vuln_probabilities: vec![],
            },
            ProfileId::D5 => DeviceProfile {
                id,
                device_type: "Earphone".into(),
                vendor: "Apple".into(),
                name: "Airpods 1 gen".into(),
                year: 2016,
                model: "A1523".into(),
                chip: "W1".into(),
                os_or_firmware: "6.8.8".into(),
                stack: VendorStack::AppleRtkit,
                bt_version: "4.2".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0xAC, 0xBC, 0x32, 0x10, 0x00, 0x05]),
                class: DeviceClass::Audio,
                service_ports: 6,
                processing_cost_micros: 120,
                vuln_probabilities: vec![("rtkit-psm-crash".into(), 0.100)],
            },
            ProfileId::D6 => DeviceProfile {
                id,
                device_type: "Earphone".into(),
                vendor: "Samsung".into(),
                name: "Galaxy Buds+".into(),
                year: 2020,
                model: "SM-R175NZKATUR".into(),
                chip: "BCM43015".into(),
                os_or_firmware: "R175XXU0AUG1".into(),
                stack: VendorStack::Btw,
                bt_version: "5.0 + LE".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0x84, 0x25, 0xDB, 0x10, 0x00, 0x06]),
                class: DeviceClass::Audio,
                service_ports: 5,
                processing_cost_micros: 140,
                vuln_probabilities: vec![],
            },
            ProfileId::D7 => DeviceProfile {
                id,
                device_type: "Laptop".into(),
                vendor: "LG".into(),
                name: "Gram 2019".into(),
                year: 2019,
                model: "15ZD990-VX50K".into(),
                chip: "Intel wireless BT".into(),
                os_or_firmware: "Windows 10".into(),
                stack: VendorStack::Windows,
                bt_version: "5.0".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0x34, 0xE1, 0x2D, 0x10, 0x00, 0x07]),
                class: DeviceClass::Computer,
                service_ports: 11,
                processing_cost_micros: 250,
                vuln_probabilities: vec![],
            },
            ProfileId::D8 => DeviceProfile {
                id,
                device_type: "Laptop".into(),
                vendor: "LG".into(),
                name: "Gram 2017".into(),
                year: 2017,
                model: "15ZD970-GX55K".into(),
                chip: "Intel wireless BT".into(),
                os_or_firmware: "Ubuntu 18.04.4".into(),
                stack: VendorStack::BlueZ,
                bt_version: "5.0".into(),
                link_type: LinkType::BrEdr,
                dual_mode: false,
                addr: BdAddr::new([0x34, 0xE1, 0x2D, 0x10, 0x00, 0x08]),
                class: DeviceClass::Computer,
                service_ports: 13,
                processing_cost_micros: 420,
                vuln_probabilities: vec![("bluez-general-protection".into(), 0.00015)],
            },
        }
    }

    /// All eight Table V profiles.
    pub fn all() -> Vec<DeviceProfile> {
        ProfileId::ALL
            .iter()
            .map(|id| DeviceProfile::table5(*id))
            .collect()
    }

    /// The extended scenario profiles (LE-only wearable, dual-mode phone
    /// fuzzed over LE, ERTM-capable audio device).
    pub fn extended() -> Vec<DeviceProfile> {
        ProfileId::EXTENDED
            .iter()
            .map(|id| DeviceProfile::table5(*id))
            .collect()
    }

    /// Returns `true` if the paper found a zero-day on this device.
    pub fn has_seeded_vulnerability(&self) -> bool {
        !self.vuln_probabilities.is_empty()
    }

    /// Instantiates the vulnerability specifications for this profile.
    pub fn vulnerabilities(&self) -> Vec<VulnerabilitySpec> {
        self.vuln_probabilities
            .iter()
            .map(|(kind, p)| match kind.as_str() {
                "bluedroid-config-null-deref" => VulnerabilitySpec::bluedroid_config_null_deref(*p),
                "bluedroid-create-channel-dos" => {
                    VulnerabilitySpec::bluedroid_create_channel_dos(*p)
                }
                "rtkit-psm-crash" => VulnerabilitySpec::rtkit_psm_crash(*p),
                "bluez-general-protection" => VulnerabilitySpec::bluez_general_protection(*p),
                "zephyr-le-credit-underflow" => VulnerabilitySpec::zephyr_credit_underflow_dos(*p),
                "bluedroid-spsm-confusion" => VulnerabilitySpec::bluedroid_spsm_confusion_crash(*p),
                "bluez-ertm-mode-confusion" => VulnerabilitySpec::bluez_ertm_mode_confusion_dos(*p),
                other => panic!("unknown seeded vulnerability kind {other:?}"),
            })
            .collect()
    }

    /// The service catalogue this profile exposes over the given transport.
    pub fn services_on(&self, link_type: LinkType) -> ServiceTable {
        match link_type {
            LinkType::BrEdr => ServiceTable::typical(self.service_ports),
            LinkType::Le => ServiceTable::le_typical(self.service_ports),
        }
    }

    /// Builds the simulated device for this profile.  LE profiles get the
    /// LE acceptor and the SPSM service catalogue; classic profiles are
    /// built exactly as before.  A dual-mode profile additionally serves
    /// links over the other transport, each with its own acceptor.
    pub fn build(&self, clock: SimClock, rng: FuzzRng) -> SimulatedDevice {
        let mut device = SimulatedDevice::new(
            DeviceMeta::new(self.addr, self.name.clone(), self.class)
                .with_link_type(self.link_type),
            self.stack.default_quirks(),
            self.services_on(self.link_type),
            self.vulnerabilities(),
            clock,
            self.processing_cost_micros,
            rng,
        );
        if self.dual_mode {
            let other = match self.link_type {
                LinkType::BrEdr => LinkType::Le,
                LinkType::Le => LinkType::BrEdr,
            };
            device.enable_dual_mode(self.services_on(other));
        }
        device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn profile_ids_stream_like_their_derived_encodings() {
        for id in ProfileId::ALL.into_iter().chain(ProfileId::EXTENDED) {
            let json = serde_json::to_string_streamed(&id);
            assert_eq!(json, format!("\"{id:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<ProfileId>(&json).unwrap(),
                id
            );
        }
    }

    #[test]
    fn there_are_eight_profiles_with_unique_addresses() {
        let profiles = DeviceProfile::all();
        assert_eq!(profiles.len(), 8);
        let addrs: BTreeSet<_> = profiles.iter().map(|p| p.addr).collect();
        assert_eq!(addrs.len(), 8);
    }

    #[test]
    fn vulnerable_devices_match_table6() {
        let vulnerable: Vec<ProfileId> = DeviceProfile::all()
            .into_iter()
            .filter(|p| p.has_seeded_vulnerability())
            .map(|p| p.id)
            .collect();
        assert_eq!(
            vulnerable,
            vec![
                ProfileId::D1,
                ProfileId::D2,
                ProfileId::D3,
                ProfileId::D5,
                ProfileId::D8
            ]
        );
    }

    #[test]
    fn hardened_devices_have_no_seeded_vulnerability() {
        for id in [ProfileId::D4, ProfileId::D6, ProfileId::D7] {
            let p = DeviceProfile::table5(id);
            assert!(!p.has_seeded_vulnerability());
            assert!(p.vulnerabilities().is_empty());
            assert!(p.stack.default_quirks().strict_malformed_filtering);
        }
    }

    #[test]
    fn stacks_match_table5() {
        assert_eq!(
            DeviceProfile::table5(ProfileId::D1).stack,
            VendorStack::BlueDroid
        );
        assert_eq!(
            DeviceProfile::table5(ProfileId::D4).stack,
            VendorStack::AppleIos
        );
        assert_eq!(
            DeviceProfile::table5(ProfileId::D5).stack,
            VendorStack::AppleRtkit
        );
        assert_eq!(DeviceProfile::table5(ProfileId::D6).stack, VendorStack::Btw);
        assert_eq!(
            DeviceProfile::table5(ProfileId::D7).stack,
            VendorStack::Windows
        );
        assert_eq!(
            DeviceProfile::table5(ProfileId::D8).stack,
            VendorStack::BlueZ
        );
    }

    #[test]
    fn d8_has_the_most_ports_and_narrowest_trigger() {
        let profiles = DeviceProfile::all();
        let d8 = profiles.iter().find(|p| p.id == ProfileId::D8).unwrap();
        assert_eq!(d8.service_ports, 13);
        let d5 = profiles.iter().find(|p| p.id == ProfileId::D5).unwrap();
        assert_eq!(d5.service_ports, 6);
        let p_d8 = d8.vuln_probabilities[0].1;
        let p_d5 = d5.vuln_probabilities[0].1;
        assert!(
            p_d8 < p_d5 / 100.0,
            "D8's trigger must be far narrower than D5's"
        );
    }

    #[test]
    fn profiles_build_working_devices() {
        use hci::device::VirtualDevice;
        let clock = SimClock::new();
        for profile in DeviceProfile::all() {
            let dev = profile.build(clock.clone(), FuzzRng::seed_from(1));
            assert_eq!(dev.services().len(), profile.service_ports);
            assert!(dev.bluetooth_alive());
            assert_eq!(dev.meta().addr, profile.addr);
        }
    }

    #[test]
    fn table5_profiles_are_all_classic() {
        use hci::device::VirtualDevice;
        for profile in DeviceProfile::all() {
            assert_eq!(profile.link_type, btcore::LinkType::BrEdr);
            assert_eq!(
                profile
                    .build(SimClock::new(), FuzzRng::seed_from(1))
                    .meta()
                    .link_type,
                btcore::LinkType::BrEdr
            );
        }
    }

    #[test]
    fn extended_profiles_cover_the_new_scenarios() {
        use hci::device::VirtualDevice;
        let extended = DeviceProfile::extended();
        assert_eq!(extended.len(), 3);
        let d9 = &extended[0];
        assert_eq!(d9.id, ProfileId::D9);
        assert_eq!(d9.link_type, btcore::LinkType::Le);
        assert_eq!(d9.stack, VendorStack::Zephyr);
        let d10 = &extended[1];
        assert_eq!(d10.link_type, btcore::LinkType::Le);
        let d11 = &extended[2];
        assert_eq!(d11.link_type, btcore::LinkType::BrEdr);
        assert_eq!(d11.stack, VendorStack::BlueZ);
        // Every extended profile carries a seeded vulnerability and builds a
        // working device announcing its link type.
        let clock = SimClock::new();
        for profile in &extended {
            assert!(profile.has_seeded_vulnerability());
            assert!(!profile.vulnerabilities().is_empty());
            let dev = profile.build(clock.clone(), FuzzRng::seed_from(2));
            assert!(dev.bluetooth_alive());
            assert_eq!(dev.meta().link_type, profile.link_type);
        }
        // Addresses stay unique across the full eleven-device set.
        let all: Vec<DeviceProfile> = DeviceProfile::all()
            .into_iter()
            .chain(DeviceProfile::extended())
            .collect();
        let addrs: BTreeSet<_> = all.iter().map(|p| p.addr).collect();
        assert_eq!(addrs.len(), 11);
    }
}
