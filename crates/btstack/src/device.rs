//! The complete simulated device: endpoints + host status + crash dumps.
//!
//! [`SimulatedDevice`] is what gets registered on the virtual medium.  It
//! owns one L2CAP acceptor *per established link* — every link slot gets an
//! isolated CID space and channel state, which is what lets concurrent
//! initiators (and a dual-transport pair of them) fuzz one device without
//! cross-talk — tracks whether the Bluetooth service is still running,
//! applies the effects of fired vulnerabilities (denial of service or
//! crash, both device-wide: a dead stack answers on no link) and stores the
//! crash dumps the detection phase later collects through the
//! [`btcore::TargetOracle`] interface.

use btcore::{
    splitmix64, ConnectionError, DeviceMeta, FuzzRng, LinkSlot, LinkType, PingOutcome, SimClock,
    TargetOracle,
};
use hci::device::VirtualDevice;
use l2cap::packet::L2capFrame;
use parking_lot::Mutex;
use std::sync::Arc;

use crate::crashdump::{CrashDump, CrashDumpStore, CrashKind};
use crate::endpoint::L2capEndpoint;
use crate::services::ServiceTable;
use crate::vendor::Quirks;
use crate::vuln::{Effect, VulnerabilitySpec};

/// Run-state of a simulated device's Bluetooth subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostStatus {
    /// Bluetooth service is running normally.
    Running,
    /// The Bluetooth service terminated (denial of service).
    DosTerminated,
    /// The device (or its Bluetooth subsystem) crashed.
    Crashed,
}

/// A fired vulnerability, recorded with the time it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredVulnerability {
    /// The specification that fired.
    pub vuln: VulnerabilitySpec,
    /// Virtual-clock timestamp in microseconds.
    pub timestamp_micros: u64,
}

/// A complete simulated target device.
pub struct SimulatedDevice {
    meta: DeviceMeta,
    /// One isolated acceptor per link slot, indexed by slot number.  Slot 0
    /// is built eagerly at construction (with the constructor's RNG, so
    /// single-link behaviour is unchanged); further slots appear as links
    /// attach.
    endpoints: Vec<L2capEndpoint>,
    quirks: Quirks,
    /// Template for extra acceptors on the primary transport.
    services: ServiceTable,
    /// Template for acceptors on the other transport, present on dual-mode
    /// devices.
    alt_services: Option<ServiceTable>,
    vulns: Arc<[VulnerabilitySpec]>,
    /// Base of the derived RNG streams for extra acceptors.
    endpoint_seed: u64,
    status: HostStatus,
    crash_dumps: CrashDumpStore,
    fired: Vec<FiredVulnerability>,
    clock: SimClock,
    processing_cost_micros: u64,
    auto_restart: bool,
}

impl SimulatedDevice {
    /// Creates a device from its parts.
    ///
    /// `processing_cost_micros` is the virtual time charged per processed
    /// frame; devices with more services and deeper application logic use
    /// larger values.
    pub fn new(
        meta: DeviceMeta,
        quirks: Quirks,
        services: ServiceTable,
        vulns: impl Into<std::sync::Arc<[VulnerabilitySpec]>>,
        clock: SimClock,
        processing_cost_micros: u64,
        rng: FuzzRng,
    ) -> Self {
        // The primary endpoint serves whatever transport the metadata
        // announces, so an LE-only profile automatically gets the LE
        // acceptor.
        let link_type = meta.link_type;
        let vulns = vulns.into();
        let endpoint_seed = rng.seed();
        SimulatedDevice {
            meta,
            endpoints: vec![L2capEndpoint::new_on(
                link_type,
                quirks,
                services.clone(),
                vulns.clone(),
                rng,
            )],
            quirks,
            services,
            alt_services: None,
            vulns,
            endpoint_seed,
            status: HostStatus::Running,
            crash_dumps: CrashDumpStore::new(),
            fired: Vec::new(),
            clock,
            processing_cost_micros,
            auto_restart: false,
        }
    }

    /// Makes the device dual-mode: links over the transport *other* than the
    /// primary one are accepted and served from `services`.
    pub fn enable_dual_mode(&mut self, services: ServiceTable) {
        self.alt_services = Some(services);
    }

    /// The transport opposite the device's primary one.
    fn other_link_type(&self) -> LinkType {
        match self.meta.link_type {
            LinkType::BrEdr => LinkType::Le,
            LinkType::Le => LinkType::BrEdr,
        }
    }

    /// Builds a fresh acceptor for `slot` over `link_type`, with its RNG
    /// stream derived from the device seed, the slot and the transport so
    /// every acceptor is independent and the whole device stays a pure
    /// function of its construction seed.
    fn build_endpoint(&self, slot: LinkSlot, link_type: LinkType) -> L2capEndpoint {
        let services = if link_type == self.meta.link_type {
            self.services.clone()
        } else {
            self.alt_services
                .clone()
                .expect("endpoint for unsupported transport")
        };
        let tag = u64::from(slot.0) << 1 | u64::from(link_type.is_le());
        let rng = FuzzRng::seed_from(splitmix64(self.endpoint_seed ^ tag ^ 0x51A7_E11D));
        L2capEndpoint::new_on(link_type, self.quirks, services, self.vulns.clone(), rng)
    }

    /// Enables automatic restart of the Bluetooth service after a
    /// vulnerability fires.  This models the tester manually resetting the
    /// device between tests, which the comparison experiments (§IV-C/D) need
    /// in order to keep sending packets to the same target.
    pub fn set_auto_restart(&mut self, enabled: bool) {
        self.auto_restart = enabled;
    }

    /// Current host status.
    pub fn status(&self) -> HostStatus {
        self.status
    }

    /// Every vulnerability that has fired so far, in order.
    pub fn fired_vulnerabilities(&self) -> &[FiredVulnerability] {
        &self.fired
    }

    /// The crash dumps recorded so far.
    pub fn crash_dumps(&self) -> &[CrashDump] {
        self.crash_dumps.all()
    }

    /// The device's service table (primary transport).
    pub fn services(&self) -> &ServiceTable {
        &self.services
    }

    /// Number of link slots with an acceptor (at least one).
    pub fn link_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Restarts the Bluetooth service (the "manual reset" of the paper's
    /// limitation discussion).  Crash dumps and fired-vulnerability history
    /// are preserved.
    pub fn restart(&mut self) {
        self.status = HostStatus::Running;
    }

    fn apply_effect(&mut self, vuln: &VulnerabilitySpec) {
        let now = self.clock.now_micros();
        self.fired.push(FiredVulnerability {
            vuln: vuln.clone(),
            timestamp_micros: now,
        });
        if vuln.produces_dump {
            let dump = match vuln.crash_kind {
                CrashKind::NullPointerDereference => CrashDump::bluedroid_tombstone(&vuln.id, now),
                CrashKind::GeneralProtectionFault => {
                    CrashDump::bluez_general_protection(&vuln.id, now)
                }
                CrashKind::UncontrolledTermination => {
                    CrashDump::uncontrolled_termination(&vuln.id, now)
                }
            };
            self.crash_dumps.record(dump);
        }
        self.status = match vuln.effect {
            Effect::DenialOfService => HostStatus::DosTerminated,
            Effect::Crash => HostStatus::Crashed,
        };
        if self.auto_restart {
            self.status = HostStatus::Running;
        }
    }
}

impl VirtualDevice for SimulatedDevice {
    fn meta(&self) -> DeviceMeta {
        self.meta.clone()
    }

    fn supports_link(&self, link_type: LinkType) -> bool {
        link_type == self.meta.link_type
            || (self.alt_services.is_some() && link_type == self.other_link_type())
    }

    fn attach_link(&mut self, slot: LinkSlot, link_type: LinkType) {
        let index = usize::from(slot.0);
        if index == 0 && link_type == self.endpoints[0].link_type() {
            // The eagerly built primary acceptor already serves this link;
            // replacing it would perturb single-link RNG streams.
            return;
        }
        while self.endpoints.len() < index {
            let fill = LinkSlot(self.endpoints.len() as u16);
            self.endpoints
                .push(self.build_endpoint(fill, self.meta.link_type));
        }
        let endpoint = self.build_endpoint(slot, link_type);
        if self.endpoints.len() == index {
            self.endpoints.push(endpoint);
        } else {
            self.endpoints[index] = endpoint;
        }
    }

    fn receive_into(&mut self, slot: LinkSlot, frame: &L2capFrame, out: &mut Vec<L2capFrame>) {
        if self.status != HostStatus::Running {
            return;
        }
        let Some(endpoint) = self.endpoints.get_mut(usize::from(slot.0)) else {
            // Frame on a never-attached slot: nobody serves it.
            return;
        };
        let start = out.len();
        if let Some(vuln) = endpoint.handle_frame(frame, out) {
            // The stack went down processing the frame: it answers nothing.
            out.truncate(start);
            self.apply_effect(&vuln);
        }
    }

    fn bluetooth_alive(&self) -> bool {
        self.status == HostStatus::Running
    }

    fn processing_cost_micros(&self) -> u64 {
        self.processing_cost_micros
    }
}

/// Shared, lockable handle to a simulated device.
pub type SharedSimulatedDevice = Arc<Mutex<SimulatedDevice>>;

/// Wraps a device into a typed shared handle (for out-of-band observation —
/// the oracle) plus the same handle as a [`hci::device::SharedDevice`] ready
/// to register on the air medium.
///
/// Both handles are the *same* `Arc`: the air medium talks to the device
/// through one mutex, not through a forwarding adapter that re-locks an
/// inner one on every per-packet trait call.
pub fn share(device: SimulatedDevice) -> (SharedSimulatedDevice, hci::device::SharedDevice) {
    let shared = Arc::new(Mutex::new(device));
    (shared.clone(), shared)
}

/// Out-of-band observation of a simulated device (crash-dump collection and
/// service liveness), as the original tool performs via `adb` or `ssh`.
pub struct DeviceOracle {
    device: SharedSimulatedDevice,
}

impl DeviceOracle {
    /// Creates an oracle over the shared device handle.
    pub fn new(device: SharedSimulatedDevice) -> Self {
        DeviceOracle { device }
    }
}

impl TargetOracle for DeviceOracle {
    fn ping(&mut self) -> PingOutcome {
        let dev = self.device.lock();
        match dev.status() {
            HostStatus::Running => PingOutcome::Answered,
            HostStatus::DosTerminated => PingOutcome::Failed(ConnectionError::Failed),
            HostStatus::Crashed => PingOutcome::Failed(ConnectionError::Aborted),
        }
    }

    fn take_crash_dump(&mut self) -> bool {
        self.device.lock().crash_dumps.take_new()
    }

    fn bluetooth_alive(&self) -> bool {
        self.device.lock().bluetooth_alive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::VendorStack;
    use btcore::{BdAddr, Cid, DeviceClass, Identifier, Psm};
    use l2cap::command::{Command, ConnectionRequest};
    use l2cap::packet::{signaling_frame, SignalingPacket};

    fn pixel_like(vuln_probability: f64) -> SimulatedDevice {
        SimulatedDevice::new(
            DeviceMeta::new(
                BdAddr::new([1, 2, 3, 4, 5, 6]),
                "Pixel 3",
                DeviceClass::Smartphone,
            ),
            VendorStack::BlueDroid.default_quirks(),
            ServiceTable::typical(8),
            vec![VulnerabilitySpec::bluedroid_config_null_deref(
                vuln_probability,
            )],
            SimClock::new(),
            200,
            FuzzRng::seed_from(21),
        )
    }

    fn connect(dev: &mut SimulatedDevice) {
        let frame = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
        );
        assert!(!dev.receive(LinkSlot::PRIMARY, &frame).is_empty());
    }

    /// The case-study Configure Request: unallocated DCID plus garbage.
    fn malformed_config_frame() -> L2capFrame {
        SignalingPacket {
            identifier: Identifier(6),
            code: 0x04,
            declared_data_len: 8,
            data: vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0, 0xD2, 0x3A, 0x91, 0x0E].into(),
        }
        .into_frame()
    }

    fn malformed_config(dev: &mut SimulatedDevice) -> Vec<L2capFrame> {
        dev.receive(LinkSlot::PRIMARY, &malformed_config_frame())
    }

    #[test]
    fn dos_vulnerability_terminates_bluetooth_and_leaves_a_tombstone() {
        let mut dev = pixel_like(1.0);
        connect(&mut dev);
        assert_eq!(dev.status(), HostStatus::Running);
        let responses = malformed_config(&mut dev);
        assert!(responses.is_empty());
        assert_eq!(dev.status(), HostStatus::DosTerminated);
        assert_eq!(dev.crash_dumps().len(), 1);
        assert_eq!(dev.crash_dumps()[0].kind, CrashKind::NullPointerDereference);
        assert_eq!(dev.fired_vulnerabilities().len(), 1);
        assert!(!dev.bluetooth_alive());
        // Once down, the device no longer answers anything.
        connect_silent(&mut dev);
    }

    fn connect_silent(dev: &mut SimulatedDevice) {
        let frame = signaling_frame(
            Identifier(9),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0050),
            }),
        );
        assert!(dev.receive(LinkSlot::PRIMARY, &frame).is_empty());
    }

    #[test]
    fn a_fired_vulnerability_keeps_the_replies_already_buffered() {
        let mut dev = pixel_like(1.0);
        connect(&mut dev);
        let ping = signaling_frame(
            Identifier(2),
            &Command::EchoRequest(l2cap::command::EchoRequest { data: vec![1] }),
        );
        let mut out = Vec::new();
        dev.receive_into(LinkSlot::PRIMARY, &ping, &mut out);
        assert_eq!(out.len(), 1);
        // The crashing frame adds nothing and removes nothing.
        dev.receive_into(LinkSlot::PRIMARY, &malformed_config_frame(), &mut out);
        assert_eq!(dev.status(), HostStatus::DosTerminated);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn oracle_reports_dos_and_crash_dumps() {
        let (shared, adapter) = share(pixel_like(1.0));
        let mut oracle = DeviceOracle::new(shared.clone());
        assert!(oracle.ping().is_answered());
        assert!(!oracle.take_crash_dump());

        // Drive the device through the adapter, as the air medium would.
        let frame = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
        );
        adapter.lock().receive(LinkSlot::PRIMARY, &frame);
        adapter
            .lock()
            .receive(LinkSlot::PRIMARY, &malformed_config_frame());

        assert!(!oracle.bluetooth_alive());
        assert_eq!(oracle.ping(), PingOutcome::Failed(ConnectionError::Failed));
        assert!(oracle.take_crash_dump());
        assert!(!oracle.take_crash_dump());
    }

    #[test]
    fn restart_revives_the_service_but_keeps_history() {
        let mut dev = pixel_like(1.0);
        connect(&mut dev);
        malformed_config(&mut dev);
        assert_eq!(dev.status(), HostStatus::DosTerminated);
        dev.restart();
        assert_eq!(dev.status(), HostStatus::Running);
        assert_eq!(dev.fired_vulnerabilities().len(), 1);
        assert_eq!(dev.crash_dumps().len(), 1);
    }

    #[test]
    fn auto_restart_keeps_the_device_responsive() {
        let mut dev = pixel_like(1.0);
        dev.set_auto_restart(true);
        connect(&mut dev);
        malformed_config(&mut dev);
        assert_eq!(dev.status(), HostStatus::Running);
        assert!(dev.bluetooth_alive());
        assert_eq!(dev.fired_vulnerabilities().len(), 1);
    }

    #[test]
    fn device_without_matching_traffic_stays_healthy() {
        let mut dev = pixel_like(1.0);
        connect(&mut dev);
        // Plenty of well-formed traffic.
        for i in 0..50u8 {
            let frame = signaling_frame(
                Identifier(i.max(1)),
                &Command::EchoRequest(l2cap::command::EchoRequest { data: vec![i] }),
            );
            assert!(!dev.receive(LinkSlot::PRIMARY, &frame).is_empty());
        }
        assert_eq!(dev.status(), HostStatus::Running);
        assert!(dev.fired_vulnerabilities().is_empty());
    }
}
