//! The event-driven medium: concurrent links over one deterministic radio.
//!
//! The radio environment is an [`EventMedium`]: a registry of virtual
//! devices plus an ordered event core ([`btcore::EventScheduler`]) through
//! which every frame exchange passes.  Each established link is a
//! [`LinkHandle`] — an independent event source with its own virtual clock,
//! its own fault stream and its own device-side L2CAP acceptor slot — so
//! several initiators can fuzz *one* device concurrently, including one
//! BR/EDR and one LE initiator against the same dual-mode target.
//!
//! # Determinism
//!
//! Every exchange is an event stamped with the sending link's virtual time;
//! the scheduler admits events in ascending `(time, link)` order no matter
//! how the OS schedules the initiator threads, and hands each admitted event
//! a deterministic seed for its random decisions (the faults of its link's
//! [`FaultPlan`]).  A campaign's packet streams are therefore a pure
//! function of its seed at any initiator count — and a single-link medium
//! degenerates to the synchronous behaviour.  There an exchange passes the
//! turnstile without a locked instruction, takes the device lock and one
//! lock per tap, and charges the link clock at most twice: once before the
//! device runs and once for the replies' way back.

use btcore::{
    splitmix64, BdAddr, BtError, ConnectionError, ConnectionHandle, DeviceMeta, EventScheduler,
    FrameBuf, FuzzRng, LinkSlot, LinkType, SimClock, SourceId,
};
use l2cap::packet::L2capFrame;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::acl;
use crate::device::{BoxedDevice, SharedDevice, VirtualDevice};
use crate::fault::{corrupt_frame, FaultPlan, WatchdogExpired, FAULT_DOMAIN};
use crate::link::{Direction, LinkConfig, PacketRecord, SharedTap};

/// Everything [`EventMedium::connect_spec`] needs to establish one link.
pub struct LinkSpec {
    /// Address of the target device.
    pub addr: BdAddr,
    /// Physical-layer behaviour of the link.
    pub config: LinkConfig,
    /// Seed of the link's fault stream (each event derives its own RNG from
    /// this and the event's scheduler ticket).
    pub link_seed: u64,
    /// Transport to connect over; `None` uses the device's primary
    /// transport.
    pub link_type: Option<LinkType>,
    /// The link's local clock — the timeline its initiator lives on.
    /// `None` puts the link on the medium clock (single-initiator
    /// campaigns), which keeps the synchronous medium's exact cost
    /// accounting.
    pub clock: Option<SimClock>,
    /// Watchdog budget in microseconds of link virtual time, measured from
    /// the moment the link is established.  A send past the deadline panics
    /// with a [`WatchdogExpired`] payload; the sweep service catches it and
    /// quarantines the job.  `None` disables the watchdog.
    pub watchdog_micros: Option<u64>,
}

impl LinkSpec {
    /// A primary-transport link on the medium clock.
    pub fn new(addr: BdAddr, config: LinkConfig, rng: FuzzRng) -> Self {
        LinkSpec {
            addr,
            config,
            link_seed: rng.seed(),
            link_type: None,
            clock: None,
            watchdog_micros: None,
        }
    }

    /// Selects the transport to connect over.
    pub fn on(mut self, link_type: LinkType) -> Self {
        self.link_type = Some(link_type);
        self
    }

    /// Puts the link's timeline on its own clock (concurrent initiators).
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Arms a per-link virtual-time watchdog.
    pub fn with_watchdog(mut self, micros: u64) -> Self {
        self.watchdog_micros = Some(micros);
        self
    }
}

/// Shared state of an [`EventMedium`]: the device registry, the event
/// scheduler and the medium clock.  Every [`LinkHandle`] holds one `Arc` of
/// this.
struct MediumCore {
    scheduler: EventScheduler,
    clock: SimClock,
}

/// The event-driven in-process medium.
pub struct EventMedium {
    devices: Vec<DeviceEntry>,
    core: Arc<MediumCore>,
    next_handle: u16,
}

struct DeviceEntry {
    device: SharedDevice,
    next_slot: u16,
}

impl EventMedium {
    /// Creates an empty medium driven by `clock`, with per-event seeds
    /// derived from seed 0 (use [`EventMedium::with_seed`] for campaigns).
    pub fn new(clock: SimClock) -> Self {
        EventMedium::with_seed(clock, 0)
    }

    /// Creates an empty medium whose per-event RNG seeds derive from
    /// `seed`.
    pub fn with_seed(clock: SimClock, seed: u64) -> Self {
        EventMedium {
            devices: Vec::new(),
            core: Arc::new(MediumCore {
                scheduler: EventScheduler::new(seed),
                clock,
            }),
            next_handle: 0x0001,
        }
    }

    /// Total events fired across all links of this medium.
    pub fn events_fired(&self) -> u64 {
        self.core.scheduler.events_fired()
    }

    /// Registers a device from a boxed implementation, returning the shared
    /// handle.
    pub fn register(&mut self, device: Box<dyn VirtualDevice>) -> SharedDevice {
        let shared: SharedDevice = Arc::new(Mutex::new(BoxedDevice::new(device)));
        self.register_shared(shared.clone());
        shared
    }

    /// Registers an already-shared device handle.
    pub fn register_shared(&mut self, device: SharedDevice) {
        self.devices.push(DeviceEntry {
            device,
            next_slot: 0,
        });
    }

    /// Number of registered devices (alive or not).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Performs an inquiry: returns the metadata of every device whose
    /// Bluetooth service is currently running.  Charges a little virtual
    /// time per discovered device on the medium clock, as a real inquiry
    /// scan would.
    pub fn inquiry(&self) -> Vec<DeviceMeta> {
        let mut found = Vec::new();
        for entry in &self.devices {
            let guard = entry.device.lock();
            self.core.clock.advance_micros(1_000);
            if guard.bluetooth_alive() {
                found.push(guard.meta());
            }
        }
        found
    }

    /// The medium-wide clock: tracks the latest fired event across all
    /// links.
    pub fn clock(&self) -> SimClock {
        self.core.clock.clone()
    }

    /// Establishes a link on the device's primary transport, with the link's
    /// timeline on the medium clock.
    ///
    /// # Errors
    /// Same conditions as [`EventMedium::connect_spec`].
    pub fn connect(
        &mut self,
        addr: BdAddr,
        config: LinkConfig,
        rng: FuzzRng,
    ) -> Result<LinkHandle, BtError> {
        self.connect_spec(LinkSpec::new(addr, config, rng))
    }

    /// Establishes a link according to `spec`.
    ///
    /// # Errors
    /// Returns [`BtError::UnknownDevice`] if no device has the address,
    /// [`BtError::Connection`] if the device is down or does not serve the
    /// requested transport.
    pub fn connect_spec(&mut self, spec: LinkSpec) -> Result<LinkHandle, BtError> {
        let entry = self
            .devices
            .iter_mut()
            .find(|e| e.device.lock().meta().addr == spec.addr)
            .ok_or(BtError::UnknownDevice {
                addr: spec.addr.to_string(),
            })?;
        let (slot, link_type) = {
            let mut guard = entry.device.lock();
            if !guard.bluetooth_alive() {
                return Err(BtError::Connection(ConnectionError::Refused));
            }
            let link_type = spec.link_type.unwrap_or(guard.meta().link_type);
            if !guard.supports_link(link_type) {
                return Err(BtError::Connection(ConnectionError::Refused));
            }
            let slot = LinkSlot(entry.next_slot);
            entry.next_slot += 1;
            guard.attach_link(slot, link_type);
            (slot, link_type)
        };
        let handle = ConnectionHandle(self.next_handle);
        // Handles run 0x0001..=MAX, then wrap back to 0x0001.
        self.next_handle = if self.next_handle >= ConnectionHandle::MAX.value() {
            0x0001
        } else {
            self.next_handle + 1
        };
        let clock = spec.clock.unwrap_or_else(|| self.core.clock.clone());
        // Link setup (paging) costs a few milliseconds of the link's own
        // virtual time.
        clock.advance_micros(5_000);
        let deadline_micros = spec.watchdog_micros.map(|w| clock.now_micros() + w);
        let source = self.core.scheduler.register(clock.now_micros());
        Ok(LinkHandle {
            device: entry.device.clone(),
            core: self.core.clone(),
            source,
            slot,
            link_type,
            clock,
            config: spec.config,
            link_seed: spec.link_seed,
            taps: Vec::new(),
            handle,
            frames_sent: 0,
            frames_received: 0,
            retired: Arc::new(AtomicBool::new(false)),
            deadline_micros,
            stalled_until: 0,
            held_frame: None,
            replies: Vec::new(),
        })
    }
}

/// An established link between one initiator and one virtual device.
///
/// The handle is an independent event source on its medium: every
/// [`LinkHandle::send_frame`] passes the scheduler's turnstile, so exchanges
/// from concurrent links fire in deterministic virtual-time order.  All
/// virtual time the exchange costs is charged to the link's own clock.
pub struct LinkHandle {
    device: SharedDevice,
    core: Arc<MediumCore>,
    source: SourceId,
    slot: LinkSlot,
    link_type: LinkType,
    clock: SimClock,
    config: LinkConfig,
    link_seed: u64,
    taps: Vec<SharedTap>,
    handle: ConnectionHandle,
    frames_sent: u64,
    frames_received: u64,
    /// Shared with every [`EventGate`] and [`RetireGuard`] of this link, so
    /// whichever party retires first, all of them observe it.
    retired: Arc<AtomicBool>,
    /// Absolute virtual-time deadline of the per-link watchdog, if armed.
    deadline_micros: Option<u64>,
    /// End of the current fault-injected stall window (0 when not
    /// stalling): while the link clock is before this instant the target is
    /// silent and every frame in flight is swallowed.
    stalled_until: u64,
    /// Depth-1 reorder slot: a frame held back by the fault plan, delivered
    /// after the next exchange.
    held_frame: Option<L2capFrame>,
    /// The current exchange's replies.  Cleared, not freed, at the start of
    /// each exchange, so a warmed-up link answers without allocating.
    replies: Vec<L2capFrame>,
}

impl LinkHandle {
    /// Attaches a packet tap that will observe every frame in both
    /// directions.
    pub fn attach_tap(&mut self, tap: SharedTap) {
        self.taps.push(tap);
    }

    /// The HCI connection handle of this link.
    pub fn handle(&self) -> ConnectionHandle {
        self.handle
    }

    /// The device-side acceptor slot this link is served by.
    pub fn slot(&self) -> LinkSlot {
        self.slot
    }

    /// The transport this link runs over.
    pub fn link_type(&self) -> LinkType {
        self.link_type
    }

    /// The link's local virtual clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Number of frames sent over this link so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Number of frames received over this link so far.
    pub fn frames_received(&self) -> u64 {
        self.frames_received
    }

    /// Returns `true` if the target's Bluetooth service is still running.
    ///
    /// The read passes the medium's turnstile as a zero-cost event: with
    /// concurrent initiators, whether another link's exchange killed the
    /// device "yet" is answered in virtual-time order, never wall-clock
    /// order.
    pub fn device_alive(&self) -> bool {
        let device = &self.device;
        self.event_gate()
            .serialized(|| device.lock().bluetooth_alive())
    }

    /// A handle for serializing observations — this link's own
    /// [`LinkHandle::device_alive`] as well as *out-of-band* ones (the
    /// campaign's oracle: service status, crash-dump collection) — through
    /// this link's event source, so they land at a deterministic point of
    /// the medium's schedule.
    pub fn event_gate(&self) -> EventGate {
        EventGate {
            core: self.core.clone(),
            source: self.source,
            clock: self.clock.clone(),
            retired: self.retired.clone(),
        }
    }

    /// A guard that [`LinkHandle::retire`]s this link when dropped —
    /// including during a panic unwind.  Concurrent initiators hold one for
    /// the duration of their run: if one initiator's tool panics, its link
    /// still leaves the turnstile, so the surviving initiators (and the
    /// campaign's thread scope) are not deadlocked waiting on a source that
    /// will never advance.
    pub fn retire_guard(&self) -> RetireGuard {
        RetireGuard {
            core: self.core.clone(),
            source: self.source,
            clock: self.clock.clone(),
            retired: self.retired.clone(),
        }
    }

    /// Shared handle to the device at the other end of the link (used by the
    /// out-of-band oracle, e.g. crash-dump collection).
    pub fn device(&self) -> SharedDevice {
        self.device.clone()
    }

    /// Retires this link as an event source: it stops holding concurrent
    /// links at the turnstile.  Called automatically on drop; call it
    /// explicitly as soon as an initiator is done driving traffic so the
    /// others do not wait on a finished peer.  A retired link must not send
    /// any more frames.
    pub fn retire(&mut self) {
        retire_once(&self.retired, &self.core, self.source, &self.clock);
    }

    /// Reports a completed exchange to every tap, under one lock per tap:
    /// the frame as it left at `sent_micros`, then the replies, the `k`-th
    /// (from 1) arriving `k` link latencies after `delivered_micros`.
    fn record(&self, frame: &L2capFrame, sent_micros: u64, delivered_micros: u64) {
        for tap in &self.taps {
            let mut records = tap.lock();
            records.push(PacketRecord {
                direction: Direction::Tx,
                timestamp_micros: sent_micros,
                frame: frame.clone(),
            });
            let mut arrived_micros = delivered_micros;
            for rsp in &self.replies {
                arrived_micros += self.config.latency_micros;
                records.push(PacketRecord {
                    direction: Direction::Rx,
                    timestamp_micros: arrived_micros,
                    frame: rsp.clone(),
                });
            }
        }
    }

    /// Sends an L2CAP frame to the target and returns the frames it answers
    /// with (possibly none).
    ///
    /// The answers are a view of a reply buffer the link keeps between
    /// exchanges, valid until the next exchange on this link: read them on
    /// the spot, or copy them out (`.to_vec()`) to keep them.
    ///
    /// The exchange fires as one event: the link waits at the medium's
    /// turnstile until its virtual time is globally minimal, then the frame
    /// is fragmented into ACL packets, carried across the virtual air
    /// (charging latency and processing cost to the link's clock, and
    /// applying the link's [`FaultPlan`]) and reassembled on the device
    /// side; responses travel the same way back.  Every frame crossing the
    /// link is reported to the attached taps, including frames the fault
    /// plan subsequently drops.  The taps see an exchange when it
    /// completes: the frame and its replies in one batch per tap, each
    /// stamped with the virtual time it crossed the air.
    ///
    /// # Panics
    /// Panics if the link has been retired.
    pub fn send_frame(&mut self, frame: &L2capFrame) -> &[L2capFrame] {
        assert!(
            !self.retired.load(Ordering::Acquire),
            "retired link must not send frames"
        );
        let start = self.clock.now_micros();
        if let Some(deadline) = self.deadline_micros {
            if start > deadline {
                // Fired before the turnstile: no ticket or lock is held, so
                // the unwind leaves the medium consistent (the RetireGuard
                // and the handle's Drop retire the source).
                std::panic::panic_any(WatchdogExpired {
                    deadline_micros: deadline,
                    now_micros: start,
                });
            }
        }
        let ticket = self.core.scheduler.begin_event(self.source, start);
        self.frames_sent += 1;

        // The transmit overhead, then one link latency per ACL fragment.
        let fragment_count = frame.wire_len().div_ceil(acl::ACL_FRAGMENT_SIZE).max(1);
        let in_flight =
            self.config.tx_overhead_micros + self.config.latency_micros * fragment_count as u64;
        self.replies.clear();
        let faults = self.config.faults;
        if faults.is_none() {
            self.deliver(frame, fragment_count, in_flight);
        } else {
            self.clock.advance_micros(in_flight);
            self.deliver_with_faults(frame, &faults, ticket.seed);
        }

        // The replies travel back one after another, a link latency each.
        let delivered = self.clock.now_micros();
        let replies = self.replies.len() as u64;
        let way_back = self.config.latency_micros * replies;
        if way_back > 0 {
            self.clock.advance_micros(way_back);
        }
        self.frames_received += replies;
        self.record(frame, start + self.config.tx_overhead_micros, delivered);

        let end = delivered + way_back;
        self.core.clock.advance_to(end);
        self.core.scheduler.end_event(self.source, end, &ticket);
        &self.replies
    }

    /// Runs one exchange through the link's [`FaultPlan`], appending the
    /// replies to the link's reply buffer.  The frame's time in flight is
    /// already charged.
    ///
    /// Decisions draw from a per-event RNG seeded from the scheduler ticket
    /// in a fixed order — jitter, stall, loss, corruption, reorder,
    /// duplication — so the same campaign seed and plan always reproduce
    /// the same faulty schedule.
    fn deliver_with_faults(&mut self, frame: &L2capFrame, faults: &FaultPlan, ticket_seed: u64) {
        let mut rng = FuzzRng::seed_from(splitmix64(ticket_seed ^ self.link_seed ^ FAULT_DOMAIN));
        if faults.jitter_micros > 0 {
            let jitter = rng.range_usize(0, faults.jitter_micros as usize) as u64;
            self.clock.advance_micros(jitter);
        }
        let now = self.clock.now_micros();
        // A silent target swallows everything in flight, including a frame
        // held in the reorder slot.
        if now < self.stalled_until {
            self.held_frame = None;
            return;
        }
        if faults.stall > 0.0 && rng.chance(faults.stall) {
            self.stalled_until = now + faults.stall_micros;
            self.held_frame = None;
            return;
        }
        let previously_held = self.held_frame.take();
        let lost = faults.loss > 0.0 && rng.chance(faults.loss);
        let mut current = None;
        if !lost {
            let outgoing = if faults.corrupt > 0.0 && rng.chance(faults.corrupt) {
                corrupt_frame(frame, &mut rng)
            } else {
                frame.clone()
            };
            if faults.reorder > 0.0 && previously_held.is_none() && rng.chance(faults.reorder) {
                self.held_frame = Some(outgoing);
            } else {
                current = Some(outgoing);
            }
        }
        // Frames reaching the target this exchange, in arrival order: the
        // current frame first, then a previously held one — the older frame
        // arrives late, which is exactly depth-1 reordering.  Each delivery,
        // a duplicate included, costs the device its processing time.
        for arrived in [current, previously_held].into_iter().flatten() {
            let fragments = arrived.wire_len().div_ceil(acl::ACL_FRAGMENT_SIZE).max(1);
            self.deliver(&arrived, fragments, 0);
            if faults.duplicate > 0.0 && rng.chance(faults.duplicate) {
                self.deliver(&arrived, fragments, 0);
            }
        }
    }

    /// Carries one frame to the device and appends its replies to the
    /// link's reply buffer.
    ///
    /// `in_flight_micros` is what the exchange has not yet charged of the
    /// frame's way to the device.  It is charged together with the device's
    /// processing cost, in one clock charge made before the device runs,
    /// so a device that reads the clock (a firing vulnerability stamps its
    /// record) sees the frame arrived and processed.
    fn deliver(&mut self, frame: &L2capFrame, fragment_count: usize, in_flight_micros: u64) {
        // A single fragment crosses the air byte-for-byte, so re-parsing its
        // serialized form is the identity: the device is handed a borrowed
        // view of the original frame and no byte is serialized or copied.
        // Larger frames go through the full ACL fragmentation/reassembly
        // path — zero-copy fragments sliced from one shared buffer —
        // exercising the same code a real controller buffer would.
        let reassembled;
        let delivered_frame = if fragment_count == 1 {
            frame
        } else {
            let wire = FrameBuf::build(|out| frame.encode_into(out));
            let fragments = acl::fragment(self.handle, &wire);
            match acl::reassemble(&fragments).and_then(|bytes| L2capFrame::parse_buf(&bytes)) {
                Ok(f) => {
                    reassembled = f;
                    &reassembled
                }
                Err(_) => {
                    // Lost in reassembly, after crossing the air.
                    self.clock.advance_micros(in_flight_micros);
                    return;
                }
            }
        };

        let mut dev = self.device.lock();
        self.clock
            .advance_micros(in_flight_micros + dev.processing_cost_micros());
        if dev.bluetooth_alive() {
            dev.receive_into(self.slot, delivered_frame, &mut self.replies);
        }
    }
}

impl Drop for LinkHandle {
    fn drop(&mut self) {
        self.retire();
    }
}

/// Serializes arbitrary observations through one link's event source.
///
/// An out-of-band oracle (crash dumps over `adb`/`ssh`) reads device state
/// the medium does not carry; with concurrent initiators those reads still
/// have to happen at a *defined* point of the event schedule or campaigns
/// stop being replayable.  `EventGate::serialized` fires a zero-cost event
/// at the owning link's current virtual time: the observation waits its
/// turn at the turnstile exactly like a frame exchange would.
pub struct EventGate {
    core: Arc<MediumCore>,
    source: SourceId,
    clock: SimClock,
    retired: Arc<AtomicBool>,
}

impl EventGate {
    /// Runs `f` as a zero-cost event on the gate's link source.  After the
    /// link retires, `f` runs directly — the link's thread is the only one
    /// left interested in its timeline.
    pub fn serialized<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.retired.load(Ordering::Acquire) {
            return f();
        }
        let ticket = self
            .core
            .scheduler
            .begin_event(self.source, self.clock.now_micros());
        let result = f();
        self.core
            .scheduler
            .end_event(self.source, self.clock.now_micros(), &ticket);
        result
    }
}

/// Retires a link's event source exactly once, no matter which handle
/// (the [`LinkHandle`] itself, its drop, or a [`RetireGuard`]) gets there
/// first.
fn retire_once(retired: &AtomicBool, core: &MediumCore, source: SourceId, clock: &SimClock) {
    if !retired.swap(true, Ordering::AcqRel) {
        core.clock.advance_to(clock.now_micros());
        core.scheduler.retire(source);
    }
}

/// Retires its link when dropped — including during a panic unwind.
///
/// Obtained from [`LinkHandle::retire_guard`]; see there for why concurrent
/// initiators hold one.
pub struct RetireGuard {
    core: Arc<MediumCore>,
    source: SourceId,
    clock: SimClock,
    retired: Arc<AtomicBool>,
}

impl Drop for RetireGuard {
    fn drop(&mut self) {
        retire_once(&self.retired, &self.core, self.source, &self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::EchoDevice;
    use crate::link::new_tap;
    use btcore::Cid;

    fn setup() -> (EventMedium, BdAddr) {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock);
        let addr = BdAddr::new([0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01]);
        air.register(Box::new(EchoDevice::new(addr)));
        (air, addr)
    }

    #[test]
    fn inquiry_finds_registered_devices() {
        let (air, addr) = setup();
        let found = air.inquiry();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].addr, addr);
        assert_eq!(air.device_count(), 1);
    }

    #[test]
    fn connect_unknown_device_fails() {
        let (mut air, _) = setup();
        match air.connect(
            BdAddr::new([9, 9, 9, 9, 9, 9]),
            LinkConfig::ideal(),
            FuzzRng::seed_from(1),
        ) {
            Err(err) => assert!(matches!(err, BtError::UnknownDevice { .. })),
            Ok(_) => panic!("connecting to an unknown address must fail"),
        }
    }

    #[test]
    fn connect_on_unsupported_transport_is_refused() {
        let (mut air, addr) = setup();
        // EchoDevice announces BR/EDR only.
        let result = air.connect_spec(
            LinkSpec::new(addr, LinkConfig::ideal(), FuzzRng::seed_from(1)).on(LinkType::Le),
        );
        assert!(matches!(
            result,
            Err(BtError::Connection(ConnectionError::Refused))
        ));
    }

    #[test]
    fn send_frame_roundtrips_through_echo_device() {
        let (mut air, addr) = setup();
        let mut link = air
            .connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(1))
            .unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let responses = link.send_frame(&frame);
        assert_eq!(responses, vec![frame]);
        assert_eq!(link.frames_sent(), 1);
        assert_eq!(link.frames_received(), 1);
        assert!(link.device_alive());
        assert_eq!(link.slot(), LinkSlot::PRIMARY);
        assert_eq!(link.link_type(), LinkType::BrEdr);
    }

    #[test]
    fn taps_see_both_directions() {
        let (mut air, addr) = setup();
        let mut link = air
            .connect(addr, LinkConfig::default(), FuzzRng::seed_from(1))
            .unwrap();
        let tap = new_tap();
        link.attach_tap(tap.clone());
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        link.send_frame(&frame);
        let records = tap.lock();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].direction, Direction::Tx);
        assert_eq!(records[1].direction, Direction::Rx);
        assert!(records[1].timestamp_micros >= records[0].timestamp_micros);
    }

    #[test]
    fn clock_advances_with_traffic() {
        let (mut air, addr) = setup();
        let clock = air.clock();
        let before = clock.now_micros();
        let mut link = air
            .connect(addr, LinkConfig::default(), FuzzRng::seed_from(1))
            .unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        link.send_frame(&frame);
        assert!(clock.now_micros() > before);
    }

    #[test]
    fn exchanges_are_stamped_at_exact_virtual_times() {
        // The default link takes 800 µs to transmit and 400 µs per ACL
        // fragment in flight and per reply; the echo device processes each
        // delivery for 150 µs.  One exchange from a link connected at 5 ms,
        // on the medium clock or on a clock of its own: the tap's stamps,
        // then the link and medium clocks.
        let exchange = |payload: Vec<u8>, faults: FaultPlan, own_clock: bool| {
            let (mut air, addr) = setup();
            let config = LinkConfig::default().with_faults(faults);
            let mut spec = LinkSpec::new(addr, config, FuzzRng::seed_from(1));
            if own_clock {
                spec = spec.with_clock(SimClock::new());
            }
            let mut link = air.connect_spec(spec).unwrap();
            assert_eq!(link.clock().now_micros(), 5_000);
            let tap = new_tap();
            link.attach_tap(tap.clone());
            link.send_frame(&L2capFrame::new(Cid::SIGNALING, payload));
            let stamps = tap
                .lock()
                .iter()
                .map(|r| (r.direction, r.timestamp_micros))
                .collect::<Vec<_>>();
            (stamps, link.clock().now_micros(), air.clock().now_micros())
        };
        let (tx, rx) = (Direction::Tx, Direction::Rx);
        let request = vec![0x08, 0x01, 0x00, 0x00];
        for own_clock in [false, true] {
            let (stamps, link_end, medium_end) =
                exchange(request.clone(), FaultPlan::none(), own_clock);
            assert_eq!(stamps, [(tx, 5_800), (rx, 6_750)]);
            assert_eq!((link_end, medium_end), (6_750, 6_750));
            // 3,000 payload bytes cross as three ACL fragments.
            let (stamps, ..) = exchange(vec![0x5A; 3000], FaultPlan::none(), own_clock);
            assert_eq!(stamps, [(tx, 5_800), (rx, 7_550)]);
            // A duplicate is processed again, and both replies travel back.
            let duplicated = FaultPlan::none().with_duplication(1.0);
            let (stamps, ..) = exchange(request.clone(), duplicated, own_clock);
            assert_eq!(stamps, [(tx, 5_800), (rx, 6_900), (rx, 7_300)]);
        }
    }

    #[test]
    fn total_loss_drops_every_frame() {
        let (mut air, addr) = setup();
        let config = LinkConfig::default().with_faults(FaultPlan::none().with_loss(1.0));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let tap = new_tap();
        link.attach_tap(tap.clone());
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        for _ in 0..10 {
            assert!(link.send_frame(&frame).is_empty());
        }
        assert_eq!(link.frames_received(), 0);
        assert_eq!(link.frames_sent(), 10);
        // Dropped frames still crossed the link: the taps see every one.
        let records = tap.lock();
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(|r| r.direction == Direction::Tx));
    }

    #[test]
    fn large_frame_survives_fragmentation() {
        let (mut air, addr) = setup();
        let mut link = air
            .connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(1))
            .unwrap();
        let payload = vec![0x5A; 3000];
        let frame = L2capFrame::new(Cid::SIGNALING, payload);
        let responses = link.send_frame(&frame);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0], frame);
    }

    #[test]
    fn links_get_distinct_slots_and_handles() {
        let (mut air, addr) = setup();
        let a = air
            .connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(1))
            .unwrap();
        let b = air
            .connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(2))
            .unwrap();
        assert_eq!(a.slot(), LinkSlot(0));
        assert_eq!(b.slot(), LinkSlot(1));
        assert_ne!(a.handle(), b.handle());
    }

    #[test]
    fn handles_stay_distinct_and_valid_past_0x00ff() {
        let (mut air, addr) = setup();
        let handles: std::collections::BTreeSet<ConnectionHandle> = (0..300)
            .map(|i| {
                air.connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(i))
                    .unwrap()
                    .handle()
            })
            .collect();
        assert_eq!(handles.len(), 300);
        assert!(handles.iter().all(ConnectionHandle::is_valid));
    }

    #[test]
    fn fault_duplication_delivers_twice() {
        let (mut air, addr) = setup();
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_duplication(1.0));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let responses = link.send_frame(&frame);
        assert_eq!(responses, vec![frame.clone(), frame]);
    }

    #[test]
    fn fault_loss_drops_every_frame() {
        let (mut air, addr) = setup();
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_loss(1.0));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        for _ in 0..10 {
            assert!(link.send_frame(&frame).is_empty());
        }
        assert_eq!(link.frames_received(), 0);
    }

    #[test]
    fn fault_stall_makes_target_silent() {
        let (mut air, addr) = setup();
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_stall(1.0, 60_000));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        for _ in 0..5 {
            assert!(link.send_frame(&frame).is_empty());
        }
        assert_eq!(link.frames_received(), 0);
    }

    #[test]
    fn fault_reorder_delivers_previous_frame_late() {
        let (mut air, addr) = setup();
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_reorder(1.0));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let a = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let b = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x02, 0x00, 0x00]);
        // First frame is held back...
        assert!(link.send_frame(&a).is_empty());
        // ...and arrives after the second: the echo answers B, then A.
        assert_eq!(link.send_frame(&b), vec![b, a]);
    }

    #[test]
    fn fault_corruption_mangles_payload_but_frame_survives() {
        let (mut air, addr) = setup();
        let config = LinkConfig::ideal().with_faults(FaultPlan::none().with_corruption(1.0));
        let mut link = air.connect(addr, config, FuzzRng::seed_from(1)).unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x04, 0x00, 1, 2, 3, 4]);
        let responses = link.send_frame(&frame);
        assert_eq!(responses.len(), 1);
        assert_ne!(responses[0], frame);
        assert_eq!(responses[0].to_bytes().len(), frame.to_bytes().len());
    }

    #[test]
    fn fault_jitter_is_deterministic_and_slows_the_link() {
        let run = |jitter: u64| {
            let (mut air, addr) = setup();
            let config = LinkConfig::default().with_faults(FaultPlan::none().with_jitter(jitter));
            let mut link = air.connect(addr, config, FuzzRng::seed_from(3)).unwrap();
            let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
            for _ in 0..20 {
                link.send_frame(&frame);
            }
            link.clock().now_micros()
        };
        assert_eq!(run(700), run(700));
        assert!(run(700) > run(1));
    }

    #[test]
    fn faulty_schedule_replays_bit_for_bit() {
        let run = || {
            let (mut air, addr) = setup();
            let plan = FaultPlan::degraded(0.2, 0.2)
                .with_duplication(0.1)
                .with_reorder(0.2)
                .with_stall(0.05, 10_000)
                .with_jitter(300);
            let config = LinkConfig::default().with_faults(plan);
            let mut link = air.connect(addr, config, FuzzRng::seed_from(9)).unwrap();
            let tap = new_tap();
            link.attach_tap(tap.clone());
            for k in 0..40u8 {
                let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, k.max(1), 0x00, 0x00]);
                link.send_frame(&frame);
            }
            let records = tap.lock();
            records
                .iter()
                .map(|r| (r.direction, r.timestamp_micros, r.frame.to_bytes()))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run());
        // The plan actually bites: some responses are missing or mutated.
        assert!(first.iter().filter(|r| r.0 == Direction::Rx).count() < 40);
    }

    #[test]
    fn watchdog_expiry_panics_with_typed_payload() {
        let (mut air, addr) = setup();
        let spec =
            LinkSpec::new(addr, LinkConfig::default(), FuzzRng::seed_from(1)).with_watchdog(10_000);
        let mut link = air.connect_spec(spec).unwrap();
        let frame = L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..100 {
                link.send_frame(&frame);
            }
        }));
        let payload = result.expect_err("watchdog must fire within 100 default-cost sends");
        let expired = payload
            .downcast_ref::<WatchdogExpired>()
            .expect("payload must be WatchdogExpired");
        assert!(expired.now_micros > expired.deadline_micros);
    }

    #[test]
    fn concurrent_links_interleave_deterministically() {
        // Two initiators on their own clocks and threads: the device sees
        // the same frame order on every run because the turnstile admits
        // exchanges by virtual time, not by OS scheduling.
        let run = || {
            let (mut air, addr) = setup();
            let taps: Vec<SharedTap> = (0..2).map(|_| new_tap()).collect();
            std::thread::scope(|scope| {
                for (i, tap) in taps.iter().enumerate() {
                    let mut link = air
                        .connect_spec(
                            LinkSpec::new(
                                addr,
                                LinkConfig::default(),
                                FuzzRng::seed_from(i as u64),
                            )
                            .with_clock(SimClock::new()),
                        )
                        .unwrap();
                    link.attach_tap(tap.clone());
                    scope.spawn(move || {
                        for k in 0..20u8 {
                            let frame =
                                L2capFrame::new(Cid::SIGNALING, vec![0x08, k.max(1), 0x00, 0x00]);
                            link.send_frame(&frame);
                        }
                        link.retire();
                    });
                }
            });
            assert_eq!(air.events_fired(), 40);
            taps.iter()
                .map(|tap| {
                    tap.lock()
                        .iter()
                        .map(|r| (r.timestamp_micros, r.frame.to_bytes()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first[0].len(), 40);
        assert_eq!(first[1].len(), 40);
    }
}
