//! Allocation budget of the exchange path.
//!
//! Steady-state packet injection — mutate in the frame builder's scratch
//! buffer, frame the packet, push it across the virtual air — allocates
//! nothing for a signalling frame: a frame that fits inline is copied by
//! value into the packet, the frame and every tap record.  A tap allocates
//! only to grow its record vector.  The `SilentDevice` cases measure that
//! injection path alone.  The replying case adds a real target: its
//! endpoint, its replies appended to the link's reused buffer and
//! `queue::send`'s classification of them, and a whole exchange allocates
//! nothing either.  The tests count the allocations of their own thread:
//! libtest runs them in parallel, and the process-wide count would leak one
//! test's (or the harness's) allocations into the other's window.

use alloc_counter::{thread_allocations as allocations, CountingAllocator};
use btcore::{BdAddr, Cid, DeviceMeta, FrameBuf, FuzzRng, Identifier, LinkSlot, Psm, SimClock};
use btstack::profiles::{DeviceProfile, ProfileId};
use hci::device::VirtualDevice;
use hci::link::{new_tap, LinkConfig};
use hci::medium::{EventMedium, LinkHandle};
use l2cap::code::CommandCode;
use l2cap::command::{Command, EchoRequest};
use l2cap::packet::{L2capFrame, SignalingPacket};
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;
use l2fuzz::queue::send;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A registered device that consumes every frame silently: the injection
/// path is measured without the target's replies.
struct SilentDevice {
    meta: DeviceMeta,
}

impl VirtualDevice for SilentDevice {
    fn meta(&self) -> DeviceMeta {
        self.meta.clone()
    }
    fn receive_into(&mut self, _slot: LinkSlot, _frame: &L2capFrame, _out: &mut Vec<L2capFrame>) {}
    fn bluetooth_alive(&self) -> bool {
        true
    }
}

fn silent_link() -> LinkHandle {
    let clock = SimClock::new();
    let mut air = EventMedium::new(clock.clone());
    let addr = BdAddr::new([0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x01]);
    air.register(Box::new(SilentDevice {
        meta: DeviceMeta::new(addr, "silent", btcore::DeviceClass::Other),
    }));
    air.connect(addr, LinkConfig::ideal(), FuzzRng::seed_from(7))
        .unwrap()
}

fn inject(mutator: &mut CoreFieldMutator, link: &mut LinkHandle, ctx: &ChannelContext, n: u32) {
    for i in 0..n {
        let packet = mutator.mutate(
            CommandCode::ConfigureRequest,
            ctx,
            Identifier((i % 250 + 1) as u8),
        );
        let responses = link.send_frame(&packet.to_frame());
        assert!(responses.is_empty());
    }
}

fn context() -> ChannelContext {
    ChannelContext {
        scid: Cid(0x0040),
        dcid: Cid(0x0041),
        psm: Psm::SDP,
    }
}

/// The budget is tighter than the name: untapped injection allocates
/// nothing, and a tap allocates only to grow its record vector.
#[test]
fn steady_state_injection_allocates_at_most_two_per_packet() {
    const PACKETS: u32 = 1_000;
    let ctx = context();

    // Untapped link: nothing is allocated per packet.
    let mut link = silent_link();
    let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(42));
    // Warm-up: grow the scratch buffer and any lazily-allocated state.
    inject(&mut mutator, &mut link, &ctx, 64);
    let before = allocations();
    inject(&mut mutator, &mut link, &ctx, PACKETS);
    let untapped = allocations() - before;
    assert_eq!(
        untapped, 0,
        "untapped injection made {untapped} allocations for {PACKETS} packets"
    );

    // With a tap attached every frame is retained by the capture; only the
    // record vector's doubling allocates, about log2(records) times.
    let mut link = silent_link();
    let tap = new_tap();
    link.attach_tap(tap.clone());
    inject(&mut mutator, &mut link, &ctx, 64);
    let before = allocations();
    inject(&mut mutator, &mut link, &ctx, PACKETS);
    let tapped = allocations() - before;
    assert!(
        tapped < 16,
        "tapped injection made {tapped} allocations for {PACKETS} packets; \
         only the tap's growth may allocate"
    );
    assert!(tap.lock().len() >= PACKETS as usize);
}

#[test]
fn tap_records_share_the_injected_frames_buffers() {
    let ctx = context();
    let mut link = silent_link();
    let tap = new_tap();
    link.attach_tap(tap.clone());
    let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(1));
    inject(&mut mutator, &mut link, &ctx, 64);

    // A tap record of a small injected frame holds the same bytes and is
    // made without allocating (the record vector has room reserved): the
    // frame is inline, so the record copies it by value.
    tap.lock().reserve(1);
    let before = allocations();
    let packet = mutator.mutate(CommandCode::ConfigureRequest, &ctx, Identifier(1));
    let frame = packet.to_frame();
    link.send_frame(&frame);
    let captured = allocations() - before;
    assert_eq!(
        captured, 0,
        "capturing one small frame allocated {captured} times"
    );
    assert!(frame.payload.len() <= FrameBuf::INLINE_CAPACITY);
    let records = tap.lock();
    let record = records.last().unwrap();
    assert_eq!(record.frame, frame);
    assert_eq!(record.frame.payload, packet.to_bytes());
    drop(records);

    // Above the inline capacity the record shares the frame's allocation
    // instead of copying it.
    let large = L2capFrame::new(Cid::SIGNALING, vec![0xAB; 2 * FrameBuf::INLINE_CAPACITY]);
    link.send_frame(&large);
    let records = tap.lock();
    let record = records.last().unwrap();
    assert_eq!(record.frame, large);
    assert!(
        record.frame.payload.shares_storage_with(&large.payload),
        "the tap record of a large frame must share its buffer, not copy it"
    );
}

/// One round of the replying case: a mutated closed-context request, then a
/// ping.  Returns the allocations made inside the two `send`s and whether
/// the request was answered.
fn round(
    mutator: &mut CoreFieldMutator,
    link: &mut LinkHandle,
    ping: &SignalingPacket,
    i: u32,
) -> (u64, bool) {
    const REQUESTS: [CommandCode; 3] = [
        CommandCode::ConnectionRequest,
        CommandCode::ConfigureRequest,
        CommandCode::DisconnectionRequest,
    ];
    let packet = mutator.mutate(
        REQUESTS[i as usize % REQUESTS.len()],
        &ChannelContext::closed(Psm::SDP),
        Identifier((i % 250 + 1) as u8),
    );
    let before = allocations();
    let answered = !send(link, &packet).silent;
    let ponged = !send(link, ping).silent;
    let inside = allocations() - before;
    assert!(ponged, "the ping went unanswered");
    (inside, answered)
}

/// A whole exchange — mutated request, medium, endpoint, reply, tap,
/// classification — allocates nothing once the link is warm and the tap
/// has room.
#[test]
fn replying_exchanges_allocate_nothing_inside_send() {
    const ROUNDS: u32 = 1_000;
    let ping = SignalingPacket::new(
        Identifier(0x70),
        Command::EchoRequest(EchoRequest {
            data: vec![0x4C, 0x32],
        }),
    );
    // BlueDroid (D2) answers every request; the iOS stack (D4) drops each
    // one silently, since every mutation carries garbage, and answers only
    // the pings.
    for (target, answers_requests) in [(ProfileId::D2, true), (ProfileId::D4, false)] {
        let profile = DeviceProfile::table5(target);
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        air.register(Box::new(profile.build(clock, FuzzRng::seed_from(3))));
        let mut link = air
            .connect(profile.addr, LinkConfig::default(), FuzzRng::seed_from(4))
            .unwrap();
        let tap = new_tap();
        link.attach_tap(tap.clone());
        let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(42));
        // Warm-up: grow the reply buffer and the scratch buffers.
        for i in 0..64 {
            round(&mut mutator, &mut link, &ping, i);
        }
        // Room for every record: each round makes two exchanges of at most
        // one reply each.
        tap.lock().reserve(4 * ROUNDS as usize);

        let (mut inside, mut answered) = (0, 0);
        for i in 0..ROUNDS {
            let (allocs, replied) = round(&mut mutator, &mut link, &ping, i);
            inside += allocs;
            answered += u32::from(replied);
        }
        println!("{target}: {answered}/{ROUNDS} requests answered, {inside} allocations");
        assert_eq!(
            inside, 0,
            "{target}: {ROUNDS} rounds made {inside} allocations inside send"
        );
        assert_eq!(answered > 0, answers_requests, "{target}");
        assert!(link.device_alive(), "{target}: the target went down");
    }
}
