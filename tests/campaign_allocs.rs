//! Allocation budget and byte identity of whole fuzzing campaigns.
//!
//! Budget-mode campaigns against three targets must stay within a fixed
//! number of heap allocations per reported packet, and their packet traces
//! must hash to pinned digests: a change to the frame pipeline can neither
//! creep back to per-packet heap traffic nor move a byte on the air.  Both
//! are deterministic counters, so the gate has no noise band.  This test
//! has a binary of its own because the counting allocator's counter is
//! process-global, so a test running beside it would leak its allocations
//! into the count.

use alloc_counter::{allocations, CountingAllocator};
use l2fuzz_repro::btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz_repro::l2fuzz::campaign::Campaign;
use l2fuzz_repro::l2fuzz::{FuzzConfig, Fuzzer, L2FuzzTool, TxBudget};
use l2fuzz_repro::service::digest::trace_digest;
use l2fuzz_repro::sniffer::TraceAnalysis;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const SEED: u64 = 11;
const BUDGET: u64 = 5_000;

/// Campaign set-up (the first one in a process also explores the protocol
/// model and caches the guide's plans), the port scan, state guiding (its
/// owned commands and state-machine reactions), the tap's growth and the
/// report stay within this budget.  A steady-state exchange allocates
/// nothing (`tests/alloc_per_packet.rs`).
const MAX_ALLOCS_PER_PACKET: f64 = 0.5;

/// Each target with the digest of its campaign's packet trace.
const PINNED_TRACES: [(ProfileId, u64); 3] = [
    (ProfileId::D2, 0xe927_0a94_d6ae_58f8),
    (ProfileId::D4, 0x2f28_e4a4_9174_e4ac),
    (ProfileId::D10, 0x9992_359c_02b4_5113),
];

/// The sniffer's verdicts on each pinned trace, in `PINNED_TRACES` order:
/// (transmitted, malformed, received, rejections) and the covered-state
/// signature, read on the target's own link type.
const PINNED_ANALYSES: [((usize, usize, usize, usize), u32); 3] = [
    ((5019, 3369, 3529, 1213), 0x6e3eb),
    ((5020, 2462, 2572, 27), 0x6e3eb),
    ((5010, 3118, 3227, 959), 0x06023),
];

#[test]
fn budget_campaigns_make_at_most_half_an_allocation_per_packet_and_replay() {
    for ((target, pinned), (counts, signature)) in PINNED_TRACES.into_iter().zip(PINNED_ANALYSES) {
        let before = allocations();
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(target))
            .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())) as Box<dyn Fuzzer>)
            .budget(TxBudget::packets(BUDGET))
            .auto_restart(true)
            .seed(SEED)
            .run()
            .expect("campaign runs")
            .into_single();
        let allocs = allocations() - before;

        let analysis = TraceAnalysis::from_trace_on(&outcome.trace, outcome.profile.link_type);
        let m = &analysis.metrics;
        assert_eq!(
            (m.transmitted, m.malformed, m.received, m.rejections),
            counts,
            "{target}: sniffer counts"
        );
        assert_eq!(
            analysis.coverage.signature(),
            signature,
            "{target}: coverage signature {:#07x}",
            analysis.coverage.signature()
        );

        let digest = trace_digest(&outcome.trace);
        assert_eq!(
            digest, pinned,
            "{target}: trace digest {digest:016x}, pinned {pinned:016x}"
        );
        let packets = outcome.report.packets_sent;
        assert!(packets > 0, "{target}: no packet reported");
        let per_packet = allocs as f64 / packets as f64;
        println!("{target}: {allocs} allocations for {packets} packets ({per_packet:.2}/packet)");
        assert!(
            per_packet <= MAX_ALLOCS_PER_PACKET,
            "{target}: {per_packet:.2} allocations per packet ({allocs} for {packets}); \
             the budget is {MAX_ALLOCS_PER_PACKET}"
        );
    }
}
