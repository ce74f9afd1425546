//! Allocation budget of report and trace rendering.
//!
//! Rendering a trace through the streaming JSON writer may allocate only
//! to grow its output buffer and container stack — O(log n) times — and
//! never once per record: no `String` per enum name, escape or indent.
//! This test has a binary of its own because the counting allocator's
//! counter is process-global, so a test running beside it would leak its
//! allocations into the count.

use alloc_counter::{allocations, CountingAllocator};
use l2fuzz_repro::btcore::Cid;
use l2fuzz_repro::hci::link::{Direction, PacketRecord};
use l2fuzz_repro::l2cap::packet::L2capFrame;
use l2fuzz_repro::sniffer::Trace;
use serde_json::{to_string_pretty_streamed, to_string_streamed};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Output growth by doubling costs about log2(bytes) reallocations, about
/// 20 for each render below; one allocation per record would be 10k.
const MAX_ALLOCS_PER_RENDER: u64 = 64;

#[test]
fn rendering_a_trace_allocates_per_buffer_growth_not_per_record() {
    const RECORDS: u64 = 10_000;
    let records = (0..RECORDS)
        .map(|i| PacketRecord {
            direction: if i % 2 == 0 {
                Direction::Tx
            } else {
                Direction::Rx
            },
            timestamp_micros: 1_250 * i,
            frame: L2capFrame::new(
                Cid::SIGNALING,
                (0..4 + i % 9)
                    .map(|b| (b * 37 + i) as u8)
                    .collect::<Vec<u8>>(),
            ),
        })
        .collect();
    let trace = Trace::from_records(records);

    let before = allocations();
    let compact = to_string_streamed(&trace);
    let compact_allocs = allocations() - before;

    let before = allocations();
    let pretty = to_string_pretty_streamed(&trace);
    let pretty_allocs = allocations() - before;

    assert!(compact.len() > 1_000_000 && pretty.len() > compact.len());
    assert!(
        compact_allocs < MAX_ALLOCS_PER_RENDER,
        "compact render of {RECORDS} records allocated {compact_allocs} times"
    );
    assert!(
        pretty_allocs < MAX_ALLOCS_PER_RENDER,
        "pretty render of {RECORDS} records allocated {pretty_allocs} times"
    );
}
