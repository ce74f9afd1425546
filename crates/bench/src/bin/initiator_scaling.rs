//! The initiator-scaling curve: a fixed 400-packet budget against the
//! hardened D4, split evenly over 1, 2, 4 and 8 concurrent initiators.
//! The work per run is constant, so the packets/s column reads directly as
//! the turnstile's concurrency cost.
//!
//! This is the repo's only multi-initiator measurement until `perfbench`
//! gains its `contend` workload (one target, several initiators). It prints
//! the median over 15 timed runs (after one warm-up) per initiator count and
//! writes no file.
//!
//! ```text
//! cargo run --release -p bench --bin initiator_scaling
//! ```

use std::time::Instant;

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::{Campaign, OraclePolicy};
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::TxBudget;
use l2fuzz::session::L2FuzzTool;

const PACKETS: u64 = 400;
const RUNS: usize = 15;

/// One campaign of the curve.
fn run(initiators: u64) {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .initiators_per_target(initiators as usize)
        .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
        .budget(TxBudget::packets(PACKETS / initiators))
        .oracle(OraclePolicy::None)
        .auto_restart(true)
        .seed(0x5CA1E)
        .run()
        .expect("scaling campaign runs");
    std::hint::black_box(outcome);
}

fn main() {
    for initiators in [1u64, 2, 4, 8] {
        run(initiators);
        let mut samples_ns: Vec<u128> = (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                run(initiators);
                start.elapsed().as_nanos()
            })
            .collect();
        samples_ns.sort_unstable();
        let median_ns = samples_ns[RUNS / 2].max(1);
        let packets_per_s = PACKETS as f64 / (median_ns as f64 / 1e9);
        println!("x{initiators:<2} median {median_ns:>12} ns   {packets_per_s:>12.1} packets/s");
    }
}
