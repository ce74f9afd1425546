//! Concurrent initiators, dual-transport campaigns and seed sweeps.
//!
//! The event-driven medium lets one campaign drive several links against a
//! single target at once — every exchange passes a deterministic turnstile,
//! so the whole run still replays bit-for-bit from its seed.  This example
//! walks the three concurrency knobs of `Campaign::builder()`:
//!
//! ```text
//! cargo run --example concurrent_initiators
//! ```

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::{derived_seeds, Campaign};
use l2fuzz::config::FuzzConfig;
use l2fuzz::session::L2FuzzTool;

fn main() {
    // 1. Two initiators on one hardened target.  Each gets its own link,
    //    seed stream, packet tap and fresh fuzzer instance; the device
    //    serves each link from an isolated acceptor (per-link CID spaces).
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .initiators_per_target(2)
        .seed(21)
        .run()
        .expect("multi-initiator campaign runs")
        .into_single();
    println!("== two initiators vs {} ==", outcome.profile.name);
    for (i, report) in outcome.reports().enumerate() {
        println!(
            "  initiator #{i}: {} packets, {} states, vulnerable: {}",
            report.packets_sent,
            report.states_tested.len(),
            report.vulnerable()
        );
    }
    println!(
        "  merged trace: {} frames across both links\n",
        outcome.merged_trace().len()
    );

    // 2. Dual transport: one BR/EDR and one LE initiator fuzz the dual-mode
    //    phone concurrently in a single campaign.
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D10))
        .dual_transport()
        .seed(0xD10)
        .run()
        .expect("dual-transport campaign runs")
        .into_single();
    println!("== dual transport vs {} ==", outcome.profile.name);
    println!(
        "  BR/EDR initiator: {} packets; LE initiator: {} packets",
        outcome.report.packets_sent, outcome.secondary[0].report.packets_sent
    );
    println!(
        "  vulnerability detected: {} (device status: {:?})\n",
        outcome.any_vulnerable(),
        outcome.device.lock().status()
    );

    // 3. Seed sweep: eight short campaigns per target, one per seed — the
    //    way probability-gated triggers (the LE credit flows) get a fair
    //    chance.  Units shard across threads, deterministically.
    let tight = || {
        let config = FuzzConfig {
            max_packets: 100,
            ..FuzzConfig::default()
        };
        Box::new(L2FuzzTool::detection(config, 1)) as Box<dyn l2fuzz::fuzzer::Fuzzer>
    };
    let sweep = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D9))
        .fuzzer(tight)
        .seeds(derived_seeds(0x5EED, 8))
        .threads(4)
        .run()
        .expect("seed sweep runs");
    println!("== 8-seed sweep vs Galaxy Fit e ==");
    for target in &sweep.targets {
        println!(
            "  seed {:#018x}: vulnerable: {}",
            target.campaign_seed,
            target.any_vulnerable()
        );
    }
    let hits = sweep.targets.iter().filter(|t| t.any_vulnerable()).count();
    println!("  {hits}/8 seeds caught the credit-underflow at this budget");
}
