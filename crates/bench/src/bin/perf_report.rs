//! Quick-mode performance report: runs the workload of each of the five
//! Criterion benches — plus the LE-pipeline, multi-initiator, seed-sweep
//! and initiator-scaling-curve campaigns — a fixed number of times, records
//! the median wall-clock per iteration plus derived packets/second and
//! measured heap allocations per packet, and writes the result as JSON.
//!
//! The committed `BENCH_PR10.json` at the repository root is the tracked
//! baseline of this report (`BENCH_PR3.json`…`BENCH_PR8.json` remain as
//! earlier reference points); CI re-runs it on every change (non-gating),
//! uploads the fresh report as an artifact and — via repeatable
//! `--baseline` flags — compares it against each committed baseline,
//! flagging `packet_throughput` regressions beyond 10 % of the *best*
//! baseline in the job summary.
//!
//! Since PR 10 the report also carries a pinned detection ablation: median
//! packets-to-detection for the seeded extended-profile vulnerabilities
//! (D9/D10/D11), dictionary engine vs the coverage-guided feedback engine,
//! across eight sweep seeds.
//!
//! ```text
//! cargo run --release -p bench --bin perf_report [output.json] \
//!     [--baseline OLD.json]...
//! ```

use std::time::Instant;

use alloc_counter::{allocations, CountingAllocator};
use bench::run_comparison_serial;
use btcore::{Cid, FuzzRng, Identifier, Psm};
use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{FeedbackCampaignExt, FeedbackConfig};
use l2cap::code::CommandCode;
use l2cap::command::{Command, ConnectionRequest};
use l2cap::packet::{parse_signaling, signaling_frame, L2capFrame};
use l2cap::state::StateMachine;
use l2fuzz::campaign::{Campaign, OraclePolicy, SeedSweepExecutor};
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::TxBudget;
use l2fuzz::guide::ChannelContext;
use l2fuzz::mutator::CoreFieldMutator;
use l2fuzz::session::L2FuzzTool;
use l2fuzz::FaultPlan;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One measured bench: median ns/iteration over `runs` runs, packets/s
/// derived from the packets one iteration pushes through the pipeline, and
/// heap allocations per packet.
struct Measured {
    name: &'static str,
    median_ns: u64,
    packets_per_iter: u64,
    allocs_per_packet: f64,
}

impl Measured {
    fn packets_per_sec(&self) -> f64 {
        if self.median_ns == 0 {
            0.0
        } else {
            self.packets_per_iter as f64 / (self.median_ns as f64 / 1e9)
        }
    }
}

fn measure(
    name: &'static str,
    runs: usize,
    packets_per_iter: u64,
    mut iter: impl FnMut(),
) -> Measured {
    // Warm-up: populate caches, scratch buffers and the allocator.
    iter();
    let mut samples_ns: Vec<u64> = Vec::with_capacity(runs);
    let allocs_before = allocations();
    for _ in 0..runs {
        let t = Instant::now();
        iter();
        samples_ns.push(t.elapsed().as_nanos() as u64);
    }
    let total_allocs = allocations() - allocs_before;
    samples_ns.sort_unstable();
    Measured {
        name,
        median_ns: samples_ns[samples_ns.len() / 2],
        packets_per_iter,
        allocs_per_packet: total_allocs as f64 / (runs as u64 * packets_per_iter.max(1)) as f64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_PR10.json".to_owned();
    let mut baseline_paths: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--baseline" {
            baseline_paths.extend(iter.next());
        } else {
            out_path = arg;
        }
    }
    let mut results: Vec<Measured> = Vec::new();

    // 1. packet_codec — encode + decode of a Connection Request frame
    //    (1000 codec round-trips per iteration).
    {
        let frame = signaling_frame(
            Identifier(1),
            &Command::ConnectionRequest(ConnectionRequest {
                psm: Psm::SDP,
                scid: Cid(0x0040),
            }),
        );
        let bytes = frame.to_bytes();
        results.push(measure("packet_codec", 30, 1000, || {
            for _ in 0..1000 {
                let f = L2capFrame::parse(std::hint::black_box(&bytes)).unwrap();
                std::hint::black_box(parse_signaling(&f).unwrap().command());
                std::hint::black_box(frame.to_bytes());
            }
        }));
    }

    // 2. mutation — Algorithm 1 over the configuration job, 8 packets per
    //    command per iteration (the Criterion bench's batch).
    {
        let mut mutator = CoreFieldMutator::new(FuzzRng::seed_from(1));
        let ctx = ChannelContext {
            scid: Cid(0x40),
            dcid: Cid(0x41),
            psm: Psm::SDP,
        };
        let commands = l2cap::jobs::Job::Configuration.generous_valid_commands();
        let batch = (commands.len() * 8) as u64;
        results.push(measure("mutation", 200, batch, || {
            std::hint::black_box(mutator.generate(&commands, 8, &ctx, Identifier(1)));
        }));
    }

    // 3. state_machine — one full channel lifecycle per iteration.
    {
        results.push(measure("state_machine", 200, 6, || {
            let mut sm = StateMachine::new();
            sm.on_command(CommandCode::ConnectionRequest, true);
            sm.on_command(CommandCode::ConfigureRequest, true);
            sm.on_command(CommandCode::ConfigureResponse, true);
            sm.on_command(CommandCode::MoveChannelRequest, true);
            sm.on_command(CommandCode::MoveChannelConfirmationRequest, true);
            sm.on_command(CommandCode::DisconnectionRequest, true);
            std::hint::black_box(sm.visited().len());
        }));
    }

    // 4. packet_throughput — the §IV-C comparison round: 500 packets
    //    through each of the four tools (2000 injected packets total),
    //    serial so the number reflects pipeline cost, not parallelism.
    {
        results.push(measure("packet_throughput", 15, 2000, || {
            std::hint::black_box(run_comparison_serial(500, 0xBEEF));
        }));
    }

    // 5. ablation — one full-configuration 500-packet campaign.
    {
        results.push(measure("ablation", 15, 500, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(500))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .seed(0xA11A)
                .run()
                .expect("ablation campaign runs")
                .into_single();
            std::hint::black_box(outcome.trace.len());
        }));
    }

    // 5b. faulty_link — the ablation campaign again, but over a link
    //    dropping 10 % of frames: the cost of the fault layer's per-event
    //    RNG rolls plus the retried preludes that keep the walk complete.
    //    The budget still burns fully, so packets/s is directly comparable
    //    to `ablation`'s ideal-link number.
    {
        results.push(measure("faulty_link", 15, 500, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(500))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .faults(FaultPlan::none().with_loss(0.10))
                .seed(0xA11A)
                .run()
                .expect("faulty-link campaign runs")
                .into_single();
            std::hint::black_box(outcome.trace.len());
        }));
    }

    // 5c. time_to_detection_{ideal,faulty} — a full detection campaign
    //    against the vulnerable BR/EDR phone, on an ideal link and under
    //    10 % loss + 5 % corruption.  `packets_per_iter` is 1, so the
    //    median reads directly as wall-clock time to the first confirmed
    //    finding — the paper's end-to-end metric, pinned against link
    //    degradation.
    for (name, faults) in [
        ("time_to_detection_ideal", FaultPlan::none()),
        ("time_to_detection_faulty", FaultPlan::degraded(0.10, 0.05)),
    ] {
        results.push(measure(name, 15, 1, move || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
                .faults(faults)
                .seed(0xDE7EC7)
                .run()
                .expect("detection campaign runs")
                .into_single();
            assert!(outcome.report.vulnerable());
            std::hint::black_box(outcome.trace.len());
        }));
    }

    // 5d. time_to_detection_feedback — the same ideal-link detection
    //    campaign under the coverage-guided feedback engine (PR 10): corpus
    //    retention, energy scheduling and corpus-splice mutation included,
    //    so the median is directly comparable to
    //    `time_to_detection_ideal`'s dictionary number.
    {
        results.push(measure("time_to_detection_feedback", 15, 1, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .feedback(FeedbackConfig::default())
                .seed(0xDE7EC7)
                .run()
                .expect("feedback detection campaign runs")
                .into_single();
            assert!(outcome.report.vulnerable());
            std::hint::black_box(outcome.trace.len());
        }));
    }

    // 6. le_pipeline — a budget-driven campaign against the LE-only
    //    wearable: the credit-based connect/reconfigure flows, LE mutation
    //    and the LE liveness probe, 500 packets per iteration.
    {
        results.push(measure("le_pipeline", 15, 500, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D9))
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(500))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .seed(0x1EA0)
                .run()
                .expect("LE campaign runs")
                .into_single();
            std::hint::black_box(outcome.trace.len());
        }));
    }

    // 7. multi_initiator — two concurrent initiators on one hardened
    //    target, every exchange passing the event scheduler's turnstile
    //    (2 × 250 packets per iteration).  Measures the cost of the
    //    concurrent medium, including cross-thread event ordering.
    {
        results.push(measure("multi_initiator", 15, 500, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D4))
                .initiators_per_target(2)
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(250))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .seed(0x2141)
                .run()
                .expect("multi-initiator campaign runs")
                .into_single();
            std::hint::black_box(outcome.trace.len() + outcome.secondary[0].trace.len());
        }));
    }

    // 8. seed_sweep — four independently seeded 125-packet campaigns per
    //    iteration through `SeedSweepExecutor` (500 packets total),
    //    exercising per-seed environment setup and teardown.
    {
        results.push(measure("seed_sweep", 15, 500, || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(125))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .executor(SeedSweepExecutor::derived(0x53ED, 4))
                .run()
                .expect("seed sweep runs");
            std::hint::black_box(outcome.targets.len());
        }));
    }

    // 9. initiator_scaling_x{1,2,4,8} — the scaling curve: a fixed 400
    //    packet budget against the hardened D4, split evenly across 1, 2, 4
    //    and 8 concurrent initiators.  Constant work per iteration, so the
    //    packets/s column reads directly as the concurrency speedup (or the
    //    turnstile's overhead, where it dips).
    for (name, initiators) in [
        ("initiator_scaling_x1", 1u64),
        ("initiator_scaling_x2", 2),
        ("initiator_scaling_x4", 4),
        ("initiator_scaling_x8", 8),
    ] {
        results.push(measure(name, 15, 400, move || {
            let outcome = Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D4))
                .initiators_per_target(initiators as usize)
                .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())))
                .budget(TxBudget::packets(400 / initiators))
                .oracle(OraclePolicy::None)
                .auto_restart(true)
                .seed(0x5CA1E)
                .run()
                .expect("scaling campaign runs")
                .into_single();
            let frames: usize = outcome.trace.len()
                + outcome
                    .secondary
                    .iter()
                    .map(|s| s.trace.len())
                    .sum::<usize>();
            std::hint::black_box(frames);
        }));
    }

    let ablation = detection_ablation();

    // The report is written through the streaming JSON writer — the same
    // no-`Value`-tree path the campaign reports use.
    let mut w = serde_json::JsonStreamWriter::pretty();
    w.begin_object();
    for m in &results {
        w.key(m.name).begin_object();
        w.field("median_ns", &m.median_ns);
        w.field("packets_per_iter", &m.packets_per_iter);
        w.field(
            "packets_per_sec",
            &((m.packets_per_sec() * 10.0).round() / 10.0),
        );
        w.field(
            "allocs_per_packet",
            &((m.allocs_per_packet * 100.0).round() / 100.0),
        );
        w.end_object();
        println!(
            "{:<20} median {:>12} ns   {:>12.1} packets/s   {:>6.2} allocs/packet",
            m.name,
            m.median_ns,
            m.packets_per_sec(),
            m.allocs_per_packet
        );
    }
    w.key("detection_ablation").begin_object();
    w.field("seeds", &(ABLATION_SEEDS.len() as u64));
    for row in &ablation {
        w.key(&row.profile.to_string()).begin_object();
        w.field("dictionary_median_packets", &row.dictionary_median());
        w.field("feedback_median_packets", &row.feedback_median());
        w.field("dictionary_detected", &(row.dictionary_detected as u64));
        w.field("feedback_detected", &(row.feedback_detected as u64));
        w.end_object();
    }
    w.end_object();
    w.end_object();
    let json = w.finish();
    std::fs::write(&out_path, json + "\n").expect("report written");
    println!("wrote {out_path}");

    print_detection_ablation(&ablation);
    if !baseline_paths.is_empty() {
        compare_against_baselines(&results, &baseline_paths);
    }
}

/// The sweep seeds the detection ablation runs under — the extended-profile
/// scenario seeds, eight of them so the median is stable.
const ABLATION_SEEDS: [u64; 8] = [51, 52, 53, 54, 55, 56, 57, 58];

/// One target's row of the pinned D9/D10/D11 ablation: packets to detection
/// per sweep seed for each engine (the full spend, transitions and liveness
/// pings included; an undetected run is censored at its total spend).
struct AblationRow {
    profile: ProfileId,
    dictionary: Vec<u64>,
    feedback: Vec<u64>,
    dictionary_detected: usize,
    feedback_detected: usize,
}

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (sorted[sorted.len().div_ceil(2) - 1] + sorted[sorted.len() / 2]) / 2
}

impl AblationRow {
    fn dictionary_median(&self) -> u64 {
        median(&self.dictionary)
    }

    fn feedback_median(&self) -> u64 {
        median(&self.feedback)
    }
}

/// Runs the pinned ablation: for each seeded extended-profile vulnerability,
/// a dictionary detection campaign and a coverage-guided feedback campaign
/// per sweep seed.  The dictionary baseline gets configuration-option
/// mutation on D11 — without it the ERTM zero-window seed is unreachable
/// and the comparison would be a strawman.
fn detection_ablation() -> Vec<AblationRow> {
    [ProfileId::D9, ProfileId::D10, ProfileId::D11]
        .into_iter()
        .map(|id| {
            let mut row = AblationRow {
                profile: id,
                dictionary: Vec::new(),
                feedback: Vec::new(),
                dictionary_detected: 0,
                feedback_detected: 0,
            };
            for seed in ABLATION_SEEDS {
                let dict = Campaign::builder()
                    .target(DeviceProfile::table5(id))
                    .fuzzer(move || {
                        let cfg = if id == ProfileId::D11 {
                            FuzzConfig::default().with_config_option_mutation()
                        } else {
                            FuzzConfig::default()
                        };
                        Box::new(L2FuzzTool::detection(cfg, 3))
                    })
                    .seed(seed)
                    .run()
                    .expect("ablation dictionary campaign runs")
                    .into_single();
                row.dictionary.push(dict.report.packets_sent);
                row.dictionary_detected += usize::from(dict.report.vulnerable());

                let fb = Campaign::builder()
                    .target(DeviceProfile::table5(id))
                    .feedback(FeedbackConfig::default())
                    .seed(seed)
                    .run()
                    .expect("ablation feedback campaign runs")
                    .into_single();
                row.feedback.push(fb.report.packets_sent);
                row.feedback_detected += usize::from(fb.report.vulnerable());
            }
            row
        })
        .collect()
}

/// Prints the ablation as a GitHub-flavoured markdown table; the CI bench
/// job appends it to the step summary together with the baseline tables.
fn print_detection_ablation(rows: &[AblationRow]) {
    println!(
        "\n### Detection ablation (median packets to detection, {} sweep seeds)\n",
        ABLATION_SEEDS.len()
    );
    println!("| target | dictionary | feedback | detected (dict/fb) |");
    println!("|---|---:|---:|---:|");
    for row in rows {
        println!(
            "| {} | {} | {} | {}/{} of {} |",
            row.profile,
            row.dictionary_median(),
            row.feedback_median(),
            row.dictionary_detected,
            row.feedback_detected,
            ABLATION_SEEDS.len()
        );
    }
}

/// Reads one committed baseline report, returning a lookup from bench name
/// to its recorded `median_ns`.
fn load_baseline(path: &str) -> Option<serde::Value> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            println!("\n> baseline {path} not readable ({err}); comparison skipped");
            return None;
        }
    };
    match serde_json::from_str_streamed(&text) {
        Ok(v) => Some(v),
        Err(err) => {
            println!("\n> baseline {path} not valid JSON ({err}); comparison skipped");
            None
        }
    }
}

fn baseline_median(baseline: &serde::Value, name: &str) -> Option<f64> {
    match baseline.get(name)?.get("median_ns")? {
        serde::Value::U64(n) => Some(*n as f64),
        serde::Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Prints a GitHub-flavoured markdown comparison against every committed
/// baseline report passed via (repeatable) `--baseline` flags, and flags
/// `packet_throughput` regressions beyond 10 % of the *best* (lowest
/// median) baseline — so the gate ratchets against the best number ever
/// committed, not just the previous PR's.  The CI bench job appends this to
/// its step summary; the job itself stays non-gating, so the exit code
/// still signals the regression to scripts that care.
fn compare_against_baselines(results: &[Measured], baseline_paths: &[String]) {
    let baselines: Vec<(&str, serde::Value)> = baseline_paths
        .iter()
        .filter_map(|p| load_baseline(p).map(|b| (p.as_str(), b)))
        .collect();
    if baselines.is_empty() {
        return;
    }

    for (path, baseline) in &baselines {
        println!("\n### Perf vs `{path}`\n");
        println!("| bench | baseline | now | change |");
        println!("|---|---:|---:|---:|");
        for m in results {
            let Some(base_ns) = baseline_median(baseline, m.name) else {
                println!("| {} | — | {} ns | new bench |", m.name, m.median_ns);
                continue;
            };
            let delta = (m.median_ns as f64 - base_ns) / base_ns * 100.0;
            println!(
                "| {} | {:.0} ns | {} ns | {delta:+.1} % |",
                m.name, base_ns, m.median_ns
            );
        }
    }

    // The ratchet: packet_throughput must stay within 10 % of the best
    // committed baseline.
    let best = baselines
        .iter()
        .filter_map(|(path, b)| baseline_median(b, "packet_throughput").map(|ns| (*path, ns)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    let Some((best_path, best_ns)) = best else {
        println!("\n> no baseline records packet_throughput; gate skipped");
        return;
    };
    let Some(now) = results.iter().find(|m| m.name == "packet_throughput") else {
        println!("\n> this run records no packet_throughput; gate skipped");
        return;
    };
    let delta = (now.median_ns as f64 - best_ns) / best_ns * 100.0;
    println!(
        "\nbest committed packet_throughput baseline: {best_ns:.0} ns (`{best_path}`); \
         this run {delta:+.1} %"
    );
    if delta > 10.0 {
        println!("\n**`packet_throughput` regressed more than 10 % against the best baseline.**");
        std::process::exit(2);
    }
    println!("\npacket_throughput within 10 % of the best baseline.");
}
