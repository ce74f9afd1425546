//! Reproducibility guarantee (paper §III): a fuzzing campaign is a pure
//! function of its seed.  Two campaigns with the same seed against freshly
//! built simulated devices must produce byte-identical reports and traces; a
//! different seed must actually change the campaign.  The same holds across
//! thread counts: a campaign on any number of worker threads must reproduce
//! its one-thread per-device results bit-for-bit.

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::{derived_seeds, Campaign, CampaignOutcome, TargetOutcome};
use l2fuzz::config::FuzzConfig;
use l2fuzz::report::FuzzReport;
use l2fuzz::session::L2FuzzTool;
use sniffer::Trace;

/// One complete, self-contained single-target campaign: fresh clock, fresh
/// air medium, fresh device — nothing shared with any other invocation.
fn run_campaign(id: ProfileId, seed: u64) -> (FuzzReport, Trace) {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(id))
        .seed(seed)
        .run()
        .expect("campaign runs")
        .into_single();
    (outcome.report, outcome.trace)
}

#[test]
fn same_seed_produces_identical_reports() {
    // One vulnerable device (campaign ends in a finding) and one hardened
    // device (campaign runs to completion) — determinism must hold on both
    // paths.
    for (id, seed) in [(ProfileId::D2, 0xD5EED), (ProfileId::D4, 0xD5EED)] {
        let (first, first_trace) = run_campaign(id, seed);
        let (second, second_trace) = run_campaign(id, seed);
        assert_eq!(first, second, "{id} seed {seed:#x}: reports diverged");

        // The serialized form is the artifact a user archives; it must be
        // byte-identical too.
        assert_eq!(first.to_json().unwrap(), second.to_json().unwrap());

        // The on-air traffic — every packet, both directions, with
        // timestamps from the virtual clock — must replay exactly.
        assert_eq!(
            first_trace.records(),
            second_trace.records(),
            "{id}: traffic diverged"
        );
    }
}

#[test]
fn replayed_report_survives_a_json_round_trip() {
    let (report, _) = run_campaign(ProfileId::D2, 0xD5EED);
    let json = report.to_json().unwrap();
    let back = FuzzReport::from_json(&json).unwrap();
    assert_eq!(back, report);
    // And a re-run still matches the deserialized copy.
    let (again, _) = run_campaign(ProfileId::D2, 0xD5EED);
    assert_eq!(back, again);
}

#[test]
fn different_seeds_change_the_campaign() {
    let (a, trace_a) = run_campaign(ProfileId::D4, 1);
    let (b, trace_b) = run_campaign(ProfileId::D4, 2);
    let frames =
        |t: &Trace| -> Vec<Vec<u8>> { t.records().iter().map(|r| r.frame.to_bytes()).collect() };
    assert_ne!(
        frames(&trace_a),
        frames(&trace_b),
        "different seeds replayed identical traffic"
    );
    // Campaign shape stays comparable even though the packets differ.
    assert_eq!(a.states_tested, b.states_tested);
}

/// Runs the full eight-device survey on `threads` workers and returns the
/// serialized per-device reports plus the raw traces.
fn survey(threads: usize, seed: u64) -> (Vec<String>, Vec<Trace>) {
    let outcome: CampaignOutcome = Campaign::builder()
        .targets(DeviceProfile::all())
        .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
        .seed(seed)
        .threads(threads)
        .run()
        .expect("survey runs");
    let json = outcome.reports().map(|r| r.to_json().unwrap()).collect();
    let traces = outcome.targets.into_iter().map(|t| t.trace).collect();
    (json, traces)
}

#[test]
fn sharded_executor_reproduces_serial_reports_at_any_thread_count() {
    let seed = 0x5EED_CAFE;
    let (serial_reports, serial_traces) = survey(1, seed);
    assert_eq!(serial_reports.len(), 8);
    for threads in [1, 2, 4] {
        let (sharded_reports, sharded_traces) = survey(threads, seed);
        assert_eq!(
            serial_reports, sharded_reports,
            "per-device FuzzReport JSON diverged at {threads} thread(s)"
        );
        for (i, (a, b)) in serial_traces.iter().zip(&sharded_traces).enumerate() {
            assert_eq!(
                a.records(),
                b.records(),
                "trace of target #{i} diverged at {threads} thread(s)"
            );
        }
    }
}

/// One target's serialized form: every initiator's report JSON plus every
/// initiator's trace as raw timestamped bytes.
type TargetFingerprint = (Vec<String>, Vec<Vec<Vec<u8>>>);

/// Serializes every initiator of every target: reports as JSON, traces as
/// raw records — the full observable output of a multi-initiator campaign.
fn fingerprint(targets: &[TargetOutcome]) -> Vec<TargetFingerprint> {
    targets
        .iter()
        .map(|t| {
            let reports = t.reports().map(|r| r.to_json().unwrap()).collect();
            let mut traces: Vec<Vec<Vec<u8>>> = Vec::new();
            for trace in std::iter::once(&t.trace).chain(t.secondary.iter().map(|i| &i.trace)) {
                traces.push(
                    trace
                        .records()
                        .iter()
                        .map(|r| {
                            let mut bytes = r.timestamp_micros.to_le_bytes().to_vec();
                            bytes.extend(r.frame.to_bytes());
                            bytes
                        })
                        .collect(),
                );
            }
            (reports, traces)
        })
        .collect()
}

#[test]
fn multi_initiator_campaigns_replay_bit_for_bit() {
    // Two concurrent initiators race for the medium's turnstile on real OS
    // threads; the event scheduler must serialize them identically on every
    // run.  One hardened target (full interleaved run) and the dual-mode
    // phone over both transports (campaign ends when the LE side kills the
    // device under the other initiator's feet).
    let run = || {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D4))
            .initiators_per_target(2)
            .seed(0xD5EED)
            .run()
            .expect("multi-initiator campaign runs");
        let dual = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D10))
            .dual_transport()
            .seed(0xD5EED)
            .run()
            .expect("dual-transport campaign runs");
        (fingerprint(&outcome.targets), fingerprint(&dual.targets))
    };
    let first = run();
    assert_eq!(first, run(), "concurrent schedules diverged between runs");
}

#[test]
fn multi_initiator_targets_shard_deterministically() {
    let run = |threads: usize| {
        Campaign::builder()
            .targets([ProfileId::D2, ProfileId::D4].map(DeviceProfile::table5))
            .initiators_per_target(2)
            .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 1)))
            .seed(0xAB)
            .threads(threads)
            .run()
            .expect("campaign runs")
    };
    let serial = fingerprint(&run(1).targets);
    assert_eq!(serial, fingerprint(&run(2).targets));
}

#[test]
fn faulty_schedules_replay_bit_for_bit_across_executors() {
    // PR 8: determinism extends to chaos campaigns.  Same seed + same
    // FaultPlan ⇒ identical per-device reports and traces at 1/2/4
    // threads — every loss, corruption, jitter and stall decision derives
    // from the per-event seed stream, never from the worker interleaving.
    let plan = l2fuzz::FaultPlan::degraded(0.12, 0.06)
        .with_jitter(400)
        .with_stall(0.01, 5_000);
    let survey = |threads: usize| {
        let outcome = Campaign::builder()
            .targets([ProfileId::D2, ProfileId::D4, ProfileId::D9].map(DeviceProfile::table5))
            .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
            .faults(plan)
            .seed(0xFA_0175)
            .threads(threads)
            .run()
            .expect("chaos survey runs");
        fingerprint(&outcome.targets)
    };
    let serial = survey(1);
    for threads in [1, 2, 4] {
        assert_eq!(
            serial,
            survey(threads),
            "faulty schedule diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn seed_sweeps_replay_bit_for_bit_at_any_thread_count() {
    let sweep = |threads: usize| {
        let outcome = Campaign::builder()
            .targets([ProfileId::D5, ProfileId::D9].map(DeviceProfile::table5))
            .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 1)))
            .seeds(derived_seeds(0xCAFE, 4))
            .threads(threads)
            .run()
            .expect("sweep runs");
        assert_eq!(outcome.targets.len(), 8, "2 targets x 4 seeds");
        fingerprint(&outcome.targets)
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(3), "sweep diverged at 3 threads");
    assert_eq!(serial, sweep(8), "sweep diverged at 8 threads");
}
