//! Coverage-guided fuzzing end-to-end: the feedback engine must keep every
//! guarantee the dictionary engine gives — bit-for-bit replay at any
//! thread count, schedule-independent sweep artifacts — while
//! actually closing the loop: corpus retention, energy scheduling, and
//! detection of the seeded extended-profile vulnerabilities through
//! `Campaign::builder().feedback(...)`.

use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{CorpusHub, FeedbackCampaignExt, FeedbackConfig, FeedbackCorpus};
use l2fuzz::campaign::{derived_seeds, Campaign, TargetOutcome};
use l2fuzz::config::FuzzConfig;
use l2fuzz::session::L2FuzzTool;
use service::digest::{trace_digest, Fnv64};

/// Serializes every initiator of every target: reports as JSON, traces as
/// raw timestamped bytes — the full observable output of a campaign.
fn fingerprint(targets: &[TargetOutcome]) -> Vec<(Vec<String>, Vec<Vec<u8>>)> {
    targets
        .iter()
        .map(|t| {
            let reports = t.reports().map(|r| r.to_json().unwrap()).collect();
            let trace = t
                .trace
                .records()
                .iter()
                .map(|r| {
                    let mut bytes = r.timestamp_micros.to_le_bytes().to_vec();
                    bytes.extend(r.frame.to_bytes());
                    bytes
                })
                .collect();
            (reports, trace)
        })
        .collect()
}

#[test]
fn feedback_campaigns_replay_bit_for_bit_across_executors() {
    let survey = |threads: usize| {
        let outcome = Campaign::builder()
            .targets([ProfileId::D2, ProfileId::D4, ProfileId::D9].map(DeviceProfile::table5))
            .feedback(FeedbackConfig::default())
            .seed(0xFEED_5EED)
            .threads(threads)
            .run()
            .expect("feedback survey runs");
        fingerprint(&outcome.targets)
    };
    let serial = survey(1);
    for threads in [1, 2, 4] {
        assert_eq!(
            serial,
            survey(threads),
            "feedback campaign diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn feedback_detects_the_seeded_extended_vulnerabilities() {
    // The coverage-guided mode must find all three extended-profile seeds
    // end-to-end: the LE credit underflow (D9), the SPSM confusion (D10) and
    // the ERTM zero-window DoS (D11) — the last *without* explicitly turning
    // on configuration-option mutation, because feedback mode always mutates
    // options on classic links.
    for (id, vuln_id) in [
        (ProfileId::D9, "SIM-ZEPHYR-LE-CREDIT-UNDERFLOW"),
        (ProfileId::D10, "SIM-BLUEDROID-SPSM-OOB"),
        (ProfileId::D11, "SIM-BLUEZ-ERTM-ZERO-WINDOW"),
    ] {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(id))
            .feedback(FeedbackConfig::default())
            .seed(51)
            .run()
            .expect("feedback campaign runs")
            .into_single();
        assert!(
            outcome.report.vulnerable(),
            "{id}: the seeded vulnerability must be found"
        );
        assert_eq!(outcome.report.fuzzer, "L2Fuzz+feedback");
        let fired = outcome.device.lock().fired_vulnerabilities().to_vec();
        assert_eq!(fired[0].vuln.id, vuln_id, "{id}: wrong vulnerability fired");
    }
}

#[test]
fn feedback_retains_a_corpus_and_reseeds_from_it() {
    // A hardened target never crashes, so the whole budget goes into
    // exploration: the run must retain novelty, and a second campaign seeded
    // from the first's published corpus must replay deterministically.
    let hub = CorpusHub::new();
    let config = FeedbackConfig::default().with_hub(hub.clone());
    Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .feedback(config)
        .seed(0xC0FFEE)
        .run()
        .expect("campaign runs");
    let merged = hub.merged();
    assert!(
        !merged.is_empty(),
        "a full hardened-target run must retain corpus entries"
    );
    // The corpus serializes byte-identically — it is a durable artifact.
    let json = merged.to_json();
    assert_eq!(FeedbackCorpus::from_json(&json).unwrap().to_json(), json);

    let reseeded = |seed_corpus: FeedbackCorpus| {
        Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D4))
            .feedback(FeedbackConfig::default().with_seed_corpus(seed_corpus))
            .seed(0xC0FFEE + 1)
            .run()
            .expect("reseeded campaign runs")
            .into_single()
            .report
            .to_json()
            .unwrap()
    };
    assert_eq!(reseeded(merged.clone()), reseeded(merged));
}

#[test]
fn sweep_corpus_merge_is_schedule_independent() {
    // Eight seeds, pooled through the hub, at 1/2/4 worker threads: the
    // per-target outputs AND the merged corpus must be identical regardless
    // of which worker finished which unit first — publish-only sharing plus
    // the canonical seed-order fold.
    let sweep = |threads: usize| {
        let hub = CorpusHub::new();
        let outcome = Campaign::builder()
            .targets([ProfileId::D4, ProfileId::D9].map(DeviceProfile::table5))
            .feedback(FeedbackConfig::default().with_hub(hub.clone()))
            .seeds(derived_seeds(0xFEED_CAFE, 4))
            .threads(threads)
            .run()
            .expect("feedback sweep runs");
        assert_eq!(outcome.targets.len(), 8, "2 targets x 4 seeds");
        (fingerprint(&outcome.targets), hub.merged().to_json())
    };
    let (serial_targets, serial_corpus) = sweep(1);
    for threads in [2, 4] {
        let (targets, corpus) = sweep(threads);
        assert_eq!(
            serial_targets, targets,
            "sweep outputs diverged at {threads} threads"
        );
        assert_eq!(
            serial_corpus, corpus,
            "merged corpus diverged at {threads} threads"
        );
    }
}

/// Median of an even-length sample: the mean of the two middle values,
/// rounded down.
fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2
}

#[test]
fn detection_ablation_is_pinned() {
    // Packets to detection on the three seeded extended-profile targets,
    // dictionary engine vs coverage-guided feedback, over sweep seeds
    // 51..=58. The dictionary engine gets configuration-option mutation on
    // D11: without it the ERTM zero-window seed is unreachable. Every run
    // must detect, so each figure is a real time to detection, not a
    // censored spend. The eight runs' trace digests, folded in seed order,
    // pin every byte on the air, not just the counts.
    const SEEDS: [u64; 8] = [51, 52, 53, 54, 55, 56, 57, 58];
    // One engine's packets to detection per seed, their median and the
    // fold of its trace digests.
    type Pinned = ([u64; 8], u64, u64);
    // (target, dictionary, feedback).
    let expected: [(ProfileId, Pinned, Pinned); 3] = [
        (
            ProfileId::D9,
            (
                [106, 974, 136, 105, 346, 103, 104, 104],
                105,
                0xb80d_25a0_5d7e_c243,
            ),
            (
                [52, 1101, 164, 109, 515, 70, 98, 84],
                103,
                0xd040_1068_3360_7ab8,
            ),
        ),
        (
            ProfileId::D10,
            (
                [166, 269, 267, 161, 167, 160, 164, 165],
                165,
                0x6739_a520_1560_9247,
            ),
            (
                [287, 527, 557, 12, 92, 81, 61, 83],
                87,
                0xfe00_0fbc_1351_280d,
            ),
        ),
        (
            ProfileId::D11,
            (
                [469, 2146, 539, 1991, 690, 466, 619, 469],
                579,
                0xf844_1987_cd96_348a,
            ),
            (
                [96, 1853, 150, 1467, 729, 84, 763, 85],
                439,
                0xe184_9335_04cc_4a81,
            ),
        ),
    ];
    for (id, (dict_expected, dict_median, dict_fold), (fb_expected, fb_median, fb_fold)) in expected
    {
        let mut dictionary = Vec::new();
        let mut feedback = Vec::new();
        let mut dictionary_traces = Fnv64::new();
        let mut feedback_traces = Fnv64::new();
        for seed in SEEDS {
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
                .expect("dictionary campaign runs")
                .into_single();
            assert!(
                dict.report.vulnerable(),
                "{id} seed {seed}: dictionary missed"
            );
            dictionary.push(dict.report.packets_sent);
            dictionary_traces.write_u64(trace_digest(&dict.trace));

            let fb = Campaign::builder()
                .target(DeviceProfile::table5(id))
                .feedback(FeedbackConfig::default())
                .seed(seed)
                .run()
                .expect("feedback campaign runs")
                .into_single();
            assert!(fb.report.vulnerable(), "{id} seed {seed}: feedback missed");
            feedback.push(fb.report.packets_sent);
            feedback_traces.write_u64(trace_digest(&fb.trace));
        }
        assert_eq!(dictionary, dict_expected, "{id}: dictionary packets");
        assert_eq!(feedback, fb_expected, "{id}: feedback packets");
        assert_eq!(median(&dictionary), dict_median, "{id}: dictionary median");
        assert_eq!(median(&feedback), fb_median, "{id}: feedback median");
        assert_eq!(
            dictionary_traces.finish(),
            dict_fold,
            "{id}: dictionary traces"
        );
        assert_eq!(feedback_traces.finish(), fb_fold, "{id}: feedback traces");
    }
}
