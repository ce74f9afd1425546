//! Streaming replay guarantee: every artifact the fleet service persists —
//! fuzz reports, packet traces, checkpoint journals, corpus entries — must
//! survive `JsonStreamWriter` → `JsonStreamReader` → `JsonStreamWriter`
//! with **byte-identical** re-serialization, without ever building a
//! `serde_json::Value` tree.  The inputs are real campaign and sweep
//! outputs, not synthetic fixtures, so the round trip covers every field a
//! production run actually populates.

use feedback::{CorpusHub, FeedbackCampaignExt, FeedbackConfig};
use l2fuzz_repro::analysis::{Allowlist, AnalysisReport};
use l2fuzz_repro::btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz_repro::l2fuzz::campaign::Campaign;
use l2fuzz_repro::l2fuzz::report::FuzzReport;
use l2fuzz_repro::service::digest::digest_bytes;
use l2fuzz_repro::service::{
    Checkpoint, CorpusStore, ServiceReport, SweepOutcome, SweepService, SweepSpec,
};
use l2fuzz_repro::sniffer::Trace;
use serde_json::{from_str_streamed, to_string_pretty_streamed, to_string_streamed};

/// A finished sweep with at least one crash cluster, for realistic
/// checkpoint and corpus payloads; one job per shard, so a checkpointed
/// run appends three journal lines after creating the file.
fn finished_sweep(service: impl FnOnce(SweepService) -> SweepService) -> SweepOutcome {
    let spec = SweepSpec::new(
        "stream-replay",
        [ProfileId::D2, ProfileId::D4],
        SweepSpec::derived_seeds(0x5EED, 2),
    )
    .with_budget(2000)
    .with_shard_size(1);
    let outcome = service(SweepService::new(spec).workers(2))
        .run()
        .expect("sweep runs");
    assert!(outcome.is_complete(), "sweep completed");
    outcome
}

#[test]
fn fuzz_report_replays_byte_identically_through_the_reader() {
    // A vulnerable target (findings, crash dump) and a hardened one (the
    // empty findings array).
    for (profile, seed) in [(ProfileId::D2, 0xD5EED), (ProfileId::D4, 3)] {
        let report = Campaign::builder()
            .target(DeviceProfile::table5(profile))
            .seed(seed)
            .run()
            .expect("campaign runs")
            .into_single()
            .report;
        assert_eq!(report.vulnerable(), profile == ProfileId::D2);

        let compact = to_string_streamed(&report);
        let back: FuzzReport = from_str_streamed(&compact).expect("report parses");
        assert_eq!(back, report);
        assert_eq!(to_string_streamed(&back), compact);

        // Pretty output parses back to the same value and re-serializes to
        // the same pretty bytes — whitespace handling is total.
        let pretty = to_string_pretty_streamed(&report);
        let from_pretty: FuzzReport = from_str_streamed(&pretty).expect("pretty parses");
        assert_eq!(from_pretty, report);
        assert_eq!(to_string_pretty_streamed(&from_pretty), pretty);
    }
}

#[test]
fn trace_replays_byte_identically_through_the_reader() {
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(7)
        .run()
        .expect("campaign runs")
        .into_single();
    assert!(
        !outcome.trace.records().is_empty(),
        "need real traffic for a meaningful round trip"
    );

    // The empty trace exercises the lazy `[]` collapsing.
    for trace in [outcome.trace, Trace::new()] {
        let json = trace.to_json();
        let back = Trace::from_json(&json).expect("trace parses");
        assert_eq!(back, trace);
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn checkpoint_replays_byte_identically_through_the_reader() {
    let dir = std::env::temp_dir().join("l2fuzz-stream-replay");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let appended = dir.join(format!("appended-{}.jsonl", std::process::id()));
    let saved = dir.join(format!("saved-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&appended);
    let checkpoint = finished_sweep(|service| service.checkpoint(&appended)).checkpoint;
    assert!(
        !checkpoint.corpus.is_empty(),
        "the D2 jobs must have produced a crash cluster"
    );
    let journal = std::fs::read(&appended).expect("journal reads");
    assert_eq!(journal.iter().filter(|&&b| b == b'\n').count(), 5);

    // The file the service appended shard by shard is `save` of the final
    // state, byte for byte.
    checkpoint.save(&saved).expect("checkpoint saves");
    assert_eq!(std::fs::read(&saved).expect("saved journal reads"), journal);

    // And the journal folds back to that state and re-renders identically.
    let back = Checkpoint::load(&appended).expect("checkpoint parses");
    assert_eq!(back, checkpoint);
    assert_eq!(back.to_journal().into_bytes(), journal);

    std::fs::remove_file(&appended).ok();
    std::fs::remove_file(&saved).ok();
}

#[test]
fn corpus_and_report_replay_byte_identically_through_the_reader() {
    let report = finished_sweep(|service| service).report.expect("report");

    // The corpus store alone (the artifact an operator ships around).
    let corpus_json = to_string_streamed(&report.corpus);
    let corpus: CorpusStore = from_str_streamed(&corpus_json).expect("corpus parses");
    assert_eq!(corpus, report.corpus);
    assert_eq!(to_string_streamed(&corpus), corpus_json);

    // Every cluster's exemplar trace survived intact inside the store.
    for (ours, theirs) in corpus.clusters().iter().zip(report.corpus.clusters()) {
        assert_eq!(
            ours.exemplar_trace.records(),
            theirs.exemplar_trace.records()
        );
    }

    // And the full service report.
    let json = report.to_json();
    let back = ServiceReport::from_json(&json).expect("report parses");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json);
    assert_eq!(back.digest(), report.digest());
}

/// Golden byte pins: the FNV-1a digests of the exact bytes of the pretty
/// and compact service report, the checkpoint journal, one campaign's
/// trace, one feedback campaign's corpus and the analyzer's report.  They
/// are literals, not a comparison with a second writer, so they hold every
/// artifact's bytes still while the code that renders them is reworked.
#[test]
fn rendered_artifacts_match_their_golden_digests() {
    let dir = std::env::temp_dir().join("l2fuzz-stream-replay");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("golden-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let report = finished_sweep(|service| service.checkpoint(&path))
        .report
        .expect("report");
    assert!(
        !report.corpus.is_empty(),
        "the D2 jobs must have opened a crash cluster"
    );
    let journal = std::fs::read(&path).expect("journal reads");
    std::fs::remove_file(&path).ok();
    let trace = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .seed(7)
        .run()
        .expect("campaign runs")
        .into_single()
        .trace;
    let hub = CorpusHub::new();
    Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D4))
        .feedback(FeedbackConfig::default().with_hub(hub.clone()))
        .seed(0xC0FFEE)
        .run()
        .expect("feedback campaign runs");
    let corpus = hub.merged();
    assert!(!corpus.is_empty(), "a hardened-target run retains entries");
    let analysis = AnalysisReport::run(&Allowlist::default(), None);

    let pins = [
        (
            "pretty report",
            report.to_json().into_bytes(),
            0x2eab_f904_6842_4466,
        ),
        (
            "compact report",
            to_string_streamed(&report).into_bytes(),
            0x6d59_2544_daee_be28,
        ),
        ("checkpoint journal", journal, 0x9e82_db66_7318_0890),
        (
            "D4 seed 7 trace",
            trace.to_json().into_bytes(),
            0xc132_f566_c295_ca7d,
        ),
        (
            "D4 feedback corpus",
            corpus.to_json().into_bytes(),
            0x453e_a422_e5bb_b2b6,
        ),
        (
            "analysis report",
            to_string_streamed(&analysis).into_bytes(),
            0xd42d_afa9_8128_58d3,
        ),
    ];
    for (artifact, bytes, pinned) in pins {
        let digest = digest_bytes(&bytes);
        assert_eq!(digest, pinned, "{artifact} bytes moved: {digest:#018x}");
    }
}
