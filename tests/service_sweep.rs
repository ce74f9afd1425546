//! Fleet-service guarantees: a sweep killed mid-flight — between commits or
//! in the middle of appending a journal line — resumes from its checkpoint
//! to the **byte-identical** final report an uninterrupted run produces;
//! the resume is *verified* (re-running a committed shard must reproduce
//! its recorded digest, every shard line's summaries must hash to that
//! digest, and every stored exemplar trace must hash to its job's digest);
//! and same-vulnerability jobs collapse into one corpus cluster with an
//! exemplar trace.

use std::path::PathBuf;

use l2fuzz_repro::btcore::Identifier;
use l2fuzz_repro::btstack::profiles::ProfileId;
use l2fuzz_repro::l2cap::command::{Command, EchoRequest};
use l2fuzz_repro::l2cap::packet::signaling_frame;
use l2fuzz_repro::l2fuzz::{FuzzConfig, FuzzCtx, FuzzReport, Fuzzer, L2FuzzTool};
use l2fuzz_repro::service::{
    Checkpoint, JobOutcome, ResumeVerify, ServiceError, SweepService, SweepSpec,
};
use l2fuzz_repro::sniffer::TraceAnalysis;

/// A fresh scratch path under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("l2fuzz-service-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.json", std::process::id()))
}

/// The reference sweep: two vulnerable-device targets' worth of jobs in
/// five shards, budget-driven so every job burns the same packet count.
fn spec(name: &str) -> SweepSpec {
    SweepSpec::new(
        name,
        [ProfileId::D2, ProfileId::D4],
        SweepSpec::derived_seeds(0xF1EE7, 5),
    )
    .with_budget(2000)
    .with_shard_size(2)
}

#[test]
fn interrupted_sweep_resumes_to_the_byte_identical_report() {
    // The uninterrupted reference run (no checkpoint file at all).
    let reference = SweepService::new(spec("pin"))
        .workers(3)
        .run()
        .expect("reference sweep runs")
        .report
        .expect("reference sweep completes");

    // The same sweep, killed after every single shard commit: run with
    // `max_shards(1)` until done, a fresh service instance per invocation —
    // exactly what repeated crash-and-restart looks like to the checkpoint.
    let path = scratch("resume");
    let _ = std::fs::remove_file(&path);
    let mut resumed = None;
    for invocation in 0.. {
        assert!(
            invocation <= spec("pin").shard_count(),
            "sweep never finished"
        );
        let outcome = SweepService::new(spec("pin"))
            .workers(3)
            .checkpoint(&path)
            .verify(ResumeVerify::LastShard)
            .max_shards(1)
            .run()
            .expect("partial sweep runs");
        assert_eq!(outcome.resumed_from, invocation);
        if invocation > 0 {
            assert_eq!(
                outcome.verified_shards,
                vec![invocation - 1],
                "resume must re-prove the last committed shard"
            );
        }
        if let Some(report) = outcome.report {
            resumed = Some(report);
            break;
        }
        assert_eq!(outcome.committed_this_run, 1);
    }
    let resumed = resumed.expect("sweep completed");

    // The acceptance pin: byte-identical report JSON, equal digests.
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.digest(), reference.digest());

    std::fs::remove_file(&path).ok();
}

#[test]
fn full_verification_accepts_a_clean_checkpoint_and_spec_mismatch_is_rejected() {
    let path = scratch("verify");
    let _ = std::fs::remove_file(&path);

    // Commit three shards, stop.
    SweepService::new(spec("verify"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(3)
        .run()
        .expect("partial sweep runs");

    // Resuming under `All` re-runs all three committed shards and accepts.
    let outcome = SweepService::new(spec("verify"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect("verified resume runs");
    assert_eq!(outcome.resumed_from, 3);
    assert_eq!(outcome.verified_shards, vec![0, 1, 2]);
    assert!(outcome.is_complete());

    // A different sweep definition must refuse the checkpoint outright.
    let err = SweepService::new(spec("verify").with_budget(999))
        .checkpoint(&path)
        .run()
        .expect_err("mismatched spec must be rejected");
    assert!(
        matches!(err, ServiceError::SpecMismatch { .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn tampered_checkpoint_fails_resume_verification() {
    let path = scratch("tamper");
    let _ = std::fs::remove_file(&path);

    SweepService::new(spec("tamper"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(2)
        .run()
        .expect("partial sweep runs");

    // Corrupt the last committed shard's pinned digests (keeping the JSON
    // well-formed): the resume must notice the re-run diverges.  Job 2
    // joined job 0's cluster, so no exemplar is involved, and the rewrite
    // touches only the journal's last line.
    let journal = std::fs::read_to_string(&path).expect("journal reads");
    let mut checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    let last = checkpoint.shards.last_mut().expect("two shards committed");
    assert_eq!(last.jobs[0].index, 2);
    last.jobs[0].trace_digest ^= 1;
    last.digest = l2fuzz_repro::service::ShardRecord::digest_jobs(&last.jobs);
    checkpoint.save(&path).expect("tampered checkpoint saves");
    let tampered = std::fs::read_to_string(&path).expect("journal reads");
    let (kept, _) = journal.trim_end().rsplit_once('\n').expect("three lines");
    assert!(tampered.starts_with(&format!("{kept}\n")) && tampered != journal);

    let err = SweepService::new(spec("tamper"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect_err("tampered checkpoint must fail verification");
    assert!(
        matches!(err, ServiceError::VerifyFailed { shard: 1, .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_summary_edited_under_its_committed_digest_is_caught_on_load() {
    let path = scratch("edited");
    let _ = std::fs::remove_file(&path);
    SweepService::new(spec("edited"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(3)
        .run()
        .expect("partial sweep runs");

    // Edit one report digest in the middle shard's line, keeping the JSON
    // well-formed and the shard's recorded digest as committed.  Without
    // the fold's own check, `All` would re-run the shard, match that
    // untouched digest and carry the edited summary into the report.
    let journal = std::fs::read_to_string(&path).expect("journal reads");
    let mut lines: Vec<String> = journal.split_inclusive('\n').map(str::to_owned).collect();
    let key = "\"report_digest\":";
    let at = lines[2].find(key).expect("shard 1 has jobs") + key.len();
    let end = at + lines[2][at..].find(',').expect("more fields follow");
    let edited: u64 = lines[2][at..end].parse::<u64>().expect("digest") ^ 1;
    lines[2].replace_range(at..end, &edited.to_string());
    std::fs::write(&path, lines.concat()).expect("journal writes");

    let err = Checkpoint::load(&path).expect_err("edited summary must not load");
    assert!(
        matches!(err, ServiceError::Json { .. }) && err.to_string().contains("line 3"),
        "got {err}"
    );
    let err = SweepService::new(spec("edited"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::All)
        .run()
        .expect_err("edited summary must stop the resume");
    assert!(matches!(err, ServiceError::Json { .. }), "got {err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_torn_append_is_dropped_and_the_resume_ends_byte_identical() {
    let reference = SweepService::new(spec("torn"))
        .workers(2)
        .run()
        .expect("reference sweep runs")
        .report
        .expect("reference sweep completes");
    let one_shard = SweepService::new(spec("torn"))
        .max_shards(1)
        .run()
        .expect("one shard runs")
        .checkpoint;

    let path = scratch("torn");
    let _ = std::fs::remove_file(&path);
    SweepService::new(spec("torn"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(2)
        .run()
        .expect("partial sweep runs");
    let journal = std::fs::read(&path).expect("journal reads");
    let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(lines.len(), 3, "header plus one line per committed shard");
    let (header, first, second) = (lines[0].len(), lines[1].len(), lines[2].len());

    // Cut the journal anywhere: loading never panics, an unterminated last
    // line is dropped, and a file without a complete header is malformed.
    let step = journal.len() / 97 + 1;
    let cuts = (0..journal.len()).step_by(step).chain([
        header - 1,
        header,
        header + first - 1,
        header + first,
        journal.len() - 1,
    ]);
    for cut in cuts {
        std::fs::write(&path, &journal[..cut]).expect("cut journal writes");
        match Checkpoint::load(&path) {
            Ok(loaded) => {
                let complete = if cut < header + first { 0 } else { 1 };
                assert!(cut >= header, "cut {cut} inside the header loaded");
                assert_eq!(loaded.completed_shards(), complete, "cut {cut}");
            }
            Err(err) => {
                assert!(cut < header, "cut {cut}: {err}");
                assert!(matches!(err, ServiceError::Json { .. }), "cut {cut}: {err}");
            }
        }
    }

    // A kill in the middle of appending shard 1: `load` returns the 1-shard
    // prefix, exactly the state an uninterrupted run held after shard 0.
    let torn = &journal[..header + first + second / 2];
    std::fs::write(&path, torn).expect("torn journal writes");
    assert_eq!(
        Checkpoint::load(&path).expect("torn journal loads"),
        one_shard
    );

    // The resume truncates the fragment, re-commits shard 1 and finishes
    // to the byte-identical report.
    let outcome = SweepService::new(spec("torn"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect("resume runs");
    assert_eq!(outcome.resumed_from, 1);
    assert_eq!(outcome.verified_shards, vec![0]);
    let resumed = outcome.report.expect("resume completes");
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.digest(), reference.digest());
    let healed = std::fs::read(&path).expect("journal reads");
    assert!(
        healed.starts_with(&journal),
        "shard 1 re-committed identically"
    );
    assert_eq!(healed, outcome.checkpoint.to_journal().into_bytes());

    // A complete line that does not parse is a typed error for `load` and
    // for a resume alike, never a panic or a silent drop.
    let mut malformed = journal[..header + first].to_vec();
    malformed.extend_from_slice(b"{\"shard\":1,\"digest\":}\n");
    std::fs::write(&path, &malformed).expect("malformed journal writes");
    let err = Checkpoint::load(&path).expect_err("malformed line must not load");
    assert!(matches!(err, ServiceError::Json { .. }), "got {err}");
    let err = SweepService::new(spec("torn"))
        .checkpoint(&path)
        .run()
        .expect_err("malformed line must stop the resume");
    assert!(matches!(err, ServiceError::Json { .. }), "got {err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn a_corrupt_exemplar_from_an_earlier_shard_is_caught_on_load() {
    let path = scratch("exemplar");
    let _ = std::fs::remove_file(&path);
    SweepService::new(spec("exemplar"))
        .workers(2)
        .checkpoint(&path)
        .max_shards(2)
        .run()
        .expect("partial sweep runs");

    // Shard 0's line opened the D2 cluster with job 0's trace.  Flip the
    // low bit of a payload byte in that trace by rewriting the byte's
    // second hex digit, keeping the JSON well-formed.
    let journal = std::fs::read_to_string(&path).expect("journal reads");
    let lines: Vec<&str> = journal.split_inclusive('\n').collect();
    let trace_at = lines[1]
        .find("\"exemplar_trace\"")
        .expect("shard 0 opened a cluster");
    let key = "\"payload\":\"";
    let at = lines[1][trace_at..]
        .match_indices(key)
        .map(|(i, _)| trace_at + i + key.len() + 1)
        .find(|&i| lines[1].as_bytes()[i] != b'"')
        .expect("the exemplar carries payload bytes");
    let digit = char::from(lines[1].as_bytes()[at]);
    let nibble = digit.to_digit(16).expect("a hex digit") ^ 1;
    let flipped_digit = char::from_digit(nibble, 16).expect("a nibble");
    let flipped = format!("{}{flipped_digit}{}", &lines[1][..at], &lines[1][at + 1..]);
    std::fs::write(&path, [lines[0], &flipped, lines[2]].concat()).expect("journal writes");

    let err = Checkpoint::load(&path).expect_err("corrupt exemplar must not load");
    assert!(
        matches!(err, ServiceError::ExemplarMismatch { job: 0, .. }),
        "got {err}"
    );
    // `LastShard` re-proves only shard 1; the fold still refuses the trace.
    let err = SweepService::new(spec("exemplar"))
        .workers(2)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect_err("corrupt exemplar must stop the resume");
    assert!(
        matches!(err, ServiceError::ExemplarMismatch { job: 0, .. }),
        "got {err}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn same_vulnerability_jobs_collapse_into_one_cluster() {
    // Five D2 seeds big enough to crash every job, plus hardened D4 jobs
    // that must stay clusterless.
    let report = SweepService::new(spec("dedup"))
        .workers(4)
        .run()
        .expect("sweep runs")
        .report
        .expect("sweep completes");

    let d2: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.target == ProfileId::D2)
        .collect();
    let d4: Vec<_> = report
        .jobs
        .iter()
        .filter(|j| j.target == ProfileId::D4)
        .collect();
    assert!(d2.iter().all(|j| j.vulnerable && j.cluster.is_some()));
    assert!(d4.iter().all(|j| !j.vulnerable && j.cluster.is_none()));

    // The acceptance criterion: N same-vuln jobs, ONE cluster.
    assert_eq!(report.corpus.len(), 1, "{:#?}", report.corpus.clusters());
    let cluster = &report.corpus.clusters()[0];
    assert_eq!(cluster.count(), d2.len());
    assert_eq!(
        cluster.members,
        d2.iter().map(|j| j.index).collect::<Vec<_>>(),
        "members are committed in job order"
    );
    assert_eq!(cluster.vuln_ids, vec!["SIM-BLUEDROID-L2C-NULLPTR"]);
    assert_eq!(cluster.exemplar_job, d2[0].index);

    // The exemplar trace is a real, replayable artifact: its state coverage
    // reproduces the signature the cluster is keyed on.
    let analysis = TraceAnalysis::from_trace(&cluster.exemplar_trace);
    assert_eq!(
        analysis.coverage.signature(),
        cluster.key.coverage_signature
    );
}

// ---------------------------------------------------------------------------
// PR 8 resilience: panicking and hung jobs are quarantined into the
// checkpoint, the `max_job_failures` threshold stops a degenerating sweep
// durably, and a quarantined sweep still resumes byte-identically.

/// A deterministically misbehaving worker: depending on the job's derived
/// seed it panics outright, hangs in an infinite send loop (so only the
/// per-job watchdog ends it), or behaves like the real budget-driven tool.
struct ChaosFuzzer {
    inner: L2FuzzTool,
}

impl Fuzzer for ChaosFuzzer {
    fn name(&self) -> &'static str {
        "chaos"
    }
    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        match ctx.seed % 4 {
            0 => panic!("injected worker fault"),
            1 => {
                // Hang: keep the link busy forever.  Virtual time advances
                // with every frame, so the spec's watchdog — not wall-clock
                // luck — is what terminates this job.
                let probe = Command::EchoRequest(EchoRequest {
                    data: vec![0x4C, 0x32],
                });
                loop {
                    let frame = signaling_frame(Identifier(0x42), &probe);
                    ctx.link.send_frame(&frame);
                }
            }
            _ => self.inner.fuzz(ctx),
        }
    }
}

/// The reference sweep under a chaos fuzzer: healthy jobs finish in ~3
/// virtual seconds, so an 8-second watchdog only ever fires on the hung
/// ones.
fn chaos_service(name: &str) -> SweepService {
    SweepService::new(spec(name).with_watchdog_secs(8)).customize(|builder| {
        builder.fuzzer(|| {
            Box::new(ChaosFuzzer {
                inner: L2FuzzTool::new(FuzzConfig::budget_driven()),
            })
        })
    })
}

#[test]
fn panicking_and_hung_jobs_are_quarantined_not_fatal() {
    let path = scratch("quarantine");
    let _ = std::fs::remove_file(&path);

    let report = chaos_service("quarantine")
        .workers(3)
        .checkpoint(&path)
        .run()
        .expect("chaos sweep still completes")
        .report
        .expect("sweep completes");

    // All three outcomes occur, and every job is accounted for.
    assert_eq!(report.jobs.len(), 10);
    let count = |outcome: JobOutcome| report.jobs.iter().filter(|j| j.outcome == outcome).count();
    assert!(count(JobOutcome::Completed) > 0, "no job survived chaos");
    assert!(count(JobOutcome::Failed) > 0, "no injected panic landed");
    assert!(count(JobOutcome::TimedOut) > 0, "no watchdog fired");

    // Quarantined jobs carry their reason and zeroed stats; completed jobs
    // are untouched by their neighbours' failures.
    for job in &report.jobs {
        if job.outcome == JobOutcome::Completed {
            assert!(job.failure.is_none());
            assert!(job.packets_sent > 0);
        } else {
            assert!(job.failure.is_some(), "quarantine without a reason");
            assert_eq!(job.packets_sent, 0);
            assert!(!job.vulnerable);
            assert!(job.cluster.is_none());
        }
    }
    for job in report
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::TimedOut)
    {
        assert!(
            job.failure.as_deref().unwrap().contains("watchdog expired"),
            "timeout must name the watchdog"
        );
    }

    // The quarantine is durable (checkpointed) and surfaced in the summary.
    let quarantined = report.failed_jobs();
    let checkpoint = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(checkpoint.failed_jobs(), quarantined);
    assert!(report
        .summary_line()
        .contains(&format!("({quarantined} quarantined)")));

    std::fs::remove_file(&path).ok();
}

#[test]
fn the_failure_threshold_stops_the_sweep_durably_and_resume_finishes_it() {
    // The uninterrupted chaos reference (no checkpoint, no threshold).
    let reference = chaos_service("threshold-ref")
        .workers(3)
        .run()
        .expect("reference chaos sweep runs")
        .report
        .expect("reference completes");
    let quarantined = reference.failed_jobs();
    assert!(quarantined >= 4, "need enough chaos to cross the threshold");

    // With `max_job_failures(3)` the sweep must stop once a committed shard
    // pushes the cumulative quarantine count past three — after durably
    // committing that shard.
    let path = scratch("threshold");
    let _ = std::fs::remove_file(&path);
    let err = chaos_service("threshold-ref")
        .workers(3)
        .checkpoint(&path)
        .max_job_failures(3)
        .run()
        .expect_err("threshold must stop the sweep");
    let crossed = match err {
        ServiceError::TooManyFailures { limit, failed } => {
            assert_eq!(limit, 3);
            assert!(failed > limit);
            failed
        }
        other => panic!("expected TooManyFailures, got {other}"),
    };
    let checkpoint = Checkpoint::load(&path).expect("crossing shard was committed");
    assert_eq!(checkpoint.failed_jobs(), crossed);
    assert!(!checkpoint.shards.is_empty());
    assert!(checkpoint.shards.len() < spec("threshold-ref").shard_count());

    // Lifting the threshold resumes the quarantined sweep — with the last
    // committed shard (which contains quarantined jobs) re-proven against
    // its digest — to the byte-identical final report.
    let outcome = chaos_service("threshold-ref")
        .workers(3)
        .checkpoint(&path)
        .verify(ResumeVerify::LastShard)
        .run()
        .expect("resume without a threshold completes");
    assert_eq!(outcome.resumed_from, checkpoint.shards.len());
    assert_eq!(outcome.verified_shards, vec![checkpoint.shards.len() - 1]);
    let resumed = outcome.report.expect("resume completes");
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.digest(), reference.digest());

    std::fs::remove_file(&path).ok();
}

#[test]
fn detection_mode_surfaces_findings_without_a_budget() {
    // No budget: the campaign default (detection fuzzer + out-of-band
    // oracle) stops at the first vulnerability and reports a finding.
    let report = SweepService::new(
        SweepSpec::new("detect", [ProfileId::D2], SweepSpec::derived_seeds(3, 2))
            .with_shard_size(1),
    )
    .run()
    .expect("sweep runs")
    .report
    .expect("sweep completes");

    assert!(report.jobs.iter().all(|j| j.vulnerable && j.findings > 0));
    assert_eq!(report.vulnerable_jobs(), 2);
    assert!(!report.corpus.is_empty());
}
