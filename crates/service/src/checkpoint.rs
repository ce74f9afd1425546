//! Checkpoints: the sweep's durable state, kept as an append-only journal.
//!
//! The checkpoint file holds one compact JSON object per line.  The first
//! line names the sweep (`{"spec":…,"spec_digest":…}`).  Every later line
//! is one committed shard: its [`ShardRecord`] plus the crash clusters it
//! opened, each with its exemplar trace.  A shard's joins to existing
//! clusters are not written again; they replay from the job summaries'
//! `cluster` keys and trace digests.  The first commit creates the file
//! atomically (write a sibling temp file, then rename); every later commit
//! appends its shard's line, so a commit costs what the shard added, not
//! the whole corpus.
//!
//! [`Checkpoint::load`] folds the lines back into the in-memory
//! [`Checkpoint`] the service held.  A kill mid-append leaves an
//! unterminated last line: `load` drops it as torn, and a resumed sweep
//! truncates it before appending again.  A complete line that does not
//! parse, that does not hold the spec's jobs for its shard, or whose jobs
//! do not hash to its recorded digest is a [`ServiceError::Json`], and an
//! exemplar trace that no longer hashes to its job's recorded digest is a
//! [`ServiceError::ExemplarMismatch`].  A resumed sweep continues from the
//! first uncommitted shard; because campaigns are deterministic, re-running
//! any committed shard must reproduce its recorded digest, which is how a
//! resume is *verified* rather than trusted.

use std::fmt::Display;
use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::{JsonStreamWriter, StreamDeserialize};
use sniffer::Trace;

use crate::corpus::{ClusterKey, CorpusStore, Exemplar};
use crate::digest::{trace_digest, Fnv64};
use crate::spec::SweepSpec;
use crate::ServiceError;
use btstack::ProfileId;

/// How one job ended.
///
/// A failed or timed-out job is *quarantined*, not fatal: its summary (with
/// the failure reason) lands in the checkpoint like any other job's, the
/// shard commits, and the sweep moves on.  Because panics and watchdog
/// expiries derive from the virtual clock and the seeded streams, a
/// quarantined job reproduces its outcome on re-run — which is what keeps
/// resume verification meaningful for shards containing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The campaign ran to its normal end (vulnerable or not).
    Completed,
    /// The job's worker panicked or its campaign failed; see
    /// [`JobSummary::failure`].
    Failed,
    /// The job's per-link virtual-time watchdog expired.
    TimedOut,
}

impl JobOutcome {
    /// Stable tag for digesting (the enum's wire identity).
    fn digest_tag(self) -> u64 {
        match self {
            JobOutcome::Completed => 0,
            JobOutcome::Failed => 1,
            JobOutcome::TimedOut => 2,
        }
    }
}

/// What one finished job boiled down to.  Everything here derives from the
/// virtual clock and the seeded RNG streams — no wall-clock anywhere — so
/// two runs of the same job produce identical summaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Sweep-wide job index (target-major).
    pub index: usize,
    /// The target profile.
    pub target: ProfileId,
    /// The campaign seed the job ran under.
    pub seed: u64,
    /// Whether the job surfaced a vulnerability — a detection finding in
    /// some initiator's report, or a crash dump on the target.
    pub vulnerable: bool,
    /// Number of findings in the job's report.
    pub findings: usize,
    /// Packets the job transmitted.
    pub packets_sent: u64,
    /// Virtual elapsed seconds.
    pub elapsed_secs: u64,
    /// FNV-1a digest of the job's compact streamed report.
    pub report_digest: u64,
    /// FNV-1a digest of the job's merged trace.
    pub trace_digest: u64,
    /// State-coverage bitmask of the job's merged trace
    /// ([`sniffer::StateCoverage::signature`]); zero for quarantined jobs.
    /// Feeds the corpus store's novelty ranking, and deliberately stays out
    /// of the shard digest so pre-existing checkpoints keep verifying.
    pub coverage_signature: u32,
    /// The corpus cluster this job joined, when it crashed the target.
    pub cluster: Option<ClusterKey>,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Why the job failed or timed out (`None` for completed jobs).
    pub failure: Option<String>,
}

/// One committed shard: its jobs plus the digest that pins them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard index (commits are contiguous from zero).
    pub shard: usize,
    /// Digest over the member jobs' report and trace digests, in job order.
    pub digest: u64,
    /// The member job summaries, ascending by index.
    pub jobs: Vec<JobSummary>,
}

impl ShardRecord {
    /// Computes the shard digest for a job list.  Quarantined jobs pin
    /// their outcome and failure reason instead of report/trace content, so
    /// a resume re-running the shard must reproduce the same failure.
    pub fn digest_jobs(jobs: &[JobSummary]) -> u64 {
        let mut h = Fnv64::new();
        for job in jobs {
            h.write_u64(job.report_digest);
            h.write_u64(job.trace_digest);
            h.write_u64(job.outcome.digest_tag());
            if let Some(failure) = &job.failure {
                h.write_str(failure);
            }
        }
        h.finish()
    }
}

/// The sweep's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The sweep definition this checkpoint belongs to.
    pub spec: SweepSpec,
    /// [`SweepSpec::digest`] at creation — resume validates it.
    pub spec_digest: u64,
    /// Committed shards, contiguous from zero.
    pub shards: Vec<ShardRecord>,
    /// The corpus accumulated over the committed shards.
    pub corpus: CorpusStore,
}

impl Checkpoint {
    /// A fresh checkpoint with nothing committed.
    pub fn new(spec: SweepSpec) -> Self {
        let spec_digest = spec.digest();
        Checkpoint {
            spec,
            spec_digest,
            shards: Vec::new(),
            corpus: CorpusStore::new(),
        }
    }

    /// Number of committed shards (commits are contiguous, so this is also
    /// the first shard a resume runs).
    pub fn completed_shards(&self) -> usize {
        self.shards.len()
    }

    /// All committed job summaries, in job order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSummary> {
        self.shards.iter().flat_map(|s| s.jobs.iter())
    }

    /// Number of committed jobs that did not complete (quarantined panics
    /// and watchdog timeouts) — what `--max-job-failures` meters.
    pub fn failed_jobs(&self) -> usize {
        self.jobs()
            .filter(|j| j.outcome != JobOutcome::Completed)
            .count()
    }

    /// Renders the whole journal: the header line, then one line per
    /// committed shard.  A service that appended shard by shard has written
    /// exactly these bytes.
    pub fn to_journal(&self) -> String {
        let mut journal = self.header_line();
        for record in &self.shards {
            journal.push_str(&self.shard_line(record));
        }
        journal
    }

    /// The journal's first line: the sweep the file belongs to.
    fn header_line(&self) -> String {
        let mut w = JsonStreamWriter::compact();
        w.begin_object()
            .field("spec", &self.spec)
            .field("spec_digest", &self.spec_digest)
            .end_object();
        w.finish() + "\n"
    }

    /// The journal line of `record`: the record plus the clusters whose
    /// exemplar is one of its jobs, i.e. the clusters the shard opened.
    fn shard_line(&self, record: &ShardRecord) -> String {
        let mut w = JsonStreamWriter::compact();
        w.begin_object()
            .field("shard", &record.shard)
            .field("digest", &record.digest)
            .field("jobs", &record.jobs)
            .key("clusters")
            .begin_array();
        let opened = self.corpus.clusters().iter().filter(|cluster| {
            record
                .jobs
                .iter()
                .any(|job| job.index == cluster.exemplar_job)
        });
        for cluster in opened {
            w.begin_object()
                .field("exemplar_job", &cluster.exemplar_job)
                .field("vuln_ids", &cluster.vuln_ids)
                .field("description", &cluster.description)
                .field("exemplar_trace", &cluster.exemplar_trace)
                .end_object();
        }
        w.end_array().end_object();
        w.finish() + "\n"
    }

    /// Atomically writes the whole journal to `path`: it lands in a sibling
    /// `*.tmp` file first and is renamed into place, so a kill mid-write
    /// leaves the previous file intact.
    ///
    /// # Errors
    /// Returns [`ServiceError::Io`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), ServiceError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_journal()).map_err(|e| io_error(path, e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_error(path, e))
    }

    /// Makes the last committed shard durable at `path`.  The first commit
    /// [`save`](Checkpoint::save)s the journal (header plus shard 0's
    /// line); every later one appends its shard's line.
    pub(crate) fn persist_last_shard(&self, path: &Path) -> Result<(), ServiceError> {
        match self.shards.as_slice() {
            [] => Ok(()),
            [_] => self.save(path),
            [.., last] => std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .and_then(|mut file| file.write_all(self.shard_line(last).as_bytes()))
                .map_err(|e| io_error(path, e)),
        }
    }

    /// Loads the checkpoint journal at `path`, dropping an unterminated
    /// last line as a torn append.
    ///
    /// # Errors
    /// Returns [`ServiceError::Io`] on filesystem failures,
    /// [`ServiceError::Json`] when a complete line is malformed or
    /// inconsistent with the spec or its own digest, and
    /// [`ServiceError::ExemplarMismatch`] when a stored exemplar trace does
    /// not hash to its job's recorded trace digest.
    pub fn load(path: &Path) -> Result<Checkpoint, ServiceError> {
        Checkpoint::fold(path).map(|(checkpoint, _)| checkpoint)
    }

    /// Loads the journal a sweep over `spec` resumes from.  The journal must
    /// belong to `spec`, and a torn last line is truncated so the next
    /// append starts on a fresh line.
    pub(crate) fn resume(path: &Path, spec: &SweepSpec) -> Result<Checkpoint, ServiceError> {
        let (checkpoint, torn_at) = Checkpoint::fold(path)?;
        let expected = spec.digest();
        if checkpoint.spec_digest != expected || checkpoint.spec != *spec {
            return Err(ServiceError::SpecMismatch {
                expected,
                found: checkpoint.spec_digest,
            });
        }
        if let Some(len) = torn_at {
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|file| file.set_len(len))
                .map_err(|e| io_error(path, e))?;
        }
        Ok(checkpoint)
    }

    /// Folds the journal at `path` line by line.  Also returns the length
    /// of the complete lines when a torn append follows them.
    fn fold(path: &Path) -> Result<(Checkpoint, Option<u64>), ServiceError> {
        let bytes = std::fs::read(path).map_err(|e| io_error(path, e))?;
        // A line is committed once its newline lands; whatever follows the
        // last newline is an append a kill cut short.
        let committed = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |end| end + 1);
        let mut lines = bytes[..committed].split_inclusive(|&b| b == b'\n').zip(1..);
        let Some((header, n)) = lines.next() else {
            return Err(malformed(path, 1, "the header line is missing"));
        };
        let Header { spec, spec_digest } = parse_line(path, n, header)?;
        // What `SweepSpec::new` and `with_shard_size` assert; the folds below
        // divide by the shard size.
        if spec.targets.is_empty() || spec.seeds.is_empty() || spec.shard_size == 0 {
            let msg = "the spec needs a target, a seed and a shard size of at least one";
            return Err(malformed(path, n, msg));
        }
        let mut checkpoint = Checkpoint {
            spec,
            spec_digest,
            shards: Vec::new(),
            corpus: CorpusStore::new(),
        };
        for (line, n) in lines {
            checkpoint.fold_shard(parse_line(path, n, line)?, path, n)?;
        }
        let torn_at = (committed < bytes.len()).then_some(committed as u64);
        Ok((checkpoint, torn_at))
    }

    /// Replays shard line `n` in job order: a crashing job joins its
    /// cluster, or opens one from the line's next stored cluster, whose
    /// exemplar trace must hash to the trace digest the job recorded.  The
    /// line must hold exactly the spec's jobs for its shard, and its digest
    /// must be the digest of those jobs, so an edited summary cannot ride
    /// on the digest it was committed under.
    fn fold_shard(&mut self, line: ShardLine, path: &Path, n: usize) -> Result<(), ServiceError> {
        let ShardLine {
            shard,
            digest,
            jobs,
            clusters,
        } = line;
        let record = ShardRecord {
            shard,
            digest,
            jobs,
        };
        let committed = self.shards.len();
        if record.shard != committed {
            let msg = format!("shard {} follows {committed} shard(s)", record.shard);
            return Err(malformed(path, n, msg));
        }
        let indices = record.jobs.iter().map(|job| job.index);
        let holds_its_jobs =
            committed < self.spec.shard_count() && indices.eq(self.spec.shard_jobs(committed));
        if !holds_its_jobs {
            let msg = format!("shard {committed} does not hold the sweep's jobs for it");
            return Err(malformed(path, n, msg));
        }
        let digest = ShardRecord::digest_jobs(&record.jobs);
        if record.digest != digest {
            let msg = format!(
                "shard {committed} records digest {:016x}, but its jobs hash to {digest:016x}",
                record.digest
            );
            return Err(malformed(path, n, msg));
        }
        let mut clusters = clusters.into_iter().peekable();
        for job in &record.jobs {
            let Some(key) = job.cluster else { continue };
            if self.corpus.join(key, job.index, job.trace_digest) {
                continue;
            }
            let Some(opened) = clusters.next_if(|c| c.exemplar_job == job.index) else {
                let msg = format!("job {} opens a cluster the line does not store", job.index);
                return Err(malformed(path, n, msg));
            };
            let (expected, found) = (job.trace_digest, trace_digest(&opened.exemplar_trace));
            if found != expected {
                return Err(ServiceError::ExemplarMismatch {
                    job: job.index,
                    expected,
                    found,
                });
            }
            let exemplar = Exemplar {
                vuln_ids: opened.vuln_ids,
                description: opened.description,
                trace: opened.exemplar_trace,
            };
            self.corpus.open(key, job.index, expected, exemplar);
        }
        if let Some(stray) = clusters.next() {
            let msg = format!(
                "job {} stores a cluster it does not open",
                stray.exemplar_job
            );
            return Err(malformed(path, n, msg));
        }
        self.shards.push(record);
        Ok(())
    }
}

/// The journal's first line, as read back.
#[derive(Deserialize)]
struct Header {
    spec: SweepSpec,
    spec_digest: u64,
}

/// A shard line of the journal, as read back: the [`ShardRecord`] fields,
/// then the clusters the shard opened, in opening order.
#[derive(Deserialize)]
struct ShardLine {
    shard: usize,
    digest: u64,
    jobs: Vec<JobSummary>,
    clusters: Vec<StoredCluster>,
}

/// A cluster as stored on the line of the shard that opened it: the
/// exemplar job and what it donated ([`Exemplar`]).  The members replay
/// from the job summaries.
#[derive(Deserialize)]
struct StoredCluster {
    exemplar_job: usize,
    vuln_ids: Vec<String>,
    description: String,
    exemplar_trace: Trace,
}

/// Parses line `n` of the journal at `path`.
fn parse_line<T: StreamDeserialize>(path: &Path, n: usize, line: &[u8]) -> Result<T, ServiceError> {
    let text = std::str::from_utf8(line).map_err(|e| malformed(path, n, e))?;
    serde_json::from_str_streamed(text).map_err(|e| malformed(path, n, e))
}

/// A [`ServiceError::Json`] for line `n` of the journal at `path`.
fn malformed(path: &Path, n: usize, msg: impl Display) -> ServiceError {
    ServiceError::Json {
        path: path.display().to_string(),
        source: serde_json::Error::new(format!("line {n}: {msg}")),
    }
}

fn io_error(path: &Path, source: std::io::Error) -> ServiceError {
    ServiceError::Io {
        path: path.display().to_string(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: ClusterKey = ClusterKey {
        crash_digest: 9,
        coverage_signature: 3,
    };

    fn summary(index: usize, cluster: Option<ClusterKey>) -> JobSummary {
        JobSummary {
            index,
            target: ProfileId::D2,
            seed: index as u64 + 1,
            vulnerable: cluster.is_some(),
            findings: usize::from(cluster.is_some()),
            packets_sent: 42,
            elapsed_secs: 7,
            report_digest: 0xDEAD + index as u64,
            trace_digest: trace_digest(&Trace::new()),
            coverage_signature: 3,
            cluster,
            outcome: JobOutcome::Completed,
            failure: None,
        }
    }

    /// Commits `jobs` as the next shard, opening clusters the way the
    /// service does.
    fn commit(cp: &mut Checkpoint, jobs: Vec<JobSummary>) {
        for job in &jobs {
            if let Some(key) = job.cluster {
                if !cp.corpus.join(key, job.index, job.trace_digest) {
                    let exemplar = Exemplar {
                        vuln_ids: vec!["V1".to_owned()],
                        description: "DoS".to_owned(),
                        trace: Trace::new(),
                    };
                    cp.corpus.open(key, job.index, job.trace_digest, exemplar);
                }
            }
        }
        cp.shards.push(ShardRecord {
            shard: cp.shards.len(),
            digest: ShardRecord::digest_jobs(&jobs),
            jobs,
        });
    }

    /// Two shards: a crash that opens a cluster beside a quarantined job,
    /// then a crash that joins it beside a clean job.
    fn sample() -> Checkpoint {
        let spec = SweepSpec::new("unit", [ProfileId::D2], [1, 2, 3, 4]).with_shard_size(2);
        let mut cp = Checkpoint::new(spec);
        let quarantined = JobSummary {
            vulnerable: false,
            findings: 0,
            packets_sent: 0,
            elapsed_secs: 0,
            report_digest: 0,
            trace_digest: 0,
            coverage_signature: 0,
            outcome: JobOutcome::TimedOut,
            failure: Some("watchdog expired".to_owned()),
            ..summary(1, None)
        };
        commit(&mut cp, vec![summary(0, Some(KEY)), quarantined]);
        commit(&mut cp, vec![summary(2, Some(KEY)), summary(3, None)]);
        cp
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("l2fuzz-service-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let cp = sample();
        let path = scratch("round-trip");
        cp.save(&path).unwrap();
        let journal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(journal.lines().count(), 3, "header plus one line per shard");
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.corpus.clusters()[0].members, vec![0, 2]);
        assert_eq!(back.to_journal(), journal);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn job_outcomes_stream_like_their_derived_encodings() {
        for outcome in [
            JobOutcome::Completed,
            JobOutcome::Failed,
            JobOutcome::TimedOut,
        ] {
            let json = serde_json::to_string_streamed(&outcome);
            assert_eq!(json, format!("\"{outcome:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<JobOutcome>(&json).unwrap(),
                outcome
            );
        }
    }

    #[test]
    fn quarantined_jobs_pin_their_outcome_in_the_shard_digest() {
        let cp = sample();
        assert_eq!(cp.failed_jobs(), 1);
        let mut jobs = cp.shards[0].jobs.clone();
        let recorded = ShardRecord::digest_jobs(&jobs);
        jobs[1].outcome = JobOutcome::Failed;
        assert_ne!(recorded, ShardRecord::digest_jobs(&jobs));
        jobs[1].outcome = JobOutcome::TimedOut;
        jobs[1].failure = Some("different reason".to_owned());
        assert_ne!(recorded, ShardRecord::digest_jobs(&jobs));
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let path = scratch("atomic");
        let cp = sample();
        cp.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_and_inconsistent_lines_are_typed_errors() {
        let journal = sample().to_journal();
        let lines: Vec<&str> = journal.split_inclusive('\n').collect();
        let stored = r#"[{"exemplar_job":0,"vuln_ids":["V1"],"description":"DoS","exemplar_trace":{"records":[]}}]"#;
        assert!(lines[1].contains(stored));
        let path = scratch("malformed");
        let cases = [
            // No header line.
            String::new(),
            // A complete line that does not parse.
            format!("{}{{\"shard\":1,oops}}\n", lines[..2].concat()),
            // Shard 1 without shard 0.
            format!("{}{}", lines[0], lines[2]),
            // Job 0 crashes into a new cluster the line does not store.
            journal.replace(stored, "[]"),
            // A stored cluster whose exemplar job opens nothing.
            journal.replace(
                r#""clusters":[]"#,
                &format!(r#""clusters":{}"#, stored.replace(":0,", ":3,")),
            ),
            // A summary edited under the digest it was committed with.
            journal.replace(r#""report_digest":57005,"#, r#""report_digest":57004,"#),
            // Shard 1 holding a job of another shard.
            journal.replace(r#"{"index":3,"#, r#"{"index":1,"#),
            // A shard beyond the spec's last.
            format!(
                "{journal}{}",
                lines[2].replace(r#""shard":1,"#, r#""shard":2,"#)
            ),
            // Header specs `SweepSpec` cannot build: shard size zero (with
            // shard lines to fold), no targets, no seeds.
            journal.replace(r#""shard_size":2,"#, r#""shard_size":0,"#),
            lines[0].replace(r#""targets":["D2"]"#, r#""targets":[]"#),
            lines[0].replace(r#""seeds":[1,2,3,4]"#, r#""seeds":[]"#),
        ];
        for case in cases {
            std::fs::write(&path, &case).unwrap();
            let err = Checkpoint::load(&path).expect_err(&case);
            assert!(matches!(err, ServiceError::Json { .. }), "{case}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
