//! The sweep service: a worker pool draining the shard queue, with
//! in-order checkpoint commits and verifiable resume.
//!
//! The pool is the campaigns' own, [`l2fuzz::campaign::run_sharded`]:
//! workers claim shards from an atomic index and run them out of order,
//! and the calling thread commits results strictly in shard order — corpus
//! insertion, one appended checkpoint journal line, observer callback — so
//! the durable state after shard *k* is identical no matter how the pool
//! interleaved.  That in-order commit rule is what makes
//! "resume from the last completed shard" well-defined, and campaign
//! determinism is what makes it *verifiable*: re-running a committed shard
//! must reproduce its recorded digest bit for bit.

use std::ops::Range;
use std::path::PathBuf;
use std::time::Duration;

use btstack::DeviceProfile;
use l2fuzz::campaign::{run_sharded, Campaign, CampaignBuilder, CampaignPlan, TargetOutcome};
use l2fuzz::fuzzer::Fuzzer;
use l2fuzz::session::L2FuzzTool;
use l2fuzz::{FuzzConfig, TxBudget, WatchdogExpired};
use sniffer::StateCoverage;

use crate::checkpoint::{Checkpoint, JobOutcome, JobSummary, ShardRecord};
use crate::corpus::{ClusterKey, Exemplar};
use crate::report::ServiceReport;
use crate::spec::{JobSpec, SweepSpec};
use crate::ServiceError;

/// How much of a loaded checkpoint to re-prove before continuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResumeVerify {
    /// Trust the checkpoint as written.
    None,
    /// Re-run the last committed shard and compare digests (the default:
    /// catches a torn or stale checkpoint at the cost of one shard).
    #[default]
    LastShard,
    /// Re-run every committed shard (full proof; linear in committed work).
    All,
}

/// One finished job: the durable summary plus, when it crashed the target,
/// what it donates should it open its cluster (transient: a job that joins
/// an existing cluster drops it).
struct JobResult {
    summary: JobSummary,
    exemplar: Option<Exemplar>,
}

/// A per-commit callback, invoked on the committing thread in shard order.
type CommitObserver = Box<dyn Fn(&ShardRecord)>;

/// A campaign-plan customization hook, applied while building the sweep's
/// plan — how chaos sweeps inject a [`l2fuzz::FaultPlan`] (and how the
/// resilience tests inject pathological fuzzers).  Must be deterministic:
/// the same builder in must yield the same plan out, or resume verification
/// will rightly reject the checkpoint.
type PlanHook = Box<dyn Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync>;

/// What a finished (or deliberately stopped) run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The final report — `Some` only when every shard has committed.
    pub report: Option<ServiceReport>,
    /// The checkpoint state at exit.
    pub checkpoint: Checkpoint,
    /// The first shard this run executed (0 for a fresh sweep).
    pub resumed_from: usize,
    /// Shards re-run and digest-matched during resume verification.
    pub verified_shards: Vec<usize>,
    /// Shards committed by this run.
    pub committed_this_run: usize,
}

impl SweepOutcome {
    /// `true` when the sweep ran to completion.
    pub fn is_complete(&self) -> bool {
        self.report.is_some()
    }
}

/// The long-running campaign service.
///
/// ```no_run
/// use btstack::ProfileId;
/// use service::{SweepService, SweepSpec};
///
/// let spec = SweepSpec::new("nightly", [ProfileId::D2], SweepSpec::derived_seeds(7, 16))
///     .with_budget(300)
///     .with_shard_size(4);
/// let outcome = SweepService::new(spec)
///     .workers(4)
///     .checkpoint("nightly.ckpt.json")
///     .run()
///     .unwrap();
/// println!("{}", outcome.report.unwrap().summary_line());
/// ```
pub struct SweepService {
    spec: SweepSpec,
    workers: usize,
    checkpoint_path: Option<PathBuf>,
    verify: ResumeVerify,
    max_shards: Option<usize>,
    max_job_failures: Option<usize>,
    on_commit: Option<CommitObserver>,
    customize: Option<PlanHook>,
}

impl SweepService {
    /// Creates a single-worker service with no checkpointing.
    pub fn new(spec: SweepSpec) -> Self {
        SweepService {
            spec,
            workers: 1,
            checkpoint_path: None,
            verify: ResumeVerify::default(),
            max_shards: None,
            max_job_failures: None,
            on_commit: None,
            customize: None,
        }
    }

    /// Sets the worker-pool size (clamped to at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables checkpointing to `path`: the first committed shard creates
    /// the journal atomically, every later one appends its line, and an
    /// existing file is resumed from (after truncating a torn last line).
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the resume-verification policy (default:
    /// [`ResumeVerify::LastShard`]).
    pub fn verify(mut self, verify: ResumeVerify) -> Self {
        self.verify = verify;
        self
    }

    /// Commits at most `shards` shards in this run, then returns — the
    /// controlled stand-in for a kill, used by the resume tests and the
    /// CLI's `--max-shards`.
    pub fn max_shards(mut self, shards: usize) -> Self {
        self.max_shards = Some(shards);
        self
    }

    /// Installs a per-commit observer, called on the committing thread in
    /// shard order (progress reporting, metrics export).
    pub fn on_commit(mut self, f: impl Fn(&ShardRecord) + 'static) -> Self {
        self.on_commit = Some(Box::new(f));
        self
    }

    /// Stops the sweep (after committing the crossing shard) once more than
    /// `limit` jobs have been quarantined as failed or timed out.  The
    /// count is cumulative across resumes — it meters the checkpoint, not
    /// this run.  Default: unlimited (quarantine never aborts).
    pub fn max_job_failures(mut self, limit: usize) -> Self {
        self.max_job_failures = Some(limit);
        self
    }

    /// Installs a deterministic hook over the sweep's campaign builder —
    /// the seam for chaos sweeps ([`CampaignBuilder::faults`]) and custom
    /// fuzzers.  Applied after the spec's own settings, so it can override
    /// them.
    pub fn customize(
        mut self,
        f: impl Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync + 'static,
    ) -> Self {
        self.customize = Some(Box::new(f));
        self
    }

    /// Runs (or resumes) the sweep.
    ///
    /// # Errors
    /// - [`ServiceError::Campaign`] when a job's campaign cannot run;
    /// - [`ServiceError::Io`]/[`ServiceError::Json`] on checkpoint
    ///   filesystem failures, or journal lines that do not parse or that
    ///   contradict the spec or their own digest;
    /// - [`ServiceError::ExemplarMismatch`] when a stored exemplar trace no
    ///   longer matches its job's recorded digest;
    /// - [`ServiceError::SpecMismatch`] when the checkpoint on disk belongs
    ///   to a different sweep definition;
    /// - [`ServiceError::VerifyFailed`] when a committed shard does not
    ///   reproduce its recorded digest.
    pub fn run(&self) -> Result<SweepOutcome, ServiceError> {
        let plan = build_plan(&self.spec, self.customize.as_deref())?;
        let mut checkpoint = self.load_or_create()?;
        let resumed_from = checkpoint.completed_shards();
        let verified_shards = self.verify_resume(&plan, &checkpoint)?;

        let total = self.spec.shard_count();
        let end = match self.max_shards {
            Some(cap) => total.min(resumed_from + cap),
            None => total,
        };
        let committed_this_run = self.drain(&plan, &mut checkpoint, resumed_from..end)?;

        let report = (checkpoint.completed_shards() == total)
            .then(|| ServiceReport::from_checkpoint(&checkpoint));
        Ok(SweepOutcome {
            report,
            checkpoint,
            resumed_from,
            verified_shards,
            committed_this_run,
        })
    }

    /// Resumes the checkpoint when one exists (validating its spec identity
    /// and truncating a torn last line), otherwise starts fresh.
    fn load_or_create(&self) -> Result<Checkpoint, ServiceError> {
        match &self.checkpoint_path {
            Some(path) if path.exists() => Checkpoint::resume(path, &self.spec),
            _ => Ok(Checkpoint::new(self.spec.clone())),
        }
    }

    /// Re-runs committed shards per the verification policy and compares
    /// digests.
    fn verify_resume(
        &self,
        plan: &CampaignPlan,
        checkpoint: &Checkpoint,
    ) -> Result<Vec<usize>, ServiceError> {
        let committed = checkpoint.completed_shards();
        let shards: Vec<usize> = match self.verify {
            ResumeVerify::None => Vec::new(),
            ResumeVerify::LastShard => committed.checked_sub(1).into_iter().collect(),
            ResumeVerify::All => (0..committed).collect(),
        };
        for &shard in &shards {
            let results = run_shard(plan, &self.spec, shard);
            let summaries: Vec<JobSummary> = results.into_iter().map(|r| r.summary).collect();
            let found = ShardRecord::digest_jobs(&summaries);
            let expected = checkpoint.shards[shard].digest;
            if found != expected {
                return Err(ServiceError::VerifyFailed {
                    shard,
                    expected,
                    found,
                });
            }
        }
        Ok(shards)
    }

    /// Runs `pending` shards through the worker pool, committing in shard
    /// order; returns the number committed.  Job-level failures are
    /// quarantined into their summaries, so only a commit can fail; a
    /// `TooManyFailures` stop comes after the crossing shard is durable.
    fn drain(
        &self,
        plan: &CampaignPlan,
        checkpoint: &mut Checkpoint,
        pending: Range<usize>,
    ) -> Result<usize, ServiceError> {
        let (spec, first) = (&self.spec, pending.start);
        run_sharded(
            pending.len(),
            self.workers,
            |i| Ok(run_shard(plan, spec, first + i)),
            |i, results| self.commit(checkpoint, first + i, results),
        )?;
        Ok(pending.len())
    }

    /// Commits one shard: corpus insertion in job order (each crashing job
    /// joins its cluster or opens it), the shard record, the journal line,
    /// and the observer — then meters the quarantine threshold, so the
    /// crossing shard is durable before the sweep stops.
    fn commit(
        &self,
        checkpoint: &mut Checkpoint,
        shard: usize,
        results: Vec<JobResult>,
    ) -> Result<(), ServiceError> {
        let mut jobs = Vec::with_capacity(results.len());
        for JobResult { summary, exemplar } in results {
            if let (Some(key), Some(exemplar)) = (summary.cluster, exemplar) {
                let (job, digest) = (summary.index, summary.trace_digest);
                if !checkpoint.corpus.join(key, job, digest) {
                    checkpoint.corpus.open(key, job, digest, exemplar);
                }
            }
            jobs.push(summary);
        }
        let record = ShardRecord {
            shard,
            digest: ShardRecord::digest_jobs(&jobs),
            jobs,
        };
        checkpoint.shards.push(record);
        if let Some(path) = &self.checkpoint_path {
            checkpoint.persist_last_shard(path)?;
        }
        if let (Some(observer), Some(record)) = (&self.on_commit, checkpoint.shards.last()) {
            observer(record);
        }
        if let Some(limit) = self.max_job_failures {
            let failed = checkpoint.failed_jobs();
            if failed > limit {
                return Err(ServiceError::TooManyFailures { limit, failed });
            }
        }
        Ok(())
    }
}

/// Builds the campaign plan a sweep runs its jobs against.  Detection mode
/// (no budget) keeps the campaign defaults: the fuzzer stops at the first
/// vulnerability and the out-of-band oracle turns the crash into a report
/// finding.  Budget mode switches to the comparison experiments' setup —
/// budget-driven fuzzer, auto-restarting devices so the whole budget burns
/// even across crashes (which also means crashes surface as crash dumps,
/// not findings).
fn build_plan(
    spec: &SweepSpec,
    customize: Option<&(dyn Fn(CampaignBuilder) -> CampaignBuilder + Send + Sync)>,
) -> Result<CampaignPlan, ServiceError> {
    let mut builder =
        Campaign::builder().targets(spec.targets.iter().map(|id| DeviceProfile::table5(*id)));
    if let Some(budget) = spec.budget_packets {
        builder = builder
            .fuzzer(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())) as Box<dyn Fuzzer>)
            .budget(TxBudget::packets(budget))
            .auto_restart(true);
    }
    if let Some(secs) = spec.watchdog_secs {
        builder = builder.watchdog(Duration::from_secs(secs));
    }
    if let Some(customize) = customize {
        builder = customize(builder);
    }
    builder.plan().map_err(ServiceError::Campaign)
}

/// Runs one shard's jobs serially, in job order.  Infallible: a job that
/// panics, times out or fails to connect is quarantined into its summary,
/// not bubbled up — one bad job never costs the shard.
fn run_shard(plan: &CampaignPlan, spec: &SweepSpec, shard: usize) -> Vec<JobResult> {
    spec.shard_jobs(shard)
        .map(|index| run_job(plan, spec.job(index)))
        .collect()
}

/// Runs one `(target, seed)` job and reduces its outcome to the durable
/// summary plus corpus data.  Worker panics are contained here: a watchdog
/// expiry becomes [`JobOutcome::TimedOut`], anything else
/// [`JobOutcome::Failed`] — in both cases with the reason recorded, and
/// reproducibly so (panics derive from the virtual clock and seeded
/// streams, which is what lets resume verification re-prove failed shards).
fn run_job(plan: &CampaignPlan, job: JobSpec) -> JobResult {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.run_target_with_seed(job.target_index, job.seed)
    }));
    match run {
        Ok(Ok(outcome)) => summarize(job, outcome),
        Ok(Err(err)) => quarantined(job, JobOutcome::Failed, format!("campaign failed: {err}")),
        Err(payload) => {
            if let Some(expired) = payload.downcast_ref::<WatchdogExpired>() {
                quarantined(job, JobOutcome::TimedOut, expired.to_string())
            } else if let Some(msg) = payload.downcast_ref::<&'static str>() {
                quarantined(job, JobOutcome::Failed, format!("worker panicked: {msg}"))
            } else if let Some(msg) = payload.downcast_ref::<String>() {
                quarantined(job, JobOutcome::Failed, format!("worker panicked: {msg}"))
            } else {
                quarantined(job, JobOutcome::Failed, "worker panicked".to_owned())
            }
        }
    }
}

/// The summary of a job that did not complete: no report, no trace, the
/// failure reason pinned into the digests via [`ShardRecord::digest_jobs`].
fn quarantined(job: JobSpec, outcome: JobOutcome, failure: String) -> JobResult {
    JobResult {
        summary: JobSummary {
            index: job.index,
            target: job.target,
            seed: job.seed,
            vulnerable: false,
            findings: 0,
            packets_sent: 0,
            elapsed_secs: 0,
            report_digest: 0,
            trace_digest: 0,
            coverage_signature: 0,
            cluster: None,
            outcome,
            failure: Some(failure),
        },
        exemplar: None,
    }
}

/// Reduces a campaign outcome to a [`JobResult`].  Only virtual-clock and
/// seed-derived data lands in the summary, so it is reproducible.
fn summarize(job: JobSpec, mut outcome: TargetOutcome) -> JobResult {
    // The traces move out of the outcome, merged in time order when
    // concurrent initiators ran: nothing is copied, and a crashing job's
    // trace moves on into its exemplar.
    let mut trace = std::mem::take(&mut outcome.trace);
    for initiator in &mut outcome.secondary {
        trace.merge(std::mem::take(&mut initiator.trace));
    }
    let report_digest =
        crate::digest::digest_bytes(serde_json::to_string_streamed(&outcome.report).as_bytes());
    let trace_digest = crate::digest::trace_digest(&trace);
    // Computed for every job, not just crashing ones: the summary carries it
    // so the corpus store can rank clusters by novelty across the sweep.
    let coverage = StateCoverage::from_trace_on(&trace, outcome.report.target.link_type);

    let dumps = outcome.device.lock().crash_dumps().to_vec();
    let cluster = (!dumps.is_empty()).then(|| ClusterKey {
        crash_digest: crate::digest::crash_dumps_digest(&dumps),
        coverage_signature: coverage.signature(),
    });
    let exemplar = cluster.map(|_| {
        let description = outcome
            .reports()
            .flat_map(|r| r.findings.first())
            .map(|f| f.evidence.description.clone())
            .next()
            .or_else(|| {
                dumps
                    .first()
                    .map(|dump| format!("{} in {}", dump.kind, dump.process))
            })
            .unwrap_or_else(|| "crash without findings or dumps".to_owned());
        Exemplar {
            vuln_ids: dumps.iter().map(|d| d.vuln_id.clone()).collect(),
            description,
            trace,
        }
    });

    JobResult {
        summary: JobSummary {
            index: job.index,
            target: job.target,
            seed: job.seed,
            vulnerable: outcome.any_vulnerable() || cluster.is_some(),
            findings: outcome.reports().map(|r| r.findings.len()).sum(),
            packets_sent: outcome.reports().map(|r| r.packets_sent).sum(),
            elapsed_secs: outcome.reports().map(|r| r.elapsed_secs).max().unwrap_or(0),
            report_digest,
            trace_digest,
            coverage_signature: coverage.signature(),
            cluster,
            outcome: JobOutcome::Completed,
            failure: None,
        },
        exemplar,
    }
}
