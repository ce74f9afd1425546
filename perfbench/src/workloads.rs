//! The three workloads and their operations.
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one returns.  Operation `i` of a run draws its
//! campaign seed from the run's `--seed` and `i`, and walks a fixed target
//! rotation, so every run sees the same mix of targets and engines and
//! only the seeded packet streams differ.
//!
//! | workload | one operation | layers it stresses |
//! |---|---|---|
//! | `fuzz` | a budget-mode campaign of `FUZZ_BUDGET` packets against the next of the eleven profiles, then the sniffer's trace analysis and the streamed report | the per-packet pipeline: mutate, frame, medium, endpoint, tap |
//! | `detect` | a detection campaign against the next seeded-vulnerable target, with the dictionary or the feedback engine, until the first confirmed finding; then analysis and report | time to detection: state guiding, detector pings, the oracle, corpus replay |
//! | `sweep` | a checkpointed sweep-service run over the eleven profiles × `SWEEP_SEEDS` seeds in budget mode on `SWEEP_WORKERS` workers; then triage of each crash cluster's exemplar trace and the streamed report | the service: summaries and digests, crash dedup, checkpoint rewrites |

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use btcore::{splitmix64, LinkType};
use btstack::profiles::{DeviceProfile, ProfileId};
use feedback::{FeedbackConfig, FeedbackFuzzer};
use l2fuzz::campaign::{Campaign, FuzzerSpawner};
use l2fuzz::{FuzzConfig, FuzzReport, Fuzzer, L2FuzzTool, TxBudget};
use service::digest::{trace_digest, Fnv64};
use service::{Checkpoint, ServiceReport, SweepService, SweepSpec};
use sniffer::TraceAnalysis;

use crate::probe::{all_thread_allocs, Probe};

/// Packet budget of one `fuzz` campaign: the default budget of the
/// repository's comparison experiments (`bench::default_budget`, behind
/// Table VII and Figs. 8-9).  Long campaigns, like the paper's 100,000-packet
/// runs, so per-campaign costs (connection, scan, report) weigh as little in
/// packets/s as they do there.
const FUZZ_BUDGET: u64 = 20_000;

/// Round cap of a dictionary detection campaign.  Far above what any seed
/// needs, so every campaign ends at a finding rather than at the cap.
const DETECT_ROUNDS: usize = 64;

/// Round cap of a feedback detection campaign (see [`DETECT_ROUNDS`]).
const FEEDBACK_ROUNDS: usize = 64;

/// The `detect` rotation: every target with a seeded vulnerability that a
/// campaign reliably finds, under the paper's dictionary engine, and the
/// extended targets again under the coverage-guided feedback engine.  D8's
/// bug fires with probability 0.00015 per matching packet and is left out.
const DETECT_PLAN: [(ProfileId, Engine); 10] = [
    (ProfileId::D1, Engine::Dictionary),
    (ProfileId::D2, Engine::Dictionary),
    (ProfileId::D3, Engine::Dictionary),
    (ProfileId::D5, Engine::Dictionary),
    (ProfileId::D9, Engine::Dictionary),
    (ProfileId::D10, Engine::Dictionary),
    (ProfileId::D11, Engine::Dictionary),
    (ProfileId::D9, Engine::Feedback),
    (ProfileId::D10, Engine::Feedback),
    (ProfileId::D11, Engine::Feedback),
];

/// The `fuzz` rotation and the targets of every `sweep` operation: all
/// eleven profiles, hardened and vulnerable, BR/EDR and LE.
const ALL_TARGETS: [ProfileId; 11] = [
    ProfileId::D1,
    ProfileId::D2,
    ProfileId::D3,
    ProfileId::D4,
    ProfileId::D5,
    ProfileId::D6,
    ProfileId::D7,
    ProfileId::D8,
    ProfileId::D9,
    ProfileId::D10,
    ProfileId::D11,
];

/// Sweep seeds per target in one `sweep` operation: 22 jobs, so six shards
/// keep both workers busy and can finish out of order.
const SWEEP_SEEDS: usize = 2;

// The sweep runs the way the service's documentation runs it: 2000-packet
// budget-mode jobs (README "Operating a sweep", `examples/operate_sweep.rs`,
// the CI service smoke), `l2fuzz-service`'s default shard size of 4 and its
// default pool of 2 workers.

/// Per-job packet budget of a `sweep` operation.
const SWEEP_BUDGET: u64 = 2000;

/// Jobs per checkpoint commit.
const SWEEP_SHARD: usize = 4;

/// Sweep worker threads.
const SWEEP_WORKERS: usize = 2;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fuzzing throughput.
    Fuzz,
    /// Time to detection.
    Detect,
    /// Sweep throughput.
    Sweep,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fuzz" => Some(Kind::Fuzz),
            "detect" => Some(Kind::Detect),
            "sweep" => Some(Kind::Sweep),
            _ => None,
        }
    }

    /// Whether targets restart after a crash, as the campaigns set it.
    pub fn auto_restart(self) -> bool {
        self != Kind::Detect
    }

    fn targets(self) -> Vec<ProfileId> {
        match self {
            Kind::Fuzz | Kind::Sweep => ALL_TARGETS.to_vec(),
            Kind::Detect => DETECT_PLAN.iter().map(|(id, _)| *id).collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Budget-driven L2Fuzz, the sweep service's budget mode.
    Budget,
    /// L2Fuzz detection (Table VI): stop at the first finding.
    Dictionary,
    /// The coverage-guided feedback engine, stopping at the first finding.
    Feedback,
}

/// The sweep service's budget-mode tool: budget-driven L2Fuzz.
fn budget_tool() -> FuzzerSpawner {
    Arc::new(|| Box::new(L2FuzzTool::new(FuzzConfig::budget_driven())) as Box<dyn Fuzzer>)
}

impl Engine {
    fn spawner(self, target: ProfileId) -> FuzzerSpawner {
        match self {
            Engine::Budget => budget_tool(),
            Engine::Dictionary => {
                // Without configuration-option mutation D11's ERTM bug is
                // unreachable for the dictionary engine.
                let config = if target == ProfileId::D11 {
                    FuzzConfig::default().with_config_option_mutation()
                } else {
                    FuzzConfig::default()
                };
                Arc::new(move || {
                    Box::new(L2FuzzTool::detection(config.clone(), DETECT_ROUNDS))
                        as Box<dyn Fuzzer>
                })
            }
            Engine::Feedback => {
                let config = FeedbackConfig::default().with_max_rounds(FEEDBACK_ROUNDS);
                Arc::new(move || Box::new(FeedbackFuzzer::new(config.clone())) as Box<dyn Fuzzer>)
            }
        }
    }
}

/// Campaign seed of operation `index` in a run seeded with `run_seed`.
fn op_seed(run_seed: u64, index: u64) -> u64 {
    splitmix64(run_seed ^ splitmix64(index))
}

/// What one operation produced.
#[derive(Default)]
pub struct OpOutcome {
    /// Wall time of the operation.
    pub ns: u64,
    /// Threads that ran the operation's campaigns side by side.
    pub workers: u64,
    /// Packets transmitted to targets.
    pub packets: u64,
    /// Campaigns (sweep jobs) the operation ran.
    pub campaigns: u64,
    /// Channel states covered, summed over the campaigns.
    pub states: u64,
    /// Wall time of the sniffer's trace analysis within the operation.
    pub sniffer_ns: u64,
    /// Wall time of report streaming within the operation.
    pub report_ns: u64,
    /// Allocations during the operation, all threads (traced runs).
    pub allocs: u64,
    /// Identity of the operation's output (when asked for).
    pub digest: u64,
    /// The first output check that failed.
    pub failure: Option<String>,
}

impl OpOutcome {
    fn fail(&mut self, problem: String) {
        self.failure.get_or_insert(problem);
    }
}

/// A workload set up for one run.
pub struct Workload {
    kind: Kind,
    seed: u64,
    work_dir: PathBuf,
}

impl Workload {
    /// Sets the workload up: the model-checked drive plans the state guide
    /// needs, one connection to every target of the rotation, and (for the
    /// sweep) a fresh work directory under the current directory.
    ///
    /// # Errors
    /// Returns a description when a target cannot be connected or the work
    /// directory cannot be created.
    pub fn setup(kind: Kind, seed: u64) -> Result<Workload, String> {
        for link in [LinkType::BrEdr, LinkType::Le] {
            if analysis::fuzz_plans(link).is_empty() {
                return Err(format!("no drive plans for {link}"));
            }
        }
        for id in kind.targets() {
            Campaign::builder()
                .target(DeviceProfile::table5(id))
                .seed(seed)
                .env()
                .map_err(|e| format!("cannot reach {id}: {e}"))?;
        }
        let work_dir = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
        if kind == Kind::Sweep {
            std::fs::create_dir_all(&work_dir)
                .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
        }
        Ok(Workload {
            kind,
            seed,
            work_dir,
        })
    }

    /// Removes what the workload wrote.
    pub fn teardown(&self) {
        if self.kind == Kind::Sweep {
            let _ = std::fs::remove_dir_all(&self.work_dir);
            if let Some(parent) = self.work_dir.parent() {
                // Only succeeds once no concurrent run uses it.
                let _ = std::fs::remove_dir(parent);
            }
        }
    }

    /// Length of the workload's rotation: operation `i` runs slot
    /// `i % slots()`.
    pub fn slots(&self) -> usize {
        match self.kind {
            Kind::Fuzz => ALL_TARGETS.len(),
            Kind::Detect => DETECT_PLAN.len(),
            Kind::Sweep => 1,
        }
    }

    /// Slot of operation `index` in the rotation.
    pub fn slot(&self, index: u64) -> usize {
        (index % self.slots() as u64) as usize
    }

    /// Runs operation `index`.  With a probe the campaigns' tools report
    /// their spans to it.  `with_digest` also computes the output identity.
    pub fn run(&self, index: u64, probe: Option<&Probe>, with_digest: bool) -> OpOutcome {
        match self.kind {
            Kind::Fuzz => {
                let target = ALL_TARGETS[self.slot(index)];
                self.campaign(index, target, Engine::Budget, probe, with_digest)
            }
            Kind::Detect => {
                let (target, engine) = DETECT_PLAN[self.slot(index)];
                self.campaign(index, target, engine, probe, with_digest)
            }
            Kind::Sweep => self.sweep(index, probe, with_digest),
        }
    }

    fn campaign(
        &self,
        index: u64,
        target: ProfileId,
        engine: Engine,
        probe: Option<&Probe>,
        with_digest: bool,
    ) -> OpOutcome {
        let mut op = OpOutcome {
            workers: 1,
            ..OpOutcome::default()
        };
        let mut spawn = engine.spawner(target);
        if let Some(probe) = probe {
            spawn = probe.wrap(spawn);
        }
        let allocs_before = all_thread_allocs();
        let start = Instant::now();
        let mut builder = Campaign::builder()
            .target(DeviceProfile::table5(target))
            .fuzzer(move || spawn())
            .seed(op_seed(self.seed, index));
        if engine == Engine::Budget {
            builder = builder
                .budget(TxBudget::packets(FUZZ_BUDGET))
                .auto_restart(true);
        }
        let outcome = match builder.run() {
            Ok(outcome) => outcome.into_single(),
            Err(e) => {
                op.ns = start.elapsed().as_nanos() as u64;
                op.fail(format!("{target} campaign failed: {e}"));
                return op;
            }
        };
        let sniff_start = Instant::now();
        let analysis =
            TraceAnalysis::from_trace_on(&outcome.trace, outcome.report.target.link_type);
        let report_start = Instant::now();
        let json = outcome.report.to_json();
        let end = Instant::now();
        op.allocs = all_thread_allocs() - allocs_before;
        op.ns = (end - start).as_nanos() as u64;
        op.sniffer_ns = (report_start - sniff_start).as_nanos() as u64;
        op.report_ns = (end - report_start).as_nanos() as u64;

        let report = &outcome.report;
        op.packets = report.packets_sent;
        op.campaigns = 1;
        op.states = analysis.coverage.count() as u64;
        // The report counts test, transition and ping packets; the trace
        // also holds the port scan's probes.
        let transmitted = outcome.trace.transmitted_count() as u64;
        if transmitted < report.packets_sent {
            op.fail(format!(
                "{target}: trace holds {transmitted} transmissions, report counts {}",
                report.packets_sent
            ));
        }
        if analysis.metrics.transmitted as u64 != transmitted {
            op.fail(format!(
                "{target}: sniffer counted {} transmissions",
                analysis.metrics.transmitted
            ));
        }
        if analysis.coverage.count() == 0 {
            op.fail(format!("{target}: no channel state covered"));
        }
        match &json {
            Ok(json) => match FuzzReport::from_json(json) {
                Ok(parsed) if parsed == *report => {}
                _ => op.fail(format!("{target}: report does not round-trip through JSON")),
            },
            Err(e) => op.fail(format!("{target}: report not serializable: {e}")),
        }
        if engine == Engine::Budget {
            // The budget meters every frame on air, scan probes included.
            if transmitted < FUZZ_BUDGET {
                op.fail(format!("{target}: budget unspent ({transmitted} frames)"));
            }
        } else {
            // The finding must name a command that reaches the vulnerability
            // the device records as fired first.
            let device = outcome.device.lock();
            let trigger = device
                .fired_vulnerabilities()
                .first()
                .map(|f| &f.vuln.trigger);
            match (report.findings.first(), trigger) {
                (None, _) => op.fail(format!("{target}: {engine:?} engine found nothing")),
                (Some(_), None) => {
                    op.fail(format!("{target}: finding without a fired vulnerability"))
                }
                (Some(finding), Some(trigger)) => {
                    if !trigger.commands.is_empty() && !trigger.commands.contains(&finding.command)
                    {
                        op.fail(format!(
                            "{target}: finding names {:?}, the fired vulnerability needs {:?}",
                            finding.command, trigger.commands
                        ));
                    }
                }
            }
        }
        if with_digest {
            let mut h = Fnv64::new();
            h.write(json.as_deref().unwrap_or_default().as_bytes());
            h.write_u64(trace_digest(&outcome.trace));
            op.digest = h.finish();
        }
        op
    }

    fn sweep(&self, index: u64, probe: Option<&Probe>, with_digest: bool) -> OpOutcome {
        let mut op = OpOutcome::default();
        let checkpoint = self.work_dir.join("sweep.ckpt.json");
        // A leftover checkpoint would turn the run into a resume.
        let _ = std::fs::remove_file(&checkpoint);
        let allocs_before = all_thread_allocs();
        let start = Instant::now();
        let spec = SweepSpec::new(
            format!("perfbench-{index}"),
            ALL_TARGETS,
            SweepSpec::derived_seeds(op_seed(self.seed, index), SWEEP_SEEDS),
        )
        .with_budget(SWEEP_BUDGET)
        .with_shard_size(SWEEP_SHARD);
        op.workers = SWEEP_WORKERS.min(spec.shard_count()) as u64;
        let expected_jobs = spec.job_count();
        let mut service = SweepService::new(spec)
            .workers(SWEEP_WORKERS)
            .checkpoint(&checkpoint);
        if let Some(probe) = probe {
            // The service's budget mode, wrapped so its spans are recorded.
            let spawn = probe.wrap(budget_tool());
            service = service.customize(move |builder| {
                let spawn = spawn.clone();
                builder.fuzzer(move || spawn())
            });
        }
        let outcome = match service.run() {
            Ok(outcome) => outcome,
            Err(e) => {
                op.ns = start.elapsed().as_nanos() as u64;
                op.fail(format!("sweep failed: {e}"));
                return op;
            }
        };
        let Some(report) = outcome.report.as_ref() else {
            op.ns = start.elapsed().as_nanos() as u64;
            op.fail("sweep stopped before its last shard".to_owned());
            return op;
        };
        // Triage: the trace analysis of every crash cluster's exemplar.
        let sniff_start = Instant::now();
        let triage: Vec<Option<TraceAnalysis>> = report
            .corpus
            .clusters()
            .iter()
            .map(|cluster| {
                let job = report.jobs.get(cluster.exemplar_job)?;
                let link = DeviceProfile::table5(job.target).link_type;
                Some(TraceAnalysis::from_trace_on(&cluster.exemplar_trace, link))
            })
            .collect();
        let report_start = Instant::now();
        let json = report.to_json();
        let end = Instant::now();
        op.allocs = all_thread_allocs() - allocs_before;
        op.ns = (end - start).as_nanos() as u64;
        op.sniffer_ns = (report_start - sniff_start).as_nanos() as u64;
        op.report_ns = (end - report_start).as_nanos() as u64;

        op.campaigns = report.jobs.len() as u64;
        op.packets = report.jobs.iter().map(|j| j.packets_sent).sum();
        op.states = report
            .jobs
            .iter()
            .map(|j| u64::from(j.coverage_signature.count_ones()))
            .sum();
        if report.jobs.len() != expected_jobs || report.failed_jobs() > 0 {
            op.fail(format!(
                "sweep ran {} of {expected_jobs} jobs, {} quarantined",
                report.jobs.len(),
                report.failed_jobs()
            ));
        }
        // Job summaries count the report's packets, which leave out the
        // scan probes the budget also meters: allow a tenth for them.
        if let Some(job) = report
            .jobs
            .iter()
            .find(|j| j.packets_sent * 10 < SWEEP_BUDGET * 9)
        {
            op.fail(format!("job {} left its budget unspent", job.index));
        }
        let covered =
            |t: &Option<TraceAnalysis>| t.as_ref().is_some_and(|t| t.coverage.count() > 0);
        if triage.is_empty() || !triage.iter().all(covered) {
            op.fail("sweep produced no crash cluster with a covered exemplar".to_owned());
        }
        match ServiceReport::from_json(&json) {
            Ok(parsed) if parsed == *report => {}
            _ => op.fail("service report does not round-trip through JSON".to_owned()),
        }
        if with_digest {
            match Checkpoint::load(&checkpoint) {
                Ok(saved) if saved == outcome.checkpoint => {}
                _ => op.fail("checkpoint on disk differs from the sweep's state".to_owned()),
            }
            op.digest = report.digest();
        }
        op
    }
}
