//! Shared experiment harness for the evaluation binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/`; the functions here do the actual work so the
//! binaries stay thin.  All of them drive fuzzing through the unified
//! [`l2fuzz::campaign::Campaign`] API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btstack::profiles::{DeviceProfile, ProfileId};
use l2fuzz::campaign::{run_sharded, Campaign, CampaignError, CampaignOutcome, OraclePolicy};
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::{Fuzzer, TxBudget};
use l2fuzz::report::FuzzReport;
use l2fuzz::session::L2FuzzTool;
use sniffer::{MetricsSummary, StateCoverage, Trace, TraceAnalysis};

use baselines::{BFuzzFuzzer, BssFuzzer, DefensicsFuzzer};

/// Runs the full L2Fuzz vulnerability-detection experiment against a device
/// (Table VI methodology): campaigns repeat until a vulnerability is found or
/// `max_campaigns` is reached.
pub fn run_table6_campaign(id: ProfileId, seed: u64, max_campaigns: usize) -> FuzzReport {
    Campaign::builder()
        .target(DeviceProfile::table5(id))
        .fuzzer(move || Box::new(L2FuzzTool::detection(FuzzConfig::default(), max_campaigns)))
        .oracle(OraclePolicy::OutOfBand)
        .seed(seed)
        .run()
        .expect("table 6 campaign runs")
        .into_single()
        .report
}

/// Worker threads for the multi-campaign experiments: one per available
/// core.  Outcomes do not depend on it.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the Table VI detection experiment against every Table V device at
/// once, sharded across one worker thread per core.  Per-target outcomes
/// come back in Table V order and are bit-for-bit identical to a serial run
/// of the same seed; the outcome's `elapsed` is the campaign wall-clock
/// (longest per-device time).
pub fn table6_survey(seed: u64, max_campaigns: usize) -> CampaignOutcome {
    Campaign::builder()
        .targets(DeviceProfile::all())
        .fuzzer(move || Box::new(L2FuzzTool::detection(FuzzConfig::default(), max_campaigns)))
        .oracle(OraclePolicy::OutOfBand)
        .seed(seed)
        .threads(workers())
        .run()
        .expect("table 6 survey runs")
}

/// Result of running one fuzzer for the comparison experiments.
pub struct ComparisonRun {
    /// Tool name.
    pub name: &'static str,
    /// Captured trace.
    pub trace: Trace,
    /// Metrics summary (Table VII row).
    pub metrics: MetricsSummary,
    /// State coverage (Fig. 10/11 row).
    pub coverage: StateCoverage,
}

/// The four tools of the §IV-C/D comparison, in the paper's order.
pub const COMPARISON_TOOLS: [&str; 4] = ["L2Fuzz", "Defensics", "BFuzz", "BSS"];

/// Spawns a fresh instance of a comparison tool by name.
///
/// # Panics
/// Panics on a name outside [`COMPARISON_TOOLS`].
pub fn spawn_tool(name: &str) -> Box<dyn Fuzzer> {
    match name {
        "L2Fuzz" => Box::new(L2FuzzTool::comparison()),
        "Defensics" => Box::new(DefensicsFuzzer::new()),
        "BFuzz" => Box::new(BFuzzFuzzer::new()),
        "BSS" => Box::new(BssFuzzer::new()),
        other => panic!("unknown comparison tool {other:?}"),
    }
}

fn run_comparison_tool(
    budget: usize,
    seed: u64,
    index: usize,
) -> Result<ComparisonRun, CampaignError> {
    let name = COMPARISON_TOOLS[index];
    let outcome = Campaign::builder()
        .target(DeviceProfile::table5(ProfileId::D2))
        .fuzzer(move || spawn_tool(name))
        .budget(TxBudget::packets(budget as u64))
        .oracle(OraclePolicy::None)
        .auto_restart(true)
        .seed(seed.wrapping_add(index as u64))
        .run()?
        .into_single();
    let analysis = TraceAnalysis::from_trace(&outcome.trace);
    Ok(ComparisonRun {
        name,
        metrics: analysis.metrics,
        coverage: analysis.coverage,
        trace: outcome.trace,
    })
}

/// Runs all four fuzzers against a fresh Pixel 3 (D2) bench with the given
/// per-fuzzer packet budget, reproducing the §IV-C/D comparison.  Each tool
/// gets its own isolated campaign environment (auto-restarting target, no
/// oracle — metrics come from the sniffed trace, as in the paper).
///
/// The four campaigns are fully isolated — own clock, own air medium, own
/// RNG streams — so they run concurrently, one worker thread per core, and
/// the per-tool traces and metrics are bit-for-bit what a serial run
/// produces.  Results come back in [`COMPARISON_TOOLS`] order.
pub fn run_comparison(budget: usize, seed: u64) -> Vec<ComparisonRun> {
    let mut runs = Vec::with_capacity(COMPARISON_TOOLS.len());
    run_sharded(
        COMPARISON_TOOLS.len(),
        workers(),
        |index| run_comparison_tool(budget, seed, index),
        |_, run| {
            runs.push(run);
            Ok(())
        },
    )
    .expect("comparison campaigns run");
    runs
}

/// Packet budget used by the experiment binaries.  The paper uses 100,000
/// packets per fuzzer; the default here is smaller so the binaries finish in
/// seconds, and can be overridden with the `L2FUZZ_BUDGET` environment
/// variable.
pub fn default_budget() -> usize {
    std::env::var("L2FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_preserves_the_papers_ordering() {
        let runs = run_comparison(2_500, 42);
        assert_eq!(runs.len(), 4);
        let me: Vec<f64> = runs.iter().map(|r| r.metrics.mutation_efficiency).collect();
        // L2Fuzz dominates everything else.
        assert!(
            me[0] > 3.0 * me[1],
            "L2Fuzz {:.3} vs Defensics {:.3}",
            me[0],
            me[1]
        );
        assert!(
            me[0] > 3.0 * me[2],
            "L2Fuzz {:.3} vs BFuzz {:.3}",
            me[0],
            me[2]
        );
        assert!(
            me[3] <= f64::EPSILON,
            "BSS must have zero mutation efficiency"
        );
        // BFuzz has the worst rejection ratio.
        let pr: Vec<f64> = runs.iter().map(|r| r.metrics.pr_ratio).collect();
        assert!(pr[2] > pr[0] && pr[2] > pr[1] && pr[2] > pr[3]);
        // Coverage ordering: L2Fuzz > Defensics >= BFuzz > BSS.
        let cov: Vec<usize> = runs.iter().map(|r| r.coverage.count()).collect();
        assert!(
            cov[0] > cov[1] && cov[1] >= cov[2] && cov[2] > cov[3],
            "coverage {cov:?}"
        );
        assert_eq!(cov[0], 13);
    }

    #[test]
    fn table6_campaign_finds_the_pixel3_bug() {
        let report = run_table6_campaign(ProfileId::D2, 7, 5);
        assert!(report.vulnerable());
    }
}
