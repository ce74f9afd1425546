//! `l2fuzz-service` — operate a checkpointable, resumable fuzzing sweep.
//!
//! ```text
//! l2fuzz-service --targets D2,D5 --seeds 8 [options]
//! ```
//!
//! The sweep is the cross product of `--targets` and the seed list, cut
//! into shards.  With `--checkpoint`, the checkpoint file is a journal: the
//! first committed shard creates it atomically, and every later one appends
//! one line.  Re-running the same command resumes from the last committed
//! shard and (by default) re-proves the last shard's digest before
//! continuing.  Kill it at any point — SIGKILL included — and the next
//! invocation picks up where the commits stopped; a line the kill cut short
//! is dropped and truncated.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use btstack::ProfileId;
use service::{ResumeVerify, SweepService, SweepSpec};

struct Args {
    name: String,
    targets: Vec<ProfileId>,
    seed_count: usize,
    seed_base: u64,
    budget: Option<u64>,
    shard_size: usize,
    workers: usize,
    checkpoint: Option<PathBuf>,
    report: Option<PathBuf>,
    verify: ResumeVerify,
    max_shards: Option<usize>,
    max_job_failures: Option<usize>,
    watchdog_secs: Option<u64>,
    quiet: bool,
}

const USAGE: &str = "l2fuzz-service --targets D2,D5 --seeds 8 [options]\n\
     \n\
     Runs (or resumes) a sharded fuzzing sweep over targets x seeds.\n\
     \n\
     --targets LIST     comma-separated device profiles (D1..D11), required\n\
     --seeds N          number of derived campaign seeds per target, required\n\
     --seed-base N      base for seed derivation, decimal or 0x-prefixed hex (default 1337)\n\
     --name NAME        sweep name recorded in checkpoints (default `sweep`)\n\
     --budget N         per-job packet budget (default: detection stopping rule)\n\
     --shard-size N     jobs per checkpoint commit (default 4)\n\
     --workers N        worker threads (default 2)\n\
     --checkpoint PATH  checkpoint file; enables resume across invocations\n\
     --report PATH      write the final report JSON to PATH when complete\n\
     --verify MODE      resume verification: none | last | all (default last)\n\
     --max-shards N     commit at most N shards this run, then exit 0\n\
     --max-job-failures N  stop once more than N jobs are quarantined\n\
     --watchdog SECS    quarantine jobs running past SECS of virtual time\n\
     --quiet            suppress per-shard progress lines";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        name: "sweep".to_owned(),
        targets: Vec::new(),
        seed_count: 0,
        seed_base: 1337,
        budget: None,
        shard_size: 4,
        workers: 2,
        checkpoint: None,
        report: None,
        verify: ResumeVerify::LastShard,
        max_shards: None,
        max_job_failures: None,
        watchdog_secs: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--targets" => {
                args.targets = value("--targets")?
                    .split(',')
                    .map(ProfileId::from_str)
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                args.seed_count = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--seed-base" => {
                let raw = value("--seed-base")?;
                args.seed_base = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                }
                .map_err(|e| format!("--seed-base: {e}"))?;
            }
            "--name" => args.name = value("--name")?,
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--shard-size" => {
                args.shard_size = value("--shard-size")?
                    .parse()
                    .map_err(|e| format!("--shard-size: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--verify" => {
                args.verify = match value("--verify")?.as_str() {
                    "none" => ResumeVerify::None,
                    "last" => ResumeVerify::LastShard,
                    "all" => ResumeVerify::All,
                    other => return Err(format!("--verify: unknown mode `{other}`")),
                };
            }
            "--max-shards" => {
                args.max_shards = Some(
                    value("--max-shards")?
                        .parse()
                        .map_err(|e| format!("--max-shards: {e}"))?,
                );
            }
            "--max-job-failures" => {
                args.max_job_failures = Some(
                    value("--max-job-failures")?
                        .parse()
                        .map_err(|e| format!("--max-job-failures: {e}"))?,
                );
            }
            "--watchdog" => {
                args.watchdog_secs = Some(
                    value("--watchdog")?
                        .parse()
                        .map_err(|e| format!("--watchdog: {e}"))?,
                );
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.targets.is_empty() {
        return Err("--targets is required".to_owned());
    }
    if args.seed_count == 0 {
        return Err("--seeds is required and must be positive".to_owned());
    }
    if args.shard_size == 0 {
        return Err("--shard-size must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("l2fuzz-service: {err}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut spec = SweepSpec::new(
        args.name.clone(),
        args.targets.clone(),
        SweepSpec::derived_seeds(args.seed_base, args.seed_count),
    )
    .with_shard_size(args.shard_size);
    if let Some(budget) = args.budget {
        spec = spec.with_budget(budget);
    }
    if let Some(secs) = args.watchdog_secs {
        spec = spec.with_watchdog_secs(secs);
    }
    let total_shards = spec.shard_count();

    let mut svc = SweepService::new(spec)
        .workers(args.workers)
        .verify(args.verify);
    if let Some(path) = &args.checkpoint {
        svc = svc.checkpoint(path.clone());
    }
    if let Some(cap) = args.max_shards {
        svc = svc.max_shards(cap);
    }
    if let Some(limit) = args.max_job_failures {
        svc = svc.max_job_failures(limit);
    }
    if !args.quiet {
        svc = svc.on_commit(move |record| {
            eprintln!(
                "l2fuzz-service: committed shard {}/{} ({} job(s), digest {:016x})",
                record.shard + 1,
                total_shards,
                record.jobs.len(),
                record.digest
            );
        });
    }

    let outcome = match svc.run() {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("l2fuzz-service: {err}");
            return ExitCode::FAILURE;
        }
    };

    if outcome.resumed_from > 0 && !args.quiet {
        eprintln!(
            "l2fuzz-service: resumed from shard {} ({} shard(s) re-verified)",
            outcome.resumed_from,
            outcome.verified_shards.len()
        );
    }
    match &outcome.report {
        Some(report) => {
            println!("{}", report.summary_line());
            for cluster in report.corpus.clusters() {
                println!(
                    "  cluster {:016x}/{:08x}: {} job(s), vulns [{}] — {}",
                    cluster.key.crash_digest,
                    cluster.key.coverage_signature,
                    cluster.count(),
                    cluster.vuln_ids.join(", "),
                    cluster.description
                );
            }
            if let Some(path) = &args.report {
                if let Err(err) = std::fs::write(path, report.to_json() + "\n") {
                    eprintln!("l2fuzz-service: writing report: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            println!(
                "sweep `{}` paused: {}/{} shard(s) committed",
                outcome.checkpoint.spec.name,
                outcome.checkpoint.completed_shards(),
                total_shards
            );
        }
    }
    ExitCode::SUCCESS
}
