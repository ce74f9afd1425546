//! `perfbench` — the end-to-end benchmark of the L2Fuzz reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fuzz|detect|sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets its workload up, runs one reference operation, warms up for
//! [`WARMUP`], then runs operations back to back for `--seconds` seconds
//! (see [`workloads`]).  Every operation's output is checked, and at the
//! end the reference operation is replayed without probes: the same inputs
//! must give the same output digest.  The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones: packets sent per
//! second of operation time, the median and 90th-percentile operation
//! time (taken per slot of the workload's rotation and averaged over the
//! slots, see [`slot_quantile`]), and `setup_s`, the median over
//! [`SETUP_PROBES`] fresh processes of the time each takes to set the
//! workload up (so lazily built state shows up there).  With `--trace 1`
//! the same operations run with the probes of [`probe`] and the metrics
//! are per layer: time and allocations per packet for the harness, the
//! initiator, the endpoint, the sniffer and the report, which add up to
//! the traced wall time, plus a few ratios.  The sweep's campaigns run on
//! a worker pool, so their time counts at one over the pool size; the
//! shard commits the calling thread makes while the workers run fall in
//! no layer, and only the last one (which nothing overlaps) lands in the
//! harness.
//!
//! Every reported time is scaled to the reference host of [`host`], which
//! takes the shared host's drifting speed out of the figures; the raw
//! figures go to standard error.

mod host;
mod probe;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use probe::Probe;
use workloads::{Kind, OpOutcome, Workload};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Fresh processes timed for `setup_s`.
const SETUP_PROBES: usize = 15;

/// Unmeasured operations before the measured window: a fresh process runs
/// its first operations with cold caches and a growing heap.
const WARMUP: Duration = Duration::from_secs(1);

const USAGE: &str =
    "usage: perfbench --workload fuzz|detect|sweep --seed N --seconds S --trace 0|1";

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = seed.ok_or("--seed is required")?;
    let (seconds, trace) = if setup_probe {
        (0, false)
    } else {
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_owned());
        }
        (seconds, trace.ok_or("--trace is required")?)
    };
    Ok(Args {
        kind,
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        // A set-up probe reports its set-up time and then the host's kernel
        // time, both in nanoseconds.
        let start = Instant::now();
        return match Workload::setup(args.kind, args.seed) {
            Ok(workload) => {
                let elapsed = start.elapsed();
                workload.teardown();
                println!("{} {}", elapsed.as_nanos(), host::fresh_process_kernel_ns());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one fresh process that sets the workload up and exits; returns
/// its set-up time in seconds, raw and scaled to the reference host.
fn probe_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--setup-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run set-up probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up probe exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let times: Vec<u64> = stdout
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| format!("set-up probe printed {stdout:?}"))?;
    let [setup_ns, kernel_ns] = times[..] else {
        return Err(format!("set-up probe printed {stdout:?}"));
    };
    let raw_s = setup_ns as f64 / 1e9;
    Ok((raw_s, raw_s * host::REFERENCE_NS / kernel_ns.max(1) as f64))
}

/// Linear-interpolated quantile `q` of `samples` (sorted in place).
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let pos = q * (samples.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Mean over the rotation's `slots` of each slot's `q`-quantile of the
/// `(slot, time)` samples.  Slots take different times, and the pooled
/// median of such a mixture can fall in the gap between two slots' times,
/// where a small shift in the mix moves it far; each slot's own quantile
/// holds still.
fn slot_quantile(samples: &[(usize, f64)], slots: usize, q: f64) -> f64 {
    let mut per_slot = vec![Vec::new(); slots];
    for &(slot, time) in samples {
        per_slot[slot].push(time);
    }
    per_slot.retain(|times| !times.is_empty());
    let sum: f64 = per_slot.iter_mut().map(|times| quantile(times, q)).sum();
    sum / per_slot.len().max(1) as f64
}

/// A measured operation.
struct Timed {
    /// Wall time.
    ns: u64,
    /// Packets transmitted.
    packets: u64,
    /// The host gauge's mark at its start.
    mark: usize,
    /// Its slot in the workload's rotation.
    slot: usize,
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Per-layer sums over the measured operations of a traced run.
#[derive(Default)]
struct Layers {
    packets: u64,
    campaigns: u64,
    states: u64,
    wall_ns: u64,
    tool_ns: u64,
    endpoint_ns: u64,
    sniffer_ns: u64,
    report_ns: u64,
    op_allocs: u64,
    tool_allocs: u64,
    endpoint_allocs: u64,
    malformed: u64,
}

impl Layers {
    /// The per-layer metrics: time and allocations per packet, with the
    /// harness as the remainder so the times add up to the wall time.
    /// Times are multiplied by `scale`, allocations are not.
    fn metrics(&self, scale: f64) -> Vec<Metric> {
        let per_packet = |x: u64| x as f64 / self.packets.max(1) as f64;
        let ns_per_packet = |x: u64| per_packet(x) * scale;
        let per_campaign = |x: u64| x as f64 / self.campaigns.max(1) as f64;
        let harness_ns = self
            .wall_ns
            .saturating_sub(self.tool_ns + self.sniffer_ns + self.report_ns);
        let initiator_ns = self.tool_ns.saturating_sub(self.endpoint_ns);
        let outside_tool_allocs = self.op_allocs.saturating_sub(self.tool_allocs);
        let initiator_allocs = self.tool_allocs.saturating_sub(self.endpoint_allocs);
        vec![
            ("wall_ns_per_pkt", ns_per_packet(self.wall_ns), "ns/pkt"),
            ("harness_ns_per_pkt", ns_per_packet(harness_ns), "ns/pkt"),
            (
                "initiator_ns_per_pkt",
                ns_per_packet(initiator_ns),
                "ns/pkt",
            ),
            (
                "endpoint_ns_per_pkt",
                ns_per_packet(self.endpoint_ns),
                "ns/pkt",
            ),
            (
                "sniffer_ns_per_pkt",
                ns_per_packet(self.sniffer_ns),
                "ns/pkt",
            ),
            ("report_ns_per_pkt", ns_per_packet(self.report_ns), "ns/pkt"),
            (
                "outside_tool_allocs_per_pkt",
                per_packet(outside_tool_allocs),
                "allocs/pkt",
            ),
            (
                "initiator_allocs_per_pkt",
                per_packet(initiator_allocs),
                "allocs/pkt",
            ),
            (
                "endpoint_allocs_per_pkt",
                per_packet(self.endpoint_allocs),
                "allocs/pkt",
            ),
            ("malformed_share", per_packet(self.malformed), "ratio"),
            ("packets_per_campaign", per_campaign(self.packets), "pkt"),
            ("states_per_campaign", per_campaign(self.states), "states"),
        ]
    }

    /// Takes an operation's tool spans from the probe, replays their
    /// endpoint work and adds everything up.  Spans of campaigns that ran
    /// side by side on `op.workers` threads count at `1 / op.workers` of
    /// their time, so the layers still share out the wall time.
    fn add(&mut self, op: &OpOutcome, probe: &Probe, auto_restart: bool) -> Result<(), String> {
        let (mut tool_ns, mut endpoint_ns, mut probe_ns) = (0, 0, 0);
        let mut probe_allocs = 0;
        for span in probe.take() {
            let replay = probe::replay_endpoint(&span, auto_restart)?;
            tool_ns += span.ns;
            self.tool_allocs += span.allocs;
            self.malformed += span.malformed;
            endpoint_ns += replay.ns;
            self.endpoint_allocs += replay.allocs;
            probe_ns += span.probe_ns;
            probe_allocs += span.probe_allocs;
        }
        let workers = op.workers.max(1);
        self.tool_ns += tool_ns / workers;
        self.endpoint_ns += endpoint_ns / workers;
        self.packets += op.packets;
        self.campaigns += op.campaigns;
        self.states += op.states;
        // The probe's own bookkeeping is not the program's work.
        self.wall_ns += op.ns.saturating_sub(probe_ns / workers);
        self.op_allocs += op.allocs.saturating_sub(probe_allocs);
        self.sniffer_ns += op.sniffer_ns;
        self.report_ns += op.report_ns;
        Ok(())
    }
}

fn run(args: &Args) -> Result<String, String> {
    let workload = Workload::setup(args.kind, args.seed)?;
    let result = measure(&workload, args);
    workload.teardown();
    result
}

/// Failed operations of a run, with the first few reasons for stderr.
#[derive(Default)]
struct Tally {
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn record(&mut self, problem: Option<String>) {
        if let Some(problem) = problem {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(problem);
            }
        }
    }
}

fn measure(workload: &Workload, args: &Args) -> Result<String, String> {
    let probe = args.trace.then(Probe::default);
    if args.trace {
        probe::enable_counting();
    }
    let auto_restart = args.kind.auto_restart();
    let mut tally = Tally::default();
    let mut layers = Layers::default();

    // The reference operation; its spans are replayed for the fidelity
    // check only, like the warm-up's.
    let reference = workload.run(0, probe.as_ref(), true);
    let fidelity = probe
        .as_ref()
        .and_then(|probe| Layers::default().add(&reference, probe, auto_restart).err());
    tally.record(reference.failure.clone().or(fidelity));

    // Set-up probes are spread over the measured window, between
    // operations, so they sample the host in the same states the
    // operations meet.
    let mut setup_samples: Vec<(f64, f64)> = Vec::new();
    let probe_every = Duration::from_secs(args.seconds) / SETUP_PROBES as u32;
    let mut gauge = host::Gauge::new();
    let mut measured: Vec<Timed> = Vec::new();
    let warm_until = Instant::now() + WARMUP;
    let mut measured_from: Option<Instant> = None;
    let mut index = 1;
    loop {
        let now = Instant::now();
        if now >= warm_until && measured_from.is_none() {
            measured_from = Some(now);
        }
        if let Some(from) = measured_from {
            if now - from >= Duration::from_secs(args.seconds) {
                break;
            }
            let due = probe_every * setup_samples.len() as u32;
            if !args.trace && setup_samples.len() < SETUP_PROBES && now - from >= due {
                setup_samples.push(probe_setup(args)?);
                continue;
            }
        }
        let mark = gauge.before_op();
        let op = workload.run(index, probe.as_ref(), false);
        index += 1;
        let mut warmup_layers = Layers::default();
        let sink = if measured_from.is_some() {
            &mut layers
        } else {
            &mut warmup_layers
        };
        let fidelity = probe
            .as_ref()
            .and_then(|probe| sink.add(&op, probe, auto_restart).err());
        tally.record(op.failure.clone().or(fidelity));
        if measured_from.is_some() {
            measured.push(Timed {
                ns: op.ns,
                packets: op.packets,
                mark,
                slot: workload.slot(index - 1),
            });
        }
    }
    // The last operations get samples after them too.
    gauge.sample();

    while !args.trace && setup_samples.len() < SETUP_PROBES {
        setup_samples.push(probe_setup(args)?);
    }

    // Same inputs, no probes: the output must not change.
    let replay = workload.run(0, None, true);
    let changed = (replay.digest != reference.digest)
        .then(|| "replaying the reference operation changed its output".to_owned());
    tally.record(replay.failure.or(changed));

    for reason in &tally.reasons {
        eprintln!("perfbench: check failed: {reason}");
    }
    let packets: u64 = measured.iter().map(|op| op.packets).sum();
    let raw_ns: u64 = measured.iter().map(|op| op.ns).sum();
    if packets == 0 || raw_ns == 0 {
        return Err("no packets were measured".to_owned());
    }
    let raw_ms: Vec<(usize, f64)> = measured
        .iter()
        .map(|op| (op.slot, op.ns as f64 / 1e6))
        .collect();
    let scaled_ms: Vec<(usize, f64)> = measured
        .iter()
        .map(|op| (op.slot, op.ns as f64 / 1e6 * gauge.factor(op.mark)))
        .collect();
    let scaled_ns = scaled_ms.iter().map(|&(_, ms)| ms).sum::<f64>() * 1e6;
    let slots = workload.slots();
    eprintln!(
        "perfbench: {} ops, raw (unscaled) {:.0} packets/s, op p50 {:.4} ms, p90 {:.4} ms; \
         scale to the reference host {:.4}",
        measured.len(),
        packets as f64 / (raw_ns as f64 / 1e9),
        slot_quantile(&raw_ms, slots, 0.5),
        slot_quantile(&raw_ms, slots, 0.9),
        scaled_ns / raw_ns as f64,
    );
    let metrics = if args.trace {
        layers.metrics(scaled_ns / raw_ns as f64)
    } else {
        let (mut raw_setup, mut scaled_setup): (Vec<f64>, Vec<f64>) =
            setup_samples.into_iter().unzip();
        eprintln!(
            "perfbench: raw (unscaled) set-up {:.6} s",
            quantile(&mut raw_setup, 0.5)
        );
        vec![
            ("packets_per_s", packets as f64 / (scaled_ns / 1e9), "1/s"),
            ("op_p50_ms", slot_quantile(&scaled_ms, slots, 0.5), "ms"),
            ("op_p90_ms", slot_quantile(&scaled_ms, slots, 0.9), "ms"),
            ("setup_s", quantile(&mut scaled_setup, 0.5), "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        index + 1,
        tally.failed,
        body.join(", ")
    ))
}
