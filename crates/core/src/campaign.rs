//! The unified campaign API: one entry point for every experiment.
//!
//! Every experiment in the repository — the Table V device survey, the
//! Table VI elapsed-time runs, the §IV-C/D fuzzer comparisons, the examples
//! and the integration tests — used to hand-roll the same ritual: build a
//! medium, register devices, connect, attach a tap, construct a session
//! and run it.  [`Campaign::builder`] replaces that ritual with one fluent
//! entry point:
//!
//! ```
//! use btstack::profiles::{DeviceProfile, ProfileId};
//! use l2fuzz::campaign::Campaign;
//!
//! let outcome = Campaign::builder()
//!     .target(DeviceProfile::table5(ProfileId::D2))
//!     .seed(11)
//!     .run()
//!     .expect("campaign runs");
//! assert!(outcome.targets[0].report.vulnerable());
//! ```
//!
//! # Isolation and determinism
//!
//! Each target gets a fully isolated environment: its own [`SimClock`], its
//! own [`EventMedium`], and RNG streams derived from the campaign seed and
//! the target's position in the list.  Nothing is shared between targets,
//! so the per-target [`FuzzReport`]s and traces are a pure function of the
//! campaign seed — identical at any [`CampaignBuilder::threads`] count.
//! *Within* a target, concurrent initiators are serialized by the medium's
//! event scheduler in virtual-time order, so multi-initiator campaigns
//! replay bit-for-bit too.
//! `tests/deterministic_replay.rs` enforces all of this.
//!
//! # Concurrent initiators
//!
//! [`CampaignBuilder::initiators_per_target`] runs several initiators
//! against each target at once — each with its own link, tap, clock, seed
//! stream and fresh fuzzer instance, served by an isolated device-side
//! acceptor (per-link CID spaces).  [`CampaignBuilder::dual_transport`] is
//! the two-initiator special case that fuzzes a dual-mode device over
//! BR/EDR and LE in one run.  The first initiator's results land in
//! [`TargetOutcome::report`]/[`TargetOutcome::trace`] (so single-initiator
//! campaigns look exactly like before); the rest are in
//! [`TargetOutcome::secondary`].
//!
//! # Seeds and threads
//!
//! A campaign runs one isolated unit per `(target, seed)` pair, target-major.
//! [`CampaignBuilder::seed`] gives every target one campaign;
//! [`CampaignBuilder::seeds`] gives it *many* — one per sweep seed — which
//! is how probability-gated triggers (the LE credit-flow vulnerabilities)
//! get a fair chance to fire.  [`CampaignBuilder::threads`] spreads the
//! units over [`run_sharded`]'s worker pool, the same pool the sweep
//! service and the tool comparison run on.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use btcore::{BtError, DeviceMeta, LinkType, SimClock};
use btstack::device::{share, DeviceOracle, SharedSimulatedDevice};
use btstack::profiles::DeviceProfile;
use hci::link::{new_tap, LinkConfig, SharedTap};
use hci::medium::{EventGate, EventMedium, LinkHandle, LinkSpec};
use sniffer::Trace;

use crate::config::FuzzConfig;
use crate::fuzzer::{FuzzCtx, Fuzzer, TxBudget};
use crate::report::FuzzReport;
use crate::retry::RetryPolicy;
use crate::scanner::ScanReport;
use crate::session::L2FuzzTool;
use hci::fault::FaultPlan;

use btcore::FuzzRng;

/// Creates one fresh fuzzer instance per campaign initiator.
pub type FuzzerSpawner = Arc<dyn Fn() -> Box<dyn Fuzzer> + Send + Sync>;

/// Whether campaign targets are observed out of band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OraclePolicy {
    /// Attach a [`DeviceOracle`] to every target (crash dumps + service
    /// status), as the original tool does via `adb`/`ssh`.
    #[default]
    OutOfBand,
    /// Fuzz blind: detection works from on-air behaviour alone.
    None,
}

/// How many links a campaign establishes per target, and over which
/// transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LinkPlan {
    /// One initiator on the profile's primary transport.
    #[default]
    Single,
    /// `n` concurrent initiators, all on the primary transport.
    Initiators(usize),
    /// Two concurrent initiators: one BR/EDR, one LE (dual-mode targets).
    DualTransport,
}

impl LinkPlan {
    fn link_types(&self, profile: &DeviceProfile) -> Vec<LinkType> {
        match self {
            LinkPlan::Single => vec![profile.link_type],
            LinkPlan::Initiators(n) => vec![profile.link_type; (*n).max(1)],
            LinkPlan::DualTransport => vec![LinkType::BrEdr, LinkType::Le],
        }
    }
}

/// Errors surfaced while setting up or running a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// `run()` was called without any target device.
    NoTargets,
    /// `env()` was called on a campaign with more than one `(target, seed)`
    /// unit.
    MultipleTargets {
        /// How many `(target, seed)` units the builder held.
        count: usize,
    },
    /// A target environment could not establish an ACL link.
    Connect {
        /// The target that failed.
        profile: Box<DeviceProfile>,
        /// The transport the failed link was requested over.
        link_type: LinkType,
        /// The underlying connection error.
        source: BtError,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::NoTargets => write!(f, "campaign has no target devices"),
            CampaignError::MultipleTargets { count } => {
                write!(
                    f,
                    "manual env() needs exactly one (target, seed) unit, got {count}"
                )
            }
            CampaignError::Connect {
                profile,
                link_type,
                source,
            } => {
                write!(
                    f,
                    "cannot connect to {} ({}) over {link_type}: {source}",
                    profile.id, profile.name
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// A fully wired, isolated environment for one campaign target.
///
/// Hand-driven flows (the BlueBorne replay, the Pixel 3 case study) obtain
/// one through [`CampaignBuilder::env`] instead of wiring a medium by hand.
pub struct TargetEnv {
    /// The profile this environment instantiates.
    pub profile: DeviceProfile,
    /// Typed handle to the simulated device (for oracle access and crash
    /// dump inspection).
    pub device: SharedSimulatedDevice,
    /// The established ACL link, tap already attached.
    pub link: LinkHandle,
    /// The packet tap capturing all traffic on the link.
    pub tap: SharedTap,
    /// The environment's virtual clock (starts at zero).
    pub clock: SimClock,
    /// The target's metadata.
    pub meta: DeviceMeta,
    /// The per-target seed every RNG stream of this environment derives
    /// from.
    pub seed: u64,
}

impl TargetEnv {
    /// The out-of-band oracle over this environment's device.
    pub fn oracle(&self) -> DeviceOracle {
        DeviceOracle::new(self.device.clone())
    }

    /// Drains the traffic captured so far into a trace.  The capture moves —
    /// the tap starts over, so a later call only sees traffic driven after
    /// this one.
    pub fn trace(&self) -> Trace {
        Trace::from_tap(&self.tap)
    }
}

/// The immutable description of a campaign, shared by every worker.
pub struct CampaignPlan {
    targets: Vec<DeviceProfile>,
    seeds: Vec<u64>,
    threads: usize,
    spawner: FuzzerSpawner,
    budget: TxBudget,
    oracle: OraclePolicy,
    faults: FaultPlan,
    auto_restart: bool,
    link_plan: LinkPlan,
    retry: RetryPolicy,
    watchdog_micros: Option<u64>,
}

/// `count` campaign seeds derived from `base` by SplitMix64 — the way to
/// give every target `count` independent chances with
/// [`CampaignBuilder::seeds`].
pub fn derived_seeds(base: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| btcore::splitmix64(base.wrapping_add(i)))
        .collect()
}

/// Per-target seed derivation: the campaign seed and the target's position
/// feed one SplitMix64 step, so every target gets an independent stream.
fn derive_seed(base: u64, index: u64) -> u64 {
    btcore::splitmix64(base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Per-initiator seed derivation within one target.  Initiator 0 keeps the
/// raw per-target seed so single-initiator campaigns replay the synchronous
/// medium bit for bit; later initiators get independent streams.
fn initiator_seed(target_seed: u64, k: usize) -> u64 {
    if k == 0 {
        target_seed
    } else {
        btcore::splitmix64(target_seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// A [`DeviceOracle`] whose every observation passes the medium's turnstile
/// through the owning initiator's [`EventGate`].
///
/// The oracle reads shared device state (host status, the crash-dump
/// cursor) that concurrent initiators mutate through their exchanges;
/// gating each read makes "has the device died yet?" — and who collects a
/// fresh crash dump first — a question answered in virtual-time order, so
/// multi-initiator campaigns stay bit-for-bit replayable.
struct ScheduledOracle {
    inner: DeviceOracle,
    gate: EventGate,
    dump_faults: Option<DumpFaults>,
}

/// Deterministic crash-dump read-failure stream of one initiator's oracle.
///
/// Models `adb`/`ssh` dump collection failing on a flaky connection: a
/// failed read returns `false` *without consuming the dump*, so a later
/// attempt (the next detection check) can still collect it.  The stream is
/// seeded from the initiator seed, so faulty campaigns replay bit for bit.
struct DumpFaults {
    probability: f64,
    rng: FuzzRng,
}

impl DumpFaults {
    fn from_plan(faults: &FaultPlan, initiator_seed: u64) -> Option<DumpFaults> {
        (faults.dump_read_failure > 0.0).then(|| DumpFaults {
            probability: faults.dump_read_failure,
            rng: FuzzRng::seed_from(btcore::splitmix64(initiator_seed ^ 0x0D0C_FA17)),
        })
    }
}

impl btcore::TargetOracle for ScheduledOracle {
    fn ping(&mut self) -> btcore::PingOutcome {
        let inner = &mut self.inner;
        self.gate.serialized(|| inner.ping())
    }

    fn take_crash_dump(&mut self) -> bool {
        let inner = &mut self.inner;
        let dump_faults = &mut self.dump_faults;
        // The failure decision happens inside the gated event, so the event
        // schedule is identical whether or not the read fails.
        self.gate.serialized(|| {
            if let Some(faults) = dump_faults {
                if faults.rng.chance(faults.probability) {
                    return false;
                }
            }
            inner.take_crash_dump()
        })
    }

    fn bluetooth_alive(&self) -> bool {
        let inner = &self.inner;
        self.gate.serialized(|| inner.bluetooth_alive())
    }
}

/// One initiator's wiring against a target: its link, tap, clock and seed.
struct InitiatorEnv {
    link: LinkHandle,
    tap: SharedTap,
    clock: SimClock,
    meta: DeviceMeta,
    seed: u64,
    link_type: LinkType,
}

/// A target's full environment: the shared device plus one
/// [`InitiatorEnv`] per planned link.
struct TargetSetup {
    profile: DeviceProfile,
    device: SharedSimulatedDevice,
    clock: SimClock,
    initiators: Vec<InitiatorEnv>,
    seed: u64,
}

impl CampaignPlan {
    fn build_setup(
        &self,
        index: usize,
        campaign_seed: u64,
        clock: SimClock,
    ) -> Result<TargetSetup, CampaignError> {
        let profile = self.targets[index].clone();
        let seed = derive_seed(campaign_seed, index as u64);
        let mut medium = EventMedium::with_seed(clock.clone(), seed);
        let mut device = profile.build(clock.clone(), FuzzRng::seed_from(seed));
        device.set_auto_restart(self.auto_restart);
        let (device, adapter) = share(device);
        medium.register_shared(adapter);
        let meta = {
            use hci::device::VirtualDevice;
            device.lock().meta()
        };
        let link_types = self.link_plan.link_types(&profile);
        let single = link_types.len() == 1;
        let mut initiators = Vec::with_capacity(link_types.len());
        for (k, link_type) in link_types.into_iter().enumerate() {
            let initiator_seed = initiator_seed(seed, k);
            // The link's own clock: the shared environment clock in
            // single-initiator mode (the synchronous medium's exact cost
            // accounting), an independent timeline per initiator otherwise.
            let link_clock = if single {
                clock.clone()
            } else {
                SimClock::new()
            };
            let mut spec = LinkSpec::new(
                profile.addr,
                LinkConfig::default().with_faults(self.faults),
                FuzzRng::seed_from(initiator_seed ^ 0xA5A5),
            )
            .on(link_type);
            spec = spec.with_clock(link_clock.clone());
            if let Some(micros) = self.watchdog_micros {
                spec = spec.with_watchdog(micros);
            }
            let mut link = medium
                .connect_spec(spec)
                .map_err(|source| CampaignError::Connect {
                    profile: Box::new(profile.clone()),
                    link_type,
                    source,
                })?;
            let tap = new_tap();
            link.attach_tap(tap.clone());
            initiators.push(InitiatorEnv {
                link,
                tap,
                clock: link_clock,
                meta: meta.clone().with_link_type(link_type),
                seed: initiator_seed,
                link_type,
            });
        }
        Ok(TargetSetup {
            profile,
            device,
            clock,
            initiators,
            seed,
        })
    }

    /// Builds the environment for target `index`, runs the campaign's
    /// fuzzer(s) in it and collects the outcome, deriving every stream from
    /// `campaign_seed`.  This is the unit of work of
    /// [`CampaignBuilder::run`] and of the sweep service; it touches no
    /// shared state, which is what makes sharding deterministic.
    pub fn run_target_with_seed(
        &self,
        index: usize,
        campaign_seed: u64,
    ) -> Result<TargetOutcome, CampaignError> {
        let setup = self.build_setup(index, campaign_seed, SimClock::new())?;
        let device = setup.device;
        let oracle_policy = self.oracle;
        let run_one = |env: &mut InitiatorEnv, fuzzer: &mut Box<dyn Fuzzer>| {
            // Held across the whole run: if the tool panics, the unwinding
            // thread still retires its link, so concurrent initiators (and
            // the thread scope joining them) are not deadlocked behind a
            // source that will never advance.
            let _retire_on_unwind = env.link.retire_guard();
            let mut oracle = match oracle_policy {
                OraclePolicy::OutOfBand => Some(ScheduledOracle {
                    inner: DeviceOracle::new(device.clone()),
                    gate: env.link.event_gate(),
                    dump_faults: DumpFaults::from_plan(&self.faults, env.seed),
                }),
                OraclePolicy::None => None,
            };
            let mut ctx = FuzzCtx::new(
                &mut env.link,
                env.clock.clone(),
                env.tap.clone(),
                env.meta.clone(),
                env.seed,
                self.budget,
                oracle.as_mut().map(|o| o as &mut dyn btcore::TargetOracle),
            );
            ctx.retry = self.retry;
            let report = fuzzer.fuzz(&mut ctx);
            // Initiators retire as soon as they stop driving traffic so
            // concurrent links do not wait on a finished peer.
            env.link.retire();
            report.unwrap_or_else(|| {
                skeleton_report(
                    fuzzer.name(),
                    &env.meta,
                    env.link.frames_sent(),
                    env.clock.now().as_secs(),
                )
            })
        };

        let mut initiators = setup.initiators;
        let outcomes: Vec<InitiatorOutcome> = if initiators.len() == 1 {
            let env = &mut initiators[0];
            let mut fuzzer = (self.spawner)();
            let report = run_one(env, &mut fuzzer);
            vec![InitiatorOutcome {
                link_type: env.link_type,
                seed: env.seed,
                elapsed: env.clock.now(),
                trace: Trace::from_tap(&env.tap),
                report,
            }]
        } else {
            let run_one = &run_one;
            std::thread::scope(|scope| {
                let handles: Vec<_> = initiators
                    .iter_mut()
                    .map(|env| {
                        let mut fuzzer = (self.spawner)();
                        scope.spawn(move || {
                            let report = run_one(env, &mut fuzzer);
                            InitiatorOutcome {
                                link_type: env.link_type,
                                seed: env.seed,
                                elapsed: env.clock.now(),
                                trace: Trace::from_tap(&env.tap),
                                report,
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // An initiator panic (tool bug or watchdog expiry) is
                    // re-raised on the coordinating thread with its payload
                    // intact, so callers that contain panics (the sweep
                    // service) can still classify a `WatchdogExpired`.
                    .map(|h| match h.join() {
                        Ok(outcome) => outcome,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };

        let mut outcomes = outcomes.into_iter();
        // analyzer: allow(panic) — the initiator list is validated non-empty
        // at campaign construction.
        let primary = outcomes.next().expect("at least one initiator");
        Ok(TargetOutcome {
            elapsed: setup.clock.now(),
            trace: primary.trace,
            report: primary.report,
            secondary: outcomes.collect(),
            campaign_seed,
            device,
            profile: setup.profile,
        })
    }
}

/// Skeleton report for trace-only tools (the baselines): link statistics
/// only, no structured findings.
fn skeleton_report(
    name: &str,
    meta: &DeviceMeta,
    packets_sent: u64,
    elapsed_secs: u64,
) -> FuzzReport {
    FuzzReport {
        fuzzer: name.to_owned(),
        target: meta.clone(),
        scan: ScanReport {
            meta: meta.clone(),
            probes: Vec::new(),
            chosen_port: None,
        },
        states_tested: Vec::new(),
        packets_sent,
        malformed_sent: 0,
        findings: Vec::new(),
        elapsed_secs,
    }
}

/// What one initiator of a target produced.
pub struct InitiatorOutcome {
    /// The transport this initiator fuzzed over.
    pub link_type: LinkType,
    /// The initiator's seed stream.
    pub seed: u64,
    /// The tool's report (synthesized from link statistics for trace-only
    /// baselines).
    pub report: FuzzReport,
    /// Every packet that crossed this initiator's link, in order.
    pub trace: Trace,
    /// Virtual time on this initiator's timeline.
    pub elapsed: Duration,
}

/// What one target produced.
pub struct TargetOutcome {
    /// The target's profile.
    pub profile: DeviceProfile,
    /// The first initiator's report (the only one in single-initiator
    /// campaigns; synthesized from link statistics for trace-only
    /// baselines).
    pub report: FuzzReport,
    /// Every packet that crossed the first initiator's link, in order.
    pub trace: Trace,
    /// The remaining initiators' outcomes, in link order (empty unless the
    /// campaign ran concurrent initiators).
    pub secondary: Vec<InitiatorOutcome>,
    /// The campaign seed this outcome derives from: the builder's seed, or
    /// one of its [`CampaignBuilder::seeds`].
    pub campaign_seed: u64,
    /// Virtual time the target's environment consumed (the latest fired
    /// event across all links).
    pub elapsed: Duration,
    /// The simulated device, for post-campaign inspection (crash dumps,
    /// fired vulnerabilities, host status).
    pub device: SharedSimulatedDevice,
}

impl TargetOutcome {
    /// Number of initiators that fuzzed this target.
    pub fn initiator_count(&self) -> usize {
        1 + self.secondary.len()
    }

    /// Every initiator's report, first initiator first.
    pub fn reports(&self) -> impl Iterator<Item = &FuzzReport> {
        std::iter::once(&self.report).chain(self.secondary.iter().map(|i| &i.report))
    }

    /// Returns `true` if any initiator detected a vulnerability.
    pub fn any_vulnerable(&self) -> bool {
        self.reports().any(|r| r.vulnerable())
    }

    /// All initiators' traffic merged into one trace, ordered by virtual
    /// timestamp.
    pub fn merged_trace(&self) -> Trace {
        let mut merged = self.trace.clone();
        for initiator in &self.secondary {
            merged.merge(initiator.trace.clone());
        }
        merged
    }
}

/// The result of a whole campaign, targets in the order they were added.
///
/// There is one entry per `(target, seed)` pair, target-major — with
/// several [`CampaignBuilder::seeds`], all seeds of target 0 come first,
/// then target 1, and so on; [`TargetOutcome::campaign_seed`] identifies
/// the seed.
pub struct CampaignOutcome {
    /// One outcome per `(target, seed)` pair.
    pub targets: Vec<TargetOutcome>,
    /// Campaign wall-clock: the longest per-target virtual time (targets run
    /// in parallel in the modelled world).
    pub elapsed: Duration,
}

impl CampaignOutcome {
    /// The per-target reports (first initiator of each target), in target
    /// order.
    pub fn reports(&self) -> impl Iterator<Item = &FuzzReport> {
        self.targets.iter().map(|t| &t.report)
    }

    /// Number of targets where at least one initiator found something.
    pub fn vulnerable_count(&self) -> usize {
        self.targets.iter().filter(|t| t.any_vulnerable()).count()
    }

    /// Consumes a single-target campaign's outcome.
    ///
    /// # Panics
    /// Panics if the campaign had more than one target.
    pub fn into_single(mut self) -> TargetOutcome {
        assert_eq!(self.targets.len(), 1, "campaign has multiple targets");
        // analyzer: allow(panic) — guarded by the assert directly above.
        self.targets.pop().expect("one target")
    }
}

/// Runs `units` isolated work items on up to `workers` threads and hands
/// each result to `commit` on the calling thread, strictly in unit order.
///
/// This is the one worker pool of the repository: campaigns, the sweep
/// service and the tool comparison all run on it.  Workers claim units from
/// an atomic index as they go idle — per-unit runtimes are skewed by orders
/// of magnitude (a hardened device burns its full round cap while a fragile
/// one falls instantly) — and each unit is isolated and committed by index,
/// so threading changes wall-clock time only.  With one worker or one unit
/// everything runs inline and nothing is spawned.
///
/// # Errors
/// Returns the first error in unit order, from `run` or from `commit`.  Any
/// error stops new claims at once; results of units still in flight are
/// dropped.
///
/// # Panics
/// A unit that panics stops new claims, and its payload is re-raised on the
/// calling thread with [`std::panic::resume_unwind`], so a
/// [`WatchdogExpired`](hci::fault::WatchdogExpired) stays typed.
pub fn run_sharded<T: Send, E: Send>(
    units: usize,
    workers: usize,
    run: impl Fn(usize) -> Result<T, E> + Sync,
    mut commit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<(), E> {
    let workers = workers.min(units);
    if workers <= 1 {
        for index in 0..units {
            commit(index, run(index)?)?;
        }
        return Ok(());
    }
    // Slot `i` receives unit `i`'s result, or the payload of its panic.
    // parking_lot's vendored stub has no Condvar, so the commit queue pairs a
    // std mutex with a std condvar.  Every update under the lock is a single
    // slot store or take, so a poisoned lock still guards valid slots.  The
    // atomics publish no data (results travel through the mutex), so
    // `Relaxed` suffices for them.
    let slots = Mutex::new(Vec::from_iter((0..units).map(|_| None)));
    let ready = Condvar::new();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= units {
                        break;
                    }
                    let result = panic::catch_unwind(AssertUnwindSafe(|| run(index)));
                    if !matches!(result, Ok(Ok(_))) {
                        stop.store(true, Ordering::Relaxed);
                    }
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(result);
                    ready.notify_all();
                }
            });
        }
        // Units are claimed in ascending order and a claimed unit always
        // fills its slot, so every wait below ends: the loop stops at the
        // first failed slot before it can wait on an unclaimed one.
        let committed = (0..units).try_for_each(|index| {
            let result = {
                let mut guard = slots.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    match guard[index].take() {
                        Some(result) => break result,
                        None => guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner),
                    }
                }
            };
            match result {
                Ok(outcome) => commit(index, outcome?),
                Err(payload) => panic::resume_unwind(payload),
            }
        });
        stop.store(true, Ordering::Relaxed);
        committed
    })
}

/// Marker type; use [`Campaign::builder`].
pub struct Campaign;

impl Campaign {
    /// Starts describing a campaign.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::default()
    }
}

/// Fluent description of a campaign; finish with [`CampaignBuilder::run`]
/// (or [`CampaignBuilder::env`] for hand-driven flows).
pub struct CampaignBuilder {
    clock: Option<SimClock>,
    targets: Vec<DeviceProfile>,
    spawner: Option<FuzzerSpawner>,
    budget: TxBudget,
    oracle: OraclePolicy,
    faults: FaultPlan,
    seeds: Vec<u64>,
    threads: usize,
    auto_restart: bool,
    link_plan: LinkPlan,
    retry: Option<RetryPolicy>,
    watchdog_micros: Option<u64>,
}

impl Default for CampaignBuilder {
    fn default() -> Self {
        CampaignBuilder {
            clock: None,
            targets: Vec::new(),
            spawner: None,
            budget: TxBudget::unlimited(),
            oracle: OraclePolicy::OutOfBand,
            faults: FaultPlan::none(),
            seeds: vec![FuzzConfig::default().seed],
            threads: 1,
            auto_restart: false,
            link_plan: LinkPlan::Single,
            retry: None,
            watchdog_micros: None,
        }
    }
}

impl CampaignBuilder {
    /// Observes the campaign on `clock`: after the run it is advanced by the
    /// campaign's elapsed time (the longest per-target time — targets run on
    /// isolated clocks, in parallel in the modelled world).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Adds one target device.
    pub fn target(mut self, profile: DeviceProfile) -> Self {
        self.targets.push(profile);
        self
    }

    /// Adds several target devices.
    pub fn targets(mut self, profiles: impl IntoIterator<Item = DeviceProfile>) -> Self {
        self.targets.extend(profiles);
        self
    }

    /// Sets the tool: `spawn` is called once per initiator so every link
    /// gets a fresh instance.  Defaults to a single L2Fuzz detection session
    /// with the paper's configuration.
    pub fn fuzzer(mut self, spawn: impl Fn() -> Box<dyn Fuzzer> + Send + Sync + 'static) -> Self {
        self.spawner = Some(Arc::new(spawn));
        self
    }

    /// Sets the per-initiator transmission budget (default: unlimited).
    ///
    /// The unlimited default suits the default tool (L2Fuzz detection, which
    /// stops at a finding or its round cap); budget-driven tools — the
    /// trace-only baselines and [`L2FuzzTool::comparison`] — run until the
    /// budget is spent or the target dies, so give them a finite budget or
    /// the campaign will not terminate.
    pub fn budget(mut self, budget: TxBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the out-of-band oracle policy (default:
    /// [`OraclePolicy::OutOfBand`]).
    pub fn oracle(mut self, oracle: OraclePolicy) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the campaign seed; every per-target RNG stream derives from it.
    /// Replaces a previous `seeds()` list.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds = vec![seed];
        self
    }

    /// Runs one campaign per seed for every target — a seed sweep, so a
    /// vulnerability that fires on only a few percent of matching packets
    /// gets several independent chances.  Outcomes come back target-major:
    /// all seeds of target 0, then target 1, and so on.  Replaces a previous
    /// `seed()`.
    ///
    /// # Panics
    /// Panics if `seeds` is empty — a sweep with no seeds runs nothing.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        assert!(!self.seeds.is_empty(), "seed sweep needs at least one seed");
        self
    }

    /// Spreads the `(target, seed)` units over `n` worker threads (default
    /// 1; clamped to at least 1).  Every unit runs in an isolated
    /// environment, so the outcomes are identical at any thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Turns this into a chaos campaign: injects `plan` at every link's
    /// deliver path (loss, duplication, corruption, jitter, reordering,
    /// stalls, crash-dump read failures — see [`FaultPlan`]).  Every fault
    /// decision derives from the per-event seed stream, so faulty campaigns
    /// replay bit for bit; [`FaultPlan::none`] is byte-identical to not
    /// calling this at all.
    ///
    /// Unless [`CampaignBuilder::retry`] is set explicitly, a non-trivial
    /// plan also arms [`RetryPolicy::lossy_link`] so the drivers tolerate
    /// the faults they are being dealt.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the drivers' retry tolerance (state-guide preludes, detection
    /// pings).  Defaults to [`RetryPolicy::none`] on a clean link and
    /// [`RetryPolicy::lossy_link`] once [`CampaignBuilder::faults`] injects
    /// a non-trivial plan.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arms a per-link virtual-time watchdog: a link whose virtual clock
    /// runs `budget` past connection establishment panics with a typed
    /// [`WatchdogExpired`](hci::fault::WatchdogExpired) payload on the next
    /// send.  The sweep service contains the panic and records the job as
    /// timed out; standalone campaigns propagate it.
    pub fn watchdog(mut self, budget: Duration) -> Self {
        self.watchdog_micros = Some(budget.as_micros() as u64);
        self
    }

    /// Restarts each target's Bluetooth service after a vulnerability fires
    /// (the tester's "manual reset"; the long comparison runs need it).
    pub fn auto_restart(mut self, enabled: bool) -> Self {
        self.auto_restart = enabled;
        self
    }

    /// Runs `n` concurrent initiators against every target, each with its
    /// own link, seed stream and fresh fuzzer instance (`n` is clamped to at
    /// least 1).  All initiators use the target's primary transport;
    /// combine dual-mode targets with
    /// [`CampaignBuilder::dual_transport`] instead to split transports.
    /// Overrides a previous `dual_transport()` call.
    pub fn initiators_per_target(mut self, n: usize) -> Self {
        self.link_plan = if n <= 1 {
            LinkPlan::Single
        } else {
            LinkPlan::Initiators(n)
        };
        self
    }

    /// Fuzzes every target over BR/EDR *and* LE concurrently — one
    /// initiator per transport, each served by its own device-side
    /// acceptor.  Targets must be dual-mode ([`DeviceProfile::dual_mode`])
    /// or the campaign fails to connect.  Overrides a previous
    /// `initiators_per_target()` call.
    pub fn dual_transport(mut self) -> Self {
        self.link_plan = LinkPlan::DualTransport;
        self
    }

    fn into_plan(self) -> Result<(CampaignPlan, Option<SimClock>), CampaignError> {
        if self.targets.is_empty() {
            return Err(CampaignError::NoTargets);
        }
        let spawner = self.spawner.unwrap_or_else(|| {
            Arc::new(|| {
                Box::new(L2FuzzTool::detection(FuzzConfig::default(), 1)) as Box<dyn Fuzzer>
            })
        });
        let retry = self.retry.unwrap_or(if self.faults.is_none() {
            RetryPolicy::none()
        } else {
            RetryPolicy::lossy_link()
        });
        Ok((
            CampaignPlan {
                targets: self.targets,
                seeds: self.seeds,
                threads: self.threads,
                spawner,
                budget: self.budget,
                oracle: self.oracle,
                faults: self.faults,
                auto_restart: self.auto_restart,
                link_plan: self.link_plan,
                retry,
                watchdog_micros: self.watchdog_micros,
            },
            self.clock,
        ))
    }

    /// Builds the campaign's immutable plan without running anything — the
    /// entry point for schedulers (such as the sweep service) that own job
    /// dispatch themselves and call [`CampaignPlan::run_target_with_seed`]
    /// per unit of work.  The seeds, threads and clock settings do not
    /// apply: the caller picks the units.
    ///
    /// # Errors
    /// Returns [`CampaignError::NoTargets`] for an empty target list.
    pub fn plan(self) -> Result<CampaignPlan, CampaignError> {
        let (plan, _) = self.into_plan()?;
        Ok(plan)
    }

    /// Runs the campaign and collects every target's outcome.
    ///
    /// # Errors
    /// Returns [`CampaignError::NoTargets`] for an empty target list and
    /// [`CampaignError::Connect`] when a target's link cannot be
    /// established (including dual-transport campaigns against a target
    /// that is not dual-mode).
    pub fn run(self) -> Result<CampaignOutcome, CampaignError> {
        let (plan, clock) = self.into_plan()?;
        let per_target = plan.seeds.len();
        let units = plan.targets.len() * per_target;
        let mut targets = Vec::with_capacity(units);
        run_sharded(
            units,
            plan.threads,
            |unit| plan.run_target_with_seed(unit / per_target, plan.seeds[unit % per_target]),
            |_, outcome| {
                targets.push(outcome);
                Ok(())
            },
        )?;
        let elapsed = targets.iter().map(|t| t.elapsed).max().unwrap_or_default();
        if let Some(clock) = clock {
            clock.advance(elapsed);
        }
        Ok(CampaignOutcome { targets, elapsed })
    }

    /// Builds the isolated environment of the campaign's single target
    /// without running a fuzzer — the entry point for hand-driven flows such
    /// as the BlueBorne replay.  Fuzzer, budget, oracle, threads and
    /// initiator-count settings do not apply (nothing is run, and a manual
    /// harness drives exactly one link); a clock set via
    /// [`CampaignBuilder::clock`] *does* apply and becomes the environment's
    /// clock, so an external handle observes the driven traffic's time.
    ///
    /// # Errors
    /// Same conditions as [`CampaignBuilder::run`], plus
    /// [`CampaignError::MultipleTargets`] when the builder holds more than
    /// one `(target, seed)` unit — a manual harness drives exactly one
    /// device under one seed.
    pub fn env(self) -> Result<TargetEnv, CampaignError> {
        let (mut plan, clock) = self.into_plan()?;
        let units = plan.targets.len() * plan.seeds.len();
        if units > 1 {
            return Err(CampaignError::MultipleTargets { count: units });
        }
        plan.link_plan = LinkPlan::Single;
        let mut setup = plan.build_setup(0, plan.seeds[0], clock.unwrap_or_default())?;
        let initiator = setup.initiators.remove(0);
        Ok(TargetEnv {
            profile: setup.profile,
            device: setup.device,
            link: initiator.link,
            tap: initiator.tap,
            clock: setup.clock,
            meta: initiator.meta,
            seed: setup.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::L2FuzzTool;
    use btcore::TargetOracle;
    use btstack::profiles::ProfileId;

    #[test]
    fn empty_campaign_is_rejected() {
        assert!(matches!(
            Campaign::builder().run(),
            Err(CampaignError::NoTargets)
        ));
    }

    #[test]
    fn manual_env_rejects_multiple_targets() {
        let result = Campaign::builder()
            .targets([ProfileId::D1, ProfileId::D2].map(DeviceProfile::table5))
            .env();
        match result {
            Err(CampaignError::MultipleTargets { count }) => assert_eq!(count, 2),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("multi-target env() must be rejected"),
        }
    }

    #[test]
    fn default_fuzzer_finds_the_pixel3_dos() {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D2))
            .seed(11)
            .run()
            .expect("campaign runs");
        assert_eq!(outcome.targets.len(), 1);
        assert_eq!(outcome.vulnerable_count(), 1);
        let target = outcome.into_single();
        assert!(target.report.vulnerable());
        assert_eq!(target.report.fuzzer, "L2Fuzz");
        assert!(!target.trace.is_empty());
        assert!(target.elapsed > Duration::ZERO);
        assert_eq!(target.initiator_count(), 1);
        assert_eq!(target.campaign_seed, 11);
    }

    #[test]
    fn observer_clock_advances_by_the_campaign_elapsed_time() {
        let clock = SimClock::new();
        let outcome = Campaign::builder()
            .clock(clock.clone())
            .target(DeviceProfile::table5(ProfileId::D4))
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(clock.now(), outcome.elapsed);
    }

    #[test]
    fn serial_and_sharded_executors_agree_bit_for_bit() {
        fn run(threads: usize) -> Vec<String> {
            Campaign::builder()
                .targets([ProfileId::D2, ProfileId::D4, ProfileId::D5].map(DeviceProfile::table5))
                .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 2)))
                .seed(0xC0FFEE)
                .threads(threads)
                .run()
                .unwrap()
                .reports()
                .map(|r| r.to_json().unwrap())
                .collect()
        }
        let serial = run(1);
        assert_eq!(serial, run(3));
        assert_eq!(serial, run(2));
    }

    #[test]
    fn env_builds_a_manual_harness() {
        let mut env = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D8))
            .seed(5)
            .env()
            .expect("env builds");
        assert_eq!(env.meta.addr, env.profile.addr);
        assert!(env.link.device_alive());
        // The link is live: a ping crosses the air and lands in the trace.
        let frame = l2cap::packet::signaling_frame(
            btcore::Identifier(1),
            &l2cap::command::Command::EchoRequest(l2cap::command::EchoRequest { data: vec![1] }),
        );
        let responses = env.link.send_frame(&frame);
        assert!(!responses.is_empty());
        assert!(env.trace().len() >= 2);
        assert!(env.oracle().ping().is_answered());
    }

    #[test]
    fn two_initiators_fuzz_one_target_concurrently() {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D4))
            .initiators_per_target(2)
            .seed(21)
            .run()
            .expect("multi-initiator campaign runs")
            .into_single();
        assert_eq!(outcome.initiator_count(), 2);
        assert_eq!(outcome.secondary.len(), 1);
        // Both initiators drove a full campaign over their own link.
        assert!(!outcome.trace.is_empty());
        assert!(!outcome.secondary[0].trace.is_empty());
        assert_eq!(outcome.report.states_tested.len(), 13);
        assert_eq!(outcome.secondary[0].report.states_tested.len(), 13);
        // Independent seed streams → different packet bytes on each link.
        let frames = |t: &Trace| -> Vec<Vec<u8>> {
            t.records().iter().map(|r| r.frame.to_bytes()).collect()
        };
        assert_ne!(
            frames(&outcome.trace),
            frames(&outcome.secondary[0].trace),
            "initiators replayed identical traffic"
        );
        // The merged trace holds both initiators' traffic in time order.
        let merged = outcome.merged_trace();
        assert_eq!(
            merged.len(),
            outcome.trace.len() + outcome.secondary[0].trace.len()
        );
    }

    #[test]
    fn dual_transport_needs_a_dual_mode_target() {
        // D4 (iPhone) and D2 (Pixel 3) are BR/EDR-only profiles: neither can
        // serve an LE link.  Both targets fail, and on any thread count the
        // campaign returns the first one's error in target order.
        for threads in [1, 2] {
            let result = Campaign::builder()
                .targets([ProfileId::D4, ProfileId::D2].map(DeviceProfile::table5))
                .dual_transport()
                .seed(9)
                .threads(threads)
                .run();
            match result {
                Err(CampaignError::Connect {
                    profile, link_type, ..
                }) => {
                    assert_eq!((profile.id, link_type), (ProfileId::D4, LinkType::Le));
                }
                Err(other) => panic!("unexpected error {other}"),
                Ok(_) => panic!("dual transport against a single-mode target must fail"),
            }
        }
    }

    #[test]
    fn chaos_campaign_replays_bit_for_bit() {
        let run = || {
            Campaign::builder()
                .target(DeviceProfile::table5(ProfileId::D2))
                .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
                .faults(FaultPlan::degraded(0.1, 0.05))
                .seed(0xBAD1)
                .run()
                .expect("chaos campaign runs")
                .into_single()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.report.to_json().unwrap(),
            b.report.to_json().unwrap(),
            "same seed + same fault plan must replay bit for bit"
        );
        let bytes = |t: &Trace| -> Vec<Vec<u8>> {
            t.records().iter().map(|r| r.frame.to_bytes()).collect()
        };
        assert_eq!(bytes(&a.trace), bytes(&b.trace));
    }

    #[test]
    fn dump_read_failures_degrade_evidence_not_verdicts() {
        // With every dump read failing, a crash still gets detected (the
        // ping path is what classifies DoS/crash) — only the crash-dump
        // evidence bit degrades.
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D2))
            .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 3)))
            .faults(FaultPlan::none().with_dump_read_failure(1.0))
            .seed(11)
            .run()
            .expect("campaign runs")
            .into_single();
        assert!(outcome.report.vulnerable());
        assert!(
            outcome
                .report
                .findings
                .iter()
                .all(|f| !f.evidence.crash_dump),
            "a failing dump reader must never produce crash-dump evidence"
        );
    }

    #[test]
    fn watchdog_expiry_carries_a_typed_payload_through_the_campaign() {
        // A worker thread re-raises the panic with its payload intact, just
        // as the inline path does.
        for threads in [1, 2] {
            let result = std::panic::catch_unwind(|| {
                Campaign::builder()
                    .targets([ProfileId::D2, ProfileId::D4].map(DeviceProfile::table5))
                    .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 50)))
                    .watchdog(Duration::from_micros(20_000))
                    .seed(11)
                    .threads(threads)
                    .run()
            });
            let payload = match result {
                Err(payload) => payload,
                Ok(_) => panic!("watchdog must fire well before 50 rounds finish"),
            };
            let expired = payload
                .downcast_ref::<hci::fault::WatchdogExpired>()
                .unwrap_or_else(|| panic!("{threads} thread(s): payload is not WatchdogExpired"));
            assert!(expired.now_micros > expired.deadline_micros);
        }
    }

    #[test]
    fn seed_sweep_runs_one_campaign_per_seed() {
        let outcome = Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D5))
            .fuzzer(|| Box::new(L2FuzzTool::detection(FuzzConfig::default(), 1)))
            .seeds([1, 2, 3])
            .run()
            .expect("sweep runs");
        assert_eq!(outcome.targets.len(), 3);
        assert_eq!(
            outcome
                .targets
                .iter()
                .map(|t| t.campaign_seed)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }
}
