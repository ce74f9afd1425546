//! L2Fuzz: a stateful fuzzer for the Bluetooth L2CAP layer.
//!
//! This crate is the paper's primary contribution, reproduced against the
//! simulated substrate of the `hci`/`btstack` crates.  The workflow follows
//! Fig. 5 of the paper:
//!
//! 1. **Target scanning** ([`scanner`]) — discover the device, enumerate its
//!    service ports and pick one that does not require pairing (falling back
//!    to SDP).
//! 2. **State guiding** ([`guide`]) — drive the target's channel state
//!    machine into each reachable state using only commands that are valid
//!    for the state's job (Tables I and III).
//! 3. **Core field mutating** ([`mutator`]) — generate malformed packets that
//!    mutate only the mutable-core fields (PSM from the abnormal ranges of
//!    Table IV, CIDP from the dynamic range ignoring allocation) and append a
//!    bounded garbage tail, keeping every other field valid (Algorithm 1).
//! 4. **Vulnerability detecting** ([`detector`]) — watch the target's
//!    responses for connection errors, ping it with L2CAP echo requests and
//!    collect crash dumps through the out-of-band oracle.
//!
//! [`session::L2FuzzSession`] ties the four phases together and produces a
//! [`report::FuzzReport`]; the [`campaign`] module is the single entry point
//! that wires sessions (and the baseline tools, via the [`fuzzer::Fuzzer`]
//! trait) to simulated targets.
//!
//! # Quickstart
//!
//! ```
//! use btstack::profiles::{DeviceProfile, ProfileId};
//! use l2fuzz::campaign::Campaign;
//!
//! // Fuzz the simulated Pixel 3 (device D2 of Table V) with L2Fuzz.  The
//! // builder wires the virtual air, the device, the link, the packet tap
//! // and the out-of-band oracle; the default tool is one L2Fuzz detection
//! // session with the paper's configuration.
//! let outcome = Campaign::builder()
//!     .target(DeviceProfile::table5(ProfileId::D2))
//!     .seed(11)
//!     .run()
//!     .expect("campaign runs");
//!
//! // Inspect the per-target outcome: report, trace, elapsed time, device.
//! let target = outcome.into_single();
//! assert!(target.report.vulnerable());
//! assert!(target.report.packets_sent > 0);
//! assert!(!target.report.states_tested.is_empty());
//! assert!(!target.trace.is_empty());
//! ```
//!
//! Multi-device experiments add more [`campaign::CampaignBuilder::target`]s
//! and, to spread them across worker threads, a
//! [`campaign::ShardedExecutor`] — per-target results are bit-for-bit
//! identical at any thread count because every target runs in an isolated
//! environment seeded from the campaign seed.  Within one target,
//! [`campaign::CampaignBuilder::initiators_per_target`] runs several
//! concurrent initiators over the event-driven medium (and
//! [`campaign::CampaignBuilder::dual_transport`] splits them across BR/EDR
//! and LE on a dual-mode device); [`campaign::SeedSweepExecutor`] runs one
//! campaign per sweep seed per target.  All of it replays bit-for-bit from
//! the campaign seed.
//!
//! # Migrating from `L2FuzzSession::run`
//!
//! Code written before the campaign API built a medium, registered a
//! device, connected a link, attached a tap and called
//! [`session::L2FuzzSession::run`] by hand.  That wiring now lives behind
//! [`campaign::Campaign::builder`]:
//!
//! * `EventMedium::new` + `register` + `connect` +
//!   `new_tap` → `.target(profile)` (the builder creates an isolated
//!   clock, medium, link and tap per target).
//! * `L2FuzzSession::new(config, clock).run(&mut link, meta, Some(&mut
//!   oracle))` → `.fuzzer(|| Box::new(L2FuzzTool::detection(config, rounds)))`
//!   plus `.oracle(OraclePolicy::OutOfBand)` (the default); the report comes
//!   back in [`campaign::TargetOutcome::report`].
//! * A raw packet budget (`Fuzzer::fuzz(&mut link, max_packets)`) →
//!   `.budget(TxBudget::packets(n))`; the budget now reaches every tool
//!   through [`fuzzer::FuzzCtx`].
//! * Hand-driven flows that need the bare link keep working: swap the manual
//!   wiring for [`campaign::CampaignBuilder::env`], which returns the
//!   isolated [`campaign::TargetEnv`] (device, link, tap, clock).
//!
//! [`session::L2FuzzSession`] itself is unchanged and remains the four-phase
//! engine; only the harness around it moved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod detector;
pub mod fuzzer;
pub mod guide;
pub mod mutator;
pub mod queue;
pub mod report;
pub mod retry;
pub mod scanner;
pub mod session;

pub use campaign::{
    run_sharded, Campaign, CampaignError, CampaignExecutor, CampaignOutcome, OraclePolicy,
    SeedSweepExecutor, SerialExecutor, ShardedExecutor, TargetEnv, TargetOutcome,
};
pub use config::FuzzConfig;
pub use fuzzer::{FuzzCtx, Fuzzer, TxBudget};
pub use hci::fault::{FaultPlan, WatchdogExpired};
pub use report::{FuzzReport, VulnerabilityFinding};
pub use retry::RetryPolicy;
pub use session::{L2FuzzSession, L2FuzzTool};
