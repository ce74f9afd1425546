//! Coverage-guided stateful mutation: the feedback loop the paper left open.
//!
//! L2Fuzz mutates from a fixed field dictionary and never looks back at what
//! a mutated packet achieved.  The sniffer already computes per-trace state
//! coverage ([`sniffer::StateCoverage`]), and the protocol model gives a
//! minimal witness prelude per reachable state
//! ([`analysis::fuzz_plans`]) — this crate closes the loop between them:
//!
//! * [`FeedbackCorpus`] retains every mutated packet whose observed outcome
//!   reached a *new* `(state-coverage signature, response class)` pair, in
//!   wire form together with the state it was sent from, so it can seed
//!   later mutations.
//! * [`EnergySchedule`] divides each round's transmission budget across the
//!   reachable states, weighting by under-visitation and by witness/prelude
//!   depth, so deep states get proportionally more energy.
//! * [`FeedbackFuzzer`] is a drop-in [`l2fuzz::Fuzzer`] that splices corpus
//!   entries with dictionary mutation (splice / havoc /
//!   resend-with-field-mutation), selectable on any campaign via
//!   [`FeedbackCampaignExt::feedback`].  It is not a second engine: it runs
//!   [`l2fuzz::L2FuzzTool`] with a feedback [`l2fuzz::session::Strategy`],
//!   so scanning, guiding, detection and the round driver are the
//!   dictionary engine's own.
//! * [`CorpusHub`] pools novelty across the units of a seed sweep
//!   ([`l2fuzz::campaign::CampaignBuilder::seeds`]) without breaking
//!   per-seed isolation: units publish as they finish and the hub merges in
//!   canonical seed order afterwards, so sweeps replay bit-for-bit at any
//!   thread count.
//!
//! # Determinism
//!
//! Every random decision — dictionary draws, corpus-operator selection,
//! splice cut points — derives from the campaign's per-target seed stream
//! (domain-separated under the `0xFEED` label), and cross-seed sharing is
//! publish-only during a run.  A feedback campaign therefore replays
//! bit-for-bit at any thread count, like every other campaign in this
//! repository; `tests/feedback_fuzzing.rs` enforces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fuzzer;
pub mod hub;
pub mod schedule;

pub use corpus::{CorpusEntry, FeedbackCorpus, NoveltyKey, ResponseClass};
pub use fuzzer::{FeedbackConfig, FeedbackFuzzer};
pub use hub::CorpusHub;
pub use schedule::{EnergyAllocation, EnergySchedule};

use l2fuzz::campaign::CampaignBuilder;
use l2fuzz::Fuzzer;

/// Extension trait adding the feedback mode to the campaign builder.
///
/// Lives here rather than on [`CampaignBuilder`] itself because the core
/// crate cannot depend on this one; `use feedback::FeedbackCampaignExt;`
/// makes `Campaign::builder().feedback(config)` available.
pub trait FeedbackCampaignExt {
    /// Runs the campaign with the coverage-guided [`FeedbackFuzzer`]: every
    /// initiator gets a fresh fuzzer instance seeded from `config` (and from
    /// `config`'s seed corpus, when one is attached).
    fn feedback(self, config: FeedbackConfig) -> CampaignBuilder;
}

impl FeedbackCampaignExt for CampaignBuilder {
    fn feedback(self, config: FeedbackConfig) -> CampaignBuilder {
        self.fuzzer(move || Box::new(FeedbackFuzzer::new(config.clone())) as Box<dyn Fuzzer>)
    }
}
