//! The coverage-guided fuzzer: a [`Strategy`] of the one session loop.
//!
//! [`FeedbackFuzzer`] runs the paper's four phases (scan → guide → mutate →
//! detect) in [`L2FuzzSession`](l2fuzz::session::L2FuzzSession)'s loop and
//! changes only the two policies the loop leaves to its strategy: each
//! round walks an [`EnergySchedule`] instead of a fixed per-state packet
//! count, and each test packet is either a fresh dictionary mutation or one
//! of the splice / havoc / resend-with-field-mutation operators applied to a
//! retained [`CorpusEntry`] of the current state.  Every random decision
//! derives from the campaign's per-target seed stream (domain label
//! `0xFEED`), so feedback campaigns replay bit-for-bit at any thread count.

use std::collections::BTreeMap;

use btcore::{FuzzRng, LinkType};
use hci::link::Direction;
use l2cap::packet::SignalingPacket;
use l2cap::state::ChannelState;
use l2fuzz::config::FuzzConfig;
use l2fuzz::fuzzer::{FuzzCtx, Fuzzer};
use l2fuzz::queue::SendOutcome;
use l2fuzz::report::FuzzReport;
use l2fuzz::session::{L2FuzzTool, Parked, Strategy};
use sniffer::classify::is_rejection_signaling;
use sniffer::coverage::CoverageBuilder;

use crate::corpus::{CorpusEntry, FeedbackCorpus, NoveltyKey, ResponseClass};
use crate::hub::CorpusHub;
use crate::schedule::EnergySchedule;

/// Configuration of a feedback campaign.
#[derive(Clone)]
pub struct FeedbackConfig {
    /// The underlying session configuration (mutation switches, budgets,
    /// seed).  `max_packets` caps each unit exactly as in dictionary mode;
    /// configuration-option mutation is always on (see
    /// [`FeedbackFuzzer::new`]).
    pub base: FuzzConfig,
    /// Rounds to run per unit before giving up on a hardened target.
    pub max_rounds: usize,
    /// Malformed-packet pool the energy scheduler divides per round.
    pub round_budget: u64,
    /// Probability that a test packet replays a corpus entry (when the
    /// current state has any) instead of drawing from the dictionary.
    pub corpus_ratio: f64,
    /// Entries every unit starts from (e.g. a previous sweep's merged
    /// corpus).
    pub seed_corpus: FeedbackCorpus,
    /// When attached, each unit publishes its finished corpus here under its
    /// per-target seed (see [`CorpusHub`] for the determinism contract).
    pub hub: Option<CorpusHub>,
}

impl Default for FeedbackConfig {
    /// Defaults tuned on the seeded extended-profile targets: short rounds
    /// re-plan the schedule often enough for visit feedback to bite, eight
    /// rounds give hardened targets a fair total budget, and a 30% replay
    /// ratio keeps the dictionary exploring while the corpus exploits.
    fn default() -> Self {
        FeedbackConfig {
            base: FuzzConfig::default(),
            max_rounds: 8,
            round_budget: 300,
            corpus_ratio: 0.3,
            seed_corpus: FeedbackCorpus::new(),
            hub: None,
        }
    }
}

impl FeedbackConfig {
    /// Replaces the underlying session configuration.
    pub fn with_base(mut self, base: FuzzConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the per-unit round cap.
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Sets the per-round energy pool.
    pub fn with_round_budget(mut self, packets: u64) -> Self {
        self.round_budget = packets.max(1);
        self
    }

    /// Attaches a cross-seed corpus hub.
    pub fn with_hub(mut self, hub: CorpusHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Seeds every unit's corpus (second-generation runs replaying a merged
    /// sweep corpus).
    pub fn with_seed_corpus(mut self, corpus: FeedbackCorpus) -> Self {
        self.seed_corpus = corpus;
        self
    }
}

/// The coverage-guided [`Fuzzer`].  Construct via [`FeedbackFuzzer::new`] or
/// select on a campaign with
/// [`crate::FeedbackCampaignExt::feedback`].
pub struct FeedbackFuzzer {
    tool: L2FuzzTool<Feedback>,
    hub: Option<CorpusHub>,
}

impl FeedbackFuzzer {
    /// Creates a fuzzer starting from the configuration's seed corpus.
    ///
    /// Feedback rounds always mutate configuration options: the
    /// retransmission-mode surface lives behind the deep CONFIG/OPEN parks
    /// the scheduler favours, exactly where corpus replay pays off (the
    /// mutator ignores the switch on LE links).
    pub fn new(config: FeedbackConfig) -> FeedbackFuzzer {
        let strategy = Feedback {
            round_budget: config.round_budget,
            corpus_ratio: config.corpus_ratio,
            corpus: config.seed_corpus,
            visits: BTreeMap::new(),
            pick: FuzzRng::seed_from(0),
            coverage: CoverageBuilder::default(),
        };
        FeedbackFuzzer {
            tool: L2FuzzTool::with_strategy(
                config.base.with_config_option_mutation(),
                config.max_rounds,
                strategy,
            ),
            hub: config.hub,
        }
    }
}

impl Fuzzer for FeedbackFuzzer {
    fn name(&self) -> &'static str {
        self.tool.name()
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let report = self.tool.fuzz(ctx);
        if let Some(hub) = &self.hub {
            hub.publish(ctx.seed, &self.tool.strategy().corpus);
        }
        report
    }
}

/// The feedback engine's policies: an energy-scheduled walk, corpus replay
/// and novelty-keyed retention.
struct Feedback {
    round_budget: u64,
    corpus_ratio: f64,
    /// The seed corpus plus everything retained so far.
    corpus: FeedbackCorpus,
    /// Attempts to park in each state, over every round so far.
    visits: BTreeMap<ChannelState, u64>,
    /// The round's replay generator and running coverage, replaced at the
    /// start of every round.
    pick: FuzzRng,
    coverage: CoverageBuilder,
}

impl Strategy for Feedback {
    const NAME: &'static str = "L2Fuzz+feedback";
    /// Disjoint from the dictionary engine's `0x4C32` stream, so a feedback
    /// campaign and a dictionary campaign under the same campaign seed draw
    /// independent bytes.
    const DOMAIN: u64 = 0xFEED;

    fn walk(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        rng: &mut FuzzRng,
    ) -> Vec<(ChannelState, u64)> {
        self.pick = rng.fork(2);
        self.coverage = CoverageBuilder::for_link(link);
        let budget = if config.max_packets > 0 {
            self.round_budget.min(config.max_packets as u64)
        } else {
            self.round_budget
        };
        EnergySchedule::plan(link, &self.visits, budget)
            .allocations()
            .iter()
            .map(|a| (a.state, a.packets))
            .collect()
    }

    fn attempt(&mut self, state: ChannelState) {
        // Count the attempt (not the success): a state whose prelude keeps
        // failing must not hoard energy forever.
        *self.visits.entry(state).or_insert(0) += 1;
    }

    /// A corpus replay (resend / havoc / splice) with probability
    /// `corpus_ratio` when the state has retained entries, a dictionary
    /// mutation otherwise; each packet takes its own guide identifier.
    fn packet(&mut self, at: &mut Parked<'_>, _index: u64) -> SignalingPacket {
        let identifier = at.guide.next_identifier();
        let rng = &mut self.pick;
        let here: Vec<&CorpusEntry> = self.corpus.entries_for(at.state, at.link).collect();
        if !here.is_empty() && rng.chance(self.corpus_ratio) {
            let base = *rng.pick(&here);
            match rng.range_usize(0, 2) {
                0 => at
                    .mutator
                    .resend_with_field_mutation(&base.wire, &at.channel, identifier),
                1 => at.mutator.havoc(&base.wire, identifier),
                _ => {
                    // Splice against any retained packet of this link, not
                    // just this state — crossing parks is where splice earns
                    // its keep.
                    let partners: Vec<&CorpusEntry> = self
                        .corpus
                        .entries()
                        .iter()
                        .filter(|e| e.link == at.link)
                        .collect();
                    let partner = *rng.pick(&partners);
                    at.mutator.splice(&base.wire, &partner.wire, identifier)
                }
            }
        } else {
            let code = *rng.pick(at.commands);
            at.mutator.mutate(code, &at.channel, identifier)
        }
    }

    fn learn(&mut self, at: &Parked<'_>, packet: &SignalingPacket, outcome: &SendOutcome<'_>) {
        self.coverage.saw_tx_signaling();
        self.coverage.observe(Direction::Tx, packet.view());
        // Each answer is read once, in place, for coverage and for its class.
        let mut refused = false;
        for reply in outcome.signaling() {
            self.coverage.observe(Direction::Rx, reply);
            refused |= is_rejection_signaling(reply);
        }
        let key = NoveltyKey {
            signature: self.coverage.signature_snapshot(),
            class: ResponseClass::of(outcome, refused),
        };
        if !self.corpus.contains(key) {
            self.corpus.consider(CorpusEntry {
                state: at.state,
                link: at.link,
                wire: packet.to_bytes(),
                key,
            });
        }
    }
}
