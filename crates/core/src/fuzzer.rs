//! The common fuzzer interface shared by L2Fuzz and the baseline tools.
//!
//! Every tool runs inside a [`FuzzCtx`]: an established ACL link (with a
//! packet tap already attached by the campaign harness), a transmission
//! budget, the shared virtual clock, the target's metadata, a per-target
//! seed stream and — when the campaign enables it — an out-of-band oracle.
//! The captured trace, not the fuzzer itself, is what the comparison metrics
//! are computed from, mirroring the paper's sniffing-based methodology.

use btcore::{DeviceMeta, FuzzRng, SimClock, TargetOracle};
use hci::link::SharedTap;
use hci::medium::LinkHandle;

use crate::report::FuzzReport;
use crate::retry::RetryPolicy;

/// Per-target transmission budget of a campaign.
///
/// The budget counts frames leaving the fuzzer over the target's link —
/// normal transition packets, malformed test packets and detection pings
/// alike — matching how the paper's comparison experiments meter the tools.
/// Tools check the meter between test cycles, so the final cycle may
/// overshoot by the frames already in flight (e.g. L2Fuzz's port scan at the
/// start of a session); the budget is a cycle-granular cap, not an exact
/// frame count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxBudget(Option<u64>);

impl TxBudget {
    /// No limit: the tool decides when it is done.
    ///
    /// Only pair this with tools that terminate on their own (L2Fuzz
    /// detection mode stops at a finding or its round cap).  The trace-only
    /// baselines loop until [`FuzzCtx::budget_exhausted`] or the target
    /// dies, so an unlimited budget against a hardened or auto-restarting
    /// target never returns — give them [`TxBudget::packets`].
    pub const fn unlimited() -> Self {
        TxBudget(None)
    }

    /// At most `n` transmitted packets per target.
    pub const fn packets(n: u64) -> Self {
        TxBudget(Some(n))
    }

    /// The packet limit, or `None` when unlimited.
    pub const fn limit(&self) -> Option<u64> {
        self.0
    }
}

/// Everything a fuzzer needs to run one campaign against one target.
pub struct FuzzCtx<'a> {
    /// The established ACL link to the target.
    pub link: &'a mut LinkHandle,
    /// The shared virtual clock of this target's environment.
    pub clock: SimClock,
    /// The packet tap the harness attached to the link.
    pub tap: SharedTap,
    /// The target's inquiry metadata.
    pub meta: DeviceMeta,
    /// Per-target seed; every random decision of the tool must derive from
    /// it so campaigns are reproducible at any executor parallelism.
    pub seed: u64,
    /// Transmission budget for this target.
    pub budget: TxBudget,
    /// Out-of-band view of the target (crash dumps, service status), when
    /// the campaign runs with an oracle.
    pub oracle: Option<&'a mut dyn TargetOracle>,
    /// Retry tolerance for the fault-aware drivers (state-guide preludes,
    /// detection pings).  Defaults to [`RetryPolicy::none`]; chaos campaigns
    /// set it so a lossy link is not mistaken for a dead target.
    pub retry: RetryPolicy,
    start_frames: u64,
}

impl<'a> FuzzCtx<'a> {
    /// Wires up a context over an established link.
    pub fn new(
        link: &'a mut LinkHandle,
        clock: SimClock,
        tap: SharedTap,
        meta: DeviceMeta,
        seed: u64,
        budget: TxBudget,
        oracle: Option<&'a mut dyn TargetOracle>,
    ) -> Self {
        let start_frames = link.frames_sent();
        FuzzCtx {
            link,
            clock,
            tap,
            meta,
            seed,
            budget,
            oracle,
            retry: RetryPolicy::none(),
            start_frames,
        }
    }

    /// Frames transmitted since this context was created.
    pub fn frames_spent(&self) -> u64 {
        self.link.frames_sent().saturating_sub(self.start_frames)
    }

    /// Remaining packet budget, or `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.budget
            .limit()
            .map(|limit| limit.saturating_sub(self.frames_spent()))
    }

    /// Returns `true` once the packet budget is spent (never for an
    /// unlimited budget).
    pub fn budget_exhausted(&self) -> bool {
        matches!(self.remaining(), Some(0))
    }

    /// Derives a deterministic RNG stream for this target; distinct `label`s
    /// yield independent streams from the same per-target seed.
    ///
    /// The seed is mixed through [`btcore::splitmix64`] so no label collides
    /// with the raw per-target seed (which drives the simulated device's own
    /// RNG) or the link's fault stream.
    pub fn rng(&self, label: u64) -> FuzzRng {
        FuzzRng::seed_from(self.stream_seed(label))
    }

    /// The derived seed behind [`FuzzCtx::rng`], for tools that need a raw
    /// `u64` (e.g. to offset it per round) rather than a generator.
    pub fn stream_seed(&self, label: u64) -> u64 {
        btcore::splitmix64(self.seed ^ label.rotate_left(23))
    }

    /// The transport type of this target's link, straight from the inquiry
    /// metadata (the field every session/scheduler decision keys on).
    pub fn link_type(&self) -> btcore::LinkType {
        self.meta.link_type
    }

    /// Reborrows the link and the oracle together for one session pass.
    ///
    /// The two live in disjoint fields, so a tool can hold both mutably at
    /// once — the shape [`crate::session::L2FuzzSession::run`] needs.
    pub fn link_and_oracle(&mut self) -> (&mut LinkHandle, Option<&mut dyn TargetOracle>) {
        let oracle = match self.oracle {
            Some(ref mut o) => {
                // Coerce on the bare reference so the trait-object lifetime
                // shortens before the `Option` is rebuilt.
                let o: &mut dyn TargetOracle = &mut **o;
                Some(o)
            }
            None => None,
        };
        (&mut *self.link, oracle)
    }
}

/// A black-box Bluetooth L2CAP fuzzer.
///
/// The campaign runner (see [`crate::campaign`]) gives every tool the same
/// deal: a [`FuzzCtx`] with an established link and a budget, and lets it do
/// whatever its strategy dictates.  Tools that produce structured findings
/// (L2Fuzz) return a [`FuzzReport`]; trace-only baselines return `None` and
/// the campaign synthesizes a skeleton report from the link statistics.
///
/// Tools are `Send` because the campaign harness runs concurrent initiators
/// on worker threads, each driving its own fresh tool instance.
pub trait Fuzzer: Send {
    /// Human-readable tool name ("L2Fuzz", "Defensics", ...).
    fn name(&self) -> &'static str;

    /// Runs one campaign over the context's link, respecting
    /// [`FuzzCtx::budget_exhausted`].
    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport>;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullFuzzer;
    impl Fuzzer for NullFuzzer {
        fn name(&self) -> &'static str {
            "null"
        }
        fn fuzz(&mut self, _ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
            None
        }
    }

    #[test]
    fn fuzzer_trait_is_object_safe() {
        let mut boxed: Box<dyn Fuzzer> = Box::new(NullFuzzer);
        assert_eq!(boxed.name(), "null");
        let _ = &mut boxed;
    }

    #[test]
    fn budget_accounting() {
        assert_eq!(TxBudget::unlimited().limit(), None);
        assert_eq!(TxBudget::packets(250).limit(), Some(250));
        assert_eq!(TxBudget::default(), TxBudget::unlimited());
    }

    #[test]
    fn rng_streams_are_deterministic_and_label_dependent() {
        use btcore::{FuzzRng, SimClock};
        use btstack::device::share;
        use btstack::profiles::{DeviceProfile, ProfileId};
        use hci::link::{new_tap, LinkConfig};
        use hci::medium::EventMedium;

        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(ProfileId::D2);
        let (device, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(1)));
        air.register_shared(adapter);
        let meta = {
            use hci::device::VirtualDevice;
            device.lock().meta()
        };
        let mut link = air
            .connect(profile.addr, LinkConfig::ideal(), FuzzRng::seed_from(2))
            .unwrap();
        let ctx = FuzzCtx::new(
            &mut link,
            clock,
            new_tap(),
            meta,
            77,
            TxBudget::packets(5),
            None,
        );
        let mut a = ctx.rng(1);
        let mut b = ctx.rng(1);
        assert_eq!(a.next_u32(), b.next_u32());
        // Distinct labels yield distinct streams (compare fresh draws)...
        let head = |label: u64| -> Vec<u32> {
            let mut rng = ctx.rng(label);
            (0..8).map(|_| rng.next_u32()).collect()
        };
        assert_ne!(head(1), head(2), "labels 1 and 2 must not share a stream");
        // ...and no label replays the raw per-target seed (the device's own
        // stream).
        assert_ne!(ctx.stream_seed(0), ctx.seed);
        assert_eq!(ctx.remaining(), Some(5));
        assert!(!ctx.budget_exhausted());
    }
}
