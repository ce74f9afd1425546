//! The L2Fuzz session: orchestration of the four phases (Fig. 5).
//!
//! [`L2FuzzSession::run`] is the one four-phase loop (scan, guide, mutate,
//! detect) and [`L2FuzzTool`] the one round driver.  What a fuzzing engine
//! changes is a [`Strategy`]: which states a round walks and with how many
//! test packets each, and where each test packet comes from.
//! [`Dictionary`] is the paper's engine; the `feedback` crate's
//! coverage-guided engine is the other.

use btcore::{DeviceMeta, FuzzRng, Identifier, LinkType, SimClock, TargetOracle};
use hci::medium::LinkHandle;
use l2cap::code::CommandCode;
use l2cap::jobs::job_of;
use l2cap::packet::{parse_signaling, L2capFrame};
use l2cap::state::ChannelState;

use crate::config::FuzzConfig;
use crate::detector::{DetectionVerdict, VulnerabilityDetector};
use crate::fuzzer::Fuzzer;
use crate::guide::{ChannelContext, StateGuide};
use crate::mutator::CoreFieldMutator;
use crate::queue::{send, SendOutcome};
use crate::report::{FuzzReport, VulnerabilityFinding};
use crate::scanner::TargetScanner;

/// The state a round has parked the target in, as a [`Strategy`]'s hooks
/// see it.
pub struct Parked<'a> {
    /// The state the guide parked the target in.
    pub state: ChannelState,
    /// The transport of the link.
    pub link: LinkType,
    /// The channel the test packets address.
    pub channel: ChannelContext,
    /// The commands valid for the state's job (every command without state
    /// guiding).
    pub commands: &'a [CommandCode],
    /// The state guide, the source of signalling identifiers.
    pub guide: &'a mut StateGuide,
    /// The round's core-field mutator (Algorithm 1).
    pub mutator: &'a mut CoreFieldMutator,
}

/// What a fuzzing engine decides inside the one four-phase loop.
///
/// The loop owns everything else: scanning, guiding, transmission,
/// detection, the packet cap, findings and the report.  A strategy lives
/// across the rounds of one [`L2FuzzTool`], so it can carry what it learned
/// from one round into the next.
pub trait Strategy: Send {
    /// Tool and report name.
    const NAME: &'static str;
    /// Domain label of the round-seed stream, so two engines under the same
    /// campaign seed draw independent bytes.
    const DOMAIN: u64;

    /// Plans one round over a `link` target: the states to park in, in walk
    /// order, with the number of test packets each gets.  `rng` is the
    /// round's generator, after the mutator's fork.
    fn walk(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        rng: &mut FuzzRng,
    ) -> Vec<(ChannelState, u64)>;

    /// Called before the loop tries to park the target in `state`.
    fn attempt(&mut self, _state: ChannelState) {}

    /// Called once the target is parked, before the state's first test
    /// packet.
    fn enter(&mut self, _at: &mut Parked<'_>) {}

    /// The `index`-th test packet of the parked state, as the signalling
    /// frame it is sent in.  The loop asks for the indices in order, from 0,
    /// once each.
    fn packet(&mut self, at: &mut Parked<'_>, index: u64) -> L2capFrame;

    /// Called with each test packet's exchange, before the detector runs.
    fn learn(&mut self, _at: &Parked<'_>, _packet: &L2capFrame, _outcome: &SendOutcome<'_>) {}
}

/// The paper's engine: every initiator-reachable state in canonical order,
/// `packets_per_command` Algorithm 1 mutations per valid command, numbered
/// up from one guide identifier per state.
///
/// Each test packet is mutated when the loop asks for it, in the order
/// [`CoreFieldMutator::generate`] draws a state's whole dictionary, so the
/// packet stream is the same and no packet is built that the packet cap or
/// a finding leaves unsent.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    per_command: usize,
    /// The identifier of the parked state's next test packet.
    identifier: Identifier,
}

impl Strategy for Dictionary {
    const NAME: &'static str = "L2Fuzz";
    /// `0x4C32` = "L2".
    const DOMAIN: u64 = 0x4C32;

    fn walk(
        &mut self,
        config: &FuzzConfig,
        link: LinkType,
        _rng: &mut FuzzRng,
    ) -> Vec<(ChannelState, u64)> {
        self.per_command = config.packets_per_command;
        let states = if config.state_guiding {
            ChannelState::initiator_walk(link)
        } else {
            &[ChannelState::Closed]
        };
        states
            .iter()
            .map(|&state| {
                let commands = commands_for(config, state, link).len();
                (state, (commands * self.per_command) as u64)
            })
            .collect()
    }

    fn enter(&mut self, at: &mut Parked<'_>) {
        self.identifier = at.guide.next_identifier();
    }

    fn packet(&mut self, at: &mut Parked<'_>, index: u64) -> L2capFrame {
        let code = at.commands[index as usize / self.per_command];
        let packet = at.mutator.mutate(code, &at.channel, self.identifier);
        self.identifier = self.identifier.next();
        packet
    }
}

/// The commands a state's test packets are drawn from: its job's generous
/// valid commands (§III-C), or, without state guiding, every command (the
/// dumb strategy of the ablation).
fn commands_for(config: &FuzzConfig, state: ChannelState, link: LinkType) -> Vec<CommandCode> {
    if config.state_guiding {
        job_of(state).generous_valid_commands_on(link)
    } else {
        CommandCode::ALL.to_vec()
    }
}

/// One round of L2Fuzz against one target device.
pub struct L2FuzzSession {
    config: FuzzConfig,
    clock: SimClock,
    retry: crate::retry::RetryPolicy,
}

impl L2FuzzSession {
    /// Creates a session with the given configuration; `clock` is the shared
    /// virtual clock used for elapsed-time reporting.
    pub fn new(config: FuzzConfig, clock: SimClock) -> Self {
        L2FuzzSession {
            config,
            clock,
            retry: crate::retry::RetryPolicy::none(),
        }
    }

    /// Attaches a retry policy to the session's drivers (state guide and
    /// detector) for fault-tolerant campaigns over degraded links.
    pub fn with_retry(mut self, retry: crate::retry::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Runs the four phases over an established link, walking the states
    /// `strategy` plans.
    ///
    /// `oracle` is the optional out-of-band view of the target (crash dumps
    /// and service status); without it the detector still works from the
    /// target's on-air behaviour alone.
    pub fn run<S: Strategy>(
        &mut self,
        strategy: &mut S,
        link: &mut LinkHandle,
        meta: DeviceMeta,
        mut oracle: Option<&mut dyn TargetOracle>,
    ) -> FuzzReport {
        let started = self.clock.now().as_secs();
        let link_type = meta.link_type;
        let mut rng = FuzzRng::seed_from(self.config.seed);
        let mut scanner = TargetScanner::new();
        let mut guide = StateGuide::new().with_retry(self.retry);
        let mut mutator = CoreFieldMutator::with_options(
            rng.fork(1),
            self.config.core_fields_only,
            self.config.append_garbage,
            self.config.max_garbage_len,
        );
        mutator.set_link(link_type);
        mutator.set_config_option_mutation(self.config.mutate_config_options);
        let mut detector = VulnerabilityDetector::new_on(link_type).with_retry(self.retry);

        // Phase 1: target scanning.
        let scan = scanner.scan(meta.clone(), link);
        let psm = scan.chosen_port.unwrap_or(btcore::Psm::SDP);

        let mut report = FuzzReport {
            fuzzer: S::NAME.to_owned(),
            target: meta,
            scan,
            states_tested: Vec::new(),
            packets_sent: 0,
            malformed_sent: 0,
            findings: Vec::new(),
            elapsed_secs: 0,
        };

        // Phases 2-4, once per state of the strategy's walk.
        let walk = strategy.walk(&self.config, link_type, &mut rng);
        'states: for (state, packets) in walk {
            // Phase 2: state guiding.
            strategy.attempt(state);
            let channel = if self.config.state_guiding {
                match guide.drive_to(link, psm, state) {
                    Some(channel) => channel,
                    None => continue,
                }
            } else {
                ChannelContext::closed(psm)
            };
            report.states_tested.push(state);

            // Phase 3: core field mutating, one test packet at a time.
            let job = job_of(state);
            let commands = commands_for(&self.config, state, link_type);
            let mut at = Parked {
                state,
                link: link_type,
                channel,
                commands: &commands,
                guide: &mut guide,
                mutator: &mut mutator,
            };
            strategy.enter(&mut at);
            for index in 0..packets {
                if self.config.max_packets > 0
                    && report.malformed_sent
                        + at.guide.transition_packets_sent()
                        + detector.pings_sent()
                        >= self.config.max_packets as u64
                {
                    break 'states;
                }
                let packet = strategy.packet(&mut at, index);

                // Phase 4: transmit and detect.
                let outcome = send(link, &packet);
                report.malformed_sent += 1;
                strategy.learn(&at, &packet, &outcome);
                // The outcome borrows the link's reply buffer; the detector
                // needs the link back.
                let silent = outcome.silent;
                let verdict = match oracle {
                    Some(ref mut o) => detector.check(link, Some(&mut **o), silent),
                    None => detector.check(link, None, silent),
                };
                if let DetectionVerdict::Vulnerable(evidence) = verdict {
                    let sent = parse_signaling(&packet).ok();
                    let finding = VulnerabilityFinding {
                        state,
                        job,
                        command: sent
                            .and_then(|p| CommandCode::from_u8(p.code))
                            .unwrap_or(CommandCode::CommandReject),
                        packet_hex: btcore::codec::hex_dump(&packet.payload),
                        evidence,
                        elapsed_secs: self.clock.now().as_secs().saturating_sub(started),
                    };
                    report.findings.push(finding);
                    if self.config.stop_at_first_vulnerability {
                        break 'states;
                    }
                }
            }

            // Tear the channel down so the next state starts clean.
            guide.disconnect(link, channel);
        }

        report.packets_sent =
            report.malformed_sent + guide.transition_packets_sent() + detector.pings_sent();
        report.elapsed_secs = self.clock.now().as_secs().saturating_sub(started);
        report
    }
}

/// [`Fuzzer`]-trait adapter over [`L2FuzzSession`], used by every campaign.
///
/// The tool runs sessions back to back inside its
/// [`FuzzCtx`](crate::FuzzCtx), one per round, deriving each round's seed
/// from the context's per-target seed stream under the strategy's domain
/// label.  The strategy defaults to the paper's [`Dictionary`] engine, for
/// which two standing configurations cover the paper's experiments:
///
/// * [`L2FuzzTool::detection`] — Table VI methodology: repeat campaigns
///   (with the out-of-band oracle from the context) until a vulnerability is
///   found or the round cap is reached.
/// * [`L2FuzzTool::comparison`] — §IV-C/D methodology: never stop early,
///   keep fuzzing until the context's packet budget is spent.
pub struct L2FuzzTool<S = Dictionary> {
    config: FuzzConfig,
    max_rounds: usize,
    strategy: S,
}

impl L2FuzzTool {
    /// Creates a tool that runs sessions with `config` until the context's
    /// budget is spent (no round cap).
    pub fn new(config: FuzzConfig) -> Self {
        L2FuzzTool::with_strategy(config, usize::MAX, Dictionary::default())
    }

    /// Detection mode (Table VI): stop at the first vulnerability, give up
    /// after `max_rounds` campaigns.
    pub fn detection(config: FuzzConfig, max_rounds: usize) -> Self {
        L2FuzzTool::with_strategy(config, max_rounds, Dictionary::default())
    }

    /// Comparison mode (§IV-C/D): never stop early, burn the whole budget.
    pub fn comparison() -> Self {
        L2FuzzTool::new(FuzzConfig::budget_driven())
    }
}

impl<S: Strategy> L2FuzzTool<S> {
    /// Creates a tool that runs at most `max_rounds` sessions with `config`,
    /// each walking what `strategy` plans.
    pub fn with_strategy(config: FuzzConfig, max_rounds: usize, strategy: S) -> Self {
        L2FuzzTool {
            config,
            max_rounds,
            strategy,
        }
    }

    /// The strategy, with everything it learned in the rounds run so far.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }
}

impl<S: Strategy> Fuzzer for L2FuzzTool<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn fuzz(&mut self, ctx: &mut crate::fuzzer::FuzzCtx<'_>) -> Option<FuzzReport> {
        let mut merged: Option<FuzzReport> = None;
        let mut round = 0u64;
        while (round as usize) < self.max_rounds {
            let remaining = ctx.remaining();
            if remaining == Some(0) {
                break;
            }
            let mut config = self.config.clone();
            // Domain-separated session seed: the raw per-target seed drives
            // the simulated device's own RNG, so round seeds come from an
            // independent stream per strategy.  The configured seed stays a
            // real input — two tools with different config seeds diverge
            // under the same campaign seed.
            config.seed = ctx
                .stream_seed(self.config.seed ^ S::DOMAIN)
                .wrapping_add(round);
            if let Some(remaining) = remaining {
                config.max_packets = if config.max_packets == 0 {
                    remaining as usize
                } else {
                    config.max_packets.min(remaining as usize)
                };
            }
            let before = ctx.link.frames_sent();
            let round_start_secs = ctx.clock.now().as_secs();
            let meta = ctx.meta.clone();
            let mut session = L2FuzzSession::new(config, ctx.clock.clone()).with_retry(ctx.retry);
            let (link, oracle) = ctx.link_and_oracle();
            let mut report = session.run(&mut self.strategy, link, meta, oracle);
            // Report elapsed times relative to the whole experiment (the
            // environment's clock), not just this round: the session stamped
            // each finding with its round-relative detection time.
            report.elapsed_secs = ctx.clock.now().as_secs();
            for finding in &mut report.findings {
                finding.elapsed_secs += round_start_secs;
            }
            let vulnerable = report.vulnerable();
            let stalled = ctx.link.frames_sent() == before;
            // Merge rounds instead of keeping only the last one: in
            // comparison mode a finding from an early round must survive the
            // budget-burning rounds that follow it.
            match merged {
                None => merged = Some(report),
                Some(ref mut total) => {
                    total.packets_sent += report.packets_sent;
                    total.malformed_sent += report.malformed_sent;
                    for state in report.states_tested {
                        if !total.states_tested.contains(&state) {
                            total.states_tested.push(state);
                        }
                    }
                    total.findings.extend(report.findings);
                    total.elapsed_secs = report.elapsed_secs;
                }
            }
            round += 1;
            if vulnerable && self.config.stop_at_first_vulnerability {
                break;
            }
            if stalled {
                // Nothing went out this round (target down) — stop burning
                // the budget.
                break;
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::SimClock;
    use btstack::device::{share, DeviceOracle, SharedSimulatedDevice};
    use btstack::profiles::{DeviceProfile, ProfileId};
    use hci::link::LinkConfig;
    use hci::medium::EventMedium;

    fn setup(
        id: ProfileId,
        seed: u64,
    ) -> (SharedSimulatedDevice, LinkHandle, DeviceMeta, SimClock) {
        let clock = SimClock::new();
        let mut air = EventMedium::new(clock.clone());
        let profile = DeviceProfile::table5(id);
        let (shared, adapter) = share(profile.build(clock.clone(), FuzzRng::seed_from(seed)));
        air.register_shared(adapter);
        let meta = air.inquiry().pop().unwrap();
        let link = air
            .connect(
                profile.addr,
                LinkConfig::default(),
                FuzzRng::seed_from(seed + 1),
            )
            .unwrap();
        (shared, link, meta, clock)
    }

    #[test]
    fn dictionary_draws_the_packets_generate_draws() {
        let commands = CommandCode::ALL.to_vec();
        let channel = ChannelContext::closed(btcore::Psm::SDP);
        let expected = CoreFieldMutator::new(FuzzRng::seed_from(7)).generate(
            &commands,
            3,
            &channel,
            StateGuide::new().next_identifier(),
        );
        let mut dictionary = Dictionary {
            per_command: 3,
            ..Dictionary::default()
        };
        let (mut guide, mut mutator) = (
            StateGuide::new(),
            CoreFieldMutator::new(FuzzRng::seed_from(7)),
        );
        let mut at = Parked {
            state: ChannelState::Closed,
            link: LinkType::BrEdr,
            channel,
            commands: &commands,
            guide: &mut guide,
            mutator: &mut mutator,
        };
        dictionary.enter(&mut at);
        let drawn: Vec<L2capFrame> = (0..expected.len() as u64)
            .map(|index| dictionary.packet(&mut at, index))
            .collect();
        assert_eq!(drawn, expected);
    }

    #[test]
    fn l2fuzz_finds_the_pixel3_dos_and_stops() {
        let (shared, mut link, meta, clock) = setup(ProfileId::D2, 100);
        let mut oracle = DeviceOracle::new(shared);
        let mut session = L2FuzzSession::new(FuzzConfig::default(), clock);
        let report = session.run(
            &mut Dictionary::default(),
            &mut link,
            meta,
            Some(&mut oracle),
        );
        assert!(report.vulnerable(), "the seeded Pixel 3 DoS must be found");
        let finding = &report.findings[0];
        assert_eq!(finding.evidence.description, "DoS");
        assert!(finding.evidence.crash_dump);
        assert!(report.packets_sent > 0);
        assert!(report.malformed_sent > 0);
    }

    #[test]
    fn l2fuzz_reports_no_findings_on_hardened_devices() {
        for id in [ProfileId::D4, ProfileId::D6, ProfileId::D7] {
            let (shared, mut link, meta, clock) = setup(id, 200);
            let mut oracle = DeviceOracle::new(shared);
            let mut session = L2FuzzSession::new(FuzzConfig::default(), clock);
            let report = session.run(
                &mut Dictionary::default(),
                &mut link,
                meta,
                Some(&mut oracle),
            );
            assert!(!report.vulnerable(), "{id} must have no findings");
            assert!(report.states_tested.len() >= 10);
        }
    }

    #[test]
    fn max_packets_budget_is_respected() {
        let (_shared, mut link, meta, clock) = setup(ProfileId::D4, 300);
        let mut config = FuzzConfig::comparison(200, 300);
        config.stop_at_first_vulnerability = false;
        let mut session = L2FuzzSession::new(config, clock);
        let report = session.run(&mut Dictionary::default(), &mut link, meta, None);
        // Budget counts malformed + transition + ping packets; allow a small
        // overshoot for the final in-flight exchange.
        assert!(report.packets_sent <= 230, "sent {}", report.packets_sent);
    }

    #[test]
    fn disabling_state_guiding_tests_only_the_closed_state() {
        let (_shared, mut link, meta, clock) = setup(ProfileId::D4, 400);
        let config = FuzzConfig {
            max_packets: 300,
            ..FuzzConfig::default()
        }
        .without_state_guiding();
        let mut session = L2FuzzSession::new(config, clock);
        let report = session.run(&mut Dictionary::default(), &mut link, meta, None);
        assert_eq!(report.states_tested, vec![ChannelState::Closed]);
    }

    #[test]
    fn report_elapsed_time_is_positive_and_grows_with_port_count() {
        let (shared_a, mut link_a, meta_a, clock_a) = setup(ProfileId::D5, 500);
        let mut oracle_a = DeviceOracle::new(shared_a);
        let report_a = L2FuzzSession::new(FuzzConfig::default(), clock_a).run(
            &mut Dictionary::default(),
            &mut link_a,
            meta_a,
            Some(&mut oracle_a),
        );
        assert!(report_a.vulnerable());
        assert!(report_a.findings[0].elapsed_secs < 24 * 3600);
    }
}
