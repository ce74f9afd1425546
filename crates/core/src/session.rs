//! The L2Fuzz session: orchestration of the four phases (Fig. 5).

use btcore::{DeviceMeta, FuzzRng, SimClock, TargetOracle};
use hci::medium::LinkHandle;
use l2cap::jobs::job_of;
use l2cap::state::ChannelState;

use crate::config::FuzzConfig;
use crate::detector::{DetectionVerdict, VulnerabilityDetector};
use crate::fuzzer::Fuzzer;
use crate::guide::{ChannelContext, StateGuide};
use crate::mutator::CoreFieldMutator;
use crate::queue::{PacketKind, PacketQueue};
use crate::report::{FuzzReport, VulnerabilityFinding};
use crate::scanner::TargetScanner;

/// A full L2Fuzz campaign against one target device.
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

    /// The session configuration.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// Runs the campaign over an established link.
    ///
    /// `oracle` is the optional out-of-band view of the target (crash dumps
    /// and service status); without it the detector still works from the
    /// target's on-air behaviour alone.
    pub fn run(
        &mut self,
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
        let mut queue = PacketQueue::new();

        // Phase 1: target scanning.
        let scan = scanner.scan(meta.clone(), link);
        let psm = scan.chosen_port.unwrap_or(btcore::Psm::SDP);

        let mut report = FuzzReport {
            fuzzer: "L2Fuzz".to_owned(),
            target: meta,
            scan,
            states_tested: Vec::new(),
            packets_sent: 0,
            malformed_sent: 0,
            findings: Vec::new(),
            elapsed_secs: 0,
        };

        // Phases 2-4, repeated per reachable state (of the target's link
        // type — an LE target exposes the credit-based subset).
        let states: Vec<ChannelState> = if self.config.state_guiding {
            match link_type {
                btcore::LinkType::BrEdr => ChannelState::REACHABLE_FROM_INITIATOR.to_vec(),
                btcore::LinkType::Le => ChannelState::REACHABLE_FROM_INITIATOR_LE.to_vec(),
            }
        } else {
            vec![ChannelState::Closed]
        };

        'states: for state in states {
            // Phase 2: state guiding.
            let ctx = if self.config.state_guiding {
                let driven = match link_type {
                    btcore::LinkType::BrEdr => guide.drive_to(link, psm, state),
                    btcore::LinkType::Le => guide.drive_to_le(link, psm, state),
                };
                match driven {
                    Some(ctx) => ctx,
                    None => continue,
                }
            } else {
                ChannelContext::closed(psm)
            };
            report.states_tested.push(state);

            // Phase 3: core field mutating.
            let job = job_of(state);
            let commands = if self.config.state_guiding {
                if self.config.generous_boundaries {
                    job.generous_valid_commands_on(link_type)
                } else {
                    job.valid_commands_on(link_type)
                }
            } else {
                // Without state guiding, commands are picked at random per
                // packet (dumb strategy used by the ablation).
                l2cap::code::CommandCode::ALL.to_vec()
            };
            let packets = mutator.generate(
                &commands,
                self.config.packets_per_command,
                &ctx,
                guide.next_identifier(),
            );

            // Phase 4: transmit and detect.
            for packet in packets {
                if self.config.max_packets > 0
                    && queue.sent() + guide.transition_packets_sent() + detector.pings_sent()
                        >= self.config.max_packets as u64
                {
                    break 'states;
                }
                let outcome = queue.send_now(link, &packet, PacketKind::Malformed);
                report.malformed_sent += 1;
                let verdict = match oracle {
                    Some(ref mut o) => detector.check(link, Some(&mut **o), outcome.silent),
                    None => detector.check(link, None, outcome.silent),
                };
                if let DetectionVerdict::Vulnerable(evidence) = verdict {
                    let finding = VulnerabilityFinding {
                        state,
                        job,
                        command: l2cap::code::CommandCode::from_u8(packet.code)
                            .unwrap_or(l2cap::code::CommandCode::CommandReject),
                        packet_hex: btcore::codec::hex_dump(&packet.to_bytes()),
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
            guide.disconnect(link, ctx);
        }

        report.packets_sent =
            queue.sent() + guide.transition_packets_sent() + detector.pings_sent();
        report.elapsed_secs = self.clock.now().as_secs().saturating_sub(started);
        report
    }
}

/// [`Fuzzer`]-trait adapter over [`L2FuzzSession`], used by every campaign.
///
/// The tool runs sessions back to back inside its
/// [`FuzzCtx`](crate::FuzzCtx), deriving each round's seed from the
/// context's per-target seed stream.  Two standing configurations cover the
/// paper's experiments:
///
/// * [`L2FuzzTool::detection`] — Table VI methodology: repeat campaigns
///   (with the out-of-band oracle from the context) until a vulnerability is
///   found or the round cap is reached.
/// * [`L2FuzzTool::comparison`] — §IV-C/D methodology: never stop early,
///   keep fuzzing until the context's packet budget is spent.
pub struct L2FuzzTool {
    config: FuzzConfig,
    max_rounds: usize,
}

impl L2FuzzTool {
    /// Creates a tool that runs sessions with `config` until the context's
    /// budget is spent (no round cap).
    pub fn new(config: FuzzConfig) -> Self {
        L2FuzzTool {
            config,
            max_rounds: usize::MAX,
        }
    }

    /// Detection mode (Table VI): stop at the first vulnerability, give up
    /// after `max_rounds` campaigns.
    pub fn detection(config: FuzzConfig, max_rounds: usize) -> Self {
        L2FuzzTool { config, max_rounds }
    }

    /// Comparison mode (§IV-C/D): never stop early, burn the whole budget.
    pub fn comparison() -> Self {
        L2FuzzTool::new(FuzzConfig::budget_driven())
    }
}

impl Fuzzer for L2FuzzTool {
    fn name(&self) -> &'static str {
        "L2Fuzz"
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
            // independent stream (0x4C32 = "L2").  The configured seed stays
            // a real input — two tools with different config seeds diverge
            // under the same campaign seed.
            config.seed = ctx
                .stream_seed(self.config.seed ^ 0x4C32)
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
            let mut report = session.run(link, meta, oracle);
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
    fn l2fuzz_finds_the_pixel3_dos_and_stops() {
        let (shared, mut link, meta, clock) = setup(ProfileId::D2, 100);
        let mut oracle = DeviceOracle::new(shared);
        let mut session = L2FuzzSession::new(FuzzConfig::default(), clock);
        let report = session.run(&mut link, meta, Some(&mut oracle));
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
            let report = session.run(&mut link, meta, Some(&mut oracle));
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
        let report = session.run(&mut link, meta, None);
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
        let report = session.run(&mut link, meta, None);
        assert_eq!(report.states_tested, vec![ChannelState::Closed]);
    }

    #[test]
    fn report_elapsed_time_is_positive_and_grows_with_port_count() {
        let (shared_a, mut link_a, meta_a, clock_a) = setup(ProfileId::D5, 500);
        let mut oracle_a = DeviceOracle::new(shared_a);
        let report_a = L2FuzzSession::new(FuzzConfig::default(), clock_a).run(
            &mut link_a,
            meta_a,
            Some(&mut oracle_a),
        );
        assert!(report_a.vulnerable());
        assert!(report_a.findings[0].elapsed_secs < 24 * 3600);
    }
}
