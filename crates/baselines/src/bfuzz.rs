//! A BFuzz-style replay-and-mutate fuzzer.
//!
//! The paper describes BFuzz (the IoTcube network fuzzer) as replaying
//! packets "previously determined to be vulnerable" and mutating almost every
//! field — including the dependent ones — so the bulk of its traffic is
//! turned away by the target ("command not understood" / "invalid CID"),
//! giving it the highest packet-rejection ratio of the four tools (91.6 %)
//! and a very small effective mutation efficiency.

use btcore::{Cid, FuzzRng, Identifier, Psm, SimClock};
use hci::medium::LinkHandle;
use l2cap::command::{Command, ConfigureRequest, ConnectionRequest, DisconnectionRequest};
use l2cap::options::ConfigOption;
use l2cap::packet::SignalingPacket;
use l2fuzz::fuzzer::{FuzzCtx, Fuzzer};
use l2fuzz::report::FuzzReport;
use std::time::Duration;

/// Replay-and-mutate baseline fuzzer.
#[derive(Debug)]
pub struct BFuzzFuzzer {
    next_scid: u16,
}

impl Default for BFuzzFuzzer {
    fn default() -> Self {
        BFuzzFuzzer::new()
    }
}

impl BFuzzFuzzer {
    /// Creates the fuzzer; clock, link and RNG stream come from the campaign
    /// context.
    pub fn new() -> Self {
        BFuzzFuzzer { next_scid: 0x0240 }
    }

    fn send_cmd(
        &mut self,
        clock: &SimClock,
        link: &mut LinkHandle,
        id: u8,
        command: Command,
    ) -> Vec<Command> {
        crate::send_command(clock, Duration::from_micros(1_200), link, id, &command)
    }

    fn send_raw(&mut self, clock: &SimClock, link: &mut LinkHandle, packet: SignalingPacket) {
        clock.advance(Duration::from_micros(1_200));
        let _ = link.send_frame(&packet.to_frame());
    }
}

impl Fuzzer for BFuzzFuzzer {
    fn name(&self) -> &'static str {
        "BFuzz"
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let clock = ctx.clock.clone();
        let mut rng: FuzzRng = ctx.rng(0xBF);
        while !ctx.budget_exhausted() {
            let scid = Cid(self.next_scid);
            self.next_scid = self.next_scid.wrapping_add(1).max(0x0240);

            // Seed setup: connect and send one configuration request, like
            // the seed exchange its corpus was captured from.  BFuzz never
            // completes the handshake.
            let responses = self.send_cmd(
                &clock,
                ctx.link,
                1,
                Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid,
                }),
            );
            let dcid = responses
                .iter()
                .find_map(|c| match c {
                    Command::ConnectionResponse(r) if r.dcid != Cid::NULL => Some(r.dcid),
                    _ => None,
                })
                .unwrap_or(scid);
            self.send_cmd(
                &clock,
                ctx.link,
                2,
                Command::ConfigureRequest(ConfigureRequest {
                    dcid,
                    flags: 0,
                    options: vec![ConfigOption::Mtu(672)],
                }),
            );

            // Replay barrage: mutations of the seed corpus.  Almost all of
            // them are turned away by the target.
            for i in 0..96u16 {
                if ctx.budget_exhausted() {
                    break;
                }
                let roll = rng.next_u8() % 100;
                let packet = if roll < 90 {
                    // Disconnection requests for channels that were valid in
                    // the corpus but do not exist here -> "invalid CID".
                    SignalingPacket::new(
                        Identifier((i % 250 + 1) as u8),
                        Command::DisconnectionRequest(DisconnectionRequest {
                            dcid: Cid(rng.range_u16(0x0040, 0xFFFF)),
                            scid: Cid(rng.range_u16(0x0040, 0xFFFF)),
                        }),
                    )
                } else if roll < 97 {
                    // Field-blind mutation that corrupts the command code ->
                    // "command not understood".
                    SignalingPacket::from_raw(
                        Identifier((i % 250 + 1) as u8),
                        0x1B + (rng.next_u8() % 0x40),
                        rng.bytes(8),
                    )
                } else {
                    // Field-blind mutation that truncates a known command.
                    SignalingPacket::from_raw(Identifier((i % 250 + 1) as u8), 0x02, rng.bytes(1))
                };
                self.send_raw(&clock, ctx.link, packet);
            }

            self.send_cmd(
                &clock,
                ctx.link,
                3,
                Command::DisconnectionRequest(DisconnectionRequest { dcid, scid }),
            );
            if !ctx.link.device_alive() {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btstack::profiles::{DeviceProfile, ProfileId};
    use l2fuzz::campaign::{Campaign, OraclePolicy};
    use l2fuzz::fuzzer::TxBudget;
    use sniffer::{MetricsSummary, StateCoverage, Trace};

    fn run(max_packets: u64) -> Trace {
        Campaign::builder()
            .target(DeviceProfile::table5(ProfileId::D2))
            .fuzzer(|| Box::new(BFuzzFuzzer::new()))
            .budget(TxBudget::packets(max_packets))
            .oracle(OraclePolicy::None)
            .auto_restart(true)
            .seed(9)
            .run()
            .expect("campaign runs")
            .into_single()
            .trace
    }

    #[test]
    fn bfuzz_has_a_very_high_rejection_ratio_and_low_mp_ratio() {
        let trace = run(1_000);
        let metrics = MetricsSummary::from_trace(&trace);
        assert!(
            metrics.pr_ratio > 0.60,
            "PR ratio {:.3} should dominate",
            metrics.pr_ratio
        );
        assert!(
            metrics.mp_ratio < 0.20,
            "MP ratio {:.3} should be small",
            metrics.mp_ratio
        );
        assert!(metrics.mutation_efficiency < 0.05);
        assert!(metrics.packets_per_second > 50.0, "BFuzz is a fast sender");
    }

    #[test]
    fn bfuzz_covers_about_six_states() {
        let trace = run(1_000);
        let coverage = StateCoverage::from_trace(&trace);
        assert_eq!(coverage.count(), 6, "covered: {:?}", coverage.states());
    }
}
