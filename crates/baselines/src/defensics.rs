//! A Defensics-style template fuzzer.
//!
//! The paper characterises Defensics as a commercial, specification-template
//! based tool: it runs through well-formed protocol exchanges, injects only
//! the occasional anomaly ("most of the test packets are normal packets"),
//! tests a single packet per state, and is extremely slow (3.37 packets per
//! second in §IV-C).  Those are exactly the behaviours reproduced here.

use btcore::{Cid, Identifier, Psm, SimClock};
use hci::medium::LinkHandle;
use l2cap::command::{
    Command, ConfigureRequest, ConfigureResponse, ConnectionRequest, DisconnectionRequest,
};
use l2cap::consts::ConfigureResult;
use l2cap::options::ConfigOption;
use l2cap::packet::SignalingPacket;
use l2fuzz::fuzzer::{FuzzCtx, Fuzzer};
use l2fuzz::report::FuzzReport;
use std::time::Duration;

/// Template-driven baseline fuzzer.
#[derive(Debug)]
pub struct DefensicsFuzzer {
    /// Extra virtual time spent generating each test case (what makes the
    /// tool slow).
    think_time: Duration,
    next_scid: u16,
    anomaly_counter: u64,
}

impl Default for DefensicsFuzzer {
    fn default() -> Self {
        DefensicsFuzzer::new()
    }
}

impl DefensicsFuzzer {
    /// Creates the fuzzer; clock and link come from the campaign context.
    pub fn new() -> Self {
        DefensicsFuzzer {
            think_time: Duration::from_millis(295),
            next_scid: 0x0140,
            anomaly_counter: 0,
        }
    }

    fn send(
        &mut self,
        clock: &SimClock,
        link: &mut LinkHandle,
        id: u8,
        command: Command,
    ) -> Vec<Command> {
        crate::send_command(clock, self.think_time, link, id, &command)
    }

    fn send_raw(&mut self, clock: &SimClock, link: &mut LinkHandle, packet: SignalingPacket) {
        clock.advance(self.think_time);
        let _ = link.send_frame(&packet.to_frame());
    }
}

impl Fuzzer for DefensicsFuzzer {
    fn name(&self) -> &'static str {
        "Defensics"
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let clock = ctx.clock.clone();
        while !ctx.budget_exhausted() {
            let scid = Cid(self.next_scid);
            self.next_scid = self.next_scid.wrapping_add(1).max(0x0140);

            // One fully conformant exchange per test cycle.
            let responses = self.send(
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

            self.anomaly_counter += 1;
            if self.anomaly_counter.is_multiple_of(25) {
                // The occasional anomalous test case: a Configure Request
                // with a short garbage tail (the template's "overflow"
                // element).
                let mut data = dcid.value().to_le_bytes().to_vec();
                data.extend_from_slice(&[0x00, 0x00]);
                let declared = data.len() as u16;
                data.extend_from_slice(&[0x41; 6]);
                self.send_raw(
                    &clock,
                    ctx.link,
                    SignalingPacket {
                        identifier: Identifier(2),
                        code: 0x04,
                        declared_data_len: declared,
                        data: data.into(),
                    },
                );
            } else {
                self.send(
                    &clock,
                    ctx.link,
                    2,
                    Command::ConfigureRequest(ConfigureRequest {
                        dcid,
                        flags: 0,
                        options: vec![ConfigOption::Mtu(672)],
                    }),
                );
            }
            self.send(
                &clock,
                ctx.link,
                3,
                Command::ConfigureResponse(ConfigureResponse {
                    scid: dcid,
                    flags: 0,
                    result: ConfigureResult::Success,
                    options: vec![],
                }),
            );
            self.send(
                &clock,
                ctx.link,
                4,
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
            .fuzzer(|| Box::new(DefensicsFuzzer::new()))
            .budget(TxBudget::packets(max_packets))
            .oracle(OraclePolicy::None)
            .auto_restart(true)
            .seed(7)
            .run()
            .expect("campaign runs")
            .into_single()
            .trace
    }

    #[test]
    fn defensics_sends_mostly_normal_packets_slowly() {
        let trace = run(400);
        let metrics = MetricsSummary::from_trace(&trace);
        assert!(metrics.transmitted >= 400);
        assert!(
            metrics.mp_ratio < 0.10,
            "MP ratio {:.3} should be tiny",
            metrics.mp_ratio
        );
        assert!(
            metrics.pr_ratio < 0.10,
            "PR ratio {:.3} should be tiny",
            metrics.pr_ratio
        );
        assert!(
            metrics.packets_per_second < 20.0,
            "Defensics should be slow, got {:.1} pps",
            metrics.packets_per_second
        );
    }

    #[test]
    fn defensics_covers_about_seven_states() {
        let trace = run(400);
        let coverage = StateCoverage::from_trace(&trace);
        assert_eq!(coverage.count(), 7, "covered: {:?}", coverage.states());
    }
}
