//! Single-pass trace analysis.
//!
//! The comparison experiments want both a [`MetricsSummary`] (Table VII) and
//! a [`StateCoverage`] (Figs. 10–11) from the same capture.  Computing them
//! separately parses every record's signalling payload twice;
//! [`TraceAnalysis::from_trace`] walks the trace once, reads each record's
//! C-frame once, in place (a [`SignalingView`] borrowing the record's
//! payload, so no byte is copied), and feeds that view to both the
//! malformed/rejection classifiers and the coverage replay.  A transmitted
//! record's core field values are extracted at most once: the malformed
//! check hands the ones it read on to the replay.  The results are
//! identical to the two-pass computations (`tests` below assert it).
//!
//! [`SignalingView`]: l2cap::packet::SignalingView

use hci::link::Direction;
use l2cap::packet::parse_signaling;

use crate::classify::{is_malformed_signaling_keeping_core, is_rejection_signaling};
use crate::coverage::{CoverageBuilder, StateCoverage};
use crate::metrics::MetricsSummary;
use crate::trace::Trace;

/// Everything the evaluation computes from one captured trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Mutation-efficiency metrics (Table VII row).
    pub metrics: MetricsSummary,
    /// Inferred state coverage (Fig. 10/11 row).
    pub coverage: StateCoverage,
}

impl TraceAnalysis {
    /// Computes metrics and coverage in one pass, reading each record once
    /// (BR/EDR trace).
    pub fn from_trace(trace: &Trace) -> TraceAnalysis {
        TraceAnalysis::from_trace_on(trace, btcore::LinkType::BrEdr)
    }

    /// Single-pass analysis of a trace captured on a link of the given type;
    /// the coverage replay follows that transport's side of the transition
    /// table.
    pub fn from_trace_on(trace: &Trace, link: btcore::LinkType) -> TraceAnalysis {
        let (mut transmitted, mut malformed, mut received, mut rejections) = (0, 0, 0, 0);
        let mut coverage = CoverageBuilder::for_link(link);
        for record in trace.records() {
            let frame = &record.frame;
            let signaling = frame.cid.is_signaling();
            let parsed = if signaling {
                parse_signaling(frame).ok()
            } else {
                None
            };
            let mut core = None;
            match record.direction {
                Direction::Tx => {
                    transmitted += 1;
                    // `classify::is_malformed_on`, inlined over the shared
                    // parse.
                    let is_malformed = signaling
                        && (!frame.is_length_consistent()
                            || match parsed {
                                Some(packet) => {
                                    is_malformed_signaling_keeping_core(packet, link, &mut core)
                                }
                                None => true,
                            });
                    if is_malformed {
                        malformed += 1;
                    }
                    if signaling {
                        coverage.saw_tx_signaling();
                    }
                }
                Direction::Rx => {
                    received += 1;
                    if let Some(packet) = parsed {
                        if is_rejection_signaling(packet) {
                            rejections += 1;
                        }
                    }
                }
            }
            if let Some(packet) = parsed {
                coverage.observe_with_core(record.direction, packet, core);
            }
        }
        TraceAnalysis {
            metrics: MetricsSummary::from_counts(
                transmitted,
                malformed,
                received,
                rejections,
                trace.duration_micros(),
            ),
            coverage: coverage.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Cid, FuzzRng, Identifier, Psm};
    use hci::link::PacketRecord;
    use l2cap::code::CommandCode;
    use l2cap::command::{Command, ConnectionRequest, ConnectionResponse, EchoRequest};
    use l2cap::consts::ConnectionResult;
    use l2cap::packet::{signaling_frame, L2capFrame};

    fn record(direction: Direction, ts: u64, frame: L2capFrame) -> PacketRecord {
        PacketRecord {
            direction,
            timestamp_micros: ts,
            frame,
        }
    }

    /// A messy trace mixing well-formed exchanges, malformed packets, data
    /// frames and unparseable runts.
    fn mixed_trace(seed: u64) -> Trace {
        let mut rng = FuzzRng::seed_from(seed);
        let mut records = Vec::new();
        records.push(record(
            Direction::Tx,
            0,
            signaling_frame(
                Identifier(1),
                &Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid: Cid(0x0040),
                }),
            ),
        ));
        records.push(record(
            Direction::Rx,
            10,
            signaling_frame(
                Identifier(1),
                &Command::ConnectionResponse(ConnectionResponse {
                    dcid: Cid(0x0041),
                    scid: Cid(0x0040),
                    result: ConnectionResult::Success,
                    status: 0,
                }),
            ),
        ));
        for i in 0..200u64 {
            let ts = 20 + i * 7;
            match rng.range_usize(0, 4) {
                0 => {
                    // Mutated configure request with garbage.
                    let mut m =
                        super::tests_support::mutated_config_packet(&mut rng, (i % 250 + 1) as u8);
                    m.timestamp_micros = ts;
                    records.push(m);
                }
                1 => records.push(record(
                    Direction::Rx,
                    ts,
                    signaling_frame(
                        Identifier((i % 250 + 1) as u8),
                        &Command::EchoRequest(EchoRequest { data: vec![1] }),
                    ),
                )),
                2 => records.push(record(
                    Direction::Tx,
                    ts,
                    L2capFrame::new(Cid(0x0041), vec![0xAA; 8]),
                )),
                _ => records.push(record(
                    Direction::Tx,
                    ts,
                    L2capFrame {
                        declared_payload_len: 2,
                        cid: Cid::SIGNALING,
                        payload: vec![0x02].into(),
                    },
                )),
            }
        }
        records.push(record(
            Direction::Tx,
            2000,
            signaling_frame(
                Identifier(9),
                &Command::DisconnectionRequest(l2cap::command::DisconnectionRequest {
                    dcid: Cid(0x0041),
                    scid: Cid(0x0040),
                }),
            ),
        ));
        Trace::from_records(records)
    }

    #[test]
    fn single_pass_matches_the_two_pass_computations() {
        for seed in [1, 2, 3, 0xDEAD] {
            let trace = mixed_trace(seed);
            let analysis = TraceAnalysis::from_trace(&trace);
            assert_eq!(analysis.metrics, MetricsSummary::from_trace(&trace));
            assert_eq!(analysis.coverage, StateCoverage::from_trace(&trace));
        }
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let analysis = TraceAnalysis::from_trace(&Trace::new());
        assert_eq!(analysis.metrics.transmitted, 0);
        assert_eq!(analysis.coverage.count(), 0);
    }

    #[test]
    fn code_constants_used_by_the_replay_exist() {
        // Guard against silently renumbering the codes the fast paths match.
        assert_eq!(CommandCode::ConnectionResponse.value(), 0x03);
        assert_eq!(CommandCode::CommandReject.value(), 0x01);
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use btcore::{FuzzRng, Identifier};
    use hci::link::{Direction, PacketRecord};
    use l2cap::packet::{L2capFrame, SignalingPacket};

    /// A Fig. 7-style mutated Configure Request with a random garbage tail.
    pub fn mutated_config_packet(rng: &mut FuzzRng, id: u8) -> PacketRecord {
        let mut data = vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0];
        let garbage = rng.range_usize(1, 8);
        for _ in 0..garbage {
            data.push(rng.next_u16() as u8);
        }
        let pkt = SignalingPacket {
            identifier: Identifier(id),
            code: 0x04,
            declared_data_len: 8,
            data: data.into(),
        };
        PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: 0,
            frame: L2capFrame::new(btcore::Cid::SIGNALING, pkt.to_bytes()),
        }
    }
}
