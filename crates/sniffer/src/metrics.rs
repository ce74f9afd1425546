//! Mutation-efficiency metrics (paper §IV-A, Table VII, Figs. 8–9).
//!
//! * **MP ratio** — transmitted malformed packets over transmitted packets.
//! * **PR ratio** — received rejection packets over received packets.
//! * **Mutation efficiency** — `MP * (1 - PR)`: the minimum fraction of
//!   malformed packets that went through without being rejected.
//! * **pps** — transmitted packets per (virtual) second.

use hci::link::Direction;
use serde::{Deserialize, Serialize};

use crate::classify::{is_malformed, is_rejection};
use crate::trace::Trace;

/// One point of the cumulative Fig. 8 / Fig. 9 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CumulativePoint {
    /// Number of packets considered so far (x axis).
    pub packets: usize,
    /// Number of matching packets so far (y axis: malformed for Fig. 8,
    /// rejections for Fig. 9).
    pub matching: usize,
}

/// Summary of a fuzzing trace in the paper's evaluation terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Packets transmitted by the fuzzer.
    pub transmitted: usize,
    /// Transmitted packets classified as malformed.
    pub malformed: usize,
    /// Packets received from the target.
    pub received: usize,
    /// Received packets classified as rejections.
    pub rejections: usize,
    /// Malformed-packet ratio (0..=1).
    pub mp_ratio: f64,
    /// Packet-rejection ratio (0..=1).
    pub pr_ratio: f64,
    /// Mutation efficiency `MP * (1 - PR)` (0..=1).
    pub mutation_efficiency: f64,
    /// Transmitted packets per virtual second.
    pub packets_per_second: f64,
}

impl MetricsSummary {
    /// Computes the summary over a trace (a single pass over the records —
    /// traces run to hundreds of thousands of packets in long campaigns).
    pub fn from_trace(trace: &Trace) -> MetricsSummary {
        let (mut transmitted, mut malformed, mut received, mut rejections) = (0, 0, 0, 0);
        for record in trace.records() {
            match record.direction {
                Direction::Tx => {
                    transmitted += 1;
                    if is_malformed(&record.frame) {
                        malformed += 1;
                    }
                }
                Direction::Rx => {
                    received += 1;
                    if is_rejection(&record.frame) {
                        rejections += 1;
                    }
                }
            }
        }
        MetricsSummary::from_counts(
            transmitted,
            malformed,
            received,
            rejections,
            trace.duration_micros(),
        )
    }

    /// Assembles a summary from raw counters, deriving the paper's ratios —
    /// the shared tail of [`MetricsSummary::from_trace`] and the single-pass
    /// [`crate::TraceAnalysis`].
    pub fn from_counts(
        transmitted: usize,
        malformed: usize,
        received: usize,
        rejections: usize,
        duration_micros: u64,
    ) -> MetricsSummary {
        let mp_ratio = ratio(malformed, transmitted);
        let pr_ratio = ratio(rejections, received);
        let duration_secs = duration_micros as f64 / 1_000_000.0;
        let packets_per_second = if duration_secs > 0.0 {
            transmitted as f64 / duration_secs
        } else {
            0.0
        };
        MetricsSummary {
            transmitted,
            malformed,
            received,
            rejections,
            mp_ratio,
            pr_ratio,
            mutation_efficiency: mp_ratio * (1.0 - pr_ratio),
            packets_per_second,
        }
    }

    /// Renders the three Table VII percentages as a short human-readable row.
    pub fn table_row(&self, label: &str) -> String {
        format!(
            "{label:<10} MP {:>6.2}%  PR {:>6.2}%  ME {:>6.2}%  ({:.1} pps)",
            self.mp_ratio * 100.0,
            self.pr_ratio * 100.0,
            self.mutation_efficiency * 100.0,
            self.packets_per_second
        )
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Cumulative malformed-packet series over transmitted packets (Fig. 8),
/// sampled every `step` packets.
pub fn malformed_series(trace: &Trace, step: usize) -> Vec<CumulativePoint> {
    cumulative(trace, Direction::Tx, step, is_malformed)
}

/// Cumulative rejection series over received packets (Fig. 9), sampled every
/// `step` packets.
pub fn rejection_series(trace: &Trace, step: usize) -> Vec<CumulativePoint> {
    cumulative(trace, Direction::Rx, step, is_rejection)
}

fn cumulative(
    trace: &Trace,
    direction: Direction,
    step: usize,
    pred: impl Fn(&l2cap::packet::L2capFrame) -> bool,
) -> Vec<CumulativePoint> {
    let step = step.max(1);
    let mut points = Vec::new();
    let mut packets = 0usize;
    let mut matching = 0usize;
    for record in trace.records().iter().filter(|r| r.direction == direction) {
        packets += 1;
        if pred(&record.frame) {
            matching += 1;
        }
        if packets.is_multiple_of(step) {
            points.push(CumulativePoint { packets, matching });
        }
    }
    if !packets.is_multiple_of(step) {
        points.push(CumulativePoint { packets, matching });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::{Cid, Identifier, Psm};
    use hci::link::PacketRecord;
    use l2cap::command::{Command, CommandReject, ConnectionRequest, EchoResponse};
    use l2cap::consts::RejectReason;
    use l2cap::packet::{signaling_frame, L2capFrame, SignalingPacket};

    fn tx_normal(ts: u64) -> PacketRecord {
        PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: ts,
            frame: signaling_frame(
                Identifier(1),
                &Command::ConnectionRequest(ConnectionRequest {
                    psm: Psm::SDP,
                    scid: Cid(0x40),
                }),
            ),
        }
    }

    fn tx_malformed(ts: u64) -> PacketRecord {
        let packet = SignalingPacket {
            identifier: Identifier(6),
            code: 0x04,
            declared_data_len: 8,
            data: vec![0x8F, 0x7B, 0, 0, 0, 0, 0, 0, 0xD2, 0x3A].into(),
        };
        PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: ts,
            frame: packet.into_frame(),
        }
    }

    fn rx_reject(ts: u64) -> PacketRecord {
        PacketRecord {
            direction: Direction::Rx,
            timestamp_micros: ts,
            frame: signaling_frame(
                Identifier(1),
                &Command::CommandReject(CommandReject {
                    reason: RejectReason::CommandNotUnderstood,
                    data: vec![],
                }),
            ),
        }
    }

    fn rx_ok(ts: u64) -> PacketRecord {
        PacketRecord {
            direction: Direction::Rx,
            timestamp_micros: ts,
            frame: signaling_frame(
                Identifier(1),
                &Command::EchoResponse(EchoResponse { data: vec![] }),
            ),
        }
    }

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            tx_normal(0),
            tx_malformed(1_000_000),
            tx_malformed(2_000_000),
            tx_malformed(3_000_000),
            rx_ok(3_100_000),
            rx_reject(3_200_000),
            rx_ok(3_300_000),
            rx_ok(4_000_000),
        ])
    }

    #[test]
    fn summary_matches_hand_computation() {
        let m = MetricsSummary::from_trace(&sample_trace());
        assert_eq!(m.transmitted, 4);
        assert_eq!(m.malformed, 3);
        assert_eq!(m.received, 4);
        assert_eq!(m.rejections, 1);
        assert!((m.mp_ratio - 0.75).abs() < 1e-9);
        assert!((m.pr_ratio - 0.25).abs() < 1e-9);
        assert!((m.mutation_efficiency - 0.75 * 0.75).abs() < 1e-9);
        // 4 packets over 4 virtual seconds.
        assert!((m.packets_per_second - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let m = MetricsSummary::from_trace(&Trace::new());
        assert_eq!(m.transmitted, 0);
        assert_eq!(m.mp_ratio, 0.0);
        assert_eq!(m.pr_ratio, 0.0);
        assert_eq!(m.mutation_efficiency, 0.0);
        assert_eq!(m.packets_per_second, 0.0);
    }

    #[test]
    fn mutation_efficiency_formula() {
        // MP = 1, PR = 1 -> efficiency 0; MP = 1, PR = 0 -> efficiency 1.
        let all_rejected = Trace::from_records(vec![tx_malformed(0), rx_reject(10)]);
        let m = MetricsSummary::from_trace(&all_rejected);
        assert_eq!(m.mutation_efficiency, 0.0);

        let none_rejected = Trace::from_records(vec![tx_malformed(0), rx_ok(10)]);
        let m = MetricsSummary::from_trace(&none_rejected);
        assert_eq!(m.mutation_efficiency, 1.0);
    }

    #[test]
    fn cumulative_series_end_at_totals() {
        let trace = sample_trace();
        let fig8 = malformed_series(&trace, 2);
        assert_eq!(fig8.last().unwrap().packets, 4);
        assert_eq!(fig8.last().unwrap().matching, 3);
        // Monotonic in both coordinates.
        for pair in fig8.windows(2) {
            assert!(pair[1].packets > pair[0].packets);
            assert!(pair[1].matching >= pair[0].matching);
        }
        let fig9 = rejection_series(&trace, 3);
        assert_eq!(fig9.last().unwrap().packets, 4);
        assert_eq!(fig9.last().unwrap().matching, 1);
    }

    #[test]
    fn table_row_contains_percentages() {
        let row = MetricsSummary::from_trace(&sample_trace()).table_row("L2Fuzz");
        assert!(row.contains("L2Fuzz"));
        assert!(row.contains("75.00%"));
    }

    #[test]
    fn data_frames_do_not_skew_ratios() {
        let mut trace = sample_trace();
        trace.push(PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: 5_000_000,
            frame: L2capFrame::new(Cid(0x0040), vec![0xAB; 10]),
        });
        let m = MetricsSummary::from_trace(&trace);
        assert_eq!(m.transmitted, 5);
        assert_eq!(m.malformed, 3);
    }
}
