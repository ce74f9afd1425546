//! Packet traces.

use hci::link::{Direction, PacketRecord, SharedTap};
use serde::{Deserialize, Serialize};

/// A captured packet trace: every frame that crossed a link, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<PacketRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace by draining the records accumulated in a link tap.
    ///
    /// Draining (rather than copying) means the capture moves into the trace:
    /// the tap is left empty, and a second call only sees records captured
    /// after the first.  The campaign harness collects each tap exactly once,
    /// at the end of the run.
    pub fn from_tap(tap: &SharedTap) -> Self {
        Trace {
            records: std::mem::take(&mut *tap.lock()),
        }
    }

    /// Builds a trace from raw records.
    pub fn from_records(records: Vec<PacketRecord>) -> Self {
        Trace { records }
    }

    /// Serializes the trace as pretty-printed JSON through the streaming
    /// writer — no intermediate `Value` tree, so archiving a big capture
    /// materializes each frame's bytes once, straight into the output
    /// buffer.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty_streamed(self)
    }

    /// Parses a trace back from JSON through the streaming reader — the
    /// symmetric path to [`Trace::to_json`]: records land in the vector as
    /// they are parsed, without an intermediate `Value` tree holding the
    /// whole capture twice.
    ///
    /// # Errors
    /// Returns a `serde_json::Error` if the input is not a valid trace.
    pub fn from_json(json: &str) -> Result<Trace, serde_json::Error> {
        serde_json::from_str_streamed(json)
    }

    /// Appends a record.
    pub fn push(&mut self, record: PacketRecord) {
        self.records.push(record);
    }

    /// All records in capture order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Number of captured packets (both directions).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Packets transmitted by the fuzzer.
    pub fn transmitted(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| r.direction == Direction::Tx)
    }

    /// Packets received from the target.
    pub fn received(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.iter().filter(|r| r.direction == Direction::Rx)
    }

    /// Number of transmitted packets.
    pub fn transmitted_count(&self) -> usize {
        self.transmitted().count()
    }

    /// Number of received packets.
    pub fn received_count(&self) -> usize {
        self.received().count()
    }

    /// Virtual time spanned by the capture, in microseconds.
    pub fn duration_micros(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => {
                last.timestamp_micros.saturating_sub(first.timestamp_micros)
            }
            _ => 0,
        }
    }

    /// Merges another trace into this one, keeping records ordered by
    /// timestamp.
    ///
    /// Both inputs are already time-ordered (taps record monotonically), so
    /// this is a linear two-way merge, not a concatenate-and-sort.  Ties keep
    /// `self`'s records first, matching what a stable sort of the
    /// concatenation produced.
    pub fn merge(&mut self, other: Trace) {
        if other.records.is_empty() {
            return;
        }
        if self
            .records
            .last()
            .is_none_or(|last| last.timestamp_micros <= other.records[0].timestamp_micros)
        {
            // Common case: the other run starts after this one ends.
            self.records.extend(other.records);
            return;
        }
        let mut merged = Vec::with_capacity(self.records.len() + other.records.len());
        let mut left = std::mem::take(&mut self.records).into_iter().peekable();
        let mut right = other.records.into_iter().peekable();
        loop {
            match (left.peek(), right.peek()) {
                (Some(l), Some(r)) => {
                    if l.timestamp_micros <= r.timestamp_micros {
                        merged.extend(left.next());
                    } else {
                        merged.extend(right.next());
                    }
                }
                (Some(_), None) => {
                    merged.extend(left);
                    break;
                }
                (None, _) => {
                    merged.extend(right);
                    break;
                }
            }
        }
        self.records = merged;
    }
}

impl Extend<PacketRecord> for Trace {
    fn extend<T: IntoIterator<Item = PacketRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::Cid;
    use l2cap::packet::L2capFrame;

    fn record(direction: Direction, ts: u64) -> PacketRecord {
        PacketRecord {
            direction,
            timestamp_micros: ts,
            frame: L2capFrame::new(Cid::SIGNALING, vec![0x08, 0x01, 0x00, 0x00]),
        }
    }

    #[test]
    fn counts_and_duration() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        trace.push(record(Direction::Tx, 100));
        trace.push(record(Direction::Rx, 300));
        trace.push(record(Direction::Tx, 700));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.transmitted_count(), 2);
        assert_eq!(trace.received_count(), 1);
        assert_eq!(trace.duration_micros(), 600);
    }

    #[test]
    fn from_tap_drains_the_capture() {
        let tap = hci::link::new_tap();
        tap.lock().push(record(Direction::Tx, 5));
        let trace = Trace::from_tap(&tap);
        assert_eq!(trace.len(), 1);
        // The capture moved into the trace; the tap starts over.
        assert!(Trace::from_tap(&tap).is_empty());
        tap.lock().push(record(Direction::Rx, 9));
        assert_eq!(Trace::from_tap(&tap).len(), 1);
    }

    #[test]
    fn merge_keeps_timestamp_order() {
        let mut a = Trace::from_records(vec![record(Direction::Tx, 10), record(Direction::Tx, 30)]);
        let b = Trace::from_records(vec![record(Direction::Rx, 20)]);
        a.merge(b);
        let ts: Vec<u64> = a.records().iter().map(|r| r.timestamp_micros).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn merge_matches_a_stable_sort_of_the_concatenation() {
        let left = vec![
            record(Direction::Tx, 10),
            record(Direction::Tx, 20),
            record(Direction::Tx, 20),
            record(Direction::Tx, 40),
        ];
        let right = vec![
            record(Direction::Rx, 5),
            record(Direction::Rx, 20),
            record(Direction::Rx, 50),
        ];
        let mut merged = Trace::from_records(left.clone());
        merged.merge(Trace::from_records(right.clone()));

        let mut expected: Vec<PacketRecord> = left.into_iter().chain(right).collect();
        expected.sort_by_key(|r| r.timestamp_micros);
        assert_eq!(merged.records(), expected.as_slice());
        // Ties keep the left run's records first.
        let at_20: Vec<Direction> = merged
            .records()
            .iter()
            .filter(|r| r.timestamp_micros == 20)
            .map(|r| r.direction)
            .collect();
        assert_eq!(at_20, vec![Direction::Tx, Direction::Tx, Direction::Rx]);
    }

    #[test]
    fn merge_appends_when_runs_do_not_overlap() {
        let mut a = Trace::from_records(vec![record(Direction::Tx, 1), record(Direction::Tx, 2)]);
        a.merge(Trace::from_records(vec![record(Direction::Rx, 2)]));
        a.merge(Trace::new());
        let ts: Vec<u64> = a.records().iter().map(|r| r.timestamp_micros).collect();
        assert_eq!(ts, vec![1, 2, 2]);
        let mut empty = Trace::new();
        empty.merge(Trace::from_records(vec![record(Direction::Rx, 7)]));
        assert_eq!(empty.len(), 1);
    }
}
