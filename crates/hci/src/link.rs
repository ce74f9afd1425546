//! Link configuration and packet taps.
//!
//! The paper measures its evaluation metrics by sniffing the HCI traffic with
//! Wireshark; the equivalent here is a [`SharedTap`] attached to an ACL link,
//! which receives a [`PacketRecord`] for every frame crossing the link in
//! either direction.  The `sniffer` crate builds its traces from these
//! records.

use l2cap::packet::L2capFrame;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::fault::FaultPlan;

/// Direction of a packet relative to the fuzzer (the link initiator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Sent by the fuzzer towards the target.
    Tx,
    /// Received by the fuzzer from the target.
    Rx,
}

/// One captured packet crossing an ACL link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Direction relative to the initiator.
    pub direction: Direction,
    /// Virtual-clock timestamp in microseconds.
    pub timestamp_micros: u64,
    /// The L2CAP frame as it appeared on the link.
    pub frame: L2capFrame,
}

/// A shareable sink for captured packets.
pub type SharedTap = Arc<Mutex<Vec<PacketRecord>>>;

/// Creates an empty shared tap.
pub fn new_tap() -> SharedTap {
    Arc::new(Mutex::new(Vec::new()))
}

/// Physical-layer behaviour of a virtual ACL link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way latency added per frame, in microseconds of virtual time.
    pub latency_micros: u64,
    /// Virtual time charged on the initiator side for building and queueing a
    /// frame, in microseconds.  Together with the target's processing cost
    /// this determines the packets-per-second figures of §IV-C.
    pub tx_overhead_micros: u64,
    /// Fault behaviour injected into the link's delivery path.  The default
    /// ([`FaultPlan::none`]) injects nothing and leaves the packet streams
    /// byte-identical to a medium without the fault layer.
    pub faults: FaultPlan,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // Roughly 500-600 packets/second end-to-end for a simple exchange,
        // matching the order of magnitude the paper reports for L2Fuzz
        // (524 pps).
        LinkConfig {
            latency_micros: 400,
            tx_overhead_micros: 800,
            faults: FaultPlan::none(),
        }
    }
}

impl LinkConfig {
    /// A perfectly reliable, zero-latency link; useful in unit tests.
    pub fn ideal() -> Self {
        LinkConfig {
            latency_micros: 0,
            tx_overhead_micros: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Attaches a fault plan to this link configuration.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcore::Cid;

    #[test]
    fn directions_stream_like_their_derived_encodings() {
        for direction in [Direction::Tx, Direction::Rx] {
            let json = serde_json::to_string_streamed(&direction);
            assert_eq!(json, format!("\"{direction:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<Direction>(&json).unwrap(),
                direction
            );
        }
    }

    #[test]
    fn default_link_is_reliable_and_slowish() {
        let cfg = LinkConfig::default();
        assert!(cfg.faults.is_none());
        assert!(cfg.latency_micros > 0);
        assert!(cfg.tx_overhead_micros > 0);
    }

    #[test]
    fn ideal_link_costs_nothing() {
        let cfg = LinkConfig::ideal();
        assert_eq!(cfg.latency_micros, 0);
        assert_eq!(cfg.tx_overhead_micros, 0);
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn tap_accumulates_records() {
        let tap = new_tap();
        tap.lock().push(PacketRecord {
            direction: Direction::Tx,
            timestamp_micros: 10,
            frame: L2capFrame::new(Cid::SIGNALING, vec![1, 2, 3, 4]),
        });
        tap.lock().push(PacketRecord {
            direction: Direction::Rx,
            timestamp_micros: 20,
            frame: L2capFrame::new(Cid::SIGNALING, vec![5, 6, 7, 8]),
        });
        assert_eq!(tap.lock().len(), 2);
        assert_eq!(tap.lock()[0].direction, Direction::Tx);
        assert_eq!(tap.lock()[1].direction, Direction::Rx);
    }

    #[test]
    fn a_tap_record_keeps_its_frame_inline_in_80_bytes() {
        // Every exchange copies its frames into tap records by value, and
        // trace replays clone them again: the record stays this small.
        assert_eq!(std::mem::size_of::<PacketRecord>(), 80);
    }
}
