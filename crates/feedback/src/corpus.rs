//! The feedback corpus: mutated packets retained for reaching novelty.
//!
//! A packet earns its place by producing an outcome nobody produced before:
//! a state-coverage signature (the running [`sniffer::coverage::CoverageBuilder`]
//! bitmask after the packet's exchange) × response-class pair that is not in
//! the corpus yet.  Retained entries carry their full wire form plus the
//! state they were sent from, so the fuzzer can replay them as mutation
//! seeds from the matching park.

use btcore::LinkType;
use l2cap::state::ChannelState;
use l2fuzz::queue::SendOutcome;
use serde::{Deserialize, Serialize};

/// Coarse classification of what a target answered to one test packet.
///
/// Together with the coverage signature this forms the novelty key: a packet
/// that flips a state machine into new territory *or* provokes an answer
/// shape nobody provoked from that territory before is worth keeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResponseClass {
    /// No answer at all.
    Silent,
    /// At least one answer was an L2CAP Command Reject.
    Rejected,
    /// Answered with a refusal result (connection refused, configuration
    /// failed, move refused, non-zero LE result word).
    Refused,
    /// Answered, and no answer was a rejection.
    Answered,
}

impl ResponseClass {
    /// Classifies one transmission outcome.  `refused` says whether any
    /// answer is a rejection by [`sniffer::classify::is_rejection_signaling`],
    /// which the caller checks on the same parse it feeds to coverage.
    pub fn of(outcome: &SendOutcome<'_>, refused: bool) -> ResponseClass {
        if outcome.silent {
            ResponseClass::Silent
        } else if outcome.rejected {
            ResponseClass::Rejected
        } else if refused {
            ResponseClass::Refused
        } else {
            ResponseClass::Answered
        }
    }
}

/// The dedup key novelty is measured by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NoveltyKey {
    /// State-coverage bitmask observed after the packet's exchange (one bit
    /// per [`ChannelState::ALL`] index, as
    /// [`sniffer::StateCoverage::signature`] packs it).
    pub signature: u32,
    /// How the target answered.
    pub class: ResponseClass,
}

/// One retained packet: its wire form plus the state it was sent from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The state the packet was sent from (the park to replay it from).
    pub state: ChannelState,
    /// The transport it was sent over.
    pub link: LinkType,
    /// The packet's complete wire form ([`l2cap::packet::SignalingPacket::to_bytes`]:
    /// code, identifier, little-endian declared length, data).
    pub wire: Vec<u8>,
    /// The novelty that earned the entry its place.
    pub key: NoveltyKey,
}

/// The coverage-guided corpus: entries in retention order, one per distinct
/// novelty key.
///
/// The corpus is bounded by construction — there are at most
/// 2^19 × 4 distinct keys, and in practice a campaign retains a few dozen —
/// so membership is a linear scan over the entries themselves rather than a
/// side table that serialization would have to keep consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackCorpus {
    entries: Vec<CorpusEntry>,
}

impl FeedbackCorpus {
    /// An empty corpus.
    pub fn new() -> FeedbackCorpus {
        FeedbackCorpus::default()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained entries, in retention order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Returns `true` if the novelty key is already represented.
    pub fn contains(&self, key: NoveltyKey) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// Offers an entry: it is retained iff its novelty key is new.  Returns
    /// `true` when the entry was kept.
    pub fn consider(&mut self, entry: CorpusEntry) -> bool {
        if self.contains(entry.key) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Merges another corpus into this one, entry by entry in the other's
    /// retention order; duplicated novelty keys keep this corpus's entry.
    /// Returns how many entries were newly retained.
    pub fn merge(&mut self, other: &FeedbackCorpus) -> usize {
        other
            .entries
            .iter()
            .filter(|e| self.consider((*e).clone()))
            .count()
    }

    /// The retained entries sent from `state` over `link` — the replay seeds
    /// available at that park.
    pub fn entries_for(
        &self,
        state: ChannelState,
        link: LinkType,
    ) -> impl Iterator<Item = &CorpusEntry> {
        self.entries
            .iter()
            .filter(move |e| e.state == state && e.link == link)
    }

    /// Serializes the corpus as pretty-printed JSON through the streaming
    /// writer (byte-identical round trip with [`FeedbackCorpus::from_json`]).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty_streamed(self)
    }

    /// Parses a corpus back from JSON through the streaming reader.
    ///
    /// # Errors
    /// Returns a `serde_json::Error` if the input is not a valid corpus.
    pub fn from_json(json: &str) -> Result<FeedbackCorpus, serde_json::Error> {
        serde_json::from_str_streamed(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_classes_stream_like_their_derived_encodings() {
        for class in [
            ResponseClass::Silent,
            ResponseClass::Rejected,
            ResponseClass::Refused,
            ResponseClass::Answered,
        ] {
            let json = serde_json::to_string_streamed(&class);
            assert_eq!(json, format!("\"{class:?}\""));
            assert_eq!(
                serde_json::from_str_streamed::<ResponseClass>(&json).unwrap(),
                class
            );
        }
    }

    fn entry(state: ChannelState, signature: u32, class: ResponseClass) -> CorpusEntry {
        CorpusEntry {
            state,
            link: LinkType::BrEdr,
            wire: vec![0x02, 0x01, 0x04, 0x00, 0x01, 0x01, 0x40, 0x00],
            key: NoveltyKey { signature, class },
        }
    }

    #[test]
    fn consider_retains_only_new_keys() {
        let mut corpus = FeedbackCorpus::new();
        assert!(corpus.consider(entry(ChannelState::Closed, 1, ResponseClass::Rejected)));
        assert!(!corpus.consider(entry(ChannelState::Open, 1, ResponseClass::Rejected)));
        assert!(corpus.consider(entry(ChannelState::Closed, 1, ResponseClass::Silent)));
        assert!(corpus.consider(entry(ChannelState::Closed, 3, ResponseClass::Rejected)));
        assert_eq!(corpus.len(), 3);
    }

    #[test]
    fn entries_for_filters_by_state_and_link() {
        let mut corpus = FeedbackCorpus::new();
        corpus.consider(entry(ChannelState::Closed, 1, ResponseClass::Rejected));
        corpus.consider(entry(ChannelState::Open, 2, ResponseClass::Rejected));
        assert_eq!(
            corpus
                .entries_for(ChannelState::Open, LinkType::BrEdr)
                .count(),
            1
        );
        assert_eq!(
            corpus.entries_for(ChannelState::Open, LinkType::Le).count(),
            0
        );
    }

    #[test]
    fn merge_is_idempotent_and_counts_new_entries() {
        let mut a = FeedbackCorpus::new();
        a.consider(entry(ChannelState::Closed, 1, ResponseClass::Rejected));
        let mut b = FeedbackCorpus::new();
        b.consider(entry(ChannelState::Closed, 1, ResponseClass::Rejected));
        b.consider(entry(ChannelState::Open, 2, ResponseClass::Silent));
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.merge(&b), 0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut corpus = FeedbackCorpus::new();
        corpus.consider(entry(ChannelState::Closed, 1, ResponseClass::Rejected));
        corpus.consider(entry(ChannelState::Open, 0x5F, ResponseClass::Answered));
        let json = corpus.to_json();
        let back = FeedbackCorpus::from_json(&json).unwrap();
        assert_eq!(back, corpus);
        assert_eq!(back.to_json(), json);
        // The empty corpus round-trips too.
        let empty = FeedbackCorpus::new();
        assert_eq!(FeedbackCorpus::from_json(&empty.to_json()).unwrap(), empty);
    }
}
