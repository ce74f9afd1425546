//! Cross-seed corpus pooling for sweep campaigns.
//!
//! The publish-only contract: during a sweep
//! ([`l2fuzz::campaign::CampaignBuilder::seeds`]) each `(target, seed)` unit
//! is a pure function of its pair — as it finishes it *publishes* its corpus
//! into the hub under its own seed, and it never reads another unit's.
//! After the campaign returns, [`CorpusHub::merged`] folds the published
//! corpora in ascending seed order, which is independent of the order in
//! which [`l2fuzz::campaign::run_sharded`]'s workers completed them — so an
//! 8-seed sweep pools novelty barrier-free while staying bit-for-bit
//! replayable at any thread count.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::corpus::FeedbackCorpus;

/// A shared, publish-only accumulator of per-seed corpora.
///
/// Cloning is cheap and yields a handle to the same accumulator; the
/// campaign spawner closure clones one handle per fuzzer instance.
#[derive(Clone, Default)]
pub struct CorpusHub {
    inner: Arc<Mutex<BTreeMap<u64, FeedbackCorpus>>>,
}

impl CorpusHub {
    /// An empty hub.
    pub fn new() -> CorpusHub {
        CorpusHub::default()
    }

    /// Publishes one unit's corpus under its seed.  Publishing twice under
    /// the same seed (several initiators of one unit, or back-to-back
    /// campaigns) merges into the existing slot.
    pub fn publish(&self, seed: u64, corpus: &FeedbackCorpus) {
        let mut inner = self.inner.lock();
        inner.entry(seed).or_default().merge(corpus);
    }

    /// The seeds published so far, ascending.
    pub fn seeds(&self) -> Vec<u64> {
        self.inner.lock().keys().copied().collect()
    }

    /// Number of published slots.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Returns `true` if nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Folds every published corpus in ascending seed order into one merged
    /// corpus.  The fold order is canonical — a function of the seeds, not
    /// of which worker thread finished first — so the merged corpus is
    /// schedule-independent.
    pub fn merged(&self) -> FeedbackCorpus {
        let inner = self.inner.lock();
        let mut merged = FeedbackCorpus::new();
        for corpus in inner.values() {
            merged.merge(corpus);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusEntry, NoveltyKey, ResponseClass};
    use btcore::LinkType;
    use l2cap::state::ChannelState;

    fn corpus_with(signature: u32) -> FeedbackCorpus {
        let mut corpus = FeedbackCorpus::new();
        corpus.consider(CorpusEntry {
            state: ChannelState::Closed,
            link: LinkType::BrEdr,
            wire: vec![0x02, 0x01, 0x00, 0x00],
            key: NoveltyKey {
                signature,
                class: ResponseClass::Rejected,
            },
        });
        corpus
    }

    #[test]
    fn merged_is_independent_of_publish_order() {
        let forward = CorpusHub::new();
        forward.publish(1, &corpus_with(1));
        forward.publish(2, &corpus_with(2));
        forward.publish(3, &corpus_with(1));
        let backward = CorpusHub::new();
        backward.publish(3, &corpus_with(1));
        backward.publish(1, &corpus_with(1));
        backward.publish(2, &corpus_with(2));
        assert_eq!(forward.merged(), backward.merged());
        assert_eq!(forward.merged().len(), 2, "one entry per distinct key");
        assert_eq!(forward.seeds(), vec![1, 2, 3]);
    }

    #[test]
    fn republishing_merges_into_the_same_slot() {
        let hub = CorpusHub::new();
        hub.publish(7, &corpus_with(1));
        hub.publish(7, &corpus_with(2));
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.merged().len(), 2);
    }
}
