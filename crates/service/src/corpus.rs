//! Crash-dedup corpus: cluster finished jobs by what actually broke.
//!
//! A fleet-scale sweep finds the same seeded vulnerability thousands of
//! times; the operator needs *clusters*, not a thousand near-identical
//! reports.  The cluster key pairs the crash dumps' identity digest (what
//! crashed, where — timestamps excluded) with the trace's state-coverage
//! signature (which protocol states the run exercised), the cheap stateful
//! clustering "Is Stateful Fuzzing Really Challenging?" recommends.  The
//! first job to reach a cluster donates its trace as the exemplar; later
//! members only bump counts.

use serde::{Deserialize, Serialize};
use sniffer::Trace;

/// The dedup key: crash identity × state-coverage signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterKey {
    /// Combined identity digest of the job's crash dumps
    /// ([`crate::digest::crash_dumps_digest`]).
    pub crash_digest: u64,
    /// State-coverage bitmask of the job's merged trace
    /// ([`sniffer::StateCoverage::signature`]).
    pub coverage_signature: u32,
}

/// One dedup cluster: every job that tripped the same crash the same way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashCluster {
    /// The dedup key all members share.
    pub key: ClusterKey,
    /// Identifiers of the seeded vulnerabilities that fired (sorted,
    /// deduplicated).
    pub vuln_ids: Vec<String>,
    /// Human-readable description from the first member's evidence.
    pub description: String,
    /// Sweep-wide indices of the member jobs, ascending.
    pub members: Vec<usize>,
    /// FNV-1a trace digest of each member job, parallel to `members` — every
    /// member's trace identity is pinned even though only the exemplar's
    /// trace is stored in full.
    pub member_trace_digests: Vec<u64>,
    /// The member whose trace is kept as the exemplar (the first committed).
    pub exemplar_job: usize,
    /// The exemplar's merged packet trace — enough to replay the crash.
    pub exemplar_trace: Trace,
}

impl CrashCluster {
    /// Number of member jobs.
    pub fn count(&self) -> usize {
        self.members.len()
    }
}

/// What the first job to reach a cluster donates beyond its summary: the
/// crash's vulnerability ids and description, and its trace as the
/// exemplar.  Later members contribute only their summaries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Exemplar {
    /// Identifiers of the seeded vulnerabilities that fired.
    pub(crate) vuln_ids: Vec<String>,
    /// Human-readable description from the job's evidence.
    pub(crate) description: String,
    /// The job's merged packet trace.
    pub(crate) trace: Trace,
}

/// The corpus store: clusters in first-seen order.
///
/// Jobs are inserted in commit order (shard by shard, jobs ascending within
/// a shard), so the cluster list — and therefore the serialized corpus — is
/// deterministic for a given sweep, interrupted or not.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusStore {
    clusters: Vec<CrashCluster>,
}

impl CorpusStore {
    /// An empty store.
    pub fn new() -> Self {
        CorpusStore::default()
    }

    /// Adds crashing job `job` to the cluster keyed `key`.  Returns `false`,
    /// changing nothing, when no such cluster exists yet — the caller then
    /// [`open`](CorpusStore::open)s one.  A join merges no vulnerability
    /// ids: equal keys already imply equal vuln-id sets, because the crash
    /// digest hashes every dump's `vuln_id`.
    pub(crate) fn join(&mut self, key: ClusterKey, job: usize, trace_digest: u64) -> bool {
        match self.clusters.iter_mut().find(|c| c.key == key) {
            Some(cluster) => {
                cluster.members.push(job);
                cluster.member_trace_digests.push(trace_digest);
                true
            }
            None => false,
        }
    }

    /// Opens the cluster keyed `key` with crashing job `job` as its first
    /// member and `exemplar` as what it donates.
    pub(crate) fn open(
        &mut self,
        key: ClusterKey,
        job: usize,
        trace_digest: u64,
        exemplar: Exemplar,
    ) {
        let Exemplar {
            mut vuln_ids,
            description,
            trace,
        } = exemplar;
        vuln_ids.sort();
        vuln_ids.dedup();
        self.clusters.push(CrashCluster {
            key,
            vuln_ids,
            description,
            members: vec![job],
            member_trace_digests: vec![trace_digest],
            exemplar_job: job,
            exemplar_trace: trace,
        });
    }

    /// The clusters, in first-seen order.
    pub fn clusters(&self) -> &[CrashCluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no job has crashed yet.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total member jobs across all clusters.
    pub fn member_count(&self) -> usize {
        self.clusters.iter().map(CrashCluster::count).sum()
    }

    /// The clusters ranked by novelty, most novel first: wider state
    /// coverage (more bits in the key's coverage signature) outranks
    /// narrower, rarer crashes (fewer members) outrank common ones, and
    /// first-seen order breaks the remaining ties.  This is what the dedup
    /// key's coverage half buys the operator — a triage order that puts the
    /// crashes reached through the most protocol state on top.
    pub fn ranked_by_novelty(&self) -> Vec<&CrashCluster> {
        let mut ranked: Vec<(usize, &CrashCluster)> = self.clusters.iter().enumerate().collect();
        ranked.sort_by(|(ia, a), (ib, b)| {
            b.key
                .coverage_signature
                .count_ones()
                .cmp(&a.key.coverage_signature.count_ones())
                .then(a.members.len().cmp(&b.members.len()))
                .then(ia.cmp(ib))
        });
        ranked.into_iter().map(|(_, c)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(crash: u64, coverage: u32) -> ClusterKey {
        ClusterKey {
            crash_digest: crash,
            coverage_signature: coverage,
        }
    }

    /// Joins the cluster keyed `key`, opening it when it is new — the
    /// service's commit rule.
    fn insert(store: &mut CorpusStore, job: usize, digest: u64, key: ClusterKey, vuln: &str) {
        if !store.join(key, job, digest) {
            let exemplar = Exemplar {
                vuln_ids: vec![vuln.to_owned()],
                description: format!("{vuln} crash"),
                trace: Trace::new(),
            };
            store.open(key, job, digest, exemplar);
        }
    }

    #[test]
    fn same_key_jobs_collapse_into_one_cluster() {
        let mut store = CorpusStore::new();
        insert(&mut store, 0, 0xA0, key(7, 3), "V1");
        insert(&mut store, 3, 0xA3, key(7, 3), "V1");
        insert(&mut store, 5, 0xA5, key(9, 3), "V2");
        assert!(
            !store.join(key(11, 3), 6, 0xA6),
            "an unknown key opens nothing"
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.member_count(), 3);
        assert_eq!(store.clusters()[0].members, vec![0, 3]);
        assert_eq!(store.clusters()[0].member_trace_digests, vec![0xA0, 0xA3]);
        assert_eq!(store.clusters()[0].exemplar_job, 0);
        assert_eq!(store.clusters()[1].members, vec![5]);
        assert_eq!(store.clusters()[1].member_trace_digests, vec![0xA5]);
    }

    #[test]
    fn novelty_ranking_prefers_wide_coverage_then_rarity() {
        let mut store = CorpusStore::new();
        // Two members, narrow coverage (2 bits).
        insert(&mut store, 0, 1, key(7, 0b011), "V1");
        insert(&mut store, 1, 2, key(7, 0b011), "V1");
        // One member, wide coverage (3 bits) — most novel.
        insert(&mut store, 2, 3, key(8, 0b10101), "V2");
        // One member, narrow coverage — rarer than the first cluster.
        insert(&mut store, 3, 4, key(9, 0b110), "V3");
        let ranked = store.ranked_by_novelty();
        let digests: Vec<u64> = ranked.iter().map(|c| c.key.crash_digest).collect();
        assert_eq!(digests, vec![8, 9, 7]);
    }

    #[test]
    fn corpus_round_trips_through_the_streaming_pair() {
        let mut store = CorpusStore::new();
        let exemplar = Exemplar {
            vuln_ids: vec!["V3".into(), "V1".into(), "V3".into()],
            description: "x".into(),
            trace: Trace::new(),
        };
        store.open(key(11, 5), 2, 0xB2, exemplar);
        let json = serde_json::to_string_streamed(&store);
        let back: CorpusStore = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, store);
        assert_eq!(serde_json::to_string_streamed(&back), json);
        assert_eq!(back.clusters()[0].vuln_ids, vec!["V1", "V3"]);
    }
}
