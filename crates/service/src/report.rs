//! The sweep's final report: every job summary plus the dedup corpus.
//!
//! The report is a pure function of the committed checkpoint state, so a
//! resumed sweep and an uninterrupted one produce **byte-identical** report
//! JSON — the property the kill/resume tests pin via [`ServiceReport::digest`].

use serde::{Deserialize, Serialize};
use serde_json::Error;

use crate::checkpoint::{Checkpoint, JobSummary};
use crate::corpus::CorpusStore;
use crate::digest::digest_bytes;
use crate::spec::SweepSpec;

/// Everything a finished sweep produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// The sweep definition.
    pub spec: SweepSpec,
    /// One summary per job, in job order.
    pub jobs: Vec<JobSummary>,
    /// The crash-dedup corpus.
    pub corpus: CorpusStore,
}

impl ServiceReport {
    /// Builds the report from a fully committed checkpoint.
    ///
    /// # Panics
    /// Panics if the checkpoint is incomplete — callers must only build
    /// reports once every shard has committed.
    pub fn from_checkpoint(checkpoint: &Checkpoint) -> Self {
        assert_eq!(
            checkpoint.completed_shards(),
            checkpoint.spec.shard_count(),
            "report requested from an incomplete checkpoint"
        );
        ServiceReport {
            spec: checkpoint.spec.clone(),
            jobs: checkpoint.jobs().cloned().collect(),
            corpus: checkpoint.corpus.clone(),
        }
    }

    /// Number of jobs that found at least one vulnerability.
    pub fn vulnerable_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.vulnerable).count()
    }

    /// Number of quarantined jobs (failed or timed out).
    pub fn failed_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome != crate::checkpoint::JobOutcome::Completed)
            .count()
    }

    /// Serializes the report (pretty, streamed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty_streamed(self)
    }

    /// Parses a report back through the streaming reader.
    ///
    /// # Errors
    /// Returns a `serde_json::Error` on malformed input.
    pub fn from_json(json: &str) -> Result<ServiceReport, Error> {
        serde_json::from_str_streamed(json)
    }

    /// FNV-1a digest of the compact report JSON — the sweep's identity pin.
    pub fn digest(&self) -> u64 {
        digest_bytes(serde_json::to_string_streamed(self).as_bytes())
    }

    /// One-line operator summary.  Quarantined jobs are only mentioned when
    /// there are any, so healthy sweeps read exactly as before.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "sweep `{}`: {} jobs, {} vulnerable, {} crash cluster(s) from {} crashing job(s), digest {:016x}",
            self.spec.name,
            self.jobs.len(),
            self.vulnerable_jobs(),
            self.corpus.len(),
            self.corpus.member_count(),
            self.digest()
        );
        let failed = self.failed_jobs();
        if failed > 0 {
            line.push_str(&format!(" ({failed} quarantined)"));
        }
        line
    }
}
