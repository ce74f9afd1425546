//! Fleet-scale campaign service: checkpointable, resumable fuzzing sweeps.
//!
//! [`SweepService`] turns a [`SweepSpec`] — the cross product of device
//! profiles and campaign seeds, cut into shards — into a worker pool that
//! drains the job queue and commits results **in shard order** to a
//! [`Checkpoint`] journal: the first commit creates the file atomically,
//! and every later commit appends one compact JSON line holding only what
//! its shard added.  A kill mid-append leaves a torn last line, which a
//! resume drops and truncates.  Because campaigns are bit-for-bit
//! deterministic, a killed sweep does not merely *resume* from the last
//! committed shard: the resume is *verified* by re-running a committed
//! shard and comparing its digest ([`ResumeVerify`]).  Finished crashing
//! jobs are clustered in a [`CorpusStore`] keyed by crash-dump identity ×
//! state-coverage signature, so a thousand jobs tripping the same seeded
//! vulnerability collapse into one cluster with an exemplar trace.
//!
//! The `l2fuzz-service` binary wraps all of this for operators; see the
//! repository README's "Operating a sweep" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod corpus;
pub mod digest;
pub mod report;
pub mod service;
pub mod spec;

use std::fmt;

use l2fuzz::campaign::CampaignError;

pub use checkpoint::{Checkpoint, JobOutcome, JobSummary, ShardRecord};
pub use corpus::{ClusterKey, CorpusStore, CrashCluster};
pub use report::ServiceReport;
pub use service::{ResumeVerify, SweepOutcome, SweepService};
pub use spec::{JobSpec, SweepSpec};

/// Everything that can go wrong while running a sweep.
#[derive(Debug)]
pub enum ServiceError {
    /// A job's campaign failed to build or run.
    Campaign(CampaignError),
    /// A checkpoint file could not be read or written.
    Io {
        /// The checkpoint path involved.
        path: String,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// A complete line of a checkpoint file does not parse, or does not
    /// fit the lines before it, the spec's shards or its own digest.
    Json {
        /// The checkpoint path involved.
        path: String,
        /// The underlying parse error.
        source: serde_json::Error,
    },
    /// The checkpoint on disk belongs to a different sweep definition.
    SpecMismatch {
        /// Digest of the spec this service was configured with.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// Resume verification re-ran a committed shard and got a different
    /// digest — the checkpoint cannot be trusted.
    VerifyFailed {
        /// The shard that failed to reproduce.
        shard: usize,
        /// Digest recorded in the checkpoint.
        expected: u64,
        /// Digest the re-run produced.
        found: u64,
    },
    /// A checkpoint's stored exemplar trace does not hash to the trace
    /// digest its exemplar job recorded: the file changed after it was
    /// written, and the corrupt trace must not reach the report.
    ExemplarMismatch {
        /// The exemplar job.
        job: usize,
        /// Trace digest recorded in the job's summary.
        expected: u64,
        /// Digest of the stored exemplar trace.
        found: u64,
    },
    /// The quarantine threshold tripped: more jobs failed or timed out than
    /// the service's `max_job_failures` allows.  Everything committed so
    /// far (including the shard that crossed the threshold) is durable in
    /// the checkpoint; re-run with a higher threshold to continue.
    TooManyFailures {
        /// The configured threshold.
        limit: usize,
        /// Quarantined jobs committed so far.
        failed: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Campaign(err) => write!(f, "campaign failed: {err}"),
            ServiceError::Io { path, source } => {
                write!(f, "checkpoint I/O failed for `{path}`: {source}")
            }
            ServiceError::Json { path, source } => {
                write!(f, "checkpoint `{path}` is malformed: {source}")
            }
            ServiceError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different sweep \
                 (spec digest {found:016x}, expected {expected:016x})"
            ),
            ServiceError::VerifyFailed {
                shard,
                expected,
                found,
            } => write!(
                f,
                "resume verification failed: shard {shard} re-ran to digest \
                 {found:016x}, checkpoint recorded {expected:016x}"
            ),
            ServiceError::ExemplarMismatch {
                job,
                expected,
                found,
            } => write!(
                f,
                "checkpoint exemplar trace of job {job} hashes to {found:016x}, \
                 its summary recorded {expected:016x}"
            ),
            ServiceError::TooManyFailures { limit, failed } => write!(
                f,
                "sweep stopped: {failed} job(s) quarantined, exceeding the \
                 --max-job-failures threshold of {limit}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Campaign(err) => Some(err),
            ServiceError::Io { source, .. } => Some(source),
            ServiceError::Json { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CampaignError> for ServiceError {
    fn from(err: CampaignError) -> Self {
        ServiceError::Campaign(err)
    }
}
