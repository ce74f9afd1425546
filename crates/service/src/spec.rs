//! Sweep specifications: the persistent work queue's shape.
//!
//! A sweep is the cross product `targets × seeds`, enumerated target-major
//! (all seeds of the first target, then the second, …) — the same order
//! [`l2fuzz::campaign::SeedSweepExecutor`] produces, so a sweep's job list
//! is also the index into an equivalent in-process campaign's outcomes.
//! Jobs are grouped into fixed-size *shards*, the unit of worker dispatch
//! and of checkpoint commit.

use btstack::ProfileId;
use serde::{Deserialize, Serialize};

use crate::digest::Fnv64;

/// The immutable description of a sweep: which jobs exist and how they are
/// sharded.  Everything the service does is a pure function of this spec
/// plus the campaign determinism guarantees, which is what makes
/// checkpoints portable across processes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Human-readable sweep name (lands in checkpoints and reports).
    pub name: String,
    /// Device profiles to fuzz, in order.
    pub targets: Vec<ProfileId>,
    /// Campaign seeds per target, in order.
    pub seeds: Vec<u64>,
    /// Per-job transmission budget in packets; `None` runs the detection
    /// fuzzer's own stopping rule.
    pub budget_packets: Option<u64>,
    /// Jobs per shard (the checkpoint commit granularity).
    pub shard_size: usize,
    /// Per-job virtual-time watchdog in seconds; a job whose virtual clock
    /// runs past this after link establishment is quarantined as
    /// [`crate::checkpoint::JobOutcome::TimedOut`].  `None` disarms it.
    pub watchdog_secs: Option<u64>,
}

/// One `(target, seed)` unit of work, addressed by its sweep-wide index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Sweep-wide job index (target-major).
    pub index: usize,
    /// Position of the target in [`SweepSpec::targets`].
    pub target_index: usize,
    /// The target profile.
    pub target: ProfileId,
    /// The campaign seed this job runs under.
    pub seed: u64,
}

impl SweepSpec {
    /// Creates a spec with the default shard size (4 jobs) and no packet
    /// budget.
    ///
    /// # Panics
    /// Panics if `targets` or `seeds` is empty — a sweep with no jobs has
    /// no meaningful checkpoint.
    pub fn new(
        name: impl Into<String>,
        targets: impl IntoIterator<Item = ProfileId>,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Self {
        let targets: Vec<ProfileId> = targets.into_iter().collect();
        let seeds: Vec<u64> = seeds.into_iter().collect();
        assert!(!targets.is_empty(), "sweep needs at least one target");
        assert!(!seeds.is_empty(), "sweep needs at least one seed");
        SweepSpec {
            name: name.into(),
            targets,
            seeds,
            budget_packets: None,
            shard_size: 4,
            watchdog_secs: None,
        }
    }

    /// Derives `count` sweep seeds from `base` (SplitMix64, matching
    /// [`l2fuzz::campaign::SeedSweepExecutor::derived`]).
    pub fn derived_seeds(base: u64, count: usize) -> Vec<u64> {
        (0..count as u64)
            .map(|i| btcore::splitmix64(base.wrapping_add(i)))
            .collect()
    }

    /// Sets the per-job packet budget.
    pub fn with_budget(mut self, packets: u64) -> Self {
        self.budget_packets = Some(packets);
        self
    }

    /// Sets the shard size.
    ///
    /// # Panics
    /// Panics on a zero shard size.
    pub fn with_shard_size(mut self, jobs: usize) -> Self {
        assert!(jobs > 0, "shard size must be at least one job");
        self.shard_size = jobs;
        self
    }

    /// Arms the per-job virtual-time watchdog.
    pub fn with_watchdog_secs(mut self, secs: u64) -> Self {
        self.watchdog_secs = Some(secs);
        self
    }

    /// Total number of jobs (`targets × seeds`).
    pub fn job_count(&self) -> usize {
        self.targets.len() * self.seeds.len()
    }

    /// Number of shards (the last one may be short).
    pub fn shard_count(&self) -> usize {
        self.job_count().div_ceil(self.shard_size)
    }

    /// The job indices of shard `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_jobs(&self, shard: usize) -> std::ops::Range<usize> {
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let start = shard * self.shard_size;
        start..(start + self.shard_size).min(self.job_count())
    }

    /// Resolves job `index` to its target and seed (target-major order).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn job(&self, index: usize) -> JobSpec {
        assert!(index < self.job_count(), "job {index} out of range");
        let target_index = index / self.seeds.len();
        JobSpec {
            index,
            target_index,
            target: self.targets[target_index],
            seed: self.seeds[index % self.seeds.len()],
        }
    }

    /// Digest of the spec's identity.  A checkpoint stores this so a resume
    /// against a *different* sweep definition is rejected instead of
    /// silently continuing the wrong work.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name);
        for target in &self.targets {
            h.write_str(&target.to_string());
        }
        h.write_u64(self.seeds.len() as u64);
        for seed in &self.seeds {
            h.write_u64(*seed);
        }
        h.write_u64(self.budget_packets.unwrap_or(u64::MAX));
        h.write_u64(self.shard_size as u64);
        h.write_u64(self.watchdog_secs.unwrap_or(u64::MAX));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            "unit",
            [ProfileId::D2, ProfileId::D5],
            SweepSpec::derived_seeds(0x5EED, 3),
        )
        .with_shard_size(4)
    }

    #[test]
    fn jobs_enumerate_target_major() {
        let spec = spec();
        assert_eq!(spec.job_count(), 6);
        assert_eq!(spec.shard_count(), 2);
        assert_eq!(spec.shard_jobs(0), 0..4);
        assert_eq!(spec.shard_jobs(1), 4..6);
        let job = spec.job(0);
        assert_eq!((job.target, job.target_index), (ProfileId::D2, 0));
        let job = spec.job(3);
        assert_eq!((job.target, job.target_index), (ProfileId::D5, 1));
        assert_eq!(job.seed, spec.seeds[0]);
        let job = spec.job(5);
        assert_eq!((job.target, job.seed), (ProfileId::D5, spec.seeds[2]));
    }

    #[test]
    fn digest_tracks_identity() {
        let a = spec();
        assert_eq!(a.digest(), spec().digest());
        assert_ne!(a.digest(), spec().with_budget(100).digest());
        assert_ne!(a.digest(), spec().with_shard_size(2).digest());
        assert_ne!(a.digest(), spec().with_watchdog_secs(30).digest());
    }

    #[test]
    fn spec_round_trips_through_the_streaming_pair() {
        let spec = spec().with_budget(250);
        let json = serde_json::to_string_streamed(&spec);
        let back: SweepSpec = serde_json::from_str_streamed(&json).unwrap();
        assert_eq!(back, spec);
        assert_eq!(serde_json::to_string_streamed(&back), json);
    }
}
