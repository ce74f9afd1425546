//! Seedable random number source for reproducible fuzzing runs.
//!
//! Every randomized decision in the workspace — mutation values, garbage
//! tails, baseline fuzzer behaviour, simulated processing jitter — draws from
//! a [`FuzzRng`], so a run is fully determined by its seed.  This is what
//! makes the experiment binaries in the `bench` crate reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 finalizer: cheap, well-distributed mixing for deriving
/// independent seeds from one base value.  Used by the campaign harness for
/// per-target seeds and per-tool RNG streams so no derived stream collides
/// with the raw seed.
pub fn splitmix64(input: u64) -> u64 {
    let mut z = input.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator seeded from a single `u64`.
///
/// # Example
///
/// ```
/// use btcore::FuzzRng;
/// let mut a = FuzzRng::seed_from(42);
/// let mut b = FuzzRng::seed_from(42);
/// assert_eq!(a.next_u16(), b.next_u16());
/// ```
#[derive(Debug, Clone)]
pub struct FuzzRng {
    inner: StdRng,
    seed: u64,
}

impl FuzzRng {
    /// Creates a generator from the given seed.
    pub fn seed_from(seed: u64) -> Self {
        FuzzRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Returns the seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem (mutator, air medium, device) its own stream while keeping
    /// the whole run a function of one top-level seed.
    pub fn fork(&mut self, label: u64) -> FuzzRng {
        let child_seed = self.inner.gen::<u64>() ^ label.rotate_left(17);
        FuzzRng::seed_from(child_seed)
    }

    /// Returns a uniformly random `u8`.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        self.inner.gen()
    }

    /// Returns a uniformly random `u16`.
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        self.inner.gen()
    }

    /// Returns a uniformly random `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.inner.gen()
    }

    /// Returns a uniformly random value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        assert!(lo <= hi, "range_u16 requires lo <= hi");
        self.inner.gen_range(lo..=hi)
    }

    /// Returns a uniformly random `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "range_usize requires lo <= hi");
        self.inner.gen_range(lo..=hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen_bool(p)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick requires a non-empty slice");
        let idx = self.inner.gen_range(0..items.len());
        &items[idx]
    }

    /// Fills `buf` with random bytes.
    #[inline]
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Returns a vector of `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FuzzRng::seed_from(7);
        let mut b = FuzzRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FuzzRng::seed_from(1);
        let mut b = FuzzRng::seed_from(2);
        let va: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = FuzzRng::seed_from(99);
        let mut b = FuzzRng::seed_from(99);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u32(), fb.next_u32());
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut rng = FuzzRng::seed_from(3);
        for _ in 0..1000 {
            let v = rng.range_u16(0x0040, 0x0050);
            assert!((0x0040..=0x0050).contains(&v));
        }
        assert_eq!(rng.range_u16(5, 5), 5);
    }

    #[test]
    fn pick_returns_element_from_slice() {
        let mut rng = FuzzRng::seed_from(4);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.pick(&items)));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = FuzzRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn bytes_len() {
        let mut rng = FuzzRng::seed_from(6);
        assert_eq!(rng.bytes(48).len(), 48);
        assert!(rng.bytes(0).is_empty());
    }
}
