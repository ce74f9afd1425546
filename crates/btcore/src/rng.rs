//! Seedable random number source for reproducible fuzzing runs.
//!
//! Every randomized decision in the workspace — mutation values, garbage
//! tails, baseline fuzzer behaviour, simulated processing jitter — draws from
//! a [`FuzzRng`], so a run is fully determined by its seed.  This is what
//! makes the experiment binaries in the `bench` crate reproducible.
//!
//! The generator is the repo's own: xoshiro256\*\* whose four state words
//! are the first four SplitMix64 outputs of the seed.  It is not the `rand`
//! crate's `StdRng` (ChaCha12), and every pinned digest depends on its
//! stream.

/// SplitMix64's increment, the golden-ratio constant `2^64 / φ`.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: cheap, well-distributed mixing for deriving
/// independent seeds from one base value.  Used by the campaign harness for
/// per-target seeds and per-tool RNG streams so no derived stream collides
/// with the raw seed.
pub fn splitmix64(input: u64) -> u64 {
    let mut z = input.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random number generator seeded from a single `u64`:
/// xoshiro256\*\*, its state seeded by four SplitMix64 outputs.
///
/// Narrow draws take the high bits of one 64-bit output, and a range draw
/// rejects the outputs that would bias it, so every draw is uniform.
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
    state: [u64; 4],
    seed: u64,
}

impl FuzzRng {
    /// Creates a generator from the given seed.
    // Out of line: each caller seeds once, and a copy of the four mixes at
    // every call site would only grow the code around it.
    #[inline(never)]
    pub fn seed_from(seed: u64) -> Self {
        // Word k is SplitMix64's (k + 1)-th output from `seed`.  The mixer
        // is a bijection and its four inputs differ, so at most one word is
        // zero: xoshiro never starts from its all-zero fixed point.
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA)));
        FuzzRng {
            state: [word(0), word(1), word(2), word(3)],
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
        let child_seed = self.next_u64() ^ label.rotate_left(17);
        FuzzRng::seed_from(child_seed)
    }

    /// The next 64 bits of the xoshiro256\*\* stream.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly random `u8`.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        self.next_u32() as u8
    }

    /// Returns a uniformly random `u16`.
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        self.next_u32() as u16
    }

    /// Returns a uniformly random `u32`: the high half of the next output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform value in `[0, span)`, by rejecting the outputs at or above
    /// the largest multiple of `span` (at most half of them, so the loop
    /// rarely repeats).  `span` must not be zero.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    /// Returns a uniformly random value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        assert!(lo <= hi, "range_u16 requires lo <= hi");
        lo + self.below(u64::from(hi - lo) + 1) as u16
    }

    /// Returns a uniformly random `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "range_usize requires lo <= hi");
        let draw = match ((hi - lo) as u64).checked_add(1) {
            Some(span) => self.below(span),
            // The full span: every output is in range.
            None => self.next_u64(),
        };
        lo + draw as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// # Panics
    /// Panics if `p` is NaN.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        assert!(!p.is_nan(), "chance requires a probability, not NaN");
        // The top 53 bits as a uniform float in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick requires a non-empty slice");
        &items[self.index(items.len())]
    }

    /// Returns a uniformly random index below `len`: the draw
    /// [`FuzzRng::pick`] makes for a slice of `len` items, for a caller
    /// that counts its items instead of collecting them.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires len > 0");
        self.below(len as u64) as usize
    }

    /// Fills `buf` with random bytes: each output's little-endian bytes in
    /// turn, the last one cut short when `buf` ends mid-word.
    #[inline]
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            word.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            for (byte, drawn) in tail.iter_mut().zip(self.next_u64().to_le_bytes()) {
                *byte = drawn;
            }
        }
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

    /// The first draw of each method from a fresh generator, per seed: a
    /// replacement generator must reproduce these to keep every seeded run.
    #[test]
    fn the_first_draws_of_each_method_are_pinned() {
        // next_u8, next_u16, next_u32, range_u16(0x40, 0xFFFF),
        // range_usize(0, 1000), index(26), chance(0.5), fill_bytes of 8
        // bytes, next_u32 of fork(1), range_usize(0, usize::MAX) (the full
        // span, which skips rejection sampling) and fill_bytes of 13 bytes
        // (a partial last word).
        let draws = |seed: u64| {
            let fresh = || FuzzRng::seed_from(seed);
            let mut bytes = [0; 8];
            fresh().fill_bytes(&mut bytes);
            let mut partial = [0; 13];
            fresh().fill_bytes(&mut partial);
            (
                fresh().next_u8(),
                fresh().next_u16(),
                fresh().next_u32(),
                fresh().range_u16(0x0040, 0xFFFF),
                fresh().range_usize(0, 1000),
                fresh().index(26),
                fresh().chance(0.5),
                bytes,
                fresh().fork(1).next_u32(),
                fresh().range_usize(0, usize::MAX),
                partial,
            )
        };
        let pinned = [
            (0, "(54, 24374, 2582404918, 52404, 200, 18, false, [180, 242, 117, 203, 54, 95, 236, 153], 1036641732, 11091344671253066420, [180, 242, 117, 203, 54, 95, 236, 153, 42, 69, 86, 73, 120])"),
            (1, "(109, 44909, 3019026285, 45317, 87, 9, false, [197, 16, 199, 15, 109, 175, 242, 179], 71371192, 12966619160104079557, [197, 16, 199, 15, 109, 175, 242, 179, 234, 76, 54, 71, 150])"),
            (42, "(46, 2862, 360188718, 24022, 275, 2, true, [22, 199, 46, 12, 46, 11, 120, 21], 1613585241, 1546998764402558742, [22, 199, 46, 12, 46, 11, 120, 21, 126, 58, 17, 109, 134])"),
            (u64::MAX, "(213, 8405, 2404720853, 39880, 40, 14, false, [8, 173, 126, 42, 213, 32, 85, 143], 164154702, 10328197420357168392, [8, 173, 126, 42, 213, 32, 85, 143, 45, 128, 161, 202, 24])"),
        ];
        for (seed, expected) in pinned {
            assert_eq!(format!("{:?}", draws(seed)), expected, "seed {seed}");
        }
    }
}
