//! Host-speed reference.
//!
//! The benchmark shares a few cores of a busy host.  Measured on a 2-vCPU
//! guest, the host's speed for this kind of code drifts by up to a third
//! within a minute — one fuzz run read 0.83 M pkt/s for tens of seconds,
//! then 1.2 M pkt/s for a few — while a dependent-arithmetic loop kept its
//! pace to within 3 %.  Raw times of the same code then spread more between
//! runs than any regression bound can tolerate.
//!
//! So every time the benchmark reports is scaled to a reference host.
//! Between operations it times [`kernel`]: fixed work of the program's
//! kind — small allocations, byte hashing, map updates, formatting and
//! parsing — that slows down with the host as the program does.  Over the
//! 2 s windows of one 30 s run, raw throughput varied with a coefficient
//! of variation of 12 % (`detect`) and 14 % (`fuzz`); scaled by the times
//! of the kernel's two halves, of 2.4 % and 3.6 %.  An operation's time is
//! multiplied by `REFERENCE_NS / t`, where `t` is the median kernel time
//! of the samples taken around it: the reference host runs the kernel in
//! exactly [`REFERENCE_NS`].  The kernel is the benchmark's own code, so a
//! change to the program moves the scaled figures by the same share as the
//! raw ones; only through the heap and caches the kernel shares with the
//! program can such a change move the kernel a little too.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

use crate::quantile;

/// Kernel time of the reference host.
pub const REFERENCE_NS: f64 = 1e6;

/// Least wall time between two kernel samples.  The kernel runs for about
/// [`REFERENCE_NS`], so sampling costs at most a twentieth of a run; the
/// host's speed holds for seconds at a time, so samples this close follow it.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Samples on each side of an operation whose median scales it.
const NEIGHBOURS: usize = 2;

/// The fixed reference work; returns its wall time in nanoseconds.
///
/// Two halves of about equal time, since the host slows small-loop code
/// and code spread over more of the standard library by different amounts:
/// [`frames`] and [`records`].  The pseudo-random numbers are a local
/// SplitMix64, so the work never depends on the program under test.
pub fn kernel() -> u64 {
    let start = Instant::now();
    let mut rng = SplitMix(0x1234_5678);
    std::hint::black_box(frames(&mut rng));
    std::hint::black_box(records(&mut rng));
    start.elapsed().as_nanos() as u64
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Frame-like work: short byte vectors built, FNV-hashed and half of them
/// kept, with an ordered map updated and probed on the way.
fn frames(rng: &mut SplitMix) -> u64 {
    let mut map = BTreeMap::new();
    let mut kept: Vec<Vec<u8>> = Vec::new();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for i in 0..1500u64 {
        let z = rng.next();
        map.insert(z % 4096, i);
        let len = 4 + (z >> 60) as usize * 3;
        let frame: Vec<u8> = (0..len).map(|k| (z >> (k % 8 * 8)) as u8).collect();
        for b in &frame {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        if let Some(v) = map.get(&(h % 4096)) {
            h ^= v;
        }
        if frame[0] & 1 == 0 {
            kept.push(frame);
        }
    }
    h ^ kept.len() as u64
}

/// Record-like work: records with formatted names, a hash index over them,
/// a sort, and the records written out as text and parsed back.
fn records(rng: &mut SplitMix) -> u64 {
    let mut records: Vec<(u64, String, Vec<u16>)> = (0..400)
        .map(|i| {
            let v = rng.next();
            (
                v,
                format!("rec-{i}-{:x}", v >> 40),
                (0..(v % 13) as u16).collect(),
            )
        })
        .collect();
    // A fixed hasher: the same work in every process.
    let mut index: HashMap<String, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, record) in records.iter().enumerate() {
        index.insert(record.1.clone(), i);
    }
    let mut sum = records
        .iter()
        .map(|record| index.get(&record.1).copied().unwrap_or(0) as u64)
        .sum::<u64>();
    records.sort_by(|a, b| a.1.cmp(&b.1));
    let mut text = String::new();
    for record in &records {
        let _ = write!(text, "{},{},{:?};", record.0, record.1, record.2);
    }
    let mut tree = BTreeMap::new();
    for part in text.split(';') {
        if let Some(Ok(v)) = part.split(',').next().map(str::parse::<u64>) {
            sum = sum.wrapping_add(v);
            tree.insert(v % 997, part.len());
        }
    }
    sum ^ tree.len() as u64
}

/// Kernel samples taken through a run, at least [`SAMPLE_EVERY`] apart.
pub struct Gauge {
    samples: Vec<u64>,
    last: Instant,
}

impl Gauge {
    /// Starts with one sample.
    pub fn new() -> Gauge {
        let mut gauge = Gauge {
            samples: Vec::new(),
            last: Instant::now(),
        };
        gauge.sample();
        gauge
    }

    /// Takes a sample now.
    pub fn sample(&mut self) {
        self.samples.push(kernel());
        self.last = Instant::now();
    }

    /// Takes a sample if the last one is [`SAMPLE_EVERY`] old; returns the
    /// mark of the operation that starts next.
    pub fn before_op(&mut self) -> usize {
        if self.last.elapsed() >= SAMPLE_EVERY {
            self.sample();
        }
        self.samples.len()
    }

    /// Scale factor for the operation that started at `mark`: reference
    /// kernel time over the median of the [`NEIGHBOURS`] samples before and
    /// after it.
    pub fn factor(&self, mark: usize) -> f64 {
        let from = mark.saturating_sub(NEIGHBOURS);
        let to = (mark + NEIGHBOURS).min(self.samples.len());
        let mut near: Vec<f64> = self.samples[from..to].iter().map(|&ns| ns as f64).collect();
        REFERENCE_NS / quantile(&mut near, 0.5)
    }
}

/// Kernel time in a fresh process: the median of five samples after one
/// that warms the allocator and caches up.
pub fn fresh_process_kernel_ns() -> u64 {
    kernel();
    let mut samples: Vec<f64> = (0..5).map(|_| kernel() as f64).collect();
    quantile(&mut samples, 0.5) as u64
}
