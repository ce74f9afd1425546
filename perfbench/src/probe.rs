//! Per-layer attribution, timed from outside the program.
//!
//! Nothing here changes what the fuzzer does.  The probes sit at seams the
//! public API already offers, and they only time and count:
//!
//! * [`Probe::wrap`] wraps the tool a campaign runs (installed through
//!   `CampaignBuilder::fuzzer`, or the sweep service's `customize` hook)
//!   and records one [`ToolSpan`] per `Fuzzer::fuzz` call: its wall time,
//!   the allocations made on the calling thread, the malformed packets
//!   the tool reported, and a snapshot of the link tap taken after the
//!   span has closed.
//! * [`replay_endpoint`] splits the device side out of a tool span.  It
//!   rebuilds the target from its profile and per-target seed, feeds it the
//!   span's transmitted frames in order and times the
//!   `VirtualDevice::receive` calls.  The replayed answers must equal the
//!   captured ones, which shows the replay did the work the campaign did.
//! * [`CountingAlloc`] counts heap allocations while a traced run is on,
//!   per thread and across all threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use btcore::{BdAddr, FuzzRng, LinkSlot, LinkType, SimClock};
use btstack::profiles::{DeviceProfile, ProfileId};
use hci::device::VirtualDevice;
use hci::link::{Direction, PacketRecord};
use l2fuzz::campaign::FuzzerSpawner;
use l2fuzz::{FuzzCtx, FuzzReport, Fuzzer};

/// Global allocator that counts allocations once [`enable_counting`] ran.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // Statistics only: the counters publish no other data, so `Relaxed`.
    if COUNTING.load(Ordering::Relaxed) {
        ALL_THREADS.fetch_add(1, Ordering::Relaxed);
        // `try_with`: the slot is gone while an exiting thread frees memory.
        let _ = THIS_THREAD.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every operation is forwarded unchanged to `System`.  Counting
// touches an atomic and a const-initialised thread-local `Cell` without a
// destructor; neither allocates, so the allocator never re-enters itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts counting allocations (traced runs only; untraced runs pay one
/// relaxed load per allocation).
pub fn enable_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocations counted so far, across all threads.
pub fn all_thread_allocs() -> u64 {
    ALL_THREADS.load(Ordering::Relaxed)
}

/// Allocations counted so far on the calling thread.
pub fn this_thread_allocs() -> u64 {
    THIS_THREAD.with(Cell::get)
}

/// One `Fuzzer::fuzz` call, as seen from outside the tool.
pub struct ToolSpan {
    /// Wall time of the call.
    pub ns: u64,
    /// Allocations the call made on its thread.
    pub allocs: u64,
    /// Time and allocations the probe itself spent after the call (tap
    /// snapshot, span bookkeeping); subtracted from the enclosing operation.
    pub probe_ns: u64,
    /// See [`ToolSpan::probe_ns`].
    pub probe_allocs: u64,
    /// Malformed packets the tool reported sending.
    pub malformed: u64,
    /// Per-target seed of the campaign (drives the device's own RNG).
    pub seed: u64,
    /// Address of the target the tool fuzzed.
    pub addr: BdAddr,
    /// Transport of the fuzzed link.
    pub link_type: LinkType,
    /// Everything the link tap captured.
    pub records: Vec<PacketRecord>,
}

/// Collects the tool spans of every campaign run through its wrappers,
/// whichever thread runs them.
#[derive(Clone, Default)]
pub struct Probe {
    spans: Arc<Mutex<Vec<ToolSpan>>>,
}

impl Probe {
    /// Wraps a tool spawner so every tool it creates reports its spans here.
    pub fn wrap(&self, spawn: FuzzerSpawner) -> FuzzerSpawner {
        let spans = self.spans.clone();
        Arc::new(move || {
            Box::new(TimedFuzzer {
                inner: spawn(),
                spans: spans.clone(),
            }) as Box<dyn Fuzzer>
        })
    }

    /// Removes and returns the spans recorded so far.
    pub fn take(&self) -> Vec<ToolSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned by a panic"))
    }
}

struct TimedFuzzer {
    inner: Box<dyn Fuzzer>,
    spans: Arc<Mutex<Vec<ToolSpan>>>,
}

impl Fuzzer for TimedFuzzer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fuzz(&mut self, ctx: &mut FuzzCtx<'_>) -> Option<FuzzReport> {
        let allocs_before = this_thread_allocs();
        let start = Instant::now();
        let report = self.inner.fuzz(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        let allocs = this_thread_allocs() - allocs_before;

        let probe_start = Instant::now();
        let probe_allocs_before = this_thread_allocs();
        let span = ToolSpan {
            ns,
            allocs,
            probe_ns: 0,
            probe_allocs: 0,
            malformed: report.as_ref().map_or(0, |r| r.malformed_sent),
            seed: ctx.seed,
            addr: ctx.meta.addr,
            link_type: ctx.link_type(),
            records: ctx.tap.lock().clone(),
        };
        let mut spans = self.spans.lock().expect("span log poisoned by a panic");
        spans.push(span);
        if let Some(span) = spans.last_mut() {
            span.probe_ns = probe_start.elapsed().as_nanos() as u64;
            span.probe_allocs = this_thread_allocs() - probe_allocs_before;
        }
        report
    }
}

/// Device-side cost of one tool span, measured by replay.
pub struct EndpointReplay {
    /// Wall time of the replayed `receive` calls.
    pub ns: u64,
    /// Allocations they made.
    pub allocs: u64,
}

/// Replays a tool span's transmitted frames against a fresh copy of its
/// target and times the device's handling of them.
///
/// The copy is built the way a campaign builds it — profile, per-target
/// seed, auto-restart setting, primary link slot — and is driven as the
/// medium drives it: frames reach it only while its Bluetooth service
/// runs.  Fault plans are not modelled; the workloads use ideal links.
///
/// # Errors
/// Returns a description when the target is unknown or a replayed answer
/// differs from the captured one.
pub fn replay_endpoint(span: &ToolSpan, auto_restart: bool) -> Result<EndpointReplay, String> {
    let profile = ProfileId::ALL
        .iter()
        .chain(ProfileId::EXTENDED.iter())
        .map(|id| DeviceProfile::table5(*id))
        .find(|p| p.addr == span.addr)
        .ok_or_else(|| format!("no profile has address {}", span.addr))?;
    let mut device = profile.build(SimClock::new(), FuzzRng::seed_from(span.seed));
    device.set_auto_restart(auto_restart);
    device.attach_link(LinkSlot::PRIMARY, span.link_type);

    // One exchange per transmitted frame: the frame and the answers
    // captured before the next transmission.
    let mut sent = Vec::new();
    let mut captured: Vec<Vec<_>> = Vec::new();
    for record in &span.records {
        match record.direction {
            Direction::Tx => {
                sent.push(&record.frame);
                captured.push(Vec::new());
            }
            Direction::Rx => captured
                .last_mut()
                .ok_or("capture starts with a received frame")?
                .push(&record.frame),
        }
    }

    let mut answers = Vec::with_capacity(sent.len());
    let allocs_before = this_thread_allocs();
    let start = Instant::now();
    for frame in &sent {
        answers.push(if device.bluetooth_alive() {
            device.receive(LinkSlot::PRIMARY, frame)
        } else {
            Vec::new()
        });
    }
    let ns = start.elapsed().as_nanos() as u64;
    let allocs = this_thread_allocs() - allocs_before;

    for (exchange, (got, want)) in answers.iter().zip(&captured).enumerate() {
        if !got.iter().eq(want.iter().copied()) {
            return Err(format!(
                "endpoint replay of {} diverged at exchange {exchange}",
                profile.id
            ));
        }
    }
    Ok(EndpointReplay { ns, allocs })
}
