//! The deterministic event core of the asynchronous medium.
//!
//! Frames cross the simulated air through an
//! event-driven medium: every frame exchange is an *event* with a virtual
//! timestamp, and events fire in a total order that is a pure function of
//! the campaign seed — never of OS scheduling.  [`EventScheduler`] is the
//! ordered queue of pending events that makes this work: each link
//! registers as an *event source* with its own virtual-time lower bound,
//! and a source may fire only while it holds the global minimum
//! `(time, source)` stamp among the queued and still-possible events.
//! Sources that run on different OS threads therefore interleave in
//! exactly one order, and every fired event gets a deterministic sequence
//! number and a per-event RNG seed derived from it.
//!
//! The scheduler is *conservative* in the discrete-event-simulation sense: a
//! source's local clock never moves backwards, so once a source holds the
//! minimum stamp nothing can preempt it.  A source that is busy computing
//! (its fuzzer is mutating packets) simply holds the others at the
//! turnstile until it either fires or retires — wall-clock stalls never
//! reorder virtual time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::rng::splitmix64;

/// Identifier of one event source registered on an [`EventScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u16);

/// What one admitted event carries: its global sequence number and the seed
/// every random decision made *while firing it* must derive from.
#[derive(Debug, Clone, Copy)]
pub struct EventTicket {
    /// Position of this event in the global firing order (0-based).
    pub seq: u64,
    /// Per-event RNG seed: `splitmix64` over the scheduler seed, the firing
    /// order and the source, so no two events share a stream and the stream
    /// does not depend on how many events *other* sources fired in between.
    pub seed: u64,
    /// Whether the event was admitted on the sole-source fast path (no
    /// turnstile state was touched, so [`EventScheduler::end_event`] has
    /// nothing to restore).
    fast: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SourceState {
    /// Computing: the source's next event fires no earlier than its local
    /// lower-bound time.
    Idle,
    /// Blocked at the turnstile wanting to fire at its lower-bound time.
    Waiting,
    /// Admitted: currently firing an event.  At most one source at a time.
    Firing,
    /// Finished: never fires again and never holds anyone back.
    Retired,
}

#[derive(Debug)]
struct Source {
    /// Lower bound on the virtual time of this source's next event.  Never
    /// decreases.
    time_micros: u64,
    state: SourceState,
}

#[derive(Debug)]
struct SchedulerState {
    sources: Vec<Source>,
}

impl SchedulerState {
    /// Whether `id` holds the minimum `(time, id)` stamp among sources that
    /// could still fire earlier, and no other source is mid-event.
    fn may_fire(&self, id: SourceId) -> bool {
        let me = &self.sources[id.0 as usize];
        self.sources.iter().enumerate().all(|(i, s)| {
            if i == id.0 as usize || s.state == SourceState::Retired {
                return true;
            }
            if s.state == SourceState::Firing {
                return false;
            }
            (s.time_micros, i) > (me.time_micros, id.0 as usize)
        })
    }
}

/// The turnstile serializing concurrent event sources into one
/// deterministic firing order.
///
/// With a single live source the scheduler is a formality: the fast path
/// admits the event with one atomic increment — no lock, no wake-up — so
/// single-initiator campaigns pay essentially nothing per exchange.  The
/// fast path is sound because sources must be registered *before*
/// concurrent driving begins (the campaign harness connects every link,
/// then spawns the initiator threads): while `active == 1`, the sole live
/// source is by construction the caller, and there is nobody to order
/// against or wake.
#[derive(Debug)]
pub struct EventScheduler {
    state: Mutex<SchedulerState>,
    turn: Condvar,
    seed: u64,
    /// Sources that have not retired.  Kept outside the mutex so the
    /// sole-source fast path is a single atomic load.
    active: AtomicUsize,
    /// Global firing counter; shared by both admission paths so per-event
    /// seeds are identical no matter which path admitted an event.
    fired: AtomicU64,
}

impl EventScheduler {
    /// Creates a scheduler whose per-event seeds derive from `seed`.
    pub fn new(seed: u64) -> Self {
        EventScheduler {
            state: Mutex::new(SchedulerState {
                sources: Vec::new(),
            }),
            turn: Condvar::new(),
            seed,
            active: AtomicUsize::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Registers a new event source starting at the given virtual time.
    ///
    /// Registration must happen before concurrent driving begins: the
    /// sole-source fast path assumes the set of live sources only changes
    /// between events of the remaining source.
    pub fn register(&self, time_micros: u64) -> SourceId {
        // analyzer: allow(panic) — a poisoned scheduler lock means a driver
        // thread already panicked; propagating is the only sound move.  The
        // source-count cast is a structural capacity bound, not input data.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let id = SourceId(u16::try_from(state.sources.len()).expect("too many event sources"));
        state.sources.push(Source {
            time_micros,
            state: SourceState::Idle,
        });
        self.active.fetch_add(1, Ordering::Release);
        id
    }

    /// Number of sources that have not retired.
    pub fn active_sources(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    fn ticket(&self, seq: u64, fast: bool) -> EventTicket {
        EventTicket {
            seq,
            seed: splitmix64(self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            fast,
        }
    }

    /// Blocks until source `id` may fire an event at virtual time
    /// `time_micros`, then admits it.  The caller *must* pair this with
    /// [`EventScheduler::end_event`].
    ///
    /// # Panics
    /// Panics if the source is retired or `time_micros` is below the
    /// source's current lower bound (virtual time cannot run backwards).
    pub fn begin_event(&self, id: SourceId, time_micros: u64) -> EventTicket {
        if self.active.load(Ordering::Acquire) == 1 {
            // Sole live source — nothing to order against, nobody to wake.
            // Its stored lower bound may go stale, which is conservative: a
            // source registered later only ever waits *longer* on it, and
            // the bound refreshes on this source's next slow-path event.
            let seq = self.fired.fetch_add(1, Ordering::Relaxed);
            return self.ticket(seq, true);
        }
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        {
            let me = &mut state.sources[id.0 as usize];
            assert!(
                me.state == SourceState::Idle,
                "source {id:?} is not idle (state {:?})",
                me.state
            );
            assert!(
                time_micros >= me.time_micros,
                "source {id:?} tried to fire at {time_micros} < lower bound {}",
                me.time_micros
            );
            me.time_micros = time_micros;
            me.state = SourceState::Waiting;
        }
        // Raising this source's lower bound may be exactly what another
        // waiter was blocked on — wake the turnstile before queueing up.
        self.turn.notify_all();
        while !state.may_fire(id) {
            // analyzer: allow(panic) — lock poisoning propagates a panic.
            state = self.turn.wait(state).expect("scheduler poisoned");
        }
        state.sources[id.0 as usize].state = SourceState::Firing;
        let seq = self.fired.fetch_add(1, Ordering::Relaxed);
        self.ticket(seq, false)
    }

    /// Completes the event `ticket` admitted for source `id`, raising the
    /// source's lower bound to `time_micros` (the virtual time the exchange
    /// ended at) and waking the turnstile.
    pub fn end_event(&self, id: SourceId, time_micros: u64, ticket: &EventTicket) {
        if ticket.fast {
            // Fast-path admission touched no turnstile state.
            return;
        }
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let me = &mut state.sources[id.0 as usize];
        debug_assert_eq!(me.state, SourceState::Firing);
        me.time_micros = me.time_micros.max(time_micros);
        me.state = SourceState::Idle;
        drop(state);
        self.turn.notify_all();
    }

    /// Retires a source: it never fires again and stops holding the other
    /// sources back.  Idempotent.
    pub fn retire(&self, id: SourceId) {
        // analyzer: allow(panic) — lock poisoning propagates a driver panic.
        let mut state = self.state.lock().expect("scheduler poisoned");
        let me = &mut state.sources[id.0 as usize];
        if me.state != SourceState::Retired {
            me.state = SourceState::Retired;
            self.active.fetch_sub(1, Ordering::Release);
        }
        drop(state);
        self.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_source_never_blocks() {
        let sched = EventScheduler::new(1);
        let id = sched.register(0);
        for (i, t) in [0u64, 10, 25].into_iter().enumerate() {
            let ticket = sched.begin_event(id, t);
            sched.end_event(id, t + 5, &ticket);
            assert_eq!(ticket.seq, i as u64);
        }
        assert_eq!(sched.events_fired(), 3);
    }

    #[test]
    fn per_event_seeds_are_deterministic_and_distinct() {
        let run = || {
            let sched = EventScheduler::new(42);
            let id = sched.register(0);
            (0..4)
                .map(|i| {
                    let t = sched.begin_event(id, i * 10);
                    sched.end_event(id, i * 10 + 1, &t);
                    t.seed
                })
                .collect::<Vec<u64>>()
        };
        let a = run();
        assert_eq!(a, run());
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "event seeds must be distinct");
    }

    #[test]
    fn two_threads_interleave_by_virtual_time() {
        // Source 0 fires at times 0,2,4,...; source 1 at 1,3,5,...  The
        // admitted order must be by virtual time no matter how the OS
        // schedules the two threads.
        let sched = Arc::new(EventScheduler::new(7));
        let a = sched.register(0);
        let b = sched.register(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for (id, start) in [(a, 0u64), (b, 1u64)] {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    for k in 0..50u64 {
                        let t = start + 2 * k;
                        let ticket = sched.begin_event(id, t);
                        order.lock().unwrap().push((ticket.seq, t));
                        sched.end_event(id, t + 1, &ticket);
                    }
                    sched.retire(id);
                });
            }
        });
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 100);
        for (seq, t) in order.iter() {
            assert_eq!(*seq, *t, "event at virtual time {t} fired as #{seq}");
        }
    }

    #[test]
    fn retiring_releases_waiters() {
        let sched = Arc::new(EventScheduler::new(9));
        let early = sched.register(0);
        let late = sched.register(100);
        assert_eq!(sched.active_sources(), 2);
        std::thread::scope(|scope| {
            let s = Arc::clone(&sched);
            // The late source can only fire once the early one retires.
            let waiter = scope.spawn(move || {
                let ticket = s.begin_event(late, 100);
                s.end_event(late, 101, &ticket);
                s.retire(late);
                ticket.seq
            });
            let ticket = sched.begin_event(early, 0);
            sched.end_event(early, 1, &ticket);
            assert_eq!(ticket.seq, 0);
            sched.retire(early);
            assert_eq!(waiter.join().unwrap(), 1);
        });
        assert_eq!(sched.active_sources(), 0);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn time_cannot_run_backwards() {
        let sched = EventScheduler::new(0);
        let id = sched.register(50);
        // A second source forces the slow path, where the bound is checked.
        let _other = sched.register(1_000_000);
        sched.begin_event(id, 10);
    }
}
