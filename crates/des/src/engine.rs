//! The engine facade: one binary min-heap of `(ticks, fuzz, seq)`-keyed
//! entries with their payloads inline, deterministic (optionally fuzzed)
//! tie-breaking, and counters downstream crates export through the
//! metrics registry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::key::DesTime;

/// Counters describing an engine's life so far. Snapshot via
/// [`Engine::stats`]; downstream crates fold these into
/// `cpm_des_events_total` and friends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events ever popped (fired).
    pub fired: u64,
    /// Peak number of concurrently pending events — also the heap's
    /// peak length, and its storage never shrinks, so a steady-state
    /// schedule/pop cycle below this mark allocates nothing.
    pub pool_slots: usize,
}

/// One queued event: its total-order key plus the payload. Ordering is
/// `(ticks, fuzz, seq)` — virtual time first, then the (normally zero)
/// schedule-fuzz hash, then insertion order — and reversed, so the
/// standard max-heap pops the earliest key. `seq` is unique per engine,
/// so the order is total and the payload never takes part in it.
struct Entry<K, E> {
    ticks: u64,
    fuzz: u64,
    seq: u64,
    at: K,
    event: E,
}

impl<K, E> Entry<K, E> {
    #[inline]
    fn key(&self) -> (u64, u64, u64) {
        (self.ticks, self.fuzz, self.seq)
    }
}

impl<K, E> PartialEq for Entry<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<K, E> Eq for Entry<K, E> {}

impl<K, E> PartialOrd for Entry<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K, E> Ord for Entry<K, E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A recording hook invoked on every fired event (see
/// [`Engine::set_observer`]).
pub type PopObserver<K, E> = Box<dyn FnMut(&K, &E)>;

/// A discrete-event scheduler: schedule `(time, payload)` pairs, pop
/// them back in deterministic `(time, fuzz, insertion)` order.
///
/// The queue is a `BinaryHeap` holding each payload inline with its key;
/// its storage grows to the peak number of pending events and is reused
/// from then on, so the steady-state schedule/pop cycle allocates nothing.
///
/// # Determinism
///
/// Same schedule calls in the same order always pop in the same order:
/// events at equal times pop in insertion order. [`Engine::with_fuzz`]
/// inserts a seeded hash *before* the insertion sequence,
/// deterministically permuting same-time events per seed while leaving
/// time order untouched — an order-dependence detector.
pub struct Engine<K: DesTime, E> {
    heap: BinaryHeap<Entry<K, E>>,
    seq: u64,
    fuzz_seed: Option<u64>,
    fired: u64,
    peak: usize,
    /// Recording hook called on every pop, after ordering is resolved
    /// but before the event is handed to the caller. `None` (the
    /// default) costs one branch per pop.
    observer: Option<PopObserver<K, E>>,
}

impl<K: DesTime, E> Engine<K, E> {
    /// An empty engine with deterministic FIFO tie-breaking.
    pub fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            seq: 0,
            fuzz_seed: None,
            fired: 0,
            peak: 0,
            observer: None,
        }
    }

    /// An engine whose same-time tie order is deterministically permuted
    /// by `seed` (time order is never affected).
    pub fn with_fuzz(seed: u64) -> Self {
        let mut e = Self::new();
        e.fuzz_seed = Some(seed);
        e
    }

    /// An engine with a recording hook installed from the start: `f` is
    /// called for every fired event, in pop order, with the event's time
    /// and payload. Observation never changes scheduling — the observer
    /// runs after ordering is resolved, and an engine without one pays
    /// only an `Option` check per pop (the obs-overhead gate relies on
    /// that).
    pub fn with_observer(f: impl FnMut(&K, &E) + 'static) -> Self {
        let mut e = Self::new();
        e.set_observer(f);
        e
    }

    /// Installs (or replaces) the recording hook; see
    /// [`Engine::with_observer`].
    pub fn set_observer(&mut self, f: impl FnMut(&K, &E) + 'static) {
        self.observer = Some(Box::new(f));
    }

    /// Removes the recording hook, returning pops to the unobserved
    /// fast path.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Schedules `event` at `at`; among same-time events, earlier
    /// schedules pop first (unless fuzzing permutes them).
    pub fn schedule(&mut self, at: K, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let fuzz = match self.fuzz_seed {
            Some(seed) => splitmix64(seq ^ seed),
            None => 0,
        };
        self.heap.push(Entry {
            ticks: at.ticks(),
            fuzz,
            seq,
            at,
            event,
        });
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the earliest pending event, or `None` when idle.
    pub fn pop(&mut self) -> Option<(K, E)> {
        let Entry { at, event, .. } = self.heap.pop()?;
        self.fired += 1;
        if let Some(obs) = self.observer.as_mut() {
            obs(&at, &event);
        }
        Some((at, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            scheduled: self.seq,
            fired: self.fired,
            pool_slots: self.peak,
        }
    }
}

impl<K: DesTime, E> Default for Engine<K, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: a bijective avalanche over `u64`, so distinct
/// sequence numbers always get distinct fuzz hashes (the permutation of
/// same-time events is total and deterministic per seed).
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Seconds;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut e: Engine<u64, &str> = Engine::new();
        e.schedule(5, "c");
        e.schedule(1, "a");
        e.schedule(5, "d");
        e.schedule(3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn steady_state_allocates_no_new_slots() {
        let mut e: Engine<Seconds, [u8; 64]> = Engine::new();
        for i in 0..64 {
            e.schedule(Seconds::new(i as f64), [0u8; 64]);
        }
        for i in 0..100_000 {
            let (t, ev) = e.pop().unwrap();
            e.schedule(Seconds::new(t.secs() + 1.0 + (i % 7) as f64), ev);
        }
        assert_eq!(e.stats().pool_slots, 64);
    }

    #[test]
    fn pool_slots_track_peak_pending_not_total() {
        let mut e: Engine<u64, u64> = Engine::new();
        for i in 0..10 {
            e.schedule(i, i);
        }
        while e.pop().is_some() {}
        for i in 0..1000 {
            e.schedule(i, i);
            let _ = e.pop();
        }
        assert_eq!(e.stats().pool_slots, 10);
        assert_eq!(e.stats().scheduled, 1010);
        assert_eq!(e.stats().fired, 1010);
    }

    #[test]
    fn fuzz_preserves_time_order_and_multiset() {
        let mut plain: Engine<u64, u32> = Engine::new();
        let mut fuzzed: Engine<u64, u32> = Engine::with_fuzz(0xFEED);
        for i in 0..500u32 {
            let t = (i / 10) as u64; // 10 events per timestamp
            plain.schedule(t, i);
            fuzzed.schedule(t, i);
        }
        let a: Vec<(u64, u32)> = std::iter::from_fn(|| plain.pop()).collect();
        let b: Vec<(u64, u32)> = std::iter::from_fn(|| fuzzed.pop()).collect();
        assert_ne!(a, b, "fuzz seed should permute same-time events");
        let times_a: Vec<u64> = a.iter().map(|(t, _)| *t).collect();
        let times_b: Vec<u64> = b.iter().map(|(t, _)| *t).collect();
        assert_eq!(times_a, times_b, "time order must be untouched");
        let mut pa = a.clone();
        let mut pb = b.clone();
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb, "fuzz must only permute, not drop or duplicate");
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<(u64, u32)> {
            let mut e: Engine<u64, u32> = Engine::with_fuzz(seed);
            for i in 0..200u32 {
                e.schedule((i / 20) as u64, i);
            }
            std::iter::from_fn(|| e.pop()).collect()
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(2), run(2));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn observer_sees_every_fired_event_in_pop_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut e: Engine<u64, u32> = Engine::with_observer(move |at, ev| {
            sink.borrow_mut().push((*at, *ev));
        });
        e.schedule(5, 50);
        e.schedule(1, 10);
        e.schedule(3, 30);
        let popped: Vec<(u64, u32)> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(popped, vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(*seen.borrow(), popped, "observer mirrors pop order");
    }

    #[test]
    fn observer_does_not_perturb_ordering_or_stats() {
        let run = |observed: bool| -> (Vec<(u64, u32)>, EngineStats) {
            let mut e: Engine<u64, u32> = Engine::with_fuzz(0xBEEF);
            if observed {
                e.set_observer(|_, _| {});
            }
            for i in 0..300u32 {
                e.schedule((i / 9) as u64, i);
            }
            let order = std::iter::from_fn(|| e.pop()).collect();
            (order, e.stats())
        };
        let (plain, plain_stats) = run(false);
        let (observed, observed_stats) = run(true);
        assert_eq!(plain, observed, "observation must not reorder events");
        assert_eq!(plain_stats, observed_stats);
    }

    #[test]
    fn clear_observer_stops_recording() {
        use std::cell::Cell;
        use std::rc::Rc;
        let count = Rc::new(Cell::new(0u32));
        let sink = Rc::clone(&count);
        let mut e: Engine<u64, ()> = Engine::with_observer(move |_, _| sink.set(sink.get() + 1));
        e.schedule(1, ());
        e.schedule(2, ());
        let _ = e.pop();
        e.clear_observer();
        let _ = e.pop();
        assert_eq!(count.get(), 1);
    }
}
