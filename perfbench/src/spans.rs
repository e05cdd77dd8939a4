//! In-memory span recording around calls into each layer.
//!
//! A span is `(name, start, end, parent)`; the parent is the span that was
//! open on the same thread when it began. Spans are kept in memory while
//! the benchmark runs and written out once at the end as Chrome
//! trace-event JSON (loadable in Perfetto). Recording is off unless
//! [`enable`] was called, and a disabled [`span`] costs one atomic load.
//!
//! A span's layer is its name up to the first `.` (`estimate.lmo` belongs
//! to `estimate`). Its self time is its duration minus the part of that
//! interval its children cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use serde_json::Value;

/// Upper bound on kept spans; later ones are counted as dropped.
const MAX_SPANS: usize = 1 << 20;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Small per-thread number for the trace's thread track.
    pub tid: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        dropped: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(recorder().next_tid.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turns recording on or off.
pub fn enable(on: bool) {
    recorder().on.store(on, Ordering::SeqCst);
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    live: Option<(u64, u64, &'static str, u64)>,
}

/// Opens a span named `name` (a `<layer>.<what>` string).
pub fn span(name: &'static str) -> Guard {
    let r = recorder();
    if !r.on.load(Ordering::Relaxed) {
        return Guard { live: None };
    }
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start = r.epoch.elapsed().as_nanos() as u64;
    Guard {
        live: Some((id, parent, name, start)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.live.take() else {
            return;
        };
        let r = recorder();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(parent));
        let rec = SpanRec {
            id,
            parent,
            name,
            tid: tid(),
            start_ns,
            end_ns,
        };
        // A push never leaves the list half-updated, so a poisoned lock
        // still guards valid data (and `drop` must not panic).
        let mut spans = r.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        } else {
            r.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Removes and returns every recorded span, plus the number dropped.
pub fn take() -> (Vec<SpanRec>, u64) {
    let r = recorder();
    let spans = std::mem::take(&mut *r.spans.lock().unwrap_or_else(PoisonError::into_inner));
    (spans, r.dropped.swap(0, Ordering::Relaxed))
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent). Indexed like `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: `(spans, total ns, self ns)`, keyed by layer.
pub fn layer_table(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = table.entry(s.layer()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    table
}

/// Chrome trace-event JSON: one complete (`X`) event per span, with the
/// span and parent ids as args.
pub fn chrome_json(spans: &[SpanRec]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            crate::util::obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("cat", Value::Str(s.layer().to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::F64(s.start_ns as f64 / 1e3)),
                ("dur", Value::F64(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(s.tid)),
                (
                    "args",
                    crate::util::obj(vec![
                        ("id", Value::U64(s.id)),
                        ("parent", Value::U64(s.parent)),
                    ]),
                ),
            ])
        })
        .collect();
    crate::util::obj(vec![
        ("traceEvents", Value::Seq(events)),
        ("displayTimeUnit", Value::Str("ns".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x.y",
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 30),
            rec(3, 1, 20, 50),
            rec(4, 1, 90, 120),
            rec(5, 2, 12, 14),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 18, 30, 30, 2]);
        for (s, o) in spans.iter().zip(&own) {
            assert!(*o <= s.dur_ns());
        }
    }
}
