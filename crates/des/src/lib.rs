//! cpm-des — the unified discrete-event simulation engine.
//!
//! One scheduler core backs every event loop in the workspace: the
//! netsim kernel, the vmpi runner's script executor, and the workload
//! planner's analytic machine all schedule through [`Engine`] instead of
//! maintaining private queues. The pieces:
//!
//! * **Binary-heap scheduling** — one `BinaryHeap` min-queue whose
//!   entries carry their payload inline, O(log n) per schedule and pop
//!   whatever the timestamp distribution. Keys are any [`DesTime`]:
//!   `u64` ticks, [`Seconds`], or [`cpm_core::Time`] (f64 seconds map
//!   order-preservingly onto ticks via their IEEE-754 bit patterns — no
//!   quantization). The heap's storage never shrinks, so the
//!   steady-state schedule/fire cycle allocates nothing; its peak length
//!   is exported so benches can assert it.
//! * **Deterministic tie-breaking** — same-time events pop in insertion
//!   order. Replays are bit-identical by construction.
//! * **Seeded schedule fuzzing** — [`Engine::with_fuzz`] permutes
//!   same-time events deterministically per seed without touching time
//!   order, turning "does the answer depend on tie order?" into a
//!   property test.
//! * **Recording hook** — [`Engine::with_observer`] installs a callback
//!   that sees every fired event in pop order (the seam the netsim
//!   kernel uses for DES timeline capture). Observation never changes
//!   scheduling, and an engine without an observer pays one branch per
//!   pop.
//!
//! [`EngineStats`] exposes scheduled/fired counts and the peak number of
//! pending events so downstream crates can feed the unified metrics
//! registry (`cpm_des_events_total` and friends).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod key;

pub use engine::{Engine, EngineStats, PopObserver};
pub use key::{DesTime, Seconds};
