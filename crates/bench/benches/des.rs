//! The discrete-event engine and the replay capacity gate.
//!
//! Two properties make high-fidelity planning affordable enough to serve:
//!
//! 1. the binary-heap engine schedules and fires events in O(log n) on
//!    any timestamp distribution — the banded `u64` ticks of a long
//!    replay and the small `f64`-second queues of an estimation run
//!    alike — and its storage stops growing at the peak number of
//!    pending events, so a steady-state run allocates nothing per event;
//! 2. the threadless script path replays a 1000-rank canonical workload
//!    in seconds, not minutes — the CI-gated budget below.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
use cpm_core::rank::Rank;
use cpm_des::{Engine, Seconds};
use cpm_netsim::SimCluster;
use cpm_vmpi::{run_program, ScriptOp};
use cpm_workload::{gen, replay, truth_choices};

/// Hard budget for the 1000-rank data-parallel-train replay, seconds.
/// Measured around 40 ms in release on a dev machine; the 5 s gate is
/// wide enough for slow CI hardware while still catching an accidental
/// return to thread-per-rank or per-event boxing.
const REPLAY_BUDGET_SECS: f64 = 5.0;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("des/engine");
    g.throughput(Throughput::Elements(1));
    // Steady state: 64 outstanding events, banded offsets — the shape a
    // simulation kernel produces (sends/compute completions a short
    // horizon ahead of now).
    g.bench_function("schedule_pop_banded", |b| {
        let mut eng: Engine<u64, u64> = Engine::new();
        for i in 0..64u64 {
            eng.schedule(i, i);
        }
        b.iter(|| {
            let (now, v) = eng.pop().unwrap();
            eng.schedule(now + 64 + (v % 7), black_box(v));
        });
    });
    // The shape an estimation run produces: a handful of pending events
    // keyed by f64 seconds (bit-pattern ticks), starting at 0 and
    // advancing by about 10 µs per event.
    g.bench_function("schedule_pop_seconds_small", |b| {
        let mut eng: Engine<Seconds, u64> = Engine::new();
        for i in 0..16u64 {
            eng.schedule(Seconds::new(i as f64 * 1e-5), i);
        }
        b.iter(|| {
            let (now, v) = eng.pop().unwrap();
            let step = 1e-5 * (1.0 + (v % 5) as f64 * 0.25);
            eng.schedule(Seconds::new(now.secs() + 16.0 * step), black_box(v));
        });
    });
    g.finish();
}

fn engine_steady_state_allocates_no_slots() {
    // The no-allocation gate: the heap holds one entry per *concurrently
    // pending* event and reuses its storage forever. A million
    // schedule/pop cycles over 64 outstanding events must never push
    // the peak past 64.
    let mut eng: Engine<u64, u64> = Engine::new();
    for i in 0..64u64 {
        eng.schedule(i, i);
    }
    for _ in 0..1_000_000u64 {
        let (now, v) = eng.pop().unwrap();
        eng.schedule(now + 64 + (v % 7), v);
    }
    let stats = eng.stats();
    assert_eq!(
        stats.pool_slots, 64,
        "steady-state engine must reuse its storage, not allocate: \
         {} slots for 64 outstanding events",
        stats.pool_slots
    );
    eprintln!(
        "des/engine: {} events through 64 pool slots (no per-event allocation)",
        stats.fired
    );
}

fn runner_path_recycles_event_slots() {
    // The vmpi runner path: a 64-rank ring shifts 256 messages per rank
    // through the kernel. Peak pending events (== pool slots) must stay
    // far below the total processed — per-event heap allocation would
    // show up here as pool_slots tracking events.
    let n = 64usize;
    let rounds = 256usize;
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 7);
    let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 7);
    let programs: Vec<Vec<ScriptOp>> = (0..n)
        .map(|r| {
            let right = Rank::from((r + 1) % n);
            let left = Rank::from((r + n - 1) % n);
            (0..rounds)
                .flat_map(|_| {
                    [
                        ScriptOp::Send {
                            dst: right,
                            bytes: 1024,
                        },
                        ScriptOp::Recv { src: left },
                    ]
                })
                .collect()
        })
        .collect();
    let out = run_program(&cl, &programs).unwrap();
    assert_eq!(out.stats.msgs_received, n * rounds);
    assert!(
        out.stats.pool_slots * 8 <= out.stats.events,
        "runner path must recycle event slots: {} slots for {} events",
        out.stats.pool_slots,
        out.stats.events
    );
    eprintln!(
        "des/runner: {} events through {} pool slots",
        out.stats.events, out.stats.pool_slots
    );
}

fn thousand_rank_replay_under_budget() {
    // The CI gate of ISSUE 8: one data-parallel training step on 1000
    // ranks, replayed through the DES at full fidelity, in seconds.
    let n = 1000usize;
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 2009);
    let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1);
    let trace = gen::canonical("train", n, 16 * 1024, 2).unwrap();
    let choices = truth_choices(&cl, &trace);
    let t0 = Instant::now();
    let report = replay(&cl, &trace, &choices).unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert!(report.makespan > 0.0);
    assert_eq!(report.msgs_sent, report.msgs_received);
    assert!(
        secs < REPLAY_BUDGET_SECS,
        "1000-rank train replay took {secs:.2} s, budget {REPLAY_BUDGET_SECS} s"
    );
    eprintln!(
        "des/replay: 1000-rank train step in {:.0} ms ({} events, {} msgs)",
        secs * 1e3,
        report.events,
        report.msgs_sent
    );
}

fn bench_replay(c: &mut Criterion) {
    // Criterion samples a smaller replay (100 ranks) so the measured
    // distribution is meaningful; the 1000-rank run is a single gated
    // execution below.
    let n = 100usize;
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 2009);
    let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1);
    let trace = gen::canonical("train", n, 16 * 1024, 2).unwrap();
    let choices = truth_choices(&cl, &trace);
    let mut g = c.benchmark_group("des/replay");
    g.sample_size(10);
    g.bench_function("train_100_ranks", |b| {
        b.iter(|| replay(&cl, &trace, &choices).unwrap());
    });
    g.finish();

    engine_steady_state_allocates_no_slots();
    runner_path_recycles_event_slots();
    thousand_rank_replay_under_budget();
}

criterion_group!(benches, bench_engine, bench_replay);
criterion_main!(benches);
