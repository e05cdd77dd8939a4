//! `replay-plan`: the four canonical traces at hundreds to 1000 ranks,
//! planned analytically under LMO and Hockney from ground-truth
//! parameters, replayed on the threadless DES script path, and compared.
//!
//! The DES engine, lowering and the critical-path planner carry the load;
//! the thread-per-rank kernel does nothing.

use std::time::Instant;

use cpm_cluster::{ClusterConfig, ClusterSpec};
use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::units::{Bytes, KIB};
use cpm_models::{GatherEmpirics, LmoExtended, LogGp, PLogP};
use cpm_netsim::SimCluster;
use cpm_stats::PiecewiseLinear;
use cpm_workload::{choose, compare, gen, lower, plan, replay, replay_traced, PlanModel, Trace};

use crate::spans::{self, timed};
use crate::util::{median, quantile, secs, OneCpu, Rng};
use crate::{Opts, Outcome};

/// The canonical trace kinds, in report order.
pub const KINDS: [&str; 4] = ["train", "pipeline", "moe", "halo"];

/// Ranks per kind. MoE's alltoall is quadratic in `n`, so it runs smaller
/// to keep it from swamping the others.
pub const RANKS: [usize; 4] = [1000, 1000, 96, 1000];

/// The `iters` argument of `gen::canonical` per kind: layers,
/// microbatches, MoE layers and halo steps.
pub const ITERS: [usize; 4] = [2, 4, 1, 2];

/// Relative measurement noise of the replayed clusters. Without it LMO
/// from ground truth reproduces the replay to rounding error; with it the
/// plan error measures the model against a noisy machine, as in the paper.
const NOISE: f64 = 0.02;

/// Analytic plans per trace and model in one pass.
const PLANS_PER_PASS: usize = 4;

/// One generated trace and the cluster it runs on.
pub struct Case {
    /// `train`, `pipeline`, `moe` or `halo`.
    pub kind: &'static str,
    /// The trace.
    pub trace: Trace,
    /// The cluster configuration (seeded ground truth, noisy, no MPI
    /// irregularities).
    pub config: ClusterConfig,
}

/// The four cases for `seed`: message sizes and cluster ground truth
/// follow the seed, trace shapes and rank counts do not, so every seed
/// asks for the same amount of work.
pub fn inputs(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 0x7e91a1);
    KINDS
        .iter()
        .zip(RANKS.into_iter().zip(ITERS))
        .map(|(&kind, (n, iters))| {
            let m: Bytes = (8 + rng.below(57) as u64) * KIB;
            let trace = gen::canonical(kind, n, m, iters).expect("canonical kind");
            let cluster_seed = rng.next_u64();
            let config = ClusterConfig {
                noise_rel: NOISE,
                ..ClusterConfig::ideal(ClusterSpec::homogeneous(n), cluster_seed)
            };
            Case {
                kind,
                trace,
                config,
            }
        })
        .collect()
}

/// LMO and Hockney built from the cluster's ground truth (no estimation).
fn truth_models(sim: &SimCluster) -> (PlanModel, PlanModel) {
    let t = &sim.truth;
    let lmo = LmoExtended::new(
        t.c.clone(),
        t.t.clone(),
        t.l.clone(),
        t.beta.clone(),
        GatherEmpirics::none(),
    );
    let hockney = lmo.to_hockney();
    (PlanModel::Lmo(lmo), PlanModel::Hockney(hockney))
}

/// Everything set up for one case.
struct Ready {
    kind: &'static str,
    trace: Trace,
    sim: SimCluster,
    lmo: PlanModel,
    hockney: PlanModel,
}

/// What one pass measured for one case.
#[derive(Default)]
struct CaseRun {
    plan_us: Vec<f64>,
    replay_s: f64,
    events: usize,
    makespan: f64,
    lmo_makespan: f64,
    err_lmo: f64,
    err_hockney: f64,
    compare_us: f64,
}

fn run_case(r: &Ready) -> Result<CaseRun, String> {
    let mut out = CaseRun::default();
    let mut lmo_plan = None;
    let mut hockney_plan = None;
    for _ in 0..PLANS_PER_PASS {
        for (model, slot) in [(&r.lmo, &mut lmo_plan), (&r.hockney, &mut hockney_plan)] {
            let t = Instant::now();
            let p = timed("workload.plan", || plan(&r.trace, model))
                .map_err(|e| format!("{} plan: {e}", r.kind))?;
            out.plan_us.push(secs(t) * 1e6);
            *slot = Some(p);
        }
    }
    let (lmo_plan, hockney_plan) = (lmo_plan.unwrap(), hockney_plan.unwrap());
    let choices = choose(&r.trace, &r.lmo);
    let t = Instant::now();
    let report = timed("des.replay", || replay(&r.sim, &r.trace, &choices))
        .map_err(|e| format!("{} replay: {e}", r.kind))?;
    out.replay_s = secs(t);
    out.events = report.events;
    out.makespan = report.makespan;
    out.lmo_makespan = lmo_plan.makespan;
    let t = Instant::now();
    let (c_lmo, c_hockney) = timed("workload.compare", || {
        (
            compare(&r.trace, &lmo_plan, &report),
            compare(&r.trace, &hockney_plan, &report),
        )
    });
    out.compare_us = secs(t) * 1e6 / 2.0;
    out.err_lmo = 100.0 * c_lmo.rel_error.abs();
    out.err_hockney = 100.0 * c_hockney.rel_error.abs();
    Ok(out)
}

/// Pinned DES makespans, `seed kind bits` per line (`f64::to_bits` in hex).
const REFS: &str = include_str!("../refs/replay_plan.txt");

/// The pinned makespan of `kind` for `seed`, if the table has that seed.
pub fn pinned(seed: u64, kind: &str) -> Option<f64> {
    REFS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (s, k, bits) = (f.next()?, f.next()?, f.next()?);
        (s.parse::<u64>().ok()? == seed && k == kind)
            .then(|| u64::from_str_radix(bits, 16).ok().map(f64::from_bits))?
    })
}

/// The reference lines for `seed`: one replay per kind.
pub fn reference_lines(seed: u64) -> Result<Vec<String>, String> {
    inputs(seed)
        .into_iter()
        .map(|case| {
            let sim = SimCluster::from_config(&case.config);
            let (lmo, _) = truth_models(&sim);
            let choices = choose(&case.trace, &lmo);
            let report = replay(&sim, &case.trace, &choices).map_err(|e| e.to_string())?;
            Ok(format!(
                "{seed} {} {:016x}",
                case.kind,
                report.makespan.to_bits()
            ))
        })
        .collect()
}

fn setup(seed: u64) -> Vec<Ready> {
    inputs(seed)
        .into_iter()
        .map(|case| {
            let sim = SimCluster::from_config(&case.config);
            let (lmo, hockney) = truth_models(&sim);
            Ready {
                kind: case.kind,
                trace: case.trace,
                sim,
                lmo,
                hockney,
            }
        })
        .collect()
}

/// Per-call cost of each model's point-to-point prediction, ns.
fn predict_probe(r: &Ready) -> [f64; 4] {
    let t = &r.sim.truth;
    let n = r.sim.n();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (c, per_byte) = (mean(&t.c), mean(&t.t));
    let (mut l_sum, mut inv_beta, mut pairs) = (0.0, 0.0, 0.0);
    for i in 0..n.min(64) {
        for j in 0..n.min(64) {
            if i != j {
                let (a, b) = (Rank(i as u32), Rank(j as u32));
                l_sum += t.l.get(a, b);
                inv_beta += 1.0 / t.beta.get(a, b);
                pairs += 1.0;
            }
        }
    }
    let (l, g) = (l_sum / pairs, 2.0 * per_byte + inv_beta / pairs);
    let loggp = LogGp {
        l,
        o: c,
        g: c,
        big_g: g,
        p: n,
    };
    let line = |a: f64, b: f64| PiecewiseLinear::new(vec![(0.0, a), (1e6, a + 1e6 * b)]);
    let plogp = PLogP {
        l,
        os: line(c, per_byte),
        or: line(c, per_byte),
        g: line(2.0 * c, g),
        p: n,
    };
    let PlanModel::Lmo(lmo) = &r.lmo else {
        unreachable!("truth_models builds LMO first")
    };
    let hockney = lmo.to_hockney();
    let models: [&dyn PointToPoint; 4] = [lmo, &hockney, &loggp, &plogp];
    let names = [
        "models.predict_lmo",
        "models.predict_hockney",
        "models.predict_loggp",
        "models.predict_plogp",
    ];
    const CALLS: usize = 200_000;
    let mut out = [0.0; 4];
    for (k, model) in models.iter().enumerate() {
        let _g = spans::span(names[k]);
        let t = Instant::now();
        let mut acc = 0.0;
        for i in 0..CALLS {
            let src = Rank((i % n) as u32);
            let dst = Rank(((i * 7 + 1) % n) as u32);
            acc += model.p2p(src, dst, (i as u64 & 0xffff) + 1);
        }
        std::hint::black_box(acc);
        out[k] = secs(t) * 1e9 / CALLS as f64;
    }
    out
}

/// Runs the workload for `opts.seconds` of passes.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    // Single-threaded work; one CPU keeps it from migrating mid-run.
    let _one_cpu = OneCpu::pin();
    // Set-up is timed a few times here and once more before every pass,
    // so its median spans the run like the other metrics do.
    let mut setups = Vec::new();
    let mut ready = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let r = timed("workload.setup", || setup(opts.seed));
        setups.push(secs(t));
        r
    };
    for _ in 0..opts.setup_reps(3) {
        ready = set_up(&mut setups);
    }

    // Correctness before timing: a traced replay must report exactly what
    // the untraced one does, and both must match the pinned makespan.
    let mut reference = Vec::new();
    for r in &ready {
        out.attempted += 1;
        let choices = choose(&r.trace, &r.lmo);
        let plain = replay(&r.sim, &r.trace, &choices);
        let traced = replay_traced(&r.sim, &r.trace, &choices).map(|(rep, _)| rep);
        match (plain, traced) {
            (Ok(a), Ok(b)) if a == b => {
                if let Some(pin) = pinned(opts.seed, r.kind) {
                    if pin.to_bits() != a.makespan.to_bits() {
                        out.fail(format!(
                            "{} makespan {} differs from the pinned {pin}",
                            r.kind, a.makespan
                        ));
                    }
                }
                reference.push(a.makespan);
            }
            (Ok(_), Ok(_)) => {
                out.fail(format!("{}: traced replay report differs", r.kind));
                reference.push(f64::NAN);
            }
            (Err(e), _) | (_, Err(e)) => {
                out.fail(format!("{}: replay failed: {e}", r.kind));
                reference.push(f64::NAN);
            }
        }
    }
    if pinned(opts.seed, KINDS[0]).is_none() {
        eprintln!(
            "perfbench: seed {} has no pinned replay-plan makespans; \
             checking traced == untraced and pass-to-pass identity only",
            opts.seed
        );
    }

    let start = Instant::now();
    let mut passes: Vec<Vec<CaseRun>> = Vec::new();
    while passes.len() < 2 || secs(start) < opts.seconds {
        drop(set_up(&mut setups));
        let _g = spans::span("workload.pass");
        let mut pass = Vec::new();
        for (r, want) in ready.iter().zip(&reference) {
            out.attempted += 1;
            match run_case(r) {
                Ok(c) => {
                    if c.makespan.to_bits() != want.to_bits() {
                        out.fail(format!("{} makespan changed between passes", r.kind));
                    }
                    pass.push(c);
                }
                Err(e) => out.fail(e),
            }
        }
        passes.push(pass);
        if out.failed > 0 {
            break;
        }
    }
    out.metric("setup_s", "s", median(&setups));
    if passes.iter().any(|p| p.len() != KINDS.len()) {
        return out;
    }

    // Plan cost differs several-fold between the traces, so quantiles
    // are taken per trace and then averaged: a pooled median would sit on
    // the boundary between two traces and jump with tiny timing changes.
    let per_kind =
        |stat: &dyn Fn(usize) -> f64| (0..KINDS.len()).map(stat).sum::<f64>() / KINDS.len() as f64;
    let plan_p50 = per_kind(&|k| {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| p[k].plan_us.iter().copied())
            .collect();
        median(&v)
    });
    // The tail is each pass's p90, then the median over passes: a p90
    // pooled over the run moves whenever more than a tenth of the run
    // falls in one of the host's slow spells.
    let plan_p90 = per_kind(&|k| {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| quantile(&p[k].plan_us, 0.9))
            .collect();
        median(&v)
    });
    let events: usize = passes.iter().flat_map(|p| p.iter().map(|c| c.events)).sum();
    let replay_s: f64 = passes
        .iter()
        .flat_map(|p| p.iter().map(|c| c.replay_s))
        .sum();
    let first = &passes[0];
    let plan_err = first.iter().map(|c| c.err_lmo).fold(0.0, f64::max);

    out.metric("p50_us", "us", plan_p50);
    // The mean, not the median, over passes: when a run is split between
    // the host's fast and slow spells, a median jumps from one to the
    // other while the mean follows the split.
    out.metric("heavy_ms", "ms", replay_s * 1e3 / passes.len() as f64);
    out.metric("rate_per_s", "1/s", events as f64 / replay_s);

    out.detail("replay_events_per_s", "1/s", events as f64 / replay_s);
    out.detail("plan_us", "us", plan_p50);
    out.detail("tail_us", "us", plan_p90);
    out.detail("plan_err_pct", "%", plan_err);
    out.detail("passes", "count", passes.len() as f64);

    out.layer(
        "des.events",
        "count",
        first.iter().map(|c| c.events).sum::<usize>() as f64,
    );
    out.layer("des.ns_per_event", "ns", replay_s * 1e9 / events as f64);
    out.layer("workload.plan_err_pct", "%", plan_err);
    let compare_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.iter().map(|c| c.compare_us))
        .collect();
    out.layer("workload.compare_us", "us", median(&compare_us));
    for (k, kind) in KINDS.iter().enumerate() {
        let plans: Vec<f64> = passes
            .iter()
            .flat_map(|p| p[k].plan_us.iter().copied())
            .collect();
        let replays: Vec<f64> = passes.iter().map(|p| p[k].replay_s * 1e3).collect();
        out.layer(&format!("workload.plan_us.{kind}"), "us", median(&plans));
        out.layer(
            &format!("workload.replay_ms.{kind}"),
            "ms",
            median(&replays),
        );
        out.layer(&format!("models.err_pct.{kind}.lmo"), "%", first[k].err_lmo);
        out.layer(
            &format!("models.err_pct.{kind}.hockney"),
            "%",
            first[k].err_hockney,
        );
    }
    if opts.trace {
        let mut lower_us = Vec::new();
        for r in &ready {
            let choices = choose(&r.trace, &r.lmo);
            let t = Instant::now();
            let lowered = timed("workload.lower", || lower(&r.trace, &choices));
            lower_us.push(secs(t) * 1e6);
            std::hint::black_box(lowered);
        }
        out.layer("workload.lower_us", "us", median(&lower_us));
        let ns = predict_probe(&ready[0]);
        for (k, name) in ["lmo", "hockney", "loggp", "plogp"].iter().enumerate() {
            out.layer(&format!("models.predict_ns.{name}"), "ns", ns[k]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(11);
        let b = inputs(11);
        let c = inputs(12);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.trace.hash(), y.trace.hash());
            assert_eq!(x.config, y.config);
            assert_ne!(x.config, z.config);
        }
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, z)| x.trace.hash() != z.trace.hash()));
    }

    #[test]
    fn work_does_not_depend_on_the_seed() {
        let a = inputs(1);
        let b = inputs(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.n, y.trace.n);
            assert_eq!(x.trace.ops.len(), y.trace.ops.len());
        }
    }
}
