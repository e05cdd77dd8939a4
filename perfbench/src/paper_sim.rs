//! `paper-sim`: the paper's 16-node LAM cluster, cold-estimated under all
//! four models, then observed over a sweep of scatter/gather sizes.
//!
//! Almost all host time goes to the thread-per-rank netsim kernel, reached
//! through `cpm-estimate` and `collectives::measure`; the planner and the
//! serving stack do no work here.

use std::time::Instant;

use cpm_cluster::ClusterConfig;
use cpm_collectives::measure;
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::{Bytes, KIB};
use cpm_estimate::lmo::estimate_lmo_full;
use cpm_estimate::{estimate_hockney_het, estimate_loggp, estimate_plogp, EstimateConfig};
use cpm_models::{GatherEmpirics, LmoExtended};
use cpm_netsim::SimCluster;
use cpm_vmpi::{run_program, ScriptOp};

use crate::spans::{self, timed};
use crate::util::{fnv, fnv_f64, median, quantile, secs, OneCpu, Usage};
use crate::{Opts, Outcome};

/// Series length of every estimation experiment.
pub const EST_REPS: usize = 2;
/// Observed repetitions per (collective, size) sweep point.
pub const OBS_REPS: usize = 4;

/// The sweep: across the gather escalation band (4 KB – 65 KB) and the
/// 64 KB scatter leap.
pub const SIZES: [Bytes; 8] = [
    KIB,
    8 * KIB,
    24 * KIB,
    48 * KIB,
    62 * KIB,
    66 * KIB,
    96 * KIB,
    160 * KIB,
];

/// The five observed collectives, in metric-name order.
pub const COLLECTIVES: [&str; 5] = [
    "linear_scatter",
    "binomial_scatter",
    "linear_gather",
    "binomial_gather",
    "optimized_gather",
];

/// The generated inputs: the cluster and the estimation settings.
pub struct Inputs {
    /// The simulated cluster.
    pub config: ClusterConfig,
    /// Estimation settings (series length, seed).
    pub est: EstimateConfig,
}

/// The inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        config: ClusterConfig::paper_lam(seed),
        est: EstimateConfig {
            reps: EST_REPS,
            ..EstimateConfig::with_seed(seed ^ 0xbead)
        },
    }
}

/// What one pass measured.
struct Pass {
    /// Host seconds per estimator: Hockney, LogGP, PLogP, LMO.
    est_s: [f64; 4],
    /// Simulator runs the four estimators made.
    est_runs: usize,
    /// Fingerprint of every estimated parameter.
    params: u64,
    /// Fingerprint of every observation.
    observations: u64,
    /// Host seconds per repetition for each sweep call, by collective.
    per_rep_s: Vec<(usize, f64)>,
    /// Host seconds of the whole sweep, and repetitions it simulated.
    sweep_s: f64,
    sweep_reps: usize,
    /// Process CPU and context switches over the sweep.
    sweep_usage: Usage,
    /// Mean |relative error| of LMO vs the observed scatters, %.
    err_pct: f64,
    /// Host seconds of the whole pass.
    pass_s: f64,
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

fn one_pass(sim: &SimCluster, est: &EstimateConfig) -> Result<Pass, String> {
    let _g = spans::span("sim.pass");
    let t_pass = Instant::now();
    let root = Rank(0);
    let mut est_s = [0.0; 4];
    let mut est_runs = 0;
    let mut fp = String::new();

    let t = Instant::now();
    let hockney = timed("estimate.hockney", || estimate_hockney_het(sim, est))
        .map_err(|e| format!("hockney: {e}"))?;
    est_s[0] = secs(t);
    est_runs += hockney.runs;
    fp.push_str(&json(&hockney.model));

    let t = Instant::now();
    let loggp =
        timed("estimate.loggp", || estimate_loggp(sim, est)).map_err(|e| format!("loggp: {e}"))?;
    est_s[1] = secs(t);
    est_runs += loggp.runs;
    fp.push_str(&json(&loggp.model));

    let t = Instant::now();
    let plogp =
        timed("estimate.plogp", || estimate_plogp(sim, est)).map_err(|e| format!("plogp: {e}"))?;
    est_s[2] = secs(t);
    est_runs += plogp.runs;
    fp.push_str(&json(&plogp.model));

    let t = Instant::now();
    let lmo =
        timed("estimate.lmo", || estimate_lmo_full(sim, est)).map_err(|e| format!("lmo: {e}"))?;
    est_s[3] = secs(t);
    est_runs += lmo.runs;
    fp.push_str(&json(&lmo.model));
    let lmo = lmo.model;

    let tree = BinomialTree::new(sim.n(), root);
    let mut per_rep_s = Vec::new();
    let mut observed = Vec::new();
    let mut errs = Vec::new();
    let usage0 = Usage::now();
    let t_sweep = Instant::now();
    for &m in &SIZES {
        for (k, name) in COLLECTIVES.iter().enumerate() {
            let t = Instant::now();
            let times = {
                let _g = spans::span(COLLECTIVE_SPANS[k]);
                match k {
                    0 => measure::linear_scatter_times(sim, root, m, OBS_REPS, m),
                    1 => measure::binomial_scatter_times(sim, root, m, OBS_REPS, m),
                    2 => measure::linear_gather_times(sim, root, m, OBS_REPS, m),
                    3 => measure::binomial_gather_times(sim, root, m, OBS_REPS, m),
                    _ => measure::optimized_gather_times(
                        sim,
                        root,
                        m,
                        &profile_empirics(sim),
                        OBS_REPS,
                        m,
                    ),
                }
            }
            .map_err(|e| format!("{name} at {m} B: {e}"))?;
            per_rep_s.push((k, secs(t) / OBS_REPS as f64));
            if let Some(pred) = lmo_prediction(&lmo, &tree, root, k, m) {
                let obs = median(&times);
                errs.push(((pred - obs) / obs).abs());
            }
            observed.extend(times);
        }
    }
    let sweep_s = secs(t_sweep);
    let sweep_usage = Usage::now().since(&usage0);
    Ok(Pass {
        est_s,
        est_runs,
        params: fnv(fp.as_bytes()),
        observations: fnv_f64(&observed),
        sweep_reps: per_rep_s.len() * OBS_REPS,
        per_rep_s,
        sweep_s,
        sweep_usage,
        err_pct: 100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        pass_s: secs(t_pass),
    })
}

/// Gather empirics straight from the cluster's MPI profile. The
/// optimized gather splits messages by these thresholds; taking them
/// from the estimate instead would make the sweep's work, and so its
/// cost, depend on the seed.
fn profile_empirics(sim: &SimCluster) -> GatherEmpirics {
    GatherEmpirics {
        m1: sim.profile.m1,
        m2: sim.profile.m2,
        escalation_probability: sim.profile.escalation_p_max,
        escalation_magnitude: sim.profile.escalation_max,
        escalation_prob_knots: Vec::new(),
    }
}

const COLLECTIVE_SPANS: [&str; 5] = [
    "collectives.linear_scatter",
    "collectives.binomial_scatter",
    "collectives.linear_gather",
    "collectives.binomial_gather",
    "collectives.optimized_gather",
];

/// LMO's closed-form prediction for the scatters: eq. (4) for linear
/// scatter and the separated-model binomial scatter. Gathers are left out:
/// their medium-size escalations are random draws of 0.1–0.25 s, so a
/// short series says more about the draw than about the model.
fn lmo_prediction(
    lmo: &LmoExtended,
    tree: &BinomialTree,
    root: Rank,
    k: usize,
    m: Bytes,
) -> Option<f64> {
    match k {
        0 => Some(lmo.linear_scatter(root, m)),
        1 => Some(lmo.binomial_scatter(tree, m)),
        _ => None,
    }
}

/// A 16-rank linear scatter as straight-line scripts for `run_program`.
fn scatter_scripts(n: usize, m: Bytes) -> Vec<Vec<ScriptOp>> {
    (0..n)
        .map(|r| {
            if r == 0 {
                (1..n)
                    .map(|d| ScriptOp::Send {
                        dst: Rank(d as u32),
                        bytes: m,
                    })
                    .collect()
            } else {
                vec![ScriptOp::Recv { src: Rank(0) }]
            }
        })
        .collect()
}

/// Threaded vs scripted cost of one 16-rank linear scatter on the
/// noise-free cluster. Returns `(thread µs, script µs, same end time)`.
pub fn kernel_probe(sim: &SimCluster, reps: usize) -> (f64, f64, bool) {
    let ideal = sim.idealized();
    let m = 32 * KIB;
    let scripts = scatter_scripts(ideal.n(), m);
    let mut thread_us = Vec::with_capacity(reps);
    let mut script_us = Vec::with_capacity(reps);
    let (mut threaded_t, mut scripted_t) = (0.0, 0.0);
    for _ in 0..reps {
        let t = Instant::now();
        threaded_t = timed("netsim.thread_run", || {
            measure::linear_scatter_once(&ideal, Rank(0), m)
        });
        thread_us.push(secs(t) * 1e6);
        let t = Instant::now();
        scripted_t = timed("netsim.script_run", || run_program(&ideal, &scripts))
            .map(|o| o.end_time)
            .unwrap_or(f64::NAN);
        script_us.push(secs(t) * 1e6);
    }
    (
        median(&thread_us),
        median(&script_us),
        threaded_t.to_bits() == scripted_t.to_bits(),
    )
}

/// Share of the run's passes made on all CPUs, as `cpm estimate` runs;
/// the rest run with every rank thread on one CPU.
const GATED_SHARE: f64 = 0.75;

/// Builds the cluster and warms the kernel with one run of each plain
/// collective.
fn set_up(config: &ClusterConfig) -> SimCluster {
    timed("sim.setup", || {
        let s = SimCluster::from_config(config);
        let root = Rank(0);
        measure::linear_scatter_once(&s, root, 8 * KIB);
        measure::binomial_scatter_once(&s, root, 8 * KIB);
        measure::linear_gather_once(&s, root, 8 * KIB);
        measure::binomial_gather_once(&s, root, 8 * KIB);
        s
    })
}

/// Runs passes until `secs(start)` reaches `until`, and at least `min`
/// of them, calling `before_each` ahead of every pass. A failed pass is
/// counted in `out` and ends the series.
fn passes_until(
    out: &mut Outcome,
    inputs: &Inputs,
    sim: &SimCluster,
    start: Instant,
    until: f64,
    min: usize,
    mut before_each: impl FnMut(),
) -> Vec<Pass> {
    let mut passes = Vec::new();
    while passes.len() < min || secs(start) < until {
        before_each();
        out.attempted += 1;
        match one_pass(sim, &inputs.est) {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.fail(format!("pass failed: {e}"));
                break;
            }
        }
    }
    passes
}

/// Share of the sweeps' CPU time spent in the kernel.
fn sys_frac(passes: &[Pass]) -> f64 {
    let (user, sys) = passes.iter().fold((0.0, 0.0), |acc, p| {
        (acc.0 + p.sweep_usage.user_s, acc.1 + p.sweep_usage.sys_s)
    });
    sys / (user + sys).max(1e-9)
}

/// Median host seconds of the LMO estimate, one per pass.
fn lmo_s(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.est_s[3]).collect::<Vec<_>>())
}

/// Simulated repetitions per host second over the sweeps.
fn sim_runs_per_s(passes: &[Pass]) -> f64 {
    let reps: usize = passes.iter().map(|p| p.sweep_reps).sum();
    reps as f64 / passes.iter().map(|p| p.sweep_s).sum::<f64>()
}

/// Runs the workload for `opts.seconds` of passes: the first
/// [`GATED_SHARE`] of the time on all CPUs, as `cpm estimate` runs, which
/// the end-to-end metrics come from, then with every rank thread on one
/// CPU, reported as `*.one_cpu` details.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let inputs = inputs(opts.seed);

    // Set-up takes milliseconds, so it is timed five times here and three
    // more times before every gated pass: its median spans the run like
    // the other metrics do.
    let mut setups = Vec::new();
    let mut sim = None;
    for _ in 0..opts.setup_reps(5) {
        let t = Instant::now();
        sim = Some(set_up(&inputs.config));
        setups.push(secs(t));
    }
    let sim = sim.expect("at least one set-up");

    let start = Instant::now();
    let gated_until = opts.seconds * GATED_SHARE;
    let time_set_up = || {
        for _ in 0..3 {
            let t = Instant::now();
            drop(set_up(&inputs.config));
            setups.push(secs(t));
        }
    };
    let passes = passes_until(&mut out, &inputs, &sim, start, gated_until, 2, time_set_up);
    out.metric("setup_s", "s", median(&setups));
    // The same passes with every rank thread on one CPU (see `OneCpu`):
    // each hand-off is a context switch instead of a wake-up of another,
    // possibly halted, CPU. The gap to the gated figures is the cross-CPU
    // wake-up cost.
    let one_cpu = OneCpu::pin();
    let pinned = if out.failed == 0 {
        passes_until(&mut out, &inputs, &sim, start, opts.seconds, 1, || {})
    } else {
        Vec::new()
    };
    drop(one_cpu);
    if passes.is_empty() {
        return out;
    }
    // Correctness: one seed, one answer. Every pass must reproduce the
    // first pass's parameters and observations bit for bit.
    let first = &passes[0];
    for p in passes[1..].iter().chain(&pinned) {
        if p.params != first.params {
            out.fail("estimated parameters differ between passes".into());
        }
        if p.observations != first.observations {
            out.fail("observations differ between passes".into());
        }
    }

    // The optimized gather splits large messages into up to 80 rounds, so
    // its per-repetition cost spans two orders of magnitude by design; the
    // latency quantiles are over the four plain collectives, whose cost
    // per repetition is nearly flat in the size.
    let plain_us = |p: &Pass| -> Vec<f64> {
        p.per_rep_s
            .iter()
            .filter(|(k, _)| *k < 4)
            .map(|&(_, s)| s * 1e6)
            .collect()
    };
    let per_rep_us: Vec<f64> = passes.iter().flat_map(plain_us).collect();
    // The tail is each pass's p90, then the median over passes: a p90
    // pooled over the run moves whenever more than a tenth of the run
    // falls in one of the host's slow spells.
    let pass_p90: Vec<f64> = passes.iter().map(|p| quantile(&plain_us(p), 0.9)).collect();
    let pass_s = |passes: &[Pass]| median(&passes.iter().map(|p| p.pass_s).collect::<Vec<_>>());

    out.metric("p50_us", "us", median(&per_rep_us));
    out.metric("heavy_ms", "ms", lmo_s(&passes) * 1e3);
    out.metric("rate_per_s", "1/s", sim_runs_per_s(&passes));

    out.detail("tail_us", "us", median(&pass_p90));
    out.detail("estimate_s", "s", lmo_s(&passes));
    out.detail("paper_s", "s", pass_s(&passes));
    out.detail("sim_runs_per_s", "1/s", sim_runs_per_s(&passes));
    out.detail("collective_err_pct", "%", first.err_pct);
    out.detail("passes", "count", passes.len() as f64);
    if !pinned.is_empty() {
        out.detail("estimate_s.one_cpu", "s", lmo_s(&pinned));
        out.detail("paper_s.one_cpu", "s", pass_s(&pinned));
        out.detail("sim_runs_per_s.one_cpu", "1/s", sim_runs_per_s(&pinned));
        out.detail("sys_frac.one_cpu", "ratio", sys_frac(&pinned));
        out.detail("passes.one_cpu", "count", pinned.len() as f64);
    }

    // Per-layer numbers.
    for (k, name) in COLLECTIVES.iter().enumerate() {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.per_rep_s
                    .iter()
                    .filter(|(c, _)| *c == k)
                    .map(|&(_, s)| s * 1e6)
            })
            .collect();
        out.layer(&format!("collectives.{name}_us"), "us", median(&v));
    }
    out.layer("collectives.err_pct", "%", first.err_pct);
    let est_total: f64 = passes.iter().map(|p| p.est_s.iter().sum::<f64>()).sum();
    let runs_total: usize = passes.iter().map(|p| p.est_runs).sum();
    out.layer("estimate.runs", "count", first.est_runs as f64);
    out.layer(
        "estimate.us_per_run",
        "us",
        est_total * 1e6 / runs_total.max(1) as f64,
    );
    for (i, name) in ["hockney", "loggp", "plogp", "lmo"].iter().enumerate() {
        let v: Vec<f64> = passes.iter().map(|p| p.est_s[i]).collect();
        out.layer(&format!("estimate.{name}_s"), "s", median(&v));
    }
    let sim_runs = (passes.len() * SIZES.len() * COLLECTIVES.len()) as f64;
    let cs: u64 = passes.iter().map(|p| p.sweep_usage.ctx_switches).sum();
    out.layer("netsim.ctx_switches_per_run", "count", cs as f64 / sim_runs);
    out.layer("netsim.sys_frac", "ratio", sys_frac(&passes));
    if opts.trace {
        let (thread_us, script_us, same) = kernel_probe(&sim, 20);
        out.attempted += 1;
        if !same {
            out.fail("scripted scatter end time differs from the threaded one".into());
        }
        out.layer("netsim.thread_run_us", "us", thread_us);
        out.layer("netsim.script_run_us", "us", script_us);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = inputs(3);
        let b = inputs(3);
        let c = inputs(4);
        assert_eq!(a.config, b.config);
        assert_eq!(a.est.seed, b.est.seed);
        assert_ne!(a.config.ground_truth().c, c.config.ground_truth().c);
    }
}
