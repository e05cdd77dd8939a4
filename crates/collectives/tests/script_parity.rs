//! Script parity: the five measured collectives (`measure::*_times`) run
//! as per-rank scripts, and must reproduce what the same schedules give as
//! thread-per-rank `Comm` programs bit for bit.
//!
//! The references are the threaded programs the lowerings replaced, kept
//! here as the oracle only. Cases cover the LAM profile with 1 % noise
//! (noise draws, incast escalations, the 64 KB leap and large-message
//! serialization all live), several seeds, roots other than 0, sizes on
//! both sides of `M1`, `M2` and the leap, and seeded same-time orders.

use cpm_cluster::ClusterConfig;
use cpm_collectives::gather::{binomial_gather_script, linear_gather_script};
use cpm_collectives::measure;
use cpm_collectives::optimized::{optimized_gather_script, split_count};
use cpm_collectives::scatter::{binomial_scatter_script, linear_scatter_script};
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::{Bytes, KIB};
use cpm_models::GatherEmpirics;
use cpm_netsim::{ScriptOp, SimCluster};
use cpm_vmpi::{run, run_program, Comm};

const SIZES: [Bytes; 7] = [
    KIB,
    4 * KIB,
    9 * KIB,
    48 * KIB,
    64 * KIB,
    65 * KIB,
    130 * KIB,
];
const SEEDS: [u64; 3] = [7, 42, 101];
const FUZZ: [Option<u64>; 3] = [None, Some(2), Some(13)];
const ROOTS: [Rank; 2] = [Rank(0), Rank(5)];
const REPS: usize = 3;

fn clusters() -> impl Iterator<Item = (String, SimCluster)> {
    SEEDS.into_iter().flat_map(|seed| {
        FUZZ.into_iter().map(move |fuzz| {
            let cl = SimCluster::from_config(&ClusterConfig::paper_lam(seed));
            let cl = match fuzz {
                Some(f) => cl.with_schedule_fuzz(f),
                None => cl,
            };
            (format!("seed {seed}, fuzz {fuzz:?}"), cl)
        })
    })
}

fn empirics(cl: &SimCluster) -> GatherEmpirics {
    GatherEmpirics {
        m1: cl.profile.m1,
        m2: cl.profile.m2,
        escalation_probability: 0.5,
        escalation_magnitude: 0.2,
        escalation_prob_knots: Vec::new(),
    }
}

fn ref_linear_scatter(c: &mut Comm<'_>, root: Rank, m: Bytes) {
    if c.rank() == root {
        for i in (0..c.size()).filter(|&i| i != root.idx()) {
            c.send(Rank::from(i), m);
        }
    } else {
        let _ = c.recv(root);
    }
}

fn ref_binomial_scatter(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
    let me = c.rank();
    if let Some(parent) = tree.parent_of(me) {
        let _ = c.recv(parent);
    }
    for (child, blocks) in tree.children_of(me) {
        c.send(child, blocks * m);
    }
}

fn ref_linear_gather(c: &mut Comm<'_>, root: Rank, m: Bytes) {
    if c.rank() == root {
        for i in (0..c.size()).filter(|&i| i != root.idx()) {
            let _ = c.recv(Rank::from(i));
        }
    } else {
        c.send(root, m);
    }
}

fn ref_binomial_gather(c: &mut Comm<'_>, tree: &BinomialTree, m: Bytes) {
    let me = c.rank();
    let mut children = tree.children_of(me);
    children.reverse();
    for (child, _) in children {
        let _ = c.recv(child);
    }
    if let Some(parent) = tree.parent_of(me) {
        c.send(parent, tree.subtree_size(me) * m);
    }
}

fn ref_optimized_gather(c: &mut Comm<'_>, root: Rank, m: Bytes, e: &GatherEmpirics) {
    let k = split_count(m, e);
    if k == 1 {
        ref_linear_gather(c, root, m);
        return;
    }
    let piece = m / k as u64;
    let last = m - piece * (k as u64 - 1);
    for round in 0..k {
        ref_linear_gather(c, root, if round + 1 == k { last } else { piece });
    }
}

/// Threaded max-time measurement, as `measure` ran before the lowering:
/// per-repetition completion times and the run's end time.
fn reference(
    cl: &SimCluster,
    seed: u64,
    reps: usize,
    which: usize,
    root: Rank,
    m: Bytes,
    e: &GatherEmpirics,
) -> (Vec<f64>, f64) {
    let tree = BinomialTree::new(cl.n(), root);
    let out = run(&cl.reseeded(seed), |c| {
        c.timed_reps(reps, |c, _| match which {
            0 => ref_linear_scatter(c, root, m),
            1 => ref_binomial_scatter(c, &tree, m),
            2 => ref_linear_gather(c, root, m),
            3 => ref_binomial_gather(c, &tree, m),
            _ => ref_optimized_gather(c, root, m, e),
        })
    })
    .expect("threaded reference runs");
    let max = (0..reps)
        .map(|k| out.results.iter().map(|t| t[k]).fold(0.0, f64::max))
        .collect();
    (max, out.end_time)
}

/// Rank `me`'s lowering of collective `which`.
fn lowering(cl: &SimCluster, which: usize, root: Rank, m: Bytes, me: Rank) -> Vec<ScriptOp> {
    let n = cl.n();
    let tree = BinomialTree::new(n, root);
    match which {
        0 => linear_scatter_script(n, me, root, m),
        1 => binomial_scatter_script(&tree, me, m),
        2 => linear_gather_script(n, me, root, m),
        3 => binomial_gather_script(&tree, me, m),
        _ => optimized_gather_script(n, me, root, m, &empirics(cl)),
    }
}

fn scripted(
    cl: &SimCluster,
    seed: u64,
    which: usize,
    root: Rank,
    m: Bytes,
    e: &GatherEmpirics,
) -> Vec<f64> {
    match which {
        0 => measure::linear_scatter_times(cl, root, m, REPS, seed),
        1 => measure::binomial_scatter_times(cl, root, m, REPS, seed),
        2 => measure::linear_gather_times(cl, root, m, REPS, seed),
        3 => measure::binomial_gather_times(cl, root, m, REPS, seed),
        _ => measure::optimized_gather_times(cl, root, m, e, REPS, seed),
    }
    .expect("scripted measurement runs")
}

const NAMES: [&str; 5] = [
    "linear scatter",
    "binomial scatter",
    "linear gather",
    "binomial gather",
    "optimized gather",
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn measured_collectives_match_threaded_references() {
    for (name, cl) in clusters() {
        let e = empirics(&cl);
        for root in ROOTS {
            for &m in &SIZES {
                for (which, what) in NAMES.iter().enumerate() {
                    let seed = m ^ ((which as u64) << 20);
                    assert_eq!(
                        bits(&scripted(&cl, seed, which, root, m, &e)),
                        bits(&reference(&cl, seed, REPS, which, root, m, &e).0),
                        "{what}, {name}, root {root}, m {m}"
                    );
                }
            }
        }
    }
}

/// The `_once` helpers keep their seed convention: one repetition under
/// the cluster's own seed.
#[test]
fn once_helpers_match_threaded_references() {
    for (name, cl) in clusters() {
        let e = empirics(&cl);
        for root in ROOTS {
            let m = 32 * KIB;
            let s = cl.seed;
            let once = [
                measure::linear_scatter_once(&cl, root, m),
                measure::binomial_scatter_once(&cl, root, m),
                measure::linear_gather_once(&cl, root, m),
                measure::binomial_gather_once(&cl, root, m),
            ];
            for (which, got) in once.iter().enumerate() {
                let want = reference(&cl, s, 1, which, root, m, &e).0[0];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} once, {name}",
                    NAMES[which]
                );
            }
        }
    }
}

/// The lowerings replayed as barrier-separated scripts finish at exactly
/// the threaded programs' end time, rank for rank.
#[test]
fn lowered_schedules_end_at_the_threaded_end_time() {
    for (name, cl) in clusters() {
        let e = empirics(&cl);
        for root in ROOTS {
            for &m in &SIZES {
                for (which, what) in NAMES.iter().enumerate() {
                    let programs: Vec<Vec<ScriptOp>> = (0..cl.n())
                        .map(|r| {
                            let body = lowering(&cl, which, root, m, Rank::from(r));
                            (0..REPS)
                                .flat_map(|_| {
                                    std::iter::once(ScriptOp::Barrier).chain(body.clone())
                                })
                                .collect()
                        })
                        .collect();
                    let seed = m + which as u64;
                    let end = run_program(&cl.reseeded(seed), &programs).unwrap().end_time;
                    let (_, want) = reference(&cl, seed, REPS, which, root, m, &e);
                    assert_eq!(
                        end.to_bits(),
                        want.to_bits(),
                        "{what}, {name}, root {root}, m {m}"
                    );
                }
            }
        }
    }
}
