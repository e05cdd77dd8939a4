//! The observation harness.
//!
//! Collectives are measured the way MPIBlib measures them: repetitions
//! separated by a global barrier, with the operation's completion time
//! taken as the maximum local duration over all ranks (all ranks leave the
//! barrier together). The sender-side timing the paper recommends for the
//! *estimation* experiments lives in `cpm-estimate`; for observing whole
//! collectives the max-time method senses the true completion (a root-only
//! timer would miss the tail of a scatter).
//!
//! The five measured schedules (linear and binomial scatter and gather,
//! and the optimized gather) run as per-rank scripts on the simulator's
//! threadless path; [`collective_times`] runs any other `Comm` program on
//! rank threads.

use cpm_core::error::{CpmError, Result};
use cpm_core::rank::Rank;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_netsim::{ScriptOp, SimCluster};
use cpm_vmpi::{run_timed_max, run_timed_program, Comm, TimedScript};

use crate::gather::{binomial_gather_script, linear_gather_script};
use crate::optimized::optimized_gather_script;
use crate::scatter::{binomial_scatter_script, linear_scatter_script};
use cpm_models::GatherEmpirics;

/// Measures any collective `op` `reps` times, returning per-repetition
/// completion times (max-time over ranks).
pub fn collective_times<F>(
    cluster: &SimCluster,
    _root: Rank,
    reps: usize,
    seed: u64,
    op: F,
) -> Result<Vec<f64>>
where
    F: Fn(&mut Comm<'_>) + Sync,
{
    run_timed_max(&cluster.reseeded(seed), reps, |c, _| op(c))
}

/// [`collective_times`] for a collective given as its per-rank lowering
/// `script_of(rank)`: every repetition is a barrier followed by the rank's
/// script, and its completion time is the maximum over ranks of "barrier
/// release → last op done".
fn script_times(
    cluster: &SimCluster,
    reps: usize,
    seed: u64,
    script_of: impl Fn(Rank) -> Vec<ScriptOp>,
) -> Result<Vec<f64>> {
    let scripts = (0..cluster.n())
        .map(|r| {
            let body = script_of(Rank::from(r));
            let mut s = TimedScript::default();
            for _ in 0..reps {
                let t0 = s.barrier();
                s.ops(&body);
                s.sample_since(t0);
            }
            s
        })
        .collect();
    let (times, _) = run_timed_program(&cluster.reseeded(seed), scripts)?;
    Ok((0..reps)
        .map(|k| times.iter().map(|t| t[k]).fold(0.0, f64::max))
        .collect())
}

/// The cluster size, once `root` is known to be one of its ranks.
fn size_with_root(cluster: &SimCluster, root: Rank) -> Result<usize> {
    let n = cluster.n();
    if root.idx() < n {
        Ok(n)
    } else {
        Err(CpmError::InvalidConfig(format!(
            "root {root} out of range for {n} nodes"
        )))
    }
}

/// Root-side times of `reps` linear scatters.
pub fn linear_scatter_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let n = size_with_root(cluster, root)?;
    script_times(cluster, reps, seed, |me| {
        linear_scatter_script(n, me, root, m)
    })
}

/// Root-side times of `reps` linear gathers.
pub fn linear_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let n = size_with_root(cluster, root)?;
    script_times(cluster, reps, seed, |me| {
        linear_gather_script(n, me, root, m)
    })
}

/// Root-side times of `reps` binomial scatters (conventional tree mapping).
pub fn binomial_scatter_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let tree = BinomialTree::new(size_with_root(cluster, root)?, root);
    script_times(cluster, reps, seed, |me| {
        binomial_scatter_script(&tree, me, m)
    })
}

/// Root-side times of `reps` binomial gathers.
pub fn binomial_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let tree = BinomialTree::new(size_with_root(cluster, root)?, root);
    script_times(cluster, reps, seed, |me| {
        binomial_gather_script(&tree, me, m)
    })
}

/// Root-side times of `reps` optimized gathers.
pub fn optimized_gather_times(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    empirics: &GatherEmpirics,
    reps: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    let n = size_with_root(cluster, root)?;
    script_times(cluster, reps, seed, |me| {
        optimized_gather_script(n, me, root, m, empirics)
    })
}

/// One linear scatter observation (first repetition).
pub fn linear_scatter_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    linear_scatter_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One linear gather observation.
pub fn linear_gather_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    linear_gather_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One binomial scatter observation.
pub fn binomial_scatter_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    binomial_scatter_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

/// One binomial gather observation.
pub fn binomial_gather_once(cluster: &SimCluster, root: Rank, m: Bytes) -> f64 {
    binomial_gather_times(cluster, root, m, 1, cluster.seed).expect("simulation runs")[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn cluster() -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn repetitions_are_stable_without_noise() {
        let cl = cluster();
        let ts = linear_scatter_times(&cl, Rank(0), 4 * KIB, 5, 1).unwrap();
        assert_eq!(ts.len(), 5);
        for t in &ts {
            assert!((t - ts[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_makes_repetitions_vary() {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 1);
        let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.02, 1);
        let ts = linear_scatter_times(&cl, Rank(0), 4 * KIB, 6, 1).unwrap();
        let spread = ts.iter().cloned().fold(0.0f64, f64::max)
            - ts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0);
    }

    #[test]
    fn out_of_range_root_is_an_error() {
        let cl = cluster();
        for err in [
            linear_scatter_times(&cl, Rank(4), KIB, 1, 1).unwrap_err(),
            binomial_gather_times(&cl, Rank(9), KIB, 1, 1).unwrap_err(),
        ] {
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }

    #[test]
    fn once_helpers_agree_with_times() {
        let cl = cluster();
        let once = linear_gather_once(&cl, Rank(0), KIB);
        let times = linear_gather_times(&cl, Rank(0), KIB, 1, cl.seed).unwrap();
        assert_eq!(once, times[0]);
    }
}
