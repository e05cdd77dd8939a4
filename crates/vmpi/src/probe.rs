//! One-way transfer probes — the observation channel of the drift loop.
//!
//! A drift monitor compares *observed* transfer times against model
//! predictions, so it needs the one-way time `T_ij(M)` directly rather
//! than a roundtrip. The simulator's barrier releases all ranks at the
//! same virtual instant, so the receiver-side interval "barrier release →
//! receive complete" is exactly the LMO point-to-point time
//! `C_i + M·t_i + L_ij + M/β_ij + C_j + M·t_j` — no halving, no
//! asymmetry assumption.

use cpm_core::error::{CpmError, Result};
use cpm_core::rank::{Pair, Rank};
use cpm_core::units::Bytes;
use cpm_netsim::SimCluster;

use crate::runner::{run_timed_program, TimedScript};

/// Per-pair repetition series of one-way times, in `units` order.
pub type OneWaySamples = Vec<(Pair, Vec<f64>)>;

/// Each rank's role when the pairs of `units` run in one simulation:
/// `(peer, true)` for the pair's first member `a`, `(peer, false)` for `b`,
/// `None` for ranks outside every pair.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when a rank is out of range or the
/// pairs overlap — a rank can play only one role per run.
pub fn pair_roles(n: usize, units: &[Pair]) -> Result<Vec<Option<(Rank, bool)>>> {
    let mut role: Vec<Option<(Rank, bool)>> = vec![None; n];
    for p in units {
        for (me, peer, first) in [(p.a, p.b, true), (p.b, p.a, false)] {
            let slot = role.get_mut(me.idx()).ok_or_else(|| {
                CpmError::InvalidConfig(format!("rank {me} out of range for {n} nodes"))
            })?;
            if slot.is_some() {
                return Err(CpmError::InvalidConfig(format!(
                    "pairs must be disjoint: rank {me} is in more than one"
                )));
            }
            *slot = Some((peer, first));
        }
    }
    Ok(role)
}

/// Measures `reps` one-way transfers of `m` bytes (`a → b`) on every pair
/// of `units` simultaneously. Times are measured on the *receiver* side,
/// from barrier release to receive completion. Returns per-pair repetition
/// series and the virtual time consumed.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when the pairs overlap or name a
/// rank outside the cluster.
pub fn one_way_times(
    cluster: &SimCluster,
    units: &[Pair],
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(OneWaySamples, f64)> {
    let scripts = pair_roles(cluster.n(), units)?
        .into_iter()
        .map(|role| {
            let mut s = TimedScript::default();
            for _ in 0..reps {
                let t0 = s.barrier();
                match role {
                    Some((peer, true)) => {
                        s.send(peer, m);
                    }
                    Some((peer, false)) => {
                        s.recv(peer);
                        s.sample_since(t0);
                    }
                    None => {}
                }
            }
            s
        })
        .collect();
    let (mut times, end) = run_timed_program(&cluster.reseeded(seed), scripts)?;
    let samples = units
        .iter()
        .map(|p| (*p, std::mem::take(&mut times[p.b.idx()])))
        .collect();
    Ok((samples, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};

    #[test]
    fn one_way_time_is_the_lmo_p2p_time() {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 7);
        let cl = SimCluster::new(truth.clone(), MpiProfile::ideal(), 0.0, 7);
        let pairs = [Pair::new(Rank(0), Rank(1)), Pair::new(Rank(2), Rank(3))];
        let (samples, _) = one_way_times(&cl, &pairs, 8192, 3, 5).unwrap();
        assert_eq!(samples.len(), 2);
        for (pair, ts) in &samples {
            assert_eq!(ts.len(), 3);
            let want = truth.p2p_time(pair.a, pair.b, 8192);
            for t in ts {
                assert!((t - want).abs() < 1e-12, "{pair:?}: {t} vs {want}");
            }
        }
    }

    #[test]
    fn overlapping_pairs_are_rejected() {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(4), 7);
        let cl = SimCluster::new(truth, MpiProfile::ideal(), 0.0, 7);
        let pairs = [Pair::new(Rank(0), Rank(1)), Pair::new(Rank(1), Rank(2))];
        let err = one_way_times(&cl, &pairs, 1024, 1, 5).unwrap_err();
        assert!(matches!(err, CpmError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("rank 1"), "{err}");
        let out_of_range = [Pair::new(Rank(0), Rank(4))];
        let err = one_way_times(&cl, &out_of_range, 1024, 1, 5).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
