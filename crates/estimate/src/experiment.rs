//! The communication experiments.
//!
//! Every experiment is a set of straight-line per-rank scripts run
//! through the simulator's threadless path, measured on the sender/root
//! side with barrier-separated repetitions — the timing method the paper
//! recommends as "fast and quite accurate for collective operations on a
//! small number of processors". Each repetition is a barrier followed by
//! the rank's ops; a sample is "wtime after the barrier → wtime after the
//! last timed op", exactly what a threaded rank would read. Experiments on
//! non-overlapping units (pairs/triplets) share one simulation run; on a
//! single switch this does not perturb the measurements.

use cpm_core::error::{CpmError, Result};
use cpm_core::rank::{Pair, Rank, Triplet};
use cpm_core::units::Bytes;
use cpm_netsim::SimCluster;
use cpm_vmpi::{pair_roles, run_timed_program, TimedScript};

/// Measurements of one roundtrip unit.
#[derive(Clone, Debug)]
pub struct PairSample {
    /// The measured pair.
    pub pair: Pair,
    /// Roundtrip times measured on `pair.a`, one per repetition.
    pub t: Vec<f64>,
}

/// Measurements of one one-to-two unit.
#[derive(Clone, Debug)]
pub struct TripletSample {
    /// The measured triplet.
    pub triplet: Triplet,
    /// The member that acted as the root of the one-to-two communication.
    pub root: Rank,
    /// Times measured on the root, one per repetition.
    pub t: Vec<f64>,
}

/// Runs `reps` roundtrips (`m_out` bytes out, `m_back` bytes back) on every
/// pair of `units` simultaneously. Returns the samples and the virtual
/// time the run consumed.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when the pairs overlap or name a
/// rank outside the cluster.
pub fn roundtrip_round(
    cluster: &SimCluster,
    units: &[Pair],
    m_out: Bytes,
    m_back: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<PairSample>, f64)> {
    let scripts = pair_roles(cluster.n(), units)?
        .into_iter()
        .map(|role| {
            let mut s = TimedScript::default();
            for _ in 0..reps {
                let t0 = s.barrier();
                match role {
                    Some((peer, true)) => {
                        s.send(peer, m_out);
                        s.recv(peer);
                        s.sample_since(t0);
                    }
                    Some((peer, false)) => {
                        s.recv(peer);
                        s.send(peer, m_back);
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
        .map(|p| PairSample {
            pair: *p,
            t: std::mem::take(&mut times[p.a.idx()]),
        })
        .collect();
    Ok((samples, end))
}

/// Runs `reps` one-to-two experiments (root sends `m_out` to both children,
/// children reply `m_back`) on every triplet of `units` simultaneously,
/// once per choice of root (three phases).
///
/// `order` decides which child the root serves first. The estimation
/// equations (paper eqs. (6)–(11)) assume the *slowest* child both
/// dominates the maximum and absorbs the root's send serialization, so the
/// LMO estimator passes an ordering that sends to the faster child first;
/// `None` uses canonical member order.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when the triplets overlap or name a
/// rank outside the cluster.
pub fn one_to_two_round(
    cluster: &SimCluster,
    units: &[Triplet],
    m_out: Bytes,
    m_back: Bytes,
    reps: usize,
    seed: u64,
    order: Option<&(dyn Fn(Triplet, Rank) -> [Rank; 2] + Sync)>,
) -> Result<(Vec<TripletSample>, f64)> {
    let n = cluster.n();
    let mut membership: Vec<Option<Triplet>> = vec![None; n];
    for t in units {
        for m in t.members() {
            match membership.get_mut(m.idx()) {
                None => return Err(out_of_range(m, n)),
                Some(Some(_)) => {
                    return Err(CpmError::InvalidConfig(format!(
                        "triplets must be disjoint: rank {m} is in more than one"
                    )))
                }
                Some(slot) => *slot = Some(*t),
            }
        }
    }
    // Each member is the root of exactly one phase, so its samples are
    // that phase's `reps` roundtrips.
    let scripts = membership
        .iter()
        .enumerate()
        .map(|(me, unit)| {
            let me = Rank::from(me);
            let mut s = TimedScript::default();
            for phase in 0..3 {
                for _ in 0..reps {
                    let t0 = s.barrier();
                    let Some(t) = unit else { continue };
                    let root = t.members()[phase];
                    if me == root {
                        let [x, y] = match order {
                            Some(f) => f(*t, root),
                            None => t.others(root),
                        };
                        s.send(x, m_out);
                        s.send(y, m_out);
                        s.recv(x);
                        s.recv(y);
                        s.sample_since(t0);
                    } else {
                        s.recv(root);
                        s.send(root, m_back);
                    }
                }
            }
            s
        })
        .collect();
    let (mut times, end) = run_timed_program(&cluster.reseeded(seed), scripts)?;
    let samples = units
        .iter()
        .flat_map(|t| t.members().map(|root| (t, root)))
        .map(|(t, root)| TripletSample {
            triplet: *t,
            root,
            t: std::mem::take(&mut times[root.idx()]),
        })
        .collect();
    Ok((samples, end))
}

/// Saturation experiment: `count` back-to-back sends of `m` bytes from `i`
/// to `j`, then an empty acknowledgement. Returns per-repetition total
/// times measured on `i` (from the first send to the ack) and the virtual
/// cost.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] unless `i` and `j` are two distinct
/// ranks of the cluster.
pub fn saturation(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    count: usize,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    assert!(count >= 1, "saturation needs at least one message");
    run_on_root(cluster, i, seed, |s, me| {
        for _ in 0..reps {
            let t0 = s.barrier();
            if me == i {
                for _ in 0..count {
                    s.send(j, m);
                }
                s.recv(j);
                s.sample_since(t0);
            } else if me == j {
                for _ in 0..count {
                    s.recv(i);
                }
                s.send(i, 0);
            }
        }
    })
}

/// Send-overhead probe (`o_s`): the duration of the blocking send itself,
/// inside a roundtrip with an empty reply.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] unless `i` and `j` are two distinct
/// ranks of the cluster.
pub fn send_probe(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    run_on_root(cluster, i, seed, |s, me| {
        for _ in 0..reps {
            let t0 = s.barrier();
            if me == i {
                s.send(j, m);
                s.sample_since(t0);
                s.recv(j);
            } else if me == j {
                s.recv(i);
                s.send(i, 0);
            }
        }
    })
}

/// Receive-overhead probe (`o_r`): send, wait long enough for the reply to
/// have fully arrived, then time the receive call itself.
///
/// In the simulator, message processing is charged to the receiver's rx
/// engine *before* delivery, so this probe measures ≈ 0 — an artifact
/// equivalent to zero-copy reception. It is kept because the estimation
/// procedure of the paper calls for it; the LogP-family estimators fold it
/// in unchanged.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] unless `i` and `j` are two distinct
/// ranks of the cluster.
pub fn delayed_recv_probe(
    cluster: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    wait: f64,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    run_on_root(cluster, i, seed, |s, me| {
        for _ in 0..reps {
            s.barrier();
            if me == i {
                s.send(j, m);
                let t0 = s.compute(wait);
                s.recv(j);
                s.sample_since(t0);
            } else if me == j {
                s.recv(i);
                s.send(i, m);
            }
        }
    })
}

/// Linear gather observation: the root receives `m` bytes from everyone.
/// Returns root-side times, one per repetition.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when `root` is outside the cluster.
pub fn gather_observation(
    cluster: &SimCluster,
    root: Rank,
    m: Bytes,
    reps: usize,
    seed: u64,
) -> Result<(Vec<f64>, f64)> {
    let n = cluster.n();
    run_on_root(cluster, root, seed, |s, me| {
        for _ in 0..reps {
            let t0 = s.barrier();
            if me == root {
                for k in (0..n).filter(|&k| k != root.idx()) {
                    s.recv(Rank::from(k));
                }
                s.sample_since(t0);
            } else {
                s.send(root, m);
            }
        }
    })
}

/// Builds every rank's script with `build(script, rank)`, runs them and
/// returns the samples `timed` recorded plus the run's virtual cost.
/// Scripts that name the same rank at both ends, or a rank outside the
/// cluster, are refused by [`run_timed_program`].
fn run_on_root(
    cluster: &SimCluster,
    timed: Rank,
    seed: u64,
    build: impl Fn(&mut TimedScript, Rank),
) -> Result<(Vec<f64>, f64)> {
    let n = cluster.n();
    if timed.idx() >= n {
        return Err(out_of_range(timed, n));
    }
    let scripts = (0..n)
        .map(|r| {
            let mut s = TimedScript::default();
            build(&mut s, Rank::from(r));
            s
        })
        .collect();
    let (mut times, end) = run_timed_program(&cluster.reseeded(seed), scripts)?;
    Ok((std::mem::take(&mut times[timed.idx()]), end))
}

fn out_of_range(r: Rank, n: usize) -> CpmError {
    CpmError::InvalidConfig(format!("rank {r} out of range for {n} nodes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};
    use cpm_core::units::KIB;

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::paper_cluster(), 2);
        let _ = n;
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 2)
    }

    #[test]
    fn roundtrip_matches_formula() {
        let cl = cluster(16);
        let p = Pair::new(Rank(3), Rank(11));
        let (samples, cost) = roundtrip_round(&cl, &[p], 4 * KIB, 4 * KIB, 3, 1).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].t.len(), 3);
        let expected = 2.0 * cl.truth.p2p_time(Rank(3), Rank(11), 4 * KIB);
        for t in &samples[0].t {
            assert!((t - expected).abs() < 1e-12);
        }
        assert!(cost > 0.0);
    }

    #[test]
    fn parallel_pairs_match_isolated_pairs() {
        // The single-switch property: disjoint pairs measured together give
        // the same values as measured alone.
        let cl = cluster(16);
        let p1 = Pair::new(Rank(0), Rank(1));
        let p2 = Pair::new(Rank(2), Rank(3));
        let (together, _) = roundtrip_round(&cl, &[p1, p2], 8 * KIB, 0, 2, 3).unwrap();
        let (alone1, _) = roundtrip_round(&cl, &[p1], 8 * KIB, 0, 2, 3).unwrap();
        let (alone2, _) = roundtrip_round(&cl, &[p2], 8 * KIB, 0, 2, 3).unwrap();
        assert!((together[0].t[0] - alone1[0].t[0]).abs() < 1e-12);
        assert!((together[1].t[0] - alone2[0].t[0]).abs() < 1e-12);
    }

    #[test]
    fn one_to_two_produces_three_rooted_samples() {
        let cl = cluster(16);
        let t = Triplet::new(Rank(1), Rank(5), Rank(9));
        let (samples, _) = one_to_two_round(&cl, &[t], 0, 0, 2, 4, None).unwrap();
        assert_eq!(samples.len(), 3);
        let roots: Vec<Rank> = samples.iter().map(|s| s.root).collect();
        assert_eq!(roots, vec![Rank(1), Rank(5), Rank(9)]);
        for s in &samples {
            assert_eq!(s.t.len(), 2);
            // Zero-byte one-to-two still costs the fixed delays.
            assert!(s.t[0] > 0.0);
        }
    }

    #[test]
    fn one_to_two_empty_message_time_matches_des_timeline() {
        // With the documented DES semantics the measured time is
        // 3C_i + max_x(2L_ix + 2C_x) + tx-ordering offsets; verify it sits
        // between the analytic 2C_i + max(T_ix(0)) bounds used by eq. (8).
        let cl = cluster(16);
        let truth = &cl.truth;
        let t = Triplet::new(Rank(0), Rank(4), Rank(12));
        let (samples, _) = one_to_two_round(&cl, &[t], 0, 0, 1, 4, None).unwrap();
        let s0 = &samples[0]; // root = 0
        let rt = |i: u32, j: u32| {
            2.0 * (truth.c[i as usize] + *truth.l.get(Rank(i), Rank(j)) + truth.c[j as usize])
        };
        let max_rt = rt(0, 4).max(rt(0, 12));
        let lower = truth.c[0] + max_rt; // attained when replies overlap
        let upper = 2.0 * truth.c[0] + max_rt + 2.0 * truth.c[0];
        assert!(
            s0.t[0] >= lower - 1e-12 && s0.t[0] < upper,
            "{} not in [{lower}, {upper})",
            s0.t[0]
        );
    }

    #[test]
    fn overlapping_pairs_are_an_error_not_a_silent_overwrite() {
        let cl = cluster(16);
        let units = [Pair::new(Rank(0), Rank(1)), Pair::new(Rank(1), Rank(2))];
        let err = roundtrip_round(&cl, &units, KIB, KIB, 1, 1).unwrap_err();
        assert!(matches!(err, CpmError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("rank 1"), "{err}");
        let err =
            roundtrip_round(&cl, &[Pair::new(Rank(3), Rank(16))], KIB, KIB, 1, 1).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn overlapping_triplets_are_an_error_not_a_silent_overwrite() {
        let cl = cluster(16);
        let units = [
            Triplet::new(Rank(0), Rank(1), Rank(2)),
            Triplet::new(Rank(2), Rank(3), Rank(4)),
        ];
        let err = one_to_two_round(&cl, &units, 0, 0, 1, 4, None).unwrap_err();
        assert!(matches!(err, CpmError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("rank 2"), "{err}");
        let far = [Triplet::new(Rank(0), Rank(1), Rank(20))];
        let err = one_to_two_round(&cl, &far, 0, 0, 1, 4, None).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn probes_reject_degenerate_rank_choices() {
        let cl = cluster(16);
        for err in [
            saturation(&cl, Rank(2), Rank(2), KIB, 1, 1, 1).unwrap_err(),
            send_probe(&cl, Rank(0), Rank(16), KIB, 1, 1).unwrap_err(),
            delayed_recv_probe(&cl, Rank(16), Rank(0), KIB, 0.1, 1, 1).unwrap_err(),
            gather_observation(&cl, Rank(16), KIB, 1, 1).unwrap_err(),
        ] {
            assert!(matches!(err, CpmError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn saturation_reaches_wire_rate() {
        let cl = cluster(16);
        let m = 16 * KIB;
        let count = 16;
        let (times, _) = saturation(&cl, Rank(0), Rank(1), m, count, 2, 5).unwrap();
        let per_msg = times[0] / count as f64;
        let wire = m as f64 / *cl.truth.beta.get(Rank(0), Rank(1));
        // Per-message cost approaches the wire time (within startup
        // effects).
        assert!(per_msg > wire * 0.95, "{per_msg} vs wire {wire}");
        assert!(per_msg < wire * 1.5, "{per_msg} vs wire {wire}");
    }

    #[test]
    fn send_probe_measures_sender_cpu() {
        let cl = cluster(16);
        let m = 8 * KIB;
        let (times, _) = send_probe(&cl, Rank(2), Rank(7), m, 3, 6).unwrap();
        let expected = cl.truth.c[2] + m as f64 * cl.truth.t[2];
        for t in &times {
            assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        }
    }

    #[test]
    fn delayed_recv_probe_is_documented_artifact() {
        let cl = cluster(16);
        let (times, _) = delayed_recv_probe(&cl, Rank(0), Rank(1), 4 * KIB, 0.1, 2, 7).unwrap();
        // Reception is fully overlapped in the simulator: ≈ 0.
        for t in &times {
            assert!(*t < 1e-9, "o_r probe measured {t}");
        }
    }

    #[test]
    fn gather_observation_counts_all_senders() {
        let cl = cluster(16);
        let (times, _) = gather_observation(&cl, Rank(0), 2 * KIB, 2, 8).unwrap();
        assert_eq!(times.len(), 2);
        // Root processes 15 messages serially: at least 15·(C_0 + M·t_0).
        let floor = 15.0 * (cl.truth.c[0] + 2048.0 * cl.truth.t[0]);
        assert!(times[0] > floor);
    }
}
