//! Script parity: the estimation experiments and the drift probe run as
//! per-rank scripts, and must reproduce what the same experiments give as
//! thread-per-rank `Comm` programs bit for bit.
//!
//! The references below are the threaded programs the scripts replaced,
//! kept here as the oracle only. Every case runs the LAM profile with 1 %
//! noise (so noise draws, incast escalations and the 64 KB leap are all
//! live), several ground-truth seeds, sizes on both sides of `M1`, `M2` and
//! the leap, and a few seeded same-time event orders.

use cpm_cluster::{ClusterConfig, ClusterSpec, GroundTruth, MpiProfile};
use cpm_core::rank::{Pair, Rank, Triplet};
use cpm_core::units::{Bytes, KIB};
use cpm_estimate::experiment::{
    delayed_recv_probe, gather_observation, one_to_two_round, roundtrip_round, saturation,
    send_probe,
};
use cpm_netsim::SimCluster;
use cpm_vmpi::{one_way_times, run, Comm};

/// Below `M1`, at `M1`, medium (escalation band), at the leap segment,
/// at `M2`, and large with two leap segments.
const SIZES: [Bytes; 6] = [KIB, 4 * KIB, 24 * KIB, 64 * KIB, 65 * KIB, 130 * KIB];
const SEEDS: [u64; 3] = [7, 42, 101];
const FUZZ: [Option<u64>; 3] = [None, Some(1), Some(9)];

/// The 16-node LAM cluster with 1 % noise, optionally tie-fuzzed.
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

/// A small cluster, so every rank is busy in the unit experiments.
fn small_lam(n: usize, seed: u64) -> SimCluster {
    let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), seed);
    SimCluster::new(truth, MpiProfile::lam_7_1_3(), 0.01, seed)
}

/// Per-rank durations plus the run's end time.
type Threaded = (Vec<Vec<f64>>, f64);

/// The child order a one-to-two root serves.
type Order<'a> = Option<&'a (dyn Fn(Triplet, Rank) -> [Rank; 2] + Sync)>;

fn threaded(cl: &SimCluster, f: impl Fn(&mut Comm<'_>) -> Vec<f64> + Sync) -> Threaded {
    let out = run(cl, f).expect("threaded reference runs");
    (out.results, out.end_time)
}

fn ref_roundtrip(
    cl: &SimCluster,
    units: &[Pair],
    out: Bytes,
    back: Bytes,
    reps: usize,
) -> Threaded {
    threaded(cl, |c| {
        let me = c.rank();
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if let Some(p) = units.iter().find(|p| p.contains(me)) {
                if me == p.a {
                    let t0 = c.wtime();
                    c.send(p.b, out);
                    let _ = c.recv(p.b);
                    times.push(c.wtime() - t0);
                } else {
                    let _ = c.recv(p.a);
                    c.send(p.a, back);
                }
            }
        }
        times
    })
}

fn ref_one_to_two(
    cl: &SimCluster,
    units: &[Triplet],
    out: Bytes,
    back: Bytes,
    reps: usize,
    order: Order<'_>,
) -> Threaded {
    threaded(cl, |c| {
        let me = c.rank();
        let mut times = Vec::new();
        for phase in 0..3 {
            for _ in 0..reps {
                c.barrier();
                let Some(t) = units.iter().find(|t| t.contains(me)) else {
                    continue;
                };
                let root = t.members()[phase];
                if me == root {
                    let [x, y] = order.map_or_else(|| t.others(root), |f| f(*t, root));
                    let t0 = c.wtime();
                    c.send(x, out);
                    c.send(y, out);
                    let _ = c.recv(x);
                    let _ = c.recv(y);
                    times.push(c.wtime() - t0);
                } else {
                    let _ = c.recv(root);
                    c.send(root, back);
                }
            }
        }
        times
    })
}

fn ref_saturation(
    cl: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    count: usize,
    reps: usize,
) -> Threaded {
    threaded(cl, |c| {
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if c.rank() == i {
                let t0 = c.wtime();
                for _ in 0..count {
                    c.send(j, m);
                }
                let _ = c.recv(j);
                times.push(c.wtime() - t0);
            } else if c.rank() == j {
                for _ in 0..count {
                    let _ = c.recv(i);
                }
                c.send(i, 0);
            }
        }
        times
    })
}

fn ref_send_probe(cl: &SimCluster, i: Rank, j: Rank, m: Bytes, reps: usize) -> Threaded {
    threaded(cl, |c| {
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if c.rank() == i {
                let t0 = c.wtime();
                c.send(j, m);
                times.push(c.wtime() - t0);
                let _ = c.recv(j);
            } else if c.rank() == j {
                let _ = c.recv(i);
                c.send(i, 0);
            }
        }
        times
    })
}

fn ref_delayed_recv(
    cl: &SimCluster,
    i: Rank,
    j: Rank,
    m: Bytes,
    wait: f64,
    reps: usize,
) -> Threaded {
    threaded(cl, |c| {
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if c.rank() == i {
                c.send(j, m);
                c.compute(wait);
                let t0 = c.wtime();
                let _ = c.recv(j);
                times.push(c.wtime() - t0);
            } else if c.rank() == j {
                let _ = c.recv(i);
                c.send(i, m);
            }
        }
        times
    })
}

fn ref_gather(cl: &SimCluster, root: Rank, m: Bytes, reps: usize) -> Threaded {
    threaded(cl, |c| {
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if c.rank() == root {
                let t0 = c.wtime();
                for k in (0..c.size()).filter(|&k| k != root.idx()) {
                    let _ = c.recv(Rank::from(k));
                }
                times.push(c.wtime() - t0);
            } else {
                c.send(root, m);
            }
        }
        times
    })
}

fn ref_one_way(cl: &SimCluster, units: &[Pair], m: Bytes, reps: usize) -> Threaded {
    threaded(cl, |c| {
        let me = c.rank();
        let mut times = Vec::new();
        for _ in 0..reps {
            c.barrier();
            if let Some(p) = units.iter().find(|p| p.contains(me)) {
                if me == p.a {
                    c.send(p.b, m);
                } else {
                    let t0 = c.wtime();
                    let _ = c.recv(p.a);
                    times.push(c.wtime() - t0);
                }
            }
        }
        times
    })
}

/// Compares sample vectors and end times by bit pattern.
fn assert_same(what: &str, scripted: (&[f64], f64), reference: (&[f64], f64)) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(scripted.0),
        bits(reference.0),
        "{what}: samples differ"
    );
    assert_eq!(
        scripted.1.to_bits(),
        reference.1.to_bits(),
        "{what}: end time differs ({} vs {})",
        scripted.1,
        reference.1
    );
}

#[test]
fn roundtrip_round_matches_threaded_reference() {
    let units = [
        Pair::new(Rank(0), Rank(9)),
        Pair::new(Rank(3), Rank(4)),
        Pair::new(Rank(15), Rank(7)),
    ];
    for (name, cl) in clusters() {
        for &m in &SIZES {
            let seed = m ^ 0x51;
            let (samples, end) = roundtrip_round(&cl, &units, m, m / 2, 3, seed).unwrap();
            let (times, ref_end) = ref_roundtrip(&cl.reseeded(seed), &units, m, m / 2, 3);
            for s in &samples {
                let what = format!("{name}, m {m}, {:?}", s.pair);
                assert_same(&what, (&s.t, end), (&times[s.pair.a.idx()], ref_end));
            }
        }
    }
}

#[test]
fn one_to_two_round_matches_threaded_reference() {
    let units = [
        Triplet::new(Rank(1), Rank(5), Rank(9)),
        Triplet::new(Rank(0), Rank(12), Rank(15)),
    ];
    // The LMO estimator's kind of ordering: not canonical member order.
    let reversed = |t: Triplet, root: Rank| {
        let [x, y] = t.others(root);
        [y, x]
    };
    let orders: [Order<'_>; 2] = [None, Some(&reversed)];
    for (name, cl) in clusters() {
        for &m in &SIZES {
            for order in orders {
                let seed = m ^ 0x3;
                let (samples, end) = one_to_two_round(&cl, &units, m, m, 2, seed, order).unwrap();
                let (times, ref_end) = ref_one_to_two(&cl.reseeded(seed), &units, m, m, 2, order);
                assert_eq!(samples.len(), 3 * units.len());
                for s in &samples {
                    let what = format!("{name}, m {m}, root {} of {:?}", s.root, s.triplet);
                    assert_same(&what, (&s.t, end), (&times[s.root.idx()], ref_end));
                }
            }
        }
    }
}

#[test]
fn pair_probes_match_threaded_references() {
    let (i, j) = (Rank(11), Rank(2));
    for (name, cl) in clusters() {
        for &m in &SIZES {
            let seed = m ^ 0x77;
            let rc = cl.reseeded(seed);
            let (t, end) = saturation(&cl, i, j, m, 5, 2, seed).unwrap();
            let (r, ref_end) = ref_saturation(&rc, i, j, m, 5, 2);
            assert_same(
                &format!("saturation, {name}, m {m}"),
                (&t, end),
                (&r[i.idx()], ref_end),
            );

            let (t, end) = send_probe(&cl, i, j, m, 3, seed).unwrap();
            let (r, ref_end) = ref_send_probe(&rc, i, j, m, 3);
            assert_same(
                &format!("send probe, {name}, m {m}"),
                (&t, end),
                (&r[i.idx()], ref_end),
            );

            let (t, end) = delayed_recv_probe(&cl, i, j, m, 0.05, 3, seed).unwrap();
            let (r, ref_end) = ref_delayed_recv(&rc, i, j, m, 0.05, 3);
            assert_same(
                &format!("o_r probe, {name}, m {m}"),
                (&t, end),
                (&r[i.idx()], ref_end),
            );
        }
    }
}

#[test]
fn gather_observation_matches_threaded_reference() {
    for (name, cl) in clusters() {
        for root in [Rank(0), Rank(6)] {
            for &m in &SIZES {
                let seed = m ^ 0x99;
                let (t, end) = gather_observation(&cl, root, m, 4, seed).unwrap();
                let (r, ref_end) = ref_gather(&cl.reseeded(seed), root, m, 4);
                let what = format!("{name}, root {root}, m {m}");
                assert_same(&what, (&t, end), (&r[root.idx()], ref_end));
            }
        }
    }
}

#[test]
fn one_way_times_matches_threaded_reference() {
    let units = [Pair::new(Rank(14), Rank(1)), Pair::new(Rank(5), Rank(8))];
    for (name, cl) in clusters() {
        for &m in &SIZES {
            let seed = m ^ 0x1d;
            let (samples, end) = one_way_times(&cl, &units, m, 3, seed).unwrap();
            let (times, ref_end) = ref_one_way(&cl.reseeded(seed), &units, m, 3);
            for (pair, t) in &samples {
                let what = format!("{name}, m {m}, {pair:?}");
                assert_same(&what, (t, end), (&times[pair.b.idx()], ref_end));
            }
        }
    }
}

/// Every rank busy: disjoint units cover the whole cluster, so the
/// parallel runs contend at every receiver the schedule allows.
#[test]
fn fully_packed_units_match_threaded_references() {
    for seed in SEEDS {
        let cl = small_lam(6, seed);
        let pairs = [
            Pair::new(Rank(0), Rank(5)),
            Pair::new(Rank(1), Rank(4)),
            Pair::new(Rank(2), Rank(3)),
        ];
        let triplets = [
            Triplet::new(Rank(0), Rank(2), Rank(4)),
            Triplet::new(Rank(1), Rank(3), Rank(5)),
        ];
        for &m in &SIZES {
            let (samples, end) = roundtrip_round(&cl, &pairs, m, m, 2, seed).unwrap();
            let (times, ref_end) = ref_roundtrip(&cl.reseeded(seed), &pairs, m, m, 2);
            for s in &samples {
                let what = format!("packed pairs, seed {seed}, m {m}");
                assert_same(&what, (&s.t, end), (&times[s.pair.a.idx()], ref_end));
            }
            let (samples, end) = one_to_two_round(&cl, &triplets, m, 0, 2, seed, None).unwrap();
            let (times, ref_end) = ref_one_to_two(&cl.reseeded(seed), &triplets, m, 0, 2, None);
            for s in &samples {
                let what = format!("packed triplets, seed {seed}, m {m}");
                assert_same(&what, (&s.t, end), (&times[s.root.idx()], ref_end));
            }
        }
    }
}
