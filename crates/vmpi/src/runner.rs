//! Entry points for simulated MPI programs.

use cpm_core::error::{CpmError, Result};
use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use cpm_netsim::{
    run_script, run_script_traced, simulate, ScriptOp, ScriptOutcome, SimCluster, SimStats,
};

use crate::comm::Comm;

/// Output of [`run`]: per-rank results plus end-of-simulation times.
#[derive(Clone, Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values of the program.
    pub results: Vec<R>,
    /// Virtual time when the last rank finished, seconds.
    pub end_time: f64,
    /// Kernel counters (message conservation, event counts).
    pub stats: SimStats,
}

/// Runs an SPMD program over all ranks of the cluster.
pub fn run<R, F>(cluster: &SimCluster, f: F) -> Result<RunOutput<R>>
where
    R: Send,
    F: Fn(&mut Comm<'_>) -> R + Sync,
{
    let out = simulate(cluster, |p| {
        let mut comm = Comm::new(p);
        f(&mut comm)
    })?;
    Ok(RunOutput {
        results: out.results,
        end_time: out.end_time,
        stats: out.stats,
    })
}

/// Runs one straight-line script per rank through the kernel's threadless
/// fast path: no OS threads, no channel round-trips, no per-event
/// allocation — the route workload replay takes to make 1000-rank
/// simulations cheap. Timing semantics are identical to expressing the
/// same operations through [`run`] with blocking [`Comm`] calls.
///
/// # Errors
/// Returns a simulation error on deadlock.
pub fn run_program(cluster: &SimCluster, programs: &[Vec<ScriptOp>]) -> Result<ScriptOutcome> {
    run_script(cluster, programs)
}

/// [`run_program`] with recording enabled: the outcome additionally
/// carries the kernel's semantic trace and the DES engine's per-kind
/// event counts, at identical virtual timings (recording is a pop-side
/// observer on the event queue, never a scheduling input).
///
/// # Errors
/// Returns a simulation error on deadlock.
pub fn run_program_traced(
    cluster: &SimCluster,
    programs: &[Vec<ScriptOp>],
) -> Result<ScriptOutcome> {
    run_script_traced(cluster, programs)
}

/// One rank's straight-line script together with the intervals it times —
/// the script form of `let t0 = c.wtime(); …; times.push(c.wtime() - t0)`.
///
/// Every builder method appends one op and returns its index, a *mark*:
/// "wtime after op `a`". A sample from mark `a` to the last op appended is
/// `windows[b].1 - windows[a].1` of the run's [`ScriptOutcome`] — the same
/// virtual times a threaded rank reads from [`Comm::wtime`], so the
/// samples are bit-identical to the threaded program's.
#[derive(Clone, Debug, Default)]
pub struct TimedScript {
    ops: Vec<ScriptOp>,
    spans: Vec<(usize, usize)>,
}

impl TimedScript {
    fn op(&mut self, op: ScriptOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Appends a global barrier ([`Comm::barrier`]).
    pub fn barrier(&mut self) -> usize {
        self.op(ScriptOp::Barrier)
    }

    /// Appends a blocking send ([`Comm::send`]).
    pub fn send(&mut self, dst: Rank, bytes: Bytes) -> usize {
        self.op(ScriptOp::Send { dst, bytes })
    }

    /// Appends a blocking receive ([`Comm::recv`]).
    pub fn recv(&mut self, src: Rank) -> usize {
        self.op(ScriptOp::Recv { src })
    }

    /// Appends local computation ([`Comm::compute`]).
    pub fn compute(&mut self, secs: f64) -> usize {
        self.op(ScriptOp::Compute { secs })
    }

    /// Appends a whole straight-line program, e.g. one collective's
    /// per-rank lowering.
    pub fn ops(&mut self, ops: &[ScriptOp]) {
        self.ops.extend_from_slice(ops);
    }

    /// Records one sample: from `mark` to after the last op appended so
    /// far (0 when nothing was appended since `mark`).
    ///
    /// # Panics
    /// Panics when no op precedes the sample or `mark` is not one.
    pub fn sample_since(&mut self, mark: usize) {
        let end = self
            .ops
            .len()
            .checked_sub(1)
            .expect("a mark precedes the sample");
        assert!(mark <= end, "mark {mark} is not an op of this script");
        self.spans.push((mark, end));
    }
}

/// Runs one [`TimedScript`] per rank through [`run_program`] and reads each
/// rank's samples off the op windows. Returns per-rank samples, in the
/// order each rank recorded them, and the virtual time the run consumed.
///
/// # Errors
/// Returns [`CpmError::InvalidConfig`] when there is not one script per
/// rank, or a script sends to or receives from itself or a rank outside
/// the cluster — what [`Comm`]'s point-to-point calls refuse — and a
/// simulation error on deadlock.
pub fn run_timed_program(
    cluster: &SimCluster,
    scripts: Vec<TimedScript>,
) -> Result<(Vec<Vec<f64>>, f64)> {
    let n = cluster.n();
    if scripts.len() != n {
        return Err(CpmError::InvalidConfig(format!(
            "{} scripts for {n} ranks",
            scripts.len()
        )));
    }
    for (me, s) in scripts.iter().enumerate() {
        for op in &s.ops {
            if let ScriptOp::Send { dst: peer, .. } | ScriptOp::Recv { src: peer } = *op {
                if peer.idx() == me || peer.idx() >= n {
                    return Err(CpmError::InvalidConfig(format!(
                        "rank {me} cannot exchange messages with rank {peer} of {n}"
                    )));
                }
            }
        }
    }
    let (programs, spans): (Vec<_>, Vec<_>) = scripts.into_iter().map(|s| (s.ops, s.spans)).unzip();
    let out = run_program(cluster, &programs)?;
    let samples = spans
        .iter()
        .zip(&out.windows)
        .map(|(spans, w)| spans.iter().map(|&(a, b)| w[b].1 - w[a].1).collect())
        .collect();
    Ok((samples, out.end_time))
}

/// Runs a *timed experiment*: every rank executes `op` `reps` times with
/// barrier synchronization, and the per-repetition durations measured on
/// `timed_rank` are returned. Ranks not involved in the communication must
/// still participate in the barriers, which `timed_reps` guarantees.
///
/// This is the paper's measurement scheme: collectives and communication
/// experiments are timed on the sender/root side.
pub fn run_timed<F>(cluster: &SimCluster, timed_rank: Rank, reps: usize, op: F) -> Result<Vec<f64>>
where
    F: Fn(&mut Comm<'_>, usize) + Sync,
{
    let out = run(cluster, |c| c.timed_reps(reps, |c, rep| op(c, rep)))?;
    Ok(out.results[timed_rank.idx()].clone())
}

/// Runs a timed experiment and reports, per repetition, the *maximum*
/// duration over all ranks — the completion time of a collective operation
/// (all ranks leave the pre-repetition barrier together, so the maximum
/// local duration is exactly "barrier release → last rank done").
pub fn run_timed_max<F>(cluster: &SimCluster, reps: usize, op: F) -> Result<Vec<f64>>
where
    F: Fn(&mut Comm<'_>, usize) + Sync,
{
    let out = run(cluster, |c| c.timed_reps(reps, |c, rep| op(c, rep)))?;
    Ok((0..reps)
        .map(|r| {
            out.results
                .iter()
                .map(|per_rank| per_rank[r])
                .fold(0.0, f64::max)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_cluster::{ClusterSpec, GroundTruth, MpiProfile};

    fn cluster(n: usize) -> SimCluster {
        let truth = GroundTruth::synthesize(&ClusterSpec::homogeneous(n), 1);
        SimCluster::new(truth, MpiProfile::ideal(), 0.0, 1)
    }

    #[test]
    fn run_collects_all_ranks() {
        let cl = cluster(4);
        let out = run(&cl, |c| c.rank().idx() * 10).unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_timed_measures_designated_rank() {
        let cl = cluster(3);
        let truth = cl.truth.clone();
        // Rank 0 scatters 1 KB to ranks 1 and 2 each rep.
        let times = run_timed(&cl, Rank(0), 4, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 1024);
                c.send(Rank(2), 1024);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        assert_eq!(times.len(), 4);
        // Send returns after the tx engine slot; two sends = two slots.
        let expected = 2.0 * (truth.c[0] + 1024.0 * truth.t[0]);
        for t in &times {
            assert!((t - expected).abs() < 1e-12, "{t} vs {expected}");
        }
    }

    #[test]
    fn run_timed_max_reports_collective_completion() {
        let cl = cluster(3);
        let truth = cl.truth.clone();
        // Rank 0 sends to 1 and 2; completion is sensed at the slowest
        // receiver, later than the root's local send time.
        let maxes = run_timed_max(&cl, 2, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 4096);
                c.send(Rank(2), 4096);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        let root_only = run_timed(&cl, Rank(0), 2, |c, _| {
            if c.rank() == Rank(0) {
                c.send(Rank(1), 4096);
                c.send(Rank(2), 4096);
            } else {
                let _ = c.recv(Rank(0));
            }
        })
        .unwrap();
        assert!(maxes[0] > root_only[0], "{} vs {}", maxes[0], root_only[0]);
        let tx = truth.c[0] + 4096.0 * truth.t[0];
        assert!(maxes[0] > 2.0 * tx);
    }

    #[test]
    fn timed_scripts_read_wtime_intervals_and_reject_bad_peers() {
        let cl = cluster(3);
        let mut scripts = vec![TimedScript::default(); 3];
        let t0 = scripts[0].barrier();
        scripts[0].compute(0.25);
        scripts[0].sample_since(t0);
        scripts[0].sample_since(t0 + 1);
        scripts[1].barrier();
        scripts[2].barrier();
        let (samples, end) = run_timed_program(&cl, scripts.clone()).unwrap();
        assert_eq!(samples, vec![vec![0.25, 0.0], vec![], vec![]]);
        assert_eq!(end, 0.25);

        scripts[1].send(Rank(1), 8);
        let err = run_timed_program(&cl, scripts.clone()).unwrap_err();
        assert!(matches!(err, CpmError::InvalidConfig(_)), "{err}");
        scripts[1] = TimedScript::default();
        scripts[1].recv(Rank(3));
        assert!(run_timed_program(&cl, scripts).is_err());
        assert!(run_timed_program(&cl, vec![TimedScript::default()]).is_err());
    }

    #[test]
    fn uninvolved_ranks_idle_through_barriers() {
        // A 5-rank cluster where only ranks 1 and 3 communicate; the others
        // only hit the barriers. This is the shape of pair/triplet
        // experiments during estimation.
        let cl = cluster(5);
        let times = run_timed(&cl, Rank(1), 3, |c, _| match c.rank().idx() {
            1 => {
                c.send(Rank(3), 2048);
                let _ = c.recv(Rank(3));
            }
            3 => {
                let _ = c.recv(Rank(1));
                c.send(Rank(1), 2048);
            }
            _ => {}
        })
        .unwrap();
        let expected = 2.0 * cl.truth.p2p_time(Rank(1), Rank(3), 2048);
        for t in &times {
            assert!((t - expected).abs() < 1e-12);
        }
    }
}
