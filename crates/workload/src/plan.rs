//! The analytic engine: critical-path evaluation of a lowered trace.
//!
//! [`plan`] compiles a trace into the per-rank dependency DAG (via
//! [`mod@crate::lower`]) and predicts the end-to-end makespan by evaluating
//! the DAG with a deterministic event-driven machine under the chosen
//! model:
//!
//! * **Extended LMO** charges each resource its parameters name, exactly
//!   as the simulator does in its regular regime: a blocking send
//!   occupies the sender's tx engine for `C_i + M·t_i`, the message then
//!   takes `L_ij` to reach the wire, waits for earlier transfers on the
//!   same connection, streams for `M/β_ij`, and finally occupies the
//!   receiver's rx engine for `C_j + M·t_j` in arrival order — whether or
//!   not the receive is posted yet.
//! * **Hockney / LogGP / PLogP** cannot separate the contributions of the
//!   processors and the network (the paper's central criticism), so the
//!   machine charges the whole point-to-point time `T(M)` as sender
//!   occupancy and delivers at `send_start + T(M)`: no receive-side
//!   resource, no wire serialization. At application level this is what
//!   makes them misrank schedules that pipeline or fan in.
//!
//! Algorithm choices per collective op are made first (the
//! `TunedCollectives`/`select` comparisons of `cpm-collectives`), then a
//! single lowering feeds both this evaluator and the DES replay.

use cpm_core::rank::Rank;
use cpm_core::traits::PointToPoint;
use cpm_core::tree::BinomialTree;
use cpm_core::units::Bytes;
use cpm_models::collective::{binomial_recursive_full, linear_serial};
use cpm_models::{HierLmo, HockneyHet, LmoExtended, LogGp, PLogP};

use crate::lower::{lower, Algorithm, Lowered, Prim};
use crate::trace::{OpKind, Trace, TraceOp, WorkloadError};

/// The model a plan is evaluated under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's heterogeneous LMO model.
    Lmo,
    /// The hierarchical LMO extension: per-level (C, t, L, β) parameters
    /// over a level tree, with level-aware algorithm choice.
    LmoHier,
    /// Hockney's latency/bandwidth model.
    Hockney,
    /// LogGP with a distinct gap per byte for large messages.
    Loggp,
    /// Parameterized LogP: piecewise per-size overheads and gaps.
    Plogp,
}

impl ModelKind {
    /// The flat models every [`ModelSet`] stores, in reporting order.
    /// `LmoHier` is deliberately excluded: it needs a topology, so it is
    /// built per-cluster rather than stored in a set.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Lmo,
        ModelKind::Hockney,
        ModelKind::Loggp,
        ModelKind::Plogp,
    ];

    /// The name used on the wire and in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelKind::Lmo => "lmo",
            ModelKind::LmoHier => "lmo-hier",
            ModelKind::Hockney => "hockney",
            ModelKind::Loggp => "loggp",
            ModelKind::Plogp => "plogp",
        }
    }

    /// Parses the wire name (the inverse of [`ModelKind::as_str`]).
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s {
            "lmo" => Some(ModelKind::Lmo),
            "lmo-hier" => Some(ModelKind::LmoHier),
            "hockney" => Some(ModelKind::Hockney),
            "loggp" => Some(ModelKind::Loggp),
            "plogp" => Some(ModelKind::Plogp),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete parameterized model to plan under.
#[derive(Clone, Debug)]
pub enum PlanModel {
    /// An estimated extended-LMO parameter set.
    Lmo(LmoExtended),
    /// A hierarchical LMO parameter set (per-level links over a level
    /// tree). The machine evaluates it through its lossless fold into the
    /// flat extended model; the algorithm chooser additionally considers
    /// leader-based two-phase schedules.
    LmoHier(HierLmo),
    /// An estimated per-pair Hockney fit.
    Hockney(HockneyHet),
    /// An estimated LogGP fit.
    Loggp(LogGp),
    /// An estimated PLogP fit (piecewise-linear in the size).
    Plogp(PLogP),
}

impl PlanModel {
    /// Which family this concrete model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            PlanModel::Lmo(_) => ModelKind::Lmo,
            PlanModel::LmoHier(_) => ModelKind::LmoHier,
            PlanModel::Hockney(_) => ModelKind::Hockney,
            PlanModel::Loggp(_) => ModelKind::Loggp,
            PlanModel::Plogp(_) => ModelKind::Plogp,
        }
    }

    fn as_p2p(&self) -> &dyn PointToPoint {
        match self {
            PlanModel::Lmo(m) => m,
            PlanModel::LmoHier(m) => m,
            PlanModel::Hockney(m) => m,
            PlanModel::Loggp(m) => m,
            PlanModel::Plogp(m) => m,
        }
    }

    /// The model the critical-path machine evaluates: hierarchical models
    /// fold into their equivalent flat extended-LMO form (identical
    /// point-to-point times), everything else is itself.
    fn machine_model(&self) -> std::borrow::Cow<'_, PlanModel> {
        match self {
            PlanModel::LmoHier(h) => std::borrow::Cow::Owned(PlanModel::Lmo(h.to_extended())),
            m => std::borrow::Cow::Borrowed(m),
        }
    }
}

/// All four parameterized models for one cluster, as `cpm-serve` stores
/// them.
#[derive(Clone, Debug)]
pub struct ModelSet {
    /// The extended-LMO parameter set.
    pub lmo: LmoExtended,
    /// The per-pair Hockney fit.
    pub hockney: HockneyHet,
    /// The LogGP fit.
    pub loggp: LogGp,
    /// The PLogP fit.
    pub plogp: PLogP,
}

impl ModelSet {
    /// The concrete model of the requested family (cloned out).
    ///
    /// # Panics
    /// Panics for [`ModelKind::LmoHier`]: hierarchical models carry a
    /// topology and are built per-cluster (see `cpm_models::HierLmo`), not
    /// stored in a flat set.
    pub fn get(&self, kind: ModelKind) -> PlanModel {
        match kind {
            ModelKind::Lmo => PlanModel::Lmo(self.lmo.clone()),
            ModelKind::LmoHier => {
                panic!("ModelSet stores only flat models; build PlanModel::LmoHier from a HierLmo")
            }
            ModelKind::Hockney => PlanModel::Hockney(self.hockney.clone()),
            ModelKind::Loggp => PlanModel::Loggp(self.loggp.clone()),
            ModelKind::Plogp => PlanModel::Plogp(self.plogp.clone()),
        }
    }
}

/// Per-op slice of a plan.
#[derive(Clone, Debug, PartialEq)]
pub struct OpReport {
    /// The trace op id.
    pub id: u64,
    /// The op's phase label.
    pub phase: String,
    /// The op kind name (`"p2p"`, `"scatter"`, ...).
    pub kind: String,
    /// Chosen algorithm for collective ops.
    pub algorithm: Option<String>,
    /// Earliest predicted activity of the op (seconds from t=0).
    pub start: f64,
    /// Latest predicted activity of the op.
    pub end: f64,
}

/// Per-phase breakdown: the span of all ops sharing a phase label.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// The phase label.
    pub phase: String,
    /// Earliest predicted activity in the phase, seconds from t=0.
    pub start: f64,
    /// Latest predicted activity in the phase.
    pub end: f64,
}

/// One resource occupancy on the critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CpStep {
    /// Rank whose resource the step occupies: the sender for
    /// `tx`/`latency`/`wire`/`p2p` steps, the receiver for `rx`.
    pub rank: usize,
    /// Trace op id the step implements.
    pub op: u64,
    /// Resource kind: `"tx"`, `"latency"`, `"wire"`, `"rx"` (separable
    /// LMO), `"p2p"` (whole-transfer models) or `"compute"`.
    pub kind: &'static str,
    /// Step start, seconds from t=0.
    pub start: f64,
    /// Step end, seconds from t=0.
    pub end: f64,
    /// Model-term attribution of `end - start`: `C`/`t`/`L`/`beta` under
    /// LMO (`L[<level>]`/`beta[<level>]` under the hierarchical model),
    /// `alpha`/`beta` under whole-transfer models, plus `compute`.
    pub terms: Vec<(String, f64)>,
}

/// The longest dependency chain behind a plan's makespan: the sequence of
/// resource occupancies in which every step begins exactly where its
/// binding predecessor ends, starting at t=0 and ending at the makespan.
///
/// This is the explanation the paper asks predictions to come with:
/// summing [`CriticalPath::terms`] recovers the makespan (up to float
/// rounding), so the breakdown says which model parameters — per-level
/// where the model is hierarchical — the predicted time is made of.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// Total path time, seconds. Equals the makespan up to rounding.
    pub seconds: f64,
    /// The chain in time order; `steps[k].start == steps[k-1].end`.
    pub steps: Vec<CpStep>,
    /// Term attribution summed over the steps, in first-seen order.
    pub terms: Vec<(String, f64)>,
}

impl CriticalPath {
    /// JSON form embedded in [`Plan::to_value`].
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let steps: Vec<Value> = self
            .steps
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("rank".to_string(), Value::U64(s.rank as u64)),
                    ("op".to_string(), Value::U64(s.op)),
                    ("kind".to_string(), Value::Str(s.kind.to_string())),
                    ("start".to_string(), Value::F64(s.start)),
                    ("end".to_string(), Value::F64(s.end)),
                    (
                        "terms".to_string(),
                        Value::Map(
                            s.terms
                                .iter()
                                .map(|(k, v)| (k.clone(), Value::F64(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Map(vec![
            ("seconds".to_string(), Value::F64(self.seconds)),
            (
                "terms".to_string(),
                Value::Map(
                    self.terms
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            ("steps".to_string(), Value::Seq(steps)),
        ])
    }
}

/// The analytic prediction for one trace under one model.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The model the plan was evaluated under.
    pub model: ModelKind,
    /// Canonical hash of the planned trace.
    pub trace_hash: String,
    /// Predicted end-to-end makespan, seconds.
    pub makespan: f64,
    /// Per-op schedule windows and algorithm choices.
    pub ops: Vec<OpReport>,
    /// Per-phase spans.
    pub phases: Vec<PhaseReport>,
    /// The binding dependency chain and its model-term attribution.
    pub critical_path: CriticalPath,
}

impl Plan {
    /// JSON form used by the serve `plan` verb and the CLI.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let ops: Vec<Value> = self
            .ops
            .iter()
            .map(|o| {
                let mut entries = vec![
                    ("id".to_string(), Value::U64(o.id)),
                    ("phase".to_string(), Value::Str(o.phase.clone())),
                    ("kind".to_string(), Value::Str(o.kind.clone())),
                ];
                if let Some(a) = &o.algorithm {
                    entries.push(("algorithm".to_string(), Value::Str(a.clone())));
                }
                entries.push(("start".to_string(), Value::F64(o.start)));
                entries.push(("end".to_string(), Value::F64(o.end)));
                Value::Map(entries)
            })
            .collect();
        let phases: Vec<Value> = self
            .phases
            .iter()
            .map(|p| {
                Value::Map(vec![
                    ("phase".to_string(), Value::Str(p.phase.clone())),
                    ("start".to_string(), Value::F64(p.start)),
                    ("end".to_string(), Value::F64(p.end)),
                    ("seconds".to_string(), Value::F64(p.end - p.start)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("model".to_string(), Value::Str(self.model.to_string())),
            (
                "trace_hash".to_string(),
                Value::Str(self.trace_hash.clone()),
            ),
            ("makespan_seconds".to_string(), Value::F64(self.makespan)),
            ("ops".to_string(), Value::Seq(ops)),
            ("phases".to_string(), Value::Seq(phases)),
            ("critical_path".to_string(), self.critical_path.to_value()),
        ])
    }
}

fn ceil_log2(n: usize) -> f64 {
    debug_assert!(n >= 1);
    if n <= 1 {
        0.0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as f64
    }
}

/// Evaluates one op in isolation under `alg` with the exact critical-path
/// machine — the arbiter the hierarchical chooser ranks candidates with
/// (closed forms for two-phase schedules would drift from the lowering;
/// the machine cannot).
fn eval_single_op(n: usize, op: &TraceOp, alg: Algorithm, model: &PlanModel) -> f64 {
    let t = Trace {
        name: "probe".into(),
        n,
        ops: vec![op.clone()],
    };
    let lowered = lower(&t, &[Some(alg)]);
    let mut machine = Machine::new(&lowered, model);
    match machine.run() {
        Ok(()) => machine.makespan(),
        Err(_) => f64::INFINITY,
    }
}

/// Level-aware algorithm choice: per rooted collective, the machine-exact
/// argmin over linear, binomial and (for bcast/reduce) the leader-based
/// two-phase schedule with the model's natural intra-group size.
fn choose_hier(trace: &Trace, hier: &HierLmo) -> Vec<Option<Algorithm>> {
    let n = trace.n;
    let flat = PlanModel::Lmo(hier.to_extended());
    let intra = hier.intra_size();
    let two_phase = (intra > 1 && intra < n).then_some(Algorithm::TwoPhase { intra });
    let argmin = |op: &TraceOp, candidates: &[Algorithm]| {
        candidates.iter().copied().min_by(|a, b| {
            eval_single_op(n, op, *a, &flat).total_cmp(&eval_single_op(n, op, *b, &flat))
        })
    };
    trace
        .ops
        .iter()
        .map(|op| match &op.kind {
            OpKind::Scatter { .. } | OpKind::Gather { .. } => {
                argmin(op, &[Algorithm::Linear, Algorithm::Binomial])
            }
            OpKind::Bcast { .. } | OpKind::Reduce { .. } => {
                let mut candidates = vec![Algorithm::Linear, Algorithm::Binomial];
                candidates.extend(two_phase);
                argmin(op, &candidates)
            }
            OpKind::Allgather { .. } => Some(Algorithm::Ring),
            OpKind::Alltoall { .. } => Some(Algorithm::Rotation),
            _ => None,
        })
        .collect()
}

/// Chooses the algorithm per collective op under `model` — the same
/// linear-vs-binomial comparisons `TunedCollectives` and
/// `cpm_collectives::select` make per collective, applied op by op. Under
/// [`PlanModel::LmoHier`] the comparison is machine-exact and extends to
/// the leader-based two-phase schedules (see [`Algorithm::TwoPhase`]).
pub fn choose(trace: &Trace, model: &PlanModel) -> Vec<Option<Algorithm>> {
    if let PlanModel::LmoHier(h) = model {
        return choose_hier(trace, h);
    }
    let n = trace.n;
    let pick = |linear: f64, binomial: f64| {
        if linear <= binomial {
            Some(Algorithm::Linear)
        } else {
            Some(Algorithm::Binomial)
        }
    };
    trace
        .ops
        .iter()
        .map(|op| match (&op.kind, model) {
            (OpKind::Scatter { root, m }, PlanModel::Lmo(l)) => {
                let tree = BinomialTree::new(n, *root);
                pick(l.linear_scatter(*root, *m), l.binomial_scatter(&tree, *m))
            }
            (OpKind::Scatter { root, m }, _) => {
                let p = cpm_collectives::select::predict_scatter_generic(model.as_p2p(), *root, *m);
                pick(p.linear, p.binomial)
            }
            (OpKind::Bcast { root, m }, PlanModel::Lmo(l)) => {
                let tree = BinomialTree::new(n, *root);
                pick(
                    l.linear_scatter(*root, *m),
                    binomial_recursive_full(l, &tree, *m),
                )
            }
            (OpKind::Bcast { root, m }, _) => {
                let tree = BinomialTree::new(n, *root);
                pick(
                    linear_serial(model.as_p2p(), *root, *m),
                    binomial_recursive_full(model.as_p2p(), &tree, *m),
                )
            }
            (OpKind::Gather { root, m }, PlanModel::Lmo(l)) => {
                let tree = BinomialTree::new(n, *root);
                pick(
                    l.linear_gather(*root, *m).expected,
                    l.binomial_scatter(&tree, *m),
                )
            }
            (OpKind::Gather { root, m }, _) => {
                let tree = BinomialTree::new(n, *root);
                pick(
                    linear_serial(model.as_p2p(), *root, *m),
                    cpm_models::collective::binomial_recursive(model.as_p2p(), &tree, *m),
                )
            }
            (OpKind::Reduce { root, m, gamma }, PlanModel::Lmo(l)) => {
                let tree = BinomialTree::new(n, *root);
                let combine = gamma * *m as f64;
                pick(
                    cpm_collectives::reduce::predict_linear_reduce(l, *root, *m, *gamma),
                    binomial_recursive_full(l, &tree, *m) + ceil_log2(n) * combine,
                )
            }
            (OpKind::Reduce { root, m, gamma }, _) => {
                let tree = BinomialTree::new(n, *root);
                let combine = gamma * *m as f64;
                pick(
                    linear_serial(model.as_p2p(), *root, *m) + (n as f64 - 1.0) * combine,
                    binomial_recursive_full(model.as_p2p(), &tree, *m) + ceil_log2(n) * combine,
                )
            }
            (OpKind::Allgather { .. }, _) => Some(Algorithm::Ring),
            (OpKind::Alltoall { .. }, _) => Some(Algorithm::Rotation),
            _ => None,
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum EvKind {
    /// Resume a rank's program.
    Wake(usize),
    /// A message finished streaming on the wire (LMO only).
    TransferDone(usize),
    /// A message left the receiver's rx engine and entered the mailbox.
    Deliver(usize),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum RankState {
    Runnable,
    Blocked(Rank),
    AtBarrier,
    Done,
}

struct Msg {
    src: usize,
    dst: usize,
    m: Bytes,
    /// Index into `trace.ops` of the op whose send produced the message.
    op: usize,
}

/// A segment's model-term attribution: one or two `(name, seconds)`
/// pairs, the name an index into [`CpTracker::names`].
type SegTerms = [Option<(usize, f64)>; 2];

/// One tracked resource occupancy; `pred` is the segment whose end bound
/// this segment's start (the binding dependency, not program order).
struct CpSeg {
    rank: usize,
    op: usize,
    kind: &'static str,
    start: f64,
    end: f64,
    terms: SegTerms,
    pred: Option<usize>,
}

// Fixed slots of `CpTracker::names`.
const TERM_C: usize = 0;
const TERM_T: usize = 1;
const TERM_ALPHA: usize = 2;
const TERM_BETA: usize = 3;
const TERM_COMPUTE: usize = 4;

/// Critical-path bookkeeping, kept out of the machine's hot loop unless
/// requested (the hierarchical chooser runs the machine many times per
/// plan and never needs a path).
///
/// Invariant: after every machine step, `rank_seg[r]` (if any) ends
/// exactly at `clock[r]`, so walking `pred` links back from the rank that
/// realizes the makespan yields a gap-free chain from t=0.
struct CpTracker {
    segs: Vec<CpSeg>,
    /// Segment that produced each rank's current clock.
    rank_seg: Vec<Option<usize>>,
    /// Segment that last occupied each connection (`src·n + dst`), stored
    /// as index + 1 with 0 for none: `vec![0; _]` is a zeroed allocation,
    /// so connections a plan never uses cost no writes.
    conn_seg: Vec<usize>,
    /// Segment that last occupied each rank's rx engine.
    rx_seg: Vec<Option<usize>>,
    /// Head segment of each in-flight message's chain.
    msg_seg: Vec<Option<usize>>,
    /// Innermost common level per pair (`src·n + dst`), when the plan is
    /// for a hierarchical model — selects the level-suffixed term names.
    pair_level: Option<Vec<usize>>,
    /// Distinct term names; segments refer to them by index, and strings
    /// are built only for the steps of the final path.
    names: Vec<String>,
    /// Latency term name per level (just `"L"` for flat models).
    lat_names: Vec<usize>,
    /// Wire term name per level (just `"beta"` for flat models).
    wire_names: Vec<usize>,
}

impl CpTracker {
    fn new(n: usize, hier: Option<&HierLmo>) -> Self {
        let mut names: Vec<String> = ["C", "t", "alpha", "beta", "compute"]
            .map(String::from)
            .to_vec();
        let mut intern = |name: String| match names.iter().position(|x| *x == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let (pair_level, lat_names, wire_names) = match hier {
            Some(h) => {
                let mut pl = vec![0usize; n * n];
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            pl[i * n + j] = h.level_of(Rank(i as u32), Rank(j as u32));
                        }
                    }
                }
                let lat = h
                    .levels
                    .iter()
                    .map(|l| intern(format!("L[{}]", l.name)))
                    .collect();
                let wire = h
                    .levels
                    .iter()
                    .map(|l| intern(format!("beta[{}]", l.name)))
                    .collect();
                (Some(pl), lat, wire)
            }
            None => (
                None,
                vec![intern("L".to_string())],
                vec![intern("beta".to_string())],
            ),
        };
        CpTracker {
            segs: Vec::new(),
            rank_seg: vec![None; n],
            conn_seg: vec![0; n * n],
            rx_seg: vec![None; n],
            msg_seg: Vec::new(),
            pair_level,
            names,
            lat_names,
            wire_names,
        }
    }

    fn push(&mut self, seg: CpSeg) -> usize {
        self.segs.push(seg);
        self.segs.len() - 1
    }

    fn end_of(&self, seg: Option<usize>) -> f64 {
        seg.map_or(0.0, |i| self.segs[i].end)
    }

    /// Separable LMO send: tx occupancy, then latency, then the wire slot
    /// (bound by whichever of arrival and connection availability is
    /// later). Registers the wire segment as the message chain head.
    #[allow(clippy::too_many_arguments)]
    fn lmo_send(
        &mut self,
        n: usize,
        src: usize,
        dst: usize,
        op: usize,
        now: f64,
        s1: f64,
        c_term: f64,
        t_term: f64,
        lat: f64,
        arrival: f64,
        conn_was: f64,
        wire_start: f64,
        done: f64,
        wire: f64,
    ) {
        let lv = self.pair_level.as_ref().map_or(0, |pl| pl[src * n + dst]);
        let pred = self.rank_seg[src];
        let tx = self.push(CpSeg {
            rank: src,
            op,
            kind: "tx",
            start: now,
            end: s1,
            terms: [Some((TERM_C, c_term)), Some((TERM_T, t_term))],
            pred,
        });
        self.rank_seg[src] = Some(tx);
        let latseg = self.push(CpSeg {
            rank: src,
            op,
            kind: "latency",
            start: s1,
            end: arrival,
            terms: [Some((self.lat_names[lv], lat)), None],
            pred: Some(tx),
        });
        let wire_pred = if conn_was > arrival {
            self.conn_seg[src * n + dst].checked_sub(1)
        } else {
            Some(latseg)
        };
        let w = self.push(CpSeg {
            rank: src,
            op,
            kind: "wire",
            start: wire_start,
            end: done,
            terms: [Some((self.wire_names[lv], wire)), None],
            pred: wire_pred,
        });
        self.conn_seg[src * n + dst] = w + 1;
        self.msg_seg.push(Some(w));
    }

    /// Whole-transfer send under a non-separable model, split into the
    /// model's zero-byte time (`alpha`) and the size-dependent remainder
    /// (`beta`).
    fn p2p_send(&mut self, src: usize, op: usize, now: f64, s1: f64, alpha: f64) {
        let pred = self.rank_seg[src];
        let seg = self.push(CpSeg {
            rank: src,
            op,
            kind: "p2p",
            start: now,
            end: s1,
            terms: [
                Some((TERM_ALPHA, alpha)),
                Some((TERM_BETA, (s1 - now) - alpha)),
            ],
            pred,
        });
        self.rank_seg[src] = Some(seg);
        self.msg_seg.push(Some(seg));
    }

    fn compute(&mut self, rank: usize, op: usize, start: f64, end: f64) {
        let pred = self.rank_seg[rank];
        let seg = self.push(CpSeg {
            rank,
            op,
            kind: "compute",
            start,
            end,
            terms: [Some((TERM_COMPUTE, end - start)), None],
            pred,
        });
        self.rank_seg[rank] = Some(seg);
    }

    /// Rx-engine occupancy of a delivered message, bound by the later of
    /// the wire completion and the engine's previous occupancy.
    #[allow(clippy::too_many_arguments)]
    fn rx(
        &mut self,
        msg_id: usize,
        dst: usize,
        op: usize,
        rx_was: f64,
        arrived: f64,
        r0: f64,
        r1: f64,
        c_term: f64,
        t_term: f64,
    ) {
        let pred = if rx_was > arrived {
            self.rx_seg[dst]
        } else {
            self.msg_seg[msg_id]
        };
        let seg = self.push(CpSeg {
            rank: dst,
            op,
            kind: "rx",
            start: r0,
            end: r1,
            terms: [Some((TERM_C, c_term)), Some((TERM_T, t_term))],
            pred,
        });
        self.rx_seg[dst] = Some(seg);
        self.msg_seg[msg_id] = Some(seg);
    }

    /// A receive consumed `msg_id`: if the message chain is what raised
    /// the rank's clock, it becomes the rank's binding chain.
    fn consume(&mut self, rank: usize, msg_id: usize) {
        if self.end_of(self.msg_seg[msg_id]) > self.end_of(self.rank_seg[rank]) {
            self.rank_seg[rank] = self.msg_seg[msg_id];
        }
    }

    /// A full barrier released: every waiter's clock becomes the latest
    /// arriver's, so every waiter binds to that arriver's chain.
    fn barrier_release(&mut self, waiters: &[(usize, usize)], clocks: &[f64]) {
        let Some(&(star, _)) = waiters
            .iter()
            .max_by(|a, b| clocks[a.0].total_cmp(&clocks[b.0]))
        else {
            return;
        };
        let chain = self.rank_seg[star];
        for &(r, _) in waiters {
            self.rank_seg[r] = chain;
        }
    }
}

struct Machine<'a> {
    lowered: &'a Lowered,
    /// `Some` for the separable LMO machine, `None` for whole-transfer
    /// homogeneous occupancy.
    lmo: Option<&'a LmoExtended>,
    p2p: &'a dyn PointToPoint,
    clock: Vec<f64>,
    pc: Vec<usize>,
    state: Vec<RankState>,
    /// Per-connection wire availability, flattened `src·n + dst` (LMO).
    conn_free: Vec<f64>,
    /// Per-rank rx engine availability (LMO).
    rx_free: Vec<f64>,
    /// Delivered-but-unconsumed messages per rank, delivery order.
    mailbox: Vec<Vec<usize>>,
    msgs: Vec<Msg>,
    /// The analytic machine's schedule runs on the same DES engine as the
    /// simulator: keys are [`cpm_des::Seconds`] (bit-order == value order
    /// for the machine's non-negative times) and ties break by insertion
    /// sequence — exactly the `(total_cmp, seq)` order the old ad-hoc
    /// binary heap used, so plan goldens are unchanged.
    events: cpm_des::Engine<cpm_des::Seconds, EvKind>,
    barrier: Vec<(usize, usize)>,
    /// Per-op (earliest, latest) activity.
    windows: Vec<(f64, f64)>,
    /// Critical-path bookkeeping; `None` (the chooser's probes) costs
    /// nothing.
    cp: Option<CpTracker>,
}

impl<'a> Machine<'a> {
    fn new(lowered: &'a Lowered, model: &'a PlanModel) -> Self {
        let n = lowered.n;
        let ops = lowered.algorithms.len();
        Machine {
            lowered,
            lmo: match model {
                PlanModel::Lmo(l) => Some(l),
                _ => None,
            },
            p2p: model.as_p2p(),
            clock: vec![0.0; n],
            pc: vec![0; n],
            state: vec![RankState::Runnable; n],
            conn_free: vec![0.0; n * n],
            rx_free: vec![0.0; n],
            mailbox: vec![Vec::new(); n],
            msgs: Vec::new(),
            events: cpm_des::Engine::new(),
            barrier: Vec::new(),
            windows: vec![(f64::INFINITY, f64::NEG_INFINITY); ops],
            cp: None,
        }
    }

    /// Turns on critical-path tracking; pass the hierarchical model when
    /// planning under one so link terms carry level-suffixed names.
    fn track_critical_path(&mut self, hier: Option<&HierLmo>) {
        self.cp = Some(CpTracker::new(self.lowered.n, hier));
    }

    fn push(&mut self, t: f64, kind: EvKind) {
        self.events.schedule(cpm_des::Seconds::new(t), kind);
    }

    fn touch(&mut self, op: usize, start: f64, end: f64) {
        let w = &mut self.windows[op];
        w.0 = w.0.min(start);
        w.1 = w.1.max(end);
    }

    /// Executes `rank`'s program until it blocks, yields after advancing
    /// its clock, or finishes.
    fn run_rank(&mut self, rank: usize) {
        self.state[rank] = RankState::Runnable;
        loop {
            let Some(rp) = self.lowered.per_rank[rank].get(self.pc[rank]).copied() else {
                self.state[rank] = RankState::Done;
                return;
            };
            let now = self.clock[rank];
            match rp.prim {
                Prim::Send { dst, m } => {
                    let (s1, deliver_path) = if let Some(l) = self.lmo {
                        // tx engine slot; the sender returns when it ends.
                        let c_term = l.c[rank];
                        let t_term = m as f64 * l.t[rank];
                        let s1 = now + c_term + t_term;
                        // Wire: latency, then serialization behind earlier
                        // transfers on the same connection. Same-pair
                        // arrivals are posting-ordered (same sender tx
                        // serialization, same latency), so the connection
                        // slot can be claimed at post time.
                        let lat = *l.l.get(Rank(rank as u32), dst);
                        let arrival = s1 + lat;
                        let conn = rank * self.lowered.n + dst.idx();
                        let conn_was = self.conn_free[conn];
                        let wire_start = conn_was.max(arrival);
                        let wire = m as f64 / *l.beta.get(Rank(rank as u32), dst);
                        let done = wire_start + wire;
                        self.conn_free[conn] = done;
                        if let Some(cp) = self.cp.as_mut() {
                            cp.lmo_send(
                                self.lowered.n,
                                rank,
                                dst.idx(),
                                rp.op,
                                now,
                                s1,
                                c_term,
                                t_term,
                                lat,
                                arrival,
                                conn_was,
                                wire_start,
                                done,
                                wire,
                            );
                        }
                        (s1, Some(done))
                    } else {
                        // Non-separable model: the whole transfer occupies
                        // the sender; delivery coincides with completion.
                        let t = self.p2p.p2p(Rank(rank as u32), dst, m);
                        if let Some(cp) = self.cp.as_mut() {
                            // Zero-byte time is the model's fixed part;
                            // clamp so a degenerate fit still attributes
                            // non-negative alpha/beta.
                            let alpha = self.p2p.p2p(Rank(rank as u32), dst, 0).clamp(0.0, t);
                            cp.p2p_send(rank, rp.op, now, now + t, alpha);
                        }
                        (now + t, None)
                    };
                    let msg_id = self.msgs.len();
                    self.msgs.push(Msg {
                        src: rank,
                        dst: dst.idx(),
                        m,
                        op: rp.op,
                    });
                    match deliver_path {
                        Some(done) => self.push(done, EvKind::TransferDone(msg_id)),
                        None => self.push(s1, EvKind::Deliver(msg_id)),
                    }
                    self.touch(rp.op, now, s1);
                    self.clock[rank] = s1;
                    self.pc[rank] += 1;
                    // Yield so rx slots are allocated in global time order.
                    self.push(s1, EvKind::Wake(rank));
                    return;
                }
                Prim::Recv { src } => {
                    if let Some(pos) = self.mailbox[rank]
                        .iter()
                        .position(|&id| self.msgs[id].src == src.idx())
                    {
                        let id = self.mailbox[rank].remove(pos);
                        if let Some(cp) = self.cp.as_mut() {
                            cp.consume(rank, id);
                        }
                        self.touch(rp.op, now, now);
                        self.pc[rank] += 1;
                        continue;
                    }
                    self.touch(rp.op, now, now);
                    self.state[rank] = RankState::Blocked(src);
                    return;
                }
                Prim::Compute { secs } => {
                    let end = now + secs;
                    if let Some(cp) = self.cp.as_mut() {
                        cp.compute(rank, rp.op, now, end);
                    }
                    self.touch(rp.op, now, end);
                    self.clock[rank] = end;
                    self.pc[rank] += 1;
                    self.push(end, EvKind::Wake(rank));
                    return;
                }
                Prim::Barrier => {
                    self.touch(rp.op, now, now);
                    self.pc[rank] += 1;
                    self.state[rank] = RankState::AtBarrier;
                    self.barrier.push((rank, rp.op));
                    if self.barrier.len() == self.lowered.n {
                        let release = self
                            .barrier
                            .iter()
                            .map(|&(r, _)| self.clock[r])
                            .fold(0.0, f64::max);
                        let waiters = std::mem::take(&mut self.barrier);
                        if let Some(cp) = self.cp.as_mut() {
                            cp.barrier_release(&waiters, &self.clock);
                        }
                        for (r, op) in waiters {
                            self.touch(op, release, release);
                            self.clock[r] = release;
                            self.push(release, EvKind::Wake(r));
                        }
                    }
                    return;
                }
            }
        }
    }

    fn run(&mut self) -> Result<(), WorkloadError> {
        for r in 0..self.lowered.n {
            self.push(0.0, EvKind::Wake(r));
        }
        while let Some((at, kind)) = self.events.pop() {
            let t = at.secs();
            match kind {
                EvKind::Wake(rank) => {
                    if self.state[rank] == RankState::Done {
                        continue;
                    }
                    self.clock[rank] = self.clock[rank].max(t);
                    self.run_rank(rank);
                }
                EvKind::TransferDone(id) => {
                    // rx engine slot, in arrival order, posted or not.
                    let (dst, m, op) = (self.msgs[id].dst, self.msgs[id].m, self.msgs[id].op);
                    let l = self.lmo.expect("TransferDone only under LMO");
                    let rx_was = self.rx_free[dst];
                    let r0 = rx_was.max(t);
                    let c_term = l.c[dst];
                    let t_term = m as f64 * l.t[dst];
                    let r1 = r0 + c_term + t_term;
                    self.rx_free[dst] = r1;
                    if let Some(cp) = self.cp.as_mut() {
                        cp.rx(id, dst, op, rx_was, t, r0, r1, c_term, t_term);
                    }
                    self.push(r1, EvKind::Deliver(id));
                }
                EvKind::Deliver(id) => {
                    let dst = self.msgs[id].dst;
                    self.mailbox[dst].push(id);
                    if let RankState::Blocked(want) = self.state[dst] {
                        if want.idx() == self.msgs[id].src {
                            // Re-run the pending receive at delivery time.
                            self.state[dst] = RankState::Runnable;
                            self.push(t, EvKind::Wake(dst));
                        }
                    }
                }
            }
        }
        if let Some(stuck) = (0..self.lowered.n).find(|&r| self.state[r] != RankState::Done) {
            return Err(WorkloadError::Sim(format!(
                "trace deadlocks: rank {stuck} stuck in {:?} at pc {}",
                self.state[stuck], self.pc[stuck]
            )));
        }
        Ok(())
    }

    fn makespan(&self) -> f64 {
        self.clock.iter().copied().fold(0.0, f64::max)
    }

    /// Walks the binding-predecessor links back from the rank that
    /// realizes the makespan and renders the chain in time order.
    /// Requires [`Machine::track_critical_path`] before [`Machine::run`];
    /// returns an empty path otherwise (or when nothing advanced a clock).
    fn critical_path(&self, trace: &Trace) -> CriticalPath {
        let Some(cp) = &self.cp else {
            return CriticalPath::default();
        };
        let Some(last) = (0..self.lowered.n)
            .max_by(|&a, &b| self.clock[a].total_cmp(&self.clock[b]))
            .and_then(|r| cp.rank_seg[r])
        else {
            return CriticalPath::default();
        };
        let mut idxs = Vec::new();
        let mut cur = Some(last);
        while let Some(i) = cur {
            idxs.push(i);
            cur = cp.segs[i].pred;
        }
        idxs.reverse();
        let named = |terms: &[(usize, f64)]| -> Vec<(String, f64)> {
            terms
                .iter()
                .map(|&(k, v)| (cp.names[k].clone(), v))
                .collect()
        };
        let mut steps = Vec::with_capacity(idxs.len());
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut seconds = 0.0;
        for &i in &idxs {
            let s = &cp.segs[i];
            seconds += s.end - s.start;
            let seg_terms: Vec<(usize, f64)> = s.terms.iter().flatten().copied().collect();
            for &(k, v) in &seg_terms {
                match terms.iter_mut().find(|(name, _)| *name == k) {
                    Some((_, acc)) => *acc += v,
                    None => terms.push((k, v)),
                }
            }
            steps.push(CpStep {
                rank: s.rank,
                op: trace.ops[s.op].id,
                kind: s.kind,
                start: s.start,
                end: s.end,
                terms: named(&seg_terms),
            });
        }
        CriticalPath {
            seconds,
            steps,
            terms: named(&terms),
        }
    }
}

/// Wall-clock self-profile of one [`plan_profiled`] evaluation, split
/// into the planner's two phases: *lower* (per-op algorithm choice plus
/// lowering into per-rank primitive programs) and *analyze* (the
/// critical-path machine run plus report assembly).
///
/// Kept out of [`Plan`] deliberately: plans are deterministic and
/// golden-tested, wall-clock timings are not. The serve layer records
/// the profile into the `cpm_plan_phase_ns` histograms of its metrics
/// registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanProfile {
    /// Nanoseconds spent choosing algorithms and lowering the trace.
    pub lower_ns: u64,
    /// Nanoseconds spent in the critical-path machine and report build.
    pub analyze_ns: u64,
}

/// Predicts the end-to-end makespan of `trace` under `model`, with per-op
/// algorithm choices and a per-phase breakdown.
pub fn plan(trace: &Trace, model: &PlanModel) -> Result<Plan, WorkloadError> {
    plan_profiled(trace, model).map(|(p, _)| p)
}

fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`plan`], additionally reporting how long the planner's own phases
/// took ([`PlanProfile`]). Each phase is also recorded as a span
/// (`plan.lower`, `plan.analyze`) on the global flight recorder, so a
/// `trace` dump breaks a served `plan` request down by phase.
pub fn plan_profiled(
    trace: &Trace,
    model: &PlanModel,
) -> Result<(Plan, PlanProfile), WorkloadError> {
    trace.validate()?;
    let model_n = model.as_p2p().n();
    if model_n != trace.n {
        return Err(WorkloadError::Invalid(format!(
            "trace is for n={} but the model was estimated for n={model_n}",
            trace.n
        )));
    }
    let mut profile = PlanProfile::default();
    let t_lower = std::time::Instant::now();
    let lowered = {
        let mut sp = cpm_obs::span("plan.lower");
        sp.field_u64("ops", trace.ops.len() as u64);
        let choices = choose(trace, model);
        lower(trace, &choices)
    };
    profile.lower_ns = elapsed_ns(t_lower);
    let t_analyze = std::time::Instant::now();
    let sp_analyze = cpm_obs::span("plan.analyze");
    let machine_model = model.machine_model();
    let mut machine = Machine::new(&lowered, &machine_model);
    machine.track_critical_path(match model {
        PlanModel::LmoHier(h) => Some(h),
        _ => None,
    });
    machine.run()?;

    let ops: Vec<OpReport> = trace
        .ops
        .iter()
        .enumerate()
        .map(|(idx, op)| {
            let (mut start, mut end) = machine.windows[idx];
            if start > end {
                (start, end) = (0.0, 0.0);
            }
            OpReport {
                id: op.id,
                phase: op.phase.clone(),
                kind: op.kind.name().to_string(),
                algorithm: lowered.algorithms[idx].map(|a| a.as_str().to_string()),
                start,
                end,
            }
        })
        .collect();

    let phases = trace
        .phases()
        .into_iter()
        .map(|phase| {
            let (mut start, mut end) = (f64::INFINITY, f64::NEG_INFINITY);
            for o in ops.iter().filter(|o| o.phase == phase) {
                start = start.min(o.start);
                end = end.max(o.end);
            }
            if start > end {
                (start, end) = (0.0, 0.0);
            }
            PhaseReport { phase, start, end }
        })
        .collect();

    let plan = Plan {
        model: model.kind(),
        trace_hash: trace.hash(),
        makespan: machine.makespan(),
        critical_path: machine.critical_path(trace),
        ops,
        phases,
    };
    drop(sp_analyze);
    profile.analyze_ns = elapsed_ns(t_analyze);
    Ok((plan, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::trace::TraceOp;
    use cpm_core::matrix::SymMatrix;
    use cpm_models::GatherEmpirics;

    fn lmo(n: usize) -> LmoExtended {
        LmoExtended::new(
            vec![40e-6; n],
            vec![7e-9; n],
            SymMatrix::filled(n, 42e-6),
            SymMatrix::filled(n, 11.7e6),
            GatherEmpirics::none(),
        )
    }

    fn p2p_trace(n: usize, m: Bytes) -> Trace {
        Trace {
            name: "p2p".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "x".into(),
                kind: OpKind::P2p {
                    src: Rank(0),
                    dst: Rank(1),
                    m,
                },
            }],
        }
    }

    #[test]
    fn lone_p2p_sums_the_extended_lmo_terms() {
        let model = lmo(4);
        let m = 8192u64;
        let t = p2p_trace(4, m);
        let p = plan(&t, &PlanModel::Lmo(model.clone())).unwrap();
        let expected = model.time(Rank(0), Rank(1), m);
        assert!(
            (p.makespan - expected).abs() < 1e-12,
            "{} vs {expected}",
            p.makespan
        );
        assert_eq!(p.ops.len(), 1);
        assert!((p.ops[0].end - expected).abs() < 1e-12);
    }

    #[test]
    fn lone_p2p_under_homogeneous_models_is_the_model_time() {
        let m = 4096u64;
        let t = p2p_trace(4, m);
        let g = LogGp {
            l: 50e-6,
            o: 5e-6,
            g: 1e-6,
            big_g: 9e-8,
            p: 4,
        };
        let p = plan(&t, &PlanModel::Loggp(g.clone())).unwrap();
        assert!((p.makespan - g.time(m)).abs() < 1e-12);
    }

    #[test]
    fn linear_scatter_plan_matches_the_closed_form_shape() {
        // The machine's linear scatter under LMO: root tx slots serialize,
        // tails overlap. The closed-form eq. (4) is exactly that, so the
        // machine must land between the serial part and the full formula.
        let n = 8;
        let model = lmo(n);
        let m = 16 * 1024u64;
        let t = Trace {
            name: "sc".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "s".into(),
                kind: OpKind::Scatter { root: Rank(0), m },
            }],
        };
        let choices = vec![Some(Algorithm::Linear)];
        let lowered = lower(&t, &choices);
        let pm = PlanModel::Lmo(model.clone());
        let mut machine = Machine::new(&lowered, &pm);
        machine.run().unwrap();
        let got = machine.makespan();
        let formula = model.linear_scatter(Rank(0), m);
        let serial = (n as f64 - 1.0) * (model.c[0] + m as f64 * model.t[0]);
        assert!(got >= serial, "{got} vs serial {serial}");
        assert!(got <= formula * 1.0 + 1e-12, "{got} vs eq4 {formula}");
    }

    #[test]
    fn reduce_charges_combine_time() {
        let n = 4;
        let model = lmo(n);
        let m = 4096u64;
        let mk = |gamma: f64| Trace {
            name: "r".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "r".into(),
                kind: OpKind::Reduce {
                    root: Rank(0),
                    m,
                    gamma,
                },
            }],
        };
        let without = plan(&mk(0.0), &PlanModel::Lmo(model.clone())).unwrap();
        let with = plan(&mk(1e-7), &PlanModel::Lmo(model.clone())).unwrap();
        assert!(
            with.makespan > without.makespan,
            "{} vs {}",
            with.makespan,
            without.makespan
        );
    }

    #[test]
    fn pipeline_overlaps_under_lmo_but_not_under_hockney() {
        // LMO's separable send lets stage s start batch b+1 while batch b
        // is still in flight; whole-transfer occupancy cannot. With equal
        // per-hop times, the homogeneous prediction must be at least as
        // large.
        let n = 4;
        let t = gen::pipeline(n, 32 * 1024, 4, 0.0);
        let l = lmo(n);
        let lmo_pred = plan(&t, &PlanModel::Lmo(l.clone())).unwrap().makespan;
        let hom = cpm_models::HockneyHet::new(
            SymMatrix::filled(n, 2.0 * 40e-6 + 42e-6),
            SymMatrix::filled(n, 1.0 / (1.0 / 11.7e6 + 2.0 * 7e-9)),
        );
        let hock_pred = plan(&t, &PlanModel::Hockney(hom)).unwrap().makespan;
        assert!(
            hock_pred > lmo_pred,
            "hockney {hock_pred} should exceed lmo {lmo_pred}"
        );
    }

    #[test]
    fn canonical_workloads_plan_without_deadlock() {
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 8, 4096, 2).unwrap();
            let p = plan(&t, &PlanModel::Lmo(lmo(8))).unwrap();
            assert!(p.makespan > 0.0, "{kind}");
            assert_eq!(p.ops.len(), t.ops.len());
            assert!(!p.phases.is_empty());
            // Op windows are sane and inside the makespan.
            for o in &p.ops {
                assert!(o.start <= o.end, "{kind} op {}", o.id);
                assert!(o.end <= p.makespan + 1e-12, "{kind} op {}", o.id);
            }
        }
    }

    #[test]
    fn mismatched_model_size_is_rejected() {
        let t = p2p_trace(4, 1024);
        let err = plan(&t, &PlanModel::Lmo(lmo(8))).unwrap_err();
        assert!(matches!(err, WorkloadError::Invalid(_)));
    }

    #[test]
    fn barrier_synchronizes_the_plan() {
        let n = 4;
        let t = Trace {
            name: "b".into(),
            n,
            ops: vec![
                TraceOp {
                    id: 0,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(2)],
                        seconds: 1.0,
                    },
                },
                TraceOp {
                    id: 1,
                    phase: "a".into(),
                    kind: OpKind::Barrier,
                },
            ],
        };
        let p = plan(&t, &PlanModel::Lmo(lmo(n))).unwrap();
        assert!((p.makespan - 1.0).abs() < 1e-12);
    }

    fn hier(cores: usize, nodes: usize) -> HierLmo {
        let n = cores * nodes;
        HierLmo::new(
            vec![40e-6; n],
            vec![7e-9; n],
            vec![
                cpm_models::HierLevel {
                    name: "node".into(),
                    arity: cores,
                    c: 0.0,
                    t: 0.0,
                    l: 15e-6,
                    beta: 45e6,
                },
                cpm_models::HierLevel {
                    name: "switch".into(),
                    arity: nodes,
                    c: 0.0,
                    t: 0.0,
                    l: 42e-6,
                    beta: 11.7e6,
                },
            ],
            GatherEmpirics::none(),
        )
    }

    #[test]
    fn hier_chooser_picks_two_phase_when_favored() {
        // 4 nodes × 8 cores, 64 KiB bcast: the intra-node wire is slow
        // relative to the endpoint processing costs, so serving a node
        // once over the switch and fanning out locally wins.
        let h = hier(8, 4);
        let t = Trace {
            name: "b".into(),
            n: 32,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Bcast {
                    root: Rank(0),
                    m: 64 * 1024,
                },
            }],
        };
        let choices = choose(&t, &PlanModel::LmoHier(h.clone()));
        assert_eq!(choices[0], Some(Algorithm::TwoPhase { intra: 8 }));
        // The machine confirms: two-phase strictly beats the flat binomial.
        let flat = PlanModel::Lmo(h.to_extended());
        let two = eval_single_op(32, &t.ops[0], Algorithm::TwoPhase { intra: 8 }, &flat);
        let bin = eval_single_op(32, &t.ops[0], Algorithm::Binomial, &flat);
        assert!(two < bin, "two-phase {two} vs binomial {bin}");
    }

    #[test]
    fn hier_plan_reports_its_kind_and_never_loses_to_flat_choice() {
        let h = hier(4, 4);
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, 16, 32 * 1024, 2).unwrap();
            let hp = plan(&t, &PlanModel::LmoHier(h.clone())).unwrap();
            assert_eq!(hp.model, ModelKind::LmoHier);
            // Same machine semantics, strictly larger algorithm menu: the
            // hierarchical chooser can only match or improve the flat one.
            let fp = plan(&t, &PlanModel::Lmo(h.to_extended())).unwrap();
            assert!(
                hp.makespan <= fp.makespan + 1e-12,
                "{kind}: hier {} vs flat {}",
                hp.makespan,
                fp.makespan
            );
        }
    }

    fn assert_path_explains(p: &Plan, what: &str) {
        let cp = &p.critical_path;
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-30);
        assert!(
            rel(cp.seconds, p.makespan) < 1e-9,
            "{what}: path {} vs makespan {}",
            cp.seconds,
            p.makespan
        );
        let term_sum: f64 = cp.terms.iter().map(|(_, v)| v).sum();
        assert!(
            rel(term_sum, p.makespan) < 1e-9,
            "{what}: terms {term_sum} vs makespan {}",
            p.makespan
        );
        // The chain is gap-free: starts at 0, each step starts where its
        // predecessor ends, and it ends at the makespan.
        let mut at = 0.0;
        for s in &cp.steps {
            assert!(
                (s.start - at).abs() < 1e-12 * (1.0 + at.abs()),
                "{what}: step starts at {} but chain is at {at}",
                s.start
            );
            let step_terms: f64 = s.terms.iter().map(|(_, v)| v).sum();
            assert!(
                (step_terms - (s.end - s.start)).abs() < 1e-12 + 1e-9 * s.end,
                "{what}: step terms {step_terms} vs span {}",
                s.end - s.start
            );
            at = s.end;
        }
        assert!(rel(at, p.makespan) < 1e-9, "{what}: chain ends at {at}");
    }

    #[test]
    fn lone_p2p_critical_path_walks_tx_latency_wire_rx() {
        let model = lmo(4);
        let m = 8192u64;
        let p = plan(&p2p_trace(4, m), &PlanModel::Lmo(model.clone())).unwrap();
        let kinds: Vec<&str> = p.critical_path.steps.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, ["tx", "latency", "wire", "rx"]);
        assert_path_explains(&p, "lone p2p");
        // Terms are exactly the extended-LMO decomposition of eq. (1).
        let get = |k: &str| {
            p.critical_path
                .terms
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!((get("C") - 2.0 * 40e-6).abs() < 1e-15);
        assert!((get("t") - 2.0 * m as f64 * 7e-9).abs() < 1e-15);
        assert!((get("L") - 42e-6).abs() < 1e-15);
        assert!((get("beta") - m as f64 / 11.7e6).abs() < 1e-15);
    }

    #[test]
    fn critical_path_explains_every_canonical_workload_under_every_model() {
        let n = 8;
        let models = [
            PlanModel::Lmo(lmo(n)),
            PlanModel::Hockney(cpm_models::HockneyHet::new(
                SymMatrix::filled(n, 90e-6),
                SymMatrix::filled(n, 10e6),
            )),
            PlanModel::Loggp(LogGp {
                l: 50e-6,
                o: 5e-6,
                g: 1e-6,
                big_g: 9e-8,
                p: n,
            }),
        ];
        for kind in gen::CANONICAL_KINDS {
            let t = gen::canonical(kind, n, 4096, 2).unwrap();
            for pm in &models {
                let what = format!("{kind}/{}", pm.kind());
                let p = plan(&t, pm).unwrap();
                assert!(!p.critical_path.steps.is_empty(), "{what}: empty path");
                assert_path_explains(&p, &what);
            }
        }
    }

    #[test]
    fn hier_critical_path_labels_terms_per_level() {
        let h = hier(4, 4);
        let t = gen::canonical("train", 16, 32 * 1024, 2).unwrap();
        let p = plan(&t, &PlanModel::LmoHier(h)).unwrap();
        assert_path_explains(&p, "hier train");
        let names: Vec<&str> = p
            .critical_path
            .terms
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("L[") || n.starts_with("beta[")),
            "no level-suffixed link terms in {names:?}"
        );
        // Level names come from the model's topology.
        for n in names {
            if let Some(rest) = n.strip_prefix("L[").or_else(|| n.strip_prefix("beta[")) {
                assert!(matches!(rest, "node]" | "switch]"), "unknown level in {n}");
            }
        }
    }

    #[test]
    fn critical_path_rides_the_slow_compute_through_a_barrier() {
        // Rank 2 computes for a full second, everyone barriers, then rank 0
        // sends to rank 1: the path must be compute → (barrier) → send.
        let n = 4;
        let t = Trace {
            name: "cb".into(),
            n,
            ops: vec![
                TraceOp {
                    id: 7,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(2)],
                        seconds: 1.0,
                    },
                },
                TraceOp {
                    id: 8,
                    phase: "a".into(),
                    kind: OpKind::Barrier,
                },
                TraceOp {
                    id: 9,
                    phase: "b".into(),
                    kind: OpKind::P2p {
                        src: Rank(0),
                        dst: Rank(1),
                        m: 4096,
                    },
                },
            ],
        };
        let p = plan(&t, &PlanModel::Lmo(lmo(n))).unwrap();
        assert_path_explains(&p, "compute+barrier+p2p");
        let cp = &p.critical_path;
        assert_eq!(cp.steps[0].kind, "compute");
        assert_eq!(cp.steps[0].op, 7);
        assert_eq!(cp.steps[0].rank, 2);
        assert!(cp.steps[1..].iter().all(|s| s.op == 9));
        let compute = cp
            .terms
            .iter()
            .find(|(n, _)| n == "compute")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((compute - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_json_carries_the_critical_path_section() {
        let p = plan(&p2p_trace(4, 1024), &PlanModel::Lmo(lmo(4))).unwrap();
        let v = p.to_value();
        let cp = v.get("critical_path").expect("critical_path section");
        let secs = cp.get("seconds").and_then(|s| s.as_f64()).unwrap();
        assert!((secs - p.makespan).abs() < 1e-12);
        let serde_json::Value::Seq(steps) = cp.get("steps").unwrap() else {
            panic!("steps should be a sequence");
        };
        assert_eq!(steps.len(), 4);
        assert!(cp.get("terms").and_then(|t| t.get("L")).is_some());
    }

    #[test]
    fn model_kind_round_trips_lmo_hier() {
        assert_eq!(ModelKind::parse("lmo-hier"), Some(ModelKind::LmoHier));
        assert_eq!(ModelKind::LmoHier.as_str(), "lmo-hier");
        assert!(!ModelKind::ALL.contains(&ModelKind::LmoHier));
    }

    #[test]
    fn choices_respond_to_message_size_under_lmo() {
        let n = 16;
        let model = PlanModel::Lmo(lmo(n));
        let tiny = Trace {
            name: "t".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Scatter {
                    root: Rank(0),
                    m: 128,
                },
            }],
        };
        let huge = Trace {
            name: "h".into(),
            n,
            ops: vec![TraceOp {
                id: 0,
                phase: "p".into(),
                kind: OpKind::Scatter {
                    root: Rank(0),
                    m: 256 * 1024,
                },
            }],
        };
        assert_eq!(choose(&tiny, &model)[0], Some(Algorithm::Binomial));
        assert_eq!(choose(&huge, &model)[0], Some(Algorithm::Linear));
    }
}
