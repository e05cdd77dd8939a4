//! # cpm-perfbench — the seeded end-to-end and per-layer benchmark
//!
//! Four workloads, each aimed at one part of `cpm`:
//!
//! | workload | where the host time goes |
//! |---|---|
//! | `paper-sim` | thread-per-rank netsim kernel, via estimation and observed collectives |
//! | `replay-plan` | DES engine, lowering and the critical-path planner |
//! | `serve-read` | framing, reactor, protocol and service caches |
//! | `fleet-mixed` | router hop, replication, heavy verbs beside cheap reads |
//!
//! Every layer is timed from outside, around calls into its crate's
//! public functions. See `README.md` next to this crate for the metric
//! glossary.

pub mod fleet_mixed;
pub mod load;
pub mod paper_sim;
pub mod replay_plan;
pub mod serve_read;
pub mod server;
pub mod spans;
pub mod util;

use std::path::PathBuf;

use serde_json::Value;

use crate::util::obj;

/// The workloads `--workload` accepts. `BENCHMARK.json` gates the first
/// two; the serving workloads run by hand and as traced-run probes (see
/// the README for why).
pub const WORKLOADS: [&str; 4] = ["paper-sim", "replay-plan", "serve-read", "fleet-mixed"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("heavy_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("netsim.thread_run_us", "us"),
    ("netsim.script_run_us", "us"),
    ("netsim.ctx_switches_per_run", "count"),
    ("netsim.sys_frac", "ratio"),
    ("collectives.linear_scatter_us", "us"),
    ("collectives.binomial_scatter_us", "us"),
    ("collectives.linear_gather_us", "us"),
    ("collectives.binomial_gather_us", "us"),
    ("collectives.optimized_gather_us", "us"),
    ("collectives.err_pct", "%"),
    ("estimate.runs", "count"),
    ("estimate.us_per_run", "us"),
    ("estimate.hockney_s", "s"),
    ("estimate.loggp_s", "s"),
    ("estimate.plogp_s", "s"),
    ("estimate.lmo_s", "s"),
    ("models.predict_ns.lmo", "ns"),
    ("models.predict_ns.hockney", "ns"),
    ("models.predict_ns.loggp", "ns"),
    ("models.predict_ns.plogp", "ns"),
    ("models.err_pct.train.lmo", "%"),
    ("models.err_pct.train.hockney", "%"),
    ("models.err_pct.pipeline.lmo", "%"),
    ("models.err_pct.pipeline.hockney", "%"),
    ("models.err_pct.moe.lmo", "%"),
    ("models.err_pct.moe.hockney", "%"),
    ("models.err_pct.halo.lmo", "%"),
    ("models.err_pct.halo.hockney", "%"),
    ("workload.lower_us", "us"),
    ("workload.plan_us.train", "us"),
    ("workload.plan_us.pipeline", "us"),
    ("workload.plan_us.moe", "us"),
    ("workload.plan_us.halo", "us"),
    ("workload.compare_us", "us"),
    ("workload.replay_ms.train", "ms"),
    ("workload.replay_ms.pipeline", "ms"),
    ("workload.replay_ms.moe", "ms"),
    ("workload.replay_ms.halo", "ms"),
    ("workload.plan_err_pct", "%"),
    ("serve.predict_ns", "ns"),
    ("serve.handle_line_ns", "ns"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.server_p50_ns", "ns"),
    ("serve.plan_des_ms", "ms"),
    ("serve.estimations", "count"),
    ("reactor.decode_ns.json", "ns"),
    ("reactor.decode_ns.binary", "ns"),
    ("reactor.encode_ns", "ns"),
    ("reactor.call_us", "us"),
    ("reactor.wire_us", "us"),
    ("fleet.router_hop_us", "us"),
    ("fleet.push_ms", "ms"),
    ("fleet.retries", "count"),
    ("fleet.stale_reads", "count"),
    ("fleet.errors", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("gen.late_p99_us", "us"),
    ("gen.backlog_end", "count"),
];

/// Command-line settings shared by the workloads.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// A short run that only fills per-layer metrics for another
    /// workload's traced run: one set-up instead of several.
    pub probe: bool,
    /// Where results, traces and the service stores go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// How many times set-up is repeated: `reps`, or once in a probe.
    /// The reported `setup_s` is the median.
    pub fn setup_reps(&self, reps: usize) -> usize {
        if self.probe {
            1
        } else {
            reps
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`).
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// The workload's own named numbers (reported alongside, unbounded).
    pub details: Vec<Metric>,
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
    /// One line per failure.
    pub errors: Vec<String>,
}

fn push(list: &mut Vec<Metric>, name: &str, unit: &str, value: f64) {
    list.retain(|m| m.name != name);
    list.push(Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    });
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        push(&mut self.metrics, name, unit, value);
    }

    /// Records a workload-specific number.
    pub fn detail(&mut self, name: &str, unit: &str, value: f64) {
        push(&mut self.details, name, unit, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &str, value: f64) {
        push(&mut self.layers, name, unit, value);
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 32 {
            self.errors.push(why);
        }
    }

    /// Counts `n` failed operations of one kind.
    pub fn fail_n(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n - 1;
            self.fail(why);
        }
    }

    /// Folds another run's counts and per-layer metrics in, keeping this
    /// run's values where both have one.
    pub fn absorb_layers(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for m in other.layers {
            if !self.layers.iter().any(|l| l.name == m.name) {
                self.layers.push(m);
            }
        }
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "paper-sim" => paper_sim::run(opts),
        "replay-plan" => replay_plan::run(opts),
        "serve-read" => serve_read::run(opts),
        "fleet-mixed" => fleet_mixed::run(opts),
        _ => return None,
    })
}

/// The traced run: the workload untraced and then traced for half the
/// time each (their `p50_us` difference is the tracing overhead), then
/// short traced probes of the other workloads so every layer is measured.
pub fn traced(workload: &str, opts: &Opts) -> (Outcome, Value) {
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    spans::enable(false);
    let base = run_workload(
        workload,
        &Opts {
            trace: false,
            ..half.clone()
        },
    )
    .expect("known workload");
    spans::enable(true);
    let mut out = {
        let _root = spans::span("bench.workload");
        run_workload(workload, &half).expect("known workload")
    };
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.errors.extend(base.errors.iter().cloned());
    let p50 = |o: &Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "p50_us")
            .map(|m| m.value)
    };
    if let (Some(b), Some(t)) = (p50(&base), p50(&out)) {
        out.layer("obs.trace_overhead_pct", "%", 100.0 * (t - b) / b);
    }
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let _root = spans::span("bench.probe");
        let probe = Opts {
            seconds: 1.0,
            probe: true,
            ..opts.clone()
        };
        out.absorb_layers(run_workload(other, &probe).expect("known workload"));
    }
    spans::enable(false);
    let (recorded, dropped) = spans::take();
    let table = spans::layer_table(&recorded);
    eprintln!("layer          spans      total_ms       self_ms");
    let mut rows = Vec::new();
    for (layer, (n, total, own)) in &table {
        eprintln!(
            "{layer:<12} {n:>7} {:>13.3} {:>13.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
        rows.push((
            layer.to_string(),
            obj(vec![
                ("spans", Value::U64(*n)),
                ("total_ms", Value::F64(*total as f64 / 1e6)),
                ("self_ms", Value::F64(*own as f64 / 1e6)),
            ]),
        ));
    }
    let path = opts
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", opts.seed));
    match serde_json::to_string(&spans::chrome_json(&recorded)) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            } else {
                eprintln!(
                    "perfbench: wrote {} ({} spans)",
                    path.display(),
                    recorded.len()
                );
            }
        }
        Err(e) => eprintln!("perfbench: trace encoding failed: {e}"),
    }
    let summary = obj(vec![
        ("spans", Value::U64(recorded.len() as u64)),
        ("dropped", Value::U64(dropped)),
        ("file", Value::Str(path.display().to_string())),
        ("self_time", Value::Map(rows)),
    ]);
    (out, summary)
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
