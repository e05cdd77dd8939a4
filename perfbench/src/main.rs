//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it holds the run environment and the workload's own named
//! numbers. Exits 1 when any output was wrong, 2 on bad arguments.

use std::path::PathBuf;
use std::time::Instant;

use cpm_perfbench::util::{git_rev, loadavg, nproc, obj, steal_ticks};
use cpm_perfbench::{
    run_workload, traced, valid_name, Metric, Opts, END_TO_END, PER_LAYER, WORKLOADS,
};
use serde_json::Value;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench/out");
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        opts: Opts {
            seed: seed.unwrap_or_else(|| usage("--seed is required")),
            seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
            trace: trace.unwrap_or_else(|| usage("--trace is required")),
            probe: false,
            out_dir,
        },
    }
}

fn metric_map(list: &[Metric]) -> Value {
    Value::Map(
        list.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", Value::F64(m.value)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

fn env_snapshot() -> Value {
    obj(vec![
        ("steal_ticks", Value::U64(steal_ticks())),
        ("loadavg_1m", Value::F64(loadavg())),
    ])
}

fn main() {
    let args = parse_args();
    let opts = &args.opts;
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        std::process::exit(1);
    }
    let before = env_snapshot();
    let t0 = Instant::now();
    let (mut out, trace_summary) = if opts.trace {
        let (o, s) = traced(&args.workload, opts);
        (o, Some(s))
    } else {
        (
            run_workload(&args.workload, opts).expect("known workload"),
            None,
        )
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let after = env_snapshot();

    // Every listed metric must be present, finite and well named.
    let (wanted, reported): (Vec<(&str, &str)>, &Vec<Metric>) = if opts.trace {
        (PER_LAYER.to_vec(), &out.layers)
    } else {
        (END_TO_END.to_vec(), &out.metrics)
    };
    let mut selected = Vec::new();
    let mut problems = Vec::new();
    for (name, unit) in wanted {
        match reported.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() && valid_name(&m.name) => selected.push(Metric {
                unit: unit.to_string(),
                ..m.clone()
            }),
            Some(m) => problems.push(format!("metric {name} is not finite ({})", m.value)),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in problems {
        out.fail(p);
    }
    out.attempted = out.attempted.max(1);
    let correct = out.failed == 0;

    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    for m in out.metrics.iter().chain(&out.details) {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let record = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::F64(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("git_rev", Value::Str(git_rev())),
        ("nproc", Value::U64(nproc() as u64)),
        ("wall_s", Value::F64(wall_s)),
        ("env_before", before),
        ("env_after", after),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        (
            "errors",
            Value::Seq(out.errors.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", metric_map(&out.metrics)),
        ("details", metric_map(&out.details)),
        ("layers", metric_map(&out.layers)),
        ("trace_summary", trace_summary.unwrap_or(Value::Null)),
    ]);
    let text = serde_json::to_string(&record).unwrap_or_default();
    let path = opts.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload, opts.seed, opts.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{text}");
    let last = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("metrics", metric_map(&selected)),
    ]);
    println!("{}", serde_json::to_string(&last).unwrap_or_default());
    std::process::exit(if correct { 0 } else { 1 });
}
