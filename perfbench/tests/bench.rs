//! The benchmark's own checks: its metric list matches `BENCHMARK.json`,
//! every name is well formed, and a traced run of each workload records
//! a span for every layer that workload exercises.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cpm_perfbench::{run_workload, spans, valid_name, Opts, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Seq(items)) = v.get(key) else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn metric_names_use_only_the_allowed_characters() {
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "{w}");
    }
    let all: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names repeat"
    );
}

#[test]
fn benchmark_json_lists_exactly_what_the_runs_report() {
    let v = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units(&v, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_units(&v, "per_layer"), own(PER_LAYER));
    let Some(Value::Seq(workloads)) = v.get("workloads") else {
        panic!("workloads is not a list");
    };
    let listed: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    assert!(listed.iter().all(|w| WORKLOADS.contains(w)), "{listed:?}");
}

/// The layers each workload calls into directly.
fn layers_of(workload: &str) -> &'static [&'static str] {
    match workload {
        "paper-sim" => &["sim", "estimate", "collectives", "netsim"],
        "replay-plan" => &["workload", "des", "models"],
        "serve-read" => &["serve", "reactor", "gen"],
        _ => &["fleet", "gen"],
    }
}

#[test]
fn a_traced_run_spans_every_layer_its_workload_exercises() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test");
    std::fs::create_dir_all(&out_dir).unwrap();
    for workload in WORKLOADS {
        let opts = Opts {
            seed: 3,
            seconds: 0.5,
            trace: true,
            probe: true,
            out_dir: out_dir.clone(),
        };
        spans::enable(true);
        let out = run_workload(workload, &opts).expect("known workload");
        spans::enable(false);
        let (recorded, dropped) = spans::take();
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.errors);
        assert_eq!(dropped, 0);
        let seen: BTreeSet<&str> = recorded.iter().map(|s| s.layer()).collect();
        for layer in layers_of(workload) {
            assert!(
                seen.contains(layer),
                "{workload}: no {layer} span in {seen:?}"
            );
        }
        for (s, own) in recorded.iter().zip(spans::self_times(&recorded)) {
            assert!(
                own <= s.dur_ns(),
                "{workload}: {} self time exceeds its span",
                s.name
            );
        }
        let trace = spans::chrome_json(&recorded);
        let Some(Value::Seq(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), recorded.len());
    }
}
