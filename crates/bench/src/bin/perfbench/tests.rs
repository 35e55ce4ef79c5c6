//! The benchmark held against its own contract at smoke scale: every
//! declared name comes out exactly once per workload, `BENCHMARK.json`
//! says what `spec.rs` says, and the result line parses back.

use crate::json::Json;
use crate::workload::RunCfg;
use crate::{run_one, spec};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

fn smoke(seed: u64, trace: bool) -> RunCfg {
    RunCfg {
        seed,
        seconds: 0.3,
        trace,
        smoke: true,
    }
}

fn name_ok(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v:?}"))
}

#[test]
fn benchmark_json_declares_what_the_spec_declares() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths").unwrap().as_arr().unwrap(),
        [Json::Str("crates/bench/src/bin/perfbench".into())]
    );
    assert_eq!(
        doc.get("run_seconds").unwrap().as_f64(),
        Some(spec::RUN_SECONDS as f64)
    );

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (j, w) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!((field(j, "name"), field(j, "why")), (w.name, w.why));
        assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    for (key, declared) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        let listed = doc.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), declared.len(), "{key}");
        for (j, m) in listed.iter().zip(declared) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name, m.unit, m.better)
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            assert!(name_ok(m.name), "{}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }
    let mut names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(
            spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER)
                .map(|m| m.name),
        )
        .collect();
    names.sort_unstable();
    assert!(
        names.windows(2).all(|w| w[0] != w[1]),
        "a name is used twice"
    );
    let setup = spec::end_to_end("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn every_workload_emits_every_declared_metric_once() {
    for w in spec::WORKLOADS {
        for (trace, declared) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            let (r, _) = run_one(w.name, &smoke(7, trace)).expect("smoke run");
            assert_eq!(r.failed, 0, "{} trace={trace}", w.name);
            assert!(r.attempted >= 1);
            let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(got, want, "{} trace={trace}", w.name);
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
                // An end-to-end metric is never 0; a per-layer one is 0
                // exactly when this workload does not reach the layer.
                assert!(
                    trace || m.value > 0.0,
                    "{} {} = {}",
                    w.name,
                    m.name,
                    m.value
                );
                assert!(
                    m.n > 0 || (trace && m.value == 0.0),
                    "{} {}",
                    w.name,
                    m.name
                );
            }

            let line = Json::parse(&r.result_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(
                line.get("attempted").unwrap().as_f64(),
                Some(r.attempted as f64)
            );
            for m in &r.metrics {
                let j = line
                    .get("metrics")
                    .unwrap()
                    .get(m.name)
                    .expect("metric in line");
                assert_eq!(
                    j.get("value").unwrap().as_f64(),
                    Some(m.value),
                    "{}",
                    m.name
                );
                assert_eq!(field(j, "unit"), m.unit);
            }
        }
    }
}

#[test]
fn another_seed_changes_the_inputs_and_nothing_fails() {
    for w in spec::WORKLOADS {
        let (r, _) = run_one(w.name, &smoke(8, false)).expect("smoke run");
        assert_eq!(r.failed, 0, "{}", w.name);
    }
    assert!(crate::collective::inputs_differ(7, 8));
    assert!(crate::fs3::inputs_differ(7, 8));
    assert!(crate::sim::inputs_differ(7, 8));
    assert!(crate::platform::inputs_differ(7, 8));
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_one("no_such_workload", &smoke(7, false)).is_err());
}
