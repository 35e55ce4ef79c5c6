//! `perfbench compare A.json B.json`: for every (workload, end-to-end
//! metric) pair, B's median against A's. A pair is `regressed` when B is
//! worse than A by more than the metric's bound, and `unresolved` when
//! either side's own run-to-run spread is wider than the bound — then the
//! runs cannot tell a regression from noise. Exits non-zero on either.

use crate::json::Json;
use crate::spec;
use crate::stats::median;
use std::process::ExitCode;

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) gives them; `None` below two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance as a share of the median; zero below two values.
pub fn spread(v: &[f64]) -> f64 {
    let med = median(&mut v.to_vec());
    match quartiles(v) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The values of `metric` over every run of `workload` in an `--out`
/// document.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// One side has no run of this workload.
    Missing,
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub spread_base: f64,
    pub spread_new: f64,
    pub verdict: Verdict,
}

pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let (base, new) = (median(&mut va.clone()), median(&mut vb.clone()));
            let (spread_base, spread_new) = (spread(&va), spread(&vb));
            let worse_by = if m.better == "lower" {
                new - base
            } else {
                base - new
            } / base;
            let verdict = if va.is_empty() || vb.is_empty() {
                Verdict::Missing
            } else if worse_by > bound {
                Verdict::Regressed
            } else if spread_base > bound || spread_new > bound {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                base,
                new,
                spread_base,
                spread_new,
                verdict,
            });
        }
    }
    rows
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&a, &b);
    println!("workload metric base new new/base spread_base spread_new bound verdict");
    for r in &rows {
        let bound = spec::end_to_end(r.metric)
            .and_then(|m| m.bound)
            .unwrap_or(0.0);
        println!(
            "{} {} {:.4} {:.4} {:.4} {:.4} {:.4} {} {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.spread_base,
            r.spread_new,
            bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
                Verdict::Missing => "missing",
            }
        );
    }
    if rows.iter().all(|r| r.verdict == Verdict::Ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, metric: &str, vals: &[f64]) -> Json {
        let runs = vals
            .iter()
            .map(|v| {
                let text = format!(
                    r#"{{"workload":"{workload}","metrics":{{"{metric}":{{"value":{v},"unit":"us"}}}}}}"#
                );
                Json::parse(&text).unwrap()
            })
            .collect();
        Json::Obj(vec![("runs".into(), Json::Arr(runs))])
    }

    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(
            &doc("fs3_rw", "op_p50_us", a),
            &doc("fs3_rw", "op_p50_us", b),
        );
        rows.into_iter()
            .find(|r| r.workload == "fs3_rw" && r.metric == "op_p50_us")
            .unwrap()
            .verdict
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn flags_regressions_and_noise() {
        let steady = [20.0, 20.1, 19.9, 20.0];
        assert_eq!(verdict(&steady, &steady), Verdict::Ok);
        // 40 % slower against a 25 % bound; 20 % slower is inside it.
        assert_eq!(
            verdict(&steady, &[28.0, 28.1, 27.9, 28.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&steady, &[24.0, 24.1, 23.9, 24.0]), Verdict::Ok);
        // Same median, but a spread far above the bound.
        assert_eq!(
            verdict(&steady, &[10.0, 20.0, 20.0, 30.0]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&steady, &[]), Verdict::Missing);
    }
}
