//! `perfbench` — the one benchmark every performance claim in this
//! repository is measured with: five workloads, the same end-to-end
//! metrics on each, and a per-layer table from a separate traced run.
//! See `README.md` beside this file.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--runs K] [--out FILE] [--smoke]
//! perfbench --list
//! perfbench compare A.json B.json
//! ```
//!
//! A single-workload run prints `name unit value n` per metric and, as
//! its last line, one JSON object `{correct, attempted, failed, metrics}`.
//! `--workload all` runs each workload in a process of its own (peak RSS
//! is per process) and `--out` collects the runs for `compare`.

#![forbid(unsafe_code)]

mod collective;
mod compare;
mod fs3;
mod json;
mod platform;
mod sim;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Json;
use stats::median;
use std::process::ExitCode;
use workload::{Episode, Outcome, RunCfg};

/// One metric of one run, as printed.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
}

/// One finished run of one workload.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
}

impl RunReport {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Run one workload in this process and shape its outcome into the
/// declared metrics: end-to-end untraced, per-layer traced. Also returns
/// the span buffers, for `main` to flush.
fn run_one(name: &str, cfg: &RunCfg) -> Result<(RunReport, Vec<trace::Tracer>), String> {
    let wl = spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let o = workload::run(name, cfg).expect("declared workloads are dispatched");
    let attempted = o.attempted();
    if attempted == 0 {
        return Err(format!("{name}: no op finished inside the window"));
    }
    let metrics = if cfg.trace {
        for l in &o.layers {
            assert!(
                spec::PER_LAYER.iter().any(|m| m.name == l.name),
                "{} is not a declared per-layer metric",
                l.name
            );
        }
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let got = o.layers.iter().find(|l| l.name == m.name);
                Reported {
                    name: m.name,
                    unit: m.unit,
                    value: got.map_or(0.0, |l| l.value),
                    n: got.map_or(0, |l| l.n),
                }
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let (value, n) = end_to_end_value(m.name, &o);
                Reported {
                    name: m.name,
                    unit: m.unit,
                    value,
                    n,
                }
            })
            .collect()
    };
    let report = RunReport {
        workload: wl.name,
        seed: cfg.seed,
        attempted,
        failed: o.failed,
        metrics,
    };
    Ok((report, o.tracers))
}

/// An end-to-end metric's value and sample count. Timings are a median
/// (or a rate) per episode, then the median over episodes.
fn end_to_end_value(name: &str, o: &Outcome) -> (f64, u64) {
    let over_episodes = |f: &dyn Fn(&Episode) -> f64| -> f64 {
        median(&mut o.episodes.iter().map(f).collect::<Vec<_>>())
    };
    let samples = |f: &dyn Fn(&Episode) -> usize| o.episodes.iter().map(f).sum::<usize>() as u64;
    match name {
        "setup_s" => (median(&mut o.setup_s.clone()), o.setup_s.len() as u64),
        "op_p50_us" => (
            over_episodes(&|e| median(&mut e.op_us.clone())),
            samples(&|e| e.op_us.len()),
        ),
        "alt_p50_us" => (
            over_episodes(&|e| median(&mut e.alt_us.clone())),
            samples(&|e| e.alt_us.len()),
        ),
        "ops_per_s" => (
            over_episodes(&|e| (e.op_us.len() + e.alt_us.len()) as f64 / e.timed_s),
            o.attempted(),
        ),
        "peak_rss_mib" => (stats::peak_rss_mib(), 1),
        other => unreachable!("no definition for end-to-end metric {other}"),
    }
}

fn print_report(r: &RunReport) {
    println!(
        "# {} seed {} attempted {} failed {}",
        r.workload, r.seed, r.attempted, r.failed
    );
    for m in &r.metrics {
        println!("{} {} {} {}", m.name, m.unit, m.value, m.n);
    }
}

/// `--workload all`: each workload `runs` times, each run a child process
/// of this same executable, seeds `seed..seed + runs`.
fn run_all(cfg: &RunCfg, runs: u64) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    for wl in spec::WORKLOADS {
        for k in 0..runs {
            let seed = cfg.seed + k;
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", wl.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if cfg.trace { "1" } else { "0" }]);
            if cfg.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child; stderr passes through.
            let out = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", wl.name))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let (head, last) = text
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", text.trim_end()));
            println!("{head}");
            if !out.status.success() {
                return Err(format!("{} exited with {}", wl.name, out.status));
            }
            records.push(run_record(wl.name, seed, last)?);
        }
    }
    Ok(records)
}

/// A result line with the run's workload and seed in front: one entry of
/// an `--out` document's `runs`.
fn run_record(workload: &str, seed: u64, result_line: &str) -> Result<Json, String> {
    let line = Json::parse(result_line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let mut rec = vec![
        ("workload".to_string(), Json::Str(workload.into())),
        ("seed".to_string(), Json::Num(seed as f64)),
    ];
    rec.extend(
        line.as_obj()
            .ok_or("result line is not an object")?
            .iter()
            .cloned(),
    );
    Ok(Json::Obj(rec))
}

fn out_document(cfg: &RunCfg, runs: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("smoke".into(), Json::Bool(cfg.smoke)),
        ("nproc".into(), Json::Num(stats::nproc() as f64)),
        ("runs".into(), Json::Arr(runs)),
    ])
}

fn list() {
    for w in spec::WORKLOADS {
        println!("workload {} {}", w.name, w.why);
    }
    for m in spec::END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        println!("end_to_end {} {} {} {bound}", m.name, m.unit, m.better);
    }
    for m in spec::PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better);
    }
}

struct Args {
    workload: String,
    cfg: RunCfg,
    runs: u64,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        cfg: RunCfg {
            seed: 7,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        },
        runs: 1,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a name")?,
            "--seed" => {
                a.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.cfg.seconds > 0.0 && a.cfg.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out" => a.out = Some(value("a path")?),
            "--smoke" => a.cfg.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver uses.
            "--trace" => {
                a.cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(|s| s.as_str()) {
        Some("--list") => {
            list();
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare::main(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args.cfg, args.runs).map(|runs| {
            let ok = runs
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
            let line = Json::Obj(vec![("correct".into(), Json::Bool(ok))]).render();
            (runs, line)
        })
    } else {
        run_one(&args.workload, &args.cfg).and_then(|(report, tracers)| {
            print_report(&report);
            if args.cfg.trace {
                match trace::flush(report.workload, &tracers) {
                    Ok((path, events)) => eprintln!("perfbench: {events} spans -> {path}"),
                    Err(e) => eprintln!("perfbench: trace not written: {e}"),
                }
            }
            let line = report.result_line();
            Ok((vec![run_record(report.workload, report.seed, &line)?], line))
        })
    };
    let (runs, line) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, out_document(&args.cfg, runs).render() + "\n") {
            eprintln!("perfbench: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // A wrong result is reported in the line, not by the exit code: the
    // caller reads `correct` and `failed`.
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
