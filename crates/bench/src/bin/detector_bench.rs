//! Gray-failure detector sweep: `BENCH_detector.json`.
//!
//! Sweeps detector sensitivity × straggler slowdown over seeded
//! fluid-mode platform replays (ISSUE 9): each straggler cell reports
//! time-to-detect p50/p99 and misses, and each sensitivity's calm twin —
//! the same seeds with no fault injected — prices the false-positive
//! quarantines in node-seconds of lost capacity. The aggregate is
//! bit-identical at any solver thread count.
//!
//! ```text
//! detector_bench            # run the committed grid, print the tables
//! detector_bench --write    # same, then rewrite BENCH_detector.json
//! detector_bench --check    # verify BENCH_detector.json vs a fresh run
//! detector_bench --threads N  # solver threads (result identical anyway)
//! ```

use ff_bench::detector::{aggregate_json, sweep, DetectorBenchConfig};
use ff_bench::{artifact_path, compare, json_string, print_table};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);

    let mut cfg = DetectorBenchConfig::paper_grid();
    cfg.solver_threads = threads;

    let t0 = Instant::now();
    let result = sweep(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "swept {} straggler cells + {} calm twins ({} runs) in {wall:.1}s \
         at {threads} solver thread(s): digest {}",
        result.cells.len(),
        result.calm.len(),
        (result.cells.len() + result.calm.len()) * cfg.repeats,
        result.digest
    );

    if check {
        let committed = std::fs::read_to_string(artifact_path("BENCH_detector.json"))
            .expect("--check requires a committed BENCH_detector.json (run --write first)");
        let want = json_string(&committed, "digest").expect("BENCH_detector.json carries a digest");
        assert_eq!(
            result.digest, want,
            "detector sweep digest changed: verdict counts / detection \
             latencies differ from the committed baseline — regenerate \
             BENCH_detector.json with --write and justify the change"
        );
        println!("OK: detector sweep digest matches BENCH_detector.json");
        return;
    }

    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|c| {
            vec![
                format!("{:.2}", c.sensitivity),
                format!("{:.1}x", c.slowdown),
                format!("{}/{}", c.detected, c.detected + c.missed),
                format!("{} s", c.ttd_p50_s),
                format!("{} s", c.ttd_p99_s),
                format!("{}", c.verdicts),
            ]
        })
        .collect();
    print_table(
        "time-to-detect by sensitivity x straggler slowdown",
        &[
            "sens", "slowdown", "detected", "ttd p50", "ttd p99", "verdicts",
        ],
        &rows,
    );
    let calm_rows: Vec<Vec<String>> = result
        .calm
        .iter()
        .map(|c| {
            vec![
                format!("{:.2}", c.sensitivity),
                format!("{}", c.false_quarantines),
                format!("{}", c.down_node_s),
            ]
        })
        .collect();
    print_table(
        "false-positive capacity cost (calm twins)",
        &["sens", "false quarantines", "down node-s"],
        &calm_rows,
    );
    compare(
        "Detection is signal-driven, not oracle-driven",
        "hai-monitor (qualitative)",
        "latency/FP/FN all emerge from probe cadence + noise",
    );

    let json = aggregate_json(&cfg, &result);
    if write {
        std::fs::write(artifact_path("BENCH_detector.json"), &json)
            .expect("write BENCH_detector.json");
        println!("wrote {}", artifact_path("BENCH_detector.json").display());
    } else {
        print!("{json}");
    }
}
