//! Monte-Carlo fleet sweeper & what-if capacity planner: `BENCH_fleet.json`.
//!
//! Sweeps the committed 216-cell grid (failure-rate multiplier ×
//! checkpoint cadence × serving share × 3FS replication) of full-scale
//! platform replays and writes the distributional aggregate as a
//! committed artifact, so the what-if table in EXPERIMENTS.md is
//! regenerated, not transcribed. The aggregate is bit-identical for a
//! given `(seed, grid)` at any worker count — `--check` re-runs the
//! small grid and compares digests, CI style.
//!
//! ```text
//! fleet                  # run the full grid, print the planner tables
//! fleet --write          # same, then rewrite BENCH_fleet.json
//! fleet --check          # verify BENCH_fleet.json matches a fresh run
//! fleet --small          # the 24-cell CI grid instead of the full 216
//! fleet --workers N      # cap sweep lanes (result is identical anyway)
//! ```
//!
//! The full grid is ~216 simulated hours of a 1,250-node cluster; expect
//! minutes of wall-clock on one core.

use ff_bench::fleet::{aggregate_json, sweep, whatif_rows, FleetConfig};
use ff_bench::{artifact_path, json_string, print_table};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");
    let small = args.iter().any(|a| a == "--small");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };

    let mut cfg = if small || check {
        FleetConfig::small_grid()
    } else {
        FleetConfig::paper_grid()
    };
    if let Some(w) = flag("--workers") {
        cfg.workers = w;
    }
    // Exploration overrides (the committed artifact always uses the
    // defaults; --write refuses overridden runs).
    let overridden = flag("--nodes").is_some() || flag("--horizon").is_some();
    if let Some(n) = flag("--nodes") {
        cfg.nodes = n;
    }
    if let Some(h) = flag("--horizon") {
        cfg.horizon_s = h as u64;
    }
    assert!(
        !(write && overridden),
        "--write records the canonical grid; drop --nodes/--horizon"
    );

    let t0 = Instant::now();
    let result = sweep(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "swept {} cells ({} nodes, {} s horizon) in {wall:.1}s on {} lane(s): digest {}",
        result.outcomes.len(),
        cfg.nodes,
        cfg.horizon_s,
        cfg.workers,
        result.digest
    );

    if check {
        // The committed artifact embeds the *small* grid digest alongside
        // the full aggregate, so CI re-proves determinism without paying
        // for 216 full-scale cells.
        let committed = std::fs::read_to_string(artifact_path("BENCH_fleet.json"))
            .expect("--check requires a committed BENCH_fleet.json (run --write first)");
        let want = json_string(&committed, "small_grid_digest")
            .expect("BENCH_fleet.json has small_grid_digest");
        assert_eq!(
            result.digest, want,
            "small-grid sweep digest changed: scenario outcomes differ from the \
             committed baseline — regenerate BENCH_fleet.json with --write and \
             justify the change"
        );
        println!("OK: small-grid digest matches BENCH_fleet.json");
        return;
    }

    // The planner tables: goodput by (rate × ckpt), the marginal the
    // checkpoint-cadence what-if question reads off directly.
    let rows = whatif_rows(&result.outcomes);
    if let Some((_, cols, _)) = rows.first() {
        let mut header: Vec<String> = vec!["rate_scale".into()];
        header.extend(cols.iter().map(|(ck, _, _)| format!("ckpt={ck}")));
        header.push("best".into());
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|(rate, cols, best)| {
                let mut r = vec![format!("{rate}")];
                r.extend(cols.iter().map(|(_, gp, _)| format!("{gp:.4}")));
                r.push(format!("{best}"));
                r
            })
            .collect();
        print_table(
            "mean goodput by failure rate x checkpoint cadence",
            &header,
            &table,
        );
        let lost: Vec<Vec<String>> = rows
            .iter()
            .map(|(rate, cols, _)| {
                let mut r = vec![format!("{rate}")];
                r.extend(cols.iter().map(|(_, _, l)| format!("{l:.0}")));
                r.push(String::new());
                r
            })
            .collect();
        print_table("mean lost node-steps", &header, &lost);
    }

    if small {
        return;
    }

    let json = aggregate_json(&cfg, &result);
    if write {
        // Re-run the small grid so `--check` has a cheap digest to verify.
        let small_digest = sweep(&FleetConfig::small_grid()).digest;
        let json = json.replacen(
            "  \"bench\": \"fleet\",",
            &format!("  \"bench\": \"fleet\",\n  \"small_grid_digest\": \"{small_digest}\","),
            1,
        );
        std::fs::write(artifact_path("BENCH_fleet.json"), &json).expect("write BENCH_fleet.json");
        println!("wrote {}", artifact_path("BENCH_fleet.json").display());
    } else {
        print!("{json}");
    }
}
