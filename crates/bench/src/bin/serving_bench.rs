//! Serving tier vs training throughput (ISSUE 7): the serving workload
//! co-scheduled with a standing training mix on a fluid-mode cluster.
//! Sweeps offered QPS to price serving in training node-steps, then
//! replays the busiest point under the paper-calibrated failure generator
//! to place p99 latency under node failures.
//!
//! ```text
//! cargo run -p ff-bench --release --bin serving_bench -- \
//!     [--seed N] [--nodes N] [--minutes M] [--replicas R] [--scale F] [--trace out.json]
//! ```
//!
//! Each sweep point also prints a one-line JSON row; those rows are
//! committed to EXPERIMENTS.md as the regression record.

use ff_bench::print_table;
use ff_bench::serving::{json_row, run, ServeRun};
use ff_obs::chrome::export_chrome_json;

fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let base = ServeRun {
        seed: arg(&args, "--seed", 7),
        nodes: arg(&args, "--nodes", 64),
        horizon_s: arg(&args, "--minutes", 10u64) * 60,
        replicas: arg(&args, "--replicas", 4),
        ..Default::default()
    };
    let failure_scale = arg(&args, "--scale", 200.0);
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!(
        "Serving co-schedule replay: {} nodes, {} simulated minutes, {}x{} replicas, seed {}",
        base.nodes,
        base.horizon_s / 60,
        base.replicas,
        base.nodes_per_replica,
        base.seed
    );

    // --- QPS sweep: what does serving cost training? -----------------------
    let sweep = [0.0, 2.0, 5.0, 10.0, 20.0];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut baseline_steps = 0.0;
    let mut busiest = None;
    for &qps in &sweep {
        let cfg = ServeRun {
            qps,
            ..base.clone()
        };
        let r = run(&cfg);
        if qps == 0.0 {
            baseline_steps = r.train_node_steps_per_s;
        }
        rows.push(vec![
            format!("{qps:.0}"),
            format!("{:.2}", r.offered_qps),
            format!("{}", r.completed),
            format!("{:.1}%", r.attainment * 100.0),
            format!("{:.0} ms", r.p50_ms),
            format!("{:.0} ms", r.p99_ms),
            format!("{:.1}", r.train_node_steps_per_s),
            format!("{:.1}%", r.utilization * 100.0),
        ]);
        json.push(json_row("qps_vs_train", &cfg, &r));
        busiest = Some((cfg, r));
    }
    print_table(
        "Training throughput vs offered serving load",
        &[
            "target qps",
            "offered",
            "served",
            "SLO",
            "p50",
            "p99",
            "train node-steps/s",
            "util",
        ],
        &rows,
    );
    if let Some((_, r)) = &busiest {
        println!(
            "training cost of the 20-QPS fleet: {:.1} -> {:.1} node-steps/s ({:.1}% of baseline)",
            baseline_steps,
            r.train_node_steps_per_s,
            100.0 * r.train_node_steps_per_s / baseline_steps.max(1e-9)
        );
    }

    // --- p99 under failures ------------------------------------------------
    let calm = ServeRun {
        qps: 5.0,
        ..base.clone()
    };
    let stormy = ServeRun {
        failure_scale,
        ..calm.clone()
    };
    let rc = run(&calm);
    let rs = run(&stormy);
    print_table(
        &format!("p99 under FaultPlan failures ({failure_scale}x rates)"),
        &[
            "failure scale",
            "failures",
            "redirects",
            "SLO",
            "p50",
            "p99",
            "in flight",
        ],
        &[
            vec![
                "0".to_string(),
                format!("{}", rc.failures),
                format!("{}", rc.redirects),
                format!("{:.1}%", rc.attainment * 100.0),
                format!("{:.0} ms", rc.p50_ms),
                format!("{:.0} ms", rc.p99_ms),
                format!("{}", rc.in_flight),
            ],
            vec![
                format!("{failure_scale:.0}"),
                format!("{}", rs.failures),
                format!("{}", rs.redirects),
                format!("{:.1}%", rs.attainment * 100.0),
                format!("{:.0} ms", rs.p50_ms),
                format!("{:.0} ms", rs.p99_ms),
                format!("{}", rs.in_flight),
            ],
        ],
    );
    json.push(json_row("p99_under_failure", &calm, &rc));
    json.push(json_row("p99_under_failure", &stormy, &rs));

    println!("\nJSON rows (committed to EXPERIMENTS.md):");
    for line in &json {
        println!("{line}");
    }
    println!("trace digest: {}", rs.digest);

    if let Some(path) = trace_path {
        std::fs::write(&path, export_chrome_json(&rs.recorder))?;
        println!("Perfetto trace written to {path}");
    }
    Ok(())
}
