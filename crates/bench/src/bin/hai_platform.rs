//! §VI-C: the HAI platform at full Fire-Flyer scale — the event-driven
//! scheduler in fluid mode replays a seeded multi-tenant job mix on the
//! 1,250-node / two-zone cluster while the paper-calibrated failure
//! generator injects faults. Training steps and checkpoint writes are
//! bandwidth flows, so job durations, queueing, and preemption cost
//! emerge from contention rather than declared run times.
//!
//! ```text
//! cargo run -p ff-bench --release --bin hai_platform -- \
//!     [--seed N] [--minutes M] [--nodes N] [--scale F] [--trace out.json]
//! ```
//!
//! `--trace` writes Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>) with the `platform/sched` scheduling lane
//! and per-chain checkpoint I/O. The printed digest is byte-stable for a
//! given seed — the regression oracle used by the smoke test.

use ff_bench::hai::{HaiRun, Sample};
use ff_bench::print_table;
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
    let cfg = HaiRun {
        seed: arg(&args, "--seed", 7),
        horizon_s: arg(&args, "--minutes", 60u64) * 60,
        nodes: arg(&args, "--nodes", 1250),
        // 100× compresses roughly a month of the paper's measured failure
        // rates into the one-hour default replay.
        failure_scale: arg(&args, "--scale", 100.0),
        ..Default::default()
    };
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();

    println!(
        "HAI platform replay: {} nodes, {} simulated minutes, seed {}, {}x failure rates",
        cfg.nodes,
        cfg.horizon_s / 60,
        cfg.seed,
        cfg.failure_scale
    );
    let report = ff_bench::hai::run(&cfg);

    // The utilization timeline, decimated to ~12 rows.
    let stride = (report.timeline.len() / 12).max(1);
    let rows: Vec<Vec<String>> = report
        .timeline
        .iter()
        .step_by(stride)
        .map(|s: &Sample| {
            vec![
                format!("{:>5} s", s.at_s),
                format!("{:.2}%", s.utilization * 100.0),
                format!("{}", s.queue_depth),
                format!("{}", s.healthy),
            ]
        })
        .collect();
    print_table(
        "Utilization timeline",
        &["t", "util (cum)", "queued", "healthy nodes"],
        &rows,
    );

    // The default replay's utilization and lost work are `repro hai` rows.
    println!(
        "utilization {:.1}%; lost work {} node-steps over {} failures",
        report.utilization * 100.0,
        report.lost_work,
        report.failures
    );
    println!(
        "jobs: {} submitted, {} completed in-horizon; {} preemptions ({} interruption signals served)",
        report.submitted, report.succeeded, report.preemptions, report.preemptions
    );
    println!("trace digest: {}", report.digest);

    if let Some(path) = trace_path {
        std::fs::write(&path, export_chrome_json(&report.recorder))?;
        println!("Perfetto trace written to {path}");
    }
    Ok(())
}
