//! Re-render the committed artifacts EXPERIMENTS.md's tables are made
//! from, and print those tables.
//!
//! ```text
//! artifacts            # both
//! artifacts fleet      # BENCH_fleet.json: the 216-cell what-if grid (minutes)
//! artifacts detector   # BENCH_detector.json: sensitivity x slowdown grid
//! ```
//!
//! Each document is a pure function of its committed grid — no
//! wall-clock, no worker or thread count — so a rewrite with unchanged
//! code leaves the file byte-identical. The tests hold the committed
//! bytes to the code: `fleet_smoke` re-sweeps the small grid against the
//! `small_grid_digest` embedded in `BENCH_fleet.json`, and
//! `detector_smoke` re-renders `BENCH_detector.json` in full.

use ff_bench::detector::{self, DetectorBenchConfig};
use ff_bench::fleet::{self, FleetConfig};
use ff_bench::{artifact_path, print_table};
use std::io;

fn main() -> io::Result<()> {
    let name = std::env::args().nth(1);
    match name.as_deref() {
        None => {
            fleet_artifact()?;
            detector_artifact()
        }
        Some("fleet") => fleet_artifact(),
        Some("detector") => detector_artifact(),
        Some(other) => {
            eprintln!("unknown artifact {other:?}; usage: artifacts [fleet|detector]");
            std::process::exit(2);
        }
    }
}

/// Write `doc` to the committed artifact `name` at the repository root.
fn write(name: &str, doc: &str) -> io::Result<()> {
    let path = artifact_path(name);
    std::fs::write(&path, doc)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `BENCH_fleet.json`: the paper grid's aggregate, plus the small grid's
/// digest so a test can re-prove the artifact without 216 full-scale cells.
fn fleet_artifact() -> io::Result<()> {
    let cfg = FleetConfig::paper_grid();
    let result = fleet::sweep(&cfg);
    let small = fleet::sweep(&FleetConfig::small_grid());
    println!(
        "swept {} cells ({} nodes, {} s horizon): digest {}; small grid {}",
        result.outcomes.len(),
        cfg.nodes,
        cfg.horizon_s,
        result.digest,
        small.digest
    );

    // Goodput by (rate x ckpt): the marginal the checkpoint-cadence
    // what-if question reads off directly.
    let rows = fleet::whatif_rows(&result.outcomes);
    if let Some((_, cols, _)) = rows.first() {
        let mut header: Vec<String> = vec!["rate_scale".into()];
        header.extend(cols.iter().map(|(ck, _, _)| format!("ckpt={ck}")));
        header.push("best".into());
        let goodput: Vec<Vec<String>> = rows
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
            &goodput,
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
    write(
        "BENCH_fleet.json",
        &fleet::aggregate_json(&cfg, &result, &small.digest),
    )
}

/// `BENCH_detector.json`: time-to-detect per (sensitivity, slowdown) and
/// the calm twins' false-quarantine bill.
fn detector_artifact() -> io::Result<()> {
    let cfg = DetectorBenchConfig::paper_grid();
    let result = detector::sweep(&cfg);
    println!(
        "swept {} straggler cells + {} calm twins ({} runs): digest {}",
        result.cells.len(),
        result.calm.len(),
        (result.cells.len() + result.calm.len()) * cfg.repeats,
        result.digest
    );

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
    let calm: Vec<Vec<String>> = result
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
        &calm,
    );
    write(
        "BENCH_detector.json",
        &detector::aggregate_json(&cfg, &result),
    )
}
