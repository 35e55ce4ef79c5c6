//! # ff-bench — the evaluation harness
//!
//! One binary per table/figure of the paper (run with
//! `cargo run -p ff-bench --release --bin <name>`), plus Criterion
//! microbenchmarks of the executable hot paths. This library holds the
//! shared report formatting and the sweeps behind the committed
//! `BENCH_*.json` artifacts.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_hw` | Table I — node hardware comparison |
//! | `table2_costperf` | Table II — GEMM perf / cost / power |
//! | `table3_network_cost` | Table III — switch counts & prices |
//! | `fig7a_allreduce_scaling` | Figure 7a — HFReduce vs NCCL bandwidth |
//! | `fig7b_nvlink_crosszone` | Figure 7b — HFReduce+NVLink, cross-zone |
//! | `fig8a_vgg_ddp` | Figure 8a — VGG16 DDP weak scaling |
//! | `fig8b_gpt2_fsdp` | Figure 8b — GPT2-medium FSDP weak scaling |
//! | `fig9a_llama_pp` | Figure 9a — LLaMa-13B pipeline strong scaling |
//! | `fig9b_moe_ep` | Figure 9b — DeepSeekMoE-16B strong scaling |
//! | `storage_throughput` | §VI-B2 — 3FS aggregate read throughput |
//! | `checkpoint_bench` | §VII-A — checkpoint save/load speed |
//! | `table6_xid` | Table V/VI — Xid taxonomy & distribution |
//! | `fig10_failure_trends` | Figure 10 — memory/network failure trends |
//! | `fig11_flashcuts` | Figure 11 — IB link flash cuts |
//! | `ablation_congestion` | §VI-A/VIII-A — VLs, routing, RTS, DCQCN |
//! | `ops_recovery` | §VII-A — checkpoint cadence vs lost work |
//! | `hai_platform` | §VI-C — the HAI scheduler at full cluster scale |
//! | `serving_bench` | ISSUE 7 — serving tier vs training throughput, p99 under failures |
//! | `artifacts` | `BENCH_fleet.json` (what-if planner) and `BENCH_detector.json` (detection latency vs false-positive cost) |
//! | `background_figs` | Figures 1–3 — background growth charts |

#![forbid(unsafe_code)]

pub mod detector;
pub mod fleet;
pub mod hai;
pub mod serving;

use std::fmt::Display;

/// Print a titled ASCII table: header row + aligned columns.
pub fn print_table<H: Display, C: Display>(title: &str, header: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in &rows {
        assert_eq!(r.len(), cols, "ragged row");
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        s
    };
    println!("{}", line(&header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for r in &rows {
        println!("{}", line(r));
    }
}

/// Render a simple horizontal bar chart line: `label |#### value`.
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!("{label:>14} |{} {value:.2}", "#".repeat(n.min(width)))
}

/// Format bytes/second as GB/s.
pub fn gbps(x: f64) -> String {
    format!("{:.2} GB/s", x / 1e9)
}

/// A paper-vs-measured comparison line for EXPERIMENTS.md-style output.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("{metric:<44} paper: {paper:<18} measured: {measured}");
}

/// Path of a committed artifact (`BENCH_*.json`) at the repository root,
/// where the `artifacts` main writes them.
pub fn artifact_path(name: &str) -> std::path::PathBuf {
    // crates/bench → repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        let b = bar("x", 5.0, 10.0, 20);
        assert!(b.contains(&"#".repeat(10)));
        assert!(!b.contains(&"#".repeat(11)));
    }

    #[test]
    fn artifact_path_points_at_the_repo_root() {
        assert!(artifact_path("BENCH_fleet.json").exists());
    }

    #[test]
    fn gbps_formats() {
        assert_eq!(gbps(8.1e9), "8.10 GB/s");
    }

    #[test]
    fn zero_max_bar_is_empty() {
        assert!(!bar("x", 1.0, 0.0, 10).contains('#'));
    }
}
