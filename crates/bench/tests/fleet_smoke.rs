//! Release-mode smoke test for the Monte-Carlo fleet sweeper: the CI
//! grid must reproduce its golden digest — on multiple worker lanes, so
//! every CI run re-proves thread-count invariance against a baseline
//! recorded from a serial sweep — stay consistent with the committed
//! `BENCH_fleet.json`, and fit the 120 s budget.
//!
//! Runs only under `--release`; the CI job invokes
//! `cargo test --release -p ff-bench --test fleet_smoke`.

use ff_bench::fleet::{aggregate_json, sweep, FleetConfig};
use std::time::Instant;

/// Digest of `FleetConfig::small_grid()` — 24 cells, 32 nodes, 900 s.
/// Recorded from a serial (`--workers 1`) run; any worker count must
/// reproduce it. If a deliberate model change moves it, regenerate with
/// `fleet --small` and update `BENCH_fleet.json` with `fleet --write`.
const GOLDEN_SMALL_DIGEST: &str = "7e29e1ef76967e43";

#[test]
#[cfg_attr(debug_assertions, ignore = "24-cell fluid sweep: run with --release")]
fn small_grid_sweep_matches_golden_digest_within_budget() {
    let start = Instant::now();
    let mut cfg = FleetConfig::small_grid();
    cfg.workers = 2; // a parallel run must reproduce the serial golden
    let r = sweep(&cfg);
    assert_eq!(r.outcomes.len(), 24);
    assert_eq!(
        r.digest, GOLDEN_SMALL_DIGEST,
        "small-grid sweep digest moved — scenario outcomes changed; \
         regenerate the goldens (fleet --write) and justify the change"
    );

    // The committed artifact embeds the same digest, so the repo's JSON
    // and the code cannot drift apart silently.
    let committed = std::fs::read_to_string(ff_bench::artifact_path("BENCH_fleet.json"))
        .expect("BENCH_fleet.json is committed");
    assert!(
        committed.contains(&format!("\"small_grid_digest\": \"{GOLDEN_SMALL_DIGEST}\"")),
        "BENCH_fleet.json small_grid_digest disagrees with the code's golden"
    );

    // Baseline cells really are baselines, and the aggregate embeds the
    // digest it claims.
    for c in r.outcomes.iter().filter(|c| c.rate_scale == 0.0) {
        assert_eq!(c.lost_node_steps, 0);
        assert_eq!(c.failures, 0);
    }
    assert!(aggregate_json(&cfg, &r).contains(GOLDEN_SMALL_DIGEST));

    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        elapsed < 120.0,
        "fleet smoke took {elapsed:.1} s (budget 120 s)"
    );
}
