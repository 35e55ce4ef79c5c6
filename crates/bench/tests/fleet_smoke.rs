//! Release-mode smoke test for the Monte-Carlo fleet sweeper: the CI
//! grid must reproduce the `small_grid_digest` committed in
//! `BENCH_fleet.json` — on multiple worker lanes, so every CI run
//! re-proves thread-count invariance against a baseline recorded by the
//! `artifacts` main.
//!
//! Runs only under `--release`; the CI job invokes
//! `cargo test --release -p ff-bench --test fleet_smoke`.

use ff_bench::artifact_path;
use ff_bench::fleet::{sweep, FleetConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "24-cell fluid sweep: run with --release")]
fn small_grid_sweep_matches_committed_digest() {
    let mut cfg = FleetConfig::small_grid();
    cfg.workers = 2; // a parallel run must reproduce the committed golden
    let r = sweep(&cfg);
    assert_eq!(r.outcomes.len(), 24);

    let committed =
        std::fs::read_to_string(artifact_path("BENCH_fleet.json")).expect("BENCH_fleet.json");
    assert!(
        committed.contains(&format!("\"small_grid_digest\": \"{}\"", r.digest)),
        "small-grid sweep digest {} is not the one in BENCH_fleet.json — \
         scenario outcomes changed; regenerate with `artifacts fleet` and \
         justify the change",
        r.digest
    );

    // Baseline cells really are baselines.
    for c in r.outcomes.iter().filter(|c| c.rate_scale == 0.0) {
        assert_eq!(c.lost_node_steps, 0);
        assert_eq!(c.failures, 0);
    }
}
