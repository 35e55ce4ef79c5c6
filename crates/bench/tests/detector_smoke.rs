//! Release-mode smoke tests for the gray-failure detector sweep: the
//! smoke grid must reproduce its golden digest at 1, 2 and 4 solver
//! threads — every CI run re-proves that detection latencies and
//! false-positive counts are a pure function of (seed, grid), not of
//! the solver's parallelism — and the paper grid must re-render the
//! committed `BENCH_detector.json` byte for byte.
//!
//! Runs only under `--release`; the CI job invokes
//! `cargo test --release -p ff-bench --test detector_smoke`.

use ff_bench::artifact_path;
use ff_bench::detector::{aggregate_json, sweep, DetectorBenchConfig};

/// Digest of `DetectorBenchConfig::smoke_grid()` — 4 straggler cells +
/// 2 calm twins, 8 nodes, 420 s horizon. Recorded from a serial run;
/// any thread count must reproduce it. If a deliberate detector or
/// solver change moves it, update this constant from a fresh run and
/// regenerate `BENCH_detector.json` with `artifacts detector`.
const GOLDEN_SMOKE_DIGEST: &str = "24da73a71d842bfe";

#[test]
#[cfg_attr(debug_assertions, ignore = "fluid detector sweep: run with --release")]
fn smoke_grid_digest_is_golden_and_thread_invariant() {
    let mut cfg = DetectorBenchConfig::smoke_grid();
    let serial = sweep(&cfg);
    assert_eq!(serial.cells.len(), 4);
    assert_eq!(serial.calm.len(), 2);
    assert_eq!(
        serial.digest, GOLDEN_SMOKE_DIGEST,
        "detector smoke digest moved — verdict streams or detection \
         latencies changed; justify the change and regenerate \
         BENCH_detector.json with `artifacts detector`"
    );

    // The sweep is a pure function of the grid: more solver threads may
    // change wall-clock, never the result.
    for threads in [2usize, 4] {
        cfg.solver_threads = threads;
        let r = sweep(&cfg);
        assert_eq!(
            r.digest, serial.digest,
            "detector sweep digest diverged at {threads} solver threads"
        );
    }

    // The sluggish end of the smoke grid still detects a hard 4x
    // straggler.
    assert!(
        serial
            .cells
            .iter()
            .filter(|c| c.slowdown == 4.0)
            .all(|c| c.detected > 0),
        "a 4x straggler went entirely undetected in the smoke grid"
    );
}

/// The committed artifact is exactly what the code renders: every cell,
/// every calm twin and the digest `eb1efa5807222f98`, not the digest
/// alone.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "48 fluid platform runs: run with --release"
)]
fn paper_grid_rerenders_the_committed_artifact() {
    let cfg = DetectorBenchConfig::paper_grid();
    let fresh = aggregate_json(&cfg, &sweep(&cfg));
    let committed =
        std::fs::read_to_string(artifact_path("BENCH_detector.json")).expect("BENCH_detector.json");
    assert!(
        fresh == committed,
        "BENCH_detector.json differs from a fresh render — detection \
         behavior changed; regenerate with `artifacts detector` and justify \
         the change.\nfresh:\n{fresh}"
    );
}
