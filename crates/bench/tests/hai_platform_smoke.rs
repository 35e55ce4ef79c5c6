//! Release-mode smoke test for the `hai_platform` replay: the full
//! 1,250-node cluster must hit the §VI-C ≈99% utilization claim, keep
//! per-failure lost work within one checkpoint interval (§VII-A), and
//! reproduce its golden trace digest — the seed-replay regression
//! oracle, held across commits rather than only within one process.
//!
//! Runs only under `--release`; the CI job invokes
//! `cargo test --release -p ff-bench --test hai_platform_smoke`.

use ff_bench::hai::{run, HaiRun};

/// Obs-trace digest of the seed-7, 12-minute, 300× replay below. If a
/// deliberate scheduler, solver or failure-model change moves it, update
/// it from a fresh run and say why in CHANGES.md.
const GOLDEN_DIGEST: &str = "5737f41ec1d1dfd8";

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1,250-node fluid replay: run with --release"
)]
fn full_scale_replay_hits_utilization_and_is_deterministic() {
    let cfg = HaiRun {
        seed: 7,
        horizon_s: 12 * 60,
        failure_scale: 300.0, // compress months of failures into 12 minutes
        ..Default::default()
    };
    let a = run(&cfg);

    // §VI-C: time-sharing keeps the oversubscribed cluster busy.
    assert!(
        a.utilization > 0.95,
        "utilization {:.4} below the 0.95 floor",
        a.utilization
    );
    // The replay must actually exercise the failure path...
    assert!(a.failures >= 1, "no node failures injected");
    // ...and §VII-A bounds the damage: each failure costs at most one
    // checkpoint interval (300 steps) across the largest job (96 nodes).
    let bound = a.failures * 300 * 96;
    assert!(
        a.lost_work <= bound,
        "lost {} node-steps exceeds {} (one interval per failure)",
        a.lost_work,
        bound
    );
    // Preemption ran the interruption-signal protocol at least once.
    assert!(
        a.preemptions >= 1,
        "no preemptions in an oversubscribed mix"
    );
    // The cluster stays oversubscribed throughout, so idle time can only
    // come from scheduling, not from lack of demand.
    assert!(a.timeline.iter().all(|s| s.queue_depth > 0));

    // Same seed ⇒ the committed observability digest.
    assert_eq!(
        a.digest, GOLDEN_DIGEST,
        "seed-7 replay moved off its golden"
    );
}
