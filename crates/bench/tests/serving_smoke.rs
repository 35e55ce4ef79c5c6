//! Release-mode smoke test for the `serving_bench` replay: a serving
//! fleet co-scheduled with a standing training mix in fluid mode must
//! serve every arrival inside the horizon's tail, never be preempted,
//! cost training a measurable-but-bounded slice of throughput, degrade
//! p99 (not availability) under the paper-calibrated failure generator,
//! and replay byte-identically for the same seed.
//!
//! Runs only under `--release`; the CI job invokes
//! `cargo test --release -p ff-bench --test serving_smoke`.

use ff_bench::serving::{run, ServeRun};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "64-node fluid serve+train replay: run with --release"
)]
fn coscheduled_serving_replay_holds_slo_and_is_deterministic() {
    let base = ServeRun {
        seed: 7,
        horizon_s: 600,
        qps: 5.0,
        ..Default::default()
    };

    // Training-only baseline prices the serving fleet.
    let baseline = run(&ServeRun {
        qps: 0.0,
        ..base.clone()
    });
    let calm = run(&base);
    let stormy = run(&ServeRun {
        failure_scale: 200.0,
        ..base.clone()
    });

    // The serving tier actually serves: most arrivals complete within the
    // horizon (the rest are still decoding at the cutoff) and the SLO
    // holds in calm weather.
    assert!(
        calm.completed >= 1_000,
        "only {} requests completed",
        calm.completed
    );
    assert!(
        calm.attainment >= 0.99,
        "calm SLO attainment {:.4} below 0.99",
        calm.attainment
    );
    assert!(calm.p99_ms > 0.0 && calm.p99_ms < 30_000.0);

    // Serving costs training throughput, but the scheduler keeps the rest
    // of the cluster busy: the eight serving nodes of a 64-node cluster
    // cost at most ~20% of baseline node-steps.
    assert!(baseline.train_node_steps_per_s > 0.0);
    let frac = calm.train_node_steps_per_s / baseline.train_node_steps_per_s;
    assert!(
        (0.5..1.0).contains(&frac),
        "training kept {frac:.3} of baseline node-steps (want 0.5..1.0)"
    );

    // Serving is never preempted — preemptions happen *to training*; the
    // serving report shows no dropped requests in calm weather.
    assert_eq!(calm.failures, 0);

    // The failure run exercises the fault path and completes the same
    // request set (availability holds; only the tail moves).
    assert!(stormy.failures >= 1, "no failures injected at 200x rates");
    assert_eq!(
        stormy.completed, calm.completed,
        "failures must move latency, not drop requests"
    );
    assert!(
        stormy.p99_ms >= calm.p99_ms,
        "p99 did not degrade under failures ({:.1} < {:.1})",
        stormy.p99_ms,
        calm.p99_ms
    );

    // Same seed ⇒ byte-identical observability digest.
    let again = run(&ServeRun {
        failure_scale: 200.0,
        ..base.clone()
    });
    assert_eq!(stormy.digest, again.digest, "same-seed replay diverged");
    assert_eq!(stormy.p99_ms.to_bits(), again.p99_ms.to_bits());
}
