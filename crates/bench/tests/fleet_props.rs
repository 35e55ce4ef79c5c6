//! Distributional property suite for the Monte-Carlo fleet sweeper.
//!
//! Three pillars, per the sweep's contract:
//!
//! 1. **Thread-count invariance** — the committed aggregate (digest *and*
//!    every byte of the JSON) is identical whether the grid runs on 1, 2
//!    or 4 worker lanes. This is the property that makes `BENCH_fleet.json`
//!    trustworthy on any CI box.
//! 2. **Purity / permutation invariance** — a sweep is exactly the
//!    multiset of its per-cell runs: executing cells one-by-one in
//!    reverse order reproduces the same canonical lines, and the sweep
//!    returns them in grid order regardless of completion order.
//! 3. **Monotonicity spot-checks** over a 64-cell small-cluster grid —
//!    the physics the planner's conclusions rest on: no failures ⇒ no
//!    lost work, more failure rate ⇒ more failures and more lost work,
//!    more serving share ⇒ less training banked.

use ff_bench::fleet::{
    aggregate_json, cell_specs, digest, run_cell, sweep, CellSpec, FleetConfig, ScenarioOutcome,
    AXIS_CKPT, AXIS_DETECT, AXIS_RATE, AXIS_REPL, AXIS_SHARE,
};
use ff_util::scengen::SweepGrid;

/// A 16-cell debug-affordable grid exercising all four axes.
fn tiny_grid(workers: usize) -> FleetConfig {
    FleetConfig {
        seed: 11,
        nodes: 16,
        horizon_s: 300,
        workers,
        grid: SweepGrid::new()
            .axis(AXIS_RATE, &[0.0, 256.0])
            .axis(AXIS_CKPT, &[5.0, 30.0])
            .axis(AXIS_SHARE, &[0.0, 0.25])
            .axis(AXIS_REPL, &[1.0, 2.0]),
    }
}

/// The 64-cell monotonicity grid: wider rate ladder, finer ckpt ladder.
fn mono_grid() -> FleetConfig {
    FleetConfig {
        seed: 23,
        nodes: 16,
        horizon_s: 300,
        workers: 4,
        grid: SweepGrid::new()
            .axis(AXIS_RATE, &[0.0, 16.0, 256.0, 1024.0])
            .axis(AXIS_CKPT, &[5.0, 10.0, 25.0, 50.0])
            .axis(AXIS_SHARE, &[0.0, 0.25])
            .axis(AXIS_REPL, &[1.0, 2.0]),
    }
}

#[test]
fn aggregate_bytes_are_identical_at_1_2_4_workers() {
    // No small grid stands beside the tiny one; any fixed string will do.
    let small = "-";
    let cfg1 = tiny_grid(1);
    let r1 = sweep(&cfg1);
    let j1 = aggregate_json(&cfg1, &r1, small);
    assert!(j1.contains(&r1.digest), "aggregate embeds its digest");
    for w in [2usize, 4] {
        let cfg = tiny_grid(w);
        let r = sweep(&cfg);
        assert_eq!(r.digest, r1.digest, "digest diverged at {w} workers");
        assert_eq!(
            aggregate_json(&cfg, &r, small),
            j1,
            "aggregate JSON diverged at {w} workers"
        );
    }
}

#[test]
fn sweep_equals_serial_per_cell_runs_in_any_order() {
    let cfg = tiny_grid(3);
    let swept = sweep(&cfg);
    // Outcomes come back in grid order no matter how lanes interleaved.
    for (i, o) in swept.outcomes.iter().enumerate() {
        assert_eq!(o.index, i, "outcome out of grid order");
    }
    // Running the same cells serially, in reverse, yields the same
    // multiset of canonical lines (and, re-sorted, the same digest).
    let mut serial: Vec<ScenarioOutcome> =
        cell_specs(&cfg).into_iter().rev().map(run_cell).collect();
    serial.sort_by_key(|o| o.index);
    assert_eq!(
        serial, swept.outcomes,
        "sweep is not the multiset of its cells"
    );
    assert_eq!(digest(&serial), swept.digest);
}

#[test]
fn monotonicity_spot_checks_hold_across_64_cells() {
    let cfg = mono_grid();
    let r = sweep(&cfg);
    let o = &r.outcomes;
    assert_eq!(o.len(), 64);

    // Every cell is physically sane.
    for c in o {
        assert!(
            c.utilization > 0.0 && c.utilization <= 1.0,
            "cell {}: utilization {}",
            c.index,
            c.utilization
        );
        // A cell CAN bank nothing (1024x failures with a never-reached
        // checkpoint interval rolls every job back to step 0), so only
        // the upper bound is universal.
        assert!(
            c.goodput >= 0.0 && c.goodput < 1.5,
            "cell {}: goodput {}",
            c.index,
            c.goodput
        );
        // Effective cost-performance is Table II's ratio (~1.38) scaled
        // by delivered goodput.
        let table2 = ff_hw::NodeSpec::pcie_a100().cost_performance_ratio();
        assert!((c.cost_perf - table2 * c.goodput).abs() < 1e-12);
        if c.serve_share == 0.0 {
            assert_eq!(c.serve_completed, 0);
            assert_eq!(c.slo_misses, 0);
        } else {
            assert!(c.serve_completed > 0, "cell {}: serving idle", c.index);
        }
    }

    // Pillar: a failure-free fleet loses nothing and recovers from
    // nothing — the sweep's baseline cells really are baselines.
    for c in o.iter().filter(|c| c.rate_scale == 0.0) {
        assert_eq!(
            c.lost_node_steps, 0,
            "cell {}: lost work without failures",
            c.index
        );
        assert_eq!(c.failures, 0);
        assert_eq!(c.recoveries, 0);
        assert_eq!(c.recovery_p99_s, 0);
        assert!(
            c.goodput > 0.2,
            "cell {}: baseline goodput {}",
            c.index,
            c.goodput
        );
    }

    // Failure counts grow strictly along the rate ladder (means over the
    // 16 cells at each rung; the rungs are 16x apart, far beyond Poisson
    // noise).
    let mean = |f: &dyn Fn(&ScenarioOutcome) -> f64, pred: &dyn Fn(&ScenarioOutcome) -> bool| {
        let sel: Vec<f64> = o.iter().filter(|c| pred(c)).map(f).collect();
        assert!(!sel.is_empty());
        sel.iter().sum::<f64>() / sel.len() as f64
    };
    let rates = [0.0, 16.0, 256.0, 1024.0];
    let fail_means: Vec<f64> = rates
        .iter()
        .map(|&s| mean(&|c| c.failures as f64, &|c| c.rate_scale == s))
        .collect();
    for w in fail_means.windows(2) {
        assert!(
            w[1] > w[0],
            "mean failures not increasing along the rate ladder: {fail_means:?}"
        );
    }

    // Lost work follows: zero at the baseline, strictly positive under
    // heavy fire, and the top rung loses more than the 16x rung.
    let lost_means: Vec<f64> = rates
        .iter()
        .map(|&s| mean(&|c| c.lost_node_steps as f64, &|c| c.rate_scale == s))
        .collect();
    assert_eq!(lost_means[0], 0.0);
    assert!(lost_means[3] > 0.0, "1024x lost nothing: {lost_means:?}");
    assert!(
        lost_means[3] > lost_means[1],
        "lost work did not grow 16x -> 1024x: {lost_means:?}"
    );

    // Serving share prices training — on the calm rungs, where capacity
    // dominates. (Under heavy fire the effect can invert: pinning nodes
    // shrinks the training jobs, and smaller jobs have a smaller
    // rollback blast radius per kill.)
    for &s in &rates[..2] {
        let train0 = mean(&|c| c.banked_node_steps as f64, &|c| {
            c.rate_scale == s && c.serve_share == 0.0
        });
        let train25 = mean(&|c| c.banked_node_steps as f64, &|c| {
            c.rate_scale == s && c.serve_share == 0.25
        });
        assert!(
            train25 < train0,
            "rate {s}: serving share did not cost training ({train25} >= {train0})"
        );
    }

    // Recoveries happen once failures do.
    assert!(
        o.iter().any(|c| c.rate_scale >= 256.0 && c.recoveries > 0),
        "no recovery cycles at >=256x"
    );
}

/// The detector axis is strictly opt-in: a `detect_sens: 0.0` cell emits
/// exactly the historical canonical line (no ` detect=` suffix, so every
/// committed grid digest is untouched), while a hot cell carries the
/// suffix, reproduces bit-for-bit, and runs the gray+detector loop.
#[test]
fn detect_axis_is_opt_in_and_reproducible() {
    let mut spec = CellSpec {
        index: 0,
        seed: 5,
        nodes: 16,
        horizon_s: 300,
        rate_scale: 16.0,
        ckpt_steps: 10,
        serve_share: 0.0,
        replication: 1,
        detect_sens: 0.0,
    };
    let cold = run_cell(spec);
    assert!(
        !cold.canonical().contains(" detect="),
        "detector-off cell leaked the detect suffix: {}",
        cold.canonical()
    );
    assert_eq!(cold.detector_quarantines, 0);

    spec.detect_sens = 0.8;
    let hot = run_cell(spec);
    assert!(
        hot.canonical().contains(" detect=0.80 det_q="),
        "detector-on cell missing the detect suffix: {}",
        hot.canonical()
    );
    assert_eq!(run_cell(spec), hot, "hot cell is not reproducible");

    // The axis parses through cell_specs like the other four.
    let cfg = FleetConfig {
        seed: 5,
        nodes: 16,
        horizon_s: 300,
        workers: 1,
        grid: SweepGrid::new()
            .axis(AXIS_RATE, &[16.0])
            .axis(AXIS_CKPT, &[10.0])
            .axis(AXIS_SHARE, &[0.0])
            .axis(AXIS_REPL, &[1.0])
            .axis(AXIS_DETECT, &[0.0, 0.8]),
    };
    let specs = cell_specs(&cfg);
    assert_eq!(specs.len(), 2);
    assert_eq!(specs[0].detect_sens, 0.0);
    assert_eq!(specs[1].detect_sens, 0.8);
}

/// The replication axis is wired through, not decorative: two cells that
/// agree on *everything* — seed included — except the chain replication
/// factor diverge once storage targets start dying. (Inside the grid the
/// twins would get different per-cell seeds, so this is the one check
/// that must run outside a sweep.)
#[test]
fn replication_factor_changes_outcomes_under_storage_fire() {
    // The twins only diverge when a storage-host death overlaps a
    // checkpoint (repl=1 cannot shed the dead member, so the save is not
    // durable) and a later kill rolls past it — so the rate must be hot
    // enough for storage deaths but calm enough that jobs still reach
    // checkpoints. A few seeds cover the remaining luck.
    let observable = |o: &ScenarioOutcome| {
        (
            o.banked_node_steps,
            o.lost_node_steps,
            o.recoveries,
            o.utilization.to_bits(),
        )
    };
    let mut diverged = false;
    for seed in [1u64, 2, 3] {
        let mut spec = CellSpec {
            index: 0,
            seed,
            nodes: 16,
            horizon_s: 3600,
            rate_scale: 256.0,
            ckpt_steps: 5,
            serve_share: 0.0,
            replication: 1,
            detect_sens: 0.0,
        };
        let unreplicated = run_cell(spec);
        spec.replication = 2;
        let mirrored = run_cell(spec);
        assert!(
            mirrored.banked_node_steps > 0,
            "seed {seed}: 256x twins banked nothing — the rung is too hot \
             for the divergence mechanism this test exercises"
        );
        // Each twin is individually reproducible (purity of run_cell).
        assert_eq!(run_cell(spec), mirrored);
        if observable(&unreplicated) != observable(&mirrored) {
            diverged = true;
            break;
        }
    }
    assert!(
        diverged,
        "head+mirror chains behaved exactly like unreplicated ones under \
         storage fire across every probed seed"
    );
}
