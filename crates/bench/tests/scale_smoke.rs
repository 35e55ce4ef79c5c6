//! Scale smoke tests: the heavy rows of the paper-claims registry — the
//! paper-scale simulation points — must stay inside their bands, the
//! Figure 7a end point on its pinned value, and EXPERIMENTS.md must carry
//! the table `repro` prints today. Their wall-clock is measured by
//! perfbench's `sim_fig7a` workload, not here.
//!
//! These run only under `--release` (`scripts/verify.sh` invokes
//! `cargo test --release -p ff-bench --test scale_smoke`); the debug-mode
//! workspace test run skips them via the `ignore` attribute.

use ff_bench::claims::{fig7_hfreduce, render, zone_spread, Claim, CLAIMS};
use ff_reduce::model::{hfreduce_time, HfReduceOptions, HfReduceVariant};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_topo::routing::RoutePolicy;
use std::sync::OnceLock;

/// Each row measured at most once per process, shared by the tests.
fn measured(id: &str) -> (&'static Claim, f64) {
    static CELLS: OnceLock<Vec<OnceLock<f64>>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| CLAIMS.iter().map(|_| OnceLock::new()).collect());
    let i = CLAIMS.iter().position(|c| c.id == id).unwrap();
    (&CLAIMS[i], *cells[i].get_or_init(CLAIMS[i].measure))
}

fn assert_holds(id: &str) -> f64 {
    let (c, v) = measured(id);
    assert!(
        c.holds(v),
        "{id}: measured {v} outside {:?} (paper: {})",
        c.band,
        c.paper
    );
    v
}

/// The headline acceptance point: the 10,000-GPU Figure 7a row — all
/// 1,250 nodes of the two-zone cluster — lands in the flat HFReduce band,
/// at exactly the 7.928 GB/s it has always simulated to.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1,250-node cluster simulation: run with --release"
)]
fn fig7a_10000_gpu_point_is_pinned_and_in_band() {
    let gbps = assert_holds("fig7a.hfreduce.10000");
    // The row's run, from the registry's per-process cache.
    let run = fig7_hfreduce(10_000, HfReduceVariant::Standard, false);
    assert_eq!(run.gpus, 10_000);
    assert_eq!(
        format!("{gbps:.3}"),
        "7.928",
        "10,000-GPU HFReduce bandwidth moved off its pinned value"
    );
}

/// The two fits behind the 10,000-GPU point, at 3 and 6 chunks of
/// 186 MiB on the full cluster: both simulated times bit for bit, and the
/// solver's thread-invariant effort summed over the two runs. A solver
/// change that keeps the bits but moves the component partition shows up
/// here as a moved `components` or `flow_solves` count.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1,250-node cluster simulation: run with --release"
)]
fn fig7a_10000_gpu_fits_keep_their_bits_and_solver_effort() {
    let mut bits = Vec::new();
    let mut totals = [0u64; 6];
    for chunks in [3, 6] {
        let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer_full());
        let opts = HfReduceOptions {
            chunks,
            ..Default::default()
        };
        let r = hfreduce_time(&mut cluster, 186.0 * 1024.0 * 1024.0, &opts);
        bits.push(format!("{:016x}", r.seconds.to_bits()));
        let s = cluster.fluid.solver_stats();
        let run = [
            s.recomputes,
            s.components,
            s.empty_components,
            s.flow_solves,
            s.fill_rounds,
            s.events(),
        ];
        for (t, v) in totals.iter_mut().zip(run) {
            *t += v;
        }
    }
    assert_eq!(bits, ["3fb31ecfdbc25572", "3fa88b57a648ee4a"]);
    assert_eq!(
        totals,
        [15_203, 502_002, 435_149, 11_414_507, 221_413, 472_428]
    );
}

/// The zone-scale congestion-spread experiment (600 compute + 180 storage
/// hosts, §VI-A2) keeps the reported effect: adaptive routing slows the
/// compute straggler, and every one of the 600 compute flows completes
/// under either policy.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "zone-scale congestion experiment: run with --release"
)]
fn paper_zone_congestion_spread_is_tractable() {
    assert_holds("ablation.routing_adaptive_over_static_zone");
    for policy in [RoutePolicy::StaticByDestination, RoutePolicy::Adaptive] {
        assert_eq!(zone_spread(policy).compute_bw.count(), 600, "{policy:?}");
    }
}

/// Every heavy row holds its band.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale rows: run with --release")]
fn heavy_rows_hold_their_bands() {
    for c in CLAIMS.iter().filter(|c| c.heavy) {
        assert_holds(c.id);
    }
}

/// EXPERIMENTS.md carries the table `repro` prints, byte for byte, between
/// its markers. After a deliberate change, paste `repro`'s output there.
#[test]
#[cfg_attr(debug_assertions, ignore = "runs every row: run with --release")]
fn experiments_md_carries_the_current_table() {
    let rows: Vec<_> = CLAIMS.iter().map(|c| measured(c.id)).collect();
    let doc = std::fs::read_to_string(ff_bench::artifact_path("EXPERIMENTS.md")).unwrap();
    let (begin, end) = ("<!-- repro:begin -->\n", "<!-- repro:end -->");
    let start = doc.find(begin).unwrap() + begin.len();
    let stop = doc.find(end).unwrap();
    assert_eq!(
        doc[start..stop],
        render(&rows),
        "EXPERIMENTS.md's claims table is stale: paste `repro`'s output"
    );
}
