//! Scale smoke tests: the paper-scale simulation points must stay
//! *correct* — inside the bands Figure 7a and §VI report, and for the
//! Figure 7a end point on its pinned value. Their wall-clock is measured
//! by perfbench's `sim_fig7a` workload, not here.
//!
//! These run only under `--release` — the CI scale-smoke job invokes
//! `cargo test --release -p ff-bench --test scale_smoke`; the debug-mode
//! workspace test run skips them via the `ignore` attribute.

use ff_net::experiments::{congestion_spread_with, SpreadConfig};
use ff_reduce::model::{hfreduce_steady, HfReduceOptions};
use ff_reduce::ClusterConfig;
use ff_topo::routing::RoutePolicy;

/// The headline acceptance point: the 10,000-GPU Figure 7a row — all
/// 1,250 nodes of the two-zone cluster — lands in the paper's flat
/// 6–10 GB/s HFReduce band, at exactly the 7.928 GB/s it has always
/// simulated to.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1,250-node cluster simulation: run with --release"
)]
fn fig7a_10000_gpu_point_is_pinned_and_in_band() {
    let bytes = 186.0 * 1024.0 * 1024.0;
    let hf = hfreduce_steady(
        &ClusterConfig::fire_flyer_full(),
        bytes,
        &HfReduceOptions::default(),
    );
    assert_eq!(hf.gpus, 10_000);
    let gbps = hf.algbw_bps / 1e9;
    assert!(
        (6.0..=10.0).contains(&gbps),
        "10,000-GPU HFReduce bandwidth {gbps:.2} GB/s outside the paper's 6-10 GB/s band"
    );
    assert_eq!(
        format!("{gbps:.3}"),
        "7.928",
        "10,000-GPU HFReduce bandwidth moved off its pinned value"
    );
}

/// The zone-scale congestion-spread experiment (600 compute + 180 storage
/// hosts, §VI-A2) keeps the reported effect: adaptive routing slows the
/// compute straggler.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "zone-scale congestion experiment: run with --release"
)]
fn paper_zone_congestion_spread_is_tractable() {
    let st = congestion_spread_with(
        RoutePolicy::StaticByDestination,
        &SpreadConfig::paper_zone(48),
    );
    let ad = congestion_spread_with(RoutePolicy::Adaptive, &SpreadConfig::paper_zone(48));
    assert_eq!(st.compute_bw.count(), 600);
    assert!(
        ad.worst_compute_bw < st.worst_compute_bw,
        "adaptive straggler {} should be slower than static {}",
        ad.worst_compute_bw,
        st.worst_compute_bw
    );
}
