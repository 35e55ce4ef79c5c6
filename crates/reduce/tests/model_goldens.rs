//! Golden outputs of the DAG performance models: the simulated seconds of
//! cheap HFReduce and ring configurations, bit for bit, and the solver
//! effort each takes. The seconds move only if the model or the fluid
//! arithmetic does. The recompute counts move when the number of solves
//! per simulated instant does, and the component and flow-solve counts
//! when the solver's component partition does, even where the bits
//! survive; a change that moves them is re-pinned deliberately, with the
//! reason in CHANGES.md.

use ff_desim::fluid::SolverStats;
use ff_reduce::cluster::{ClusterConfig, ClusterModel};
use ff_reduce::model::{hfreduce_time, HfReduceOptions, HfReduceVariant};
use ff_reduce::ring::ring_simulate;

const MIB: f64 = 1024.0 * 1024.0;

/// The thread-invariant solver counters: recomputes, components,
/// empty components, flow solves, fill rounds and structural events.
/// (`parallel_batches` depends on the worker count, so it is left out.)
fn counts(s: &SolverStats) -> [u64; 6] {
    [
        s.recomputes,
        s.components,
        s.empty_components,
        s.flow_solves,
        s.fill_rounds,
        s.events(),
    ]
}

/// `(seconds bits, solver counters)` of one 64 MiB, 4-chunk HFReduce.
fn hfreduce(cfg: &ClusterConfig, variant: HfReduceVariant) -> (String, [u64; 6]) {
    let mut cluster = ClusterModel::build(cfg);
    let opts = HfReduceOptions {
        chunks: 4,
        variant,
        ..Default::default()
    };
    let r = hfreduce_time(&mut cluster, 64.0 * MIB, &opts);
    let stats = counts(&cluster.fluid.solver_stats());
    (format!("{:016x}", r.seconds.to_bits()), stats)
}

/// `(algbw bits, solver counters)` of one 64 MiB ring allreduce.
fn ring(nodes: usize) -> (String, [u64; 6]) {
    let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer(nodes));
    let bw = ring_simulate(&mut cluster, 64.0 * MIB);
    let stats = counts(&cluster.fluid.solver_stats());
    (format!("{:016x}", bw.to_bits()), stats)
}

#[test]
fn hfreduce_two_nodes_is_golden() {
    let (bits, _) = hfreduce(&ClusterConfig::fire_flyer(2), HfReduceVariant::Standard);
    assert_eq!(bits, "3f7dce9c7d1b2b21");
}

#[test]
fn hfreduce_nvlink_sixteen_nodes_is_golden() {
    let (bits, _) = hfreduce(
        &ClusterConfig::fire_flyer_nvlink(16),
        HfReduceVariant::NvLink,
    );
    assert_eq!(bits, "3f86b15510ed51ec");
}

#[test]
fn hfreduce_two_zone_is_golden() {
    let cfg = ClusterConfig {
        two_zone: true,
        ..ClusterConfig::fire_flyer(64)
    };
    let (bits, stats) = hfreduce(&cfg, HfReduceVariant::Standard);
    assert_eq!(bits, "3f8f7ad2d16b0e8e");
    assert_eq!(stats, [417, 11_470, 9_845, 46_595, 5_112, 10_720]);
}

#[test]
fn ring_two_nodes_is_golden() {
    assert_eq!(ring(2).0, "41f2095324c3d62d");
}

#[test]
fn ring_eight_nodes_is_golden() {
    let (bits, stats) = ring(8);
    assert_eq!(bits, "41ed11e959617309");
    assert_eq!(stats, [1_567, 58_481, 49_112, 22_856, 15_371, 16_128]);
}
