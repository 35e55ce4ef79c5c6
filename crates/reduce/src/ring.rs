//! The NCCL-style ring-allreduce baseline (§IV-B).
//!
//! On the Fire-Flyer node NCCL's ring is doubly handicapped:
//!
//! 1. **PCIe amplification** — each unit of gradient data makes `2n−1`
//!    hops around the ring, consuming `(2n−1)/n ≈ 2` units of every GPU's
//!    PCIe bandwidth (§IV-B1).
//! 2. **The Rome P2P ceiling** — node-boundary hops are GPUDirect
//!    transfers between a GPU and the NIC, capped at ≈9 GiB/s because EPYC
//!    Rome lacks chained writes (§IV-D2). This is the binding constraint
//!    that explains the observed ~4 GB/s.
//!
//! Two models: an analytic steady-state formula (used for the full Figure
//! 7a sweep) and a full DAG simulation of the reduce-scatter + allgather
//! schedule (used to validate the analytic model at small scale).

use crate::cluster::ClusterModel;
use ff_desim::{DagNodeId, DagSim, Route, SimDuration, Work};
use ff_hw::spec::{GPUS_PER_NODE, PCIE4_X16_BPS, ROME_P2P_BPS};
use ff_net::ServiceLevel;

/// Per-ring-step fixed overhead (kernel launch + protocol), calibrated so
/// the model reproduces NCCL's measured decline from ~4.8 GB/s at 16 GPUs
/// to ~1.6 GB/s at 1,440 GPUs in Figure 7a.
pub const RING_STEP_OVERHEAD_S: f64 = 28e-6;

/// Analytic ring-allreduce algorithm bandwidth for `gpus` GPUs moving
/// `bytes` per GPU (bytes/second).
pub fn ring_analytic_bw(gpus: usize, bytes: f64) -> f64 {
    assert!(gpus >= 2);
    let n = gpus as f64;
    // Steady-state bus bandwidth: the slowest link on the ring. Intra-node
    // hops run over PCIe but carry (2n-1)/n units per gradient unit; the
    // node-boundary hop is P2P-ceiling-bound.
    let pcie_eff = PCIE4_X16_BPS / ((2.0 * n - 1.0) / n);
    let busbw = if gpus > GPUS_PER_NODE {
        ROME_P2P_BPS.min(pcie_eff)
    } else {
        pcie_eff
    };
    // 2(n-1) steps of bytes/n each, plus fixed per-step overhead.
    let steps = 2.0 * (n - 1.0);
    let t = steps * (bytes / n / busbw + RING_STEP_OVERHEAD_S);
    bytes / t
}

/// Full DAG simulation of the ring allreduce (reduce-scatter + allgather)
/// on a cluster model. Feasible up to roughly 64 GPUs; each of the
/// `2(n−1)` steps creates `n` flows.
pub fn ring_simulate(cluster: &mut ClusterModel, bytes: f64) -> f64 {
    let n = cluster.gpus();
    assert!(n >= 2);
    let g_per = cluster.hw[0].gpus();
    let fluid = std::mem::take(&mut cluster.fluid);
    let mut dag = DagSim::new(fluid);
    let chunk = bytes / n as f64;
    // Ring order: node-major, GPUs in index order.
    let node_of = |rank: usize| rank / g_per;
    let gpu_of = |rank: usize| rank % g_per;
    // Rank r always sends to rank r+1, so each hop's route is built once.
    let routes: Vec<Route> = (0..n)
        .map(|r| {
            let dst = (r + 1) % n;
            let (nu, nv) = (node_of(r), node_of(dst));
            if nu == nv {
                cluster.hw[nu].gpu_p2p(gpu_of(r), gpu_of(dst))
            } else {
                let up = cluster.hw[nu].gpu_nic_send(gpu_of(r), 0);
                let net = cluster.net_route(nu, nv, ServiceLevel::Nccl);
                let down = cluster.hw[nv].nic_gpu_recv(0, gpu_of(dst));
                up.join(net).join(down)
            }
        })
        .collect();
    let steps = 2 * (n - 1);
    let mut prev_step: Vec<Option<DagNodeId>> = vec![None; n];
    for _s in 0..steps {
        let mut this_step: Vec<Option<DagNodeId>> = vec![None; n];
        for (r, route) in routes.iter().enumerate() {
            // Rank r's send at step s needs: its own previous send done
            // (serialized NIC/kernel) and the data it received at step s-1
            // from rank r-1.
            let mut deps = Vec::new();
            if let Some(p) = prev_step[r] {
                deps.push(p);
            }
            if let Some(p) = prev_step[(r + n - 1) % n] {
                deps.push(p);
            }
            // Per-step launch overhead.
            let gate = dag.add(
                Work::Delay(SimDuration::from_secs_f64(RING_STEP_OVERHEAD_S)),
                &deps,
            );
            let id = dag.add(
                Work::Transfer {
                    work: chunk,
                    route: route.clone(),
                },
                &[gate],
            );
            this_step[r] = Some(id);
        }
        prev_step = this_step;
    }
    let makespan = dag.run();
    cluster.fluid = dag.into_fluid();
    bytes / makespan.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterModel};

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn analytic_matches_paper_endpoints() {
        // Figure 7a: NCCL ≈ 4.8 GB/s at 16 GPUs, 1.6–2 GB/s at 1,440.
        let small = ring_analytic_bw(16, 186.0 * MIB);
        let large = ring_analytic_bw(1440, 186.0 * MIB);
        assert!(
            (4.0e9..6.0e9).contains(&small),
            "16-GPU bw {small} outside paper band"
        );
        assert!(
            (1.2e9..2.4e9).contains(&large),
            "1440-GPU bw {large} outside paper band"
        );
    }

    #[test]
    fn analytic_decreases_with_scale() {
        let mut prev = f64::INFINITY;
        for gpus in [16, 64, 256, 512, 1440] {
            let bw = ring_analytic_bw(gpus, 186.0 * MIB);
            assert!(bw < prev, "bw should fall with scale");
            prev = bw;
        }
    }

    #[test]
    fn single_node_ring_is_pcie_bound_not_p2p_bound() {
        let bw = ring_analytic_bw(8, 186.0 * MIB);
        // Intra-node only: no NIC boundary, so well above the 4.5 GB/s
        // inter-node regime.
        assert!(bw > 8e9, "bw {bw}");
    }

    #[test]
    fn simulation_agrees_with_analytic_at_small_scale() {
        let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer(2));
        let sim = ring_simulate(&mut cluster, 32.0 * MIB);
        let ana = ring_analytic_bw(16, 32.0 * MIB);
        let ratio = sim / ana;
        assert!(
            (0.4..2.5).contains(&ratio),
            "sim {sim} vs analytic {ana} (ratio {ratio})"
        );
    }

    #[test]
    fn hfreduce_beats_nccl_everywhere_in_figure7a() {
        // The paper's headline comparison: 6.3–8.1 vs 1.6–4.8 GB/s.
        use crate::model::{hfreduce_time, HfReduceOptions};
        let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer(4));
        let hf = hfreduce_time(&mut cluster, 64.0 * MIB, &HfReduceOptions::default());
        let nccl = ring_analytic_bw(32, 64.0 * MIB);
        assert!(
            hf.algbw_bps > nccl,
            "HFReduce {} must beat NCCL {}",
            hf.algbw_bps,
            nccl
        );
    }
}
