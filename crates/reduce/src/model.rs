//! Discrete-event performance model of HFReduce (Algorithm 1 + 2),
//! reproducing Figure 7.
//!
//! The DAG per pipeline chunk: 8 asynchronous D2H copies → CPU reduce-add
//! (9× memory traffic) → double-binary-tree allreduce over RDMA (each tree
//! carries half the chunk; receive-side reduce-adds) → broadcast back down
//! the trees → GDRCopy host-to-device fan-out. Chunks are pipelined: every
//! stage is chained on its own predecessor so stage *k* of chunk *c*
//! overlaps stage *k−1* of chunk *c+1*, exactly as Algorithm 1 describes.

use crate::cluster::ClusterModel;
use ff_desim::{DagNodeId, DagSim, Route, Work};
use ff_hw::TransferMethod;
use ff_net::ServiceLevel;
use ff_topo::dbtree::{DoubleBinaryTree, Tree};

/// Which HFReduce data path to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HfReduceVariant {
    /// The original path (§IV-A): all 8 GPUs D2H, CPU 8-way reduce.
    Standard,
    /// HFReduce with NVLink (§IV-C): paired GPUs pre-reduce over the
    /// bridge, halving PCIe/memory traffic; results return split across
    /// pairs with a final NVLink allgather.
    NvLink,
}

/// Tunables of the model.
#[derive(Debug, Clone)]
pub struct HfReduceOptions {
    /// Pipeline chunk count (Algorithm 1's `Chunk_Size` split).
    pub chunks: usize,
    /// Data path variant.
    pub variant: HfReduceVariant,
    /// Host-to-device strategy for the final fan-out.
    pub h2d: TransferMethod,
}

impl Default for HfReduceOptions {
    fn default() -> Self {
        HfReduceOptions {
            chunks: 4,
            variant: HfReduceVariant::Standard,
            h2d: TransferMethod::GdrCopy,
        }
    }
}

/// Result of one simulated allreduce.
#[derive(Debug, Clone)]
pub struct AllreduceReport {
    /// Wall time of the whole allreduce.
    pub seconds: f64,
    /// Algorithm bandwidth: gradient bytes / wall time (the y-axis of
    /// Figure 7).
    pub algbw_bps: f64,
    /// Gradient size per GPU, bytes.
    pub data_bytes: f64,
    /// GPUs participating.
    pub gpus: usize,
}

/// Simulate one HFReduce allreduce of `bytes` (gradient size per GPU)
/// across all nodes of `cluster`. Consumes the cluster's fluid state.
#[allow(clippy::needless_range_loop)] // indices are GPU/pair ids mirrored in chain state
pub fn hfreduce_time(
    cluster: &mut ClusterModel,
    bytes: f64,
    opts: &HfReduceOptions,
) -> AllreduceReport {
    let n = cluster.nodes();
    assert!(n >= 1);
    let gpus = cluster.gpus();
    let fluid = std::mem::take(&mut cluster.fluid);
    let mut dag = DagSim::new(fluid);
    let dt = DoubleBinaryTree::new(n);
    // Rank→node placement: group tree ranks by leaf switch (and therefore
    // by zone), the locality the HAI scheduler provides. The in-order
    // trees connect mostly nearby ranks, so most edges stay leaf-local
    // and only O(log n) cross a zone boundary.
    let rank_to_node = leaf_grouped_order(cluster);
    let chunks = opts.chunks.max(1);
    let chunk_bytes = bytes / chunks as f64;

    // Each tree edge's RDMA route, up and down, is the same for every
    // chunk: build it once.
    let tree_routes = [
        TreeRoutes::build(cluster, &dt.a, &rank_to_node),
        TreeRoutes::build(cluster, &dt.b, &rank_to_node),
    ];

    // Per-stage "previous chunk" chains, for pipelining order.
    let g_per = cluster.hw[0].gpus();
    let mut prev_d2h: Vec<Vec<Option<DagNodeId>>> = vec![vec![None; g_per]; n];
    let mut prev_reduce: Vec<Option<DagNodeId>> = vec![None; n];
    let mut prev_up: [Vec<Option<DagNodeId>>; 2] = [vec![None; n], vec![None; n]];
    let mut prev_down: [Vec<Option<DagNodeId>>; 2] = [vec![None; n], vec![None; n]];
    let mut prev_h2d: Vec<Vec<Option<DagNodeId>>> = vec![vec![None; g_per]; n];
    let mut prev_nvl: Vec<Vec<Option<DagNodeId>>> = vec![vec![None; g_per / 2]; n];

    for _c in 0..chunks {
        // ---- Intra-node phase ----
        let mut reduce_done: Vec<DagNodeId> = Vec::with_capacity(n);
        for v in 0..n {
            let hw = &cluster.hw[rank_to_node[v]];
            let mut d2h_ids = Vec::new();
            match opts.variant {
                HfReduceVariant::Standard => {
                    for g in 0..g_per {
                        let mut deps = Vec::new();
                        if let Some(p) = prev_d2h[v][g] {
                            deps.push(p);
                        }
                        let id = dag.add(
                            Work::Transfer {
                                work: chunk_bytes,
                                route: hw.d2h(g),
                            },
                            &deps,
                        );
                        prev_d2h[v][g] = Some(id);
                        d2h_ids.push(id);
                    }
                }
                HfReduceVariant::NvLink => {
                    // Pair pre-reduce over NVLink, then D2H from the even
                    // GPU of each pair only.
                    for pair in 0..g_per / 2 {
                        let (a, b) = (2 * pair, 2 * pair + 1);
                        let mut deps = Vec::new();
                        if let Some(p) = prev_nvl[v][pair] {
                            deps.push(p);
                        }
                        let nvl = dag.add(
                            Work::Transfer {
                                work: chunk_bytes,
                                route: hw.nvlink(b, a),
                            },
                            &deps,
                        );
                        prev_nvl[v][pair] = Some(nvl);
                        let mut deps = vec![nvl];
                        if let Some(p) = prev_d2h[v][a] {
                            deps.push(p);
                        }
                        let id = dag.add(
                            Work::Transfer {
                                work: chunk_bytes,
                                route: hw.d2h(a),
                            },
                            &deps,
                        );
                        prev_d2h[v][a] = Some(id);
                        d2h_ids.push(id);
                    }
                }
            }
            let fan_in = d2h_ids.len();
            let mut deps = d2h_ids;
            if let Some(p) = prev_reduce[v] {
                deps.push(p);
            }
            let red = dag.add(
                Work::Transfer {
                    work: chunk_bytes,
                    route: hw.cpu_reduce(fan_in),
                },
                &deps,
            );
            prev_reduce[v] = Some(red);
            reduce_done.push(red);
        }

        // ---- Inter-node double binary tree (each tree: half the chunk) ----
        let mut arrival_deps: Vec<Vec<DagNodeId>> = vec![Vec::new(); n];
        if n > 1 {
            for (ti, tree) in [&dt.a, &dt.b].into_iter().enumerate() {
                let half = chunk_bytes / 2.0;
                let (root_gate, downs) = build_tree_pass(
                    &mut dag,
                    tree,
                    &tree_routes[ti],
                    half,
                    &reduce_done,
                    &mut prev_up[ti],
                    &mut prev_down[ti],
                );
                for v in 0..n {
                    match downs[v] {
                        Some(d) => arrival_deps[v].push(d),
                        None => arrival_deps[v].push(root_gate), // the root
                    }
                }
            }
        } else {
            arrival_deps[0].push(reduce_done[0]);
        }

        // ---- Return to GPUs ----
        for v in 0..n {
            let hw = &cluster.hw[rank_to_node[v]];
            let arrive = dag.add(Work::Gate, &arrival_deps[v]);
            match opts.variant {
                HfReduceVariant::Standard => {
                    for g in 0..g_per {
                        let mut deps = vec![arrive];
                        if let Some(p) = prev_h2d[v][g] {
                            deps.push(p);
                        }
                        let id = dag.add(
                            Work::Transfer {
                                work: chunk_bytes,
                                route: hw.h2d(g, opts.h2d),
                            },
                            &deps,
                        );
                        prev_h2d[v][g] = Some(id);
                    }
                }
                HfReduceVariant::NvLink => {
                    // Each GPU receives half the chunk over PCIe, then the
                    // pair allgathers the halves over NVLink.
                    for pair in 0..g_per / 2 {
                        let (a, b) = (2 * pair, 2 * pair + 1);
                        let mut ids = Vec::new();
                        for g in [a, b] {
                            let mut deps = vec![arrive];
                            if let Some(p) = prev_h2d[v][g] {
                                deps.push(p);
                            }
                            let id = dag.add(
                                Work::Transfer {
                                    work: chunk_bytes / 2.0,
                                    route: hw.h2d(g, opts.h2d),
                                },
                                &deps,
                            );
                            prev_h2d[v][g] = Some(id);
                            ids.push(id);
                        }
                        // Allgather: both directions of the bridge at once.
                        dag.add(
                            Work::Transfer {
                                work: chunk_bytes / 2.0,
                                route: hw.nvlink(a, b),
                            },
                            &ids,
                        );
                        dag.add(
                            Work::Transfer {
                                work: chunk_bytes / 2.0,
                                route: hw.nvlink(b, a),
                            },
                            &ids,
                        );
                    }
                }
            }
        }
    }

    // Every node holds its own copy; free these before the run's peak.
    drop(tree_routes);
    let makespan = dag.run();
    cluster.fluid = dag.into_fluid();
    let seconds = makespan.as_secs_f64();
    AllreduceReport {
        seconds,
        algbw_bps: bytes / seconds,
        data_bytes: bytes,
        gpus,
    }
}

/// HFReduce's production chunk size: the pipeline streams ~4 MiB chunks,
/// so a 186 MiB gradient is ~47 chunks deep and the tree-depth fill cost
/// is fully amortized.
pub const TARGET_CHUNK_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// Steady-state HFReduce bandwidth with fill-cost extrapolation.
///
/// Simulating 47 pipeline chunks across 180 nodes is needlessly expensive:
/// with the transfer pipeline chained per stage, the makespan follows
/// `T(c) = A/c + B` in the chunk count `c` (fill shrinks as chunks shrink,
/// the steady phase is chunk-count invariant). Two cheap runs at small `c`
/// identify `A` and `B`; the report is evaluated at the production chunk
/// count `⌈bytes / 4 MiB⌉`. Builds fresh clusters from `cfg` for each run.
pub fn hfreduce_steady(
    cfg: &crate::cluster::ClusterConfig,
    bytes: f64,
    opts: &HfReduceOptions,
) -> AllreduceReport {
    let target_chunks = (bytes / TARGET_CHUNK_BYTES).ceil().max(1.0) as usize;
    let (c1, c2) = (3usize, 6usize);
    if target_chunks <= c2 {
        let mut cluster = ClusterModel::build(cfg);
        return hfreduce_time(
            &mut cluster,
            bytes,
            &HfReduceOptions {
                chunks: target_chunks,
                ..opts.clone()
            },
        );
    }
    let run = |c: usize| {
        let mut cluster = ClusterModel::build(cfg);
        hfreduce_time(
            &mut cluster,
            bytes,
            &HfReduceOptions {
                chunks: c,
                ..opts.clone()
            },
        )
    };
    let r1 = run(c1);
    let r2 = run(c2);
    // T = A/c + B.
    let a = (r1.seconds - r2.seconds) / (1.0 / c1 as f64 - 1.0 / c2 as f64);
    let b = (r1.seconds - a / c1 as f64).max(1e-12);
    let seconds = (a.max(0.0) / target_chunks as f64 + b).max(1e-12);
    AllreduceReport {
        seconds,
        algbw_bps: bytes / seconds,
        data_bytes: bytes,
        gpus: r1.gpus,
    }
}

/// Closed-form approximation of the simulated HFReduce bandwidth at 186
/// MiB (Figure 7a): ~9.5 GB/s at 16 GPUs settling to ~8.6 GB/s at scale,
/// where the root-port bidirectional ceiling binds. Used by the `ff-haiscale`
/// step-time models so they don't re-run the DAG simulation per point;
/// `hfreduce_analytic_matches_simulation` keeps it honest.
pub fn hfreduce_analytic_bw(gpus: usize) -> f64 {
    let nodes = (gpus as f64 / 8.0).max(1.0);
    8.6e9 + 0.9e9 * (2.0 / nodes).min(1.0)
}

/// Predicted algorithm bandwidth of the *executable* HFReduce run on a
/// single machine over a loopback fabric whose point-to-point constants
/// were measured by `ff_reduce::calibration` (an α–β
/// [`LinkParams`](ff_hw::LinkParams)).
///
/// On loopback every rank is a thread and all traffic shares one memory
/// subsystem, so the first-order model serializes the whole collective's
/// wire traffic through the measured link: a chunked double-binary-tree
/// allreduce over `n` nodes moves each tree's half-buffer up and down all
/// `n − 1` edges — `2·(n−1)·bytes` on the wire — in
/// `2·2·(n−1)·chunks` messages. Predicted algbw is
/// `bytes / (wire_bytes/β + msgs·α)`; perfbench's
/// `reduce.model.loopback_ratio` holds it against a measured loopback run.
pub fn hfreduce_loopback_algbw(
    nodes: usize,
    bytes: f64,
    chunks: usize,
    link: &ff_hw::LinkParams,
) -> f64 {
    assert!(nodes >= 1 && bytes > 0.0);
    if nodes == 1 {
        // No wire traffic: bounded only by the per-message floor of the
        // two local phases.
        return bytes / link.latency_s.max(1e-12);
    }
    let edges = (nodes - 1) as f64;
    let wire_bytes = 2.0 * edges * bytes;
    let msgs = 2.0 * 2.0 * edges * chunks.max(1) as f64;
    bytes / (wire_bytes / link.bps + msgs * link.latency_s)
}

/// Node indices ordered by access leaf (then node index): tree rank `i`
/// maps to `order[i]`, clustering tree-adjacent ranks on the same leaf.
pub fn leaf_grouped_order(cluster: &ClusterModel) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cluster.nodes()).collect();
    order.sort_by_key(|&i| {
        let leaf = cluster.topo.access_switch(cluster.hosts[i]);
        (leaf, i)
    });
    order
}

/// One tree's RDMA edge routes, indexed by tree rank: `up[v]` carries
/// rank `v`'s partial sum to its parent (reduce-add at the receiver) and
/// `down[v]` the broadcast from its parent (plain write). Both are `None`
/// for the root.
struct TreeRoutes {
    up: Vec<Option<Route>>,
    down: Vec<Option<Route>>,
}

impl TreeRoutes {
    fn build(cluster: &ClusterModel, tree: &Tree, rank_to_node: &[usize]) -> Self {
        let edges = |reduce_at_dst: bool| {
            (0..tree.len())
                .map(|v| {
                    let parent = rank_to_node[tree.parent[v]?];
                    let (src, dst) = if reduce_at_dst {
                        (rank_to_node[v], parent)
                    } else {
                        (parent, rank_to_node[v])
                    };
                    Some(cluster.rdma_edge(src, dst, ServiceLevel::HfReduce, reduce_at_dst))
                })
                .collect()
        };
        TreeRoutes {
            up: edges(true),
            down: edges(false),
        }
    }
}

/// Build one tree's reduce-up + broadcast-down for one chunk. Returns the
/// root-ready gate and, per node, the broadcast-arrival node (None for the
/// root itself).
fn build_tree_pass(
    dag: &mut DagSim,
    tree: &Tree,
    routes: &TreeRoutes,
    half_bytes: f64,
    reduce_done: &[DagNodeId],
    prev_up: &mut [Option<DagNodeId>],
    prev_down: &mut [Option<DagNodeId>],
) -> (DagNodeId, Vec<Option<DagNodeId>>) {
    let n = tree.len();
    // Reduce-up in post-order so children's up-edges exist before parents'.
    let mut up_edge: Vec<Option<DagNodeId>> = vec![None; n];
    for v in tree.post_order() {
        let Some(route) = &routes.up[v] else {
            continue; // root sends nothing up
        };
        let mut deps = vec![reduce_done[v]];
        for &c in &tree.children[v] {
            deps.push(up_edge[c].expect("post-order guarantees children first"));
        }
        if let Some(p) = prev_up[v] {
            deps.push(p);
        }
        let id = dag.add(
            Work::Transfer {
                work: half_bytes,
                route: route.clone(),
            },
            &deps,
        );
        up_edge[v] = Some(id);
        prev_up[v] = Some(id);
    }
    // Root ready once its children's up-edges (and its own reduce) land.
    let mut root_deps = vec![reduce_done[tree.root]];
    for &c in &tree.children[tree.root] {
        root_deps.push(up_edge[c].expect("root children reduced"));
    }
    let root_gate = dag.add(Work::Gate, &root_deps);

    // Broadcast down in pre-order (reverse post-order works: parents before
    // children).
    let order = tree.post_order();
    let mut down_edge: Vec<Option<DagNodeId>> = vec![None; n];
    for &v in order.iter().rev() {
        let (Some(parent), Some(route)) = (tree.parent[v], &routes.down[v]) else {
            continue;
        };
        let mut deps = vec![match tree.parent[parent] {
            None => root_gate,
            Some(_) => down_edge[parent].expect("pre-order guarantees parent first"),
        }];
        if let Some(p) = prev_down[v] {
            deps.push(p);
        }
        let id = dag.add(
            Work::Transfer {
                work: half_bytes,
                route: route.clone(),
            },
            &deps,
        );
        down_edge[v] = Some(id);
        prev_down[v] = Some(id);
    }
    (root_gate, down_edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    const MIB: f64 = 1024.0 * 1024.0;

    fn run(nodes: usize, bytes: f64, opts: &HfReduceOptions) -> AllreduceReport {
        let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer(nodes));
        hfreduce_time(&mut cluster, bytes, opts)
    }

    fn run_nvlink(nodes: usize, bytes: f64) -> AllreduceReport {
        let mut cluster = ClusterModel::build(&ClusterConfig::fire_flyer_nvlink(nodes));
        hfreduce_time(
            &mut cluster,
            bytes,
            &HfReduceOptions {
                variant: HfReduceVariant::NvLink,
                ..Default::default()
            },
        )
    }

    #[test]
    fn single_node_is_memory_and_pcie_bound() {
        let r = run(1, 186.0 * MIB, &HfReduceOptions::default());
        // No network: D2H (8 flows), reduce (9×), H2D. Should finish at
        // multi-GB/s algorithm bandwidth.
        assert!(r.algbw_bps > 5e9, "bw {}", r.algbw_bps);
        assert!(r.algbw_bps < 30e9, "bw {}", r.algbw_bps);
    }

    #[test]
    fn two_nodes_match_paper_band() {
        // Paper Figure 7a: 6.3–8.1 GB/s across scales at 186 MiB.
        let r = run(2, 186.0 * MIB, &HfReduceOptions::default());
        assert!(
            r.algbw_bps > 5.5e9 && r.algbw_bps < 9.5e9,
            "bw {} outside the paper band",
            r.algbw_bps
        );
    }

    #[test]
    fn bandwidth_is_roughly_scale_invariant() {
        // The defining property of the double tree: per-node traffic does
        // not grow with node count.
        let a = run(2, 64.0 * MIB, &HfReduceOptions::default());
        let b = run(8, 64.0 * MIB, &HfReduceOptions::default());
        assert!(
            b.algbw_bps > a.algbw_bps * 0.5,
            "8 nodes {} vs 2 nodes {}",
            b.algbw_bps,
            a.algbw_bps
        );
    }

    #[test]
    fn nvlink_variant_is_faster() {
        // Paper §IV-C: HFReduce-with-NVLink exceeds 10 GB/s where the
        // original is memory-bound near 8 GB/s.
        let std = run(2, 186.0 * MIB, &HfReduceOptions::default());
        let nvl = run_nvlink(2, 186.0 * MIB);
        assert!(
            nvl.algbw_bps > std.algbw_bps * 1.15,
            "nvlink {} vs std {}",
            nvl.algbw_bps,
            std.algbw_bps
        );
        assert!(nvl.algbw_bps > 10e9, "nvlink bw {}", nvl.algbw_bps);
    }

    #[test]
    fn more_chunks_pipeline_better_than_one() {
        let one = run(
            2,
            64.0 * MIB,
            &HfReduceOptions {
                chunks: 1,
                ..Default::default()
            },
        );
        let four = run(
            2,
            64.0 * MIB,
            &HfReduceOptions {
                chunks: 4,
                ..Default::default()
            },
        );
        assert!(
            four.seconds < one.seconds,
            "4 chunks {} vs 1 chunk {}",
            four.seconds,
            one.seconds
        );
    }

    #[test]
    fn memcpy_h2d_is_slower_than_gdrcopy() {
        let gdr = run(2, 64.0 * MIB, &HfReduceOptions::default());
        let mc = run(
            2,
            64.0 * MIB,
            &HfReduceOptions {
                h2d: TransferMethod::MemcpyAsync,
                ..Default::default()
            },
        );
        assert!(
            mc.seconds >= gdr.seconds * 0.999,
            "{} vs {}",
            mc.seconds,
            gdr.seconds
        );
    }

    #[test]
    fn hfreduce_analytic_matches_simulation() {
        for nodes in [2usize, 8] {
            let sim = hfreduce_steady(
                &ClusterConfig::fire_flyer(nodes),
                186.0 * MIB,
                &HfReduceOptions::default(),
            );
            let ana = hfreduce_analytic_bw(nodes * 8);
            let ratio = sim.algbw_bps / ana;
            assert!(
                (0.85..1.15).contains(&ratio),
                "nodes={nodes}: sim {} vs analytic {ana}",
                sim.algbw_bps
            );
        }
    }

    #[test]
    fn cross_zone_allreduce_completes() {
        let mut cluster = ClusterModel::build(&ClusterConfig {
            two_zone: true,
            ..ClusterConfig::fire_flyer(4)
        });
        let r = hfreduce_time(&mut cluster, 32.0 * MIB, &HfReduceOptions::default());
        assert!(r.algbw_bps > 1e9, "bw {}", r.algbw_bps);
    }
}
