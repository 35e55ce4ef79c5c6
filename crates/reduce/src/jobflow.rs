//! Fluid-traffic shapes for scheduled training jobs (§VI-C on §IV's
//! network).
//!
//! The event-driven scheduler models each placed job as a sequence of
//! training steps; a step's wall time *emerges* from the bandwidth its
//! flows get on the shared cluster model rather than being declared. This
//! module builds those flows' routes:
//!
//! * [`step_routes`] — one gradient-allreduce step over the job's nodes,
//!   as the directed ring the steady-state bandwidth analysis reduces to:
//!   node *i* streams to node *i+1* on the HFReduce lane, every edge
//!   carrying the classic `2(N−1)/N` of the gradient bytes. Nodes are
//!   ring-ordered by access leaf ([`ring_order`]) so a single-leaf job
//!   never touches the spine and a cross-zone job pays the inter-zone
//!   trunk exactly twice — contention between jobs, storage traffic and
//!   failures then shapes every step's duration. Routing is static, so
//!   the routes depend only on the node set: the scheduler builds them
//!   once per placement. A serving replica's tensor-parallel activation
//!   allreduce has the same ring shape and uses the same routes.
//! * [`ckpt_routes`] / [`restore_routes`] — the periodic checkpoint
//!   (§VII-A): each job node ships its shard of the checkpoint to (or
//!   back from) a storage node on the storage lane, so checkpoint cost
//!   rises with job size and competes with training traffic.

use crate::cluster::ClusterModel;
use ff_desim::Route;
use ff_net::ServiceLevel;

/// Bytes each directed ring edge carries when `n` nodes allreduce
/// `step_bytes` of gradients (reduce-scatter + allgather: `2(n−1)/n`).
/// A single node reduces locally and moves the bytes once.
pub fn ring_edge_bytes(n: usize, step_bytes: f64) -> f64 {
    if n <= 1 {
        step_bytes
    } else {
        step_bytes * 2.0 * (n as f64 - 1.0) / n as f64
    }
}

/// Order a job's nodes for ring construction: by access leaf, then index
/// (the same packing [`crate::model::leaf_grouped_order`] gives
/// whole-cluster collectives), so ring edges stay under one switch
/// wherever placement allows.
pub fn ring_order(cluster: &ClusterModel, nodes: &[usize]) -> Vec<usize> {
    let mut ring: Vec<usize> = nodes.to_vec();
    ring.sort_by_key(|&n| (cluster.topo.access_switch(cluster.hosts[n]), n));
    ring
}

/// The routes of one allreduce step over `nodes`: the directed ring's
/// edges on the HFReduce lane, receive side reducing. A single-node job
/// reduces in host memory instead (no network). Every returned route
/// should carry [`ring_edge_bytes`] of work.
pub fn step_routes(cluster: &ClusterModel, nodes: &[usize]) -> Vec<Route> {
    if nodes.len() <= 1 {
        let node = nodes.first().copied().unwrap_or(0);
        return vec![cluster.hw[node].cpu_reduce(cluster.hw[node].gpus())];
    }
    let ring = ring_order(cluster, nodes);
    (0..ring.len())
        .map(|i| {
            let src = ring[i];
            let dst = ring[(i + 1) % ring.len()];
            cluster.rdma_edge(src, dst, ServiceLevel::HfReduce, true)
        })
        .collect()
}

/// Bytes each ring edge carries for one decode iteration of a serving
/// replica: the per-layer activation allreduce of tensor parallelism,
/// `tp_bytes_per_token` for every sequence in the batch plus the prompt
/// tokens being prefilled this iteration. Same `2(n−1)/n` ring factor as
/// gradients — the traffic shape is identical, only the payload differs,
/// so a replica's routes are its [`step_routes`].
pub fn decode_edge_bytes(
    n: usize,
    tp_bytes_per_token: f64,
    batch: usize,
    prefill_tokens: u64,
) -> f64 {
    let payload = tp_bytes_per_token * (batch as u64 + prefill_tokens) as f64;
    ring_edge_bytes(n, payload)
}

/// Checkpoint-save routes: job node `nodes[i]` streams its shard to
/// `storage[i % storage.len()]` on the storage lane (plain RDMA write at
/// the destination). Each route carries `ckpt_bytes / nodes.len()`.
pub fn ckpt_routes(cluster: &ClusterModel, nodes: &[usize], storage: &[usize]) -> Vec<Route> {
    assert!(!storage.is_empty(), "checkpointing needs a storage node");
    nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            cluster.rdma_edge(n, storage[i % storage.len()], ServiceLevel::Storage, false)
        })
        .collect()
}

/// Checkpoint-restore routes: the save pattern reversed — each job node
/// reads its shard back from its storage node.
pub fn restore_routes(cluster: &ClusterModel, nodes: &[usize], storage: &[usize]) -> Vec<Route> {
    assert!(!storage.is_empty(), "restoring needs a storage node");
    nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            cluster.rdma_edge(storage[i % storage.len()], n, ServiceLevel::Storage, false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use std::collections::BTreeMap;

    #[test]
    fn ring_edge_bytes_matches_allreduce_theory() {
        assert_eq!(ring_edge_bytes(1, 1024.0), 1024.0);
        assert_eq!(ring_edge_bytes(2, 1024.0), 1024.0);
        assert!((ring_edge_bytes(4, 1024.0) - 1536.0).abs() < 1e-9);
    }

    #[test]
    fn step_routes_form_a_ring() {
        let c = ClusterModel::build(&ClusterConfig::fire_flyer(4));
        let routes = step_routes(&c, &[0, 2, 3]);
        assert_eq!(routes.len(), 3);
        for r in &routes {
            assert!(!r.0.is_empty(), "ring edge routes traverse resources");
        }
    }

    /// A serving replica decodes over its `step_routes`: a 2-node replica
    /// (the smallest) rings both directions, a 1-node one stays local.
    #[test]
    fn decode_routes_mirror_step_ring() {
        let c = ClusterModel::build(&ClusterConfig::fire_flyer(4));
        assert_eq!(step_routes(&c, &[0, 1]).len(), 2);
        assert_eq!(step_routes(&c, &[3]).len(), 1, "single node stays local");
        // Batch of 4 decoding one token each + 100 prompt tokens prefilled,
        // on a 2-node replica: payload moves once (2(n−1)/n = 1).
        assert!((decode_edge_bytes(2, 10.0, 4, 100) - 1040.0).abs() < 1e-9);
        assert!((decode_edge_bytes(4, 10.0, 4, 0) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_step_stays_local() {
        let c = ClusterModel::build(&ClusterConfig::fire_flyer(2));
        let routes = step_routes(&c, &[1]);
        assert_eq!(routes.len(), 1);
    }

    /// The whole-cluster formulation of `ring_order`, kept as its oracle:
    /// rank every node by `leaf_grouped_order`, then sort the job by rank.
    fn ring_order_by_cluster_rank(cluster: &ClusterModel, nodes: &[usize]) -> Vec<usize> {
        let order = crate::model::leaf_grouped_order(cluster);
        let mut pos = vec![usize::MAX; cluster.nodes()];
        for (p, &n) in order.iter().enumerate() {
            pos[n] = p;
        }
        let mut ring = nodes.to_vec();
        ring.sort_by_key(|&n| pos[n]);
        ring
    }

    /// `leaf_grouped_order`'s rank is monotone in `(leaf, index)`, so
    /// sorting only the job's nodes by that key gives the same ring. Held
    /// on single nodes, pairs, leaf-local subsets, subsets spanning every
    /// zone (both zones of the 1,250-node cluster) and whole clusters,
    /// each in a seeded shuffled input order.
    #[test]
    fn ring_order_matches_the_cluster_rank_order() {
        use ff_util::rng::ChaCha8Rng;
        let check = |c: &ClusterModel, nodes: &[usize], what: &str| {
            assert_eq!(
                ring_order(c, nodes),
                ring_order_by_cluster_rank(c, nodes),
                "{what}: {nodes:?}"
            );
        };
        let small = ClusterModel::build(&ClusterConfig::fire_flyer(64));
        let full = ClusterModel::build(&ClusterConfig::fire_flyer_full());
        for (c, zone_count) in [(&small, 1), (&full, 2)] {
            let n = c.nodes();
            let mut by_leaf: BTreeMap<_, Vec<usize>> = BTreeMap::new();
            for i in 0..n {
                by_leaf
                    .entry(c.topo.access_switch(c.hosts[i]))
                    .or_default()
                    .push(i);
            }
            let leaves: Vec<&Vec<usize>> = by_leaf.values().collect();
            assert!(leaves.len() > 1, "the property needs several leaves");
            let index_order: Vec<usize> = (0..n).collect();
            assert_ne!(
                ring_order(c, &index_order),
                index_order,
                "hosts attach round-robin, so leaf order is not index order"
            );
            let mut zones: BTreeMap<u8, Vec<usize>> = BTreeMap::new();
            for i in 0..n {
                zones.entry(c.zone_of(i)).or_default().push(i);
            }
            assert_eq!(zones.len(), zone_count);
            let mut all = index_order;
            for seed in 0..32u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                check(c, &[rng.gen_range(0..n)], "single node");
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                check(c, &[a, b], "two nodes");
                let mut leaf = leaves[rng.gen_range(0..leaves.len())].clone();
                rng.shuffle(&mut leaf);
                leaf.truncate(rng.gen_range(1..leaf.len() + 1));
                check(c, &leaf, "leaf-local");
                let mut span: Vec<usize> = Vec::new();
                for z in zones.values() {
                    let k = rng.gen_range(1..z.len().min(40) + 1);
                    span.extend((0..k).map(|_| z[rng.gen_range(0..z.len())]));
                }
                span.sort_unstable();
                span.dedup();
                rng.shuffle(&mut span);
                check(c, &span, "spanning every zone");
                rng.shuffle(&mut all);
                check(c, &all, "whole cluster");
            }
        }
    }

    #[test]
    fn ckpt_routes_shard_across_storage() {
        let c = ClusterModel::build(&ClusterConfig::fire_flyer(6));
        let save = ckpt_routes(&c, &[0, 1, 2, 3], &[4, 5]);
        let load = restore_routes(&c, &[0, 1, 2, 3], &[4, 5]);
        assert_eq!(save.len(), 4);
        assert_eq!(load.len(), 4);
    }
}
