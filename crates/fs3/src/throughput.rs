//! The §VI-B2 aggregate-throughput experiment on the network simulator.
//!
//! "With totally 360 × 200 Gbps outbound InfiniBand HCAs, the system can
//! total provide 9 TB/s outbound bandwidth, and we actually achieved total
//! read throughput of 8 TB/s." Storage nodes are dual-homed across the two
//! fat-tree zones; clients read with the request-to-send control (a grant
//! round-trip before every transfer, bounded concurrency per client).

use ff_desim::{next_due, Due, EventQueue, FlowId, FluidSim, ResourceId, SimDuration, SimTime};
use ff_hw::StorageNodeSpec;
use ff_net::{NetResources, RtsController, ServiceLevel, VlConfig};
use ff_topo::fattree::{TwoZoneNetwork, TwoZoneSpec};
use ff_topo::routing::{RoutePolicy, Router};
use std::collections::HashMap;

/// Parameters of the throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Storage nodes (each dual-homed, 2 NICs).
    pub storage_nodes: usize,
    /// Reading clients (compute nodes, 1 NIC each).
    pub clients: usize,
    /// Read request size, bytes.
    pub request_bytes: f64,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// RTS concurrency limit per client.
    pub rts_limit: usize,
    /// RTS grant round-trip.
    pub rts_rtt: SimDuration,
}

impl ThroughputConfig {
    /// A laptop-scale run with the paper's shape (1:6.7 storage:client).
    pub fn scaled() -> Self {
        ThroughputConfig {
            storage_nodes: 18,
            clients: 120,
            request_bytes: 4.0 * 1024.0 * 1024.0,
            requests_per_client: 24,
            rts_limit: 8,
            rts_rtt: SimDuration::from_micros(10),
        }
    }
}

/// Results of the throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Aggregate delivered read bandwidth, bytes/second.
    pub achieved_bps: f64,
    /// Theoretical ceiling: storage NIC egress total.
    pub theoretical_bps: f64,
    /// achieved / theoretical.
    pub efficiency: f64,
}

/// Run the aggregate read-throughput experiment.
#[allow(clippy::needless_range_loop)] // client index is identity, not iteration artifact
pub fn run(cfg: &ThroughputConfig) -> ThroughputResult {
    let spec = StorageNodeSpec::paper();
    let net = TwoZoneNetwork::build(&TwoZoneSpec::scaled(
        cfg.clients.div_ceil(2),
        cfg.storage_nodes,
    ));
    let mut fluid = FluidSim::new();
    let resources = NetResources::install(&mut fluid, &net.topo, VlConfig::shared());
    // Each storage node's SSD array: aggregate read bandwidth resource.
    let ssd: Vec<ResourceId> = (0..cfg.storage_nodes)
        .map(|i| fluid.add_resource(format!("stor{i}/ssds"), spec.ssd_read_total()))
        .collect();
    let router = Router::new(&net.topo, RoutePolicy::StaticByDestination);

    let mut rts: Vec<RtsController<usize>> = (0..cfg.clients)
        .map(|_| RtsController::new(cfg.rts_limit))
        .collect();
    // Every request asks for a grant up front; the controller admits up to
    // the limit and queues the rest, handing grants over as transfers
    // finish. A grant reaches its client one round-trip later.
    let mut grants: EventQueue<usize> = EventQueue::new();
    for c in 0..cfg.clients {
        for r in 0..cfg.requests_per_client {
            if rts[c].request(r).is_some() {
                grants.schedule(SimTime::ZERO + cfg.rts_rtt, c);
            }
        }
    }
    let mut flows: HashMap<FlowId, usize> = HashMap::new(); // flow -> client
    let mut served: Vec<usize> = vec![0; cfg.clients];
    let mut makespan = SimTime::ZERO;
    let mut req_counter = 0u64;

    while let Some(due) = next_due(&mut grants, Some(&mut fluid), SimTime::MAX) {
        match due {
            Due::Timer(_, client) => {
                // Spread requests over storage nodes.
                req_counter += 1;
                let stor = (client as u64 * 31 + req_counter) as usize % cfg.storage_nodes;
                let src = net.storage[stor];
                let dst = net.compute[client % net.compute.len()];
                let path = router.route(src, dst, req_counter, &|_| 0.0);
                let mut route = resources.path_route(&net.topo, src, &path, ServiceLevel::Storage);
                route.push(ssd[stor], 1.0);
                let f = fluid.start_flow(cfg.request_bytes, &route);
                flows.insert(f, client);
            }
            Due::Flows(t, done) => {
                makespan = t;
                for f in done {
                    let client = flows.remove(&f).expect("tracked");
                    served[client] += 1;
                    if rts[client].complete().is_some() {
                        grants.schedule(t + cfg.rts_rtt, client);
                    }
                }
            }
        }
    }
    let total_requests: usize = served.iter().sum();
    let bytes = total_requests as f64 * cfg.request_bytes;
    let achieved = bytes / makespan.as_secs_f64().max(1e-12);
    let theoretical = cfg.storage_nodes as f64 * spec.outbound_bw();
    ThroughputResult {
        achieved_bps: achieved,
        theoretical_bps: theoretical,
        efficiency: achieved / theoretical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_run_reaches_most_of_theoretical() {
        // Paper: 8 TB/s of a 9 TB/s ceiling ≈ 89%. The scaled run should
        // land in the same efficiency regime.
        // Debug-build-friendly subset of the scaled preset.
        let r = run(&ThroughputConfig {
            storage_nodes: 8,
            clients: 56,
            requests_per_client: 10,
            ..ThroughputConfig::scaled()
        });
        assert!(
            r.efficiency > 0.70 && r.efficiency <= 1.0,
            "efficiency {} (achieved {:.2} GB/s of {:.2} GB/s)",
            r.efficiency,
            r.achieved_bps / 1e9,
            r.theoretical_bps / 1e9
        );
    }

    /// The `storage.efficiency_pct_9_nodes` run, pinned bit for bit.
    #[test]
    fn nine_node_run_keeps_its_bits() {
        let r = run(&ThroughputConfig {
            storage_nodes: 9,
            clients: 60,
            requests_per_client: 12,
            ..ThroughputConfig::scaled()
        });
        assert_eq!(r.achieved_bps.to_bits(), 0x4254ee07b60982ed);
    }

    #[test]
    fn throughput_scales_with_storage_nodes() {
        let small = run(&ThroughputConfig {
            storage_nodes: 3,
            clients: 20,
            requests_per_client: 8,
            ..ThroughputConfig::scaled()
        });
        let big = run(&ThroughputConfig {
            storage_nodes: 6,
            clients: 40,
            requests_per_client: 8,
            ..ThroughputConfig::scaled()
        });
        assert!(
            big.achieved_bps > small.achieved_bps * 1.5,
            "{} vs {}",
            big.achieved_bps,
            small.achieved_bps
        );
    }

    #[test]
    fn starved_clients_cap_throughput() {
        // Few clients: the client NICs (25 GB/s each) bound the system,
        // not the storage NICs.
        let r = run(&ThroughputConfig {
            storage_nodes: 12,
            clients: 6,
            requests_per_client: 12,
            ..ThroughputConfig::scaled()
        });
        let client_bound = 6.0 * 25e9;
        assert!(
            r.achieved_bps <= client_bound * 1.01,
            "{} > {}",
            r.achieved_bps,
            client_bound
        );
        assert!(r.efficiency < 0.6);
    }
}
