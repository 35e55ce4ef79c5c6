//! Canned congestion scenarios for the evaluation harness.
//!
//! * [`incast`] — the §VI-B3 situation: many storage services transmitting
//!   to one client. Receiver-side buffer pressure degrades goodput unless
//!   the request-to-send control limits concurrency.
//! * [`congestion_spread`] — the §VI-A2 observation: under incast-heavy
//!   storage traffic, adaptive routing drags congestion onto the links
//!   compute traffic is using, while static routing confines it.

use crate::build::NetResources;
use crate::lanes::{ServiceLevel, VlConfig};
use crate::rts::RtsController;
use ff_desim::{next_due, Due, EventQueue, FlowId, FluidSim, SimDuration, SimTime, Summary};
use ff_topo::fattree::{attach_host, build_zone, FatTreeSpec};
use ff_topo::graph::{NodeId, NodeKind, Topology};
use ff_topo::routing::{RoutePolicy, Router};
use std::collections::HashMap;

/// Parameters of the incast experiment.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Number of concurrent senders.
    pub senders: usize,
    /// Bytes each sender transfers.
    pub bytes: f64,
    /// Request-to-send concurrency limit (`None` = no control).
    pub rts_limit: Option<usize>,
    /// Round-trip time of the permission handshake.
    pub rts_rtt: SimDuration,
    /// Receiver can absorb this many concurrent flows before buffer
    /// pressure sets in.
    pub buffer_flows: usize,
    /// Goodput degradation per excess flow: effective capacity =
    /// `cap / (1 + degradation × excess)` (retransmits/PFC pauses).
    pub degradation: f64,
}

impl IncastConfig {
    /// A representative heavy incast: 64 senders of 8 MiB each.
    pub fn heavy(rts_limit: Option<usize>) -> Self {
        IncastConfig {
            senders: 64,
            bytes: 8.0 * 1024.0 * 1024.0,
            rts_limit,
            rts_rtt: SimDuration::from_micros(10),
            buffer_flows: 8,
            degradation: 0.15,
        }
    }

    /// The zone-scale version: every storage server of a full Fire-Flyer
    /// zone (180 per zone, §III) answering the same client at once.
    pub fn paper_scale(rts_limit: Option<usize>) -> Self {
        IncastConfig {
            senders: 180,
            bytes: 32.0 * 1024.0 * 1024.0,
            ..Self::heavy(rts_limit)
        }
    }
}

/// Outcome of the incast experiment.
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Per-transfer end-to-end latency (request at t=0 → last byte).
    pub latency: Summary,
    /// Total bytes delivered / makespan.
    pub goodput_bps: f64,
    /// Completion time of the last transfer.
    pub makespan_s: f64,
}

/// Run the incast scenario on a small fat-tree.
pub fn incast(cfg: &IncastConfig) -> IncastResult {
    // Topology: enough leaves for senders + 1 client on the small test
    // fabric; a full radix-40 paper zone once the population outgrows it
    // (the small spec's 4 spines run out of ports past 12 leaves).
    let hosts = cfg.senders + 1;
    let spec = if hosts <= 96 {
        FatTreeSpec::small(hosts.div_ceil(8).max(2), 4, 8)
    } else {
        let zone = FatTreeSpec::paper_zone();
        assert!(hosts <= zone.endpoints(), "{hosts} hosts exceed one zone");
        zone
    };
    let mut topo = Topology::new();
    let mut zone = build_zone(&mut topo, &spec, 0);
    let client = topo.add_node(NodeKind::ComputeHost, "client", Some(0));
    attach_host(&mut topo, &mut zone, client, spec.link_capacity);
    let senders: Vec<NodeId> = (0..cfg.senders)
        .map(|i| {
            let h = topo.add_node(NodeKind::StorageHost, format!("stor{i}"), Some(0));
            attach_host(&mut topo, &mut zone, h, spec.link_capacity);
            h
        })
        .collect();

    let mut fluid = FluidSim::new();
    let net = NetResources::install(&mut fluid, &topo, VlConfig::shared());
    let router = Router::new(&topo, RoutePolicy::StaticByDestination);

    // The client's ingress lane (last hop) is where buffer pressure bites.
    let client_leaf = topo.access_switch(client);
    let last_link = topo
        .neighbors(client)
        .iter()
        .find(|&&(n, _)| n == client_leaf)
        .map(|&(_, l)| l)
        .expect("client uplink");
    let ingress = net.link_resource(&topo, last_link, client_leaf, ServiceLevel::Storage);
    let line = spec.link_capacity;

    let mut rts = RtsController::new(cfg.rts_limit.unwrap_or(usize::MAX).min(cfg.senders.max(1)));
    let no_rts = cfg.rts_limit.is_none();

    // Each sender starts when its grant arrives (at once without control).
    let mut grants: EventQueue<usize> = EventQueue::new();
    let mut flows: HashMap<FlowId, usize> = HashMap::new();
    let mut latency = Summary::new();
    let mut concurrent = 0usize;

    let update_pressure = |fluid: &mut FluidSim, concurrent: usize| {
        let excess = concurrent.saturating_sub(cfg.buffer_flows) as f64;
        let eff = line / (1.0 + cfg.degradation * excess);
        fluid
            .set_rate_cap(ingress, eff.max(line * 1e-3))
            .expect("ingress cap stays positive");
    };

    // Issue initial requests at t=0.
    for i in 0..cfg.senders {
        if no_rts {
            grants.schedule(SimTime::ZERO, i);
        } else if rts.request(i).is_some() {
            grants.schedule(SimTime::ZERO + cfg.rts_rtt, i);
        }
    }

    let mut makespan = SimTime::ZERO;
    while let Some(due) = next_due(&mut grants, Some(&mut fluid), SimTime::MAX) {
        match due {
            Due::Timer(_, i) => {
                let path = router.route(senders[i], client, i as u64, &|_| 0.0);
                let route = net.path_route(&topo, senders[i], &path, ServiceLevel::Storage);
                let f = fluid.start_flow(cfg.bytes, &route);
                flows.insert(f, i);
                concurrent += 1;
            }
            Due::Flows(t, done) => {
                makespan = t;
                for f in done {
                    flows.remove(&f).expect("tracked flow");
                    concurrent -= 1;
                    latency.add(t.as_secs_f64());
                    if !no_rts {
                        if let Some(next) = rts.complete() {
                            grants.schedule(t + cfg.rts_rtt, next);
                        }
                    }
                }
            }
        }
        update_pressure(&mut fluid, concurrent);
    }
    let total_bytes = cfg.senders as f64 * cfg.bytes;
    IncastResult {
        latency,
        goodput_bps: total_bytes / makespan.as_secs_f64().max(1e-12),
        makespan_s: makespan.as_secs_f64(),
    }
}

/// Outcome of the congestion-spread experiment.
#[derive(Debug, Clone)]
pub struct SpreadResult {
    /// Achieved bandwidth of each long-running compute flow, bytes/s.
    pub compute_bw: Summary,
    /// Bandwidth of the slowest compute flow (the allreduce straggler).
    pub worst_compute_bw: f64,
    /// Fraction of leaf→spine links that carried storage traffic.
    pub links_touched_by_storage: f64,
}

/// Scale of the congestion-spread experiment: the fabric plus the host
/// populations attached to it.
#[derive(Debug, Clone, Copy)]
pub struct SpreadConfig {
    /// The leaf/spine fabric to build.
    pub spec: FatTreeSpec,
    /// Compute hosts, each running one long ring-neighbour flow.
    pub compute_hosts: usize,
    /// Storage hosts attached to the fabric (a couple act as hot servers).
    pub storage_hosts: usize,
    /// Concurrent storage flows per burst wave.
    pub storage_flows_per_wave: usize,
}

impl SpreadConfig {
    /// The original small fabric: 8 leaves × 4 spines, 32 compute + 16
    /// storage hosts. Cheap enough for debug-mode unit tests.
    pub fn small(storage_flows_per_wave: usize) -> Self {
        SpreadConfig {
            spec: FatTreeSpec::small(8, 4, 8),
            compute_hosts: 32,
            storage_hosts: 16,
            storage_flows_per_wave,
        }
    }

    /// One full Fire-Flyer zone (§III): a radix-40 leaf/spine fabric (40
    /// leaves × 20 spines, 800 down-ports) carrying 600 compute nodes and
    /// 180 storage servers — the scale at which the §VI-A2 congestion-spread
    /// observation was actually made. Hundreds of concurrent flows per
    /// recompute: only tractable with the incremental solver.
    pub fn paper_zone(storage_flows_per_wave: usize) -> Self {
        SpreadConfig {
            spec: FatTreeSpec::paper_zone(),
            compute_hosts: 600,
            storage_hosts: 180,
            storage_flows_per_wave,
        }
    }
}

/// Run the static-vs-adaptive routing comparison under storage incast on
/// the original small fabric ([`SpreadConfig::small`]).
pub fn congestion_spread(policy: RoutePolicy, storage_flows_per_wave: usize) -> SpreadResult {
    congestion_spread_with(policy, &SpreadConfig::small(storage_flows_per_wave))
}

/// Run the comparison at an arbitrary scale.
pub fn congestion_spread_with(policy: RoutePolicy, cfg: &SpreadConfig) -> SpreadResult {
    let spec = &cfg.spec;
    let mut topo = Topology::new();
    let mut zone = build_zone(&mut topo, spec, 0);
    let mut compute = Vec::new();
    for i in 0..cfg.compute_hosts {
        let h = topo.add_node(NodeKind::ComputeHost, format!("c{i}"), Some(0));
        attach_host(&mut topo, &mut zone, h, spec.link_capacity);
        compute.push(h);
    }
    let mut storage = Vec::new();
    for i in 0..cfg.storage_hosts {
        let h = topo.add_node(NodeKind::StorageHost, format!("s{i}"), Some(0));
        attach_host(&mut topo, &mut zone, h, spec.link_capacity);
        storage.push(h);
    }
    let mut fluid = FluidSim::new();
    let net = NetResources::install(&mut fluid, &topo, VlConfig::shared());
    let compute_router = Router::new(&topo, RoutePolicy::StaticByDestination);
    let storage_router = Router::new(&topo, policy);

    // Long-running compute flows: ring neighbours across leaves.
    let bytes = 1e9;
    let mut compute_flows: HashMap<FlowId, SimTime> = HashMap::new();
    for i in 0..compute.len() {
        let src = compute[i];
        let dst = compute[(i + 1) % compute.len()];
        let path = compute_router.route(src, dst, i as u64, &|_| 0.0);
        let route = net.path_route(&topo, src, &path, ServiceLevel::HfReduce);
        let f = fluid.start_flow(bytes, &route);
        compute_flows.insert(f, SimTime::ZERO);
    }

    // Storage burst waves: a couple of hot storage servers answer reads
    // from clients all over the fabric (the serve-side of incast), so
    // their leaf's uplinks are the contended resource and the *uplink
    // spine choice* — the routing policy — decides who they collide with.
    let mut storage_links: std::collections::HashSet<ff_topo::LinkId> =
        std::collections::HashSet::new();
    let mut storage_live: HashMap<FlowId, usize> = HashMap::new();
    let mut wave_key = 0u64;
    let start_wave = |fluid: &mut FluidSim,
                      storage_live: &mut HashMap<FlowId, usize>,
                      storage_links: &mut std::collections::HashSet<ff_topo::LinkId>,
                      wave_key: &mut u64| {
        for j in 0..cfg.storage_flows_per_wave {
            let src = storage[j % 2];
            let dst = compute[(*wave_key as usize + j * 7) % compute.len()];
            *wave_key += 1;
            let key = *wave_key;
            let path = match policy {
                RoutePolicy::Adaptive => {
                    // Rank candidates by live flow count on their lanes.
                    storage_router.route(src, dst, key, &|l| {
                        let link = topo.link(l);
                        let r = net.link_resource(&topo, l, link.a, ServiceLevel::Storage);
                        count_flows(fluid, r) as f64
                            + count_flows(
                                fluid,
                                net.link_resource(&topo, l, link.b, ServiceLevel::Storage),
                            ) as f64
                    })
                }
                _ => storage_router.route(src, dst, key, &|_| 0.0),
            };
            for &l in &path {
                let link = topo.link(l);
                if topo.kind(link.a).is_switch() && topo.kind(link.b).is_switch() {
                    storage_links.insert(l);
                }
            }
            let route = net.path_route(&topo, src, &path, ServiceLevel::Storage);
            let f = fluid.start_flow(64.0 * 1024.0 * 1024.0, &route);
            storage_live.insert(f, j);
        }
    };
    start_wave(
        &mut fluid,
        &mut storage_live,
        &mut storage_links,
        &mut wave_key,
    );

    let mut compute_bw = Summary::new();
    let mut worst = f64::INFINITY;
    while !compute_flows.is_empty() {
        let (t, done) = fluid.advance_to_next_completion().expect("flows active");
        let mut storage_done = 0;
        for f in done {
            if let Some(start) = compute_flows.remove(&f) {
                let bw = bytes / t.since(start).as_secs_f64().max(1e-12);
                compute_bw.add(bw);
                worst = worst.min(bw);
            } else if storage_live.remove(&f).is_some() {
                storage_done += 1;
            }
        }
        // Keep the incast pressure on while compute runs.
        if storage_done > 0
            && !compute_flows.is_empty()
            && storage_live.len() < cfg.storage_flows_per_wave
        {
            start_wave(
                &mut fluid,
                &mut storage_live,
                &mut storage_links,
                &mut wave_key,
            );
        }
    }
    // Count leaf→spine links: total = leaves × spines (one each way).
    let switch_links = spec.leaves * spec.spines;
    SpreadResult {
        compute_bw,
        worst_compute_bw: worst,
        links_touched_by_storage: storage_links.len() as f64 / switch_links as f64,
    }
}

fn count_flows(fluid: &FluidSim, r: ff_desim::ResourceId) -> usize {
    fluid.flows_through(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rts_restores_goodput_under_heavy_incast() {
        let without = incast(&IncastConfig::heavy(None));
        let with = incast(&IncastConfig::heavy(Some(8)));
        // 64 concurrent flows vs an 8-flow buffer: goodput collapses by
        // ~1/(1+0.15×56) ≈ 0.11 without control.
        assert!(
            with.goodput_bps > without.goodput_bps * 3.0,
            "with RTS {} vs without {}",
            with.goodput_bps,
            without.goodput_bps
        );
        // RTS goodput approaches line rate (25 GB/s minus handshake gaps).
        assert!(with.goodput_bps > 20e9, "{}", with.goodput_bps);
    }

    /// Goodput, makespan and mean latency of the heavy incast, with and
    /// without request-to-send, pinned bit for bit.
    #[test]
    fn heavy_incast_keeps_its_bits() {
        for (limit, bits) in [
            (
                None,
                [0x41e3d0bc585d9f4e, 0x3fc9d6a975ebd0af, 0x3fc9d6a975ebd0af],
            ),
            (
                Some(8),
                [0x4217325769d06a17, 0x3f961278d37b67aa, 0x3f88d4c7edead4a1],
            ),
        ] {
            let r = incast(&IncastConfig::heavy(limit));
            let got = [r.goodput_bps, r.makespan_s, r.latency.mean()].map(f64::to_bits);
            assert_eq!(got, bits, "rts_limit {limit:?}");
        }
    }

    #[test]
    fn rts_latency_tradeoff_is_visible() {
        // The paper: "request-to-send control increases end-to-end IO
        // latency" — early transfers wait for grants, but the tail (and
        // hence makespan) improves dramatically.
        let without = incast(&IncastConfig::heavy(None));
        let with = incast(&IncastConfig::heavy(Some(8)));
        assert!(with.latency.min() > without.latency.min() * 0.0);
        assert!(with.makespan_s < without.makespan_s);
        // First completions under RTS are slower than a hypothetical
        // uncongested single transfer (grant queue), i.e. latency > pure
        // transfer time for most requests.
        let pure = IncastConfig::heavy(None).bytes / 25e9;
        assert!(with.latency.mean() > pure);
    }

    #[test]
    fn adaptive_routing_hurts_the_compute_straggler() {
        // §VI-A2: "enabling adaptive routing would lead to more severe
        // congestion spread" — under a storage burst, adaptive moves the
        // flows onto whichever links are momentarily quiet, which are
        // exactly the links the compute traffic needs; the slowest
        // compute flow (the allreduce pace-setter) suffers.
        let st = congestion_spread(RoutePolicy::StaticByDestination, 12);
        let ad = congestion_spread(RoutePolicy::Adaptive, 12);
        assert!(
            ad.worst_compute_bw < st.worst_compute_bw,
            "adaptive straggler {} should be slower than static {}",
            ad.worst_compute_bw,
            st.worst_compute_bw
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "zone-scale fabric (780 hosts, 600+ concurrent flows): run with --release"
    )]
    fn paper_zone_spread_holds_at_full_scale() {
        let st = congestion_spread_with(
            RoutePolicy::StaticByDestination,
            &SpreadConfig::paper_zone(48),
        );
        let ad = congestion_spread_with(RoutePolicy::Adaptive, &SpreadConfig::paper_zone(48));
        assert_eq!(st.compute_bw.count(), 600);
        assert_eq!(ad.compute_bw.count(), 600);
        // The §VI-A2 effect survives at the scale it was reported at: the
        // compute straggler is slower under adaptive routing.
        assert!(
            ad.worst_compute_bw < st.worst_compute_bw,
            "adaptive straggler {} should be slower than static {}",
            ad.worst_compute_bw,
            st.worst_compute_bw
        );
    }

    #[test]
    fn incast_without_control_is_worse_for_everyone() {
        let r = incast(&IncastConfig {
            senders: 32,
            bytes: 4.0 * 1024.0 * 1024.0,
            rts_limit: None,
            rts_rtt: SimDuration::from_micros(10),
            buffer_flows: 4,
            degradation: 0.25,
        });
        // Effective capacity ≈ 25e9/(1+0.25×28) = 3.1e9.
        assert!(r.goodput_bps < 5e9, "{}", r.goodput_bps);
    }
}
