//! `sim_fig7a`: the pure simulator. The primary op is one
//! `hfreduce_steady` at the full 10,000-GPU cluster and 186 MiB (Figure
//! 7a's end point); the secondary op is one batch of 512 seeded `scengen`
//! schedules replayed straight on a `FluidSim`. No executable
//! communicator, no scheduler, no storage runs here — this is the bypass
//! workload for collective and platform changes.
//!
//! A simulator's result is exact, so the run is sized from `--seconds`
//! (one round per five seconds, at least two) rather than cut off by a
//! clock: every rep does the same work and must reproduce the same
//! simulated values.

use crate::stats::{median, time_us};
use crate::trace::Tracer;
use crate::workload::{push_layers, Episode, Layer, Outcome, RunCfg};
use ff_desim::{FluidSim, Route, SimTime, SolverMode};
use ff_net::ServiceLevel;
use ff_reduce::model::{hfreduce_steady, hfreduce_time, HfReduceOptions};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_topo::fattree::{attach_host, build_zone, FatTreeSpec, IB_200G};
use ff_topo::graph::{NodeKind, Topology};
use ff_topo::routing::{RoutePolicy, Router};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{GenConfig, ScenEvent, Scenario};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BYTES: f64 = 186.0 * 1024.0 * 1024.0;
/// Figure 7a's simulated end point, GB/s to three decimals.
const PINNED_ALGBW: &str = "7.928";
/// The set-up's reference point: the same allreduce on 128 nodes.
const REFERENCE_NODES: usize = 128;
const REFERENCE_ALGBW: &str = "8.848";

fn cluster_cfg(smoke: bool) -> ClusterConfig {
    if smoke {
        ClusterConfig::fire_flyer(16)
    } else {
        ClusterConfig::fire_flyer_full()
    }
}

/// Scenarios of each preset in one batch. A scenario's cost spreads over
/// a decade (p10 0.3 ms, p90 3.4 ms for the dense preset), so a batch
/// needs a few hundred of them before its cost stops depending on which
/// ones the seed drew.
fn batch_size(smoke: bool) -> u64 {
    if smoke {
        4
    } else {
        256
    }
}

/// The seeded solver mix: dense schedules replayed serially, wide ones
/// with parallel dispatch forced on, as `fluid_bench` tracks them.
struct Mix {
    scenarios: Vec<(Scenario, bool)>,
}

/// Time spent inside the two `FluidSim` driving calls, when asked for.
#[derive(Default)]
struct DriveCost {
    start_flow: Duration,
    starts: u64,
    advance: Duration,
    advances: u64,
}

impl Mix {
    fn generate(seed: u64, per_preset: u64) -> Mix {
        let mut scenarios = Vec::new();
        for (cfg, salt, par) in [
            (GenConfig::dense(), 0xD0u64, false),
            (GenConfig::wide(), 0xD1, true),
        ] {
            for i in 0..per_preset {
                let s = Scenario::generate(
                    seed.wrapping_mul(0x9E37).wrapping_add(salt << 32 | i),
                    &cfg,
                );
                scenarios.push((s, par));
            }
        }
        Mix { scenarios }
    }

    /// Replay every scenario once; returns the structural events applied.
    fn replay(&self, mut cost: Option<&mut DriveCost>) -> u64 {
        let mut events = 0;
        for (s, par) in &self.scenarios {
            let mut sim = FluidSim::with_solver(SolverMode::Incremental);
            if *par {
                sim.set_threads(4);
                sim.set_par_threshold(0);
            }
            let rids: Vec<_> = s
                .capacities
                .iter()
                .enumerate()
                .map(|(i, &c)| sim.add_resource(format!("r{i}"), c))
                .collect();
            let mut active = Vec::new();
            let advance = |sim: &mut FluidSim, cost: &mut Option<&mut DriveCost>| {
                let t0 = cost.is_some().then(Instant::now);
                let done = sim.advance_to_next_completion();
                if let (Some(c), Some(t0)) = (cost.as_deref_mut(), t0) {
                    c.advance += t0.elapsed();
                    c.advances += 1;
                }
                done
            };
            for &(t_ns, ref ev) in &s.events {
                while sim
                    .next_completion_time()
                    .is_some_and(|tc| tc <= SimTime(t_ns))
                {
                    let Some((_, done)) = advance(&mut sim, &mut cost) else {
                        break;
                    };
                    active.retain(|f| !done.contains(f));
                }
                sim.advance_to(SimTime(t_ns));
                match ev {
                    ScenEvent::Start { route, work } => {
                        let hops: Vec<_> = route.iter().map(|&(r, w)| (rids[r], w)).collect();
                        let route = Route::weighted(hops);
                        let t0 = cost.is_some().then(Instant::now);
                        active.push(sim.start_flow(*work, &route));
                        if let (Some(c), Some(t0)) = (cost.as_deref_mut(), t0) {
                            c.start_flow += t0.elapsed();
                            c.starts += 1;
                        }
                    }
                    ScenEvent::Degrade { resource, factor } => sim
                        .degrade(rids[*resource], *factor)
                        .expect("generated degrade is valid"),
                    ScenEvent::Restore { resource } => sim
                        .restore(rids[*resource])
                        .expect("generated restore is valid"),
                    ScenEvent::SetRateCap { resource, cap } => sim
                        .set_rate_cap(rids[*resource], *cap)
                        .expect("generated rate cap is valid"),
                    ScenEvent::Cancel { nth } => {
                        if !active.is_empty() {
                            let id = active.swap_remove(nth % active.len());
                            sim.cancel_flow(id);
                        }
                    }
                }
            }
            while advance(&mut sim, &mut cost).is_some() {}
            events += sim.solver_stats().events();
        }
        events
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let ccfg = cluster_cfg(cfg.smoke);
    let mut out = Outcome::default();
    // Set-up: generate the solver mix, build the cluster once to check its
    // shape (the timed reps build their own), and reproduce a second,
    // cheaper point of Figure 7a. Without the last a set-up is 30 ms of
    // mostly page faults, which drifts twice as far as compute does here.
    let opts = HfReduceOptions::default();
    let mut reference = String::new();
    let mix = out.set_up(|_| {
        let t0 = Instant::now();
        let mix = Mix::generate(cfg.seed, batch_size(cfg.smoke));
        let cluster = ClusterModel::build(&ccfg);
        assert_eq!(cluster.gpus(), cluster.nodes() * 8, "8 GPUs per node");
        assert_eq!(cluster.nodes(), ccfg.nodes);
        drop(cluster);
        let nodes = if cfg.smoke { 8 } else { REFERENCE_NODES };
        let small = hfreduce_steady(&ClusterConfig::fire_flyer(nodes), BYTES, &opts);
        reference = format!("{:.3}", small.algbw_bps / 1e9);
        (t0.elapsed().as_secs_f64(), mix)
    });
    if !cfg.smoke && reference != REFERENCE_ALGBW {
        eprintln!("sim_fig7a: {REFERENCE_NODES}-node reference {reference} GB/s, pinned {REFERENCE_ALGBW}");
        out.failed += 1;
    }

    let rounds = ((cfg.seconds / 5.0).round() as usize).max(2);
    let mut tr = Tracer::new(cfg.trace, Instant::now(), "sim");
    let mut cost = DriveCost::default();
    let mut mix_events = None;
    let mut mix_s = 0.0;
    let mut decomposed = None;
    let mut ep = Episode::default();
    let t_run = Instant::now();
    for round in 0..rounds {
        // Traced, the last rep goes through the public pieces
        // `hfreduce_steady` is made of, so each gets a span and the
        // solver's counters can be read off the cluster afterwards.
        let t0 = Instant::now();
        let algbw_bps = if cfg.trace && round + 1 == rounds {
            let d = decomposed_rep(&ccfg, &opts, &mut tr, round as u64);
            let bps = d.algbw_bps;
            decomposed = Some(d);
            bps
        } else {
            tr.scope("model.hfreduce_steady", round as u64, |_| {
                hfreduce_steady(&ccfg, BYTES, &opts).algbw_bps
            })
        };
        ep.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let pinned = cfg.smoke || format!("{:.3}", algbw_bps / 1e9) == PINNED_ALGBW;
        if !(pinned && algbw_bps.is_finite() && algbw_bps > 0.0) {
            out.failed += 1;
        }
        let t0 = Instant::now();
        let events = tr.scope("desim.mix_batch", round as u64, |tr| {
            mix.replay(tr.enabled().then_some(&mut cost))
        });
        let dt = t0.elapsed().as_secs_f64();
        ep.alt_us.push(dt * 1e6);
        mix_s += dt;
        // The same schedules must apply the same events every time.
        if *mix_events.get_or_insert(events) != events || events == 0 {
            out.failed += 1;
        }
    }
    ep.timed_s = t_run.elapsed().as_secs_f64();
    let whole_us = median(&mut ep.op_us[..rounds - 1].to_vec());
    out.episodes.push(ep);
    if !cfg.trace {
        return out;
    }

    let mut l = Vec::new();
    let events = mix_events.unwrap_or(0) * rounds as u64;
    push_layers(
        &mut l,
        &[
            (
                "desim.mix_events_per_s",
                events as f64 / mix_s,
                rounds as u64,
            ),
            (
                "desim.start_flow_us",
                cost.start_flow.as_secs_f64() * 1e6 / cost.starts.max(1) as f64,
                cost.starts,
            ),
            (
                "desim.advance_us",
                cost.advance.as_secs_f64() * 1e6 / cost.advances.max(1) as f64,
                cost.advances,
            ),
        ],
    );
    if let Some(d) = decomposed {
        d.layers(&mut l, whole_us);
    }
    topo_probes(&ccfg, cfg.seed, &mut l);
    out.layers = l;
    out.tracers = vec![tr];
    out
}

/// One `hfreduce_steady` spelled out: two builds, two `hfreduce_time`
/// runs at 3 and 6 chunks, and the same extrapolation.
struct Decomposed {
    algbw_bps: f64,
    build_s: [f64; 2],
    time_s: [f64; 2],
    stats: ff_desim::fluid::SolverStats,
    threads: usize,
}

fn decomposed_rep(
    ccfg: &ClusterConfig,
    opts: &HfReduceOptions,
    tr: &mut Tracer,
    op: u64,
) -> Decomposed {
    let span = tr.begin("model.hfreduce_steady/decomposed", op);
    let mut build_s = [0.0; 2];
    let mut time_s = [0.0; 2];
    let mut sim_s = [0.0; 2];
    let mut stats = ff_desim::fluid::SolverStats::default();
    let mut threads = 0;
    for (k, chunks) in [3usize, 6].into_iter().enumerate() {
        let t0 = Instant::now();
        let mut cluster = tr.scope("cluster.build", op, |_| ClusterModel::build(ccfg));
        build_s[k] = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let o = HfReduceOptions {
            chunks,
            ..opts.clone()
        };
        sim_s[k] = tr
            .scope("model.hfreduce_time", op, |_| {
                hfreduce_time(&mut cluster, BYTES, &o)
            })
            .seconds;
        time_s[k] = t0.elapsed().as_secs_f64();
        let s = cluster.fluid.solver_stats();
        stats.flow_starts += s.flow_starts;
        stats.cancels += s.cancels;
        stats.completions += s.completions;
        stats.recomputes += s.recomputes;
        stats.components += s.components;
        stats.flow_solves += s.flow_solves;
        stats.fill_rounds += s.fill_rounds;
        stats.parallel_batches += s.parallel_batches;
        threads = match cluster.fluid.threads() {
            0 => ff_util::par::default_threads(),
            n => n,
        };
    }
    tr.end(span);
    // T(c) = A/c + B, evaluated at the production chunk count.
    let target = (BYTES / ff_reduce::model::TARGET_CHUNK_BYTES).ceil();
    let a = (sim_s[0] - sim_s[1]) / (1.0 / 3.0 - 1.0 / 6.0);
    let b = (sim_s[0] - a / 3.0).max(1e-12);
    let seconds = (a.max(0.0) / target + b).max(1e-12);
    Decomposed {
        algbw_bps: BYTES / seconds,
        build_s,
        time_s,
        stats,
        threads,
    }
}

impl Decomposed {
    fn layers(&self, l: &mut Vec<Layer>, whole_us: f64) {
        let s = &self.stats;
        let sim_s = self.time_s[0] + self.time_s[1];
        let total_s = sim_s + self.build_s[0] + self.build_s[1];
        let events = s.events();
        push_layers(
            l,
            &[
                ("reduce.model.fig7a_algbw_gbps", self.algbw_bps / 1e9, 1),
                ("reduce.model.hfreduce_time_c3_s", self.time_s[0], 1),
                ("reduce.model.hfreduce_time_c6_s", self.time_s[1], 1),
                (
                    "reduce.cluster.build_s",
                    (self.build_s[0] + self.build_s[1]) / 2.0,
                    2,
                ),
                ("desim.events", events as f64, 2),
                ("desim.recomputes", s.recomputes as f64, 2),
                ("desim.components", s.components as f64, 2),
                ("desim.flow_solves", s.flow_solves as f64, 2),
                ("desim.fill_rounds", s.fill_rounds as f64, 2),
                ("desim.parallel_batches", s.parallel_batches as f64, 2),
                (
                    "desim.us_per_event",
                    sim_s * 1e6 / events.max(1) as f64,
                    events,
                ),
                ("desim.threads", self.threads as f64, 1),
                // The spelled-out rep against the whole-call reps before it.
                (
                    "obs.trace_overhead_pct",
                    100.0 * (total_s * 1e6 / whole_us - 1.0),
                    1,
                ),
            ],
        );
    }
}

/// Direct timings of the topology layer under the cluster build.
fn topo_probes(ccfg: &ClusterConfig, seed: u64, l: &mut Vec<Layer>) {
    let t0 = Instant::now();
    let mut topo = Topology::new();
    let spec = FatTreeSpec {
        radix: 40,
        leaf_down: 20,
        leaves: 32,
        spines: 20,
        link_capacity: IB_200G,
    };
    let mut zones: Vec<_> = (0..2).map(|z| build_zone(&mut topo, &spec, z)).collect();
    for i in 0..ccfg.nodes {
        let z = i * 2 / ccfg.nodes.max(1);
        let h = topo.add_node(NodeKind::ComputeHost, format!("n{i}"), Some(z as u8));
        attach_host(&mut topo, &mut zones[z], h, IB_200G);
    }
    l.push(Layer::new(
        "topo.fattree_build_s",
        t0.elapsed().as_secs_f64(),
        1,
    ));
    black_box(&topo);

    let cluster = ClusterModel::build(ccfg);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7090);
    let n = cluster.nodes();
    let pairs: Vec<(usize, usize)> = (0..64)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let router = Router::new(&cluster.topo, RoutePolicy::StaticByDestination);
    let mut k = 0;
    let route_us = time_us(pairs.len(), || {
        let (a, b) = pairs[k % pairs.len()];
        k += 1;
        black_box(router.route(cluster.hosts[a], cluster.hosts[b], 0, &|_| 0.0));
    });
    l.push(Layer::new("topo.route_us", route_us, pairs.len() as u64));
    let mut k = 0;
    let net_route_us = time_us(pairs.len(), || {
        let (a, b) = pairs[k % pairs.len()];
        k += 1;
        black_box(cluster.net_route(a, b, ServiceLevel::HfReduce));
    });
    l.push(Layer::new(
        "reduce.cluster.net_route_us",
        net_route_us,
        pairs.len() as u64,
    ));
}

#[cfg(test)]
pub fn inputs_differ(seed_a: u64, seed_b: u64) -> bool {
    let first = |seed| Mix::generate(seed, 1).scenarios.swap_remove(0).0;
    let (a, b) = (first(seed_a), first(seed_b));
    a.capacities != b.capacities || a.events != b.events
}
