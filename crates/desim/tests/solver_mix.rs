//! The pure-solver event mix and its structural event count.
//!
//! The mix is wide fan-ins whose completion heap spans several shards,
//! plus seeded `scengen` schedules replayed serially and with parallel
//! dispatch forced on. Its event count is bit-deterministic, so it only
//! moves when the solver's structure does: a change that moves it is
//! re-pinned here deliberately, with the reason in CHANGES.md.
//! perfbench's `desim.mix_events_per_s` times a mix of the same kind.

use ff_desim::{FluidSim, Route, SimTime, SolverMode};
use ff_util::scengen::{GenConfig, ScenEvent, Scenario};

/// Run the whole mix; returns the structural events applied.
fn solver_mix() -> u64 {
    let mut events = 0u64;

    // Wide fan-in over >256 resources: the completion heap spans several
    // shards, so the deterministic cross-shard pop is on the hot path.
    for &(links, flows_per_link) in &[(96usize, 40usize), (384, 12)] {
        let mut sim = FluidSim::new();
        let sink = sim.add_resource("sink", 25e9);
        let lids: Vec<_> = (0..links)
            .map(|i| sim.add_resource(format!("l{i}"), 27e9))
            .collect();
        for round in 0..flows_per_link {
            for &l in &lids {
                sim.start_flow(1e6 * (1 + round % 3) as f64, &Route::unit([l, sink]));
            }
            while sim.advance_to_next_completion().is_some() {}
        }
        events += sim.solver_stats().events();
    }

    // Seeded adversarial schedules: serial incremental, then with parallel
    // dispatch forced on (threshold 0) so pool extraction and merge are
    // part of the mix.
    for (cfg, seeds, par) in [
        (GenConfig::dense(), 0x00B0_0000u64..0x00B0_0000 + 160, false),
        (GenConfig::wide(), 0x00B1_0000u64..0x00B1_0000 + 160, true),
    ] {
        for seed in seeds {
            let s = Scenario::generate(seed, &cfg);
            let mut sim = FluidSim::with_solver(SolverMode::Incremental);
            if par {
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
            for &(t_ns, ref ev) in &s.events {
                while let Some(tc) = sim.next_completion_time() {
                    if tc > SimTime(t_ns) {
                        break;
                    }
                    let (_, done) = sim.advance_to_next_completion().unwrap();
                    for id in done {
                        active.retain(|&f| f != id);
                    }
                }
                sim.advance_to(SimTime(t_ns));
                match ev {
                    ScenEvent::Start { route, work } => {
                        let hops: Vec<_> = route.iter().map(|&(r, w)| (rids[r], w)).collect();
                        active.push(sim.start_flow(*work, &Route::weighted(hops)));
                    }
                    ScenEvent::Degrade { resource, factor } => sim
                        .degrade(rids[*resource], *factor)
                        .expect("valid degrade"),
                    ScenEvent::Restore { resource } => {
                        sim.restore(rids[*resource]).expect("valid restore")
                    }
                    ScenEvent::SetRateCap { resource, cap } => sim
                        .set_rate_cap(rids[*resource], *cap)
                        .expect("valid rate cap"),
                    ScenEvent::Cancel { nth } => {
                        if !active.is_empty() {
                            let id = active.swap_remove(nth % active.len());
                            sim.cancel_flow(id);
                        }
                    }
                }
            }
            while sim.advance_to_next_completion().is_some() {}
            events += sim.solver_stats().events();
        }
    }
    events
}

#[test]
fn solver_mix_event_count_is_golden() {
    assert_eq!(solver_mix(), 37_950);
}
