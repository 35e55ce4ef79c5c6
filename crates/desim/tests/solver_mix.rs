//! The pure-solver event mix and its structural event count.
//!
//! The mix is wide fan-ins whose completion heap spans several shards,
//! plus seeded `scengen` schedules replayed serially and with parallel
//! dispatch forced on. Its event count is bit-deterministic, so it only
//! moves when the solver's structure does, and the component, empty
//! component, flow-solve and fill-round totals beside it move when the
//! solver's component partition does: a change that moves them is
//! re-pinned here deliberately, with the reason in CHANGES.md.
//! perfbench's `desim.mix_events_per_s` times a mix of the same kind.

use ff_desim::fluid::SolverStats;
use ff_desim::{FluidSim, Route, SimTime, SolverMode};
use ff_util::scengen::{GenConfig, ScenEvent, Scenario};

/// Thread-invariant totals of one mix: structural events, components,
/// empty components, flow solves and fill rounds.
#[derive(Debug, Default, PartialEq)]
struct MixTotals {
    events: u64,
    components: u64,
    empty_components: u64,
    flow_solves: u64,
    fill_rounds: u64,
}

impl MixTotals {
    fn add(&mut self, s: SolverStats) {
        self.events += s.events();
        self.components += s.components;
        self.empty_components += s.empty_components;
        self.flow_solves += s.flow_solves;
        self.fill_rounds += s.fill_rounds;
    }
}

/// Run the whole mix; returns its totals.
fn solver_mix() -> MixTotals {
    let mut totals = MixTotals::default();

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
        totals.add(sim.solver_stats());
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
            totals.add(sim.solver_stats());
        }
    }
    totals
}

#[test]
fn solver_mix_event_count_is_golden() {
    assert_eq!(
        solver_mix(),
        MixTotals {
            events: 37_950,
            components: 31_214,
            empty_components: 5_591,
            flow_solves: 455_511,
            fill_rounds: 145_306,
        }
    );
}
