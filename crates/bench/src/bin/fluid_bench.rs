//! The fluid-solver performance trajectory: `BENCH_fluid.json`.
//!
//! Measures the three workloads every PR is judged against and keeps the
//! numbers in a committed artifact, so speedups are tracked rather than
//! claimed:
//!
//! * **solver** — a deterministic pure-`FluidSim` mix (wide fan-ins that
//!   span several completion shards, plus seeded `scengen` schedules
//!   replayed serially and with parallel dispatch forced on). Its
//!   `events/sec` is the regression metric: structural event count is
//!   bit-deterministic, so the ratio only moves when the solver does.
//! * **fig7a-10k** — `hfreduce_steady` at the full 1,250-node cluster and
//!   186 MiB, the paper's Figure 7a end point (target: < 10 s).
//! * **hai_platform** — the §VI-C multi-tenant replay, one simulated hour
//!   on 1,250 nodes at 100× failure rates (target: < 60 s), with its
//!   byte-stable trace digest recorded as a determinism oracle.
//!
//! ```text
//! fluid_bench            # measure solver + fig7a + hai, print a table
//! fluid_bench --write    # same, then rewrite BENCH_fluid.json
//! fluid_bench --check    # fast CI smoke: solver workload only, fail if
//!                        # events/sec drops >20% vs BENCH_fluid.json
//! ```
//!
//! Wall-clocks are best-of-N (N=2 for the heavy workloads, 3 for the
//! solver mix) because CI boxes are noisy neighbors; event counts are
//! asserted identical across repeats, which doubles as a cheap
//! same-process determinism check.

use ff_bench::hai::HaiRun;
use ff_bench::{artifact_path, json_number};
use ff_desim::{FluidSim, Route, SolverMode};
use ff_reduce::cluster::ClusterConfig;
use ff_reduce::model::{hfreduce_steady, HfReduceOptions};
use ff_util::scengen::{GenConfig, ScenEvent, Scenario};
use std::time::Instant;

/// One deterministic pure-solver workload mix; returns structural events.
fn solver_workload() -> u64 {
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
    // dispatch forced on (threshold 0) so pool extraction/merge overhead is
    // part of the tracked number.
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
                    if tc > ff_desim::SimTime(t_ns) {
                        break;
                    }
                    let (_, done) = sim.advance_to_next_completion().unwrap();
                    for id in done {
                        active.retain(|&f| f != id);
                    }
                }
                sim.advance_to(ff_desim::SimTime(t_ns));
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

/// Best-of-`n` wall-clock of `f`, asserting its output is identical on
/// every repeat. Returns `(best_seconds, output)`.
fn best_of<T: PartialEq + std::fmt::Debug>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        if let Some(prev) = &out {
            assert_eq!(prev, &r, "benchmark workload is not deterministic");
        } else {
            out = Some(r);
        }
    }
    (best, out.expect("n >= 1"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");

    let (solver_wall, solver_events) = best_of(3, solver_workload);
    let eps = solver_events as f64 / solver_wall;
    println!(
        "solver mix: {solver_events} events in {solver_wall:.2}s = {:.0} events/sec",
        eps
    );

    if check {
        let committed = std::fs::read_to_string(artifact_path("BENCH_fluid.json"))
            .expect("--check requires a committed BENCH_fluid.json (run --write first)");
        let base =
            json_number(&committed, "events_per_sec").expect("BENCH_fluid.json has events_per_sec");
        let base_events =
            json_number(&committed, "solver_events").expect("has solver_events") as u64;
        assert_eq!(
            solver_events, base_events,
            "solver event count changed: structural behavior differs from the \
             committed baseline — regenerate BENCH_fluid.json with --write and \
             justify the change"
        );
        // Noisy-neighbor hosts swing identical binaries by tens of percent,
        // so a miss escalates: re-measure up to twice and pass on the best
        // round. Transient noise clears on retry; a real 20% regression
        // shifts every round down and still fails.
        let mut best_eps = eps;
        for round in 0..3 {
            let ratio = best_eps / base;
            println!("baseline {base:.0} events/sec; fresh/baseline = {ratio:.3}");
            if ratio >= 0.8 {
                println!("OK: within the 20% regression budget");
                return;
            }
            if round < 2 {
                println!("below budget — re-measuring (noisy host?)");
                let (wall, ev) = best_of(3, solver_workload);
                assert_eq!(ev, solver_events, "workload became nondeterministic");
                best_eps = best_eps.max(ev as f64 / wall);
            }
        }
        eprintln!("FAIL: events/sec regressed more than 20% vs committed baseline");
        std::process::exit(1);
    }

    let cfg7a = ClusterConfig::fire_flyer_full();
    let bytes = 186.0 * 1024.0 * 1024.0;
    let (fig7a_wall, fig7a_bw) = best_of(2, || {
        let r = hfreduce_steady(&cfg7a, bytes, &HfReduceOptions::default());
        (r.algbw_bps / 1e9 * 1000.0).round() as u64
    });
    println!(
        "fig7a-10k: {fig7a_wall:.2}s wall, {:.2} GB/s algbw",
        fig7a_bw as f64 / 1000.0
    );
    if quick {
        return;
    }

    let hai_cfg = HaiRun {
        seed: 7,
        failure_scale: 100.0,
        ..Default::default()
    };
    let (hai_wall, (hai_digest, hai_util)) = best_of(1, || {
        let rep = ff_bench::hai::run(&hai_cfg);
        (rep.digest.clone(), (rep.utilization * 1e4).round() as u64)
    });
    println!(
        "hai_platform: {hai_wall:.2}s wall, digest {hai_digest}, utilization {:.2}%",
        hai_util as f64 / 100.0
    );

    let json = format!(
        "{{\n  \"schema\": 1,\n  \"solver\": {{\n    \"solver_events\": {solver_events},\n    \
         \"wall_s\": {solver_wall:.3},\n    \"events_per_sec\": {eps:.0}\n  }},\n  \
         \"fig7a_10k\": {{\n    \"wall_s\": {fig7a_wall:.3},\n    \"algbw_gbps\": {:.3}\n  }},\n  \
         \"hai_platform\": {{\n    \"wall_s\": {hai_wall:.3},\n    \"utilization_pct\": {:.2},\n    \
         \"digest\": \"{hai_digest}\"\n  }}\n}}\n",
        fig7a_bw as f64 / 1000.0,
        hai_util as f64 / 100.0,
    );
    if write {
        std::fs::write(artifact_path("BENCH_fluid.json"), &json).expect("write BENCH_fluid.json");
        println!("wrote {}", artifact_path("BENCH_fluid.json").display());
    } else {
        print!("{json}");
    }
}
