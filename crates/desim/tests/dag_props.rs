//! Randomized property tests for the DAG executor (seeded, reproducible).

use ff_desim::{DagNodeId, DagSim, FluidSim, Route, SimDuration, SimTime, Work};
use ff_util::rng::ChaCha8Rng;

const CASES: usize = 64;

/// A random layered DAG: `layers × width` transfer nodes over a few
/// shared resources, each node depending on a random subset of the
/// previous layer.
#[derive(Debug, Clone)]
struct LayeredDag {
    capacities: Vec<f64>,
    /// work[layer][node] = (units, resource index, deps bitmask into the
    /// previous layer).
    work: Vec<Vec<(f64, usize, u32)>>,
}

fn layered_dag(rng: &mut ChaCha8Rng) -> LayeredDag {
    let capacities: Vec<f64> = (0..rng.gen_range(1usize..4))
        .map(|_| rng.gen_range(10.0f64..1000.0))
        .collect();
    let n_res = capacities.len();
    let work: Vec<Vec<(f64, usize, u32)>> = (0..rng.gen_range(1usize..5))
        .map(|_| {
            (0..rng.gen_range(1usize..5))
                .map(|_| {
                    (
                        rng.gen_range(1.0f64..100.0),
                        rng.gen_range(0..n_res),
                        rng.next_u32(),
                    )
                })
                .collect()
        })
        .collect();
    LayeredDag { capacities, work }
}

fn build(d: &LayeredDag) -> (DagSim, Vec<Vec<DagNodeId>>) {
    let mut fluid = FluidSim::new();
    let res: Vec<_> = d
        .capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| fluid.add_resource(format!("r{i}"), c))
        .collect();
    let mut dag = DagSim::new(fluid);
    let mut ids: Vec<Vec<DagNodeId>> = Vec::new();
    for (li, layer) in d.work.iter().enumerate() {
        let mut row = Vec::new();
        for &(units, ri, mask) in layer {
            let deps: Vec<DagNodeId> = if li == 0 {
                Vec::new()
            } else {
                ids[li - 1]
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| mask & (1 << (j % 32)) != 0)
                    .map(|(_, &id)| id)
                    .collect()
            };
            row.push(dag.add(
                Work::Transfer {
                    work: units,
                    route: Route::unit([res[ri]]),
                },
                &deps,
            ));
        }
        ids.push(row);
    }
    (dag, ids)
}

/// Every node runs; finish times respect dependencies; the makespan is
/// the max finish.
#[test]
fn dependencies_respected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA61);
    for _ in 0..CASES {
        let d = layered_dag(&mut rng);
        let (mut dag, ids) = build(&d);
        let makespan = dag.run();
        let mut max_finish = SimTime::ZERO;
        for (li, row) in ids.iter().enumerate() {
            for (&id, &(_, _, mask)) in row.iter().zip(&d.work[li]) {
                let start = dag.start_time(id).expect("ran");
                let finish = dag.finish_time(id).expect("finished");
                assert!(start <= finish);
                max_finish = max_finish.max(finish);
                if li > 0 {
                    for (j, &dep) in ids[li - 1].iter().enumerate() {
                        if mask & (1 << (j % 32)) != 0 {
                            assert!(
                                dag.finish_time(dep).expect("dep finished") <= start,
                                "node started before its dependency finished"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(makespan, max_finish);
    }
}

/// Lower bound: the makespan is at least each resource's total work
/// divided by its capacity (no overcommitment in time).
#[test]
fn makespan_respects_capacity_bound() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA62);
    for _ in 0..CASES {
        let d = layered_dag(&mut rng);
        let (mut dag, _) = build(&d);
        let makespan = dag.run().as_secs_f64();
        for (ri, &cap) in d.capacities.iter().enumerate() {
            let total: f64 = d
                .work
                .iter()
                .flatten()
                .filter(|&&(_, r, _)| r == ri)
                .map(|&(u, _, _)| u)
                .sum();
            assert!(
                makespan >= total / cap - 1e-6,
                "resource {ri}: {makespan} < {}",
                total / cap
            );
        }
    }
}

/// Determinism: the same DAG yields the same timeline.
#[test]
fn deterministic() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA63);
    for _ in 0..CASES {
        let d = layered_dag(&mut rng);
        let run = |d: &LayeredDag| {
            let (mut dag, ids) = build(d);
            dag.run();
            ids.iter()
                .flatten()
                .map(|&id| dag.finish_time(id).expect("finished"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&d), run(&d));
    }
}

/// Mixing delays with transfers keeps the clock monotone and the gate
/// semantics exact.
#[test]
fn delays_and_gates() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA64);
    for _ in 0..CASES {
        let ms: Vec<u64> = (0..rng.gen_range(1usize..8))
            .map(|_| rng.gen_range(1u64..1000))
            .collect();
        let mut dag = DagSim::new(FluidSim::new());
        let delays: Vec<DagNodeId> = ms
            .iter()
            .map(|&m| dag.add(Work::Delay(SimDuration::from_millis(m)), &[]))
            .collect();
        let gate = dag.add(Work::Gate, &delays);
        let makespan = dag.run();
        let max = *ms.iter().max().expect("non-empty");
        assert_eq!(makespan, SimTime(max * 1_000_000));
        assert_eq!(dag.finish_time(gate).expect("gate ran"), makespan);
    }
}

/// A random gate-heavy DAG: every layer mixes shared-link transfers with
/// gates, zero-length delays, zero-work transfers and short delays, and
/// each node depends on a random subset of the previous layer, so gate
/// cascades, same-instant flow starts and equal-timestamp completions
/// are all common.
fn gate_heavy_dag(rng: &mut ChaCha8Rng) -> (DagSim, Vec<DagNodeId>) {
    let mut fluid = FluidSim::new();
    let res: Vec<_> = (0..rng.gen_range(1usize..4))
        .map(|i| fluid.add_resource(format!("r{i}"), rng.gen_range(10.0f64..1000.0)))
        .collect();
    let mut dag = DagSim::new(fluid);
    let mut all = Vec::new();
    let mut prev: Vec<DagNodeId> = Vec::new();
    for _ in 0..rng.gen_range(2usize..8) {
        let row: Vec<DagNodeId> = (0..rng.gen_range(1usize..12))
            .map(|_| {
                let mask = rng.next_u32();
                let deps: Vec<DagNodeId> = prev
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| mask & (1 << (j % 32)) != 0)
                    .map(|(_, &id)| id)
                    .collect();
                let work = match rng.gen_range(0u32..6) {
                    0 | 1 => Work::Transfer {
                        work: rng.gen_range(1.0f64..100.0),
                        route: Route::unit([res[rng.gen_range(0..res.len())]]),
                    },
                    2 => Work::Gate,
                    3 => Work::Delay(SimDuration::ZERO),
                    4 => Work::Transfer {
                        work: 0.0,
                        route: Route::unit([res[0]]),
                    },
                    _ => Work::Delay(SimDuration::from_millis(rng.gen_range(1u64..50))),
                };
                dag.add(work, &deps)
            })
            .collect();
        all.extend_from_slice(&row);
        prev = row;
    }
    (dag, all)
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Golden timelines: every node's (start, finish) nanoseconds over the
/// seeded layered DAGs and gate-heavy DAGs, folded into one digest. It
/// moves only if some node's timing does; how often the solver runs
/// between events must not move it.
#[test]
fn timeline_digest_is_golden() {
    let mut words = Vec::new();
    let mut push = |dag: &DagSim, ids: &[DagNodeId]| {
        for &id in ids {
            words.push(dag.start_time(id).expect("ran").0);
            words.push(dag.finish_time(id).expect("finished").0);
        }
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA65);
    for _ in 0..CASES {
        let d = layered_dag(&mut rng);
        let (mut dag, ids) = build(&d);
        dag.run();
        push(&dag, &ids.concat());
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0xDA66);
    for _ in 0..CASES {
        let (mut dag, ids) = gate_heavy_dag(&mut rng);
        dag.run();
        push(&dag, &ids);
    }
    assert_eq!(format!("{:016x}", fnv1a(words)), "709bcbaec8317169");
}
