//! Direct unit/property coverage for the `ff_util::par` parallel map.
//!
//! The map is load-bearing for the component-parallel fluid solver
//! (PR 6) and now for the Monte-Carlo fleet sweeper: both promise
//! bit-identical results at any worker count, and that promise reduces to
//! two properties tested here — the LPT lane packing is a pure function
//! of the declared weights, and `map_weighted` returns results keyed by
//! input index no matter which lane computed them.

use ff_util::par::{default_threads, lpt_pack, map_weighted};
use ff_util::rng::ChaCha8Rng;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

// ---------------------------------------------------------------------------
// lpt_pack: the deterministic packing itself
// ---------------------------------------------------------------------------

/// Reference LPT: the documented algorithm, written independently.
fn lpt_reference(weights: &[u64], width: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    let mut lanes = vec![Vec::new(); width];
    let mut load = vec![0u64; width];
    for i in order {
        let mut best = 0;
        for l in 1..width {
            if load[l] < load[best] {
                best = l;
            }
        }
        lanes[best].push(i);
        load[best] += weights[i].max(1);
    }
    lanes
}

#[test]
fn lpt_matches_reference_on_seeded_inputs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x17A9);
    for case in 0..200 {
        let n = rng.gen_range(0..40usize);
        let width = rng.gen_range(1..9usize);
        let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50u64)).collect();
        assert_eq!(
            lpt_pack(&weights, width),
            lpt_reference(&weights, width),
            "case {case}: weights {weights:?} width {width}"
        );
    }
}

#[test]
fn lpt_packs_heaviest_first_lightest_lane() {
    // 4 items, 2 lanes: 9 → lane 0, 7 → lane 1, 5 → lane 1 (7+5=12 ≥ 9
    // only after), 3 → lane 0. Hand-computed.
    let lanes = lpt_pack(&[3, 9, 5, 7], 2);
    assert_eq!(lanes, vec![vec![1, 0], vec![3, 2]]);
}

#[test]
fn lpt_breaks_ties_by_input_index_and_lowest_lane() {
    // Equal weights: items visit in input order, lanes fill 0, 1, 0, 1…
    let lanes = lpt_pack(&[5, 5, 5, 5, 5], 2);
    assert_eq!(lanes, vec![vec![0, 2, 4], vec![1, 3]]);
}

#[test]
fn lpt_is_a_permutation_of_the_input() {
    let weights: Vec<u64> = (0..257).map(|i| (i * 37) % 19).collect();
    for width in [1, 2, 3, 7, 16] {
        let lanes = lpt_pack(&weights, width);
        assert_eq!(lanes.len(), width);
        let mut seen: Vec<usize> = lanes.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..weights.len()).collect::<Vec<_>>());
    }
}

#[test]
fn lpt_lane_loads_are_balanced() {
    // Classic LPT bound: no lane exceeds average load + max item weight.
    let weights: Vec<u64> = (1..200u64).map(|i| (i * i) % 97 + 1).collect();
    for width in [2usize, 4, 8] {
        let lanes = lpt_pack(&weights, width);
        let total: u64 = weights.iter().sum();
        let max_w = *weights.iter().max().unwrap();
        for lane in &lanes {
            let load: u64 = lane.iter().map(|&i| weights[i]).sum();
            assert!(
                load <= total / width as u64 + max_w,
                "lane load {load} breaks the LPT bound (total {total}, width {width})"
            );
        }
    }
}

#[test]
fn lpt_zero_width_and_empty_inputs() {
    assert!(lpt_pack(&[1, 2, 3], 0).is_empty());
    assert_eq!(lpt_pack(&[], 3), vec![Vec::<usize>::new(); 3]);
}

#[test]
fn lpt_zero_weights_still_advance_lanes() {
    // Zero-weight items count as 1, so they round-robin rather than all
    // landing on lane 0.
    let lanes = lpt_pack(&[0, 0, 0, 0], 2);
    assert_eq!(lanes, vec![vec![0, 2], vec![1, 3]]);
}

// ---------------------------------------------------------------------------
// map_weighted: the parallel primitive
// ---------------------------------------------------------------------------

#[test]
fn single_item_any_width() {
    for width in [0, 1, 2, 8, 1000] {
        assert_eq!(
            map_weighted(vec![(7u64, 21u64)], width, |x| x * 2),
            vec![42]
        );
    }
}

#[test]
fn items_far_exceeding_lanes() {
    // 5,000 items over at most 8 lanes: results must come back complete,
    // in input order, for every width.
    let items = || -> Vec<(u64, u64)> { (0..5000).map(|i| (i % 11, i)).collect() };
    let want: Vec<u64> = (0..5000).map(|i| i ^ (i << 7)).collect();
    for width in [2usize, 5, 8] {
        assert_eq!(map_weighted(items(), width, |x| x ^ (x << 7)), want);
    }
}

#[test]
fn zero_width_config_means_serial() {
    // A `width = 0` caller (e.g. a misconfigured thread knob) degrades to
    // inline serial mapping, not a hang or a panic.
    let out = map_weighted(vec![(1u64, 1u32), (1, 2), (1, 3)], 0, |x| x + 10);
    assert_eq!(out, vec![11, 12, 13]);
}

#[test]
fn one_thread_config_runs_inline_on_caller() {
    // width == 1 must not spawn a lane: the closure runs on
    // the calling thread (observable via thread name).
    let here = std::thread::current().id();
    let out = map_weighted(vec![(1u64, 0u8)], 1, |_| std::thread::current().id());
    assert_eq!(out, vec![here]);
}

#[test]
fn results_bitwise_identical_across_widths() {
    let items =
        |n: u64| -> Vec<(u64, f64)> { (0..n).map(|i| (i % 5 + 1, i as f64 * 0.1)).collect() };
    let golden = map_weighted(items(300), 1, |x| (x * 3.7).sin());
    for width in [2, 3, 4, 8] {
        let got = map_weighted(items(300), width, |x| (x * 3.7).sin());
        assert_eq!(golden.len(), got.len());
        for (a, b) in golden.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits(), "width {width} diverged");
        }
    }
}

#[test]
fn worker_panic_surfaces_as_error_not_hang() {
    // A panicking item must propagate a panic to the caller (not deadlock
    // waiting for a result that will never come)…
    let caught = catch_unwind(AssertUnwindSafe(|| {
        map_weighted((0..64u32).map(|i| (1u64, i)).collect(), 4, |x| {
            assert!(x != 33, "injected worker panic");
            x
        })
    }));
    assert!(caught.is_err(), "worker panic did not reach the caller");
    // …and the map must remain fully usable afterwards.
    let out = map_weighted((0..64u32).map(|i| (1u64, i)).collect(), 4, |x| x + 1);
    assert_eq!(out, (1..65u32).collect::<Vec<_>>());
}

#[test]
fn lanes_run_on_distinct_threads_up_to_the_cap() {
    // The determinism suites rely on genuinely oversubscribing a
    // single-core box: a width-8 call runs on 8 threads whatever the
    // machine's parallelism, and no call runs on more than
    // max(default_threads(), 8).
    fn threads_used(n: usize, width: usize) -> usize {
        let ids = map_weighted((0..n).map(|i| (1u64, i)).collect(), width, |_| {
            std::thread::current().id()
        });
        ids.into_iter().collect::<HashSet<_>>().len()
    }
    assert_eq!(threads_used(64, 8), 8);
    assert!(threads_used(5000, 1000) <= default_threads().max(8));
}

#[test]
fn nested_maps_do_not_deadlock() {
    // Every outer lane calls the map again, as a fleet sweep over
    // platforms with several solver threads does. Lanes that waited on a
    // shared, fully occupied set of workers would never finish.
    let width = default_threads().max(8);
    let outer: Vec<(u64, u64)> = (0..width as u64).map(|i| (1, i)).collect();
    let sums = map_weighted(outer, width, |i| {
        let inner: Vec<(u64, u64)> = (0..4).map(|j| (1, i * 4 + j)).collect();
        map_weighted(inner, 2, |x| x * x).into_iter().sum::<u64>()
    });
    let want: Vec<u64> = (0..width as u64)
        .map(|i| (0..4).map(|j| (i * 4 + j) * (i * 4 + j)).sum())
        .collect();
    assert_eq!(sums, want);
}
