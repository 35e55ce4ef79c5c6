//! Deterministic fork/join parallelism on scoped threads.
//!
//! The build environment has no access to crates.io, so this is the
//! workspace's std-only stand-in for `rayon`: a weighted map whose output
//! is a pure function of its input. Each call packs its items into lanes
//! by deterministic LPT (longest-processing-time) packing, which depends
//! only on the declared weights, never on runtime timing, runs the first
//! lane on the caller's thread and every other lane on a
//! [`std::thread::scope`] thread of its own, and places the results by
//! input index. No thread outlives the call, so a lane may itself call
//! [`map_weighted`].
//!
//! Callers that must produce bit-identical results at any thread count
//! (the fluid solver's component-parallel path) rely on exactly that
//! contract: each item is solved independently, and the caller merges the
//! index-ordered results serially.
//!
//! The default width is read once from `RAYON_NUM_THREADS` (honoring the
//! name the rest of the ecosystem uses), else
//! [`std::thread::available_parallelism`]. Individual calls choose their
//! width with the `width` argument, which is how the thread-count
//! determinism tests sweep 1/2/8 threads in one process.

use std::panic::resume_unwind;
use std::sync::OnceLock;

/// The configured default width: `RAYON_NUM_THREADS`, else the machine's
/// available parallelism, clamped to `1..=256`. Read once per process:
/// the fluid solver asks on every recompute, and the parallelism query
/// reads cgroup files each time.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, 256)
    })
}

/// Deterministic LPT (longest-processing-time) lane packing: item indexes
/// are visited heaviest-first (ties broken by ascending input index) and
/// each is appended to the currently lightest lane (lowest lane index on
/// ties), with every item counting at least 1 toward its lane's load.
///
/// The result is a pure function of `(weights, width)`: no clock, no
/// thread identity, no allocation order leaks in. [`map_weighted`]
/// relies on exactly that to keep its observable behaviour independent of
/// runtime timing; the fleet sweeper additionally relies on every index
/// appearing in exactly one lane.
///
/// `width == 0` yields no lanes (the caller maps inline instead).
pub fn lpt_pack(weights: &[u64], width: usize) -> Vec<Vec<usize>> {
    let n = weights.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); width];
    let mut lane_load = vec![0u64; width];
    for idx in order {
        let Some(lane) = (0..width).min_by_key(|&l| (lane_load[l], l)) else {
            break;
        };
        lane_load[lane] += weights[idx].max(1);
        lanes[lane].push(idx);
    }
    lanes
}

/// Apply `f` to every item and return the results in input order.
/// `width` caps how many lanes are used, clamped to
/// `1..=max(default_threads(), 8)` and to the item count: at least 8 lanes
/// are always allowed, so the thread-count determinism suites genuinely
/// oversubscribe a single-core box. Items are packed into lanes by
/// deterministic LPT on the declared weights ([`lpt_pack`]), so the lane
/// assignment, and therefore every observable of this call, is
/// independent of runtime timing. The first lane runs on the caller's
/// thread, every other lane on a scoped thread of its own.
///
/// With an effective width of 1 (or 0–1 items) the items are mapped
/// inline on the caller's thread: `width == 1` means *serial*. `width == 0`
/// is treated as 1.
///
/// A panic in any lane reaches the caller with that lane's own payload.
pub fn map_weighted<T: Send, R: Send>(items: Vec<(u64, T)>, width: usize, f: fn(T) -> R) -> Vec<R> {
    let n = items.len();
    let width = width.clamp(1, default_threads().max(8)).min(n);
    if width <= 1 {
        return items.into_iter().map(|(_, it)| f(it)).collect();
    }
    let weights: Vec<u64> = items.iter().map(|&(w, _)| w).collect();
    let mut slots: Vec<Option<T>> = items.into_iter().map(|(_, it)| Some(it)).collect();
    let mut batches = lpt_pack(&weights, width).into_iter().map(|lane| {
        lane.into_iter()
            .filter_map(|idx| Some((idx, slots[idx].take()?)))
            .collect::<Vec<_>>()
    });
    let run = |batch: Vec<(usize, T)>| -> Vec<(usize, R)> {
        batch.into_iter().map(|(idx, it)| (idx, f(it))).collect()
    };
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let first = batches.next().unwrap_or_default();
        let others: Vec<_> = batches.map(|b| s.spawn(move || run(b))).collect();
        let mut place = |done: Vec<(usize, R)>| {
            for (idx, r) in done {
                out[idx] = Some(r);
            }
        };
        place(run(first));
        for lane in others {
            match lane.join() {
                Ok(done) => place(done),
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn map_returns_results_in_input_order() {
        let items: Vec<(u64, u64)> = (0..97).map(|i| (i % 7 + 1, i)).collect();
        let out = map_weighted(items, 8, |x| x * 3);
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_runs_inline() {
        let out = map_weighted(vec![(1u64, 5usize), (1, 6)], 1, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<(u64, u32)> = Vec::new();
        assert!(map_weighted(empty, 4, |x| x).is_empty());
        assert_eq!(map_weighted(vec![(9, 41u32)], 4, |x| x + 1), vec![42]);
    }

    #[test]
    fn results_identical_across_widths() {
        let items = |n: u64| -> Vec<(u64, u64)> { (0..n).map(|i| (i * 31 % 13 + 1, i)).collect() };
        let golden = map_weighted(items(200), 1, |x| x.wrapping_mul(0x9E3779B97F4A7C15));
        for width in [2, 3, 8] {
            let got = map_weighted(items(200), width, |x| x.wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(got, golden, "width {width} diverged");
        }
    }

    #[test]
    fn lane_panic_is_propagated_not_hung() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_weighted(vec![(1u64, 0u32), (1, 1)], 2, |x| {
                assert!(x != 1, "boom");
                x
            })
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // The map must still work afterwards.
        assert_eq!(map_weighted(vec![(1u64, 1u32)], 2, |x| x + 1), vec![2]);
    }
}
