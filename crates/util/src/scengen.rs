//! Seeded random topology / flow-schedule generator.
//!
//! Produces small but adversarial fluid-simulation scenarios — a set of
//! resource capacities plus a timestamped schedule of flow starts,
//! degradations, restores, rate-cap changes and cancellations — entirely in
//! plain indices so the bottom-of-stack `ff-util` crate stays independent
//! of the simulator. The differential suite of the fluid engine's test
//! oracle (`desim/src/fluid/oracle.rs`) replays one scenario against
//! several solver implementations and demands they agree; anything else
//! replaying the same `(seed, config)` pair sees the exact same schedule.
//!
//! All numeric parameters are drawn from "nice" grids (capacities in
//! multiples of 25, weights in halves, integral work units, degrade
//! factors exactly representable in binary) so that a correct solver's
//! f64 arithmetic has the best possible chance of agreeing bit-for-bit
//! across algebraically equivalent implementations — differences the
//! suite then observes are real, not rounding noise.

use crate::rng::ChaCha8Rng;

/// Tuning knobs for [`Scenario::generate`]. The defaults give compact
/// scenarios (≤ 12 resources, ≤ 48 events) suitable for running thousands
/// of cases in a test.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Resources per scenario are drawn from `2..=max_resources`.
    pub max_resources: usize,
    /// Events per scenario are drawn from `4..=max_events`.
    pub max_events: usize,
    /// Route hops per flow are drawn from `1..=max_route_len` (duplicate
    /// resources allowed, exercising weight accumulation).
    pub max_route_len: usize,
    /// Maximum gap between consecutive event timestamps, in nanoseconds.
    pub max_gap_ns: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_resources: 12,
            max_events: 48,
            max_route_len: 4,
            max_gap_ns: 5_000_000,
        }
    }
}

impl GenConfig {
    /// Preset for thread-count determinism sweeps: many resources with
    /// short routes, so one recompute tends to find *several*
    /// simultaneously dirty connected components — the shape that
    /// actually exercises parallel dispatch and deterministic merge
    /// order. Long gaps let flows pile up across the topology before
    /// the next structural event forces a solve.
    pub fn wide() -> Self {
        GenConfig {
            max_resources: 32,
            max_events: 120,
            max_route_len: 3,
            max_gap_ns: 2_000_000,
        }
    }

    /// Preset for dense multi-resource components: longer routes over a
    /// mid-sized pool with tight event spacing, maximizing same-instant
    /// batches and flows whose routes overlap on several resources.
    pub fn dense() -> Self {
        GenConfig {
            max_resources: 24,
            max_events: 96,
            max_route_len: 6,
            max_gap_ns: 800_000,
        }
    }
}

/// One scheduled action against the simulated topology.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenEvent {
    /// Start a flow of `work` units over `route` (`(resource index,
    /// weight)` hops; duplicates accumulate weight).
    Start {
        /// Hops as `(resource index, weight)` pairs.
        route: Vec<(usize, f64)>,
        /// Units of work to move.
        work: f64,
    },
    /// Degrade a resource to `factor × capacity`.
    Degrade {
        /// Resource index.
        resource: usize,
        /// Health multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Lift any degradation on a resource.
    Restore {
        /// Resource index.
        resource: usize,
    },
    /// Impose a congestion-control ceiling on a resource's aggregate load.
    SetRateCap {
        /// Resource index.
        resource: usize,
        /// Ceiling in units/second.
        cap: f64,
    },
    /// Cancel the `nth % active` currently-active flow (no-op when no
    /// flows are active). The consumer tracks its own active list, ordered
    /// by start, completions removed, cancellations `swap_remove`d.
    Cancel {
        /// Selector into the consumer's active-flow list.
        nth: usize,
    },
}

/// A reproducible topology + flow schedule: capacities for a dense set of
/// resources and a time-ordered event list.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario was generated from.
    pub seed: u64,
    /// Capacity of resource `i` in units/second.
    pub capacities: Vec<f64>,
    /// `(timestamp ns, event)`, non-decreasing in time. Repeated
    /// timestamps are deliberate: they exercise same-instant batching.
    pub events: Vec<(u64, ScenEvent)>,
}

impl Scenario {
    /// Deterministically generate the scenario for `(seed, cfg)`.
    pub fn generate(seed: u64, cfg: &GenConfig) -> Scenario {
        const WEIGHTS: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0];
        const FACTORS: [f64; 4] = [0.25, 0.5, 0.625, 0.75];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n_res = rng.gen_range(2..cfg.max_resources + 1);
        let capacities: Vec<f64> = (0..n_res)
            .map(|_| 25.0 * rng.gen_range(1u64..41) as f64)
            .collect();
        let n_events = rng.gen_range(4..cfg.max_events + 1);
        let mut events = Vec::with_capacity(n_events);
        let mut t = 0u64;
        let mut starts = 0usize;
        for i in 0..n_events {
            // Same-instant bursts are common in real collectives (a wave of
            // chunk transfers) and stress completion batching: keep ~30% of
            // events at the previous timestamp.
            if i > 0 && !rng.gen_bool(0.3) {
                t += rng.gen_range(1..cfg.max_gap_ns);
            }
            let roll = rng.gen_range(0u32..100);
            let ev = if roll < 55 || starts == 0 {
                let len = rng.gen_range(1..cfg.max_route_len + 1);
                let route = (0..len)
                    .map(|_| {
                        let r = rng.gen_range(0..n_res);
                        (r, *rng.choose(&WEIGHTS).expect("WEIGHTS is non-empty"))
                    })
                    .collect();
                starts += 1;
                ScenEvent::Start {
                    route,
                    work: rng.gen_range(1u64..501) as f64,
                }
            } else if roll < 70 {
                ScenEvent::Degrade {
                    resource: rng.gen_range(0..n_res),
                    factor: *rng.choose(&FACTORS).expect("FACTORS is non-empty"),
                }
            } else if roll < 80 {
                ScenEvent::Restore {
                    resource: rng.gen_range(0..n_res),
                }
            } else if roll < 90 {
                ScenEvent::SetRateCap {
                    resource: rng.gen_range(0..n_res),
                    cap: 5.0 * rng.gen_range(1u64..61) as f64,
                }
            } else {
                ScenEvent::Cancel {
                    nth: rng.gen_range(0..64),
                }
            };
            events.push((t, ev));
        }
        Scenario {
            seed,
            capacities,
            events,
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop serving arrivals
// ---------------------------------------------------------------------------

/// Tuning knobs for [`ArrivalTrace::generate`]: an open-loop request
/// stream standing in for a large user population. The process is a
/// non-homogeneous Poisson arrival stream (generated by thinning a
/// homogeneous stream at the peak rate) whose intensity follows a
/// zero-mean piecewise-linear diurnal curve, multiplied during randomly
/// placed burst episodes. Open-loop means arrivals never wait for the
/// system: a slow server accumulates backlog instead of throttling the
/// generator, which is what makes latency SLOs meaningful.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Trace length in seconds.
    pub duration_s: f64,
    /// Time-averaged arrival rate in requests/second (the diurnal curve
    /// is zero-mean, so the day-long average equals this).
    pub base_qps: f64,
    /// Diurnal swing as a fraction of `base_qps` (0 disables; 0.4 means
    /// the midday peak runs 1.4× and the night trough 0.6×… down to
    /// `1 - amplitude` at the deepest point of the curve).
    pub diurnal_amplitude: f64,
    /// Period of the diurnal curve in seconds (86,400 for a real day;
    /// tests compress it so short traces still see the swing).
    pub diurnal_period_s: f64,
    /// Expected number of burst episodes over the trace (Poisson).
    pub burst_mean: f64,
    /// Rate multiplier while a burst is active (≥ 1).
    pub burst_multiplier: f64,
    /// Length of each burst episode in seconds.
    pub burst_duration_s: f64,
    /// Prompt length drawn uniformly from `[min, max]` tokens.
    pub prompt_tokens: (u32, u32),
    /// Output length drawn uniformly from `[min, max]` tokens.
    pub output_tokens: (u32, u32),
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            duration_s: 600.0,
            base_qps: 2.0,
            diurnal_amplitude: 0.4,
            diurnal_period_s: 86_400.0,
            burst_mean: 2.0,
            burst_multiplier: 3.0,
            burst_duration_s: 20.0,
            prompt_tokens: (32, 256),
            output_tokens: (16, 128),
        }
    }
}

/// One inference request of an [`ArrivalTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Dense index in the *generated* trace. Ids survive [`thin`]
    /// (`ArrivalTrace::thin`), so a thinned trace's requests keep the
    /// identities they had in the full trace — load-monotonicity tests
    /// compare the same request across load levels by this id.
    pub id: u64,
    /// Arrival time in nanoseconds from trace start.
    pub at_ns: u64,
    /// Prompt (prefill) length in tokens.
    pub prompt_tokens: u32,
    /// Output (decode) length in tokens.
    pub output_tokens: u32,
}

/// A reproducible open-loop request schedule: time-ordered arrivals with
/// per-request token counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// The seed the trace was generated from.
    pub seed: u64,
    /// Trace horizon in nanoseconds (arrivals all land strictly before).
    pub duration_ns: u64,
    /// Requests in non-decreasing `at_ns` order with dense ids.
    pub requests: Vec<Request>,
}

/// The zero-mean diurnal shape: midnight trough −1, morning shoulder
/// −0.2, midday peak +1, evening shoulder +0.2, back to −1. Piecewise
/// linear so evaluation is exact f64 arithmetic (no transcendentals in
/// the accept/reject test beyond the exponential gap draw).
const DIURNAL_SHAPE: [(f64, f64); 5] = [
    (0.0, -1.0),
    (0.25, -0.2),
    (0.5, 1.0),
    (0.75, 0.2),
    (1.0, -1.0),
];

fn diurnal(frac: f64) -> f64 {
    let f = frac.clamp(0.0, 1.0);
    for w in DIURNAL_SHAPE.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        if f <= x1 {
            return y0 + (y1 - y0) * (f - x0) / (x1 - x0);
        }
    }
    DIURNAL_SHAPE[4].1
}

/// Draw from Poisson(`mean`) by CDF inversion (exact for the small means
/// used for burst counts).
fn poisson(rng: &mut ChaCha8Rng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let u = rng.gen_f64();
    let mut cdf = 0.0;
    let mut p = (-mean).exp();
    for k in 0..1024usize {
        cdf += p;
        if u < cdf {
            return k;
        }
        p *= mean / (k + 1) as f64;
    }
    1024
}

impl ArrivalTrace {
    /// Deterministically generate the trace for `(seed, cfg)`. The same
    /// pair always yields the identical request list, byte for byte.
    pub fn generate(seed: u64, cfg: &ArrivalConfig) -> ArrivalTrace {
        assert!(cfg.duration_s > 0.0, "trace needs a positive duration");
        assert!(cfg.base_qps > 0.0, "trace needs a positive base rate");
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "diurnal amplitude must be in [0, 1)"
        );
        assert!(cfg.burst_multiplier >= 1.0, "bursts only add load");
        assert!(
            cfg.prompt_tokens.0 >= 1 && cfg.prompt_tokens.1 >= cfg.prompt_tokens.0,
            "prompt token range must be non-empty"
        );
        assert!(
            cfg.output_tokens.0 >= 1 && cfg.output_tokens.1 >= cfg.output_tokens.0,
            "output token range must be non-empty"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Burst episodes, clamped inside the trace so the expected extra
        // load is `(mult − 1) · mean · dur / duration`.
        let n_bursts = poisson(&mut rng, cfg.burst_mean);
        let free = (cfg.duration_s - cfg.burst_duration_s).max(0.0);
        let mut bursts: Vec<(f64, f64)> = (0..n_bursts)
            .map(|_| {
                let start = rng.gen_f64() * free;
                (start, start + cfg.burst_duration_s.min(cfg.duration_s))
            })
            .collect();
        bursts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

        let rate_at = |t: f64| {
            let frac = (t / cfg.diurnal_period_s).fract();
            let mut r = cfg.base_qps * (1.0 + cfg.diurnal_amplitude * diurnal(frac));
            if bursts.iter().any(|&(s, e)| t >= s && t < e) {
                r *= cfg.burst_multiplier;
            }
            r
        };
        let peak = cfg.base_qps * (1.0 + cfg.diurnal_amplitude) * cfg.burst_multiplier;

        let mut requests = Vec::new();
        let mut t = 0.0f64;
        let mut id = 0u64;
        loop {
            // Homogeneous gaps at the peak rate, thinned to the target
            // intensity: accept a candidate at `t` with prob rate(t)/peak.
            t += -(1.0 - rng.gen_f64()).ln() / peak;
            if t >= cfg.duration_s {
                break;
            }
            let keep = rng.gen_f64() * peak < rate_at(t);
            if keep {
                requests.push(Request {
                    id,
                    at_ns: (t * 1e9) as u64,
                    prompt_tokens: rng.gen_range(cfg.prompt_tokens.0..cfg.prompt_tokens.1 + 1),
                    output_tokens: rng.gen_range(cfg.output_tokens.0..cfg.output_tokens.1 + 1),
                });
                id += 1;
            }
        }
        ArrivalTrace {
            seed,
            duration_ns: (cfg.duration_s * 1e9) as u64,
            requests,
        }
    }

    /// Deterministically thin the trace to `keep / out_of` of its
    /// requests (those with `id % out_of < keep`), preserving ids and
    /// arrival times. A thinned trace is a strict subset of the original,
    /// which is what makes "more load can only hurt" testable request by
    /// request.
    pub fn thin(&self, keep: u64, out_of: u64) -> ArrivalTrace {
        assert!(out_of > 0 && keep <= out_of, "thin fraction must be ≤ 1");
        ArrivalTrace {
            seed: self.seed,
            duration_ns: self.duration_ns,
            requests: self
                .requests
                .iter()
                .filter(|r| r.id % out_of < keep)
                .copied()
                .collect(),
        }
    }

    /// Observed mean arrival rate in requests/second.
    pub fn mean_qps(&self) -> f64 {
        if self.duration_ns == 0 {
            0.0
        } else {
            self.requests.len() as f64 / (self.duration_ns as f64 / 1e9)
        }
    }

    /// Total decode tokens across all requests (the trace's work volume).
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_tokens as u64).sum()
    }
}

// ---------------------------------------------------------------------------
// Sweep grids
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Used to
/// derive independent per-cell seeds from `(base seed, cell index)` so
/// that neighbouring sweep cells never share RNG streams.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One axis of a [`SweepGrid`]: a name plus the values it sweeps over.
/// Values are plain f64 — the consumer interprets them (a checkpoint
/// interval axis casts to `u64`, a replication axis to `usize`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Axis name, carried into aggregate output for labeling.
    pub name: String,
    /// The swept values, in sweep order.
    pub values: Vec<f64>,
}

/// A cartesian sweep grid: the cross product of named axes, enumerated in
/// a fixed row-major order (the first axis varies slowest). Everything —
/// cell count, the coordinate of cell `i`, the per-cell seed — is a pure
/// function of `(axes, base seed)`, which is what lets a parallel sweep
/// promise bit-identical aggregates at any worker count: cells are
/// dispatched by index and merged by index, never by completion time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    /// The axes, slowest-varying first.
    pub axes: Vec<SweepAxis>,
}

impl SweepGrid {
    /// An empty grid (one cell with no coordinates).
    pub fn new() -> SweepGrid {
        SweepGrid { axes: Vec::new() }
    }

    /// Append an axis. Panics on an empty value list — a zero-length axis
    /// would silently collapse the whole grid to nothing.
    pub fn axis(mut self, name: impl Into<String>, values: &[f64]) -> SweepGrid {
        assert!(!values.is_empty(), "sweep axis needs at least one value");
        self.axes.push(SweepAxis {
            name: name.into(),
            values: values.to_vec(),
        });
        self
    }

    /// Number of cells: the product of axis lengths (1 for no axes).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// True when the grid has no axes at all.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The coordinate of cell `idx` (row-major: first axis slowest), one
    /// value per axis. Panics when `idx >= len()`.
    pub fn cell(&self, idx: usize) -> Vec<f64> {
        assert!(idx < self.len(), "cell {idx} out of range {}", self.len());
        let mut rem = idx;
        let mut coord = vec![0.0; self.axes.len()];
        for (k, ax) in self.axes.iter().enumerate().rev() {
            coord[k] = ax.values[rem % ax.values.len()];
            rem /= ax.values.len();
        }
        coord
    }

    /// Every cell coordinate, in index order.
    pub fn cells(&self) -> Vec<Vec<f64>> {
        (0..self.len()).map(|i| self.cell(i)).collect()
    }

    /// The RNG seed for cell `idx` under `base`: a SplitMix64 mix of the
    /// two, never 0 so downstream `seed_from_u64` users keep full-entropy
    /// streams.
    pub fn cell_seed(&self, base: u64, idx: usize) -> u64 {
        mix64(base ^ mix64(idx as u64 + 1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_enumerates_row_major() {
        let g = SweepGrid::new()
            .axis("a", &[1.0, 2.0])
            .axis("b", &[10.0, 20.0, 30.0]);
        assert_eq!(g.len(), 6);
        assert!(!g.is_empty());
        let cells = g.cells();
        assert_eq!(cells[0], vec![1.0, 10.0]);
        assert_eq!(cells[1], vec![1.0, 20.0]);
        assert_eq!(cells[2], vec![1.0, 30.0]);
        assert_eq!(cells[3], vec![2.0, 10.0]);
        assert_eq!(cells[5], vec![2.0, 30.0]);
        // Enumeration is a pure function: same grid, same cells.
        assert_eq!(cells, g.clone().cells());
    }

    #[test]
    fn sweep_grid_empty_has_one_cell() {
        let g = SweepGrid::new();
        assert_eq!(g.len(), 1);
        assert!(g.is_empty());
        assert_eq!(g.cell(0), Vec::<f64>::new());
    }

    #[test]
    fn sweep_cell_seeds_are_distinct_and_stable() {
        let g = SweepGrid::new().axis("x", &[0.0; 64]);
        let seeds: Vec<u64> = (0..64).map(|i| g.cell_seed(7, i)).collect();
        assert_eq!(
            seeds,
            (0..64).map(|i| g.cell_seed(7, i)).collect::<Vec<_>>()
        );
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 64, "cell seeds collided");
        assert!(seeds.iter().all(|&s| s != 0));
        // Different base seed, different streams.
        assert_ne!(g.cell_seed(7, 3), g.cell_seed(8, 3));
    }

    #[test]
    fn same_seed_same_scenario() {
        let cfg = GenConfig::default();
        let a = Scenario::generate(0xD1FF, &cfg);
        let b = Scenario::generate(0xD1FF, &cfg);
        assert_eq!(a.capacities, b.capacities);
        assert_eq!(a.events, b.events);
        let c = Scenario::generate(0xD200, &cfg);
        assert!(a.events != c.events || a.capacities != c.capacities);
    }

    #[test]
    fn scenarios_are_well_formed() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let s = Scenario::generate(seed, &cfg);
            assert!((2..=cfg.max_resources).contains(&s.capacities.len()));
            assert!((4..=cfg.max_events).contains(&s.events.len()));
            assert!(s.capacities.iter().all(|&c| c > 0.0));
            let mut starts = 0;
            let mut prev_t = 0;
            for (t, ev) in &s.events {
                assert!(*t >= prev_t, "timestamps must be non-decreasing");
                prev_t = *t;
                match ev {
                    ScenEvent::Start { route, work } => {
                        starts += 1;
                        assert!(!route.is_empty());
                        assert!(route
                            .iter()
                            .all(|&(r, w)| r < s.capacities.len() && w > 0.0));
                        assert!(*work > 0.0);
                    }
                    ScenEvent::Degrade { resource, factor } => {
                        assert!(*resource < s.capacities.len());
                        assert!(*factor > 0.0 && *factor <= 1.0);
                    }
                    ScenEvent::Restore { resource } => {
                        assert!(*resource < s.capacities.len())
                    }
                    ScenEvent::SetRateCap { resource, cap } => {
                        assert!(*resource < s.capacities.len());
                        assert!(*cap > 0.0);
                    }
                    ScenEvent::Cancel { .. } => {}
                }
            }
            assert!(starts > 0, "every scenario starts at least one flow");
        }
    }

    #[test]
    fn same_seed_same_arrival_trace() {
        let cfg = ArrivalConfig::default();
        let a = ArrivalTrace::generate(0xA221, &cfg);
        let b = ArrivalTrace::generate(0xA221, &cfg);
        assert_eq!(a, b, "same (seed, config) must give identical traces");
        let c = ArrivalTrace::generate(0xA222, &cfg);
        assert_ne!(a.requests, c.requests, "different seeds must diverge");
        // Ids are dense and arrivals time-ordered inside the horizon.
        for (i, r) in a.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.at_ns < a.duration_ns);
            if i > 0 {
                assert!(r.at_ns >= a.requests[i - 1].at_ns);
            }
        }
    }

    #[test]
    fn arrival_mean_rate_within_tolerance() {
        // Zero-mean diurnal curve + no bursts ⇒ the observed rate should
        // sit within a few σ of base_qps. N ≈ 10,000 ⇒ rel σ ≈ 1%.
        let cfg = ArrivalConfig {
            duration_s: 200.0,
            base_qps: 50.0,
            diurnal_amplitude: 0.4,
            diurnal_period_s: 200.0,
            burst_mean: 0.0,
            ..ArrivalConfig::default()
        };
        for seed in 0..8u64 {
            let t = ArrivalTrace::generate(0xB000 + seed, &cfg);
            let rel = (t.mean_qps() - cfg.base_qps).abs() / cfg.base_qps;
            assert!(rel < 0.05, "seed {seed}: mean {} vs base 50", t.mean_qps());
        }
    }

    #[test]
    fn burst_episodes_raise_mean_rate_by_expected_uplift() {
        // Expected uplift from bursts: (mult − 1) · mean · dur / duration.
        let cfg = ArrivalConfig {
            duration_s: 400.0,
            base_qps: 20.0,
            diurnal_amplitude: 0.0,
            burst_mean: 2.0,
            burst_multiplier: 3.0,
            burst_duration_s: 20.0,
            ..ArrivalConfig::default()
        };
        let expected = cfg.base_qps
            * (1.0
                + (cfg.burst_multiplier - 1.0) * cfg.burst_mean * cfg.burst_duration_s
                    / cfg.duration_s);
        let seeds = 48u64;
        let avg: f64 = (0..seeds)
            .map(|s| ArrivalTrace::generate(0xC000 + s, &cfg).mean_qps())
            .sum::<f64>()
            / seeds as f64;
        let rel = (avg - expected).abs() / expected;
        // Burst overlap and edge truncation bias the estimate slightly; a
        // 10% band still cleanly separates "bursts applied" (expected
        // 24 qps) from "bursts ignored" (20 qps).
        assert!(rel < 0.10, "avg qps {avg} vs expected {expected}");
    }

    #[test]
    fn thinning_is_a_deterministic_subset() {
        let cfg = ArrivalConfig {
            duration_s: 120.0,
            base_qps: 30.0,
            ..ArrivalConfig::default()
        };
        let full = ArrivalTrace::generate(0xD100, &cfg);
        let half = full.thin(1, 2);
        let quarter = full.thin(1, 4);
        // Subset chain: quarter ⊆ half ⊆ full, ids/times preserved.
        for r in &half.requests {
            assert_eq!(full.requests[r.id as usize], *r);
        }
        for r in &quarter.requests {
            assert!(half.requests.contains(r), "thin chain must nest");
        }
        assert!(half.requests.len() < full.requests.len());
        assert_eq!(full.thin(4, 4), full, "keep-all thin is identity");
        // Roughly the right fraction survives.
        let frac = half.requests.len() as f64 / full.requests.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "half-thin kept {frac}");
    }
}
