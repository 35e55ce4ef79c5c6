//! Monte-Carlo fleet sweeper: the what-if capacity planner behind
//! `BENCH_fleet.json` (written by the `artifacts` main) and its
//! property/smoke suites.
//!
//! The paper reports one year of one cluster — a single sample from the
//! distribution of "a 1,250-node A100 fleet under our failure rates".
//! This module sweeps that distribution: a cartesian grid over failure
//! intensity (`FaultPlan` rate scale), checkpoint cadence, the
//! serving/training mix and the 3FS chain replication factor, where every
//! cell is a full seeded [`Platform`] replay in fluid mode. Cells run in
//! parallel on the std-only [`ff_util::par`] map; because cells are
//! dispatched by index and merged by index ([`par::map_weighted`]
//! returns results in input order), the aggregate is **bit-identical for
//! a given `(seed, grid)` at any worker count** — determinism is by
//! construction, and `bench/tests/fleet_props.rs` re-proves it every run.
//!
//! A cell compresses "a year of pain" into a short horizon: with the
//! failure processes scaled by `rate_scale`, a 1-hour replay at 256×
//! observes the same expected event count as ~10.7 days at the paper's
//! measured rates, and the axis carries the sweep from a failure-free
//! fleet up to ~6 weeks of exposure per hour at 1,024×. Training steps
//! are coarsened the same way — one ~31 s fused step stands for a batch
//! of real ~1 s steps — so a checkpoint every 10 steps is the paper's
//! §VII-A "5-minute interval" and the grid stays affordable at full
//! cluster scale.
//!
//! [`Platform`]: ff_platform::Platform

use crate::serving::submit_train_mix;
use ff_failures::{FailureGenerator, FaultPlan, GrayPlan, GrayRates};
use ff_hw::NodeSpec;
use ff_obs::Histogram;
use ff_platform::{DetectorConfig, PlatformConfig, ServingSpec};
use ff_reduce::{jobflow, ClusterConfig, ClusterModel};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{ArrivalConfig, ArrivalTrace, SweepGrid};
use ff_util::{fnv1a64, par};

/// Axis name: failure-rate multiplier over the paper's measured rates.
pub const AXIS_RATE: &str = "rate_scale";
/// Axis name: checkpoint interval in (fused) training steps.
pub const AXIS_CKPT: &str = "ckpt_steps";
/// Axis name: fraction of compute nodes pinned by the serving tier.
pub const AXIS_SHARE: &str = "serve_share";
/// Axis name: 3FS checkpoint-chain replication factor.
pub const AXIS_REPL: &str = "replication";
/// Axis name: gray-failure detector sensitivity in `(0, 1]`; `0`
/// (the default when the axis is absent) runs without a detector and
/// without gray injection, so every historical grid is untouched.
/// Cells with a positive sensitivity attach a
/// [`DetectorConfig::with_sensitivity`] detector *and* a seeded
/// [`GrayPlan`] whose per-kind rates scale with the cell's
/// `rate_scale`, so the axis prices the detection-latency ×
/// false-positive trade at fleet scale.
pub const AXIS_DETECT: &str = "detect_sens";

/// Fused training step payload: ~31 s per ring step at 200 Gb/s, so one
/// step stands for a batch of real ~1 s steps and `ckpt_steps = 10` is
/// the paper's 5-minute checkpoint interval.
pub const STEP_BYTES: f64 = 384.0 * (1u64 << 30) as f64;
/// Checkpoint payload per save (bytes).
pub const CKPT_BYTES: f64 = 64.0 * (1u64 << 30) as f64;
/// Offered serving load (requests/s), constant across the mix axis: the
/// planner asks what a *fixed* request stream costs at each provisioning
/// level, so `serve_share` moves capacity, not demand.
pub const FLEET_QPS: f64 = 2.0;
/// Storage-target failure process (events/year at 1× scale) — opt-in on
/// the generator, scaled by the rate axis like every other process.
pub const STORAGE_FAILS_PER_YEAR: f64 = 400.0;
/// Per-link capacity used to convert payloads into nominal step seconds
/// (one 200 Gb/s NIC direction).
pub const LINK_BPS: f64 = 25e9;
/// Reference ring width for the goodput normalization: the mean job size
/// of the standing mix (uniform 4..17).
pub const REF_RING_NODES: usize = 10;
/// Tensor-parallel group size of one serving replica.
pub const NODES_PER_REPLICA: usize = 2;

/// One sweep: a seeded grid over a fixed cluster and horizon.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Base seed; each cell derives its own via [`SweepGrid::cell_seed`].
    pub seed: u64,
    /// Cluster size in nodes (storage carved out as usual).
    pub nodes: usize,
    /// Simulated horizon per cell, seconds.
    pub horizon_s: u64,
    /// Worker lanes for the parallel sweep (`0`/`1` = serial). The
    /// aggregate is identical at any value — that is the whole point.
    pub workers: usize,
    /// The swept axes. Only the four `AXIS_*` names are legal; missing
    /// axes take defaults (no failures, ckpt 30, no serving, repl 2).
    pub grid: SweepGrid,
}

impl FleetConfig {
    /// The committed full-scale grid: 6 × 4 × 3 × 3 = 216 cells at 1,250
    /// nodes, one simulated hour each. `rate_scale` spans failure-free to
    /// ~6 weeks of failure exposure per hour; `ckpt_steps` spans the
    /// paper's 5-minute interval (10 × ~31 s) to effectively-never (270
    /// steps > the horizon).
    pub fn paper_grid() -> FleetConfig {
        FleetConfig {
            seed: 7,
            nodes: 1250,
            horizon_s: 3600,
            workers: par::default_threads(),
            grid: SweepGrid::new()
                .axis(AXIS_RATE, &[0.0, 4.0, 16.0, 64.0, 256.0, 1024.0])
                .axis(AXIS_CKPT, &[10.0, 30.0, 90.0, 270.0])
                .axis(AXIS_SHARE, &[0.0, 0.1, 0.25])
                .axis(AXIS_REPL, &[1.0, 2.0, 3.0]),
        }
    }

    /// A small-cluster grid for CI smokes and property tests: 24 cells at
    /// 32 nodes, 15 simulated minutes each.
    pub fn small_grid() -> FleetConfig {
        FleetConfig {
            seed: 7,
            nodes: 32,
            horizon_s: 900,
            workers: par::default_threads(),
            grid: SweepGrid::new()
                .axis(AXIS_RATE, &[0.0, 64.0, 512.0])
                .axis(AXIS_CKPT, &[5.0, 40.0])
                .axis(AXIS_SHARE, &[0.0, 0.25])
                .axis(AXIS_REPL, &[1.0, 2.0]),
        }
    }
}

/// One fully-specified cell: everything [`run_cell`] needs, by value, so
/// the sweep can ship it to a worker lane as plain `Send` data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Row-major cell index in the grid.
    pub index: usize,
    /// Derived per-cell seed (`SweepGrid::cell_seed`).
    pub seed: u64,
    /// Cluster size in nodes.
    pub nodes: usize,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Failure-rate multiplier (0 = no injections).
    pub rate_scale: f64,
    /// Checkpoint interval in fused steps.
    pub ckpt_steps: u64,
    /// Fraction of compute pinned by serving (0 = training only).
    pub serve_share: f64,
    /// 3FS chain replication factor.
    pub replication: usize,
    /// Detector sensitivity (0 = no detector, no gray injection).
    pub detect_sens: f64,
}

/// Expand a config into its cell specs, in row-major grid order.
///
/// Panics on an axis name outside the four `AXIS_*` constants — a typo'd
/// axis would silently sweep nothing.
pub fn cell_specs(cfg: &FleetConfig) -> Vec<CellSpec> {
    for a in &cfg.grid.axes {
        assert!(
            [AXIS_RATE, AXIS_CKPT, AXIS_SHARE, AXIS_REPL, AXIS_DETECT].contains(&a.name.as_str()),
            "unknown sweep axis {:?}",
            a.name
        );
    }
    let pos = |name: &str| cfg.grid.axes.iter().position(|a| a.name == name);
    let (pr, pc, ps, pp, pd) = (
        pos(AXIS_RATE),
        pos(AXIS_CKPT),
        pos(AXIS_SHARE),
        pos(AXIS_REPL),
        pos(AXIS_DETECT),
    );
    (0..cfg.grid.len())
        .map(|i| {
            let coord = cfg.grid.cell(i);
            let get = |p: Option<usize>, dflt: f64| p.map_or(dflt, |k| coord[k]);
            CellSpec {
                index: i,
                seed: cfg.grid.cell_seed(cfg.seed, i),
                nodes: cfg.nodes,
                horizon_s: cfg.horizon_s,
                rate_scale: get(pr, 0.0),
                ckpt_steps: get(pc, 30.0).max(1.0) as u64,
                serve_share: get(ps, 0.0),
                replication: get(pp, 2.0).max(1.0) as usize,
                detect_sens: get(pd, 0.0),
            }
        })
        .collect()
}

/// What one cell produced — the scenario's year-in-miniature outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The cell's grid index and coordinates, echoed back.
    pub index: usize,
    /// Failure-rate multiplier of this cell.
    pub rate_scale: f64,
    /// Checkpoint interval (steps) of this cell.
    pub ckpt_steps: u64,
    /// Serving share of this cell.
    pub serve_share: f64,
    /// Replication factor of this cell.
    pub replication: usize,
    /// Scheduler utilization over healthy node-time.
    pub utilization: f64,
    /// Training node-steps banked across the standing mix.
    pub banked_node_steps: u64,
    /// Banked node-steps as a fraction of the cluster's nominal fused-step
    /// capacity (`nodes × horizon / ref_step_s`) — the delivered-training
    /// index the what-if table ranks cells by.
    pub goodput: f64,
    /// Effective cost-performance: Table II's 1.38 advantage × delivered
    /// goodput. A cheap fleet that loses its discount to failures shows
    /// up here.
    pub cost_perf: f64,
    /// Node-steps rolled back past checkpoints (lost work).
    pub lost_node_steps: u64,
    /// Rollback → re-placement recovery cycles observed.
    pub recoveries: u64,
    /// p99 of recovery time (seconds; 0 when no recovery completed).
    pub recovery_p99_s: u64,
    /// Serving requests completed (0 when the cell serves nothing).
    pub serve_completed: u64,
    /// Serving completion p99, milliseconds.
    pub serve_p99_ms: f64,
    /// Completed requests that missed the SLO.
    pub slo_misses: u64,
    /// Node failures confirmed.
    pub failures: u64,
    /// Training preemptions.
    pub preemptions: u64,
    /// Detector sensitivity of this cell (0 = no detector ran).
    pub detect_sens: f64,
    /// Quarantines the gray-failure detector initiated.
    pub detector_quarantines: u64,
}

impl ScenarioOutcome {
    /// Canonical fixed-format line: the unit of the sweep digest and of
    /// the permutation-invariance property (a multiset of these lines
    /// identifies a sweep regardless of completion order). Detector
    /// fields are appended only when the cell ran a detector, so every
    /// pre-detector grid digests to its historical value.
    pub fn canonical(&self) -> String {
        let mut line = format!(
            "cell={:04} rate={:.1} ckpt={} share={:.2} repl={} util={:.6} \
             banked={} goodput={:.6} costperf={:.6} lost={} rec_n={} \
             rec_p99_s={} srv_done={} srv_p99_ms={:.3} slo_miss={} \
             fails={} preempt={}",
            self.index,
            self.rate_scale,
            self.ckpt_steps,
            self.serve_share,
            self.replication,
            self.utilization,
            self.banked_node_steps,
            self.goodput,
            self.cost_perf,
            self.lost_node_steps,
            self.recoveries,
            self.recovery_p99_s,
            self.serve_completed,
            self.serve_p99_ms,
            self.slo_misses,
            self.failures,
            self.preemptions
        );
        if self.detect_sens > 0.0 {
            line.push_str(&format!(
                " detect={:.2} det_q={}",
                self.detect_sens, self.detector_quarantines
            ));
        }
        line
    }
}

/// Nominal seconds per fused ring step for an `n`-node job.
fn nominal_step_s(n: usize) -> f64 {
    jobflow::ring_edge_bytes(n.max(2), STEP_BYTES) / LINK_BPS
}

/// Run one cell: a full fluid-mode platform replay. A plain `fn` so the
/// sweep can hand it to [`par::map_weighted`] as a pointer; a
/// pure function of its spec, which is what the thread-count and
/// permutation properties certify.
pub fn run_cell(c: CellSpec) -> ScenarioOutcome {
    // The full deployment only exists in the paper's two-zone shape
    // (single-zone capacity tops out at 800 hosts).
    let cluster = if c.nodes >= 1250 {
        ClusterModel::build(&ClusterConfig::fire_flyer_full())
    } else {
        ClusterModel::build(&ClusterConfig::fire_flyer(c.nodes))
    };
    let total = cluster.nodes();
    // Carve at least 3 storage hosts so the replication axis stays
    // meaningful on small test clusters (the default `total/25` carve
    // would leave one host, and a chain cannot out-replicate its host
    // count); at full scale this is the default carve.
    let mut pcfg = PlatformConfig::new()
        .cluster(cluster)
        .storage_nodes((total / 25).max(3))
        .ckpt_interval(c.ckpt_steps)
        .replication(c.replication)
        .repair_delay_s(900)
        .validation_s(60);
    if c.detect_sens > 0.0 {
        pcfg = pcfg.detector(DetectorConfig::with_sensitivity(c.detect_sens));
    }
    let mut p = pcfg.build().expect("cluster builds");
    let compute = p.node_count();

    let replicas = if c.serve_share > 0.0 {
        (((c.serve_share * compute as f64) / NODES_PER_REPLICA as f64).round() as u32).max(1)
    } else {
        0
    };
    let sid = (replicas > 0).then(|| {
        let trace = ArrivalTrace::generate(
            c.seed ^ 0xA11CE,
            &ArrivalConfig {
                duration_s: c.horizon_s as f64,
                base_qps: FLEET_QPS,
                ..ArrivalConfig::default()
            },
        );
        p.submit_serving(ServingSpec::new(
            "serve",
            replicas,
            NODES_PER_REPLICA,
            trace,
        ))
        .expect("serving fits the cluster")
    });

    let mut rng = ChaCha8Rng::seed_from_u64(c.seed);
    let headroom = compute.saturating_sub(replicas as usize * NODES_PER_REPLICA);
    let jobs = submit_train_mix(&mut p, &mut rng, headroom, STEP_BYTES, CKPT_BYTES);

    let mut gen = FailureGenerator::paper_calibrated(c.seed, total);
    gen.with_storage_failures(STORAGE_FAILS_PER_YEAR);
    gen.scale_rates(c.rate_scale);
    let plan = FaultPlan::from_events(&gen.generate(c.horizon_s as f64), total);
    p.apply_fault_plan(&plan);
    if c.detect_sens > 0.0 && c.rate_scale > 0.0 {
        // Gray faults ride the same intensity axis as hard faults, so a
        // detector cell at rate 0 measures pure false-positive cost.
        let base = GrayRates::default();
        let rates = GrayRates {
            stragglers_per_year: base.stragglers_per_year * c.rate_scale,
            flaps_per_year: base.flaps_per_year * c.rate_scale,
            throttles_per_year: base.throttles_per_year * c.rate_scale,
        };
        p.apply_gray_plan(&GrayPlan::generate(
            c.seed,
            compute,
            c.horizon_s as f64,
            &rates,
        ));
    }

    let mut now = 0u64;
    while now < c.horizon_s {
        let dt = 60.min(c.horizon_s - now);
        p.tick(dt);
        now += dt;
    }

    let banked: u64 = jobs
        .iter()
        .map(|&(id, need)| p.progress(id).unwrap_or(0) * need as u64)
        .sum();
    let nominal = compute as f64 * c.horizon_s as f64 / nominal_step_s(REF_RING_NODES);
    let goodput = banked as f64 / nominal;
    let cost_perf = NodeSpec::pcie_a100().cost_performance_ratio() * goodput;

    let mut rec = Histogram::new();
    for &s in p.recovery_times_s() {
        rec.record(s);
    }
    let (serve_completed, serve_p99_ms, slo_misses) = sid
        .and_then(|sid| p.serving_report(sid))
        .map(|r| (r.completed, r.p99_ms, r.completed - r.slo_met))
        .unwrap_or((0, 0.0, 0));

    ScenarioOutcome {
        index: c.index,
        rate_scale: c.rate_scale,
        ckpt_steps: c.ckpt_steps,
        serve_share: c.serve_share,
        replication: c.replication,
        utilization: p.utilization(),
        banked_node_steps: banked,
        goodput,
        cost_perf,
        lost_node_steps: p.lost_work_s(),
        recoveries: rec.count(),
        recovery_p99_s: rec.percentile(99.0),
        serve_completed,
        serve_p99_ms,
        slo_misses,
        failures: p.failures(),
        preemptions: p.preemptions(),
        detect_sens: c.detect_sens,
        detector_quarantines: p.detector_quarantines(),
    }
}

/// Deterministic dispatch weight for a cell — a pure function of the
/// spec, so LPT lane packing (and everything downstream) is too. Scales
/// with simulated node-seconds plus surcharges for the event-heavy axes.
pub fn cell_weight(c: &CellSpec) -> u64 {
    let base = c.nodes as u64 * c.horizon_s / 64;
    let fail = (c.rate_scale.sqrt() * 8.0) as u64;
    let serve = (c.serve_share * 32.0) as u64;
    // Detector cells pay for the periodic probe sweeps (zero when the
    // axis is absent, so historical weights are untouched).
    let det = (c.detect_sens * 8.0) as u64;
    base + base * (fail + serve + det) / 32 + 1
}

/// A finished sweep: per-cell outcomes in grid order plus their digest.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// One outcome per cell, in row-major grid order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// FNV-1a 64 over the canonical outcome lines.
    pub digest: String,
}

/// Run the whole grid on parallel lanes. Outcomes come back in grid
/// order whatever `cfg.workers` says, so the result — digest included —
/// is bit-identical at any worker count.
pub fn sweep(cfg: &FleetConfig) -> FleetResult {
    let items: Vec<(u64, CellSpec)> = cell_specs(cfg)
        .into_iter()
        .map(|c| (cell_weight(&c), c))
        .collect();
    let outcomes = par::map_weighted(items, cfg.workers.max(1), run_cell);
    let digest = digest(&outcomes);
    FleetResult { outcomes, digest }
}

/// The sweep digest: FNV-1a 64 over newline-terminated canonical lines.
pub fn digest(outcomes: &[ScenarioOutcome]) -> String {
    let mut text = String::new();
    for o in outcomes {
        text.push_str(&o.canonical());
        text.push('\n');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// One `{"mean":…,"p5":…,…}` summary of a metric across cells, computed
/// through an [`ff_obs::Histogram`] (values pre-scaled to integers by
/// `scale`, printed back down at `prec` decimals).
fn dist_json(samples: &[u64], scale: f64, prec: usize) -> String {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    let q = |p: f64| h.percentile(p) as f64 / scale;
    format!(
        "{{\"mean\":{:.prec$},\"p5\":{:.prec$},\"p50\":{:.prec$},\"p95\":{:.prec$},\"p99\":{:.prec$}}}",
        h.mean() / scale,
        q(5.0),
        q(50.0),
        q(95.0),
        q(99.0),
        prec = prec
    )
}

/// Sorted distinct values of `f` across outcomes (sweep-order stable).
fn distinct<F: Fn(&ScenarioOutcome) -> f64>(outcomes: &[ScenarioOutcome], f: F) -> Vec<f64> {
    let mut vs: Vec<f64> = Vec::new();
    for o in outcomes {
        let v = f(o);
        if !vs.contains(&v) {
            vs.push(v);
        }
    }
    vs.sort_by(f64::total_cmp);
    vs
}

/// The what-if marginal the planner is for: for each failure multiplier,
/// mean goodput and mean lost node-steps at each checkpoint cadence, plus
/// the cadence that maximizes mean goodput. Returned as
/// `(rate_scale, [(ckpt_steps, mean_goodput, mean_lost)], best_ckpt)`.
pub type WhatIfRow = (f64, Vec<(u64, f64, f64)>, u64);

/// Compute the what-if marginals over (rate × ckpt), averaging across the
/// other axes.
pub fn whatif_rows(outcomes: &[ScenarioOutcome]) -> Vec<WhatIfRow> {
    let rates = distinct(outcomes, |o| o.rate_scale);
    let ckpts = distinct(outcomes, |o| o.ckpt_steps as f64);
    rates
        .iter()
        .map(|&rate| {
            let mut cols = Vec::new();
            for &ck in &ckpts {
                let cell: Vec<&ScenarioOutcome> = outcomes
                    .iter()
                    .filter(|o| o.rate_scale == rate && o.ckpt_steps as f64 == ck)
                    .collect();
                let n = cell.len().max(1) as f64;
                let gp = cell.iter().map(|o| o.goodput).sum::<f64>() / n;
                let lost = cell.iter().map(|o| o.lost_node_steps as f64).sum::<f64>() / n;
                cols.push((ck as u64, gp, lost));
            }
            let best = cols
                .iter()
                .cloned()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(ck, _, _)| ck)
                .unwrap_or(0);
            (rate, cols, best)
        })
        .collect()
}

/// Render the committed aggregate: a deterministic JSON document whose
/// bytes depend only on `(cfg.seed, cfg.grid, cfg.nodes, cfg.horizon_s)`
/// — never on worker count or wall-clock. One `rows` line per cell keeps
/// the artifact diffable. `small_grid_digest` is the
/// [`FleetConfig::small_grid`] sweep's digest, recorded beside the full
/// aggregate so a test can re-prove the committed artifact without
/// paying for the full-scale cells.
pub fn aggregate_json(cfg: &FleetConfig, r: &FleetResult, small_grid_digest: &str) -> String {
    let o = &r.outcomes;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"bench\": \"fleet\",\n  \"small_grid_digest\": \"{}\",\n  \
         \"schema\": 1,\n  \"seed\": {},\n  \
         \"nodes\": {},\n  \"horizon_s\": {},\n  \"cells\": {},\n  \
         \"digest\": \"{}\",\n",
        small_grid_digest,
        cfg.seed,
        cfg.nodes,
        cfg.horizon_s,
        o.len(),
        r.digest
    ));
    s.push_str("  \"axes\": [");
    for (i, a) in cfg.grid.axes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let vals: Vec<String> = a.values.iter().map(|v| format!("{v}")).collect();
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"values\": [{}]}}",
            a.name,
            vals.join(", ")
        ));
    }
    s.push_str("],\n");
    let col = |f: &dyn Fn(&ScenarioOutcome) -> u64| -> Vec<u64> { o.iter().map(f).collect() };
    let summaries: Vec<(&str, String)> = vec![
        (
            "utilization",
            dist_json(&col(&|o| (o.utilization * 1e6).round() as u64), 1e6, 6),
        ),
        (
            "goodput",
            dist_json(&col(&|o| (o.goodput * 1e6).round() as u64), 1e6, 6),
        ),
        (
            "cost_perf",
            dist_json(&col(&|o| (o.cost_perf * 1e6).round() as u64), 1e6, 6),
        ),
        (
            "lost_node_steps",
            dist_json(&col(&|o| o.lost_node_steps), 1.0, 0),
        ),
        (
            "recovery_p99_s",
            dist_json(&col(&|o| o.recovery_p99_s), 1.0, 0),
        ),
        (
            "serve_p99_ms",
            dist_json(&col(&|o| (o.serve_p99_ms * 1e3).round() as u64), 1e3, 3),
        ),
        ("slo_misses", dist_json(&col(&|o| o.slo_misses), 1.0, 0)),
        ("failures", dist_json(&col(&|o| o.failures), 1.0, 0)),
    ];
    s.push_str("  \"summary\": {\n");
    for (i, (name, body)) in summaries.iter().enumerate() {
        s.push_str(&format!(
            "    \"{name}\": {body}{}\n",
            if i + 1 < summaries.len() { "," } else { "" }
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"whatif_goodput_by_rate_and_ckpt\": [\n");
    let rows = whatif_rows(o);
    for (i, (rate, cols, best)) in rows.iter().enumerate() {
        let cells: Vec<String> = cols
            .iter()
            .map(|(ck, gp, lost)| {
                format!("{{\"ckpt\": {ck}, \"goodput\": {gp:.6}, \"lost\": {lost:.1}}}")
            })
            .collect();
        s.push_str(&format!(
            "    {{\"rate_scale\": {rate}, \"best_ckpt\": {best}, \"cols\": [{}]}}{}\n",
            cells.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"rows\": [\n");
    for (i, out) in o.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\"{}\n",
            out.canonical(),
            if i + 1 < o.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_cover_the_grid_with_defaults() {
        let cfg = FleetConfig {
            seed: 3,
            nodes: 16,
            horizon_s: 60,
            workers: 1,
            grid: SweepGrid::new()
                .axis(AXIS_RATE, &[0.0, 8.0])
                .axis(AXIS_REPL, &[1.0, 3.0]),
        };
        let cells = cell_specs(&cfg);
        assert_eq!(cells.len(), 4);
        // Missing axes take defaults; present axes vary row-major (first
        // axis slowest).
        assert!(cells.iter().all(|c| c.ckpt_steps == 30));
        assert!(cells.iter().all(|c| c.serve_share == 0.0));
        assert_eq!(
            cells.iter().map(|c| c.rate_scale).collect::<Vec<_>>(),
            vec![0.0, 0.0, 8.0, 8.0]
        );
        assert_eq!(
            cells.iter().map(|c| c.replication).collect::<Vec<_>>(),
            vec![1, 3, 1, 3]
        );
        // Seeds are distinct and non-zero.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
        assert!(seeds.iter().all(|&s| s != 0));
    }

    #[test]
    #[should_panic(expected = "unknown sweep axis")]
    fn typoed_axis_panics() {
        let cfg = FleetConfig {
            seed: 1,
            nodes: 16,
            horizon_s: 60,
            workers: 1,
            grid: SweepGrid::new().axis("rate_scales", &[1.0]),
        };
        cell_specs(&cfg);
    }

    #[test]
    fn digest_is_order_sensitive_fnv_over_lines() {
        let mk = |index: usize| ScenarioOutcome {
            index,
            rate_scale: 1.0,
            ckpt_steps: 30,
            serve_share: 0.0,
            replication: 2,
            utilization: 0.5,
            banked_node_steps: 10,
            goodput: 0.25,
            cost_perf: 0.345,
            lost_node_steps: 0,
            recoveries: 0,
            recovery_p99_s: 0,
            serve_completed: 0,
            serve_p99_ms: 0.0,
            slo_misses: 0,
            failures: 0,
            preemptions: 0,
            detect_sens: 0.0,
            detector_quarantines: 0,
        };
        let (a, b) = (mk(0), mk(1));
        let joined = format!("{}\n{}\n", a.canonical(), b.canonical());
        assert_eq!(
            digest(&[a.clone(), b.clone()]),
            format!("{:016x}", fnv1a64(joined.as_bytes()))
        );
        assert_ne!(digest(&[a.clone(), b.clone()]), digest(&[b, a]));
    }

    #[test]
    fn weights_are_pure_and_axis_sensitive() {
        let mut c = CellSpec {
            index: 0,
            seed: 1,
            nodes: 1250,
            horizon_s: 3600,
            rate_scale: 0.0,
            ckpt_steps: 30,
            serve_share: 0.0,
            replication: 2,
            detect_sens: 0.0,
        };
        let base = cell_weight(&c);
        assert_eq!(base, cell_weight(&c), "weight must be pure");
        c.rate_scale = 256.0;
        assert!(cell_weight(&c) > base, "failure-heavy cells weigh more");
        c.serve_share = 0.25;
        let with_serve = cell_weight(&c);
        c.serve_share = 0.0;
        assert!(with_serve > cell_weight(&c), "serving cells weigh more");
    }
}
