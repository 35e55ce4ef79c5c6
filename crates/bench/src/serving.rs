//! Shared harness behind the `serving_bench` binary and its smoke test:
//! the serving tier co-scheduled with a standing training mix in fluid
//! mode, so the two questions the paper never measured fall out of one
//! replay — how much training throughput an X-QPS serving fleet costs
//! (both workloads contend for nodes and for HFReduce-lane bandwidth),
//! and where p99 latency lands when the failure generator takes nodes
//! (replicas included) away.

use ff_failures::FaultPlan;
use ff_obs::Recorder;
use ff_platform::{JobSpec, Platform, PlatformConfig, ServingSpec, TaskId};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{ArrivalConfig, ArrivalTrace};
use std::sync::Arc;

/// Parameters of one co-scheduled serve+train replay.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// RNG seed for the trace, the training mix and the fault plan.
    pub seed: u64,
    /// Cluster size in nodes (storage carved out as usual).
    pub nodes: usize,
    /// Simulated horizon, seconds. Arrivals span the whole horizon.
    pub horizon_s: u64,
    /// Mean offered load; `0.0` runs the training-only baseline.
    pub qps: f64,
    /// Serving replicas and nodes per replica.
    pub replicas: u32,
    /// Nodes per replica (tensor-parallel group size).
    pub nodes_per_replica: usize,
    /// Failure-rate multiplier over the paper's measured rates; `0.0`
    /// injects nothing.
    pub failure_scale: f64,
}

impl Default for ServeRun {
    fn default() -> Self {
        ServeRun {
            seed: 7,
            nodes: 64,
            horizon_s: 600,
            qps: 5.0,
            replicas: 4,
            nodes_per_replica: 2,
            failure_scale: 0.0,
        }
    }
}

/// What one replay produced.
pub struct ServeReport {
    /// Mean arrival rate of the generated trace (requests/s).
    pub offered_qps: f64,
    /// Requests completed within the horizon.
    pub completed: u64,
    /// Fraction of completed requests inside the SLO.
    pub attainment: f64,
    /// Completion-latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Mean, milliseconds.
    pub mean_ms: f64,
    /// Requests still in flight at the horizon.
    pub in_flight: usize,
    /// Requests served by a non-home replica after failures.
    pub redirects: u64,
    /// Training node-steps completed per simulated second.
    pub train_node_steps_per_s: f64,
    /// Scheduler utilization over healthy node-time.
    pub utilization: f64,
    /// Node failures confirmed / interruption signals delivered.
    pub failures: u64,
    /// Training preemptions (serving is never preempted).
    pub preemptions: u64,
    /// Deterministic digest of the observability trace.
    pub digest: String,
    /// The recorder, for Perfetto export.
    pub recorder: Arc<Recorder>,
}

/// The standing training mix over the nodes serving does not pin: jobs
/// outlive the horizon (throughput is node-steps banked, not jobs
/// finished), oversubscribing headroom by 20% so the queue never drains.
/// Each job moves `step_bytes` per step and `ckpt_bytes` per checkpoint.
pub(crate) fn submit_train_mix(
    p: &mut Platform,
    rng: &mut ChaCha8Rng,
    headroom: usize,
    step_bytes: f64,
    ckpt_bytes: f64,
) -> Vec<(TaskId, usize)> {
    let mut jobs = Vec::new();
    let mut want = headroom + headroom / 5;
    let mut i = 0usize;
    while want > 0 {
        let need = rng.gen_range(4..17usize).min(headroom.max(4));
        let spec = JobSpec::new(format!("train-{i}"), need, 1_000_000)
            .priority(rng.gen_range(0..6i32))
            .step_bytes(step_bytes)
            .ckpt_bytes(ckpt_bytes);
        jobs.push((p.submit(spec).expect("mix job fits"), need));
        want = want.saturating_sub(need);
        i += 1;
    }
    jobs
}

/// Run one seeded co-scheduled replay.
pub fn run(cfg: &ServeRun) -> ServeReport {
    let rec = Recorder::new();
    let cluster = ClusterModel::build(&ClusterConfig::fire_flyer(cfg.nodes));
    let total = cluster.nodes();
    let mut p = PlatformConfig::new()
        .cluster(cluster)
        .ckpt_interval(300)
        .repair_delay_s(1800)
        .validation_s(120)
        .recorder(rec.clone())
        .build()
        .expect("cluster builds");
    let compute = p.node_count();
    let serving_nodes = cfg.replicas as usize * cfg.nodes_per_replica;

    let mut offered_qps = 0.0;
    let sid = (cfg.qps > 0.0).then(|| {
        let trace = ArrivalTrace::generate(
            cfg.seed ^ 0xA11CE,
            &ArrivalConfig {
                duration_s: cfg.horizon_s as f64,
                base_qps: cfg.qps,
                ..ArrivalConfig::default()
            },
        );
        offered_qps = trace.mean_qps();
        p.submit_serving(ServingSpec::new(
            "serve",
            cfg.replicas,
            cfg.nodes_per_replica,
            trace,
        ))
        .expect("serving fits the cluster")
    });

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let gib = (1u64 << 30) as f64;
    let headroom = compute.saturating_sub(serving_nodes);
    let jobs = submit_train_mix(&mut p, &mut rng, headroom, 16.0 * gib, 32.0 * gib);
    if cfg.failure_scale > 0.0 {
        let plan = FaultPlan::generate(cfg.seed, total, cfg.horizon_s as f64, cfg.failure_scale);
        p.apply_fault_plan(&plan);
    }
    let mut now = 0u64;
    while now < cfg.horizon_s {
        let dt = 60.min(cfg.horizon_s - now);
        p.tick(dt);
        now += dt;
    }

    let train_node_steps: u64 = jobs
        .iter()
        .map(|&(id, need)| p.progress(id).unwrap_or(0) * need as u64)
        .sum();
    let (completed, attainment, p50_ms, p99_ms, mean_ms, in_flight, redirects) = sid
        .and_then(|sid| p.serving_report(sid))
        .map(|r| {
            (
                r.completed,
                r.attainment,
                r.p50_ms,
                r.p99_ms,
                r.mean_ms,
                r.in_flight,
                r.redirects,
            )
        })
        .unwrap_or((0, 1.0, 0.0, 0.0, 0.0, 0, 0));
    ServeReport {
        offered_qps,
        completed,
        attainment,
        p50_ms,
        p99_ms,
        mean_ms,
        in_flight,
        redirects,
        train_node_steps_per_s: train_node_steps as f64 / cfg.horizon_s as f64,
        utilization: p.utilization(),
        failures: p.failures(),
        preemptions: p.preemptions(),
        digest: rec.digest(),
        recorder: rec,
    }
}

/// One machine-readable result row, as committed to EXPERIMENTS.md.
pub fn json_row(kind: &str, cfg: &ServeRun, r: &ServeReport) -> String {
    format!(
        concat!(
            "{{\"bench\":\"serving\",\"row\":\"{}\",\"seed\":{},\"nodes\":{},",
            "\"qps\":{:.2},\"offered_qps\":{:.3},\"failure_scale\":{:.1},",
            "\"completed\":{},\"attainment\":{:.4},\"p50_ms\":{:.1},",
            "\"p99_ms\":{:.1},\"mean_ms\":{:.1},\"redirects\":{},",
            "\"train_node_steps_per_s\":{:.2},\"utilization\":{:.4},",
            "\"failures\":{},\"preemptions\":{}}}"
        ),
        kind,
        cfg.seed,
        cfg.nodes,
        cfg.qps,
        r.offered_qps,
        cfg.failure_scale,
        r.completed,
        r.attainment,
        r.p50_ms,
        r.p99_ms,
        r.mean_ms,
        r.redirects,
        r.train_node_steps_per_s,
        r.utilization,
        r.failures,
        r.preemptions
    )
}
