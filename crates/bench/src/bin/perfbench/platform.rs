//! `platform_replay`: the §VI-C multi-tenant mix on the 1,250-node
//! fluid-mode `Platform` with everything the scheduler owns switched on —
//! injected hard faults at 100× the paper's rates, 40 serving replicas on
//! a 2 qps arrival trace, the gray-failure detector and a 100× gray plan —
//! advanced in 60 s `tick`s. The primary op is one tick of that platform;
//! the secondary op is the same tick on a training-only twin (the mix and
//! the hard faults, nothing else), so a change that trades the training
//! path against serving or the detector shows on one of the two.
//!
//! The scenario is a copy of what `ff_bench::hai` builds, kept here so an
//! edit to that helper cannot change the workload. Like `sim_fig7a` the
//! run is sized from `--seconds` (one tick of each platform per second,
//! at least ten), because the simulated outcome after ten ticks is pinned.
//!
//! A declared-mode twin runs in the traced run only, and without the gray
//! plan: at this commit declared mode under a 100× gray plan degenerates
//! (a 60 s tick takes 0.5 ms at first and 9.7 s by the fifteenth), which
//! would make the run length depend on one pathology.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{push_layers, Episode, Outcome, RunCfg};
use ff_failures::{FaultPlan, GrayPlan, GrayRates};
use ff_obs::Recorder;
use ff_platform::{DetectorConfig, JobSpec, Platform, PlatformConfig, ServingId, ServingSpec};
use ff_reduce::{ClusterConfig, ClusterModel};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{ArrivalConfig, ArrivalTrace};
use std::sync::Arc;
use std::time::Instant;

const TICK_S: u64 = 60;
const FAULT_SCALE: f64 = 100.0;
const GRAY_SCALE: f64 = 100.0;
const QPS: f64 = 2.0;
const NODES_PER_REPLICA: usize = 2;
const DRY_RUN_TICKS: usize = 5;

struct Scale {
    nodes: usize,
    replicas: u32,
    /// Plans and the arrival trace cover this many simulated seconds.
    horizon_s: u64,
    /// The simulated outcome is read after this many ticks.
    pin_ticks: usize,
    /// Ticks of each traced twin replay.
    twin_ticks: usize,
    /// The simulated outcome is pinned only at the paper's scale.
    pinned: bool,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            nodes: 64,
            replicas: 4,
            horizon_s: 120,
            pin_ticks: 2,
            twin_ticks: 1,
            pinned: false,
        }
    } else {
        Scale {
            nodes: 1250,
            replicas: 40,
            horizon_s: 1500,
            pin_ticks: 10,
            twin_ticks: 3,
            pinned: true,
        }
    }
}

/// The simulated outcome after `pin_ticks` ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimOutcome {
    utilization: f64,
    failures: u64,
    preemptions: u64,
    lost_node_steps: u64,
    serve_completed: u64,
    serve_p99_ms: f64,
    detector_quarantines: u64,
}

/// Seed 7 at full scale, after ten ticks. A change that moves any of
/// these changed what the simulator computes, not how fast.
const PINNED_SEED: u64 = 7;
const PINNED: SimOutcome = SimOutcome {
    utilization: 0.9917218263171063,
    failures: 1,
    preemptions: 215,
    lost_node_steps: 70023,
    serve_completed: 704,
    serve_p99_ms: 2782.13232,
    detector_quarantines: 27,
};

impl SimOutcome {
    fn read(p: &Platform, sid: Option<ServingId>) -> SimOutcome {
        let serve = sid.and_then(|s| p.serving_report(s));
        SimOutcome {
            utilization: p.utilization(),
            failures: p.failures(),
            preemptions: p.preemptions(),
            lost_node_steps: p.lost_work_s(),
            serve_completed: serve.as_ref().map_or(0, |r| r.completed),
            serve_p99_ms: serve.as_ref().map_or(0.0, |r| r.p99_ms),
            detector_quarantines: p.detector_quarantines(),
        }
    }

    fn plausible(&self) -> bool {
        self.utilization > 0.0 && self.utilization <= 1.0
    }
}

/// Which parts of the scenario a replay carries.
#[derive(Clone)]
struct Variant {
    fluid: bool,
    serving: bool,
    detector: bool,
    gray: bool,
    recorder: Option<Arc<Recorder>>,
}

impl Variant {
    /// Everything on, in fluid mode.
    fn full() -> Variant {
        Variant {
            fluid: true,
            serving: true,
            detector: true,
            gray: true,
            recorder: None,
        }
    }

    /// The mix and the hard faults only.
    fn training_only() -> Variant {
        Variant {
            serving: false,
            detector: false,
            gray: false,
            ..Variant::full()
        }
    }
}

/// Wall-clock seconds of each set-up step.
#[derive(Default, Clone, Copy)]
struct BuildCost {
    build_s: f64,
    submit_s: f64,
    plan_generate_ms: f64,
    arrival_trace_ms: f64,
}

/// The seeded multi-tenant mix: a few zone-scale pretrains, a band of
/// mid-size research jobs and a long tail of dev jobs, oversubscribing
/// `headroom` nodes about 1.15×. 16 GiB steps, 32 GiB checkpoints.
fn submit_mix(p: &mut Platform, rng: &mut ChaCha8Rng, headroom: usize) {
    let mut want = headroom + headroom / 7;
    let mut i = 0usize;
    while want > 0 {
        let (name, need, prio, work) = match i % 10 {
            0 => ("pretrain", rng.gen_range(64..97usize), 10, 100_000u64),
            1..=4 => (
                "research",
                rng.gen_range(8..33usize),
                5,
                rng.gen_range(900..2400u64),
            ),
            _ => (
                "dev",
                rng.gen_range(1..9usize),
                0,
                rng.gen_range(200..900u64),
            ),
        };
        let need = need.min(headroom.max(1));
        let spec = JobSpec::new(format!("{name}-{i}"), need, work)
            .priority(prio)
            .step_bytes(16.0 * (1u64 << 30) as f64)
            .ckpt_bytes(32.0 * (1u64 << 30) as f64);
        p.submit(spec).expect("mix job fits the cluster");
        want = want.saturating_sub(need);
        i += 1;
    }
}

fn arrival_trace(seed: u64, horizon_s: f64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        duration_s: horizon_s,
        base_qps: QPS,
        ..ArrivalConfig::default()
    };
    ArrivalTrace::generate(seed ^ 0xA11CE, &cfg)
}

fn build(
    cfg: &RunCfg,
    sc: &Scale,
    v: &Variant,
    tr: &mut Tracer,
) -> (Platform, Option<ServingId>, BuildCost) {
    let mut cost = BuildCost::default();
    let storage = (sc.nodes / 25).max(1);
    let t0 = Instant::now();
    let mut pcfg = PlatformConfig::new()
        .ckpt_interval(300)
        .repair_delay_s(1800)
        .validation_s(120);
    pcfg = if v.fluid {
        let ccfg = if sc.nodes >= 1250 {
            ClusterConfig::fire_flyer_full()
        } else {
            ClusterConfig::fire_flyer(sc.nodes)
        };
        pcfg.cluster(tr.scope("cluster.build", 0, |_| ClusterModel::build(&ccfg)))
    } else {
        let compute = sc.nodes - storage;
        pcfg.zones([compute / 2, compute - compute / 2])
    };
    if v.detector {
        let mut det = DetectorConfig::with_sensitivity(0.5);
        det.seed = cfg.seed;
        pcfg = pcfg.detector(det);
    }
    if let Some(rec) = &v.recorder {
        pcfg = pcfg.recorder(rec.clone());
    }
    let mut p = tr
        .scope("platform.build", 0, |_| pcfg.build())
        .expect("platform builds");
    cost.build_s = t0.elapsed().as_secs_f64();
    let compute = p.node_count();
    let horizon = sc.horizon_s as f64;

    let mut sid = None;
    let mut serving_nodes = 0;
    if v.serving {
        let t0 = Instant::now();
        let trace = tr.scope("scengen.arrival_trace", 0, |_| {
            arrival_trace(cfg.seed, horizon)
        });
        cost.arrival_trace_ms = t0.elapsed().as_secs_f64() * 1e3;
        let spec = ServingSpec::new("serve", sc.replicas, NODES_PER_REPLICA, trace);
        sid = Some(
            tr.scope("platform.submit_serving", 0, |_| p.submit_serving(spec))
                .expect("serving fits the cluster"),
        );
        serving_nodes = sc.replicas as usize * NODES_PER_REPLICA;
    }
    let t0 = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    tr.scope("platform.submit", 0, |_| {
        submit_mix(&mut p, &mut rng, compute.saturating_sub(serving_nodes))
    });
    cost.submit_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let ranks = if v.fluid { sc.nodes } else { compute };
    let plan = tr.scope("failures.plan_generate", 0, |_| {
        FaultPlan::generate(cfg.seed, ranks, horizon, FAULT_SCALE)
    });
    cost.plan_generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.scope("platform.apply_fault_plan", 0, |_| {
        p.apply_fault_plan(&plan)
    });
    if v.gray {
        let base = GrayRates::default();
        let rates = GrayRates {
            stragglers_per_year: base.stragglers_per_year * GRAY_SCALE,
            flaps_per_year: base.flaps_per_year * GRAY_SCALE,
            throttles_per_year: base.throttles_per_year * GRAY_SCALE,
        };
        let gray = GrayPlan::generate(cfg.seed, compute, horizon, &rates);
        tr.scope("platform.apply_gray_plan", 0, |_| p.apply_gray_plan(&gray));
    }
    (p, sid, cost)
}

/// Tick `p` `ticks` times; returns the wall-clock seconds it took.
fn tick_n(p: &mut Platform, ticks: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ticks {
        p.tick(TICK_S);
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let sc = scale(cfg.smoke);
    let max_ticks = (sc.horizon_s / TICK_S) as usize;
    let ticks = (cfg.seconds.round() as usize).clamp(sc.pin_ticks, max_ticks);
    let epoch = Instant::now();
    let mut tr = Tracer::new(cfg.trace, epoch, "platform");
    let mut off = Tracer::new(false, epoch, "untraced");
    let mut out = Outcome::default();

    // Set-up: a dry run of the whole scenario at test scale (a few ticks
    // on 64 nodes, so a broken scenario fails in milliseconds and set-up
    // is not page faults alone), then both platforms with their scenario
    // loaded.
    let mut dry_ok = true;
    let ((mut full, sid, cost), (mut training, _, _)) = out.set_up(|last| {
        let t0 = Instant::now();
        let small = scale(true);
        let (mut dry, dry_sid, _) = build(cfg, &small, &Variant::full(), &mut off);
        tick_n(&mut dry, DRY_RUN_TICKS);
        dry_ok &= SimOutcome::read(&dry, dry_sid).plausible();
        let tracer = if last { &mut tr } else { &mut off };
        let full = build(cfg, &sc, &Variant::full(), tracer);
        let training = build(cfg, &sc, &Variant::training_only(), &mut off);
        (t0.elapsed().as_secs_f64(), (full, training))
    });
    if !dry_ok {
        out.failed += 1;
    }

    let t_run = Instant::now();
    let mut ep = Episode::default();
    let mut pinned = None;
    for k in 0..ticks {
        let t0 = Instant::now();
        tr.scope("platform.tick", k as u64, |_| full.tick(TICK_S));
        ep.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        tr.scope("platform.tick/training_only", k as u64, |_| {
            training.tick(TICK_S)
        });
        ep.alt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if k + 1 == sc.pin_ticks {
            pinned = Some(SimOutcome::read(&full, sid));
        }
    }
    ep.timed_s = t_run.elapsed().as_secs_f64();
    let tick_us = ep.op_us.clone();
    out.episodes.push(ep);
    let got = pinned.expect("the run covers the pinned tick");
    if !got.plausible() || (sc.pinned && cfg.seed == PINNED_SEED && got != PINNED) {
        eprintln!("platform_replay: simulated outcome {got:?}, pinned {PINNED:?}");
        out.failed += 1;
    }
    if !SimOutcome::read(&training, None).plausible() {
        out.failed += 1;
    }
    if !cfg.trace {
        return out;
    }

    // Twins over the first few ticks: the full scenario untraced, without
    // serving, without the detector and its gray plan, with a `Recorder`
    // attached; and the declared-mode engine over the whole run.
    let k = sc.twin_ticks.min(ticks);
    let main_s: f64 = tick_us[..k].iter().sum::<f64>() / 1e6;
    let mut twin = |v: Variant, ticks: usize| -> f64 {
        let (mut p, _, _) = build(cfg, &sc, &v, &mut off);
        tick_n(&mut p, ticks)
    };
    let untraced_s = twin(Variant::full(), k);
    let no_serving_s = twin(
        Variant {
            serving: false,
            ..Variant::full()
        },
        k,
    );
    let no_detector_s = twin(
        Variant {
            detector: false,
            gray: false,
            ..Variant::full()
        },
        k,
    );
    let rec = Recorder::new();
    let recorder_s = twin(
        Variant {
            recorder: Some(rec.clone()),
            ..Variant::full()
        },
        k,
    );
    let declared_s = twin(
        Variant {
            fluid: false,
            gray: false,
            ..Variant::full()
        },
        ticks,
    );

    let n = ticks as u64;
    let fluid_s: f64 = tick_us.iter().sum::<f64>() / 1e6;
    let pin = sc.pin_ticks as u64;
    let k = k as u64;
    push_layers(
        &mut out.layers,
        &[
            ("platform.build_s", cost.build_s, 1),
            ("platform.submit_s", cost.submit_s, 1),
            ("failures.plan_generate_ms", cost.plan_generate_ms, 1),
            ("util.arrival_trace_ms", cost.arrival_trace_ms, 1),
            (
                "platform.tick_p50_ms",
                median(&mut tick_us.clone()) / 1e3,
                n,
            ),
            (
                "platform.tick_max_ms",
                quantile(&mut tick_us.clone(), 1.0) / 1e3,
                n,
            ),
            ("platform.declared_wall_s", declared_s, n),
            ("platform.fluid_share", 1.0 - declared_s / fluid_s, n),
            ("platform.serving_delta_s", untraced_s - no_serving_s, k),
            ("platform.detector_delta_s", untraced_s - no_detector_s, k),
            ("obs.platform_recorder_delta_s", recorder_s - untraced_s, k),
            ("obs.recorder_events", rec.event_count() as f64, 1),
            (
                "obs.trace_overhead_pct",
                100.0 * (main_s / untraced_s - 1.0),
                k,
            ),
            ("platform.utilization", got.utilization, pin),
            ("platform.failures", got.failures as f64, pin),
            ("platform.preemptions", got.preemptions as f64, pin),
            ("platform.lost_node_steps", got.lost_node_steps as f64, pin),
            ("platform.serve_completed", got.serve_completed as f64, pin),
            ("platform.serve_p99_ms", got.serve_p99_ms, pin),
            (
                "platform.detector_quarantines",
                got.detector_quarantines as f64,
                pin,
            ),
        ],
    );
    out.tracers = vec![tr];
    out
}

#[cfg(test)]
pub fn inputs_differ(seed_a: u64, seed_b: u64) -> bool {
    arrival_trace(seed_a, 120.0).requests != arrival_trace(seed_b, 120.0).requests
}
