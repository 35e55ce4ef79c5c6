//! Deterministic-replay harness: the ff-obs trace of a run is a pure
//! function of its seed. Same seed → byte-identical canonical trace and
//! digest, even when the traced code is genuinely multi-threaded
//! (crossbeam ranks racing over channels) or fault-injected (ranks dying
//! mid-collective, checkpoints corrupted). Different seeds → different
//! digests.

use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{ArrivalConfig, ArrivalTrace};
use fireflyer::desim::{FlowId, FluidSim, ResourceId, Route, SimDuration, SimTime};
use fireflyer::obs::{chrome::export_chrome_json, Recorder};
use fireflyer::platform::recovery::{train_with_recovery_traced, JobFaults, TrainerConfig};
use fireflyer::platform::{JobSpec, PlatformConfig, ServingSpec};
use fireflyer::reduce::{
    allreduce_ft, run_allreduce, run_hfreduce, Algo, ExecFaultPlan, FabricProvider, InMemProvider,
    ObsCtx, TcpProvider,
};
use fireflyer::reduce::{ClusterConfig, ClusterModel};
use std::time::Duration;

/// Seeded rank buffers for the threaded collectives.
fn seeded_inputs(seed: u64, ranks: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..ranks)
        .map(|_| (0..len).map(|_| (rng.next_u32() % 97) as f32).collect())
        .collect()
}

/// Seeded fault script for the recovery loop, within the default
/// 6-rank / 40-step / ckpt-every-8 job.
fn seeded_faults(seed: u64) -> JobFaults {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    JobFaults {
        kills: vec![(rng.gen_range(10..35u64), rng.gen_range(1..6usize))],
        corrupt_ckpts: vec![8 * rng.gen_range(1..4u64)],
        degrades: vec![(rng.gen_range(2..9u64), rng.gen_range(0..6usize))],
        ..JobFaults::default()
    }
}

/// Run the full recovery loop under `seed`'s fault script and return the
/// canonical trace text + digest.
fn recovery_trace(seed: u64) -> (String, String) {
    let cfg = TrainerConfig::default();
    let faults = seeded_faults(seed);
    let rec = Recorder::new();
    let out = train_with_recovery_traced(&cfg, &faults, Some(&rec)).expect("recovery run");
    assert_eq!(out.steps, cfg.steps, "job must run to completion");
    assert!(rec.event_count() > 0, "trace must not be empty");
    (rec.canonical(), rec.digest())
}

#[test]
fn threaded_allreduce_same_seed_is_byte_identical() {
    let run = |seed: u64, len: usize| {
        let rec = Recorder::new();
        let obs = ObsCtx::new(&rec, "reduce", 0);
        let out = run_allreduce(
            seeded_inputs(seed, 8, len),
            Algo::DbTree { chunks: 4 },
            &InMemProvider,
            Some(&obs),
        );
        (out, rec.canonical(), rec.digest())
    };
    let (out_a, canon_a, dig_a) = run(7, 512);
    let (out_b, canon_b, dig_b) = run(7, 512);
    assert_eq!(out_a, out_b, "allreduce result must be deterministic");
    assert_eq!(canon_a, canon_b, "canonical trace must be byte-identical");
    assert_eq!(dig_a, dig_b);
    // The trace captures the communication *schedule* — payload values
    // don't appear in it, so a different seed at the same shape replays
    // to the same digest, while a different message size must not.
    let (_, _, dig_same_shape) = run(8, 512);
    assert_eq!(
        dig_a, dig_same_shape,
        "schedule is shape-, not data-dependent"
    );
    let (_, _, dig_c) = run(7, 640);
    assert_ne!(
        dig_a, dig_c,
        "a different message size must change the digest"
    );
}

#[test]
fn fault_tolerant_allreduce_replay_is_stable() {
    // A rank dies mid-collective; survivor detection involves real
    // timeouts, so only the clean shrunk attempt and the ctl-track facts
    // land in the trace — and those must replay byte-for-byte.
    let run = || {
        let rec = Recorder::new();
        let obs = ObsCtx::new(&rec, "reduce", 0);
        let plan = ExecFaultPlan {
            deaths: vec![(2, 3)],
            recv_timeout: Duration::from_millis(50),
        };
        let rep = allreduce_ft(
            seeded_inputs(3, 6, 256),
            4,
            &plan,
            &InMemProvider,
            Some(&obs),
        );
        assert_eq!(rep.dead, vec![2]);
        (rec.canonical(), rec.digest())
    };
    let (canon_a, dig_a) = run();
    let (canon_b, dig_b) = run();
    assert_eq!(canon_a, canon_b);
    assert_eq!(dig_a, dig_b);
}

#[test]
fn hfreduce_replay_is_stable() {
    let run = || {
        let rec = Recorder::new();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let bufs: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|_| {
                (0..4)
                    .map(|_| (0..256).map(|_| (rng.next_u32() % 31) as f32).collect())
                    .collect()
            })
            .collect();
        run_hfreduce(
            bufs,
            2,
            &InMemProvider,
            Some(&ObsCtx::new(&rec, "reduce", 0)),
        );
        (rec.canonical(), rec.digest())
    };
    assert_eq!(run(), run());
}

/// One [`fabric_trace`] shape: a traced dbtree allreduce of `ranks`
/// buffers of `tree_len` f32, then a traced HFReduce over `nodes` ×
/// `gpus` buffers of `hf_len` f32, each on its own obs track.
struct FabricCase {
    tree_track: &'static str,
    ranks: usize,
    tree_len: usize,
    tree_chunks: usize,
    hf_track: &'static str,
    nodes: usize,
    gpus: usize,
    hf_len: usize,
    hf_chunks: usize,
    /// Digest of the trace captured over the in-memory fabric.
    golden: &'static str,
}

/// A small world, and the paper configuration (8-rank dbtree, 4×4
/// HFReduce, 256 KiB per buffer, 4 chunks).
const FABRIC_CASES: [FabricCase; 2] = [
    FabricCase {
        tree_track: "reduce",
        ranks: 6,
        tree_len: 192,
        tree_chunks: 3,
        hf_track: "hfreduce",
        nodes: 3,
        gpus: 2,
        hf_len: 96,
        hf_chunks: 2,
        golden: "6df5492226edd2c8",
    },
    FabricCase {
        tree_track: "fabric/dbtree",
        ranks: 8,
        tree_len: 1 << 16,
        tree_chunks: 4,
        hf_track: "fabric/hfreduce",
        nodes: 4,
        gpus: 4,
        hf_len: 1 << 16,
        hf_chunks: 4,
        golden: "7733344664e892f8",
    },
];

/// The canonical trace and digest of `case` over the given fabric
/// backend; the schedule the trace captures must not depend on the
/// transport.
fn fabric_trace<P: FabricProvider>(provider: &P, case: &FabricCase) -> (String, String) {
    let rec = Recorder::new();
    run_allreduce(
        seeded_inputs(7, case.ranks, case.tree_len),
        Algo::DbTree {
            chunks: case.tree_chunks,
        },
        provider,
        Some(&ObsCtx::new(&rec, case.tree_track, 0)),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let bufs: Vec<Vec<Vec<f32>>> = (0..case.nodes)
        .map(|_| {
            (0..case.gpus)
                .map(|_| {
                    (0..case.hf_len)
                        .map(|_| (rng.next_u32() % 29) as f32)
                        .collect()
                })
                .collect()
        })
        .collect();
    run_hfreduce(
        bufs,
        case.hf_chunks,
        provider,
        Some(&ObsCtx::new(&rec, case.hf_track, 1_000_000_000)),
    );
    (rec.canonical(), rec.digest())
}

/// Real TCP sockets must replay the in-memory fabric's communication
/// schedule byte for byte: the trace is a property of the algorithm, not
/// of the wires under it.
#[test]
fn collective_trace_is_transport_invariant() {
    for case in &FABRIC_CASES {
        let (canon_mem, dig_mem) = fabric_trace(&InMemProvider, case);
        let (canon_tcp, dig_tcp) = fabric_trace(&TcpProvider, case);
        assert_eq!(
            canon_mem, canon_tcp,
            "in-mem and TCP fabrics must trace byte-identically"
        );
        assert_eq!(dig_mem, case.golden, "schedule drifted from golden");
        assert_eq!(dig_tcp, case.golden);
    }
}

/// Transport invariance extends to `PHASE_RING`: the reduce-scatter +
/// allgather schedule (uneven chunks included) traces identically over
/// channels and sockets.
#[test]
fn ring_trace_is_transport_invariant() {
    fn ring_trace<P: FabricProvider>(provider: &P) -> (String, String) {
        let rec = Recorder::new();
        let obs = ObsCtx::new(&rec, "ring", 0);
        run_allreduce(seeded_inputs(7, 5, 103), Algo::Ring, provider, Some(&obs));
        (rec.canonical(), rec.digest())
    }
    let mem = ring_trace(&InMemProvider);
    assert!(mem.0.contains("send:g:t0:c0->r1") && mem.0.contains("recv:g:t1:c3<-r4"));
    assert_eq!(mem, ring_trace(&TcpProvider));
}

#[test]
fn recovery_run_same_seed_same_digest() {
    let (canon_a, dig_a) = recovery_trace(42);
    let (canon_b, dig_b) = recovery_trace(42);
    assert_eq!(
        canon_a, canon_b,
        "same fault script must produce a byte-identical trace"
    );
    assert_eq!(dig_a, dig_b);
}

#[test]
fn recovery_run_different_seeds_differ() {
    // Pinned seeds whose fault scripts differ (kill step / rank, corrupt
    // checkpoint, degrade site all drawn from the seed).
    let (_, dig_a) = recovery_trace(1);
    let (_, dig_b) = recovery_trace(2);
    let (_, dig_c) = recovery_trace(3);
    assert_ne!(dig_a, dig_b);
    assert_ne!(dig_b, dig_c);
    assert_ne!(dig_a, dig_c);
}

#[test]
fn recovery_trace_covers_the_whole_stack() {
    let cfg = TrainerConfig::default();
    let faults = seeded_faults(42);
    let rec = Recorder::new();
    train_with_recovery_traced(&cfg, &faults, Some(&rec)).expect("recovery run");
    let json = export_chrome_json(&rec);
    let tracks = rec.snapshot().tracks;
    // Every layer of the stack must appear as a named track in the
    // Chrome trace: the desim fluid model, the collective, the file
    // system, and the platform loop.
    for prefix in ["desim", "reduce", "fs3", "platform"] {
        let track = tracks
            .iter()
            .find(|t| t.starts_with(prefix))
            .unwrap_or_else(|| panic!("trace must contain a {prefix} track"));
        assert!(
            json.contains(&format!(r#""args":{{"name":"{track}"}}"#)),
            "chrome export must name the {track} track"
        );
    }
    assert!(json.starts_with("{\"traceEvents\":["));
    // Balanced braces and brackets: the cheap well-formedness proxy of
    // `ff_obs::chrome`'s own export test, on the whole stack's trace.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

// ---------------------------------------------------------------------------
// Fluid-solver golden trace: a fixed-seed 64-node run whose ff-obs trace is
// pinned to a hardcoded digest. The max-min solver may be reimplemented (the
// incremental rewrite), but every *observable* event — transfer spans,
// degrade/restore instants — must stay byte-identical. The one exception is
// the `waterfill_rounds` counter: it measures solver effort, which a solver
// swap legitimately changes, so its line is stripped before digesting.
// ---------------------------------------------------------------------------

const NODES: usize = 64;
const NODES_PER_LEAF: usize = 8;

/// Per-node and per-leaf fluid resources of the synthetic 64-node cluster.
struct Cluster64 {
    membus: Vec<ResourceId>,
    nic_up: Vec<ResourceId>,
    nic_down: Vec<ResourceId>,
    leaf_fab: Vec<ResourceId>,
    leaf_up: Vec<ResourceId>,
    leaf_down: Vec<ResourceId>,
}

fn build_cluster64(sim: &mut FluidSim) -> Cluster64 {
    let mut c = Cluster64 {
        membus: Vec::new(),
        nic_up: Vec::new(),
        nic_down: Vec::new(),
        leaf_fab: Vec::new(),
        leaf_up: Vec::new(),
        leaf_down: Vec::new(),
    };
    for n in 0..NODES {
        c.membus.push(sim.add_resource(format!("membus{n}"), 40.0));
        c.nic_up.push(sim.add_resource(format!("nicup{n}"), 25.0));
        c.nic_down.push(sim.add_resource(format!("nicdn{n}"), 25.0));
    }
    for l in 0..NODES / NODES_PER_LEAF {
        c.leaf_fab.push(sim.add_resource(format!("fab{l}"), 400.0));
        c.leaf_up.push(sim.add_resource(format!("up{l}"), 200.0));
        c.leaf_down
            .push(sim.add_resource(format!("down{l}"), 200.0));
    }
    c
}

/// The route of an RDMA-style transfer from `src` to `dst`: host memory and
/// NIC on both ends (memory traffic at 2× the wire bytes), plus the leaf
/// fabric (same leaf) or the spine up/down hops (cross-leaf).
fn route64(c: &Cluster64, src: usize, dst: usize) -> Route {
    let mut r = Route::default();
    r.push(c.membus[src], 2.0);
    r.push(c.nic_up[src], 1.0);
    let (ls, ld) = (src / NODES_PER_LEAF, dst / NODES_PER_LEAF);
    if ls == ld {
        r.push(c.leaf_fab[ls], 1.0);
    } else {
        r.push(c.leaf_up[ls], 1.0);
        r.push(c.leaf_down[ld], 1.0);
    }
    r.push(c.nic_down[dst], 1.0);
    r.push(c.membus[dst], 2.0);
    r
}

/// One scheduled control action of the golden run.
enum Ctl {
    Wave(Vec<(usize, usize, f64)>),
    Degrade(usize, f64),
    Restore(usize),
    CancelSome(usize),
}

/// Drive the fixed-seed 64-node run and return the canonical ff-obs trace
/// with solver-internal counter lines stripped, plus its FNV digest.
fn fluid_cluster_trace(seed: u64) -> (String, String) {
    let rec = Recorder::new();
    let mut sim = FluidSim::new();
    sim.attach_recorder(&rec, "desim/fluid64", 0);
    let c = build_cluster64(&mut sim);

    // Pre-draw the whole control schedule (wave membership, fault sites)
    // from one stream; cancels draw from a second stream at apply time
    // because the victim set depends on simulation state.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cancel_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let mut controls: Vec<(SimTime, Ctl)> = Vec::new();
    for wave in 0..6u64 {
        let t0 = SimTime::from_secs(2 * wave);
        let flows: Vec<(usize, usize, f64)> = (0..60)
            .map(|_| {
                let src = rng.gen_range(0..NODES);
                let mut dst = rng.gen_range(0..NODES);
                if dst == src {
                    dst = (dst + 1) % NODES;
                }
                (src, dst, rng.gen_range(5.0f64..50.0))
            })
            .collect();
        controls.push((t0, Ctl::Wave(flows)));
        let victim = rng.gen_range(0..NODES);
        controls.push((
            t0 + SimDuration::from_millis(500),
            Ctl::Degrade(victim, rng.gen_range(0.25f64..0.75)),
        ));
        controls.push((t0 + SimDuration::from_millis(1000), Ctl::Restore(victim)));
        controls.push((t0 + SimDuration::from_millis(1500), Ctl::CancelSome(3)));
    }

    let mut active: Vec<FlowId> = Vec::new();
    let drain_until = |sim: &mut FluidSim, active: &mut Vec<FlowId>, t: SimTime| {
        while let Some(tc) = sim.next_completion_time() {
            if tc > t {
                break;
            }
            let (_, done) = sim.advance_to_next_completion().expect("flows active");
            active.retain(|id| !done.contains(id));
        }
        sim.advance_to(t);
    };
    for (t, ctl) in controls {
        drain_until(&mut sim, &mut active, t);
        match ctl {
            Ctl::Wave(flows) => {
                for (src, dst, work) in flows {
                    active.push(sim.start_flow(work, &route64(&c, src, dst)));
                }
            }
            Ctl::Degrade(n, factor) => sim.degrade(c.nic_up[n], factor).expect("valid degrade"),
            Ctl::Restore(n) => sim.restore(c.nic_up[n]).expect("valid restore"),
            Ctl::CancelSome(k) => {
                for _ in 0..k {
                    if active.is_empty() {
                        break;
                    }
                    let i = cancel_rng.gen_range(0..active.len());
                    sim.cancel_flow(active.swap_remove(i));
                }
            }
        }
    }
    while let Some((_, done)) = sim.advance_to_next_completion() {
        active.retain(|id| !done.contains(id));
    }
    assert!(active.is_empty(), "all flows completed or cancelled");

    let filtered: String = rec
        .canonical()
        .lines()
        .filter(|l| !(l.starts_with("counter ") && l.contains("/waterfill_rounds ")))
        .map(|l| format!("{l}\n"))
        .collect();
    let digest = format!("{:016x}", fnv1a(filtered.as_bytes()));
    (filtered, digest)
}

/// FNV-1a with a length fold — the same shape `ff-obs` uses for its trace
/// digest.
fn fnv1a(data: &[u8]) -> u64 {
    ff_util::fnv1a64(data) ^ data.len() as u64
}

// ---------------------------------------------------------------------------
// Mixed serve+train golden trace: a fluid-mode platform co-scheduling a
// serving job with preemptible training under scripted failures. The ff-obs
// trace (scheduler spans/instants, serving latency histogram + SLO gauges,
// checkpoint chains, fluid transfers) is pinned to one digest and must be
// byte-identical at 1, 2 and 4 solver threads — parallelism may change wall
// time, never the simulated timeline.
// ---------------------------------------------------------------------------

/// One fixed mixed serving+training run at the given solver thread count.
fn mixed_serve_train_trace(threads: usize) -> (String, String) {
    let rec = Recorder::new();
    let mut p = PlatformConfig::new()
        .cluster(ClusterModel::build(&ClusterConfig::fire_flyer(16)))
        .solver_threads(threads)
        .ckpt_interval(60)
        .recorder(rec.clone())
        .build()
        .expect("16-node fluid platform builds");
    let trace = ArrivalTrace::generate(
        0x5E11,
        &ArrivalConfig {
            duration_s: 120.0,
            base_qps: 1.5,
            ..ArrivalConfig::default()
        },
    );
    p.submit_serving(ServingSpec::new("serve-gold", 2, 2, trace))
        .expect("serving fits");
    for i in 0..3 {
        p.submit(
            JobSpec::new(format!("train-gold{i}"), 4 + i, 200)
                .priority(i as i32)
                .step_bytes(4.0 * (1u64 << 30) as f64)
                .ckpt_bytes(8.0 * (1u64 << 30) as f64),
        )
        .expect("training fits");
    }
    // Scripted churn: a failure into each workload's window plus a heal.
    p.tick(30);
    p.fail_node(1);
    p.tick(40);
    p.fail_node(9);
    p.tick(50);
    p.heal_node(1);
    p.heal_node(9);
    p.tick(600);
    let filtered: String = rec
        .canonical()
        .lines()
        .filter(|l| !(l.starts_with("counter ") && l.contains("/waterfill_rounds ")))
        .map(|l| format!("{l}\n"))
        .collect();
    let digest = format!("{:016x}", fnv1a(filtered.as_bytes()));
    (filtered, digest)
}

/// Digest captured at 1 solver thread; the simulated timeline of the mixed
/// serve+train run may never depend on solver parallelism.
const MIXED_GOLDEN_DIGEST: &str = "8ac29686d5e05481";

#[test]
fn mixed_serve_train_digest_is_thread_invariant() {
    for threads in [1usize, 2, 4] {
        let (canon, digest) = mixed_serve_train_trace(threads);
        if std::env::var_os("MIXED_DUMP").is_some() {
            std::fs::write(format!("/tmp/mixed{threads}.trace"), &canon).expect("dump trace");
        }
        // Sanity: the run exercised both workloads and the fault path.
        assert!(
            canon.lines().any(|l| l.contains("platform/serve")),
            "trace must carry the serving track"
        );
        assert!(
            canon.lines().any(|l| l.contains("serve/latency_us")),
            "trace must carry serving latency observations"
        );
        assert!(canon.lines().any(|l| l.contains("node-fail")));
        assert_eq!(
            digest, MIXED_GOLDEN_DIGEST,
            "mixed serve+train timeline changed at {threads} solver threads"
        );
    }
}

/// Digest captured from the pre-rewrite global-recompute solver. The
/// incremental solver must reproduce the same observable timeline to the
/// nanosecond: every transfer span (start, duration, route, work) and every
/// degrade/restore instant, byte for byte.
const FLUID64_GOLDEN_DIGEST: &str = "56a289b66c02efd3";

#[test]
fn fluid_solver_golden_trace_64_nodes() {
    let (canon, digest) = fluid_cluster_trace(0xF1F1);
    if std::env::var_os("FLUID64_DUMP").is_some() {
        std::fs::write("/tmp/fluid64.trace", &canon).expect("dump trace");
    }
    // Sanity: the run exercised transfers, faults, and recoveries.
    assert!(canon.lines().filter(|l| l.starts_with("span ")).count() > 300);
    assert!(canon
        .lines()
        .any(|l| l.starts_with("inst ") && l.contains("degrade ")));
    assert!(canon
        .lines()
        .any(|l| l.starts_with("inst ") && l.contains("restore ")));
    assert_eq!(
        digest,
        FLUID64_GOLDEN_DIGEST,
        "observable fluid timeline changed; first 20 lines:\n{}",
        canon.lines().take(20).collect::<Vec<_>>().join("\n")
    );
}
