//! `hfreduce_large` and `allreduce_small`: one persistent 4-rank world
//! (a thread per rank, a `Communicator` per thread) driven through
//! barrier-separated collectives until the window closes.
//!
//! World size is 4 whatever `nproc` says: the smallest double binary tree
//! with interior nodes in both trees. An op's latency is the last rank's
//! end minus the first rank's start, so a barrier's own cost is outside it.

use crate::stats::{median, quantile, time_us};
use crate::trace::Tracer;
use crate::workload::{push_layers, Episode, Layer, Outcome, RunCfg, EPISODES};
use ff_dtypes::{Bf16, Element};
use ff_obs::TrackBuf;
use ff_reduce::fabric::{cal_sink, CalStats};
use ff_reduce::kernels::{reduce_add_into, reduce_n_into, reference_sum};
use ff_reduce::model::hfreduce_loopback_algbw;
use ff_reduce::{
    calibrate, run_hfreduce, Algo, CalibratedFabric, CommError, Communicator, Fabric,
    FabricProvider, InMemProvider, Op, TcpProvider,
};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::mix64;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const RANKS: usize = 4;
const GPUS: usize = 4;
const HF_CHUNKS: usize = 4;
/// Results are compared with the serial reference on the first, the last
/// and every this-many-th op.
const CHECK_EVERY: usize = 50;

struct Sizes {
    /// Bytes per GPU buffer of `hfreduce_large`.
    hf_bytes: usize,
    hf_warm: usize,
    /// f32 elements of `allreduce_small` (256 = 1 KiB).
    ar_elems: usize,
    ar_warm: usize,
    /// Elements of the kernel and dtype micro-timings.
    probe_elems: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            hf_bytes: 32 << 10,
            hf_warm: 2,
            ar_elems: 256,
            ar_warm: 10,
            probe_elems: 16 << 10,
        }
    } else {
        Sizes {
            hf_bytes: 4 << 20,
            hf_warm: 10,
            ar_elems: 256,
            ar_warm: 1000,
            probe_elems: 1 << 20,
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs: seeded integers in 0..8, so every dtype's sum is exact and
// independent of reduction order.
// ---------------------------------------------------------------------------

/// `count` buffers of `len` seeded elements and their serial reference sum.
fn gen_buffers<E: Element>(
    seed: u64,
    salt: u64,
    count: usize,
    len: usize,
) -> (Vec<Vec<E>>, Vec<E>) {
    let bufs: Vec<Vec<E>> = (0..count)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix64(seed ^ salt).wrapping_add(i as u64));
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let mut word = rng.next_u64();
                for _ in 0..(len - out.len()).min(16) {
                    out.push(E::from_f32((word & 7) as f32));
                    word >>= 4;
                }
            }
            out
        })
        .collect();
    let expect = reference_sum(&bufs);
    (bufs, expect)
}

/// One dtype's inputs for `hfreduce`: `per_rank[r]` holds rank r's GPU
/// buffers, `expect` the sum over all of them.
struct HfInputs<E> {
    per_rank: Vec<Arc<Vec<Vec<E>>>>,
    expect: Arc<Vec<E>>,
}

fn hf_inputs<E: Element>(seed: u64, salt: u64, bytes: usize) -> HfInputs<E> {
    let len = bytes / std::mem::size_of::<E>();
    let (bufs, expect) = gen_buffers::<E>(seed, salt, RANKS * GPUS, len);
    let mut it = bufs.into_iter();
    HfInputs {
        per_rank: (0..RANKS)
            .map(|_| Arc::new(it.by_ref().take(GPUS).collect()))
            .collect(),
        expect: Arc::new(expect),
    }
}

// ---------------------------------------------------------------------------
// One rank's view of an op class
// ---------------------------------------------------------------------------

trait RankOp<F: Fabric>: Send {
    /// Span name of the timed call.
    fn name(&self) -> &'static str;
    /// Untimed: stage fresh inputs. The previous result stays readable
    /// until the next `run`, because the world may stop before it.
    fn prepare(&mut self);
    /// The timed public call.
    fn run(&mut self, comm: &mut Communicator<F>) -> Result<(), CommError>;
    /// Untimed: does the result equal the serial reference?
    fn check(&self) -> bool;
}

struct HfOp<E> {
    name: &'static str,
    inputs: Arc<Vec<Vec<E>>>,
    expect: Arc<Vec<E>>,
    staged: Vec<Vec<E>>,
    out: Vec<Vec<E>>,
    /// The result before `out`, kept so it is freed outside the timed call.
    spent: Vec<Vec<E>>,
}

impl<E: Element> HfOp<E> {
    fn boxed<F: Fabric>(name: &'static str, inp: &HfInputs<E>, rank: usize) -> Box<dyn RankOp<F>> {
        Box::new(HfOp {
            name,
            inputs: inp.per_rank[rank].clone(),
            expect: inp.expect.clone(),
            staged: Vec::new(),
            out: Vec::new(),
            spent: Vec::new(),
        })
    }
}

impl<F: Fabric, E: Element> RankOp<F> for HfOp<E> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn prepare(&mut self) {
        // `hfreduce` takes its buffers by value; the copy it forces on a
        // caller that keeps its inputs is the caller's cost, not the op's.
        self.spent = Vec::new();
        self.staged = self.inputs.as_ref().clone();
    }
    fn run(&mut self, comm: &mut Communicator<F>) -> Result<(), CommError> {
        let out = comm.hfreduce(std::mem::take(&mut self.staged), HF_CHUNKS)?;
        self.spent = std::mem::replace(&mut self.out, out);
        Ok(())
    }
    fn check(&self) -> bool {
        self.out.len() == GPUS && self.out.iter().all(|b| b[..] == self.expect[..])
    }
}

struct ArOp {
    input: Vec<f32>,
    expect: Arc<Vec<f32>>,
    staged: Vec<f32>,
    buf: Vec<f32>,
}

impl<F: Fabric> RankOp<F> for ArOp {
    fn name(&self) -> &'static str {
        "comm.allreduce"
    }
    fn prepare(&mut self) {
        self.staged.copy_from_slice(&self.input);
    }
    fn run(&mut self, comm: &mut Communicator<F>) -> Result<(), CommError> {
        std::mem::swap(&mut self.buf, &mut self.staged);
        comm.allreduce(&mut self.buf, Op::Sum, Algo::DbTree { chunks: 1 })
    }
    fn check(&self) -> bool {
        self.buf == *self.expect
    }
}

// ---------------------------------------------------------------------------
// The world: four rank threads in lock-step
// ---------------------------------------------------------------------------

struct Plan {
    /// Untimed ops before the window opens (a multiple of the class count).
    warmup: usize,
    /// Length of the window.
    budget: Duration,
    trace: bool,
    /// Attach a `TrackBuf` to every communicator (`set_obs`).
    obs: bool,
    track: &'static str,
}

impl Plan {
    fn untraced(warmup: usize, budget_s: f64, track: &'static str) -> Plan {
        Plan {
            warmup,
            budget: Duration::from_secs_f64(budget_s),
            trace: false,
            obs: false,
            track,
        }
    }
}

struct Ctl {
    barrier: Barrier,
    stop: AtomicBool,
    epoch: Instant,
}

struct RankLog {
    /// `(start_ns, end_ns)` of every op, warm-up included.
    ops: Vec<(u64, u64)>,
    /// Indices into `ops` that returned `Err` or failed a check.
    failed: Vec<usize>,
    /// Rank 0 only: when warm-up ended.
    warm_done_ns: u64,
    tracer: Tracer,
}

fn rank_loop<F: Fabric>(
    rank: usize,
    fab: F,
    mut ops: Vec<Box<dyn RankOp<F>>>,
    ctl: &Ctl,
    plan: &Plan,
) -> RankLog {
    let mut comm = Communicator::new(fab);
    if plan.obs {
        comm.set_obs(TrackBuf::new(format!("perfbench/rank{rank}"), 0));
    }
    let mut log = RankLog {
        ops: Vec::new(),
        failed: Vec::new(),
        warm_done_ns: 0,
        tracer: Tracer::new(plan.trace, ctl.epoch, format!("{}/rank{rank}", plan.track)),
    };
    let classes = ops.len();
    let now_ns = || ctl.epoch.elapsed().as_nanos() as u64;
    let mut deadline_ns = u64::MAX;
    let mut checked_last = vec![false; classes];
    let mut i = 0usize;
    loop {
        let op = &mut ops[i % classes];
        let tr = &mut log.tracer;
        let span = tr.begin("op", i as u64);
        tr.scope("prepare", i as u64, |_| op.prepare());
        tr.scope("barrier", i as u64, |_| ctl.barrier.wait());
        // Rank 0 stored `stop` before it reached the barrier above and
        // cannot store again until every rank has joined the next op.
        if ctl.stop.load(Ordering::SeqCst) {
            tr.end(span);
            break;
        }
        let start = now_ns();
        let res = tr.scope(op.name(), i as u64, |_| op.run(&mut comm));
        let end = now_ns();
        log.ops.push((start, end));
        let timed = i.checked_sub(plan.warmup);
        let due = timed.is_some_and(|t| t % CHECK_EVERY < classes);
        checked_last[i % classes] = due;
        let ok = res.is_ok() && (!due || tr.scope("check", i as u64, |_| op.check()));
        if !ok {
            log.failed.push(i);
        }
        tr.end(span);
        i += 1;
        if rank == 0 && i.is_multiple_of(classes) {
            if i == plan.warmup {
                log.warm_done_ns = end;
                deadline_ns = end + plan.budget.as_nanos() as u64;
            }
            if (i >= plan.warmup && end >= deadline_ns) || res.is_err() {
                ctl.stop.store(true, Ordering::SeqCst);
            }
        } else if res.is_err() {
            // A broken communicator cannot run another op; stop the world.
            ctl.stop.store(true, Ordering::SeqCst);
        }
    }
    // The last op of each class, unless the cadence already covered it.
    for (c, op) in ops.iter().enumerate() {
        let last = (0..i).rev().find(|k| k % classes == c);
        if let Some(k) = last.filter(|&k| k >= plan.warmup && !checked_last[c]) {
            if !log.failed.contains(&k) && !op.check() {
                log.failed.push(k);
            }
        }
    }
    log
}

/// What one world session measured, over its timed ops.
struct Session {
    /// Warm-up end minus session start (mesh hand-over, threads, warm-up).
    warm_s: f64,
    /// Per class: op latencies in microseconds.
    lat_us: Vec<Vec<f64>>,
    /// Per op: last rank's end minus first rank's end.
    skew_us: Vec<f64>,
    /// Σ latency of every op, warm-up included (the meters' time base).
    all_ops_s: f64,
    all_ops: u64,
    failed: u64,
    timed_s: f64,
    tracers: Vec<Tracer>,
}

impl Session {
    fn attempted(&self) -> u64 {
        self.lat_us.iter().map(|c| c.len() as u64).sum()
    }

    /// Median latency of op class `class` and its sample count.
    fn p50(&self, class: usize) -> (f64, u64) {
        let lat = &self.lat_us[class];
        (median(&mut lat.clone()), lat.len() as u64)
    }
}

fn session<F: Fabric>(fabs: Vec<F>, ops: Vec<Vec<Box<dyn RankOp<F>>>>, plan: &Plan) -> Session {
    let t0 = Instant::now();
    let classes = ops[0].len();
    assert!(
        plan.warmup.is_multiple_of(classes),
        "warm-up must cover whole rounds"
    );
    let ctl = Ctl {
        barrier: Barrier::new(RANKS),
        stop: AtomicBool::new(false),
        epoch: t0,
    };
    let logs: Vec<RankLog> = std::thread::scope(|s| {
        let handles: Vec<_> = fabs
            .into_iter()
            .zip(ops)
            .enumerate()
            .map(|(rank, (fab, ops))| {
                let (ctl, plan) = (&ctl, plan);
                s.spawn(move || rank_loop(rank, fab, ops, ctl, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let n = logs.iter().map(|l| l.ops.len()).min().unwrap_or(0);
    let mut lat_us = vec![Vec::new(); classes];
    let mut skew_us = Vec::new();
    let mut all_ops_s = 0.0;
    for i in 0..n {
        let start = logs.iter().map(|l| l.ops[i].0).min().expect("ranks");
        let ends = logs.iter().map(|l| l.ops[i].1);
        let (first_end, last_end) = (
            ends.clone().min().expect("ranks"),
            ends.max().expect("ranks"),
        );
        all_ops_s += (last_end - start) as f64 / 1e9;
        if i >= plan.warmup {
            lat_us[i % classes].push((last_end - start) as f64 / 1e3);
            skew_us.push((last_end - first_end) as f64 / 1e3);
        }
    }
    let mut failed: Vec<usize> = logs.iter().flat_map(|l| l.failed.iter().copied()).collect();
    failed.sort_unstable();
    failed.dedup();
    let warm_done_ns = logs[0].warm_done_ns;
    let end_ns = logs.iter().filter_map(|l| l.ops.last()).map(|o| o.1).max();
    Session {
        warm_s: warm_done_ns as f64 / 1e9,
        lat_us,
        skew_us,
        all_ops_s,
        all_ops: n as u64,
        failed: failed.iter().filter(|&&i| i >= plan.warmup).count() as u64,
        timed_s: end_ns.map_or(0.0, |e| e.saturating_sub(warm_done_ns) as f64 / 1e9),
        tracers: logs.into_iter().map(|l| l.tracer).collect(),
    }
}

fn tcp_world() -> Vec<ff_reduce::TcpFabric> {
    TcpProvider.world(RANKS).expect("localhost TCP mesh")
}

fn inmem_world() -> Vec<ff_reduce::InMemFabric> {
    InMemProvider.world(RANKS).expect("in-memory mesh")
}

// ---------------------------------------------------------------------------
// The traced run: the same ops on four worlds
// ---------------------------------------------------------------------------

/// A workload's inputs, able to build every rank's op classes for any
/// fabric.
trait OpSource {
    fn ops<F: Fabric>(&self) -> Vec<Vec<Box<dyn RankOp<F>>>>;
}

/// What a traced run measures: the ops on a plain TCP world (the untraced
/// reference), on a metered TCP world with spans on, over InMem, and with
/// the program's own obs buffer attached.
struct TracedRun {
    plain: Session,
    traced: Session,
    inmem: Session,
    obs: Session,
    /// The traced world's `CalibratedFabric` meters, warm-up included.
    meters: CalStats,
}

fn traced_run(data: &impl OpSource, warmup: usize, seconds: f64) -> TracedRun {
    let plan = |share: f64, track| Plan::untraced(warmup, seconds * share, track);
    let plain = session(tcp_world(), data.ops(), &plan(0.25, "tcp"));
    let sink = cal_sink();
    let metered: Vec<_> = tcp_world()
        .into_iter()
        .map(|f| CalibratedFabric::new(f, sink.clone()))
        .collect();
    let spans = Plan {
        trace: true,
        ..plan(0.4, "tcp")
    };
    let traced = session(metered, data.ops(), &spans);
    let meters = *sink.lock();
    let inmem = session(inmem_world(), data.ops(), &plan(0.15, "inmem"));
    let with_obs = Plan {
        obs: true,
        ..plan(0.15, "obs")
    };
    let obs = session(tcp_world(), data.ops(), &with_obs);
    TracedRun {
        plain,
        traced,
        inmem,
        obs,
        meters,
    }
}

impl TracedRun {
    fn failed(&self) -> u64 {
        self.plain.failed + self.traced.failed + self.inmem.failed + self.obs.failed
    }

    /// Share of the ranks' op time spent inside `Fabric::send`.
    fn send_busy_share(&self) -> f64 {
        self.meters.send_ns as f64 / 1e9 / (self.traced.all_ops_s * RANKS as f64)
    }

    /// The per-layer values both collective workloads report.
    /// `payload_bytes` is what one op reduces per rank at native width.
    fn layers(&self, l: &mut Vec<Layer>, payload_bytes: f64) {
        let (t, m) = (&self.traced, &self.meters);
        let mut all: Vec<f64> = t.lat_us.iter().flatten().copied().collect();
        let n = all.len() as u64;
        let (tcp_p50, _) = t.p50(0);
        let (plain_p50, plain_n) = self.plain.p50(0);
        let (inmem_p50, inmem_n) = self.inmem.p50(0);
        let (obs_p50, obs_n) = self.obs.p50(0);
        let ops = t.all_ops.max(1) as f64;
        // Wire bytes over the bytes the tree has to move at native width:
        // every one of the n − 1 edges carries the payload up and down.
        let native = 2.0 * (RANKS - 1) as f64 * payload_bytes;
        push_layers(
            l,
            &[
                ("reduce.comm.op_p90_us", quantile(&mut all, 0.9), n),
                ("reduce.comm.op_p99_us", quantile(&mut all, 0.99), n),
                (
                    "reduce.comm.rank_skew_p50_us",
                    median(&mut t.skew_us.clone()),
                    t.skew_us.len() as u64,
                ),
                ("reduce.comm.inmem_op_p50_us", inmem_p50, inmem_n),
                ("reduce.comm.tcp_over_inmem", plain_p50 / inmem_p50, plain_n),
                ("reduce.comm.obs_attached_op_p50_us", obs_p50, obs_n),
                (
                    "obs.trace_overhead_pct",
                    100.0 * (tcp_p50 / plain_p50 - 1.0),
                    plain_n,
                ),
                ("reduce.fabric.msgs_per_op", m.sends as f64 / ops, t.all_ops),
                (
                    "reduce.fabric.wire_bytes_per_op",
                    m.bytes as f64 / ops,
                    t.all_ops,
                ),
                (
                    "reduce.fabric.wire_amplification",
                    m.bytes as f64 / ops / native,
                    t.all_ops,
                ),
                (
                    "reduce.fabric.send_busy_share",
                    self.send_busy_share(),
                    m.sends,
                ),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// hfreduce_large
// ---------------------------------------------------------------------------

struct HfData {
    f32_in: HfInputs<f32>,
    bf16_in: HfInputs<Bf16>,
}

impl HfData {
    fn generate(seed: u64, bytes: usize) -> HfData {
        HfData {
            f32_in: hf_inputs(seed, 0xF32, bytes),
            bf16_in: hf_inputs(seed, 0xBF16, bytes),
        }
    }
}

impl OpSource for HfData {
    /// Per rank: the f32 class, then the bf16 class.
    fn ops<F: Fabric>(&self) -> Vec<Vec<Box<dyn RankOp<F>>>> {
        (0..RANKS)
            .map(|r| {
                vec![
                    HfOp::boxed("comm.hfreduce/f32", &self.f32_in, r),
                    HfOp::boxed("comm.hfreduce/bf16", &self.bf16_in, r),
                ]
            })
            .collect()
    }
}

pub fn hfreduce_large(cfg: &RunCfg) -> Outcome {
    let sz = sizes(cfg.smoke);
    let mut out = Outcome::default();
    if !cfg.trace {
        // Each episode: inputs and references, the TCP mesh, rank
        // threads, warm-up (all set-up), then its share of the window.
        for _ in 0..EPISODES {
            let t0 = Instant::now();
            let data = HfData::generate(cfg.seed, sz.hf_bytes);
            let gen_s = t0.elapsed().as_secs_f64();
            let plan = Plan::untraced(sz.hf_warm, cfg.seconds / EPISODES as f64, "tcp");
            let s = session(tcp_world(), data.ops(), &plan);
            out.setup_s.push(gen_s + s.warm_s);
            out.failed += s.failed;
            let [f32_us, bf16_us]: [Vec<f64>; 2] = s.lat_us.try_into().expect("two classes");
            out.episodes.push(Episode {
                op_us: f32_us,
                alt_us: bf16_us,
                timed_s: s.timed_s,
            });
        }
        return out;
    }

    let data = HfData::generate(cfg.seed, sz.hf_bytes);
    let run = traced_run(&data, sz.hf_warm, cfg.seconds);
    let traced = &run.traced;
    out.failed = run.failed();
    out.episodes.push(Episode {
        op_us: traced.lat_us[0].clone(),
        alt_us: traced.lat_us[1].clone(),
        timed_s: traced.timed_s,
    });

    let payload = sz.hf_bytes as f64;
    let mut l = Vec::new();
    let (f32_probe, bf16_probe) = kernel_probes(&sz, &mut l);
    let cal = fabric_probes(&sz, &mut l);
    // The classes alternate, so the mean payload is the payload.
    run.layers(&mut l, payload);
    let (f32_p50, f32_n) = traced.p50(0);
    let (bf16_p50, bf16_n) = traced.p50(1);
    // Blocking-path floors per op pair (f32 + bf16): one fused 4-input
    // reduce of the rank's GPU buffers plus one add over a buffer's worth
    // of received halves, and widening/narrowing this rank's share of the
    // wire elements.
    let pair_us = f32_p50 + bf16_p50;
    let scale = payload / (sz.probe_elems * 4) as f64;
    let kernel_us = scale * (f32_probe.n4_us + f32_probe.add_us)
        + scale * 2.0 * (bf16_probe.n4_us + bf16_probe.add_us);
    // Every wire element is widened once by its sender and narrowed once
    // by its receiver; a pair moves one part f32 to two parts bf16.
    let wire_elems = run.meters.bytes as f64 / 4.0 / traced.all_ops.max(1) as f64 / RANKS as f64;
    let per_elem = |p: &DtypeProbe| (p.widen_us + p.narrow_us) / sz.probe_elems as f64;
    let codec_us = 2.0 * wire_elems / 3.0 * per_elem(&f32_probe)
        + 4.0 * wire_elems / 3.0 * per_elem(&bf16_probe);
    let kernel_share = kernel_us / pair_us;
    let codec_share = codec_us / pair_us;
    let rest_share = 1.0 - run.send_busy_share() - kernel_share - codec_share;
    let sum_us: f64 = traced.lat_us.iter().flatten().sum();
    // The model's wire-only prediction on this run's own calibration.
    let predicted = hfreduce_loopback_algbw(RANKS, payload, HF_CHUNKS, &cal.link_params()) / 1e9;
    let measured_f32 = payload / (f32_p50 * 1e3);
    // The one-shot driver the old fabric rows timed: world built per call.
    let oneshot_ms = time_us(3, || {
        let inputs: Vec<Vec<Vec<f32>>> = data
            .f32_in
            .per_rank
            .iter()
            .map(|r| r.as_ref().clone())
            .collect();
        black_box(run_hfreduce(inputs, HF_CHUNKS, &TcpProvider, None));
    }) / 1e3;
    let ops = traced.attempted();
    push_layers(
        &mut l,
        &[
            ("reduce.comm.kernel_floor_share", kernel_share, 1),
            ("reduce.comm.codec_floor_share", codec_share, 1),
            ("reduce.comm.rest_share", rest_share, 1),
            ("reduce.comm.f32_op_p50_us", f32_p50, f32_n),
            ("reduce.comm.bf16_op_p50_us", bf16_p50, bf16_n),
            (
                "reduce.comm.algbw_gbps",
                payload * ops as f64 / (sum_us * 1e3),
                ops,
            ),
            ("reduce.model.loopback_predicted_gbps", predicted, 1),
            ("reduce.model.loopback_ratio", measured_f32 / predicted, 1),
            ("reduce.exec.oneshot_op_ms", oneshot_ms, 3),
            (
                "reduce.exec.oneshot_overhead_ms",
                oneshot_ms - f32_p50 / 1e3,
                3,
            ),
        ],
    );
    out.layers = l;
    out.tracers = run.traced.tracers;
    out
}

// ---------------------------------------------------------------------------
// allreduce_small
// ---------------------------------------------------------------------------

struct ArData {
    inputs: Vec<Vec<f32>>,
    expect: Arc<Vec<f32>>,
}

impl ArData {
    fn generate(seed: u64, elems: usize) -> ArData {
        let (inputs, expect) = gen_buffers::<f32>(seed, 0xA11, RANKS, elems);
        ArData {
            inputs,
            expect: Arc::new(expect),
        }
    }
}

impl OpSource for ArData {
    fn ops<F: Fabric>(&self) -> Vec<Vec<Box<dyn RankOp<F>>>> {
        self.inputs
            .iter()
            .map(|input| {
                let op: Box<dyn RankOp<F>> = Box::new(ArOp {
                    input: input.clone(),
                    expect: self.expect.clone(),
                    staged: vec![0.0; input.len()],
                    buf: vec![0.0; input.len()],
                });
                vec![op]
            })
            .collect()
    }
}

pub fn allreduce_small(cfg: &RunCfg) -> Outcome {
    let sz = sizes(cfg.smoke);
    let mut out = Outcome::default();
    if !cfg.trace {
        // Each episode splits its share of the window 70/30 between the
        // TCP world (primary class) and the same ops over InMem
        // (secondary class); both warm-ups count as set-up.
        for _ in 0..EPISODES {
            let t0 = Instant::now();
            let data = ArData::generate(cfg.seed, sz.ar_elems);
            let gen_s = t0.elapsed().as_secs_f64();
            let share = cfg.seconds / EPISODES as f64;
            let plan = |part: f64, track| Plan::untraced(sz.ar_warm, share * part, track);
            let tcp = session(tcp_world(), data.ops(), &plan(0.7, "tcp"));
            let inmem = session(inmem_world(), data.ops(), &plan(0.3, "inmem"));
            out.setup_s.push(gen_s + tcp.warm_s + inmem.warm_s);
            out.failed += tcp.failed + inmem.failed;
            out.episodes.push(Episode {
                op_us: tcp.lat_us.into_iter().next().expect("one class"),
                alt_us: inmem.lat_us.into_iter().next().expect("one class"),
                timed_s: tcp.timed_s + inmem.timed_s,
            });
        }
        return out;
    }

    let data = ArData::generate(cfg.seed, sz.ar_elems);
    let run = traced_run(&data, sz.ar_warm, cfg.seconds);
    out.failed = run.failed();
    out.episodes.push(Episode {
        op_us: run.traced.lat_us[0].clone(),
        alt_us: run.inmem.lat_us[0].clone(),
        timed_s: run.traced.timed_s + run.inmem.timed_s,
    });

    let mut l = Vec::new();
    fabric_probes(&sz, &mut l);
    run.layers(&mut l, (sz.ar_elems * 4) as f64);
    let (p50, n) = run.traced.p50(0);
    // 1 KiB ops reduce and convert a few hundred elements: the floors are
    // below timer resolution, so everything that is not `send` is rest.
    push_layers(
        &mut l,
        &[
            ("reduce.comm.f32_op_p50_us", p50, n),
            ("reduce.comm.rest_share", 1.0 - run.send_busy_share(), 1),
        ],
    );
    out.layers = l;
    out.tracers = run.traced.tracers;
    out
}

// ---------------------------------------------------------------------------
// Micro-timings of the layers under the communicator
// ---------------------------------------------------------------------------

/// `calibrate` on both backends and the cost of building the TCP mesh.
fn fabric_probes(sz: &Sizes, l: &mut Vec<Layer>) -> ff_reduce::Calibration {
    let (rounds, large) = if sz.probe_elems >= 1 << 20 {
        (64, 1 << 20)
    } else {
        (8, 1 << 16)
    };
    let tcp = calibrate(&TcpProvider, rounds, large);
    let inmem = calibrate(&InMemProvider, rounds, large);
    let setup_ms = time_us(5, || drop(black_box(tcp_world()))) / 1e3;
    let (small_n, large_n) = (rounds as u64, (rounds / 16).max(2) as u64);
    push_layers(
        l,
        &[
            ("reduce.fabric.tcp_latency_us", tcp.latency_us, small_n),
            ("reduce.fabric.tcp_bw_gbps", tcp.bandwidth_gbps, large_n),
            ("reduce.fabric.inmem_latency_us", inmem.latency_us, small_n),
            ("reduce.fabric.inmem_bw_gbps", inmem.bandwidth_gbps, large_n),
            ("reduce.fabric.tcp_world_setup_ms", setup_ms, 5),
        ],
    );
    tcp
}

/// Median microseconds of one dtype's kernels and conversions over
/// `probe_elems` elements.
struct DtypeProbe {
    add_us: f64,
    n4_us: f64,
    widen_us: f64,
    narrow_us: f64,
}

const PROBE_REPS: usize = 9;

fn dtype_probe<E: Element>(n: usize) -> DtypeProbe {
    let (bufs, _) = gen_buffers::<E>(1, 0x9B, 5, n);
    let mut dst = bufs[4].clone();
    let add_us = time_us(PROBE_REPS, || {
        dst.copy_from_slice(&bufs[4]);
        reduce_add_into(black_box(&mut dst), black_box(&bufs[0]));
    });
    let srcs: Vec<&[E]> = bufs[..4].iter().map(|b| b.as_slice()).collect();
    let n4_us = time_us(PROBE_REPS, || {
        reduce_n_into(black_box(&mut dst), black_box(&srcs))
    });
    let mut wide = vec![0f32; n];
    let widen_us = time_us(PROBE_REPS, || {
        for (w, e) in wide.iter_mut().zip(black_box(&bufs[0])) {
            *w = e.to_f32();
        }
        black_box(&mut wide);
    });
    let narrow_us = time_us(PROBE_REPS, || {
        for (e, w) in dst.iter_mut().zip(black_box(&wide)) {
            *e = E::from_f32(*w);
        }
        black_box(&mut dst);
    });
    DtypeProbe {
        add_us,
        n4_us,
        widen_us,
        narrow_us,
    }
}

/// Both dtypes' probes, f32 then bf16.
fn kernel_probes(sz: &Sizes, l: &mut Vec<Layer>) -> (DtypeProbe, DtypeProbe) {
    let n = sz.probe_elems;
    let (f, b) = (dtype_probe::<f32>(n), dtype_probe::<Bf16>(n));
    // Bytes touched: add reads two and writes one buffer, the 4-input
    // reduce reads four and writes one.
    let gbps = |bufs: f64, elem: usize, t_us: f64| bufs * (n * elem) as f64 / (t_us * 1e3);
    let r = PROBE_REPS as u64;
    push_layers(
        l,
        &[
            ("reduce.kernels.add_f32_gbps", gbps(3.0, 4, f.add_us), r),
            ("reduce.kernels.add_bf16_gbps", gbps(3.0, 2, b.add_us), r),
            (
                "reduce.kernels.reduce_n4_f32_gbps",
                gbps(5.0, 4, f.n4_us),
                r,
            ),
            (
                "reduce.kernels.reduce_n4_bf16_gbps",
                gbps(5.0, 2, b.n4_us),
                r,
            ),
            (
                "dtypes.bf16_widen_gelems_per_s",
                n as f64 / (b.widen_us * 1e3),
                r,
            ),
            (
                "dtypes.bf16_narrow_gelems_per_s",
                n as f64 / (b.narrow_us * 1e3),
                r,
            ),
        ],
    );
    (f, b)
}

#[cfg(test)]
pub fn inputs_differ(seed_a: u64, seed_b: u64) -> bool {
    gen_buffers::<f32>(seed_a, 0xF32, 1, 64).0 != gen_buffers::<f32>(seed_b, 0xF32, 1, 64).0
}
