//! Inference serving as a first-class platform workload.
//!
//! A [`ServingSpec`] deploys `replicas` model replicas, each spanning
//! `nodes_per_replica` compute nodes of one zone, and feeds them an
//! open-loop [`ArrivalTrace`] (diurnal + bursty, seeded — see
//! `ff_util::scengen`). Serving co-schedules with training on the same
//! cluster with one asymmetry: training is preemptible through the §VI-C
//! interruption-signal path, serving is not. A serving replica that
//! cannot find free nodes signals training victims; nothing ever signals
//! a serving replica — by construction, since victim selection only walks
//! the training task map.
//!
//! **Batching discipline.** Each replica runs *continuous batching* at
//! iteration granularity, bounded by two admission gates checked in FIFO
//! arrival order: a batch-size cap and a KV-cache byte budget. A request
//! reserves its *full* potential KV footprint
//! (`(prompt + output) × kv_bytes_per_token`) at admission, so "KV bytes
//! never exceed replica memory" is an exact invariant, not a race.
//! Decode proceeds in *segments* of up to `admit_every` iterations (or
//! fewer if a batch member finishes sooner); the queue is polled for
//! admissions at every segment boundary. Segment compute time is
//! `prefill_ns · new_prompt_tokens + k · (iter_base + iter_per_req ·
//! batch)` — declared mode stops there, making a serving job O(events),
//! while fluid mode follows each segment's compute with the
//! tensor-parallel activation allreduce as real flows on the bandwidth
//! model (the replica's `ff_reduce::jobflow::step_routes` ring, built
//! once per placement), so serving latency stretches under contention
//! with training allreduce, checkpoint traffic and degraded links.
//!
//! **SLO model.** Per-request latency is measured arrival → last token,
//! open-loop (arrivals never throttle). A request meets its SLO iff
//! latency ≤ `slo_ms`. Requests route to replica `id % replicas`; if the
//! home replica is down they fail over to the next running one, and a
//! replica lost to a node failure re-queues its in-flight requests with
//! their *original* arrival times — the latency clock never resets, so
//! failures surface as tail latency, exactly what the p99-under-failure
//! bench measures.

use crate::scheduler::{Ev, FluidEngine, Owner, Platform, SubmitError};
use ff_desim::{FlowId, Route, SimTime};
use ff_reduce::jobflow;
use ff_util::scengen::{ArrivalTrace, Request};
use std::collections::VecDeque;

/// Identifies a submitted serving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServingId(pub u64);

/// A serving deployment: replica shape, model timing/memory constants and
/// the request trace to serve.
///
/// Work constants are per *decode iteration* (one token for every batched
/// sequence): `iter_base_us + iter_per_req_us × batch` compute plus
/// `prefill_us_per_token` for each newly admitted prompt token. In fluid
/// mode each segment additionally allreduces `tp_bytes_per_token` per
/// generated/prefilled token over the replica's nodes.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    name: String,
    replicas: u32,
    nodes_per_replica: usize,
    trace: ArrivalTrace,
    slo_ms: u64,
    max_batch: usize,
    kv_capacity_bytes: f64,
    kv_bytes_per_token: f64,
    iter_base_us: u64,
    iter_per_req_us: u64,
    prefill_us_per_token: u64,
    tp_bytes_per_token: f64,
    admit_every: u32,
}

impl ServingSpec {
    /// A serving job named `name`: `replicas` replicas of
    /// `nodes_per_replica` nodes each, serving `trace`. Defaults: 15 s
    /// completion SLO, batch ≤ 16, 8 GiB KV at 1 MiB/token, 20 ms + 1
    /// ms/req iterations, 200 µs/token prefill, 4 MiB/token
    /// tensor-parallel traffic, admission every 8 iterations.
    pub fn new(
        name: impl Into<String>,
        replicas: u32,
        nodes_per_replica: usize,
        trace: ArrivalTrace,
    ) -> ServingSpec {
        ServingSpec {
            name: name.into(),
            replicas,
            nodes_per_replica,
            trace,
            slo_ms: 15_000,
            max_batch: 16,
            kv_capacity_bytes: (8u64 << 30) as f64,
            kv_bytes_per_token: (1u64 << 20) as f64,
            iter_base_us: 20_000,
            iter_per_req_us: 1_000,
            prefill_us_per_token: 200,
            tp_bytes_per_token: (4u64 << 20) as f64,
            admit_every: 8,
        }
    }

    /// Completion-latency SLO in milliseconds.
    pub fn slo_ms(mut self, ms: u64) -> ServingSpec {
        self.slo_ms = ms.max(1);
        self
    }

    /// Maximum sequences decoded concurrently per replica.
    pub fn max_batch(mut self, n: usize) -> ServingSpec {
        self.max_batch = n.max(1);
        self
    }

    /// Per-replica KV-cache budget in bytes.
    pub fn kv_capacity_bytes(mut self, b: f64) -> ServingSpec {
        self.kv_capacity_bytes = b;
        self
    }

    /// KV-cache bytes per cached token.
    pub fn kv_bytes_per_token(mut self, b: f64) -> ServingSpec {
        self.kv_bytes_per_token = b;
        self
    }

    /// Fixed compute microseconds per decode iteration.
    pub fn iter_base_us(mut self, us: u64) -> ServingSpec {
        self.iter_base_us = us;
        self
    }

    /// Additional compute microseconds per batched sequence per iteration.
    pub fn iter_per_req_us(mut self, us: u64) -> ServingSpec {
        self.iter_per_req_us = us;
        self
    }

    /// Prefill compute microseconds per prompt token.
    pub fn prefill_us_per_token(mut self, us: u64) -> ServingSpec {
        self.prefill_us_per_token = us;
        self
    }

    /// Tensor-parallel allreduce bytes per token (fluid mode).
    pub fn tp_bytes_per_token(mut self, b: f64) -> ServingSpec {
        self.tp_bytes_per_token = b;
        self
    }

    /// Decode iterations between admission checks (segment cap). Smaller
    /// values react to arrivals faster at the cost of more events.
    pub fn admit_every(mut self, k: u32) -> ServingSpec {
        self.admit_every = k.max(1);
        self
    }
}

/// A snapshot of a serving job's SLO accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests fully decoded.
    pub completed: u64,
    /// Completed requests that met the SLO.
    pub slo_met: u64,
    /// `slo_met / completed` (1.0 when nothing completed yet).
    pub attainment: f64,
    /// Median completion latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completion latency in milliseconds.
    pub p99_ms: f64,
    /// Mean completion latency in milliseconds.
    pub mean_ms: f64,
    /// Requests arrived but not yet completed (queued, batched or waiting
    /// for a replica).
    pub in_flight: usize,
    /// Replicas currently placed on nodes.
    pub replicas_up: usize,
    /// High-water KV-cache usage as a fraction of capacity, across all
    /// replicas over the whole run.
    pub max_kv_frac: f64,
    /// Requests served by a non-home replica (failover).
    pub redirects: u64,
    /// Requests discarded by [`Platform::stop_serving`].
    pub dropped: u64,
}

/// A request waiting in a replica queue (or for any replica), with its
/// original arrival time — the latency clock survives failover.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    req: Request,
    arrived: SimTime,
}

/// A request admitted to a replica's running batch.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Request,
    arrived: SimTime,
    /// Output tokens still to generate.
    remaining: u32,
    /// KV bytes reserved at admission, released at completion.
    kv: f64,
}

#[derive(Debug, Default)]
struct Replica {
    nodes: Vec<usize>,
    /// Fluid mode: the tensor-parallel allreduce ring over `nodes`, built
    /// at placement and dropped with the nodes (routing is static).
    step_routes: Vec<Route>,
    running: bool,
    /// Bumped on every placement/teardown; stale segment timers are
    /// dropped.
    epoch: u64,
    queue: VecDeque<Waiting>,
    batch: Vec<InFlight>,
    kv_used: f64,
    /// A decode segment is in flight (compute timer or flows outstanding).
    busy: bool,
    /// Fluid mode: compute finished, tensor-parallel flows outstanding.
    net_pending: bool,
    /// Iterations this segment credits when it lands.
    seg_iters: u32,
    /// Prompt tokens prefilled in this segment.
    seg_prompt: u64,
    flows: Vec<FlowId>,
}

/// Internal state of one serving job.
pub(crate) struct ServingJob {
    name: String,
    nodes_per_replica: usize,
    trace: ArrivalTrace,
    /// Next unprocessed index into `trace.requests`.
    cursor: usize,
    /// Platform time when the job was submitted; trace times are relative
    /// to it.
    t0: SimTime,
    slo_ns: u64,
    max_batch: usize,
    kv_capacity: f64,
    kv_per_token: f64,
    iter_base_ns: u64,
    iter_per_req_ns: u64,
    prefill_ns_per_token: u64,
    tp_bytes_per_token: f64,
    admit_every: u32,
    replicas: Vec<Replica>,
    /// Arrived requests with no running replica to go to.
    pending: VecDeque<Waiting>,
    /// `(request id, completion latency ns)` in completion order.
    latencies: Vec<(u64, u64)>,
    slo_met: u64,
    max_kv_frac: f64,
    redirects: u64,
    dropped: u64,
    stopped: bool,
}

impl ServingJob {
    pub(crate) fn completed(&self) -> u64 {
        self.latencies.len() as u64
    }

    pub(crate) fn slo_met(&self) -> u64 {
        self.slo_met
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
            + self
                .replicas
                .iter()
                .map(|r| r.queue.len() + r.batch.len())
                .sum::<usize>()
    }

    /// Admit queued requests to replica `rep`'s batch, FIFO, until the
    /// batch cap or the KV budget blocks the queue head. Returns the
    /// prompt tokens newly admitted (they prefill in the next segment).
    fn admit(&mut self, rep: usize) -> u64 {
        let r = &mut self.replicas[rep];
        let mut prompt = 0u64;
        while r.batch.len() < self.max_batch {
            let Some(w) = r.queue.front() else { break };
            let kv = (w.req.prompt_tokens as f64 + w.req.output_tokens as f64) * self.kv_per_token;
            if r.kv_used + kv > self.kv_capacity {
                break;
            }
            let w = r.queue.pop_front().expect("peeked above");
            r.kv_used += kv;
            prompt += w.req.prompt_tokens as u64;
            r.batch.push(InFlight {
                req: w.req,
                arrived: w.arrived,
                remaining: w.req.output_tokens.max(1),
                kv,
            });
        }
        let frac = r.kv_used / self.kv_capacity;
        if frac > self.max_kv_frac {
            self.max_kv_frac = frac;
        }
        prompt
    }
}

impl Platform {
    /// Deploy a serving job. Replicas are placed immediately where nodes
    /// allow — preempting training if needed — and requests start arriving
    /// on the trace's schedule (relative to now).
    pub fn submit_serving(&mut self, spec: ServingSpec) -> Result<ServingId, SubmitError> {
        if spec.replicas == 0 || spec.nodes_per_replica == 0 {
            return Err(SubmitError::ZeroNodes);
        }
        if spec.trace.requests.is_empty() {
            return Err(SubmitError::ZeroWork);
        }
        if spec.nodes_per_replica > self.nodes.len() {
            return Err(SubmitError::TooLarge {
                need: spec.nodes_per_replica,
                cluster: self.nodes.len(),
            });
        }
        let max_req_kv = spec
            .trace
            .requests
            .iter()
            .map(|r| (r.prompt_tokens + r.output_tokens) as u64)
            .max()
            .unwrap_or(0) as f64
            * spec.kv_bytes_per_token;
        if max_req_kv > spec.kv_capacity_bytes {
            return Err(SubmitError::KvOverflow {
                need_bytes: max_req_kv as u64,
                capacity_bytes: spec.kv_capacity_bytes as u64,
            });
        }
        if let Some((rec, _)) = &self.obs {
            if self.serve_track.is_none() {
                self.serve_track = Some(rec.track("platform/serve"));
            }
        }
        let sid = ServingId(self.next_serving);
        self.next_serving += 1;
        let first_at = SimTime(self.now.0 + spec.trace.requests[0].at_ns);
        let job = ServingJob {
            name: spec.name,
            nodes_per_replica: spec.nodes_per_replica,
            trace: spec.trace,
            cursor: 0,
            t0: self.now,
            slo_ns: spec.slo_ms * 1_000_000,
            max_batch: spec.max_batch,
            kv_capacity: spec.kv_capacity_bytes,
            kv_per_token: spec.kv_bytes_per_token,
            iter_base_ns: spec.iter_base_us * 1_000,
            iter_per_req_ns: spec.iter_per_req_us * 1_000,
            prefill_ns_per_token: spec.prefill_us_per_token * 1_000,
            tp_bytes_per_token: spec.tp_bytes_per_token,
            admit_every: spec.admit_every,
            replicas: (0..spec.replicas).map(|_| Replica::default()).collect(),
            pending: VecDeque::new(),
            latencies: Vec::new(),
            slo_met: 0,
            max_kv_frac: 0.0,
            redirects: 0,
            dropped: 0,
            stopped: false,
        };
        self.serving.insert(sid, job);
        self.timers.schedule(first_at, Ev::ServeArrive { sid });
        self.schedule_now();
        Ok(sid)
    }

    /// Tear a serving job down: cancel its traffic, free its nodes and
    /// discard everything still in flight (counted in
    /// [`ServingReport::dropped`]). Returns false for unknown/stopped ids.
    pub fn stop_serving(&mut self, sid: ServingId) -> bool {
        if !self.serving.contains_key(&sid) || self.serving[&sid].stopped {
            return false;
        }
        self.with_opt_engine(|p, mut eng| {
            let job = p.serving.get_mut(&sid).expect("checked above");
            job.stopped = true;
            job.dropped += job.pending.len() as u64;
            job.pending.clear();
            let mut freed = Vec::new();
            for r in job.replicas.iter_mut() {
                job.dropped += (r.queue.len() + r.batch.len()) as u64;
                r.queue.clear();
                r.batch.clear();
                r.kv_used = 0.0;
                r.busy = false;
                r.net_pending = false;
                r.seg_iters = 0;
                r.seg_prompt = 0;
                r.epoch += 1;
                if let Some(eng) = eng.as_deref_mut() {
                    for f in r.flows.drain(..) {
                        eng.flow_owner.remove(&f);
                        eng.cluster.fluid.cancel_flow(f);
                    }
                }
                r.flows.clear();
                if r.running {
                    r.running = false;
                    freed.extend(std::mem::take(&mut r.nodes));
                    r.step_routes = Vec::new();
                }
            }
            for &n in &freed {
                p.nodes[n].running = None;
            }
            p.busy_nodes -= freed.len();
        });
        self.note_serve("serve-stop");
        self.schedule_now();
        true
    }

    /// SLO accounting snapshot, or `None` for an unknown id.
    pub fn serving_report(&self, sid: ServingId) -> Option<ServingReport> {
        let job = self.serving.get(&sid)?;
        let mut lats: Vec<u64> = job.latencies.iter().map(|&(_, l)| l).collect();
        lats.sort_unstable();
        let pct = |p: f64| -> f64 {
            if lats.is_empty() {
                return 0.0;
            }
            let idx = ((lats.len() as f64 * p).ceil() as usize).clamp(1, lats.len()) - 1;
            lats[idx] as f64 / 1e6
        };
        let completed = lats.len() as u64;
        Some(ServingReport {
            completed,
            slo_met: job.slo_met,
            attainment: if completed == 0 {
                1.0
            } else {
                job.slo_met as f64 / completed as f64
            },
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            mean_ms: if lats.is_empty() {
                0.0
            } else {
                lats.iter().sum::<u64>() as f64 / lats.len() as f64 / 1e6
            },
            in_flight: job.in_flight(),
            replicas_up: job.replicas.iter().filter(|r| r.running).count(),
            max_kv_frac: job.max_kv_frac,
            redirects: job.redirects,
            dropped: job.dropped,
        })
    }

    /// Per-request `(id, completion latency ns)` in completion order, or
    /// `None` for an unknown id.
    pub fn serving_latencies(&self, sid: ServingId) -> Option<&[(u64, u64)]> {
        self.serving.get(&sid).map(|j| j.latencies.as_slice())
    }

    /// The nodes replica `rep` occupies (empty when down), or `None` for
    /// an unknown job/replica.
    pub fn serving_assignment(&self, sid: ServingId, rep: u32) -> Option<&[usize]> {
        self.serving
            .get(&sid)?
            .replicas
            .get(rep as usize)
            .map(|r| r.nodes.as_slice())
    }

    /// The serving job's name, or `None` for an unknown id.
    pub fn serving_name(&self, sid: ServingId) -> Option<&str> {
        self.serving.get(&sid).map(|j| j.name.as_str())
    }

    // ----- placement ------------------------------------------------------

    /// Place every down replica that fits, preempting training per zone
    /// when it does not. Called first from `schedule_now`.
    pub(crate) fn schedule_serving(&mut self) {
        let sids: Vec<ServingId> = self.serving.keys().copied().collect();
        for sid in sids {
            let nreps = self.serving[&sid].replicas.len();
            for rep in 0..nreps {
                let (skip, need) = {
                    let j = &self.serving[&sid];
                    (j.stopped || j.replicas[rep].running, j.nodes_per_replica)
                };
                if skip {
                    continue;
                }
                if !self.try_place_replica(sid, rep, need) {
                    self.preempt_for_serving(need);
                    let _ = self.try_place_replica(sid, rep, need);
                }
            }
        }
    }

    /// Replicas are single-zone (they are latency-bound and small; the
    /// cross-zone budget stays with training).
    fn try_place_replica(&mut self, sid: ServingId, rep: usize, need: usize) -> bool {
        let free = self.free_by_zone();
        let zone = if free[0].len() >= need {
            0
        } else if free[1].len() >= need {
            1
        } else {
            return false;
        };
        let nodes: Vec<usize> = free[zone][..need].to_vec();
        for &n in &nodes {
            self.nodes[n].running = Some(Owner::Serve(sid, rep as u32));
        }
        self.busy_nodes += nodes.len();
        let step_routes = self
            .engine
            .as_ref()
            .map_or_else(Vec::new, |eng| jobflow::step_routes(&eng.cluster, &nodes));
        let job = self.serving.get_mut(&sid).expect("placing known job");
        let r = &mut job.replicas[rep];
        r.nodes = nodes;
        r.step_routes = step_routes;
        r.running = true;
        r.epoch += 1;
        let waiting: Vec<Waiting> = job.pending.drain(..).collect();
        self.note_serve("serve-replica-up");
        for w in waiting {
            self.serve_dispatch(sid, w);
        }
        true
    }

    /// Signal enough training victims (lowest priority first) to free
    /// `need` nodes in one zone — or nothing, if an in-flight interruption
    /// already covers it or no zone can ever reach `need`.
    fn preempt_for_serving(&mut self, need: usize) {
        let free = self.free_by_zone();
        let intr = self.interrupting_by_zone();
        for z in 0..2 {
            if free[z].len() + intr[z] >= need {
                return; // already being freed; placement retries on release
            }
        }
        let victims = self.victims_by_zone();
        let mut best: Option<(usize, Vec<crate::TaskId>)> = None;
        for z in 0..2 {
            let mut have = free[z].len() + intr[z];
            let mut chosen = Vec::new();
            for (id, per_zone) in &victims {
                if have >= need {
                    break;
                }
                if per_zone[z] == 0 {
                    continue;
                }
                have += per_zone[z];
                chosen.push(*id);
            }
            if have >= need && best.as_ref().is_none_or(|(n, _)| chosen.len() < *n) {
                best = Some((chosen.len(), chosen));
            }
        }
        if let Some((_, chosen)) = best {
            for id in chosen {
                self.signal_interrupt(id);
            }
        }
    }

    /// A compute node carrying a serving replica failed: tear the replica
    /// down and re-queue its requests (original arrival times — the
    /// latency clock keeps running) onto surviving replicas.
    pub(crate) fn serve_replica_down(&mut self, sid: ServingId, rep: u32) {
        let displaced = self.with_opt_engine(|p, eng| {
            let job = p.serving.get_mut(&sid).expect("owner map names live jobs");
            let r = &mut job.replicas[rep as usize];
            debug_assert!(r.running, "owner map only names running replicas");
            r.running = false;
            r.busy = false;
            r.net_pending = false;
            r.seg_iters = 0;
            r.seg_prompt = 0;
            r.kv_used = 0.0;
            r.epoch += 1;
            if let Some(eng) = eng {
                for f in r.flows.drain(..) {
                    eng.flow_owner.remove(&f);
                    eng.cluster.fluid.cancel_flow(f);
                }
            }
            r.flows.clear();
            let nodes = std::mem::take(&mut r.nodes);
            r.step_routes = Vec::new();
            // Partial decode progress is lost: displaced requests restart
            // from their prompt on whichever replica picks them up.
            let mut displaced: Vec<Waiting> = r
                .batch
                .drain(..)
                .map(|f| Waiting {
                    req: f.req,
                    arrived: f.arrived,
                })
                .collect();
            displaced.extend(r.queue.drain(..));
            for &n in &nodes {
                p.nodes[n].running = None;
            }
            p.busy_nodes -= nodes.len();
            displaced
        });
        self.note_serve("serve-replica-down");
        for w in displaced {
            self.serve_dispatch(sid, w);
        }
        self.dirty = true;
    }

    // ----- request path ---------------------------------------------------

    /// The next trace request lands now.
    pub(crate) fn serve_arrival(&mut self, sid: ServingId) {
        let Some(job) = self.serving.get_mut(&sid) else {
            return;
        };
        if job.stopped {
            return;
        }
        let Some(req) = job.trace.requests.get(job.cursor).copied() else {
            return;
        };
        job.cursor += 1;
        if let Some(next) = job.trace.requests.get(job.cursor) {
            let at = SimTime(job.t0.0 + next.at_ns);
            self.timers.schedule(at, Ev::ServeArrive { sid });
        }
        let arrived = self.now;
        self.serve_dispatch(sid, Waiting { req, arrived });
    }

    /// Route a request: home replica `id % replicas`, failing over to the
    /// next running replica; with none running it waits for a placement.
    fn serve_dispatch(&mut self, sid: ServingId, w: Waiting) {
        let job = self.serving.get_mut(&sid).expect("dispatch to live job");
        let nreps = job.replicas.len();
        let home = (w.req.id % nreps as u64) as usize;
        let target = (0..nreps)
            .map(|off| (home + off) % nreps)
            .find(|&i| job.replicas[i].running);
        let Some(i) = target else {
            job.pending.push_back(w);
            return;
        };
        if i != home {
            job.redirects += 1;
        }
        job.replicas[i].queue.push_back(w);
        if !job.replicas[i].busy {
            self.serve_segment_start(sid, i);
        }
    }

    /// Begin the next decode segment on a replica: admit from the queue,
    /// size the segment, and schedule its compute completion.
    fn serve_segment_start(&mut self, sid: ServingId, rep: usize) {
        let now = self.now;
        let job = self.serving.get_mut(&sid).expect("segment on live job");
        if !job.replicas[rep].running || job.replicas[rep].busy {
            return;
        }
        let prompt = job.admit(rep);
        let r = &mut job.replicas[rep];
        if r.batch.is_empty() {
            return; // idle until the next arrival
        }
        let batch = r.batch.len() as u64;
        let min_rem = r
            .batch
            .iter()
            .map(|f| f.remaining)
            .min()
            .expect("non-empty batch");
        let k = min_rem.min(job.admit_every);
        let iter_ns = job.iter_base_ns + job.iter_per_req_ns * batch;
        let dur = (job.prefill_ns_per_token * prompt + iter_ns * k as u64).max(1);
        r.busy = true;
        r.net_pending = false;
        r.seg_iters = k;
        r.seg_prompt = prompt;
        let epoch = r.epoch;
        self.timers.schedule(
            SimTime(now.0 + dur),
            Ev::ServeSeg {
                sid,
                rep: rep as u32,
                epoch,
            },
        );
    }

    /// A segment's compute time elapsed. Declared mode: the segment is
    /// done. Fluid mode: start the tensor-parallel flows; the segment
    /// lands when they drain.
    pub(crate) fn serve_seg_event(&mut self, sid: ServingId, rep: u32, epoch: u64) {
        let valid = self.serving.get(&sid).is_some_and(|j| {
            !j.stopped
                && j.replicas[rep as usize].running
                && j.replicas[rep as usize].epoch == epoch
                && j.replicas[rep as usize].busy
                && !j.replicas[rep as usize].net_pending
        });
        if !valid {
            return;
        }
        if self.engine.is_some() {
            self.with_engine(|p, eng| {
                let job = p.serving.get_mut(&sid).expect("validated above");
                let tp = job.tp_bytes_per_token;
                let r = &mut job.replicas[rep as usize];
                let tokens = r.batch.len() as u64 * r.seg_iters as u64 + r.seg_prompt;
                let work = jobflow::ring_edge_bytes(r.nodes.len(), tp * tokens as f64).max(1.0);
                r.net_pending = true;
                for route in &r.step_routes {
                    let f = eng.cluster.fluid.start_flow(work, route);
                    eng.flow_owner.insert(f, Owner::Serve(sid, rep));
                    r.flows.push(f);
                }
            });
        } else {
            self.serve_segment_complete(sid, rep as usize);
        }
    }

    /// Some of a replica's tensor-parallel flows drained; when the whole
    /// set is done the segment lands.
    pub(crate) fn serve_flows_done(
        &mut self,
        _eng: &mut FluidEngine,
        sid: ServingId,
        rep: u32,
        done: &[FlowId],
    ) {
        let Some(job) = self.serving.get_mut(&sid) else {
            return;
        };
        let r = &mut job.replicas[rep as usize];
        r.flows.retain(|f| !done.contains(f));
        if r.flows.is_empty() && r.net_pending {
            self.serve_segment_complete(sid, rep as usize);
        }
    }

    /// Credit a finished segment's iterations, complete any sequences that
    /// produced their last token, and start the next segment.
    fn serve_segment_complete(&mut self, sid: ServingId, rep: usize) {
        let now_ns = self.now.0;
        let mut finished_lats: Vec<u64> = Vec::new();
        {
            let job = self.serving.get_mut(&sid).expect("segment on live job");
            let slo_ns = job.slo_ns;
            let r = &mut job.replicas[rep];
            let k = r.seg_iters;
            r.busy = false;
            r.net_pending = false;
            r.seg_iters = 0;
            r.seg_prompt = 0;
            let mut freed_kv = 0.0;
            let mut met = 0u64;
            r.batch.retain_mut(|f| {
                f.remaining = f.remaining.saturating_sub(k);
                if f.remaining > 0 {
                    return true;
                }
                freed_kv += f.kv;
                let lat = now_ns - f.arrived.0;
                finished_lats.push(lat);
                job.latencies.push((f.req.id, lat));
                if lat <= slo_ns {
                    met += 1;
                }
                false
            });
            let r = &mut job.replicas[rep];
            r.kv_used = (r.kv_used - freed_kv).max(0.0);
            job.slo_met += met;
        }
        if let (Some((rec, _)), false) = (&self.obs, finished_lats.is_empty()) {
            for lat in &finished_lats {
                rec.observe("platform/serve/latency_us", lat / 1_000);
            }
        }
        self.serve_segment_start(sid, rep);
    }

    fn note_serve(&self, what: &str) {
        if let (Some((rec, _)), Some(track)) = (&self.obs, self.serve_track) {
            rec.instant(track, what, self.now.0, 1.0);
        }
    }
}
