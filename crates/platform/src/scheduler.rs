//! Event-driven time-sharing scheduling (§VI-C).
//!
//! "Users submit tasks ... and the platform interrupts and loads tasks
//! according to current resource requirements, cluster busyness, etc."
//! Tasks follow the breakpoint-continue protocol: accept the interruption
//! signal, save a checkpoint, notify the cluster, and later recover from
//! the checkpoint. Nodes are not pooled but "classified and marked based
//! on computing nodes as basic units, according to resource types, network
//! areas" — here, zones. The scheduler enforces the §III-B rule that at
//! most one running task spans both fat-tree zones.
//!
//! The platform advances on [`ff_desim`] simulated time and runs in one of
//! two modes, chosen at build time by [`PlatformConfig`]:
//!
//! * **Declared** (no cluster model): each task declares its work in
//!   seconds and runs for exactly that long. Progress, periodic
//!   checkpoints and interruptions are computed analytically, so a 30-day
//!   operations run costs O(scheduling events), not O(seconds).
//! * **Fluid** (a [`ClusterModel`] is attached): each unit of work is one
//!   *training step* whose gradient-allreduce ring and periodic
//!   checkpoint shards become real flows on the shared bandwidth model
//!   ([`ff_reduce::jobflow`]) and real records on 3FS chains. Step
//!   duration, queueing delay and preemption cost then *emerge* from
//!   contention between jobs, storage traffic, degraded links and
//!   failures instead of being declared.
//!
//! Node failures flow through the cluster manager's health lifecycle
//! (Healthy → Suspect → Quarantined → Validating → Healthy, §VI-B3) and a
//! failed node's task rolls back to its last durable checkpoint — the
//! §VII-A claim that "only the last 5 minutes of progress are lost".

use crate::detector::{Detector, DetectorConfig};
use ff_3fs::target::Disk;
use ff_3fs::{Chain, ChunkId, ClusterManager, HealthState, ServiceRole, StorageTarget};
use ff_desim::envelope::Envelope;
use ff_desim::fluid::FluidSim;
use ff_desim::{EventQueue, FlowId, ResourceId, Route, SimDuration, SimTime};
use ff_failures::plan::FLASH_CUT_FACTOR;
use ff_failures::{FaultAction, FaultPlan, GrayFault, GrayPlan};
use ff_obs::{Recorder, TrackId};
use ff_reduce::{jobflow, ClusterModel};
use ff_util::bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seconds between a node falling suspect and the manager confirming the
/// failure (hostping + heartbeat loss, §VII-A's detection path).
const DETECT_CONFIRM_S: u64 = 2;

/// Seconds an IB flash cut leaves a link degraded before the subnet
/// manager re-trains it.
const FLASH_CUT_REPAIR_S: u64 = 90;

/// Identifies a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Task lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for nodes.
    Queued,
    /// Running on assigned nodes.
    Running,
    /// Received the interruption signal and is writing its checkpoint
    /// before releasing its nodes (fluid mode only — declared-mode
    /// checkpoints are instantaneous).
    Interrupting,
    /// Interrupted (preempted); will resume from its checkpoint.
    Interrupted,
    /// Finished all its work.
    Succeeded,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The job asked for zero nodes.
    ZeroNodes,
    /// The job declared zero work.
    ZeroWork,
    /// The job needs more nodes than the cluster has — it could never be
    /// placed, even with every other task preempted.
    TooLarge {
        /// Nodes the job asked for.
        need: usize,
        /// Compute nodes in the whole cluster.
        cluster: usize,
    },
    /// A serving trace contains a request whose full KV-cache footprint
    /// exceeds the per-replica budget — it could never be admitted.
    KvOverflow {
        /// Largest single-request KV footprint in the trace.
        need_bytes: u64,
        /// Configured per-replica KV capacity.
        capacity_bytes: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ZeroNodes => write!(f, "job requests zero nodes"),
            SubmitError::ZeroWork => write!(f, "job declares zero work"),
            SubmitError::TooLarge { need, cluster } => {
                write!(f, "job needs {need} nodes but the cluster has {cluster}")
            }
            SubmitError::KvOverflow {
                need_bytes,
                capacity_bytes,
            } => {
                write!(
                    f,
                    "a request needs {need_bytes} KV bytes but a replica holds {capacity_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for ff_util::FfError {
    fn from(e: SubmitError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Sched, e.to_string(), e)
    }
}

/// Why a [`PlatformConfig`] could not build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The configuration yields no compute nodes at all.
    NoNodes,
    /// More storage nodes were reserved than the cluster model has.
    StorageExceedsCluster {
        /// Storage nodes requested.
        storage: usize,
        /// Nodes in the cluster model.
        nodes: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "platform has no compute nodes"),
            ConfigError::StorageExceedsCluster { storage, nodes } => {
                write!(
                    f,
                    "{storage} storage nodes leave no compute nodes in a {nodes}-node cluster"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for ff_util::FfError {
    fn from(e: ConfigError) -> Self {
        ff_util::FfError::with_source(ff_util::FfKind::Config, e.to_string(), e)
    }
}

/// A job submission: name, shape and traffic profile.
///
/// Work is measured in *units*: seconds of runtime in declared mode,
/// training steps in fluid mode. The traffic fields only matter in fluid
/// mode, where they size the allreduce and checkpoint flows.
#[derive(Debug, Clone)]
pub struct JobSpec {
    name: String,
    nodes: usize,
    work: u64,
    priority: i32,
    step_bytes: f64,
    ckpt_bytes: f64,
}

impl JobSpec {
    /// A job named `name` over `nodes` nodes performing `work` units.
    /// Defaults: priority 0, 128 MiB of gradients per step, 1 GiB of
    /// checkpoint state.
    pub fn new(name: impl Into<String>, nodes: usize, work: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            nodes,
            work,
            priority: 0,
            step_bytes: (128u64 << 20) as f64,
            ckpt_bytes: (1u64 << 30) as f64,
        }
    }

    /// Scheduling priority — higher preempts lower.
    pub fn priority(mut self, p: i32) -> JobSpec {
        self.priority = p;
        self
    }

    /// Gradient bytes allreduced per training step (fluid mode).
    pub fn step_bytes(mut self, bytes: f64) -> JobSpec {
        self.step_bytes = bytes;
        self
    }

    /// Checkpoint bytes written per save, sharded over the job's nodes
    /// (fluid mode).
    pub fn ckpt_bytes(mut self, bytes: f64) -> JobSpec {
        self.ckpt_bytes = bytes;
        self
    }
}

/// Builder for [`Platform`].
///
/// ```
/// use ff_platform::{JobSpec, PlatformConfig, TaskState};
/// let mut p = PlatformConfig::new()
///     .zones([4, 4])
///     .ckpt_interval(300)
///     .build()
///     .unwrap();
/// let job = p.submit(JobSpec::new("train", 4, 3600)).unwrap();
/// assert_eq!(p.state(job), Some(TaskState::Running));
/// p.tick(3600);
/// assert_eq!(p.state(job), Some(TaskState::Succeeded));
/// ```
#[derive(Default)]
pub struct PlatformConfig {
    zones: [usize; 2],
    ckpt_interval: u64,
    cluster: Option<ClusterModel>,
    storage_nodes: usize,
    recorder: Option<Arc<Recorder>>,
    repair_delay_s: u64,
    validation_s: u64,
    solver_threads: usize,
    replication: usize,
    detector: Option<DetectorConfig>,
}

impl PlatformConfig {
    /// An empty configuration: declared mode, no nodes yet, 300-unit
    /// checkpoint cadence (§VII-A: every 5 minutes).
    pub fn new() -> PlatformConfig {
        PlatformConfig {
            zones: [0, 0],
            ckpt_interval: 300,
            cluster: None,
            storage_nodes: 0,
            recorder: None,
            repair_delay_s: 3600,
            validation_s: 60,
            solver_threads: 1,
            replication: 2,
            detector: None,
        }
    }

    /// Attach a signal-driven gray-failure detector (hai-monitor style):
    /// the platform runs periodic probe sweeps, watches heartbeat jitter
    /// and step-time EWMAs, and quarantines nodes on confirmed suspect
    /// verdicts — with detection latency, false positives and false
    /// negatives set by `cfg`. Nodes readmitted after a detector
    /// quarantine pass through the probation state with per-node
    /// exponential backoff on repeated flaps.
    pub fn detector(mut self, cfg: DetectorConfig) -> PlatformConfig {
        self.detector = Some(cfg);
        self
    }

    /// Worker threads for the fluid bandwidth solver (fluid mode only).
    /// Results are bit-identical at any thread count; this only trades
    /// wall-clock for cores on large clusters.
    pub fn solver_threads(mut self, n: usize) -> PlatformConfig {
        self.solver_threads = n.max(1);
        self
    }

    /// Compute nodes per fat-tree zone (declared mode). Ignored when a
    /// cluster model is attached — zones then come from the model.
    pub fn zones(mut self, per_zone: [usize; 2]) -> PlatformConfig {
        self.zones = per_zone;
        self
    }

    /// Checkpoint cadence in work units (seconds declared / steps fluid).
    pub fn ckpt_interval(mut self, units: u64) -> PlatformConfig {
        self.ckpt_interval = units;
        self
    }

    /// Attach a bandwidth cluster model: the platform switches to fluid
    /// mode, where training and checkpoint traffic are simulated flows.
    pub fn cluster(mut self, model: ClusterModel) -> PlatformConfig {
        self.cluster = Some(model);
        self
    }

    /// How many nodes at the tail of the cluster model serve as 3FS
    /// storage nodes instead of compute (fluid mode). `0` picks
    /// `max(1, nodes/25)`, roughly the paper's 1:25 storage:compute ratio.
    pub fn storage_nodes(mut self, n: usize) -> PlatformConfig {
        self.storage_nodes = n;
        self
    }

    /// Record scheduling activity on a `platform/sched` observability
    /// track of this recorder.
    pub fn recorder(mut self, rec: Arc<Recorder>) -> PlatformConfig {
        self.recorder = Some(rec);
        self
    }

    /// Seconds from a confirmed node failure to the repaired node entering
    /// validation (auto-repair path used by injected fault plans).
    pub fn repair_delay_s(mut self, s: u64) -> PlatformConfig {
        self.repair_delay_s = s;
        self
    }

    /// Seconds a repaired node spends in validation before rejoining.
    pub fn validation_s(mut self, s: u64) -> PlatformConfig {
        self.validation_s = s;
        self
    }

    /// 3FS chain replication factor for checkpoint chains (fluid mode):
    /// each chain places its head on one storage host and `r - 1` mirrors
    /// on the following hosts. Clamped to `1..=storage hosts`; the default
    /// of 2 is the paper's head+mirror CRAQ deployment. `r = 1` means no
    /// redundancy — a storage-host loss takes its chains' checkpoints with
    /// it until repair.
    pub fn replication(mut self, r: usize) -> PlatformConfig {
        self.replication = r.max(1);
        self
    }

    /// Build the platform.
    pub fn build(self) -> Result<Platform, ConfigError> {
        let manager = ClusterManager::new(30_000, 10_000);
        let mut nodes = Vec::new();
        let mut engine = None;
        if let Some(mut cluster) = self.cluster {
            cluster.fluid.set_threads(self.solver_threads);
            let total = cluster.nodes();
            let storage = if self.storage_nodes == 0 {
                (total / 25).max(1)
            } else {
                self.storage_nodes
            };
            if storage >= total {
                return Err(ConfigError::StorageExceedsCluster {
                    storage,
                    nodes: total,
                });
            }
            let compute = total - storage;
            for i in 0..compute {
                nodes.push(Node {
                    zone: cluster.zone_of(i),
                    up: true,
                    running: None,
                    gen: 0,
                });
            }
            let storage_hosts: Vec<usize> = (compute..total).collect();
            // One CRAQ chain per storage host; member k of chain j lands
            // on host (j + k) % storage, so `replication - 1` mirrors
            // spread over the following hosts and a single host loss
            // never loses checkpoints (at the default factor of 2).
            let repl = self.replication.min(storage);
            let mut host_targets: Vec<Vec<(usize, Arc<StorageTarget>)>> = vec![Vec::new(); storage];
            let mut chains = Vec::new();
            for j in 0..storage {
                let mut members = Vec::with_capacity(repl);
                for k in 0..repl {
                    let m = (j + k) % storage;
                    let t = StorageTarget::new(format!("s{m}.c{j}"), Disk::new(64 << 20));
                    host_targets[m].push((j, t.clone()));
                    members.push(t);
                }
                let chain = Chain::new(j, members);
                if let Some(rec) = &self.recorder {
                    chain.attach_recorder(rec, &format!("platform/ckpt-chain{j}"));
                }
                chains.push(chain);
            }
            for j in 0..storage {
                manager.register(storage_name(j), ServiceRole::Storage);
            }
            engine = Some(FluidEngine {
                cluster,
                storage_hosts,
                storage_up: vec![true; storage],
                chains,
                host_targets,
                flow_owner: BTreeMap::new(),
            });
        } else {
            for (z, &n) in self.zones.iter().enumerate() {
                nodes.extend((0..n).map(|_| Node {
                    zone: z as u8,
                    up: true,
                    running: None,
                    gen: 0,
                }));
            }
        }
        if nodes.is_empty() {
            return Err(ConfigError::NoNodes);
        }
        for i in 0..nodes.len() {
            manager.register(node_name(i), ServiceRole::Compute);
        }
        let up_nodes = nodes.len();
        let obs = self.recorder.map(|rec| {
            let t = rec.track("platform/sched");
            (rec, t)
        });
        let mut timers = EventQueue::new();
        let detector = self.detector.map(|cfg| {
            timers.schedule(
                SimTime(0) + SimDuration::from_secs(cfg.probe_period_s),
                Ev::DetectorSweep,
            );
            Detector::new(cfg)
        });
        let flaps = vec![0u32; nodes.len()];
        Ok(Platform {
            now: SimTime(0),
            ckpt_interval: self.ckpt_interval.max(1),
            nodes,
            tasks: BTreeMap::new(),
            next_id: 1,
            timers,
            manager,
            engine,
            repair_delay_s: self.repair_delay_s,
            validation_s: self.validation_s.max(1),
            busy_node_ns: 0,
            healthy_node_ns: 0,
            busy_nodes: 0,
            up_nodes,
            lost_work: 0,
            preemptions: 0,
            failures: 0,
            recovering: BTreeMap::new(),
            recovery_s: Vec::new(),
            obs,
            serve_track: None,
            serving: BTreeMap::new(),
            next_serving: 1,
            dirty: false,
            detector,
            gray: None,
            flaps,
            detector_quarantines: 0,
        })
    }
}

fn node_name(i: usize) -> String {
    format!("node{i:04}")
}

fn storage_name(j: usize) -> String {
    format!("sched-s{j}")
}

/// The two per-node resources gray faults act on and probe sweeps
/// measure: the node's memory bus (compute-side, first hop of its IB
/// send route) and its NIC uplink (last hop).
fn node_probe_resources(eng: &FluidEngine, node: usize) -> (ResourceId, ResourceId) {
    let route = eng.cluster.hw[node].ib_send(0);
    let mem = route.0.first().expect("IB route has hops").0;
    let nic = route.0.last().expect("IB route has hops").0;
    (mem, nic)
}

/// A hostping-style active probe: saturate `r` with a greedy flow for
/// zero simulated time and read off the achievable load — the effective
/// (possibly degraded) capacity, measured rather than peeked at.
fn probe_resource(fluid: &mut FluidSim, r: ResourceId) -> f64 {
    let f = fluid.start_flow(1e12, &Route::unit([r]));
    let measured = fluid.resource_load(r);
    fluid.cancel_flow(f);
    measured
}

/// Wall-clock for `remaining` declared work units under a gray compute
/// stretch, keeping the exact integer path when nominal.
fn stretched_secs(remaining: u64, stretch: f64) -> SimDuration {
    if stretch == 1.0 {
        SimDuration::from_secs(remaining)
    } else {
        SimDuration::from_secs_f64(remaining as f64 * stretch)
    }
}

/// Who occupies a compute node: a (preemptible) training task or a
/// (non-preemptible) serving replica. Keeping the two in one typed slot
/// makes it impossible for victim selection — which only ever walks the
/// training task map — to evict a serving replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Owner {
    /// A training task from [`Platform::submit`].
    Train(TaskId),
    /// Replica `.1` of serving job `.0` from [`Platform::submit_serving`].
    Serve(crate::serving::ServingId, u32),
}

/// What a fluid-mode task is currently doing on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Restore,
    Step,
    Ckpt,
}

#[derive(Debug, Clone)]
struct Task {
    name: String,
    need: usize,
    priority: i32,
    /// Total work in units (seconds declared / steps fluid).
    work: u64,
    step_bytes: f64,
    ckpt_bytes: f64,
    state: TaskState,
    assigned: Vec<usize>,
    /// Fluid mode: the ring routes of one allreduce step over `assigned`.
    /// Routing is static, so they are built at placement and dropped at
    /// release together with the nodes; every step starts them as-is.
    step_routes: Vec<Route>,
    cross_zone: bool,
    /// Committed completed work. In declared mode this is only updated at
    /// scheduling events; [`Platform::progress`] adds the elapsed run time.
    progress: u64,
    /// Progress captured by the last (durable) checkpoint.
    ckpt: u64,
    /// The checkpoint before that — the fallback when the latest one turns
    /// out corrupt.
    prev_ckpt: u64,
    /// Set by a silent-corruption fault: the latest checkpoint cannot be
    /// trusted and recovery must fall back one interval.
    ckpt_poisoned: bool,
    placed_at: SimTime,
    /// Bumped on every placement/release; stale timer events carry the old
    /// epoch and are dropped.
    epoch: u64,
    phase: Phase,
    flows: Vec<FlowId>,
    /// Durable checkpoint records written so far (fluid mode); the latest
    /// lives at chunk index `ckpt_seq - 1`.
    ckpt_seq: u64,
    /// State to enter once the in-flight checkpoint completes (the
    /// interruption-signal protocol's hand-off).
    pending: Option<TaskState>,
    /// Declared-mode wall-clock stretch from gray compute degradation on
    /// the task's assigned nodes: each work unit takes `stretch` seconds
    /// (1.0 = nominal, the fast integer-arithmetic path).
    stretch: f64,
    /// When the in-flight training step started (fluid mode) — the
    /// detector's step-time signal.
    step_started: SimTime,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) zone: u8,
    pub(crate) up: bool,
    pub(crate) running: Option<Owner>,
    /// Bumped on every fail/heal; stale timer events are dropped.
    gen: u64,
}

/// Timer events driving the platform.
pub(crate) enum Ev {
    /// A declared-mode task finishes its remaining work.
    TaskDone { id: TaskId, epoch: u64 },
    /// Failure detection confirms a suspect node (Suspect → Quarantined).
    ConfirmFail { node: usize, gen: u64 },
    /// A quarantined node's repair completes; validation begins.
    RepairDone { node: usize, gen: u64 },
    /// Validation passes; the node rejoins the pool.
    ValidationDone { node: usize, gen: u64 },
    /// An injected fault from a [`FaultPlan`] lands.
    Fault { node: usize, action: FaultAction },
    /// A flash-cut link re-trains to full capacity.
    LinkRestore { node: usize },
    /// A failed storage host comes back and its targets re-sync.
    StorageRepair { host: usize },
    /// The next request of a serving job's arrival trace lands.
    ServeArrive { sid: crate::serving::ServingId },
    /// A serving replica's in-flight decode segment finishes its compute
    /// time (declared: the segment is done; fluid: the tensor-parallel
    /// flows start now). Stale epochs are dropped.
    ServeSeg {
        sid: crate::serving::ServingId,
        rep: u32,
        epoch: u64,
    },
    /// A gray-fault envelope phase boundary: the node's link and/or
    /// memory-bus capacity factors step to new values (`None` leaves a
    /// factor unchanged).
    GrayPhase {
        node: usize,
        link: Option<f64>,
        mem: Option<f64>,
    },
    /// The detector's periodic probe sweep over all up nodes.
    DetectorSweep,
    /// A readmitted node's probation window ends cleanly.
    ProbationEnd { node: usize, gen: u64 },
}

/// Per-node gray degradation factors, realized from applied
/// [`GrayPlan`]s. `link` scales the node's NIC capacity, `mem` its
/// memory-bus (compute-side) capacity; `1.0` everywhere means nominal.
/// Allocated lazily by the first [`Platform::apply_gray_plan`] so
/// gray-free runs carry no state (and keep their digests).
struct GrayState {
    link: Vec<f64>,
    mem: Vec<f64>,
}

/// Fluid-mode machinery: the bandwidth model, the storage pool and the
/// flow → owner ownership map.
pub(crate) struct FluidEngine {
    pub(crate) cluster: ClusterModel,
    /// Absolute node indices (in the cluster model) serving storage.
    storage_hosts: Vec<usize>,
    storage_up: Vec<bool>,
    chains: Vec<Arc<Chain>>,
    /// Per storage-pool index: the (chain, target) replicas it hosts.
    host_targets: Vec<Vec<(usize, Arc<StorageTarget>)>>,
    pub(crate) flow_owner: BTreeMap<FlowId, Owner>,
}

impl FluidEngine {
    fn alive_storage(&self) -> Vec<usize> {
        self.storage_hosts
            .iter()
            .enumerate()
            .filter(|&(j, _)| self.storage_up[j])
            .map(|(_, &h)| h)
            .collect()
    }
}

/// The scheduling platform — see the module docs for the two modes.
pub struct Platform {
    pub(crate) now: SimTime,
    ckpt_interval: u64,
    pub(crate) nodes: Vec<Node>,
    tasks: BTreeMap<TaskId, Task>,
    next_id: u64,
    pub(crate) timers: EventQueue<Ev>,
    manager: Arc<ClusterManager>,
    pub(crate) engine: Option<FluidEngine>,
    repair_delay_s: u64,
    validation_s: u64,
    busy_node_ns: u128,
    healthy_node_ns: u128,
    pub(crate) busy_nodes: usize,
    up_nodes: usize,
    /// Work lost to failures, in node-units.
    lost_work: u64,
    preemptions: u64,
    failures: u64,
    /// Tasks rolled back by a failure and not yet re-placed, with the
    /// rollback time — the open end of a recovery interval.
    recovering: BTreeMap<TaskId, SimTime>,
    /// Closed failure-recovery intervals: whole seconds from a failure
    /// rollback to the task running again, one entry per recovery.
    recovery_s: Vec<u64>,
    pub(crate) obs: Option<(Arc<Recorder>, TrackId)>,
    /// Lazily-created `platform/serve` observability track (created on the
    /// first serving submission so train-only runs keep their digests).
    pub(crate) serve_track: Option<TrackId>,
    pub(crate) serving: BTreeMap<crate::serving::ServingId, crate::serving::ServingJob>,
    pub(crate) next_serving: u64,
    pub(crate) dirty: bool,
    /// The signal-driven gray-failure detector, when configured.
    detector: Option<Detector>,
    /// Current gray degradation factors (lazily allocated).
    gray: Option<GrayState>,
    /// Per-node count of detector quarantines, decayed on clean
    /// probation — the exponent of the adaptive readmission backoff.
    flaps: Vec<u32>,
    /// Nodes quarantined by detector verdicts (as opposed to hard
    /// failures) so far.
    detector_quarantines: u64,
}

impl Platform {
    /// Submit a job. It is placed immediately if resources allow,
    /// otherwise queued (possibly preempting lower-priority tasks).
    pub fn submit(&mut self, spec: JobSpec) -> Result<TaskId, SubmitError> {
        if spec.nodes == 0 {
            return Err(SubmitError::ZeroNodes);
        }
        if spec.work == 0 {
            return Err(SubmitError::ZeroWork);
        }
        if spec.nodes > self.nodes.len() {
            return Err(SubmitError::TooLarge {
                need: spec.nodes,
                cluster: self.nodes.len(),
            });
        }
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.tasks.insert(
            id,
            Task {
                name: spec.name,
                need: spec.nodes,
                priority: spec.priority,
                work: spec.work,
                step_bytes: spec.step_bytes,
                ckpt_bytes: spec.ckpt_bytes,
                state: TaskState::Queued,
                assigned: Vec::new(),
                step_routes: Vec::new(),
                cross_zone: false,
                progress: 0,
                ckpt: 0,
                prev_ckpt: 0,
                ckpt_poisoned: false,
                placed_at: self.now,
                epoch: 0,
                phase: Phase::Idle,
                flows: Vec::new(),
                ckpt_seq: 0,
                pending: None,
                stretch: 1.0,
                step_started: self.now,
            },
        );
        self.schedule_now();
        Ok(id)
    }

    /// Advance simulated time by `dt_s` seconds, processing every
    /// scheduling event (completions, failures, repairs, flow endings) on
    /// the way.
    pub fn tick(&mut self, dt_s: u64) {
        self.run_for(SimDuration::from_secs(dt_s));
    }

    /// Advance simulated time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// Advance simulated time to `t` (which must not be in the past).
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t.0 >= self.now.0, "cannot run the platform backwards");
        loop {
            let timer_next = self.timers.peek_time();
            let fluid_next = self
                .engine
                .as_mut()
                .and_then(|e| e.cluster.fluid.next_completion_time());
            let next = match (timer_next, fluid_next) {
                (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
                (a, b) => a.or(b),
            };
            match next {
                Some(n) if n.0 <= t.0 => {
                    self.advance_to(n);
                    // Timers first: a failure at t must cancel flows before
                    // the fluid sim hands us their completions at t.
                    while self.timers.peek_time() == Some(n) {
                        let (_, ev) = self.timers.pop().expect("peeked event exists");
                        self.handle_event(ev);
                    }
                    // Re-peek each round — handlers may have canceled flows.
                    loop {
                        let due = self
                            .engine
                            .as_mut()
                            .and_then(|e| e.cluster.fluid.next_completion_time());
                        if due != Some(n) {
                            break;
                        }
                        let done = self
                            .engine
                            .as_mut()
                            .and_then(|e| e.cluster.fluid.advance_to_next_completion())
                            .map(|(_, f)| f)
                            .unwrap_or_default();
                        self.handle_flows(done);
                    }
                    if self.dirty {
                        self.schedule_now();
                    }
                }
                _ => {
                    self.advance_to(t);
                    break;
                }
            }
        }
        if self.dirty {
            self.schedule_now();
        }
    }

    /// Move the clock (and the fluid sim) to `t`, integrating busy and
    /// healthy node-time on the way.
    fn advance_to(&mut self, t: SimTime) {
        let dt = (t.0 - self.now.0) as u128;
        if dt == 0 {
            return;
        }
        self.busy_node_ns += self.busy_nodes as u128 * dt;
        self.healthy_node_ns += self.up_nodes as u128 * dt;
        self.now = t;
        if let Some(e) = self.engine.as_mut() {
            e.cluster.fluid.advance_to(t);
        }
    }

    // ----- failures and repairs ------------------------------------------

    /// A node fails *now*: the task running on it rolls back to its last
    /// durable checkpoint and re-queues (§VII-A: "only the last 5 minutes
    /// of progress are lost"), and the node enters the Suspect →
    /// Quarantined health lifecycle. The node stays out of the pool until
    /// [`Platform::heal_node`] (operator repair) — injected fault plans
    /// auto-repair instead.
    pub fn fail_node(&mut self, node: usize) {
        self.fail_node_internal(node, false);
        self.schedule_now();
    }

    fn fail_node_internal(&mut self, node: usize, auto_repair: bool) {
        if !self.nodes[node].up {
            return;
        }
        self.nodes[node].up = false;
        self.up_nodes -= 1;
        self.nodes[node].gen += 1;
        let gen = self.nodes[node].gen;
        self.failures += 1;
        self.manager.mark_suspect(&node_name(node));
        self.note("node-fail");
        self.timers.schedule(
            self.now + SimDuration::from_secs(DETECT_CONFIRM_S),
            Ev::ConfirmFail { node, gen },
        );
        match self.nodes[node].running {
            Some(Owner::Train(id)) => self.rollback_and_requeue(id),
            Some(Owner::Serve(sid, rep)) => self.serve_replica_down(sid, rep),
            None => {}
        }
        if auto_repair {
            let delay = self.repair_delay_s.max(DETECT_CONFIRM_S + 1);
            self.timers.schedule(
                self.now + SimDuration::from_secs(delay),
                Ev::RepairDone { node, gen },
            );
        }
        self.dirty = true;
    }

    /// Return a repaired node to the pool immediately (the operator path:
    /// repair + validation have already happened off-line). A no-op on
    /// healthy nodes, so sweeps may call it unconditionally.
    pub fn heal_node(&mut self, node: usize) {
        if self.nodes[node].up {
            return;
        }
        self.nodes[node].gen += 1; // invalidate pending repair timers
        let name = node_name(node);
        if self.manager.health(&name) == Some(HealthState::Suspect) {
            self.manager.mark_failed(&name);
        }
        if self.manager.health(&name) == Some(HealthState::Quarantined) {
            self.manager.begin_validation(&name);
        }
        self.manager.conclude_validation(&name, true);
        self.nodes[node].up = true;
        self.up_nodes += 1;
        self.note("node-rejoin");
        self.schedule_now();
    }

    /// Schedule every fault in `plan` for injection at its planned time
    /// (clamped to now at the earliest). Failed nodes auto-repair after
    /// the configured repair delay and re-validate before rejoining.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for f in &plan.faults {
            let at_ns = if f.at_s <= 0.0 {
                0
            } else {
                (f.at_s * 1e9) as u64
            };
            let at = SimTime(at_ns.max(self.now.0));
            self.timers.schedule(
                at,
                Ev::Fault {
                    node: f.node,
                    action: f.action,
                },
            );
        }
    }

    /// Schedule every gray episode in `plan` (clamped to now at the
    /// earliest). Each episode expands into a piecewise-constant
    /// [`Envelope`] replayed as timer events: a straggler or thermal
    /// throttle stretches the node's compute (memory-bus capacity in
    /// fluid mode, wall-clock stretch in declared mode), a flapping link
    /// square-waves the node's NIC between nominal and the flash-cut
    /// trickle. Nothing is announced to the scheduler or the health
    /// machine — only the configured detector can notice, from signals.
    pub fn apply_gray_plan(&mut self, plan: &GrayPlan) {
        for e in &plan.events {
            let node = e.node % self.nodes.len();
            let start_ns = if e.at_s <= 0.0 {
                0
            } else {
                (e.at_s * 1e9) as u64
            };
            let start = SimTime(start_ns.max(self.now.0));
            let (env, is_link) = match e.fault {
                GrayFault::Straggler {
                    slowdown,
                    onset_ramp_s,
                } => (
                    Envelope::ramp(1.0 / slowdown, onset_ramp_s, e.duration_s),
                    false,
                ),
                GrayFault::ThermalThrottle {
                    factor,
                    onset_ramp_s,
                } => (Envelope::ramp(factor, onset_ramp_s, e.duration_s), false),
                GrayFault::FlappingLink { period_s, duty } => (
                    Envelope::square(period_s, duty, FLASH_CUT_FACTOR, e.duration_s),
                    true,
                ),
            };
            for ph in env.phases() {
                let (link, mem) = if is_link {
                    (Some(ph.factor), None)
                } else {
                    (None, Some(ph.factor))
                };
                self.timers
                    .schedule(start + ph.offset, Ev::GrayPhase { node, link, mem });
            }
        }
    }

    /// One gray envelope phase lands: update the node's factors and
    /// realize them — fluid mode degrades the node's NIC / memory-bus
    /// resources in the bandwidth model; declared mode re-times any
    /// running task on the node under the new compute stretch.
    fn apply_gray_phase(&mut self, node: usize, link: Option<f64>, mem: Option<f64>) {
        let n = self.nodes.len();
        let gray = self.gray.get_or_insert_with(|| GrayState {
            link: vec![1.0; n],
            mem: vec![1.0; n],
        });
        if let Some(f) = link {
            gray.link[node] = f;
        }
        if let Some(f) = mem {
            gray.mem[node] = f;
        }
        let (l, m) = (gray.link[node], gray.mem[node]);
        if self.engine.is_some() {
            self.with_engine(|_, eng| {
                let (mem_r, nic_r) = node_probe_resources(eng, node);
                if link.is_some() {
                    eng.cluster
                        .fluid
                        .modulate(nic_r, l)
                        .expect("gray link factor in (0, 1]");
                }
                if mem.is_some() {
                    eng.cluster
                        .fluid
                        .modulate(mem_r, m)
                        .expect("gray compute factor in (0, 1]");
                }
            });
        } else if mem.is_some() {
            self.resync_declared_node(node);
        }
        self.note("gray-phase");
    }

    /// The compute stretch a gray degradation imposes on `node`: steps
    /// there take `stretch ×` nominal wall-clock (1.0 when nominal).
    fn gray_stretch(&self, node: usize) -> f64 {
        self.gray.as_ref().map_or(1.0, |g| 1.0 / g.mem[node])
    }

    /// The link capacity factor gray degradation leaves on `node`.
    fn gray_link(&self, node: usize) -> f64 {
        self.gray.as_ref().map_or(1.0, |g| g.link[node])
    }

    /// The stretch of a declared-mode task: the slowest of its nodes
    /// (the synchronous-training property — every step waits for the
    /// straggler).
    fn assigned_stretch(&self, assigned: &[usize]) -> f64 {
        let mut s = 1.0f64;
        for &n in assigned {
            s = s.max(self.gray_stretch(n));
        }
        s
    }

    /// A gray phase boundary re-times the declared-mode task running on
    /// `node`: commit the analytically-earned progress, restart the
    /// clock under the new stretch, and reschedule completion. The
    /// runtime captures a synchronization checkpoint at the boundary
    /// (progress == ckpt), mirroring what [`try_place`] does on
    /// placement.
    fn resync_declared_node(&mut self, node: usize) {
        debug_assert!(self.engine.is_none());
        let Some(Owner::Train(id)) = self.nodes[node].running else {
            return;
        };
        if self.tasks[&id].state != TaskState::Running {
            return;
        }
        let live = self.live_progress(&self.tasks[&id]);
        let stretch = self.assigned_stretch(&self.tasks[&id].assigned);
        let t = self.tasks.get_mut(&id).expect("running task exists");
        t.progress = live;
        t.ckpt = live;
        t.placed_at = self.now;
        t.stretch = stretch;
        t.epoch += 1;
        let epoch = t.epoch;
        let remaining = t.work - t.progress;
        self.timers.schedule(
            self.now + stretched_secs(remaining, stretch),
            Ev::TaskDone { id, epoch },
        );
    }

    /// Roll a running task back to its last durable checkpoint and
    /// re-queue it. With a poisoned checkpoint the rollback falls back one
    /// more interval (§VII-A: checksum-exposed corruption).
    fn rollback_and_requeue(&mut self, id: TaskId) {
        self.cancel_task_flows(id);
        let interval = self.ckpt_interval;
        let fluid = self.engine.is_some();
        let (live, target) = {
            let t = &self.tasks[&id];
            if fluid {
                let target = if t.ckpt_poisoned {
                    t.prev_ckpt.min(t.ckpt)
                } else {
                    t.ckpt
                };
                (t.progress, target)
            } else {
                let live = self.live_progress(t);
                let ck = self.live_ckpt(t);
                let target = if t.ckpt_poisoned {
                    ck.saturating_sub(interval).max(t.progress)
                } else {
                    ck
                };
                (live, target)
            }
        };
        let t = self.tasks.get_mut(&id).expect("rolled-back task exists");
        if t.ckpt_poisoned {
            t.ckpt_seq = t.ckpt_seq.saturating_sub(1);
        }
        self.lost_work += (live - target) * t.assigned.len() as u64;
        t.progress = target;
        t.ckpt = target;
        t.ckpt_poisoned = false;
        self.recovering.insert(id, self.now);
        self.note("rollback");
        self.release(id, TaskState::Queued);
    }

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::TaskDone { id, epoch } => {
                let valid = self
                    .tasks
                    .get(&id)
                    .is_some_and(|t| t.epoch == epoch && t.state == TaskState::Running);
                if valid {
                    let t = self.tasks.get_mut(&id).expect("checked above");
                    t.progress = t.work;
                    t.ckpt = t.work;
                    self.release(id, TaskState::Succeeded);
                }
            }
            Ev::ConfirmFail { node, gen } => {
                if self.nodes[node].gen == gen && !self.nodes[node].up {
                    self.manager.mark_failed(&node_name(node));
                    self.note("quarantine");
                }
            }
            Ev::RepairDone { node, gen } => {
                if self.nodes[node].gen == gen && !self.nodes[node].up {
                    let name = node_name(node);
                    if self.manager.health(&name) == Some(HealthState::Suspect) {
                        self.manager.mark_failed(&name);
                    }
                    self.manager.begin_validation(&name);
                    self.timers.schedule(
                        self.now + SimDuration::from_secs(self.validation_s),
                        Ev::ValidationDone { node, gen },
                    );
                }
            }
            Ev::ValidationDone { node, gen } => {
                if self.nodes[node].gen == gen && !self.nodes[node].up {
                    let name = node_name(node);
                    if let Some(det) = &self.detector {
                        // Detector mode: readmission goes through the
                        // probation leash instead of straight to Healthy.
                        self.manager.conclude_validation_to_probation(&name);
                        self.timers.schedule(
                            self.now + SimDuration::from_secs(det.config().probation_s.max(1)),
                            Ev::ProbationEnd { node, gen },
                        );
                        self.note("node-probation");
                    } else {
                        self.manager.conclude_validation(&name, true);
                        self.note("node-rejoin");
                    }
                    self.nodes[node].up = true;
                    self.up_nodes += 1;
                    self.dirty = true;
                }
            }
            Ev::ProbationEnd { node, gen } => {
                if self.nodes[node].gen == gen
                    && self.nodes[node].up
                    && self.manager.probation_pass(&node_name(node))
                {
                    // A clean probation decays the flap backoff.
                    self.flaps[node] = self.flaps[node].saturating_sub(1);
                    self.note("node-rejoin");
                }
            }
            Ev::GrayPhase { node, link, mem } => self.apply_gray_phase(node, link, mem),
            Ev::DetectorSweep => self.detector_sweep(),
            Ev::Fault { node, action } => self.handle_fault(node, action),
            Ev::ServeArrive { sid } => self.serve_arrival(sid),
            Ev::ServeSeg { sid, rep, epoch } => self.serve_seg_event(sid, rep, epoch),
            Ev::LinkRestore { node } => {
                if let Some(eng) = self.engine.as_mut() {
                    if let Some(&(r, _)) = eng.cluster.hw[node].ib_send(0).0.last() {
                        eng.cluster
                            .fluid
                            .restore(r)
                            .expect("cluster IB resource registered");
                    }
                }
                self.note("link-restored");
            }
            Ev::StorageRepair { host } => self.repair_storage_host(host),
        }
    }

    fn handle_fault(&mut self, node: usize, action: FaultAction) {
        match action {
            FaultAction::KillRank { .. } => {
                let n = node % self.nodes.len();
                self.fail_node_internal(n, true);
            }
            FaultAction::DegradeLink { factor, .. } => {
                let n = node % self.nodes.len();
                if let Some(eng) = self.engine.as_mut() {
                    if let Some(&(r, _)) = eng.cluster.hw[n].ib_send(0).0.last() {
                        eng.cluster
                            .fluid
                            .degrade(r, factor)
                            .expect("fault plan degrade factor in (0, 1]");
                        self.timers.schedule(
                            self.now + SimDuration::from_secs(FLASH_CUT_REPAIR_S),
                            Ev::LinkRestore { node: n },
                        );
                    }
                }
                self.note("link-degraded");
            }
            FaultAction::CorruptData { .. } => {
                let n = node % self.nodes.len();
                // Serving replicas hold no checkpoints to poison; a flipped
                // bit in a KV cache surfaces as one bad response, not a
                // recovery hazard.
                if let Some(Owner::Train(id)) = self.nodes[n].running {
                    let t = self.tasks.get_mut(&id).expect("running task exists");
                    t.ckpt_poisoned = true;
                    self.note("ckpt-poisoned");
                }
            }
            FaultAction::Tolerate { .. } => {
                // In-band retries cost nothing visible in the trajectory,
                // which is exactly why they need their own counter — a
                // fleet quietly retrying thousands of NVLink errors looks
                // healthy until it is not.
                if let Some((rec, _)) = &self.obs {
                    rec.counter_add("platform/sched/tolerated", 1.0);
                }
                self.note("tolerated")
            }
            FaultAction::KillStorageTarget { target } => self.fail_storage_host(target),
        }
    }

    /// Kill a storage host: its targets die, affected chains shed the dead
    /// member and keep serving from the mirror, repair is scheduled.
    fn fail_storage_host(&mut self, target: usize) {
        let Some(eng) = self.engine.as_mut() else {
            self.note("storage-fault-ignored");
            return;
        };
        let host = target % eng.storage_hosts.len();
        if !eng.storage_up[host] {
            return;
        }
        eng.storage_up[host] = false;
        for (chain_idx, t) in &eng.host_targets[host] {
            t.fail();
            let chain = &eng.chains[*chain_idx];
            if chain.replicas() > 1 {
                chain.remove_dead();
            }
        }
        self.manager.mark_failed(&storage_name(host));
        self.timers.schedule(
            self.now + SimDuration::from_secs(self.repair_delay_s.max(1)),
            Ev::StorageRepair { host },
        );
        self.note("storage-host-fail");
    }

    fn repair_storage_host(&mut self, host: usize) {
        let Some(eng) = self.engine.as_mut() else {
            return;
        };
        if eng.storage_up[host] {
            return;
        }
        for (chain_idx, t) in &eng.host_targets[host] {
            let chain = &eng.chains[*chain_idx];
            if chain.target_names().iter().any(|n| n == t.name()) {
                // Still a member (the chain could not afford to drop it):
                // its data survives the outage.
                t.revive();
            } else {
                // Evicted: rejoin empty and let the chain re-sync it.
                t.wipe();
                t.revive();
                let _ = chain.add_replica(t.clone());
            }
        }
        eng.storage_up[host] = true;
        let name = storage_name(host);
        self.manager.begin_validation(&name);
        self.manager.conclude_validation(&name, true);
        self.note("storage-host-rejoin");
    }

    // ----- signal-driven detection ---------------------------------------

    /// One detector sweep: gather the observable signals for every up
    /// node — NIC and memory-bus probe throughput (measured in the fluid
    /// model by a hostping-style saturating probe; in declared mode the
    /// probes see the realized capacity factors directly) plus the
    /// heartbeat stretch ratio — feed them to the detector, and
    /// quarantine any node whose breach streak confirms. Down nodes are
    /// skipped and their learned state reset so rejoining hardware
    /// relearns a fresh baseline.
    fn detector_sweep(&mut self) {
        let Some(mut det) = self.detector.take() else {
            return;
        };
        let n = self.nodes.len();
        let mut samples: Vec<Option<[f64; 2]>> = vec![None; n];
        self.with_opt_engine(|p, mut eng| {
            for (node, slot) in samples.iter_mut().enumerate() {
                if !p.nodes[node].up {
                    continue;
                }
                *slot = Some(match eng.as_deref_mut() {
                    Some(eng) => {
                        let (mem_r, nic_r) = node_probe_resources(eng, node);
                        [
                            probe_resource(&mut eng.cluster.fluid, nic_r),
                            probe_resource(&mut eng.cluster.fluid, mem_r),
                        ]
                    }
                    // Declared mode has no bandwidth model; the probe
                    // measures the realized capacity factor of the path.
                    None => [p.gray_link(node), 1.0 / p.gray_stretch(node)],
                });
            }
        });
        let mut suspects = Vec::new();
        for (node, sample) in samples.into_iter().enumerate() {
            match sample {
                Some(m) => {
                    let hb = self.gray_stretch(node);
                    if det.sweep_node(self.now, node, m, hb) {
                        suspects.push(node);
                    }
                }
                None => det.reset_node(node),
            }
        }
        let period = det.config().probe_period_s;
        self.detector = Some(det);
        for node in suspects {
            if let Some((rec, _)) = &self.obs {
                rec.counter_add("platform/detector/suspects", 1.0);
            }
            self.note("detector-suspect");
            self.quarantine_from_detector(node);
        }
        self.timers
            .schedule(self.now + SimDuration::from_secs(period), Ev::DetectorSweep);
    }

    /// Act on a confirmed suspect verdict: pull the node from the pool
    /// exactly as a hard failure would (rollback / replica loss, Suspect
    /// → Quarantined confirmation), then hold it for the adaptive
    /// backoff — `quarantine_hold_s × 2^flaps` — before repair enters
    /// validation and the probation leash. The detector can be wrong;
    /// when it is, this is the false-quarantine capacity cost the bench
    /// measures.
    fn quarantine_from_detector(&mut self, node: usize) {
        if !self.nodes[node].up {
            return;
        }
        let cfg = *self
            .detector
            .as_ref()
            .expect("sweep only runs with a detector")
            .config();
        self.nodes[node].up = false;
        self.up_nodes -= 1;
        self.nodes[node].gen += 1;
        let gen = self.nodes[node].gen;
        self.detector_quarantines += 1;
        if let Some((rec, _)) = &self.obs {
            rec.counter_add("platform/detector/quarantines", 1.0);
        }
        self.manager.mark_suspect(&node_name(node));
        self.note("detector-quarantine");
        self.timers.schedule(
            self.now + SimDuration::from_secs(DETECT_CONFIRM_S),
            Ev::ConfirmFail { node, gen },
        );
        match self.nodes[node].running {
            Some(Owner::Train(id)) => self.rollback_and_requeue(id),
            Some(Owner::Serve(sid, rep)) => self.serve_replica_down(sid, rep),
            None => {}
        }
        let backoff = 1u64 << self.flaps[node].min(cfg.max_flap_backoff);
        self.flaps[node] += 1;
        let hold = (cfg.quarantine_hold_s.max(1) * backoff).max(DETECT_CONFIRM_S + 1);
        self.timers.schedule(
            self.now + SimDuration::from_secs(hold),
            Ev::RepairDone { node, gen },
        );
        self.dirty = true;
    }

    // ----- fluid-mode phases ---------------------------------------------

    /// Run `f` with the engine detached so it can borrow the rest of
    /// `self` freely. No-op (None) in declared mode.
    pub(crate) fn with_engine<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut FluidEngine) -> R,
    ) -> Option<R> {
        let mut eng = self.engine.take()?;
        let r = f(self, &mut eng);
        self.engine = Some(eng);
        Some(r)
    }

    /// Like [`with_engine`], but also runs `f` in declared mode (with
    /// `None`) — for code paths serving shares between the two modes.
    pub(crate) fn with_opt_engine<R>(
        &mut self,
        f: impl FnOnce(&mut Self, Option<&mut FluidEngine>) -> R,
    ) -> R {
        let mut eng = self.engine.take();
        let r = f(self, eng.as_mut());
        self.engine = eng;
        r
    }

    fn cancel_task_flows(&mut self, id: TaskId) {
        self.with_engine(|p, eng| {
            let t = p.tasks.get_mut(&id).expect("task exists");
            for f in t.flows.drain(..) {
                eng.flow_owner.remove(&f);
                eng.cluster.fluid.cancel_flow(f);
            }
            t.phase = Phase::Idle;
        });
    }

    /// Flow completions from the fluid sim: group by owner and fire phase
    /// transitions for owners whose whole flow set finished.
    fn handle_flows(&mut self, done: Vec<FlowId>) {
        self.with_engine(|p, eng| {
            let mut by_owner: BTreeMap<Owner, Vec<FlowId>> = BTreeMap::new();
            for f in done {
                if let Some(o) = eng.flow_owner.remove(&f) {
                    by_owner.entry(o).or_default().push(f);
                }
            }
            for (owner, fs) in by_owner {
                match owner {
                    Owner::Train(id) => {
                        let t = p.tasks.get_mut(&id).expect("flow owner exists");
                        t.flows.retain(|f| !fs.contains(f));
                        if t.flows.is_empty() {
                            p.phase_complete(eng, id);
                        }
                    }
                    Owner::Serve(sid, rep) => p.serve_flows_done(eng, sid, rep, &fs),
                }
            }
        });
    }

    fn phase_complete(&mut self, eng: &mut FluidEngine, id: TaskId) {
        let phase = self.tasks[&id].phase;
        match phase {
            Phase::Idle => {}
            Phase::Restore => {
                self.verify_restore(eng, id);
                self.start_step(eng, id);
            }
            Phase::Step => {
                if let Some(mut det) = self.detector.take() {
                    let dur = self.now.0 - self.tasks[&id].step_started.0;
                    if det.observe_step(self.now, id.0, dur) {
                        if let Some((rec, _)) = &self.obs {
                            rec.counter_add("platform/detector/slow_jobs", 1.0);
                        }
                        self.note("detector-slow-job");
                    }
                    self.detector = Some(det);
                }
                let t = self.tasks.get_mut(&id).expect("task exists");
                t.progress += 1;
                if t.progress >= t.work {
                    t.ckpt = t.work;
                    self.release(id, TaskState::Succeeded);
                } else if t.progress - t.ckpt >= self.ckpt_interval {
                    self.start_ckpt(eng, id);
                } else {
                    self.start_step(eng, id);
                }
            }
            Phase::Ckpt => {
                let durable = self.write_ckpt_record(eng, id);
                let t = self.tasks.get_mut(&id).expect("task exists");
                if durable {
                    t.prev_ckpt = t.ckpt;
                    t.ckpt = t.progress;
                    t.ckpt_seq += 1;
                    t.ckpt_poisoned = false;
                }
                if let Some(next) = t.pending.take() {
                    if next == TaskState::Interrupted {
                        // The interruption signal was honored: the job had
                        // the chance to save, so no work is lost.
                        t.ckpt = t.progress;
                    }
                    self.note("interrupt-complete");
                    self.release(id, next);
                } else if durable {
                    self.note("ckpt");
                    self.start_step(eng, id);
                } else {
                    self.note("ckpt-failed");
                    self.start_step(eng, id);
                }
            }
        }
    }

    fn start_step(&mut self, eng: &mut FluidEngine, id: TaskId) {
        let t = self.tasks.get_mut(&id).expect("task exists");
        let work = jobflow::ring_edge_bytes(t.assigned.len(), t.step_bytes).max(1.0);
        t.phase = Phase::Step;
        t.step_started = self.now;
        for route in &t.step_routes {
            let f = eng.cluster.fluid.start_flow(work, route);
            eng.flow_owner.insert(f, Owner::Train(id));
            t.flows.push(f);
        }
    }

    fn start_ckpt(&mut self, eng: &mut FluidEngine, id: TaskId) {
        let alive = eng.alive_storage();
        if alive.is_empty() {
            // Nowhere to write: skip this save and keep training; an
            // interrupt hand-off proceeds with the in-memory state.
            self.note("ckpt-skipped");
            let t = self.tasks.get_mut(&id).expect("task exists");
            if let Some(next) = t.pending.take() {
                if next == TaskState::Interrupted {
                    t.ckpt = t.progress;
                }
                self.release(id, next);
            } else {
                self.start_step(eng, id);
            }
            return;
        }
        let (assigned, ckpt_bytes) = {
            let t = &self.tasks[&id];
            (t.assigned.clone(), t.ckpt_bytes)
        };
        let routes = jobflow::ckpt_routes(&eng.cluster, &assigned, &alive);
        let work = (ckpt_bytes / assigned.len() as f64).max(1.0);
        let t = self.tasks.get_mut(&id).expect("task exists");
        t.phase = Phase::Ckpt;
        for route in &routes {
            let f = eng.cluster.fluid.start_flow(work, route);
            eng.flow_owner.insert(f, Owner::Train(id));
            t.flows.push(f);
        }
    }

    fn start_restore(&mut self, eng: &mut FluidEngine, id: TaskId) {
        let alive = eng.alive_storage();
        if alive.is_empty() {
            self.start_step(eng, id);
            return;
        }
        let (assigned, ckpt_bytes) = {
            let t = &self.tasks[&id];
            (t.assigned.clone(), t.ckpt_bytes)
        };
        let routes = jobflow::restore_routes(&eng.cluster, &assigned, &alive);
        let work = (ckpt_bytes / assigned.len() as f64).max(1.0);
        let t = self.tasks.get_mut(&id).expect("task exists");
        t.phase = Phase::Restore;
        for route in &routes {
            let f = eng.cluster.fluid.start_flow(work, route);
            eng.flow_owner.insert(f, Owner::Train(id));
            t.flows.push(f);
        }
    }

    /// Write this task's checkpoint record (task id, progress, sequence)
    /// to its 3FS chain. One retry after shedding dead members.
    fn write_ckpt_record(&mut self, eng: &mut FluidEngine, id: TaskId) -> bool {
        let (progress, seq) = {
            let t = &self.tasks[&id];
            (t.progress, t.ckpt_seq)
        };
        let chain = &eng.chains[id.0 as usize % eng.chains.len()];
        let mut data = Vec::with_capacity(24);
        data.extend_from_slice(&id.0.to_le_bytes());
        data.extend_from_slice(&progress.to_le_bytes());
        data.extend_from_slice(&seq.to_le_bytes());
        let chunk = ChunkId {
            ino: id.0,
            idx: seq,
        };
        let bytes = Bytes::copy_from_slice(&data);
        match chain.write(chunk, bytes.clone()) {
            Ok(_) => true,
            Err(_) => {
                if chain.replicas() > 1 {
                    chain.remove_dead();
                }
                chain.write(chunk, bytes).is_ok()
            }
        }
    }

    /// Cross-check the restored state against the durable record. Purely
    /// observational: a mismatch or degraded read is noted, not fatal.
    fn verify_restore(&mut self, eng: &mut FluidEngine, id: TaskId) {
        let (progress, seq) = {
            let t = &self.tasks[&id];
            (t.progress, t.ckpt_seq)
        };
        if seq == 0 {
            return;
        }
        let chain = &eng.chains[id.0 as usize % eng.chains.len()];
        match chain.read(ChunkId {
            ino: id.0,
            idx: seq - 1,
        }) {
            Ok(b) if b.len() == 24 => {
                let rec = u64::from_le_bytes(b.as_slice()[8..16].try_into().expect("8 bytes"));
                if rec != progress {
                    self.note("restore-mismatch");
                }
            }
            Ok(_) => self.note("restore-mismatch"),
            Err(_) => self.note("restore-degraded"),
        }
    }

    // ----- scheduling ----------------------------------------------------

    /// Deliver the interruption signal: checkpoint, then release.
    /// Declared-mode saves are instantaneous; fluid-mode tasks enter
    /// `Interrupting` and keep their nodes until the save lands on 3FS.
    pub(crate) fn signal_interrupt(&mut self, id: TaskId) {
        self.preemptions += 1;
        self.note("interrupt-signal");
        if self.engine.is_none() {
            let t = &self.tasks[&id];
            let live = self.live_progress(t);
            let t = self.tasks.get_mut(&id).expect("task exists");
            t.progress = live;
            t.ckpt = live;
            self.release(id, TaskState::Interrupted);
            return;
        }
        let phase = self.tasks[&id].phase;
        match phase {
            Phase::Step => {
                self.cancel_task_flows(id);
                let t = self.tasks.get_mut(&id).expect("task exists");
                t.pending = Some(TaskState::Interrupted);
                t.state = TaskState::Interrupting;
                self.with_engine(|p, eng| p.start_ckpt(eng, id));
            }
            Phase::Ckpt => {
                let t = self.tasks.get_mut(&id).expect("task exists");
                t.pending = Some(TaskState::Interrupted);
                t.state = TaskState::Interrupting;
            }
            Phase::Restore | Phase::Idle => {
                self.cancel_task_flows(id);
                self.release(id, TaskState::Interrupted);
            }
        }
    }

    /// Stop a task and free its nodes, entering `new_state`.
    fn release(&mut self, id: TaskId, new_state: TaskState) {
        let t = self.tasks.get_mut(&id).expect("task exists");
        let assigned = std::mem::take(&mut t.assigned);
        t.step_routes = Vec::new();
        let (name, placed_at, progress) = (t.name.clone(), t.placed_at, t.progress);
        t.cross_zone = false;
        t.state = new_state;
        t.phase = Phase::Idle;
        t.pending = None;
        t.epoch += 1;
        debug_assert!(t.flows.is_empty(), "released task has no live flows");
        for &n in &assigned {
            self.nodes[n].running = None;
        }
        self.busy_nodes -= assigned.len();
        self.dirty = true;
        if let Some((rec, track)) = &self.obs {
            rec.span(
                *track,
                &name,
                placed_at.0,
                self.now.0 - placed_at.0,
                progress as f64,
            );
        }
    }

    /// Priority scheduling with preemption and the cross-zone rule, plus
    /// backfill: smaller tasks run whenever nodes would otherwise idle.
    pub(crate) fn schedule_now(&mut self) {
        self.dirty = false;
        // Serving first: replicas are latency-bound and non-preemptible, so
        // they get first pick of free nodes (and may signal training
        // victims) before any training placement runs.
        self.schedule_serving();
        // Preemption pass for the highest-priority waiting task only.
        let top = self
            .tasks
            .iter()
            .filter(|(_, t)| matches!(t.state, TaskState::Queued | TaskState::Interrupted))
            .min_by_key(|(&id, t)| (-t.priority, id))
            .map(|(&id, t)| (id, t.need, t.priority));
        if let Some((id, need, prio)) = top {
            if !self.try_place(id, need) {
                // Count nodes already being freed by in-flight interrupts
                // before signaling more victims.
                let mut freed = self.free_up_count()
                    + self
                        .tasks
                        .values()
                        .filter(|t| t.state == TaskState::Interrupting)
                        .map(|t| t.assigned.len())
                        .sum::<usize>();
                if freed < need {
                    let mut victims: Vec<(i32, TaskId)> = self
                        .tasks
                        .iter()
                        .filter(|(_, t)| t.state == TaskState::Running && t.priority < prio)
                        .map(|(&vid, t)| (t.priority, vid))
                        .collect();
                    victims.sort(); // lowest priority first
                    let mut to_evict = Vec::new();
                    for (_, vid) in victims {
                        if freed >= need {
                            break;
                        }
                        freed += self.tasks[&vid].assigned.len();
                        to_evict.push(vid);
                    }
                    if freed >= need {
                        for vid in to_evict {
                            self.signal_interrupt(vid);
                        }
                        // Declared-mode interrupts complete instantly, so
                        // the nodes may already be free; fluid-mode victims
                        // finish their saves first and re-trigger us.
                        let _ = self.try_place(id, need);
                    }
                }
            }
        }
        // Backfill pass — but not while an interruption is in flight:
        // backfill would steal the partially-freed nodes the signaled
        // preemptor is waiting for.
        let interrupting = self
            .tasks
            .values()
            .any(|t| t.state == TaskState::Interrupting);
        if !interrupting {
            let mut waiting: Vec<(i32, TaskId, usize)> = self
                .tasks
                .iter()
                .filter(|(_, t)| matches!(t.state, TaskState::Queued | TaskState::Interrupted))
                .map(|(&id, t)| (-t.priority, id, t.need))
                .collect();
            waiting.sort();
            for (_, id, need) in waiting {
                let _ = self.try_place(id, need);
            }
        }
        self.record_gauges();
    }

    fn free_up_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.up && n.running.is_none())
            .count()
    }

    pub(crate) fn free_by_zone(&self) -> [Vec<usize>; 2] {
        let mut free = [Vec::new(), Vec::new()];
        for (i, n) in self.nodes.iter().enumerate() {
            if n.up && n.running.is_none() {
                free[n.zone as usize].push(i);
            }
        }
        free
    }

    /// Per-zone count of nodes currently being freed by in-flight
    /// interrupts (tasks in `Interrupting` finishing their saves).
    pub(crate) fn interrupting_by_zone(&self) -> [usize; 2] {
        let mut n = [0usize; 2];
        for t in self.tasks.values() {
            if t.state == TaskState::Interrupting {
                for &node in &t.assigned {
                    n[self.nodes[node].zone as usize] += 1;
                }
            }
        }
        n
    }

    /// Running training tasks as preemption candidates, lowest priority
    /// first, with their node counts per zone. Serving replicas are not in
    /// this map and therefore can never appear as victims.
    pub(crate) fn victims_by_zone(&self) -> Vec<(TaskId, [usize; 2])> {
        let mut v: Vec<(i32, TaskId, [usize; 2])> = self
            .tasks
            .iter()
            .filter(|(_, t)| t.state == TaskState::Running)
            .map(|(&id, t)| {
                let mut n = [0usize; 2];
                for &node in &t.assigned {
                    n[self.nodes[node].zone as usize] += 1;
                }
                (t.priority, id, n)
            })
            .collect();
        v.sort();
        v.into_iter().map(|(_, id, n)| (id, n)).collect()
    }

    fn cross_zone_active(&self) -> bool {
        self.tasks.values().any(|t| {
            matches!(t.state, TaskState::Running | TaskState::Interrupting) && t.cross_zone
        })
    }

    /// Try to place a task: single-zone first; cross-zone only when no
    /// other cross-zone task is active.
    fn try_place(&mut self, id: TaskId, need: usize) -> bool {
        let free = self.free_by_zone();
        let pick: Option<(Vec<usize>, bool)> = if free[0].len() >= need {
            Some((free[0][..need].to_vec(), false))
        } else if free[1].len() >= need {
            Some((free[1][..need].to_vec(), false))
        } else if free[0].len() + free[1].len() >= need && !self.cross_zone_active() {
            let mut all = free[0].clone();
            all.extend(&free[1]);
            Some((all[..need].to_vec(), true))
        } else {
            None
        };
        let Some((nodes, cross)) = pick else {
            return false;
        };
        let (stretch, step_routes) = match &self.engine {
            None => (self.assigned_stretch(&nodes), Vec::new()),
            Some(eng) => (1.0, jobflow::step_routes(&eng.cluster, &nodes)),
        };
        for &n in &nodes {
            self.nodes[n].running = Some(Owner::Train(id));
        }
        self.busy_nodes += nodes.len();
        if let Some(since) = self.recovering.remove(&id) {
            self.recovery_s.push((self.now.0 - since.0) / 1_000_000_000);
        }
        let t = self.tasks.get_mut(&id).expect("task exists");
        t.assigned = nodes;
        t.step_routes = step_routes;
        t.cross_zone = cross;
        t.state = TaskState::Running;
        t.placed_at = self.now;
        t.ckpt = t.progress; // cadence restarts from the resume point
        t.epoch += 1;
        t.stretch = stretch;
        let epoch = t.epoch;
        let resume = t.progress > 0;
        let remaining = t.work - t.progress;
        self.note("place");
        if self.engine.is_some() {
            if resume {
                self.with_engine(|p, eng| p.start_restore(eng, id));
            } else {
                self.with_engine(|p, eng| p.start_step(eng, id));
            }
        } else {
            self.timers.schedule(
                self.now + stretched_secs(remaining, stretch),
                Ev::TaskDone { id, epoch },
            );
        }
        true
    }

    // ----- declared-mode analytics ---------------------------------------

    /// Whole work units a declared-mode task has earned since placement:
    /// elapsed seconds at nominal speed, divided by the gray compute
    /// stretch when one is in effect (the float path is gated so
    /// gray-free runs keep exact integer arithmetic).
    fn elapsed_units(&self, t: &Task) -> u64 {
        let ns = self.now.0 - t.placed_at.0;
        if t.stretch == 1.0 {
            ns / 1_000_000_000
        } else {
            (ns as f64 / t.stretch / 1e9) as u64
        }
    }

    /// Committed progress plus the analytically-earned run time.
    fn live_progress(&self, t: &Task) -> u64 {
        if self.engine.is_none() && t.state == TaskState::Running {
            (t.progress + self.elapsed_units(t)).min(t.work)
        } else {
            t.progress
        }
    }

    /// The last periodic-checkpoint position of a declared-mode task.
    fn live_ckpt(&self, t: &Task) -> u64 {
        if self.engine.is_none() && t.state == TaskState::Running {
            let periodic =
                t.progress + (self.elapsed_units(t) / self.ckpt_interval) * self.ckpt_interval;
            periodic.min(self.live_progress(t))
        } else {
            t.ckpt
        }
    }

    // ----- accessors ------------------------------------------------------

    /// Task state, or `None` for an unknown id.
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        self.tasks.get(&id).map(|t| t.state)
    }

    /// Task name as submitted, or `None` for an unknown id.
    pub fn name(&self, id: TaskId) -> Option<&str> {
        self.tasks.get(&id).map(|t| t.name.as_str())
    }

    /// Completed work units (live for a running declared-mode task), or
    /// `None` for an unknown id.
    pub fn progress(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(&id).map(|t| self.live_progress(t))
    }

    /// Work units captured by the last checkpoint, or `None` for an
    /// unknown id.
    pub fn checkpoint(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(&id).map(|t| self.live_ckpt(t))
    }

    /// The nodes a task runs on (empty when not running), or `None` for an
    /// unknown id.
    pub fn assignment(&self, id: TaskId) -> Option<&[usize]> {
        self.tasks.get(&id).map(|t| t.assigned.as_slice())
    }

    /// The training task occupying a compute node right now, or `None`
    /// when the node is free, down, unknown, or held by a serving
    /// replica. Unlike [`Platform::assignment`] this reads the node slot
    /// directly, so it can never report a task that has since released
    /// the node — the slot is cleared before any requeue.
    pub fn node_task(&self, node: usize) -> Option<TaskId> {
        match self.nodes.get(node)?.running {
            Some(Owner::Train(id)) => Some(id),
            _ => None,
        }
    }

    /// Fraction of healthy node-time spent running tasks.
    pub fn utilization(&self) -> f64 {
        if self.healthy_node_ns == 0 {
            0.0
        } else {
            self.busy_node_ns as f64 / self.healthy_node_ns as f64
        }
    }

    /// Work lost to failures (rolled back past checkpoints), in
    /// node-units: node-seconds in declared mode, node-steps in fluid.
    pub fn lost_work_s(&self) -> u64 {
        self.lost_work
    }

    /// Completed failure-recovery intervals, whole seconds each: the time
    /// from a failure rolling a task back to that task running again, in
    /// completion order. Preemptions are not recoveries and do not appear;
    /// a task still waiting for nodes at the end of a run has an open
    /// interval and is likewise not counted.
    pub fn recovery_times_s(&self) -> &[u64] {
        &self.recovery_s
    }

    /// Tasks waiting for nodes (queued or interrupted).
    pub fn queue_depth(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| matches!(t.state, TaskState::Queued | TaskState::Interrupted))
            .count()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Compute nodes in the pool (up or not).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Compute nodes currently up.
    pub fn healthy_nodes(&self) -> usize {
        self.up_nodes
    }

    /// The manager's health state for a compute node.
    pub fn node_health(&self, node: usize) -> Option<HealthState> {
        self.manager.health(&node_name(node))
    }

    /// Interruption signals delivered so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Node failures seen so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Quarantines initiated by the signal-driven detector. Disjoint from
    /// [`Platform::failures`], which counts injected hard faults — on a
    /// calm fleet every one of these is a false positive.
    pub fn detector_quarantines(&self) -> u64 {
        self.detector_quarantines
    }

    /// The detector's verdict stream so far (empty when no detector is
    /// configured).
    pub fn detector_verdicts(&self) -> &[crate::detector::Verdict] {
        self.detector.as_ref().map_or(&[], |d| d.verdicts())
    }

    /// Canonical one-line-per-verdict rendering of the detector stream,
    /// suitable for digesting in determinism checks.
    pub fn detector_canonical(&self) -> String {
        self.detector
            .as_ref()
            .map_or_else(String::new, |d| d.canonical())
    }

    /// Node-seconds the pool has spent *down* (failed, quarantined,
    /// validating, or awaiting repair) since t=0 — the capacity cost of
    /// outages, whether from real faults or detector false positives.
    pub fn down_node_seconds(&self) -> u64 {
        let total = self.nodes.len() as u128 * self.now.0 as u128;
        ((total - self.healthy_node_ns) / 1_000_000_000) as u64
    }

    /// The cluster manager tracking node health (§VI-B3's registry).
    pub fn manager(&self) -> &Arc<ClusterManager> {
        &self.manager
    }

    pub(crate) fn note(&self, what: &str) {
        if let Some((rec, track)) = &self.obs {
            rec.instant(*track, what, self.now.0, 1.0);
        }
    }

    fn record_gauges(&self) {
        if let Some((rec, _)) = &self.obs {
            rec.gauge_set("platform/utilization", self.utilization());
            rec.gauge_set("platform/queue_depth", self.queue_depth() as f64);
            rec.gauge_set("platform/lost_work", self.lost_work as f64);
            // Serving gauges only once a serving job exists, so train-only
            // runs keep their historical digests.
            if !self.serving.is_empty() {
                let (mut done, mut met, mut inflight) = (0u64, 0u64, 0usize);
                for j in self.serving.values() {
                    done += j.completed();
                    met += j.slo_met();
                    inflight += j.in_flight();
                }
                let attain = if done == 0 {
                    1.0
                } else {
                    met as f64 / done as f64
                };
                rec.gauge_set("platform/serve/completed", done as f64);
                rec.gauge_set("platform/serve/slo_attainment", attain);
                rec.gauge_set("platform/serve/inflight", inflight as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(per_zone: [usize; 2], interval: u64) -> Platform {
        PlatformConfig::new()
            .zones(per_zone)
            .ckpt_interval(interval)
            .build()
            .unwrap()
    }

    #[test]
    fn simple_task_runs_to_completion() {
        let mut p = declared([4, 4], 300);
        let t = p.submit(JobSpec::new("resnet", 2, 100)).unwrap();
        assert_eq!(p.state(t), Some(TaskState::Running));
        p.tick(100);
        assert_eq!(p.state(t), Some(TaskState::Succeeded));
        assert_eq!(p.progress(t), Some(100));
    }

    #[test]
    fn queueing_when_full_then_backfill() {
        let mut p = declared([2, 0], 300);
        let a = p.submit(JobSpec::new("a", 2, 50)).unwrap();
        let b = p.submit(JobSpec::new("b", 2, 50)).unwrap();
        assert_eq!(p.state(a), Some(TaskState::Running));
        assert_eq!(p.state(b), Some(TaskState::Queued));
        p.tick(50);
        assert_eq!(p.state(a), Some(TaskState::Succeeded));
        assert_eq!(p.state(b), Some(TaskState::Running));
    }

    #[test]
    fn priority_preempts_and_resumes_from_checkpoint() {
        let mut p = declared([2, 0], 300);
        let low = p.submit(JobSpec::new("low", 2, 100)).unwrap();
        p.tick(40);
        let high = p.submit(JobSpec::new("high", 2, 30).priority(10)).unwrap();
        // Preemption is immediate and graceful: low checkpoints at 40.
        assert_eq!(p.state(low), Some(TaskState::Interrupted));
        assert_eq!(p.progress(low), Some(40));
        assert_eq!(p.state(high), Some(TaskState::Running));
        p.tick(30);
        assert_eq!(p.state(high), Some(TaskState::Succeeded));
        assert_eq!(p.state(low), Some(TaskState::Running));
        // No work lost on graceful interrupt.
        p.tick(60);
        assert_eq!(p.state(low), Some(TaskState::Succeeded));
        assert_eq!(p.lost_work_s(), 0);
        assert_eq!(p.preemptions(), 1);
    }

    #[test]
    fn node_failure_loses_at_most_one_interval() {
        let mut p = declared([4, 0], 300);
        let t = p.submit(JobSpec::new("llm", 4, 10_000)).unwrap();
        p.tick(640); // checkpoints at 300 and 600
        let node = p.assignment(t).unwrap()[0];
        p.fail_node(node);
        // Rolled back to the 600 s checkpoint: 40 s × 4 nodes lost.
        assert_eq!(p.progress(t), Some(600));
        assert_eq!(p.lost_work_s(), 160);
        // Only 3 healthy nodes remain: the 4-node task cannot run.
        assert_eq!(p.state(t), Some(TaskState::Queued));
        p.heal_node(node);
        assert_eq!(p.state(t), Some(TaskState::Running));
    }

    #[test]
    fn failed_node_walks_the_health_lifecycle() {
        let mut p = declared([4, 0], 300);
        p.submit(JobSpec::new("job", 2, 1000)).unwrap();
        p.fail_node(0);
        assert_eq!(p.node_health(0), Some(HealthState::Suspect));
        assert_eq!(p.healthy_nodes(), 3);
        p.tick(5); // detection confirms at +2 s
        assert_eq!(p.node_health(0), Some(HealthState::Quarantined));
        p.heal_node(0);
        assert_eq!(p.node_health(0), Some(HealthState::Healthy));
        assert_eq!(p.healthy_nodes(), 4);
        // Healing an up node is a no-op (weekly sweeps call it blindly).
        p.heal_node(0);
        assert_eq!(p.healthy_nodes(), 4);
    }

    #[test]
    fn fault_plan_kill_auto_repairs() {
        use ff_failures::{FailureEvent, FailureKind};
        let mut p = PlatformConfig::new()
            .zones([4, 0])
            .ckpt_interval(300)
            .repair_delay_s(100)
            .validation_s(20)
            .build()
            .unwrap();
        let t = p.submit(JobSpec::new("llm", 4, 10_000)).unwrap();
        let plan = FaultPlan::from_events(
            &[FailureEvent {
                at_s: 640.0,
                node: 1,
                kind: FailureKind::MainMemoryEcc,
            }],
            4,
        );
        p.apply_fault_plan(&plan);
        p.tick(650);
        // Killed at 640, rolled back to the 600 s checkpoint and queued.
        assert_eq!(p.state(t), Some(TaskState::Queued));
        assert_eq!(p.progress(t), Some(600));
        assert_eq!(p.node_health(1), Some(HealthState::Quarantined));
        // Repair (100 s) + validation (20 s) put the node back and the
        // task resumes without operator intervention.
        p.tick(200);
        assert_eq!(p.node_health(1), Some(HealthState::Healthy));
        assert_eq!(p.state(t), Some(TaskState::Running));
        assert_eq!(p.lost_work_s(), 160);
    }

    #[test]
    fn cross_zone_limited_to_one_task() {
        let mut p = declared([2, 2], 300);
        // 3-node tasks must span zones (each zone has only 2).
        let a = p.submit(JobSpec::new("span-a", 3, 100)).unwrap();
        let b = p.submit(JobSpec::new("span-b", 3, 100)).unwrap();
        assert_eq!(p.state(a), Some(TaskState::Running));
        assert_eq!(
            p.state(b),
            Some(TaskState::Queued),
            "only one cross-zone task"
        );
        p.tick(100);
        assert_eq!(p.state(a), Some(TaskState::Succeeded));
        assert_eq!(p.state(b), Some(TaskState::Running));
    }

    #[test]
    fn single_zone_tasks_fill_both_zones_concurrently() {
        let mut p = declared([2, 2], 300);
        let a = p.submit(JobSpec::new("a", 2, 100)).unwrap();
        let b = p.submit(JobSpec::new("b", 2, 100)).unwrap();
        assert_eq!(p.state(a), Some(TaskState::Running));
        assert_eq!(p.state(b), Some(TaskState::Running));
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut p = declared([4, 0], 300);
        p.submit(JobSpec::new("half", 2, 100)).unwrap();
        p.tick(100);
        // 2 of 4 nodes busy for the whole window.
        assert!((p.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_sharing_keeps_utilization_high() {
        // The 99%-utilization story: an over-subscribed queue of small
        // tasks keeps every node busy.
        let mut p = declared([4, 4], 300);
        for i in 0..20 {
            p.submit(JobSpec::new(format!("job{i}"), 2, 50)).unwrap();
        }
        for _ in 0..25 {
            p.tick(10);
        }
        assert!(p.utilization() > 0.98, "utilization {}", p.utilization());
    }

    #[test]
    fn oversized_and_empty_submissions_are_rejected() {
        let mut p = declared([2, 1], 300);
        assert_eq!(
            p.submit(JobSpec::new("huge", 5, 10)),
            Err(SubmitError::TooLarge {
                need: 5,
                cluster: 3
            })
        );
        assert_eq!(
            p.submit(JobSpec::new("none", 0, 10)),
            Err(SubmitError::ZeroNodes)
        );
        assert_eq!(
            p.submit(JobSpec::new("idle", 1, 0)),
            Err(SubmitError::ZeroWork)
        );
        let small = p.submit(JobSpec::new("small", 1, 10)).unwrap();
        assert_eq!(p.state(small), Some(TaskState::Running));
    }

    #[test]
    fn unknown_task_accessors_return_none() {
        let p = declared([2, 0], 300);
        let ghost = TaskId(999);
        assert_eq!(p.state(ghost), None);
        assert_eq!(p.name(ghost), None);
        assert_eq!(p.progress(ghost), None);
        assert_eq!(p.checkpoint(ghost), None);
        assert_eq!(p.assignment(ghost), None);
    }

    #[test]
    fn builder_is_the_only_constructor_and_schedules() {
        let mut p = PlatformConfig::new()
            .zones([2, 0])
            .ckpt_interval(300)
            .build()
            .unwrap();
        let t = p.submit(JobSpec::new("builder-api", 2, 10)).unwrap();
        p.tick(10);
        assert_eq!(p.state(t), Some(TaskState::Succeeded));
    }

    // ----- fluid mode -----------------------------------------------------

    use ff_reduce::ClusterConfig;

    fn fluid(nodes: usize, storage: usize, interval: u64) -> Platform {
        PlatformConfig::new()
            .cluster(ClusterModel::build(&ClusterConfig::fire_flyer(nodes)))
            .storage_nodes(storage)
            .ckpt_interval(interval)
            .build()
            .unwrap()
    }

    /// Run until the predicate holds, polling every `dt`, bailing out
    /// after `max_iters` polls so a broken event loop cannot hang the
    /// suite. Steps on this small cluster take milliseconds of simulated
    /// time, so observation granularity must be comparably fine.
    fn run_till(
        p: &mut Platform,
        dt: SimDuration,
        max_iters: u64,
        mut pred: impl FnMut(&Platform) -> bool,
    ) {
        for _ in 0..max_iters {
            if pred(p) {
                return;
            }
            p.run_for(dt);
        }
        panic!("condition not reached within {max_iters} polls");
    }

    /// Live flows on compute node `node`'s NIC, both directions.
    fn nic_flows(p: &Platform, node: usize) -> usize {
        let eng = p.engine.as_ref().expect("fluid platform");
        let hw = &eng.cluster.hw[node];
        let up = hw.ib_send(0).0.last().expect("IB route has hops").0;
        let down = hw.ib_recv(0).0.first().expect("IB route has hops").0;
        eng.cluster.fluid.flows_through(up) + eng.cluster.fluid.flows_through(down)
    }

    /// Live flows owned by `owner`.
    fn owned_flows(p: &Platform, owner: Owner) -> usize {
        let eng = p.engine.as_ref().expect("fluid platform");
        eng.flow_owner.values().filter(|&&o| o == owner).count()
    }

    /// Routes belong to a placement: a task re-placed after a node
    /// failure runs its steps on rings over its new nodes only.
    #[test]
    fn a_re_placed_task_gets_new_routes() {
        let ms = SimDuration::from_millis(1);
        let mut p = fluid(6, 2, 5);
        let t = p
            .submit(
                JobSpec::new("train", 3, 400)
                    .step_bytes(6.4e7)
                    .ckpt_bytes(2.56e8),
            )
            .unwrap();
        let in_step = |p: &Platform| p.tasks[&t].phase == Phase::Step;
        run_till(&mut p, ms, 1_000_000, |p| {
            p.progress(t).unwrap() >= 2 && in_step(p)
        });
        let failed = p.assignment(t).unwrap()[0];
        assert!(nic_flows(&p, failed) > 0, "the ring crosses every member");
        p.fail_node(failed);
        // Four compute nodes: the spare one takes the failed one's place.
        assert_eq!(p.state(t), Some(TaskState::Running));
        let nodes = p.assignment(t).unwrap().to_vec();
        assert_eq!(nodes.len(), 3);
        assert!(!nodes.contains(&failed));
        run_till(&mut p, ms, 1_000_000, in_step);
        assert_eq!(p.tasks[&t].step_routes.len(), nodes.len());
        assert_eq!(owned_flows(&p, Owner::Train(t)), nodes.len());
        assert_eq!(nic_flows(&p, failed), 0, "no flow crosses the failed node");
    }

    /// The same for a serving replica moved by a node failure.
    #[test]
    fn a_moved_serving_replica_gets_new_routes() {
        use crate::serving::ServingSpec;
        use ff_util::scengen::{ArrivalTrace, Request};
        let ms = SimDuration::from_millis(1);
        let mut p = fluid(6, 2, 5);
        let requests = (0..200)
            .map(|id| Request {
                id,
                at_ns: id * 50_000_000,
                prompt_tokens: 64,
                output_tokens: 64,
            })
            .collect();
        let trace = ArrivalTrace {
            seed: 0,
            duration_ns: 10_000_000_000,
            requests,
        };
        let sid = p
            .submit_serving(ServingSpec::new("svc", 1, 2, trace))
            .unwrap();
        let owner = Owner::Serve(sid, 0);
        let on_network = |p: &Platform| owned_flows(p, owner) > 0;
        run_till(&mut p, ms, 100_000, on_network);
        let failed = p.serving_assignment(sid, 0).unwrap()[0];
        assert!(nic_flows(&p, failed) > 0, "the ring crosses every member");
        p.fail_node(failed);
        let nodes = p.serving_assignment(sid, 0).unwrap().to_vec();
        assert_eq!(nodes.len(), 2, "the replica is placed again at once");
        assert!(!nodes.contains(&failed));
        run_till(&mut p, ms, 100_000, on_network);
        assert_eq!(owned_flows(&p, owner), nodes.len());
        assert_eq!(nic_flows(&p, failed), 0, "no flow crosses the failed node");
    }

    #[test]
    fn fluid_step_durations_emerge_from_bandwidth() {
        let mut p = fluid(6, 2, 10);
        let t = p
            .submit(
                JobSpec::new("train", 4, 25)
                    .step_bytes(6.4e7)
                    .ckpt_bytes(2.56e8),
            )
            .unwrap();
        assert_eq!(p.state(t), Some(TaskState::Running));
        run_till(&mut p, SimDuration::from_secs(1), 100_000, |p| {
            p.state(t) == Some(TaskState::Succeeded)
        });
        // Steps took real simulated time and checkpoints were durable.
        assert!(p.now().0 > 0);
        assert_eq!(p.progress(t), Some(25));
        assert_eq!(p.checkpoint(t), Some(25));
        assert!(p.utilization() > 0.0);
    }

    #[test]
    fn fluid_interruption_signal_protocol() {
        let ms = SimDuration::from_millis(5);
        let mut p = fluid(6, 2, 5);
        let low = p
            .submit(
                JobSpec::new("low", 4, 2000)
                    .step_bytes(6.4e7)
                    .ckpt_bytes(2.56e8),
            )
            .unwrap();
        // Let it make some progress.
        run_till(&mut p, ms, 1_000_000, |p| p.progress(low).unwrap() >= 8);
        let high = p
            .submit(JobSpec::new("high", 4, 10).priority(9).step_bytes(6.4e7))
            .unwrap();
        // The signal is delivered; low finishes its save before releasing.
        assert!(matches!(
            p.state(low),
            Some(TaskState::Interrupting | TaskState::Interrupted)
        ));
        run_till(&mut p, ms, 1_000_000, |p| {
            p.state(low) == Some(TaskState::Interrupted)
        });
        // The interruption signal was honored: the save captured exactly
        // the committed progress, so nothing replays on resume.
        assert_eq!(p.progress(low), p.checkpoint(low));
        run_till(&mut p, ms, 1_000_000, |p| {
            p.state(high) == Some(TaskState::Succeeded)
        });
        // After high completes, low resumes from its checkpoint.
        run_till(&mut p, ms, 1_000_000, |p| {
            p.state(low) == Some(TaskState::Running)
        });
        assert_eq!(p.lost_work_s(), 0, "graceful interruption loses no work");
        assert!(p.preemptions() >= 1);
    }

    #[test]
    fn fluid_node_failure_bounds_lost_work() {
        let ms = SimDuration::from_millis(5);
        let mut p = fluid(6, 2, 5);
        let t = p
            .submit(
                JobSpec::new("train", 4, 400)
                    .step_bytes(6.4e7)
                    .ckpt_bytes(2.56e8),
            )
            .unwrap();
        run_till(&mut p, ms, 1_000_000, |p| p.progress(t).unwrap() >= 12);
        assert_eq!(p.state(t), Some(TaskState::Running));
        let node = p.assignment(t).unwrap()[0];
        p.fail_node(node);
        // ≤ one checkpoint interval of steps lost, over 4 nodes.
        assert!(
            p.lost_work_s() <= 5 * 4,
            "lost {} node-steps, expected ≤ {}",
            p.lost_work_s(),
            5 * 4
        );
        assert_eq!(p.state(t), Some(TaskState::Queued));
        p.heal_node(node);
        run_till(&mut p, SimDuration::from_secs(1), 100_000, |p| {
            p.state(t) == Some(TaskState::Succeeded)
        });
    }
}
