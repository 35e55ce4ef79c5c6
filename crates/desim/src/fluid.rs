//! Max-min fair fluid-flow engine.
//!
//! Hardware conduits (a PCIe link, a host bridge, a memory bus, a NIC, a
//! switch port) are *resources* with a fixed capacity in *units/second*
//! (normally bytes/second; compute resources use FLOP/s). Work in flight is
//! a *flow*: an amount of work that must traverse a [`Route`] — an ordered
//! set of resources, each with a *weight* saying how many units of that
//! resource's capacity one unit of flow progress consumes.
//!
//! Weights express the amplification factors the paper reasons about: an
//! NCCL-style ring consumes `(2n-1)/n` units of PCIe bandwidth per unit of
//! gradient data (§IV-B1), HFReduce's host-memory traffic is 24× the GPU
//! data size (§IV-D3), a `MemcpyAsync` host-to-device fan-out reads host
//! memory 8 times where GDRCopy reads twice (§IV-A).
//!
//! Whenever the set of active flows changes, rates are re-derived by
//! *progressive filling*: all flows grow at the same rate until some
//! resource saturates; flows crossing that resource freeze, and filling
//! continues — the classic max-min fair ("water-filling") allocation.
//!
//! ## Incremental solving
//!
//! The allocation decomposes exactly by connected components of the
//! flow↔resource bipartite graph: a flow's rate depends only on flows it
//! (transitively) shares a resource with. The engine therefore keeps a
//! per-resource index of crossing flows and, on a start/finish/degrade/cap
//! event, re-solves only the components reachable from the touched
//! resources. Flow progress is settled lazily — `remaining` is decremented
//! only when a flow's rate actually changes — and completions pop from
//! per-zone binary heaps keyed by predicted finish time, with stale entries
//! invalidated by a per-flow epoch counter. At 10,000-GPU scale this
//! replaces an O(flows × resources) global recompute per event with work
//! proportional to the disturbed component.
//!
//! ## Memory layout
//!
//! The hot structures are arena/SoA-shaped so a component solve touches
//! dense arrays instead of pointer-chasing node-based maps:
//!
//! * Flows live in a **slot arena** (`Vec<FlowSlot>` plus a free list).
//!   [`FlowId`]s stay monotonic u64 handles — identity, ordering and the
//!   deterministic completion-batch order are unchanged — but every hot
//!   access goes through a dense `u32` slot, and routes live as ranges in
//!   one shared **route arena** (a recycled slot reuses its arena range),
//!   so a component walk chases no per-flow heap pointers.
//! * Per-resource state is **struct-of-arrays**: capacity, degradation,
//!   cached effective capacity, instantaneous load and the crossing-flow
//!   index are parallel `Vec`s indexed by resource id; rarely-touched
//!   fields (name, statistics) live in a separate cold array.
//! * Each resource's crossing-flow index is a `(flow id, slot)` vector
//!   kept sorted by flow id — flow ids are monotonic, so insertion is an
//!   O(1) push — preserving the exact iteration order the old
//!   `BTreeSet<FlowId>` index provided.
//! * A component solve compiles its flows' routes into a CSR triple
//!   (offsets / local resource ids / weights) in reusable scratch, and the
//!   water-fill kernel runs on that — no per-solve allocation on the
//!   serial path.
//!
//! ## Component-parallel solving
//!
//! Disjoint components are independent subproblems, so one recompute can
//! solve them on the [`ff_util::par`] worker pool. Determinism is by
//! construction, not by luck:
//!
//! * each component is *extracted* into an owned problem (capacities +
//!   CSR routes) and solved by a pure function — workers share no mutable
//!   state and perform the bit-identical fill arithmetic the serial path
//!   uses;
//! * results are merged **serially**, in the deterministic component
//!   order (components discovered from dirty seeds sorted by smallest
//!   resource id), so every heap push, epoch bump and statistics update
//!   happens in the same order at any thread count;
//! * within a component the fill keeps a fixed reduction order — flows
//!   ascending by id, hops in normalized route order — and no float
//!   operation is reassociated; resource-indexed state only feeds
//!   order-independent operations (exact min reductions, sticky flags),
//!   so the deterministic BFS discovery order of resources is free to
//!   differ from id order.
//!
//! The same seed therefore produces the same trace digest at 1, 2, or N
//! threads ([`set_threads`](FluidSim::set_threads)), and observability
//! commits stay single-writer: worker threads never touch the attached
//! [`Recorder`] — only the merge thread does, after the join.
//!
//! [`SolverMode::Reference`] disables the incremental machinery (every
//! component is re-solved every time and the next completion is found by
//! linear scan) while sharing the identical per-component fill arithmetic;
//! the differential suite in `desim/tests/fluid_diff.rs` holds the modes
//! bit-exactly equal on thousands of seeded random schedules.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use crate::stats::ResourceStats;
use crate::time::{SimDuration, SimTime};
use ff_obs::{Recorder, TrackId};
use ff_util::error::{FfError, FfKind};
use ff_util::par;

/// Identifies a resource registered with a [`FluidSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

/// Identifies an active (or completed) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u64);

/// An ordered set of `(resource, weight)` pairs a flow traverses.
///
/// A weight of `w` means one unit of flow progress consumes `w` units of
/// that resource's capacity. Duplicate resources are allowed and their
/// weights accumulate (a loop-back path through the same switch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Route(pub Vec<(ResourceId, f64)>);

impl Route {
    /// A route using each resource with weight 1.
    pub fn unit(resources: impl IntoIterator<Item = ResourceId>) -> Self {
        Route(resources.into_iter().map(|r| (r, 1.0)).collect())
    }

    /// A route with explicit weights.
    pub fn weighted(pairs: impl IntoIterator<Item = (ResourceId, f64)>) -> Self {
        Route(pairs.into_iter().collect())
    }

    /// Append another hop.
    pub fn push(&mut self, r: ResourceId, weight: f64) {
        self.0.push((r, weight));
    }

    /// Concatenate two routes.
    pub fn join(mut self, other: Route) -> Route {
        self.0.extend(other.0);
        self
    }

    /// True if the route has no hops.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Collapse duplicate resources, summing weights. The result is sorted
    /// by `ResourceId`, which the per-resource load pass exploits with a
    /// binary search.
    fn normalized(&self) -> Vec<(ResourceId, f64)> {
        let mut map: BTreeMap<ResourceId, f64> = BTreeMap::new();
        for &(r, w) in &self.0 {
            assert!(
                w > 0.0 && w.is_finite(),
                "Route weight must be positive and finite, got {w}"
            );
            *map.entry(r).or_insert(0.0) += w;
        }
        map.into_iter().collect()
    }
}

/// Rarely-touched per-resource state, kept out of the solver's hot arrays.
struct ResourceCold {
    name: String,
    stats: ResourceStats,
    /// Statistics are integrated up to this instant; the resource's load
    /// is held constant over `[synced_to, now]`.
    synced_to: SimTime,
}

/// Sentinel `fid` marking a free arena slot.
const FREE_SLOT: u64 = u64::MAX;

/// One arena slot. While occupied it is a flow; freed slots keep their
/// route-arena range reserved for the next occupant.
struct FlowSlot {
    /// Occupant's flow id, [`FREE_SLOT`] when the slot is on the free list.
    fid: u64,
    /// Start of this flow's normalized route (sorted by resource id,
    /// duplicate hops merged) in the simulator's shared route arena.
    r_start: u32,
    /// Hops in the route.
    r_len: u32,
    /// High-water route length of this slot: a re-started flow whose route
    /// fits reuses the arena range in place, so arena growth is bounded by
    /// per-slot maxima, not by flow churn.
    r_cap: u32,
    work: f64,
    /// Work left as of `updated_at` (not as of `now`: progress at a
    /// constant rate is settled lazily, only when the rate changes).
    remaining: f64,
    rate: f64,
    started: SimTime,
    /// The instant `remaining` and `rate` were last settled.
    updated_at: SimTime,
    /// Bumped on every rate change; completion-heap entries carrying a
    /// stale epoch are ignored.
    epoch: u64,
}

/// Predicted completion instant of `f`, valid while its rate is unchanged.
fn predict(f: &FlowSlot) -> SimTime {
    f.updated_at + SimDuration::for_work(f.remaining, f.rate)
}

/// Completion-heap entry. `BinaryHeap` is a max-heap, so the ordering is
/// reversed: the earliest `(at, id, epoch)` pops first, which also yields
/// ascending `FlowId` order within a completion instant. The slot is a
/// cache for O(1) validity checks and does not participate in ordering
/// (a given `(id, epoch)` pair can only ever live in one slot).
#[derive(Clone, Copy, PartialEq, Eq)]
struct CompEntry {
    at: SimTime,
    id: FlowId,
    epoch: u64,
    slot: u32,
}

impl Ord for CompEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.id, other.epoch).cmp(&(self.at, self.id, self.epoch))
    }
}

impl PartialOrd for CompEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Resources per completion-heap shard: contiguous id ranges, matching the
/// zone-contiguous resource numbering the topology builders produce.
const SHARD_SPAN: u32 = 256;
/// Upper bound on completion-heap shards.
const MAX_SHARDS: usize = 16;

/// The completion heap, sharded by the owning flow's home zone (the
/// contiguous resource-id range its smallest resource falls in). Each
/// shard is an independent binary heap; the cross-shard pop compares the
/// shard heads under the same `(at, id, epoch)` total order a single heap
/// would use, so sharding is observably identical to one big heap — just
/// with shallower heaps and zone-local pushes.
#[derive(Default)]
struct CompletionShards {
    shards: Vec<BinaryHeap<CompEntry>>,
}

impl CompletionShards {
    /// Shard index for a flow whose smallest route resource is `r0`.
    fn shard_of(r0: u32) -> usize {
        ((r0 / SHARD_SPAN) as usize).min(MAX_SHARDS - 1)
    }

    fn push(&mut self, r0: u32, e: CompEntry) {
        let s = Self::shard_of(r0);
        if self.shards.len() <= s {
            self.shards.resize_with(s + 1, BinaryHeap::new);
        }
        self.shards[s].push(e);
    }

    /// Earliest valid entry across all shards, discarding stale heads.
    /// Validity: the slot's occupant is still `(id, epoch)`.
    fn peek_valid(&mut self, slots: &[FlowSlot]) -> Option<SimTime> {
        let mut best: Option<(SimTime, FlowId, u64)> = None;
        for heap in &mut self.shards {
            while let Some(e) = heap.peek() {
                let f = &slots[e.slot as usize];
                if f.fid == e.id.0 && f.epoch == e.epoch {
                    let key = (e.at, e.id, e.epoch);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                    break;
                }
                heap.pop();
            }
        }
        best.map(|(at, _, _)| at)
    }

    /// Pop every valid entry completing exactly at `at` into `done`.
    /// Call after [`peek_valid`](Self::peek_valid) returned `Some(at)`.
    fn pop_batch(&mut self, at: SimTime, slots: &[FlowSlot], done: &mut Vec<FlowId>) {
        for heap in &mut self.shards {
            while let Some(e) = heap.peek() {
                if e.at != at {
                    break;
                }
                let e = *heap.pop().as_ref().expect("peeked entry pops");
                let f = &slots[e.slot as usize];
                if f.fid == e.id.0 && f.epoch == e.epoch {
                    done.push(e.id);
                }
            }
        }
    }

    #[cfg(test)]
    fn clear(&mut self) {
        for h in &mut self.shards {
            h.clear();
        }
    }
}

/// Selects how [`FluidSim`] re-derives the max-min allocation after a
/// structural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Re-solve only the connected components touched since the last
    /// recompute, and pop completions from a predicted-finish heap. The
    /// default.
    #[default]
    Incremental,
    /// Re-solve every component on every recompute and find the next
    /// completion by linear scan — the brute-force oracle the incremental
    /// path is differentially tested against. Shares the identical
    /// per-component fill arithmetic, so the two modes agree bit-for-bit.
    Reference,
}

/// Cumulative effort counters of a [`FluidSim`] — the raw material for
/// `BENCH_fluid.json`'s events/sec trajectory and for tuning the parallel
/// dispatch threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Structural events applied: flow starts.
    pub flow_starts: u64,
    /// Structural events applied: flow cancellations.
    pub cancels: u64,
    /// Flows completed (popped by `advance_to_next_completion`).
    pub completions: u64,
    /// Rate recomputations performed (one per batch of dirty seeds).
    pub recomputes: u64,
    /// Connected components solved across all recomputes.
    pub components: u64,
    /// Components that contained no flows (index cleanup only).
    pub empty_components: u64,
    /// Flow-rate derivations: Σ over solved components of their flow count.
    pub flow_solves: u64,
    /// Water-filling rounds executed.
    pub fill_rounds: u64,
    /// Recomputes whose components were solved on the worker pool.
    pub parallel_batches: u64,
}

impl SolverStats {
    /// Total structural simulation events processed — the numerator of the
    /// benchmark harness's events/sec metric.
    pub fn events(&self) -> u64 {
        self.flow_starts + self.cancels + self.completions
    }
}

/// Where an attached [`Recorder`] receives this simulator's events.
struct ObsSink {
    rec: Arc<Recorder>,
    track: TrackId,
    track_name: String,
    /// Pre-resolved handle for the per-recompute rounds counter, so the
    /// hot path never re-formats the metric name.
    rounds_counter: ff_obs::CounterId,
    /// Added to every simulated timestamp, letting callers place repeated
    /// runs of the same sim (one per training step, say) side by side on a
    /// shared timeline.
    offset_ns: u64,
}

/// An extracted, owned component subproblem: effective capacities of the
/// component's resources (ascending id order) and the member flows' routes
/// (ascending flow-id order) compiled to CSR over local resource indices.
/// Pure data — solving it cannot observe or mutate simulator state, which
/// is what makes the parallel path trivially deterministic.
#[derive(Default)]
struct CompProblem {
    caps: Vec<f64>,
    off: Vec<u32>,
    hop_res: Vec<u32>,
    hop_w: Vec<f64>,
}

/// Water-fill scratch, reusable across solves.
#[derive(Default)]
struct FillScratch {
    residual: Vec<f64>,
    weight_sum: Vec<f64>,
    /// Per-resource growth headroom `residual / weight_sum`, divided once
    /// per (resource, round) on first touch so the min scan over hops
    /// reads cached quotients instead of re-dividing per hop occurrence.
    quot: Vec<f64>,
    /// Round stamp marking `quot[r]` fresh for the current round.
    quot_stamp: Vec<u32>,
    saturated: Vec<bool>,
    unfrozen: Vec<u32>,
}

/// Progressive filling over one compiled component. Identical arithmetic
/// and iteration order as the historical in-place solver: flows ascending
/// by id, hops in normalized route order, and the same relative order of
/// every floating-point operation — bit-exact whether invoked serially or
/// from a worker. Per-resource state (quotients, residuals, saturation)
/// only enters through order-independent operations, so the local
/// resource numbering is immaterial. Returns the fill-round count;
/// `rates` comes back with one rate per flow.
fn water_fill(p: &CompProblem, rates: &mut Vec<f64>, s: &mut FillScratch) -> u64 {
    let k = p.caps.len();
    let m = p.off.len() - 1;
    s.residual.clear();
    s.residual.extend_from_slice(&p.caps);
    s.weight_sum.clear();
    s.weight_sum.resize(k, 0.0);
    s.saturated.clear();
    s.saturated.resize(k, false);
    for h in 0..p.hop_res.len() {
        s.weight_sum[p.hop_res[h] as usize] += p.hop_w[h];
    }
    rates.clear();
    rates.resize(m, 0.0);
    s.unfrozen.clear();
    s.unfrozen.extend(0..m as u32);
    let mut rounds = 0u64;
    s.quot.clear();
    s.quot.resize(k, 0.0);
    s.quot_stamp.clear();
    s.quot_stamp.resize(k, 0);
    while !s.unfrozen.is_empty() {
        rounds += 1;
        // The common growth increment is limited by the tightest resource
        // crossed by an unfrozen flow: residual / weight_sum. Divide once
        // per (resource, round) on first touch — the stamp marks the
        // quotient fresh — then min over hop occurrences. Same quotient
        // values the per-hop division produced, so the min (an exact,
        // order-free reduction) is bit-identical, and resources no
        // unfrozen flow crosses cost nothing.
        let stamp = rounds as u32;
        let mut delta = f64::INFINITY;
        for &i in &s.unfrozen {
            let (a, b) = (p.off[i as usize] as usize, p.off[i as usize + 1] as usize);
            for &hr in &p.hop_res[a..b] {
                let r = hr as usize;
                if s.quot_stamp[r] != stamp {
                    s.quot_stamp[r] = stamp;
                    let ws = s.weight_sum[r];
                    s.quot[r] = if ws > 0.0 {
                        s.residual[r] / ws
                    } else {
                        f64::INFINITY
                    };
                }
                delta = delta.min(s.quot[r]);
            }
        }
        assert!(
            delta.is_finite() && delta >= 0.0,
            "water_fill: degenerate allocation (delta={delta})"
        );
        // Grow every unfrozen flow by delta, charge resources, and flag
        // saturation in the same pass. The threshold is relative to
        // capacity: at the bottleneck the residual lands on zero up to
        // float error, which scales with the capacity magnitude. Checking
        // after each decrement instead of once after the sweep flags the
        // same set: residuals only shrink, so an early crossing implies the
        // final value crosses too, and the final decrement performs the
        // same check the old full-`k` sweep did — without touching the
        // resources this round never charged.
        for &i in &s.unfrozen {
            rates[i as usize] += delta;
            let (a, b) = (p.off[i as usize] as usize, p.off[i as usize + 1] as usize);
            for (&hr, &hw) in p.hop_res[a..b].iter().zip(&p.hop_w[a..b]) {
                let r = hr as usize;
                let nr = s.residual[r] - delta * hw;
                s.residual[r] = nr;
                if !s.saturated[r] && nr <= p.caps[r] * 1e-6 {
                    s.saturated[r] = true;
                }
            }
        }
        // Partition in place, preserving order: flows crossing a saturated
        // resource freeze now (their weight leaves the pool), the rest
        // stay. The weight decrements happen in the same relative order as
        // the historical two-pass partition, so every f64 agrees.
        let mut kept = 0usize;
        let mut froze = 0usize;
        for idx in 0..s.unfrozen.len() {
            let i = s.unfrozen[idx];
            let (a, b) = (p.off[i as usize] as usize, p.off[i as usize + 1] as usize);
            let hr = &p.hop_res[a..b];
            let frozen = hr.iter().any(|&r| s.saturated[r as usize]);
            if frozen {
                froze += 1;
                for (&r, &w) in hr.iter().zip(&p.hop_w[a..b]) {
                    s.weight_sum[r as usize] -= w;
                }
            } else {
                s.unfrozen[kept] = i;
                kept += 1;
            }
        }
        assert!(froze > 0, "water_fill: no progress (numerical issue)");
        s.unfrozen.truncate(kept);
    }
    rounds
}

/// Pool entry point: solve one extracted component. A pure `fn` so the
/// worker pool can ship it without capturing any simulator state. The
/// problem rides back with the result — the merge step reuses its CSR to
/// refresh loads.
fn solve_problem(p: CompProblem) -> (CompProblem, Vec<f64>, u64) {
    let mut rates = Vec::new();
    let mut scratch = FillScratch::default();
    let rounds = water_fill(&p, &mut rates, &mut scratch);
    (p, rates, rounds)
}

/// Compile a component into CSR form. `comp_flows` must be sorted
/// ascending by flow id, and `res_local` populated for every resource in
/// `comp_res` (the global-id → local-index scatter table, making each hop
/// an O(1) lookup).
fn build_problem(
    comp_res: &[u32],
    comp_flows: &[(u64, u32)],
    slots: &[FlowSlot],
    arena: &[(ResourceId, f64)],
    eff_cap: &[f64],
    res_local: &[u32],
    p: &mut CompProblem,
) {
    p.caps.clear();
    p.caps.extend(comp_res.iter().map(|&r| eff_cap[r as usize]));
    p.off.clear();
    p.off.reserve(comp_flows.len() + 1);
    p.hop_res.clear();
    p.hop_w.clear();
    p.off.push(0);
    for &(_, slot) in comp_flows {
        let f = &slots[slot as usize];
        let (a, b) = (f.r_start as usize, (f.r_start + f.r_len) as usize);
        for &(r, w) in &arena[a..b] {
            p.hop_res.push(res_local[r.0 as usize]);
            p.hop_w.push(w);
        }
        p.off.push(p.hop_res.len() as u32);
    }
}

/// One collected component: ranges into the shared flat buffers, plus its
/// total route-hop count (the cost model for parallel lane packing).
#[derive(Clone, Copy)]
struct CompRange {
    res: (u32, u32),
    flows: (u32, u32),
    hops: u64,
}

/// Default total-hop-count threshold above which a multi-component
/// recompute is dispatched to the worker pool. Extraction and merge cost
/// a few hundred nanoseconds per flow, so small recomputes (the common
/// per-event case) stay inline.
const DEFAULT_PAR_THRESHOLD: u64 = 16 * 1024;

/// The fluid-flow simulator. See the [module docs](self) for the model.
///
/// ```
/// use ff_desim::{FluidSim, Route};
/// let mut sim = FluidSim::new();
/// let link = sim.add_resource("25G link", 25e9);
/// let a = sim.start_flow(1e9, &Route::unit([link]));
/// let b = sim.start_flow(1e9, &Route::unit([link]));
/// // Max-min fairness: the two flows split the link.
/// assert_eq!(sim.flow_rate(a), 12.5e9);
/// assert_eq!(sim.flow_rate(b), 12.5e9);
/// let (t, done) = sim.advance_to_next_completion().unwrap();
/// assert_eq!(done.len(), 2);
/// assert!((t.as_secs_f64() - 0.08).abs() < 1e-6);
/// ```
pub struct FluidSim {
    now: SimTime,
    // ---- resources, struct-of-arrays (hot) ----
    res_capacity: Vec<f64>,
    /// Rate ceiling imposed by congestion control; `f64::INFINITY` when
    /// uncapped. Applies to the resource's aggregate load.
    res_cap_override: Vec<f64>,
    /// Health multiplier in `(0, 1]` — a PCIe lane trained down, a weak
    /// NVLink bridge, an IB link flash-cut to a lower speed.
    res_degrade: Vec<f64>,
    /// Cached `(capacity × degrade).min(cap_override)`, refreshed whenever
    /// one of its inputs changes.
    res_eff_cap: Vec<f64>,
    /// Instantaneous aggregate load (Σ rate×weight), maintained at each
    /// recompute that touches this resource's component.
    res_load: Vec<f64>,
    /// Active flows whose routes cross this resource, as slot indices
    /// sorted ascending by flow id (slots carry the fid) — the index that
    /// lets the solver walk connected components without scanning all
    /// flows. Slot-only entries keep the hottest BFS scan at 4 bytes per
    /// crossing.
    res_flows: Vec<Vec<u32>>,
    /// On the pending-recompute dirty list (dedup for `FluidSim::dirty`).
    res_dirty: Vec<bool>,
    /// BFS scratch for component collection; always false between
    /// recomputes.
    res_visited: Vec<bool>,
    res_cold: Vec<ResourceCold>,
    // ---- flows: slot arena + id index ----
    slots: Vec<FlowSlot>,
    /// Shared normalized-route storage; slots hold `(r_start, r_len)`
    /// ranges into it. Growth is bounded by per-slot high-water marks,
    /// not flow churn (see [`FlowSlot::r_cap`]).
    route_arena: Vec<(ResourceId, f64)>,
    /// BFS scratch, parallel to `slots`: "already in the component being
    /// collected". A dense bitmap outside the arena, so the membership
    /// test — the single hottest read in component collection — stays
    /// cache-resident instead of poking 100-byte slots. Always false
    /// between recomputes.
    flow_in_comp: Vec<bool>,
    free_slots: Vec<u32>,
    /// Active flows by id (ascending — Reference mode iterates this).
    index: BTreeMap<FlowId, u32>,
    next_flow_id: u64,
    // ---- solver state ----
    rates_dirty: bool,
    mode: SolverMode,
    /// Resources touched since the last recompute — the seeds the
    /// incremental solver grows components from. Deduplicated via
    /// `res_dirty`.
    dirty: Vec<ResourceId>,
    completions: CompletionShards,
    /// Worker lanes for component-parallel solving; 0 = the pool default.
    threads: usize,
    /// Minimum total hop count before a recompute goes parallel.
    par_threshold: u64,
    stats: SolverStats,
    // ---- reusable scratch ----
    comp_res_buf: Vec<u32>,
    comp_flow_buf: Vec<(u64, u32)>,
    bfs_stack: Vec<u32>,
    /// Global-resource-id → component-local index scatter table, sized to
    /// the resource count and repopulated per component, turning the CSR
    /// build and the load refresh into O(1)-per-hop scatters.
    res_local: Vec<u32>,
    load_buf: Vec<f64>,
    problem: CompProblem,
    fill: FillScratch,
    rates_buf: Vec<f64>,
    obs: Option<ObsSink>,
}

impl Default for FluidSim {
    fn default() -> Self {
        Self::new()
    }
}

impl FluidSim {
    /// An empty simulator with the clock at zero, using the incremental
    /// solver.
    pub fn new() -> Self {
        Self::with_solver(SolverMode::Incremental)
    }

    /// An empty simulator using the given [`SolverMode`].
    pub fn with_solver(mode: SolverMode) -> Self {
        FluidSim {
            now: SimTime::ZERO,
            res_capacity: Vec::new(),
            res_cap_override: Vec::new(),
            res_degrade: Vec::new(),
            res_eff_cap: Vec::new(),
            res_load: Vec::new(),
            res_flows: Vec::new(),
            res_dirty: Vec::new(),
            res_visited: Vec::new(),
            res_cold: Vec::new(),
            slots: Vec::new(),
            route_arena: Vec::new(),
            flow_in_comp: Vec::new(),
            free_slots: Vec::new(),
            index: BTreeMap::new(),
            next_flow_id: 0,
            rates_dirty: false,
            mode,
            dirty: Vec::new(),
            completions: CompletionShards::default(),
            threads: 0,
            par_threshold: DEFAULT_PAR_THRESHOLD,
            stats: SolverStats::default(),
            comp_res_buf: Vec::new(),
            comp_flow_buf: Vec::new(),
            bfs_stack: Vec::new(),
            res_local: Vec::new(),
            load_buf: Vec::new(),
            problem: CompProblem::default(),
            fill: FillScratch::default(),
            rates_buf: Vec::new(),
            obs: None,
        }
    }

    /// The solver mode this simulator was built with.
    pub fn solver_mode(&self) -> SolverMode {
        self.mode
    }

    /// Cap the worker lanes used for component-parallel solving. `0`
    /// (the default) means the `ff_util::par` pool default (which honors
    /// `RAYON_NUM_THREADS` / `FF_THREADS`); `1` forces fully serial
    /// solving. Results are bit-identical at every setting — this knob
    /// trades wall-clock only.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured worker-lane cap (`0` = pool default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total route-hop count a recompute must reach before its components
    /// are dispatched to the worker pool. `0` parallelizes every
    /// multi-component recompute (used by the determinism tests);
    /// `u64::MAX` disables the parallel path.
    pub fn set_par_threshold(&mut self, hops: u64) {
        self.par_threshold = hops;
    }

    /// Cumulative solver-effort counters since construction.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    /// Attach an observability recorder. Flow completions become spans on
    /// `track` (timestamps shifted by `offset_ns`), degradations/restores
    /// become instants, and [`flush_stats`](Self::flush_stats) publishes
    /// per-resource utilization gauges. Detaching is not supported; the
    /// sink lives as long as the sim. Only the thread driving the
    /// simulator ever writes to the recorder — the component-parallel
    /// solve path keeps workers away from observability state.
    pub fn attach_recorder(&mut self, rec: &Arc<Recorder>, track: &str, offset_ns: u64) {
        let id = rec.track(track);
        let rounds_counter = rec.counter_handle(&format!("{track}/waterfill_rounds"));
        self.obs = Some(ObsSink {
            rec: Arc::clone(rec),
            track: id,
            track_name: track.to_string(),
            rounds_counter,
            offset_ns,
        });
    }

    /// Publish per-resource utilization gauges to the attached recorder:
    /// `{track}/util/{res}` (time-averaged), `{track}/peak/{res}`,
    /// `{track}/served/{res}` (units moved), `{track}/cap/{res}`
    /// (∫ capacity dt). No-op without a recorder. Call at the end of a run;
    /// last write wins, so repeated calls just refresh the values.
    pub fn flush_stats(&mut self) {
        self.recompute_rates_if_dirty();
        for ri in 0..self.res_cold.len() {
            self.sync_resource_stats(ri);
        }
        let Some(obs) = &self.obs else { return };
        for r in &self.res_cold {
            // A resource with zero ∫capacity·dt never saw simulated time
            // pass (e.g. instantaneous-rate probes); its utilization is
            // 0/0, not an interesting 0%. Skip it.
            if r.stats.capacity_integral() == 0.0 {
                continue;
            }
            let p = &obs.track_name;
            obs.rec
                .gauge_set(&format!("{p}/util/{}", r.name), r.stats.utilization());
            obs.rec
                .gauge_set(&format!("{p}/peak/{}", r.name), r.stats.peak_utilization());
            obs.rec
                .gauge_set(&format!("{p}/served/{}", r.name), r.stats.units_served());
            obs.rec
                .gauge_set(&format!("{p}/cap/{}", r.name), r.stats.capacity_integral());
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.res_capacity.len()
    }

    /// The `i`-th resource (ids are dense, `0..resource_count()`).
    pub fn resource_at(&self, i: usize) -> ResourceId {
        assert!(i < self.res_capacity.len());
        ResourceId(i as u32)
    }

    /// Register a resource with `capacity` units/second (must be positive
    /// and finite). `name` appears in statistics reports.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "resource capacity must be positive and finite, got {capacity}"
        );
        let id = ResourceId(u32::try_from(self.res_capacity.len()).expect("too many resources"));
        self.res_capacity.push(capacity);
        self.res_cap_override.push(f64::INFINITY);
        self.res_degrade.push(1.0);
        self.res_eff_cap.push(capacity);
        self.res_load.push(0.0);
        self.res_flows.push(Vec::new());
        self.res_dirty.push(false);
        self.res_visited.push(false);
        self.res_cold.push(ResourceCold {
            name: name.into(),
            stats: ResourceStats::default(),
            synced_to: self.now,
        });
        id
    }

    /// The configured capacity of `r`.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.res_capacity[r.0 as usize]
    }

    /// The name given to `r` at registration.
    pub fn resource_name(&self, r: ResourceId) -> &str {
        &self.res_cold[r.0 as usize].name
    }

    /// `Ok(index)` when `r` names a registered resource.
    fn check_resource(&self, r: ResourceId) -> Result<usize, FfError> {
        let ri = r.0 as usize;
        if ri < self.res_capacity.len() {
            Ok(ri)
        } else {
            Err(FfError::new(
                FfKind::Config,
                format!(
                    "unknown resource {:?} (registered: {})",
                    r,
                    self.res_capacity.len()
                ),
            ))
        }
    }

    /// Re-derive the cached effective capacity of resource `ri`.
    fn refresh_eff_cap(&mut self, ri: usize) {
        self.res_eff_cap[ri] =
            (self.res_capacity[ri] * self.res_degrade[ri]).min(self.res_cap_override[ri]);
    }

    /// Impose (or lift, with `f64::INFINITY`) a congestion-control ceiling
    /// on the aggregate load of `r`. Used by DCQCN-style rate limiting.
    /// Rejects unknown resources and non-positive (or NaN) caps.
    pub fn set_rate_cap(&mut self, r: ResourceId, cap: f64) -> Result<(), FfError> {
        let ri = self.check_resource(r)?;
        if cap.is_nan() || cap <= 0.0 {
            return Err(FfError::new(
                FfKind::Config,
                format!("rate cap must be positive, got {cap}"),
            ));
        }
        self.res_cap_override[ri] = cap;
        self.refresh_eff_cap(ri);
        self.mark_dirty(r);
        Ok(())
    }

    /// Degrade `r` to `factor × capacity` (`0 < factor ≤ 1`) — fault
    /// injection for a link trained down or a flaky bridge. In-flight flows
    /// re-derive their rates immediately; compose with
    /// [`restore`](Self::restore) to model transient flash cuts. Rejects
    /// unknown resources and factors outside `(0, 1]`.
    pub fn degrade(&mut self, r: ResourceId, factor: f64) -> Result<(), FfError> {
        let ri = self.check_resource(r)?;
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(FfError::new(
                FfKind::Config,
                format!("degrade factor must be in (0, 1], got {factor}"),
            ));
        }
        self.res_degrade[ri] = factor;
        self.refresh_eff_cap(ri);
        self.mark_dirty(r);
        if let Some(obs) = &self.obs {
            let name = format!("degrade {}", self.res_cold[ri].name);
            obs.rec.instant(
                obs.track,
                &name,
                obs.offset_ns + self.now.as_nanos(),
                factor,
            );
        }
        Ok(())
    }

    /// Lift any degradation on `r` (the link re-trained at full speed).
    /// Rejects unknown resources.
    pub fn restore(&mut self, r: ResourceId) -> Result<(), FfError> {
        let ri = self.check_resource(r)?;
        self.res_degrade[ri] = 1.0;
        self.refresh_eff_cap(ri);
        self.mark_dirty(r);
        if let Some(obs) = &self.obs {
            let name = format!("restore {}", self.res_cold[ri].name);
            obs.rec
                .instant(obs.track, &name, obs.offset_ns + self.now.as_nanos(), 1.0);
        }
        Ok(())
    }

    /// Set the degradation of `r` to an arbitrary envelope factor:
    /// `1.0` restores, anything else degrades. The convenience that lets
    /// a piecewise-constant [`Envelope`](crate::envelope::Envelope)
    /// replay as plain degrade/restore edges.
    pub fn modulate(&mut self, r: ResourceId, factor: f64) -> Result<(), FfError> {
        if factor == 1.0 {
            self.restore(r)
        } else {
            self.degrade(r, factor)
        }
    }

    /// The current degradation factor of `r` (`1.0` when healthy).
    pub fn degradation(&self, r: ResourceId) -> f64 {
        self.res_degrade[r.0 as usize]
    }

    /// Capacity of `r` after degradation and rate caps — what flows can
    /// actually use right now.
    pub fn effective_capacity(&self, r: ResourceId) -> f64 {
        self.res_eff_cap[r.0 as usize]
    }

    /// Begin a flow of `work` units over `route` at the current time.
    /// `work` must be positive; `route` must be non-empty (model pure delays
    /// with the event queue instead).
    pub fn start_flow(&mut self, work: f64, route: &Route) -> FlowId {
        assert!(
            work > 0.0 && work.is_finite(),
            "flow work must be positive and finite, got {work}"
        );
        let normalized = route.normalized();
        assert!(!normalized.is_empty(), "flow route must be non-empty");
        for &(r, _) in &normalized {
            assert!(
                (r.0 as usize) < self.res_capacity.len(),
                "route references unknown resource {r:?}"
            );
        }
        let fid = self.next_flow_id;
        self.next_flow_id += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.slots.len()).expect("too many concurrent flows");
                self.slots.push(FlowSlot {
                    fid: FREE_SLOT,
                    r_start: 0,
                    r_len: 0,
                    r_cap: 0,
                    work: 0.0,
                    remaining: 0.0,
                    rate: 0.0,
                    started: SimTime::ZERO,
                    updated_at: SimTime::ZERO,
                    epoch: 0,
                });
                self.flow_in_comp.push(false);
                s
            }
        };
        for &(r, _) in &normalized {
            debug_assert!(self.res_flows[r.0 as usize]
                .last()
                .is_none_or(|&s| self.slots[s as usize].fid < fid));
            // Flow ids are monotonic, so the fid-sorted index appends.
            self.res_flows[r.0 as usize].push(slot);
            self.mark_dirty(r);
        }
        let n = u32::try_from(normalized.len()).expect("route too long");
        let r_start = {
            let f = &self.slots[slot as usize];
            debug_assert_eq!(f.fid, FREE_SLOT, "slot on free list must be vacant");
            if n <= f.r_cap {
                let a = f.r_start as usize;
                self.route_arena[a..a + normalized.len()].copy_from_slice(&normalized);
                f.r_start
            } else {
                let a = u32::try_from(self.route_arena.len())
                    .expect("route arena exceeds u32 indexing");
                self.route_arena.extend_from_slice(&normalized);
                a
            }
        };
        let f = &mut self.slots[slot as usize];
        f.fid = fid;
        f.r_start = r_start;
        f.r_len = n;
        f.r_cap = f.r_cap.max(n);
        f.work = work;
        f.remaining = work;
        f.rate = 0.0;
        f.started = self.now;
        f.updated_at = self.now;
        f.epoch = 0;
        let id = FlowId(fid);
        self.index.insert(id, slot);
        self.stats.flow_starts += 1;
        id
    }

    /// Drop `id` from every per-resource crossing index and mark those
    /// resources dirty.
    fn unlink_flow(&mut self, id: FlowId, slot: u32) {
        let (a, b) = {
            let f = &self.slots[slot as usize];
            (f.r_start as usize, (f.r_start + f.r_len) as usize)
        };
        {
            // The lists are fid-sorted and every listed slot (including the
            // one being unlinked — its fid clears below) still carries a
            // live fid, so binary search through the slot arena works.
            let slots = &self.slots;
            let arena = &self.route_arena;
            for &(r, _) in &arena[a..b] {
                let list = &mut self.res_flows[r.0 as usize];
                let i = list
                    .binary_search_by_key(&id.0, |&s| slots[s as usize].fid)
                    .expect("flow indexed on its route");
                list.remove(i);
            }
        }
        for h in a..b {
            let r = self.route_arena[h].0;
            self.mark_dirty(r);
        }
        let f = &mut self.slots[slot as usize];
        f.r_len = 0;
        f.fid = FREE_SLOT;
        self.free_slots.push(slot);
    }

    /// Abort an active flow, returning the work it had left. Panics if the
    /// flow is unknown (already completed or cancelled).
    pub fn cancel_flow(&mut self, id: FlowId) -> f64 {
        let slot = self.index.remove(&id).expect("cancel_flow: unknown flow");
        let f = &mut self.slots[slot as usize];
        // The rate has been valid since `updated_at` (every clock advance
        // recomputes first), so one settle yields the true remaining work.
        let dt = self.now.since(f.updated_at).as_secs_f64();
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        let remaining = f.remaining;
        self.unlink_flow(id, slot);
        self.stats.cancels += 1;
        remaining
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.index.len()
    }

    /// The current max-min fair rate of `id` in units/second.
    pub fn flow_rate(&mut self, id: FlowId) -> f64 {
        self.recompute_rates_if_dirty();
        let slot = *self.index.get(&id).expect("flow_rate: unknown flow");
        self.slots[slot as usize].rate
    }

    /// The instant the next flow(s) will complete, or `None` if idle.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        self.recompute_rates_if_dirty();
        match self.mode {
            SolverMode::Reference => self
                .index
                .values()
                .map(|&s| predict(&self.slots[s as usize]))
                .min(),
            SolverMode::Incremental => self.completions.peek_valid(&self.slots),
        }
    }

    /// Advance the clock to the next completion, removing and returning all
    /// flows that finish at that instant. Returns `None` when no flows are
    /// active.
    pub fn advance_to_next_completion(&mut self) -> Option<(SimTime, Vec<FlowId>)> {
        if self.index.is_empty() {
            return None;
        }
        self.recompute_rates_if_dirty();
        let (at, mut done) = match self.mode {
            SolverMode::Reference => {
                // Identify the earliest finishers before touching state, so
                // a flow that merely catches up at `at` isn't mistaken for
                // complete.
                let mut at = SimTime::MAX;
                let mut done: Vec<FlowId> = Vec::new();
                for (&id, &slot) in &self.index {
                    let fin = predict(&self.slots[slot as usize]);
                    if fin < at {
                        at = fin;
                        done.clear();
                        done.push(id);
                    } else if fin == at {
                        done.push(id);
                    }
                }
                (at, done)
            }
            SolverMode::Incremental => {
                let at = self
                    .completions
                    .peek_valid(&self.slots)
                    .expect("active flows must have pending completion entries");
                let mut done: Vec<FlowId> = Vec::new();
                self.completions.pop_batch(at, &self.slots, &mut done);
                (at, done)
            }
        };
        done.sort_unstable();
        debug_assert!(!done.is_empty());
        self.now = at;
        for &id in &done {
            let slot = self.index.remove(&id).expect("completion bookkeeping");
            if let Some(obs) = &self.obs {
                let f = &self.slots[slot as usize];
                let name = format!(
                    "xfer {}",
                    self.route_arena[f.r_start as usize..(f.r_start + f.r_len) as usize]
                        .iter()
                        .map(|&(r, _)| self.res_cold[r.0 as usize].name.as_str())
                        .collect::<Vec<_>>()
                        .join("+")
                );
                obs.rec.span(
                    obs.track,
                    &name,
                    obs.offset_ns + f.started.as_nanos(),
                    at.since(f.started).as_nanos(),
                    f.work,
                );
            }
            self.unlink_flow(id, slot);
            self.stats.completions += 1;
        }
        Some((at, done))
    }

    /// Advance the clock to `t`, which must not pass the next completion
    /// (use [`advance_to_next_completion`](Self::advance_to_next_completion)
    /// to cross completions). Used to interleave externally scheduled events
    /// with in-flight transfers.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to: {t} is in the past");
        if t == self.now {
            // Same-instant advances (common under DagSim gate cascades) need
            // no recompute: deferring it lets several structural events at
            // one instant share a single solve.
            return;
        }
        if let Some(next) = self.next_completion_time() {
            assert!(
                t <= next,
                "advance_to: {t} would skip a completion at {next}"
            );
        }
        self.now = t;
    }

    /// Run the simulation until no flows remain, invoking `on_complete` for
    /// each completed flow (in deterministic FlowId order within an
    /// instant). The callback may start new flows.
    pub fn drain(&mut self, mut on_complete: impl FnMut(&mut Self, SimTime, FlowId)) {
        while let Some((at, done)) = self.advance_to_next_completion() {
            for id in done {
                on_complete(self, at, id);
            }
        }
    }

    /// Utilization statistics for `r` since the start of the run.
    pub fn stats(&mut self, r: ResourceId) -> &ResourceStats {
        self.recompute_rates_if_dirty();
        self.sync_resource_stats(r.0 as usize);
        &self.res_cold[r.0 as usize].stats
    }

    /// Instantaneous aggregate load on `r` (units/second): Σ rate×weight of
    /// the active flows crossing it. At most `capacity`. O(1): the load is
    /// maintained by the solver at every recompute.
    pub fn resource_load(&mut self, r: ResourceId) -> f64 {
        self.recompute_rates_if_dirty();
        self.res_load[r.0 as usize]
    }

    /// Number of active flows crossing `r`. O(1) via the per-resource flow
    /// index (a route crossing `r` twice still counts as one flow).
    pub fn flows_through(&self, r: ResourceId) -> usize {
        self.res_flows[r.0 as usize].len()
    }

    /// Put `r` on the dirty list (deduplicated) and flag rates stale.
    fn mark_dirty(&mut self, r: ResourceId) {
        self.rates_dirty = true;
        let ri = r.0 as usize;
        if !self.res_dirty[ri] {
            self.res_dirty[ri] = true;
            self.dirty.push(r);
        }
    }

    /// Integrate `r`'s statistics up to `now` at its current load.
    fn sync_resource_stats(&mut self, ri: usize) {
        let now = self.now;
        let cold = &mut self.res_cold[ri];
        let dt = now.since(cold.synced_to).as_secs_f64();
        if dt > 0.0 {
            cold.stats
                .record(dt, self.res_load[ri], self.res_capacity[ri]);
        }
        cold.synced_to = now;
    }

    /// If rates are stale, re-solve the max-min allocation for every
    /// component touched by a dirty resource (all components in
    /// [`SolverMode::Reference`]). Disjoint components may be farmed out
    /// to the worker pool; results merge serially in component order, so
    /// the outcome is bit-identical at any thread count.
    fn recompute_rates_if_dirty(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        self.stats.recomputes += 1;
        let mut seeds = std::mem::take(&mut self.dirty);
        for &r in &seeds {
            self.res_dirty[r.0 as usize] = false;
        }
        match self.mode {
            SolverMode::Incremental => seeds.sort_unstable(),
            SolverMode::Reference => {
                seeds.clear();
                seeds.extend((0..self.res_capacity.len() as u32).map(ResourceId));
            }
        }
        // Phase 1: collect all dirty components into the shared flat
        // buffers (serial — the BFS is cheap and wants the index).
        let mut comp_res = std::mem::take(&mut self.comp_res_buf);
        let mut comp_flows = std::mem::take(&mut self.comp_flow_buf);
        comp_res.clear();
        comp_flows.clear();
        let mut comps: Vec<CompRange> = Vec::new();
        let mut total_hops = 0u64;
        for &seed in &seeds {
            if self.res_visited[seed.0 as usize] {
                continue;
            }
            let range = self.collect_component(seed, &mut comp_res, &mut comp_flows);
            total_hops += range.hops;
            comps.push(range);
        }
        seeds.clear();
        self.dirty = seeds;
        self.stats.components += comps.len() as u64;
        self.stats.flow_solves += comp_flows.len() as u64;

        // Phase 2: solve. Components are independent; go wide when there
        // is enough work to amortize extraction, otherwise solve inline
        // with reusable scratch. Both paths run the identical fill.
        let width = if self.threads == 0 {
            par::default_threads()
        } else {
            self.threads
        };
        let solvable = comps.iter().filter(|c| c.flows.0 != c.flows.1).count();
        let mut total_rounds = 0u64;
        if width > 1 && solvable >= 2 && total_hops >= self.par_threshold {
            self.stats.parallel_batches += 1;
            let mut res_local = std::mem::take(&mut self.res_local);
            res_local.resize(self.res_capacity.len(), 0);
            let mut jobs: Vec<(u64, CompProblem)> = Vec::with_capacity(solvable);
            let mut job_of: Vec<Option<usize>> = Vec::with_capacity(comps.len());
            for c in &comps {
                if c.flows.0 == c.flows.1 {
                    job_of.push(None);
                    continue;
                }
                let cr = &comp_res[c.res.0 as usize..c.res.1 as usize];
                for (i, &r) in cr.iter().enumerate() {
                    res_local[r as usize] = i as u32;
                }
                let mut p = CompProblem::default();
                build_problem(
                    cr,
                    &comp_flows[c.flows.0 as usize..c.flows.1 as usize],
                    &self.slots,
                    &self.route_arena,
                    &self.res_eff_cap,
                    &res_local,
                    &mut p,
                );
                job_of.push(Some(jobs.len()));
                jobs.push((c.hops.max(1), p));
            }
            self.res_local = res_local;
            let results = par::pool().map_weighted(jobs, width, solve_problem);
            for (ci, c) in comps.iter().enumerate() {
                match job_of[ci] {
                    Some(j) => {
                        let (p, rates, rounds) = &results[j];
                        total_rounds += rounds;
                        self.apply_component(
                            &comp_res[c.res.0 as usize..c.res.1 as usize],
                            &comp_flows[c.flows.0 as usize..c.flows.1 as usize],
                            rates,
                            Some(p),
                        );
                    }
                    None => {
                        self.stats.empty_components += 1;
                        self.apply_component(
                            &comp_res[c.res.0 as usize..c.res.1 as usize],
                            &[],
                            &[],
                            None,
                        );
                    }
                }
            }
        } else {
            for c in &comps {
                let cr = &comp_res[c.res.0 as usize..c.res.1 as usize];
                let cf = &comp_flows[c.flows.0 as usize..c.flows.1 as usize];
                if cf.is_empty() {
                    self.stats.empty_components += 1;
                    self.apply_component(cr, &[], &[], None);
                    continue;
                }
                let mut problem = std::mem::take(&mut self.problem);
                let mut fill = std::mem::take(&mut self.fill);
                let mut rates = std::mem::take(&mut self.rates_buf);
                let mut res_local = std::mem::take(&mut self.res_local);
                res_local.resize(self.res_capacity.len(), 0);
                for (i, &r) in cr.iter().enumerate() {
                    res_local[r as usize] = i as u32;
                }
                build_problem(
                    cr,
                    cf,
                    &self.slots,
                    &self.route_arena,
                    &self.res_eff_cap,
                    &res_local,
                    &mut problem,
                );
                self.res_local = res_local;
                total_rounds += water_fill(&problem, &mut rates, &mut fill);
                self.apply_component(cr, cf, &rates, Some(&problem));
                self.problem = problem;
                self.fill = fill;
                self.rates_buf = rates;
            }
        }
        self.stats.fill_rounds += total_rounds;

        // Phase 3: clear BFS marks and publish effort counters (merge
        // thread only — workers never touch the recorder).
        for &ri in comp_res.iter() {
            self.res_visited[ri as usize] = false;
        }
        self.comp_res_buf = comp_res;
        self.comp_flow_buf = comp_flows;
        if total_rounds > 0 {
            if let Some(obs) = &self.obs {
                obs.rec
                    .counter_add_by(obs.rounds_counter, total_rounds as f64);
            }
        }
    }

    /// Collect the connected component of the flow↔resource graph
    /// containing `seed`, appending into the shared flat buffers. The
    /// flow range comes back sorted ascending by id so fill iteration
    /// order — and therefore every f64 rounding — is independent of which
    /// resource seeded the walk; the resource range stays in (equally
    /// deterministic) discovery order.
    fn collect_component(
        &mut self,
        seed: ResourceId,
        comp_res: &mut Vec<u32>,
        comp_flows: &mut Vec<(u64, u32)>,
    ) -> CompRange {
        let res_start = comp_res.len() as u32;
        let flow_start = comp_flows.len() as u32;
        let mut hops = 0u64;
        let mut stack = std::mem::take(&mut self.bfs_stack);
        stack.clear();
        // Disjoint-field borrows: the walk reads the crossing indexes and
        // routes, and writes only the two scratch bitmaps. Resources are
        // marked visited when *pushed*, so each enters the stack exactly
        // once and no pop needs a revisit check.
        let res_flows = &self.res_flows;
        let slots = &self.slots;
        let arena = &self.route_arena;
        let res_visited = &mut self.res_visited;
        let flow_in_comp = &mut self.flow_in_comp;
        res_visited[seed.0 as usize] = true;
        stack.push(seed.0);
        while let Some(ri) = stack.pop() {
            comp_res.push(ri);
            for &slot in &res_flows[ri as usize] {
                if flow_in_comp[slot as usize] {
                    continue;
                }
                flow_in_comp[slot as usize] = true;
                let f = &slots[slot as usize];
                comp_flows.push((f.fid, slot));
                let route = &arena[f.r_start as usize..(f.r_start + f.r_len) as usize];
                hops += route.len() as u64;
                for &(r, _) in route {
                    if !res_visited[r.0 as usize] {
                        res_visited[r.0 as usize] = true;
                        stack.push(r.0);
                    }
                }
            }
        }
        self.bfs_stack = stack;
        // Flows must come out sorted by id: flow order fixes the f64
        // accumulation order of every weight/load sum. Resource order, by
        // contrast, only feeds order-*independent* operations — an exact
        // min reduction, per-resource flag sets and disjoint stat syncs —
        // so comp_res legitimately stays in discovery order (which is
        // itself deterministic: the walk is seeded and expanded from
        // fid-sorted index lists, never from hash/timing state).
        comp_flows[flow_start as usize..].sort_unstable();
        CompRange {
            res: (res_start, comp_res.len() as u32),
            flows: (flow_start, comp_flows.len() as u32),
            hops,
        }
    }

    /// Settle-and-apply one component's freshly solved rates, then refresh
    /// its per-resource loads. Serial and deterministic: this is the merge
    /// step the parallel path funnels into.
    fn apply_component(
        &mut self,
        comp_res: &[u32],
        comp_flows: &[(u64, u32)],
        rates: &[f64],
        prob: Option<&CompProblem>,
    ) {
        debug_assert_eq!(comp_flows.len(), rates.len());
        debug_assert!(prob.is_some() || comp_flows.is_empty());
        let now = self.now;
        let mode = self.mode;
        let arena = &self.route_arena;
        let slots = &mut self.slots;
        let flow_in_comp = &mut self.flow_in_comp;
        let completions = &mut self.completions;
        for (i, &(fid, slot)) in comp_flows.iter().enumerate() {
            // Settle and apply, but only where the rate actually changed:
            // an untouched flow keeps its (updated_at, remaining, rate)
            // triple bit-identical, so its heap entry — and the
            // Reference-mode linear scan — still predict the same finish
            // instant.
            let f = &mut slots[slot as usize];
            let nr = rates[i];
            let mut entry: Option<(u32, CompEntry)> = None;
            if f.rate != nr {
                let dt = now.since(f.updated_at).as_secs_f64();
                if dt > 0.0 {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
                f.updated_at = now;
                f.rate = nr;
                f.epoch += 1;
                if mode == SolverMode::Incremental {
                    let at = predict(f);
                    entry = Some((
                        arena[f.r_start as usize].0 .0,
                        CompEntry {
                            at,
                            id: FlowId(fid),
                            epoch: f.epoch,
                            slot,
                        },
                    ));
                }
            }
            flow_in_comp[slot as usize] = false;
            if let Some((r0, e)) = entry {
                completions.push(r0, e);
            }
        }
        // Refresh per-resource loads by scattering each flow's rate×weight
        // into component-local accumulators, then sync statistics at the
        // old load wherever it changed. The solved problem's CSR already
        // holds (local resource, weight) per hop, so the scatter is a pure
        // sequential sweep — no route pointers, no global index. Flow-major
        // iteration (the CSR rows follow fid-sorted comp_flows) adds to
        // each accumulator in ascending flow-id order — the identical add
        // sequence a resource-major walk over the fid-sorted crossing index
        // would produce, so every f64 bit matches. `rates[i]` equals the
        // settled `f.rate` for changed and unchanged flows alike.
        let mut load_buf = std::mem::take(&mut self.load_buf);
        load_buf.clear();
        load_buf.resize(comp_res.len(), 0.0);
        if let Some(p) = prob {
            for (i, &rate) in rates.iter().enumerate() {
                for h in p.off[i] as usize..p.off[i + 1] as usize {
                    load_buf[p.hop_res[h] as usize] += rate * p.hop_w[h];
                }
            }
        }
        for (i, &ri) in comp_res.iter().enumerate() {
            let load = load_buf[i];
            if load != self.res_load[ri as usize] {
                self.sync_resource_stats(ri as usize);
                self.res_load[ri as usize] = load;
            }
        }
        self.load_buf = load_buf;
    }

    /// Time a flow has been active.
    pub fn flow_age(&self, id: FlowId) -> Option<SimDuration> {
        self.index
            .get(&id)
            .map(|&s| self.now.since(self.slots[s as usize].started))
    }

    /// Drop every queued completion entry (test hook for shard accounting).
    #[cfg(test)]
    fn clear_completions(&mut self) {
        self.completions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let f = sim.start_flow(50.0, &Route::unit([link]));
        approx(sim.flow_rate(f), 100.0);
        let (t, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done, vec![f]);
        approx(t.as_secs_f64(), 0.5);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let a = sim.start_flow(100.0, &Route::unit([link]));
        let b = sim.start_flow(100.0, &Route::unit([link]));
        approx(sim.flow_rate(a), 50.0);
        approx(sim.flow_rate(b), 50.0);
        let (t, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done.len(), 2);
        approx(t.as_secs_f64(), 2.0);
    }

    #[test]
    fn remaining_flow_speeds_up_after_completion() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let _a = sim.start_flow(50.0, &Route::unit([link]));
        let b = sim.start_flow(100.0, &Route::unit([link]));
        // Both run at 50; a finishes at t=1 with b having 50 left.
        let (t1, done1) = sim.advance_to_next_completion().unwrap();
        approx(t1.as_secs_f64(), 1.0);
        assert_eq!(done1.len(), 1);
        approx(sim.flow_rate(b), 100.0);
        let (t2, done2) = sim.advance_to_next_completion().unwrap();
        approx(t2.as_secs_f64(), 1.5);
        assert_eq!(done2, vec![b]);
    }

    #[test]
    fn max_min_respects_multiple_bottlenecks() {
        // Classic 3-flow example: A uses link1, B uses link2, C uses both.
        // link1 cap 10, link2 cap 4. Max-min: C and B share link2 at 2 each;
        // A then gets the rest of link1 = 8.
        let mut sim = FluidSim::new();
        let l1 = sim.add_resource("l1", 10.0);
        let l2 = sim.add_resource("l2", 4.0);
        let a = sim.start_flow(100.0, &Route::unit([l1]));
        let b = sim.start_flow(100.0, &Route::unit([l2]));
        let c = sim.start_flow(100.0, &Route::unit([l1, l2]));
        approx(sim.flow_rate(b), 2.0);
        approx(sim.flow_rate(c), 2.0);
        approx(sim.flow_rate(a), 8.0);
    }

    #[test]
    fn weights_amplify_consumption() {
        // One unit of this flow consumes 2 units of link capacity, so a
        // 100-cap link moves it at 50.
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let f = sim.start_flow(100.0, &Route::weighted([(link, 2.0)]));
        approx(sim.flow_rate(f), 50.0);
    }

    #[test]
    fn duplicate_resource_in_route_accumulates_weight() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let f = sim.start_flow(100.0, &Route::unit([link, link]));
        approx(sim.flow_rate(f), 50.0);
    }

    #[test]
    fn duplicate_resource_route_counts_once_in_index() {
        // A route crossing the same resource twice: the normalized weight
        // accumulates (2×), but the flow index and load bookkeeping must
        // count the flow exactly once.
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let other = sim.add_resource("other", 100.0);
        let f = sim.start_flow(100.0, &Route::unit([link, other, link]));
        approx(sim.flow_rate(f), 50.0);
        assert_eq!(sim.flows_through(link), 1);
        assert_eq!(sim.flows_through(other), 1);
        approx(sim.resource_load(link), 100.0);
        approx(sim.resource_load(other), 50.0);
        let (_, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done, vec![f]);
        assert_eq!(sim.flows_through(link), 0);
        approx(sim.resource_load(link), 0.0);
    }

    #[test]
    fn rate_cap_limits_aggregate() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.set_rate_cap(link, 10.0).unwrap();
        let a = sim.start_flow(100.0, &Route::unit([link]));
        let b = sim.start_flow(100.0, &Route::unit([link]));
        approx(sim.flow_rate(a), 5.0);
        approx(sim.flow_rate(b), 5.0);
        sim.set_rate_cap(link, f64::INFINITY.min(1e18)).unwrap();
        approx(sim.flow_rate(a), 50.0);
    }

    #[test]
    fn degrade_shrinks_rates_and_restore_recovers() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let f = sim.start_flow(1000.0, &Route::unit([link]));
        approx(sim.flow_rate(f), 100.0);
        // Link trains down to a quarter speed mid-flow.
        sim.degrade(link, 0.25).unwrap();
        approx(sim.degradation(link), 0.25);
        approx(sim.effective_capacity(link), 25.0);
        approx(sim.flow_rate(f), 25.0);
        // Flash cut over: full speed again.
        sim.restore(link).unwrap();
        approx(sim.flow_rate(f), 100.0);
    }

    #[test]
    fn degrade_composes_with_rate_cap() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.set_rate_cap(link, 40.0).unwrap();
        sim.degrade(link, 0.5).unwrap();
        // min(100×0.5, cap 40) = 40: the tighter constraint wins.
        approx(sim.effective_capacity(link), 40.0);
        sim.degrade(link, 0.1).unwrap();
        approx(sim.effective_capacity(link), 10.0);
        let f = sim.start_flow(100.0, &Route::unit([link]));
        approx(sim.flow_rate(f), 10.0);
    }

    #[test]
    fn degraded_link_delays_completion() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.degrade(link, 0.5).unwrap();
        let f = sim.start_flow(100.0, &Route::unit([link]));
        let (t, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done, vec![f]);
        approx(t.as_secs_f64(), 2.0);
    }

    #[test]
    fn invalid_inputs_return_typed_errors_not_panics() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        // Out-of-range degrade factors.
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            let err = sim.degrade(link, bad).unwrap_err();
            assert_eq!(err.kind(), FfKind::Config, "factor {bad}");
        }
        // Non-positive / NaN rate caps.
        for bad in [0.0, -5.0, f64::NAN] {
            let err = sim.set_rate_cap(link, bad).unwrap_err();
            assert_eq!(err.kind(), FfKind::Config, "cap {bad}");
        }
        // Unknown resources on all three entry points.
        let ghost = ResourceId(99);
        assert_eq!(sim.degrade(ghost, 0.5).unwrap_err().kind(), FfKind::Config);
        assert_eq!(sim.restore(ghost).unwrap_err().kind(), FfKind::Config);
        assert_eq!(
            sim.set_rate_cap(ghost, 1.0).unwrap_err().kind(),
            FfKind::Config
        );
        // The failed calls left no dirty state behind: rates unchanged.
        let f = sim.start_flow(100.0, &Route::unit([link]));
        approx(sim.flow_rate(f), 100.0);
        assert_eq!(sim.degradation(link), 1.0);
    }

    #[test]
    fn cancel_returns_remaining_work() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let f = sim.start_flow(100.0, &Route::unit([link]));
        sim.advance_to(SimTime::from_secs(0) + SimDuration::from_millis(500));
        let left = sim.cancel_flow(f);
        approx(left, 50.0);
        assert_eq!(sim.active_flows(), 0);
    }

    #[test]
    fn drain_visits_all_completions() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        for i in 1..=5 {
            sim.start_flow(10.0 * i as f64, &Route::unit([link]));
        }
        let mut seen = Vec::new();
        sim.drain(|_, _, id| seen.push(id));
        assert_eq!(seen.len(), 5);
        assert_eq!(sim.active_flows(), 0);
    }

    #[test]
    fn drain_callback_can_chain_flows() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.start_flow(100.0, &Route::unit([link]));
        let mut chained = false;
        let mut completions = 0;
        sim.drain(|sim, _, _| {
            completions += 1;
            if !chained {
                chained = true;
                sim.start_flow(200.0, &Route::unit([link]));
            }
        });
        assert_eq!(completions, 2);
        approx(sim.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn utilization_stats_accumulate() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.start_flow(100.0, &Route::unit([link]));
        sim.advance_to_next_completion();
        let s = sim.stats(link);
        approx(s.units_served(), 100.0);
        approx(s.utilization(), 1.0);
    }

    #[test]
    fn idle_resource_has_zero_utilization() {
        let mut sim = FluidSim::new();
        let busy = sim.add_resource("busy", 100.0);
        let idle = sim.add_resource("idle", 100.0);
        sim.start_flow(100.0, &Route::unit([busy]));
        sim.advance_to_next_completion();
        approx(sim.stats(idle).utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "route must be non-empty")]
    fn empty_route_rejected() {
        let mut sim = FluidSim::new();
        sim.start_flow(1.0, &Route::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut sim = FluidSim::new();
        sim.add_resource("bad", 0.0);
    }

    #[test]
    fn many_flows_high_fan_in_is_stable() {
        let mut sim = FluidSim::new();
        let nic = sim.add_resource("nic", 25e9);
        let links: Vec<_> = (0..64)
            .map(|i| sim.add_resource(format!("l{i}"), 25e9))
            .collect();
        for l in &links {
            sim.start_flow(1e9, &Route::unit([*l, nic]));
        }
        // All 64 flows funnel into one NIC: each gets 25e9/64.
        let ids: Vec<FlowId> = (0..64).map(FlowId).collect();
        for id in ids {
            approx(sim.flow_rate(id), 25e9 / 64.0);
        }
        let (t, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done.len(), 64);
        approx(t.as_secs_f64(), 64.0 * 1e9 / 25e9);
    }

    #[test]
    fn disjoint_components_solve_independently() {
        // Two unrelated links: finishing a flow on one must not disturb the
        // other's flow state (its rate, and thus predicted finish, is
        // untouched by the incremental recompute).
        let mut sim = FluidSim::new();
        let l1 = sim.add_resource("l1", 100.0);
        let l2 = sim.add_resource("l2", 100.0);
        let a = sim.start_flow(50.0, &Route::unit([l1]));
        let b = sim.start_flow(200.0, &Route::unit([l2]));
        let (t1, done1) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done1, vec![a]);
        approx(t1.as_secs_f64(), 0.5);
        let (t2, done2) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done2, vec![b]);
        approx(t2.as_secs_f64(), 2.0);
    }

    #[test]
    fn reference_mode_matches_incremental_bitwise() {
        // The two solver modes share the per-component fill arithmetic, so
        // rates and completion instants must agree exactly (==, not approx).
        let run = |mode: SolverMode| {
            let mut sim = FluidSim::with_solver(mode);
            let r: Vec<_> = (0..4)
                .map(|i| sim.add_resource(format!("r{i}"), 10.0 + 3.0 * i as f64))
                .collect();
            sim.start_flow(17.0, &Route::unit([r[0], r[1]]));
            sim.start_flow(23.0, &Route::unit([r[1], r[2]]));
            sim.start_flow(11.0, &Route::unit([r[3]]));
            sim.start_flow(29.0, &Route::weighted([(r[0], 2.0), (r[3], 0.5)]));
            let mut events = Vec::new();
            sim.degrade(r[1], 0.6).unwrap();
            while let Some((t, done)) = sim.advance_to_next_completion() {
                for id in done {
                    events.push((t, id));
                }
                if events.len() == 2 {
                    sim.restore(r[1]).unwrap();
                    sim.start_flow(5.0, &Route::unit([r[2]]));
                }
            }
            events
        };
        assert_eq!(run(SolverMode::Incremental), run(SolverMode::Reference));
    }

    #[test]
    fn slot_arena_recycles_without_confusing_identity() {
        // Cancel/complete flows, then start new ones: recycled slots must
        // not resurrect stale completion entries or confuse rates.
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        let a = sim.start_flow(100.0, &Route::unit([link]));
        let b = sim.start_flow(100.0, &Route::unit([link]));
        sim.flow_rate(a); // force a recompute so heap entries exist
        assert_eq!(sim.cancel_flow(a), 100.0);
        // New flow reuses a's slot; its identity must be its own.
        let c = sim.start_flow(10.0, &Route::unit([link]));
        approx(sim.flow_rate(c), 50.0);
        let (_, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done, vec![c]);
        let (_, done) = sim.advance_to_next_completion().unwrap();
        assert_eq!(done, vec![b]);
        assert_eq!(sim.active_flows(), 0);
        let s = sim.solver_stats();
        assert_eq!(s.flow_starts, 3);
        assert_eq!(s.cancels, 1);
        assert_eq!(s.completions, 2);
        // Every non-empty component solved derives at least one rate.
        assert!(s.flow_solves > 0);
        assert!(s.flow_solves >= s.components - s.empty_components);
    }

    #[test]
    fn sharded_completions_pop_in_global_time_order() {
        // Flows whose home resources land in different shards (ids 0 and
        // ≥256) must still complete in global (time, id) order.
        let mut sim = FluidSim::new();
        let r0 = sim.add_resource("zone0", 100.0);
        for i in 1..300 {
            sim.add_resource(format!("pad{i}"), 1.0);
        }
        let far = sim.add_resource("zone1", 100.0);
        assert!(far.0 >= SHARD_SPAN);
        let slow = sim.start_flow(200.0, &Route::unit([r0]));
        let fast = sim.start_flow(50.0, &Route::unit([far]));
        let medium = sim.start_flow(100.0, &Route::unit([far]));
        // far link is shared: fast at 50+? both run at 50 → fast done t=1.
        let (t1, d1) = sim.advance_to_next_completion().unwrap();
        assert_eq!(d1, vec![fast]);
        approx(t1.as_secs_f64(), 1.0);
        let (t2, d2) = sim.advance_to_next_completion().unwrap();
        assert_eq!(d2, vec![medium]);
        approx(t2.as_secs_f64(), 1.5);
        let (t3, d3) = sim.advance_to_next_completion().unwrap();
        assert_eq!(d3, vec![slow]);
        approx(t3.as_secs_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "pending completion entries")]
    fn cleared_completions_are_detected() {
        let mut sim = FluidSim::new();
        let link = sim.add_resource("link", 100.0);
        sim.start_flow(100.0, &Route::unit([link]));
        sim.flow_rate(FlowId(0));
        sim.clear_completions();
        sim.advance_to_next_completion();
    }

    #[test]
    fn parallel_solve_is_bitwise_equal_to_serial() {
        // A multi-component topology solved serially and with the parallel
        // path forced on (threshold 0, several lanes): every rate, load and
        // completion instant must agree bit-for-bit.
        let run = |threads: usize, threshold: u64| {
            let mut sim = FluidSim::new();
            sim.set_threads(threads);
            sim.set_par_threshold(threshold);
            let res: Vec<_> = (0..24)
                .map(|i| sim.add_resource(format!("r{i}"), 50.0 + 7.0 * (i % 5) as f64))
                .collect();
            // Six disjoint components of four resources each.
            for c in 0..6 {
                let base = c * 4;
                for j in 0..5 {
                    let a = res[base + j % 4];
                    let b = res[base + (j + 1) % 4];
                    sim.start_flow(40.0 + 3.0 * j as f64, &Route::unit([a, b]));
                }
            }
            let mut events: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut rates: Vec<f64> = Vec::new();
            for c in 0..6 {
                rates.push(sim.flow_rate(FlowId(c * 5)));
            }
            while let Some((t, done)) = sim.advance_to_next_completion() {
                events.push((t.as_nanos(), done.iter().map(|f| f.0).collect()));
            }
            (events, rates)
        };
        let serial = run(1, u64::MAX);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads, 0), serial, "threads {threads}");
        }
    }
}
