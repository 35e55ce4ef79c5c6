//! The test oracle: `SolverMode::Reference`.
//!
//! Compiled only into test builds. A `Reference` simulator runs the
//! incremental solver as usual, then, at the end of every recompute, walks
//! every component from scratch over a crossing index built from the slot
//! arena, compiles and re-solves it, and applies that answer over the
//! incremental one. It then rebuilds the completion heap from a scan of
//! every active flow, so no entry survives from incremental bookkeeping.
//! The fill arithmetic is shared, so with a correct cache the re-solve
//! changes nothing and the two modes agree bit for bit: any divergence
//! means the dirty tracking, the cache or the completion heap dropped an
//! update.
//!
//! The differential suite below replays every seeded scenario from
//! `ff_util::scengen` through four engines:
//!
//! 1. `FluidSim` in `SolverMode::Incremental`, the production path:
//!    component-scoped recomputes, lazy settling, heap-driven completions.
//! 2. The same, with the component-parallel path forced on (dispatch
//!    threshold 0, several worker lanes). Must agree **bit for bit** with
//!    both serial modes: parallel solving is required to be invisible.
//! 3. `FluidSim` in `SolverMode::Reference`. Must agree **bit for bit**.
//! 4. `RefFluidSim` (in `brute`), the pre-rewrite brute-force engine:
//!    global water-fill, eager per-advance progress. Must agree on rates
//!    to 1e-9 relative and on completion order, with completion instants
//!    within a couple of nanoseconds (eager vs lazy settling legitimately
//!    reorders f64 rounding).
//!
//! The schedules include mid-run `degrade`/`restore`/`set_rate_cap`/
//! `cancel_flow` events and same-instant bursts, per the scenario
//! generator.

use super::component::{Component, NO_COMP};
use super::{predict, CompEntry, FluidSim, SolverMode, Unit};

impl FluidSim {
    /// Per resource, the active flows crossing it as slots in flow-id
    /// order, built from the id index and the slot arena: the index the
    /// from-scratch walk reads.
    pub(super) fn crossing_index(&self) -> Vec<Vec<u32>> {
        let mut res_flows = vec![Vec::new(); self.resource_count()];
        for &slot in self.index.values() {
            for &(r, _) in self.slots[slot as usize].route(&self.route_arena) {
                res_flows[r.0 as usize].push(slot);
            }
        }
        res_flows
    }

    /// Collect the connected component of the flow↔resource graph
    /// containing `seed`, marking its resources in `visited`. The flows
    /// come back sorted ascending by id, so fill iteration order (and
    /// therefore every f64 rounding) is independent of which resource
    /// seeded the walk. The resources stay in discovery order, which is
    /// deterministic and, feeding only order-independent operations,
    /// immaterial to the bits.
    pub(super) fn collect_component(
        &self,
        res_flows: &[Vec<u32>],
        seed: u32,
        visited: &mut [bool],
    ) -> (Vec<u32>, Vec<(u64, u32)>) {
        let (mut res, mut flows) = (Vec::new(), Vec::new());
        // Resources are marked when pushed, so each enters the stack once.
        visited[seed as usize] = true;
        let mut stack = vec![seed];
        while let Some(ri) = stack.pop() {
            res.push(ri);
            for &slot in &res_flows[ri as usize] {
                let f = &self.slots[slot as usize];
                let route = f.route(&self.route_arena);
                // A flow joins at its first hop, so it joins once.
                if route.first().is_some_and(|&(r, _)| r.0 == ri) {
                    flows.push((f.fid, slot));
                }
                for &(r, _) in route {
                    if !visited[r.0 as usize] {
                        visited[r.0 as usize] = true;
                        stack.push(r.0);
                    }
                }
            }
        }
        flows.sort_unstable();
        (res, flows)
    }

    /// Every component, walked and compiled from scratch, in resource-id
    /// order; a resource no flow crosses is listed on its own.
    fn list_from_scratch(&self) -> Vec<Unit> {
        let res_flows = self.crossing_index();
        let mut visited = vec![false; res_flows.len()];
        let mut local = vec![0u32; res_flows.len()];
        let mut units = Vec::new();
        for ri in 0..res_flows.len() as u32 {
            if visited[ri as usize] {
                continue;
            }
            let (res, flows) = self.collect_component(&res_flows, ri, &mut visited);
            if flows.is_empty() {
                units.push(Unit::Empty(ri));
                continue;
            }
            for (i, &r) in res.iter().enumerate() {
                local[r as usize] = i as u32;
            }
            let mut comp = Component::default();
            for (fid, slot) in flows {
                let route = self.slots[slot as usize].route(&self.route_arena);
                comp.push_row(
                    fid,
                    slot,
                    route.iter().map(|&(r, w)| (local[r.0 as usize], w)),
                );
            }
            let caps = res.iter().map(|&r| self.res_eff_cap[r as usize]);
            comp.prob.caps.extend(caps);
            comp.res = res;
            units.push(Unit::Comp(NO_COMP, comp));
        }
        units
    }

    /// The oracle's seam at the end of every recompute. In `Reference`
    /// mode, re-solve every component from scratch and apply the answer,
    /// then rebuild the completion heap from a scan of every active flow.
    pub(super) fn oracle_resolve(&mut self) {
        if self.mode != SolverMode::Reference {
            return;
        }
        let mut units = self.list_from_scratch();
        self.solve_units(&mut units);
        self.completions.clear();
        for (&id, &slot) in &self.index {
            let f = &self.slots[slot as usize];
            let e = CompEntry {
                at: predict(f),
                id,
                epoch: f.epoch,
                slot,
            };
            self.completions.push(f.route(&self.route_arena)[0].0 .0, e);
        }
    }
}

/// The pre-incremental brute-force max-min solver, kept verbatim as a
/// second oracle.
///
/// This is the engine `FluidSim` shipped with before the incremental
/// rewrite: flow progress is settled eagerly on every clock advance, the
/// whole allocation is re-derived by one global water-fill whenever any
/// flow starts/finishes/changes, and the next completion is found by a
/// linear scan. It is O(flows × resources) per event — hopeless at
/// 10,000-GPU scale, but only ~150 lines and obviously faithful to the
/// progressive-filling definition, which is exactly what an oracle should
/// be.
#[cfg(test)]
mod brute {
    use std::collections::BTreeMap;

    use crate::time::{SimDuration, SimTime};

    struct RefFlow {
        route: Vec<(usize, f64)>,
        remaining: f64,
        rate: f64,
    }

    /// Brute-force fluid simulator over `usize`-indexed resources.
    pub struct RefFluidSim {
        now: SimTime,
        capacity: Vec<f64>,
        cap_override: Vec<f64>,
        degrade_factor: Vec<f64>,
        flows: BTreeMap<u64, RefFlow>,
        next_flow_id: u64,
        rates_dirty: bool,
    }

    impl RefFluidSim {
        /// A simulator over resources with the given capacities.
        pub fn new(capacities: &[f64]) -> Self {
            assert!(capacities.iter().all(|&c| c > 0.0 && c.is_finite()));
            RefFluidSim {
                now: SimTime::ZERO,
                capacity: capacities.to_vec(),
                cap_override: vec![f64::INFINITY; capacities.len()],
                degrade_factor: vec![1.0; capacities.len()],
                flows: BTreeMap::new(),
                next_flow_id: 0,
                rates_dirty: false,
            }
        }

        fn effective_capacity(&self, r: usize) -> f64 {
            (self.capacity[r] * self.degrade_factor[r]).min(self.cap_override[r])
        }

        pub fn set_rate_cap(&mut self, r: usize, cap: f64) {
            assert!(cap > 0.0);
            self.cap_override[r] = cap;
            self.rates_dirty = true;
        }

        pub fn degrade(&mut self, r: usize, factor: f64) {
            assert!(factor > 0.0 && factor <= 1.0);
            self.degrade_factor[r] = factor;
            self.rates_dirty = true;
        }

        pub fn restore(&mut self, r: usize) {
            self.degrade_factor[r] = 1.0;
            self.rates_dirty = true;
        }

        /// Start a flow; routes normalize exactly like `Route::normalized`
        /// (duplicates collapse, weights accumulate, hops sorted by resource).
        pub fn start_flow(&mut self, work: f64, route: &[(usize, f64)]) -> u64 {
            assert!(work > 0.0 && work.is_finite());
            let mut map: BTreeMap<usize, f64> = BTreeMap::new();
            for &(r, w) in route {
                assert!(w > 0.0 && w.is_finite());
                assert!(r < self.capacity.len());
                *map.entry(r).or_insert(0.0) += w;
            }
            assert!(!map.is_empty());
            let id = self.next_flow_id;
            self.next_flow_id += 1;
            self.flows.insert(
                id,
                RefFlow {
                    route: map.into_iter().collect(),
                    remaining: work,
                    rate: 0.0,
                },
            );
            self.rates_dirty = true;
            id
        }

        pub fn cancel_flow(&mut self, id: u64) -> f64 {
            let flow = self.flows.remove(&id).expect("cancel_flow: unknown flow");
            self.rates_dirty = true;
            flow.remaining
        }

        pub fn active_flows(&self) -> usize {
            self.flows.len()
        }

        pub fn flow_rate(&mut self, id: u64) -> f64 {
            self.recompute_rates_if_dirty();
            self.flows.get(&id).expect("flow_rate: unknown flow").rate
        }

        /// Instantaneous Σ rate×weight over `r`, the quantity the rewritten
        /// engine maintains incrementally as `cur_load`.
        pub fn resource_load(&mut self, r: usize) -> f64 {
            self.recompute_rates_if_dirty();
            self.flows
                .values()
                .map(|f| {
                    f.route
                        .iter()
                        .filter(|&&(rr, _)| rr == r)
                        .map(|&(_, w)| f.rate * w)
                        .sum::<f64>()
                })
                .sum()
        }

        pub fn next_completion_time(&mut self) -> Option<SimTime> {
            self.recompute_rates_if_dirty();
            self.flows
                .values()
                .map(|f| self.now + SimDuration::for_work(f.remaining, f.rate))
                .min()
        }

        pub fn advance_to_next_completion(&mut self) -> Option<(SimTime, Vec<u64>)> {
            if self.flows.is_empty() {
                return None;
            }
            self.recompute_rates_if_dirty();
            let mut at = SimTime::MAX;
            let mut done: Vec<u64> = Vec::new();
            for (&id, f) in &self.flows {
                let fin = self.now + SimDuration::for_work(f.remaining, f.rate);
                if fin < at {
                    at = fin;
                    done.clear();
                    done.push(id);
                } else if fin == at {
                    done.push(id);
                }
            }
            self.progress_flows_to(at);
            self.now = at;
            for id in &done {
                self.flows.remove(id).expect("completion bookkeeping");
            }
            self.rates_dirty = true;
            Some((at, done))
        }

        pub fn advance_to(&mut self, t: SimTime) {
            assert!(t >= self.now, "advance_to: {t} is in the past");
            if let Some(next) = self.next_completion_time() {
                assert!(t <= next, "advance_to: {t} would skip a completion");
            }
            self.progress_flows_to(t);
            self.now = t;
        }

        /// Eager progress: decrement `remaining` on every flow for `[now, t]`.
        fn progress_flows_to(&mut self, t: SimTime) {
            self.recompute_rates_if_dirty();
            let dt = t.since(self.now).as_secs_f64();
            if dt == 0.0 {
                return;
            }
            for f in self.flows.values_mut() {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }

        fn recompute_rates_if_dirty(&mut self) {
            if !self.rates_dirty {
                return;
            }
            self.rates_dirty = false;
            self.water_fill();
        }

        /// Global progressive filling, byte-for-byte the pre-rewrite algorithm.
        fn water_fill(&mut self) {
            let n_res = self.capacity.len();
            let mut residual: Vec<f64> = (0..n_res).map(|r| self.effective_capacity(r)).collect();
            let mut weight_sum = vec![0.0f64; n_res];
            let ids: Vec<u64> = self.flows.keys().copied().collect();
            let mut unfrozen: Vec<u64> = ids.clone();
            for f in self.flows.values_mut() {
                f.rate = 0.0;
            }
            for id in &ids {
                for &(r, w) in &self.flows[id].route {
                    weight_sum[r] += w;
                }
            }
            while !unfrozen.is_empty() {
                let mut delta = f64::INFINITY;
                for id in &unfrozen {
                    for &(r, _) in &self.flows[id].route {
                        let ws = weight_sum[r];
                        if ws > 0.0 {
                            delta = delta.min(residual[r] / ws);
                        }
                    }
                }
                assert!(
                    delta.is_finite() && delta >= 0.0,
                    "water_fill: degenerate allocation (delta={delta})"
                );
                for id in &unfrozen {
                    let f = self.flows.get_mut(id).expect("unfrozen flow exists");
                    f.rate += delta;
                    for &(r, w) in &f.route {
                        residual[r] -= delta * w;
                    }
                }
                let saturated: Vec<bool> = residual
                    .iter()
                    .enumerate()
                    .map(|(i, &res)| res <= self.effective_capacity(i) * 1e-6)
                    .collect();
                let (frozen_now, still): (Vec<u64>, Vec<u64>) = unfrozen
                    .into_iter()
                    .partition(|id| self.flows[id].route.iter().any(|&(r, _)| saturated[r]));
                assert!(
                    !frozen_now.is_empty(),
                    "water_fill: no progress (numerical issue)"
                );
                for id in &frozen_now {
                    for &(r, w) in &self.flows[id].route {
                        weight_sum[r] -= w;
                    }
                }
                unfrozen = still;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::brute::RefFluidSim;
    use crate::fluid::{FlowId, FluidSim, Route, SolverMode};
    use crate::time::SimTime;
    use ff_util::scengen::{GenConfig, ScenEvent, Scenario};

    /// Everything observable about one engine's replay of a scenario, in a
    /// shape that is engine-independent and directly comparable.
    #[derive(Debug, Clone, PartialEq)]
    struct Replay {
        /// Rates of all active flows, probed after every event application,
        /// in active-list order (start order, cancellations `swap_remove`d).
        rate_probes: Vec<f64>,
        /// `resource_load` of every resource, probed after every event.
        load_probes: Vec<f64>,
        /// Remaining work returned by each `cancel_flow`, in cancel order.
        cancel_remaining: Vec<f64>,
        /// `(flow ordinal, completion ns)` in completion order (batches
        /// flattened in id order, which both engines guarantee).
        completions: Vec<(u64, u64)>,
    }

    /// Replay `s` through a `FluidSim`. `par_threads = Some(n)` forces the
    /// component-parallel path: every multi-component recompute is dispatched
    /// to parallel lanes at width `n` (threshold 0).
    fn replay_fluidsim(s: &Scenario, mode: SolverMode, par_threads: Option<usize>) -> Replay {
        let mut sim = FluidSim::with_solver(mode);
        if let Some(n) = par_threads {
            sim.set_threads(n);
            sim.set_par_threshold(0);
        }
        let rids: Vec<_> = s
            .capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| sim.add_resource(format!("r{i}"), c))
            .collect();
        let mut out = Replay {
            rate_probes: Vec::new(),
            load_probes: Vec::new(),
            cancel_remaining: Vec::new(),
            completions: Vec::new(),
        };
        let mut ordinal_of: BTreeMap<FlowId, u64> = BTreeMap::new();
        let mut next_ordinal = 0u64;
        let mut active: Vec<FlowId> = Vec::new();
        let drain_until = |sim: &mut FluidSim,
                           active: &mut Vec<FlowId>,
                           ordinal_of: &BTreeMap<FlowId, u64>,
                           out: &mut Replay,
                           t: Option<SimTime>| {
            while let Some(tc) = sim.next_completion_time() {
                if t.is_some_and(|t| tc > t) {
                    break;
                }
                let (at, done) = sim.advance_to_next_completion().unwrap();
                for id in done {
                    out.completions.push((ordinal_of[&id], at.as_nanos()));
                    active.retain(|&f| f != id);
                }
            }
        };
        for &(t_ns, ref ev) in &s.events {
            let t = SimTime(t_ns);
            drain_until(&mut sim, &mut active, &ordinal_of, &mut out, Some(t));
            sim.advance_to(t);
            match ev {
                ScenEvent::Start { route, work } => {
                    let hops: Vec<_> = route.iter().map(|&(r, w)| (rids[r], w)).collect();
                    let id = sim.start_flow(*work, &Route::weighted(hops));
                    ordinal_of.insert(id, next_ordinal);
                    next_ordinal += 1;
                    active.push(id);
                }
                ScenEvent::Degrade { resource, factor } => sim
                    .degrade(rids[*resource], *factor)
                    .expect("generated degrade factor valid"),
                ScenEvent::Restore { resource } => sim
                    .restore(rids[*resource])
                    .expect("generated resource valid"),
                ScenEvent::SetRateCap { resource, cap } => sim
                    .set_rate_cap(rids[*resource], *cap)
                    .expect("generated rate cap valid"),
                ScenEvent::Cancel { nth } => {
                    if !active.is_empty() {
                        let id = active.swap_remove(nth % active.len());
                        out.cancel_remaining.push(sim.cancel_flow(id));
                    }
                }
            }
            for &id in &active {
                out.rate_probes.push(sim.flow_rate(id));
            }
            for &r in &rids {
                out.load_probes.push(sim.resource_load(r));
            }
        }
        drain_until(&mut sim, &mut active, &ordinal_of, &mut out, None);
        assert_eq!(sim.active_flows(), 0, "drain left flows behind");
        out
    }

    fn replay_brute(s: &Scenario) -> Replay {
        let mut sim = RefFluidSim::new(&s.capacities);
        let mut out = Replay {
            rate_probes: Vec::new(),
            load_probes: Vec::new(),
            cancel_remaining: Vec::new(),
            completions: Vec::new(),
        };
        let mut active: Vec<u64> = Vec::new();
        let drain_until =
            |sim: &mut RefFluidSim, active: &mut Vec<u64>, out: &mut Replay, t: Option<SimTime>| {
                while let Some(tc) = sim.next_completion_time() {
                    if t.is_some_and(|t| tc > t) {
                        break;
                    }
                    let (at, done) = sim.advance_to_next_completion().unwrap();
                    for id in done {
                        out.completions.push((id, at.as_nanos()));
                        active.retain(|&f| f != id);
                    }
                }
            };
        for &(t_ns, ref ev) in &s.events {
            let t = SimTime(t_ns);
            drain_until(&mut sim, &mut active, &mut out, Some(t));
            sim.advance_to(t);
            match ev {
                ScenEvent::Start { route, work } => {
                    let id = sim.start_flow(*work, route);
                    active.push(id);
                }
                ScenEvent::Degrade { resource, factor } => sim.degrade(*resource, *factor),
                ScenEvent::Restore { resource } => sim.restore(*resource),
                ScenEvent::SetRateCap { resource, cap } => sim.set_rate_cap(*resource, *cap),
                ScenEvent::Cancel { nth } => {
                    if !active.is_empty() {
                        let id = active.swap_remove(nth % active.len());
                        out.cancel_remaining.push(sim.cancel_flow(id));
                    }
                }
            }
            for &id in &active {
                out.rate_probes.push(sim.flow_rate(id));
            }
            for r in 0..s.capacities.len() {
                out.load_probes.push(sim.resource_load(r));
            }
        }
        drain_until(&mut sim, &mut active, &mut out, None);
        assert_eq!(sim.active_flows(), 0, "drain left flows behind");
        out
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str, seed: u64) {
        assert_eq!(a.len(), b.len(), "seed {seed}: {what} probe count differs");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() <= tol * scale,
                "seed {seed}: {what}[{i}] diverged: {x} vs {y}"
            );
        }
    }

    fn check_seed(seed: u64, cfg: &GenConfig) {
        let s = Scenario::generate(seed, cfg);
        let inc = replay_fluidsim(&s, SolverMode::Incremental, None);
        let refm = replay_fluidsim(&s, SolverMode::Reference, None);
        // Incremental vs in-tree Reference mode: bit-for-bit identical — the
        // fill arithmetic is shared, so any difference is a solver bug, not
        // floating-point noise.
        assert_eq!(
            inc, refm,
            "seed {seed}: incremental and reference solver modes diverged"
        );
        // Component-parallel vs Reference: also bit-for-bit. Dispatch forced
        // on (threshold 0) so even tiny recomputes exercise the parallel path.
        let par = replay_fluidsim(&s, SolverMode::Incremental, Some(4));
        assert_eq!(
            par, refm,
            "seed {seed}: parallel solver diverged from reference"
        );
        // Vs the pre-rewrite brute-force engine: rates to 1e-9, completion
        // order exact, completion instants within 2 ns (eager vs lazy progress
        // settling reorders the f64 operations around the integer-ns ceil).
        let brute = replay_brute(&s);
        assert_close(&inc.rate_probes, &brute.rate_probes, 1e-9, "rate", seed);
        assert_close(&inc.load_probes, &brute.load_probes, 1e-9, "load", seed);
        assert_close(
            &inc.cancel_remaining,
            &brute.cancel_remaining,
            1e-9,
            "cancel remaining",
            seed,
        );
        assert_eq!(
            inc.completions.len(),
            brute.completions.len(),
            "seed {seed}: completion counts differ"
        );
        for (i, (&(fa, ta), &(fb, tb))) in
            inc.completions.iter().zip(&brute.completions).enumerate()
        {
            assert_eq!(
                fa, fb,
                "seed {seed}: completion order diverged at #{i}: flow {fa} vs {fb}"
            );
            assert!(
                ta.abs_diff(tb) <= 2,
                "seed {seed}: flow {fa} completion time diverged: {ta} ns vs {tb} ns"
            );
        }
    }

    #[test]
    fn incremental_solver_agrees_on_1024_default_scenarios() {
        let cfg = GenConfig::default();
        for seed in 0x0D1F_0000..0x0D1F_0000 + 1024 {
            check_seed(seed, &cfg);
        }
    }

    #[test]
    fn incremental_solver_agrees_on_dense_scenarios() {
        // Larger, denser topologies: more flows per resource, longer routes,
        // tighter event spacing — proportionally more same-instant batches and
        // multi-resource components.
        let cfg = GenConfig::dense();
        for seed in 0x0D2F_0000..0x0D2F_0000 + 128 {
            check_seed(seed, &cfg);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The same seed must produce the identical replay at 1, 2, and 8
        // worker lanes: lane packing only moves *where* a component is solved,
        // never what any observer sees. Wide scenarios maximize the number of
        // simultaneously dirty components per recompute.
        let cfg = GenConfig::wide();
        for seed in 0x0D3F_0000..0x0D3F_0000 + 48 {
            let s = Scenario::generate(seed, &cfg);
            let one = replay_fluidsim(&s, SolverMode::Incremental, Some(1));
            for threads in [2, 8] {
                let wide = replay_fluidsim(&s, SolverMode::Incremental, Some(threads));
                assert_eq!(one, wide, "seed {seed}: {threads} threads diverged");
            }
        }
    }
}
