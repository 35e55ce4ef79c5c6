//! Dependency-graph execution on top of the fluid engine.
//!
//! Communication/computation schedules — an HFReduce chunk pipeline, an FSDP
//! training step, a checkpoint save — are DAGs whose nodes are units of
//! [`Work`] and whose edges are happens-before dependencies. [`DagSim`]
//! executes such a DAG over a [`FluidSim`]: a node starts the instant its
//! last dependency finishes, transfers contend for shared resources under
//! max-min fairness, and the result is the full timeline (per-node start and
//! finish times, makespan, resource utilizations).

use crate::fluid::{FlowId, FluidSim, Route};
use crate::queue::EventQueue;
use crate::step::{next_due, Due};
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Identifies a node added to a [`DagSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// One unit of schedulable work.
#[derive(Debug, Clone)]
pub enum Work {
    /// Move `work` units across `route`, contending with other flows.
    /// Non-positive work degrades to an instantaneous gate.
    Transfer {
        /// Units of work (bytes, FLOPs) to move.
        work: f64,
        /// Resources traversed, with per-resource consumption weights.
        route: Route,
    },
    /// A fixed latency (e.g. a kernel-launch overhead or an RTT), consuming
    /// no shared resources.
    Delay(SimDuration),
    /// A zero-duration synchronization point joining many dependencies.
    Gate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Running,
    Done,
}

struct Node {
    work: Work,
    label: String,
    deps_remaining: usize,
    dependents: Vec<NodeId>,
    state: State,
    start: Option<SimTime>,
    finish: Option<SimTime>,
}

/// Executes a DAG of [`Work`] nodes over a [`FluidSim`]. See the
/// [module docs](self).
pub struct DagSim {
    fluid: FluidSim,
    nodes: Vec<Node>,
    delays: EventQueue<NodeId>,
    flow_to_node: HashMap<FlowId, NodeId>,
    ran: bool,
}

impl DagSim {
    /// Wrap a fluid simulator (which should already have its resources
    /// registered and its clock at the desired start time).
    pub fn new(fluid: FluidSim) -> Self {
        let mut delays = EventQueue::new();
        // Keep the delay queue's "past" guard consistent with a fluid sim
        // whose clock isn't at zero.
        if fluid.now() > SimTime::ZERO {
            delays.schedule(fluid.now(), NodeId(usize::MAX));
            delays.pop();
        }
        DagSim {
            fluid,
            nodes: Vec::new(),
            delays,
            flow_to_node: HashMap::new(),
            ran: false,
        }
    }

    /// Access the underlying fluid simulator (e.g. to register resources).
    pub fn fluid_mut(&mut self) -> &mut FluidSim {
        &mut self.fluid
    }

    /// Read-only access to the underlying fluid simulator.
    pub fn fluid(&self) -> &FluidSim {
        &self.fluid
    }

    /// Consume the DAG, returning the fluid simulator for post-run stats.
    pub fn into_fluid(self) -> FluidSim {
        self.fluid
    }

    /// Add a node depending on `deps`. Dependencies must already exist.
    pub fn add(&mut self, work: Work, deps: &[NodeId]) -> NodeId {
        self.add_labeled(String::new(), work, deps)
    }

    /// Add a node with a label (used in deadlock diagnostics and timelines).
    pub fn add_labeled(&mut self, label: impl Into<String>, work: Work, deps: &[NodeId]) -> NodeId {
        assert!(!self.ran, "DagSim: cannot add nodes after run()");
        if let Work::Transfer { work: w, .. } = &work {
            assert!(
                !w.is_nan(),
                "Transfer work is NaN — an upstream model computed garbage"
            );
        }
        let id = NodeId(self.nodes.len());
        for d in deps {
            assert!(d.0 < self.nodes.len(), "unknown dependency {d:?}");
            assert!(d.0 != id.0, "self-dependency");
        }
        self.nodes.push(Node {
            work,
            label: label.into(),
            deps_remaining: 0,
            dependents: Vec::new(),
            state: State::Waiting,
            start: None,
            finish: None,
        });
        // Deduplicate dependencies so deps_remaining is correct even if a
        // caller lists the same predecessor twice.
        let mut uniq: Vec<NodeId> = deps.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        self.nodes[id.0].deps_remaining = uniq.len();
        for d in uniq {
            self.nodes[d.0].dependents.push(id);
        }
        id
    }

    /// Execute the whole DAG; returns the makespan (finish time of the last
    /// node). Panics if any node can never run (dependency cycle) — DAGs
    /// built by this crate's callers are programmatic, so that is a bug.
    pub fn run(&mut self) -> SimTime {
        assert!(!self.ran, "DagSim::run called twice");
        self.ran = true;
        let ready: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.deps_remaining == 0)
            .map(|(i, _)| NodeId(i))
            .collect();
        for id in ready {
            self.start_node(id);
        }
        // Gates, zero-work transfers and elapsed delays due now fire before
        // any solve, so every flow started at this instant joins one.
        while let Some(due) = next_due(&mut self.delays, Some(&mut self.fluid), SimTime::MAX) {
            match due {
                Due::Timer(t, id) => self.complete_node(id, t),
                // A flow with no node leaves nothing to complete; the
                // deadlock check below still reports its node unfinished.
                Due::Flows(t, done) => {
                    for fid in done {
                        if let Some(id) = self.flow_to_node.remove(&fid) {
                            self.complete_node(id, t);
                        }
                    }
                }
            }
        }
        let unfinished: Vec<&str> = self
            .nodes
            .iter()
            .filter(|n| n.state != State::Done)
            .map(|n| n.label.as_str())
            .collect();
        assert!(
            unfinished.is_empty(),
            "DagSim: deadlock, {} nodes never ran (first labels: {:?})",
            unfinished.len(),
            &unfinished[..unfinished.len().min(5)]
        );
        self.nodes
            .iter()
            .filter_map(|n| n.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn start_node(&mut self, id: NodeId) {
        let now = self.fluid.now();
        let n = &mut self.nodes[id.0];
        debug_assert_eq!(n.state, State::Waiting);
        n.state = State::Running;
        n.start = Some(now);
        // A node starts once, so its work moves out rather than cloning.
        match std::mem::replace(&mut n.work, Work::Gate) {
            Work::Transfer { work, route } if work > 0.0 => {
                let fid = self.fluid.start_flow(work, &route);
                self.flow_to_node.insert(fid, id);
            }
            Work::Transfer { .. } | Work::Gate => {
                // Instantaneous: complete via the delay queue at `now` so
                // same-instant ordering stays FIFO and deterministic.
                self.delays.schedule(now, id);
            }
            Work::Delay(d) => {
                self.delays.schedule(now + d, id);
            }
        }
    }

    fn complete_node(&mut self, id: NodeId, t: SimTime) {
        let dependents = {
            let n = &mut self.nodes[id.0];
            debug_assert_eq!(n.state, State::Running);
            n.state = State::Done;
            n.finish = Some(t);
            std::mem::take(&mut n.dependents)
        };
        for d in dependents {
            let n = &mut self.nodes[d.0];
            n.deps_remaining -= 1;
            if n.deps_remaining == 0 {
                self.start_node(d);
            }
        }
    }

    /// Start time of a node (after [`run`](Self::run)).
    pub fn start_time(&self, id: NodeId) -> Option<SimTime> {
        self.nodes[id.0].start
    }

    /// Finish time of a node (after [`run`](Self::run)).
    pub fn finish_time(&self, id: NodeId) -> Option<SimTime> {
        self.nodes[id.0].finish
    }

    /// Number of nodes in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The executed timeline: `(label, start, finish)` for every *labeled*
    /// node, ordered by start time — a Gantt view of the schedule. Call
    /// after [`run`](Self::run).
    pub fn timeline(&self) -> Vec<(String, SimTime, SimTime)> {
        let mut out: Vec<(String, SimTime, SimTime)> = self
            .nodes
            .iter()
            .filter(|n| !n.label.is_empty())
            .filter_map(|n| Some((n.label.clone(), n.start?, n.finish?)))
            .collect();
        out.sort_by_key(|&(_, s, f)| (s, f));
        out
    }

    /// True if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 10.0);
        let mut dag = DagSim::new(fluid);
        let a = dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([link]),
            },
            &[],
        );
        let b = dag.add(
            Work::Transfer {
                work: 20.0,
                route: Route::unit([link]),
            },
            &[a],
        );
        let makespan = dag.run();
        assert!((secs(makespan) - 3.0).abs() < 1e-6);
        assert!((secs(dag.finish_time(a).unwrap()) - 1.0).abs() < 1e-6);
        assert!((secs(dag.finish_time(b).unwrap()) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_transfers_share_the_link() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 10.0);
        let mut dag = DagSim::new(fluid);
        for _ in 0..2 {
            dag.add(
                Work::Transfer {
                    work: 10.0,
                    route: Route::unit([link]),
                },
                &[],
            );
        }
        assert!((secs(dag.run()) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_transfers_on_distinct_links_overlap() {
        let mut fluid = FluidSim::new();
        let l1 = fluid.add_resource("l1", 10.0);
        let l2 = fluid.add_resource("l2", 10.0);
        let mut dag = DagSim::new(fluid);
        dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([l1]),
            },
            &[],
        );
        dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([l2]),
            },
            &[],
        );
        assert!((secs(dag.run()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn delay_and_gate_nodes() {
        let mut dag = DagSim::new(FluidSim::new());
        let a = dag.add(Work::Delay(SimDuration::from_millis(100)), &[]);
        let b = dag.add(Work::Delay(SimDuration::from_millis(200)), &[]);
        let g = dag.add(Work::Gate, &[a, b]);
        let makespan = dag.run();
        assert_eq!(makespan, SimTime(200_000_000));
        assert_eq!(dag.finish_time(g).unwrap(), SimTime(200_000_000));
    }

    #[test]
    fn zero_work_transfer_is_instant() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 10.0);
        let mut dag = DagSim::new(fluid);
        dag.add(
            Work::Transfer {
                work: 0.0,
                route: Route::unit([link]),
            },
            &[],
        );
        assert_eq!(dag.run(), SimTime::ZERO);
    }

    #[test]
    fn fan_out_fan_in_diamond() {
        // a -> {b, c} -> d, where b and c contend for the same link.
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 10.0);
        let mut dag = DagSim::new(fluid);
        let a = dag.add(Work::Delay(SimDuration::from_secs(1)), &[]);
        let b = dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([link]),
            },
            &[a],
        );
        let c = dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([link]),
            },
            &[a],
        );
        let d = dag.add(Work::Gate, &[b, c]);
        let makespan = dag.run();
        // 1s delay + 2s of shared-link transfers.
        assert!((secs(makespan) - 3.0).abs() < 1e-6);
        assert_eq!(dag.finish_time(d).unwrap(), makespan);
        // b and c both started right when a finished.
        assert_eq!(dag.start_time(b).unwrap(), SimTime::from_secs(1));
        assert_eq!(dag.start_time(c).unwrap(), SimTime::from_secs(1));
    }

    #[test]
    fn pipelining_overlaps_independent_stages() {
        // Two-stage pipeline over distinct links, 3 chunks:
        // chunk i: stage1 on l1 (1s), then stage2 on l2 (1s), stage2 of
        // chunk i must also follow stage2 of chunk i-1 (ordered).
        // Total = 1 + 3 = 4s, not 6s.
        let mut fluid = FluidSim::new();
        let l1 = fluid.add_resource("l1", 10.0);
        let l2 = fluid.add_resource("l2", 10.0);
        let mut dag = DagSim::new(fluid);
        let mut prev_s1: Option<NodeId> = None;
        let mut prev_s2: Option<NodeId> = None;
        for _ in 0..3 {
            let mut deps1 = Vec::new();
            if let Some(p) = prev_s1 {
                deps1.push(p);
            }
            let s1 = dag.add(
                Work::Transfer {
                    work: 10.0,
                    route: Route::unit([l1]),
                },
                &deps1,
            );
            let mut deps2 = vec![s1];
            if let Some(p) = prev_s2 {
                deps2.push(p);
            }
            let s2 = dag.add(
                Work::Transfer {
                    work: 10.0,
                    route: Route::unit([l2]),
                },
                &deps2,
            );
            prev_s1 = Some(s1);
            prev_s2 = Some(s2);
        }
        assert!((secs(dag.run()) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_deps_counted_once() {
        let mut dag = DagSim::new(FluidSim::new());
        let a = dag.add(Work::Delay(SimDuration::from_secs(1)), &[]);
        let b = dag.add(Work::Gate, &[a, a, a]);
        dag.run();
        assert_eq!(dag.finish_time(b).unwrap(), SimTime::from_secs(1));
    }

    #[test]
    fn empty_dag_runs() {
        let mut dag = DagSim::new(FluidSim::new());
        assert!(dag.is_empty());
        assert_eq!(dag.run(), SimTime::ZERO);
    }

    #[test]
    fn utilization_visible_after_into_fluid() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 10.0);
        let mut dag = DagSim::new(fluid);
        dag.add(
            Work::Transfer {
                work: 10.0,
                route: Route::unit([link]),
            },
            &[],
        );
        dag.add(Work::Delay(SimDuration::from_secs(3)), &[]);
        dag.run();
        let mut fluid = dag.into_fluid();
        // Link busy for 1s out of 3s total.
        assert!((fluid.stats(link).utilization() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn one_solve_per_distinct_instant() {
        // One completion fans out into 100 gates, each starting a transfer
        // on a shared link: the 100 starts share one instant, so they
        // share one solve, and each later completion instant costs one.
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 1e9);
        let mut dag = DagSim::new(fluid);
        let root = dag.add(
            Work::Transfer {
                work: 1e6,
                route: Route::unit([link]),
            },
            &[],
        );
        let xfers: Vec<NodeId> = (1..=100)
            .map(|i| {
                let gate = dag.add(Work::Gate, &[root]);
                dag.add(
                    Work::Transfer {
                        work: 1e6 * i as f64,
                        route: Route::unit([link]),
                    },
                    &[gate],
                )
            })
            .collect();
        dag.run();
        let mut instants: Vec<SimTime> = std::iter::once(root)
            .chain(xfers.iter().copied())
            .flat_map(|id| [dag.start_time(id).unwrap(), dag.finish_time(id).unwrap()])
            .collect();
        instants.sort_unstable();
        instants.dedup();
        assert_eq!(instants.len(), 102);
        let recomputes = dag.fluid().solver_stats().recomputes;
        assert_eq!(recomputes, instants.len() as u64);
    }

    #[test]
    #[should_panic(expected = "unknown dependency")]
    fn unknown_dependency_rejected() {
        let mut dag = DagSim::new(FluidSim::new());
        dag.add(Work::Gate, &[NodeId(7)]);
    }
}
