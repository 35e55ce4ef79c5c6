//! One step of a timer queue interleaved with the fluid engine — the only
//! place the same-instant rule is applied.
//!
//! Every simulation that mixes its own timers with fluid transfers pulls
//! what is due next through [`next_due`] and handles it itself; the step
//! owns neither the queue nor the fluid, so each caller keeps its state
//! where it lives. The rule:
//!
//! * A timer due at the fluid's current instant fires without a solve, so
//!   every flow its cascade starts at this instant joins one solve.
//! * Otherwise the earlier of the next timer and the next completion is
//!   returned if it is due by `until`; on a tie the timer goes first (a
//!   failure at `t` cancels flows before their completions at `t` count).
//! * The fluid clock moves to the returned instant and never past `until`.
//! * Without a fluid the step is [`EventQueue::pop_due`].
//!
//! Callers: `DagSim::run`, the HAI platform's `run_until`, the storage
//! throughput run, the incast experiment and the DCQCN controller runs.

use crate::fluid::{FlowId, FluidSim};
use crate::queue::EventQueue;
use crate::time::SimTime;

/// What [`next_due`] found due next.
#[derive(Debug, PartialEq)]
pub enum Due<E> {
    /// A timer popped at its instant.
    Timer(SimTime, E),
    /// The flows that completed at this instant, in `FlowId` order.
    Flows(SimTime, Vec<FlowId>),
}

/// Pop the next timer or batch of completions due at or before `until`,
/// moving the fluid clock to its instant; `None` when nothing is due by
/// then (the clock stays where it is).
pub fn next_due<E>(
    timers: &mut EventQueue<E>,
    fluid: Option<&mut FluidSim>,
    until: SimTime,
) -> Option<Due<E>> {
    let Some(fluid) = fluid else {
        return timers.pop_due(until).map(|(t, e)| Due::Timer(t, e));
    };
    if let Some((t, e)) = timers.pop_due(fluid.now().min(until)) {
        return Some(Due::Timer(t, e));
    }
    let next_done = fluid.next_completion_time();
    let horizon = next_done.map_or(until, |c| c.min(until));
    if let Some((t, e)) = timers.pop_due(horizon) {
        fluid.advance_to(t);
        return Some(Due::Timer(t, e));
    }
    if next_done? > until {
        return None;
    }
    let (t, done) = fluid.advance_to_next_completion()?;
    Some(Due::Flows(t, done))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::Route;
    use crate::time::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_timer_due_now_fires_without_a_solve() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        fluid.start_flow(100.0, &Route::unit([link]));
        let mut timers = EventQueue::new();
        timers.schedule(SimTime::ZERO, "gate");
        let before = fluid.solver_stats().recomputes;
        let due = next_due(&mut timers, Some(&mut fluid), SimTime::MAX);
        assert_eq!(due, Some(Due::Timer(SimTime::ZERO, "gate")));
        assert_eq!(fluid.solver_stats().recomputes, before);
    }

    #[test]
    fn a_timer_tied_with_a_completion_fires_first() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let f = fluid.start_flow(100.0, &Route::unit([link]));
        let mut timers = EventQueue::new();
        timers.schedule(secs(1), "tick");
        let mut step = || next_due(&mut timers, Some(&mut fluid), SimTime::MAX);
        assert_eq!(step(), Some(Due::Timer(secs(1), "tick")));
        assert_eq!(step(), Some(Due::Flows(secs(1), vec![f])));
        assert_eq!(step(), None);
    }

    #[test]
    fn nothing_due_after_until_pops() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let f = fluid.start_flow(300.0, &Route::unit([link]));
        let mut timers = EventQueue::new();
        timers.schedule(secs(2), "late");
        let until = secs(1) + SimDuration::from_millis(500);
        assert_eq!(next_due(&mut timers, Some(&mut fluid), until), None);
        assert!(fluid.now() <= until);
        assert_eq!(timers.len(), 1);
        assert_eq!(fluid.active_flows(), 1);
        // Past the timer, before the completion.
        assert_eq!(
            next_due(&mut timers, Some(&mut fluid), secs(2)),
            Some(Due::Timer(secs(2), "late"))
        );
        assert_eq!(next_due(&mut timers, Some(&mut fluid), secs(2)), None);
        assert_eq!(fluid.now(), secs(2));
        assert_eq!(
            next_due(&mut timers, Some(&mut fluid), secs(3)),
            Some(Due::Flows(secs(3), vec![f]))
        );
    }

    #[test]
    fn without_a_fluid_the_step_is_pop_due() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(2, 'b'), (1, 'a'), (2, 'c'), (5, 'd')] {
            a.schedule(secs(t), e);
            b.schedule(secs(t), e);
        }
        for until in [0, 1, 1, 2, 2, 2, 4, 9, 9] {
            let step = next_due(&mut a, None, secs(until));
            let pop = b.pop_due(secs(until)).map(|(t, e)| Due::Timer(t, e));
            assert_eq!(step, pop, "until {until}");
        }
        assert!(a.is_empty());
    }
}
