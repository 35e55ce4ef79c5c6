//! A DCQCN-style congestion controller (§VIII-A).
//!
//! DCQCN reacts to ECN marks with multiplicative rate decrease and slow
//! additive/hyperbolic recovery. The paper *disabled* it: no parameter
//! setting suited both bursty HFReduce allreduce traffic and sustained 3FS
//! storage streams in the integrated network, and with VL isolation plus
//! static routing the network stays congestion-free without it.
//!
//! The model: each controlled flow gets a private *pacer* resource whose
//! cap the controller adjusts at a fixed cadence. A flow is "marked" when
//! any watched link-lane runs above the ECN threshold; marked flows halve
//! their cap, unmarked flows recover by an additive step. This reproduces
//! DCQCN's sawtooth and its failure mode — chronic underutilization when
//! mixing traffic classes with different burst profiles.

use ff_desim::{FluidSim, ResourceId, Route, SimDuration};

/// DCQCN-like controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct DcqcnParams {
    /// Link-lane load fraction above which flows crossing it are marked.
    pub ecn_threshold: f64,
    /// Multiplicative decrease factor applied to marked flows.
    pub decrease: f64,
    /// Additive recovery per step, as a fraction of line rate.
    pub recover_frac: f64,
    /// Minimum rate floor, as a fraction of line rate.
    pub min_frac: f64,
    /// Controller cadence.
    pub period: SimDuration,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        DcqcnParams {
            ecn_threshold: 0.95,
            decrease: 0.5,
            recover_frac: 0.05,
            min_frac: 0.01,
            period: SimDuration::from_micros(50),
        }
    }
}

struct Paced {
    pacer: ResourceId,
    watch: Vec<(ResourceId, f64)>, // (lane resource, capacity)
    line: f64,
    rate: f64,
    done: bool,
}

/// Identifies a flow registered with a [`Dcqcn`] controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacedId(usize);

/// The controller. Register flows with [`pace`](Self::pace), start them on
/// the returned route, and call [`step`](Self::step) every
/// [`DcqcnParams::period`].
pub struct Dcqcn {
    params: DcqcnParams,
    flows: Vec<Paced>,
}

impl Dcqcn {
    /// A controller with `params`.
    pub fn new(params: DcqcnParams) -> Self {
        Dcqcn {
            params,
            flows: Vec::new(),
        }
    }

    /// Wrap `route` with a fresh pacer at `line` bytes/s. The caller starts
    /// the flow on the returned route; `watch` lists the congestion points
    /// (typically the route's own link lanes) with their capacities.
    pub fn pace(
        &mut self,
        fluid: &mut FluidSim,
        route: &Route,
        line: f64,
        watch: Vec<(ResourceId, f64)>,
    ) -> (Route, PacedId) {
        let pacer = fluid.add_resource(format!("dcqcn-pacer{}", self.flows.len()), line);
        let id = PacedId(self.flows.len());
        self.flows.push(Paced {
            pacer,
            watch,
            line,
            rate: line,
            done: false,
        });
        let mut r = route.clone();
        r.push(pacer, 1.0);
        (r, id)
    }

    /// Mark a paced flow finished so the controller stops adjusting it.
    pub fn finish(&mut self, id: PacedId) {
        self.flows[id.0].done = true;
    }

    /// One control step: sample watched lanes, mark, adjust caps.
    /// Returns how many flows were marked.
    pub fn step(&mut self, fluid: &mut FluidSim) -> usize {
        // Sample loads first (cap changes would perturb the sample).
        let marked: Vec<bool> = self
            .flows
            .iter()
            .map(|f| {
                !f.done
                    && f.watch
                        .iter()
                        .any(|&(r, cap)| fluid.resource_load(r) > self.params.ecn_threshold * cap)
            })
            .collect();
        let mut n = 0;
        for (f, &m) in self.flows.iter_mut().zip(&marked) {
            if f.done {
                continue;
            }
            if m {
                f.rate = (f.rate * self.params.decrease).max(f.line * self.params.min_frac);
                n += 1;
            } else {
                f.rate = (f.rate + f.line * self.params.recover_frac).min(f.line);
            }
            fluid
                .set_rate_cap(f.pacer, f.rate)
                .expect("DCQCN rate stays positive and pacer registered");
        }
        n
    }

    /// Current cap of a paced flow, bytes/s.
    pub fn rate_of(&self, id: PacedId) -> f64 {
        self.flows[id.0].rate
    }

    /// The controller cadence.
    pub fn period(&self) -> SimDuration {
        self.params.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_desim::{next_due, Due, EventQueue, SimTime};

    #[test]
    fn uncongested_flow_keeps_line_rate() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let mut cc = Dcqcn::new(DcqcnParams::default());
        let (route, id) = cc.pace(&mut fluid, &Route::unit([link]), 100.0, vec![(link, 100.0)]);
        let f = fluid.start_flow(1e6, &route);
        // A single flow saturates its own link — that *is* ≥ threshold, so
        // DCQCN will mark it: the classic single-flow sawtooth.
        let marked = cc.step(&mut fluid);
        assert_eq!(marked, 1);
        assert!(cc.rate_of(id) < 100.0);
        let _ = fluid.flow_rate(f);
    }

    #[test]
    fn congestion_halves_and_recovery_restores() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let mut cc = Dcqcn::new(DcqcnParams::default());
        let (ra, a) = cc.pace(&mut fluid, &Route::unit([link]), 100.0, vec![(link, 100.0)]);
        let (rb, b) = cc.pace(&mut fluid, &Route::unit([link]), 100.0, vec![(link, 100.0)]);
        fluid.start_flow(1e9, &ra);
        fluid.start_flow(1e9, &rb);
        cc.step(&mut fluid); // both marked (link at 100%)
        assert!(cc.rate_of(a) <= 50.0);
        assert!(cc.rate_of(b) <= 50.0);
        // Two 50-cap flows still saturate the link, so DCQCN keeps cutting
        // until aggregate caps drop below the ECN threshold, then recovers
        // additively — the sawtooth. Verify both phases occur and that the
        // flows never regain line rate.
        let mut prev = cc.rate_of(a);
        let mut saw_decrease = false;
        let mut saw_recovery = false;
        for _ in 0..50 {
            cc.step(&mut fluid);
            let r = cc.rate_of(a);
            if r < prev {
                saw_decrease = true;
            }
            if r > prev {
                saw_recovery = true;
            }
            assert!(r < 100.0, "flow should never regain full line rate");
            prev = r;
        }
        assert!(saw_decrease && saw_recovery, "expected a sawtooth");
        let _ = b;
    }

    #[test]
    fn sawtooth_underutilizes_the_link() {
        // Run the control loop over a long transfer and measure achieved
        // utilization: DCQCN's oscillation keeps it below line rate.
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let mut cc = Dcqcn::new(DcqcnParams::default());
        let (route, _) = cc.pace(&mut fluid, &Route::unit([link]), 100.0, vec![(link, 100.0)]);
        fluid.start_flow(50.0, &route);
        // One controller tick a period until the transfer completes.
        let mut ticks = EventQueue::new();
        ticks.schedule(fluid.now(), ());
        while let Some(Due::Timer(t, ())) = next_due(&mut ticks, Some(&mut fluid), SimTime::MAX) {
            cc.step(&mut fluid);
            if fluid.active_flows() > 0 {
                ticks.schedule(t + cc.period(), ());
            }
        }
        let util = fluid.stats(link).utilization();
        assert!(util < 0.95, "DCQCN should underutilize, got {util}");
        assert!(util > 0.2, "but not starve, got {util}");
    }

    #[test]
    fn finished_flows_are_ignored() {
        let mut fluid = FluidSim::new();
        let link = fluid.add_resource("link", 100.0);
        let mut cc = Dcqcn::new(DcqcnParams::default());
        let (route, id) = cc.pace(&mut fluid, &Route::unit([link]), 100.0, vec![(link, 100.0)]);
        fluid.start_flow(10.0, &route);
        fluid.advance_to_next_completion();
        cc.finish(id);
        assert_eq!(cc.step(&mut fluid), 0);
    }
}
