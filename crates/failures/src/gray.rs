//! Gray failures: degradations that never kill anything outright.
//!
//! The [`plan`](crate::plan) module covers the paper's *hard* failures —
//! rank deaths, flash cuts, corrupt checkpoints — all of which announce
//! themselves. Gray failures are the other operational reality of
//! §VII-B: a node that silently computes at a fraction of nominal speed,
//! a link that oscillates between healthy and trickle, a GPU pinned at a
//! thermal cap. Nothing pages; the job just gets slower. These are
//! exactly the faults hai-monitor-style detection exists for, because
//! there is no interrupt to catch — only signals to watch.
//!
//! A [`GrayFault`] is a *shape* (how the degradation evolves over time),
//! a [`GrayEvent`] places one on a node at a time for a duration, and a
//! [`GrayPlan`] is a seeded, time-ordered stream of them. The platform
//! realizes plans as time-varying rate caps and compute stretch (see
//! `ff_desim::envelope` for the piecewise-constant expansion); the
//! detector must then recover the injection from observable signals
//! alone.

use ff_util::rng::ChaCha8Rng;

/// The shape of a gray degradation. All parameters are validated by
/// [`GrayFault::validate`]; constructors on [`GrayEvent`] call it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrayFault {
    /// A compute straggler: the node's effective speed decays to
    /// `1/slowdown` of nominal over `onset_ramp_s` seconds, then holds.
    /// `slowdown = 4.0` means steps on this node take 4× as long.
    Straggler {
        /// Terminal slowdown factor, `> 1`.
        slowdown: f64,
        /// Seconds over which the slowdown ramps in (0 = step change).
        onset_ramp_s: f64,
    },
    /// A flapping link: the node's NIC alternates between full capacity
    /// and a management-lane trickle with the given period and duty
    /// cycle (`duty` = fraction of each period spent *down*).
    FlappingLink {
        /// Full up/down cycle length in seconds, `> 0`.
        period_s: f64,
        /// Fraction of each period spent degraded, in `(0, 1)`.
        duty: f64,
    },
    /// A thermal throttle: compute capacity caps at `factor` of nominal
    /// after a ramp — the firmware clamps clocks gradually, not at once.
    ThermalThrottle {
        /// Remaining fraction of compute capacity, in `(0, 1)`.
        factor: f64,
        /// Seconds over which the clamp ramps in (0 = step change).
        onset_ramp_s: f64,
    },
}

impl GrayFault {
    /// Panics unless the parameters are in-range. Called by every
    /// constructor so malformed shapes cannot enter a plan.
    pub fn validate(&self) {
        match *self {
            GrayFault::Straggler {
                slowdown,
                onset_ramp_s,
            } => {
                assert!(
                    slowdown > 1.0 && slowdown.is_finite(),
                    "straggler slowdown must be > 1, got {slowdown}"
                );
                assert!(
                    onset_ramp_s >= 0.0 && onset_ramp_s.is_finite(),
                    "onset ramp must be >= 0, got {onset_ramp_s}"
                );
            }
            GrayFault::FlappingLink { period_s, duty } => {
                assert!(
                    period_s > 0.0 && period_s.is_finite(),
                    "flap period must be > 0, got {period_s}"
                );
                assert!(
                    duty > 0.0 && duty < 1.0,
                    "flap duty must be in (0, 1), got {duty}"
                );
            }
            GrayFault::ThermalThrottle {
                factor,
                onset_ramp_s,
            } => {
                assert!(
                    factor > 0.0 && factor < 1.0,
                    "throttle factor must be in (0, 1), got {factor}"
                );
                assert!(
                    onset_ramp_s >= 0.0 && onset_ramp_s.is_finite(),
                    "onset ramp must be >= 0, got {onset_ramp_s}"
                );
            }
        }
    }

    /// Short stable name for reports and canonical traces.
    pub fn name(&self) -> &'static str {
        match self {
            GrayFault::Straggler { .. } => "straggler",
            GrayFault::FlappingLink { .. } => "flapping-link",
            GrayFault::ThermalThrottle { .. } => "thermal-throttle",
        }
    }
}

/// One gray fault placed on a node: starts at `at_s`, lasts
/// `duration_s`, after which the node returns to nominal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayEvent {
    /// Seconds since run start.
    pub at_s: f64,
    /// The afflicted cluster node.
    pub node: usize,
    /// How long the degradation lasts, in seconds.
    pub duration_s: f64,
    /// The degradation shape.
    pub fault: GrayFault,
}

impl GrayEvent {
    /// A validated event.
    pub fn new(at_s: f64, node: usize, duration_s: f64, fault: GrayFault) -> GrayEvent {
        assert!(at_s >= 0.0 && at_s.is_finite(), "start must be >= 0");
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "duration must be > 0"
        );
        fault.validate();
        GrayEvent {
            at_s,
            node,
            duration_s,
            fault,
        }
    }
}

/// Per-kind annual rates for the seeded generator. Gray faults are not
/// in the paper's tables (they were never *counted* — that is the
/// point), so the defaults are deliberately conservative stand-ins:
/// roughly one gray episode per node-month, split across kinds.
#[derive(Debug, Clone, Copy)]
pub struct GrayRates {
    /// Straggler episodes per node-year.
    pub stragglers_per_year: f64,
    /// Link-flap episodes per node-year.
    pub flaps_per_year: f64,
    /// Thermal-throttle episodes per node-year.
    pub throttles_per_year: f64,
}

impl Default for GrayRates {
    fn default() -> Self {
        GrayRates {
            stragglers_per_year: 5.0,
            flaps_per_year: 4.0,
            throttles_per_year: 3.0,
        }
    }
}

/// A seeded, time-ordered stream of gray-fault episodes.
#[derive(Debug, Clone, Default)]
pub struct GrayPlan {
    /// The episodes, ordered by `at_s`.
    pub events: Vec<GrayEvent>,
}

const SECONDS_PER_YEAR: f64 = 365.0 * 86_400.0;

impl GrayPlan {
    /// A plan containing a single episode — the workhorse for benches
    /// and property tests that need one known injection.
    pub fn single(at_s: f64, node: usize, duration_s: f64, fault: GrayFault) -> GrayPlan {
        GrayPlan {
            events: vec![GrayEvent::new(at_s, node, duration_s, fault)],
        }
    }

    /// Sample a plan: independent Poisson processes per kind across
    /// `nodes` nodes over `horizon_s` seconds, parameters drawn from
    /// seeded ranges. Same seed ⇒ byte-identical plan.
    pub fn generate(seed: u64, nodes: usize, horizon_s: f64, rates: &GrayRates) -> GrayPlan {
        assert!(nodes > 0, "need at least one node");
        assert!(horizon_s > 0.0 && horizon_s.is_finite(), "bad horizon");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6772_6179); // "gray"
        let mut events = Vec::new();
        let kinds: [(f64, u8); 3] = [
            (rates.stragglers_per_year, 0),
            (rates.flaps_per_year, 1),
            (rates.throttles_per_year, 2),
        ];
        for (per_year, tag) in kinds {
            if per_year <= 0.0 {
                continue;
            }
            // Fleet-wide Poisson process: exponential inter-arrivals at
            // `nodes × per_year` per year, node chosen uniformly.
            let rate_per_s = per_year * nodes as f64 / SECONDS_PER_YEAR;
            let mut t = 0.0f64;
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / rate_per_s;
                if t >= horizon_s {
                    break;
                }
                let node = rng.gen_range(0..nodes);
                let duration_s = rng.gen_range(120.0..3_600.0);
                let fault = match tag {
                    0 => GrayFault::Straggler {
                        slowdown: rng.gen_range(1.5..6.0),
                        onset_ramp_s: rng.gen_range(0.0..120.0),
                    },
                    1 => GrayFault::FlappingLink {
                        period_s: rng.gen_range(20.0..180.0),
                        duty: rng.gen_range(0.1..0.9),
                    },
                    _ => GrayFault::ThermalThrottle {
                        factor: rng.gen_range(0.3..0.9),
                        onset_ramp_s: rng.gen_range(0.0..300.0),
                    },
                };
                events.push(GrayEvent::new(t, node, duration_s, fault));
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.node.cmp(&b.node)));
        GrayPlan { events }
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing gray is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_deterministic_ordered_and_in_range() {
        let a = GrayPlan::generate(11, 32, 30.0 * 86_400.0, &GrayRates::default());
        let b = GrayPlan::generate(11, 32, 30.0 * 86_400.0, &GrayRates::default());
        assert_eq!(a.events, b.events, "same seed, same plan");
        assert!(!a.is_empty(), "a month of 32 nodes must produce episodes");
        for w in a.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        for e in &a.events {
            assert!(e.node < 32);
            assert!(e.at_s >= 0.0 && e.at_s < 30.0 * 86_400.0);
            assert!(e.duration_s > 0.0);
            e.fault.validate();
        }
        let c = GrayPlan::generate(12, 32, 30.0 * 86_400.0, &GrayRates::default());
        assert_ne!(a.events, c.events, "different seed, different plan");
    }

    #[test]
    fn a_long_horizon_contains_every_kind() {
        let plan = GrayPlan::generate(3, 64, 365.0 * 86_400.0, &GrayRates::default());
        for name in ["straggler", "flapping-link", "thermal-throttle"] {
            assert!(
                plan.events.iter().any(|e| e.fault.name() == name),
                "missing {name}"
            );
        }
    }

    #[test]
    fn zero_rates_yield_empty_plans() {
        let rates = GrayRates {
            stragglers_per_year: 0.0,
            flaps_per_year: 0.0,
            throttles_per_year: 0.0,
        };
        assert!(GrayPlan::generate(1, 8, 86_400.0, &rates).is_empty());
    }

    #[test]
    #[should_panic(expected = "slowdown must be > 1")]
    fn sub_unit_slowdown_is_rejected() {
        GrayFault::Straggler {
            slowdown: 0.5,
            onset_ramp_s: 0.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "duty must be in (0, 1)")]
    fn full_duty_flap_is_rejected() {
        GrayFault::FlappingLink {
            period_s: 30.0,
            duty: 1.0,
        }
        .validate();
    }
}
