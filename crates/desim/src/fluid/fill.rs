//! The pure solve: progressive filling over one compiled component.
//!
//! Nothing here reads or writes simulator state. A component's problem
//! goes in and its rates come out, which is what lets parallel lanes
//! solve components side by side and still match the serial path bit for
//! bit.

/// A compiled, owned component subproblem: effective capacities of the
/// component's resources (in local-id order) and the member flows' routes
/// (ascending flow-id order) compiled to CSR over local resource indices.
/// Pure data — solving it cannot observe or mutate simulator state, which
/// is what makes the parallel path trivially deterministic.
#[derive(Default)]
pub(super) struct CompProblem {
    pub(super) caps: Vec<f64>,
    pub(super) off: Vec<u32>,
    pub(super) hop_res: Vec<u32>,
    pub(super) hop_w: Vec<f64>,
}

/// Water-fill scratch, reusable across solves.
#[derive(Default)]
pub(super) struct FillScratch {
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
pub(super) fn water_fill(p: &CompProblem, rates: &mut Vec<f64>, s: &mut FillScratch) -> u64 {
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

/// Parallel entry point: solve one compiled component. A pure `fn` so a
/// worker lane can run it without capturing any simulator state. The
/// problem rides back with the result, to its component — the merge step
/// reuses its CSR to refresh loads.
pub(super) fn solve_problem(p: CompProblem) -> (CompProblem, Vec<f64>, u64) {
    let mut rates = Vec::new();
    let mut scratch = FillScratch::default();
    let rounds = water_fill(&p, &mut rates, &mut scratch);
    (p, rates, rounds)
}
