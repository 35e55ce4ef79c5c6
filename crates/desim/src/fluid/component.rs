//! The persistent component cache.
//!
//! Each connected component of the flow↔resource graph is kept between
//! recomputes as cached CSR rows in flow-id order. A start appends a row
//! and may fold components together; a finish or cancel leaves a
//! tombstone. A recompute brings each dirty component up to date, with a
//! k-way merge for folded rows and one union-find pass for lost ones, and
//! lists it for the fill.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::fill::CompProblem;
use super::{FluidSim, ResourceId, Unit};

/// Sentinel component id: no active flow crosses the resource.
pub(super) const NO_COMP: u32 = u32::MAX;

/// One connected component of the flow↔resource graph, compiled for the
/// fill. The simulator keeps these between recomputes and edits them as
/// flows come and go; the test oracle builds a fresh one per component
/// per recompute.
#[derive(Default)]
pub(super) struct Component {
    /// Member resources by global id; a resource's position here is its
    /// local id in `prob`.
    pub(super) res: Vec<u32>,
    /// Member flows as `(fid, slot)`, ascending by fid — the fill order —
    /// one per CSR row of `prob`. A row whose fid is on `dead` is a
    /// tombstone, dropped at the next recompute.
    pub(super) flows: Vec<(u64, u32)>,
    /// The rows compiled to CSR over local resource ids. `caps` is
    /// refreshed from the effective capacities each time the component is
    /// listed for a solve.
    pub(super) prob: CompProblem,
    /// Components a new flow bridged into this one since the last
    /// recompute. Their resources already live here (and their rows use
    /// this component's local ids), but their rows are interleaved into
    /// fid order only at the next recompute.
    pub(super) absorbed: Vec<u32>,
    /// Fids of member flows that finished or were cancelled since the
    /// last recompute: drop their rows and check for a split.
    pub(super) dead: Vec<u64>,
    /// Already listed for solving in the current recompute.
    pub(super) listed: bool,
}

impl Component {
    /// Append one row (its hops given as local ids), keeping CSR shape.
    pub(super) fn push_row(&mut self, fid: u64, slot: u32, hops: impl Iterator<Item = (u32, f64)>) {
        if self.prob.off.is_empty() {
            self.prob.off.push(0);
        }
        self.flows.push((fid, slot));
        for (r, w) in hops {
            self.prob.hop_res.push(r);
            self.prob.hop_w.push(w);
        }
        self.prob.off.push(self.prob.hop_res.len() as u32);
    }
}

/// Root of `x` in a union-find forest, halving the path on the way.
fn uf_find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        uf[x as usize] = uf[uf[x as usize] as usize];
        x = uf[x as usize];
    }
    x
}

impl FluidSim {
    /// Append a new flow's row to the component its route touches. Flow
    /// ids are monotonic, so the append keeps the rows in fid order. A
    /// route over resources no flow crosses opens a new component; one
    /// that bridges several components absorbs the smaller ones into the
    /// largest, whose rows are interleaved with theirs at the next
    /// recompute.
    pub(super) fn join_component(&mut self, fid: u64, slot: u32, route: &[(ResourceId, f64)]) {
        let mut root = NO_COMP;
        for &(r, _) in route {
            let c = self.res_comp[r.0 as usize];
            if c != NO_COMP && c != root {
                root = if root == NO_COMP {
                    c
                } else {
                    self.absorb(root, c)
                };
            }
        }
        if root == NO_COMP {
            root = self.new_comp();
        }
        let comp = &mut self.comps[root as usize];
        for &(r, _) in route {
            let ri = r.0 as usize;
            if self.res_comp[ri] == NO_COMP {
                self.res_comp[ri] = root;
                self.res_local[ri] = comp.res.len() as u32;
                comp.res.push(r.0);
            }
        }
        let res_local = &self.res_local;
        comp.push_row(
            fid,
            slot,
            route.iter().map(|&(r, w)| (res_local[r.0 as usize], w)),
        );
    }

    /// Fold components `a` and `b` into one; returns the survivor, the
    /// one with more resources. The other's resources move to the end of
    /// the survivor's list and its rows (and those of anything it had
    /// absorbed) are renumbered to match, then wait on the survivor's
    /// `absorbed` list for the fid-order merge at the next recompute.
    fn absorb(&mut self, a: u32, b: u32) -> u32 {
        let (root, gone) = if self.comps[a as usize].res.len() >= self.comps[b as usize].res.len() {
            (a, b)
        } else {
            (b, a)
        };
        let mut g = std::mem::take(&mut self.comps[gone as usize]);
        let mut r = std::mem::take(&mut self.comps[root as usize]);
        let offset = r.res.len() as u32;
        for &ri in &g.res {
            self.res_comp[ri as usize] = root;
            self.res_local[ri as usize] += offset;
        }
        r.res.append(&mut g.res);
        for h in &mut g.prob.hop_res {
            *h += offset;
        }
        for &x in &g.absorbed {
            for h in &mut self.comps[x as usize].prob.hop_res {
                *h += offset;
            }
        }
        r.absorbed.push(gone);
        r.absorbed.append(&mut g.absorbed);
        r.dead.append(&mut g.dead);
        self.comps[gone as usize] = g;
        self.comps[root as usize] = r;
        root
    }

    /// Bring each dirty component up to date and list it at its smallest
    /// dirty seed; a seed no flow crosses is listed on its own. The listed components are then moved out for the solve,
    /// with their capacities refreshed.
    pub(super) fn list_cached(&mut self, seeds: &[ResourceId], units: &mut Vec<Unit>) {
        for &seed in seeds {
            let ri = seed.0 as usize;
            let mut c = self.res_comp[ri];
            if c != NO_COMP && !self.comps[c as usize].listed {
                if !self.comps[c as usize].absorbed.is_empty() {
                    self.merge_absorbed(c);
                }
                if !self.comps[c as usize].dead.is_empty() {
                    self.rebuild_component(c);
                }
                c = self.res_comp[ri];
            }
            if c == NO_COMP {
                units.push(Unit::Empty(seed.0));
            } else if !self.comps[c as usize].listed {
                self.comps[c as usize].listed = true;
                units.push(Unit::Comp(c, Component::default()));
            }
        }
        for u in units.iter_mut() {
            if let Unit::Comp(c, comp) = u {
                *comp = std::mem::take(&mut self.comps[*c as usize]);
                let eff_cap = &self.res_eff_cap;
                comp.prob.caps.clear();
                comp.prob
                    .caps
                    .extend(comp.res.iter().map(|&r| eff_cap[r as usize]));
            }
        }
    }

    /// A vacant component id: a recycled one, or a new slot.
    fn new_comp(&mut self) -> u32 {
        match self.comp_free.pop() {
            Some(c) => c,
            None => {
                self.comps.push(Component::default());
                (self.comps.len() - 1) as u32
            }
        }
    }

    /// Interleave the rows of the components absorbed into `c` with its
    /// own in fid order (each list is fid-sorted already, so this is a
    /// k-way merge), and vacate the absorbed ids.
    fn merge_absorbed(&mut self, c: u32) {
        let mut comp = std::mem::take(&mut self.comps[c as usize]);
        let mut runs = vec![Component {
            flows: std::mem::take(&mut comp.flows),
            prob: std::mem::take(&mut comp.prob),
            ..Component::default()
        }];
        for &x in &comp.absorbed {
            runs.push(std::mem::take(&mut self.comps[x as usize]));
        }
        let rows: usize = runs.iter().map(|run| run.flows.len()).sum();
        let hops: usize = runs.iter().map(|run| run.prob.hop_res.len()).sum();
        comp.flows.reserve_exact(rows);
        comp.prob.off.reserve_exact(rows + 1);
        comp.prob.hop_res.reserve_exact(hops);
        comp.prob.hop_w.reserve_exact(hops);
        let mut next = vec![0usize; runs.len()];
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = runs
            .iter()
            .enumerate()
            .filter_map(|(k, run)| run.flows.first().map(|&(fid, _)| Reverse((fid, k))))
            .collect();
        while let Some(Reverse((_, k))) = heads.pop() {
            let (run, i) = (&runs[k], next[k]);
            let (fid, slot) = run.flows[i];
            let p = &run.prob;
            let (a, b) = (p.off[i] as usize, p.off[i + 1] as usize);
            comp.push_row(fid, slot, (a..b).map(|h| (p.hop_res[h], p.hop_w[h])));
            next[k] = i + 1;
            if let Some(&(fid, _)) = run.flows.get(i + 1) {
                heads.push(Reverse((fid, k)));
            }
        }
        // Vacated ids hand their memory back: a component's lists are
        // sized by its largest moment, and keeping them would pin that.
        self.comp_free.append(&mut comp.absorbed);
        self.comps[c as usize] = comp;
    }

    /// Bring component `c` up to date after it lost flows, with one
    /// union-find pass over its live rows and one rewrite: tombstoned rows
    /// go, resources no live row crosses leave the component, and what is
    /// left splits into its connected pieces. The piece holding the
    /// smallest surviving local id keeps `c`; the others move to fresh
    /// components. Resources and rows keep their relative order, so every
    /// piece's rows stay fid-sorted. Vacates `c` if nothing is left.
    fn rebuild_component(&mut self, c: u32) {
        let mut comp = std::mem::take(&mut self.comps[c as usize]);
        comp.dead.sort_unstable();
        let n = comp.res.len();
        let mut scratch = std::mem::take(&mut self.comp_scratch);
        scratch.clear();
        scratch.resize(4 * n, NO_COMP);
        // Per local resource: union-find parent (`NO_COMP` while no live
        // row crosses it), piece, and id within the piece; per piece, its
        // component id.
        let (uf, rest) = scratch.split_at_mut(n);
        let (piece, rest) = rest.split_at_mut(n);
        let (local, ids) = rest.split_at_mut(n);
        let p = &comp.prob;
        let mut dead = comp.dead.iter().peekable();
        // Resources some live row crosses, and links made between sets.
        let (mut touched, mut links) = (0usize, 0usize);
        for (i, &(fid, _)) in comp.flows.iter().enumerate() {
            if dead.next_if_eq(&&fid).is_some() {
                continue;
            }
            let (a, b) = (p.off[i] as usize, p.off[i + 1] as usize);
            let mut root = NO_COMP;
            for &h in &p.hop_res[a..b] {
                if uf[h as usize] == NO_COMP {
                    uf[h as usize] = h;
                    touched += 1;
                }
                let x = uf_find(uf, h);
                if root == NO_COMP {
                    root = x;
                } else if x != root {
                    // Link to the smaller id, so a set's root is its first
                    // member in local order.
                    let (lo, hi) = (root.min(x), root.max(x));
                    uf[hi as usize] = lo;
                    root = lo;
                    links += 1;
                }
            }
        }
        // One piece holding every resource keeps its local ids: the rows
        // only close up over the tombstones. Otherwise
        // number the pieces in order of their first resource and move the
        // resources: `c`'s in place, the others' to fresh components.
        let renumbered = touched != n || links + 1 != n;
        if renumbered {
            let (mut pieces, mut kept) = (0usize, 0usize);
            for j in 0..n {
                let r = comp.res[j] as usize;
                if uf[j] == NO_COMP {
                    self.res_comp[r] = NO_COMP;
                    continue;
                }
                let root = uf_find(uf, j as u32) as usize;
                piece[j] = if root == j {
                    ids[pieces] = if pieces == 0 { c } else { self.new_comp() };
                    pieces += 1;
                    (pieces - 1) as u32
                } else {
                    piece[root]
                };
                let id = ids[piece[j] as usize];
                if id == c {
                    local[j] = kept as u32;
                    comp.res[kept] = r as u32;
                    kept += 1;
                } else {
                    let other = &mut self.comps[id as usize];
                    local[j] = other.res.len() as u32;
                    other.res.push(r as u32);
                    self.res_comp[r] = id;
                }
                self.res_local[r] = local[j];
            }
            comp.res.truncate(kept);
        }
        // Rows follow their first hop's piece; `c`'s are rewritten in
        // place (the write cursor never passes the read cursor).
        let mut dead = comp.dead.iter().peekable();
        let (mut rows, mut hw, mut a) = (0usize, 0usize, 0usize);
        for i in 0..comp.flows.len() {
            let p = &mut comp.prob;
            let b = p.off[i + 1] as usize;
            let (fid, slot) = comp.flows[i];
            if dead.next_if_eq(&&fid).is_none() {
                let id = if renumbered {
                    ids[piece[p.hop_res[a] as usize] as usize]
                } else {
                    c
                };
                if id == c {
                    if renumbered {
                        for h in a..b {
                            p.hop_res[hw] = local[p.hop_res[h] as usize];
                            p.hop_w[hw] = p.hop_w[h];
                            hw += 1;
                        }
                    } else {
                        p.hop_res.copy_within(a..b, hw);
                        p.hop_w.copy_within(a..b, hw);
                        hw += b - a;
                    }
                    comp.flows[rows] = (fid, slot);
                    rows += 1;
                    p.off[rows] = hw as u32;
                } else {
                    let hops = (a..b).map(|h| (local[p.hop_res[h] as usize], p.hop_w[h]));
                    self.comps[id as usize].push_row(fid, slot, hops);
                }
            }
            a = b;
        }
        comp.flows.truncate(rows);
        comp.prob.off.truncate(rows + 1);
        comp.prob.hop_res.truncate(hw);
        comp.prob.hop_w.truncate(hw);
        comp.dead.clear();
        if rows == 0 {
            comp = Component::default();
            self.comp_free.push(c);
        }
        self.comps[c as usize] = comp;
        self.comp_scratch = scratch;
    }
}
