//! The rate allocator: a price-clearing fluid fixed point plus a
//! progressive-filling max-min projection.
//!
//! Each recompute answers "what rate does every subflow send at now?" in
//! two stages:
//!
//! 1. **Price-clearing sweeps.** Every link carries a persistent loss
//!    *price* — its current loss probability. Each sweep sums the current
//!    rates into link loads, then adjusts each price multiplicatively by
//!    `(load/capacity)^price_gain`: overloaded links get more expensive,
//!    underloaded links decay toward the idle floor. Route losses sum the
//!    link prices, and [`fluid::rates::target_rates`] maps them to each
//!    flow's per-path equilibrium rates (Reno/LIA/OLIA/uncoupled — the
//!    same closed forms the ODE backend converges to); rates move a
//!    fraction `damping` toward the target each sweep. This tâtonnement
//!    mirrors what a drop-tail queue does in the packet backend: loss is
//!    not a fixed function of load, it is whatever value makes TCP demand
//!    meet capacity. At the fixed point every busy link sits exactly at
//!    the loss probability that clears it, which is why the per-class
//!    equilibria land on the packet simulator's numbers. This stage
//!    encodes the algorithm differences the paper is about; it is where
//!    LIA leaks onto congested paths and OLIA concentrates on the
//!    least-congested ones.
//!
//! 2. **Max-min projection.** The sweep output is a *demand* per subflow,
//!    not a feasible allocation (prices a few sweeps from convergence
//!    tolerate loads slightly above capacity). Progressive filling — grow
//!    every unfrozen subflow's rate at one common level, freezing a
//!    subflow when it reaches its demand or its tightest link saturates —
//!    projects the demands onto the capacity region. This is the
//!    dslab-style throughput model: a single water-filling pass per
//!    recompute, implemented level by level over a link-saturation heap
//!    that holds one entry per link. A link's saturation level only rises
//!    as entities freeze (up to float rounding), so a stale key is an
//!    underestimate and is rekeyed when it reaches the top (see
//!    `max_min_fill`). For E subflow
//!    entities of path length L on N links the pass costs O(E log E) for
//!    the demand sort, O(E·L) for the link CSR and the freezes, and
//!    O((N + K) log N) for the heap with K rekeys.
//!
//! Goodput finally discounts each path's allocated rate by its route loss,
//! mirroring how the packet backend counts delivered (not sent) packets.
//!
//! Each recompute first flattens the active subflows into one contiguous
//! entity table (path-link CSR, RTT, bottleneck capacity, rate), runs the
//! sweeps, the fill and the goodput over it, and writes the rates back to
//! the flow slots once.
//!
//! Everything here is deterministic: iteration follows `active` order,
//! then subflow order, then link order along the path, floats are compared
//! with `total_cmp`, and scratch buffers are reused across recomputes so
//! the hot path does not allocate once it reaches steady state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fluid::rates::{target_rates, RateRule};

use crate::sim::{FlowSlot, MAX_SUBFLOWS};

/// Allocator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AllocConfig {
    /// Per-link price floor: where idle-link prices decay to.
    pub p_link_min: f64,
    /// Per-link price cap: where an overloaded link's price saturates
    /// (the packet backend's drop-everything regime).
    pub p_link_cap: f64,
    /// Route-loss floor: no path ever looks loss-free (the `1/√p`
    /// equilibria diverge at p = 0). Plays the role of the packet
    /// backend's ambient/probing losses.
    pub p_floor: f64,
    /// Route-loss ceiling, keeping equilibrium rates positive and finite
    /// when many links stack up.
    pub p_ceiling: f64,
    /// Fraction of the distance to the target rate moved per sweep.
    pub damping: f64,
    /// Multiplicative price-update exponent per sweep: price scales by
    /// `(load/capacity)^price_gain`. Higher clears faster but risks
    /// oscillation against the damped rate response.
    pub price_gain: f64,
    /// Probing floor as a fraction of the path's fair-TCP window: every
    /// established path keeps at least `probe_frac·√(2/p)` MSS per RTT in
    /// flight (and never less than one MSS per RTT). This models the
    /// residual window coupled controllers hold on paths they have
    /// abandoned — packet-level OLIA retains roughly a third of the fair
    /// window on its non-best paths rather than draining them to zero.
    pub probe_frac: f64,
    /// Fixed-point sweeps per recompute. Validation runs afford tens;
    /// population-scale runs use a handful and rely on warm starts.
    pub sweeps: usize,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            p_link_min: 1e-5,
            p_link_cap: 0.45,
            p_floor: 2e-4,
            p_ceiling: 0.45,
            damping: 0.5,
            price_gain: 1.0,
            probe_frac: 1.0 / 3.0,
            sweeps: 50,
        }
    }
}

impl AllocConfig {
    /// Cheaper settings for population-scale churn runs: fewer sweeps,
    /// leaning on the warm start carried between recomputes.
    pub fn large_scale() -> AllocConfig {
        AllocConfig {
            sweeps: 6,
            ..AllocConfig::default()
        }
    }
}

/// Reusable buffers for [`recompute`]; hot-path allocations amortize to
/// zero once capacities stabilize.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    loads: Vec<f64>,
    ploss: Vec<f64>,
    // Entity table (entity = one subflow of one active flow), flattened
    // once per recompute in active → subflow order.
    ent_off: Vec<u32>,
    ent_links: Vec<u32>,
    rtt: Vec<f64>,
    cap: Vec<f64>,
    // Sweep rate, then (clamped) max-min demand, then allocation.
    rate: Vec<f64>,
    // Per active flow: its first entity and its rate rule.
    flow_off: Vec<u32>,
    rule: Vec<RateRule>,
    frozen: Vec<bool>,
    order: Vec<u32>,
    // CSR link → entities crossing it.
    link_off: Vec<u32>,
    link_ent: Vec<u32>,
    cursor: Vec<u32>,
    // Water-filling per-link state.
    rem: Vec<f64>,
    nun: Vec<u32>,
    lvl: Vec<f64>,
    key: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl AllocScratch {
    pub(crate) fn new() -> AllocScratch {
        AllocScratch::default()
    }
}

/// Link indices of entity `e` in the entity table's path CSR.
#[inline]
fn ent_path<'a>(off: &[u32], links: &'a [u32], e: usize) -> &'a [u32] {
    &links[off[e] as usize..off[e + 1] as usize]
}

/// Route loss for one path: clamped sum of link losses.
#[inline]
fn route_loss(ploss: &[f64], links: &[u32], cfg: &AllocConfig) -> f64 {
    let mut p = 0.0;
    for &l in links {
        p += ploss[l as usize];
    }
    p.clamp(cfg.p_floor, cfg.p_ceiling)
}

/// Tightest capacity along a path, packets per second.
#[inline]
fn min_cap(caps: &[f64], links: &[u32]) -> f64 {
    let mut c = f64::INFINITY;
    for &l in links {
        c = c.min(caps[l as usize]);
    }
    c
}

/// Recompute rates and goodputs for every flow in `active` (indices into
/// `flows`), against link capacities `caps` (pkts/s). `link_loss` is the
/// persistent per-link price state: read as the warm start, written back
/// with the cleared prices. On return each active slot's `rates` hold the
/// feasible allocation and `goodput` the loss-discounted delivered rate.
pub(crate) fn recompute(
    caps: &[f64],
    cfg: &AllocConfig,
    flows: &mut [FlowSlot],
    active: &[u32],
    s: &mut AllocScratch,
    link_loss: &mut Vec<f64>,
) {
    let nlinks = caps.len();
    s.loads.clear();
    s.loads.resize(nlinks, 0.0);
    // Warm-start prices from the previous recompute (idle floor for links
    // that did not exist yet).
    link_loss.resize(nlinks, cfg.p_link_min);
    s.ploss.clear();
    s.ploss.extend(
        link_loss
            .iter()
            .map(|p| p.clamp(cfg.p_link_min, cfg.p_link_cap)),
    );

    // Flatten the active subflows into the entity table. Every loop below
    // walks it in active → subflow → link order: the order float sums
    // accumulate in is part of the rates, and so of the trace digests.
    s.ent_off.clear();
    s.ent_off.push(0);
    s.ent_links.clear();
    s.rtt.clear();
    s.cap.clear();
    s.rate.clear();
    s.flow_off.clear();
    s.flow_off.push(0);
    s.rule.clear();
    for &fi in active {
        let f = &flows[fi as usize];
        for r in 0..f.num_paths() {
            let path = f.path_links(r);
            s.ent_links.extend_from_slice(path);
            s.ent_off.push(s.ent_links.len() as u32);
            s.cap.push(min_cap(caps, path));
        }
        s.rtt.extend_from_slice(&f.rtts);
        s.rate.extend_from_slice(&f.rates);
        s.flow_off.push(s.rate.len() as u32);
        s.rule.push(f.rule);
    }
    let nent = s.rate.len();

    // Stage 1: price-clearing sweeps (tâtonnement) of the fluid fixed
    // point.
    for _ in 0..cfg.sweeps {
        for v in s.loads.iter_mut() {
            *v = 0.0;
        }
        for e in 0..nent {
            let rate = s.rate[e];
            for &l in ent_path(&s.ent_off, &s.ent_links, e) {
                s.loads[l as usize] += rate;
            }
        }
        for (l, &cap) in caps.iter().enumerate().take(nlinks) {
            // Overloaded links get more expensive, idle ones decay: the
            // fixed point is the loss probability that clears the link.
            let util = if cap > 0.0 {
                s.loads[l] / cap
            } else {
                f64::INFINITY
            };
            s.ploss[l] =
                (s.ploss[l] * util.powf(cfg.price_gain)).clamp(cfg.p_link_min, cfg.p_link_cap);
        }
        for (i, &rule) in s.rule.iter().enumerate() {
            let (a, b) = (s.flow_off[i] as usize, s.flow_off[i + 1] as usize);
            let n = b - a;
            let mut p = [0.0; MAX_SUBFLOWS];
            let mut floor = [0.0; MAX_SUBFLOWS];
            let mut tgt = [0.0; MAX_SUBFLOWS];
            for r in 0..n {
                p[r] = route_loss(&s.ploss, ent_path(&s.ent_off, &s.ent_links, a + r), cfg);
                // Probing floor: a fraction of the fair-TCP window at this
                // path's loss, never below one MSS per RTT — the residual
                // rate controllers hold on paths they have abandoned.
                let probe = cfg.probe_frac * (2.0 / p[r]).sqrt();
                floor[r] = probe.max(1.0) / s.rtt[a + r];
            }
            target_rates(rule, &p[..n], &s.rtt[a..b], &mut tgt[..n]);
            for r in 0..n {
                let cap = s.cap[a + r];
                let want = tgt[r].min(cap).max(floor[r].min(cap));
                s.rate[a + r] += cfg.damping * (want - s.rate[a + r]);
            }
        }
    }

    // Stage 2: progressive-filling max-min with the sweep rates as demands.
    for v in s.rate.iter_mut() {
        *v = v.max(0.0);
    }
    max_min_fill(caps, s);

    // Write the projected rates back and derive goodputs from the cleared
    // prices (the loss probabilities the packet backend would measure).
    for (i, &fi) in active.iter().enumerate() {
        let (a, b) = (s.flow_off[i] as usize, s.flow_off[i + 1] as usize);
        let f = &mut flows[fi as usize];
        f.rates.copy_from_slice(&s.rate[a..b]);
        let mut g = 0.0;
        for e in a..b {
            let p = route_loss(&s.ploss, ent_path(&s.ent_off, &s.ent_links, e), cfg);
            g += s.rate[e] * (1.0 - p);
        }
        f.goodput = g;
    }
    link_loss.clear();
    link_loss.extend_from_slice(&s.ploss);
}

/// Saturation level a link would reach if all its unfrozen entities kept
/// growing: current level plus remaining capacity spread across them.
#[inline]
fn sat_level(rem: f64, nun: u32, lvl: f64) -> f64 {
    lvl + rem.max(0.0) / nun as f64
}

/// Relative tolerance within which a saturation level still matches a
/// link's heap key.
#[inline]
fn key_tol(key: f64) -> f64 {
    1e-12 * key.abs().max(1.0)
}

/// Progressive filling over the entity table in `s`: every entity's rate
/// rises from zero at a common level; an entity freezes when the level
/// reaches its demand (`s.rate` on entry) or one of its links saturates.
/// Overwrites `s.rate` with the allocation.
///
/// Levels are processed in nondecreasing order, with one heap entry per
/// link that still has unfrozen entities. A link's saturation level only
/// rises as entities freeze: with `S` its level, `L ≤ S` the freeze level
/// and `n` its unfrozen count, the new level is `L + n(S−L)/(n−1) ≥ S`. So
/// a queued entry can only underestimate, and the pop side rekeys a stale
/// one instead of every freeze pushing a fresh one.
///
/// A link's key is the level it had when its level last rose more than
/// [`key_tol`] above the key, lowered whenever float rounding takes the
/// level below it; rises within the tolerance leave it alone. Links whose
/// levels agree within the tolerance (ties, common in symmetric fabrics)
/// thus saturate in the order of their lowest recent levels: the order a
/// heap that queued every level a link passes through picks, so the
/// allocation is bit-identical to that heap's. The one exception is a chain
/// of rises each within the tolerance but together past it: this keys the
/// link at the latest level of the chain, that heap at the earliest one
/// still within the tolerance. In the `flow_churn` and `flow_steady`
/// workloads (seeds 1, 2 and 7, about 5 000 fills) rises that small come
/// only from rounding, at most 4.5e-15 relative, so such a chain would take
/// hundreds of them on one link. A level lowered by rounding (a few ulps;
/// twice in those fills) is pushed again at once, the only case in which
/// the heap holds more than one entry per link.
fn max_min_fill(caps: &[f64], s: &mut AllocScratch) {
    let nlinks = caps.len();
    let nent = s.rate.len();
    s.frozen.clear();
    s.frozen.resize(nent, false);

    // CSR: link → entities crossing it.
    s.link_off.clear();
    s.link_off.resize(nlinks + 1, 0);
    for &l in &s.ent_links {
        s.link_off[l as usize + 1] += 1;
    }
    for l in 0..nlinks {
        let carry = s.link_off[l];
        s.link_off[l + 1] += carry;
    }
    s.link_ent.clear();
    s.link_ent.resize(s.link_off[nlinks] as usize, 0);
    // Fill through a cursor copy so offsets stay intact.
    s.cursor.clear();
    s.cursor.extend_from_slice(&s.link_off[..nlinks]);
    for e in 0..nent {
        for &l in ent_path(&s.ent_off, &s.ent_links, e) {
            let c = &mut s.cursor[l as usize];
            s.link_ent[*c as usize] = e as u32;
            *c += 1;
        }
    }

    // Per-link water-filling state.
    s.rem.clear();
    s.rem.extend_from_slice(caps);
    s.nun.clear();
    s.nun.resize(nlinks, 0);
    s.lvl.clear();
    s.lvl.resize(nlinks, 0.0);
    s.key.clear();
    s.key.resize(nlinks, 0.0);
    for l in 0..nlinks {
        s.nun[l] = s.link_off[l + 1] - s.link_off[l];
    }
    s.heap.clear();
    for l in 0..nlinks {
        if s.nun[l] > 0 {
            let sat = sat_level(s.rem[l], s.nun[l], 0.0);
            s.key[l] = sat;
            s.heap.push(Reverse((sat.to_bits(), l as u32)));
        }
    }

    // Entities in demand order.
    s.order.clear();
    s.order.extend(0..nent as u32);
    let demand = &s.rate;
    s.order
        .sort_unstable_by(|&a, &b| demand[a as usize].total_cmp(&demand[b as usize]));

    let mut ptr = 0usize;
    loop {
        while ptr < nent && s.frozen[s.order[ptr] as usize] {
            ptr += 1;
        }
        if ptr >= nent {
            break;
        }
        // Unfrozen, so its rate slot still holds the demand.
        let next_demand = s.rate[s.order[ptr] as usize];

        // Validated top of the saturation heap.
        let mut top: Option<(f64, u32)> = None;
        while let Some(&Reverse((bits, l))) = s.heap.peek() {
            let li = l as usize;
            if s.nun[li] == 0 {
                s.heap.pop();
                continue;
            }
            let key = s.key[li];
            debug_assert!(f64::from_bits(bits) <= key, "link {l} queued above its key");
            if bits != key.to_bits() {
                // Stale underestimate: rekey and retry.
                s.heap.pop();
                s.heap.push(Reverse((key.to_bits(), l)));
                continue;
            }
            top = Some((sat_level(s.rem[li], s.nun[li], s.lvl[li]), l));
            break;
        }

        match top {
            Some((sat, l)) if sat < next_demand => {
                // The link saturates first: freeze everyone crossing it.
                s.heap.pop();
                let li = l as usize;
                let (start, end) = (s.link_off[li] as usize, s.link_off[li + 1] as usize);
                for i in start..end {
                    let e = s.link_ent[i] as usize;
                    if !s.frozen[e] {
                        freeze(s, e, sat);
                    }
                }
            }
            _ => {
                // The next demand is reached first (or no link constrains).
                let e = s.order[ptr] as usize;
                ptr += 1;
                freeze(s, e, next_demand);
            }
        }
    }
}

/// Freeze entity `e` at allocation `level`: advance each of its links'
/// consumption checkpoint to `level`, drop it from their unfrozen counts
/// and update their keys (see [`max_min_fill`]). A key that rises stays
/// queued at its old value for the pop side to rekey; one that rounding
/// lowered is pushed again.
fn freeze(s: &mut AllocScratch, e: usize, level: f64) {
    s.frozen[e] = true;
    s.rate[e] = level;
    for &l in ent_path(&s.ent_off, &s.ent_links, e) {
        let li = l as usize;
        s.rem[li] -= s.nun[li] as f64 * (level - s.lvl[li]).max(0.0);
        s.lvl[li] = s.lvl[li].max(level);
        s.nun[li] -= 1;
        if s.nun[li] > 0 {
            let sat = sat_level(s.rem[li], s.nun[li], s.lvl[li]);
            let key = s.key[li];
            debug_assert!(
                sat >= key - key_tol(key),
                "link {l} saturation fell below its key"
            );
            if sat > key + key_tol(key) {
                s.key[li] = sat;
            } else if sat < key {
                s.key[li] = sat;
                s.heap.push(Reverse((sat.to_bits(), l)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::SimRng;

    /// Scratch after a max-min fill of entities with the given link paths
    /// and demands.
    fn filled(caps: &[f64], paths: &[&[u32]], demands: &[f64]) -> AllocScratch {
        let mut s = AllocScratch::new();
        s.ent_off.push(0);
        for p in paths {
            s.ent_links.extend_from_slice(p);
            s.ent_off.push(s.ent_links.len() as u32);
        }
        s.rate.extend_from_slice(demands);
        max_min_fill(caps, &mut s);
        s
    }

    /// Max-min allocation of entities with the given link paths and demands.
    fn fill(caps: &[f64], paths: &[&[u32]], demands: &[f64]) -> Vec<f64> {
        filled(caps, paths, demands).rate
    }

    /// Textbook progressive filling: raise every unfrozen entity to the
    /// next event level (the smallest unfrozen demand or link saturation
    /// level, recomputed from scratch), freeze whatever that level
    /// reaches, repeat.
    fn reference_fill(caps: &[f64], paths: &[Vec<u32>], demands: &[f64]) -> Vec<f64> {
        let n = paths.len();
        let mut alloc = vec![0.0; n];
        let mut frozen = vec![false; n];
        while frozen.iter().any(|&f| !f) {
            let mut used = vec![0.0; caps.len()];
            let mut nun = vec![0usize; caps.len()];
            for (e, path) in paths.iter().enumerate() {
                for &l in path {
                    if frozen[e] {
                        used[l as usize] += alloc[e];
                    } else {
                        nun[l as usize] += 1;
                    }
                }
            }
            let sat: Vec<f64> = (0..caps.len())
                .map(|l| {
                    if nun[l] == 0 {
                        f64::INFINITY
                    } else {
                        ((caps[l] - used[l]) / nun[l] as f64).max(0.0)
                    }
                })
                .collect();
            let mut level = f64::INFINITY;
            for e in (0..n).filter(|&e| !frozen[e]) {
                level = level.min(demands[e]);
                for &l in &paths[e] {
                    level = level.min(sat[l as usize]);
                }
            }
            let close = |x: f64| x <= level + 1e-12 * level.abs().max(1.0);
            for e in 0..n {
                if !frozen[e]
                    && (close(demands[e]) || paths[e].iter().any(|&l| close(sat[l as usize])))
                {
                    frozen[e] = true;
                    alloc[e] = level.min(demands[e]);
                }
            }
        }
        alloc
    }

    /// The same progressive filling with every saturation level a link
    /// passes through queued in the heap, keyed by that level: the order
    /// the per-link keys of [`max_min_fill`] must reproduce bit for bit.
    fn every_level_fill(caps: &[f64], paths: &[&[u32]], demands: &[f64]) -> Vec<f64> {
        let (nlinks, n) = (caps.len(), paths.len());
        let mut alloc = vec![0.0; n];
        let mut frozen = vec![false; n];
        let mut rem = caps.to_vec();
        let mut lvl = vec![0.0; nlinks];
        let mut nun = vec![0u32; nlinks];
        let mut on_link: Vec<Vec<usize>> = vec![Vec::new(); nlinks];
        for (e, path) in paths.iter().enumerate() {
            for &l in *path {
                nun[l as usize] += 1;
                on_link[l as usize].push(e);
            }
        }
        let mut heap = BinaryHeap::new();
        for l in 0..nlinks {
            if nun[l] > 0 {
                heap.push(Reverse((sat_level(rem[l], nun[l], 0.0).to_bits(), l)));
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| demands[a].total_cmp(&demands[b]));
        let mut ptr = 0;
        loop {
            while ptr < n && frozen[order[ptr]] {
                ptr += 1;
            }
            if ptr >= n {
                break;
            }
            let next_demand = demands[order[ptr]];
            let mut top = None;
            while let Some(&Reverse((bits, l))) = heap.peek() {
                if nun[l] == 0 {
                    heap.pop();
                    continue;
                }
                let sat = sat_level(rem[l], nun[l], lvl[l]);
                let key = f64::from_bits(bits);
                if sat > key + key_tol(key) {
                    heap.pop();
                    heap.push(Reverse((sat.to_bits(), l)));
                    continue;
                }
                top = Some((sat, l));
                break;
            }
            let (to_freeze, level) = match top {
                Some((sat, l)) if sat < next_demand => {
                    heap.pop();
                    (on_link[l].clone(), sat)
                }
                _ => {
                    ptr += 1;
                    (vec![order[ptr - 1]], next_demand)
                }
            };
            for e in to_freeze {
                if frozen[e] {
                    continue;
                }
                frozen[e] = true;
                alloc[e] = level;
                for &l in paths[e] {
                    let l = l as usize;
                    rem[l] -= nun[l] as f64 * (level - lvl[l]).max(0.0);
                    lvl[l] = lvl[l].max(level);
                    nun[l] -= 1;
                    if nun[l] > 0 {
                        heap.push(Reverse((sat_level(rem[l], nun[l], lvl[l]).to_bits(), l)));
                    }
                }
            }
        }
        alloc
    }

    /// Feasibility (no link above capacity, no entity above its demand)
    /// and maximality (every entity is at its demand or crosses a
    /// saturated link), each up to `tol` of the capacity or demand
    /// compared against.
    fn assert_feasible_and_maximal(
        caps: &[f64],
        paths: &[&[u32]],
        demands: &[f64],
        alloc: &[f64],
        tol: impl Fn(f64) -> f64,
    ) {
        let mut loads = vec![0.0; caps.len()];
        for (e, path) in paths.iter().enumerate() {
            assert!(alloc[e] <= demands[e] + 1e-9, "entity {e} above demand");
            for &l in *path {
                loads[l as usize] += alloc[e];
            }
        }
        for (l, (&load, &cap)) in loads.iter().zip(caps).enumerate() {
            assert!(load <= cap + tol(cap), "link {l} oversubscribed");
        }
        for (e, path) in paths.iter().enumerate() {
            let at_demand = (alloc[e] - demands[e]).abs() < tol(demands[e]);
            let saturated = path.iter().any(|&l| {
                let cap = caps[l as usize];
                loads[l as usize] >= cap - tol(cap)
            });
            assert!(at_demand || saturated, "entity {e} could still grow");
        }
    }

    #[test]
    fn maxmin_unconstrained_meets_demands() {
        let alloc = fill(&[100.0], &[&[0]], &[30.0]);
        assert!((alloc[0] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_shares_a_bottleneck_equally() {
        // Two greedy entities on one 90-unit link: 45 each.
        let alloc = fill(&[90.0], &[&[0], &[0]], &[1000.0, 1000.0]);
        assert!((alloc[0] - 45.0).abs() < 1e-9);
        assert!((alloc[1] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_redistributes_a_small_demand() {
        // Classic water filling: demands 10/1000/1000 on a 90 link
        // → 10, 40, 40.
        let alloc = fill(&[90.0], &[&[0], &[0], &[0]], &[10.0, 1000.0, 1000.0]);
        assert!((alloc[0] - 10.0).abs() < 1e-9);
        assert!((alloc[1] - 40.0).abs() < 1e-9);
        assert!((alloc[2] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_two_links_pick_the_tighter_bottleneck() {
        // Entity 0 crosses links 0 and 1; entity 1 only link 1.
        // Link 1 (cap 30) saturates at level 15; link 0 (cap 100) never.
        let alloc = fill(&[100.0, 30.0], &[&[0, 1], &[1]], &[1000.0, 1000.0]);
        assert!((alloc[0] - 15.0).abs() < 1e-9);
        assert!((alloc[1] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_frees_capacity_after_a_demand_freeze() {
        // On link 1 (cap 30): entity 1 freezes at demand 5, leaving 25 for
        // entity 0 — which then hits link 0's share with entity 2.
        let alloc = fill(
            &[40.0, 30.0],
            &[&[0, 1], &[1], &[0]],
            &[1000.0, 5.0, 1000.0],
        );
        assert!((alloc[1] - 5.0).abs() < 1e-9);
        // Link 0: entities 0 and 2 split 40 → 20 each; link 1 would have
        // allowed entity 0 up to 25, so link 0 binds.
        assert!((alloc[0] - 20.0).abs() < 1e-9);
        assert!((alloc[2] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn maxmin_never_oversubscribes_any_link() {
        // Deterministic pseudo-random demand pattern over a shared chain.
        let caps = [50.0, 35.0, 80.0];
        let paths: [&[u32]; 6] = [&[0], &[0, 1], &[1, 2], &[2], &[0, 1, 2], &[1]];
        let demands = [7.0, 60.0, 13.0, 90.0, 41.0, 3.0];
        let alloc = fill(&caps, &paths, &demands);
        assert_feasible_and_maximal(&caps, &paths, &demands, &alloc, |_| 1e-6);
    }

    #[test]
    fn maxmin_heap_holds_about_one_entry_per_link() {
        // 500 entities on 4 of 16 links each: a heap fed on every freeze
        // would peak near one entry per entity-link pair (~2 000); one
        // entry per link, plus the rare rounding re-push, stays near 16.
        // The heap's capacity bounds the longest it ever grew.
        let mut rng = SimRng::seed_from_u64(0x4EA9);
        let caps: Vec<f64> = (0..16).map(|_| 1.0 + 999.0 * rng.f64()).collect();
        let paths: Vec<Vec<u32>> = (0..500)
            .map(|_| {
                let mut links: Vec<u32> = (0..16).collect();
                rng.shuffle(&mut links);
                links.truncate(4);
                links
            })
            .collect();
        let demands: Vec<f64> = (0..500).map(|_| 50.0 * rng.f64()).collect();
        let path_refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
        let s = filled(&caps, &path_refs, &demands);
        assert!(
            s.heap.capacity() <= 64,
            "heap grew to {}",
            s.heap.capacity()
        );
    }

    #[test]
    fn maxmin_matches_reference_progressive_filling() {
        // Seeded random instances: caps and demands partly drawn from
        // small value sets so exact ties (equal caps, equal demands,
        // demands equal to a fair share) and zero demands are common.
        let mut rng = SimRng::seed_from_u64(0x3A11_F111);
        for case in 0..300 {
            let nlinks = 1 + rng.below(24);
            let caps: Vec<f64> = (0..nlinks)
                .map(|_| {
                    if rng.chance(0.5) {
                        [10.0, 20.0, 30.0][rng.below(3)]
                    } else {
                        1.0 + 999.0 * rng.f64()
                    }
                })
                .collect();
            let nent = 1 + rng.below(40);
            let paths: Vec<Vec<u32>> = (0..nent)
                .map(|_| {
                    let mut links: Vec<u32> = (0..nlinks as u32).collect();
                    rng.shuffle(&mut links);
                    links.truncate(1 + rng.below(nlinks.min(16)));
                    links
                })
                .collect();
            let demands: Vec<f64> = (0..nent)
                .map(|_| match rng.below(4) {
                    0 => 0.0,
                    1 => [5.0, 10.0, 15.0][rng.below(3)],
                    2 => 1e6,
                    _ => 500.0 * rng.f64(),
                })
                .collect();
            let path_refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
            let alloc = fill(&caps, &path_refs, &demands);
            let want = reference_fill(&caps, &paths, &demands);
            for e in 0..nent {
                assert!(
                    (alloc[e] - want[e]).abs() <= 1e-9 * want[e].abs().max(1.0),
                    "case {case} entity {e}: {} != reference {}",
                    alloc[e],
                    want[e]
                );
            }
            // Caps and demands reach 1e6 here: tolerances scale with them.
            assert_feasible_and_maximal(&caps, &path_refs, &demands, &alloc, |x| 1e-6 * x.max(1.0));
        }
    }

    #[test]
    fn maxmin_matches_every_level_heap_bit_for_bit() {
        // Greedy entities on eight equal 100 Mb/s links: one link each, or
        // two written as two digits. Shrunk from a k=16 FatTree recompute
        // where float rounding lowers a link's level by an ulp while
        // levels tie: without re-pushing that link at its lowered key, the
        // allocation differs here.
        let tied = "\
            7 6 5 7 5 1 1 0 0 3 3 7 4 4 5 1 1 6 4 4 1 1 5 5 6 2 2 6 6 5 25 2 6 \
            7 2 2 4 4 7 5 6 65 65 6 2 2 7 03 03 65 3 3 2 2 7 65 1 1 5 65 0 0 0 \
            0 0 0 1 1 7 4 4 4 4 4 4 0 0 5 1 1 6 65 5 7 6 0 0 2 2 6 3 3 0 0 0 0 \
            6 0 0 5 7 0 0 2 2 5 7 3 3 7 2 2 2 2 6 5 5 2 2 7 0 0 65 1 17 65 1 1 \
            7 2 2 65 2 2 65 65 1 1 1 1 65 6 2 2 7 23 23 5 5 6 1 1 5 2 2 4 4 5 \
            65 3 3 6 1 1 3 3 65 1 1 0 0 7 0 0 0 0 65 7 6 65 3 3 4 4 65 5 5 0 0 \
            7 2 2 0 0 2 2 7 2 2 3 3 2 2 3 3 6 6 65 7 2 2 65 7 4 74 4 4 6 65 0 \
            0 7 5 7 7 3 3 4 4 3 73 4 4 0 0 6 65 65 6 6 65 0 0 3 3 4 4 0 0 0 0 \
            2 2 4 4 1 1 2 2";
        let paths: Vec<Vec<u32>> = tied
            .split(' ')
            .map(|t| t.bytes().map(|b| u32::from(b - b'0')).collect())
            .collect();
        let greedy = vec![1e9; paths.len()];
        let mut cases = vec![(vec![crate::net::mbps_to_pps(100.0); 8], paths, greedy)];
        // Link 0 (ten entities, level 1) rises 2e-12 when the entity with
        // demand 1 - 18e-12 freezes, past the rekey tolerance, then 0.375e-12
        // when the one at 1 - 1e-12 freezes, within it; link 1 (level
        // 1 - 0.5e-12) holds the heap top meanwhile. Link 2 (level
        // 1 + 2.2e-12) shares entity 2 with link 0 and lies between link 0's
        // key and its current level, so rekeying link 0's stale entry at the
        // current level instead of the kept key lets link 2 saturate first.
        let mut paths = vec![vec![0], vec![0], vec![0, 2]];
        let mut demands = vec![1.0 - 18e-12, 1.0 - 1e-12, 1e9];
        paths.resize(10, vec![0]);
        paths.extend([vec![1], vec![2]]);
        demands.resize(paths.len(), 1e9);
        cases.push((
            vec![10.0, 1.0 - 0.5e-12, 2.0 * (1.0 + 2.2e-12)],
            paths,
            demands,
        ));
        // Plus tie-heavy random instances.
        let mut rng = SimRng::seed_from_u64(0x71E5);
        for _ in 0..300 {
            let nlinks = 2 + rng.below(10);
            let caps = (0..nlinks)
                .map(|_| [10.0, 20.0, 30.0][rng.below(3)])
                .collect();
            let paths: Vec<Vec<u32>> = (0..2 + rng.below(60))
                .map(|_| {
                    let mut links: Vec<u32> = (0..nlinks as u32).collect();
                    rng.shuffle(&mut links);
                    links.truncate(1 + rng.below(nlinks.min(4)));
                    links
                })
                .collect();
            let demands = (0..paths.len())
                .map(|_| match rng.below(3) {
                    0 => 1e9,
                    1 => [1.0, 2.5, 10.0 / 3.0][rng.below(3)],
                    _ => 10.0 * rng.f64(),
                })
                .collect();
            cases.push((caps, paths, demands));
        }
        for (case, (caps, paths, demands)) in cases.iter().enumerate() {
            let path_refs: Vec<&[u32]> = paths.iter().map(Vec::as_slice).collect();
            let got = fill(caps, &path_refs, demands);
            let want = every_level_fill(caps, &path_refs, demands);
            for e in 0..paths.len() {
                assert_eq!(
                    got[e].to_bits(),
                    want[e].to_bits(),
                    "case {case} entity {e}"
                );
            }
        }
    }
}
