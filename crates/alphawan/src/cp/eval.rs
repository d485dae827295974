//! Allocation-free CP-solution evaluation engine — the §4.3.1 hot path.
//!
//! [`CpProblem::objective`] is the *serial reference evaluator*: clear,
//! close to the paper's formulation, and property-tested against this
//! module. It is also O(nodes × gateways × rings) with several heap
//! allocations per call, which caps the evolutionary solver at a few
//! hundred nodes. This module is the production evaluator:
//!
//! * [`EvalContext`] precomputes gateway-reach bitmasks per ring —
//!   interned, one row per *reach class* of nodes hearing the same
//!   gateways — and fixed-point traffic weights once per problem;
//!   scoring a candidate through a reusable [`Scratch`] then performs
//!   **zero heap allocations** (enforced by the `eval_alloc`
//!   integration test).
//! * A node's serving gateways depend only on its reach mask at its
//!   ring and on its channel, so [`EvalContext::score`] folds the nodes
//!   into *cells* keyed by that pair and derives one serve mask, one
//!   load fold and one best-φ per occupied cell, never per node. Every
//!   worker's [`Scratch`] holds the whole cell table: distinct (class,
//!   ring) reach masks × the channel count rounded up to a power of
//!   two, 16 bytes a cell (85 classes over 38 channels intern to at
//!   most 510 × 64 cells, ≈ 0.5 MB).
//! * [`Genome`] is a flat solution encoding — one `u16` gene per node
//!   (`channel * DISTANCE_RINGS + ring`) and one `u64` channel bitmask
//!   per gateway — so cloning a candidate is two `memcpy`s instead of
//!   a tree of nested `Vec`s.
//! * [`IncrementalEval`] maintains the objective under single-gene
//!   deltas: a node move touches only the gateways it loads, a gateway
//!   re-mask recomputes one `k_j` column. Simulated annealing becomes
//!   delta-scored (its natural form) and the GA's repair pass stops
//!   allocating.
//! * `fan_out` spreads per-item work over `std::thread::scope`
//!   workers, each with private state: the GA's generation step
//!   (breed + repair + score per slot) runs on it. Each item is
//!   produced by the same pure function whoever runs it, so results
//!   are **byte-identical for every worker count** — the
//!   `ga_deterministic_per_seed` and `obs_determinism` guarantees
//!   survive parallelism.
//!
//! # Determinism and exactness rules
//!
//! Floating-point accumulation is order-sensitive, so a naive
//! incremental evaluator drifts away from a full recompute. The engine
//! instead does all load accounting in **fixed-point integers**
//! (traffic is quantized to [`LOAD_SCALE`] units at context build) and
//! combines the three objective terms in one canonical order
//! (`combine`). Integer addition is associative, so:
//!
//! * incremental score ≡ full recompute, bit for bit, for arbitrary
//!   `f64` traffic (property-tested over random mutation chains);
//! * scores are independent of evaluation order, hence of the worker
//!   count;
//! * for integer-valued traffic (every experiment in this repo) the
//!   engine score is bit-identical to the reference
//!   [`CpProblem::objective`]; non-dyadic traffic quantizes to the
//!   nearest `2⁻²⁰`, a relative error ≤ `1e-6` documented in
//!   DESIGN.md.

use super::{CpProblem, CpSolution};
use lora_phy::pathloss::DISTANCE_RINGS;
use std::collections::HashMap;
use std::sync::Mutex;

/// Fixed-point quantum for traffic loads: one packet-per-window is
/// `2²⁰` load units. Chosen so integer traffic up to `2⁴⁴` packets
/// quantizes exactly and per-gateway sums never overflow `u64`.
pub const LOAD_SCALE: f64 = (1u64 << LOAD_SCALE_BITS) as f64;

/// `log2(LOAD_SCALE)`.
pub const LOAD_SCALE_BITS: u32 = 20;

/// Largest quantized per-node load (saturation bound, ≈ 1.7e13
/// packets per window — far beyond any physical deployment).
const MAX_LOAD_Q: u64 = 1 << 44;

/// Gateways per problem the engine's `u64` reach/serve bitmasks can
/// hold. [`super::ga::GaSolver`] falls back to the serial reference
/// path beyond this.
pub const MAX_ENGINE_GATEWAYS: usize = 64;

/// Quantize one traffic weight to [`LOAD_SCALE`] units.
fn quantize(traffic: f64) -> u64 {
    ((traffic.max(0.0) * LOAD_SCALE).round() as u64).min(MAX_LOAD_Q)
}

/// Combine the three objective components in the engine's canonical
/// order. Both the full and the incremental evaluator end here, so
/// their scores are identical whenever their integer components are.
fn combine(p: &CpProblem, main_q: u128, disconnected: u64, dup_units: u64) -> f64 {
    main_q as f64 / (LOAD_SCALE * LOAD_SCALE)
        + disconnected as f64 * p.disconnect_penalty
        + dup_units as f64 * p.duplicate_penalty
}

/// Flat solution encoding: per-node packed (channel, ring) genes and
/// per-gateway channel bitmasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    /// `gene[i] = channel * DISTANCE_RINGS + ring` for node `i` — the
    /// same key the duplicate-slot scratch uses.
    pub gene: Vec<u16>,
    /// Channel bitmask per gateway (bit `k` ⇔ the gateway listens on
    /// grid channel `k`), replacing the nested `Vec<usize>` sets.
    pub gw_mask: Vec<u64>,
}

/// Pack a (channel, ring) pair into a flat gene.
#[inline]
pub fn pack_gene(channel: usize, ring: usize) -> u16 {
    debug_assert!(ring < DISTANCE_RINGS);
    (channel * DISTANCE_RINGS + ring) as u16
}

/// Channel index of a packed gene.
#[inline]
pub fn gene_channel(gene: u16) -> usize {
    gene as usize / DISTANCE_RINGS
}

/// Ring index of a packed gene.
#[inline]
pub fn gene_ring(gene: u16) -> usize {
    gene as usize % DISTANCE_RINGS
}

impl Genome {
    /// Flatten a direct-encoded solution.
    pub fn from_solution(sol: &CpSolution) -> Genome {
        Genome {
            gene: sol
                .node_channel
                .iter()
                .zip(&sol.node_ring)
                .map(|(&c, &r)| pack_gene(c, r))
                .collect(),
            gw_mask: sol
                .gw_channels
                .iter()
                .map(|chs| chs.iter().fold(0u64, |m, &k| m | (1 << k)))
                .collect(),
        }
    }

    /// Overwrite `self` with `src` in place (same problem, so the same
    /// lengths): two `memcpy`s, no heap use — unlike `clone`.
    pub fn copy_from(&mut self, src: &Genome) {
        self.gene.copy_from_slice(&src.gene);
        self.gw_mask.copy_from_slice(&src.gw_mask);
    }

    /// Expand back to the direct encoding (gateway channel lists come
    /// out sorted ascending).
    pub fn to_solution(&self) -> CpSolution {
        CpSolution {
            gw_channels: self
                .gw_mask
                .iter()
                .map(|&m| BitIter(m).map(|b| b as usize).collect())
                .collect(),
            node_channel: self.gene.iter().map(|&g| gene_channel(g)).collect(),
            node_ring: self.gene.iter().map(|&g| gene_ring(g)).collect(),
        }
    }
}

/// Iterator over the set bit positions of a `u64`, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }

    /// Exact, so collecting the bits allocates once, whatever they are.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

/// Precomputed, immutable evaluation tables for one [`CpProblem`].
/// Shared read-only across scoring workers (`Sync`); all mutable state
/// lives in per-worker [`Scratch`] buffers.
pub struct EvalContext<'p> {
    p: &'p CpProblem,
    /// Reach class of each node: nodes with the same reach row (the
    /// same gateways at every ring) share one. A deployment has far
    /// fewer rows than nodes (85 for 11 787 log-derived nodes).
    class: Vec<u32>,
    /// `class_reach[c * DISTANCE_RINGS + l]`: bitmask of gateways a
    /// node of class `c` reaches at ring `l`.
    class_reach: Vec<u64>,
    /// Nodes per class.
    class_nodes: Vec<u32>,
    /// `class_cell[c * DISTANCE_RINGS + l]`: first cell of the reach
    /// mask class `c` has at ring `l` — the mask's interned id shifted
    /// left by `ch_bits`. A node's cell is this ORed with its channel.
    class_cell: Vec<u32>,
    /// Reach mask of each interned id (`cell >> ch_bits`).
    rid_mask: Vec<u64>,
    /// `log2` of the cell stride, the channel count rounded up to a
    /// power of two, so a cell splits into (id, channel) by a shift.
    ch_bits: u32,
    /// Per-node traffic in [`LOAD_SCALE`] fixed-point units.
    traffic_q: Vec<u64>,
    /// Per-gateway decoder budget in the same units.
    dec_q: Vec<u64>,
    n_slots: usize,
}

impl<'p> EvalContext<'p> {
    /// Build the tables — the only allocating step of the engine.
    ///
    /// # Panics
    /// If the problem exceeds [`MAX_ENGINE_GATEWAYS`] gateways or 64
    /// channels (the bitmask word width; the reference evaluator has
    /// the same channel bound).
    pub fn new(p: &'p CpProblem) -> EvalContext<'p> {
        assert!(
            p.n_gateways() <= MAX_ENGINE_GATEWAYS,
            "EvalContext supports at most {MAX_ENGINE_GATEWAYS} gateways"
        );
        assert!(
            p.n_channels() <= 64,
            "EvalContext supports at most 64 grid channels"
        );
        // Intern the reach rows, numbering classes by first occurrence
        // (the map is only ever looked up, so ids are deterministic).
        let mut ids: HashMap<[u64; DISTANCE_RINGS], u32> = HashMap::new();
        let mut class = Vec::with_capacity(p.n_nodes());
        let mut class_reach = Vec::new();
        let mut class_nodes: Vec<u32> = Vec::new();
        for row in &p.reach {
            let mut masks = [0u64; DISTANCE_RINGS];
            for (j, rings) in row.iter().enumerate() {
                for (l, &ok) in rings.iter().enumerate() {
                    masks[l] |= (ok as u64) << j;
                }
            }
            let fresh = class_nodes.len() as u32;
            let c = *ids.entry(masks).or_insert(fresh);
            if c == fresh {
                class_reach.extend_from_slice(&masks);
                class_nodes.push(0);
            }
            class_nodes[c as usize] += 1;
            class.push(c);
        }
        // Intern the per-ring masks the same way: classes share masks
        // (every class unheard at ring 0 has the empty one).
        let ch_bits = p.n_channels().next_power_of_two().trailing_zeros();
        let mut rids: HashMap<u64, u32> = HashMap::new();
        let mut rid_mask = Vec::new();
        let class_cell = class_reach
            .iter()
            .map(|&mask| {
                let rid = *rids.entry(mask).or_insert_with(|| {
                    rid_mask.push(mask);
                    rid_mask.len() as u32 - 1
                });
                u32::try_from((rid as usize) << ch_bits).expect("cell ids fit u32")
            })
            .collect();
        EvalContext {
            p,
            class,
            class_reach,
            class_nodes,
            class_cell,
            rid_mask,
            ch_bits,
            traffic_q: p.traffic.iter().map(|&t| quantize(t)).collect(),
            dec_q: p
                .gw_limits
                .iter()
                .map(|l| (l.decoders as u64) << LOAD_SCALE_BITS)
                .collect(),
            n_slots: p.n_channels() * DISTANCE_RINGS,
        }
    }

    /// The problem these tables were built from.
    pub fn problem(&self) -> &'p CpProblem {
        self.p
    }

    /// Reach bitmask of node `i` at ring `l` (bit `j` ⇔ gateway `j`
    /// hears the node at that ring).
    #[inline]
    pub fn reach_mask(&self, i: usize, l: usize) -> u64 {
        self.class_reach_mask(self.class[i] as usize, l)
    }

    /// Reach class of node `i` (see [`EvalContext::class_reach_mask`]).
    #[inline]
    pub fn class_of(&self, i: usize) -> usize {
        self.class[i] as usize
    }

    /// Number of distinct reach rows among the nodes.
    pub fn n_classes(&self) -> usize {
        self.class_nodes.len()
    }

    /// Nodes sharing reach class `c`.
    #[inline]
    pub fn class_nodes(&self, c: usize) -> usize {
        self.class_nodes[c] as usize
    }

    /// Reach bitmask of every node of class `c` at ring `l`.
    #[inline]
    pub fn class_reach_mask(&self, c: usize, l: usize) -> u64 {
        self.class_reach[c * DISTANCE_RINGS + l]
    }

    /// Allocate a scratch buffer set sized for this problem. Done once
    /// per worker; every subsequent [`EvalContext::score`] through it
    /// is allocation-free.
    pub fn scratch(&self) -> Scratch {
        let n_cells = self.rid_mask.len() << self.ch_bits;
        Scratch {
            listeners: vec![0; self.p.n_channels()],
            k_q: vec![0; self.p.n_gateways()],
            phi_q: vec![0; self.p.n_gateways()],
            slot_count: vec![0; self.n_slots],
            cells: vec![Cell::default(); n_cells],
            touched: vec![0; n_cells.min(self.p.n_nodes()) + 1],
        }
    }

    /// Full score of `g` — same value the incremental evaluator
    /// maintains, computed from scratch. Zero heap allocations.
    ///
    /// One pass over the nodes folds each into its (reach mask,
    /// channel) cell; every later step runs per occupied cell. Sums of
    /// fixed-point loads are exact, so regrouping Σᵢ tᵢ·φ(serveᵢ) by
    /// cell yields the per-node sum's integers bit for bit.
    pub fn score(&self, g: &Genome, s: &mut Scratch) -> f64 {
        debug_assert_eq!(g.gene.len(), self.p.n_nodes());
        debug_assert_eq!(g.gw_mask.len(), self.p.n_gateways());
        // Per-channel listener masks from the gateway masks.
        s.listeners.fill(0);
        for (j, &mask) in g.gw_mask.iter().enumerate() {
            for ch in BitIter(mask) {
                s.listeners[ch as usize] |= 1 << j;
            }
        }
        // Fold every node into its cell, and its slot into the
        // duplicate count. A cell's first node pushes it onto
        // `touched`: the write always happens and only the length
        // moves, so no branch depends on the data.
        s.slot_count.fill(0);
        let mut used = 0usize;
        for ((&gene, &c), &t) in g.gene.iter().zip(&self.class).zip(&self.traffic_q) {
            let ring_cell = self.class_cell[c as usize * DISTANCE_RINGS + gene_ring(gene)];
            let cell = ring_cell as usize | gene_channel(gene);
            let acc = &mut s.cells[cell];
            s.touched[used] = cell as u32;
            used += (acc.nodes == 0) as usize;
            acc.load += t;
            acc.nodes += 1;
            s.slot_count[gene as usize] += 1;
        }
        let touched = &s.touched[..used];
        let ch_mask = (1usize << self.ch_bits) - 1;
        let serve = |cell: usize| self.rid_mask[cell >> self.ch_bits] & s.listeners[cell & ch_mask];
        // k_j loads, one serve mask per occupied cell.
        s.k_q.fill(0);
        for &cell in touched {
            let load = s.cells[cell as usize].load;
            for j in BitIter(serve(cell as usize)) {
                s.k_q[j as usize] += load;
            }
        }
        // φ_j: decoder-overflow risk per gateway.
        for j in 0..self.p.n_gateways() {
            s.phi_q[j] = s.k_q[j].saturating_sub(self.dec_q[j]);
        }
        // Φ: best-gateway risk, traffic-weighted, per cell; emptying
        // each cell leaves the table zeroed for the next call.
        let mut main_q: u128 = 0;
        let mut disconnected: u64 = 0;
        for &cell in touched {
            let mask = serve(cell as usize);
            let Cell { load, nodes } = std::mem::take(&mut s.cells[cell as usize]);
            if mask == 0 {
                disconnected += nodes as u64;
            } else {
                main_q += load as u128 * min_phi(&s.phi_q, mask) as u128;
            }
        }
        let dup_units: u64 = s
            .slot_count
            .iter()
            .map(|&c| (c as u64).saturating_sub(1))
            .sum();
        combine(self.p, main_q, disconnected, dup_units)
    }
}

/// Smallest φ among the gateways of `serve` (`u64::MAX` when empty).
#[inline]
fn min_phi(phi_q: &[u64], serve: u64) -> u64 {
    let mut best = u64::MAX;
    for j in BitIter(serve) {
        best = best.min(phi_q[j as usize]);
    }
    best
}

/// One (reach mask, channel) cell: the nodes folded into it by the
/// current [`EvalContext::score`] call.
#[derive(Clone, Copy, Default)]
struct Cell {
    /// Σ quantized traffic of the cell's nodes.
    load: u64,
    nodes: u32,
}

/// Reusable per-worker scoring buffers (see [`EvalContext::scratch`]).
pub struct Scratch {
    /// Per-channel gateway-listener bitmask.
    listeners: Vec<u64>,
    /// Per-gateway quantized load `k_j`.
    k_q: Vec<u64>,
    /// Per-gateway quantized overflow risk `φ_j`.
    phi_q: Vec<u64>,
    /// Per-(channel, ring) slot population.
    slot_count: Vec<u32>,
    /// Every (reach mask, channel) cell; all zero between calls.
    cells: Vec<Cell>,
    /// Occupied cells in first-touch order, plus one slot the
    /// branch-free push writes past the last of them.
    touched: Vec<u32>,
}

/// Run `job(k, &mut items[k], worker)` for every item, on up to one
/// thread per worker state (the calling thread is one of them). Items
/// are handed out one at a time from a shared cursor, so an expensive
/// item never strands the rest of a pre-cut chunk behind it. Each item
/// is written by exactly one worker and `job` may read only shared
/// immutable state, so the outcome is independent of which worker ran
/// which item — byte-identical for every worker count.
pub(crate) fn fan_out<T: Send, W: Send>(
    items: &mut [T],
    workers: &mut [W],
    job: impl Fn(usize, &mut T, &mut W) + Sync,
) {
    let threads = workers.len().min(items.len());
    let cursor = Mutex::new(items.iter_mut().enumerate());
    let run = |w: &mut W| loop {
        // Take the lock only to draw the next item, not across `job`.
        let next = cursor
            .lock()
            .expect("no worker can panic while drawing an item")
            .next();
        match next {
            Some((k, item)) => job(k, item, w),
            None => break,
        }
    };
    let (own, spawned) = workers.split_first_mut().expect("at least one worker");
    if threads <= 1 {
        return run(own); // no scope: a serial step stays allocation-free
    }
    std::thread::scope(|scope| {
        for w in &mut spawned[..threads - 1] {
            scope.spawn(|| run(w));
        }
        run(own);
    });
}

/// Delta-scored evaluator: owns a [`Genome`] plus the derived state
/// needed to keep the objective current under single-gene mutations.
///
/// The score is maintained as the integer triple `(main_q,
/// disconnected, dup_units)` — exactly the components
/// [`EvalContext::score`] computes — so [`IncrementalEval::score`] is
/// O(1) and bit-identical to a full recompute at every point of any
/// mutation chain. Moves return the previous gene/mask, and replaying
/// it is an exact inverse (integer arithmetic), which is how the
/// annealer rejects candidates.
pub struct IncrementalEval<'c, 'p> {
    ctx: &'c EvalContext<'p>,
    g: Genome,
    listeners: Vec<u64>,
    k_q: Vec<u64>,
    phi_q: Vec<u64>,
    serve: Vec<u64>,
    /// Cached `Φ_i` (valid only while `serve[i] != 0`).
    risk_q: Vec<u64>,
    slot_count: Vec<u32>,
    /// Σ traffic_q[i] · risk_q[i] over connected nodes.
    main_q: u128,
    disconnected: u64,
    dup_units: u64,
    /// Per-node "membership removed, pending re-add" flags used by
    /// gateway moves (preallocated; no per-move heap use).
    pending: Vec<bool>,
}

impl<'c, 'p> IncrementalEval<'c, 'p> {
    /// Build the evaluator state for `g` with one full pass.
    pub fn new(ctx: &'c EvalContext<'p>, g: Genome) -> IncrementalEval<'c, 'p> {
        let p = ctx.p;
        let mut s = IncrementalEval {
            ctx,
            g,
            listeners: vec![0; p.n_channels()],
            k_q: vec![0; p.n_gateways()],
            phi_q: vec![0; p.n_gateways()],
            serve: vec![0; p.n_nodes()],
            risk_q: vec![0; p.n_nodes()],
            slot_count: vec![0; ctx.n_slots],
            main_q: 0,
            disconnected: 0,
            dup_units: 0,
            pending: vec![false; p.n_nodes()],
        };
        s.rebuild();
        s
    }

    /// Recompute every derived table from the genome.
    fn rebuild(&mut self) {
        let ctx = self.ctx;
        self.listeners.fill(0);
        for (j, &mask) in self.g.gw_mask.iter().enumerate() {
            for ch in BitIter(mask) {
                self.listeners[ch as usize] |= 1 << j;
            }
        }
        self.k_q.fill(0);
        self.slot_count.fill(0);
        for (i, &gene) in self.g.gene.iter().enumerate() {
            let serve = ctx.reach_mask(i, gene_ring(gene)) & self.listeners[gene_channel(gene)];
            self.serve[i] = serve;
            let t = ctx.traffic_q[i];
            for j in BitIter(serve) {
                self.k_q[j as usize] += t;
            }
            self.slot_count[gene as usize] += 1;
        }
        for j in 0..self.k_q.len() {
            self.phi_q[j] = self.k_q[j].saturating_sub(ctx.dec_q[j]);
        }
        self.main_q = 0;
        self.disconnected = 0;
        for i in 0..self.serve.len() {
            if self.serve[i] == 0 {
                self.disconnected += 1;
            } else {
                let r = min_phi(&self.phi_q, self.serve[i]);
                self.risk_q[i] = r;
                self.main_q += ctx.traffic_q[i] as u128 * r as u128;
            }
        }
        self.dup_units = self
            .slot_count
            .iter()
            .map(|&c| (c as u64).saturating_sub(1))
            .sum();
    }

    /// Current objective — O(1), identical to
    /// [`EvalContext::score`] of the current genome.
    pub fn score(&self) -> f64 {
        combine(self.ctx.p, self.main_q, self.disconnected, self.dup_units)
    }

    /// The evaluated genome.
    pub fn genome(&self) -> &Genome {
        &self.g
    }

    /// Current gene of node `i`.
    pub fn node_gene(&self, i: usize) -> u16 {
        self.g.gene[i]
    }

    /// Current channel mask of gateway `j`.
    pub fn gw_mask(&self, j: usize) -> u64 {
        self.g.gw_mask[j]
    }

    /// Remove node `i`'s contributions (risk sum, loads, slot count).
    fn detach_node(&mut self, i: usize) -> u64 {
        let t = self.ctx.traffic_q[i];
        let serve = self.serve[i];
        if serve == 0 {
            self.disconnected -= 1;
        } else {
            self.main_q -= t as u128 * self.risk_q[i] as u128;
        }
        for j in BitIter(serve) {
            self.k_q[j as usize] -= t;
        }
        let slot = self.g.gene[i] as usize;
        self.slot_count[slot] -= 1;
        if self.slot_count[slot] >= 1 {
            self.dup_units -= 1;
        }
        serve
    }

    /// Re-add node `i` under its (already written) new gene.
    fn attach_node(&mut self, i: usize) -> u64 {
        let gene = self.g.gene[i];
        let t = self.ctx.traffic_q[i];
        let serve = self.ctx.reach_mask(i, gene_ring(gene)) & self.listeners[gene_channel(gene)];
        self.serve[i] = serve;
        for j in BitIter(serve) {
            self.k_q[j as usize] += t;
        }
        let slot = gene as usize;
        self.slot_count[slot] += 1;
        if self.slot_count[slot] >= 2 {
            self.dup_units += 1;
        }
        serve
    }

    /// Refresh `phi_q` for `touched` gateways; returns the mask of
    /// gateways whose risk actually changed.
    fn refresh_phi(&mut self, touched: u64) -> u64 {
        let mut changed = 0u64;
        for j in BitIter(touched) {
            let j = j as usize;
            let phi = self.k_q[j].saturating_sub(self.ctx.dec_q[j]);
            if phi != self.phi_q[j] {
                self.phi_q[j] = phi;
                changed |= 1 << j;
            }
        }
        changed
    }

    /// Recompute cached risks for every connected node whose serving
    /// set intersects `changed`, skipping `skip` (the node being
    /// moved, whose contribution is re-added separately).
    fn propagate_phi(&mut self, changed: u64, skip: usize) {
        if changed == 0 {
            return;
        }
        for i in 0..self.serve.len() {
            let serve = self.serve[i];
            if i == skip || serve & changed == 0 || serve == 0 {
                continue;
            }
            let t = self.ctx.traffic_q[i] as u128;
            let r = min_phi(&self.phi_q, serve);
            self.main_q -= t * self.risk_q[i] as u128;
            self.main_q += t * r as u128;
            self.risk_q[i] = r;
        }
    }

    /// Reassign node `i` to `gene`, updating only affected state.
    /// Returns the previous gene (replay it to undo the move exactly).
    pub fn set_node_gene(&mut self, i: usize, gene: u16) -> u16 {
        let old = self.g.gene[i];
        if old == gene {
            return old;
        }
        let mut touched = self.detach_node(i);
        self.g.gene[i] = gene;
        touched |= self.attach_node(i);
        let changed = self.refresh_phi(touched);
        self.propagate_phi(changed, i);
        // Re-admit the moved node's own contribution with fresh phi.
        let serve = self.serve[i];
        if serve == 0 {
            self.disconnected += 1;
        } else {
            let r = min_phi(&self.phi_q, serve);
            self.risk_q[i] = r;
            self.main_q += self.ctx.traffic_q[i] as u128 * r as u128;
        }
        old
    }

    /// Swap the genes of nodes `a` and `b` (the annealer's exchange
    /// move).
    pub fn swap_nodes(&mut self, a: usize, b: usize) {
        if a == b || self.g.gene[a] == self.g.gene[b] {
            return;
        }
        let ga = self.g.gene[a];
        let gb = self.g.gene[b];
        self.set_node_gene(a, gb);
        self.set_node_gene(b, ga);
    }

    /// Re-mask gateway `j`, recomputing its `k_j` column and every
    /// affected node's serve/risk in one pass. Returns the previous
    /// mask (replay it to undo the move exactly).
    pub fn set_gw_mask(&mut self, j: usize, mask: u64) -> u64 {
        let old = self.g.gw_mask[j];
        let diff = old ^ mask;
        if diff == 0 {
            return old;
        }
        let bit = 1u64 << j;
        for ch in BitIter(diff) {
            self.listeners[ch as usize] ^= bit;
        }
        self.g.gw_mask[j] = mask;
        // Pass 1: toggle serve membership, rebuild k_j.
        let mut k_new: u64 = 0;
        for i in 0..self.serve.len() {
            let gene = self.g.gene[i];
            let ch = gene_channel(gene);
            let reaches = self.ctx.reach_mask(i, gene_ring(gene)) & bit != 0;
            if reaches && (diff >> ch) & 1 == 1 {
                // Node i's serve bit j flips: pull its contribution
                // out now, re-add after phi settles.
                let t = self.ctx.traffic_q[i];
                let serve = self.serve[i];
                if serve == 0 {
                    self.disconnected -= 1;
                } else {
                    self.main_q -= t as u128 * self.risk_q[i] as u128;
                }
                self.serve[i] = serve ^ bit;
                self.pending[i] = true;
            }
            if reaches && (mask >> ch) & 1 == 1 {
                k_new += self.ctx.traffic_q[i];
            }
        }
        self.k_q[j] = k_new;
        let changed = self.refresh_phi(bit);
        // Pass 2: re-admit flipped nodes, refresh others serving j.
        for i in 0..self.serve.len() {
            let serve = self.serve[i];
            if self.pending[i] {
                self.pending[i] = false;
                if serve == 0 {
                    self.disconnected += 1;
                } else {
                    let r = min_phi(&self.phi_q, serve);
                    self.risk_q[i] = r;
                    self.main_q += self.ctx.traffic_q[i] as u128 * r as u128;
                }
            } else if serve & changed != 0 {
                let t = self.ctx.traffic_q[i] as u128;
                let r = min_phi(&self.phi_q, serve);
                self.main_q -= t * self.risk_q[i] as u128;
                self.main_q += t * r as u128;
                self.risk_q[i] = r;
            }
        }
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::GatewayLimits;
    use lora_phy::channel::ChannelGrid;

    fn problem(nodes: usize, gws: usize, traffic: Vec<f64>) -> CpProblem {
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let reach = vec![vec![[true; DISTANCE_RINGS]; gws]; nodes];
        CpProblem::new(channels, reach, traffic, vec![GatewayLimits::sx1302(); gws])
    }

    #[test]
    fn engine_matches_reference_on_integer_traffic() {
        let p = problem(
            12,
            3,
            vec![1.0, 2.0, 3.0, 1.0, 1.0, 2.0, 1.0, 4.0, 1.0, 1.0, 2.0, 1.0],
        );
        let ctx = EvalContext::new(&p);
        let mut s = ctx.scratch();
        let sols = [
            CpSolution {
                gw_channels: vec![vec![0, 1], vec![2, 3], vec![4, 5]],
                node_channel: vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5],
                node_ring: vec![5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4],
            },
            CpSolution {
                gw_channels: vec![vec![0], vec![0], vec![0]],
                node_channel: vec![0; 12],
                node_ring: vec![5; 12],
            },
            CpSolution {
                // Channel 7 unserved: disconnections.
                gw_channels: vec![vec![0, 1], vec![2], vec![3]],
                node_channel: vec![7, 0, 1, 2, 3, 7, 0, 1, 2, 3, 0, 1],
                node_ring: vec![5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0],
            },
        ];
        for sol in &sols {
            let g = Genome::from_solution(sol);
            assert_eq!(ctx.score(&g, &mut s).to_bits(), p.objective(sol).to_bits());
        }
    }

    #[test]
    fn engine_close_to_reference_on_fractional_traffic() {
        let traffic: Vec<f64> = (0..10).map(|i| 0.1 + 0.37 * i as f64).collect();
        let p = problem(10, 2, traffic);
        let ctx = EvalContext::new(&p);
        let mut s = ctx.scratch();
        let sol = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1],
            node_ring: vec![5, 5, 5, 5, 4, 4, 4, 4, 3, 3],
        };
        let g = Genome::from_solution(&sol);
        let engine = ctx.score(&g, &mut s);
        let oracle = p.objective(&sol);
        let tol = 1e-5 * (1.0 + oracle.abs());
        assert!((engine - oracle).abs() < tol, "{engine} vs {oracle}");
    }

    #[test]
    fn genome_round_trips() {
        let sol = CpSolution {
            gw_channels: vec![vec![0, 3, 5], vec![2]],
            node_channel: vec![0, 3, 5, 2],
            node_ring: vec![0, 2, 5, 1],
        };
        assert_eq!(Genome::from_solution(&sol).to_solution(), sol);
    }

    #[test]
    fn nodes_with_one_reach_row_share_a_class() {
        // Gateway 0 hears rows `a` from ring 2 out, gateway 1 hears `b`
        // everywhere; classes number by first occurrence.
        let a = [
            [false, false, true, true, true, true],
            [false; DISTANCE_RINGS],
        ];
        let b = [[false; DISTANCE_RINGS], [true; DISTANCE_RINGS]];
        let both = [a[0], b[1]];
        let mut p = problem(5, 2, vec![1.0; 5]);
        p.reach = [a, b, a, both, a].iter().map(|r| r.to_vec()).collect();
        let ctx = EvalContext::new(&p);
        let classes: Vec<usize> = (0..5).map(|i| ctx.class_of(i)).collect();
        assert_eq!(classes, [0, 1, 0, 2, 0]);
        assert_eq!(ctx.n_classes(), 3);
        let sizes: Vec<usize> = (0..3).map(|c| ctx.class_nodes(c)).collect();
        assert_eq!(sizes, [3, 1, 1]);
        let masks = |c| -> Vec<u64> {
            (0..DISTANCE_RINGS)
                .map(|l| ctx.class_reach_mask(c, l))
                .collect()
        };
        assert_eq!(masks(0), [0, 0, 0b01, 0b01, 0b01, 0b01]);
        assert_eq!(masks(1), [0b10; DISTANCE_RINGS]);
        assert_eq!(masks(2), [0b10, 0b10, 0b11, 0b11, 0b11, 0b11]);
        for i in 0..5 {
            assert_eq!(ctx.reach_mask(i, 3), masks(ctx.class_of(i))[3]);
        }
    }

    #[test]
    fn a_genome_copy_reuses_the_target_in_place() {
        let g = |chs: Vec<Vec<usize>>, ch: Vec<usize>, ring: Vec<usize>| {
            Genome::from_solution(&CpSolution {
                gw_channels: chs,
                node_channel: ch,
                node_ring: ring,
            })
        };
        let src = g(vec![vec![1, 4], vec![0]], vec![1, 4, 0], vec![5, 0, 2]);
        let mut dst = g(vec![vec![2], vec![7]], vec![2, 2, 7], vec![1, 1, 1]);
        dst.copy_from(&src);
        assert_eq!(dst.to_solution(), src.to_solution());
    }

    #[test]
    fn incremental_tracks_node_and_gateway_moves() {
        let p = problem(8, 2, vec![1.0; 8]);
        let ctx = EvalContext::new(&p);
        let mut s = ctx.scratch();
        let sol = CpSolution {
            gw_channels: vec![vec![0, 1], vec![2, 3]],
            node_channel: vec![0, 1, 2, 3, 0, 1, 2, 3],
            node_ring: vec![5, 5, 5, 5, 4, 4, 4, 4],
        };
        let mut inc = IncrementalEval::new(&ctx, Genome::from_solution(&sol));
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );

        let old = inc.set_node_gene(3, pack_gene(0, 5)); // duplicate slot + load shift
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );
        inc.set_node_gene(3, old); // exact undo
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );

        let old_mask = inc.set_gw_mask(1, 0b0001); // drop channels 2..3: disconnects
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );
        inc.set_gw_mask(1, old_mask);
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );

        inc.swap_nodes(0, 7);
        assert_eq!(
            inc.score().to_bits(),
            ctx.score(inc.genome(), &mut s).to_bits()
        );
    }
}
