//! Per-shard interference state: what a PHY verdict has to know about
//! every transmission that overlapped the victim, kept incrementally so
//! a verdict never rescans the on-air population.
//!
//! # What a verdict needs
//!
//! The quantity that decides a PHY verdict at a gateway is a small
//! per-gateway aggregate over every transmission whose airtime
//! overlapped the victim's:
//!
//! * the **leaked interference sum** (partial-overlap channels below
//!   the detection threshold) entering the SINR denominator,
//! * the **strongest same-SF collider** (capture arbitration — the
//!   victim survives iff `rssi_v − rssi_o ≥ 6 dB` against *every*
//!   collider, i.e. against the strongest), and
//! * the **strongest cross-SF interferer** (quasi-orthogonality — the
//!   victim is killed iff `rssi_v − rssi_o < −25 dB` for *any*
//!   interferer, i.e. for the strongest).
//!
//! # Leak: the exact-undo S/E sums
//!
//! A verdict must count every transmission that *ever* overlapped the
//! victim — including ones that ended mid-flight — so contributions
//! cannot simply be removed at the interferer's TxEnd. Instead two
//! monotone sums are kept per (victim channel, interferer SF, gateway):
//! `S`, everything that ever **started**, and `E`, everything that has
//! **ended**. A victim snapshots `E` at its own TxStart and reads `S`
//! at its TxEnd; by event order, `S_end − E_start` is *exactly* the sum
//! over the overlap set (started-before-my-end minus
//! ended-before-my-start). Both sums are **fixed-point integers**
//! (linear power × 2⁹⁶, wrapping), so addition is associative, the
//! difference is order-independent, and an interferer's exit undoes its
//! entry bit for bit. A node is never arbitrated against itself: the
//! reciprocal contributions of its own overlapping transmissions are
//! recorded per victim and subtracted back out, again exactly. In a
//! channel universe without a `Leak` pair none of this runs.
//!
//! # Colliders: one list per victim channel, two representations
//!
//! Every transmission is appended, at its TxStart, to the **flat list**
//! of each victim channel it can collide with (`Detect` class) — one
//! push, in TxStart order. While that list is short a verdict walks it
//! with the reference loop's own capture / cross-SF body, so the flat
//! answer is the reference answer by construction, tie-breaks included.
//! The walk is O(list × seen gateways); past a few dozen entries a
//! **sorted index** per (SF, candidate gateway) — strongest first,
//! earliest start on ties — answers each of the two max questions with
//! a short prefix walk instead, at the price of one sorted insert per
//! candidate gateway per TxStart (about the cost of walking a
//! 40–60-entry list, whatever the index length). The channel itself
//! picks: the index is built from the flat list when a compacted list
//! reaches [`BUILD_AT`] entries and dropped when it shrinks to
//! [`DROP_AT`]; the flat list is maintained either way, so switching
//! back needs no rebuild. Capture is symmetric (`rssi_v − rssi_o ≥
//! threshold` whichever locked on first), so the surviving test is
//! monotone in the collider's RSSI and testing the strongest is
//! bit-equivalent to testing all.
//! RSSIs come from the shard's link table, one row per live slot.
//!
//! # Slot lifecycle
//!
//! Entries are never removed at TxEnd (an older on-air victim may still
//! need them). Each channel's **horizon** is the oldest TxStart still
//! on air on it; an entry is dead on a victim channel once its
//! transmission ended before that horizon — no current or future victim
//! there can have overlapped it — and dead entries are compacted out by
//! whichever walk meets them. A slot is handed back for recycling once
//! it is dead on every channel it was listed on; a recycled slot is
//! told from its former tenant by the TxStart event sequence the entry
//! carries.
//!
//! # Determinism
//!
//! Both representations return the same `(RSSI, network)` maxima, and
//! the fixed-point sum is summation-order independent; the reference
//! folds its leak through the same [`leak_fx`], so engine and
//! reference runs are record-identical at any shard count and any
//! on-air density. See
//! `docs/SCALING.md` for the cost model and `docs/ARCHITECTURE.md` for
//! the determinism contract.

use crate::runctx::{PairClass, RunContext};
use crate::shard::Seen;
use lora_phy::interference::{capture_outcome, CaptureOutcome, CROSS_SF_REJECTION_DB};
use lora_phy::snr::decodable;
use lora_phy::types::SpreadingFactor;
use std::collections::{HashMap, VecDeque};

/// Scale of the fixed-point linear-power representation, 2⁹⁶. Linear
/// powers span roughly 1e-18 (a −140 dBm leak under a −40 dB gain) to
/// 1e2 mW; scaled by 2⁹⁶ the largest single contribution is ~2¹⁰³,
/// leaving 24 bits of headroom for the wrapping sums while the
/// smallest keeps ~40 significant bits — far below the thermal noise
/// floor the sum is added to.
const FIXED_SCALE: f64 = (1u128 << 96) as f64;

/// One leaked contribution in fixed point: an interferer received at
/// `rssi_dbm`, attenuated by the channel pair's `gain_db`. Multiplying
/// by a power of two is exact in f64 and the truncation to integer is
/// deterministic, so equal inputs convert identically everywhere.
#[inline]
pub(crate) fn leak_fx(rssi_dbm: f64, gain_db: f64) -> u128 {
    (10f64.powf((rssi_dbm + gain_db) / 10.0) * FIXED_SCALE) as u128
}

/// Convert a (wrapping-difference) fixed-point sum back to linear f64.
#[inline]
pub(crate) fn from_fixed(fx: u128) -> f64 {
    fx as f64 / FIXED_SCALE
}

/// Spreading-factor slots per channel (SF7..SF12).
const N_SF: usize = 6;

/// A channel builds its sorted index when its compacted flat list
/// reaches this many entries (the measured cost crossover is 40–60).
const BUILD_AT: usize = 64;

/// … and drops it when the compacted list is this short again. The gap
/// keeps a channel hovering at the crossover from rebuilding.
const DROP_AT: usize = 32;

/// Hot-path counters, surfaced through
/// [`crate::shard::ShardRunStats`] and the obs registry.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AccumStats {
    /// Contributions added at TxStart (list pushes, index inserts,
    /// leak folds).
    pub updates: u64,
    /// Leak contributions undone at TxEnd (folds into the ended sums).
    pub undos: u64,
    /// Dead list and index entries compacted out.
    pub evictions: u64,
    /// Sorted indexes built (flat → sorted transitions).
    pub index_builds: u64,
}

/// A transmission as the interference state sees it: identity plus
/// everything a verdict reads of an interferer. This is also the flat
/// list's entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxKey {
    /// Slot id in the shard machine, and its row of the link table.
    pub slot: u32,
    /// Sending node.
    pub node: u32,
    /// Sender's network (collision attribution).
    pub network: u32,
    /// Shard-local event sequence of its TxStart: start order, the
    /// equal-RSSI tie-break, and the slot tenant's identity.
    pub start_evseq: u64,
    /// Spreading-factor index (SF7 = 0 … SF12 = 5).
    pub sf: u8,
}

// Three keys to a cache line: the flat walk reads nothing else.
const _: () = assert!(std::mem::size_of::<TxKey>() == 24);

/// PHY verdict for one (transmission, gateway) pair, independent of
/// decoder availability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    Ok,
    /// Lost to a same-channel same-SF collision with this network's node.
    Collision {
        with_network: u32,
    },
    /// Lost to interference / insufficient SINR.
    Interference,
}

/// What the interference state found against the victim at one seen
/// gateway.
#[derive(Debug, Clone, Copy, Default)]
struct Found {
    /// Accumulated leaked interference, fixed-point linear power: an
    /// integer sum, so the order interferers are folded in cannot
    /// change it.
    intf_fx: u128,
    /// Strongest same-settings collider so far (RSSI, network id).
    strongest: Option<(f64, u32)>,
    /// Cross-SF interference kill flag.
    kill: bool,
}

/// Reusable buffers for the batched per-TxEnd verdict computation
/// (`ShardMachine::batch_verdicts` in [`crate::shard`]): one entry per
/// seen gateway, aligned with the transmission's admission list.
#[derive(Debug, Default)]
pub(crate) struct VerdictScratch {
    found: Vec<Found>,
    /// Final verdicts, indexed like the seen slice.
    pub(crate) verdicts: Vec<Verdict>,
}

impl VerdictScratch {
    /// Begin a batch over `k` gateways, keeping the buffers' capacity.
    pub(crate) fn prepare(&mut self, k: usize) {
        self.found.clear();
        self.found.resize(k, Found::default());
        self.verdicts.clear();
    }

    /// Add leaked interference (fixed-point linear power) at slot `i`.
    #[inline]
    pub(crate) fn add_intf(&mut self, i: usize, fx: u128) {
        self.found[i].intf_fx = self.found[i].intf_fx.wrapping_add(fx);
    }

    /// Mark slot `i` killed by cross-SF interference.
    #[inline]
    pub(crate) fn set_kill(&mut self, i: usize) {
        self.found[i].kill = true;
    }

    /// Offer a same-SF collider at slot `i`; keeps the strongest seen
    /// (first registered wins ties, matching the reference loop).
    #[inline]
    pub(crate) fn note_collider(&mut self, i: usize, rssi: f64, network: u32) {
        match self.found[i].strongest {
            Some((r, _)) if r >= rssi => {}
            _ => self.found[i].strongest = Some((rssi, network)),
        }
    }

    /// Arbitrate the victim against one detect-class interferer at
    /// every seen gateway. `rssi_v` / `rssi_o` give the two RSSIs at a
    /// gateway id of `seen`.
    #[inline]
    pub(crate) fn arbitrate(
        &mut self,
        seen: &[(u32, Seen)],
        rssi_v: impl Fn(u32) -> f64,
        rssi_o: impl Fn(u32) -> f64,
        same_sf: bool,
        network_o: u32,
    ) {
        for (gi, &(g, _)) in seen.iter().enumerate() {
            let (rssi_v, rssi_o) = (rssi_v(g), rssi_o(g));
            if same_sf {
                // Same settings: the capture effect decides, and it
                // does not care which packet locked on first.
                if capture_outcome(rssi_v, rssi_o) != CaptureOutcome::FirstSurvives {
                    self.note_collider(gi, rssi_o, network_o);
                }
            } else if rssi_v - rssi_o < CROSS_SF_REJECTION_DB {
                // Cross-SF quasi-orthogonality.
                self.set_kill(gi);
            }
        }
    }

    /// Read slot `i`: `(leaked power, strongest collider, kill)`.
    #[inline]
    pub(crate) fn state(&self, i: usize) -> (u128, Option<(f64, u32)>, bool) {
        let f = self.found[i];
        (f.intf_fx, f.strongest, f.kill)
    }

    /// Close the batch: one verdict per gateway slot `0..k` from what
    /// was collected, into [`Self::verdicts`]. `rssi_v(i)` is the
    /// victim's RSSI at slot `i`'s gateway, dBm.
    pub(crate) fn resolve(
        &mut self,
        k: usize,
        ctx: &RunContext,
        sf_v: SpreadingFactor,
        rssi_v: impl Fn(usize) -> f64,
    ) {
        for i in 0..k {
            let (intf_fx, strongest, kill) = self.state(i);
            self.verdicts.push(if let Some((_, net)) = strongest {
                Verdict::Collision { with_network: net }
            } else {
                // SINR over thermal noise plus leaked foreign energy.
                // With no leak the precomputed noise-only term is exact
                // (`x + 0.0` is bitwise `x` for the positive noise
                // power).
                let sinr = if intf_fx == 0 {
                    rssi_v(i) - ctx.noise_only_db
                } else {
                    rssi_v(i) - 10.0 * (ctx.noise_lin + from_fixed(intf_fx)).log10()
                };
                if kill || !decodable(sinr, sf_v, 0.0) {
                    Verdict::Interference
                } else {
                    Verdict::Ok
                }
            });
        }
    }
}

/// Per slot: event sequences of its tenant's TxStart and TxEnd
/// (`u64::MAX` while on air).
#[derive(Debug, Clone, Copy)]
struct Life {
    start: u64,
    end: u64,
}

/// Whether an entry can be dropped from a victim channel with the given
/// horizon: its slot has a new tenant, or its transmission ended before
/// the oldest victim still on air there started.
#[inline]
fn dead(life: &[Life], slot: u32, start_evseq: u64, horizon: u64) -> bool {
    let l = life[slot as usize];
    l.start != start_evseq || l.end < horizon
}

/// One sorted-index entry: an interferer's RSSI at one gateway.
#[derive(Debug, Clone, Copy)]
struct MaxEntry {
    rssi: f64,
    start_evseq: u64,
    network: u32,
    node: u32,
    slot: u32,
}

impl MaxEntry {
    fn new(e: &TxKey, rssi: f64) -> MaxEntry {
        MaxEntry {
            rssi,
            start_evseq: e.start_evseq,
            network: e.network,
            node: e.node,
            slot: e.slot,
        }
    }

    /// Strongest-first index order: higher RSSI first, earliest start
    /// on ties — among equal-RSSI colliders the reference keeps the
    /// first registered (the RSSIs are finite link-table entries, so
    /// `total_cmp` is a plain numeric order).
    #[inline]
    fn before(&self, other: &Self) -> bool {
        match self.rssi.total_cmp(&other.rssi) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.start_evseq < other.start_evseq,
        }
    }
}

/// The first entry of a sorted index list that this victim can see
/// (different node, still on air when the victim started); dead
/// entries met on the way are compacted out in place, entries merely
/// invisible to *this* victim stay put.
fn strongest_visible(
    v: &mut Vec<MaxEntry>,
    life: &[Life],
    horizon: u64,
    victim: &TxKey,
    evictions: &mut u64,
) -> Option<(f64, u32)> {
    let mut found = None;
    let mut w = 0usize;
    let mut r = 0usize;
    while r < v.len() {
        let e = v[r];
        if dead(life, e.slot, e.start_evseq, horizon) {
            r += 1;
            continue;
        }
        if e.node != victim.node && life[e.slot as usize].end > victim.start_evseq {
            found = Some((e.rssi, e.network));
            break;
        }
        v[w] = e;
        w += 1;
        r += 1;
    }
    if w != r {
        // Close the gap left by the dead entries: shift the unread
        // tail (including the found entry, if any) down.
        *evictions += (r - w) as u64;
        v.copy_within(r.., w);
        let n = v.len() - (r - w);
        v.truncate(n);
    }
    found
}

/// Each seen gateway as `(local gateway id, position in the candidate
/// list)`; `seen` is a subsequence of `cand`.
fn positions<'a>(
    seen: &'a [(u32, Seen)],
    cand: &'a [u32],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let mut k = 0usize;
    seen.iter().map(move |&(lg, _)| {
        while cand[k] != lg {
            k += 1;
        }
        (lg as usize, k)
    })
}

/// The shard's RSSI table, dBm: one row per slot, one lane per
/// gateway of the shard's widest channel component. A gateway's lane
/// is its position in its component, and every read of a row is at a
/// gateway of the component the slot's channel belongs to (overlapping
/// channels and the gateways listening to them share one), so rows need
/// no wider. The shard machine writes a slot's row at ingest, for the
/// gateways any read here can touch (see [`crate::shard`]).
#[derive(Default)]
pub(crate) struct LinkRows {
    cells: Vec<f64>,
    /// Per local gateway: its lane.
    lane: Vec<u32>,
    /// Lanes per row.
    width: usize,
}

impl LinkRows {
    /// Lay rows out for local gateways at lanes `lane`. Rows already
    /// held are kept: each tenant rewrites its own.
    fn lay_out(&mut self, lane: impl Iterator<Item = u32>) {
        self.lane.clear();
        self.lane.extend(lane);
        self.width = self.lane.iter().max().map_or(0, |&l| l as usize + 1);
    }

    /// Lanes per row.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Make room for `slot`'s row. Debug builds poison the whole row,
    /// so a read of a lane its tenant never wrote corrupts the run
    /// visibly instead of reading a former tenant's RSSI.
    pub(crate) fn open_row(&mut self, slot: u32) {
        let row = slot as usize * self.width;
        if self.cells.len() < row + self.width {
            self.cells.resize(row + self.width, f64::NAN);
        } else if cfg!(debug_assertions) {
            self.cells[row..row + self.width].fill(f64::NAN);
        }
    }

    /// `slot`'s RSSI at local gateway `lg`.
    #[inline]
    pub(crate) fn at(&self, slot: u32, lg: u32) -> f64 {
        self.cells[slot as usize * self.width + self.lane[lg as usize] as usize]
    }

    /// Write `slot`'s RSSI at local gateway `lg`.
    #[inline]
    pub(crate) fn set(&mut self, slot: u32, lg: u32, rssi: f64) {
        self.cells[slot as usize * self.width + self.lane[lg as usize] as usize] = rssi;
    }
}

/// Per-channel collider state; see the module docs.
#[derive(Default)]
struct Chan {
    /// `Detect`-class transmissions in TxStart order.
    list: Vec<TxKey>,
    /// `[sf * candidates + k]`, strongest first; present while the
    /// list is long.
    sorted: Option<Vec<Vec<MaxEntry>>>,
    /// List length at which the next push compacts and reconsiders the
    /// representation.
    check_at: usize,
    /// This channel's transmissions in TxStart order, `(start evseq,
    /// slot)`; the front is on air.
    live_q: VecDeque<(u64, u32)>,
    /// This channel's ended transmissions in TxEnd order, `(end evseq,
    /// slot)`, not yet dead everywhere.
    pending: VecDeque<(u64, u32)>,
}

impl Chan {
    /// TxStart of the oldest transmission still on air here.
    #[inline]
    fn horizon(&self) -> u64 {
        self.live_q.front().map_or(u64::MAX, |&(start, _)| start)
    }
}

/// Started- or ended-sums of leaked power, fixed point.
#[derive(Default)]
struct LeakSums {
    /// Same-SF leak gain, `[(cv * 6 + sf_o) * n_lg + lg]`.
    same: Vec<u128>,
    /// Cross-SF leak gain, same layout.
    orth: Vec<u128>,
    /// Cross-SF gain totalled over `sf_o`, `[cv * n_lg + lg]`.
    orth_tot: Vec<u128>,
}

impl LeakSums {
    /// Zero sums of `per_sf` entries (`per_sf / 6` totals).
    fn reset(&mut self, per_sf: usize) {
        let n = [per_sf, per_sf, per_sf / N_SF];
        for (v, n) in [&mut self.same, &mut self.orth, &mut self.orth_tot]
            .into_iter()
            .zip(n)
        {
            v.clear();
            v.resize(n, 0);
        }
    }
}

/// Per slot, while its tenant is on air in a leak universe: what an
/// own-node correction needs of it, and the node's next older on-air
/// transmission.
#[derive(Debug, Clone, Copy, Default)]
struct OwnLink {
    ch: u32,
    sf: u8,
    next: Option<u32>,
}

/// Per-victim snapshot of the ended-sums at its TxStart, plus the
/// exact same-node correction accumulated while it was on air. One per
/// candidate gateway of the victim's channel.
#[derive(Debug, Clone, Copy)]
struct LeakSnap {
    e_same: u128,
    e_orth_tot: u128,
    e_orth_sfv: u128,
    own_corr: u128,
}

/// The interference state of one shard. Its buffers outlive a run:
/// [`Self::reset`] empties them for the next one without giving their
/// capacity back.
#[derive(Default)]
pub(crate) struct AccumState {
    /// The shard's RSSI table, one row per slot.
    pub(crate) link: LinkRows,
    n_lg: usize,
    /// CIC receivers resolve same-SF collisions: both packets survive.
    cic: bool,
    chans: Vec<Chan>,
    life: Vec<Life>,
    build_at: usize,
    drop_at: usize,
    /// Whether any channel pair is `Leak`; everything below is untouched
    /// otherwise.
    has_leak: bool,
    started: LeakSums,
    ended: LeakSums,
    /// Per slot: snapshots aligned with its channel's candidate list.
    snaps: Vec<Vec<LeakSnap>>,
    /// Per node with transmissions on air: the slot of its latest one,
    /// whose [`OwnLink`] chains to the older ones.
    node_live: HashMap<u32, u32>,
    /// Per slot: its own-node chain link (valid while on air).
    own: Vec<OwnLink>,
    /// Hot-path counters.
    pub(crate) stats: AccumStats,
}

impl AccumState {
    /// Empty the state for a run of a shard whose local gateways sit
    /// at link-row lanes `lane` (their positions in their channel
    /// components), over `ctx`'s channel universe; `cic` is the world's
    /// collision-resolving receiver switch. Per-slot buffers (`link`,
    /// `life`, `snaps`, `own`) are rewritten for each tenant, so they
    /// are kept as they are.
    pub(crate) fn reset(&mut self, ctx: &RunContext, lane: impl Iterator<Item = u32>, cic: bool) {
        self.reset_with_thresholds(ctx, lane, cic, BUILD_AT, DROP_AT);
    }

    /// [`Self::reset`] with the representation thresholds spelled out
    /// (tests shrink them so small schedules cross both ways).
    fn reset_with_thresholds(
        &mut self,
        ctx: &RunContext,
        lane: impl Iterator<Item = u32>,
        cic: bool,
        build_at: usize,
        drop_at: usize,
    ) {
        let n_ch = ctx.n_channels();
        self.link.lay_out(lane);
        let n_lg = self.link.lane.len();
        self.n_lg = n_lg;
        self.cic = cic;
        self.build_at = build_at;
        self.drop_at = drop_at;
        self.chans.resize_with(n_ch, Chan::default);
        for ch in &mut self.chans {
            ch.list.clear();
            ch.sorted = None;
            ch.check_at = build_at;
            ch.live_q.clear();
            ch.pending.clear();
        }
        self.has_leak = ctx.pair.iter().any(|p| matches!(p, PairClass::Leak { .. }));
        let per_sf = if self.has_leak { n_ch * N_SF * n_lg } else { 0 };
        self.started.reset(per_sf);
        self.ended.reset(per_sf);
        self.node_live.clear();
        self.stats = AccumStats::default();
    }

    #[inline]
    fn idx(&self, cv: usize, sf: usize, lg: usize) -> usize {
        (cv * N_SF + sf) * self.n_lg + lg
    }

    /// TxStart of `key` on channel `co`: list it on every channel it
    /// can collide with, fold its leak into the started-sums, and take
    /// its own ended-sum snapshot. `cand_local` holds the per-channel
    /// candidate gateways.
    pub(crate) fn register(
        &mut self,
        ctx: &RunContext,
        co: usize,
        key: TxKey,
        cand_local: &[Vec<u32>],
    ) {
        let n_ch = ctx.n_channels();
        let si = key.slot as usize;
        if si >= self.life.len() {
            self.life.resize(si + 1, Life { start: 0, end: 0 });
        }
        self.life[si] = Life {
            start: key.start_evseq,
            end: u64::MAX,
        };
        self.chans[co].live_q.push_back((key.start_evseq, key.slot));
        for &cv in &ctx.overlapping[co] {
            let cv = cv as usize;
            match ctx.pair[cv * n_ch + co] {
                PairClass::Disjoint => {}
                PairClass::Detect => self.list(cv, key, &cand_local[cv]),
                class @ PairClass::Leak { .. } => {
                    self.fold_leak(cv, class, &key, &cand_local[cv], true)
                }
            }
        }
        if self.has_leak {
            self.snapshot(ctx, co, key, cand_local);
        }
    }

    /// Append `key` to victim channel `cv`'s list (and index).
    fn list(&mut self, cv: usize, key: TxKey, cand: &[u32]) {
        if self.chans[cv].list.len() >= self.chans[cv].check_at {
            self.adapt(cv, cand);
        }
        let ch = &mut self.chans[cv];
        ch.list.push(key);
        self.stats.updates += 1;
        if let Some(index) = &mut ch.sorted {
            for (k, &lg) in cand.iter().enumerate() {
                let e = MaxEntry::new(&key, self.link.at(key.slot, lg));
                let v = &mut index[key.sf as usize * cand.len() + k];
                let pos = v.partition_point(|x| x.before(&e));
                v.insert(pos, e);
            }
            self.stats.updates += cand.len() as u64;
        }
    }

    /// Compact channel `cv`'s list and pick the representation its
    /// length calls for.
    fn adapt(&mut self, cv: usize, cand: &[u32]) {
        let (life, link) = (&self.life, &self.link);
        let ch = &mut self.chans[cv];
        let horizon = ch.horizon();
        let mut evicted = ch.list.len();
        ch.list
            .retain(|e| !dead(life, e.slot, e.start_evseq, horizon));
        let n = ch.list.len();
        evicted -= n;
        match &mut ch.sorted {
            Some(_) if n <= self.drop_at => ch.sorted = None,
            Some(index) => {
                for v in index {
                    evicted += v.len();
                    v.retain(|e| !dead(life, e.slot, e.start_evseq, horizon));
                    evicted -= v.len();
                }
            }
            None if n >= self.build_at => {
                let mut index = vec![Vec::new(); N_SF * cand.len()];
                for e in &ch.list {
                    for (k, &lg) in cand.iter().enumerate() {
                        index[e.sf as usize * cand.len() + k]
                            .push(MaxEntry::new(e, link.at(e.slot, lg)));
                    }
                }
                // Stable: equal RSSIs stay in list (TxStart) order.
                for v in &mut index {
                    v.sort_by(|a, b| b.rssi.total_cmp(&a.rssi));
                }
                ch.sorted = Some(index);
                self.stats.index_builds += 1;
            }
            None => {}
        }
        // The index is not compacted by queries the way the flat list
        // is, so it is revisited whenever the list has doubled.
        ch.check_at = if ch.sorted.is_some() {
            2 * n
        } else {
            self.build_at
        };
        self.stats.evictions += evicted as u64;
    }

    /// Fold `key`'s leak into victim channel `cv`'s started- or
    /// ended-sums.
    fn fold_leak(&mut self, cv: usize, class: PairClass, key: &TxKey, cand: &[u32], started: bool) {
        let sf_o = key.sf as usize;
        let (gain_same, gain_orth) = (class.leak_gain(false), class.leak_gain(true));
        let mut touched = 0u64;
        for &lg in cand {
            let rssi_o = self.link.at(key.slot, lg);
            let lg = lg as usize;
            let i = self.idx(cv, sf_o, lg);
            let j = cv * self.n_lg + lg;
            let sums = if started {
                &mut self.started
            } else {
                &mut self.ended
            };
            if let Some(g) = gain_same {
                sums.same[i] = sums.same[i].wrapping_add(leak_fx(rssi_o, g));
                touched += 1;
            }
            if let Some(g) = gain_orth {
                let fx = leak_fx(rssi_o, g);
                sums.orth[i] = sums.orth[i].wrapping_add(fx);
                sums.orth_tot[j] = sums.orth_tot[j].wrapping_add(fx);
                touched += 1;
            }
        }
        if started {
            self.stats.updates += touched;
        } else {
            self.stats.undos += touched;
        }
    }

    /// Snapshot the ended-sums for `key` starting on channel `c`, and
    /// record the reciprocal leak between it and its node's other
    /// on-air transmissions, to be subtracted at verdict time
    /// (bit-identical to what the global folds added).
    fn snapshot(&mut self, ctx: &RunContext, c: usize, key: TxKey, cand_local: &[Vec<u32>]) {
        let n_ch = ctx.n_channels();
        let n_lg = self.n_lg;
        let si = key.slot as usize;
        if si >= self.snaps.len() {
            self.snaps.resize_with(si + 1, Vec::new);
            self.own.resize(si + 1, OwnLink::default());
        }
        let sf = key.sf as usize;
        let mut snap = std::mem::take(&mut self.snaps[si]);
        snap.clear();
        snap.extend(cand_local[c].iter().map(|&lg| {
            let lg = lg as usize;
            LeakSnap {
                e_same: self.ended.same[self.idx(c, sf, lg)],
                e_orth_tot: self.ended.orth_tot[c * n_lg + lg],
                e_orth_sfv: self.ended.orth[self.idx(c, sf, lg)],
                own_corr: 0,
            }
        }));
        // The node's other on-air transmissions, latest first (the
        // corrections are wrapping integer sums: order is immaterial).
        let head = self.node_live.insert(key.node, key.slot);
        let mut other = head;
        while let Some(o) = other {
            let OwnLink { ch: co, sf, next } = self.own[o as usize];
            let co = co as usize;
            let cross_sf = sf != key.sf;
            if let Some(g) = ctx.pair[c * n_ch + co].leak_gain(cross_sf) {
                for (sn, &lg) in snap.iter_mut().zip(&cand_local[c]) {
                    sn.own_corr = sn.own_corr.wrapping_add(leak_fx(self.link.at(o, lg), g));
                }
            }
            if let Some(g) = ctx.pair[co * n_ch + c].leak_gain(cross_sf) {
                for (sn, &lg) in self.snaps[o as usize].iter_mut().zip(&cand_local[co]) {
                    sn.own_corr = sn
                        .own_corr
                        .wrapping_add(leak_fx(self.link.at(key.slot, lg), g));
                }
            }
            other = next;
        }
        self.own[si] = OwnLink {
            ch: c as u32,
            sf: key.sf,
            next: head,
        };
        self.snaps[si] = snap;
    }

    /// Everything the verdict of `victim` (on channel `cv`, at its
    /// TxEnd, before [`Self::retire`]) needs, per seen gateway, into
    /// `vs`: the strongest same-SF collider it does not survive, the
    /// cross-SF kill flag and the leaked power. `cand` is `cv`'s
    /// candidate list, of which `seen` is a subsequence.
    pub(crate) fn interference(
        &mut self,
        cv: usize,
        victim: &TxKey,
        seen: &[(u32, Seen)],
        cand: &[u32],
        vs: &mut VerdictScratch,
    ) {
        vs.prepare(seen.len());
        let cic = self.cic;
        let n_lg = self.n_lg;
        let (life, link) = (&self.life, &self.link);
        let ch = &mut self.chans[cv];
        let horizon = ch.horizon();
        let mut evicted = 0u64;

        if let Some(index) = &mut ch.sorted {
            for (gi, (lg, k)) in positions(seen, cand).enumerate() {
                let rssi_v = link.at(victim.slot, lg as u32);
                let mut strongest = |sf: usize| {
                    let v = &mut index[sf * cand.len() + k];
                    strongest_visible(v, life, horizon, victim, &mut evicted)
                };
                let collider = if cic {
                    None
                } else {
                    strongest(victim.sf as usize).filter(|&(rssi_o, _)| {
                        capture_outcome(rssi_v, rssi_o) != CaptureOutcome::FirstSurvives
                    })
                };
                if let Some((rssi_o, net)) = collider {
                    vs.note_collider(gi, rssi_o, net);
                } else if (0..N_SF).any(|sf| {
                    sf != victim.sf as usize
                        && strongest(sf)
                            .is_some_and(|(rssi_o, _)| rssi_v - rssi_o < CROSS_SF_REJECTION_DB)
                }) {
                    vs.set_kill(gi);
                }
            }
        } else {
            // The reference loop's body over the list, compacting as
            // it goes.
            evicted = ch.list.len() as u64;
            ch.list.retain(|e| {
                let l = life[e.slot as usize];
                let visible = l.end > victim.start_evseq;
                if l.start != e.start_evseq || (!visible && l.end < horizon) {
                    return false;
                }
                let same_sf = e.sf == victim.sf;
                if visible && e.node != victim.node && !(same_sf && cic) {
                    vs.arbitrate(
                        seen,
                        |g| link.at(victim.slot, g),
                        |g| link.at(e.slot, g),
                        same_sf,
                        e.network,
                    );
                }
                true
            });
            evicted -= ch.list.len() as u64;
        }
        self.stats.evictions += evicted;

        if self.has_leak {
            // The wrapping S−E differences (same-SF gain at the
            // victim's SF, cross-SF gain at every other SF) minus the
            // own-node correction.
            let sf = victim.sf as usize;
            for (gi, (lg, k)) in positions(seen, cand).enumerate() {
                let sn = &self.snaps[victim.slot as usize][k];
                let i = self.idx(cv, sf, lg);
                let same = self.started.same[i].wrapping_sub(sn.e_same);
                let orth_tot = self.started.orth_tot[cv * n_lg + lg].wrapping_sub(sn.e_orth_tot);
                let orth_sfv = self.started.orth[i].wrapping_sub(sn.e_orth_sfv);
                vs.add_intf(
                    gi,
                    same.wrapping_add(orth_tot)
                        .wrapping_sub(orth_sfv)
                        .wrapping_sub(sn.own_corr),
                );
            }
        }
    }

    /// TxEnd of `key` on channel `co`, after its verdict: its leak
    /// enters the ended-sums, cancelling exactly for every future
    /// victim, and every slot that is now dead on all the channels it
    /// was listed on goes to `on_free`.
    pub(crate) fn retire(
        &mut self,
        ctx: &RunContext,
        co: usize,
        key: &TxKey,
        evseq: u64,
        cand_local: &[Vec<u32>],
        mut on_free: impl FnMut(u32),
    ) {
        let n_ch = ctx.n_channels();
        self.life[key.slot as usize].end = evseq;
        if self.has_leak {
            for &cv in &ctx.overlapping[co] {
                let cv = cv as usize;
                let class = ctx.pair[cv * n_ch + co];
                if matches!(class, PairClass::Leak { .. }) {
                    self.fold_leak(cv, class, key, &cand_local[cv], false);
                }
            }
            self.unlink_own(key);
        }

        // Starts and ends are processed in event order, so both queues
        // are ordered. A transmission behind an on-air front on its own
        // channel cannot have been recycled: it ended after that
        // front's start, the channel's horizon.
        let life = &self.life;
        let ch = &mut self.chans[co];
        while ch
            .live_q
            .front()
            .is_some_and(|&(_, s)| life[s as usize].end != u64::MAX)
        {
            ch.live_q.pop_front();
        }
        ch.pending.push_back((evseq, key.slot));
        // `co`'s horizon may have moved, which matters to every channel
        // whose transmissions are listed on `co`.
        for &src in &ctx.overlapping[co] {
            let src = src as usize;
            if !matches!(ctx.pair[co * n_ch + src], PairClass::Detect) {
                continue;
            }
            let horizon = ctx.overlapping[src]
                .iter()
                .filter(|&&cv| matches!(ctx.pair[cv as usize * n_ch + src], PairClass::Detect))
                .map(|&cv| self.chans[cv as usize].horizon())
                .min()
                .unwrap_or(u64::MAX);
            let pending = &mut self.chans[src].pending;
            while let Some(&(end, slot)) = pending.front() {
                if end >= horizon {
                    break;
                }
                pending.pop_front();
                on_free(slot);
            }
        }
    }

    /// Take `key` off its node's own-node chain.
    fn unlink_own(&mut self, key: &TxKey) {
        let next = self.own[key.slot as usize].next;
        let head = self.node_live.get_mut(&key.node).expect("node on air");
        if *head != key.slot {
            let mut o = *head as usize;
            while self.own[o].next != Some(key.slot) {
                o = self.own[o].next.expect("slot on its node's chain") as usize;
            }
            self.own[o].next = next;
        } else if let Some(next) = next {
            *head = next;
        } else {
            self.node_live.remove(&key.node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::ChannelGrid;
    use proptest::prelude::*;

    const N_CH: usize = 3;
    const N_LG: usize = 2;
    /// Link-row lanes of the two gateways, reversed: a read that skips
    /// the lane table takes the other gateway's RSSI.
    const LANES: [u32; N_LG] = [1, 0];
    const N_NODES: usize = 4;

    /// RSSI rows per node — nodes 0 and 1 tie at gateway 0 on purpose,
    /// so the start-order tie-break is exercised in both
    /// representations. The state reads them from a per-slot copy, as
    /// in the shard; the oracle reads them here, by node.
    const LINK: [f64; N_NODES * N_LG] = [-60.0, -70.0, -60.0, -75.0, -80.0, -70.0, -55.0, -66.0];

    fn node_row(node: u32) -> &'static [f64] {
        &LINK[node as usize * N_LG..][..N_LG]
    }

    /// A transmission in a test schedule:
    /// `(node, channel, sf index, start µs, duration µs)`. This is the
    /// type proptest shrinks, so a failure prints the minimal schedule
    /// verbatim.
    type Sched = (u8, u8, u8, u64, u64);

    /// A hand-rolled adversarial channel universe: self-Detect on every
    /// channel, cross-channel Detect between 1 and 2, asymmetric Leak
    /// between 0 and 1 (including a `None` orthogonal gain), channel 2
    /// disjoint from 0.
    fn test_ctx() -> RunContext {
        let channels = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let mut ctx = RunContext::new(&channels[..N_CH], &[]);
        ctx.overlapping = vec![vec![0, 1], vec![0, 1, 2], vec![1, 2]];
        ctx.pair = vec![PairClass::Disjoint; N_CH * N_CH];
        for c in 0..N_CH {
            ctx.pair[c * N_CH + c] = PairClass::Detect;
        }
        ctx.pair[1] = PairClass::Leak {
            gain_same: Some(-12.0),
            gain_orth: Some(-18.0),
        };
        ctx.pair[N_CH] = PairClass::Leak {
            gain_same: Some(-9.0),
            gain_orth: None,
        };
        ctx.pair[N_CH + 2] = PairClass::Detect;
        ctx.pair[2 * N_CH + 1] = PairClass::Detect;
        ctx
    }

    /// Candidate gateways per channel (channel 2 is single-gateway so
    /// snapshot alignment with a shorter candidate list is covered).
    fn cand_local() -> Vec<Vec<u32>> {
        vec![vec![0, 1], vec![0, 1], vec![0]]
    }

    /// Oracle-side record of one scheduled transmission.
    struct TxRec {
        ch: usize,
        /// `start_evseq` is 0 until its TxStart is processed.
        key: TxKey,
        /// `u64::MAX` until its TxEnd is processed.
        end_evseq: u64,
    }

    /// Recompute everything victim `v`'s verdict needs by running the
    /// reference loop's arithmetic over the full transmission history,
    /// and compare with what the interference state answers — for the
    /// whole candidate list and for its last gateway alone (a `seen`
    /// subsequence).
    fn check_victim(
        ac: &mut AccumState,
        ctx: &RunContext,
        txs: &[TxRec],
        v: usize,
        cand: &[Vec<u32>],
    ) -> Result<(), TestCaseError> {
        let cic = ac.cic;
        let vic = &txs[v];
        let mut overlapped: Vec<&TxRec> = txs
            .iter()
            .filter(|o| {
                o.key.start_evseq != 0
                    && o.key.node != vic.key.node
                    && o.end_evseq > vic.key.start_evseq
            })
            .collect();
        overlapped.sort_by_key(|o| o.key.start_evseq);

        let all: Vec<(u32, Seen)> = cand[vic.ch]
            .iter()
            .map(|&lg| (lg, Seen::Admitted))
            .collect();
        for seen in [&all[..], &all[all.len() - 1..]] {
            let mut want = VerdictScratch::default();
            want.prepare(seen.len());
            for o in &overlapped {
                let cross_sf = o.key.sf != vic.key.sf;
                match ctx.pair[vic.ch * N_CH + o.ch] {
                    PairClass::Disjoint => {}
                    PairClass::Detect if !cross_sf && cic => {}
                    PairClass::Detect => want.arbitrate(
                        seen,
                        |g| node_row(vic.key.node)[g as usize],
                        |g| node_row(o.key.node)[g as usize],
                        !cross_sf,
                        o.key.network,
                    ),
                    class @ PairClass::Leak { .. } => {
                        if let Some(g) = class.leak_gain(cross_sf) {
                            for (gi, &(lg, _)) in seen.iter().enumerate() {
                                want.add_intf(gi, leak_fx(node_row(o.key.node)[lg as usize], g));
                            }
                        }
                    }
                }
            }

            let mut got = VerdictScratch::default();
            ac.interference(vic.ch, &vic.key, seen, &cand[vic.ch], &mut got);
            for gi in 0..seen.len() {
                let (want_fx, want_collider, want_kill) = want.state(gi);
                let (got_fx, got_collider, got_kill) = got.state(gi);
                prop_assert_eq!(got_fx, want_fx, "leak of victim {} at slot {}", v, gi);
                prop_assert_eq!(
                    got_collider,
                    want_collider,
                    "collider of victim {} at slot {}",
                    v,
                    gi
                );
                // A collision decides the verdict; the index skips the
                // cross-SF question then.
                if want_collider.is_none() {
                    prop_assert_eq!(got_kill, want_kill, "kill of victim {} at slot {}", v, gi);
                }
            }
        }
        Ok(())
    }

    /// Drive a schedule through the interference state exactly as the
    /// shard machine does — same event order, evseq discipline, slot
    /// recycling and per-slot link rows — checking every on-air victim
    /// against the oracle after every event, plus the ending victim at
    /// its verdict point (before its own retire), which is the read the
    /// shard actually performs. `ac` may carry a previous schedule's
    /// leftovers: the reset must clear them. Returns `(index builds,
    /// index drops)`.
    fn run_schedule(
        ac: &mut AccumState,
        sched: &[Sched],
        cic: bool,
        (build_at, drop_at): (usize, usize),
    ) -> Result<(u64, u64), TestCaseError> {
        let ctx = test_ctx();
        let cand = cand_local();
        ac.reset_with_thresholds(&ctx, LANES.into_iter(), cic, build_at, drop_at);

        let mut txs: Vec<TxRec> = sched
            .iter()
            .map(|&(node, ch, sf, _, _)| TxRec {
                ch: ch as usize % N_CH,
                key: TxKey {
                    slot: u32::MAX,
                    node: node as u32 % N_NODES as u32,
                    network: node as u32 % 2,
                    start_evseq: 0,
                    sf: sf % N_SF as u8,
                },
                end_evseq: u64::MAX,
            })
            .collect();
        // (t, prio, tx index): TxEnd (0) sorts before TxStart (1) at
        // the same instant, as in the event queue — a transmission
        // ending exactly when another starts is not an overlap.
        let mut events: Vec<(u64, u8, usize)> = Vec::new();
        for (i, &(_, _, _, start, dur)) in sched.iter().enumerate() {
            events.push((start, 1, i));
            events.push((start + dur.max(1), 0, i));
        }
        events.sort_unstable();

        let mut free: Vec<u32> = Vec::new();
        let mut n_slots = 0u32;
        let mut drops = 0u64;
        for (evseq, &(_, prio, i)) in (1u64..).zip(&events) {
            let was_sorted: Vec<bool> = ac.chans.iter().map(|c| c.sorted.is_some()).collect();
            if prio == 1 {
                let slot = free.pop().unwrap_or_else(|| {
                    n_slots += 1;
                    n_slots - 1
                });
                ac.link.open_row(slot);
                for (lg, &rssi) in node_row(txs[i].key.node).iter().enumerate() {
                    ac.link.set(slot, lg as u32, rssi);
                }
                txs[i].key.slot = slot;
                txs[i].key.start_evseq = evseq;
                ac.register(&ctx, txs[i].ch, txs[i].key, &cand);
            } else {
                check_victim(ac, &ctx, &txs, i, &cand)?;
                txs[i].end_evseq = evseq;
                ac.retire(&ctx, txs[i].ch, &txs[i].key, evseq, &cand, |s| free.push(s));
            }
            for (c, was) in ac.chans.iter().zip(was_sorted) {
                drops += (was && c.sorted.is_none()) as u64;
            }
            for v in 0..txs.len() {
                if txs[v].key.start_evseq != 0 && txs[v].end_evseq == u64::MAX {
                    check_victim(ac, &ctx, &txs, v, &cand)?;
                }
            }
        }
        prop_assert_eq!(free.len() as u32, n_slots, "slots not all handed back");
        Ok((ac.stats.index_builds, drops))
    }

    /// Thresholds small enough that a handful of overlapping
    /// transmissions crosses flat → sorted → flat.
    const TINY: (usize, usize) = (2, 1);
    /// Thresholds no schedule reaches: the flat list serves every query.
    const FLAT: (usize, usize) = (usize::MAX, 0);

    /// The schedule under both representations, on one state reused
    /// across the two runs (as a world reuses its shards' buffers).
    fn run_both(sched: &[Sched], cic: bool) -> Result<(u64, u64), TestCaseError> {
        let mut ac = AccumState::default();
        let (builds, _) = run_schedule(&mut ac, sched, cic, FLAT)?;
        prop_assert_eq!(builds, 0);
        run_schedule(&mut ac, sched, cic, TINY)
    }

    #[test]
    fn end_at_start_boundary_is_not_an_overlap() {
        // Node 0 on channel 0 ends at t=10 exactly as node 1 starts on
        // channel 1: TxEnd's lower priority means the leak must not be
        // counted — and the same-instant reverse (node 2 starting at
        // node 1's end) must count nothing either.
        run_both(
            &[(0, 0, 2, 0, 10), (1, 1, 2, 10, 5), (2, 1, 2, 15, 5)],
            false,
        )
        .unwrap();
    }

    #[test]
    fn same_node_overlap_is_excluded_exactly() {
        // One node with three overlapping transmissions across the
        // Leak pair: the own-node corrections must cancel its own
        // contributions bit-for-bit while another node's leak stands.
        run_both(
            &[
                (0, 0, 1, 0, 20),
                (0, 1, 1, 5, 20),
                (0, 1, 3, 10, 20),
                (1, 0, 1, 12, 20),
            ],
            false,
        )
        .unwrap();
    }

    #[test]
    fn index_is_built_and_dropped_as_the_list_grows_and_shrinks() {
        // Channel 1 ramps up (its list also takes channel 2's
        // transmissions), drains, and ramps up again.
        let ramp = |t0: u64| (0..6u8).map(move |i| (i % 4, 1 + i % 2, i % 3, t0 + i as u64, 10));
        let mut sched: Vec<Sched> = ramp(0).collect();
        sched.extend((0..6u8).map(|i| (i % 4, 1, 0, 30 + 3 * i as u64, 1)));
        sched.extend(ramp(60));
        let (builds, drops) = run_both(&sched, false).unwrap();
        assert!(builds >= 2 && drops >= 1, "{builds} builds, {drops} drops");
    }

    proptest! {
        /// Adversarial TxStart/TxEnd sequences — narrow time ranges
        /// force many simultaneous ends and zero-duration gaps at
        /// event boundaries; duplicate nodes force own-node
        /// corrections; slots are recycled as the state hands them
        /// back. After every event both representations must answer
        /// what a fresh pass of the reference arithmetic answers. On
        /// failure proptest shrinks and prints the minimal
        /// `(node, ch, sf, start, dur)` schedule.
        #[test]
        fn interference_matches_fresh_scan_after_every_event(
            sched in proptest::collection::vec(
                (0u8..N_NODES as u8, 0u8..N_CH as u8, 0u8..N_SF as u8, 0u64..12, 1u64..5),
                1..24,
            ),
            cic in any::<bool>(),
        ) {
            run_both(&sched, cic)?;
        }
    }
}
