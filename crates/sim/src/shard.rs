//! The simulation engine: chunk-fed, sharded execution of one run —
//! every run, from a 20-packet burst to the million-node path.
//!
//! A loop that materializes every transmission, a 3n-event timeline and
//! an `nodes × gateways` link table before processing the first event
//! stops scaling long before 10⁶ nodes: the table alone no longer fits
//! anywhere near a cache. This module runs the arithmetic of the spec
//! ([`crate::reference`]) over independent **shards** of the spectrum:
//!
//! * **Partition.** Channels are grouped into connected components
//!   under the union of two relations: spectral overlap (any
//!   `overlap_ratio > 0`, the relation that feeds interference
//!   gathering) and "some gateway listens to both" (the relation that
//!   feeds decoder contention). Transmissions in different components
//!   can never interact — not through capture, leakage, or a shared
//!   decoder pool — so any grouping of components into shards yields
//!   results identical to the one-shard run. Each gateway's candidate
//!   channels all land in one component, so a gateway belongs to
//!   exactly one shard.
//! * **Chunked feeding.** A [`ChunkSource`] emits plans in chunks of
//!   its caller's choosing together with a *frontier*: a lower bound on
//!   every future start time. The driver (the calling thread) assigns
//!   global transmission ids in emission order, routes plans to shards
//!   by channel, and re-batches each chunk into **hand-offs** of at most
//!   `HANDOFF_TXS` plans whose frontier is the exact minimum start of
//!   the chunk's remainder capped by the source's frontier. Each shard
//!   files its events on a time wheel and drains strictly below the
//!   frontier ([`crate::engine::TimeWheel::pop_before`]), so the full
//!   timeline never materializes.
//! * **Interference state.** What a verdict has to know about the
//!   transmissions that overlapped the victim is kept incrementally by
//!   `crate::accum` — one collider list per channel, walked while it
//!   is short and indexed once it is long, plus exact fixed-point leak
//!   sums — so no event rescans the on-air population.
//! * **Slot recycling.** Per-transmission state lives in slots, freed
//!   once the transmission has ended *and* no transmission still on air
//!   on a channel it can collide with started before that end. Peak
//!   memory is bounded by the on-air set plus one hand-off — not by the
//!   run length, and not by the caller's chunk size.
//! * **Per-slot link rows.** A transmission's RSSIs live in its slot's
//!   row, written at ingest for the gateways a later read can touch
//!   (`hear`). A row has one lane per gateway of the shard's widest
//!   channel component: a gateway's lane is its position in its
//!   component, and a row is only ever read at gateways of its own
//!   transmission's component. The table is `peak_live × lanes × 8 B`
//!   — on a 100k-node, 64-gateway world whose 32-gateway shards hold
//!   four 8-gateway components each, 0.15 MB per shard (0.26 MB
//!   allocated), where a lane per gateway of the shard took 0.6 MB
//!   (1.0 MB allocated) and a row per node ever seen 12.8 MB. SNR is
//!   `rssi - noise_floor`, bitwise identical to `Topology::snr_db`.
//! * **Buffers outlive the run.** A world keeps its shards' buffers
//!   (`ShardState`); the next run clears them instead of allocating.
//! * **One shard runs inline.** When the partition (or a
//!   `max_shards: 1` ceiling, which is what [`SimWorld::run`] asks for)
//!   yields a single shard, its machine runs on the calling thread: the
//!   producer loop calls it directly — no spawn, no channel — so
//!   paper-scale runs pay no threading cost.
//! * **Deterministic join.** More shards run under
//!   [`std::thread::scope`] (one thread per shard); results are joined
//!   in shard-id order and observability events are buffered per shard
//!   keyed by the global event order `(t_us, kind priority, tx id)` and
//!   k-way merged, so the output — records, gateway stats, obs byte
//!   stream — is invariant under shard count and thread scheduling. The
//!   workspace `sim_equivalence` proptest pins every shard count
//!   byte-identical to [`crate::reference`].

use crate::accum::{AccumState, TxKey, Verdict, VerdictScratch};
use crate::engine::TimeWheel;
use crate::faults::{InfraFaults, NoFaults};
use crate::metrics::{Fate, LossFold, RunSummary};
use crate::runctx::RunContext;
use crate::topology::Topology;
use crate::traffic::{ChunkSource, SliceChunks, TxPlan};
use crate::world::{PacketRecord, SimRunStats, SimWorld, Transmission};
use gateway::radio::{Gateway, LockOnOutcome, ReceptionOutcome};
use lora_phy::snr::{decodable, noise_floor_dbm};
use lora_phy::types::{Bandwidth, TxPowerDbm};
use obs::{ObsEvent, ObsSink};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Same-timestamp event priorities, mirroring
/// [`crate::engine::Event`]'s ordering (TxEnd < TxStart < LockOn).
/// Used as the middle component of the obs merge key.
const PRIO_TX_END: u8 = 0;
const PRIO_TX_START: u8 = 1;
const PRIO_LOCK_ON: u8 = 2;

/// Tuning knobs for sharded / streamed runs.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Upper bound on shards (threads). `0` = auto: one per available
    /// core. The effective count is also capped by the number of
    /// independent channel components, so asking for more shards than
    /// the spectrum supports is harmless.
    pub max_shards: usize,
    /// Transmissions per producer chunk when a materialized plan list
    /// is fed through the streaming machinery
    /// ([`SimWorld::run_sharded_with_faults`]).
    pub chunk_txs: usize,
}

impl Default for ShardOpts {
    fn default() -> ShardOpts {
        ShardOpts {
            max_shards: 0,
            chunk_txs: 65_536,
        }
    }
}

impl ShardOpts {
    /// The shard-count ceiling before the component cap.
    fn shard_ceiling(&self) -> usize {
        if self.max_shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.max_shards
        }
    }
}

/// Per-shard counters from a sharded run, exposed via
/// [`SimWorld::last_shard_stats`]. Like [`SimRunStats`], these are
/// never streamed by the world itself (`wall_us` is host wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardRunStats {
    /// Shard index within the run.
    pub shard: u32,
    /// Transmissions routed to this shard.
    pub txs: u64,
    /// Events this shard processed (3 × its txs).
    pub events: u64,
    /// Gateways owned by this shard.
    pub gateways: u32,
    /// (transmission, gateway) admission pairs visited at lock-on.
    pub candidate_visits: u64,
    /// Peak simultaneously-live transmission slots — the streaming
    /// loop's working-set bound (on-air + pending hand-off + ended
    /// transmissions an on-air one overlapped), independent of total
    /// run length and of the source's chunk size.
    pub peak_live: u64,
    /// Interference contributions added at TxStart (collider-list
    /// pushes, sorted-index inserts, leak folds).
    #[serde(default)]
    pub accum_updates: u64,
    /// Leak contributions exactly undone at TxEnd.
    #[serde(default)]
    pub accum_undos: u64,
    /// Dead collider-list and sorted-index entries compacted out.
    #[serde(default)]
    pub accum_evictions: u64,
    /// Sorted collider indexes built: how often a channel's list grew
    /// long enough to leave the flat representation (0 = the whole
    /// run was served by flat lists).
    #[serde(default)]
    pub index_builds: u64,
    /// Time-wheel level cascades in this shard's event scheduler.
    #[serde(default)]
    pub wheel_cascades: u64,
    /// Host wall-clock duration of the shard's event loop, µs
    /// (includes `idle_us`).
    pub wall_us: u64,
    /// Of `wall_us`, the time spent blocked waiting for the driver's
    /// next hand-off, µs: a shard with `idle_us` near `wall_us` was
    /// starved by the feed, not busy.
    #[serde(default)]
    pub idle_us: u64,
}

/// Result of a streamed (aggregate-only) run: no per-packet records —
/// a 10⁷-transmission run cannot afford them — but everything the
/// statistical-equivalence gate and the benchmarks need.
#[derive(Debug, Clone)]
pub struct StreamedRun {
    /// Aggregate per-network outcome summary.
    pub summary: RunSummary,
    /// Whole-run counters (also stored as
    /// [`SimWorld::last_run_stats`]).
    pub stats: SimRunStats,
    /// Per-shard counters (also stored as
    /// [`SimWorld::last_shard_stats`]).
    pub shard_stats: Vec<ShardRunStats>,
}

/// Most plans the driver hands the shards at once. A source chunk is
/// as large as its caller made it (`chunk_us`, `chunk_txs`); cutting it
/// into hand-offs with exact intermediate frontiers keeps a shard's
/// live slots, wheel entries and message buffers at the on-air set
/// plus one hand-off, whatever the caller chose.
const HANDOFF_TXS: usize = 4096;

/// One routed plan entry: `(global tx id, interned channel id, plan)`.
type RoutedPlan = (u64, u32, TxPlan);

/// One producer→shard message: the shard's slice of a hand-off plus
/// the hand-off's frontier (a lower bound on all future start times).
type ChunkMsg = (Vec<RoutedPlan>, u64);

/// How channels and gateways are split into independent shards.
#[derive(Debug)]
struct Partition {
    /// Shards actually used (≤ min(ceiling, components); 0 iff the
    /// channel universe is empty).
    n_shards: usize,
    /// Per interned channel id: owning shard.
    shard_of_channel: Vec<u32>,
    /// Per shard: global gateway indexes it owns, ascending.
    shard_gws: Vec<Vec<u32>>,
    /// Per global gateway: its position among its channel component's
    /// gateways, ascending — its lane in a link row.
    lane_of_gw: Vec<u32>,
}

/// Union-find `find` with path halving.
fn uf_find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Union keeping the smaller root (deterministic representative).
fn uf_union(parent: &mut [u32], a: u32, b: u32) {
    let ra = uf_find(parent, a);
    let rb = uf_find(parent, b);
    if ra != rb {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi as usize] = lo;
    }
}

/// Group the interned channels into connected components (spectral
/// overlap ∪ shared listening gateway) and pack components onto at
/// most `ceiling` shards with a deterministic greedy balance (heaviest
/// component first, ties by smallest member channel, onto the least
/// loaded shard, ties by lowest shard id).
fn partition(ctx: &RunContext, ceiling: usize) -> Partition {
    let n_ch = ctx.n_channels();
    let n_gws = ctx.n_gws;
    let mut parent: Vec<u32> = (0..n_ch as u32).collect();
    for v in 0..n_ch {
        for &o in &ctx.overlapping[v] {
            uf_union(&mut parent, v as u32, o);
        }
    }
    for g in 0..n_gws {
        let mut first: Option<u32> = None;
        for ci in 0..n_ch {
            if ctx.is_cand[ci * n_gws + g] {
                match first {
                    Some(f) => uf_union(&mut parent, f, ci as u32),
                    None => first = Some(ci as u32),
                }
            }
        }
    }

    // Components numbered by first-seen (i.e. smallest) member channel,
    // which is also the root: unions keep the smaller one.
    let mut comp_of_channel = vec![0u32; n_ch];
    let mut comp_min_channel: Vec<u32> = Vec::new();
    let mut comp_weight: Vec<u64> = Vec::new();
    for ci in 0..n_ch {
        let root = uf_find(&mut parent, ci as u32) as usize;
        let comp = if root == ci {
            comp_min_channel.push(ci as u32);
            comp_weight.push(0);
            comp_min_channel.len() as u32 - 1
        } else {
            comp_of_channel[root]
        };
        comp_of_channel[ci] = comp;
        // Weight ∝ expected admission work: the channel plus its
        // candidate gateways.
        comp_weight[comp as usize] += 1 + ctx.cand[ci].len() as u64;
    }

    let n_components = comp_min_channel.len();
    let n_shards = ceiling.max(1).min(n_components);
    let mut order: Vec<usize> = (0..n_components).collect();
    order.sort_by(|&a, &b| {
        comp_weight[b]
            .cmp(&comp_weight[a])
            .then(comp_min_channel[a].cmp(&comp_min_channel[b]))
    });
    let mut load = vec![0u64; n_shards];
    let mut shard_of_comp = vec![0u32; n_components];
    for &c in &order {
        let mut s = 0;
        for k in 1..n_shards {
            if load[k] < load[s] {
                s = k;
            }
        }
        shard_of_comp[c] = s as u32;
        load[s] += comp_weight[c];
    }

    let shard_of_channel: Vec<u32> = comp_of_channel
        .iter()
        .map(|&c| shard_of_comp[c as usize])
        .collect();
    let mut shard_gws: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    let mut lane_of_gw = vec![0u32; n_gws];
    let mut comp_gws = vec![0u32; n_components];
    for (g, lane) in lane_of_gw.iter_mut().enumerate() {
        // A gateway's candidate channels are all in one component (the
        // shared-gateway unions above), so its first is representative.
        if let Some(ci) = (0..n_ch).find(|&ci| ctx.is_cand[ci * n_gws + g]) {
            shard_gws[shard_of_channel[ci] as usize].push(g as u32);
            let comp_gws = &mut comp_gws[comp_of_channel[ci] as usize];
            *lane = *comp_gws;
            *comp_gws += 1;
        }
    }

    Partition {
        n_shards,
        shard_of_channel,
        shard_gws,
        lane_of_gw,
    }
}

/// An [`ObsSink`] that buffers events together with the global event
/// order key `(t_us, kind priority, tx id)` of the simulation event
/// being processed when they were recorded. Within a shard, keys are
/// emitted in nondecreasing order (events are processed in key order)
/// and a given key occurs in exactly one shard (ids are globally
/// unique), so a k-way merge by key reconstructs the exact byte stream
/// a one-shard run would have produced.
struct KeyedSink {
    on: bool,
    key: (u64, u8, u64),
    buf: Vec<((u64, u8, u64), ObsEvent)>,
}

impl ObsSink for KeyedSink {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, ev: &ObsEvent) {
        self.buf.push((self.key, *ev));
    }
}

/// How one gateway saw one transmission during admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seen {
    /// Detected and assigned a decoder.
    Admitted,
    /// Detected but rejected by the decoder pool.
    Dropped {
        /// Foreign-network packets held decoders at rejection time.
        foreign_held: bool,
        /// Locked-up decoders contributed to the drop: physical
        /// capacity was still free when the packet was rejected.
        lockup: bool,
    },
    /// The gateway would have detected the packet but was crashed at
    /// lock-on.
    DownAtLockOn,
}

/// Live per-transmission state. Slots are recycled once
/// [`AccumState::retire`] reports them dead; `seen` keeps its capacity
/// across reuses.
struct Slot {
    tx: Transmission,
    /// Interned (global) channel id.
    ch: u32,
    /// The transmission as the interference state lists it.
    key: TxKey,
    /// (local gateway id, admission outcome), in candidate order.
    seen: Vec<(u32, Seen)>,
}

/// A shard's buffers, kept by the world between runs: what a run
/// allocates in proportion to its on-air set. A run takes them in
/// whatever state the last one left them and clears them on entry.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Hierarchical time-wheel event scheduler: O(1) amortized
    /// insert/pop under the nondecreasing-frontier drain discipline.
    /// Entries are the global event key plus the slot id payload; the
    /// wheel keeps the blocks of its peak of queued entries.
    q: TimeWheel,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Collider lists, leak sums, the slot lifecycle and the per-slot
    /// link rows (`accum.link`).
    accum: AccumState,
    vs: VerdictScratch,
    receiving: Vec<usize>,
}

/// What every shard of a run reads and none writes.
struct RunEnv<'e> {
    topo: &'e Topology,
    node_power: &'e [TxPowerDbm],
    node_network: &'e [u32],
    ctx: RunContext,
    faults: &'e dyn InfraFaults,
    /// Per *global* gateway: can this fault schedule ever crash it.
    ever_down: Vec<bool>,
    /// Per *global* gateway: can decoders ever lock up.
    ever_locked: Vec<bool>,
    /// Global gateway ids with `ever_down` set (usually empty).
    ever_down_list: Vec<u32>,
    cic: bool,
    epoch: u64,
    collect_records: bool,
    obs_on: bool,
    /// Live-run heartbeat writer (`ALPHAWAN_HEARTBEAT`), if attached.
    hb: Option<obs::HeartbeatWriter>,
}

/// One shard's event loop: the spec's three events per transmission
/// over chunk feeding, slot recycling and per-slot link rows.
struct ShardMachine<'e> {
    env: &'e RunEnv<'e>,

    // Shard identity.
    shard: u32,
    /// Local gateway id → global gateway index (ascending).
    gw_global: Vec<u32>,
    /// Per interned channel id: candidate *local* gateway ids
    /// (ascending in global id; empty for channels of other shards).
    cand_local: Vec<Vec<u32>>,
    /// Per interned channel id: the union of `cand_local` over every
    /// channel overlapping it, ascending — the gateways at which any
    /// later read can want a transmission's RSSI.
    hear: Vec<Vec<u32>>,
    /// Gateways this shard owns (= `gw_global.len()`).
    n_lg: usize,
    /// 125 kHz noise floor, dBm (SNR = RSSI − floor).
    floor: f64,

    // Owned state.
    gateways: Vec<Gateway>,
    st: ShardState,
    /// Per local gateway: in-loop not-detected tally (candidate SNR
    /// misses at an up gateway).
    undetected: Vec<u64>,
    /// Per *global* gateway: non-candidate not-detected tally for
    /// ever-down gateways (must be counted per transmission because it
    /// depends on the crash window; empty when no gateway can crash).
    extra_undetected: Vec<u64>,
    sink: KeyedSink,
    records: Vec<PacketRecord>,
    summary: RunSummary,
    txs_n: u64,
    events: u64,
    candidate_visits: u64,
    peak_live: usize,
    /// Last finite frontier drained to (heartbeat progress).
    last_frontier: u64,
    /// When the machine was built, and the time since spent inside
    /// [`Self::step`]; the rest was spent waiting for the feed.
    born: Instant,
    busy: Duration,
}

/// Everything a shard sends back to the driver.
struct ShardOutput {
    gw_global: Vec<u32>,
    gateways: Vec<Gateway>,
    undetected: Vec<u64>,
    extra_undetected: Vec<u64>,
    records: Vec<PacketRecord>,
    summary: RunSummary,
    obs: Vec<((u64, u8, u64), ObsEvent)>,
    stats: ShardRunStats,
    state: ShardState,
}

impl<'e> ShardMachine<'e> {
    /// The machine of shard `shard` under `part`, on the shard's
    /// gateways and the buffers its previous run left.
    fn new(
        env: &'e RunEnv<'e>,
        part: &Partition,
        shard: usize,
        gateways: Vec<Gateway>,
        state: ShardState,
    ) -> ShardMachine<'e> {
        let ctx = &env.ctx;
        let gw_global = part.shard_gws[shard].clone();
        // Candidate lists in local gateway ids (global order is
        // ascending in both, so candidate order is preserved).
        let mut cand_local: Vec<Vec<u32>> = vec![Vec::new(); ctx.n_channels()];
        for (ci, cl) in cand_local.iter_mut().enumerate() {
            if part.shard_of_channel[ci] == shard as u32 {
                *cl = ctx.cand[ci]
                    .iter()
                    .map(|&g| {
                        gw_global
                            .binary_search(&g)
                            .expect("candidate gateway owned by this shard")
                            as u32
                    })
                    .collect();
            }
        }
        // Overlapping channels share a component, hence this shard.
        let hear = ctx
            .overlapping
            .iter()
            .map(|over| {
                let mut h: Vec<u32> = over
                    .iter()
                    .flat_map(|&cv| cand_local[cv as usize].iter().copied())
                    .collect();
                h.sort_unstable();
                h.dedup();
                h
            })
            .collect();
        let n_lg = gw_global.len();
        let mut st = state;
        // A finished run leaves every slot free and the wheel empty;
        // rewind both so slot ids and the cursor start afresh.
        st.q.rewind();
        debug_assert!(st.slots.iter().all(|sl| sl.seen.is_empty()));
        st.free.clear();
        st.free.extend((0..st.slots.len() as u32).rev());
        let lanes = gw_global.iter().map(|&g| part.lane_of_gw[g as usize]);
        st.accum.reset(ctx, lanes, env.cic);
        let any_down = !env.ever_down_list.is_empty();
        ShardMachine {
            env,
            shard: shard as u32,
            gw_global,
            cand_local,
            hear,
            n_lg,
            floor: noise_floor_dbm(Bandwidth::Khz125),
            gateways,
            st,
            undetected: vec![0; n_lg],
            extra_undetected: vec![0; if any_down { env.ever_down.len() } else { 0 }],
            sink: KeyedSink {
                on: env.obs_on,
                key: (0, 0, 0),
                buf: Vec::new(),
            },
            records: Vec::new(),
            summary: RunSummary::default(),
            txs_n: 0,
            events: 0,
            candidate_visits: 0,
            peak_live: 0,
            last_frontier: 0,
            born: Instant::now(),
            busy: Duration::ZERO,
        }
    }

    /// Materialize one chunk of routed plans into slots and events.
    fn ingest(&mut self, chunk: &[(u64, u32, TxPlan)]) {
        for &(id, ch, p) in chunk {
            self.txs_n += 1;
            let tx = Transmission::from_plan(&p, id, self.env.epoch, self.env.node_network[p.node]);

            // Non-candidate not-detected tallies for crashable
            // gateways (the never-down bulk is reconciled by the
            // driver from per-channel counts).
            for &g in &self.env.ever_down_list {
                let g = g as usize;
                if !self.env.ctx.is_cand[ch as usize * self.env.ctx.n_gws + g]
                    && !self.env.faults.gateway_down(g, tx.lock_on_us)
                {
                    self.extra_undetected[g] += 1;
                }
            }

            let slot = self.st.free.pop().unwrap_or(self.st.slots.len() as u32);
            self.fill_link_row(slot, ch, tx.node);
            let key = TxKey {
                slot,
                node: tx.node as u32,
                network: tx.network_id,
                // Set at TxStart.
                start_evseq: 0,
                sf: (tx.dr.spreading_factor().value() - 7) as u8,
            };
            match self.st.slots.get_mut(slot as usize) {
                Some(sl) => {
                    debug_assert!(sl.seen.is_empty());
                    sl.tx = tx;
                    sl.ch = ch;
                    sl.key = key;
                }
                None => self.st.slots.push(Slot {
                    tx,
                    ch,
                    key,
                    seen: Vec::new(),
                }),
            }
            self.peak_live = self.peak_live.max(self.st.slots.len() - self.st.free.len());

            self.st.q.push((tx.start_us, PRIO_TX_START, id, slot));
            self.st.q.push((tx.lock_on_us, PRIO_LOCK_ON, id, slot));
            self.st.q.push((tx.end_us, PRIO_TX_END, id, slot));
        }
    }

    /// Write slot `slot`'s link row for a transmission of `node` on
    /// channel `ch`: its RSSI at every `hear` gateway. Debug builds
    /// poison the rest of the row, so a read outside `hear` corrupts
    /// the run visibly instead of reading a former tenant's RSSI.
    fn fill_link_row(&mut self, slot: u32, ch: u32, node: usize) {
        let link = &mut self.st.accum.link;
        link.open_row(slot);
        let power = self.env.node_power[node].0;
        let loss_row = &self.env.topo.loss_db[node];
        for &lg in &self.hear[ch as usize] {
            let g = self.gw_global[lg as usize] as usize;
            link.set(slot, lg, power - loss_row[g]);
        }
    }

    /// Process every queued event scheduled strictly before `frontier`
    /// (matching [`crate::engine::EventQueue::pop_before`]: every plan
    /// of a later chunk starts at or after the frontier, so events at
    /// the frontier itself may still gain same-key-ordered company).
    fn drain(&mut self, frontier_us: u64) {
        while let Some((_, prio, _, slot)) = self.st.q.pop_before(frontier_us) {
            self.events += 1;
            match prio {
                PRIO_TX_START => self.on_tx_start(slot),
                PRIO_LOCK_ON => self.on_lock_on(slot),
                _ => self.on_tx_end(slot),
            }
        }
    }

    fn on_tx_start(&mut self, s: u32) {
        let si = s as usize;
        let t = self.st.slots[si].tx;
        self.sink.key = (t.start_us, PRIO_TX_START, t.id);
        if self.sink.enabled() {
            self.sink.record(&ObsEvent::TxStart {
                t_us: t.start_us,
                trace: t.trace,
                tx: t.id,
                node: t.node as u64,
                network: t.network_id,
            });
        }
        let sl = &mut self.st.slots[si];
        sl.key.start_evseq = self.events;
        self.st
            .accum
            .register(&self.env.ctx, sl.ch as usize, sl.key, &self.cand_local);
    }

    fn on_lock_on(&mut self, s: u32) {
        let si = s as usize;
        let t = self.st.slots[si].tx;
        let now = t.lock_on_us;
        self.sink.key = (now, PRIO_LOCK_ON, t.id);
        if self.sink.enabled() {
            self.sink.record(&ObsEvent::PacketLockOn {
                t_us: now,
                trace: t.trace,
                tx: t.id,
                node: t.node as u64,
                network: t.network_id,
            });
        }
        let c = self.st.slots[si].ch as usize;
        let sf = t.dr.spreading_factor();
        let mut seen = std::mem::take(&mut self.st.slots[si].seen);
        for k in 0..self.cand_local[c].len() {
            let lg = self.cand_local[c][k] as usize;
            self.candidate_visits += 1;
            let g_idx = self.gw_global[lg] as usize;
            let rssi = self.st.accum.link.at(s, lg as u32);
            let snr = rssi - self.floor;
            if !decodable(snr, sf, 0.0) {
                // Below the detection floor: an up gateway counts a
                // non-detection; a crashed gateway counts nothing.
                if !self.env.ever_down[g_idx] || !self.env.faults.gateway_down(g_idx, now) {
                    self.undetected[lg] += 1;
                }
                continue;
            }
            if self.env.ever_down[g_idx] && self.env.faults.gateway_down(g_idx, now) {
                seen.push((lg as u32, Seen::DownAtLockOn));
                continue;
            }
            if self.env.ever_locked[g_idx] {
                let locked = self.env.faults.locked_decoders(g_idx, now);
                self.gateways[lg].set_locked_decoders(locked);
            }
            let pkt = t.at_gateway(rssi, snr);
            match self.gateways[lg].admit_detected_tracked_obs(&pkt, &mut self.sink) {
                LockOnOutcome::Admitted => {
                    seen.push((lg as u32, Seen::Admitted));
                }
                LockOnOutcome::DroppedNoDecoder => {
                    let g = &self.gateways[lg];
                    let foreign = g.foreign_held_decoders() > 0;
                    let lockup = g.pool().locked() > 0 && g.decoders_in_use() < g.pool().capacity();
                    seen.push((
                        lg as u32,
                        Seen::Dropped {
                            foreign_held: foreign,
                            lockup,
                        },
                    ));
                }
                LockOnOutcome::NotDetected => {
                    unreachable!("admission precondition verified above")
                }
            }
        }
        self.st.slots[si].seen = seen;
    }

    /// TxEnd: resolve the verdicts, finish the transmission, then undo
    /// its interference contributions and recycle whatever slots no
    /// transmission on air can still see.
    fn on_tx_end(&mut self, s: u32) {
        let si = s as usize;
        let t = self.st.slots[si].tx;
        self.sink.key = (t.end_us, PRIO_TX_END, t.id);
        self.batch_verdicts(s);
        self.finish_tx(s);

        let st = &mut self.st;
        let (c, key) = (st.slots[si].ch as usize, st.slots[si].key);
        st.accum.retire(
            &self.env.ctx,
            c,
            &key,
            self.events,
            &self.cand_local,
            |dead| {
                st.slots[dead as usize].seen.clear();
                st.free.push(dead);
            },
        );
    }

    /// Decoder release, then the loss fold and the outcome tail. The
    /// caller resolves PHY verdicts into `self.st.vs.verdicts` first
    /// ([`Self::batch_verdicts`]).
    fn finish_tx(&mut self, s: u32) {
        let si = s as usize;
        let t = self.st.slots[si].tx;
        let seen = std::mem::take(&mut self.st.slots[si].seen);

        self.st.receiving.clear();
        let mut fold = LossFold::default();
        for (k, &(lg, how)) in seen.iter().enumerate() {
            let g_idx = self.gw_global[lg as usize] as usize;
            let verdict = self.st.vs.verdicts[k];
            let mut crashed_mid_rx = false;
            if how == Seen::Admitted {
                crashed_mid_rx = self.env.ever_down[g_idx]
                    && self
                        .env
                        .faults
                        .gateway_down_during(g_idx, t.lock_on_us, t.end_us);
                let phy_ok = verdict == Verdict::Ok && !crashed_mid_rx;
                let rssi = self.st.accum.link.at(s, lg);
                let pkt = t.at_gateway(rssi, rssi - self.floor);
                if let ReceptionOutcome::Received =
                    self.gateways[lg as usize].on_tx_end_tracked_obs(&pkt, phy_ok, &mut self.sink)
                {
                    self.st.receiving.push(g_idx);
                }
            }
            if self.gateways[lg as usize].network_id == t.network_id {
                fold.note(Fate {
                    seen: how,
                    verdict,
                    crashed_mid_rx,
                });
            }
        }
        self.st.slots[si].seen = seen;

        let delivered = !self.st.receiving.is_empty();
        let cause = fold.cause(t.network_id, delivered);
        t.emit_outcome(&mut self.sink, cause);
        self.summary.note(
            t.network_id,
            t.start_us,
            t.end_us,
            t.payload_len,
            delivered,
            cause,
        );
        if self.env.collect_records {
            self.records
                .push(t.record(self.st.receiving.clone(), cause));
        }
    }

    /// PHY verdicts for slot `s` at every seen gateway, into
    /// `self.st.vs.verdicts`: colliders, cross-SF kills and leaked power
    /// come from the interference state, the SINR arithmetic is
    /// [`VerdictScratch::resolve`].
    fn batch_verdicts(&mut self, s: u32) {
        let st = &mut self.st;
        let sl = &st.slots[s as usize];
        let cv = sl.ch as usize;
        st.accum
            .interference(cv, &sl.key, &sl.seen, &self.cand_local[cv], &mut st.vs);
        let link = &st.accum.link;
        let sf_v = sl.tx.dr.spreading_factor();
        st.vs.resolve(sl.seen.len(), &self.env.ctx, sf_v, |gi| {
            link.at(s, sl.seen[gi].0)
        });
    }

    /// One hand-off: materialize `chunk`, then process everything the
    /// frontier has made safe.
    fn step(&mut self, chunk: &[RoutedPlan], frontier: u64) {
        let began = Instant::now();
        self.ingest(chunk);
        self.drain(frontier);
        if frontier != u64::MAX {
            self.last_frontier = frontier;
        }
        if let Some(hb) = &self.env.hb {
            hb.beat(
                self.shard,
                self.txs_n,
                self.events,
                self.last_frontier,
                self.st.q.len() as u64,
                (self.st.slots.len() - self.st.free.len()) as u64,
            );
        }
        self.busy += began.elapsed();
    }

    /// The shard's thread body: [`Self::step`] per hand-off until the
    /// driver hangs up.
    fn run(mut self, rx: mpsc::Receiver<ChunkMsg>) -> ShardOutput {
        while let Ok((chunk, frontier)) = rx.recv() {
            self.step(&chunk, frontier);
        }
        self.finish()
    }

    /// Close the run and hand the results back.
    fn finish(mut self) -> ShardOutput {
        // The last frontier is u64::MAX by the ChunkSource contract;
        // this is a belt-and-braces drain for sources that end early.
        self.drain(u64::MAX);
        debug_assert!(self.st.q.is_empty());
        debug_assert_eq!(self.st.slots.len(), self.st.free.len());
        if let Some(hb) = &self.env.hb {
            hb.flush();
        }

        let accum = self.st.accum.stats;
        let wall = self.born.elapsed();
        let stats = ShardRunStats {
            shard: self.shard,
            txs: self.txs_n,
            events: self.events,
            gateways: self.n_lg as u32,
            candidate_visits: self.candidate_visits,
            peak_live: self.peak_live as u64,
            accum_updates: accum.updates,
            accum_undos: accum.undos,
            accum_evictions: accum.evictions,
            index_builds: accum.index_builds,
            wheel_cascades: self.st.q.cascades(),
            wall_us: wall.as_micros() as u64,
            idle_us: wall.saturating_sub(self.busy).as_micros() as u64,
        };
        ShardOutput {
            gw_global: self.gw_global,
            gateways: self.gateways,
            undetected: self.undetected,
            extra_undetected: self.extra_undetected,
            records: self.records,
            summary: self.summary,
            obs: self.sink.buf,
            stats,
            state: self.st,
        }
    }
}

/// Everything a sharded run produces; trimmed by the public wrappers.
struct ShardedOutcome {
    records: Option<Vec<PacketRecord>>,
    summary: RunSummary,
    stats: SimRunStats,
    shard_stats: Vec<ShardRunStats>,
}

/// The producer half of a run: pull chunks from `source`, assign
/// global ids in emission order, route each plan to its shard by
/// channel (tallying `ch_tx_count`), and pass every hand-off — the
/// per-shard plan lists plus the frontier — to `deliver`, which must
/// leave the lists empty. Returns the number of transmissions.
///
/// Each source chunk goes out as hand-offs of at most `HANDOFF_TXS`
/// plans; every shard gets every hand-off's frontier so it can drain
/// eagerly.
fn pump(
    source: &mut dyn ChunkSource,
    ctx: &RunContext,
    part: &Partition,
    ch_tx_count: &mut [u64],
    mut deliver: impl FnMut(&mut [Vec<RoutedPlan>], u64),
) -> u64 {
    let mut total_txs = 0u64;
    let mut buf: Vec<TxPlan> = Vec::new();
    let mut per_shard: Vec<Vec<RoutedPlan>> = vec![Vec::new(); part.n_shards];
    let mut frontiers: Vec<u64> = Vec::new();
    while let Some(frontier) = source.next_chunk(&mut buf) {
        // The frontier after a hand-off is the earliest start still to
        // come: the minimum over the rest of the chunk (plans within a
        // chunk may be in any order), capped by the source's bound on
        // all later chunks.
        let n_handoffs = buf.len().div_ceil(HANDOFF_TXS).max(1);
        frontiers.clear();
        frontiers.resize(n_handoffs, frontier);
        for (h, rest) in buf.chunks(HANDOFF_TXS).enumerate().skip(1).rev() {
            frontiers[h - 1] = rest.iter().fold(frontiers[h], |m, p| m.min(p.start_us));
        }
        // An empty chunk still carries its frontier to the shards, as
        // one empty hand-off.
        let mut handoffs = buf.chunks(HANDOFF_TXS);
        for &handoff_frontier in &frontiers {
            for p in handoffs.next().unwrap_or_default() {
                let cid = ctx
                    .channel_id(&p.channel)
                    .expect("plan channel outside the declared universe")
                    as usize;
                ch_tx_count[cid] += 1;
                let shard = part.shard_of_channel[cid] as usize;
                per_shard[shard].push((total_txs, cid as u32, *p));
                total_txs += 1;
            }
            deliver(&mut per_shard, handoff_frontier);
        }
    }
    total_txs
}

/// The engine's driver: partition, build one [`ShardMachine`] per
/// shard, pump chunks from `source` through them, join
/// deterministically. A one-shard run executes its machine right here
/// on the calling thread — no spawn, no channel; more shards get one
/// scoped thread each.
fn run_chunked(
    world: &mut SimWorld,
    source: &mut dyn ChunkSource,
    faults: &dyn InfraFaults,
    opts: &ShardOpts,
    collect_records: bool,
) -> ShardedOutcome {
    let wall = Instant::now();
    let epoch = world.run_epoch;
    world.run_epoch += 1;
    let n_gws = world.gateways.len();

    let ctx = RunContext::new(source.channels(), &world.gateways);
    let n_ch = ctx.n_channels();
    let part = partition(&ctx, opts.shard_ceiling());
    let n_shards = part.n_shards;

    let ever_down: Vec<bool> = (0..n_gws).map(|g| faults.gateway_ever_down(g)).collect();
    let ever_locked: Vec<bool> = (0..n_gws)
        .map(|g| faults.decoder_lockups_possible(g))
        .collect();
    // The admission path only refreshes lock state for gateways the
    // schedule can actually lock; clear everyone else's up front so
    // state left by a previous faulted run cannot leak in.
    for (g, &locked) in ever_locked.iter().enumerate() {
        if !locked {
            world.gateways[g].set_locked_decoders(0);
        }
    }

    // Take the sink for the run; gateway identities go out first.
    let mut taken = world.obs.take();
    let obs_on = taken.as_deref().map(|s| s.enabled()).unwrap_or(false);
    if let Some(sink) = taken.as_deref_mut() {
        world.emit_gateway_info(sink);
    }

    // Live per-shard heartbeats: `ALPHAWAN_HEARTBEAT=<path>` appends
    // JSONL heartbeat frames (rate-limited per shard by
    // `ALPHAWAN_HEARTBEAT_MS`, default 500) viewable mid-run with
    // `tracectl tail`. The stream is wall-clock telemetry in a separate
    // file; the deterministic event stream is untouched.
    let hb: Option<obs::HeartbeatWriter> = std::env::var("ALPHAWAN_HEARTBEAT")
        .ok()
        .filter(|p| !p.is_empty())
        .and_then(|p| {
            let interval_ms = std::env::var("ALPHAWAN_HEARTBEAT_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(500);
            obs::HeartbeatWriter::create(std::path::Path::new(&p), interval_ms).ok()
        });

    // Move the gateways out to their shards; unassigned ones stay
    // parked.
    let mut parked: Vec<Option<Gateway>> = world.gateways.drain(..).map(Some).collect();
    let mut take_gateways = |shard: usize| -> Vec<Gateway> {
        part.shard_gws[shard]
            .iter()
            .map(|&g| parked[g as usize].take().expect("gateway assigned once"))
            .collect()
    };

    let env = RunEnv {
        topo: &world.topo,
        node_power: &world.node_power,
        node_network: &world.node_network,
        ctx,
        faults,
        ever_down_list: (0..n_gws as u32)
            .filter(|&g| ever_down[g as usize])
            .collect(),
        ever_down,
        ever_locked,
        cic: world.cic,
        epoch,
        collect_records,
        obs_on,
        hb,
    };
    let (ctx, part) = (&env.ctx, &part);
    // Last run's shard buffers, handed out in shard order.
    let mut states = std::mem::take(&mut world.engine).into_iter();
    let mut next_state = || states.next().unwrap_or_default();
    let machine = |shard, gateways, state| ShardMachine::new(&env, part, shard, gateways, state);

    let mut ch_tx_count = vec![0u64; n_ch];
    let (total_txs, mut outputs): (u64, Vec<ShardOutput>) = match n_shards {
        // Empty channel universe: the source must be empty too (`pump`
        // refuses a plan outside the universe).
        0 => (
            pump(source, ctx, part, &mut ch_tx_count, |_, _| {}),
            Vec::new(),
        ),
        1 => {
            let mut m = machine(0, take_gateways(0), next_state());
            let total_txs = pump(source, ctx, part, &mut ch_tx_count, |routed, frontier| {
                m.step(&routed[0], frontier);
                routed[0].clear();
            });
            (total_txs, vec![m.finish()])
        }
        _ => std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(n_shards);
            let mut handles = Vec::with_capacity(n_shards);
            for shard in 0..n_shards {
                let (tx, rx) = mpsc::sync_channel::<ChunkMsg>(2);
                let (gateways, state) = (take_gateways(shard), next_state());
                handles.push(scope.spawn(move || machine(shard, gateways, state).run(rx)));
                senders.push(tx);
            }
            let total_txs = pump(source, ctx, part, &mut ch_tx_count, |routed, frontier| {
                for (plans, sender) in routed.iter_mut().zip(&senders) {
                    // The next hand-off routes about as much, so the
                    // replacement starts at this one's size instead of
                    // regrowing from empty.
                    let next = Vec::with_capacity(plans.len());
                    sender
                        .send((std::mem::replace(plans, next), frontier))
                        .expect("shard thread alive");
                }
            });
            drop(senders);
            let outputs = handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect();
            (total_txs, outputs)
        }),
    };

    // Restore gateways to global order (unassigned ones never moved).
    for out in &mut outputs {
        for (lg, g) in out.gateways.drain(..).enumerate() {
            let g_idx = out.gw_global[lg] as usize;
            debug_assert!(parked[g_idx].is_none());
            parked[g_idx] = Some(g);
        }
    }
    world.gateways = parked
        .into_iter()
        .map(|g| g.expect("every gateway restored"))
        .collect();

    // Not-detected reconciliation (the spec bumps the counter once per
    // up gateway per undetected transmission): in-loop
    // SNR-miss tallies (shard-local), per-transmission tallies for
    // crashable gateways (shard-local, any shard's transmissions), and
    // the O(1)-per-gateway bulk for never-down gateways.
    let mut miss = vec![0u64; n_gws];
    for out in &outputs {
        for (lg, &u) in out.undetected.iter().enumerate() {
            miss[out.gw_global[lg] as usize] += u;
        }
        for (g, &u) in out.extra_undetected.iter().enumerate() {
            miss[g] += u;
        }
    }
    for (g, m) in miss.iter_mut().enumerate() {
        if !env.ever_down[g] {
            let mut cand_txs = 0u64;
            for (c, cnt) in ch_tx_count.iter().enumerate() {
                if ctx.is_cand[c * n_gws + g] {
                    cand_txs += *cnt;
                }
            }
            *m += total_txs - cand_txs;
        }
    }
    for (g, &m) in miss.iter().enumerate() {
        if m > 0 {
            world.gateways[g].note_undetected(m);
        }
    }

    // K-way merge the per-shard obs buffers by global event key. Keys
    // are unique across shards (each is tagged with its transmission
    // id), so `<` alone reconstructs the global event order.
    if obs_on {
        let sink = taken.as_deref_mut().expect("sink present when enabled");
        let mut idx = vec![0usize; outputs.len()];
        loop {
            let mut best: Option<(usize, (u64, u8, u64))> = None;
            for (s, out) in outputs.iter().enumerate() {
                if let Some(&(key, _)) = out.obs.get(idx[s]) {
                    if best.is_none_or(|(_, bk)| key < bk) {
                        best = Some((s, key));
                    }
                }
            }
            match best {
                Some((s, _)) => {
                    sink.record(&outputs[s].obs[idx[s]].1);
                    idx[s] += 1;
                }
                None => break,
            }
        }
    }
    if let Some(sink) = taken.as_deref_mut() {
        sink.flush();
    }
    world.obs = taken;

    // Records into global id order, in place: ids are 0..txs, so each
    // swap puts one record where it belongs.
    let records = collect_records.then(|| {
        let mut parts = outputs
            .iter_mut()
            .map(|out| std::mem::take(&mut out.records));
        let mut all = parts.next().unwrap_or_default();
        for mut part in parts {
            all.append(&mut part);
        }
        assert_eq!(all.len() as u64, total_txs, "every tx finished");
        for i in 0..all.len() {
            while all[i].tx_id as usize != i {
                let j = all[i].tx_id as usize;
                all.swap(i, j);
            }
        }
        all
    });

    let mut summary = RunSummary::default();
    let mut shard_stats = Vec::with_capacity(outputs.len());
    for out in &outputs {
        summary.merge(&out.summary);
        shard_stats.push(out.stats);
    }
    let sum = |f: fn(&ShardRunStats) -> u64| shard_stats.iter().map(f).sum();
    let stats = SimRunStats {
        txs: total_txs,
        events: sum(|s| s.events),
        gateways: n_gws as u32,
        candidate_visits: sum(|s| s.candidate_visits),
        candidate_ceiling: total_txs * n_gws as u64,
        accum_updates: sum(|s| s.accum_updates),
        accum_undos: sum(|s| s.accum_undos),
        accum_evictions: sum(|s| s.accum_evictions),
        wheel_cascades: sum(|s| s.wheel_cascades),
        wall_us: wall.elapsed().as_micros() as u64,
    };
    world.last_stats = Some(stats);
    world.last_shard_stats = Some(shard_stats.clone());
    world.engine = outputs.into_iter().map(|out| out.state).collect();

    ShardedOutcome {
        records,
        summary,
        stats,
        shard_stats,
    }
}

impl SimWorld {
    /// [`Self::run_with_faults`] spread over threads: byte-identical
    /// records, gateway stats and obs stream, computed over independent
    /// channel shards on up to `opts.max_shards` threads (shards query
    /// the fault schedule concurrently; [`InfraFaults`] implementations
    /// are pure and `Sync`).
    pub fn run_sharded_with_faults(
        &mut self,
        plans: &[TxPlan],
        faults: &dyn InfraFaults,
        opts: &ShardOpts,
    ) -> Vec<PacketRecord> {
        let mut source = SliceChunks::new(plans, opts.chunk_txs);
        run_chunked(self, &mut source, faults, opts, true)
            .records
            .expect("records collected")
    }

    /// Run a streamed workload to completion without materializing it:
    /// plans are generated chunk by chunk, per-packet records are
    /// folded into an aggregate [`RunSummary`] instead of being kept,
    /// and peak memory is bounded by the on-air set — the 1M–10M-node
    /// path.
    pub fn run_streamed(&mut self, source: &mut dyn ChunkSource, opts: &ShardOpts) -> StreamedRun {
        self.run_streamed_with_faults(source, &NoFaults, opts)
    }

    /// [`Self::run_streamed`] under an infrastructure-fault schedule.
    pub fn run_streamed_with_faults(
        &mut self,
        source: &mut dyn ChunkSource,
        faults: &dyn InfraFaults,
        opts: &ShardOpts,
    ) -> StreamedRun {
        let out = run_chunked(self, source, faults, opts, false);
        StreamedRun {
            summary: out.summary,
            stats: out.stats,
            shard_stats: out.shard_stats,
        }
    }

    /// Per-shard counters from the most recent run (one entry for a
    /// [`Self::run`]); `None` before the first.
    pub fn last_shard_stats(&self) -> Option<&[ShardRunStats]> {
        self.last_shard_stats.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_with_faults_reference;
    use crate::traffic::{concurrent_burst, duty_cycled, BurstScheme};
    use crate::world::LossCause;
    use gateway::config::GatewayConfig;
    use gateway::profile::GatewayProfile;
    use lora_phy::channel::Channel;
    use lora_phy::pathloss::PathLossModel;
    use lora_phy::region::StandardChannelPlan;
    use lora_phy::types::DataRate;

    fn two_subband_world(n_nodes: usize) -> SimWorld {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let topo = Topology::new((1_000.0, 1_000.0), n_nodes, 2, model, 7);
        let profile = GatewayProfile::rak7268cv2();
        // Two gateways on spectrally disjoint sub-bands: exactly two
        // independent components.
        let gateways = vec![
            Gateway::new(
                0,
                1,
                profile,
                GatewayConfig::new(profile, StandardChannelPlan::us915_subband(0).channels)
                    .unwrap(),
            ),
            Gateway::new(
                1,
                2,
                profile,
                GatewayConfig::new(profile, StandardChannelPlan::us915_subband(2).channels)
                    .unwrap(),
            ),
        ];
        let networks = (0..n_nodes).map(|i| 1 + (i % 2) as u32).collect();
        SimWorld::new(topo, networks, gateways)
    }

    fn two_subband_assignments(n: usize) -> Vec<(usize, Channel, DataRate)> {
        let a = StandardChannelPlan::us915_subband(0).channels;
        let b = StandardChannelPlan::us915_subband(2).channels;
        (0..n)
            .map(|i| {
                let ch = if i % 2 == 0 {
                    a[i / 2 % 8]
                } else {
                    b[i / 2 % 8]
                };
                (i, ch, DataRate::from_index(i % 6).unwrap())
            })
            .collect()
    }

    #[test]
    fn partition_separates_disjoint_subbands() {
        let w = two_subband_world(4);
        let plans = duty_cycled(&two_subband_assignments(4), 12, 0.01, 60_000_000, 3);
        let ctx = RunContext::new(SliceChunks::new(&plans, 1).channels(), &w.gateways);
        let part = partition(&ctx, 8);
        assert_eq!(part.n_shards, 2, "two disjoint sub-bands, two shards");
        assert_eq!(part.shard_gws.iter().map(Vec::len).sum::<usize>(), 2);
        // Gateway 0 (sub-band 0) and gateway 1 (sub-band 2) are in
        // different shards.
        let s0 = part.shard_gws.iter().position(|g| g.contains(&0)).unwrap();
        let s1 = part.shard_gws.iter().position(|g| g.contains(&1)).unwrap();
        assert_ne!(s0, s1);
    }

    /// Gateways 0, 2 and 3 on sub-band 0, gateway 1 on sub-band 2: one
    /// shard holds both components, and its link rows are three lanes
    /// wide, gateway 1 sharing lane 0 with gateway 0.
    #[test]
    fn link_rows_are_as_wide_as_the_widest_component() {
        let model = PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let profile = GatewayProfile::rak7268cv2();
        let gateways: Vec<Gateway> = [0, 2, 0, 0]
            .iter()
            .enumerate()
            .map(|(g, &sb)| {
                let plan = StandardChannelPlan::us915_subband(sb).channels;
                Gateway::new(g, 1, profile, GatewayConfig::new(profile, plan).unwrap())
            })
            .collect();
        let topo = Topology::new((1_000.0, 1_000.0), 24, 4, model, 7);
        let world = || SimWorld::new(topo.clone(), vec![1; 24], gateways.clone());
        let plans = duty_cycled(&two_subband_assignments(24), 12, 0.02, 120_000_000, 11);

        let ctx = RunContext::new(SliceChunks::new(&plans, 1).channels(), &gateways);
        assert_eq!(partition(&ctx, 8).lane_of_gw, [0, 0, 1, 2]);
        let recs_spec = run_with_faults_reference(&mut world(), &plans, &NoFaults);
        let mut w = world();
        assert_eq!(w.run(&plans), recs_spec);
        assert_eq!(w.engine.len(), 1);
        assert_eq!(w.engine[0].accum.link.width(), 3);
    }

    #[test]
    fn sharded_matches_reference() {
        let assigns = two_subband_assignments(24);
        let plans = duty_cycled(&assigns, 12, 0.02, 120_000_000, 11);
        assert!(!plans.is_empty());

        let mut spec = two_subband_world(24);
        let recs_spec = run_with_faults_reference(&mut spec, &plans, &NoFaults);

        // One shard runs inline on this thread, two and four (capped at
        // the two components) on spawned ones: the same bytes.
        for shards in [1usize, 2, 4] {
            let mut sharded = two_subband_world(24);
            let opts = ShardOpts {
                max_shards: shards,
                chunk_txs: 7,
            };
            let recs = sharded.run_sharded_with_faults(&plans, &NoFaults, &opts);
            assert_eq!(recs, recs_spec, "shards={shards}");
            for (a, b) in sharded.gateways.iter().zip(&spec.gateways) {
                assert_eq!(a.stats(), b.stats(), "shards={shards}");
            }
            let stats = sharded.last_run_stats().unwrap();
            assert_eq!(stats.txs, plans.len() as u64);
            assert_eq!(stats.events, 3 * plans.len() as u64);
            let per_shard = sharded.last_shard_stats().unwrap();
            assert_eq!(per_shard.len(), shards.min(2));
            assert_eq!(per_shard.iter().map(|s| s.txs).sum::<u64>(), stats.txs);
            assert!(per_shard.iter().all(|s| s.peak_live <= s.txs));
            assert!(per_shard.iter().all(|s| s.idle_us <= s.wall_us));
        }
    }

    #[test]
    fn sharded_run_out_of_order_plans() {
        // `run` accepts plans in any order (ids = indices); the
        // chunked path must too.
        let assigns = two_subband_assignments(8);
        let mut plans = duty_cycled(&assigns, 12, 0.02, 60_000_000, 5);
        plans.reverse();
        let mut spec = two_subband_world(8);
        let recs_spec = run_with_faults_reference(&mut spec, &plans, &NoFaults);
        assert_eq!(two_subband_world(8).run(&plans), recs_spec);
        let mut sharded = two_subband_world(8);
        let opts = ShardOpts {
            max_shards: 2,
            chunk_txs: 3,
        };
        assert_eq!(
            sharded.run_sharded_with_faults(&plans, &NoFaults, &opts),
            recs_spec
        );
    }

    #[test]
    fn streamed_summary_matches_materialized_records() {
        use crate::traffic::{collect_chunks, DutyCycleStream};
        let assigns = two_subband_assignments(16);
        let mut stream = DutyCycleStream::new(&assigns, 12, 0.02, 120_000_000, 9, 10_000_000);
        let plans = collect_chunks(&mut DutyCycleStream::new(
            &assigns,
            12,
            0.02,
            120_000_000,
            9,
            10_000_000,
        ));
        assert!(!plans.is_empty());

        let mut mat = two_subband_world(16);
        let recs = mat.run(&plans);
        let expect = RunSummary::from_records(&recs);

        let mut streamed = two_subband_world(16);
        let opts = ShardOpts {
            max_shards: 2,
            chunk_txs: 64,
        };
        let run = streamed.run_streamed(&mut stream, &opts);
        assert_eq!(run.summary, expect);
        assert_eq!(run.stats.txs, plans.len() as u64);
        assert!(run
            .summary
            .statistically_equivalent(&expect, 0.0, 0.0)
            .is_ok());
    }

    #[test]
    fn live_set_is_independent_of_caller_chunking() {
        use crate::traffic::{collect_chunks, DutyCycleStream};
        let assigns = two_subband_assignments(400);
        let horizon_us = 2_000_000_000;
        let stream = |chunk_us| DutyCycleStream::new(&assigns, 12, 0.01, horizon_us, 21, chunk_us);
        let plans = collect_chunks(&mut stream(horizon_us));
        assert!(
            plans.len() > 4 * HANDOFF_TXS,
            "{} plans do not span several hand-offs",
            plans.len()
        );
        let opts = ShardOpts {
            max_shards: 2,
            chunk_txs: 3 * HANDOFF_TXS + 17,
        };
        let peak = |run: &StreamedRun| run.shard_stats.iter().map(|s| s.peak_live).max().unwrap();

        // One second per chunk: a handful of plans each, so the live
        // set is the on-air set.
        let fine = two_subband_world(400).run_streamed(&mut stream(1_000_000), &opts);
        // The whole run as one chunk.
        let giant = two_subband_world(400).run_streamed(&mut stream(horizon_us), &opts);
        assert_eq!(giant.summary, fine.summary);
        assert_eq!(giant.stats.txs, plans.len() as u64);

        // Locally unsorted (every block of 64 reversed), in chunks of
        // several hand-offs: the intermediate frontiers must follow
        // the suffix minimum, not the next plan's start.
        let mut unsorted = plans.clone();
        for block in unsorted.chunks_mut(64) {
            block.reverse();
        }
        let mut w = two_subband_world(400);
        let recs = w.run_sharded_with_faults(&unsorted, &NoFaults, &opts);
        let sliced = w.last_shard_stats().unwrap().to_vec();
        assert_eq!(recs, two_subband_world(400).run(&unsorted));
        assert_eq!(RunSummary::from_records(&recs), fine.summary);

        // On-air set plus one hand-off (plus the disorder window),
        // however the caller chunked.
        let bound = peak(&fine) + HANDOFF_TXS as u64;
        assert!(peak(&giant) <= bound, "{} > {bound}", peak(&giant));
        let sliced_peak = sliced.iter().map(|s| s.peak_live).max().unwrap();
        assert!(sliced_peak <= bound + 64, "{sliced_peak} > {bound} + 64");
    }

    #[test]
    fn concurrent_burst_sharded_equivalence() {
        // Same-instant-heavy schedule: frontier gating must not
        // reorder equal-timestamp events.
        let plan = StandardChannelPlan::us915_subband(0);
        let assigns: Vec<(usize, Channel, DataRate)> = (0..20)
            .map(|i| {
                (
                    i,
                    plan.channels[i % 8],
                    DataRate::from_index(i / 8 % 6).unwrap(),
                )
            })
            .collect();
        let plans = concurrent_burst(
            &assigns,
            10,
            1_000_000,
            2_000,
            BurstScheme::FinalPreambleOrdered,
        );
        let mk = || {
            let model = PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            let topo = Topology::new((100.0, 100.0), 20, 1, model, 1);
            let profile = GatewayProfile::rak7268cv2();
            let gw = Gateway::new(
                0,
                1,
                profile,
                GatewayConfig::new(profile, plan.channels.clone()).unwrap(),
            );
            SimWorld::new(topo, vec![1; 20], vec![gw])
        };
        let recs_spec = run_with_faults_reference(&mut mk(), &plans, &NoFaults);
        let mut sharded = mk();
        let opts = ShardOpts {
            max_shards: 4,
            chunk_txs: 3,
        };
        assert_eq!(
            sharded.run_sharded_with_faults(&plans, &NoFaults, &opts),
            recs_spec
        );
    }

    #[test]
    fn leak_universe_matches_reference() {
        use lora_phy::channel::ChannelGrid;
        // Overlapping-channel world: gateway 1 listens on 50 kHz-
        // shifted channels so the partial-overlap leak sums (and their
        // own-node corrections) are exercised end to end, not just the
        // detect-class lists.
        let base = ChannelGrid::standard(916_800_000, 1_600_000).channels();
        let shifted: Vec<Channel> = base
            .iter()
            .take(4)
            .map(|ch| Channel::khz125(ch.center_hz + 50_000))
            .collect();
        let mk = || {
            let model = PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            let topo = Topology::new((2_000.0, 2_000.0), 24, 2, model, 17);
            let profile = GatewayProfile::rak7268cv2();
            let gw0 = Gateway::new(
                0,
                1,
                profile,
                GatewayConfig::new(profile, base.clone()).unwrap(),
            );
            let mut both = shifted.clone();
            both.extend(base.iter().take(4).copied());
            let gw1 = Gateway::new(1, 2, profile, GatewayConfig::new(profile, both).unwrap());
            let networks = (0..24).map(|i| 1 + (i % 2) as u32).collect();
            SimWorld::new(topo, networks, vec![gw0, gw1])
        };
        let pool: Vec<Channel> = base.iter().chain(shifted.iter()).copied().collect();
        let assigns: Vec<(usize, Channel, DataRate)> = (0..24)
            .map(|i| {
                (
                    i,
                    pool[i % pool.len()],
                    DataRate::from_index(i % 6).unwrap(),
                )
            })
            .collect();
        let plans = duty_cycled(&assigns, 16, 0.05, 120_000_000, 11);
        assert!(!plans.is_empty());

        let recs_spec = run_with_faults_reference(&mut mk(), &plans, &NoFaults);
        for shards in [1usize, 2, 3] {
            let mut w = mk();
            let opts = ShardOpts {
                max_shards: shards,
                chunk_txs: 32,
            };
            assert_eq!(
                w.run_sharded_with_faults(&plans, &NoFaults, &opts),
                recs_spec,
                "shards={shards}"
            );
            let stats = w.last_run_stats().unwrap();
            assert!(
                stats.accum_updates > 0 && stats.accum_undos > 0,
                "leak folds not counted (shards={shards})"
            );
        }
    }

    /// Gateway 0 crashes twice while the hot channel of
    /// [`density_ramp_matches_reference`] is in the sorted state: in
    /// the middle of the first dense burst, and in the quiet phase
    /// after it, before the index is dropped.
    struct CrashGw0;

    impl InfraFaults for CrashGw0 {
        fn gateway_down(&self, gw: usize, t_us: u64) -> bool {
            gw == 0
                && [10_150_000..10_600_000, 20_000_000..20_600_000]
                    .iter()
                    .any(|w| w.contains(&t_us))
        }

        fn gateway_ever_down(&self, gw: usize) -> bool {
            gw == 0
        }

        fn decoder_lockups_possible(&self, _gw: usize) -> bool {
            false
        }
    }

    #[test]
    fn density_ramp_matches_reference() {
        // One channel goes sparse → dense → sparse → dense → sparse
        // while the rest of the band stays sparse. The dense phases are
        // synchronized slots (every node of a slot starts at the same
        // microsecond, slots 100 ms apart): the worst case for list
        // growth, since the first slot's SF12 packets pin the channel's
        // horizon while four slots pile onto its list. A sorted
        // channel is revisited when its list has doubled, hence the
        // long quiet phase; only the hot channel ever gets long, so a
        // second build proves the index was dropped in between.
        let n_nodes = 150;
        let sub = |k: usize| StandardChannelPlan::us915_subband(k).channels;
        let mk = || {
            let model = PathLossModel {
                shadowing_sigma_db: 0.0,
                ..Default::default()
            };
            let topo = Topology::new((1_000.0, 1_000.0), n_nodes, 4, model, 7);
            let profile = GatewayProfile::rak7268cv2();
            // Two gateways share sub-band 0 (two candidates on the
            // ramped channel); sub-bands 2 and 4 make three components.
            let gateways = [(1, 0), (2, 0), (1, 2), (2, 4)]
                .iter()
                .enumerate()
                .map(|(g, &(net, k))| {
                    let cfg = GatewayConfig::new(profile, sub(k)).unwrap();
                    Gateway::new(g, net, profile, cfg)
                })
                .collect();
            let networks = (0..n_nodes).map(|i| 1 + (i % 2) as u32).collect();
            SimWorld::new(topo, networks, gateways)
        };

        let hot = sub(0)[0];
        let dr = |i: usize| DataRate::from_index(i % 6).unwrap();
        // Background: every fifth node, spread over the three
        // sub-bands (the hot channel included), one packet each per
        // second — also the sparse phases of the hot channel.
        let background: Vec<(usize, Channel, DataRate)> = (0..n_nodes)
            .step_by(5)
            .map(|i| (i, sub(2 * (i % 3))[i / 15 % 2], dr(i / 15)))
            .collect();
        let mut plans = Vec::new();
        for second in 0..60u64 {
            plans.extend(concurrent_burst(
                &background,
                12,
                second * 1_000_000,
                29_000,
                BurstScheme::LeadingPreambleOrdered,
            ));
        }
        for burst_us in [10_000_000u64, 45_000_000] {
            for slot in 0..4usize {
                let nodes: Vec<(usize, Channel, DataRate)> = (0..n_nodes)
                    .filter(|i| i % 5 != 0 && i % 4 == slot)
                    .map(|i| (i, hot, dr(i / 4)))
                    .collect();
                plans.extend(concurrent_burst(
                    &nodes,
                    12,
                    burst_us + slot as u64 * 100_000,
                    0,
                    BurstScheme::LeadingPreambleOrdered,
                ));
            }
        }

        let healthy: &dyn InfraFaults = &NoFaults;
        for (faults, faulted) in [(healthy, false), (&CrashGw0, true)] {
            let mut spec = mk();
            let recs_spec = run_with_faults_reference(&mut spec, &plans, faults);
            // The crashes must cost deliveries, not only abort
            // receptions that were lost to collisions anyway.
            let infra = recs_spec
                .iter()
                .filter(|r| r.cause == Some(LossCause::Infrastructure))
                .count();
            assert_eq!(infra > 0, faulted, "{infra} infrastructure losses");
            for shards in [1usize, 2, 3] {
                let mut w = mk();
                let opts = ShardOpts {
                    max_shards: shards,
                    chunk_txs: 50,
                };
                let recs = w.run_sharded_with_faults(&plans, faults, &opts);
                assert_eq!(recs, recs_spec, "shards={shards} faulted={faulted}");
                for (a, b) in w.gateways.iter().zip(&spec.gateways) {
                    assert_eq!(a.stats(), b.stats(), "shards={shards}");
                }
                let per_shard = w.last_shard_stats().unwrap();
                assert_eq!(per_shard.len(), shards);
                let builds: u64 = per_shard.iter().map(|s| s.index_builds).sum();
                assert!(builds >= 2, "{builds} index builds (shards={shards})");
            }
        }
    }

    #[test]
    fn empty_plan_list() {
        let mut w = two_subband_world(2);
        let recs = w.run_sharded_with_faults(&[], &NoFaults, &ShardOpts::default());
        assert!(recs.is_empty());
        assert_eq!(w.last_run_stats().unwrap().txs, 0);
    }
}
