//! Per-run precomputed context and cross-run scratch arenas for the
//! indexed simulation hot path.
//!
//! [`RunContext`] is rebuilt at the top of every
//! [`crate::world::SimWorld::run_with_faults`] call (node powers and
//! gateway channel configurations legitimately change between runs) and
//! holds everything the event loop would otherwise recompute per event:
//!
//! * flattened per-(node, gateway) RSSI/SNR tables — `topo.rssi_dbm` is
//!   a subtraction, but `snr_db` folds in the noise floor's `log10`,
//!   and the seed loop re-derived both for **every** (lock-on, gateway)
//!   pair and again per verdict interferer;
//! * an interned channel id per transmission plus, per channel, the
//!   **candidate gateway index**: the (ascending) gateways whose
//!   listening set covers the channel. Lock-on visits only candidates;
//!   everything a non-candidate gateway would have done in the seed
//!   loop is a guaranteed `NotDetected`, reconciled in bulk at run end;
//! * a per-ordered-(victim, interferer) channel-pair classification
//!   (full-overlap capture vs partial-overlap leakage, with the
//!   leakage gains precomputed) so verdicts never call `overlap_ratio`
//!   or `leakage_gain_db`;
//! * the thermal noise power in linear and dB form, hoisted out of the
//!   per-verdict SINR computation.
//!
//! [`RunScratch`] owns the context plus every per-run buffer (event
//! timeline, interferer lists, admission spans, on-air buckets, records)
//! so that a warmed world performs no steady-state heap allocation —
//! enforced by the `sim_alloc` counting-allocator test.

use crate::engine::Event;
use crate::topology::Topology;
use crate::world::{PacketRecord, Seen, Transmission, VerdictScratch};
use gateway::radio::Gateway;
use lora_phy::channel::{overlap_ratio, Channel};
use lora_phy::interference::{leakage_gain_db, DETECTION_OVERLAP_THRESHOLD};
use lora_phy::snr::noise_floor_dbm;
use lora_phy::types::{Bandwidth, TxPowerDbm};

/// Spectral relationship of an ordered (victim, interferer) channel
/// pair, precomputed once per run from the interned channel set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairClass {
    /// No spectral overlap: the pair never interacts (unreachable from
    /// the verdict loop, which only sees registered interferers, but
    /// kept so the table is total).
    Disjoint,
    /// Overlap at or above [`DETECTION_OVERLAP_THRESHOLD`]: same-SF
    /// capture or cross-SF quasi-orthogonality applies.
    Detect,
    /// Partial overlap below the threshold: the interferer leaks energy
    /// into the victim's passband with the precomputed gain (`None`
    /// when the leak is below the modeled floor), chosen by whether the
    /// two spreading factors differ.
    Leak {
        /// `leakage_gain_db(victim, interferer, orthogonal = false)`.
        gain_same: Option<f64>,
        /// `leakage_gain_db(victim, interferer, orthogonal = true)`.
        gain_orth: Option<f64>,
    },
}

impl PairClass {
    /// The leak gain this pair applies to an interferer whose SF does
    /// (`cross_sf`) or does not differ from the victim's; `None` for a
    /// pair that does not leak.
    #[inline]
    pub(crate) fn leak_gain(self, cross_sf: bool) -> Option<f64> {
        match self {
            PairClass::Leak {
                gain_same,
                gain_orth,
            } => {
                if cross_sf {
                    gain_orth
                } else {
                    gain_same
                }
            }
            _ => None,
        }
    }
}

/// A channel's identity as one sortable integer (center frequency,
/// then bandwidth).
fn chan_key(ch: &Channel) -> u64 {
    (ch.center_hz as u64) << 2 | ch.bw as u64
}

/// Everything the event loop reads but never writes during a run. See
/// the module docs for the full inventory.
#[derive(Debug, Default)]
pub(crate) struct RunContext {
    /// Gateway count the tables were built for (row stride).
    pub(crate) n_gws: usize,
    /// `rssi[node * n_gws + gw]`, dBm, at the node's current Tx power.
    pub(crate) rssi: Vec<f64>,
    /// `snr[node * n_gws + gw]`, dB (RSSI minus the 125 kHz noise floor,
    /// exactly `Topology::snr_db`).
    pub(crate) snr: Vec<f64>,
    /// `(channel key, interned id)`, sorted by [`chan_key`]: the
    /// channel → id lookup. A channel universe is a few dozen entries,
    /// so a binary search beats hashing the channel per transmission.
    /// Kept across runs for its capacity only.
    chan_ids: Vec<(u64, u32)>,
    /// Interned channels, by id (order of first appearance in the plan).
    pub(crate) channels: Vec<Channel>,
    /// Per channel id: gateways (ascending) that listen on it.
    pub(crate) cand: Vec<Vec<u32>>,
    /// `is_cand[ch * n_gws + gw]`: membership mirror of `cand`.
    pub(crate) is_cand: Vec<bool>,
    /// Per channel id: channel ids with any spectral overlap (includes
    /// the channel itself). Drives on-air bucket gathering.
    pub(crate) overlapping: Vec<Vec<u32>>,
    /// `pair[victim * n_channels + interferer]` classification.
    pub(crate) pair: Vec<PairClass>,
    /// Transmissions per channel id in the current plan.
    pub(crate) ch_tx_count: Vec<u64>,
    /// Thermal noise power, linear mW relative to dBm.
    pub(crate) noise_lin: f64,
    /// `10 · log10(noise_lin)`: the noise-only SINR denominator. Exact
    /// for interference-free verdicts because `x + 0.0` is bitwise `x`
    /// for the (positive, normal) noise power.
    pub(crate) noise_only_db: f64,
}

impl RunContext {
    /// Number of distinct channels in the current plan.
    pub(crate) fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Interned id of `ch`, adding it to the universe on first sight.
    fn intern(&mut self, ch: Channel) -> u32 {
        let key = chan_key(&ch);
        match self.chan_ids.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.chan_ids[i].1,
            Err(i) => {
                let id = self.channels.len() as u32;
                self.chan_ids.insert(i, (key, id));
                self.channels.push(ch);
                id
            }
        }
    }

    /// Intern every distinct channel in `txs`; fills `ch_of_tx` (one id
    /// per transmission) and the per-channel transmission counts.
    pub(crate) fn intern_channels(&mut self, txs: &[Transmission], ch_of_tx: &mut Vec<u32>) {
        self.chan_ids.clear();
        self.channels.clear();
        ch_of_tx.clear();
        ch_of_tx.reserve(txs.len());
        for t in txs {
            let id = self.intern(t.channel);
            ch_of_tx.push(id);
        }
        self.ch_tx_count.clear();
        self.ch_tx_count.resize(self.channels.len(), 0);
        for &id in ch_of_tx.iter() {
            self.ch_tx_count[id as usize] += 1;
        }
    }

    /// Intern a channel *universe* directly (first-appearance order),
    /// for runs whose transmissions are not all materialized up front
    /// (the sharded / streaming drivers in [`crate::shard`]). Resets
    /// the per-channel transmission counts to zero; the caller tallies
    /// them as plans flow through.
    pub(crate) fn intern_channel_list(&mut self, universe: &[Channel]) {
        self.chan_ids.clear();
        self.channels.clear();
        for &ch in universe {
            self.intern(ch);
        }
        self.ch_tx_count.clear();
        self.ch_tx_count.resize(self.channels.len(), 0);
    }

    /// Interned id of `ch`, if it is part of the current universe.
    pub(crate) fn channel_id(&self, ch: &Channel) -> Option<u32> {
        let key = chan_key(ch);
        self.chan_ids
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.chan_ids[i].1)
    }

    /// Rebuild the link tables, candidate index and pair classes for
    /// the current node powers and gateway configurations. Call after
    /// [`Self::intern_channels`].
    pub(crate) fn rebuild(
        &mut self,
        topo: &Topology,
        node_power: &[TxPowerDbm],
        gateways: &[Gateway],
    ) {
        self.rebuild_links(topo, node_power);
        self.rebuild_channels(gateways);
    }

    /// The flat per-(node, gateway) RSSI/SNR tables — the memory-heavy
    /// half of [`Self::rebuild`]. The sharded driver skips this and
    /// builds *compact per-shard* tables instead (`shard_nodes ×
    /// shard_gateways` rather than `nodes × gateways`), which is what
    /// keeps million-node runs cache-resident.
    pub(crate) fn rebuild_links(&mut self, topo: &Topology, node_power: &[TxPowerDbm]) {
        let n_nodes = topo.nodes.len();
        let floor = noise_floor_dbm(Bandwidth::Khz125);
        self.rssi.clear();
        self.snr.clear();
        // Row-wise fill straight from the loss matrix: same arithmetic
        // as `topo.rssi_dbm` / `Topology::snr_db`, minus the per-entry
        // double indexing (the 100k-node table is tens of MB).
        debug_assert_eq!(node_power.len(), n_nodes);
        let links = topo.loss_db.len() * topo.loss_db.width();
        self.rssi.reserve(links);
        self.snr.reserve(links);
        for (power, row) in node_power.iter().zip(&topo.loss_db) {
            for &loss in row {
                let rssi = power.0 - loss;
                self.rssi.push(rssi);
                self.snr.push(rssi - floor);
            }
        }
    }

    /// The channel-indexed half of [`Self::rebuild`]: candidate gateway
    /// lists, spectral pair classes, overlap adjacency and the hoisted
    /// noise terms. Cheap (`O(channels × (gateways + channels))`) and
    /// independent of node count, so the sharded driver can run it
    /// without touching the global link tables.
    pub(crate) fn rebuild_channels(&mut self, gateways: &[Gateway]) {
        let n_gws = gateways.len();
        self.n_gws = n_gws;
        let floor = noise_floor_dbm(Bandwidth::Khz125);
        self.noise_lin = 10f64.powf(floor / 10.0);
        self.noise_only_db = 10.0 * self.noise_lin.log10();

        let n_ch = self.channels.len();
        if self.cand.len() < n_ch {
            self.cand.resize_with(n_ch, Vec::new);
        }
        self.is_cand.clear();
        self.is_cand.resize(n_ch * n_gws, false);
        for (ci, ch) in self.channels.iter().enumerate() {
            let list = &mut self.cand[ci];
            list.clear();
            for (gi, g) in gateways.iter().enumerate() {
                if g.listens_to(ch) {
                    list.push(gi as u32);
                    self.is_cand[ci * n_gws + gi] = true;
                }
            }
        }

        if self.overlapping.len() < n_ch {
            self.overlapping.resize_with(n_ch, Vec::new);
        }
        self.pair.clear();
        self.pair.resize(n_ch * n_ch, PairClass::Disjoint);
        for v in 0..n_ch {
            self.overlapping[v].clear();
            for o in 0..n_ch {
                let rho = overlap_ratio(&self.channels[v], &self.channels[o]);
                if rho <= 0.0 {
                    continue;
                }
                self.overlapping[v].push(o as u32);
                self.pair[v * n_ch + o] = if rho >= DETECTION_OVERLAP_THRESHOLD {
                    PairClass::Detect
                } else {
                    PairClass::Leak {
                        gain_same: leakage_gain_db(&self.channels[v], &self.channels[o], false),
                        gain_orth: leakage_gain_db(&self.channels[v], &self.channels[o], true),
                    }
                };
            }
        }
    }
}

/// World-owned scratch reused across runs: the context plus every
/// per-run arena, so a warmed world's steady state is allocation-free.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// The per-run precomputed context.
    pub(crate) ctx: RunContext,
    /// Materialized transmissions for the current plan.
    pub(crate) txs: Vec<Transmission>,
    /// Interned channel id per transmission.
    pub(crate) ch_of_tx: Vec<u32>,
    /// The run's event schedule, sorted into exact pop order by
    /// [`crate::engine::sort_schedule`] (every event is known before
    /// the loop starts, so a sorted array replaces the heap; keeps its
    /// capacity across runs).
    pub(crate) timeline: Vec<(u64, Event)>,
    /// Per transmission: ids of spectrally-overlapping transmissions
    /// whose airtime intersects it, in registration (TxStart) order.
    pub(crate) interferers: Vec<Vec<u64>>,
    /// Flat admission arena: each transmission's (gateway, Seen)
    /// entries are contiguous (lock-on writes them in one burst).
    pub(crate) seen_buf: Vec<(u32, Seen)>,
    /// Per transmission: `(start, end)` span into `seen_buf`.
    pub(crate) seen_span: Vec<(u32, u32)>,
    /// Per transmission: the finished record, harvested at run end.
    pub(crate) records: Vec<Option<PacketRecord>>,
    /// Per channel id: transmissions currently on air.
    pub(crate) buckets: Vec<Vec<u64>>,
    /// Per transmission: its index within its channel bucket (kept
    /// current by swap-remove fixups).
    pub(crate) pos_in_bucket: Vec<u32>,
    /// Per transmission: monotonic TxStart sequence number, used to
    /// restore chronological order after buckets are permuted by
    /// swap-remove.
    pub(crate) start_seq: Vec<u32>,
    /// Gather buffer for one TxStart's bucket scan.
    pub(crate) gathered: Vec<u64>,
    /// Per gateway: not-detected tally accumulated during the run
    /// (candidate visits failing the SNR gate at an up gateway).
    pub(crate) undetected: Vec<u64>,
    /// Per gateway: `faults.gateway_ever_down`, sampled once per run.
    pub(crate) ever_down: Vec<bool>,
    /// Per gateway: `faults.decoder_lockups_possible`, sampled once per
    /// run.
    pub(crate) ever_locked: Vec<bool>,
    /// Receiving-gateway buffer for one TxEnd.
    pub(crate) receiving: Vec<usize>,
    /// Per-seen-gateway buffers for the batched verdict computation.
    pub(crate) vscratch: VerdictScratch,
}
