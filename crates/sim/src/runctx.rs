//! Per-run precomputed context of the simulation engine.
//!
//! [`RunContext`] is built at the top of every run (gateway channel
//! configurations legitimately change between runs) from the run's
//! channel universe, and holds everything channel-indexed the event
//! loop would otherwise recompute per event:
//!
//! * an interned id per channel plus, per channel, the **candidate
//!   gateway index**: the (ascending) gateways whose listening set
//!   covers the channel. Lock-on visits only candidates; everything a
//!   non-candidate gateway would have done in the reference loop is a
//!   guaranteed `NotDetected`, reconciled in bulk at run end;
//! * a per-ordered-(victim, interferer) channel-pair classification
//!   (full-overlap capture vs partial-overlap leakage, with the
//!   leakage gains precomputed) so verdicts never call `overlap_ratio`
//!   or `leakage_gain_db`;
//! * the thermal noise power in linear and dB form, hoisted out of the
//!   per-verdict SINR computation.
//!
//! It is cheap (`O(channels × (gateways + channels))`) and independent
//! of node count; link gains live in compact per-shard tables
//! ([`crate::shard`]), never in a global `nodes × gateways` one.

use gateway::radio::Gateway;
use lora_phy::channel::{overlap_ratio, Channel};
use lora_phy::interference::{leakage_gain_db, DETECTION_OVERLAP_THRESHOLD};
use lora_phy::snr::noise_floor_dbm;
use lora_phy::types::Bandwidth;

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
#[derive(Debug)]
pub(crate) struct RunContext {
    /// Gateway count the candidate index was built for (row stride of
    /// `is_cand`).
    pub(crate) n_gws: usize,
    /// `(channel key, interned id)`, sorted by [`chan_key`]: the
    /// channel → id lookup. A channel universe is a few dozen entries,
    /// so a binary search beats hashing the channel per transmission.
    chan_ids: Vec<(u64, u32)>,
    /// Interned channels, by id (order of first appearance).
    pub(crate) channels: Vec<Channel>,
    /// Per channel id: gateways (ascending) that listen on it.
    pub(crate) cand: Vec<Vec<u32>>,
    /// `is_cand[ch * n_gws + gw]`: membership mirror of `cand`.
    pub(crate) is_cand: Vec<bool>,
    /// Per channel id: channel ids with any spectral overlap (includes
    /// the channel itself).
    pub(crate) overlapping: Vec<Vec<u32>>,
    /// `pair[victim * n_channels + interferer]` classification.
    pub(crate) pair: Vec<PairClass>,
    /// Thermal noise power, linear mW relative to dBm.
    pub(crate) noise_lin: f64,
    /// `10 · log10(noise_lin)`: the noise-only SINR denominator. Exact
    /// for interference-free verdicts because `x + 0.0` is bitwise `x`
    /// for the (positive, normal) noise power.
    pub(crate) noise_only_db: f64,
}

impl RunContext {
    /// The context of a run over the channel `universe` (interned in
    /// first-appearance order) and the current gateway configurations:
    /// candidate gateway lists, spectral pair classes, overlap
    /// adjacency and the hoisted noise terms.
    pub(crate) fn new(universe: &[Channel], gateways: &[Gateway]) -> RunContext {
        let mut chan_ids: Vec<(u64, u32)> = Vec::new();
        let mut channels: Vec<Channel> = Vec::new();
        for ch in universe {
            let key = chan_key(ch);
            if let Err(i) = chan_ids.binary_search_by_key(&key, |&(k, _)| k) {
                chan_ids.insert(i, (key, channels.len() as u32));
                channels.push(*ch);
            }
        }

        let n_gws = gateways.len();
        let n_ch = channels.len();
        let mut cand = vec![Vec::new(); n_ch];
        let mut is_cand = vec![false; n_ch * n_gws];
        for (ci, ch) in channels.iter().enumerate() {
            for (gi, g) in gateways.iter().enumerate() {
                if g.listens_to(ch) {
                    cand[ci].push(gi as u32);
                    is_cand[ci * n_gws + gi] = true;
                }
            }
        }

        let mut overlapping = vec![Vec::new(); n_ch];
        let mut pair = vec![PairClass::Disjoint; n_ch * n_ch];
        for v in 0..n_ch {
            for o in 0..n_ch {
                let rho = overlap_ratio(&channels[v], &channels[o]);
                if rho <= 0.0 {
                    continue;
                }
                overlapping[v].push(o as u32);
                pair[v * n_ch + o] = if rho >= DETECTION_OVERLAP_THRESHOLD {
                    PairClass::Detect
                } else {
                    PairClass::Leak {
                        gain_same: leakage_gain_db(&channels[v], &channels[o], false),
                        gain_orth: leakage_gain_db(&channels[v], &channels[o], true),
                    }
                };
            }
        }

        let noise_lin = 10f64.powf(noise_floor_dbm(Bandwidth::Khz125) / 10.0);
        RunContext {
            n_gws,
            chan_ids,
            channels,
            cand,
            is_cand,
            overlapping,
            pair,
            noise_lin,
            noise_only_db: 10.0 * noise_lin.log10(),
        }
    }

    /// Number of distinct channels in the run's universe.
    pub(crate) fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Interned id of `ch`, if it is part of the run's universe.
    pub(crate) fn channel_id(&self, ch: &Channel) -> Option<u32> {
        let key = chan_key(ch);
        self.chan_ids
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.chan_ids[i].1)
    }
}
