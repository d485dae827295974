//! Synthetic packet-trace pool — the stand-in for the paper's
//! Appendix D dataset ("over 100,000 packet traces collected from 500
//! sites in our testbed, with packet SNRs ranging from −15 dB to 5 dB").
//!
//! A [`TracePool`] holds per-site link observations (per-gateway SNRs)
//! sampled from a topology. Long-term simulations draw each synthetic
//! node's link profile from a site's traces instead of a fresh path-loss
//! roll, exactly how the paper synthesizes "node traffic across
//! different frequency channels" and simulates "the communications of
//! massive IoT nodes" from recorded traces. Pools serialize to JSON so
//! a collected pool can be reused across runs.

use crate::topology::Topology;
use lora_phy::types::TxPowerDbm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One recorded packet observation at one site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Site the observation was collected at.
    pub site: usize,
    /// SNR per gateway, dB (NaN-free; unreachable gateways omitted by
    /// clamping to a floor far below any demod threshold).
    pub snr_per_gw: Vec<f64>,
}

/// A pool of packet traces collected from a fixed set of sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePool {
    /// Gateway count every record's `snr_per_gw` is indexed by.
    pub n_gateways: usize,
    /// The collected observations.
    pub records: Vec<TraceRecord>,
}

/// SNR clamp for unreachable links in a trace.
pub const TRACE_SNR_FLOOR_DB: f64 = -40.0;

impl TracePool {
    /// Collect `per_site` packet observations from each of `n_sites`
    /// random sites of `topo`, with per-packet fading of `fading_db`
    /// std-dev. SNRs are clamped into the paper's −15…+5 dB window at
    /// the best gateway (weaker gateways fall where they fall).
    pub fn collect(
        topo: &Topology,
        n_sites: usize,
        per_site: usize,
        fading_db: f64,
        seed: u64,
    ) -> TracePool {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_gw = topo.gateways.len();
        let mut records = Vec::with_capacity(n_sites * per_site);
        for site_idx in 0..n_sites {
            let node = rng.gen_range(0..topo.nodes.len());
            // Per-site calibration offset: shift the best-gateway SNR
            // into the paper's measured window.
            let best = (0..n_gw)
                .map(|j| topo.snr_db(node, j, TxPowerDbm(14.0)))
                .fold(f64::NEG_INFINITY, f64::max);
            let target_best = rng.gen_range(-15.0..5.0);
            let offset = target_best - best;
            for _ in 0..per_site {
                let snr_per_gw = (0..n_gw)
                    .map(|j| {
                        let fade = if fading_db > 0.0 {
                            rng.gen_range(-fading_db..fading_db)
                        } else {
                            0.0
                        };
                        // Record at 0.1 dB granularity (what real
                        // gateways report) — also keeps JSON roundtrips
                        // bit-exact.
                        let snr = (topo.snr_db(node, j, TxPowerDbm(14.0)) + offset + fade)
                            .max(TRACE_SNR_FLOOR_DB);
                        (snr * 10.0).round() / 10.0
                    })
                    .collect();
                records.push(TraceRecord {
                    site: site_idx,
                    snr_per_gw,
                });
            }
        }
        TracePool {
            n_gateways: n_gw,
            records,
        }
    }

    /// Number of trace records in the pool.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the pool holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Draw a trace record uniformly.
    pub fn sample<'a, R: Rng + ?Sized>(&'a self, rng: &mut R) -> &'a TraceRecord {
        &self.records[rng.gen_range(0..self.records.len())]
    }

    /// Serialize the pool to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace pool serializes")
    }

    /// Load a pool from JSON.
    pub fn from_json(json: &str) -> Option<TracePool> {
        serde_json::from_str(json).ok()
    }

    /// Fraction of records whose best-gateway SNR falls inside
    /// `[lo, hi]` dB — for validating against the paper's window.
    #[cfg(test)]
    pub(crate) fn best_snr_within(&self, lo: f64, hi: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let n = self
            .records
            .iter()
            .filter(|r| {
                let best = r
                    .snr_per_gw
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                best >= lo && best <= hi
            })
            .count();
        n as f64 / self.records.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::pathloss::PathLossModel;

    fn pool() -> TracePool {
        let topo = Topology::new((2_100.0, 1_600.0), 600, 10, PathLossModel::default(), 77);
        TracePool::collect(&topo, 500, 20, 2.0, 7)
    }

    #[test]
    fn paper_scale_pool() {
        let p = pool();
        assert_eq!(p.len(), 10_000);
        assert_eq!(p.n_gateways, 10);
        // Best-gateway SNRs live in the paper's window (±fading slack).
        assert!(p.best_snr_within(-17.5, 7.5) > 0.99);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = pool();
        let b = pool();
        assert_eq!(a, b);
    }

    #[test]
    fn json_roundtrip() {
        let p = {
            let topo = Topology::new((500.0, 500.0), 20, 3, PathLossModel::default(), 1);
            TracePool::collect(&topo, 5, 4, 1.0, 2)
        };
        let json = p.to_json();
        assert_eq!(TracePool::from_json(&json), Some(p));
        assert_eq!(TracePool::from_json("{"), None);
    }

    #[test]
    fn sampling_covers_sites() {
        let p = pool();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(p.sample(&mut rng).site);
        }
        assert!(seen.len() > 400, "only {} sites sampled", seen.len());
    }

    #[test]
    fn floor_clamps_unreachable_links() {
        let p = pool();
        assert!(p
            .records
            .iter()
            .all(|r| r.snr_per_gw.iter().all(|&s| s >= TRACE_SNR_FLOOR_DB)));
    }
}
