//! Figure 3 — how a COTS gateway admits concurrent packets.
//!
//! (a,b) 20 micro-slotted nodes under the two alignment schemes: the
//! gateway receives packets in *lock-on* order (preamble end), so under
//! Scheme (b) exactly nodes 1–16 are received; (c) SNR grants no
//! priority; (d) crowded channels are not penalized; (e,f) with two
//! coexisting networks, each gateway wastes decoders on the other
//! network's packets.

use crate::experiments::band_channels;
use crate::report::Table;
use crate::scenario::{NetworkSpec, WorldBuilder, PAYLOAD_LEN};
use lora_phy::channel::Channel;
use lora_phy::types::DataRate;
use sim::traffic::{concurrent_burst, BurstScheme, TxPlan};
use sim::world::SimWorld;

/// Run this experiment: build its scenario, measure, and emit the
/// table/CSV outputs (plus obs events when a session is active).
pub fn run() {
    parts_ab();
    part_c();
    part_d();
    parts_ef();
}

fn world(n_nodes: usize, networks: usize) -> SimWorld {
    let channels = band_channels(1_600_000);
    let mut b = WorldBuilder::testbed(333);
    // A lab-bench-scale deployment (the paper's §3.1 is a controlled
    // case study): links are short and power spreads stay inside the
    // cross-SF rejection margin, so only decoder behaviour shows.
    b.area_m = (120.0, 90.0);
    b.shadowing_db = 0.0;
    for net in 0..networks {
        b = b.network(NetworkSpec {
            network_id: net as u32 + 1,
            n_nodes: n_nodes / networks,
            gw_channels: vec![channels.clone(); 1],
        });
    }
    b.build()
}

/// 20 nodes on distinct (channel, DR) combos, scheduled in node order.
fn assignments(n: usize) -> Vec<(usize, Channel, DataRate)> {
    let channels = band_channels(1_600_000);
    (0..n)
        .map(|i| {
            (
                i,
                channels[i % 8],
                DataRate::from_index((i / 8) % 6).unwrap(),
            )
        })
        .collect()
}

fn prr_row(recs: &[sim::world::PacketRecord], n: usize) -> Vec<String> {
    (0..n)
        .map(|node| {
            let r = recs.iter().find(|r| r.node == node).unwrap();
            if r.delivered { "1.0" } else { "0.0" }.to_string()
        })
        .collect()
}

/// Fig 3a/b's burst under `scheme`. 48-byte payloads keep all 20
/// packets on air simultaneously, so the two alignment schemes expose
/// pure lock-on-order admission: under (a) the short-preamble nodes
/// lock first despite starting last; under (b) exactly nodes 1–16 are
/// received.
fn burst_ab(scheme: BurstScheme) -> (SimWorld, Vec<TxPlan>) {
    let plans = concurrent_burst(&assignments(20), 48, 1_000_000, 2_000, scheme);
    (world(20, 1), plans)
}

fn parts_ab() {
    let mut t = Table::new(
        "Fig 3a/3b — per-node PRR, 20 concurrent nodes, one gateway",
        &[
            "scheme", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8", "n9", "n10", "n11", "n12",
            "n13", "n14", "n15", "n16", "n17", "n18", "n19", "n20",
        ],
    );
    for (name, scheme) in [
        ("a_lead", BurstScheme::LeadingPreambleOrdered),
        ("b_final", BurstScheme::FinalPreambleOrdered),
    ] {
        let (mut w, plans) = burst_ab(scheme);
        let recs = w.run(&plans);
        let mut row = vec![name.to_string()];
        row.extend(prr_row(&recs, 20));
        t.row(row);
        let received = recs.iter().filter(|r| r.delivered).count();
        println!("scheme {name}: {received}/20 received");
    }
    t.emit("fig03ab_schemes");
}

/// Fig 3c's burst: scheme (b) with per-node SNR forced between −5 and
/// +19 dB. The drop decision stays pure lock-on order.
fn burst_c() -> (SimWorld, Vec<TxPlan>) {
    let mut w = world(20, 1);
    for i in 0..20 {
        // SNR = 14 − loss + 117; pick loss for SNR in [−5, +20].
        let target_snr = -5.0 + (i as f64 % 5.0) * 6.0;
        w.topo.loss_db[i][0] = 14.0 + 117.03 - target_snr;
    }
    let plans = concurrent_burst(
        &assignments(20),
        PAYLOAD_LEN,
        1_000_000,
        2_000,
        BurstScheme::FinalPreambleOrdered,
    );
    (w, plans)
}

fn part_c() {
    let (mut w, plans) = burst_c();
    let recs = w.run(&plans);
    let first16: Vec<bool> = (0..20).map(|n| recs[n].delivered).collect();
    let mut t = Table::new(
        "Fig 3c — varying SNR does not change FCFS order",
        &["node", "snr_db", "received"],
    );
    for (i, &received) in first16.iter().enumerate() {
        let snr = w.topo.snr_db(i, 0, lora_phy::types::TxPowerDbm(14.0));
        t.row(vec![
            (i + 1).to_string(),
            format!("{snr:.1}"),
            (received as u8).to_string(),
        ]);
    }
    t.emit("fig03c_snr");
}

/// Fig 3d's burst: crowded channels (1–3 carry 5 nodes each) vs idle
/// channels. The gateway treats them fairly — only lock-on order
/// matters.
fn burst_d() -> (SimWorld, Vec<TxPlan>) {
    let channels = band_channels(1_600_000);
    let assigns: Vec<(usize, Channel, DataRate)> = (0..20)
        .map(|i| {
            let (ch, dr) = if i < 15 {
                (channels[i / 5], DataRate::from_index(i % 5).unwrap())
            } else {
                (channels[3 + (i - 15)], DataRate::DR5)
            };
            (i, ch, dr)
        })
        .collect();
    let plans = concurrent_burst(
        &assigns,
        PAYLOAD_LEN,
        1_000_000,
        2_000,
        BurstScheme::FinalPreambleOrdered,
    );
    (world(20, 1), plans)
}

fn part_d() {
    let (mut w, plans) = burst_d();
    let recs = w.run(&plans);
    let mut t = Table::new(
        "Fig 3d — crowded vs idle channels, FCFS unchanged",
        &["node", "channel", "received"],
    );
    for r in &recs {
        t.row(vec![
            (r.node + 1).to_string(),
            format!("{:.1}MHz", r.channel.center_hz as f64 / 1e6),
            (r.delivered as u8).to_string(),
        ]);
    }
    let received = recs.iter().filter(|r| r.delivered).count();
    println!("crowded-channel burst: {received}/20 received (first 16 by lock-on)");
    t.emit("fig03d_crowding");
}

/// Fig 3e/f's burst: two networks × 10 nodes, interleaved in time, one
/// gateway each on the same spectrum. Each gateway admits all 16 first
/// arrivals (both networks) and filters the foreign ones after
/// decoding.
fn burst_ef() -> (SimWorld, Vec<TxPlan>) {
    // Interleave: odd slots network 1, even network 2.
    let channels = band_channels(1_600_000);
    let assigns: Vec<(usize, Channel, DataRate)> = (0..20)
        .map(|i| {
            // Node ids: 0..10 = net1, 10..20 = net2; schedule alternating.
            let node = if i % 2 == 0 { i / 2 } else { 10 + i / 2 };
            (
                node,
                channels[i % 8],
                DataRate::from_index((i / 8) % 6).unwrap(),
            )
        })
        .collect();
    let plans = concurrent_burst(
        &assigns,
        PAYLOAD_LEN,
        1_000_000,
        2_000,
        BurstScheme::FinalPreambleOrdered,
    );
    (world(20, 2), plans)
}

fn parts_ef() {
    let (mut w, plans) = burst_ef();
    let recs = w.run(&plans);
    let mut t = Table::new(
        "Fig 3e/3f — two coexisting networks, per-node reception",
        &["network", "node", "received", "loss_cause"],
    );
    for r in &recs {
        t.row(vec![
            r.network_id.to_string(),
            (r.node % 10 + 1).to_string(),
            (r.delivered as u8).to_string(),
            r.cause.map_or(String::new(), |c| format!("{c:?}")),
        ]);
    }
    for net in [1u32, 2] {
        let rx = recs
            .iter()
            .filter(|r| r.network_id == net && r.delivered)
            .count();
        println!("network {net}: {rx}/10 received");
    }
    let filtered: u64 = w.gateways.iter().map(|g| g.stats().foreign_filtered).sum();
    println!("foreign packets that occupied decoders end-to-end: {filtered}");
    t.emit("fig03ef_coexistence");
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{LossKind, SharedSink, TraceAnalyzer, VecSink};
    use sim::metrics::RunMetrics;

    /// The stream `--obs-out` records for this experiment — its five
    /// bursts, one segment each — and the records of the same runs.
    fn observed_run() -> (Vec<obs::ObsEvent>, Vec<sim::world::PacketRecord>) {
        let bursts = [
            burst_ab(BurstScheme::LeadingPreambleOrdered),
            burst_ab(BurstScheme::FinalPreambleOrdered),
            burst_c(),
            burst_d(),
            burst_ef(),
        ];
        let mut events = Vec::new();
        let mut records = Vec::new();
        for (segment, (mut w, plans)) in bursts.into_iter().enumerate() {
            let buffer = SharedSink::new(VecSink::new());
            w.set_obs_sink(Box::new(buffer.handle()));
            records.extend(w.run(&plans));
            buffer.with(|b| {
                let segment = segment as u64;
                events.extend(
                    b.events()
                        .iter()
                        .map(|&ev| crate::obs_session::in_segment(ev, segment)),
                )
            });
        }
        (events, records)
    }

    #[test]
    fn the_stream_counts_every_outcome_the_records_do() {
        let (events, records) = observed_run();
        let mut analyzer = TraceAnalyzer::new();
        analyzer.observe_all(&events);
        let report = analyzer.into_report();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.timelines.len(), 100, "one trace per transmission");

        let m = RunMetrics::from_records(&records, None);
        let lost = |kind| report.lost.get(&Some(kind)).copied().unwrap_or(0);
        assert_eq!(report.delivered, m.delivered);
        assert_eq!(lost(LossKind::DecoderIntra), m.losses.decoder_intra);
        assert_eq!(lost(LossKind::DecoderInter), m.losses.decoder_inter);
        assert_eq!(report.lost.values().sum::<u64>(), m.sent - m.delivered);
        assert_eq!(
            (
                report.delivered,
                m.losses.decoder_intra,
                m.losses.decoder_inter
            ),
            (80, 16, 4)
        );

        let count = |kind: &str| report.events.get(kind).copied().unwrap_or(0);
        assert_eq!(count("packet_lock_on"), 100);
        assert_eq!(count("decoder_acquired"), 96);
        assert_eq!(count("pool_full_drop"), 24);
        assert_eq!(count("steal_refused"), 8);
        // Every burst's world announces its own gateways: one row each,
        // with that world's network, peak and decoder-µs. Only Fig 3e/f's
        // two gateways see foreign holders, 8 of their 16 each.
        assert_eq!(count("gateway_info"), 6);
        let rows: Vec<(u32, Option<u32>, u32, u64, u64)> = report
            .contention()
            .per_gateway
            .iter()
            .map(|g| {
                (
                    g.gw,
                    g.network,
                    g.peak_in_use,
                    g.own_decoder_us,
                    g.foreign_decoder_us,
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                (0, Some(1), 16, 17_760_256, 0),
                (0, Some(1), 16, 23_461_888, 0),
                (0, Some(1), 16, 13_631_488, 0),
                (0, Some(1), 16, 6_703_104, 0),
                (0, Some(1), 16, 6_815_744, 6_815_744),
                (1, Some(2), 16, 6_815_744, 6_815_744),
            ]
        );
    }
}
