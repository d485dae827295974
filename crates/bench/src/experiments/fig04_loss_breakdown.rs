//! Figure 4 — the decoder contention problem quantified.
//!
//! (a) Loss-cause breakdown vs user scale for one network: channel
//! contention dominates small deployments, decoder contention takes
//! over beyond ≈3,000 users.
//! (b) Breakdown vs number of coexisting networks (1k users each):
//! inter-network decoder contention becomes the leading cause at ≥3
//! networks.

use crate::experiments::{band_channels, duty_workload};
use crate::report::{pct, Table};
use crate::scenario::{adr_data_rate, NetworkSpec, WorldBuilder};
use baselines::standard::standard_gateway_configs;
use lora_phy::types::{DataRate, TxPowerDbm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::metrics::RunMetrics;

const HORIZON_US: u64 = 60_000_000; // 60 s of 1% duty traffic

/// Run this experiment: build its scenario, measure, and emit the
/// table/CSV outputs (plus obs events when a session is active).
pub fn run() {
    part_a();
    part_b();
}

fn part_a() {
    let mut t = Table::new(
        "Fig 4a — packet-loss breakdown vs user scale (single network)",
        &["users", "loss_ratio", "decoder", "channel", "other"],
    );
    for users in [500usize, 1_000, 2_000, 3_000, 4_000, 6_000, 8_000] {
        let gw_cfgs = standard_gateway_configs(crate::experiments::BAND_LOW_HZ, 4_800_000, 15);
        let mut b = WorldBuilder::testbed(40_000 + users as u64).network(NetworkSpec {
            network_id: 1,
            n_nodes: users,
            gw_channels: gw_cfgs,
        });
        // Operational deployment: full testbed footprint, raw path loss
        // (realistic ADR data-rate mix and per-gateway detection range).
        b.area_m = (2_100.0, 1_600.0);
        b.min_link_loss_db = 100.0;
        let mut w = b.build();
        let channels = band_channels(4_800_000);
        let mut rng = StdRng::seed_from_u64(users as u64);
        let assigns: Vec<(usize, lora_phy::channel::Channel, DataRate)> = (0..users)
            .map(|i| {
                (
                    i,
                    channels[rng.gen_range(0..channels.len())],
                    adr_data_rate(&w.topo, i, TxPowerDbm(14.0)),
                )
            })
            .collect();
        let plans = duty_workload(&assigns, HORIZON_US, 41);
        let recs = w.run(&plans);
        let m = RunMetrics::from_records(&recs, None);
        let f = m.loss_fractions();
        t.row(vec![
            users.to_string(),
            pct(m.loss_ratio()),
            pct(f[0] + f[1]),
            pct(f[2] + f[3]),
            pct(f[4]),
        ]);
    }
    t.emit("fig04a_scale");
}

fn part_b() {
    let mut t = Table::new(
        "Fig 4b — loss breakdown vs coexisting networks (1k users each)",
        &[
            "networks",
            "loss_ratio",
            "decoder_intra",
            "decoder_inter",
            "channel_intra",
            "channel_inter",
            "other",
        ],
    );
    let channels = band_channels(1_600_000);
    for nets in 1usize..=6 {
        let mut b = WorldBuilder::testbed(50_000 + nets as u64);
        b.area_m = (2_100.0, 1_600.0);
        b.min_link_loss_db = 100.0;
        for net in 0..nets {
            b = b.network(NetworkSpec {
                network_id: net as u32 + 1,
                n_nodes: 1_000,
                gw_channels: vec![channels.clone(); 3],
            });
        }
        let mut w = b.build();
        let total = nets * 1_000;
        let mut rng = StdRng::seed_from_u64(nets as u64);
        let assigns: Vec<(usize, lora_phy::channel::Channel, DataRate)> = (0..total)
            .map(|i| {
                (
                    i,
                    channels[rng.gen_range(0..channels.len())],
                    adr_data_rate(&w.topo, i, TxPowerDbm(14.0)),
                )
            })
            .collect();
        let plans = duty_workload(&assigns, HORIZON_US, 42);
        let recs = w.run(&plans);
        let m = RunMetrics::from_records(&recs, None);
        let f = m.loss_fractions();
        t.row(vec![
            nets.to_string(),
            pct(m.loss_ratio()),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
            pct(f[4]),
        ]);
    }
    t.emit("fig04b_networks");
}
