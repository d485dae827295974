//! Packet-lifecycle tracing on the paper's Fig. 2b scenario: two
//! networks share one sub-band, one gateway each, and a concurrent
//! burst saturates the 16-decoder pools. Every event of every packet
//! carries a trace id, so the [`obs::TraceAnalyzer`] can reconstruct
//! who was *holding* a decoder whenever a pool-full drop happened —
//! naming the foreign blockers behind each inter-network loss instead
//! of just counting `DecoderContentionInter` in aggregate.
//!
//! ```text
//! cargo run --release --example trace_demo
//! ```

use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::region::StandardChannelPlan;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::obs::{SharedSink, TraceAnalyzer, VecSink};
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::{concurrent_burst, BurstScheme};
use alphawan_system::sim::world::SimWorld;

const NODES: usize = 24;

fn main() {
    // Two operators, interleaved nodes, one gateway each — both
    // gateways listen on the same 8 channels (uncoordinated
    // coexistence, the situation AlphaWAN's Master exists to prevent).
    let model = PathLossModel {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let topo = Topology::new((100.0, 100.0), NODES, 2, model, 1);
    let profile = GatewayProfile::rak7268cv2();
    let plan = StandardChannelPlan::us915_subband(0);
    let gateways = (0..2)
        .map(|j| {
            Gateway::new(
                j,
                j as u32 + 1,
                profile,
                GatewayConfig::new(profile, plan.channels.clone()).unwrap(),
            )
        })
        .collect();
    let node_network: Vec<u32> = (0..NODES).map(|i| (i % 2) as u32 + 1).collect();
    let mut world = SimWorld::new(topo, node_network, gateways);

    // Capture the full event stream in memory.
    let sink = SharedSink::new(VecSink::new());
    world.set_obs_sink(Box::new(sink.handle()));

    // An end-aligned concurrent burst on orthogonal settings: decoder
    // pools are the only bottleneck.
    let assigns: Vec<_> = (0..NODES)
        .map(|i| {
            (
                i,
                plan.channels[i % 8],
                DataRate::from_index(i / 8 % 6).unwrap(),
            )
        })
        .collect();
    let records = world.run(&concurrent_burst(
        &assigns,
        10,
        1_000_000,
        2_000,
        BurstScheme::FinalPreambleOrdered,
    ));

    for net in 1..=2u32 {
        let (sent, ok) = records
            .iter()
            .filter(|r| r.network_id == net)
            .fold((0, 0), |(s, d), r| (s + 1, d + r.delivered as usize));
        println!("network {net}: {ok}/{sent} delivered");
    }

    // Reconstruct per-packet timelines from the recorded events.
    let events = sink.with(|s| s.events().to_vec());
    let mut analyzer = TraceAnalyzer::new();
    analyzer.observe_all(&events);
    let report = analyzer.into_report();
    assert!(
        report.violations.is_empty(),
        "causality violations: {:?}",
        report.violations
    );

    println!(
        "\n{} events → {} packet timelines, {} pool-full drops",
        report.events.values().sum::<u64>(),
        report.timelines.len(),
        report.drops.len()
    );

    // Blocker → victim attribution: for each drop of an own-network
    // packet, who was sitting on the decoders?
    println!("\npool-full drops (own-network victims) and their blockers:");
    println!(
        "  {:>9} {:>3} {:>7} {:>7}   blockers (net×count)",
        "t_us", "gw", "victim", "v_net"
    );
    let mut own_net_drops = 0u32;
    let mut with_foreign = 0u32;
    for d in &report.drops {
        let own_victim = d.gw_network.is_some() && d.gw_network == d.victim_network;
        if !own_victim {
            continue;
        }
        own_net_drops += 1;
        let foreign = d.foreign_blockers().count();
        if foreign > 0 {
            with_foreign += 1;
        }
        let mut per_net: Vec<(u32, usize)> = Vec::new();
        for b in &d.blockers {
            let net = b.network.unwrap_or(0);
            match per_net.iter_mut().find(|(n, _)| *n == net) {
                Some((_, c)) => *c += 1,
                None => per_net.push((net, 1)),
            }
        }
        per_net.sort();
        let blockers: Vec<String> = per_net.iter().map(|(n, c)| format!("net{n}×{c}")).collect();
        println!(
            "  {:>9} {:>3} tx{:<5} {:>7}   {}  ({foreign} foreign)",
            d.t_us,
            d.gw,
            d.victim_tx,
            d.victim_network.map_or("?".into(), |n| format!("net{n}")),
            blockers.join(" ")
        );
    }
    assert!(own_net_drops > 0, "scenario produced no own-network drops");
    assert_eq!(
        own_net_drops, with_foreign,
        "every own-network pool-full drop must name at least one foreign blocker"
    );
    println!(
        "\nall {own_net_drops} own-network drops name ≥1 foreign blocker — \
         the losses are coexistence-induced, not self-inflicted"
    );

    // Aggregate contention attribution.
    let c = report.contention();
    println!("\ndecoder occupancy (µs):");
    for g in &c.per_gateway {
        println!(
            "  gw{} (net{}): own {:>9}  foreign {:>9}",
            g.gw,
            g.network.map_or(0, |n| n),
            g.own_decoder_us,
            g.foreign_decoder_us
        );
    }
    println!(
        "foreign decoder-µs an AlphaWAN-style Master would displace: {}",
        c.foreign_decoder_us_total
    );
    println!("\ntop blockers:");
    for b in c.top_blockers.iter().take(5) {
        println!(
            "  tx{:<4} net{}  foreign-held {:>8} µs, blocked {} drops",
            b.tx,
            b.network.map_or(0, |n| n),
            b.foreign_decoder_us,
            b.drops_blocked
        );
    }
}
