//! Packet-lifecycle tracing acceptance tests: on a two-network
//! coexistence run the analyzer reconstructs complete, causally
//! consistent timelines; every pool-full drop of an own-network packet
//! names at least one foreign blocker; and the Chrome trace-event
//! export survives a serde round-trip.

use alphawan_system::gateway::config::GatewayConfig;
use alphawan_system::gateway::profile::GatewayProfile;
use alphawan_system::gateway::radio::Gateway;
use alphawan_system::lora_phy::pathloss::PathLossModel;
use alphawan_system::lora_phy::region::StandardChannelPlan;
use alphawan_system::lora_phy::types::DataRate;
use alphawan_system::obs::{self, SharedSink, TraceAnalyzer, TraceReport, VecSink};
use alphawan_system::sim::topology::Topology;
use alphawan_system::sim::traffic::{concurrent_burst, BurstScheme};
use alphawan_system::sim::world::SimWorld;

const NODES: usize = 24;

/// Fig. 2b in miniature: two operators interleaved over 24 nodes, one
/// gateway each, both listening on the same 8 channels.
fn coexistence_world() -> SimWorld {
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
    let node_network = (0..NODES).map(|i| (i % 2) as u32 + 1).collect();
    SimWorld::new(topo, node_network, gateways)
}

fn saturating_burst() -> Vec<alphawan_system::sim::traffic::TxPlan> {
    let plan = StandardChannelPlan::us915_subband(0);
    let assigns: Vec<_> = (0..NODES)
        .map(|i| {
            (
                i,
                plan.channels[i % 8],
                DataRate::from_index(i / 8 % 6).unwrap(),
            )
        })
        .collect();
    concurrent_burst(
        &assigns,
        10,
        1_000_000,
        2_000,
        BurstScheme::FinalPreambleOrdered,
    )
}

/// Run the coexistence burst observed and return (events, report).
fn traced_run() -> (Vec<obs::ObsEvent>, TraceReport) {
    let mut world = coexistence_world();
    let sink = SharedSink::new(VecSink::new());
    world.set_obs_sink(Box::new(sink.handle()));
    world.run(&saturating_burst());
    let events = sink.with(|s| s.events().to_vec());
    let mut analyzer = TraceAnalyzer::new();
    analyzer.observe_all(&events);
    let report = analyzer.into_report();
    (events, report)
}

#[test]
fn timelines_are_complete_and_causally_consistent() {
    let (events, report) = traced_run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.events.values().sum::<u64>(), events.len() as u64);
    assert_eq!(report.gateways.len(), 2);
    assert_eq!(report.timelines.len(), NODES, "one timeline per tx");
    for tl in report.timelines.values() {
        assert_ne!(tl.trace, 0, "tx {} untraced", tl.tx);
        assert!(tl.start_us.is_some(), "tx {} missing TxStart", tl.tx);
        assert!(tl.lock_on_us.is_some(), "tx {} missing lock-on", tl.tx);
        assert!(tl.delivered.is_some(), "tx {} missing outcome", tl.tx);
        // Every hold is closed and inside the packet's airtime.
        for h in &tl.holds {
            let end = h.end_us.expect("hold closed");
            assert!(h.start_us <= end);
            assert_eq!(Some(h.start_us), tl.lock_on_us);
        }
    }
    // Trace ids are pairwise distinct.
    let mut ids: Vec<u64> = report.timelines.keys().copied().collect();
    ids.dedup();
    assert_eq!(ids.len(), NODES);
}

#[test]
fn every_own_network_drop_names_a_foreign_blocker() {
    let (_, report) = traced_run();
    let own_drops: Vec<_> = report
        .drops
        .iter()
        .filter(|d| d.gw_network.is_some() && d.gw_network == d.victim_network)
        .collect();
    assert!(
        !own_drops.is_empty(),
        "burst did not saturate the pools — scenario regressed"
    );
    for d in own_drops {
        assert!(
            d.foreign_blockers().count() >= 1,
            "own-network drop of tx {} at gw {} (t={}µs) has no foreign blocker: {:?}",
            d.victim_tx,
            d.gw,
            d.t_us,
            d.blockers
        );
        // Blockers really were holding: each names an admitted packet.
        for b in &d.blockers {
            let tl = &report.timelines[&b.trace];
            assert!(
                tl.holds.iter().any(|h| h.gw == d.gw
                    && h.start_us <= d.t_us
                    && h.end_us.is_none_or(|e| e >= d.t_us)),
                "blocker tx {} was not holding a decoder at gw {} at t={}µs",
                b.tx,
                d.gw,
                d.t_us
            );
        }
    }
    // The aggregate view agrees: foreign decoder time was burned.
    let c = report.contention();
    assert!(c.foreign_decoder_us_total > 0);
    assert!(c
        .pairs
        .iter()
        .any(|p| p.blocker_network != p.victim_network && p.drops > 0));
}

#[test]
fn chrome_export_round_trips() {
    let (events, _) = traced_run();
    let mut json = Vec::new();
    let mut export = obs::ChromeExport::new(&mut json).expect("writes to memory");
    for ev in &events {
        export.observe(ev).expect("writes to memory");
    }
    let written = export.finish().expect("writes to memory");
    let doc: obs::ChromeTrace = serde_json::from_slice(&json).expect("valid chrome trace JSON");
    assert!(!doc.traceEvents.is_empty());
    assert_eq!(doc.traceEvents.len() as u64, written);
    // Written as the document serializes.
    assert_eq!(serde_json::to_vec(&doc).expect("serializes"), json);
    // Perfetto essentials: every duration event closes.
    for ev in &doc.traceEvents {
        if ev.ph == "X" {
            assert!(ev.dur.is_some(), "complete event {} without dur", ev.name);
        }
    }
}
