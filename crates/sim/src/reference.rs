//! The executable specification of a run: the seed revision's plain
//! event loop, kept as the oracle the engine is held to.
//!
//! [`run_with_faults_reference`] is the original
//! `SimWorld::run_with_faults` algorithm: one binary-heap queue, every
//! lock-on visits **every** gateway and recomputes the per-(node,
//! gateway) RSSI/SNR from the topology, `TxStart` scans the full
//! on-air list, `TxEnd` removes by `retain`, and every run allocates
//! its interferer/admission bookkeeping afresh. It even keeps the dead
//! `snr_v` computation, because the point is to differentially test
//! (and time) against the original physics, not a cleaned-up
//! strawman. Two deliberate departures: the leaked-interference sum is
//! folded in the fixed point of `crate::accum` rather than in f64, so
//! that the engine's incremental sum is the same integer whatever order
//! it was added in; and capture asks only whether the victim leads the
//! collider by the threshold, without the seed's lock-on-order branch,
//! which `capture_outcome`'s symmetry made a no-op.
//!
//! Four pieces hold no physics and are shared with the engine rather
//! than copied: the `Transmission` builder (`Transmission::from_plan`,
//! `Transmission::at_gateway`), the run-start gateway identities
//! (`SimWorld::emit_gateway_info`), the loss ladder
//! (`crate::metrics::LossFold`, over the crate's own `Seen` and
//! `Verdict`) and the outcome tail (`Transmission::emit_outcome`,
//! `Transmission::record`). Each is a pure function of what the two
//! loops still derive independently — each gateway's admission, the
//! verdict there, the crash windows — so a divergence in anything the
//! differential exists to test still shows as differing records or
//! events. The ladder's own table is in `metrics`' unit tests.
//!
//! Its consumer is the workspace `sim_equivalence` proptest (and the
//! spot checks in [`crate::shard`] and [`crate::world`]), which assert
//! the engine behind every `SimWorld::run*` entry point is
//! record-for-record (and event-for-event) identical to this loop at
//! any shard count, on random topologies, traffic and fault schedules.
//!
//! Like the engine, a reference run consumes one run epoch (trace ids
//! are minted identically) and streams to the world's attached
//! observability sink, so the two are interchangeable mid-stream.

#![allow(clippy::all)]

use crate::accum::{from_fixed, leak_fx, Verdict};
use crate::engine::{Event, EventQueue};
use crate::metrics::{Fate, LossFold};
use crate::shard::Seen;
use crate::topology::Topology;
use crate::traffic::TxPlan;
use crate::world::{PacketRecord, SimWorld, Transmission};
use gateway::radio::{LockOnOutcome, PacketAtGateway};
use lora_phy::channel::overlap_ratio;
use lora_phy::interference::{
    capture_outcome, leakage_gain_db, CaptureOutcome, CROSS_SF_REJECTION_DB,
    DETECTION_OVERLAP_THRESHOLD,
};
use lora_phy::snr::{decodable, noise_floor_dbm};
use lora_phy::types::{Bandwidth, TxPowerDbm};
use obs::{NullSink, ObsEvent, ObsSink};

/// Execute `plans` on `world` with the specification loop. Replays the
/// seed revision's algorithm exactly; see the module docs.
pub fn run_with_faults_reference(
    world: &mut SimWorld,
    plans: &[TxPlan],
    faults: &dyn crate::faults::InfraFaults,
) -> Vec<PacketRecord> {
    let epoch = world.run_epoch;
    world.run_epoch += 1;
    let txs: Vec<Transmission> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| Transmission::from_plan(p, i as u64, epoch, world.node_network[p.node]))
        .collect();

    let mut queue = EventQueue::new();
    for t in &txs {
        queue.push(t.start_us, Event::TxStart { tx_id: t.id });
        queue.push(t.lock_on_us, Event::LockOn { tx_id: t.id });
        queue.push(t.end_us, Event::TxEnd { tx_id: t.id });
    }

    let mut taken = world.obs.take();
    let mut null = NullSink;
    let sink: &mut dyn ObsSink = match taken.as_deref_mut() {
        Some(s) => s,
        None => &mut null,
    };

    world.emit_gateway_info(sink);

    let mut interferers: Vec<Vec<u64>> = vec![Vec::new(); txs.len()];
    let mut on_air: Vec<u64> = Vec::new();
    let mut seen: Vec<Vec<(usize, Seen)>> = vec![Vec::new(); txs.len()];
    let mut records: Vec<Option<PacketRecord>> = vec![None; txs.len()];

    while let Some((_, ev)) = queue.pop() {
        match ev {
            Event::TxStart { tx_id } => {
                let t = &txs[tx_id as usize];
                if sink.enabled() {
                    sink.record(&ObsEvent::TxStart {
                        t_us: t.start_us,
                        trace: t.trace,
                        tx: t.id,
                        node: t.node as u64,
                        network: t.network_id,
                    });
                }
                for &o_id in &on_air {
                    let o = &txs[o_id as usize];
                    if o.node != t.node && overlap_ratio(&t.channel, &o.channel) > 0.0 {
                        interferers[tx_id as usize].push(o_id);
                        interferers[o_id as usize].push(tx_id);
                    }
                }
                on_air.push(tx_id);
            }
            Event::LockOn { tx_id } => {
                let t = &txs[tx_id as usize];
                let now = t.lock_on_us;
                if sink.enabled() {
                    sink.record(&ObsEvent::PacketLockOn {
                        t_us: now,
                        trace: t.trace,
                        tx: t.id,
                        node: t.node as u64,
                        network: t.network_id,
                    });
                }
                for (g_idx, g) in world.gateways.iter_mut().enumerate() {
                    let pkt = packet_at(&world.topo, &world.node_power, t, g_idx);
                    if faults.gateway_down(g_idx, now) {
                        if g.would_detect(&pkt) {
                            seen[tx_id as usize].push((g_idx, Seen::DownAtLockOn));
                        }
                        continue;
                    }
                    g.set_locked_decoders(faults.locked_decoders(g_idx, now));
                    match g.on_lock_on_obs(pkt, sink) {
                        LockOnOutcome::Admitted => {
                            seen[tx_id as usize].push((g_idx, Seen::Admitted));
                        }
                        LockOnOutcome::DroppedNoDecoder => {
                            let foreign = g.foreign_held_decoders() > 0;
                            let lockup =
                                g.pool().locked() > 0 && g.decoders_in_use() < g.pool().capacity();
                            seen[tx_id as usize].push((
                                g_idx,
                                Seen::Dropped {
                                    foreign_held: foreign,
                                    lockup,
                                },
                            ));
                        }
                        LockOnOutcome::NotDetected => {}
                    }
                }
            }
            Event::TxEnd { tx_id } => {
                on_air.retain(|&id| id != tx_id);
                let record = finish_tx(
                    world,
                    &txs,
                    tx_id,
                    &seen[tx_id as usize],
                    &interferers,
                    faults,
                    sink,
                );
                records[tx_id as usize] = Some(record);
            }
        }
    }

    sink.flush();
    world.obs = taken;

    records
        .into_iter()
        .map(|r| r.expect("every tx finished"))
        .collect()
}

fn finish_tx(
    world: &mut SimWorld,
    txs: &[Transmission],
    tx_id: u64,
    seen: &[(usize, Seen)],
    interferers: &[Vec<u64>],
    faults: &dyn crate::faults::InfraFaults,
    sink: &mut dyn ObsSink,
) -> PacketRecord {
    let t = &txs[tx_id as usize];
    let mut receiving = Vec::new();
    let mut fold = LossFold::default();

    for &(g_idx, how) in seen {
        let verdict = verdict(world, txs, t, g_idx, &interferers[tx_id as usize]);
        let mut crashed_mid_rx = false;
        if how == Seen::Admitted {
            crashed_mid_rx = faults.gateway_down_during(g_idx, t.lock_on_us, t.end_us);
            let phy_ok = verdict == Verdict::Ok && !crashed_mid_rx;
            if let Some(gateway::radio::ReceptionOutcome::Received) =
                world.gateways[g_idx].on_tx_end_obs(tx_id, phy_ok, sink)
            {
                receiving.push(g_idx);
            }
        }
        if world.gateways[g_idx].network_id == t.network_id {
            fold.note(Fate {
                seen: how,
                verdict,
                crashed_mid_rx,
            });
        }
    }

    let cause = fold.cause(t.network_id, !receiving.is_empty());
    t.emit_outcome(sink, cause);
    t.record(receiving, cause)
}

fn verdict(
    world: &SimWorld,
    txs: &[Transmission],
    t: &Transmission,
    g_idx: usize,
    intf: &[u64],
) -> Verdict {
    let rssi_v = world.topo.rssi_dbm(t.node, g_idx, world.node_power[t.node]);
    // The seed revision computed (and discarded) the interference-free
    // SNR on every verdict; the replica keeps the wasted work.
    let snr_v = world.topo.snr_db(t.node, g_idx, world.node_power[t.node]);
    let sf_v = t.dr.spreading_factor();
    // Leaked power is folded in fixed point (an integer sum, so the
    // engine's incremental fold and this loop agree bit for bit).
    let mut intf_fx = 0u128;
    let mut strongest_collider: Option<(f64, u32)> = None;
    let mut interference_kill = false;

    for &o_id in intf {
        let o = &txs[o_id as usize];
        let rho = overlap_ratio(&t.channel, &o.channel);
        if rho <= 0.0 {
            continue;
        }
        let rssi_o = world.topo.rssi_dbm(o.node, g_idx, world.node_power[o.node]);
        if rho >= DETECTION_OVERLAP_THRESHOLD {
            if o.dr.spreading_factor() == sf_v {
                if world.cic {
                    continue;
                }
                // Capture is symmetric: which packet locked on first
                // does not matter.
                let survives = capture_outcome(rssi_v, rssi_o) == CaptureOutcome::FirstSurvives;
                if !survives {
                    match strongest_collider {
                        Some((r, _)) if r >= rssi_o => {}
                        _ => strongest_collider = Some((rssi_o, o.network_id)),
                    }
                }
            } else {
                if rssi_v - rssi_o < CROSS_SF_REJECTION_DB {
                    interference_kill = true;
                }
            }
        } else {
            let orth = o.dr.spreading_factor() != sf_v;
            if let Some(gain) = leakage_gain_db(&t.channel, &o.channel, orth) {
                intf_fx = intf_fx.wrapping_add(leak_fx(rssi_o, gain));
            }
        }
    }

    if let Some((_, net)) = strongest_collider {
        return Verdict::Collision { with_network: net };
    }
    let noise_lin = 10f64.powf(noise_floor_dbm(Bandwidth::Khz125) / 10.0);
    let sinr = rssi_v - 10.0 * (noise_lin + from_fixed(intf_fx)).log10();
    let _ = snr_v;
    if interference_kill || !decodable(sinr, sf_v, 0.0) {
        return Verdict::Interference;
    }
    Verdict::Ok
}

fn packet_at(
    topo: &Topology,
    node_power: &[TxPowerDbm],
    t: &Transmission,
    g_idx: usize,
) -> PacketAtGateway {
    t.at_gateway(
        topo.rssi_dbm(t.node, g_idx, node_power[t.node]),
        topo.snr_db(t.node, g_idx, node_power[t.node]),
    )
}
