//! Full MAC/backhaul pipeline through the real codec and crypto:
//! device frames → two gateways' Semtech UDP forwarders → a live
//! `netserverd`, and planner MAC commands → device reconfiguration.

use alphawan_system::gateway::forwarder::client::PacketForwarder;
use alphawan_system::gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use alphawan_system::lora_mac::commands::MacCommand;
use alphawan_system::lora_mac::device::{DevAddr, Device, SessionKeys};
use alphawan_system::lora_mac::frame::{FrameCodecError, PhyPayload};
use alphawan_system::lora_phy::channel::Channel;
use alphawan_system::lora_phy::types::SpreadingFactor;
use alphawan_system::netserver::dedup::DedupOutcome;
use std::time::Duration;
use svc::{NetServerConfig, NetServerDaemon};

fn device(addr: DevAddr) -> Device {
    Device::new(
        addr,
        (0..8)
            .map(|i| Channel::khz125(916_900_000 + i * 200_000))
            .collect(),
    )
}

/// The rxpk `gw` forwards for `wire`, and the same rxpk as the server
/// reads it back out of the PUSH_DATA codec.
fn rxpk_through_codec(gw: GatewayEui, n: u16, wire: &[u8]) -> (RxPacket, RxPacket) {
    let rx = RxPacket::new(
        u64::from(n) * 1_000_000,
        Channel::khz125(916_900_000),
        SpreadingFactor::SF7,
        -96.0,
        6.5,
        wire,
    );
    let push = Datagram::PushData {
        token: n,
        eui: gw,
        rxpk: vec![rx.clone()],
    }
    .encode();
    let Some(Datagram::PushData { mut rxpk, .. }) = Datagram::decode(&push) else {
        panic!("PUSH_DATA does not decode");
    };
    assert_eq!(rxpk.len(), 1);
    (rx, rxpk.remove(0))
}

#[test]
fn encrypted_uplinks_from_two_gateways_are_decided_once_by_netserverd() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("netserverd");
    let addr = DevAddr::new(0x13, 77);
    let keys = SessionKeys::derive(&[0x42; 16], addr);
    let mut dev = device(addr);
    let mut gateways =
        [0xA, 0xB].map(|eui| PacketForwarder::new(daemon.addr(), GatewayEui(eui)).unwrap());

    let mut fcnts = Vec::new();
    for n in 0..3u16 {
        let fcnt = dev.next_fcnt();
        fcnts.push(fcnt);
        let text = format!("m{n}");
        let wire = PhyPayload::uplink(addr, fcnt, 1, text.as_bytes())
            .encode(&keys)
            .unwrap();
        for fwd in &mut gateways {
            let (rx, served) = rxpk_through_codec(fwd.eui(), n, &wire);
            // What the server parses still opens with the device's
            // keys: the MIC checks and FRMPayload decrypts intact.
            let frame = PhyPayload::decode(&served.phy_payload().expect("base64"), &keys)
                .expect("MIC intact after the codec");
            assert_eq!(frame.dev_addr, addr);
            assert_eq!(frame.fcnt, fcnt);
            assert_eq!(frame.frm_payload, text.as_bytes());
            fwd.push(vec![rx]).expect("PUSH_ACK");
        }
    }

    // The daemon publishes its counters only after deciding a drain.
    for _ in 0..400 {
        if daemon.counter("svc_datagrams_total") >= 6 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let decisions = daemon.decisions().concat();
    assert_eq!(decisions.len(), 6, "{decisions:?}");
    // Gateway A pushes first, so its copy (gateway id 0) is the new
    // one and B's (id 1) the duplicate; one key stays on one shard.
    for fcnt in fcnts {
        let judged: Vec<_> = decisions
            .iter()
            .filter(|d| d.fcnt == fcnt)
            .inspect(|d| assert_eq!(d.dev, addr.0, "{d:?}"))
            .map(|d| (d.gw, d.outcome))
            .collect();
        assert_eq!(
            judged,
            [(0, DedupOutcome::New), (1, DedupOutcome::Duplicate)],
            "FCnt {fcnt}"
        );
    }
    daemon.shutdown();
}

/// Wait until the daemon has decided `n` uplinks; returns them all.
fn decided(daemon: &NetServerDaemon, n: usize) -> Vec<svc::Decision> {
    for _ in 0..400 {
        let decisions = daemon.decisions().concat();
        if decisions.len() >= n {
            return decisions;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.decisions().concat()
}

#[test]
fn fcnt_is_a_new_frame_again_once_the_dedup_window_closes() {
    // netserverd keys on (DevAddr, FCnt) inside its dedup window and
    // keeps no per-device FCnt history: a counter reused a window
    // later is a new frame, one reused inside it a duplicate.
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("netserverd");
    let window = daemon.window_us();
    let addr = DevAddr::new(0x13, 78);
    let keys = SessionKeys::derive(&[0x42; 16], addr);
    let wire = PhyPayload::uplink(addr, 5, 1, b"again")
        .encode(&keys)
        .unwrap();
    let mut fwd = PacketForwarder::new(daemon.addr(), GatewayEui(0xC)).unwrap();
    for tmst in [1_000, 1_000 + window / 2, 2_000 + 2 * window] {
        let rx = RxPacket::new(
            tmst,
            Channel::khz125(916_900_000),
            SpreadingFactor::SF7,
            -96.0,
            6.5,
            &wire,
        );
        fwd.push(vec![rx]).expect("PUSH_ACK");
    }
    let judged: Vec<_> = decided(&daemon, 3)
        .iter()
        .map(|d| (d.dev, d.fcnt, d.outcome))
        .collect();
    assert_eq!(
        judged,
        [
            (addr.0, 5, DedupOutcome::New),
            (addr.0, 5, DedupOutcome::Duplicate),
            (addr.0, 5, DedupOutcome::New),
        ]
    );
    daemon.shutdown();
}

#[test]
fn planned_downlink_reaches_the_best_gateway_and_reconfigures_the_device() {
    use alphawan_system::lora_mac::class_a::ClassAParams;
    use alphawan_system::lora_mac::commands::LinkAdrReq;
    use alphawan_system::lora_mac::frame::MType;
    use alphawan_system::lora_phy::types::DataRate;
    use alphawan_system::netserver::{plan_downlink, LogParser, UplinkContext, UplinkLog};

    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("netserverd");
    let addr = DevAddr::new(0x13, 79);
    let keys = SessionKeys::derive(&[0x42; 16], addr);
    let mut dev = device(addr);
    let uplink = PhyPayload::uplink(addr, dev.next_fcnt(), 1, b"up")
        .encode(&keys)
        .unwrap();
    let channel = Channel::khz125(916_900_000);
    let tmst = 5_000_000;

    // Gateway A hears the device at 2 dB, gateway B at 8 dB.
    let mut gateways =
        [0xA, 0xB].map(|eui| PacketForwarder::new(daemon.addr(), GatewayEui(eui)).unwrap());
    let mut parser = LogParser::new(1_000_000);
    for (fwd, snr) in gateways.iter_mut().zip([2.0, 8.0]) {
        let rx = RxPacket::new(tmst, channel, SpreadingFactor::SF9, -110.0, snr, &uplink);
        fwd.push(vec![rx]).expect("PUSH_ACK");
        fwd.pull().expect("PULL_ACK");
    }
    // The daemon numbers gateways in the order it first hears them.
    for d in decided(&daemon, 2) {
        assert_eq!(d.dev, addr.0);
        parser.ingest(&UplinkLog {
            dev_addr: DevAddr(d.dev),
            gw_id: d.gw as usize,
            channel,
            dr: DataRate::DR3,
            snr_db: [2.0, 8.0][d.gw as usize],
            timestamp_us: d.t_us,
        });
    }

    // Answer with a LinkADRReq in FOpts, ready 300 ms after the uplink.
    let cmd = MacCommand::LinkAdrReq(LinkAdrReq {
        data_rate: DataRate::DR5,
        tx_power_idx: 2,
        ch_mask: 0b0000_0110,
        redundancy: 0,
    });
    let mut fopts = Vec::new();
    cmd.encode(&mut fopts);
    let downlink = PhyPayload {
        mtype: MType::UnconfirmedDataDown,
        dev_addr: addr,
        adr: true,
        ack: false,
        fcnt: 0,
        fopts,
        fport: None,
        frm_payload: Vec::new(),
    };
    let plan = plan_downlink(
        parser.profile(addr).expect("device heard"),
        &ClassAParams::defaults(Channel::khz125(923_300_000)),
        &UplinkContext {
            end_tmst: tmst,
            channel,
            dr: DataRate::DR3,
        },
        &downlink.encode(&keys).unwrap(),
        tmst + 300_000,
        100_000,
    )
    .expect("RX1 is still reachable");
    assert_eq!(plan.gw_id, 1, "gateway B heard the device best");
    assert_eq!(plan.txpk.tmst, tmst + 1_000_000, "RX1");

    let eui = gateways[plan.gw_id].eui().0;
    assert!(daemon.send_downlink(eui, 1, plan.txpk.clone()).unwrap());
    let txpk = gateways[plan.gw_id].recv_downlink().expect("PULL_RESP");
    assert_eq!(txpk, plan.txpk);

    // The device opens what the gateway emits and applies the command.
    let wire = alphawan_system::gateway::forwarder::b64::decode(&txpk.data).unwrap();
    let frame = PhyPayload::decode(&wire, &keys).expect("MIC intact");
    for cmd in MacCommand::decode_all_downlink(&frame.fopts) {
        dev.apply(&cmd);
    }
    assert_eq!(dev.data_rate, DataRate::DR5);
    assert_eq!(dev.tx_power.0, 16.0);
    assert_eq!(dev.enabled_channels().len(), 2);
    daemon.shutdown();
}

#[test]
fn foreign_network_frame_rejected_only_after_decode() {
    // The paper's filtering reality: a gateway/server can only reject a
    // foreign frame after full decode + MIC check.
    let addr = DevAddr::new(1, 5);
    let our_keys = SessionKeys::derive(&[1; 16], addr);
    let their_keys = SessionKeys::derive(&[2; 16], addr);
    let frame = PhyPayload::uplink(addr, 9, 1, b"not-for-you");
    let wire = frame.encode(&their_keys).unwrap();
    assert_eq!(
        PhyPayload::decode(&wire, &our_keys),
        Err(FrameCodecError::BadMic)
    );
}

#[test]
fn planner_commands_are_wire_compatible() {
    // AlphaWAN's reconfiguration commands round-trip the real encoder
    // and reconfigure a real device.
    use alphawan_system::alphawan::planner::IntraNetworkPlanner;
    use alphawan_system::lora_phy::channel::ChannelGrid;
    use alphawan_system::lora_phy::pathloss::PathLossModel;
    use alphawan_system::sim::topology::Topology;

    let topo = Topology::new(
        (300.0, 300.0),
        4,
        2,
        PathLossModel {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        },
        9,
    );
    let mut planner =
        IntraNetworkPlanner::new(ChannelGrid::standard(916_800_000, 1_600_000).channels(), 2);
    planner.ga.generations = 20;
    let outcome = planner.plan(&topo, vec![1.0; 4]);

    for i in 0..4 {
        let mut wire = Vec::new();
        for cmd in outcome.commands_for_node(i) {
            cmd.encode(&mut wire);
        }
        let mut dev = device(DevAddr::new(1, i as u32));
        for cmd in MacCommand::decode_all_downlink(&wire) {
            dev.apply(&cmd);
        }
        let (ch, dr, _) = outcome.node_settings[i];
        assert_eq!(dev.enabled_channels(), vec![ch]);
        assert_eq!(dev.data_rate, dr);
    }
}
