//! Glue between the UDP ingest path and the network server: turns a
//! forwarder `rxpk` into a verified, deduplicated, logged uplink — the
//! complete backhaul pipeline of Fig. 1/Fig. 10.
//!
//! Flow per reception: peek the DevAddr from the raw PHY payload, look
//! up the session, decode + verify MIC, then hand the copy to the
//! server's dedup/registry/estimator path. This is also where the
//! paper's filtering asymmetry is visible in code: the *server* can
//! cheaply drop a foreign frame here, but the *gateway* has already
//! spent a decoder producing these bytes.

use crate::dedup::UplinkCopy;
use crate::logparser::UplinkLog;
use crate::server::{IngestOutcome, NetworkServer};
use crate::udp::IngestedUplink;
use lora_mac::frame::PhyPayload;
use lora_phy::types::DataRate;

/// Why a forwarded reception was not delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeOutcome {
    /// Fresh frame, session valid: application-visible delivery.
    Delivered(PhyPayload),
    /// Another gateway's copy of an already-processed frame.
    Duplicate,
    /// A copy delayed past the dedup window (faulty backhaul): dropped.
    Late,
    /// Corrupt Base64 / truncated PHY payload / not a data frame.
    Malformed,
    /// DevAddr unknown to this operator (a coexisting network's frame).
    ForeignOrUnknown,
    /// Known device but MIC or frame counter failed.
    Rejected,
}

/// Map one gateway EUI to a stable numeric gateway id for the logs.
fn gw_index(eui: u64) -> usize {
    eui as usize
}

/// Process one ingested uplink through the full server pipeline.
pub fn process_uplink(server: &mut NetworkServer, up: &IngestedUplink) -> BridgeOutcome {
    process_uplink_obs(server, up, &mut obs::NullSink)
}

/// [`process_uplink`] with observability: the dedup classification of
/// the copy — carrying the rxpk's `trce` trace id — goes to `sink`.
pub fn process_uplink_obs(
    server: &mut NetworkServer,
    up: &IngestedUplink,
    sink: &mut dyn obs::ObsSink,
) -> BridgeOutcome {
    let Some(raw) = up.rxpk.phy_payload() else {
        return BridgeOutcome::Malformed;
    };
    let Some(dev_addr) = PhyPayload::peek_dev_addr(&raw) else {
        return BridgeOutcome::Malformed;
    };
    let Some(keys) = server.registry.session(dev_addr).map(|s| s.keys) else {
        return BridgeOutcome::ForeignOrUnknown;
    };
    let Ok(frame) = PhyPayload::decode(&raw, &keys) else {
        return BridgeOutcome::Rejected;
    };

    let gw_id = gw_index(up.gateway.0);
    let copy = UplinkCopy {
        dev_addr,
        fcnt: frame.fcnt,
        gw_id,
        snr_db: up.rxpk.lsnr,
        received_us: up.rxpk.tmst,
        trace: up.rxpk.trce,
    };
    let log = UplinkLog {
        dev_addr,
        gw_id,
        channel: up.rxpk.channel(),
        dr: up.rxpk.dr_index().unwrap_or(DataRate::DR0),
        snr_db: up.rxpk.lsnr,
        timestamp_us: up.rxpk.tmst,
    };
    match server.ingest_obs(copy, log, sink) {
        IngestOutcome::Delivered => BridgeOutcome::Delivered(frame),
        IngestOutcome::Duplicate => BridgeOutcome::Duplicate,
        IngestOutcome::Late => BridgeOutcome::Late,
        IngestOutcome::Rejected => BridgeOutcome::Rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gateway::forwarder::codec::{GatewayEui, RxPacket};
    use lora_mac::device::{DevAddr, SessionKeys};
    use lora_phy::channel::Channel;
    use lora_phy::types::SpreadingFactor;

    fn ingested(raw: &[u8], gw: u64, tmst: u64) -> IngestedUplink {
        IngestedUplink {
            gateway: GatewayEui(gw),
            rxpk: RxPacket::new(
                tmst,
                Channel::khz125(916_900_000),
                SpreadingFactor::SF7,
                -95.0,
                7.0,
                raw,
            ),
        }
    }

    #[test]
    fn full_pipeline_delivers_and_dedups() {
        let addr = DevAddr::new(1, 3);
        let keys = SessionKeys::derive(&[9; 16], addr);
        let mut server = NetworkServer::new(1_000_000);
        server.registry.register(addr, keys);
        let wire = PhyPayload::uplink(addr, 0, 1, b"ping")
            .encode(&keys)
            .unwrap();

        match process_uplink(&mut server, &ingested(&wire, 1, 10)) {
            BridgeOutcome::Delivered(f) => assert_eq!(f.frm_payload, b"ping"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            process_uplink(&mut server, &ingested(&wire, 2, 20)),
            BridgeOutcome::Duplicate
        );
        assert_eq!(server.delivered(), 1);
        // Both copies reached the operational log (CP input).
        assert_eq!(
            server.logs.profile(addr).unwrap().reachable_gateways(),
            vec![1, 2]
        );
    }

    #[test]
    fn foreign_frames_classified() {
        let addr = DevAddr::new(2, 7);
        let keys = SessionKeys::derive(&[1; 16], addr);
        let mut server = NetworkServer::new(1_000_000);
        // Not registered: unknown/foreign.
        let wire = PhyPayload::uplink(addr, 0, 1, b"x").encode(&keys).unwrap();
        assert_eq!(
            process_uplink(&mut server, &ingested(&wire, 1, 5)),
            BridgeOutcome::ForeignOrUnknown
        );
        // Registered under *different* keys: MIC rejection.
        server
            .registry
            .register(addr, SessionKeys::derive(&[2; 16], addr));
        assert_eq!(
            process_uplink(&mut server, &ingested(&wire, 1, 6)),
            BridgeOutcome::Rejected
        );
    }

    #[test]
    fn trace_flows_from_rxpk_to_dedup_event() {
        let addr = DevAddr::new(1, 3);
        let keys = SessionKeys::derive(&[9; 16], addr);
        let mut server = NetworkServer::new(1_000_000);
        server.registry.register(addr, keys);
        let wire = PhyPayload::uplink(addr, 0, 1, b"ping")
            .encode(&keys)
            .unwrap();
        let mut up = ingested(&wire, 1, 10);
        up.rxpk = up.rxpk.with_trace(0xFACE);
        let mut sink = obs::VecSink::new();
        process_uplink_obs(&mut server, &up, &mut sink);
        match sink.events()[0] {
            obs::ObsEvent::Dedup { trace, .. } => assert_eq!(trace, 0xFACE),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        let mut server = NetworkServer::new(1_000_000);
        let mut up = ingested(&[0x40, 1, 2], 1, 5); // too short for a frame
        assert_eq!(process_uplink(&mut server, &up), BridgeOutcome::Malformed);
        up.rxpk.data = "!!!not-base64!!!".into();
        assert_eq!(process_uplink(&mut server, &up), BridgeOutcome::Malformed);
    }
}
