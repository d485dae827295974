//! # netserver — the network-server logic the daemons and planner run
//!
//! The backhaul half of the LoRaWAN stack (Fig. 1): gateways forward
//! every received packet plus metadata (channel, timestamp, SNR) to a
//! ChirpStack-like server. The socket side is `svc`'s `netserverd`;
//! this crate holds what it and the planner compute over those
//! uplinks — multi-gateway deduplication, and the operational logs
//! AlphaWAN's channel-planning input is derived from (§4.3.3: log
//! parser → traffic estimator → CP solver):
//!
//! * [`dedup`] — (DevAddr, FCnt) uplink deduplication window;
//! * [`logparser`] — turns raw gateway uplink logs into user-gateway
//!   link profiles and per-window traffic counts (the CP input);
//! * [`estimator`] — selects representative high-demand traffic windows
//!   ("aggressively uses samples with high capacity demand", §4.3.1);
//! * [`downlink_plan`] — picks the gateway and Class-A receive window
//!   for a downlink and builds its wire-ready `txpk`.

pub mod dedup;
pub mod downlink_plan;
pub mod estimator;
pub mod logparser;

pub use dedup::Deduplicator;
pub use downlink_plan::{plan_downlink, DownlinkPlan, UplinkContext};
pub use estimator::TrafficEstimator;
pub use logparser::{LinkProfile, LogParser, UplinkLog};
