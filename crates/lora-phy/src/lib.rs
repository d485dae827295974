//! # lora-phy — LoRa physical-layer model
//!
//! This crate models the parts of the LoRa physical layer that govern
//! network capacity in the AlphaWAN paper (SIGCOMM 2025):
//!
//! * modulation parameters: spreading factors, bandwidths, data rates and
//!   coding rates ([`types`]);
//! * on-air time of a LoRa packet, computed from the Semtech modem design
//!   equations ([`airtime`]);
//! * receiver sensitivity, demodulation SNR floors and link budgets
//!   ([`snr`]);
//! * frequency channels, channel grids, overlap between partially aligned
//!   channels and the regional channel plans LoRaWAN operators deploy
//!   ([`channel`], [`region`]);
//! * a statistical urban radio channel: log-distance path loss with
//!   lognormal shadowing, plus the distance-ring abstraction the paper's
//!   channel-planning formulation uses ([`pathloss`]);
//! * interference outcomes between concurrent transmissions: the capture
//!   effect, quasi-orthogonality across spreading factors, and the
//!   frequency-selectivity model for misaligned channels that underpins
//!   AlphaWAN's inter-network isolation (Strategy ⑧) ([`interference`]);
//! * directional antenna gain patterns used in the paper's Strategy ⑥
//!   feasibility study ([`antenna`]).
//!
//! Everything is deterministic and allocation-light; random effects
//! (shadowing) take an explicit RNG so simulations are reproducible.

pub mod airtime;
pub mod antenna;
pub mod channel;
pub mod interference;
pub mod pathloss;
pub mod region;
pub mod snr;
pub mod types;

pub use airtime::{Airtime, PacketParams};
pub use channel::{overlap_ratio, Channel, ChannelGrid};
pub use interference::{capture_outcome, leakage_gain_db, CaptureOutcome};
pub use pathloss::{PathLossModel, DISTANCE_RINGS};
pub use region::{Region, StandardChannelPlan};
pub use snr::{demod_snr_floor_db, noise_floor_dbm, sensitivity_dbm};
pub use types::{Bandwidth, CodingRate, DataRate, SpreadingFactor, TxPowerDbm};
