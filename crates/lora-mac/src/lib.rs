//! # lora-mac — LoRaWAN MAC layer
//!
//! Implements the MAC-layer machinery the AlphaWAN reproduction needs:
//!
//! * [`aes`] / [`cmac`] — AES-128 and AES-CMAC from scratch (no external
//!   crypto crates), validated against FIPS-197 and RFC 4493 vectors;
//! * [`frame`] — LoRaWAN PHYPayload encode/decode with MIC computation
//!   and payload encryption per LoRaWAN 1.0.x;
//! * [`commands`] — MAC commands (LinkADRReq, NewChannelReq, …): the
//!   application-layer knobs AlphaWAN uses to retune channels, data
//!   rates and Tx power on COTS devices (§4.3.3, "End-devices");
//! * [`duty`] — the 1% duty-cycle governor that shapes LoRaWAN traffic;
//! * [`class_a`] — the RX1/RX2 receive windows a downlink must hit;
//! * [`device`] — end-device session state that applies MAC commands.

pub mod aes;
pub mod class_a;
pub mod cmac;
pub mod commands;
pub mod device;
pub mod duty;
pub mod frame;

pub use class_a::{rx_windows, ClassAParams, RxWindow};
pub use commands::{MacCommand, NewChannelReq};
pub use device::{DevAddr, Device, SessionKeys};
pub use duty::DutyCycleGovernor;
pub use frame::{FrameCodecError, MType, PhyPayload};
