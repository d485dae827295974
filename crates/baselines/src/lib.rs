//! # baselines — the operating strategies AlphaWAN is evaluated against
//!
//! Every comparison point in the paper's §5 evaluation:
//!
//! * [`standard`] — **standard LoRaWAN**: all gateways configured with
//!   the same standard channel plans (the homogeneous setup that caps
//!   capacity at one gateway's decoder count), nodes on random channels
//!   with either fixed or ADR-chosen data rates;
//! * [`random_cp`] — **Random CP**: adjusts the number of channels per
//!   gateway like Strategy ① but assigns channels at random (§5.1.1);
//! * [`lmac`] — **LMAC** (Gamage et al.): carrier-sense MAC that defers
//!   transmissions which would collide on the same channel + SF —
//!   avoids channel contention, cannot touch decoder contention;
//! * **CIC** (Shahid et al.): PHY-layer collision resolution, a switch
//!   on the simulator ([`sim::SimWorld::cic`]) with COTS decoder limits
//!   retained, per the paper's methodology.

pub mod lmac;
pub mod random_cp;
pub mod standard;

pub use random_cp::random_cp_configs;
pub use standard::{standard_assignments, standard_gateway_configs};
