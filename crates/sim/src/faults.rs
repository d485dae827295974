//! Infrastructure-fault hook for the simulation world.
//!
//! The `chaos` crate compiles a declarative fault plan into an
//! implementation of [`InfraFaults`]; the world consults it at each
//! event so gateway crashes and decoder lock-ups perturb reception
//! deterministically. The default [`NoFaults`] answers "everything is
//! healthy" and is what [`crate::world::SimWorld::run`] uses — keeping
//! the fault-free hot path free of any schedule lookups beyond three
//! trivially inlinable calls.
//!
//! The trait lives here (not in `chaos`) so `sim` stays independent of
//! the fault-injection layer: `chaos` depends on `sim`, never the
//! reverse.

/// Queries the world makes about infrastructure health. Times are
/// simulation microseconds, gateways are indexed as in
/// [`crate::world::SimWorld::gateways`].
///
/// Implementations must be **pure functions of (gateway, time)** — the
/// world may ask in any order, from any shard thread (hence `Sync`), and
/// must get identical answers on replay; that purity is what makes
/// fault runs deterministic.
pub trait InfraFaults: Sync {
    /// Is gateway `gw` down (crashed / rebooting) at `t_us`? A down
    /// gateway detects nothing; receptions in flight when it goes down
    /// are lost.
    fn gateway_down(&self, gw: usize, t_us: u64) -> bool {
        let _ = (gw, t_us);
        false
    }

    /// Was gateway `gw` down at any instant of `[from_us, to_us]`?
    /// Used to fail receptions that span a crash window. The default
    /// checks the endpoints, which is exact for fault schedules whose
    /// down windows are at least as long as a packet; implementations
    /// with shorter windows should override it.
    fn gateway_down_during(&self, gw: usize, from_us: u64, to_us: u64) -> bool {
        self.gateway_down(gw, from_us) || self.gateway_down(gw, to_us)
    }

    /// Number of decoders at gateway `gw` locked up (unusable) at
    /// `t_us`, clamped by callers to the pool capacity. Models partial
    /// hardware lock-ups where the gateway stays up but admits fewer
    /// concurrent packets.
    fn locked_decoders(&self, gw: usize, t_us: u64) -> usize {
        let _ = (gw, t_us);
        0
    }

    /// May gateway `gw` be down at *any* instant of the run? A cheap
    /// whole-run summary the world samples once per run: when it
    /// returns `false` the implementation promises [`Self::gateway_down`]
    /// and [`Self::gateway_down_during`] are `false` for `gw` at every
    /// time, letting the hot path skip per-event crash checks entirely.
    /// The conservative default (`true`) is always safe.
    fn gateway_ever_down(&self, gw: usize) -> bool {
        let _ = gw;
        true
    }

    /// May gateway `gw` have locked-up decoders at *any* instant of the
    /// run? Same whole-run-summary contract as
    /// [`Self::gateway_ever_down`]: when it returns `false` the
    /// implementation promises [`Self::locked_decoders`] is `0` for
    /// `gw` at every time, letting the hot path skip the per-admission
    /// lock query. The conservative default (`true`) is always safe.
    fn decoder_lockups_possible(&self, gw: usize) -> bool {
        let _ = gw;
        true
    }
}

/// The healthy-infrastructure implementation used by plain runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl InfraFaults for NoFaults {
    fn gateway_ever_down(&self, _gw: usize) -> bool {
        false
    }

    fn decoder_lockups_possible(&self, _gw: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_healthy() {
        let f = NoFaults;
        assert!(!f.gateway_down(0, 0));
        assert!(!f.gateway_down_during(3, 0, u64::MAX));
        assert_eq!(f.locked_decoders(1, 99), 0);
    }

    #[test]
    fn down_during_defaults_to_endpoint_checks() {
        struct DownAt {
            t: u64,
        }
        impl InfraFaults for DownAt {
            fn gateway_down(&self, _gw: usize, t_us: u64) -> bool {
                t_us == self.t
            }
        }
        let f = DownAt { t: 10 };
        assert!(f.gateway_down_during(0, 10, 20));
        assert!(f.gateway_down_during(0, 0, 10));
        assert!(!f.gateway_down_during(0, 11, 20));
    }
}
