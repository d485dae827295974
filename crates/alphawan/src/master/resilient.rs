//! Graceful degradation for the Master control plane.
//!
//! Channel plans are slow-moving state: a network server that loses its
//! Master link should keep operating on the last plan it was assigned
//! rather than stall uplink processing. [`ResilientMasterClient`] wraps
//! the session lifecycle — (re)connect with backoff, fetch, cache — and
//! reports whether a returned plan is fresh or served from cache so
//! callers can surface degraded operation.

use super::backoff::BackoffPolicy;
use super::client::MasterClient;
use lora_phy::channel::Channel;
use std::io;
use std::net::SocketAddr;

/// Where a channel plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Fetched from the Master on this call.
    Fresh,
    /// The Master was unreachable; this is the last plan it assigned.
    Cached,
}

/// A Master client that reconnects with backoff and degrades to its
/// cached plan when the control plane is unreachable.
pub struct ResilientMasterClient {
    addr: SocketAddr,
    policy: BackoffPolicy,
    operator: String,
    session: Option<(MasterClient, usize)>,
    cached_plan: Option<Vec<Channel>>,
    reconnects: u64,
}

impl ResilientMasterClient {
    /// Create a client for `operator`; no connection is made until the
    /// first [`channel_plan`](Self::channel_plan) call.
    pub fn new(addr: SocketAddr, operator: &str, policy: BackoffPolicy) -> ResilientMasterClient {
        ResilientMasterClient {
            addr,
            policy,
            operator: operator.to_string(),
            session: None,
            cached_plan: None,
            reconnects: 0,
        }
    }

    /// The last plan the Master assigned, if any.
    pub fn cached_plan(&self) -> Option<&[Channel]> {
        self.cached_plan.as_deref()
    }

    /// How many times a session was (re-)established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn ensure_session(&mut self) -> io::Result<&mut (MasterClient, usize)> {
        let session = match self.session.take() {
            Some(session) => session,
            None => {
                let mut client = MasterClient::connect_with_retry(self.addr, &self.policy)?;
                let operator_id = client.register(&self.operator)?;
                self.reconnects += 1;
                (client, operator_id)
            }
        };
        Ok(self.session.insert(session))
    }

    /// Fetch the operator's channel plan, reconnecting if needed. On
    /// total control-plane failure, falls back to the cached plan
    /// (marked [`PlanSource::Cached`]); errors only when there is no
    /// cache to degrade to.
    pub fn channel_plan(&mut self) -> io::Result<(Vec<Channel>, PlanSource)> {
        match self.try_fetch() {
            Ok(plan) => {
                self.cached_plan = Some(plan.clone());
                Ok((plan, PlanSource::Fresh))
            }
            Err(e) => match self.cached_plan.clone() {
                Some(plan) => Ok((plan, PlanSource::Cached)),
                None => Err(e),
            },
        }
    }

    fn try_fetch(&mut self) -> io::Result<Vec<Channel>> {
        // One session retry: a dead cached session (server restarted,
        // partition healed) gets dropped and re-established once before
        // we give up on this call.
        for _ in 0..2 {
            let (client, operator_id) = self.ensure_session()?;
            let id = *operator_id;
            match client.request_channels(id) {
                Ok(plan) => return Ok(plan),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                // Transport failure: drop the session and retry.
                Err(_) => self.session = None,
            }
        }
        Err(io::Error::other("Master unreachable after session retry"))
    }

    /// Release the plan and close the session politely (best effort).
    pub fn shutdown(mut self) {
        if let Some((mut client, operator_id)) = self.session.take() {
            let _ = client.release(operator_id);
            let _ = client.bye();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::server::MasterServer;
    use crate::master::RegionSpec;

    fn region() -> RegionSpec {
        RegionSpec {
            band_low_hz: 923_200_000,
            spectrum_hz: 1_600_000,
            expected_networks: 3,
        }
    }

    #[test]
    fn fresh_plan_then_cached_after_master_death() {
        let master = MasterServer::start(region()).unwrap();
        let addr = master.addr();
        let mut client = ResilientMasterClient::new(addr, "op-r", BackoffPolicy::fast_for_tests());
        let (plan, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        assert!(!plan.is_empty());
        // Master gone (and the session with it): the same plan is
        // served from cache. shutdown() only stops the acceptor, so
        // drop the session explicitly to model the dead link.
        master.shutdown();
        client.session = None;
        let (degraded, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Cached);
        assert_eq!(degraded, plan);
        assert_eq!(client.cached_plan(), Some(&plan[..]));
    }

    #[test]
    fn no_cache_means_error() {
        // An address nothing listens on.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let mut client = ResilientMasterClient::new(addr, "op-x", BackoffPolicy::fast_for_tests());
        assert!(client.channel_plan().is_err());
        assert_eq!(client.cached_plan(), None);
    }

    #[test]
    fn a_dead_rpc_reconnects_once_and_a_dead_master_serves_the_cache() {
        let master = MasterServer::start(region()).unwrap();
        let addr = master.addr();
        let mut client = ResilientMasterClient::new(addr, "op-o", BackoffPolicy::fast_for_tests());
        let (plan, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        assert_eq!(client.reconnects(), 1);
        // Plant a stale session whose peer hung up: the next RPC fails
        // in-flight, which is the session-retry (not connect-retry) path.
        let stale_listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stale = MasterClient::connect(stale_listener.local_addr().unwrap()).unwrap();
        drop(stale_listener.accept().unwrap());
        drop(stale_listener);
        let id = client.session.take().expect("session established").1;
        client.session = Some((stale, id));
        let (again, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh, "reconnects after a dead RPC");
        assert_eq!(again, plan);
        assert_eq!(client.reconnects(), 2, "one new session, not more");
        master.shutdown();
        client.session = None;
        let (cached, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Cached);
        assert_eq!(cached, plan);
    }

    #[test]
    fn session_is_reused_and_reestablished_after_disconnect() {
        let master = MasterServer::start(region()).unwrap();
        let addr = master.addr();
        let mut client = ResilientMasterClient::new(addr, "op-s", BackoffPolicy::fast_for_tests());
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        assert_eq!(client.reconnects(), 1);
        // Second fetch reuses the session (lease heartbeat).
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        assert_eq!(client.reconnects(), 1);
        // After a dropped link the next fetch re-registers and still
        // gets a fresh plan while the Master is up.
        client.session = None;
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        assert_eq!(client.reconnects(), 2);
        master.shutdown();
        client.session = None;
        // Down: degrade to cache.
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Cached);
    }
}
