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
use obs::{NullSink, ObsEvent, ObsSink};
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
    /// Plan requests issued so far; each mints one control-plane trace
    /// ([`obs::control_trace`]) shared by the connect attempts, RPC
    /// retries and the final plan-served event it causes.
    request_seq: u64,
    /// Stable endpoint id for control traces (a hash of the operator
    /// name — socket addresses are OS-assigned and not deterministic).
    endpoint: u64,
    obs: Option<Box<dyn ObsSink>>,
}

/// FNV-1a over the operator name: a deterministic endpoint id for
/// [`obs::control_trace`].
fn endpoint_id(operator: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in operator.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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
            request_seq: 0,
            endpoint: endpoint_id(operator),
            obs: None,
        }
    }

    /// Attach an observability sink: connect attempts, session retries
    /// and plan servings (fresh vs cache-degraded) are emitted as
    /// control-plane [`ObsEvent`]s.
    pub fn set_obs_sink(&mut self, sink: Box<dyn ObsSink>) {
        self.obs = Some(sink);
    }

    /// The last plan the Master assigned, if any.
    pub fn cached_plan(&self) -> Option<&[Channel]> {
        self.cached_plan.as_deref()
    }

    /// How many times a session was (re-)established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn ensure_session(&mut self, trace: u64) -> io::Result<&mut (MasterClient, usize)> {
        if self.session.is_none() {
            let mut null = NullSink;
            let sink: &mut dyn ObsSink = match self.obs.as_deref_mut() {
                Some(s) => s,
                None => &mut null,
            };
            let mut client =
                MasterClient::connect_with_retry_obs(self.addr, &self.policy, trace, sink)?;
            let operator_id = client.register(&self.operator)?;
            self.reconnects += 1;
            self.session = Some((client, operator_id));
        }
        Ok(self.session.as_mut().expect("session just ensured"))
    }

    /// Emit `ev` to the attached sink, if any.
    fn emit(&mut self, ev: ObsEvent) {
        if let Some(sink) = self.obs.as_deref_mut() {
            if sink.enabled() {
                sink.record(&ev);
            }
        }
    }

    /// Fetch the operator's channel plan, reconnecting if needed. On
    /// total control-plane failure, falls back to the cached plan
    /// (marked [`PlanSource::Cached`]); errors only when there is no
    /// cache to degrade to.
    pub fn channel_plan(&mut self) -> io::Result<(Vec<Channel>, PlanSource)> {
        let trace = obs::control_trace(self.endpoint, self.request_seq);
        self.request_seq += 1;
        match self.try_fetch(trace) {
            Ok(plan) => {
                self.cached_plan = Some(plan.clone());
                self.emit(ObsEvent::MasterPlanServed {
                    trace,
                    source: obs::PlanServed::Fresh,
                    channels: plan.len() as u32,
                });
                Ok((plan, PlanSource::Fresh))
            }
            Err(e) => match self.cached_plan.clone() {
                Some(plan) => {
                    self.emit(ObsEvent::MasterPlanServed {
                        trace,
                        source: obs::PlanServed::Cached,
                        channels: plan.len() as u32,
                    });
                    Ok((plan, PlanSource::Cached))
                }
                None => Err(e),
            },
        }
    }

    fn try_fetch(&mut self, trace: u64) -> io::Result<Vec<Channel>> {
        // One session retry: a dead cached session (server restarted,
        // partition healed) gets dropped and re-established once before
        // we give up on this call.
        for _ in 0..2 {
            let (client, operator_id) = self.ensure_session(trace)?;
            let id = *operator_id;
            match client.request_channels(id) {
                Ok(plan) => return Ok(plan),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(_) => {
                    // Transport failure: drop the session and retry.
                    self.session = None;
                    let reconnects = self.reconnects;
                    self.emit(ObsEvent::MasterRpcRetry { trace, reconnects });
                }
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
    fn obs_sink_sees_control_plane_degradation() {
        use obs::{ObsEvent, PlanServed, SharedSink, VecSink};
        let master = MasterServer::start(region()).unwrap();
        let addr = master.addr();
        let shared = SharedSink::new(VecSink::new());
        let mut client = ResilientMasterClient::new(addr, "op-o", BackoffPolicy::fast_for_tests());
        client.set_obs_sink(Box::new(shared.clone()));
        let (plan, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh);
        // Plant a stale session whose peer hung up: the next RPC fails
        // in-flight, which is the session-retry (not connect-retry) path.
        let stale_listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stale = MasterClient::connect(stale_listener.local_addr().unwrap()).unwrap();
        drop(stale_listener.accept().unwrap());
        drop(stale_listener);
        let id = client.session.take().expect("session established").1;
        client.session = Some((stale, id));
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Fresh, "reconnects after a dead RPC");
        master.shutdown();
        client.session = None;
        let (_, source) = client.channel_plan().unwrap();
        assert_eq!(source, PlanSource::Cached);
        let events = shared.with(|v| v.events().to_vec());
        let served: Vec<(PlanServed, u32)> = events
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::MasterPlanServed {
                    source, channels, ..
                } => Some((source, channels)),
                _ => None,
            })
            .collect();
        assert_eq!(
            served,
            vec![
                (PlanServed::Fresh, plan.len() as u32),
                (PlanServed::Fresh, plan.len() as u32),
                (PlanServed::Cached, plan.len() as u32)
            ]
        );
        // The successful first connect shows up as an attempt, and the
        // dead Master produced at least one RPC retry before degrading.
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::MasterConnectAttempt { ok: true, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::MasterRpcRetry { .. })));
        // Every control-plane event carries a tagged, minted trace, and
        // distinct plan requests carry distinct traces.
        let traces: Vec<u64> = events.iter().filter_map(|e| e.trace()).collect();
        assert_eq!(traces.len(), events.len(), "no untraced control events");
        assert!(traces.iter().all(|&t| obs::trace::is_control(t)));
        let served_traces: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::MasterPlanServed { trace, .. } => Some(*trace),
                _ => None,
            })
            .collect();
        assert_eq!(served_traces.len(), 3);
        assert_ne!(served_traces[0], served_traces[1]);
        assert_ne!(served_traces[1], served_traces[2]);
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
