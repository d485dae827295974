//! `masterd`: the Master channel-plan daemon.
//!
//! Wraps [`alphawan::master::server::MasterServer`] — the TCP plan
//! server — with the service trimmings: a transport observer that
//! turns accepts and per-request handle times into registry counters,
//! a plan-serve latency histogram, [`ObsEvent::SvcAccept`] events, and
//! the same plaintext metrics endpoint `netserverd` exposes.

use crate::endpoint::{HttpEndpoint, HttpHandler};
use crate::runtime::{SharedObs, SERVE_LATENCY_BOUNDS_US};
use alphawan::master::server::ServerEvent;
use alphawan::master::{MasterServer, RegionSpec};
use obs::{ObsEvent, Registry, SvcConn};
use parking_lot::Mutex;
use std::io;
use std::net::{Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Instant;

/// Daemon configuration; `Default` serves the paper's three-network
/// testbed region on ephemeral loopback ports.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// TCP plan-server socket.
    pub bind: SocketAddr,
    /// TCP metrics endpoint.
    pub metrics_bind: SocketAddr,
    /// The spectrum region the Master carves.
    pub region: RegionSpec,
    /// Lease TTL forwarded to the Master node; 0 disables expiry.
    pub lease_ttl_ms: u64,
}

impl Default for MasterConfig {
    fn default() -> MasterConfig {
        MasterConfig {
            bind: (Ipv4Addr::LOCALHOST, 0).into(),
            metrics_bind: (Ipv4Addr::LOCALHOST, 0).into(),
            region: RegionSpec {
                band_low_hz: 923_200_000,
                spectrum_hz: 1_600_000,
                expected_networks: 3,
            },
            lease_ttl_ms: 0,
        }
    }
}

/// A running Master daemon.
pub struct MasterDaemon {
    /// The plan server's address, read once it is bound.
    addr: SocketAddr,
    server: MasterServer,
    endpoint: HttpEndpoint,
    registry: Arc<Mutex<Registry>>,
}

impl MasterDaemon {
    /// Bind both sockets and start serving plans.
    pub fn start(cfg: MasterConfig, sink: Option<SharedObs>) -> io::Result<MasterDaemon> {
        let registry = Arc::new(Mutex::new(Registry::new()));
        let obs_registry = Arc::clone(&registry);
        let started = Instant::now();
        let observer = Arc::new(move |ev: ServerEvent| match ev {
            ServerEvent::Accepted { conn } => {
                obs_registry.lock().inc("master_conns_total", 1);
                if let Some(s) = &sink {
                    let mut s = s.lock();
                    if s.enabled() {
                        s.record(&ObsEvent::SvcAccept {
                            wall_us: started.elapsed().as_micros() as u64,
                            conn: SvcConn::Tcp,
                            peer: conn,
                        });
                    }
                }
            }
            ServerEvent::Served {
                request, handle_us, ..
            } => {
                let mut reg = obs_registry.lock();
                reg.inc("master_requests_total", 1);
                reg.inc(&format!("master_req_{request}_total"), 1);
                reg.observe("plan_serve_latency_us", &SERVE_LATENCY_BOUNDS_US, handle_us);
            }
        });
        let server = MasterServer::start_observed(cfg.region, cfg.bind, Some(observer))?;
        let addr = server.addr();
        if cfg.lease_ttl_ms > 0 {
            server.node().lock().set_lease_ttl_ms(cfg.lease_ttl_ms);
        }
        let endpoint =
            HttpEndpoint::start(cfg.metrics_bind, Self::http_handler(Arc::clone(&registry)))?;
        Ok(MasterDaemon {
            addr,
            server,
            endpoint,
            registry,
        })
    }

    fn http_handler(registry: Arc<Mutex<Registry>>) -> HttpHandler {
        Arc::new(move |path| match path {
            "/metrics" => {
                let mut reg = registry.lock();
                reg.sample_process_memory();
                Some((
                    "text/plain; version=0.0.4",
                    reg.render_prometheus().into_bytes(),
                ))
            }
            "/healthz" => Some(("text/plain", b"ok\n".to_vec())),
            _ => None,
        })
    }

    /// The plan-server address operators connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics endpoint address.
    pub fn metrics_addr(&self) -> SocketAddr {
        self.endpoint.addr()
    }

    /// Read one counter from the daemon registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.lock().counter(name)
    }

    /// Stop accepting and join the accept thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http_get;
    use alphawan::master::{BackoffPolicy, PlanSource, ResilientMasterClient};
    use std::time::Duration;

    #[test]
    fn fresh_daemon_answers_health_and_memory() {
        let daemon = MasterDaemon::start(MasterConfig::default(), None).expect("starts");
        let get = |path| http_get(daemon.metrics_addr(), path);
        assert_eq!(get("/healthz").unwrap(), "ok\n");
        let metrics = get("/metrics").unwrap();
        if obs::proc_mem().is_some() {
            assert!(
                metrics.lines().any(|l| l.starts_with("process_rss_bytes ")),
                "{metrics}"
            );
        }
        // The decision log is the ingest daemon's; masterd has none.
        for path in ["/decisions", "/bench"] {
            assert!(get(path).unwrap_err().to_string().contains("404"), "{path}");
        }
        assert_eq!(daemon.counter("master_requests_total"), 0);
        assert!(!metrics.contains("plan_serve_latency_us"), "{metrics}");
        daemon.shutdown();
    }

    #[test]
    fn plan_requests_are_counted_and_timed() {
        let daemon = MasterDaemon::start(MasterConfig::default(), None).expect("starts");
        let mut client =
            ResilientMasterClient::new(daemon.addr(), "op-a", BackoffPolicy::default());
        for _ in 0..3 {
            let (plan, source) = client.channel_plan().expect("plan served");
            assert!(!plan.is_empty());
            assert_eq!(source, PlanSource::Fresh);
        }
        // The server reports a request after answering it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.counter("master_req_request_channels_total") < 3 {
            assert!(Instant::now() < deadline, "plan requests never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(daemon.counter("master_conns_total"), 1, "one session");
        let requests = daemon.counter("master_requests_total");
        assert!(requests >= 3);
        let metrics = http_get(daemon.metrics_addr(), "/metrics").unwrap();
        assert!(
            metrics.contains(&format!("\nplan_serve_latency_us_count {requests}\n")),
            "{metrics}"
        );
        daemon.shutdown();
    }
}
