//! The Master TCP server: "an independent process running on a cloud
//! server" (§4.3.2) — here a thread per connection over a shared
//! [`MasterNode`].

use super::proto::{read_frame, write_frame, Request, Response};
use super::{MasterNode, RegionSpec};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Transport-level activity reported to a [`ServerObserver`]: a
/// daemon wrapper (the `svc` crate's `masterd`) turns these into obs
/// events and metrics without the server depending on either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerEvent {
    /// A new operator connection was accepted (`conn` is a server-
    /// lifetime connection index).
    Accepted { conn: u64 },
    /// One request on a connection was handled in `handle_us` host
    /// wall-clock microseconds (frame read excluded: idle time on a
    /// kept-open connection is not serve latency).
    Served {
        conn: u64,
        request: &'static str,
        handle_us: u64,
    },
}

/// Callback invoked by the server's connection threads.
pub type ServerObserver = Arc<dyn Fn(ServerEvent) + Send + Sync>;

/// A running Master server.
pub struct MasterServer {
    addr: SocketAddr,
    node: Arc<Mutex<MasterNode>>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MasterServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving.
    pub fn start(region: RegionSpec) -> io::Result<MasterServer> {
        Self::start_observed(region, (std::net::Ipv4Addr::LOCALHOST, 0).into(), None)
    }

    /// Bind to a caller-chosen address (a daemon's configured listen
    /// address rather than an ephemeral test port) and start serving,
    /// reporting transport events to `observer`.
    pub fn start_observed(
        region: RegionSpec,
        bind: SocketAddr,
        observer: Option<ServerObserver>,
    ) -> io::Result<MasterServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let started = std::time::Instant::now();
        let node = Arc::new(Mutex::new(MasterNode::new(region)));
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_node = Arc::clone(&node);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("alphawan-master-accept".into())
            .spawn(move || {
                let mut conn_idx = 0u64;
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            let node = Arc::clone(&accept_node);
                            let conn = conn_idx;
                            conn_idx += 1;
                            let obs = observer.clone();
                            if let Some(o) = &obs {
                                o(ServerEvent::Accepted { conn });
                            }
                            let _ = std::thread::Builder::new()
                                .name("alphawan-master-conn".into())
                                .spawn(move || {
                                    let _ = serve_connection(s, node, started, conn, obs);
                                });
                        }
                        Err(_) => break,
                    }
                }
            })?;

        Ok(MasterServer {
            addr,
            node,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address operators should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct (in-process) access to the Master state, e.g. for
    /// inspection in tests and experiments.
    pub fn node(&self) -> Arc<Mutex<MasterNode>> {
        Arc::clone(&self.node)
    }

    /// Stop accepting connections and join the accept thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so `incoming()` wakes up.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MasterServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Serve one operator connection until `Bye` or EOF.
fn serve_connection(
    mut stream: TcpStream,
    node: Arc<Mutex<MasterNode>>,
    started: std::time::Instant,
    conn: u64,
    observer: Option<ServerObserver>,
) -> io::Result<()> {
    loop {
        let req: Request = match read_frame(&mut stream) {
            Ok(r) => r,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let handle_start = std::time::Instant::now();
        let request_name = match req {
            Request::Register { .. } => "register",
            Request::RequestChannels { .. } => "request_channels",
            Request::Release { .. } => "release",
            Request::QueryOccupancy => "query_occupancy",
            Request::Bye => "bye",
        };
        // Advance the Master clock so leases age and expire.
        node.lock().tick(started.elapsed().as_millis() as u64);
        let resp = match req {
            Request::Register { operator } => Response::Registered {
                operator_id: node.lock().register(&operator),
            },
            Request::RequestChannels { operator_id } => {
                match node.lock().request_channels(operator_id) {
                    Ok(channels) => Response::Assignment { channels },
                    Err(error) => Response::Error { error },
                }
            }
            Request::Release { operator_id } => match node.lock().release(operator_id) {
                Ok(()) => Response::Released,
                Err(error) => Response::Error { error },
            },
            Request::QueryOccupancy => Response::Occupancy {
                entries: node.lock().occupancy(),
            },
            Request::Bye => {
                write_frame(&mut stream, &Response::Bye)?;
                if let Some(o) = &observer {
                    o(ServerEvent::Served {
                        conn,
                        request: request_name,
                        handle_us: handle_start.elapsed().as_micros() as u64,
                    });
                }
                return Ok(());
            }
        };
        write_frame(&mut stream, &resp)?;
        if let Some(o) = &observer {
            o(ServerEvent::Served {
                conn,
                request: request_name,
                handle_us: handle_start.elapsed().as_micros() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::client::MasterClient;

    fn region() -> RegionSpec {
        RegionSpec {
            band_low_hz: 923_200_000,
            spectrum_hz: 1_600_000,
            expected_networks: 3,
        }
    }

    #[test]
    fn end_to_end_register_and_assign() {
        let server = MasterServer::start(region()).unwrap();
        let mut c = MasterClient::connect(server.addr()).unwrap();
        let id = c.register("op-x").unwrap();
        let plan = c.request_channels(id).unwrap();
        assert!(!plan.is_empty());
        let occ = c.query_occupancy().unwrap();
        assert_eq!(occ, vec![(id, 0)]);
        c.bye().unwrap();
        server.shutdown();
    }

    #[test]
    fn concurrent_operators_get_disjoint_plans() {
        let server = MasterServer::start(region()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = MasterClient::connect(addr).unwrap();
                    let id = c.register(&format!("op-{i}")).unwrap();
                    let plan = c.request_channels(id).unwrap();
                    c.bye().unwrap();
                    (id, plan)
                })
            })
            .collect();
        let mut results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        results.sort_by_key(|(id, _)| *id);
        // All three got distinct ids and distinct plans.
        assert_eq!(results.len(), 3);
        for a in 0..3 {
            for b in (a + 1)..3 {
                assert_ne!(results[a].1, results[b].1);
            }
        }
        server.shutdown();
    }

    #[test]
    fn region_full_error_propagates() {
        let server = MasterServer::start(RegionSpec {
            expected_networks: 1,
            ..region()
        })
        .unwrap();
        let mut c = MasterClient::connect(server.addr()).unwrap();
        let a = c.register("a").unwrap();
        c.request_channels(a).unwrap();
        let b = c.register("b").unwrap();
        let err = c.request_channels(b).unwrap_err();
        assert!(err.to_string().contains("no free misaligned"), "{err}");
        server.shutdown();
    }

    #[test]
    fn observed_server_reports_accepts_and_serve_latency() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let server = MasterServer::start_observed(
            region(),
            (std::net::Ipv4Addr::LOCALHOST, 0).into(),
            Some(Arc::new(move |e| sink.lock().push(e))),
        )
        .unwrap();
        let mut c = MasterClient::connect(server.addr()).unwrap();
        let id = c.register("op-obs").unwrap();
        c.request_channels(id).unwrap();
        c.bye().unwrap();
        server.shutdown();
        let seen = events.lock().clone();
        assert!(seen.contains(&ServerEvent::Accepted { conn: 0 }));
        let served: Vec<&'static str> = seen
            .iter()
            .filter_map(|e| match e {
                ServerEvent::Served { request, .. } => Some(*request),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec!["register", "request_channels", "bye"]);
    }

    #[test]
    fn start_observed_binds_requested_address() {
        // Ephemeral port on the explicit API; the bound port must be
        // reported back and serve traffic.
        let bind = (std::net::Ipv4Addr::LOCALHOST, 0).into();
        let server = MasterServer::start_observed(region(), bind, None).unwrap();
        assert_eq!(server.addr().ip(), std::net::Ipv4Addr::LOCALHOST);
        let mut c = MasterClient::connect(server.addr()).unwrap();
        let id = c.register("op-bind").unwrap();
        assert!(!c.request_channels(id).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn release_over_wire() {
        let server = MasterServer::start(region()).unwrap();
        let mut c = MasterClient::connect(server.addr()).unwrap();
        let id = c.register("op").unwrap();
        c.request_channels(id).unwrap();
        c.release(id).unwrap();
        assert!(c.query_occupancy().unwrap().is_empty());
        server.shutdown();
    }
}
