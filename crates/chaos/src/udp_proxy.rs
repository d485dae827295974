//! Real-socket UDP chaos proxy for the gateway backhaul.
//!
//! Sits between a live packet forwarder (`gateway::forwarder::client`)
//! and `svc`'s `netserverd`: point the forwarder at
//! [`ChaosUdpProxy::addr`] instead of the server. Uplink datagrams
//! (forwarder → server) get the plan's backhaul faults — loss, delay +
//! jitter, duplication, reordering (via per-datagram holds); downlink
//! datagrams (server → forwarder) pass through untouched, so ACK and
//! PULL_RESP plumbing keeps working while the uplink path degrades.
//!
//! Fault decisions come from [`FaultSchedule::datagram_fate`] keyed by
//! the datagram's arrival sequence number, so the *pattern* of faults
//! is replayable even though wall-clock arrival times are not.

use crate::schedule::FaultSchedule;
use crate::DatagramFate;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Stats {
    uplink_seen: AtomicU64,
    uplink_dropped: AtomicU64,
    uplink_duplicated: AtomicU64,
    downlink_seen: AtomicU64,
}

/// A UDP proxy applying scheduled backhaul faults to the uplink
/// direction. Times in the fault plan are µs since the proxy started.
pub struct ChaosUdpProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Stats>,
    thread: Option<JoinHandle<()>>,
}

impl ChaosUdpProxy {
    /// Bind `127.0.0.1:0` and start proxying to `upstream` (the real
    /// server's address).
    pub fn start(upstream: SocketAddr, schedule: FaultSchedule) -> io::Result<ChaosUdpProxy> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Stats::default());

        let loop_shutdown = Arc::clone(&shutdown);
        let loop_stats = Arc::clone(&stats);
        let thread = std::thread::Builder::new()
            .name("chaos-udp-proxy".into())
            .spawn(move || {
                let epoch = Instant::now();
                let client: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
                let mut seq = 0u64;
                let mut sleepers: Vec<JoinHandle<()>> = Vec::new();
                let mut buf = [0u8; 65_536];
                while !loop_shutdown.load(Ordering::SeqCst) {
                    let (n, peer) = match socket.recv_from(&mut buf) {
                        Ok(x) => x,
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            sleepers.retain(|h| !h.is_finished());
                            continue;
                        }
                        Err(_) => break,
                    };
                    if peer == upstream {
                        // Downlink: pass through to the last client.
                        loop_stats.downlink_seen.fetch_add(1, Ordering::Relaxed);
                        if let Some(c) = *client.lock().unwrap() {
                            let _ = socket.send_to(&buf[..n], c);
                        }
                        continue;
                    }
                    // Uplink: remember the return path, apply the fate.
                    *client.lock().unwrap() = Some(peer);
                    loop_stats.uplink_seen.fetch_add(1, Ordering::Relaxed);
                    let now_us = epoch.elapsed().as_micros() as u64;
                    let fate = schedule.datagram_fate(seq, now_us);
                    seq += 1;
                    match fate {
                        DatagramFate::Drop => {
                            loop_stats.uplink_dropped.fetch_add(1, Ordering::Relaxed);
                        }
                        DatagramFate::Deliver {
                            delay_us: 0,
                            copies: 1,
                            ..
                        } => {
                            let _ = socket.send_to(&buf[..n], upstream);
                        }
                        DatagramFate::Deliver {
                            delay_us,
                            copies,
                            copy_lag_us,
                        } => {
                            loop_stats
                                .uplink_duplicated
                                .fetch_add(u64::from(copies - 1), Ordering::Relaxed);
                            let payload = buf[..n].to_vec();
                            let out = socket.try_clone().expect("clone proxy socket");
                            sleepers.push(std::thread::spawn(move || {
                                std::thread::sleep(Duration::from_micros(delay_us));
                                let _ = out.send_to(&payload, upstream);
                                for _ in 1..copies {
                                    std::thread::sleep(Duration::from_micros(copy_lag_us));
                                    let _ = out.send_to(&payload, upstream);
                                }
                            }));
                        }
                    }
                }
                for h in sleepers {
                    let _ = h.join();
                }
            })?;

        Ok(ChaosUdpProxy {
            addr,
            shutdown,
            stats,
            thread: Some(thread),
        })
    }

    /// Address the packet forwarder should send to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Uplink datagrams seen so far.
    pub fn uplink_seen(&self) -> u64 {
        self.stats.uplink_seen.load(Ordering::Relaxed)
    }

    /// Uplink datagrams dropped by the fault plan.
    pub fn uplink_dropped(&self) -> u64 {
        self.stats.uplink_dropped.load(Ordering::Relaxed)
    }

    /// Extra uplink copies injected by the fault plan.
    pub fn uplink_duplicated(&self) -> u64 {
        self.stats.uplink_duplicated.load(Ordering::Relaxed)
    }

    /// Downlink datagrams passed through.
    pub fn downlink_seen(&self) -> u64 {
        self.stats.downlink_seen.load(Ordering::Relaxed)
    }

    /// Stop the proxy.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosUdpProxy {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlan, FaultSpec};

    /// An upstream "server" socket, a proxy in front of it with
    /// `faults`, and a "forwarder" socket; both sockets time out
    /// reads after 500 ms.
    fn rig(faults: Vec<FaultSpec>) -> (UdpSocket, ChaosUdpProxy, UdpSocket) {
        let server = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let schedule = FaultSchedule::compile(&FaultPlan { seed: 3, faults }).unwrap();
        let proxy = ChaosUdpProxy::start(server.local_addr().unwrap(), schedule).unwrap();
        let forwarder = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        for s in [&server, &forwarder] {
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
        }
        (server, proxy, forwarder)
    }

    fn recv(socket: &UdpSocket) -> Option<(Vec<u8>, SocketAddr)> {
        let mut buf = [0u8; 64];
        let (n, from) = socket.recv_from(&mut buf).ok()?;
        Some((buf[..n].to_vec(), from))
    }

    #[test]
    fn a_clean_proxy_passes_both_directions() {
        let (server, proxy, forwarder) = rig(vec![]);
        forwarder.send_to(b"up", proxy.addr()).unwrap();
        let (up, from) = recv(&server).expect("uplink reaches the server");
        assert_eq!((up.as_slice(), from), (&b"up"[..], proxy.addr()));
        // The server answers the proxy; the proxy returns it to the
        // forwarder that last sent.
        server.send_to(b"ack", proxy.addr()).unwrap();
        let (down, from) = recv(&forwarder).expect("downlink reaches the forwarder");
        assert_eq!((down.as_slice(), from), (&b"ack"[..], proxy.addr()));
        assert_eq!((proxy.uplink_seen(), proxy.downlink_seen()), (1, 1));
        assert_eq!((proxy.uplink_dropped(), proxy.uplink_duplicated()), (0, 0));
    }

    #[test]
    fn a_duplicating_proxy_sends_every_copy() {
        let (server, proxy, forwarder) = rig(vec![FaultSpec::BackhaulDuplicate {
            probability: 1.0,
            lag_us: 2_000,
            start_us: 0,
            end_us: u64::MAX,
        }]);
        forwarder.send_to(b"twice", proxy.addr()).unwrap();
        assert_eq!(recv(&server).expect("first copy").0, b"twice");
        assert_eq!(recv(&server).expect("second copy").0, b"twice");
        assert_eq!(proxy.uplink_duplicated(), 1);
        proxy.shutdown();
    }

    #[test]
    fn a_lossy_proxy_drops_and_counts_but_keeps_the_downlink() {
        let (server, proxy, forwarder) = rig(vec![FaultSpec::BackhaulLoss {
            probability: 1.0,
            start_us: 0,
            end_us: u64::MAX,
        }]);
        for _ in 0..3 {
            forwarder.send_to(b"lost", proxy.addr()).unwrap();
        }
        assert!(recv(&server).is_none(), "a dropped uplink reaches no one");
        assert_eq!((proxy.uplink_seen(), proxy.uplink_dropped()), (3, 3));
        // The return path was learned from the dropped datagrams.
        server.send_to(b"pull_resp", proxy.addr()).unwrap();
        assert_eq!(recv(&forwarder).expect("downlink").0, b"pull_resp");
    }
}
