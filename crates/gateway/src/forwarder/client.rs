//! The gateway-side UDP forwarder client: pushes received packets to
//! the network server and keeps the downlink path open with PULL_DATA
//! keepalives — the "application-layer agents … running on gateways"
//! of Fig. 10, at the transport level.
//!
//! All blocking waits are bounded: a missing ACK surfaces as the typed
//! [`ForwarderError::AckTimeout`] after the configured deadline, never
//! as an indefinite hang, so a fleet driver can count lost-backhaul
//! exchanges and move on.

use super::codec::{Datagram, GatewayEui, RxPacket, TxPacket};
use std::fmt;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Why a forwarder exchange failed.
#[derive(Debug)]
pub enum ForwarderError {
    /// Socket-level failure (bind, send, non-timeout recv errors).
    Io(io::Error),
    /// The expected ACK did not arrive within the ACK deadline.
    AckTimeout {
        /// Kind name of the ACK that never came (e.g. `"PUSH_ACK"`).
        expected: &'static str,
        /// The token the missing ACK should have echoed.
        token: u16,
    },
    /// A well-formed datagram arrived, but not the one the protocol
    /// state expected (e.g. a PUSH_ACK while waiting for PULL_ACK).
    Unexpected {
        /// Kind name the protocol state was waiting for.
        expected: &'static str,
        /// Kind name that actually arrived.
        got: &'static str,
    },
    /// The datagram could not be decoded at all.
    Malformed,
}

impl fmt::Display for ForwarderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForwarderError::Io(e) => write!(f, "forwarder socket error: {e}"),
            ForwarderError::AckTimeout { expected, token } => {
                write!(f, "timed out waiting for {expected} (token {token})")
            }
            ForwarderError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            ForwarderError::Malformed => write!(f, "malformed datagram"),
        }
    }
}

impl std::error::Error for ForwarderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ForwarderError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ForwarderError {
    fn from(e: io::Error) -> ForwarderError {
        ForwarderError::Io(e)
    }
}

fn kind_name(d: &Datagram) -> &'static str {
    match d {
        Datagram::PushData { .. } => "PUSH_DATA",
        Datagram::PushAck { .. } => "PUSH_ACK",
        Datagram::PullData { .. } => "PULL_DATA",
        Datagram::PullResp { .. } => "PULL_RESP",
        Datagram::PullAck { .. } => "PULL_ACK",
        Datagram::TxAck { .. } => "TX_ACK",
    }
}

/// A blocking Semtech UDP forwarder client with bounded waits.
pub struct PacketForwarder {
    socket: UdpSocket,
    server: SocketAddr,
    eui: GatewayEui,
    next_token: u16,
    ack_timeout: Duration,
}

impl PacketForwarder {
    /// Default deadline for any awaited ACK.
    pub const DEFAULT_ACK_TIMEOUT: Duration = Duration::from_secs(2);

    /// Bind an ephemeral local socket talking to `server`.
    pub fn new(server: SocketAddr, eui: GatewayEui) -> Result<PacketForwarder, ForwarderError> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let fwd = PacketForwarder {
            socket,
            server,
            eui,
            next_token: 1,
            ack_timeout: Self::DEFAULT_ACK_TIMEOUT,
        };
        fwd.socket.set_read_timeout(Some(fwd.ack_timeout))?;
        Ok(fwd)
    }

    /// This forwarder's gateway EUI.
    pub fn eui(&self) -> GatewayEui {
        self.eui
    }

    /// Change the ACK deadline (tests use milliseconds; production
    /// deployments may want longer than the default on slow backhaul).
    pub fn set_ack_timeout(&mut self, timeout: Duration) -> Result<(), ForwarderError> {
        self.ack_timeout = timeout;
        self.socket.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    fn token(&mut self) -> u16 {
        let t = self.next_token;
        self.next_token = self.next_token.wrapping_add(1);
        t
    }

    /// PUSH_DATA with the given receptions; waits for the PUSH_ACK.
    pub fn push(&mut self, rxpk: Vec<RxPacket>) -> Result<(), ForwarderError> {
        let token = self.token();
        let wire = Datagram::PushData {
            token,
            eui: self.eui,
            rxpk,
        }
        .encode();
        self.socket.send_to(&wire, self.server)?;
        match self.recv("PUSH_ACK", token)? {
            Datagram::PushAck { token: t } if t == token => Ok(()),
            other => Err(ForwarderError::Unexpected {
                expected: "PUSH_ACK",
                got: kind_name(&other),
            }),
        }
    }

    /// PULL_DATA keepalive; waits for the PULL_ACK.
    pub fn pull(&mut self) -> Result<(), ForwarderError> {
        let token = self.token();
        let wire = Datagram::PullData {
            token,
            eui: self.eui,
        }
        .encode();
        self.socket.send_to(&wire, self.server)?;
        match self.recv("PULL_ACK", token)? {
            Datagram::PullAck { token: t } if t == token => Ok(()),
            other => Err(ForwarderError::Unexpected {
                expected: "PULL_ACK",
                got: kind_name(&other),
            }),
        }
    }

    /// Wait for a PULL_RESP downlink and acknowledge it with TX_ACK.
    pub fn recv_downlink(&mut self) -> Result<TxPacket, ForwarderError> {
        match self.recv("PULL_RESP", 0)? {
            Datagram::PullResp { token, txpk } => {
                let ack = Datagram::TxAck {
                    token,
                    eui: self.eui,
                }
                .encode();
                self.socket.send_to(&ack, self.server)?;
                Ok(txpk)
            }
            other => Err(ForwarderError::Unexpected {
                expected: "PULL_RESP",
                got: kind_name(&other),
            }),
        }
    }

    fn recv(&mut self, expected: &'static str, token: u16) -> Result<Datagram, ForwarderError> {
        let mut buf = [0u8; 4096];
        let (n, _) = self.socket.recv_from(&mut buf).map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                ForwarderError::AckTimeout { expected, token }
            } else {
                ForwarderError::Io(e)
            }
        })?;
        Datagram::decode(&buf[..n]).ok_or(ForwarderError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::channel::Channel;
    use lora_phy::types::SpreadingFactor;
    use std::time::Instant;

    /// A controllable stand-in for the network server: one loopback
    /// UDP socket the test drives by hand.
    struct FakeServer {
        socket: UdpSocket,
    }

    impl FakeServer {
        fn start() -> FakeServer {
            let socket = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            FakeServer { socket }
        }

        fn addr(&self) -> SocketAddr {
            self.socket.local_addr().unwrap()
        }

        fn recv(&self) -> (Datagram, SocketAddr) {
            let mut buf = [0u8; 4096];
            let (n, from) = self.socket.recv_from(&mut buf).unwrap();
            (Datagram::decode(&buf[..n]).unwrap(), from)
        }

        fn send(&self, d: &Datagram, to: SocketAddr) {
            self.socket.send_to(&d.encode(), to).unwrap();
        }
    }

    fn rxpk(tmst: u64) -> RxPacket {
        RxPacket::new(
            tmst,
            Channel::khz125(916_800_000),
            SpreadingFactor::SF9,
            -40.0,
            7.5,
            b"data",
        )
    }

    #[test]
    fn push_exchanges_ack() {
        let server = FakeServer::start();
        let mut fwd = PacketForwarder::new(server.addr(), GatewayEui(0xE1)).unwrap();
        let handle = std::thread::spawn(move || {
            let (d, from) = server.recv();
            match d {
                Datagram::PushData { token, eui, rxpk } => {
                    assert_eq!(eui, GatewayEui(0xE1));
                    assert_eq!(rxpk.len(), 1);
                    server.send(&Datagram::PushAck { token }, from);
                }
                other => panic!("expected PUSH_DATA, got {other:?}"),
            }
        });
        fwd.push(vec![rxpk(1)]).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn missing_ack_is_typed_timeout_not_hang() {
        let server = FakeServer::start();
        let mut fwd = PacketForwarder::new(server.addr(), GatewayEui(0xE2)).unwrap();
        fwd.set_ack_timeout(Duration::from_millis(50)).unwrap();
        let started = Instant::now();
        match fwd.push(vec![rxpk(1)]) {
            Err(ForwarderError::AckTimeout { expected, token }) => {
                assert_eq!(expected, "PUSH_ACK");
                assert_eq!(token, 1);
            }
            other => panic!("expected AckTimeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "timeout must be bounded by the configured deadline"
        );
        // The server never answered but did receive the datagram.
        assert!(matches!(server.recv().0, Datagram::PushData { .. }));
    }

    #[test]
    fn wrong_ack_kind_is_typed_unexpected() {
        let server = FakeServer::start();
        let mut fwd = PacketForwarder::new(server.addr(), GatewayEui(0xE3)).unwrap();
        let handle = std::thread::spawn(move || {
            let (d, from) = server.recv();
            if let Datagram::PullData { token, .. } = d {
                // Answer the keepalive with the wrong ACK kind.
                server.send(&Datagram::PushAck { token }, from);
            }
        });
        match fwd.pull() {
            Err(ForwarderError::Unexpected { expected, got }) => {
                assert_eq!(expected, "PULL_ACK");
                assert_eq!(got, "PUSH_ACK");
            }
            other => panic!("expected Unexpected, got {other:?}"),
        }
        handle.join().unwrap();
    }

    #[test]
    fn malformed_reply_is_typed() {
        let server = FakeServer::start();
        let mut fwd = PacketForwarder::new(server.addr(), GatewayEui(0xE5)).unwrap();
        let handle = std::thread::spawn(move || {
            let (d, from) = server.recv();
            if matches!(d, Datagram::PushData { .. }) {
                server.socket.send_to(&[0xFF, 0x00], from).unwrap();
            }
        });
        assert!(matches!(
            fwd.push(vec![rxpk(2)]),
            Err(ForwarderError::Malformed)
        ));
        handle.join().unwrap();
    }
}
