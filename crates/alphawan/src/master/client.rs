//! Blocking operator-side client for the Master protocol — the
//! "inter-network channel planning module on the network server"
//! (§4.3.2) uses this to bootstrap its channel plan.

use super::backoff::BackoffPolicy;
use super::proto::{read_frame, write_frame, Request, Response};
use lora_phy::channel::Channel;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Default connect/read/write timeout for [`MasterClient::connect`].
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// A connected Master client.
pub struct MasterClient {
    stream: TcpStream,
}

impl MasterClient {
    /// Connect to a Master server with [`DEFAULT_TIMEOUT`].
    pub fn connect(addr: SocketAddr) -> io::Result<MasterClient> {
        MasterClient::connect_with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connect with an explicit timeout applied to the TCP connect and
    /// to every subsequent read/write.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<MasterClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(MasterClient { stream })
    }

    /// Connect, retrying with the policy's jittered exponential backoff
    /// when the Master is unreachable (partition, restart window).
    /// Returns the last connect error once `policy.max_attempts` is
    /// exhausted.
    pub fn connect_with_retry(
        addr: SocketAddr,
        policy: &BackoffPolicy,
    ) -> io::Result<MasterClient> {
        let attempts = policy.max_attempts.max(1);
        let mut last_err = io::Error::other("zero connection attempts allowed");
        for attempt in 0..attempts {
            match MasterClient::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            if attempt + 1 < attempts {
                std::thread::sleep(policy.delay_after(attempt));
            }
        }
        Err(last_err)
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.stream)
    }

    /// Register this operator; returns its Master-assigned id.
    pub fn register(&mut self, operator: &str) -> io::Result<usize> {
        match self.call(&Request::Register {
            operator: operator.to_string(),
        })? {
            Response::Registered { operator_id } => Ok(operator_id),
            other => Err(unexpected(other)),
        }
    }

    /// Request (or re-fetch) this operator's channel plan.
    pub fn request_channels(&mut self, operator_id: usize) -> io::Result<Vec<Channel>> {
        match self.call(&Request::RequestChannels { operator_id })? {
            Response::Assignment { channels } => Ok(channels),
            Response::Error { error } => Err(io::Error::other(error.to_string())),
            other => Err(unexpected(other)),
        }
    }

    /// Release this operator's plan.
    pub fn release(&mut self, operator_id: usize) -> io::Result<()> {
        match self.call(&Request::Release { operator_id })? {
            Response::Released => Ok(()),
            Response::Error { error } => Err(io::Error::other(error.to_string())),
            other => Err(unexpected(other)),
        }
    }

    /// Query region occupancy: (operator id, plan slot) pairs.
    pub fn query_occupancy(&mut self) -> io::Result<Vec<(usize, usize)>> {
        match self.call(&Request::QueryOccupancy)? {
            Response::Occupancy { entries } => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Close the session politely.
    pub fn bye(&mut self) -> io::Result<()> {
        match self.call(&Request::Bye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected Master response: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn retry_returns_the_last_error_after_max_attempts() {
        // A port nothing listens on any more.
        let dead = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = BackoffPolicy {
            max_attempts: 3,
            ..BackoffPolicy::fast_for_tests()
        };
        let started = Instant::now();
        let err = MasterClient::connect_with_retry(dead, &policy)
            .err()
            .expect("nothing listens");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // Three attempts sleep the two backoffs between them, and only
        // those: the last attempt schedules none.
        assert!(started.elapsed() >= policy.delay_after(0) + policy.delay_after(1));
    }

    #[test]
    fn retry_stops_at_the_first_success() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let policy = BackoffPolicy::fast_for_tests();
        let client = MasterClient::connect_with_retry(listener.local_addr().unwrap(), &policy);
        assert!(client.is_ok());
        // Exactly one TCP connection reached the listener.
        listener.set_nonblocking(true).unwrap();
        assert!(listener.accept().is_ok());
        assert_eq!(
            listener.accept().err().map(|e| e.kind()),
            Some(io::ErrorKind::WouldBlock)
        );
    }
}
