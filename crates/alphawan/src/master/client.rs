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
    /// exhausted. Reports one
    /// [`obs::ObsEvent::MasterConnectAttempt`] per TCP attempt,
    /// carrying the control-plane `trace` of the plan request driving
    /// the sequence ([`obs::control_trace`]; 0 = untraced) and the
    /// backoff delay scheduled after it (0 on the final attempt).
    /// Events carry no wall-clock time, so retry histories are
    /// comparable across runs.
    pub fn connect_with_retry_obs(
        addr: SocketAddr,
        policy: &BackoffPolicy,
        trace: u64,
        sink: &mut dyn obs::ObsSink,
    ) -> io::Result<MasterClient> {
        let attempts = policy.max_attempts.max(1);
        let mut last_err = io::Error::other("zero connection attempts allowed");
        for attempt in 0..attempts {
            let result = MasterClient::connect(addr);
            let retrying = attempt + 1 < attempts && result.is_err();
            if sink.enabled() {
                sink.record(&obs::ObsEvent::MasterConnectAttempt {
                    trace,
                    attempt,
                    ok: result.is_ok(),
                    backoff_us: if retrying {
                        policy.delay_after(attempt).as_micros() as u64
                    } else {
                        0
                    },
                });
            }
            match result {
                Ok(c) => return Ok(c),
                Err(e) => last_err = e,
            }
            if retrying {
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
    use crate::master::server::MasterServer;
    use crate::master::RegionSpec;
    use obs::{ObsEvent, VecSink};
    use std::net::TcpListener;

    /// (attempt, ok, backoff_us) of each connect attempt `sink` saw,
    /// checking every one carries `trace`.
    fn attempts(sink: &VecSink, trace: u64) -> Vec<(u32, bool, u64)> {
        sink.events()
            .iter()
            .map(|e| match *e {
                ObsEvent::MasterConnectAttempt {
                    trace: t,
                    attempt,
                    ok,
                    backoff_us,
                } => {
                    assert_eq!(t, trace);
                    (attempt, ok, backoff_us)
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    #[test]
    fn retry_reports_each_attempt_and_the_backoff_after_it() {
        // A port nothing listens on any more.
        let dead = TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = BackoffPolicy {
            max_attempts: 3,
            ..BackoffPolicy::fast_for_tests()
        };
        let mut sink = VecSink::new();
        assert!(MasterClient::connect_with_retry_obs(dead, &policy, 77, &mut sink).is_err());
        let backoff = |a| policy.delay_after(a).as_micros() as u64;
        assert_eq!(
            attempts(&sink, 77),
            [
                (0, false, backoff(0)),
                (1, false, backoff(1)),
                (2, false, 0)
            ],
            "the last attempt schedules no backoff"
        );
    }

    #[test]
    fn retry_stops_at_the_first_success() {
        let server = MasterServer::start(RegionSpec {
            band_low_hz: 916_800_000,
            spectrum_hz: 1_600_000,
            expected_networks: 2,
        })
        .unwrap();
        let mut sink = VecSink::new();
        let policy = BackoffPolicy::fast_for_tests();
        let mut client =
            MasterClient::connect_with_retry_obs(server.addr(), &policy, 5, &mut sink).unwrap();
        assert_eq!(attempts(&sink, 5), [(0, true, 0)]);
        assert!(client.register("op-r").is_ok());
        server.shutdown();
    }
}
