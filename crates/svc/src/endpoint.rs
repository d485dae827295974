//! A minimal plaintext-HTTP metrics endpoint.
//!
//! Both daemons expose their [`obs::Registry`] over a TCP socket in
//! the Prometheus text exposition format. The server is deliberately
//! tiny — `GET <path>` in, `HTTP/1.0` + `Connection: close` out — so
//! it can be scraped with `curl`, a CI shell script, or a raw
//! `TcpStream` in tests without any HTTP machinery on either side.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client has to send its whole request line. One deadline
/// for the line, not one per read: connections are served one at a
/// time, so a client trickling a byte at a time must not hold the
/// endpoint from everyone else for longer than this.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);

/// Resolves a request path to `(content-type, body)`; `None` → 404.
pub type HttpHandler = Arc<dyn Fn(&str) -> Option<(&'static str, Vec<u8>)> + Send + Sync>;

/// A running metrics endpoint.
pub struct HttpEndpoint {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpEndpoint {
    /// Bind `bind` and serve `handler` until shutdown. Connections are
    /// handled serially on one thread: scrapes are rare and tiny, and
    /// a serial accept loop cannot amplify into a thread flood.
    pub fn start(bind: SocketAddr, handler: HttpHandler) -> io::Result<HttpEndpoint> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_shutdown = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("svc-metrics-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if loop_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(s) = stream {
                        let _ = serve_one(s, &handler);
                    }
                }
            })?;
        Ok(HttpEndpoint {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (scrape target).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serve thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpEndpoint {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown_inner();
        }
    }
}

fn serve_one(mut stream: TcpStream, handler: &HttpHandler) -> io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // Read until the request line is complete; ignore headers/body.
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !buf.windows(2).any(|w| w == b"\r\n") && buf.len() < 8_192 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let line = match buf.split(|&b| b == b'\r').next() {
        Some(l) => String::from_utf8_lossy(l).into_owned(),
        None => return Ok(()),
    };
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method != "GET" {
        http_response(405, "text/plain", b"method not allowed\n")
    } else {
        match handler(path) {
            Some((ctype, body)) => http_response(200, ctype, &body),
            None => http_response(404, "text/plain", b"not found\n"),
        }
    };
    stream.write_all(&response)?;
    Ok(())
}

fn http_response(status: u16, ctype: &str, body: &[u8]) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Fetch `path` from a running endpoint — the scrape helper tests and
/// the load generator use (one GET, read to EOF, return the body).
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(io::Error::other(format!(
            "scrape of {path} failed: {}",
            head.lines().next().unwrap_or("")
        ))),
        None => Err(io::Error::other("malformed HTTP response")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Shutdown};

    fn endpoint() -> HttpEndpoint {
        let handler: HttpHandler = Arc::new(|path| match path {
            "/metrics" => Some(("text/plain; version=0.0.4", b"up 1\n".to_vec())),
            "/healthz" => Some(("text/plain", b"ok\n".to_vec())),
            _ => None,
        });
        HttpEndpoint::start((Ipv4Addr::LOCALHOST, 0).into(), handler).unwrap()
    }

    #[test]
    fn serves_registered_paths() {
        let ep = endpoint();
        assert_eq!(http_get(ep.addr(), "/metrics").unwrap(), "up 1\n");
        assert_eq!(http_get(ep.addr(), "/healthz").unwrap(), "ok\n");
        ep.shutdown();
    }

    #[test]
    fn unknown_path_is_404_and_server_survives() {
        let ep = endpoint();
        let err = http_get(ep.addr(), "/nope").unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        // The serial accept loop must keep serving after an error.
        assert_eq!(http_get(ep.addr(), "/healthz").unwrap(), "ok\n");
        ep.shutdown();
    }

    #[test]
    fn non_get_method_rejected() {
        let ep = endpoint();
        let mut s = TcpStream::connect(ep.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
        ep.shutdown();
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        let ep = endpoint();
        let addr = ep.addr();
        std::thread::scope(|scope| {
            // A byte every 100 ms, each well inside a per-read timeout,
            // and never a line end: accepted first, so served first.
            let mut slow = TcpStream::connect(addr).unwrap();
            slow.write_all(b"G").unwrap();
            scope.spawn(move || {
                let started = Instant::now();
                while started.elapsed() < Duration::from_secs(4) {
                    std::thread::sleep(Duration::from_millis(100));
                    if slow.write_all(b"E").is_err() {
                        break; // the endpoint hung up on us
                    }
                }
            });
            std::thread::sleep(Duration::from_millis(50));
            let asked = Instant::now();
            assert_eq!(http_get(addr, "/healthz").unwrap(), "ok\n");
            let waited = asked.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "/healthz waited {waited:?}"
            );
        });
        ep.shutdown();
    }

    /// What a client sending `request`, then closing its side, reads
    /// back: the response, or nothing when the endpoint closed or reset
    /// the connection instead.
    fn exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The endpoint may answer and close before it reads all of it.
        let _ = s.write_all(request);
        let _ = s.shutdown(Shutdown::Write);
        let mut response = Vec::new();
        match s.read_to_end(&mut response) {
            Ok(_) => response,
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Vec::new(),
            Err(e) => panic!("no answer and no close: {e}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any bytes a client sends get a 200, 404 or 405, or a closed
        /// socket, and the endpoint goes on serving.
        #[test]
        fn any_request_gets_a_status_or_a_close(
            head in 0usize..4,
            body in proptest::collection::vec(any::<u8>(), 0..300),
            tail in 0usize..3,
        ) {
            let head: &[u8] = [&b""[..], b"GET ", b"GET /healthz", b"POST /metrics HTTP/1.0"][head];
            let tail: &[u8] = [&b""[..], b"\r\n", b"\r\n\r\n"][tail];
            let ep = endpoint();
            let response = exchange(ep.addr(), &[head, &body, tail].concat());
            prop_assert!(
                response.is_empty()
                    || [&b"HTTP/1.0 200 "[..], b"HTTP/1.0 404 ", b"HTTP/1.0 405 "]
                        .iter()
                        .any(|status| response.starts_with(status)),
                "{:?}",
                String::from_utf8_lossy(&response)
            );
            prop_assert_eq!(http_get(ep.addr(), "/healthz").unwrap(), "ok\n");
            ep.shutdown();
        }
    }
}
