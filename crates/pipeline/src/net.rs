//! The TCP front end of `stc serve`: the same JSON-lines protocol as the
//! stdin/stdout loop, served to concurrent network clients.
//!
//! Each accepted connection is an independent conversation through the same
//! in-order loop as stdin/stdout, so requests on a connection are answered
//! **in order, on that connection**.  Concurrency comes from serving many
//! connections at once, one thread per connection, bounded by
//! [`NetOptions::max_connections`]; a client over the limit receives one
//! error line and is disconnected.  All connections share one
//! [`crate::ArtifactCache`] and one [`crate::ServeMetrics`], so a machine
//! synthesized for one client is a cache hit for every other.
//!
//! Over TCP, `{"id":…, "shutdown": true}` stops the whole server: it is
//! acknowledged with `{"id":…,"ok":true,"shutdown":true}`, then the server
//! stops accepting, drains open connections and returns (the same graceful
//! path as [`ServerHandle::shutdown`]).  `{"stats": true}` reports the
//! connection counters along with the rest.
//!
//! Shutdown is cooperative: the accept loop and every connection reader
//! poll a shared flag on a short timeout, so [`NetServer::run`] returns
//! promptly (within ~200 ms) once requested, without cutting off responses
//! already being written.

use crate::cache::CacheLimits;
use crate::config::StcConfig;
use crate::json::Json;
use crate::serve::{converse, ServeContext, ServeStats};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long blocking reads wait before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Sleep between polls of the nonblocking accept loop.  Shorter than
/// [`POLL_INTERVAL`] because it bounds the latency of a new client's *first*
/// request, not just shutdown responsiveness.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Tuning of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Maximum simultaneously served connections; clients beyond the limit
    /// get one error line and are disconnected.
    pub max_connections: usize,
    /// Artifact-cache bounds shared by all connections; `None` disables
    /// caching.
    pub cache: Option<CacheLimits>,
}

impl Default for NetOptions {
    /// 64 connections and a default-bounded cache.
    fn default() -> Self {
        Self {
            max_connections: 64,
            cache: Some(CacheLimits::default()),
        }
    }
}

/// A handle for requesting graceful shutdown of a running [`NetServer`]
/// from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests shutdown: the server stops accepting, open connections are
    /// drained, and [`NetServer::run`] returns.  Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A bound-but-not-yet-running TCP serve front end.
///
/// # Example
///
/// ```
/// use stc_pipeline::{NetOptions, NetServer, StcConfig};
/// use std::io::{BufRead, BufReader, Write};
///
/// let mut config = StcConfig::default();
/// config.set("solver.max_nodes", "10000").unwrap();
/// config.set("bist.patterns", "16").unwrap();
/// let server = NetServer::bind("127.0.0.1:0", &config, NetOptions::default()).unwrap();
/// let addr = server.local_addr().unwrap();
/// let handle = server.handle();
/// let running = std::thread::spawn(move || server.run());
///
/// let mut client = std::net::TcpStream::connect(addr).unwrap();
/// writeln!(client, "{{\"id\": 1, \"ping\": true}}").unwrap();
/// let mut line = String::new();
/// BufReader::new(client.try_clone().unwrap()).read_line(&mut line).unwrap();
/// assert!(line.contains("\"pong\":true"));
///
/// handle.shutdown();
/// let stats = running.join().unwrap().unwrap();
/// assert_eq!(stats.requests, 1);
/// ```
pub struct NetServer {
    listener: TcpListener,
    context: ServeContext,
    options: NetOptions,
    shutdown: Arc<AtomicBool>,
}

impl NetServer {
    /// Binds the listener (use port `0` for an ephemeral port, then
    /// [`Self::local_addr`]) and prepares the shared serve state.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        base: &StcConfig,
        options: NetOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            context: ServeContext::new(base.clone(), options.cache),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves an ephemeral port request).
    ///
    /// # Errors
    ///
    /// Propagates the OS error, which practically does not happen on a
    /// bound listener.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A cloneable handle that can request graceful shutdown from another
    /// thread (or from a signal handler).
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serves until shutdown is requested (via [`ServerHandle::shutdown`] or
    /// a `{"shutdown": true}` request), then drains open connections and
    /// returns the request/error counters.
    ///
    /// # Errors
    ///
    /// Only listener-level I/O errors abort the server; per-connection
    /// errors end that connection and are otherwise ignored (the client is
    /// gone — there is nobody to tell).
    pub fn run(self) -> std::io::Result<ServeStats> {
        self.listener.set_nonblocking(true)?;
        let shutdown = &self.shutdown;
        let context = &self.context;
        let result: std::io::Result<()> = std::thread::scope(|scope| {
            while !shutdown.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let metrics = context.metrics();
                        if metrics.active_connections() >= self.options.max_connections as u64 {
                            metrics.connection_rejected();
                            reject(stream, self.options.max_connections);
                            continue;
                        }
                        // Register in the acceptor, before the thread runs,
                        // so a burst of connects cannot overshoot the limit.
                        metrics.connection_opened();
                        scope.spawn(move || {
                            serve_connection(context, shutdown, stream);
                            context.metrics().connection_closed();
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        });
        result?;
        Ok(self.context.stats())
    }
}

/// Tells an over-limit client why it is being disconnected.  Best effort:
/// if even this write fails the client is already gone.
fn reject(mut stream: TcpStream, limit: usize) {
    let line = Json::Object(vec![
        ("id".into(), Json::Null),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::String(format!("server at connection limit ({limit}); retry later")),
        ),
    ])
    .to_compact();
    let _ = writeln!(stream, "{line}");
}

/// Serves one connection's conversation until the client closes, an I/O
/// error occurs, or shutdown is requested.  Errors end the connection and
/// are otherwise ignored: the client is gone, there is nobody to tell.
fn serve_connection(context: &ServeContext, shutdown: &AtomicBool, stream: TcpStream) {
    // A read timeout turns the blocking reader into a poll loop, so an idle
    // connection notices shutdown; a write timeout keeps one stuck client
    // from pinning its thread forever.  TCP_NODELAY matters here: responses
    // are single small lines, and Nagle's algorithm would happily sit on
    // them for a delayed-ACK interval (~40 ms) — three orders of magnitude
    // above a cache hit's service time.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(30)))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let _ = converse(context, BufReader::new(stream), writer, shutdown);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn base() -> StcConfig {
        let mut config = StcConfig::default();
        config.set("solver.max_nodes", "10000").unwrap();
        config.set("solver.stop_at_lower_bound", "true").unwrap();
        config.set("bist.patterns", "16").unwrap();
        config
    }

    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let writer = TcpStream::connect(addr).expect("connect");
            let reader = BufReader::new(writer.try_clone().expect("clone"));
            Self { writer, reader }
        }

        fn roundtrip(&mut self, request: &str) -> Json {
            writeln!(self.writer, "{request}").expect("write request");
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read response");
            Json::parse(&line).expect("response is JSON")
        }
    }

    fn start(
        options: NetOptions,
    ) -> (
        SocketAddr,
        ServerHandle,
        std::thread::JoinHandle<std::io::Result<ServeStats>>,
    ) {
        let server = NetServer::bind("127.0.0.1:0", &base(), options).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let running = std::thread::spawn(move || server.run());
        (addr, handle, running)
    }

    #[test]
    fn serves_machines_over_tcp_with_shared_cache() {
        let (addr, handle, running) = start(NetOptions::default());
        let mut first = Client::connect(addr);
        let response = first.roundtrip("{\"id\": 1, \"machine\": \"tav\"}");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("machine").unwrap().as_str(), Some("tav"));
        // A second connection hits the cache warmed by the first.
        let mut second = Client::connect(addr);
        let again = second.roundtrip("{\"id\": 2, \"machine\": \"tav\"}");
        assert_eq!(again.get("report"), response.get("report"));
        let stats = second.roundtrip("{\"id\": 3, \"stats\": true}");
        let cache = stats.get("stats").unwrap().get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        let connections = stats.get("stats").unwrap().get("connections").unwrap();
        assert_eq!(connections.get("total").unwrap().as_u64(), Some(2));
        handle.shutdown();
        let stats = running.join().unwrap().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn over_limit_connections_are_rejected_with_an_error_line() {
        let (addr, handle, running) = start(NetOptions {
            max_connections: 1,
            ..NetOptions::default()
        });
        let mut first = Client::connect(addr);
        // Complete a roundtrip so the first connection is surely registered.
        assert_eq!(
            first.roundtrip("{\"id\": 1, \"ping\": true}").get("pong"),
            Some(&Json::Bool(true))
        );
        let mut second = Client::connect(addr);
        let rejection = second.roundtrip("{\"id\": 2, \"ping\": true}");
        let error = rejection.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("connection limit"), "{error}");
        // The first connection keeps working.
        assert_eq!(
            first.roundtrip("{\"id\": 3, \"ping\": true}").get("pong"),
            Some(&Json::Bool(true))
        );
        handle.shutdown();
        running.join().unwrap().unwrap();
    }

    /// A request split across read timeouts is one request: the bytes read
    /// before a timeout stay buffered, even when the split falls inside a
    /// multi-byte character.
    #[test]
    fn a_request_split_across_read_timeouts_is_answered_once() {
        let (addr, handle, running) = start(NetOptions::default());
        let mut client = Client::connect(addr);
        let request = "{\"id\": \"é\", \"ping\": true}\n".as_bytes();
        let split = request.iter().position(|&b| !b.is_ascii()).unwrap() + 1;
        client.writer.write_all(&request[..split]).unwrap();
        std::thread::sleep(3 * POLL_INTERVAL);
        client.writer.write_all(&request[split..]).unwrap();
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let pong = Json::parse(&line).unwrap();
        assert_eq!(pong.get("id").unwrap().as_str(), Some("é"));
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        // Nothing else was answered: the next line is the next request's.
        let next = client.roundtrip("{\"id\": 2, \"ping\": true}");
        assert_eq!(next.get("id").unwrap().as_u64(), Some(2));
        handle.shutdown();
        assert_eq!(running.join().unwrap().unwrap().requests, 2);
    }

    #[test]
    fn a_shutdown_request_stops_the_server_gracefully() {
        let (addr, _handle, running) = start(NetOptions::default());
        let mut client = Client::connect(addr);
        let ack = client.roundtrip("{\"id\": 9, \"shutdown\": true}");
        assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
        assert_eq!(ack.get("id").unwrap().as_u64(), Some(9));
        let stats = running.join().unwrap().unwrap();
        assert_eq!(stats.requests, 1);
    }
}
