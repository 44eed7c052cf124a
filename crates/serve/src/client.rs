//! A small typed client for the daemon's wire protocol, hardened
//! against an unresponsive server.
//!
//! [`Client`] wraps any bidirectional byte stream (TCP, Unix socket, or
//! an in-memory pipe in tests) and exposes one method per protocol
//! command, parsing the single-line replies back into numbers. Because
//! replies carry probabilities in Rust's shortest-round-trip `f64`
//! representation, the values a client parses are **bit-identical** to
//! the ones the service computed.
//!
//! The socket constructors apply [`ClientConfig`] connect and read
//! timeouts, so a stalled listener (accepts, then never replies)
//! surfaces as [`ClientError::Timeout`] instead of hanging the caller
//! forever. A timed-out session should be discarded: the connection may
//! still carry a late reply to the abandoned request.
//!
//! [`ReconnectingClient`] adds deterministic bounded-exponential-backoff
//! reconnection on transport failures — but **only** for the idempotent
//! read-only requests (`PING`, `STATUS`, `PROB`, `PROBS`, `STATE`).
//! Ingests, inferences and `SHUTDOWN` are deliberately single-shot: a
//! lost `OBS` ack leaves the client unsure whether the block landed, and
//! blindly resending would double-count it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

use netcorr_measure::PathObservations;

use crate::protocol::frame_observations;
use crate::service::{HistoryStatus, ServiceStatus};

/// Timeouts and retry policy for socket clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// TCP connect timeout (Unix-socket connects are effectively local
    /// and not bounded separately).
    pub connect_timeout: Duration,
    /// Per-reply read timeout; an expired one is a
    /// [`ClientError::Timeout`].
    pub read_timeout: Duration,
    /// How many times a [`ReconnectingClient`] retries an idempotent
    /// request after the first attempt fails on a transport error.
    pub retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            retries: 3,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// The deterministic backoff before retry number `attempt` (0-based):
/// `backoff_base * 2^attempt`, saturating at `backoff_cap`. No jitter —
/// chaos runs must replay bit-identically.
pub fn backoff_delay(config: &ClientConfig, attempt: u32) -> Duration {
    let factor = 2u32.saturating_pow(attempt);
    config
        .backoff_base
        .saturating_mul(factor)
        .min(config.backoff_cap)
}

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The socket failed (connect, read or write).
    Io(String),
    /// The server accepted but did not reply within the read timeout.
    Timeout(String),
    /// The server replied `ERR <message>`.
    Server(String),
    /// The server's reply did not match the protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "i/o error: {msg}"),
            ClientError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "malformed reply: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ClientError::Timeout(e.to_string())
            }
            _ => ClientError::Io(e.to_string()),
        }
    }
}

impl ClientError {
    /// Whether this failure broke (or may have broken) the transport, so
    /// the session should be re-established before another request.
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Timeout(_))
    }
}

/// The parsed `INFER` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct InferReply {
    /// Snapshots the estimate covers.
    pub snapshots: usize,
    /// The numerical path that produced it (`DenseExact`, `DenseL1`,
    /// `SparseIterative`).
    pub solver: String,
    /// Euclidean residual over the collected equations.
    pub residual: f64,
    /// Solver work: CGLS iterations (`SparseIterative`), simplex pivots
    /// (`DenseL1`), 0 for `DenseExact`.
    pub iterations: usize,
    /// Whether the server is serving a degraded (stale) estimate — the
    /// refresh failed or did not converge and the last good estimate is
    /// being served instead.
    pub stale: bool,
}

/// A protocol session over one connected stream.
pub struct Client<S: Read + Write> {
    stream: BufReader<S>,
}

/// Dials `addr` with the config's connect timeout (trying each resolved
/// address) and applies the read timeout to the connected stream.
fn connect_tcp_stream(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
) -> std::io::Result<TcpStream> {
    let mut last: Option<std::io::Error> = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, config.connect_timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(config.read_timeout))?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no socket addresses",
        )
    }))
}

impl Client<TcpStream> {
    /// Connects over TCP (`host:port`) with default [`ClientConfig`]
    /// connect/read timeouts.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_tcp_with(addr, &ClientConfig::default())
    }

    /// [`Client::connect_tcp`] with explicit timeouts.
    pub fn connect_tcp_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> std::io::Result<Self> {
        Ok(Client::new(connect_tcp_stream(addr, config)?))
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connects over a Unix domain socket with default [`ClientConfig`]
    /// read timeout.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::connect_unix_with(path, &ClientConfig::default())
    }

    /// [`Client::connect_unix`] with explicit timeouts.
    pub fn connect_unix_with(
        path: impl AsRef<Path>,
        config: &ClientConfig,
    ) -> std::io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        Ok(Client::new(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Self {
        Client {
            stream: BufReader::new(stream),
        }
    }

    /// Sends raw request bytes and reads the single-line reply, already
    /// split into `OK` payload or [`ClientError::Server`].
    fn exchange(&mut self, request: &[u8]) -> Result<String, ClientError> {
        let stream = self.stream.get_mut();
        stream.write_all(request)?;
        stream.flush()?;
        let mut reply = String::new();
        if self.stream.read_line(&mut reply)? == 0 {
            return Err(ClientError::Io("server closed the connection".into()));
        }
        let reply = reply.trim_end_matches(['\r', '\n']);
        if let Some(payload) = reply.strip_prefix("OK") {
            Ok(payload.trim_start().to_string())
        } else if let Some(message) = reply.strip_prefix("ERR ") {
            Err(ClientError::Server(message.to_string()))
        } else {
            Err(ClientError::Protocol(format!(
                "reply is neither OK nor ERR: {reply:?}"
            )))
        }
    }

    fn command(&mut self, line: &str) -> Result<String, ClientError> {
        self.exchange(format!("{line}\n").as_bytes())
    }

    /// `PING` — liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let payload = self.command("PING")?;
        if payload == "pong" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "unexpected PING payload {payload:?}"
            )))
        }
    }

    /// `OBS` — streams an observation block; returns
    /// `(snapshots ingested, total snapshots)`.
    pub fn ingest(
        &mut self,
        observations: &PathObservations,
    ) -> Result<(usize, usize), ClientError> {
        let payload = self.exchange(&frame_observations(observations))?;
        Ok((
            parse_field(&payload, "ingested")?,
            parse_field(&payload, "snapshots")?,
        ))
    }

    /// `OBS` with a pre-encoded (possibly malformed) payload, framed
    /// exactly like [`Client::ingest`] — lets tests and replay tools
    /// push raw v3 blocks without decoding them first. Returns
    /// `(snapshots ingested, total snapshots)`.
    pub fn ingest_raw_block(&mut self, block: &[u8]) -> Result<(usize, usize), ClientError> {
        let mut framed = format!("OBS {}\n", block.len()).into_bytes();
        framed.extend_from_slice(block);
        let payload = self.exchange(&framed)?;
        Ok((
            parse_field(&payload, "ingested")?,
            parse_field(&payload, "snapshots")?,
        ))
    }

    /// `INFER` — refreshes the server's estimate.
    pub fn infer(&mut self) -> Result<InferReply, ClientError> {
        let payload = self.command("INFER")?;
        Ok(InferReply {
            snapshots: parse_field(&payload, "snapshots")?,
            solver: text_field(&payload, "solver")?,
            residual: parse_field(&payload, "residual")?,
            iterations: parse_field(&payload, "iterations")?,
            stale: parse_field(&payload, "stale")?,
        })
    }

    /// `PROB` — one link's latest congestion probability.
    pub fn probability(&mut self, link: usize) -> Result<f64, ClientError> {
        let payload = self.command(&format!("PROB {link}"))?;
        payload
            .parse()
            .map_err(|_| ClientError::Protocol(format!("non-numeric probability {payload:?}")))
    }

    /// `PROBS` — every link's latest congestion probability, discarding
    /// the stale flag (see [`Client::probabilities_flagged`]).
    pub fn probabilities(&mut self) -> Result<Vec<f64>, ClientError> {
        Ok(self.probabilities_flagged()?.1)
    }

    /// `PROBS` — every link's latest congestion probability, plus
    /// whether the server flagged the estimate as stale (degraded
    /// serving after a failed or non-converged refresh).
    pub fn probabilities_flagged(&mut self) -> Result<(bool, Vec<f64>), ClientError> {
        let payload = self.command("PROBS")?;
        let mut words = payload.split(' ');
        let stale = match words.next() {
            Some("stale=true") => true,
            Some("stale=false") => false,
            _ => {
                return Err(ClientError::Protocol(format!(
                    "missing PROBS stale flag in {payload:?}"
                )))
            }
        };
        let count: usize =
            words.next().unwrap_or("").parse().map_err(|_| {
                ClientError::Protocol(format!("missing PROBS count in {payload:?}"))
            })?;
        let probabilities = words
            .map(|w| {
                w.parse::<f64>().map_err(|_| {
                    ClientError::Protocol(format!("non-numeric probability {w:?} in PROBS"))
                })
            })
            .collect::<Result<Vec<f64>, ClientError>>()?;
        if probabilities.len() != count {
            return Err(ClientError::Protocol(format!(
                "PROBS declared {count} values but carried {}",
                probabilities.len()
            )));
        }
        Ok((stale, probabilities))
    }

    /// `STATE` — congested / good verdict for a link; `threshold`
    /// defaults server-side to
    /// [`crate::protocol::DEFAULT_STATE_THRESHOLD`]. Returns
    /// `(congested, probability)`.
    pub fn link_state(
        &mut self,
        link: usize,
        threshold: Option<f64>,
    ) -> Result<(bool, f64), ClientError> {
        let line = match threshold {
            Some(t) => format!("STATE {link} {t}"),
            None => format!("STATE {link}"),
        };
        let payload = self.command(&line)?;
        Ok((
            text_field(&payload, "congested")? == "true",
            parse_field(&payload, "probability")?,
        ))
    }

    /// `STATUS` — the server's point-in-time summary.
    pub fn status(&mut self) -> Result<ServiceStatus, ClientError> {
        let payload = self.command("STATUS")?;
        let solver = text_field(&payload, "solver")?;
        Ok(ServiceStatus {
            num_paths: parse_field(&payload, "paths")?,
            num_links: parse_field(&payload, "links")?,
            num_snapshots: parse_field(&payload, "snapshots")?,
            num_equations: parse_field(&payload, "equations")?,
            rank: parse_field(&payload, "rank")?,
            identified: parse_field(&payload, "identified")?,
            reinfers: parse_field(&payload, "reinfers")?,
            solver: match solver.as_str() {
                "DenseExact" => netcorr_core::SolverKind::DenseExact,
                "DenseL1" => netcorr_core::SolverKind::DenseL1,
                "SparseIterative" => netcorr_core::SolverKind::SparseIterative,
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unknown solver kind {other:?}"
                    )))
                }
            },
            inferred: text_field(&payload, "inferred")? == "true",
            stale: parse_field(&payload, "stale")?,
            kernel: text_field(&payload, "kernel")?,
            history: match text_field(&payload, "history")?.as_str() {
                "none" => None,
                spec => {
                    let (backing, path) = spec.split_once(':').ok_or_else(|| {
                        ClientError::Protocol(format!(
                            "history field {spec:?} is not `backing:path`"
                        ))
                    })?;
                    Some(HistoryStatus {
                        path: path.to_string(),
                        backing: backing.to_string(),
                        snapshots: parse_field(&payload, "history_snapshots")?,
                        bytes: parse_field(&payload, "history_bytes")?,
                        generation: parse_field(&payload, "history_generation")?,
                        recovered: parse_field(&payload, "history_recovered")?,
                    })
                }
            },
        })
    }

    /// `SHUTDOWN` — asks the server to stop accepting connections and
    /// exit once in-flight sessions finish.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.command("SHUTDOWN").map(|_| ())
    }
}

/// How a [`ReconnectingClient`] (re-)establishes its transport.
pub trait Connector {
    /// The connected stream type.
    type Stream: Read + Write;
    /// Opens a fresh connection.
    fn connect(&self) -> Result<Self::Stream, ClientError>;
}

/// Dials a TCP daemon with [`ClientConfig`] connect/read timeouts on
/// every (re-)connect.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    /// The daemon's `host:port`.
    pub addr: String,
    /// Timeouts applied to every dial.
    pub config: ClientConfig,
}

impl Connector for TcpConnector {
    type Stream = TcpStream;
    fn connect(&self) -> Result<TcpStream, ClientError> {
        Ok(connect_tcp_stream(self.addr.as_str(), &self.config)?)
    }
}

/// A client that survives daemon restarts and mid-request disconnects:
/// transport failures (`Io`/`Timeout`) on **idempotent read-only**
/// requests are retried over a fresh connection after a deterministic
/// bounded exponential backoff ([`backoff_delay`]).
///
/// Mutating or at-most-once requests — `OBS` ingests, `INFER`,
/// `SHUTDOWN` — are **never retried**: a transport error still tears
/// the session down (the next request reconnects), but the error is
/// surfaced to the caller, who alone knows whether resending is safe.
pub struct ReconnectingClient<C: Connector> {
    connector: C,
    config: ClientConfig,
    session: Option<Client<C::Stream>>,
}

impl ReconnectingClient<TcpConnector> {
    /// A reconnecting client for a TCP daemon at `addr`.
    pub fn tcp(addr: &str, config: ClientConfig) -> Self {
        ReconnectingClient::new(
            TcpConnector {
                addr: addr.to_string(),
                config: config.clone(),
            },
            config,
        )
    }
}

impl<C: Connector> ReconnectingClient<C> {
    /// Wraps a connector; no connection is opened until the first
    /// request.
    pub fn new(connector: C, config: ClientConfig) -> Self {
        ReconnectingClient {
            connector,
            config,
            session: None,
        }
    }

    /// The live session, (re-)connecting if necessary.
    fn session(&mut self) -> Result<&mut Client<C::Stream>, ClientError> {
        if self.session.is_none() {
            self.session = Some(Client::new(self.connector.connect()?));
        }
        Ok(self.session.as_mut().expect("session was just established"))
    }

    /// Runs an idempotent request with reconnect-and-retry on transport
    /// failures. Server `ERR` replies and protocol violations are
    /// returned immediately — the transport is fine, retrying cannot
    /// change the answer.
    fn retry<T>(
        &mut self,
        op: impl Fn(&mut Client<C::Stream>) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(&self.config, attempt - 1));
            }
            match self.session() {
                Ok(client) => match op(client) {
                    Ok(value) => return Ok(value),
                    Err(e) if e.is_transport() => {
                        self.session = None;
                        last = Some(e);
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    self.session = None;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Io("no connection attempts made".into())))
    }

    /// Runs a request exactly once; a transport failure tears the
    /// session down (so the next request reconnects) but is surfaced,
    /// never retried.
    fn single_shot<T>(
        &mut self,
        op: impl FnOnce(&mut Client<C::Stream>) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let result = op(self.session()?);
        if matches!(&result, Err(e) if e.is_transport()) {
            self.session = None;
        }
        result
    }

    /// `PING`, with reconnect-and-retry.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.retry(|c| c.ping())
    }

    /// `STATUS`, with reconnect-and-retry.
    pub fn status(&mut self) -> Result<ServiceStatus, ClientError> {
        self.retry(|c| c.status())
    }

    /// `PROB <link>`, with reconnect-and-retry.
    pub fn probability(&mut self, link: usize) -> Result<f64, ClientError> {
        self.retry(|c| c.probability(link))
    }

    /// `PROBS`, with reconnect-and-retry.
    pub fn probabilities(&mut self) -> Result<Vec<f64>, ClientError> {
        self.retry(|c| c.probabilities())
    }

    /// `PROBS` with the stale flag, with reconnect-and-retry.
    pub fn probabilities_flagged(&mut self) -> Result<(bool, Vec<f64>), ClientError> {
        self.retry(|c| c.probabilities_flagged())
    }

    /// `STATE <link> [threshold]`, with reconnect-and-retry.
    pub fn link_state(
        &mut self,
        link: usize,
        threshold: Option<f64>,
    ) -> Result<(bool, f64), ClientError> {
        self.retry(|c| c.link_state(link, threshold))
    }

    /// `OBS` ingest — **single-shot** (not idempotent: a lost ack could
    /// double-count the block if resent blindly).
    pub fn ingest(
        &mut self,
        observations: &PathObservations,
    ) -> Result<(usize, usize), ClientError> {
        self.single_shot(|c| c.ingest(observations))
    }

    /// `INFER` — single-shot (it mutates server state and its cost is
    /// not the client's to multiply on a flaky link).
    pub fn infer(&mut self) -> Result<InferReply, ClientError> {
        self.single_shot(|c| c.infer())
    }

    /// `SHUTDOWN` — single-shot (retrying against a daemon that is
    /// already exiting would only manufacture spurious errors).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.single_shot(|c| c.shutdown())
    }
}

/// Extracts `key=value` from a reply payload as text.
fn text_field(payload: &str, key: &str) -> Result<String, ClientError> {
    payload
        .split(' ')
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .map(str::to_string)
        .ok_or_else(|| ClientError::Protocol(format!("missing field {key:?} in {payload:?}")))
}

/// Extracts and parses `key=value` from a reply payload.
fn parse_field<T: std::str::FromStr>(payload: &str, key: &str) -> Result<T, ClientError> {
    let value = text_field(payload, key)?;
    value
        .parse()
        .map_err(|_| ClientError::Protocol(format!("invalid value {value:?} for field {key:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_parse() {
        let payload =
            "paths=3 links=4 snapshots=60 equations=6 rank=4 identified=3 reinfers=2 inferred=true";
        assert_eq!(parse_field::<usize>(payload, "links").unwrap(), 4);
        assert_eq!(parse_field::<usize>(payload, "rank").unwrap(), 4);
        assert_eq!(parse_field::<usize>(payload, "identified").unwrap(), 3);
        assert_eq!(text_field(payload, "inferred").unwrap(), "true");
        // `snapshots` must not match the prefix of another key.
        assert_eq!(parse_field::<usize>(payload, "snapshots").unwrap(), 60);
        assert!(text_field(payload, "absent").is_err());
        assert!(parse_field::<usize>(payload, "inferred").is_err());
    }

    #[test]
    fn history_fields_parse() {
        // `history` must not swallow `history_snapshots` / `history_bytes`
        // (the `=` requirement after the key prevents prefix matches).
        let payload =
            "kernel=portable history=mmap:/var/lib/netcorr/history.ncobs3 history_snapshots=57 \
             history_bytes=1464";
        assert_eq!(
            text_field(payload, "history").unwrap(),
            "mmap:/var/lib/netcorr/history.ncobs3"
        );
        assert_eq!(
            parse_field::<usize>(payload, "history_snapshots").unwrap(),
            57
        );
        assert_eq!(
            parse_field::<usize>(payload, "history_bytes").unwrap(),
            1464
        );
        assert_eq!(text_field(payload, "kernel").unwrap(), "portable");
        let (backing, path) = text_field(payload, "history")
            .unwrap()
            .split_once(':')
            .map(|(b, p)| (b.to_string(), p.to_string()))
            .unwrap();
        assert_eq!(backing, "mmap");
        assert_eq!(path, "/var/lib/netcorr/history.ncobs3");
    }

    #[test]
    fn errors_display() {
        assert!(ClientError::Server("no estimate".into())
            .to_string()
            .contains("no estimate"));
        let e: ClientError = std::io::Error::other("refused").into();
        assert!(e.to_string().contains("refused"));
        // Timed-out socket reads become the dedicated Timeout variant.
        let e: ClientError =
            std::io::Error::new(std::io::ErrorKind::WouldBlock, "resource busy").into();
        assert!(matches!(e, ClientError::Timeout(_)));
        assert!(e.is_transport());
        assert!(!ClientError::Server("x".into()).is_transport());
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            ..ClientConfig::default()
        };
        let delays: Vec<Duration> = (0..8).map(|a| backoff_delay(&config, a)).collect();
        assert_eq!(delays[0], Duration::from_millis(25));
        assert_eq!(delays[1], Duration::from_millis(50));
        assert_eq!(delays[2], Duration::from_millis(100));
        assert_eq!(delays[5], Duration::from_millis(800));
        assert_eq!(delays[6], Duration::from_secs(1), "capped");
        assert_eq!(delays[7], Duration::from_secs(1));
        // Bit-reproducible: the same inputs give the same schedule.
        assert_eq!(
            delays,
            (0..8)
                .map(|a| backoff_delay(&config, a))
                .collect::<Vec<_>>()
        );
    }

    /// Regression test: a listener that accepts and then never replies
    /// must surface as `Timeout`, not hang the caller forever.
    #[test]
    fn stalled_listener_times_out_instead_of_hanging() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            // Accept, then hold the connection open without ever writing.
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let config = ClientConfig {
            read_timeout: Duration::from_millis(100),
            ..ClientConfig::default()
        };
        let started = std::time::Instant::now();
        let mut client = Client::connect_tcp_with(addr, &config).unwrap();
        let err = client.ping().unwrap_err();
        assert!(matches!(err, ClientError::Timeout(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the timeout must fire well before the stall ends"
        );
        stall.join().unwrap();
    }

    /// An in-memory stream that replays scripted reply bytes and
    /// swallows writes.
    struct ScriptStream {
        input: std::io::Cursor<Vec<u8>>,
    }

    impl Read for ScriptStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for ScriptStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Hands out scripted streams in order and counts dials.
    struct ScriptConnector {
        streams: std::sync::Mutex<std::collections::VecDeque<Vec<u8>>>,
        dials: std::sync::atomic::AtomicU32,
    }

    impl ScriptConnector {
        fn new(replies: &[&[u8]]) -> std::sync::Arc<Self> {
            std::sync::Arc::new(ScriptConnector {
                streams: std::sync::Mutex::new(replies.iter().map(|r| r.to_vec()).collect()),
                dials: std::sync::atomic::AtomicU32::new(0),
            })
        }
        fn dials(&self) -> u32 {
            self.dials.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Connector for std::sync::Arc<ScriptConnector> {
        type Stream = ScriptStream;
        fn connect(&self) -> Result<ScriptStream, ClientError> {
            self.dials.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let bytes = self
                .streams
                .lock()
                .unwrap()
                .pop_front()
                .ok_or_else(|| ClientError::Io("no more scripted connections".into()))?;
            Ok(ScriptStream {
                input: std::io::Cursor::new(bytes),
            })
        }
    }

    fn fast_config() -> ClientConfig {
        ClientConfig {
            retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn reconnecting_client_retries_idempotent_requests() {
        // First connection dies instantly (EOF before any reply), the
        // second serves the reply: PING succeeds over the reconnect.
        let connector = ScriptConnector::new(&[b"", b"OK pong\n"]);
        let mut client = ReconnectingClient::new(std::sync::Arc::clone(&connector), fast_config());
        client.ping().unwrap();
        assert_eq!(connector.dials(), 2);
        // A server ERR is not transport trouble: no retry, no reconnect.
        let connector = ScriptConnector::new(&[b"ERR no estimate available\n"]);
        let mut client = ReconnectingClient::new(std::sync::Arc::clone(&connector), fast_config());
        let err = client.probability(0).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "got {err:?}");
        assert_eq!(connector.dials(), 1);
        // Retries are bounded: retries=3 means at most 4 dials.
        let connector = ScriptConnector::new(&[b"", b"", b"", b"", b"", b""]);
        let mut client = ReconnectingClient::new(std::sync::Arc::clone(&connector), fast_config());
        assert!(client.ping().is_err());
        assert_eq!(connector.dials(), 4);
    }

    #[test]
    fn reconnecting_client_never_retries_mutating_requests() {
        // INFER against a dead connection: surfaced after ONE dial.
        let connector = ScriptConnector::new(&[b"", b"OK pong\n"]);
        let mut client = ReconnectingClient::new(std::sync::Arc::clone(&connector), fast_config());
        let err = client.infer().unwrap_err();
        assert!(err.is_transport(), "got {err:?}");
        assert_eq!(connector.dials(), 1, "mutating requests must not retry");
        // But the torn session was dropped: the next (idempotent)
        // request dials fresh and succeeds.
        client.ping().unwrap();
        assert_eq!(connector.dials(), 2);
    }
}
