//! The socket front-end: accept loop, per-connection sessions, graceful
//! shutdown, and hostile-peer hardening.
//!
//! [`Server`] listens on TCP (`host:port`) or, on Unix platforms, a Unix
//! domain socket (`unix:/path`). Each accepted connection gets its own
//! handler thread reading request lines and writing single-line replies;
//! the [`TomographyService`] sits behind one mutex, so concurrent
//! sessions observe a serializable history of ingests and inferences.
//!
//! Shutdown is cooperative and **draining**: a `SHUTDOWN` request is
//! answered without taking the service lock (so it cannot queue behind a
//! slow ingest), the accept loop stops, and sessions with a request
//! already in flight get [`ServerConfig::drain_timeout`] to finish it —
//! an `OBS` block half-transferred when `SHUTDOWN` arrives is still
//! ingested, persisted and acked before the daemon exits. Idle sessions
//! close at the next poll tick.
//!
//! Hostile peers are bounded on every axis ([`ServerConfig`]): sessions
//! beyond `max_sessions` are shed with an `ERR busy` line, a request
//! that stops making progress for `request_timeout` (slow-loris) is
//! answered with an `ERR` and the session closed, a session idle beyond
//! `idle_timeout` is dropped, and a panicking request handler is caught
//! — the session replies `ERR internal` and the daemon keeps serving
//! (the service mutex is panic-tolerant). Chaos runs construct the
//! server over a seeded [`FaultPlan`], which wraps every accepted
//! session stream in a [`crate::faults::FaultyStream`];
//! [`FaultPlan::none`] (the default) is bit-invisible.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::faults::FaultPlan;
use crate::protocol::{self, Reply};
use crate::service::TomographyService;

/// How long the accept loop sleeps when no connection is pending; bounds
/// the shutdown latency.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Read timeout on accepted connections. A session blocked waiting for
/// the next request wakes at this cadence to poll the shutdown flag, so
/// `SHUTDOWN` can join every session even while other clients sit idle on
/// open connections.
const SESSION_READ_POLL: Duration = Duration::from_millis(100);

/// Per-session limits and fault injection for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections are shed with a
    /// single `ERR busy` line and closed.
    pub max_sessions: usize,
    /// A session with no request activity for this long is closed.
    pub idle_timeout: Duration,
    /// A request that stops making byte progress for this long — a
    /// half-sent line or a trickled `OBS` payload (slow-loris) — is
    /// answered with an `ERR` and the session closed.
    pub request_timeout: Duration,
    /// After `SHUTDOWN` is observed, how long an in-flight request may
    /// keep going before the session is abandoned; bounds how long a
    /// hostile stalled client can delay daemon exit.
    pub drain_timeout: Duration,
    /// Seeded fault injection wrapped around every accepted session
    /// stream ([`FaultPlan::none`] is bit-invisible).
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            idle_timeout: Duration::from_secs(300),
            request_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(2),
            faults: FaultPlan::none(),
        }
    }
}

/// The per-session slice of the config, passed into session threads.
#[derive(Clone, Copy)]
struct SessionLimits {
    idle: Duration,
    request: Duration,
    drain: Duration,
}

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A Unix domain socket path (Unix platforms only).
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses an address argument: a `unix:` prefix selects a Unix
    /// domain socket, anything else is a TCP `host:port`.
    pub fn parse(arg: &str) -> ListenAddr {
        match arg.strip_prefix("unix:") {
            Some(path) => ListenAddr::Unix(PathBuf::from(path)),
            None => ListenAddr::Tcp(arg.to_string()),
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "tcp://{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// The daemon's socket server: one listener, one shared service, one
/// session thread per connection.
pub struct Server {
    listener: Listener,
    service: Arc<Mutex<TomographyService>>,
    shutdown: Arc<AtomicBool>,
    /// The Unix socket path to unlink once the server stops.
    unix_path: Option<PathBuf>,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and wraps the service for concurrent sessions,
    /// with default [`ServerConfig`] limits and no fault injection.
    /// A stale Unix socket file from a previous run is replaced.
    pub fn bind(service: TomographyService, addr: &ListenAddr) -> std::io::Result<Server> {
        Self::bind_with(service, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit session limits / fault injection.
    pub fn bind_with(
        service: TomographyService,
        addr: &ListenAddr,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let (listener, unix_path) = match addr {
            ListenAddr::Tcp(tcp) => (Listener::Tcp(TcpListener::bind(tcp.as_str())?), None),
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                // Binding fails with AddrInUse if the file exists, even
                // when no process listens on it; remove leftovers first.
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    Some(path.clone()),
                )
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix domain sockets are not available on this platform",
                ))
            }
        };
        Ok(Server {
            listener,
            service: Arc::new(Mutex::new(service)),
            shutdown: Arc::new(AtomicBool::new(false)),
            unix_path,
            config,
        })
    }

    /// The bound address in `ListenAddr` display form — for TCP this is
    /// the **actual** address, so binding port 0 reports the ephemeral
    /// port a client should connect to.
    pub fn local_description(&self) -> String {
        match &self.listener {
            Listener::Tcp(listener) => match listener.local_addr() {
                Ok(addr) => format!("tcp://{addr}"),
                Err(_) => "tcp://<unknown>".to_string(),
            },
            #[cfg(unix)]
            Listener::Unix(_) => match &self.unix_path {
                Some(path) => format!("unix://{}", path.display()),
                None => "unix://<unknown>".to_string(),
            },
        }
    }

    /// Runs the accept loop until shutdown, then joins every session
    /// thread and removes the Unix socket file (if any).
    pub fn run(self) -> std::io::Result<()> {
        match &self.listener {
            Listener::Tcp(listener) => listener.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(listener) => listener.set_nonblocking(true)?,
        }
        let limits = SessionLimits {
            idle: self.config.idle_timeout,
            request: self.config.request_timeout,
            drain: self.config.drain_timeout,
        };
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // Stream ids key each session's deterministic fault schedule.
        let mut next_stream_id: u64 = 0;
        while !self.shutdown.load(Ordering::SeqCst) {
            // Reap finished sessions first: the connection cap counts
            // live sessions, and a long-lived daemon must not
            // accumulate handles.
            sessions.retain(|h| !h.is_finished());
            let at_capacity = sessions.len() >= self.config.max_sessions;
            let accepted = match &self.listener {
                Listener::Tcp(listener) => match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        if at_capacity {
                            shed_busy(stream, self.config.max_sessions);
                            None
                        } else {
                            stream.set_read_timeout(Some(SESSION_READ_POLL))?;
                            let id = next_stream_id;
                            next_stream_id += 1;
                            Some(spawn_session(
                                self.config.faults.wrap(stream, id),
                                &self.service,
                                &self.shutdown,
                                limits,
                            ))
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                Listener::Unix(listener) => match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        if at_capacity {
                            shed_busy(stream, self.config.max_sessions);
                            None
                        } else {
                            stream.set_read_timeout(Some(SESSION_READ_POLL))?;
                            let id = next_stream_id;
                            next_stream_id += 1;
                            Some(spawn_session(
                                self.config.faults.wrap(stream, id),
                                &self.service,
                                &self.shutdown,
                                limits,
                            ))
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match accepted {
                Some(handle) => sessions.push(handle),
                None => std::thread::sleep(ACCEPT_POLL),
            }
        }
        for handle in sessions {
            let _ = handle.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Writes the single `ERR busy` line to a connection over the session
/// cap and drops it. Best-effort: a peer that already vanished is
/// simply dropped.
fn shed_busy<S: Write>(mut stream: S, cap: usize) {
    let _ = writeln!(
        stream,
        "ERR busy: connection limit {cap} reached, retry later"
    );
    let _ = stream.flush();
}

fn spawn_session<S>(
    stream: S,
    service: &Arc<Mutex<TomographyService>>,
    shutdown: &Arc<AtomicBool>,
    limits: SessionLimits,
) -> std::thread::JoinHandle<()>
where
    S: std::io::Read + Write + Send + 'static,
{
    let service = Arc::clone(service);
    let shutdown = Arc::clone(shutdown);
    std::thread::spawn(move || {
        // Session errors (a peer vanishing mid-request) just end the
        // session; the daemon itself keeps serving.
        let _ = run_session(stream, &service, &shutdown, limits);
    })
}

/// Whether a read error is the periodic read-timeout tick (reported as
/// `WouldBlock` on Unix, `TimedOut` on other platforms) rather than a
/// real failure.
fn is_read_poll(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A reader that retries the underlying stream's read-timeout ticks so a
/// framed `OBS` payload can span several ticks on a slow client — but
/// bounded: a body that stops making byte progress for the request
/// deadline fails with `TimedOut` (slow-loris), and once shutdown is
/// observed the remaining transfer gets only the drain window.
struct PolledReader<'a, R> {
    inner: &'a mut R,
    shutdown: &'a AtomicBool,
    /// Per-request stall bound; the deadline resets on every chunk of
    /// byte progress, so a slow-but-moving transfer is never aborted.
    request: Duration,
    deadline: Instant,
    /// How much longer a request already in flight may keep going after
    /// shutdown is observed.
    drain: Duration,
    drain_deadline: Option<Instant>,
    /// Set when a read failed on a deadline: the session should close
    /// after replying instead of trusting the stalled peer further.
    timed_out: bool,
}

impl<'a, R> PolledReader<'a, R> {
    fn new(inner: &'a mut R, shutdown: &'a AtomicBool, limits: SessionLimits) -> Self {
        PolledReader {
            inner,
            shutdown,
            request: limits.request,
            deadline: Instant::now() + limits.request,
            drain: limits.drain,
            drain_deadline: None,
            timed_out: false,
        }
    }
}

impl<R: std::io::Read> std::io::Read for PolledReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.deadline = Instant::now() + self.request;
                    }
                    return Ok(n);
                }
                Err(e) if is_read_poll(&e) => {
                    let now = Instant::now();
                    if self.shutdown.load(Ordering::SeqCst) {
                        let deadline = *self.drain_deadline.get_or_insert(now + self.drain);
                        if now >= deadline {
                            self.timed_out = true;
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "drain window elapsed with the request body still unsent",
                            ));
                        }
                    } else if now >= self.deadline {
                        self.timed_out = true;
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request body stalled past the request deadline",
                        ));
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Writes one reply line (text + `\n`) as a single buffer and flushes.
/// One `write` per reply matters on an unbuffered TCP socket: a second,
/// one-byte write would sit behind Nagle's algorithm until the client's
/// delayed ACK, ~40 ms per request.
fn reply_line<W: Write>(stream: &mut W, text: &str) -> std::io::Result<()> {
    let mut line = Vec::with_capacity(text.len() + 1);
    line.extend_from_slice(text.as_bytes());
    line.push(b'\n');
    stream.write_all(&line)?;
    stream.flush()
}

/// Serves one connection: read a request line, dispatch it against the
/// shared service (holding the lock across the OBS payload read, so a
/// block ingests atomically), write the single-line reply.
///
/// Exits on EOF, on a socket error, when idle past the idle deadline,
/// when a request line stalls past the request deadline (after an `ERR
/// timeout` reply), on shutdown (immediately while idle; after at most
/// the drain window for a request in flight, which still gets its
/// reply), or after replying to `SHUTDOWN`. A panicking request handler
/// is caught: the session replies `ERR internal` and the daemon keeps
/// serving.
fn run_session<S: std::io::Read + Write>(
    stream: S,
    service: &Mutex<TomographyService>,
    shutdown: &AtomicBool,
    limits: SessionLimits,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut idle_since = Instant::now();
    let mut line_progress = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // A timed-out read keeps any partial line accumulated so far and
        // polls the deadlines; a request already in flight still gets
        // its reply before the session exits.
        let len_before = line.len();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF: client closed the connection.
            Ok(_) => {}
            Err(e) if is_read_poll(&e) => {
                let now = Instant::now();
                if line.len() > len_before {
                    line_progress = now;
                }
                if shutdown.load(Ordering::SeqCst) {
                    if line.is_empty() {
                        return Ok(()); // Idle between requests: close now.
                    }
                    // A request line is mid-transfer: drain it, bounded.
                    let deadline = *drain_deadline.get_or_insert(now + limits.drain);
                    if now >= deadline {
                        return Ok(());
                    }
                } else if line.is_empty() {
                    if now.duration_since(idle_since) >= limits.idle {
                        return Ok(()); // Idle session: drop it.
                    }
                } else if now.duration_since(line_progress) >= limits.request {
                    // Slow-loris: a half-sent request line that stopped
                    // making progress. Tell the peer and hang up.
                    let _ = reply_line(
                        reader.get_mut(),
                        "ERR timeout: request line stalled past the request deadline",
                    );
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let request = line.trim_end_matches(['\r', '\n']);
        if request.trim().is_empty() {
            line.clear();
            idle_since = Instant::now();
            line_progress = idle_since;
            continue;
        }
        if request.trim() == "SHUTDOWN" {
            // Fast-path: answered without the service lock, so SHUTDOWN
            // cannot queue behind another session's slow ingest.
            shutdown.store(true, Ordering::SeqCst);
            return reply_line(reader.get_mut(), "OK bye");
        }
        let (reply, body_timed_out) = {
            // A panic in an earlier request poisons the mutex without
            // corrupting the service (a request either completes its
            // mutation or errors out first), so recover the guard
            // instead of propagating the poison to every later session.
            let mut service = service.lock().unwrap_or_else(PoisonError::into_inner);
            let mut body = PolledReader::new(&mut reader, shutdown, limits);
            let reply = catch_unwind(AssertUnwindSafe(|| {
                protocol::execute(&mut service, request, &mut body)
            }))
            .unwrap_or_else(|_| Reply {
                text: "ERR internal: request handler panicked (session isolated)".into(),
                shutdown: false,
            });
            (reply, body.timed_out)
        };
        line.clear();
        idle_since = Instant::now();
        line_progress = idle_since;
        reply_line(reader.get_mut(), &reply.text)?;
        if reply.shutdown {
            shutdown.store(true, Ordering::SeqCst);
            return Ok(());
        }
        if body_timed_out || shutdown.load(Ordering::SeqCst) {
            // Don't trust a stalled peer with another request; and once
            // shutdown is observed, the request just answered was this
            // session's last.
            return Ok(());
        }
    }
}

// Session streams the server accepts. (TcpStream/UnixStream already
// implement Read + Write + Send; nothing to add — this block just keeps
// the bound requirements in one visible place.)
#[allow(dead_code)]
fn _assert_session_streams() {
    fn assert_stream<S: std::io::Read + Write + Send + 'static>() {}
    assert_stream::<TcpStream>();
    #[cfg(unix)]
    assert_stream::<UnixStream>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::Read;

    use netcorr_core::AlgorithmConfig;
    use netcorr_measure::PathObservations;
    use netcorr_topology::toy;

    fn service() -> TomographyService {
        TomographyService::new(&toy::figure_1a(), &AlgorithmConfig::default()).unwrap()
    }

    fn observations(snapshots: usize) -> PathObservations {
        let mut obs = PathObservations::new(3);
        for i in 0..snapshots {
            obs.record_snapshot(&[i % 3 == 0, i % 4 == 0, i % 5 == 0])
                .unwrap();
        }
        obs
    }

    /// Counts `write` calls, accepting every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn replies_go_out_in_one_write() {
        let mut out = CountingWriter::default();
        reply_line(&mut out, "OK pong").unwrap();
        assert_eq!(out.writes, 1);
        reply_line(&mut out, "").unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(out.bytes, b"OK pong\n\n");
    }

    #[test]
    fn listen_addresses_parse_and_display() {
        assert_eq!(
            ListenAddr::parse("127.0.0.1:9000"),
            ListenAddr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/nc.sock"),
            ListenAddr::Unix(PathBuf::from("/tmp/nc.sock"))
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:9000").to_string(),
            "tcp://127.0.0.1:9000"
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/nc.sock").to_string(),
            "unix:///tmp/nc.sock"
        );
    }

    #[test]
    fn tcp_session_end_to_end_with_in_band_shutdown() {
        let server = Server::bind(service(), &ListenAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let description = server.local_description();
        let addr = description.strip_prefix("tcp://").unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect_tcp(&addr).unwrap();
        client.ping().unwrap();
        let obs = observations(30);
        let (ingested, total) = client.ingest(&obs).unwrap();
        assert_eq!((ingested, total), (30, 30));
        let infer = client.infer().unwrap();
        assert_eq!(infer.snapshots, 30);
        let probs = client.probabilities().unwrap();
        assert_eq!(probs.len(), 4);
        // A second client sees the same state (sessions share the service).
        let mut second = Client::connect_tcp(&addr).unwrap();
        assert_eq!(second.probabilities().unwrap(), probs);
        // An in-band error leaves both sessions usable.
        assert!(second.probability(99).is_err());
        second.ping().unwrap();

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_session_and_socket_file_cleanup() {
        let path =
            std::env::temp_dir().join(format!("netcorr-serve-test-{}.sock", std::process::id()));
        let addr = ListenAddr::Unix(path.clone());
        let server = Server::bind(service(), &addr).unwrap();
        assert_eq!(
            server.local_description(),
            format!("unix://{}", path.display())
        );
        let handle = std::thread::spawn(move || server.run());

        let mut client = Client::connect_unix(&path).unwrap();
        client.ingest(&observations(16)).unwrap();
        client.infer().unwrap();
        assert!(client.status().unwrap().inferred);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file should be removed on shutdown");
        // Binding over a stale socket file works (simulate a crash leftover).
        std::fs::write(&path, b"").unwrap();
        let server = Server::bind(service(), &addr).unwrap();
        server.shutdown.store(true, Ordering::SeqCst);
        server.run().unwrap();
        assert!(!path.exists());
    }

    /// Binds a server with the given config and returns
    /// `(tcp address, join handle)`.
    fn spawn_tcp(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
        let server =
            Server::bind_with(service(), &ListenAddr::Tcp("127.0.0.1:0".into()), config).unwrap();
        let description = server.local_description();
        let addr = description.strip_prefix("tcp://").unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    #[test]
    fn connections_over_the_cap_are_shed_with_err_busy() {
        let config = ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        };
        let (addr, handle) = spawn_tcp(config);

        let mut first = Client::connect_tcp(&addr).unwrap();
        first.ping().unwrap();
        // The second connection is over the cap: one ERR busy line, then
        // the server hangs up.
        let second = TcpStream::connect(&addr).unwrap();
        let mut line = String::new();
        BufReader::new(&second).read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR busy"), "got {line:?}");
        drop(second);
        // The session inside the cap is unaffected by the shed one.
        first.ping().unwrap();
        drop(first);
        // Closing it frees the slot (after the accept loop reaps the
        // finished session thread).
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut retry = loop {
            let mut retry = Client::connect_tcp(&addr).unwrap();
            if retry.ping().is_ok() {
                break retry;
            }
            assert!(Instant::now() < deadline, "shed slot never freed");
            std::thread::sleep(Duration::from_millis(10));
        };
        retry.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn a_panicking_request_is_isolated_to_its_session() {
        let (addr, handle) = spawn_tcp(ServerConfig::default());

        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(b"XPANIC\n").unwrap();
        raw.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&raw).read_line(&mut line).unwrap();
        assert!(
            line.starts_with("ERR internal: request handler panicked"),
            "got {line:?}"
        );
        drop(raw);

        // The daemon keeps serving, and the service state survived.
        let mut client = Client::connect_tcp(&addr).unwrap();
        client.ping().unwrap();
        client.ingest(&observations(12)).unwrap();
        assert_eq!(client.infer().unwrap().snapshots, 12);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_drains_an_obs_ingest_already_in_flight() {
        let (addr, handle) = spawn_tcp(ServerConfig::default());

        // Start an OBS upload but hold back the final bytes.
        let mut ingest = TcpStream::connect(&addr).unwrap();
        let framed = protocol::frame_observations(&observations(20));
        let split = framed.len() - 7;
        ingest.write_all(&framed[..split]).unwrap();
        ingest.flush().unwrap();
        // Give the session time to enter the body read, then shut the
        // daemon down from a second session.
        std::thread::sleep(Duration::from_millis(150));
        let mut other = Client::connect_tcp(&addr).unwrap();
        other.shutdown().unwrap();
        // The in-flight ingest still completes, is acked, and only then
        // does the daemon exit.
        std::thread::sleep(Duration::from_millis(50));
        ingest.write_all(&framed[split..]).unwrap();
        ingest.flush().unwrap();
        let mut line = String::new();
        BufReader::new(&ingest).read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK ingested=20 snapshots=20");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_sessions_are_dropped_at_the_idle_deadline() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let (addr, handle) = spawn_tcp(config);

        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The server closes the idle session: the client reads EOF.
        let mut buf = [0u8; 1];
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
        Client::connect_tcp(&addr).unwrap().shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}
