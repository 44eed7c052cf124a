//! Building, spawning and talking to the real `netcorr-serve` daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::Outcomes;

/// Builds the daemon from the repository's workspace (the current
/// directory) and returns the binary's path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "netcorr-serve",
            "--bin",
            "netcorr-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building netcorr-serve failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let binary = Path::new(&target).join("release").join("netcorr-serve");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

/// A scratch directory inside the checkout for one run's sockets and
/// history files, removed when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_run/<name>-<pid>` (relative, so unix socket paths
    /// stay short wherever the checkout lives).
    pub fn new(name: &str) -> Result<RunDir, String> {
        let path = Path::new(".bench_run").join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leave no empty parent behind either.
        std::fs::remove_dir(".bench_run").ok();
    }
}

/// Where a daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// `unix:<path>`.
    Unix(PathBuf),
    /// TCP loopback with an ephemeral port, reported at start-up.
    Tcp(String),
}

/// A running daemon; killed and reaped if dropped before
/// [`Daemon::shutdown`].
pub struct Daemon {
    child: Option<Child>,
    endpoint: Endpoint,
    /// Drains the daemon's standard output until it exits.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon with `args` plus the listen address of `listen`
    /// and waits until its first `PING` returns `OK`. Returns the daemon
    /// and the time from spawn to that reply (history reload included).
    /// A failed spawn counts as a transport error in `outcomes`.
    pub fn start(
        binary: &Path,
        listen: &Endpoint,
        args: &[&str],
        outcomes: &mut Outcomes,
    ) -> Result<(Daemon, Duration), String> {
        outcomes.attempted += 1;
        let started = Self::try_start(binary, listen, args);
        if started.is_err() {
            outcomes.transport_errors += 1;
        }
        started
    }

    fn try_start(
        binary: &Path,
        listen: &Endpoint,
        args: &[&str],
    ) -> Result<(Daemon, Duration), String> {
        let listen_arg = match listen {
            Endpoint::Unix(path) => format!("unix:{}", path.display()),
            Endpoint::Tcp(_) => "127.0.0.1:0".to_string(),
        };
        let start = Instant::now();
        let mut child = Command::new(binary)
            .arg("--listen")
            .arg(&listen_arg)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            endpoint: listen.clone(),
            drain: None,
        };
        let mut lines = BufReader::new(stdout).lines();
        loop {
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => return Err("the daemon exited before it listened".into()),
            };
            if let Some(addr) = line.strip_prefix("netcorr-serve: listening on tcp://") {
                daemon.endpoint = Endpoint::Tcp(addr.to_string());
                break;
            }
            if line.starts_with("netcorr-serve: listening on unix://") {
                break;
            }
        }
        // Drain the rest of stdout so the daemon never blocks on it.
        daemon.drain = Some(std::thread::spawn(move || for _ in lines {}));
        let mut conn = daemon.connect()?;
        let reply = conn.request(b"PING\n").map_err(|e| format!("PING: {e}"))?;
        if reply != "OK pong" {
            return Err(format!("PING answered {reply:?}"));
        }
        Ok((daemon, start.elapsed()))
    }

    /// Opens a new connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.endpoint)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Sends `SHUTDOWN` and waits for a clean exit (status 0).
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn
            .request(b"SHUTDOWN\n")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        if reply != "OK bye" {
            return Err(format!("SHUTDOWN answered {reply:?}"));
        }
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.join_drain();
                    if status.success() {
                        return Ok(());
                    }
                    return Err(format!("the daemon exited with {status}"));
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the daemon did not exit after SHUTDOWN".into());
                }
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Daemon {
    /// Joins the stdout drain; its end of the pipe closed with the daemon.
    fn join_drain(&mut self) {
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_drain();
    }
}

/// A byte stream to the daemon.
pub enum Stream {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One client connection speaking the line protocol: every request gets
/// exactly one reply line.
pub struct Conn {
    writer: Stream,
    reader: BufReader<Stream>,
    line: String,
    quick_ack: bool,
}

/// Asks the kernel to acknowledge the next TCP segments at once instead
/// of delaying the ACK (Linux `TCP_QUICKACK`, which the kernel clears
/// again on its own, so it is set before every reply).
///
/// The daemon writes each reply as two segments (the text, then `\n`)
/// without `TCP_NODELAY`, so Nagle's algorithm holds the second segment
/// until the first is acknowledged; against a client that delays its
/// ACK, every TCP request stalls for the delayed-ACK timeout (about
/// 40 ms). [`nagle_stall_ms`] measures that stall on its own.
fn quick_ack(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: a valid socket descriptor and a live 4-byte option value.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Median round trip of `PING` over a TCP connection that leaves delayed
/// ACKs on, as a plain client would, in milliseconds.
pub fn nagle_stall_ms(daemon: &Daemon) -> Result<f64, String> {
    let mut conn = daemon.connect()?;
    conn.quick_ack = false;
    let mut rtts = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        conn.request(b"PING\n").map_err(|e| e.to_string())?;
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&rtts))
}

impl Conn {
    fn open(endpoint: &Endpoint) -> Result<Conn, String> {
        let (writer, reader) = match endpoint {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)
                    .map_err(|e| format!("connect {}: {e}", path.display()))?;
                let r = s.try_clone().map_err(|e| e.to_string())?;
                (Stream::Unix(s), Stream::Unix(r))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                let r = s.try_clone().map_err(|e| e.to_string())?;
                (Stream::Tcp(s), Stream::Tcp(r))
            }
        };
        Ok(Conn {
            writer,
            reader: BufReader::new(reader),
            line: String::new(),
            quick_ack: true,
        })
    }

    /// Writes one framed request and returns its reply line (without the
    /// newline).
    pub fn request(&mut self, framed: &[u8]) -> std::io::Result<String> {
        self.writer.write_all(framed)?;
        if let (Stream::Tcp(stream), true) = (&self.writer, self.quick_ack) {
            quick_ack(stream)?;
        }
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n').to_string())
    }

    /// Like [`Conn::request`], counting the attempt and any transport
    /// error or `ERR` reply in `outcomes`.
    pub fn counted(&mut self, framed: &[u8], outcomes: &mut Outcomes) -> Result<String, String> {
        outcomes.attempted += 1;
        match self.request(framed) {
            Ok(reply) if reply.starts_with("OK") => Ok(reply),
            Ok(reply) => {
                outcomes.err_replies += 1;
                Err(format!("the daemon answered {reply:?}"))
            }
            Err(e) => {
                outcomes.transport_errors += 1;
                Err(format!("transport error: {e}"))
            }
        }
    }
}

/// The `key=value` fields of a `STATUS` (or `INFER`) reply.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
}

/// Parses a `PROBS` reply (`OK stale=false <n> <p>...`).
pub fn parse_probs(reply: &str) -> Result<Vec<f64>, String> {
    let mut words = reply.split_whitespace();
    if words.next() != Some("OK") || words.next() != Some("stale=false") {
        return Err(format!("unexpected PROBS reply {:.60}", reply));
    }
    let n: usize = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or("PROBS count")?;
    let probs: Vec<f64> = words
        .map(|w| w.parse::<f64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if probs.len() != n {
        return Err(format!("PROBS announced {n} values, sent {}", probs.len()));
    }
    Ok(probs)
}

/// Peak resident memory (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Prints and checks the daemon's plan: `STATUS` must report `solver`.
pub fn check_plan(workload: &str, status: &str, solver: &str, report: &mut crate::report::Report) {
    println!(
        "plan: {workload} paths={} links={} equations={} solver={} kernel={} history={} \
         available_parallelism={}",
        field(status, "paths").unwrap_or("?"),
        field(status, "links").unwrap_or("?"),
        field(status, "equations").unwrap_or("?"),
        field(status, "solver").unwrap_or("?"),
        field(status, "kernel").unwrap_or("?"),
        field(status, "history").map_or("none", |h| h.split(':').next().unwrap_or(h)),
        crate::parallelism(),
    );
    let actual = field(status, "solver").unwrap_or("?").to_string();
    report.check(actual == solver, || {
        format!("the daemon runs the {actual} plan, not the {solver} plan this workload exercises")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse() {
        let status = "OK paths=120 links=80 snapshots=0 equations=360 solver=DenseL1 kernel=avx2";
        assert_eq!(field(status, "solver"), Some("DenseL1"));
        assert_eq!(field(status, "paths"), Some("120"));
        assert_eq!(field(status, "path"), None);
        assert_eq!(
            parse_probs("OK stale=false 2 0.5 0.25").unwrap(),
            vec![0.5, 0.25]
        );
        assert!(parse_probs("OK stale=true 1 0.5").is_err());
        assert!(parse_probs("OK stale=false 3 0.5").is_err());
    }

    #[test]
    fn a_failed_spawn_counts_as_a_transport_error() {
        let mut outcomes = Outcomes::default();
        let missing = Path::new("no-such-daemon-binary");
        let endpoint = Endpoint::Tcp(String::new());
        assert!(Daemon::start(missing, &endpoint, &[], &mut outcomes).is_err());
        assert_eq!(outcomes.attempted, 1);
        assert_eq!(outcomes.transport_errors, 1);
        assert_eq!(outcomes.error_ratio(), 1.0);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }
}
