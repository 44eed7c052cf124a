//! Seeded, bit-reproducible I/O fault injection for the serving stack.
//!
//! Production failure modes at the daemon's I/O boundary — short reads
//! and writes, peers disconnecting mid-request, slow-loris stalls, and
//! history writes torn at an arbitrary byte by a crash — are rare enough
//! in the wild that untested recovery code is broken recovery code. This
//! module makes every one of them an *injectable, deterministic* event:
//!
//! * a [`FaultPlan`] is a seeded schedule. Every injection decision is a
//!   pure function of `(seed, fault domain, stream id, operation
//!   counter)` through a SplitMix64-style mixer, so the same seed
//!   replays the same faults at the same operations, bit for bit, with
//!   no RNG state shared between streams and no dependence on timing;
//! * [`FaultyStream`] wraps any `Read + Write` transport (the server
//!   wraps accepted sockets, the chaos harness wraps client ends);
//! * [`FaultyHistoryWriter`] sits behind the service's history
//!   persistence and can tear exactly one write at a seeded byte offset
//!   — optionally aborting the whole process at that point to model a
//!   crash mid-write rather than a reported error;
//! * [`FaultPlan::none`] is **bit-invisible**: the wrappers delegate
//!   straight to the inner stream / the atomic writer, injecting
//!   nothing, so production construction goes through the same code
//!   path as chaos runs.
//!
//! Rates are expressed per mille (integer math only — determinism never
//! rides on floating point), and the tear offset for history writes is
//! derived from the seed, so a chaos schedule over many seeds sweeps the
//! torn-byte space.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use netcorr_eval::persist;

use crate::error::ServeError;

/// Fault domains: mixed into the hash so the read schedule, write
/// schedule and tear offsets of one seed are independent streams.
const DOMAIN_READ: u64 = 0x5245_4144; // "READ"
const DOMAIN_WRITE: u64 = 0x5752_4954; // "WRIT"
const DOMAIN_TEAR: u64 = 0x5445_4152; // "TEAR"

/// SplitMix64 finalizer: the statistically strong 64-bit mixer behind
/// the deterministic schedule (same constants as `fastrand` et al.).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-mille rates and parameters for one family of injected faults.
///
/// All-zero rates (see [`FaultProfile::quiet`]) inject nothing; the
/// named profiles are the schedules the chaos harness and CI run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultProfile {
    /// Per-mille chance a stream read is truncated to a prefix of the
    /// caller's buffer (never to zero bytes — that would be EOF).
    pub short_read_per_mille: u32,
    /// Per-mille chance a stream write accepts only a prefix.
    pub short_write_per_mille: u32,
    /// Per-mille chance a stream operation fails with a connection
    /// reset / broken pipe, as if the peer vanished mid-request.
    pub disconnect_per_mille: u32,
    /// Per-mille chance a stream operation stalls for [`Self::stall`]
    /// before proceeding (slow-loris behaviour).
    pub stall_per_mille: u32,
    /// How long an injected stall lasts.
    pub stall: Duration,
    /// 1-based index of the history write to tear (0 = never). The torn
    /// byte offset is derived from the plan seed.
    pub tear_history_write: u64,
    /// When `true`, the torn history write aborts the process (modeling
    /// a crash mid-write); when `false` it surfaces as an I/O error and
    /// the daemon keeps running.
    pub torn_write_aborts: bool,
}

impl FaultProfile {
    /// No faults at all — the profile equivalent of [`FaultPlan::none`].
    pub fn quiet() -> Self {
        FaultProfile {
            short_read_per_mille: 0,
            short_write_per_mille: 0,
            disconnect_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
            tear_history_write: 0,
            torn_write_aborts: false,
        }
    }

    /// Flaky transport: frequent short reads/writes, occasional
    /// disconnects and brief stalls, history writes untouched.
    pub fn flaky_io() -> Self {
        FaultProfile {
            short_read_per_mille: 120,
            short_write_per_mille: 120,
            disconnect_per_mille: 25,
            stall_per_mille: 10,
            stall: Duration::from_millis(20),
            tear_history_write: 0,
            torn_write_aborts: false,
        }
    }

    /// Crash-consistency profile: the transport is clean but one history
    /// write — the `1 + seed-derived index within the first five` — is
    /// torn at a seeded byte offset and the process aborts, modeling a
    /// daemon dying mid-persist.
    pub fn torn_history(seed: u64) -> Self {
        FaultProfile {
            short_read_per_mille: 0,
            short_write_per_mille: 0,
            disconnect_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::ZERO,
            tear_history_write: 1 + splitmix64(seed ^ DOMAIN_TEAR) % 5,
            torn_write_aborts: true,
        }
    }

    /// Parses a profile by its CLI name (`quiet`, `flaky-io`,
    /// `torn-history`).
    pub fn by_name(name: &str, seed: u64) -> Result<Self, ServeError> {
        match name {
            "quiet" => Ok(Self::quiet()),
            "flaky-io" => Ok(Self::flaky_io()),
            "torn-history" => Ok(Self::torn_history(seed)),
            other => Err(ServeError::Protocol(format!(
                "unknown fault profile '{other}' (expected quiet|flaky-io|torn-history)"
            ))),
        }
    }
}

struct PlanInner {
    seed: u64,
    profile: FaultProfile,
}

/// A seeded fault schedule, cheap to clone and share.
///
/// [`FaultPlan::none`] carries no state and makes every wrapper a pure
/// passthrough; [`FaultPlan::seeded`] derives each injection decision
/// deterministically from the seed (see the module docs).
#[derive(Clone)]
pub struct FaultPlan(Option<Arc<PlanInner>>);

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "FaultPlan::none"),
            Some(inner) => f
                .debug_struct("FaultPlan")
                .field("seed", &inner.seed)
                .field("profile", &inner.profile)
                .finish(),
        }
    }
}

impl FaultPlan {
    /// The no-fault plan: wrappers built over it are bit-invisible.
    pub fn none() -> Self {
        FaultPlan(None)
    }

    /// A seeded plan following `profile`.
    pub fn seeded(seed: u64, profile: FaultProfile) -> Self {
        FaultPlan(Some(Arc::new(PlanInner { seed, profile })))
    }

    /// Whether this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.0.is_none()
    }

    /// The deterministic 64-bit decision word for one operation.
    fn decision(&self, domain: u64, stream_id: u64, counter: u64) -> u64 {
        let inner = self.0.as_ref().expect("decision on FaultPlan::none");
        splitmix64(
            inner
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(splitmix64(domain ^ stream_id.rotate_left(32)))
                .wrapping_add(counter),
        )
    }

    /// Wraps a transport; `stream_id` keys this stream's schedule so
    /// concurrent sessions draw independent, reproducible fault
    /// sequences.
    pub fn wrap<S: Read + Write>(&self, inner: S, stream_id: u64) -> FaultyStream<S> {
        FaultyStream {
            inner,
            plan: self.clone(),
            stream_id,
            reads: 0,
            writes: 0,
        }
    }

    /// A history writer following this plan ([`FaultPlan::none`] makes
    /// it exactly the atomic stage-and-rename writer).
    pub fn history_writer(&self) -> FaultyHistoryWriter {
        FaultyHistoryWriter {
            plan: self.clone(),
            writes: 0,
        }
    }
}

/// What one stream operation should do, decided by the plan.
enum StreamFault {
    None,
    Short,
    Disconnect,
    Stall(Duration),
}

fn stream_fault(plan: &FaultPlan, domain: u64, stream_id: u64, counter: u64) -> StreamFault {
    let Some(inner) = plan.0.as_ref() else {
        return StreamFault::None;
    };
    let p = &inner.profile;
    let roll = (plan.decision(domain, stream_id, counter) % 1000) as u32;
    // Ordered bands: [disconnect | stall | short | clean].
    if roll < p.disconnect_per_mille {
        StreamFault::Disconnect
    } else if roll < p.disconnect_per_mille + p.stall_per_mille {
        StreamFault::Stall(p.stall)
    } else if roll
        < p.disconnect_per_mille
            + p.stall_per_mille
            + if domain == DOMAIN_READ {
                p.short_read_per_mille
            } else {
                p.short_write_per_mille
            }
    {
        StreamFault::Short
    } else {
        StreamFault::None
    }
}

/// A `Read + Write` transport with seeded faults layered on top (see
/// the module docs). With [`FaultPlan::none`] every call delegates
/// directly to the inner stream.
pub struct FaultyStream<S> {
    inner: S,
    plan: FaultPlan,
    stream_id: u64,
    reads: u64,
    writes: u64,
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.plan.is_none() {
            return self.inner.read(buf);
        }
        let counter = self.reads;
        self.reads += 1;
        match stream_fault(&self.plan, DOMAIN_READ, self.stream_id, counter) {
            StreamFault::Disconnect => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected disconnect (read)",
            )),
            StreamFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            StreamFault::Short if buf.len() > 1 => {
                // Truncate to a nonempty prefix: a zero-length read
                // would be indistinguishable from EOF.
                let short = (buf.len() / 4).max(1);
                self.inner.read(&mut buf[..short])
            }
            StreamFault::Short | StreamFault::None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.is_none() {
            return self.inner.write(buf);
        }
        let counter = self.writes;
        self.writes += 1;
        match stream_fault(&self.plan, DOMAIN_WRITE, self.stream_id, counter) {
            StreamFault::Disconnect => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected disconnect (write)",
            )),
            StreamFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            StreamFault::Short if buf.len() > 1 => {
                let short = (buf.len() / 3).max(1);
                self.inner.write(&buf[..short])
            }
            StreamFault::Short | StreamFault::None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The persistence-side fault hook: writes history files atomically
/// (stage + rename) like production, except for the one seeded write the
/// plan tears — that write lands as a *non-atomic truncated prefix at
/// the target path*, modeling a crash mid-write, and either aborts the
/// process or surfaces an I/O error depending on the profile.
pub struct FaultyHistoryWriter {
    plan: FaultPlan,
    writes: u64,
}

impl FaultyHistoryWriter {
    /// Writes `bytes` at `path`; the `writes` counter makes the tear
    /// schedule positional, not content-dependent.
    pub fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.writes += 1;
        if let Some(inner) = self.plan.0.as_ref() {
            let p = &inner.profile;
            if p.tear_history_write != 0 && self.writes == p.tear_history_write {
                // Strictly torn: at < len, so the file is never complete
                // and recovery always lands on the previous generation.
                let at =
                    (self.plan.decision(DOMAIN_TEAR, 0, self.writes) as usize) % bytes.len().max(1);
                std::fs::write(path, &bytes[..at])?;
                if p.torn_write_aborts {
                    eprintln!(
                        "netcorr-serve: injected crash — history write {} torn at byte {at}/{}",
                        self.writes,
                        bytes.len()
                    );
                    std::process::abort();
                }
                return Err(io::Error::other(format!(
                    "injected torn history write at byte {at}/{}",
                    bytes.len()
                )));
            }
        }
        persist::atomic_write(path, bytes).map_err(|e| io::Error::other(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory transport: reads drain a scripted buffer, writes
    /// append to a sink.
    struct Loopback {
        input: Vec<u8>,
        cursor: usize,
        output: Vec<u8>,
    }

    impl Loopback {
        fn new(input: &[u8]) -> Self {
            Loopback {
                input: input.to_vec(),
                cursor: 0,
                output: Vec::new(),
            }
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.input.len() - self.cursor);
            buf[..n].copy_from_slice(&self.input[self.cursor..self.cursor + n]);
            self.cursor += n;
            Ok(n)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn none_plan_is_bit_invisible() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut faulty = FaultPlan::none().wrap(Loopback::new(&payload), 7);
        let mut read_back = Vec::new();
        faulty.read_to_end(&mut read_back).unwrap();
        assert_eq!(read_back, payload);
        faulty.inner.output.clear();
        faulty.write_all(&payload).unwrap();
        assert_eq!(faulty.inner.output, payload);
    }

    #[test]
    fn seeded_plans_replay_identical_fault_schedules() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let run = |seed: u64, stream: u64| {
            let plan = FaultPlan::seeded(seed, FaultProfile::flaky_io());
            let mut faulty = plan.wrap(Loopback::new(&payload), stream);
            let mut log = Vec::new();
            let mut buf = [0u8; 64];
            for _ in 0..200 {
                match faulty.read(&mut buf) {
                    Ok(n) => log.push(format!("ok:{n}")),
                    Err(e) => log.push(format!("err:{}", e.kind() as u8)),
                }
            }
            log
        };
        assert_eq!(run(42, 1), run(42, 1));
        assert_ne!(run(42, 1), run(43, 1), "seed must matter");
        assert_ne!(run(42, 1), run(42, 2), "stream id must matter");
    }

    #[test]
    fn flaky_profile_actually_injects_each_family() {
        let payload = vec![0xAAu8; 1 << 16];
        let plan = FaultPlan::seeded(1, FaultProfile::flaky_io());
        let mut faulty = plan.wrap(Loopback::new(&payload), 0);
        let mut saw_short = false;
        let mut saw_disconnect = false;
        let mut buf = [0u8; 64];
        for _ in 0..500 {
            match faulty.read(&mut buf) {
                Ok(0) => break,
                Ok(n) if n < buf.len() => saw_short = true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => saw_disconnect = true,
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert!(saw_short, "short reads never injected");
        assert!(saw_disconnect, "disconnects never injected");
    }

    #[test]
    fn history_writer_tears_exactly_the_scheduled_write() {
        let dir = std::env::temp_dir().join(format!("netcorr_faults_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.bin");
        let bytes = vec![0x5Au8; 1000];

        let mut profile = FaultProfile::torn_history(9);
        profile.torn_write_aborts = false; // report, don't crash the test
        profile.tear_history_write = 2;
        let plan = FaultPlan::seeded(9, profile);
        let mut writer = plan.history_writer();

        writer.write(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 1000);
        let err = writer.write(&path, &bytes).unwrap_err();
        assert!(err.to_string().contains("torn history write"), "{err}");
        let torn_len = std::fs::read(&path).unwrap().len();
        assert!(torn_len < 1000, "write was not torn: {torn_len}");
        writer.write(&path, &bytes).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 1000);

        // The torn offset is a pure function of the seed.
        let mut profile2 = FaultProfile::torn_history(9);
        profile2.torn_write_aborts = false;
        profile2.tear_history_write = 1;
        let mut w2 = FaultPlan::seeded(9, profile2.clone()).history_writer();
        let p2 = dir.join("h2.bin");
        w2.write(&p2, &bytes).unwrap_err();
        let mut w3 = FaultPlan::seeded(9, profile2).history_writer();
        let p3 = dir.join("h3.bin");
        w3.write(&p3, &bytes).unwrap_err();
        assert_eq!(std::fs::read(&p2).unwrap(), std::fs::read(&p3).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quiet_history_writer_is_the_atomic_writer() {
        let dir = std::env::temp_dir().join(format!("netcorr_faults_q_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.bin");
        let mut writer = FaultPlan::none().history_writer();
        writer.write(&path, b"generation-1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-1");
        writer.write(&path, b"generation-2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-2");
        std::fs::remove_dir_all(&dir).ok();
    }
}
