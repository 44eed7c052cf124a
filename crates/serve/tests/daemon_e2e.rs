//! End-to-end test of the `netcorr-serve` binary: spawn the daemon,
//! stream observation batches over a real TCP socket, and check that
//! the queried congestion probabilities are **bit-identical** to the
//! offline batch inference over the same observations.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use netcorr_core::{AlgorithmConfig, InferenceContext};
use netcorr_eval::figures::{base_instance, Scale, TopologyFamily};
use netcorr_eval::scenario::{ScenarioBuilder, ScenarioConfig};
use netcorr_measure::PathObservations;
use netcorr_serve::Client;
use netcorr_sim::{SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Kills the daemon if the test panics before the clean shutdown.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns the daemon and parses the ephemeral TCP address it reports.
fn spawn_daemon(args: &[&str]) -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_netcorr-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn netcorr-serve");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stdout");
        if let Some(rest) = line.strip_prefix("netcorr-serve: listening on tcp://") {
            break rest.to_string();
        }
    };
    (Daemon(child), addr)
}

/// Simulated observations for the smoke PlanetLab instance, regenerated
/// deterministically from the same seed the daemon uses for its
/// topology.
fn smoke_observations(seed: u64, snapshots: usize) -> PathObservations {
    let base = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, seed).unwrap();
    let scenario = ScenarioBuilder::new(ScenarioConfig::default())
        .unwrap()
        .build(&base, &mut StdRng::seed_from_u64(seed ^ 0x5eed))
        .unwrap();
    let simulator = Simulator::new(
        &scenario.instance,
        &scenario.model,
        SimulationConfig::default(),
    )
    .unwrap();
    let observations = simulator.run(snapshots, &mut StdRng::seed_from_u64(seed ^ 0x0b5));
    assert_eq!(observations.num_paths(), base.num_paths());
    observations
}

/// The `snapshots[range]` slice as its own observation block.
fn slice_block(observations: &PathObservations, range: std::ops::Range<usize>) -> PathObservations {
    let mut block = PathObservations::new(observations.num_paths());
    for i in range {
        block.record_snapshot(&observations.snapshot(i)).unwrap();
    }
    block
}

#[test]
fn daemon_probabilities_are_bit_identical_to_offline_inference() {
    const SEED: u64 = 7;
    let (daemon, addr) = spawn_daemon(&[
        "--listen",
        "127.0.0.1:0",
        "--topology",
        "planetlab-smoke",
        "--topology-seed",
        "7",
    ]);
    let observations = smoke_observations(SEED, 400);

    // Stream the observations in three batches, re-inferring after each
    // — the daemon's warm-start chain is exercised on every batch.
    let mut client = Client::connect_tcp(addr.as_str()).expect("connect to the daemon");
    for (lo, hi) in [(0, 100), (100, 250), (250, 400)] {
        let block = slice_block(&observations, lo..hi);
        let (ingested, total) = client.ingest(&block).unwrap();
        assert_eq!(ingested, hi - lo);
        assert_eq!(total, hi);
        let infer = client.infer().unwrap();
        assert_eq!(infer.snapshots, hi);
    }

    // Offline comparator: the exact computation `run_trial` performs for
    // the correlation arm — a cached-context batch inference over the
    // same instance and the same accumulated observations.
    let instance = base_instance(TopologyFamily::PlanetLab, Scale::Smoke, SEED).unwrap();
    let offline = InferenceContext::new(&instance, &AlgorithmConfig::default())
        .unwrap()
        .infer(&observations)
        .unwrap();

    let daemon_probs = client.probabilities().unwrap();
    assert_eq!(daemon_probs.len(), offline.num_links());
    for (link, (&streamed, &batch)) in daemon_probs.iter().zip(offline.probabilities()).enumerate()
    {
        assert_eq!(
            streamed.to_bits(),
            batch.to_bits(),
            "link {link}: daemon answered {streamed}, offline batch answered {batch}"
        );
    }

    // Single-link queries agree with the bulk query bit for bit, and the
    // STATE verdict is consistent with the probability.
    for link in [0, 1, daemon_probs.len() - 1] {
        let p = client.probability(link).unwrap();
        assert_eq!(p.to_bits(), daemon_probs[link].to_bits());
        let (congested, reported) = client.link_state(link, Some(0.5)).unwrap();
        assert_eq!(reported.to_bits(), p.to_bits());
        assert_eq!(congested, p > 0.5);
    }

    let status = client.status().unwrap();
    assert_eq!(status.num_snapshots, 400);
    assert_eq!(status.num_links, offline.num_links());
    assert_eq!(status.reinfers, 3);
    assert!(status.inferred);

    // Graceful in-band shutdown: the daemon exits with status 0.
    client.shutdown().unwrap();
    let mut daemon = daemon;
    let exit = daemon.0.wait().unwrap();
    assert!(exit.success(), "daemon exited with {exit:?}");
}

#[test]
fn daemon_replies_err_per_request_instead_of_dropping_connections() {
    let (daemon, addr) = spawn_daemon(&["--listen", "127.0.0.1:0", "--topology", "fig1a"]);
    let mut client = Client::connect_tcp(addr.as_str()).unwrap();

    // Query before any data: a server-side error reply.
    let err = client.probability(0).unwrap_err();
    assert!(matches!(err, netcorr_serve::ClientError::Server(_)));
    // INFER before any data likewise.
    assert!(client.infer().is_err());
    // A block over the wrong number of paths (fig1a has 3).
    let mut wrong = PathObservations::new(9);
    wrong.record_snapshot(&[false; 9]).unwrap();
    let err = client.ingest(&wrong).unwrap_err();
    assert!(err.to_string().contains("9"), "got: {err}");
    // The session survived all of it.
    client.ping().unwrap();

    // And a well-formed session still works afterwards.
    let mut obs = PathObservations::new(3);
    for i in 0..24 {
        obs.record_snapshot(&[i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .unwrap();
    }
    client.ingest(&obs).unwrap();
    client.infer().unwrap();
    assert_eq!(client.probabilities().unwrap().len(), 4);

    client.shutdown().unwrap();
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());
}

#[test]
fn restarted_daemon_reloads_mmap_history_and_answers_bit_identically() {
    const SEED: u64 = 11;
    let dir = std::env::temp_dir().join(format!("netcorr_daemon_restart_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("history.ncobs3");
    let history_arg = history.display().to_string();
    let observations = smoke_observations(SEED, 140);
    let base_args = [
        "--listen",
        "127.0.0.1:0",
        "--topology",
        "planetlab-smoke",
        "--topology-seed",
        "11",
        "--history",
        history_arg.as_str(),
    ];

    // First life: ingest snapshots 0..57 (deliberately not a multiple of
    // 64, so the persisted history ends mid lane word), infer, shut down.
    {
        let (daemon, addr) = spawn_daemon(&base_args);
        let mut client = Client::connect_tcp(addr.as_str()).unwrap();
        let status = client.status().unwrap();
        let h = status.history.expect("history enabled via --history");
        assert_eq!(h.snapshots, 0, "fresh history file");
        client.ingest(&slice_block(&observations, 0..57)).unwrap();
        client.infer().unwrap();
        client.shutdown().unwrap();
        let mut daemon = daemon;
        assert!(daemon.0.wait().unwrap().success());
    }
    assert!(history.exists(), "history persisted before shutdown");

    // Second life: the daemon reloads the 57 persisted snapshots through
    // the zero-copy map and continues the stream where it stopped.
    let (daemon, addr) = spawn_daemon(&base_args);
    let mut client = Client::connect_tcp(addr.as_str()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.num_snapshots, 57, "history reloaded on startup");
    let h = status.history.expect("history enabled via --history");
    assert_eq!(h.snapshots, 57);
    assert!(h.bytes > 0);
    assert_eq!(h.path, history_arg);
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    assert_eq!(h.backing, "mmap", "reload is served from the mapping");
    assert_eq!(status.kernel, "portable");

    let (ingested, total) = client.ingest(&slice_block(&observations, 57..140)).unwrap();
    assert_eq!(ingested, 83);
    assert_eq!(total, 140);
    client.infer().unwrap();
    let restarted_probs = client.probabilities().unwrap();
    let restarted_state = client.link_state(0, Some(0.5)).unwrap();
    client.shutdown().unwrap();
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());

    // Uninterrupted comparator: a fresh daemon fed the whole stream in
    // one life (no history file) must answer bit-identically.
    let (daemon, addr) = spawn_daemon(&base_args[..6]);
    let mut client = Client::connect_tcp(addr.as_str()).unwrap();
    client.ingest(&slice_block(&observations, 0..140)).unwrap();
    client.infer().unwrap();
    let whole_probs = client.probabilities().unwrap();
    let whole_state = client.link_state(0, Some(0.5)).unwrap();
    client.shutdown().unwrap();
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());

    assert_eq!(restarted_probs.len(), whole_probs.len());
    for (link, (&restarted, &whole)) in restarted_probs.iter().zip(&whole_probs).enumerate() {
        assert_eq!(
            restarted.to_bits(),
            whole.to_bits(),
            "link {link}: restarted daemon answered {restarted}, uninterrupted answered {whole}"
        );
    }
    assert_eq!(restarted_state.0, whole_state.0);
    assert_eq!(restarted_state.1.to_bits(), whole_state.1.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_history_fails_startup_and_corrupt_obs_keeps_the_session() {
    let dir = std::env::temp_dir().join(format!("netcorr_daemon_corrupt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("history.ncobs3");
    // A sealed history whose payload is corrupt (dirty tail) must fail
    // startup with a clear error instead of panicking or serving wrong
    // counts.
    let mut obs = PathObservations::new(3);
    for i in 0..10 {
        obs.record_snapshot(&[i % 2 == 0, i % 3 == 0, false])
            .unwrap();
    }
    let mut bytes = obs.to_binary();
    let last = bytes.len() - 1;
    bytes[last] |= 0x80;
    std::fs::write(&history, netcorr_eval::persist::encode_history(&bytes, 1)).unwrap();
    let history_arg = history.display().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_netcorr-serve"))
        .args(["--topology", "fig1a", "--history", history_arg.as_str()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to reload history"), "got: {stderr}");

    // A corrupt OBS payload over the wire produces an ERR reply and the
    // session — and the persisted history — survive it untouched.
    std::fs::remove_file(&history).unwrap();
    let (daemon, addr) = spawn_daemon(&[
        "--listen",
        "127.0.0.1:0",
        "--topology",
        "fig1a",
        "--history",
        history_arg.as_str(),
    ]);
    let mut client = Client::connect_tcp(addr.as_str()).unwrap();
    client.ingest(&obs).unwrap();
    // Hand-roll a framed OBS whose payload is a v3 block with a dirty
    // tail: the server must reject it without panicking.
    let err = client.ingest_raw_block(&bytes).unwrap_err();
    assert!(
        err.to_string().contains("invalid observation block"),
        "got: {err}"
    );
    client.ping().unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.num_snapshots, 10, "failed ingest added nothing");
    assert_eq!(status.history.unwrap().snapshots, 10);
    client.shutdown().unwrap();
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A raw protocol session: hand-written request lines over the TCP
/// socket, for hostile inputs the typed [`Client`] cannot produce.
struct RawSession {
    writer: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
}

impl RawSession {
    fn connect(addr: &str) -> Self {
        let writer = std::net::TcpStream::connect(addr).expect("connect to the daemon");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        RawSession { writer, reader }
    }

    /// Sends raw bytes and reads the single-line reply.
    fn roundtrip(&mut self, bytes: &[u8]) -> String {
        use std::io::Write;
        self.writer.write_all(bytes).expect("write request");
        self.writer.flush().expect("flush request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }

    fn command(&mut self, line: &str) -> String {
        self.roundtrip(format!("{line}\n").as_bytes())
    }

    /// Sends a framed OBS request with an explicit (possibly lying)
    /// declared length.
    fn obs(&mut self, declared_len: usize, payload: &[u8]) -> String {
        let mut framed = format!("OBS {declared_len}\n").into_bytes();
        framed.extend_from_slice(payload);
        self.roundtrip(&framed)
    }
}

#[test]
fn hostile_obs_headers_get_err_replies_and_the_session_survives() {
    let (daemon, addr) = spawn_daemon(&["--listen", "127.0.0.1:0", "--topology", "fig1a"]);
    let mut session = RawSession::connect(&addr);

    // An OBS length over the allocation cap is rejected at the header —
    // before any payload is read — and the session keeps answering.
    let reply = session.command("OBS 300000000");
    assert!(reply.starts_with("ERR "), "oversized len: got {reply}");
    assert!(reply.contains("cap"), "oversized len: got {reply}");
    assert_eq!(session.command("PING"), "OK pong");

    // Zero-length, non-numeric and overflowing lengths likewise.
    for header in [
        "OBS 0",
        "OBS abc",
        "OBS 99999999999999999999999",
        "OBS -4",
        "OBS",
    ] {
        let reply = session.command(header);
        assert!(reply.starts_with("ERR "), "{header}: got {reply}");
        assert_eq!(session.command("PING"), "OK pong", "after {header}");
    }

    // The ERR replies left nothing behind: a well-formed session works.
    let mut obs = PathObservations::new(3);
    for i in 0..24 {
        obs.record_snapshot(&[i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .unwrap();
    }
    let block = obs.to_binary();
    let reply = session.obs(block.len(), &block);
    assert!(reply.starts_with("OK "), "good block after errors: {reply}");
    assert!(session.command("INFER").starts_with("OK "));

    session.command("SHUTDOWN");
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());
}

#[test]
fn ragged_blocks_mid_stream_are_rejected_without_corrupting_the_estimator() {
    let (daemon, addr) = spawn_daemon(&["--listen", "127.0.0.1:0", "--topology", "fig1a"]);
    let mut session = RawSession::connect(&addr);

    let mut obs = PathObservations::new(3);
    for i in 0..48 {
        obs.record_snapshot(&[i % 2 == 0, i % 3 == 0, i % 7 == 0])
            .unwrap();
    }
    let block = obs.to_binary();

    // A good block, inferred: this is the reference state.
    assert!(session.obs(block.len(), &block).starts_with("OK "));
    assert!(session.command("INFER").starts_with("OK "));
    let reference_probs = session.command("PROBS");
    assert!(reference_probs.starts_with("OK "));
    let reference_status = session.command("STATUS");

    // A ragged v3 block mid-stream: the declared length matches the bytes
    // sent, but the block itself is truncated mid-row. The server reads
    // the full payload, fails to parse it, and answers ERR in-band.
    let ragged = &block[..block.len() - 5];
    let reply = session.obs(ragged.len(), ragged);
    assert!(reply.starts_with("ERR "), "ragged block: got {reply}");
    assert_eq!(session.command("PING"), "OK pong");

    // A block over the wrong path count is parsed whole, then rejected
    // before a single snapshot reaches the estimator.
    let mut wrong = PathObservations::new(5);
    wrong.record_snapshot(&[true; 5]).unwrap();
    let wrong_block = wrong.to_binary();
    let reply = session.obs(wrong_block.len(), &wrong_block);
    assert!(reply.starts_with("ERR "), "wrong path count: got {reply}");

    // INFER after the rejected blocks: the estimator was not partially
    // updated — snapshot count and probabilities are bit-identical to the
    // pre-rejection state.
    assert_eq!(session.command("STATUS"), reference_status);
    assert!(session.command("INFER").starts_with("OK "));
    assert_eq!(session.command("PROBS"), reference_probs);

    // And the stream continues: more good data still ingests and infers.
    assert!(session.obs(block.len(), &block).starts_with("OK "));
    assert!(session.command("INFER").starts_with("OK "));

    session.command("SHUTDOWN");
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());
}

#[test]
fn shutdown_drains_a_mid_flight_ingest_and_persists_it() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("netcorr_daemon_drain_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let history = dir.join("history.ncobs3");
    let history_arg = history.display().to_string();
    let (daemon, addr) = spawn_daemon(&[
        "--listen",
        "127.0.0.1:0",
        "--topology",
        "fig1a",
        "--history",
        history_arg.as_str(),
        "--drain-timeout-ms",
        "2000",
    ]);

    // Session A: an OBS request whose body is only partially sent — the
    // ingest is mid-flight when the shutdown arrives.
    let mut obs = PathObservations::new(3);
    for i in 0..30 {
        obs.record_snapshot(&[i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .unwrap();
    }
    let block = obs.to_binary();
    let mut framed = format!("OBS {}\n", block.len()).into_bytes();
    framed.extend_from_slice(&block);
    let mut slow = std::net::TcpStream::connect(addr.as_str()).unwrap();
    slow.write_all(&framed[..framed.len() - 9]).unwrap();
    slow.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Session B: SHUTDOWN while A's body is still unsent.
    let mut control = Client::connect_tcp(addr.as_str()).unwrap();
    control.shutdown().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    // A's ingest must still complete — acked and durably persisted —
    // inside the drain window, and only then may the daemon exit.
    slow.write_all(&framed[framed.len() - 9..]).unwrap();
    slow.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(&slow).read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK ingested=30 snapshots=30");
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());

    // The drained ingest survived the restart.
    let (daemon, addr) = spawn_daemon(&[
        "--listen",
        "127.0.0.1:0",
        "--topology",
        "fig1a",
        "--history",
        history_arg.as_str(),
    ]);
    let mut client = Client::connect_tcp(addr.as_str()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.num_snapshots, 30, "drained ingest was persisted");
    assert!(
        !status.history.unwrap().recovered,
        "clean file, no recovery"
    );
    client.shutdown().unwrap();
    let mut daemon = daemon;
    assert!(daemon.0.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_harness_holds_on_a_fresh_seed() {
    // One short chaos round as a regression gate: the full schedule
    // (seeds 1..3, all scenarios) runs in the named `chaos` CI job.
    let out = Command::new(env!("CARGO_BIN_EXE_netcorr-chaos"))
        .args([
            "--seed",
            "9",
            "--rounds",
            "1",
            "--scenario",
            "torn-history",
            "--serve-bin",
            env!("CARGO_BIN_EXE_netcorr-serve"),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "chaos harness failed:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("all assertions held"), "got: {stdout}");
}

#[test]
fn help_exits_zero_and_bad_flags_exit_nonzero() {
    let exe = env!("CARGO_BIN_EXE_netcorr-serve");
    let help = Command::new(exe).arg("--help").output().unwrap();
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));

    let bad = Command::new(exe).arg("--bogus").output().unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown argument"));

    let bad_topology = Command::new(exe)
        .args(["--topology", "internet2"])
        .output()
        .unwrap();
    assert!(!bad_topology.status.success());
    assert!(String::from_utf8_lossy(&bad_topology.stderr).contains("unknown topology"));
}
