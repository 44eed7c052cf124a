//! The daemon's line-oriented wire protocol.
//!
//! Requests are single ASCII lines terminated by `\n`; the one command
//! with a payload (`OBS`) declares its byte length on the request line
//! and sends the raw v3 wire-format observation block (see
//! [`PathObservations::to_binary`]) immediately after the newline:
//!
//! ```text
//! PING                      → OK pong
//! STATUS                    → OK paths=3 links=4 snapshots=60 equations=6 reinfers=2 solver=DenseExact inferred=true stale=false kernel=avx512 history=none
//! OBS <len>\n<len raw bytes> → OK ingested=25 snapshots=60
//! INFER                     → OK snapshots=60 solver=DenseExact residual=0.0000000019 iterations=0 stale=false
//! PROB <link>               → OK 0.24719056413242677
//! PROBS                     → OK stale=false 4 0.247… 0.103… 0.0 0.201…
//! STATE <link> [threshold]  → OK congested=false probability=0.247… threshold=0.5
//! SHUTDOWN                  → OK bye
//! ```
//!
//! With `--history` enabled, `STATUS` reports the persistence state as
//! `history=backing:path history_snapshots=… history_bytes=…
//! history_generation=… history_recovered=…` — the generation counts
//! acked history writes, and `history_recovered=true` flags that startup
//! recovered from a torn or missing history file (see
//! [`netcorr_eval::persist::recover_history`]).
//!
//! Every reply is a single line: `OK …` on success, `ERR <message>` on
//! failure. Errors are **per request** — a malformed line or a failed
//! query produces an `ERR` reply and the connection stays open.
//! Probabilities travel as Rust's shortest-round-trip `f64` decimal
//! representation, which parses back to the identical bits: the text
//! protocol does not cost bit-exactness.
//!
//! **Graceful degradation.** When re-inference fails outright, or the
//! sparse CGLS solve exhausts its iteration budget, the daemon keeps
//! serving the last good estimate and flags it: `INFER`, `PROBS` and
//! `STATUS` report `stale=true` until a later `INFER` succeeds within
//! budget. `PROB` and `STATE` reply shapes are unchanged; consult
//! `STATUS` for staleness.
//!
//! [`execute`] dispatches one request line against a
//! [`TomographyService`]; the socket server and the in-process
//! benchmarks share it, so what is measured is exactly what is served.

use std::io::Read;

use netcorr_measure::PathObservations;

use crate::error::ServeError;
use crate::service::TomographyService;

/// The default congestion threshold for `STATE` queries without an
/// explicit one: a link is reported congested when its congestion
/// probability exceeds this.
pub const DEFAULT_STATE_THRESHOLD: f64 = 0.5;

/// Hard cap on an `OBS` payload length (bytes), so a corrupt or hostile
/// length field cannot make the server try to buffer gigabytes.
pub const MAX_OBS_BYTES: usize = 256 * 1024 * 1024;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `PING` — liveness check.
    Ping,
    /// `STATUS` — service summary.
    Status,
    /// `OBS <len>` — ingest a v3 observation block of `len` raw bytes.
    Obs {
        /// Payload length in bytes.
        len: usize,
    },
    /// `INFER` — refresh the estimate from everything ingested so far.
    Infer,
    /// `PROB <link>` — one link's congestion probability.
    Prob {
        /// Link index.
        link: usize,
    },
    /// `PROBS` — every link's congestion probability.
    Probs,
    /// `STATE <link> [threshold]` — congested / good verdict for a link.
    State {
        /// Link index.
        link: usize,
        /// Decision threshold, a number in `[0, 1]` (defaults to
        /// [`DEFAULT_STATE_THRESHOLD`]).
        threshold: Option<f64>,
    },
    /// `SHUTDOWN` — stop accepting connections and exit gracefully.
    Shutdown,
}

impl Request {
    /// Parses one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let mut words = line.split_whitespace();
        let verb = words
            .next()
            .ok_or_else(|| ServeError::Protocol("empty request".into()))?;
        let request = match verb {
            "PING" => Request::Ping,
            "STATUS" => Request::Status,
            "OBS" => {
                let len = parse_field::<usize>(words.next(), "OBS", "length")?;
                if len > MAX_OBS_BYTES {
                    return Err(ServeError::Protocol(format!(
                        "OBS length {len} exceeds the {MAX_OBS_BYTES}-byte cap"
                    )));
                }
                Request::Obs { len }
            }
            "INFER" => Request::Infer,
            "PROB" => Request::Prob {
                link: parse_field::<usize>(words.next(), "PROB", "link")?,
            },
            "PROBS" => Request::Probs,
            "STATE" => {
                let link = parse_field::<usize>(words.next(), "STATE", "link")?;
                let threshold = match words.next() {
                    None => None,
                    Some(word) => {
                        let threshold = parse_field::<f64>(Some(word), "STATE", "threshold")?;
                        // `contains` is false for NaN; infinities fall outside.
                        if !(0.0..=1.0).contains(&threshold) {
                            return Err(ServeError::Protocol(format!(
                                "invalid threshold '{word}' for STATE (expected a number in [0, 1])"
                            )));
                        }
                        Some(threshold)
                    }
                };
                Request::State { link, threshold }
            }
            "SHUTDOWN" => Request::Shutdown,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown command '{other}' (expected PING, STATUS, OBS, INFER, PROB, PROBS, STATE or SHUTDOWN)"
                )))
            }
        };
        if let Some(extra) = words.next() {
            return Err(ServeError::Protocol(format!(
                "unexpected trailing argument '{extra}' after {verb}"
            )));
        }
        Ok(request)
    }
}

fn parse_field<T: std::str::FromStr>(
    word: Option<&str>,
    verb: &str,
    what: &str,
) -> Result<T, ServeError> {
    let word =
        word.ok_or_else(|| ServeError::Protocol(format!("{verb} is missing its {what} argument")))?;
    word.parse::<T>()
        .map_err(|_| ServeError::Protocol(format!("invalid {what} '{word}' for {verb}")))
}

/// The outcome of dispatching one request: the single-line reply text
/// (no trailing newline) and whether the server should shut down after
/// sending it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The reply line (`OK …` or `ERR <message>`).
    pub text: String,
    /// Whether this request asked the server to stop.
    pub shutdown: bool,
}

impl Reply {
    fn ok(text: String) -> Reply {
        Reply {
            text: format!("OK {text}"),
            shutdown: false,
        }
    }
}

/// Renders an error as its single-line `ERR` reply (newlines in the
/// message collapse to `; ` so framing survives).
pub fn error_reply(error: &ServeError) -> Reply {
    Reply {
        text: format!("ERR {}", error.to_string().replace('\n', "; ")),
        shutdown: false,
    }
}

/// Dispatches one request line against the service, pulling an `OBS`
/// payload from `body` when the request declares one. Returns the reply
/// to send back; every service error becomes an `ERR` reply, never a
/// connection drop.
pub fn execute(service: &mut TomographyService, line: &str, body: &mut impl Read) -> Reply {
    match try_execute(service, line, body) {
        Ok(reply) => reply,
        Err(error) => error_reply(&error),
    }
}

fn try_execute(
    service: &mut TomographyService,
    line: &str,
    body: &mut impl Read,
) -> Result<Reply, ServeError> {
    // Test hook for the session-isolation path: a deliberate panic that
    // exists only in this crate's own test builds.
    #[cfg(test)]
    if line.trim() == "XPANIC" {
        panic!("injected panic for session-isolation tests");
    }
    match Request::parse(line)? {
        Request::Ping => Ok(Reply::ok("pong".into())),
        Request::Status => {
            let s = service.status();
            let mut text = format!(
                "paths={} links={} snapshots={} equations={} reinfers={} solver={:?} inferred={} stale={} kernel={}",
                s.num_paths,
                s.num_links,
                s.num_snapshots,
                s.num_equations,
                s.reinfers,
                s.solver,
                s.inferred,
                s.stale,
                s.kernel
            );
            match &s.history {
                Some(h) => {
                    text.push_str(&format!(
                        " history={}:{} history_snapshots={} history_bytes={} history_generation={} history_recovered={}",
                        h.backing, h.path, h.snapshots, h.bytes, h.generation, h.recovered
                    ));
                }
                None => text.push_str(" history=none"),
            }
            Ok(Reply::ok(text))
        }
        Request::Obs { len } => {
            let mut bytes = vec![0u8; len];
            body.read_exact(&mut bytes)
                .map_err(|e| ServeError::Protocol(format!("short OBS payload: {e}")))?;
            let ingested = service.ingest_block(&bytes)?;
            Ok(Reply::ok(format!(
                "ingested={ingested} snapshots={}",
                service.num_snapshots()
            )))
        }
        Request::Infer => {
            let snapshots = service.num_snapshots();
            let diagnostics = service.reinfer()?.diagnostics.clone();
            Ok(Reply::ok(format!(
                "snapshots={snapshots} solver={:?} residual={} iterations={} stale={}",
                diagnostics.solver,
                diagnostics.residual,
                diagnostics.iterations,
                service.stale()
            )))
        }
        Request::Prob { link } => Ok(Reply::ok(format!("{}", service.probability(link)?))),
        Request::Probs => {
            let probabilities = service.probabilities()?;
            let mut text = String::with_capacity(20 + 20 * probabilities.len());
            text.push_str(&format!("stale={} ", service.stale()));
            text.push_str(&probabilities.len().to_string());
            for p in probabilities {
                text.push(' ');
                text.push_str(&p.to_string());
            }
            Ok(Reply::ok(text))
        }
        Request::State { link, threshold } => {
            let threshold = threshold.unwrap_or(DEFAULT_STATE_THRESHOLD);
            let (congested, p) = service.link_state(link, threshold)?;
            Ok(Reply::ok(format!(
                "congested={congested} probability={p} threshold={threshold}"
            )))
        }
        Request::Shutdown => Ok(Reply {
            text: "OK bye".into(),
            shutdown: true,
        }),
    }
}

/// Encodes observations as the framed `OBS` request (`OBS <len>\n` +
/// raw v3 block), the exact bytes a client writes to the socket.
pub fn frame_observations(observations: &PathObservations) -> Vec<u8> {
    let block = observations.to_binary();
    let mut framed = format!("OBS {}\n", block.len()).into_bytes();
    framed.extend_from_slice(&block);
    framed
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_core::AlgorithmConfig;
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

    #[test]
    fn request_lines_parse() {
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(Request::parse("STATUS").unwrap(), Request::Status);
        assert_eq!(
            Request::parse("OBS 128").unwrap(),
            Request::Obs { len: 128 }
        );
        assert_eq!(Request::parse("INFER").unwrap(), Request::Infer);
        assert_eq!(Request::parse("PROB 2").unwrap(), Request::Prob { link: 2 });
        assert_eq!(Request::parse("PROBS").unwrap(), Request::Probs);
        assert_eq!(
            Request::parse("STATE 1").unwrap(),
            Request::State {
                link: 1,
                threshold: None
            }
        );
        assert_eq!(
            Request::parse("STATE 1 0.25").unwrap(),
            Request::State {
                link: 1,
                threshold: Some(0.25)
            }
        );
        // Both ends of the probability range are valid thresholds.
        for (line, threshold) in [("STATE 1 0", 0.0), ("STATE 1 1", 1.0)] {
            assert_eq!(
                Request::parse(line).unwrap(),
                Request::State {
                    link: 1,
                    threshold: Some(threshold)
                }
            );
        }
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);
        // Malformed lines are protocol errors, with useful messages.
        for bad in [
            "",
            "FLY",
            "OBS",
            "OBS many",
            "PROB",
            "PROB x",
            "STATE",
            "STATE 1 hot",
            "STATE 1 NaN",
            "STATE 1 inf",
            "STATE 1 -inf",
            "STATE 1 -0.1",
            "STATE 1 1.5",
            "PING extra",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ServeError::Protocol(_))),
                "line {bad:?} should be rejected"
            );
        }
        // The OBS length cap guards allocation.
        assert!(Request::parse(&format!("OBS {}", MAX_OBS_BYTES + 1)).is_err());
    }

    #[test]
    fn a_full_session_through_execute() {
        let mut service = service();
        let mut empty: &[u8] = &[];

        let reply = execute(&mut service, "PING", &mut empty);
        assert_eq!(reply.text, "OK pong");
        assert!(!reply.shutdown);

        // Ingest 40 snapshots through the framed OBS encoding.
        let obs = observations(40);
        let framed = frame_observations(&obs);
        let newline = framed.iter().position(|&b| b == b'\n').unwrap();
        let line = std::str::from_utf8(&framed[..newline]).unwrap();
        let mut body = &framed[newline + 1..];
        let reply = execute(&mut service, line, &mut body);
        assert_eq!(reply.text, "OK ingested=40 snapshots=40");

        let reply = execute(&mut service, "INFER", &mut empty);
        assert!(reply.text.starts_with("OK snapshots=40 solver=DenseExact"));
        assert!(reply.text.ends_with("stale=false"), "got {}", reply.text);

        // PROB round-trips the exact bits of the service's estimate.
        let p0 = service.probability(0).unwrap();
        let reply = execute(&mut service, "PROB 0", &mut empty);
        let parsed: f64 = reply.text.strip_prefix("OK ").unwrap().parse().unwrap();
        assert_eq!(parsed.to_bits(), p0.to_bits());

        let reply = execute(&mut service, "PROBS", &mut empty);
        let mut words = reply.text.strip_prefix("OK ").unwrap().split(' ');
        assert_eq!(words.next().unwrap(), "stale=false");
        assert_eq!(words.next().unwrap(), "4");
        let probs: Vec<f64> = words.map(|w| w.parse().unwrap()).collect();
        assert_eq!(probs, service.probabilities().unwrap());

        let reply = execute(&mut service, "STATE 0 0.9", &mut empty);
        assert!(reply.text.contains("threshold=0.9"));
        let reply = execute(&mut service, "STATUS", &mut empty);
        assert!(reply.text.contains("snapshots=40") && reply.text.contains("inferred=true"));
        assert!(reply.text.contains("stale=false"), "got {}", reply.text);
        // The kernel tier is reported, and without --history the history
        // field reads `none`.
        assert!(
            reply.text.contains("kernel=avx512")
                || reply.text.contains("kernel=avx2")
                || reply.text.contains("kernel=portable"),
            "got {}",
            reply.text
        );
        assert!(reply.text.contains("history=none"), "got {}", reply.text);

        let reply = execute(&mut service, "SHUTDOWN", &mut empty);
        assert_eq!(reply.text, "OK bye");
        assert!(reply.shutdown);
    }

    #[test]
    fn failures_become_err_replies_not_panics() {
        let mut service = service();
        let mut empty: &[u8] = &[];
        // Query before inference.
        let reply = execute(&mut service, "PROB 0", &mut empty);
        assert!(reply.text.starts_with("ERR "), "got {}", reply.text);
        // Unknown verb.
        let reply = execute(&mut service, "EXPLODE", &mut empty);
        assert!(reply.text.contains("unknown command"));
        // Declared payload longer than what arrives.
        let mut short: &[u8] = b"too short";
        let reply = execute(&mut service, "OBS 1000", &mut short);
        assert!(reply.text.contains("short OBS payload"));
        // A payload that is not a v3 block.
        let mut junk: &[u8] = b"JUNKJUNKJUNKJUNK";
        let reply = execute(&mut service, "OBS 16", &mut junk);
        assert!(reply.text.contains("invalid observation block"));
        // A threshold that is not a number in [0, 1].
        for line in ["STATE 0 NaN", "STATE 0 inf", "STATE 0 2"] {
            let reply = execute(&mut service, line, &mut empty);
            assert!(reply.text.starts_with("ERR "), "got {}", reply.text);
            assert!(reply.text.contains("threshold"), "got {}", reply.text);
        }
        // None of those took the service down.
        assert_eq!(execute(&mut service, "PING", &mut empty).text, "OK pong");
    }
}
