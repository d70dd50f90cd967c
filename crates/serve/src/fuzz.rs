//! Deterministic protocol fuzzer for the hardening harness.
//!
//! Drives a live server with a seeded stream of hostile traffic —
//! hostile length prefixes, truncated frames, raw garbage, malformed
//! JSON, type-confused requests, pathological nesting, over-limit
//! netlists — interleaved with well-formed requests, and checks the
//! server's three survival properties after every frame:
//!
//! 1. **No hangs**: every read runs under a timeout; a server that stops
//!    answering well-formed probes fails the run.
//! 2. **No leaks**: hostile frames never park sessions, so the final
//!    stats probe must report zero live sessions.
//! 3. **No crashes**: the caller owns the server (in-process or child)
//!    and verifies it outlived the run; the fuzzer itself reconnects
//!    whenever the server (correctly) drops a poisoned connection.
//!
//! Determinism is load-bearing: the mutation stream is a pure function
//! of [`FuzzConfig::seed`], so a failing seed from CI reproduces locally
//! with the same bytes in the same order.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use manticore_util::SmallRng;

use crate::json::Value;
use crate::proto::{read_frame, write_frame, Reply, Request, SubmitReq, MAX_FRAME};

/// Fuzzer parameters. Everything the run does follows from these.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// RNG seed; equal seeds produce byte-identical traffic.
    pub seed: u64,
    /// Hostile/well-formed frames to send (probes are extra).
    pub frames: usize,
    /// Per-read timeout; a well-formed probe that gets no reply within
    /// this window fails the run as a hang.
    pub probe_timeout: Duration,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0xF055,
            frames: 1_000,
            probe_timeout: Duration::from_secs(10),
        }
    }
}

/// What a fuzz run did and observed.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Frames sent, by mutation class name.
    pub sent: Vec<(&'static str, usize)>,
    /// Well-formed replies received (from probes and valid frames).
    pub replies: u64,
    /// Connections the server dropped (expected for poisoned frames).
    pub reconnects: u64,
    /// Live sessions the final stats probe reported (must be 0).
    pub live_sessions: u64,
}

const CLASSES: [&str; 8] = [
    "valid",
    "oversize_prefix",
    "truncated_frame",
    "garbage_bytes",
    "malformed_json",
    "type_confusion",
    "deep_nesting",
    "hostile_netlist",
];

/// How often (in frames) to interleave a well-formed stats probe.
const PROBE_PERIOD: usize = 64;

struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr, timeout: Duration) -> Result<Conn, String> {
        let stream =
            TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("fuzz connect: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("fuzz set timeout: {e}"))?;
        Ok(Conn { stream })
    }

    fn send_raw(&mut self, bytes: &[u8]) -> bool {
        self.stream.write_all(bytes).is_ok()
    }

    fn call(&mut self, req: &Request) -> Option<Reply> {
        write_frame(&mut self.stream, &req.to_value()).ok()?;
        let frame = read_frame(&mut self.stream).ok()??;
        Reply::from_value(&frame).ok()
    }
}

/// Runs the fuzzer against a live server at `addr`.
///
/// # Errors
///
/// When the server hangs (a well-formed probe times out), becomes
/// unreachable (reconnect fails), or leaks sessions. Any `Err` is a
/// hardening bug on the server side — the fuzzer sending garbage is the
/// expected case, not the error case.
pub fn run_fuzz(addr: SocketAddr, config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut report = FuzzReport {
        sent: CLASSES.iter().map(|&c| (c, 0)).collect(),
        ..FuzzReport::default()
    };
    let mut conn = Conn::connect(addr, config.probe_timeout)?;

    for frame_no in 0..config.frames {
        let class = rng.gen_range(0..CLASSES.len());
        report.sent[class].1 += 1;
        let survived = match class {
            0 => match conn.call(&valid_request(&mut rng)) {
                Some(_) => {
                    report.replies += 1;
                    true
                }
                None => false,
            },
            1 => {
                // A length prefix past MAX_FRAME, optionally astronomically
                // large; a hardened server answers with a typed close, not
                // a pre-allocation.
                let len = if rng.gen_bool() {
                    u32::MAX
                } else {
                    (MAX_FRAME as u32).saturating_add(1 + rng.next_u64() as u32 % 1024)
                };
                conn.send_raw(&len.to_be_bytes());
                false
            }
            2 => {
                // Claim more payload than we send, then slam the write
                // side shut: the server must see a typed truncation.
                let claimed = 16 + rng.gen_range(0..4096);
                let sent = rng.gen_range(0..claimed);
                let mut bytes = (claimed as u32).to_be_bytes().to_vec();
                bytes.extend((0..sent).map(|_| rng.next_u64() as u8));
                conn.send_raw(&bytes);
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                false
            }
            3 => {
                // Correctly framed, but the payload is raw bytes (often
                // not even UTF-8).
                let len = 1 + rng.gen_range(0..512);
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let mut bytes = (len as u32).to_be_bytes().to_vec();
                bytes.extend(payload);
                conn.send_raw(&bytes);
                !frame_is_fatal(&mut conn)
            }
            4 => {
                send_text(&mut conn, &malformed_json(&mut rng));
                !frame_is_fatal(&mut conn)
            }
            5 => {
                send_text(&mut conn, &type_confused(&mut rng).render());
                !frame_is_fatal(&mut conn)
            }
            6 => {
                // Nesting far past the parser's depth cap, well under the
                // frame cap: must be a parse error, not a stack overflow.
                let depth = 256 + rng.gen_range(0..4096);
                let mut text = String::with_capacity(2 * depth + 16);
                text.push_str("{\"op\":");
                for _ in 0..depth {
                    text.push('[');
                }
                for _ in 0..depth {
                    text.push(']');
                }
                text.push('}');
                send_text(&mut conn, &text);
                !frame_is_fatal(&mut conn)
            }
            _ => {
                send_text(&mut conn, &hostile_netlist(&mut rng).render());
                !frame_is_fatal(&mut conn)
            }
        };
        if !survived {
            report.reconnects += 1;
            conn = Conn::connect(addr, config.probe_timeout)?;
        }
        if (frame_no + 1) % PROBE_PERIOD == 0 {
            probe(&mut conn, &mut report)?;
        }
    }

    // Final probe: the server must still answer, and must hold no
    // sessions — hostile traffic never parks.
    let stats = probe(&mut conn, &mut report)?;
    report.live_sessions = stats
        .get("sessions")
        .and_then(|s| s.get("live"))
        .and_then(Value::as_u64)
        .ok_or("stats reply missing sessions.live")?;
    if report.live_sessions != 0 {
        return Err(format!(
            "fuzz run leaked {} parked session(s)",
            report.live_sessions
        ));
    }
    Ok(report)
}

/// A well-formed stats round-trip; timing out here means the server
/// hung, which is exactly what the harness exists to catch.
fn probe(conn: &mut Conn, report: &mut FuzzReport) -> Result<Value, String> {
    match conn.call(&Request::Stats) {
        Some(Reply::Stats(v)) => {
            report.replies += 1;
            Ok(v)
        }
        other => Err(format!(
            "server failed a well-formed stats probe (got {other:?}) — hang or crash"
        )),
    }
}

fn send_text(conn: &mut Conn, text: &str) {
    let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(text.as_bytes());
    conn.send_raw(&bytes);
}

/// After a framed-but-rotten payload the server replies with an error
/// frame and keeps the connection; `true` here means the connection
/// died instead (also acceptable — the caller reconnects).
fn frame_is_fatal(conn: &mut Conn) -> bool {
    !matches!(read_frame(&mut conn.stream), Ok(Some(_)))
}

fn valid_request(rng: &mut SmallRng) -> Request {
    match rng.gen_range(0..4) {
        0 => Request::Stats,
        1 => Request::DropSession {
            session: format!("s-{}", rng.next_u64() % 1000),
        },
        2 => Request::Submit(SubmitReq {
            id: rng.next_u64() % 1_000_000,
            design: "no-such-design".into(),
            grid: None,
            vcycles: rng.next_u64() % 16,
            pokes: vec![],
            reads: vec![],
            deadline_ms: None,
            park: false,
        }),
        _ => Request::Resume(crate::proto::ResumeReq {
            id: rng.next_u64() % 1_000_000,
            session: format!("s-{}", rng.next_u64() % 1000),
            vcycles: 1,
            pokes: vec![],
            reads: vec![],
            park: false,
        }),
    }
}

fn malformed_json(rng: &mut SmallRng) -> String {
    const CORPUS: [&str; 8] = [
        "{",
        "{\"op\":",
        "{\"op\" \"stats\"}",
        "[1,2,",
        "{\"op\":\"stats\"}trailing",
        "\"unterminated",
        "{\"a\":1e}",
        "nul",
    ];
    CORPUS[rng.gen_range(0..CORPUS.len())].to_string()
}

/// A structurally valid request with one field's type swapped — the
/// class of bug `as_*` accessors miss when code `unwrap`s shapes.
fn type_confused(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::obj(vec![("op", Value::Int(7))]),
        1 => Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("id", Value::Str("not-a-number".into())),
            ("design", Value::Str("counter".into())),
            ("vcycles", Value::Int(1)),
        ]),
        2 => Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("id", Value::Int(1)),
            ("design", Value::Arr(vec![Value::Int(1)])),
            ("vcycles", Value::Int(1)),
        ]),
        3 => Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("id", Value::Int(1)),
            ("design", Value::Str("counter".into())),
            ("vcycles", Value::Int(1)),
            ("pokes", Value::Int(9)),
        ]),
        4 => Value::obj(vec![
            ("op", Value::Str("submit_netlist".into())),
            ("id", Value::Int(1)),
            ("netlist", Value::Str("not an object".into())),
            ("vcycles", Value::Int(1)),
        ]),
        _ => Value::Arr(vec![Value::Str("op".into()), Value::Str("stats".into())]),
    }
}

/// A well-formed `submit_netlist` whose netlist violates a resource
/// limit (or the wire grammar): must come back as a typed reject or
/// error, never a compile attempt.
fn hostile_netlist(rng: &mut SmallRng) -> Value {
    let netlist = match rng.gen_range(0..4) {
        0 => {
            // Claims a colossal memory by depth alone.
            Value::obj(vec![
                ("version", Value::Int(1)),
                ("name", Value::Str("huge".into())),
                ("nets", Value::Arr(vec![])),
                ("registers", Value::Arr(vec![])),
                (
                    "memories",
                    Value::Arr(vec![Value::obj(vec![
                        ("name", Value::Str("m".into())),
                        ("width", Value::Int(16)),
                        ("depth", Value::Int(u64::MAX)),
                        ("init", Value::Arr(vec![])),
                        ("writes", Value::Arr(vec![])),
                    ])]),
                ),
                ("outputs", Value::Arr(vec![])),
            ])
        }
        1 => {
            // A combinational loop: a = not b, b = not a.
            let net = |arg: u64| {
                Value::obj(vec![
                    ("op", Value::Str("not".into())),
                    ("width", Value::Int(1)),
                    ("args", Value::Arr(vec![Value::Int(arg)])),
                ])
            };
            Value::obj(vec![
                ("version", Value::Int(1)),
                ("name", Value::Str("loop".into())),
                ("nets", Value::Arr(vec![net(1), net(0)])),
                ("registers", Value::Arr(vec![])),
                ("memories", Value::Arr(vec![])),
                ("outputs", Value::Arr(vec![])),
            ])
        }
        2 => Value::obj(vec![("version", Value::Int(99))]),
        _ => Value::Str("netlist is a string".into()),
    };
    Value::obj(vec![
        ("op", Value::Str("submit_netlist".into())),
        ("id", Value::Int(rng.next_u64() % 1_000_000)),
        ("netlist", netlist),
        ("vcycles", Value::Int(1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mutation_stream_is_deterministic() {
        let a: Vec<String> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..32).map(|_| type_confused(&mut rng).render()).collect()
        };
        let b: Vec<String> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..32).map(|_| type_confused(&mut rng).render()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut rng = SmallRng::seed_from_u64(43);
            (0..32).map(|_| type_confused(&mut rng).render()).collect()
        };
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn rendered_len_matches_render_on_every_generated_value() {
        let mut values = vec![
            crate::wire::encode_netlist(&manticore::workloads::by_name("mm").unwrap().netlist),
            Value::Str(malformed_json(&mut SmallRng::seed_from_u64(0))),
        ];
        for seed in 0..64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            values.push(type_confused(&mut rng));
            values.push(hostile_netlist(&mut rng));
            values.push(valid_request(&mut rng).to_value());
            values.push(Value::Str(malformed_json(&mut rng)));
        }
        for v in &values {
            assert_eq!(v.rendered_len(), v.render().len(), "{}", v.render());
        }
    }
}
