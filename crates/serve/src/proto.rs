//! The wire protocol: length-prefixed JSON frames and the typed
//! request/reply vocabulary layered on them.
//!
//! Every message — in both directions — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Length prefixing keeps framing trivial (no delimiter scanning, no
//! partial-line state) and lets both sides reject oversized payloads
//! before allocating. SERVING.md documents every frame shape with
//! byte-level examples; this module is the single source of truth for
//! the field names.
//!
//! Requests are parsed into [`Request`] and replies rendered from
//! [`Reply`]; both directions go through the same types, so the client
//! helper and the server can never disagree about a field name.

use std::fmt;
use std::io::{Read, Write};

use crate::json::Value;

/// Frames larger than this are a protocol error — nothing in the
/// vocabulary comes close, so a bigger length prefix means a confused or
/// hostile peer, and the connection is dropped before allocating.
pub const MAX_FRAME: usize = 1 << 24;

/// Most one `reserve` call will pre-allocate for an incoming frame. The
/// length prefix is attacker-controlled until the payload bytes actually
/// arrive, so [`read_frame`] never sizes a buffer from it directly: the
/// buffer grows as bytes are read, and a peer that advertises 16 MiB but
/// sends nothing costs 64 KiB, not 16 MiB.
const READ_RESERVE: usize = 64 * 1024;

/// A typed framing violation, carried inside the [`std::io::Error`] that
/// [`read_frame`] returns (downcast via
/// [`std::io::Error::get_ref`]/`downcast`). The server logs these
/// distinctly from transport failures; tests assert on the variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The advertised payload length.
        len: usize,
    },
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the prefix promised.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "frame truncated: {got} of {expected} payload bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes `value` as one length-prefixed frame, prefix and payload in a
/// single write: on a socket, a separate 4-byte prefix write would leave
/// the payload waiting (Nagle) for the peer's delayed ACK of the prefix.
///
/// # Errors
///
/// Propagates I/O failure (a disconnected peer, typically).
pub fn write_frame(w: &mut impl Write, value: &Value) -> std::io::Result<()> {
    let payload = value.render();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); an EOF *inside* a frame, an oversized length prefix,
/// or malformed JSON is an error.
///
/// # Errors
///
/// I/O failure, a frame over [`MAX_FRAME`], or a payload that is not
/// valid JSON.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Value>> {
    let mut len_buf = [0u8; 4];
    // A clean close may land exactly on the frame boundary.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) if n < 4 => r.read_exact(&mut len_buf[n..])?,
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::Oversize { len },
        ));
    }
    // Never `vec![0; len]` here: `len` is attacker-controlled until the
    // bytes arrive. `take` + `read_to_end` grows the buffer only as data
    // shows up, with at most READ_RESERVE pre-reserved.
    let mut payload = Vec::new();
    payload.reserve_exact(len.min(READ_RESERVE));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            FrameError::Truncated {
                expected: len,
                got: payload.len(),
            },
        ));
    }
    let text = String::from_utf8(payload)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Value::parse(&text)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A job submission: which design, the input vector, the budget, and the
/// result/lifecycle options.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReq {
    /// Client-chosen correlation id, echoed on the job's reply. The
    /// server never interprets it.
    pub id: u64,
    /// Catalog design name (see [`crate::catalog`]).
    pub design: String,
    /// Grid side override; `None` runs the design's default grid. Designs
    /// are cached per `(netlist, config)`, so distinct grids are distinct
    /// cache entries.
    pub grid: Option<usize>,
    /// Vcycle budget for the run.
    pub vcycles: u64,
    /// Input vector: named RTL registers overwritten before the first
    /// Vcycle (resolved through the compiler's placement metadata,
    /// width-masked like [`manticore::fleet::FleetJob::with_reg`]).
    pub pokes: Vec<(String, u64)>,
    /// RTL registers to read back into the reply after the run.
    pub reads: Vec<String>,
    /// Wall-clock deadline, milliseconds from admission; the run stops
    /// cooperatively at the first Vcycle boundary past it.
    pub deadline_ms: Option<u64>,
    /// Park the finished machine server-side and return a session id for
    /// [`ResumeReq`] instead of discarding the state.
    pub park: bool,
}

/// A continuation of a parked session: run `vcycles` more on the stored
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeReq {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// The session id a previous parked job returned.
    pub session: String,
    /// Additional Vcycle budget.
    pub vcycles: u64,
    /// Registers to overwrite before the slice, as in [`SubmitReq`].
    pub pokes: Vec<(String, u64)>,
    /// Registers to read back after the slice.
    pub reads: Vec<String>,
    /// Park again afterwards (returning a fresh session id); otherwise
    /// the machine is dropped when the slice completes.
    pub park: bool,
}

/// A job submission carrying the client's *own* netlist instead of a
/// catalog name (`{"op":"submit_netlist",...}`). The netlist travels as
/// the [`crate::wire`] JSON encoding and is kept as a raw [`Value`] here:
/// decoding and resource-limit validation happen at admission, where a
/// violation turns into a typed reject naming the limit rather than a
/// parse error at the framing layer.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitNetlistReq {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
    /// The [`crate::wire`]-encoded netlist, undecoded.
    pub netlist: Value,
    /// Grid side; `None` uses the server's default for untrusted designs.
    pub grid: Option<usize>,
    /// Vcycle budget for the run.
    pub vcycles: u64,
    /// Registers to overwrite before the first Vcycle, as in
    /// [`SubmitReq`].
    pub pokes: Vec<(String, u64)>,
    /// Registers to read back after the run.
    pub reads: Vec<String>,
    /// Wall-clock deadline for the *run*, as in [`SubmitReq`] (the
    /// compile has its own server-configured deadline).
    pub deadline_ms: Option<u64>,
    /// Park the finished machine and return a session id.
    pub park: bool,
}

/// Everything a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a job (`{"op":"submit",...}`).
    Submit(SubmitReq),
    /// Run a client-supplied netlist (`{"op":"submit_netlist",...}`).
    SubmitNetlist(SubmitNetlistReq),
    /// Continue a parked session (`{"op":"resume",...}`).
    Resume(ResumeReq),
    /// Drop a parked session without running it
    /// (`{"op":"drop_session","session":...}`).
    DropSession {
        /// The session to discard.
        session: String,
    },
    /// Snapshot the server counters (`{"op":"stats"}`).
    Stats,
    /// Ask the server to shut down (`{"op":"shutdown"}`). Intended for
    /// harnesses that own the server; a production deployment would gate
    /// it.
    Shutdown,
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A description of the malformed or missing field — sent back to the
    /// client verbatim in an error reply.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("request has no `op` field")?;
        match op {
            "submit" => Ok(Request::Submit(SubmitReq {
                id: req_u64(v, "id")?,
                design: req_str(v, "design")?,
                grid: opt_u64(v, "grid")?.map(|g| g as usize),
                vcycles: req_u64(v, "vcycles")?,
                pokes: pokes_of(v)?,
                reads: reads_of(v)?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                park: v.get("park").and_then(Value::as_bool).unwrap_or(false),
            })),
            "submit_netlist" => Ok(Request::SubmitNetlist(SubmitNetlistReq {
                id: req_u64(v, "id")?,
                netlist: v.get("netlist").cloned().ok_or("missing `netlist`")?,
                grid: opt_u64(v, "grid")?.map(|g| g as usize),
                vcycles: req_u64(v, "vcycles")?,
                pokes: pokes_of(v)?,
                reads: reads_of(v)?,
                deadline_ms: opt_u64(v, "deadline_ms")?,
                park: v.get("park").and_then(Value::as_bool).unwrap_or(false),
            })),
            "resume" => Ok(Request::Resume(ResumeReq {
                id: req_u64(v, "id")?,
                session: req_str(v, "session")?,
                vcycles: req_u64(v, "vcycles")?,
                pokes: pokes_of(v)?,
                reads: reads_of(v)?,
                park: v.get("park").and_then(Value::as_bool).unwrap_or(false),
            })),
            "drop_session" => Ok(Request::DropSession {
                session: req_str(v, "session")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Renders the request as a frame payload — the client side of
    /// [`Request::from_value`].
    pub fn to_value(&self) -> Value {
        match self {
            Request::Submit(s) => {
                let mut fields = vec![
                    ("op", Value::Str("submit".into())),
                    ("id", Value::Int(s.id)),
                    ("design", Value::Str(s.design.clone())),
                    ("vcycles", Value::Int(s.vcycles)),
                ];
                if let Some(grid) = s.grid {
                    fields.push(("grid", Value::Int(grid as u64)));
                }
                if !s.pokes.is_empty() {
                    fields.push(("pokes", pokes_value(&s.pokes)));
                }
                if !s.reads.is_empty() {
                    fields.push(("reads", reads_value(&s.reads)));
                }
                if let Some(ms) = s.deadline_ms {
                    fields.push(("deadline_ms", Value::Int(ms)));
                }
                if s.park {
                    fields.push(("park", Value::Bool(true)));
                }
                Value::obj(fields)
            }
            Request::SubmitNetlist(s) => {
                let mut fields = vec![
                    ("op", Value::Str("submit_netlist".into())),
                    ("id", Value::Int(s.id)),
                    ("netlist", s.netlist.clone()),
                    ("vcycles", Value::Int(s.vcycles)),
                ];
                if let Some(grid) = s.grid {
                    fields.push(("grid", Value::Int(grid as u64)));
                }
                if !s.pokes.is_empty() {
                    fields.push(("pokes", pokes_value(&s.pokes)));
                }
                if !s.reads.is_empty() {
                    fields.push(("reads", reads_value(&s.reads)));
                }
                if let Some(ms) = s.deadline_ms {
                    fields.push(("deadline_ms", Value::Int(ms)));
                }
                if s.park {
                    fields.push(("park", Value::Bool(true)));
                }
                Value::obj(fields)
            }
            Request::Resume(r) => {
                let mut fields = vec![
                    ("op", Value::Str("resume".into())),
                    ("id", Value::Int(r.id)),
                    ("session", Value::Str(r.session.clone())),
                    ("vcycles", Value::Int(r.vcycles)),
                ];
                if !r.pokes.is_empty() {
                    fields.push(("pokes", pokes_value(&r.pokes)));
                }
                if !r.reads.is_empty() {
                    fields.push(("reads", reads_value(&r.reads)));
                }
                if r.park {
                    fields.push(("park", Value::Bool(true)));
                }
                Value::obj(fields)
            }
            Request::DropSession { session } => Value::obj(vec![
                ("op", Value::Str("drop_session".into())),
                ("session", Value::Str(session.clone())),
            ]),
            Request::Stats => Value::obj(vec![("op", Value::Str("stats".into()))]),
            Request::Shutdown => Value::obj(vec![("op", Value::Str("shutdown".into()))]),
        }
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

fn req_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn pokes_of(v: &Value) -> Result<Vec<(String, u64)>, String> {
    match v.get("pokes") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(name, val)| {
                val.as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("poke `{name}` is not an unsigned integer"))
            })
            .collect(),
        Some(_) => Err("`pokes` must be an object of register -> value".into()),
    }
}

fn reads_of(v: &Value) -> Result<Vec<String>, String> {
    match v.get("reads") {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or("`reads` entries must be strings".to_string())
            })
            .collect(),
        Some(_) => Err("`reads` must be an array of register names".into()),
    }
}

fn pokes_value(pokes: &[(String, u64)]) -> Value {
    Value::Obj(
        pokes
            .iter()
            .map(|(name, value)| (name.clone(), Value::Int(*value)))
            .collect(),
    )
}

fn reads_value(reads: &[String]) -> Value {
    Value::Arr(reads.iter().map(|r| Value::Str(r.clone())).collect())
}

/// One finished job, as it appears on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The correlation id from the submitting request.
    pub id: u64,
    /// How the run ended (the fleet's outcome taxonomy, lower-cased:
    /// `complete`, `budget`, `deadline`, `cancelled`, `faulted`,
    /// `panic`).
    pub outcome: String,
    /// Vcycles the run actually executed.
    pub vcycles_run: u64,
    /// The requested register read-backs, in request order. Registers
    /// wider than 64 bits report their low 64.
    pub regs: Vec<(String, u64)>,
    /// FNV-1a fingerprint of the machine's architectural state (hex, as
    /// `0x…`) — the bit-identity witness: equal fingerprints mean equal
    /// counters, registers, and scratch memory.
    pub fingerprint: String,
    /// `$display` output the run produced.
    pub displays: Vec<String>,
    /// The session id, when the job asked to park.
    pub session: Option<String>,
    /// The fault description, for `faulted`/`panic` outcomes.
    pub error: Option<String>,
}

/// The violated limit named by a permanent [`Reply::Reject`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectLimit {
    /// Stable limit name (e.g. `grid_cores`, `nets`, `registers`,
    /// `memory_words`, `netlist_bytes`, `conn_netlist_bytes`).
    pub limit: String,
    /// The configured maximum.
    pub max: u64,
    /// The value the request asked for.
    pub got: u64,
}

/// Everything the server can say to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A finished job (`{"type":"result",...}`).
    Result(JobResult),
    /// The job was not admitted (`{"type":"reject",...}`). A non-zero
    /// `retry_after_ms` is transient backpressure (`queue_full`,
    /// `compile_busy`) — wait and retry. A zero `retry_after_ms` is
    /// *permanent*: the request violated a resource limit or quota and
    /// will never be admitted as-is; `limit` names what was violated.
    Reject {
        /// Correlation id of the rejected request.
        id: u64,
        /// Why: `queue_full`, `compile_busy`, `compile_deadline`,
        /// `netlist_limit`, `netlist_quota`.
        reason: String,
        /// Backpressure hint: milliseconds to wait before retrying;
        /// `0` means the rejection is permanent.
        retry_after_ms: u64,
        /// For limit rejections: which limit, its cap, and the offending
        /// value.
        limit: Option<RejectLimit>,
    },
    /// The request itself was invalid — unknown design, bad field, dead
    /// session (`{"type":"error",...}`).
    Error {
        /// Correlation id when the request carried one.
        id: Option<u64>,
        /// What was wrong.
        message: String,
    },
    /// Acknowledges a `drop_session` (`{"type":"dropped",...}`).
    Dropped {
        /// The session id from the request.
        session: String,
        /// Whether there was a parked session to drop.
        existed: bool,
    },
    /// Counter snapshot (`{"type":"stats",...}`); the payload is
    /// free-form and documented in SERVING.md's runbook.
    Stats(Value),
}

impl Reply {
    /// Renders the reply as a frame payload.
    pub fn to_value(&self) -> Value {
        match self {
            Reply::Result(r) => {
                let mut fields = vec![
                    ("type", Value::Str("result".into())),
                    ("id", Value::Int(r.id)),
                    ("outcome", Value::Str(r.outcome.clone())),
                    ("vcycles_run", Value::Int(r.vcycles_run)),
                    (
                        "regs",
                        Value::Obj(
                            r.regs
                                .iter()
                                .map(|(name, value)| (name.clone(), Value::Int(*value)))
                                .collect(),
                        ),
                    ),
                    ("fingerprint", Value::Str(r.fingerprint.clone())),
                ];
                if !r.displays.is_empty() {
                    fields.push((
                        "displays",
                        Value::Arr(r.displays.iter().map(|d| Value::Str(d.clone())).collect()),
                    ));
                }
                if let Some(session) = &r.session {
                    fields.push(("session", Value::Str(session.clone())));
                }
                if let Some(error) = &r.error {
                    fields.push(("error", Value::Str(error.clone())));
                }
                Value::obj(fields)
            }
            Reply::Reject {
                id,
                reason,
                retry_after_ms,
                limit,
            } => {
                let mut fields = vec![
                    ("type", Value::Str("reject".into())),
                    ("id", Value::Int(*id)),
                    ("reason", Value::Str(reason.clone())),
                    ("retry_after_ms", Value::Int(*retry_after_ms)),
                ];
                if let Some(l) = limit {
                    fields.push(("limit", Value::Str(l.limit.clone())));
                    fields.push(("max", Value::Int(l.max)));
                    fields.push(("got", Value::Int(l.got)));
                }
                Value::obj(fields)
            }
            Reply::Error { id, message } => {
                let mut fields = vec![("type", Value::Str("error".into()))];
                if let Some(id) = id {
                    fields.push(("id", Value::Int(*id)));
                }
                fields.push(("message", Value::Str(message.clone())));
                Value::obj(fields)
            }
            Reply::Dropped { session, existed } => Value::obj(vec![
                ("type", Value::Str("dropped".into())),
                ("session", Value::Str(session.clone())),
                ("existed", Value::Bool(*existed)),
            ]),
            Reply::Stats(payload) => {
                let mut fields = vec![("type", Value::Str("stats".into()))];
                if let Some(obj) = payload.as_obj() {
                    for (k, v) in obj {
                        fields.push((k.as_str(), v.clone()));
                    }
                }
                Value::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            }
        }
    }

    /// Parses a reply frame — the client side of [`Reply::to_value`].
    ///
    /// # Errors
    ///
    /// A description of the malformed or missing field.
    pub fn from_value(v: &Value) -> Result<Reply, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("reply has no `type` field")?;
        match kind {
            "result" => Ok(Reply::Result(JobResult {
                id: req_u64(v, "id")?,
                outcome: req_str(v, "outcome")?,
                vcycles_run: req_u64(v, "vcycles_run")?,
                regs: match v.get("regs") {
                    Some(Value::Obj(fields)) => fields
                        .iter()
                        .map(|(name, val)| {
                            val.as_u64()
                                .map(|v| (name.clone(), v))
                                .ok_or_else(|| format!("reg `{name}` is not an integer"))
                        })
                        .collect::<Result<_, _>>()?,
                    _ => Vec::new(),
                },
                fingerprint: req_str(v, "fingerprint")?,
                displays: match v.get("displays") {
                    Some(Value::Arr(items)) => items
                        .iter()
                        .map(|d| {
                            d.as_str()
                                .map(str::to_string)
                                .ok_or("display entries must be strings".to_string())
                        })
                        .collect::<Result<_, _>>()?,
                    _ => Vec::new(),
                },
                session: v.get("session").and_then(Value::as_str).map(str::to_string),
                error: v.get("error").and_then(Value::as_str).map(str::to_string),
            })),
            "reject" => Ok(Reply::Reject {
                id: req_u64(v, "id")?,
                reason: req_str(v, "reason")?,
                retry_after_ms: req_u64(v, "retry_after_ms")?,
                limit: match v.get("limit").and_then(Value::as_str) {
                    Some(name) => Some(RejectLimit {
                        limit: name.to_string(),
                        max: opt_u64(v, "max")?.unwrap_or(0),
                        got: opt_u64(v, "got")?.unwrap_or(0),
                    }),
                    None => None,
                },
            }),
            "error" => Ok(Reply::Error {
                id: opt_u64(v, "id")?,
                message: req_str(v, "message")?,
            }),
            "dropped" => Ok(Reply::Dropped {
                session: req_str(v, "session")?,
                existed: v.get("existed").and_then(Value::as_bool).unwrap_or(false),
            }),
            "stats" => Ok(Reply::Stats(v.clone())),
            other => Err(format!("unknown reply type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_one_write() {
        /// Counts `write` calls, accepting every byte at once.
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
        let mut w = CountingWriter::default();
        for (n, id) in [1u64, 2, 3].into_iter().enumerate() {
            write_frame(&mut w, &Value::obj(vec![("id", Value::Int(id))])).unwrap();
            assert_eq!(w.writes, n + 1, "frame {id} took more than one write");
        }
        let mut r = &w.bytes[..];
        for _ in 0..3 {
            assert!(read_frame(&mut r).unwrap().is_some());
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        let req = Request::Submit(SubmitReq {
            id: 7,
            design: "counter".into(),
            grid: Some(2),
            vcycles: 100,
            pokes: vec![("count".into(), 41)],
            reads: vec!["count".into()],
            deadline_ms: Some(250),
            park: true,
        });
        write_frame(&mut buf, &req.to_value()).unwrap();
        write_frame(&mut buf, &Request::Stats.to_value()).unwrap();

        let mut r = &buf[..];
        let first = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::from_value(&first).unwrap(), req);
        let second = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::from_value(&second).unwrap(), Request::Stats);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Result(JobResult {
                id: 3,
                outcome: "complete".into(),
                vcycles_run: 12,
                regs: vec![("count".into(), 53)],
                fingerprint: "0xdeadbeef".into(),
                displays: vec!["hello".into()],
                session: Some("s-1".into()),
                error: None,
            }),
            Reply::Reject {
                id: 9,
                reason: "queue_full".into(),
                retry_after_ms: 40,
                limit: None,
            },
            Reply::Reject {
                id: 10,
                reason: "netlist_limit".into(),
                retry_after_ms: 0,
                limit: Some(RejectLimit {
                    limit: "grid_cores".into(),
                    max: 256,
                    got: 1024,
                }),
            },
            Reply::Error {
                id: None,
                message: "unknown op `frob`".into(),
            },
        ];
        for reply in replies {
            let back = Reply::from_value(&reply.to_value()).unwrap();
            assert_eq!(back, reply);
        }
    }

    /// The typed [`FrameError`] carried by a framing io::Error, if any.
    fn frame_error(e: &std::io::Error) -> Option<FrameError> {
        e.get_ref()
            .and_then(|inner| inner.downcast_ref::<FrameError>())
            .cloned()
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        // Hostile length prefixes from u32::MAX down to just over the cap:
        // all must yield a typed Oversize error before reading (or
        // allocating for) any payload.
        for len in [u32::MAX, (MAX_FRAME as u32) + 1, 0x8000_0000] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&len.to_be_bytes());
            buf.extend_from_slice(b"whatever");
            let mut r = &buf[..];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(
                frame_error(&err),
                Some(FrameError::Oversize { len: len as usize }),
            );
        }
    }

    #[test]
    fn a_large_prefix_with_no_payload_does_not_preallocate() {
        // The prefix promises MAX_FRAME bytes but the stream ends
        // immediately. The reader must report truncation (having grown
        // its buffer only as far as data arrived), not allocate 16 MiB
        // up front. The typed error records both sides of the shortfall.
        let buf = (MAX_FRAME as u32).to_be_bytes().to_vec();
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(
            frame_error(&err),
            Some(FrameError::Truncated {
                expected: MAX_FRAME,
                got: 0
            }),
        );
    }

    #[test]
    fn truncated_frames_are_an_error_not_a_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Value::Int(1)).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert!(matches!(
            frame_error(&err),
            Some(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_length_prefix_is_an_error() {
        // One to three bytes of prefix then EOF: inside-a-frame EOF, not
        // a clean close.
        for n in 1..4 {
            let buf = vec![0u8; n];
            let mut r = &buf[..];
            assert!(read_frame(&mut r).is_err(), "{n}-byte prefix must error");
        }
    }

    #[test]
    fn submit_netlist_round_trips() {
        let req = Request::SubmitNetlist(SubmitNetlistReq {
            id: 11,
            netlist: Value::obj(vec![("version", Value::Int(1))]),
            grid: Some(2),
            vcycles: 64,
            pokes: vec![("count".into(), 3)],
            reads: vec!["count".into()],
            deadline_ms: None,
            park: true,
        });
        let back = Request::from_value(&req.to_value()).unwrap();
        assert_eq!(back, req);
    }
}
