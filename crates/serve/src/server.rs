//! The job server: accept connections, admit jobs, schedule them fairly
//! onto a shared fleet, and stream results back as they finish.
//!
//! ## Thread anatomy
//!
//! One **accept** thread takes connections. Each connection gets a
//! **reader** (parses frames, runs admission — including the compile on
//! a cache miss — and enqueues) and a **writer** (drains a channel of
//! reply frames; results are pushed to it from whatever thread finished
//! the job). Catalog names resolve through a memo, so a submission
//! builds and hashes its design's netlist only the first time.
//!
//! One **dispatcher** thread owns the fleet: a persistent pool of
//! `workers` threads of the server's own, spawned on the first pick and
//! joined at shutdown, once every in-flight pick has replied. Dispatch
//! is late-bound. Whenever fewer than `workers` of the daemon's units
//! are in flight, the dispatcher takes one fair pick and submits it to
//! the pool without waiting for it. The worker that finishes a unit
//! renders each job's reply, pushes it to the job's writer, and frees
//! the slot, which wakes the dispatcher for the next pick. No batch
//! barrier exists: a short job waits for a free worker, never for the
//! slowest job of someone else's batch. One **reaper** thread drops idle parked sessions.
//!
//! ## Fairness, backpressure, cancellation
//!
//! Admission rejects (with a retry hint) once the total queued work
//! passes the high-water mark — the client, not an unbounded queue,
//! holds the overload. Dispatch is deficit round robin over the
//! connections, one pick at a time. A pick is a connection's front job
//! plus up to `lanes − 1` of its queued followers that share the front's
//! program and budget, so they run as one gang. The connection being
//! served keeps picking while its credit covers the next job's cost;
//! then the next backlogged connection, in id order, gains one quantum
//! (`DRR_QUANTUM`, 50 000 Vcycles) of credit and takes its turn. A job's
//! cost is its Vcycle budget clamped to one quantum, so a flood of cheap
//! jobs from one client cannot starve another's. Every job carries its connection's
//! cancel token: a disconnect trips it, stopping that client's running
//! jobs at their next Vcycle boundary and discarding its queued ones,
//! while everyone else's work is untouched.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use manticore::compiler::{
    compile, compile_controlled, CompileControl, CompileError, CompileOptions, CompileOutput,
};
use manticore::fleet::{BatchPolicy, Fleet, JobOutcome, JobOutput, SimJob};
use manticore::isa::MachineConfig;
use manticore::machine::{load_checkpoint, save_checkpoint, CompiledProgram};
use manticore::netlist::Netlist;
use manticore_util::{catch_silent_mut, CancelToken};

use crate::cache::{CacheEntry, CacheStats, ProgramCache};
use crate::catalog::{self, Catalog};
use crate::durable::{DurableStore, Envelope};
use crate::json::Value;
use crate::proto::{
    read_frame, write_frame, JobResult, RejectLimit, Reply, Request, ResumeReq, SubmitNetlistReq,
    SubmitReq,
};
use crate::session::{ParkedSession, SessionSource, SessionStats, SessionTable};
use crate::wire::{self, WireError, WireLimits};

/// Milliseconds clients are told to back off on a transient reject
/// (`queue_full`, `compile_busy`): the floor of the client's backoff.
const RETRY_AFTER_MS: u64 = 20;

/// Vcycles of credit a backlogged connection gains each time its
/// deficit-round-robin turn comes up; also the most one job is charged.
const DRR_QUANTUM: u64 = 50_000;

/// Server tuning knobs. `Default` is sized for a small host (the CI
/// runner): two fleet workers, a 64 MiB cache, one compile slot.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Fleet worker threads executing jobs.
    pub workers: usize,
    /// Gang lanes: compatible same-program jobs from one connection run
    /// in lockstep, up to this many per gang.
    pub lanes: usize,
    /// Compiled-program cache budget in bytes.
    pub cache_bytes: usize,
    /// Concurrent compilations allowed (cache misses beyond this queue).
    pub compile_slots: usize,
    /// Total queued jobs (across all connections) beyond which admission
    /// rejects with a retry hint.
    pub queue_high_water: usize,
    /// Idle time after which a parked session is reaped.
    pub session_ttl: Duration,
    /// How often the reaper scans the session table.
    pub reaper_period: Duration,
    /// Wall-clock budget for compiling an untrusted (`submit_netlist`)
    /// design; exceeding it is a permanent `compile_deadline` reject.
    /// `None` disables the deadline (trusted deployments only).
    pub compile_deadline: Option<Duration>,
    /// Lifetime cap on netlist bytes one connection may submit for
    /// compilation; past it every `submit_netlist` is a permanent
    /// `netlist_quota` reject. Reconnecting resets the quota — the cap
    /// bounds damage per connection, not per client. Only a submission
    /// that runs a compile is charged: one the program cache already
    /// holds is checked against the cap but costs nothing.
    pub conn_netlist_bytes: u64,
    /// Untrusted compilations allowed at once, across all connections.
    /// Beyond this, `submit_netlist` gets a transient `compile_busy`
    /// reject instead of queueing unbounded compile work.
    pub untrusted_compile_slots: u64,
    /// Resource limits applied to every submitted netlist before it is
    /// decoded or compiled.
    pub wire_limits: WireLimits,
    /// When set, parked sessions also spill to this directory and a
    /// restarted server recovers them (see [`crate::durable`]).
    pub session_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            lanes: 4,
            cache_bytes: 64 << 20,
            compile_slots: 1,
            queue_high_water: 1024,
            session_ttl: Duration::from_secs(30),
            reaper_period: Duration::from_millis(500),
            compile_deadline: Some(Duration::from_secs(10)),
            conn_netlist_bytes: 16 << 20,
            untrusted_compile_slots: 1,
            wire_limits: WireLimits::default(),
            session_dir: None,
        }
    }
}

/// One admitted job waiting for dispatch.
struct PendingJob {
    job: SimJob,
    meta: JobMeta,
    /// DRR cost: the job's Vcycle budget (minimum 1).
    cost: u64,
}

/// Everything needed to turn a finished [`JobOutput`] into a reply.
struct JobMeta {
    id: u64,
    reads: Vec<String>,
    output: Arc<CompileOutput>,
    park: bool,
    /// The design's provenance — carried so a park can spill a
    /// recompilable record to the durable store.
    source: SessionSource,
    /// Reply channel of the submitting connection. Held per-job so a
    /// disconnect (which removes the connection's queue) cannot strand
    /// an in-flight job's reply path.
    tx: Sender<Value>,
}

struct ConnQueue {
    queue: VecDeque<PendingJob>,
    deficit: u64,
    cancel: CancelToken,
}

#[derive(Default)]
struct Sched {
    conns: HashMap<u64, ConnQueue>,
    /// Total queued jobs across all connections.
    queued: usize,
    /// Picks submitted to the fleet whose unit has not finished yet.
    inflight: usize,
    /// The connection whose DRR turn it is; it already holds this turn's
    /// credit.
    active: Option<u64>,
}

impl Sched {
    /// Takes the next deficit-round-robin pick: the serving connection's
    /// front job plus up to `lanes - 1` of its queued followers that
    /// would gang with it, all covered by its credit. Moves the turn on,
    /// crediting one `quantum`, while the serving connection cannot
    /// afford its front job. `None` only when nothing is queued.
    fn pick(&mut self, quantum: u64, lanes: usize) -> Option<Vec<PendingJob>> {
        if self.queued == 0 {
            return None;
        }
        loop {
            if let Some(conn) = self.active.and_then(|id| self.conns.get_mut(&id)) {
                match conn.queue.front() {
                    // Clamp the charge to one quantum (the classic DRR
                    // requirement): a job dearer than the quantum costs a
                    // full turn's credit, not an unbounded wait.
                    Some(front) if front.cost.clamp(1, quantum) <= conn.deficit => {
                        let pick = conn.take_pick(quantum, lanes);
                        self.queued -= pick.len();
                        return Some(pick);
                    }
                    Some(_) => {}
                    // An idle connection banks no credit.
                    None => conn.deficit = 0,
                }
            }
            // The next connection in id order, wrapping, gets the turn.
            let after = self.active.unwrap_or(0);
            let next = self
                .conns
                .keys()
                .copied()
                .filter(|&id| id > after)
                .min()
                .or_else(|| self.conns.keys().copied().min())?;
            self.active = Some(next);
            let conn = self.conns.get_mut(&next).expect("id was just listed");
            conn.deficit = if conn.queue.is_empty() {
                0
            } else {
                conn.deficit.saturating_add(quantum)
            };
        }
    }
}

impl ConnQueue {
    /// Pops the front job and up to `lanes - 1` queued jobs that gang
    /// with it (same program, knobs and budget, hence the same cost),
    /// charging each against the deficit while it lasts. The caller has
    /// checked that the front job is affordable.
    fn take_pick(&mut self, quantum: u64, lanes: usize) -> Vec<PendingJob> {
        let front = self.queue.pop_front().expect("caller saw a front job");
        let cost = front.cost.clamp(1, quantum);
        self.deficit -= cost;
        let mut pick = vec![front];
        let mut at = 0;
        while pick.len() < lanes && at < self.queue.len() && cost <= self.deficit {
            if pick[0].job.gangs_with(&self.queue[at].job) {
                self.deficit -= cost;
                pick.push(self.queue.remove(at).expect("index in range"));
            } else {
                at += 1;
            }
        }
        pick
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
    /// Durable session files skipped at recovery (failed checksum,
    /// undecodable source, checkpoint/program mismatch).
    durable_corrupt: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    catalog: Catalog,
    cache: ProgramCache,
    sessions: SessionTable,
    durable: Option<DurableStore>,
    shutdown: CancelToken,
    sched: Mutex<Sched>,
    work: Condvar,
    counters: Counters,
    /// Gauge of untrusted compiles currently running, bounded by
    /// [`ServerConfig::untrusted_compile_slots`].
    untrusted_compiling: AtomicU64,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the accept loop, the dispatcher, and the reaper; queued jobs that have
/// not been dispatched are discarded.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Socket bind failure.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let durable = match &cfg.session_dir {
            Some(dir) => Some(DurableStore::open(dir)?),
            None => None,
        };
        let fleet = Fleet::new(cfg.workers);
        let shared = Arc::new(Shared {
            catalog: Catalog::new(),
            cache: ProgramCache::new(cfg.cache_bytes, cfg.compile_slots),
            sessions: SessionTable::new(cfg.session_ttl),
            durable,
            shutdown: CancelToken::new(),
            sched: Mutex::new(Sched::default()),
            work: Condvar::new(),
            counters: Counters::default(),
            untrusted_compiling: AtomicU64::new(0),
            cfg,
        });
        // Recover spilled sessions before serving a single request, so a
        // client that reconnects immediately after a restart finds its
        // parked sessions already re-adopted under their original ids.
        recover_sessions(&shared);

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(listener, shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || dispatch_loop(shared, fleet)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || reaper_loop(shared)));
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Compiled-program cache counters (for harnesses and tests; clients
    /// get the same numbers via the `stats` op).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Session table counters.
    pub fn session_stats(&self) -> SessionStats {
        self.shared.sessions.stats()
    }

    /// Blocks until something trips the shutdown token — a client's
    /// `shutdown` op, typically — then joins the service threads. The
    /// daemon binary's main loop.
    pub fn shutdown_when_requested(&mut self) {
        while !self.shared.shutdown.is_cancelled() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown();
    }

    /// Stops the server: trips the shutdown token, wakes every service
    /// thread, and joins them. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.cancel();
        self.shared.work.notify_all();
        // The accept loop is blocked in `accept`; a throwaway connection
        // makes it observe the tripped token.
        let _ = TcpStream::connect(self.local_addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.is_cancelled() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are small frames written as they finish; Nagle would
        // hold each one back until the client's delayed ACK.
        stream.set_nodelay(true).ok();
        next_conn += 1;
        let conn_id = next_conn;
        shared.counters.conns_opened.fetch_add(1, Ordering::Relaxed);

        let (tx, rx) = std::sync::mpsc::channel::<Value>();
        let cancel = CancelToken::new();
        {
            let mut sched = shared.sched.lock().expect("sched lock poisoned");
            sched.conns.insert(
                conn_id,
                ConnQueue {
                    queue: VecDeque::new(),
                    deficit: 0,
                    cancel: cancel.clone(),
                },
            );
        }

        let write_half = stream.try_clone().ok();
        if let Some(write_half) = write_half {
            // Writer and reader are detached: they exit when the client
            // disconnects (reader EOF drops the queue and the reply
            // senders; the writer drains and sees the channel close).
            std::thread::spawn(move || writer_loop(write_half, rx));
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                reader_loop(stream, conn_id, tx, cancel, &shared);
                disconnect(conn_id, &shared);
            });
        } else {
            let mut sched = shared.sched.lock().expect("sched lock poisoned");
            sched.conns.remove(&conn_id);
        }
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Value>) {
    for value in rx {
        if write_frame(&mut stream, &value).is_err() {
            break;
        }
    }
    let _ = stream.flush();
}

/// Tears down a connection: trips its cancel token (stopping its running
/// jobs at the next Vcycle boundary) and discards its queued jobs. Other
/// connections' work is untouched.
fn disconnect(conn_id: u64, shared: &Shared) {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    if let Some(conn) = sched.conns.remove(&conn_id) {
        conn.cancel.cancel();
        sched.queued -= conn.queue.len();
    }
    drop(sched);
    shared.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
}

fn reader_loop(
    stream: TcpStream,
    conn_id: u64,
    tx: Sender<Value>,
    cancel: CancelToken,
    shared: &Shared,
) {
    let mut reader = std::io::BufReader::new(stream);
    // Lifetime quota of netlist bytes this connection may submit for
    // compilation; lives on the reader so no lock is needed.
    let mut netlist_bytes_used: u64 = 0;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean close, I/O error, or garbage framing: either way the
            // conversation is over.
            Ok(None) | Err(_) => return,
        };
        let request = match Request::from_value(&frame) {
            Ok(request) => request,
            Err(message) => {
                let id = frame.get("id").and_then(Value::as_u64);
                let _ = tx.send(Reply::Error { id, message }.to_value());
                continue;
            }
        };
        match request {
            Request::Submit(req) => {
                let reply = admit_submit(&req, conn_id, &tx, &cancel, shared);
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::SubmitNetlist(req) => {
                let reply = admit_submit_netlist(
                    &req,
                    conn_id,
                    &tx,
                    &cancel,
                    &mut netlist_bytes_used,
                    shared,
                );
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::Resume(req) => {
                let reply = admit_resume(&req, conn_id, &tx, &cancel, shared);
                if let Some(reply) = reply {
                    let _ = tx.send(reply.to_value());
                }
            }
            Request::DropSession { session } => {
                let existed = shared.sessions.drop_session(&session);
                if let Some(store) = &shared.durable {
                    store.remove(&session);
                }
                let _ = tx.send(Reply::Dropped { session, existed }.to_value());
            }
            Request::Stats => {
                let _ = tx.send(Reply::Stats(stats_value(shared)).to_value());
            }
            Request::Shutdown => {
                // Final counters first — harnesses use them — then stop
                // the service threads.
                let _ = tx.send(Reply::Stats(stats_value(shared)).to_value());
                shared.shutdown.cancel();
                shared.work.notify_all();
                return;
            }
        }
    }
}

/// Admits a submission: resolve the design through the cache, build the
/// input vector, and enqueue — or explain why not. `None` means the job
/// was enqueued (its reply comes later, from the dispatcher's sink).
fn admit_submit(
    req: &SubmitReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let Some(design) = shared.catalog.resolve(&req.design, req.grid) else {
        return err(format!("unknown design `{}`", req.design));
    };
    let config = &design.config;
    // Miss path: compile on this reader thread, bounded by the cache's
    // compile slots; concurrent requests for the same key wait and share.
    let entry = shared.cache.get_or_compile(design.key, || {
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let output = Arc::new(compile(&design.netlist, &options).map_err(|e| e.to_string())?);
        let program = CompiledProgram::compile_shared(config.clone(), &output.binary)
            .map_err(|e| e.to_string())?;
        let bytes = program.approx_bytes() + output.binary.total_instructions() * 8;
        Ok(CacheEntry {
            output,
            program,
            bytes,
        })
    });
    let entry = match entry {
        Ok(entry) => entry,
        Err(e) => return err(format!("compile failed for `{}`: {e}", req.design)),
    };

    let mut job = SimJob::new(&entry.program, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&entry.output, name, *value) else {
            return err(format!("no register `{name}` in `{}`", req.design));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    for name in &req.reads {
        if !entry
            .output
            .optimized
            .registers()
            .iter()
            .any(|r| &r.name == name)
        {
            return err(format!("no register `{name}` in `{}`", req.design));
        }
    }
    if let Some(ms) = req.deadline_ms {
        job = job.deadline(Instant::now() + Duration::from_millis(ms));
    }

    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output: Arc::clone(&entry.output),
                park: req.park,
                source: SessionSource::Catalog {
                    name: req.design.clone(),
                    grid: config.grid_width,
                },
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// How an untrusted compile failed — deadlines get a structured reject,
/// everything else an error reply.
enum UntrustedCompileError {
    /// The compile hit the server's deadline (or the connection's cancel
    /// token) at a pass-manager poll point.
    Deadline,
    /// Compiler error or panic, with the message.
    Other(String),
}

/// Compiles an untrusted netlist through the shared cache, under the
/// server's compile deadline and the connection's cancel token, and
/// says whether this call ran the compile (a cache hit did not). Panics
/// inside the compiler are caught *inside* the build closure — a panic
/// that escaped `get_or_compile` would strand the key in `Building` and
/// hang every waiter, which is exactly the failure mode a hostile
/// netlist would aim for.
fn compile_untrusted(
    netlist: &Netlist,
    config: &MachineConfig,
    cancel: &CancelToken,
    shared: &Shared,
) -> (Result<Arc<CacheEntry>, UntrustedCompileError>, bool) {
    let key = catalog::netlist_hash(netlist, config);
    let deadline_hit = Cell::new(false);
    let ran = Cell::new(false);
    let entry = shared.cache.get_or_compile(key, || {
        ran.set(true);
        catch_silent_mut(|| {
            let options = CompileOptions {
                config: config.clone(),
                ..Default::default()
            };
            let control = CompileControl {
                cancel: Some(cancel.clone()),
                deadline: shared.cfg.compile_deadline.map(|d| Instant::now() + d),
            };
            let output = compile_controlled(netlist, &options, &control).map_err(|e| {
                if matches!(
                    e,
                    CompileError::DeadlineExceeded { .. } | CompileError::Cancelled { .. }
                ) {
                    deadline_hit.set(true);
                }
                e.to_string()
            })?;
            let output = Arc::new(output);
            let program = CompiledProgram::compile_shared(config.clone(), &output.binary)
                .map_err(|e| e.to_string())?;
            let bytes = program.approx_bytes() + output.binary.total_instructions() * 8;
            Ok(CacheEntry {
                output,
                program,
                bytes,
            })
        })
        .unwrap_or_else(|panic| Err(format!("compiler panicked: {panic}")))
    });
    let entry = entry.map_err(|e| {
        if deadline_hit.get() {
            UntrustedCompileError::Deadline
        } else {
            UntrustedCompileError::Other(e)
        }
    });
    (entry, ran.get())
}

/// Admits a client-supplied netlist. The full gauntlet, cheapest checks
/// first: connection byte quota, grid limit, wire decode under the
/// resource limits (counts checked before elements), structural
/// validation, then a deadline-bounded compile in a bounded slot. Only
/// a design that survives all of it touches the fleet, and only a
/// compile (not a cache hit) is charged to the quota.
fn admit_submit_netlist(
    req: &SubmitNetlistReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    netlist_bytes_used: &mut u64,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let reject = |reason: &str, retry_after_ms: u64, limit: Option<RejectLimit>| {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Some(Reply::Reject {
            id: req.id,
            reason: reason.to_string(),
            retry_after_ms,
            limit,
        })
    };
    let limits = &shared.cfg.wire_limits;

    // The byte quota is checked on the rendered size of what the client
    // actually sent, before any decode work happens on its behalf. It is
    // charged below, and only if this submission runs a compile.
    let bytes = req.netlist.rendered_len() as u64;
    if bytes > limits.netlist_bytes as u64 {
        return reject(
            "netlist_limit",
            0,
            Some(RejectLimit {
                limit: "netlist_bytes".into(),
                max: limits.netlist_bytes as u64,
                got: bytes,
            }),
        );
    }
    let charged = netlist_bytes_used.saturating_add(bytes);
    if charged > shared.cfg.conn_netlist_bytes {
        return reject(
            "netlist_quota",
            0,
            Some(RejectLimit {
                limit: "conn_netlist_bytes".into(),
                max: shared.cfg.conn_netlist_bytes,
                got: charged,
            }),
        );
    }

    let side = req.grid.unwrap_or(4);
    match wire::check_grid(side, limits) {
        Ok(()) => {}
        Err(WireError::Limit { limit, max, got }) => {
            return reject(
                "netlist_limit",
                0,
                Some(RejectLimit {
                    limit: limit.into(),
                    max,
                    got,
                }),
            );
        }
        Err(e) => return err(format!("netlist rejected: {e}")),
    }
    let netlist = match wire::decode_netlist(&req.netlist, limits) {
        Ok(netlist) => netlist,
        Err(WireError::Limit { limit, max, got }) => {
            return reject(
                "netlist_limit",
                0,
                Some(RejectLimit {
                    limit: limit.into(),
                    max,
                    got,
                }),
            );
        }
        Err(e) => return err(format!("netlist rejected: {e}")),
    };

    // Bounded compile concurrency for untrusted work: no free slot means
    // a transient reject, not an unbounded queue of compile jobs.
    let slots = shared.cfg.untrusted_compile_slots.max(1);
    let acquired = shared
        .untrusted_compiling
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < slots).then_some(n + 1)
        })
        .is_ok();
    if !acquired {
        return reject("compile_busy", RETRY_AFTER_MS, None);
    }
    let config = MachineConfig::with_grid(side, side);
    let (compiled, ran_compile) = compile_untrusted(&netlist, &config, cancel, shared);
    shared.untrusted_compiling.fetch_sub(1, Ordering::AcqRel);
    // A cache hit reuses a program compiled before: the client resending
    // a design it already submitted costs a decode and a hash, no compile.
    if ran_compile {
        *netlist_bytes_used = charged;
    }
    let entry = match compiled {
        Ok(entry) => entry,
        Err(UntrustedCompileError::Deadline) => return reject("compile_deadline", 0, None),
        Err(UntrustedCompileError::Other(e)) => return err(format!("compile failed: {e}")),
    };

    let mut job = SimJob::new(&entry.program, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&entry.output, name, *value) else {
            return err(format!("no register `{name}` in submitted netlist"));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    for name in &req.reads {
        if !entry
            .output
            .optimized
            .registers()
            .iter()
            .any(|r| &r.name == name)
        {
            return err(format!("no register `{name}` in submitted netlist"));
        }
    }
    if let Some(ms) = req.deadline_ms {
        job = job.deadline(Instant::now() + Duration::from_millis(ms));
    }
    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output: Arc::clone(&entry.output),
                park: req.park,
                source: SessionSource::Wire {
                    netlist: req.netlist.clone(),
                    grid: side,
                },
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// Admits a resume: take the parked machine and enqueue its next slice.
fn admit_resume(
    req: &ResumeReq,
    conn_id: u64,
    tx: &Sender<Value>,
    cancel: &CancelToken,
    shared: &Shared,
) -> Option<Reply> {
    let err = |message: String| {
        Some(Reply::Error {
            id: Some(req.id),
            message,
        })
    };
    let Some(parked) = shared.sessions.resume(&req.session) else {
        return err(format!(
            "no parked session `{}` (never parked, already resumed, or reaped)",
            req.session
        ));
    };
    // The machine is live again; its spilled file no longer describes
    // anything (a re-park writes a fresh one under a fresh id).
    if let Some(store) = &shared.durable {
        store.remove(&req.session);
    }
    let ParkedSession {
        machine,
        output,
        source,
    } = parked;
    let mut job = SimJob::resume(machine, req.vcycles).cancel_token(cancel.clone());
    for (name, value) in &req.pokes {
        let Some(words) = manticore::rtl_reg_words(&output, name, *value) else {
            return err(format!("no register `{name}` in session `{}`", req.session));
        };
        for (core, mreg, word) in words {
            job = job.poke(core, mreg, word);
        }
    }
    enqueue(
        PendingJob {
            job,
            meta: JobMeta {
                id: req.id,
                reads: req.reads.clone(),
                output,
                park: req.park,
                source,
                tx: tx.clone(),
            },
            cost: req.vcycles.max(1),
        },
        conn_id,
        shared,
    )
}

/// Queues an admitted job, or bounces it off the high-water mark.
fn enqueue(pending: PendingJob, conn_id: u64, shared: &Shared) -> Option<Reply> {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    if sched.queued >= shared.cfg.queue_high_water {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Some(Reply::Reject {
            id: pending.meta.id,
            reason: "queue_full".to_string(),
            retry_after_ms: RETRY_AFTER_MS,
            limit: None,
        });
    }
    let Some(conn) = sched.conns.get_mut(&conn_id) else {
        // The connection vanished between read and enqueue; nobody is
        // left to hear a reply.
        return None;
    };
    conn.queue.push_back(pending);
    sched.queued += 1;
    drop(sched);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.work.notify_all();
    None
}

/// The dispatcher: whenever a worker is free, take one DRR pick and
/// submit it to the fleet without waiting for it. The worker that
/// finishes the pick writes its replies and frees the slot.
fn dispatch_loop(shared: Arc<Shared>, fleet: Fleet) {
    let policy = BatchPolicy {
        cancel: Some(shared.shutdown.clone()),
        ..BatchPolicy::default()
    };
    while let Some(pick) = next_pick(&shared, fleet.workers()) {
        let (jobs, metas): (Vec<SimJob>, Vec<JobMeta>) =
            pick.into_iter().map(|p| (p.job, p.meta)).unzip();
        let slot = SlotGuard(Arc::clone(&shared));
        fleet.submit_ganged(jobs, shared.cfg.lanes, &policy, move |out: JobOutput| {
            let shared = &slot.0;
            let meta = &metas[out.index];
            let reply = finish_job(meta, out, shared);
            // Counted before the reply goes out, so a client that holds
            // its reply never reads a `stats` that misses it.
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            // A send failure means the client is gone; its work was
            // already cancelled by the disconnect path.
            let _ = meta.tx.send(reply.to_value());
        });
    }
    // The dispatcher holds the fleet's only handle, so this drop drains
    // the pool and joins its workers: every in-flight pick (cancelled by
    // the shutdown token at its next Vcycle boundary) has replied before
    // `Server::shutdown` returns.
    drop(fleet);
}

/// One pick's dispatch slot, owned by the pick's sink. The fleet drops
/// the sink once every unit of the pick has run, even one that panicked,
/// and the drop frees the slot and wakes the dispatcher.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        // A drop must not panic; one decrement leaves the table valid
        // even if another thread poisoned the lock.
        let mut sched = self.0.sched.lock().unwrap_or_else(PoisonError::into_inner);
        sched.inflight -= 1;
        drop(sched);
        self.0.work.notify_all();
    }
}

/// Blocks until a worker is free and a job is queued, then takes the
/// next DRR pick and counts it in flight. `None` on shutdown.
fn next_pick(shared: &Shared, workers: usize) -> Option<Vec<PendingJob>> {
    let mut sched = shared.sched.lock().expect("sched lock poisoned");
    loop {
        if shared.shutdown.is_cancelled() {
            return None;
        }
        if sched.inflight < workers {
            if let Some(pick) = sched.pick(DRR_QUANTUM, shared.cfg.lanes) {
                sched.inflight += 1;
                return Some(pick);
            }
        }
        sched = shared.work.wait(sched).expect("sched lock poisoned");
    }
}

/// Renders one finished job into its reply: read back the requested
/// registers, fingerprint the state, and park it if asked.
fn finish_job(meta: &JobMeta, out: JobOutput, shared: &Shared) -> Reply {
    let outcome = outcome_label(out.outcome).to_string();
    let (vcycles_run, mut displays, error) = match &out.result {
        Ok(run) => (run.vcycles_run, run.displays.clone(), None),
        Err(e) => (0, Vec::new(), Some(e.to_string())),
    };
    let Some(mut machine) = out.machine else {
        // Worker panic: no state survives, only the structured failure.
        return Reply::Result(JobResult {
            id: meta.id,
            outcome,
            vcycles_run,
            regs: Vec::new(),
            fingerprint: "0x0".to_string(),
            displays,
            session: None,
            error,
        });
    };
    if out.result.is_err() {
        displays = machine.drain_pending_displays();
    }
    let regs = meta
        .reads
        .iter()
        .filter_map(|name| {
            manticore::rtl_reg_read(&meta.output, name, |core, mreg| {
                machine.read_reg(core, mreg)
            })
            .map(|bits| (name.clone(), bits.to_u64()))
        })
        .collect();
    let fingerprint = format!("{:#018x}", machine.state_fingerprint());
    let session = if meta.park {
        // Serialize *before* the park moves the machine; the spill is
        // written after the park so the file name carries the final id.
        let spill = shared
            .durable
            .as_ref()
            .map(|_| save_checkpoint(&machine.checkpoint()));
        let id = shared.sessions.park(ParkedSession {
            machine,
            output: Arc::clone(&meta.output),
            source: meta.source.clone(),
        });
        if let (Some(store), Some(checkpoint)) = (&shared.durable, spill) {
            let env = Envelope {
                id: id.clone(),
                source: meta.source.clone(),
                checkpoint,
            };
            if let Err(e) = store.save(&env) {
                // Durability degrades to memory-only; the session itself
                // stays usable.
                eprintln!("manticore-served: session `{id}` not spilled: {e}");
            }
        }
        Some(id)
    } else {
        None
    };
    Reply::Result(JobResult {
        id: meta.id,
        outcome,
        vcycles_run,
        regs,
        fingerprint,
        displays,
        session,
        error,
    })
}

fn outcome_label(outcome: JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Complete => "complete",
        JobOutcome::BudgetExhausted => "budget",
        JobOutcome::Deadline => "deadline",
        JobOutcome::Cancelled => "cancelled",
        JobOutcome::Faulted => "faulted",
        JobOutcome::WorkerPanic => "panic",
    }
}

/// The stats payload: every counter an operator needs to see queue
/// pressure, cache health, and session churn at a glance.
fn stats_value(shared: &Shared) -> Value {
    let cache = shared.cache.stats();
    let sessions = shared.sessions.stats();
    let queued = shared.sched.lock().expect("sched lock poisoned").queued;
    let c = &shared.counters;
    Value::obj(vec![
        (
            "jobs_submitted",
            Value::Int(c.submitted.load(Ordering::Relaxed)),
        ),
        (
            "jobs_completed",
            Value::Int(c.completed.load(Ordering::Relaxed)),
        ),
        (
            "jobs_rejected",
            Value::Int(c.rejected.load(Ordering::Relaxed)),
        ),
        ("queued", Value::Int(queued as u64)),
        (
            "conns_opened",
            Value::Int(c.conns_opened.load(Ordering::Relaxed)),
        ),
        (
            "conns_closed",
            Value::Int(c.conns_closed.load(Ordering::Relaxed)),
        ),
        (
            "cache",
            Value::obj(vec![
                ("hits", Value::Int(cache.hits)),
                ("misses", Value::Int(cache.misses)),
                ("evictions", Value::Int(cache.evictions)),
                ("entries", Value::Int(cache.entries as u64)),
                ("bytes", Value::Int(cache.bytes as u64)),
            ]),
        ),
        (
            "sessions",
            Value::obj(vec![
                ("live", Value::Int(sessions.live as u64)),
                ("parked", Value::Int(sessions.parked)),
                ("resumed", Value::Int(sessions.resumed)),
                ("reaped", Value::Int(sessions.reaped)),
                ("recovered", Value::Int(sessions.recovered)),
            ]),
        ),
        (
            "durable_corrupt",
            Value::Int(c.durable_corrupt.load(Ordering::Relaxed)),
        ),
    ])
}

/// Re-adopts every session the durable store can produce. Runs once, in
/// `bind`, before the accept loop starts. Unrecoverable files (corrupt,
/// source no longer decodable, checkpoint/program mismatch) are removed
/// and counted — a bad file must not fail recovery of the good ones,
/// and must not fail again on every future restart.
fn recover_sessions(shared: &Shared) {
    let Some(store) = &shared.durable else { return };
    let (envelopes, corrupt) = store.load_all();
    shared
        .counters
        .durable_corrupt
        .fetch_add(corrupt as u64, Ordering::Relaxed);
    for env in envelopes {
        if let Err(e) = recover_one(&env, shared) {
            eprintln!(
                "manticore-served: dropping unrecoverable session `{}`: {e}",
                env.id
            );
            store.remove(&env.id);
            shared
                .counters
                .durable_corrupt
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One session's recovery: recompile its recorded source (deterministic,
/// so the program is bit-identical to the pre-crash one), rebind the
/// checkpoint — which re-verifies the structural shape — and re-park
/// under the original id.
fn recover_one(env: &Envelope, shared: &Shared) -> Result<(), String> {
    let (netlist, config) = match &env.source {
        SessionSource::Catalog { name, grid } => catalog::lookup(name, Some(*grid))
            .ok_or_else(|| format!("unknown catalog design `{name}`"))?,
        SessionSource::Wire { netlist, grid } => {
            let decoded = wire::decode_netlist(netlist, &shared.cfg.wire_limits)
                .map_err(|e| e.to_string())?;
            (decoded, MachineConfig::with_grid(*grid, *grid))
        }
    };
    let never_cancelled = CancelToken::new();
    let (compiled, _) = compile_untrusted(&netlist, &config, &never_cancelled, shared);
    let entry = compiled.map_err(|e| match e {
        UntrustedCompileError::Deadline => "compile deadline at recovery".to_string(),
        UntrustedCompileError::Other(msg) => msg,
    })?;
    let checkpoint = load_checkpoint(&env.checkpoint, &entry.program).map_err(|e| e.to_string())?;
    shared.sessions.adopt(
        &env.id,
        ParkedSession {
            machine: checkpoint.boot(),
            output: Arc::clone(&entry.output),
            source: env.source.clone(),
        },
    );
    Ok(())
}

fn reaper_loop(shared: Arc<Shared>) {
    while !shared.shutdown.is_cancelled() {
        for id in shared.sessions.reap() {
            if let Some(store) = &shared.durable {
                store.remove(&id);
            }
        }
        // Sleep in short slices so shutdown is prompt even with a long
        // reaper period.
        let mut remaining = shared.cfg.reaper_period;
        while !remaining.is_zero() && !shared.shutdown.is_cancelled() {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counter design compiled at grid `side`: one program per side.
    fn counter(side: usize) -> (Arc<CompiledProgram>, Arc<CompileOutput>) {
        let (netlist, config) = catalog::lookup("counter", Some(side)).expect("catalog design");
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let output = Arc::new(compile(&netlist, &options).expect("counter compiles"));
        let program = CompiledProgram::compile_shared(config, &output.binary).expect("loads");
        (program, output)
    }

    /// Queues job `id` of `program` for `vcycles` on connection `conn`.
    fn push(
        sched: &mut Sched,
        conn: u64,
        (program, output): &(Arc<CompiledProgram>, Arc<CompileOutput>),
        vcycles: u64,
        id: u64,
    ) {
        let queue = sched.conns.entry(conn).or_insert_with(|| ConnQueue {
            queue: VecDeque::new(),
            deficit: 0,
            cancel: CancelToken::new(),
        });
        let (tx, _) = std::sync::mpsc::channel();
        queue.queue.push_back(PendingJob {
            job: SimJob::new(program, vcycles).cancel_token(queue.cancel.clone()),
            meta: JobMeta {
                id,
                reads: Vec::new(),
                output: Arc::clone(output),
                park: false,
                source: SessionSource::Catalog {
                    name: "counter".into(),
                    grid: 2,
                },
                tx,
            },
            cost: vcycles,
        });
        sched.queued += 1;
    }

    #[test]
    fn picks_gang_followers_and_pass_the_turn_when_credit_runs_out() {
        let (a, b) = (counter(2), counter(3));
        let mut sched = Sched::default();
        // Connection 1: three `a` jobs interleaved with a `b` job, then
        // an `a` job with a different budget. Connection 2: one job.
        for (id, (design, vcycles)) in [(&a, 200), (&b, 200), (&a, 200), (&a, 200), (&a, 500)]
            .into_iter()
            .enumerate()
        {
            push(&mut sched, 1, design, vcycles, id as u64);
        }
        push(&mut sched, 2, &a, 200, 10);
        let mut picks = Vec::new();
        while let Some(pick) = sched.pick(1_000, 3) {
            picks.push(pick.iter().map(|p| p.meta.id).collect::<Vec<_>>());
        }
        // Connection 1's turn (1000 credit) takes a gang of three `a`
        // jobs past the `b` job (600), then the `b` job (200), then
        // stops at the 500-Vcycle job it cannot afford (200 left).
        // Connection 2's turn follows; connection 1 then finishes on its
        // next turn.
        assert_eq!(picks, vec![vec![0, 2, 3], vec![1], vec![10], vec![4]]);
        assert_eq!(sched.queued, 0);
    }

    #[test]
    fn shutdown_waits_for_in_flight_picks_while_another_fleet_is_busy() {
        // Another fleet in the process holds both of its workers in
        // blocked sinks until `release` drops. The server's picks must
        // neither queue behind them nor outlive the server's shutdown.
        let other = Fleet::new(2);
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (entered_tx, gate) = (Mutex::new(entered_tx), Mutex::new(gate));
        let program = counter(2).0;
        other.submit_ganged(
            vec![SimJob::new(&program, 1), SimJob::new(&program, 1)],
            1,
            &BatchPolicy::default(),
            move |_| {
                let _ = entered_tx.lock().expect("entered").send(());
                let _ = gate.lock().expect("gate").recv();
            },
        );
        for _ in 0..2 {
            entered
                .recv()
                .expect("both workers of the other fleet are held");
        }

        let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let mut client = crate::client::Client::connect(server.local_addr()).expect("connect");
        client
            .send(&crate::proto::Request::Submit(crate::proto::SubmitReq {
                id: 1,
                design: "counter".into(),
                grid: None,
                vcycles: u64::MAX / 2,
                pokes: Vec::new(),
                reads: Vec::new(),
                deadline_ms: None,
                park: false,
            }))
            .expect("send");
        let started = Instant::now();
        while server.shared.sched.lock().expect("sched").inflight == 0 {
            assert!(started.elapsed() < Duration::from_secs(30), "never picked");
            std::thread::sleep(Duration::from_millis(5));
        }

        server.shutdown();
        // The pick ran its sink (a cancelled reply) and freed its slot
        // before shutdown returned.
        assert_eq!(server.shared.counters.completed.load(Ordering::Relaxed), 1);
        assert_eq!(server.shared.sched.lock().expect("sched").inflight, 0);
        drop(release);
    }
}
