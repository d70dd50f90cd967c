//! Durable checkpoints: a versioned, checksummed byte encoding of
//! [`Checkpoint`].
//!
//! In-memory checkpoints are keyed to a [`CompiledProgram`] by its
//! process-unique identity, which cannot survive a restart. The durable
//! form therefore stores no identity at all; instead it records the
//! *structural shape* the snapshot was taken under (grid geometry,
//! register-file and scratchpad sizes, Vcycle length, per-core epilogue
//! lengths), and [`load_checkpoint`] re-keys the decoded state to a
//! caller-supplied program after verifying the shapes match. The caller is
//! responsible for recompiling the same design — the compiler's
//! determinism suite guarantees a recompile is byte-identical, and the
//! serving layer keys its on-disk sessions by netlist hash so it always
//! recompiles the right one.
//!
//! The format is fixed-width little-endian with a magic/version header and
//! an FNV-1a checksum trailer over everything before it. Decoding is
//! fail-safe against arbitrary bytes: every length is validated against
//! the program's shape before use, every tag byte is range-checked, and no
//! allocation is sized from an unvalidated count — a truncated, corrupted,
//! or adversarial file yields a typed [`PersistError`], never a panic or
//! an absurd allocation.

use std::sync::Arc;

use manticore_isa::{CoreId, Reg};
use manticore_util::fnv1a;

use crate::cache::{Cache, CacheStats, Line};
use crate::checkpoint::Checkpoint;
use crate::core::{CoreState, PendingWrite};
use crate::grid::{HostEvent, MachineError, PerfCounters};
use crate::noc::{LinkId, Message, Noc};
use crate::program::CompiledProgram;

/// File magic: "MCKP" (Manticore ChecKPoint).
const MAGIC: [u8; 4] = *b"MCKP";
/// Current format version.
const VERSION: u32 = 1;

/// Why a durable checkpoint failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The byte stream ended before the structure it promised.
    Truncated,
    /// The magic bytes are not a checkpoint's.
    BadMagic,
    /// The format version is not one this build reads.
    BadVersion {
        /// Version found in the header.
        got: u32,
    },
    /// The checksum trailer does not match the content — the file was
    /// corrupted at rest or in transit.
    BadChecksum,
    /// The snapshot was taken under a program with a different structural
    /// shape than the one supplied for rebinding.
    ProgramMismatch {
        /// Which shape field disagreed.
        detail: String,
    },
    /// The stream is well-framed but semantically invalid (bad tag byte,
    /// out-of-range index, impossible length).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "checkpoint truncated"),
            PersistError::BadMagic => write!(f, "not a checkpoint file"),
            PersistError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported checkpoint version {got} (expected {VERSION})"
                )
            }
            PersistError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            PersistError::ProgramMismatch { detail } => {
                write!(f, "checkpoint belongs to a different program: {detail}")
            }
            PersistError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Primitive writers/readers: fixed-width little-endian.

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A whole `u32` section in one resize: the same bytes as `u32` per
    /// word.
    fn u32s(&mut self, words: &[u32]) {
        let at = self.buf.len();
        self.buf.resize(at + words.len() * 4, 0);
        for (dst, w) in self.buf[at..].chunks_exact_mut(4).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }
    /// A whole `u16` section in one resize: the same bytes as `u16` per
    /// word.
    fn u16s(&mut self, words: &[u16]) {
        let at = self.buf.len();
        self.buf.resize(at + words.len() * 2, 0);
        for (dst, w) in self.buf[at..].chunks_exact_mut(2).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }
    /// `n` zero bytes.
    fn zeros(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }
    fn core_id(&mut self, c: CoreId) {
        self.u8(c.x);
        self.u8(c.y);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count exceeds usize"))
    }
    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not UTF-8"))
    }
    fn core_id(&mut self) -> Result<CoreId, PersistError> {
        let x = self.u8()?;
        let y = self.u8()?;
        Ok(CoreId { x, y })
    }
    /// Fills `out` from a section written by [`Writer::u32s`].
    fn u32s(&mut self, out: &mut [u32]) -> Result<(), PersistError> {
        let bytes = self.take(out.len() * 4)?;
        for (w, src) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *w = u32::from_le_bytes(src.try_into().unwrap());
        }
        Ok(())
    }
    /// Fills `out` from a section written by [`Writer::u16s`].
    fn u16s(&mut self, out: &mut [u16]) -> Result<(), PersistError> {
        let bytes = self.take(out.len() * 2)?;
        for (w, src) in out.iter_mut().zip(bytes.chunks_exact(2)) {
            *w = u16::from_le_bytes(src.try_into().unwrap());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Enum encodings.

fn write_error(w: &mut Writer, e: &MachineError) {
    match e {
        MachineError::Load(m) => {
            w.u8(0);
            w.str(m);
        }
        MachineError::Hazard {
            core,
            position,
            reg,
        } => {
            w.u8(1);
            w.core_id(*core);
            w.u64(*position);
            w.u16(reg.0);
        }
        MachineError::LinkCollision { link, position } => {
            w.u8(2);
            w.str(link);
            w.u64(*position);
        }
        MachineError::LateMessage { core, slot } => {
            w.u8(3);
            w.core_id(*core);
            w.usize(*slot);
        }
        MachineError::EpilogueOverflow { core } => {
            w.u8(4);
            w.core_id(*core);
        }
        MachineError::MissingMessages {
            core,
            got,
            expected,
        } => {
            w.u8(5);
            w.core_id(*core);
            w.usize(*got);
            w.usize(*expected);
        }
        MachineError::MissingScheduledMessage {
            core,
            slot,
            position,
        } => {
            w.u8(6);
            w.core_id(*core);
            w.usize(*slot);
            w.u64(*position);
        }
        MachineError::NotPrivileged { core } => {
            w.u8(7);
            w.core_id(*core);
        }
        MachineError::AssertFailed { message, vcycle } => {
            w.u8(8);
            w.str(message);
            w.u64(*vcycle);
        }
        MachineError::UnknownException { eid } => {
            w.u8(9);
            w.u16(*eid);
        }
        MachineError::CheckpointMismatch { expected, got } => {
            w.u8(10);
            w.u64(*expected);
            w.u64(*got);
        }
        MachineError::ForkWidth { requested } => {
            w.u8(11);
            w.usize(*requested);
        }
        MachineError::Injected { vcycle } => {
            w.u8(12);
            w.u64(*vcycle);
        }
        MachineError::WorkerPanic { message } => {
            w.u8(13);
            w.str(message);
        }
    }
}

fn read_error(r: &mut Reader<'_>) -> Result<MachineError, PersistError> {
    Ok(match r.u8()? {
        0 => MachineError::Load(r.str()?),
        1 => MachineError::Hazard {
            core: r.core_id()?,
            position: r.u64()?,
            reg: Reg(r.u16()?),
        },
        2 => MachineError::LinkCollision {
            link: r.str()?,
            position: r.u64()?,
        },
        3 => MachineError::LateMessage {
            core: r.core_id()?,
            slot: r.usize()?,
        },
        4 => MachineError::EpilogueOverflow { core: r.core_id()? },
        5 => MachineError::MissingMessages {
            core: r.core_id()?,
            got: r.usize()?,
            expected: r.usize()?,
        },
        6 => MachineError::MissingScheduledMessage {
            core: r.core_id()?,
            slot: r.usize()?,
            position: r.u64()?,
        },
        7 => MachineError::NotPrivileged { core: r.core_id()? },
        8 => MachineError::AssertFailed {
            message: r.str()?,
            vcycle: r.u64()?,
        },
        9 => MachineError::UnknownException { eid: r.u16()? },
        10 => MachineError::CheckpointMismatch {
            expected: r.u64()?,
            got: r.u64()?,
        },
        11 => MachineError::ForkWidth {
            requested: r.usize()?,
        },
        12 => MachineError::Injected { vcycle: r.u64()? },
        13 => MachineError::WorkerPanic { message: r.str()? },
        t => return Err(corrupt(format!("bad error tag {t}"))),
    })
}

fn link_tag(l: LinkId) -> (u8, CoreId) {
    match l {
        LinkId::XPlus(c) => (0, c),
        LinkId::YPlus(c) => (1, c),
        LinkId::Delivery(c) => (2, c),
    }
}

// ---------------------------------------------------------------------------
// Save.

/// Serializes a checkpoint into the durable format. The result is
/// self-contained except for the program, which must be recompiled and
/// supplied to [`load_checkpoint`].
pub fn save_checkpoint(cp: &Checkpoint) -> Vec<u8> {
    // Reserve once: the register file, every core's scratchpad and the
    // cache dominate; the rest is small and bounded by the same counts.
    let config = cp.program.config();
    let bulk = cp.regs.len() * 4
        + cp.cores.len() * config.scratch_words * 2
        + cp.cache.data.len() * 2
        + cp.cache.lines.len() * 10
        + cp.cache.dram.len() * 10;
    let mut w = Writer::with_capacity(bulk + 1024 + cp.cores.len() * 64);
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);

    // Structural shape of the owning program, verified at load.
    w.u32(config.grid_width as u32);
    w.u32(config.grid_height as u32);
    w.u32(config.regfile_size as u32);
    w.u32(config.scratch_words as u32);
    w.u32(config.hazard_latency as u32);
    w.u64(cp.program.vcycle_len());
    w.u32(cp.cores.len() as u32);
    for cs in &cp.cores {
        w.u32(cs.epilogue.len() as u32);
    }

    // Per-core run state. The ring is written as its live entries in
    // FIFO order; capacity/head/mask are derived on load.
    for cs in &cp.cores {
        w.u32(cs.ring_len);
        for i in 0..cs.ring_len {
            let slot = ((cs.ring_head + i) & cs.ring_mask) as usize;
            let pw = cs.ring[slot];
            w.u64(pw.commit_at);
            w.u16(pw.reg);
            w.u16(pw.value);
            w.bool(pw.carry);
        }
        w.bool(cs.predicate);
        w.usize(cs.received);
        for slot in &cs.epilogue {
            match slot {
                None => w.u8(0),
                Some((reg, value)) => {
                    w.u8(1);
                    w.u16(reg.0);
                    w.u16(*value);
                }
            }
        }
        w.u64(cs.executed);
    }

    // SoA register file, then every core's scratchpad in core order — a
    // core without a scratchpad lane reads as zeros, so the layout is the
    // whole grid's whatever the program's footprint.
    w.u32s(&cp.regs);
    for idx in 0..cp.cores.len() {
        let lane = cp.program.scratch_range(idx);
        if lane.is_empty() {
            w.zeros(config.scratch_words * 2);
        } else {
            w.u16s(&cp.scratch[lane]);
        }
    }

    // NoC: reservations sorted (HashMap iteration order is not
    // deterministic; the durable form must be byte-stable for a given
    // state), then in-flight messages in injection order.
    let mut reservations: Vec<((LinkId, u64), CoreId)> =
        cp.noc.reservations.iter().map(|(k, v)| (*k, *v)).collect();
    reservations.sort_by_key(|((link, pos), _)| {
        let (tag, c) = link_tag(*link);
        (tag, c.x, c.y, *pos)
    });
    w.usize(reservations.len());
    for ((link, pos), owner) in reservations {
        let (tag, c) = link_tag(link);
        w.u8(tag);
        w.core_id(c);
        w.u64(pos);
        w.core_id(owner);
    }
    w.usize(cp.noc.in_flight.len());
    for m in &cp.noc.in_flight {
        w.core_id(m.target);
        w.u16(m.rd.0);
        w.u16(m.value);
        w.u64(m.arrive_at);
    }

    // Cache: lines, data, DRAM image (sorted for byte stability), stats.
    w.usize(cp.cache.lines.len());
    for line in &cp.cache.lines {
        w.u64(line.tag);
        w.bool(line.valid);
        w.bool(line.dirty);
    }
    w.u16s(&cp.cache.data);
    let mut dram: Vec<(u64, u16)> = cp.cache.dram.iter().map(|(a, v)| (*a, *v)).collect();
    dram.sort_unstable_by_key(|&(a, _)| a);
    w.usize(dram.len());
    for (addr, value) in dram {
        w.u64(addr);
        w.u16(value);
    }
    let stats = cp.cache.stats;
    w.u64(stats.hits);
    w.u64(stats.misses);
    w.u64(stats.writebacks);

    // Clock, counters, flags.
    w.u64(cp.compute_time);
    w.u64(cp.counters.compute_cycles);
    w.u64(cp.counters.stall_cycles);
    w.u64(cp.counters.vcycles);
    w.u64(cp.counters.instructions);
    w.u64(cp.counters.sends);
    w.u64(cp.counters.messages_delivered);
    w.u64(cp.counters.exceptions);
    w.bool(cp.strict_hazards);
    w.bool(cp.finish_requested);

    // Pending host events.
    w.usize(cp.events.len());
    for ev in &cp.events {
        match ev {
            HostEvent::Display(s) => {
                w.u8(0);
                w.str(s);
            }
            HostEvent::Finish => w.u8(1),
        }
    }

    // Engine knobs. The leading tag is the retired exec-mode field; this
    // build always writes 0 (serial). The byte after `replay_enabled` is
    // the retired replay-engine tag; this build always writes 1.
    w.u8(0);
    w.bool(cp.replay_enabled);
    w.u8(1);
    w.bool(cp.tape_invalidated);

    // Fault.
    match &cp.fault {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            write_error(&mut w, e);
        }
    }

    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    w.buf
}

// ---------------------------------------------------------------------------
// Load.

/// Deserializes a durable checkpoint and re-keys it to `program`, which
/// must be a recompile of the same design under the same configuration
/// (the structural shape recorded at save time is verified field by
/// field).
///
/// # Errors
///
/// [`PersistError`] on any framing, checksum, shape, or semantic
/// violation; arbitrary hostile bytes cannot panic or over-allocate.
pub fn load_checkpoint(
    bytes: &[u8],
    program: &Arc<CompiledProgram>,
) -> Result<Checkpoint, PersistError> {
    // Checksum trailer first: everything else assumes intact bytes.
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(PersistError::Truncated);
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(trailer.try_into().unwrap());
    if fnv1a(content) != want {
        return Err(PersistError::BadChecksum);
    }

    let mut r = Reader {
        buf: content,
        pos: 0,
    };
    if r.take(4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::BadVersion { got: version });
    }

    // Shape check against the supplied program.
    let config = program.config();
    let shape = |name: &str, stored: u64, actual: u64| -> Result<(), PersistError> {
        if stored != actual {
            return Err(PersistError::ProgramMismatch {
                detail: format!("{name}: snapshot has {stored}, program has {actual}"),
            });
        }
        Ok(())
    };
    let stored_gw = r.u32()? as u64;
    let stored_gh = r.u32()? as u64;
    let stored_rf = r.u32()? as u64;
    let stored_sw = r.u32()? as u64;
    let stored_hz = r.u32()? as u64;
    let stored_vl = r.u64()?;
    let stored_cores = r.u32()? as u64;
    shape("grid width", stored_gw, config.grid_width as u64)?;
    shape("grid height", stored_gh, config.grid_height as u64)?;
    shape("register file size", stored_rf, config.regfile_size as u64)?;
    shape("scratchpad words", stored_sw, config.scratch_words as u64)?;
    shape("hazard latency", stored_hz, config.hazard_latency as u64)?;
    shape("vcycle length", stored_vl, program.vcycle_len())?;
    shape("core count", stored_cores, program.num_cores() as u64)?;
    let num_cores = program.num_cores();
    let mut epilogue_lens = Vec::with_capacity(num_cores);
    for i in 0..num_cores {
        let stored = r.u32()? as usize;
        let actual = program.cores[i].epilogue_len;
        if stored != actual {
            return Err(PersistError::ProgramMismatch {
                detail: format!(
                    "core {i} epilogue length: snapshot has {stored}, program has {actual}"
                ),
            });
        }
        epilogue_lens.push(actual);
    }

    let regfile_size = config.regfile_size;
    // Every register a ring entry, epilogue slot or in-flight message can
    // name is one the program names: the per-core hazard tables stop at
    // the program's register span.
    let reg_span = program.reg_span();
    let check_core = |c: CoreId| -> Result<CoreId, PersistError> {
        if (c.x as usize) < config.grid_width && (c.y as usize) < config.grid_height {
            Ok(c)
        } else {
            Err(corrupt(format!("core ({}, {}) outside the grid", c.x, c.y)))
        }
    };
    let check_reg = |reg: u16| -> Result<u16, PersistError> {
        if (reg as usize) < reg_span {
            Ok(reg)
        } else {
            Err(corrupt(format!(
                "register {reg} outside the program's {reg_span}-register footprint"
            )))
        }
    };

    // Per-core run state.
    let mut cores = Vec::with_capacity(num_cores);
    for (i, &epilogue_len) in epilogue_lens.iter().enumerate() {
        let mut cs = CoreState::new(reg_span, config.hazard_latency, epilogue_len);
        let ring_len = r.u32()?;
        if ring_len as usize > cs.ring.len() {
            return Err(corrupt(format!(
                "core {i} ring has {ring_len} entries, capacity is {}",
                cs.ring.len()
            )));
        }
        for slot in 0..ring_len {
            let pw = PendingWrite {
                commit_at: r.u64()?,
                reg: check_reg(r.u16()?)?,
                value: r.u16()?,
                carry: r.bool()?,
            };
            cs.ring[slot as usize] = pw;
            cs.inflight[pw.reg as usize] += 1;
            cs.last_writer[pw.reg as usize] = slot;
        }
        cs.ring_head = 0;
        cs.ring_len = ring_len;
        cs.predicate = r.bool()?;
        let received = r.usize()?;
        if received > epilogue_len {
            return Err(corrupt(format!(
                "core {i} received {received} messages into a {epilogue_len}-slot epilogue"
            )));
        }
        for slot in cs.epilogue.iter_mut() {
            *slot = match r.u8()? {
                0 => None,
                1 => Some((Reg(check_reg(r.u16()?)?), r.u16()?)),
                t => return Err(corrupt(format!("bad epilogue tag {t}"))),
            };
        }
        cs.received = received;
        cs.executed = r.u64()?;
        cores.push(cs);
    }

    // SoA register file and scratchpad (fixed sizes from the shape). Only
    // the cores with a scratchpad lane keep theirs; any other core's must
    // be all zeros, since no instruction of the program can write it.
    let mut regs = vec![0u32; num_cores * regfile_size];
    r.u32s(&mut regs)?;
    let mut scratch = vec![0u16; program.scratch_lanes * config.scratch_words];
    for idx in 0..num_cores {
        let lane = program.scratch_range(idx);
        if !lane.is_empty() {
            r.u16s(&mut scratch[lane])?;
        } else {
            let bytes = r.take(config.scratch_words * 2)?;
            if let Some(addr) = bytes.chunks_exact(2).position(|w| w != [0, 0]) {
                return Err(corrupt(format!(
                    "core {idx} scratchpad word {addr} is nonzero, but the program never addresses that scratchpad"
                )));
            }
        }
    }

    // NoC.
    let mut noc = Noc::new(config);
    let n_res = r.usize()?;
    for _ in 0..n_res {
        let tag = r.u8()?;
        let core = check_core(r.core_id()?)?;
        let link = match tag {
            0 => LinkId::XPlus(core),
            1 => LinkId::YPlus(core),
            2 => LinkId::Delivery(core),
            t => return Err(corrupt(format!("bad link tag {t}"))),
        };
        let pos = r.u64()?;
        let owner = check_core(r.core_id()?)?;
        noc.reservations.insert((link, pos), owner);
    }
    let n_flight = r.usize()?;
    for _ in 0..n_flight {
        noc.in_flight.push(Message {
            target: check_core(r.core_id()?)?,
            rd: Reg(check_reg(r.u16()?)?),
            value: r.u16()?,
            arrive_at: r.u64()?,
        });
    }

    // Cache.
    let mut cache = Cache::new(config.cache);
    let n_lines = r.usize()?;
    if n_lines != cache.lines.len() {
        return Err(corrupt(format!(
            "cache has {n_lines} lines, configuration has {}",
            cache.lines.len()
        )));
    }
    for line in cache.lines.iter_mut() {
        *line = Line {
            tag: r.u64()?,
            valid: r.bool()?,
            dirty: r.bool()?,
        };
    }
    r.u16s(&mut cache.data)?;
    let n_dram = r.usize()?;
    for _ in 0..n_dram {
        let addr = r.u64()?;
        let value = r.u16()?;
        cache.dram.insert(addr, value);
    }
    cache.stats = CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        writebacks: r.u64()?,
    };

    // Clock, counters, flags.
    let compute_time = r.u64()?;
    let counters = PerfCounters {
        compute_cycles: r.u64()?,
        stall_cycles: r.u64()?,
        vcycles: r.u64()?,
        instructions: r.u64()?,
        sends: r.u64()?,
        messages_delivered: r.u64()?,
        exceptions: r.u64()?,
    };
    let strict_hazards = r.bool()?;
    let finish_requested = r.bool()?;

    let n_events = r.usize()?;
    let mut events = Vec::new();
    for _ in 0..n_events {
        events.push(match r.u8()? {
            0 => HostEvent::Display(r.str()?),
            1 => HostEvent::Finish,
            t => return Err(corrupt(format!("bad event tag {t}"))),
        });
    }

    // Retired exec-mode tag: 0 is serial; 1 is the sharded engine of older
    // builds, whose shard count is read and discarded (the state at a
    // Vcycle boundary is the same under either engine).
    match r.u8()? {
        0 => {}
        1 => {
            r.usize()?;
        }
        t => return Err(corrupt(format!("bad exec-mode tag {t}"))),
    }
    let replay_enabled = r.bool()?;
    // Retired replay-engine tag: 0 is the tape engine of older builds, 1
    // the micro-op engine. Either resumes on today's single replay engine
    // (the state at a Vcycle boundary is engine-independent).
    match r.u8()? {
        0 | 1 => {}
        t => return Err(corrupt(format!("bad replay-engine tag {t}"))),
    }
    let tape_invalidated = r.bool()?;

    let fault = match r.u8()? {
        0 => None,
        1 => Some(read_error(&mut r)?),
        t => return Err(corrupt(format!("bad fault tag {t}"))),
    };

    if r.pos != content.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the checkpoint",
            content.len() - r.pos
        )));
    }

    Ok(Checkpoint {
        program: Arc::clone(program),
        cores,
        regs,
        scratch,
        noc,
        cache,
        compute_time,
        counters,
        strict_hazards,
        finish_requested,
        events,
        replay_enabled,
        tape_invalidated,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full round-trip tests (save → load → bit-identical resume) need a
    // compiled program and live in `tests/serve_hardening.rs`; here we pin
    // the fail-safe paths that need no program.

    #[test]
    fn garbage_is_rejected_without_panicking() {
        let program_free_cases: &[&[u8]] = &[
            b"",
            b"MC",
            b"MCKP",
            b"not a checkpoint at all",
            &[0u8; 64],
            &[0xff; 4096],
        ];
        // A dummy program is still needed for the signature; build the
        // byte-level rejections that fire before any shape check.
        for case in program_free_cases {
            // Checksum/magic/truncation checks run before the program is
            // consulted, so a null-ish Arc is never dereferenced — but the
            // API takes a real one, so these cases are exercised through
            // the workspace round-trip test too. Here, verify the framing
            // guards directly.
            let r = frame_check(case);
            assert!(r.is_err(), "{case:?} must be rejected");
        }
    }

    /// The framing-only prefix of `load_checkpoint`, for tests that have
    /// no compiled program to rebind to.
    fn frame_check(bytes: &[u8]) -> Result<(), PersistError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(PersistError::Truncated);
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(trailer.try_into().unwrap());
        if fnv1a(content) != want {
            return Err(PersistError::BadChecksum);
        }
        let mut r = Reader {
            buf: content,
            pos: 0,
        };
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        Ok(())
    }

    #[test]
    fn single_bit_flip_fails_the_checksum() {
        // A synthetic well-framed stream: magic + version + padding, with
        // a valid trailer; flipping any one bit must trip the checksum.
        let mut w = Writer::with_capacity(24);
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u64(0xdead_beef);
        let sum = fnv1a(&w.buf);
        w.u64(sum);
        let good = w.buf;
        assert!(frame_check(&good).is_ok());
        for byte in 0..good.len() - 8 {
            let mut bad = good.clone();
            bad[byte] ^= 1;
            assert_eq!(frame_check(&bad), Err(PersistError::BadChecksum));
        }
    }
}
