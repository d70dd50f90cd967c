//! Per-run core state and the pipeline write ring.
//!
//! A core is split across the compile-once / run-many boundary: the
//! *program* half (body, epilogue length, custom-function tables) lives in
//! the shared immutable [`crate::CompiledProgram`]
//! (`crate::program::CoreProgram`); this module holds what one *run*
//! mutates. Register files and scratchpads live in two structure-of-arrays
//! vectors owned by the machine (one `Vec<u32>` of register lanes for the
//! whole grid, one `Vec<u16>` of scratchpad lanes for the cores whose
//! program addresses one, both sliced per-core); [`CoreState`] keeps the
//! genuinely per-run remainder — the epilogue bookkeeping and the pipeline
//! write ring. [`CoreView`] bundles a core's run state, its two SoA lanes,
//! and its shared program for the executors.
//!
//! The write ring models the 14-stage pipeline: a register written at
//! cycle `t` commits at `t + hazard_latency`. Because every engine issues
//! at most one write per core per position and positions are monotone, the
//! ring is a FIFO ordered by commit time with at most `hazard_latency + 1`
//! entries in flight — commit is O(1) amortized, and the per-register
//! in-flight counters plus last-writer slots make hazard checks
//! ([`CoreState::has_pending_write`]) and host flushes
//! ([`CoreState::reg_value_flushed`]) O(1) instead of a queue scan.

use manticore_isa::Reg;

use crate::program::CoreProgram;

/// A register write travelling down the pipeline; becomes architecturally
/// visible at `commit_at` (compute-domain time).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PendingWrite {
    pub commit_at: u64,
    /// Flat register-file index (pre-resolved `Reg::index()`).
    pub reg: u16,
    pub value: u16,
    pub carry: bool,
}

/// The per-run core state: epilogue slots, pipeline ring, predicate.
/// The `Default` value holds no allocation; the gang engine leaves it
/// behind wherever it moved a core state out.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreState {
    /// Pipeline ring: in-flight writes in commit-time order. Power-of-two
    /// capacity, indexed `(ring_head + i) & ring_mask`.
    pub ring: Vec<PendingWrite>,
    pub ring_head: u32,
    pub ring_len: u32,
    pub ring_mask: u32,
    /// In-flight write count per register (O(1) hazard checks). Sized to
    /// the program's register span ([`crate::CompiledProgram`]'s
    /// `reg_span`), not the register file: no write lands above it, so a
    /// register past the end has nothing in flight.
    pub inflight: Vec<u16>,
    /// Ring slot of the most recent in-flight write per register; valid
    /// while `inflight[reg] > 0` (a live slot is never reused, so the
    /// latest writer is always intact). Sized like `inflight`.
    pub last_writer: Vec<u32>,
    /// Predicate register for stores.
    pub predicate: bool,
    /// Messages received this Vcycle, executed as `Set` at positions
    /// `body.len()..body.len()+epilogue_len` (the instruction-memory
    /// tail). Sized to the program's declared epilogue length.
    pub epilogue: Vec<Option<(Reg, u16)>>,
    /// Messages received so far this Vcycle.
    pub received: usize,
    /// Executed (non-idle) instruction count, for utilization reporting.
    pub executed: u64,
}

impl CoreState {
    /// A fresh core state whose hazard tables cover registers
    /// `0..reg_span`.
    pub fn new(reg_span: usize, hazard_latency: usize, epilogue_len: usize) -> Self {
        // At most one write issues per position and a write issued at
        // position `p` commits at `p + hazard_latency`, so no more than
        // `hazard_latency + 1` writes are ever in flight; `+2` leaves a
        // slot of headroom for zero-latency configurations.
        let cap = (hazard_latency + 2).next_power_of_two();
        CoreState {
            ring: vec![PendingWrite::default(); cap],
            ring_head: 0,
            ring_len: 0,
            ring_mask: cap as u32 - 1,
            inflight: vec![0; reg_span],
            last_writer: vec![0; reg_span],
            predicate: false,
            epilogue: vec![None; epilogue_len],
            received: 0,
            executed: 0,
        }
    }

    /// Commits all pending writes due at or before `now` into the core's
    /// register lane.
    #[inline]
    pub fn commit_due(&mut self, regs: &mut [u32], now: u64) {
        self.commit_due_strided(regs, 1, 0, now);
    }

    /// [`CoreState::commit_due`] over a strided register slab: register
    /// `r`'s word lives at `r * stride + offset`. The gang engine's lane
    /// rows store one core's registers as `W` interleaved copies (`stride
    /// = W`, `offset = lane`); the machine's per-core layout is the
    /// `stride = 1, offset = 0` special case.
    #[inline]
    pub fn commit_due_strided(&mut self, regs: &mut [u32], stride: usize, offset: usize, now: u64) {
        while self.ring_len > 0 {
            let w = self.ring[self.ring_head as usize];
            if w.commit_at > now {
                break;
            }
            regs[w.reg as usize * stride + offset] = w.value as u32 | ((w.carry as u32) << 16);
            self.inflight[w.reg as usize] -= 1;
            self.ring_head = (self.ring_head + 1) & self.ring_mask;
            self.ring_len -= 1;
        }
    }

    /// The value the register will hold once all in-flight writes commit
    /// (the host's view when servicing an exception: the grid is stalled
    /// and the pipeline drains before the host reads state).
    #[inline]
    pub fn reg_value_flushed(&self, regs: &[u32], r: Reg) -> u16 {
        self.reg_value_flushed_word(regs[r.index()], r.index())
    }

    /// [`CoreState::reg_value_flushed`] with the committed word supplied by
    /// the caller — the layout-agnostic form the gang engine uses, since
    /// its lane rows have no contiguous per-core register slice.
    #[inline]
    pub fn reg_value_flushed_word(&self, committed: u32, idx: usize) -> u16 {
        if self.inflight.get(idx).is_some_and(|&n| n > 0) {
            self.ring[self.last_writer[idx] as usize].value
        } else {
            committed as u16
        }
    }

    /// Rewrites every in-flight write to flat register index `reg` to carry
    /// `value` (carry cleared), leaving commit timing untouched. This is
    /// what makes a mid-run poke authoritative: the caller overwrites the
    /// committed word, and any write still in the pipeline — which would
    /// otherwise clobber the poke with a pre-poke value when it commits a
    /// few cycles later — now commits the poked value, a no-op. The poke
    /// thereby behaves exactly as if it had been planted before the
    /// resumed segment started.
    #[inline]
    pub fn override_pending(&mut self, reg: u16, value: u16) {
        for i in 0..self.ring_len {
            let slot = ((self.ring_head + i) & self.ring_mask) as usize;
            let w = &mut self.ring[slot];
            if w.reg == reg {
                w.value = value;
                w.carry = false;
            }
        }
    }

    /// True if `r` has an uncommitted in-flight write (a read now would be
    /// a data hazard the compiler should have scheduled around).
    #[inline]
    pub fn has_pending_write(&self, r: Reg) -> bool {
        self.inflight[r.index()] > 0
    }

    /// Queues a write to flat register index `reg`, committing `latency`
    /// cycles from `now`.
    #[inline]
    pub fn write_reg_idx(&mut self, now: u64, latency: u64, reg: u16, value: u16, carry: bool) {
        assert!(
            (self.ring_len as usize) < self.ring.len(),
            "pipeline ring overflow"
        );
        let slot = (self.ring_head + self.ring_len) & self.ring_mask;
        self.ring[slot as usize] = PendingWrite {
            commit_at: now + latency,
            reg,
            value,
            carry,
        };
        self.inflight[reg as usize] += 1;
        self.last_writer[reg as usize] = slot;
        self.ring_len += 1;
    }

    /// Records an arriving message in the next free epilogue slot.
    /// Returns the slot index, or `None` if the epilogue is full.
    pub fn receive(&mut self, rd: Reg, value: u16) -> Option<usize> {
        if self.received >= self.epilogue.len() {
            return None;
        }
        let slot = self.received;
        self.epilogue[slot] = Some((rd, value));
        self.received += 1;
        Some(slot)
    }

    /// Resets per-Vcycle receive state (the Vcycle wrap). Messages fill
    /// slots in order, so only the first `received` can be `Some`.
    pub fn wrap_vcycle(&mut self) {
        self.epilogue[..self.received]
            .iter_mut()
            .for_each(|s| *s = None);
        self.received = 0;
    }
}

/// A core's run state plus its register-file and scratchpad lanes out of
/// the machine's structure-of-arrays storage, plus its shared read-only
/// program — everything one core's execution touches (the program side
/// is `&`-shared freely).
pub(crate) struct CoreView<'a> {
    pub cs: &'a mut CoreState,
    /// The core's immutable program half (body, epilogue length, custom
    /// functions) out of the shared [`crate::CompiledProgram`].
    pub prog: &'a CoreProgram,
    /// This core's `regfile_size` slice of the grid register file.
    /// Low 16 bits value, bit 16 the carry/overflow bit (the 2048×17 BRAM
    /// of §5.1).
    pub regs: &'a mut [u32],
    /// This core's `scratch_words` lane of the scratchpad (16384×16
    /// URAM); empty for a core whose program never addresses its
    /// scratchpad (see [`crate::CompiledProgram`]'s lane table).
    pub scratch: &'a mut [u16],
}

impl CoreView<'_> {
    /// Architectural (committed) register value.
    #[inline]
    pub fn reg_value(&self, r: Reg) -> u16 {
        self.regs[r.index()] as u16
    }

    /// Architectural carry bit.
    #[inline]
    pub fn reg_carry(&self, r: Reg) -> bool {
        (self.regs[r.index()] >> 16) & 1 == 1
    }

    /// See [`CoreState::reg_value_flushed`].
    #[inline]
    pub fn reg_value_flushed(&self, r: Reg) -> u16 {
        self.cs.reg_value_flushed(self.regs, r)
    }

    /// Queues a register write that commits `latency` cycles from `now`.
    #[inline]
    pub fn write_reg(&mut self, now: u64, latency: u64, reg: Reg, value: u16, carry: bool) {
        self.cs.write_reg_idx(now, latency, reg.0, value, carry);
    }

    /// Commits all pending writes due at or before `now`.
    #[inline]
    pub fn commit_due(&mut self, now: u64) {
        self.cs.commit_due(self.regs, now);
    }
}
