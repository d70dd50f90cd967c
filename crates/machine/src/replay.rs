//! The validate-once / replay-many tape: frozen per-core schedules and the
//! machine-wide delivery schedule — the intermediate form the micro-op
//! stream ([`crate::uops`]) is lowered from.
//!
//! Manticore's compute domain is statically scheduled and deterministic:
//! every Vcycle executes the same instruction at the same position on every
//! core, every `Send` takes the same route with the same latency, and every
//! message lands in the same epilogue slot. Only the *data* differs between
//! Vcycles. The first Vcycle therefore acts as a **validation** pass — it
//! proves the schedule's assumptions (no link collisions, no late or
//! missing messages, no epilogue overflow, and, in strict mode, no data
//! hazards) — and every later Vcycle can execute a frozen schedule that
//! drops all of the interpreter overhead those proofs made redundant:
//!
//! - **NOP and idle-tail positions** — the dense per-core tape holds only
//!   `(position, pre-decoded instruction)` entries, so a core whose body is
//!   ten instructions in a 400-cycle Vcycle costs ten steps, not 400;
//! - **per-position message scanning** — the interpreter scans the NoC's
//!   in-flight list at every position (`take_due`); replay uses the
//!   precomputed [`ReplayTape::deliveries`] schedule, which maps the
//!   *k*-th send of the Vcycle straight to its `(target, slot, rd)`;
//! - **link bookkeeping** — routes and reservations never change, so the
//!   NoC is bypassed entirely.
//!
//! The tape is a pure function of the loaded program and the machine
//! configuration, so it is built once when the program is frozen into a
//! [`crate::CompiledProgram`] and shared by every run. Nothing executes
//! the tape itself: the micro-op engine runs the stream lowered from its
//! body, and reuses its delivery schedule, epilogue extents and
//! [`ReplayTape::fault_counters`] directly. Replay is *used* only after a
//! validation Vcycle of the program completed successfully — in the same
//! run, or in any earlier run, since what it proves depends on the
//! program alone ([`crate::CompiledProgram::schedule_proven`]). A program
//! whose validation Vcycle fails never reaches the replay path. The
//! delivery schedule reproduces the interpreter's exact delivery order —
//! sorted by `(delivery position, arrival time, injection order)`, the
//! order `Noc::take_due` yields.

use manticore_isa::{Instruction, MachineConfig, Reg};

use crate::grid::PerfCounters;
use crate::program::CoreProgram;

/// One pre-decoded body entry: the instruction at a (non-NOP) position.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeOp {
    /// Position within the Vcycle.
    pub pos: u32,
    /// The decoded instruction the micro-op lowering consumes.
    pub instr: Instruction,
}

/// One entry of the frozen delivery schedule, in the interpreter's
/// delivery order. The value is not stored — it is produced fresh each
/// Vcycle by the `send_idx`-th send of the replayed body phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayDelivery {
    /// Index of the producing send in core-major collection order (the
    /// order a replayed body phase records send values).
    pub send_idx: u32,
    /// Target core, linear row-major index.
    pub target: u32,
    /// Epilogue slot the message fills.
    pub slot: u32,
    /// Destination register of the epilogue `SET`.
    pub rd: Reg,
    /// Vcycle position whose `take_due` scan delivers the message.
    pub deliver_at: u32,
}

/// The frozen per-machine replay schedule. See the module docs.
#[derive(Debug)]
pub(crate) struct ReplayTape {
    /// Per core (linear index): dense non-NOP body entries in position
    /// order, truncated to the Vcycle length.
    pub body: Vec<Vec<TapeOp>>,
    /// Per core: how many epilogue slots actually issue (slots whose
    /// position `body_len + slot` falls inside the Vcycle).
    pub epi_exec: Vec<usize>,
    /// All deliveries of one Vcycle, in serial delivery order.
    pub deliveries: Vec<ReplayDelivery>,
    /// Sends recorded per Vcycle (sanity check for the replayed body).
    pub sends_per_vcycle: usize,
}

/// A `Send` site discovered while scanning the bodies.
struct SendSite {
    /// Issue position within the Vcycle.
    pos: u64,
    /// Sender, linear index (core-major collection order is `(from, pos)`).
    from: usize,
    /// Target, linear index.
    target: usize,
    /// Position at which the interpreter delivers the message: the first
    /// `take_due` scan after both injection and arrival.
    deliver_at: u64,
    /// Arrival time offset (the `take_due` sort key).
    arrive: u64,
    rd: Reg,
}

impl ReplayTape {
    /// Approximate heap footprint of the frozen tape, in bytes. An
    /// accounting figure for cache budgeting, not an allocator-exact
    /// measurement.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        for body in &self.body {
            bytes += body.len() * size_of::<TapeOp>();
        }
        bytes += self.epi_exec.len() * size_of::<usize>();
        bytes += self.deliveries.len() * size_of::<ReplayDelivery>();
        bytes
    }

    /// The counts the position-major interpreter has added to a Vcycle by
    /// the time the privileged core faults at body position `pos`, beyond
    /// the privileged core's own instructions: every other core's body
    /// instructions and sends before `pos`, the epilogue slots that issued
    /// before `pos`, the messages delivered at or before `pos`, and `pos`
    /// compute cycles.
    ///
    /// The micro-op engines walk core-major and the privileged core
    /// (linear index 0, the only core that can fault) first, so a faulting
    /// walk has counted only the privileged core's prefix; adding this
    /// makes their error-path [`PerfCounters`] the interpreter's.
    pub(crate) fn fault_counters(&self, cores: &[CoreProgram], pos: u64) -> PerfCounters {
        let mut c = PerfCounters {
            compute_cycles: pos,
            ..PerfCounters::default()
        };
        for ops in &self.body[1..] {
            for op in ops.iter().take_while(|op| (op.pos as u64) < pos) {
                c.instructions += 1;
                c.sends += matches!(op.instr, Instruction::Send { .. }) as u64;
            }
        }
        for (core, &epi) in cores.iter().zip(&self.epi_exec) {
            let issued = pos.saturating_sub(core.body.len() as u64) as usize;
            c.instructions += epi.min(issued) as u64;
        }
        c.messages_delivered = self
            .deliveries
            .iter()
            .filter(|d| d.deliver_at as u64 <= pos)
            .count() as u64;
        c
    }

    /// Freezes the replay schedule for a loaded program, or `None` when the
    /// program cannot be replayed:
    ///
    /// - a message's delivery falls past the Vcycle end (the wrap check
    ///   makes such programs fail their validation Vcycle, since the
    ///   boundary-crossing message cannot have arrived in Vcycle 0), or
    /// - the per-target delivery count does not equal the declared epilogue
    ///   length (validation fails with overflow/missing messages).
    ///
    /// Returning `None` simply keeps the machine on the interpreter, which
    /// then reports the failure exactly as before.
    pub fn build(
        cores: &[CoreProgram],
        config: &MachineConfig,
        vcycle_len: u64,
    ) -> Option<ReplayTape> {
        let w = config.grid_width;
        let h = config.grid_height;
        let inj = config.injection_latency as u64;
        let hop = config.hop_latency as u64;

        let mut body: Vec<Vec<TapeOp>> = Vec::with_capacity(cores.len());
        let mut sites: Vec<SendSite> = Vec::new();
        for (idx, core) in cores.iter().enumerate() {
            let mut ops = Vec::new();
            for (pos, &instr) in core.body.iter().enumerate() {
                if pos as u64 >= vcycle_len {
                    break; // positions past the Vcycle never issue
                }
                if matches!(instr, Instruction::Nop) {
                    continue;
                }
                if let Instruction::Send {
                    target, rd_remote, ..
                } = instr
                {
                    // Dimension-ordered unidirectional torus distance,
                    // matching `Noc::path`.
                    let dx = (target.x as usize + w - idx % w) % w;
                    let dy = (target.y as usize + h - idx / w) % h;
                    let hops = (dx + dy) as u64;
                    let pos = pos as u64;
                    let arrive = pos + inj + hops * hop;
                    // `take_due` runs before issue, so a message can be
                    // picked up at the earliest one position after its
                    // injection (relevant only for zero-latency configs).
                    let deliver_at = arrive.max(pos + 1);
                    if deliver_at >= vcycle_len {
                        return None;
                    }
                    sites.push(SendSite {
                        pos,
                        from: idx,
                        target: target.linear(w),
                        deliver_at,
                        arrive,
                        rd: rd_remote,
                    });
                }
                ops.push(TapeOp {
                    pos: pos as u32,
                    instr,
                });
            }
            body.push(ops);
        }

        // Serial injection order is `(position, sender index)`; rank each
        // site so ties on arrival time break the way `take_due`'s stable
        // sort does.
        let mut by_injection: Vec<usize> = (0..sites.len()).collect();
        by_injection.sort_by_key(|&i| (sites[i].pos, sites[i].from));
        let mut injection_rank = vec![0usize; sites.len()];
        for (rank, &i) in by_injection.iter().enumerate() {
            injection_rank[i] = rank;
        }

        // Serial delivery order, and with it the epilogue slot assignment.
        let mut by_delivery: Vec<usize> = (0..sites.len()).collect();
        by_delivery.sort_by_key(|&i| (sites[i].deliver_at, sites[i].arrive, injection_rank[i]));
        let mut next_slot = vec![0usize; cores.len()];
        let mut deliveries = Vec::with_capacity(sites.len());
        for &i in &by_delivery {
            let s = &sites[i];
            let slot = next_slot[s.target];
            if slot >= cores[s.target].epilogue_len {
                return None; // validation reports EpilogueOverflow
            }
            next_slot[s.target] += 1;
            deliveries.push(ReplayDelivery {
                send_idx: i as u32,
                target: s.target as u32,
                slot: slot as u32,
                rd: s.rd,
                deliver_at: s.deliver_at as u32,
            });
        }
        if cores
            .iter()
            .zip(&next_slot)
            .any(|(c, &n)| n != c.epilogue_len)
        {
            return None; // validation reports MissingMessages
        }

        let epi_exec = cores
            .iter()
            .map(|c| (vcycle_len.saturating_sub(c.body.len() as u64) as usize).min(c.epilogue_len))
            .collect();

        Some(ReplayTape {
            body,
            epi_exec,
            deliveries,
            sends_per_vcycle: sites.len(),
        })
    }
}
