//! The frozen delivery schedule: where and when every message of a
//! replayed Vcycle lands — built once, at freeze time, for the micro-op
//! program ([`crate::uops::MicroProgram::compile`]).
//!
//! Manticore's compute domain is statically scheduled and deterministic:
//! every Vcycle executes the same instruction at the same position on every
//! core, every `Send` takes the same route with the same latency, and every
//! message lands in the same epilogue slot. Only the *data* differs between
//! Vcycles. The first Vcycle therefore acts as a **validation** pass — it
//! proves the schedule's assumptions (no link collisions, no late or
//! missing messages, no epilogue overflow, and no data hazards) — and every
//! later Vcycle can execute a frozen schedule that drops all of the
//! interpreter overhead those proofs made redundant:
//!
//! - **per-position message scanning** — the interpreter scans the NoC's
//!   in-flight list at every position (`take_due`); replay uses the
//!   precomputed [`Delivery`] list, which maps the *k*-th send of the
//!   Vcycle straight to its `(target, slot, rd)`;
//! - **link bookkeeping** — routes and reservations never change, so the
//!   NoC is bypassed entirely.
//!
//! The schedule is a pure function of the loaded program and the machine
//! configuration. It exists only while the micro-op program is built: the
//! artifact keeps the pre-resolved epilogue writes, the per-core epilogue
//! extents and the sorted delivery positions its error path reads. Replay
//! is *used* only after a strict validation Vcycle of the program
//! completed successfully — in the same run, or in any earlier run, since
//! what it proves depends on the program alone
//! ([`crate::CompiledProgram::schedule_proven`]). A program whose
//! validation Vcycle fails never reaches the replay path. The delivery
//! order reproduces the interpreter's exactly — sorted by `(delivery
//! position, arrival time, injection order)`, the order `Noc::take_due`
//! yields.

use manticore_isa::{Instruction, MachineConfig, Reg};

use crate::program::CoreProgram;

/// One message of a replayed Vcycle, in the interpreter's delivery order.
/// The value is not stored — it is produced fresh each Vcycle by the
/// `send_idx`-th send of the replayed body phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
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

/// Every message of one Vcycle in serial delivery order — one per `Send`
/// that issues — or `None` when the program cannot be replayed:
///
/// - a message's delivery falls past the Vcycle end (the wrap check makes
///   such programs fail their validation Vcycle, since the
///   boundary-crossing message cannot have arrived in Vcycle 0), or
/// - the per-target delivery count does not equal the declared epilogue
///   length (validation fails with overflow/missing messages).
///
/// Returning `None` simply keeps the machine on the interpreter, which
/// then reports the failure exactly as before.
pub(crate) fn deliveries(
    cores: &[CoreProgram],
    config: &MachineConfig,
    vcycle_len: u64,
) -> Option<Vec<Delivery>> {
    let w = config.grid_width;
    let h = config.grid_height;
    let inj = config.injection_latency as u64;
    let hop = config.hop_latency as u64;

    let mut sites: Vec<SendSite> = Vec::new();
    for (idx, core) in cores.iter().enumerate() {
        for (pos, instr) in core.issued(vcycle_len) {
            let Instruction::Send {
                target, rd_remote, ..
            } = instr
            else {
                continue;
            };
            // Dimension-ordered unidirectional torus distance, matching
            // `Noc::path`.
            let dx = (target.x as usize + w - idx % w) % w;
            let dy = (target.y as usize + h - idx / w) % h;
            let hops = (dx + dy) as u64;
            let arrive = pos + inj + hops * hop;
            // `take_due` runs before issue, so a message can be picked up
            // at the earliest one position after its injection (relevant
            // only for zero-latency configs).
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
    }

    // Serial injection order is `(position, sender index)`; rank each site
    // so ties on arrival time break the way `take_due`'s stable sort does.
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
        deliveries.push(Delivery {
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
    Some(deliveries)
}
