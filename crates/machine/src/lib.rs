//! Cycle-accurate software model of the Manticore processor grid.
//!
//! This crate is the substitute for the paper's FPGA prototype (§5): a grid
//! of simple 16-bit cores on a unidirectional 2D torus NoC, executing one
//! instruction per cycle in strict lockstep, with
//!
//! - a *write-buffer pipeline model*: a register written at cycle `t`
//!   commits at `t + hazard_latency`, modelling the 14-stage pipeline with
//!   no forwarding or interlocks — reading too early returns stale data
//!   (or, in strict mode, reports a compiler scheduling bug);
//! - *bufferless NoC switches* with dimension-ordered routing that drop
//!   messages on link collision — the model detects and reports any
//!   collision, since the compiler's static schedule must make them
//!   impossible;
//! - the *message-as-instruction* receive mechanism: an arriving message is
//!   written into the tail of the target's instruction memory as a `Set`
//!   and executed when the program counter reaches it (§5.2);
//! - the *global stall*: privileged cache/DRAM accesses and exceptions
//!   freeze the whole compute clock domain, so they appear to the compiler
//!   as fixed-latency operations (§5.3);
//! - hardware performance counters (total/stall cycles, cache hits/misses)
//!   used by the paper's Fig. 8 experiment.
//!
//! Determinism violations (data hazards the compiler failed to schedule
//! around, NoC collisions, late messages) surface as [`MachineError`]s —
//! exactly the failures that would silently corrupt results on the real
//! hardware.
//!
//! A loaded design is split across the compile-once / run-many boundary:
//! the immutable [`CompiledProgram`] (validated per-core programs,
//! exception table, initial state images, the micro-op program)
//! is shared behind an `Arc`, and a [`Machine`] is one *run* of it —
//! mutable state only, and only the state the program can touch, so it
//! is cheap to boot ([`Machine::from_program`]), which is what the
//! `manticore-fleet` crate batches across a worker pool.
//!
//! The grid runs on the calling thread; host parallelism lives one layer
//! up, in the fleet's worker pool and the gang engine's lanes. The engine
//! exploits the model's determinism with a *validate-once / replay-many*
//! fast path ([`Machine::set_replay`], on by default): the first Vcycle
//! of the first run validates the static schedule in full — once per
//! program, since the schedule is the program's — after which execution
//! switches to a *flat Vcycle program* over the machine's
//! structure-of-arrays state: one micro-op array for the whole grid,
//! walked in one loop. It skips NOPs, idle-tail positions, and all
//! per-position NoC bookkeeping, with operands pre-resolved to absolute
//! register-file indices, the ALU function folded into the opcode (one
//! dispatch per op), dead hazard checks removed, and the per-Vcycle
//! counter deltas frozen as program constants — same bits, fewer
//! interpreted steps. Replay commits every write directly, so it runs
//! strict Vcycles only; the program and its
//! pre-resolved epilogue writes are built from a frozen delivery schedule
//! that exists only at freeze time; see the crate-private `replay`/`uops`
//! modules and `ARCHITECTURE.md`. The position-by-position interpreter
//! (`set_replay(false)`) is the reference the micro-op engine is tested
//! against, and it runs every Vcycle the micro-ops cannot (validation,
//! permissive hazards, strictness re-armed after a permissive start, a
//! static cross-Vcycle hazard).
//!
//! Finally, runs are first-class *scenario-tree* nodes: a [`Checkpoint`]
//! is a serialize-free snapshot of one run at a Vcycle boundary, keyed to
//! its [`CompiledProgram`]; [`Machine::restore`] rewinds a machine to one,
//! and [`Checkpoint::fork`] explodes one into a K-lane [`GangMachine`] of
//! divergent children. [`CoverageMap`] scores the states such trees reach
//! (per-core toggle coverage plus assert/display tallies) for
//! coverage-guided exploration drivers.

mod cache;
mod checkpoint;
mod core;
mod coverage;
mod exec;
mod gang;
mod grid;
mod noc;
mod persist;
mod program;
mod replay;
mod uops;

pub use cache::{Cache, CacheStats};
pub use checkpoint::Checkpoint;
pub use coverage::CoverageMap;
pub use gang::{GangMachine, MAX_LANES};
pub use grid::{HostEvent, Interrupt, Machine, MachineError, PerfCounters, RunOutcome};
pub use persist::{load_checkpoint, save_checkpoint, PersistError};
pub use program::CompiledProgram;

#[cfg(test)]
mod tests;
