//! A Verilator-analog software RTL simulator: the baseline Manticore is
//! evaluated against (§7.3).
//!
//! Like Verilator, this is a *full-cycle* simulator: the netlist is
//! compiled once into a flat, topologically-ordered operation tape
//! ([`tape`]) that is re-evaluated every cycle regardless of activity.
//! Two executors share the tape:
//!
//! - [`serial`] — single-threaded, the analog of Verilator's default
//!   single-thread codegen;
//! - [`parallel`] — multi-threaded over *macro-tasks*: the net DAG is
//!   partitioned (without duplication), coarsened by merging communicating
//!   tasks (Sarkar-style, as Verilator does), statically assigned to a
//!   thread pool, and synchronized at runtime with atomic dependency
//!   counters (spin waits) plus two barrier rendezvous per simulated cycle
//!   — exactly the execution structure §7.3 describes, and the source of
//!   the fine-grain synchronization costs Fig. 6 measures.
//!
//! [`models`] implements the paper's §7.1 analytical models 1 and 2
//! (barrier-cost-only and barrier+cache-pressure) with real threads.

pub mod models;
pub mod parallel;
pub mod serial;
pub mod tape;

pub use parallel::{MacroTaskPlan, ParallelSim};
pub use serial::{SerialSim, TapeState};
pub use tape::{Tape, TapeError};

#[cfg(test)]
mod tests;
