//! First-class checkpoints: serialize-free, in-memory snapshots of a run.
//!
//! A [`Checkpoint`] captures everything mutable about a [`Machine`] at a
//! Vcycle boundary — the SoA register file and scratchpad lanes, the per-core
//! pipeline rings and epilogue slots, the NoC, the cache (including its
//! DRAM image), the performance counters, and the pending host-event
//! queue — plus the run's engine knobs, and is keyed by the identity of
//! the owning [`CompiledProgram`] so it can only ever be applied to a
//! machine running the same compilation ([`Machine::restore`] returns
//! [`MachineError::CheckpointMismatch`] otherwise, without touching the
//! target).
//!
//! Checkpoints are the nodes of a *scenario tree*: [`Checkpoint::fork`]
//! explodes one snapshot into a K-lane [`GangMachine`] of initially
//! identical children, each of which is then diverged with its own
//! [`GangMachine::poke_reg`] stimulus before resuming — the
//! lane-batched form of "what happens from here under K different
//! inputs?". The differential harness in `tests/checkpoint_equivalence.rs`
//! pins every state-movement path here (snapshot, restore, fork, lane
//! round-trip) bit-identical to an uninterrupted run across every engine
//! knob.
//!
//! The per-Vcycle scratch buffers a machine carries (`send_buf`,
//! `send_vals_buf`, `due_buf`) are deliberately *not* captured: they are
//! empty at every Vcycle boundary, which is the only place a snapshot can
//! be taken or applied.

use std::sync::Arc;

use crate::cache::Cache;
use crate::core::CoreState;
use crate::gang::GangMachine;
use crate::grid::{HostEvent, Machine, MachineError, PerfCounters};
use crate::noc::Noc;
use crate::program::CompiledProgram;

/// A snapshot of one run at a Vcycle boundary. Cheap to clone (the
/// compiled program is shared behind its `Arc`; only mutable run state is
/// owned), cheap to take (no serialization — the state vectors are
/// memcpy'd), and inert: a checkpoint never changes once taken.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub(crate) program: Arc<CompiledProgram>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) regs: Vec<u32>,
    pub(crate) scratch: Vec<u16>,
    pub(crate) noc: Noc,
    pub(crate) cache: Cache,
    pub(crate) compute_time: u64,
    pub(crate) counters: PerfCounters,
    pub(crate) strict_hazards: bool,
    pub(crate) finish_requested: bool,
    pub(crate) events: Vec<HostEvent>,
    pub(crate) replay_enabled: bool,
    pub(crate) tape_invalidated: bool,
    /// `Some` when the snapshot was taken from a parked (faulted) gang
    /// lane or a parked machine: forking it reproduces lanes parked with
    /// this exact error, and [`Checkpoint::boot`] yields the machine
    /// frozen at the abort point (see [`GangMachine::checkpoint_lane`],
    /// [`Machine::fault`]).
    pub(crate) fault: Option<MachineError>,
}

impl Checkpoint {
    /// The program this snapshot was taken under.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// Identity of the program this snapshot is keyed to
    /// ([`CompiledProgram::identity`]).
    pub fn identity(&self) -> u64 {
        self.program.identity()
    }

    /// Vcycles the run had completed when the snapshot was taken.
    pub fn vcycles(&self) -> u64 {
        self.counters.vcycles
    }

    /// The error a parked gang lane was carrying when it was snapshotted,
    /// if any. Forking a faulted checkpoint produces lanes that are
    /// already parked with this exact error.
    pub fn fault(&self) -> Option<&MachineError> {
        self.fault.as_ref()
    }

    /// Boots a standalone [`Machine`] from this snapshot: fresh scratch
    /// buffers, everything else an exact copy of the captured state
    /// (including engine knobs), sharing the compiled program. If the
    /// snapshot came from a faulted lane or a parked machine, the boot is
    /// the state frozen at the abort point, still parked with the
    /// recorded fault ([`Machine::fault`]).
    pub fn boot(&self) -> Machine {
        Machine {
            program: Arc::clone(&self.program),
            cores: self.cores.clone(),
            regs: self.regs.clone(),
            scratch: self.scratch.clone(),
            noc: self.noc.clone(),
            cache: self.cache.clone(),
            compute_time: self.compute_time,
            counters: self.counters,
            strict_hazards: self.strict_hazards,
            finish_requested: self.finish_requested,
            events: self.events.clone(),
            replay_enabled: self.replay_enabled,
            tape_invalidated: self.tape_invalidated,
            send_buf: Vec::new(),
            send_vals_buf: Vec::new(),
            due_buf: Vec::new(),
            // The snapshot may carry writes in flight.
            rings_live: true,
            fault: self.fault.clone(),
            // Host-side run control is not part of a snapshot.
            control: None,
        }
    }

    /// Explodes this snapshot into a `lanes`-wide [`GangMachine`] of
    /// initially identical children. Diverge them with per-lane
    /// [`GangMachine::poke_reg`] stimulus before resuming; a strict gang
    /// enters the lockstep kernel directly (the checkpoint's completed
    /// validation carries over with its Vcycle count).
    ///
    /// # Errors
    ///
    /// [`MachineError::ForkWidth`] when `lanes` is zero or exceeds
    /// [`crate::MAX_LANES`].
    pub fn fork(&self, lanes: usize) -> Result<GangMachine, MachineError> {
        GangMachine::from_checkpoint(self, lanes)
    }
}

impl Machine {
    /// Takes a [`Checkpoint`] of this run. Must be called at a Vcycle
    /// boundary (anywhere the host can observe the machine — i.e. between
    /// [`Machine::run_vcycles`] calls — is one).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            program: Arc::clone(&self.program),
            cores: self.cores.clone(),
            regs: self.regs.clone(),
            scratch: self.scratch.clone(),
            noc: self.noc.clone(),
            cache: self.cache.clone(),
            compute_time: self.compute_time,
            counters: self.counters,
            strict_hazards: self.strict_hazards,
            finish_requested: self.finish_requested,
            events: self.events.clone(),
            replay_enabled: self.replay_enabled,
            tape_invalidated: self.tape_invalidated,
            fault: self.fault.clone(),
        }
    }

    /// Restores this machine to a previously captured snapshot, engine
    /// knobs included. The machine must be running the same
    /// [`CompiledProgram`] the snapshot was taken under.
    ///
    /// # Errors
    ///
    /// [`MachineError::CheckpointMismatch`] when the program identities
    /// differ; the machine's state is left completely untouched in that
    /// case.
    pub fn restore(&mut self, cp: &Checkpoint) -> Result<(), MachineError> {
        if self.program.identity() != cp.identity() {
            return Err(MachineError::CheckpointMismatch {
                expected: cp.identity(),
                got: self.program.identity(),
            });
        }
        self.cores.clone_from(&cp.cores);
        self.regs.clone_from(&cp.regs);
        self.scratch.clone_from(&cp.scratch);
        self.noc = cp.noc.clone();
        self.cache = cp.cache.clone();
        self.compute_time = cp.compute_time;
        self.counters = cp.counters;
        self.strict_hazards = cp.strict_hazards;
        self.finish_requested = cp.finish_requested;
        self.events.clone_from(&cp.events);
        self.replay_enabled = cp.replay_enabled;
        self.tape_invalidated = cp.tape_invalidated;
        self.send_buf.clear();
        self.send_vals_buf.clear();
        self.due_buf.clear();
        self.rings_live = true;
        // The fault is part of the restored state (rewinding to a clean
        // snapshot un-parks a faulted machine); run control is not.
        self.fault = cp.fault.clone();
        Ok(())
    }

    /// [`Machine::checkpoint`] + [`Checkpoint::fork`] in one step: explodes
    /// the current state into a `lanes`-wide [`GangMachine`] of divergent
    /// children without disturbing this machine.
    ///
    /// # Errors
    ///
    /// [`MachineError::ForkWidth`] when `lanes` is zero or exceeds
    /// [`crate::MAX_LANES`].
    pub fn fork(&self, lanes: usize) -> Result<GangMachine, MachineError> {
        self.checkpoint().fork(lanes)
    }
}
