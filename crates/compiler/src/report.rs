//! Compilation reports: pass timings, VCPL, per-core breakdowns — the raw
//! material for the paper's Fig. 7, Fig. 9, Fig. 10, Fig. 13, and Table 8.

use std::time::Duration;

use manticore_isa::{CoreId, Reg};
use manticore_netlist::{MemoryId, RegId};

/// Where an RTL register's words live on the machine.
#[derive(Debug, Clone)]
pub struct RegLocation {
    /// The RTL register.
    pub rtl_reg: RegId,
    /// Its bit width.
    pub width: usize,
    /// Home `(core, machine register)` of each 16-bit word, LSW first.
    pub words: Vec<(CoreId, Reg)>,
}

/// Where an RTL memory lives on the machine.
#[derive(Debug, Clone)]
pub enum MemLocation {
    /// In a core's scratchpad.
    Local {
        /// The RTL memory.
        rtl_mem: MemoryId,
        /// Owning core.
        core: CoreId,
        /// Base word address in the scratchpad.
        base: u16,
        /// Machine words per RTL entry.
        words_per_entry: usize,
    },
    /// In DRAM behind the privileged cache.
    Global {
        /// The RTL memory.
        rtl_mem: MemoryId,
        /// Base word address in DRAM.
        base: u64,
        /// Machine words per RTL entry.
        words_per_entry: usize,
    },
}

/// Compiler → runtime/test metadata: where RTL state ended up.
#[derive(Debug, Clone, Default)]
pub struct Metadata {
    /// Per RTL register (indexed by `RegId`).
    pub reg_locations: Vec<RegLocation>,
    /// Per RTL memory (indexed by `MemoryId`).
    pub mem_locations: Vec<MemLocation>,
    /// Core each process was placed on.
    pub core_of_process: Vec<CoreId>,
}

/// Instruction mix of one core over a Vcycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreBreakdown {
    /// Compute instructions (ALU, memory, mux, custom, predicates…).
    pub compute: u64,
    /// `Send` instructions.
    pub sends: u64,
    /// Custom-function instructions (subset of `compute`).
    pub custom: u64,
    /// Message SET slots (epilogue).
    pub epilogue: u64,
    /// NOP slots up to the Vcycle length.
    pub nops: u64,
}

impl CoreBreakdown {
    /// Busy (non-NOP) slots.
    pub fn busy(&self) -> u64 {
        self.compute + self.sends + self.epilogue
    }
}

/// Statistics of the maximal split (before merging) — the `|V|`/`|E|`
/// numbers of the paper's Table 8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Number of maximal split processes (graph vertices).
    pub vertices: usize,
    /// Number of communicating pairs (graph edges).
    pub edges: usize,
}

/// Per-pass instrumentation recorded by the pass manager: wall time and
/// the IR size the pass left behind (a deterministic compiler output —
/// unlike the timing, it must reproduce exactly across runs and thread
/// counts, and the bench gate compares it exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name, in pipeline order (Fig. 13's bar labels).
    pub name: &'static str,
    /// Wall-clock time of this pass alone.
    pub duration: Duration,
    /// Size of the IR after the pass ran (nets for the netlist pass,
    /// instructions for the rest).
    pub ir_size: usize,
    /// Worker threads the pass ran with (1 for inherently serial passes
    /// and for a one-thread compile).
    pub threads: usize,
}

/// The full compilation report.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Per-pass instrumentation, in pipeline order (Fig. 13), recorded by
    /// the pass manager around each pass.
    pub passes: Vec<PassStat>,
    /// Worker threads the pipeline ran with (1 = every stage inline on
    /// the caller).
    pub compile_threads: usize,
    /// Virtual critical-path length: machine cycles per RTL cycle. The
    /// simulation rate is `clock / vcpl` (Fig. 7, Table 3).
    pub vcpl: u64,
    /// Cores with a non-empty program.
    pub cores_used: usize,
    /// Processes after merging.
    pub processes: usize,
    /// Split statistics (Table 8's |V| and |E|).
    pub split: SplitStats,
    /// Per-core instruction mix, indexed like
    /// [`Metadata::core_of_process`]'s targets.
    pub per_core: Vec<CoreBreakdown>,
    /// Total `Send` instructions (Table 4).
    pub total_sends: u64,
    /// Total non-NOP instructions over all cores.
    pub total_instructions: u64,
    /// Total custom-function instructions (Fig. 10).
    pub total_custom: u64,
}

impl CompileReport {
    /// The straggler: the core with the most busy slots (its index and
    /// breakdown). Fig. 9 plots this core's compute/send/NOP mix.
    pub fn straggler(&self) -> Option<(usize, CoreBreakdown)> {
        self.per_core
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.busy())
            .map(|(i, b)| (i, *b))
    }

    /// Total compile time across passes.
    pub fn total_time(&self) -> Duration {
        self.passes.iter().map(|p| p.duration).sum()
    }

    /// The pass that took the longest, if any ran.
    pub fn dominant_pass(&self) -> Option<&PassStat> {
        self.passes.iter().max_by_key(|p| p.duration)
    }

    /// The deterministic portion of the report — everything except wall
    /// times and the thread count: per-pass IR sizes, VCPL, placement and
    /// instruction-mix statistics. Two compiles of the same netlist with
    /// the same options must agree on this **exactly**, at any thread
    /// count; the compile-determinism suite enforces it.
    pub fn deterministic_fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for p in &self.passes {
            let _ = write!(s, "{}={};", p.name, p.ir_size);
        }
        let _ = write!(
            s,
            "vcpl={};cores={};procs={};split={}/{};sends={};instrs={};custom={};",
            self.vcpl,
            self.cores_used,
            self.processes,
            self.split.vertices,
            self.split.edges,
            self.total_sends,
            self.total_instructions,
            self.total_custom
        );
        for b in &self.per_core {
            let _ = write!(
                s,
                "[{},{},{},{},{}]",
                b.compute, b.sends, b.custom, b.epilogue, b.nops
            );
        }
        s
    }
}
