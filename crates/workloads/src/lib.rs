//! The nine RTL benchmark workloads of the Manticore evaluation (§7.5),
//! as netlist generators.
//!
//! Each is a structurally-faithful, scaled analog of the paper's benchmark,
//! wrapped in a "simple, assertion-based test driver": closed (no primary
//! inputs — stimulus comes from LFSRs and ROMs), self-checking
//! (`expect_true` invariants), terminating (`$finish` after a programmable
//! number of iterations), and sized so the state fits Manticore's
//! scratchpads, as the paper requires. The workloads are scaled analogs
//! (the README's "Substitutions relative to the paper"); each module says
//! what it substitutes (e.g. fixed-point in place of floating-point for
//! `cgra`).
//!
//! The workloads span the evaluation's parallelism spectrum:
//!
//! | name  | analog of | profile |
//! |-------|-----------|---------|
//! | `vta` | ML accelerator | largest step, buffers + GEMM FSMs |
//! | `mc`  | Monte-Carlo pricer | embarrassingly parallel lanes |
//! | `noc` | 4×4 torus w/ VCs | control-heavy muxing |
//! | `mm`  | 16×16 matmul | memory + MAC FSM |
//! | `rv32r` | 16 CPUs on a ring | replicated cores, ring traffic |
//! | `cgra` | 64-PE reconfigurable array | medium, spatially regular |
//! | `bc`  | bitcoin (SHA-256) miner | deep wide logic, no memory |
//! | `blur`| 3×3 stencil | streaming line buffers |
//! | `jpeg`| Huffman-decode pipeline | serial dependence (Amdahl case) |

mod bc;
mod blur;
mod cgra;
mod jpeg;
mod mc;
mod mm;
mod noc;
mod rv32r;
mod soc;
mod util;
mod vta;

use manticore_netlist::Netlist;

pub use bc::{bc, bc_sized};
pub use blur::{blur, blur_sized};
pub use cgra::{cgra, cgra_sized};
pub use jpeg::{jpeg, jpeg_sized};
pub use mc::{mc, mc_sized};
pub use mm::{mm, mm_sized};
pub use noc::{noc, noc_sized};
pub use rv32r::{rv32r, rv32r_sized};
pub use soc::{soc, soc_sized};
pub use vta::{vta, vta_sized};

/// A benchmark workload: a closed, self-checking netlist.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (the paper's benchmark id).
    pub name: &'static str,
    /// The design plus test driver.
    pub netlist: Netlist,
    /// Cycles a quick verification run should simulate.
    pub test_cycles: u64,
    /// Cycles a benchmark run should simulate (scaled-down analog of the
    /// paper's millions).
    pub bench_cycles: u64,
}

/// All nine workloads at their default sizes, ordered by descending step
/// size (the Table 3 ordering).
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "vta",
            netlist: vta(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "mc",
            netlist: mc(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "noc",
            netlist: noc(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "mm",
            netlist: mm(),
            test_cycles: 600,
            bench_cycles: 4_200,
        },
        Workload {
            name: "rv32r",
            netlist: rv32r(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "cgra",
            netlist: cgra(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "bc",
            netlist: bc(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "blur",
            netlist: blur(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
        Workload {
            name: "jpeg",
            netlist: jpeg(),
            test_cycles: 300,
            bench_cycles: 2_000,
        },
    ]
}

/// Looks up a workload by name. Also resolves `soc`, the 16×16-grid
/// compile-stress workload, which is not part of the nine-benchmark
/// evaluation suite in [`all`].
pub fn by_name(name: &str) -> Option<Workload> {
    if name == "soc" {
        return Some(Workload {
            name: "soc",
            netlist: soc(),
            test_cycles: 300,
            bench_cycles: 2_000,
        });
    }
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests;
