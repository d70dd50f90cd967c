//! Fig. 7: Manticore's multicore scaling — compiler-predicted speedup
//! (single-core VCPL divided by n-core VCPL) as the grid grows from 1 to
//! 18×18 = 324 cores, for all nine workloads.
//!
//! As in the paper, the numbers are predicted by the compiler's virtual
//! critical-path length, which counts machine cycles exactly when there
//! are no off-chip accesses; single-core VCPL serves as the baseline even
//! where a real single-core run would overflow the instruction memory (we
//! lift the imem bound for the baseline estimate, as the paper notes
//! single-core execution is usually impossible on the prototype).
//!
//! Run: `cargo run --release -p manticore-bench --bin fig07_manticore_scaling`

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::MachineConfig;
use manticore::workloads;
use manticore_bench::{fmt, reject_unknown_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args(&args);

    let grids: [usize; 8] = [1, 3, 5, 7, 9, 11, 13, 18];
    println!("# Fig. 7: Manticore multicore scaling (speedup vs 1 core, VCPL-predicted)\n");
    print!("{:>8}", "bench");
    for g in grids {
        print!(" {:>7}", g * g);
    }
    println!("   (cores)");

    for w in workloads::all() {
        print!("{:>8}", w.name);
        let mut base: Option<f64> = None;
        for g in grids {
            let mut config = MachineConfig::with_grid(g, g);
            // The 1x1 baseline usually exceeds the real 4096-entry imem;
            // lift it for the estimate (predicted VCPL, as in the paper).
            config.imem_capacity = usize::MAX / 2;
            let options = CompileOptions {
                config,
                ..Default::default()
            };
            match compile(&w.netlist, &options) {
                Ok(out) => {
                    let vcpl = out.report.vcpl as f64;
                    let b = *base.get_or_insert(vcpl);
                    print!(" {:>7}", fmt(b / vcpl));
                }
                Err(_) => print!(" {:>7}", "-"),
            }
        }
        println!();
    }
    println!("\nexpected shape (paper Fig. 7): parallel workloads (mc, cgra, vta) keep");
    println!("improving toward 200-300 cores; jpeg plateaus almost immediately (Amdahl).");
}
