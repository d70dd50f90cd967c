//! Micro-benchmarks over the core engines: per-cycle throughput of the
//! reference evaluator, the baseline tape, and the machine model, plus
//! end-to-end compile latency — the raw
//! throughputs behind Table 3.
//!
//! Self-timed (`harness = false`): the container has no registry access,
//! so this is a plain median-of-samples harness instead of criterion.
//!
//! Run: `cargo bench -p manticore-bench`

use std::time::Instant;

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::MachineConfig;
use manticore::machine::Machine;
use manticore::netlist::eval::Evaluator;
use manticore::refsim::{SerialSim, Tape};
use manticore::workloads;

/// The fast and slow extremes of the suite keep bench time in check.
const BENCH_WORKLOADS: [&str; 3] = ["jpeg", "blur", "cgra"];

/// Median nanoseconds per call over `samples` batches of `iters` calls.
fn time_ns(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    per_call[per_call.len() / 2]
}

fn report(group: &str, name: &str, ns: f64) {
    println!("{group:>18}/{name:<8} {:>12.0} ns/iter", ns);
}

fn bench_evaluator() {
    for name in BENCH_WORKLOADS {
        let w = workloads::by_name(name).unwrap();
        let mut sim = Evaluator::new(&w.netlist);
        let ns = time_ns(7, 50, || {
            sim.step();
        });
        report("evaluator_step", name, ns);
    }
}

fn bench_tape_serial() {
    for name in BENCH_WORKLOADS {
        let w = workloads::by_name(name).unwrap();
        let tape = Tape::compile(&w.netlist).unwrap();
        let mut sim = SerialSim::new(&tape);
        let ns = time_ns(7, 200, || {
            sim.step();
        });
        report("tape_serial_step", name, ns);
    }
}

fn bench_machine_vcycle() {
    // Long-horizon variants so $finish never fires mid-measurement.
    let far = 1u64 << 40;
    let variants: [(&str, manticore::netlist::Netlist); 3] = [
        ("jpeg", workloads::jpeg_sized(far)),
        ("blur", workloads::blur_sized(64, 4, far)),
        ("cgra", workloads::cgra_sized(8, 8, far)),
    ];
    for (name, netlist) in variants {
        let config = MachineConfig::with_grid(4, 4);
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let out = compile(&netlist, &options).unwrap();
        let mut machine = Machine::load(config, &out.binary).unwrap();
        let ns = time_ns(5, 64, || {
            machine.run_vcycles(1).unwrap();
        });
        report("machine_vcycle", name, ns);
    }
}

fn bench_compile() {
    for name in ["jpeg", "blur"] {
        let w = workloads::by_name(name).unwrap();
        let options = CompileOptions {
            config: MachineConfig::with_grid(15, 15),
            ..Default::default()
        };
        let ns = time_ns(5, 1, || {
            compile(&w.netlist, &options).unwrap();
        });
        report("compile", name, ns);
    }
}

fn main() {
    // `cargo bench` passes --bench (and possibly filters); ignore them.
    println!("# paper_benches (self-timed, median of samples)\n");
    bench_evaluator();
    bench_tape_serial();
    bench_machine_vcycle();
    bench_compile();
}
