//! Compile determinism: the pass-manager pipeline must be a pure function
//! of (netlist, options) — byte-identical binaries and identical
//! deterministic report metadata across repeated runs *and* across worker
//! thread counts. Every thread count runs the same pass algorithms (the
//! count only sets how many workers their parallel stages use), so this
//! suite is a parallel-determinism check: scheduling of the workers must
//! never reach the output. The comparison of each heavy pass with its
//! first-principles reference lives in the compiler's unit tests
//! (`manticore-compiler`'s `oracle` module).

use manticore::compiler::{compile, CompileOptions, PartitionStrategy};
use manticore::isa::MachineConfig;
use manticore::workloads;

fn options(grid: usize, threads: usize, strategy: PartitionStrategy) -> CompileOptions {
    CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        partition: strategy,
        compile_threads: threads,
        ..Default::default()
    }
}

/// All workloads this suite sweeps: the nine evaluation benchmarks plus a
/// small instance of the `soc` compile-stress torus.
fn suite() -> Vec<(String, manticore::netlist::Netlist)> {
    let mut v: Vec<(String, manticore::netlist::Netlist)> = workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.netlist))
        .collect();
    v.push(("soc-4x3".into(), workloads::soc_sized(4, 3, 2000)));
    v
}

#[test]
fn same_netlist_twice_is_byte_identical() {
    // Two compiles with identical options must produce identical bytes and
    // identical deterministic metadata — catches hidden iteration-order
    // nondeterminism (e.g. hash-map ordering leaking into emission).
    for (name, netlist) in suite() {
        for threads in [1, 4] {
            let opts = options(6, threads, PartitionStrategy::Balanced);
            let a = compile(&netlist, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            let b = compile(&netlist, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                a.binary.to_bytes(),
                b.binary.to_bytes(),
                "{name}: binary differs between two identical compiles (threads={threads})"
            );
            assert_eq!(
                a.report.deterministic_fingerprint(),
                b.report.deterministic_fingerprint(),
                "{name}: report metadata differs between two identical compiles (threads={threads})"
            );
        }
    }
}

#[test]
fn parallel_compile_is_bit_identical_to_serial() {
    // The headline guarantee: at any worker count the pipeline emits the
    // exact bytes of a one-thread compile, where every stage runs inline.
    for (name, netlist) in suite() {
        let serial = compile(&netlist, &options(6, 1, PartitionStrategy::Balanced))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let serial_bytes = serial.binary.to_bytes();
        let serial_fp = serial.report.deterministic_fingerprint();
        for threads in [2, 4] {
            let par = compile(&netlist, &options(6, threads, PartitionStrategy::Balanced))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                par.binary.to_bytes(),
                serial_bytes,
                "{name}: parallel compile ({threads} threads) diverged from serial"
            );
            assert_eq!(
                par.report.deterministic_fingerprint(),
                serial_fp,
                "{name}: parallel report metadata ({threads} threads) diverged from serial"
            );
            assert_eq!(par.report.compile_threads, threads);
        }
    }
}

#[test]
fn lpt_strategy_is_deterministic_across_threads_too() {
    // The LPT strategy under the same contract: the cone and
    // materialization stages around its merge fan out over the workers.
    let netlist = workloads::by_name("blur").unwrap().netlist;
    let serial = compile(&netlist, &options(6, 1, PartitionStrategy::Lpt)).unwrap();
    let par = compile(&netlist, &options(6, 4, PartitionStrategy::Lpt)).unwrap();
    assert_eq!(serial.binary.to_bytes(), par.binary.to_bytes());
    assert_eq!(
        serial.report.deterministic_fingerprint(),
        par.report.deterministic_fingerprint()
    );
}

#[test]
fn pass_reports_are_complete_at_every_thread_count() {
    // Whatever the thread count, the report must carry all seven passes in
    // pipeline order with non-zero IR sizes — the bench gate keys on these.
    let netlist = workloads::by_name("jpeg").unwrap().netlist;
    for threads in [1, 2, 4] {
        let out = compile(&netlist, &options(6, threads, PartitionStrategy::Balanced)).unwrap();
        let names: Vec<&str> = out.report.passes.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "netlist-opt",
                "lower",
                "lir-opt",
                "partition",
                "custom-functions",
                "schedule",
                "regalloc-emit"
            ]
        );
        assert!(out.report.passes.iter().all(|p| p.ir_size > 0));
        if threads > 1 {
            assert!(
                out.report.passes.iter().any(|p| p.threads == threads),
                "no pass recorded running with {threads} workers"
            );
        } else {
            assert!(out.report.passes.iter().all(|p| p.threads == 1));
        }
    }
}
