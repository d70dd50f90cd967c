//! Table 8 + Fig. 13: compile times with the split-graph sizes (|V|, |E|)
//! and the per-pass breakdown (the paper's yss/prs/opt/prl/cf/sch bars —
//! here netlist-opt/lower/lir-opt/partition/custom-functions/schedule/
//! regalloc-emit), plus the pass-manager thread-scaling sweep: every
//! workload is compiled at 1, 2, and 4 worker threads and the per-pass
//! wall times compared.
//!
//! Every thread count runs the same pass algorithms, so the speedup
//! columns measure thread scaling alone. The nine evaluation workloads
//! compile for the paper's 15×15 grid; the `soc` compile-stress torus
//! compiles for the 16×16 grid, whose one-thread heavy-pass time the
//! bench gate holds under an absolute ceiling (`scripts/bench_gate.py
//! --compile-fresh/--compile-baseline`). Per-pass IR sizes are
//! deterministic compiler outputs and are emitted per row for the gate's
//! exact comparison; wall times are measured (best of `--repeat` runs),
//! and the speedup geomeans are gated one-sided, so the gate never fails
//! a run for being too fast.
//!
//! Run: `cargo run --release -p manticore-bench --bin table8_compile_times
//!       [-- --json BENCH_compile.json] [--repeat N]`

use manticore::compiler::{compile, CompileOptions, CompileOutput, PartitionStrategy};
use manticore::isa::MachineConfig;
use manticore::netlist::Netlist;
use manticore::workloads;
use manticore_bench::{
    fmt,
    json::{self, Val},
    reject_unknown_args, row, take_flag,
};

/// Worker-thread sweep: 1 runs every parallel stage inline on the caller,
/// >1 fans them out over that many workers.
const THREADS: [usize; 3] = [1, 2, 4];

/// The passes the thread-scaling gate aggregates: the three the pipeline
/// parallelizes hardest and that dominate Fig. 13.
const HEAVY: [&str; 3] = ["partition", "schedule", "regalloc-emit"];

fn compile_with_threads(netlist: &Netlist, grid: usize, threads: usize) -> CompileOutput {
    let options = CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        partition: PartitionStrategy::Balanced,
        compile_threads: threads,
        ..Default::default()
    };
    compile(netlist, &options).expect("workload must compile")
}

struct Row {
    name: String,
    grid: usize,
    nets: usize,
    split_v: usize,
    split_e: usize,
    /// Pass name → deterministic IR size (identical across thread counts —
    /// asserted here, compared exactly by the gate).
    pass_sizes: Vec<(String, usize)>,
    /// Per thread count: per-pass best-of-`repeat` milliseconds, pipeline
    /// order.
    pass_ms: Vec<Vec<f64>>,
}

impl Row {
    fn total_ms(&self, ti: usize) -> f64 {
        self.pass_ms[ti].iter().sum()
    }

    fn heavy_ms(&self, ti: usize) -> f64 {
        self.pass_sizes
            .iter()
            .zip(&self.pass_ms[ti])
            .filter(|((n, _), _)| HEAVY.contains(&n.as_str()))
            .map(|(_, ms)| ms)
            .sum()
    }

    /// Geomean over the heavy passes of (one-thread ms / ms at `ti`).
    fn heavy_speedup(&self, ti: usize) -> f64 {
        let ratios: Vec<f64> = self
            .pass_sizes
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| HEAVY.contains(&n.as_str()))
            .map(|(pi, _)| self.pass_ms[0][pi] / self.pass_ms[ti][pi].max(1e-9))
            .collect();
        geomean(&ratios)
    }
}

fn geomean(vals: &[f64]) -> f64 {
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

fn measure(name: &str, netlist: &Netlist, grid: usize, repeat: usize) -> Row {
    let mut pass_sizes: Vec<(String, usize)> = Vec::new();
    let mut pass_ms: Vec<Vec<f64>> = Vec::new();
    let mut nets = 0;
    let mut split = (0, 0);
    for &threads in &THREADS {
        let mut best: Vec<f64> = Vec::new();
        for _ in 0..repeat {
            let out = compile_with_threads(netlist, grid, threads);
            let ms: Vec<f64> = out
                .report
                .passes
                .iter()
                .map(|p| p.duration.as_secs_f64() * 1e3)
                .collect();
            if best.is_empty() {
                best = ms;
            } else {
                for (b, m) in best.iter_mut().zip(ms) {
                    *b = b.min(m);
                }
            }
            let sizes: Vec<(String, usize)> = out
                .report
                .passes
                .iter()
                .map(|p| (p.name.to_string(), p.ir_size))
                .collect();
            if pass_sizes.is_empty() {
                pass_sizes = sizes;
                nets = netlist.nets().len();
                split = (out.report.split.vertices, out.report.split.edges);
            } else {
                assert_eq!(
                    pass_sizes, sizes,
                    "{name}: per-pass IR sizes must not depend on the thread count"
                );
            }
        }
        pass_ms.push(best);
    }
    Row {
        name: name.to_string(),
        grid,
        nets,
        split_v: split.0,
        split_e: split.1,
        pass_sizes,
        pass_ms,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_flag(&mut args, "--json");
    let repeat: usize = take_flag(&mut args, "--repeat")
        .map(|v| v.parse().expect("--repeat takes an integer"))
        .unwrap_or(2)
        .max(1);
    reject_unknown_args(&args);

    let mut rows: Vec<Row> = Vec::new();
    for w in workloads::all() {
        rows.push(measure(w.name, &w.netlist, 15, repeat));
    }
    // The compile-stress SoC at the 16×16 grid the acceptance gate targets.
    let soc = workloads::by_name("soc").expect("soc workload");
    rows.push(measure("soc", &soc.netlist, 16, repeat));

    println!("# Table 8 / Fig. 13: compilation statistics (9 workloads @15x15, soc @16x16)\n");
    row(&[
        "bench".into(),
        "|V| split".into(),
        "|E| merged".into(),
        "nets".into(),
        "total t1 (ms)".into(),
        "total t4 (ms)".into(),
        "heavy x (t4)".into(),
        "dominant pass".into(),
    ]);
    println!("|---|---|---|---|---|---|---|---|");
    for r in &rows {
        let (dom_i, dom_ms) = r.pass_ms[0]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, ms)| (i, *ms))
            .unwrap();
        row(&[
            r.name.clone(),
            r.split_v.to_string(),
            r.split_e.to_string(),
            r.nets.to_string(),
            fmt(r.total_ms(0)),
            fmt(r.total_ms(2)),
            format!("{:.2}", r.heavy_speedup(2)),
            format!("{} ({:.0}ms)", r.pass_sizes[dom_i].0, dom_ms),
        ]);
    }

    println!("\n## Fig. 13: per-pass fraction of one-thread compile time\n");
    print!("{:>8}", "bench");
    for (name, _) in &rows[0].pass_sizes {
        print!(" {name:>18}");
    }
    println!();
    for r in &rows {
        let total = r.total_ms(0);
        print!("{:>8}", r.name);
        for ms in &r.pass_ms[0] {
            print!(" {:>17.1}%", 100.0 * ms / total);
        }
        println!();
    }
    println!("\nexpected shape (paper Fig. 13): partitioning dominates compile time.");

    println!(
        "\n## Pass-manager thread scaling (heavy passes: {})\n",
        HEAVY.join(", ")
    );
    row(&[
        "bench".into(),
        "heavy t1 (ms)".into(),
        "heavy t2 (ms)".into(),
        "heavy t4 (ms)".into(),
        "speedup t2".into(),
        "speedup t4".into(),
    ]);
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        row(&[
            r.name.clone(),
            fmt(r.heavy_ms(0)),
            fmt(r.heavy_ms(1)),
            fmt(r.heavy_ms(2)),
            format!("{:.2}", r.heavy_speedup(1)),
            format!("{:.2}", r.heavy_speedup(2)),
        ]);
    }
    let g_t2 = geomean(&rows.iter().map(|r| r.heavy_speedup(1)).collect::<Vec<_>>());
    let g_t4 = geomean(&rows.iter().map(|r| r.heavy_speedup(2)).collect::<Vec<_>>());
    let soc_t4 = rows.last().unwrap().heavy_speedup(2);
    println!(
        "\ngeomean heavy-pass speedup: t2 {g_t2:.2}x, t4 {g_t4:.2}x; soc@16x16 t4 {soc_t4:.2}x"
    );

    if let Some(path) = json_path {
        let row_vals: Vec<Val> = rows
            .iter()
            .map(|r| {
                let passes: Vec<Val> = r
                    .pass_sizes
                    .iter()
                    .enumerate()
                    .map(|(pi, (name, size))| {
                        Val::obj(vec![
                            ("name", Val::Str(name.clone())),
                            ("ir_size", Val::Int(*size as u64)),
                            ("ms_t1", Val::Num(r.pass_ms[0][pi])),
                            ("ms_t2", Val::Num(r.pass_ms[1][pi])),
                            ("ms_t4", Val::Num(r.pass_ms[2][pi])),
                        ])
                    })
                    .collect();
                Val::obj(vec![
                    ("name", Val::Str(r.name.clone())),
                    ("grid", Val::Int(r.grid as u64)),
                    ("nets", Val::Int(r.nets as u64)),
                    ("split_v", Val::Int(r.split_v as u64)),
                    ("split_e", Val::Int(r.split_e as u64)),
                    ("passes", Val::Arr(passes)),
                    ("total_ms_t1", Val::Num(r.total_ms(0))),
                    ("total_ms_t4", Val::Num(r.total_ms(2))),
                    ("heavy_speedup_t2", Val::Num(r.heavy_speedup(1))),
                    ("heavy_speedup_t4", Val::Num(r.heavy_speedup(2))),
                ])
            })
            .collect();
        let v = Val::obj(vec![
            (
                "threads",
                Val::Arr(THREADS.iter().map(|&t| Val::Int(t as u64)).collect()),
            ),
            (
                "heavy_passes",
                Val::Arr(HEAVY.iter().map(|p| Val::Str(p.to_string())).collect()),
            ),
            ("repeat", Val::Int(repeat as u64)),
            ("rows", Val::Arr(row_vals)),
            (
                "geomean",
                Val::obj(vec![
                    ("heavy_speedup_t2", Val::Num(g_t2)),
                    ("heavy_speedup_t4", Val::Num(g_t4)),
                    ("soc_heavy_speedup_t4", Val::Num(soc_t4)),
                ]),
            ),
        ]);
        json::write(&path, &v);
        println!("\nwrote {path}");
    }
}
