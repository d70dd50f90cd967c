//! The inputs of the replay engine's cost model, over all nine workloads
//! compiled for the paper's 15×15 grid.
//!
//! The machine's solo replay (`machine/src/uops.rs`) walks one flat
//! micro-op array per Vcycle with one dispatch per op, so a replayed
//! Vcycle costs about a constant per op plus whatever each design still
//! pays per active core. This prints what that model needs:
//!
//! - the op mix: non-NOP instructions by kind;
//! - the ALU-function mix: `Alu` instructions by `AluOp`, each of which
//!   is its own micro-op opcode;
//! - per design: its active cores (a non-NOP instruction inside the
//!   Vcycle, or an epilogue) and its micro-ops per Vcycle.
//!
//! `cargo run --release --example pair_histogram`
use std::collections::HashMap;

use manticore::compiler::{compile, CompileOptions};
use manticore::isa::{Instruction, MachineConfig};
use manticore::machine::CompiledProgram;
use manticore::workloads;

fn kind(i: &Instruction) -> &'static str {
    match i {
        Instruction::Nop => "Nop",
        Instruction::Set { .. } => "Set",
        Instruction::Alu { .. } => "Alu",
        Instruction::AddCarry { .. } => "AddCarry",
        Instruction::SubBorrow { .. } => "SubBorrow",
        Instruction::Mux { .. } => "Mux",
        Instruction::Slice { .. } => "Slice",
        Instruction::Custom { .. } => "Custom",
        Instruction::Predicate { .. } => "Predicate",
        Instruction::LocalLoad { .. } => "LocalLoad",
        Instruction::LocalStore { .. } => "LocalStore",
        Instruction::GlobalLoad { .. } => "GlobalLoad",
        Instruction::GlobalStore { .. } => "GlobalStore",
        Instruction::Send { .. } => "Send",
        Instruction::Expect { .. } => "Expect",
    }
}

/// Prints `counts` in descending order with each entry's share of the
/// total.
fn print_mix(title: &str, counts: HashMap<String, u64>) {
    let total: u64 = counts.values().sum();
    println!("\n{title} ({total} total):");
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (k, n) in v {
        println!("{k:>11} {n:>8}  ({:.1}%)", n as f64 / total as f64 * 100.0);
    }
}

fn main() {
    let mut ops: HashMap<String, u64> = HashMap::new();
    let mut alu_fns: HashMap<String, u64> = HashMap::new();
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "design", "active cores", "ops per Vcycle", "ops per core"
    );
    for w in workloads::all() {
        let config = MachineConfig::default();
        let options = CompileOptions {
            config: config.clone(),
            ..Default::default()
        };
        let out = match compile(&w.netlist, &options) {
            Ok(o) => o,
            Err(e) => {
                println!("{}: compile failed: {e}", w.name);
                continue;
            }
        };
        let vcycle_len = out.binary.vcycle_len as usize;
        let mut active = 0usize;
        for core in &out.binary.cores {
            let issued: Vec<&Instruction> = core
                .body
                .iter()
                .take(vcycle_len)
                .filter(|i| !matches!(i, Instruction::Nop))
                .collect();
            active += (!issued.is_empty() || core.epilogue_len > 0) as usize;
            for instr in issued {
                *ops.entry(kind(instr).to_string()).or_default() += 1;
                if let Instruction::Alu { op, .. } = instr {
                    *alu_fns.entry(format!("{op:?}")).or_default() += 1;
                }
            }
        }
        let program = CompiledProgram::compile(config, &out.binary)
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", w.name));
        match program.micro_op_stats() {
            Some(n) => println!(
                "{:>6} {active:>12} {n:>14} {:>12.1}",
                w.name,
                n as f64 / active.max(1) as f64
            ),
            None => println!("{:>6} {active:>12} {:>14}", w.name, "not replayable"),
        }
    }
    print_mix("op mix", ops);
    print_mix("ALU-function mix", alu_fns);
}
