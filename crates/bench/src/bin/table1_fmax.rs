//! Table 1 + Table 7: the physical-design results — clock frequency vs.
//! grid size under automatic and guided floorplanning, and per-core FPGA
//! resources.
//!
//! These are hardware measurements in the paper; here they come from the
//! analytical model in `manticore_bench::fmax_mhz` (a substitution, per
//! the README's "Substitutions relative to the paper": the mechanism —
//! SLR crossings degrade automatic P&R, guiding recovers it — is
//! modelled, not re-measured).
//!
//! Run: `cargo run --release -p manticore-bench --bin table1_fmax`

use manticore_bench::{fmax_mhz, max_cores_u200, row, CORE_RESOURCES, TABLE1_PAPER};

fn main() {
    println!("# Table 1: clock frequency (MHz) on the U200\n");
    row(&[
        "grid".into(),
        "cores".into(),
        "auto (model)".into(),
        "guided (model)".into(),
        "auto (paper)".into(),
        "guided (paper)".into(),
    ]);
    println!("|---|---|---|---|---|---|");
    for (grid, paper_auto, paper_guided) in TABLE1_PAPER {
        row(&[
            format!("{grid}x{grid}"),
            (grid * grid).to_string(),
            format!("{:.0}", fmax_mhz(grid, false)),
            format!("{:.0}", fmax_mhz(grid, true)),
            format!("{paper_auto:.0}"),
            paper_guided.map_or("-".into(), |v| format!("{v:.0}")),
        ]);
    }

    println!("\n# Table 7: single-core resource utilization (paper's measured values)\n");
    let r = CORE_RESOURCES;
    row(&[
        "LUT".into(),
        "LUTRAM".into(),
        "FF".into(),
        "BRAM".into(),
        "URAM".into(),
        "DSP".into(),
        "SRL".into(),
    ]);
    println!("|---|---|---|---|---|---|---|");
    row(&[
        r.lut.to_string(),
        r.lutram.to_string(),
        r.ff.to_string(),
        r.bram.to_string(),
        r.uram.to_string(),
        r.dsp.to_string(),
        r.srl.to_string(),
    ]);
    println!(
        "\nURAM-bound core budget on a U200: {} cores (800 URAMs, 2/core, 4 for the cache)",
        max_cores_u200()
    );
}
