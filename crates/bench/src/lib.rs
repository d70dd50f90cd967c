//! Shared infrastructure for the experiment harness: the place-and-route
//! frequency model (Table 1 / Table 7), the Azure cost model (Tables 5–6),
//! and measurement helpers used by the per-figure binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/`; the README's "Reproducing the paper's evaluation" table
//! gives the mapping.

use std::time::Instant;

use manticore::compiler::{compile, CompileOptions, CompileOutput, PartitionStrategy};
use manticore::isa::MachineConfig;
use manticore::netlist::Netlist;

// ---------------------------------------------------------------------
// Table 1 / Table 7: physical-design models
// ---------------------------------------------------------------------

/// Analytical FPGA frequency model for the U200 (substitute for Vivado
/// place-and-route — see the README's "Substitutions relative to the
/// paper").
///
/// Mechanism reproduced from §7.2/§A.5: below ~160 cores the design fits
/// the top SLRs untouched by the PCIe shell and closes near 500 MHz.
/// Beyond that, automatic floorplanning must route around the C-shaped
/// user region and collapses; guided floorplanning (cores split across
/// SLRs, switches pinned to the central SLR) recovers most of the
/// frequency.
pub fn fmax_mhz(grid: usize, guided: bool) -> f64 {
    let cores = (grid * grid) as f64;
    if !guided {
        match cores as usize {
            0..=100 => 500.0 - (cores / 100.0) * 15.0, // 8x8=64 -> ~490, table says 500
            101..=160 => 485.0 - ((cores - 100.0) / 60.0) * 5.0,
            161..=230 => 480.0 - ((cores - 144.0) / 81.0) * 85.0, // 15x15 -> ~395
            _ => 180.0,                                           // shell congestion cliff (16x16)
        }
        .max(100.0)
    } else {
        // Guided floorplanning: flat near 500 until SLR capacity bites.
        match cores as usize {
            0..=144 => 500.0,
            145..=225 => 500.0 - ((cores - 144.0) / 81.0) * 25.0, // 15x15 -> 475
            _ => 450.0,
        }
    }
}

/// Table-1 exact anchor points `(grid, auto MHz, guided MHz)`; the paper's
/// measured values, reproduced by [`fmax_mhz`] within a few percent.
pub const TABLE1_PAPER: [(usize, f64, Option<f64>); 5] = [
    (8, 500.0, None),
    (10, 485.0, None),
    (12, 480.0, Some(500.0)),
    (15, 395.0, Some(475.0)),
    (16, 180.0, Some(450.0)),
];

/// Per-core FPGA resource utilization (Table 7) — the paper's measured
/// values; URAMs are the binding resource (2 per core of 800 on the U200,
/// minus 4 for the cache → 398 cores max).
#[derive(Debug, Clone, Copy)]
pub struct CoreResources {
    /// Look-up tables.
    pub lut: u32,
    /// LUTRAMs (custom function unit).
    pub lutram: u32,
    /// Flip-flops.
    pub ff: u32,
    /// 4.5 KiB block RAMs (register file).
    pub bram: u32,
    /// 36 KiB ultra RAMs (instruction memory + scratchpad).
    pub uram: u32,
    /// DSP slices (the ALU).
    pub dsp: u32,
    /// Shift-register LUTs.
    pub srl: u32,
}

/// The paper's Table 7 numbers.
pub const CORE_RESOURCES: CoreResources = CoreResources {
    lut: 545,
    lutram: 128,
    ff: 1358,
    bram: 4,
    uram: 2,
    dsp: 1,
    srl: 102,
};

/// Maximum cores on a U200: 800 URAMs, 2 per core, 4 reserved for the
/// cache (§A.7).
pub fn max_cores_u200() -> usize {
    (800 - 4) / 2
}

// ---------------------------------------------------------------------
// Tables 5 & 6: Azure cost model
// ---------------------------------------------------------------------

/// An Azure instance for the cost analysis (Table 5).
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Instance family / role label.
    pub name: &'static str,
    /// USD per hour.
    pub dollars_per_hour: f64,
}

/// The paper's Table 5 pricing.
pub const INSTANCES: [Instance; 4] = [
    Instance {
        name: "D2 v3 (serial)",
        dollars_per_hour: 0.115,
    },
    Instance {
        name: "D16 v4 (multithreaded)",
        dollars_per_hour: 0.92,
    },
    Instance {
        name: "HB120rs v3 (multithreaded)",
        dollars_per_hour: 4.68,
    },
    Instance {
        name: "NP10s (Manticore)",
        dollars_per_hour: 2.145,
    },
];

/// Hours (rounded up, as billed) and dollars to simulate `cycles` RTL
/// cycles at `rate_khz`.
pub fn cost(cycles: f64, rate_khz: f64, dollars_per_hour: f64) -> (f64, f64) {
    let hours = cycles / (rate_khz * 1e3) / 3600.0;
    let billed = hours.ceil().max(1.0);
    (hours, billed * dollars_per_hour)
}

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

/// Compiles a workload for Manticore with default options at `grid`.
///
/// # Panics
///
/// Panics if compilation fails (harness-level fatal).
pub fn compile_for_grid(
    netlist: &Netlist,
    grid: usize,
    strategy: PartitionStrategy,
) -> CompileOutput {
    let options = CompileOptions {
        config: MachineConfig::with_grid(grid, grid),
        partition: strategy,
        ..Default::default()
    };
    compile(netlist, &options).expect("workload must compile")
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Minimal JSON emission for the `--json` outputs of the experiment
/// binaries (the workspace deliberately has no external dependencies, so
/// no serde). Values are escaped strings, finite numbers, or `null`.
pub mod json {
    /// A JSON value, rendered on [`Val::render`].
    pub enum Val {
        /// A string (escaped on render).
        Str(String),
        /// A number; non-finite values render as `null`.
        Num(f64),
        /// An unsigned integer (exact rendering).
        Int(u64),
        /// An object of key/value pairs.
        Obj(Vec<(String, Val)>),
        /// An array of values.
        Arr(Vec<Val>),
    }

    impl Val {
        /// Builds an object from key/value pairs.
        pub fn obj(fields: Vec<(&str, Val)>) -> Val {
            Val::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// Renders to compact JSON.
        pub fn render(&self) -> String {
            match self {
                Val::Str(s) => {
                    let mut out = String::with_capacity(s.len() + 2);
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\t' => out.push_str("\\t"),
                            '\r' => out.push_str("\\r"),
                            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                    out
                }
                Val::Num(v) if v.is_finite() => format!("{v}"),
                Val::Num(_) => "null".into(),
                Val::Int(v) => format!("{v}"),
                Val::Obj(fields) => {
                    let parts: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{}:{}", Val::Str(k.clone()).render(), v.render()))
                        .collect();
                    format!("{{{}}}", parts.join(","))
                }
                Val::Arr(items) => {
                    let parts: Vec<String> = items.iter().map(Val::render).collect();
                    format!("[{}]", parts.join(","))
                }
            }
        }
    }

    /// Writes a value to `path` as pretty-enough single-line JSON plus a
    /// trailing newline.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (harness-level fatal).
    pub fn write(path: &str, v: &Val) {
        std::fs::write(path, v.render() + "\n").expect("write json output");
    }
}

/// Parses a `--flag value` pair out of `args`, removing both tokens.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Exits with an error if any argument survived flag parsing — a typoed
/// flag must not silently run the uncapped default configuration.
pub fn reject_unknown_args(args: &[String]) {
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        std::process::exit(2);
    }
}

/// Formats a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmax_model_hits_paper_anchors() {
        for (grid, auto, guided) in TABLE1_PAPER {
            let got = fmax_mhz(grid, false);
            assert!(
                (got - auto).abs() / auto < 0.10,
                "auto fmax at {grid}x{grid}: model {got}, paper {auto}"
            );
            if let Some(g) = guided {
                let got = fmax_mhz(grid, true);
                assert!(
                    (got - g).abs() / g < 0.10,
                    "guided fmax at {grid}x{grid}: model {got}, paper {g}"
                );
            }
        }
    }

    #[test]
    fn guided_always_at_least_auto() {
        for grid in 2..=20 {
            assert!(fmax_mhz(grid, true) >= fmax_mhz(grid, false) - 1.0);
        }
    }

    #[test]
    fn core_budget_matches_paper() {
        assert_eq!(max_cores_u200(), 398);
    }

    #[test]
    fn cost_model_rounds_to_billed_hours() {
        // 1B cycles at 100 kHz = 2.78h -> billed 3h.
        let (hours, dollars) = cost(1e9, 100.0, 2.0);
        assert!((hours - 2.78).abs() < 0.01);
        assert_eq!(dollars, 6.0);
        // Sub-hour runs bill one hour.
        let (_, d) = cost(1e6, 1000.0, 5.0);
        assert_eq!(d, 5.0);
    }

    #[test]
    fn timed_measures_something() {
        let (v, secs) = timed(|| (0..100_000u64).sum::<u64>());
        assert_eq!(v, 4999950000);
        assert!(secs >= 0.0);
    }
}
