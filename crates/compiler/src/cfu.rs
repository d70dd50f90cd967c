//! Custom function synthesis (§6.2): collapse chains of bitwise logic into
//! single 4-input LUT instructions.
//!
//! The pass runs per partitioned process:
//!
//! 1. prune the dependence graph to bitwise-logic vertices (`And`/`Or`/
//!    `Xor`; `Not` is already `Xor` with a mask constant, so constants are
//!    absorbed into the per-lane truth tables);
//! 2. enumerate 4-feasible cuts for every logic vertex in instruction
//!    order (cut enumeration in the style of FPGA technology mapping
//!    [Cong et al., FPGA'99]). A cut is a fixed `[VReg; 4]` of sorted
//!    leaves plus a 64-bit leaf signature (cf. priority cuts, Mishchenko
//!    et al., ICCAD'07): a signature mismatch rules out a duplicate
//!    without comparing leaves, and a signature with more than four bits
//!    set rules out a merge. Each operand keeps the first
//!    `MAX_CUTS * 4` distinct merges in order of first occurrence; the
//!    node keeps the `MAX_CUTS` smallest of those, stably by size;
//! 3. keep cuts that are MFFCs — no interior result escapes the cone;
//! 4. compute each cone's truth table in one pass over its interior in
//!    topological order, all 16 lanes at once: a leaf is its canonical
//!    input mask in every lane and a constant is all-ones in the lanes
//!    where its bit is set, so constant leaves contribute their actual
//!    bits (the paper's 256-bit tables);
//! 5. group cones by table ("logic equivalence") and select a
//!    non-overlapping subset maximizing saved instructions under the
//!    32-tables-per-core budget. The paper solves this with MILP; no MILP
//!    solver is in our dependency budget, so a greedy weighted selection
//!    (largest saving first, ties in enumeration order) stands in — one
//!    of the README's "Substitutions relative to the paper".
//!
//! Every per-vreg and per-instruction table is a `Vec` indexed by
//! `VReg::index` or instruction position, and the per-cone sets are
//! stamped scratch arrays, so the pass allocates O(process) once rather
//! than per cone.

use manticore_isa::AluOp;

use crate::lir::{LirInstr, LirOp, Process, VReg};

/// Canonical truth-table input masks for up to 4 variables.
pub(crate) const MASKS: [u16; 4] = [0xaaaa, 0xcccc, 0xf0f0, 0xff00];

/// Cuts kept per logic vertex.
const MAX_CUTS: usize = 12;

/// "No instruction" in the vreg → defining-instruction table.
const NO_DEF: u32 = u32::MAX;

/// A value in truth-table space, one 16-bit table per constant lane.
type Lanes = [u16; 16];

/// Statistics from one synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfuStats {
    /// Custom instructions emitted.
    pub fused: usize,
    /// Logic instructions removed (interior + roots).
    pub removed: usize,
    /// Distinct truth tables used.
    pub tables: usize,
}

/// A 4-feasible cut: up to four non-constant leaf vregs, sorted and
/// distinct; unused slots hold `VReg(0)` so equal leaf sets compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    /// One bit per leaf, at `leaf % 64`. Compared first, so most unequal
    /// cuts differ without a leaf compare.
    sig: u64,
    len: u8,
    leaves: [VReg; 4],
}

impl Cut {
    const EMPTY: Cut = Cut {
        sig: 0,
        len: 0,
        leaves: [VReg(0); 4],
    };

    fn single(v: VReg) -> Cut {
        Cut {
            sig: 1 << (v.0 % 64),
            len: 1,
            leaves: [v, VReg(0), VReg(0), VReg(0)],
        }
    }

    fn leaves(&self) -> &[VReg] {
        &self.leaves[..self.len as usize]
    }

    /// Position of `v` among the leaves (its truth-table input).
    fn position(&self, v: VReg) -> Option<usize> {
        self.leaves().iter().position(|&l| l == v)
    }

    /// The sorted union of two cuts, or `None` past four leaves.
    fn union(&self, other: &Cut) -> Option<Cut> {
        let sig = self.sig | other.sig;
        if sig.count_ones() > 4 {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Cut { sig, ..Cut::EMPTY };
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let v = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else {
                if i < a.len() && a[i] == b[j] {
                    i += 1;
                }
                j += 1;
                b[j - 1]
            };
            if out.len == 4 {
                return None;
            }
            out.leaves[out.len as usize] = v;
            out.len += 1;
        }
        Some(out)
    }
}

/// A candidate cone: a root logic instruction plus interior nodes.
#[derive(Debug, Clone)]
struct Cone {
    root: usize,
    /// Interior instruction indices (including the root), as a range of
    /// the shared interior pool.
    interior: (usize, usize),
    leaves: Cut,
    table: [u16; 16],
    savings: usize,
}

/// Fuses logic chains in `proc`; `max_tables` bounds distinct truth tables
/// (32 on the hardware). Returns statistics. Run [`crate::lir_opt::dce`]
/// afterwards to drop the dead interior instructions.
pub fn synthesize(proc: &mut Process, max_tables: usize) -> CfuStats {
    let instrs = &proc.instrs;
    let n = instrs.len();
    let nv = proc.num_vregs as usize;
    let mut def_of = vec![NO_DEF; nv];
    // Known constants (for per-lane absorption).
    let mut const_val: Vec<Option<u16>> = vec![None; nv];
    // Use lists, flattened: the users of `v` are
    // `use_list[use_start[v]..use_start[v + 1]]`.
    let mut use_start = vec![0u32; nv + 1];
    for (i, instr) in instrs.iter().enumerate() {
        if let Some(d) = instr.dest {
            def_of[d.index()] = i as u32;
            if let LirOp::Const(v) = instr.op {
                const_val[d.index()] = Some(v);
            }
        }
        for a in &instr.args {
            use_start[a.index() + 1] += 1;
        }
    }
    for v in 0..nv {
        use_start[v + 1] += use_start[v];
    }
    let mut use_list = vec![0u32; use_start[nv] as usize];
    let mut fill = use_start.clone();
    for (i, instr) in instrs.iter().enumerate() {
        for a in &instr.args {
            use_list[fill[a.index()] as usize] = i as u32;
            fill[a.index()] += 1;
        }
    }
    let logic: Vec<bool> = instrs.iter().map(|i| i.op.is_bitwise_logic()).collect();
    let logic_def = |v: VReg| -> Option<usize> {
        let d = def_of[v.index()];
        (d != NO_DEF && logic[d as usize]).then_some(d as usize)
    };

    // --- Cut enumeration -------------------------------------------------
    // The cuts of instruction `i` are `cut_pool[cut_range[i].0..cut_range[i].1]`.
    let mut cut_pool: Vec<Cut> = Vec::new();
    let mut cut_range: Vec<(usize, usize)> = vec![(0, 0); n];
    let mut mine: Vec<Cut> = Vec::new();
    let mut next: Vec<Cut> = Vec::new();
    let mut choices: Vec<Cut> = Vec::new();
    for i in 0..n {
        if !logic[i] {
            continue;
        }
        mine.clear();
        mine.push(Cut::EMPTY);
        for &a in &instrs[i].args {
            // Per-operand choice: either the operand as a leaf, or (if the
            // operand is itself a logic node) each of its cuts.
            choices.clear();
            if const_val[a.index()].is_some() {
                choices.push(Cut::EMPTY); // constants never consume an input
            } else {
                choices.push(Cut::single(a));
                if let Some(d) = logic_def(a) {
                    let (lo, hi) = cut_range[d];
                    choices.extend_from_slice(&cut_pool[lo..hi]);
                }
            }
            next.clear();
            'merge: for base in &mine {
                for c in &choices {
                    if let Some(merged) = base.union(c) {
                        if !next.contains(&merged) {
                            next.push(merged);
                            // Later merges would be truncated away.
                            if next.len() == MAX_CUTS * 4 {
                                break 'merge;
                            }
                        }
                    }
                }
            }
            std::mem::swap(&mut mine, &mut next);
        }
        mine.sort_by_key(|c| c.len);
        mine.dedup();
        mine.truncate(MAX_CUTS);
        cut_range[i] = (cut_pool.len(), cut_pool.len() + mine.len());
        cut_pool.extend_from_slice(&mine);
    }

    // --- Cone construction + MFFC filter + truth tables ------------------
    let mut candidates: Vec<Cone> = Vec::new();
    let mut interior_pool: Vec<usize> = Vec::new();
    // `mark[i] == stamp` while instruction `i` is in the current cone.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut vals: Vec<Lanes> = vec![[0; 16]; n];
    for root in 0..n {
        if !logic[root] {
            continue;
        }
        let (lo, hi) = cut_range[root];
        for cut in &cut_pool[lo..hi] {
            // Collect interior nodes in post-order (operands before
            // users): walk back from root until leaves.
            stamp += 1;
            let start = interior_pool.len();
            mark[root] = stamp;
            stack.clear();
            stack.push((root, 0));
            let mut ok = true;
            while let Some((i, k)) = stack.last_mut() {
                let Some(&a) = instrs[*i].args.get(*k) else {
                    interior_pool.push(*i);
                    stack.pop();
                    continue;
                };
                *k += 1;
                if cut.position(a).is_some() || const_val[a.index()].is_some() {
                    continue;
                }
                match logic_def(a) {
                    Some(d) => {
                        if mark[d] != stamp {
                            mark[d] = stamp;
                            stack.push((d, 0));
                        }
                    }
                    // A non-logic, non-leaf operand: this cut is not a
                    // closed cone over logic ops.
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            let interior = &interior_pool[start..];
            // A single instruction saves nothing. MFFC: no interior node
            // except the root may be used outside the cone.
            let keep = ok
                && interior.len() >= 2
                && !interior.iter().any(|&i| {
                    if i == root {
                        return false;
                    }
                    let d = instrs[i].dest.expect("logic ops define a value").index();
                    use_list[use_start[d] as usize..use_start[d + 1] as usize]
                        .iter()
                        .any(|&u| mark[u as usize] != stamp)
                });
            let table = keep
                .then(|| eval_cone(instrs, interior, cut, &const_val, &def_of, &mut vals))
                .flatten();
            match table {
                Some(table) => candidates.push(Cone {
                    root,
                    interior: (start, interior_pool.len()),
                    leaves: *cut,
                    table,
                    savings: interior.len() - 1,
                }),
                None => interior_pool.truncate(start),
            }
        }
    }

    // --- Selection (greedy stand-in for the paper's MILP) ---------------
    candidates.sort_by_key(|c| std::cmp::Reverse(c.savings));
    let mut claimed = vec![false; n];
    let mut tables: Vec<[u16; 16]> = Vec::new();
    let mut chosen: Vec<Cone> = Vec::new();
    for cone in candidates {
        let interior = &interior_pool[cone.interior.0..cone.interior.1];
        if interior.iter().any(|&i| claimed[i]) {
            continue;
        }
        let table_known = tables.contains(&cone.table);
        if !table_known && tables.len() >= max_tables {
            continue;
        }
        if !table_known {
            tables.push(cone.table);
        }
        for &i in interior {
            claimed[i] = true;
        }
        chosen.push(cone);
    }

    // --- Rewrite ----------------------------------------------------------
    let stats = CfuStats {
        fused: chosen.len(),
        removed: chosen.iter().map(|c| c.interior.1 - c.interior.0).sum(),
        tables: tables.len(),
    };
    for cone in &chosen {
        let dest = proc.instrs[cone.root].dest;
        proc.instrs[cone.root] = LirInstr {
            dest,
            op: LirOp::Custom { table: cone.table },
            args: cone.leaves.leaves().to_vec(),
        };
        // Interior nodes become dead; DCE removes them.
    }
    stats
}

/// Evaluates the cone over the canonical masks, all 16 lanes at once, in
/// one pass over `interior` (post-order, root last). `vals` is scratch
/// indexed by instruction. Returns `None` when evaluation hits an
/// unsupported op (defensive; interiors are logic).
fn eval_cone(
    instrs: &[LirInstr],
    interior: &[usize],
    leaves: &Cut,
    const_val: &[Option<u16>],
    def_of: &[u32],
    vals: &mut [Lanes],
) -> Option<[u16; 16]> {
    let value = |v: VReg, vals: &[Lanes]| -> Lanes {
        if let Some(k) = leaves.position(v) {
            [MASKS[k]; 16]
        } else if let Some(c) = const_val[v.index()] {
            // Constant: each lane's bit replicated across table space.
            std::array::from_fn(|lane| 0u16.wrapping_sub((c >> lane) & 1))
        } else {
            vals[def_of[v.index()] as usize]
        }
    };
    for &i in interior {
        let instr = &instrs[i];
        let a = value(instr.args[0], vals);
        let b = value(instr.args[1], vals);
        vals[i] = match instr.op {
            LirOp::Alu(AluOp::And) => std::array::from_fn(|l| a[l] & b[l]),
            LirOp::Alu(AluOp::Or) => std::array::from_fn(|l| a[l] | b[l]),
            LirOp::Alu(AluOp::Xor) => std::array::from_fn(|l| a[l] ^ b[l]),
            _ => return None,
        };
    }
    let &root = interior.last()?;
    instrs[root].dest?;
    Some(vals[root])
}
