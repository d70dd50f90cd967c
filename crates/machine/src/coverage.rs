//! Toggle / assert / display coverage maps for coverage-guided scenario
//! exploration.
//!
//! A [`CoverageMap`] tracks, per register word of every core, which bits
//! have been observed both set *and* clear across the states fed to it —
//! classic RTL toggle coverage, evaluated on the architectural (flushed)
//! register view at Vcycle boundaries — plus running counts of `$display`
//! lines and assertion failures the explored scenarios produced.
//!
//! Deliberate design note: the map lives *outside* [`PerfCounters`].
//! The counters are a `Copy` value compared and merged on hot paths
//! (every engine bumps them per Vcycle; equivalence suites compare them
//! bit-for-bit), so growing them by two `Vec`s per map would both break
//! `Copy` and tax the replay loops the bench gates pin within ±25%.
//! Coverage is instead observed only at scenario-tree boundaries
//! ([`CoverageMap::observe`] walks the register file once per finished
//! child), which costs nothing inside a Vcycle.

use crate::grid::Machine;
use crate::program::CompiledProgram;

/// Per-core toggle coverage over the full register file, with assert and
/// display tallies. Indexed flat like the machine's SoA register file:
/// `regfile_size` consecutive words per core, linear core order.
#[derive(Debug, Clone)]
pub struct CoverageMap {
    /// Bits of each register word ever observed set.
    seen_set: Vec<u16>,
    /// Bits of each register word ever observed clear.
    seen_clear: Vec<u16>,
    regfile_size: usize,
    /// `$display` lines the observed scenarios produced.
    pub displays: u64,
    /// Assertion failures the observed scenarios produced.
    pub asserts: u64,
}

impl CoverageMap {
    /// An empty map sized for `program`'s grid and register file.
    pub fn for_program(program: &CompiledProgram) -> CoverageMap {
        let words = program.num_cores() * program.config().regfile_size;
        CoverageMap {
            seen_set: vec![0; words],
            seen_clear: vec![0; words],
            regfile_size: program.config().regfile_size,
            displays: 0,
            asserts: 0,
        }
    }

    /// Folds one machine's architectural state (the flushed host view at
    /// a Vcycle boundary) into the map. Returns the number of bits that
    /// became toggle-covered — seen both set and clear for the first
    /// time — which is the score exploration drivers (`Fleet::explore` in
    /// `manticore-fleet`) use to prioritize children.
    pub fn observe(&mut self, machine: &Machine) -> u64 {
        let rf = self.regfile_size;
        let mut newly = 0u64;
        let cores = self
            .seen_set
            .chunks_exact_mut(rf)
            .zip(self.seen_clear.chunks_exact_mut(rf));
        for (idx, (sets, clears)) in cores.enumerate() {
            // Below the hazard span a write may be in flight; above it the
            // committed word's low half is the host view.
            let (flushed, above) = machine.flushed_regs(idx);
            let values = flushed.chain(above.iter().map(|&w| w as u16));
            for ((set, clear), v) in sets.iter_mut().zip(clears.iter_mut()).zip(values) {
                let before = (*set & *clear).count_ones();
                *set |= v;
                *clear |= !v;
                newly += u64::from((*set & *clear).count_ones() - before);
            }
        }
        newly
    }

    /// Adds display/assert tallies from one scenario's outcome.
    pub fn record_events(&mut self, displays: u64, asserts: u64) {
        self.displays += displays;
        self.asserts += asserts;
    }

    /// Total toggle-covered bits (seen both set and clear) over the grid.
    pub fn covered_bits(&self) -> u64 {
        self.seen_set
            .iter()
            .zip(&self.seen_clear)
            .map(|(s, c)| u64::from((s & c).count_ones()))
            .sum()
    }

    /// Toggle-covered bits of one core's register file (linear core
    /// index), the per-core view of the map.
    pub fn core_covered_bits(&self, core: usize) -> u64 {
        let rf = self.regfile_size;
        self.seen_set[core * rf..(core + 1) * rf]
            .iter()
            .zip(&self.seen_clear[core * rf..(core + 1) * rf])
            .map(|(s, c)| u64::from((s & c).count_ones()))
            .sum()
    }

    /// Merges another map (same program geometry) into this one.
    pub fn merge_from(&mut self, other: &CoverageMap) {
        debug_assert_eq!(self.seen_set.len(), other.seen_set.len());
        for (s, o) in self.seen_set.iter_mut().zip(&other.seen_set) {
            *s |= o;
        }
        for (c, o) in self.seen_clear.iter_mut().zip(&other.seen_clear) {
            *c |= o;
        }
        self.displays += other.displays;
        self.asserts += other.asserts;
    }
}
