//! The design catalog: the names a [`crate::proto::SubmitReq`] may ask
//! for, and the cache key that identifies a (design, grid) pair.
//!
//! Two families of designs are served:
//!
//! - **Micro designs** (`counter`, `accum`, `lfsr`, `toggle`) — tiny
//!   state machines built here with the netlist DSL. They compile in
//!   milliseconds at their default 2×2 grid, which is what a soak run
//!   needs: the interesting load is job dispatch and cache traffic, not
//!   compilation.
//! - **Benchmark workloads** — every design in [`manticore::workloads`]
//!   (including the composed `soc`), at a default 8×8 grid.
//!
//! Each micro design exposes a writable input register (`count`, `acc`,
//! `lfsr`, `t`) so jobs can carry distinct input vectors, and keeps its
//! state observable through an output of the same name.
//!
//! Building a benchmark netlist costs milliseconds; hashing it for its
//! cache key costs tens of microseconds. A server resolves names through
//! a [`Catalog`], which does both once per (design, grid) and hands later
//! submissions the memoized result.

use manticore::isa::MachineConfig;
use manticore::netlist::{Netlist, NetlistBuilder};
use manticore_util::FnvHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// The micro design names served at grid 2×2 by default.
pub const MICRO_DESIGNS: [&str; 4] = ["counter", "accum", "lfsr", "toggle"];

/// Looks up `name` and returns its netlist plus default machine
/// configuration, or `None` for a name the catalog does not serve.
/// `grid` overrides the default grid side (clamped to at least 1).
pub fn lookup(name: &str, grid: Option<usize>) -> Option<(Netlist, MachineConfig)> {
    let (netlist, default_side) = match name {
        "counter" => (counter(), 2),
        "accum" => (accum(), 2),
        "lfsr" => (lfsr(), 2),
        "toggle" => (toggle(), 2),
        other => (manticore::workloads::by_name(other)?.netlist, 8),
    };
    let side = grid.unwrap_or(default_side).max(1);
    Some((netlist, MachineConfig::with_grid(side, side)))
}

/// The cache key for a (netlist, config) pair: the netlist's structural
/// `Hash` (derived over every net, register, memory and testbench cell)
/// and the configuration's `Debug` rendering, through one FNV hasher.
/// Building the same design twice — from the catalog, from a JSON or
/// wire submission, on any connection — hashes identically, while any
/// structural difference (including the grid) lands in a different cache
/// entry. The key lives only in the server's memory.
pub fn netlist_hash(netlist: &Netlist, config: &MachineConfig) -> u64 {
    let mut h = FnvHasher::default();
    netlist.hash(&mut h);
    h.write(format!("{config:?}").as_bytes());
    h.finish()
}

/// A catalog design resolved for one grid: what [`lookup`] and
/// [`netlist_hash`] produce for it.
#[derive(Debug)]
pub struct Resolved {
    /// The design's netlist.
    pub netlist: Arc<Netlist>,
    /// The machine configuration for the requested grid.
    pub config: MachineConfig,
    /// The program-cache key, `netlist_hash(&netlist, &config)`.
    pub key: u64,
}

/// Most (design, grid) pairs a [`Catalog`] memoizes. Past it, names still
/// resolve, just without the memo, so a client sweeping grid sizes cannot
/// grow the server's memory without bound.
const MEMO_CAP: usize = 64;

/// Resolved designs by (name, requested grid).
type Memo = HashMap<(String, Option<usize>), Arc<Resolved>>;

/// A memoizing front end to [`lookup`] + [`netlist_hash`]: each
/// (design, grid) pair is built and hashed once, then served from the
/// memo. Names the catalog does not serve are never memoized.
#[derive(Debug, Default)]
pub struct Catalog {
    memo: Mutex<Memo>,
}

impl Catalog {
    /// An empty catalog memo.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Resolves `name` at `grid` (as [`lookup`] does), or `None` for a
    /// name the catalog does not serve.
    pub fn resolve(&self, name: &str, grid: Option<usize>) -> Option<Arc<Resolved>> {
        let memo_key = (name.to_string(), grid);
        if let Some(hit) = self.lock().get(&memo_key) {
            return Some(Arc::clone(hit));
        }
        // Build outside the lock: a miss must not stall other readers.
        let (netlist, config) = lookup(name, grid)?;
        let key = netlist_hash(&netlist, &config);
        let resolved = Arc::new(Resolved {
            netlist: Arc::new(netlist),
            config,
            key,
        });
        let mut memo = self.lock();
        if memo.len() < MEMO_CAP {
            // Two racing misses built identical values; keep the first.
            return Some(Arc::clone(memo.entry(memo_key).or_insert(resolved)));
        }
        Some(resolved)
    }

    /// The memo holds no user code, so a poisoned lock is still sound.
    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A free-running 16-bit counter; poke `count` to set the start value.
fn counter() -> Netlist {
    let mut b = NetlistBuilder::new("counter");
    let count = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(count.q(), one);
    b.set_next(count, next);
    b.output("count", count.q());
    b.finish_build()
        .expect("counter micro design is well-formed")
}

/// An accumulator: `acc += step` every cycle. `step` holds its poked
/// value; `acc` is the observable sum.
fn accum() -> Netlist {
    let mut b = NetlistBuilder::new("accum");
    let step = b.reg("step", 16, 1);
    b.set_next(step, step.q());
    let acc = b.reg("acc", 16, 0);
    let next = b.add(acc.q(), step.q());
    b.set_next(acc, next);
    b.output("acc", acc.q());
    b.output("step", step.q());
    b.finish_build().expect("accum micro design is well-formed")
}

/// A 16-bit Fibonacci LFSR (taps 16, 14, 13, 11); poke `lfsr` to seed
/// it. The all-zero state self-escapes via an inverted feedback on zero.
fn lfsr() -> Netlist {
    let mut b = NetlistBuilder::new("lfsr");
    let state = b.reg("lfsr", 16, 0xACE1);
    let taps = [15usize, 13, 12, 10];
    let mut fb = b.bit(state.q(), taps[0]);
    for &t in &taps[1..] {
        let bit = b.bit(state.q(), t);
        fb = b.xor(fb, bit);
    }
    // Escape hatch: a zero register would otherwise stay zero forever.
    let zero = b.lit(0, 16);
    let is_zero = b.eq(state.q(), zero);
    let one_bit = b.lit(1, 1);
    let fb = b.mux(is_zero, one_bit, fb);
    let shifted = b.shl_const(state.q(), 1);
    let fb_wide = b.zext(fb, 16);
    let next = b.or(shifted, fb_wide);
    b.set_next(state, next);
    b.output("lfsr", state.q());
    b.finish_build().expect("lfsr micro design is well-formed")
}

/// A 1-bit toggle plus an edge counter; poke `t` to set the phase.
fn toggle() -> Netlist {
    let mut b = NetlistBuilder::new("toggle");
    let t = b.reg("t", 1, 0);
    let flipped = b.not(t.q());
    b.set_next(t, flipped);
    let edges = b.reg("edges", 16, 0);
    let one = b.lit(1, 16);
    let bumped = b.add(edges.q(), one);
    let next = b.mux(t.q(), bumped, edges.q());
    b.set_next(edges, next);
    b.output("t", t.q());
    b.output("edges", edges.q());
    b.finish_build()
        .expect("toggle micro design is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_design_compiles_at_its_default_grid() {
        for name in MICRO_DESIGNS {
            let (netlist, config) = lookup(name, None).unwrap();
            manticore::ManticoreSim::compile(&netlist, config)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        }
    }

    #[test]
    fn hash_is_stable_across_rebuilds_and_distinguishes_grids() {
        let (n1, c1) = lookup("counter", None).unwrap();
        let (n2, c2) = lookup("counter", None).unwrap();
        assert_eq!(netlist_hash(&n1, &c1), netlist_hash(&n2, &c2));

        let (_, c4) = lookup("counter", Some(4)).unwrap();
        assert_ne!(netlist_hash(&n1, &c1), netlist_hash(&n1, &c4));

        let (lfsr, cl) = lookup("lfsr", None).unwrap();
        assert_ne!(netlist_hash(&n1, &c1), netlist_hash(&lfsr, &cl));
    }

    #[test]
    fn memoized_keys_equal_the_direct_hash_for_every_design() {
        let catalog = Catalog::new();
        let names = MICRO_DESIGNS
            .iter()
            .map(|n| n.to_string())
            .chain(
                manticore::workloads::all()
                    .into_iter()
                    .map(|w| w.name.to_string()),
            )
            .chain(["soc".to_string()]);
        for name in names {
            for grid in [None, Some(3)] {
                let (netlist, config) = lookup(&name, grid).unwrap();
                let direct = netlist_hash(&netlist, &config);
                for round in 0..2 {
                    let resolved = catalog.resolve(&name, grid).unwrap();
                    assert_eq!(resolved.key, direct, "{name} {grid:?} round {round}");
                    assert_eq!(resolved.config, config);
                }
            }
        }
        assert!(catalog.resolve("no_such_design", None).is_none());
        assert!(!catalog
            .lock()
            .keys()
            .any(|(name, _)| name == "no_such_design"));
    }

    #[test]
    fn workload_names_resolve_through_the_catalog() {
        assert!(lookup("soc", None).is_some());
        assert!(lookup("mips32", None).is_some() || lookup("vta", None).is_some());
        assert!(lookup("no_such_design", None).is_none());
    }
}
