//! Pins the exact bytes and values the host boundary emits for fixed
//! runs: the `MCKP` checkpoint encoding, the `MSES` session envelope,
//! and [`Machine::state_fingerprint`]. Each is held by its length and a
//! naive byte-at-a-time FNV-1a, recomputed here rather than taken from
//! the crates under test, so a faster encoder or checksum cannot drift a
//! single byte of a durable format or a served fingerprint unnoticed.
//!
//! The constants are deliberately literal: a change to any of them is a
//! format change and must be made on purpose.

use std::path::PathBuf;
use std::sync::Arc;

use manticore::compiler::{compile, CompileOptions};
use manticore::machine::{save_checkpoint, CompiledProgram, Machine};
use manticore::netlist::{Netlist, NetlistBuilder};
use manticore::prelude::MachineConfig;
use manticore_serve::catalog;
use manticore_serve::durable::{DurableStore, Envelope};
use manticore_serve::session::SessionSource;

/// FNV-1a over `bytes`, one byte at a time — the reference definition.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn program_for(netlist: &Netlist, config: MachineConfig) -> Arc<CompiledProgram> {
    let options = CompileOptions {
        config: config.clone(),
        ..Default::default()
    };
    let out = compile(netlist, &options).expect("compiles");
    CompiledProgram::compile_shared(config, &out.binary).expect("loads")
}

/// A fresh compile of catalog design `name` at its default grid, run for
/// `vcycles` from a fresh machine.
fn catalog_run(name: &str, vcycles: u64) -> Machine {
    let (netlist, config) = catalog::lookup(name, None).expect("catalog design");
    let mut m = Machine::from_program(program_for(&netlist, config));
    m.run_vcycles(vcycles).expect("runs clean");
    m
}

/// A counter whose assertion `count != 5` fails in Vcycle 5, leaving a
/// parked, faulted machine.
fn faulted_run() -> Machine {
    let mut b = NetlistBuilder::new("pinned_fault");
    let r = b.reg("count", 16, 0);
    let one = b.lit(1, 16);
    let next = b.add(r.q(), one);
    b.set_next(r, next);
    let five = b.lit(5, 16);
    let hit = b.eq(r.q(), five);
    let ok = b.not(hit);
    b.expect_true(ok, "count reached five");
    b.output("count", r.q());
    let netlist = b.finish_build().unwrap();
    let mut m = Machine::from_program(program_for(&netlist, MachineConfig::with_grid(2, 2)));
    assert!(m.run_vcycles(20).is_err(), "the assertion fires");
    assert!(m.fault().is_some());
    m
}

/// `(length, FNV-1a)` of a byte string.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
}

#[test]
fn counter_checkpoint_bytes_and_fingerprint_are_pinned() {
    let m = catalog_run("counter", 200);
    let bytes = save_checkpoint(&m.checkpoint());
    assert_eq!(
        pin(&bytes),
        (315_675, 15_490_986_533_845_152_110),
        "counter 2x2 @200 MCKP"
    );
    assert_eq!(
        m.state_fingerprint(),
        11_981_138_117_320_504_684,
        "counter 2x2 @200 fingerprint"
    );
}

#[test]
fn mm_checkpoint_bytes_and_fingerprint_are_pinned() {
    let m = catalog_run("mm", 50);
    let bytes = save_checkpoint(&m.checkpoint());
    assert_eq!(
        pin(&bytes),
        (2_775_054, 10_768_663_740_808_278_193),
        "mm 8x8 @50 MCKP"
    );
    assert_eq!(
        m.state_fingerprint(),
        271_445_662_620_356_039,
        "mm 8x8 @50 fingerprint"
    );
}

#[test]
fn faulted_checkpoint_bytes_and_fingerprint_are_pinned() {
    let m = faulted_run();
    let bytes = save_checkpoint(&m.checkpoint());
    assert_eq!(
        pin(&bytes),
        (315_707, 4_713_809_297_911_884_403),
        "faulted MCKP"
    );
    assert_eq!(
        m.state_fingerprint(),
        7_987_119_874_098_065_292,
        "faulted fingerprint"
    );
}

#[test]
fn session_envelope_bytes_are_pinned() {
    let m = catalog_run("counter", 200);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("manticore-pinned-mses-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::open(&dir).unwrap();
    store
        .save(&Envelope {
            id: "s-17".into(),
            source: SessionSource::Catalog {
                name: "counter".into(),
                grid: 2,
            },
            checkpoint: save_checkpoint(&m.checkpoint()),
        })
        .unwrap();
    let bytes = std::fs::read(dir.join("s-17.mses")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        pin(&bytes),
        (315_770, 5_957_906_641_725_220_074),
        "counter MSES envelope"
    );
}
