//! Dependency-free shared utilities for the Manticore workspace.
//!
//! These live here because more than one crate needs them and none
//! belongs to any single layer of the stack:
//!
//! - [`spin::SpinBarrier`] — the spinning arrive-await rendezvous used by
//!   the Verilator-analog macro-task executor and §7.1 scaling models
//!   (`manticore_refsim`);
//! - [`pool::parallel_map`] / [`pool::parallel_map_mut`] — the scoped,
//!   index-ordered worker pool behind the compiler's parallel passes:
//!   results land in pre-assigned slots, so output is bit-identical at
//!   any thread count;
//! - [`hash::FnvHasher`] — a fast non-cryptographic hasher for hot
//!   compiler maps whose keys come from the design, not from untrusted
//!   input;
//! - [`rng::SmallRng`] — a tiny deterministic PRNG (SplitMix64 seeding an
//!   xorshift64* stream) backing the seeded randomized tests across the
//!   workspace. The test suites are differential (two implementations must
//!   agree on random inputs), so reproducibility matters more than
//!   statistical sophistication: the same seed always generates the same
//!   netlist, on every platform;
//! - [`cancel::CancelToken`] — the cooperative cancellation flag every
//!   engine polls at Vcycle boundaries, and the fleet's batch fail-fast
//!   primitive;
//! - [`panic::catch_silent`] — panic containment without backtrace spam,
//!   behind the fleet's per-job isolation.

pub mod cancel;
pub mod hash;
pub mod panic;
pub mod pool;
pub mod rng;
pub mod spin;

pub use cancel::CancelToken;
pub use hash::{FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use panic::{catch_silent, catch_silent_mut};
pub use pool::{parallel_map, parallel_map_mut};
pub use rng::SmallRng;
pub use spin::{spin_until, BarrierPoisoned, SpinBarrier};
