//! The compiled-program cache: compile each design once, serve every
//! later job from the shared artifact.
//!
//! Compilation is the expensive step of the serving path (the static-BSP
//! pipeline runs placement, routing, and scheduling), while a cache hit
//! is two `Arc` clones. The cache is keyed by a hash of the *netlist and
//! machine configuration* (see [`crate::catalog::netlist_hash`]), so two
//! clients asking for the same design at the same grid share one
//! compilation even across connections.
//!
//! Three policies keep it bounded and calm under stampedes:
//!
//! - **Single-flight**: the first request for a key compiles; concurrent
//!   requests for the same key block on a condvar and are serviced by
//!   that one compilation. They count as *hits* — a miss is a compilation
//!   actually started, which is what capacity planning needs.
//! - **Bounded compile pool**: at most `compile_slots` compilations run
//!   at once; further misses queue on the same condvar instead of
//!   fork-bombing the CPU with compiler threads.
//! - **LRU-by-bytes eviction**: entries are charged their approximate
//!   footprint ([`manticore::machine::CompiledProgram::approx_bytes`]
//!   plus the compiler output's binary), and the least-recently-used
//!   entries are dropped when the total passes the budget. Eviction only
//!   unlinks the entry — jobs already holding the `Arc` keep running.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use manticore::compiler::CompileOutput;
use manticore::machine::CompiledProgram;

/// One cached compilation: everything a job needs to boot and everything
/// a reply needs to resolve register names.
#[derive(Debug)]
pub struct CacheEntry {
    /// Compiler output — binary, report, and the placement metadata that
    /// resolves RTL register names to machine registers.
    pub output: Arc<CompileOutput>,
    /// The frozen machine program (with its micro-op program);
    /// booting a job from it is allocation-only.
    pub program: Arc<CompiledProgram>,
    /// The approximate footprint charged against the cache budget.
    pub bytes: usize,
}

/// Counter snapshot for the stats endpoint and the bench gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a present or in-flight compilation.
    pub hits: u64,
    /// Compilations actually started.
    pub misses: u64,
    /// Entries dropped by the byte-budget LRU.
    pub evictions: u64,
    /// Ready entries currently cached.
    pub entries: usize,
    /// Bytes currently charged.
    pub bytes: usize,
}

#[derive(Debug)]
enum Slot {
    /// A compilation is in flight; waiters sleep on the condvar.
    Building,
    /// Ready to serve. `last_used` is a logical tick for LRU ordering.
    Ready {
        entry: Arc<CacheEntry>,
        last_used: u64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    tick: u64,
    compiling: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The single-flight, byte-budgeted program cache. One per server;
/// shared by every connection.
#[derive(Debug)]
pub struct ProgramCache {
    inner: Mutex<Inner>,
    cond: Condvar,
    budget_bytes: usize,
    compile_slots: usize,
}

impl ProgramCache {
    /// A cache that holds at most `budget_bytes` of compiled artifacts
    /// and runs at most `compile_slots` compilations concurrently.
    pub fn new(budget_bytes: usize, compile_slots: usize) -> ProgramCache {
        ProgramCache {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            budget_bytes,
            compile_slots: compile_slots.max(1),
        }
    }

    /// Returns the entry for `key`, compiling it with `build` on a miss.
    ///
    /// Exactly one caller per key runs `build` at a time; concurrent
    /// callers block and share the result. A failed `build` propagates to
    /// the caller that ran it, wakes the waiters, and leaves the key
    /// absent — the next request retries.
    ///
    /// # Errors
    ///
    /// Whatever `build` returned.
    pub fn get_or_compile(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<CacheEntry, String>,
    ) -> Result<Arc<CacheEntry>, String> {
        enum Action {
            Hit(Arc<CacheEntry>),
            Wait,
            Build,
        }
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        loop {
            let action = match inner.slots.get(&key) {
                Some(Slot::Ready { entry, .. }) => Action::Hit(Arc::clone(entry)),
                // Someone else is compiling this key; their result will
                // serve us. That makes this request a hit (below).
                Some(Slot::Building) => Action::Wait,
                None if inner.compiling < self.compile_slots => Action::Build,
                // The compile pool is full; queue for a slot.
                None => Action::Wait,
            };
            match action {
                Action::Hit(entry) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(Slot::Ready { last_used, .. }) = inner.slots.get_mut(&key) {
                        *last_used = tick;
                    }
                    inner.hits += 1;
                    return Ok(entry);
                }
                Action::Wait => {
                    inner = self.cond.wait(inner).expect("cache lock poisoned");
                }
                Action::Build => {
                    inner.slots.insert(key, Slot::Building);
                    inner.compiling += 1;
                    inner.misses += 1;
                    drop(inner);
                    let built = build();
                    let mut inner = self.inner.lock().expect("cache lock poisoned");
                    inner.compiling -= 1;
                    let result = match built {
                        Ok(entry) => {
                            let entry = Arc::new(entry);
                            inner.tick += 1;
                            inner.bytes += entry.bytes;
                            let tick = inner.tick;
                            inner.slots.insert(
                                key,
                                Slot::Ready {
                                    entry: Arc::clone(&entry),
                                    last_used: tick,
                                },
                            );
                            self.evict_over_budget(&mut inner, key);
                            Ok(entry)
                        }
                        Err(e) => {
                            inner.slots.remove(&key);
                            Err(e)
                        }
                    };
                    self.cond.notify_all();
                    return result;
                }
            }
        }
    }

    /// Drops least-recently-used Ready entries until the budget holds.
    /// The just-inserted `keep` key is exempt — an entry bigger than the
    /// whole budget still gets to serve the jobs that asked for it.
    fn evict_over_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.bytes > self.budget_bytes {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } if *k != keep => Some((*last_used, *k)),
                    _ => None,
                })
                .min()
                .map(|(_, k)| k);
            let Some(victim) = victim else { break };
            if let Some(Slot::Ready { entry, .. }) = inner.slots.remove(&victim) {
                inner.bytes -= entry.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_entry() -> CacheEntry {
        use manticore::prelude::*;
        let mut b = NetlistBuilder::new("c");
        let r = b.reg("count", 16, 0);
        let one = b.lit(1, 16);
        let next = b.add(r.q(), one);
        b.set_next(r, next);
        b.output("count", r.q());
        let netlist = b.finish_build().unwrap();
        let config = MachineConfig::with_grid(2, 2);
        let output = Arc::new(
            manticore::compiler::compile(
                &netlist,
                &CompileOptions {
                    config: config.clone(),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let program = CompiledProgram::compile_shared(config, &output.binary).unwrap();
        let bytes = program.approx_bytes();
        CacheEntry {
            output,
            program,
            bytes,
        }
    }

    #[test]
    fn single_flight_compiles_once_under_a_stampede() {
        let cache = ProgramCache::new(usize::MAX, 1);
        let compiles = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let entry = cache
                        .get_or_compile(42, || {
                            compiles.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so the stampede
                            // actually overlaps the build.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(tiny_entry())
                        })
                        .unwrap();
                    assert!(entry.bytes > 0);
                });
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "one compile, 7 hits");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_recency() {
        let probe = tiny_entry();
        // Budget for exactly two entries.
        let cache = ProgramCache::new(probe.bytes * 2, 1);
        for key in [1u64, 2, 3] {
            cache.get_or_compile(key, || Ok(tiny_entry())).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "third insert evicts the oldest");
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= probe.bytes * 2);
        // Key 1 was the LRU victim: re-requesting it is a miss; 2 and 3
        // are still hits.
        cache
            .get_or_compile(2, || panic!("2 must be cached"))
            .unwrap();
        cache
            .get_or_compile(3, || panic!("3 must be cached"))
            .unwrap();
        cache.get_or_compile(1, || Ok(tiny_entry())).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn a_failed_build_propagates_and_leaves_the_key_retryable() {
        let cache = ProgramCache::new(usize::MAX, 2);
        let err = cache
            .get_or_compile(7, || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The failure did not wedge the slot: a retry compiles fresh.
        cache.get_or_compile(7, || Ok(tiny_entry())).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
    }
}
