//! A tiny FNV-1a hasher for hot compiler maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! small key — measurable in the scheduler's link-reservation set, which
//! is probed once per route link per candidate cycle. Compiler keys are
//! small fixed-size integers derived from the design, not attacker input,
//! so FNV-1a is the right trade.
//!
//! Hash choice only affects bucket order inside the table, never the
//! observable contents, so swapping hashers preserves the compile
//! pipeline's bit-identical-output contract (no pass iterates one of
//! these maps into an output).
//!
//! The same FNV-1a also checksums durable bytes (checkpoints, session
//! envelopes), whose machine state is mostly zeros. [`fnv1a_from`]
//! exploits that: FNV-1a over `k` zero bytes is exactly a multiplication
//! by `FNV_PRIME^k` (mod 2^64), so each run of all-zero 8-byte chunks
//! costs one multiply ([`fnv_prime_pow`]) instead of `8k` — the checksum
//! stays bit-identical to the byte loop.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a: byte writes go through [`fnv1a_from`], integer-sized writes
/// take a one-multiply fast path.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

/// The FNV-1a 64-bit offset basis (the hash of the empty string).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^n` mod 2^64, by squaring: the factor `n` zero steps of
/// FNV-1a multiply the state by (a zero step's xor is a no-op).
pub fn fnv_prime_pow(mut n: u64) -> u64 {
    let mut base = FNV_PRIME;
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// FNV-1a over `bytes`, continuing from state `h` — identical to the
/// byte-at-a-time loop, but each run of all-zero 8-byte chunks folds
/// into a single multiply by [`fnv_prime_pow`]. Splitting the input
/// anywhere and chaining the calls gives the same result as one call.
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut zero_chunks = 0u64;
    for chunk in &mut chunks {
        if chunk == [0; 8] {
            zero_chunks += 1;
            continue;
        }
        if zero_chunks > 0 {
            h = h.wrapping_mul(fnv_prime_pow(8 * zero_chunks));
            zero_chunks = 0;
        }
        for &b in chunk {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    if zero_chunks > 0 {
        h = h.wrapping_mul(fnv_prime_pow(8 * zero_chunks));
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` from the offset basis: [`fnv1a_from`]`(FNV_OFFSET,
/// bytes)`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_from(self.0, bytes);
    }

    fn write_u64(&mut self, v: u64) {
        // One multiply per word instead of eight: mix the whole word.
        let mut h = self.0 ^ v;
        h = h.wrapping_mul(FNV_PRIME);
        // A final avalanche so low-entropy keys (small counters) spread.
        h ^= h >> 29;
        self.0 = h.wrapping_mul(FNV_PRIME);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`]; plug into `HashMap::with_hasher` /
/// `HashSet::with_hasher`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with [`FnvHasher`].
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed with [`FnvHasher`].
pub type FnvHashSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference definition: one xor and one multiply per byte.
    fn naive(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn prime_powers_match_repeated_multiplication() {
        let mut p = 1u64;
        for n in 0..200 {
            assert_eq!(fnv_prime_pow(n), p, "PRIME^{n}");
            p = p.wrapping_mul(FNV_PRIME);
        }
    }

    #[test]
    fn zero_run_folding_matches_the_byte_loop() {
        // Every length 0..=1000; at each, mostly-zero buffers whose
        // non-zero bytes sit at every alignment, so zero runs start and
        // end mid-chunk, span many whole chunks, or cover everything.
        let mut buf = vec![0u8; 1000];
        for len in 0..=1000usize {
            let bytes = &mut buf[..len];
            bytes.fill(0);
            assert_eq!(fnv1a(bytes), naive(FNV_OFFSET, bytes), "zeros, len {len}");
            for start in 0..len.min(9) {
                bytes.fill(0);
                let mut i = start;
                let mut step = 1;
                while i < len {
                    bytes[i] = (i as u8) | 1;
                    i += step;
                    step = step % 29 + 3;
                }
                assert_eq!(
                    fnv1a(bytes),
                    naive(FNV_OFFSET, bytes),
                    "len {len}, first non-zero at {start}"
                );
            }
            bytes.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
            assert_eq!(fnv1a(bytes), naive(FNV_OFFSET, bytes), "dense, len {len}");
        }
    }

    #[test]
    fn chained_calls_equal_one_call_and_the_hasher() {
        let mut bytes = vec![0u8; 300];
        for i in (5..300).step_by(37) {
            bytes[i] = 0xa5;
        }
        let whole = fnv1a(&bytes);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a_from(fnv1a(a), b), whole, "split at {cut}");
        }
        let mut h = FnvHasher::default();
        h.write(&bytes[..123]);
        h.write(&bytes[123..]);
        assert_eq!(h.finish(), whole);
    }

    #[test]
    fn set_semantics_hold() {
        let mut s: FnvHashSet<u64> = FnvHashSet::default();
        for i in 0..10_000u64 {
            assert!(s.insert(i * 2654435761));
        }
        for i in 0..10_000u64 {
            assert!(s.contains(&(i * 2654435761)));
            assert!(!s.contains(&(i * 2654435761 + 1)));
        }
        assert_eq!(s.len(), 10_000);
    }
}
