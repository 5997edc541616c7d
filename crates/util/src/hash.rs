//! A small integer hasher for hash tables keyed by integers.
//!
//! `std`'s default `SipHash-1-3` is keyed and DoS-resistant, which costs a
//! few dozen cycles per probe. The TPC-H query plans build and probe tables
//! keyed by order, part, supplier and customer keys hundreds of thousands of
//! times per query, and the keys come from the generator rather than from an
//! adversary, so that resistance buys nothing there. [`IntHasher`] instead
//! folds each word into the state with one 64×64→128-bit multiply and
//! xors the two halves of the product together (the "folded multiply" of
//! wyhash/aHash). The high half carries the key's high bits into the low
//! bits the table indexes with, so keys that differ only above the table
//! mask — such as TPC-H's sparse order keys — still spread over all buckets.
//!
//! The hasher is unkeyed and deterministic: the same keys produce the same
//! table layout in every run. Do not use it for keys an outside party
//! chooses.
//!
//! ```
//! use smc_util::hash::{IntMap, IntSet};
//!
//! let mut revenue: IntMap<i64, u64> = IntMap::default();
//! *revenue.entry(42).or_default() += 7;
//! let mut seen: IntSet<i64> = IntSet::default();
//! assert!(seen.insert(42));
//! assert_eq!(revenue[&42], 7);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline(always)]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128).wrapping_mul(b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A fast, unkeyed [`Hasher`] for integer keys; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline(always)]
    fn word(&mut self, w: u64) {
        self.0 = fold_mul(self.0 ^ w, K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Byte-slice fallback (for keys that are not plain integers): folds
    /// eight bytes at a time, zero-padding the tail, then the length.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(buf));
        }
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// `BuildHasher` for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// A `HashSet` of integers, hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        IntBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct_for_nearby_keys() {
        assert_eq!(hash_of(7i64), hash_of(7i64));
        let hashes: IntSet<u64> = (0..10_000i64).map(hash_of).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn high_bit_differences_reach_the_low_bits() {
        // Keys that differ only above bit 20 must not share their low bits
        // (the bits a table of up to 2^20 buckets indexes with).
        let mask = (1u64 << 20) - 1;
        let low: IntSet<u64> = (0..1_000u64).map(|i| hash_of(i << 32) & mask).collect();
        assert!(
            low.len() > 990,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn sparse_tpch_style_keys_spread_over_buckets() {
        // TPC-H order keys use 8 of every 32 values; with a power-of-two
        // table the occupied buckets must still be close to uniform.
        let buckets = 1usize << 16;
        let mut load = vec![0u32; buckets];
        let keys = (0..60_000i64).map(|i| (i / 8) * 32 + i % 8);
        for k in keys {
            load[(hash_of(k) as usize) & (buckets - 1)] += 1;
        }
        let max = *load.iter().max().unwrap();
        assert!(max <= 8, "a bucket got {max} keys");
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IntMap<i64, i64> = IntMap::default();
        for k in -500..500 {
            *m.entry(k * 1_000_003).or_default() += k;
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m[&(-3 * 1_000_003)], -3);
        let tuple_a = hash_of((1u32, 2u32));
        let tuple_b = hash_of((2u32, 1u32));
        assert_ne!(tuple_a, tuple_b);
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }
}
