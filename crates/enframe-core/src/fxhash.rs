//! An in-tree FxHash: the fast, non-cryptographic hash used by rustc.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! HashDoS-resistant but pays ~1.5 ns per word of key — measurable on the
//! hash-consing hot paths of `enframe-network` (node interning) and
//! `enframe-obdd` (unique and computed tables), where keys are two or
//! three machine words and lookups dominate. This module provides the
//! `rustc-hash` algorithm — one multiply and one rotate per word — as a
//! drop-in [`std::hash::BuildHasher`]. No crates-io access, so it lives
//! in-tree.
//!
//! All inputs here are internal indices, never attacker-controlled, so
//! the loss of DoS resistance is irrelevant.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 64-bit golden-ratio multiplier (same constant as `rustc-hash`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc FxHash state: `hash = (hash.rotl(5) ^ word) * SEED` per
/// input word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One-shot mix of two 32-bit words into a table index seed — the
/// open-addressed tables in `enframe-obdd` key on packed `(hi, lo)` edge
/// pairs and want a full 64-bit product without `Hasher` plumbing. Slice
/// the *high* bits for power-of-two table indexing: the final multiply
/// concentrates entropy there.
#[inline]
pub fn mix2(a: u32, b: u32) -> u64 {
    ((a as u64) << 32 | b as u64)
        .wrapping_mul(SEED)
        .rotate_left(ROTATE)
        .wrapping_mul(SEED)
}

/// One-shot mix of three 32-bit words (computed-table keys).
#[inline]
pub fn mix3(a: u32, b: u32, c: u32) -> u64 {
    mix2(a, b).rotate_left(ROTATE).wrapping_mul(SEED) ^ mix2(b.rotate_left(16), c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_and_word_sensitive() {
        let bh = FxBuildHasher::default();
        assert_eq!(bh.hash_one((1u32, 2u32)), bh.hash_one((1u32, 2u32)));
        assert_ne!(bh.hash_one((1u32, 2u32)), bh.hash_one((2u32, 1u32)));
        assert_ne!(bh.hash_one(0u64), bh.hash_one(1u64));
    }

    #[test]
    fn byte_writes_match_padded_tail_rule() {
        // Different lengths of the same prefix must not collide (length
        // is folded into the tail word).
        let bh = FxBuildHasher::default();
        assert_ne!(
            bh.hash_one(b"abc".as_slice()),
            bh.hash_one(b"abc\0".as_slice())
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(31)), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(7, 7 * 31)], 7);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&42));
    }

    #[test]
    fn mixers_spread_high_bits() {
        // Adjacent keys must land in distinct slots of a small table when
        // indexed by the high bits — the property the subtables rely on.
        let bits = 10;
        let mut slots: FxHashSet<u64> = FxHashSet::default();
        for i in 0..512u32 {
            slots.insert(mix2(i, 0) >> (64 - bits));
        }
        assert!(
            slots.len() > 300,
            "mix2 high bits too clustered: {}",
            slots.len()
        );
        let mut slots3: FxHashSet<u64> = FxHashSet::default();
        for i in 0..512u32 {
            slots3.insert(mix3(i, 1, 2) >> (64 - bits));
        }
        assert!(
            slots3.len() > 300,
            "mix3 high bits too clustered: {}",
            slots3.len()
        );
    }
}
