//! Lineage fingerprints: streaming FxHash-based content hashing.
//!
//! The artifact store (`enframe-store`) caches compiled forms on disk
//! keyed by a *lineage fingerprint* — a content hash of everything that
//! determines the compiled functions: the event network, the target set,
//! and the engine options that shape them (variable order heuristic,
//! var-groups). It does not name the node layout (see
//! `enframe_store::fingerprint_network`). This module provides the hashing substrate:
//! a small streaming hasher over [`crate::fxhash::FxHasher`] with
//! explicit **domain separation** (every field is tagged before its
//! payload), so structurally different inputs cannot collide by
//! accident of flattening — `["ab","c"]` and `["a","bc"]` hash
//! differently, as do a node's children and its payload.
//!
//! FxHash is not cryptographic; the fingerprint guards against *stale*
//! artifacts (a changed network silently reusing an old compilation),
//! not against adversaries. Corruption of the stored bytes themselves
//! is covered separately by the store's per-section CRCs and whole-file
//! digest.

use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// A 64-bit content fingerprint (see the module docs for what it keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the fixed-width hex form produced by `Display`.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// A streaming, domain-separated content hasher.
///
/// Every write is prefixed with a one-byte field tag, and variable-
/// length payloads carry their length, so the hash of a structure is
/// injective in its field boundaries (up to 64-bit collisions). The
/// initial state is derived from a caller-chosen domain string, so two
/// different uses of the hasher (say, a network fingerprint and a
/// whole-file digest) never collide structurally.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    inner: FxHasher,
}

// Field tags: one byte of domain separation per write kind.
const TAG_U64: u8 = 1;
const TAG_BYTES: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_LEN: u8 = 5;
const TAG_DISCRIMINANT: u8 = 6;

impl FingerprintHasher {
    /// A fresh hasher whose state is seeded from `domain`.
    pub fn new(domain: &str) -> FingerprintHasher {
        let mut inner = FxHasher::default();
        inner.write(domain.as_bytes());
        FingerprintHasher { inner }
    }

    /// Folds a 64-bit word into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.inner.write_u8(TAG_U64);
        self.inner.write_u64(v);
    }

    /// Folds a 32-bit word (widened; shares the u64 tag).
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Folds a usize (widened; shares the u64 tag).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.inner.write_u8(TAG_BYTES);
        self.inner.write_u64(bytes.len() as u64);
        self.inner.write(bytes);
    }

    /// Folds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.inner.write_u8(TAG_STR);
        self.inner.write_u64(s.len() as u64);
        self.inner.write(s.as_bytes());
    }

    /// Folds an `f64` by bit pattern (so `-0.0` and `0.0` differ and
    /// NaN payloads are preserved — the fingerprint is of *bytes that
    /// will be stored*, not of real-number values).
    pub fn write_f64_bits(&mut self, v: f64) {
        self.inner.write_u8(TAG_F64);
        self.inner.write_u64(v.to_bits());
    }

    /// Folds a collection length — call before hashing the elements so
    /// adjacent collections cannot be re-bracketed.
    pub fn write_len(&mut self, n: usize) {
        self.inner.write_u8(TAG_LEN);
        self.inner.write_u64(n as u64);
    }

    /// Folds an enum discriminant (kept distinct from data words so a
    /// variant switch always changes the hash).
    pub fn write_discriminant(&mut self, d: u32) {
        self.inner.write_u8(TAG_DISCRIMINANT);
        self.inner.write_u64(d as u64);
    }

    /// The fingerprint of everything written so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FingerprintHasher::new("test");
        let mut b = FingerprintHasher::new("test");
        for h in [&mut a, &mut b] {
            h.write_u64(42);
            h.write_str("targets");
            h.write_f64_bits(0.25);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn domain_separates() {
        let mut a = FingerprintHasher::new("net");
        let mut b = FingerprintHasher::new("frame");
        a.write_u64(7);
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn string_boundaries_matter() {
        let mut a = FingerprintHasher::new("t");
        a.write_str("ab");
        a.write_str("c");
        let mut b = FingerprintHasher::new("t");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tags_separate_write_kinds() {
        let mut a = FingerprintHasher::new("t");
        a.write_u64(1.0f64.to_bits());
        let mut b = FingerprintHasher::new("t");
        b.write_f64_bits(1.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_round_trips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(Fingerprint::from_hex(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex("123"), None);
    }
}
