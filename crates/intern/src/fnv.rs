//! FNV-1a hashing: a [`std::hash::BuildHasher`] for hot-path maps and sets,
//! plus the one-shot [`fnv1a_64`] digest.
//!
//! Written in-crate (the container vendors no hashing crates). FNV-1a is a
//! multiply-xor hash with good avalanche behaviour on the short keys the
//! analyzer hashes constantly — interned [`crate::Symbol`] ids, small
//! tuples, file paths. Unlike the std `HashMap` default (SipHash, keyed
//! and DoS-resistant), FNV is unkeyed and much cheaper per byte; the
//! analyzer only ever hashes its own deterministic data, so the trade is
//! free.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// FNV-1a offset basis (64-bit).
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a. Cache keys use the much cheaper
/// [`crate::digest64`]; this stays for callers that need FNV-1a values.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a [`Hasher`] for `HashMap`/`HashSet` use.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(OFFSET_BASIS)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

/// [`BuildHasher`] producing [`FnvHasher`]s; `Default` so the map aliases
/// below work with `::default()`/`::new`-style construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` keyed with FNV-1a instead of SipHash.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed with FNV-1a instead of SipHash.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_bytes_same_hash() {
        let a = fnv1a_64(b"<?php echo $_GET['x'];");
        let b = fnv1a_64(b"<?php echo $_GET['x'];");
        assert_eq!(a, b);
    }

    #[test]
    fn one_byte_edit_changes_hash() {
        let a = fnv1a_64(b"<?php echo $_GET['x'];");
        let b = fnv1a_64(b"<?php echo $_GET['y'];");
        assert_ne!(a, b);
    }

    #[test]
    fn known_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hasher_streams_like_oneshot() {
        let mut h = FnvHasher::default();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), fnv1a_64(b"hello world"));
    }

    #[test]
    fn fnv_map_and_set_work() {
        let mut m: FnvHashMap<&str, u32> = FnvHashMap::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FnvHashSet<u64> = FnvHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }
}
