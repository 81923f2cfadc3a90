//! The content digest: one 64-bit hash for every byte string the caches
//! key on — file contents, project keys, tool and declaration
//! fingerprints, and the on-disk envelope's payload check.
//!
//! A folded multiply (the 128-bit product of two words, high half XOR low
//! half) absorbs 16 input bytes per step, read as two little-endian words,
//! so the output is the same on every platform. The length is mixed in
//! before and after the data, so inputs that differ only in trailing zero
//! bytes still differ. This is not a cryptographic hash: keys are derived
//! from the analyzer's own inputs, and equal keys are treated as equal
//! content. It only has to spread those inputs well, and it should cost
//! little per byte, since a daemon request digests every project file.

/// Mixing constants (odd, high-entropy 64-bit words).
const K0: u64 = 0xa076_1d64_78bd_642f;
const K1: u64 = 0xe703_7ed1_a0b4_28db;
const K2: u64 = 0x8ebc_6af0_9c88_c6e3;
const K3: u64 = 0x5899_65cc_7537_4cc3;

/// The 128-bit product of `a` and `b`, folded to 64 bits.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Reads up to 8 bytes as a little-endian word, zero-padded.
fn word(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Digests `bytes` to 64 bits.
pub fn digest64(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut acc = fold_mul(len ^ K0, K1);
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let (a, b) = block.split_at(8);
        acc = fold_mul(word(a) ^ K1, word(b) ^ acc);
    }
    let tail = blocks.remainder();
    let (a, b) = tail.split_at(tail.len().min(8));
    acc = fold_mul(word(a) ^ K2, word(b) ^ acc ^ K3);
    fold_mul(acc ^ K0, len ^ K2)
}

/// A content-derived cache key: the [`digest64`] of the content plus its
/// length in bytes.
///
/// Two sources map to the same key only if both their 64-bit digest and
/// their byte length agree — good enough to treat "same key" as "same
/// content" for cache purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey {
    /// [`digest64`] of the content.
    pub hash: u64,
    /// Content length in bytes.
    pub len: u64,
}

impl ContentKey {
    /// Keys the given content.
    pub fn of(bytes: &[u8]) -> ContentKey {
        ContentKey {
            hash: digest64(bytes),
            len: bytes.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, non-repeating test input.
    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn known_answers() {
        // Pinned: the digest keys files on disk, so any change to it must
        // come with a PSC1 format-version bump.
        let expected: [(usize, u64); 8] = [
            (0, 0xdcfc_cef8_965e_1731),
            (1, 0x4c87_5a77_0218_23b2),
            (7, 0x8558_95d0_3220_06db),
            (8, 0xa189_9817_bd62_9695),
            (15, 0x3aaa_698b_1f1a_7dbf),
            (16, 0xe83c_a77c_f34a_e8f7),
            (17, 0xd210_32f3_470e_8883),
            (1000, 0xc5c8_2256_81fb_bb49),
        ];
        for (len, want) in expected {
            assert_eq!(digest64(&sample(len)), want, "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let base = sample(4096);
        let digest = digest64(&base);
        let mut flipped = base.clone();
        for bit in 0..base.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest64(&flipped), digest, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn trailing_zeros_and_prefixes_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for len in 0..64 {
            assert!(seen.insert(digest64(&vec![0u8; len])), "zeros x{len}");
            assert!(seen.insert(digest64(&sample(len + 64))), "prefix {len}");
        }
    }

    #[test]
    fn content_keys_compare_by_content() {
        let a = ContentKey::of(b"<?php echo $_GET['x'];");
        assert_eq!(a, ContentKey::of(b"<?php echo $_GET['x'];"));
        assert_ne!(a, ContentKey::of(b"<?php echo $_GET['y'];"));
        assert_ne!(ContentKey::of(b"ab"), ContentKey::of(b"abab"));
    }
}
