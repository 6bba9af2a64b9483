//! A minimal FxHash implementation (the same multiply-xor scheme used by
//! `rustc-hash`), so that hot hash maps keyed by small integers and bitsets
//! do not pay the SipHash cost. Kept in-house to stay dependency-free; the
//! algorithm is ~20 lines and HashDoS resistance is irrelevant for an
//! in-memory mining workload.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

/// The little-endian word of a 1–7-byte tail, zero-padded — built from
/// fixed-width loads, so it compiles to no `memcpy` call. For 4–7
/// bytes, two overlapping `u32` reads (front and back) cover the tail;
/// the bytes they share sit at the same position in both, so or-ing
/// them loses nothing.
#[inline]
fn tail_word(rem: &[u8]) -> u64 {
    let n = rem.len();
    if n >= 4 {
        let lo = u32::from_le_bytes(rem[..4].try_into().expect("four bytes")) as u64;
        let hi = u32::from_le_bytes(rem[n - 4..].try_into().expect("four bytes")) as u64;
        lo | hi << (8 * (n - 4))
    } else {
        rem.iter().rev().fold(0, |w, &b| w << 8 | b as u64)
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.add_to_hash(tail_word(rem));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` specialised to FxHash.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` specialised to FxHash.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"conditional functional dependency");
        b.write(b"conditional functional dependency");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    /// The tail word is pinned: every hash value, every `Dict` table
    /// layout and every `FxHashMap` iteration order rests on it. The
    /// reference is the zero-padded copy the loads replaced.
    #[test]
    fn write_matches_the_zero_padded_tail_at_every_length() {
        fn reference(bytes: &[u8]) -> u64 {
            let mut h = FxHasher::default();
            let mut chunks = bytes.chunks_exact(8);
            for chunk in &mut chunks {
                h.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut buf = [0u8; 8];
                buf[..rem.len()].copy_from_slice(rem);
                h.add_to_hash(u64::from_le_bytes(buf));
            }
            h.finish()
        }
        // xorshift64: random bytes without a dependency
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..=64 {
            for _ in 0..32 {
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let mut h = FxHasher::default();
                h.write(&bytes);
                assert_eq!(h.finish(), reference(&bytes), "length {len}: {bytes:?}");
            }
        }
    }

    #[test]
    fn unaligned_tail_is_hashed() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"123456789");
        b.write(b"123456788");
        assert_ne!(a.finish(), b.finish());
    }
}
