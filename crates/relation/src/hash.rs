//! A fast hasher for rows the caller already holds.
//!
//! Change coalescing and run grouping hash every row of a batch once to
//! find its equals *within that batch*. The standard library's SipHash is
//! keyed to resist crafted collisions, which those tables do not need —
//! the rows are in memory already and the tables die with the batch — and
//! it costs more than the rest of the lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate (`FxHash`-style) [`Hasher`]: one rotate, one xor and
/// one multiply per eight bytes written.
///
/// **Not collision-resistant.** Use it only for tables whose keys are rows
/// of a batch the caller already holds, and never let a hash value, or an
/// iteration order that depends on one, reach a result, a snapshot or a
/// log: the callers in `md-maintain` look keys up and never iterate.
#[derive(Debug, Default, Clone, Copy)]
pub struct RowHasher {
    hash: u64,
}

/// An odd constant with no short bit pattern (the 64-bit `FxHash` one).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl RowHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for RowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            // The length keeps "ab" + "" apart from "a" + "b\0".
            self.add(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The multiply leaves its best-mixed bits at the top and `HashMap`
    /// indexes buckets by the bottom ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`RowHasher`]s; every one starts from the same state, so equal
/// keys hash equally in every map and every run.
pub type RowBuildHasher = BuildHasherDefault<RowHasher>;

/// A `HashMap` under [`RowHasher`]. See the hasher for when that is safe.
pub type RowHashMap<K, V> = HashMap<K, V, RowBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        RowBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_rows_hash_equally_and_near_rows_apart() {
        assert_eq!(hash_of(&row![1, "a", 2.5]), hash_of(&row![1, "a", 2.5]));
        let distinct = [
            row![1, "a", 2.5],
            row![2, "a", 2.5],
            row![1, "b", 2.5],
            row![1, "a", 2.75],
            row![1, "a"],
            row![1, "", "a"],
            row![1, "a", ""],
            row![0.0],
            row![-0.0],
            row![0],
            row![false],
        ];
        let mut hashes: Vec<u64> = distinct.iter().map(hash_of).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), distinct.len());
    }

    #[test]
    fn byte_strings_of_every_tail_length_are_told_apart() {
        let bytes: Vec<u8> = (1..=20).collect();
        let mut hashes: Vec<u64> = (0..=bytes.len())
            .map(|n| {
                let mut h = RowHasher::default();
                h.write(&bytes[..n]);
                h.finish()
            })
            .collect();
        // A zero byte more is a different string.
        let mut h = RowHasher::default();
        h.write(&[1, 2, 3, 0]);
        hashes.push(h.finish());
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), bytes.len() + 2);
    }

    #[test]
    fn sequential_keys_spread_over_the_low_bits() {
        // `HashMap` picks a bucket from the low bits: 4096 consecutive ids
        // must not pile into a few of 4096 buckets.
        let mut buckets = vec![0u32; 4096];
        for id in 0..4096i64 {
            buckets[(hash_of(&row![id, 12.25]) & 4095) as usize] += 1;
        }
        let used = buckets.iter().filter(|n| **n > 0).count();
        let worst = buckets.iter().max().copied().unwrap_or(0);
        assert!(used > 2048, "only {used} of 4096 buckets used");
        assert!(worst <= 16, "{worst} keys in one bucket");
    }
}
