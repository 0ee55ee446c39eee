//! The two hashers behind every map keyed by rows or values.
//!
//! The standard library's SipHash-1-3 is keyed to resist crafted
//! collisions and costs more than the rest of a lookup whose key is a
//! handful of integers. Neither hasher here is SipHash; they differ in
//! what they give up:
//!
//! * [`RowHasher`] — *batch-local* tables: change coalescing and run
//!   grouping hash every row of a batch once to find its equals within
//!   that batch. The rows are in memory already, the tables die with the
//!   batch and are looked up, never iterated, so the hasher is unkeyed
//!   and the same in every run.
//! * [`SeededHasher`] — *resident* maps: the auxiliary stores' groups and
//!   key index, the summary store's groups and the engine's foreign-key
//!   index live as long as the warehouse and are keyed by values the
//!   sources sent. Each map draws its own key from the standard library's
//!   `RandomState`, as a `std` `HashMap` would, so a source cannot aim
//!   its keys at one bucket chain without knowing that key, and no two
//!   maps iterate in the same order.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Feeds `bytes` to `add` eight at a time, little-endian; the tail is
/// zero-padded and carries its length, which keeps "ab" + "" apart from
/// "a" + "b\0".
#[inline]
fn add_bytes(bytes: &[u8], mut add: impl FnMut(u64)) {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        add(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 56));
    }
}

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
        add_bytes(bytes, |word| self.add(word));
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

/// A folded-multiply [`Hasher`] keyed per map: each eight bytes written
/// are xored into the state, which is then multiplied by the map's key
/// to 128 bits and folded back to 64 (high half xor low half), so every
/// input bit reaches every output bit in one multiply.
///
/// **What it resists.** A source that does not know a map's key cannot
/// predict which keys share a bucket, and the key is drawn per map from
/// `std`'s `RandomState` (operating-system entropy) — the protection a
/// `std` `HashMap` gives, by the same seed. **What it does not.** It is
/// not a cryptographic MAC: nobody has shown that hash values, were they
/// ever to leave the process, could not be used to recover the key. None
/// do — no hash value or iteration order of a map under this hasher
/// reaches a result, a snapshot or the log (whatever needs an order
/// sorts), and nothing may start depending on one.
#[derive(Debug, Clone, Copy)]
pub struct SeededHasher {
    state: u64,
    key: u64,
}

#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl SeededHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.key);
    }
}

impl Hasher for SeededHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        add_bytes(bytes, |word| self.add(word));
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

    /// One more keyed round, so the last word written is as mixed as the
    /// first.
    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.key.rotate_left(32))
    }
}

/// Builds [`SeededHasher`]s that all share the one key this builder drew
/// from `RandomState` when it was made: equal keys hash equally within a
/// map, and differently in the next map.
#[derive(Debug, Clone, Copy)]
pub struct SeededBuildHasher {
    seed: u64,
    key: u64,
}

impl Default for SeededBuildHasher {
    fn default() -> Self {
        let entropy = RandomState::new();
        SeededBuildHasher {
            seed: entropy.hash_one(0u8),
            // Odd, so that multiplying by it loses no bit.
            key: entropy.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for SeededBuildHasher {
    type Hasher = SeededHasher;

    #[inline]
    fn build_hasher(&self) -> SeededHasher {
        SeededHasher {
            state: self.seed,
            key: self.key,
        }
    }
}

/// A `HashMap` under [`SeededHasher`], keyed per map.
pub type SeededHashMap<K, V> = HashMap<K, V, SeededBuildHasher>;

/// A `HashSet` under [`SeededHasher`], keyed per set.
pub type SeededHashSet<K> = HashSet<K, SeededBuildHasher>;

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

    /// `HashMap` picks a bucket from the low bits: 4096 consecutive ids
    /// must not pile into a few of 4096 buckets.
    fn assert_sequential_ids_spread(hash_of: impl Fn(&crate::Row) -> u64) {
        let mut buckets = vec![0u32; 4096];
        for id in 0..4096i64 {
            buckets[(hash_of(&row![id, 12.25]) & 4095) as usize] += 1;
        }
        let used = buckets.iter().filter(|n| **n > 0).count();
        let worst = buckets.iter().max().copied().unwrap_or(0);
        assert!(used > 2048, "only {used} of 4096 buckets used");
        assert!(worst <= 16, "{worst} keys in one bucket");
    }

    #[test]
    fn sequential_keys_spread_over_the_low_bits() {
        assert_sequential_ids_spread(hash_of);
    }

    #[test]
    fn seeded_maps_agree_within_a_map_and_not_across_maps() {
        // Within a map equal rows hash equally, whoever built the hasher.
        let one = SeededBuildHasher::default();
        let copy = one;
        assert_eq!(
            one.hash_one(row![1, "a", 2.5]),
            copy.hash_one(row![1, "a", 2.5])
        );
        assert_ne!(one.hash_one(row![1, "a", 2.5]), one.hash_one(row![1, "a"]));
        for _ in 0..4 {
            let keyed = SeededBuildHasher::default();
            assert_sequential_ids_spread(|r| keyed.hash_one(r));
        }

        // Two maps built from the same insertions hold the same entries
        // under different keys: some pair of eight orders 256 ids differently
        // (one pair agreeing by chance has probability 1/256!).
        let orders: Vec<Vec<i64>> = (0..8)
            .map(|_| {
                let set: SeededHashSet<i64> = (0..256).collect();
                set.into_iter().collect()
            })
            .collect();
        assert!(orders.iter().any(|order| *order != orders[0]));
        let (a, b): (SeededHashSet<i64>, SeededHashSet<i64>) =
            ((0..256).collect(), (0..256).collect());
        assert_eq!(a, b);
    }
}
