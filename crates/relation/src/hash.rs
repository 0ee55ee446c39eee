//! The hasher behind every map keyed by rows or values.
//!
//! The standard library's SipHash-1-3 is keyed to resist crafted
//! collisions and costs more than the rest of a lookup whose key is a
//! handful of integers. [`SeededHasher`] is a folded multiply instead,
//! keyed per map like SipHash: every map keyed by values a source sent —
//! the auxiliary stores' groups and key index, the foreign-key index, the
//! summary store's groups, and the batch-local tables of change
//! coalescing, run grouping and the dimension-delta buckets — draws its
//! own key from the standard library's `RandomState`, as a `std` `HashMap`
//! would. A source that does not know that key cannot choose keys whose
//! hashes share a bucket, whether the map is iterated or only looked up,
//! and no two maps iterate in the same order.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

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

/// A folded-multiply [`Hasher`] keyed per map: each eight bytes written
/// are xored into the state, which is then multiplied by the map's key
/// to 128 bits and folded back to 64 (high half xor low half), so every
/// input bit reaches every output bit in one multiply. A `u128` — how a
/// `Value` writes its tag and payload — takes one such round, its high
/// half xored into the multiplier: a row costs a multiply per value.
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

    /// Sixteen bytes in one round: the low half xored into the state, the
    /// high half into the multiplier (a `Value`'s payload and its tag).
    #[inline]
    fn write_u128(&mut self, v: u128) {
        let (low, high) = (v as u64, (v >> 64) as u64);
        self.state = folded_multiply(self.state ^ low, self.key.rotate_left(32) ^ high);
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
    use std::hash::BuildHasher;

    #[test]
    fn equal_rows_hash_equally_and_near_rows_apart() {
        let keyed = SeededBuildHasher::default();
        let hash_of = |v: &crate::Row| keyed.hash_one(v);
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
        let keyed = SeededBuildHasher::default();
        let hash_of = |bytes: &[u8]| {
            let mut h = keyed.build_hasher();
            h.write(bytes);
            h.finish()
        };
        let bytes: Vec<u8> = (1..=20).collect();
        let mut hashes: Vec<u64> = (0..=bytes.len()).map(|n| hash_of(&bytes[..n])).collect();
        // A zero byte more is a different string.
        hashes.push(hash_of(&[1, 2, 3, 0]));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), bytes.len() + 2);
    }

    #[test]
    fn every_bit_written_counts() {
        let keyed = SeededBuildHasher::default();
        // A byte, words, and a value's tag and payload in one `u128`.
        let hash_of = |words: &[u64], tagged: u128| {
            let mut h = keyed.build_hasher();
            h.write_u8(7);
            for &word in words {
                h.write_u64(word);
            }
            h.write_u128(tagged);
            h.finish()
        };
        let (words, tagged) = ([0x0123_4567_89ab_cdef, 0, u64::MAX], 3 << 64 | 42);
        let mut hashes = vec![hash_of(&words, tagged)];
        for word in 0..words.len() {
            for bit in 0..64 {
                let mut flipped = words;
                flipped[word] ^= 1 << bit;
                hashes.push(hash_of(&flipped, tagged));
            }
        }
        hashes.extend((0..128).map(|bit| hash_of(&words, tagged ^ 1 << bit)));
        // Zero words written are not lost.
        hashes.extend((0..words.len()).map(|n| hash_of(&[0; 3][..n], 0)));
        let written = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), written);
    }

    /// How many of `keys` land in each of 4096 buckets picked by the low
    /// bits of `hash_of`, as `HashMap` picks them: the buckets used, and
    /// the fullest one's count.
    fn spread<K>(keys: &[K], hash_of: impl Fn(&K) -> u64) -> (usize, u32) {
        let mut buckets = vec![0u32; 4096];
        for key in keys {
            buckets[(hash_of(key) & 4095) as usize] += 1;
        }
        let used = buckets.iter().filter(|n| **n > 0).count();
        (used, buckets.into_iter().max().unwrap_or(0))
    }

    #[test]
    fn sequential_keys_spread_over_the_low_bits() {
        let ids: Vec<crate::Row> = (0..4096i64).map(|id| row![id, 12.25]).collect();
        for _ in 0..4 {
            let keyed = SeededBuildHasher::default();
            let (used, worst) = spread(&ids, |r| keyed.hash_one(r));
            assert!(used > 2048, "only {used} of 4096 buckets used");
            assert!(worst <= 16, "{worst} keys in one bucket");
        }
    }

    /// The unkeyed multiply-rotate hasher batch-local maps once used:
    /// `h ← (h.rotl(5) ^ w) · K` per word, `h.rotl(26)` at the end, with a
    /// public odd `K`. Over a one-`Int` row (arity, tag, value) the last
    /// round is a bijection of the value, so anyone can invert it.
    const UNKEYED_K: u64 = 0x517c_c1b7_2722_0a95;

    fn unkeyed_hash(id: i64) -> u64 {
        let add = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(UNKEYED_K);
        add(add(add(0, 1), 0), id as u64).rotate_left(26)
    }

    #[test]
    fn keys_crafted_to_collide_under_a_public_multiplier_spread_under_a_seeded_one() {
        // K⁻¹ mod 2⁶⁴ by Newton's iteration (each step doubles the bits).
        let mut inverse = UNKEYED_K;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(UNKEYED_K.wrapping_mul(inverse)));
        }
        assert_eq!(UNKEYED_K.wrapping_mul(inverse), 1);
        // The state before the value's round, then 4096 final states
        // whose bits 38..50 — the bucket bits after the rotate — are zero.
        let before = {
            let add = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(UNKEYED_K);
            add(add(0, 1), 0).rotate_left(5)
        };
        let ids: Vec<i64> = (0..4096u64)
            .map(|state| (state.wrapping_mul(inverse) ^ before) as i64)
            .collect();
        assert_eq!(spread(&ids, |&id| unkeyed_hash(id)), (1, 4096));

        let rows: Vec<crate::Row> = ids.iter().map(|&id| row![id]).collect();
        let keyed = SeededBuildHasher::default();
        let (_, worst) = spread(&rows, |r| keyed.hash_one(r));
        assert!(worst <= 32, "{worst} crafted keys in one bucket");
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
