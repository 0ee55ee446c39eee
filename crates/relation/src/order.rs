//! Key order: the one kernel behind every sorted listing of rows.
//!
//! Snapshot images list their groups in key order, summary reads return
//! rows in row order, and both used to be comparison sorts of heap
//! [`Row`]s — two pointer chases per comparison. [`sort_by_row`] instead
//! builds a *normalized prefix* per item (Graefe's "poor man's normalized
//! keys", *Implementing Sorting in Database Systems*, ACM CSUR 2006): two
//! words whose unsigned order agrees with [`Row`]'s `Ord` wherever they
//! differ. The prefixes are radix-sorted, and rows are compared only where
//! two prefixes tie.
//!
//! Each of the first two values of a row fills one word:
//!
//! * `Int` — the two's-complement bits with the sign bit flipped;
//! * `Double` — the bits of the NaN-last total order
//!   ([`total_cmp_nan_last`](crate::value::total_cmp_nan_last)), every NaN
//!   mapped to `u64::MAX`, which no number reaches;
//! * `Bool` — 0 or 1;
//! * `Str` — its first eight bytes, big-endian, zero-padded.
//!
//! A NaN or a string does not determine its value (payloads, bytes past
//! the eighth), so the prefix stops after one: equal words there must not
//! let a later column decide. A column whose type varies across the items
//! would have to order by type tag; the prefix stops before it instead,
//! so no tag is ever stored. A row too short for a word leaves it 0, which
//! is never above what a longer row with the same leading values holds —
//! as `Row`'s order puts a proper prefix first.
//!
//! The kernel reads each item's values as a slice, so rows and the
//! [`GroupKey`](crate::GroupKey)s a store holds in place sort alike.

#[cfg(any(test, doc))]
use crate::row::Row;
use crate::value::{DataType, Value};

/// Number of leading values a prefix holds (one word each).
const WORDS: usize = 2;

/// Below this many items the prefixes are ordered by comparison: a radix
/// pass costs a 256-slot count array however few items it moves.
const RADIX_MIN: usize = 256;

/// One item's prefix and its position in the input.
#[derive(Clone, Copy, Default)]
struct Keyed {
    prefix: [u64; WORDS],
    idx: usize,
}

/// Sorts `items` by the values `row` names in each, stably: the order
/// left is exactly `items.sort_by(|a, b| row(a).cmp(row(b)))`'s, which is
/// [`Row`]'s. One pass builds every item's prefix, an LSD radix sort
/// orders the prefixes over only the bytes that vary (below 256 items, a
/// comparison of the prefixes does), the values' order breaks ties only
/// inside runs of equal prefixes, and the items are permuted once, in
/// place.
pub fn sort_by_row<T>(items: &mut [T], row: impl Fn(&T) -> &[Value]) {
    if items.len() < 2 {
        return;
    }
    let mut keyed = prefixes(items, &row);
    if keyed.len() < RADIX_MIN {
        keyed.sort_unstable_by_key(|k| (k.prefix, k.idx));
    } else {
        radix_sort(&mut keyed);
    }
    let mut start = 0;
    while start < keyed.len() {
        let prefix = keyed[start].prefix;
        let len = keyed[start..]
            .iter()
            .take_while(|k| k.prefix == prefix)
            .count();
        if len > 1 {
            // Stable, and the run is in input order: equal rows keep theirs.
            keyed[start..start + len].sort_by(|a, b| row(&items[a.idx]).cmp(row(&items[b.idx])));
        }
        start += len;
    }
    permute(items, &mut keyed);
}

/// The prefix of every item, in input order.
fn prefixes<T>(items: &[T], row: &impl Fn(&T) -> &[Value]) -> Vec<Keyed> {
    // Per column: the type the first item to reach it had, and whether
    // another item disagreed.
    let mut types: [Option<DataType>; WORDS] = [None; WORDS];
    let mut mixed = [false; WORDS];
    let mut keyed: Vec<Keyed> = items
        .iter()
        .enumerate()
        .map(|(idx, item)| {
            let mut prefix = [0; WORDS];
            for (col, value) in row(item).iter().take(WORDS).enumerate() {
                let ty = value.data_type();
                mixed[col] |= *types[col].get_or_insert(ty) != ty;
                let (word, decided) = word(value);
                prefix[col] = word;
                if !decided {
                    break;
                }
            }
            Keyed { prefix, idx }
        })
        .collect();
    if let Some(first_mixed) = mixed.iter().position(|&m| m) {
        for k in &mut keyed {
            k.prefix[first_mixed..].fill(0);
        }
    }
    keyed
}

/// A value's order-preserving word among values of its type, and whether
/// the word determines the value (so that the next column may refine it).
fn word(value: &Value) -> (u64, bool) {
    match value {
        Value::Int(i) => ((*i as u64) ^ (1 << 63), true),
        Value::Double(d) if d.is_nan() => (u64::MAX, false),
        Value::Double(d) => {
            let bits = d.to_bits();
            let ordered = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            (ordered, true)
        }
        Value::Bool(b) => (u64::from(*b), true),
        Value::Str(s) => {
            let mut head = [0u8; 8];
            let n = s.len().min(8);
            head[..n].copy_from_slice(&s.as_bytes()[..n]);
            (u64::from_be_bytes(head), false)
        }
    }
}

/// Stable LSD radix sort of `keyed` by prefix, one pass per byte that
/// differs between some two prefixes; one read of `keyed` counts them all.
fn radix_sort(keyed: &mut Vec<Keyed>) {
    let first = keyed[0].prefix;
    let mut varies = [0u64; WORDS];
    for k in keyed.iter() {
        for (v, (a, b)) in varies.iter_mut().zip(k.prefix.iter().zip(&first)) {
            *v |= a ^ b;
        }
    }
    // Each varying byte as (word, shift), least significant first.
    let digits: Vec<(usize, u32)> = (0..WORDS)
        .rev()
        .flat_map(|w| (0..64).step_by(8).map(move |shift| (w, shift)))
        .filter(|&(w, shift)| (varies[w] >> shift) as u8 != 0)
        .collect();
    let digit = |k: &Keyed, (w, shift): (usize, u32)| (k.prefix[w] >> shift) as u8 as usize;
    let mut starts = vec![[0usize; 256]; digits.len()];
    for k in keyed.iter() {
        for (counts, &d) in starts.iter_mut().zip(&digits) {
            counts[digit(k, d)] += 1;
        }
    }
    let mut spare = vec![Keyed::default(); keyed.len()];
    for (starts, &d) in starts.iter_mut().zip(&digits) {
        let mut at = 0;
        for slot in starts.iter_mut() {
            let count = *slot;
            *slot = at;
            at += count;
        }
        for k in keyed.iter() {
            let slot = &mut starts[digit(k, d)];
            spare[*slot] = *k;
            *slot += 1;
        }
        std::mem::swap(keyed, &mut spare);
    }
}

/// Moves `items[keyed[i].idx]` to position `i` for every `i`, following
/// each cycle of the permutation once; `keyed`'s indices are spent.
fn permute<T>(items: &mut [T], keyed: &mut [Keyed]) {
    for start in 0..items.len() {
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut keyed[at].idx, at);
            if from == start {
                break;
            }
            items.swap(at, from);
            at = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    /// The reference the kernel must agree with.
    fn reference(rows: &[Row]) -> Vec<Row> {
        let mut sorted = rows.to_vec();
        sorted.sort();
        sorted
    }

    fn kernel(rows: &[Row]) -> Vec<Row> {
        let mut sorted = rows.to_vec();
        sort_by_row(&mut sorted, Row::values);
        sorted
    }

    #[test]
    fn words_order_each_type_as_values_do() {
        let ordered = [
            vec![
                Value::Int(i64::MIN),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(i64::MAX),
            ],
            vec![
                Value::Double(f64::NEG_INFINITY),
                Value::Double(-1.5),
                Value::Double(-f64::from_bits(1)),
                Value::Double(-0.0),
                Value::Double(0.0),
                Value::Double(f64::from_bits(1)),
                Value::Double(f64::INFINITY),
            ],
            vec![Value::Bool(false), Value::Bool(true)],
            vec![
                Value::str(""),
                Value::str("a"),
                Value::str("a\0"),
                Value::str("b"),
            ],
        ];
        for values in ordered {
            for pair in values.windows(2) {
                assert!(pair[0] < pair[1]);
                assert!(
                    word(&pair[0]).0 <= word(&pair[1]).0,
                    "{} vs {}",
                    pair[0],
                    pair[1]
                );
            }
        }
        for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)] {
            assert_eq!(word(&Value::Double(nan)), (u64::MAX, false));
            assert!(word(&Value::Double(f64::INFINITY)).0 < u64::MAX);
        }
    }

    #[test]
    fn ties_in_the_prefix_are_broken_by_the_rows() {
        let rows = vec![
            row!["abcdefgh-z", 1],
            row!["abcdefgh-a", 2],
            row!["a\0", 0],
            row!["a", 9],
            row![f64::NAN, 1],
            row![-f64::NAN, 2],
            row![1.0, 5],
            row![1.0],
            row![],
        ];
        assert_eq!(kernel(&rows), reference(&rows));
    }

    #[test]
    fn a_column_of_mixed_types_orders_by_type_tag() {
        let rows = vec![
            row![2, "x"],
            row![1, 7],
            row![1, true],
            row![1, 2.5],
            row![0.5],
        ];
        assert_eq!(kernel(&rows), reference(&rows));
    }

    #[test]
    fn equal_rows_keep_their_input_order() {
        let mut items: Vec<(Row, usize)> = [3, 1, 3, 2, 1, 3]
            .iter()
            .enumerate()
            .map(|(i, &k)| (row![k], i))
            .collect();
        sort_by_row(&mut items, |(r, _)| r.values());
        let tags: Vec<usize> = items.iter().map(|(_, i)| *i).collect();
        assert_eq!(tags, [1, 4, 3, 0, 2, 5]);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use std::ops::Range;

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn doubles() -> [f64; 13] {
        [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_00FF),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            1.5,
            -1.5,
        ]
    }

    const STRS: [&str; 11] = [
        "",
        "a",
        "a\0",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghi",
        "abcdefghj",
        "é",
        "世界",
        "🦀",
        "zz",
    ];

    /// Values that stress every stop rule: integers at the extremes
    /// (`any::<i64>()` draws `i64::MIN` and `i64::MAX` often), NaNs of both
    /// signs and several payloads, ±0.0, ±∞ and subnormals, strings that
    /// share their first eight bytes, `"a"` against `"a\0"`, multi-byte
    /// UTF-8, and booleans.
    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-3..3i64).prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int),
            (0..doubles().len()).prop_map(|i| Value::Double(doubles()[i])),
            any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
            (0..STRS.len()).prop_map(|i| Value::str(STRS[i])),
            "[a-cé世🦀]{0,10}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Rows of any arity below four over any values: most columns mixed.
    fn any_rows(len: Range<usize>) -> impl Strategy<Value = Vec<Row>> {
        vec(vec(value_strategy(), 0..4).prop_map(Row::new), len)
    }

    /// Rows whose first two columns each hold one type per input (`4`:
    /// any, drawn per cell), from small domains so that prefixes and rows
    /// collide: most inputs keep both words, some stop at a mixed column.
    fn typed_rows(len: Range<usize>) -> impl Strategy<Value = Vec<Row>> {
        let cells = vec((0..4u8, -2..3i64, 0..4usize), 0..4);
        (0..5u8, 0..5u8, vec(cells, len)).prop_map(|(t0, t1, rows)| {
            let cell = |col: usize, (any, n, pick): (u8, i64, usize)| {
                let ty = match [t0, t1].get(col).copied().unwrap_or(0) {
                    4 => any,
                    ty => ty,
                };
                match ty {
                    0 => Value::Int(n),
                    1 => Value::Double([f64::NAN, -f64::NAN, -0.0, n as f64][pick]),
                    2 => Value::str(["a", "a\0", "abcdefgh1", "abcdefgh2"][pick]),
                    _ => Value::Bool(n > 0),
                }
            };
            let row = |cells: Vec<_>| {
                cells
                    .into_iter()
                    .enumerate()
                    .map(|(col, c)| cell(col, c))
                    .collect()
            };
            rows.into_iter().map(row).collect()
        })
    }

    proptest! {
        #[test]
        fn the_kernel_orders_as_the_stable_comparison_sort(
            rows in prop_oneof![any_rows(0..3), typed_rows(0..3), any_rows(0..300), typed_rows(200..600)]
        ) {
            // Each row carries its input position, so the check covers
            // stability: duplicate rows must keep their relative order.
            let mut items: Vec<(Row, usize)> = rows.into_iter().zip(0..).collect();
            let mut reference = items.clone();
            reference.sort_by(|a, b| a.0.cmp(&b.0));
            sort_by_row(&mut items, |(r, _)| r.values());
            prop_assert_eq!(items, reference);
        }
    }
}
