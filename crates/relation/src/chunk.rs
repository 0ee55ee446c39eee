//! The typed column storage behind [`crate::BaseTable`], and what
//! is left of the columnar read surface.
//!
//! [`Bitmap`] and [`ColumnData`] are a base table's own storage: a live
//! bit per slot and one typed array per attribute. [`Chunk`] and
//! [`ChunkBuilder`] serve one caller, [`crate::BaseTable::chunks`],
//! which stays only because the frozen `benchmark/src/layers.rs` times it
//! (`relation.chunk_scan_ms`). Nothing in the warehouse reads a chunk, so
//! a chunk can be built and compared and that is all; both types go with
//! the next change that may touch `benchmark/`.

use std::collections::HashMap;

use crate::error::{RelationError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};

/// A packed bitmap over `len` slots, one bit each.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set to `fill`.
    pub(crate) fn filled(len: usize, fill: bool) -> Self {
        let nwords = len.div_ceil(64);
        let mut words = vec![if fill { u64::MAX } else { 0 }; nwords];
        if fill && !len.is_multiple_of(64) {
            // Keep trailing bits clear so iteration stops at `len`.
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Creates an empty bitmap.
    pub(crate) fn new() -> Self {
        Bitmap::default()
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends one bit.
    pub(crate) fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Sets the bit at `idx` to `bit`.
    pub(crate) fn set(&mut self, idx: usize, bit: bool) {
        debug_assert!(idx < self.len);
        if bit {
            self.words[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.words[idx / 64] &= !(1u64 << (idx % 64));
        }
    }

    /// Iterates over the indices of set bits, ascending.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// Typed backing storage of one column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// Dictionary-encoded strings: `codes[i]` indexes `dict`.
    Str {
        /// The dictionary, in first-occurrence order.
        dict: Vec<String>,
        /// Per-slot dictionary codes.
        codes: Vec<u32>,
    },
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Creates empty storage for `dtype`.
    pub(crate) fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Double => ColumnData::Double(Vec::new()),
            DataType::Str => ColumnData::Str {
                dict: Vec::new(),
                codes: Vec::new(),
            },
            DataType::Bool => ColumnData::Bool(Vec::new()),
        }
    }
}

/// A columnar slice of a relation: one typed array per attribute, string
/// attributes dictionary-encoded with a dictionary of the chunk's own.
#[derive(Debug, PartialEq)]
pub struct Chunk {
    columns: Vec<ColumnData>,
}

/// Incremental [`Chunk`] construction with per-column dictionary interning.
#[derive(Debug)]
pub(crate) struct ChunkBuilder {
    schema: Schema,
    data: Vec<ColumnData>,
    interners: Vec<HashMap<String, u32>>,
}

impl ChunkBuilder {
    /// Creates an empty builder for `schema`.
    pub(crate) fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        let data = schema
            .columns()
            .iter()
            .map(|c| ColumnData::empty(c.dtype))
            .collect();
        ChunkBuilder {
            schema,
            data,
            interners: vec![HashMap::new(); arity],
        }
    }

    /// Appends one row, checking it against the schema.
    pub(crate) fn push_row(&mut self, row: &Row) -> Result<()> {
        if row.arity() != self.schema.arity() {
            return Err(RelationError::Invalid(format!(
                "row arity {} != chunk arity {}",
                row.arity(),
                self.schema.arity()
            )));
        }
        for (c, value) in row.values().iter().enumerate() {
            let dtype = self.schema.columns()[c].dtype;
            if value.data_type() != dtype {
                return Err(RelationError::TypeError {
                    expected: dtype,
                    found: value.data_type(),
                });
            }
            match (&mut self.data[c], value) {
                (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
                (ColumnData::Double(v), Value::Double(x)) => v.push(*x),
                (ColumnData::Str { dict, codes }, Value::Str(s)) => {
                    let code = match self.interners[c].get(s) {
                        Some(&code) => code,
                        None => {
                            let code = dict.len() as u32;
                            dict.push(s.clone());
                            self.interners[c].insert(s.clone(), code);
                            code
                        }
                    };
                    codes.push(code);
                }
                (ColumnData::Bool(v), Value::Bool(x)) => v.push(*x),
                _ => unreachable!("type checked above"),
            }
        }
        Ok(())
    }

    /// Finishes the chunk.
    pub(crate) fn finish(self) -> Chunk {
        Chunk { columns: self.data }
    }
}
