//! Binary encoding of values, typed columns and relations.
//!
//! Everything is little-endian and fixed-width where possible so that typed
//! columns round-trip without per-value conversions: an `Int` column is a
//! length followed by raw `i64` words, a `Float` column stores IEEE-754 bit
//! patterns verbatim (`NaN`, `±0` and `±∞` survive exactly), and a `Str`
//! column stores its dictionary strings *in code order* followed by the raw
//! `u32` codes — re-interning in order reproduces identical codes, so a
//! decoded column is bit-for-bit the column that was written.
//!
//! Two formats are built from these pieces: `beas-store`'s segment and WAL
//! payloads (versioned by the segment envelope), and the cluster's relation
//! frames (`beas_cluster::protocol::relation_to_frame`). Neither envelope
//! lives here; [`checksum`] is the digest both use.
//!
//! Decoding never trusts a length: [`Reader::len`] refuses any element count
//! the remaining payload cannot back, so a corrupted prefix cannot trigger an
//! allocation larger than the input, and every truncation or bad tag is a
//! [`CodecError`] rather than a panic.

use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

use crate::fasthash::FxHasher;
use crate::storage::{Column, Relation, StrDict};
use crate::value::Value;

/// A payload that does not decode: truncated, a bad tag, a length the
/// payload cannot back, or an inconsistent decoded structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias of the codec.
pub type Result<T> = std::result::Result<T, CodecError>;

/// FxHasher digest of a byte slice — the checksum of store segments, WAL
/// records and cluster frames. Any change confined to one aligned 8-byte
/// word changes the digest, so every single-byte flip is caught.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// primitive writers
// ---------------------------------------------------------------------------

/// Writes one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Writes a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Writes a length or count as a `u64`.
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// Writes an `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Floats are stored as raw bit patterns: `NaN` payloads, `-0.0` and the
/// infinities round-trip exactly.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Writes a bool as one byte, `0` or `1`.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_usize(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// primitive reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over an encoded payload. Every truncation or tag
/// mismatch is a [`CodecError`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(CodecError(format!(
                "payload truncated: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError(format!("length {v} exceeds the address space")))
    }

    /// A length that must be payload-backed: each element needs at least
    /// `min_elem` bytes, so a corrupted length can never trigger a huge
    /// allocation before the bounds check catches it.
    pub fn len(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_elem.max(1)).is_none_or(|b| b > remaining) {
            return Err(CodecError(format!(
                "length {n} inconsistent with {remaining} remaining payload bytes"
            )));
        }
        Ok(n)
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting any byte but `0` and `1`.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError(format!("invalid utf-8 string: {e}")))
    }

    /// Reads `n` fixed-width words of `W` bytes each, converting each one.
    fn words<const W: usize, T>(&mut self, n: usize, f: impl Fn([u8; W]) -> T) -> Result<Vec<T>> {
        let total = n
            .checked_mul(W)
            .ok_or_else(|| CodecError(format!("{n} words of {W} bytes overflow")))?;
        let bytes = self.take(total)?;
        Ok(bytes
            .chunks_exact(W)
            .map(|c| f(c.try_into().unwrap()))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// values
// ---------------------------------------------------------------------------

const VALUE_INT: u8 = 0;
const VALUE_DOUBLE: u8 = 1;
const VALUE_STR: u8 = 2;
const VALUE_BOOL: u8 = 3;
const VALUE_NULL: u8 = 4;

/// Writes one tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => {
            put_u8(buf, VALUE_INT);
            put_i64(buf, *x);
        }
        Value::Double(x) => {
            put_u8(buf, VALUE_DOUBLE);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            put_u8(buf, VALUE_STR);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, VALUE_BOOL);
            put_bool(buf, *b);
        }
        Value::Null => put_u8(buf, VALUE_NULL),
    }
}

/// Reads one tagged [`Value`].
pub fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_DOUBLE => Ok(Value::Double(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.str()?)),
        VALUE_BOOL => Ok(Value::Bool(r.bool()?)),
        VALUE_NULL => Ok(Value::Null),
        other => Err(CodecError(format!("bad value tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// columns and relations
// ---------------------------------------------------------------------------

const COL_INT: u8 = 0;
const COL_FLOAT: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_STR: u8 = 3;
const COL_MIXED: u8 = 4;

/// Writes one column in its physical variant. A `Str` column carries its
/// whole dictionary; see [`put_column_compact`] for slices of a large one.
pub fn put_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int(v) => {
            put_u8(buf, COL_INT);
            put_usize(buf, v.len());
            buf.reserve(v.len() * 8);
            for x in v {
                put_i64(buf, *x);
            }
        }
        Column::Float(v) => {
            put_u8(buf, COL_FLOAT);
            put_usize(buf, v.len());
            buf.reserve(v.len() * 8);
            for x in v {
                put_f64(buf, *x);
            }
        }
        Column::Bool(v) => {
            put_u8(buf, COL_BOOL);
            put_usize(buf, v.len());
            for x in v {
                put_bool(buf, *x);
            }
        }
        Column::Str { codes, dict } => {
            put_u8(buf, COL_STR);
            // dictionary strings in code order: re-interning in order on load
            // reproduces identical codes, so the raw code vector is reusable
            put_usize(buf, dict.len());
            for s in dict.strings() {
                put_str(buf, s);
            }
            put_codes(buf, codes.iter().copied());
        }
        Column::Mixed(v) => {
            put_u8(buf, COL_MIXED);
            put_usize(buf, v.len());
            for x in v {
                put_value(buf, x);
            }
        }
    }
}

/// Like [`put_column`], but a `Str` column writes only the strings its codes
/// use, in first-use order, with its codes renumbered to match. A fragment
/// sliced from a level shares the level's whole dictionary; this keeps its
/// encoding proportional to its rows. [`read_column`] decodes both forms.
pub fn put_column_compact(buf: &mut Vec<u8>, col: &Column) {
    let Column::Str { codes, dict } = col else {
        return put_column(buf, col);
    };
    // `remap[old] = new + 1`, so 0 means "not used yet"
    let mut remap = vec![0u32; dict.len()];
    let mut used: Vec<u32> = Vec::new();
    for &c in codes {
        let slot = &mut remap[c as usize];
        if *slot == 0 {
            used.push(c);
            *slot = used.len() as u32;
        }
    }
    put_u8(buf, COL_STR);
    put_usize(buf, used.len());
    for &c in &used {
        put_str(buf, dict.get(c));
    }
    put_codes(buf, codes.iter().map(|&c| remap[c as usize] - 1));
}

fn put_codes(buf: &mut Vec<u8>, codes: impl ExactSizeIterator<Item = u32>) {
    put_usize(buf, codes.len());
    buf.reserve(codes.len() * 4);
    for c in codes {
        put_u32(buf, c);
    }
}

/// Reads one column in the variant it was written in.
pub fn read_column(r: &mut Reader<'_>) -> Result<Column> {
    match r.u8()? {
        COL_INT => {
            let n = r.len(8)?;
            Ok(Column::Int(r.words(n, i64::from_le_bytes)?))
        }
        COL_FLOAT => {
            let n = r.len(8)?;
            Ok(Column::Float(
                r.words(n, |w| f64::from_bits(u64::from_le_bytes(w)))?,
            ))
        }
        COL_BOOL => {
            let n = r.len(1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.bool()?);
            }
            Ok(Column::Bool(v))
        }
        COL_STR => {
            let nstrings = r.len(8)?;
            let mut dict = StrDict::default();
            for _ in 0..nstrings {
                dict.intern_owned(r.str()?);
            }
            if dict.len() != nstrings {
                return Err(CodecError(format!(
                    "string dictionary collapsed from {nstrings} to {} entries",
                    dict.len()
                )));
            }
            let ncodes = r.len(4)?;
            let codes = r.words(ncodes, u32::from_le_bytes)?;
            if let Some(&c) = codes.iter().find(|&&c| c as usize >= nstrings) {
                return Err(CodecError(format!(
                    "string code {c} out of range for dictionary of {nstrings}"
                )));
            }
            Ok(Column::Str {
                codes,
                dict: Arc::new(dict),
            })
        }
        COL_MIXED => {
            let n = r.len(1)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(read_value(r)?);
            }
            Ok(Column::Mixed(v))
        }
        other => Err(CodecError(format!("bad column tag {other}"))),
    }
}

/// Writes a relation: its column names, each followed by its column.
pub fn put_relation(buf: &mut Vec<u8>, rel: &Relation) {
    put_usize(buf, rel.columns.len());
    for (name, col) in rel.columns.iter().zip(rel.cols()) {
        put_str(buf, name);
        put_column(buf, col);
    }
}

/// Reads a relation written by [`put_relation`].
pub fn read_relation(r: &mut Reader<'_>) -> Result<Relation> {
    let (names, cols) = read_named_columns(r)?;
    Relation::from_columns(names, cols)
        .map_err(|e| CodecError(format!("decoded relation is inconsistent: {e}")))
}

/// Reads the `(name, column)` pairs of a relation encoding.
pub fn read_named_columns(r: &mut Reader<'_>) -> Result<(Vec<String>, Vec<Column>)> {
    let n = r.len(2)?;
    let mut names = Vec::with_capacity(n);
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(r.str()?);
        cols.push(read_column(r)?);
    }
    Ok((names, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_column(col: Column) -> Column {
        let mut buf = Vec::new();
        put_column(&mut buf, &col);
        let mut r = Reader::new(&buf);
        let out = read_column(&mut r).expect("decode");
        assert!(r.is_at_end());
        out
    }

    #[test]
    fn float_columns_round_trip_bit_for_bit() {
        let weird = vec![
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        let out = round_trip_column(Column::Float(weird.clone()));
        let got = out.as_floats().expect("float column");
        assert_eq!(got.len(), weird.len());
        for (a, b) in weird.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b} bitwise");
        }
    }

    #[test]
    fn str_columns_preserve_codes_exactly() {
        let mut dict = StrDict::default();
        let codes: Vec<u32> = ["delhi", "tokyo", "delhi", "oslo", "tokyo"]
            .iter()
            .map(|s| dict.intern(s))
            .collect();
        let col = Column::Str {
            codes: codes.clone(),
            dict: Arc::new(dict),
        };
        let out = round_trip_column(col);
        let (got_codes, got_dict) = out.as_str_codes().expect("str column");
        assert_eq!(got_codes, codes.as_slice());
        assert_eq!(got_dict.strings(), &["delhi", "tokyo", "oslo"]);
    }

    #[test]
    fn compact_str_columns_keep_only_the_strings_they_use() {
        let mut dict = StrDict::default();
        for s in ["a", "b", "c", "d"] {
            dict.intern(s);
        }
        let col = Column::Str {
            codes: vec![3, 1, 3],
            dict: Arc::new(dict),
        };
        let mut buf = Vec::new();
        put_column_compact(&mut buf, &col);
        let out = read_column(&mut Reader::new(&buf)).unwrap();
        let (codes, dict) = out.as_str_codes().unwrap();
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.strings(), &["d", "b"]);
        for i in 0..3 {
            assert_eq!(out.value(i), col.value(i));
        }
    }

    #[test]
    fn mixed_and_scalar_columns_round_trip() {
        let cols = vec![
            Column::Int(vec![i64::MIN, -1, 0, 7, i64::MAX]),
            Column::Bool(vec![true, false, true]),
            Column::Mixed(vec![
                Value::Null,
                Value::Int(3),
                Value::Double(f64::NAN),
                Value::Str("x".into()),
                Value::Bool(false),
            ]),
        ];
        for col in cols {
            let out = round_trip_column(col.clone());
            // Value equality is NaN-blind; compare the debug form, which is
            // not (NaN prints as NaN on both sides)
            assert_eq!(format!("{out:?}"), format!("{col:?}"));
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicked() {
        let mut buf = Vec::new();
        put_column(&mut buf, &Column::Int(vec![1, 2, 3]));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(read_column(&mut r).is_err(), "cut at {cut} accepted");
        }
        // a bogus length must not allocate terabytes before failing
        let mut huge = vec![COL_INT];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_column(&mut Reader::new(&huge)).is_err());
    }
}
