//! In-memory storage: columnar relations and databases.
//!
//! A [`Relation`] stores its data **column-oriented**: one typed vector per
//! attribute ([`Column`]), with the row count tracked once. String columns are
//! dictionary-coded (a `u32` code per row plus an interned, `Arc`-shared
//! [`StrDict`]), so equality tests, hash joins and copies of string data touch
//! only small integers. Heterogeneous or null-bearing columns degrade to a
//! [`Column::Mixed`] vector of [`Value`]s, which keeps the row-oriented
//! semantics of the original representation bit-for-bit intact.
//!
//! Rows ([`Row`] = `Vec<Value>`) remain the **conversion boundary** of the
//! public API: relations are built from rows ([`Relation::new`],
//! [`Relation::push_row`]) and iterated as rows ([`Relation::rows`]), while
//! the evaluator's hot kernels (selection, joins, aggregation — see
//! `eval.rs`/`predicate.rs`) read the typed columns directly.
//!
//! Relations are self-describing (they carry their column names) because the
//! evaluator produces intermediate relations whose columns are qualified by
//! the query's aliases (e.g. `"h.price"`). A [`Database`] binds base relations
//! to a [`DatabaseSchema`]; each relation sits behind an `Arc`, so cloning a
//! database for a copy-on-write update batch is O(#relations) and only the
//! relations actually touched by the batch are deep-copied.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{RelalError, Result};
use crate::schema::DatabaseSchema;
use crate::value::{Value, ValueType};

/// A row of attribute values — the conversion boundary of the columnar store.
pub type Row = Vec<Value>;

// ---------------------------------------------------------------------------
// string dictionary
// ---------------------------------------------------------------------------

/// An interned string table shared by the rows of a dictionary-coded string
/// column. Codes are dense indices into `strings`; interning the same string
/// twice returns the same code.
///
/// The lookup index is a hand-rolled open-addressing table of codes (not a
/// `HashMap<String, u32>`), so each distinct string is allocated exactly
/// once and interning an already-known string is one hash + probe over a
/// flat `u32` array — this sits on the fetch-materialisation hot path.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    strings: Vec<String>,
    /// Open-addressing index into `strings`; `u32::MAX` marks an empty slot,
    /// the length is a power of two.
    table: Vec<u32>,
}

const DICT_EMPTY: u32 = u32::MAX;

/// Hash used by the dictionary index (and consistent with nothing else — the
/// table is rebuilt on growth, never serialised).
#[inline]
fn dict_hash(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fasthash::FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl StrDict {
    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string of a code.
    pub fn get(&self, code: u32) -> &str {
        &self.strings[code as usize]
    }

    /// The code of `s`, if it has been interned.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (dict_hash(s) as usize) & mask;
        loop {
            match self.table[slot] {
                DICT_EMPTY => return None,
                c if self.strings[c as usize] == s => return Some(c),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// All interned strings, in code order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Rebuilds the probe table at twice the capacity.
    fn grow(&mut self) {
        let cap = (self.table.len().max(8)) * 2;
        self.table.clear();
        self.table.resize(cap, DICT_EMPTY);
        let mask = cap - 1;
        for (i, s) in self.strings.iter().enumerate() {
            let mut slot = (dict_hash(s) as usize) & mask;
            while self.table[slot] != DICT_EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = i as u32;
        }
    }

    /// Finds the slot of `s`, or the empty slot where it belongs. Requires a
    /// non-full table.
    #[inline]
    fn probe(&self, s: &str) -> (usize, Option<u32>) {
        let mask = self.table.len() - 1;
        let mut slot = (dict_hash(s) as usize) & mask;
        loop {
            match self.table[slot] {
                DICT_EMPTY => return (slot, None),
                c if self.strings[c as usize] == s => return (slot, Some(c)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns `s`, returning its (possibly pre-existing) code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if self.strings.len() * 8 >= self.table.len() * 7 {
            self.grow();
        }
        match self.probe(s) {
            (_, Some(c)) => c,
            (slot, None) => {
                let c = self.strings.len() as u32;
                self.strings.push(s.to_string());
                self.table[slot] = c;
                c
            }
        }
    }

    /// Interns an owned string without re-allocating on a dictionary miss.
    pub fn intern_owned(&mut self, s: String) -> u32 {
        if self.strings.len() * 8 >= self.table.len() * 7 {
            self.grow();
        }
        match self.probe(&s) {
            (_, Some(c)) => c,
            (slot, None) => {
                let c = self.strings.len() as u32;
                self.strings.push(s);
                self.table[slot] = c;
                c
            }
        }
    }
}

// ---------------------------------------------------------------------------
// columns
// ---------------------------------------------------------------------------

/// One typed column of a [`Relation`].
///
/// The variant is decided by the first value pushed (or by the schema for
/// base relations); pushing a value of a different type — or a `Null` —
/// degrades the column to [`Column::Mixed`], which stores plain [`Value`]s
/// and preserves the exact per-value semantics of the row representation.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// 64-bit IEEE-754 floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-coded strings: one `u32` code per row plus the shared
    /// interned string table.
    Str {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The interned string table (`Arc`-shared between relations that
        /// were sliced/gathered from one another).
        dict: Arc<StrDict>,
    },
    /// Fallback for heterogeneous or null-bearing columns.
    Mixed(Vec<Value>),
}

impl Column {
    /// An empty column typed for `ty`.
    pub fn for_type(ty: ValueType) -> Column {
        match ty {
            ValueType::Int => Column::Int(Vec::new()),
            ValueType::Double => Column::Float(Vec::new()),
            ValueType::Bool => Column::Bool(Vec::new()),
            ValueType::Str => Column::Str {
                codes: Vec::new(),
                dict: Arc::new(StrDict::default()),
            },
        }
    }

    /// An empty column typed like `v` (`Null` yields a [`Column::Mixed`]).
    pub fn for_value(v: &Value) -> Column {
        match v.value_type() {
            Some(ty) => Column::for_type(ty),
            None => Column::Mixed(Vec::new()),
        }
    }

    /// An empty, untyped column (typed by the first pushed value).
    pub fn untyped() -> Column {
        Column::Mixed(Vec::new())
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// `true` when the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (clones strings / mixed values).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Double(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Str { codes, dict } => Value::Str(dict.get(codes[i]).to_string()),
            Column::Mixed(v) => v[i].clone(),
        }
    }

    /// The value at row `i` as a float, mirroring [`Value::as_f64`].
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int(v) => Some(v[i] as f64),
            Column::Float(v) => Some(v[i]),
            Column::Mixed(v) => v[i].as_f64(),
            Column::Bool(_) | Column::Str { .. } => None,
        }
    }

    /// The integer slice of an `Int` column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The float slice of a `Float` column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The codes and dictionary of a `Str` column.
    pub fn as_str_codes(&self) -> Option<(&[u32], &Arc<StrDict>)> {
        match self {
            Column::Str { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Degrades the column to [`Column::Mixed`], materialising every value.
    pub fn make_mixed(&mut self) {
        if matches!(self, Column::Mixed(_)) {
            return;
        }
        let vals: Vec<Value> = (0..self.len()).map(|i| self.value(i)).collect();
        *self = Column::Mixed(vals);
    }

    /// Appends one value, degrading to `Mixed` on a type mismatch. An *empty*
    /// column re-types itself to the pushed value's type instead (the column
    /// was only provisionally typed, e.g. by [`Relation::empty`]).
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Int(col), Value::Int(x)) => col.push(x),
            (Column::Float(col), Value::Double(x)) => col.push(x),
            (Column::Bool(col), Value::Bool(x)) => col.push(x),
            (Column::Str { codes, dict }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern_owned(s));
            }
            (Column::Mixed(col), v) => {
                if col.is_empty() && !v.is_null() {
                    *self = Column::for_value(&v);
                    self.push(v);
                } else {
                    col.push(v);
                }
            }
            (_, v) => {
                if self.is_empty() {
                    *self = Column::for_value(&v);
                } else {
                    self.make_mixed();
                }
                self.push(v);
            }
        }
    }

    /// Reserves capacity for `n` further values.
    pub fn reserve(&mut self, n: usize) {
        match self {
            Column::Int(v) => v.reserve(n),
            Column::Float(v) => v.reserve(n),
            Column::Bool(v) => v.reserve(n),
            Column::Str { codes, .. } => codes.reserve(n),
            Column::Mixed(v) => v.reserve(n),
        }
    }

    /// Appends a borrowed value, cloning only when the column actually has to
    /// store an owned copy (a dictionary hit on a string column allocates
    /// nothing). Typing/degradation rules are identical to [`Column::push`].
    pub fn push_ref(&mut self, v: &Value) {
        match (&mut *self, v) {
            (Column::Int(col), Value::Int(x)) => col.push(*x),
            (Column::Float(col), Value::Double(x)) => col.push(*x),
            (Column::Bool(col), Value::Bool(x)) => col.push(*x),
            (Column::Str { codes, dict }, Value::Str(s)) => {
                codes.push(Arc::make_mut(dict).intern(s));
            }
            _ => self.push(v.clone()),
        }
    }

    /// Appends all of `other`'s values. Matching variants extend contiguously
    /// (string codes are translated between dictionaries once per distinct
    /// code); mismatches degrade to `Mixed`.
    pub fn extend_from(&mut self, other: &Column) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() && std::mem::discriminant(self) != std::mem::discriminant(other) {
            *self = other.clone();
            return;
        }
        match (&mut *self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (
                Column::Str { codes, dict },
                Column::Str {
                    codes: oc,
                    dict: od,
                },
            ) => {
                if Arc::ptr_eq(dict, od) {
                    codes.extend_from_slice(oc);
                } else {
                    let d = Arc::make_mut(dict);
                    let map: Vec<u32> = od.strings().iter().map(|s| d.intern(s)).collect();
                    codes.extend(oc.iter().map(|&c| map[c as usize]));
                }
            }
            (Column::Mixed(a), other) => a.extend((0..other.len()).map(|i| other.value(i))),
            _ => {
                self.make_mixed();
                self.extend_from(other);
            }
        }
    }

    /// Gathers the values at `idx` into a new column (dictionaries are shared,
    /// not copied).
    pub fn gather(&self, idx: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(idx.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(idx.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(idx.iter().map(|&i| v[i]).collect()),
            Column::Str { codes, dict } => Column::Str {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
            },
            Column::Mixed(v) => Column::Mixed(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Splits the column at `at`, returning the tail (like `Vec::split_off`).
    /// String dictionaries are shared between the two halves.
    pub fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::Int(v) => Column::Int(v.split_off(at)),
            Column::Float(v) => Column::Float(v.split_off(at)),
            Column::Bool(v) => Column::Bool(v.split_off(at)),
            Column::Str { codes, dict } => Column::Str {
                codes: codes.split_off(at),
                dict: Arc::clone(dict),
            },
            Column::Mixed(v) => Column::Mixed(v.split_off(at)),
        }
    }

    /// Compares the values at rows `i` and `j` of this column with the total
    /// order of [`Value`].
    pub fn cmp_values(&self, i: usize, j: usize) -> Ordering {
        match self {
            Column::Int(v) => v[i].cmp(&v[j]),
            Column::Float(v) => v[i].total_cmp(&v[j]),
            Column::Bool(v) => v[i].cmp(&v[j]),
            Column::Str { codes, dict } => {
                if codes[i] == codes[j] {
                    Ordering::Equal
                } else {
                    dict.get(codes[i]).cmp(dict.get(codes[j]))
                }
            }
            Column::Mixed(v) => v[i].cmp(&v[j]),
        }
    }

    /// Compares `self[i]` against `other[j]` with the total order of
    /// [`Value`], without materialising either side where possible.
    pub fn cmp_across(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a[i].cmp(&b[j]),
            (Column::Int(a), Column::Float(b)) => (a[i] as f64).total_cmp(&b[j]),
            (Column::Float(a), Column::Int(b)) => a[i].total_cmp(&(b[j] as f64)),
            (Column::Float(a), Column::Float(b)) => a[i].total_cmp(&b[j]),
            (Column::Bool(a), Column::Bool(b)) => a[i].cmp(&b[j]),
            (
                Column::Str { codes, dict },
                Column::Str {
                    codes: oc,
                    dict: od,
                },
            ) => {
                if Arc::ptr_eq(dict, od) && codes[i] == oc[j] {
                    Ordering::Equal
                } else {
                    dict.get(codes[i]).cmp(od.get(oc[j]))
                }
            }
            (a, b) => a.value(i).cmp(&b.value(j)),
        }
    }

    /// Compares `self[i]` against a [`Value`] with the total value order.
    pub fn cmp_value(&self, i: usize, v: &Value) -> Ordering {
        match (self, v) {
            (Column::Int(a), Value::Int(b)) => a[i].cmp(b),
            (Column::Int(a), Value::Double(b)) => (a[i] as f64).total_cmp(b),
            (Column::Float(a), Value::Int(b)) => a[i].total_cmp(&(*b as f64)),
            (Column::Float(a), Value::Double(b)) => a[i].total_cmp(b),
            (Column::Bool(a), Value::Bool(b)) => a[i].cmp(b),
            (Column::Str { codes, dict }, Value::Str(s)) => dict.get(codes[i]).cmp(s.as_str()),
            (Column::Mixed(a), v) => a[i].cmp(v),
            _ => self.value(i).cmp(v),
        }
    }
}

// ---------------------------------------------------------------------------
// relations
// ---------------------------------------------------------------------------

/// A named-column, **column-oriented** relation.
///
/// `columns` (the names) stays a public field for cheap renaming; the typed
/// data lives in private [`Column`] vectors accessed through [`Relation::col`]
/// and the row-conversion API. The invariant `columns.len() == #data columns`
/// is maintained by every constructor; direct assignments to `columns` must
/// preserve the length (use [`Relation::rename_columns`] for a checked
/// rename).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Column names, possibly qualified (e.g. `"h.price"`).
    pub columns: Vec<String>,
    cols: Vec<Column>,
    nrows: usize,
}

impl PartialEq for Relation {
    /// Logical equality: same column names and the same ordered rows (under
    /// [`Value`] equality, so `Int(3)` equals `Double(3.0)` exactly as in the
    /// row representation — regardless of the physical column variants).
    fn eq(&self, other: &Self) -> bool {
        if self.columns != other.columns || self.nrows != other.nrows {
            return false;
        }
        self.cols
            .iter()
            .zip(&other.cols)
            .all(|(a, b)| (0..self.nrows).all(|i| a.cmp_across(i, b, i) == Ordering::Equal))
    }
}

impl Relation {
    /// Creates an empty relation with the given column names. Columns are
    /// typed by the first pushed row; see [`Relation::empty_typed`] for
    /// schema-typed construction.
    pub fn empty(columns: Vec<String>) -> Self {
        let cols = columns.iter().map(|_| Column::untyped()).collect();
        Relation {
            columns,
            cols,
            nrows: 0,
        }
    }

    /// Creates an empty relation with schema-typed columns.
    pub fn empty_typed(columns: Vec<String>, types: &[ValueType]) -> Self {
        debug_assert_eq!(columns.len(), types.len());
        let cols = types.iter().map(|&ty| Column::for_type(ty)).collect();
        Relation {
            columns,
            cols,
            nrows: 0,
        }
    }

    /// Creates a relation directly from columnar data, validating that every
    /// column has the same length and that names and data agree in arity.
    pub fn from_columns(columns: Vec<String>, cols: Vec<Column>) -> Result<Self> {
        let nrows = cols.first().map(|c| c.len()).unwrap_or(0);
        Relation::from_columns_with_len(columns, cols, nrows)
    }

    /// Like [`Relation::from_columns`], with the row count given: every
    /// column must hold `nrows` values. This is the one way to rebuild a
    /// zero-column relation that has rows, without allocating per row.
    pub fn from_columns_with_len(
        columns: Vec<String>,
        cols: Vec<Column>,
        nrows: usize,
    ) -> Result<Self> {
        if columns.len() != cols.len() {
            return Err(RelalError::SchemaMismatch(format!(
                "{} column names for {} data columns",
                columns.len(),
                cols.len()
            )));
        }
        if let Some(bad) = cols.iter().position(|c| c.len() != nrows) {
            return Err(RelalError::SchemaMismatch(format!(
                "column {bad} has {} rows, expected {nrows}",
                cols[bad].len()
            )));
        }
        Ok(Relation {
            columns,
            cols,
            nrows,
        })
    }

    /// Decomposes the relation into its column names and typed columns.
    pub fn into_parts(self) -> (Vec<String>, Vec<Column>) {
        (self.columns, self.cols)
    }

    /// Creates a relation from columns and rows, validating row arity. The
    /// error names the first offending row by index so a bad bulk load can be
    /// traced back to its source record.
    pub fn new(columns: Vec<String>, rows: Vec<Row>) -> Result<Self> {
        let arity = columns.len();
        if let Some((i, bad)) = rows.iter().enumerate().find(|(_, r)| r.len() != arity) {
            return Err(RelalError::SchemaMismatch(format!(
                "row {i} of arity {} in relation of arity {}",
                bad.len(),
                arity
            )));
        }
        let mut rel = Relation::empty(columns);
        for row in rows {
            rel.push_row_unchecked(row);
        }
        Ok(rel)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| RelalError::UnknownColumn(name.to_string()))
    }

    /// The typed data of column `j`.
    pub fn col(&self, j: usize) -> &Column {
        &self.cols[j]
    }

    /// Mutable access to the typed data of column `j`. The caller must keep
    /// all columns at the same length.
    pub fn col_mut(&mut self, j: usize) -> &mut Column {
        &mut self.cols[j]
    }

    /// All typed columns, in schema order.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// The value at row `i`, column `j` (clones strings / mixed values).
    #[inline]
    pub fn value_at(&self, i: usize, j: usize) -> Value {
        self.cols[j].value(i)
    }

    /// Materialises row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// Iterates over materialised rows (the row conversion boundary).
    pub fn rows(&self) -> RowsIter<'_> {
        RowsIter { rel: self, i: 0 }
    }

    /// Materialises all rows.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.nrows).map(|i| self.row(i)).collect()
    }

    /// Appends a row, validating its arity.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.arity() {
            return Err(RelalError::SchemaMismatch(format!(
                "row of arity {} pushed into relation of arity {}",
                row.len(),
                self.arity()
            )));
        }
        self.push_row_unchecked(row);
        Ok(())
    }

    /// Appends a row without arity validation (debug-asserted). This is the
    /// hot conversion path of producers whose rows agree by construction.
    pub fn push_row_unchecked(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.arity());
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.nrows += 1;
    }

    /// Appends all rows of `other` to this relation.
    ///
    /// This is the hot shard-merge path of parallel plan execution: arity
    /// compatibility is only debug-asserted (shards are produced by evaluating
    /// the same expression, so their shapes agree by construction). Matching
    /// column variants merge as contiguous extends.
    pub fn append(&mut self, other: Relation) {
        debug_assert_eq!(
            self.arity(),
            other.arity(),
            "appending a {}-ary shard to a {}-ary relation",
            other.arity(),
            self.arity()
        );
        if self.nrows == 0 {
            self.cols = other.cols;
            self.nrows = other.nrows;
            return;
        }
        for (col, o) in self.cols.iter_mut().zip(&other.cols) {
            col.extend_from(o);
        }
        self.nrows += other.nrows;
    }

    /// Splits the relation at row `at`, returning the tail (per-column range
    /// split; string dictionaries are shared, not copied). This is the
    /// zero-copy shard split of parallel execution.
    pub fn split_off(&mut self, at: usize) -> Relation {
        let tail_cols: Vec<Column> = self.cols.iter_mut().map(|c| c.split_off(at)).collect();
        let tail_rows = self.nrows - at;
        self.nrows = at;
        Relation {
            columns: self.columns.clone(),
            cols: tail_cols,
            nrows: tail_rows,
        }
    }

    /// Gathers the rows at `idx` into a new relation (per-column gather).
    pub fn take_rows(&self, idx: &[usize]) -> Relation {
        Relation {
            columns: self.columns.clone(),
            cols: self.cols.iter().map(|c| c.gather(idx)).collect(),
            nrows: idx.len(),
        }
    }

    /// Selects columns by index, renaming them to `names` (unchecked beyond
    /// debug assertions; the caller resolved the indices).
    pub fn select_columns(&self, idx: &[usize], names: Vec<String>) -> Relation {
        debug_assert_eq!(idx.len(), names.len());
        Relation {
            columns: names,
            cols: idx.iter().map(|&j| self.cols[j].clone()).collect(),
            nrows: self.nrows,
        }
    }

    /// Compares rows `i` and `j` lexicographically across all columns.
    pub fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        for col in &self.cols {
            match col.cmp_values(i, j) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Sorts rows lexicographically in place (stable), applying one
    /// permutation gather per column.
    pub fn sort_rows(&mut self) {
        if self.nrows <= 1 {
            return;
        }
        let mut idx: Vec<usize> = (0..self.nrows).collect();
        idx.sort_by(|&a, &b| self.cmp_rows(a, b));
        if idx.windows(2).all(|w| w[0] < w[1]) {
            return; // already sorted
        }
        self.cols = self.cols.iter().map(|c| c.gather(&idx)).collect();
    }

    /// Removes duplicate rows (set semantics). Rows end up sorted
    /// lexicographically, exactly as the row representation's
    /// `BTreeSet`-based dedup produced.
    pub fn dedup(&mut self) {
        if self.nrows <= 1 {
            return;
        }
        let mut idx: Vec<usize> = (0..self.nrows).collect();
        idx.sort_by(|&a, &b| self.cmp_rows(a, b));
        let mut keep: Vec<usize> = Vec::with_capacity(idx.len());
        for &i in &idx {
            match keep.last() {
                Some(&prev) if self.cmp_rows(prev, i) == Ordering::Equal => {}
                _ => keep.push(i),
            }
        }
        self.cols = self.cols.iter().map(|c| c.gather(&keep)).collect();
        self.nrows = keep.len();
    }

    /// Returns a copy of this relation with duplicates removed.
    pub fn deduped(mut self) -> Self {
        self.dedup();
        self
    }

    /// Projects the relation onto the given columns (by name), renaming them
    /// to `out_names` when provided. Columnar projection clones whole column
    /// vectors instead of copying cell by cell.
    pub fn project(&self, cols: &[String], out_names: Option<&[String]>) -> Result<Relation> {
        let idx: Vec<usize> = cols
            .iter()
            .map(|c| self.column_index(c))
            .collect::<Result<_>>()?;
        let columns = match out_names {
            Some(names) => names.to_vec(),
            None => cols.to_vec(),
        };
        Ok(self.select_columns(&idx, columns))
    }

    /// Renames the columns of this relation in place.
    pub fn rename_columns(&mut self, names: Vec<String>) -> Result<()> {
        if names.len() != self.arity() {
            return Err(RelalError::SchemaMismatch(format!(
                "renaming {} columns of a {}-ary relation",
                names.len(),
                self.arity()
            )));
        }
        self.columns = names;
        Ok(())
    }

    /// Materialises the values of one column.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>> {
        let i = self.column_index(name)?;
        Ok((0..self.nrows).map(|r| self.cols[i].value(r)).collect())
    }

    /// Sorts rows lexicographically; handy for deterministic test assertions.
    pub fn sorted(mut self) -> Self {
        self.sort_rows();
        self
    }

    /// Order-independent digest of the relation: rows are sorted first, so two
    /// relations with the same column names and the same row multiset digest
    /// equal regardless of physical row order or column layout. Used by the
    /// serving wire protocol and the bench harness to prove that answers
    /// delivered over the network (or across thread counts) are bit-for-bit
    /// the relations produced in process.
    ///
    /// Built on the in-repo [`FxHasher`](crate::FxHasher) — a fully specified
    /// algorithm, unlike std's `DefaultHasher` — so digests are stable across
    /// Rust toolchains: a client and a server from different builds agree on
    /// the digest of identical answers.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut rows = self.to_rows();
        rows.sort();
        let mut hasher = crate::fasthash::FxHasher::default();
        self.columns.hash(&mut hasher);
        for row in rows {
            row.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// Iterator over the materialised rows of a [`Relation`].
#[derive(Debug, Clone)]
pub struct RowsIter<'a> {
    rel: &'a Relation,
    i: usize,
}

impl Iterator for RowsIter<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        if self.i >= self.rel.nrows {
            return None;
        }
        let row = self.rel.row(self.i);
        self.i += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.rel.nrows - self.i;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

// ---------------------------------------------------------------------------
// databases
// ---------------------------------------------------------------------------

/// An in-memory database: a schema plus one relation instance per schema
/// relation.
///
/// Each instance sits behind an `Arc`, so cloning the database (the engine's
/// copy-on-write update path) shares all relation data structurally; only
/// relations actually mutated afterwards are deep-copied
/// ([`Database::relation_mut`] / [`Database::insert_row`] use
/// `Arc::make_mut`).
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// The database schema.
    pub schema: DatabaseSchema,
    relations: HashMap<String, Arc<Relation>>,
}

impl Database {
    /// Creates an empty database over the given schema with empty,
    /// schema-typed instances for every relation.
    pub fn new(schema: DatabaseSchema) -> Self {
        let mut relations = HashMap::new();
        for r in &schema.relations {
            let types: Vec<ValueType> = r.attributes.iter().map(|a| a.ty).collect();
            relations.insert(
                r.name.clone(),
                Arc::new(Relation::empty_typed(r.attr_names(), &types)),
            );
        }
        Database { schema, relations }
    }

    /// Replaces the instance of `name` with `relation`.
    ///
    /// The relation's columns must match the schema attribute names.
    pub fn insert_relation(&mut self, name: &str, relation: Relation) -> Result<()> {
        let schema = self.schema.relation(name)?;
        if relation.columns != schema.attr_names() {
            return Err(RelalError::SchemaMismatch(format!(
                "columns {:?} do not match schema of {}",
                relation.columns, name
            )));
        }
        self.relations.insert(name.to_string(), Arc::new(relation));
        Ok(())
    }

    /// Appends a row to the instance of `name`.
    pub fn insert_row(&mut self, name: &str, row: Row) -> Result<()> {
        self.schema.relation(name)?;
        let rel = self
            .relations
            .get_mut(name)
            .ok_or_else(|| RelalError::UnknownRelation(name.to_string()))?;
        Arc::make_mut(rel).push_row(row)
    }

    /// The instance of relation `name`.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .map(|r| r.as_ref())
            .ok_or_else(|| RelalError::UnknownRelation(name.to_string()))
    }

    /// The shared handle of relation `name` (used to verify structural
    /// sharing across copy-on-write clones, and to hand out cheap snapshots).
    pub fn relation_arc(&self, name: &str) -> Result<&Arc<Relation>> {
        self.relations
            .get(name)
            .ok_or_else(|| RelalError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to the instance of relation `name` (copy-on-write: a
    /// shared instance is deep-copied first).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| RelalError::UnknownRelation(name.to_string()))
    }

    /// Total number of tuples across all relations (the `|D|` of the paper).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Iterates over `(name, relation)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.schema.relations.iter().filter_map(move |rs| {
            self.relations
                .get(&rs.name)
                .map(|r| (rs.name.as_str(), r.as_ref()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};

    fn friend_db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "friend",
            vec![Attribute::id("pid"), Attribute::id("fid")],
        )]);
        Database::new(schema)
    }

    #[test]
    fn relation_new_validates_arity() {
        assert!(Relation::new(vec!["a".into()], vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        let r = Relation::new(
            vec!["a".into(), "b".into()],
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 2);
    }

    #[test]
    fn relation_new_reports_offending_row_index() {
        let err = Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(3), Value::Int(4)],
                vec![Value::Int(5)], // arity 1 at index 2
            ],
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 2"), "message should name row 2: {msg}");
        assert!(msg.contains("arity 1"), "message should name arity: {msg}");
    }

    #[test]
    fn append_merges_shards_without_revalidation() {
        let mut a = Relation::new(vec!["v".into()], vec![vec![Value::Int(1)]]).unwrap();
        let b = Relation::new(
            vec!["v".into()],
            vec![vec![Value::Int(2)], vec![Value::Int(3)]],
        )
        .unwrap();
        a.append(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(2), vec![Value::Int(3)]);
    }

    #[test]
    fn push_row_validates_arity() {
        let mut r = Relation::empty(vec!["a".into()]);
        assert!(r.push_row(vec![Value::Int(1)]).is_ok());
        assert!(r.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn dedup_removes_duplicate_rows() {
        let mut r = Relation::empty(vec!["a".into()]);
        for v in [1, 2, 1, 3, 2] {
            r.push_row(vec![Value::Int(v)]).unwrap();
        }
        r.dedup();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn project_selects_and_renames_columns() {
        let r = Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        let p = r
            .project(&["b".to_string()], Some(&["out".to_string()]))
            .unwrap();
        assert_eq!(p.columns, vec!["out"]);
        assert_eq!(
            p.to_rows(),
            vec![vec![Value::Int(10)], vec![Value::Int(20)]]
        );
        assert!(r.project(&["zzz".to_string()], None).is_err());
    }

    #[test]
    fn database_insert_and_lookup() {
        let mut db = friend_db();
        db.insert_row("friend", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.insert_row("friend", vec![Value::Int(1), Value::Int(3)])
            .unwrap();
        assert_eq!(db.relation("friend").unwrap().len(), 2);
        assert_eq!(db.total_tuples(), 2);
        assert!(db.relation("poi").is_err());
        assert!(db.insert_row("poi", vec![]).is_err());
    }

    #[test]
    fn insert_relation_checks_columns_against_schema() {
        let mut db = friend_db();
        let good = Relation::empty(vec!["pid".into(), "fid".into()]);
        assert!(db.insert_relation("friend", good).is_ok());
        let bad = Relation::empty(vec!["x".into(), "y".into()]);
        assert!(db.insert_relation("friend", bad).is_err());
    }

    #[test]
    fn column_values_extracts_one_column() {
        let mut db = friend_db();
        db.insert_row("friend", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.insert_row("friend", vec![Value::Int(1), Value::Int(3)])
            .unwrap();
        let vals = db.relation("friend").unwrap().column_values("fid").unwrap();
        assert_eq!(vals, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn iter_yields_relations_in_schema_order() {
        let db = friend_db();
        let names: Vec<&str> = db.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["friend"]);
    }

    #[test]
    fn sorted_orders_rows_deterministically() {
        let r = Relation::new(
            vec!["a".into()],
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap()
        .sorted();
        assert_eq!(
            r.to_rows(),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    // ------------------------------------------------------- columnar extras

    #[test]
    fn columns_are_typed_by_first_value_and_degrade_on_mismatch() {
        let mut r = Relation::empty(vec!["v".into()]);
        r.push_row(vec![Value::Int(1)]).unwrap();
        assert!(matches!(r.col(0), Column::Int(_)));
        r.push_row(vec![Value::Double(2.5)]).unwrap();
        assert!(matches!(r.col(0), Column::Mixed(_)));
        assert_eq!(r.row(0), vec![Value::Int(1)]);
        assert_eq!(r.row(1), vec![Value::Double(2.5)]);
    }

    #[test]
    fn string_columns_are_dictionary_coded() {
        let mut r = Relation::empty(vec!["city".into()]);
        for c in ["NYC", "LA", "NYC", "NYC", "LA"] {
            r.push_row(vec![Value::from(c)]).unwrap();
        }
        let (codes, dict) = r.col(0).as_str_codes().expect("str column");
        assert_eq!(dict.len(), 2, "two distinct strings interned");
        assert_eq!(codes[0], codes[2]);
        assert_ne!(codes[0], codes[1]);
        assert_eq!(r.value_at(3, 0), Value::from("NYC"));
    }

    #[test]
    fn null_values_degrade_to_mixed_and_round_trip() {
        let mut r = Relation::empty(vec!["v".into()]);
        r.push_row(vec![Value::Int(1)]).unwrap();
        r.push_row(vec![Value::Null]).unwrap();
        assert!(matches!(r.col(0), Column::Mixed(_)));
        assert_eq!(r.to_rows(), vec![vec![Value::Int(1)], vec![Value::Null]]);
    }

    #[test]
    fn split_off_splits_rows_and_shares_dictionaries() {
        let mut r = Relation::new(
            vec!["c".into()],
            vec![
                vec![Value::from("a")],
                vec![Value::from("b")],
                vec![Value::from("c")],
            ],
        )
        .unwrap();
        let tail = r.split_off(1);
        assert_eq!(r.len(), 1);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.row(0), vec![Value::from("b")]);
        let (_, d1) = r.col(0).as_str_codes().unwrap();
        let (_, d2) = tail.col(0).as_str_codes().unwrap();
        assert!(Arc::ptr_eq(d1, d2), "dictionaries must be shared");
    }

    #[test]
    fn append_translates_between_dictionaries() {
        let mut a = Relation::new(
            vec!["c".into()],
            vec![vec![Value::from("x")], vec![Value::from("y")]],
        )
        .unwrap();
        let b = Relation::new(
            vec!["c".into()],
            vec![vec![Value::from("y")], vec![Value::from("z")]],
        )
        .unwrap();
        a.append(b);
        assert_eq!(
            a.to_rows(),
            vec![
                vec![Value::from("x")],
                vec![Value::from("y")],
                vec![Value::from("y")],
                vec![Value::from("z")],
            ]
        );
        let (_, dict) = a.col(0).as_str_codes().unwrap();
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn relation_equality_is_logical_across_physical_layouts() {
        // an Int column equals a Mixed column holding the same numbers, and
        // Int(3) equals Double(3.0), exactly as under row/Value semantics
        let a = Relation::new(vec!["v".into()], vec![vec![Value::Int(3)]]).unwrap();
        let mut b = Relation::new(vec!["v".into()], vec![vec![Value::Double(3.0)]]).unwrap();
        assert_eq!(a, b, "Int(3) equals Double(3.0) across typed columns");
        b.col_mut(0).make_mixed();
        assert_eq!(a, b, "and across physical layouts");
    }

    #[test]
    fn database_clone_shares_relations_structurally() {
        let mut db = friend_db();
        db.insert_row("friend", vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let copy = db.clone();
        assert!(Arc::ptr_eq(
            db.relation_arc("friend").unwrap(),
            copy.relation_arc("friend").unwrap()
        ));
        // mutating the copy detaches only the touched relation
        let mut copy = copy;
        copy.insert_row("friend", vec![Value::Int(3), Value::Int(4)])
            .unwrap();
        assert!(!Arc::ptr_eq(
            db.relation_arc("friend").unwrap(),
            copy.relation_arc("friend").unwrap()
        ));
        assert_eq!(db.relation("friend").unwrap().len(), 1);
        assert_eq!(copy.relation("friend").unwrap().len(), 2);
    }

    #[test]
    fn take_rows_gathers_in_index_order() {
        let r = Relation::new(
            vec!["a".into(), "b".into()],
            vec![
                vec![Value::Int(1), Value::from("x")],
                vec![Value::Int(2), Value::from("y")],
                vec![Value::Int(3), Value::from("z")],
            ],
        )
        .unwrap();
        let g = r.take_rows(&[2, 0]);
        assert_eq!(
            g.to_rows(),
            vec![
                vec![Value::Int(3), Value::from("z")],
                vec![Value::Int(1), Value::from("x")],
            ]
        );
    }
}
