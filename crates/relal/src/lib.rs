//! # beas-relal — relational substrate for BEAS
//!
//! This crate provides the relational machinery that the BEAS reproduction is
//! built on: typed [`Value`]s, per-attribute [`distance`] functions, relation
//! and database [`schema`]s, **columnar** in-memory [`storage`] (one typed
//! [`Column`] vector per attribute, dictionary-coded strings, rows only at
//! the conversion boundary), relational-algebra [`expr`]essions (selection,
//! projection, Cartesian product, union, set difference, renaming),
//! conjunctive ([`spc`]) queries, aggregate queries and an exact
//! [`eval`]uator used both for ground truth and for executing the evaluation
//! part of bounded query plans. Selection predicates compile to fixed-width
//! chunked mask kernels ([`kernel`]): each atom fills one `u64` bitmask per
//! 64 rows straight off the raw `&[i64]`/`&[f64]`/`&[u32]` column slices
//! (branchless compare-to-bitmask in lanes of [`kernel::LANE_WIDTH`], scalar
//! tail at the same lane offsets), the conjunction ANDs mask words
//! chunk-by-chunk, and selected row indices are emitted from the surviving
//! bits. Hash joins key on dictionary codes, and numeric band joins sort
//! monotone integer total-order keys of the raw `f64` columns. The binary
//! [`codec`] writes and reads typed columns and relations as they are laid
//! out in memory; the durable store and the cluster wire both use it.
//!
//! The paper ("Data Driven Approximation with Bounded Resources", VLDB 2017)
//! runs BEAS on top of a commercial DBMS; this crate plays that role here so
//! that the whole system is self-contained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod distance;
pub mod error;
pub mod eval;
pub mod expr;
pub mod fasthash;
pub mod kernel;
pub mod predicate;
pub mod schema;
pub mod spc;
pub mod storage;
pub mod value;

pub use distance::{tuple_distance, DistanceKind};
pub use error::{RelalError, Result};
pub use eval::{
    aggregate_relation, eval_aggregate, eval_bag, eval_query, eval_set, qualify_relation,
    OverlayProvider, RelationProvider,
};
pub use expr::{AggFunc, GroupByQuery, QueryExpr, RaExpr};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use predicate::{CompareOp, Predicate, PredicateAtom};
pub use schema::{Attribute, DatabaseSchema, RelationSchema};
pub use spc::{OutputCol, Position, SelCond, SpcAtom, SpcQuery, SpcQueryBuilder, Term};
pub use storage::{Column, Database, Relation, Row, StrDict};
pub use value::{Value, ValueType};
