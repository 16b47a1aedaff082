//! # beas-access — access schema for BEAS
//!
//! Implements Sec. 2.1 and the Sec. 4.1 implementation notes of the paper:
//!
//! * **Access templates** `ψ = R(X → Y, N, d̄_Y)`: given any X-value, an index
//!   returns at most `N` representative Y-tuples such that every Y-value of
//!   `D` with that X-value is within the resolution `d̄_Y` of a representative.
//! * **Access constraints** are templates with resolution `0̄` (they return the
//!   exact Y-values).
//! * **Template families**: the paper's indices `ψ^R_1 … ψ^R_{M_R}` built from
//!   one K-D tree share a single physical table; a [`TemplateFamily`] models
//!   exactly that — one object with multiple *levels*, level `k` holding at
//!   most `2^k` representatives per X-value together with its resolution.
//! * **`A_t`**: the canonical access schema of the Approximability Theorem
//!   (one `∅ → attr(R)` family per relation), built by [`builder::build_at`].
//! * **Fetch**: the `fetch(X ∈ T, R, Y, ψ)` operator of bounded query plans,
//!   executed through a [`FetchSession`] that counts accessed tuples and
//!   enforces the budget `α·|D|`.
//! * **Resource specs**: the typed budget vocabulary ([`ResourceSpec`],
//!   [`BudgetPolicy`]) shared by the engine, the planner and the baselines.
//! * **Maintenance (C2)**: [`Catalog::insert_row`] propagates base-table
//!   inserts into every affected family incrementally via
//!   [`TemplateFamily::absorb`], keeping `D |= A` without a rebuild.
//!
//! Levels are stored **columnar**: one typed dictionary-coded
//! [`Column`](beas_relal::Column) per X- and Y-attribute (X-keys interned
//! once per family) plus parallel count/sum vectors, so
//! [`TemplateFamily::materialize`] — the fetch path of every bounded plan —
//! is a pure code/slice gather with no `Value` conversions; row-form
//! [`Rep`] rows remain the inspection and maintenance boundary
//! (see the [`family`] module docs for the layout).
//!
//! Level payloads may also be **tiered**: a [`Level`] constructed through
//! [`Level::paged`] keeps only its bound, resolution and [`LevelMeta`] size
//! metadata resident and loads its columns through a [`LevelPager`] (an
//! on-disk segment in `beas-store`) the first time a fetch touches it —
//! planning and budgeting never page, so the resource bound doubles as an
//! I/O bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod error;
pub mod family;
pub mod fetch;
pub mod kdtree;
mod par;
pub mod resource;

pub use builder::{
    build_at, build_at_threaded, build_constraint, build_extended, build_extended_threaded,
};
pub use catalog::{Catalog, IndexSizeReport};
pub use error::{AccessError, Result};
pub use family::{
    FamilyId, Level, LevelMeta, LevelPager, LevelParts, Rep, TemplateFamily, WEIGHT_COLUMN,
};
pub use fetch::{AccessCounter, FetchSession};
pub use kdtree::{multilevel_partition, multilevel_partition_threaded, LevelReps};
pub use resource::{BudgetPolicy, ResourceSpec};
