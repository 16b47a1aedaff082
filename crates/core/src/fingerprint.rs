//! Query fingerprints: the cross-handle identity of a query.
//!
//! The engine-level shared plan cache (see [`crate::prepared`]) is keyed on
//! `(query fingerprint, catalog version, budget)`, so *independent*
//! [`PreparedQuery`](crate::PreparedQuery) and
//! [`ServeHandle`](crate::ServeHandle) instances asking the same question
//! share one cached [`BoundedPlan`](crate::BoundedPlan) instead of each
//! re-planning it. A [`QueryFingerprint`] is a 128-bit structural hash of the
//! query's canonical rendering: two queries with the same atoms, tableau
//! terms, selections, composition and output produce the same fingerprint,
//! regardless of which handle (or which connection) built them.
//!
//! The fingerprint is computed once at prepare time and is deliberately wide
//! (two salted 64-bit [`FxHasher`] passes): at 128 bits an *accidental*
//! collision between distinct queries is negligible even for a server that
//! prepares billions of them. `FxHasher` is not collision-resistant against
//! an adversary, though, so the fingerprint is only the cache *key* — on
//! every hit the shared cache additionally compares the cached plan's query
//! against the requested one (see `SharedPlanCache::get`) and treats a
//! mismatch as a miss. That comparison is load-bearing: do not remove it to
//! save the hot-path equality check, or a crafted collision in the
//! multi-tenant serving cache could hand one tenant another tenant's plan.

use std::fmt;
use std::hash::Hasher;

use beas_relal::FxHasher;

use crate::query::BeasQuery;

/// A 128-bit structural fingerprint of a [`BeasQuery`] (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint {
    hi: u64,
    lo: u64,
}

impl QueryFingerprint {
    /// Fingerprints a query. Structurally equal queries (same atoms, terms,
    /// selections, composition, aggregation and output names) get equal
    /// fingerprints; the alias names chosen for atoms do participate, exactly
    /// like they do in query equality.
    pub fn of(query: &BeasQuery) -> Self {
        // the canonical rendering: the derived Debug format walks every field
        // of the tableau deterministically, so it is a faithful structural
        // serialization (used only as hash input, never parsed back)
        let canonical = format!("{query:?}");
        let mut hi = FxHasher::default();
        hi.write(b"beas-fp-hi");
        hi.write(canonical.as_bytes());
        let mut lo = FxHasher::default();
        lo.write(b"beas-fp-lo");
        lo.write(canonical.as_bytes());
        QueryFingerprint {
            hi: hi.finish(),
            lo: lo.finish(),
        }
    }
}

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::{Attribute, CompareOp, DatabaseSchema, RelationSchema, SpcQueryBuilder};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )])
    }

    fn hotels(max_price: i64) -> BeasQuery {
        let s = schema();
        let mut b = SpcQueryBuilder::new(&s);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, max_price)
            .unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    #[test]
    fn equal_queries_share_a_fingerprint_independent_of_the_builder() {
        let a = QueryFingerprint::of(&hotels(95));
        let b = QueryFingerprint::of(&hotels(95));
        assert_eq!(a, b);
        assert_eq!(a.to_string().len(), 32);
    }

    #[test]
    fn different_queries_get_different_fingerprints() {
        let a = QueryFingerprint::of(&hotels(95));
        let b = QueryFingerprint::of(&hotels(96));
        assert_ne!(a, b);
        assert_ne!(a.to_string(), b.to_string());
    }
}
