//! The `fetch(X ∈ T, R, Y, ψ)` operator of bounded query plans, with access
//! accounting.
//!
//! A [`FetchSession`] wraps a [`Catalog`] and counts every tuple returned by a
//! fetch. When a budget `B = α·|D|` is configured, the session *enforces* it:
//! a fetch that would exceed the budget fails with
//! [`AccessError::BudgetExceeded`], so an executed plan can never access more
//! than the α-fraction it was planned for (property (1) of the
//! resource-bounded scheme in Sec. 4.1).

use beas_relal::{Relation, Value};

use crate::catalog::Catalog;
use crate::error::{AccessError, Result};
use crate::family::FamilyId;

/// A plain counter of accessed tuples, shared by the fetch session and
/// reported to callers for the efficiency experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounter {
    /// Number of tuples returned by fetches so far.
    pub tuples: usize,
    /// Number of fetch operations executed.
    pub fetches: usize,
}

/// Executes fetch operations against a catalog under an optional tuple budget.
#[derive(Debug)]
pub struct FetchSession<'a> {
    catalog: &'a Catalog,
    budget: Option<usize>,
    counter: AccessCounter,
}

impl<'a> FetchSession<'a> {
    /// A session with a budget of `budget` tuples (`None` = unlimited, used
    /// for ground-truth style fetching in tests).
    pub fn new(catalog: &'a Catalog, budget: Option<usize>) -> Self {
        FetchSession {
            catalog,
            budget,
            counter: AccessCounter::default(),
        }
    }

    /// A session with the budget a [`ResourceSpec`](crate::ResourceSpec)
    /// resolves to under the catalog's policy.
    pub fn with_spec(catalog: &'a Catalog, spec: &crate::ResourceSpec) -> Result<Self> {
        Ok(FetchSession::new(catalog, Some(catalog.budget(spec)?)))
    }

    /// The catalog this session fetches from.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Tuples accessed so far.
    pub fn accessed(&self) -> usize {
        self.counter.tuples
    }

    /// Access counter snapshot.
    pub fn counter(&self) -> AccessCounter {
        self.counter
    }

    /// Remaining budget (`usize::MAX` when unlimited).
    pub fn remaining(&self) -> usize {
        match self.budget {
            Some(b) => b.saturating_sub(self.counter.tuples),
            None => usize::MAX,
        }
    }

    /// Executes `fetch(X ∈ xkeys, R, Y, ψ_level)` against family `family`.
    ///
    /// Duplicate X-keys are probed only once. The returned relation has
    /// columns `X ++ Y ++ __weight`.
    pub fn fetch(
        &mut self,
        family: FamilyId,
        level: usize,
        xkeys: &[Vec<Value>],
    ) -> Result<Relation> {
        let fam = self.catalog.family(family)?;
        // dedupe keys to avoid double-counting accesses for repeated lookups
        let mut unique: Vec<Vec<Value>> = Vec::with_capacity(xkeys.len());
        {
            let mut seen = beas_relal::FxHashSet::default();
            for k in xkeys {
                if seen.insert(k) {
                    unique.push(k.clone());
                }
            }
        }
        let rel = fam.materialize(level, &unique).map_err(|e| match e {
            AccessError::UnknownLevel { level, .. } => AccessError::UnknownLevel { family, level },
            other => other,
        })?;
        let new_total = self.counter.tuples + rel.len();
        if let Some(budget) = self.budget {
            if new_total > budget {
                return Err(AccessError::BudgetExceeded {
                    accessed: new_total,
                    budget,
                });
            }
        }
        self.counter.tuples = new_total;
        self.counter.fetches += 1;
        Ok(rel)
    }

    /// Fetches from a family with an empty X (the `A_t` whole-relation
    /// templates): equivalent to `fetch` with the single empty key.
    pub fn fetch_all(&mut self, family: FamilyId, level: usize) -> Result<Relation> {
        self.fetch(family, level, &[Vec::new()])
    }

    /// Charges `tuples` for a fetch served from a caller-side fragment cache
    /// (the resumable execution state of a refinement session) instead of a
    /// fresh materialization. The accounting — budget enforcement included —
    /// is exactly that of [`FetchSession::fetch`], so a resumed execution
    /// bills the same access a fresh one would; only the materialization work
    /// is skipped. Fails with [`AccessError::BudgetExceeded`] without
    /// consuming budget, like a real fetch.
    pub fn record_cached(&mut self, tuples: usize) -> Result<()> {
        let new_total = self.counter.tuples + tuples;
        if let Some(budget) = self.budget {
            if new_total > budget {
                return Err(AccessError::BudgetExceeded {
                    accessed: new_total,
                    budget,
                });
            }
        }
        self.counter.tuples = new_total;
        self.counter.fetches += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_constraint, build_extended};
    use crate::family::WEIGHT_COLUMN;
    use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};

    fn db_and_catalog() -> (Database, Catalog) {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::text("address"),
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        for i in 0..50i64 {
            db.insert_row(
                "poi",
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
                    Value::from(if i % 5 == 0 { "NYC" } else { "LA" }),
                    Value::Double(40.0 + i as f64),
                ],
            )
            .unwrap();
        }
        let mut catalog = Catalog::for_database(&db).unwrap();
        let c = build_constraint(&db, "poi", &["city"], &["type"]).unwrap();
        catalog.add_family(c);
        let t = build_extended(&db, "poi", &["type", "city"], &["price", "address"]).unwrap();
        catalog.add_family(t);
        (db, catalog)
    }

    #[test]
    fn fetch_returns_x_y_weight_relation() {
        let (_db, catalog) = db_and_catalog();
        let fam = catalog.constraints_for("poi")[0];
        let mut session = FetchSession::new(&catalog, None);
        let rel = session.fetch(fam, 0, &[vec![Value::from("NYC")]]).unwrap();
        assert_eq!(rel.columns, vec!["city", "type", WEIGHT_COLUMN]);
        assert!(!rel.is_empty());
        assert_eq!(session.counter().fetches, 1);
        assert_eq!(session.accessed(), rel.len());
    }

    #[test]
    fn duplicate_keys_are_probed_once() {
        let (_db, catalog) = db_and_catalog();
        let fam = catalog.constraints_for("poi")[0];
        let mut a = FetchSession::new(&catalog, None);
        let once = a.fetch(fam, 0, &[vec![Value::from("NYC")]]).unwrap();
        let mut b = FetchSession::new(&catalog, None);
        let twice = b
            .fetch(
                fam,
                0,
                &[vec![Value::from("NYC")], vec![Value::from("NYC")]],
            )
            .unwrap();
        assert_eq!(once.len(), twice.len());
        assert_eq!(a.accessed(), b.accessed());
    }

    #[test]
    fn budget_is_enforced() {
        let (_db, catalog) = db_and_catalog();
        let at = catalog.at_family_for("poi").unwrap();
        let exact = catalog.family(at).unwrap().exact_level();
        let mut session = FetchSession::new(&catalog, Some(10));
        let err = session.fetch_all(at, exact).unwrap_err();
        assert!(matches!(
            err,
            AccessError::BudgetExceeded { budget: 10, .. }
        ));
        // failed fetch does not consume budget
        assert_eq!(session.accessed(), 0);
        // a coarse level fits
        let rel = session.fetch_all(at, 0).unwrap();
        assert!(rel.len() <= 10);
    }

    #[test]
    fn with_spec_uses_catalog_budget() {
        let (_db, catalog) = db_and_catalog();
        let session = FetchSession::with_spec(&catalog, &crate::ResourceSpec::Ratio(0.1)).unwrap();
        assert_eq!(session.budget(), Some(5));
        assert_eq!(session.remaining(), 5);
        assert!(FetchSession::with_spec(&catalog, &crate::ResourceSpec::Ratio(-1.0)).is_err());
    }

    #[test]
    fn missing_key_returns_empty_relation() {
        let (_db, catalog) = db_and_catalog();
        let fam = catalog.constraints_for("poi")[0];
        let mut session = FetchSession::new(&catalog, Some(100));
        let rel = session
            .fetch(fam, 0, &[vec![Value::from("Atlantis")]])
            .unwrap();
        assert!(rel.is_empty());
        assert_eq!(session.accessed(), 0);
    }

    #[test]
    fn unknown_family_and_level_errors() {
        let (_db, catalog) = db_and_catalog();
        let mut session = FetchSession::new(&catalog, None);
        assert!(session.fetch(999, 0, &[vec![]]).is_err());
        let fam = catalog.constraints_for("poi")[0];
        let err = session
            .fetch(fam, 42, &[vec![Value::from("NYC")]])
            .unwrap_err();
        assert!(matches!(err, AccessError::UnknownLevel { level: 42, .. }));
    }

    #[test]
    fn multilevel_fetch_gets_more_tuples_at_deeper_levels() {
        let (_db, catalog) = db_and_catalog();
        let fam_id = *catalog
            .families_for("poi")
            .iter()
            .find(|&&id| {
                let f = catalog.family(id).unwrap();
                !f.is_constraint() && !f.is_full_relation()
            })
            .unwrap();
        let fam = catalog.family(fam_id).unwrap();
        let key = vec![Value::from("hotel"), Value::from("LA")];
        let mut session = FetchSession::new(&catalog, None);
        let coarse = session
            .fetch(fam_id, 0, std::slice::from_ref(&key))
            .unwrap();
        let fine = session.fetch(fam_id, fam.exact_level(), &[key]).unwrap();
        assert!(coarse.len() <= fine.len());
        assert!(coarse.len() <= 1);
    }
}
