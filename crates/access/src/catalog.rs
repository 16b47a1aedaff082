//! The catalog of template families available for a database, plus the
//! index-size accounting used by Exp-4 (Fig. 6(k)) and the incremental
//! maintenance hooks of component C2 (Fig. 2).

use std::collections::HashMap;
use std::sync::Arc;

use beas_relal::{Database, DatabaseSchema, DistanceKind, Row};

use crate::builder::build_at_threaded;
use crate::error::{AccessError, Result};
use crate::family::{FamilyId, TemplateFamily};
use crate::resource::{BudgetPolicy, ResourceSpec};

/// All access templates / constraints known for one database instance,
/// together with the database size `|D|` (needed to turn a resource ratio `α`
/// into a tuple budget without re-scanning the data).
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The database schema the families are defined over.
    pub schema: DatabaseSchema,
    /// `|D|`: total number of tuples of the underlying database.
    pub db_size: usize,
    /// How resource specs resolve to tuple budgets for this catalog.
    pub policy: BudgetPolicy,
    /// Monotonic change counter: bumped by every mutation (inserts, new
    /// families). Plan caches compare it to detect that a cached plan was
    /// generated against an older state of this catalog lineage.
    pub version: u64,
    /// Families behind `Arc`s: cloning the catalog for a copy-on-write
    /// update batch shares every family structurally, and `insert_row`
    /// deep-copies only the families defined on the touched relation.
    families: Vec<Arc<TemplateFamily>>,
    /// Family ids per relation, filled by [`Catalog::add_family_arc`] (the
    /// only way a family enters the catalog), so the planner's per-atom
    /// lookups are a map probe instead of a scan over every family.
    by_relation: HashMap<String, RelationFamilies>,
}

/// The ids of the families defined on one relation, in insertion order.
#[derive(Debug, Clone, Default)]
struct RelationFamilies {
    all: Vec<FamilyId>,
    /// The subset that are access constraints. Whether a family is one is
    /// fixed when it is added: maintenance never adds levels or changes a
    /// level's resolution.
    constraints: Vec<FamilyId>,
}

impl Catalog {
    /// An empty catalog over a schema.
    pub fn new(schema: DatabaseSchema, db_size: usize) -> Self {
        Catalog {
            schema,
            db_size,
            policy: BudgetPolicy::default(),
            version: 0,
            families: Vec::new(),
            by_relation: HashMap::new(),
        }
    }

    /// Builds a catalog containing the canonical schema `A_t` for `db`
    /// (offline component C1 of Fig. 2). Additional constraints and extended
    /// templates can be added afterwards with [`Catalog::add_family`].
    pub fn for_database(db: &Database) -> Result<Self> {
        Catalog::for_database_threaded(db, 1)
    }

    /// [`Catalog::for_database`] with the index build spread over up to
    /// `threads` scoped threads (byte-identical result, see
    /// [`build_at_threaded`]).
    pub fn for_database_threaded(db: &Database, threads: usize) -> Result<Self> {
        let mut catalog = Catalog::new(db.schema.clone(), db.total_tuples());
        for family in build_at_threaded(db, threads)? {
            catalog.add_family(family);
        }
        Ok(catalog)
    }

    /// Adds a family and returns its id.
    pub fn add_family(&mut self, family: TemplateFamily) -> FamilyId {
        self.add_family_arc(Arc::new(family))
    }

    /// Adds an already-shared family and returns its id. Sharing the `Arc`
    /// lets several catalogs serve the same index without copying it.
    pub fn add_family_arc(&mut self, family: Arc<TemplateFamily>) -> FamilyId {
        let id = self.families.len();
        let ids = self.by_relation.entry(family.relation.clone()).or_default();
        ids.all.push(id);
        if family.is_constraint() {
            ids.constraints.push(id);
        }
        self.families.push(family);
        self.version += 1;
        id
    }

    /// The family with the given id.
    pub fn family(&self, id: FamilyId) -> Result<&TemplateFamily> {
        self.families
            .get(id)
            .map(|f| f.as_ref())
            .ok_or(AccessError::UnknownFamily(id))
    }

    /// The shared handle of the family with the given id (used to verify
    /// structural sharing across copy-on-write clones).
    pub fn family_arc(&self, id: FamilyId) -> Result<&Arc<TemplateFamily>> {
        self.families.get(id).ok_or(AccessError::UnknownFamily(id))
    }

    /// All families.
    pub fn families(&self) -> &[Arc<TemplateFamily>] {
        &self.families
    }

    /// Number of families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// `true` when the catalog has no families.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Ids of all families defined on `relation`.
    pub fn families_for(&self, relation: &str) -> &[FamilyId] {
        self.by_relation
            .get(relation)
            .map_or(&[], |ids| ids.all.as_slice())
    }

    /// Ids of the access constraints (single exact level) on `relation`.
    pub fn constraints_for(&self, relation: &str) -> &[FamilyId] {
        self.by_relation
            .get(relation)
            .map_or(&[], |ids| ids.constraints.as_slice())
    }

    /// The `A_t` family of `relation`: the `∅ → attr(R)` family covering all
    /// attributes, if present.
    pub fn at_family_for(&self, relation: &str) -> Option<FamilyId> {
        let rel_schema = self.schema.relation(relation).ok()?;
        let all_attrs = rel_schema.attr_names();
        self.families.iter().position(|f| {
            f.relation == relation
                && f.is_full_relation()
                && all_attrs.iter().all(|a| f.y.contains(a))
        })
    }

    /// Resolves a [`ResourceSpec`] to a tuple budget for this catalog's
    /// database under its [`BudgetPolicy`]. Invalid specs (e.g. `α ∉ [0, 1]`)
    /// are an error; `Ratio(0.0)` resolves to a zero budget.
    pub fn budget(&self, spec: &ResourceSpec) -> Result<usize> {
        spec.budget(self.db_size, &self.policy)
    }

    /// Component C2 (Fig. 2): propagates one base-table insert into every
    /// family defined on `relation` and updates `|D|`, without rebuilding any
    /// index. The resolutions of existing levels never change, so every bound
    /// `η` computed from this catalog stays valid after the insert.
    ///
    /// The caller is responsible for also inserting the row into the
    /// underlying [`Database`] (the engine's `insert_row` does both).
    pub fn insert_row(&mut self, relation: &str, row: &Row) -> Result<()> {
        let rel_schema = self.schema.relation(relation)?;
        if row.len() != rel_schema.attributes.len() {
            return Err(AccessError::Relal(beas_relal::RelalError::SchemaMismatch(
                format!(
                    "row of arity {} inserted into {relation} of arity {}",
                    row.len(),
                    rel_schema.attributes.len()
                ),
            )));
        }
        for family in self.families.iter_mut().filter(|f| f.relation == relation) {
            // copy-on-write: only families on the touched relation detach
            // from clones sharing this catalog's lineage
            let family = Arc::make_mut(family);
            let mut xkey = Vec::with_capacity(family.x.len());
            for attr in &family.x {
                xkey.push(row[rel_schema.attr_index(attr)?].clone());
            }
            let mut yval = Vec::with_capacity(family.y.len());
            let mut dists: Vec<DistanceKind> = Vec::with_capacity(family.y.len());
            for attr in &family.y {
                let idx = rel_schema.attr_index(attr)?;
                yval.push(row[idx].clone());
                dists.push(rel_schema.attributes[idx].distance);
            }
            family.absorb(&xkey, &yval, &dists);
        }
        self.db_size += 1;
        self.version += 1;
        Ok(())
    }

    /// Batched form of [`Catalog::insert_row`]; validates all rows before
    /// applying any, so a bad row leaves the catalog untouched.
    pub fn insert_rows(&mut self, rows: &[(String, Row)]) -> Result<()> {
        for (relation, row) in rows {
            let rel_schema = self.schema.relation(relation)?;
            if row.len() != rel_schema.attributes.len() {
                return Err(AccessError::Relal(beas_relal::RelalError::SchemaMismatch(
                    format!(
                        "row of arity {} inserted into {relation} of arity {}",
                        row.len(),
                        rel_schema.attributes.len()
                    ),
                )));
            }
        }
        for (relation, row) in rows {
            self.insert_row(relation, row)?;
        }
        Ok(())
    }

    /// Index-size accounting (Exp-4, Fig. 6(k)).
    pub fn index_size_report(&self) -> IndexSizeReport {
        let mut constraint_tuples = 0usize;
        let mut template_tuples = 0usize;
        for f in &self.families {
            if f.is_constraint() {
                constraint_tuples += f.stored_tuples();
            } else {
                template_tuples += f.stored_tuples();
            }
        }
        IndexSizeReport {
            db_size: self.db_size,
            constraint_index_tuples: constraint_tuples,
            template_index_tuples: template_tuples,
        }
    }

    /// Index size restricted to a subset of families (e.g. those actually used
    /// by the workload's plans — the "used access templates" bar of Fig. 6(k)).
    pub fn index_size_of(&self, ids: &[FamilyId]) -> usize {
        ids.iter()
            .filter_map(|&id| self.families.get(id))
            .map(|f| f.stored_tuples())
            .sum()
    }
}

/// Index-size report, in tuples, relative to `|D|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexSizeReport {
    /// `|D|`.
    pub db_size: usize,
    /// Tuples stored by access-constraint indices.
    pub constraint_index_tuples: usize,
    /// Tuples stored by (multi-level) access-template indices.
    pub template_index_tuples: usize,
}

impl IndexSizeReport {
    /// Total index tuples.
    pub fn total_tuples(&self) -> usize {
        self.constraint_index_tuples + self.template_index_tuples
    }

    /// Constraint index size as a fraction of `|D|`.
    pub fn constraint_ratio(&self) -> f64 {
        ratio(self.constraint_index_tuples, self.db_size)
    }

    /// Total index size as a fraction of `|D|`.
    pub fn total_ratio(&self) -> f64 {
        ratio(self.total_tuples(), self.db_size)
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_constraint;
    use beas_relal::{Attribute, RelationSchema, Value};

    fn small_db() -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::new("friend", vec![Attribute::id("pid"), Attribute::id("fid")]),
            RelationSchema::new(
                "person",
                vec![Attribute::id("pid"), Attribute::text("city")],
            ),
        ]);
        let mut db = Database::new(schema);
        for i in 0..20i64 {
            db.insert_row("friend", vec![Value::Int(i % 5), Value::Int(i)])
                .unwrap();
            db.insert_row(
                "person",
                vec![
                    Value::Int(i),
                    Value::from(if i % 2 == 0 { "NYC" } else { "LA" }),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn for_database_builds_at_for_every_relation() {
        let db = small_db();
        let catalog = Catalog::for_database(&db).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.db_size, 40);
        assert!(catalog.at_family_for("friend").is_some());
        assert!(catalog.at_family_for("person").is_some());
        assert!(catalog.at_family_for("poi").is_none());
    }

    #[test]
    fn add_family_and_lookup_by_relation() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let c = build_constraint(&db, "friend", &["pid"], &["fid"]).unwrap();
        let id = catalog.add_family(c);
        assert!(catalog.family(id).unwrap().is_constraint());
        assert_eq!(catalog.families_for("friend").len(), 2);
        assert_eq!(catalog.constraints_for("friend"), vec![id]);
        assert!(catalog.constraints_for("person").is_empty());
        assert!(catalog.family(99).is_err());
    }

    #[test]
    fn relation_lookups_survive_clones_and_later_families() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let c = catalog.add_family(build_constraint(&db, "friend", &["pid"], &["fid"]).unwrap());
        assert!(catalog.families_for("poi").is_empty());
        assert!(catalog.constraints_for("poi").is_empty());

        // a copy-on-write clone (an update batch) keeps the lists, and
        // diverges from the original only by what is added to it
        let mut clone = catalog.clone();
        clone
            .insert_row("friend", &vec![Value::Int(2), Value::Int(99)])
            .unwrap();
        let d = clone.add_family(build_constraint(&db, "person", &["pid"], &["city"]).unwrap());
        assert_eq!(clone.constraints_for("friend"), [c]);
        assert_eq!(clone.constraints_for("person"), [d]);
        assert!(catalog.constraints_for("person").is_empty());
        for cat in [&catalog, &clone] {
            for rel in ["friend", "person", "poi"] {
                let scan: Vec<FamilyId> = (0..cat.len())
                    .filter(|&id| cat.family(id).unwrap().relation == rel)
                    .collect();
                assert_eq!(cat.families_for(rel), scan);
            }
        }
    }

    #[test]
    fn budget_scales_with_the_spec() {
        let db = small_db();
        let catalog = Catalog::for_database(&db).unwrap();
        assert_eq!(catalog.budget(&ResourceSpec::Ratio(0.5)).unwrap(), 20);
        assert_eq!(catalog.budget(&ResourceSpec::FULL).unwrap(), 40);
        // tiny non-zero α still allows at least one access
        assert_eq!(catalog.budget(&ResourceSpec::Ratio(1e-9)).unwrap(), 1);
        // zero means zero, invalid means error — the seed granted 1 for both
        assert_eq!(catalog.budget(&ResourceSpec::Ratio(0.0)).unwrap(), 0);
        assert!(catalog.budget(&ResourceSpec::Ratio(-0.5)).is_err());
        assert!(catalog.budget(&ResourceSpec::Ratio(1.5)).is_err());
        // absolute budgets pass through
        assert_eq!(catalog.budget(&ResourceSpec::Tuples(7)).unwrap(), 7);
    }

    #[test]
    fn version_tracks_every_mutation() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let v0 = catalog.version;
        catalog
            .insert_row("friend", &vec![Value::Int(1), Value::Int(77)])
            .unwrap();
        assert_eq!(catalog.version, v0 + 1);
        catalog.add_family(build_constraint(&db, "friend", &["pid"], &["fid"]).unwrap());
        assert_eq!(catalog.version, v0 + 2);
        // failed mutations leave the version untouched
        assert!(catalog.insert_row("friend", &vec![Value::Int(1)]).is_err());
        assert_eq!(catalog.version, v0 + 2);
    }

    #[test]
    fn threaded_catalog_build_is_identical() {
        let db = small_db();
        let seq = Catalog::for_database(&db).unwrap();
        let par = Catalog::for_database_threaded(&db, 8).unwrap();
        assert_eq!(par.families(), seq.families());
        assert_eq!(par.db_size, seq.db_size);
        assert_eq!(par.version, seq.version);
    }

    #[test]
    fn insert_row_updates_size_and_every_family() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let c = build_constraint(&db, "friend", &["pid"], &["fid"]).unwrap();
        let cid = catalog.add_family(c);
        let before_size = catalog.db_size;
        let before_stored = catalog.family(cid).unwrap().stored_tuples();

        catalog
            .insert_row("friend", &vec![Value::Int(2), Value::Int(99)])
            .unwrap();
        assert_eq!(catalog.db_size, before_size + 1);
        let fam = catalog.family(cid).unwrap();
        assert_eq!(fam.stored_tuples(), before_stored + 1);
        let reps = fam.lookup(0, &[Value::Int(2)]).unwrap();
        assert!(reps.iter().any(|r| r.values == vec![Value::Int(99)]));
    }

    #[test]
    fn insert_row_rejects_bad_relation_or_arity() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        assert!(catalog.insert_row("nope", &vec![Value::Int(1)]).is_err());
        assert!(catalog.insert_row("friend", &vec![Value::Int(1)]).is_err());
        assert_eq!(catalog.db_size, 40, "failed inserts must not change |D|");
    }

    #[test]
    fn insert_rows_validates_the_whole_batch_first() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let batch = vec![
            ("friend".to_string(), vec![Value::Int(1), Value::Int(50)]),
            ("friend".to_string(), vec![Value::Int(1)]), // bad arity
        ];
        assert!(catalog.insert_rows(&batch).is_err());
        assert_eq!(
            catalog.db_size, 40,
            "a bad batch must leave the catalog untouched"
        );
        let good = vec![
            ("friend".to_string(), vec![Value::Int(1), Value::Int(50)]),
            (
                "person".to_string(),
                vec![Value::Int(50), Value::from("NYC")],
            ),
        ];
        catalog.insert_rows(&good).unwrap();
        assert_eq!(catalog.db_size, 42);
    }

    #[test]
    fn index_size_report_splits_constraints_and_templates() {
        let db = small_db();
        let mut catalog = Catalog::for_database(&db).unwrap();
        let c = build_constraint(&db, "person", &["pid"], &["city"]).unwrap();
        let cid = catalog.add_family(c);
        let report = catalog.index_size_report();
        assert_eq!(report.db_size, 40);
        assert_eq!(report.constraint_index_tuples, 20);
        assert!(report.template_index_tuples > 0);
        assert!(report.total_ratio() > report.constraint_ratio());
        assert_eq!(catalog.index_size_of(&[cid]), 20);
    }

    #[test]
    fn empty_catalog_reports_zero_sizes() {
        let report = Catalog::new(DatabaseSchema::default(), 0).index_size_report();
        assert_eq!(report.total_tuples(), 0);
        assert_eq!(report.total_ratio(), 0.0);
    }
}
