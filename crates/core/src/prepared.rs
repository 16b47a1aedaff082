//! Prepared queries and the engine-level shared plan cache: the
//! prepare-once / answer-many fast path of the engine.
//!
//! Repeated queries dominate a serving workload, and plan generation (C3) is
//! pure — it depends only on the query, the catalog and the resolved tuple
//! budget. The engine therefore keeps one **shared plan cache** keyed on
//! `(query fingerprint, catalog version, budget)`: *independent*
//! [`PreparedQuery`] handles (or [`ServeHandle`](crate::ServeHandle)
//! connections) asking the same question share one cached [`BoundedPlan`]
//! instead of each re-planning it. A [`PreparedQuery`] contributes, per
//! query:
//!
//! * the validation of the query against the schema (done once in
//!   [`Beas::prepare`]),
//! * the compiled output shape (column names, used for zero-budget answers),
//! * the [`QueryFingerprint`] under which its plans live in the shared
//!   cache — one entry per *resolved budget*, the whole cache capped at the
//!   engine's [`plan cache capacity`](crate::BeasBuilder::plan_cache_capacity)
//!   (default [`PLAN_CACHE_CAPACITY`]) with least-recently-used eviction, so
//!   a workload cycling through many distinct `Tuples(n)` specs cannot grow
//!   the cache without bound. Answering again at a repeated
//!   [`ResourceSpec`] — from *any* handle of the engine — skips planning
//!   entirely and goes straight to execution (C4).
//!
//! This mirrors the offline/online split the paper's data-driven scheme is
//! built on: pay the analysis once, amortize it across every later request —
//! and every later connection.
//!
//! # Concurrency
//!
//! `PreparedQuery` is `Send + Sync`: any number of threads may call
//! [`PreparedQuery::answer`] on one shared handle. The shared cache sits
//! behind an `RwLock` — concurrent cache hits take a read lock and never
//! serialize; only a cache miss (a budget planned for the first time)
//! briefly takes the write lock to publish its plan, and planning itself
//! happens outside any lock.
//!
//! Because maintenance ([`Beas::apply_update`]) is allowed to run while
//! prepared handles are live, the cache is tagged with the catalog
//! [`version`](beas_access::Catalog::version) it was filled against. An
//! answer call grabs one engine snapshot, and a version mismatch (the catalog
//! changed since the cache was filled) drops the stale plans and replans —
//! so a prepared answer always reflects a consistent, current snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use beas_access::ResourceSpec;

use crate::engine::{answer_from, empty_answer, Beas, BeasAnswer, EngineSnapshot};
use crate::error::Result;
use crate::fingerprint::QueryFingerprint;
use crate::planner::{BoundedPlan, Planner};
use crate::query::BeasQuery;
use crate::session::{AnswerSession, RefinementSchedule};

/// Default capacity of the engine's shared plan cache (entries, where one
/// entry is one `(query fingerprint, budget)` pair). Serving many distinct
/// queries × `Tuples(n)` specs previously grew plan caches without bound;
/// beyond the capacity the least-recently-used entry is evicted (and simply
/// re-planned if it returns). The cache is engine-wide (it used to be 32
/// *per prepared handle*), so the default is sized for a serving workload
/// with many distinct prepared queries. Override per engine via
/// [`BeasBuilder::plan_cache_capacity`](crate::BeasBuilder::plan_cache_capacity).
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// One cached plan with its last-use tick (atomic so cache *hits* can stay
/// under the shared read lock).
#[derive(Debug)]
struct CacheEntry {
    plan: Arc<BoundedPlan>,
    last_used: AtomicU64,
}

/// `(fingerprint, budget) → plan` map, tagged with the catalog version it
/// was filled against. Budgets are part of the key (not specs) so that
/// `Ratio(0.1)` and `Tuples(α·|D|)` share one entry.
#[derive(Debug, Default)]
struct CacheInner {
    version: u64,
    by_key: HashMap<(QueryFingerprint, usize), CacheEntry>,
}

/// The engine-level shared plan cache (see the module docs): one per
/// [`Beas`], shared by every [`PreparedQuery`] handle of that engine,
/// LRU-capped at a configurable capacity.
#[derive(Debug)]
pub(crate) struct SharedPlanCache {
    capacity: usize,
    inner: RwLock<CacheInner>,
    /// Monotonic use counter driving the LRU order (atomic so hits can bump
    /// recency under the shared read lock).
    tick: AtomicU64,
}

impl SharedPlanCache {
    /// An empty cache holding at most `capacity` plans (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        SharedPlanCache {
            capacity: capacity.max(1),
            inner: RwLock::new(CacheInner::default()),
            tick: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached plans (across all queries).
    pub(crate) fn len(&self) -> usize {
        self.inner.read().expect("plan cache poisoned").by_key.len()
    }

    /// Number of cached plans for one query fingerprint.
    pub(crate) fn len_for(&self, fingerprint: QueryFingerprint) -> usize {
        self.inner
            .read()
            .expect("plan cache poisoned")
            .by_key
            .keys()
            .filter(|(fp, _)| *fp == fingerprint)
            .count()
    }

    /// Cache lookup for `(fingerprint, budget)` at catalog `version`. Hits
    /// share the read lock and bump recency atomically. The cached plan
    /// carries the query it was generated for, which is compared against
    /// `query` on every hit — a fingerprint collision between two distinct
    /// queries (vanishingly unlikely, but the cache is shared by every
    /// tenant of a serving front-end) therefore degrades to a miss, never
    /// to serving the wrong plan.
    fn get(
        &self,
        fingerprint: QueryFingerprint,
        query: &BeasQuery,
        version: u64,
        budget: usize,
    ) -> Option<Arc<BoundedPlan>> {
        let cache = self.inner.read().expect("plan cache poisoned");
        if cache.version != version {
            return None;
        }
        let entry = cache.by_key.get(&(fingerprint, budget))?;
        if entry.plan.query != *query {
            return None;
        }
        // bump recency without upgrading to the write lock
        entry.last_used.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(Arc::clone(&entry.plan))
    }

    /// Publishes a freshly generated plan, evicting the least-recently-used
    /// entry when the cache is full.
    fn insert(
        &self,
        fingerprint: QueryFingerprint,
        version: u64,
        budget: usize,
        plan: Arc<BoundedPlan>,
    ) {
        let mut cache = self.inner.write().expect("plan cache poisoned");
        // versions are monotonic per engine: move the cache forward (dropping
        // plans of older catalogs), but never roll it back — a reader that
        // stalled on an old snapshot must not evict plans a newer snapshot
        // just published
        if cache.version < version {
            cache.by_key.clear();
            cache.version = version;
        }
        if cache.version != version {
            return;
        }
        let key = (fingerprint, budget);
        // LRU cap: serving many distinct queries/budgets must not grow the
        // cache without bound
        if cache.by_key.len() >= self.capacity && !cache.by_key.contains_key(&key) {
            if let Some(&lru) = cache
                .by_key
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k)
            {
                cache.by_key.remove(&lru);
            }
        }
        cache.by_key.insert(
            key,
            CacheEntry {
                plan,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
            },
        );
    }
}

/// How a [`PreparedQuery`] refers to its engine: borrowed for the classic
/// scoped lifecycle ([`Beas::prepare`]), shared (`Arc`) for `'static` handles
/// stored in serving state ([`Beas::prepare_shared`]).
#[derive(Debug)]
enum EngineRef<'e> {
    Borrowed(&'e Beas),
    Shared(Arc<Beas>),
}

impl EngineRef<'_> {
    fn get(&self) -> &Beas {
        match self {
            EngineRef::Borrowed(e) => e,
            EngineRef::Shared(e) => e,
        }
    }
}

/// A validated query handle whose plans live in the engine's shared plan
/// cache (see the module docs). Created by [`Beas::prepare`] (borrowing the
/// engine) or [`Beas::prepare_shared`] (owning an `Arc` of it, `'static`).
#[derive(Debug)]
pub struct PreparedQuery<'e> {
    engine: EngineRef<'e>,
    query: BeasQuery,
    /// The query's identity in the engine's shared plan cache.
    fingerprint: QueryFingerprint,
    /// Output column names, compiled once at prepare time.
    output_columns: Vec<String>,
}

impl<'e> PreparedQuery<'e> {
    /// Validates `query` once and wraps it with its shared-cache identity.
    pub(crate) fn borrowed(engine: &'e Beas, query: &BeasQuery) -> Result<Self> {
        Self::new(EngineRef::Borrowed(engine), query)
    }

    fn new(engine: EngineRef<'e>, query: &BeasQuery) -> Result<Self> {
        query.validate(engine.get().schema())?;
        Ok(PreparedQuery {
            query: query.clone(),
            fingerprint: QueryFingerprint::of(query),
            output_columns: query.output_columns(),
            engine,
        })
    }

    /// The prepared query.
    pub fn query(&self) -> &BeasQuery {
        &self.query
    }

    /// The engine the query was prepared against.
    pub fn engine(&self) -> &Beas {
        self.engine.get()
    }

    /// The query's fingerprint — its identity in the engine's shared plan
    /// cache.
    pub fn fingerprint(&self) -> QueryFingerprint {
        self.fingerprint
    }

    /// Number of distinct budgets with a cached plan for *this query* in the
    /// engine's shared cache.
    pub fn cached_plans(&self) -> usize {
        self.engine().plan_cache().len_for(self.fingerprint)
    }

    /// The bounded plan for `spec`: returned from the cache when the resolved
    /// budget was planned before (against the current catalog), generated
    /// (and cached) otherwise. Zero specs are an error, as in
    /// [`Planner::plan`].
    pub fn plan(&self, spec: ResourceSpec) -> Result<Arc<BoundedPlan>> {
        let snapshot = self.engine().snapshot();
        let budget = snapshot.catalog().budget(&spec)?;
        if budget == 0 {
            // delegate for the uniform zero-budget error message
            return Planner::new(snapshot.catalog())
                .plan(&self.query, spec)
                .map(Arc::new);
        }
        self.plan_for_budget(&snapshot, budget)
    }

    /// Shared-cache lookup / fill for an already-resolved non-zero budget
    /// against one engine snapshot. Hits share a read lock (concurrent
    /// `answer` calls never serialize); planning on a miss happens outside
    /// any lock, and a catalog version change invalidates all stale entries.
    pub(crate) fn plan_for_budget(
        &self,
        snapshot: &EngineSnapshot,
        budget: usize,
    ) -> Result<Arc<BoundedPlan>> {
        let engine = self.engine();
        let cache = engine.plan_cache();
        let version = snapshot.catalog().version;
        if let Some(plan) = cache.get(self.fingerprint, &self.query, version, budget) {
            engine.stats.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        engine
            .stats
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let plan =
            Arc::new(Planner::new(snapshot.catalog()).plan_prevalidated(&self.query, budget)?);
        cache.insert(self.fingerprint, version, budget, Arc::clone(&plan));
        Ok(plan)
    }

    /// Opens a [progressive refinement session](crate::AnswerSession) over
    /// this query: an iterator of answers at the increasing budgets of
    /// `schedule`, where each step reuses the fragments and partial results
    /// of the previous one instead of re-executing from scratch, and the
    /// final step is bit-for-bit the one-shot [`PreparedQuery::answer`] at
    /// the same spec.
    pub fn session(&self, schedule: RefinementSchedule) -> Result<AnswerSession<'_, 'e>> {
        AnswerSession::open(self, schedule)
    }

    /// Answers under `spec`, re-using the cached plan for repeated budgets
    /// (only execution — C4 — runs again). Zero specs yield an empty answer,
    /// exactly like [`Beas::answer`]. Thread-safe: the plan and the execution
    /// share one consistent engine snapshot.
    pub fn answer(&self, spec: ResourceSpec) -> Result<BeasAnswer> {
        let engine = self.engine();
        let snapshot = engine.snapshot();
        let budget = snapshot.catalog().budget(&spec)?;
        if budget == 0 {
            engine.stats.record_answer(0);
            return Ok(empty_answer(self.output_columns.clone()));
        }
        let plan = self.plan_for_budget(&snapshot, budget)?;
        let outcome = engine.execute_on(&plan, &snapshot)?;
        engine.stats.record_answer(outcome.accessed);
        Ok(answer_from(&plan, outcome))
    }
}

impl PreparedQuery<'static> {
    /// Validates `query` once against a shared engine; the handle owns an
    /// `Arc` clone, so it can be stored in `'static` serving state.
    pub(crate) fn shared(engine: Arc<Beas>, query: &BeasQuery) -> Result<Self> {
        Self::new(EngineRef::Shared(engine), query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ConstraintSpec;
    use beas_relal::{
        Attribute, CompareOp, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    fn poi_engine(n: i64) -> Beas {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        let cities = ["NYC", "LA", "Chicago"];
        for i in 0..n {
            db.insert_row(
                "poi",
                vec![
                    Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
                    Value::from(cities[(i % 3) as usize]),
                    Value::Double(30.0 + (i % 80) as f64),
                ],
            )
            .unwrap();
        }
        Beas::builder(db)
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap()
    }

    fn hotels(engine: &Beas) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 80i64).unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    #[test]
    fn prepare_validates_once_and_rejects_bad_queries() {
        let engine = poi_engine(120);
        let q = hotels(&engine);
        assert!(engine.prepare(&q).is_ok());
        let mut bad = match q {
            BeasQuery::Ra(crate::query::RaQuery::Spc(q)) => q,
            _ => unreachable!(),
        };
        bad.output.clear();
        assert!(engine.prepare(&bad.into()).is_err());
    }

    #[test]
    fn repeated_budgets_reuse_the_cached_plan() {
        let engine = poi_engine(240);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        assert_eq!(prepared.cached_plans(), 0);

        let first = prepared.plan(ResourceSpec::Ratio(0.1)).unwrap();
        assert_eq!(prepared.cached_plans(), 1);
        let second = prepared.plan(ResourceSpec::Ratio(0.1)).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeat budget must hit the cache"
        );

        // a spec in tuples resolving to the same budget shares the entry
        let budget = engine.catalog().budget(&ResourceSpec::Ratio(0.1)).unwrap();
        let third = prepared.plan(ResourceSpec::Tuples(budget)).unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(prepared.cached_plans(), 1);

        // a different budget plans afresh
        let other = prepared.plan(ResourceSpec::Ratio(0.5)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(prepared.cached_plans(), 2);
    }

    #[test]
    fn prepared_answers_match_engine_answers() {
        let engine = poi_engine(240);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        for alpha in [0.05, 0.1, 0.5, 1.0] {
            let spec = ResourceSpec::Ratio(alpha);
            let via_engine = engine.answer(&q, spec).unwrap();
            let via_prepared = prepared.answer(spec).unwrap();
            assert_eq!(
                via_engine.answers.clone().sorted(),
                via_prepared.answers.clone().sorted(),
                "α={alpha}"
            );
            assert_eq!(via_engine.eta, via_prepared.eta);
            assert_eq!(via_engine.budget, via_prepared.budget);
        }
        // answering again at a seen budget still hits the cache
        assert_eq!(prepared.cached_plans(), 4);
        prepared.answer(ResourceSpec::Ratio(0.1)).unwrap();
        assert_eq!(prepared.cached_plans(), 4);
    }

    #[test]
    fn zero_and_invalid_specs_behave_like_the_engine() {
        let engine = poi_engine(60);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let empty = prepared.answer(ResourceSpec::Ratio(0.0)).unwrap();
        assert!(empty.answers.is_empty());
        assert_eq!(empty.accessed, 0);
        assert_eq!(empty.answers.columns, vec!["price"]);
        assert!(prepared.plan(ResourceSpec::Ratio(0.0)).is_err());
        assert!(prepared.answer(ResourceSpec::Ratio(7.0)).is_err());
        assert_eq!(prepared.cached_plans(), 0);
    }

    #[test]
    fn plan_cache_is_capped_with_lru_eviction() {
        let engine = poi_engine(600);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        // cycle through more distinct budgets than the cache may hold
        let budgets: Vec<usize> = (1..=PLAN_CACHE_CAPACITY + 8).collect();
        for &b in &budgets {
            prepared.plan(ResourceSpec::Tuples(b)).unwrap();
        }
        assert!(
            prepared.cached_plans() <= PLAN_CACHE_CAPACITY,
            "cache grew to {} entries (cap {PLAN_CACHE_CAPACITY})",
            prepared.cached_plans()
        );
        // the most recent budget survives and still hits
        let last = *budgets.last().unwrap();
        let a = prepared.plan(ResourceSpec::Tuples(last)).unwrap();
        let b = prepared.plan(ResourceSpec::Tuples(last)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "recent budget must stay cached");
        // the oldest budget was evicted, so re-planning yields a fresh Arc —
        // and keeps working
        let again = prepared.plan(ResourceSpec::Tuples(budgets[0])).unwrap();
        assert_eq!(again.budget, budgets[0]);
    }

    #[test]
    fn independent_handles_share_the_engine_level_cache() {
        let engine = poi_engine(240);
        let q = hotels(&engine);
        let first = engine.prepare(&q).unwrap();
        let second = engine.prepare(&q).unwrap();
        assert_eq!(first.fingerprint(), second.fingerprint());

        // the first handle plans; the second hits the shared cache
        let before = engine.stats();
        let via_first = first.plan(ResourceSpec::Ratio(0.2)).unwrap();
        let via_second = second.plan(ResourceSpec::Ratio(0.2)).unwrap();
        assert!(
            Arc::ptr_eq(&via_first, &via_second),
            "independent handles for the same query must share one plan"
        );
        let after = engine.stats();
        assert_eq!(after.plan_cache_misses, before.plan_cache_misses + 1);
        assert_eq!(
            after.plan_cache_hits,
            before.plan_cache_hits + 1,
            "the second handle must record a shared-cache hit"
        );
        assert_eq!(engine.plan_cache_len(), 1);

        // a different query gets its own entry
        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "museum").unwrap();
        b.bind_const(h, "city", "LA").unwrap();
        b.output(h, "price", "price").unwrap();
        let other: BeasQuery = b.build().unwrap().into();
        let prepared_other = engine.prepare(&other).unwrap();
        assert_ne!(prepared_other.fingerprint(), first.fingerprint());
        prepared_other.plan(ResourceSpec::Ratio(0.2)).unwrap();
        assert_eq!(engine.plan_cache_len(), 2);
        assert_eq!(first.cached_plans(), 1);
        assert_eq!(prepared_other.cached_plans(), 1);
    }

    #[test]
    fn plan_cache_capacity_is_configurable() {
        let engine = {
            let mut db_engine = poi_engine(400);
            // rebuild with a tiny capacity over the same database
            let db = db_engine.database_arc();
            db_engine = Beas::builder(db)
                .constraint(crate::engine::ConstraintSpec::new(
                    "poi",
                    &["type", "city"],
                    &["price"],
                ))
                .plan_cache_capacity(4)
                .build()
                .unwrap();
            db_engine
        };
        assert_eq!(engine.plan_cache_capacity(), 4);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        for budget in 1..=10usize {
            prepared.plan(ResourceSpec::Tuples(budget)).unwrap();
        }
        assert!(
            engine.plan_cache_len() <= 4,
            "cache grew to {} entries (cap 4)",
            engine.plan_cache_len()
        );
        // zero is clamped
        let clamped = Beas::builder(engine.database_arc())
            .constraint(crate::engine::ConstraintSpec::new(
                "poi",
                &["type", "city"],
                &["price"],
            ))
            .plan_cache_capacity(0)
            .build()
            .unwrap();
        assert_eq!(clamped.plan_cache_capacity(), 1);
    }

    #[test]
    fn maintenance_invalidates_cached_plans() {
        let engine = poi_engine(240);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let before = prepared.answer(ResourceSpec::FULL).unwrap();
        assert_eq!(prepared.cached_plans(), 1);

        // insert a matching row through C2 while the handle stays live
        engine
            .insert_row(
                "poi",
                vec![
                    Value::from("hotel"),
                    Value::from("NYC"),
                    Value::Double(41.5),
                ],
            )
            .unwrap();

        // the stale plan is dropped and the new tuple is visible
        let after = prepared.answer(ResourceSpec::FULL).unwrap();
        assert_eq!(after.answers.len(), before.answers.len() + 1);
        assert!(after.answers.rows().any(|r| r == vec![Value::Double(41.5)]));
        assert_eq!(prepared.cached_plans(), 1, "stale entries must be dropped");

        // and it must agree with planning from scratch on the updated engine
        let direct = engine.answer(&q, ResourceSpec::FULL).unwrap();
        assert_eq!(
            after.answers.clone().sorted(),
            direct.answers.clone().sorted()
        );
    }
}
