//! The BEAS framework facade (Fig. 2): offline catalog construction and
//! maintenance, online resource-bounded query answering.
//!
//! ```text
//!              ┌─ offline ─────────────────────────────┐
//!   database ─▶│ C1 build indices I_A for access schema│
//!              │ C2 maintain I_A under updates         │
//!              └───────────────────────────────────────┘
//!              ┌─ online ──────────────────────────────┐
//!   (Q, spec)─▶│ C3 generate α-bounded plan ξ_α, bound η│──▶ (ξ_α(D), η)
//!              │ C4 execute ξ_α, accessing ≤ α·|D|     │
//!              └───────────────────────────────────────┘
//! ```
//!
//! The engine is *session-oriented and concurrent*: it is constructed through
//! the fluent [`BeasBuilder`] (constraints, `A_t` options, budget policy,
//! thread count), answers queries under a typed [`ResourceSpec`], hands out
//! re-usable [`PreparedQuery`] handles that cache bounded plans per budget
//! (amortizing C3 across repeated requests), and maintains its indices
//! incrementally under inserts ([`Beas::insert_row`], [`Beas::apply_update`]
//! — component C2) instead of requiring an offline rebuild.
//!
//! # Concurrency model
//!
//! The engine is `Send + Sync` and built for many readers and occasional
//! writers:
//!
//! * **Readers** (`answer`, `plan`, `prepare`, `execute`, …) grab an
//!   [`EngineSnapshot`] — two `Arc` clones taken under a briefly-held read
//!   lock — and run entirely against that immutable snapshot. They are never
//!   blocked by an in-progress update batch, and each request sees one
//!   consistent `(database, catalog)` pair.
//! * **Writers** (`insert_row`, `apply_update`, `add_family`, all `&self`)
//!   serialize among themselves on a writer mutex, apply the batch to a
//!   *private copy-on-write clone* of the state, and publish it with one
//!   atomic snapshot swap (epoch style). A reader holding the previous
//!   snapshot keeps serving it until it drops its `Arc`s.
//!
//! Intra-query parallelism (sharded plan execution, parallel index build) is
//! governed by [`BeasBuilder::num_threads`], which defaults to the machine's
//! available parallelism.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use beas_access::{
    build_constraint, build_extended_threaded, AtOptions, BudgetPolicy, Catalog, FamilyId,
    ResourceSpec,
};
use beas_relal::{Database, DatabaseSchema, Relation, Row};
use beas_slo::AccuracyTarget;
use beas_store::{Calibration, Store, StoreOptions};

use crate::accuracy::{exact_answers, rc_accuracy, AccuracyConfig, RcReport};
use crate::error::Result;
use crate::executor::{
    calibrated_min_shard_rows, execute_plan_with_options, execute_plan_with_state, ExecOptions,
    ExecState, ExecutionOutcome,
};
use crate::planner::{BoundedPlan, Planner};
use crate::prepared::PreparedQuery;
use crate::query::BeasQuery;

/// A declarative description of an access constraint to register with the
/// engine (the `R(X → Y, N, 0)` constraints of Sec. 2.1); the engine derives
/// the extended multi-resolution templates `R(X∪Y → Z, 2^i, d̄_i)` from it, as
/// in the experimental setup of Sec. 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintSpec {
    /// Relation name.
    pub relation: String,
    /// The X attributes.
    pub x: Vec<String>,
    /// The Y attributes.
    pub y: Vec<String>,
    /// Whether to also build the derived extended template on the remaining
    /// attributes.
    pub extend: bool,
}

impl ConstraintSpec {
    /// A constraint `relation(x → y)` that also derives the extended template.
    pub fn new(relation: &str, x: &[&str], y: &[&str]) -> Self {
        ConstraintSpec {
            relation: relation.to_string(),
            x: x.iter().map(|s| s.to_string()).collect(),
            y: y.iter().map(|s| s.to_string()).collect(),
            extend: true,
        }
    }

    /// Disables the derived extended template.
    pub fn without_extension(mut self) -> Self {
        self.extend = false;
        self
    }
}

/// The answer returned by the engine: approximate (or exact) answers plus the
/// deterministic accuracy lower bound and the access accounting.
#[derive(Debug, Clone)]
pub struct BeasAnswer {
    /// The answers `ξ_α(D)`.
    pub answers: Relation,
    /// The accuracy lower bound `η`.
    pub eta: f64,
    /// Whether the answers are exact (`Q(D)`).
    pub exact: bool,
    /// Tuples accessed during execution (≤ the budget the spec resolved to).
    pub accessed: usize,
    /// The estimated tariff of the plan.
    pub planned_tariff: usize,
    /// The tuple budget the plan complied with.
    pub budget: usize,
    /// Whether the answer was composed from a strict subset of the plan's
    /// leaves (e.g. a cluster coordinator degrading around a dead shard).
    /// Single-node execution always answers over every leaf, so this is
    /// `false` everywhere except degraded cluster answers, where `eta` is
    /// recomputed from the surviving fragments only.
    pub partial: bool,
}

impl BeasAnswer {
    /// Assembles an answer from a plan and its execution outcome — the same
    /// packaging [`Beas::answer`] applies, exposed so other drivers of plan
    /// execution (e.g. a cluster coordinator composing shard results) return
    /// answers with identical semantics.
    pub fn from_execution(plan: &BoundedPlan, outcome: ExecutionOutcome) -> Self {
        answer_from(plan, outcome)
    }

    /// The answer for a zero-budget spec: no access, no answers, no bound.
    /// [`Beas::answer`] returns this for specs resolving to zero tuples.
    pub fn empty(columns: Vec<String>) -> Self {
        empty_answer(columns)
    }
}

/// The result of [`Beas::answer_with_target`]: the answer itself plus the
/// accounting a serving layer reconciles admission against.
#[derive(Debug, Clone)]
pub struct TargetedAnswer {
    /// The answer actually served (its `eta` is the achieved bound).
    pub answer: BeasAnswer,
    /// The target that was asked for.
    pub target: AccuracyTarget,
    /// The spec of the final (served) attempt, in absolute tuples.
    pub spec: ResourceSpec,
    /// The searched budget of the first attempt — what admission charged
    /// ([`Beas::predict_target_cost`] returns the same number beforehand).
    pub predicted_budget: usize,
    /// Fresh tuples fetched across all attempts (escalations re-use earlier
    /// fragments, so this is the true total spend to reconcile against).
    pub spent: usize,
    /// `true` when the achieved η meets the target. `false` means the target
    /// was honestly infeasible within `target.max_budget`.
    pub feasible: bool,
    /// Budget-doubling escalations taken after the first attempt: only a set
    /// difference, whose executed η can fall below its planned η, ever
    /// needs one.
    pub escalations: usize,
}

/// A batch of database updates for [`Beas::apply_update`] (component C2).
///
/// The batch is validated as a whole before any row is applied, so a bad row
/// leaves the engine untouched.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    inserts: Vec<(String, Row)>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Adds an insert of `row` into `relation`.
    pub fn insert(mut self, relation: &str, row: Row) -> Self {
        self.inserts.push((relation.to_string(), row));
        self
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len()
    }

    /// `true` when the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty()
    }

    /// The buffered inserts, in application order.
    pub fn inserts(&self) -> &[(String, Row)] {
        &self.inserts
    }
}

/// Fluent construction of a [`Beas`] engine (offline component C1).
///
/// ```
/// use beas_core::{Beas, ConstraintSpec};
/// use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};
///
/// let schema = DatabaseSchema::new(vec![RelationSchema::new(
///     "poi",
///     vec![Attribute::categorical("type"), Attribute::double("price")],
/// )]);
/// let engine = Beas::builder(Database::new(schema))
///     .constraint(ConstraintSpec::new("poi", &["type"], &["price"]))
///     .build()
///     .unwrap();
/// assert_eq!(engine.database().total_tuples(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct BeasBuilder {
    db: Arc<Database>,
    constraints: Vec<ConstraintSpec>,
    options: AtOptions,
    policy: BudgetPolicy,
    threads: Option<usize>,
    min_shard_rows: Option<usize>,
    plan_cache_capacity: usize,
    persist: Option<(PathBuf, StoreOptions)>,
}

impl BeasBuilder {
    /// A builder over a database the engine will own. Accepts either a
    /// [`Database`] or an existing [`Arc<Database>`] (shared snapshots stay
    /// cheap: maintenance copies-on-write only when another handle is alive).
    pub fn new(db: impl Into<Arc<Database>>) -> Self {
        BeasBuilder {
            db: db.into(),
            constraints: Vec::new(),
            options: AtOptions::default(),
            policy: BudgetPolicy::default(),
            threads: None,
            min_shard_rows: None,
            plan_cache_capacity: crate::prepared::PLAN_CACHE_CAPACITY,
            persist: None,
        }
    }

    /// Makes the engine durable: [`BeasBuilder::build`] additionally creates
    /// a [`Store`] at `dir` (which must not already hold one), writes the
    /// freshly built state as its first snapshot, and attaches the store so
    /// every subsequent [`Beas::apply_update`] is write-ahead logged before
    /// it is published. Reopen later with [`Beas::open`] for a warm restart.
    pub fn persist_to(self, dir: impl Into<PathBuf>) -> Self {
        self.persist_with(dir, StoreOptions::default())
    }

    /// [`BeasBuilder::persist_to`] with explicit storage options (WAL sync
    /// mode, paging threshold, compaction thresholds).
    pub fn persist_with(mut self, dir: impl Into<PathBuf>, options: StoreOptions) -> Self {
        self.persist = Some((dir.into(), options));
        self
    }

    /// Sets the capacity of the engine's shared plan cache (entries, one per
    /// `(query fingerprint, budget)` pair; least-recently-used eviction
    /// beyond it). Clamped to at least 1. Defaults to
    /// [`PLAN_CACHE_CAPACITY`](crate::prepared::PLAN_CACHE_CAPACITY).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity.max(1);
        self
    }

    /// Sets the engine's thread count, used for the parallel index build (C1)
    /// and for sharded plan execution (C4). Clamped to at least 1; the
    /// default is the machine's available parallelism. Thread count never
    /// affects results: index builds and sharded execution are bit-for-bit
    /// deterministic.
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Pins the smallest sharded-atom row count for which plan execution
    /// engages parallel leaf evaluation, overriding the startup calibration
    /// ([`calibrated_min_shard_rows`]) the builder performs otherwise.
    /// Clamped to at least 1; never affects answers, only wall-clock.
    pub fn min_shard_rows(mut self, rows: usize) -> Self {
        self.min_shard_rows = Some(rows.max(1));
        self
    }

    /// Registers one access constraint.
    pub fn constraint(mut self, spec: ConstraintSpec) -> Self {
        self.constraints.push(spec);
        self
    }

    /// Registers several access constraints.
    pub fn constraints<I: IntoIterator<Item = ConstraintSpec>>(mut self, specs: I) -> Self {
        self.constraints.extend(specs);
        self
    }

    /// Sets the `A_t` construction options (e.g. the level cap).
    pub fn at_options(mut self, options: AtOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the budget policy used to resolve [`ResourceSpec`]s.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Offline component C1: builds the canonical `A_t` catalog plus the
    /// registered constraints (and their derived extended templates) across
    /// the configured number of threads, and returns the engine owning the
    /// database.
    pub fn build(self) -> Result<Beas> {
        let threads = self.threads.unwrap_or_else(default_threads);
        let db = &*self.db;
        let mut catalog = Catalog::for_database_threaded(db, &self.options, threads)?;
        catalog.policy = self.policy;
        for spec in &self.constraints {
            let x: Vec<&str> = spec.x.iter().map(|s| s.as_str()).collect();
            let y: Vec<&str> = spec.y.iter().map(|s| s.as_str()).collect();
            catalog.add_family(build_constraint(db, &spec.relation, &x, &y)?);
            if spec.extend {
                // the multi-resolution counterpart of the constraint itself:
                // given an X-value, up to 2^i representative Y-values (the ψ_i
                // templates of Example 1)
                catalog.add_family(build_extended_threaded(
                    db,
                    &spec.relation,
                    &x,
                    &y,
                    threads,
                )?);
                // derived template: key on X ∪ Y, return the remaining attributes
                let schema = db.schema.relation(&spec.relation)?;
                let xy: Vec<String> = spec.x.iter().chain(spec.y.iter()).cloned().collect();
                let rest: Vec<String> = schema
                    .attr_names()
                    .into_iter()
                    .filter(|a| !xy.contains(a))
                    .collect();
                if !rest.is_empty() {
                    let xy_ref: Vec<&str> = xy.iter().map(|s| s.as_str()).collect();
                    let rest_ref: Vec<&str> = rest.iter().map(|s| s.as_str()).collect();
                    catalog.add_family(build_extended_threaded(
                        db,
                        &spec.relation,
                        &xy_ref,
                        &rest_ref,
                        threads,
                    )?);
                }
            }
        }
        let schema = db.schema.clone();
        let catalog = Arc::new(catalog);
        let min_shard_rows = self
            .min_shard_rows
            .unwrap_or_else(calibrated_min_shard_rows);
        let store = match self.persist {
            Some((dir, options)) => {
                let store = Store::create(dir, options)?;
                store.write_snapshot(&self.db, &catalog)?;
                store.save_calibration(&current_calibration(min_shard_rows))?;
                Some(Arc::new(store))
            }
            None => None,
        };
        Ok(Beas {
            state: RwLock::new(EngineSnapshot {
                db: self.db,
                catalog,
            }),
            writer: Mutex::new(()),
            schema,
            threads,
            min_shard_rows,
            plan_cache: crate::prepared::SharedPlanCache::new(self.plan_cache_capacity),
            stats: StatsCounters::default(),
            store,
        })
    }
}

/// The calibration record describing *this* build on *this* machine — the
/// staleness key a persisted record is compared against at [`Beas::open`].
fn current_calibration(min_shard_rows: usize) -> Calibration {
    Calibration {
        min_shard_rows,
        package_version: env!("CARGO_PKG_VERSION").to_string(),
        parallelism: default_threads(),
    }
}

/// The engine's default thread count: the machine's available parallelism.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Internal atomic request counters of one [`Beas`] handle. Bumped lock-free
/// on the hot paths; read as one [`EngineStats`] snapshot.
#[derive(Debug, Default)]
pub(crate) struct StatsCounters {
    pub(crate) queries: AtomicU64,
    pub(crate) tuples_accessed: AtomicU64,
    pub(crate) updates: AtomicU64,
    pub(crate) rows_inserted: AtomicU64,
    pub(crate) plan_cache_hits: AtomicU64,
    pub(crate) plan_cache_misses: AtomicU64,
}

impl StatsCounters {
    /// Records one answered query and its access accounting.
    pub(crate) fn record_answer(&self, accessed: usize) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.tuples_accessed
            .fetch_add(accessed as u64, Ordering::Relaxed);
    }

    /// Records one applied update batch.
    pub(crate) fn record_update(&self, rows: usize) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.rows_inserted.fetch_add(rows as u64, Ordering::Relaxed);
    }
}

/// A point-in-time copy of an engine handle's request statistics — the
/// request-stats hook a serving front-end exposes under `GET /metrics`.
/// Counters are per [`Beas`] handle (a [`Beas::clone`] starts at zero) and
/// cover both the direct [`Beas::answer`] path and every [`PreparedQuery`]
/// created from the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Queries answered (including zero-budget empty answers).
    pub queries: u64,
    /// Total tuples accessed by answered queries.
    pub tuples_accessed: u64,
    /// Update batches applied (component C2).
    pub updates: u64,
    /// Rows inserted across all applied batches.
    pub rows_inserted: u64,
    /// Prepared-query plan-cache hits (answers that skipped planning).
    pub plan_cache_hits: u64,
    /// Prepared-query plan-cache misses (budgets planned for the first time,
    /// or re-planned after maintenance invalidated the cache).
    pub plan_cache_misses: u64,
    /// Storage: segment files written (snapshots, calibration records).
    /// Zero on engines without an attached store.
    pub segments_written: u64,
    /// Storage: segment files read and verified (eager loads + page-ins).
    pub segments_loaded: u64,
    /// Storage: bytes currently in the write-ahead log (resets when the log
    /// compacts into a snapshot).
    pub wal_bytes: u64,
    /// Storage: update batches recovered from the WAL tail by [`Beas::open`].
    pub replayed_batches: u64,
    /// Storage: paged index levels loaded on first fetch.
    pub page_ins: u64,
}

/// One consistent `(database, catalog)` pair published by the engine.
///
/// Snapshots are cheap to take (two `Arc` clones) and immutable: a request
/// that grabbed one keeps seeing exactly that state even while update batches
/// publish newer snapshots concurrently.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    db: Arc<Database>,
    catalog: Arc<Catalog>,
}

impl EngineSnapshot {
    /// The snapshot's database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The snapshot's catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }
}

/// The BEAS engine: owns its database and the access-schema catalog built
/// over it, answers queries under typed resource specs, and maintains the
/// catalog incrementally under inserts. `Send + Sync` — share it behind an
/// `Arc` (or plain references within a scope) and call [`Beas::answer`] /
/// [`Beas::apply_update`] from any number of threads; see the module docs for
/// the snapshot/swap concurrency model.
#[derive(Debug)]
pub struct Beas {
    /// The published state; readers clone it under a briefly-held read lock.
    state: RwLock<EngineSnapshot>,
    /// Serializes writers (copy-on-write + swap), so concurrent update
    /// batches cannot lose each other's rows. Readers never take this lock.
    writer: Mutex<()>,
    /// The schema, immutable for the engine's lifetime (no DDL), so query
    /// building and validation need no snapshot.
    schema: DatabaseSchema,
    threads: usize,
    /// Parallel-leaf threshold for sharded execution, resolved at build time
    /// (startup calibration unless the builder pinned it).
    min_shard_rows: usize,
    /// The shared plan cache: one per engine, keyed on
    /// `(query fingerprint, budget)` and shared by every [`PreparedQuery`]
    /// handle — independent handles for the same query share plans.
    pub(crate) plan_cache: crate::prepared::SharedPlanCache,
    /// Request statistics (see [`Beas::stats`]); plain atomics so the hot
    /// paths bump them without any lock.
    pub(crate) stats: StatsCounters,
    /// The attached durable store, when the engine was built with
    /// [`BeasBuilder::persist_to`] or reopened with [`Beas::open`]. Updates
    /// are write-ahead logged here before they are published.
    store: Option<Arc<Store>>,
}

impl Clone for Beas {
    /// Clones the engine handle over the current snapshot. The clone starts
    /// with fresh request statistics — stats are per-handle, not per-data —
    /// and is *not* durable: the store (single-writer WAL) stays with the
    /// original handle, so a clone's updates are never logged.
    fn clone(&self) -> Self {
        Beas {
            state: RwLock::new(self.snapshot()),
            writer: Mutex::new(()),
            schema: self.schema.clone(),
            threads: self.threads,
            min_shard_rows: self.min_shard_rows,
            plan_cache: crate::prepared::SharedPlanCache::new(self.plan_cache.capacity()),
            stats: StatsCounters::default(),
            store: None,
        }
    }
}

impl Beas {
    /// Starts building an engine over `db` (see [`BeasBuilder`]).
    pub fn builder(db: impl Into<Arc<Database>>) -> BeasBuilder {
        BeasBuilder::new(db)
    }

    /// Warm restart: opens the durable store at `dir` (created by
    /// [`BeasBuilder::persist_to`]), loads its snapshot, and replays the
    /// WAL tail — every update batch that was applied after the snapshot —
    /// so the reopened engine answers bit-for-bit like the engine that was
    /// killed. No indices are rebuilt: large index levels stay on disk and
    /// page in lazily on first fetch.
    pub fn open(dir: impl AsRef<Path>) -> Result<Beas> {
        Beas::open_with(dir, StoreOptions::default())
    }

    /// [`Beas::open`] with explicit storage options.
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Beas> {
        let store = Store::open(dir.as_ref(), options)?;
        let (db, catalog) = store.load_snapshot()?;

        // satellite calibration: reuse the persisted executor threshold only
        // when it was measured by this build on this core count — otherwise
        // re-calibrate and refresh the record
        let current = current_calibration(0);
        let min_shard_rows = match store.load_calibration()? {
            Some(cal)
                if cal.package_version == current.package_version
                    && cal.parallelism == current.parallelism =>
            {
                cal.min_shard_rows
            }
            _ => {
                let measured = calibrated_min_shard_rows();
                store.save_calibration(&current_calibration(measured))?;
                measured
            }
        };

        let schema = db.schema.clone();
        let engine = Beas {
            state: RwLock::new(EngineSnapshot {
                db: Arc::new(db),
                catalog: Arc::new(catalog),
            }),
            writer: Mutex::new(()),
            schema,
            threads: default_threads(),
            min_shard_rows,
            plan_cache: crate::prepared::SharedPlanCache::new(crate::prepared::PLAN_CACHE_CAPACITY),
            stats: StatsCounters::default(),
            store: Some(Arc::new(store)),
        };

        // WAL-tail replay: re-apply the recovered batches through the normal
        // incremental maintenance path, but do not re-log them (they are
        // already in the WAL) and do not count them as served updates (the
        // store counts them as `replayed_batches`)
        let replay = engine
            .store
            .as_ref()
            .expect("store attached above")
            .take_replay();
        for batch in replay {
            let _writer = engine.writer.lock().expect("writer lock poisoned");
            engine.apply_inserts_locked(&batch, false)?;
        }
        Ok(engine)
    }

    /// `true` when the engine has an attached durable store.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The attached durable store, when the engine is durable.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The engine's current consistent `(database, catalog)` snapshot.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.state.read().expect("engine state poisoned").clone()
    }

    /// The current database snapshot.
    pub fn database(&self) -> Arc<Database> {
        self.snapshot().db
    }

    /// A shared handle to the engine's database (e.g. for accuracy tooling
    /// that outlives a borrow of the engine). Alias of [`Beas::database`].
    pub fn database_arc(&self) -> Arc<Database> {
        self.database()
    }

    /// The current catalog snapshot (access schema + indices).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.snapshot().catalog
    }

    /// The database schema (immutable for the engine's lifetime).
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// The engine's thread count for index building and sharded execution.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The parallel-leaf threshold sharded execution runs with: the startup
    /// calibration's pick ([`calibrated_min_shard_rows`]) unless
    /// [`BeasBuilder::min_shard_rows`] pinned a value.
    pub fn min_shard_rows(&self) -> usize {
        self.min_shard_rows
    }

    /// The shared plan cache (internal hook for prepared queries and
    /// sessions).
    pub(crate) fn plan_cache(&self) -> &crate::prepared::SharedPlanCache {
        &self.plan_cache
    }

    /// Capacity of the engine's shared plan cache
    /// ([`BeasBuilder::plan_cache_capacity`], default
    /// [`PLAN_CACHE_CAPACITY`](crate::prepared::PLAN_CACHE_CAPACITY)).
    pub fn plan_cache_capacity(&self) -> usize {
        self.plan_cache.capacity()
    }

    /// Plans currently held by the shared plan cache (across all queries).
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// A snapshot of this handle's request statistics (queries answered,
    /// tuples accessed, updates applied, plan-cache hits/misses). Lock-free
    /// on both the read and the write side.
    pub fn stats(&self) -> EngineStats {
        let storage = self.store.as_deref().map(Store::stats).unwrap_or_default();
        EngineStats {
            queries: self.stats.queries.load(Ordering::Relaxed),
            tuples_accessed: self.stats.tuples_accessed.load(Ordering::Relaxed),
            updates: self.stats.updates.load(Ordering::Relaxed),
            rows_inserted: self.stats.rows_inserted.load(Ordering::Relaxed),
            plan_cache_hits: self.stats.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.stats.plan_cache_misses.load(Ordering::Relaxed),
            segments_written: storage.segments_written,
            segments_loaded: storage.segments_loaded,
            wal_bytes: storage.wal_bytes,
            replayed_batches: storage.replayed_batches,
            page_ins: storage.page_ins,
        }
    }

    /// Registers an additional template family and returns its id.
    pub fn add_family(&self, family: beas_access::TemplateFamily) -> FamilyId {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let snapshot = self.snapshot();
        let mut catalog = (*snapshot.catalog).clone();
        let id = catalog.add_family(family);
        self.publish(EngineSnapshot {
            db: snapshot.db,
            catalog: Arc::new(catalog),
        });
        id
    }

    /// Online component C3: generates the bounded plan and its bound η for a
    /// resource spec, without accessing the database. Zero specs are an error
    /// here (no plan can access zero tuples); [`Beas::answer`] maps them to an
    /// empty answer instead.
    pub fn plan(&self, query: &BeasQuery, spec: ResourceSpec) -> Result<BoundedPlan> {
        Planner::new(&self.snapshot().catalog).plan(query, spec)
    }

    /// Online components C3 + C4: plans and executes the query under a
    /// resource spec, returning the answers, the bound η and the accounting.
    /// Safe to call from many threads at once; each call runs against one
    /// consistent snapshot.
    pub fn answer(&self, query: &BeasQuery, spec: ResourceSpec) -> Result<BeasAnswer> {
        let snapshot = self.snapshot();
        let budget = snapshot.catalog.budget(&spec)?;
        if budget == 0 {
            query.validate(&snapshot.catalog.schema)?;
            self.stats.record_answer(0);
            return Ok(empty_answer(query.output_columns()));
        }
        let plan = Planner::new(&snapshot.catalog).plan_with_budget(query, budget)?;
        let outcome = self.execute_on(&plan, &snapshot)?;
        self.stats.record_answer(outcome.accessed);
        Ok(answer_from(&plan, outcome))
    }

    /// Answers `query` at an accuracy target: searches the smallest budget
    /// whose *planned* η reaches `target.eta` ([`Planner::plan_for_target`],
    /// no data touched), then executes that plan once. η is a deterministic
    /// function of the query, the catalog and the budget, so a first request
    /// spends exactly what a repeated one does. Only a set difference can
    /// execute below its planned η (the `d'` correction); its budget then
    /// doubles, re-using the fragments already fetched, until the target is
    /// met. Nothing is spent past `target.max_budget`: an answer that misses
    /// the target there comes back with [`TargetedAnswer::feasible`]
    /// `== false`.
    pub fn answer_with_target(
        &self,
        query: &BeasQuery,
        target: &AccuracyTarget,
    ) -> Result<TargetedAnswer> {
        let snapshot = self.snapshot();
        let catalog = &snapshot.catalog;
        let max_budget = target_cap(catalog, target)?;
        let planner = Planner::new(catalog);
        let (mut plan, _) = planner.plan_for_target(query, target.eta, max_budget)?;
        let predicted_budget = plan.budget;
        let mut state = ExecState::new();
        let mut escalations = 0usize;
        let answer = loop {
            let outcome = execute_plan_with_state(
                &plan,
                catalog,
                ExecOptions::budgeted(plan.budget.max(plan.tariff))
                    .with_threads(self.threads)
                    .with_min_shard_rows(self.min_shard_rows),
                &mut state,
            )?;
            let answer = answer_from(&plan, outcome);
            if answer.eta >= target.eta || plan.budget >= max_budget {
                break answer;
            }
            escalations += 1;
            let budget = plan.budget.saturating_mul(2).min(max_budget);
            plan = planner.plan_with_budget(query, budget)?;
        };
        // bill only what was fetched: escalations re-use fragments
        let spent = state.fetched_tuples();
        self.stats.record_answer(spent);
        Ok(TargetedAnswer {
            spec: ResourceSpec::Tuples(answer.budget),
            feasible: answer.eta >= target.eta,
            answer,
            target: *target,
            predicted_budget,
            spent,
            escalations,
        })
    }

    /// The tuple cost a serving layer should charge *before* executing
    /// [`Beas::answer_with_target`]: the budget its search settles on
    /// (capped at the target's budget ceiling). Reconcile against
    /// [`TargetedAnswer::spent`] after execution.
    pub fn predict_target_cost(&self, query: &BeasQuery, target: &AccuracyTarget) -> Result<usize> {
        let catalog = self.catalog();
        let max_budget = target_cap(&catalog, target)?;
        let (plan, _) = Planner::new(&catalog).plan_for_target(query, target.eta, max_budget)?;
        Ok(plan.budget)
    }

    /// Caches validation and per-budget plans for a query that will be asked
    /// repeatedly: `prepare` once, then [`PreparedQuery::answer`] per request
    /// — re-planning is skipped whenever the budget was seen before (and the
    /// catalog has not changed since).
    pub fn prepare(&self, query: &BeasQuery) -> Result<PreparedQuery<'_>> {
        PreparedQuery::borrowed(self, query)
    }

    /// [`Beas::prepare`] for an engine shared behind an `Arc`: the returned
    /// handle owns an `Arc` clone instead of a borrow, so it is `'static` and
    /// can be stored in long-lived serving state (a connection pool, a
    /// prepared-statement registry) that outlives any one stack frame.
    pub fn prepare_shared(self: &Arc<Self>, query: &BeasQuery) -> Result<PreparedQuery<'static>> {
        PreparedQuery::shared(Arc::clone(self), query)
    }

    /// Executes a previously generated plan against the current snapshot.
    pub fn execute(&self, plan: &BoundedPlan) -> Result<ExecutionOutcome> {
        let snapshot = self.snapshot();
        self.execute_on(plan, &snapshot)
    }

    /// Executes a plan against an explicit snapshot with the engine's thread
    /// count (the prepared-query path re-uses the snapshot it budgeted with).
    pub(crate) fn execute_on(
        &self,
        plan: &BoundedPlan,
        snapshot: &EngineSnapshot,
    ) -> Result<ExecutionOutcome> {
        execute_plan_with_options(
            plan,
            &snapshot.catalog,
            ExecOptions::budgeted(plan.budget.max(plan.tariff))
                .with_threads(self.threads)
                .with_min_shard_rows(self.min_shard_rows),
        )
    }

    /// The smallest resource ratio for which the query is answered exactly
    /// (Exp-3, Fig. 6(j)).
    pub fn exact_ratio(&self, query: &BeasQuery) -> Result<Option<f64>> {
        Planner::new(&self.snapshot().catalog).exact_ratio(query)
    }

    /// Ground truth `Q(D)` over the owned database (full evaluation — ignores
    /// every resource bound).
    pub fn exact_answers(&self, query: &BeasQuery) -> Result<Relation> {
        exact_answers(query, &self.snapshot().db)
    }

    /// Measures the RC accuracy of an answer set against the owned database.
    pub fn accuracy(
        &self,
        approx: &Relation,
        query: &BeasQuery,
        config: &AccuracyConfig,
    ) -> Result<RcReport> {
        rc_accuracy(approx, query, &self.snapshot().db, config)
    }

    /// Offline component C2: inserts one row into the owned database and
    /// propagates it through every affected family index — updating
    /// representatives, cardinality bounds, `|D|` and therefore budget
    /// accounting — without rebuilding the catalog.
    ///
    /// Existing level resolutions never change, so η bounds computed before
    /// the insert remain valid; answers at the full spec match a freshly
    /// rebuilt engine because exact levels absorb inserts exactly.
    ///
    /// Takes `&self`: the row is absorbed into a private copy of the state
    /// and published with one snapshot swap, so concurrent readers are never
    /// blocked (they keep serving the previous snapshot). Prefer
    /// [`Beas::apply_update`] for more than a handful of rows — every call
    /// pays one copy-on-write of the state.
    pub fn insert_row(&self, relation: &str, row: Row) -> Result<()> {
        self.apply_update(&UpdateBatch::new().insert(relation, row))
            .map(|_| ())
    }

    /// Batched component C2: validates the whole batch against a private
    /// copy-on-write clone of the state, applies every insert through the
    /// incremental index maintenance path, and publishes the result with one
    /// atomic snapshot swap. A bad row leaves the engine untouched; readers
    /// are never blocked. Returns the number of rows applied.
    ///
    /// The copy-on-write is *structural*: database relations and catalog
    /// families sit behind `Arc`s, so cloning the state shares everything and
    /// only the relations/families of the relations named in the batch are
    /// deep-copied — a small batch costs O(touched relation), not O(|D|).
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<usize> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        self.apply_inserts_locked(batch.inserts(), true)?;
        self.stats.record_update(batch.len());
        // compaction: once the WAL has grown past its thresholds, fold it
        // into a fresh snapshot (still under the writer lock, so the
        // snapshot captures exactly the state just published)
        if let Some(store) = &self.store {
            if store.should_compact() {
                let snapshot = self.snapshot();
                store.write_snapshot(&snapshot.db, &snapshot.catalog)?;
            }
        }
        Ok(batch.len())
    }

    /// The shared C2 application path (callers hold the writer lock): clone,
    /// validate, apply, WAL-log (when `log` and a store is attached), then
    /// publish. The WAL append happens strictly *before* the publish, so a
    /// batch a reader can observe is always recoverable; conversely a WAL
    /// failure leaves the engine state untouched.
    fn apply_inserts_locked(&self, inserts: &[(String, Row)], log: bool) -> Result<()> {
        let snapshot = self.snapshot();
        // copy-on-write: all mutation happens on a private clone, so readers
        // keep serving the published snapshot until the swap below
        let mut catalog = (*snapshot.catalog).clone();
        // the catalog validates the whole batch before touching any index
        catalog.insert_rows(inserts)?;
        let mut db = (*snapshot.db).clone();
        for (relation, row) in inserts {
            db.insert_row(relation, row.clone())?;
        }
        if log {
            if let Some(store) = &self.store {
                store.append_batch(inserts)?;
            }
        }
        self.publish(EngineSnapshot {
            db: Arc::new(db),
            catalog: Arc::new(catalog),
        });
        Ok(())
    }

    /// Atomically swaps in a new snapshot (callers hold the writer lock).
    fn publish(&self, snapshot: EngineSnapshot) {
        *self.state.write().expect("engine state poisoned") = snapshot;
    }
}

/// A cheaply cloneable serving handle over a shared engine: the hook a
/// network front-end builds on. It wraps `Arc<Beas>`, hands out owned
/// (`'static`) [`PreparedQuery`] handles via [`ServeHandle::prepare`], and
/// exposes the engine's request statistics for a `/metrics` endpoint —
/// without the front-end having to thread lifetimes through its connection
/// state.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    engine: Arc<Beas>,
}

impl ServeHandle {
    /// A serving handle over `engine`. Accepts a [`Beas`] or an existing
    /// `Arc<Beas>`; clones of the handle share the engine (and its stats).
    pub fn new(engine: impl Into<Arc<Beas>>) -> Self {
        ServeHandle {
            engine: engine.into(),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Beas> {
        &self.engine
    }

    /// Prepares a query into an owned handle (see [`Beas::prepare_shared`]).
    pub fn prepare(&self, query: &BeasQuery) -> Result<PreparedQuery<'static>> {
        self.engine.prepare_shared(query)
    }

    /// The engine's request statistics.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// Validates `target` and resolves its budget cap against `catalog`; a cap
/// resolving to zero tuples is an error, since no plan can reach η there.
pub(crate) fn target_cap(catalog: &Catalog, target: &AccuracyTarget) -> Result<usize> {
    target.validate()?;
    let max_budget = catalog.budget(&target.max_budget)?;
    if max_budget == 0 {
        return Err(crate::BeasError::Access(
            beas_access::AccessError::InvalidSpec(format!(
                "accuracy target budget cap `{}` resolves to a zero budget",
                target.max_budget
            )),
        ));
    }
    Ok(max_budget)
}

/// The answer for a zero-budget spec: no access, no answers, no bound.
pub(crate) fn empty_answer(columns: Vec<String>) -> BeasAnswer {
    BeasAnswer {
        answers: Relation::empty(columns),
        eta: 0.0,
        exact: false,
        accessed: 0,
        planned_tariff: 0,
        budget: 0,
        partial: false,
    }
}

/// Assembles a [`BeasAnswer`] from a plan and its execution outcome.
pub(crate) fn answer_from(plan: &BoundedPlan, outcome: ExecutionOutcome) -> BeasAnswer {
    BeasAnswer {
        answers: outcome.answers,
        eta: outcome.eta,
        exact: plan.exact,
        accessed: outcome.accessed,
        planned_tariff: plan.tariff,
        budget: plan.budget,
        partial: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::AccuracyConfig;
    use crate::query::{AggQuery, RaQuery};
    use beas_relal::{
        AggFunc, Attribute, CompareOp, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    /// A deterministic Example-1-style database.
    fn example_db(n: i64) -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::new(
                "person",
                vec![Attribute::id("pid"), Attribute::text("city")],
            ),
            RelationSchema::new("friend", vec![Attribute::id("pid"), Attribute::id("fid")]),
            RelationSchema::new(
                "poi",
                vec![
                    Attribute::text("address"),
                    Attribute::categorical("type"),
                    Attribute::text("city"),
                    Attribute::double("price"),
                ],
            ),
        ]);
        let mut db = Database::new(schema);
        let cities = ["NYC", "LA", "Chicago", "Boston"];
        for i in 0..n {
            db.insert_row("friend", vec![Value::Int(i % 10), Value::Int(i)])
                .unwrap();
            db.insert_row(
                "person",
                vec![Value::Int(i), Value::from(cities[(i % 4) as usize])],
            )
            .unwrap();
            db.insert_row(
                "poi",
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(if i % 3 == 0 { "hotel" } else { "museum" }),
                    Value::from(cities[(i % 4) as usize]),
                    Value::Double(40.0 + (i % 60) as f64 * 2.0),
                ],
            )
            .unwrap();
        }
        db
    }

    fn constraints() -> Vec<ConstraintSpec> {
        vec![
            ConstraintSpec::new("friend", &["pid"], &["fid"]).without_extension(),
            ConstraintSpec::new("person", &["pid"], &["city"]).without_extension(),
            ConstraintSpec::new("poi", &["type", "city"], &["price"]),
        ]
    }

    fn engine(n: i64) -> Beas {
        Beas::builder(example_db(n))
            .constraints(constraints())
            .build()
            .unwrap()
    }

    /// Q1 of Example 1 with (city, price) output.
    fn q1(db: &Database) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.join((p, "city"), (h, "city")).unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 95i64).unwrap();
        b.output(h, "city", "city").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    /// Q2 of Example 1.
    fn q2(db: &Database) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.output(p, "city", "city").unwrap();
        b.build().unwrap().into()
    }

    /// Hotels of a fixed (type, city) below a price, single atom. The city is
    /// pinned by an equality selection (not folded into the tableau) so it can
    /// still be projected into the output.
    fn hotels_in(db: &Database, city: &str, max_price: i64) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "city", CompareOp::Eq, city).unwrap();
        b.filter_const(h, "price", CompareOp::Le, max_price)
            .unwrap();
        b.output(h, "city", "city").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    #[test]
    fn boundedly_evaluable_query_is_answered_exactly() {
        let beas = engine(400);
        let q = q2(&beas.database());
        let answer = beas.answer(&q, ResourceSpec::Ratio(0.1)).unwrap();
        assert!(answer.exact);
        assert_eq!(answer.eta, 1.0);
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
        assert!(answer.accessed <= answer.budget);
    }

    #[test]
    fn execution_respects_the_budget() {
        let beas = engine(400);
        let q = q1(&beas.database());
        for alpha in [0.05, 0.1, 0.3] {
            let spec = ResourceSpec::ratio(alpha).unwrap();
            let answer = beas.answer(&q, spec).unwrap();
            let budget = beas.catalog().budget(&spec).unwrap();
            assert!(
                answer.accessed <= budget,
                "accessed {} > budget {budget} at α={alpha}",
                answer.accessed
            );
        }
    }

    #[test]
    fn q1_answers_become_exact_with_enough_budget() {
        let beas = engine(400);
        let q = q1(&beas.database());
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        assert!(answer.exact, "α = 1 must allow the exact plan");
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
    }

    #[test]
    fn approximate_answers_satisfy_the_reported_bound() {
        let beas = engine(400);
        let q = q1(&beas.database());
        for alpha in [0.03, 0.08, 0.2, 0.5] {
            let answer = beas.answer(&q, ResourceSpec::Ratio(alpha)).unwrap();
            let report = beas
                .accuracy(&answer.answers, &q, &AccuracyConfig::default())
                .unwrap();
            assert!(
                report.accuracy + 1e-9 >= answer.eta,
                "α={alpha}: measured accuracy {} below promised η {}",
                report.accuracy,
                answer.eta
            );
        }
    }

    #[test]
    fn eta_is_monotone_in_alpha() {
        let beas = engine(400);
        let q = q1(&beas.database());
        let mut last = -1.0;
        for alpha in [0.02, 0.05, 0.1, 0.25, 0.6, 1.0] {
            let answer = beas.answer(&q, ResourceSpec::Ratio(alpha)).unwrap();
            assert!(answer.eta >= last - 1e-12);
            last = answer.eta;
        }
    }

    #[test]
    fn targeted_answers_execute_the_searched_plan() {
        let beas = engine(400);
        let db = beas.database();
        let cheap = match hotels_in(&db, "NYC", 90) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let all = match hotels_in(&db, "NYC", 1000) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let difference = BeasQuery::Ra(all.difference(cheap));
        for q in [q1(&db), difference] {
            for eta in [0.3, 0.6, 1.0] {
                let target = AccuracyTarget::new(eta).unwrap();
                let served = beas.answer_with_target(&q, &target).unwrap();
                assert_eq!(
                    beas.predict_target_cost(&q, &target).unwrap(),
                    served.predicted_budget
                );
                assert_eq!(served.feasible, served.answer.eta >= eta);
                if served.escalations == 0 {
                    // one execution of the plan the search settled on
                    let direct = beas
                        .answer(&q, ResourceSpec::Tuples(served.predicted_budget))
                        .unwrap();
                    assert_eq!(served.answer.answers.digest(), direct.answers.digest());
                    assert_eq!(served.answer.eta.to_bits(), direct.eta.to_bits());
                    assert_eq!(served.answer.accessed, direct.accessed);
                    // fragments shared between leaves are fetched once
                    assert!(served.spent <= direct.accessed);
                }
            }
        }
        // a cap that resolves to zero tuples cannot reach any η
        let zero = AccuracyTarget::new(0.5)
            .unwrap()
            .with_max_budget(ResourceSpec::Tuples(0))
            .unwrap();
        assert!(beas.answer_with_target(&q2(&db), &zero).is_err());
    }

    #[test]
    fn tuple_specs_and_ratio_specs_share_the_budget_vocabulary() {
        let beas = engine(400);
        let q = q1(&beas.database());
        let db_size = beas.database().total_tuples();
        let by_ratio = beas.answer(&q, ResourceSpec::Ratio(0.1)).unwrap();
        let by_tuples = beas.answer(&q, ResourceSpec::Tuples(db_size / 10)).unwrap();
        assert_eq!(by_ratio.budget, by_tuples.budget);
        assert_eq!(
            by_ratio.answers.clone().sorted(),
            by_tuples.answers.clone().sorted()
        );
    }

    #[test]
    fn zero_spec_answers_empty_without_access() {
        let beas = engine(100);
        let q = q1(&beas.database());
        let answer = beas.answer(&q, ResourceSpec::Ratio(0.0)).unwrap();
        assert_eq!(answer.accessed, 0);
        assert_eq!(answer.budget, 0);
        assert!(answer.answers.is_empty());
        assert_eq!(answer.answers.columns, vec!["city", "price"]);
        assert_eq!(answer.eta, 0.0);
        // planning a zero spec is an error: no plan can access zero tuples
        assert!(beas.plan(&q, ResourceSpec::Tuples(0)).is_err());
        // invalid specs are rejected outright
        assert!(beas.answer(&q, ResourceSpec::Ratio(-1.0)).is_err());
        assert!(beas.answer(&q, ResourceSpec::Ratio(2.0)).is_err());
    }

    #[test]
    fn builder_applies_options_and_policy() {
        let beas = Beas::builder(example_db(200))
            .constraints(constraints())
            .at_options(AtOptions { level_cap: Some(2) })
            .budget_policy(BudgetPolicy::capped(25))
            .build()
            .unwrap();
        let at = beas.catalog().at_family_for("poi").unwrap();
        assert!(beas.catalog().family(at).unwrap().num_levels() <= 2);
        assert_eq!(beas.catalog().budget(&ResourceSpec::FULL).unwrap(), 25);
        let q = hotels_in(&beas.database(), "NYC", 200);
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        assert!(answer.accessed <= 25, "capped policy must bound access");
    }

    #[test]
    fn single_relation_selection_query_end_to_end() {
        let beas = engine(300);
        let q = hotels_in(&beas.database(), "NYC", 90);
        let answer = beas.answer(&q, ResourceSpec::Ratio(0.5)).unwrap();
        let truth = beas.exact_answers(&q).unwrap();
        assert!(answer.exact);
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
    }

    #[test]
    fn union_query_combines_branches() {
        let beas = engine(300);
        let a = match hotels_in(&beas.database(), "NYC", 200) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let b = match hotels_in(&beas.database(), "Chicago", 200) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let q: BeasQuery = BeasQuery::Ra(a.union(b));
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
    }

    #[test]
    fn difference_never_returns_excluded_tuples() {
        // Theorem 6(5): if t ∈ Q2(D) then t ∉ ξ_α(D)
        let beas = engine(300);
        let all = match hotels_in(&beas.database(), "NYC", 1000) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let cheap = match hotels_in(&beas.database(), "NYC", 90) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let q: BeasQuery = BeasQuery::Ra(all.difference(cheap.clone()));
        let cheap_exact = beas.exact_answers(&BeasQuery::Ra(cheap)).unwrap();
        for alpha in [0.05, 0.2, 1.0] {
            let answer = beas.answer(&q, ResourceSpec::Ratio(alpha)).unwrap();
            let excluded = cheap_exact.to_rows();
            for row in answer.answers.rows() {
                assert!(
                    !excluded.contains(&row),
                    "excluded tuple {row:?} returned at α={alpha}"
                );
            }
        }
    }

    #[test]
    fn aggregate_count_query_end_to_end() {
        let beas = engine(300);
        let inner = match q1(&beas.database()) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let q: BeasQuery = AggQuery::new(inner, vec!["city".into()], AggFunc::Count, "price", "n")
            .unwrap()
            .into();
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        let truth = beas.exact_answers(&q).unwrap();
        // counts grouped by city must match exactly under the exact plan
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());

        // under a small ratio the answer is approximate but non-empty and the
        // group keys are valid cities
        let approx = beas.answer(&q, ResourceSpec::Ratio(0.1)).unwrap();
        assert!(approx.eta <= 1.0);
        let report = beas
            .accuracy(&approx.answers, &q, &AccuracyConfig::default())
            .unwrap();
        assert!(report.accuracy >= 0.0);
    }

    #[test]
    fn aggregate_min_and_avg_queries_run() {
        let beas = engine(200);
        let inner = match hotels_in(&beas.database(), "NYC", 1000) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let small = ResourceSpec::Ratio(0.05);
        for agg in [AggFunc::Min, AggFunc::Max, AggFunc::Avg, AggFunc::Sum] {
            let q: BeasQuery = AggQuery::new(inner.clone(), vec!["city".into()], agg, "price", "v")
                .unwrap()
                .into();
            let exact = beas.answer(&q, ResourceSpec::FULL).unwrap();
            let truth = beas.exact_answers(&q).unwrap();
            assert_eq!(exact.answers.clone().sorted(), truth.sorted(), "agg {agg}");
            let approx = beas.answer(&q, small).unwrap();
            assert!(approx.accessed <= beas.catalog().budget(&small).unwrap());
        }
    }

    #[test]
    fn exact_ratio_is_small_for_bounded_queries() {
        let beas = engine(500);
        let r = beas.exact_ratio(&q2(&beas.database())).unwrap().unwrap();
        assert!(r < 0.2, "Q2 exact ratio should be small, got {r}");
        let r1 = beas.exact_ratio(&q1(&beas.database())).unwrap().unwrap();
        assert!(r1 >= r);
    }

    #[test]
    fn catalog_reports_index_sizes() {
        let beas = engine(200);
        let report = beas.catalog().index_size_report();
        assert!(report.constraint_index_tuples > 0);
        assert!(report.template_index_tuples > 0);
        assert!(report.total_ratio() > 0.0);
    }

    #[test]
    fn answer_rejects_invalid_query() {
        let beas = engine(50);
        let mut bad = match q2(&beas.database()) {
            BeasQuery::Ra(RaQuery::Spc(q)) => q,
            _ => unreachable!(),
        };
        bad.output.clear();
        assert!(beas.answer(&bad.into(), ResourceSpec::Ratio(0.5)).is_err());
    }

    #[test]
    fn insert_row_keeps_answers_consistent_with_a_rebuild() {
        let beas = engine(200);
        // insert a batch of new NYC hotels through the incremental C2 path
        for i in 0..25i64 {
            beas.insert_row(
                "poi",
                vec![
                    Value::from(format!("new{i}")),
                    Value::from("hotel"),
                    Value::from("NYC"),
                    Value::Double(50.0 + i as f64),
                ],
            )
            .unwrap();
        }
        assert_eq!(beas.catalog().db_size, beas.database().total_tuples());

        // a freshly rebuilt engine over the same (updated) data
        let rebuilt = Beas::builder(beas.database_arc())
            .constraints(constraints())
            .build()
            .unwrap();
        let q = hotels_in(&beas.database(), "NYC", 70);
        let incremental = beas.answer(&q, ResourceSpec::FULL).unwrap();
        let fresh = rebuilt.answer(&q, ResourceSpec::FULL).unwrap();
        assert!(incremental.exact && fresh.exact);
        assert_eq!(
            incremental.answers.clone().sorted(),
            fresh.answers.clone().sorted()
        );
        // the new tuples are actually visible
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(incremental.answers.clone().sorted(), truth.sorted());

        // budgets keep being respected after the size change
        let spec = ResourceSpec::Ratio(0.1);
        let approx = beas.answer(&q, spec).unwrap();
        assert!(approx.accessed <= beas.catalog().budget(&spec).unwrap());
    }

    #[test]
    fn apply_update_batches_inserts_atomically() {
        let beas = engine(100);
        let before = beas.database().total_tuples();
        let bad = UpdateBatch::new()
            .insert("poi", vec![Value::from("x"), Value::from("hotel")])
            .insert("friend", vec![Value::Int(1), Value::Int(2)]);
        assert!(beas.apply_update(&bad).is_err());
        assert_eq!(
            beas.database().total_tuples(),
            before,
            "bad batch must not apply"
        );

        let good = UpdateBatch::new()
            .insert("friend", vec![Value::Int(1), Value::Int(500)])
            .insert("person", vec![Value::Int(500), Value::from("NYC")]);
        assert_eq!(beas.apply_update(&good).unwrap(), 2);
        assert_eq!(beas.database().total_tuples(), before + 2);
        assert_eq!(beas.catalog().db_size, before + 2);

        // the inserted friend edge is visible through a bounded answer
        let q = q2(&beas.database());
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
        assert!(answer.answers.rows().any(|r| r == vec![Value::from("NYC")]));
    }

    /// The catalog's per-relation id lists against a scan over its families.
    fn assert_relation_lookups_match_a_scan(catalog: &Catalog) {
        for rel in ["friend", "person", "poi", "nope"] {
            let on_rel = |constraints_only: bool| -> Vec<FamilyId> {
                (0..catalog.len())
                    .filter(|&id| {
                        let f = catalog.family(id).unwrap();
                        f.relation == rel && (!constraints_only || f.is_constraint())
                    })
                    .collect()
            };
            assert_eq!(catalog.families_for(rel), on_rel(false), "{rel}");
            assert_eq!(catalog.constraints_for(rel), on_rel(true), "{rel}");
        }
        assert!(!catalog.constraints_for("friend").is_empty());
    }

    #[test]
    fn apply_update_shares_untouched_relations_and_families() {
        use std::sync::Arc as StdArc;
        let beas = engine(150);
        let before = beas.snapshot();
        assert_relation_lookups_match_a_scan(before.catalog());

        // a batch touching only `friend`
        let batch = UpdateBatch::new().insert("friend", vec![Value::Int(1), Value::Int(777)]);
        beas.apply_update(&batch).unwrap();
        let after = beas.snapshot();
        assert_relation_lookups_match_a_scan(after.catalog());

        // untouched relations are structurally shared with the old snapshot…
        for rel in ["person", "poi"] {
            assert!(
                StdArc::ptr_eq(
                    before.database().relation_arc(rel).unwrap(),
                    after.database().relation_arc(rel).unwrap()
                ),
                "{rel} must be shared, not deep-copied"
            );
        }
        // …while the touched one detached
        assert!(!StdArc::ptr_eq(
            before.database().relation_arc("friend").unwrap(),
            after.database().relation_arc("friend").unwrap()
        ));

        // same for catalog families: only families on `friend` detach
        for id in 0..before.catalog().len() {
            let fam = before.catalog().family(id).unwrap();
            let shared = StdArc::ptr_eq(
                before.catalog().family_arc(id).unwrap(),
                after.catalog().family_arc(id).unwrap(),
            );
            if fam.relation == "friend" {
                assert!(!shared, "family {id} on friend must detach");
            } else {
                assert!(shared, "family {id} on {} must stay shared", fam.relation);
            }
        }
    }

    #[test]
    fn maintenance_takes_shared_references_and_swaps_snapshots() {
        // writers are &self: an engine shared behind an Arc keeps accepting
        // updates, and a snapshot taken before an update keeps serving the
        // state it saw
        let beas = std::sync::Arc::new(engine(100));
        let q = q2(&beas.database());
        let before_snapshot = beas.snapshot();
        let before_size = before_snapshot.database().total_tuples();

        beas.insert_row("friend", vec![Value::Int(1), Value::Int(900)])
            .unwrap();
        assert_eq!(beas.database().total_tuples(), before_size + 1);
        // the pre-update snapshot is immutable
        assert_eq!(before_snapshot.database().total_tuples(), before_size);
        assert_eq!(
            before_snapshot.catalog().version + 1,
            beas.catalog().version
        );

        // the new edge is served by post-update answers
        let answer = beas.answer(&q, ResourceSpec::FULL).unwrap();
        let truth = beas.exact_answers(&q).unwrap();
        assert_eq!(answer.answers.clone().sorted(), truth.sorted());
    }

    #[test]
    fn min_shard_rows_is_calibrated_and_overridable() {
        let calibrated = Beas::builder(example_db(50))
            .constraints(constraints())
            .build()
            .unwrap();
        assert_eq!(
            calibrated.min_shard_rows(),
            crate::executor::calibrated_min_shard_rows(),
            "builder default must be the startup calibration"
        );
        assert!(calibrated.min_shard_rows() >= 16);
        let pinned = Beas::builder(example_db(50))
            .constraints(constraints())
            .min_shard_rows(128)
            .build()
            .unwrap();
        assert_eq!(pinned.min_shard_rows(), 128);
        // zero is clamped
        let clamped = Beas::builder(example_db(50))
            .constraints(constraints())
            .min_shard_rows(0)
            .build()
            .unwrap();
        assert_eq!(clamped.min_shard_rows(), 1);
        // the threshold never affects answers
        let q = hotels_in(&pinned.database(), "NYC", 200);
        let a = pinned.answer(&q, ResourceSpec::FULL).unwrap();
        let b = calibrated.answer(&q, ResourceSpec::FULL).unwrap();
        assert_eq!(a.answers, b.answers);
    }

    #[test]
    fn stats_hook_counts_queries_updates_and_cache_traffic() {
        let beas = engine(200);
        assert_eq!(beas.stats(), crate::engine::EngineStats::default());
        let q = hotels_in(&beas.database(), "NYC", 200);

        let answer = beas.answer(&q, ResourceSpec::Ratio(0.2)).unwrap();
        let after_answer = beas.stats();
        assert_eq!(after_answer.queries, 1);
        assert_eq!(after_answer.tuples_accessed, answer.accessed as u64);

        // prepared path: first answer misses the plan cache, repeat hits
        let prepared = beas.prepare(&q).unwrap();
        prepared.answer(ResourceSpec::Ratio(0.2)).unwrap();
        prepared.answer(ResourceSpec::Ratio(0.2)).unwrap();
        let after_prepared = beas.stats();
        assert_eq!(after_prepared.queries, 3);
        assert_eq!(after_prepared.plan_cache_misses, 1);
        assert_eq!(after_prepared.plan_cache_hits, 1);

        // zero-budget answers count as queries with zero access
        beas.answer(&q, ResourceSpec::Ratio(0.0)).unwrap();
        assert_eq!(beas.stats().queries, 4);
        assert_eq!(beas.stats().tuples_accessed, after_prepared.tuples_accessed);

        // updates
        beas.insert_row(
            "poi",
            vec![
                Value::from("x"),
                Value::from("hotel"),
                Value::from("NYC"),
                Value::Double(50.0),
            ],
        )
        .unwrap();
        let after_update = beas.stats();
        assert_eq!(after_update.updates, 1);
        assert_eq!(after_update.rows_inserted, 1);

        // a cloned handle starts fresh
        assert_eq!(beas.clone().stats(), crate::engine::EngineStats::default());
    }

    #[test]
    fn prepare_shared_hands_out_static_handles() {
        let beas = Arc::new(engine(150));
        let q = hotels_in(&beas.database(), "NYC", 200);
        let direct = beas.answer(&q, ResourceSpec::Ratio(0.5)).unwrap();

        // the prepared handle may outlive every borrow of the engine
        let prepared: PreparedQuery<'static> = beas.prepare_shared(&q).unwrap();
        let handle = std::thread::spawn(move || prepared.answer(ResourceSpec::Ratio(0.5)).unwrap());
        let via_shared = handle.join().unwrap();
        assert_eq!(via_shared.answers.sorted(), direct.answers.clone().sorted());

        // the ServeHandle facade wraps the same machinery
        let serve = crate::engine::ServeHandle::new(Arc::clone(&beas));
        let prepared = serve.prepare(&q).unwrap();
        prepared.answer(ResourceSpec::Ratio(0.5)).unwrap();
        assert!(serve.stats().queries >= 3);
        assert!(Arc::ptr_eq(serve.engine(), &beas));
    }

    #[test]
    fn num_threads_is_configurable_and_defaults_to_available_parallelism() {
        let single = Beas::builder(example_db(50))
            .constraints(constraints())
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(single.num_threads(), 1);
        let auto = Beas::builder(example_db(50))
            .constraints(constraints())
            .build()
            .unwrap();
        assert!(auto.num_threads() >= 1);
        // zero is clamped to one
        let clamped = Beas::builder(example_db(50))
            .constraints(constraints())
            .num_threads(0)
            .build()
            .unwrap();
        assert_eq!(clamped.num_threads(), 1);
    }

    /// A fresh scratch directory for persistence tests.
    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("beas-core-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Answer digests across the Example-1 queries at several budgets — the
    /// bit-for-bit restart equivalence check (digests are NaN-safe where
    /// `Relation` equality is not).
    fn answer_digests(beas: &Beas) -> Vec<u64> {
        let db = beas.database();
        let mut digests = Vec::new();
        for q in [q1(&db), q2(&db), hotels_in(&db, "NYC", 200)] {
            for spec in [
                ResourceSpec::Ratio(0.1),
                ResourceSpec::Ratio(0.5),
                ResourceSpec::FULL,
            ] {
                let a = beas.answer(&q, spec).unwrap();
                digests.push(a.answers.digest());
                digests.push(a.eta.to_bits());
                digests.push(a.exact as u64);
            }
        }
        digests
    }

    #[test]
    fn persisted_engine_reopens_warm_with_identical_answers() {
        let dir = store_dir("warm-restart");
        // page aggressively so the reopened engine exercises the tiered path
        let opts = StoreOptions {
            resident_level_tuples: 16,
            ..StoreOptions::default()
        };
        let built = Beas::builder(example_db(200))
            .constraints(constraints())
            .persist_with(&dir, opts)
            .build()
            .unwrap();
        assert!(built.is_durable());
        assert!(built.stats().segments_written > 0);

        // updates after the snapshot land in the WAL
        for i in 0..3i64 {
            built
                .apply_update(
                    &UpdateBatch::new()
                        .insert("friend", vec![Value::Int(1), Value::Int(900 + i)])
                        .insert("person", vec![Value::Int(900 + i), Value::from("NYC")]),
                )
                .unwrap();
        }
        let want = answer_digests(&built);
        assert!(built.stats().wal_bytes > 0);
        drop(built);
        // older stores also hold learned curves in `slo.seg`; it is ignored
        std::fs::write(dir.join("slo.seg"), b"BEASSEG\x01").unwrap();

        let reopened = Beas::open_with(&dir, opts).unwrap();
        let stats = reopened.stats();
        assert_eq!(stats.replayed_batches, 3);
        assert_relation_lookups_match_a_scan(&reopened.catalog());
        // replay absorbs into the families of the touched relations (friend,
        // person) and pages those in; the poi families stay on disk until a
        // query actually fetches from them
        let after_open = stats.page_ins;
        assert_eq!(answer_digests(&reopened), want);
        assert!(
            reopened.stats().page_ins > after_open,
            "answering pages the untouched fine levels in"
        );
        // replayed batches are not served updates
        assert_eq!(reopened.stats().updates, 0);
        // updates keep flowing (and keep being logged) after the restart
        reopened
            .apply_update(
                &UpdateBatch::new().insert("friend", vec![Value::Int(1), Value::Int(999)]),
            )
            .unwrap();
        assert_eq!(reopened.stats().updates, 1);
    }

    #[test]
    fn opening_without_a_wal_tail_pages_nothing_in() {
        let dir = store_dir("lazy-open");
        let opts = StoreOptions {
            resident_level_tuples: 0, // page everything
            ..StoreOptions::default()
        };
        let built = Beas::builder(example_db(120))
            .constraints(constraints())
            .persist_with(&dir, opts)
            .build()
            .unwrap();
        drop(built);
        let reopened = Beas::open_with(&dir, opts).unwrap();
        assert_eq!(
            reopened.stats().page_ins,
            0,
            "a replay-free open is metadata-only"
        );
        let q = q2(&reopened.database());
        reopened.answer(&q, ResourceSpec::Ratio(0.2)).unwrap();
        assert!(reopened.stats().page_ins > 0);
    }

    #[test]
    fn wal_compaction_folds_updates_into_a_new_snapshot() {
        let dir = store_dir("compaction");
        let opts = StoreOptions {
            compact_wal_batches: 2,
            ..StoreOptions::default()
        };
        let built = Beas::builder(example_db(60))
            .constraints(constraints())
            .persist_with(&dir, opts)
            .build()
            .unwrap();
        let store = Arc::clone(built.store().unwrap());
        assert_eq!(store.generation(), 1);
        for i in 0..5i64 {
            built
                .apply_update(
                    &UpdateBatch::new().insert("friend", vec![Value::Int(2), Value::Int(700 + i)]),
                )
                .unwrap();
        }
        // batches 2 and 4 crossed the threshold and compacted
        assert_eq!(store.generation(), 3);
        let want = answer_digests(&built);
        drop(built);

        // the tail after the last compaction (batch 5) replays on open
        let reopened = Beas::open_with(&dir, opts).unwrap();
        assert_eq!(reopened.stats().replayed_batches, 1);
        assert_eq!(answer_digests(&reopened), want);
    }

    #[test]
    fn calibration_survives_restart_and_stale_records_recalibrate() {
        let dir = store_dir("calibration");
        let built = Beas::builder(example_db(50))
            .constraints(constraints())
            .min_shard_rows(12345)
            .persist_to(&dir)
            .build()
            .unwrap();
        drop(built);

        // fresh record from this build on this machine: reused verbatim
        let reopened = Beas::open(&dir).unwrap();
        assert_eq!(reopened.min_shard_rows(), 12345);
        let store = Arc::clone(reopened.store().unwrap());
        // stale record (other core count): fall back to re-calibration and
        // refresh the persisted record
        store
            .save_calibration(&beas_store::Calibration {
                min_shard_rows: 777,
                package_version: env!("CARGO_PKG_VERSION").to_string(),
                parallelism: default_threads() + 1,
            })
            .unwrap();
        drop(reopened);
        let recalibrated = Beas::open(&dir).unwrap();
        assert_ne!(recalibrated.min_shard_rows(), 777);
        let refreshed = recalibrated.store().unwrap().load_calibration().unwrap();
        assert_eq!(
            refreshed.unwrap().min_shard_rows,
            recalibrated.min_shard_rows()
        );
    }

    #[test]
    fn clones_share_data_but_not_the_store() {
        let dir = store_dir("clone-durability");
        let built = Beas::builder(example_db(50))
            .constraints(constraints())
            .persist_to(&dir)
            .build()
            .unwrap();
        let clone = built.clone();
        assert!(built.is_durable());
        assert!(!clone.is_durable());
        // storage counters ride only on the durable handle
        assert!(built.stats().segments_written > 0);
        assert_eq!(clone.stats().segments_written, 0);
    }
}
