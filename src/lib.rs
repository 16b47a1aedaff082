//! # beas — Data Driven Approximation with Bounded Resources
//!
//! A from-scratch Rust implementation of **BEAS** (Cao & Fan, *Data Driven
//! Approximation with Bounded Resources*, VLDB 2017): resource-bounded
//! (approximate) query answering over relational data with a deterministic
//! accuracy lower bound.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`relal`] — the relational substrate (values, schemas, RA, evaluation);
//! * [`access`] — access schemas: templates, constraints, K-D tree indices,
//!   typed resource specs, budget-enforcing fetch;
//! * [`core`] — the session-oriented BEAS engine (builder, planner, executor,
//!   prepared queries, incremental maintenance) and the RC accuracy measure,
//!   plus accuracy targets: ask
//!   [`Beas::answer_with_target`](core::Beas::answer_with_target) for
//!   `eta:0.95` ([`AccuracyTarget`](core::AccuracyTarget)) instead of a
//!   budget and the planner searches the smallest budget whose planned η
//!   reaches it;
//! * [`serve`] — the multi-tenant network serving front-end: a std-only
//!   HTTP/1.1 server exposing the engine over a JSON wire protocol, with
//!   per-tenant budget-aware admission control (token buckets in budget
//!   tuples per second, in-flight caps, bounded queues → `429` +
//!   `Retry-After`);
//! * [`cluster`] — distributed bounded execution: a coordinator plus shard
//!   nodes with budget-proportional scatter-gather, whose answers are
//!   bit-for-bit equal to a single node at the same total budget — served
//!   in-process or over TCP with deadlines, retries and η-degraded partial
//!   answers when shards die;
//! * [`baselines`] — uniform sampling, histograms and BlinkDB-style stratified
//!   sampling, for comparison;
//! * [`workloads`] — synthetic TPCH/AIRCA/TFACC-like datasets and a random
//!   query workload generator.
//!
//! The engine API follows the paper's offline/online split (Fig. 2) as a
//! session lifecycle, and the engine is `Send + Sync` — share it across
//! threads, readers run on immutable snapshots and are never blocked by
//! writers (see the `beas-core` docs for the concurrency model):
//!
//! 1. **Build** (C1): [`Beas::builder`](core::Beas::builder) takes ownership of the database,
//!    registers access constraints and produces the engine with its indices,
//!    built in parallel across `BeasBuilder::num_threads` cores with
//!    bit-identical results.
//! 2. **Maintain** (C2): [`Beas::insert_row`](core::Beas::insert_row) / [`Beas::apply_update`](core::Beas::apply_update)
//!    (both `&self`) propagate inserts into every index incrementally — no
//!    rebuild — and publish the result with one atomic snapshot swap.
//! 3. **Prepare + answer** (C3/C4): [`Beas::prepare`](core::Beas::prepare) validates a query once
//!    and caches one bounded plan per budget, so answering again at a
//!    repeated [`ResourceSpec`](access::ResourceSpec) skips planning and goes straight to bounded
//!    execution, sharded across the engine's threads deterministically.
//!
//! The most convenient entry point is [`prelude`]:
//!
//! ```
//! use beas::prelude::*;
//!
//! // build a small database
//! let schema = DatabaseSchema::new(vec![RelationSchema::new(
//!     "poi",
//!     vec![Attribute::categorical("type"), Attribute::text("city"), Attribute::double("price")],
//! )]);
//! let mut db = Database::new(schema);
//! for i in 0..200i64 {
//!     db.insert_row("poi", vec![
//!         Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
//!         Value::from(if i % 5 == 0 { "NYC" } else { "LA" }),
//!         Value::Double(40.0 + (i % 120) as f64),
//!     ]).unwrap();
//! }
//!
//! // offline (C1): the engine owns the database and its access schema
//! let engine = Beas::builder(db)
//!     .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
//!     .build()
//!     .unwrap();
//!
//! let mut q = SpcQueryBuilder::new(engine.schema());
//! let h = q.atom("poi", "h").unwrap();
//! q.bind_const(h, "type", "hotel").unwrap();
//! q.bind_const(h, "city", "NYC").unwrap();
//! q.output(h, "price", "price").unwrap();
//! let query: BeasQuery = q.build().unwrap().into();
//!
//! // online (C3 + C4): prepare once, answer under typed resource specs;
//! // repeated budgets reuse the cached plan
//! let spec = ResourceSpec::Ratio(0.1);
//! {
//!     let prepared = engine.prepare(&query).unwrap();
//!     let answer = prepared.answer(spec).unwrap();
//!     assert!(answer.accessed <= engine.catalog().budget(&spec).unwrap());
//!     assert!(answer.eta > 0.0);
//!     prepared.answer(spec).unwrap();
//!     assert_eq!(prepared.cached_plans(), 1);
//! }
//!
//! // maintenance (C2): inserts flow into the indices without a rebuild
//! engine.insert_row("poi", vec![
//!     Value::from("hotel"), Value::from("NYC"), Value::Double(55.0),
//! ]).unwrap();
//! let after = engine.answer(&query, ResourceSpec::FULL).unwrap();
//! assert!(after.answers.rows().any(|r| r == vec![Value::Double(55.0)]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use beas_access as access;
pub use beas_baselines as baselines;
pub use beas_cluster as cluster;
pub use beas_core as core;
pub use beas_relal as relal;
pub use beas_serve as serve;
pub use beas_workloads as workloads;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use beas_access::{
        build_at, build_at_threaded, build_constraint, build_extended, build_extended_threaded,
        BudgetPolicy, Catalog, FetchSession, ResourceSpec,
    };
    pub use beas_baselines::{Baseline, BlinkSim, Histo, Sampl};
    pub use beas_cluster::{
        ClusterBuilder, ClusterHandle, ClusterMetrics, ClusterSession, ClusterStep, DegradedPolicy,
        FaultInjectingTransport, FaultRates, InProcessTransport, OutageReport, RetryPolicy,
        ShardOutage, ShardServer, ShardTransport, TcpShardTransport,
    };
    pub use beas_core::{
        exact_answers, f_measure, mac_accuracy, rc_accuracy, AccuracyConfig, AccuracyTarget,
        AggQuery, AnswerSession, Beas, BeasAnswer, BeasBuilder, BeasQuery, BoundedPlan,
        ConstraintSpec, EngineSnapshot, EngineStats, ExecOptions, Planner, PreparedQuery,
        QueryFingerprint, RaQuery, RefinementSchedule, RefinementStep, ServeHandle, StoreOptions,
        TargetedAnswer, UpdateBatch,
    };
    pub use beas_relal::{
        aggregate_relation, AggFunc, Attribute, Column, CompareOp, Database, DatabaseSchema,
        DistanceKind, GroupByQuery, Predicate, PredicateAtom, RaExpr, Relation, RelationSchema,
        SpcQuery, SpcQueryBuilder, StrDict, Value,
    };
    pub use beas_serve::{serve, RunningServer, ServeConfig, TenantPolicy};
    pub use beas_workloads::{
        airca::airca_lite,
        querygen::{generate_workload, QueryGenConfig},
        tfacc::tfacc_lite,
        tpch::tpch_lite,
        Dataset,
    };
}
