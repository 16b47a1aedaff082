//! # beas-core — resource-bounded approximate query answering
//!
//! This crate implements BEAS ("Boundedly EvAluable Sql"), the framework of
//! *Data Driven Approximation with Bounded Resources* (Cao & Fan, VLDB 2017):
//! given a dataset `D`, an access schema `A` with `D |= A`, a query `Q`
//! (SPC, RA, or aggregate) and a resource ratio `α ∈ (0, 1]`, it produces an
//! α-bounded query plan `ξ_α` and a deterministic accuracy lower bound `η`
//! such that executing `ξ_α` accesses at most `α·|D|` tuples and the answers
//! have RC-accuracy at least `η`.
//!
//! The main entry points are:
//!
//! * [`Beas`] — the session-oriented, `Send + Sync` engine (built through
//!   [`BeasBuilder`], owns its database, Fig. 2 of the paper), with
//!   [`Beas::prepare`] for plan-cached repeated queries and
//!   [`Beas::insert_row`] / [`Beas::apply_update`] for incremental
//!   maintenance (component C2) — readers run on immutable snapshots and are
//!   never blocked by writers, execution shards across
//!   [`BeasBuilder::num_threads`] cores deterministically;
//! * [`ResourceSpec`] (re-exported from `beas-access`) — the typed budget
//!   vocabulary used by engine, planner and baselines alike;
//! * [`Planner`] — the approximation scheme `Γ_A` (chase + `chAT`);
//! * [`execute_plan`] — runs a bounded plan under a budget-enforcing fetch
//!   session;
//! * [`accuracy`] — the RC measure, MAC and F-measure used in the evaluation.
//!
//! ```
//! use beas_core::{Beas, ConstraintSpec, BeasQuery, ResourceSpec};
//! use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value};
//!
//! // a tiny database of points of interest
//! let schema = DatabaseSchema::new(vec![RelationSchema::new(
//!     "poi",
//!     vec![Attribute::categorical("type"), Attribute::text("city"), Attribute::double("price")],
//! )]);
//! let mut db = Database::new(schema);
//! for i in 0..100i64 {
//!     db.insert_row("poi", vec![
//!         Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
//!         Value::from(if i % 4 == 0 { "NYC" } else { "LA" }),
//!         Value::Double(50.0 + i as f64),
//!     ]).unwrap();
//! }
//!
//! // offline: build the access schema (A_t plus one constraint); the engine
//! // takes ownership of the database
//! let beas = Beas::builder(db)
//!     .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
//!     .build()
//!     .unwrap();
//!
//! // online: ask for hotels in NYC under a 20% resource ratio
//! let mut b = SpcQueryBuilder::new(beas.schema());
//! let h = b.atom("poi", "h").unwrap();
//! b.bind_const(h, "type", "hotel").unwrap();
//! b.bind_const(h, "city", "NYC").unwrap();
//! b.output(h, "price", "price").unwrap();
//! let query: BeasQuery = b.build().unwrap().into();
//!
//! let spec = ResourceSpec::Ratio(0.2);
//! let prepared = beas.prepare(&query).unwrap();
//! let answer = prepared.answer(spec).unwrap();
//! assert!(answer.eta > 0.0 && answer.eta <= 1.0);
//! assert!(answer.accessed <= beas.catalog().budget(&spec).unwrap());
//! // the second answer at the same budget reuses the cached plan
//! let again = prepared.answer(spec).unwrap();
//! assert_eq!(prepared.cached_plans(), 1);
//! assert_eq!(answer.answers.sorted(), again.answers.sorted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod chase;
pub mod engine;
pub mod error;
pub mod executor;
pub mod fingerprint;
pub mod plan;
pub mod planner;
pub mod prepared;
pub mod query;
pub mod session;

pub use accuracy::{
    coverage_ratio, exact_answers, f_measure, mac_accuracy, rc_accuracy, relax_ra, AccuracyConfig,
    FMeasure, RcReport,
};
pub use beas_access::{BudgetPolicy, ResourceSpec};
pub use beas_slo::{AccuracyTarget, CurveStore};
pub use beas_store::{Calibration, Store, StoreOptions, StoreStatsSnapshot};
pub use engine::{
    Beas, BeasAnswer, BeasBuilder, ConstraintSpec, EngineSnapshot, EngineStats, ServeHandle,
    TargetedAnswer, UpdateBatch,
};
pub use error::{BeasError, Result};
pub use executor::{
    calibrated_min_shard_rows, compose_plan_answer, compose_plan_answer_partial,
    evaluate_plan_leaf, execute_plan, execute_plan_with_budget, execute_plan_with_options,
    execute_plan_with_spec, execute_plan_with_state, node_keys, stream_plan_fragments, ExecOptions,
    ExecState, ExecutionOutcome, LeafEval, PlanFragments, DEFAULT_MIN_SHARD_ROWS,
};
pub use fingerprint::QueryFingerprint;
pub use plan::{FetchNode, FetchPlan, KeySource, LeafPlan};
pub use planner::{BoundedPlan, DistanceBounds, Planner};
pub use prepared::{PreparedQuery, PLAN_CACHE_CAPACITY};
pub use query::{AggQuery, BeasQuery, RaQuery};
pub use session::{AnswerSession, RefinementSchedule, RefinementStep, DEFAULT_RATIO_LADDER};
