//! # beas-cluster — distributed bounded execution with budget-proportional
//! scatter-gather
//!
//! Distributes BEAS (VLDB'17 "Data Driven Approximation with Bounded
//! Resources", Cao & Fan) across shard nodes while keeping the paper's
//! contract intact: a cluster answer is **bit-for-bit equal** — answer
//! relation, accuracy bound η, tuples accessed — to the answer a single node
//! holding the whole database would produce at the same total budget.
//!
//! ## Topology
//!
//! * A **coordinator** ([`ClusterHandle`]) owns the query-facing API
//!   ([`ClusterHandle::answer`], [`ClusterHandle::session`]) and the
//!   cluster catalog. [`ClusterBuilder`] builds that catalog once with
//!   [`BeasBuilder`](beas_core::BeasBuilder), exactly as a single node does
//!   (offline component C1 runs once, over the whole database), so planning
//!   over it is *identical* to single-node planning.
//! * N **shard nodes** ([`ShardNode`]) share the catalog. Each serves the
//!   families of the relations it owns — relation `i` of the schema goes to
//!   shard `i % shards` — and refuses fetches against any other.
//! * Control messages use `beas-serve`'s JSON wire encoding, and fragments
//!   and leaf results travel inside them as checksummed binary column frames
//!   (see [`crate::protocol`]); [`InProcessTransport`] round-trips every message through its serialized
//!   text form, so tests exercise the exact bytes a TCP transport would
//!   carry — and [`TcpShardTransport`] carries those bytes over real
//!   sockets to [`ShardServer`]s, with per-shard connection pooling,
//!   automatic reconnect and per-call deadlines.
//!
//! ## Budget split
//!
//! A resolved budget B is divided per query ([`split_budget`]): every shard
//! first receives the **tariff floor** — the estimated cost of the fetch
//! nodes it owns, which provably upper-bounds what executing them bills — so
//! no shard can run out of budget mid-plan regardless of rounding; the
//! remaining slack is split across shards **proportionally to partition
//! sizes** by largest remainder, so shares always sum to exactly B. A shard
//! whose proportional share would round to zero tuples still gets its tariff
//! floor and serves its exact small levels.
//!
//! ## Determinism guarantee
//!
//! Shards plan the (wire-canonicalised) query themselves against the shared
//! catalog — planning is deterministic, so no plan is ever serialized — and
//! a shard checks its plan's shape against the coordinator's in the `open`
//! that rides on the step's first request to it. Fetch results are
//! the exact level fragments a single node would read; leaf evaluation and
//! the final merge run the *same* executor code
//! ([`beas_core::evaluate_plan_leaf`], [`beas_core::compose_plan_answer`])
//! whether a leaf is computed on a shard or at the coordinator. Thread
//! counts only parallelise commutative folds over fixed row orders, so the
//! equality holds across shard counts and thread counts alike.
//!
//! ## Fault tolerance
//!
//! Real clusters lose shards. The coordinator runs every protocol call
//! under a [`RetryPolicy`] — per-call deadline, bounded attempts,
//! exponential backoff with **deterministic jitter** (a splitmix64 hash of
//! session, shard and attempt, so replays behave identically). Retries are
//! safe against *at-least-once* delivery: each shard keeps a per-step
//! idempotency ledger, so a fetch whose response was lost in flight is
//! re-served without billing the budget twice, and a shard that evicted or
//! lost its session state answers with the `no_session` code, which the
//! coordinator heals by re-sending the request with the step's `open`
//! attached. Opening and closing cost no calls of their own: a step's first
//! request to a shard carries the `open`, a one-shot answer's sole request
//! to a shard carries the `close`, and a shard the plan sends nothing is
//! never contacted (see [`crate::protocol`]).
//!
//! When a shard exhausts its retry budget, [`DegradedPolicy`] decides:
//! `Fail` surfaces [`ClusterError::ShardFailed`] with the full per-shard
//! context (shard id, op, attempts, elapsed vs deadline);
//! `PartialAnswer` composes an answer from the surviving shards — the
//! pruned composition flags the answer `partial: true`, reports an **honest
//! η** (a lower bound the full answer satisfies), and accounts the lost
//! shard's budget share as unspent in an [`OutageReport`]. A shard that
//! dies *after* serving all its fragments is salvaged bit-for-bit: its
//! leaves are re-evaluated at the coordinator and the answer stays
//! non-partial. [`FaultInjectingTransport`] drives the chaos property suite
//! that checks the invariant: *every answer is either bit-for-bit equal to
//! the healthy answer or flagged partial with a valid η lower bound.*
//!
//! ## Example
//!
//! ```
//! use beas_cluster::ClusterHandle;
//! use beas_core::{Beas, BeasQuery, ResourceSpec};
//! use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value};
//!
//! let schema = DatabaseSchema::new(vec![
//!     RelationSchema::new("poi", vec![Attribute::categorical("city"), Attribute::int("stars")]),
//!     RelationSchema::new("city", vec![Attribute::text("name"), Attribute::int("pop")]),
//! ]);
//! let mut db = Database::new(schema);
//! for (city, stars) in [("ll", 5), ("sf", 4), ("ll", 3), ("sf", 2)] {
//!     db.insert_row("poi", vec![Value::from(city), Value::Int(stars)]).unwrap();
//! }
//! db.insert_row("city", vec![Value::from("ll"), Value::Int(4_000_000)]).unwrap();
//! db.insert_row("city", vec![Value::from("sf"), Value::Int(900_000)]).unwrap();
//!
//! // two shards, one relation each — and a single node with everything
//! let cluster = ClusterHandle::builder(db.clone(), 2).build().unwrap();
//! let single = Beas::builder(db).build().unwrap();
//!
//! let mut b = SpcQueryBuilder::new(cluster.schema());
//! let p = b.atom("poi", "p").unwrap();
//! b.bind_const(p, "city", "ll").unwrap();
//! b.output(p, "stars", "stars").unwrap();
//! let query: BeasQuery = b.build().unwrap().into();
//!
//! let a = cluster.answer(&query, ResourceSpec::FULL).unwrap();
//! let b = single.answer(&query, ResourceSpec::FULL).unwrap();
//! assert_eq!(a.answers.digest(), b.answers.digest());
//! assert_eq!(a.eta.to_bits(), b.eta.to_bits());
//! assert_eq!(a.accessed, b.accessed);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod coordinator;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod shard;
pub mod tcp;
pub mod transport;

pub use budget::{split_budget, BudgetSplit};
pub use coordinator::{
    ClusterBuilder, ClusterHandle, ClusterSession, ClusterStep, DegradedPolicy, OutageReport,
    RetryPolicy, ShardOutage,
};
pub use error::{ClusterError, Result, ShardFailure};
pub use metrics::{serve_metrics, ClusterMetrics, MetricsServer};
pub use shard::ShardNode;
pub use tcp::{ShardServer, TcpShardTransport};
pub use transport::{FaultInjectingTransport, FaultRates, InProcessTransport, ShardTransport};
