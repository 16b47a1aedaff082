//! # beas-serve — a multi-tenant serving front-end with budget-aware admission control
//!
//! The paper answers queries under an explicit resource bound; this crate
//! enforces the same discipline *at the door* of a network server. It exposes
//! the `Send + Sync` BEAS engine over a small JSON wire protocol (HTTP/1.1,
//! a thread per connection, std-only — no external dependencies), and
//! admits requests through per-tenant token buckets denominated in *budget
//! tuples per second*: the cost of a query is the tuple budget its
//! [`ResourceSpec`](beas_access::ResourceSpec) resolves to — exactly the
//! number the planner bounds execution by — so a tenant that saturates its
//! allowance gets `429 Too Many Requests` (with `Retry-After`) instead of
//! degrading every other tenant's latency.
//!
//! ```no_run
//! use std::sync::Arc;
//! use beas_core::{Beas, ConstraintSpec, ServeHandle};
//! use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};
//! use beas_serve::{serve, ServeConfig, TenantPolicy};
//!
//! let schema = DatabaseSchema::new(vec![RelationSchema::new(
//!     "poi",
//!     vec![Attribute::categorical("type"), Attribute::double("price")],
//! )]);
//! let engine = Arc::new(
//!     Beas::builder(Database::new(schema))
//!         .constraint(ConstraintSpec::new("poi", &["type"], &["price"]))
//!         .build()
//!         .unwrap(),
//! );
//! let server = serve(
//!     ServeHandle::new(engine),
//!     ServeConfig::default()
//!         .bind("127.0.0.1:0")
//!         .tenant("gold", TenantPolicy::with_rate(1_000_000.0, 2_000_000.0))
//!         .tenant("free", TenantPolicy::with_rate(10_000.0, 20_000.0))
//!         .default_tenant("free"),
//! )
//! .unwrap();
//! println!("serving on http://{}", server.addr());
//! # server.shutdown();
//! ```
//!
//! See the module docs for the pieces: [`server`] (routes and the
//! connection cap), [`http`] (the one accept and connection loop every
//! server in the workspace runs),
//! [`admission`] (token buckets, in-flight caps, bounded queues),
//! [`wire`] (the JSON query/answer format), [`metrics`] (per-tenant
//! counters + latency histograms), [`json`] (the std-only JSON value) and
//! [`client`] (a minimal blocking client for tests and load generation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use admission::{Rejection, Tenant, TenantPolicy, TenantRegistry};
pub use client::{Client, Response};
pub use json::{parse as parse_json, Json};
pub use metrics::{LatencyHistogram, TenantMetrics};
pub use server::{query_body, serve, update_body, RunningServer, ServeConfig};
pub use wire::{
    answer_to_json, query_from_json, query_to_json, relation_from_json, relation_to_json,
    schedule_from_json, step_to_json, update_from_json, value_from_json, value_to_json, WireError,
};
