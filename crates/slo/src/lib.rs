//! # beas-slo — the accuracy-target vocabulary
//!
//! The paper's contract is "best answer within a resource bound"
//! (`ratio:0.1`, `tuples:500`). Real tenants invert it: *"η ≥ 0.95, as
//! cheap as possible."* This crate holds the request side of that inverse:
//!
//! * [`AccuracyTarget`] — the accuracy-denominated request vocabulary
//!   (`eta:0.95`, optionally capped as `eta:0.95@ratio:0.5`), validated at
//!   the API boundary exactly like [`ResourceSpec`].
//!
//! The engine answers a target without any learned state: η is a
//! deterministic function of (query, catalog, budget) that the planner
//! computes before a tuple is fetched, so `Planner::plan_for_target` in
//! `beas-core` searches the budget directly.
//!
//! [`CurveStore`] is the η-vs-budget curve learner that preceded that
//! search. No engine path calls it; it stays only because the benchmark's
//! `slo.curve.*` probes still measure it, and it goes — with this crate and
//! the `beas-core` re-export — once those probes are retired.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
pub mod target;

pub use curve::CurveStore;
pub use target::AccuracyTarget;

pub use beas_access::ResourceSpec;
