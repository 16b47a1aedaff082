//! The BEAS benchmark: five workloads over the repository's crates, the
//! end-to-end metrics a user of the system sees, and — in a separate traced
//! run — spans around the calls into each layer, folded into per-layer self
//! time. `README.md` explains the workloads and how to read the numbers;
//! `../BENCHMARK.json` names every metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod inputs;
pub mod loadgen;
pub mod probes;
pub mod report;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workloads;
