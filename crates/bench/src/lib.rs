//! # beas-bench — the evaluation harness (Sec. 8)
//!
//! This crate regenerates every table and figure of the paper's experimental
//! study over the synthetic workloads of `beas-workloads`:
//!
//! | Paper artifact | Function | Binary target |
//! |---|---|---|
//! | Fig. 6(a)–(c) RC accuracy vs α | [`figures::fig6_accuracy_vs_alpha`] | `figures fig6a`/`fig6b`/`fig6c` |
//! | Fig. 6(d) MAC accuracy vs α | [`figures::fig6d_mac_vs_alpha`] | `figures fig6d` |
//! | Fig. 6(e)/(f) accuracy vs \|D\| | [`figures::fig6ef_accuracy_vs_scale`] | `figures fig6e`/`fig6f` |
//! | Fig. 6(g) accuracy vs #-sel | [`figures::fig6g_accuracy_vs_sel`] | `figures fig6g` |
//! | Fig. 6(h) accuracy vs #-prod | [`figures::fig6h_accuracy_vs_prod`] | `figures fig6h` |
//! | Fig. 6(i) accuracy vs query type | [`figures::fig6i_accuracy_vs_kind`] | `figures fig6i` |
//! | Fig. 6(j) α_exact vs \|D\| | [`figures::fig6j_exact_ratio`] | `figures fig6j` |
//! | Fig. 6(k) index sizes | [`figures::fig6k_index_size`] | `figures fig6k` |
//! | Fig. 6(l) + Exp-5 efficiency | [`figures::fig6l_efficiency`] | `figures fig6l` |
//!
//! Beyond the paper's figures, one table checks a contract rather than a
//! speed:
//!
//! | Table | Function | Binary target |
//! |---|---|---|
//! | kernel digests: chunked mask kernels vs the scalar reference | [`figures::fig_kernels`] | `figures kernel` |
//!
//! The η series of Exp-2 is reported alongside every accuracy figure. Absolute
//! numbers differ from the paper (synthetic data at laptop scale instead of
//! 60 GB on EC2); comparing the *shapes* against the paper's findings is
//! ROADMAP item 10. Serving latency and throughput are measured by one
//! instrument only, the standalone benchmark (`benchmark/`, declared by
//! `BENCHMARK.json`):
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload W`.
//!
//! The [`serving`] and [`cluster`] modules also hold the deterministic demo
//! fixtures that the `serve`, `cluster` and `cluster_faults` examples use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod figures;
pub mod harness;
pub mod serving;
pub mod table;

pub use harness::{BenchProfile, MethodAccuracy, Metric, QueryClass};
pub use table::Table;
