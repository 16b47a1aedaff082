//! Regenerates the tables/figures of the paper's evaluation (Sec. 8).
//!
//! ```text
//! cargo run -p beas-bench --release --bin figures -- all
//! cargo run -p beas-bench --release --bin figures -- fig6a fig6d --full
//! ```
//!
//! With no arguments, every figure is produced under the quick profile.
//! `--full` switches to the larger profile (minutes). Serving latency and
//! throughput are measured by the benchmark in `benchmark/`, not here.

use beas_bench::figures::{
    all_figures, fig6_accuracy_vs_alpha, fig6d_mac_vs_alpha, fig6ef_accuracy_vs_scale,
    fig6g_accuracy_vs_sel, fig6h_accuracy_vs_prod, fig6i_accuracy_vs_kind, fig6j_exact_ratio,
    fig6k_index_size, fig6l_efficiency, fig_kernels, DatasetId,
};
use beas_bench::harness::Metric;
use beas_bench::{BenchProfile, Table};
use beas_core::ResourceSpec;

fn main() {
    // one pass over the arguments: flags (`--full`, repeated
    // `--spec ratio:0.05` overriding the profile's sweep through the
    // canonical ResourceSpec grammar) and positional figure ids
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut specs: Vec<ResourceSpec> = Vec::new();
    let mut requested: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--spec" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--spec needs a value (e.g. --spec ratio:0.05)");
                    std::process::exit(2);
                };
                if value.trim_start().starts_with("eta:") {
                    eprintln!(
                        "`{value}` is an accuracy target, not a resource spec; the figure \
                         sweeps are budget-denominated — send it as the `\"target\"` field \
                         of `POST /query`; `examples/slo.rs` shows targeted serving"
                    );
                    std::process::exit(2);
                }
                match value.parse::<ResourceSpec>() {
                    Ok(spec) => specs.push(spec),
                    Err(e) => {
                        eprintln!("bad --spec value `{value}`: {e}");
                        std::process::exit(2);
                    }
                }
                i += 1;
            }
            id if !id.starts_with("--") => requested.push(&args[i]),
            other => {
                eprintln!("unknown flag `{other}` (known: --full, --spec <ratio:A|tuples:N>)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mut profile = if full {
        BenchProfile::full()
    } else {
        BenchProfile::quick()
    };
    if !specs.is_empty() {
        profile.specs = specs;
    }

    let mut tables: Vec<Table> = Vec::new();
    if requested.is_empty() || requested.iter().any(|a| a.as_str() == "all") {
        tables = all_figures(&profile);
    } else {
        for name in requested {
            match name.as_str() {
                "fig6a" => tables.push(fig6_accuracy_vs_alpha(DatasetId::Tpch, &profile)),
                "fig6b" => tables.push(fig6_accuracy_vs_alpha(DatasetId::Tfacc, &profile)),
                "fig6c" => tables.push(fig6_accuracy_vs_alpha(DatasetId::Airca, &profile)),
                "fig6d" => tables.push(fig6d_mac_vs_alpha(&profile)),
                "fig6e" => tables.push(fig6ef_accuracy_vs_scale(&profile, Metric::Rc)),
                "fig6f" => tables.push(fig6ef_accuracy_vs_scale(&profile, Metric::Mac)),
                "fig6g" => tables.push(fig6g_accuracy_vs_sel(&profile)),
                "fig6h" => tables.push(fig6h_accuracy_vs_prod(&profile)),
                "fig6i" => tables.push(fig6i_accuracy_vs_kind(&profile)),
                "fig6j" => tables.push(fig6j_exact_ratio(&profile)),
                "fig6k" => tables.push(fig6k_index_size(&profile)),
                "fig6l" => tables.push(fig6l_efficiency(&profile)),
                "kernel" => tables.push(fig_kernels(&profile)),
                other => {
                    eprintln!("unknown figure id: {other}");
                    eprintln!(
                        "known ids: fig6a fig6b fig6c fig6d fig6e fig6f fig6g fig6h fig6i fig6j fig6k fig6l kernel all"
                    );
                    std::process::exit(2);
                }
            }
        }
    }

    println!(
        "BEAS evaluation harness — {} profile\n",
        if full { "full" } else { "quick" }
    );
    for table in tables {
        println!("{table}");
    }
}
