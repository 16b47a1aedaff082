//! One function per table/figure of the paper's evaluation (Sec. 8).
//!
//! Every function returns a [`Table`] whose rows mirror the series plotted in
//! the corresponding figure; the `figures` binary prints them. Putting the
//! measured tables beside the paper's is ROADMAP item 10.

use beas_workloads::{airca::airca_lite, tfacc::tfacc_lite, tpch::tpch_lite, Dataset};

use crate::harness::{
    average, evaluate_at, measure_timings, prepare, BenchProfile, EvalRow, Metric, QueryClass,
};
use crate::table::Table;

/// Which synthetic dataset a figure runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// TPCH-lite.
    Tpch,
    /// TFACC-lite.
    Tfacc,
    /// AIRCA-lite.
    Airca,
}

impl DatasetId {
    /// Generates the dataset at the given scale.
    pub fn generate(&self, scale: usize, seed: u64) -> Dataset {
        match self {
            DatasetId::Tpch => tpch_lite(scale, seed),
            DatasetId::Tfacc => tfacc_lite(scale, seed),
            DatasetId::Airca => airca_lite(scale, seed),
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Tpch => "TPCH",
            DatasetId::Tfacc => "TFACC",
            DatasetId::Airca => "AIRCA",
        }
    }
}

/// The standard method columns of the accuracy figures.
const METHOD_HEADERS: [&str; 7] = [
    "BEAS_SPC",
    "BEAS_RA",
    "BEAS_SPC(eta)",
    "BEAS_RA(eta)",
    "BlinkDB",
    "Histo",
    "Sampl",
];

/// Builds the per-method accuracy cells for one batch of evaluation rows.
fn method_cells(rows: &[EvalRow], metric: Metric) -> Vec<String> {
    let spc = |r: &EvalRow| QueryClass::is_spc_series(&r.class);
    let ra = |r: &EvalRow| !QueryClass::is_spc_series(&r.class);
    vec![
        Table::num(average(rows, "BEAS", metric, spc)),
        Table::num(average(rows, "BEAS", metric, ra)),
        Table::num(average(rows, "BEAS", Metric::Eta, spc)),
        Table::num(average(rows, "BEAS", Metric::Eta, ra)),
        Table::num(average(rows, "BlinkDB", metric, |_| true)),
        Table::num(average(rows, "Histo", metric, |_| true)),
        Table::num(average(rows, "Sampl", metric, |_| true)),
    ]
}

/// Fig. 6(a)/(b)/(c): RC accuracy while varying the resource ratio α.
pub fn fig6_accuracy_vs_alpha(dataset: DatasetId, profile: &BenchProfile) -> Table {
    accuracy_vs_alpha(dataset, profile, Metric::Rc, "RC accuracy")
}

/// Fig. 6(d): MAC accuracy while varying α (TPCH in the paper).
pub fn fig6d_mac_vs_alpha(profile: &BenchProfile) -> Table {
    accuracy_vs_alpha(DatasetId::Tpch, profile, Metric::Mac, "MAC accuracy")
}

fn accuracy_vs_alpha(
    dataset: DatasetId,
    profile: &BenchProfile,
    metric: Metric,
    label: &str,
) -> Table {
    let prep = prepare(dataset.generate(profile.scale, profile.seed), profile);
    let mut headers = vec!["alpha"];
    headers.extend(METHOD_HEADERS);
    let mut table = Table::new(
        format!(
            "{}: {label}, varying alpha (|D| = {})",
            dataset.name(),
            prep.size()
        ),
        headers,
    );
    for &spec in &profile.specs {
        let rows = evaluate_at(&prep, spec, &profile.accuracy, true);
        let mut cells = vec![format!("{spec}")];
        cells.extend(method_cells(&rows, metric));
        table.push_row(cells);
    }
    table
}

/// Fig. 6(e)/(f): accuracy while varying |D| (the TPCH scale factor) under a
/// fixed α. `metric` selects RC (6e) or MAC (6f).
pub fn fig6ef_accuracy_vs_scale(profile: &BenchProfile, metric: Metric) -> Table {
    let label = match metric {
        Metric::Mac => "MAC accuracy",
        _ => "RC accuracy",
    };
    let spec = profile.last_spec();
    let mut headers = vec!["scale", "|D|"];
    headers.extend(METHOD_HEADERS);
    let mut table = Table::new(
        format!("TPCH: {label}, varying |D| (spec = {spec})"),
        headers,
    );
    for &scale in &profile.scales {
        let prep = prepare(tpch_lite(scale, profile.seed), profile);
        let rows = evaluate_at(&prep, spec, &profile.accuracy, true);
        let mut cells = vec![scale.to_string(), prep.size().to_string()];
        cells.extend(method_cells(&rows, metric));
        table.push_row(cells);
    }
    table
}

/// Fig. 6(g): RC accuracy while varying the number of selection predicates
/// (#-sel), on TFACC in the paper.
pub fn fig6g_accuracy_vs_sel(profile: &BenchProfile) -> Table {
    accuracy_vs_knob(profile, Knob::Sel)
}

/// Fig. 6(h): RC accuracy while varying the number of Cartesian products
/// (#-prod).
pub fn fig6h_accuracy_vs_prod(profile: &BenchProfile) -> Table {
    accuracy_vs_knob(profile, Knob::Prod)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Knob {
    Sel,
    Prod,
}

fn accuracy_vs_knob(profile: &BenchProfile, knob: Knob) -> Table {
    // larger workload so that every knob value is populated
    let mut wide = profile.clone();
    wide.queries = (profile.queries * 3).max(12);
    let prep = prepare(tfacc_lite(profile.scale, profile.seed), &wide);
    let spec = profile.last_spec();
    let rows = evaluate_at(&prep, spec, &profile.accuracy, true);

    let (name, values): (&str, Vec<usize>) = match knob {
        Knob::Sel => ("#-sel", vec![3, 4, 5, 6, 7]),
        Knob::Prod => ("#-prod", vec![0, 1, 2, 3, 4]),
    };
    let mut headers = vec![name, "BEAS", "BEAS(eta)", "BlinkDB", "Histo", "Sampl"];
    headers.insert(1, "queries");
    let mut table = Table::new(
        format!("TFACC: RC accuracy, varying {name} (spec = {spec})"),
        headers,
    );
    for v in values {
        let select = |r: &EvalRow| match knob {
            Knob::Sel => r.num_sel == v,
            Knob::Prod => r.num_prod == v,
        };
        let count = rows
            .iter()
            .filter(|r| r.method == "BEAS" && select(r))
            .count();
        table.push_row(vec![
            v.to_string(),
            count.to_string(),
            Table::num(average(&rows, "BEAS", Metric::Rc, select)),
            Table::num(average(&rows, "BEAS", Metric::Eta, select)),
            Table::num(average(&rows, "BlinkDB", Metric::Rc, select)),
            Table::num(average(&rows, "Histo", Metric::Rc, select)),
            Table::num(average(&rows, "Sampl", Metric::Rc, select)),
        ]);
    }
    table
}

/// Fig. 6(i): RC accuracy by query type (SPC / RA / aggregate SPC), on TFACC.
/// Methods that do not support a class are reported as 0, as in the paper.
pub fn fig6i_accuracy_vs_kind(profile: &BenchProfile) -> Table {
    let mut wide = profile.clone();
    wide.queries = (profile.queries * 2).max(10);
    let prep = prepare(tfacc_lite(profile.scale, profile.seed), &wide);
    let spec = profile.last_spec();
    let rows = evaluate_at(&prep, spec, &profile.accuracy, true);

    let mut table = Table::new(
        format!("TFACC: RC accuracy by query type (spec = {spec})"),
        vec!["type", "BEAS", "BEAS(eta)", "BlinkDB", "Histo", "Sampl"],
    );
    for (label, class) in [
        ("SPC", QueryClass::Spc),
        ("RA", QueryClass::Ra),
        ("agg(SPC)", QueryClass::AggSpc),
    ] {
        let select = |r: &EvalRow| r.class == class;
        let zero_if_nan = |v: f64| if v.is_nan() { 0.0 } else { v };
        table.push_row(vec![
            label.to_string(),
            Table::num(average(&rows, "BEAS", Metric::Rc, select)),
            Table::num(average(&rows, "BEAS", Metric::Eta, select)),
            Table::num(zero_if_nan(average(&rows, "BlinkDB", Metric::Rc, select))),
            Table::num(zero_if_nan(average(&rows, "Histo", Metric::Rc, select))),
            Table::num(zero_if_nan(average(&rows, "Sampl", Metric::Rc, select))),
        ]);
    }
    table
}

/// Fig. 6(j): the smallest resource ratio yielding exact answers, varying |D|.
///
/// The paper observes that the majority of the queries answered exactly are
/// *boundedly evaluable*: selective queries whose constants hit the keys of
/// access constraints. This harness therefore measures α_exact over such
/// key-selective lookups (a customer's orders, an order's lineitems and their
/// parts), which is the population Fig. 6(j) is about; the random range-heavy
/// workload of the accuracy figures would instead require scanning whole
/// relations for exactness.
pub fn fig6j_exact_ratio(profile: &BenchProfile) -> Table {
    use beas_core::{BeasQuery, RaQuery};
    use beas_relal::{CompareOp, SpcQueryBuilder};

    let mut table = Table::new(
        "TPCH: alpha_exact for key-selective queries, varying |D|",
        vec!["scale", "|D|", "alpha_exact(SPC)", "alpha_exact(RA)"],
    );
    for &scale in &profile.scales {
        let prep = prepare(tpch_lite(scale, profile.seed), profile);
        let schema = &prep.db().schema;

        // SPC: the orders of one customer, with their totals.
        let spc_query: BeasQuery = {
            let mut b = SpcQueryBuilder::new(schema);
            let c = b.atom("customer", "c").unwrap();
            let o = b.atom("orders", "o").unwrap();
            b.join((o, "o_custkey"), (c, "c_custkey")).unwrap();
            b.filter_const(c, "c_custkey", CompareOp::Eq, 7i64).unwrap();
            b.output(o, "o_totalprice", "total").unwrap();
            b.output(o, "o_year", "year").unwrap();
            b.build().unwrap().into()
        };
        // RA: the same orders minus the small ones (a set difference whose
        // branches are both boundedly evaluable).
        let ra_query: BeasQuery = {
            let branch = |max_total: i64| {
                let mut b = SpcQueryBuilder::new(schema);
                let c = b.atom("customer", "c").unwrap();
                let o = b.atom("orders", "o").unwrap();
                b.join((o, "o_custkey"), (c, "c_custkey")).unwrap();
                b.filter_const(c, "c_custkey", CompareOp::Eq, 7i64).unwrap();
                b.filter_const(o, "o_totalprice", CompareOp::Le, max_total)
                    .unwrap();
                b.output(o, "o_totalprice", "total").unwrap();
                b.output(o, "o_year", "year").unwrap();
                RaQuery::spc(b.build().unwrap())
            };
            BeasQuery::Ra(branch(1_000_000).difference(branch(500)))
        };

        let spc = prep
            .beas
            .exact_ratio(&spc_query)
            .ok()
            .flatten()
            .unwrap_or(f64::NAN);
        let ra = prep
            .beas
            .exact_ratio(&ra_query)
            .ok()
            .flatten()
            .unwrap_or(f64::NAN);
        table.push_row(vec![
            scale.to_string(),
            prep.size().to_string(),
            format!("{spc:.5}"),
            format!("{ra:.5}"),
        ]);
    }
    table
}

/// Fig. 6(k): index sizes relative to |D| for all three datasets.
pub fn fig6k_index_size(profile: &BenchProfile) -> Table {
    let mut table = Table::new(
        "Index size as a multiple of |D|",
        vec![
            "dataset",
            "|D|",
            "constraint_idx",
            "used_templates",
            "total_idx",
        ],
    );
    for dataset in [DatasetId::Airca, DatasetId::Tfacc, DatasetId::Tpch] {
        let prep = prepare(dataset.generate(profile.scale, profile.seed), profile);
        let report = prep.beas.catalog().index_size_report();
        // "used" templates: the families actually referenced by the workload's
        // plans at the largest α of the profile
        let spec = profile.last_spec();
        let mut used = std::collections::BTreeSet::new();
        for gq in &prep.queries {
            if let Ok(plan) = prep.beas.plan(&gq.query, spec) {
                used.extend(plan.used_families());
            }
        }
        let used_size = prep
            .beas
            .catalog()
            .index_size_of(&used.iter().copied().collect::<Vec<_>>());
        let d = prep.size().max(1) as f64;
        table.push_row(vec![
            dataset.name().to_string(),
            prep.size().to_string(),
            Table::num(report.constraint_index_tuples as f64 / d),
            Table::num(used_size as f64 / d),
            Table::num(report.total_tuples() as f64 / d),
        ]);
    }
    table
}

/// Fig. 6(l) + Exp-5: plan generation time, bounded execution time and full
/// exact evaluation time while varying |D|.
pub fn fig6l_efficiency(profile: &BenchProfile) -> Table {
    let spec = profile.last_spec();
    let mut table = Table::new(
        format!("TPCH: efficiency, varying |D| (spec = {spec})"),
        vec![
            "scale",
            "|D|",
            "plan_gen_ms",
            "bounded_exec_ms",
            "full_eval_ms",
            "speedup",
        ],
    );
    for &scale in &profile.scales {
        let prep = prepare(tpch_lite(scale, profile.seed), profile);
        let t = measure_timings(&prep, spec);
        let bounded = t.plan_execution.as_secs_f64() * 1e3;
        let full = t.full_evaluation.as_secs_f64() * 1e3;
        let speedup = if bounded > 0.0 {
            full / bounded
        } else {
            f64::NAN
        };
        table.push_row(vec![
            scale.to_string(),
            prep.size().to_string(),
            format!("{:.3}", t.plan_generation.as_secs_f64() * 1e3),
            format!("{bounded:.3}"),
            format!("{full:.3}"),
            format!("{speedup:.1}x"),
        ]);
    }
    table
}

/// Beyond the paper: the kernel-layer microbenchmark behind the chunked
/// selection path. One row per operator shape, timing the row-at-a-time
/// scalar reference ([`Predicate::selection_scalar`]) against the fused
/// chunked mask kernels ([`Predicate::selection`]) over the same
/// deterministic relation — whose row count is deliberately *not* a multiple
/// of the mask word, so every kernel also exercises its scalar tail, and
/// whose float column contains `NaN`/`±0.0`/`±∞`. The `digest` column is the
/// hash of the selected row indices; the two paths are asserted bit-equal
/// in code before the row is emitted, so a printed digest is by construction
/// the digest of *both* paths (CI diffs these digests across target-cpu
/// builds).
///
/// [`Predicate::selection`]: beas_relal::Predicate::selection
/// [`Predicate::selection_scalar`]: beas_relal::Predicate::selection_scalar
pub fn fig_kernels(profile: &BenchProfile) -> Table {
    use beas_relal::kernel::{LANE_WIDTH, MASK_CHUNK};
    use beas_relal::{CompareOp, DistanceKind, Predicate, PredicateAtom, Relation, Row, Value};
    use std::hash::{Hash, Hasher};
    use std::time::Instant;

    let n = 48 * 1024 * profile.scale.max(1) + 37;
    let cities = [
        "NYC", "LA", "Chicago", "Boston", "Seattle", "Austin", "Denver", "Miami",
    ];
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let x = match i % 101 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                m => (m as f64) - 50.0,
            };
            vec![
                Value::Int((i as i64 * 37) % 1024),
                Value::Double(x),
                Value::Double(((i % 97) as f64 - 48.0) * 0.5),
                Value::from(cities[i % cities.len()]),
            ]
        })
        .collect();
    let rel = Relation::new(vec!["i".into(), "x".into(), "y".into(), "s".into()], rows)
        .expect("kernel bench relation");

    let operators: Vec<(&str, Predicate)> = vec![
        (
            "int < const",
            Predicate::all(vec![PredicateAtom::col_cmp_const(
                "i",
                CompareOp::Lt,
                512i64,
            )]),
        ),
        (
            "float < const",
            Predicate::all(vec![PredicateAtom::col_cmp_const(
                "x",
                CompareOp::Lt,
                Value::Double(0.0),
            )]),
        ),
        (
            "str = const",
            Predicate::all(vec![PredicateAtom::col_eq_const("s", "NYC")]),
        ),
        (
            "float ~ const (tol)",
            Predicate::all(vec![PredicateAtom::col_eq_const("x", Value::Double(10.0))
                .relaxed(DistanceKind::Numeric, 5.0)]),
        ),
        (
            "col ~ col band",
            Predicate::all(vec![
                PredicateAtom::col_eq_col("x", "y").relaxed(DistanceKind::Numeric, 3.0)
            ]),
        ),
        (
            "fused 3-atom AND",
            Predicate::all(vec![
                PredicateAtom::col_cmp_const("i", CompareOp::Lt, 768i64),
                PredicateAtom::col_cmp_const("x", CompareOp::Gt, Value::Double(-20.0)),
                PredicateAtom::col_eq_const("s", "LA"),
            ]),
        ),
    ];

    let mut table = Table::new(
        format!(
            "Kernels: scalar reference vs chunked mask kernels \
             (|rows| = {n}, lane = {LANE_WIDTH}, mask word = {MASK_CHUNK} rows; \
             digest column covers both paths, asserted bit-equal)"
        ),
        vec![
            "operator",
            "selected",
            "scalar_ns/row",
            "kernel_ns/row",
            "speedup",
            "digest",
        ],
    );
    const REPS: usize = 5;
    let best_of = |f: &dyn Fn() -> Vec<usize>| -> (Vec<usize>, f64) {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            out = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (out, best)
    };
    for (name, pred) in &operators {
        let (scalar_idx, scalar_s) =
            best_of(&|| pred.selection_scalar(&rel).expect("scalar selection"));
        let (kernel_idx, kernel_s) = best_of(&|| pred.selection(&rel).expect("kernel selection"));
        assert_eq!(
            scalar_idx, kernel_idx,
            "{name}: chunked kernel selection diverged from the scalar reference"
        );
        let mut hasher = beas_relal::FxHasher::default();
        kernel_idx.hash(&mut hasher);
        let scalar_ns = scalar_s * 1e9 / n as f64;
        let kernel_ns = kernel_s * 1e9 / n as f64;
        table.push_row(vec![
            name.to_string(),
            kernel_idx.len().to_string(),
            format!("{scalar_ns:.2}"),
            format!("{kernel_ns:.2}"),
            format!("{:.2}x", scalar_ns / kernel_ns.max(1e-12)),
            format!("{:016x}", hasher.finish()),
        ]);
    }
    table
}

/// Fig. 6(a)–(l) in paper order, then the kernel table (used by
/// `figures all`).
pub fn all_figures(profile: &BenchProfile) -> Vec<Table> {
    vec![
        fig6_accuracy_vs_alpha(DatasetId::Tpch, profile),
        fig6_accuracy_vs_alpha(DatasetId::Tfacc, profile),
        fig6_accuracy_vs_alpha(DatasetId::Airca, profile),
        fig6d_mac_vs_alpha(profile),
        fig6ef_accuracy_vs_scale(profile, Metric::Rc),
        fig6ef_accuracy_vs_scale(profile, Metric::Mac),
        fig6g_accuracy_vs_sel(profile),
        fig6h_accuracy_vs_prod(profile),
        fig6i_accuracy_vs_kind(profile),
        fig6j_exact_ratio(profile),
        fig6k_index_size(profile),
        fig6l_efficiency(profile),
        fig_kernels(profile),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> BenchProfile {
        BenchProfile {
            scale: 1,
            scales: vec![1, 2],
            queries: 4,
            specs: vec![
                beas_core::ResourceSpec::Ratio(0.02),
                beas_core::ResourceSpec::Ratio(0.1),
            ],
            seed: 7,
            accuracy: beas_core::AccuracyConfig {
                relax_grid: 2,
                fallback_cap: 500.0,
            },
        }
    }

    #[test]
    fn accuracy_vs_alpha_produces_one_row_per_alpha() {
        let t = fig6_accuracy_vs_alpha(DatasetId::Tpch, &tiny_profile());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.headers.len(), 8);
        assert!(t.render().contains("BEAS_SPC"));
    }

    #[test]
    fn exact_ratio_table_has_one_row_per_scale() {
        let t = fig6j_exact_ratio(&tiny_profile());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let spc: f64 = row[2].parse().unwrap();
            assert!(spc.is_nan() || spc > 0.0);
        }
    }

    #[test]
    fn index_size_table_covers_all_datasets() {
        let t = fig6k_index_size(&tiny_profile());
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let total: f64 = row[4].parse().unwrap();
            let constraint: f64 = row[2].parse().unwrap();
            assert!(total >= constraint);
            assert!(total > 0.0);
        }
    }

    #[test]
    fn efficiency_table_reports_positive_times() {
        let t = fig6l_efficiency(&tiny_profile());
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let gen_ms: f64 = row[2].parse().unwrap();
            assert!(gen_ms >= 0.0);
            assert!(gen_ms < 1000.0, "plan generation should be far below 1s");
        }
    }

    #[test]
    fn kernel_table_reports_every_operator_with_a_digest() {
        let t = fig_kernels(&tiny_profile());
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            // non-trivial selections with positive per-row costs
            let selected: usize = row[1].parse().unwrap();
            assert!(selected > 0, "{}: empty selection", row[0]);
            let scalar: f64 = row[2].parse().unwrap();
            let kernel: f64 = row[3].parse().unwrap();
            assert!(scalar > 0.0 && kernel > 0.0);
            // the digest column is a 16-hex-digit index hash (CI greps it)
            assert_eq!(row[5].len(), 16, "{}: bad digest {}", row[0], row[5]);
            assert!(row[5].chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn query_kind_table_lists_three_classes() {
        let t = fig6i_accuracy_vs_kind(&tiny_profile());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][0], "SPC");
        assert_eq!(t.rows[2][0], "agg(SPC)");
    }
}
