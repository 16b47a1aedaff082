//! Shared evaluation machinery for the figure harness: dataset preparation,
//! per-query accuracy evaluation of BEAS and of the baselines, aggregation,
//! and the Exp-5 timings of Fig. 6(l).

use std::time::{Duration, Instant};

use beas_baselines::{stratified::Qcs, Baseline, BlinkSim, Histo, Sampl};
use beas_core::{
    exact_answers, f_measure, mac_accuracy, rc_accuracy, AccuracyConfig, Beas, BeasQuery,
    ResourceSpec,
};
use beas_relal::{eval_query, AggFunc, Relation};
use beas_workloads::{
    querygen::{generate_workload, GeneratedQuery, QueryGenConfig, QueryKind},
    Dataset,
};

/// Classification of queries as reported in the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// SPC queries (no set difference), aggregate or not → the `BEAS_SPC`
    /// series.
    Spc,
    /// RA queries with set difference, aggregate or not → the `BEAS_RA`
    /// series.
    Ra,
    /// Aggregate SPC queries (the only class BlinkDB supports).
    AggSpc,
}

impl QueryClass {
    /// The class of a generated query.
    pub fn of(q: &GeneratedQuery) -> QueryClass {
        match q.kind {
            QueryKind::Spc => QueryClass::Spc,
            QueryKind::Ra => QueryClass::Ra,
            QueryKind::AggregateSpc => QueryClass::AggSpc,
        }
    }

    /// `true` when the query counts towards the `BEAS_SPC` series.
    pub fn is_spc_series(&self) -> bool {
        matches!(self, QueryClass::Spc | QueryClass::AggSpc)
    }
}

/// Accuracy of one method on one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodAccuracy {
    /// RC-measure accuracy.
    pub rc: f64,
    /// MAC accuracy.
    pub mac: f64,
    /// F-measure (F1).
    pub f1: f64,
}

/// One evaluated (query, method) pair.
#[derive(Debug, Clone)]
pub struct EvalRow {
    /// Index of the query in the workload.
    pub query: usize,
    /// Query class.
    pub class: QueryClass,
    /// Number of selection predicates of the query.
    pub num_sel: usize,
    /// Number of Cartesian products of the query.
    pub num_prod: usize,
    /// Method name (`"BEAS"`, `"Sampl"`, `"Histo"`, `"BlinkDB"`).
    pub method: &'static str,
    /// Measured accuracies.
    pub accuracy: MethodAccuracy,
    /// The deterministic bound η (BEAS only).
    pub eta: Option<f64>,
}

/// Workload sizing used by the figure harness.
#[derive(Debug, Clone)]
pub struct BenchProfile {
    /// Dataset scale factor.
    pub scale: usize,
    /// Scale factors swept by the |D| experiments.
    pub scales: Vec<usize>,
    /// Number of queries per dataset.
    pub queries: usize,
    /// Resource specs swept by the budget experiments. The paper sweeps
    /// ratios `1.5×10⁻⁴ … 5.5×10⁻⁴` of 60 GB datasets; on the laptop-scale
    /// synthetic data the same *budgets in tuples* correspond to these larger
    /// ratios.
    pub specs: Vec<ResourceSpec>,
    /// Workload / data generation seed.
    pub seed: u64,
    /// RC-measure configuration.
    pub accuracy: AccuracyConfig,
}

impl BenchProfile {
    /// A profile small enough for CI and the test suite (seconds).
    pub fn quick() -> Self {
        BenchProfile {
            scale: 1,
            scales: vec![1, 2, 3],
            queries: 6,
            specs: vec![
                ResourceSpec::Ratio(0.01),
                ResourceSpec::Ratio(0.03),
                ResourceSpec::Ratio(0.1),
            ],
            seed: 42,
            accuracy: AccuracyConfig {
                relax_grid: 3,
                fallback_cap: 1000.0,
            },
        }
    }

    /// The larger profile of `figures --full` (minutes).
    pub fn full() -> Self {
        BenchProfile {
            scale: 3,
            scales: vec![1, 2, 4, 6, 8],
            queries: 14,
            specs: vec![
                ResourceSpec::Ratio(0.005),
                ResourceSpec::Ratio(0.01),
                ResourceSpec::Ratio(0.02),
                ResourceSpec::Ratio(0.05),
                ResourceSpec::Ratio(0.1),
            ],
            seed: 42,
            accuracy: AccuracyConfig {
                relax_grid: 4,
                fallback_cap: 1000.0,
            },
        }
    }

    /// The last (largest) spec of the sweep, the default for one-point
    /// experiments.
    pub fn last_spec(&self) -> ResourceSpec {
        self.specs
            .last()
            .copied()
            .unwrap_or(ResourceSpec::Ratio(0.1))
    }
}

/// A dataset prepared for evaluation: BEAS built offline, workload generated.
pub struct PreparedDataset {
    /// Dataset metadata (name, constraints, join edges, QCSs). Its `db` has
    /// been moved into the engine — read it through [`PreparedDataset::db`].
    pub dataset: Dataset,
    /// BEAS with its access schema built over (and owning) the dataset's
    /// database.
    pub beas: Beas,
    /// The generated query workload.
    pub queries: Vec<GeneratedQuery>,
}

impl PreparedDataset {
    /// The dataset's database (a snapshot owned by the engine).
    pub fn db(&self) -> std::sync::Arc<beas_relal::Database> {
        self.beas.database()
    }

    /// `|D|` of the prepared dataset.
    pub fn size(&self) -> usize {
        self.db().total_tuples()
    }
}

/// Prepares a dataset: builds the BEAS catalog and generates the workload.
/// The database is moved into the engine (no copy is retained).
pub fn prepare(mut dataset: Dataset, profile: &BenchProfile) -> PreparedDataset {
    let queries = generate_workload(
        &dataset,
        &QueryGenConfig {
            count: profile.queries,
            seed: profile.seed,
            ..QueryGenConfig::default()
        },
    );
    let db = std::mem::take(&mut dataset.db);
    let beas = Beas::builder(db)
        .constraints(dataset.constraints.iter().cloned())
        .build()
        .expect("catalog construction");
    PreparedDataset {
        dataset,
        beas,
        queries,
    }
}

/// Whether a baseline supports a query (the paper evaluates "each method using
/// all queries it supports").
fn supports(method: &str, q: &GeneratedQuery) -> bool {
    match method {
        // uniform sampling answers anything
        "Sampl" => true,
        // histograms support SPC (aggregate or not) but not set difference
        "Histo" => q.query.ra().num_differences() == 0,
        // BlinkDB supports aggregate SPC without min/max
        "BlinkDB" => match &q.query {
            BeasQuery::Aggregate(a) => {
                a.input.num_differences() == 0 && !matches!(a.agg, AggFunc::Min | AggFunc::Max)
            }
            _ => false,
        },
        _ => true,
    }
}

/// Evaluates all methods on the prepared dataset under one resource spec —
/// BEAS and the baselines share the spec, so every method is compared under
/// the same budget vocabulary.
pub fn evaluate_at(
    prep: &PreparedDataset,
    spec: ResourceSpec,
    accuracy: &AccuracyConfig,
    with_baselines: bool,
) -> Vec<EvalRow> {
    let db = prep.db();

    // Baselines get the exact tuple budget the engine's catalog (with its
    // configured budget policy — min tuples, caps) resolves the spec to, so
    // every method really runs under the same bound.
    let baselines: Vec<Box<dyn Baseline>> = if with_baselines {
        let qcss: Vec<Qcs> = prep
            .dataset
            .qcs
            .iter()
            .map(|(rel, cols)| {
                let cols_ref: Vec<&str> = cols.iter().map(|c| c.as_str()).collect();
                Qcs::new(rel, &cols_ref)
            })
            .collect();
        let budget = prep
            .beas
            .catalog()
            .budget(&spec)
            .expect("valid resource spec");
        let budget_spec = ResourceSpec::Tuples(budget);
        let seed = budget as u64 + 17;
        vec![
            Box::new(Sampl::build(&db, &budget_spec, seed).expect("sampl")),
            Box::new(Histo::build(&db, &budget_spec).expect("histo")),
            Box::new(BlinkSim::build(&db, &qcss, &budget_spec, seed).expect("blinksim")),
        ]
    } else {
        Vec::new()
    };

    let mut rows = Vec::new();
    for (qi, gq) in prep.queries.iter().enumerate() {
        let exact = match exact_answers(&gq.query, &db) {
            Ok(e) => e,
            Err(_) => continue,
        };
        let kinds = match gq.query.output_distances(&db.schema) {
            Ok(k) => k,
            Err(_) => continue,
        };
        let class = QueryClass::of(gq);

        // ------------------------------------------------------------- BEAS
        if let Ok(answer) = prep.beas.answer(&gq.query, spec) {
            let acc = score(&answer.answers, &exact, &gq.query, &db, &kinds, accuracy);
            rows.push(EvalRow {
                query: qi,
                class,
                num_sel: gq.num_sel,
                num_prod: gq.num_prod,
                method: "BEAS",
                accuracy: acc,
                eta: Some(answer.eta),
            });
        }

        // -------------------------------------------------------- baselines
        for baseline in &baselines {
            if !supports(baseline.name(), gq) {
                continue;
            }
            let Ok(expr) = gq.query.to_query_expr(&db.schema) else {
                continue;
            };
            let Ok(approx) = baseline.answer(&expr) else {
                continue;
            };
            let acc = score(&approx, &exact, &gq.query, &db, &kinds, accuracy);
            rows.push(EvalRow {
                query: qi,
                class,
                num_sel: gq.num_sel,
                num_prod: gq.num_prod,
                method: match baseline.name() {
                    "Sampl" => "Sampl",
                    "Histo" => "Histo",
                    _ => "BlinkDB",
                },
                accuracy: acc,
                eta: None,
            });
        }
    }
    rows
}

/// Scores one approximate answer set under RC, MAC and F.
fn score(
    approx: &Relation,
    exact: &Relation,
    query: &BeasQuery,
    db: &beas_relal::Database,
    kinds: &[beas_relal::DistanceKind],
    accuracy: &AccuracyConfig,
) -> MethodAccuracy {
    let rc = rc_accuracy(approx, query, db, accuracy)
        .map(|r| r.accuracy)
        .unwrap_or(0.0);
    let mac = mac_accuracy(approx, exact, kinds);
    let f1 = f_measure(approx, exact).f1;
    MethodAccuracy { rc, mac, f1 }
}

/// Metric selector for [`average`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// RC-measure accuracy.
    Rc,
    /// MAC accuracy.
    Mac,
    /// F-measure.
    F1,
    /// The η bound (BEAS only; other methods yield NaN).
    Eta,
}

/// Averages a metric over the rows of one method, optionally restricted by a
/// class predicate. Returns NaN when no row matches.
pub fn average<F: Fn(&EvalRow) -> bool>(
    rows: &[EvalRow],
    method: &str,
    metric: Metric,
    filter: F,
) -> f64 {
    let values: Vec<f64> = rows
        .iter()
        .filter(|r| r.method == method && filter(r))
        .filter_map(|r| match metric {
            Metric::Rc => Some(r.accuracy.rc),
            Metric::Mac => Some(r.accuracy.mac),
            Metric::F1 => Some(r.accuracy.f1),
            Metric::Eta => r.eta,
        })
        .collect();
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Timing measurements for the efficiency experiment (Exp-5 / Fig. 6(l)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Average time to generate an α-bounded plan.
    pub plan_generation: Duration,
    /// Average time to execute the bounded plan.
    pub plan_execution: Duration,
    /// Average time to evaluate the query exactly over the full data.
    pub full_evaluation: Duration,
}

/// Measures plan generation, bounded execution and full evaluation times over
/// a prepared workload.
pub fn measure_timings(prep: &PreparedDataset, spec: ResourceSpec) -> Timings {
    let db = prep.db();
    let mut total = Timings::default();
    let mut counted = 0u32;
    for gq in &prep.queries {
        let start = Instant::now();
        let Ok(plan) = prep.beas.plan(&gq.query, spec) else {
            continue;
        };
        let plan_generation = start.elapsed();

        let start = Instant::now();
        let Ok(_outcome) = prep.beas.execute(&plan) else {
            continue;
        };
        let plan_execution = start.elapsed();

        let start = Instant::now();
        let Ok(expr) = gq.query.to_query_expr(&db.schema) else {
            continue;
        };
        if eval_query(&expr, &*db).is_err() {
            continue;
        }
        let full_evaluation = start.elapsed();

        total.plan_generation += plan_generation;
        total.plan_execution += plan_execution;
        total.full_evaluation += full_evaluation;
        counted += 1;
    }
    if counted > 0 {
        total.plan_generation /= counted;
        total.plan_execution /= counted;
        total.full_evaluation /= counted;
    }
    total
}

/// Average smallest exact resource ratio over the workload, split into the
/// SPC-series and RA-series queries (Exp-3, Fig. 6(j)).
pub fn exact_ratios(prep: &PreparedDataset) -> (f64, f64) {
    let mut spc = Vec::new();
    let mut ra = Vec::new();
    for gq in &prep.queries {
        if let Ok(Some(r)) = prep.beas.exact_ratio(&gq.query) {
            if QueryClass::of(gq).is_spc_series() {
                spc.push(r);
            } else {
                ra.push(r);
            }
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (avg(&spc), avg(&ra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_workloads::tpch::tpch_lite;

    fn tiny_prep() -> PreparedDataset {
        let profile = BenchProfile {
            queries: 4,
            ..BenchProfile::quick()
        };
        prepare(tpch_lite(1, 7), &profile)
    }

    #[test]
    fn prepare_builds_catalog_and_workload() {
        let prep = tiny_prep();
        assert!(!prep.queries.is_empty());
        assert!(prep.beas.catalog().len() > prep.db().schema.relations.len());
    }

    #[test]
    fn evaluate_at_scores_all_methods() {
        let prep = tiny_prep();
        let rows = evaluate_at(
            &prep,
            ResourceSpec::Ratio(0.05),
            &BenchProfile::quick().accuracy,
            true,
        );
        assert!(!rows.is_empty());
        let beas_rows: Vec<_> = rows.iter().filter(|r| r.method == "BEAS").collect();
        assert!(!beas_rows.is_empty());
        for r in &beas_rows {
            assert!(r.eta.is_some());
            let eta = r.eta.unwrap();
            assert!(
                r.accuracy.rc + 1e-9 >= eta,
                "measured RC accuracy {} below η {eta}",
                r.accuracy.rc
            );
        }
        // at least one baseline row must be present
        assert!(rows.iter().any(|r| r.method != "BEAS"));
    }

    #[test]
    fn averages_ignore_other_methods() {
        let prep = tiny_prep();
        let rows = evaluate_at(
            &prep,
            ResourceSpec::Ratio(0.05),
            &BenchProfile::quick().accuracy,
            false,
        );
        let avg = average(&rows, "BEAS", Metric::Rc, |_| true);
        assert!((0.0..=1.0).contains(&avg));
        let none = average(&rows, "Histo", Metric::Rc, |_| true);
        assert!(none.is_nan());
    }

    #[test]
    fn timings_are_measured_for_the_workload() {
        let prep = tiny_prep();
        let t = measure_timings(&prep, ResourceSpec::Ratio(0.05));
        assert!(t.full_evaluation >= Duration::ZERO);
        assert!(t.plan_generation < Duration::from_secs(1));
    }

    #[test]
    fn exact_ratios_are_positive_finite_fractions() {
        let prep = tiny_prep();
        let (spc, ra) = exact_ratios(&prep);
        for v in [spc, ra] {
            if !v.is_nan() {
                // exact plans can re-fetch tuples through several templates,
                // so on tiny synthetic data the ratio may exceed 1; it must
                // still be positive and far from degenerate
                assert!(v > 0.0 && v <= 10.0, "unexpected exact ratio {v}");
            }
        }
    }

    #[test]
    fn query_class_maps_kinds() {
        assert!(QueryClass::Spc.is_spc_series());
        assert!(QueryClass::AggSpc.is_spc_series());
        assert!(!QueryClass::Ra.is_spc_series());
    }
}
