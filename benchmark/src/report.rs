//! What a run reports: operation counts, correctness failures, metrics —
//! and the `BENCHMARK.json` manifest the metric names are checked against.

use std::collections::BTreeMap;

use beas_core::accuracy::row_distance;
use beas_core::{rc_accuracy, relax_ra, AccuracyConfig, BeasAnswer, BeasQuery};
use beas_relal::{eval_set, Database, Row};
use beas_serve::{parse_json, Json};

/// The benchmark manifest, compiled in so the binary and the file the
/// driver reads cannot drift apart.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Pinned input digests per workload and seed.
const PINS: &str = include_str!("../pins.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the baseline median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDecl>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

impl Manifest {
    /// Parses the compiled-in manifest.
    pub fn load() -> Manifest {
        let doc = parse_json(MANIFEST).expect("BENCHMARK.json is valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        let metrics = |key: &str| -> Vec<MetricDecl> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricDecl {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Manifest {
            workloads: names("workloads"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(10.0),
        }
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The pinned `input_digest` of `(workload, seed)`, if that seed is pinned.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = parse_json(PINS).expect("pins.json is valid JSON");
    let hex = doc.get(workload)?.get(&seed.to_string())?.as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// How many failure messages a report keeps verbatim.
const KEPT_FAILURES: usize = 8;

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (answers, updates, reopens, requests, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or were incorrect.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Free-form context printed beside the metrics (sample counts, the
    /// percentile behind the tail, sizes).
    pub notes: Vec<(String, String)>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one attempted operation; `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// `accessed ≤ budget` — or the plan's own tariff when the budget is
    /// below one tuple per relation atom (documented in `execute_plan`).
    pub fn check_budget(&mut self, answer: &BeasAnswer) -> bool {
        let cap = answer.budget.max(answer.planned_tariff);
        if answer.accessed > cap {
            self.fail(format!(
                "accessed {} tuples over a budget of {cap}",
                answer.accessed
            ));
            return false;
        }
        true
    }

    /// RC accuracy ≥ η against the exact answers over `db`, for a
    /// non-aggregate query that promised a bound; one attempted operation.
    ///
    /// With `d = 1/η − 1`, the bound holds when every exact answer is within
    /// `d` of some returned answer (coverage) and every returned answer is
    /// within `d` of some answer of the query relaxed by `d` (relevance).
    /// That is checked directly, at the radius the bound names. The
    /// library's `rc_accuracy` instead searches a grid of radii below the
    /// distance of the worst answer, which is 1000 when the exact answer set
    /// is empty — a grid step of hundreds that reports accuracies near 0 for
    /// answers that hold their bound; it is consulted only when the direct
    /// check fails (relaxation is not monotone under set difference, so a
    /// smaller radius may succeed where `d` does not).
    pub fn check_eta(&mut self, db: &Database, query: &BeasQuery, answer: &BeasAnswer) {
        self.attempted += 1;
        let d = 1.0 / answer.eta - 1.0;
        let within = d * (1.0 + 1e-9) + 1e-9;
        let direct = || -> beas_core::Result<bool> {
            let kinds = query.output_distances(&db.schema)?;
            let inner = query.ra().to_ra(&db.schema)?;
            let exact = eval_set(&inner, db)?.to_rows();
            let relaxed = eval_set(&relax_ra(&inner, d), db)?.to_rows();
            let returned = answer.answers.to_rows();
            let near = |row: &Row, set: &[Row]| {
                set.iter()
                    .any(|other| row_distance(&kinds, row, other) <= within)
            };
            Ok(returned.iter().all(|s| near(s, &relaxed))
                && exact.iter().all(|t| near(t, &returned)))
        };
        match direct() {
            Ok(true) => {}
            Ok(false) => {
                let config = AccuracyConfig::default();
                match rc_accuracy(&answer.answers, query, db, &config) {
                    Ok(r) if r.accuracy + 1e-9 >= answer.eta => {}
                    Ok(r) => self.fail(format!(
                        "eta {} does not hold at its own radius; measured RC accuracy {}",
                        answer.eta, r.accuracy
                    )),
                    Err(e) => self.fail(format!("accuracy check could not run: {e}")),
                }
            }
            Err(e) => self.fail(format!("accuracy check could not run: {e}")),
        }
    }

    /// The run's result object: `correct`, `attempted`, `failed` and the
    /// metrics `declared` names, each with its unit. Undeclared metrics are
    /// a bug in the benchmark and make the run incorrect; so does a declared
    /// metric that was never set or is not finite.
    pub fn to_json(&mut self, declared: &[MetricDecl]) -> Json {
        let mut metrics = Vec::new();
        for decl in declared {
            match self.metrics.get(&decl.name) {
                Some(v) if v.is_finite() => metrics.push((
                    decl.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(decl.unit.clone())),
                    ]),
                )),
                Some(v) => self.fail(format!("metric {} is {v}", decl.name)),
                None => self.fail(format!("metric {} was not measured", decl.name)),
            }
        }
        let undeclared: Vec<String> = self
            .metrics
            .keys()
            .filter(|name| !declared.iter().any(|d| d.name == **name))
            .cloned()
            .collect();
        for name in undeclared {
            self.fail(format!("metric {name} is not declared in BENCHMARK.json"));
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
