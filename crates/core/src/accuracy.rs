//! Accuracy measures for approximate answers (Sec. 3), plus the competing
//! measures used in the evaluation (MAC and F-measure).
//!
//! The **RC-measure** is the paper's contribution: it combines
//!
//! * a *coverage* ratio `F_cov = 1 / (1 + max_{t ∈ Q(D)} δ_cov(Q, S, t))` —
//!   how well the approximate answers `S` cover every exact answer, and
//! * a *relevance* ratio `F_rel = 1 / (1 + max_{s ∈ S} δ_rel(Q, D, s))` —
//!   how relevant every approximate answer is, allowing query relaxation
//!   `Q_r` so that sensible near-miss answers (the $99 hotel of Example 1)
//!   are not penalised as if they were arbitrary noise,
//!
//! and reports `accuracy = min(F_rel, F_cov)`.
//!
//! The relevance distance `δ_rel(Q, D, s) = min_{r ≥ 0} max(r, d(s, Q_r(D)))`
//! is evaluated through a finite grid of relaxation radii bounded by the
//! distance of `s` to the nearest exact answer (a valid upper bound), which
//! makes the measure computable with a handful of query evaluations per query
//! instead of one per candidate radius; this is an evaluation-side concern
//! only.

use std::collections::HashSet;

use beas_relal::{eval_query, eval_set, Database, DistanceKind, QueryExpr, RaExpr, Relation, Row};

use crate::error::Result;
use crate::query::BeasQuery;

/// Configuration of the RC-measure computation.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyConfig {
    /// Number of relaxation radii probed between 0 and the cap when computing
    /// relevance distances.
    pub relax_grid: usize,
    /// Relaxation cap used when there are no exact answers to bound the
    /// search (`Q(D) = ∅`).
    pub fallback_cap: f64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            relax_grid: 6,
            fallback_cap: 1000.0,
        }
    }
}

/// The RC-measure of a set of approximate answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcReport {
    /// Relevance ratio `F_rel ∈ \[0, 1\]`.
    pub relevance: f64,
    /// Coverage ratio `F_cov ∈ \[0, 1\]`.
    pub coverage: f64,
    /// `min(F_rel, F_cov)`.
    pub accuracy: f64,
    /// The worst relevance distance `max_s δ_rel`.
    pub max_relevance_distance: f64,
    /// The worst coverage distance `max_t δ_cov`.
    pub max_coverage_distance: f64,
}

/// Precision / recall / F1 of approximate answers under exact set membership.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FMeasure {
    /// |S ∩ Q(D)| / |S|.
    pub precision: f64,
    /// |S ∩ Q(D)| / |Q(D)|.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Converts a distance into an accuracy ratio `1 / (1 + d)`.
pub fn ratio_of_distance(d: f64) -> f64 {
    if d.is_infinite() {
        0.0
    } else {
        1.0 / (1.0 + d.max(0.0))
    }
}

/// Distance between two output rows: the worst per-column distance.
pub fn row_distance(kinds: &[DistanceKind], a: &Row, b: &Row) -> f64 {
    beas_relal::tuple_distance(kinds, a, b)
}

/// Relaxes every selection condition of an RA expression by `r`
/// (`σ_{A=c}` → `σ_{|dis(A,c)| ≤ r}`, `σ_{A=B}` → `σ_{|dis(A,B)| ≤ 2r}`,
/// Sec. 3.1). Conditions that already carry a tolerance keep the larger one.
pub fn relax_ra(expr: &RaExpr, r: f64) -> RaExpr {
    use beas_relal::PredicateAtom;
    match expr {
        RaExpr::Scan { .. } => expr.clone(),
        RaExpr::Select { input, predicate } => {
            let mut pred = predicate.clone();
            for atom in &mut pred.atoms {
                match atom {
                    PredicateAtom::ColConst { tol, distance, .. } => {
                        if distance.is_trivial() {
                            // trivial distances cannot be meaningfully relaxed
                            continue;
                        }
                        *tol = tol.max(r);
                    }
                    PredicateAtom::ColCol { tol, distance, .. } => {
                        if distance.is_trivial() {
                            continue;
                        }
                        *tol = tol.max(2.0 * r);
                    }
                }
            }
            RaExpr::Select {
                input: Box::new(relax_ra(input, r)),
                predicate: pred,
            }
        }
        RaExpr::Project { input, columns } => RaExpr::Project {
            input: Box::new(relax_ra(input, r)),
            columns: columns.clone(),
        },
        RaExpr::Product { left, right } => RaExpr::Product {
            left: Box::new(relax_ra(left, r)),
            right: Box::new(relax_ra(right, r)),
        },
        RaExpr::Union { left, right } => RaExpr::Union {
            left: Box::new(relax_ra(left, r)),
            right: Box::new(relax_ra(right, r)),
        },
        RaExpr::Difference { left, right } => RaExpr::Difference {
            // only the positive side is relaxed: relaxing the negated side
            // would remove answers instead of admitting near-misses
            left: Box::new(relax_ra(left, r)),
            right: right.clone(),
        },
        RaExpr::Rename { input, columns } => RaExpr::Rename {
            input: Box::new(relax_ra(input, r)),
            columns: columns.clone(),
        },
    }
}

/// Coverage distance of one exact answer `t` w.r.t. the approximate answers.
pub fn coverage_distance(kinds: &[DistanceKind], approx: &Relation, t: &Row) -> f64 {
    coverage_distance_rows(kinds, &approx.to_rows(), t)
}

/// [`coverage_distance`] over already-materialised answer rows (callers that
/// loop over many `t`s materialise the approximate side once).
fn coverage_distance_rows(kinds: &[DistanceKind], approx: &[Row], t: &Row) -> f64 {
    approx
        .iter()
        .map(|s| row_distance(kinds, s, t))
        .fold(f64::INFINITY, f64::min)
}

/// Computes the RC-measure of `approx` as an answer to `query` on `db`.
pub fn rc_accuracy(
    approx: &Relation,
    query: &BeasQuery,
    db: &Database,
    cfg: &AccuracyConfig,
) -> Result<RcReport> {
    let schema = &db.schema;
    let expr = query.to_query_expr(schema)?;
    let exact = eval_query(&expr, db)?;
    let kinds = query.output_distances(schema)?;

    // `rc_for_rows` applies the Sec. 3.2 aggregate cases; the output kinds
    // already carry each case's unit: a min/max column inherits the
    // aggregated column's distance (case (1)), a sum/count/avg column is
    // numeric (case (2))
    let group_cols = match query {
        BeasQuery::Ra(_) => None,
        BeasQuery::Aggregate(agg) => Some(agg.group_by.len()),
    };
    rc_for_rows(approx, &exact, &kinds, query, db, cfg, group_cols)
}

/// Shared relevance/coverage computation.
///
/// `group_cols`: for aggregate queries, the number of leading group-by
/// columns; relevance of a sum/count/avg answer is judged on these columns
/// only and coverage uses the `d_agg` distance of Sec. 3.2.
#[allow(clippy::too_many_arguments)]
fn rc_for_rows(
    approx: &Relation,
    exact: &Relation,
    kinds: &[DistanceKind],
    query: &BeasQuery,
    db: &Database,
    cfg: &AccuracyConfig,
    group_cols: Option<usize>,
) -> Result<RcReport> {
    // rows are materialised once at this boundary; every pairwise loop below
    // runs over the same two row sets
    let approx_rows = approx.to_rows();
    let exact_rows = exact.to_rows();

    // ------------------------------------------------------------------ coverage
    let max_cov = if exact.is_empty() {
        0.0 // F_cov = 1 when Q(D) = ∅ (paper's special case (1))
    } else if approx.is_empty() {
        f64::INFINITY // F_cov = 0 when S = ∅ but Q(D) ≠ ∅ (special case (2))
    } else {
        let mut worst: f64 = 0.0;
        for t in &exact_rows {
            let d = match (group_cols, query) {
                (Some(g), BeasQuery::Aggregate(agg)) if !agg.agg.is_extremum() => {
                    // d_agg(s, t) = max_{A ∈ X} dis_A(s[A], t[A]) + |t[V] − s[V]|
                    approx_rows
                        .iter()
                        .map(|s| agg_coverage_distance(kinds, g, s, t))
                        .fold(f64::INFINITY, f64::min)
                }
                _ => coverage_distance_rows(kinds, &approx_rows, t),
            };
            worst = worst.max(d);
        }
        worst
    };

    // ----------------------------------------------------------------- relevance
    let max_rel = if approx.is_empty() {
        0.0
    } else {
        let (rel_kinds, rel_cols, duplicate_penalty): (Vec<DistanceKind>, usize, bool) =
            match (group_cols, query) {
                (Some(g), BeasQuery::Aggregate(agg)) if !agg.agg.is_extremum() => {
                    // relevance of s is the relevance of s[X] to π_X(Q')
                    (kinds[..g].to_vec(), g, true)
                }
                (Some(g), BeasQuery::Aggregate(_)) => (kinds.to_vec(), kinds.len().max(g), true),
                _ => (kinds.to_vec(), kinds.len(), false),
            };

        // duplicate group keys violate the group-by semantics → δ_rel = +∞
        let has_duplicate_keys = if duplicate_penalty {
            let g = group_cols.unwrap_or(0);
            let mut seen = HashSet::new();
            approx_rows
                .iter()
                .any(|r| !seen.insert(r[..g.min(r.len())].to_vec()))
        } else {
            false
        };
        if has_duplicate_keys {
            f64::INFINITY
        } else {
            let projected_approx: Vec<Row> = approx_rows
                .iter()
                .map(|r| r[..rel_cols.min(r.len())].to_vec())
                .collect();
            let projected_exact: Vec<Row> = exact_rows
                .iter()
                .map(|r| r[..rel_cols.min(r.len())].to_vec())
                .collect();
            relevance_distances(
                &projected_approx,
                &projected_exact,
                &rel_kinds,
                query,
                rel_cols,
                db,
                cfg,
            )?
            .into_iter()
            .fold(0.0f64, f64::max)
        }
    };

    let relevance = ratio_of_distance(max_rel);
    let coverage = ratio_of_distance(max_cov);
    Ok(RcReport {
        relevance,
        coverage,
        accuracy: relevance.min(coverage),
        max_relevance_distance: max_rel,
        max_coverage_distance: max_cov,
    })
}

/// `d_agg` coverage distance for sum/count/avg aggregates (Sec. 3.2 case 2).
fn agg_coverage_distance(kinds: &[DistanceKind], group_cols: usize, s: &Row, t: &Row) -> f64 {
    if s.len() != t.len() || s.len() < group_cols + 1 {
        return f64::INFINITY;
    }
    let mut key_d: f64 = 0.0;
    for i in 0..group_cols {
        key_d = key_d.max(kinds[i].distance(&s[i], &t[i]));
    }
    let v = s.len() - 1;
    let agg_gap = match (s[v].as_f64(), t[v].as_f64()) {
        (Some(a), Some(b)) => (a - b).abs(),
        _ => {
            if s[v] == t[v] {
                0.0
            } else {
                f64::INFINITY
            }
        }
    };
    key_d + agg_gap
}

/// Computes `δ_rel` for each approximate answer using a grid of relaxation
/// radii: `δ_rel(s) = min_r max(r, d(s, Q_r(D)))`, where the grid is bounded
/// by the distance of the worst answer to the nearest exact answer.
fn relevance_distances(
    approx: &[Row],
    exact: &[Row],
    kinds: &[DistanceKind],
    query: &BeasQuery,
    rel_cols: usize,
    db: &Database,
    cfg: &AccuracyConfig,
) -> Result<Vec<f64>> {
    // Upper bound per answer from the exact (r = 0) answers.
    let mut best: Vec<f64> = approx
        .iter()
        .map(|s| {
            exact
                .iter()
                .map(|t| row_distance(kinds, s, t))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut fell_back = false;
    for b in &mut best {
        if b.is_infinite() {
            *b = cfg.fallback_cap;
            fell_back = true;
        }
    }
    let cap = best.iter().cloned().fold(0.0f64, f64::max);
    if cap == 0.0 {
        return Ok(best); // every answer is already exact
    }

    // The inner RA query (aggregates judge relevance against Q', projected).
    let inner = query.ra().to_ra(&db.schema)?;
    let mut grid = relaxation_grid(cap, cfg.relax_grid);
    if fell_back {
        // with no exact neighbour the cap says nothing about the answer, so
        // the linear grid alone starts far too coarse (cap / points); the
        // halvings cap·2⁻¹ … cap·2⁻²⁰ find a radius within 2× of any
        // relaxation distance in that range
        grid.extend((1..=20).map(|k| cap / f64::from(1u32 << k)));
    }
    for r in grid {
        let relaxed = relax_ra(&inner, r);
        let answers = eval_set(&relaxed, db)?;
        if answers.is_empty() {
            continue;
        }
        let projected: Vec<Row> = answers
            .rows()
            .map(|row| row[..rel_cols.min(row.len())].to_vec())
            .collect();
        for (s, b) in approx.iter().zip(best.iter_mut()) {
            let d = projected
                .iter()
                .map(|u| row_distance(kinds, s, u))
                .fold(f64::INFINITY, f64::min);
            let candidate = r.max(d);
            if candidate < *b {
                *b = candidate;
            }
        }
    }
    Ok(best)
}

/// A small increasing grid of candidate relaxation radii in `(0, cap]`.
fn relaxation_grid(cap: f64, points: usize) -> Vec<f64> {
    let points = points.max(1);
    (1..=points)
        .map(|i| cap * i as f64 / points as f64)
        .collect()
}

/// A MAC-style accuracy in `\[0, 1\]` (adapted from the match-and-compare
/// measure of Ioannidis & Poosala used by the `Histo` baseline): the symmetric
/// average normalized distance between the two answer sets, turned into an
/// accuracy by `1 − distance`.
pub fn mac_accuracy(approx: &Relation, exact: &Relation, kinds: &[DistanceKind]) -> f64 {
    if exact.is_empty() && approx.is_empty() {
        return 1.0;
    }
    if exact.is_empty() || approx.is_empty() {
        return 0.0;
    }
    let arity = kinds.len();
    let exact_rows = exact.to_rows();
    let approx_rows = approx.to_rows();
    // per-attribute normalisation ranges over both sets
    let mut ranges = vec![0.0f64; arity];
    for (j, range) in ranges.iter_mut().enumerate() {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in exact_rows.iter().chain(approx_rows.iter()) {
            if let Some(v) = row.get(j).and_then(|v| v.as_f64()) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        *range = if hi > lo { hi - lo } else { 0.0 };
    }
    let norm_dist = |a: &Row, b: &Row| -> f64 {
        let mut total = 0.0;
        for j in 0..arity {
            let d = kinds[j].distance(&a[j], &b[j]);
            let nd = if d == 0.0 {
                0.0
            } else if ranges[j] > 0.0 {
                (d / ranges[j]).min(1.0)
            } else {
                1.0
            };
            total += nd;
        }
        total / arity as f64
    };
    let dir = |from: &[Row], to: &[Row]| -> f64 {
        let sum: f64 = from
            .iter()
            .map(|a| {
                to.iter()
                    .map(|b| norm_dist(a, b))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        sum / from.len() as f64
    };
    let d = 0.5 * (dir(&exact_rows, &approx_rows) + dir(&approx_rows, &exact_rows));
    (1.0 - d).clamp(0.0, 1.0)
}

/// The classical F-measure under exact tuple membership.
pub fn f_measure(approx: &Relation, exact: &Relation) -> FMeasure {
    if approx.is_empty() || exact.is_empty() {
        let precision = 0.0;
        let recall = if exact.is_empty() { 1.0 } else { 0.0 };
        return FMeasure {
            precision,
            recall,
            f1: 0.0,
        };
    }
    let exact_set: HashSet<Row> = exact.rows().collect();
    let approx_set: HashSet<Row> = approx.rows().collect();
    let inter = approx_set.iter().filter(|r| exact_set.contains(*r)).count() as f64;
    let precision = inter / approx_set.len() as f64;
    let recall = inter / exact_set.len() as f64;
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    FMeasure {
        precision,
        recall,
        f1,
    }
}

/// Convenience: evaluate the exact answers of a BEAS query.
pub fn exact_answers(query: &BeasQuery, db: &Database) -> Result<Relation> {
    let expr: QueryExpr = query.to_query_expr(&db.schema)?;
    Ok(eval_query(&expr, db)?)
}

/// Convenience: the coverage-only ratio of `approx` against `exact`.
pub fn coverage_ratio(approx: &Relation, exact: &Relation, kinds: &[DistanceKind]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    if approx.is_empty() {
        return 0.0;
    }
    let approx_rows = approx.to_rows();
    let worst = exact
        .rows()
        .map(|t| coverage_distance_rows(kinds, &approx_rows, &t))
        .fold(0.0f64, f64::max);
    ratio_of_distance(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggQuery;
    use beas_relal::{
        AggFunc, Attribute, CompareOp, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    fn poi_db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::text("address"),
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        for (addr, ty, city, price) in [
            ("a1", "hotel", "NYC", 90.0),
            ("a2", "hotel", "NYC", 99.0),
            ("a3", "hotel", "Chicago", 80.0),
            ("a4", "hotel", "Chicago", 140.0),
            ("a5", "museum", "NYC", 20.0),
        ] {
            db.insert_row(
                "poi",
                vec![
                    Value::from(addr),
                    Value::from(ty),
                    Value::from(city),
                    Value::Double(price),
                ],
            )
            .unwrap();
        }
        db
    }

    /// hotels with price ≤ 95, outputting (city, price)
    fn hotels_query(db: &Database) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 95i64).unwrap();
        b.output(h, "city", "city").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        Relation::new(vec!["city".into(), "price".into()], rows).unwrap()
    }

    #[test]
    fn exact_answers_get_perfect_accuracy() {
        let db = poi_db();
        let q = hotels_query(&db);
        let exact = exact_answers(&q, &db).unwrap();
        assert_eq!(exact.len(), 2); // (NYC, 90), (Chicago, 80)
        let report = rc_accuracy(&exact, &q, &db, &AccuracyConfig::default()).unwrap();
        assert_eq!(report.accuracy, 1.0);
        assert_eq!(report.relevance, 1.0);
        assert_eq!(report.coverage, 1.0);
    }

    #[test]
    fn empty_answers_get_zero_accuracy_when_exact_nonempty() {
        let db = poi_db();
        let q = hotels_query(&db);
        let empty = rel(vec![]);
        let report = rc_accuracy(&empty, &q, &db, &AccuracyConfig::default()).unwrap();
        assert_eq!(report.accuracy, 0.0);
        assert_eq!(report.coverage, 0.0);
        assert_eq!(report.relevance, 1.0);
    }

    #[test]
    fn near_miss_answer_is_relevant_not_random() {
        // the $99 hotel of Example 1: excluded by Q but within relaxation 4
        let db = poi_db();
        let q = hotels_query(&db);
        let near = rel(vec![
            vec![Value::from("NYC"), Value::Double(99.0)],
            vec![Value::from("NYC"), Value::Double(90.0)],
            vec![Value::from("Chicago"), Value::Double(80.0)],
        ]);
        let report = rc_accuracy(&near, &q, &db, &AccuracyConfig::default()).unwrap();
        // relevance distance of the $99 answer should be ≤ 9 (distance to the
        // $90 exact answer) and in fact ≤ 4 thanks to relaxation
        assert!(report.max_relevance_distance <= 9.0 + 1e-9);
        assert!(report.coverage == 1.0);
        assert!(report.accuracy > 0.0);

        // a wildly wrong answer has much lower relevance
        let far = rel(vec![vec![Value::from("NYC"), Value::Double(500.0)]]);
        let far_report = rc_accuracy(&far, &q, &db, &AccuracyConfig::default()).unwrap();
        assert!(far_report.relevance < report.relevance);
    }

    #[test]
    fn f_measure_is_zero_for_disjoint_but_close_answers() {
        // the motivating Example 2: F-measure says 0, RC stays positive
        let db = poi_db();
        let q = hotels_query(&db);
        let near = rel(vec![vec![Value::from("NYC"), Value::Double(99.0)]]);
        let exact = exact_answers(&q, &db).unwrap();
        let f = f_measure(&near, &exact);
        assert_eq!(f.f1, 0.0);
        let rc = rc_accuracy(&near, &q, &db, &AccuracyConfig::default()).unwrap();
        assert!(rc.relevance > 0.0);
    }

    #[test]
    fn coverage_detects_missing_exact_answers() {
        let db = poi_db();
        let q = hotels_query(&db);
        // only covers the NYC answer; Chicago (80) is 10 away on price and
        // infinitely away on city (trivial distance)
        let partial = rel(vec![vec![Value::from("NYC"), Value::Double(90.0)]]);
        let report = rc_accuracy(&partial, &q, &db, &AccuracyConfig::default()).unwrap();
        assert_eq!(report.relevance, 1.0);
        assert_eq!(report.coverage, 0.0, "uncovered city has infinite distance");
    }

    #[test]
    fn answers_near_an_empty_exact_answer_are_scored_by_their_distance() {
        // Q(D) = ∅, but the returned row is 0.5 from qualifying: relaxing the
        // price bound by 0.5 admits it, so δ_rel ≤ 2·0.5 on the grid
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![Attribute::categorical("type"), Attribute::double("price")],
        )]);
        let mut db = Database::new(schema);
        db.insert_row("poi", vec![Value::from("hotel"), Value::Double(100.5)])
            .unwrap();
        let mut b = SpcQueryBuilder::new(&db.schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 100i64).unwrap();
        b.output(h, "price", "price").unwrap();
        let q: BeasQuery = b.build().unwrap().into();
        assert!(exact_answers(&q, &db).unwrap().is_empty());
        let approx = Relation::new(vec!["price".into()], vec![vec![Value::Double(100.5)]]).unwrap();
        let report = rc_accuracy(&approx, &q, &db, &AccuracyConfig::default()).unwrap();
        assert!(
            report.accuracy >= 1.0 / (1.0 + 2.0 * 0.5),
            "a row 0.5 from the query scored {}",
            report.accuracy
        );
    }

    #[test]
    fn empty_exact_answers_mean_full_coverage() {
        let db = poi_db();
        // hotels below 10 do not exist
        let mut b = SpcQueryBuilder::new(&db.schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 10i64).unwrap();
        b.output(h, "price", "price").unwrap();
        let q: BeasQuery = b.build().unwrap().into();
        let approx = Relation::new(vec!["price".into()], vec![vec![Value::Double(20.0)]]).unwrap();
        let report = rc_accuracy(&approx, &q, &db, &AccuracyConfig::default()).unwrap();
        assert_eq!(report.coverage, 1.0);
        assert!(report.relevance > 0.0);
    }

    #[test]
    fn aggregate_count_accuracy_uses_dagg() {
        let db = poi_db();
        let q_ra = match hotels_query(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let agg: BeasQuery = AggQuery::new(q_ra, vec!["city".into()], AggFunc::Count, "price", "n")
            .unwrap()
            .into();
        let exact = exact_answers(&agg, &db).unwrap();
        assert_eq!(exact.len(), 2); // NYC: 1, Chicago: 1 hotels ≤ 95

        // approximate counts off by one
        let approx = Relation::new(
            vec!["city".into(), "n".into()],
            vec![
                vec![Value::from("NYC"), Value::Double(2.0)],
                vec![Value::from("Chicago"), Value::Double(1.0)],
            ],
        )
        .unwrap();
        let report = rc_accuracy(&approx, &agg, &db, &AccuracyConfig::default()).unwrap();
        assert!(report.coverage <= 1.0 / (1.0 + 1.0) + 1e-9);
        assert!(report.relevance > 0.9, "group keys are exactly relevant");
        assert!(report.accuracy > 0.0);
    }

    #[test]
    fn aggregate_duplicate_group_keys_kill_relevance() {
        let db = poi_db();
        let q_ra = match hotels_query(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let agg: BeasQuery = AggQuery::new(q_ra, vec!["city".into()], AggFunc::Count, "price", "n")
            .unwrap()
            .into();
        let approx = Relation::new(
            vec!["city".into(), "n".into()],
            vec![
                vec![Value::from("NYC"), Value::Double(1.0)],
                vec![Value::from("NYC"), Value::Double(2.0)],
            ],
        )
        .unwrap();
        let report = rc_accuracy(&approx, &agg, &db, &AccuracyConfig::default()).unwrap();
        assert_eq!(report.relevance, 0.0);
        assert_eq!(report.accuracy, 0.0);
    }

    #[test]
    fn mac_accuracy_rewards_close_sets() {
        let kinds = [DistanceKind::Trivial, DistanceKind::Numeric];
        let exact = rel(vec![
            vec![Value::from("NYC"), Value::Double(90.0)],
            vec![Value::from("Chicago"), Value::Double(80.0)],
        ]);
        let perfect = mac_accuracy(&exact, &exact, &kinds);
        assert!((perfect - 1.0).abs() < 1e-9);
        let close = rel(vec![
            vec![Value::from("NYC"), Value::Double(91.0)],
            vec![Value::from("Chicago"), Value::Double(82.0)],
        ]);
        let far = rel(vec![vec![Value::from("NYC"), Value::Double(500.0)]]);
        let a_close = mac_accuracy(&close, &exact, &kinds);
        let a_far = mac_accuracy(&far, &exact, &kinds);
        assert!(a_close > a_far);
        assert!(a_close > 0.5);
        assert_eq!(mac_accuracy(&rel(vec![]), &exact, &kinds), 0.0);
        assert_eq!(mac_accuracy(&rel(vec![]), &rel(vec![]), &kinds), 1.0);
    }

    #[test]
    fn f_measure_counts_exact_matches() {
        let exact = rel(vec![
            vec![Value::from("NYC"), Value::Double(90.0)],
            vec![Value::from("Chicago"), Value::Double(80.0)],
        ]);
        let approx = rel(vec![
            vec![Value::from("NYC"), Value::Double(90.0)],
            vec![Value::from("LA"), Value::Double(10.0)],
        ]);
        let f = f_measure(&approx, &exact);
        assert!((f.precision - 0.5).abs() < 1e-9);
        assert!((f.recall - 0.5).abs() < 1e-9);
        assert!((f.f1 - 0.5).abs() < 1e-9);
        let empty = f_measure(&rel(vec![]), &exact);
        assert_eq!(empty.f1, 0.0);
    }

    #[test]
    fn relax_ra_widens_constants_not_trivial_columns() {
        let db = poi_db();
        let q = hotels_query(&db);
        let expr = q.ra().to_ra(&db.schema).unwrap();
        let relaxed = relax_ra(&expr, 5.0);
        let strict = eval_set(&expr, &db).unwrap();
        let wide = eval_set(&relaxed, &db).unwrap();
        assert!(wide.len() >= strict.len());
        // relaxation by 5 admits the $99 hotel and (because the categorical
        // `type` distance is 1 ≤ 5) the cheap museum, but not the $140 hotel
        assert_eq!(wide.len(), 4);
    }

    #[test]
    fn ratio_of_distance_handles_infinity() {
        assert_eq!(ratio_of_distance(0.0), 1.0);
        assert_eq!(ratio_of_distance(1.0), 0.5);
        assert_eq!(ratio_of_distance(f64::INFINITY), 0.0);
    }

    #[test]
    fn coverage_ratio_matches_manual_computation() {
        let kinds = [DistanceKind::Trivial, DistanceKind::Numeric];
        let exact = rel(vec![vec![Value::from("NYC"), Value::Double(90.0)]]);
        let approx = rel(vec![vec![Value::from("NYC"), Value::Double(95.0)]]);
        let c = coverage_ratio(&approx, &exact, &kinds);
        assert!((c - 1.0 / 6.0).abs() < 1e-9);
    }
}
