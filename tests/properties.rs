//! Property-based tests of the core invariants, across crates:
//!
//! * index conformance (`D |= ψ`): every tuple is within the level resolution
//!   of some representative, at every level;
//! * the resource bound: executed plans never access more than the budget the
//!   spec resolves to;
//! * the accuracy guarantee: the measured RC accuracy is never below the
//!   reported η;
//! * monotonicity of η in α;
//! * component C2: engines maintained incrementally under random insert
//!   batches agree with freshly rebuilt engines and keep every bound;
//! * total order / hashing consistency of values.
//!
//! The cases are driven by a seeded in-workspace PRNG (the environment has no
//! registry access for `proptest`); every failure message carries the seed, so
//! a failing case replays deterministically.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use beas::access::{
    build_extended, build_extended_threaded, multilevel_partition, multilevel_partition_threaded,
};
use beas::prelude::*;
use rand::prelude::*;

/// Runs `case` for `cases` different seeds (the workspace's stand-in for a
/// proptest runner).
fn forall_seeds(cases: u64, mut case: impl FnMut(u64, &mut StdRng)) {
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(0xBEA5_0000 + seed);
        case(seed, &mut rng);
    }
}

/// Generates random `(type, city, price)` triples.
fn random_rows(rng: &mut StdRng, min: usize, max: usize) -> Vec<(u8, u8, i32)> {
    let n = rng.gen_range(min..=max);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u8..3),
                rng.gen_range(0u8..4),
                rng.gen_range(0i32..500),
            )
        })
        .collect()
}

/// Builds a small POI-style database from generated rows.
fn poi_db(rows: &[(u8, u8, i32)]) -> Database {
    let schema = DatabaseSchema::new(vec![RelationSchema::new(
        "poi",
        vec![
            Attribute::categorical("type"),
            Attribute::text("city"),
            Attribute::double("price"),
        ],
    )]);
    let mut db = Database::new(schema);
    for &(t, c, p) in rows {
        db.insert_row("poi", poi_row(t, c, p)).unwrap();
    }
    db
}

/// One POI row from the generated triple.
fn poi_row(t: u8, c: u8, p: i32) -> Vec<Value> {
    let types = ["hotel", "museum", "cafe"];
    let cities = ["NYC", "LA", "Chicago", "Boston"];
    vec![
        Value::from(types[(t as usize) % types.len()]),
        Value::from(cities[(c as usize) % cities.len()]),
        Value::Double(p as f64),
    ]
}

/// Asserts the η guarantee against a *measured* RC accuracy.
///
/// `rc_accuracy` probes relaxation radii on a finite grid, so the measured
/// accuracy is a pessimistic approximation of the true one: it can fall short
/// of η by up to a couple of grid steps even when the guarantee holds. The
/// comparison therefore happens in distance space (`d = 1/acc − 1`) with a
/// slack of two grid steps; genuine violations (wrong bounds, lost tuples)
/// overshoot this by orders of magnitude.
fn assert_eta_holds(seed: u64, measured_accuracy: f64, eta: f64, relax_grid: usize) {
    if eta <= 0.0 {
        return; // no bound promised
    }
    let d_eta = 1.0 / eta - 1.0;
    let d_measured = if measured_accuracy > 0.0 {
        1.0 / measured_accuracy - 1.0
    } else {
        f64::INFINITY
    };
    let slack = 1.0 + 2.0 / relax_grid as f64;
    assert!(
        d_measured <= d_eta * slack + 1e-6,
        "seed {seed}: measured accuracy {measured_accuracy} (distance {d_measured}) \
         violates eta {eta} (distance {d_eta}) beyond the measurement slack"
    );
}

/// Conformance of the multi-resolution partitioning (Sec. 2.1): at every
/// level, every input tuple is within the level's resolution of some
/// representative, and representative counts add up to the input size.
#[test]
fn partition_levels_conform() {
    forall_seeds(24, |seed, rng| {
        let n = rng.gen_range(1usize..60);
        let tuples: Vec<Vec<Value>> = (0..n)
            .map(|_| vec![Value::Double(rng.gen_range(-1000i32..1000) as f64)])
            .collect();
        let levels = multilevel_partition(&tuples, &[DistanceKind::Numeric]);
        assert!(!levels.is_empty(), "seed {seed}");
        assert!(levels.last().unwrap().is_exact(), "seed {seed}");
        for level in &levels {
            let total: u64 = level.reps.iter().map(|r| r.count).sum();
            assert_eq!(total as usize, tuples.len(), "seed {seed}");
            for t in &tuples {
                let covered = level.reps.iter().any(|r| {
                    DistanceKind::Numeric.distance(&r.values[0], &t[0])
                        <= level.resolution[0] + 1e-9
                });
                assert!(
                    covered,
                    "seed {seed}: uncovered tuple at resolution {:?}",
                    level.resolution
                );
            }
        }
    });
}

/// Executed plans respect the access budget and the reported η for a simple
/// selective query over random data.
#[test]
fn budget_and_eta_hold_on_random_data() {
    forall_seeds(24, |seed, rng| {
        let rows = random_rows(rng, 20, 120);
        let alpha = rng.gen_range(20u32..500) as f64 / 1000.0;
        let engine = Beas::builder(poi_db(&rows))
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap();

        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 250i64).unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();

        let spec = ResourceSpec::ratio(alpha).unwrap();
        let answer = engine.answer(&query, spec).unwrap();
        assert!(
            answer.accessed <= engine.catalog().budget(&spec).unwrap(),
            "seed {seed}"
        );

        let cfg = AccuracyConfig {
            relax_grid: 6,
            fallback_cap: 1000.0,
        };
        let measured = engine.accuracy(&answer.answers, &query, &cfg).unwrap();
        assert_eta_holds(seed, measured.accuracy, answer.eta, cfg.relax_grid);
    });
}

/// η never decreases when the ratio grows (Theorem 5(3) / Theorem 1).
#[test]
fn eta_monotone_in_alpha() {
    forall_seeds(24, |seed, rng| {
        let rows = random_rows(rng, 30, 100);
        let engine = Beas::builder(poi_db(&rows))
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap();
        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "museum").unwrap();
        b.bind_const(h, "city", "LA").unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();

        let mut last = -1.0f64;
        for alpha in [0.02, 0.1, 0.4, 1.0] {
            let plan = engine.plan(&query, ResourceSpec::Ratio(alpha)).unwrap();
            assert!(plan.eta + 1e-12 >= last, "seed {seed}");
            last = plan.eta;
        }
    });
}

/// Component C2: after a random batch of inserts through the incremental
/// maintenance path, (1) full-spec answers agree with a freshly rebuilt
/// engine over the same data, (2) bounded answers keep respecting the budget
/// the spec resolves to, and (3) the measured accuracy still dominates η.
#[test]
fn incremental_inserts_agree_with_rebuild_and_keep_bounds() {
    forall_seeds(16, |seed, rng| {
        let base = random_rows(rng, 15, 60);
        let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
        let engine = Beas::builder(poi_db(&base))
            .constraint(constraint())
            .build()
            .unwrap();

        // a random insert batch through the C2 path
        let inserts = random_rows(rng, 1, 30);
        let batch = inserts.iter().fold(UpdateBatch::new(), |b, &(t, c, p)| {
            b.insert("poi", poi_row(t, c, p))
        });
        assert_eq!(engine.apply_update(&batch).unwrap(), inserts.len());
        assert_eq!(
            engine.database().total_tuples(),
            base.len() + inserts.len(),
            "seed {seed}"
        );
        assert_eq!(engine.catalog().db_size, base.len() + inserts.len());

        // a fresh engine rebuilt over the same (updated) database
        let rebuilt = Beas::builder(engine.database())
            .constraint(constraint())
            .build()
            .unwrap();

        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 400i64).unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();

        // (1) exact answers: incremental == rebuilt == ground truth
        let incremental = engine.answer(&query, ResourceSpec::FULL).unwrap();
        let fresh = rebuilt.answer(&query, ResourceSpec::FULL).unwrap();
        let truth = engine.exact_answers(&query).unwrap();
        assert_eq!(
            incremental.answers.clone().sorted(),
            fresh.answers.clone().sorted(),
            "seed {seed}: incremental and rebuilt engines disagree"
        );
        assert_eq!(
            incremental.answers.clone().sorted(),
            truth.sorted(),
            "seed {seed}: inserted tuples lost"
        );

        // (2) + (3) bounded answering under a random spec
        let spec = ResourceSpec::ratio(rng.gen_range(20u32..800) as f64 / 1000.0).unwrap();
        let answer = engine.answer(&query, spec).unwrap();
        assert!(
            answer.accessed <= engine.catalog().budget(&spec).unwrap(),
            "seed {seed}: budget violated after inserts"
        );
        let cfg = AccuracyConfig {
            relax_grid: 6,
            fallback_cap: 1000.0,
        };
        let measured = engine.accuracy(&answer.answers, &query, &cfg).unwrap();
        assert_eta_holds(seed, measured.accuracy, answer.eta, cfg.relax_grid);
    });
}

/// Extended template families built from data always conform: every base
/// tuple's Y-projection is within the level resolution of a representative
/// returned for its X-value — and stay conforming after absorbing inserts.
#[test]
fn extended_families_conform_before_and_after_absorb() {
    forall_seeds(24, |seed, rng| {
        let rows = random_rows(rng, 5, 80);
        let db = poi_db(&rows);
        let mut family = build_extended(&db, "poi", &["city"], &["price"]).unwrap();

        // absorb a few extra tuples through the C2 hook
        let extra = random_rows(rng, 1, 10);
        let mut all_rows: Vec<Vec<Value>> = db.relation("poi").unwrap().to_rows();
        for &(t, c, p) in &extra {
            let row = poi_row(t, c, p);
            family.absorb(
                std::slice::from_ref(&row[1]),
                std::slice::from_ref(&row[2]),
                &[DistanceKind::Numeric],
            );
            all_rows.push(row);
        }

        for level in 0..family.num_levels() {
            let res = family.levels[level].resolution[0];
            for row in &all_rows {
                let key = vec![row[1].clone()];
                let reps = family.lookup(level, &key).unwrap();
                let covered = reps
                    .iter()
                    .any(|r| DistanceKind::Numeric.distance(&r.values[0], &row[2]) <= res + 1e-9);
                assert!(covered, "seed {seed}: level {level} lost conformance");
            }
        }
    });
}

/// Parallel index builds are byte-identical to sequential ones: the K-D tree
/// partitioning and the extended-family construction return the same levels,
/// resolutions and representatives for every thread count — so η bounds never
/// depend on the machine's core count.
#[test]
fn parallel_index_build_is_byte_identical_to_sequential() {
    forall_seeds(12, |seed, rng| {
        let rows = random_rows(rng, 10, 150);
        let db = poi_db(&rows);
        let threads = *[2usize, 3, 5, 8].choose(rng).unwrap();

        // raw K-D tree partitioning of one random numeric group
        let tuples: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(_, _, p)| vec![Value::Double(p as f64)])
            .collect();
        let seq_levels = multilevel_partition(&tuples, &[DistanceKind::Numeric]);
        let par_levels = multilevel_partition_threaded(&tuples, &[DistanceKind::Numeric], threads);
        assert_eq!(par_levels, seq_levels, "seed {seed}: partition differs");

        // extended family build over grouped data
        let seq_family = build_extended(&db, "poi", &["type", "city"], &["price"]).unwrap();
        let par_family =
            build_extended_threaded(&db, "poi", &["type", "city"], &["price"], threads).unwrap();
        assert_eq!(par_family, seq_family, "seed {seed}: family differs");

        // whole engines built at different thread counts answer identically
        let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
        let seq_engine = Beas::builder(db.clone())
            .constraint(constraint())
            .num_threads(1)
            .build()
            .unwrap();
        let par_engine = Beas::builder(db)
            .constraint(constraint())
            .num_threads(threads)
            .build()
            .unwrap();
        let mut b = SpcQueryBuilder::new(seq_engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();
        let alpha = rng.gen_range(10u32..1000) as f64 / 1000.0;
        let spec = ResourceSpec::ratio(alpha).unwrap();
        let seq_answer = seq_engine.answer(&query, spec).unwrap();
        let par_answer = par_engine.answer(&query, spec).unwrap();
        assert_eq!(
            seq_answer.answers, par_answer.answers,
            "seed {seed}: answers differ at {threads} threads (α = {alpha})"
        );
        assert_eq!(seq_answer.eta, par_answer.eta, "seed {seed}");
        assert_eq!(seq_answer.accessed, par_answer.accessed, "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// columnar / row equivalence
// ---------------------------------------------------------------------------

/// A random [`Value`] covering every variant, including floats with special
/// bit patterns (NaN, ±0.0, ±∞) that distinguish bit-level from approximate
/// equality.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u8..10) {
        0..=2 => Value::Int(rng.gen_range(-40i64..40)),
        3 | 4 => Value::Double(rng.gen_range(-200i32..200) as f64 / 4.0),
        5 => [
            Value::Double(f64::NAN),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
        ]
        .choose(rng)
        .unwrap()
        .clone(),
        6 | 7 => Value::from(*["NYC", "LA", "Chicago", "Boston", ""].choose(rng).unwrap()),
        8 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

/// A random relation whose columns are either homogeneously typed (hitting
/// the typed kernels) or heterogeneous (hitting the `Mixed` fallback).
fn random_relation(rng: &mut StdRng, names: &[&str]) -> Relation {
    let n = rng.gen_range(0usize..60);
    let col_kind: Vec<u8> = names.iter().map(|_| rng.gen_range(0u8..5)).collect();
    let mut rel = Relation::empty(names.iter().map(|s| s.to_string()).collect());
    for _ in 0..n {
        let row: Vec<Value> = col_kind
            .iter()
            .map(|&k| match k {
                0 => Value::Int(rng.gen_range(-40i64..40)),
                1 => {
                    if rng.gen_bool(0.05) {
                        Value::Double(f64::NAN)
                    } else {
                        Value::Double(rng.gen_range(-200i32..200) as f64 / 4.0)
                    }
                }
                2 => Value::from(*["NYC", "LA", "Chicago", "Boston"].choose(rng).unwrap()),
                3 => Value::Bool(rng.gen_bool(0.5)),
                _ => random_value(rng),
            })
            .collect();
        rel.push_row(row).unwrap();
    }
    rel
}

fn random_op(rng: &mut StdRng) -> CompareOp {
    *[
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ]
    .choose(rng)
    .unwrap()
}

fn random_distance(rng: &mut StdRng) -> DistanceKind {
    *[
        DistanceKind::Numeric,
        DistanceKind::Scaled(10),
        DistanceKind::Trivial,
        DistanceKind::Categorical,
    ]
    .choose(rng)
    .unwrap()
}

/// A random predicate atom over the given column names (constant or
/// column-column, any operator, exact or relaxed under any distance kind).
fn random_atom(rng: &mut StdRng, names: &[&str]) -> PredicateAtom {
    let tol = *[0.0, 0.5, 1.0, 7.5].choose(rng).unwrap();
    let dk = random_distance(rng);
    if rng.gen_bool(0.6) {
        PredicateAtom::ColConst {
            col: names.choose(rng).unwrap().to_string(),
            op: random_op(rng),
            value: random_value(rng),
            distance: dk,
            tol,
        }
    } else {
        PredicateAtom::ColCol {
            left: names.choose(rng).unwrap().to_string(),
            op: random_op(rng),
            right: names.choose(rng).unwrap().to_string(),
            distance: dk,
            tol,
        }
    }
}

/// **Columnar/row equivalence (selection):** the vectorized predicate
/// kernels must keep exactly the rows the row-at-a-time evaluator keeps —
/// bit-for-bit, over every value type, operator, distance kind and
/// relaxation, including NaN/±0.0 floats, nulls and mixed-type columns.
#[test]
fn columnar_selection_matches_row_reference() {
    let names = ["a", "b", "c"];
    forall_seeds(60, |seed, rng| {
        let rel = random_relation(rng, &names);
        let rows = rel.to_rows();
        for _ in 0..6 {
            let atoms = (0..rng.gen_range(1usize..3))
                .map(|_| random_atom(rng, &names))
                .collect::<Vec<_>>();
            let pred = Predicate::all(atoms);
            let fast = pred.filter(&rel).unwrap();
            // the row-oriented reference: evaluate every atom on every
            // materialised row, exactly as the pre-columnar storage did
            let expect: Vec<Vec<Value>> = rows
                .iter()
                .filter(|row| pred.eval(&rel.columns, row).unwrap())
                .cloned()
                .collect();
            assert_eq!(
                fast.to_rows(),
                expect,
                "seed {seed}: kernel disagrees with the row reference for {pred:?}"
            );
        }
    });
}

/// **Columnar/row equivalence (aggregation):** the typed-column aggregation
/// produces bit-identical sums, counts, extrema and row order to the
/// row-at-a-time reference (same accumulation order, same float bits).
#[test]
fn columnar_aggregation_matches_row_reference() {
    let names = ["g", "v", "w"];
    forall_seeds(40, |seed, rng| {
        let rel = random_relation(rng, &names);
        let agg = *[
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]
        .choose(rng)
        .unwrap();
        let mut q = GroupByQuery::new(
            RaExpr::scan("unused", "u"),
            if rng.gen_bool(0.7) {
                vec!["g".to_string()]
            } else {
                vec![]
            },
            agg,
            "v",
            "out",
        );
        if rng.gen_bool(0.5) {
            q.weight_col = Some("w".to_string());
        }
        let fast = aggregate_relation(&rel, &q);

        // the row-oriented reference, replicating the pre-columnar algorithm
        // (same iteration order, so float accumulation is bit-identical)
        let reference = row_reference_aggregate(&rel.to_rows(), &q);
        match (fast, reference) {
            (Ok(f), Ok(r)) => assert_eq!(
                f.to_rows(),
                r,
                "seed {seed}: aggregate {agg} disagrees with the row reference"
            ),
            (Err(_), Err(_)) => {}
            (f, r) => panic!("seed {seed}: divergent outcome fast={f:?} ref={r:?}"),
        }
    });
}

/// The pre-columnar row-at-a-time aggregation, kept verbatim as the
/// reference semantics of [`aggregate_relation`]. Returns the sorted output
/// rows or a type error (sum/avg over non-numeric data).
fn row_reference_aggregate(rows: &[Vec<Value>], q: &GroupByQuery) -> Result<Vec<Vec<Value>>, ()> {
    use std::collections::HashMap;
    // columns are fixed by the callers of this test: g=0, v=1, w=2
    let group_idx: Vec<usize> = q.group_by.iter().map(|_| 0usize).collect();
    let agg_idx = 1usize;
    let weight_idx = q.weight_col.as_ref().map(|_| 2usize);

    #[derive(Default)]
    struct Acc {
        count: f64,
        sum: f64,
        min: Option<Value>,
        max: Option<Value>,
        non_numeric: bool,
    }
    let mut groups: HashMap<Vec<Value>, Acc> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
        let weight = match weight_idx {
            Some(i) => row[i].as_f64().unwrap_or(1.0).max(0.0),
            None => 1.0,
        };
        let v = &row[agg_idx];
        let acc = groups.entry(key).or_default();
        acc.count += weight;
        match v.as_f64() {
            Some(x) => acc.sum += x * weight,
            None => acc.non_numeric = true,
        }
        if acc.min.as_ref().is_none_or(|m| v < m) {
            acc.min = Some(v.clone());
        }
        if acc.max.as_ref().is_none_or(|m| v > m) {
            acc.max = Some(v.clone());
        }
    }
    let mut out: Vec<Vec<Value>> = Vec::new();
    if groups.is_empty() && q.group_by.is_empty() {
        match q.agg {
            AggFunc::Count => out.push(vec![Value::Int(0)]),
            AggFunc::Sum => out.push(vec![Value::Double(0.0)]),
            _ => {}
        }
        return Ok(out);
    }
    for (key, acc) in groups {
        let agg_value = match q.agg {
            AggFunc::Count => Value::Double(acc.count),
            AggFunc::Sum => {
                if acc.non_numeric {
                    return Err(());
                }
                Value::Double(acc.sum)
            }
            AggFunc::Avg => {
                if acc.non_numeric {
                    return Err(());
                }
                if acc.count == 0.0 {
                    Value::Null
                } else {
                    Value::Double(acc.sum / acc.count)
                }
            }
            AggFunc::Min => acc.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => acc.max.clone().unwrap_or(Value::Null),
        };
        let mut row = key;
        row.push(agg_value);
        out.push(row);
    }
    out.sort();
    Ok(out)
}

/// **Columnar/row equivalence (end to end):** a database loaded row by row
/// (`push_row`) and one loaded in bulk (`Relation::new` from rows) are
/// logically identical; engines built over them — at different thread
/// counts — produce byte-identical index structures, answers, float
/// aggregate sums and η, before and after random insert batches.
#[test]
fn columnar_engine_identical_across_build_paths_and_threads() {
    forall_seeds(8, |seed, rng| {
        let rows = random_rows(rng, 20, 80);
        // path 1: row-at-a-time conversion boundary
        let db1 = poi_db(&rows);
        // path 2: bulk conversion boundary
        let schema = db1.schema.clone();
        let mut db2 = Database::new(schema);
        db2.insert_relation(
            "poi",
            Relation::new(
                vec!["type".into(), "city".into(), "price".into()],
                rows.iter().map(|&(t, c, p)| poi_row(t, c, p)).collect(),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            db1.relation("poi").unwrap(),
            db2.relation("poi").unwrap(),
            "seed {seed}: build paths disagree"
        );

        let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
        let threads = *[2usize, 4, 8].choose(rng).unwrap();
        let e1 = Beas::builder(db1)
            .constraint(constraint())
            .num_threads(1)
            .build()
            .unwrap();
        let e2 = Beas::builder(db2)
            .constraint(constraint())
            .num_threads(threads)
            .build()
            .unwrap();
        // identical index structure (levels, resolutions, representatives)
        assert_eq!(
            e1.catalog().families(),
            e2.catalog().families(),
            "seed {seed}: index structure differs"
        );

        let queries = |engine: &Beas| -> Vec<BeasQuery> {
            let mut b = SpcQueryBuilder::new(engine.schema());
            let h = b.atom("poi", "h").unwrap();
            b.bind_const(h, "type", "hotel").unwrap();
            b.filter_const(h, "city", CompareOp::Eq, "NYC").unwrap();
            b.filter_const(h, "price", CompareOp::Le, 400i64).unwrap();
            b.output(h, "city", "city").unwrap();
            b.output(h, "price", "price").unwrap();
            let ra = b.build().unwrap();
            let agg: BeasQuery = AggQuery::new(
                RaQuery::spc(ra.clone()),
                vec!["city".into()],
                AggFunc::Sum,
                "price",
                "total",
            )
            .unwrap()
            .into();
            vec![ra.into(), agg]
        };

        let check = |seed: u64, e1: &Beas, e2: &Beas| {
            for (q1, q2) in queries(e1).iter().zip(queries(e2).iter()) {
                for alpha in [0.05, 0.3, 1.0] {
                    let spec = ResourceSpec::Ratio(alpha);
                    let a1 = e1.answer(q1, spec).unwrap();
                    let a2 = e2.answer(q2, spec).unwrap();
                    // Value equality on Doubles is IEEE-754 total-order
                    // equality, so this compares float sums bit for bit
                    assert_eq!(a1.answers, a2.answers, "seed {seed} α={alpha}");
                    assert!(
                        a1.eta == a2.eta || (a1.eta.is_nan() && a2.eta.is_nan()),
                        "seed {seed} α={alpha}: η {} vs {}",
                        a1.eta,
                        a2.eta
                    );
                    assert_eq!(a1.accessed, a2.accessed, "seed {seed} α={alpha}");
                }
            }
        };
        check(seed, &e1, &e2);

        // random insert batch through C2 on both engines
        let extra = random_rows(rng, 1, 20);
        let batch = extra.iter().fold(UpdateBatch::new(), |b, &(t, c, p)| {
            b.insert("poi", poi_row(t, c, p))
        });
        e1.apply_update(&batch).unwrap();
        e2.apply_update(&batch).unwrap();
        assert_eq!(
            e1.catalog().families(),
            e2.catalog().families(),
            "seed {seed}: index structure differs after inserts"
        );
        check(seed, &e1, &e2);
    });
}

// ---------------------------------------------------------------------------
// progressive refinement sessions
// ---------------------------------------------------------------------------

/// Random `(type, city, price)` rows whose price column includes non-finite
/// floats (NaN, ±∞) — the refinement guarantees must hold bit-for-bit even
/// when resolutions and η degrade to their non-finite edge cases.
fn random_float_rows(rng: &mut StdRng, min: usize, max: usize) -> Vec<(u8, u8, f64)> {
    let n = rng.gen_range(min..=max);
    (0..n)
        .map(|_| {
            let price = match rng.gen_range(0u8..20) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-4000i32..4000) as f64 / 8.0,
            };
            (rng.gen_range(0u8..3), rng.gen_range(0u8..4), price)
        })
        .collect()
}

fn poi_db_f64(rows: &[(u8, u8, f64)]) -> Database {
    let schema = DatabaseSchema::new(vec![RelationSchema::new(
        "poi",
        vec![
            Attribute::categorical("type"),
            Attribute::text("city"),
            Attribute::double("price"),
        ],
    )]);
    let mut db = Database::new(schema);
    let types = ["hotel", "museum", "cafe"];
    let cities = ["NYC", "LA", "Chicago", "Boston"];
    for &(t, c, p) in rows {
        db.insert_row(
            "poi",
            vec![
                Value::from(types[(t as usize) % types.len()]),
                Value::from(cities[(c as usize) % cities.len()]),
                Value::Double(p),
            ],
        )
        .unwrap();
    }
    db
}

/// A random SPC or aggregate query over the float db (aggregates exercise
/// the weighted float-sum accumulation the bit-for-bit claim covers).
fn random_session_query(rng: &mut StdRng, engine: &Beas) -> BeasQuery {
    let mut b = SpcQueryBuilder::new(engine.schema());
    let h = b.atom("poi", "h").unwrap();
    b.bind_const(h, "type", *["hotel", "museum"].choose(rng).unwrap())
        .unwrap();
    b.bind_const(h, "city", *["NYC", "LA"].choose(rng).unwrap())
        .unwrap();
    b.output(h, "price", "price").unwrap();
    let spc = b.build().unwrap();
    if rng.gen_bool(0.4) {
        AggQuery::new(RaQuery::spc(spc), vec![], AggFunc::Sum, "price", "total")
            .unwrap()
            .into()
    } else {
        spc.into()
    }
}

/// A random strictly-increasing ratio schedule ending at `final_alpha`.
fn random_schedule(rng: &mut StdRng, final_alpha: f64) -> RefinementSchedule {
    let mut ratios: Vec<f64> = (0..rng.gen_range(1usize..4))
        .map(|_| rng.gen_range(5u32..800) as f64 / 1000.0 * final_alpha)
        .filter(|&a| a > 0.0 && a < final_alpha)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ratios.push(final_alpha);
    RefinementSchedule::ratios(&ratios).unwrap()
}

/// **Session determinism:** the final step of a refinement session is
/// bit-for-bit equal — relation digest, float aggregate sums, η — to a
/// one-shot `PreparedQuery::answer` at the same spec, at thread counts 1 and
/// 4, on random databases including NaN/∞ float columns. This is the
/// anytime-API guarantee: refining is never a different computation, only a
/// cheaper route to the same one.
#[test]
fn refinement_session_final_step_is_bit_for_bit_one_shot() {
    forall_seeds(12, |seed, rng| {
        let rows = random_float_rows(rng, 40, 200);
        let final_alpha = rng.gen_range(300u32..=1000) as f64 / 1000.0;
        let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
        for threads in [1usize, 4] {
            let engine = Beas::builder(poi_db_f64(&rows))
                .constraint(constraint())
                .num_threads(threads)
                .build()
                .unwrap();
            let query = random_session_query(rng, &engine);
            let prepared = engine.prepare(&query).unwrap();
            let one_shot = prepared.answer(ResourceSpec::Ratio(final_alpha)).unwrap();

            let session = prepared.session(random_schedule(rng, final_alpha)).unwrap();
            let steps: Vec<_> = session.map(|s| s.unwrap()).collect();
            let last = steps.last().expect("non-empty schedule");

            // Value equality on Doubles is IEEE-754 total-order equality, so
            // this compares relations (including NaN cells and float sums)
            // bit for bit; the digest doubles as the wire-visible witness
            assert_eq!(
                last.answer.answers, one_shot.answers,
                "seed {seed} threads {threads}: final step diverged from one-shot"
            );
            assert_eq!(
                last.answer.answers.digest(),
                one_shot.answers.digest(),
                "seed {seed} threads {threads}: digest diverged"
            );
            assert_eq!(
                last.answer.eta.to_bits(),
                one_shot.eta.to_bits(),
                "seed {seed} threads {threads}: eta diverged"
            );
            assert_eq!(
                last.answer.accessed, one_shot.accessed,
                "seed {seed} threads {threads}: access accounting diverged"
            );
            assert_eq!(last.answer.exact, one_shot.exact, "seed {seed}");
        }
    });
}

/// **Session monotonicity:** across a refinement session, η never decreases
/// (answers only get more accurate as the budget grows) and the cumulative
/// tuple spend never decreases — on random databases including NaN/∞ float
/// columns, where η may sit at its degenerate 0 for coarse steps.
#[test]
fn refinement_session_eta_and_spend_are_monotone() {
    forall_seeds(16, |seed, rng| {
        let rows = random_float_rows(rng, 30, 160);
        let engine = Beas::builder(poi_db_f64(&rows))
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap();
        let query = random_session_query(rng, &engine);
        let prepared = engine.prepare(&query).unwrap();
        let session = prepared.session(random_schedule(rng, 1.0)).unwrap();
        let mut last_eta = -1.0f64;
        let mut last_spent = 0usize;
        let mut last_budget = 0usize;
        let mut steps = 0usize;
        for step in session {
            let step = step.unwrap();
            assert!(
                step.eta >= last_eta,
                "seed {seed}: eta decreased {last_eta} -> {} at step {}",
                step.eta,
                step.step
            );
            assert!(
                step.budget_spent >= last_spent,
                "seed {seed}: spend decreased {last_spent} -> {} at step {}",
                step.budget_spent,
                step.step
            );
            assert!(
                step.budget > last_budget,
                "seed {seed}: budgets must strictly increase after dedup"
            );
            // every step's own answer honours its budget
            assert!(step.answer.accessed <= step.budget.max(step.answer.planned_tariff));
            last_eta = step.eta;
            last_spent = step.budget_spent;
            last_budget = step.budget;
            steps = step.step;
        }
        assert!(steps >= 1, "seed {seed}: the session must run");
    });
}

/// Value ordering is antisymmetric and consistent with equality/hashing.
#[test]
fn value_order_and_hash_consistent() {
    forall_seeds(200, |seed, rng| {
        let a = rng.gen_range(-1000i64..1000);
        let b = rng.gen_range(-1000i64..1000);
        let (va, vb) = (Value::Int(a), Value::Double(b as f64));
        if va == vb {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            va.hash(&mut ha);
            vb.hash(&mut hb);
            assert_eq!(ha.finish(), hb.finish(), "seed {seed}");
        }
        assert_eq!(va < vb, vb > va.clone(), "seed {seed}");
        assert_eq!(va.cmp(&vb).reverse(), vb.cmp(&va), "seed {seed}");
    });
}

/// Relation dedup is idempotent and never grows the relation.
#[test]
fn dedup_is_idempotent() {
    forall_seeds(50, |seed, rng| {
        let n = rng.gen_range(0usize..100);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| vec![Value::Int(rng.gen_range(0i64..50))])
            .collect();
        let rel = Relation::new(vec!["v".into()], rows).unwrap();
        let once = rel.clone().deduped();
        let twice = once.clone().deduped();
        assert!(once.len() <= rel.len(), "seed {seed}");
        assert_eq!(once.clone().sorted(), twice.sorted(), "seed {seed}");
    });
}

// ---------------------------------------------------------------------------
// kernel equivalence (chunked mask kernels vs the scalar reference)
// ---------------------------------------------------------------------------

/// **Kernel equivalence (random shapes):** the fused chunked/bitmask
/// selection ([`Predicate::selection`]) emits exactly the indices of the
/// row-at-a-time `Box<dyn Fn>` reference ([`Predicate::selection_scalar`])
/// and of the per-row evaluator, over random relations covering every value
/// type — including NaN/±0.0/±∞ floats, nulls, dictionary-coded strings and
/// mixed-type columns — every operator, distance kind and relaxation.
#[test]
fn chunked_selection_matches_scalar_reference() {
    let names = ["a", "b", "c"];
    forall_seeds(80, |seed, rng| {
        let rel = random_relation(rng, &names);
        let rows = rel.to_rows();
        for _ in 0..6 {
            let atoms = (0..rng.gen_range(1usize..4))
                .map(|_| random_atom(rng, &names))
                .collect::<Vec<_>>();
            let pred = Predicate::all(atoms);
            let chunked = pred.selection(&rel).unwrap();
            let scalar = pred.selection_scalar(&rel).unwrap();
            assert_eq!(
                chunked, scalar,
                "seed {seed}: chunked kernels diverge from the scalar reference for {pred:?}"
            );
            let by_row: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, row)| pred.eval(&rel.columns, row).unwrap())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                chunked, by_row,
                "seed {seed}: chunked kernels diverge from the per-row evaluator for {pred:?}"
            );
        }
    });
}

/// **Kernel equivalence (mask tails and degenerate masks):** selection over
/// row counts that straddle the lane and mask-word boundaries
/// (`n mod 8 ∈ {0, 1, 7}`, `n ∈ {63, 64, 65}`), with all-true, all-false
/// and mixed predicates — the remainder-tail paths of every kernel must
/// agree with the scalar reference bit for bit, and the degenerate masks
/// must select everything / nothing exactly.
#[test]
fn chunked_selection_handles_mask_tails_and_degenerate_masks() {
    for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129] {
        let mut rel = Relation::empty(vec!["i".into(), "x".into()]);
        for k in 0..n {
            let x = match k % 5 {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 => f64::INFINITY,
                _ => k as f64 - 3.0,
            };
            rel.push_row(vec![Value::Int(k as i64 % 13), Value::Double(x)])
                .unwrap();
        }
        let all_true = Predicate::all(vec![PredicateAtom::col_cmp_const(
            "i",
            CompareOp::Ge,
            -1i64,
        )]);
        let all_false = Predicate::all(vec![PredicateAtom::col_cmp_const(
            "i",
            CompareOp::Lt,
            -1i64,
        )]);
        let mixed = Predicate::all(vec![
            PredicateAtom::col_cmp_const("i", CompareOp::Lt, 7i64),
            PredicateAtom::col_cmp_const("x", CompareOp::Ge, Value::Double(0.0)),
        ]);
        for pred in [&all_true, &all_false, &mixed] {
            assert_eq!(
                pred.selection(&rel).unwrap(),
                pred.selection_scalar(&rel).unwrap(),
                "n={n}: tail handling diverges for {pred:?}"
            );
        }
        assert_eq!(all_true.selection(&rel).unwrap().len(), n, "n={n}");
        assert!(all_false.selection(&rel).unwrap().is_empty(), "n={n}");
    }
}

/// **Zero-conversion materialize:** at every level of a built family, the
/// columnar [`materialize`] (pure code/slice copies) equals the relation
/// assembled row by row from [`lookup`]'s `Rep`s — the pre-columnar fetch
/// path — including the `__weight` counts column.
///
/// [`materialize`]: beas::access::TemplateFamily::materialize
/// [`lookup`]: beas::access::TemplateFamily::lookup
#[test]
fn materialize_matches_rep_based_reconstruction() {
    forall_seeds(24, |seed, rng| {
        let rows = random_rows(rng, 5, 80);
        let db = poi_db(&rows);
        let family = build_extended(&db, "poi", &["city"], &["price"]).unwrap();
        for k in 0..family.num_levels() {
            let xkeys = family.levels[k].xkeys();
            let fast = family.materialize(k, &xkeys).unwrap();
            let mut reference = Relation::empty(family.output_columns());
            for key in &xkeys {
                for rep in family.lookup(k, key).unwrap() {
                    let mut row = key.clone();
                    row.extend(rep.values.iter().cloned());
                    row.push(Value::Int(rep.count as i64));
                    reference.push_row(row).unwrap();
                }
            }
            assert_eq!(
                fast.to_rows(),
                reference.to_rows(),
                "seed {seed}: level {k} materialize diverges from the Rep path"
            );
        }
    });
}

/// **Kernel equivalence across shard counts:** engines pinned to 1 and 4
/// intra-query threads answer with bit-identical relations and digests —
/// the mask kernels run per shard, so shard boundaries (aligned to the mask
/// word) must never leak into the answers.
#[test]
fn kernel_answers_identical_at_one_and_four_threads() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_CAFE);
    let rows = random_rows(&mut rng, 2500, 3000);
    let db = poi_db(&rows);
    let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
    let one = Beas::builder(db.clone())
        .constraint(constraint())
        .num_threads(1)
        .build()
        .unwrap();
    let four = Beas::builder(db)
        .constraint(constraint())
        .num_threads(4)
        .build()
        .unwrap();

    let mut b = SpcQueryBuilder::new(one.schema());
    let h = b.atom("poi", "h").unwrap();
    b.bind_const(h, "type", "hotel").unwrap();
    b.bind_const(h, "city", "NYC").unwrap();
    b.filter_const(h, "price", CompareOp::Le, 400i64).unwrap();
    b.output(h, "price", "price").unwrap();
    let query: BeasQuery = b.build().unwrap().into();

    for spec in [
        ResourceSpec::Ratio(0.05),
        ResourceSpec::Ratio(0.3),
        ResourceSpec::FULL,
    ] {
        let a1 = one.answer(&query, spec).unwrap();
        let a4 = four.answer(&query, spec).unwrap();
        assert_eq!(
            a1.answers, a4.answers,
            "answers differ between 1 and 4 threads (spec {spec})"
        );
        assert_eq!(
            a1.answers.digest(),
            a4.answers.digest(),
            "digests differ between 1 and 4 threads (spec {spec})"
        );
        assert_eq!(a1.eta, a4.eta, "eta differs (spec {spec})");
    }
}

/// Accuracy targets carry no learned state: the budget is searched from the
/// planner's own η, so the same query and target get bit-identical answers
/// at 1 and 4 threads, on a fresh handle, and on the first and the tenth
/// request — cold spend equals warm spend.
#[test]
fn targeted_answers_identical_across_threads_handles_and_repeats() {
    forall_seeds(6, |seed, rng| {
        let rows = random_rows(rng, 800, 1500);
        let constraint = || ConstraintSpec::new("poi", &["type", "city"], &["price"]);
        let build = |threads: usize| {
            Beas::builder(poi_db(&rows))
                .constraint(constraint())
                .num_threads(threads)
                .build()
                .unwrap()
        };
        let (one, four) = (build(1), build(4));

        let mut b = SpcQueryBuilder::new(one.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();

        let key = |t: &TargetedAnswer| {
            (
                t.answer.answers.digest(),
                t.answer.eta.to_bits(),
                t.answer.budget,
                t.answer.accessed,
                t.predicted_budget,
                t.spent,
                t.feasible,
                t.escalations,
            )
        };
        for eta in [0.3, 0.5, 0.9, 1.0] {
            let target = AccuracyTarget::new(eta).unwrap();
            let first = one.answer_with_target(&query, &target).unwrap();
            let at = format!("seed {seed} eta {eta}");
            assert_eq!(
                one.predict_target_cost(&query, &target).unwrap(),
                first.predicted_budget,
                "{at}: admission charges what serving searches"
            );
            assert!(!first.feasible || first.answer.eta >= eta, "{at}");
            for _ in 0..8 {
                one.answer_with_target(&query, &target).unwrap();
            }
            let tenth = one.answer_with_target(&query, &target).unwrap();
            assert_eq!(key(&tenth), key(&first), "{at}: tenth request differs");
            let threads = four.answer_with_target(&query, &target).unwrap();
            assert_eq!(key(&threads), key(&first), "{at}: 4 threads differ");
            let fresh = one.clone().answer_with_target(&query, &target).unwrap();
            assert_eq!(key(&fresh), key(&first), "{at}: a fresh handle differs");
        }
    });
}

/// C2: `apply_update` bumps the catalog version, and the next targeted
/// answer searches its budget against the new catalog — admission's
/// prediction follows the update, the target is still met, and the answer is
/// the plain answer at the searched budget.
#[test]
fn targeted_answer_replans_after_catalog_version_change() {
    forall_seeds(6, |seed, rng| {
        let rows = random_rows(rng, 800, 1500);
        let engine = Beas::builder(poi_db(&rows))
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap();

        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.output(h, "price", "price").unwrap();
        let query: BeasQuery = b.build().unwrap().into();

        let target = AccuracyTarget::new(0.9).unwrap();
        let before = engine.answer_with_target(&query, &target).unwrap();
        assert!(before.feasible && before.answer.eta >= 0.9, "seed {seed}");

        let version_before = engine.catalog().version;
        let inserts = random_rows(rng, 5, 25);
        let batch = inserts.iter().fold(UpdateBatch::new(), |b, &(t, c, p)| {
            b.insert("poi", poi_row(t, c, p))
        });
        engine.apply_update(&batch).unwrap();
        assert!(
            engine.catalog().version > version_before,
            "seed {seed}: apply_update must bump the catalog version"
        );

        let after = engine.answer_with_target(&query, &target).unwrap();
        assert_eq!(
            engine.predict_target_cost(&query, &target).unwrap(),
            after.predicted_budget,
            "seed {seed}: admission charges what serving searches after the update"
        );
        assert!(after.feasible && after.answer.eta >= 0.9, "seed {seed}");
        let budget = ResourceSpec::Tuples(after.answer.budget);
        let direct = engine.answer(&query, budget).unwrap();
        assert_eq!(
            after.answer.answers.digest(),
            direct.answers.digest(),
            "seed {seed}"
        );
    });
}
