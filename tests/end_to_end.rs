//! Cross-crate integration tests: the full BEAS pipeline (dataset → access
//! schema → planning → bounded execution → accuracy measurement) over the
//! synthetic workloads, checking the guarantees the paper states.

use beas::prelude::*;

/// Prepares a small TPCH-lite instance with its engine and workload.
fn prepared() -> (Beas, Vec<beas::workloads::querygen::GeneratedQuery>) {
    let dataset = tpch_lite(1, 42);
    let queries = generate_workload(
        &dataset,
        &QueryGenConfig {
            count: 8,
            seed: 9,
            ..QueryGenConfig::default()
        },
    );
    assert!(!queries.is_empty());
    let engine = Beas::builder(dataset.db)
        .constraints(dataset.constraints)
        .build()
        .expect("catalog");
    (engine, queries)
}

#[test]
fn bounded_answers_respect_budget_and_eta_across_the_workload() {
    let (engine, queries) = prepared();
    let cfg = AccuracyConfig {
        relax_grid: 3,
        fallback_cap: 1000.0,
    };
    for alpha in [0.02, 0.1] {
        let spec = ResourceSpec::ratio(alpha).expect("valid ratio");
        let budget = engine.catalog().budget(&spec).expect("budget");
        for gq in &queries {
            let answer = match engine.answer(&gq.query, spec) {
                Ok(a) => a,
                Err(e) => panic!("answering failed at alpha {alpha}: {e}"),
            };
            // when the budget is below one tuple per relation atom, the plan
            // of last resort may estimate slightly more and its own tariff is
            // enforced instead (see `Beas::exec_options`); the bound is the max
            assert!(
                answer.accessed <= budget.max(answer.planned_tariff),
                "accessed {} tuples with budget {budget} (tariff {})",
                answer.accessed,
                answer.planned_tariff
            );
            let measured = engine
                .accuracy(&answer.answers, &gq.query, &cfg)
                .expect("accuracy computation");
            assert!(
                measured.accuracy + 1e-9 >= answer.eta,
                "measured RC accuracy {} below promised eta {}",
                measured.accuracy,
                answer.eta
            );
        }
    }
}

#[test]
fn full_ratio_reproduces_exact_answers_for_every_query() {
    let (engine, queries) = prepared();
    for gq in &queries {
        let answer = engine
            .answer(&gq.query, ResourceSpec::FULL)
            .expect("answer at alpha = 1");
        if !answer.exact {
            // even when the planner cannot prove exactness, the answers must
            // still respect the eta bound; skip the strict comparison
            continue;
        }
        let exact = engine.exact_answers(&gq.query).expect("ground truth");
        assert_eq!(
            answer.answers.clone().sorted(),
            exact.sorted(),
            "exact plan produced different answers"
        );
    }
}

#[test]
fn eta_is_monotone_in_alpha_for_every_query() {
    let (engine, queries) = prepared();
    for gq in &queries {
        let mut last = -1.0f64;
        for alpha in [0.01, 0.05, 0.2, 1.0] {
            let plan = engine
                .plan(&gq.query, ResourceSpec::Ratio(alpha))
                .expect("plan");
            assert!(
                plan.eta + 1e-12 >= last,
                "eta decreased from {last} to {} at alpha {alpha}",
                plan.eta
            );
            last = plan.eta;
        }
    }
}

#[test]
fn planning_never_touches_more_than_the_declared_tariff() {
    let (engine, queries) = prepared();
    for gq in &queries {
        let plan = engine
            .plan(&gq.query, ResourceSpec::Ratio(0.1))
            .expect("plan");
        let outcome = engine.execute(&plan).expect("execute");
        assert!(
            outcome.accessed <= plan.tariff,
            "executed accesses {} exceed the estimated tariff {}",
            outcome.accessed,
            plan.tariff
        );
    }
}

#[test]
fn prepared_queries_reuse_plans_across_the_workload() {
    let (engine, queries) = prepared();
    let spec = ResourceSpec::Ratio(0.1);
    for gq in &queries {
        let prepared = engine.prepare(&gq.query).expect("prepare");
        let direct = engine.answer(&gq.query, spec).expect("direct answer");
        let first = prepared.answer(spec).expect("prepared answer");
        let second = prepared.answer(spec).expect("cached answer");
        assert_eq!(
            prepared.cached_plans(),
            1,
            "one budget must produce exactly one cached plan"
        );
        assert_eq!(
            direct.answers.clone().sorted(),
            first.answers.clone().sorted()
        );
        assert_eq!(
            first.answers.clone().sorted(),
            second.answers.clone().sorted()
        );
        assert_eq!(first.eta, second.eta);
    }
}

#[test]
fn inserts_after_build_keep_serving_without_a_rebuild() {
    // C2 end to end: build once, insert a season of new orders through the
    // incremental path, and check bounded answering stays consistent with a
    // freshly rebuilt engine over the same data.
    let dataset = tpch_lite(1, 42);
    let constraints = dataset.constraints.clone();
    let engine = Beas::builder(dataset.db)
        .constraints(constraints.clone())
        .build()
        .expect("catalog");
    let before = engine.database().total_tuples();

    for i in 0..40i64 {
        engine
            .insert_row(
                "orders",
                vec![
                    Value::Int(100_000 + i),
                    Value::Int(7), // customer 7 gets all the new orders
                    Value::from("O"),
                    Value::Double(100.0 + i as f64),
                    Value::Int(1997),
                    Value::from("1-URGENT"),
                ],
            )
            .expect("incremental insert");
    }
    assert_eq!(engine.database().total_tuples(), before + 40);
    assert_eq!(engine.catalog().db_size, before + 40);

    // customer 7's orders — the inserted rows must be visible
    let query: BeasQuery = {
        let mut b = SpcQueryBuilder::new(engine.schema());
        let o = b.atom("orders", "o").unwrap();
        b.filter_const(o, "o_custkey", CompareOp::Eq, 7i64).unwrap();
        b.output(o, "o_orderkey", "key").unwrap();
        b.output(o, "o_totalprice", "total").unwrap();
        b.build().unwrap().into()
    };
    let incremental = engine.answer(&query, ResourceSpec::FULL).expect("answer");
    let truth = engine.exact_answers(&query).expect("truth");
    assert!(incremental.answers.len() >= 40);
    assert_eq!(incremental.answers.clone().sorted(), truth.clone().sorted());

    // a freshly rebuilt engine over the same (updated) data agrees
    let rebuilt = Beas::builder(engine.database())
        .constraints(constraints)
        .build()
        .expect("rebuild");
    let fresh = rebuilt.answer(&query, ResourceSpec::FULL).expect("answer");
    assert_eq!(
        incremental.answers.clone().sorted(),
        fresh.answers.clone().sorted()
    );

    // budgets derived from the grown |D| keep being enforced
    let spec = ResourceSpec::Ratio(0.05);
    let approx = engine.answer(&query, spec).expect("bounded answer");
    assert!(approx.accessed <= engine.catalog().budget(&spec).unwrap());
}

#[test]
fn beas_beats_uniform_sampling_on_selective_queries() {
    // the headline comparison of Exp-1, on a deliberately selective query
    let dataset = tpch_lite(2, 11);
    let engine = Beas::builder(dataset.db)
        .constraints(dataset.constraints)
        .build()
        .expect("catalog");
    let db = engine.database();

    let mut b = SpcQueryBuilder::new(&db.schema);
    let o = b.atom("orders", "o").unwrap();
    b.filter_const(o, "o_status", CompareOp::Eq, "O").unwrap();
    b.filter_const(o, "o_year", CompareOp::Eq, 1995i64).unwrap();
    b.filter_const(o, "o_totalprice", CompareOp::Le, 20000i64)
        .unwrap();
    b.output(o, "o_year", "year").unwrap();
    b.output(o, "o_totalprice", "total").unwrap();
    let query: BeasQuery = b.build().unwrap().into();

    let cfg = AccuracyConfig::default();
    let spec = ResourceSpec::Ratio(0.03);

    let beas_answer = engine.answer(&query, spec).expect("beas answer");
    let beas_rc = engine
        .accuracy(&beas_answer.answers, &query, &cfg)
        .unwrap()
        .accuracy;

    let sampl = Sampl::build(&db, &spec, 3).expect("sample");
    let sampl_answer = sampl
        .answer(&query.to_query_expr(&db.schema).unwrap())
        .expect("sampl answer");
    let sampl_rc = rc_accuracy(&sampl_answer, &query, &db, &cfg)
        .unwrap()
        .accuracy;

    assert!(
        beas_rc >= sampl_rc,
        "BEAS RC {beas_rc} should not be below uniform sampling RC {sampl_rc} on a selective query"
    );
    assert!(beas_rc > 0.5, "BEAS should be accurate here, got {beas_rc}");
}

#[test]
fn index_sizes_stay_within_a_small_multiple_of_the_data() {
    for dataset in [tpch_lite(1, 5), tfacc_lite(1, 5), airca_lite(1, 5)] {
        let name = dataset.name.clone();
        let engine = Beas::builder(dataset.db)
            .constraints(dataset.constraints)
            .build()
            .expect("catalog");
        let report = engine.catalog().index_size_report();
        let ratio = report.total_ratio();
        assert!(
            ratio > 0.0 && ratio < 15.0,
            "index ratio {ratio} for {name} outside the expected range"
        );
        assert!(report.constraint_ratio() <= ratio);
    }
}

#[test]
fn exact_ratio_shrinks_relative_to_growing_data() {
    // Exp-3: as |D| grows, the fraction needed for exact answers shrinks
    let mut b_small = None;
    let mut b_large = None;
    for (scale, slot) in [(1usize, &mut b_small), (4usize, &mut b_large)] {
        let dataset = tpch_lite(scale, 21);
        let engine = Beas::builder(dataset.db)
            .constraints(dataset.constraints)
            .build()
            .expect("catalog");
        let mut q = SpcQueryBuilder::new(engine.schema());
        let c = q.atom("customer", "c").unwrap();
        let o = q.atom("orders", "o").unwrap();
        q.join((o, "o_custkey"), (c, "c_custkey")).unwrap();
        q.filter_const(c, "c_custkey", CompareOp::Eq, 7i64).unwrap();
        q.output(o, "o_totalprice", "total").unwrap();
        q.output(o, "o_year", "year").unwrap();
        let query: BeasQuery = q.build().unwrap().into();
        *slot = engine.exact_ratio(&query).expect("exact ratio");
    }
    let (small, large) = (b_small.unwrap(), b_large.unwrap());
    assert!(
        large <= small + 1e-9,
        "alpha_exact should not grow with |D|: small = {small}, large = {large}"
    );
}

/// A min/max answer is scored in the aggregated attribute's own unit, the
/// unit its η is planned in (Corollary 7). The query is the TPCH-pool `max`
/// (`tests/planner_reference.rs`: seed 1, query 7) that measured 0.0002
/// against a planned η of 0.4545 while its column was scored as a raw gap.
#[test]
fn extremum_aggregates_measure_at_least_their_planned_eta() {
    let source = tpch_lite(1, 42);
    let cfg = QueryGenConfig {
        count: 12,
        seed: 0xBEA5_0001,
        ..QueryGenConfig::default()
    };
    let query = generate_workload(&source, &cfg).swap_remove(7).query;
    assert!(
        matches!(&query, BeasQuery::Aggregate(a) if a.agg == AggFunc::Max),
        "{query:?}"
    );
    let data = tpch_lite(10, 42);
    let engine = Beas::builder(data.db)
        .constraints(data.constraints)
        .build()
        .expect("catalog");
    for budget in [50, 500, 2000] {
        let answer = engine
            .answer(&query, ResourceSpec::Tuples(budget))
            .expect("answer");
        assert!(answer.eta > 0.0, "budget {budget}: η is {}", answer.eta);
        let measured = engine
            .accuracy(&answer.answers, &query, &AccuracyConfig::default())
            .expect("accuracy computation");
        assert!(
            measured.accuracy >= answer.eta,
            "budget {budget}: measured RC accuracy {} below planned η {}",
            measured.accuracy,
            answer.eta
        );
    }
}
