//! Road-safety analytics over the TFACC-lite data: relational-algebra queries
//! *with set difference* under a resource ratio — the part of BEAS (Sec. 6)
//! that no sampling or synopsis baseline supports.
//!
//! ```text
//! cargo run --example accident_analytics
//! ```

use beas::prelude::*;

fn main() {
    let dataset = tfacc_lite(3, 7);
    println!(
        "TFACC-lite: {} tuples across {} relations",
        dataset.db.total_tuples(),
        dataset.db.schema.relations.len()
    );
    let engine = Beas::builder(dataset.db.clone())
        .constraints(dataset.constraints.iter().cloned())
        .build()
        .expect("catalog");
    let db = &*engine.database();

    // ----------------------------------------------------------------------
    // accidents on fast roads (speed limit ≥ 60), reporting severity and
    // casualty count …
    // ----------------------------------------------------------------------
    let fast_roads = |min_casualties: i64| -> SpcQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let a = b.atom("accidents", "a").unwrap();
        let r = b.atom("roads", "r").unwrap();
        b.join((a, "road_id"), (r, "road_id")).unwrap();
        b.filter_const(r, "speed_limit", CompareOp::Ge, 60i64)
            .unwrap();
        b.filter_const(a, "num_casualties", CompareOp::Ge, min_casualties)
            .unwrap();
        b.output(a, "severity", "severity").unwrap();
        b.output(a, "num_casualties", "num_casualties").unwrap();
        b.output(a, "year", "year").unwrap();
        b.build().unwrap()
    };

    // … minus the single-casualty ones: an RA query with set difference.
    let query: BeasQuery = BeasQuery::Ra(RaQuery::spc(fast_roads(1)).difference(
        RaQuery::spc(fast_roads(1)).difference(
            // (X − (X − Y)) keeps only multi-casualty accidents; the nested
            // difference exercises the maximal-induced-query machinery
            RaQuery::spc(fast_roads(2)),
        ),
    ));

    let exact = exact_answers(&query, db).unwrap();
    println!(
        "\nmulti-casualty accidents on fast roads: {} exact answers",
        exact.len()
    );

    // The set-difference guarantee (Theorem 6(5)): excluded tuples never leak
    // into the answer, at any ratio. Small ratios return no tuples at all
    // here, so the check only binds at a ratio that answers something.
    let excluded: BeasQuery =
        BeasQuery::Ra(RaQuery::spc(fast_roads(1)).difference(RaQuery::spc(fast_roads(2))));
    let excluded_rows = exact_answers(&excluded, db).unwrap().to_rows();
    let mut answered = 0;
    for alpha in [0.02, 0.1, 0.5, 0.8] {
        let answer = engine
            .answer(&query, ResourceSpec::Ratio(alpha))
            .expect("answer");
        let acc = rc_accuracy(&answer.answers, &query, db, &AccuracyConfig::default()).unwrap();
        let leaked = answer
            .answers
            .rows()
            .filter(|row| excluded_rows.contains(row))
            .count();
        println!(
            "alpha = {:<4} | accessed {:>5}/{:<6} | answers {:>4} | eta = {:.3} | RC = {:.3} | leaked {}{}",
            alpha,
            answer.accessed,
            answer.budget,
            answer.answers.len(),
            answer.eta,
            acc.accuracy,
            leaked,
            if answer.exact { " (exact)" } else { "" }
        );
        assert_eq!(
            leaked, 0,
            "excluded tuples leaked into the answer at alpha = {alpha}"
        );
        if !answer.answers.is_empty() {
            answered += 1;
        }
    }
    assert!(
        answered > 0,
        "no ratio returned a tuple: the leak check never bound"
    );

    // ----------------------------------------------------------------------
    // Aggregate view: casualties per weather condition, BEAS vs histograms.
    // ----------------------------------------------------------------------
    let mut b = SpcQueryBuilder::new(&db.schema);
    let a = b.atom("accidents", "a").unwrap();
    b.filter_const(a, "year", CompareOp::Ge, 1990i64).unwrap();
    b.output(a, "weather", "weather").unwrap();
    b.output(a, "num_casualties", "num_casualties").unwrap();
    let agg: BeasQuery = AggQuery::new(
        RaQuery::spc(b.build().unwrap()),
        vec!["weather".into()],
        AggFunc::Sum,
        "num_casualties",
        "casualties",
    )
    .unwrap()
    .into();

    let spec = ResourceSpec::Ratio(0.05);
    let beas_answer = engine.answer(&agg, spec).unwrap();
    let histo = Histo::build(db, &spec).expect("histogram");
    let histo_answer = histo
        .answer(&agg.to_query_expr(&db.schema).unwrap())
        .unwrap();
    let beas_acc = rc_accuracy(&beas_answer.answers, &agg, db, &AccuracyConfig::default()).unwrap();
    let histo_acc = rc_accuracy(&histo_answer, &agg, db, &AccuracyConfig::default()).unwrap();
    println!(
        "\ncasualties per weather since 1990 at spec = {spec}: BEAS RC = {:.3} (eta = {:.3}) vs Histo RC = {:.3}",
        beas_acc.accuracy, beas_answer.eta, histo_acc.accuracy
    );
}
