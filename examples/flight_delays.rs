//! Exploratory analytics over the AIRCA-lite flight data: aggregate queries
//! under a resource ratio, the scenario that motivates the paper's
//! "unpredictable, aggregate or not" requirement (real-time problem diagnosis
//! over large fact tables).
//!
//! ```text
//! cargo run --example flight_delays
//! ```

use beas::prelude::*;

fn main() {
    // a synthetic stand-in for the paper's AIRCA dataset (see the
    // `beas-workloads` crate docs for why the datasets are synthetic)
    let dataset = airca_lite(4, 2024);
    println!(
        "AIRCA-lite: {} tuples across {} relations",
        dataset.db.total_tuples(),
        dataset.db.schema.relations.len()
    );

    let engine = Beas::builder(dataset.db.clone())
        .constraints(dataset.constraints.iter().cloned())
        .build()
        .expect("catalog");
    let db = &*engine.database();

    // ----------------------------------------------------------------------
    // Q: average arrival delay per year for one carrier's delayed flights.
    // ----------------------------------------------------------------------
    let mut b = SpcQueryBuilder::new(&db.schema);
    let f = b.atom("flights", "f").unwrap();
    b.filter_const(f, "carrier_id", CompareOp::Eq, 2i64)
        .unwrap();
    b.filter_const(f, "dep_delay", CompareOp::Ge, 15i64)
        .unwrap();
    b.output(f, "year", "year").unwrap();
    b.output(f, "arr_delay", "arr_delay").unwrap();
    let inner: RaQuery = RaQuery::spc(b.build().unwrap());
    let query: BeasQuery = AggQuery::new(
        inner,
        vec!["year".into()],
        AggFunc::Avg,
        "arr_delay",
        "avg_arr_delay",
    )
    .unwrap()
    .into();

    let exact = exact_answers(&query, db).unwrap();
    println!("\navg arrival delay of delayed flights of carrier 2, per year");
    println!("exact answer ({} groups):", exact.len());
    for row in exact.clone().sorted().rows().take(5) {
        println!(
            "  year {} -> {:.1} min",
            row[0],
            row[1].as_f64().unwrap_or(f64::NAN)
        );
    }

    for alpha in [0.01, 0.05, 0.2] {
        let answer = engine
            .answer(&query, ResourceSpec::Ratio(alpha))
            .expect("answer");
        let acc = rc_accuracy(&answer.answers, &query, db, &AccuracyConfig::default()).unwrap();
        println!(
            "\nalpha = {alpha}: accessed {}/{} tuples, eta = {:.3}, measured RC = {:.3}",
            answer.accessed, answer.budget, answer.eta, acc.accuracy
        );
        for row in answer.answers.clone().sorted().rows().take(5) {
            println!(
                "  year {} -> {:.1} min",
                row[0],
                row[1].as_f64().unwrap_or(f64::NAN)
            );
        }
    }

    // ----------------------------------------------------------------------
    // Compare against the uniform-sampling baseline at the same budget.
    // ----------------------------------------------------------------------
    let spec = ResourceSpec::Ratio(0.05);
    let budget = engine.catalog().budget(&spec).unwrap();
    let sampl = Sampl::build(db, &spec, 7).expect("sample");
    let sampl_answer = sampl
        .answer(&query.to_query_expr(&db.schema).unwrap())
        .expect("baseline answer");
    let sampl_acc = rc_accuracy(&sampl_answer, &query, db, &AccuracyConfig::default()).unwrap();
    let beas_answer = engine.answer(&query, spec).unwrap();
    let beas_acc =
        rc_accuracy(&beas_answer.answers, &query, db, &AccuracyConfig::default()).unwrap();
    println!(
        "\nat the same budget ({budget} tuples): BEAS RC = {:.3} vs uniform sampling RC = {:.3}",
        beas_acc.accuracy, sampl_acc.accuracy
    );
    println!("BEAS also reports its deterministic lower bound eta = {:.3}; sampling offers no such guarantee.", beas_answer.eta);
}
