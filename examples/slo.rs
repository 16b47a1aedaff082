//! Accuracy-target serving: ask for η, not a budget.
//!
//! Builds a poi engine whose coarse index levels genuinely approximate the
//! (hotel, NYC) fragment, then serves accuracy-denominated requests through
//! [`Beas::answer_with_target`]. η is a deterministic function of the query,
//! the catalog and the budget, computed by the planner before any tuple is
//! fetched, so the engine searches the smallest budget whose planned η
//! reaches the target (about `2·log₂(|D|)` plans) and executes once. There
//! is nothing to learn and no cold start: the very first `eta:0.9` /
//! `eta:0.95` requests meet their targets below half the full budget
//! (asserted), and a repeated request spends exactly the same (asserted).
//!
//! The adaptive refinement schedule rides the same search:
//! `RefinementSchedule::to_accuracy(0.9)` ends at the searched budget and
//! keeps only the ladder rungs below it that raise the planned η.
//!
//! ```text
//! cargo run --release --example slo
//! ```

use beas::prelude::*;

fn main() {
    // ---- build (offline C1): 30k rows, all prices distinct
    let schema = DatabaseSchema::new(vec![RelationSchema::new(
        "poi",
        vec![
            Attribute::categorical("type"),
            Attribute::text("city"),
            Attribute::double("price"),
        ],
    )]);
    let mut db = Database::new(schema);
    let cities = ["NYC", "LA", "Chicago", "Boston", "Seattle"];
    let types = ["hotel", "museum", "restaurant"];
    for i in 0..30_000i64 {
        db.insert_row(
            "poi",
            vec![
                Value::from(types[(i % 3) as usize]),
                Value::from(cities[(i % 5) as usize]),
                Value::Double(20.0 + i as f64 / 7.0),
            ],
        )
        .unwrap();
    }
    let engine = Beas::builder(db)
        .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
        .build()
        .unwrap();
    let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap();
    println!(
        "engine: |D| = {} tuples, full budget = {full_budget}",
        engine.database().total_tuples()
    );

    // ---- the query: all NYC hotel prices
    let mut b = SpcQueryBuilder::new(engine.schema());
    let h = b.atom("poi", "h").unwrap();
    b.bind_const(h, "type", "hotel").unwrap();
    b.bind_const(h, "city", "NYC").unwrap();
    b.output(h, "price", "price").unwrap();
    let query: BeasQuery = b.build().unwrap().into();

    // ---- targeted serving on a fresh engine: the first request already
    // spends the searched budget, and a repeat spends exactly the same
    println!("\ntargeted serving:");
    println!("  target     budget  eta    spent  escalations  vs_full");
    for eta in [0.9, 0.95, 0.99] {
        let target = AccuracyTarget::new(eta).unwrap();
        let predicted = engine.predict_target_cost(&query, &target).unwrap();
        let first = engine.answer_with_target(&query, &target).unwrap();
        println!(
            "  eta:{eta:<5} {:>6}  {:.3}  {:>5}  {:>11}  {:>6.0}%",
            first.answer.budget,
            first.answer.eta,
            first.spent,
            first.escalations,
            100.0 * first.answer.budget as f64 / full_budget as f64,
        );
        assert_eq!(
            predicted, first.predicted_budget,
            "admission charges what serving searches"
        );
        assert!(first.feasible, "eta:{eta} is reachable on this workload");
        assert!(
            first.answer.eta >= eta,
            "achieved {} below target {eta}",
            first.answer.eta
        );
        if eta <= 0.95 {
            // the acceptance bar: the first request meets the target well
            // under half the full-evaluation budget
            assert!(
                first.answer.budget * 2 < full_budget,
                "eta:{eta} should cost < 50% of the full budget, searched {}",
                first.answer.budget
            );
        }
        let again = engine.answer_with_target(&query, &target).unwrap();
        assert_eq!(
            (
                again.answer.budget,
                again.spent,
                again.answer.answers.digest()
            ),
            (
                first.answer.budget,
                first.spent,
                first.answer.answers.digest()
            ),
            "a repeated request spends exactly what the first did"
        );
    }

    // ---- the adaptive schedule ends at the searched budget
    let prepared = engine.prepare(&query).unwrap();
    let session = prepared
        .session(RefinementSchedule::to_accuracy(0.9).unwrap())
        .unwrap();
    let trajectory: Vec<String> = session
        .trajectory()
        .iter()
        .map(|(spec, budget)| format!("{spec} ({budget})"))
        .collect();
    println!("\nto_accuracy(0.9) trajectory: [{}]", trajectory.join(", "));
    let mut last = None;
    for step in session {
        last = Some(step.unwrap());
    }
    let last = last.expect("trajectory has steps");
    assert!(last.eta >= 0.9, "the final step meets the goal");
    println!("ok: every target met from the first request, at a repeatable spend");
}
