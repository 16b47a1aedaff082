//! The answer pipeline driven stage by stage through the crates' public
//! functions, one span per stage. The stages are the ones
//! `execute_plan_with_state` runs inside one call; the traced workloads
//! check their answers against the one-call path bit for bit.

use beas_access::FetchSession;
use beas_core::{
    compose_plan_answer, evaluate_plan_leaf, stream_plan_fragments, Beas, BeasAnswer, BoundedPlan,
    ExecOptions, ExecState, ExecutionOutcome,
};

use crate::trace::names::{COMPOSE, EVALUATE, FETCH, PACKAGE};
use crate::trace::{Tracer, ROOT};

/// Executes `plan` against `engine`'s current snapshot with the engine's
/// own thread settings, phase by phase, under spans of `parent`.
pub fn execute(
    tracer: &Tracer,
    request: u64,
    parent: u32,
    engine: &Beas,
    plan: &BoundedPlan,
) -> Result<BeasAnswer, String> {
    execute_capped(tracer, request, parent, engine, plan, usize::MAX)?
        .ok_or_else(|| "an uncapped execution was cut short".to_string())
}

/// The answer to `plan` unless it is one the pools leave out: `None` when
/// the answer has more than `row_cap` rows, or — for a query with set
/// difference — when a leaf result has. Composition of a difference is
/// quadratic in those sizes today (17 000 × 800 rows: 18 s), while fetching
/// and evaluating the leaves is not, so the sizes are looked at between the
/// two and the expensive answers are never computed. A count decides, so
/// the same queries are left out on every run of a seed.
pub fn answer_if_cheap(
    engine: &Beas,
    plan: &BoundedPlan,
    row_cap: usize,
) -> Result<Option<BeasAnswer>, String> {
    execute_capped(&Tracer::default(), 0, ROOT, engine, plan, row_cap)
}

fn execute_capped(
    tracer: &Tracer,
    request: u64,
    parent: u32,
    engine: &Beas,
    plan: &BoundedPlan,
    row_cap: usize,
) -> Result<Option<BeasAnswer>, String> {
    let snapshot = engine.snapshot();
    let catalog = snapshot.catalog();
    let options = ExecOptions::budgeted(plan.budget.max(plan.tariff))
        .with_threads(engine.num_threads())
        .with_min_shard_rows(engine.min_shard_rows());
    let mut state = ExecState::new();
    let mut session = FetchSession::new(catalog, options.budget);
    let fragments = tracer
        .span(request, parent, FETCH, |_| {
            stream_plan_fragments(plan, &mut session, &mut state)
        })
        .map_err(|e| format!("fetch failed: {e}"))?;
    let leaves = tracer
        .span(request, parent, EVALUATE, |_| {
            (0..plan.leaves.len())
                .map(|i| evaluate_plan_leaf(i, plan, catalog, &fragments, &options, &mut state))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("leaf evaluation failed: {e}"))?;
    if plan.query.ra().has_difference() && leaves.iter().any(|l| l.rel.len() > row_cap) {
        return Ok(None);
    }
    let (answers, eta) = tracer
        .span(request, parent, COMPOSE, |_| {
            compose_plan_answer(plan, catalog, &leaves)
        })
        .map_err(|e| format!("composition failed: {e}"))?;
    if answers.len() > row_cap {
        return Ok(None);
    }
    let outcome = ExecutionOutcome {
        answers,
        eta,
        accessed: session.accessed(),
        fetches: session.counter().fetches,
    };
    Ok(Some(tracer.span(request, parent, PACKAGE, |_| {
        BeasAnswer::from_execution(plan, outcome)
    })))
}
