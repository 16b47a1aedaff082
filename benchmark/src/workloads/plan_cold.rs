//! `plan_cold`: never-repeated queries through one-call `Beas::answer` at
//! a small budget. Every request plans from scratch — constants take part
//! in `QueryFingerprint`, so no cache keyed on it can help — and
//! `core::{planner, chase}` dominate while execution stays small. A planner
//! optimisation must move this workload and leave `bounded_inproc` flat; an
//! executor optimisation does the reverse.

use std::time::{Duration, Instant};

use beas_core::{BeasAnswer, BeasQuery, ResourceSpec};

use super::{accuracy_sample, finish_trace, repeat_setup, set_end_to_end, Ctx, Engine};
use crate::inputs::{self, Digest};
use crate::probes;
use crate::report::Report;
use crate::staged;
use crate::stats;
use crate::trace::names::{PLANNER_PLAN, REQUEST};
use crate::trace::{Tracer, ROOT};

/// The budget of every answer: small, so planning outweighs execution.
const SPEC: ResourceSpec = ResourceSpec::Tuples(500);

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // the pool is consumed once; 5 000 queries outlast the measuring time
    let pool = inputs::query_pool(ctx.size(1000, 4), ctx.seed);
    let (engine, setup_s) = repeat_setup(ctx, || Engine::build(ctx.size(100, 2)))?;
    let db = engine.beas.database();
    let mut digest = Digest::default();
    digest.database(&db);
    digest.queries(&pool, &db);
    report.input_digest = digest.value();
    report.note("queries", pool.len());
    report.note("tuples", db.total_tuples());

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // the η each answered query reported, in pool order (0 for a failure)
    let etas = if ctx.trace {
        traced(ctx, report, &engine, &pool, deadline)?
    } else {
        let mut answer_ms = Vec::with_capacity(pool.len());
        let mut etas = Vec::with_capacity(pool.len());
        let mut busy_s = 0.0;
        for query in &pool {
            if Instant::now() >= deadline {
                break;
            }
            let start = Instant::now();
            let answer = engine.beas.answer(query, SPEC);
            let s = start.elapsed().as_secs_f64();
            busy_s += s;
            answer_ms.push(s * 1e3);
            etas.push(checked(answer, report));
        }
        set_end_to_end(
            report,
            setup_s,
            &answer_ms,
            answer_ms.len() as f64 / busy_s,
            stats::mean(&etas),
        );
        etas
    };

    // accuracy against exact answers, over a sample of what was answered
    for i in accuracy_sample(ctx, &pool[..etas.len()], &etas) {
        match engine.beas.answer(&pool[i], SPEC) {
            Ok(answer) => report.check_eta(&db, &pool[i], &answer),
            Err(e) => report.op(Err(format!("answer failed: {e}"))),
        }
    }
    Ok(())
}

/// Counts one answer and checks its budget; returns its η (0 on failure).
fn checked<E: std::fmt::Display>(answer: Result<BeasAnswer, E>, report: &mut Report) -> f64 {
    match answer {
        Ok(answer) => {
            report.op(Ok(()));
            report.check_budget(&answer);
            answer.eta
        }
        Err(e) => {
            report.op(Err(format!("answer failed: {e}")));
            0.0
        }
    }
}

/// The traced run: queries alternate between the one-call path and
/// `Beas::plan` + the executor's phases under spans (a query is never sent
/// twice; the pool interleaves its strata, so both halves have the same mix).
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    engine: &Engine,
    pool: &[BeasQuery],
    deadline: Instant,
) -> Result<Vec<f64>, String> {
    let tracer = Tracer::default();
    let (mut one_call_ms, mut staged_ms) = (Vec::new(), Vec::new());
    let mut etas = Vec::with_capacity(pool.len());
    let (mut request, mut accessed) = (0u64, 0usize);
    for (i, query) in pool.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let start = Instant::now();
        let answer = if i % 2 == 0 {
            let answer = engine.beas.answer(query, SPEC).map_err(|e| e.to_string());
            one_call_ms.push(start.elapsed().as_secs_f64() * 1e3);
            answer
        } else {
            let answer = tracer.span(request, ROOT, REQUEST, |root| {
                let plan = tracer
                    .span(request, root, PLANNER_PLAN, |_| {
                        engine.beas.plan(query, SPEC)
                    })
                    .map_err(|e| format!("plan failed: {e}"))?;
                staged::execute(&tracer, request, root, &engine.beas, &plan)
            });
            staged_ms.push(start.elapsed().as_secs_f64() * 1e3);
            request += 1;
            accessed += answer.as_ref().map_or(0, |a| a.accessed);
            answer
        };
        etas.push(checked(answer, report));
    }
    let folded = finish_trace(ctx, "plan_cold", &tracer)?;
    probes::set_fold(report, &folded, &one_call_ms, &staged_ms);
    probes::set_executor(report, &folded, accessed as f64 / request.max(1) as f64);
    probes::set_engine_self(report, &folded, &one_call_ms);
    probes::in_process_layers(ctx, report, engine, pool)?;
    Ok(etas)
}
