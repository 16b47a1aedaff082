//! Per-layer metrics of the traced run: what the span fold says about the
//! answer path, and micro-probes that call one public function of one layer
//! in a loop over the workload's own data.
//!
//! Probes of layers a workload never enters (store, HTTP, cluster) run only
//! in the workload that does; everywhere else those metrics read 0.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_access::{multilevel_partition, FetchSession};
use beas_core::{
    AccuracyTarget, Beas, BeasAnswer, BeasQuery, CurveStore, Planner, RefinementSchedule,
    ResourceSpec,
};
use beas_relal::{
    aggregate_relation, eval_query, AggFunc, CompareOp, GroupByQuery, Predicate, PredicateAtom,
    RaExpr, Value,
};
use beas_serve::wire::{answer_to_json, query_from_json, query_to_json};
use beas_serve::{parse_json, query_body};

use crate::inputs::{self, Rng};
use crate::report::Report;
use crate::stats;
use crate::trace::names::{COMPOSE, EVALUATE, FETCH, PACKAGE, PLANNER_PLAN, PREPARED_PLAN};
use crate::trace::{names, Fold};
use crate::workloads::{timed, Ctx, Engine, BUDGET};

/// Mean seconds per call of `f`, calling it for about `budget` (at least
/// three times, after one warm-up call).
pub fn per_call_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// Sets every `<span>.self_us` metric and the trace-validity metrics from a
/// fold; `one_call_ms` and `staged_ms` are the latencies of the same
/// requests through the one-call path and through the traced stages.
pub fn set_fold(report: &mut Report, folded: &Fold, one_call_ms: &[f64], staged_ms: &[f64]) {
    for name in names::ALL {
        report.set(&format!("{name}.self_us"), folded.self_us_per_root(name));
    }
    report.set("bench.trace.attributed_share", folded.attributed_share());
    report.set(
        "bench.trace.overhead_share",
        stats::summarize(staged_ms).p50 / stats::summarize(one_call_ms).p50,
    );
    report.note("traced_requests", folded.roots);
}

/// Mean duration per root span of the spans named `names`, in µs.
fn total_us_per_root(folded: &Fold, names: &[&str]) -> f64 {
    let ns: u64 = names
        .iter()
        .filter_map(|n| folded.by_name.get(n))
        .map(|t| t.total_ns)
        .sum();
    ns as f64 / folded.roots.max(1) as f64 / 1e3
}

/// The executor's metrics from a fold of requests that drove its phases:
/// time per execution and per accessed tuple.
pub fn set_executor(report: &mut Report, folded: &Fold, accessed_per_answer: f64) {
    let execute_us = total_us_per_root(folded, &[FETCH, EVALUATE, COMPOSE]);
    report.set("core.executor.execute_us_per_plan", execute_us);
    report.set("core.executor.accessed_per_answer", accessed_per_answer);
    report.set(
        "core.executor.ns_per_accessed_tuple",
        execute_us * 1e3 / accessed_per_answer.max(1.0),
    );
}

/// What one-call `answer` costs on top of the stages it runs (snapshot,
/// budget resolution, statistics, the SLO observation): its mean latency
/// minus the mean duration of the plan, execute and package spans.
pub fn set_engine_self(report: &mut Report, folded: &Fold, one_call_ms: &[f64]) {
    let stages = [
        PREPARED_PLAN,
        PLANNER_PLAN,
        FETCH,
        EVALUATE,
        COMPOSE,
        PACKAGE,
    ];
    report.set(
        "core.engine.answer_self_us",
        stats::mean(one_call_ms) * 1e3 - total_us_per_root(folded, &stages),
    );
}

/// The probes of `relal`, `access`, `core`, `slo` and the in-process half
/// of `serve`, over `engine`'s data and the first queries of `pool`.
pub fn in_process_layers(
    ctx: &Ctx,
    report: &mut Report,
    engine: &Engine,
    pool: &[BeasQuery],
) -> Result<(), String> {
    let budget = Duration::from_millis(ctx.size(60, 2) as u64);
    let sample: Vec<&BeasQuery> = pool.iter().take(ctx.size(20, 5)).collect();
    relal(report, &engine.beas, &sample, budget)?;
    access(ctx, report, engine, budget)?;
    core(report, engine, &sample, budget)?;
    slo(report, &engine.beas, &sample, budget)?;
    serve(report, &engine.beas, &sample, budget)
}

fn relal(
    report: &mut Report,
    engine: &Beas,
    sample: &[&BeasQuery],
    budget: Duration,
) -> Result<(), String> {
    let db = engine.database();
    let lineitem = db.relation("lineitem").map_err(|e| e.to_string())?;
    let rows = lineitem.len().max(1) as f64;

    // one atom, then a fused conjunction of three
    let one = Predicate::all(vec![PredicateAtom::col_cmp_const(
        "l_quantity",
        CompareOp::Le,
        Value::Int(25),
    )]);
    let three = one
        .clone()
        .and(PredicateAtom::col_eq_const("l_shipyear", Value::Int(1995)))
        .and(PredicateAtom::col_cmp_const(
            "l_discount",
            CompareOp::Le,
            Value::Double(0.05),
        ));
    let mut failed = None;
    let select_s = per_call_s(budget, || {
        for p in [&one, &three] {
            match p.selection(lineitem) {
                Ok(sel) => drop(std::hint::black_box(sel)),
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    report.set(
        "relal.kernel.select_ns_per_row",
        select_s * 1e9 / (2.0 * rows),
    );

    let group_by = GroupByQuery::new(
        RaExpr::scan("lineitem", "l"),
        vec!["l_shipyear".to_string()],
        AggFunc::Sum,
        "l_extendedprice",
        "revenue",
    );
    let aggregate_s = per_call_s(budget, || match aggregate_relation(lineitem, &group_by) {
        Ok(rel) => drop(std::hint::black_box(rel)),
        Err(e) => failed = Some(e.to_string()),
    });
    report.set("relal.eval.aggregate_ns_per_row", aggregate_s * 1e9 / rows);

    report.set(
        "relal.eval.full_eval_ms_per_query",
        full_eval_ms(engine, sample)?,
    );
    failed.map_or(Ok(()), Err)
}

/// The exact baseline, which grows with |D|: mean milliseconds of
/// `eval_query` over the whole database for the first eight of `sample`.
pub fn full_eval_ms(engine: &Beas, sample: &[&BeasQuery]) -> Result<f64, String> {
    let db = engine.database();
    let mut eval_s = Vec::new();
    for query in sample.iter().take(8) {
        let expr = query.to_query_expr(&db.schema).map_err(|e| e.to_string())?;
        let (out, s) = timed(|| eval_query(&expr, &*db));
        std::hint::black_box(out.map_err(|e| e.to_string())?);
        eval_s.push(s);
    }
    Ok(stats::mean(&eval_s) * 1e3)
}

fn access(ctx: &Ctx, report: &mut Report, engine: &Engine, budget: Duration) -> Result<(), String> {
    let db = engine.beas.database();
    let catalog = engine.beas.catalog();
    let tuples = db.total_tuples() as f64;
    report.set("access.builder.build_tuples_per_s", tuples / engine.build_s);

    // the same build a tenth the size: the exponent of build time in |D|
    let small = Engine::build((engine.scale / 10).max(1))?;
    let small_tuples = small.beas.database().total_tuples() as f64;
    let exponent = if small_tuples < tuples {
        (engine.build_s / small.build_s).ln() / (tuples / small_tuples).ln()
    } else {
        0.0
    };
    report.set("access.builder.build_scaling_exponent", exponent);
    report.set(
        "access.catalog.index_tuples_per_data_tuple",
        catalog.index_size_report().total_ratio(),
    );

    // K-D partitioning of (l_quantity, l_extendedprice)
    let lineitem = db.relation("lineitem").map_err(|e| e.to_string())?;
    let schema = db.schema.relation("lineitem").map_err(|e| e.to_string())?;
    let cols = ["l_quantity", "l_extendedprice"];
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| lineitem.column_index(c).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let distances: Vec<_> = idx.iter().map(|&i| schema.attributes[i].distance).collect();
    let n = lineitem.len().min(ctx.size(20_000, 500));
    let points: Vec<Vec<Value>> = (0..n)
        .map(|r| idx.iter().map(|&c| lineitem.value_at(r, c)).collect())
        .collect();
    let partition_s = per_call_s(budget, || {
        std::hint::black_box(multilevel_partition(&points, &distances));
    });
    report.set(
        "access.kdtree.partition_tuples_per_s",
        n as f64 / partition_s,
    );

    // materialize and fetch on the largest family: its exact level and a
    // coarse one
    let (family_id, family) = catalog
        .families()
        .iter()
        .enumerate()
        .max_by_key(|(_, f)| f.levels.last().map_or(0, |l| l.stored_tuples()))
        .ok_or("the catalog has no template family")?;
    let deepest = family.levels.len() - 1;
    let mut failed = None;
    let mut materialized = 0usize;
    let materialize_s = per_call_s(budget, || {
        materialized = 0;
        for level in [deepest, deepest / 2] {
            let xkeys = family.levels[level].xkeys();
            match family.materialize(level, &xkeys) {
                Ok(rel) => materialized += std::hint::black_box(rel).len(),
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    report.set(
        "access.family.materialize_ns_per_tuple",
        materialize_s * 1e9 / materialized.max(1) as f64,
    );
    let xkeys = family.levels[deepest].xkeys();
    let mut fetched = 0usize;
    let fetch_s = per_call_s(budget, || {
        let mut session = FetchSession::new(&catalog, None);
        match session.fetch(family_id, deepest, &xkeys) {
            Ok(rel) => fetched = std::hint::black_box(rel).len(),
            Err(e) => failed = Some(e.to_string()),
        }
    });
    report.set(
        "access.fetch.fetch_ns_per_tuple",
        fetch_s * 1e9 / fetched.max(1) as f64,
    );

    // index maintenance of one 10-row batch, on a private copy
    let batch = inputs::lineitem_batch(engine.scale, &mut Rng::new(ctx.seed, 0x1d));
    let mut insert_s = Vec::new();
    for _ in 0..ctx.size(5, 2) {
        let mut copy = (*catalog).clone();
        let (out, s) = timed(|| copy.insert_rows(batch.inserts()));
        out.map_err(|e| e.to_string())?;
        insert_s.push(s);
    }
    report.set(
        "access.catalog.insert_rows_us_per_row",
        stats::median(&insert_s) * 1e6 / batch.len() as f64,
    );
    failed.map_or(Ok(()), Err)
}

fn core(
    report: &mut Report,
    engine: &Engine,
    sample: &[&BeasQuery],
    budget: Duration,
) -> Result<(), String> {
    // a private handle: probes must not touch the workload's caches or data
    let scale = engine.scale;
    let engine = Arc::new(Beas::clone(&engine.beas));
    let catalog = engine.catalog();
    let planner = Planner::new(&catalog);
    let mut failed = None;
    let cold_s = per_call_s(budget, || {
        for query in sample {
            match planner.plan(query, BUDGET) {
                Ok(plan) => drop(std::hint::black_box(plan)),
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    report.set(
        "core.planner.plan_us_cold",
        cold_s * 1e6 / sample.len() as f64,
    );

    let prepared = sample
        .iter()
        .map(|q| engine.prepare_shared(q).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let cached_s = per_call_s(budget, || {
        for p in &prepared {
            match p.plan(BUDGET) {
                Ok(plan) => drop(std::hint::black_box(plan)),
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    report.set(
        "core.prepared.plan_us_cached",
        cached_s * 1e6 / sample.len() as f64,
    );

    // the anytime path: refinement steps over growing tuple budgets, each
    // reusing the fragments of the one before
    let schedule =
        RefinementSchedule::tuples(&[500, 1000, 2000, 4000]).map_err(|e| e.to_string())?;
    let (mut steps, mut step_s) = (0usize, 0.0);
    for p in prepared.iter().take(5) {
        let mut session = p.session(schedule.clone()).map_err(|e| e.to_string())?;
        loop {
            let (step, s) = timed(|| session.next_step());
            match step {
                None => break,
                Some(Err(e)) => return Err(format!("refinement step failed: {e}")),
                Some(Ok(_)) => {
                    steps += 1;
                    step_s += s;
                }
            }
        }
    }
    report.set(
        "core.session.refine_us_per_step",
        step_s * 1e6 / steps.max(1) as f64,
    );

    // copy-on-write maintenance without a store
    let mut rng = Rng::new(0, 0x1e);
    let mut update_s = Vec::new();
    for _ in 0..5 {
        let batch = inputs::lineitem_batch(scale, &mut rng);
        let (out, s) = timed(|| engine.apply_update(&batch));
        out.map_err(|e| e.to_string())?;
        update_s.push(s);
    }
    report.set(
        "core.engine.apply_update_ms_mem",
        stats::median(&update_s) * 1e3,
    );
    failed.map_or(Ok(()), Err)
}

fn slo(
    report: &mut Report,
    engine: &Beas,
    sample: &[&BeasQuery],
    budget: Duration,
) -> Result<(), String> {
    let store = CurveStore::new();
    let mut rng = Rng::new(0, 0x510);
    let observe_s = per_call_s(budget, || {
        for fp in 0..64u128 {
            let tuples = 250usize << rng.below(6);
            store.observe(fp, 1, tuples, rng.unit(), tuples / 2);
        }
    });
    report.set("slo.curve.observe_ns", observe_s * 1e9 / 64.0);
    let plan_s = per_call_s(budget, || {
        for fp in 0..64u128 {
            std::hint::black_box(store.plan_budget(fp, 1, 0.5, 8000));
        }
    });
    report.set("slo.curve.plan_budget_ns", plan_s * 1e9 / 64.0);

    // targeted answers on a private handle, after a warm-up ladder. The
    // target is capped, so a query that cannot reach it costs the cap and
    // not a full evaluation.
    let engine = engine.clone();
    let cap = 8000usize;
    let target = AccuracyTarget::new(0.8)
        .and_then(|t| t.with_max_budget(ResourceSpec::Tuples(cap)))
        .map_err(|e| e.to_string())?;
    let (mut answer_s, mut spent) = (Vec::new(), 0usize);
    for query in sample.iter().take(10) {
        for tuples in [500, 2000, cap] {
            engine
                .answer(query, ResourceSpec::Tuples(tuples))
                .map_err(|e| e.to_string())?;
        }
        let (answer, s) = timed(|| engine.answer_with_target(query, &target));
        spent += answer.map_err(|e| e.to_string())?.spent;
        answer_s.push(s);
    }
    report.set("slo.target.answer_us", stats::median(&answer_s) * 1e6);
    report.set(
        "slo.target.spend_share",
        spent as f64 / (cap * answer_s.len().max(1)) as f64,
    );
    Ok(())
}

fn serve(
    report: &mut Report,
    engine: &Beas,
    sample: &[&BeasQuery],
    budget: Duration,
) -> Result<(), String> {
    let schema = engine.schema();
    let bodies = sample
        .iter()
        .map(|q| {
            query_to_json(q, schema)
                .map(|json| query_body(None, BUDGET, &json))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let body_bytes: usize = bodies.iter().map(String::len).sum();
    let mut failed = None;
    let parse_s = per_call_s(budget, || {
        for body in &bodies {
            match parse_json(body) {
                Ok(json) => drop(std::hint::black_box(json)),
                Err(e) => failed = Some(e.to_string()),
            }
        }
    });
    report.set(
        "serve.json.parse_mb_per_s",
        body_bytes as f64 / 1e6 / parse_s,
    );

    let parsed = bodies
        .iter()
        .map(|b| parse_json(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let decode_s = per_call_s(budget, || {
        for json in &parsed {
            match json.get("query").map(|q| query_from_json(q, schema)) {
                Some(Ok(query)) => drop(std::hint::black_box(query)),
                Some(Err(e)) => failed = Some(e.to_string()),
                None => failed = Some("request body without a query".to_string()),
            }
        }
    });
    report.set(
        "serve.wire.query_from_json_us",
        decode_s * 1e6 / bodies.len() as f64,
    );

    let private = engine.clone();
    let answers: Vec<BeasAnswer> = sample
        .iter()
        .map(|q| private.answer(q, BUDGET).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut answer_bytes = 0usize;
    let encode_s = per_call_s(budget, || {
        answer_bytes = answers
            .iter()
            .map(|a| std::hint::black_box(answer_to_json(a).to_string()).len())
            .sum();
    });
    report.set(
        "serve.wire.answer_to_json_us",
        encode_s * 1e6 / answers.len() as f64,
    );
    report.set(
        "serve.wire.bytes_per_answer",
        answer_bytes as f64 / answers.len() as f64,
    );
    failed.map_or(Ok(()), Err)
}
