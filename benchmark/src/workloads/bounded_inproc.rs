//! `bounded_inproc`: prepared queries answered at one tuple budget over
//! two data sizes. The plan cache always hits, so `core::executor`,
//! `access::{fetch, family}` and `relal::{kernel, eval}` do nearly all the
//! work, and the ratio of the two medians is the paper's Fig. 6(e) as a
//! number.

use std::time::{Duration, Instant};

use beas_core::{BeasQuery, PreparedQuery};

use super::{
    accuracy_sample, finish_trace, repeat_setup, set_end_to_end, timed, Ctx, Engine, Expected,
    BUDGET, ROW_CAP,
};
use crate::inputs::{self, Digest};
use crate::probes;
use crate::report::Report;
use crate::staged;
use crate::stats;
use crate::trace::names::{PREPARED_PLAN, REQUEST};
use crate::trace::{Tracer, ROOT};

/// One prepared query and what it answered at set-up.
struct Entry {
    prepared: PreparedQuery<'static>,
    expected: Expected,
    eta: f64,
}

/// One engine with the pool prepared against it.
struct Side {
    engine: Engine,
    entries: Vec<Entry>,
    /// Positions in the pool handed to [`Side::prepare`] of the queries that
    /// were kept, ascending; `entries` is parallel to it.
    kept: Vec<usize>,
}

impl Side {
    /// Prepares the queries of `pool` that are within the row cap against
    /// `engine`; planning and answering each once fills the plan cache.
    fn prepare(engine: Engine, pool: &[BeasQuery]) -> Result<Side, String> {
        let (mut entries, mut kept) = (Vec::new(), Vec::new());
        for (i, query) in pool.iter().enumerate() {
            let prepared = engine
                .beas
                .prepare_shared(query)
                .map_err(|e| format!("prepare failed: {e}"))?;
            let plan = prepared
                .plan(BUDGET)
                .map_err(|e| format!("plan failed: {e}"))?;
            if let Some(answer) = staged::answer_if_cheap(&engine.beas, &plan, ROW_CAP)? {
                entries.push(Entry {
                    prepared,
                    expected: Expected::of(&answer),
                    eta: answer.eta,
                });
                kept.push(i);
            }
        }
        Ok(Side {
            engine,
            entries,
            kept,
        })
    }

    /// The prepared queries, in order.
    fn pool(&self) -> Vec<BeasQuery> {
        self.entries
            .iter()
            .map(|e| e.prepared.query().clone())
            .collect()
    }

    /// One timed pass over the pool: every query answered once and checked.
    /// Returns the seconds the answers took.
    fn pass(&self, latencies_ms: &mut Vec<f64>, report: &mut Report) -> f64 {
        let mut busy = 0.0;
        for entry in &self.entries {
            let start = Instant::now();
            let answer = entry.prepared.answer(BUDGET);
            let s = start.elapsed().as_secs_f64();
            busy += s;
            latencies_ms.push(s * 1e3);
            entry.expected.check_result(answer, report);
        }
        busy
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let candidates = inputs::query_pool(ctx.size(400, 3), ctx.seed);
    // The plan cache holds the whole pool: one budget per query, and the
    // default capacity of 256 would evict on every pass.
    let build = |scale| Engine::build_with(scale, |b| b.plan_cache_capacity(candidates.len()));
    // The offline builds are repeated and their median taken; planning the
    // pool — two thousand cold plans — is done once and added.
    let ((big, small), build_s) = repeat_setup(ctx, || {
        Ok((build(ctx.size(100, 2))?, build(ctx.size(10, 1))?))
    })?;
    let (sides, prepare_s) = timed(|| -> Result<(Side, Side), String> {
        // a query over the row cap on either side is left out on both
        let mut small = Side::prepare(small, &candidates)?;
        let big = Side::prepare(big, &small.pool())?;
        let mut position = 0;
        small.entries.retain(|_| {
            position += 1;
            big.kept.binary_search(&(position - 1)).is_ok()
        });
        Ok((big, small))
    });
    let (big, small) = sides?;
    let setup_s = build_s + prepare_s;
    let pool = big.pool();
    let big_db = big.engine.beas.database();
    let mut digest = Digest::default();
    digest.database(&big_db);
    digest.database(&small.engine.beas.database());
    digest.queries(&pool, &big_db);
    report.input_digest = digest.value();
    report.note("queries", pool.len());
    report.note("tuples_large", big_db.total_tuples());
    report.note("tuples_small", small.engine.beas.database().total_tuples());

    let etas: Vec<f64> = big.entries.iter().map(|e| e.eta).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    if ctx.trace {
        traced(ctx, report, &pool, &big, &small, deadline)?;
    } else {
        let (mut big_ms, mut small_ms) = (Vec::new(), Vec::new());
        let mut busy_s = 0.0;
        while Instant::now() < deadline {
            busy_s += big.pass(&mut big_ms, report);
            small.pass(&mut small_ms, report);
        }
        set_end_to_end(
            report,
            setup_s,
            &big_ms,
            big_ms.len() as f64 / busy_s,
            stats::mean(&etas),
        );
        let flatness = stats::summarize(&big_ms).p50 / stats::summarize(&small_ms).p50;
        report.note("scale_flatness", format!("{flatness:.4}"));
    }

    // accuracy against exact answers, outside the timed region
    for i in accuracy_sample(ctx, &pool, &etas) {
        match big.entries[i].prepared.answer(BUDGET) {
            Ok(answer) => report.check_eta(&big_db, &pool[i], &answer),
            Err(e) => report.op(Err(format!("answer failed: {e}"))),
        }
    }
    Ok(())
}

/// The traced run: alternates one-call passes with passes that drive
/// `PreparedQuery::plan` and the executor's phases under spans, then runs
/// the layer probes on the large engine.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    pool: &[BeasQuery],
    big: &Side,
    small: &Side,
    deadline: Instant,
) -> Result<(), String> {
    let tracer = Tracer::default();
    let (mut one_call_ms, mut staged_ms, mut small_ms) = (Vec::new(), Vec::new(), Vec::new());
    let stats_before = big.engine.beas.stats();
    let mut request = 0u64;
    let mut accessed = 0usize;
    while Instant::now() < deadline {
        big.pass(&mut one_call_ms, report);
        for entry in &big.entries {
            let start = Instant::now();
            let answer = tracer.span(request, ROOT, REQUEST, |root| {
                let plan = tracer
                    .span(request, root, PREPARED_PLAN, |_| {
                        entry.prepared.plan(BUDGET)
                    })
                    .map_err(|e| format!("plan failed: {e}"))?;
                staged::execute(&tracer, request, root, &big.engine.beas, &plan)
            });
            staged_ms.push(start.elapsed().as_secs_f64() * 1e3);
            request += 1;
            if let Some(answer) = entry.expected.check_result(answer, report) {
                accessed += answer.accessed;
            }
        }
        small.pass(&mut small_ms, report);
    }
    let stats_after = big.engine.beas.stats();
    let folded = finish_trace(ctx, "bounded_inproc", &tracer)?;

    let hits = stats_after.plan_cache_hits - stats_before.plan_cache_hits;
    let misses = stats_after.plan_cache_misses - stats_before.plan_cache_misses;
    report.set(
        "core.prepared.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "scale_flatness",
        stats::summarize(&one_call_ms).p50 / stats::summarize(&small_ms).p50,
    );
    probes::set_fold(report, &folded, &one_call_ms, &staged_ms);
    probes::set_executor(report, &folded, accessed as f64 / request.max(1) as f64);
    probes::set_engine_self(report, &folded, &one_call_ms);
    probes::in_process_layers(ctx, report, &big.engine, pool)?;
    // the contrast to scale_flatness: the same exact evaluations on the
    // small side
    let sample: Vec<&BeasQuery> = pool.iter().collect();
    let on_large = report
        .get("relal.eval.full_eval_ms_per_query")
        .unwrap_or(0.0);
    let on_small = probes::full_eval_ms(&small.engine.beas, &sample)?;
    report.set("relal.eval.full_eval_growth", on_large / on_small);
    Ok(())
}
