//! `update_restart`: durable 10-row update batches beside reads, and a
//! drop-and-reopen every ten batches. Writes go through the same
//! `core::engine` snapshot and `access::catalog` that `bounded_inproc` only
//! reads, plus `store::{wal, codec, segment}`; after a reopen, index levels
//! above `resident_level_tuples` page in on first use, which is the "larger
//! than the program's own cache" case. Durability is checked, not assumed:
//! after every reopen each query must answer exactly like an engine that
//! applied the same batches and never restarted.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_core::{Beas, BeasQuery, Store, StoreOptions, UpdateBatch};

use super::{
    accuracy_sample, cheap_answer, eta_census, finish_trace, repeat_setup, set_end_to_end, timed,
    Ctx, Engine, Expected, BUDGET,
};
use crate::inputs::{self, Digest};
use crate::probes;
use crate::report::Report;
use crate::stats;
use crate::trace::names::{
    CATALOG_INSERT, DB_INSERT, REQUEST, SNAPSHOT_LOAD, STORE_OPEN, WAL_APPEND,
};
use crate::trace::{Tracer, ROOT};

/// Update batches between two restarts.
const ROUNDS_PER_CYCLE: usize = 10;

/// Answers after every update batch.
const ANSWERS_PER_ROUND: usize = 20;

/// Batches generated (and digested) up front; a run uses a prefix.
const BATCHES: usize = 512;

/// Queries answered and compared with the reference after every reopen:
/// the first of the pool.
const VERIFIED_AFTER_REOPEN: usize = 100;

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the loop measured.
#[derive(Default)]
struct Measured {
    answer_ms: Vec<f64>,
    update_ms: Vec<f64>,
    staged_update_ms: Vec<f64>,
    reopen_s: Vec<f64>,
    first_answer_ms: Vec<f64>,
    replayed: Vec<f64>,
    page_ins: Vec<f64>,
    wal_bytes_per_row: Vec<f64>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut attempt = 0;
    let ((engine, dir), setup_s) = repeat_setup(ctx, || {
        attempt += 1;
        let dir: PathBuf = ctx.scratch.join(format!("store-{attempt}"));
        let engine = Engine::build_with(ctx.size(30, 2), |b| b.persist_to(&dir))?;
        Ok((engine, dir))
    })?;
    let scale = engine.scale;
    // the reference that never restarts: a non-durable handle over the same
    // snapshot, fed the same batches
    let twin = Arc::new(Beas::clone(&engine.beas));
    // Every update bumps the catalog version and with it empties the plan
    // cache, so the answers of a round plan from scratch whatever they ask:
    // the rounds draw on a pool large enough never to repeat a query.
    let mut pool = Vec::new();
    for query in inputs::query_pool(ctx.size(300, 4), ctx.seed) {
        if cheap_answer(&twin, &query, BUDGET)?.is_some() {
            pool.push(query);
        }
    }
    let verified = pool.len().min(ctx.size(VERIFIED_AFTER_REOPEN, 5));

    let mut rng = ctx.rng(0xba7c);
    let batches: Vec<UpdateBatch> = (0..BATCHES)
        .map(|_| inputs::lineitem_batch(scale, &mut rng))
        .collect();
    let db = engine.beas.database();
    let mut digest = Digest::default();
    digest.database(&db);
    digest.queries(&pool, &db);
    batches.iter().for_each(|b| digest.batch(b));
    report.input_digest = digest.value();
    report.note("queries", pool.len());
    report.note("tuples", db.total_tuples());
    drop(db);

    // η over the data as built; the batches only add rows
    let eta_mean = if ctx.trace {
        0.0
    } else {
        eta_census(ctx, &Beas::clone(&engine.beas), BUDGET)?
    };
    let tracer = Tracer::default();
    // the WAL the traced run appends to stage by stage: a store of its own
    // with the same options, so the durable engine's log is left alone
    let probe_store = if ctx.trace {
        Some(snapshot_probe(ctx, report, &engine)?)
    } else {
        None
    };

    let mut m = Measured::default();
    // the only handle on the durable engine, so that dropping it closes the
    // store before the next open
    let Engine {
        beas: mut durable,
        build_s,
        ..
    } = engine;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    // the rounds start after the queries every reopen verifies
    let (mut next_batch, mut next_query, mut request) = (0usize, verified, 0u64);
    let mut busy_s = 0.0;
    loop {
        for _ in 0..ROUNDS_PER_CYCLE {
            if Instant::now() >= deadline || next_batch == batches.len() {
                break;
            }
            let batch = &batches[next_batch];
            next_batch += 1;
            if let Some(store) = &probe_store {
                let (staged, s) = timed(|| staged_update(&tracer, request, &durable, store, batch));
                request += 1;
                m.staged_update_ms.push(s * 1e3);
                report.op(staged);
            }
            let wal_before = durable.stats().wal_bytes;
            let (applied, s) = timed(|| durable.apply_update(batch));
            busy_s += s;
            m.update_ms.push(s * 1e3);
            report.op(applied
                .map(|_| ())
                .map_err(|e| format!("update failed: {e}")));
            m.wal_bytes_per_row
                .push((durable.stats().wal_bytes - wal_before) as f64 / batch.len() as f64);
            twin.apply_update(batch)
                .map_err(|e| format!("reference update failed: {e}"))?;
            for k in 0..ANSWERS_PER_ROUND {
                let query = &pool[next_query % pool.len()];
                next_query += 1;
                let prepared = durable
                    .prepare_shared(query)
                    .map_err(|e| format!("prepare failed: {e}"))?;
                let (answer, s) = timed(|| prepared.answer(BUDGET));
                busy_s += s;
                m.answer_ms.push(s * 1e3);
                // one comparison per round keeps the reference from
                // doubling the run; the other answers are held to the budget
                match answer {
                    Err(e) => report.op(Err(format!("answer failed: {e}"))),
                    Ok(answer) if k == 0 => {
                        if let Some(expected) = reference(&twin, query, report) {
                            expected.check_result(Ok::<_, String>(answer), report);
                        }
                    }
                    Ok(answer) => {
                        report.op(Ok(()));
                        report.check_budget(&answer);
                    }
                }
            }
        }

        // restart: nothing below reuses the in-memory engine
        drop(durable);
        if ctx.trace {
            report.op(staged_open(&tracer, request, &dir));
            request += 1;
            if m.reopen_s.is_empty() {
                report.set(
                    "store.segment.snapshot_load_mb_per_s",
                    eager_load_mb_per_s(&dir)?,
                );
            }
        }
        let start = Instant::now();
        let reopened = Beas::open(&dir).map_err(|e| format!("reopen failed: {e}"))?;
        durable = Arc::new(reopened);
        let open_s = start.elapsed().as_secs_f64();
        let first = durable.answer(&pool[0], BUDGET);
        let reopen_s = start.elapsed().as_secs_f64();
        m.first_answer_ms.push((reopen_s - open_s) * 1e3);
        busy_s += reopen_s;
        m.reopen_s.push(reopen_s);
        report.op(first
            .map(|_| ())
            .map_err(|e| format!("first answer after reopen failed: {e}")));
        m.replayed.push(durable.stats().replayed_batches as f64);
        for query in &pool[..verified] {
            let prepared = durable
                .prepare_shared(query)
                .map_err(|e| format!("prepare failed: {e}"))?;
            let (answer, s) = timed(|| prepared.answer(BUDGET));
            busy_s += s;
            m.answer_ms.push(s * 1e3);
            if let Some(expected) = reference(&twin, query, report) {
                expected.check_result(answer, report);
            }
        }
        m.page_ins.push(durable.stats().page_ins as f64);
        if Instant::now() >= deadline || next_batch == batches.len() {
            break;
        }
    }
    report.note("updates", m.update_ms.len());
    report.note("reopens", m.reopen_s.len());
    report.note(
        "update_p50_ms",
        format!("{:.3}", stats::median(&m.update_ms)),
    );
    report.note("reopen_s", format!("{:.3}", stats::median(&m.reopen_s)));

    if ctx.trace {
        let folded = finish_trace(ctx, "update_restart", &tracer)?;
        probes::set_fold(report, &folded, &m.update_ms, &m.staged_update_ms);
        report.set("update_p50_ms", stats::median(&m.update_ms));
        report.set("reopen_s", stats::median(&m.reopen_s));
        report.set(
            "store.wal.bytes_per_row",
            stats::median(&m.wal_bytes_per_row),
        );
        report.set("store.replayed_batches", stats::mean(&m.replayed));
        report.set("store.page_ins_per_reopen", stats::mean(&m.page_ins));
        report.set(
            "store.first_answer_ms_after_open",
            stats::median(&m.first_answer_ms),
        );
        report.set(
            "store.wal.append_us_per_batch",
            folded
                .by_name
                .get(WAL_APPEND)
                .map_or(0.0, |t| t.total_ns as f64 / t.spans.max(1) as f64 / 1e3),
        );
        let current = Engine {
            beas: Arc::clone(&durable),
            scale,
            build_s,
        };
        probes::in_process_layers(ctx, report, &current, &pool)?;
    } else {
        set_end_to_end(
            report,
            setup_s,
            &m.answer_ms,
            m.answer_ms.len() as f64 / busy_s,
            eta_mean,
        );
    }

    // accuracy against exact answers over the final data
    let db = durable.database();
    let checked = &pool[..verified];
    let answers: Vec<_> = checked
        .iter()
        .map(|q| durable.answer(q, BUDGET).ok())
        .collect();
    let etas: Vec<f64> = answers
        .iter()
        .map(|a| a.as_ref().map_or(0.0, |a| a.eta))
        .collect();
    for i in accuracy_sample(ctx, checked, &etas) {
        if let Some(answer) = &answers[i] {
            report.check_eta(&db, &checked[i], answer);
        }
    }
    Ok(())
}

/// What the never-restarted engine answers to `query`; a failure there is
/// counted and yields `None`.
fn reference(twin: &Beas, query: &BeasQuery, report: &mut Report) -> Option<Expected> {
    match twin.answer(query, BUDGET) {
        Ok(answer) => Some(Expected::of(&answer)),
        Err(e) => {
            report.op(Err(format!("reference answer failed: {e}")));
            None
        }
    }
}

/// Writes one snapshot of the engine's state into a probe store (timed:
/// `store.segment.*`), which then serves as the WAL the staged updates
/// append to.
fn snapshot_probe(ctx: &Ctx, report: &mut Report, engine: &Engine) -> Result<Store, String> {
    let dir = ctx.scratch.join("probe-store");
    let store = Store::create(&dir, StoreOptions::default()).map_err(|e| e.to_string())?;
    let snapshot = engine.beas.snapshot();
    let (written, s) = timed(|| store.write_snapshot(snapshot.database(), snapshot.catalog()));
    written.map_err(|e| format!("snapshot write failed: {e}"))?;
    let bytes = dir_bytes(&dir) as f64;
    report.set("store.segment.snapshot_write_mb_per_s", bytes / 1e6 / s);
    report.set(
        "store.segment.bytes_per_data_tuple",
        bytes / snapshot.database().total_tuples().max(1) as f64,
    );
    Ok(store)
}

/// One update driven stage by stage on private copies, the way
/// `apply_update` runs it inside one call: index maintenance, row insert,
/// WAL append.
fn staged_update(
    tracer: &Tracer,
    request: u64,
    engine: &Beas,
    wal: &Store,
    batch: &UpdateBatch,
) -> Result<(), String> {
    let snapshot = engine.snapshot();
    tracer.span(request, ROOT, REQUEST, |root| {
        tracer
            .span(request, root, CATALOG_INSERT, |_| {
                let mut catalog = (**snapshot.catalog()).clone();
                catalog.insert_rows(batch.inserts())
            })
            .map_err(|e| format!("staged index maintenance failed: {e}"))?;
        tracer
            .span(request, root, DB_INSERT, |_| {
                let mut db = (**snapshot.database()).clone();
                batch
                    .inserts()
                    .iter()
                    .try_for_each(|(relation, row)| db.insert_row(relation, row.clone()))
            })
            .map_err(|e| format!("staged row insert failed: {e}"))?;
        tracer
            .span(request, root, WAL_APPEND, |_| {
                wal.append_batch(batch.inserts())
            })
            .map_err(|e| format!("staged WAL append failed: {e}"))
    })
}

/// The store's half of a reopen, stage by stage: manifest + WAL scan, then
/// decode of the resident segments. The store is dropped again before the
/// engine reopens it.
fn staged_open(tracer: &Tracer, request: u64, dir: &Path) -> Result<(), String> {
    tracer.span(request, ROOT, REQUEST, |root| {
        let store = tracer
            .span(request, root, STORE_OPEN, |_| {
                Store::open(dir, StoreOptions::default())
            })
            .map_err(|e| format!("staged store open failed: {e}"))?;
        tracer
            .span(request, root, SNAPSHOT_LOAD, |_| store.load_snapshot())
            .map(|_| ())
            .map_err(|e| format!("staged snapshot load failed: {e}"))
    })
}

/// Decode throughput of the segment codec: the whole store loaded eagerly
/// (`resident_level_tuples` at its maximum — by default most levels stay on
/// disk until a plan fetches from them), bytes on disk per second.
fn eager_load_mb_per_s(dir: &Path) -> Result<f64, String> {
    let eager = StoreOptions {
        resident_level_tuples: usize::MAX,
        ..StoreOptions::default()
    };
    let store = Store::open(dir, eager).map_err(|e| format!("eager open failed: {e}"))?;
    let (loaded, s) = timed(|| store.load_snapshot());
    loaded.map_err(|e| format!("eager load failed: {e}"))?;
    Ok(dir_bytes(dir) as f64 / 1e6 / s)
}
