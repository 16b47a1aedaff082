//! `serve_http`: an open loop against an in-process `beas_serve::serve`
//! over keep-alive loopback connections, `POST /query` at fixed arrival
//! rates. Exercises `serve::{http, json, wire, admission, server}` on top of
//! a warm engine; it is where independent users show up, so queueing must
//! not be hidden. Read-only, so it is the control for `update_restart`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_core::{BeasQuery, ResourceSpec, ServeHandle};
use beas_serve::wire::{answer_to_json, query_from_json, query_to_json, spec_from_json, WireError};
use beas_serve::{
    parse_json, query_body, serve, Client, RunningServer, ServeConfig, TenantPolicy, TenantRegistry,
};

use super::{
    accuracy_sample, cheap_answer, eta_census, finish_trace, repeat_setup, set_end_to_end, timed,
    Ctx, Engine,
};
use crate::inputs::{self, Digest};
use crate::loadgen::{self, body_hash, Sample, Step};
use crate::probes::{self, per_call_s};
use crate::report::Report;
use crate::staged;
use crate::stats;
use crate::trace::names::{
    JSON_PARSE, JSON_SERIALIZE, PLANNER_PLAN, REQUEST, WIRE_DECODE, WIRE_ENCODE,
};
use crate::trace::{Tracer, ROOT};

/// Arrival rates of the three steps, requests per second.
const RATES: [f64; 3] = [200.0, 400.0, 800.0];

/// The step whose latencies are the workload's `answer_*_ms`: the lowest
/// rate. A queue multiplies whatever slows the server, and on a shared box
/// the server slows by a tenth for minutes at a time; at 400 requests/s
/// that moved the tail by a third between two sets of runs of the same
/// code, at 200 by a tenth. The higher rates still run, are printed, and
/// decide `max_rate_in_slo`.
const REPORTED_STEP: usize = 0;

/// Share of the measuring time each step gets. The reported step gets most
/// of it: its median and tail are end-to-end metrics and need the samples;
/// the other two only have to show whether the server keeps up.
const STEP_SHARES: [f64; 3] = [0.625, 0.1875, 0.1875];

/// Requests sent over the wire before timing starts.
const WARM_UP_REQUESTS: usize = 60;

/// The specs every query is asked under.
const SPECS: [ResourceSpec; 3] = [
    ResourceSpec::Tuples(500),
    ResourceSpec::Tuples(2000),
    ResourceSpec::Ratio(0.05),
];

/// Server worker threads, and connections of the load generator: the
/// cores of the box the sizes were chosen on.
const WORKERS: usize = 2;

/// One request the generator can send.
struct Request {
    /// Position of the query in the pool.
    query: usize,
    spec: ResourceSpec,
    body: String,
    /// Hash of the response the in-process answer encodes to.
    expected: u64,
    eta: f64,
}

struct Setup {
    engine: Engine,
    server: RunningServer,
    pool: Vec<BeasQuery>,
    requests: Vec<Request>,
}

fn setup(ctx: &Ctx, candidates: &[BeasQuery], report: &mut Report) -> Result<Setup, String> {
    let engine = Engine::build(ctx.size(30, 2))?;
    let schema = engine.beas.schema();
    let (mut pool, mut requests) = (Vec::new(), Vec::new());
    for query in candidates {
        let mut answers = Vec::with_capacity(SPECS.len());
        for spec in SPECS {
            match cheap_answer(&engine.beas, query, spec)? {
                Some(answer) => answers.push(answer),
                None => break,
            }
        }
        if answers.len() < SPECS.len() {
            continue; // over the row cap under some spec
        }
        let json = query_to_json(query, schema).map_err(|e| e.to_string())?;
        for (spec, answer) in SPECS.iter().zip(&answers) {
            requests.push(Request {
                query: pool.len(),
                spec: *spec,
                body: query_body(None, *spec, &json),
                expected: body_hash(&answer_to_json(answer).to_string()),
                eta: answer.eta,
            });
        }
        pool.push(query.clone());
    }
    // admission is not what this workload measures: a tenant whose bucket
    // the offered load cannot drain (the default refills 100 000 tuples/s,
    // a tenth of what 800 requests/s ask for)
    let unmetered = TenantPolicy::with_rate(1e12, 1e12);
    let server = serve(
        ServeHandle::new(Arc::clone(&engine.beas)),
        ServeConfig::default()
            .workers(WORKERS)
            .tenant("bench", unmetered)
            .default_tenant("bench"),
    )
    .map_err(|e| format!("cannot start the server: {e}"))?;
    // the first requests over the wire, checked like all others
    let mut client = Client::connect(server.addr(), Duration::from_secs(10))
        .map_err(|e| format!("cannot connect: {e}"))?;
    for request in requests.iter().take(WARM_UP_REQUESTS) {
        let response = client
            .post("/query", &request.body)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        report.op(check(request, response.status, body_hash(&response.body)));
    }
    Ok(Setup {
        engine,
        server,
        pool,
        requests,
    })
}

/// A response is correct when it is a 200 whose body is byte for byte the
/// encoding of the in-process answer.
fn check(request: &Request, status: u16, response_hash: u64) -> Result<(), String> {
    if status != 200 {
        return Err(format!("HTTP status {status} (0 = transport error)"));
    }
    if response_hash != request.expected {
        return Err(format!(
            "response to query {} at {} differs from the in-process answer",
            request.query, request.spec
        ));
    }
    Ok(())
}

/// The open loop: one step per rate. Returns the analysed steps and all
/// samples of the reported step.
fn open_loop(
    ctx: &Ctx,
    report: &mut Report,
    setup: &Setup,
    digest: &mut Digest,
) -> Result<(Vec<Step>, Vec<Sample>, f64), String> {
    let bodies: Vec<String> = setup.requests.iter().map(|r| r.body.clone()).collect();
    let mut steps = Vec::new();
    let mut reported = Vec::new();
    let (mut completed, mut elapsed_s) = (0usize, 0.0);
    for (k, rate) in RATES.iter().enumerate() {
        let step_s = ctx.seconds * STEP_SHARES[k];
        let arrivals =
            loadgen::schedule(*rate, step_s, bodies.len(), &mut ctx.rng(0x10ad + k as u64));
        for a in &arrivals {
            digest.f64(a.due_s);
            digest.u64(a.body as u64);
        }
        let (samples, wall_s) =
            timed(|| loadgen::drive(setup.server.addr(), "/query", WORKERS, &arrivals, &bodies));
        let samples = samples?;
        elapsed_s += wall_s;
        for s in &samples {
            report.op(check(&setup.requests[s.body], s.status, s.response_hash));
        }
        completed += samples.iter().filter(|s| s.status == 200).count();
        let step = Step::of(*rate, step_s, &samples);
        if !step.valid() {
            report.note(
                &format!("invalid_step_{rate}"),
                format!("generator late by {:.3} ms at p99", step.late_p99_ms),
            );
        }
        report.note(
            &format!("rate_{rate}"),
            format!(
                "n {} p50 {:.3} ms tail(p{:.1}) {:.3} ms late_p99 {:.3} ms backlog {}→{} failed {}",
                step.latency.n,
                step.latency.p50,
                step.latency.tail.percentile,
                step.latency.tail.value,
                step.late_p99_ms,
                step.backlog_early,
                step.backlog_end,
                step.failed
            ),
        );
        if k == REPORTED_STEP {
            reported = samples;
        }
        steps.push(step);
    }
    let per_s = completed as f64 / elapsed_s;
    Ok((steps, reported, per_s))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let candidates = inputs::query_pool(ctx.size(120, 2), ctx.seed);
    let (setup, setup_s) = repeat_setup(ctx, || setup(ctx, &candidates, report))?;
    let db = setup.engine.beas.database();
    let mut digest = Digest::default();
    digest.database(&db);
    digest.queries(&setup.pool, &db);
    report.note("queries", setup.pool.len());
    report.note("requests", setup.requests.len());
    report.note("tuples", db.total_tuples());

    let (steps, reported, per_s) = open_loop(ctx, report, &setup, &mut digest)?;
    report.input_digest = digest.value();
    let max_rate_in_slo = steps
        .iter()
        .filter(|s| s.in_slo())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    report.note("max_rate_in_slo", max_rate_in_slo);
    if ctx.trace {
        report.set("max_rate_in_slo", max_rate_in_slo);
        report.set(
            "bench.loadgen.late_p99_ms",
            steps.iter().map(|s| s.late_p99_ms).fold(0.0, f64::max),
        );
        let (sent, refused) = steps
            .iter()
            .fold((0, 0), |(n, f), s| (n + s.latency.n, f + s.failed));
        report.set(
            "serve.admission.rejected_share",
            refused as f64 / sent.max(1) as f64,
        );
        traced(ctx, report, &setup)?;
    } else {
        let latencies: Vec<f64> = reported.iter().map(Sample::latency_ms).collect();
        let eta_mean = eta_census(ctx, &setup.engine.beas, SPECS[1])?;
        set_end_to_end(report, setup_s, &latencies, per_s, eta_mean);
    }

    // accuracy against exact answers at the middle spec, outside the timing
    let spec = SPECS[1];
    let etas: Vec<f64> = setup
        .requests
        .iter()
        .filter(|r| r.spec == spec)
        .map(|r| r.eta)
        .collect();
    for i in accuracy_sample(ctx, &setup.pool, &etas) {
        match setup.engine.beas.answer(&setup.pool[i], spec) {
            Ok(answer) => report.check_eta(&db, &setup.pool[i], &answer),
            Err(e) => report.op(Err(format!("answer failed: {e}"))),
        }
    }
    setup.server.shutdown();
    Ok(())
}

/// The traced run, after the open loop: every request once through the
/// server's pipeline driven in process stage by stage, once over HTTP on a
/// single connection; then the probes of the serving layer.
fn traced(ctx: &Ctx, report: &mut Report, setup: &Setup) -> Result<(), String> {
    let engine = &setup.engine.beas;
    let schema = engine.schema();
    let tracer = Tracer::default();
    let mut client = Client::connect(setup.server.addr(), Duration::from_secs(10))
        .map_err(|e| format!("cannot connect: {e}"))?;
    let (mut staged_ms, mut http_ms) = (Vec::new(), Vec::new());
    let mut accessed = 0usize;
    for (request, r) in setup.requests.iter().enumerate() {
        let request = request as u64;
        let mut in_process = |report: &mut Report| {
            let start = Instant::now();
            let body = tracer.span(request, ROOT, REQUEST, |root| -> Result<String, String> {
                let json = tracer
                    .span(request, root, JSON_PARSE, |_| parse_json(&r.body))
                    .map_err(|e| e.to_string())?;
                let (spec, query) = tracer
                    .span(request, root, WIRE_DECODE, |_| {
                        let spec = spec_from_json(&json)?;
                        let query = json
                            .get("query")
                            .ok_or_else(|| WireError("request without a query".to_string()))?;
                        Ok::<_, WireError>((spec, query_from_json(query, schema)?))
                    })
                    .map_err(|e| e.to_string())?;
                let plan = tracer
                    .span(request, root, PLANNER_PLAN, |_| engine.plan(&query, spec))
                    .map_err(|e| e.to_string())?;
                let answer = staged::execute(&tracer, request, root, engine, &plan)?;
                accessed += answer.accessed;
                let encoded = tracer.span(request, root, WIRE_ENCODE, |_| answer_to_json(&answer));
                Ok(tracer.span(request, root, JSON_SERIALIZE, |_| encoded.to_string()))
            });
            staged_ms.push(start.elapsed().as_secs_f64() * 1e3);
            report.op(body.and_then(|body| check(r, 200, body_hash(&body))));
        };
        let mut over_http = |report: &mut Report| {
            let start = Instant::now();
            let response = client.post("/query", &r.body);
            http_ms.push(start.elapsed().as_secs_f64() * 1e3);
            report.op(match response {
                Ok(response) => check(r, response.status, body_hash(&response.body)),
                Err(e) => Err(format!("request failed: {e}")),
            });
        };
        // whichever runs second finds the query's data in cache: take turns
        if request.is_multiple_of(2) {
            in_process(report);
            over_http(report);
        } else {
            over_http(report);
            in_process(report);
        }
    }

    let folded = finish_trace(ctx, "serve_http", &tracer)?;
    probes::set_fold(report, &folded, &http_ms, &staged_ms);
    probes::set_executor(
        report,
        &folded,
        accessed as f64 / setup.requests.len().max(1) as f64,
    );
    // what the server adds to the pipeline it runs: HTTP framing, the
    // socket, admission, the hand-over to a worker
    report.set(
        "serve.server.overhead_us",
        (stats::summarize(&http_ms).p50 - stats::summarize(&staged_ms).p50) * 1e3,
    );

    let budget = Duration::from_millis(ctx.size(200, 5) as u64);
    let mut failed = None;
    let healthz_s = per_call_s(budget, || match client.get("/healthz") {
        Ok(response) if response.status == 200 => {}
        Ok(response) => failed = Some(format!("/healthz answered {}", response.status)),
        Err(e) => failed = Some(format!("/healthz failed: {e}")),
    });
    report.set("serve.http.healthz_roundtrip_us", healthz_s * 1e6);
    let mut registry = TenantRegistry::new();
    registry.register("probe", TenantPolicy::with_rate(1e12, 1e12));
    let tenant = registry
        .resolve(Some("probe"))
        .ok_or("tenant not registered")?;
    let admit_s = per_call_s(budget, || {
        if tenant.admit(2000.0).is_err() {
            failed = Some("an unmetered tenant refused a request".to_string());
        }
    });
    report.set("serve.admission.admit_ns", admit_s * 1e9);
    if let Some(e) = failed {
        report.op(Err(e));
    }
    probes::in_process_layers(ctx, report, &setup.engine, &setup.pool)
}
