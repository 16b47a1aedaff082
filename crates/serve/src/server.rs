//! The serving front-end: a `TcpListener` worker pool speaking the JSON wire
//! protocol over HTTP/1.1 keep-alive connections, with per-tenant
//! budget-aware admission control in front of the engine. Each worker accepts
//! a connection and serves it through `http::serve_connection`, so
//! [`ServeConfig::workers`] bounds the connections served at once.
//!
//! # Endpoints
//!
//! | Route                        | Effect                                              |
//! |------------------------------|-----------------------------------------------------|
//! | `POST /query`                | plan + execute one query under a spec or accuracy target |
//! | `POST /query/stream`         | anytime answers: one chunked frame per refinement step |
//! | `POST /prepare`              | register a prepared query, returns `{"id": n}`      |
//! | `POST /prepared/{id}/answer` | answer through the shared plan cache                |
//! | `POST /update`               | apply a batched update (component C2)               |
//! | `GET /metrics`               | per-tenant admission metrics + engine stats         |
//! | `GET /healthz`               | liveness                                            |
//! | `GET /schema`                | the database schema (relations, attributes, types)  |
//!
//! Every `POST` names a tenant (body field `"tenant"`, falling back to the
//! configured default); the tenant's token bucket is charged the *resolved
//! tuple budget* of the request — the same number the planner enforces — and
//! over-budget tenants get `429` with a `Retry-After` instead of queueing
//! unboundedly in front of the engine. A request whose cost exceeds the
//! tenant's burst capacity outright can never be admitted and gets a
//! non-retryable `400` instead.
//!
//! `POST /query/stream` answers through a [progressive refinement
//! session](beas_core::AnswerSession): the response is
//! `Transfer-Encoding: chunked`, one newline-terminated JSON frame per step
//! of the schedule (each carrying η, the cumulative budget spent and the
//! step's answer digest), and the *final* frame is bit-for-bit the answer a
//! one-shot `POST /query` at the same spec returns. Admission charges the
//! schedule's **total** budget up front; if the client disconnects before
//! the schedule finishes, the unconsumed steps are refunded to the tenant's
//! bucket. Its non-streamed twin is bounded the other way: a `/query` (or
//! `/prepared/{id}/answer`) response larger than
//! [`ServeConfig::max_response_bytes`] gets `413` with a hint to use the
//! stream.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use beas_access::ResourceSpec;
use beas_core::{PreparedQuery, ServeHandle, UpdateBatch};
use beas_relal::ValueType;

use crate::admission::{Rejection, Tenant, TenantPolicy, TenantRegistry};
use crate::http::{
    error_body, finish_chunked, serve_connection, write_chunk, write_chunked_head, write_response,
    Connections, Request,
};
use crate::json::{parse, Json};
use crate::metrics::TenantMetrics;
use crate::wire;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is on
    /// [`RunningServer::addr`]).
    pub addr: String,
    /// Worker threads; each worker serves one connection at a time, so this
    /// is also the concurrent-connection cap.
    pub workers: usize,
    /// Hard cap on request bodies (bytes); larger declarations get `413`.
    pub max_body_bytes: usize,
    /// The response twin of `max_body_bytes`: a non-streamed query response
    /// (`/query`, `/prepared/{id}/answer`) whose JSON body exceeds this many
    /// bytes gets `413` with a hint to use `POST /query/stream` (chunked
    /// delivery) or a smaller spec instead of materializing the whole body
    /// at once.
    pub max_response_bytes: usize,
    /// Per-connection read timeout (an idle keep-alive connection is closed
    /// after this long).
    pub read_timeout: Duration,
    /// Registered tenants.
    pub tenants: Vec<(String, TenantPolicy)>,
    /// Tenant for requests that name none; `None` makes the tenant field
    /// mandatory (unknown/missing tenants get `403`).
    pub default_tenant: Option<String>,
    /// Cap on concurrently registered prepared queries.
    pub max_prepared: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            max_body_bytes: 1 << 20,
            max_response_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            tenants: Vec::new(),
            default_tenant: None,
            max_prepared: 1024,
        }
    }
}

impl ServeConfig {
    /// Registers a tenant.
    pub fn tenant(mut self, name: impl Into<String>, policy: TenantPolicy) -> Self {
        self.tenants.push((name.into(), policy));
        self
    }

    /// Routes requests without a tenant field to `name`.
    pub fn default_tenant(mut self, name: impl Into<String>) -> Self {
        self.default_tenant = Some(name.into());
        self
    }

    /// Sets the bind address.
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count (min 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the request-body cap.
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Sets the non-streamed response-body cap (see
    /// [`ServeConfig::max_response_bytes`]).
    pub fn max_response_bytes(mut self, bytes: usize) -> Self {
        self.max_response_bytes = bytes;
        self
    }
}

/// Shared state of one running server.
struct ServerState {
    engine: ServeHandle,
    config: ServeConfig,
    tenants: TenantRegistry,
    metrics: HashMap<String, TenantMetrics>,
    /// id → (owner tenant, handle); the owner partitions eviction quotas.
    prepared: RwLock<HashMap<u64, (String, Arc<PreparedQuery<'static>>)>>,
    next_prepared: AtomicU64,
    started: Instant,
}

/// A running server: its bound address plus shutdown control. Dropping the
/// handle shuts the server down.
pub struct RunningServer {
    addr: SocketAddr,
    conns: Arc<Connections>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for RunningServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, ends idle keep-alive connections (a request in
    /// flight is still answered), wakes the workers and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if !self.conns.stop() {
            return;
        }
        // wake every worker blocked in accept()
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts a server over `engine` and returns once the listener is bound.
pub fn serve(engine: ServeHandle, config: ServeConfig) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let mut tenants = TenantRegistry::new();
    let mut metrics = HashMap::new();
    for (name, policy) in &config.tenants {
        tenants.register(name.clone(), *policy);
        metrics.insert(name.clone(), TenantMetrics::default());
    }
    if let Some(default) = &config.default_tenant {
        if tenants.resolve(Some(default)).is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("default tenant `{default}` is not registered"),
            ));
        }
        tenants.set_default(default.clone());
    }

    let state = Arc::new(ServerState {
        engine,
        tenants,
        metrics,
        prepared: RwLock::new(HashMap::new()),
        next_prepared: AtomicU64::new(1),
        started: Instant::now(),
        config: config.clone(),
    });
    let conns = Arc::new(Connections::default());

    // clone all listener handles *before* spawning anything: a partial
    // failure must not leave orphan worker threads behind an Err return
    let listeners = (0..config.workers.max(1))
        .map(|_| listener.try_clone())
        .collect::<std::io::Result<Vec<_>>>()?;
    let workers = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let state = Arc::clone(&state);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("beas-serve-{i}"))
                .spawn(move || worker_loop(listener, &state, &conns))
                .expect("spawn worker")
        })
        .collect::<Vec<_>>();

    Ok(RunningServer {
        addr,
        conns,
        workers,
    })
}

/// One worker: accept → serve the connection's keep-alive request sequence
/// through the shared `serve_connection` loop → accept again, until
/// shutdown.
fn worker_loop(listener: TcpListener, state: &ServerState, conns: &Connections) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if conns.stopping() {
                return;
            }
            // a persistent accept error (e.g. fd exhaustion) must not
            // busy-spin the worker pool; back off briefly so in-flight
            // handlers can release descriptors
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        if conns.stopping() {
            return;
        }
        let config = &state.config;
        let _ = serve_connection(
            stream,
            conns,
            config.max_body_bytes,
            Some(config.read_timeout),
            |request, stream| respond(state, request, stream),
        );
    }
}

/// Answers one request on `stream`.
fn respond(state: &ServerState, request: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let path = request.path.split('?').next().unwrap_or("");
    if request.method == "POST" && path == "/query/stream" {
        // the streamed route writes its chunked frames directly; a write
        // failure means the client disconnected mid-session (the handler
        // has already refunded the unconsumed steps)
        return stream_query(state, request, stream);
    }
    let reply = cap_response(state, path, handle(state, request));
    write_response(
        stream,
        reply.status,
        &reply.body,
        request.keep_alive,
        &reply.headers,
    )
}

/// The response twin of the request-body cap: a successful non-streamed
/// query response larger than [`ServeConfig::max_response_bytes`] becomes
/// `413` with a hint to use the streamed route (which chunks frames instead
/// of materializing one giant body).
fn cap_response(state: &ServerState, path: &str, reply: Reply) -> Reply {
    let is_query_route =
        path == "/query" || (path.starts_with("/prepared/") && path.ends_with("/answer"));
    if reply.status == 200 && is_query_route && reply.body.len() > state.config.max_response_bytes {
        return Reply::error(
            413,
            &format!(
                "response of {} bytes exceeds the {}-byte response limit; \
                 use POST /query/stream for chunked delivery or lower the spec",
                reply.body.len(),
                state.config.max_response_bytes
            ),
        );
    }
    reply
}

/// A handler's reply.
struct Reply {
    status: u16,
    body: String,
    headers: Vec<(&'static str, String)>,
}

impl Reply {
    fn ok(json: Json) -> Reply {
        Reply {
            status: 200,
            body: json.to_string(),
            headers: Vec::new(),
        }
    }

    fn error(status: u16, message: &str) -> Reply {
        Reply {
            status,
            body: error_body(message),
            headers: Vec::new(),
        }
    }
}

/// Routes one request.
fn handle(state: &ServerState, request: &Request) -> Reply {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Reply::ok(Json::obj(vec![
            ("status", Json::Str("ok".into())),
            ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        ])),
        ("GET", "/metrics") => Reply::ok(metrics_json(state)),
        ("GET", "/schema") => Reply::ok(schema_json(state)),
        ("POST", "/query") => with_body(request, |body| query_handler(state, body)),
        ("POST", "/prepare") => with_body(request, |body| prepare_handler(state, body)),
        ("POST", "/update") => with_body(request, |body| update_handler(state, body)),
        ("POST", _) if path.starts_with("/prepared/") => {
            let rest = &path["/prepared/".len()..];
            let Some((id, "answer")) = rest.split_once('/') else {
                return Reply::error(404, &format!("unknown route `{path}`"));
            };
            let Ok(id) = id.parse::<u64>() else {
                return Reply::error(400, &format!("bad prepared-query id `{id}`"));
            };
            with_body(request, |body| prepared_answer_handler(state, id, body))
        }
        ("GET" | "POST", _) => Reply::error(404, &format!("unknown route `{path}`")),
        (method, _) => Reply::error(405, &format!("method `{method}` not allowed")),
    }
}

/// Parses the request body as a JSON object and runs the handler.
fn with_body(request: &Request, f: impl FnOnce(&Json) -> Reply) -> Reply {
    let text = match request.body_str() {
        Ok(text) => text,
        Err(_) => return Reply::error(400, "request body is not valid UTF-8"),
    };
    match parse(text) {
        Ok(body) => f(&body),
        Err(e) => Reply::error(400, &format!("malformed JSON body: {e}")),
    }
}

/// Admission bookkeeping shared by the budgeted handlers: resolves the
/// tenant, charges its bucket `cost` tuples, and runs `f` while holding the
/// in-flight slot. `f` receives the admitted [`Tenant`] (so handlers whose
/// charge was a *prediction* can [`Tenant::settle`] it against the actual
/// spend) and returns its reply plus the tuples actually accessed (for the
/// tenant's metrics).
fn admitted<F: FnOnce(&Tenant) -> (Reply, usize)>(
    state: &ServerState,
    body: &Json,
    cost: f64,
    f: F,
) -> Reply {
    let name = body.get("tenant").and_then(Json::as_str);
    let Some(tenant) = state.tenants.resolve(name) else {
        return match name {
            Some(n) => Reply::error(403, &format!("unknown tenant `{n}`")),
            None => Reply::error(403, "no tenant named and no default tenant configured"),
        };
    };
    let metrics = &state.metrics[&tenant.name];
    match tenant.admit(cost) {
        Err(rejection) => rejection_reply(&tenant.name, metrics, rejection, "request"),
        Ok(guard) => {
            metrics.record_admitted(cost);
            let start = Instant::now();
            let (reply, accessed) = f(tenant);
            drop(guard);
            if reply.status == 200 {
                metrics.record_completed(accessed, start.elapsed());
            } else {
                metrics.record_failed(start.elapsed());
            }
            reply
        }
    }
}

/// Maps an admission [`Rejection`] to its HTTP reply, bumping the tenant's
/// rejection counters — the one place the rejection→status/message/headers
/// mapping lives, shared by the one-shot handlers (`what` = "request") and
/// the streamed route (`what` = "schedule", whose cost is the schedule's
/// total budget).
fn rejection_reply(
    tenant_name: &str,
    metrics: &TenantMetrics,
    rejection: Rejection,
    what: &str,
) -> Reply {
    match rejection {
        Rejection::OverBudget { .. } | Rejection::TooExpensive { .. } => {
            metrics.rejected_budget.fetch_add(1, Ordering::Relaxed);
        }
        Rejection::Busy { .. } => {
            metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
        }
    }
    match rejection {
        // waiting cannot help: the cost exceeds the tenant's burst capacity
        // outright, so no Retry-After is advertised
        Rejection::TooExpensive { cost, burst } => Reply::error(
            400,
            &format!(
                "{what} cost of {cost:.0} budget tuples exceeds tenant                  `{tenant_name}`'s burst capacity of {burst:.0}; lower the                  {what}'s budget or raise the tenant's burst",
            ),
        ),
        Rejection::OverBudget { .. } | Rejection::Busy { .. } => {
            let message = match rejection {
                Rejection::OverBudget { .. } => format!(
                    "tenant `{tenant_name}` is over its tuple budget ({what}                      cost not covered); retry after {}s",
                    rejection.retry_after_secs()
                ),
                _ => format!(
                    "tenant `{tenant_name}` has too many requests in flight;                      retry after {}s",
                    rejection.retry_after_secs()
                ),
            };
            Reply {
                status: 429,
                body: error_body(&message),
                headers: vec![("retry-after", rejection.retry_after_secs().to_string())],
            }
        }
    }
}

/// `POST /query`: `{"tenant": …, "spec": "ratio:0.1", "query": {…}}` — or
/// `"target": "eta:0.95"` instead of `"spec"` for an accuracy-denominated
/// request (see [`targeted_query_handler`]). Exactly one of the two.
fn query_handler(state: &ServerState, body: &Json) -> Reply {
    match wire::target_from_json(body) {
        Ok(Some(target)) => {
            if body.get("spec").is_some() {
                return Reply::error(
                    400,
                    "request: `spec` and `target` are mutually exclusive — a request \
                     is either budget-denominated (`spec`) or accuracy-denominated \
                     (`target`)",
                );
            }
            return targeted_query_handler(state, body, target);
        }
        Ok(None) => {}
        Err(e) => return Reply::error(400, &e.to_string()),
    }
    let spec = match wire::spec_from_json(body) {
        Ok(spec) => spec,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let Some(query_json) = body.get("query") else {
        return Reply::error(400, "request: missing field `query`");
    };
    let engine = state.engine.engine();
    let query = match wire::query_from_json(query_json, engine.schema()) {
        Ok(query) => query,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let cost = match engine.catalog().budget(&spec) {
        Ok(budget) => budget,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    admitted(state, body, cost as f64, |_| {
        match engine.answer(&query, spec) {
            Ok(answer) => (Reply::ok(wire::answer_to_json(&answer)), answer.accessed),
            Err(e) => (Reply::error(400, &e.to_string()), 0),
        }
    })
}

/// The accuracy-denominated half of `POST /query`: admission charges the
/// budget the engine's search settles on
/// ([`Beas::predict_target_cost`](beas_core::Beas::predict_target_cost): the
/// smallest budget whose planned η reaches the target, found from plans
/// alone), and after execution the charge is [settled](Tenant::settle)
/// against the tuples actually spent — refunded when execution fetched less
/// than the budget, surcharged (possibly into debt) when a set difference
/// had to escalate past it.
fn targeted_query_handler(
    state: &ServerState,
    body: &Json,
    target: beas_core::AccuracyTarget,
) -> Reply {
    let Some(query_json) = body.get("query") else {
        return Reply::error(400, "request: missing field `query`");
    };
    let engine = state.engine.engine();
    let query = match wire::query_from_json(query_json, engine.schema()) {
        Ok(query) => query,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let cost = match engine.predict_target_cost(&query, &target) {
        Ok(cost) => cost,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    admitted(state, body, cost as f64, |tenant| {
        match engine.answer_with_target(&query, &target) {
            Ok(targeted) => {
                tenant.settle(cost as f64, targeted.spent as f64);
                let spent = targeted.spent;
                (Reply::ok(wire::targeted_answer_to_json(&targeted)), spent)
            }
            Err(e) => (Reply::error(400, &e.to_string()), 0),
        }
    })
}

/// `POST /query/stream`: anytime answers over chunked transfer encoding.
///
/// Body: `{"tenant": …, "query": {…}, "schedule": ["ratio:0.01", …]}` — or
/// `"spec"` instead of `"schedule"` for the default ladder leading to that
/// spec, or neither for the full default ladder. The response streams one
/// newline-terminated JSON frame per refinement step (see
/// [`wire::step_to_json`]); the final frame is bit-for-bit the one-shot
/// `POST /query` answer at the schedule's last spec.
///
/// Admission charges the schedule's *total* resolved budget up front (a
/// refinement session bills every step's plan, even though reused fragments
/// are fetched only once). If the client disconnects before the schedule
/// finishes, the budgets of the steps that never executed are refunded to
/// the tenant's bucket.
fn stream_query(
    state: &ServerState,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let keep_alive = request.keep_alive;
    // early failures answer as a plain (non-chunked) JSON error
    let fail = |stream: &mut TcpStream,
                status: u16,
                message: &str,
                headers: &[(&str, String)]|
     -> std::io::Result<()> {
        write_response(stream, status, &error_body(message), keep_alive, headers)
    };

    // chunked transfer encoding does not exist in HTTP/1.0 — a 1.0 client
    // would read the chunk-size lines as body bytes (RFC 9112 §7.1.1)
    if request.http1_0 {
        return fail(
            stream,
            400,
            "streamed responses require HTTP/1.1 (chunked transfer encoding); \
             use POST /query for a single-body answer",
            &[],
        );
    }
    let body = match request.body_str() {
        Ok(text) => match parse(text) {
            Ok(body) => body,
            Err(e) => return fail(stream, 400, &format!("malformed JSON body: {e}"), &[]),
        },
        Err(_) => return fail(stream, 400, "request body is not valid UTF-8", &[]),
    };
    let schedule = match wire::schedule_from_json(&body) {
        Ok(schedule) => schedule,
        Err(e) => return fail(stream, 400, &e.to_string(), &[]),
    };
    let Some(query_json) = body.get("query") else {
        return fail(stream, 400, "request: missing field `query`", &[]);
    };
    let engine = state.engine.engine();
    let query = match wire::query_from_json(query_json, engine.schema()) {
        Ok(query) => query,
        Err(e) => return fail(stream, 400, &e.to_string(), &[]),
    };
    // prepare + open the session before admission, so the charge is the
    // session's actual resolved total (equal-budget steps deduplicated)
    let prepared = match engine.prepare(&query) {
        Ok(prepared) => prepared,
        Err(e) => return fail(stream, 400, &e.to_string(), &[]),
    };
    let mut session = match prepared.session(schedule) {
        Ok(session) => session,
        Err(e) => return fail(stream, 400, &e.to_string(), &[]),
    };
    let total = session.total_budget();

    // ---- admission: the schedule's total budget, charged up front
    let name = body.get("tenant").and_then(Json::as_str);
    let Some(tenant) = state.tenants.resolve(name) else {
        return match name {
            Some(n) => fail(stream, 403, &format!("unknown tenant `{n}`"), &[]),
            None => fail(
                stream,
                403,
                "no tenant named and no default tenant configured",
                &[],
            ),
        };
    };
    let metrics = &state.metrics[&tenant.name];
    let guard = match tenant.admit(total as f64) {
        Err(rejection) => {
            let reply = rejection_reply(&tenant.name, metrics, rejection, "schedule");
            return write_response(
                stream,
                reply.status,
                &reply.body,
                keep_alive,
                &reply.headers,
            );
        }
        Ok(guard) => guard,
    };
    metrics.record_admitted(total as f64);
    let start = Instant::now();

    // ---- the frames; every write failure from here on means the client
    // disconnected mid-session, so the unconsumed steps are refunded
    let mut consumed = 0usize; // budgets of the steps that actually executed
    let mut fetched = 0usize; // cumulative tuples the session really fetched
    if let Err(e) = write_chunked_head(stream, 200, keep_alive, &[]) {
        tenant.refund(total.saturating_sub(consumed) as f64);
        metrics.record_failed(start.elapsed());
        drop(guard);
        return Err(e);
    }
    while let Some(result) = session.next_step() {
        match result {
            Ok(step) => {
                consumed += step.budget;
                fetched = step.budget_spent;
                let frame = format!("{}\n", wire::step_to_json(&step));
                if let Err(e) = write_chunk(stream, &frame) {
                    tenant.refund(total.saturating_sub(consumed) as f64);
                    metrics.record_failed(start.elapsed());
                    drop(guard);
                    return Err(e);
                }
            }
            Err(e) => {
                // an engine-side failure mid-stream: emit a terminal error
                // frame (the status line already went out) and stop
                let frame = format!("{}\n", error_body(&e.to_string()));
                let write = write_chunk(stream, &frame).and_then(|()| finish_chunked(stream));
                tenant.refund(total.saturating_sub(consumed) as f64);
                metrics.record_failed(start.elapsed());
                drop(guard);
                return write;
            }
        }
    }
    let finish = finish_chunked(stream);
    metrics.record_completed(fetched, start.elapsed());
    drop(guard);
    finish
}

/// `POST /prepare`: `{"tenant": …, "query": {…}}` → `{"id": n}`.
///
/// Subject to the same tenant resolution and in-flight caps as every other
/// `POST` (zero tuple cost — preparing only validates, it accesses nothing).
/// Registry slots are partitioned **per tenant**: each tenant may hold at
/// most `max_prepared / #tenants` handles, and exceeding the quota evicts
/// that tenant's *own* oldest handle (ids are monotonic) — one tenant can
/// never flush another tenant's prepared queries. Clients of an evicted id
/// get `404` and simply re-prepare, exactly like a plan-cache eviction
/// re-plans.
fn prepare_handler(state: &ServerState, body: &Json) -> Reply {
    // canonical owner name for the quota accounting (admission re-resolves
    // and rejects unknown tenants before the closure runs)
    let owner = state
        .tenants
        .resolve(body.get("tenant").and_then(Json::as_str))
        .map(|t| t.name.clone());
    admitted(state, body, 0.0, |_| {
        let owner = owner.clone().expect("admitted implies a resolved tenant");
        let Some(query_json) = body.get("query") else {
            return (Reply::error(400, "request: missing field `query`"), 0);
        };
        let query = match wire::query_from_json(query_json, state.engine.engine().schema()) {
            Ok(query) => query,
            Err(e) => return (Reply::error(400, &e.to_string()), 0),
        };
        let prepared = match state.engine.prepare(&query) {
            Ok(prepared) => Arc::new(prepared),
            Err(e) => return (Reply::error(400, &e.to_string()), 0),
        };
        let quota = state
            .config
            .max_prepared
            .max(1)
            .div_ceil(state.tenants.len().max(1));
        let mut registry = state.prepared.write().expect("prepared registry poisoned");
        while registry.values().filter(|(t, _)| *t == owner).count() >= quota {
            let Some(oldest) = registry
                .iter()
                .filter(|(_, (t, _))| *t == owner)
                .map(|(&id, _)| id)
                .min()
            else {
                break;
            };
            registry.remove(&oldest);
        }
        let id = state.next_prepared.fetch_add(1, Ordering::Relaxed);
        registry.insert(id, (owner, prepared));
        (Reply::ok(Json::obj(vec![("id", Json::Int(id as i64))])), 0)
    })
}

/// `POST /prepared/{id}/answer`: `{"tenant": …, "spec": "…"}`.
///
/// Prepared handles are tenant-scoped: only the owner that registered the
/// id may answer through it. Other tenants get the same `404` as a
/// non-existent id, so ids (which are sequential) leak nothing about what
/// other tenants have prepared.
fn prepared_answer_handler(state: &ServerState, id: u64, body: &Json) -> Reply {
    if body.get("target").is_some() {
        return Reply::error(
            400,
            "accuracy targets (`target`) are not supported on \
             /prepared/{id}/answer; use POST /query with a `target`, or a \
             budget `spec` here",
        );
    }
    let spec = match wire::spec_from_json(body) {
        Ok(spec) => spec,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let name = body.get("tenant").and_then(Json::as_str);
    let Some(caller) = state.tenants.resolve(name).map(|t| t.name.clone()) else {
        return match name {
            Some(n) => Reply::error(403, &format!("unknown tenant `{n}`")),
            None => Reply::error(403, "no tenant named and no default tenant configured"),
        };
    };
    let prepared = {
        let registry = state.prepared.read().expect("prepared registry poisoned");
        registry
            .get(&id)
            .filter(|(owner, _)| *owner == caller)
            .map(|(_, p)| Arc::clone(p))
    };
    let Some(prepared) = prepared else {
        return Reply::error(404, &format!("unknown prepared-query id {id}"));
    };
    let cost = match state.engine.engine().catalog().budget(&spec) {
        Ok(budget) => budget,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    admitted(state, body, cost as f64, |_| match prepared.answer(spec) {
        Ok(answer) => (Reply::ok(wire::answer_to_json(&answer)), answer.accessed),
        Err(e) => (Reply::error(400, &e.to_string()), 0),
    })
}

/// `POST /update`: `{"tenant": …, "inserts": [{"relation": …, "row": […]}]}`.
fn update_handler(state: &ServerState, body: &Json) -> Reply {
    let batch = match wire::update_from_json(body) {
        Ok(batch) => batch,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let cost = batch.len() as f64;
    admitted(state, body, cost, |_| {
        match state.engine.engine().apply_update(&batch) {
            Ok(applied) => (
                Reply::ok(Json::obj(vec![
                    ("applied", Json::Int(applied as i64)),
                    (
                        "db_size",
                        Json::Int(state.engine.engine().database().total_tuples() as i64),
                    ),
                ])),
                applied,
            ),
            Err(e) => (Reply::error(400, &e.to_string()), 0),
        }
    })
}

/// `GET /metrics`: per-tenant admission metrics plus the engine's request
/// stats.
fn metrics_json(state: &ServerState) -> Json {
    let stats = state.engine.stats();
    let mut tenants = Vec::new();
    for tenant in state.tenants.tenants() {
        let mut fields = match state.metrics[&tenant.name].to_json() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!(),
        };
        fields.push(("tokens".to_string(), Json::Num(tenant.tokens())));
        fields.push(("inflight".to_string(), Json::Int(tenant.inflight() as i64)));
        tenants.push((tenant.name.clone(), Json::Obj(fields)));
    }
    Json::obj(vec![
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        ("tenants", Json::Obj(tenants)),
        (
            "engine",
            Json::obj(vec![
                ("queries", Json::Int(stats.queries as i64)),
                ("tuples_accessed", Json::Int(stats.tuples_accessed as i64)),
                ("updates", Json::Int(stats.updates as i64)),
                ("rows_inserted", Json::Int(stats.rows_inserted as i64)),
                ("plan_cache_hits", Json::Int(stats.plan_cache_hits as i64)),
                (
                    "plan_cache_misses",
                    Json::Int(stats.plan_cache_misses as i64),
                ),
                (
                    "plan_cache_capacity",
                    Json::Int(state.engine.engine().plan_cache_capacity() as i64),
                ),
                (
                    "plan_cache_size",
                    Json::Int(state.engine.engine().plan_cache_len() as i64),
                ),
            ]),
        ),
        (
            "storage",
            Json::obj(vec![
                ("segments_written", Json::Int(stats.segments_written as i64)),
                ("segments_loaded", Json::Int(stats.segments_loaded as i64)),
                ("wal_bytes", Json::Int(stats.wal_bytes as i64)),
                ("replayed_batches", Json::Int(stats.replayed_batches as i64)),
                ("page_ins", Json::Int(stats.page_ins as i64)),
            ]),
        ),
        (
            "prepared_queries",
            Json::Int(
                state
                    .prepared
                    .read()
                    .expect("prepared registry poisoned")
                    .len() as i64,
            ),
        ),
        (
            "db_size",
            Json::Int(state.engine.engine().database().total_tuples() as i64),
        ),
    ])
}

/// `GET /schema`.
fn schema_json(state: &ServerState) -> Json {
    let schema = state.engine.engine().schema();
    let relations: Vec<Json> = schema
        .relations
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::Str(r.name.clone())),
                (
                    "attributes",
                    Json::Arr(
                        r.attributes
                            .iter()
                            .map(|a| {
                                Json::obj(vec![
                                    ("name", Json::Str(a.name.clone())),
                                    (
                                        "type",
                                        Json::Str(
                                            match a.ty {
                                                ValueType::Int => "int",
                                                ValueType::Double => "double",
                                                ValueType::Str => "str",
                                                ValueType::Bool => "bool",
                                            }
                                            .to_string(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("relations", Json::Arr(relations))])
}

/// Convenience: builds the canonical `POST /query` body.
pub fn query_body(tenant: Option<&str>, spec: ResourceSpec, query: &Json) -> String {
    let mut pairs = Vec::new();
    if let Some(tenant) = tenant {
        pairs.push(("tenant", Json::Str(tenant.to_string())));
    }
    pairs.push(("spec", Json::Str(spec.to_string())));
    pairs.push(("query", query.clone()));
    Json::obj(pairs).to_string()
}

/// Convenience: builds the canonical `POST /update` body.
pub fn update_body(tenant: Option<&str>, batch: &UpdateBatch) -> String {
    let inserts: Vec<Json> = batch
        .inserts()
        .iter()
        .map(|(relation, row)| {
            Json::obj(vec![
                ("relation", Json::Str(relation.clone())),
                (
                    "row",
                    Json::Arr(row.iter().map(wire::value_to_json).collect()),
                ),
            ])
        })
        .collect();
    let mut pairs = Vec::new();
    if let Some(tenant) = tenant {
        pairs.push(("tenant", Json::Str(tenant.to_string())));
    }
    pairs.push(("inserts", Json::Arr(inserts)));
    Json::obj(pairs).to_string()
}
