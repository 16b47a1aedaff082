//! Spans recorded around the calls into each layer, and their fold into
//! self time.
//!
//! The benchmark records a span at every stage boundary it drives from
//! outside (`{request, id, parent, name, start_ns, end_ns}`), keeps them in
//! memory, writes them out when the run ends and folds them: a span's *self
//! time* is its duration minus the part of that interval its child spans
//! cover. Spans inside the crates are a later change (ROADMAP item 2).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use beas_serve::Json;

/// Parent id of a span that starts a request.
pub const ROOT: u32 = 0;

/// The span names the workloads record, `layer.module.stage`. Every one is
/// reported as `<name>.self_us` by every traced run (0 where a workload
/// does not drive the stage).
pub mod names {
    /// Root: one traced request (an answer, an update, a reopen).
    pub const REQUEST: &str = "request";
    /// `PreparedQuery::plan`: a plan-cache lookup.
    pub const PREPARED_PLAN: &str = "core.prepared.plan";
    /// `Beas::plan`: chase + plan generation from scratch.
    pub const PLANNER_PLAN: &str = "core.planner.plan";
    /// `stream_plan_fragments`: `access::{fetch, family}` materialising
    /// every fragment of the fetching plan.
    pub const FETCH: &str = "access.fetch";
    /// `evaluate_plan_leaf` over every leaf: `relal::{eval, kernel}` under
    /// `core::executor`'s sharding.
    pub const EVALUATE: &str = "core.executor.evaluate";
    /// `compose_plan_answer`: RA composition, `d'` correction, aggregation.
    pub const COMPOSE: &str = "core.executor.compose";
    /// `BeasAnswer::from_execution`.
    pub const PACKAGE: &str = "core.engine.package";
    /// `parse_json` of a request body.
    pub const JSON_PARSE: &str = "serve.json.parse";
    /// `spec_from_json` + `query_from_json`.
    pub const WIRE_DECODE: &str = "serve.wire.decode";
    /// `answer_to_json`.
    pub const WIRE_ENCODE: &str = "serve.wire.encode";
    /// `Json::to_string` of the response.
    pub const JSON_SERIALIZE: &str = "serve.json.serialize";
    /// One `ShardTransport::call_deadline` made by the coordinator.
    pub const SHARD_CALL: &str = "cluster.transport.call";
    /// `Catalog::insert_rows` on a copy-on-write clone.
    pub const CATALOG_INSERT: &str = "access.catalog.insert_rows";
    /// `Database::insert_row` per row on a copy-on-write clone.
    pub const DB_INSERT: &str = "relal.storage.insert_rows";
    /// `Store::append_batch`: encode, write and sync one WAL record.
    pub const WAL_APPEND: &str = "store.wal.append";
    /// `Store::open`: manifest and WAL scan.
    pub const STORE_OPEN: &str = "store.open";
    /// `Store::load_snapshot`: decode the resident segments.
    pub const SNAPSHOT_LOAD: &str = "store.segment.load_snapshot";

    /// Every name above.
    pub const ALL: [&str; 17] = [
        REQUEST,
        PREPARED_PLAN,
        PLANNER_PLAN,
        FETCH,
        EVALUATE,
        COMPOSE,
        PACKAGE,
        JSON_PARSE,
        WIRE_DECODE,
        WIRE_ENCODE,
        JSON_SERIALIZE,
        SHARD_CALL,
        CATALOG_INSERT,
        DB_INSERT,
        WAL_APPEND,
        STORE_OPEN,
        SNAPSHOT_LOAD,
    ];
}

/// One recorded span. Spans of one request share `request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request the span belongs to; a run numbers its requests from 0.
    pub request: u64,
    /// Span id, unique within the run, never [`ROOT`].
    pub id: u32,
    /// Id of the span that caused this one, [`ROOT`] for a request's root.
    pub parent: u32,
    /// `layer.module.stage`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder, shareable across threads (the cluster
/// coordinator calls its transport from worker threads).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` receives the span's id, the `parent` of
    /// the spans it opens itself.
    pub fn span<T>(
        &self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        // Relaxed: the id only has to be unique, it publishes nothing
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                request,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Time attributed to one span name by [`fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Number of spans with this name.
    pub spans: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// The fold of a span set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    /// Self time per span name.
    pub by_name: BTreeMap<&'static str, SelfTime>,
    /// Number of root spans.
    pub roots: u64,
    /// Sum of the root spans' durations.
    pub root_total_ns: u64,
    /// Sum of the root spans' self times: request time no child span covers.
    pub root_self_ns: u64,
}

impl Fold {
    /// Mean self time of `name` per root span, in microseconds (0 when the
    /// name was never recorded).
    pub fn self_us_per_root(&self, name: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        let ns = self.by_name.get(name).map_or(0, |s| s.self_ns);
        ns as f64 / self.roots as f64 / 1e3
    }

    /// Share of all root time that self time of `name` accounts for.
    pub fn share(&self, name: &str) -> f64 {
        if self.root_total_ns == 0 {
            return 0.0;
        }
        let ns = self.by_name.get(name).map_or(0, |s| s.self_ns);
        ns as f64 / self.root_total_ns as f64
    }

    /// Share of root time that named child spans cover.
    pub fn attributed_share(&self) -> f64 {
        if self.root_total_ns == 0 {
            return 0.0;
        }
        1.0 - self.root_self_ns as f64 / self.root_total_ns as f64
    }
}

/// Folds spans into self time: every span's duration minus the part of its
/// interval covered by the union of its children (children are clipped to
/// the parent, and overlapping children — parallel shard calls — count
/// once).
pub fn fold(spans: &[Span]) -> Fold {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry((s.request, s.parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = Fold::default();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&(s.request, s.id)) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let self_ns = total - covered.min(total);
        let entry = out.by_name.entry(s.name).or_default();
        entry.spans += 1;
        entry.self_ns += self_ns;
        entry.total_ns += total;
        if s.parent == ROOT {
            out.roots += 1;
            out.root_total_ns += total;
            out.root_self_ns += self_ns;
        }
    }
    out
}

/// How many requests' spans the trace file keeps (the fold covers all).
pub const TRACE_FILE_REQUESTS: usize = 500;

/// Writes the first [`TRACE_FILE_REQUESTS`] requests' spans and the fold of
/// all spans to `path` as JSON.
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    folded: &Fold,
) -> std::io::Result<()> {
    // request ids count up from 0, so the first requests are the low ids
    let mut rows = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.request < TRACE_FILE_REQUESTS as u64)
    {
        rows.push(Json::obj(vec![
            ("request", Json::Int(s.request as i64)),
            ("id", Json::Int(i64::from(s.id))),
            ("parent", Json::Int(i64::from(s.parent))),
            ("name", Json::Str(s.name.to_string())),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
        ]));
    }
    let self_time = folded
        .by_name
        .iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::obj(vec![
                    ("spans", Json::Int(t.spans as i64)),
                    ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
                    ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                    ("share_of_request_time", Json::Num(folded.share(name))),
                ]),
            )
        })
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Int(seed as i64)),
        ("requests_traced", Json::Int(folded.roots as i64)),
        (
            "requests_in_file",
            Json::Int(folded.roots.min(TRACE_FILE_REQUESTS as u64) as i64),
        ),
        ("attributed_share", Json::Num(folded.attributed_share())),
        ("self_time", Json::Obj(self_time)),
        ("spans", Json::Arr(rows)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string())
}
