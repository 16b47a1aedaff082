//! `cluster_tcp`: a 3-shard `ClusterHandle` with every `ShardNode` behind a
//! `ShardServer` on loopback, answered through `TcpShardTransport`.
//! `cluster::{coordinator, protocol, tcp, shard}` dominate — about 35× the
//! in-process-transport time today — and none of it runs in the single-node
//! workloads. Every answer must be bit for bit a single-node engine's.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_cluster::protocol::stats_request;
use beas_cluster::{
    ClusterHandle, InProcessTransport, ShardServer, ShardTransport, TcpShardTransport,
};
use beas_core::BeasQuery;
use beas_serve::wire::{relation_from_json, relation_to_json};
use beas_serve::{parse_json, Json};

use super::{
    accuracy_sample, cheap_answer, eta_census, finish_trace, repeat_setup, set_end_to_end, timed,
    Ctx, Engine, Expected, BUDGET,
};
use crate::inputs::{self, Digest};
use crate::probes::{self, per_call_s};
use crate::report::Report;
use crate::stats;
use crate::trace::names::{REQUEST, SHARD_CALL};
use crate::trace::{Tracer, ROOT};

/// Shard nodes.
const SHARDS: usize = 3;

struct Setup {
    cluster: ClusterHandle,
    servers: Vec<ShardServer>,
    tcp: Arc<TcpShardTransport>,
}

fn setup(ctx: &Ctx, pool: &[BeasQuery]) -> Result<Setup, String> {
    let dataset = inputs::dataset(ctx.size(30, 2));
    let mut cluster = ClusterHandle::builder(dataset.db, SHARDS)
        .constraints(dataset.constraints)
        .build()
        .map_err(|e| format!("cluster build failed: {e}"))?;
    let servers = cluster
        .nodes()
        .iter()
        .map(|node| ShardServer::serve(Arc::clone(node), "127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot start a shard server: {e}"))?;
    let addrs = servers.iter().map(ShardServer::addr).collect();
    let tcp = Arc::new(TcpShardTransport::new(addrs).with_default_timeout(Duration::from_secs(10)));
    cluster.set_transport(Arc::clone(&tcp) as Arc<dyn ShardTransport>);
    // one answer over the wire opens the connections; more would not make
    // later answers faster, and each costs a third of a second today
    if let Some(query) = pool.first() {
        cluster
            .answer(query, BUDGET)
            .map_err(|e| format!("first TCP answer failed: {e}"))?;
    }
    Ok(Setup {
        cluster,
        servers,
        tcp,
    })
}

/// Queries a run cycles through.
const POOL: usize = 24;

/// The pool: one-join queries without set difference that are within the
/// row cap, with the single-node answers they must equal.
///
/// A shard call costs 44 ms today whatever it carries, and an answer takes
/// one such stall per coordinator round: 4 rounds for these queries, up to
/// 12 for four joins under three differences. Latency is therefore
/// quantised in steps of a fifth of the median, about 25 answers fit a run,
/// and the median of a mixed pool lands on 5, 6 or 7 rounds (220 to 310 ms)
/// depending on the seed — measured over 40 candidates per seed, not 12.
/// One query shape has one round count; joins across two shards and the
/// merge at the coordinator are the shape that exercises every module of
/// the cluster.
fn choose_pool(ctx: &Ctx, single: &Engine) -> Result<(Vec<BeasQuery>, Vec<Expected>), String> {
    let (mut pool, mut expected) = (Vec::new(), Vec::new());
    for query in inputs::one_join_pool(ctx.size(2 * POOL, 4), ctx.seed) {
        if pool.len() == ctx.size(POOL, 3) {
            break;
        }
        if let Some(answer) = cheap_answer(&single.beas, &query, BUDGET)? {
            expected.push(Expected::of(&answer));
            pool.push(query);
        }
    }
    Ok((pool, expected))
}

/// One timed pass over the pool through `cluster`, every answer compared
/// with the single-node reference.
fn pass(
    cluster: &ClusterHandle,
    pool: &[BeasQuery],
    expected: &[Expected],
    latencies_ms: &mut Vec<f64>,
    report: &mut Report,
) -> f64 {
    let mut busy_s = 0.0;
    for (query, expected) in pool.iter().zip(expected) {
        let (answer, s) = timed(|| cluster.answer(query, BUDGET));
        busy_s += s;
        latencies_ms.push(s * 1e3);
        expected.check_result(answer, report);
    }
    busy_s
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // the single-node reference every cluster answer must equal; it also
    // decides which queries are within the row cap
    let single = Engine::build(ctx.size(30, 2))?;
    let (pool, expected) = choose_pool(ctx, &single)?;
    let (setup, setup_s) = repeat_setup(ctx, || setup(ctx, &pool))?;
    let Setup {
        mut cluster,
        servers,
        tcp,
    } = setup;
    let db = single.beas.database();
    let mut digest = Digest::default();
    digest.database(&db);
    digest.queries(&pool, &db);
    report.input_digest = digest.value();
    report.note("queries", pool.len());
    report.note("tuples", db.total_tuples());
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    if ctx.trace {
        let queries = Queries {
            single: &single,
            pool: &pool,
            expected: &expected,
        };
        traced(ctx, report, &mut cluster, tcp, &queries, deadline)?;
    } else {
        // whole passes only, so that every query weighs the same in every
        // run; the first pass tells how many fit
        let mut answer_ms = Vec::new();
        let mut busy_s = pass(&cluster, &pool, &expected, &mut answer_ms, report);
        let passes = (ctx.seconds / busy_s).round().max(1.0) as usize;
        for _ in 1..passes {
            busy_s += pass(&cluster, &pool, &expected, &mut answer_ms, report);
        }
        report.note("passes", passes);

        set_end_to_end(
            report,
            setup_s,
            &answer_ms,
            answer_ms.len() as f64 / busy_s,
            eta_census(ctx, &single.beas, BUDGET)?,
        );
    }

    let etas: Vec<f64> = expected
        .iter()
        .map(|e| f64::from_bits(e.eta_bits))
        .collect();
    for i in accuracy_sample(ctx, &pool, &etas) {
        match cluster.answer(&pool[i], BUDGET) {
            Ok(answer) => report.check_eta(&db, &pool[i], &answer),
            Err(e) => report.op(Err(format!("cluster answer failed: {e}"))),
        }
    }
    let metrics = cluster.metrics().to_json();
    let retries: i64 = metrics
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("retries").and_then(Json::as_i64))
        .sum();
    let degraded = metrics
        .get("degraded_answers")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    if ctx.trace {
        report.set("cluster.coordinator.retries", retries as f64);
        report.set("cluster.coordinator.degraded_answers", degraded as f64);
    }
    if retries + degraded > 0 {
        report.fail(format!(
            "{retries} shard calls were retried and {degraded} answers degraded on a healthy loopback cluster"
        ));
    }
    drop(cluster);
    for server in servers {
        server.shutdown();
    }
    Ok(())
}

/// The pool with its single-node reference.
struct Queries<'a> {
    single: &'a Engine,
    pool: &'a [BeasQuery],
    expected: &'a [Expected],
}

/// A transport that records one span per call (when a request is being
/// traced) and counts calls and wire bytes (when asked to: serialising the
/// messages a second time costs what the call itself costs).
struct Observed {
    inner: Arc<dyn ShardTransport>,
    tracer: Arc<Tracer>,
    /// The request and root span calls belong to; root 0 = not tracing.
    request: AtomicU64,
    root: AtomicU32,
    count_bytes: bool,
    calls: AtomicU64,
    bytes: AtomicU64,
}

impl ShardTransport for Observed {
    fn call(&self, shard: usize, request: &Json) -> beas_cluster::Result<Json> {
        self.call_deadline(shard, request, None)
    }

    fn call_deadline(
        &self,
        shard: usize,
        request: &Json,
        deadline: Option<Instant>,
    ) -> beas_cluster::Result<Json> {
        // SeqCst: the coordinator may call from worker threads it spawned
        // after the client thread stored the ids
        let root = self.root.load(Ordering::SeqCst);
        let response = if root == ROOT {
            self.inner.call_deadline(shard, request, deadline)
        } else {
            let id = self.request.load(Ordering::SeqCst);
            self.tracer.span(id, root, SHARD_CALL, |_| {
                self.inner.call_deadline(shard, request, deadline)
            })
        }?;
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.count_bytes {
            let bytes = request.to_string().len() + response.to_string().len();
            self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        Ok(response)
    }

    fn shards(&self) -> usize {
        self.inner.shards()
    }
}

/// The traced run: answers over TCP with the shard calls recorded as child
/// spans of the answer; then the same pool over the in-process transport
/// and on a single node, a pass that counts wire bytes, and the probes of
/// the cluster layer.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    cluster: &mut ClusterHandle,
    tcp: Arc<TcpShardTransport>,
    queries: &Queries<'_>,
    deadline: Instant,
) -> Result<(), String> {
    let Queries {
        single,
        pool,
        expected,
    } = *queries;
    let tcp = tcp as Arc<dyn ShardTransport>;
    let tracer = Arc::new(Tracer::default());
    let observe = |inner: &Arc<dyn ShardTransport>, count_bytes: bool| {
        Arc::new(Observed {
            inner: Arc::clone(inner),
            tracer: Arc::clone(&tracer),
            request: AtomicU64::new(0),
            root: AtomicU32::new(ROOT),
            count_bytes,
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    };
    // Every query is answered twice in a row, once plainly and once with
    // its shard calls recorded; the transport is the same object both times
    // and opens spans only while a root is set.
    let (mut one_call_ms, mut staged_ms) = (Vec::new(), Vec::new());
    let observed = observe(&tcp, false);
    cluster.set_transport(Arc::clone(&observed) as Arc<dyn ShardTransport>);
    let mut request = 0u64;
    'measure: loop {
        for (query, expected) in pool.iter().zip(expected) {
            if Instant::now() >= deadline {
                break 'measure;
            }
            let (plain, s) = timed(|| cluster.answer(query, BUDGET));
            one_call_ms.push(s * 1e3);
            let (traced, s) = timed(|| {
                tracer.span(request, ROOT, REQUEST, |root| {
                    observed.request.store(request, Ordering::SeqCst);
                    observed.root.store(root, Ordering::SeqCst);
                    let answer = cluster.answer(query, BUDGET);
                    observed.root.store(ROOT, Ordering::SeqCst);
                    answer
                })
            });
            staged_ms.push(s * 1e3);
            request += 1;
            for answer in [plain, traced] {
                expected.check_result(answer, report);
            }
        }
    }
    let folded = finish_trace(ctx, "cluster_tcp", &tracer)?;
    probes::set_fold(report, &folded, &one_call_ms, &staged_ms);

    // the same pool without the wire, and without the cluster
    let in_process: Arc<dyn ShardTransport> =
        Arc::new(InProcessTransport::new(cluster.nodes().to_vec()));
    let counting = observe(&in_process, true);
    cluster.set_transport(Arc::clone(&counting) as Arc<dyn ShardTransport>);
    pass(cluster, pool, expected, &mut Vec::new(), report);
    let answers = pool.len().max(1) as f64;
    report.set(
        "cluster.coordinator.calls_per_answer",
        counting.calls.load(Ordering::Relaxed) as f64 / answers,
    );
    report.set(
        "cluster.protocol.wire_bytes_per_answer",
        counting.bytes.load(Ordering::Relaxed) as f64 / answers,
    );
    cluster.set_transport(Arc::clone(&in_process));
    let (mut in_process_ms, mut single_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        pass(cluster, pool, expected, &mut in_process_ms, report);
        for query in pool {
            let (answer, s) = timed(|| single.beas.answer(query, BUDGET));
            single_ms.push(s * 1e3);
            report.op(answer
                .map(|_| ())
                .map_err(|e| format!("single-node answer failed: {e}")));
        }
    }
    cluster.set_transport(Arc::clone(&tcp));
    let p50 = |ms: &[f64]| stats::summarize(ms).p50;
    report.set(
        "cluster.tcp.overhead_ms",
        p50(&one_call_ms) - p50(&in_process_ms),
    );
    report.set(
        "cluster.coordinator.overhead_ms_inproc",
        p50(&in_process_ms) - p50(&single_ms),
    );

    // one empty protocol round trip, and the relation codec on a fragment
    // of about 2 000 tuples
    let budget = Duration::from_millis(ctx.size(300, 5) as u64);
    let ping = stats_request(u64::MAX, false);
    let mut failed = None;
    let hop_s = per_call_s(budget, || {
        if let Err(e) = tcp.call(0, &ping) {
            failed = Some(format!("shard hop failed: {e}"));
        }
    });
    report.set("cluster.tcp.hop_us", hop_s * 1e6);
    let catalog = single.beas.catalog();
    let family = catalog
        .at_family_for("lineitem")
        .and_then(|id| catalog.family(id).ok())
        .ok_or("no whole-relation template family for lineitem")?;
    let level = (0..family.levels.len())
        .min_by_key(|&k| family.levels[k].stored_tuples().abs_diff(2000))
        .unwrap_or(0);
    let fragment = family
        .materialize(level, &family.levels[level].xkeys())
        .map_err(|e| e.to_string())?;
    let text = relation_to_json(&fragment).to_string();
    let encode_s = per_call_s(budget, || {
        std::hint::black_box(relation_to_json(&fragment).to_string());
    });
    let decode_s = per_call_s(budget, || {
        match parse_json(&text)
            .map_err(|e| e.to_string())
            .and_then(|json| relation_from_json(&json).map_err(|e| e.to_string()))
        {
            Ok(rel) => drop(std::hint::black_box(rel)),
            Err(e) => failed = Some(format!("fragment decode failed: {e}")),
        }
    });
    let mb = text.len() as f64 / 1e6;
    report.set("cluster.protocol.relation_encode_mb_per_s", mb / encode_s);
    report.set("cluster.protocol.relation_decode_mb_per_s", mb / decode_s);
    report.note("fragment_tuples", fragment.len());
    if let Some(e) = failed {
        report.op(Err(e));
    }
    probes::in_process_layers(ctx, report, single, pool)
}
