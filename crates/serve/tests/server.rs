//! Integration tests of the serving front-end: wire round-trips against the
//! in-process engine, the concurrency oracle driven over HTTP, admission
//! control isolating tenants, and the malformed-request error paths.

use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_core::{AccuracyTarget, Beas, ConstraintSpec, ResourceSpec, ServeHandle, UpdateBatch};
use beas_relal::{
    Attribute, Database, DatabaseSchema, Relation, RelationSchema, SpcQueryBuilder, Value,
};
use beas_serve::{
    parse_json, query_body, serve, update_body, Client, Json, RunningServer, ServeConfig,
    TenantPolicy,
};

fn poi_db(n: i64) -> Database {
    let schema = DatabaseSchema::new(vec![RelationSchema::new(
        "poi",
        vec![
            Attribute::categorical("type"),
            Attribute::text("city"),
            Attribute::double("price"),
        ],
    )]);
    let mut db = Database::new(schema);
    let cities = ["NYC", "LA", "Chicago"];
    for i in 0..n {
        db.insert_row(
            "poi",
            vec![
                Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
                Value::from(cities[(i % 3) as usize]),
                Value::Double(30.0 + ((i * 7) % 160) as f64 / 2.0),
            ],
        )
        .unwrap();
    }
    db
}

fn engine(n: i64) -> Arc<Beas> {
    Arc::new(
        Beas::builder(poi_db(n))
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .num_threads(1)
            .build()
            .unwrap(),
    )
}

/// The standard test query: NYC hotel prices.
fn nyc_hotels_json() -> Json {
    parse_json(
        r#"{"type":"spc",
            "atoms":[{"relation":"poi","alias":"h"}],
            "binds":[{"atom":"h","attr":"type","value":"hotel"},
                     {"atom":"h","attr":"city","value":"NYC"}],
            "outputs":[{"atom":"h","attr":"price","name":"price"}]}"#,
    )
    .unwrap()
}

fn nyc_hotels_query(engine: &Beas) -> beas_core::BeasQuery {
    let mut b = SpcQueryBuilder::new(engine.schema());
    let h = b.atom("poi", "h").unwrap();
    b.bind_const(h, "type", "hotel").unwrap();
    b.bind_const(h, "city", "NYC").unwrap();
    b.output(h, "price", "price").unwrap();
    b.build().unwrap().into()
}

fn start(engine: Arc<Beas>, config: ServeConfig) -> RunningServer {
    serve(ServeHandle::new(engine), config).expect("server start")
}

fn open_tenant() -> TenantPolicy {
    TenantPolicy::with_rate(1e12, 1e12)
}

fn client(server: &RunningServer) -> Client {
    Client::connect(server.addr(), Duration::from_secs(10)).expect("connect")
}

#[test]
fn query_update_metrics_round_trip() {
    let engine = engine(300);
    let expected = engine
        .answer(&nyc_hotels_query(&engine), ResourceSpec::FULL)
        .unwrap();
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );
    let mut c = client(&server);

    // healthz + schema
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    let schema = c.get("/schema").unwrap().json().unwrap();
    let relations = schema.get("relations").and_then(Json::as_arr).unwrap();
    assert_eq!(relations.len(), 1);
    assert_eq!(relations[0].get("name").and_then(Json::as_str), Some("poi"));

    // the served answer is bit-for-bit the in-process answer
    let response = c
        .post(
            "/query",
            &query_body(None, ResourceSpec::FULL, &nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let answer = response.json().unwrap();
    assert_eq!(answer.get("exact").and_then(Json::as_bool), Some(true));
    assert_eq!(
        answer.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", expected.answers.digest()).as_str())
    );
    let served: Relation = beas_serve::relation_from_json(&answer).unwrap();
    assert_eq!(served.digest(), expected.answers.digest());
    assert_eq!(served.sorted(), expected.answers.clone().sorted());

    // prepare once, answer through the registry
    let prepared = c
        .post(
            "/prepare",
            &Json::obj(vec![("query", nyc_hotels_json())]).to_string(),
        )
        .unwrap();
    assert_eq!(prepared.status, 200, "{}", prepared.body);
    let id = prepared
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_i64)
        .unwrap();
    let via_prepared = c
        .post(&format!("/prepared/{id}/answer"), r#"{"spec":"ratio:1"}"#)
        .unwrap();
    assert_eq!(via_prepared.status, 200, "{}", via_prepared.body);
    assert_eq!(
        via_prepared
            .json()
            .unwrap()
            .get("digest")
            .and_then(Json::as_str),
        Some(format!("{:016x}", expected.answers.digest()).as_str())
    );
    // a repeat at the same budget hits the shared plan cache
    let repeat = c
        .post(&format!("/prepared/{id}/answer"), r#"{"spec":"ratio:1"}"#)
        .unwrap();
    assert_eq!(repeat.status, 200, "{}", repeat.body);

    // a batched update lands and the next answer reflects it
    let batch = UpdateBatch::new()
        .insert(
            "poi",
            vec![
                Value::from("hotel"),
                Value::from("NYC"),
                Value::Double(19.25),
            ],
        )
        .insert(
            "poi",
            vec![
                Value::from("hotel"),
                Value::from("NYC"),
                Value::Double(21.75),
            ],
        );
    let update = c.post("/update", &update_body(None, &batch)).unwrap();
    assert_eq!(update.status, 200, "{}", update.body);
    assert_eq!(
        update.json().unwrap().get("applied").and_then(Json::as_i64),
        Some(2)
    );
    let after = c
        .post(&format!("/prepared/{id}/answer"), r#"{"spec":"ratio:1"}"#)
        .unwrap()
        .json()
        .unwrap();
    let after_rel = beas_serve::relation_from_json(&after).unwrap();
    assert_eq!(after_rel.len(), expected.answers.len() + 2);
    assert!(after_rel.rows().any(|r| r == vec![Value::Double(19.25)]));

    // metrics reflect the traffic
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let tenant = metrics.get("tenants").unwrap().get("t").unwrap();
    assert!(tenant.get("admitted").and_then(Json::as_i64).unwrap() >= 4);
    assert_eq!(
        tenant.get("rejected_budget").and_then(Json::as_i64),
        Some(0)
    );
    let engine_stats = metrics.get("engine").unwrap();
    assert!(engine_stats.get("queries").and_then(Json::as_i64).unwrap() >= 3);
    assert_eq!(engine_stats.get("updates").and_then(Json::as_i64), Some(1));
    assert_eq!(
        engine_stats.get("rows_inserted").and_then(Json::as_i64),
        Some(2)
    );
    assert!(
        engine_stats
            .get("plan_cache_hits")
            .and_then(Json::as_i64)
            .unwrap()
            >= 1
    );
    // a non-durable engine reports the storage tier as all-zero
    let storage = metrics.get("storage").unwrap();
    assert_eq!(
        storage.get("segments_written").and_then(Json::as_i64),
        Some(0)
    );
    assert_eq!(
        storage.get("replayed_batches").and_then(Json::as_i64),
        Some(0)
    );
    assert_eq!(storage.get("page_ins").and_then(Json::as_i64), Some(0));

    server.shutdown();
}

/// The concurrency oracle of `tests/concurrency.rs`, driven over the wire:
/// concurrent `/query` requests at the full spec interleaved with `/update`
/// batches must only ever observe answers matching one of the consistent
/// database states the writer steps through.
#[test]
fn concurrent_queries_and_updates_observe_consistent_states() {
    const READERS: usize = 4;
    const ANSWERS_PER_READER: usize = 25;
    const BATCHES: usize = 6;

    let base = poi_db(400);
    let engine = Arc::new(
        Beas::builder(base.clone())
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .num_threads(1)
            .build()
            .unwrap(),
    );
    let query = nyc_hotels_query(&engine);

    // the writer's batches: distinct new NYC hotels, so every state has a
    // distinct exact answer set
    let batches: Vec<UpdateBatch> = (0..BATCHES as i64)
        .map(|b| {
            (0..3i64).fold(UpdateBatch::new(), |batch, i| {
                batch.insert(
                    "poi",
                    vec![
                        Value::from("hotel"),
                        Value::from("NYC"),
                        Value::Double(2000.0 + (b * 3 + i) as f64 + 0.5),
                    ],
                )
            })
        })
        .collect();
    let mut expected: Vec<Relation> = Vec::with_capacity(BATCHES + 1);
    let mut state = base;
    expected.push(beas_core::exact_answers(&query, &state).unwrap().sorted());
    for batch in &batches {
        for (relation, row) in batch.inserts() {
            state.insert_row(relation, row.clone()).unwrap();
        }
        expected.push(beas_core::exact_answers(&query, &state).unwrap().sorted());
    }

    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .workers(READERS + 2)
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );

    std::thread::scope(|scope| {
        let server = &server;
        let batches = &batches;
        let expected = &expected;
        scope.spawn(move || {
            let mut c = client(server);
            for batch in batches {
                let response = c.post("/update", &update_body(None, batch)).unwrap();
                assert_eq!(response.status, 200, "{}", response.body);
                std::thread::yield_now();
            }
        });
        for _ in 0..READERS {
            scope.spawn(move || {
                let mut c = client(server);
                let body = query_body(None, ResourceSpec::FULL, &nyc_hotels_json());
                for _ in 0..ANSWERS_PER_READER {
                    let response = c.post("/query", &body).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    let answer = response.json().unwrap();
                    assert_eq!(answer.get("exact").and_then(Json::as_bool), Some(true));
                    let rel = beas_serve::relation_from_json(&answer).unwrap().sorted();
                    assert!(
                        expected.contains(&rel),
                        "an answer served over the wire matches no consistent state \
                         ({} rows observed)",
                        rel.len()
                    );
                }
            });
        }
    });

    // quiesced: the served state is the final one
    let mut c = client(&server);
    let final_answer = c
        .post(
            "/query",
            &query_body(None, ResourceSpec::FULL, &nyc_hotels_json()),
        )
        .unwrap()
        .json()
        .unwrap();
    let rel = beas_serve::relation_from_json(&final_answer)
        .unwrap()
        .sorted();
    assert_eq!(&rel, expected.last().unwrap());
    server.shutdown();
}

/// Admission control isolates tenants: a tenant saturating its token bucket
/// collects `429`s (with `Retry-After`), while a generously provisioned
/// tenant sharing the server keeps being served with bounded latency.
#[test]
fn saturating_tenant_gets_429_while_light_tenant_stays_served() {
    let engine = engine(600);
    let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap() as f64;
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .workers(8)
            // the free tier can afford a couple of full-budget queries, then
            // refills far too slowly for the hammering below
            .tenant(
                "free",
                TenantPolicy::with_rate(full_budget / 10.0, full_budget * 2.0),
            )
            .tenant("gold", open_tenant()),
    );

    // every admitted answer, of either tenant, is bit-for-bit the in-process
    // answer at its spec: the saturating neighbour costs the compliant tenant
    // neither admission nor accuracy
    let query = nyc_hotels_query(&engine);
    let in_process = |spec| engine.answer(&query, spec).unwrap().answers.digest();
    let (free_digest, gold_digest) = (
        in_process(ResourceSpec::FULL),
        in_process(ResourceSpec::Ratio(0.2)),
    );
    let assert_served = |response: &beas_serve::Response, expected: u64| {
        let answer = response.json().unwrap();
        assert_eq!(
            answer.get("digest").and_then(Json::as_str),
            Some(format!("{expected:016x}").as_str())
        );
        let rows = beas_serve::relation_from_json(&answer).unwrap();
        assert_eq!(rows.digest(), expected, "served rows re-digest differently");
    };

    let saturator_429s = std::sync::atomic::AtomicUsize::new(0);
    let saturator_oks = std::sync::atomic::AtomicUsize::new(0);
    let mut gold_latencies: Vec<Duration> = Vec::new();

    std::thread::scope(|scope| {
        let server = &server;
        let saturator_429s = &saturator_429s;
        let saturator_oks = &saturator_oks;
        let assert_served = &assert_served;
        // 3 connections hammering the free tier with maximal-budget queries
        for _ in 0..3 {
            scope.spawn(move || {
                let mut c = client(server);
                let body = query_body(Some("free"), ResourceSpec::FULL, &nyc_hotels_json());
                for _ in 0..30 {
                    let response = c.post("/query", &body).unwrap();
                    match response.status {
                        200 => {
                            assert_served(&response, free_digest);
                            saturator_oks.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        }
                        429 => {
                            let retry = response.header("retry-after").unwrap_or("");
                            assert!(
                                retry.parse::<u64>().map(|s| s >= 1).unwrap_or(false),
                                "429 must carry a positive Retry-After, got `{retry}`"
                            );
                            saturator_429s.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        }
                        other => panic!("unexpected status {other}: {}", response.body),
                    };
                }
            });
        }
        // the compliant tenant keeps a modest request rate on its own
        // connection, concurrently with the saturators
        let mut c = client(server);
        let body = query_body(Some("gold"), ResourceSpec::Ratio(0.2), &nyc_hotels_json());
        for _ in 0..40 {
            let start = Instant::now();
            let response = c.post("/query", &body).unwrap();
            gold_latencies.push(start.elapsed());
            assert_eq!(
                response.status, 200,
                "the compliant tenant must never be rejected: {}",
                response.body
            );
            assert_served(&response, gold_digest);
        }
    });

    let rejected = saturator_429s.load(std::sync::atomic::Ordering::Relaxed);
    let admitted = saturator_oks.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        rejected > 0,
        "the saturating tenant must run out of budget (admitted {admitted})"
    );
    assert!(
        admitted >= 1,
        "the burst allowance must admit at least one request"
    );

    // p99 of the compliant tenant stays bounded while the saturator hammers:
    // rejections are answered at the door, so the gold lane never queues
    // behind free-tier work
    gold_latencies.sort();
    let p99 = gold_latencies[(gold_latencies.len() * 99 / 100).min(gold_latencies.len() - 1)];
    assert!(
        p99 < Duration::from_millis(1500),
        "compliant tenant p99 {p99:?} pushed past its bound by a saturating neighbour"
    );

    // the per-tenant metrics saw it all
    let mut c = client(&server);
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let free = metrics.get("tenants").unwrap().get("free").unwrap();
    let gold = metrics.get("tenants").unwrap().get("gold").unwrap();
    assert_eq!(
        free.get("rejected_budget").and_then(Json::as_i64),
        Some(rejected as i64)
    );
    assert_eq!(gold.get("rejected_budget").and_then(Json::as_i64), Some(0));
    assert_eq!(gold.get("completed").and_then(Json::as_i64), Some(40));
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_a_hung_connection() {
    let engine = engine(60);
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .max_body_bytes(4096)
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );

    // each case on a fresh connection (error paths may close it)
    let cases: Vec<(&str, &str, String, u16)> = vec![
        ("POST", "/query", "{not json".into(), 400),
        ("POST", "/query", "[1,2,3]".into(), 400), // not an object
        ("POST", "/query", r#"{"spec":"ratio:0.5"}"#.into(), 400), // no query
        (
            "POST",
            "/query",
            query_body(
                None,
                ResourceSpec::FULL,
                &parse_json(r#"{"type":"nope"}"#).unwrap(),
            ),
            400,
        ),
        (
            "POST",
            "/query",
            // bad spec string
            format!(r#"{{"spec":"ratio:2.5","query":{}}}"#, nyc_hotels_json()),
            400,
        ),
        (
            "POST",
            "/query",
            // unknown tenant
            format!(
                r#"{{"tenant":"nobody","spec":"ratio:0.5","query":{}}}"#,
                nyc_hotels_json()
            ),
            403,
        ),
        (
            "POST",
            "/query",
            // unknown relation inside the query
            query_body(
                None,
                ResourceSpec::FULL,
                &parse_json(
                    r#"{"type":"spc","atoms":[{"relation":"nope"}],
                        "outputs":[{"atom":"nope","attr":"x"}]}"#,
                )
                .unwrap(),
            ),
            400,
        ),
        ("POST", "/update", r#"{"inserts":"nope"}"#.into(), 400),
        (
            "POST",
            "/update",
            // wrong arity: validated before anything is applied
            r#"{"inserts":[{"relation":"poi","row":["hotel"]}]}"#.into(),
            400,
        ),
        (
            "POST",
            "/prepared/999/answer",
            r#"{"spec":"ratio:1"}"#.into(),
            404,
        ),
        (
            "POST",
            "/prepared/xyz/answer",
            r#"{"spec":"ratio:1"}"#.into(),
            400,
        ),
        ("POST", "/nope", "{}".into(), 404),
        ("GET", "/nope", String::new(), 404),
    ];
    for (method, path, body, expected_status) in cases {
        let mut c = client(&server);
        let response = match method {
            "GET" => c.get(path).unwrap(),
            _ => c.post(path, &body).unwrap(),
        };
        assert_eq!(
            response.status, expected_status,
            "{method} {path} with `{body}` → {}",
            response.body
        );
        assert!(
            response.json().unwrap().get("error").is_some() || expected_status == 200,
            "error responses carry an `error` field: {}",
            response.body
        );
    }

    // an oversized body is rejected with 413 before being buffered
    let mut c = client(&server);
    let huge = format!(
        r#"{{"spec":"ratio:1","query":{},"pad":"{}"}}"#,
        nyc_hotels_json(),
        "x".repeat(8 * 1024)
    );
    let response = c.post("/query", &huge).unwrap();
    assert_eq!(response.status, 413, "{}", response.body);

    // the database was never touched by any of the bad requests
    assert_eq!(engine.database().total_tuples(), 60);
    server.shutdown();
}

#[test]
fn prepare_is_admission_controlled_and_evicts_only_within_the_tenant() {
    let engine = engine(80);
    // max_prepared 4 across two tenants -> quota of 2 handles per tenant
    let server = start(
        Arc::clone(&engine),
        ServeConfig {
            max_prepared: 4,
            ..ServeConfig::default()
        }
        .tenant("a", open_tenant())
        .tenant("b", open_tenant())
        .default_tenant("a"),
    );
    let mut c = client(&server);
    let body_for =
        |tenant: &str| format!(r#"{{"tenant":"{tenant}","query":{}}}"#, nyc_hotels_json());

    // unknown tenants cannot touch the registry
    let forbidden = c.post("/prepare", &body_for("nobody")).unwrap();
    assert_eq!(forbidden.status, 403, "{}", forbidden.body);

    let id_of = |response: beas_serve::Response| {
        response
            .json()
            .unwrap()
            .get("id")
            .and_then(Json::as_i64)
            .unwrap()
    };
    // b registers one handle, then a floods its own quota
    let b_id = id_of(c.post("/prepare", &body_for("b")).unwrap());
    let a_first = id_of(c.post("/prepare", &body_for("a")).unwrap());
    let _a_second = id_of(c.post("/prepare", &body_for("a")).unwrap());
    let a_third = id_of(c.post("/prepare", &body_for("a")).unwrap());
    assert!(a_third > a_first);

    // a's overflow evicted a's own oldest ...
    let evicted = c
        .post(
            &format!("/prepared/{a_first}/answer"),
            r#"{"spec":"ratio:1"}"#,
        )
        .unwrap();
    assert_eq!(
        evicted.status, 404,
        "evicted ids answer 404: {}",
        evicted.body
    );
    let alive = c
        .post(
            &format!("/prepared/{a_third}/answer"),
            r#"{"spec":"ratio:1"}"#,
        )
        .unwrap();
    assert_eq!(alive.status, 200, "{}", alive.body);
    // ... and never b's: one tenant cannot flush another's prepared queries
    let b_alive = c
        .post(
            &format!("/prepared/{b_id}/answer"),
            r#"{"tenant":"b","spec":"ratio:1"}"#,
        )
        .unwrap();
    assert_eq!(
        b_alive.status, 200,
        "tenant b's handle must survive a's flood: {}",
        b_alive.body
    );
    // prepared handles are tenant-scoped: a cannot answer through b's id,
    // and gets the same 404 as a non-existent id (no information leak)
    let cross = c
        .post(
            &format!("/prepared/{b_id}/answer"),
            r#"{"tenant":"a","spec":"ratio:1"}"#,
        )
        .unwrap();
    assert_eq!(
        cross.status, 404,
        "another tenant's prepared id must read as unknown: {}",
        cross.body
    );
    server.shutdown();
}

#[test]
fn overlarge_request_cost_is_a_nonretryable_400() {
    let engine = engine(400);
    let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap() as f64;
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            // burst far below one full-budget query: no amount of waiting
            // makes the request admissible
            .tenant("tiny", TenantPolicy::with_rate(1e9, full_budget / 4.0)),
    );
    let mut c = client(&server);
    let response = c
        .post(
            "/query",
            &query_body(Some("tiny"), ResourceSpec::FULL, &nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.header("retry-after").is_none(),
        "a never-admissible request must not advertise Retry-After"
    );
    assert!(
        response.body.contains("burst capacity"),
        "{}",
        response.body
    );
    assert!(!response.body.contains("  "), "{}", response.body);
    // a request within the burst still works
    let ok = c
        .post(
            "/query",
            &query_body(Some("tiny"), ResourceSpec::Tuples(10), &nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);
    server.shutdown();
}

#[test]
fn http10_and_connection_close_are_honoured() {
    use std::io::{Read, Write};
    let engine = engine(50);
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );
    // raw HTTP/1.0 request: the server must answer and close
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    server.shutdown();
}

#[test]
fn workers_caps_the_connections_served_at_once() {
    use std::io::{ErrorKind, Read, Write};
    let server = start(
        engine(50),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t")
            .workers(1),
    );
    let healthz = b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
    // the one slot: a keep-alive client that has been served
    let mut first = client(&server);
    assert_eq!(first.get("/healthz").unwrap().status, 200);
    // a second connection waits in the backlog: its request gets no byte
    let mut second = std::net::TcpStream::connect(server.addr()).unwrap();
    second.write_all(healthz).unwrap();
    second
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let err = second.read(&mut [0; 1]).unwrap_err();
    assert!(
        matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        "{err}"
    );
    // the slot frees when the first client leaves
    drop(first);
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    second.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    // one connection open and one waiting at the cap: shutdown stays prompt
    let mut open = client(&server);
    assert_eq!(open.get("/healthz").unwrap().status, 200);
    let waiting = std::net::TcpStream::connect(server.addr()).unwrap();
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "{:?}",
        start.elapsed()
    );
    drop((open, waiting));
}

#[test]
fn streamed_query_refines_and_final_frame_matches_one_shot() {
    let engine = engine(600);
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );
    let mut c = client(&server);

    // the one-shot reference at the schedule's final spec
    let spec = ResourceSpec::Ratio(0.5);
    let one_shot = c
        .post("/query", &query_body(None, spec, &nyc_hotels_json()))
        .unwrap();
    assert_eq!(one_shot.status, 200, "{}", one_shot.body);
    let one_shot_digest = one_shot
        .json()
        .unwrap()
        .get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // the streamed session: explicit schedule ending at the same spec
    let body = format!(
        r#"{{"schedule":["ratio:0.02","ratio:0.1","ratio:0.5"],"query":{}}}"#,
        nyc_hotels_json()
    );
    let streamed = c.post("/query/stream", &body).unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert_eq!(
        streamed.header("transfer-encoding"),
        Some("chunked"),
        "the stream must be chunked"
    );
    let frames: Vec<Json> = streamed
        .body
        .lines()
        .map(|line| parse_json(line).expect("frame JSON"))
        .collect();
    assert!(frames.len() >= 2, "got {} frames", frames.len());

    // frames carry eta / cumulative budget / digest, monotonically
    let mut last_eta = -1.0;
    let mut last_spent = 0i64;
    for frame in &frames {
        let eta = frame.get("eta").and_then(Json::as_f64).unwrap();
        let spent = frame.get("budget_spent").and_then(Json::as_i64).unwrap();
        assert!(eta >= last_eta, "eta must not decrease across the stream");
        assert!(spent >= last_spent, "budget_spent must not decrease");
        assert!(frame.get("digest").and_then(Json::as_str).is_some());
        last_eta = eta;
        last_spent = spent;
    }
    // the final frame is bit-for-bit the one-shot answer
    let last = frames.last().unwrap();
    assert_eq!(
        last.get("digest").and_then(Json::as_str),
        Some(one_shot_digest.as_str()),
        "final frame must equal the one-shot digest"
    );
    assert_eq!(last.get("spec").and_then(Json::as_str), Some("ratio:0.5"));
    assert_eq!(
        last.get("steps").and_then(Json::as_i64),
        Some(frames.len() as i64)
    );

    // a "spec"-only body streams the default ladder leading to that spec,
    // and the connection stays usable (keep-alive survives chunked bodies)
    let streamed = c
        .post("/query/stream", &query_body(None, spec, &nyc_hotels_json()))
        .unwrap();
    assert_eq!(streamed.status, 200);
    let lines: Vec<&str> = streamed.body.lines().collect();
    assert!(lines.len() >= 2);
    assert!(lines.last().unwrap().contains(&one_shot_digest));
    server.shutdown();
}

#[test]
fn streamed_query_rejects_bad_schedules_and_is_admission_controlled() {
    let engine = engine(400);
    let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap() as f64;
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            // the tiny tenant's burst cannot cover a full default ladder
            .tenant(
                "tiny",
                TenantPolicy::with_rate(full_budget / 10.0, full_budget),
            )
            .default_tenant("t"),
    );
    let mut c = client(&server);

    // malformed schedules are non-chunked 400s
    for bad in [
        r#"{"schedule":["ratio:0.5","ratio:0.1"],"query":{}}"#.to_string(),
        format!(r#"{{"schedule":[],"query":{}}}"#, nyc_hotels_json()),
        format!(r#"{{"schedule":["nope"],"query":{}}}"#, nyc_hotels_json()),
        format!(
            r#"{{"schedule":["ratio:0"],"query":{}}}"#,
            nyc_hotels_json()
        ),
    ] {
        let r = c.post("/query/stream", &bad).unwrap();
        assert_eq!(r.status, 400, "`{bad}` accepted: {}", r.body);
    }
    // missing query
    let r = c
        .post("/query/stream", r#"{"schedule":["ratio:0.1"]}"#)
        .unwrap();
    assert_eq!(r.status, 400);

    // the schedule's *total* budget is charged: a ladder summing past the
    // tiny tenant's burst is rejected outright as too expensive
    let body = format!(
        r#"{{"tenant":"tiny","schedule":["ratio:0.5","ratio:1"],"query":{}}}"#,
        nyc_hotels_json()
    );
    let r = c.post("/query/stream", &body).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("burst"), "{}", r.body);

    // a single-step full schedule fits the burst and works; draining the
    // bucket then yields 429 + Retry-After
    let body = format!(
        r#"{{"tenant":"tiny","schedule":["ratio:1"],"query":{}}}"#,
        nyc_hotels_json()
    );
    let mut saw_429 = false;
    for _ in 0..4 {
        let r = c.post("/query/stream", &body).unwrap();
        if r.status == 429 {
            assert!(r.header("retry-after").is_some());
            assert!(r.body.contains("retry after"), "{}", r.body);
            assert!(!r.body.contains("  "), "{}", r.body);
            saw_429 = true;
            break;
        }
        assert_eq!(r.status, 200, "{}", r.body);
    }
    assert!(saw_429, "the tiny tenant must eventually see a 429");
    server.shutdown();
}

#[test]
fn accuracy_targets_are_served_settled_and_reported_in_metrics() {
    let engine = engine(600);
    let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap();
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t"),
    );
    let mut c = client(&server);

    // `eta:` in the spec field redirects to `target` with a clear 400
    let r = c
        .post(
            "/query",
            &format!(r#"{{"spec":"eta:0.9","query":{}}}"#, nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("target"), "{}", r.body);

    // spec and target are mutually exclusive
    let r = c
        .post(
            "/query",
            &format!(
                r#"{{"spec":"ratio:0.5","target":"eta:0.9","query":{}}}"#,
                nyc_hotels_json()
            ),
        )
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("mutually exclusive"), "{}", r.body);

    // a bad target names the value and the valid range
    let r = c
        .post(
            "/query",
            &format!(r#"{{"target":"eta:2","query":{}}}"#, nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("(0, 1]"), "{}", r.body);

    // the first request meets the target at the searched budget, and the
    // body carries the engine's own accounting
    let targeted = format!(r#"{{"target":"eta:0.9","query":{}}}"#, nyc_hotels_json());
    let target: AccuracyTarget = "eta:0.9".parse().unwrap();
    let want = engine
        .answer_with_target(&nyc_hotels_query(&engine), &target)
        .unwrap();
    let before = c.get("/metrics").unwrap().json().unwrap();
    let r = c.post("/query", &targeted).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let a = r.json().unwrap();
    assert_eq!(a.get("feasible").and_then(Json::as_bool), Some(true));
    assert!(a.get("eta").and_then(Json::as_f64).unwrap() >= 0.9);
    assert!(a.get("target").and_then(Json::as_str) == Some("eta:0.9"));
    assert_eq!(
        a.get("predicted_budget").and_then(Json::as_i64),
        Some(want.predicted_budget as i64)
    );
    assert_eq!(
        a.get("spent").and_then(Json::as_i64),
        Some(want.spent as i64)
    );
    assert!(want.spent <= full_budget);
    // settled and reported: the tenant's accessed total and the engine's
    // tuple counter both grew by exactly the spend
    let after = c.get("/metrics").unwrap().json().unwrap();
    let accessed = |m: &Json, path: &[&str]| {
        path.iter()
            .try_fold(m, |v, k| v.get(k))
            .and_then(Json::as_i64)
            .unwrap()
    };
    for path in [
        &["engine", "tuples_accessed"][..],
        &["tenants", "t", "tuples_accessed"],
    ] {
        assert_eq!(
            accessed(&after, path) - accessed(&before, path),
            want.spent as i64,
            "{path:?}"
        );
    }
    // a repeat answers the same bytes
    let again = c.post("/query", &targeted).unwrap().json().unwrap();
    assert_eq!(again.get("digest"), a.get("digest"));
    assert_eq!(again.get("spent"), a.get("spent"));

    // the streamed route accepts a target and its last frame meets it
    let streamed = c
        .post(
            "/query/stream",
            &format!(r#"{{"target":"eta:0.5","query":{}}}"#, nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    let last = parse_json(streamed.body.lines().last().unwrap()).unwrap();
    assert!(last.get("eta").and_then(Json::as_f64).unwrap() >= 0.5);

    // prepared answers are budget-denominated only: targets get a clear 400
    let prepared = c
        .post(
            "/prepare",
            &Json::obj(vec![("query", nyc_hotels_json())]).to_string(),
        )
        .unwrap();
    let id = prepared
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_i64)
        .unwrap();
    let r = c
        .post(&format!("/prepared/{id}/answer"), r#"{"target":"eta:0.9"}"#)
        .unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("not supported"), "{}", r.body);

    // nothing is learned, so there is no curve state to report
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    assert!(metrics.get("slo").is_none());
    server.shutdown();
}

#[test]
fn oversized_responses_get_413_with_a_stream_hint() {
    let engine = engine(500);
    let server = start(
        Arc::clone(&engine),
        ServeConfig::default()
            .tenant("t", open_tenant())
            .default_tenant("t")
            // far below any real answer body
            .max_response_bytes(64),
    );
    let mut c = client(&server);

    let r = c
        .post(
            "/query",
            &query_body(None, ResourceSpec::FULL, &nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(r.status, 413, "{}", r.body);
    assert!(
        r.body.contains("/query/stream"),
        "the 413 must hint at the streamed route: {}",
        r.body
    );

    // the streamed route itself is exempt: frames are chunked, never one body
    let streamed = c
        .post(
            "/query/stream",
            &query_body(None, ResourceSpec::FULL, &nyc_hotels_json()),
        )
        .unwrap();
    assert_eq!(streamed.status, 200);
    assert!(streamed.body.lines().count() >= 2);

    // metrics surface the shared plan cache
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let engine_stats = metrics.get("engine").unwrap();
    assert!(
        engine_stats
            .get("plan_cache_capacity")
            .and_then(Json::as_i64)
            .unwrap()
            > 0
    );
    assert!(
        engine_stats
            .get("plan_cache_size")
            .and_then(Json::as_i64)
            .unwrap()
            >= 1
    );
    server.shutdown();
}
