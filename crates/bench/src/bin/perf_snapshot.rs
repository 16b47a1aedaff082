//! Writes a small JSON perf snapshot of the serving-critical benchmarks
//! (`plan_execution` bounded and full-eval, the `materialize` fetch path,
//! `concurrent_serving`, the HTTP serving path, and the durable store's
//! cold-build vs warm-open restart cost) with short, fixed
//! iteration counts — a CI-friendly smoke run whose output gives future
//! changes a wall-clock trajectory to compare against. Without `OUT.json` it
//! writes `BENCH_local.json`, which is git-ignored: a committed
//! `BENCH_pr<N>.json` record is only ever written by naming it.
//!
//! ```text
//! cargo run --release -p beas-bench --bin perf_snapshot -- [OUT.json] [--check [BASELINE.json]]
//! ```
//!
//! The snapshot records mean/min wall-clock per measurement plus the answer
//! digests of the concurrent and network runs, so a regression in either
//! speed *or* results is visible from the artifact alone.
//!
//! With `--check`, the run additionally compares its `plan_execution/*`
//! measurements against a committed baseline and exits non-zero when one
//! regresses beyond the noise allowance ([`CHECK_TOLERANCE`]×) — the CI
//! perf gate. A bare `--check` auto-discovers the **newest** committed
//! `BENCH_pr<N>.json` (highest `N`) in the working directory, so the gate
//! tightens automatically whenever a PR commits a fresh baseline; an
//! explicit path pins it. Best-of-run (`min_s`) is compared rather than the
//! mean: means absorb scheduler hiccups on shared CI runners, minima are
//! the repeatable cost. Measurements absent from an older baseline are
//! skipped, so adding a benchmark never breaks the gate retroactively.

use std::time::{Duration, Instant};

use beas_bench::harness::{
    measure_concurrent_serving, prepare, prepare_with_threads, BenchProfile,
};
use beas_core::ResourceSpec;
use beas_workloads::tpch::tpch_lite;

/// One named measurement: mean and min seconds over `iters` runs.
struct Sample {
    name: String,
    mean_s: f64,
    min_s: f64,
    extra: Vec<(String, String)>,
}

fn measure(name: &str, iters: usize, mut f: impl FnMut()) -> Sample {
    // one warmup iteration, then `iters` timed ones
    f();
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        total += s;
        min = min.min(s);
    }
    Sample {
        name: name.to_string(),
        mean_s: total / iters as f64,
        min_s: min,
        extra: Vec::new(),
    }
}

/// Noise allowance of the `--check` gate: a bounded-execution minimum may
/// drift up to this factor over the committed baseline before the gate
/// fails. Generous because baseline and gate may run on different machines;
/// genuine algorithmic regressions (no longer O(budget)) blow well past it.
const CHECK_TOLERANCE: f64 = 2.0;

/// The newest committed `BENCH_pr<N>.json` (highest `N`) in the working
/// directory — the default `--check` baseline.
fn newest_committed_baseline() -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(n) = name
            .strip_prefix("BENCH_pr")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|&(b, _)| n > b) {
            best = Some((n, name));
        }
    }
    best.map(|(_, name)| name)
}

/// Compares this run's `plan_execution/*` minima against `baseline`
/// (a previous snapshot file); returns the failure messages.
fn check_against_baseline(samples: &[Sample], baseline_path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let json = beas_serve::parse_json(&text)
        .unwrap_or_else(|e| panic!("bad baseline JSON in {baseline_path}: {e}"));
    let entries = json
        .get("benchmarks")
        .and_then(beas_serve::Json::as_arr)
        .unwrap_or_else(|| panic!("baseline {baseline_path} has no `benchmarks` array"));
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for entry in entries {
        let Some(name) = entry.get("name").and_then(beas_serve::Json::as_str) else {
            continue;
        };
        if !name.starts_with("plan_execution/") {
            continue;
        }
        let Some(base_min) = entry.get("min_s").and_then(beas_serve::Json::as_f64) else {
            continue;
        };
        let Some(current) = samples.iter().find(|s| s.name == name) else {
            failures.push(format!(
                "baseline entry `{name}` was not measured by this run"
            ));
            continue;
        };
        checked += 1;
        let limit = base_min * CHECK_TOLERANCE;
        if current.min_s > limit {
            failures.push(format!(
                "{name}: min {:.6}s exceeds baseline {:.6}s x{CHECK_TOLERANCE} = {:.6}s",
                current.min_s, base_min, limit
            ));
        } else {
            println!(
                "check {name}: min {:.6}s vs baseline {:.6}s (limit {:.6}s) ok",
                current.min_s, base_min, limit
            );
        }
    }
    if checked == 0 {
        failures.push(format!(
            "baseline {baseline_path} contains no plan_execution/* entries"
        ));
    }
    failures
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut baseline: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" => {
                // value optional: a bare `--check` gates against the newest
                // committed BENCH_pr<N>.json in the working directory
                match argv.get(i + 1) {
                    Some(path) if !path.starts_with("--") => {
                        baseline = Some(path.clone());
                        i += 2;
                    }
                    _ => {
                        baseline = Some(newest_committed_baseline().unwrap_or_else(|| {
                            eprintln!(
                                "--check: no committed BENCH_pr<N>.json baseline found \
                                 in the working directory"
                            );
                            std::process::exit(2);
                        }));
                        i += 1;
                    }
                }
            }
            other if !other.starts_with("--") && out_path.is_none() => {
                out_path = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("unknown argument `{other}` (usage: perf_snapshot [OUT.json] [--check BASELINE.json])");
                std::process::exit(2);
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_local.json".to_string());
    const ITERS: usize = 5;
    let mut samples: Vec<Sample> = Vec::new();

    // ------------------------------------------------ plan_execution (bounded)
    for scale in [1usize, 3] {
        let profile = BenchProfile {
            scale,
            queries: 5,
            ..BenchProfile::quick()
        };
        let prep = prepare(tpch_lite(scale, 42), &profile);
        let plans: Vec<_> = prep
            .queries
            .iter()
            .filter_map(|q| prep.beas.plan(&q.query, ResourceSpec::Ratio(0.05)).ok())
            .collect();
        samples.push(measure(
            &format!("plan_execution/bounded/{scale}"),
            ITERS,
            || {
                for plan in &plans {
                    let out = prep.beas.execute(plan).expect("execute");
                    std::hint::black_box(out.answers.len());
                }
            },
        ));
    }

    // ------------------------------------------------ plan_execution (full)
    // exact evaluation of the same workload over the full data: the
    // end-to-end mask-kernel scan/join/aggregate path with no budget
    {
        let profile = BenchProfile {
            scale: 2,
            queries: 5,
            ..BenchProfile::quick()
        };
        let prep = prepare(tpch_lite(2, 42), &profile);
        let db = prep.db();
        let exprs: Vec<_> = prep
            .queries
            .iter()
            .filter_map(|gq| gq.query.to_query_expr(&db.schema).ok())
            .collect();
        assert!(!exprs.is_empty(), "full-eval workload produced no queries");
        samples.push(measure("plan_execution/full_eval", ITERS, || {
            for expr in &exprs {
                let out = beas_relal::eval_query(expr, &*db).expect("full eval");
                std::hint::black_box(out.len());
            }
        }));
    }

    // ------------------------------------------------- access (materialize)
    // the zero-conversion fetch path: materialize every stored X-key of the
    // largest template family's deepest (exact) level into a relation
    {
        let profile = BenchProfile {
            scale: 2,
            queries: 5,
            ..BenchProfile::quick()
        };
        let prep = prepare(tpch_lite(2, 42), &profile);
        let family = prep
            .beas
            .catalog()
            .families()
            .iter()
            .max_by_key(|f| f.levels.last().map_or(0, |l| l.stored_tuples()))
            .expect("at least one template family")
            .clone();
        let deepest = family.levels.len() - 1;
        let xkeys = family.levels[deepest].xkeys();
        let mut s = measure("access/materialize/deepest", ITERS, || {
            let rel = family
                .materialize(deepest, &xkeys)
                .expect("materialize deepest level");
            std::hint::black_box(rel.len());
        });
        s.extra.push((
            "tuples".to_string(),
            family.levels[deepest].stored_tuples().to_string(),
        ));
        samples.push(s);
    }

    // --------------------------------------------------- concurrent_serving
    let profile = BenchProfile::quick();
    let prep = prepare_with_threads(tpch_lite(2, profile.seed), &profile, Some(1));
    let spec = ResourceSpec::Ratio(0.05);
    const ROUNDS: usize = 10;
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for clients in [1usize, available.max(2)] {
        let mut digest = 0u64;
        let mut s = measure(
            &format!("concurrent_serving/serve/{clients}-clients"),
            ITERS,
            || {
                let run = measure_concurrent_serving(&prep, spec, clients, ROUNDS);
                digest = run.digest;
            },
        );
        s.extra
            .push(("digest".to_string(), format!("\"{digest:016x}\"")));
        samples.push(s);
    }

    // ------------------------------------------------------- serving (HTTP)
    // one keep-alive connection issuing the demo query against an in-process
    // beas-serve server: the end-to-end network-path latency per answer
    {
        use beas_bench::serving::{demo_engine, demo_query_json};
        use beas_core::ServeHandle;
        use beas_serve::{query_body, serve, Client, Json, ServeConfig, TenantPolicy};

        let demo = demo_engine(10_000);
        let server = serve(
            ServeHandle::new(std::sync::Arc::clone(&demo.engine)),
            ServeConfig::default()
                .workers(2)
                .tenant("snapshot", TenantPolicy::with_rate(1e12, 1e12))
                .default_tenant("snapshot"),
        )
        .expect("start server");
        let body = query_body(None, ResourceSpec::Ratio(0.05), &demo_query_json());
        let mut client = Client::connect(server.addr(), Duration::from_secs(30)).expect("connect");
        const REQUESTS: usize = 50;
        let mut digest = String::new();
        let mut s = measure("serving/http_query/keepalive", ITERS, || {
            for _ in 0..REQUESTS {
                let response = client.post("/query", &body).expect("query");
                assert_eq!(response.status, 200, "{}", response.body);
                digest = response
                    .json()
                    .expect("answer json")
                    .get("digest")
                    .and_then(Json::as_str)
                    .expect("digest")
                    .to_string();
            }
        });
        // per-request means are more comparable than per-batch
        s.mean_s /= REQUESTS as f64;
        s.min_s /= REQUESTS as f64;
        s.extra
            .push(("digest".to_string(), format!("\"{digest}\"")));
        samples.push(s);
        server.shutdown();
    }

    // --------------------------------------------------------------- cluster
    // scatter-gather through the 3-shard coordinator: the cross-shard demo
    // join at a bounded spec, digest recorded (it must match single-node —
    // asserted by the crate's tests; here it documents the answer identity)
    {
        use beas_bench::cluster::{demo_cluster, demo_cluster_join};
        let cluster = demo_cluster(4_000, 3);
        let query = demo_cluster_join(cluster.schema());
        let mut digest = 0u64;
        let mut s = measure("cluster/answer/3-shards", ITERS, || {
            let answer = cluster
                .answer(&query, ResourceSpec::Ratio(0.05))
                .expect("cluster answer");
            digest = answer.answers.digest();
        });
        s.extra
            .push(("digest".to_string(), format!("\"{digest:016x}\"")));
        samples.push(s);
    }

    // --------------------------------------------------------------- storage
    // cold (build + first snapshot) vs warm (snapshot load + WAL replay)
    // start of the durable demo engine: the whole point of beas-store is
    // that the second number is much smaller than the first, at identical
    // answers — both asserted here, not just recorded
    {
        use beas_bench::serving::{demo_constraint, demo_db, demo_query_json};
        use beas_core::{Beas, UpdateBatch};

        const STORE_ROWS: i64 = 20_000;
        let dir = std::env::temp_dir().join(format!("beas-perf-store-{}", std::process::id()));
        let answer_digest = |engine: &Beas| {
            let query = beas_serve::query_from_json(&demo_query_json(), engine.schema())
                .expect("demo query");
            let answer = engine
                .answer(&query, ResourceSpec::Ratio(0.05))
                .expect("answer");
            answer.answers.digest()
        };

        let mut cold_digest = 0u64;
        let mut s = measure("storage/cold_open", ITERS, || {
            let _ = std::fs::remove_dir_all(&dir);
            let engine = Beas::builder(demo_db(STORE_ROWS))
                .constraint(demo_constraint())
                .persist_to(&dir)
                .build()
                .expect("cold build + persist");
            cold_digest = answer_digest(&engine);
        });
        s.extra
            .push(("digest".to_string(), format!("\"{cold_digest:016x}\"")));
        let cold_min = s.min_s;
        samples.push(s);

        // leave a WAL tail behind the snapshot so the warm path also pays
        // (and measures) batch replay
        {
            let engine = Beas::open(&dir).expect("reopen for updates");
            for round in 0..3i64 {
                let batch = (0..10i64).fold(UpdateBatch::new(), |batch, i| {
                    batch.insert(
                        "poi",
                        vec![
                            beas_relal::Value::from(format!("{round}/{i} Wal St")),
                            beas_relal::Value::from("hotel"),
                            beas_relal::Value::from("NYC"),
                            beas_relal::Value::Double(40.0 + (round * 10 + i) as f64),
                        ],
                    )
                });
                engine.apply_update(&batch).expect("logged update");
            }
        }
        let expected = {
            let engine = Beas::open(&dir).expect("reference warm open");
            assert_eq!(engine.stats().replayed_batches, 3, "WAL tail went missing");
            answer_digest(&engine)
        };

        let mut warm_digest = 0u64;
        let mut s = measure("storage/warm_open", ITERS, || {
            let engine = Beas::open(&dir).expect("warm open");
            warm_digest = answer_digest(&engine);
        });
        assert_eq!(
            warm_digest, expected,
            "warm restart changed the answer digest"
        );
        s.extra
            .push(("digest".to_string(), format!("\"{warm_digest:016x}\"")));
        s.extra
            .push(("replayed_batches".to_string(), "3".to_string()));
        assert!(
            s.min_s < cold_min,
            "warm open ({:.6}s) must beat the cold build ({cold_min:.6}s)",
            s.min_s
        );
        samples.push(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --------------------------------------------------------------- output
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_s\": {:.6}, \"min_s\": {:.6}",
            s.name, s.mean_s, s.min_s
        ));
        for (k, v) in &s.extra {
            json.push_str(&format!(", \"{k}\": {v}"));
        }
        json.push('}');
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("{json}");
    println!("wrote {out_path}");

    // ------------------------------------------------------------ perf gate
    if let Some(baseline_path) = baseline {
        let failures = check_against_baseline(&samples, &baseline_path);
        if failures.is_empty() {
            println!("perf gate: all bounded-execution measurements within {CHECK_TOLERANCE}x of {baseline_path}");
        } else {
            for f in &failures {
                eprintln!("perf gate FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
