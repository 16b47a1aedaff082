//! Serving over the network: builds the demo poi engine, starts the
//! `beas-serve` front-end with two tenants (a generous `gold` tier and a
//! tightly budgeted `free` tier), and prints a curl quickstart — including
//! the expected answer digest of the demo query, so a client (or the CI
//! smoke job) can verify that served answers are bit-for-bit the engine's
//! in-process answers.
//!
//! ```text
//! cargo run --release --example serve -- [--port 8642] [--rows 20000]
//! ```
//!
//! The server runs until the process is killed.

use beas::prelude::*;
use beas_bench::serving::{demo_engine, demo_query_json};

fn main() {
    // ---- arguments
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut port = 8642u16;
    let mut rows = 20_000i64;
    let mut i = 0;
    let value = |i: usize, flag: &str| -> &str {
        argv.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{flag} needs a value (usage: serve [--port N] [--rows N])");
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--port" => {
                port = value(i, "--port").parse().expect("--port");
                i += 2;
            }
            "--rows" => {
                rows = value(i, "--rows").parse().expect("--rows");
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}` (usage: serve [--port N] [--rows N])");
                std::process::exit(2);
            }
        }
    }

    // ---- the engine (offline C1) and the expected answer digest
    let demo = demo_engine(rows);
    println!(
        "engine: |D| = {} tuples, {} families, min_shard_rows = {}",
        demo.engine.database().total_tuples(),
        demo.engine.catalog().len(),
        demo.engine.min_shard_rows(),
    );
    let spec = ResourceSpec::Ratio(0.05);
    let expected = demo
        .engine
        .prepare_shared(&demo.query)
        .expect("prepare")
        .answer(spec)
        .expect("answer");
    println!(
        "demo query at {spec}: {} answers, eta = {:.3}, expected digest: {:016x}",
        expected.answers.len(),
        expected.eta,
        expected.answers.digest(),
    );

    // ---- the server: two tenant classes, budget enforced at the door
    let full_budget = demo.engine.catalog().budget(&ResourceSpec::FULL).unwrap() as f64;
    let server = serve(
        ServeHandle::new(demo.engine),
        ServeConfig::default()
            .bind(format!("127.0.0.1:{port}"))
            .tenant(
                "gold",
                TenantPolicy::with_rate(100.0 * full_budget, 200.0 * full_budget),
            )
            .tenant(
                "free",
                TenantPolicy::with_rate(full_budget / 2.0, full_budget * 2.0),
            )
            .default_tenant("gold"),
    )
    .expect("start server");
    let addr = server.addr();
    println!("\nserving on http://{addr}  (tenants: gold [default], free)\n");

    let query = demo_query_json();
    println!("quickstart:");
    println!("  curl -s http://{addr}/healthz");
    println!("  curl -s http://{addr}/schema");
    println!(
        "  curl -s http://{addr}/query -d '{}'",
        beas::serve::query_body(None, spec, &query)
    );
    println!(
        "  curl -s http://{addr}/query -d '{}'   # tight budget: expect 429s once the bucket drains",
        beas::serve::query_body(Some("free"), ResourceSpec::FULL, &query)
    );
    println!(
        "  curl -s http://{addr}/update -d '{{\"inserts\":[{{\"relation\":\"poi\",\"row\":[\"1 Demo St\",\"hotel\",\"NYC\",42.5]}}]}}'"
    );
    println!("  curl -s http://{addr}/metrics");
    println!("\n(the `digest` field of an answer at spec {spec} should read {:016x} until an update lands)", expected.answers.digest());

    // serve until killed
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
