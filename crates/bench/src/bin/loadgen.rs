//! A closed-loop contract checker for a `beas-serve` server or a cluster.
//!
//! ```text
//! # against a running server
//! cargo run --release -p beas-bench --bin loadgen -- \
//!     --url 127.0.0.1:8642 --tenant gold --spec ratio:0.05 --clients 4 --requests 200
//!
//! # self-hosted: starts the demo engine + server in process first
//! cargo run --release -p beas-bench --bin loadgen -- --self-host --clients 4 --requests 200
//!
//! # distributed: closed loop against an in-process 3-shard cluster
//! # coordinator (budget-proportional scatter-gather; the digest is checked
//! # against the single-node engine every request)
//! cargo run --release -p beas-bench --bin loadgen -- --cluster 3 --clients 4 --requests 200
//! ```
//!
//! Each client keeps one HTTP/1.1 keep-alive connection and issues
//! `POST /query` requests back-to-back (closed loop) with the demo query;
//! the report shows per-status counts and whether every served answer's
//! digest matched across the run, and `--eta` runs exit non-zero on any
//! answer that claims feasibility below its target. Latency and throughput
//! are measured by the `serve_http` and `cluster_tcp` workloads of
//! `benchmark/`, not here. Specs are parsed with the canonical
//! [`ResourceSpec`] grammar (`ratio:<alpha>` / `tuples:<n>`). A flag that
//! cannot be honoured in the chosen mode is refused with exit 2.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::net::SocketAddr;
use std::str::FromStr;
use std::time::Duration;

use beas_bench::serving::{demo_engine, demo_query_json};
use beas_core::{AccuracyTarget, ResourceSpec, ServeHandle};
use beas_serve::{
    query_body, serve, target_body, Client, Json, RunningServer, ServeConfig, TenantPolicy,
};

const USAGE: &str = "usage: loadgen [--url host:port | --self-host | --cluster N [--flaky]] \
     [--tenant NAME] [--spec ratio:0.05 | --eta 0.95] [--clients N] \
     [--requests N] [--rows N] [--store DIR] [--updates N] [--linger]";

/// Flags a mode cannot honour: `(mode flag, flags it excludes, why)`.
const CONFLICTS: [(&str, &[&str], &str); 3] = [
    (
        "--url",
        &["--self-host", "--store", "--updates"],
        "--url targets a running server; --self-host, --store and --updates start one in process",
    ),
    (
        "--cluster",
        &[
            "--url",
            "--self-host",
            "--store",
            "--updates",
            "--tenant",
            "--linger",
        ],
        "the cluster loop drives an in-memory coordinator, with no HTTP server, store or tenant",
    ),
    (
        "--cluster",
        &["--eta"],
        "--eta drives the HTTP serving path; combine it with --self-host or --url \
         (the cluster loop is budget-denominated)",
    ),
];

struct Args {
    url: Option<String>,
    cluster: Option<usize>,
    flaky: bool,
    tenant: Option<String>,
    spec: ResourceSpec,
    eta: Option<AccuracyTarget>,
    clients: usize,
    requests: usize,
    rows: i64,
    store: Option<std::path::PathBuf>,
    updates: usize,
    linger: bool,
}

/// Per-client accounting of an `--eta` (accuracy-targeted) run.
#[derive(Default)]
struct EtaStats {
    /// Targeted answers served (`200`s).
    served: usize,
    /// Answers whose achieved η met the target.
    met: usize,
    /// Answers honestly flagged infeasible at the budget cap.
    infeasible: usize,
    /// Answers claiming feasibility with η below the target — contract
    /// violations; any of these fails the run.
    violations: usize,
    /// Answers whose first budget came off a learned curve.
    curve_backed: usize,
    /// Sum of |predicted − actual| spend, in tuples.
    spend_error_sum: u64,
    /// Sum of actual spend, in tuples.
    spent_sum: u64,
}

impl EtaStats {
    /// Folds one targeted answer body into the accounting.
    fn absorb(&mut self, body: &Json, target_eta: f64) {
        self.served += 1;
        let eta = body.get("eta").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let feasible = body.get("feasible").and_then(Json::as_bool) == Some(true);
        let predicted = body
            .get("predicted_budget")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            .max(0) as u64;
        let spent = body.get("spent").and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        if feasible {
            if eta >= target_eta {
                self.met += 1;
            } else {
                self.violations += 1;
            }
        } else {
            self.infeasible += 1;
        }
        if body.get("curve_backed").and_then(Json::as_bool) == Some(true) {
            self.curve_backed += 1;
        }
        self.spend_error_sum += predicted.abs_diff(spent);
        self.spent_sum += spent;
    }

    fn merge(&mut self, other: &EtaStats) {
        self.served += other.served;
        self.met += other.met;
        self.infeasible += other.infeasible;
        self.violations += other.violations;
        self.curve_backed += other.curve_backed;
        self.spend_error_sum += other.spend_error_sum;
        self.spent_sum += other.spent_sum;
    }
}

/// Parses one flag value, naming the flag in the error.
fn parsed<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("bad {flag} `{text}`: {e}"))
}

/// Parses the arguments after the program name. Every error, including a
/// flag the chosen mode cannot honour, is a message for exit code 2.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        url: None,
        cluster: None,
        flaky: false,
        tenant: None,
        spec: ResourceSpec::Ratio(0.05),
        eta: None,
        clients: 4,
        requests: 100,
        rows: 10_000,
        store: None,
        updates: 0,
        linger: false,
    };
    let mut given: Vec<&str> = Vec::new();
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        let mut value = || {
            rest.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--url" => args.url = Some(value()?.to_string()),
            // self-hosting is the mode without --url; the flag only makes it explicit
            "--self-host" => {}
            "--cluster" => args.cluster = Some(parsed(flag, value()?)?),
            "--flaky" => args.flaky = true,
            "--tenant" => args.tenant = Some(value()?.to_string()),
            "--spec" => args.spec = parsed(flag, value()?)?,
            "--eta" => {
                // accept both the bare value (`0.95`) and the canonical
                // target form (`eta:0.95@ratio:0.5`)
                let text = value()?;
                let target = if text.contains(':') {
                    parsed(flag, text)?
                } else {
                    AccuracyTarget::new(parsed(flag, text)?)
                        .map_err(|e| format!("bad {flag} `{text}`: {e}"))?
                };
                args.eta = Some(target);
            }
            "--clients" => args.clients = parsed(flag, value()?)?,
            "--requests" => args.requests = parsed(flag, value()?)?,
            "--rows" => args.rows = parsed(flag, value()?)?,
            "--store" => args.store = Some(value()?.into()),
            "--updates" => args.updates = parsed(flag, value()?)?,
            "--linger" => args.linger = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        given.push(flag);
    }
    for (mode, excluded, why) in CONFLICTS.iter().filter(|(mode, ..)| given.contains(mode)) {
        if let Some(flag) = excluded.iter().find(|flag| given.contains(flag)) {
            return Err(format!("{mode} cannot be combined with {flag}: {why}"));
        }
    }
    if args.flaky && args.cluster.is_none() {
        return Err("--flaky injects faults into the cluster transport; it needs --cluster".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(shards) = args.cluster {
        run_cluster(&args, shards);
        return;
    }

    let (hosted, addr) = match &args.url {
        Some(url) => (None, resolve(url)),
        None => {
            let server = self_host(&args);
            let addr = server.addr();
            (Some(server), addr)
        }
    };

    let body = match &args.eta {
        // accuracy-denominated closed loop: ask for η, let the server's SLO
        // planner pick (and learn) the budget
        Some(target) => target_body(args.tenant.as_deref(), target, &demo_query_json()),
        None => query_body(args.tenant.as_deref(), args.spec, &demo_query_json()),
    };
    let (counts, digests, stats) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..args.clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(30)).expect("connect");
                    let mut counts = BTreeMap::<u16, usize>::new();
                    let mut digests = BTreeSet::new();
                    let mut eta = EtaStats::default();
                    for _ in 0..args.requests {
                        match client.post("/query", &body) {
                            Ok(response) => {
                                *counts.entry(response.status).or_default() += 1;
                                if response.status == 200 {
                                    if let Ok(v) = response.json() {
                                        if let Some(d) = v.get("digest").and_then(Json::as_str) {
                                            digests.insert(d.to_string());
                                        }
                                        if let Some(target) = &args.eta {
                                            eta.absorb(&v, target.eta);
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                eprintln!("transport error: {e}");
                                *counts.entry(0).or_default() += 1;
                            }
                        }
                    }
                    (counts, digests, eta)
                })
            })
            .collect();
        let mut counts = BTreeMap::<u16, usize>::new();
        let mut digests = BTreeSet::<String>::new();
        let mut stats = EtaStats::default();
        for client in clients {
            let (c, d, e) = client.join().expect("loadgen client panicked");
            for (status, n) in c {
                *counts.entry(status).or_default() += n;
            }
            digests.extend(d);
            stats.merge(&e);
        }
        (counts, digests, stats)
    });
    let ok = counts.get(&200).copied().unwrap_or(0);

    println!(
        "\nloadgen: {} clients x {} requests, tenant {}, {}",
        args.clients,
        args.requests,
        args.tenant.as_deref().unwrap_or("(default)"),
        match &args.eta {
            Some(target) => format!("target {target}"),
            None => format!("spec {}", args.spec),
        }
    );
    for (status, n) in &counts {
        match status {
            0 => println!("  ERR          {n}"),
            s => println!("  {s}          {n}"),
        }
    }
    println!(
        "  digests      {} distinct over {} OK answers{}",
        digests.len(),
        ok,
        if digests.len() <= 1 {
            " (stable)"
        } else {
            " (answers changed mid-run: updates?)"
        }
    );
    // the canonical answer digest of the run, greppable (`^digest `) — the
    // restart-smoke CI job compares it across a kill -9 and a warm reopen
    if let Some(digest) = digests.iter().next().filter(|_| digests.len() == 1) {
        println!("digest {digest}");
    }
    if let Some(target) = &args.eta {
        let served = stats.served.max(1) as f64;
        println!(
            "  slo          {} met / {} infeasible / {} VIOLATED of {} served (target η = {})",
            stats.met, stats.infeasible, stats.violations, stats.served, target.eta
        );
        println!(
            "  curve        {}/{} answers curve-backed ({:.0}%)",
            stats.curve_backed,
            stats.served,
            100.0 * stats.curve_backed as f64 / served
        );
        println!(
            "  spend        mean {:.0} tuples/answer, predicted-vs-actual error mean {:.1} tuples",
            stats.spent_sum as f64 / served,
            stats.spend_error_sum as f64 / served
        );
        // the accuracy-SLO contract under load: every answer either meets
        // the target or says so honestly — any other outcome fails the run
        if stats.violations > 0 {
            eprintln!(
                "SLO VIOLATION: {} answers claimed feasibility below η",
                stats.violations
            );
            std::process::exit(1);
        }
    }
    if args.linger {
        // stay up (server included) until killed — lets harnesses snapshot
        // the report, then simulate a crash with an unclean kill
        println!("lingering until killed");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if let Some(server) = hosted {
        server.shutdown();
    }
}

/// Resolves `--url` (hostnames such as `localhost:8642` too, not just IP
/// literals); exits 2 when it names no address.
fn resolve(url: &str) -> SocketAddr {
    use std::net::ToSocketAddrs;
    let host_port = url.trim_start_matches("http://").trim_end_matches('/');
    host_port
        .to_socket_addrs()
        .unwrap_or_else(|e| {
            eprintln!("cannot resolve --url `{host_port}`: {e}");
            std::process::exit(2);
        })
        .next()
        .unwrap_or_else(|| {
            eprintln!("--url `{host_port}` resolved to no address");
            std::process::exit(2);
        })
}

/// Starts the demo engine + server in process; the requested tenant name
/// (if any) is registered so `--tenant` keeps working. With `--store DIR`
/// the demo engine is durable: an existing store is warm-opened (snapshot +
/// WAL replay), otherwise the freshly built engine is persisted there;
/// `--updates N` applies N logged update batches before any query runs.
fn self_host(args: &Args) -> RunningServer {
    let demo = match &args.store {
        Some(dir) => {
            let (demo, replayed) = beas_bench::serving::demo_engine_durable(args.rows, dir);
            match replayed {
                Some(replayed) => println!("store: warm replayed={replayed}"),
                None => println!("store: cold"),
            }
            demo
        }
        None => demo_engine(args.rows),
    };
    for round in 0..args.updates {
        let batch = (0..10i64).fold(beas_core::UpdateBatch::new(), |batch, i| {
            batch.insert(
                "poi",
                vec![
                    beas_relal::Value::from(format!("{round}/{i} Update Ave")),
                    beas_relal::Value::from("hotel"),
                    beas_relal::Value::from("NYC"),
                    beas_relal::Value::Double(40.0 + (round as i64 * 10 + i) as f64),
                ],
            )
        });
        demo.engine.apply_update(&batch).expect("update batch");
    }
    if args.updates > 0 {
        println!(
            "applied {} update batches before serving (|D| = {})",
            args.updates,
            demo.engine.database().total_tuples()
        );
    }
    let tenant = args.tenant.as_deref().unwrap_or("loadgen");
    let server = serve(
        ServeHandle::new(demo.engine),
        ServeConfig::default()
            .workers(args.clients.max(2) + 2)
            .tenant(tenant, TenantPolicy::with_rate(1e12, 1e12))
            .default_tenant(tenant),
    )
    .expect("start self-hosted server");
    println!("self-hosted demo server on http://{}", server.addr());
    server
}

/// Closed-loop load against an in-process cluster coordinator: each client
/// thread answers the demo cross-shard join back-to-back through
/// `ClusterHandle::answer`, and every answer's digest is checked against the
/// single-node engine's answer at the same spec. The per-shard budget
/// allocation and the metrics the coordinator exposes under `GET /metrics`
/// are printed at the end.
///
/// With `--flaky` the transport is wrapped in a seeded
/// [`FaultInjectingTransport`](beas_cluster::FaultInjectingTransport)
/// (drops, disconnects, garbles, delays) under
/// `DegradedPolicy::PartialAnswer`: partial answers are counted, and every
/// **non-partial** answer is still required to match the single-node digest
/// bit-for-bit — the fault-tolerance contract under load.
fn run_cluster(args: &Args, shards: usize) {
    use std::sync::Arc;

    use beas_bench::cluster::{
        demo_cluster, demo_cluster_constraint, demo_cluster_db, demo_cluster_join,
    };
    use beas_cluster::{
        DegradedPolicy, FaultInjectingTransport, FaultRates, InProcessTransport, RetryPolicy,
        ShardTransport,
    };
    use beas_core::Beas;

    let mut cluster = demo_cluster(args.rows, shards.max(1));
    let faulty = if args.flaky {
        cluster.set_degraded_policy(DegradedPolicy::PartialAnswer);
        cluster.set_retry_policy(RetryPolicy {
            attempts: 4,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_secs(2),
        });
        let inner: Arc<dyn ShardTransport> =
            Arc::new(InProcessTransport::new(cluster.nodes().to_vec()));
        let injector = Arc::new(FaultInjectingTransport::new(
            inner,
            0xF7A4,
            FaultRates::uniform(60),
        ));
        cluster.set_transport(Arc::clone(&injector) as Arc<dyn ShardTransport>);
        Some(injector)
    } else {
        None
    };
    let single = Beas::builder(demo_cluster_db(args.rows))
        .constraint(demo_cluster_constraint())
        .build()
        .expect("single-node reference");
    let query = demo_cluster_join(cluster.schema());
    let reference = single.answer(&query, args.spec).expect("reference answer");
    let expected = reference.answers.digest();
    println!(
        "cluster loadgen: {} shards (partition sizes {:?}), single-node digest {expected:016x}",
        cluster.shards(),
        cluster.partition_sizes()
    );

    let (mismatches, partials) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..args.clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut bad = 0usize;
                    let mut partials = 0usize;
                    for _ in 0..args.requests {
                        let answer = cluster.answer(&query, args.spec).expect("cluster answer");
                        if answer.partial {
                            // a degraded answer must still be an honest bound
                            partials += 1;
                            if answer.eta > reference.eta {
                                bad += 1;
                            }
                        } else if answer.answers.digest() != expected
                            || answer.eta.to_bits() != reference.eta.to_bits()
                        {
                            bad += 1;
                        }
                    }
                    (bad, partials)
                })
            })
            .collect();
        clients.into_iter().fold((0, 0), |(bad, partials), client| {
            let (b, p) = client.join().expect("cluster client panicked");
            (bad + b, partials + p)
        })
    });
    let total = args.clients.max(1) * args.requests;
    println!(
        "\ncluster loadgen: {} clients x {} requests, spec {}",
        args.clients, args.requests, args.spec
    );
    println!(
        "  digest       {}",
        if mismatches == 0 {
            format!(
                "all {} non-partial answers == single-node answer (bit-for-bit)",
                total - partials
            )
        } else {
            format!("{mismatches}/{total} answers VIOLATED the contract")
        }
    );
    if let Some(injector) = &faulty {
        println!(
            "  faults       {} injected, {partials}/{total} answers partial",
            injector.injected()
        );
    }
    println!("  metrics      {}", cluster.metrics().to_json());
    if mismatches > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn ci_and_documented_invocations_parse() {
        for line in [
            // chaos-smoke
            "--cluster 3 --flaky --clients 4 --requests 100 --rows 4000",
            // slo-smoke
            "--self-host --clients 2 --requests 40 --rows 4000 --eta 0.9",
            // restart-smoke: the cold run, then the warm reopen
            "--store store-smoke --updates 3 --clients 2 --requests 25 --linger",
            "--store store-smoke --clients 2 --requests 25",
            // the module doc and the README
            "--url 127.0.0.1:8642 --tenant gold --spec ratio:0.05 --clients 4 --requests 200",
            "--self-host --clients 4 --requests 200",
            "--cluster 3 --clients 4 --requests 200",
            "--self-host --eta eta:0.95@ratio:0.5",
        ] {
            if let Err(e) = parse(line) {
                panic!("`{line}` must parse: {e}");
            }
        }
        let cold =
            parse("--store store-smoke --updates 3 --clients 2 --requests 25 --linger").unwrap();
        assert_eq!(
            cold.store.as_deref(),
            Some(std::path::Path::new("store-smoke"))
        );
        assert_eq!((cold.updates, cold.clients, cold.requests), (3, 2, 25));
        assert!(cold.linger && cold.url.is_none() && cold.cluster.is_none());
        let eta = parse("--self-host --eta 0.9").unwrap().eta.unwrap();
        assert_eq!(eta.eta, 0.9);
    }

    #[test]
    fn flags_a_mode_cannot_honour_are_refused_naming_both() {
        for (line, a, b) in [
            ("--url 127.0.0.1:1 --self-host", "--url", "--self-host"),
            ("--url 127.0.0.1:1 --store d", "--url", "--store"),
            ("--url 127.0.0.1:1 --updates 2", "--url", "--updates"),
            ("--cluster 3 --url 127.0.0.1:1", "--cluster", "--url"),
            ("--self-host --cluster 3", "--cluster", "--self-host"),
            ("--cluster 3 --store d", "--cluster", "--store"),
            ("--cluster 3 --updates 1", "--cluster", "--updates"),
            ("--tenant gold --cluster 3", "--cluster", "--tenant"),
            ("--cluster 3 --linger", "--cluster", "--linger"),
            ("--cluster 3 --eta 0.9", "--cluster", "--eta"),
            ("--self-host --flaky", "--flaky", "--cluster"),
        ] {
            match parse(line) {
                Ok(_) => panic!("`{line}` must be refused"),
                Err(e) => assert!(
                    e.contains(a) && e.contains(b),
                    "`{line}`: the message must name {a} and {b}: {e}"
                ),
            }
        }
    }

    #[test]
    fn malformed_values_are_errors_not_panics() {
        for (line, flag) in [
            ("--clients many", "--clients"),
            ("--cluster", "--cluster"),
            ("--spec bogus", "--spec"),
            ("--eta 1.5", "--eta"),
            ("--rows", "--rows"),
            ("--bogus", "--bogus"),
        ] {
            match parse(line) {
                Ok(_) => panic!("`{line}` must be refused"),
                Err(e) => assert!(e.contains(flag), "`{line}`: {e}"),
            }
        }
    }
}
