//! Seeded chaos property suite for fault-tolerant cluster serving.
//!
//! A [`FaultInjectingTransport`] drops, disconnects, garbles and delays
//! protocol calls by a seeded schedule while the coordinator runs under
//! [`DegradedPolicy::PartialAnswer`]. The invariant, checked for every
//! random database × query × budget × shard count × thread count:
//!
//! **every answer is either bit-for-bit equal to the healthy answer
//! (relation, η, accessed, exactness), or flagged `partial: true` with an
//! η lower bound the healthy answer satisfies.**
//!
//! A second test holds the invariant with four threads sharing one faulty
//! coordinator. Another kills a shard mid-refinement-session and expects a
//! partial step followed by a clean rejoin; a fourth drives the same story
//! over real TCP shard servers, re-pointing the transport at the rejoined
//! shard's new port.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use beas_cluster::{
    ClusterHandle, DegradedPolicy, FaultInjectingTransport, FaultRates, InProcessTransport,
    RetryPolicy, ShardServer, ShardTransport, TcpShardTransport,
};
use beas_core::{AggQuery, Beas, BeasAnswer, BeasQuery, ConstraintSpec, RaQuery, ResourceSpec};
use beas_relal::{
    AggFunc, Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
};

const CITIES: [&str; 5] = ["nyc", "la", "chi", "bos", "sea"];
const KINDS: [&str; 3] = ["hotel", "museum", "cafe"];

/// A random 3-relation database; `spend` floats include NaN, ±∞ and -0.0.
fn random_db(rng: &mut StdRng) -> Database {
    let schema = DatabaseSchema::new(vec![
        RelationSchema::new(
            "person",
            vec![Attribute::categorical("city"), Attribute::int("age")],
        ),
        RelationSchema::new(
            "poi",
            vec![
                Attribute::categorical("city"),
                Attribute::categorical("kind"),
                Attribute::int("stars"),
            ],
        ),
        RelationSchema::new(
            "visit",
            vec![Attribute::categorical("city"), Attribute::double("spend")],
        ),
    ]);
    let mut db = Database::new(schema);
    for _ in 0..rng.gen_range(20..50) {
        db.insert_row(
            "person",
            vec![
                Value::from(CITIES[rng.gen_range(0..CITIES.len())]),
                Value::Int(rng.gen_range(18..80)),
            ],
        )
        .unwrap();
    }
    for _ in 0..rng.gen_range(30..60) {
        db.insert_row(
            "poi",
            vec![
                Value::from(CITIES[rng.gen_range(0..CITIES.len())]),
                Value::from(KINDS[rng.gen_range(0..KINDS.len())]),
                Value::Int(rng.gen_range(0..6)),
            ],
        )
        .unwrap();
    }
    for _ in 0..rng.gen_range(20..50) {
        let spend = match rng.gen_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => (rng.gen_range(-500.0..500.0f64) * 8.0).round() / 8.0,
        };
        db.insert_row(
            "visit",
            vec![
                Value::from(CITIES[rng.gen_range(0..CITIES.len())]),
                Value::Double(spend),
            ],
        )
        .unwrap();
    }
    db
}

/// A random query: bounded selection, two-atom join, or a float SUM over the
/// NaN/∞-bearing column.
fn random_query(rng: &mut StdRng, schema: &DatabaseSchema) -> BeasQuery {
    match rng.gen_range(0..3) {
        0 => {
            let mut b = SpcQueryBuilder::new(schema);
            let p = b.atom("poi", "p").unwrap();
            b.bind_const(p, "city", CITIES[rng.gen_range(0..CITIES.len())])
                .unwrap();
            b.output(p, "stars", "stars").unwrap();
            b.build().unwrap().into()
        }
        1 => {
            let mut b = SpcQueryBuilder::new(schema);
            let p = b.atom("person", "p").unwrap();
            let q = b.atom("poi", "q").unwrap();
            b.join((p, "city"), (q, "city")).unwrap();
            b.output(p, "age", "age").unwrap();
            b.output(q, "stars", "stars").unwrap();
            b.build().unwrap().into()
        }
        _ => {
            let mut b = SpcQueryBuilder::new(schema);
            let v = b.atom("visit", "v").unwrap();
            b.output(v, "city", "city").unwrap();
            b.output(v, "spend", "spend").unwrap();
            let inner = RaQuery::Spc(b.build().unwrap());
            AggQuery::new(
                inner,
                vec!["city".to_string()],
                AggFunc::Sum,
                "spend",
                "total",
            )
            .unwrap()
            .into()
        }
    }
}

fn assert_bit_equal(a: &BeasAnswer, b: &BeasAnswer, ctx: &str) {
    assert_eq!(
        a.answers.digest(),
        b.answers.digest(),
        "{ctx}: digests differ"
    );
    assert_eq!(
        a.eta.to_bits(),
        b.eta.to_bits(),
        "{ctx}: eta differs ({} vs {})",
        a.eta,
        b.eta
    );
    assert_eq!(a.exact, b.exact, "{ctx}: exactness differs");
    assert_eq!(a.accessed, b.accessed, "{ctx}: accessed differs");
    assert_eq!(a.budget, b.budget, "{ctx}: budget differs");
}

/// The chaos invariant for one answer against its healthy reference.
fn assert_chaos_invariant(answer: &BeasAnswer, healthy: &BeasAnswer, ctx: &str) {
    if answer.partial {
        assert!(
            answer.eta <= healthy.eta,
            "{ctx}: partial η {} must lower-bound healthy η {}",
            answer.eta,
            healthy.eta
        );
        assert!(
            answer.eta >= 0.0 && answer.eta.is_finite(),
            "{ctx}: partial η must be a valid bound, got {}",
            answer.eta
        );
    } else {
        assert_bit_equal(answer, healthy, ctx);
        assert!(!healthy.partial, "{ctx}: healthy answer flagged partial");
    }
}

/// Builds a cluster over `db` and rewires it through a seeded fault
/// injector, returning the injector handle for outage switches.
fn chaos_cluster(
    db: Database,
    shards: usize,
    threads: usize,
    seed: u64,
    rates: FaultRates,
) -> (ClusterHandle, Arc<FaultInjectingTransport>) {
    let mut cluster = ClusterHandle::builder(db, shards)
        .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
        .num_threads(threads)
        .min_shard_rows(2)
        .degraded_policy(DegradedPolicy::PartialAnswer)
        .retry_policy(RetryPolicy {
            attempts: 4,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_secs(2),
        })
        .build()
        .unwrap();
    let inner: Arc<dyn ShardTransport> =
        Arc::new(InProcessTransport::new(cluster.nodes().to_vec()));
    let faulty = Arc::new(FaultInjectingTransport::new(inner, seed, rates));
    cluster.set_transport(Arc::clone(&faulty) as Arc<dyn ShardTransport>);
    (cluster, faulty)
}

#[test]
fn chaotic_answers_are_either_bit_for_bit_or_honestly_partial() {
    let mut rng = StdRng::seed_from_u64(0xC4A05);
    let mut partials = 0usize;
    let mut clean = 0usize;
    let mut injected = 0u64;
    for round in 0..4 {
        let db = random_db(&mut rng);
        let single = Beas::builder(db.clone())
            .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
            .num_threads(1)
            .min_shard_rows(2)
            .build()
            .unwrap();
        let queries: Vec<BeasQuery> = (0..3)
            .map(|_| random_query(&mut rng, single.schema()))
            .collect();
        let budgets = [
            ResourceSpec::Tuples(9),
            ResourceSpec::Ratio(0.3),
            ResourceSpec::FULL,
        ];
        // light rounds exercise retry absorption, heavy rounds exhaustion
        let rates = if round % 2 == 0 {
            FaultRates::uniform(25)
        } else {
            FaultRates::uniform(150)
        };
        for shards in [1usize, 2, 3] {
            for threads in [1usize, 4] {
                let seed: u64 = rng.gen_range(0..u64::MAX);
                let (cluster, faulty) = chaos_cluster(db.clone(), shards, threads, seed, rates);
                for (qi, query) in queries.iter().enumerate() {
                    for (bi, &budget) in budgets.iter().enumerate() {
                        let ctx = format!(
                            "round {round}, shards {shards}, threads {threads}, \
                             query {qi}, budget {bi} ({budget}), seed {seed}"
                        );
                        let healthy = single.answer(query, budget).unwrap();
                        let answer = cluster.answer(query, budget).unwrap();
                        assert_chaos_invariant(&answer, &healthy, &ctx);
                        if answer.partial {
                            partials += 1;
                        } else {
                            clean += 1;
                        }
                    }
                }
                injected += faulty.injected();
            }
        }
    }
    assert!(injected > 0, "the fault schedule must actually inject");
    assert!(clean > 0, "some answers must survive the chaos clean");
    assert!(
        partials > 0,
        "the heavy rounds must exhaust some retry budgets \
         ({clean} clean answers, {injected} faults injected)"
    );
}

#[test]
fn threads_sharing_one_faulty_coordinator_keep_the_invariant() {
    const THREADS: usize = 4;
    const ANSWERS: usize = 25;
    let mut rng = StdRng::seed_from_u64(0x5AA7ED);
    let db = random_db(&mut rng);
    let single = Beas::builder(db.clone())
        .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
        .min_shard_rows(2)
        .build()
        .unwrap();
    let budgets = [
        ResourceSpec::Tuples(9),
        ResourceSpec::Ratio(0.3),
        ResourceSpec::FULL,
    ];
    // every (query, budget) pair with its healthy answer, computed up front
    let cases: Vec<(BeasQuery, ResourceSpec, BeasAnswer)> = (0..3)
        .flat_map(|_| {
            let query = random_query(&mut rng, single.schema());
            budgets.map(|budget| {
                let healthy = single.answer(&query, budget).unwrap();
                (query.clone(), budget, healthy)
            })
        })
        .collect();
    // heavy enough that a few answers exhaust their retries and come back
    // partial, while most are absorbed and stay bit-for-bit
    let (cluster, faulty) = chaos_cluster(db, 3, 2, 0xF7A4, FaultRates::uniform(120));

    // one coordinator, one transport, one fault schedule: the threads'
    // calls interleave through all three, from a common start
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cluster, cases, start) = (&cluster, &cases, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..ANSWERS {
                    let (query, budget, healthy) = &cases[(t * ANSWERS + i) % cases.len()];
                    let answer = cluster.answer(query, *budget).unwrap();
                    let ctx = format!("thread {t}, answer {i}, budget {budget}");
                    assert_chaos_invariant(&answer, healthy, &ctx);
                }
            });
        }
    });
    assert!(
        faulty.injected() > 0,
        "the fault schedule must actually inject"
    );
}

#[test]
fn shard_killed_mid_session_degrades_then_rejoins_clean() {
    let mut rng = StdRng::seed_from_u64(0xDEAD5EED);
    let db = random_db(&mut rng);
    let single = Beas::builder(db.clone())
        .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
        .num_threads(2)
        .min_shard_rows(2)
        .build()
        .unwrap();
    let (cluster, faulty) = chaos_cluster(db, 3, 2, 11, FaultRates::uniform(0));

    // a join touches person (shard 0) and poi (shard 1)
    let query = {
        let mut b = SpcQueryBuilder::new(single.schema());
        let p = b.atom("person", "p").unwrap();
        let q = b.atom("poi", "q").unwrap();
        b.join((p, "city"), (q, "city")).unwrap();
        b.output(p, "age", "age").unwrap();
        b.output(q, "stars", "stars").unwrap();
        b.build().unwrap().into()
    };
    let schedule = beas_core::RefinementSchedule::tuples(&[8, 24, 72]).unwrap();
    let mut cs = cluster.session(&query, schedule.clone()).unwrap();
    let prepared = single.prepare(&query).unwrap();
    let mut ss = prepared.session(schedule).unwrap();

    // step 1: healthy, bit-for-bit
    let c1 = cs.next_step().unwrap().unwrap();
    let s1 = ss.next_step().unwrap().unwrap();
    assert!(!c1.answer.partial);
    assert_eq!(c1.answer.answers.digest(), s1.answer.answers.digest());
    assert_eq!(c1.eta.to_bits(), s1.eta.to_bits());

    // step 2: shard 1 dies — partial answer with an honest η
    faulty.set_down(1, true);
    let c2 = cs.next_step().unwrap().unwrap();
    let s2 = ss.next_step().unwrap().unwrap();
    assert!(c2.answer.partial, "a lost data shard must flag the answer");
    assert!(
        c2.eta <= s2.eta,
        "partial η {} must lower-bound healthy η {}",
        c2.eta,
        s2.eta
    );
    let outage = c2.outage.expect("an outage report");
    assert_eq!(outage.shards[0].failure.shard, 1);
    assert!(!outage.dropped_leaves.is_empty());

    // step 3: the shard rejoins — clean, bit-for-bit again
    faulty.set_down(1, false);
    let c3 = cs.next_step().unwrap().unwrap();
    let s3 = ss.next_step().unwrap().unwrap();
    assert!(!c3.answer.partial);
    assert_eq!(c3.answer.answers.digest(), s3.answer.answers.digest());
    assert_eq!(c3.eta.to_bits(), s3.eta.to_bits());
    assert!(cs.next_step().is_none());
}

#[test]
fn tcp_cluster_survives_a_killed_shard_and_a_rejoin_on_a_new_port() {
    let mut rng = StdRng::seed_from_u64(0x7C9);
    let db = random_db(&mut rng);
    let single = Beas::builder(db.clone())
        .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
        .num_threads(2)
        .min_shard_rows(2)
        .build()
        .unwrap();
    let mut cluster = ClusterHandle::builder(db, 3)
        .constraint(ConstraintSpec::new("poi", &["city", "kind"], &["stars"]))
        .num_threads(2)
        .min_shard_rows(2)
        .degraded_policy(DegradedPolicy::PartialAnswer)
        .retry_policy(RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(2),
        })
        .build()
        .unwrap();

    // serve every shard over TCP and swap the coordinator onto sockets
    let mut servers: Vec<Option<ShardServer>> = cluster
        .nodes()
        .iter()
        .map(|node| Some(ShardServer::serve(Arc::clone(node), "127.0.0.1:0").unwrap()))
        .collect();
    let addrs = servers.iter().map(|s| s.as_ref().unwrap().addr()).collect();
    let transport = Arc::new(
        TcpShardTransport::new(addrs)
            .with_default_timeout(Duration::from_secs(2))
            .with_metrics(Arc::clone(cluster.metrics())),
    );
    cluster.set_transport(Arc::clone(&transport) as Arc<dyn ShardTransport>);

    let query: BeasQuery = {
        let mut b = SpcQueryBuilder::new(single.schema());
        let p = b.atom("person", "p").unwrap();
        let q = b.atom("poi", "q").unwrap();
        b.join((p, "city"), (q, "city")).unwrap();
        b.output(p, "age", "age").unwrap();
        b.output(q, "stars", "stars").unwrap();
        b.build().unwrap().into()
    };

    // healthy over TCP: bit-for-bit the single-node answer
    let healthy = single.answer(&query, ResourceSpec::FULL).unwrap();
    let over_tcp = cluster.answer(&query, ResourceSpec::FULL).unwrap();
    assert_bit_equal(&over_tcp, &healthy, "healthy TCP");

    // kill shard 1's server: the next answer degrades honestly
    servers[1].take().unwrap().shutdown();
    let (partial, outage) = cluster
        .answer_with_report(&query, ResourceSpec::FULL)
        .unwrap();
    assert!(partial.partial, "a killed data shard must flag the answer");
    assert!(partial.eta <= healthy.eta);
    assert_eq!(outage.unwrap().shards[0].failure.shard, 1);

    // rejoin on a fresh port: re-point the transport, clean answers resume
    let revived = ShardServer::serve(Arc::clone(&cluster.nodes()[1]), "127.0.0.1:0").unwrap();
    transport.set_addr(1, revived.addr());
    let after = cluster.answer(&query, ResourceSpec::FULL).unwrap();
    assert_bit_equal(&after, &healthy, "after rejoin");
    servers[1] = Some(revived);
}
