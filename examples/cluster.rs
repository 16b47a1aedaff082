//! Distributed serving: a 3-node cluster answering under a shared budget.
//!
//! Builds a three-relation database and one catalog over it, gives each
//! relation's families to one of three shard nodes, and answers through the
//! coordinator: the total budget is split shard-by-shard (tariff floor +
//! size-proportional slack), each shard runs its bounded fetches and
//! single-shard leaves locally, and the coordinator merges — bit-for-bit
//! equal to a single node holding everything, which this example both
//! asserts and prints (the `cluster-smoke` CI job diffs the two digest
//! lines).
//!
//! ```text
//! cargo run --example cluster
//! ```

use beas::prelude::*;
use beas_bench::cluster::{
    demo_cluster_constraint, demo_cluster_db, demo_cluster_join, demo_cluster_query,
};

fn main() {
    let rows = 6_000;
    let db = demo_cluster_db(rows);
    println!(
        "database: {} relations, {} tuples",
        db.schema.relations.len(),
        db.total_tuples()
    );

    // ---------------------------------------------------------- the cluster
    // three shard nodes, one relation each; C1 builds the catalog once, as
    // a single node does, and each shard serves its relation's families
    let mut cluster = ClusterHandle::builder(db.clone(), 3)
        .constraint(demo_cluster_constraint())
        .build()
        .expect("cluster build");
    println!(
        "cluster: {} shards, partition sizes {:?}, {} catalog families",
        cluster.shards(),
        cluster.partition_sizes(),
        cluster.catalog().len(),
    );

    // the reference: one node holding the whole database
    let single = Beas::builder(db)
        .constraint(demo_cluster_constraint())
        .build()
        .expect("single-node build");

    // -------------------------------------------- scatter-gather answering
    let spec = ResourceSpec::Ratio(0.1);
    for (label, query) in [
        (
            "NYC hotel prices (shard-local leaf)",
            demo_cluster_query(cluster.schema()),
        ),
        (
            "people x hotels join (cross-shard merge)",
            demo_cluster_join(cluster.schema()),
        ),
    ] {
        let ours = cluster.answer(&query, spec).expect("cluster answer");
        let theirs = single.answer(&query, spec).expect("single-node answer");
        println!("\n{label} @ {spec}:");
        println!(
            "  {} answers, eta = {:.4}, accessed {} of budget {}",
            ours.answers.len(),
            ours.eta,
            ours.accessed,
            ours.budget
        );
        println!("  cluster digest:     {:016x}", ours.answers.digest());
        println!("  single-node digest: {:016x}", theirs.answers.digest());
        assert_eq!(ours.answers.digest(), theirs.answers.digest());
        assert_eq!(ours.eta.to_bits(), theirs.eta.to_bits());
        assert_eq!(ours.accessed, theirs.accessed);
    }

    // -------------------------------------------------- the same over TCP
    // serve each shard node on a socket and re-point the coordinator at a
    // TcpShardTransport: the wire carries exactly the bytes the in-process
    // transport round-trips, so the digests must not move
    {
        use std::sync::Arc;
        use std::time::Duration;

        let servers: Vec<ShardServer> = cluster
            .nodes()
            .iter()
            .map(|node| ShardServer::serve(Arc::clone(node), "127.0.0.1:0").expect("shard server"))
            .collect();
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(ShardServer::addr).collect();
        println!("\nshards over TCP: {addrs:?}");
        cluster.set_transport(Arc::new(
            TcpShardTransport::new(addrs).with_default_timeout(Duration::from_secs(5)),
        ));
        let query = demo_cluster_join(cluster.schema());
        let ours = cluster.answer(&query, spec).expect("TCP cluster answer");
        let theirs = single.answer(&query, spec).expect("single-node answer");
        println!("  cluster digest:     {:016x} (TCP)", ours.answers.digest());
        println!("  single-node digest: {:016x}", theirs.answers.digest());
        assert_eq!(ours.answers.digest(), theirs.answers.digest());
        assert_eq!(ours.eta.to_bits(), theirs.eta.to_bits());
        assert_eq!(ours.accessed, theirs.accessed);
        for server in servers {
            server.shutdown();
        }
        // back in-process for the refinement/metrics sections below
        cluster.set_transport(Arc::new(InProcessTransport::new(cluster.nodes().to_vec())));
    }

    // ------------------------------------- distributed refinement sessions
    // shard ExecStates stay open across steps, so later rungs of the ladder
    // reuse fragments already fetched by earlier ones — on the node that
    // fetched them
    let query = demo_cluster_query(cluster.schema());
    let mut session = cluster
        .session(
            &query,
            RefinementSchedule::ratios(&[0.02, 0.1, 1.0]).unwrap(),
        )
        .expect("cluster session");
    println!("\nprogressive refinement through the coordinator:");
    while let Some(step) = session.next_step() {
        let step = step.expect("refinement step");
        println!(
            "  step {}/{}: eta = {:.4}, budget {} (spent {} cumulative, {} reused)",
            step.step, step.steps, step.eta, step.budget, step.budget_spent, step.reused_tuples
        );
    }
    drop(session);

    // ------------------------------------------------- coordinator metrics
    // per-shard budget allocation + latency and merge time, as served under
    // GET /metrics
    let server = cluster
        .serve_metrics("127.0.0.1:0")
        .expect("metrics endpoint");
    println!("\nmetrics endpoint: http://{}/metrics", server.addr());
    println!("{}", cluster.metrics().to_json());
    server.shutdown();
}
