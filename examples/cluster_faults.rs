//! Fault-tolerant cluster serving: a shard killed mid-session, an honest
//! partial answer, and a clean rejoin.
//!
//! Serves a 3-node cluster over TCP, then walks the fault-tolerance story
//! end to end:
//!
//! 1. **healthy** — the TCP cluster answer is bit-for-bit the single-node
//!    answer (same digest, η, tuples accessed);
//! 2. **outage** — one shard's server is killed; under
//!    `DegradedPolicy::PartialAnswer` the coordinator retries to its
//!    deadline, degrades the shard away and composes from the survivors: the
//!    answer comes back flagged `partial: true` with an η the healthy answer
//!    satisfies, and the outage report says which plan pieces were lost;
//! 3. **rejoin** — the shard is re-served on a fresh port, the transport is
//!    re-pointed, and answers are bit-for-bit clean again.
//!
//! The `cluster-smoke` CI job greps the digest lines this example prints.
//!
//! ```text
//! cargo run --example cluster_faults
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use beas::prelude::*;
use beas_bench::cluster::{demo_cluster_constraint, demo_cluster_db, demo_cluster_join};

fn main() {
    let db = demo_cluster_db(6_000);
    let single = Beas::builder(db.clone())
        .constraint(demo_cluster_constraint())
        .build()
        .expect("single-node build");
    let mut cluster = ClusterHandle::builder(db, 3)
        .constraint(demo_cluster_constraint())
        .degraded_policy(DegradedPolicy::PartialAnswer)
        .retry_policy(RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(5),
            deadline: Duration::from_secs(2),
        })
        .build()
        .expect("cluster build");

    // serve every shard over TCP
    let mut servers: Vec<Option<ShardServer>> = cluster
        .nodes()
        .iter()
        .map(|node| Some(ShardServer::serve(Arc::clone(node), "127.0.0.1:0").expect("serve shard")))
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers
        .iter()
        .map(|s| s.as_ref().expect("server").addr())
        .collect();
    println!("3 shards over TCP: {addrs:?}");
    let transport = Arc::new(
        TcpShardTransport::new(addrs)
            .with_default_timeout(Duration::from_secs(2))
            .with_metrics(Arc::clone(cluster.metrics())),
    );
    cluster.set_transport(Arc::clone(&transport) as Arc<dyn ShardTransport>);

    let query = demo_cluster_join(cluster.schema());
    let spec = ResourceSpec::Ratio(0.1);
    let reference = single.answer(&query, spec).expect("single-node answer");

    // 1 — healthy: bit-for-bit the single-node answer
    let healthy = cluster.answer(&query, spec).expect("healthy answer");
    println!("\nhealthy cluster:");
    println!("  cluster digest:     {:016x}", healthy.answers.digest());
    println!("  single-node digest: {:016x}", reference.answers.digest());
    println!("  eta = {:.4}, partial = {}", healthy.eta, healthy.partial);
    assert_eq!(healthy.answers.digest(), reference.answers.digest());
    assert_eq!(healthy.eta.to_bits(), reference.eta.to_bits());
    assert!(!healthy.partial);

    // 2 — outage: kill shard 1's server mid-flight
    println!("\nkilling shard 1 ({})...", transport.addr(1).unwrap());
    servers[1].take().expect("server 1").shutdown();
    let asked = Instant::now();
    let (degraded, outage) = cluster
        .answer_with_report(&query, spec)
        .expect("degraded answer");
    let waited = asked.elapsed();
    let outage = outage.expect("an outage report");
    println!("degraded answer after {waited:.1?}:");
    println!(
        "  partial = {}, eta = {:.4} (healthy eta {:.4})",
        degraded.partial, degraded.eta, healthy.eta
    );
    println!(
        "  outage: {} (lost {} fetch nodes, dropped {} leaves, {} budget unspent)",
        outage.shards[0].failure,
        outage.lost_nodes.len(),
        outage.dropped_leaves.len(),
        outage.unspent_share
    );
    assert!(degraded.partial, "a lost data shard must flag the answer");
    assert!(
        degraded.eta <= healthy.eta && degraded.eta >= 0.0 && degraded.eta.is_finite(),
        "partial eta must be a valid lower bound"
    );
    assert!(
        waited < Duration::from_secs(10),
        "degradation must come back within the retry deadline, not hang"
    );

    // 3 — rejoin on a fresh port: re-point the transport, clean again
    let revived =
        ShardServer::serve(Arc::clone(&cluster.nodes()[1]), "127.0.0.1:0").expect("revive shard");
    println!("\nshard 1 rejoined on {}", revived.addr());
    transport.set_addr(1, revived.addr());
    let after = cluster.answer(&query, spec).expect("answer after rejoin");
    println!(
        "  cluster digest:     {:016x} (after rejoin)",
        after.answers.digest()
    );
    println!("  single-node digest: {:016x}", reference.answers.digest());
    println!("  eta = {:.4}, partial = {}", after.eta, after.partial);
    assert_eq!(after.answers.digest(), reference.answers.digest());
    assert_eq!(after.eta.to_bits(), reference.eta.to_bits());
    assert_eq!(after.accessed, reference.accessed);
    assert!(!after.partial);
    servers[1] = Some(revived);

    // the fault-tolerance counters, as served under GET /metrics
    println!("\nmetrics: {}", cluster.metrics().to_json());
    println!("\nfault tolerance: OK (partial answer under outage, bit-for-bit after rejoin)");
}
