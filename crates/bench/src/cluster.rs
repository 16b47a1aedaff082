//! The demo cluster fixture that `examples/cluster.rs` and
//! `examples/cluster_faults.rs` serve.
//!
//! The demo workload is a three-relation database (people, points of
//! interest, visits) so a three-shard cluster owns one relation per node and
//! the demo join query forces a cross-shard merge at the coordinator. Every
//! helper here is deterministic — the same `rows` argument always produces
//! the same database — so digests are stable across runs and processes:
//! the `cluster-smoke` CI job leans on that.

use beas_core::{BeasQuery, ConstraintSpec};
use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value};

/// The demo cluster database: `person`, `poi` and `visit`, sized so `poi`
/// holds about `rows` tuples (the other relations scale along).
pub fn demo_cluster_db(rows: i64) -> Database {
    let schema = DatabaseSchema::new(vec![
        RelationSchema::new(
            "person",
            vec![Attribute::categorical("city"), Attribute::int("age")],
        ),
        RelationSchema::new(
            "poi",
            vec![
                Attribute::categorical("city"),
                Attribute::categorical("type"),
                Attribute::double("price"),
            ],
        ),
        RelationSchema::new(
            "visit",
            vec![Attribute::categorical("city"), Attribute::double("spend")],
        ),
    ]);
    let cities = ["NYC", "LA", "Chicago", "Boston", "Seattle"];
    let types = ["hotel", "museum", "restaurant"];
    let mut db = Database::new(schema);
    for i in 0..(rows / 2) {
        db.insert_row(
            "person",
            vec![
                Value::from(cities[(i % 5) as usize]),
                Value::Int(18 + (i * 13) % 60),
            ],
        )
        .expect("insert person");
    }
    for i in 0..rows {
        db.insert_row(
            "poi",
            vec![
                Value::from(cities[(i % 5) as usize]),
                Value::from(types[(i % 3) as usize]),
                Value::Double(30.0 + ((i * 37) % 400) as f64),
            ],
        )
        .expect("insert poi");
    }
    for i in 0..(rows / 2) {
        db.insert_row(
            "visit",
            vec![
                Value::from(cities[(i % 5) as usize]),
                Value::Double(5.0 + ((i * 29) % 250) as f64 / 4.0),
            ],
        )
        .expect("insert visit");
    }
    db
}

/// The demo access constraint: `poi({city, type} → {price})`, extended.
pub fn demo_cluster_constraint() -> ConstraintSpec {
    ConstraintSpec::new("poi", &["city", "type"], &["price"])
}

/// The demo cluster query: NYC hotel prices — a single-atom bounded
/// selection every shard count answers identically.
pub fn demo_cluster_query(schema: &DatabaseSchema) -> BeasQuery {
    let mut b = SpcQueryBuilder::new(schema);
    let h = b.atom("poi", "h").expect("atom");
    b.bind_const(h, "city", "NYC").expect("bind");
    b.bind_const(h, "type", "hotel").expect("bind");
    b.output(h, "price", "price").expect("output");
    b.build().expect("query").into()
}

/// The demo cross-shard join: people × pois in the same city — its atoms
/// live on different shards, so the leaf merges at the coordinator.
pub fn demo_cluster_join(schema: &DatabaseSchema) -> BeasQuery {
    let mut b = SpcQueryBuilder::new(schema);
    let p = b.atom("person", "p").expect("atom");
    let h = b.atom("poi", "h").expect("atom");
    b.join((p, "city"), (h, "city")).expect("join");
    b.bind_const(h, "type", "hotel").expect("bind");
    b.output(p, "age", "age").expect("output");
    b.output(h, "price", "price").expect("output");
    b.build().expect("query").into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_cluster_db_is_deterministic() {
        let a = demo_cluster_db(500);
        let b = demo_cluster_db(500);
        for name in ["person", "poi", "visit"] {
            assert_eq!(
                a.relation(name).unwrap().digest(),
                b.relation(name).unwrap().digest()
            );
        }
    }
}
