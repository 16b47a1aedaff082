//! The demo serving fixture: a deterministic poi catalogue engine and its
//! demo query, in both in-process and wire form, which `examples/serve.rs`
//! serves. HTTP latency under load is measured by the `serve_http` workload
//! of `benchmark/`.

use std::sync::Arc;

use beas_core::{Beas, BeasQuery, ConstraintSpec};
use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema, Value};
use beas_serve::{parse_json, Json};

/// The demo serving workload: a poi catalogue engine plus the demo query in
/// both in-process and wire form.
pub struct ServingDemo {
    /// The engine (shared, `Send + Sync`).
    pub engine: Arc<Beas>,
    /// The demo query, in-process form.
    pub query: BeasQuery,
    /// The demo query, wire form.
    pub query_json: Json,
}

/// The wire form of the demo query: NYC hotel prices under $95.
pub fn demo_query_json() -> Json {
    parse_json(
        r#"{"type":"spc",
            "atoms":[{"relation":"poi","alias":"h"}],
            "binds":[{"atom":"h","attr":"type","value":"hotel"},
                     {"atom":"h","attr":"city","value":"NYC"}],
            "filters":[{"atom":"h","attr":"price","op":"<=","value":95}],
            "outputs":[{"atom":"h","attr":"price","name":"price"}]}"#,
    )
    .expect("demo query JSON")
}

/// The demo poi database (`n` rows, deterministic).
pub fn demo_db(n: i64) -> Database {
    let schema = DatabaseSchema::new(vec![RelationSchema::new(
        "poi",
        vec![
            Attribute::text("address"),
            Attribute::categorical("type"),
            Attribute::text("city"),
            Attribute::double("price"),
        ],
    )]);
    let mut db = Database::new(schema);
    let cities = ["NYC", "LA", "Chicago", "Boston", "Seattle"];
    let types = ["hotel", "museum", "restaurant"];
    for i in 0..n {
        db.insert_row(
            "poi",
            vec![
                Value::from(format!("{i} Main St")),
                Value::from(types[(i % 3) as usize]),
                Value::from(cities[(i % 5) as usize]),
                Value::Double(30.0 + ((i * 37) % 400) as f64),
            ],
        )
        .unwrap();
    }
    db
}

/// The demo access constraint matching [`demo_db`].
pub fn demo_constraint() -> ConstraintSpec {
    ConstraintSpec::new("poi", &["type", "city"], &["price"])
}

/// Builds the demo poi engine (`n` rows, deterministic) and its demo query.
pub fn demo_engine(n: i64) -> ServingDemo {
    let engine = Arc::new(
        Beas::builder(demo_db(n))
            .constraint(demo_constraint())
            .build()
            .expect("demo engine"),
    );
    let query_json = demo_query_json();
    let query = beas_serve::query_from_json(&query_json, engine.schema()).expect("demo query");
    ServingDemo {
        engine,
        query,
        query_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_core::ResourceSpec;

    #[test]
    fn demo_engine_serves_the_demo_query() {
        let demo = demo_engine(500);
        let answer = demo.engine.answer(&demo.query, ResourceSpec::FULL).unwrap();
        assert!(answer.exact);
        assert!(!answer.answers.is_empty());
    }
}
