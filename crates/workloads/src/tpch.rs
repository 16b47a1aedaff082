//! TPCH-lite: a scaled-down synthetic stand-in for the TPC-H `dbgen` data used
//! in the paper's scalability experiments (Fig. 6(e), 6(f), 6(j), 6(l)).
//!
//! The schema follows the classic TPC-H star/snowflake shape (region, nation,
//! supplier, customer, part, orders, lineitem) with simplified columns. The
//! scale factor multiplies the per-relation base cardinalities, so sweeping it
//! reproduces the paper's "varying |D|" experiments at laptop scale.

use beas_core::ConstraintSpec;
use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema, Value, ValueType};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::{Dataset, JoinEdge};

/// Regions of the TPCH-lite world.
const REGIONS: [&str; 5] = ["AMERICA", "EUROPE", "ASIA", "AFRICA", "MIDDLE EAST"];
/// Market segments.
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
/// Order statuses.
const STATUSES: [&str; 3] = ["O", "F", "P"];
/// Order priorities.
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Part brands.
const BRANDS: [&str; 5] = ["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];

/// The TPCH-lite schema.
pub fn tpch_schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![
        RelationSchema::new(
            "region",
            vec![
                Attribute::id("r_regionkey"),
                Attribute::categorical("r_name"),
            ],
        ),
        RelationSchema::new(
            "nation",
            vec![
                Attribute::id("n_nationkey"),
                Attribute::id("n_regionkey"),
                Attribute::categorical("n_name"),
            ],
        ),
        RelationSchema::new(
            "supplier",
            vec![
                Attribute::id("s_suppkey"),
                Attribute::id("s_nationkey"),
                // numeric distances are normalised by the attribute's range so
                // a full-range error counts as distance 1 (`Attribute::scaled`)
                Attribute::scaled("s_acctbal", ValueType::Double, 11_000),
            ],
        ),
        RelationSchema::new(
            "customer",
            vec![
                Attribute::id("c_custkey"),
                Attribute::id("c_nationkey"),
                Attribute::categorical("c_segment"),
                Attribute::scaled("c_acctbal", ValueType::Double, 11_000),
            ],
        ),
        RelationSchema::new(
            "part",
            vec![
                Attribute::id("p_partkey"),
                Attribute::categorical("p_brand"),
                Attribute::scaled("p_size", ValueType::Int, 50),
                Attribute::scaled("p_retailprice", ValueType::Double, 1_100),
            ],
        ),
        RelationSchema::new(
            "orders",
            vec![
                Attribute::id("o_orderkey"),
                Attribute::id("o_custkey"),
                Attribute::categorical("o_status"),
                Attribute::scaled("o_totalprice", ValueType::Double, 50_000),
                Attribute::scaled("o_year", ValueType::Int, 10),
                Attribute::categorical("o_priority"),
            ],
        ),
        RelationSchema::new(
            "lineitem",
            vec![
                Attribute::id("l_orderkey"),
                Attribute::id("l_partkey"),
                Attribute::id("l_suppkey"),
                Attribute::scaled("l_quantity", ValueType::Int, 50),
                Attribute::scaled("l_extendedprice", ValueType::Double, 100_000),
                Attribute::double("l_discount"),
                Attribute::scaled("l_shipyear", ValueType::Int, 10),
            ],
        ),
    ])
}

/// Generates a TPCH-lite dataset at the given scale factor.
///
/// Base cardinalities (scale 1): 5 regions, 25 nations, 10 suppliers,
/// 50 customers, 30 parts, 200 orders, 600 lineitems — about 920 tuples per
/// scale unit, so scale 25 yields ≈ 23 000 tuples (the sweep of Fig. 6(e)).
pub fn tpch_lite(scale: usize, seed: u64) -> Dataset {
    let scale = scale.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(tpch_schema());

    let n_nations = 25usize;
    let n_suppliers = 10 * scale;
    let n_customers = 50 * scale;
    let n_parts = 30 * scale;
    let n_orders = 200 * scale;
    let n_lineitems = 600 * scale;

    for (i, name) in REGIONS.iter().enumerate() {
        db.insert_row("region", vec![Value::Int(i as i64), Value::from(*name)])
            .expect("region row");
    }
    for i in 0..n_nations {
        db.insert_row(
            "nation",
            vec![
                Value::Int(i as i64),
                Value::Int((i % REGIONS.len()) as i64),
                Value::from(format!("NATION_{i}")),
            ],
        )
        .expect("nation row");
    }
    for i in 0..n_suppliers {
        db.insert_row(
            "supplier",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_nations as i64)),
                Value::Double((rng.gen_range(-999.0..10000.0f64) * 100.0).round() / 100.0),
            ],
        )
        .expect("supplier row");
    }
    for i in 0..n_customers {
        db.insert_row(
            "customer",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_nations as i64)),
                Value::from(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]),
                Value::Double((rng.gen_range(-999.0..10000.0f64) * 100.0).round() / 100.0),
            ],
        )
        .expect("customer row");
    }
    for i in 0..n_parts {
        db.insert_row(
            "part",
            vec![
                Value::Int(i as i64),
                Value::from(BRANDS[rng.gen_range(0..BRANDS.len())]),
                Value::Int(rng.gen_range(1..51)),
                Value::Double((900.0 + rng.gen_range(0.0..1100.0f64) * 1.0).round()),
            ],
        )
        .expect("part row");
    }
    for i in 0..n_orders {
        // order totals are skewed: many small orders, few large ones
        let total = 100.0 + rng.gen_range(0.0f64..1.0).powi(3) * 50_000.0;
        db.insert_row(
            "orders",
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..n_customers as i64)),
                Value::from(STATUSES[rng.gen_range(0..STATUSES.len())]),
                Value::Double(total.round()),
                Value::Int(rng.gen_range(1992..1999)),
                Value::from(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]),
            ],
        )
        .expect("orders row");
    }
    for _ in 0..n_lineitems {
        let orderkey = rng.gen_range(0..n_orders as i64);
        let quantity = rng.gen_range(1..51);
        let price = quantity as f64 * rng.gen_range(900.0..2000.0f64);
        db.insert_row(
            "lineitem",
            vec![
                Value::Int(orderkey),
                Value::Int(rng.gen_range(0..n_parts as i64)),
                Value::Int(rng.gen_range(0..n_suppliers as i64)),
                Value::Int(quantity),
                Value::Double(price.round()),
                Value::Double((rng.gen_range(0.0..0.1f64) * 100.0).round() / 100.0),
                Value::Int(rng.gen_range(1992..1999)),
            ],
        )
        .expect("lineitem row");
    }

    Dataset {
        name: "TPCH".to_string(),
        db,
        constraints: vec![
            ConstraintSpec::new("nation", &["n_nationkey"], &["n_regionkey", "n_name"]),
            ConstraintSpec::new(
                "customer",
                &["c_custkey"],
                &["c_nationkey", "c_segment", "c_acctbal"],
            ),
            ConstraintSpec::new(
                "part",
                &["p_partkey"],
                &["p_brand", "p_size", "p_retailprice"],
            ),
            ConstraintSpec::new("supplier", &["s_suppkey"], &["s_nationkey", "s_acctbal"]),
            ConstraintSpec::new(
                "orders",
                &["o_custkey"],
                &["o_orderkey", "o_totalprice", "o_year"],
            ),
            ConstraintSpec::new(
                "lineitem",
                &["l_orderkey"],
                &["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice"],
            ),
            // selection-oriented templates; their Y includes the join keys so
            // that plans can keep following foreign keys exactly
            ConstraintSpec::new(
                "orders",
                &["o_status", "o_year"],
                &["o_orderkey", "o_custkey", "o_totalprice"],
            ),
            ConstraintSpec::new(
                "part",
                &["p_brand"],
                &["p_partkey", "p_size", "p_retailprice"],
            ),
            ConstraintSpec::new(
                "lineitem",
                &["l_shipyear"],
                &[
                    "l_orderkey",
                    "l_partkey",
                    "l_quantity",
                    "l_extendedprice",
                    "l_discount",
                ],
            ),
        ],
        join_edges: vec![
            JoinEdge::new("nation", "n_regionkey", "region", "r_regionkey"),
            JoinEdge::new("customer", "c_nationkey", "nation", "n_nationkey"),
            JoinEdge::new("supplier", "s_nationkey", "nation", "n_nationkey"),
            JoinEdge::new("orders", "o_custkey", "customer", "c_custkey"),
            JoinEdge::new("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinEdge::new("lineitem", "l_partkey", "part", "p_partkey"),
            JoinEdge::new("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ],
        qcs: vec![
            (
                "orders".to_string(),
                vec!["o_status".to_string(), "o_year".to_string()],
            ),
            ("lineitem".to_string(), vec!["l_shipyear".to_string()]),
            ("part".to_string(), vec!["p_brand".to_string()]),
            ("customer".to_string(), vec!["c_segment".to_string()]),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale_linearly() {
        let d1 = tpch_lite(1, 1);
        let d3 = tpch_lite(3, 1);
        assert_eq!(d1.db.relation("orders").unwrap().len(), 200);
        assert_eq!(d3.db.relation("orders").unwrap().len(), 600);
        assert_eq!(d1.db.relation("region").unwrap().len(), 5);
        assert_eq!(d3.db.relation("region").unwrap().len(), 5);
        assert!(d3.size() > 2 * d1.size());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = tpch_lite(2, 7);
        let b = tpch_lite(2, 7);
        assert_eq!(
            a.db.relation("lineitem").unwrap(),
            b.db.relation("lineitem").unwrap()
        );
        let c = tpch_lite(2, 8);
        assert_ne!(
            a.db.relation("lineitem").unwrap(),
            c.db.relation("lineitem").unwrap()
        );
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let d = tpch_lite(2, 3);
        let customers = d.db.relation("customer").unwrap().len() as i64;
        for row in d.db.relation("orders").unwrap().rows() {
            let custkey = row[1].as_i64().unwrap();
            assert!(custkey >= 0 && custkey < customers);
        }
        let orders = d.db.relation("orders").unwrap().len() as i64;
        for row in d.db.relation("lineitem").unwrap().rows() {
            assert!(row[0].as_i64().unwrap() < orders);
        }
    }

    #[test]
    fn constraints_and_edges_reference_schema_attributes() {
        let d = tpch_lite(1, 1);
        for c in &d.constraints {
            let rel = d.db.schema.relation(&c.relation).unwrap();
            for a in c.x.iter().chain(c.y.iter()) {
                rel.attr_index(a).unwrap();
            }
        }
        for e in &d.join_edges {
            d.db.schema
                .relation(&e.left_rel)
                .unwrap()
                .attr_index(&e.left_attr)
                .unwrap();
            d.db.schema
                .relation(&e.right_rel)
                .unwrap()
                .attr_index(&e.right_attr)
                .unwrap();
        }
        for (rel, cols) in &d.qcs {
            let schema = d.db.schema.relation(rel).unwrap();
            for c in cols {
                schema.attr_index(c).unwrap();
            }
        }
    }

    #[test]
    fn skewed_order_totals_have_a_long_tail() {
        let d = tpch_lite(5, 2);
        let totals: Vec<f64> =
            d.db.relation("orders")
                .unwrap()
                .rows()
                .map(|r| r[3].as_f64().unwrap())
                .collect();
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 3.0 * mean, "expected a skewed distribution");
    }
}
