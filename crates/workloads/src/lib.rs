//! # beas-workloads — synthetic datasets and query workloads for the BEAS evaluation
//!
//! The paper evaluates BEAS on two real-life datasets (AIRCA: US flight
//! on-time performance + carrier statistics; TFACC: UK road accidents +
//! public-transport access nodes) and on TPC-H data. Those datasets are not
//! redistributable here, so this crate provides *synthetic* generators with
//! the same relational shape, skew and key/foreign-key structure:
//!
//! * [`tpch::tpch_lite`] — a scaled-down TPC-H-like star/snowflake schema;
//! * [`airca::airca_lite`] — flights, carriers, airports, carrier statistics;
//! * [`tfacc::tfacc_lite`] — accidents, vehicles, casualties, roads.
//!
//! Each generator returns a [`Dataset`]: the database plus the access
//! constraints (from which BEAS derives its access schema), the join edges
//! used by the random [`querygen`] workload generator, and the query column
//! sets handed to the BlinkDB-style baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod airca;
pub mod querygen;
pub mod tfacc;
pub mod tpch;

use beas_core::ConstraintSpec;
use beas_relal::Database;

/// A foreign-key style join edge between two relations, used by the query
/// generator to build meaningful multi-relation queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Left relation name.
    pub left_rel: String,
    /// Left join attribute.
    pub left_attr: String,
    /// Right relation name.
    pub right_rel: String,
    /// Right join attribute.
    pub right_attr: String,
}

impl JoinEdge {
    /// Creates a join edge `left_rel.left_attr = right_rel.right_attr`.
    pub fn new(left_rel: &str, left_attr: &str, right_rel: &str, right_attr: &str) -> Self {
        JoinEdge {
            left_rel: left_rel.to_string(),
            left_attr: left_attr.to_string(),
            right_rel: right_rel.to_string(),
            right_attr: right_attr.to_string(),
        }
    }

    /// Returns the other endpoint if this edge touches `(rel)`, if any.
    pub fn other_end(&self, rel: &str) -> Option<(&str, &str, &str)> {
        if self.left_rel == rel {
            Some((&self.right_rel, &self.right_attr, &self.left_attr))
        } else if self.right_rel == rel {
            Some((&self.left_rel, &self.left_attr, &self.right_attr))
        } else {
            None
        }
    }
}

/// A generated dataset together with the metadata the evaluation needs.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (`"TPCH"`, `"AIRCA"`, `"TFACC"`).
    pub name: String,
    /// The database instance.
    pub db: Database,
    /// Access constraints to register with BEAS (extended templates are
    /// derived automatically by the engine).
    pub constraints: Vec<ConstraintSpec>,
    /// Foreign-key join edges for the query generator.
    pub join_edges: Vec<JoinEdge>,
    /// Query column sets per relation for the BlinkDB-style baseline:
    /// `(relation, stratification columns)`.
    pub qcs: Vec<(String, Vec<String>)>,
}

impl Dataset {
    /// Total number of tuples (`|D|`).
    pub fn size(&self) -> usize {
        self.db.total_tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_edge_other_end_resolves_both_directions() {
        let e = JoinEdge::new("orders", "o_custkey", "customer", "c_custkey");
        assert_eq!(
            e.other_end("orders"),
            Some(("customer", "c_custkey", "o_custkey"))
        );
        assert_eq!(
            e.other_end("customer"),
            Some(("orders", "o_custkey", "c_custkey"))
        );
        assert_eq!(e.other_end("lineitem"), None);
    }

    #[test]
    fn datasets_report_their_size() {
        let d = tpch::tpch_lite(1, 42);
        assert_eq!(d.size(), d.db.total_tuples());
        assert!(d.size() > 0);
    }
}
