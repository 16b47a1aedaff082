//! The query language accepted by the BEAS planner.
//!
//! BEAS plans over the *tableau* form of queries: SPC (conjunctive) blocks
//! composed with union and set difference ([`RaQuery`]), optionally wrapped in
//! a group-by/aggregate ([`AggQuery`]). This mirrors the paper's treatment:
//! `BEAS_SPC` handles the SPC blocks (Sec. 5), `BEAS_RA` composes them and
//! enforces set difference (Sec. 6), and `BEAS_agg` adds aggregation (Sec. 7).
//!
//! Every query converts losslessly to a [`QueryExpr`] so that the exact
//! evaluator can compute ground truth `Q(D)` for the accuracy experiments.

use beas_relal::{
    AggFunc, DatabaseSchema, DistanceKind, GroupByQuery, QueryExpr, RaExpr, RelalError, SpcQuery,
};

use crate::error::{BeasError, Result};

/// A relational-algebra query over SPC blocks: the max-SPC sub-queries of the
/// paper are exactly the [`RaQuery::Spc`] leaves.
#[derive(Debug, Clone, PartialEq)]
pub enum RaQuery {
    /// A select–project–product block.
    Spc(SpcQuery),
    /// Union of two sub-queries with identical output schemas.
    Union(Box<RaQuery>, Box<RaQuery>),
    /// Set difference of two sub-queries with identical output schemas.
    Difference(Box<RaQuery>, Box<RaQuery>),
}

impl RaQuery {
    /// Wraps an SPC query.
    pub fn spc(q: SpcQuery) -> Self {
        RaQuery::Spc(q)
    }

    /// `self ∪ other`.
    pub fn union(self, other: RaQuery) -> Self {
        RaQuery::Union(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: RaQuery) -> Self {
        RaQuery::Difference(Box::new(self), Box::new(other))
    }

    /// Output column names (taken from the leftmost SPC leaf; validation
    /// enforces that all leaves agree).
    pub fn output_columns(&self) -> Vec<String> {
        match self {
            RaQuery::Spc(q) => q.output.iter().map(|o| o.name.clone()).collect(),
            RaQuery::Union(l, _) | RaQuery::Difference(l, _) => l.output_columns(),
        }
    }

    /// All SPC leaves, left to right (the "max SPC sub-queries" of Sec. 6).
    pub fn spc_leaves(&self) -> Vec<&SpcQuery> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a SpcQuery>) {
        match self {
            RaQuery::Spc(q) => out.push(q),
            RaQuery::Union(l, r) | RaQuery::Difference(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// The SPC leaves that contribute *positively* to the answer (i.e. are not
    /// below the right side of a set difference). These are the leaves whose
    /// resolution determines the coverage bound.
    pub fn positive_leaves(&self) -> Vec<&SpcQuery> {
        let mut out = Vec::new();
        self.collect_positive(&mut out);
        out
    }

    fn collect_positive<'a>(&'a self, out: &mut Vec<&'a SpcQuery>) {
        match self {
            RaQuery::Spc(q) => out.push(q),
            RaQuery::Union(l, r) => {
                l.collect_positive(out);
                r.collect_positive(out);
            }
            RaQuery::Difference(l, _) => l.collect_positive(out),
        }
    }

    /// The *maximal induced query* `Q̂` of Sec. 6: the query obtained by
    /// dropping the negated part of every set difference, so that
    /// `Q̂(D) ⊇ Q(D)` on every database.
    pub fn maximal_induced(&self) -> RaQuery {
        match self {
            RaQuery::Spc(q) => RaQuery::Spc(q.clone()),
            RaQuery::Union(l, r) => {
                RaQuery::Union(Box::new(l.maximal_induced()), Box::new(r.maximal_induced()))
            }
            RaQuery::Difference(l, _) => l.maximal_induced(),
        }
    }

    /// Number of set-difference operators (the `#-diff` knob of the workload).
    pub fn num_differences(&self) -> usize {
        match self {
            RaQuery::Spc(_) => 0,
            RaQuery::Union(l, r) => l.num_differences() + r.num_differences(),
            RaQuery::Difference(l, r) => 1 + l.num_differences() + r.num_differences(),
        }
    }

    /// `true` when the query contains a set difference.
    pub fn has_difference(&self) -> bool {
        self.num_differences() > 0
    }

    /// `true` when the query is a single SPC block.
    pub fn is_spc(&self) -> bool {
        matches!(self, RaQuery::Spc(_))
    }

    /// `||Q||`: total number of relation atoms across all leaves.
    pub fn relation_count(&self) -> usize {
        self.spc_leaves().iter().map(|q| q.relation_count()).sum()
    }

    /// Maximum number of Cartesian products in any single SPC leaf (the
    /// `#-prod` knob of the workload).
    pub fn max_products(&self) -> usize {
        self.spc_leaves()
            .iter()
            .map(|q| q.relation_count().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Total number of selection predicates across leaves (`#-sel`).
    pub fn selection_count(&self) -> usize {
        self.spc_leaves().iter().map(|q| q.selection_count()).sum()
    }

    /// Validates the query: every leaf is valid and all leaves share the same
    /// output column names.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        let leaves = self.spc_leaves();
        let first_cols = self.output_columns();
        for leaf in &leaves {
            leaf.validate(schema)?;
            let cols: Vec<String> = leaf.output.iter().map(|o| o.name.clone()).collect();
            if cols != first_cols {
                return Err(BeasError::UnsupportedQuery(format!(
                    "union/difference branches have different outputs: {first_cols:?} vs {cols:?}"
                )));
            }
        }
        Ok(())
    }

    /// Converts to a relational-algebra expression for exact evaluation.
    pub fn to_ra(&self, schema: &DatabaseSchema) -> Result<RaExpr> {
        match self {
            RaQuery::Spc(q) => Ok(q.to_ra(schema)?),
            RaQuery::Union(l, r) => Ok(l.to_ra(schema)?.union(r.to_ra(schema)?)),
            RaQuery::Difference(l, r) => Ok(l.to_ra(schema)?.difference(r.to_ra(schema)?)),
        }
    }

    /// The distance kind of every output column (needed by the accuracy
    /// measures), taken from the leftmost leaf.
    pub fn output_distances(&self, schema: &DatabaseSchema) -> Result<Vec<DistanceKind>> {
        match self {
            RaQuery::Spc(q) => Ok(q.output_distances(schema)?),
            RaQuery::Union(l, _) | RaQuery::Difference(l, _) => l.output_distances(schema),
        }
    }
}

/// An aggregate query `gpBy(Q', X, agg(V))` over an [`RaQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggQuery {
    /// The inner RA query `Q'`.
    pub input: RaQuery,
    /// Group-by columns (names from the inner query's output).
    pub group_by: Vec<String>,
    /// Aggregate function.
    pub agg: AggFunc,
    /// Aggregated column (a name from the inner query's output).
    pub agg_col: String,
    /// Name of the aggregate output column.
    pub out_name: String,
}

impl AggQuery {
    /// Creates an aggregate query, checking that the grouped and aggregated
    /// columns exist in the inner query's output.
    pub fn new(
        input: RaQuery,
        group_by: Vec<String>,
        agg: AggFunc,
        agg_col: impl Into<String>,
        out_name: impl Into<String>,
    ) -> Result<Self> {
        let agg_col = agg_col.into();
        let cols = input.output_columns();
        for g in &group_by {
            if !cols.contains(g) {
                return Err(BeasError::UnsupportedQuery(format!(
                    "group-by column {g} is not an output of the inner query"
                )));
            }
        }
        if !cols.contains(&agg_col) {
            return Err(BeasError::UnsupportedQuery(format!(
                "aggregated column {agg_col} is not an output of the inner query"
            )));
        }
        Ok(AggQuery {
            input,
            group_by,
            agg,
            agg_col,
            out_name: out_name.into(),
        })
    }

    /// Output columns: group-by columns followed by the aggregate.
    pub fn output_columns(&self) -> Vec<String> {
        let mut cols = self.group_by.clone();
        cols.push(self.out_name.clone());
        cols
    }

    /// Validates the query against a schema.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        self.input.validate(schema)
    }

    /// Converts to a [`GroupByQuery`] for exact evaluation.
    pub fn to_group_by(&self, schema: &DatabaseSchema) -> Result<GroupByQuery> {
        Ok(GroupByQuery::new(
            self.input.to_ra(schema)?,
            self.group_by.clone(),
            self.agg,
            self.agg_col.clone(),
            self.out_name.clone(),
        ))
    }
}

/// A BEAS query: "aggregate or not".
#[derive(Debug, Clone, PartialEq)]
pub enum BeasQuery {
    /// A relational-algebra query.
    Ra(RaQuery),
    /// An aggregate query.
    Aggregate(AggQuery),
}

impl BeasQuery {
    /// The inner RA query (`Q'` for aggregates).
    pub fn ra(&self) -> &RaQuery {
        match self {
            BeasQuery::Ra(q) => q,
            BeasQuery::Aggregate(a) => &a.input,
        }
    }

    /// `true` for aggregate queries.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, BeasQuery::Aggregate(_))
    }

    /// `true` when the query is a single SPC block (no ∪/−/aggregation).
    pub fn is_spc(&self) -> bool {
        matches!(self, BeasQuery::Ra(RaQuery::Spc(_)))
    }

    /// Output column names.
    pub fn output_columns(&self) -> Vec<String> {
        match self {
            BeasQuery::Ra(q) => q.output_columns(),
            BeasQuery::Aggregate(a) => a.output_columns(),
        }
    }

    /// `||Q||`: number of relation atoms.
    pub fn relation_count(&self) -> usize {
        self.ra().relation_count()
    }

    /// Validates the query.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        match self {
            BeasQuery::Ra(q) => q.validate(schema),
            BeasQuery::Aggregate(a) => a.validate(schema),
        }
    }

    /// Converts to a [`QueryExpr`] for exact (ground truth) evaluation.
    pub fn to_query_expr(&self, schema: &DatabaseSchema) -> Result<QueryExpr> {
        match self {
            BeasQuery::Ra(q) => Ok(QueryExpr::Ra(q.to_ra(schema)?)),
            BeasQuery::Aggregate(a) => Ok(QueryExpr::Aggregate(a.to_group_by(schema)?)),
        }
    }

    /// The distance kind of every output column.
    pub fn output_distances(&self, schema: &DatabaseSchema) -> Result<Vec<DistanceKind>> {
        match self {
            BeasQuery::Ra(q) => q.output_distances(schema),
            BeasQuery::Aggregate(a) => {
                // group-by columns inherit their distance from the inner
                // query, and so does a min/max column: its value is one of the
                // aggregated column's, and the planner bounds its error in that
                // column's unit (Corollary 7). sum/count/avg are numeric.
                let inner_cols = a.input.output_columns();
                let inner_dists = a.input.output_distances(schema)?;
                let inner_kind = |col: &String| {
                    inner_cols
                        .iter()
                        .position(|c| c == col)
                        .map(|idx| inner_dists[idx])
                        .ok_or_else(|| RelalError::UnknownColumn(col.clone()).into())
                };
                let mut out = a
                    .group_by
                    .iter()
                    .map(inner_kind)
                    .collect::<Result<Vec<_>>>()?;
                out.push(if a.agg.is_extremum() {
                    inner_kind(&a.agg_col)?
                } else {
                    DistanceKind::Numeric
                });
                Ok(out)
            }
        }
    }
}

impl From<RaQuery> for BeasQuery {
    fn from(q: RaQuery) -> Self {
        BeasQuery::Ra(q)
    }
}

impl From<SpcQuery> for BeasQuery {
    fn from(q: SpcQuery) -> Self {
        BeasQuery::Ra(RaQuery::Spc(q))
    }
}

impl From<AggQuery> for BeasQuery {
    fn from(q: AggQuery) -> Self {
        BeasQuery::Aggregate(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::{Attribute, CompareOp, RelationSchema, SpcQueryBuilder};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![
            RelationSchema::new(
                "person",
                vec![Attribute::id("pid"), Attribute::text("city")],
            ),
            RelationSchema::new("friend", vec![Attribute::id("pid"), Attribute::id("fid")]),
            RelationSchema::new(
                "poi",
                vec![
                    Attribute::text("address"),
                    Attribute::categorical("type"),
                    Attribute::text("city"),
                    Attribute::double("price"),
                ],
            ),
        ])
    }

    fn hotels_below(schema: &DatabaseSchema, price: i64) -> SpcQuery {
        let mut b = SpcQueryBuilder::new(schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, price).unwrap();
        b.output(h, "city", "city").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn spc_leaves_and_counts() {
        let s = schema();
        let q = RaQuery::spc(hotels_below(&s, 95))
            .union(RaQuery::spc(hotels_below(&s, 50)))
            .difference(RaQuery::spc(hotels_below(&s, 20)));
        assert_eq!(q.spc_leaves().len(), 3);
        assert_eq!(q.positive_leaves().len(), 2);
        assert_eq!(q.num_differences(), 1);
        assert!(q.has_difference());
        assert_eq!(q.relation_count(), 3);
        assert_eq!(q.max_products(), 0);
        q.validate(&s).unwrap();
    }

    #[test]
    fn maximal_induced_drops_negated_parts() {
        let s = schema();
        let q = RaQuery::spc(hotels_below(&s, 95)).difference(RaQuery::spc(hotels_below(&s, 20)));
        let induced = q.maximal_induced();
        assert!(induced.is_spc());
        assert!(!induced.has_difference());
        // nested: (A − B) ∪ (C − D) → A ∪ C
        let q2 = q.clone().union(
            RaQuery::spc(hotels_below(&s, 80)).difference(RaQuery::spc(hotels_below(&s, 10))),
        );
        let induced2 = q2.maximal_induced();
        assert_eq!(induced2.spc_leaves().len(), 2);
        assert_eq!(induced2.num_differences(), 0);
    }

    #[test]
    fn validate_rejects_mismatched_branch_outputs() {
        let s = schema();
        let mut other = hotels_below(&s, 95);
        other.output[0].name = "town".into();
        let q = RaQuery::spc(hotels_below(&s, 95)).union(RaQuery::spc(other));
        assert!(q.validate(&s).is_err());
    }

    #[test]
    fn to_ra_composes_union_and_difference() {
        let s = schema();
        let q = RaQuery::spc(hotels_below(&s, 95)).difference(RaQuery::spc(hotels_below(&s, 20)));
        let ra = q.to_ra(&s).unwrap();
        assert!(ra.has_difference());
        assert_eq!(ra.relation_count(), 2);
    }

    #[test]
    fn agg_query_validates_columns() {
        let s = schema();
        let base = RaQuery::spc(hotels_below(&s, 95));
        let agg = AggQuery::new(
            base.clone(),
            vec!["city".into()],
            AggFunc::Count,
            "price",
            "n",
        )
        .unwrap();
        assert_eq!(agg.output_columns(), vec!["city", "n"]);
        assert!(AggQuery::new(
            base.clone(),
            vec!["nope".into()],
            AggFunc::Count,
            "price",
            "n"
        )
        .is_err());
        assert!(AggQuery::new(base, vec!["city".into()], AggFunc::Count, "nope", "n").is_err());
    }

    #[test]
    fn beas_query_conversions_and_metadata() {
        let s = schema();
        let spc: BeasQuery = hotels_below(&s, 95).into();
        assert!(spc.is_spc());
        assert!(!spc.is_aggregate());
        assert_eq!(spc.output_columns(), vec!["city", "price"]);
        assert!(spc.to_query_expr(&s).is_ok());

        let agg: BeasQuery = AggQuery::new(
            RaQuery::spc(hotels_below(&s, 95)),
            vec!["city".into()],
            AggFunc::Avg,
            "price",
            "avg_price",
        )
        .unwrap()
        .into();
        assert!(agg.is_aggregate());
        assert_eq!(agg.output_columns(), vec!["city", "avg_price"]);
        let dists = agg.output_distances(&s).unwrap();
        assert_eq!(dists, vec![DistanceKind::Trivial, DistanceKind::Numeric]);
        assert!(matches!(
            agg.to_query_expr(&s).unwrap(),
            QueryExpr::Aggregate(_)
        ));
    }

    #[test]
    fn output_distances_follow_leftmost_leaf() {
        let s = schema();
        let q = RaQuery::spc(hotels_below(&s, 95)).union(RaQuery::spc(hotels_below(&s, 50)));
        let d = q.output_distances(&s).unwrap();
        assert_eq!(d, vec![DistanceKind::Trivial, DistanceKind::Numeric]);
    }
}
