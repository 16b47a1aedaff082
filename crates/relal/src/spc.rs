//! SPC (select–project–Cartesian-product) queries in conjunctive, tableau-friendly form.
//!
//! The chase of Sec. 5 operates on the *tableau* of an SPC query: one tuple
//! template per relation atom, with variables shared across positions encoding
//! equality joins. [`SpcQuery`] is exactly that representation; it converts
//! losslessly to an [`RaExpr`] for evaluation.

use std::collections::BTreeMap;

use crate::distance::DistanceKind;
use crate::error::{RelalError, Result};
use crate::expr::RaExpr;
use crate::predicate::{CompareOp, Predicate, PredicateAtom};
use crate::schema::DatabaseSchema;
use crate::value::Value;

/// A relation atom of an SPC query: a relation occurrence under an alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpcAtom {
    /// Relation name.
    pub relation: String,
    /// Alias (unique within the query); output columns are `"{alias}.{attr}"`.
    pub alias: String,
}

/// A term filling one position of a tuple template: a constant or a variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A constant from the query.
    Const(Value),
    /// A variable, identified by index.
    Var(usize),
}

impl Term {
    /// The variable index if this term is a variable.
    pub fn var(&self) -> Option<usize> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Returns `true` for constants.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

/// A non-join selection condition over variables.
#[derive(Debug, Clone, PartialEq)]
pub enum SelCond {
    /// `var op constant` (e.g. `price ≤ 95`).
    VarConst {
        /// Variable index.
        var: usize,
        /// Comparison operator.
        op: CompareOp,
        /// Constant operand.
        value: Value,
    },
    /// `left op right` between two variables (e.g. `a.delay ≥ b.delay`).
    VarVar {
        /// Left variable index.
        left: usize,
        /// Comparison operator.
        op: CompareOp,
        /// Right variable index.
        right: usize,
    },
}

/// One output column of an SPC query.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputCol {
    /// Output column name.
    pub name: String,
    /// The variable projected into this column.
    pub var: usize,
}

/// A position in the tableau: `(atom index, attribute index)`.
pub type Position = (usize, usize);

/// An SPC query in conjunctive form: atoms, tuple templates (terms), extra
/// selection conditions, and the output tuple `u(Q)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpcQuery {
    /// Relation atoms.
    pub atoms: Vec<SpcAtom>,
    /// `terms[i][j]` fills attribute `j` of atom `i`. Every position has a
    /// term; unconstrained positions hold fresh variables.
    pub terms: Vec<Vec<Term>>,
    /// Selection conditions that are not encoded by constants/shared variables.
    pub selections: Vec<SelCond>,
    /// The output tuple (projected variables).
    pub output: Vec<OutputCol>,
}

impl SpcQuery {
    /// Number of variables used by the query (`max var index + 1`).
    pub fn num_vars(&self) -> usize {
        let mut max = None;
        for t in self.terms.iter().flatten() {
            if let Term::Var(v) = t {
                max = Some(max.map_or(*v, |m: usize| m.max(*v)));
            }
        }
        for s in &self.selections {
            match s {
                SelCond::VarConst { var, .. } => {
                    max = Some(max.map_or(*var, |m: usize| m.max(*var)))
                }
                SelCond::VarVar { left, right, .. } => {
                    let v = (*left).max(*right);
                    max = Some(max.map_or(v, |m: usize| m.max(v)));
                }
            }
        }
        for o in &self.output {
            max = Some(max.map_or(o.var, |m: usize| m.max(o.var)));
        }
        max.map_or(0, |m| m + 1)
    }

    /// `||Q||`: the number of relation atoms.
    pub fn relation_count(&self) -> usize {
        self.atoms.len()
    }

    /// All positions (atom, attribute) where each variable occurs.
    pub fn var_positions(&self) -> BTreeMap<usize, Vec<Position>> {
        let mut map: BTreeMap<usize, Vec<Position>> = BTreeMap::new();
        for (ai, terms) in self.terms.iter().enumerate() {
            for (pi, term) in terms.iter().enumerate() {
                if let Term::Var(v) = term {
                    map.entry(*v).or_default().push((ai, pi));
                }
            }
        }
        map
    }

    /// The qualified column name of a position using real attribute names from
    /// the schema.
    pub fn position_column_named(&self, schema: &DatabaseSchema, pos: Position) -> Result<String> {
        let atom = self
            .atoms
            .get(pos.0)
            .ok_or_else(|| RelalError::InvalidQuery(format!("no atom {}", pos.0)))?;
        let rel = schema.relation(&atom.relation)?;
        let attr = rel
            .attributes
            .get(pos.1)
            .ok_or_else(|| RelalError::UnknownColumn(format!("{}[{}]", atom.relation, pos.1)))?;
        Ok(format!("{}.{}", atom.alias, attr.name))
    }

    /// The first position of a variable (its canonical occurrence).
    pub fn var_first_position(&self, var: usize) -> Option<Position> {
        for (ai, terms) in self.terms.iter().enumerate() {
            for (pi, term) in terms.iter().enumerate() {
                if term == &Term::Var(var) {
                    return Some((ai, pi));
                }
            }
        }
        None
    }

    /// The distance kind of the attribute at a position.
    pub fn position_distance(
        &self,
        schema: &DatabaseSchema,
        pos: Position,
    ) -> Result<DistanceKind> {
        let atom = &self.atoms[pos.0];
        let rel = schema.relation(&atom.relation)?;
        Ok(rel
            .attributes
            .get(pos.1)
            .ok_or_else(|| RelalError::UnknownColumn(format!("{}[{}]", atom.relation, pos.1)))?
            .distance)
    }

    /// Number of selection predicates in the query: constants in the tableau,
    /// explicit selection conditions, and one per extra occurrence of a shared
    /// variable (equality joins). This is the `#-sel` knob of the evaluation.
    pub fn selection_count(&self) -> usize {
        let consts = self.terms.iter().flatten().filter(|t| t.is_const()).count();
        let joins: usize = self
            .var_positions()
            .values()
            .map(|ps| ps.len().saturating_sub(1))
            .sum();
        consts + joins + self.selections.len()
    }

    /// Validates structural well-formedness against a schema: alias
    /// uniqueness, term arity, variable references.
    pub fn validate(&self, schema: &DatabaseSchema) -> Result<()> {
        if self.atoms.len() != self.terms.len() {
            return Err(RelalError::InvalidQuery(
                "atoms and terms length mismatch".into(),
            ));
        }
        if self.output.is_empty() {
            return Err(RelalError::InvalidQuery("empty output".into()));
        }
        let mut seen_alias = Vec::new();
        for (atom, terms) in self.atoms.iter().zip(self.terms.iter()) {
            if seen_alias.contains(&atom.alias) {
                return Err(RelalError::InvalidQuery(format!(
                    "duplicate alias {}",
                    atom.alias
                )));
            }
            seen_alias.push(atom.alias.clone());
            let rel = schema.relation(&atom.relation)?;
            if terms.len() != rel.arity() {
                return Err(RelalError::InvalidQuery(format!(
                    "atom {} has {} terms but {} has arity {}",
                    atom.alias,
                    terms.len(),
                    atom.relation,
                    rel.arity()
                )));
            }
        }
        let vars = self.var_positions();
        let check_var = |v: usize| -> Result<()> {
            if vars.contains_key(&v) {
                Ok(())
            } else {
                Err(RelalError::InvalidQuery(format!(
                    "variable {v} does not occur in any atom"
                )))
            }
        };
        for s in &self.selections {
            match s {
                SelCond::VarConst { var, .. } => check_var(*var)?,
                SelCond::VarVar { left, right, .. } => {
                    check_var(*left)?;
                    check_var(*right)?;
                }
            }
        }
        for o in &self.output {
            check_var(o.var)?;
        }
        Ok(())
    }

    /// Converts the conjunctive query to a relational-algebra expression:
    /// a product of scans, a selection encoding constants / shared variables /
    /// explicit conditions, and the output projection.
    pub fn to_ra(&self, schema: &DatabaseSchema) -> Result<RaExpr> {
        self.validate(schema)?;
        // product of scans
        let mut expr: Option<RaExpr> = None;
        for atom in &self.atoms {
            let scan = RaExpr::scan(atom.relation.clone(), atom.alias.clone());
            expr = Some(match expr {
                None => scan,
                Some(e) => e.product(scan),
            });
        }
        let mut expr = expr.ok_or_else(|| RelalError::InvalidQuery("no atoms".into()))?;

        let mut atoms: Vec<PredicateAtom> = Vec::new();
        // constants in the tableau
        for (ai, terms) in self.terms.iter().enumerate() {
            for (pi, term) in terms.iter().enumerate() {
                if let Term::Const(v) = term {
                    let col = self.position_column_named(schema, (ai, pi))?;
                    let dk = self.position_distance(schema, (ai, pi))?;
                    atoms.push(PredicateAtom::ColConst {
                        col,
                        op: CompareOp::Eq,
                        value: v.clone(),
                        distance: dk,
                        tol: 0.0,
                    });
                }
            }
        }
        // equality joins from shared variables
        for (_, positions) in self.var_positions() {
            if positions.len() > 1 {
                let first = self.position_column_named(schema, positions[0])?;
                let dk = self.position_distance(schema, positions[0])?;
                for &p in &positions[1..] {
                    let other = self.position_column_named(schema, p)?;
                    atoms.push(PredicateAtom::ColCol {
                        left: first.clone(),
                        op: CompareOp::Eq,
                        right: other,
                        distance: dk,
                        tol: 0.0,
                    });
                }
            }
        }
        // explicit selection conditions
        for sel in &self.selections {
            match sel {
                SelCond::VarConst { var, op, value } => {
                    let pos = self
                        .var_first_position(*var)
                        .ok_or_else(|| RelalError::InvalidQuery(format!("unbound var {var}")))?;
                    let col = self.position_column_named(schema, pos)?;
                    let dk = self.position_distance(schema, pos)?;
                    atoms.push(PredicateAtom::ColConst {
                        col,
                        op: *op,
                        value: value.clone(),
                        distance: dk,
                        tol: 0.0,
                    });
                }
                SelCond::VarVar { left, op, right } => {
                    let lpos = self
                        .var_first_position(*left)
                        .ok_or_else(|| RelalError::InvalidQuery(format!("unbound var {left}")))?;
                    let rpos = self
                        .var_first_position(*right)
                        .ok_or_else(|| RelalError::InvalidQuery(format!("unbound var {right}")))?;
                    let dk = self.position_distance(schema, lpos)?;
                    atoms.push(PredicateAtom::ColCol {
                        left: self.position_column_named(schema, lpos)?,
                        op: *op,
                        right: self.position_column_named(schema, rpos)?,
                        distance: dk,
                        tol: 0.0,
                    });
                }
            }
        }
        if !atoms.is_empty() {
            expr = expr.select(Predicate::all(atoms));
        }
        // output projection
        let mut proj = Vec::new();
        for out in &self.output {
            let pos = self.var_first_position(out.var).ok_or_else(|| {
                RelalError::InvalidQuery(format!("unbound output var {}", out.var))
            })?;
            proj.push((out.name.clone(), self.position_column_named(schema, pos)?));
        }
        Ok(expr.project(proj))
    }

    /// The distance kinds of the output columns, in output order.
    pub fn output_distances(&self, schema: &DatabaseSchema) -> Result<Vec<DistanceKind>> {
        self.output
            .iter()
            .map(|o| {
                let pos = self
                    .var_first_position(o.var)
                    .ok_or_else(|| RelalError::InvalidQuery(format!("unbound var {}", o.var)))?;
                self.position_distance(schema, pos)
            })
            .collect()
    }
}

/// A convenience builder for [`SpcQuery`] that manages fresh variables and
/// attribute-name resolution against a schema.
#[derive(Debug, Clone)]
pub struct SpcQueryBuilder<'a> {
    schema: &'a DatabaseSchema,
    atoms: Vec<SpcAtom>,
    terms: Vec<Vec<Term>>,
    selections: Vec<SelCond>,
    output: Vec<OutputCol>,
    next_var: usize,
}

impl<'a> SpcQueryBuilder<'a> {
    /// Starts building a query over `schema`.
    pub fn new(schema: &'a DatabaseSchema) -> Self {
        SpcQueryBuilder {
            schema,
            atoms: Vec::new(),
            terms: Vec::new(),
            selections: Vec::new(),
            output: Vec::new(),
            next_var: 0,
        }
    }

    /// Adds a relation atom with fresh variables in every position and returns
    /// its atom index.
    pub fn atom(&mut self, relation: &str, alias: &str) -> Result<usize> {
        let rel = self.schema.relation(relation)?;
        let terms = (0..rel.arity())
            .map(|_| {
                let v = self.next_var;
                self.next_var += 1;
                Term::Var(v)
            })
            .collect();
        self.atoms.push(SpcAtom {
            relation: relation.to_string(),
            alias: alias.to_string(),
        });
        self.terms.push(terms);
        Ok(self.atoms.len() - 1)
    }

    /// The variable at `(atom, attribute-name)`.
    pub fn var_of(&self, atom: usize, attr: &str) -> Result<usize> {
        let rel = self.schema.relation(&self.atoms[atom].relation)?;
        let idx = rel.attr_index(attr)?;
        self.terms[atom][idx]
            .var()
            .ok_or_else(|| RelalError::InvalidQuery(format!("{attr} of atom {atom} is a constant")))
    }

    /// Binds an attribute of an atom to a constant (`σ_{A=c}` folded into the
    /// tableau).
    pub fn bind_const(
        &mut self,
        atom: usize,
        attr: &str,
        value: impl Into<Value>,
    ) -> Result<&mut Self> {
        let rel = self.schema.relation(&self.atoms[atom].relation)?;
        let idx = rel.attr_index(attr)?;
        self.terms[atom][idx] = Term::Const(value.into());
        Ok(self)
    }

    /// Makes two positions share a variable (equality join).
    pub fn join(&mut self, a: (usize, &str), b: (usize, &str)) -> Result<&mut Self> {
        let va = self.var_of(a.0, a.1)?;
        let vb = self.var_of(b.0, b.1)?;
        // rewrite every occurrence of vb to va
        for terms in &mut self.terms {
            for term in terms {
                if *term == Term::Var(vb) {
                    *term = Term::Var(va);
                }
            }
        }
        for sel in &mut self.selections {
            match sel {
                SelCond::VarConst { var, .. } => {
                    if *var == vb {
                        *var = va;
                    }
                }
                SelCond::VarVar { left, right, .. } => {
                    if *left == vb {
                        *left = va;
                    }
                    if *right == vb {
                        *right = va;
                    }
                }
            }
        }
        for out in &mut self.output {
            if out.var == vb {
                out.var = va;
            }
        }
        Ok(self)
    }

    /// Adds a `attr op constant` selection condition.
    pub fn filter_const(
        &mut self,
        atom: usize,
        attr: &str,
        op: CompareOp,
        value: impl Into<Value>,
    ) -> Result<&mut Self> {
        let var = self.var_of(atom, attr)?;
        self.selections.push(SelCond::VarConst {
            var,
            op,
            value: value.into(),
        });
        Ok(self)
    }

    /// Adds a `left-attr op right-attr` selection condition.
    pub fn filter_cols(
        &mut self,
        a: (usize, &str),
        op: CompareOp,
        b: (usize, &str),
    ) -> Result<&mut Self> {
        let left = self.var_of(a.0, a.1)?;
        let right = self.var_of(b.0, b.1)?;
        self.selections.push(SelCond::VarVar { left, op, right });
        Ok(self)
    }

    /// Adds an output column projecting `atom.attr` under `name`.
    pub fn output(&mut self, atom: usize, attr: &str, name: &str) -> Result<&mut Self> {
        let var = self.var_of(atom, attr)?;
        self.output.push(OutputCol {
            name: name.to_string(),
            var,
        });
        Ok(self)
    }

    /// Finishes the build, validating the query.
    pub fn build(self) -> Result<SpcQuery> {
        let q = SpcQuery {
            atoms: self.atoms,
            terms: self.terms,
            selections: self.selections,
            output: self.output,
        };
        q.validate(self.schema)?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, RelationSchema};

    /// The Example 1 schema of the paper: person, friend, poi.
    pub fn example1_schema() -> DatabaseSchema {
        DatabaseSchema::new(vec![
            RelationSchema::new(
                "person",
                vec![
                    Attribute::id("pid"),
                    Attribute::text("city"),
                    Attribute::text("address"),
                ],
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

    /// Q1 of Example 1: hotels ≤ $95 in a city where a friend of p0 lives.
    pub fn example1_q1(schema: &DatabaseSchema, p0: i64) -> SpcQuery {
        let mut b = SpcQueryBuilder::new(schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(f, "pid", p0).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.join((p, "city"), (h, "city")).unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 95i64).unwrap();
        b.output(h, "address", "address").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_constructs_q1_with_expected_shape() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        assert_eq!(q.atoms.len(), 3);
        assert_eq!(q.output.len(), 2);
        // constants: f.pid = p0, h.type = hotel → 2; joins: 2; explicit: 1
        assert_eq!(q.selection_count(), 5);
        assert_eq!(q.relation_count(), 3);
        q.validate(&schema).unwrap();
    }

    #[test]
    fn var_positions_capture_joins() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        let shared: Vec<_> = q
            .var_positions()
            .into_iter()
            .filter(|(_, ps)| ps.len() > 1)
            .collect();
        // two join variables: fid=pid and city=city
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn to_ra_produces_product_select_project() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        let ra = q.to_ra(&schema).unwrap();
        assert_eq!(ra.relation_count(), 3);
        match &ra {
            RaExpr::Project { input, columns } => {
                assert_eq!(columns.len(), 2);
                assert!(matches!(**input, RaExpr::Select { .. }));
            }
            other => panic!("unexpected root: {other:?}"),
        }
    }

    #[test]
    fn position_column_named_uses_schema_names() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        // atom 2 is poi AS h; attribute 3 is price
        assert_eq!(q.position_column_named(&schema, (2, 3)).unwrap(), "h.price");
        assert!(q.position_column_named(&schema, (2, 9)).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_aliases_and_bad_arity() {
        let schema = example1_schema();
        let mut q = example1_q1(&schema, 1);
        q.atoms[1].alias = "f".into();
        assert!(q.validate(&schema).is_err());

        let mut q2 = example1_q1(&schema, 1);
        q2.terms[0].pop();
        assert!(q2.validate(&schema).is_err());
    }

    #[test]
    fn validate_rejects_unbound_output_var() {
        let schema = example1_schema();
        let mut q = example1_q1(&schema, 1);
        q.output.push(OutputCol {
            name: "ghost".into(),
            var: 999,
        });
        assert!(q.validate(&schema).is_err());
    }

    #[test]
    fn validate_rejects_empty_output() {
        let schema = example1_schema();
        let mut q = example1_q1(&schema, 1);
        q.output.clear();
        assert!(q.validate(&schema).is_err());
    }

    #[test]
    fn output_distances_follow_schema() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        let d = q.output_distances(&schema).unwrap();
        assert_eq!(d, vec![DistanceKind::Trivial, DistanceKind::Numeric]);
    }

    #[test]
    fn num_vars_counts_all_variables() {
        let schema = example1_schema();
        let q = example1_q1(&schema, 1);
        // 3 + 2 + 4 = 9 positions created; two joins merge two pairs → but
        // num_vars counts the max index + 1 (fresh vars are not renumbered)
        assert!(q.num_vars() >= 7);
    }

    #[test]
    fn selection_count_tracks_explicit_conditions() {
        let schema = example1_schema();
        let mut b = SpcQueryBuilder::new(&schema);
        let p = b.atom("person", "p").unwrap();
        b.output(p, "city", "city").unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.selection_count(), 0);
    }
}
