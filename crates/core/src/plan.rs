//! Bounded query plans: fetch plans, tariff estimation and per-position
//! resolutions (Sec. 2.2 and Sec. 5).
//!
//! A bounded plan is canonical, `ξ_α = (ξ_F, ξ_E)` (Lemma 3): the *fetching
//! plan* `ξ_F` is a DAG of [`FetchNode`]s, each corresponding to one
//! `fetch(X ∈ T, R, Y, ψ)` operation whose input keys come from constants of
//! the query and/or from the output of an earlier fetch; the *evaluation plan*
//! `ξ_E` then runs the (relaxation-compensated) relational operations of the
//! query over the fetched data — it is built by the executor from the
//! per-position resolutions recorded here.
//!
//! The number of tuples a plan accesses (its *tariff*) is estimated from the
//! cardinality bounds `N` of the access templates alone, without touching the
//! database — property (2) of the approximation scheme.

use std::collections::BTreeSet;

use beas_access::{Catalog, FamilyId, Level};
use beas_relal::{DatabaseSchema, SpcQuery, Value};

use crate::error::{BeasError, Result};

/// Where one component of a fetch key comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum KeySource {
    /// A constant of the query.
    Const(Value),
    /// A column of the input node's output (identified by the attribute name
    /// in that node's output relation).
    Column(String),
}

/// One `fetch(X ∈ T, R, Y, ψ)` operation of a fetching plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchNode {
    /// Node id (index into the plan's node list).
    pub id: usize,
    /// The template family used.
    pub family: FamilyId,
    /// The resolution level of the family used (mutated by `chAT`).
    pub level: usize,
    /// The relation fetched from.
    pub relation: String,
    /// Index of the SPC leaf (within the planned [`RaQuery`](crate::RaQuery))
    /// this node belongs to.
    pub subquery: usize,
    /// Index of the atom within the leaf this node fetches for.
    pub atom: usize,
    /// The node whose output supplies the variable components of the key, if
    /// any.
    pub input_node: Option<usize>,
    /// One entry per X attribute of the family, in the family's X order.
    pub key_sources: Vec<KeySource>,
    /// Whether this node's output is the fetched relation used for its atom in
    /// the evaluation plan (the "completion" fetch of the atom).
    pub is_completion: bool,
}

/// The fetching plan `ξ_F`: fetch nodes in execution (topological) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchPlan {
    /// The fetch nodes. A node may only reference earlier nodes as input.
    pub nodes: Vec<FetchNode>,
}

impl FetchPlan {
    /// Adds a node, assigning its id, and returns the id.
    pub fn push(&mut self, mut node: FetchNode) -> usize {
        node.id = self.nodes.len();
        debug_assert!(node.input_node.is_none_or(|i| i < node.id));
        self.nodes.push(node);
        node_id_of(&self.nodes)
    }

    /// The node with the given id.
    pub fn node(&self, id: usize) -> Result<&FetchNode> {
        self.nodes
            .get(id)
            .ok_or_else(|| BeasError::Planning(format!("unknown fetch node {id}")))
    }

    /// The tariff of the plan as it stands: one forward pass over the nodes,
    /// which are in topological order.
    pub(crate) fn tariff(&self, catalog: &Catalog) -> Result<Tariff> {
        let mut tariff = Tariff::default();
        for node in &self.nodes {
            let level = catalog.family(node.family)?.level(node.level)?;
            tariff.push(level, node.input_node)?;
        }
        Ok(tariff)
    }

    /// Estimated tuples accessed by each node, in node order: the number of
    /// distinct keys the node probes (1 for a constant key, else the rows its
    /// input node outputs) times the level's bound `N`, capped by the number
    /// of tuples stored at that level of the family (a fetch of distinct keys
    /// can never return more than the whole level).
    pub fn node_tariffs(&self, catalog: &Catalog) -> Result<Vec<usize>> {
        Ok(self.tariff(catalog)?.rows)
    }

    /// Estimated total tariff of the plan (`tariff(ξ_F)` in Fig. 3).
    pub fn total_tariff(&self, catalog: &Catalog) -> Result<usize> {
        Ok(self.tariff(catalog)?.total())
    }

    /// The family ids used by the plan (deduplicated).
    pub fn used_families(&self) -> Vec<FamilyId> {
        let mut ids: Vec<FamilyId> = self.nodes.iter().map(|n| n.family).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The resolution with which `attr` of the node's relation is fetched:
    /// `0` when the attribute is part of the lookup key (its values come from
    /// exactly-covered variables or constants), the family's level resolution
    /// when it is part of Y, and `+∞` when the node does not produce it.
    pub fn attr_resolution(&self, catalog: &Catalog, id: usize, attr: &str) -> Result<f64> {
        let node = self.node(id)?;
        let family = catalog.family(node.family)?;
        if family.x.iter().any(|a| a == attr) {
            return Ok(0.0);
        }
        match family.resolution_of(node.level, attr) {
            Some(r) => Ok(r),
            None => Ok(f64::INFINITY),
        }
    }
}

fn node_id_of(nodes: &[FetchNode]) -> usize {
    nodes.len() - 1
}

/// The tariff estimate of a fetching plan, built node by node in plan
/// (topological) order — the only implementation of the estimate. The chase
/// appends to it as it appends nodes; `chAT` re-runs it over the plan's shape
/// for every level upgrade it tries; [`FetchPlan::total_tariff`] is one pass
/// over the plan as it stands.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tariff {
    /// Estimated rows output (= tuples accessed) per node.
    rows: Vec<usize>,
    /// Saturating sum of `rows`.
    total: usize,
}

impl Tariff {
    /// Appends the next node of the plan: a fetch at `level` keyed by the
    /// output of node `input` (by constants when `None`).
    pub(crate) fn push(&mut self, level: &Level, input: Option<usize>) -> Result<()> {
        let keys = match input {
            None => 1,
            Some(i) => *self.rows.get(i).ok_or_else(|| {
                BeasError::Planning(format!(
                    "fetch node {} takes its keys from node {i}, which does not precede it",
                    self.rows.len()
                ))
            })?,
        };
        let rows = keys
            .saturating_mul(level.n.max(1))
            .min(level.stored_tuples().max(1));
        self.rows.push(rows);
        self.total = self.total.saturating_add(rows);
        Ok(())
    }

    /// Forgets every node, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.total = 0;
    }

    /// Estimated rows output by node `id`.
    pub(crate) fn rows(&self, id: usize) -> usize {
        self.rows[id]
    }

    /// Estimated tuples accessed by all nodes pushed so far.
    pub(crate) fn total(&self) -> usize {
        self.total
    }
}

/// Per-leaf planning information: which fetch node provides each atom's
/// relation for the evaluation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafPlan {
    /// Index of the SPC leaf within the query.
    pub leaf: usize,
    /// `atom_nodes[i]` is the id of the completion [`FetchNode`] of atom `i`.
    pub atom_nodes: Vec<usize>,
}

impl LeafPlan {
    /// Resolution of a tableau position `(atom, attribute index)` under the
    /// current plan.
    pub fn position_resolution(
        &self,
        plan: &FetchPlan,
        catalog: &Catalog,
        schema: &DatabaseSchema,
        leaf: &SpcQuery,
        pos: beas_relal::Position,
    ) -> Result<f64> {
        let node_id = *self
            .atom_nodes
            .get(pos.0)
            .ok_or_else(|| BeasError::Planning(format!("no completion node for atom {}", pos.0)))?;
        let atom = &leaf.atoms[pos.0];
        let rel_schema = schema.relation(&atom.relation)?;
        let attr = rel_schema
            .attributes
            .get(pos.1)
            .ok_or_else(|| BeasError::Planning(format!("bad position {pos:?}")))?;
        plan.attr_resolution(catalog, node_id, &attr.name)
    }
}

/// The attribute positions of each atom that the plan must provide: constants
/// (used as selection conditions), output variables, variables in explicit
/// selection conditions, and join variables shared between atoms.
pub fn needed_positions(leaf: &SpcQuery) -> Vec<BTreeSet<usize>> {
    let mut needed: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); leaf.atoms.len()];
    let var_positions = leaf.var_positions();

    // constants
    for (ai, terms) in leaf.terms.iter().enumerate() {
        for (pi, term) in terms.iter().enumerate() {
            if term.is_const() {
                needed[ai].insert(pi);
            }
        }
    }
    // join variables (occurring in more than one atom or more than once)
    for positions in var_positions.values() {
        if positions.len() > 1 {
            for &(ai, pi) in positions {
                needed[ai].insert(pi);
            }
        }
    }
    // output variables
    let mark_var = |v: usize, needed: &mut Vec<BTreeSet<usize>>| {
        if let Some(positions) = var_positions.get(&v) {
            for &(ai, pi) in positions {
                needed[ai].insert(pi);
            }
        }
    };
    for out in &leaf.output {
        mark_var(out.var, &mut needed);
    }
    // selection variables
    for sel in &leaf.selections {
        match sel {
            beas_relal::SelCond::VarConst { var, .. } => mark_var(*var, &mut needed),
            beas_relal::SelCond::VarVar { left, right, .. } => {
                mark_var(*left, &mut needed);
                mark_var(*right, &mut needed);
            }
        }
    }
    needed
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::{build_constraint, build_extended};
    use beas_relal::{Attribute, CompareOp, Database, RelationSchema, SpcQueryBuilder};

    fn example_db() -> Database {
        let schema = DatabaseSchema::new(vec![
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
        ]);
        let mut db = Database::new(schema);
        for i in 0..40i64 {
            db.insert_row("friend", vec![Value::Int(i % 8), Value::Int(i)])
                .unwrap();
            db.insert_row(
                "person",
                vec![
                    Value::Int(i),
                    Value::from(if i % 2 == 0 { "NYC" } else { "LA" }),
                ],
            )
            .unwrap();
            db.insert_row(
                "poi",
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(if i % 3 == 0 { "hotel" } else { "museum" }),
                    Value::from(if i % 2 == 0 { "NYC" } else { "LA" }),
                    Value::Double(40.0 + i as f64 * 2.0),
                ],
            )
            .unwrap();
        }
        db
    }

    fn catalog_for(db: &Database) -> Catalog {
        let mut catalog = Catalog::for_database(db).unwrap();
        catalog.add_family(build_constraint(db, "friend", &["pid"], &["fid"]).unwrap());
        catalog.add_family(build_constraint(db, "person", &["pid"], &["city"]).unwrap());
        catalog.add_family(
            build_extended(db, "poi", &["type", "city"], &["price", "address"]).unwrap(),
        );
        catalog
    }

    fn q1(db: &Database) -> SpcQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.join((p, "city"), (h, "city")).unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 95i64).unwrap();
        b.output(h, "address", "address").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn needed_positions_cover_constants_joins_selections_and_output() {
        let db = example_db();
        let q = q1(&db);
        let needed = needed_positions(&q);
        // friend: pid (const), fid (join)
        assert_eq!(needed[0], BTreeSet::from([0, 1]));
        // person: pid (join), city (join)
        assert_eq!(needed[1], BTreeSet::from([0, 1]));
        // poi: address (output), type (const), city (join), price (sel+output)
        assert_eq!(needed[2], BTreeSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn tariff_estimation_composes_n_bounds() {
        let db = example_db();
        let catalog = catalog_for(&db);
        let friend_c = catalog.constraints_for("friend")[0];
        let person_c = catalog.constraints_for("person")[0];

        let mut plan = FetchPlan::default();
        let n0 = plan.push(FetchNode {
            id: 0,
            family: friend_c,
            level: 0,
            relation: "friend".into(),
            subquery: 0,
            atom: 0,
            input_node: None,
            key_sources: vec![KeySource::Const(Value::Int(1))],
            is_completion: true,
        });
        let n1 = plan.push(FetchNode {
            id: 0,
            family: person_c,
            level: 0,
            relation: "person".into(),
            subquery: 0,
            atom: 1,
            input_node: Some(n0),
            key_sources: vec![KeySource::Column("fid".into())],
            is_completion: true,
        });
        let friend_n = catalog.family(friend_c).unwrap().levels[0].n;
        // one constant key into friend; its output keys the person
        // constraint, which returns 1 city per pid
        assert_eq!((n0, n1), (0, 1));
        assert_eq!(
            plan.node_tariffs(&catalog).unwrap(),
            vec![friend_n, friend_n]
        );
        assert_eq!(plan.total_tariff(&catalog).unwrap(), 2 * friend_n);
        assert_eq!(plan.used_families(), {
            let mut v = vec![friend_c, person_c];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn attr_resolution_distinguishes_key_and_fetched_attributes() {
        let db = example_db();
        let catalog = catalog_for(&db);
        let poi_t = *catalog
            .families_for("poi")
            .iter()
            .find(|&&id| {
                let f = catalog.family(id).unwrap();
                !f.is_constraint() && !f.is_full_relation()
            })
            .unwrap();
        let mut plan = FetchPlan::default();
        let n = plan.push(FetchNode {
            id: 0,
            family: poi_t,
            level: 0,
            relation: "poi".into(),
            subquery: 0,
            atom: 2,
            input_node: None,
            key_sources: vec![
                KeySource::Const(Value::from("hotel")),
                KeySource::Const(Value::from("NYC")),
            ],
            is_completion: true,
        });
        // key attributes are exact
        assert_eq!(plan.attr_resolution(&catalog, n, "type").unwrap(), 0.0);
        assert_eq!(plan.attr_resolution(&catalog, n, "city").unwrap(), 0.0);
        // fetched attributes carry the level-0 resolution (> 0 here)
        assert!(plan.attr_resolution(&catalog, n, "price").unwrap() > 0.0);
        // attributes the family does not produce are unknown → ∞
        assert!(plan
            .attr_resolution(&catalog, n, "nonexistent")
            .unwrap()
            .is_infinite());
        // the exact level brings the resolution to 0
        let exact = catalog.family(poi_t).unwrap().exact_level();
        let mut plan2 = plan.clone();
        plan2.nodes[n].level = exact;
        assert_eq!(plan2.attr_resolution(&catalog, n, "price").unwrap(), 0.0);
    }

    #[test]
    fn leaf_plan_position_resolution_uses_completion_node() {
        let db = example_db();
        let catalog = catalog_for(&db);
        let q = q1(&db);
        let poi_t = *catalog
            .families_for("poi")
            .iter()
            .find(|&&id| {
                let f = catalog.family(id).unwrap();
                !f.is_constraint() && !f.is_full_relation()
            })
            .unwrap();
        let friend_c = catalog.constraints_for("friend")[0];
        let person_c = catalog.constraints_for("person")[0];
        let mut plan = FetchPlan::default();
        for (i, (fam, rel)) in [(friend_c, "friend"), (person_c, "person"), (poi_t, "poi")]
            .into_iter()
            .enumerate()
        {
            plan.push(FetchNode {
                id: 0,
                family: fam,
                level: 0,
                relation: rel.into(),
                subquery: 0,
                atom: i,
                input_node: None,
                key_sources: vec![],
                is_completion: true,
            });
        }
        let leaf_plan = LeafPlan {
            leaf: 0,
            atom_nodes: vec![0, 1, 2],
        };
        // poi.price (atom 2, attr 3) is fetched approximately at level 0
        let r = leaf_plan
            .position_resolution(&plan, &catalog, &db.schema, &q, (2, 3))
            .unwrap();
        assert!(r > 0.0);
        // friend.fid (atom 0, attr 1) is fetched by a constraint → exact
        let r = leaf_plan
            .position_resolution(&plan, &catalog, &db.schema, &q, (0, 1))
            .unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn unknown_node_lookup_errors() {
        let plan = FetchPlan::default();
        assert!(plan.node(0).is_err());
    }

    #[test]
    fn tariff_rejects_a_node_keyed_by_a_later_node() {
        let db = example_db();
        let catalog = catalog_for(&db);
        let person_c = catalog.constraints_for("person")[0];
        // `nodes` is public: a hand-built plan can break the topological order
        let plan = FetchPlan {
            nodes: vec![FetchNode {
                id: 0,
                family: person_c,
                level: 0,
                relation: "person".into(),
                subquery: 0,
                atom: 0,
                input_node: Some(0),
                key_sources: vec![KeySource::Column("pid".into())],
                is_completion: true,
            }],
        };
        assert!(plan.total_tariff(&catalog).is_err());
        // as can an unknown family or level
        let mut plan = plan;
        plan.nodes[0].input_node = None;
        assert_eq!(plan.total_tariff(&catalog).unwrap(), 1);
        plan.nodes[0].level = 7;
        assert!(plan.total_tariff(&catalog).is_err());
    }
}
