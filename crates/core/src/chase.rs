//! The chase of SPC tableaux under an access schema (Sec. 5, Fig. 4), used to
//! derive the initial fetching plan of a bounded query plan.
//!
//! A chasing sequence repeatedly applies access constraints / templates of the
//! catalog to the tuple templates of the query's tableau, marking variables
//! and tuples *exactly* or *approximately* covered. Each chase step
//! corresponds to one fetch operation; the sequence terminates for every SPC
//! query because the canonical schema `A_t` always provides a
//! `R(∅ → attr(R), 2^k, d̄_k)` fallback for every relation (Lemma 4).
//!
//! This implementation makes one deliberate restriction: fetches are only
//! keyed on constants and *exactly* covered variables. When a key would have
//! to come from an approximately covered variable, the planner falls back to
//! the `A_t` whole-relation template instead, which keeps the coverage part
//! of the accuracy bound honest.

use std::collections::BTreeSet;

use beas_access::{Catalog, FamilyId};
use beas_relal::{SpcQuery, Term};

use crate::error::{BeasError, Result};
use crate::plan::{needed_positions, FetchNode, FetchPlan, KeySource, LeafPlan, Tariff};

/// Provenance of an exactly covered variable: which node's output column holds
/// its values.
#[derive(Debug, Clone, PartialEq)]
struct VarProvenance {
    node: usize,
    column: String,
}

/// Outcome of chasing one SPC leaf: the leaf's completion nodes plus the
/// number of fetch nodes appended to the shared plan.
#[derive(Debug, Clone)]
pub struct ChaseOutcome {
    /// The per-atom completion information for the leaf.
    pub leaf_plan: LeafPlan,
    /// `true` when every needed position is covered exactly (the leaf is
    /// boundedly evaluable under the catalog within the budget).
    pub all_exact: bool,
}

/// Chases one SPC leaf under the catalog, appending fetch nodes to `plan`.
///
/// `budget` is the global tuple budget `α·|D|`; constraint applications whose
/// estimated tariff would exceed it are skipped in favour of coarse templates,
/// exactly as in Fig. 3 ("if tariff exceeds budget B, we use template
/// `R(∅ → attr(R), 2^0, d̄_0)` instead").
///
/// `atoms_after` is the number of atoms of *later* leaves that still need a
/// completion fetch: one tuple of budget is reserved for each of them (and for
/// each not-yet-completed atom of this leaf), so that a greedy exact choice
/// for an early atom can never starve a later atom of its level-0 fallback and
/// push the overall plan past the budget.
pub fn chase_leaf(
    leaf: &SpcQuery,
    leaf_index: usize,
    catalog: &Catalog,
    plan: &mut FetchPlan,
    budget: usize,
    atoms_after: usize,
) -> Result<ChaseOutcome> {
    let needed = needed_positions(leaf);
    let schema = &catalog.schema;
    // the tariff of the nodes planned so far (earlier leaves included); no
    // node's level changes during the chase, so it is kept current by
    // appending alongside every `plan.push`
    let mut tariff = plan.tariff(catalog)?;

    // attribute names per atom position
    let mut attr_names: Vec<Vec<String>> = Vec::with_capacity(leaf.atoms.len());
    for atom in &leaf.atoms {
        attr_names.push(schema.relation(&atom.relation)?.attr_names());
    }

    // variable coverage: var → provenance of an exact covering
    let mut exact_vars: std::collections::BTreeMap<usize, VarProvenance> =
        std::collections::BTreeMap::new();

    // variables pinned to a constant by an equality selection (σ_{A=c} written
    // as an explicit condition rather than folded into the tableau)
    let const_vars: std::collections::BTreeMap<usize, beas_relal::Value> = leaf
        .selections
        .iter()
        .filter_map(|sel| match sel {
            beas_relal::SelCond::VarConst {
                var,
                op: beas_relal::CompareOp::Eq,
                value,
            } => Some((*var, value.clone())),
            _ => None,
        })
        .collect();

    // ---------------------------------------------------------------- phase 1
    // Apply access constraints to a fixpoint, covering variables exactly.
    let mut progress = true;
    while progress {
        progress = false;
        for (ai, atom) in leaf.atoms.iter().enumerate() {
            for &fam_id in catalog.constraints_for(&atom.relation) {
                let family = catalog.family(fam_id)?;
                // does applying this constraint cover a new needed variable?
                let covers_new = family.y.iter().any(|y_attr| {
                    position_of(&attr_names[ai], y_attr).is_some_and(|pi| {
                        needed[ai].contains(&pi)
                            && matches!(leaf.terms[ai][pi], Term::Var(v) if !exact_vars.contains_key(&v))
                    })
                });
                if !covers_new {
                    continue;
                }
                let Some((sources, input_node)) = key_sources_for(
                    leaf,
                    ai,
                    &attr_names[ai],
                    &family.x,
                    &exact_vars,
                    &const_vars,
                ) else {
                    continue;
                };
                // tariff check against the global budget, reserving one tuple
                // for every atom that still needs its completion fetch
                let exact_level = family.exact_level();
                let level = family.level(exact_level)?;
                let est_keys = input_node.map_or(1, |n| tariff.rows(n));
                let added = est_keys.saturating_mul(level.n.max(1));
                let reserve = atoms_after + leaf.atoms.len();
                if tariff.total().saturating_add(added).saturating_add(reserve) > budget {
                    continue;
                }
                // apply the constraint: one fetch node, Y variables become exact
                tariff.push(level, input_node)?;
                let node_id = plan.push(FetchNode {
                    id: 0,
                    family: fam_id,
                    level: exact_level,
                    relation: atom.relation.clone(),
                    subquery: leaf_index,
                    atom: ai,
                    input_node,
                    key_sources: sources,
                    is_completion: false,
                });
                for y_attr in &family.y {
                    if let Some(pi) = position_of(&attr_names[ai], y_attr) {
                        if let Term::Var(v) = leaf.terms[ai][pi] {
                            exact_vars.entry(v).or_insert(VarProvenance {
                                node: node_id,
                                column: y_attr.clone(),
                            });
                        }
                    }
                }
                progress = true;
            }
        }
    }

    // ---------------------------------------------------------------- phase 2
    // Completion: give every atom a fetch node whose output contains all of
    // its needed positions.
    let mut atom_nodes = vec![usize::MAX; leaf.atoms.len()];
    let mut all_exact = true;
    for (ai, atom) in leaf.atoms.iter().enumerate() {
        // Is some already-created node for this atom a valid completion?
        if let Some(existing) = plan.nodes.iter().find(|n| {
            n.subquery == leaf_index
                && n.atom == ai
                && covers_all_needed(catalog, n.family, &needed[ai], &attr_names[ai])
        }) {
            let id = existing.id;
            atom_nodes[ai] = id;
            plan.nodes[id].is_completion = true;
            continue;
        }

        // Otherwise pick the best applicable family: prefer exact coverage
        // (constraints / exact levels) within budget, then the multi-level
        // family with the most selective key, then the A_t fallback. One
        // budget tuple stays reserved for every atom still to be completed.
        let reserve = atoms_after + leaf.atoms.len().saturating_sub(ai + 1);
        let candidate = select_completion_family(
            leaf,
            ai,
            &attr_names[ai],
            &needed[ai],
            catalog,
            &exact_vars,
            &const_vars,
            &tariff,
            budget.saturating_sub(reserve),
        )?;
        let Some((fam_id, level, sources, input_node, exact)) = candidate else {
            return Err(BeasError::Planning(format!(
                "no access template covers atom {} of relation {} (is A_t present in the catalog?)",
                ai, atom.relation
            )));
        };
        if !exact {
            all_exact = false;
        }
        let family = catalog.family(fam_id)?;
        tariff.push(family.level(level)?, input_node)?;
        let node_id = plan.push(FetchNode {
            id: 0,
            family: fam_id,
            level,
            relation: atom.relation.clone(),
            subquery: leaf_index,
            atom: ai,
            input_node,
            key_sources: sources,
            is_completion: true,
        });
        atom_nodes[ai] = node_id;
        // the completion node also provides exact provenance for key-side and
        // (if exact) fetched variables of this atom
        for (pi, term) in leaf.terms[ai].iter().enumerate() {
            if let Term::Var(v) = term {
                let attr = &attr_names[ai][pi];
                let in_x = family.x.iter().any(|a| a == attr);
                let exact_y = exact && family.y.iter().any(|a| a == attr);
                if (in_x || exact_y) && !exact_vars.contains_key(v) {
                    exact_vars.insert(
                        *v,
                        VarProvenance {
                            node: node_id,
                            column: attr.clone(),
                        },
                    );
                }
            }
        }
    }

    Ok(ChaseOutcome {
        leaf_plan: LeafPlan {
            leaf: leaf_index,
            atom_nodes,
        },
        all_exact,
    })
}

/// Index of an attribute name within an atom's attribute list.
fn position_of(attr_names: &[String], attr: &str) -> Option<usize> {
    attr_names.iter().position(|a| a == attr)
}

/// `true` when the family's X ∪ Y contains every needed attribute of the atom.
fn covers_all_needed(
    catalog: &Catalog,
    family: FamilyId,
    needed: &BTreeSet<usize>,
    attr_names: &[String],
) -> bool {
    let Ok(family) = catalog.family(family) else {
        return false;
    };
    needed.iter().all(|&pi| {
        let attr = &attr_names[pi];
        family.x.iter().any(|a| a == attr) || family.y.iter().any(|a| a == attr)
    })
}

/// Builds the key sources for applying a family to an atom: every X attribute
/// must be a constant of the atom or an exactly covered variable, and all
/// variable sources must come from the same provenance node.
fn key_sources_for(
    leaf: &SpcQuery,
    atom: usize,
    attr_names: &[String],
    x_attrs: &[String],
    exact_vars: &std::collections::BTreeMap<usize, VarProvenance>,
    const_vars: &std::collections::BTreeMap<usize, beas_relal::Value>,
) -> Option<(Vec<KeySource>, Option<usize>)> {
    let mut sources = Vec::with_capacity(x_attrs.len());
    let mut input_node: Option<usize> = None;
    for x_attr in x_attrs {
        let pi = position_of(attr_names, x_attr)?;
        match &leaf.terms[atom][pi] {
            Term::Const(v) => sources.push(KeySource::Const(v.clone())),
            Term::Var(v) => {
                if let Some(prov) = exact_vars.get(v) {
                    match input_node {
                        None => input_node = Some(prov.node),
                        Some(existing) if existing == prov.node => {}
                        // variable keys from two different nodes: not
                        // supported, the caller falls back to another family
                        Some(_) => return None,
                    }
                    sources.push(KeySource::Column(prov.column.clone()));
                } else if let Some(value) = const_vars.get(v) {
                    // the variable is pinned to a constant by an equality
                    // selection: use the constant as the key component
                    sources.push(KeySource::Const(value.clone()));
                } else {
                    return None;
                }
            }
        }
    }
    Some((sources, input_node))
}

/// Selects the family (and level) used to complete an atom, returning
/// `(family, level, key sources, input node, exact?)`.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::type_complexity)]
fn select_completion_family(
    leaf: &SpcQuery,
    atom: usize,
    attr_names: &[String],
    needed: &BTreeSet<usize>,
    catalog: &Catalog,
    exact_vars: &std::collections::BTreeMap<usize, VarProvenance>,
    const_vars: &std::collections::BTreeMap<usize, beas_relal::Value>,
    tariff: &Tariff,
    budget: usize,
) -> Result<Option<(FamilyId, usize, Vec<KeySource>, Option<usize>, bool)>> {
    let relation = &leaf.atoms[atom].relation;
    let current_tariff = tariff.total();

    // candidate = (priority, tariff, family, level, sources, input, exact)
    let mut best: Option<(
        u8,
        usize,
        FamilyId,
        usize,
        Vec<KeySource>,
        Option<usize>,
        bool,
    )> = None;
    let consider = |priority: u8,
                    tariff: usize,
                    fam: FamilyId,
                    level: usize,
                    sources: Vec<KeySource>,
                    input: Option<usize>,
                    exact: bool,
                    best: &mut Option<(
        u8,
        usize,
        FamilyId,
        usize,
        Vec<KeySource>,
        Option<usize>,
        bool,
    )>| {
        let better = match best {
            None => true,
            Some((bp, bt, ..)) => (priority, tariff) < (*bp, *bt),
        };
        if better {
            *best = Some((priority, tariff, fam, level, sources, input, exact));
        }
    };

    for &fam_id in catalog.families_for(relation) {
        let family = catalog.family(fam_id)?;
        if !covers_all_needed(catalog, fam_id, needed, attr_names) {
            continue;
        }
        let Some((sources, input_node)) =
            key_sources_for(leaf, atom, attr_names, &family.x, exact_vars, const_vars)
        else {
            continue;
        };
        let est_keys = input_node.map_or(1, |n| tariff.rows(n));

        // (a) exact level within budget → priority 0 (keyed) / 1 (whole-relation)
        let exact_level = family.exact_level();
        if family.level(exact_level)?.is_exact() {
            let tariff = est_keys
                .saturating_mul(family.level(exact_level)?.n.max(1))
                .min(family.level(exact_level)?.stored_tuples().max(1));
            let priority = if family.x.is_empty() { 1 } else { 0 };
            if current_tariff.saturating_add(tariff) <= budget {
                consider(
                    priority,
                    tariff,
                    fam_id,
                    exact_level,
                    sources.clone(),
                    input_node,
                    true,
                    &mut best,
                );
            }
        }
        // (b) coarsest level of a multi-level family → priority 2 when keyed,
        // 3 when it is the A_t whole-relation fallback
        if family.num_levels() > 1 || !family.levels[0].is_exact() {
            let tariff = est_keys.saturating_mul(family.level(0)?.n.max(1));
            let priority = if family.x.is_empty() { 3 } else { 2 };
            let within = current_tariff.saturating_add(tariff) <= budget;
            // the A_t fallback is accepted even when the estimate exceeds the
            // budget: it is the plan of last resort (level 0 accesses at most
            // one tuple per bucket at execution time)
            if within || family.is_full_relation() {
                consider(
                    priority,
                    tariff,
                    fam_id,
                    0,
                    sources.clone(),
                    input_node,
                    family.level(0)?.is_exact(),
                    &mut best,
                );
            }
        }
    }
    Ok(best.map(|(_, _, fam, level, sources, input, exact)| (fam, level, sources, input, exact)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_access::{build_constraint, build_extended, Catalog};
    use beas_relal::{
        Attribute, CompareOp, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    fn example_db(n: i64) -> Database {
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
        let cities = ["NYC", "LA", "Chicago", "Boston"];
        for i in 0..n {
            db.insert_row("friend", vec![Value::Int(i % 10), Value::Int(i)])
                .unwrap();
            db.insert_row(
                "person",
                vec![Value::Int(i), Value::from(cities[(i % 4) as usize])],
            )
            .unwrap();
            db.insert_row(
                "poi",
                vec![
                    Value::from(format!("a{i}")),
                    Value::from(if i % 3 == 0 { "hotel" } else { "museum" }),
                    Value::from(cities[(i % 4) as usize]),
                    Value::Double(40.0 + (i % 50) as f64 * 2.0),
                ],
            )
            .unwrap();
        }
        db
    }

    fn full_catalog(db: &Database) -> Catalog {
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

    /// Q2 of Example 1: cities of my friends — boundedly evaluable.
    fn q2(db: &Database) -> SpcQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.output(p, "city", "city").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chase_q1_uses_constraints_then_template() {
        let db = example_db(200);
        let catalog = full_catalog(&db);
        let q = q1(&db);
        let mut plan = FetchPlan::default();
        let outcome = chase_leaf(&q, 0, &catalog, &mut plan, 500, 0).unwrap();
        // every atom got a completion node
        assert_eq!(outcome.leaf_plan.atom_nodes.len(), 3);
        assert!(outcome
            .leaf_plan
            .atom_nodes
            .iter()
            .all(|&n| n != usize::MAX));
        // the poi atom should be served by the keyed extended template, not A_t
        let poi_node = plan.node(outcome.leaf_plan.atom_nodes[2]).unwrap();
        let poi_family = catalog.family(poi_node.family).unwrap();
        assert_eq!(poi_family.x, vec!["type".to_string(), "city".to_string()]);
        // the friend and person atoms are covered exactly by constraints
        for &ai in &[0usize, 1usize] {
            let node = plan.node(outcome.leaf_plan.atom_nodes[ai]).unwrap();
            let fam = catalog.family(node.family).unwrap();
            assert!(fam.level(node.level).unwrap().is_exact());
        }
        // Q1 needs the approximate poi template, so it is not all-exact at a
        // level-0 start
        assert!(!outcome.all_exact || poi_family.level(poi_node.level).unwrap().is_exact());
        // tariff estimate stays within the stated budget
        assert!(plan.total_tariff(&catalog).unwrap() <= 500);
    }

    #[test]
    fn chase_q2_is_exact_with_constraints_only() {
        let db = example_db(200);
        let catalog = full_catalog(&db);
        let q = q2(&db);
        let mut plan = FetchPlan::default();
        let outcome = chase_leaf(&q, 0, &catalog, &mut plan, 100, 0).unwrap();
        assert!(outcome.all_exact, "Q2 is boundedly evaluable (Example 1)");
        for &node_id in &outcome.leaf_plan.atom_nodes {
            let node = plan.node(node_id).unwrap();
            let fam = catalog.family(node.family).unwrap();
            assert!(fam.level(node.level).unwrap().is_exact());
        }
    }

    #[test]
    fn chase_falls_back_to_at_under_tiny_budget() {
        let db = example_db(200);
        let catalog = full_catalog(&db);
        let q = q1(&db);
        let mut plan = FetchPlan::default();
        // budget so small that the friend constraint (10 fids) does not fit
        let outcome = chase_leaf(&q, 0, &catalog, &mut plan, 3, 0).unwrap();
        assert!(!outcome.all_exact);
        // all atoms still get completion nodes (the A_t fallback)
        assert!(outcome
            .leaf_plan
            .atom_nodes
            .iter()
            .all(|&n| n != usize::MAX));
        for &node_id in &outcome.leaf_plan.atom_nodes {
            let node = plan.node(node_id).unwrap();
            let fam = catalog.family(node.family).unwrap();
            assert!(fam.is_full_relation(), "expected the A_t fallback");
            assert_eq!(node.level, 0);
        }
    }

    #[test]
    fn chase_with_only_at_catalog_still_completes() {
        let db = example_db(100);
        let catalog = Catalog::for_database(&db).unwrap();
        let q = q1(&db);
        let mut plan = FetchPlan::default();
        let outcome = chase_leaf(&q, 0, &catalog, &mut plan, 50, 0).unwrap();
        assert!(!outcome.all_exact);
        assert_eq!(plan.nodes.len(), 3);
    }

    #[test]
    fn chase_errors_without_any_covering_family() {
        let db = example_db(10);
        // empty catalog: no A_t, nothing
        let catalog = Catalog::new(db.schema.clone(), db.total_tuples());
        let q = q2(&db);
        let mut plan = FetchPlan::default();
        assert!(chase_leaf(&q, 0, &catalog, &mut plan, 100, 0).is_err());
    }

    #[test]
    fn single_atom_selection_query_uses_keyed_template() {
        let db = example_db(100);
        let catalog = full_catalog(&db);
        let mut b = SpcQueryBuilder::new(&db.schema);
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.output(h, "price", "price").unwrap();
        let q = b.build().unwrap();
        let mut plan = FetchPlan::default();
        let outcome = chase_leaf(&q, 0, &catalog, &mut plan, 1000, 0).unwrap();
        let node = plan.node(outcome.leaf_plan.atom_nodes[0]).unwrap();
        let fam = catalog.family(node.family).unwrap();
        // with a generous budget the exact level of the keyed template is
        // preferred → exact coverage
        assert!(fam.level(node.level).unwrap().is_exact());
        assert!(outcome.all_exact);
        assert!(node
            .key_sources
            .iter()
            .all(|k| matches!(k, KeySource::Const(_))));
    }
}
