//! The resource-bounded approximation scheme `Γ_A`: BEAS_SPC, BEAS_RA and
//! BEAS_agg planning (Fig. 3 / Fig. 5), including the lower-bound function `L`
//! and the greedy template-upgrading procedure `chAT`.
//!
//! Planning never touches the database: it only uses the query, the catalog
//! (access schema) and the budget `B = α·|D|`, per property (2) of the scheme.
//!
//! # `chAT` over a compiled plan shape
//!
//! The chase fixes the plan's *shape*: which fetch node completes which atom,
//! through which family, keyed by which earlier node. `chAT` only moves the
//! nodes' levels, and asks two questions about every move it considers: what
//! is `L` now, and what is the tariff now. So the shape is compiled once per
//! plan (`BoundProgram`):
//!
//! * every term of `L` — an output position (×1; it also bounds coverage when
//!   its leaf is a positive one), a constant or `var op const` position (×2),
//!   a join or `var op var` pair (the sum of both sides) — becomes one or two
//!   slots of a flat resolution table. A slot is the constant 0 (the position
//!   is part of its node's lookup key), the constant `+∞` (the node's family
//!   does not produce the attribute), or entry `y` of a per-node block that
//!   holds the per-Y-attribute resolution of the node's current level; terms
//!   that can only be 0 are dropped. `L` is a maximum over that table, and
//!   moving a node copies one level's resolution vector into its block;
//! * every node keeps a reference to its family and its input node, and the
//!   tariff is one forward pass over the nodes (they are in topological
//!   order) of the same per-node estimate the chase accumulates
//!   (`plan::Tariff`).
//!
//! Names (relations, attributes, families) are resolved during compilation
//! only. A plan then costs `steps × candidates × (terms + nodes)` table reads
//! — about 27 steps of at most 6 candidates at a few dozen reads each on the
//! generated TPC-H pools — instead of that many walks over the query.
//!
//! The plans are bit-identical to the walk's: the same `f64` resolutions are
//! combined by the same operations (`r + r` is `2.0 * r` exactly; sums keep
//! their operand order; a maximum does not depend on the order of its
//! non-NaN operands, and `f64::max` skips NaN either way), candidates are
//! tried in node order under the same strict `(gain, own gain)` comparison,
//! and the tariff saturates exactly as before. [`Planner::distance_bounds`],
//! [`Planner::binding_site`], [`FetchPlan::total_tariff`] and the planner's
//! own η all evaluate the same program: there is one `L` and one tariff.

use beas_access::{Catalog, FamilyId, ResourceSpec, TemplateFamily};
use beas_relal::{Position, SelCond, SpcQuery};

use crate::chase::chase_leaf;
use crate::error::{BeasError, Result};
use crate::plan::{FetchPlan, LeafPlan, Tariff};
use crate::query::{BeasQuery, RaQuery};

/// A complete α-bounded query plan together with its accuracy bound.
#[derive(Debug, Clone)]
pub struct BoundedPlan {
    /// The planned query.
    pub query: BeasQuery,
    /// The fetching plan `ξ_F` (shared across all SPC leaves).
    pub fetch: FetchPlan,
    /// Per-leaf completion information (same order as `query.ra().spc_leaves()`).
    pub leaves: Vec<LeafPlan>,
    /// The tuple budget `B = α·|D|` the plan was generated for.
    pub budget: usize,
    /// Estimated tuples accessed (`tariff(ξ_α)`), derived from template bounds
    /// only.
    pub tariff: usize,
    /// Worst relevance-distance bound `d_rel` used by `L`.
    pub d_rel: f64,
    /// Worst coverage-distance bound `d_cov` used by `L`.
    pub d_cov: f64,
    /// The deterministic accuracy lower bound `η = 1 / (1 + max(d_rel, d_cov))`.
    pub eta: f64,
    /// `true` when the plan computes exact answers (all resolutions are 0), in
    /// which case the query is answered as a boundedly evaluable query.
    pub exact: bool,
}

impl BoundedPlan {
    /// Family ids used by the plan (for the Exp-4 "used templates" report).
    pub fn used_families(&self) -> Vec<beas_access::FamilyId> {
        self.fetch.used_families()
    }

    /// The effective resource ratio of the plan (`tariff / |D|`).
    pub fn effective_ratio(&self, catalog: &Catalog) -> f64 {
        if catalog.db_size == 0 {
            0.0
        } else {
            self.tariff as f64 / catalog.db_size as f64
        }
    }
}

/// The distance bounds `(d_rel, d_cov)` of the lower-bound function `L`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBounds {
    /// Bound on every answer's relevance distance.
    pub d_rel: f64,
    /// Bound on every exact answer's coverage distance.
    pub d_cov: f64,
}

impl DistanceBounds {
    /// `η = 1 / (1 + max(d_rel, d_cov))`, 0 when unbounded.
    pub fn eta(&self) -> f64 {
        let worst = self.d_rel.max(self.d_cov);
        if worst.is_infinite() {
            0.0
        } else {
            1.0 / (1.0 + worst.max(0.0))
        }
    }

    /// `true` when both bounds are 0 (the plan is exact).
    pub fn is_exact(&self) -> bool {
        self.d_rel == 0.0 && self.d_cov == 0.0
    }
}

/// The BEAS planner: generates α-bounded plans for SPC, RA and aggregate
/// queries under a catalog (access schema).
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// A planner over the given catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog }
    }

    /// The catalog used for planning.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Plans `query` under a resource spec (Algorithm BEAS_SPC / BEAS_RA /
    /// BEAS_agg, dispatched on the query kind). The spec is validated and
    /// resolved to a tuple budget via the catalog's budget policy.
    ///
    /// A zero spec is an error here: no plan can honour a budget of zero
    /// tuples. [`Beas::answer`](crate::Beas::answer) maps zero specs to an
    /// empty answer instead.
    pub fn plan(&self, query: &BeasQuery, spec: ResourceSpec) -> Result<BoundedPlan> {
        let budget = self.catalog.budget(&spec)?;
        if budget == 0 {
            return Err(BeasError::Planning(format!(
                "resource spec {spec} resolves to a zero budget; no plan can access zero tuples"
            )));
        }
        self.plan_with_budget(query, budget)
    }

    /// Plans `query` under an explicit tuple budget `B`.
    pub fn plan_with_budget(&self, query: &BeasQuery, budget: usize) -> Result<BoundedPlan> {
        query.validate(&self.catalog.schema)?;
        self.plan_prevalidated(query, budget)
    }

    /// The cheapest plan whose planned η reaches `eta`, searched over tuple
    /// budgets up to `max_budget` without touching the database: gallop over
    /// budgets 1, 2, 4, … (then the cap itself) to the first hit, then bisect
    /// between the last miss and that hit — at most about `2·log₂(max_budget)`
    /// plans. Returns `(plan, true)` where `plan.budget` is a budget `B` with
    /// `η(B) ≥ eta` and `η(B − 1) < eta` (minimal whenever η is monotone in
    /// the budget, Theorem 5(3)), or `(plan at max_budget, false)` when even
    /// the cap misses.
    pub fn plan_for_target(
        &self,
        query: &BeasQuery,
        eta: f64,
        max_budget: usize,
    ) -> Result<(BoundedPlan, bool)> {
        query.validate(&self.catalog.schema)?;
        let max_budget = max_budget.max(1);
        // the largest budget known to miss (0 before any probe)
        let mut miss = 0usize;
        let mut budget = 1usize;
        let mut hit = loop {
            let plan = self.plan_prevalidated(query, budget)?;
            if plan.eta >= eta {
                break plan;
            }
            if budget == max_budget {
                return Ok((plan, false));
            }
            miss = budget;
            budget = budget.saturating_mul(2).min(max_budget);
        };
        while hit.budget - miss > 1 {
            let mid = miss + (hit.budget - miss) / 2;
            let plan = self.plan_prevalidated(query, mid)?;
            if plan.eta >= eta {
                hit = plan;
            } else {
                miss = mid;
            }
        }
        Ok((hit, true))
    }

    /// Planning entry for callers that already validated the query (the
    /// prepared-query fast path skips re-validation on every budget).
    pub(crate) fn plan_prevalidated(
        &self,
        query: &BeasQuery,
        budget: usize,
    ) -> Result<BoundedPlan> {
        let ra = query.ra();
        let leaves: Vec<&SpcQuery> = ra.spc_leaves();

        // Step 1: chase every max SPC sub-query to derive the initial fetching
        // plan (constraints first, coarse templates as placeholders). One
        // budget tuple is reserved for every atom of later leaves so the plan
        // always stays α-bounded when the budget allows at least one access
        // per relation atom.
        let mut fetch = FetchPlan::default();
        let mut leaf_plans = Vec::with_capacity(leaves.len());
        let atom_counts: Vec<usize> = leaves.iter().map(|l| l.atoms.len()).collect();
        for (i, leaf) in leaves.iter().enumerate() {
            let atoms_after: usize = atom_counts[i + 1..].iter().sum();
            let outcome = chase_leaf(leaf, i, self.catalog, &mut fetch, budget, atoms_after)?;
            leaf_plans.push(outcome.leaf_plan);
        }

        // Steps 2 and 3: chAT — greedily upgrade template levels within the
        // budget — which ends knowing the accuracy bounds and the tariff of
        // the plan it settled on.
        let (bounds, tariff) = self.chat(ra, &leaves, &leaf_plans, &mut fetch, budget)?;
        let mut eta = bounds.eta();
        if let BeasQuery::Aggregate(agg) = query {
            // Corollary 7 carries the RA bounds over to min/max aggregates; for
            // sum/count/avg the aggregate value itself is not bounded by the
            // template resolutions (Sec. 7), so no non-trivial deterministic
            // bound is claimed unless the plan is exact.
            if !agg.agg.is_extremum() && !bounds.is_exact() {
                eta = 0.0;
            }
        }
        Ok(BoundedPlan {
            query: query.clone(),
            fetch,
            leaves: leaf_plans,
            budget,
            tariff,
            d_rel: bounds.d_rel,
            d_cov: bounds.d_cov,
            eta,
            exact: bounds.is_exact(),
        })
    }

    /// The smallest resource ratio under which BEAS finds *exact* answers for
    /// the query: the tariff of the all-exact plan divided by `|D|` (Exp-3).
    ///
    /// Returns `None` when no exact plan exists under the catalog (never the
    /// case when the catalog contains `A_t`, whose deepest levels are exact).
    pub fn exact_ratio(&self, query: &BeasQuery) -> Result<Option<f64>> {
        let plan = self.plan_with_budget(query, usize::MAX)?;
        if !plan.exact {
            return Ok(None);
        }
        Ok(Some(plan.effective_ratio(self.catalog)))
    }

    /// `chAT` (Fig. 3): repeatedly pick the fetch operation whose upgrade to
    /// the next resolution level yields the largest improvement of the lower
    /// bound `L`, as long as the plan stays within the budget. Writes the
    /// chosen levels into `fetch` and returns the bounds and the tariff of
    /// the resulting plan.
    pub fn chat(
        &self,
        ra: &RaQuery,
        leaves: &[&SpcQuery],
        leaf_plans: &[LeafPlan],
        fetch: &mut FetchPlan,
        budget: usize,
    ) -> Result<(DistanceBounds, usize)> {
        let mut program = BoundProgram::compile(self.catalog, ra, leaves, leaf_plans, fetch)?;
        let mut scratch = Tariff::default();
        let bounds = loop {
            let current = program.bounds();
            let current_worst = current.d_rel.max(current.d_cov);
            if current_worst == 0.0 {
                break current; // already exact
            }

            // candidate upgrades: any node below its family's deepest level
            let mut best: Option<(f64, f64, usize)> = None; // (bound gain, own gain, node)
            for node in 0..program.nodes.len() {
                let family = program.nodes[node].family;
                let level = program.levels[node];
                if level + 1 >= family.num_levels() {
                    continue;
                }
                // apply tentatively
                program.set_level(node, level + 1);
                let candidate = if program.tariff(&mut scratch)? <= budget {
                    let new = program.bounds();
                    // per-attribute improvement of the node's own resolution:
                    // used to keep zooming in (which improves the answers even
                    // when the plan-wide bound is dominated by another node)
                    let own: f64 = family.levels[level]
                        .resolution
                        .iter()
                        .zip(&family.levels[level + 1].resolution)
                        .map(|(o, n)| finite_gain(*o, *n))
                        .sum();
                    Some((finite_gain(current_worst, new.d_rel.max(new.d_cov)), own))
                } else {
                    None
                };
                program.set_level(node, level); // revert
                let Some((gain, own_gain)) = candidate else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some((bg, bo, _)) => (gain, own_gain) > (*bg, *bo),
                };
                if better && (gain > 0.0 || own_gain > 0.0) {
                    best = Some((gain, own_gain, node));
                }
            }
            match best {
                Some((_, _, node)) => program.set_level(node, program.levels[node] + 1),
                None => break current,
            }
        };
        for (node, &level) in fetch.nodes.iter_mut().zip(&program.levels) {
            node.level = level;
        }
        Ok((bounds, program.tariff(&mut scratch)?))
    }

    /// The lower-bound function `L`: per-position resolutions are propagated
    /// through the structure of the query into the relevance / coverage
    /// distance bounds (Sec. 5 "Lower bound function L(ξ_F)", extended to
    /// union / difference / aggregates as in Sec. 6–7).
    pub fn distance_bounds(
        &self,
        ra: &RaQuery,
        leaves: &[&SpcQuery],
        leaf_plans: &[LeafPlan],
        fetch: &FetchPlan,
    ) -> Result<DistanceBounds> {
        Ok(BoundProgram::compile(self.catalog, ra, leaves, leaf_plans, fetch)?.bounds())
    }

    /// η attribution: the index level whose resolution sets the plan's bound,
    /// as `(family, level, attribute)` — the arg-max term of `L`, and within
    /// a two-sided term (a join or an attribute comparison) the coarser side.
    /// `None` exactly when the plan is exact. η cannot rise while that term
    /// stays as large; when the attribute is one the family does not produce
    /// at all, no level will shrink it.
    pub fn binding_site(&self, plan: &BoundedPlan) -> Result<Option<(FamilyId, usize, String)>> {
        let ra = plan.query.ra();
        let program = BoundProgram::compile(
            self.catalog,
            ra,
            &ra.spc_leaves(),
            &plan.leaves,
            &plan.fetch,
        )?;
        Ok(program.binding().map(|site| {
            let node = &plan.fetch.nodes[site.node];
            (node.family, node.level, site.attr.to_string())
        }))
    }
}

/// Slot of the resolution table that always reads 0: positions that are part
/// of their completion node's lookup key are exact at every level.
const EXACT: usize = 0;
/// Slot that always reads `+∞`: positions the completion node's family does
/// not produce.
const MISSING: usize = 1;

/// One tableau position of the query, resolved against the plan's shape.
#[derive(Debug, Clone, Copy)]
struct Site<'a> {
    /// The completion node of the position's atom.
    node: usize,
    /// The attribute at the position.
    attr: &'a str,
    /// Where the position's resolution is read from in the resolution table:
    /// [`EXACT`], [`MISSING`], or the attribute's slot in the node's block.
    slot: usize,
}

/// One term of `L`: the resolution of `a`, plus that of `b` when present.
#[derive(Debug, Clone, Copy)]
struct BoundTerm<'a> {
    a: Site<'a>,
    b: Option<Site<'a>>,
    /// Whether the term also bounds coverage (`d_cov`), not only relevance.
    coverage: bool,
}

/// One fetch node as the tariff and `L` see it.
#[derive(Debug)]
struct ProgramNode<'a> {
    family: &'a TemplateFamily,
    input: Option<usize>,
    /// First slot of the node's block of the resolution table (one slot per
    /// Y attribute of the family).
    block: usize,
}

/// The lower-bound function `L` and the tariff of one plan *shape* — which
/// node completes which atom, with which family, keyed by which node —
/// compiled once, so that both are functions of the level vector alone (see
/// the module docs), together with the level vector they are evaluated at.
#[derive(Debug)]
struct BoundProgram<'a> {
    nodes: Vec<ProgramNode<'a>>,
    /// The terms of `L` that can be non-zero; `d_rel` is their maximum and
    /// `d_cov` the maximum of those flagged `coverage`.
    terms: Vec<BoundTerm<'a>>,
    /// The current level of every node.
    levels: Vec<usize>,
    /// The resolution table: [`EXACT`], [`MISSING`], then per node the
    /// per-Y-attribute resolution of its current level.
    resolutions: Vec<f64>,
}

impl<'a> BoundProgram<'a> {
    /// Compiles the plan's shape, at the levels `fetch` holds.
    fn compile(
        catalog: &'a Catalog,
        ra: &RaQuery,
        leaves: &[&SpcQuery],
        leaf_plans: &[LeafPlan],
        fetch: &FetchPlan,
    ) -> Result<Self> {
        let mut nodes = Vec::with_capacity(fetch.nodes.len());
        let mut resolutions = vec![0.0, f64::INFINITY];
        for node in &fetch.nodes {
            let family = catalog.family(node.family)?;
            nodes.push(ProgramNode {
                family,
                input: node.input_node,
                block: resolutions.len(),
            });
            resolutions.extend_from_slice(&family.level(node.level)?.resolution);
        }

        let positive = positive_leaf_indices(ra);
        let mut terms = Vec::new();
        for (i, (leaf, leaf_plan)) in leaves.iter().zip(leaf_plans).enumerate() {
            let site = |pos: Position| -> Result<Site<'a>> {
                let node = *leaf_plan.atom_nodes.get(pos.0).ok_or_else(|| {
                    BeasError::Planning(format!("no completion node for atom {}", pos.0))
                })?;
                let ProgramNode { family, block, .. } = nodes
                    .get(node)
                    .ok_or_else(|| BeasError::Planning(format!("unknown fetch node {node}")))?;
                let attr = catalog
                    .schema
                    .relation(&leaf.atoms[pos.0].relation)?
                    .attributes
                    .get(pos.1)
                    .ok_or_else(|| BeasError::Planning(format!("bad position {pos:?}")))?
                    .name
                    .as_str();
                let slot = if family.x.iter().any(|a| a == attr) {
                    EXACT
                } else {
                    match family.y.iter().position(|a| a == attr) {
                        Some(y) => block + y,
                        None => MISSING,
                    }
                };
                Ok(Site { node, attr, slot })
            };
            let var_positions = leaf.var_positions();
            let var_site = |var: usize, role: &str| -> Result<Site<'a>> {
                let positions = var_positions
                    .get(&var)
                    .ok_or_else(|| BeasError::Planning(format!("{role} variable {var} unbound")))?;
                site(positions[0])
            };
            let mut push = |a: Site<'a>, b: Option<Site<'a>>, coverage: bool| {
                if a.slot != EXACT || b.is_some_and(|b| b.slot != EXACT) {
                    terms.push(BoundTerm { a, b, coverage });
                }
            };

            // output attributes: the answer can deviate by the resolution of
            // the position it is projected from. All leaves contribute to
            // relevance; only positive leaves bound coverage (Sec. 6:
            // d_rel(Q1 − Q2) = d_rel(Q1), d_cov = d_cov(Q1))
            let coverage = positive.contains(&i);
            for out in &leaf.output {
                push(var_site(out.var, "output")?, None, coverage);
            }

            // selection conditions: a returned representative may stand for a
            // real tuple that needs relaxation up to twice the resolution of
            // the attributes involved (constants), or the sum of both sides'
            // resolutions (joins / attribute comparisons)
            for (ai, atom_terms) in leaf.terms.iter().enumerate() {
                for (pi, term) in atom_terms.iter().enumerate() {
                    if term.is_const() {
                        let s = site((ai, pi))?;
                        push(s, Some(s), false);
                    }
                }
            }
            for positions in var_positions.values() {
                if positions.len() > 1 {
                    let first = site(positions[0])?;
                    for &p in &positions[1..] {
                        push(first, Some(site(p)?), false);
                    }
                }
            }
            for sel in &leaf.selections {
                match sel {
                    // equality and inequality selections both relax by
                    // twice the position's resolution
                    SelCond::VarConst { var, .. } => {
                        let s = var_site(*var, "selection")?;
                        push(s, Some(s), false);
                    }
                    SelCond::VarVar { left, right, .. } => {
                        let l = var_site(*left, "selection")?;
                        push(l, Some(var_site(*right, "selection")?), false);
                    }
                }
            }
        }
        Ok(BoundProgram {
            nodes,
            terms,
            levels: fetch.nodes.iter().map(|n| n.level).collect(),
            resolutions,
        })
    }

    /// Moves `node` to `level` (which its family must have).
    fn set_level(&mut self, node: usize, level: usize) {
        let ProgramNode { family, block, .. } = self.nodes[node];
        let resolution = &family.levels[level].resolution;
        self.resolutions[block..block + resolution.len()].copy_from_slice(resolution);
        self.levels[node] = level;
    }

    /// The resolutions of a term's two sides at the current levels (0 for an
    /// absent second side); the term's value is their sum.
    fn sides(&self, term: &BoundTerm) -> (f64, f64) {
        (
            self.resolutions[term.a.slot],
            term.b.map_or(0.0, |b| self.resolutions[b.slot]),
        )
    }

    /// `L` at the current levels.
    fn bounds(&self) -> DistanceBounds {
        let mut bounds = DistanceBounds {
            d_rel: 0.0,
            d_cov: 0.0,
        };
        for term in &self.terms {
            let (a, b) = self.sides(term);
            bounds.d_rel = bounds.d_rel.max(a + b);
            if term.coverage {
                bounds.d_cov = bounds.d_cov.max(a + b);
            }
        }
        bounds
    }

    /// The site behind the first largest term of `L` at the current levels;
    /// `None` when every term is 0.
    fn binding(&self) -> Option<Site<'a>> {
        let mut best: Option<(f64, Site<'a>)> = None;
        for term in &self.terms {
            let (a, b) = self.sides(term);
            if a + b > best.map_or(0.0, |(worst, _)| worst) {
                let site = match term.b {
                    Some(site) if b > a => site,
                    _ => term.a,
                };
                best = Some((a + b, site));
            }
        }
        best.map(|(_, site)| site)
    }

    /// The tariff at the current levels: one forward pass over the nodes,
    /// which are in topological order. `scratch` only lends its allocation.
    fn tariff(&self, scratch: &mut Tariff) -> Result<usize> {
        scratch.clear();
        for (node, &level) in self.nodes.iter().zip(&self.levels) {
            scratch.push(&node.family.levels[level], node.input)?;
        }
        Ok(scratch.total())
    }
}

/// Indices (in leaf order) of the SPC leaves that contribute positively.
fn positive_leaf_indices(ra: &RaQuery) -> Vec<usize> {
    fn walk(q: &RaQuery, index: &mut usize, positive: bool, out: &mut Vec<usize>) {
        match q {
            RaQuery::Spc(_) => {
                if positive {
                    out.push(*index);
                }
                *index += 1;
            }
            RaQuery::Union(l, r) => {
                walk(l, index, positive, out);
                walk(r, index, positive, out);
            }
            RaQuery::Difference(l, r) => {
                walk(l, index, positive, out);
                walk(r, index, false, out);
            }
        }
    }
    let mut out = Vec::new();
    let mut index = 0;
    walk(ra, &mut index, true, &mut out);
    out
}

/// Positive, finite improvement between two (possibly infinite) distances.
fn finite_gain(old: f64, new: f64) -> f64 {
    if old.is_infinite() && new.is_infinite() {
        0.0
    } else if old.is_infinite() {
        f64::MAX
    } else {
        old - new
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggQuery;
    use beas_access::{build_constraint, build_extended, AtOptions};
    use beas_relal::{
        AggFunc, Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
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
        let mut catalog = Catalog::for_database(db, &AtOptions::default()).unwrap();
        catalog.add_family(build_constraint(db, "friend", &["pid"], &["fid"]).unwrap());
        catalog.add_family(build_constraint(db, "person", &["pid"], &["city"]).unwrap());
        catalog.add_family(
            build_extended(db, "poi", &["type", "city"], &["price", "address"]).unwrap(),
        );
        catalog
    }

    fn q1(db: &Database) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.join((p, "city"), (h, "city")).unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.filter_const(h, "price", beas_relal::CompareOp::Le, 95i64)
            .unwrap();
        b.output(h, "city", "city").unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    fn q2(db: &Database) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(&db.schema);
        let f = b.atom("friend", "f").unwrap();
        let p = b.atom("person", "p").unwrap();
        b.bind_const(f, "pid", 1i64).unwrap();
        b.join((f, "fid"), (p, "pid")).unwrap();
        b.output(p, "city", "city").unwrap();
        b.build().unwrap().into()
    }

    #[test]
    fn plan_q2_is_exact_and_bounded() {
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let plan = planner.plan_with_budget(&q2(&db), 100).unwrap();
        assert!(plan.exact);
        assert_eq!(plan.eta, 1.0);
        assert!(plan.tariff <= 100);
        assert!(plan.effective_ratio(&catalog) < 0.1);
    }

    #[test]
    fn plan_q1_respects_budget_and_reports_eta() {
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let plan = planner.plan_with_budget(&q1(&db), 200).unwrap();
        assert!(plan.tariff <= 200, "tariff {} exceeds budget", plan.tariff);
        assert!(plan.eta > 0.0 && plan.eta <= 1.0);
        assert!(!plan.used_families().is_empty());
    }

    #[test]
    fn larger_budget_never_lowers_eta() {
        // Theorem 5(3): α1 ≥ α2 implies η1 ≥ η2
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let q = q1(&db);
        let mut last = -1.0f64;
        for budget in [30usize, 60, 120, 400, 1200] {
            let plan = planner.plan_with_budget(&q, budget).unwrap();
            assert!(
                plan.eta >= last - 1e-12,
                "eta decreased from {last} to {} at budget {budget}",
                plan.eta
            );
            last = plan.eta;
        }
    }

    #[test]
    fn plan_for_target_finds_the_smallest_budget_reaching_eta() {
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let q = q1(&db);
        let cap = catalog.db_size;
        let (plan, feasible) = planner.plan_for_target(&q, 0.5, cap).unwrap();
        assert!(feasible && plan.eta >= 0.5);
        let below = planner.plan_with_budget(&q, plan.budget - 1).unwrap();
        assert!(below.eta < 0.5, "budget {} is not minimal", plan.budget);
        // a cap below that budget makes the same target infeasible
        let (capped, feasible) = planner.plan_for_target(&q, 0.5, plan.budget - 1).unwrap();
        assert!(!feasible);
        assert_eq!(capped.budget, plan.budget - 1);
    }

    #[test]
    fn chat_upgrades_levels_with_budget() {
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let small = planner.plan_with_budget(&q1(&db), 120).unwrap();
        let large = planner.plan_with_budget(&q1(&db), 4000).unwrap();
        assert!(large.eta >= small.eta);
        assert!(large.tariff >= small.tariff);
        // with a generous budget the plan becomes exact
        assert!(large.exact);
    }

    #[test]
    fn exact_ratio_reports_bounded_evaluability() {
        let db = example_db(400);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let r2 = planner.exact_ratio(&q2(&db)).unwrap().unwrap();
        let r1 = planner.exact_ratio(&q1(&db)).unwrap().unwrap();
        assert!(r2 > 0.0 && r2 < 0.1, "Q2 needs a tiny fraction, got {r2}");
        assert!(r1 >= r2, "Q1 needs at least as much data as Q2");
    }

    #[test]
    fn ra_difference_plan_covers_all_leaves() {
        let db = example_db(300);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let q1_ra = match q1(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let cheap = {
            let mut b = SpcQueryBuilder::new(&db.schema);
            let h = b.atom("poi", "h").unwrap();
            b.bind_const(h, "type", "hotel").unwrap();
            b.output(h, "city", "city").unwrap();
            b.output(h, "price", "price").unwrap();
            RaQuery::spc(b.build().unwrap())
        };
        let q: BeasQuery = BeasQuery::Ra(q1_ra.difference(cheap));
        let plan = planner.plan_with_budget(&q, 200).unwrap();
        assert_eq!(plan.leaves.len(), 2);
        assert!(plan.tariff <= 200);
        assert!(plan.eta >= 0.0);
    }

    #[test]
    fn aggregate_plan_inherits_bounds_from_inner_query() {
        let db = example_db(300);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let inner = match q1(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        // min/max aggregates inherit the RA bounds (Corollary 7)
        let agg: BeasQuery = AggQuery::new(
            inner.clone(),
            vec!["city".into()],
            AggFunc::Min,
            "price",
            "n",
        )
        .unwrap()
        .into();
        let plan = planner.plan_with_budget(&agg, 150).unwrap();
        assert!(plan.tariff <= 150);
        assert!(plan.eta > 0.0);

        // sum/count/avg claim no non-trivial bound unless the plan is exact
        let count: BeasQuery =
            AggQuery::new(inner, vec!["city".into()], AggFunc::Count, "price", "n")
                .unwrap()
                .into();
        let approx_plan = planner.plan_with_budget(&count, 150).unwrap();
        if !approx_plan.exact {
            assert_eq!(approx_plan.eta, 0.0);
        }
        let exact_plan = planner.plan_with_budget(&count, usize::MAX).unwrap();
        assert!(exact_plan.exact);
        assert_eq!(exact_plan.eta, 1.0);
    }

    #[test]
    fn invalid_query_is_rejected() {
        let db = example_db(50);
        let catalog = full_catalog(&db);
        let planner = Planner::new(&catalog);
        let mut bad = match q2(&db) {
            BeasQuery::Ra(RaQuery::Spc(q)) => q,
            _ => unreachable!(),
        };
        bad.output.clear();
        assert!(planner.plan_with_budget(&bad.into(), 100).is_err());
    }

    #[test]
    fn positive_leaf_indices_skip_negated_subtrees() {
        let db = example_db(50);
        let q1_ra = match q1(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let q2_ra = match q2(&db) {
            BeasQuery::Ra(q) => q,
            _ => unreachable!(),
        };
        let q = q1_ra.clone().difference(q2_ra).union(q1_ra);
        assert_eq!(positive_leaf_indices(&q), vec![0, 2]);
    }
}
