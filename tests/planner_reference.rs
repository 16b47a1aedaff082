//! The planner's compiled bound program against the query-walking planner it
//! replaced, kept here as the reference: `chAT` re-deriving `L` from the
//! tableau and the tariff from a recursive per-node estimate for every level
//! upgrade it tries. Written over the crates' public surface only
//! ([`LeafPlan::position_resolution`], [`chase_leaf`], the levels' `n` and
//! `stored_tuples`), so it shares no code with the program it checks.
//!
//! * plans are bit-identical on generated TPCH / AIRCA / TFACC pools (0–4
//!   joins, set difference, union, min/max and sum/count aggregates) across
//!   budgets from one tuple to unbounded, and on hand-built plans with an
//!   `∞` term;
//! * Theorem 5(3) and the chase's reserve rule hold on the same pools;
//! * the budget search behind accuracy targets
//!   ([`Planner::plan_for_target`]) returns a minimal budget that reaches
//!   the target, and reports infeasible exactly when the cap misses it;
//! * η attribution ([`Planner::binding_site`]) names a level that does bind.
//!
//! Cases are seeded; every failure message carries dataset, seed, query index
//! and budget.

use std::sync::{Arc, OnceLock};

use beas::access::TemplateFamily;
use beas::core::chase::chase_leaf;
use beas::core::{DistanceBounds, FetchNode, FetchPlan, KeySource, LeafPlan};
use beas::prelude::*;
use beas::relal::{Position, SelCond};

const BUDGETS: [usize; 6] = [1, 5, 50, 500, 2000, usize::MAX];
/// Scale of the datasets the plans are made for.
const SCALE: usize = 10;
const SEEDS: u64 = 3;
const QUERIES_PER_SEED: usize = 12;

// ------------------------------------------------------------ the reference

/// `est_output_rows` of the replaced planner: keys from the input node's own
/// estimate (recursively), times `N`, capped by the level's size.
fn ref_node_tariff(plan: &FetchPlan, catalog: &Catalog, id: usize) -> usize {
    let node = &plan.nodes[id];
    let level = catalog
        .family(node.family)
        .unwrap()
        .level(node.level)
        .unwrap();
    let keys = match node.input_node {
        None => 1,
        Some(input) => ref_node_tariff(plan, catalog, input),
    };
    keys.saturating_mul(level.n.max(1))
        .min(level.stored_tuples().max(1))
}

fn ref_total_tariff(plan: &FetchPlan, catalog: &Catalog) -> usize {
    (0..plan.nodes.len()).fold(0usize, |total, id| {
        total.saturating_add(ref_node_tariff(plan, catalog, id))
    })
}

/// Indices (in leaf order) of the leaves that are not under the right-hand
/// side of a difference.
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
    let (mut out, mut index) = (Vec::new(), 0);
    walk(ra, &mut index, true, &mut out);
    out
}

/// `L` by walking the tableau of every leaf.
fn ref_distance_bounds(
    catalog: &Catalog,
    ra: &RaQuery,
    leaf_plans: &[LeafPlan],
    fetch: &FetchPlan,
) -> DistanceBounds {
    let positive = positive_leaf_indices(ra);
    let (mut d_rel, mut d_cov) = (0.0f64, 0.0f64);
    for (i, (leaf, leaf_plan)) in ra.spc_leaves().into_iter().zip(leaf_plans).enumerate() {
        let res = |pos: Position| -> f64 {
            leaf_plan
                .position_resolution(fetch, catalog, &catalog.schema, leaf, pos)
                .unwrap()
        };
        let first = |var: usize| leaf.var_first_position(var).unwrap();

        let mut d_out = 0.0f64;
        for out in &leaf.output {
            d_out = d_out.max(res(first(out.var)));
        }
        let mut d_sel = 0.0f64;
        for (ai, terms) in leaf.terms.iter().enumerate() {
            for (pi, term) in terms.iter().enumerate() {
                if term.is_const() {
                    d_sel = d_sel.max(2.0 * res((ai, pi)));
                }
            }
        }
        for positions in leaf.var_positions().values() {
            if positions.len() > 1 {
                let head = res(positions[0]);
                for &p in &positions[1..] {
                    d_sel = d_sel.max(head + res(p));
                }
            }
        }
        for sel in &leaf.selections {
            match sel {
                SelCond::VarConst { var, .. } => d_sel = d_sel.max(2.0 * res(first(*var))),
                SelCond::VarVar { left, right, .. } => {
                    d_sel = d_sel.max(res(first(*left)) + res(first(*right)))
                }
            }
        }
        d_rel = d_rel.max(d_out.max(d_sel));
        if positive.contains(&i) {
            d_cov = d_cov.max(d_out);
        }
    }
    DistanceBounds { d_rel, d_cov }
}

fn finite_gain(old: f64, new: f64) -> f64 {
    if old.is_infinite() && new.is_infinite() {
        0.0
    } else if old.is_infinite() {
        f64::MAX
    } else {
        old - new
    }
}

/// `chAT` as it was: every tentative upgrade re-derives `L` and the tariff
/// from the query and the catalog.
fn ref_chat(
    catalog: &Catalog,
    ra: &RaQuery,
    leaf_plans: &[LeafPlan],
    fetch: &mut FetchPlan,
    budget: usize,
) {
    loop {
        let current = ref_distance_bounds(catalog, ra, leaf_plans, fetch);
        let current_worst = current.d_rel.max(current.d_cov);
        if current_worst == 0.0 {
            return;
        }
        let mut best: Option<(f64, f64, usize)> = None;
        for node in 0..fetch.nodes.len() {
            let family = catalog.family(fetch.nodes[node].family).unwrap();
            let level = fetch.nodes[node].level;
            if level + 1 >= family.num_levels() {
                continue;
            }
            fetch.nodes[node].level = level + 1;
            let feasible = ref_total_tariff(fetch, catalog) <= budget;
            let gains = feasible.then(|| {
                let new = ref_distance_bounds(catalog, ra, leaf_plans, fetch);
                let own: f64 = family.levels[level]
                    .resolution
                    .iter()
                    .zip(&family.levels[level + 1].resolution)
                    .map(|(o, n)| finite_gain(*o, *n))
                    .sum();
                (finite_gain(current_worst, new.d_rel.max(new.d_cov)), own)
            });
            fetch.nodes[node].level = level;
            let Some((gain, own_gain)) = gains else {
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
            Some((_, _, node)) => fetch.nodes[node].level += 1,
            None => return,
        }
    }
}

/// What [`Planner::plan_with_budget`] must reproduce.
struct RefPlan {
    /// The fetching plan as the chase left it, before `chAT`.
    chased: FetchPlan,
    fetch: FetchPlan,
    leaves: Vec<LeafPlan>,
    tariff: usize,
    bounds: DistanceBounds,
    eta: f64,
}

fn ref_plan(catalog: &Catalog, query: &BeasQuery, budget: usize) -> RefPlan {
    let ra = query.ra();
    let leaves = ra.spc_leaves();
    let mut fetch = FetchPlan::default();
    let mut leaf_plans = Vec::new();
    for (i, leaf) in leaves.iter().enumerate() {
        let atoms_after: usize = leaves[i + 1..].iter().map(|l| l.atoms.len()).sum();
        let outcome = chase_leaf(leaf, i, catalog, &mut fetch, budget, atoms_after).unwrap();
        leaf_plans.push(outcome.leaf_plan);
    }
    let chased = fetch.clone();
    ref_chat(catalog, ra, &leaf_plans, &mut fetch, budget);
    let bounds = ref_distance_bounds(catalog, ra, &leaf_plans, &fetch);
    let mut eta = bounds.eta();
    if let BeasQuery::Aggregate(agg) = query {
        if !agg.agg.is_extremum() && !bounds.is_exact() {
            eta = 0.0;
        }
    }
    RefPlan {
        tariff: ref_total_tariff(&fetch, catalog),
        chased,
        fetch,
        leaves: leaf_plans,
        bounds,
        eta,
    }
}

// ------------------------------------------------------------------- pools

struct Pool {
    name: &'static str,
    catalog: Arc<Catalog>,
    /// `(seed, index within the seed's workload, query)`.
    queries: Vec<(u64, usize, BeasQuery)>,
}

/// The three datasets at [`SCALE`], each with a seeded pool of generated
/// queries plus, for every generated set difference, the union of its leaves
/// (the generator makes no unions). Constants come from the scale-1 data:
/// the generator evaluates every candidate exactly, and attribute domains do
/// not depend on the scale.
fn pools() -> &'static [Pool] {
    static POOLS: OnceLock<Vec<Pool>> = OnceLock::new();
    POOLS.get_or_init(|| {
        type Generator = fn(usize, u64) -> Dataset;
        let datasets: [(&'static str, Generator); 3] = [
            ("TPCH", tpch_lite),
            ("AIRCA", airca_lite),
            ("TFACC", tfacc_lite),
        ];
        datasets
            .into_iter()
            .map(|(name, generate)| {
                let source = generate(1, 42);
                let mut queries = Vec::new();
                for seed in 0..SEEDS {
                    let cfg = QueryGenConfig {
                        count: QUERIES_PER_SEED,
                        seed: 0xBEA5_0000 + seed,
                        ..QueryGenConfig::default()
                    };
                    for (i, g) in generate_workload(&source, &cfg).into_iter().enumerate() {
                        if let BeasQuery::Ra(ra @ RaQuery::Difference(..)) = &g.query {
                            let union = ra
                                .spc_leaves()
                                .into_iter()
                                .map(|leaf| RaQuery::spc(leaf.clone()))
                                .reduce(RaQuery::union)
                                .expect("a difference has leaves");
                            queries.push((seed, i, BeasQuery::Ra(union)));
                        }
                        queries.push((seed, i, g.query));
                    }
                }
                let data = generate(SCALE, 42);
                let engine = Beas::builder(data.db)
                    .constraints(data.constraints)
                    .build()
                    .unwrap();
                Pool {
                    name,
                    catalog: engine.catalog(),
                    queries,
                }
            })
            .collect()
    })
}

// ------------------------------------------------------------------- tests

#[test]
fn pools_cover_every_query_shape() {
    for pool in pools() {
        let has = |pred: &dyn Fn(&BeasQuery) -> bool| pool.queries.iter().any(|(_, _, q)| pred(q));
        let name = pool.name;
        assert!(
            has(&|q| matches!(q, BeasQuery::Ra(RaQuery::Union(..)))),
            "{name}: no union"
        );
        assert!(
            has(&|q| matches!(q, BeasQuery::Ra(RaQuery::Difference(..)))),
            "{name}: no difference"
        );
        assert!(
            has(&|q| matches!(q, BeasQuery::Aggregate(a) if a.agg.is_extremum())),
            "{name}: no min/max aggregate"
        );
        assert!(
            has(&|q| matches!(q, BeasQuery::Aggregate(a) if !a.agg.is_extremum())),
            "{name}: no sum/count/avg aggregate"
        );
    }
    // not every schema's join graph is five relations deep
    for joins in 0..=4 {
        assert!(
            pools()
                .iter()
                .flat_map(|pool| &pool.queries)
                .any(|(_, _, q)| q.ra().spc_leaves()[0].atoms.len() == joins + 1),
            "no query with {joins} joins"
        );
    }
}

#[test]
fn compiled_planner_reproduces_the_reference_plans_bit_for_bit() {
    let (mut exact, mut stuck, mut upgraded) = (0usize, 0usize, 0usize);
    for pool in pools() {
        let planner = Planner::new(&pool.catalog);
        for (seed, i, query) in &pool.queries {
            for budget in BUDGETS {
                let at = format!("{} seed {seed} query {i} budget {budget}", pool.name);
                let plan = planner.plan_with_budget(query, budget).expect(&at);
                let want = ref_plan(&pool.catalog, query, budget);
                assert_eq!(plan.fetch, want.fetch, "{at}: fetch plan");
                assert_eq!(plan.leaves, want.leaves, "{at}: leaf plans");
                assert_eq!(plan.tariff, want.tariff, "{at}: tariff");
                assert_eq!(
                    (
                        plan.d_rel.to_bits(),
                        plan.d_cov.to_bits(),
                        plan.eta.to_bits()
                    ),
                    (
                        want.bounds.d_rel.to_bits(),
                        want.bounds.d_cov.to_bits(),
                        want.eta.to_bits()
                    ),
                    "{at}: (d_rel, d_cov, eta) = ({}, {}, {}), reference ({}, {}, {})",
                    plan.d_rel,
                    plan.d_cov,
                    plan.eta,
                    want.bounds.d_rel,
                    want.bounds.d_cov,
                    want.eta
                );
                assert_eq!(plan.exact, want.bounds.is_exact(), "{at}: exact");
                // the public entry points evaluate the same program
                let ra = query.ra();
                assert_eq!(
                    planner
                        .distance_bounds(ra, &ra.spc_leaves(), &plan.leaves, &plan.fetch)
                        .unwrap(),
                    want.bounds,
                    "{at}: distance_bounds"
                );
                assert_eq!(
                    plan.fetch.total_tariff(&pool.catalog).unwrap(),
                    want.tariff,
                    "{at}: total_tariff"
                );

                // which exit of the chAT loop this case took
                if plan.exact {
                    exact += 1;
                } else if want.chased == plan.fetch {
                    stuck += 1;
                } else {
                    upgraded += 1;
                }
            }
        }
    }
    // the loop's three ways out all occurred: exact (`worst == 0`), no
    // affordable upgrade at all, and upgrades until the budget ran out
    assert!(
        exact > 50 && stuck > 50 && upgraded > 50,
        "exact {exact}, stuck {stuck}, upgraded {upgraded}"
    );
}

/// Theorem 5(3), `α1 ≥ α2 ⇒ η1 ≥ η2`, and the reserve rule of the chase: a
/// budget of at least one tuple per relation atom is never exceeded. The
/// budgets include every power of two up to `|D|` — the ones the target
/// search gallops over.
#[test]
fn larger_budget_never_lowers_eta_and_tariff_respects_the_budget() {
    for pool in pools() {
        let planner = Planner::new(&pool.catalog);
        let mut budgets = vec![1, 5, 20, 50, 200, 500, 2000, 10_000, usize::MAX];
        budgets.extend(
            std::iter::successors(Some(1usize), |b| b.checked_mul(2))
                .take_while(|&b| b <= pool.catalog.db_size),
        );
        budgets.sort_unstable();
        budgets.dedup();
        for (seed, i, query) in &pool.queries {
            let atoms = query.relation_count();
            let mut last = -1.0f64;
            for &budget in &budgets {
                let at = format!("{} seed {seed} query {i} budget {budget}", pool.name);
                let plan = planner.plan_with_budget(query, budget).expect(&at);
                assert!(
                    plan.eta >= last,
                    "{at}: eta fell from {last} to {}",
                    plan.eta
                );
                last = plan.eta;
                if budget >= atoms {
                    assert!(
                        plan.tariff <= budget,
                        "{at}: tariff {} over the budget with {atoms} atoms",
                        plan.tariff
                    );
                }
            }
            assert_eq!(last, 1.0, "{} seed {seed} query {i}: unbounded", pool.name);
        }
    }
}

/// The target search over the pools: a feasible result reaches η at a budget
/// one tuple below which the plan misses it, and is the plan that budget
/// gets directly; infeasible means exactly that the cap misses η.
#[test]
fn target_search_is_minimal_and_sound() {
    let (mut feasible, mut above_one) = (0usize, 0usize);
    for pool in pools() {
        let planner = Planner::new(&pool.catalog);
        let cap = pool.catalog.budget(&ResourceSpec::FULL).unwrap();
        for (seed, i, query) in &pool.queries {
            let at_cap = planner.plan_with_budget(query, cap).unwrap();
            for eta in [0.1, 0.3, 0.5, 0.8, 1.0] {
                let at = format!("{} seed {seed} query {i} eta {eta}", pool.name);
                let (plan, ok) = planner.plan_for_target(query, eta, cap).expect(&at);
                assert_eq!(ok, at_cap.eta >= eta, "{at}: feasibility");
                if !ok {
                    assert_eq!(plan.budget, cap, "{at}: infeasible off the cap");
                    assert_eq!(plan.eta.to_bits(), at_cap.eta.to_bits(), "{at}");
                    continue;
                }
                feasible += 1;
                assert!(plan.eta >= eta, "{at}: eta {} at {}", plan.eta, plan.budget);
                let direct = planner.plan_with_budget(query, plan.budget).unwrap();
                assert_eq!(plan.fetch, direct.fetch, "{at}: not the direct plan");
                assert_eq!(plan.eta.to_bits(), direct.eta.to_bits(), "{at}");
                if plan.budget > 1 {
                    above_one += 1;
                    let below = planner.plan_with_budget(query, plan.budget - 1).unwrap();
                    assert!(
                        below.eta < eta,
                        "{at}: budget {} is not minimal ({} reaches {})",
                        plan.budget,
                        plan.budget - 1,
                        below.eta
                    );
                }
            }
        }
    }
    assert!(
        feasible > 100 && above_one > 50,
        "feasible {feasible}, above one {above_one}"
    );
}

#[test]
fn binding_site_is_none_exactly_for_exact_plans_and_names_a_level_that_binds() {
    let mut checked = 0usize;
    for pool in pools() {
        let planner = Planner::new(&pool.catalog);
        for (seed, i, query) in &pool.queries {
            for budget in BUDGETS {
                let at = format!("{} seed {seed} query {i} budget {budget}", pool.name);
                let plan = planner.plan_with_budget(query, budget).unwrap();
                let site = planner.binding_site(&plan).unwrap();
                assert_eq!(site.is_none(), plan.exact, "{at}: {site:?}");
                let Some((family, level, attr)) = site.clone() else {
                    continue;
                };
                // the site is a node of the plan, below its exact level, and
                // the attribute's resolution there is what keeps η down
                let fam = pool.catalog.family(family).unwrap();
                let resolution = fam.resolution_of(level, &attr).expect(&at);
                assert!(resolution > 0.0, "{at}: {site:?} is exact");
                let worst = plan.d_rel.max(plan.d_cov);
                assert!(
                    resolution <= worst && worst <= 2.0 * resolution,
                    "{at}: {resolution} does not explain {worst}"
                );

                // raising only the nodes at that site to the exact level
                // lowers the bound or hands the arg-max to another site (the
                // same family at another level is another site)
                let mut raised = plan.clone();
                for node in &mut raised.fetch.nodes {
                    if node.family == family && node.level == level {
                        node.level = fam.exact_level();
                    }
                }
                let ra = query.ra();
                let bounds = planner
                    .distance_bounds(ra, &ra.spc_leaves(), &raised.leaves, &raised.fetch)
                    .unwrap();
                let other = planner.binding_site(&raised).unwrap();
                assert!(
                    bounds.d_rel.max(bounds.d_cov) < worst || (other.is_some() && other != site),
                    "{at}: {site:?} still binds after raising it ({other:?})"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} non-exact plans");
}

// ------------------------------------------------------- hand-built plans

/// A `poi` database whose extended family fetches `price` only: a query that
/// outputs `address` through it has an `∞` term no level can lower.
fn poi_catalog() -> (Database, Catalog, usize) {
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
    for i in 0..300i64 {
        db.insert_row(
            "poi",
            vec![
                Value::from(format!("a{i}")),
                Value::from(if i % 3 == 0 { "hotel" } else { "museum" }),
                Value::from(["NYC", "LA", "Chicago"][(i % 3) as usize]),
                Value::Double(40.0 + (i * 7 % 211) as f64),
            ],
        )
        .unwrap();
    }
    let mut catalog = Catalog::for_database(&db, &AtOptions::default()).unwrap();
    let price_only: TemplateFamily = build_extended(&db, "poi", &["type"], &["price"]).unwrap();
    assert!(price_only.num_levels() > 2);
    let id = catalog.add_family(price_only);
    (db, catalog, id)
}

fn hotels(db: &Database, outputs: &[&str]) -> SpcQuery {
    let mut b = SpcQueryBuilder::new(&db.schema);
    let h = b.atom("poi", "h").unwrap();
    b.bind_const(h, "type", "hotel").unwrap();
    b.filter_const(h, "price", CompareOp::Le, 120i64).unwrap();
    for out in outputs {
        b.output(h, out, out).unwrap();
    }
    b.build().unwrap()
}

fn keyed_node(family: usize, atom: usize, subquery: usize) -> FetchNode {
    FetchNode {
        id: 0,
        family,
        level: 0,
        relation: "poi".into(),
        subquery,
        atom,
        input_node: None,
        key_sources: vec![KeySource::Const(Value::from("hotel"))],
        is_completion: true,
    }
}

#[test]
fn chat_with_an_infinite_term_matches_the_reference() {
    let (db, catalog, price_only) = poi_catalog();
    let planner = Planner::new(&catalog);
    // leaf 0 outputs an attribute its node does not fetch (∞, and it bounds
    // coverage); leaf 1, negated, is fully served by the same family
    let ra = RaQuery::spc(hotels(&db, &["address", "price"]))
        .difference(RaQuery::spc(hotels(&db, &["price", "price"])));
    let leaves = ra.spc_leaves();
    let mut fetch = FetchPlan::default();
    fetch.push(keyed_node(price_only, 0, 0));
    fetch.push(keyed_node(price_only, 0, 1));
    let leaf_plans = vec![
        LeafPlan {
            leaf: 0,
            atom_nodes: vec![0],
        },
        LeafPlan {
            leaf: 1,
            atom_nodes: vec![1],
        },
    ];
    let start = planner
        .distance_bounds(&ra, &leaves, &leaf_plans, &fetch)
        .unwrap();
    assert_eq!(
        start,
        ref_distance_bounds(&catalog, &ra, &leaf_plans, &fetch)
    );
    assert!(start.d_rel.is_infinite() && start.d_cov.is_infinite());

    for budget in [1usize, 40, 150, usize::MAX] {
        let mut got = fetch.clone();
        let (bounds, tariff) = planner
            .chat(&ra, &leaves, &leaf_plans, &mut got, budget)
            .unwrap();
        let mut want = fetch.clone();
        ref_chat(&catalog, &ra, &leaf_plans, &mut want, budget);
        assert_eq!(got, want, "budget {budget}");
        assert_eq!(
            bounds,
            ref_distance_bounds(&catalog, &ra, &leaf_plans, &want),
            "budget {budget}"
        );
        assert_eq!(tariff, ref_total_tariff(&want, &catalog), "budget {budget}");
        // no level lowers ∞, but the nodes keep zooming in on their own gain
        assert!(bounds.d_rel.is_infinite(), "budget {budget}");
    }
    let mut unbounded = fetch.clone();
    planner
        .chat(&ra, &leaves, &leaf_plans, &mut unbounded, usize::MAX)
        .unwrap();
    let deepest = catalog.family(price_only).unwrap().num_levels() - 1;
    assert!(unbounded.nodes.iter().all(|n| n.level == deepest));
    let mut starved = fetch.clone();
    planner
        .chat(&ra, &leaves, &leaf_plans, &mut starved, 1)
        .unwrap();
    assert_eq!(starved, fetch, "every upgrade is over a budget of 1");
}

#[test]
fn binding_site_names_the_attribute_a_family_does_not_produce() {
    let (db, catalog, price_only) = poi_catalog();
    let planner = Planner::new(&catalog);
    let query: BeasQuery = hotels(&db, &["address", "price"]).into();
    let mut plan = planner.plan_with_budget(&query, 50).unwrap();
    // the planner never picks a family that misses a needed attribute…
    let site = planner.binding_site(&plan).unwrap().unwrap();
    assert!(catalog
        .family(site.0)
        .unwrap()
        .resolution_of(site.1, &site.2)
        .is_some());
    // …so swap it in by hand
    plan.fetch = FetchPlan::default();
    plan.fetch.push(keyed_node(price_only, 0, 0));
    plan.leaves = vec![LeafPlan {
        leaf: 0,
        atom_nodes: vec![0],
    }];
    assert_eq!(
        planner.binding_site(&plan).unwrap(),
        Some((price_only, 0, "address".to_string()))
    );
}
