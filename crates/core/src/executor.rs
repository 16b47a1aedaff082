//! Execution of bounded query plans: runs the fetching plan `ξ_F` through a
//! budget-enforcing [`FetchSession`] and then evaluates the relaxation-
//! compensated evaluation plan `ξ_E` over the fetched data (Sec. 5–7).
//!
//! Set difference is enforced without scanning the database (Sec. 6): when the
//! negated side was fetched approximately, answers of the positive side that
//! fall within the *dangerous distance* of the negated side's maximal induced
//! query are excluded, and the coverage part of the accuracy bound is
//! re-estimated from the two executed answer sets (`d'` of Fig. 5).
//!
//! # Sharded parallel evaluation
//!
//! Fetching stays sequential (budget enforcement is a serial accounting
//! decision), but the evaluation plan `ξ_E` is embarrassingly parallel: with
//! [`ExecOptions::threads`] > 1, each SPC leaf whose largest fetched atom
//! relation holds at least [`ExecOptions::min_shard_rows`] rows
//! ([`DEFAULT_MIN_SHARD_ROWS`] unless lowered) partitions it into row
//! shards, evaluates the leaf expression per shard on `std::thread::scope`
//! threads, and merges the shard outputs.
//! Sharding one atom partitions the set of atom-row combinations exactly, so
//! the merged result is the same (multi)set the sequential evaluation
//! produces; leaf results are then canonicalised (sorted / deduplicated)
//! before RA composition and aggregation, which makes the final answers
//! **bit-for-bit identical for every thread count** — including the
//! floating-point aggregate sums, whose accumulation order is fixed by the
//! canonical row order.
//!
//! # Resumable execution
//!
//! Multi-resolution template families make refinement cheap in the *dual*
//! direction too: the fragments a plan fetches at a coarse budget are exactly
//! the fragments a finer-budget plan re-fetches (same family, same level,
//! same keys) whenever `chAT` kept that level. An [`ExecState`] therefore
//! carries, across executions of *plans for the same query against the same
//! catalog snapshot*:
//!
//! * the **fetched fragment set**, keyed by `(family, level, keys)` — a
//!   repeated fetch is served from the state (and billed against the budget
//!   through [`FetchSession::record_cached`], so the access accounting is
//!   identical to a fresh run) instead of re-materialized;
//! * **partial SPC leaf results**, keyed by the leaf and the fragment
//!   identities of its completion nodes — a leaf whose inputs did not change
//!   between budgets skips relaxation, join and canonicalisation entirely.
//!
//! Because a state hit returns exactly what a fresh fetch/evaluation would
//! return, [`execute_plan_with_state`] over a carried-over state is
//! **bit-for-bit identical** to the same call over a fresh one — answers, η,
//! float aggregate sums and the `accessed` accounting; only wall-clock
//! differs. This is the foundation of the
//! [`AnswerSession`](crate::AnswerSession) refinement loop.
//!
//! # Fragment streams
//!
//! Execution is factored into three public phases so a leaf never cares
//! *where* its input fragments came from — a local fetch, a session's reuse
//! cache, or a peer node of a cluster:
//!
//! 1. [`stream_plan_fragments`] drives the fetching plan `ξ_F` node by node
//!    (each node's keys derive from already-streamed fragments via
//!    [`node_keys`]) and fills a [`PlanFragments`] — the local source. A
//!    distributed coordinator instead gathers fragments from shard nodes and
//!    registers them with [`ExecState::adopt_fragment`] +
//!    [`PlanFragments::set`].
//! 2. [`evaluate_plan_leaf`] evaluates one SPC leaf over whatever fragments
//!    its completion nodes resolved to, returning a canonical [`LeafEval`].
//! 3. [`compose_plan_answer`] combines the per-leaf results along the RA
//!    structure, applies the `d'` correction and the final aggregation.
//!
//! [`execute_plan_with_state`] is exactly the composition of the three, so
//! any other driver of the phases (e.g. a cluster coordinator) inherits the
//! bit-for-bit determinism for free.

use std::collections::HashMap;
use std::sync::Arc;

use beas_access::{Catalog, FetchSession, WEIGHT_COLUMN};
use beas_relal::{
    aggregate_relation, eval_bag, eval_set, CompareOp, GroupByQuery, Predicate, PredicateAtom,
    RaExpr, Relation, SelCond, SpcQuery, Value,
};

use crate::error::{BeasError, Result};
use crate::plan::{FetchNode, KeySource, LeafPlan};
use crate::planner::BoundedPlan;
use crate::query::{BeasQuery, RaQuery};

/// The result of executing a bounded plan.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The (approximate or exact) answers `ξ_α(D)`.
    pub answers: Relation,
    /// The final accuracy lower bound `η` (for queries with approximate set
    /// difference this refines the planned bound using `d'`, Fig. 5 lines 6–7).
    pub eta: f64,
    /// Tuples actually accessed.
    pub accessed: usize,
    /// Number of fetch operations executed.
    pub fetches: usize,
}

/// The smallest sharded-atom row count for which parallel leaf evaluation
/// is engaged, unless lowered: the default of [`ExecOptions`], of every
/// engine (built or reopened) and of every cluster.
///
/// Why 16 384: a row shard is worth its thread once its scan work covers
/// about four spawn-and-join costs of a scoped worker. Measured on an idle
/// 2-core machine that point lies at 36 000–67 000 rows, and under load it
/// fell to about 9 300; 16 384 sits between the two. A bounded plan's atom
/// relations never hold more rows than its budget, so only budgets past
/// this size shard at all. The threshold gates wall-clock only: answers are
/// bit-for-bit identical for every value, and
/// [`ExecOptions::with_min_shard_rows`] lowers it where a test needs the
/// sharded path.
pub const DEFAULT_MIN_SHARD_ROWS: usize = 16 * 1024;

/// Execution knobs: the enforced budget and the shard parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Tuple budget to enforce (`None` disables enforcement; used by tests
    /// and by the exact-answer path).
    pub budget: Option<usize>,
    /// Number of threads for sharded leaf evaluation (1 = sequential). The
    /// answers are identical for every value — see the module docs.
    pub threads: usize,
    /// Minimum number of rows in the sharded atom relation before a leaf is
    /// evaluated in parallel (defaults to [`DEFAULT_MIN_SHARD_ROWS`]).
    /// Thread count and threshold never affect answers, only wall-clock.
    pub min_shard_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            budget: None,
            threads: 1,
            min_shard_rows: DEFAULT_MIN_SHARD_ROWS,
        }
    }
}

impl ExecOptions {
    /// Options enforcing `budget` on a single thread.
    pub fn budgeted(budget: usize) -> Self {
        ExecOptions {
            budget: Some(budget),
            ..ExecOptions::default()
        }
    }

    /// Sets the shard parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the minimum sharded-atom size for parallel leaf evaluation
    /// (clamped to at least 1).
    pub fn with_min_shard_rows(mut self, rows: usize) -> Self {
        self.min_shard_rows = rows.max(1);
        self
    }
}

/// One cached fetched fragment of an [`ExecState`]: the output of
/// `fetch(X ∈ keys, family, ψ_level)`. Identified by the full fetch identity
/// (family, level and the exact key list, compared for equality — no hash
/// collisions can alias two different fetches).
#[derive(Debug, Clone)]
struct FragmentEntry {
    family: beas_access::FamilyId,
    level: usize,
    keys: Vec<Vec<Value>>,
    /// `Arc`-shared so a state hit hands the fragment back without copying
    /// its column data.
    rel: Arc<Relation>,
}

/// One cached SPC leaf result: the canonicalised output of `evaluate_leaf`
/// for a leaf whose completion nodes resolved to exactly these fragments.
#[derive(Debug, Clone)]
struct LeafEntry {
    leaf: usize,
    /// Indices into [`ExecState::fragments`] of the leaf's completion nodes,
    /// in atom order.
    atom_fragments: Vec<usize>,
    rel: Arc<Relation>,
    out_res: Vec<f64>,
    exact: bool,
}

/// Resumable execution state shared by the steps of a refinement session
/// (see the module docs): the fetched fragment set plus partial SPC leaf
/// results. Only meaningful across plans *for the same query against the
/// same catalog snapshot* — [`AnswerSession`](crate::AnswerSession) pins one
/// [`EngineSnapshot`](crate::EngineSnapshot) for its whole lifetime to
/// guarantee that.
#[derive(Debug, Default)]
pub struct ExecState {
    fragments: Vec<FragmentEntry>,
    leaves: Vec<LeafEntry>,
    /// Tuples actually materialized (not served from the fragment set) over
    /// the state's lifetime.
    new_tuples: usize,
    /// Tuples served from the fragment set over the state's lifetime.
    reused_tuples: usize,
}

impl ExecState {
    /// A fresh state (no fragments, no partial results).
    pub fn new() -> Self {
        ExecState::default()
    }

    /// Cumulative tuples actually fetched (materialized) through this state —
    /// the real access cost of a refinement session so far. Tuples served
    /// from the fragment set are *charged* against each step's budget but not
    /// re-counted here.
    pub fn fetched_tuples(&self) -> usize {
        self.new_tuples
    }

    /// Cumulative tuples served from the fragment set instead of being
    /// re-materialized.
    pub fn reused_tuples(&self) -> usize {
        self.reused_tuples
    }

    /// Number of distinct fragments held.
    pub fn fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Tuples currently held across the fragment set and cached leaf results
    /// — the memory-pressure signal an idle-eviction sweep weighs a session
    /// by.
    pub fn held_tuples(&self) -> usize {
        self.fragments.iter().map(|f| f.rel.len()).sum::<usize>()
            + self.leaves.iter().map(|l| l.rel.len()).sum::<usize>()
    }

    /// Drops every fragment and cached leaf result, keeping the lifetime
    /// counters. A shard node evicting an idle remote session calls this (via
    /// dropping the session) — exposed so holders can also shed memory while
    /// keeping the state allocated.
    pub fn clear(&mut self) {
        self.fragments.clear();
        self.leaves.clear();
    }

    /// Serves one fetch from the fragment set when its exact identity was
    /// fetched before (billing the budget like a fresh fetch), materializing
    /// and recording it otherwise. Returns the fragment index and the
    /// relation. This is the local fragment source of
    /// [`stream_plan_fragments`]; a cluster shard node drives it directly to
    /// serve fetch requests with per-session reuse.
    pub fn fetch_or_reuse(
        &mut self,
        session: &mut FetchSession<'_>,
        family: beas_access::FamilyId,
        level: usize,
        keys: Vec<Vec<Value>>,
    ) -> Result<(usize, Arc<Relation>)> {
        if let Some(i) = self
            .fragments
            .iter()
            .position(|f| f.family == family && f.level == level && f.keys == keys)
        {
            session.record_cached(self.fragments[i].rel.len())?;
            self.reused_tuples += self.fragments[i].rel.len();
            return Ok((i, Arc::clone(&self.fragments[i].rel)));
        }
        let rel = Arc::new(session.fetch(family, level, &keys)?);
        self.new_tuples += rel.len();
        self.fragments.push(FragmentEntry {
            family,
            level,
            keys,
            rel: Arc::clone(&rel),
        });
        Ok((self.fragments.len() - 1, rel))
    }

    /// Registers a fragment that was materialized *elsewhere* (e.g. fetched
    /// by a peer node of a cluster and shipped over the wire), returning its
    /// fragment index. Deduplicates on the full fetch identity like
    /// [`ExecState::fetch_or_reuse`], but performs no budget billing — the
    /// node that materialized the fragment already accounted for it.
    pub fn adopt_fragment(
        &mut self,
        family: beas_access::FamilyId,
        level: usize,
        keys: Vec<Vec<Value>>,
        rel: Arc<Relation>,
    ) -> usize {
        if let Some(i) = self
            .fragments
            .iter()
            .position(|f| f.family == family && f.level == level && f.keys == keys)
        {
            return i;
        }
        self.fragments.push(FragmentEntry {
            family,
            level,
            keys,
            rel,
        });
        self.fragments.len() - 1
    }

    /// The cached result of leaf `leaf` over exactly these completion
    /// fragments, if present.
    fn leaf(&self, leaf: usize, atom_fragments: &[usize]) -> Option<&LeafEntry> {
        self.leaves
            .iter()
            .find(|e| e.leaf == leaf && e.atom_fragments == atom_fragments)
    }
}

/// The per-node fragment inputs of a plan execution: one slot per node of the
/// fetching plan `ξ_F`, holding the node's output relation and its fragment
/// identity in the driving [`ExecState`]. Filled by [`stream_plan_fragments`]
/// locally, or slot by slot (via [`PlanFragments::set`]) by a coordinator
/// gathering fragments from cluster shards — downstream leaf evaluation
/// ([`evaluate_plan_leaf`]) cannot tell the difference.
#[derive(Debug, Clone)]
pub struct PlanFragments {
    outputs: Vec<Option<Arc<Relation>>>,
    fragments: Vec<Option<usize>>,
}

impl PlanFragments {
    /// Empty fragment slots for every node of `plan`'s fetching plan.
    pub fn for_plan(plan: &BoundedPlan) -> Self {
        let n = plan.fetch.nodes.len();
        PlanFragments {
            outputs: vec![None; n],
            fragments: vec![None; n],
        }
    }

    /// Number of node slots.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// `true` when the plan has no fetch nodes.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Fills node `node`'s slot with its fragment identity and output.
    pub fn set(&mut self, node: usize, fragment: usize, rel: Arc<Relation>) {
        self.outputs[node] = Some(rel);
        self.fragments[node] = Some(fragment);
    }

    /// The output relation of node `node`, if streamed already.
    pub fn output(&self, node: usize) -> Option<&Arc<Relation>> {
        self.outputs.get(node).and_then(|o| o.as_ref())
    }

    /// The fragment identity of node `node`, if streamed already.
    pub fn fragment(&self, node: usize) -> Option<usize> {
        self.fragments.get(node).and_then(|f| *f)
    }

    fn require_output(&self, node: usize) -> Result<&Arc<Relation>> {
        self.output(node)
            .ok_or_else(|| BeasError::Planning(format!("missing output of fetch node {node}")))
    }
}

/// The keys fetch node `node` asks its template family for, derived from the
/// already-streamed fragments: the constant key for root nodes, one key per
/// input row (via the node's [`KeySource`]s) otherwise. This is the planner's
/// key-provenance contract made executable — a cluster coordinator uses it to
/// compute the key list it sends to the shard owning the node's family.
pub fn node_keys(node: &FetchNode, fragments: &PlanFragments) -> Result<Vec<Vec<Value>>> {
    match node.input_node {
        None => {
            let key: Vec<Value> = node
                .key_sources
                .iter()
                .map(|k| match k {
                    KeySource::Const(v) => Ok(v.clone()),
                    KeySource::Column(c) => Err(BeasError::Planning(format!(
                        "fetch node {} references column {c} but has no input node",
                        node.id
                    ))),
                })
                .collect::<Result<_>>()?;
            Ok(vec![key])
        }
        Some(input) => {
            let input_rel = fragments.require_output(input)?;
            let mut col_idx: Vec<Option<usize>> = Vec::with_capacity(node.key_sources.len());
            for k in &node.key_sources {
                match k {
                    KeySource::Const(_) => col_idx.push(None),
                    KeySource::Column(c) => {
                        col_idx.push(Some(input_rel.column_index(c).map_err(BeasError::from)?))
                    }
                }
            }
            let mut keys = Vec::with_capacity(input_rel.len());
            for row in 0..input_rel.len() {
                let key: Vec<Value> = node
                    .key_sources
                    .iter()
                    .zip(col_idx.iter())
                    .map(|(k, idx)| match (k, idx) {
                        (KeySource::Const(v), _) => v.clone(),
                        (KeySource::Column(_), Some(i)) => input_rel.value_at(row, *i),
                        (KeySource::Column(_), None) => unreachable!(),
                    })
                    .collect();
                keys.push(key);
            }
            Ok(keys)
        }
    }
}

/// Streams every fragment of `plan`'s fetching plan from the local catalog
/// behind `session`, reusing (and re-billing) fragments already held by
/// `state`. The local source of the fragment-stream phases (see the module
/// docs).
pub fn stream_plan_fragments(
    plan: &BoundedPlan,
    session: &mut FetchSession<'_>,
    state: &mut ExecState,
) -> Result<PlanFragments> {
    let mut fragments = PlanFragments::for_plan(plan);
    for node in &plan.fetch.nodes {
        let keys = node_keys(node, &fragments)?;
        let (fragment, fetched) = state.fetch_or_reuse(session, node.family, node.level, keys)?;
        fragments.set(node.id, fragment, fetched);
    }
    Ok(fragments)
}

/// The canonicalised result of one SPC leaf: its relation (sorted when the
/// query aggregates, so weighted float sums accumulate in a fixed order), the
/// resolution of each output column, and whether every needed position was
/// fetched exactly.
#[derive(Debug, Clone)]
pub struct LeafEval {
    /// The leaf's canonical result relation.
    pub rel: Arc<Relation>,
    /// Resolution of each output column under the plan.
    pub out_res: Vec<f64>,
    /// `true` when every needed position of the leaf is fetched exactly.
    pub exact: bool,
}

/// Evaluates SPC leaf `index` of `plan` over the fragments its completion
/// nodes resolved to, serving and feeding the leaf cache of `state` (keyed on
/// the fragment identities, so a leaf whose inputs did not change between
/// refinement steps is skipped entirely). Phase 2 of the fragment-stream
/// factoring; callable for any leaf whose atom-node slots are filled, which
/// is how a cluster shard evaluates its locally-owned leaves.
pub fn evaluate_plan_leaf(
    index: usize,
    plan: &BoundedPlan,
    catalog: &Catalog,
    fragments: &PlanFragments,
    options: &ExecOptions,
    state: &mut ExecState,
) -> Result<LeafEval> {
    let ra = plan.query.ra();
    let leaves = ra.spc_leaves();
    let leaf = *leaves
        .get(index)
        .ok_or_else(|| BeasError::Planning(format!("no SPC leaf {index} in the query")))?;
    let leaf_plan = plan
        .leaves
        .get(index)
        .ok_or_else(|| BeasError::Planning(format!("no leaf plan {index} in the bounded plan")))?;
    let want_weights = plan.query.is_aggregate();
    // the fragment identities of the leaf's completion nodes fully determine
    // its (canonicalised) result for a fixed query and catalog: the inputs
    // are those fragments and every relaxation tolerance derives from their
    // (family, level) pairs
    let atom_fragments: Vec<usize> = leaf_plan
        .atom_nodes
        .iter()
        .map(|&n| {
            fragments.fragment(n).ok_or_else(|| {
                BeasError::Planning(format!("leaf {index} needs unstreamed fetch node {n}"))
            })
        })
        .collect::<Result<_>>()?;
    if let Some(entry) = state.leaf(index, &atom_fragments) {
        return Ok(LeafEval {
            rel: Arc::clone(&entry.rel),
            out_res: entry.out_res.clone(),
            exact: entry.exact,
        });
    }
    let mut rel = evaluate_leaf(
        leaf,
        leaf_plan,
        plan,
        catalog,
        fragments,
        want_weights,
        options,
    )?;
    // canonical row order: makes the downstream composition (including the
    // accumulation order of weighted aggregate sums) independent of both
    // sharding and join order
    if want_weights {
        rel.sort_rows();
    }
    let out_res = output_resolutions(leaf, leaf_plan, plan, catalog)?;
    let exact = leaf_is_exact(leaf, leaf_plan, plan, catalog)?;
    let rel = Arc::new(rel);
    state.leaves.push(LeafEntry {
        leaf: index,
        atom_fragments,
        rel: Arc::clone(&rel),
        out_res: out_res.clone(),
        exact,
    });
    Ok(LeafEval {
        rel,
        out_res,
        exact,
    })
}

/// Combines canonical per-leaf results along the query's RA structure,
/// re-estimates η through the `d'` correction when a set difference was
/// fetched approximately, and applies the final aggregation. Phase 3 of the
/// fragment-stream factoring: the merge a cluster coordinator runs over leaf
/// results gathered from shards. Returns the answers and the final η.
pub fn compose_plan_answer(
    plan: &BoundedPlan,
    catalog: &Catalog,
    leaves: &[LeafEval],
) -> Result<(Relation, f64)> {
    let schema = &catalog.schema;
    let ra = plan.query.ra();
    let want_weights = plan.query.is_aggregate();
    if leaves.len() != plan.leaves.len() {
        return Err(BeasError::Planning(format!(
            "compose needs {} leaf results, got {}",
            plan.leaves.len(),
            leaves.len()
        )));
    }

    let indexed = index_leaves(ra, &mut 0);
    let output_kinds = ra.output_distances(schema)?;
    let ra_result = exec_indexed(
        &indexed,
        leaves,
        &output_kinds,
        want_weights,
        ra.output_columns().len(),
    )?;

    // final eta
    let mut eta = plan.eta;
    if has_approx_difference(&indexed, leaves) {
        // induce over the *indexed* tree so that leaf indices keep referring
        // to the original per-leaf results
        let induced = induce(&indexed);
        let s_hat = exec_indexed(
            &induced,
            leaves,
            &output_kinds,
            false,
            ra.output_columns().len(),
        )?;
        let ncols = ra.output_columns().len();
        let d_prime = max_min_distance(&s_hat, &ra_result, &output_kinds, ncols);
        let worst = plan.d_rel.max(d_prime + plan.d_cov);
        eta = if worst.is_infinite() {
            0.0
        } else {
            1.0 / (1.0 + worst)
        };
        // the planner's special cases (e.g. sum/count/avg aggregates without
        // an exact plan) declare no bound at all; keep that
        if plan.eta == 0.0 {
            eta = 0.0;
        }
    }

    // aggregation
    let answers = finalize_answers(plan, ra_result)?;
    Ok((answers, eta))
}

/// Applies the final projection/dedup (RA queries) or aggregation (aggregate
/// queries) to a composed RA result.
fn finalize_answers(plan: &BoundedPlan, ra_result: Relation) -> Result<Relation> {
    let ra = plan.query.ra();
    match &plan.query {
        BeasQuery::Ra(_) => {
            let mut rel = project_outputs(&ra_result, ra.output_columns().len());
            rel.columns = ra.output_columns();
            rel.dedup();
            Ok(rel)
        }
        BeasQuery::Aggregate(agg) => {
            let mut input = ra_result;
            // name the columns so the aggregate can address them
            let mut cols = ra.output_columns();
            if input.arity() == cols.len() + 1 {
                cols.push(WEIGHT_COLUMN.to_string());
            }
            input.columns = cols;
            let weight_col = if agg.agg.is_extremum() {
                None
            } else if input.columns.iter().any(|c| c == WEIGHT_COLUMN) {
                Some(WEIGHT_COLUMN.to_string())
            } else {
                None
            };
            let gq = GroupByQuery {
                input: RaExpr::scan("__unused", "__unused"),
                group_by: agg.group_by.clone(),
                agg: agg.agg,
                agg_col: agg.agg_col.clone(),
                out_name: agg.out_name.clone(),
                weight_col,
            };
            Ok(aggregate_relation(&input, &gq)?)
        }
    }
}

/// [`compose_plan_answer`] over a leaf-result slice with holes: the merge a
/// degrading cluster coordinator runs when some leaves were lost with their
/// shard (`DegradedPolicy::PartialAnswer`). With every slot present this is
/// exactly [`compose_plan_answer`]. Otherwise the RA tree is pruned to the
/// surviving leaves — a union with one lost side keeps the other, a
/// difference with a lost subtrahend keeps its positive side, a difference
/// with a lost positive side is dropped — and the composed answers carry
/// **η = 0**: with a fragment missing, the coverage distance of the lost
/// tuples is unbounded, so no positive accuracy bound is sound. The honest
/// contract for a partial answer is therefore "these tuples were really
/// computed from the surviving fragments, and any η ≥ 0 the healthy answer
/// reports also bounds them".
pub fn compose_plan_answer_partial(
    plan: &BoundedPlan,
    catalog: &Catalog,
    leaves: &[Option<LeafEval>],
) -> Result<(Relation, f64)> {
    if leaves.len() != plan.leaves.len() {
        return Err(BeasError::Planning(format!(
            "compose needs {} leaf results, got {}",
            plan.leaves.len(),
            leaves.len()
        )));
    }
    if leaves.iter().all(|l| l.is_some()) {
        let full: Vec<LeafEval> = leaves.iter().map(|l| l.clone().unwrap()).collect();
        return compose_plan_answer(plan, catalog, &full);
    }
    let ra = plan.query.ra();
    let present: Vec<bool> = leaves.iter().map(|l| l.is_some()).collect();
    let indexed = index_leaves(ra, &mut 0);
    let Some(pruned) = prune_indexed(&indexed, &present) else {
        // no leaf of the answer-bearing side survived: an empty partial answer
        return Ok((Relation::empty(plan.query.output_columns()), 0.0));
    };
    // compact the surviving leaves and remap the pruned tree onto them
    let mut remap = vec![usize::MAX; leaves.len()];
    let mut survivors = Vec::new();
    for (i, leaf) in leaves.iter().enumerate() {
        if let Some(leaf) = leaf {
            remap[i] = survivors.len();
            survivors.push(leaf.clone());
        }
    }
    let pruned = remap_indexed(&pruned, &remap);
    let want_weights = plan.query.is_aggregate();
    let output_kinds = ra.output_distances(&catalog.schema)?;
    let ra_result = exec_indexed(
        &pruned,
        &survivors,
        &output_kinds,
        want_weights,
        ra.output_columns().len(),
    )?;
    let answers = finalize_answers(plan, ra_result)?;
    Ok((answers, 0.0))
}

/// Restricts an indexed RA tree to the present leaves; `None` when nothing of
/// the subtree's answer-bearing structure survives.
fn prune_indexed(node: &IndexedRa, present: &[bool]) -> Option<IndexedRa> {
    match node {
        IndexedRa::Leaf(i) => present[*i].then_some(IndexedRa::Leaf(*i)),
        IndexedRa::Union(l, r) => match (prune_indexed(l, present), prune_indexed(r, present)) {
            (Some(a), Some(b)) => Some(IndexedRa::Union(Box::new(a), Box::new(b))),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        },
        IndexedRa::Difference(l, r) => {
            let left = prune_indexed(l, present)?;
            match prune_indexed(r, present) {
                Some(b) => Some(IndexedRa::Difference(Box::new(left), Box::new(b))),
                // lost subtrahend: keep the positive side; the extra tuples it
                // may retain are covered by the partial answer's η = 0
                None => Some(left),
            }
        }
    }
}

/// Rewrites leaf indices of a pruned tree through `remap`.
fn remap_indexed(node: &IndexedRa, remap: &[usize]) -> IndexedRa {
    match node {
        IndexedRa::Leaf(i) => IndexedRa::Leaf(remap[*i]),
        IndexedRa::Union(l, r) => IndexedRa::Union(
            Box::new(remap_indexed(l, remap)),
            Box::new(remap_indexed(r, remap)),
        ),
        IndexedRa::Difference(l, r) => IndexedRa::Difference(
            Box::new(remap_indexed(l, remap)),
            Box::new(remap_indexed(r, remap)),
        ),
    }
}

/// Executes `plan` against `catalog` under `options`, threading a resumable
/// [`ExecState`] through the fetch and leaf-evaluation phases: fragments and
/// leaf results already in the state are reused (and billed against the
/// budget exactly like fresh fetches), new ones are recorded into it for the
/// next step of a refinement session.
///
/// The state must only carry over between plans **for the same query against
/// the same catalog snapshot** (an [`AnswerSession`](crate::AnswerSession)
/// guarantees this); under that contract the outcome — answers, η, float
/// aggregate sums and the `accessed` accounting — is bit-for-bit identical to
/// a fresh execution. A one-shot execution passes [`ExecState::new`].
pub fn execute_plan_with_state(
    plan: &BoundedPlan,
    catalog: &Catalog,
    options: ExecOptions,
    state: &mut ExecState,
) -> Result<ExecutionOutcome> {
    let budget = options.budget;
    let mut session = FetchSession::new(catalog, budget);

    // phase 1: stream every fragment of ξ_F from the local catalog
    let fragments = stream_plan_fragments(plan, &mut session, state)?;

    // phase 2: canonical per-leaf results
    let mut leaves: Vec<LeafEval> = Vec::with_capacity(plan.leaves.len());
    for i in 0..plan.leaves.len() {
        leaves.push(evaluate_plan_leaf(
            i, plan, catalog, &fragments, &options, state,
        )?);
    }

    // phase 3: RA composition, d' correction, aggregation
    let (answers, eta) = compose_plan_answer(plan, catalog, &leaves)?;

    Ok(ExecutionOutcome {
        answers,
        eta,
        accessed: session.accessed(),
        fetches: session.counter().fetches,
    })
}

// --------------------------------------------------------------------------
// leaf evaluation
// --------------------------------------------------------------------------

/// Evaluates one SPC leaf over its fetched atom relations, applying the
/// targeted relaxation of selection conditions (Sec. 5, "Evaluation plan ξ_E")
/// — across [`ExecOptions::threads`] row shards of the largest atom relation
/// when the input is big enough (see the module docs).
#[allow(clippy::too_many_arguments)]
fn evaluate_leaf(
    leaf: &SpcQuery,
    leaf_plan: &LeafPlan,
    plan: &BoundedPlan,
    catalog: &Catalog,
    fragments: &PlanFragments,
    want_weights: bool,
    options: &ExecOptions,
) -> Result<Relation> {
    let schema = &catalog.schema;
    let res = |pos: beas_relal::Position| -> Result<f64> {
        leaf_plan.position_resolution(&plan.fetch, catalog, schema, leaf, pos)
    };

    // overlay of fetched atom relations
    let mut overlay: HashMap<String, Relation> = HashMap::new();
    let mut expr: Option<RaExpr> = None;
    for (ai, atom) in leaf.atoms.iter().enumerate() {
        let node_id = leaf_plan.atom_nodes[ai];
        let mut rel = Relation::clone(fragments.require_output(node_id)?);
        // pre-qualify with the atom alias so the evaluator's scans borrow the
        // overlay relation instead of re-copying it per evaluation
        beas_relal::qualify_relation(&mut rel, &atom.alias);
        let name = format!("__atom_{}_{}", leaf_plan.leaf, ai);
        overlay.insert(name.clone(), rel);
        let scan = RaExpr::scan(name, atom.alias.clone());
        expr = Some(match expr {
            None => scan,
            Some(e) => e.product(scan),
        });
    }
    let mut expr = expr.ok_or_else(|| BeasError::Planning("leaf without atoms".to_string()))?;

    // relaxed selection conditions
    let mut atoms_pred: Vec<PredicateAtom> = Vec::new();
    for (ai, terms) in leaf.terms.iter().enumerate() {
        for (pi, term) in terms.iter().enumerate() {
            if let beas_relal::Term::Const(v) = term {
                let col = leaf.position_column_named(schema, (ai, pi))?;
                let dk = leaf.position_distance(schema, (ai, pi))?;
                atoms_pred.push(PredicateAtom::ColConst {
                    col,
                    op: CompareOp::Eq,
                    value: v.clone(),
                    distance: dk,
                    tol: res((ai, pi))?,
                });
            }
        }
    }
    for positions in leaf.var_positions().values() {
        if positions.len() > 1 {
            let first_col = leaf.position_column_named(schema, positions[0])?;
            let dk = leaf.position_distance(schema, positions[0])?;
            let first_res = res(positions[0])?;
            for &p in &positions[1..] {
                atoms_pred.push(PredicateAtom::ColCol {
                    left: first_col.clone(),
                    op: CompareOp::Eq,
                    right: leaf.position_column_named(schema, p)?,
                    distance: dk,
                    tol: first_res + res(p)?,
                });
            }
        }
    }
    for sel in &leaf.selections {
        match sel {
            SelCond::VarConst { var, op, value } => {
                let pos = leaf
                    .var_first_position(*var)
                    .ok_or_else(|| BeasError::Planning(format!("unbound variable {var}")))?;
                atoms_pred.push(PredicateAtom::ColConst {
                    col: leaf.position_column_named(schema, pos)?,
                    op: *op,
                    value: value.clone(),
                    distance: leaf.position_distance(schema, pos)?,
                    tol: res(pos)?,
                });
            }
            SelCond::VarVar { left, op, right } => {
                let lpos = leaf
                    .var_first_position(*left)
                    .ok_or_else(|| BeasError::Planning(format!("unbound variable {left}")))?;
                let rpos = leaf
                    .var_first_position(*right)
                    .ok_or_else(|| BeasError::Planning(format!("unbound variable {right}")))?;
                atoms_pred.push(PredicateAtom::ColCol {
                    left: leaf.position_column_named(schema, lpos)?,
                    op: *op,
                    right: leaf.position_column_named(schema, rpos)?,
                    distance: leaf.position_distance(schema, lpos)?,
                    tol: res(lpos)? + res(rpos)?,
                });
            }
        }
    }
    if !atoms_pred.is_empty() {
        expr = expr.select(Predicate::all(atoms_pred));
    }

    // projection: output columns (+ per-atom weights when aggregating)
    let mut proj: Vec<(String, String)> = Vec::new();
    for out in &leaf.output {
        let pos = leaf
            .var_first_position(out.var)
            .ok_or_else(|| BeasError::Planning(format!("unbound output variable {}", out.var)))?;
        proj.push((out.name.clone(), leaf.position_column_named(schema, pos)?));
    }
    if want_weights {
        for (ai, atom) in leaf.atoms.iter().enumerate() {
            proj.push((
                format!("__w{ai}"),
                format!("{}.{}", atom.alias, WEIGHT_COLUMN),
            ));
        }
    }
    let expr = expr.project(proj);

    let rel = eval_leaf_expr(&expr, &mut overlay, want_weights, options)?;
    if want_weights {
        Ok(combine_weights(rel, leaf.output.len()))
    } else {
        Ok(rel)
    }
}

/// Evaluates a leaf expression over its fetched overlay, sharding the largest
/// atom relation across [`ExecOptions::threads`] scoped threads when it is
/// big enough. The overlay is mutable so the shard target's columns can be
/// *moved* into the shards: each shard takes a contiguous range of every
/// typed column vector (string dictionaries are `Arc`-shared, not copied).
fn eval_leaf_expr(
    expr: &RaExpr,
    overlay: &mut HashMap<String, Relation>,
    want_weights: bool,
    options: &ExecOptions,
) -> Result<Relation> {
    // the shard target: the atom relation with the most rows
    let shard_target = overlay
        .iter()
        .max_by(|a, b| a.1.len().cmp(&b.1.len()).then(a.0.cmp(b.0)))
        .map(|(name, rel)| (name.clone(), rel.len()));
    let (shard_name, rows) = match shard_target {
        Some((name, rows)) => (name, rows),
        None => return eval_any(expr, &*overlay, want_weights),
    };
    let threads = options
        .threads
        .max(1)
        .min(rows / options.min_shard_rows.max(1) + 1);
    if threads <= 1 || rows < 2 {
        return eval_any(expr, &*overlay, want_weights);
    }

    // move the target out of the overlay and split it per column, range by
    // range; the shard provider serves the ranges back under the same name
    let mut remaining = overlay
        .remove(&shard_name)
        .expect("shard target chosen from the overlay");
    // align shard boundaries to the kernel mask-word stride so every shard
    // but the last evaluates full 64-row mask words (answers are identical
    // for any split; alignment only avoids partial-word tails mid-relation)
    let chunk_size = rows
        .div_ceil(threads)
        .next_multiple_of(beas_relal::kernel::MASK_CHUNK);
    debug_assert_eq!(
        chunk_size % beas_relal::kernel::LANE_WIDTH,
        0,
        "shard stride must be divisible by the kernel lane width"
    );
    let mut shards: Vec<Relation> = Vec::with_capacity(threads);
    while !remaining.is_empty() {
        let rest = remaining.split_off(remaining.len().min(chunk_size));
        shards.push(std::mem::replace(&mut remaining, rest));
    }
    let overlay = &*overlay;

    let results: Vec<Result<Relation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let shard_name = shard_name.as_str();
                scope.spawn(move || {
                    let provider = ShardProvider {
                        base: overlay,
                        name: shard_name,
                        shard,
                    };
                    eval_any(expr, &provider, want_weights)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard evaluation panicked"))
            .collect()
    });

    // deterministic merge: concatenate in shard order (the hot path asserts
    // shape compatibility in debug builds only), then canonicalise the set
    // path so the result equals the unsharded evaluation exactly
    let mut merged: Option<Relation> = None;
    for result in results {
        let shard_rel = result?;
        match &mut merged {
            None => merged = Some(shard_rel),
            Some(acc) => acc.append(shard_rel),
        }
    }
    let mut merged = merged.expect("at least one shard");
    if !want_weights {
        merged.dedup();
    }
    Ok(merged)
}

/// Bag/set dispatch shared by the sharded and unsharded paths.
fn eval_any<P: beas_relal::RelationProvider>(
    expr: &RaExpr,
    provider: &P,
    bag: bool,
) -> Result<Relation> {
    if bag {
        Ok(eval_bag(expr, provider)?)
    } else {
        Ok(eval_set(expr, provider)?)
    }
}

/// A provider that serves one atom's rows from a shard and everything else
/// from the shared overlay.
struct ShardProvider<'a> {
    base: &'a HashMap<String, Relation>,
    name: &'a str,
    shard: Relation,
}

impl beas_relal::RelationProvider for ShardProvider<'_> {
    fn provide(&self, name: &str) -> Option<&Relation> {
        if name == self.name {
            Some(&self.shard)
        } else {
            self.base.get(name)
        }
    }
}

/// Replaces the per-atom weight columns by a single combined weight column
/// (the product of the per-atom representative counts). Columnar: the output
/// columns are moved over unchanged and the combined weights are computed
/// into one fresh `f64` column.
fn combine_weights(rel: Relation, output_cols: usize) -> Relation {
    let n = rel.len();
    let mut weights: Vec<f64> = Vec::with_capacity(n);
    for i in 0..n {
        weights.push(
            rel.cols()[output_cols..]
                .iter()
                .map(|c| c.f64_at(i).unwrap_or(1.0).max(0.0))
                .product(),
        );
    }
    let (names, cols) = rel.into_parts();
    let out_names: Vec<String> = names[..output_cols]
        .iter()
        .cloned()
        .chain(std::iter::once(WEIGHT_COLUMN.to_string()))
        .collect();
    let mut out_cols: Vec<beas_relal::Column> = cols.into_iter().take(output_cols).collect();
    out_cols.push(beas_relal::Column::Float(weights));
    Relation::from_columns(out_names, out_cols).expect("weight column matches row count")
}

/// The resolution of each output column of a leaf under the plan.
fn output_resolutions(
    leaf: &SpcQuery,
    leaf_plan: &LeafPlan,
    plan: &BoundedPlan,
    catalog: &Catalog,
) -> Result<Vec<f64>> {
    let schema = &catalog.schema;
    leaf.output
        .iter()
        .map(|out| {
            let pos = leaf
                .var_first_position(out.var)
                .ok_or_else(|| BeasError::Planning(format!("unbound output var {}", out.var)))?;
            leaf_plan.position_resolution(&plan.fetch, catalog, schema, leaf, pos)
        })
        .collect()
}

/// `true` when every needed position of the leaf is fetched exactly.
fn leaf_is_exact(
    leaf: &SpcQuery,
    leaf_plan: &LeafPlan,
    plan: &BoundedPlan,
    catalog: &Catalog,
) -> Result<bool> {
    let schema = &catalog.schema;
    let needed = crate::plan::needed_positions(leaf);
    for (ai, positions) in needed.iter().enumerate() {
        for &pi in positions {
            let r = leaf_plan.position_resolution(&plan.fetch, catalog, schema, leaf, (ai, pi))?;
            if r > 0.0 {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

// --------------------------------------------------------------------------
// RA composition
// --------------------------------------------------------------------------

/// An [`RaQuery`] with its SPC leaves replaced by their global index.
#[derive(Debug, Clone)]
enum IndexedRa {
    Leaf(usize),
    Union(Box<IndexedRa>, Box<IndexedRa>),
    Difference(Box<IndexedRa>, Box<IndexedRa>),
}

fn index_leaves(ra: &RaQuery, next: &mut usize) -> IndexedRa {
    match ra {
        RaQuery::Spc(_) => {
            let i = *next;
            *next += 1;
            IndexedRa::Leaf(i)
        }
        RaQuery::Union(l, r) => {
            let li = index_leaves(l, next);
            let ri = index_leaves(r, next);
            IndexedRa::Union(Box::new(li), Box::new(ri))
        }
        RaQuery::Difference(l, r) => {
            let li = index_leaves(l, next);
            let ri = index_leaves(r, next);
            IndexedRa::Difference(Box::new(li), Box::new(ri))
        }
    }
}

/// Evaluates the indexed RA tree over the per-leaf results.
fn exec_indexed(
    node: &IndexedRa,
    leaves: &[LeafEval],
    kinds: &[beas_relal::DistanceKind],
    want_weights: bool,
    ncols: usize,
) -> Result<Relation> {
    match node {
        IndexedRa::Leaf(i) => Ok(Relation::clone(&leaves[*i].rel)),
        IndexedRa::Union(l, r) => {
            let mut a = exec_indexed(l, leaves, kinds, want_weights, ncols)?;
            let b = exec_indexed(r, leaves, kinds, want_weights, ncols)?;
            a.append(b);
            if !want_weights {
                a.dedup();
            }
            Ok(a)
        }
        IndexedRa::Difference(l, r) => {
            let a = exec_indexed(l, leaves, kinds, want_weights, ncols)?;
            let right_exact = subtree_leaves(r).iter().all(|&i| leaves[i].exact);
            if right_exact {
                // exact set difference on the output columns
                let b = exec_indexed(r, leaves, kinds, false, ncols)?;
                let bcols = ncols.min(b.arity());
                let remove: std::collections::HashSet<Vec<Value>> = (0..b.len())
                    .map(|i| (0..bcols).map(|j| b.value_at(i, j)).collect())
                    .collect();
                let acols = ncols.min(a.arity());
                let keep: Vec<usize> = (0..a.len())
                    .filter(|&i| {
                        let prefix: Vec<Value> = (0..acols).map(|j| a.value_at(i, j)).collect();
                        !remove.contains(&prefix)
                    })
                    .collect();
                Ok(a.take_rows(&keep))
            } else {
                // dangerous-distance exclusion (Sec. 6): drop answers of the
                // positive side that are within the combined resolution of an
                // answer to the maximal induced negated query
                let induced = induce(r);
                let b_hat = exec_indexed(&induced, leaves, kinds, false, ncols)?;
                let delta = dangerous_distances(l, r, leaves, ncols);
                let neg_rows = b_hat.to_rows();
                let keep: Vec<usize> = (0..a.len())
                    .filter(|&i| {
                        let row: Vec<Value> = (0..ncols).map(|j| a.value_at(i, j)).collect();
                        !neg_rows.iter().any(|neg| {
                            (0..ncols)
                                .all(|j| kinds[j].distance(&row[j], &neg[j]) <= delta[j] + 1e-12)
                        })
                    })
                    .collect();
                Ok(a.take_rows(&keep))
            }
        }
    }
}

/// The maximal induced query of an indexed subtree (drop negated parts).
fn induce(node: &IndexedRa) -> IndexedRa {
    match node {
        IndexedRa::Leaf(i) => IndexedRa::Leaf(*i),
        IndexedRa::Union(l, r) => IndexedRa::Union(Box::new(induce(l)), Box::new(induce(r))),
        IndexedRa::Difference(l, _) => induce(l),
    }
}

/// All leaf indices of an indexed subtree.
fn subtree_leaves(node: &IndexedRa) -> Vec<usize> {
    match node {
        IndexedRa::Leaf(i) => vec![*i],
        IndexedRa::Union(l, r) | IndexedRa::Difference(l, r) => {
            let mut v = subtree_leaves(l);
            v.extend(subtree_leaves(r));
            v
        }
    }
}

/// Per-output-column dangerous distance δ(A): the combined worst resolution of
/// the positive side and of the (induced) negated side.
fn dangerous_distances(
    left: &IndexedRa,
    right: &IndexedRa,
    leaves: &[LeafEval],
    ncols: usize,
) -> Vec<f64> {
    let mut delta = vec![0.0f64; ncols];
    for &i in &subtree_leaves(left) {
        for (j, d) in delta.iter_mut().enumerate() {
            *d = d.max(leaves[i].out_res.get(j).copied().unwrap_or(0.0));
        }
    }
    let mut right_part = vec![0.0f64; ncols];
    for &i in &subtree_leaves(&induce(right)) {
        for (j, r) in right_part.iter_mut().enumerate() {
            *r = r.max(leaves[i].out_res.get(j).copied().unwrap_or(0.0));
        }
    }
    for (d, r) in delta.iter_mut().zip(&right_part) {
        *d += r;
    }
    delta
}

/// `max_{t ∈ from} min_{s ∈ to} d(s, t)` on the first `ncols` columns.
fn max_min_distance(
    from: &Relation,
    to: &Relation,
    kinds: &[beas_relal::DistanceKind],
    ncols: usize,
) -> f64 {
    if from.is_empty() {
        return 0.0;
    }
    if to.is_empty() {
        return f64::INFINITY;
    }
    let to_rows = to.to_rows();
    let mut worst: f64 = 0.0;
    for t in from.rows() {
        let best = to_rows
            .iter()
            .map(|s| {
                (0..ncols)
                    .map(|j| kinds[j].distance(&s[j], &t[j]))
                    .fold(0.0f64, f64::max)
            })
            .fold(f64::INFINITY, f64::min);
        worst = worst.max(best);
    }
    worst
}

/// Keeps only the first `ncols` columns of a relation — a columnar prefix
/// selection (whole column clones, no per-row copying).
fn project_outputs(rel: &Relation, ncols: usize) -> Relation {
    let n = ncols.min(rel.arity());
    let idx: Vec<usize> = (0..n).collect();
    rel.select_columns(&idx, rel.columns[..n].to_vec())
}

/// Whether the indexed tree contains a difference whose negated side was
/// fetched approximately (requiring the `d'` correction of Fig. 5).
fn has_approx_difference(node: &IndexedRa, leaves: &[LeafEval]) -> bool {
    match node {
        IndexedRa::Leaf(_) => false,
        IndexedRa::Union(l, r) => {
            has_approx_difference(l, leaves) || has_approx_difference(r, leaves)
        }
        IndexedRa::Difference(l, r) => {
            let right_approx = subtree_leaves(r).iter().any(|&i| !leaves[i].exact);
            right_approx || has_approx_difference(l, leaves) || has_approx_difference(r, leaves)
        }
    }
}
