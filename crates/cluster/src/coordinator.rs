//! The cluster coordinator: query-facing API, catalog assembly, and the
//! scatter-gather driver.
//!
//! [`ClusterBuilder::build`] partitions the database round-robin by relation,
//! builds one full [`Beas`] engine per shard over its partition (offline
//! component C1 runs where the data is), then assembles the **cluster
//! catalog**: the shards' template families, `Arc`-shared, re-registered in
//! the exact order a single node building over the whole database would
//! produce — `A_t` families in schema order, then each constraint's families
//! in registration order. Planning over that catalog is therefore
//! *identical* to single-node planning, which is what makes shard-side
//! self-planning (no plan serialization) and bit-for-bit answer equality
//! possible.
//!
//! [`ClusterHandle::answer`] then drives one scatter-gather execution:
//! budget split (tariff floor + largest-remainder slack, see
//! [`crate::budget`]), per-node fetches routed to the owning shard,
//! shard-local evaluation of single-shard leaves, coordinator-side
//! evaluation of cross-shard leaves over the gathered fragments, and a
//! deterministic merge through the same composition the single-node
//! executor uses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_access::{AtOptions, BudgetPolicy, Catalog};
use beas_core::{
    calibrated_min_shard_rows, compose_plan_answer_partial, evaluate_plan_leaf, node_keys,
    AccuracyTarget, Beas, BeasAnswer, BeasQuery, BoundedPlan, ConstraintSpec, ExecOptions,
    ExecState, ExecutionOutcome, LeafEval, LeafPlan, PlanFragments, Planner, RefinementSchedule,
    ResourceSpec, TargetedAnswer,
};
use beas_relal::{Database, DatabaseSchema};
use beas_serve::{query_from_json, query_to_json, relation_from_json, Json};

use crate::budget::split_budget;
use crate::error::{ClusterError, Result, ShardFailure};
use crate::metrics::{serve_metrics, ClusterMetrics, MetricsServer};
use crate::partition::Partitioning;
use crate::protocol;
use crate::shard::ShardNode;
use crate::transport::{InProcessTransport, ShardTransport};

/// Per-shard-call retry discipline of a coordinator.
///
/// Every protocol call runs under an overall `deadline` (spanning all its
/// attempts); a transient failure ([`ClusterError::is_retryable`]) is retried
/// up to `attempts` times with exponential backoff from `base_backoff` plus
/// **deterministic jitter** — a splitmix64 hash of (session, shard, attempt),
/// so a replayed query jitters identically. A shard answering the
/// [`protocol::NO_SESSION`] code is healed by re-sending the step's `open`
/// (restoring session affinity after an eviction or shard restart) before
/// the call is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per call (≥ 1).
    pub attempts: u32,
    /// First backoff; attempt `n` waits `base_backoff · 2^(n-1)` plus jitter.
    pub base_backoff: Duration,
    /// Overall per-call deadline across all attempts.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// A test-friendly policy: several attempts, no backoff, short deadline.
    pub fn fast() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_millis(500),
        }
    }
}

/// What the coordinator does when a shard exhausts its retry budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Fail the query with the full per-shard context
    /// ([`ClusterError::ShardFailed`]).
    #[default]
    Fail,
    /// Compose an answer from the surviving shards, flagged
    /// `partial: true` with η recomputed from only the merged fragments
    /// (see [`beas_core::compose_plan_answer_partial`]); the lost shard's
    /// budget share is reported unspent in the [`OutageReport`].
    PartialAnswer,
}

/// One shard degraded away during a step: the terminal failure plus what
/// happened to its budget share.
#[derive(Debug, Clone)]
pub struct ShardOutage {
    /// The terminal failure that exhausted the retry budget.
    pub failure: ShardFailure,
    /// The budget share the step had allocated to the shard.
    pub share: usize,
    /// Tuples the shard billed before dying (its last reported accounting).
    pub spent: usize,
}

/// How a `DegradedPolicy::PartialAnswer` step degraded: which shards were
/// lost, which plan pieces went with them, and the budget that went unspent.
#[derive(Debug, Clone, Default)]
pub struct OutageReport {
    /// The shards degraded away, in failure order.
    pub shards: Vec<ShardOutage>,
    /// Fetch-node ids whose fragments were lost (directly or transitively).
    pub lost_nodes: Vec<usize>,
    /// Leaf indices dropped from the composition.
    pub dropped_leaves: Vec<usize>,
    /// Allocated-but-unbilled budget of the lost shards.
    pub unspent_share: usize,
}

/// Builds a cluster: N shard engines over a relation partitioning plus the
/// coordinator handle.
#[derive(Debug)]
pub struct ClusterBuilder {
    db: Database,
    shards: usize,
    constraints: Vec<ConstraintSpec>,
    threads: Option<usize>,
    min_shard_rows: Option<usize>,
    policy: BudgetPolicy,
    options: AtOptions,
    retry: RetryPolicy,
    degraded: DegradedPolicy,
}

impl ClusterBuilder {
    /// A builder over `db` with `shards` shard nodes.
    pub fn new(db: Database, shards: usize) -> Self {
        ClusterBuilder {
            db,
            shards,
            constraints: Vec::new(),
            threads: None,
            min_shard_rows: None,
            policy: BudgetPolicy::default(),
            options: AtOptions::default(),
            retry: RetryPolicy::default(),
            degraded: DegradedPolicy::default(),
        }
    }

    /// Registers an access constraint (owned by the shard owning its
    /// relation).
    pub fn constraint(mut self, spec: ConstraintSpec) -> Self {
        self.constraints.push(spec);
        self
    }

    /// Registers several constraints in order.
    pub fn constraints<I: IntoIterator<Item = ConstraintSpec>>(mut self, specs: I) -> Self {
        self.constraints.extend(specs);
        self
    }

    /// Per-shard execution threads (defaults to available parallelism, like
    /// a single-node engine).
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Minimum sharded-atom size for parallel leaf evaluation (propagated to
    /// every shard so all nodes evaluate identically).
    pub fn min_shard_rows(mut self, rows: usize) -> Self {
        self.min_shard_rows = Some(rows.max(1));
        self
    }

    /// The cluster-wide budget policy.
    pub fn budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Access-template build options (propagated to every shard).
    pub fn at_options(mut self, options: AtOptions) -> Self {
        self.options = options;
        self
    }

    /// The coordinator's per-shard-call retry discipline.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// What to do when a shard exhausts its retry budget (default:
    /// [`DegradedPolicy::Fail`]).
    pub fn degraded_policy(mut self, degraded: DegradedPolicy) -> Self {
        self.degraded = degraded;
        self
    }

    /// Builds the shard engines, assembles the cluster catalog and returns
    /// the coordinator handle (in-process transport).
    pub fn build(self) -> Result<ClusterHandle> {
        let schema = self.db.schema.clone();
        let total_tuples = self.db.total_tuples();
        let partitioning = Partitioning::round_robin(&schema, self.shards)?;
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let min_shard_rows = self
            .min_shard_rows
            .unwrap_or_else(calibrated_min_shard_rows);

        // offline C1, per shard: a full engine over the shard's partition,
        // with the constraints whose relations it owns (registration order
        // preserved within each shard)
        let mut engines: Vec<Beas> = Vec::with_capacity(self.shards);
        let mut partition_sizes: Vec<usize> = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let sub = partitioning.sub_database(&self.db, shard)?;
            partition_sizes.push(sub.total_tuples());
            let mut owned_specs: Vec<ConstraintSpec> = Vec::new();
            for spec in &self.constraints {
                if partitioning.owner_of(&schema, &spec.relation)? == shard {
                    owned_specs.push(spec.clone());
                }
            }
            engines.push(
                Beas::builder(sub)
                    .constraints(owned_specs)
                    .num_threads(threads)
                    .min_shard_rows(min_shard_rows)
                    .budget_policy(self.policy)
                    .at_options(self.options.clone())
                    .build()?,
            );
        }

        // assemble the cluster catalog in canonical single-node order,
        // Arc-sharing each shard's families, and record family ownership
        let shard_catalogs: Vec<Arc<Catalog>> = engines.iter().map(|e| e.catalog()).collect();
        let mut catalog = Catalog::new(schema.clone(), total_tuples);
        catalog.policy = self.policy;
        let mut family_owner: Vec<usize> = Vec::new();
        // A_t families, one per relation in schema order
        for (rel_idx, rel) in schema.relations.iter().enumerate() {
            let shard = partitioning.owner_of_relation(rel_idx)?;
            let fid = shard_catalogs[shard]
                .at_family_for(&rel.name)
                .ok_or_else(|| {
                    ClusterError::Config(format!(
                        "shard {shard} built no A_t family for `{}`",
                        rel.name
                    ))
                })?;
            catalog.add_family_arc(Arc::clone(shard_catalogs[shard].family_arc(fid)?));
            family_owner.push(shard);
        }
        // constraint families in registration order; each shard's catalog
        // lists its spec families after its A_t block, in the same order
        let mut cursors: Vec<usize> = (0..self.shards)
            .map(|s| partitioning.owned_relations(s).len())
            .collect();
        for spec in &self.constraints {
            let shard = partitioning.owner_of(&schema, &spec.relation)?;
            for _ in 0..families_per_spec(&schema, spec)? {
                let fid = cursors[shard];
                cursors[shard] += 1;
                catalog.add_family_arc(Arc::clone(shard_catalogs[shard].family_arc(fid)?));
                family_owner.push(shard);
            }
        }
        debug_assert_eq!(
            catalog.len(),
            shard_catalogs.iter().map(|c| c.len()).sum::<usize>()
        );

        let catalog = Arc::new(catalog);
        let nodes: Vec<Arc<ShardNode>> = engines
            .into_iter()
            .enumerate()
            .map(|(shard, engine)| {
                let owned: Vec<bool> = family_owner.iter().map(|&o| o == shard).collect();
                Arc::new(ShardNode::new(shard, engine, Arc::clone(&catalog), owned))
            })
            .collect();
        let metrics = Arc::new(ClusterMetrics::new(self.shards));
        // storage sampler: sum the shard engines' storage-tier counters so
        // `GET /metrics` shows cluster-wide WAL/snapshot/page-in activity
        // (all zero until shards run on durable stores)
        let storage_nodes = nodes.clone();
        metrics.set_storage_provider(move || {
            let mut total = crate::metrics::StorageCounters::default();
            for node in &storage_nodes {
                let stats = node.engine().stats();
                total.segments_written += stats.segments_written;
                total.segments_loaded += stats.segments_loaded;
                total.wal_bytes += stats.wal_bytes;
                total.replayed_batches += stats.replayed_batches;
                total.page_ins += stats.page_ins;
            }
            total
        });
        let transport: Arc<dyn ShardTransport> = Arc::new(InProcessTransport::new(nodes.clone()));
        Ok(ClusterHandle {
            catalog,
            nodes,
            transport,
            family_owner,
            partition_sizes,
            threads,
            min_shard_rows,
            metrics,
            retry: self.retry,
            degraded: self.degraded,
            next_session: AtomicU64::new(1),
        })
    }
}

/// Number of families `BeasBuilder::build` derives from one constraint spec:
/// the constraint itself, plus (when extending) the multi-resolution
/// template on `X → Y` and — if attributes remain — the derived template on
/// `X ∪ Y → rest`.
fn families_per_spec(schema: &DatabaseSchema, spec: &ConstraintSpec) -> Result<usize> {
    if !spec.extend {
        return Ok(1);
    }
    let rel = schema
        .relation(&spec.relation)
        .map_err(beas_core::BeasError::from)?;
    let rest = rel
        .attr_names()
        .into_iter()
        .any(|a| !spec.x.contains(&a) && !spec.y.contains(&a));
    Ok(if rest { 3 } else { 2 })
}

/// The accounting block of an `open` or `fetch` response (see
/// [`crate::protocol`]): the coordinator keeps the latest per shard, which is
/// the shard's exact step accounting whether or not it lives to the end of
/// the step — billing only changes on `fetch`.
fn step_accounting_of(response: &Json) -> Result<StepStats> {
    Ok(StepStats {
        accessed: protocol::req_usize(response, "billed")?,
        fetches: protocol::req_usize(response, "fetches")?,
        fetched_cum: protocol::req_usize(response, "fetched_tuples")?,
        reused_cum: protocol::req_usize(response, "reused_tuples")?,
    })
}

/// The splitmix64 mixer — the retry driver's deterministic jitter source.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This step's accounting, gathered from the shards.
#[derive(Debug, Clone, Copy, Default)]
struct StepStats {
    /// Tuples billed against this step's shares (fresh + reused).
    accessed: usize,
    /// Fetch operations executed this step.
    fetches: usize,
    /// Cumulative tuples materialized by the shards' session states.
    fetched_cum: usize,
    /// Cumulative tuples served from the shards' session states.
    reused_cum: usize,
}

/// The query-facing handle of a cluster: scatter-gather answering with the
/// single-node answer contract (see the crate docs for the determinism
/// guarantee).
pub struct ClusterHandle {
    catalog: Arc<Catalog>,
    nodes: Vec<Arc<ShardNode>>,
    transport: Arc<dyn ShardTransport>,
    /// Cluster family id → owning shard.
    family_owner: Vec<usize>,
    /// Per-shard partition tuple counts (the slack-split weights).
    partition_sizes: Vec<usize>,
    threads: usize,
    min_shard_rows: usize,
    metrics: Arc<ClusterMetrics>,
    retry: RetryPolicy,
    degraded: DegradedPolicy,
    next_session: AtomicU64,
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("shards", &self.nodes.len())
            .field("catalog_families", &self.catalog.len())
            .field("partition_sizes", &self.partition_sizes)
            .finish()
    }
}

impl ClusterHandle {
    /// Starts a cluster builder (round-robin relation partitioning over
    /// `shards` nodes).
    pub fn builder(db: Database, shards: usize) -> ClusterBuilder {
        ClusterBuilder::new(db, shards)
    }

    /// Number of shard nodes.
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// The shard nodes (in-process handles).
    pub fn nodes(&self) -> &[Arc<ShardNode>] {
        &self.nodes
    }

    /// The assembled cluster catalog (identical planning surface to a single
    /// node over the whole database).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The cluster schema.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.catalog.schema
    }

    /// Per-shard partition sizes (tuples).
    pub fn partition_sizes(&self) -> &[usize] {
        &self.partition_sizes
    }

    /// Coordinator metrics (per-shard allocation/latency, merge time).
    pub fn metrics(&self) -> &Arc<ClusterMetrics> {
        &self.metrics
    }

    /// Serves [`ClusterMetrics`] under `GET /metrics` on `bind`.
    pub fn serve_metrics(&self, bind: &str) -> Result<MetricsServer> {
        serve_metrics(Arc::clone(&self.metrics), bind)
    }

    /// Swaps the shard transport — e.g. from the in-process default to a
    /// [`TcpShardTransport`](crate::tcp::TcpShardTransport) once the shard
    /// nodes are served over sockets, or to a
    /// [`FaultInjectingTransport`](crate::transport::FaultInjectingTransport)
    /// for chaos runs. The protocol bytes are identical either way.
    pub fn set_transport(&mut self, transport: Arc<dyn ShardTransport>) {
        self.transport = transport;
    }

    /// The current shard transport.
    pub fn transport(&self) -> &Arc<dyn ShardTransport> {
        &self.transport
    }

    /// Replaces the per-shard-call retry discipline.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Replaces the degradation policy.
    pub fn set_degraded_policy(&mut self, degraded: DegradedPolicy) {
        self.degraded = degraded;
    }

    /// Answers `query` under `spec` with one scatter-gather execution.
    ///
    /// Bit-for-bit equal — relation, η, `accessed`, the lot — to
    /// [`Beas::answer`] on a single node holding the whole database, at the
    /// same total budget.
    pub fn answer(&self, query: &BeasQuery, spec: ResourceSpec) -> Result<BeasAnswer> {
        self.answer_with_report(query, spec)
            .map(|(answer, _)| answer)
    }

    /// Like [`ClusterHandle::answer`], also returning how the step degraded
    /// (`None` for a healthy, non-partial answer). Under
    /// [`DegradedPolicy::PartialAnswer`] a dead shard yields
    /// `answer.partial == true` plus an [`OutageReport`]; under
    /// [`DegradedPolicy::Fail`] it yields [`ClusterError::ShardFailed`].
    pub fn answer_with_report(
        &self,
        query: &BeasQuery,
        spec: ResourceSpec,
    ) -> Result<(BeasAnswer, Option<OutageReport>)> {
        let (qjson, normalized) = self.normalize(query)?;
        let budget = self.catalog.budget(&spec)?;
        if budget == 0 {
            // zero budget: no plan may access any tuple — the canonical
            // empty answer, exactly like a single node
            return Ok((BeasAnswer::empty(normalized.output_columns()), None));
        }
        let plan = Planner::new(&self.catalog).plan_with_budget(&normalized, budget)?;
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let mut state = ExecState::new();
        let result = self.run_step(session, &qjson, &plan, &mut state);
        self.close_all(session);
        let (answer, _, outage) = result?;
        Ok((answer, outage))
    }

    /// Answers `query` at an accuracy target, distributed: the coordinator
    /// searches the budget once over the cluster catalog
    /// ([`Planner::plan_for_target`], the single node's search on the same
    /// planning surface) and splits it across the shards exactly like a
    /// budget-denominated [`ClusterHandle::answer`]. A set difference whose
    /// executed η still falls short doubles its budget and re-runs in the
    /// same shard sessions (re-using fetched fragments), up to
    /// `target.max_budget`; an answer that misses the target there comes
    /// back [`TargetedAnswer::feasible`]` == false`. Bit-for-bit what
    /// [`Beas::answer_with_target`] returns on one node.
    pub fn answer_with_target(
        &self,
        query: &BeasQuery,
        target: &AccuracyTarget,
    ) -> Result<TargetedAnswer> {
        target
            .validate()
            .map_err(beas_core::BeasError::Access)
            .map_err(ClusterError::from)?;
        let (qjson, normalized) = self.normalize(query)?;
        let max_budget = self.catalog.budget(&target.max_budget)?;
        if max_budget == 0 {
            return Err(ClusterError::Config(format!(
                "accuracy target budget cap `{}` resolves to a zero budget",
                target.max_budget
            )));
        }
        let planner = Planner::new(&self.catalog);
        let (first, _) = planner.plan_for_target(&normalized, target.eta, max_budget)?;
        let predicted_budget = first.budget;

        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let mut state = ExecState::new();
        let mut plan = first;
        let mut escalations = 0usize;
        let mut spent = 0usize;
        let result: Result<BeasAnswer> = (|| loop {
            let (answer, stats, _) = self.run_step(session, &qjson, &plan, &mut state)?;
            // shards bill only freshly fetched tuples across the escalation
            // chain, so the cumulative materialized count is the true spend
            spent = stats.fetched_cum;
            if answer.eta >= target.eta || plan.budget >= max_budget {
                return Ok(answer);
            }
            escalations += 1;
            let budget = plan.budget.saturating_mul(2).min(max_budget);
            plan = planner.plan_with_budget(&normalized, budget)?;
        })();
        self.close_all(session);
        let answer = result?;
        Ok(TargetedAnswer {
            spec: ResourceSpec::Tuples(answer.budget),
            feasible: answer.eta >= target.eta,
            answer,
            target: *target,
            predicted_budget,
            spent,
            escalations,
        })
    }

    /// Opens a progressive refinement session over `schedule`: each step
    /// answers at the next budget, reusing fragments fetched by earlier
    /// steps on every shard — the distributed counterpart of
    /// [`beas_core::AnswerSession`]. The trajectory is
    /// [`RefinementSchedule::resolve`]d against the cluster catalog, so
    /// fixed and accuracy-goal schedules run the single node's steps.
    pub fn session(
        &self,
        query: &BeasQuery,
        schedule: RefinementSchedule,
    ) -> Result<ClusterSession<'_>> {
        let (qjson, normalized) = self.normalize(query)?;
        let steps = schedule.resolve(&self.catalog, &normalized)?;
        Ok(ClusterSession {
            handle: self,
            qjson,
            query: normalized,
            steps,
            state: ExecState::new(),
            session: self.next_session.fetch_add(1, Ordering::Relaxed),
            next: 0,
            last_reused_cum: 0,
        })
    }

    /// Canonicalises a query by a round-trip through the wire encoding: the
    /// form the coordinator plans is byte-identical to the form every shard
    /// decodes, so self-planned shard plans can never diverge on query
    /// representation.
    fn normalize(&self, query: &BeasQuery) -> Result<(Json, BeasQuery)> {
        let qjson = query_to_json(query, &self.catalog.schema)?;
        let normalized = query_from_json(&qjson, &self.catalog.schema)?;
        normalized
            .validate(&self.catalog.schema)
            .map_err(ClusterError::from)?;
        Ok((qjson, normalized))
    }

    /// One scatter-gather execution of `plan` under session `session`,
    /// degrading around dead shards when the policy allows (see
    /// [`DegradedPolicy`]): a shard that exhausts its retry budget takes its
    /// unfetched fragments — and every fetch node and leaf transitively
    /// depending on them — out of the composition. The answer is flagged
    /// `partial` exactly when a fetch node was lost; a shard that dies
    /// *after* serving all its fragments is salvaged bit-for-bit (its leaves
    /// re-evaluated at the coordinator, its accounting taken from its last
    /// `open`/`fetch` response like everyone else's).
    fn run_step(
        &self,
        session: u64,
        qjson: &Json,
        plan: &BoundedPlan,
        state: &mut ExecState,
    ) -> Result<(BeasAnswer, StepStats, Option<OutageReport>)> {
        let split = split_budget(
            plan,
            &self.catalog,
            &self.family_owner,
            &self.partition_sizes,
        )?;
        self.metrics
            .record_allocation(&split.shares, &split.tariffs);

        let shards = self.shards();
        let mut dead: Vec<bool> = vec![false; shards];
        let mut outage = OutageReport::default();
        // each shard's accounting as of its latest `open` or `fetch` response
        let mut last_seen: Vec<StepStats> = vec![StepStats::default(); shards];

        // open every shard: each plans the query for itself and must land on
        // the coordinator's plan (cross-checked by shape)
        let mut opens: Vec<Json> = Vec::with_capacity(shards);
        for (shard, seen) in last_seen.iter_mut().enumerate() {
            let request = protocol::open_request(
                session,
                qjson,
                plan.budget,
                split.shares[shard],
                self.threads,
                self.min_shard_rows,
            );
            match self.call(shard, &request, None) {
                Ok(response) => {
                    *seen = step_accounting_of(&response)?;
                    let tariff = protocol::req_usize(&response, "tariff")?;
                    let nodes = protocol::req_usize(&response, "nodes")?;
                    let leaves = protocol::req_usize(&response, "leaves")?;
                    if tariff != plan.tariff
                        || nodes != plan.fetch.nodes.len()
                        || leaves != plan.leaves.len()
                    {
                        // a divergent plan means the shard cannot serve this
                        // step (stale catalog, version skew): degradable
                        let failure = ShardFailure {
                            shard,
                            op: "open".to_string(),
                            attempts: 1,
                            elapsed: Duration::ZERO,
                            deadline: self.retry.deadline,
                            last_error: format!(
                                "planned divergently: tariff {tariff} vs {}, \
                                 {nodes} nodes vs {}, {leaves} leaves vs {}",
                                plan.tariff,
                                plan.fetch.nodes.len(),
                                plan.leaves.len()
                            ),
                        };
                        self.degrade(
                            ClusterError::ShardFailed(Box::new(failure)),
                            shard,
                            &mut dead,
                            &mut outage,
                        )?;
                    }
                }
                Err(e) => self.degrade(e, shard, &mut dead, &mut outage)?,
            }
            opens.push(request);
        }

        // scatter: stream every fetch node from its owning shard, adopting
        // the returned fragments into the coordinator state (no re-billing —
        // the shard billed its share). A node is lost when its owner is dead
        // or its key-source input was lost; losses propagate down the chain.
        let mut fragments = PlanFragments::for_plan(plan);
        let mut lost: Vec<bool> = vec![false; plan.fetch.nodes.len()];
        for node in &plan.fetch.nodes {
            if node.input_node.is_some_and(|input| lost[input]) {
                lost[node.id] = true;
                continue;
            }
            let owner = self.owner_of_family(node.family)?;
            if dead[owner] {
                lost[node.id] = true;
                continue;
            }
            let keys = node_keys(node, &fragments)?;
            match self.call(
                owner,
                &protocol::fetch_request(session, node.id, &keys),
                Some(&opens[owner]),
            ) {
                Ok(response) => {
                    let rel = Arc::new(relation_from_json(protocol::req_field(
                        &response, "relation",
                    )?)?);
                    last_seen[owner] = step_accounting_of(&response)?;
                    let fragment =
                        state.adopt_fragment(node.family, node.level, keys, Arc::clone(&rel));
                    fragments.set(node.id, fragment, rel);
                }
                Err(e) => {
                    self.degrade(e, owner, &mut dead, &mut outage)?;
                    lost[node.id] = true;
                }
            }
        }

        // gather: leaves whose atoms all live on one shard are evaluated
        // there (canonical leaf result + η contribution over the wire);
        // cross-shard leaves — and leaves whose sole owner died after its
        // fragments were all gathered — are evaluated here over the gathered
        // fragments. A leaf missing any atom fragment is dropped.
        let options = ExecOptions::budgeted(split.resolved)
            .with_threads(self.threads)
            .with_min_shard_rows(self.min_shard_rows);
        let mut leaves: Vec<Option<LeafEval>> = Vec::with_capacity(plan.leaves.len());
        for (index, leaf_plan) in plan.leaves.iter().enumerate() {
            if leaf_plan.atom_nodes.iter().any(|&n| lost[n]) {
                outage.dropped_leaves.push(index);
                leaves.push(None);
                continue;
            }
            let remote = match self.sole_owner(plan, leaf_plan)? {
                Some(shard) if !dead[shard] => {
                    match self.call(
                        shard,
                        &protocol::leaf_request(session, index),
                        Some(&opens[shard]),
                    ) {
                        Ok(response) => {
                            let rel = Arc::new(relation_from_json(protocol::req_field(
                                &response, "relation",
                            )?)?);
                            let out_res = protocol::resolutions_from_json(protocol::req_field(
                                &response, "out_res",
                            )?)?;
                            let exact = protocol::req_field(&response, "exact")?
                                .as_bool()
                                .ok_or_else(|| {
                                    ClusterError::Wire("exact must be a bool".to_string())
                                })?;
                            Some(LeafEval {
                                rel,
                                out_res,
                                exact,
                            })
                        }
                        Err(e) => {
                            // the shard died between fetch and leaf; every
                            // fragment is at the coordinator, so salvage the
                            // leaf locally — still bit-for-bit
                            self.degrade(e, shard, &mut dead, &mut outage)?;
                            None
                        }
                    }
                }
                _ => None,
            };
            leaves.push(Some(match remote {
                Some(leaf) => leaf,
                None => {
                    evaluate_plan_leaf(index, plan, &self.catalog, &fragments, &options, state)?
                }
            }));
        }

        // merge: deterministic composition, same path as a single node; with
        // dropped leaves the pruned composition answers η = 0 (the honest
        // bound with fragments missing)
        let merge_start = Instant::now();
        let (answers, eta) = compose_plan_answer_partial(plan, &self.catalog, &leaves)?;
        self.metrics.record_merge(merge_start.elapsed());

        // accounting: the cluster accessed what its shards billed, as of
        // each shard's last response — no extra round, dead or alive
        let mut stats = StepStats::default();
        for seen in &last_seen {
            stats.accessed += seen.accessed;
            stats.fetches += seen.fetches;
            stats.fetched_cum += seen.fetched_cum;
            stats.reused_cum += seen.reused_cum;
        }

        let partial = lost.iter().any(|&l| l);
        outage.lost_nodes = (0..lost.len()).filter(|&n| lost[n]).collect();
        for entry in &mut outage.shards {
            let s = entry.failure.shard;
            entry.share = split.shares.get(s).copied().unwrap_or(0);
            entry.spent = last_seen[s].accessed;
        }
        outage.unspent_share = outage
            .shards
            .iter()
            .map(|o| o.share.saturating_sub(o.spent))
            .sum();
        if partial {
            self.metrics.record_degraded_answer();
        }
        let outcome = ExecutionOutcome {
            answers,
            eta,
            accessed: stats.accessed,
            fetches: stats.fetches,
        };
        let mut answer = BeasAnswer::from_execution(plan, outcome);
        answer.partial = partial;
        let report = (!outage.shards.is_empty()).then_some(outage);
        Ok((answer, stats, report))
    }

    /// Routes a terminal shard failure by the degradation policy: under
    /// [`DegradedPolicy::PartialAnswer`] the shard is marked dead and the
    /// step continues; anything else propagates. Only
    /// [`ClusterError::ShardFailed`] is degradable — deterministic engine or
    /// protocol errors would fail a single node too and must not be masked.
    fn degrade(
        &self,
        error: ClusterError,
        shard: usize,
        dead: &mut [bool],
        outage: &mut OutageReport,
    ) -> Result<()> {
        match error {
            ClusterError::ShardFailed(failure)
                if self.degraded == DegradedPolicy::PartialAnswer =>
            {
                self.metrics.record_degraded(shard);
                dead[shard] = true;
                outage.shards.push(ShardOutage {
                    failure: *failure,
                    share: 0,
                    spent: 0,
                });
                Ok(())
            }
            other => Err(other),
        }
    }

    /// One protocol exchange with `shard` under the retry policy: timed per
    /// attempt, retried on transient failures with exponential backoff and
    /// deterministic jitter, healed through a `no_session` re-open when
    /// `reopen` carries the step's open request, and `ok`-checked. A
    /// retryable failure that survives every attempt comes back as
    /// [`ClusterError::ShardFailed`] with the full attempt context.
    fn call(&self, shard: usize, request: &Json, reopen: Option<&Json>) -> Result<Json> {
        let policy = self.retry;
        let start = Instant::now();
        let hard_deadline = start + policy.deadline;
        let session = protocol::req_usize(request, "session").unwrap_or(0) as u64;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let attempt_start = Instant::now();
            let result = self
                .transport
                .call_deadline(shard, request, Some(hard_deadline));
            self.metrics
                .record_shard_call(shard, attempt_start.elapsed());
            let error = match result {
                Ok(response) => {
                    if protocol::error_code(&response) == Some(protocol::NO_SESSION) {
                        let Some(reopen) = reopen else {
                            // no way to heal (the open itself): surface the
                            // shard's error as a protocol error
                            protocol::expect_ok(&response)?;
                            return Ok(response);
                        };
                        // the shard lost the session (evicted or restarted):
                        // re-open to restore affinity, then retry the call
                        match self
                            .transport
                            .call_deadline(shard, reopen, Some(hard_deadline))
                            .and_then(|r| protocol::expect_ok(&r).map(|_| ()))
                        {
                            Ok(()) => {
                                if attempt >= policy.attempts || Instant::now() >= hard_deadline {
                                    return Err(self.give_up(
                                        shard,
                                        request,
                                        attempt,
                                        start,
                                        "session re-opened but retry budget exhausted",
                                    ));
                                }
                                self.metrics.record_retry(shard);
                                continue;
                            }
                            Err(e) => e,
                        }
                    } else {
                        protocol::expect_ok(&response)?;
                        return Ok(response);
                    }
                }
                Err(e) => e,
            };
            if matches!(error, ClusterError::Timeout { .. }) {
                self.metrics.record_timeout(shard);
            }
            if !error.is_retryable() {
                return Err(error);
            }
            if attempt >= policy.attempts || Instant::now() >= hard_deadline {
                return Err(self.give_up(shard, request, attempt, start, &error.to_string()));
            }
            self.metrics.record_retry(shard);
            self.backoff(session, shard, attempt);
        }
    }

    /// The terminal [`ClusterError::ShardFailed`] of an exhausted retry loop.
    fn give_up(
        &self,
        shard: usize,
        request: &Json,
        attempts: u32,
        start: Instant,
        last_error: &str,
    ) -> ClusterError {
        ClusterError::ShardFailed(Box::new(ShardFailure {
            shard,
            op: request
                .get("op")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            attempts,
            elapsed: start.elapsed(),
            deadline: self.retry.deadline,
            last_error: last_error.to_string(),
        }))
    }

    /// Sleeps before retry `attempt + 1`: exponential from the policy's base
    /// plus deterministic jitter hashed from (session, shard, attempt).
    fn backoff(&self, session: u64, shard: usize, attempt: u32) {
        let base = self.retry.base_backoff;
        if base.is_zero() {
            return;
        }
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
        let hash = splitmix64(session ^ ((shard as u64) << 32) ^ u64::from(attempt));
        let jitter = Duration::from_nanos(hash % (base.as_nanos().max(1) as u64));
        std::thread::sleep(exp + jitter);
    }

    fn owner_of_family(&self, family: usize) -> Result<usize> {
        self.family_owner
            .get(family)
            .copied()
            .ok_or_else(|| ClusterError::Config(format!("family {family} has no owning shard")))
    }

    /// The single shard owning every atom node of `leaf_plan`, if any.
    fn sole_owner(&self, plan: &BoundedPlan, leaf_plan: &LeafPlan) -> Result<Option<usize>> {
        let mut owner: Option<usize> = None;
        for &node in &leaf_plan.atom_nodes {
            let family = plan.fetch.node(node)?.family;
            let shard = self.owner_of_family(family)?;
            match owner {
                None => owner = Some(shard),
                Some(s) if s == shard => {}
                Some(_) => return Ok(None),
            }
        }
        Ok(owner)
    }

    /// Closes session `session` on every shard, ignoring per-shard errors
    /// (a shard that never opened it answers with a protocol error).
    fn close_all(&self, session: u64) {
        for shard in 0..self.shards() {
            let _ = self
                .transport
                .call(shard, &protocol::stats_request(session, true));
        }
    }
}

/// One step of a [`ClusterSession`]: the answer at this budget plus the
/// session's distributed accounting (mirrors
/// [`beas_core::RefinementStep`]).
#[derive(Debug, Clone)]
pub struct ClusterStep {
    /// The spec this step answered under.
    pub spec: ResourceSpec,
    /// The answer — bit-for-bit what a single-node session step returns.
    pub answer: BeasAnswer,
    /// The accuracy lower bound η of this step.
    pub eta: f64,
    /// The tuple budget this step's plan complied with.
    pub budget: usize,
    /// Cumulative tuples actually materialized across all shards up to and
    /// including this step.
    pub budget_spent: usize,
    /// Tuples this step served from shard session states instead of
    /// re-fetching.
    pub reused_tuples: usize,
    /// This step's position (1-based).
    pub step: usize,
    /// Total steps in the schedule.
    pub steps: usize,
    /// What was lost, when shards were degraded away this step (`None` on a
    /// healthy step).
    pub outage: Option<OutageReport>,
}

/// A progressive refinement session against a cluster: shard `ExecState`s
/// stay open across steps, so refinement reuses fragments where they were
/// fetched. Dropping the session closes it on every shard.
pub struct ClusterSession<'h> {
    handle: &'h ClusterHandle,
    qjson: Json,
    query: BeasQuery,
    steps: Vec<(ResourceSpec, usize)>,
    state: ExecState,
    session: u64,
    next: usize,
    last_reused_cum: usize,
}

impl ClusterSession<'_> {
    /// The resolved `(spec, budget)` trajectory.
    pub fn trajectory(&self) -> &[(ResourceSpec, usize)] {
        &self.steps
    }

    /// Steps remaining.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.next
    }

    /// Runs the next step; `None` when the schedule is exhausted.
    pub fn next_step(&mut self) -> Option<Result<ClusterStep>> {
        if self.next >= self.steps.len() {
            return None;
        }
        let (spec, budget) = self.steps[self.next];
        self.next += 1;
        Some(self.run(spec, budget))
    }

    fn run(&mut self, spec: ResourceSpec, budget: usize) -> Result<ClusterStep> {
        let plan = Planner::new(&self.handle.catalog).plan_with_budget(&self.query, budget)?;
        let (answer, stats, outage) =
            self.handle
                .run_step(self.session, &self.qjson, &plan, &mut self.state)?;
        let reused = stats.reused_cum.saturating_sub(self.last_reused_cum);
        self.last_reused_cum = stats.reused_cum;
        Ok(ClusterStep {
            spec,
            eta: answer.eta,
            budget: answer.budget,
            budget_spent: stats.fetched_cum,
            reused_tuples: reused,
            step: self.next,
            steps: self.steps.len(),
            answer,
            outage,
        })
    }
}

impl Drop for ClusterSession<'_> {
    fn drop(&mut self) {
        self.handle.close_all(self.session);
    }
}

impl std::fmt::Debug for ClusterSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSession")
            .field("session", &self.session)
            .field("steps", &self.steps)
            .field("next", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beas_relal::{
        AggFunc, Attribute, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    /// Three relations so a 3-shard cluster owns one each: people, pois and
    /// visits (the float column carries NaN and ±∞).
    fn demo_db() -> Database {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::new(
                "person",
                vec![Attribute::categorical("city"), Attribute::int("age")],
            ),
            RelationSchema::new(
                "poi",
                vec![Attribute::categorical("city"), Attribute::int("stars")],
            ),
            RelationSchema::new(
                "visit",
                vec![Attribute::categorical("city"), Attribute::double("spend")],
            ),
        ]);
        let cities = ["nyc", "la", "chi", "bos"];
        let mut db = Database::new(schema);
        for i in 0..32i64 {
            db.insert_row(
                "person",
                vec![Value::from(cities[(i % 4) as usize]), Value::Int(20 + i)],
            )
            .unwrap();
        }
        for i in 0..40i64 {
            db.insert_row(
                "poi",
                vec![Value::from(cities[(i % 3) as usize]), Value::Int(i % 5)],
            )
            .unwrap();
        }
        for i in 0..28i64 {
            let spend = match i % 9 {
                7 => f64::NAN,
                8 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                _ => 10.0 + i as f64 * 0.5,
            };
            db.insert_row(
                "visit",
                vec![Value::from(cities[(i % 4) as usize]), Value::Double(spend)],
            )
            .unwrap();
        }
        db
    }

    fn single_atom_query(schema: &DatabaseSchema) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(schema);
        let p = b.atom("poi", "p").unwrap();
        b.bind_const(p, "city", "nyc").unwrap();
        b.output(p, "stars", "stars").unwrap();
        b.build().unwrap().into()
    }

    fn join_query(schema: &DatabaseSchema) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(schema);
        let p = b.atom("person", "p").unwrap();
        let q = b.atom("poi", "q").unwrap();
        b.join((p, "city"), (q, "city")).unwrap();
        b.output(p, "age", "age").unwrap();
        b.output(q, "stars", "stars").unwrap();
        b.build().unwrap().into()
    }

    fn sum_query(schema: &DatabaseSchema) -> BeasQuery {
        let mut b = SpcQueryBuilder::new(schema);
        let v = b.atom("visit", "v").unwrap();
        b.output(v, "city", "city").unwrap();
        b.output(v, "spend", "spend").unwrap();
        let inner = beas_core::RaQuery::Spc(b.build().unwrap());
        beas_core::AggQuery::new(
            inner,
            vec!["city".to_string()],
            AggFunc::Sum,
            "spend",
            "total",
        )
        .unwrap()
        .into()
    }

    fn cluster_and_single(shards: usize) -> (ClusterHandle, Beas) {
        let db = demo_db();
        let spec = ConstraintSpec::new("poi", &["city"], &["stars"]);
        let cluster = ClusterHandle::builder(db.clone(), shards)
            .constraint(spec.clone())
            .num_threads(2)
            .min_shard_rows(2)
            .build()
            .unwrap();
        let single = Beas::builder(db)
            .constraint(spec)
            .num_threads(2)
            .min_shard_rows(2)
            .build()
            .unwrap();
        (cluster, single)
    }

    fn assert_same(a: &BeasAnswer, b: &BeasAnswer) {
        assert_eq!(a.answers.digest(), b.answers.digest());
        assert_eq!(a.eta.to_bits(), b.eta.to_bits());
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.accessed, b.accessed);
        assert_eq!(a.budget, b.budget);
    }

    #[test]
    fn cluster_catalog_mirrors_single_node_layout() {
        let (cluster, single) = cluster_and_single(3);
        assert_eq!(cluster.catalog().len(), single.catalog().len());
        for (c, s) in cluster
            .catalog()
            .families()
            .iter()
            .zip(single.catalog().families().iter())
        {
            assert_eq!(c.relation, s.relation);
            assert_eq!(c.levels.len(), s.levels.len());
        }
    }

    #[test]
    fn shard_local_and_cross_shard_leaves_match_single_node() {
        let (cluster, single) = cluster_and_single(3);
        for query in [
            single_atom_query(cluster.schema()),
            join_query(cluster.schema()),
            sum_query(cluster.schema()),
        ] {
            for spec in [
                ResourceSpec::Tuples(9),
                ResourceSpec::Ratio(0.3),
                ResourceSpec::FULL,
            ] {
                let a = cluster.answer(&query, spec).unwrap();
                let b = single.answer(&query, spec).unwrap();
                assert_same(&a, &b);
            }
        }
        // every shard session was closed again
        for node in cluster.nodes() {
            assert_eq!(node.open_sessions(), 0);
        }
    }

    #[test]
    fn zero_budget_yields_the_canonical_empty_answer() {
        let (cluster, single) = cluster_and_single(2);
        let query = join_query(cluster.schema());
        let a = cluster.answer(&query, ResourceSpec::Tuples(0)).unwrap();
        let b = single.answer(&query, ResourceSpec::Tuples(0)).unwrap();
        assert_eq!(a.answers.digest(), b.answers.digest());
        assert_eq!(a.answers.len(), 0);
        assert_eq!(a.eta.to_bits(), b.eta.to_bits());
        assert_eq!(a.accessed, 0);
    }

    #[test]
    fn cluster_session_mirrors_single_node_refinement() {
        let (cluster, single) = cluster_and_single(3);
        let query = join_query(cluster.schema());
        let schedule = RefinementSchedule::tuples(&[8, 24, 72]).unwrap();
        let mut cs = cluster.session(&query, schedule.clone()).unwrap();
        let prepared = single.prepare(&query).unwrap();
        let mut ss = prepared.session(schedule).unwrap();
        let mut steps = 0;
        while let Some(cstep) = cs.next_step() {
            let cstep = cstep.unwrap();
            let sstep = ss.next_step().unwrap().unwrap();
            assert_eq!(cstep.answer.answers.digest(), sstep.answer.answers.digest());
            assert_eq!(cstep.eta.to_bits(), sstep.eta.to_bits());
            assert_eq!(cstep.budget, sstep.budget);
            assert_eq!(cstep.budget_spent, sstep.budget_spent);
            assert_eq!(cstep.reused_tuples, sstep.reused_tuples);
            assert_eq!((cstep.step, cstep.steps), (sstep.step, sstep.steps));
            steps += 1;
        }
        assert!(ss.next_step().is_none());
        assert!(steps >= 2, "schedule should resolve to multiple steps");
        // later steps must actually have reused earlier fragments somewhere
        drop(cs);
        for node in cluster.nodes() {
            assert_eq!(node.open_sessions(), 0);
        }
    }

    #[test]
    fn shards_refuse_foreign_family_fetches() {
        let (cluster, _) = cluster_and_single(3);
        let query = single_atom_query(cluster.schema());
        let (qjson, normalized) = cluster.normalize(&query).unwrap();
        let budget = cluster.catalog().budget(&ResourceSpec::Ratio(0.3)).unwrap();
        let plan = Planner::new(cluster.catalog())
            .plan_with_budget(&normalized, budget)
            .unwrap();
        let owner = cluster.owner_of_family(plan.fetch.nodes[0].family).unwrap();
        let wrong = (owner + 1) % cluster.shards();
        let wrong_node = &cluster.nodes()[wrong];
        let open = wrong_node.handle(&protocol::open_request(99, &qjson, budget, 10, 1, 2));
        protocol::expect_ok(&open).unwrap();
        let fetch = wrong_node.handle(&protocol::fetch_request(99, plan.fetch.nodes[0].id, &[]));
        let err = protocol::expect_ok(&fetch).unwrap_err();
        assert!(err.to_string().contains("does not own"), "{err}");
    }

    #[test]
    fn metrics_capture_allocation_latency_and_merge() {
        let (cluster, _) = cluster_and_single(3);
        let query = join_query(cluster.schema());
        cluster.answer(&query, ResourceSpec::Ratio(0.4)).unwrap();
        let metrics = cluster.metrics();
        assert_eq!(metrics.queries(), 1);
        let json = metrics.to_json();
        let shards = json.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 3);
        let share_sum: i64 = shards
            .iter()
            .map(|s| s.get("budget_last_share").and_then(Json::as_i64).unwrap())
            .sum();
        let budget = cluster.catalog().budget(&ResourceSpec::Ratio(0.4)).unwrap();
        let plan = Planner::new(cluster.catalog())
            .plan_with_budget(&query, budget)
            .unwrap();
        assert_eq!(share_sum as usize, plan.budget.max(plan.tariff));
        for s in shards {
            assert!(s.get("calls").and_then(Json::as_i64).unwrap() > 0);
        }
        let merge = json.get("merge").unwrap();
        assert_eq!(merge.get("count").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn tiny_shard_with_zero_proportional_share_still_serves_its_levels() {
        // shard 1 owns a 3-row relation next to shard 0's 400-row one: any
        // proportional split of a small budget rounds shard 1's share to
        // zero, so only the tariff floor lets it serve its exact levels
        let schema = DatabaseSchema::new(vec![
            RelationSchema::new(
                "big",
                vec![Attribute::categorical("city"), Attribute::int("v")],
            ),
            RelationSchema::new(
                "tiny",
                vec![Attribute::categorical("city"), Attribute::int("w")],
            ),
        ]);
        let mut db = Database::new(schema);
        for i in 0..400i64 {
            db.insert_row(
                "big",
                vec![Value::from(["a", "b"][(i % 2) as usize]), Value::Int(i)],
            )
            .unwrap();
        }
        for i in 0..3i64 {
            db.insert_row("tiny", vec![Value::from("a"), Value::Int(100 + i)])
                .unwrap();
        }
        let cluster = ClusterHandle::builder(db.clone(), 2).build().unwrap();
        let single = Beas::builder(db).build().unwrap();
        let mut b = SpcQueryBuilder::new(cluster.schema());
        let t = b.atom("tiny", "t").unwrap();
        b.bind_const(t, "city", "a").unwrap();
        b.output(t, "w", "w").unwrap();
        let query: BeasQuery = b.build().unwrap().into();
        let spec = ResourceSpec::Tuples(5);
        let a = cluster.answer(&query, spec).unwrap();
        let b = single.answer(&query, spec).unwrap();
        assert_same(&a, &b);
        assert!(!a.answers.is_empty(), "the tiny shard must have answered");
        // and the recorded split shows the rounding story: the proportional
        // share of shard 1 is 0, its tariff floor is not
        let plan = Planner::new(cluster.catalog())
            .plan_with_budget(&query, 5)
            .unwrap();
        let split = split_budget(
            &plan,
            cluster.catalog(),
            &(0..cluster.catalog().len())
                .map(|f| if cluster.nodes()[1].owns(f) { 1 } else { 0 })
                .collect::<Vec<_>>(),
            cluster.partition_sizes(),
        )
        .unwrap();
        assert!(split.tariffs[1] > 0, "tiny shard's tariff floor: {split:?}");
        assert_eq!(
            split.shares.iter().sum::<usize>(),
            split.resolved,
            "shares must sum to the resolved budget: {split:?}"
        );
        assert!(
            split.shares[1] >= split.tariffs[1],
            "share must never fall below the tariff floor: {split:?}"
        );
    }

    #[test]
    fn builder_rejects_zero_shards_and_session_rejects_zero_budget_steps() {
        let db = demo_db();
        assert!(ClusterHandle::builder(db.clone(), 0).build().is_err());
        let cluster = ClusterHandle::builder(db, 2).build().unwrap();
        let query = single_atom_query(cluster.schema());
        // mixed-unit schedules can resolve to decreasing budgets even though
        // the schedule itself cannot compare them — the session must catch it
        let decreasing =
            RefinementSchedule::from_specs(vec![ResourceSpec::Ratio(0.9), ResourceSpec::Tuples(2)])
                .unwrap();
        let err = cluster.session(&query, decreasing).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("must not decrease"), "{err}");
        // a capped policy can resolve every spec to zero — the session must
        // refuse rather than open shard sessions that may never fetch
        let capped = ClusterHandle::builder(demo_db(), 2)
            .budget_policy(BudgetPolicy::capped(0))
            .build()
            .unwrap();
        let query = single_atom_query(capped.schema());
        let err = capped
            .session(
                &query,
                RefinementSchedule::from_specs(vec![ResourceSpec::Ratio(0.5)]).unwrap(),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("zero budget"), "{err}");
    }

    #[test]
    fn accuracy_targets_and_sessions_match_the_single_node() {
        let (cluster, single) = cluster_and_single(3);
        let key = |t: &TargetedAnswer| {
            (
                t.answer.answers.digest(),
                t.answer.eta.to_bits(),
                t.answer.budget,
                t.answer.accessed,
                t.predicted_budget,
                t.spent,
                t.feasible,
                t.escalations,
            )
        };
        for query in [join_query(cluster.schema()), sum_query(cluster.schema())] {
            for eta in [0.5, 0.9, 1.0] {
                let target = AccuracyTarget::new(eta).unwrap();
                let c = cluster.answer_with_target(&query, &target).unwrap();
                let s = single.answer_with_target(&query, &target).unwrap();
                assert_eq!(key(&c), key(&s), "eta {eta}");
                assert!(!c.feasible || c.answer.eta >= eta);
            }
        }

        // a to_accuracy session resolves to the single node's trajectory and
        // runs the same steps, down to the final one
        let query = join_query(cluster.schema());
        let schedule = RefinementSchedule::to_accuracy(0.9).unwrap();
        let mut cs = cluster.session(&query, schedule.clone()).unwrap();
        let prepared = single.prepare(&query).unwrap();
        let mut ss = prepared.session(schedule).unwrap();
        assert_eq!(cs.trajectory(), ss.trajectory());
        let (mut clast, mut slast) = (None, None);
        while let Some(cstep) = cs.next_step() {
            clast = Some(cstep.unwrap());
            slast = Some(ss.next_step().unwrap().unwrap());
        }
        assert!(ss.next_step().is_none());
        let (clast, slast) = (clast.unwrap(), slast.unwrap());
        assert_same(&clast.answer, &slast.answer);
        assert_eq!(clast.spec, slast.spec);
        assert_eq!(clast.budget_spent, slast.budget_spent);
        drop(cs);
        // every shard session was closed again
        for node in cluster.nodes() {
            assert_eq!(node.open_sessions(), 0);
        }
    }

    use crate::transport::{FaultInjectingTransport, FaultRates};

    /// A cluster rewired through a fault injector, plus the injector handle.
    fn flaky_cluster(
        shards: usize,
        seed: u64,
        rates: FaultRates,
    ) -> (ClusterHandle, Arc<FaultInjectingTransport>, Beas) {
        let (mut cluster, single) = cluster_and_single(shards);
        let inner = Arc::clone(cluster.transport());
        let faulty = Arc::new(FaultInjectingTransport::new(inner, seed, rates));
        cluster.set_transport(Arc::clone(&faulty) as Arc<dyn ShardTransport>);
        cluster.set_retry_policy(RetryPolicy::fast());
        (cluster, faulty, single)
    }

    #[test]
    fn transient_faults_are_retried_to_the_bit_for_bit_answer() {
        // drops, disconnects and garbles — but fewer consecutive faults than
        // retry attempts — must be absorbed entirely by the retry driver
        let rates = FaultRates {
            drop: 40,
            disconnect: 40,
            garble: 40,
            delay: 0,
        };
        let (mut cluster, faulty, single) = flaky_cluster(3, 0xC0FFEE, rates);
        cluster.set_retry_policy(RetryPolicy {
            attempts: 8,
            base_backoff: Duration::ZERO,
            deadline: Duration::from_secs(2),
        });
        for query in [
            single_atom_query(cluster.schema()),
            join_query(cluster.schema()),
            sum_query(cluster.schema()),
        ] {
            for spec in [ResourceSpec::Tuples(9), ResourceSpec::FULL] {
                let a = cluster.answer(&query, spec).unwrap();
                let b = single.answer(&query, spec).unwrap();
                assert_same(&a, &b);
                assert!(!a.partial);
            }
        }
        assert!(faulty.injected() > 0, "the seed must actually inject");
        let json = cluster.metrics().to_json();
        let retries: i64 = json
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("retries").and_then(Json::as_i64).unwrap())
            .sum();
        assert!(retries > 0, "retries must be recorded: {json}");
        assert_eq!(json.get("degraded_answers").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn disconnected_fetch_retry_does_not_double_bill() {
        // disconnects lose the response *after* the shard did the work: the
        // retried fetch must be served from the shard's idempotency ledger,
        // keeping `accessed` exactly the single-node number
        let rates = FaultRates {
            drop: 0,
            disconnect: 250,
            garble: 0,
            delay: 0,
        };
        let (cluster, _faulty, single) = flaky_cluster(3, 7, rates);
        let query = join_query(cluster.schema());
        let a = cluster.answer(&query, ResourceSpec::Ratio(0.5)).unwrap();
        let b = single.answer(&query, ResourceSpec::Ratio(0.5)).unwrap();
        assert_same(&a, &b);
    }

    #[test]
    fn dead_shard_fails_the_query_with_shard_context_under_fail_policy() {
        let (cluster, faulty, _single) = flaky_cluster(3, 1, FaultRates::uniform(0));
        let query = join_query(cluster.schema());
        faulty.set_down(1, true);
        let err = cluster.answer(&query, ResourceSpec::FULL).unwrap_err();
        let ClusterError::ShardFailed(failure) = err else {
            panic!("expected ShardFailed, got {err}");
        };
        assert_eq!(failure.shard, 1);
        assert!(failure.attempts >= RetryPolicy::fast().attempts);
        assert!(failure.last_error.contains("outage"), "{failure}");
    }

    #[test]
    fn dead_shard_yields_an_honest_partial_answer_under_partial_policy() {
        let (mut cluster, faulty, single) = flaky_cluster(3, 2, FaultRates::uniform(0));
        cluster.set_degraded_policy(DegradedPolicy::PartialAnswer);
        let query = join_query(cluster.schema());
        let healthy = single.answer(&query, ResourceSpec::FULL).unwrap();
        faulty.set_down(0, true);
        let (partial, outage) = cluster
            .answer_with_report(&query, ResourceSpec::FULL)
            .unwrap();
        assert!(partial.partial);
        assert!(
            partial.eta <= healthy.eta,
            "partial η must lower-bound the healthy answer: {} vs {}",
            partial.eta,
            healthy.eta
        );
        let outage = outage.expect("an outage report");
        assert_eq!(outage.shards.len(), 1);
        assert_eq!(outage.shards[0].failure.shard, 0);
        assert!(!outage.lost_nodes.is_empty());
        assert!(!outage.dropped_leaves.is_empty());
        assert_eq!(outage.shards[0].spent, 0, "nothing fetched before death");
        assert_eq!(outage.unspent_share, outage.shards[0].share);
        let json = cluster.metrics().to_json();
        assert_eq!(json.get("degraded_answers").and_then(Json::as_i64), Some(1));
        // the revived shard serves the healthy answer again
        faulty.set_down(0, false);
        let (healed, outage) = cluster
            .answer_with_report(&query, ResourceSpec::FULL)
            .unwrap();
        assert!(outage.is_none());
        assert_same(&healed, &healthy);
    }

    #[test]
    fn dead_shard_outside_the_plan_leaves_the_answer_exact_and_non_partial() {
        // a single-atom query over poi only touches poi's owner for data: a
        // dead bystander shard fails its open call and is degraded
        // away, but no fetch node or leaf is lost — the answer must stay
        // bit-for-bit exact and non-partial (outage still reported)
        let (mut cluster, faulty, single) = flaky_cluster(3, 3, FaultRates::uniform(0));
        cluster.set_degraded_policy(DegradedPolicy::PartialAnswer);
        let query = single_atom_query(cluster.schema());
        let healthy = single.answer(&query, ResourceSpec::FULL).unwrap();
        let owner = cluster.owner_of_family(1).unwrap(); // poi is relation 1
        faulty.set_down((owner + 1) % 3, true);
        let (b, outage) = cluster
            .answer_with_report(&query, ResourceSpec::FULL)
            .unwrap();
        assert!(!b.partial);
        assert_same(&b, &healthy);
        let outage = outage.expect("the dead shard is still reported");
        assert!(outage.lost_nodes.is_empty());
        assert!(outage.dropped_leaves.is_empty());
    }

    #[test]
    fn evicted_sessions_are_healed_by_reopen_mid_session() {
        let (cluster, single) = cluster_and_single(3);
        let query = join_query(cluster.schema());
        let schedule = RefinementSchedule::tuples(&[8, 72]).unwrap();
        let mut cs = cluster.session(&query, schedule.clone()).unwrap();
        let prepared = single.prepare(&query).unwrap();
        let mut ss = prepared.session(schedule).unwrap();
        let c1 = cs.next_step().unwrap().unwrap();
        let s1 = ss.next_step().unwrap().unwrap();
        assert_eq!(c1.answer.answers.digest(), s1.answer.answers.digest());
        // evict every shard session between steps: the next step must heal
        // through `no_session` re-opens and still match the single node's
        // digest and η (budget accounting restarts on the evicted shards)
        let mut evicted = 0;
        for node in cluster.nodes() {
            let (dropped, _) = node.evict_idle(Duration::ZERO);
            evicted += dropped;
        }
        assert_eq!(evicted, 3, "every shard held one session");
        let c2 = cs.next_step().unwrap().unwrap();
        let s2 = ss.next_step().unwrap().unwrap();
        assert_eq!(c2.answer.answers.digest(), s2.answer.answers.digest());
        assert_eq!(c2.eta.to_bits(), s2.eta.to_bits());
        assert!(!c2.answer.partial);
    }

    /// A transport that logs `(shard, op)` of every call on its way to the
    /// shards, and refuses the calls matching `refuse`.
    struct Recording {
        inner: Arc<dyn ShardTransport>,
        calls: std::sync::Mutex<Vec<(usize, String)>>,
        refuse: std::sync::Mutex<Option<(usize, &'static str)>>,
    }

    impl Recording {
        fn install(cluster: &mut ClusterHandle) -> Arc<Recording> {
            let recording = Arc::new(Recording {
                inner: Arc::clone(cluster.transport()),
                calls: Default::default(),
                refuse: Default::default(),
            });
            cluster.set_transport(Arc::clone(&recording) as Arc<dyn ShardTransport>);
            recording
        }

        fn count(&self, op: &str) -> usize {
            let calls = self.calls.lock().unwrap();
            calls.iter().filter(|(_, o)| o == op).count()
        }
    }

    impl ShardTransport for Recording {
        fn call(&self, shard: usize, request: &Json) -> Result<Json> {
            let op = request.get("op").and_then(Json::as_str).unwrap_or("?");
            if *self.refuse.lock().unwrap() == Some((shard, op)) {
                return Err(ClusterError::Transport {
                    shard,
                    message: format!("refused {op}"),
                });
            }
            self.calls.lock().unwrap().push((shard, op.to_string()));
            self.inner.call(shard, request)
        }

        fn shards(&self) -> usize {
            self.inner.shards()
        }
    }

    #[test]
    fn healthy_answer_is_open_fetch_leaf_close_and_no_stats_round() {
        let (mut cluster, _single) = cluster_and_single(3);
        let recording = Recording::install(&mut cluster);
        for query in [
            single_atom_query(cluster.schema()), // its one leaf lives on one shard
            join_query(cluster.schema()),        // its leaf spans two: merged here
        ] {
            recording.calls.lock().unwrap().clear();
            let budget = cluster.catalog().budget(&ResourceSpec::FULL).unwrap();
            let plan = Planner::new(cluster.catalog())
                .plan_with_budget(&query, budget)
                .unwrap();
            let remote_leaves = plan
                .leaves
                .iter()
                .filter(|leaf| cluster.sole_owner(&plan, leaf).unwrap().is_some())
                .count();
            cluster.answer(&query, ResourceSpec::FULL).unwrap();
            assert_eq!(recording.count("open"), 3);
            assert_eq!(recording.count("fetch"), plan.fetch.nodes.len());
            assert_eq!(recording.count("leaf"), remote_leaves);
            assert_eq!(recording.count("close"), 3);
            let total = 3 + plan.fetch.nodes.len() + remote_leaves + 3;
            assert_eq!(
                recording.calls.lock().unwrap().len(),
                total,
                "no other call"
            );
        }
    }

    #[test]
    fn a_shard_without_a_fetch_this_step_still_reports_its_session_totals() {
        // Every atom gets a completion fetch, so a healthy shard never drops
        // out of a plan; it goes a step without a fetch only when the shard
        // its keys come from is lost. At 72 tuples the poi fetch (shard 1)
        // is keyed by the person fragment (shard 0): refuse shard 0's fetch
        // and shard 1 is opened but never fetched from, so its cumulative
        // totals from step 1 can only come from the `open` response.
        let (mut cluster, single) = cluster_and_single(3);
        cluster.set_degraded_policy(DegradedPolicy::PartialAnswer);
        cluster.set_retry_policy(RetryPolicy::fast());
        let recording = Recording::install(&mut cluster);
        let query = join_query(cluster.schema());
        let schedule = RefinementSchedule::tuples(&[8, 72]).unwrap();
        let mut cs = cluster.session(&query, schedule.clone()).unwrap();
        let prepared = single.prepare(&query).unwrap();
        let mut ss = prepared.session(schedule).unwrap();

        let c1 = cs.next_step().unwrap().unwrap();
        let s1 = ss.next_step().unwrap().unwrap();
        assert!(s1.budget_spent > 0);
        assert_eq!(c1.budget_spent, s1.budget_spent);
        assert_eq!(c1.reused_tuples, s1.reused_tuples);

        recording.calls.lock().unwrap().clear();
        *recording.refuse.lock().unwrap() = Some((0, "fetch"));
        let c2 = cs.next_step().unwrap().unwrap();
        assert!(c2.answer.partial);
        assert_eq!(c2.outage.as_ref().unwrap().lost_nodes, vec![0, 1]);
        assert_eq!(recording.count("open"), 3);
        assert_eq!(recording.count("fetch"), 0, "nobody was fetched from");
        // nothing new was fetched or reused: the session totals are still
        // the single-node session's after its first step
        assert_eq!(c2.budget_spent, s1.budget_spent);
        assert_eq!(c2.reused_tuples, 0);
    }
}
