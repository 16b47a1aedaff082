//! A shard node: the session machinery serving the coordinator's
//! `fetch`/`leaf` protocol, with `open` and `close` riding on those
//! requests, against the shared cluster catalog.
//!
//! Every shard holds the whole catalog (one `Arc`), because it plans each
//! query for itself; it serves only the families it owns. It refuses
//! fetches against any other family, and it evaluates a leaf only when every
//! atom of that leaf completes from its own families. Budget enforcement is
//! local — each open session enforces the share the coordinator allocated, through
//! the same [`FetchSession`] accounting a single node uses.
//!
//! ## Fault tolerance
//!
//! Remote coordinators retry over lossy transports, so the shard side makes
//! every op **idempotent at-least-once**: a `fetch` whose response was lost
//! and is retried within the same step is served from the step's ledger
//! without re-billing (`leaf` is naturally idempotent through the
//! [`ExecState`] leaf cache; `stats` is a read-only probe). An `open` for the
//! step a session is already in is a no-op, so a retried first request of a
//! step keeps that ledger; one for a new step resets the step's accounting
//! and keeps the fragments. A request carrying `close` drops the session
//! only after it succeeded.
//! An unknown session token answers the machine-readable
//! [`NO_SESSION`](crate::protocol::NO_SESSION) code so the coordinator can
//! re-establish affinity by re-sending the request with its step's `open`.
//! [`ShardNode::evict_idle`] drops
//! sessions idle for longer than a given time, bounding the memory a
//! vanished coordinator can pin.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use beas_access::{Catalog, FamilyId, FetchSession};
use beas_core::{evaluate_plan_leaf, BoundedPlan, ExecOptions, ExecState, PlanFragments, Planner};
use beas_relal::Relation;
use beas_serve::{parse_json, query_from_json, Json};

use crate::error::{ClusterError, Result};
use crate::protocol;

/// One open query session on a shard: the shard's own (deterministically
/// identical) plan, its fragment/leaf state, and the step's budget share.
/// The [`ExecState`] survives re-`open`s of the same session id, so a
/// refinement session's later steps reuse fragments fetched by earlier ones
/// — exactly like a single-node `AnswerSession`.
#[derive(Debug)]
struct ShardSession {
    /// The coordinator's step this session serves (see [`protocol::open_message`]).
    step: usize,
    plan: BoundedPlan,
    state: ExecState,
    fragments: PlanFragments,
    options: ExecOptions,
    /// The budget share this step enforces.
    share: usize,
    /// Tuples billed against `share` this step (fresh and reused alike).
    billed: usize,
    /// Fetch operations executed this step.
    fetch_ops: usize,
    /// Fetch nodes already served this step (node id → fragment), the
    /// idempotency ledger: a retried fetch whose response was lost in flight
    /// is re-served from here without billing the share again.
    step_served: HashMap<usize, Arc<Relation>>,
    /// When the session last served a request, for idle eviction.
    last_used: Instant,
}

/// What an `open` field asks of a session.
enum Opening {
    /// The session is already in the step (a retried first request), or the
    /// request carries no `open`: nothing to do.
    Current,
    /// A new step, with this shard's plan for it.
    Step(Box<ShardSession>),
    /// This shard's plan differs in shape from the coordinator's: the
    /// [`protocol::PLAN_DIVERGED`] refusal is the answer.
    Refused(Json),
}

/// A cluster shard node. See the module docs.
#[derive(Debug)]
pub struct ShardNode {
    shard: usize,
    catalog: Arc<Catalog>,
    /// `owned[f]` — whether this shard owns (cluster-wide) family `f`.
    owned: Vec<bool>,
    /// Threads for leaf evaluation.
    threads: usize,
    /// Parallel-leaf threshold for leaf evaluation.
    min_shard_rows: usize,
    sessions: Mutex<HashMap<u64, ShardSession>>,
}

impl ShardNode {
    /// Shard `shard` of a cluster whose catalog is `catalog`; `owned` flags
    /// the family ids this shard serves. Leaves evaluate over `threads`
    /// threads with the parallel-leaf threshold `min_shard_rows`.
    pub(crate) fn new(
        shard: usize,
        catalog: Arc<Catalog>,
        owned: Vec<bool>,
        threads: usize,
        min_shard_rows: usize,
    ) -> Self {
        ShardNode {
            shard,
            catalog,
            owned,
            threads,
            min_shard_rows,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// This node's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether this shard owns (cluster-wide) family `family`.
    pub fn owns(&self, family: FamilyId) -> bool {
        self.owned.get(family).copied().unwrap_or(false)
    }

    /// Number of open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.lock().expect("sessions poisoned").len()
    }

    /// Evicts sessions idle for longer than `ttl`, returning how many were
    /// dropped and how many tuples of fragment/leaf memory they held. A
    /// coordinator whose call then answers [`protocol::NO_SESSION`] re-sends
    /// it with the step's `open` attached, so eviction trades shard memory
    /// for one more round trip.
    pub fn evict_idle(&self, ttl: Duration) -> (usize, usize) {
        let mut sessions = self.sessions.lock().expect("sessions poisoned");
        let mut dropped = 0;
        let mut tuples = 0;
        sessions.retain(|_, s| {
            if s.last_used.elapsed() > ttl {
                dropped += 1;
                tuples += s.state.held_tuples();
                false
            } else {
                true
            }
        });
        (dropped, tuples)
    }

    /// Handles one protocol request, never panicking: errors become
    /// `{ok: false, error}` responses.
    pub fn handle(&self, request: &Json) -> Json {
        match self.dispatch(request) {
            Ok(response) => response,
            Err(e) => protocol::err_response(&e.to_string()),
        }
    }

    /// Text-level entry point: parses the request, handles it, serializes
    /// the response — the full wire path an in-process transport exercises.
    pub fn handle_text(&self, request: &str) -> String {
        match parse_json(request) {
            Ok(v) => self.handle(&v).to_string(),
            Err(e) => protocol::err_response(&format!("bad request JSON: {e}")).to_string(),
        }
    }

    fn dispatch(&self, request: &Json) -> Result<Json> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ClusterError::Wire("missing op".to_string()))?;
        let session = protocol::req_usize(request, "session")? as u64;
        match op {
            "fetch" | "leaf" => self.serve(session, op == "fetch", request),
            "stats" => self.op_stats(session, false),
            "close" => self.op_stats(session, true),
            other => Err(ClusterError::Wire(format!("unknown op `{other}`"))),
        }
    }

    /// The `{ok: false, code: "no_session"}` response for `session`.
    fn no_session(session: u64) -> Json {
        protocol::err_response_code(&format!("no open session {session}"), protocol::NO_SESSION)
    }

    /// Serves a `fetch` (`fetch == true`) or a `leaf`: first opens the step
    /// its `open` field names, if it carries one, and afterwards closes the
    /// session if it carries `close: true` and succeeded.
    fn serve(&self, session: u64, fetch: bool, request: &Json) -> Result<Json> {
        let opening = match request.get("open") {
            Some(open) => self.plan_step(session, open)?,
            None => Opening::Current,
        };
        if let Opening::Refused(refusal) = opening {
            return Ok(refusal);
        }
        let mut sessions = self.sessions.lock().expect("sessions poisoned");
        if let Opening::Step(mut opened) = opening {
            // a new step keeps the fragment/leaf state and its cumulative
            // counters, swaps the plan and resets the step accounting
            if let Some(previous) = sessions.remove(&session) {
                opened.state = previous.state;
            }
            sessions.insert(session, *opened);
        }
        let Some(open) = sessions.get_mut(&session) else {
            return Ok(Self::no_session(session));
        };
        open.last_used = Instant::now();
        let response = if fetch {
            self.op_fetch(open, request)?
        } else {
            self.op_leaf(open, request)?
        };
        if request.get("close").and_then(Json::as_bool) == Some(true) {
            sessions.remove(&session);
        }
        Ok(response)
    }

    /// What the `open` field `open` asks of `session`.
    fn plan_step(&self, session: u64, open: &Json) -> Result<Opening> {
        let step = protocol::req_usize(open, "step")?;
        let current = self
            .sessions
            .lock()
            .expect("sessions poisoned")
            .get(&session)
            .is_some_and(|s| s.step == step);
        if current {
            return Ok(Opening::Current);
        }
        let budget = protocol::req_usize(open, "budget")?;
        let share = protocol::req_usize(open, "share")?;
        let query = query_from_json(protocol::req_field(open, "query")?, &self.catalog.schema)?;
        // the shard plans for itself: planning is deterministic over the
        // shared catalog, so this is the coordinator's plan without a plan
        // ever being serialized — unless the catalogs differ, which the
        // plan's shape shows
        let plan = Planner::new(&self.catalog).plan_with_budget(&query, budget)?;
        let mine = (plan.tariff, plan.fetch.nodes.len(), plan.leaves.len());
        let theirs = (
            protocol::req_usize(open, "tariff")?,
            protocol::req_usize(open, "nodes")?,
            protocol::req_usize(open, "leaves")?,
        );
        if mine != theirs {
            return Ok(Opening::Refused(protocol::err_response_code(
                &format!(
                    "planned divergently: tariff {} vs {}, {} nodes vs {}, {} leaves vs {}",
                    mine.0, theirs.0, mine.1, theirs.1, mine.2, theirs.2
                ),
                protocol::PLAN_DIVERGED,
            )));
        }
        let fragments = PlanFragments::for_plan(&plan);
        let options = ExecOptions::budgeted(share)
            .with_threads(self.threads)
            .with_min_shard_rows(self.min_shard_rows);
        Ok(Opening::Step(Box::new(ShardSession {
            step,
            plan,
            state: ExecState::new(),
            fragments,
            options,
            share,
            billed: 0,
            fetch_ops: 0,
            step_served: HashMap::new(),
            last_used: Instant::now(),
        })))
    }

    /// The accounting block every `fetch` response carries, so the
    /// coordinator holds the shard's exact numbers at every point of a step:
    /// this step's `billed`/`fetches` and the session-cumulative
    /// `fetched_tuples`/`reused_tuples`.
    fn step_accounting(open: &ShardSession) -> Vec<(&'static str, Json)> {
        vec![
            ("billed", Json::Int(open.billed as i64)),
            ("fetches", Json::Int(open.fetch_ops as i64)),
            (
                "fetched_tuples",
                Json::Int(open.state.fetched_tuples() as i64),
            ),
            (
                "reused_tuples",
                Json::Int(open.state.reused_tuples() as i64),
            ),
        ]
    }

    fn op_fetch(&self, open: &mut ShardSession, request: &Json) -> Result<Json> {
        let node_id = protocol::req_usize(request, "node")?;
        let keys = protocol::keys_from_json(protocol::req_field(request, "keys")?)?;
        // at-least-once delivery: a fetch retried after its response was lost
        // must not bill the share a second time
        if let Some(rel) = open.step_served.get(&node_id) {
            let mut fields = vec![("frame", protocol::frame_to_json(rel))];
            fields.extend(Self::step_accounting(open));
            return Ok(protocol::ok_response(fields));
        }
        let node = open.plan.fetch.node(node_id)?.clone();
        if !self.owns(node.family) {
            return Err(ClusterError::Protocol(format!(
                "shard {} does not own family {} (fetch node {node_id})",
                self.shard, node.family
            )));
        }
        // bill against the remaining share; reuse of a fragment fetched by an
        // earlier step re-bills it, exactly like a single-node session
        let remaining = open.share.saturating_sub(open.billed);
        let mut fetch = FetchSession::new(&self.catalog, Some(remaining));
        let (fragment, rel) =
            open.state
                .fetch_or_reuse(&mut fetch, node.family, node.level, keys)?;
        open.billed += fetch.accessed();
        open.fetch_ops += fetch.counter().fetches;
        open.fragments.set(node_id, fragment, Arc::clone(&rel));
        open.step_served.insert(node_id, Arc::clone(&rel));
        let mut fields = vec![("frame", protocol::frame_to_json(&rel))];
        fields.extend(Self::step_accounting(open));
        Ok(protocol::ok_response(fields))
    }

    fn op_leaf(&self, open: &mut ShardSession, request: &Json) -> Result<Json> {
        let leaf = protocol::req_usize(request, "leaf")?;
        let ShardSession {
            plan,
            state,
            fragments,
            options,
            ..
        } = open;
        let leaf_plan = plan
            .leaves
            .get(leaf)
            .ok_or_else(|| ClusterError::Protocol(format!("no leaf {leaf} in the plan")))?;
        for &n in &leaf_plan.atom_nodes {
            let family = plan.fetch.node(n)?.family;
            if !self.owns(family) {
                return Err(ClusterError::Protocol(format!(
                    "shard {} cannot evaluate leaf {leaf}: atom node {n} uses foreign family {family}",
                    self.shard
                )));
            }
        }
        // idempotent on retry: the ExecState leaf cache serves a repeated
        // evaluation over the same fragments without recomputation or billing
        let eval = evaluate_plan_leaf(leaf, plan, &self.catalog, fragments, options, state)?;
        Ok(protocol::ok_response(vec![
            ("frame", protocol::frame_to_json(&eval.rel)),
            ("out_res", protocol::resolutions_to_json(&eval.out_res)),
            ("exact", Json::Bool(eval.exact)),
        ]))
    }

    fn op_stats(&self, session: u64, close: bool) -> Result<Json> {
        let mut sessions = self.sessions.lock().expect("sessions poisoned");
        let Some(open) = sessions.get_mut(&session) else {
            return Ok(Self::no_session(session));
        };
        open.last_used = Instant::now();
        let mut fields = vec![("accessed", Json::Int(open.billed as i64))];
        fields.extend(Self::step_accounting(open).into_iter().skip(1));
        let response = protocol::ok_response(fields);
        if close {
            sessions.remove(&session);
        }
        Ok(response)
    }
}
