//! Progressive refinement sessions: anytime answers under a growing budget.
//!
//! The paper's multi-resolution template families make refinement free in
//! the dual direction: the fragments a plan fetches at a coarse budget are a
//! subset of what a finer budget fetches, so an answer can be *refined*
//! instead of recomputed. An [`AnswerSession`] runs one query through a
//! [`RefinementSchedule`] of increasing budgets (e.g. the `Ratio` ladder
//! `[0.01, 0.05, 0.1, 0.5, 1.0]`), yielding one [`RefinementStep`] — answer,
//! η and access accounting — per budget. Each step threads the resumable
//! [`ExecState`] of the previous one through
//! [`execute_plan_with_state`]: fragments
//! already fetched (same family, level and keys) and SPC leaf results whose
//! inputs did not change are reused, so the session's *total* fetch work is
//! close to the final step's alone, while the client gets a usable answer at
//! the first, cheapest step.
//!
//! Two guarantees:
//!
//! * **Determinism** — the whole session runs against one pinned
//!   [`EngineSnapshot`], and a state hit returns exactly what a fresh fetch
//!   would; the final step is therefore **bit-for-bit equal** (relation,
//!   float aggregate sums, η) to a one-shot
//!   [`PreparedQuery::answer`](crate::PreparedQuery::answer) at the same
//!   spec, at every thread count (property-tested in `tests/properties.rs`).
//! * **Monotonicity** — budgets grow along the schedule, so η never
//!   decreases from step to step and the cumulative tuples fetched never
//!   decrease (also property-tested).
//!
//! Plans for the steps come from the engine's [shared plan
//! cache](crate::prepared), so a server refining the same query for many
//! clients plans each budget once.
//!
//! An accuracy goal ([`RefinementSchedule::to_accuracy`]) is resolved the
//! same way wherever a session opens — on one engine or on a cluster
//! coordinator — by [`RefinementSchedule::resolve`]: the final step is the
//! smallest budget whose planned η reaches the goal
//! ([`Planner::plan_for_target`]), and the default-ladder rungs below it
//! stay only where they raise the planned η.

use beas_access::{Catalog, ResourceSpec};
use beas_slo::AccuracyTarget;

use crate::engine::{answer_from, BeasAnswer, EngineSnapshot};
use crate::error::{BeasError, Result};
use crate::executor::{execute_plan_with_state, ExecState};
use crate::planner::Planner;
use crate::prepared::PreparedQuery;
use crate::query::BeasQuery;

/// The default `Ratio` ladder of [`RefinementSchedule::default_ladder`].
pub const DEFAULT_RATIO_LADDER: [f64; 5] = [0.01, 0.05, 0.1, 0.5, 1.0];

/// A validated sequence of resource specs with non-decreasing budgets — the
/// refinement trajectory of an [`AnswerSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementSchedule {
    specs: Vec<ResourceSpec>,
    /// An adaptive accuracy goal ([`RefinementSchedule::to_accuracy`]): when
    /// set, [`RefinementSchedule::resolve`] derives the rungs from planned η
    /// instead of running `specs` verbatim.
    target_eta: Option<f64>,
}

impl RefinementSchedule {
    /// A schedule from explicit specs. Every spec must be valid and non-zero
    /// (a zero budget cannot be refined), and specs of the same kind must be
    /// non-decreasing; the resolved budgets are re-checked (and deduplicated)
    /// when a session opens, where `|D|` is known.
    pub fn from_specs(specs: Vec<ResourceSpec>) -> Result<Self> {
        if specs.is_empty() {
            return Err(BeasError::Planning(
                "a refinement schedule needs at least one step".to_string(),
            ));
        }
        for spec in &specs {
            spec.validate().map_err(BeasError::from)?;
            if spec.is_zero() {
                return Err(BeasError::Planning(format!(
                    "refinement schedule step {spec} resolves to a zero budget; \
                     steps must allow at least one access"
                )));
            }
        }
        for pair in specs.windows(2) {
            let decreasing = match (pair[0], pair[1]) {
                (ResourceSpec::Ratio(a), ResourceSpec::Ratio(b)) => b < a,
                (ResourceSpec::Tuples(a), ResourceSpec::Tuples(b)) => b < a,
                _ => false, // mixed kinds are ordered at budget resolution
            };
            if decreasing {
                return Err(BeasError::Planning(format!(
                    "refinement schedule must not decrease: {} after {}",
                    pair[1], pair[0]
                )));
            }
        }
        Ok(RefinementSchedule {
            specs,
            target_eta: None,
        })
    }

    /// A schedule of `Ratio` steps (non-decreasing, each in `(0, 1]`).
    pub fn ratios(ratios: &[f64]) -> Result<Self> {
        Self::from_specs(ratios.iter().map(|&a| ResourceSpec::Ratio(a)).collect())
    }

    /// A schedule of explicit `Tuples` steps (non-decreasing, each > 0).
    pub fn tuples(tuples: &[usize]) -> Result<Self> {
        Self::from_specs(tuples.iter().map(|&n| ResourceSpec::Tuples(n)).collect())
    }

    /// The default ladder: `Ratio` steps at [`DEFAULT_RATIO_LADDER`].
    pub fn default_ladder() -> Self {
        Self::ratios(&DEFAULT_RATIO_LADDER).expect("default ladder is valid")
    }

    /// A ladder that ends exactly at `target`: the default ratios below it
    /// (scaled into tuple steps for a `Tuples` target), then `target` itself
    /// as the final step — so the session's last answer equals a one-shot
    /// answer at `target`.
    pub fn leading_to(target: ResourceSpec) -> Result<Self> {
        target.validate().map_err(BeasError::from)?;
        if target.is_zero() {
            return Err(BeasError::Planning(
                "cannot refine towards a zero budget".to_string(),
            ));
        }
        let mut specs: Vec<ResourceSpec> = match target {
            ResourceSpec::Ratio(a) => DEFAULT_RATIO_LADDER
                .iter()
                .filter(|&&step| step < a)
                .map(|&step| ResourceSpec::Ratio(step))
                .collect(),
            ResourceSpec::Tuples(n) => DEFAULT_RATIO_LADDER
                .iter()
                .map(|&step| (step * n as f64).floor() as usize)
                .filter(|&t| t > 0 && t < n)
                .map(ResourceSpec::Tuples)
                .collect(),
        };
        specs.push(target);
        Self::from_specs(specs)
    }

    /// An accuracy-adaptive schedule: refine until the answer's planned η
    /// reaches `eta` (validated to `(0, 1]`). The rungs are derived when the
    /// session opens ([`RefinementSchedule::resolve`]): the last is the
    /// smallest budget whose planned η reaches `eta` (the full budget when
    /// none does), and a default-ladder rung below it is kept only when its
    /// planned η beats the previous kept rung's.
    pub fn to_accuracy(eta: f64) -> Result<Self> {
        AccuracyTarget::new(eta).map_err(BeasError::from)?;
        let mut schedule = Self::default_ladder();
        schedule.target_eta = Some(eta);
        Ok(schedule)
    }

    /// The adaptive accuracy goal, when this schedule was built by
    /// [`RefinementSchedule::to_accuracy`].
    pub fn accuracy_goal(&self) -> Option<f64> {
        self.target_eta
    }

    /// The schedule's steps, in order. For an accuracy-adaptive schedule
    /// these are the default ladder; the real trajectory is derived by
    /// [`RefinementSchedule::resolve`] when a session opens.
    pub fn specs(&self) -> &[ResourceSpec] {
        &self.specs
    }

    /// The `(spec, budget)` trajectory of this schedule for `query` against
    /// `catalog`, strictly increasing in budget — what a session runs, on
    /// one engine or on a cluster coordinator alike. Fixed schedules resolve
    /// their specs (equal budgets collapse into one step under the later
    /// spec; zero or decreasing budgets are errors). Accuracy goals resolve
    /// as described at [`RefinementSchedule::to_accuracy`], from plans
    /// alone.
    pub fn resolve(
        &self,
        catalog: &Catalog,
        query: &BeasQuery,
    ) -> Result<Vec<(ResourceSpec, usize)>> {
        if let Some(eta) = self.target_eta {
            return accuracy_trajectory(catalog, query, eta);
        }
        let mut steps: Vec<(ResourceSpec, usize)> = Vec::with_capacity(self.specs.len());
        for &spec in &self.specs {
            let budget = catalog.budget(&spec)?;
            if budget == 0 {
                return Err(BeasError::Planning(format!(
                    "refinement schedule step {spec} resolves to a zero budget; \
                     no plan can access zero tuples"
                )));
            }
            match steps.last_mut() {
                Some((last_spec, last_budget)) if *last_budget == budget => {
                    // same resolved budget: keep one step, under the later
                    // spec label, so the final step carries the final spec
                    *last_spec = spec;
                }
                Some((_, last_budget)) if budget < *last_budget => {
                    return Err(BeasError::Planning(format!(
                        "refinement schedule budgets must not decrease: \
                         {spec} resolves to {budget} after {last_budget}"
                    )));
                }
                _ => steps.push((spec, budget)),
            }
        }
        Ok(steps)
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `false` always — schedules are validated non-empty. (Provided for the
    /// conventional `len`/`is_empty` pair.)
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One step of an [`AnswerSession`]: the answer at this budget plus the
/// session's cumulative accounting.
#[derive(Debug, Clone)]
pub struct RefinementStep {
    /// The spec this step answered under.
    pub spec: ResourceSpec,
    /// The answer, exactly as a one-shot
    /// [`PreparedQuery::answer`](crate::PreparedQuery::answer) at `spec`
    /// against the session's snapshot would return it (same relation, same
    /// η, same `accessed`).
    pub answer: BeasAnswer,
    /// The accuracy lower bound η of this step (equals `answer.eta`;
    /// non-decreasing across the session).
    pub eta: f64,
    /// The tuple budget this step's plan complied with.
    pub budget: usize,
    /// Cumulative tuples actually fetched by the session up to and including
    /// this step — the session's real access cost, non-decreasing. Tuples
    /// reused from earlier steps are charged against each step's budget but
    /// fetched only once.
    pub budget_spent: usize,
    /// Tuples this step served from the session state instead of re-fetching.
    pub reused_tuples: usize,
    /// This step's position (1-based) and the schedule length.
    pub step: usize,
    /// Total steps in the schedule (after budget deduplication).
    pub steps: usize,
}

/// A progressive refinement session (see the module docs): an iterator of
/// [`RefinementStep`]s at the increasing budgets of a
/// [`RefinementSchedule`], opened by
/// [`PreparedQuery::session`](crate::PreparedQuery::session).
///
/// The session pins one [`EngineSnapshot`] when opened; maintenance applied
/// to the engine meanwhile does not affect it (the next session sees the new
/// state). Dropping the session mid-way simply discards the remaining steps.
#[derive(Debug)]
pub struct AnswerSession<'p, 'e> {
    prepared: &'p PreparedQuery<'e>,
    snapshot: EngineSnapshot,
    /// `(spec, resolved budget)` per remaining-to-run step, strictly
    /// increasing in budget (equal-budget steps deduplicated, keeping the
    /// later spec label).
    steps: Vec<(ResourceSpec, usize)>,
    state: ExecState,
    next: usize,
}

impl<'p, 'e> AnswerSession<'p, 'e> {
    /// Resolves the schedule against the engine's current snapshot and pins
    /// that snapshot for the whole session.
    pub(crate) fn open(
        prepared: &'p PreparedQuery<'e>,
        schedule: RefinementSchedule,
    ) -> Result<Self> {
        let snapshot = prepared.engine().snapshot();
        let steps = schedule.resolve(snapshot.catalog(), prepared.query())?;
        Ok(AnswerSession {
            prepared,
            snapshot,
            steps,
            state: ExecState::new(),
            next: 0,
        })
    }

    /// The snapshot the session is pinned to.
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }

    /// Steps remaining (including the one the next `next_step` call runs).
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.next
    }

    /// Total steps of the session (after budget deduplication).
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// The resolved `(spec, budget)` trajectory.
    pub fn trajectory(&self) -> &[(ResourceSpec, usize)] {
        &self.steps
    }

    /// Sum of the resolved budgets of all steps — what an admission layer
    /// charges for the whole session up front.
    pub fn total_budget(&self) -> usize {
        self.steps.iter().map(|(_, b)| b).sum()
    }

    /// Runs the next step: plan through the shared cache (C3, skipped on
    /// repeat budgets), execute with the session state threaded through (C4,
    /// reusing fragments and leaf results of earlier steps). Returns `None`
    /// when the schedule is exhausted.
    pub fn next_step(&mut self) -> Option<Result<RefinementStep>> {
        if self.next >= self.steps.len() {
            return None;
        }
        let (spec, budget) = self.steps[self.next];
        self.next += 1;
        Some(self.run_step(spec, budget))
    }

    fn run_step(&mut self, spec: ResourceSpec, budget: usize) -> Result<RefinementStep> {
        let engine = self.prepared.engine();
        let plan = self.prepared.plan_for_budget(&self.snapshot, budget)?;
        let fetched_before = self.state.fetched_tuples();
        let reused_before = self.state.reused_tuples();
        let outcome = execute_plan_with_state(
            &plan,
            self.snapshot.catalog(),
            engine.exec_options(&plan),
            &mut self.state,
        )?;
        // stats bill the tuples actually fetched this step (reuse is free),
        // so a session shows up in `EngineStats` at its real access cost
        engine
            .stats
            .record_answer(self.state.fetched_tuples() - fetched_before);
        let answer = answer_from(&plan, outcome);
        Ok(RefinementStep {
            spec,
            eta: answer.eta,
            budget: answer.budget,
            budget_spent: self.state.fetched_tuples(),
            reused_tuples: self.state.reused_tuples() - reused_before,
            step: self.next,
            steps: self.steps.len(),
            answer,
        })
    }
}

/// The trajectory of [`RefinementSchedule::to_accuracy`]`(eta)`: the
/// default-ladder rungs below the searched budget whose planned η beats the
/// previous kept rung's, then the searched budget itself.
fn accuracy_trajectory(
    catalog: &Catalog,
    query: &BeasQuery,
    eta: f64,
) -> Result<Vec<(ResourceSpec, usize)>> {
    let planner = Planner::new(catalog);
    let full_budget = catalog.budget(&ResourceSpec::FULL)?.max(1);
    let (target, _) = planner.plan_for_target(query, eta, full_budget)?;
    let mut steps: Vec<(ResourceSpec, usize)> = Vec::new();
    let mut last_eta = 0.0f64;
    for &ratio in &DEFAULT_RATIO_LADDER {
        let budget = catalog.budget(&ResourceSpec::Ratio(ratio))?;
        if budget == 0
            || budget >= target.budget
            || steps.last().is_some_and(|&(_, last)| budget <= last)
        {
            continue;
        }
        let rung_eta = planner.plan_with_budget(query, budget)?.eta;
        if rung_eta > last_eta {
            last_eta = rung_eta;
            steps.push((ResourceSpec::Tuples(budget), budget));
        }
    }
    let final_spec = if target.budget == full_budget {
        ResourceSpec::FULL
    } else {
        ResourceSpec::Tuples(target.budget)
    };
    steps.push((final_spec, target.budget));
    Ok(steps)
}

impl Iterator for AnswerSession<'_, '_> {
    type Item = Result<RefinementStep>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_step()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.remaining();
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Beas, ConstraintSpec};
    use beas_relal::{
        Attribute, CompareOp, Database, DatabaseSchema, RelationSchema, SpcQueryBuilder, Value,
    };

    fn poi_engine(n: i64) -> Beas {
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![
                Attribute::categorical("type"),
                Attribute::text("city"),
                Attribute::double("price"),
            ],
        )]);
        let mut db = Database::new(schema);
        let cities = ["NYC", "LA", "Chicago"];
        for i in 0..n {
            db.insert_row(
                "poi",
                vec![
                    Value::from(if i % 2 == 0 { "hotel" } else { "museum" }),
                    Value::from(cities[(i % 3) as usize]),
                    Value::Double(30.0 + (i % 80) as f64),
                ],
            )
            .unwrap();
        }
        Beas::builder(db)
            .constraint(ConstraintSpec::new("poi", &["type", "city"], &["price"]))
            .build()
            .unwrap()
    }

    fn hotels(engine: &Beas) -> crate::query::BeasQuery {
        let mut b = SpcQueryBuilder::new(engine.schema());
        let h = b.atom("poi", "h").unwrap();
        b.bind_const(h, "type", "hotel").unwrap();
        b.bind_const(h, "city", "NYC").unwrap();
        b.filter_const(h, "price", CompareOp::Le, 90i64).unwrap();
        b.output(h, "price", "price").unwrap();
        b.build().unwrap().into()
    }

    #[test]
    fn schedule_validation_rejects_empty_zero_and_decreasing() {
        assert!(RefinementSchedule::ratios(&[]).is_err());
        assert!(RefinementSchedule::ratios(&[0.0, 0.5]).is_err());
        assert!(RefinementSchedule::ratios(&[0.5, 0.1]).is_err());
        assert!(RefinementSchedule::ratios(&[1.5]).is_err());
        assert!(RefinementSchedule::tuples(&[10, 5]).is_err());
        assert!(RefinementSchedule::tuples(&[0, 5]).is_err());
        assert!(RefinementSchedule::ratios(&[0.1, 0.1, 0.5]).is_ok());
        assert_eq!(RefinementSchedule::default_ladder().len(), 5);
    }

    #[test]
    fn leading_to_ends_at_the_target() {
        let ladder = RefinementSchedule::leading_to(ResourceSpec::Ratio(0.07)).unwrap();
        assert_eq!(
            ladder.specs(),
            &[
                ResourceSpec::Ratio(0.01),
                ResourceSpec::Ratio(0.05),
                ResourceSpec::Ratio(0.07)
            ]
        );
        let tuples = RefinementSchedule::leading_to(ResourceSpec::Tuples(1000)).unwrap();
        assert_eq!(*tuples.specs().last().unwrap(), ResourceSpec::Tuples(1000));
        assert!(tuples.len() > 1);
        assert!(RefinementSchedule::leading_to(ResourceSpec::Ratio(0.0)).is_err());
    }

    #[test]
    fn session_refines_and_final_step_matches_one_shot() {
        let engine = poi_engine(600);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let final_spec = ResourceSpec::Ratio(0.8);
        let one_shot = prepared.answer(final_spec).unwrap();

        let schedule = RefinementSchedule::ratios(&[0.02, 0.1, 0.4, 0.8]).unwrap();
        let session = prepared.session(schedule).unwrap();
        let steps: Vec<RefinementStep> = session.map(|s| s.unwrap()).collect();
        assert_eq!(steps.len(), 4);

        // η and spend are monotone, budgets strictly increasing
        for pair in steps.windows(2) {
            assert!(pair[1].eta >= pair[0].eta);
            assert!(pair[1].budget_spent >= pair[0].budget_spent);
            assert!(pair[1].budget > pair[0].budget);
        }
        // at least one later step reused fragments from an earlier one
        assert!(
            steps[1..].iter().any(|s| s.reused_tuples > 0),
            "refinement must reuse fetched fragments"
        );

        // the final step is bit-for-bit the one-shot answer
        let last = steps.last().unwrap();
        assert_eq!(last.spec, final_spec);
        assert_eq!(last.answer.answers, one_shot.answers);
        assert_eq!(last.answer.answers.digest(), one_shot.answers.digest());
        assert_eq!(last.answer.eta, one_shot.eta);
        assert_eq!(last.answer.accessed, one_shot.accessed);
        // the session fetched no more than the one-shot accessed in total
        assert!(last.budget_spent <= one_shot.accessed + last.reused_tuples.max(1));
    }

    #[test]
    fn session_pins_its_snapshot_against_maintenance() {
        let engine = poi_engine(300);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let mut session = prepared
            .session(RefinementSchedule::ratios(&[0.05, 1.0]).unwrap())
            .unwrap();
        let first = session.next_step().unwrap().unwrap();
        assert_eq!(first.step, 1);

        // maintenance lands mid-session: the session keeps its snapshot
        engine
            .insert_row(
                "poi",
                vec![
                    Value::from("hotel"),
                    Value::from("NYC"),
                    Value::Double(33.5),
                ],
            )
            .unwrap();
        let last = session.next_step().unwrap().unwrap();
        assert!(session.next_step().is_none());
        assert!(
            !last
                .answer
                .answers
                .rows()
                .any(|r| r == vec![Value::Double(33.5)]),
            "a pinned session must not see rows inserted after it opened"
        );
        // a fresh one-shot answer does
        let fresh = prepared.answer(ResourceSpec::FULL).unwrap();
        assert!(fresh.answers.rows().any(|r| r == vec![Value::Double(33.5)]));
    }

    #[test]
    fn to_accuracy_validates_and_reports_its_goal() {
        assert!(RefinementSchedule::to_accuracy(0.0).is_err());
        assert!(RefinementSchedule::to_accuracy(1.5).is_err());
        assert!(RefinementSchedule::to_accuracy(f64::NAN).is_err());
        let s = RefinementSchedule::to_accuracy(0.9).unwrap();
        assert_eq!(s.accuracy_goal(), Some(0.9));
        assert!(RefinementSchedule::default_ladder()
            .accuracy_goal()
            .is_none());
    }

    #[test]
    fn adaptive_session_ends_at_the_searched_budget() {
        let engine = poi_engine(2000);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let catalog = engine.catalog();
        let full_budget = catalog.budget(&ResourceSpec::FULL).unwrap();
        for goal in [0.3, 0.5, 0.9, 1.0] {
            let schedule = RefinementSchedule::to_accuracy(goal).unwrap();
            let session = prepared.session(schedule.clone()).unwrap();
            let trajectory = session.trajectory().to_vec();
            assert_eq!(trajectory, schedule.resolve(&catalog, &q).unwrap());
            let (searched, feasible) = Planner::new(&catalog)
                .plan_for_target(&q, goal, full_budget)
                .unwrap();
            assert_eq!(trajectory.last().unwrap().1, searched.budget, "goal {goal}");

            // budgets increase, every kept rung gains η, and the last step
            // meets the goal exactly when the search found it feasible
            let steps: Vec<RefinementStep> = session.map(|s| s.unwrap()).collect();
            for pair in steps.windows(2) {
                assert!(pair[1].budget > pair[0].budget);
                assert!(pair[1].eta >= pair[0].eta);
            }
            for pair in steps[..steps.len() - 1].windows(2) {
                assert!(pair[1].eta > pair[0].eta, "goal {goal}: a rung gained no η");
            }
            let last = steps.last().unwrap();
            assert_eq!(last.eta >= goal, feasible, "goal {goal}");
        }
    }

    #[test]
    fn first_adaptive_session_matches_a_later_one() {
        let engine = poi_engine(2000);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        let run = || {
            let session = prepared
                .session(RefinementSchedule::to_accuracy(0.5).unwrap())
                .unwrap();
            let trajectory = session.trajectory().to_vec();
            let steps: Vec<RefinementStep> = session.map(|s| s.unwrap()).collect();
            let last = steps.last().unwrap();
            (trajectory, last.answer.answers.digest(), last.eta.to_bits())
        };
        // the first session on a fresh engine needs no warm-up: it searches
        // the same budget and ends at the same answer as one opened after the
        // engine has served the full default ladder several times
        let first = run();
        let full_budget = engine.catalog().budget(&ResourceSpec::FULL).unwrap();
        assert!(first.0.last().unwrap().1 < full_budget);
        for _ in 0..3 {
            let session = prepared
                .session(RefinementSchedule::default_ladder())
                .unwrap();
            for step in session {
                step.unwrap();
            }
        }
        assert_eq!(run(), first);
    }

    #[test]
    fn equal_resolved_budgets_collapse_into_one_step() {
        let engine = poi_engine(100);
        let q = hotels(&engine);
        let prepared = engine.prepare(&q).unwrap();
        // 0.001 and 0.005 of 100 rows both resolve to the 1-tuple minimum
        let session = prepared
            .session(RefinementSchedule::ratios(&[0.001, 0.005, 1.0]).unwrap())
            .unwrap();
        assert_eq!(session.steps(), 2);
        assert!(session.total_budget() > 0);
    }
}
