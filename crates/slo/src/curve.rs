//! The [`CurveStore`]: a learned η-vs-budget curve per query fingerprint.
//!
//! No engine path uses it any more — the planner computes η for any budget
//! exactly — and it remains only for the benchmark probes that measure it
//! (see the crate docs).
//!
//! The store groups `(fingerprint, budget, η)` observations into log-budget
//! buckets (budgets within ~9% of each other share a bucket) and fits, per
//! fingerprint, a monotone non-decreasing prediction curve:
//!
//! 1. the **conservative lower envelope**: at bucket `k`, the minimum
//!    achieved η over all buckets `≥ k` (a suffix-minimum — monotone by
//!    construction, and never above an η achieved at an equal-or-larger
//!    budget);
//! 2. an **isotonic (PAVA) fit** of the per-bucket mean η over log-budget,
//!    weighted by observation count;
//!
//! and predicts with their elementwise **minimum**.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Log-budget bucket width: budgets quantized to `round(8·log2(b))`, i.e.
/// roughly 9% relative resolution.
const BUCKETS_PER_DOUBLING: f64 = 8.0;

/// Most fingerprints tracked at once; beyond it the least-observed curve is
/// evicted (deterministically — ties break on the smaller fingerprint).
const MAX_FINGERPRINTS: usize = 1024;

fn bucket_key(budget: usize) -> i64 {
    (BUCKETS_PER_DOUBLING * (budget.max(1) as f64).log2()).round() as i64
}

/// One log-budget bucket of observations for a single fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    /// Minimum achieved η observed in this bucket.
    min_eta: f64,
    /// Sum of achieved η (for the PAVA mean fit).
    eta_sum: f64,
    /// Observation count.
    count: u64,
    /// Largest budget observed in this bucket — the budget
    /// [`CurveStore::plan_budget`] returns when it picks this bucket.
    budget_hi: u64,
}

/// The learned curve of one query fingerprint, valid for one catalog version.
#[derive(Debug, Clone, Default, PartialEq)]
struct Curve {
    /// The catalog version the observations were made against.
    version: u64,
    /// Buckets keyed by quantized log-budget (ascending = ascending budget).
    buckets: BTreeMap<i64, Bucket>,
    /// Total observations absorbed (eviction weight).
    observations: u64,
}

impl Curve {
    fn observe(&mut self, budget: usize, eta: f64) {
        let eta = eta.clamp(0.0, 1.0);
        let bucket = self.buckets.entry(bucket_key(budget)).or_insert(Bucket {
            min_eta: f64::INFINITY,
            eta_sum: 0.0,
            count: 0,
            budget_hi: 0,
        });
        bucket.min_eta = bucket.min_eta.min(eta);
        bucket.eta_sum += eta;
        bucket.count += 1;
        bucket.budget_hi = bucket.budget_hi.max(budget as u64);
        self.observations += 1;
    }

    /// The monotone fit: per ascending bucket, `(budget_hi, predicted η)`.
    fn fitted(&self) -> Vec<(u64, f64)> {
        let buckets: Vec<&Bucket> = self.buckets.values().collect();
        // conservative lower envelope: suffix-minimum of bucket minima
        let mut envelope = vec![0.0f64; buckets.len()];
        let mut running = f64::INFINITY;
        for (i, b) in buckets.iter().enumerate().rev() {
            running = running.min(b.min_eta);
            envelope[i] = running;
        }
        // isotonic mean fit over log-budget, weighted by observation count
        let means: Vec<f64> = buckets.iter().map(|b| b.eta_sum / b.count as f64).collect();
        let weights: Vec<f64> = buckets.iter().map(|b| b.count as f64).collect();
        let isotonic = pava_non_decreasing(&means, &weights);
        buckets
            .iter()
            .zip(envelope.iter().zip(&isotonic))
            .map(|(b, (&env, &iso))| (b.budget_hi, env.min(iso).clamp(0.0, 1.0)))
            .collect()
    }
}

/// Weighted isotonic regression (non-decreasing) by pool-adjacent-violators:
/// returns the closest (weighted least-squares) non-decreasing sequence to
/// `values`.
fn pava_non_decreasing(values: &[f64], weights: &[f64]) -> Vec<f64> {
    debug_assert_eq!(values.len(), weights.len());
    // blocks of (weight sum, weighted value sum, member count)
    let mut blocks: Vec<(f64, f64, usize)> = Vec::with_capacity(values.len());
    for (&v, &w) in values.iter().zip(weights) {
        blocks.push((w, w * v, 1));
        while blocks.len() >= 2 {
            let (w2, s2, c2) = blocks[blocks.len() - 1];
            let (w1, s1, c1) = blocks[blocks.len() - 2];
            if s1 / w1 > s2 / w2 {
                blocks.truncate(blocks.len() - 2);
                blocks.push((w1 + w2, s1 + s2, c1 + c2));
            } else {
                break;
            }
        }
    }
    let mut out = Vec::with_capacity(values.len());
    for (w, s, c) in blocks {
        out.extend(std::iter::repeat_n(s / w, c));
    }
    out
}

/// The thread-safe per-fingerprint curve store (see the module docs).
#[derive(Debug, Default)]
pub struct CurveStore {
    curves: Mutex<BTreeMap<u128, Curve>>,
}

impl CurveStore {
    /// An empty store.
    pub fn new() -> CurveStore {
        CurveStore::default()
    }

    /// Absorbs one observation: the query `fingerprint`, the catalog
    /// `version` it executed against, the tuple `budget` and the achieved
    /// `eta`. `_spent` keeps the call shape of the benchmark probe that
    /// drives the store; nothing reads it. An observation from a newer
    /// catalog version resets the fingerprint's curve; zero budgets and
    /// non-finite η are ignored.
    pub fn observe(&self, fingerprint: u128, version: u64, budget: usize, eta: f64, _spent: usize) {
        if budget == 0 || !eta.is_finite() {
            return;
        }
        let mut curves = self.curves.lock().expect("curve store poisoned");
        if !curves.contains_key(&fingerprint) && curves.len() >= MAX_FINGERPRINTS {
            // deterministic eviction: drop the least-observed curve, ties on
            // the smaller fingerprint
            if let Some(victim) = curves
                .iter()
                .min_by_key(|(fp, c)| (c.observations, **fp))
                .map(|(fp, _)| *fp)
            {
                curves.remove(&victim);
            }
        }
        let curve = curves.entry(fingerprint).or_default();
        if curve.version != version {
            *curve = Curve {
                version,
                ..Curve::default()
            };
        }
        curve.observe(budget, eta);
    }

    /// The smallest observed budget predicted to reach `eta` for
    /// `fingerprint` under catalog `version`, considering only budgets
    /// `≤ max_budget`; `None` when the store has no such budget.
    pub fn plan_budget(
        &self,
        fingerprint: u128,
        version: u64,
        eta: f64,
        max_budget: usize,
    ) -> Option<usize> {
        let curves = self.curves.lock().expect("curve store poisoned");
        let curve = curves.get(&fingerprint)?;
        if curve.version != version {
            return None;
        }
        curve
            .fitted()
            .iter()
            .find(|&&(budget_hi, fit)| fit >= eta && budget_hi <= max_budget as u64)
            .map(|&(budget_hi, _)| budget_hi as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const FP: u128 = 0xfeed_beef_cafe;

    /// The fitted η at `budget`: the fit of the largest observed bucket at or
    /// below it, `None` below every bucket or for a stale version.
    fn predicted(store: &CurveStore, fp: u128, version: u64, budget: usize) -> Option<f64> {
        let curves = store.curves.lock().unwrap();
        let curve = curves.get(&fp).filter(|c| c.version == version)?;
        let idx = curve
            .buckets
            .range(..=bucket_key(budget))
            .count()
            .checked_sub(1)?;
        curve.fitted().get(idx).map(|&(_, eta)| eta)
    }

    #[test]
    fn pava_is_non_decreasing_and_preserves_monotone_input() {
        let fit = pava_non_decreasing(&[0.1, 0.5, 0.9], &[1.0, 1.0, 1.0]);
        assert_eq!(fit, vec![0.1, 0.5, 0.9]);
        let fit = pava_non_decreasing(&[0.9, 0.1, 0.5], &[1.0, 1.0, 1.0]);
        for w in fit.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "{fit:?} not monotone");
        }
        // violator pooling averages by weight
        let fit = pava_non_decreasing(&[0.8, 0.2], &[1.0, 3.0]);
        assert!((fit[0] - 0.35).abs() < 1e-12 && (fit[1] - 0.35).abs() < 1e-12);
    }

    #[test]
    fn cold_store_predicts_nothing() {
        let store = CurveStore::new();
        assert_eq!(predicted(&store, FP, 0, 1000), None);
        assert_eq!(store.plan_budget(FP, 0, 0.9, usize::MAX), None);
    }

    #[test]
    fn fitted_curve_is_monotone_non_decreasing_in_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let store = CurveStore::new();
        for _ in 0..200 {
            let budget = rng.gen_range(1..100_000usize);
            let eta: f64 = rng.gen_range(0.0f64..1.0);
            store.observe(FP, 3, budget, eta, budget);
        }
        let mut last = 0.0f64;
        for budget in (1..100_000).step_by(91) {
            if let Some(eta) = predicted(&store, FP, 3, budget) {
                assert!(
                    eta + 1e-12 >= last,
                    "prediction decreased at budget {budget}: {eta} < {last}"
                );
                last = eta;
            }
        }
    }

    #[test]
    fn predictions_are_conservative_at_observed_budgets() {
        // on a deterministic ground truth, the prediction at any observed
        // budget never exceeds the η that was achieved there
        let mut rng = StdRng::seed_from_u64(11);
        let store = CurveStore::new();
        let truth = |b: usize| (b as f64 / 50_000.0).min(1.0).powf(0.3);
        let mut observed = Vec::new();
        for _ in 0..300 {
            let budget = rng.gen_range(1..80_000usize);
            store.observe(FP, 1, budget, truth(budget), budget / 2);
            observed.push(budget);
        }
        for &budget in &observed {
            let p = predicted(&store, FP, 1, budget).expect("observed budget");
            assert!(
                p <= truth(budget) + 1e-9,
                "over-promised at {budget}: predicted {p}, achieved {}",
                truth(budget)
            );
        }
    }

    #[test]
    fn plan_budget_returns_minimal_observed_budget_reaching_target() {
        let store = CurveStore::new();
        for (budget, eta) in [(100, 0.3), (1_000, 0.8), (10_000, 0.96), (100_000, 1.0)] {
            store.observe(FP, 2, budget, eta, budget);
        }
        assert_eq!(store.plan_budget(FP, 2, 0.95, usize::MAX), Some(10_000));
        assert_eq!(store.plan_budget(FP, 2, 0.5, usize::MAX), Some(1_000));
        assert_eq!(store.plan_budget(FP, 2, 1.0, usize::MAX), Some(100_000));
        // the cap excludes the only qualifying budgets
        assert_eq!(store.plan_budget(FP, 2, 0.95, 5_000), None);
        // a different fingerprint is cold
        assert_eq!(store.plan_budget(FP + 1, 2, 0.5, usize::MAX), None);
    }

    #[test]
    fn catalog_version_change_resets_the_curve() {
        let store = CurveStore::new();
        store.observe(FP, 1, 1_000, 0.9, 500);
        assert_eq!(store.plan_budget(FP, 1, 0.9, usize::MAX), Some(1_000));
        // stale-version queries see a cold store
        assert_eq!(store.plan_budget(FP, 2, 0.9, usize::MAX), None);
        assert_eq!(predicted(&store, FP, 2, 1_000), None);
        // an observation at the new version resets (old evidence dropped)
        store.observe(FP, 2, 10, 0.1, 10);
        assert_eq!(store.plan_budget(FP, 1, 0.9, usize::MAX), None);
        assert_eq!(store.plan_budget(FP, 2, 0.9, usize::MAX), None);
        assert_eq!(predicted(&store, FP, 2, 10_000), Some(0.1));
    }

    #[test]
    fn observations_below_prediction_budget_stay_cold() {
        let store = CurveStore::new();
        store.observe(FP, 0, 10_000, 0.9, 9_000);
        // predicting below every observed bucket must not extrapolate down
        assert_eq!(predicted(&store, FP, 0, 10), None);
        assert!(predicted(&store, FP, 0, 10_000).is_some());
    }

    #[test]
    fn eviction_keeps_the_store_bounded_and_deterministic() {
        let store = CurveStore::new();
        for fp in 0..(MAX_FINGERPRINTS as u128 + 8) {
            // later fingerprints get more observations than earlier ones
            for _ in 0..=(fp % 4) {
                store.observe(fp, 0, 1_000, 0.5, 100);
            }
        }
        assert!(store.curves.lock().unwrap().len() <= MAX_FINGERPRINTS);
    }
}
