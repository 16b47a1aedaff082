//! Budget-proportional split of a plan's resolved tuple budget across shards.
//!
//! The coordinator resolves a query's budget once (`B = max(budget, tariff)`,
//! exactly what a single node enforces) and splits it so that:
//!
//! 1. every shard receives **at least the tariff of the plan nodes it owns**
//!    — a shard whose proportional share would round to 0 tuples still gets
//!    enough budget to contribute its exact small levels (the rounding bug
//!    class where tiny partitions silently return nothing);
//! 2. the remaining slack `B − tariff(ξ_α)` is distributed in proportion to
//!    shard fragment (partition) sizes by the **largest-remainder method**,
//!    so the integer shares always sum to exactly `B` — no tuple of the
//!    resolved budget is lost to rounding, none is minted.
//!
//! Since a node's actual fetch can never exceed its estimated tariff (the
//! estimate upper-bounds keys × `N` and caps at the level's stored tuples),
//! a shard enforcing its share can never trip its budget while executing the
//! plan a single node could execute under `B`.

use beas_access::Catalog;
use beas_core::BoundedPlan;

use crate::error::{ClusterError, Result};

/// The resolved budget split of one plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetSplit {
    /// The total the shares sum to: `max(plan.budget, plan.tariff)` — the
    /// same number a single node enforces for this plan.
    pub resolved: usize,
    /// Per-shard estimated tariff of the plan nodes the shard owns.
    pub tariffs: Vec<usize>,
    /// Per-shard budget share (`tariffs[s] ≤ shares[s]`, `Σ shares = resolved`).
    pub shares: Vec<usize>,
}

/// Splits `plan`'s resolved budget across `weights.len()` shards.
///
/// `family_owner[f]` is the shard owning family `f`; `weights[s]` is shard
/// `s`'s fragment size (its partition's tuple count), steering how slack
/// beyond the plan tariff is allocated. All-zero weights fall back to equal
/// weighting.
pub fn split_budget(
    plan: &BoundedPlan,
    catalog: &Catalog,
    family_owner: &[usize],
    weights: &[usize],
) -> Result<BudgetSplit> {
    let shards = weights.len();
    if shards == 0 {
        return Err(ClusterError::Config("no shards to split over".to_string()));
    }
    let resolved = plan.budget.max(plan.tariff);
    let mut tariffs = vec![0usize; shards];
    let node_tariffs = plan.fetch.node_tariffs(catalog)?;
    for (node, &tariff) in plan.fetch.nodes.iter().zip(&node_tariffs) {
        let owner = family_owner.get(node.family).copied().ok_or_else(|| {
            ClusterError::Config(format!("family {} has no owning shard", node.family))
        })?;
        if owner >= shards {
            return Err(ClusterError::Config(format!(
                "family {} owned by shard {owner} of {shards}",
                node.family
            )));
        }
        tariffs[owner] = tariffs[owner].saturating_add(tariff);
    }
    let total_tariff: usize = tariffs.iter().fold(0usize, |a, &t| a.saturating_add(t));
    let slack = resolved.saturating_sub(total_tariff);
    let slack_shares = largest_remainder(slack, weights);
    let shares: Vec<usize> = tariffs
        .iter()
        .zip(&slack_shares)
        .map(|(&t, &s)| t + s)
        .collect();
    Ok(BudgetSplit {
        resolved,
        tariffs,
        shares,
    })
}

/// Integer apportionment of `total` over `weights` by the largest-remainder
/// method: exact quotas are floored, then the leftover units go to the
/// largest fractional remainders (ties to the lower index), so the result
/// always sums to exactly `total` and is deterministic.
fn largest_remainder(total: usize, weights: &[usize]) -> Vec<usize> {
    let n = weights.len();
    let weight_sum: u128 = weights.iter().map(|&w| w as u128).sum();
    // all-zero weights: apportion over equal weights instead
    let ones = vec![1usize; n];
    let (weights, weight_sum) = if weight_sum == 0 {
        (&ones[..], n as u128)
    } else {
        (weights, weight_sum)
    };
    let mut shares = vec![0usize; n];
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let numerator = total as u128 * w as u128;
        shares[i] = (numerator / weight_sum) as usize;
        assigned += shares[i];
        remainders.push((numerator % weight_sum, i));
    }
    // hand the leftover units to the largest remainders, lowest index first
    // on ties — deterministic, and leftover < n by construction
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for k in 0..total - assigned {
        shares[remainders[k].1] += 1;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_remainder_sums_exactly_for_awkward_totals() {
        for total in [0usize, 1, 7, 99, 100, 101, 1000003] {
            for weights in [
                vec![1usize, 1, 1],
                vec![3, 1, 0],
                vec![0, 0, 0],
                vec![999_999, 1, 1],
                vec![2],
            ] {
                let shares = largest_remainder(total, &weights);
                assert_eq!(
                    shares.iter().sum::<usize>(),
                    total,
                    "total={total} weights={weights:?} shares={shares:?}"
                );
            }
        }
    }

    #[test]
    fn largest_remainder_is_proportional_and_deterministic() {
        let shares = largest_remainder(10, &[5, 3, 2]);
        assert_eq!(shares, vec![5, 3, 2]);
        // 7 over [1,1,1]: 2+2+2 floored, leftover 1 goes to the lowest index
        // (all remainders equal)
        assert_eq!(largest_remainder(7, &[1, 1, 1]), vec![3, 2, 2]);
    }
}
