//! Typed resource specifications: the budget vocabulary shared by the BEAS
//! engine, the planner, the bench harness and the baselines.
//!
//! The paper expresses resource bounds as a ratio `α ∈ (0, 1]` of the database
//! size (`B = α·|D|`, Sec. 2.2). Serving systems more often think in absolute
//! tuple budgets, and a bare `f64` invites out-of-range values (the seed
//! accepted `α = -3.0` and silently granted one tuple of access). A
//! [`ResourceSpec`] makes the unit explicit and validates the value once, at
//! the API boundary; a [`BudgetPolicy`] controls how a spec resolves to a
//! concrete tuple budget for one database.

use std::fmt;

use crate::error::{AccessError, Result};

/// A validated resource bound for one query: either a fraction of `|D|` or an
/// absolute number of tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResourceSpec {
    /// A resource ratio `α ∈ [0, 1]`: the plan may access at most `α·|D|`
    /// tuples. `Ratio(0.0)` means a zero budget — no access at all.
    Ratio(f64),
    /// An absolute tuple budget.
    Tuples(usize),
}

impl ResourceSpec {
    /// The full-access spec (`α = 1`): every boundedly evaluable query is
    /// answered exactly under it.
    pub const FULL: ResourceSpec = ResourceSpec::Ratio(1.0);

    /// A validated ratio spec. Rejects non-finite values and `α ∉ [0, 1]`.
    pub fn ratio(alpha: f64) -> Result<Self> {
        let spec = ResourceSpec::Ratio(alpha);
        spec.validate()?;
        Ok(spec)
    }

    /// An absolute tuple budget (always valid).
    pub const fn tuples(n: usize) -> Self {
        ResourceSpec::Tuples(n)
    }

    /// Checks the spec: ratios must be finite and within `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        match self {
            ResourceSpec::Ratio(a) if !a.is_finite() || *a < 0.0 || *a > 1.0 => {
                Err(AccessError::InvalidSpec(format!(
                    "resource ratio must be a finite number in [0, 1], got `{a}`"
                )))
            }
            _ => Ok(()),
        }
    }

    /// `true` when the spec resolves to a zero budget regardless of `|D|`.
    pub fn is_zero(&self) -> bool {
        matches!(self, ResourceSpec::Ratio(a) if *a == 0.0)
            || matches!(self, ResourceSpec::Tuples(0))
    }

    /// Resolves the spec to a tuple budget for a database of `db_size` tuples
    /// under `policy`. Invalid specs are an error; a zero spec resolves to a
    /// zero budget (no access authorized).
    pub fn budget(&self, db_size: usize, policy: &BudgetPolicy) -> Result<usize> {
        self.validate()?;
        let raw = match self {
            ResourceSpec::Ratio(a) if *a == 0.0 => 0,
            // a non-zero ratio always allows at least `min_tuples` accesses so
            // that tiny α on tiny data can still fetch something
            ResourceSpec::Ratio(a) => {
                ((a * db_size as f64).floor() as usize).max(policy.min_tuples)
            }
            ResourceSpec::Tuples(n) => *n,
        };
        Ok(match policy.cap {
            Some(cap) => raw.min(cap),
            None => raw,
        })
    }
}

impl From<usize> for ResourceSpec {
    fn from(n: usize) -> Self {
        ResourceSpec::Tuples(n)
    }
}

impl fmt::Display for ResourceSpec {
    /// The canonical textual form, `ratio:<alpha>` or `tuples:<n>` — shared by
    /// the serving wire protocol and the bench CLIs, and guaranteed to
    /// round-trip through the [`std::str::FromStr`] impl.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceSpec::Ratio(a) => write!(f, "ratio:{a}"),
            ResourceSpec::Tuples(n) => write!(f, "tuples:{n}"),
        }
    }
}

impl std::str::FromStr for ResourceSpec {
    type Err = AccessError;

    /// Parses the canonical `ratio:<alpha>` / `tuples:<n>` form (e.g.
    /// `ratio:0.1`, `tuples:500`), validating the value: ratios must be finite
    /// and within `[0, 1]`, tuple counts must be non-negative integers.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let Some((kind, value)) = s.split_once(':') else {
            return Err(AccessError::InvalidSpec(format!(
                "expected `ratio:<alpha>` or `tuples:<n>`, got `{s}`"
            )));
        };
        match kind.trim() {
            "ratio" => {
                // the same message whether the value fails to parse or parses
                // out of range: name the offending value and the valid range
                let value = value.trim();
                let alpha: f64 = value.parse().map_err(|_| {
                    AccessError::InvalidSpec(format!(
                        "resource ratio must be a finite number in [0, 1], got `{value}`"
                    ))
                })?;
                ResourceSpec::ratio(alpha)
            }
            "tuples" => {
                let value = value.trim();
                let n: usize = value.parse().map_err(|_| {
                    AccessError::InvalidSpec(format!(
                        "tuple budget must be a non-negative integer, got `{value}`"
                    ))
                })?;
                Ok(ResourceSpec::Tuples(n))
            }
            other => Err(AccessError::InvalidSpec(format!(
                "unknown resource spec kind `{other}` (expected `ratio` or `tuples`)"
            ))),
        }
    }
}

/// How a [`ResourceSpec`] resolves to a concrete tuple budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPolicy {
    /// Minimum budget granted to any *non-zero* ratio spec (default 1), so
    /// `α·|D| < 1` still allows one access. Zero specs are never rounded up.
    pub min_tuples: usize,
    /// Hard upper bound on any resolved budget (e.g. a per-request ceiling for
    /// multi-tenant serving). `None` disables the cap.
    pub cap: Option<usize>,
}

impl Default for BudgetPolicy {
    fn default() -> Self {
        BudgetPolicy {
            min_tuples: 1,
            cap: None,
        }
    }
}

impl BudgetPolicy {
    /// A policy with a hard budget ceiling.
    pub fn capped(cap: usize) -> Self {
        BudgetPolicy {
            cap: Some(cap),
            ..BudgetPolicy::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_validation_rejects_out_of_range() {
        assert!(ResourceSpec::ratio(0.5).is_ok());
        assert!(ResourceSpec::ratio(0.0).is_ok());
        assert!(ResourceSpec::ratio(1.0).is_ok());
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            assert!(ResourceSpec::ratio(bad).is_err(), "{bad} accepted");
            assert!(ResourceSpec::Ratio(bad)
                .budget(100, &BudgetPolicy::default())
                .is_err());
        }
    }

    #[test]
    fn zero_ratio_means_zero_budget() {
        let policy = BudgetPolicy::default();
        assert_eq!(ResourceSpec::Ratio(0.0).budget(1000, &policy).unwrap(), 0);
        assert!(ResourceSpec::Ratio(0.0).is_zero());
        assert!(ResourceSpec::Tuples(0).is_zero());
        assert!(!ResourceSpec::Ratio(1e-9).is_zero());
    }

    #[test]
    fn nonzero_ratio_gets_at_least_min_tuples() {
        let policy = BudgetPolicy::default();
        assert_eq!(ResourceSpec::Ratio(1e-9).budget(1000, &policy).unwrap(), 1);
        assert_eq!(ResourceSpec::Ratio(0.5).budget(1000, &policy).unwrap(), 500);
        assert_eq!(ResourceSpec::FULL.budget(1000, &policy).unwrap(), 1000);
    }

    #[test]
    fn tuple_specs_pass_through_and_cap_applies() {
        let policy = BudgetPolicy::capped(64);
        assert_eq!(ResourceSpec::Tuples(32).budget(10, &policy).unwrap(), 32);
        assert_eq!(ResourceSpec::Tuples(1000).budget(10, &policy).unwrap(), 64);
        assert_eq!(ResourceSpec::Ratio(1.0).budget(1000, &policy).unwrap(), 64);
        let spec: ResourceSpec = 17usize.into();
        assert_eq!(spec, ResourceSpec::Tuples(17));
    }

    #[test]
    fn display_round_trips_through_from_str() {
        assert_eq!(ResourceSpec::Ratio(0.05).to_string(), "ratio:0.05");
        assert_eq!(ResourceSpec::Tuples(200).to_string(), "tuples:200");
        for spec in [
            ResourceSpec::Ratio(0.0),
            ResourceSpec::Ratio(0.1),
            ResourceSpec::FULL,
            ResourceSpec::Tuples(0),
            ResourceSpec::Tuples(12345),
        ] {
            let parsed: ResourceSpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec, "round-trip of {spec}");
        }
    }

    #[test]
    fn bad_ratio_errors_name_the_value_and_the_range_consistently() {
        // the same shape whether the ratio fails to parse, parses out of
        // range, or is rejected by the typed constructor — clients (the
        // serve front-end, the `figures` CLI) surface these verbatim
        // `nan` parses as an f64 and is rejected by validation, echoed as `NaN`
        for (input, offending) in [("ratio:x", "x"), ("ratio:1.5", "1.5"), ("ratio:nan", "NaN")] {
            let msg = input.parse::<ResourceSpec>().unwrap_err().to_string();
            assert!(msg.contains("[0, 1]"), "`{input}` → {msg}");
            assert!(msg.contains(&format!("`{offending}`")), "`{input}` → {msg}");
        }
        let msg = ResourceSpec::ratio(-0.25).unwrap_err().to_string();
        assert!(msg.contains("[0, 1]") && msg.contains("`-0.25`"), "{msg}");
        let msg = "tuples:-3".parse::<ResourceSpec>().unwrap_err().to_string();
        assert!(
            msg.contains("non-negative") && msg.contains("`-3`"),
            "{msg}"
        );
    }

    #[test]
    fn from_str_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            " ratio: 0.25 ".parse::<ResourceSpec>().unwrap(),
            ResourceSpec::Ratio(0.25)
        );
        assert_eq!(
            "tuples:500".parse::<ResourceSpec>().unwrap(),
            ResourceSpec::Tuples(500)
        );
        for bad in [
            "",
            "0.1",
            "500t",
            "ratio",
            "ratio:",
            "ratio:x",
            "ratio:1.5",
            "ratio:-0.1",
            "ratio:nan",
            "ratio:inf",
            "tuples:-3",
            "tuples:1.5",
            "pct:10",
        ] {
            assert!(bad.parse::<ResourceSpec>().is_err(), "`{bad}` accepted");
        }
    }
}
