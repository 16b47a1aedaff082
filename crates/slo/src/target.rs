//! [`AccuracyTarget`]: the accuracy-denominated request vocabulary.
//!
//! Where a [`ResourceSpec`] says "spend at most this," an accuracy target
//! says "reach at least this η, as cheap as possible, spending at most
//! `max_budget`." The canonical textual form is `eta:<η>` with an optional
//! budget cap, `eta:<η>@<spec>` — e.g. `eta:0.95` or `eta:0.9@ratio:0.5` —
//! and round-trips through [`std::str::FromStr`] exactly like the spec
//! grammar it sits beside on the wire.

use std::fmt;

use beas_access::{AccessError, ResourceSpec, Result};

/// An accuracy service-level objective for one query: the minimum acceptable
/// accuracy lower bound η, plus the most the caller is willing to spend
/// reaching it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyTarget {
    /// The target accuracy lower bound, `η ∈ (0, 1]`.
    pub eta: f64,
    /// The budget ceiling: the planner never resolves a spec above it, and an
    /// answer that still misses `eta` at this budget is flagged infeasible
    /// rather than escalated further. Defaults to [`ResourceSpec::FULL`].
    pub max_budget: ResourceSpec,
}

impl AccuracyTarget {
    /// A validated target with the default (full) budget ceiling. Rejects
    /// non-finite values and `η ∉ (0, 1]`.
    pub fn new(eta: f64) -> Result<Self> {
        let target = AccuracyTarget {
            eta,
            max_budget: ResourceSpec::FULL,
        };
        target.validate()?;
        Ok(target)
    }

    /// Replaces the budget ceiling (validating the spec).
    pub fn with_max_budget(mut self, spec: ResourceSpec) -> Result<Self> {
        spec.validate()?;
        self.max_budget = spec;
        Ok(self)
    }

    /// Checks the target: η must be finite and within `(0, 1]` (a target of
    /// zero is vacuous — every answer meets it — so it is rejected the same
    /// way out-of-range ratios are), and the budget cap must be a valid spec.
    pub fn validate(&self) -> Result<()> {
        if !self.eta.is_finite() || self.eta <= 0.0 || self.eta > 1.0 {
            let eta = self.eta;
            return Err(AccessError::InvalidSpec(format!(
                "accuracy target must be a finite number in (0, 1], got `{eta}`"
            )));
        }
        self.max_budget.validate()
    }
}

impl fmt::Display for AccuracyTarget {
    /// The canonical textual form, `eta:<η>` or `eta:<η>@<spec>` — shared by
    /// the serving wire protocol and the bench CLIs, and guaranteed to
    /// round-trip through the [`std::str::FromStr`] impl.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let eta = self.eta;
        if self.max_budget == ResourceSpec::FULL {
            write!(f, "eta:{eta}")
        } else {
            write!(f, "eta:{eta}@{}", self.max_budget)
        }
    }
}

impl std::str::FromStr for AccuracyTarget {
    type Err = AccessError;

    /// Parses `eta:<η>` / `eta:<η>@<spec>` (e.g. `eta:0.95`,
    /// `eta:0.9@tuples:500`), validating the value: η must be finite and
    /// within `(0, 1]`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let Some((kind, value)) = s.split_once(':') else {
            return Err(AccessError::InvalidSpec(format!(
                "expected `eta:<target>` (optionally `eta:<target>@<spec>`), got `{s}`"
            )));
        };
        match kind.trim() {
            "eta" => {
                let value = value.trim();
                let (eta_str, cap) = match value.split_once('@') {
                    Some((eta_str, cap)) => (eta_str.trim(), Some(cap.trim())),
                    None => (value, None),
                };
                // the same message whether the value fails to parse or parses
                // out of range: name the offending value and the valid range
                let eta: f64 = eta_str.parse().map_err(|_| {
                    AccessError::InvalidSpec(format!(
                        "accuracy target must be a finite number in (0, 1], got `{eta_str}`"
                    ))
                })?;
                let target = AccuracyTarget::new(eta)?;
                match cap {
                    Some(cap) => target.with_max_budget(cap.parse()?),
                    None => Ok(target),
                }
            }
            other => Err(AccessError::InvalidSpec(format!(
                "unknown accuracy target kind `{other}` (expected `eta`)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(AccuracyTarget::new(0.5).is_ok());
        assert!(AccuracyTarget::new(1.0).is_ok());
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            assert!(AccuracyTarget::new(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let plain = AccuracyTarget::new(0.95).unwrap();
        assert_eq!(plain.to_string(), "eta:0.95");
        let capped = AccuracyTarget::new(0.9)
            .unwrap()
            .with_max_budget(ResourceSpec::Tuples(500))
            .unwrap();
        assert_eq!(capped.to_string(), "eta:0.9@tuples:500");
        for target in [
            plain,
            capped,
            AccuracyTarget::new(1.0).unwrap(),
            AccuracyTarget::new(0.5)
                .unwrap()
                .with_max_budget(ResourceSpec::Ratio(0.25))
                .unwrap(),
        ] {
            let parsed: AccuracyTarget = target.to_string().parse().unwrap();
            assert_eq!(parsed, target, "round-trip of {target}");
        }
    }

    #[test]
    fn bad_eta_errors_name_the_value_and_the_range_consistently() {
        // the same shape whether the target fails to parse, parses out of
        // range, or is rejected by the typed constructor — the serve
        // front-end surfaces these verbatim, matching the `ratio:` error
        // idiom
        for (input, offending) in [
            ("eta:x", "x"),
            ("eta:1.5", "1.5"),
            ("eta:0", "0"),
            ("eta:-0.2", "-0.2"),
            ("eta:nan", "NaN"),
        ] {
            let msg = input.parse::<AccuracyTarget>().unwrap_err().to_string();
            assert!(msg.contains("(0, 1]"), "`{input}` → {msg}");
            assert!(msg.contains(&format!("`{offending}`")), "`{input}` → {msg}");
        }
        let msg = AccuracyTarget::new(-0.25).unwrap_err().to_string();
        assert!(msg.contains("(0, 1]") && msg.contains("`-0.25`"), "{msg}");
        // a bad budget cap reports through the spec grammar's own errors
        let msg = "eta:0.9@ratio:1.5"
            .parse::<AccuracyTarget>()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("[0, 1]") && msg.contains("`1.5`"), "{msg}");
    }

    #[test]
    fn from_str_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            " eta: 0.25 ".parse::<AccuracyTarget>().unwrap(),
            AccuracyTarget::new(0.25).unwrap()
        );
        assert_eq!(
            "eta:0.9 @ tuples:64".parse::<AccuracyTarget>().unwrap(),
            AccuracyTarget::new(0.9)
                .unwrap()
                .with_max_budget(ResourceSpec::Tuples(64))
                .unwrap()
        );
        for bad in [
            "",
            "0.95",
            "eta",
            "eta:",
            "eta:x",
            "eta:1.5",
            "eta:-0.1",
            "eta:inf",
            "eta:0.9@",
            "eta:0.9@pct:10",
            "ratio:0.5",
            "target:0.9",
        ] {
            assert!(bad.parse::<AccuracyTarget>().is_err(), "`{bad}` accepted");
        }
    }
}
