//! `--compare BASELINE CANDIDATE`: applies the manifest's bounds to two
//! sets of runs (files written by `--out`, one JSON line per run) and prints
//! one verdict per end-to-end metric and workload.

use std::collections::BTreeMap;
use std::path::Path;

use beas_serve::{parse_json, Json};

use crate::report::Manifest;
use crate::stats;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's definition of a metric's spread).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: f64| {
        // exclusive method: position k·(n+1)/4, 1-based, clamped, interpolated
        let pos = (k * (n as f64 + 1.0) / 4.0).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    (at(1.0), at(3.0))
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better by more than the baseline's spread.
    Better,
    /// No worse than the bound allows (and not provably better).
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The baseline's own run-to-run spread exceeds the bound, so the bound
    /// cannot tell a regression from noise.
    Unresolved,
}

/// Judges a candidate against a baseline under `bound` (a share of the
/// baseline median).
pub fn verdict(baseline: &[f64], candidate: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let base = stats::median(baseline);
    let cand = stats::median(candidate);
    let scale = base.abs().max(f64::MIN_POSITIVE);
    let (q1, q3) = quartiles(baseline);
    let spread = (q3 - q1) / scale;
    let worse_by = if higher_is_better {
        (base - cand) / scale
    } else {
        (cand - base) / scale
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `(workload, metric) → values`, and `(workload, seed) → input digest`.
#[derive(Debug, Default)]
struct Runs {
    values: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<(String, i64), String>,
    incorrect: usize,
}

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let doc = parse_json(line).map_err(|e| bad(&e.to_string()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            runs.incorrect += 1;
        }
        if let (Some(seed), Some(digest)) = (
            doc.get("seed").and_then(Json::as_i64),
            doc.get("input_digest").and_then(Json::as_str),
        ) {
            runs.digests
                .insert((workload.to_string(), seed), digest.to_string());
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without a value"))?;
            runs.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Prints the comparison; `Ok(true)` when nothing is worse, unresolved,
/// incorrect or run on different inputs.
pub fn run(manifest: &Manifest, baseline: &Path, candidate: &Path) -> Result<bool, String> {
    let base = load(baseline)?;
    let cand = load(candidate)?;
    let mut clean = true;
    println!(
        "{:<16} {:<44} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for ((workload, name), base_values) in &base.values {
        let Some(cand_values) = cand.values.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(decl) = manifest.metric(name) else {
            continue;
        };
        let (b, c) = (stats::median(base_values), stats::median(cand_values));
        let change = if b != 0.0 { (c - b) / b.abs() } else { 0.0 };
        let (bound, judged) = match decl.bound {
            // per-layer metrics carry no bound: they explain, they do not gate
            None => ("-".to_string(), "-".to_string()),
            Some(bound) => {
                let v = verdict(base_values, cand_values, decl.higher_is_better, bound);
                clean &= matches!(v, Verdict::Better | Verdict::WithinBound);
                let text = match v {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED",
                };
                (format!("{bound:.2}"), text.to_string())
            }
        };
        println!(
            "{workload:<16} {name:<44} {b:>12.5} {c:>12.5} {:>+7.1}% {bound:>7}  {judged}",
            change * 100.0
        );
    }
    for (key, digest) in &base.digests {
        if cand.digests.get(key).is_some_and(|d| d != digest) {
            println!(
                "{} seed {}: input_digest differs, the two sides ran different inputs",
                key.0, key.1
            );
            clean = false;
        }
    }
    for (side, runs) in [("baseline", &base), ("candidate", &cand)] {
        if runs.incorrect > 0 {
            println!("{side}: {} incorrect runs", runs.incorrect);
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0];
        assert_eq!(verdict(&base, &[10.1; 5], false, 0.1), Verdict::WithinBound);
        assert_eq!(verdict(&base, &[12.0; 5], false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &[12.0; 5], true, 0.1), Verdict::Better);
        assert_eq!(verdict(&base, &[8.0; 5], false, 0.1), Verdict::Better);
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0];
        assert_eq!(verdict(&noisy, &[10.0; 5], false, 0.1), Verdict::Unresolved);
    }
}
