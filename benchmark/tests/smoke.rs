//! Runs every workload in `--smoke` mode, both untraced and traced, and
//! holds the output to `BENCHMARK.json`: every declared metric exactly
//! once, finite, with the declared unit. Also holds `BENCHMARK.json` itself
//! to the limits of the benchmark contract.

use std::process::Command;

use beas_benchmark::report::{Manifest, MetricDecl};
use beas_serve::{parse_json, Json};

const WORKLOADS: [&str; 5] = [
    "bounded_inproc",
    "plan_cold",
    "serve_http",
    "update_restart",
    "cluster_tcp",
];

fn is_name(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// Runs one smoke workload and returns its result object (the last line of
/// standard output).
fn smoke(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_beas-benchmark"))
        .args(["--smoke", "--workload", workload, "--seconds", "0.4"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json(last).expect("the last line is one JSON object")
}

fn assert_result_matches(result: &Json, declared: &[MetricDecl], context: &str) {
    let Json::Obj(fields) = result else {
        panic!("{context}: the result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{context}: no metrics object")
    };
    // exactly the declared metrics, each once
    let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{context}");
    for decl in declared {
        let metric = result.get("metrics").unwrap().get(&decl.name).unwrap();
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{context}: {} = {value:?}",
            decl.name
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(decl.unit.as_str()),
            "{context}: unit of {}",
            decl.name
        );
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let manifest = Manifest::load();
    assert_eq!(manifest.workloads, WORKLOADS);
    for workload in WORKLOADS {
        let e2e = smoke(workload, 42, false);
        assert_result_matches(&e2e, &manifest.end_to_end, &format!("{workload} untraced"));
        // the contract: an end-to-end metric is never 0
        for decl in &manifest.end_to_end {
            let value = e2e.get("metrics").unwrap().get(&decl.name).unwrap();
            assert_ne!(
                value.get("value").and_then(Json::as_f64),
                Some(0.0),
                "{workload}: {}",
                decl.name
            );
        }
        let traced = smoke(workload, 42, true);
        assert_result_matches(&traced, &manifest.per_layer, &format!("{workload} traced"));
    }
}

#[test]
fn a_second_seed_runs_clean() {
    let manifest = Manifest::load();
    for workload in WORKLOADS {
        let result = smoke(workload, 7, false);
        assert_result_matches(&result, &manifest.end_to_end, &format!("{workload} seed 7"));
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_beas-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs")
    };
    assert_eq!(run(&["--workload", "nonsense"]).status.code(), Some(2));
    assert_eq!(run(&["--trace", "yes"]).status.code(), Some(2));
}

#[test]
fn the_manifest_keeps_to_the_contract() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = parse_json(text).expect("BENCHMARK.json is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect()
    };
    let command = strings("command");
    assert!((1..=32).contains(&command.len()));
    assert!(command.iter().all(|arg| arg.len() <= 200));
    assert!(command
        .iter()
        .all(|arg| !arg.starts_with('/') && !arg.contains("..")));
    let paths = strings("paths");
    assert_eq!(paths, ["benchmark"]);
    assert!(paths.iter().all(|p| is_name(p, 200, "_.-/")));
    let seconds = doc.get("run_seconds").and_then(Json::as_i64).unwrap();
    assert!((1..=60).contains(&seconds));

    let manifest = Manifest::load();
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let Json::Obj(fields) = w else { panic!() };
        assert_eq!(fields.len(), 2);
        assert!(is_name(
            w.get("name").and_then(Json::as_str).unwrap(),
            64,
            "_.-"
        ));
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    assert!((1..=16).contains(&manifest.end_to_end.len()));
    assert!((1..=128).contains(&manifest.per_layer.len()));
    let setup = manifest.metric("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    let mut names: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
    for (decl, end_to_end) in manifest
        .end_to_end
        .iter()
        .map(|d| (d, true))
        .chain(manifest.per_layer.iter().map(|d| (d, false)))
    {
        assert!(is_name(&decl.name, 64, "_.-"), "{}", decl.name);
        assert!(decl.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(is_name(&decl.unit, 16, "_/%.-"), "{}", decl.unit);
        match decl.bound {
            Some(bound) => assert!(end_to_end && (0.0..=0.25).contains(&bound)),
            None => assert!(!end_to_end, "{} has no bound", decl.name),
        }
        names.push(&decl.name);
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}
