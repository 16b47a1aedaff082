//! `beas-benchmark`: see the crate documentation and `README.md`.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use beas_benchmark::cli::{self, Command, RunArgs};
use beas_benchmark::compare;
use beas_benchmark::report::{pinned_digest, Manifest, Report};
use beas_benchmark::workloads::{self, Ctx};
use beas_serve::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Err(e) => Err(format!("{e}\n{}", cli::USAGE)),
        Ok(Command::Compare {
            baseline,
            candidate,
        }) => compare::run(&Manifest::load(), &baseline, &candidate),
        Ok(Command::Run(run)) => match &run.workload {
            Some(workload) => run_workload(workload, &run),
            None => run_all(&args),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("beas-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The per-process scratch directory, removed on drop — also when the run
/// fails or panics.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload in this process and prints its metrics; the last line
/// of standard output is the result object. `Ok(false)` when the run was
/// incorrect.
fn run_workload(workload: &str, run: &RunArgs) -> Result<bool, String> {
    let manifest = Manifest::load();
    if !manifest.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json names {}",
            manifest.workloads.join(", ")
        ));
    }
    // everything the benchmark writes stays under its own directory
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create scratch: {e}"))?;
    let ctx = Ctx {
        seed: run.seed,
        seconds: run.seconds.unwrap_or(manifest.run_seconds),
        trace: run.trace,
        smoke: run.smoke,
        out_dir,
        scratch: scratch.0.clone(),
    };

    let mut report = Report::default();
    if let Err(e) = workloads::run(workload, &ctx, &mut report) {
        report.op(Err(e));
    }
    drop(scratch);
    // pins are taken at full size and the manifest's run length (the
    // open-loop schedule is as long as the run)
    if !run.smoke && ctx.seconds == manifest.run_seconds {
        if let Some(pinned) = pinned_digest(workload, run.seed) {
            if pinned != report.input_digest {
                report.fail(format!(
                    "input_digest {:016x} differs from the pinned {pinned:016x}: \
                     the generators changed, so runs are not comparable",
                    report.input_digest
                ));
            }
        }
    }
    let declared = if run.trace {
        // a layer this workload never enters has done no work
        for decl in &manifest.per_layer {
            if report.get(&decl.name).is_none() {
                report.set(&decl.name, 0.0);
            }
        }
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    let result = report.to_json(declared);

    println!(
        "workload {workload}  seed {}  trace {}  input_digest {:016x}",
        run.seed,
        u8::from(run.trace),
        report.input_digest
    );
    for (key, value) in &report.notes {
        println!("  # {key}: {value}");
    }
    for decl in declared {
        if let Some(value) = report.get(&decl.name) {
            println!("  {:<46} {:>16.6} {}", decl.name, value, decl.unit);
        }
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    if let Some(path) = &run.out {
        let line = Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Int(run.seed as i64)),
            ("trace", Json::Bool(run.trace)),
            (
                "input_digest",
                Json::Str(format!("{:016x}", report.input_digest)),
            ),
            ("result", result.clone()),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(report.failed == 0)
}

/// Runs every workload of the manifest, each in a child process of its own
/// so that `peak_rss_mb` and `setup_s` are per workload. `Ok(false)` when
/// any of them failed.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut all_correct = true;
    for workload in Manifest::load().workloads {
        let status = std::process::Command::new(&exe)
            .args(["--workload", &workload])
            .args(args)
            .status()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}
