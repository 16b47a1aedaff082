//! Command-line arguments.

use std::path::PathBuf;

/// What the binary was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload, or all of them when none is named.
    Run(RunArgs),
    /// `--compare A B`: apply the manifest's bounds to two sets of runs.
    Compare {
        /// Runs of the baseline (a file written by `--out`).
        baseline: PathBuf,
        /// Runs of the candidate.
        candidate: PathBuf,
    },
}

/// Arguments of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--workload NAME`; all workloads, one child process each, when absent.
    pub workload: Option<String>,
    /// `--seed N` (default 42).
    pub seed: u64,
    /// `--seconds S` (default: the manifest's `run_seconds`).
    pub seconds: Option<f64>,
    /// `--trace 0|1` (default 0).
    pub trace: bool,
    /// `--smoke`: tiny sizes.
    pub smoke: bool,
    /// `--out FILE`: append each run's result as one JSON line.
    pub out: Option<PathBuf>,
}

/// The usage text.
pub const USAGE: &str = "usage: beas-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE]\n       beas-benchmark --compare BASELINE.jsonl CANDIDATE.jsonl";

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut run = RunArgs {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--compare" => {
                return Ok(Command::Compare {
                    baseline: value("two files")?.into(),
                    candidate: value("two files")?.into(),
                })
            }
            "--workload" => run.workload = Some(value("a workload name")?),
            "--seed" => {
                run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                run.seconds = Some(seconds);
            }
            "--trace" => {
                run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(value("a file")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(run))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse(&args("--workload plan_cold --seed 7 --seconds 8 --trace 1")).unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected a run")
        };
        assert_eq!(run.workload.as_deref(), Some("plan_cold"));
        assert_eq!((run.seed, run.seconds, run.trace), (7, Some(8.0), true));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }
}
