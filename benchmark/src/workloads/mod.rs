//! The five workloads and what they share: sizes, engine construction,
//! repeated set-up, the closed-loop summary.

pub mod bounded_inproc;
pub mod cluster_tcp;
pub mod plan_cold;
pub mod serve_http;
pub mod update_restart;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use beas_core::{Beas, BeasAnswer, BeasBuilder, BeasQuery, ResourceSpec};

use crate::inputs::{self, Rng};
use crate::report::Report;
use crate::staged;
use crate::stats;
use crate::trace::{self, Fold, Tracer};

/// The tuple budget of every bounded answer unless a workload names another.
pub const BUDGET: ResourceSpec = ResourceSpec::Tuples(2000);

/// Queries whose bounded answer — or, under set difference, whose leaf
/// results — have more rows than this are left out of a pool (see
/// [`staged::answer_if_cheap`]). One such query in a thousand would decide
/// a run's mean and tail, and some take 18 s; the cap also keeps every HTTP
/// response far below `max_response_bytes`.
pub const ROW_CAP: usize = 500;

/// How often a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Queries checked against exact answers per run: a seeded sample of the
/// non-aggregate queries that promise a bound (η > 0). Every check
/// evaluates the query over the whole database several times. Aggregates
/// are left out because sum/count/avg answers miss their η at these data
/// sizes under the RC measure's absolute aggregate-gap term (README,
/// "findings"), and a workload must be one on which no operation fails.
pub const ACCURACY_SAMPLE: usize = 12;

/// The seeded sample of [`ACCURACY_SAMPLE`] (`smoke`: 3) positions of
/// `pool` whose accuracy is checked; `etas` are the bounds the queries
/// reported.
pub fn accuracy_sample(ctx: &Ctx, pool: &[BeasQuery], etas: &[f64]) -> Vec<usize> {
    let eligible: Vec<usize> = (0..pool.len())
        .filter(|&i| !pool[i].is_aggregate() && etas[i] > 0.0)
        .collect();
    let picks = inputs::sample_indices(
        eligible.len(),
        ctx.size(ACCURACY_SAMPLE, 3),
        &mut ctx.rng(0xacc),
    );
    picks.into_iter().map(|i| eligible[i]).collect()
}

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1`: drive the pipeline stage by stage, record spans, report
    /// per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `--smoke`: tiny sizes, for the tests.
    pub smoke: bool,
    /// Where trace files go.
    pub out_dir: PathBuf,
    /// Per-process directory for store files, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A random stream of this run's seed.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed, stream)
    }
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match name {
        "bounded_inproc" => bounded_inproc::run(ctx, report),
        "plan_cold" => plan_cold::run(ctx, report),
        "serve_http" => serve_http::run(ctx, report),
        "update_restart" => update_restart::run(ctx, report),
        "cluster_tcp" => cluster_tcp::run(ctx, report),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Sets up [`SETUPS`] times (once under `--smoke` or `--trace 1`, which do
/// not report `setup_s`), dropping each result before the next so peak
/// memory is that of one set-up. Returns the last result and the median
/// set-up time.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let rounds = if ctx.smoke || ctx.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        drop(last.take());
        let (built, s) = timed(&mut setup);
        times.push(s);
        last = Some(built?);
    }
    Ok((last.expect("at least one set-up"), stats::median(&times)))
}

/// An engine built with library defaults over [`inputs::dataset`].
#[derive(Debug, Clone)]
pub struct Engine {
    /// The engine.
    pub beas: Arc<Beas>,
    /// The dataset's scale factor.
    pub scale: usize,
    /// Seconds the offline build took (data generation excluded).
    pub build_s: f64,
}

impl Engine {
    /// Generates the dataset at `scale` and builds the engine over it.
    pub fn build(scale: usize) -> Result<Engine, String> {
        Engine::build_with(scale, |builder| builder)
    }

    /// [`Engine::build`] with the builder knobs a workload names.
    pub fn build_with(
        scale: usize,
        configure: impl FnOnce(BeasBuilder) -> BeasBuilder,
    ) -> Result<Engine, String> {
        let dataset = inputs::dataset(scale);
        let builder = configure(Beas::builder(dataset.db).constraints(dataset.constraints));
        let (built, build_s) = timed(|| builder.build());
        Ok(Engine {
            beas: Arc::new(built.map_err(|e| format!("engine build failed: {e}"))?),
            scale,
            build_s,
        })
    }
}

/// Queries per stratum of the η census.
const CENSUS_PER_STRATUM: usize = 150;

/// `eta_mean` of a workload whose timed pool is too small to characterise
/// a seed: the mean η `engine` reports at `spec` over the first 750 queries
/// of the seed's stratified pool, answered in process and untimed. A
/// hundred queries put the mean anywhere between 0.06 and 0.18 depending on
/// how many single-relation queries with a meaningful bound the seed drew;
/// 750 hold it within ±8 %. The workload's own checks establish that its
/// path returns the engine's answers bit for bit, η included.
pub fn eta_census(ctx: &Ctx, engine: &Beas, spec: ResourceSpec) -> Result<f64, String> {
    let pool = inputs::query_pool(ctx.size(CENSUS_PER_STRATUM, 2), ctx.seed);
    let mut etas = Vec::with_capacity(pool.len());
    for query in &pool {
        if let Some(answer) = cheap_answer(engine, query, spec)? {
            etas.push(answer.eta);
        }
    }
    Ok(stats::mean(&etas))
}

/// Plans `query` from scratch and answers it unless it is over [`ROW_CAP`].
pub fn cheap_answer(
    engine: &Beas,
    query: &BeasQuery,
    spec: ResourceSpec,
) -> Result<Option<BeasAnswer>, String> {
    let plan = engine
        .plan(query, spec)
        .map_err(|e| format!("plan failed: {e}"))?;
    staged::answer_if_cheap(engine, &plan, ROW_CAP)
}

/// What a query answered when its pool was set up: the reference every
/// later answer to it is compared with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Digest of the answer relation.
    pub digest: u64,
    /// Bits of the reported η.
    pub eta_bits: u64,
    /// Tuples accessed.
    pub accessed: usize,
}

impl Expected {
    /// The reference of one answer.
    pub fn of(answer: &BeasAnswer) -> Self {
        Expected {
            digest: answer.answers.digest(),
            eta_bits: answer.eta.to_bits(),
            accessed: answer.accessed,
        }
    }

    /// Checks a later answer to the same query: within budget and
    /// bit-for-bit the reference.
    pub fn check(&self, answer: &BeasAnswer, report: &mut Report) {
        if report.check_budget(answer) && Expected::of(answer) != *self {
            report.fail(format!(
                "answer changed: digest {:016x} eta {} accessed {}, expected {:016x} {} {}",
                answer.answers.digest(),
                answer.eta,
                answer.accessed,
                self.digest,
                f64::from_bits(self.eta_bits),
                self.accessed
            ));
        }
    }
}

impl Expected {
    /// Counts one answered operation and checks it like [`Expected::check`];
    /// an `Err` is a failed operation. Returns the answer when there is one.
    pub fn check_result<E: std::fmt::Display>(
        &self,
        answer: Result<BeasAnswer, E>,
        report: &mut Report,
    ) -> Option<BeasAnswer> {
        match answer {
            Ok(answer) => {
                report.op(Ok(()));
                self.check(&answer, report);
                Some(answer)
            }
            Err(e) => {
                report.op(Err(format!("answer failed: {e}")));
                None
            }
        }
    }
}

/// Ends a traced run: folds the recorded spans and writes them to
/// `<out_dir>/<workload>.trace.json`.
pub fn finish_trace(ctx: &Ctx, workload: &str, tracer: &Tracer) -> Result<Fold, String> {
    let spans = tracer.spans();
    let folded = trace::fold(&spans);
    let path = ctx.out_dir.join(format!("{workload}.trace.json"));
    trace::write_trace(&path, workload, ctx.seed, &spans, &folded)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(folded)
}

/// The end-to-end metrics every workload reports, from the latencies (ms)
/// of its answers in the order they were taken, the answers it completed
/// per second, and the mean of the η they reported.
pub fn set_end_to_end(
    report: &mut Report,
    setup_s: f64,
    answer_ms: &[f64],
    answers_per_s: f64,
    eta_mean: f64,
) {
    let summary = stats::summarize_windows(answer_ms);
    report.set("setup_s", setup_s);
    report.set("answer_p50_ms", summary.p50);
    report.set("answer_tail_ms", summary.tail.value);
    report.set("answers_per_s", answers_per_s);
    report.set("eta_mean", eta_mean);
    report.set("peak_rss_mb", stats::peak_rss_mb());
    report.note("answers", summary.n);
    report.note(
        "tail_percentile",
        format!("p{:.1}", summary.tail.percentile),
    );
}
