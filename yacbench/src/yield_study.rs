//! `yield_study`: the paper's Tables 2–5 on a 10⁵-chip population on
//! the supervised executor. Sampling, circuit evaluation,
//! classify/rescue and the executor do all of its work and the pipeline
//! none, so it is the control for `table6`.

use crate::measure::{median, peak_rss_mb, timed, Digest};
use crate::trace::{cpu_s_of, Tracer};
use crate::{nproc, Args, Report};
use std::time::Instant;
use yac_circuit::{CacheCircuitModel, CacheVariant};
use yac_core::{
    classify, full_study_supervised, run_supervised, study_from_population, ConstraintSpec,
    ExecutorConfig, FullStudy, HYapd, Hybrid, LossTable, PopulationConfig, PowerDownKind, Scheme,
    Vaca, Yapd, YieldConstraints,
};
use yac_variation::{MonteCarlo, VariationConfig};

/// Chips per study.
const CHIPS: usize = 100_000;
/// Chips in the warm-up study each set-up runs.
const WARMUP_CHIPS: usize = 2_000;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so a few more of them steady the median cheaply.
const SETUP_REPS: usize = 9;
/// Studies per run, at least.
const MIN_ITERATIONS: usize = 2;
/// Dies in the sampling and circuit kernels of the traced run.
const KERNEL_DIES: u64 = 20_000;

fn config(seed: u64, chips: usize) -> PopulationConfig {
    let mut cfg = PopulationConfig::paper(seed);
    cfg.chips = chips;
    cfg
}

/// Builds the study's configuration and executor, then runs a small
/// warm-up study so thread and allocator start-up are not timed.
fn set_up(seed: u64) -> (PopulationConfig, ExecutorConfig) {
    let exec = ExecutorConfig::with_workers(nproc());
    let warm = full_study_supervised(&config(seed, WARMUP_CHIPS), &exec);
    assert!(warm.is_ok(), "warm-up study failed: {warm:?}");
    (config(seed, CHIPS), exec)
}

/// The loss totals of Tables 2 and 3: base, then each scheme.
fn loss_totals(study: &FullStudy) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (label, table) in [("table2", &study.table2), ("table3", &study.table3)] {
        out.push((format!("{label}.base"), table.base.total() as u64));
        for s in &table.schemes {
            let name = s.name.to_ascii_lowercase().replace('-', "");
            out.push((format!("{label}.{name}"), s.losses.total() as u64));
        }
    }
    out
}

fn digest_table(d: &mut Digest, t: &LossTable) {
    d.bytes(t.spec_name.as_bytes())
        .u64(t.total_chips as u64)
        .u64(t.quarantined as u64);
    for b in std::iter::once(&t.base).chain(t.schemes.iter().map(|s| &s.losses)) {
        d.u64(b.leakage as u64);
        for &n in &b.delay {
            d.u64(n as u64);
        }
    }
}

/// Digest of every loss count in Tables 2–5.
fn digest(study: &FullStudy) -> u64 {
    let mut d = Digest::default();
    for t in [&study.table2, &study.table3]
        .into_iter()
        .chain(&study.table4)
        .chain(&study.table5)
    {
        digest_table(&mut d, t);
    }
    d.finish()
}

fn study_counts(report: &mut Report, study: &FullStudy) {
    report.count("study_digest", digest(study));
    for (key, n) in loss_totals(study) {
        report.count(format!("losses.{key}"), n);
    }
}

/// Every deterministic count of the workload at `seed`.
#[must_use]
pub fn reference_counts(seed: u64) -> Vec<(String, u64)> {
    let exec = ExecutorConfig::with_workers(nproc());
    let study = full_study_supervised(&config(seed, CHIPS), &exec).expect("reference study runs");
    let mut report = Report::default();
    study_counts(&mut report, &study);
    report.counts
}

/// Runs the workload untraced and reports its end-to-end metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (p, t) = timed(|| set_up(args.seed));
        setups.push(t.wall_s);
        prepared = Some(p);
    }
    let (cfg, exec) = prepared.expect("at least one set-up");

    let start = Instant::now();
    let (mut walls, mut cpus, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    while walls.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        let (study, t) = timed(|| full_study_supervised(&cfg, &exec));
        println!(
            "yield_study iteration {}: wall {:.3} s, cpu {:.3} s",
            walls.len() + 1,
            t.wall_s,
            t.cpu_s
        );
        walls.push(t.wall_s);
        cpus.push(t.cpu_s);
        match study {
            Ok(study) => {
                report.check(true, String::new);
                digests.push(digest(&study));
                first.get_or_insert(study);
            }
            Err(e) => report.check(false, || format!("study failed: {e}")),
        }
    }
    println!(
        "yield_study: {} studies of {CHIPS} chips at {} workers",
        walls.len(),
        exec.workers
    );
    report.check(
        !digests.is_empty() && digests.windows(2).all(|w| w[0] == w[1]),
        || format!("loss tables differ between iterations: {digests:x?}"),
    );
    if let Some(study) = &first {
        study_counts(&mut report, study);
    }

    let wall = median(&walls);
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", wall, "s");
    report.metric("cpu_s", median(&cpus), "s");
    // Throughput in chips per second.
    report.metric("throughput", CHIPS as f64 / wall, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// This module's part of every traced run: a traced study, a one-worker
/// executor run for parallel efficiency, then single-thread kernels for
/// each yield layer. When `own` (the run is `yield_study`'s), an untraced
/// study runs first, and the traced one must agree with it.
pub fn traced(args: &Args, tracer: &Tracer, own: bool, report: &mut Report) {
    let (cfg, exec) = set_up(args.seed);
    let (cfg, exec) = (&cfg, &exec);
    let plain = own.then(|| full_study_supervised(cfg, exec));
    let (outcome, parallel, study) = {
        let root = tracer.span("analysis.full_study_supervised", None, args.seed);
        let (outcome, parallel) = timed(|| {
            let _s = tracer.span("executor.run_supervised", root.id(), args.seed);
            run_supervised(cfg, exec)
        });
        let outcome = outcome.expect("the paper configuration is valid");
        let study = {
            let _s = tracer.batch("analysis.study_from_population", root.id(), args.seed, 1);
            study_from_population(&outcome.population, cfg.seed)
        };
        (outcome, parallel, study)
    };
    let same = plain.is_none_or(|p| p.is_ok_and(|p| digest(&p) == digest(&study)));
    report.check(same && !outcome.is_degraded(), || {
        "traced and untraced studies differ, or the traced one degraded".to_string()
    });
    study_counts(report, &study);
    let (_, one_worker) = timed(|| {
        let _s = tracer.span("executor.run_supervised_1_worker", None, args.seed);
        run_supervised(cfg, &ExecutorConfig::with_workers(1))
    });

    // Sampling and circuit evaluation, on the calling thread.
    let mc = MonteCarlo::new(VariationConfig::default());
    let dies: Vec<_> = {
        let _s = tracer.batch("variation.sample_one", None, args.seed, KERNEL_DIES);
        (0..KERNEL_DIES)
            .map(|i| mc.sample_one(args.seed, i))
            .collect()
    };
    let (regular, horizontal) = (
        CacheCircuitModel::regular(),
        CacheCircuitModel::horizontal(),
    );
    let evaluated: Vec<_> = {
        let _s = tracer.batch("circuit.evaluate", None, args.seed, 2 * KERNEL_DIES);
        dies.iter()
            .map(|d| (regular.evaluate(d), horizontal.evaluate(d)))
            .collect()
    };
    std::hint::black_box(&evaluated);

    // Classify and rescue, over the study population.
    let population = &outcome.population;
    let constraints = YieldConstraints::derive(population, ConstraintSpec::NOMINAL);
    let chips = population.chips.len() as u64;
    let failing = {
        let _s = tracer.batch("core.classify", None, args.seed, 2 * chips);
        let mut failing = Vec::new();
        for chip in &population.chips {
            for variant in [CacheVariant::Regular, CacheVariant::Horizontal] {
                if classify(chip.result(variant), &constraints).is_some() {
                    failing.push((chip, variant));
                }
            }
        }
        failing
    };
    let vertical: [&dyn Scheme; 3] = [
        &Yapd,
        &Vaca::new(CacheVariant::Regular),
        &Hybrid::new(PowerDownKind::Vertical),
    ];
    let horizontal_schemes: [&dyn Scheme; 3] = [
        &HYapd,
        &Vaca::new(CacheVariant::Horizontal),
        &Hybrid::new(PowerDownKind::Horizontal),
    ];
    let attempts = 3 * failing.len() as u64;
    let saves = {
        let _s = tracer.batch("schemes.apply", None, args.seed, attempts);
        let mut saves = 0u64;
        for (chip, variant) in &failing {
            let schemes = match variant {
                CacheVariant::Regular => &vertical,
                CacheVariant::Horizontal => &horizontal_schemes,
            };
            for scheme in schemes {
                if scheme
                    .apply(chip, &constraints, population.calibration())
                    .ships()
                {
                    saves += 1;
                }
            }
        }
        saves
    };

    let spans = tracer.spans();
    let cpu_of = |name: &str| cpu_s_of(&spans, name);
    let (sample_s, eval_s) = (cpu_of("variation.sample_one"), cpu_of("circuit.evaluate"));
    let (classify_s, rescue_s) = (cpu_of("core.classify"), cpu_of("schemes.apply"));
    let analysis_s = cpu_of("analysis.study_from_population");
    report.metric("variation.dies_per_s", KERNEL_DIES as f64 / sample_s, "1/s");
    report.metric(
        "circuit.evals_per_s",
        (2 * KERNEL_DIES) as f64 / eval_s,
        "1/s",
    );
    report.metric(
        "classify.chips_per_s",
        (2 * chips) as f64 / classify_s,
        "1/s",
    );
    report.metric("schemes.rescues_per_s", attempts as f64 / rescue_s, "1/s");
    report.metric(
        "schemes.save_ratio",
        saves as f64 / attempts as f64,
        "ratio",
    );
    report.metric("analysis.tables_s", analysis_s, "s");
    report.metric(
        "executor.parallel_eff",
        one_worker.wall_s / (exec.workers as f64 * parallel.wall_s),
        "ratio",
    );
    for (key, n) in loss_totals(&study) {
        report.metric(format!("losses.{key}"), n as f64, "count");
    }
}
