//! `perf_report` — the calibrated benchmark harness behind the repo's
//! perf trajectory and CI's `bench-smoke` gate.
//!
//! Runs a small-but-representative study end to end with observability
//! enabled — Monte Carlo sampling, circuit evaluation, classification,
//! scheme rescue, and a pipeline-simulation stage over the full
//! SPEC2000-like suite on a healthy and a repaired L1D — then writes a
//! `yac-perf-report/2` JSON manifest (see `yac_obs::manifest`) with
//! total wall time, chips/sec and the per-phase breakdown.
//!
//! ```text
//! perf_report [--chips N] [--seed S] [--out PATH] [--label NAME]
//!             [--baseline PATH] [--max-regress FRAC]
//!             [--workers N] [--no-pipeline]
//!             [--trace PATH] [--progress] [--warm-journal PATH]
//! ```
//!
//! With `--baseline`, compares this run's `chips_per_sec` against the
//! baseline manifest and exits non-zero when throughput regressed by
//! more than `--max-regress` (default 0.20) — the CI gate.
//!
//! With `--workers N` (N ≥ 1) the population is generated on the
//! supervised parallel executor; the manifest gains loss-figure metrics
//! (`table2_base_losses`, `table2_hybrid_losses`, `table3_base_losses`)
//! that CI asserts are identical across worker counts. `--no-pipeline`
//! skips the pipeline-simulation half for fast equivalence runs.
//!
//! With `--trace PATH`, the run records a structured event journal and
//! writes it as Chrome trace-event JSON to `PATH` (load it at
//! <https://ui.perfetto.dev>) plus `yac-trace/1` NDJSON to `PATH` with
//! the extension replaced by `.ndjson`. `--progress` prints a live
//! status line (chips done, chips/s, ETA, worker utilization) to stderr
//! every second. Both are observation-only: the study's results are
//! bit-identical with and without them.

use std::process::ExitCode;
use std::time::Instant;
use yac_cache::CacheConfig;
use yac_core::perf::canonical_l1d;
use yac_core::sweep::{render_result, StudyResult, SweepConfig, SweepGrid};
use yac_core::{
    render_loss_table, run_supervised, suite_cpis_isolated, table2, table3, yield_interval,
    ConstraintSpec, ExecutorConfig, LossTable, PerfOptions, Population, PopulationConfig,
    PowerDownKind, ResultCache, StudyError, StudyQuery, WayCycleCensus, YieldConstraints,
};
use yac_obs::progress::{ProgressConfig, ProgressReporter};
use yac_obs::{extract_metric, ManifestMetric, Metric, Phase, RunManifest};
use yac_pipeline::PipelineConfig;

struct Args {
    chips: usize,
    seed: u64,
    out: String,
    label: String,
    baseline: Option<String>,
    max_regress: f64,
    /// 0 = the serial `Population::generate` path; N ≥ 1 = the
    /// supervised executor with N workers.
    workers: usize,
    pipeline: bool,
    /// Perfetto trace output path (NDJSON lands next to it).
    trace: Option<String>,
    progress: bool,
    /// Sweep journal to warm the service result-cache exercise from.
    warm_journal: Option<String>,
}

/// Exit code for a sweep-journal grid-fingerprint mismatch: the journal
/// belongs to a different grid than this run's flags describe, so
/// rerunning the same command can never succeed.
const MISMATCH_EXIT: u8 = 4;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        chips: 200,
        seed: 2006,
        out: "BENCH_PR3.json".to_owned(),
        label: "perf_report".to_owned(),
        baseline: None,
        max_regress: 0.20,
        workers: 0,
        pipeline: true,
        trace: None,
        progress: false,
        warm_journal: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--chips" => {
                args.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--label" => args.label = value("--label")?,
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--max-regress" => {
                args.max_regress = value("--max-regress")?
                    .parse()
                    .map_err(|e| format!("--max-regress: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--no-pipeline" => args.pipeline = false,
            "--trace" => args.trace = Some(value("--trace")?),
            "--progress" => args.progress = true,
            "--warm-journal" => args.warm_journal = Some(value("--warm-journal")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The loss figures CI compares across worker counts.
fn loss_metrics(t2: &LossTable, t3: &LossTable) -> Vec<ManifestMetric> {
    [
        ("table2_base_losses", t2.base.total()),
        ("table2_hybrid_losses", t2.schemes[2].losses.total()),
        ("table3_base_losses", t3.base.total()),
    ]
    .into_iter()
    .map(|(name, value)| ManifestMetric {
        name: name.to_owned(),
        value: value as f64,
        unit: "chips".to_owned(),
    })
    .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_report: {e}");
            return ExitCode::FAILURE;
        }
    };

    let registry = yac_obs::global();
    yac_obs::enable();
    registry.reset();
    if args.trace.is_some() {
        yac_obs::trace_label_thread("main");
        yac_obs::trace_enable();
    }
    let reporter = args.progress.then(|| {
        ProgressReporter::start(
            registry,
            ProgressConfig {
                total_chips: args.chips as u64,
                workers: args.workers.max(1),
                interval: std::time::Duration::from_secs(1),
                label: "perf_report".to_owned(),
                total_studies: 0,
            },
        )
    });
    let t0 = Instant::now();

    // Yield half: sample + circuit-eval (inside generate), then
    // classify + rescue for both cache organisations.
    eprintln!(
        "perf_report: {} chips, seed {}{}",
        args.chips,
        args.seed,
        if args.workers > 0 {
            format!(", {} worker(s)", args.workers)
        } else {
            String::new()
        }
    );
    let population = if args.workers > 0 {
        let mut cfg = PopulationConfig::paper(args.seed);
        cfg.chips = args.chips;
        let exec = ExecutorConfig::with_workers(args.workers);
        let outcome = match run_supervised(&cfg, &exec) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perf_report: supervised run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if outcome.is_degraded() {
            eprintln!(
                "perf_report: {} shard(s) degraded, {} chips missing, yield {}",
                outcome.degraded.len(),
                outcome.missing_chips(),
                outcome.yield_interval
            );
        }
        outcome.population
    } else {
        Population::generate(args.chips, args.seed)
    };
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    let t2 = table2(&population, &constraints);
    let t3 = table3(&population, &constraints);
    // Render to exercise the report phase. The output is discarded and
    // nothing compares the tables against results/.
    let _ = render_loss_table(&t2);
    let _ = render_loss_table(&t3);

    // Service result-cache exercise: key both tables as the single-cell
    // queries the sweep service would use, then prove the cached bytes
    // come back identical. Two misses + two hits land in the manifest as
    // result_cache_misses / result_cache_hits — CI's bench-smoke asserts
    // the exact counts.
    let mut cache = ResultCache::new(1 << 20);
    for (kind, loss) in [
        (PowerDownKind::Vertical, &t2),
        (PowerDownKind::Horizontal, &t3),
    ] {
        let query = StudyQuery {
            chips: args.chips,
            seed: args.seed,
            constraint: ConstraintSpec::NOMINAL,
            kind,
            cpi: None,
        };
        let key = query.fingerprint();
        let shipped = loss.total_chips - loss.base.total();
        let record = render_result(&StudyResult {
            yield_interval: yield_interval(shipped, loss.total_chips, 0),
            evaluated_chips: loss.total_chips + loss.quarantined,
            missing_chips: 0,
            degraded_shards: 0,
            loss: loss.clone(),
            mean_cpi: None,
        });
        if cache.get(key).is_some() {
            eprintln!("perf_report: cache unexpectedly hit before insert (key {key:016x})");
            return ExitCode::FAILURE;
        }
        cache.insert(key, record.clone());
        if cache.get(key).as_deref() != Some(record.as_str()) {
            eprintln!("perf_report: cached record is not byte-identical (key {key:016x})");
            return ExitCode::FAILURE;
        }
    }
    if let Some(journal) = &args.warm_journal {
        // Warm from a sweep journal of this run's implied grid (this
        // chip count and seed, nominal constraint, both organisations).
        let grid = SweepGrid {
            chips: args.chips,
            seeds: vec![args.seed],
            constraints: vec![ConstraintSpec::NOMINAL],
            kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        };
        match cache.warm_from_journal(
            &grid,
            &SweepConfig::default(),
            std::path::Path::new(journal),
        ) {
            Ok(warmed) => {
                eprintln!("perf_report: warmed {warmed} cache entr(ies) from {journal}");
            }
            Err(e @ StudyError::Mismatch(_)) => {
                eprintln!("perf_report: journal mismatch: {e}");
                return ExitCode::from(MISMATCH_EXIT);
            }
            Err(e) => {
                eprintln!("perf_report: warming from {journal}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Perf half: the full benchmark suite on a healthy cache and on the
    // most common repaired configuration (3-1-0 with the slow way off).
    // Skipped with --no-pipeline (the fast CI equivalence runs).
    let mut healthy = Vec::new();
    let mut repaired = Vec::new();
    if args.pipeline {
        let sim_opts = PerfOptions {
            warmup_uops: 2_000,
            measure_uops: 10_000,
            trace_seed: args.seed,
        };
        let pipeline = PipelineConfig::paper();
        let (h, fail_healthy) =
            suite_cpis_isolated(&CacheConfig::l1d_paper(), &pipeline, &sim_opts);
        let repaired_cfg = canonical_l1d(
            WayCycleCensus {
                ways_4: 3,
                ways_5: 1,
                ways_6_plus: 0,
            },
            true,
        );
        let (r, fail_repaired) = suite_cpis_isolated(&repaired_cfg, &pipeline, &sim_opts);
        if !(fail_healthy.is_empty() && fail_repaired.is_empty()) {
            eprintln!(
                "perf_report: {} benchmark worker(s) failed",
                fail_healthy.len() + fail_repaired.len()
            );
            return ExitCode::FAILURE;
        }
        healthy = h;
        repaired = r;
    }

    if let Some(reporter) = reporter {
        reporter.stop();
    }
    let total_wall_s = t0.elapsed().as_secs_f64();
    let mut manifest =
        RunManifest::capture(&args.label, registry, args.seed, args.chips, total_wall_s);
    manifest.metrics.extend(loss_metrics(&t2, &t3));

    // Human-readable summary on stderr; the JSON is the artifact.
    eprintln!(
        "perf_report: {:.2}s total, {:.1} chips/s, {} uops committed, {} benchmarks",
        total_wall_s,
        manifest.metric("chips_per_sec").unwrap_or(0.0),
        registry.counter(Metric::UopsCommitted),
        registry.counter(Metric::BenchmarksSimulated),
    );
    for phase in Phase::ALL {
        eprintln!(
            "  phase {:<14} {:>9.3}s over {} call(s)",
            phase.name(),
            registry.phase_nanos(phase) as f64 / 1e9,
            registry.phase_calls(phase),
        );
    }
    if args.workers > 0 {
        // Busy time across all workers vs. workers × wall clock.
        let busy_s = registry.phase_nanos(Phase::ShardExec) as f64 / 1e9;
        let capacity_s = args.workers as f64 * total_wall_s;
        eprintln!(
            "  worker utilization {:.1}% ({} retries, {} timeouts, {} degraded)",
            100.0 * busy_s / capacity_s.max(f64::MIN_POSITIVE),
            registry.counter(Metric::ShardRetries),
            registry.counter(Metric::ShardTimeouts),
            registry.counter(Metric::DegradedShards),
        );
    }
    if !healthy.is_empty() && !repaired.is_empty() {
        eprintln!(
            "  suite mean CPI healthy {:.4}, repaired(3-1-0, way off) {:.4}",
            healthy.iter().map(|(_, c)| c).sum::<f64>() / healthy.len() as f64,
            repaired.iter().map(|(_, c)| c).sum::<f64>() / repaired.len() as f64,
        );
    }

    let json = manifest.to_json();
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("perf_report: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("perf_report: wrote {}", args.out);

    if let Some(trace_path) = &args.trace {
        yac_obs::trace_disable();
        let snapshot = yac_obs::journal().snapshot();
        let trace_path = std::path::Path::new(trace_path);
        let ndjson_path = trace_path.with_extension("ndjson");
        if let Err(e) = yac_obs::perfetto::write_chrome_json(trace_path, &snapshot) {
            eprintln!("perf_report: writing {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = yac_obs::ndjson::write_ndjson(&ndjson_path, &snapshot) {
            eprintln!("perf_report: writing {}: {e}", ndjson_path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: traced {} event(s) on {} thread(s) ({} dropped) -> {} + {}",
            snapshot.total_events(),
            snapshot.threads.len(),
            snapshot.dropped_events,
            trace_path.display(),
            ndjson_path.display(),
        );
    }

    if let Some(baseline_path) = &args.baseline {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("perf_report: reading baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(base_tput) = extract_metric(&baseline, "chips_per_sec") else {
            eprintln!("perf_report: baseline {baseline_path} has no chips_per_sec metric");
            return ExitCode::FAILURE;
        };
        let cur_tput = manifest.metric("chips_per_sec").unwrap_or(0.0);
        let regress = if base_tput > 0.0 {
            (base_tput - cur_tput) / base_tput
        } else {
            0.0
        };
        eprintln!(
            "perf_report: throughput {cur_tput:.1} chips/s vs baseline {base_tput:.1} \
             ({:+.1}%)",
            -100.0 * regress
        );
        if regress > args.max_regress {
            eprintln!(
                "perf_report: FAIL — regressed {:.1}% (> {:.0}% allowed)",
                100.0 * regress,
                100.0 * args.max_regress
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
