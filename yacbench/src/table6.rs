//! `table6`: the paper's Table 6 at quick budgets. Pipeline, cache and
//! trace generation do ~99% of its work, so simulator changes show here.

use crate::measure::{median, peak_rss_mb, timed, Digest};
use crate::trace::{cpu_s_of, Tracer};
use crate::{nproc, Args, Report};
use std::collections::BTreeSet;
use std::time::Instant;
use yac_cache::{AccessKind, CacheConfig, HierarchyConfig, MemoryHierarchy};
use yac_core::perf::{benchmark_cpi, canonical_l1d};
use yac_core::{
    suite_cpis_isolated, BenchmarkFailure, ConstraintSpec, Hybrid, PerfOptions, Population,
    PowerDownKind, Scheme, SchemeOutcome, Table6, WayCycleCensus, YieldConstraints,
};
use yac_pipeline::{Pipeline, PipelineConfig};
use yac_workload::{spec2000, OpClass, TraceGenerator};

/// Chips in the population the chip-frequency column comes from (the
/// paper's population size).
const CHIPS: usize = 2000;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so a few more of them steady the median cheaply.
const SETUP_REPS: usize = 9;
/// Table 6 computations per run, at least.
const MIN_ITERATIONS: usize = 2;

/// Quick budgets with the trace seed set to the workload seed.
fn options(seed: u64) -> PerfOptions {
    PerfOptions {
        trace_seed: seed,
        ..PerfOptions::quick()
    }
}

struct Inputs {
    population: Population,
    constraints: YieldConstraints,
}

fn set_up(seed: u64, tracer: &Tracer) -> Inputs {
    let population = {
        let _s = tracer.batch("core.population_generate", None, seed, CHIPS as u64);
        Population::generate(CHIPS, seed)
    };
    let constraints = {
        let _s = tracer.span("core.constraints_derive", None, seed);
        YieldConstraints::derive(&population, ConstraintSpec::NOMINAL)
    };
    Inputs {
        population,
        constraints,
    }
}

/// Digest of every number in the table, by exact bit pattern.
fn digest(table: &Table6) -> u64 {
    let mut d = Digest::default();
    for row in &table.rows {
        d.bytes(row.census.to_string().as_bytes())
            .u64(row.chip_frequency as u64);
        for cell in [row.yapd, row.vaca, row.hybrid] {
            match cell {
                Some(v) => d.u64(1).f64(v),
                None => d.u64(0),
            };
        }
    }
    d.f64(table.weighted.0)
        .f64(table.weighted.1)
        .f64(table.weighted.2);
    d.finish()
}

/// The L1D the Hybrid simulates for a row: it disables a way only for a
/// 6-plus way or a leakage repair (4-0-0).
fn hybrid_l1d(census: WayCycleCensus) -> CacheConfig {
    canonical_l1d(census, census.ways_6_plus > 0 || census.all_fast())
}

/// Micro-ops one Table 6 simulates: every benchmark, at warm-up plus
/// measurement budget, on the healthy L1D and on each distinct repaired
/// L1D a filled cell of the table stands for.
fn simulated_uops(table: &Table6, opts: &PerfOptions) -> u64 {
    let mut configs = BTreeSet::new();
    for row in &table.rows {
        let cells = [
            (row.yapd, canonical_l1d(row.census, true)),
            (row.vaca, canonical_l1d(row.census, false)),
            (row.hybrid, hybrid_l1d(row.census)),
        ];
        for (cell, cfg) in cells {
            if cell.is_some() {
                configs.insert((cfg.way_latency, cfg.way_enabled));
            }
        }
    }
    let suites = 1 + configs.len() as u64;
    suites * spec2000::all_profiles().len() as u64 * (opts.warmup_uops + opts.measure_uops)
}

fn hybrid_saves(inputs: &Inputs) -> usize {
    let hybrid = Hybrid::new(PowerDownKind::Vertical);
    inputs
        .population
        .chips
        .iter()
        .filter(|c| {
            matches!(
                hybrid.apply(c, &inputs.constraints, inputs.population.calibration()),
                SchemeOutcome::Saved(_)
            )
        })
        .count()
}

/// Checks one computed table: every degradation finite, and the chip
/// frequencies summing to the Hybrid's saves of the same population.
fn check_table(report: &mut Report, table: &Table6, saves: usize) {
    let finite = table
        .rows
        .iter()
        .flat_map(|r| [r.yapd, r.vaca, r.hybrid])
        .flatten()
        .chain([table.weighted.0, table.weighted.1, table.weighted.2])
        .all(f64::is_finite);
    let freq: usize = table.rows.iter().map(|r| r.chip_frequency).sum();
    report.check(finite && freq == saves && table.rows.len() == 9, || {
        format!("table 6: finite={finite}, frequencies sum to {freq}, Hybrid saves {saves}")
    });
}

/// The suite's CPIs on the healthy L1D: each benchmark on its own thread.
fn healthy_suite(opts: &PerfOptions) -> (Vec<(&'static str, f64)>, Vec<BenchmarkFailure>) {
    suite_cpis_isolated(&CacheConfig::l1d_paper(), &PipelineConfig::paper(), opts)
}

/// Checks the healthy suite's CPIs: all 24 benchmarks present, finite
/// and above 0.25.
fn check_cpis(report: &mut Report, suite: &(Vec<(&'static str, f64)>, Vec<BenchmarkFailure>)) {
    let (cpis, failures) = suite;
    let bad: Vec<String> = cpis
        .iter()
        .filter(|(_, c)| !(c.is_finite() && *c > 0.25))
        .map(|(n, c)| format!("{n}={c}"))
        .collect();
    report.check(
        failures.is_empty() && bad.is_empty() && cpis.len() == spec2000::all_profiles().len(),
        || {
            format!(
                "suite CPIs: {} failures, out of range: {bad:?}",
                failures.len()
            )
        },
    );
}

/// Single-thread layer kernels on pre-generated traces.
#[derive(Debug, Default)]
struct Kernels {
    uops_generated: u64,
    committed: u64,
    cycles: u64,
    replays: u64,
    bypass_stalls: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

/// The L1D the kernels simulate: Table 6's most frequent repaired shape
/// (3-1-0 under VACA: three 4-cycle ways and one 5-cycle way), so the
/// slow-way bypass path is exercised.
fn kernel_l1d() -> CacheConfig {
    canonical_l1d(
        WayCycleCensus {
            ways_4: 3,
            ways_5: 1,
            ways_6_plus: 0,
        },
        false,
    )
}

/// For every benchmark: generate its trace, run the pipeline on it, and
/// replay its memory operations through a fresh hierarchy — each in its
/// own span under one per-benchmark span.
fn kernels(seed: u64, tracer: &Tracer) -> Kernels {
    let opts = options(seed);
    let n = opts.warmup_uops + opts.measure_uops;
    let mut hier = HierarchyConfig::paper();
    hier.l1d = kernel_l1d();
    let mut k = Kernels::default();
    for (i, profile) in spec2000::all_profiles().into_iter().enumerate() {
        let request = i as u64;
        let root = tracer.span("perf.benchmark", None, request);
        let trace = {
            let _s = tracer.batch("workload.generate", root.id(), request, n);
            TraceGenerator::new(profile, seed).generate(n as usize)
        };
        let mem = MemoryHierarchy::new(hier.clone()).expect("the paper hierarchy is valid");
        let mut cpu = Pipeline::new(PipelineConfig::paper(), mem).expect("paper pipeline");
        let stats = {
            let _s = tracer.batch("pipeline.run", root.id(), request, 1);
            cpu.run(trace.iter().copied(), 0, n)
        };
        let mut replay = MemoryHierarchy::new(hier.clone()).expect("the paper hierarchy is valid");
        let ops: Vec<(u64, AccessKind)> = trace
            .iter()
            .filter_map(|op| match (op.class, op.addr) {
                (OpClass::Load, Some(a)) => Some((a, AccessKind::Read)),
                (OpClass::Store, Some(a)) => Some((a, AccessKind::Write)),
                _ => None,
            })
            .collect();
        let misses = {
            let _s = tracer.batch("cache.data_access", root.id(), request, ops.len() as u64);
            ops.iter()
                .filter(|&&(a, kind)| !replay.data_access(a, kind).l1_hit)
                .count()
        };
        k.uops_generated += trace.len() as u64;
        k.committed += stats.committed;
        k.cycles += stats.cycles;
        k.replays += stats.replays;
        k.bypass_stalls += stats.bypass_stalls;
        k.l1d_accesses += ops.len() as u64;
        k.l1d_misses += misses as u64;
    }
    k
}

fn kernel_counts(report: &mut Report, k: &Kernels) {
    report.count("pipeline.committed", k.committed);
    report.count("pipeline.cycles", k.cycles);
    report.count("pipeline.replays", k.replays);
    report.count("pipeline.bypass_stalls", k.bypass_stalls);
    report.count("cache.l1d_accesses", k.l1d_accesses);
}

/// Every deterministic count of the workload at `seed`.
#[must_use]
pub fn reference_counts(seed: u64) -> Vec<(String, u64)> {
    let off = Tracer::new(false);
    let inputs = set_up(seed, &off);
    let table = yac_core::table6(&inputs.population, &inputs.constraints, &options(seed));
    let mut report = Report::default();
    report.count("table6_digest", digest(&table));
    report.count("hybrid_saves", hybrid_saves(&inputs) as u64);
    kernel_counts(&mut report, &kernels(seed, &off));
    report.counts
}

/// Runs the workload untraced and reports its end-to-end metrics.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let opts = options(args.seed);
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (i, t) = timed(|| set_up(args.seed, tracer));
        setups.push(t.wall_s);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let saves = hybrid_saves(&inputs);
    report.count("hybrid_saves", saves as u64);

    let start = Instant::now();
    let (mut walls, mut cpus, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut uops = 0;
    while walls.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        let (table, t) = timed(|| yac_core::table6(&inputs.population, &inputs.constraints, &opts));
        println!(
            "table6 iteration {}: wall {:.3} s, cpu {:.3} s",
            walls.len() + 1,
            t.wall_s,
            t.cpu_s
        );
        check_table(&mut report, &table, saves);
        walls.push(t.wall_s);
        cpus.push(t.cpu_s);
        digests.push(digest(&table));
        uops = simulated_uops(&table, &opts);
    }
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("table 6 differs between iterations: {digests:x?}")
    });
    report.count("table6_digest", digests[0]);
    check_cpis(&mut report, &healthy_suite(&opts));

    let wall = median(&walls);
    println!(
        "table6: {} iterations, {uops} simulated uops each",
        walls.len()
    );
    report.metric("setup_s", median(&setups), "s");
    report.metric("wall_s", wall, "s");
    report.metric("cpu_s", median(&cpus), "s");
    // Throughput in simulated micro-ops per second.
    report.metric("throughput", uops as f64 / wall, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// This module's part of every traced run: the single-thread layer
/// kernels, and the healthy suite timed in parallel and one benchmark at
/// a time. When `own` (the run is `table6`'s), it first computes Table 6
/// once untraced and once traced; the two must agree.
pub fn traced(args: &Args, tracer: &Tracer, own: bool, report: &mut Report) {
    let opts = options(args.seed);
    let inputs = set_up(args.seed, tracer);
    let saves = hybrid_saves(&inputs);
    report.count("hybrid_saves", saves as u64);
    if own {
        let plain = yac_core::table6(&inputs.population, &inputs.constraints, &opts);
        let table = {
            let _s = tracer.span("perf.table6", None, args.seed);
            yac_core::table6(&inputs.population, &inputs.constraints, &opts)
        };
        check_table(report, &table, saves);
        report.check(digest(&plain) == digest(&table), || {
            "traced and untraced Table 6 differ".to_string()
        });
        report.count("table6_digest", digest(&table));
    }

    let k = kernels(args.seed, tracer);
    kernel_counts(report, &k);
    let (suite, suite_t) = timed(|| {
        let _s = tracer.span("perf.suite_cpis_isolated", None, args.seed);
        healthy_suite(&opts)
    });
    check_cpis(report, &suite);
    let suite_wall = suite_t.wall_s;
    // The same suite one benchmark after another on this thread: the
    // work the parallel suite spreads over its threads.
    let mut serial_cpis = Vec::new();
    for (i, profile) in spec2000::all_profiles().into_iter().enumerate() {
        let _s = tracer.batch("perf.benchmark_cpi", None, i as u64, 1);
        serial_cpis.push(benchmark_cpi(
            profile,
            &CacheConfig::l1d_paper(),
            &PipelineConfig::paper(),
            &opts,
        ));
    }
    report.check(
        serial_cpis.iter().eq(suite.0.iter().map(|(_, c)| c)),
        || "serial and parallel suite CPIs differ".to_string(),
    );

    let spans = tracer.spans();
    let cpu_of = |name: &str| cpu_s_of(&spans, name);
    let (run_s, gen_s, replay_s) = (
        cpu_of("pipeline.run"),
        cpu_of("workload.generate"),
        cpu_of("cache.data_access"),
    );
    report.metric("pipeline.uops_per_s", k.committed as f64 / run_s, "1/s");
    report.metric("pipeline.cycles_per_s", k.cycles as f64 / run_s, "1/s");
    report.metric("pipeline.self_s", run_s - replay_s, "s");
    report.metric(
        "workload.trace_uops_per_s",
        k.uops_generated as f64 / gen_s,
        "1/s",
    );
    report.metric(
        "cache.l1d_accesses_per_s",
        k.l1d_accesses as f64 / replay_s,
        "1/s",
    );
    report.metric(
        "cache.l1d_miss_ratio",
        k.l1d_misses as f64 / k.l1d_accesses as f64,
        "ratio",
    );
    report.metric("perf.suite_wall_s", suite_wall, "s");
    report.metric(
        "perf.suite_parallel_eff",
        cpu_of("perf.benchmark_cpi") / (nproc() as f64 * suite_wall),
        "ratio",
    );
    report.metric("pipeline.committed", k.committed as f64, "count");
    report.metric("pipeline.cycles", k.cycles as f64, "count");
    report.metric("pipeline.replays", k.replays as f64, "count");
    report.metric("pipeline.bypass_stalls", k.bypass_stalls as f64, "count");
    report.metric("cache.l1d_accesses", k.l1d_accesses as f64, "count");
}
