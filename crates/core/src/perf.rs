//! Performance analysis (§5.2 of the paper): the CPI cost of each repair,
//! per benchmark and per post-repair cache configuration — the machinery
//! behind Table 6 and Figures 9–10.

use crate::analysis::saved_config_census;
use crate::chip::Population;
use crate::classify::WayCycleCensus;
use crate::constraints::YieldConstraints;
use crate::executor::{fan_out, panic_message};
use crate::schemes::{Hybrid, PowerDownKind, Vaca, Yapd};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use yac_cache::{CacheConfig, HierarchyConfig, MemoryHierarchy};
use yac_circuit::CacheVariant;
use yac_pipeline::{Pipeline, PipelineConfig};
use yac_workload::{spec2000, BenchmarkProfile, TraceGenerator};

/// Options controlling the pipeline simulations.
///
/// # Examples
///
/// ```
/// use yac_core::perf::PerfOptions;
///
/// let quick = PerfOptions::quick();
/// assert!(quick.measure_uops < PerfOptions::default().measure_uops);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOptions {
    /// Micro-ops committed before measurement starts (cache/predictor
    /// warm-up).
    pub warmup_uops: u64,
    /// Micro-ops measured.
    pub measure_uops: u64,
    /// Trace seed.
    pub trace_seed: u64,
}

impl PerfOptions {
    /// A fast setting for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        PerfOptions {
            warmup_uops: 10_000,
            measure_uops: 40_000,
            trace_seed: 2006,
        }
    }
}

impl Default for PerfOptions {
    /// The setting used for the reported experiments. The paper simulates
    /// 100 M instructions per benchmark on SimpleScalar; 200 k synthetic
    /// micro-ops per benchmark give CPI deltas stable to ~0.1 % here
    /// because the synthetic traces are statistically stationary.
    fn default() -> Self {
        PerfOptions {
            warmup_uops: 20_000,
            measure_uops: 200_000,
            trace_seed: 2006,
        }
    }
}

/// The L1D configuration a scheme's repair maps onto, in canonical way
/// order (4-cycle ways first, then 5-cycle ways, then any 6-plus way).
///
/// Chips in one Table 6 row differ in *which* ways are slow or disabled;
/// with rotated cold fills the position does not matter, so a canonical
/// arrangement represents the row.
#[must_use]
pub fn canonical_l1d(census: WayCycleCensus, disable_slowest: bool) -> CacheConfig {
    let mut cfg = CacheConfig::l1d_paper();
    let mut way = 0usize;
    for _ in 0..census.ways_4 {
        cfg.way_latency[way] = 4;
        way += 1;
    }
    for _ in 0..census.ways_5 {
        cfg.way_latency[way] = 5;
        way += 1;
    }
    for _ in 0..census.ways_6_plus {
        // A 6-plus way is only ever simulated disabled; the latency value
        // is irrelevant once the way is off, but keep it meaningful.
        cfg.way_latency[way] = 6;
        if disable_slowest {
            cfg.way_enabled[way] = false;
        }
        way += 1;
    }
    if disable_slowest && census.ways_6_plus == 0 {
        // Disable the slowest (or, for 4-0-0 leakage chips, the last) way.
        let victim = if census.ways_5 > 0 {
            usize::from(census.ways_4)
        } else {
            cfg.ways - 1
        };
        cfg.way_enabled[victim] = false;
    }
    cfg
}

/// Simulates one benchmark on a machine with the given L1D and returns its
/// CPI.
///
/// # Panics
///
/// Panics if the cache or pipeline configuration is invalid.
#[must_use]
pub fn benchmark_cpi(
    profile: BenchmarkProfile,
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> f64 {
    let mut hier = HierarchyConfig::paper();
    hier.l1d = l1d.clone();
    let mem = MemoryHierarchy::new(hier).expect("valid hierarchy");
    let mut cpu = Pipeline::new(pipeline.clone(), mem).expect("valid pipeline");
    let trace = TraceGenerator::new(profile, opts.trace_seed);
    cpu.run(trace, opts.warmup_uops, opts.measure_uops).cpi()
}

/// CPI of every SPEC2000-like benchmark on the given L1D, in suite order.
/// Benchmarks run in parallel on the crate's batch pool, one worker per
/// available core.
///
/// # Panics
///
/// Panics if any benchmark worker fails; use [`suite_cpis_isolated`] to
/// quarantine failures instead.
#[must_use]
pub fn suite_cpis(
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> Vec<(&'static str, f64)> {
    let (cpis, failures) = suite_cpis_isolated(l1d, pipeline, opts);
    assert!(
        failures.is_empty(),
        "benchmark worker failed: {}",
        failures
            .iter()
            .map(|f| format!("{}: {}", f.benchmark, f.error))
            .collect::<Vec<_>>()
            .join("; ")
    );
    cpis
}

/// One benchmark worker that could not produce a usable CPI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkFailure {
    /// The benchmark's name.
    pub benchmark: &'static str,
    /// Why it failed (panic message or a description of the bad result).
    pub error: String,
}

/// Fault-isolated variant of [`suite_cpis`]: each benchmark runs behind
/// `catch_unwind` on the batch pool (one worker per available core), and
/// a benchmark that panics or reports a non-finite CPI is quarantined
/// into the failure list instead of tearing down the suite.
///
/// The CPI list keeps suite order, with failed benchmarks absent.
#[must_use]
pub fn suite_cpis_isolated(
    l1d: &CacheConfig,
    pipeline: &PipelineConfig,
    opts: &PerfOptions,
) -> (Vec<(&'static str, f64)>, Vec<BenchmarkFailure>) {
    let profiles = spec2000::all_profiles();
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut runs: Vec<Option<std::thread::Result<f64>>> = profiles.iter().map(|_| None).collect();
    let simulate = |worker: usize, index: usize| {
        yac_obs::trace_label_thread(&format!("suite-{worker}"));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _timer = yac_obs::phase(yac_obs::Phase::PipelineSim);
            benchmark_cpi(profiles[index].clone(), l1d, pipeline, opts)
        }));
        (index, run)
    };
    let Ok(()) = fan_out(workers, profiles.len(), simulate, |(index, run)| {
        runs[index] = Some(run);
        Ok::<(), Infallible>(())
    });
    let mut out = Vec::with_capacity(profiles.len());
    let mut failures = Vec::new();
    for (profile, run) in profiles.iter().zip(runs) {
        let name = profile.name;
        match run.expect("the pool runs every benchmark") {
            Ok(cpi) if cpi.is_finite() && cpi > 0.0 => {
                yac_obs::inc(yac_obs::Metric::BenchmarksSimulated);
                out.push((name, cpi));
            }
            Ok(cpi) => failures.push(BenchmarkFailure {
                benchmark: name,
                error: format!("non-finite or non-positive CPI ({cpi})"),
            }),
            Err(payload) => failures.push(BenchmarkFailure {
                benchmark: name,
                error: format!("worker panicked: {}", panic_message(&*payload)),
            }),
        }
    }
    yac_obs::add(yac_obs::Metric::BenchmarkFailures, failures.len() as u64);
    (out, failures)
}

/// Per-benchmark CPI degradation of a repaired configuration relative to a
/// healthy baseline, plus the suite average — the data series of the
/// paper's Figures 9 and 10.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteDegradation {
    /// `(benchmark, CPI increase in percent)`, suite order.
    pub per_benchmark: Vec<(&'static str, f64)>,
    /// Arithmetic mean over the suite, percent.
    pub average: f64,
}

/// Measures the suite-wide CPI degradation of `l1d` against the healthy
/// baseline cache.
#[must_use]
pub fn suite_degradation(l1d: &CacheConfig, opts: &PerfOptions) -> SuiteDegradation {
    let pipeline = PipelineConfig::paper();
    let base = suite_cpis(&CacheConfig::l1d_paper(), &pipeline, opts);
    let modified = suite_cpis(l1d, &pipeline, opts);
    degradation_between(&base, &modified)
}

fn degradation_between(
    base: &[(&'static str, f64)],
    modified: &[(&'static str, f64)],
) -> SuiteDegradation {
    let per_benchmark: Vec<(&'static str, f64)> = base
        .iter()
        .zip(modified)
        .map(|(&(name, b), &(_, m))| (name, 100.0 * (m / b - 1.0)))
        .collect();
    let average = per_benchmark.iter().map(|(_, d)| d).sum::<f64>() / per_benchmark.len() as f64;
    SuiteDegradation {
        per_benchmark,
        average,
    }
}

/// One row of the paper's Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// The pre-repair way-latency configuration (e.g. `3-1-0`).
    pub census: WayCycleCensus,
    /// Chips of the population with this configuration saved by the Hybrid
    /// (the paper's "chip frequency" column sums to the Hybrid's saves).
    pub chip_frequency: usize,
    /// Suite-average CPI degradation under YAPD, if YAPD can save the row.
    pub yapd: Option<f64>,
    /// Ditto for VACA.
    pub vaca: Option<f64>,
    /// Ditto for the Hybrid.
    pub hybrid: Option<f64>,
}

/// The paper's Table 6: per-configuration degradations, chip frequencies
/// from a yield population, and the weighted sums.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6 {
    /// Rows in the paper's order.
    pub rows: Vec<Table6Row>,
    /// Weighted average degradation over the chips each scheme saves:
    /// `(YAPD, VACA, Hybrid)` in percent.
    pub weighted: (f64, f64, f64),
}

/// The canonical row order of the paper's Table 6.
#[must_use]
pub fn table6_row_order() -> Vec<WayCycleCensus> {
    let c = |a, b, d| WayCycleCensus {
        ways_4: a,
        ways_5: b,
        ways_6_plus: d,
    };
    vec![
        c(3, 1, 0),
        c(2, 2, 0),
        c(1, 3, 0),
        c(0, 4, 0),
        c(3, 0, 1),
        c(2, 1, 1),
        c(1, 2, 1),
        c(0, 3, 1),
        c(4, 0, 0),
    ]
}

fn scheme_applicable(census: WayCycleCensus) -> (bool, bool, bool) {
    let yapd = census.ways_5 + census.ways_6_plus <= 1;
    let vaca = census.ways_6_plus == 0 && !census.all_fast();
    let hybrid = census.ways_6_plus <= 1;
    (yapd, vaca, hybrid)
}

/// Builds Table 6 from a yield population.
///
/// For each configuration row: the chip frequency comes from the chips the
/// Hybrid saves; the per-scheme degradations come from pipeline
/// simulations of the canonical repaired cache over all 24 benchmarks; the
/// weighted sums average each scheme's degradation over the chips *that
/// scheme* saves, exactly as the paper computes them (§5.2).
#[must_use]
pub fn table6(
    population: &Population,
    constraints: &YieldConstraints,
    opts: &PerfOptions,
) -> Table6 {
    let yapd = Yapd;
    let vaca = Vaca::new(CacheVariant::Regular);
    let hybrid = Hybrid::new(PowerDownKind::Vertical);
    let freq_yapd = saved_config_census(population, constraints, &yapd, CacheVariant::Regular);
    let freq_vaca = saved_config_census(population, constraints, &vaca, CacheVariant::Regular);
    let freq_hybrid = saved_config_census(population, constraints, &hybrid, CacheVariant::Regular);

    let pipeline = PipelineConfig::paper();
    let base = suite_cpis(&CacheConfig::l1d_paper(), &pipeline, opts);
    // Average degradation for a repaired L1D, memoised by configuration.
    let mut memo: BTreeMap<(Vec<u32>, Vec<bool>), f64> = BTreeMap::new();
    let mut degradation_of = |cfg: &CacheConfig| -> f64 {
        let key = (cfg.way_latency.clone(), cfg.way_enabled.clone());
        if let Some(&d) = memo.get(&key) {
            return d;
        }
        let modified = suite_cpis(cfg, &pipeline, opts);
        let d = degradation_between(&base, &modified).average;
        memo.insert(key, d);
        d
    };

    let mut rows = Vec::new();
    for census in table6_row_order() {
        let (can_yapd, can_vaca, can_hybrid) = scheme_applicable(census);
        let yapd_deg = can_yapd.then(|| degradation_of(&canonical_l1d(census, true)));
        let vaca_deg = can_vaca.then(|| degradation_of(&canonical_l1d(census, false)));
        let hybrid_deg = can_hybrid.then(|| {
            // The Hybrid keeps ways on as long as possible (§4.4): it
            // disables only for a 6-plus way or a leakage repair (4-0-0).
            let needs_disable = census.ways_6_plus > 0 || census.all_fast();
            degradation_of(&canonical_l1d(census, needs_disable))
        });
        rows.push(Table6Row {
            census,
            chip_frequency: freq_hybrid.get(&census).copied().unwrap_or(0),
            yapd: yapd_deg,
            vaca: vaca_deg,
            hybrid: hybrid_deg,
        });
    }

    let weighted_for = |freq: &BTreeMap<WayCycleCensus, usize>,
                        pick: &dyn Fn(&Table6Row) -> Option<f64>| {
        let mut total = 0usize;
        let mut sum = 0.0;
        for row in &rows {
            if let (Some(d), Some(&n)) = (pick(row), freq.get(&row.census)) {
                total += n;
                sum += d * n as f64;
            }
        }
        if total == 0 {
            0.0
        } else {
            sum / total as f64
        }
    };
    let weighted = (
        weighted_for(&freq_yapd, &|r| r.yapd),
        weighted_for(&freq_vaca, &|r| r.vaca),
        weighted_for(&freq_hybrid, &|r| r.hybrid),
    );

    Table6 { rows, weighted }
}

/// Renders a [`Table6`] in the paper's layout.
#[must_use]
pub fn render_table6(table: &Table6) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8}{:>10}{:>10}{:>10}{:>10}",
        "config", "# chips", "YAPD", "VACA", "Hybrid"
    );
    let cell = |v: Option<f64>| match v {
        Some(d) => format!("{d:>9.2}%"),
        None => format!("{:>10}", "N/A"),
    };
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{:<8}{:>10}{}{}{}",
            row.census.to_string(),
            row.chip_frequency,
            cell(row.yapd),
            cell(row.vaca),
            cell(row.hybrid),
        );
    }
    let _ = writeln!(
        out,
        "{:<8}{:>10}{:>9.2}%{:>9.2}%{:>9.2}%",
        "wgt sum", "", table.weighted.0, table.weighted.1, table.weighted.2
    );
    out
}

/// Comparison of the fixed keep-ways-on Hybrid against the adaptive
/// policy (§4.4's discussion) on 3-1-0 chips: per benchmark, the CPI cost
/// of each repair and which one the adaptive policy picks.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveComparison {
    /// `(benchmark, keep-on cost %, disable cost %, adaptive pick)` where
    /// the pick is `true` when the way is kept on.
    pub per_benchmark: Vec<(&'static str, f64, f64, bool)>,
    /// Suite-average cost of always keeping the way on (the paper's fixed
    /// policy), percent.
    pub fixed_average: f64,
    /// Suite-average cost when each benchmark gets the adaptive choice.
    pub adaptive_average: f64,
}

/// Evaluates the adaptive Hybrid policy on the 3-1-0 configuration: for
/// every benchmark, simulate both repairs (keep the 5-cycle way on, or
/// disable it) and let the workload's [`BenchmarkProfile::memory_intensity`]
/// make the §4.4 call.
#[must_use]
pub fn adaptive_comparison(opts: &PerfOptions) -> AdaptiveComparison {
    let census = WayCycleCensus {
        ways_4: 3,
        ways_5: 1,
        ways_6_plus: 0,
    };
    let pipeline = PipelineConfig::paper();
    let base = suite_cpis(&CacheConfig::l1d_paper(), &pipeline, opts);
    let keep = suite_cpis(&canonical_l1d(census, false), &pipeline, opts);
    let disable = suite_cpis(&canonical_l1d(census, true), &pipeline, opts);

    let mut per_benchmark = Vec::new();
    let mut fixed_sum = 0.0;
    let mut adaptive_sum = 0.0;
    for (profile, ((&(name, b), &(_, k)), &(_, d))) in spec2000::all_profiles()
        .into_iter()
        .zip(base.iter().zip(&keep).zip(&disable))
    {
        let keep_cost = 100.0 * (k / b - 1.0);
        let disable_cost = 100.0 * (d / b - 1.0);
        let keeps = profile.memory_intensity() >= 0.5;
        per_benchmark.push((name, keep_cost, disable_cost, keeps));
        fixed_sum += keep_cost;
        adaptive_sum += if keeps { keep_cost } else { disable_cost };
    }
    let n = per_benchmark.len() as f64;
    AdaptiveComparison {
        per_benchmark,
        fixed_average: fixed_sum / n,
        adaptive_average: adaptive_sum / n,
    }
}

/// Renders per-benchmark degradation series (Figures 9–10) as text.
#[must_use]
pub fn render_degradation(title: &str, series: &[(&str, &SuiteDegradation)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<12}", "benchmark");
    for (label, _) in series {
        let _ = write!(out, "{label:>10}");
    }
    out.push('\n');
    if let Some((_, first)) = series.first() {
        for (i, (name, _)) in first.per_benchmark.iter().enumerate() {
            let _ = write!(out, "{name:<12}");
            for (_, s) in series {
                let _ = write!(out, "{:>9.2}%", s.per_benchmark[i].1);
            }
            out.push('\n');
        }
    }
    let _ = write!(out, "{:<12}", "average");
    for (_, s) in series {
        let _ = write!(out, "{:>9.2}%", s.average);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintSpec, Scheme, SchemeOutcome};

    fn census(a: u8, b: u8, c: u8) -> WayCycleCensus {
        WayCycleCensus {
            ways_4: a,
            ways_5: b,
            ways_6_plus: c,
        }
    }

    #[test]
    fn canonical_l1d_shapes() {
        let vaca = canonical_l1d(census(2, 2, 0), false);
        assert_eq!(vaca.way_latency, vec![4, 4, 5, 5]);
        assert!(vaca.way_enabled.iter().all(|&e| e));
        vaca.validate().unwrap();

        let yapd = canonical_l1d(census(3, 1, 0), true);
        assert_eq!(yapd.way_enabled, vec![true, true, true, false]);
        yapd.validate().unwrap();

        let hybrid211 = canonical_l1d(census(2, 1, 1), true);
        assert_eq!(hybrid211.way_enabled, vec![true, true, true, false]);
        assert_eq!(&hybrid211.way_latency[..3], &[4, 4, 5]);
        hybrid211.validate().unwrap();

        let leak = canonical_l1d(census(4, 0, 0), true);
        assert_eq!(leak.way_enabled, vec![true, true, true, false]);
        leak.validate().unwrap();
    }

    #[test]
    fn applicability_matches_paper_rules() {
        assert_eq!(scheme_applicable(census(3, 1, 0)), (true, true, true));
        assert_eq!(scheme_applicable(census(2, 2, 0)), (false, true, true));
        assert_eq!(scheme_applicable(census(3, 0, 1)), (true, false, true));
        assert_eq!(scheme_applicable(census(2, 1, 1)), (false, false, true));
        assert_eq!(scheme_applicable(census(4, 0, 0)), (true, false, true));
        assert_eq!(scheme_applicable(census(2, 0, 2)), (false, false, false));
    }

    #[test]
    fn row_order_matches_paper() {
        let order = table6_row_order();
        assert_eq!(order.len(), 9);
        assert_eq!(order[0].to_string(), "3-1-0");
        assert_eq!(order[8].to_string(), "4-0-0");
    }

    #[test]
    fn suite_cpis_cover_all_benchmarks() {
        let opts = PerfOptions {
            warmup_uops: 2_000,
            measure_uops: 5_000,
            trace_seed: 1,
        };
        let cpis = suite_cpis(&CacheConfig::l1d_paper(), &PipelineConfig::paper(), &opts);
        assert_eq!(cpis.len(), 24);
        for (name, cpi) in &cpis {
            assert!(*cpi > 0.25, "{name}: cpi {cpi}");
            assert!(*cpi < 50.0, "{name}: cpi {cpi}");
        }
    }

    #[test]
    fn degradation_is_positive_for_slow_ways() {
        let opts = PerfOptions::quick();
        let mut l1d = CacheConfig::l1d_paper();
        l1d.way_latency = vec![5; 4];
        let deg = suite_degradation(&l1d, &opts);
        assert_eq!(deg.per_benchmark.len(), 24);
        assert!(deg.average > 0.5, "all-5-cycle must hurt: {}", deg.average);
    }

    #[test]
    fn table6_quick_has_paper_shape() {
        let population = Population::generate(400, 2006);
        let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
        let opts = PerfOptions::quick();
        let t = table6(&population, &constraints, &opts);

        assert_eq!(t.rows.len(), 9);
        // N/A pattern matches the paper.
        let row = |s: &str| t.rows.iter().find(|r| r.census.to_string() == s).unwrap();
        assert!(row("3-1-0").yapd.is_some() && row("3-1-0").vaca.is_some());
        assert!(row("2-2-0").yapd.is_none() && row("2-2-0").vaca.is_some());
        assert!(row("3-0-1").vaca.is_none() && row("3-0-1").yapd.is_some());
        assert!(row("2-1-1").yapd.is_none() && row("2-1-1").vaca.is_none());
        assert!(row("2-1-1").hybrid.is_some());
        assert!(row("4-0-0").vaca.is_none() && row("4-0-0").yapd.is_some());

        // YAPD's degradation is identical wherever it applies (always the
        // same 3-way repair).
        let y1 = row("3-1-0").yapd.unwrap();
        let y2 = row("3-0-1").yapd.unwrap();
        let y3 = row("4-0-0").yapd.unwrap();
        assert!((y1 - y2).abs() < 1e-9 && (y2 - y3).abs() < 1e-9);

        // Hybrid equals VACA where no disable is needed.
        assert!((row("3-1-0").hybrid.unwrap() - row("3-1-0").vaca.unwrap()).abs() < 1e-9);
        // Hybrid equals YAPD on 3-0-1 (disable the slow way, rest at 4).
        assert!((row("3-0-1").hybrid.unwrap() - row("3-0-1").yapd.unwrap()).abs() < 1e-9);

        // VACA gets more expensive with more slow ways.
        let v: Vec<f64> = ["3-1-0", "2-2-0", "1-3-0", "0-4-0"]
            .iter()
            .map(|s| row(s).vaca.unwrap())
            .collect();
        assert!(v[0] < v[3], "VACA cost grows with slow ways: {v:?}");

        // The frequency column counts Hybrid saves.
        let total: usize = t.rows.iter().map(|r| r.chip_frequency).sum();
        let hybrid = Hybrid::new(PowerDownKind::Vertical);
        let saved = population
            .chips
            .iter()
            .filter(|c| {
                matches!(
                    hybrid.apply(c, &constraints, population.calibration()),
                    SchemeOutcome::Saved(_)
                )
            })
            .count();
        assert_eq!(total, saved);
    }

    #[test]
    fn renderers_produce_all_rows() {
        let t = Table6 {
            rows: vec![Table6Row {
                census: census(3, 1, 0),
                chip_frequency: 91,
                yapd: Some(1.0),
                vaca: Some(2.0),
                hybrid: Some(2.0),
            }],
            weighted: (1.0, 2.0, 1.8),
        };
        let text = render_table6(&t);
        assert!(text.contains("3-1-0"));
        assert!(text.contains("91"));
        assert!(text.contains("wgt sum"));

        let deg = SuiteDegradation {
            per_benchmark: vec![("gzip", 1.5)],
            average: 1.5,
        };
        let text = render_degradation("fig", &[("VACA", &deg)]);
        assert!(text.contains("gzip"));
        assert!(text.contains("average"));
    }
}
