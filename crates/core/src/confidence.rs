//! Statistical confidence for the yield estimates.
//!
//! The paper reports one 2000-chip Monte Carlo run. Any such estimate
//! carries sampling error; this module repeats the whole study across
//! independent seeds and reports mean ± σ for every scheme's yield and
//! loss reduction, so a reader can tell which differences between schemes
//! are real and which are Monte Carlo noise.

use crate::analysis::{table2, table3, LossTable};
use crate::chip::Population;
use crate::constraints::{ConstraintSpec, YieldConstraints};
use crate::executor::fan_out;
use std::convert::Infallible;
use std::fmt;
use std::panic::catch_unwind;
use yac_variation::stats::Summary;

/// A yield estimate with an explicit uncertainty interval.
///
/// Produced by [`yield_interval`] for supervised runs, where degraded
/// shards can leave chips unevaluated: instead of silently shrinking the
/// denominator, the interval widens to bracket every possible outcome of
/// the missing chips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldInterval {
    /// Point estimate of the shipping fraction among evaluated chips.
    pub estimate: f64,
    /// Lower bound: every missing chip assumed lost, minus sampling error.
    pub lo: f64,
    /// Upper bound: every missing chip assumed shipped, plus sampling
    /// error.
    pub hi: f64,
}

impl YieldInterval {
    /// Width of the interval.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `p` lies inside the interval.
    #[must_use]
    pub fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }
}

impl fmt::Display for YieldInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} [{:.4}, {:.4}]", self.estimate, self.lo, self.hi)
    }
}

/// A 95% yield interval that accounts for unevaluated chips.
///
/// `shipped` of `evaluated` chips passed; `missing` more were requested
/// but never evaluated (degraded shards). The bounds combine a normal
/// approximation of the binomial sampling error (z = 1.96) over the
/// evaluated chips with the worst/best case for the missing ones: the
/// lower bound treats all of them as lost, the upper bound as shipped.
/// With `missing = 0` this reduces to the standard Wald interval; each
/// missing chip monotonically widens the interval.
///
/// # Panics
///
/// Panics if `shipped > evaluated`.
#[must_use]
pub fn yield_interval(shipped: usize, evaluated: usize, missing: usize) -> YieldInterval {
    assert!(shipped <= evaluated, "cannot ship more than was evaluated");
    let total = (evaluated + missing) as f64;
    if evaluated == 0 {
        // Nothing measured: the estimate is vacuous and the interval
        // spans everything the missing chips could do.
        return YieldInterval {
            estimate: 0.0,
            lo: 0.0,
            hi: if missing > 0 { 1.0 } else { 0.0 },
        };
    }
    let n = evaluated as f64;
    let p = shipped as f64 / n;
    let se = (p * (1.0 - p) / n).sqrt();
    const Z: f64 = 1.96;
    YieldInterval {
        estimate: p,
        lo: (shipped as f64 / total - Z * se).max(0.0),
        hi: ((shipped + missing) as f64 / total + Z * se).min(1.0),
    }
}

/// Mean ± population σ of one scalar across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean over the seeds.
    pub mean: f64,
    /// Population standard deviation over the seeds.
    pub std_dev: f64,
}

impl Estimate {
    fn from_samples(samples: &[f64]) -> Estimate {
        let s = Summary::from_slice(samples).expect("non-empty finite samples");
        Estimate {
            mean: s.mean,
            std_dev: s.std_dev,
        }
    }

    /// Whether this estimate is clearly above another (means separated by
    /// more than the combined σ).
    #[must_use]
    pub fn clearly_above(&self, other: &Estimate) -> bool {
        self.mean - other.mean > self.std_dev + other.std_dev
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.std_dev)
    }
}

/// One scheme's yield statistics across seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfidence {
    /// Scheme display name.
    pub name: String,
    /// Yield percentage.
    pub yield_pct: Estimate,
    /// Loss-reduction percentage relative to the base case.
    pub loss_reduction_pct: Estimate,
}

/// The multi-seed study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceReport {
    /// Chips per seed.
    pub chips: usize,
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Base-case yield percentage.
    pub base_yield_pct: Estimate,
    /// Per-scheme statistics: YAPD, VACA, Hybrid (regular architecture)
    /// followed by H-YAPD, VACA-H, Hybrid-H (horizontal architecture).
    pub schemes: Vec<SchemeConfidence>,
}

impl ConfidenceReport {
    /// Looks up one scheme's statistics by display name.
    #[must_use]
    pub fn scheme(&self, name: &str) -> Option<&SchemeConfidence> {
        self.schemes.iter().find(|s| s.name == name)
    }
}

impl fmt::Display for ConfidenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} seeds x {} chips: base yield {} %",
            self.seeds.len(),
            self.chips,
            self.base_yield_pct
        )?;
        for s in &self.schemes {
            writeln!(
                f,
                "{:<10} yield {} %   loss reduction {} %",
                s.name, s.yield_pct, s.loss_reduction_pct
            )?;
        }
        Ok(())
    }
}

fn collect(tables: &[LossTable], scheme_idx: usize) -> (Vec<f64>, Vec<f64>) {
    let yields = tables
        .iter()
        .map(|t| 100.0 * t.yield_fraction(Some(scheme_idx)))
        .collect();
    let reductions = tables
        .iter()
        .map(|t| 100.0 * t.loss_reduction(scheme_idx))
        .collect();
    (yields, reductions)
}

/// Runs the full Table 2 + Table 3 study once per seed and aggregates.
///
/// Populations are generated in parallel on the crate's batch pool, one
/// worker per available core.
///
/// # Panics
///
/// Panics if `seeds` is empty or `chips` is zero.
///
/// # Examples
///
/// ```
/// use yac_core::confidence::confidence_study;
///
/// let report = confidence_study(150, &[1, 2, 3]);
/// let hybrid = report.scheme("Hybrid").unwrap();
/// assert!(hybrid.yield_pct.mean > 85.0);
/// ```
#[must_use]
pub fn confidence_study(chips: usize, seeds: &[u64]) -> ConfidenceReport {
    assert!(!seeds.is_empty(), "at least one seed required");
    assert!(chips > 0, "population must be non-empty");

    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut runs: Vec<Option<std::thread::Result<(LossTable, LossTable)>>> =
        seeds.iter().map(|_| None).collect();
    let study = |_worker: usize, index: usize| {
        let run = catch_unwind(|| {
            let population = Population::generate(chips, seeds[index]);
            let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
            (
                table2(&population, &constraints),
                table3(&population, &constraints),
            )
        });
        (index, run)
    };
    let Ok(()) = fan_out(workers, seeds.len(), study, |(index, run)| {
        runs[index] = Some(run);
        Ok::<(), Infallible>(())
    });
    // Propagate a worker's own panic payload (the first in seed order)
    // instead of masking it behind a fresh "study worker" panic here.
    let runs: Vec<(LossTable, LossTable)> = runs
        .into_iter()
        .map(|run| match run.expect("the pool runs every seed") {
            Ok(run) => run,
            Err(panic) => std::panic::resume_unwind(panic),
        })
        .collect();

    let t2: Vec<LossTable> = runs.iter().map(|(a, _)| a.clone()).collect();
    let t3: Vec<LossTable> = runs.iter().map(|(_, b)| b.clone()).collect();

    let base: Vec<f64> = t2.iter().map(|t| 100.0 * t.yield_fraction(None)).collect();
    let mut schemes = Vec::new();
    for (tables, names) in [
        (&t2, ["YAPD", "VACA", "Hybrid"]),
        (&t3, ["H-YAPD", "VACA-H", "Hybrid-H"]),
    ] {
        for (i, name) in names.iter().enumerate() {
            let (yields, reductions) = collect(tables, i);
            schemes.push(SchemeConfidence {
                name: (*name).to_owned(),
                yield_pct: Estimate::from_samples(&yields),
                loss_reduction_pct: Estimate::from_samples(&reductions),
            });
        }
    }

    ConfidenceReport {
        chips,
        seeds: seeds.to_vec(),
        base_yield_pct: Estimate::from_samples(&base),
        schemes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_interval_reduces_to_wald_without_missing_chips() {
        let iv = yield_interval(90, 100, 0);
        assert!((iv.estimate - 0.9).abs() < 1e-12);
        let se = (0.9f64 * 0.1 / 100.0).sqrt();
        assert!((iv.lo - (0.9 - 1.96 * se)).abs() < 1e-12);
        assert!((iv.hi - (0.9 + 1.96 * se)).abs() < 1e-12);
        assert!(iv.contains(0.9));
    }

    #[test]
    fn missing_chips_monotonically_widen_the_interval() {
        let mut prev = yield_interval(90, 100, 0);
        for missing in [1, 5, 20, 100] {
            let iv = yield_interval(90, 100, missing);
            assert!(iv.width() > prev.width(), "missing={missing}");
            assert!(iv.lo <= prev.lo && iv.hi >= prev.hi, "nested widening");
            assert_eq!(iv.estimate, prev.estimate, "estimate is unchanged");
            prev = iv;
        }
    }

    #[test]
    fn yield_interval_stays_in_unit_range_and_handles_edges() {
        let all = yield_interval(100, 100, 0);
        assert!(all.hi <= 1.0 && all.lo <= all.hi);
        let none = yield_interval(0, 100, 0);
        assert!(none.lo >= 0.0 && none.lo <= none.hi);
        let vacuous = yield_interval(0, 0, 10);
        assert_eq!((vacuous.lo, vacuous.hi), (0.0, 1.0));
        let empty = yield_interval(0, 0, 0);
        assert_eq!((empty.lo, empty.hi), (0.0, 0.0));
        let text = yield_interval(9, 10, 1).to_string();
        assert!(text.contains('['), "{text}");
    }

    #[test]
    #[should_panic(expected = "cannot ship more")]
    fn yield_interval_rejects_impossible_counts() {
        let _ = yield_interval(11, 10, 0);
    }

    #[test]
    fn study_aggregates_across_seeds() {
        let report = confidence_study(200, &[1, 2, 3, 4]);
        assert_eq!(report.seeds.len(), 4);
        assert_eq!(report.schemes.len(), 6);
        assert!(report.base_yield_pct.mean > 60.0);
        assert!(report.base_yield_pct.std_dev > 0.0, "seeds must differ");
        for s in &report.schemes {
            assert!(s.yield_pct.mean > report.base_yield_pct.mean, "{}", s.name);
            assert!((0.0..=100.0).contains(&s.loss_reduction_pct.mean));
        }
    }

    #[test]
    fn hybrid_is_clearly_better_than_base_across_seeds() {
        let report = confidence_study(300, &[10, 20, 30]);
        let hybrid = report.scheme("Hybrid").expect("hybrid present");
        assert!(
            hybrid.yield_pct.clearly_above(&report.base_yield_pct),
            "hybrid {} vs base {}",
            hybrid.yield_pct,
            report.base_yield_pct
        );
    }

    #[test]
    fn report_is_deterministic_and_displayable() {
        let a = confidence_study(100, &[5, 6]);
        let b = confidence_study(100, &[5, 6]);
        assert_eq!(a, b);
        let text = a.to_string();
        assert!(text.contains("Hybrid"));
        assert!(text.contains("H-YAPD"));
    }

    #[test]
    fn estimate_comparison() {
        let a = Estimate {
            mean: 10.0,
            std_dev: 1.0,
        };
        let b = Estimate {
            mean: 5.0,
            std_dev: 1.0,
        };
        assert!(a.clearly_above(&b));
        assert!(!b.clearly_above(&a));
        let c = Estimate {
            mean: 10.5,
            std_dev: 2.0,
        };
        assert!(!c.clearly_above(&a), "overlapping estimates are not clear");
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn empty_seed_list_rejected() {
        let _ = confidence_study(10, &[]);
    }
}
