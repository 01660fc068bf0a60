//! The yield study: ties populations, constraints, classification and
//! schemes together into the paper's Tables 2–5 and Figure 8.

use crate::chip::Population;
use crate::classify::{classify, LossReason, WayCycleCensus};
use crate::constraints::{ConstraintSpec, YieldConstraints};
use crate::schemes::{HYapd, Hybrid, PowerDownKind, Scheme, SchemeOutcome, Vaca, Yapd};
use std::collections::BTreeMap;
use yac_circuit::CacheVariant;

/// Losses bucketed the way the paper's Tables 2–3 report them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LossBreakdown {
    /// Chips lost to the leakage constraint (timing-clean).
    pub leakage: usize,
    /// Chips lost to the delay constraint, indexed by `violating_ways - 1`.
    pub delay: Vec<usize>,
}

impl LossBreakdown {
    /// An empty breakdown sized for `ways`-way caches.
    #[must_use]
    pub fn new(ways: usize) -> Self {
        LossBreakdown {
            leakage: 0,
            delay: vec![0; ways],
        }
    }

    /// Counts one lost chip, rejecting a delay reason whose
    /// `violating_ways` does not fit this breakdown's way count. (The old
    /// behaviour silently resized the histogram — an out-of-range
    /// classification is corrupt data and belongs in the quarantine
    /// ledger, not an invented bucket.)
    fn count(&mut self, reason: LossReason) -> Result<(), InvalidLossReason> {
        match reason {
            LossReason::Leakage => self.leakage += 1,
            LossReason::Delay { violating_ways } => {
                if violating_ways == 0 || violating_ways > self.delay.len() {
                    return Err(InvalidLossReason {
                        violating_ways,
                        ways: self.delay.len(),
                    });
                }
                self.delay[violating_ways - 1] += 1;
            }
        }
        Ok(())
    }

    /// Total chips lost.
    #[must_use]
    pub fn total(&self) -> usize {
        self.leakage + self.delay.iter().sum::<usize>()
    }
}

/// A classification that does not fit the loss histogram: `violating_ways`
/// outside `1..=ways`. Chips reporting this are quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLossReason {
    /// The out-of-range way count.
    pub violating_ways: usize,
    /// The histogram's way count.
    pub ways: usize,
}

impl std::fmt::Display for InvalidLossReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "classification reported {} violating ways on a {}-way cache",
            self.violating_ways, self.ways
        )
    }
}

impl std::error::Error for InvalidLossReason {}

/// One scheme's losses, row-aligned with the base case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeLosses {
    /// The scheme's display name.
    pub name: String,
    /// Remaining losses per base-case row.
    pub losses: LossBreakdown,
}

/// A full loss table: base case plus one column per scheme (the shape of
/// the paper's Tables 2 and 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LossTable {
    /// Which organisation the base case was classified under.
    pub base_variant: CacheVariant,
    /// The constraint recipe in force.
    pub spec_name: String,
    /// Population size (chips that were actually classified).
    pub total_chips: usize,
    /// Chips lost in the base case, bucketed by reason.
    pub base: LossBreakdown,
    /// Remaining losses per scheme, in the base case's row buckets.
    pub schemes: Vec<SchemeLosses>,
    /// Chips excluded from the table entirely: quarantined during
    /// generation/evaluation, plus any whose classification did not fit
    /// the loss histogram. Not part of `total_chips`.
    pub quarantined: usize,
}

impl LossTable {
    /// Overall yield (fraction of shipping chips) under one scheme column,
    /// or the base case when `scheme` is `None`.
    #[must_use]
    pub fn yield_fraction(&self, scheme: Option<usize>) -> f64 {
        let lost = match scheme {
            None => self.base.total(),
            Some(i) => self.schemes[i].losses.total(),
        };
        1.0 - lost as f64 / self.total_chips as f64
    }

    /// Reduction in yield loss achieved by scheme `i` relative to the base
    /// case (the paper's headline percentages).
    #[must_use]
    pub fn loss_reduction(&self, i: usize) -> f64 {
        let base = self.base.total();
        if base == 0 {
            return 0.0;
        }
        1.0 - self.schemes[i].losses.total() as f64 / base as f64
    }
}

/// Builds a loss table: classifies every chip under `base_variant` and asks
/// each scheme whether it can save the violators.
///
/// # Examples
///
/// ```
/// use yac_core::{loss_table, ConstraintSpec, Population, Yapd, YieldConstraints};
/// use yac_circuit::CacheVariant;
///
/// let pop = Population::generate(300, 7);
/// let c = YieldConstraints::derive(&pop, ConstraintSpec::NOMINAL);
/// let table = loss_table(&pop, &c, CacheVariant::Regular, &[&Yapd]);
/// assert!(table.yield_fraction(Some(0)) >= table.yield_fraction(None));
/// ```
#[must_use]
pub fn loss_table(
    population: &Population,
    constraints: &YieldConstraints,
    base_variant: CacheVariant,
    schemes: &[&dyn Scheme],
) -> LossTable {
    let ways = population.chips.first().map_or(4, |c| c.way_count());
    let mut base = LossBreakdown::new(ways);
    let mut per_scheme: Vec<LossBreakdown> =
        schemes.iter().map(|_| LossBreakdown::new(ways)).collect();
    let mut analysis_quarantined = 0usize;

    for chip in &population.chips {
        let reason = {
            let _timer = yac_obs::phase_ctx(
                yac_obs::Phase::Classify,
                yac_obs::TraceCtx::chip(chip.index),
            );
            classify(chip.result(base_variant), constraints)
        };
        let Some(reason) = reason else {
            continue;
        };
        if base.count(reason).is_err() {
            // A classification that doesn't fit the histogram is corrupt
            // data; exclude the chip from the table instead of inventing
            // a bucket for it.
            analysis_quarantined += 1;
            continue;
        }
        let _timer =
            yac_obs::phase_ctx(yac_obs::Phase::Rescue, yac_obs::TraceCtx::chip(chip.index));
        for (column, (scheme, losses)) in schemes.iter().zip(&mut per_scheme).enumerate() {
            yac_obs::inc(yac_obs::Metric::RescueAttempts);
            yac_obs::trace_instant(
                yac_obs::TraceEventKind::RescueAttempt,
                yac_obs::TraceCtx::chip(chip.index).with_scheme(column as u16),
            );
            if scheme
                .apply(chip, constraints, population.calibration())
                .ships()
            {
                yac_obs::inc(yac_obs::Metric::RescueSaves);
            } else {
                losses
                    .count(reason)
                    .expect("scheme histogram matches the base histogram");
            }
        }
    }

    LossTable {
        base_variant,
        spec_name: constraints.spec.name.to_owned(),
        total_chips: population.len() - analysis_quarantined,
        quarantined: population.quarantine().len() + analysis_quarantined,
        base,
        schemes: schemes
            .iter()
            .zip(per_scheme)
            .map(|(s, losses)| SchemeLosses {
                name: s.name().to_owned(),
                losses,
            })
            .collect(),
    }
}

/// The paper's Table 2: regular power-down, nominal constraints, schemes
/// YAPD / VACA / Hybrid.
#[must_use]
pub fn table2(population: &Population, constraints: &YieldConstraints) -> LossTable {
    let vaca = Vaca::new(CacheVariant::Regular);
    let hybrid = Hybrid::new(PowerDownKind::Vertical);
    loss_table(
        population,
        constraints,
        CacheVariant::Regular,
        &[&Yapd, &vaca, &hybrid],
    )
}

/// The paper's Table 3: horizontal power-down architecture, schemes
/// H-YAPD / VACA / Hybrid.
#[must_use]
pub fn table3(population: &Population, constraints: &YieldConstraints) -> LossTable {
    let vaca = Vaca::new(CacheVariant::Horizontal);
    let hybrid = Hybrid::new(PowerDownKind::Horizontal);
    loss_table(
        population,
        constraints,
        CacheVariant::Horizontal,
        &[&HYapd, &vaca, &hybrid],
    )
}

/// The paper's Tables 4–5: total losses under relaxed and strict
/// constraints for one power-down organisation.
#[must_use]
pub fn constraint_sweep(
    population: &Population,
    kind: PowerDownKind,
    specs: &[ConstraintSpec],
) -> Vec<LossTable> {
    specs
        .iter()
        .map(|spec| {
            let constraints = YieldConstraints::derive(population, *spec);
            match kind {
                PowerDownKind::Vertical => table2(population, &constraints),
                PowerDownKind::Horizontal => table3(population, &constraints),
            }
        })
        .collect()
}

/// Everything the yield half of the paper produces, from one call:
/// nominal Tables 2–3 plus the relaxed/strict sweeps of Tables 4–5.
#[derive(Debug, Clone, PartialEq)]
pub struct FullStudy {
    /// Monte Carlo seed the study ran with.
    pub seed: u64,
    /// The derived nominal constraints.
    pub constraints: YieldConstraints,
    /// Table 2 (regular power-down, nominal constraints).
    pub table2: LossTable,
    /// Table 3 (horizontal power-down, nominal constraints).
    pub table3: LossTable,
    /// Table 4 (regular; relaxed then strict).
    pub table4: Vec<LossTable>,
    /// Table 5 (horizontal; relaxed then strict).
    pub table5: Vec<LossTable>,
}

impl FullStudy {
    /// The headline loss-reduction percentages, `(YAPD, H-YAPD, VACA,
    /// Hybrid)`, matching the paper's abstract.
    #[must_use]
    pub fn headline(&self) -> (f64, f64, f64, f64) {
        (
            100.0 * self.table2.loss_reduction(0),
            100.0 * self.table3.loss_reduction(0),
            100.0 * self.table2.loss_reduction(1),
            100.0 * self.table2.loss_reduction(2),
        )
    }

    /// The best overall yield achieved (the Hybrid on either layout).
    #[must_use]
    pub fn best_yield(&self) -> f64 {
        self.table2
            .yield_fraction(Some(2))
            .max(self.table3.yield_fraction(Some(2)))
    }
}

/// Runs the complete yield study — the one-call entry point for the
/// paper's Tables 2–5.
///
/// # Examples
///
/// ```
/// use yac_core::analysis::full_study;
///
/// let study = full_study(300, 2006);
/// let (yapd, hyapd, vaca, hybrid) = study.headline();
/// assert!(hybrid > yapd && hybrid > vaca);
/// assert!(study.best_yield() > 0.9);
/// assert!(hyapd > 0.0);
/// ```
#[must_use]
pub fn full_study(chips: usize, seed: u64) -> FullStudy {
    let population = Population::generate(chips, seed);
    study_from_population(&population, seed)
}

/// Builds the complete yield study (Tables 2–5) from an
/// already-generated population — the shared tail of [`full_study`] and
/// [`full_study_supervised`].
///
/// # Panics
///
/// Panics if the population is empty (no constraints can be derived).
#[must_use]
pub fn study_from_population(population: &Population, seed: u64) -> FullStudy {
    let constraints = YieldConstraints::derive(population, ConstraintSpec::NOMINAL);
    let sweep_specs = [ConstraintSpec::RELAXED, ConstraintSpec::STRICT];
    FullStudy {
        seed,
        constraints,
        table2: table2(population, &constraints),
        table3: table3(population, &constraints),
        table4: constraint_sweep(population, PowerDownKind::Vertical, &sweep_specs),
        table5: constraint_sweep(population, PowerDownKind::Horizontal, &sweep_specs),
    }
}

/// [`full_study`] on the supervised parallel executor
/// ([`crate::executor::run_supervised`]), with an explicit configuration
/// and executor so retry budgets, shard sizes and deadlines (and, in
/// tests, fault plans) can be tuned.
///
/// The result is identical — bit-for-bit — to [`full_study`] for any
/// worker count, because every chip is sampled from its own
/// counter-based stream and merged in index order.
///
/// # Errors
///
/// Returns [`crate::StudyError::Config`] when the variation
/// configuration is invalid, and [`crate::StudyError::Degraded`] when
/// *any* shard exhausted its retry budget: this function promises a
/// study of the full population, so a partial one is an error, never a
/// silently shrunken denominator. Callers that can work with a partial
/// result should use [`crate::executor::run_supervised`] and inspect
/// the outcome's degraded map. A population left empty by quarantine is
/// [`crate::StudyError::Mismatch`] (no constraints can be derived from
/// it).
pub fn full_study_supervised(
    config: &crate::chip::PopulationConfig,
    exec: &crate::executor::ExecutorConfig,
) -> Result<FullStudy, crate::StudyError> {
    let outcome = crate::executor::run_supervised(config, exec)?;
    if outcome.is_degraded() {
        return Err(crate::StudyError::Degraded {
            missing: outcome.missing_chips(),
            requested: outcome.requested_chips,
        });
    }
    if outcome.population.is_empty() {
        return Err(crate::StudyError::Mismatch(
            "population is empty: no constraints can be derived".into(),
        ));
    }
    Ok(study_from_population(&outcome.population, config.seed))
}

/// One point of the Figure 8 scatter: a chip's access latency and
/// mean-normalised leakage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Cache access delay (normalised units).
    pub delay: f64,
    /// Leakage relative to the population mean.
    pub normalized_leakage: f64,
}

/// The Figure 8 scatter: normalised leakage versus latency for every chip.
#[must_use]
pub fn fig8_scatter(population: &Population) -> Vec<ScatterPoint> {
    let leaks = population.leakages(CacheVariant::Regular);
    let mean = leaks.iter().sum::<f64>() / leaks.len().max(1) as f64;
    population
        .chips
        .iter()
        .map(|chip| ScatterPoint {
            delay: chip.regular.delay,
            normalized_leakage: chip.regular.leakage / mean,
        })
        .collect()
}

/// Census of *saved* chips by their pre-repair way-cycle configuration —
/// the "chip frequency" column of the paper's Table 6.
///
/// `4-0-0` entries are leakage-limited chips (all ways timing-clean) that
/// the scheme had to repair.
#[must_use]
pub fn saved_config_census(
    population: &Population,
    constraints: &YieldConstraints,
    scheme: &dyn Scheme,
    variant: CacheVariant,
) -> BTreeMap<WayCycleCensus, usize> {
    let mut census = BTreeMap::new();
    for chip in &population.chips {
        let outcome = {
            let _timer =
                yac_obs::phase_ctx(yac_obs::Phase::Rescue, yac_obs::TraceCtx::chip(chip.index));
            scheme.apply(chip, constraints, population.calibration())
        };
        if matches!(outcome, SchemeOutcome::Saved(_)) {
            let key = WayCycleCensus::of(chip.result(variant), constraints);
            *census.entry(key).or_insert(0) += 1;
        }
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::NaiveBinning;

    fn setup() -> (Population, YieldConstraints) {
        let pop = Population::generate(1000, 2006);
        let c = YieldConstraints::derive(&pop, ConstraintSpec::NOMINAL);
        (pop, c)
    }

    #[test]
    fn table2_has_paper_shape() {
        let (pop, c) = setup();
        let t = table2(&pop, &c);
        assert_eq!(t.schemes.len(), 3);
        let base = &t.base;
        let yapd = &t.schemes[0].losses;
        let vaca = &t.schemes[1].losses;
        let hybrid = &t.schemes[2].losses;

        // Base case: a meaningful fraction lost, split between reasons.
        let frac = base.total() as f64 / t.total_chips as f64;
        assert!((0.08..0.30).contains(&frac), "base loss fraction {frac}");
        assert!(base.leakage > 0 && base.delay[0] > 0);

        // YAPD nullifies single-way delay losses, cannot touch multi-way.
        assert_eq!(yapd.delay[0], 0);
        assert_eq!(&yapd.delay[1..], &base.delay[1..]);
        assert!(yapd.leakage < base.leakage);

        // VACA cannot save leakage, saves most single-way violators.
        assert_eq!(vaca.leakage, base.leakage);
        assert!(vaca.delay[0] < base.delay[0]);

        // The Hybrid dominates everything.
        assert!(hybrid.total() <= yapd.total());
        assert!(hybrid.total() <= vaca.total());
        assert_eq!(hybrid.delay[0], 0);
        assert_eq!(hybrid.leakage, yapd.leakage);

        // Headline ordering: Hybrid > YAPD > VACA in loss reduction.
        assert!(t.loss_reduction(2) >= t.loss_reduction(0));
        assert!(t.loss_reduction(0) > t.loss_reduction(1));
    }

    #[test]
    fn table3_has_paper_shape() {
        let (pop, c) = setup();
        let t2 = table2(&pop, &c);
        let t3 = table3(&pop, &c);
        // The slower H architecture loses more chips at the same limits.
        assert!(t3.base.total() > t2.base.total());
        // H-YAPD saves the vast majority of single-way violators (the
        // paper reports all of them; our circuit model leaves a small
        // remainder whose slow way is uniformly slow across its regions).
        let hyapd = &t3.schemes[0].losses;
        assert!(
            (hyapd.delay[0] as f64) < 0.25 * t3.base.delay[0] as f64,
            "H-YAPD single-way losses {} of {}",
            hyapd.delay[0],
            t3.base.delay[0]
        );
        // ... and recovers some multi-way violators (unlike YAPD).
        let multi_base: usize = t3.base.delay[1..].iter().sum();
        let multi_hyapd: usize = hyapd.delay[1..].iter().sum();
        assert!(multi_hyapd < multi_base);
        // Hybrid-H dominates.
        assert!(t3.schemes[2].losses.total() <= hyapd.total());
    }

    #[test]
    fn hyapd_beats_yapd_overall_and_matches_on_leakage() {
        // Paper: H-YAPD reduces losses by 72.4% vs YAPD's 68.1%, and trims
        // leakage losses to 26 vs YAPD's 33. Our model reproduces the
        // ordering on total loss reduction and near-parity on leakage.
        let (pop, c) = setup();
        let t2 = table2(&pop, &c);
        let t3 = table3(&pop, &c);
        assert!(
            t3.loss_reduction(0) > t2.loss_reduction(0) - 0.02,
            "H-YAPD reduction {} vs YAPD {}",
            t3.loss_reduction(0),
            t2.loss_reduction(0)
        );
        let leak_h = t3.schemes[0].losses.leakage as f64;
        let leak_v = t2.schemes[0].losses.leakage as f64;
        assert!(
            leak_h <= 1.25 * leak_v,
            "H-YAPD leakage {leak_h} vs YAPD {leak_v}"
        );
    }

    #[test]
    fn strict_loses_more_than_relaxed() {
        let (pop, _) = setup();
        let tables = constraint_sweep(
            &pop,
            PowerDownKind::Vertical,
            &[ConstraintSpec::RELAXED, ConstraintSpec::STRICT],
        );
        assert_eq!(tables.len(), 2);
        assert!(tables[1].base.total() > tables[0].base.total());
        for i in 0..3 {
            assert!(
                tables[1].schemes[i].losses.total() > tables[0].schemes[i].losses.total(),
                "scheme {i} must lose more under strict constraints"
            );
        }
    }

    #[test]
    fn fig8_scatter_is_anticorrelated() {
        let (pop, _) = setup();
        let points = fig8_scatter(&pop);
        assert_eq!(points.len(), pop.len());
        let xs: Vec<f64> = points.iter().map(|p| p.delay).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.normalized_leakage).collect();
        let r = yac_variation::stats::pearson(&xs, &ys).unwrap();
        assert!(r < -0.05, "delay and leakage should anticorrelate (r={r})");
        let mean_norm = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((mean_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn census_counts_saved_chips_only() {
        let (pop, c) = setup();
        let census = saved_config_census(&pop, &c, &Yapd, CacheVariant::Regular);
        let total: usize = census.values().sum();
        let t = table2(&pop, &c);
        assert_eq!(total, t.base.total() - t.schemes[0].losses.total());
        // YAPD saves only 4-0-0 (leakage), 3-1-0 and 3-0-1 chips.
        for key in census.keys() {
            assert!(key.ways_5 + key.ways_6_plus <= 1, "unexpected config {key}");
        }
    }

    #[test]
    fn naive_binning_census_is_uniform_latency() {
        let (pop, c) = setup();
        let bin = NaiveBinning::default();
        let census = saved_config_census(&pop, &c, &bin, CacheVariant::Regular);
        for key in census.keys() {
            assert_eq!(key.ways_6_plus, 0);
            assert!(key.ways_5 >= 1, "binned chips have at least one slow way");
        }
    }

    #[test]
    fn yield_fraction_is_consistent() {
        let (pop, c) = setup();
        let t = table2(&pop, &c);
        let base_yield = t.yield_fraction(None);
        assert!((0.0..=1.0).contains(&base_yield));
        for i in 0..t.schemes.len() {
            assert!(t.yield_fraction(Some(i)) >= base_yield);
            assert!((0.0..=1.0).contains(&t.loss_reduction(i)));
        }
    }

    #[test]
    fn full_study_is_self_consistent() {
        let study = full_study(400, 2006);
        assert_eq!(study.seed, 2006);
        assert_eq!(study.table4.len(), 2);
        assert_eq!(study.table5.len(), 2);
        // The strict sweep loses more than the nominal case, which loses
        // more than the relaxed sweep.
        assert!(study.table4[1].base.total() > study.table2.base.total());
        assert!(study.table4[0].base.total() < study.table2.base.total());
        // Re-running reproduces bit-identically.
        assert_eq!(study, full_study(400, 2006));
    }

    #[test]
    fn loss_breakdown_counts_and_totals() {
        let mut b = LossBreakdown::new(4);
        b.count(LossReason::Leakage).unwrap();
        b.count(LossReason::Delay { violating_ways: 1 }).unwrap();
        b.count(LossReason::Delay { violating_ways: 4 }).unwrap();
        assert_eq!(b.leakage, 1);
        assert_eq!(b.delay, vec![1, 0, 0, 1]);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn loss_breakdown_rejects_out_of_range_reasons() {
        let mut b = LossBreakdown::new(4);
        let err = b
            .count(LossReason::Delay { violating_ways: 5 })
            .unwrap_err();
        assert_eq!(err.violating_ways, 5);
        assert_eq!(err.ways, 4);
        let err0 = b
            .count(LossReason::Delay { violating_ways: 0 })
            .unwrap_err();
        assert_eq!(err0.violating_ways, 0);
        // The rejected counts left the histogram untouched.
        assert_eq!(b.total(), 0);
        assert_eq!(b.delay.len(), 4);
    }
}
