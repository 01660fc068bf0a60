//! Enabling observability must never change a study's results: metrics
//! are observation only. These tests run the same study with the global
//! registry off and on and require byte-identical outputs.

use std::sync::Mutex;
use yac_core::{
    suite_cpis_isolated, table2, table3, ConstraintSpec, PerfOptions, Population, YieldConstraints,
};
use yac_pipeline::PipelineConfig;

/// The tests in this file toggle the process-global registry, so they
/// must not interleave with each other.
static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Full yield study (population → constraints → Tables 2–3) with metrics
/// on vs. off produces identical `LossTable` output.
#[test]
fn loss_tables_identical_with_metrics_on_and_off() {
    let _lock = serialized();
    yac_obs::disable();
    let pop_off = Population::generate(400, 2006);
    let c_off = YieldConstraints::derive(&pop_off, ConstraintSpec::NOMINAL);
    let t2_off = table2(&pop_off, &c_off);
    let t3_off = table3(&pop_off, &c_off);

    yac_obs::enable();
    let pop_on = Population::generate(400, 2006);
    let c_on = YieldConstraints::derive(&pop_on, ConstraintSpec::NOMINAL);
    let t2_on = table2(&pop_on, &c_on);
    let t3_on = table3(&pop_on, &c_on);
    yac_obs::disable();

    assert_eq!(pop_off.chips, pop_on.chips);
    assert_eq!(t2_off, t2_on);
    assert_eq!(t3_off, t3_on);
    // The rendered reports match byte-for-byte too.
    assert_eq!(
        yac_core::render_loss_table(&t2_off),
        yac_core::render_loss_table(&t2_on)
    );
}

/// Pipeline CPI simulation is unaffected by metrics collection.
#[test]
fn suite_cpis_identical_with_metrics_on_and_off() {
    let opts = PerfOptions {
        warmup_uops: 2_000,
        measure_uops: 5_000,
        trace_seed: 1,
    };
    let l1d = yac_cache::CacheConfig::l1d_paper();
    let pipeline = PipelineConfig::paper();

    let _lock = serialized();
    yac_obs::disable();
    let (off, fail_off) = suite_cpis_isolated(&l1d, &pipeline, &opts);
    yac_obs::enable();
    let (on, fail_on) = suite_cpis_isolated(&l1d, &pipeline, &opts);
    yac_obs::disable();

    assert_eq!(fail_off, fail_on);
    assert_eq!(off.len(), on.len());
    for ((name_off, cpi_off), (name_on, cpi_on)) in off.iter().zip(&on) {
        assert_eq!(name_off, name_on);
        assert!(
            cpi_off.to_bits() == cpi_on.to_bits(),
            "{name_off}: CPI differs with metrics on ({cpi_off} vs {cpi_on})"
        );
    }
}

/// While enabled, the study actually populates the expected counters —
/// the observability layer observes, but it does observe.
#[test]
fn enabled_metrics_see_the_study() {
    let _lock = serialized();
    let reg = yac_obs::global();
    yac_obs::enable();
    let before = reg.snapshot();
    let pop = Population::generate(64, 7);
    let c = YieldConstraints::derive(&pop, ConstraintSpec::NOMINAL);
    let _ = table2(&pop, &c);
    let after = reg.snapshot();
    yac_obs::disable();

    use yac_obs::Metric;
    let delta = |m: Metric| after.counter(m) - before.counter(m);
    assert!(delta(Metric::DiesSampled) >= 64);
    // Two circuit evaluations per chip (regular + horizontal).
    assert!(delta(Metric::CircuitEvals) >= 128);
    assert!(delta(Metric::ChipsClassified) >= 64);
    assert!(delta(Metric::RescueAttempts) >= delta(Metric::RescueSaves));
}

/// The supervised executor counts sampling exactly like the serial
/// reference: `dies_sampled` and `sample_failures` move by the same
/// amounts at any worker count, fault-injected chips included.
#[test]
fn supervised_runs_count_sampling_like_the_serial_path() {
    use yac_core::{run_supervised, ExecutorConfig, PopulationConfig};
    use yac_obs::Metric;

    let mut cfg = PopulationConfig::paper(2006);
    cfg.chips = 150;
    cfg.faults = Some(yac_variation::FaultPlan::new(0.1, 3).unwrap());

    let _lock = serialized();
    let reg = yac_obs::global();
    yac_obs::enable();
    let counts = |run: &dyn Fn()| {
        let before = reg.snapshot();
        run();
        let after = reg.snapshot();
        [Metric::DiesSampled, Metric::SampleFailures].map(|m| after.counter(m) - before.counter(m))
    };
    let serial = counts(&|| {
        let _ = Population::generate_with(&cfg);
    });
    let supervised: Vec<_> = [1, 3]
        .into_iter()
        .map(|workers| {
            let mut exec = ExecutorConfig::with_workers(workers);
            exec.shard_chips = 16;
            counts(&|| {
                run_supervised(&cfg, &exec).unwrap();
            })
        })
        .collect();
    yac_obs::disable();

    assert!(serial[1] > 0, "the plan must make some dies fail to sample");
    assert_eq!(serial[0] + serial[1], 150);
    for (workers, got) in [1, 3].into_iter().zip(supervised) {
        assert_eq!(got, serial, "workers={workers}");
    }
}
