//! The supervised parallel executor against the serial reference paths:
//! bit-identical merges at every worker count, retry-through-faults, the
//! degraded path with widened intervals, and shard-granular resume.

use std::time::Duration;
use yac_core::checkpoint::render_checkpoint;
use yac_core::{
    full_study, full_study_supervised, render_loss_table, run_supervised, table2, yield_interval,
    CheckpointState, ConstraintSpec, ExecutorConfig, Population, PopulationConfig, ShardFaultPlan,
    StudyError, YieldConstraints,
};
use yac_obs::Metric;
use yac_variation::FaultPlan;

const CHIPS: usize = 120;
const SEED: u64 = 2006;

fn config(faults: Option<FaultPlan>) -> PopulationConfig {
    let mut cfg = PopulationConfig::paper(SEED);
    cfg.chips = CHIPS;
    cfg.faults = faults;
    cfg
}

fn exec(workers: usize) -> ExecutorConfig {
    let mut e = ExecutorConfig::with_workers(workers);
    e.shard_chips = 16;
    e.backoff = Duration::ZERO;
    e
}

/// Per-chip delay/leakage bit patterns under both organisations: the
/// strictest possible equality between two populations.
fn bit_signature(pop: &Population) -> Vec<(u64, [u64; 4])> {
    pop.chips
        .iter()
        .map(|c| {
            (
                c.index,
                [
                    c.regular.delay.to_bits(),
                    c.regular.leakage.to_bits(),
                    c.horizontal.delay.to_bits(),
                    c.horizontal.leakage.to_bits(),
                ],
            )
        })
        .collect()
}

fn assert_matches_serial(cfg: &PopulationConfig, parallel: &Population, label: &str) {
    let serial = Population::generate_with(cfg);
    assert_eq!(
        bit_signature(parallel),
        bit_signature(&serial),
        "{label}: per-chip f64 bits must match the serial path"
    );
    assert_eq!(parallel.chips, serial.chips, "{label}: full chip data");
    assert_eq!(
        parallel.quarantine(),
        serial.quarantine(),
        "{label}: quarantine ledgers"
    );
    let constraints = YieldConstraints::derive(&serial, ConstraintSpec::NOMINAL);
    assert_eq!(
        render_loss_table(&table2(parallel, &constraints)),
        render_loss_table(&table2(&serial, &constraints)),
        "{label}: rendered loss tables must be byte-identical"
    );
}

#[test]
fn merge_is_bit_identical_to_serial_for_every_worker_count() {
    for faults in [None, Some(FaultPlan::new(0.10, 17).unwrap())] {
        let cfg = config(faults);
        for workers in [1, 2, 4, 7] {
            let outcome = run_supervised(&cfg, &exec(workers)).unwrap();
            assert!(!outcome.is_degraded(), "no shard faults were injected");
            assert_eq!(outcome.requested_chips, CHIPS);
            assert_matches_serial(
                &cfg,
                &outcome.population,
                &format!("workers={workers}, faults={}", faults.is_some()),
            );
        }
    }
}

#[test]
fn retried_shards_still_merge_bit_identically() {
    let cfg = config(Some(FaultPlan::new(0.08, 3).unwrap()));
    for workers in [2, 4] {
        let mut e = exec(workers);
        // Half the shards panic on their first two attempts; three
        // retries are enough for all of them to come back.
        e.shard_faults = Some(ShardFaultPlan::new(0.5, 9, 2).unwrap());
        e.max_retries = 3;
        let before = yac_obs::global().counter(Metric::ShardRetries);
        yac_obs::enable();
        let outcome = run_supervised(&cfg, &e).unwrap();
        let retries = yac_obs::global().counter(Metric::ShardRetries) - before;
        assert!(!outcome.is_degraded(), "retry budget covers the faults");
        assert!(retries > 0, "the fault plan must actually fire");
        assert_matches_serial(
            &cfg,
            &outcome.population,
            &format!("retry workers={workers}"),
        );
    }
}

#[test]
fn exhausted_retries_degrade_the_shard_but_complete_the_study() {
    let cfg = config(None);
    let mut e = exec(4);
    let plan = FaultPlan::new(0.3, 5).unwrap();
    e.shard_faults = Some(ShardFaultPlan::new(0.3, 5, u32::MAX).unwrap());
    e.max_retries = 1;

    yac_obs::enable();
    let registry = yac_obs::global();
    let degraded_before = registry.counter(Metric::DegradedShards);
    let outcome = run_supervised(&cfg, &e).unwrap();
    let degraded_delta = registry.counter(Metric::DegradedShards) - degraded_before;

    // The failing shards are exactly the ones the deterministic plan
    // selects (shard indices hashed like chip indices).
    let shard_count = CHIPS.div_ceil(e.shard_chips);
    let expected: Vec<u64> = (0..shard_count as u64)
        .filter(|&s| plan.fault_for(SEED, s).is_some())
        .map(|s| s * e.shard_chips as u64)
        .collect();
    assert!(
        !expected.is_empty() && expected.len() < shard_count,
        "plan must fail some but not all shards (got {expected:?})"
    );
    let starts: Vec<u64> = outcome.degraded.iter().map(|d| d.start).collect();
    assert_eq!(starts, expected, "degraded map");
    for d in &outcome.degraded {
        assert_eq!(d.attempts, 2, "max_retries=1 means two attempts");
        assert!(d.error.contains("injected shard fault"), "{}", d.error);
    }
    assert!(
        degraded_delta >= expected.len() as u64,
        "degraded_shards counter must be non-zero"
    );

    // The study still completed, every chip is accounted for, and the
    // survivors match the serial run restricted to the surviving shards.
    assert_eq!(
        outcome.population.len() + outcome.missing_chips(),
        CHIPS,
        "no chip silently vanished"
    );
    let serial = Population::generate_with(&cfg);
    let survivors: Vec<u64> = outcome.population.chips.iter().map(|c| c.index).collect();
    assert_eq!(
        bit_signature(&outcome.population),
        bit_signature(&serial.restricted_to(&survivors)),
    );

    // The interval is widened by the missing chips, not silently
    // re-normalised to the shrunken denominator.
    let narrow = yield_interval(
        (outcome.yield_interval.estimate * outcome.population.len() as f64).round() as usize,
        outcome.population.len(),
        0,
    );
    assert!(
        outcome.yield_interval.width() > narrow.width(),
        "interval {} must be wider than the no-missing one {}",
        outcome.yield_interval,
        narrow
    );
    assert!(outcome.yield_interval.lo < narrow.lo);
    assert!(outcome.yield_interval.hi > narrow.hi);
}

#[test]
fn deadline_watchdog_cancels_overlong_shards() {
    let cfg = config(None);
    let mut e = ExecutorConfig::with_workers(2);
    e.shard_chips = CHIPS; // one big shard
    e.max_retries = 0;
    e.backoff = Duration::ZERO;
    // Deterministic however fast the machine is: the worker checks its
    // own elapsed time between chips, so a 1 ns budget is exceeded by
    // the second chip at the latest — the test does not race the
    // watchdog thread's first sweep.
    e.shard_deadline = Some(Duration::from_nanos(1));

    yac_obs::enable();
    let registry = yac_obs::global();
    let timeouts_before = registry.counter(Metric::ShardTimeouts);
    let outcome = run_supervised(&cfg, &e).unwrap();
    assert_eq!(outcome.degraded.len(), 1, "the single shard must time out");
    assert!(
        outcome.degraded[0].error.contains("deadline"),
        "{}",
        outcome.degraded[0].error
    );
    assert_eq!(outcome.missing_chips(), CHIPS);
    assert!(outcome.population.is_empty());
    assert!(registry.counter(Metric::ShardTimeouts) > timeouts_before);
    // Vacuous interval: nothing measured, everything possible.
    assert_eq!(outcome.yield_interval.lo, 0.0);
    assert_eq!(outcome.yield_interval.hi, 1.0);
}

#[test]
fn full_study_supervised_matches_full_study() {
    let serial = full_study(CHIPS, SEED);
    for workers in [1, 3] {
        let parallel =
            full_study_supervised(&config(None), &ExecutorConfig::with_workers(workers)).unwrap();
        assert_eq!(parallel, serial, "workers={workers}");
    }
}

#[test]
fn full_study_refuses_a_degraded_population() {
    let cfg = config(None);
    let mut e = exec(4);
    e.shard_faults = Some(ShardFaultPlan::new(0.3, 5, u32::MAX).unwrap());
    e.max_retries = 0;

    let direct = run_supervised(&cfg, &e).unwrap();
    assert!(direct.is_degraded(), "the plan must degrade some shards");

    // The full-study wrapper promises the whole population; a partial
    // one must surface as an error, not a shrunken-denominator study.
    let err = full_study_supervised(&cfg, &e).unwrap_err();
    assert_eq!(
        err,
        StudyError::Degraded {
            missing: direct.missing_chips(),
            requested: CHIPS,
        }
    );
}

#[test]
fn chip_granular_and_foreign_layout_checkpoints_are_refused() {
    let dir = std::env::temp_dir().join("yac-executor-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = config(None);

    // A partial chip-granular checkpoint, as the retired serial runner
    // wrote it: 16 chips done, no shard records...
    let serial_path = dir.join("serial.ckpt");
    let mut chip_granular = CheckpointState::fresh(SEED, CHIPS);
    chip_granular.completed = Population::generate_with(&cfg).chips[..16].to_vec();
    chip_granular.done = 16;
    let text = render_checkpoint(&chip_granular);
    std::fs::write(&serial_path, &text).unwrap();
    // ... is neither resumed nor recomputed over.
    let err = yac_core::run_checkpointed_workers(&cfg, &exec(2), &serial_path, 1).unwrap_err();
    assert!(matches!(err, StudyError::Mismatch(_)), "got {err}");
    assert_eq!(std::fs::read_to_string(&serial_path).unwrap(), text);

    // A shard-granular checkpoint...
    let shard_path = dir.join("shards.ckpt");
    let _ = std::fs::remove_file(&shard_path);
    let partial =
        yac_core::run_checkpointed_workers_budget(&cfg, &exec(2), &shard_path, 1, Some(2)).unwrap();
    assert!(partial.is_none());

    // ... with a different shard layout is refused.
    let mut other = exec(2);
    other.shard_chips = 10;
    let err = yac_core::run_checkpointed_workers(&cfg, &other, &shard_path, 1).unwrap_err();
    assert!(matches!(err, StudyError::Mismatch(_)), "got {err}");

    let _ = std::fs::remove_file(&serial_path);
    let _ = std::fs::remove_file(&shard_path);
}

#[test]
fn killed_parallel_run_resumes_bit_exactly() {
    let dir = std::env::temp_dir().join("yac-executor-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let cfg = config(Some(FaultPlan::new(0.08, 3).unwrap()));

    // Kill after 3 shards, twice, then run to completion.
    for _ in 0..2 {
        let partial =
            yac_core::run_checkpointed_workers_budget(&cfg, &exec(4), &path, 1, Some(3)).unwrap();
        assert!(partial.is_none(), "study must not be complete yet");
    }
    let outcome = yac_core::run_checkpointed_workers(&cfg, &exec(4), &path, 2).unwrap();
    assert!(!outcome.is_degraded());
    assert_matches_serial(&cfg, &outcome.population, "kill-resume");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn degraded_shards_survive_checkpoint_resume() {
    let dir = std::env::temp_dir().join("yac-executor-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("degraded-resume.ckpt");
    let _ = std::fs::remove_file(&path);
    let cfg = config(None);
    let mut faulty = exec(2);
    faulty.shard_faults = Some(ShardFaultPlan::new(0.3, 5, u32::MAX).unwrap());
    faulty.max_retries = 0;

    // Run a few shards (some degrade), then resume with healthy workers:
    // the degraded records persist instead of being silently retried.
    let partial =
        yac_core::run_checkpointed_workers_budget(&cfg, &faulty, &path, 1, Some(4)).unwrap();
    assert!(partial.is_none());
    let outcome = yac_core::run_checkpointed_workers(&cfg, &exec(2), &path, 2).unwrap();

    let direct = run_supervised(&cfg, &faulty).unwrap();
    let first_four: Vec<_> = direct
        .degraded
        .iter()
        .filter(|d| d.start < 4 * 16)
        .collect();
    assert!(!first_four.is_empty(), "the plan must hit an early shard");
    assert_eq!(
        outcome.degraded.iter().map(|d| d.start).collect::<Vec<_>>(),
        first_four.iter().map(|d| d.start).collect::<Vec<_>>(),
    );
    assert_eq!(outcome.population.len() + outcome.missing_chips(), CHIPS);
    let _ = std::fs::remove_file(&path);
}
