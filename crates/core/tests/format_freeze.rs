//! Format freeze: files written by an earlier build still load, and this
//! build writes them back byte for byte.
//!
//! `tests/fixtures/` holds a study checkpoint (`C`/`Q`/`S`/`D` records),
//! a sweep journal (`S`/`D`/`F` records plus a torn tail) and a result
//! cache file, each written by the build that preceded the shared CRC'd
//! record layer from the inputs below. Each test reads its file back and
//! re-renders, re-saves or re-writes it from the same inputs.

use std::path::{Path, PathBuf};
use std::time::Duration;
use yac_core::checkpoint::{parse_checkpoint, render_checkpoint};
use yac_core::sweep::render_result;
use yac_core::{
    run_checkpointed_workers, run_sweep, ConstraintSpec, ExecutorConfig, PopulationConfig,
    PowerDownKind, ResultCache, ShardFaultPlan, ShardStatus, StudyStatus, SweepConfig, SweepGrid,
};
use yac_variation::FaultPlan;

const CHECKPOINT: &str = include_str!("fixtures/checkpoint_v2.ckpt");
const JOURNAL: &str = include_str!("fixtures/sweep_v1.journal");
const CACHE: &str = include_str!("fixtures/cache_v1.yac");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("yac-format-freeze");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The study the checkpoint fixture records: chip faults quarantine
/// some chips (`Q`), shard faults degrade some shards (`D`).
fn checkpoint_study() -> (PopulationConfig, ExecutorConfig) {
    let mut cfg = PopulationConfig::paper(41);
    cfg.chips = 8;
    cfg.faults = Some(FaultPlan::new(0.25, 5).unwrap());
    let mut exec = ExecutorConfig::with_workers(1);
    exec.shard_chips = 2;
    exec.max_retries = 1;
    exec.backoff = Duration::ZERO;
    exec.shard_faults = Some(ShardFaultPlan::new(0.3, 9, u32::MAX).unwrap());
    (cfg, exec)
}

/// The sweep the journal fixture records: one study completes, one
/// degrades and one loses every shard (a failed study).
fn journal_sweep() -> (SweepGrid, SweepConfig) {
    let grid = SweepGrid {
        chips: 8,
        seeds: vec![1, 2, 3],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical],
    };
    let mut exec = ExecutorConfig::with_workers(1);
    exec.shard_chips = 4;
    exec.max_retries = 0;
    exec.backoff = Duration::ZERO;
    exec.shard_faults = Some(ShardFaultPlan::new(0.5, 23, u32::MAX).unwrap());
    let config = SweepConfig {
        exec,
        concurrent_studies: 1,
        checkpoint_every: 1,
        cpi: None,
        cancel: None,
        faults: None,
    };
    (grid, config)
}

/// The journal without its torn tail: everything up to the last newline.
fn durable_prefix(text: &str) -> &str {
    &text[..=text.rfind('\n').unwrap()]
}

#[test]
fn checkpoint_fixture_covers_every_record_kind() {
    for tag in ["\nC ", "\nQ ", "\nS ", "\nD "] {
        assert!(CHECKPOINT.contains(tag), "no {tag:?} record");
    }
    let state = parse_checkpoint(CHECKPOINT).unwrap();
    assert!(state.is_complete());
    assert!(!state.quarantine.is_empty());
    assert!(state
        .shards
        .iter()
        .any(|s| matches!(s.status, ShardStatus::Degraded { .. })));
}

#[test]
fn checkpoint_fixture_re_renders_byte_identically() {
    let state = parse_checkpoint(CHECKPOINT).unwrap();
    assert_eq!(render_checkpoint(&state), CHECKPOINT);
}

#[test]
fn checkpoint_fixture_resumes_and_is_rewritten_unchanged() {
    let (cfg, exec) = checkpoint_study();
    let fresh_path = scratch("fresh.ckpt");
    let fresh = run_checkpointed_workers(&cfg, &exec, &fresh_path, 1).unwrap();
    assert_eq!(std::fs::read_to_string(&fresh_path).unwrap(), CHECKPOINT);

    let resumed_path = scratch("resumed.ckpt");
    std::fs::copy(fixture("checkpoint_v2.ckpt"), &resumed_path).unwrap();
    let resumed = run_checkpointed_workers(&cfg, &exec, &resumed_path, 1).unwrap();
    assert_eq!(resumed.population.chips, fresh.population.chips);
    assert_eq!(resumed.degraded, fresh.degraded);
    assert_eq!(std::fs::read_to_string(&resumed_path).unwrap(), CHECKPOINT);
    let _ = std::fs::remove_file(fresh_path);
    let _ = std::fs::remove_file(resumed_path);
}

#[test]
fn journal_fixture_covers_every_terminal_record_and_a_torn_tail() {
    for tag in ["\nS ", "\nD ", "\nF "] {
        assert!(JOURNAL.contains(tag), "no {tag:?} record");
    }
    assert!(!JOURNAL.ends_with('\n'), "the fixture ends in a torn line");
}

#[test]
fn a_fresh_sweep_writes_the_journal_fixture() {
    let (grid, config) = journal_sweep();
    let path = scratch("fresh.journal");
    run_sweep(&grid, &config, &path).unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        durable_prefix(JOURNAL)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn journal_fixture_resumes_without_recomputing() {
    let (grid, config) = journal_sweep();
    let path = scratch("resumed.journal");
    std::fs::copy(fixture("sweep_v1.journal"), &path).unwrap();
    let outcome = run_sweep(&grid, &config, &path).unwrap();
    assert!(outcome.resumed);
    assert_eq!(outcome.recovered, grid.studies().len());
    assert_eq!(outcome.completed(), 1);
    assert_eq!(outcome.degraded(), 1);
    assert_eq!(outcome.failed(), 1);
    // The torn tail is cut off and nothing is appended.
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        durable_prefix(JOURNAL)
    );
    // Restored records re-render to the text the journal holds.
    for (spec, status) in &outcome.studies {
        if let Some(result) = status.result() {
            let tag = match status {
                StudyStatus::Completed(_) => "S",
                _ => "D",
            };
            let body = format!("\n{tag} {} {} CRC ", spec.index, render_result(result));
            assert!(JOURNAL.contains(&body), "study {} record", spec.index);
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn cache_fixture_loads_and_re_saves_byte_identically() {
    let cache = ResultCache::load(&fixture("cache_v1.yac"), 1 << 20)
        .unwrap()
        .expect("fixture exists");
    assert_eq!(cache.len(), 2);
    let path = scratch("cache.yac");
    cache.save(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), CACHE);
    let _ = std::fs::remove_file(path);
}
