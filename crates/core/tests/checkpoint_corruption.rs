//! Checkpoint corruption must fail loudly: truncated, bit-rotted,
//! wrong-magic and stale-seed files are all rejected with typed errors,
//! and the run entry points surface (never swallow) them.

use std::path::{Path, PathBuf};
use yac_core::{
    run_checkpointed_workers, run_checkpointed_workers_budget, ExecutorConfig, PopulationConfig,
    StudyError, StudyOutcome,
};

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("yac-corruption-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config(chips: usize, seed: u64) -> PopulationConfig {
    let mut cfg = PopulationConfig::paper(seed);
    cfg.chips = chips;
    cfg
}

/// The serial checkpointed study: one worker, 5-chip shards.
fn serial() -> ExecutorConfig {
    let mut exec = ExecutorConfig::with_workers(1);
    exec.shard_chips = 5;
    exec
}

/// Runs (or resumes) the serial study, checkpointing after every shard.
fn run_serial(cfg: &PopulationConfig, path: &Path) -> Result<StudyOutcome, StudyError> {
    run_checkpointed_workers(cfg, &serial(), path, 1)
}

/// Writes a real partial checkpoint (two of four shards) and returns its
/// text.
fn partial_checkpoint(path: &PathBuf, cfg: &PopulationConfig) -> String {
    let _ = std::fs::remove_file(path);
    let partial = run_checkpointed_workers_budget(cfg, &serial(), path, 1, Some(2)).unwrap();
    assert!(partial.is_none(), "checkpoint must be partial");
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn truncated_checkpoint_is_rejected_not_resumed() {
    let cfg = config(20, 31);
    let path = tmp_path("truncated.ckpt");
    let text = partial_checkpoint(&path, &cfg);
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let err = run_serial(&cfg, &path).unwrap_err();
    assert!(matches!(err, StudyError::Corrupt { .. }), "got {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_hex_digit_is_caught_by_the_crc() {
    let cfg = config(20, 32);
    let path = tmp_path("bitrot.ckpt");
    let text = partial_checkpoint(&path, &cfg);
    // Flip one hex digit inside the first chip record: the line still
    // parses as a well-formed f64 image, so only the CRC can object.
    let at = text.find("C 0 ").unwrap() + 4;
    let mut rotted = text.into_bytes();
    rotted[at] = if rotted[at] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, rotted).unwrap();
    let err = run_serial(&cfg, &path).unwrap_err();
    match &err {
        StudyError::Corrupt { what, .. } => {
            assert!(what.contains("CRC mismatch"), "got {what}");
        }
        other => panic!("want Corrupt, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_magic_is_rejected_at_line_one() {
    let cfg = config(20, 33);
    let path = tmp_path("magic.ckpt");
    let text = partial_checkpoint(&path, &cfg);
    // An unknown version, and the retired v1 format, which is no longer
    // read.
    for magic in ["YAC-CHECKPOINT v9", "YAC-CHECKPOINT v1"] {
        std::fs::write(&path, text.replacen("YAC-CHECKPOINT v2", magic, 1)).unwrap();
        let err = run_serial(&cfg, &path).unwrap_err();
        assert!(
            matches!(err, StudyError::Corrupt { line: 1, .. }),
            "got {err}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_seed_checkpoint_is_refused() {
    let cfg = config(20, 34);
    let path = tmp_path("stale.ckpt");
    let _ = partial_checkpoint(&path, &cfg);
    let newer = config(20, 35);
    let err = run_serial(&newer, &path).unwrap_err();
    match &err {
        StudyError::Mismatch(what) => assert!(what.contains("seed"), "got {what}"),
        other => panic!("want Mismatch, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn load_surfaces_io_errors_instead_of_starting_fresh() {
    // A directory at the checkpoint path is neither absent nor readable:
    // the run must report the I/O failure, not silently recompute.
    let cfg = config(10, 36);
    let dir_path = tmp_path("i-am-a-directory.ckpt");
    let _ = std::fs::remove_dir(&dir_path);
    std::fs::create_dir_all(&dir_path).unwrap();
    let err = run_serial(&cfg, &dir_path).unwrap_err();
    assert!(matches!(err, StudyError::Io { .. }), "got {err}");
    let _ = std::fs::remove_dir(&dir_path);
}

#[test]
fn invalid_variation_config_is_a_typed_error() {
    let mut cfg = config(10, 37);
    cfg.variation.ways = 0;
    let path = tmp_path("never-written.ckpt");
    let _ = std::fs::remove_file(&path);
    let err = run_serial(&cfg, &path).unwrap_err();
    assert!(matches!(err, StudyError::Config(_)), "got {err}");
    assert!(!path.exists(), "no checkpoint may be written");

    // The parallel entry point reports the same typed error.
    let exec = yac_core::ExecutorConfig::with_workers(2);
    let err = run_checkpointed_workers(&cfg, &exec, &path, 1).unwrap_err();
    assert!(matches!(err, StudyError::Config(_)), "got {err}");
    assert!(!path.exists());
}
