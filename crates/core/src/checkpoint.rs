//! Checkpoint/resume for long population studies.
//!
//! The paper's studies evaluate 2000 chips; a killed run should not have
//! to recompute the chips it already finished. The supervised executor's
//! checkpointing entry point
//! ([`crate::executor::run_checkpointed_workers`]) persists its progress
//! in the plain-text format defined here, one record per completed
//! shard, and a later call with the same configuration and path resumes
//! without recomputing finished shards.
//!
//! The format stores every `f64` as the 16-hex-digit image of its IEEE
//! bits, so a resumed run's population — and therefore every report
//! rendered from it — is byte-identical to an uninterrupted run's.
//!
//! # Format (`YAC-CHECKPOINT v2`)
//!
//! * **Header.** The magic line, then `seed`, `chips` and `done` (the
//!   chips covered by recorded shards, not necessarily a contiguous
//!   prefix).
//! * **Records.** `C index …` holds one evaluated chip, `Q index seed
//!   error` one quarantined chip, `S start len` a completed shard and
//!   `D start len attempts error` a degraded one.
//! * **A CRC32 trailer.** The final line `CRC xxxxxxxx` holds the IEEE
//!   CRC32 of every preceding byte (up to and including the `END` line's
//!   newline); [`parse_checkpoint`] verifies it, so a torn write or
//!   bit-rotted file is rejected as [`StudyError::Corrupt`] instead of
//!   resuming from silently wrong state. The temp file is `sync_all`ed
//!   before the rename, making the write-then-rename durable.

use crate::chip::{ChipSample, PopulationConfig};
use crate::quarantine::QuarantineLedger;
use std::fmt;
use std::path::Path;
use yac_circuit::{CacheCircuitResult, WayCircuitResult};
use yac_variation::ConfigError;

/// Format version tag; bump when the line layout changes.
const MAGIC: &str = "YAC-CHECKPOINT v2";

/// An error from a study or from one of the files it persists to: a
/// study checkpoint, a sweep journal or a persisted result cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyError {
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// A file does not parse (or fails its CRC).
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        what: String,
    },
    /// A file belongs to a different study (seed, chip count, shard
    /// layout or grid disagree with the configuration), or the study
    /// cannot be built from what it holds.
    Mismatch(String),
    /// The study configuration itself is invalid.
    Config(ConfigError),
    /// A supervised run degraded: some shards exhausted their retry
    /// budget, so the population covers only part of the requested
    /// chips. Raised by entry points that promise a *full* study
    /// ([`crate::analysis::full_study_supervised`]); callers that can use a
    /// partial result should call
    /// [`crate::executor::run_supervised`] and inspect
    /// [`crate::executor::StudyOutcome::degraded`] instead.
    Degraded {
        /// Chips missing because their shard degraded.
        missing: usize,
        /// Chips the study was asked for.
        requested: usize,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Io { path, message } => write!(f, "I/O error on {path}: {message}"),
            StudyError::Corrupt { line, what } => {
                write!(f, "corrupt file at line {line}: {what}")
            }
            StudyError::Mismatch(what) => write!(f, "mismatch: {what}"),
            StudyError::Config(e) => write!(f, "invalid study configuration: {e}"),
            StudyError::Degraded { missing, requested } => write!(
                f,
                "degraded study: {missing} of {requested} chips missing \
                 (shards exhausted their retry budget)"
            ),
        }
    }
}

impl std::error::Error for StudyError {}

/// What became of one shard of a supervised parallel run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// Every chip in the shard was computed (classified or quarantined).
    Done,
    /// The shard exhausted its retry budget; its chips are missing.
    Degraded {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last failure (panic message or deadline report).
        error: String,
    },
}

/// One shard's outcome, as persisted in a v2 checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// First chip index of the shard.
    pub start: u64,
    /// Number of chips in the shard.
    pub len: usize,
    /// Whether the shard completed or was recorded degraded.
    pub status: ShardStatus,
}

/// The state of a partially completed study: what every supervised run
/// merges its shard results into (see
/// [`crate::executor::run_supervised`]), and what a checkpoint persists.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The study seed.
    pub seed: u64,
    /// The total chip count the study was asked for.
    pub chips: usize,
    /// Chips covered by [`CheckpointState::shards`], completed or
    /// degraded.
    pub done: usize,
    /// Completed chip evaluations, ascending by index.
    pub completed: Vec<ChipSample>,
    /// Chips quarantined so far.
    pub quarantine: QuarantineLedger,
    /// Shard outcomes, ascending by start index.
    pub shards: Vec<ShardRecord>,
}

impl CheckpointState {
    /// A fresh state for a study of `chips` chips under `seed`.
    #[must_use]
    pub fn fresh(seed: u64, chips: usize) -> Self {
        CheckpointState {
            seed,
            chips,
            done: 0,
            completed: Vec::with_capacity(chips),
            quarantine: QuarantineLedger::new(),
            shards: Vec::new(),
        }
    }

    /// Whether every chip has been accounted for.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done >= self.chips
    }
}

/// IEEE CRC32 (the zlib/PNG polynomial), bitwise. Shared with the sweep
/// journal, whose records carry the same trailer.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(token: &str, line: usize) -> Result<f64, StudyError> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| StudyError::Corrupt {
            line,
            what: format!("bad f64 bits {token:?}"),
        })
}

fn parse_usize(token: &str, line: usize) -> Result<usize, StudyError> {
    token.parse().map_err(|_| StudyError::Corrupt {
        line,
        what: format!("bad integer {token:?}"),
    })
}

fn push_result(out: &mut String, r: &CacheCircuitResult) {
    use fmt::Write;
    let _ = write!(
        out,
        " {} {} {} {}",
        f64_hex(r.delay),
        f64_hex(r.heat),
        f64_hex(r.leakage),
        r.ways.len()
    );
    for w in &r.ways {
        let _ = write!(
            out,
            " {} {} {} {}",
            f64_hex(w.delay),
            f64_hex(w.peripheral_leakage),
            f64_hex(w.leakage),
            w.region_delay.len()
        );
        for &d in &w.region_delay {
            let _ = write!(out, " {}", f64_hex(d));
        }
        for &l in &w.region_cell_leakage {
            let _ = write!(out, " {}", f64_hex(l));
        }
    }
}

fn take<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<&'a str, StudyError> {
    tokens.next().ok_or(StudyError::Corrupt {
        line,
        what: "truncated record".into(),
    })
}

fn parse_result<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<CacheCircuitResult, StudyError> {
    let delay = parse_f64(take(tokens, line)?, line)?;
    let heat = parse_f64(take(tokens, line)?, line)?;
    let leakage = parse_f64(take(tokens, line)?, line)?;
    let nways = parse_usize(take(tokens, line)?, line)?;
    let mut ways = Vec::with_capacity(nways);
    for _ in 0..nways {
        let way_delay = parse_f64(take(tokens, line)?, line)?;
        let peripheral_leakage = parse_f64(take(tokens, line)?, line)?;
        let way_leakage = parse_f64(take(tokens, line)?, line)?;
        let nregions = parse_usize(take(tokens, line)?, line)?;
        let mut region_delay = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            region_delay.push(parse_f64(take(tokens, line)?, line)?);
        }
        let mut region_cell_leakage = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            region_cell_leakage.push(parse_f64(take(tokens, line)?, line)?);
        }
        ways.push(WayCircuitResult {
            region_delay,
            delay: way_delay,
            region_cell_leakage,
            peripheral_leakage,
            leakage: way_leakage,
        });
    }
    Ok(CacheCircuitResult {
        ways,
        delay,
        heat,
        leakage,
    })
}

/// Serialises a state to the (v2) checkpoint text format.
#[must_use]
pub fn render_checkpoint(state: &CheckpointState) -> String {
    use fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "seed {:016x}", state.seed);
    let _ = writeln!(out, "chips {}", state.chips);
    let _ = writeln!(out, "done {}", state.done);
    for chip in &state.completed {
        let mut line = format!("C {}", chip.index);
        push_result(&mut line, &chip.regular);
        push_result(&mut line, &chip.horizontal);
        let _ = writeln!(out, "{line}");
    }
    for q in state.quarantine.entries() {
        let _ = writeln!(
            out,
            "Q {} {:016x} {}",
            q.index,
            q.seed,
            q.error.replace('\n', " ")
        );
    }
    for s in &state.shards {
        match &s.status {
            ShardStatus::Done => {
                let _ = writeln!(out, "S {} {}", s.start, s.len);
            }
            ShardStatus::Degraded { attempts, error } => {
                let _ = writeln!(
                    out,
                    "D {} {} {} {}",
                    s.start,
                    s.len,
                    attempts,
                    error.replace('\n', " ")
                );
            }
        }
    }
    let _ = writeln!(out, "END");
    let _ = writeln!(out, "CRC {:08x}", crc32(out.as_bytes()));
    out
}

/// Verifies the `CRC xxxxxxxx` trailer of a v2 checkpoint and returns the
/// covered body (everything up to and including the `END` line).
fn split_crc_trailer(text: &str) -> Result<&str, StudyError> {
    let last_line = text.lines().count();
    let corrupt = |what: &str| StudyError::Corrupt {
        line: last_line,
        what: what.to_string(),
    };
    let stripped = text
        .strip_suffix('\n')
        .ok_or_else(|| corrupt("missing trailing newline"))?;
    let (body, trailer) = stripped
        .rsplit_once('\n')
        .ok_or_else(|| corrupt("missing CRC trailer"))?;
    let hex = trailer
        .strip_prefix("CRC ")
        .ok_or_else(|| corrupt("expected CRC trailer"))?;
    let stated = u32::from_str_radix(hex, 16).map_err(|_| corrupt("bad CRC digits"))?;
    let covered = &text[..body.len() + 1];
    let actual = crc32(covered.as_bytes());
    if actual != stated {
        return Err(corrupt(&format!(
            "CRC mismatch: stated {stated:08x}, computed {actual:08x} \
             (torn write or bit rot)"
        )));
    }
    Ok(covered)
}

/// Parses the checkpoint text format back into a state.
///
/// # Errors
///
/// Returns [`StudyError::Corrupt`] naming the offending line — including
/// a bad magic line (line 1) and a failed CRC check, which rejects torn
/// or bit-rotted files.
pub fn parse_checkpoint(text: &str) -> Result<CheckpointState, StudyError> {
    let magic = text.lines().next().ok_or(StudyError::Corrupt {
        line: 1,
        what: "empty file".to_string(),
    })?;
    if magic != MAGIC {
        return Err(StudyError::Corrupt {
            line: 1,
            what: "bad magic".to_string(),
        });
    }
    parse_body(split_crc_trailer(text)?)
}

fn parse_body(text: &str) -> Result<CheckpointState, StudyError> {
    let mut lines = text.lines().enumerate();
    let corrupt = |line: usize, what: &str| StudyError::Corrupt {
        line,
        what: what.to_string(),
    };
    lines.next(); // The magic line, already verified by the caller.

    let mut header = |name: &str| -> Result<String, StudyError> {
        let (n, l) = lines.next().ok_or_else(|| corrupt(0, "truncated header"))?;
        l.strip_prefix(name)
            .and_then(|v| v.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| corrupt(n + 1, &format!("expected {name} header")))
    };
    let seed = u64::from_str_radix(&header("seed")?, 16).map_err(|_| corrupt(2, "bad seed"))?;
    let chips = header("chips")?
        .parse()
        .map_err(|_| corrupt(3, "bad chip count"))?;
    let done = header("done")?
        .parse()
        .map_err(|_| corrupt(4, "bad done count"))?;

    let mut state = CheckpointState {
        seed,
        chips,
        done,
        completed: Vec::new(),
        quarantine: QuarantineLedger::new(),
        shards: Vec::new(),
    };
    let mut ended = false;
    for (n, l) in lines {
        let line = n + 1;
        if ended {
            return Err(corrupt(line, "content after END"));
        }
        if l == "END" {
            ended = true;
            continue;
        }
        if let Some(rest) = l.strip_prefix("C ") {
            let mut tokens = rest.split_ascii_whitespace();
            let index = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad chip index"))?;
            let regular = parse_result(&mut tokens, line)?;
            let horizontal = parse_result(&mut tokens, line)?;
            if tokens.next().is_some() {
                return Err(corrupt(line, "trailing tokens on chip record"));
            }
            state.completed.push(ChipSample {
                index,
                regular,
                horizontal,
            });
        } else if let Some(rest) = l.strip_prefix("Q ") {
            let mut tokens = rest.splitn(3, ' ');
            let index = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad quarantine index"))?;
            let q_seed = u64::from_str_radix(take(&mut tokens, line)?, 16)
                .map_err(|_| corrupt(line, "bad quarantine seed"))?;
            let error = take(&mut tokens, line)?.to_string();
            // Unobserved: these chips were counted in `ChipsQuarantined`
            // when first quarantined; re-parsing the checkpoint on resume
            // must not count them again.
            state.quarantine.record_unobserved(index, q_seed, error);
        } else if let Some(rest) = l.strip_prefix("S ") {
            let mut tokens = rest.split_ascii_whitespace();
            let start = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad shard start"))?;
            let len = parse_usize(take(&mut tokens, line)?, line)?;
            if tokens.next().is_some() {
                return Err(corrupt(line, "trailing tokens on shard record"));
            }
            state.shards.push(ShardRecord {
                start,
                len,
                status: ShardStatus::Done,
            });
        } else if let Some(rest) = l.strip_prefix("D ") {
            let mut tokens = rest.splitn(4, ' ');
            let start = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad shard start"))?;
            let len = parse_usize(take(&mut tokens, line)?, line)?;
            let attempts = take(&mut tokens, line)?
                .parse()
                .map_err(|_| corrupt(line, "bad attempt count"))?;
            let error = take(&mut tokens, line)?.to_string();
            state.shards.push(ShardRecord {
                start,
                len,
                status: ShardStatus::Degraded { attempts, error },
            });
        } else {
            return Err(corrupt(line, "unrecognised record"));
        }
    }
    if !ended {
        return Err(corrupt(text.lines().count(), "missing END marker"));
    }
    Ok(state)
}

pub(crate) fn read_state(path: &Path) -> Result<Option<CheckpointState>, StudyError> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_checkpoint(&text).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StudyError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }),
    }
}

/// Syncs `path`'s parent directory, making a just-renamed entry durable
/// (on Unix a rename lives in the directory, which has its own cache).
pub(crate) fn fsync_parent(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

pub(crate) fn write_state(path: &Path, state: &CheckpointState) -> Result<(), StudyError> {
    let io_err = |e: std::io::Error| StudyError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    // Write, sync, rename, then sync the parent directory: a kill
    // mid-write leaves the previous checkpoint intact, the file fsync
    // makes sure the rename cannot publish data still in the page cache,
    // and the directory fsync makes the rename itself survive power loss.
    let tmp = path.with_extension("tmp");
    crate::chaos::intercept_write(
        crate::chaos::IoSite::Checkpoint,
        &tmp,
        render_checkpoint(state).as_bytes(),
        |bytes| {
            use std::io::Write;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()
        },
    )
    .map_err(io_err)?;
    crate::chaos::intercept_write(crate::chaos::IoSite::CheckpointRename, path, &[], |_| {
        std::fs::rename(&tmp, path)?;
        fsync_parent(path)
    })
    .map_err(io_err)?;
    yac_obs::inc(yac_obs::Metric::CheckpointsWritten);
    yac_obs::trace_instant(
        yac_obs::TraceEventKind::CheckpointWritten,
        yac_obs::TraceCtx::default(),
    );
    Ok(())
}

/// Loads (or initialises) the state for `config` at `path`, verifying it
/// belongs to the same study. Parse and I/O errors are surfaced, never
/// swallowed into a fresh state — a corrupt checkpoint must be dealt
/// with explicitly, not silently recomputed over.
pub(crate) fn load_or_fresh(
    path: &Path,
    config: &PopulationConfig,
) -> Result<CheckpointState, StudyError> {
    match read_state(path)? {
        None => Ok(CheckpointState::fresh(config.seed, config.chips)),
        Some(state) => {
            if state.seed != config.seed {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint seed {:#x} != study seed {:#x}",
                    state.seed, config.seed
                )));
            }
            if state.chips != config.chips {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint is for {} chips, study wants {}",
                    state.chips, config.chips
                )));
            }
            Ok(state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::table2;
    use crate::chip::Population;
    use crate::constraints::{ConstraintSpec, YieldConstraints};
    use crate::executor::{
        run_checkpointed_workers, run_checkpointed_workers_budget, ExecutorConfig,
    };
    use crate::report::render_loss_table;
    use yac_variation::FaultPlan;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("yac-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small_config(chips: usize, seed: u64) -> PopulationConfig {
        let mut cfg = PopulationConfig::paper(seed);
        cfg.chips = chips;
        cfg
    }

    /// The serial checkpointed study: one worker, `shard_chips`-chip
    /// shards.
    fn serial(shard_chips: usize) -> ExecutorConfig {
        let mut exec = ExecutorConfig::with_workers(1);
        exec.shard_chips = shard_chips;
        exec
    }

    /// A state holding every chip of `cfg`, computed by the serial
    /// reference path.
    fn computed_state(cfg: &PopulationConfig) -> CheckpointState {
        let mut state = CheckpointState::fresh(cfg.seed, cfg.chips);
        state.completed = Population::generate_with(cfg).chips;
        state.done = cfg.chips;
        state
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The IEEE CRC32 check value for "123456789" (ITU-T V.42 / zlib).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoint_text_roundtrips_exactly() {
        let mut state = computed_state(&small_config(6, 11));
        state.quarantine.record(99, 11, "synthetic entry".into());
        state.shards.push(ShardRecord {
            start: 0,
            len: 6,
            status: ShardStatus::Done,
        });
        state.shards.push(ShardRecord {
            start: 6,
            len: 6,
            status: ShardStatus::Degraded {
                attempts: 3,
                error: "injected shard fault".into(),
            },
        });
        let text = render_checkpoint(&state);
        let parsed = parse_checkpoint(&text).unwrap();
        assert_eq!(parsed, state);
        // Byte-identical re-render: the format is canonical.
        assert_eq!(render_checkpoint(&parsed), text);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected_with_line_numbers() {
        assert!(matches!(
            parse_checkpoint("not a checkpoint\n"),
            Err(StudyError::Corrupt { line: 1, .. })
        ));
        let good = render_checkpoint(&CheckpointState::fresh(1, 2));
        // Dropping the END line invalidates the CRC.
        let truncated = good.replace("END\n", "");
        assert!(matches!(
            parse_checkpoint(&truncated),
            Err(StudyError::Corrupt { .. })
        ));
        let garbled = good.replace("END", "X 1 2");
        assert!(parse_checkpoint(&garbled).is_err());
        // Chopping off the CRC trailer is detected too.
        let lines: Vec<&str> = good.lines().collect();
        let no_crc = format!("{}\n", lines[..lines.len() - 1].join("\n"));
        assert!(matches!(
            parse_checkpoint(&no_crc),
            Err(StudyError::Corrupt { .. })
        ));
    }

    #[test]
    fn single_bit_rot_fails_the_crc() {
        let state = computed_state(&small_config(3, 19));
        let good = render_checkpoint(&state);
        assert!(parse_checkpoint(&good).is_ok());
        // Flip one hex digit inside a chip record. The line still parses
        // as a valid f64 image, so only the CRC can catch it.
        let at = good.find("C 0 ").unwrap() + 4;
        let mut rotted = good.clone().into_bytes();
        rotted[at] = if rotted[at] == b'0' { b'1' } else { b'0' };
        let rotted = String::from_utf8(rotted).unwrap();
        assert_ne!(rotted, good);
        let err = parse_checkpoint(&rotted).unwrap_err();
        assert!(
            matches!(&err, StudyError::Corrupt { what, .. } if what.contains("CRC mismatch")),
            "want CRC mismatch, got {err}"
        );
    }

    #[test]
    fn fresh_run_matches_generate_with() {
        let cfg = small_config(40, 5);
        let path = tmp_path("fresh.ckpt");
        let _ = std::fs::remove_file(&path);
        let pop = run_checkpointed_workers(&cfg, &serial(16), &path, 1)
            .unwrap()
            .population;
        let direct = Population::generate_with(&cfg);
        assert_eq!(pop.chips, direct.chips);
        assert_eq!(pop.quarantine(), direct.quarantine());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_run_resumes_to_byte_identical_report() {
        let plan = FaultPlan::new(0.08, 3).unwrap();
        let mut cfg = small_config(90, 13);
        cfg.faults = Some(plan);
        let path = tmp_path("killed.ckpt");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference run (no checkpoint file involved).
        let reference = Population::generate_with(&cfg);

        // "Kill" the study after 35 chips (7 shards), then resume it.
        let partial = run_checkpointed_workers_budget(&cfg, &serial(5), &path, 2, Some(7)).unwrap();
        assert!(partial.is_none(), "study must not be complete yet");
        let resumed = run_checkpointed_workers(&cfg, &serial(5), &path, 2)
            .unwrap()
            .population;

        assert_eq!(resumed.chips, reference.chips);
        assert_eq!(resumed.quarantine(), reference.quarantine());
        let constraints = YieldConstraints::derive(&reference, ConstraintSpec::NOMINAL);
        let report_ref = render_loss_table(&table2(&reference, &constraints));
        let report_res = render_loss_table(&table2(&resumed, &constraints));
        assert_eq!(report_ref, report_res, "reports must be byte-identical");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let cfg = small_config(12, 7);
        let path = tmp_path("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        let _ = run_checkpointed_workers_budget(&cfg, &serial(4), &path, 1, Some(1)).unwrap();
        let other_seed = small_config(12, 8);
        assert!(matches!(
            run_checkpointed_workers(&other_seed, &serial(4), &path, 1),
            Err(StudyError::Mismatch(_))
        ));
        let other_count = small_config(13, 7);
        assert!(matches!(
            run_checkpointed_workers(&other_count, &serial(4), &path, 1),
            Err(StudyError::Mismatch(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_variation_config_is_an_error_not_a_panic() {
        let mut cfg = small_config(4, 7);
        cfg.variation.ways = 0;
        let path = tmp_path("invalid-config.ckpt");
        let _ = std::fs::remove_file(&path);
        let err = run_checkpointed_workers(&cfg, &serial(4), &path, 1).unwrap_err();
        assert!(matches!(err, StudyError::Config(_)), "got {err}");
        assert!(!path.exists(), "no checkpoint may be written");
    }

    #[test]
    fn error_messages_do_not_name_a_file_kind() {
        // The same errors come from checkpoints, sweep journals and the
        // persisted result cache; the caller's prefix names the file.
        let io = StudyError::Io {
            path: "run.journal".into(),
            message: "permission denied".into(),
        };
        assert_eq!(
            io.to_string(),
            "I/O error on run.journal: permission denied"
        );
        let corrupt = StudyError::Corrupt {
            line: 3,
            what: "bad seed".into(),
        };
        assert_eq!(corrupt.to_string(), "corrupt file at line 3: bad seed");
        let mismatch = StudyError::Mismatch("sweep journal belongs to a different grid".into());
        assert_eq!(
            mismatch.to_string(),
            "mismatch: sweep journal belongs to a different grid"
        );
        for e in [io, corrupt, mismatch] {
            assert!(!e.to_string().contains("checkpoint"), "{e}");
        }
    }
}
