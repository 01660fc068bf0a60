//! The supervised parallel study executor.
//!
//! Splits a population study into contiguous chip shards and runs them on
//! a scoped worker pool under a supervisor: each shard attempt runs
//! behind `catch_unwind` with a bounded retry budget and exponential
//! backoff, attempts that exceed the per-shard time budget are cancelled
//! (the worker checks its own elapsed time between chips, so even a
//! deadline shorter than one chip is enforced deterministically; a
//! watchdog thread additionally raises a generation-tagged cancel
//! request, also polled between chips), and a shard that exhausts its
//! retries is recorded as
//! **degraded** rather than aborting the study. The run still completes,
//! returning a [`StudyOutcome`] that carries the merged
//! [`Population`], the degraded-shard map, and a yield confidence
//! interval widened to account for the missing chips (see
//! [`crate::confidence::yield_interval`]) instead of silently shrinking
//! the denominator.
//!
//! # Determinism
//!
//! Every chip is sampled from its own counter-based SplitMix64 stream
//! (`mix_seed(seed, index)` in `yac_variation`), so a chip's delay and
//! leakage depend only on `(seed, index)` — never on which worker
//! computed it, in what order, or after how many retries. Workers return
//! whole shards; the supervisor splices each shard into the merged chip
//! vector at its sorted position and the quarantine ledger keeps itself
//! ordered by index, so the merged population is **bit-identical to
//! [`Population::generate_with`] for any worker count**, including runs
//! with injected faults and retries.
//!
//! # One runner
//!
//! Every population study — [`run_supervised`], the checkpointed
//! [`run_checkpointed_workers`] and the sweep service's queries — runs
//! its shards through one attempt loop (`run_shard`) and merges their
//! reports through one accumulator ([`CheckpointState`]'s `accept`
//! and `into_outcome`). Checkpointing only adds persistence:
//! [`run_checkpointed_workers`] writes the accumulator in the
//! `YAC-CHECKPOINT v2` format after every `every` shards (finished
//! shards as `S` lines, degraded ones as `D` lines), so a killed run
//! resumes without recomputing finished shards and its final population
//! round-trips bit-exactly. With one worker it is the serial job.

use crate::checkpoint::{
    load_or_fresh, write_state, CheckpointState, ShardRecord, ShardStatus, StudyError,
};
use crate::chip::{evaluate_isolated, ChipSample, Population, PopulationConfig};
use crate::classify::classify;
use crate::confidence::{yield_interval, YieldInterval};
use crate::constraints::{ConstraintSpec, YieldConstraints};
use crate::health::HeartbeatLease;
use crate::quarantine::QuarantineLedger;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use yac_obs::{Metric, Phase, TraceCtx, TraceEventKind};
use yac_variation::{FaultPlan, InvalidRateError, MonteCarlo};

/// One contiguous slice of the Monte Carlo chip stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position of the shard in the study's shard list.
    pub index: usize,
    /// First chip index of the shard.
    pub start: u64,
    /// Number of chips in the shard.
    pub len: usize,
}

/// Splits a `chips`-chip study into contiguous shards of at most
/// `shard_chips` chips each (the last shard may be shorter).
#[must_use]
pub fn shards_for(chips: usize, shard_chips: usize) -> Vec<ShardSpec> {
    let shard_chips = shard_chips.max(1);
    (0..chips)
        .step_by(shard_chips)
        .enumerate()
        .map(|(index, start)| ShardSpec {
            index,
            start: start as u64,
            len: shard_chips.min(chips - start),
        })
        .collect()
}

/// Deterministic shard-level fault injection: makes selected shards panic
/// at the start of their first `failing_attempts` attempts, to exercise
/// the supervisor's retry and degraded paths in tests and examples.
///
/// Selection reuses [`FaultPlan`]'s hash draw, keyed by the study seed
/// and the *shard* index, so the same shards fail on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFaultPlan {
    plan: FaultPlan,
    failing_attempts: u32,
}

impl ShardFaultPlan {
    /// A plan failing roughly `rate` of all shards for their first
    /// `failing_attempts` attempts.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidRateError`] unless `rate` is finite and in
    /// `[0, 1]`.
    pub fn new(rate: f64, salt: u64, failing_attempts: u32) -> Result<Self, InvalidRateError> {
        Ok(ShardFaultPlan {
            plan: FaultPlan::new(rate, salt)?,
            failing_attempts,
        })
    }

    /// A plan failing *every* shard for its first `failing_attempts`
    /// attempts (with `u32::MAX`, every attempt — the degraded path).
    #[must_use]
    pub fn always(failing_attempts: u32) -> Self {
        ShardFaultPlan {
            plan: FaultPlan::new(1.0, 0).expect("1.0 is a valid rate"),
            failing_attempts,
        }
    }

    fn fails(&self, seed: u64, shard_index: usize, attempt: u32) -> bool {
        attempt < self.failing_attempts && self.plan.fault_for(seed, shard_index as u64).is_some()
    }
}

/// Tuning for the supervised executor.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker threads. Clamped to at least 1 and at most the shard count.
    pub workers: usize,
    /// Chips per shard (the retry/checkpoint granule).
    pub shard_chips: usize,
    /// Retries granted to a failing shard before it is recorded degraded
    /// (so a shard runs at most `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Base backoff slept before retry `n` is `backoff * 2^n`.
    pub backoff: Duration,
    /// Per-shard-attempt time budget enforced by the watchdog; `None`
    /// disables the watchdog.
    pub shard_deadline: Option<Duration>,
    /// Optional deterministic shard-level fault injection.
    pub shard_faults: Option<ShardFaultPlan>,
}

impl ExecutorConfig {
    /// A sensible configuration for `workers` threads: 64-chip shards,
    /// two retries, 1 ms base backoff, no deadline, no fault injection.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        ExecutorConfig {
            workers: workers.max(1),
            shard_chips: 64,
            max_retries: 2,
            backoff: Duration::from_millis(1),
            shard_deadline: None,
            shard_faults: None,
        }
    }
}

impl Default for ExecutorConfig {
    /// [`ExecutorConfig::with_workers`] at the machine's available
    /// parallelism.
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_workers(workers)
    }
}

/// A shard that exhausted its retry budget; its chips are absent from the
/// merged population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedShard {
    /// First chip index of the shard.
    pub start: u64,
    /// Number of missing chips.
    pub len: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The last failure (panic message or deadline report).
    pub error: String,
}

/// The result of a supervised study: everything the run could compute,
/// plus an honest account of what it could not.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// The merged population — bit-identical to a serial run when no
    /// shard degraded, and to the serial run restricted to the surviving
    /// shards otherwise.
    pub population: Population,
    /// Shards that exhausted their retry budget, ascending by start.
    pub degraded: Vec<DegradedShard>,
    /// The chip count the study was asked for.
    pub requested_chips: usize,
    /// Base-case parametric yield under nominal constraints, with the
    /// interval widened to cover every chip lost to degraded shards.
    pub yield_interval: YieldInterval,
}

impl StudyOutcome {
    /// Chips missing because their shard degraded.
    #[must_use]
    pub fn missing_chips(&self) -> usize {
        self.degraded.iter().map(|d| d.len).sum()
    }

    /// Whether any shard was recorded degraded.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }
}

/// What one shard reported back to the supervisor.
pub(crate) enum ShardMsg {
    Done {
        spec: ShardSpec,
        chips: Vec<ChipSample>,
        quarantine: QuarantineLedger,
        /// Chips whose die could not be sampled (a subset of
        /// `quarantine`, which also holds evaluation failures).
        sample_failures: usize,
    },
    Degraded {
        spec: ShardSpec,
        attempts: u32,
        error: String,
    },
}

impl ShardMsg {
    /// The shard this report is about.
    pub(crate) fn spec(&self) -> ShardSpec {
        match self {
            ShardMsg::Done { spec, .. } | ShardMsg::Degraded { spec, .. } => *spec,
        }
    }
}

/// Per-worker state the deadline watchdog inspects.
///
/// `started` holds the current attempt's *tag* — the worker's attempt
/// generation packed with the attempt's start time (see [`attempt_tag`])
/// — or 0 when the worker is idle. To cancel, the watchdog stores the
/// exact tag it observed into `cancel`, and the shard loop only honours
/// a cancel whose tag matches its own attempt. A sweep that read attempt
/// N's tag can therefore never cancel attempt N+1: the generations
/// differ, so the stale store falls on deaf ears instead of spuriously
/// burning a retry.
#[derive(Default)]
struct WorkerWatch {
    started: AtomicU64,
    cancel: AtomicU64,
    /// Attempts this worker has started. Only the worker itself reads
    /// or writes it, so `Relaxed` suffices.
    generation: AtomicU64,
}

/// The worker a shard runs on: its index (trace context and track
/// label), its watchdog mailbox with the pool epoch its attempt tags are
/// measured from (batch pools only — the sweep service runs no
/// watchdog), and the two cancel sources that withdraw a shard from the
/// lane without retrying or degrading it. Those are `abort`, the sweep
/// service's per-query cancel flag (raised when the client disconnects;
/// the whole query is discarded), and `lease`, the stall sentinel's
/// cooperative cancel (raised when the lane publishes no progress for a
/// full budget; the shard has been reassigned to a fresh worker, which
/// reports it instead).
#[derive(Clone, Copy)]
pub(crate) struct WorkerLane<'a> {
    worker: u32,
    watch: Option<(&'a WorkerWatch, Instant)>,
    abort: Option<&'a AtomicBool>,
    lease: Option<&'a HeartbeatLease<'a>>,
}

impl<'a> WorkerLane<'a> {
    /// A sweep-service worker's lane: no watchdog, the query's cancel
    /// flag and the worker's heartbeat lease.
    pub(crate) fn served(
        worker: u32,
        abort: &'a AtomicBool,
        lease: &'a HeartbeatLease<'a>,
    ) -> Self {
        WorkerLane {
            worker,
            watch: None,
            abort: Some(abort),
            lease: Some(lease),
        }
    }

    /// Whether the query's abort or the sentinel's lease cancel has
    /// withdrawn the shard from this lane.
    fn withdrawn(&self) -> bool {
        self.abort.is_some_and(|a| a.load(Ordering::Relaxed))
            || self.lease.is_some_and(HeartbeatLease::is_cancelled)
    }
}

/// Low bits of an attempt tag carrying the start time (nanos since the
/// pool epoch, plus 1 so the packed value is never 0). 2^48 ns ≈ 78
/// hours; a run longer than that can at worst trigger one spurious
/// watchdog cancel, which costs a retry, never correctness.
const TAG_NANOS_BITS: u32 = 48;
const TAG_NANOS_MASK: u64 = (1 << TAG_NANOS_BITS) - 1;

/// Packs a worker-local attempt generation (high 16 bits) with the
/// attempt's start nanos (low 48 bits, offset by 1) into a nonzero tag.
fn attempt_tag(generation: u64, nanos_since_epoch: u64) -> u64 {
    (generation << TAG_NANOS_BITS) | ((nanos_since_epoch + 1) & TAG_NANOS_MASK).max(1)
}

/// The start time a tag was packed from (nanos since the pool epoch).
fn tag_started_nanos(tag: u64) -> u64 {
    (tag & TAG_NANOS_MASK) - 1
}

/// Why a shard attempt stopped early.
enum ShardAbort {
    Cancelled,
}

/// One attempt's cancellation state: the lane's cancel sources, the
/// attempt's watchdog tag (so only a cancel aimed at *this* attempt
/// stops it) and its start time (so the deadline is enforced against the
/// attempt's own clock).
struct AttemptGuard<'a> {
    lane: &'a WorkerLane<'a>,
    tag: u64,
    t0: Instant,
}

impl AttemptGuard<'_> {
    fn cancelled(&self, deadline: Option<Duration>) -> bool {
        self.lane
            .watch
            .is_some_and(|(watch, _)| watch.cancel.load(Ordering::Relaxed) == self.tag)
            || deadline.is_some_and(|d| self.t0.elapsed() > d)
            || self.lane.withdrawn()
    }

    /// Publishes one unit of liveness progress (a no-op without a lease).
    fn beat(&self) {
        if let Some(lease) = self.lane.lease {
            lease.beat();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// One attempt at one shard: evaluates every chip of the shard from its
/// per-chip stream, exactly as the serial paths do.
///
/// The deadline is enforced *here*, between chips, against the attempt's
/// own clock — not only by the watchdog's periodic sweep — so even a
/// deadline smaller than the watchdog tick (or than one chip) cancels
/// deterministically. The watchdog's tag-matched cancel request is
/// honoured as well, as a second trigger for the same cooperative stop.
///
/// Quarantined chips are recorded *unobserved* and sample failures only
/// tallied (no metric increments): this attempt may yet be cancelled or
/// superseded by a retry, so the supervisor counts the metrics only when
/// it accepts the shard's result.
fn run_shard_once(
    mc: &MonteCarlo,
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    spec: ShardSpec,
    attempt: u32,
    guard: &AttemptGuard<'_>,
) -> Result<ShardMsg, ShardAbort> {
    if let Some(faults) = &exec.shard_faults {
        if faults.fails(config.seed, spec.index, attempt) {
            panic!(
                "injected shard fault (shard {}, attempt {attempt})",
                spec.index
            );
        }
    }
    if crate::chaos::stall_ticket(spec.index as u64) {
        // Injected hang: hold the shard without a single heartbeat until
        // some cancel source (sentinel lease cancel, query abort, shard
        // deadline or watchdog tag) releases it — this is how the seeded
        // tests drive every stall-recovery path.
        while !guard.cancelled(exec.shard_deadline) {
            std::thread::sleep(Duration::from_micros(200));
        }
        return Err(ShardAbort::Cancelled);
    }
    let mut chips = Vec::with_capacity(spec.len);
    let mut quarantine = QuarantineLedger::new();
    let mut sample_failures = 0;
    for index in spec.start..spec.start + spec.len as u64 {
        if guard.cancelled(exec.shard_deadline) {
            return Err(ShardAbort::Cancelled);
        }
        guard.beat();
        match mc.sample_one_checked(config.seed, index, config.faults.as_ref()) {
            Ok(die) => match evaluate_isolated(config, &die) {
                Ok((regular, horizontal)) => chips.push(ChipSample {
                    index,
                    regular,
                    horizontal,
                }),
                Err(error) => quarantine.record_unobserved(index, config.seed, error),
            },
            Err(error) => {
                sample_failures += 1;
                quarantine.record_unobserved(index, config.seed, error.to_string());
            }
        }
    }
    Ok(ShardMsg::Done {
        spec,
        chips,
        quarantine,
        sample_failures,
    })
}

/// Runs one shard under supervision: retry on panic or timeout with
/// exponential backoff, degrade after the budget is spent.
///
/// Every lifecycle transition is traced (dispatch, per-attempt exec
/// span, retry, timeout-cancel, completion, degrade) with the worker
/// index, shard index and attempt generation as context, so a trace
/// export shows exactly how each shard travelled through the
/// supervisor.
///
/// Returns `None` when the lane's abort or lease cancel withdraws the
/// shard (see [`WorkerLane`]): that stop is not a failure of the shard,
/// so it neither retries nor degrades. Without those cancel sources (a
/// batch pool) the result is always `Some`.
pub(crate) fn run_shard(
    mc: &MonteCarlo,
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    spec: ShardSpec,
    lane: &WorkerLane<'_>,
) -> Option<ShardMsg> {
    let mut attempt: u32 = 0;
    let ctx = |attempt: u32| TraceCtx::shard(lane.worker, spec.index as u32, attempt);
    yac_obs::trace_instant(TraceEventKind::ShardDispatched, ctx(0));
    loop {
        if lane.abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
            return None;
        }
        // A fresh generation per attempt means a stale watchdog cancel
        // (tagged with an earlier attempt) can never match this one, so
        // `cancel` needs no clearing — and no clear/store race exists.
        let tag = lane.watch.map_or(0, |(watch, epoch)| {
            let generation = watch.generation.fetch_add(1, Ordering::Relaxed) + 1;
            let tag = attempt_tag(generation, epoch.elapsed().as_nanos() as u64);
            watch.started.store(tag, Ordering::Release);
            tag
        });
        let guard = AttemptGuard {
            lane,
            tag,
            t0: Instant::now(),
        };
        let exec_span = yac_obs::phase_ctx(Phase::ShardExec, ctx(attempt));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_shard_once(mc, config, exec, spec, attempt, &guard)
        }));
        if let Some((watch, _)) = lane.watch {
            watch.started.store(0, Ordering::Release);
        }
        drop(exec_span);

        let error = match result {
            Ok(Ok(done)) => {
                yac_obs::inc(Metric::ShardsCompleted);
                yac_obs::trace_instant(TraceEventKind::ShardCompleted, ctx(attempt));
                return Some(done);
            }
            Ok(Err(ShardAbort::Cancelled)) => {
                if lane.withdrawn() {
                    return None;
                }
                yac_obs::inc(Metric::ShardTimeouts);
                yac_obs::trace_instant(TraceEventKind::ShardTimedOut, ctx(attempt));
                format!(
                    "shard {} (chips {}..{}) exceeded its deadline on attempt {attempt}",
                    spec.index,
                    spec.start,
                    spec.start + spec.len as u64
                )
            }
            Err(payload) => format!(
                "shard {} panicked: {}",
                spec.index,
                panic_message(&*payload)
            ),
        };
        if attempt >= exec.max_retries {
            yac_obs::inc(Metric::DegradedShards);
            yac_obs::trace_instant(TraceEventKind::ShardDegraded, ctx(attempt));
            return Some(ShardMsg::Degraded {
                spec,
                attempts: attempt + 1,
                error,
            });
        }
        yac_obs::inc(Metric::ShardRetries);
        yac_obs::trace_instant(TraceEventKind::ShardRetried, ctx(attempt));
        let backoff = exec.backoff.saturating_mul(1u32 << attempt.min(16));
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        attempt += 1;
    }
}

/// The worker pool: runs `tasks` on `exec.workers` scoped threads and
/// feeds every shard's outcome to `sink` on the supervisor thread, in
/// completion order. A `sink` error stops the pool (workers finish their
/// current shard and exit) and is returned.
fn execute_shards(
    mc: &MonteCarlo,
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    tasks: &[ShardSpec],
    mut sink: impl FnMut(ShardMsg) -> Result<(), StudyError>,
) -> Result<(), StudyError> {
    if tasks.is_empty() {
        return Ok(());
    }
    let workers = exec.workers.clamp(1, tasks.len());
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let collecting = AtomicBool::new(true);
    let epoch = Instant::now();
    let watches: Vec<WorkerWatch> = (0..workers).map(|_| WorkerWatch::default()).collect();
    let (tx, rx) = mpsc::channel::<ShardMsg>();
    let mut sink_result = Ok(());

    std::thread::scope(|scope| {
        for (worker, watch) in watches.iter().enumerate() {
            let tx = tx.clone();
            let (next, abort) = (&next, &abort);
            scope.spawn(move || {
                yac_obs::trace_label_thread(&format!("worker-{worker}"));
                let lane = WorkerLane {
                    worker: worker as u32,
                    watch: Some((watch, epoch)),
                    abort: None,
                    lease: None,
                };
                while !abort.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = tasks.get(i) else { break };
                    let Some(msg) = run_shard(mc, config, exec, *spec, &lane) else {
                        break;
                    };
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
            });
        }
        if let Some(deadline) = exec.shard_deadline {
            let (watches, collecting) = (&watches, &collecting);
            scope.spawn(move || {
                let tick =
                    (deadline / 4).clamp(Duration::from_micros(200), Duration::from_millis(5));
                let budget = deadline.as_nanos() as u64;
                while collecting.load(Ordering::Relaxed) {
                    let now = epoch.elapsed().as_nanos() as u64;
                    for watch in watches {
                        let tag = watch.started.load(Ordering::Acquire);
                        if tag != 0 && now.saturating_sub(tag_started_nanos(tag)) > budget {
                            // Cancel exactly the attempt observed: the
                            // store carries its tag, so if the worker
                            // has since moved on, this is a no-op.
                            watch.cancel.store(tag, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(tick);
                }
            });
        }
        // The workers hold the remaining senders; dropping ours lets the
        // receive loop end when the last worker exits.
        drop(tx);
        for msg in rx {
            if sink_result.is_ok() {
                if let Err(e) = sink(msg) {
                    sink_result = Err(e);
                    abort.store(true, Ordering::Relaxed);
                }
            }
        }
        collecting.store(false, Ordering::Relaxed);
    });
    sink_result
}

impl CheckpointState {
    /// Merges one shard's report into the study: the single place where
    /// a shard result becomes population state, for batch runs,
    /// checkpointed runs and the sweep service alike.
    ///
    /// The shard's chips are spliced in at their sorted position and its
    /// record is inserted in start order. The workers record sampling
    /// and quarantine outcomes unobserved (attempts can be cancelled or
    /// retried), so the `DiesSampled`, `SampleFailures` and
    /// `ChipsQuarantined` metrics count each chip once, here, when its
    /// shard's result is accepted.
    pub(crate) fn accept(&mut self, msg: ShardMsg) {
        let (spec, status) = match msg {
            ShardMsg::Done {
                spec,
                mut chips,
                quarantine,
                sample_failures,
            } => {
                yac_obs::add(Metric::DiesSampled, (spec.len - sample_failures) as u64);
                yac_obs::add(Metric::SampleFailures, sample_failures as u64);
                yac_obs::add(Metric::ChipsQuarantined, quarantine.len() as u64);
                if let Some(first) = chips.first() {
                    let at = self.completed.partition_point(|c| c.index < first.index);
                    self.completed.splice(at..at, chips.drain(..));
                }
                self.quarantine.absorb(quarantine);
                (spec, ShardStatus::Done)
            }
            ShardMsg::Degraded {
                spec,
                attempts,
                error,
            } => (spec, ShardStatus::Degraded { attempts, error }),
        };
        let at = self.shards.partition_point(|r| r.start < spec.start);
        self.shards.insert(
            at,
            ShardRecord {
                start: spec.start,
                len: spec.len,
                status,
            },
        );
        self.done += spec.len;
    }

    /// Builds the outcome of a finished study: the merged population
    /// plus a yield interval widened by the chips the degraded shards
    /// failed to deliver.
    pub(crate) fn into_outcome(self, config: &PopulationConfig) -> StudyOutcome {
        let degraded: Vec<DegradedShard> = self
            .shards
            .into_iter()
            .filter_map(|r| match r.status {
                ShardStatus::Done => None,
                ShardStatus::Degraded { attempts, error } => Some(DegradedShard {
                    start: r.start,
                    len: r.len,
                    attempts,
                    error,
                }),
            })
            .collect();
        let population = Population::from_parts(
            self.completed,
            self.quarantine,
            *config.regular_model.calibration(),
            self.seed,
        );
        let missing: usize = degraded.iter().map(|d| d.len).sum();
        let interval = if population.is_empty() {
            yield_interval(0, 0, missing)
        } else {
            let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
            let lost = population
                .chips
                .iter()
                .filter(|c| classify(&c.regular, &constraints).is_some())
                .count();
            yield_interval(population.len() - lost, population.len(), missing)
        };
        StudyOutcome {
            population,
            degraded,
            requested_chips: self.chips,
            yield_interval: interval,
        }
    }
}

/// Runs a population study on the supervised parallel executor.
///
/// The merged population is bit-identical to
/// [`Population::generate_with`] for any worker count (see the module
/// docs for the determinism argument) unless shards degrade, in which
/// case the run still completes and the outcome reports exactly which
/// chip ranges are missing, with the yield interval widened to match.
///
/// # Errors
///
/// Returns [`StudyError::Config`] when the variation configuration is
/// invalid. Shard failures are *not* errors — they surface as
/// [`StudyOutcome::degraded`].
pub fn run_supervised(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
) -> Result<StudyOutcome, StudyError> {
    let mc = MonteCarlo::try_new(config.variation).map_err(StudyError::Config)?;
    let tasks = shards_for(config.chips, exec.shard_chips);
    let mut state = CheckpointState::fresh(config.seed, config.chips);
    execute_shards(&mc, config, exec, &tasks, |msg| {
        state.accept(msg);
        Ok(())
    })?;
    Ok(state.into_outcome(config))
}

/// Runs (or resumes) a supervised study with shard-granular
/// checkpointing: progress is persisted to `path` every `every`
/// completed shards, and a killed run resumes without recomputing
/// finished shards. With `exec.workers == 1` this is the serial
/// checkpointed study.
///
/// # Errors
///
/// Returns a [`StudyError`] if the checkpoint cannot be read, parsed or
/// written, belongs to a different study or shard layout (including a
/// chip-granular file from the retired serial runner, which holds chips
/// but no shard records), or the variation configuration is invalid.
pub fn run_checkpointed_workers(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    path: &Path,
    every: usize,
) -> Result<StudyOutcome, StudyError> {
    run_checkpointed_workers_budget(config, exec, path, every, None)
        .map(|o| o.expect("unbounded run always completes"))
}

/// Like [`run_checkpointed_workers`] but running at most `max_shards`
/// shards in this call; returns `Ok(None)` if the study is still
/// incomplete afterwards (the checkpoint holds the progress). A bounded
/// call is how tests simulate a killed parallel run.
///
/// # Errors
///
/// As [`run_checkpointed_workers`].
pub fn run_checkpointed_workers_budget(
    config: &PopulationConfig,
    exec: &ExecutorConfig,
    path: &Path,
    every: usize,
    max_shards: Option<usize>,
) -> Result<Option<StudyOutcome>, StudyError> {
    let mc = MonteCarlo::try_new(config.variation).map_err(StudyError::Config)?;
    let every = every.max(1);
    let mut state = load_or_fresh(path, config)?;
    if state.shards.is_empty() && state.done > 0 {
        return Err(StudyError::Mismatch(
            "checkpoint is chip-granular (written by the retired serial \
             runner) and cannot be resumed"
                .into(),
        ));
    }
    let tasks = shards_for(config.chips, exec.shard_chips);
    let by_start: HashMap<u64, &ShardSpec> = tasks.iter().map(|s| (s.start, s)).collect();
    for record in &state.shards {
        match by_start.get(&record.start) {
            Some(spec) if spec.len == record.len => {}
            _ => {
                return Err(StudyError::Mismatch(format!(
                    "checkpoint shard at chip {} ({} chips) does not fit a \
                     {}-chip shard layout",
                    record.start, record.len, exec.shard_chips
                )))
            }
        }
    }
    let finished: HashSet<u64> = state.shards.iter().map(|r| r.start).collect();
    let pending: Vec<ShardSpec> = tasks
        .iter()
        .filter(|s| !finished.contains(&s.start))
        .copied()
        .take(max_shards.unwrap_or(usize::MAX))
        .collect();

    let mut since_write = 0usize;
    execute_shards(&mc, config, exec, &pending, |msg| {
        state.accept(msg);
        since_write += 1;
        if since_write >= every {
            since_write = 0;
            write_state(path, &state)?;
        }
        Ok(())
    })?;
    write_state(path, &state)?;
    Ok(state.is_complete().then(|| state.into_outcome(config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_the_stream_exactly_once() {
        for (chips, shard_chips) in [(0, 16), (1, 16), (16, 16), (17, 16), (120, 7), (5, 100)] {
            let shards = shards_for(chips, shard_chips);
            let mut covered = 0usize;
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.start as usize, covered);
                assert!(s.len >= 1 && s.len <= shard_chips);
                covered += s.len;
            }
            assert_eq!(covered, chips, "{chips}/{shard_chips}");
        }
    }

    #[test]
    fn shard_fault_plan_is_deterministic_and_attempt_bounded() {
        let plan = ShardFaultPlan::new(0.5, 9, 2).unwrap();
        for shard in 0..32 {
            let first = plan.fails(7, shard, 0);
            assert_eq!(plan.fails(7, shard, 0), first, "deterministic");
            assert_eq!(plan.fails(7, shard, 1), first, "still failing");
            assert!(!plan.fails(7, shard, 2), "budget exhausted");
        }
        assert!(ShardFaultPlan::new(1.5, 0, 1).is_err());
        let always = ShardFaultPlan::always(1);
        assert!(always.fails(7, 3, 0) && !always.fails(7, 3, 1));
    }

    #[test]
    fn attempt_tags_distinguish_generations_and_round_trip_start_time() {
        // Same start instant, different attempts: a stale cancel store
        // tagged with one can never match the other.
        assert_ne!(attempt_tag(1, 500), attempt_tag(2, 500));
        assert_eq!(tag_started_nanos(attempt_tag(3, 1234)), 1234);
        // Never 0 (0 means idle), even where the nanos field wraps or
        // the generation field has wrapped back to 0.
        assert_ne!(attempt_tag(1, 0), 0);
        assert_ne!(attempt_tag(0, TAG_NANOS_MASK), 0);
    }

    #[test]
    fn empty_study_completes_with_empty_outcome() {
        let mut cfg = PopulationConfig::paper(1);
        cfg.chips = 0;
        let outcome = run_supervised(&cfg, &ExecutorConfig::with_workers(4)).unwrap();
        assert!(outcome.population.is_empty());
        assert!(!outcome.is_degraded());
        assert_eq!(outcome.yield_interval.estimate, 0.0);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = PopulationConfig::paper(1);
        cfg.chips = 8;
        cfg.variation.ways = 0;
        let err = run_supervised(&cfg, &ExecutorConfig::with_workers(2)).unwrap_err();
        assert!(matches!(err, StudyError::Config(_)), "got {err}");
    }
}
