//! The cycle-level out-of-order core.
//!
//! The machine models exactly what the paper's evaluation depends on:
//!
//! * a `width`-wide front end with a bimodal predictor; fetch stalls on
//!   I-cache misses and on mispredicted branches until they resolve;
//! * rename onto ROB tags, dispatch into a bounded issue queue and LSQ;
//! * an oldest-first scheduler that wakes load dependants *speculatively*,
//!   assuming the shortest (4-cycle) hit latency, with `sched_to_exec`
//!   (7) pipeline stages between the scheduling decision and execution;
//! * **load-bypass buffers** at the functional-unit inputs that absorb up
//!   to `bypass_depth` cycles of lateness from a slow (VACA) way;
//! * **selective replay**: an op whose operand is later than the buffers
//!   can absorb (an L1 miss) returns to the issue queue and re-issues when
//!   the value arrives, as do its own speculatively scheduled dependants;
//! * per-class functional-unit pools and cache-port arbitration.
//!
//! The scheduler is event-driven: a waiting op that cannot issue is parked
//! on whatever blocks it — its producer's state, or the cycle its operand
//! is predicted to arrive — and is looked at again only when that changes.
//! Each cycle it therefore visits only the ops that might issue, oldest
//! first, and picks exactly what a scan of the whole ROB would.
//!
//! Simplifications relative to silicon (documented in DESIGN.md): stores
//! do not forward to loads (the synthetic traces carry no load/store
//! aliasing), wrong-path instructions are modeled as a fetch stall rather
//! than fetched and squashed, and FP divides are treated as pipelined.

use crate::config::PipelineConfig;
use crate::error::ConfigError;
use crate::predictor::BranchPredictor;
use crate::stats::SimStats;
use std::collections::VecDeque;
use yac_cache::{AccessKind, MemoryHierarchy};
use yac_workload::{MicroOp, OpClass};

/// Horizon of the FU-arrival ring (must exceed sched_to_exec + bypass).
const ARRIVAL_HORIZON: usize = 64;
/// Horizon of the completion ring and of the scheduler's timer wheel (must
/// exceed the worst memory latency, MSHR queueing included).
const COMPLETION_HORIZON: usize = 1024;
/// Give up on an entry after this many bypass requeues (safety valve).
const MAX_REQUEUES: u8 = 8;
/// Cycles without a commit after which the simulator reports a deadlock.
const DEADLOCK_LIMIT: u64 = 500_000;
/// End of an intrusive list of ROB slots.
const NIL: u32 = u32::MAX;

/// Functional-unit pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuClass {
    IntAlu,
    IntMul,
    FpAdd,
    FpMul,
    Mem,
}

impl FuClass {
    const COUNT: usize = 5;

    fn of(class: OpClass) -> FuClass {
        match class {
            OpClass::IntAlu | OpClass::Branch => FuClass::IntAlu,
            OpClass::IntMul => FuClass::IntMul,
            OpClass::FpAdd => FuClass::FpAdd,
            OpClass::FpMul | OpClass::FpDiv => FuClass::FpMul,
            OpClass::Load | OpClass::Store => FuClass::Mem,
        }
    }
}

/// A source operand after rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SrcRef {
    /// Architecturally ready at dispatch.
    Ready,
    /// Produced by the ROB entry with this sequence number.
    Producer(u64),
}

/// Execution progress of one ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecState {
    /// In the issue queue, not yet selected.
    Waiting,
    /// Selected; will arrive at its functional unit at `exec_at`.
    Scheduled { exec_at: u64 },
    /// Executing; result available at `done_at`.
    Executing { done_at: u64 },
    /// Complete.
    Done { at: u64 },
}

#[derive(Debug, Clone)]
struct Entry {
    op: MicroOp,
    seq: u64,
    srcs: [Option<SrcRef>; 2],
    state: ExecState,
    /// Counted one bypass stall already.
    bypass_counted: bool,
    requeues: u8,
    /// This mispredicted branch unblocks fetch when it completes.
    resolves_fetch: bool,
    /// The op has been replayed: it re-issues only once its operands are
    /// *actually* available (no further speculative wakeup), which is what
    /// keeps one replay from seeding a self-sustaining replay wave.
    replayed: bool,
    /// For executing loads: the cycle the scheduler *expected* the value
    /// (exec start + assumed hit latency). A slow way or a miss is only
    /// discovered — "announced" to the scheduler — at this cycle; until
    /// then dependants are woken as if the load hits in the assumed time.
    announce_at: Option<u64>,
    /// Next ROB slot on the one list this entry is on: a producer's wake
    /// list or a timer bucket while parked, an arrival bucket while
    /// scheduled, a completion bucket while executing.
    link: u32,
    /// First ROB slot of the waiting ops parked on this entry's state.
    wakers: u32,
}

/// Why a waiting op cannot issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Operands are (predicted) ready: the op may issue.
    Open,
    /// Blocked until the producer in this ROB slot changes state.
    Producer(usize),
    /// Blocked, whatever else happens, before this cycle.
    Until(u64),
}

/// The simulated out-of-order core.
///
/// # Examples
///
/// ```
/// use yac_cache::{HierarchyConfig, MemoryHierarchy};
/// use yac_pipeline::{Pipeline, PipelineConfig};
/// use yac_workload::{spec2000, TraceGenerator};
///
/// let mem = MemoryHierarchy::new(HierarchyConfig::paper()).unwrap();
/// let mut cpu = Pipeline::new(PipelineConfig::paper(), mem).unwrap();
/// let trace = TraceGenerator::new(spec2000::profile("gzip").unwrap(), 1);
/// let stats = cpu.run(trace, 2_000, 10_000);
/// assert!(stats.committed >= 10_000); // may overshoot by width-1
/// assert!(stats.cpi() > 0.25, "cannot beat the 4-wide limit");
/// ```
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipelineConfig,
    mem: MemoryHierarchy,
    predictor: BranchPredictor,
    now: u64,
    /// The reorder buffer as a ring: the entry with sequence number `seq`
    /// lives in slot `seq & slot_mask`; `base_seq..next_seq` are in flight.
    rob: Vec<Entry>,
    slot_mask: u64,
    base_seq: u64,
    next_seq: u64,
    iq_count: usize,
    lsq_count: usize,
    rat: [Option<u64>; 256],
    fetch_q: VecDeque<(MicroOp, bool)>,
    /// Fetch is stalled until the flagged branch completes.
    fetch_blocked: bool,
    fetch_resume_at: u64,
    last_fetch_block: u64,
    trace_done: bool,
    /// One bit per ROB slot: waiting ops the scheduler examines this cycle.
    /// Every other waiting op is parked on a wake list or a timer bucket.
    ready: Vec<u64>,
    /// Timer wheel: heads of the lists of ops parked until a cycle.
    timers: Vec<u32>,
    /// Heads of the lists of scheduled ops by FU-arrival cycle, each list
    /// in age order.
    arrivals: Vec<u32>,
    /// Heads of the lists of executing ops by completion cycle.
    completions: Vec<u32>,
    /// ROB slots selected by the current cycle's schedule.
    picks: Vec<u32>,
    fu_reserved: Vec<[u16; FuClass::COUNT]>,
    fu_limits: [u16; FuClass::COUNT],
    stats: SimStats,
    total_committed: u64,
    last_commit_cycle: u64,
    /// Completion times of in-flight L1D misses (MSHR occupancy).
    outstanding_misses: Vec<u64>,
}

impl Pipeline {
    /// Builds a core over a memory hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] if the configuration is inconsistent
    /// or too deep for the simulator's wakeup horizon.
    pub fn new(cfg: PipelineConfig, mem: MemoryHierarchy) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if (cfg.sched_to_exec + cfg.bypass_depth + 2) as usize >= ARRIVAL_HORIZON {
            return Err(ConfigError::DepthExceedsHorizon);
        }
        let fu_limits = [
            cfg.int_alu as u16,
            cfg.int_mul as u16,
            cfg.fp_add as u16,
            cfg.fp_mul as u16,
            cfg.mem_ports as u16,
        ];
        let predictor = BranchPredictor::new(cfg.predictor_bits);
        let slots = cfg.rob_size.next_power_of_two();
        Ok(Pipeline {
            predictor,
            mem,
            now: 0,
            rob: Vec::with_capacity(slots),
            slot_mask: slots as u64 - 1,
            base_seq: 0,
            next_seq: 0,
            iq_count: 0,
            lsq_count: 0,
            rat: [None; 256],
            fetch_q: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_blocked: false,
            fetch_resume_at: 0,
            last_fetch_block: u64::MAX,
            trace_done: false,
            ready: vec![0; slots.div_ceil(64)],
            timers: vec![NIL; COMPLETION_HORIZON],
            arrivals: vec![NIL; ARRIVAL_HORIZON],
            completions: vec![NIL; COMPLETION_HORIZON],
            picks: Vec::with_capacity(cfg.width),
            fu_reserved: vec![[0; FuClass::COUNT]; ARRIVAL_HORIZON],
            fu_limits,
            stats: SimStats::default(),
            total_committed: 0,
            last_commit_cycle: 0,
            outstanding_misses: Vec::new(),
            cfg,
        })
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The memory hierarchy (e.g. for miss-rate inspection after a run).
    #[must_use]
    pub fn memory(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Runs the machine: commits `warmup` micro-ops to warm the caches and
    /// predictor (statistics are then reset), then measures until another
    /// `measure` micro-ops commit or the trace ends.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops committing for an extended period — a
    /// simulator bug, not a workload property.
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = MicroOp>,
        warmup: u64,
        measure: u64,
    ) -> SimStats {
        let mut trace = trace.into_iter();
        let target_warm = self.total_committed + warmup;
        let mut target_end = target_warm + measure;
        let mut warmed = warmup == 0;
        if warmup == 0 {
            self.reset_stats_internal();
        }
        loop {
            self.step(&mut trace);
            if !warmed && self.total_committed >= target_warm {
                self.reset_stats_internal();
                // Warm-up may overshoot by up to width-1 commits; measure a
                // full window from the actual reset point.
                target_end = self.total_committed + measure;
                warmed = true;
            }
            if warmed && self.total_committed >= target_end {
                break;
            }
            if self.trace_done && self.rob_len() == 0 && self.fetch_q.is_empty() {
                break;
            }
            assert!(
                self.now - self.last_commit_cycle < DEADLOCK_LIMIT,
                "pipeline deadlock at cycle {}: rob={} iq={} head={:?}",
                self.now,
                self.rob_len(),
                self.iq_count,
                self.entry(self.base_seq)
                    .map(|e| (e.seq, e.state, e.op.class)),
            );
        }
        yac_obs::add(yac_obs::Metric::UopsCommitted, self.stats.committed);
        yac_obs::add(yac_obs::Metric::SimCycles, self.stats.cycles);
        self.mem.flush_obs();
        self.stats
    }

    /// Statistics of the current measurement window.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    fn reset_stats_internal(&mut self) {
        self.stats = SimStats::default();
        self.mem.reset_stats();
        self.last_commit_cycle = self.now;
    }

    fn step(&mut self, trace: &mut impl Iterator<Item = MicroOp>) {
        self.commit();
        self.complete();
        self.fu_arrive();
        self.schedule();
        self.dispatch();
        self.fetch(trace);
        self.now += 1;
        self.stats.cycles += 1;
    }

    // ---- helpers -------------------------------------------------------

    fn rob_len(&self) -> usize {
        (self.next_seq - self.base_seq) as usize
    }

    fn slot(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    fn entry(&self, seq: u64) -> Option<&Entry> {
        (self.base_seq..self.next_seq)
            .contains(&seq)
            .then(|| &self.rob[self.slot(seq)])
    }

    /// Latency the scheduler assumes for a producer's result.
    fn assumed_latency(&self, op: &MicroOp) -> u32 {
        match op.class {
            OpClass::Load => self.cfg.assumed_load_latency,
            c => c.exec_latency(),
        }
    }

    /// Predicted cycle at which `src`'s value becomes available, or `None`
    /// if its producer has not even been scheduled.
    fn pred_ready(&self, src: SrcRef) -> Option<u64> {
        match src {
            SrcRef::Ready => Some(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Some(0), // producer retired: value in the register file
                Some(e) => match e.state {
                    ExecState::Waiting => None,
                    ExecState::Scheduled { exec_at } => {
                        Some(exec_at + u64::from(self.assumed_latency(&e.op)))
                    }
                    ExecState::Executing { done_at } => match e.announce_at {
                        // Until the expected-completion cycle passes, the
                        // scheduler still believes the assumed latency.
                        Some(announce) if self.now < announce => Some(announce),
                        _ => Some(done_at),
                    },
                    ExecState::Done { at } => Some(at),
                },
            },
        }
    }

    /// Readiness without speculation: the value's arrival time once the
    /// producer is executing or done, `None` while it is merely queued or
    /// scheduled. Used to re-issue replayed ops safely.
    fn firm_ready(&self, src: SrcRef) -> Option<u64> {
        match src {
            SrcRef::Ready => Some(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Some(0),
                Some(e) => match e.state {
                    ExecState::Executing { done_at } => Some(done_at),
                    ExecState::Done { at } => Some(at),
                    ExecState::Waiting | ExecState::Scheduled { .. } => None,
                },
            },
        }
    }

    /// Actual readiness of `src` at FU arrival: `Ok(ready_at)` once the
    /// producer is executing or done, `Err(())` if it must be replayed
    /// against (producer not in flight).
    fn actual_ready(&self, src: SrcRef) -> Result<u64, ()> {
        match src {
            SrcRef::Ready => Ok(0),
            SrcRef::Producer(seq) => match self.entry(seq) {
                None => Ok(0),
                Some(e) => match e.state {
                    ExecState::Executing { done_at } => Ok(done_at),
                    ExecState::Done { at } => Ok(at),
                    // Scheduled: the value may still arrive in time; report
                    // its predicted time so the caller can requeue-and-see.
                    ExecState::Scheduled { exec_at } => {
                        Ok(exec_at + u64::from(self.assumed_latency(&e.op)))
                    }
                    ExecState::Waiting => Err(()),
                },
            },
        }
    }

    /// Whether the waiting op in `slot` may issue to execute at `exec_at`,
    /// and if not, what it waits for.
    ///
    /// A `Gate::Until` cycle is the earlier of two: the cycle the blocking
    /// operand's predicted arrival enters the schedule window, and the
    /// cycle its producer next changes state (arrives at its unit or
    /// completes). Before it, neither the prediction nor the producer can
    /// move, so the op cannot issue. The load-announce boundary falls after
    /// it: an announce-time prediction gates only until `announce - depth`.
    fn gate(&self, slot: usize, exec_at: u64) -> Gate {
        let e = &self.rob[slot];
        for src in e.srcs.iter().flatten() {
            let SrcRef::Producer(seq) = *src else {
                continue;
            };
            let ready = if e.replayed {
                // Post-replay re-issue is non-speculative: wait for the
                // producer's value to be definitely on its way.
                self.firm_ready(*src)
            } else {
                self.pred_ready(*src)
            };
            match ready {
                Some(t) if t <= exec_at => {}
                Some(t) => {
                    let depth = u64::from(self.cfg.sched_to_exec);
                    let change = match self.entry(seq).map(|p| p.state) {
                        Some(ExecState::Scheduled { exec_at: arrives }) => arrives,
                        Some(ExecState::Executing { done_at }) => done_at,
                        // A done or retired producer's value is ready now.
                        _ => u64::MAX,
                    };
                    return Gate::Until((t - depth).min(change));
                }
                None => return Gate::Producer(self.slot(seq)),
            }
        }
        Gate::Open
    }

    fn mark_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    fn clear_ready(&mut self, slot: usize) {
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    /// The first ready slot in `from..end`.
    fn next_ready(&self, from: usize, end: usize) -> Option<usize> {
        if from >= end {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.ready[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                return (slot < end).then_some(slot);
            }
            word += 1;
            if word * 64 >= end {
                return None;
            }
            bits = self.ready[word];
        }
    }

    /// Moves every op of an intrusive list back into the ready set.
    fn wake_list(&mut self, mut slot: u32) {
        while slot != NIL {
            self.mark_ready(slot as usize);
            slot = self.rob[slot as usize].link;
        }
    }

    /// Changes the state of a waiting or scheduled entry, which is what its
    /// parked consumers wait for.
    fn set_state(&mut self, slot: usize, state: ExecState) {
        self.rob[slot].state = state;
        let wakers = std::mem::replace(&mut self.rob[slot].wakers, NIL);
        self.wake_list(wakers);
    }

    /// Queues `slot` to arrive at its functional unit at cycle `at`,
    /// keeping the bucket oldest first so producers precede consumers.
    fn push_arrival(&mut self, at: u64, slot: usize) {
        let bucket = (at % ARRIVAL_HORIZON as u64) as usize;
        let seq = self.rob[slot].seq;
        let mut prev = NIL;
        let mut cur = self.arrivals[bucket];
        while cur != NIL && self.rob[cur as usize].seq < seq {
            prev = cur;
            cur = self.rob[cur as usize].link;
        }
        self.rob[slot].link = cur;
        if prev == NIL {
            self.arrivals[bucket] = slot as u32;
        } else {
            self.rob[prev as usize].link = slot as u32;
        }
    }

    /// Whether an older, still-in-flight store writes the same 8-byte word.
    fn older_store_to(&self, seq: u64, addr: u64) -> bool {
        let word = addr & !7;
        (self.base_seq..seq).any(|s| {
            let e = &self.rob[self.slot(s)];
            e.op.class == OpClass::Store && e.op.addr.map(|a| a & !7) == Some(word)
        })
    }

    /// Earliest cycle a new L1D miss can start, honouring the MSHR limit.
    fn acquire_mshr(&mut self) -> u64 {
        if self.cfg.mshrs == 0 {
            return self.now;
        }
        let now = self.now;
        self.outstanding_misses.retain(|&t| t > now);
        if self.outstanding_misses.len() < self.cfg.mshrs {
            return self.now;
        }
        // Queue behind the miss that completes first.
        self.outstanding_misses
            .iter()
            .copied()
            .min()
            .map_or(now, |first| first.max(now))
    }

    // ---- pipeline phases ----------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(front) = self.entry(self.base_seq) else {
                break;
            };
            let ExecState::Done { .. } = front.state else {
                break;
            };
            debug_assert_eq!(front.wakers, NIL, "no op waits on a done entry");
            if front.op.class.is_mem() {
                self.lsq_count -= 1;
            }
            self.base_seq += 1;
            self.total_committed += 1;
            self.stats.committed += 1;
            self.last_commit_cycle = self.now;
        }
    }

    fn complete(&mut self) {
        let now = self.now;
        let bucket = (now % COMPLETION_HORIZON as u64) as usize;
        let mut slot = std::mem::replace(&mut self.completions[bucket], NIL);
        while slot != NIL {
            let e = &mut self.rob[slot as usize];
            slot = e.link;
            debug_assert!(matches!(e.state, ExecState::Executing { done_at } if done_at == now));
            e.state = ExecState::Done { at: now };
            if e.op.class == OpClass::Branch {
                self.stats.branches += 1;
            }
            if e.resolves_fetch {
                self.fetch_blocked = false;
                self.fetch_resume_at = self
                    .fetch_resume_at
                    .max(now + u64::from(self.cfg.redirect_penalty));
            }
        }
    }

    fn fu_arrive(&mut self) {
        let bucket = (self.now % ARRIVAL_HORIZON as u64) as usize;
        let mut slot = std::mem::replace(&mut self.arrivals[bucket], NIL);
        while slot != NIL {
            let next = self.rob[slot as usize].link;
            self.process_arrival(slot as usize);
            slot = next;
        }
    }

    /// Sends the op in `slot` back to the issue queue (selective replay).
    fn replay(&mut self, slot: usize) {
        let e = &mut self.rob[slot];
        e.replayed = true;
        e.requeues = 0;
        self.set_state(slot, ExecState::Waiting);
        self.mark_ready(slot);
        self.stats.replays += 1;
    }

    fn process_arrival(&mut self, slot: usize) {
        let e = &self.rob[slot];
        debug_assert!(matches!(e.state, ExecState::Scheduled { .. }));
        let seq = e.seq;
        // Determine operand lateness.
        let mut ready_at = 0u64;
        let mut must_replay = false;
        for src in e.srcs.iter().flatten() {
            match self.actual_ready(*src) {
                Ok(t) => ready_at = ready_at.max(t),
                Err(()) => {
                    must_replay = true;
                    break;
                }
            }
        }
        // An in-flight consumer may find its operand late for two stacked
        // reasons: the slow way itself (up to bypass_depth cycles) and the
        // slip its producer accumulated while *it* waited in a buffer. The
        // paper's scheduler is "informed about this stall" and delays
        // direct and indirect dependants accordingly (§4.3); consumers
        // already inside the schedule-to-execute pipe wait the stacked
        // cycles out in the buffers. The stacking is bounded by the pipe
        // depth (staleness cannot outlive the in-flight window), so
        // lateness up to depth+1 beyond the buffer depth is hit-timing
        // slip; anything later (an L1 miss adds 25+ cycles) is a genuine
        // miss and triggers selective replay.
        let slip_tolerance = 2u64;
        let bypass = u64::from(self.cfg.bypass_depth) + slip_tolerance;
        if !must_replay && ready_at > self.now + bypass {
            must_replay = true;
        }

        if must_replay {
            self.replay(slot);
            return;
        }

        if ready_at > self.now {
            // The load-bypass buffer absorbs the lateness: wait and retry
            // when the value arrives.
            let e = &mut self.rob[slot];
            let first_stall = !e.bypass_counted;
            e.bypass_counted = true;
            e.requeues += 1;
            let requeues = e.requeues;
            if first_stall {
                self.stats.bypass_stalls += 1;
            }
            if requeues > MAX_REQUEUES {
                self.replay(slot);
                return;
            }
            let retry = ready_at.max(self.now + 1);
            // The scheduler is informed of the stall (§4.3 of the paper):
            // slipping the op's effective execute cycle keeps its own
            // dependants' wakeup predictions in step, so a one-cycle delay
            // propagates down the chain as exactly one cycle instead of
            // collapsing into replays.
            self.set_state(slot, ExecState::Scheduled { exec_at: retry });
            self.push_arrival(retry, slot);
            return;
        }

        // Operands ready: execute.
        let (class, addr) = (self.rob[slot].op.class, self.rob[slot].op.addr);
        let mut announce_at = None;
        let done_at = match class {
            OpClass::Load => {
                let addr = addr.expect("loads carry addresses");
                self.stats.loads += 1;
                announce_at = Some(self.now + u64::from(self.cfg.assumed_load_latency));
                if self.cfg.store_forwarding && self.older_store_to(seq, addr) {
                    // The LSQ forwards the word; the cache is not touched.
                    self.stats.forwarded_loads += 1;
                    self.now + u64::from(self.cfg.forward_latency)
                } else {
                    let out = self.mem.data_access(addr, AccessKind::Read);
                    if out.l1_hit {
                        self.stats.l1d_load_hits += 1;
                        self.now + u64::from(out.latency)
                    } else {
                        // A miss needs an MSHR; with all of them busy the
                        // access queues behind the oldest outstanding miss.
                        let start = self.acquire_mshr();
                        let done = start + u64::from(out.latency);
                        self.outstanding_misses.push(done);
                        if start > self.now {
                            self.stats.mshr_stall_cycles += start - self.now;
                        }
                        done
                    }
                }
            }
            OpClass::Store => {
                let _ = self
                    .mem
                    .data_access(addr.expect("stores carry addresses"), AccessKind::Write);
                self.now + 1
            }
            c => self.now + u64::from(c.exec_latency()),
        };
        debug_assert!(
            done_at - self.now < COMPLETION_HORIZON as u64,
            "a result past the completion horizon would complete early"
        );
        self.rob[slot].announce_at = announce_at;
        self.set_state(slot, ExecState::Executing { done_at });
        let bucket = (done_at % COMPLETION_HORIZON as u64) as usize;
        self.rob[slot].link = self.completions[bucket];
        self.completions[bucket] = slot as u32;
        self.iq_count -= 1;
    }

    fn schedule(&mut self) {
        let depth = u64::from(self.cfg.sched_to_exec);
        let exec_at = self.now + depth;
        let fu_slot = (exec_at % ARRIVAL_HORIZON as u64) as usize;

        // Ops parked until this cycle rejoin the ready set.
        let bucket = (self.now % COMPLETION_HORIZON as u64) as usize;
        let due = std::mem::replace(&mut self.timers[bucket], NIL);
        self.wake_list(due);

        // Visit the ready set oldest first: ROB slots from the head to the
        // end of the ring, then the wrapped part before the head.
        self.picks.clear();
        let mut slots = self.cfg.width;
        let ring = self.slot_mask as usize + 1;
        let head = self.slot(self.base_seq);
        let (mut from, mut end) = (head, ring);
        while slots > 0 {
            let Some(slot) = self.next_ready(from, end) else {
                if end == ring {
                    (from, end) = (0, head);
                    continue;
                }
                break;
            };
            from = slot + 1;
            match self.gate(slot, exec_at) {
                Gate::Open => {
                    let fu = FuClass::of(self.rob[slot].op.class) as usize;
                    if self.fu_reserved[fu_slot][fu] >= self.fu_limits[fu] {
                        continue;
                    }
                    self.fu_reserved[fu_slot][fu] += 1;
                    self.clear_ready(slot);
                    self.picks.push(slot as u32);
                    slots -= 1;
                }
                Gate::Producer(producer) => {
                    self.clear_ready(slot);
                    self.rob[slot].link = self.rob[producer].wakers;
                    self.rob[producer].wakers = slot as u32;
                }
                Gate::Until(cycle) => {
                    self.clear_ready(slot);
                    let cycle = cycle.clamp(self.now + 1, self.now + COMPLETION_HORIZON as u64 - 1);
                    let bucket = (cycle % COMPLETION_HORIZON as u64) as usize;
                    self.rob[slot].link = self.timers[bucket];
                    self.timers[bucket] = slot as u32;
                }
            }
        }

        // Clear the reservation slot that just expired (one past the
        // horizon window as seen by future schedules).
        let expired = ((self.now + ARRIVAL_HORIZON as u64 - 1) % ARRIVAL_HORIZON as u64) as usize;
        if expired != fu_slot {
            self.fu_reserved[expired] = [0; FuClass::COUNT];
        }

        for i in 0..self.picks.len() {
            let slot = self.picks[i] as usize;
            self.rob[slot].bypass_counted = false;
            self.set_state(slot, ExecState::Scheduled { exec_at });
            self.push_arrival(exec_at, slot);
        }
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some((op, _)) = self.fetch_q.front() else {
                break;
            };
            if self.rob_len() >= self.cfg.rob_size || self.iq_count >= self.cfg.iq_size {
                self.stats.dispatch_stalls += 1;
                break;
            }
            if op.class.is_mem() && self.lsq_count >= self.cfg.lsq_size {
                self.stats.dispatch_stalls += 1;
                break;
            }
            let (op, mispredicted) = self.fetch_q.pop_front().expect("front exists");
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut srcs = [None, None];
            for (slot, reg) in op.srcs.iter().flatten().enumerate() {
                let src = match self.rat[usize::from(*reg)] {
                    Some(p) if p >= self.base_seq => SrcRef::Producer(p),
                    _ => SrcRef::Ready,
                };
                srcs[slot] = Some(src);
            }
            if let Some(dest) = op.dest {
                self.rat[usize::from(dest)] = Some(seq);
            }
            if op.class.is_mem() {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            let entry = Entry {
                op,
                seq,
                srcs,
                state: ExecState::Waiting,
                bypass_counted: false,
                requeues: 0,
                resolves_fetch: mispredicted,
                replayed: false,
                announce_at: None,
                link: NIL,
                wakers: NIL,
            };
            let slot = self.slot(seq);
            if slot == self.rob.len() {
                self.rob.push(entry); // the ring's first lap
            } else {
                self.rob[slot] = entry;
            }
            self.mark_ready(slot);
        }
    }

    fn fetch(&mut self, trace: &mut impl Iterator<Item = MicroOp>) {
        if self.trace_done {
            return;
        }
        if self.fetch_blocked || self.now < self.fetch_resume_at {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        for _ in 0..self.cfg.width {
            if self.fetch_q.len() >= self.cfg.fetch_queue {
                break;
            }
            let Some(op) = trace.next() else {
                self.trace_done = true;
                break;
            };
            // Instruction-cache access on block change.
            let block = op.pc >> 6;
            let mut stall_after = false;
            if block != self.last_fetch_block {
                self.last_fetch_block = block;
                let latency = self.mem.fetch(op.pc);
                let hit_latency = 2;
                if latency > hit_latency {
                    self.fetch_resume_at = self.now + u64::from(latency - hit_latency);
                    stall_after = true;
                }
            }
            let mut mispredicted = false;
            let mut taken_branch = false;
            if let Some(taken) = op.taken {
                let predicted = self.predictor.predict(op.pc);
                self.predictor.update(op.pc, taken);
                if predicted != taken {
                    mispredicted = true;
                    self.stats.mispredicts += 1;
                } else if taken {
                    taken_branch = true;
                }
            }
            self.fetch_q.push_back((op, mispredicted));
            if mispredicted {
                // Fetch chases the wrong path until the branch resolves.
                self.fetch_blocked = true;
                break;
            }
            if taken_branch || stall_after {
                break; // fetch group ends at a taken branch / I-miss
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use yac_cache::HierarchyConfig;
    use yac_workload::{spec2000, TraceGenerator};

    impl Pipeline {
        /// The reference scheduler: scans the whole ROB oldest first and
        /// picks each waiting op whose operands are (predicted) ready and
        /// whose functional unit is free, up to the machine width. Returns
        /// the sequence numbers it would pick this cycle.
        fn reference_picks(&self) -> Vec<u64> {
            let exec_at = self.now + u64::from(self.cfg.sched_to_exec);
            let fu_slot = (exec_at % ARRIVAL_HORIZON as u64) as usize;
            let mut reserved = self.fu_reserved[fu_slot];
            let mut slots = self.cfg.width;
            let mut picks = Vec::new();
            'scan: for seq in self.base_seq..self.next_seq {
                if slots == 0 {
                    break;
                }
                let e = &self.rob[self.slot(seq)];
                if !matches!(e.state, ExecState::Waiting) {
                    continue;
                }
                for src in e.srcs.iter().flatten() {
                    let pred = if e.replayed {
                        self.firm_ready(*src)
                    } else {
                        self.pred_ready(*src)
                    };
                    match pred {
                        Some(t) if t <= exec_at => {}
                        _ => continue 'scan,
                    }
                }
                let fu = FuClass::of(e.op.class) as usize;
                if reserved[fu] >= self.fu_limits[fu] {
                    continue;
                }
                reserved[fu] += 1;
                picks.push(seq);
                slots -= 1;
            }
            picks
        }

        /// One cycle of [`Pipeline::step`], asserting that the scheduler
        /// picks exactly what the reference scheduler picks.
        fn step_against_reference(&mut self, trace: &mut impl Iterator<Item = MicroOp>) {
            self.commit();
            self.complete();
            self.fu_arrive();
            let expected = self.reference_picks();
            self.schedule();
            let picked: Vec<u64> = self
                .picks
                .iter()
                .map(|&slot| self.rob[slot as usize].seq)
                .collect();
            assert_eq!(picked, expected, "picks differ at cycle {}", self.now);
            self.dispatch();
            self.fetch(trace);
            self.now += 1;
            self.stats.cycles += 1;
        }
    }

    /// `(class, src0, src1, dest, address selector, taken)`.
    type RawOp = (u8, Option<u8>, Option<u8>, Option<u8>, u64, bool);

    /// Builds the `i`-th op of a random trace. Half the ops are loads and
    /// stores, and registers come from a small pool, so dependences are
    /// dense. Half the memory ops touch two words that loads and stores
    /// share (forwarding, aliasing); the rest stream through fresh lines
    /// (misses, replays, MSHR queueing).
    fn random_op(i: usize, (class, src0, src1, dest, addr_sel, taken): RawOp) -> MicroOp {
        const CLASSES: [OpClass; 12] = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::Branch,
            OpClass::Load,
            OpClass::Load,
            OpClass::Load,
            OpClass::Store,
            OpClass::Store,
            OpClass::Store,
        ];
        let class = CLASSES[usize::from(class) % CLASSES.len()];
        let addr = class.is_mem().then(|| {
            if addr_sel % 2 == 0 {
                0x4000_0000 + (addr_sel % 4) * 4
            } else {
                0x6000_0000 + (addr_sel % 512) * 64 + i as u64 * 4096
            }
        });
        MicroOp {
            pc: 0x1000 + (i as u64 % 48) * 4,
            class,
            srcs: [src0, src1],
            dest: match class {
                OpClass::Store | OpClass::Branch => None,
                _ => dest,
            },
            addr,
            taken: (class == OpClass::Branch).then_some(taken),
        }
    }

    /// `(width, rob, sched_to_exec, bypass_depth, assumed load latency,
    /// mshrs, store forwarding, int ALUs, memory ports)`.
    type RawCfg = ((usize, usize, u32, u32), (u32, usize, bool, usize, usize));

    fn random_config(
        ((width, rob, depth, bypass), (assumed, mshrs, fwd, alus, ports)): RawCfg,
    ) -> PipelineConfig {
        let mut cfg = PipelineConfig::paper();
        cfg.width = width;
        cfg.rob_size = [4, 8, 12, 24, 100, 256][rob];
        cfg.iq_size = cfg.rob_size - cfg.rob_size / 4;
        cfg.lsq_size = cfg.rob_size / 2;
        cfg.sched_to_exec = depth;
        cfg.bypass_depth = bypass;
        cfg.assumed_load_latency = assumed;
        cfg.mshrs = mshrs;
        cfg.store_forwarding = fwd;
        cfg.int_alu = alus;
        cfg.mem_ports = ports;
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn scheduler_picks_match_the_full_rob_scan(
            raw_cfg in (
                (1usize..5, 0usize..6, 1u32..9, 0u32..3),
                (4u32..6, 0usize..4, any::<bool>(), 1usize..4, 1usize..3),
            ),
            way_latency in prop::collection::vec(4u32..7, 4..5),
            raw_ops in prop::collection::vec(
                (
                    0u8..12,
                    prop::option::of(0u8..6),
                    prop::option::of(0u8..6),
                    prop::option::of(0u8..6),
                    0u64..4096,
                    any::<bool>(),
                ),
                1..600,
            ),
        ) {
            let cfg = random_config(raw_cfg);
            let mut hier = HierarchyConfig::paper();
            hier.l1d.way_latency = way_latency;
            let mut pipe = cpu(cfg, hier);
            let ops: Vec<MicroOp> = raw_ops
                .into_iter()
                .enumerate()
                .map(|(i, raw)| random_op(i, raw))
                .collect();
            let n = ops.len() as u64;
            let mut trace = ops.into_iter();
            while !(pipe.trace_done && pipe.rob_len() == 0 && pipe.fetch_q.is_empty()) {
                pipe.step_against_reference(&mut trace);
                prop_assert!(pipe.now < 200_000, "no progress");
            }
            prop_assert_eq!(pipe.total_committed, n);
        }
    }

    fn cpu(cfg: PipelineConfig, hier: HierarchyConfig) -> Pipeline {
        Pipeline::new(cfg, MemoryHierarchy::new(hier).unwrap()).unwrap()
    }

    fn run_bench(name: &str, cfg: PipelineConfig, hier: HierarchyConfig) -> SimStats {
        let mut pipe = cpu(cfg, hier);
        let trace = TraceGenerator::new(spec2000::profile(name).unwrap(), 7);
        pipe.run(trace, 10_000, 100_000)
    }

    fn alu_chain(n: usize) -> Vec<MicroOp> {
        // r8 <- r8 + r8 repeatedly: a pure serial dependence chain.
        (0..n)
            .map(|i| MicroOp {
                pc: 0x1000 + (i as u64 % 64) * 4,
                class: OpClass::IntAlu,
                srcs: [Some(8), None],
                dest: Some(8),
                addr: None,
                taken: None,
            })
            .collect()
    }

    fn independent_alus(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp {
                pc: 0x1000 + (i as u64 % 64) * 4,
                class: OpClass::IntAlu,
                srcs: [Some(0), Some(1)],
                dest: Some(8 + (i % 32) as u8),
                addr: None,
                taken: None,
            })
            .collect()
    }

    #[test]
    fn independent_ops_reach_full_width() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(independent_alus(40_000), 5_000, 30_000);
        assert!(
            stats.ipc() > 3.5,
            "4 independent ALUs per cycle should run near width: ipc={}",
            stats.ipc()
        );
    }

    #[test]
    fn serial_chain_runs_at_one_ipc() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(alu_chain(20_000), 2_000, 10_000);
        let cpi = stats.cpi();
        assert!(
            (0.95..1.2).contains(&cpi),
            "a serial ALU chain commits one op per cycle (back-to-back wakeup): cpi={cpi}"
        );
    }

    #[test]
    fn dependent_load_chain_pays_the_hit_latency() {
        // load r8 <- [A]; then an ALU on r8 feeding the next load address.
        let n = 30_000;
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Load,
                        srcs: [Some(8), None],
                        dest: Some(8),
                        addr: Some(0x4000_0000 + (i as u64 * 8) % 4096),
                        taken: None,
                    }
                } else {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::IntAlu,
                        srcs: [Some(8), None],
                        dest: Some(8),
                        addr: None,
                        taken: None,
                    }
                }
            })
            .collect();
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(ops, 2_000, 20_000);
        // Each load+alu pair costs ~ hit latency (4) + 1 cycles.
        let cpi = stats.cpi();
        assert!(
            (2.2..3.2).contains(&cpi),
            "pointer-chase pairs should cost ~(4+1)/2 cycles per op: cpi={cpi}"
        );
    }

    #[test]
    fn slow_way_hits_trigger_bypass_buffers() {
        // All L1D ways at 5 cycles; plenty of dependent loads. The base
        // machine (4-cycle ways) never touches the buffers; the slow one
        // must use them heavily.
        let base = run_bench("gzip", PipelineConfig::paper(), HierarchyConfig::paper());
        assert_eq!(base.bypass_stalls, 0, "no late hits on the base machine");
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![5; 4];
        let slow = run_bench("gzip", PipelineConfig::paper(), hier);
        assert!(
            slow.bypass_stalls > 1_000,
            "5-cycle hits must flow through the buffers: {}",
            slow.bypass_stalls
        );
        assert!(slow.cpi() > base.cpi());
    }

    #[test]
    fn misses_cause_selective_replay() {
        let stats = run_bench("mcf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(stats.replays > 0, "mcf misses must replay dependants");
        assert!(stats.l1d_load_hit_rate() < 0.98);
    }

    #[test]
    fn core_bound_benchmark_hits_l1() {
        let stats = run_bench("crafty", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(
            stats.l1d_load_hit_rate() > 0.9,
            "crafty's working set mostly fits: {}",
            stats.l1d_load_hit_rate()
        );
    }

    #[test]
    fn memory_bound_benchmark_is_slower() {
        let fast = run_bench("gzip", PipelineConfig::paper(), HierarchyConfig::paper());
        let slow = run_bench("mcf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(
            slow.cpi() > 1.3 * fast.cpi(),
            "mcf ({}) should be much slower than gzip ({})",
            slow.cpi(),
            fast.cpi()
        );
    }

    #[test]
    fn slow_ways_cost_performance_but_less_than_naive_binning() {
        let base = run_bench("gcc", PipelineConfig::paper(), HierarchyConfig::paper());

        // VACA: two slow ways, scheduler still assumes 4.
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![4, 5, 5, 4];
        let vaca = run_bench("gcc", PipelineConfig::paper(), hier);

        // Naive binning: scheduler assumes 5 for everything.
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_latency = vec![5; 4];
        let mut cfg = PipelineConfig::paper();
        cfg.assumed_load_latency = 5;
        let naive = run_bench("gcc", cfg, hier);

        assert!(vaca.cpi() > base.cpi(), "slow ways must cost something");
        assert!(
            naive.cpi() > vaca.cpi(),
            "two slow ways ({}) must cost less than binning everything at 5 ({})",
            vaca.cpi(),
            naive.cpi()
        );
    }

    #[test]
    fn disabling_a_way_costs_performance() {
        let base = run_bench("vpr", PipelineConfig::paper(), HierarchyConfig::paper());
        let mut hier = HierarchyConfig::paper();
        hier.l1d.way_enabled[2] = false;
        let yapd = run_bench("vpr", PipelineConfig::paper(), hier);
        assert!(
            yapd.cpi() > base.cpi(),
            "a 3-way L1D must miss more: {} vs {}",
            yapd.cpi(),
            base.cpi()
        );
    }

    #[test]
    fn mispredictions_are_detected_and_cost_cycles() {
        let predictable = run_bench("swim", PipelineConfig::paper(), HierarchyConfig::paper());
        let branchy = run_bench("twolf", PipelineConfig::paper(), HierarchyConfig::paper());
        assert!(predictable.mispredict_rate() < 0.06);
        assert!(branchy.mispredict_rate() > predictable.mispredict_rate());
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_bench("parser", PipelineConfig::paper(), HierarchyConfig::paper());
        let b = run_bench("parser", PipelineConfig::paper(), HierarchyConfig::paper());
        assert_eq!(a, b);
    }

    #[test]
    fn store_forwarding_accelerates_aliasing_loads() {
        // store [A]; load [A] pairs: forwarding should satisfy the loads.
        let ops: Vec<MicroOp> = (0..20_000)
            .map(|i| {
                let addr = 0x4000_0000 + (i as u64 / 2 * 8) % 4096;
                if i % 2 == 0 {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Store,
                        srcs: [Some(0), Some(1)],
                        dest: None,
                        addr: Some(addr),
                        taken: None,
                    }
                } else {
                    MicroOp {
                        pc: 0x1000 + (i as u64 % 64) * 4,
                        class: OpClass::Load,
                        srcs: [Some(2), None],
                        dest: Some(8 + (i % 32) as u8),
                        addr: Some(addr),
                        taken: None,
                    }
                }
            })
            .collect();
        let mut plain_cfg = PipelineConfig::paper();
        plain_cfg.store_forwarding = false;
        let mut pipe = cpu(plain_cfg, HierarchyConfig::paper());
        let plain = pipe.run(ops.clone(), 2_000, 15_000);
        assert_eq!(plain.forwarded_loads, 0);

        let mut fwd_cfg = PipelineConfig::paper();
        fwd_cfg.store_forwarding = true;
        let mut pipe = cpu(fwd_cfg, HierarchyConfig::paper());
        let fwd = pipe.run(ops, 2_000, 15_000);
        assert!(fwd.forwarded_loads > 1_000, "{}", fwd.forwarded_loads);
    }

    #[test]
    fn mshr_limit_throttles_miss_parallelism() {
        let run = |mshrs: usize| {
            let mut cfg = PipelineConfig::paper();
            cfg.mshrs = mshrs;
            let mut pipe = cpu(cfg, HierarchyConfig::paper());
            let trace = TraceGenerator::new(spec2000::profile("mcf").unwrap(), 7);
            pipe.run(trace, 5_000, 40_000)
        };
        let unlimited = run(0);
        let throttled = run(1);
        assert_eq!(unlimited.mshr_stall_cycles, 0);
        assert!(throttled.mshr_stall_cycles > 0);
        assert!(
            throttled.cpi() > unlimited.cpi(),
            "a single MSHR must serialise mcf's misses: {} vs {}",
            throttled.cpi(),
            unlimited.cpi()
        );
    }

    #[test]
    fn default_features_leave_baseline_untouched() {
        // MSHRs unlimited + forwarding off must reproduce the calibrated
        // baseline exactly.
        let a = run_bench("gcc", PipelineConfig::paper(), HierarchyConfig::paper());
        let mut cfg = PipelineConfig::paper();
        cfg.mshrs = 0;
        cfg.store_forwarding = false;
        let b = run_bench("gcc", cfg, HierarchyConfig::paper());
        assert_eq!(a, b);
        assert_eq!(a.forwarded_loads, 0);
        assert_eq!(a.mshr_stall_cycles, 0);
    }

    #[test]
    fn trace_exhaustion_drains_cleanly() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let stats = pipe.run(independent_alus(500), 0, 1_000_000);
        assert_eq!(stats.committed, 500, "all ops commit even past trace end");
    }

    #[test]
    fn measurement_window_is_exact() {
        let mut pipe = cpu(PipelineConfig::paper(), HierarchyConfig::paper());
        let trace = TraceGenerator::new(spec2000::profile("mesa").unwrap(), 11);
        let stats = pipe.run(trace, 1_000, 5_000);
        // Commit is width-wide, so the window may overshoot by width-1.
        assert!(
            (5_000..5_000 + 4).contains(&stats.committed),
            "committed {}",
            stats.committed
        );
    }
}
