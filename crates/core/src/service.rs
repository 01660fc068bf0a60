//! The interactive sweep service: study queries over a content-addressed
//! result cache, computed on a work-stealing shard pool.
//!
//! Batch sweeps ([`crate::sweep::run_sweep`]) run a fixed grid to a
//! journal and exit. The service inverts the workload: it stays up,
//! accepts single-study queries over a local TCP socket, and answers
//! repeat queries from a cache instead of recomputing them. Three
//! properties carry over from the batch path unchanged:
//!
//! * **Bit-identical results.** A query key is the SplitMix64
//!   fingerprint of the *single-cell sweep grid* the query denotes
//!   ([`StudyQuery::fingerprint`] delegates to
//!   [`SweepGrid::fingerprint`]), and the cached value is the canonical
//!   [`render_result`] text — every `f64` an IEEE bit image. A cache hit
//!   is therefore byte-identical to recomputation, and to the `S` record
//!   a sweep journal would hold for the same cell; tests assert all
//!   three ways.
//! * **Supervised execution.** Misses run on a [`StealPool`] of
//!   work-stealing workers ([`crate::stealing`]), each shard under the
//!   same retry/backoff/deadline/degrade attempt loop as the batch
//!   executor's. Degraded results are returned honestly — but
//!   **not cached**, because they depend on which shards happened to
//!   fail.
//! * **Bounded admission.** At most [`ServiceConfig::max_inflight`]
//!   queries compute at once; the next miss gets a typed
//!   [`ServiceReply::Busy`], never an unbounded queue. Cache hits are
//!   deliberately served even when saturated — a hit costs one map
//!   lookup, and refusing it would punish exactly the queries the cache
//!   exists to make cheap.
//!
//! Cancellation is cooperative and per query: the connection handler
//! watches for client disconnect and raises the query's cancel flag,
//! which stops its shards between chips without burning retries.
//!
//! # Wire protocol
//!
//! Length-prefixed, CRC-checked JSON over TCP: each frame is a
//! big-endian `u32` byte length, a big-endian `u32` CRC-32 of the
//! payload, then the payload — a flat JSON object (no nesting, scalars
//! only). The CRC turns wire corruption (including the chaos layer's
//! injected bit flips) into a typed `InvalidData` error instead of a
//! silently wrong record. Requests carry an `"op"` key (`query`,
//! `stats`, `drain`, `shutdown`); replies a `"status"` key (`ok`,
//! `busy`, `draining`, `deadline`, `cancelled`, `error`, `stats`,
//! `bye`). Study records travel as the canonical [`render_result`]
//! token text inside the `"record"` string, so the bytes a client
//! receives are exactly the bytes the cache holds.
//!
//! # Overload hardening
//!
//! The serving tier refuses to be wedged by a slow, dead or malicious
//! peer (the disk path got the same treatment in the sweep journal):
//!
//! * **Per-frame deadlines** — once a frame's first byte arrives, the
//!   rest must follow within [`ServiceConfig::read_deadline`]; replies
//!   must drain within [`ServiceConfig::write_deadline`]. A peer that
//!   stalls mid-frame (the classic slowloris) is evicted, counted in
//!   `slow_clients_evicted` and traced as `SlowClientEvicted`.
//! * **A connection cap** — [`ServiceConfig::max_conns`]; the excess
//!   connection gets a best-effort `Busy` frame and is closed
//!   (`conns_rejected` / `ConnRejected`).
//! * **Typed backpressure with a hint** — [`ServiceReply::Busy`] carries
//!   `retry_after_ms` so clients back off without guessing.
//! * **Client deadlines** — a query's `deadline_ms` arms a server-side
//!   watchdog that raises the query's cooperative-cancel flag and
//!   answers [`ServiceReply::Deadline`]; abandoned work stops between
//!   chips instead of burning the pool.
//! * **Graceful drain** — the `drain` op finishes in-flight queries,
//!   answers new ones with [`ServiceReply::Draining`], and exits the
//!   serve loop once the last in-flight query completes.
//!
//! # Cache persistence (`YAC-CACHE v1`)
//!
//! [`ResultCache::save`] writes the cache as CRC-trailed lines (the
//! sweep journal's discipline): a magic line, then one `E <key>
//! <record>` line per entry in ascending recency, so LRU order survives
//! a round trip. The write runs through the chaos layer
//! ([`IoSite::CacheFile`]) and is fully rewritten each time; a torn or
//! rotted file is refused as [`StudyError::Corrupt`] on load — the cache
//! is an optimisation, never a source of silent corruption. A cold cache
//! can also be warmed from a completed sweep journal
//! ([`ResultCache::warm_from_journal`]), re-keying each `Completed`
//! record by its cell's query fingerprint.
//!
//! # Examples
//!
//! ```
//! use yac_core::service::{ServiceConfig, StudyQuery, SweepService, ServiceReply};
//! use std::sync::Arc;
//! use std::sync::atomic::AtomicBool;
//!
//! let mut config = ServiceConfig::default();
//! config.exec.workers = 2;
//! let service = SweepService::new(config);
//! let query = StudyQuery {
//!     chips: 24,
//!     seed: 7,
//!     constraint: yac_core::ConstraintSpec::NOMINAL,
//!     kind: yac_core::PowerDownKind::Vertical,
//!     cpi: None,
//! };
//! let cancel = Arc::new(AtomicBool::new(false));
//! let first = service.query(&query, &cancel);
//! let second = service.query(&query, &cancel);
//! match (first, second) {
//!     (
//!         ServiceReply::Result { record: a, cached: false, .. },
//!         ServiceReply::Result { record: b, cached: true, .. },
//!     ) => assert_eq!(a, b, "cache hit is byte-identical"),
//!     other => panic!("expected result replies, got {other:?}"),
//! }
//! service.shutdown();
//! ```

use crate::chaos::{intercept_write, ChaosStream, IoSite, NetSite};
use crate::checkpoint::{crc32, fsync_parent, CheckpointState, StudyError};
use crate::chip::PopulationConfig;
use crate::constraints::ConstraintSpec;
use crate::executor::{run_shard, shards_for, ExecutorConfig, ShardMsg, ShardSpec, WorkerLane};
use crate::health::{HealthConfig, HeartbeatRegistry, StallEvent, StallSentinel};
use crate::schemes::PowerDownKind;
use crate::stealing::StealPool;
use crate::sweep::{
    check_crc_line, crc_line, parse_journal, parse_result, render_result,
    study_result_from_outcome, CpiOptions, StudySpec, StudyStatus, SweepConfig, SweepGrid,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yac_obs::{Metric, Phase, TraceCtx, TraceEventKind};
use yac_variation::MonteCarlo;

/// Cache-file magic line content (before its CRC trailer).
const CACHE_MAGIC: &str = "YAC-CACHE v1";

/// Largest frame either side of the wire protocol will accept.
pub const MAX_FRAME: usize = 16 << 20;

/// Looks up one of the paper's constraint recipes by its stable name.
#[must_use]
pub fn constraint_by_name(name: &str) -> Option<ConstraintSpec> {
    [
        ConstraintSpec::NOMINAL,
        ConstraintSpec::RELAXED,
        ConstraintSpec::STRICT,
    ]
    .into_iter()
    .find(|c| c.name == name)
}

/// One cacheable unit of service work: a single sweep-grid cell.
///
/// The query deliberately exposes only result-shaping inputs — chips,
/// seed, constraint recipe, organisation, CPI budgets. Executor tuning
/// (workers, shard size, retries) belongs to the service, not the query,
/// exactly as [`SweepGrid::fingerprint`] excludes it: two deployments
/// with different worker counts must hit each other's cache entries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyQuery {
    /// Chips in the study population.
    pub chips: usize,
    /// Monte Carlo seed.
    pub seed: u64,
    /// Constraint recipe the population is classified under.
    pub constraint: ConstraintSpec,
    /// Which organisation's loss table the study builds.
    pub kind: PowerDownKind,
    /// Optional CPI measurement budgets.
    pub cpi: Option<CpiOptions>,
}

impl StudyQuery {
    /// The query a sweep-grid cell denotes, used to warm the cache from
    /// a journal: the cell keyed this way and the same cell queried
    /// directly produce the same fingerprint.
    #[must_use]
    pub fn from_spec(grid: &SweepGrid, config: &SweepConfig, spec: &StudySpec) -> Self {
        StudyQuery {
            chips: grid.chips,
            seed: spec.seed,
            constraint: spec.constraint,
            kind: spec.kind,
            cpi: config.cpi,
        }
    }

    /// The query's cache key: the [`SweepGrid::fingerprint`] of the
    /// single-cell grid this query denotes (same SplitMix64 fold, same
    /// inputs), under a fault-free config. Not a new hash — the existing
    /// one, applied to a one-cell sweep.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let grid = SweepGrid {
            chips: self.chips,
            seeds: vec![self.seed],
            constraints: vec![self.constraint],
            kinds: vec![self.kind],
        };
        let config = SweepConfig {
            cpi: self.cpi,
            ..SweepConfig::default()
        };
        grid.fingerprint(&config)
    }
}

// ---------------------------------------------------------------------
// The result cache
// ---------------------------------------------------------------------

/// Bytes charged to an entry beyond its record text (key, recency tick,
/// map slot). Keeps the byte budget honest about small entries.
pub const ENTRY_OVERHEAD: usize = 48;

#[derive(Debug, Clone)]
struct CacheEntry {
    /// Canonical [`render_result`] text, stored as bytes: an in-memory
    /// bit flip (real rot, or the chaos layer's injected `mem_rate`) may
    /// leave the buffer non-UTF-8, and the scrubber must still be able
    /// to inspect it.
    record: Vec<u8>,
    /// CRC-32 of the record captured at insert, *before* the stored copy
    /// could rot. Every read and every scrub pass re-verifies it; a
    /// mismatch quarantines the entry.
    crc: u32,
    /// Recency: the cache-wide tick of the entry's last touch.
    last_used: u64,
}

impl CacheEntry {
    fn intact(&self) -> bool {
        crc32(&self.record) == self.crc
    }
}

fn entry_bytes(record: &[u8]) -> usize {
    record.len() + ENTRY_OVERHEAD
}

/// A content-addressed LRU cache of study records under a byte budget.
///
/// Keys are [`StudyQuery::fingerprint`] values; values are canonical
/// [`render_result`] text, so a hit hands back the exact bytes a
/// recomputation would render. Eviction is strict LRU over a global
/// recency tick (ties are impossible — every touch bumps the tick), so
/// eviction order is deterministic given the operation sequence.
#[derive(Debug)]
pub struct ResultCache {
    budget: usize,
    entries: HashMap<u64, CacheEntry>,
    /// Quarantine tombstones: keys whose entry failed its CRC. The next
    /// insert over a tombstone is a *repair* — by construction
    /// bit-identical to a cold recompute, because the inserted text is
    /// the canonical rendering and the rotted copy was never served.
    quarantined: HashSet<u64>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    quarantined_total: u64,
    repaired: u64,
    scrub_passes: u64,
}

impl ResultCache {
    /// An empty cache holding at most `budget` bytes of entries.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        ResultCache {
            budget,
            entries: HashMap::new(),
            quarantined: HashSet::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            quarantined_total: 0,
            repaired: 0,
            scrub_passes: 0,
        }
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently charged against the budget.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lookups that found an entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to stay under budget.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries quarantined after failing their CRC (on read or during a
    /// scrub pass).
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined_total
    }

    /// Quarantined keys later repaired by a fresh insert.
    #[must_use]
    pub fn repaired(&self) -> u64 {
        self.repaired
    }

    /// Completed scrub passes.
    #[must_use]
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes
    }

    /// Looks up `key`, bumping its recency on a hit. Counts the outcome
    /// in the metric registry and trace ring ([`TraceEventKind::CacheHit`]
    /// / [`TraceEventKind::CacheMiss`]).
    ///
    /// Every hit re-verifies the entry's CRC first. A rotted entry is
    /// **never served**: it is quarantined (removed, its key
    /// tombstoned) and the lookup counts as a miss, so the caller
    /// recomputes — and the recompute's insert repairs the entry with
    /// bytes bit-identical to a cold compute.
    pub fn get(&mut self, key: u64) -> Option<String> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) if entry.intact() => {
                entry.last_used = self.tick;
                self.hits += 1;
                yac_obs::inc(Metric::ResultCacheHits);
                yac_obs::trace_instant(TraceEventKind::CacheHit, TraceCtx::default());
                return Some(String::from_utf8_lossy(&entry.record).into_owned());
            }
            Some(_) => self.quarantine_entry(key),
            None => {}
        }
        self.misses += 1;
        yac_obs::inc(Metric::ResultCacheMisses);
        yac_obs::trace_instant(TraceEventKind::CacheMiss, TraceCtx::default());
        None
    }

    /// Removes a CRC-failing entry and tombstones its key (metric
    /// `entries_quarantined`, trace `EntryQuarantined`).
    fn quarantine_entry(&mut self, key: u64) {
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= entry_bytes(&old.record);
            self.quarantined.insert(key);
            self.quarantined_total += 1;
            yac_obs::inc(Metric::EntriesQuarantined);
            yac_obs::trace_instant(TraceEventKind::EntryQuarantined, TraceCtx::default());
        }
    }

    /// Re-verifies every entry's CRC, quarantining the failures. Returns
    /// how many entries were quarantined this pass. Counted in
    /// `scrub_passes` / [`Metric::ScrubPasses`] and traced as
    /// [`TraceEventKind::ScrubPass`].
    pub fn scrub(&mut self) -> usize {
        let rotted: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, entry)| !entry.intact())
            .map(|(key, _)| *key)
            .collect();
        for key in &rotted {
            self.quarantine_entry(*key);
        }
        self.scrub_passes += 1;
        yac_obs::inc(Metric::ScrubPasses);
        yac_obs::trace_instant(TraceEventKind::ScrubPass, TraceCtx::default());
        rotted.len()
    }

    /// Re-verifies a persisted `YAC-CACHE` file's line CRCs and, when any
    /// line has rotted, rewrites the whole file from the in-memory cache
    /// (whose own rotted entries [`ResultCache::save`] skips). Each
    /// rotted line counts as one quarantine and — once the rewrite lands
    /// — one repair. Returns how many lines had rotted.
    ///
    /// A missing or unreadable file is left alone: persistence is an
    /// optimisation, and load-time strictness already refuses corrupt
    /// files wholesale.
    pub fn scrub_file(&mut self, path: &Path) -> usize {
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0;
        };
        let rotted = text
            .lines()
            .filter(|line| check_crc_line(line).is_none())
            .count();
        if rotted == 0 {
            return 0;
        }
        self.quarantined_total += rotted as u64;
        for _ in 0..rotted {
            yac_obs::inc(Metric::EntriesQuarantined);
            yac_obs::trace_instant(TraceEventKind::EntryQuarantined, TraceCtx::default());
        }
        if self.save(path).is_ok() {
            self.repaired += rotted as u64;
            for _ in 0..rotted {
                yac_obs::inc(Metric::EntriesRepaired);
                yac_obs::trace_instant(TraceEventKind::EntryRepaired, TraceCtx::default());
            }
        }
        rotted
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used
    /// entries until the budget holds. Returns `false` — caching
    /// nothing — when the record alone exceeds the whole budget.
    ///
    /// The entry's CRC is captured from `record` *before* the stored
    /// copy can rot (the chaos layer's `mem_rate` corruption is applied
    /// to the stored bytes only). An insert over a quarantined key is a
    /// **repair**: the tombstone clears and the repair is counted
    /// ([`Metric::EntriesRepaired`], trace `EntryRepaired`) — the new
    /// text is canonical, so the repaired entry is bit-identical to a
    /// cold recompute.
    pub fn insert(&mut self, key: u64, record: String) -> bool {
        let crc = crc32(record.as_bytes());
        let mut bytes = record.into_bytes();
        let size = entry_bytes(&bytes);
        if size > self.budget {
            return false;
        }
        if self.quarantined.remove(&key) {
            self.repaired += 1;
            yac_obs::inc(Metric::EntriesRepaired);
            yac_obs::trace_instant(TraceEventKind::EntryRepaired, TraceCtx::default());
        }
        // Injected memory rot (deterministic, keyed by the entry) lands
        // on the stored copy only — the CRC above still describes the
        // canonical bytes, which is exactly what makes the rot visible.
        let _ = crate::chaos::corrupt_cache_entry(key, &mut bytes);
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                record: bytes,
                crc,
                last_used: self.tick,
            },
        ) {
            self.bytes -= entry_bytes(&old.record);
        }
        self.bytes += size;
        while self.bytes > self.budget {
            self.evict_lru();
        }
        true
    }

    /// Removes the least-recently-used entry. The just-inserted entry
    /// holds the maximum tick, so it is only ever the victim when it is
    /// the sole entry — excluded by the `size > budget` refusal above.
    fn evict_lru(&mut self) {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        else {
            return;
        };
        if let Some(old) = self.entries.remove(&victim) {
            self.bytes -= entry_bytes(&old.record);
            self.evictions += 1;
            yac_obs::inc(Metric::ResultCacheEvictions);
        }
    }

    fn io_err(path: &Path, e: io::Error) -> StudyError {
        StudyError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// Persists the cache to `path` in `YAC-CACHE v1` format: CRC-trailed
    /// lines, entries in ascending recency so a load replays them in LRU
    /// order. One full rewrite through the chaos layer
    /// ([`IoSite::CacheFile`]), fsynced file and parent.
    ///
    /// Entries that fail their own CRC are silently skipped: persisting
    /// a rotted record would either poison the file's strict load (a
    /// malformed record refuses the *whole* cache) or — worse — launder
    /// the rot under a fresh line CRC. The scrubber quarantines them in
    /// memory on its next pass.
    ///
    /// # Errors
    ///
    /// Returns [`StudyError::Io`] when the write fails (including
    /// injected chaos faults).
    pub fn save(&self, path: &Path) -> Result<(), StudyError> {
        let mut ordered: Vec<(&u64, &CacheEntry)> = self.entries.iter().collect();
        ordered.sort_by_key(|(_, e)| e.last_used);
        let mut text = crc_line(CACHE_MAGIC);
        for (key, entry) in ordered {
            if !entry.intact() {
                continue;
            }
            let record = String::from_utf8_lossy(&entry.record);
            text.push_str(&crc_line(&format!("E {key:016x} {record}")));
        }
        intercept_write(IoSite::CacheFile, path, text.as_bytes(), |bytes| {
            let mut f = std::fs::File::create(path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fsync_parent(path)
        })
        .map_err(|e| Self::io_err(path, e))
    }

    /// Loads a cache persisted by [`ResultCache::save`]. `Ok(None)` when
    /// no file exists (a cold start). Unlike the append-only sweep
    /// journal, the cache file is rewritten whole, so *any* CRC failure
    /// — torn tail included — is refused as corrupt; the caller discards
    /// the file and starts cold.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] when the file cannot be read;
    /// [`StudyError::Corrupt`] for CRC failures, a bad magic or
    /// malformed entry lines.
    pub fn load(path: &Path, budget: usize) -> Result<Option<ResultCache>, StudyError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Self::io_err(path, e)),
        };
        let mut cache = ResultCache::new(budget);
        for (lineno, line) in text.lines().enumerate() {
            let line_number = lineno + 1;
            let corrupt = |what: String| StudyError::Corrupt {
                line: line_number,
                what,
            };
            let Some(body) = check_crc_line(line) else {
                return Err(corrupt("cache line fails its CRC".into()));
            };
            if line_number == 1 {
                if body != CACHE_MAGIC {
                    return Err(corrupt(format!("bad cache magic {body:?}")));
                }
                continue;
            }
            let rest = body
                .strip_prefix("E ")
                .ok_or_else(|| corrupt(format!("unknown cache record {body:?}")))?;
            let (key_hex, record) = rest
                .split_once(' ')
                .ok_or_else(|| corrupt("cache entry missing record".into()))?;
            let key = u64::from_str_radix(key_hex, 16)
                .map_err(|_| corrupt(format!("bad cache key {key_hex:?}")))?;
            // Parse and re-render: refuses malformed records and pins the
            // stored text to the canonical rendering.
            let result = parse_result(record, line_number)?;
            cache.insert(key, render_result(&result));
        }
        if text.is_empty() {
            return Err(StudyError::Corrupt {
                line: 1,
                what: "cache file is empty (missing magic)".into(),
            });
        }
        Ok(Some(cache))
    }

    /// Warms the cache from a completed sweep journal: every `Completed`
    /// study record is re-rendered and inserted under its cell's
    /// [`StudyQuery::fingerprint`]. Degraded records are skipped (the
    /// service never caches partial results) and fault-injected sweeps
    /// are refused — service queries are fault-free cells, so their keys
    /// must never map to fault-shaped results. Returns how many entries
    /// were inserted.
    ///
    /// # Errors
    ///
    /// [`StudyError::Io`] when the journal cannot be read,
    /// [`StudyError::Corrupt`] when it fails its own CRC discipline, and
    /// [`StudyError::Mismatch`] when its grid fingerprint disagrees with
    /// `grid`/`config` or the config injects faults.
    pub fn warm_from_journal(
        &mut self,
        grid: &SweepGrid,
        config: &SweepConfig,
        path: &Path,
    ) -> Result<usize, StudyError> {
        if config.faults.is_some() {
            return Err(StudyError::Mismatch(
                "fault-injected sweeps cannot warm the service cache: \
                 queries denote fault-free cells"
                    .into(),
            ));
        }
        let text = std::fs::read_to_string(path).map_err(|e| Self::io_err(path, e))?;
        let Some(journal) = parse_journal(&text)? else {
            return Ok(0); // Headerless journal: nothing durable to warm from.
        };
        let specs = grid.studies();
        let fingerprint = grid.fingerprint(config);
        if journal.grid_hash != fingerprint || journal.studies != specs.len() {
            return Err(StudyError::Mismatch(format!(
                "sweep journal belongs to a different grid \
                 (journal {:016x}/{} studies, this grid {:016x}/{})",
                journal.grid_hash,
                journal.studies,
                fingerprint,
                specs.len()
            )));
        }
        let mut warmed = 0;
        for (index, status) in &journal.terminal {
            if let StudyStatus::Completed(result) = status {
                let query = StudyQuery::from_spec(grid, config, &specs[*index]);
                if self.insert(query.fingerprint(), render_result(result)) {
                    warmed += 1;
                }
            }
        }
        Ok(warmed)
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// Tuning for a [`SweepService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor tuning for query computation. `exec.workers` sizes the
    /// work-stealing pool; the retry/backoff/deadline/fault knobs apply
    /// to every query's shards.
    pub exec: ExecutorConfig,
    /// Queries computing at once; the next miss is refused with
    /// [`ServiceReply::Busy`]. Clamped to at least 1.
    pub max_inflight: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Connections served at once; the excess connection gets a
    /// best-effort [`ServiceReply::Busy`] and is closed. Clamped to at
    /// least 1.
    pub max_conns: usize,
    /// Once a frame's first byte arrives, the rest must follow within
    /// this window or the peer is evicted as a slow client.
    pub read_deadline: Duration,
    /// A reply frame must drain to the peer within this window or the
    /// peer is evicted.
    pub write_deadline: Duration,
    /// The backoff hint carried by every [`ServiceReply::Busy`] (and
    /// [`ServiceReply::Retryable`]).
    pub retry_after_ms: u64,
    /// How long a pool lane may hold a shard without one heartbeat
    /// before the stall sentinel escalates (cancel → reassign →
    /// degrade). `None` disables the sentinel.
    pub heartbeat_budget: Option<Duration>,
    /// How often the background scrubber re-verifies cache-entry CRCs.
    /// `None` disables the scrubber thread (scrubs still happen on every
    /// read, and [`SweepService::scrub_now`] runs one on demand).
    pub scrub_interval: Option<Duration>,
    /// A persisted `YAC-CACHE` file for the scrubber to re-verify (and
    /// rewrite from memory when a line has rotted). `None` scrubs only
    /// the in-memory entries.
    pub scrub_file: Option<PathBuf>,
    /// How many times a stalled shard is reassigned to a fresh worker
    /// before the service records it degraded instead.
    pub max_reassigns: u32,
}

impl Default for ServiceConfig {
    /// Default executor, two queries in flight, an 8 MiB cache, 64
    /// connections, two-second frame deadlines, a 200 ms retry hint, a
    /// two-second heartbeat budget, five-second scrub passes, one
    /// reassignment per stalled shard.
    fn default() -> Self {
        ServiceConfig {
            exec: ExecutorConfig::default(),
            max_inflight: 2,
            cache_bytes: 8 << 20,
            max_conns: 64,
            read_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            heartbeat_budget: Some(Duration::from_secs(2)),
            scrub_interval: Some(Duration::from_secs(5)),
            scrub_file: None,
            max_reassigns: 1,
        }
    }
}

/// The `retry_after_ms` a client assumes when a `busy` reply omits the
/// field (a pre-hint server); also the default hint servers send.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 200;

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries received (any outcome).
    pub queries: u64,
    /// Queries answered with a result (cached or computed).
    pub served: u64,
    /// Queries refused with [`ServiceReply::Busy`].
    pub busy: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Bytes currently charged against the cache budget.
    pub cache_bytes: usize,
    /// Tasks stolen between pool workers.
    pub stolen: u64,
    /// Queries computing right now.
    pub inflight: usize,
    /// The admission limit.
    pub limit: usize,
    /// Slow clients evicted for stalling mid-frame.
    pub evicted: u64,
    /// Connections refused at the connection cap.
    pub rejected: u64,
    /// Whether the service is draining (refusing new queries).
    pub draining: bool,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
    /// Stalled shards reassigned to a fresh worker.
    pub reassigned: u64,
    /// Times the worker pool was rebuilt after poisoning.
    pub pool_restarts: u64,
}

/// A point-in-time liveness report, answering [`ServiceRequest::Health`].
///
/// Where [`ServiceStats`] counts *traffic*, this reports *self-healing*:
/// lane liveness, the escalation ladder's counters, scrub activity and
/// pool rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the service was built.
    pub uptime_ms: u64,
    /// Queries computing right now.
    pub inflight: usize,
    /// Heartbeat lanes (one per pool worker).
    pub lanes: usize,
    /// Lanes currently holding a shard lease.
    pub lanes_busy: usize,
    /// Lanes past a missed heartbeat without recovering (cancelled or
    /// truly wedged), as of the sentinel's last poll.
    pub lanes_stalled: u64,
    /// Lease cancels issued for missed heartbeats.
    pub heartbeats_missed: u64,
    /// Stalled shards reassigned to a fresh worker.
    pub shards_reassigned: u64,
    /// Completed cache scrub passes.
    pub scrub_passes: u64,
    /// Cache entries quarantined after failing their CRC.
    pub quarantined: u64,
    /// Quarantined entries repaired by a fresh insert.
    pub repaired: u64,
    /// Queries answered with a degraded (shards-missing) result.
    pub degraded: u64,
    /// Times the worker pool was rebuilt after poisoning.
    pub pool_restarts: u64,
}

/// A request a client can put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Compute (or fetch from cache) one study.
    Query {
        /// The study to compute or fetch.
        query: StudyQuery,
        /// Give up after this many milliseconds: the server arms a
        /// watchdog that raises the query's cancel flag and answers
        /// [`ServiceReply::Deadline`]. Deliberately *not* part of
        /// [`StudyQuery`] — it shapes scheduling, not the result, so it
        /// must not move the cache key.
        deadline_ms: Option<u64>,
    },
    /// Report service counters.
    Stats,
    /// Report liveness: uptime, lane health, scrub and self-healing
    /// counters.
    Health,
    /// Finish in-flight queries, refuse new ones, then exit the serve
    /// loop.
    Drain,
    /// Shut the service down cleanly.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// The study's canonical record text.
    Result {
        /// Canonical [`render_result`] text — exactly the cached bytes.
        record: String,
        /// The query's fingerprint (the cache key).
        key: u64,
        /// Whether the record came from the cache.
        cached: bool,
    },
    /// The service is saturated; retry later. Backpressure is typed,
    /// never an unbounded queue.
    Busy {
        /// Queries computing when the refusal was made.
        inflight: usize,
        /// The admission limit.
        limit: usize,
        /// How long the server suggests waiting before retrying. Absent
        /// on the wire from older servers; clients assume
        /// [`DEFAULT_RETRY_AFTER_MS`].
        retry_after_ms: u64,
    },
    /// The service is draining: in-flight queries finish, new ones are
    /// refused, and the serve loop exits once the last completes.
    Draining {
        /// Queries still computing when the refusal was made.
        inflight: usize,
    },
    /// The query's `deadline_ms` expired before it finished; its shards
    /// were cancelled cooperatively.
    Deadline {
        /// Milliseconds the query ran before the deadline fired.
        elapsed_ms: u64,
    },
    /// The query's client disconnected mid-computation.
    Cancelled,
    /// The query was lost to a fault the service has already healed
    /// (worker-pool poisoning mid-computation): the same request will
    /// succeed on a fresh attempt. Unlike [`ServiceReply::Error`] this
    /// is explicitly *transient* — resilient clients retry it like
    /// [`ServiceReply::Busy`], without a breaker penalty.
    Retryable {
        /// How long the server suggests waiting before retrying.
        retry_after_ms: u64,
    },
    /// The query could not be answered.
    Error {
        /// One-line diagnostic.
        message: String,
    },
    /// Service counters, answering [`ServiceRequest::Stats`].
    Stats(ServiceStats),
    /// Liveness report, answering [`ServiceRequest::Health`].
    Health(HealthReport),
    /// Acknowledges [`ServiceRequest::Shutdown`].
    Bye,
}

/// Everything one query's shard tasks share.
#[derive(Debug)]
struct QueryJob {
    mc: MonteCarlo,
    pop: PopulationConfig,
    exec: ExecutorConfig,
    cancel: Arc<AtomicBool>,
}

/// A computing query, registered so the stall sentinel's handler can
/// reassign (or degrade) its stalled shards from outside the collector.
#[derive(Debug)]
struct ActiveJob {
    job: Arc<QueryJob>,
    specs: Vec<ShardSpec>,
    /// A clone of the query's result channel. Held here until the
    /// collector deregisters the job, which also keeps the channel open
    /// while reassignment is still possible.
    tx: mpsc::Sender<Option<ShardMsg>>,
    /// Stalled-shard reassignments already spent on this query.
    reassigns: u32,
}

/// The live query table the sentinel handler works against.
type JobTable = Arc<Mutex<HashMap<u64, ActiveJob>>>;

/// Shard tags pack the owning job and the shard index into the lease's
/// `shard` word: low 20 bits the shard index, the rest the job id.
const SHARD_TAG_BITS: u32 = 20;

fn shard_tag(job_id: u64, index: usize) -> u64 {
    (job_id << SHARD_TAG_BITS) | (index as u64 & ((1 << SHARD_TAG_BITS) - 1))
}

fn lock_jobs(jobs: &JobTable) -> std::sync::MutexGuard<'_, HashMap<u64, ActiveJob>> {
    jobs.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_opt<T>(slot: &Mutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Submits one shard of a job to the pool: the task takes a heartbeat
/// lease tagged with the job+shard, beats once per chip, and reports on
/// `tx`. Used by the collector for the initial fan-out and by the stall
/// sentinel's handler for reassignment — both paths are byte-identical
/// compute.
fn submit_shard(
    pool: &RwLock<StealPool>,
    registry: &Arc<HeartbeatRegistry>,
    job: Arc<QueryJob>,
    job_id: u64,
    spec: ShardSpec,
    tx: mpsc::Sender<Option<ShardMsg>>,
) {
    let registry = Arc::clone(registry);
    pool.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .submit(Box::new(move |worker| {
            if job.cancel.load(Ordering::Relaxed) {
                let _ = tx.send(None);
                return;
            }
            let lease = registry.begin(worker, shard_tag(job_id, spec.index));
            let lane = WorkerLane::served(worker as u32, &job.cancel, &lease);
            let msg = run_shard(&job.mc, &job.pop, &job.exec, spec, &lane);
            match msg {
                Some(msg) => {
                    let _ = tx.send(Some(msg));
                }
                // `None` with the query's cancel flag up means the query
                // is being discarded: tell the collector. `None` with a
                // cancelled *lease* means the sentinel reassigned this
                // shard to a fresh worker — report nothing; the
                // reassigned attempt owns the shard now.
                None => {
                    if job.cancel.load(Ordering::Relaxed) {
                        let _ = tx.send(None);
                    }
                }
            }
        }));
}

/// Sentinel escalation policy (steps two and three of the ladder —
/// step one, the cooperative cancel, already ran in the sentinel): move
/// the stalled shard to a fresh worker while the reassign budget lasts,
/// then record it honestly degraded.
fn handle_stall(
    event: StallEvent,
    jobs: &JobTable,
    pool: &RwLock<StealPool>,
    registry: &Arc<HeartbeatRegistry>,
    hb_missed: &AtomicU64,
    reassigned: &AtomicU64,
    max_reassigns: u32,
) {
    let StallEvent::Missed { shard: tag, .. } = event else {
        return; // Wedged lanes are reported via health, nothing to move.
    };
    hb_missed.fetch_add(1, Ordering::Relaxed);
    let job_id = tag >> SHARD_TAG_BITS;
    let index = (tag & ((1 << SHARD_TAG_BITS) - 1)) as usize;
    let mut table = lock_jobs(jobs);
    let Some(active) = table.get_mut(&job_id) else {
        return; // The query already finished (or was discarded).
    };
    if active.job.cancel.load(Ordering::Relaxed) {
        return;
    }
    let Some(spec) = active.specs.iter().find(|s| s.index == index).copied() else {
        return;
    };
    if active.reassigns >= max_reassigns {
        // Ladder step three: the reassign budget is spent — report the
        // shard degraded so the query completes honestly without it.
        yac_obs::inc(Metric::DegradedShards);
        yac_obs::trace_instant(
            TraceEventKind::ShardDegraded,
            TraceCtx::shard(u32::MAX, spec.index as u32, active.reassigns),
        );
        let _ = active.tx.send(Some(ShardMsg::Degraded {
            spec,
            attempts: active.reassigns + 1,
            error: format!(
                "shard {} stalled (no heartbeat) and exhausted its {} reassignment(s)",
                spec.index, max_reassigns
            ),
        }));
        return;
    }
    active.reassigns += 1;
    let job = Arc::clone(&active.job);
    let tx = active.tx.clone();
    drop(table);
    reassigned.fetch_add(1, Ordering::Relaxed);
    yac_obs::inc(Metric::ShardsReassigned);
    yac_obs::trace_instant(
        TraceEventKind::ShardReassigned,
        TraceCtx {
            shard: Some(spec.index as u32),
            ..TraceCtx::default()
        },
    );
    submit_shard(pool, registry, job, job_id, spec, tx);
}

/// The background cache scrubber: a low-priority thread re-verifying
/// entry CRCs every interval (plus the persisted cache file, when
/// configured). Stops promptly on signal; also stopped by drop.
struct Scrubber {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scrubber").finish_non_exhaustive()
    }
}

impl Scrubber {
    fn spawn(cache: Arc<Mutex<ResultCache>>, interval: Duration, file: Option<PathBuf>) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("svc-scrubber".into())
                .spawn(move || loop {
                    let (lock, cv) = &*stop;
                    let guard = lock
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let (guard, _) = cv
                        .wait_timeout_while(guard, interval.max(Duration::from_millis(1)), |s| !*s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if *guard {
                        return;
                    }
                    drop(guard);
                    scrub_pass(&cache, file.as_deref());
                })
                .ok()
        };
        Scrubber { stop, handle }
    }

    fn halt(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One scrub pass: in-memory CRC sweep, then the persisted file (two
/// short lock holds, so queries are never blocked for long).
fn scrub_pass(cache: &Mutex<ResultCache>, file: Option<&Path>) {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .scrub();
    if let Some(path) = file {
        cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .scrub_file(path);
    }
}

/// RAII decrement of the inflight gauge. Dropping also unparks the
/// serve loop — a draining service exits the moment the last in-flight
/// query completes instead of waiting out a poll tick.
struct InflightSlot<'a>(&'a SweepService);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
        self.0.unpark();
    }
}

/// The long-lived sweep service: a work-stealing pool, a result cache
/// and bounded admission. See the module docs for the architecture.
#[derive(Debug)]
pub struct SweepService {
    config: ServiceConfig,
    /// The worker pool, behind a lock so a poisoned pool can be rebuilt
    /// in place ([`SweepService::heal_pool`]) while queries keep
    /// submitting through read guards.
    pool: Arc<RwLock<StealPool>>,
    registry: Arc<HeartbeatRegistry>,
    sentinel: Mutex<Option<StallSentinel>>,
    scrubber: Mutex<Option<Scrubber>>,
    jobs: JobTable,
    next_job: AtomicU64,
    started: Instant,
    cache: Arc<Mutex<ResultCache>>,
    inflight: AtomicUsize,
    queries: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    evicted: AtomicU64,
    rejected: AtomicU64,
    hb_missed: Arc<AtomicU64>,
    reassigned: Arc<AtomicU64>,
    degraded: AtomicU64,
    pool_restarts: AtomicU64,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Parks the serve loop between accepts. The mutex guards nothing
    /// but the wait itself: wake conditions are re-checked under it in
    /// [`SweepService::park`], and every signal site takes it in
    /// [`SweepService::unpark`] before notifying, so a wakeup raced
    /// against the pre-wait check cannot be lost.
    parker: (Mutex<()>, Condvar),
}

impl SweepService {
    /// Builds a service: spawns `config.exec.workers` pool workers, an
    /// empty cache of `config.cache_bytes`, the stall sentinel (when
    /// `config.heartbeat_budget` is set) and the cache scrubber (when
    /// `config.scrub_interval` is set).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let cache = Arc::new(Mutex::new(ResultCache::new(config.cache_bytes)));
        let pool = Arc::new(RwLock::new(StealPool::new(config.exec.workers)));
        let registry = Arc::new(HeartbeatRegistry::new(config.exec.workers.max(1)));
        let jobs: JobTable = Arc::new(Mutex::new(HashMap::new()));
        let hb_missed = Arc::new(AtomicU64::new(0));
        let reassigned = Arc::new(AtomicU64::new(0));
        let sentinel = config.heartbeat_budget.map(|budget| {
            let jobs = Arc::clone(&jobs);
            let pool = Arc::clone(&pool);
            let handler_registry = Arc::clone(&registry);
            let hb_missed = Arc::clone(&hb_missed);
            let reassigned = Arc::clone(&reassigned);
            let max_reassigns = config.max_reassigns;
            StallSentinel::spawn(
                Arc::clone(&registry),
                HealthConfig::with_budget(budget),
                move |event| {
                    handle_stall(
                        event,
                        &jobs,
                        &pool,
                        &handler_registry,
                        &hb_missed,
                        &reassigned,
                        max_reassigns,
                    );
                },
            )
        });
        let scrubber = config.scrub_interval.map(|interval| {
            Scrubber::spawn(Arc::clone(&cache), interval, config.scrub_file.clone())
        });
        SweepService {
            config,
            pool,
            registry,
            sentinel: Mutex::new(sentinel),
            scrubber: Mutex::new(scrubber),
            jobs,
            next_job: AtomicU64::new(1),
            started: Instant::now(),
            cache,
            inflight: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            served: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            hb_missed,
            reassigned,
            degraded: AtomicU64::new(0),
            pool_restarts: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            parker: (Mutex::new(()), Condvar::new()),
        }
    }

    /// The service's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Queries computing right now.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Runs `f` against the result cache (for warm-start, persistence
    /// and inspection). The lock is held for the duration of `f`; keep
    /// it short — queries block on the same lock for hit checks.
    pub fn with_cache<R>(&self, f: impl FnOnce(&mut ResultCache) -> R) -> R {
        f(&mut self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Asks the serve loop (and idle connection handlers) to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.unpark();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts draining: in-flight queries finish, new ones are answered
    /// with [`ServiceReply::Draining`], and the serve loop exits once
    /// the last in-flight query completes.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.unpark();
    }

    /// Whether the service is draining.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Counts a slow-client eviction (metric, trace and stats).
    pub fn note_evicted(&self) {
        self.evicted.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::SlowClientsEvicted);
        yac_obs::trace_instant(TraceEventKind::SlowClientEvicted, TraceCtx::default());
    }

    /// Counts a connection refused at the cap (metric, trace and stats).
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::ConnsRejected);
        yac_obs::trace_instant(TraceEventKind::ConnRejected, TraceCtx::default());
    }

    /// Whether the serve loop has a reason to wake right now.
    fn wake_now(&self) -> bool {
        self.shutdown_requested() || (self.draining() && self.inflight() == 0)
    }

    /// Parks the calling thread until [`SweepService::unpark`] or
    /// `timeout`, whichever comes first. The wake condition is
    /// re-checked under the parker lock before waiting, and signal
    /// sites notify under the same lock, so a signal raised between the
    /// caller's own check and this wait still wakes it immediately.
    fn park(&self, timeout: Duration) {
        let (lock, cv) = &self.parker;
        let guard = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.wake_now() {
            return;
        }
        let _ = cv.wait_timeout(guard, timeout);
    }

    /// Wakes a parked serve loop (shutdown, drain, or a freed inflight
    /// slot the drain logic may be waiting on).
    fn unpark(&self) {
        let (lock, cv) = &self.parker;
        drop(
            lock.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        cv.notify_all();
    }

    /// Stops the sentinel and scrubber, then joins the worker pool. Call
    /// after the serve loop has exited.
    pub fn shutdown(self) {
        // Stop the sentinel first: its handler holds pool/jobs clones,
        // and no reassignment should race the teardown.
        if let Some(sentinel) = lock_opt(&self.sentinel).take() {
            sentinel.stop();
        }
        if let Some(mut scrubber) = lock_opt(&self.scrubber).take() {
            scrubber.halt();
        }
        if let Ok(pool) = Arc::try_unwrap(self.pool) {
            pool.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .shutdown();
        }
    }

    /// Runs one synchronous scrub pass (in-memory entries plus the
    /// configured persisted file) — what the background scrubber does
    /// every [`ServiceConfig::scrub_interval`].
    pub fn scrub_now(&self) {
        scrub_pass(&self.cache, self.config.scrub_file.as_deref());
    }

    /// Rebuilds the worker pool in place when a panicking task has
    /// killed one of its workers. Queued tasks of *other* queries drain
    /// onto the old pool's surviving workers before it is torn down;
    /// tasks lost with the dead worker surface as
    /// [`ServiceReply::Retryable`] through their collectors. Returns
    /// whether a rebuild happened (counted in [`Metric::PoolRestarts`],
    /// traced as [`TraceEventKind::PoolRestarted`]).
    pub fn heal_pool(&self) -> bool {
        let dead = self
            .pool
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .dead_workers();
        if dead == 0 {
            return false;
        }
        let old = {
            let mut guard = self
                .pool
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if guard.dead_workers() == 0 {
                return false; // Another query healed it first.
            }
            std::mem::replace(&mut *guard, StealPool::new(self.config.exec.workers))
        };
        // Joined outside the lock so fresh submissions are never blocked
        // on the old pool draining.
        old.shutdown();
        self.pool_restarts.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::PoolRestarts);
        yac_obs::trace_instant(TraceEventKind::PoolRestarted, TraceCtx::default());
        true
    }

    /// A snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let stolen = self
            .pool
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .stolen();
        self.with_cache(|cache| ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            cache_entries: cache.len(),
            cache_bytes: cache.bytes(),
            stolen,
            inflight: self.inflight.load(Ordering::Acquire),
            limit: self.config.max_inflight.max(1),
            evicted: self.evicted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            draining: self.draining(),
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
            reassigned: self.reassigned.load(Ordering::Relaxed),
            pool_restarts: self.pool_restarts.load(Ordering::Relaxed),
        })
    }

    /// A point-in-time liveness report (the `health` wire op).
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let lanes_stalled = lock_opt(&self.sentinel)
            .as_ref()
            .map_or(0, StallSentinel::stalled_lanes);
        self.with_cache(|cache| HealthReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            inflight: self.inflight.load(Ordering::Acquire),
            lanes: self.registry.lanes(),
            lanes_busy: self.registry.busy(),
            lanes_stalled,
            heartbeats_missed: self.hb_missed.load(Ordering::Relaxed),
            shards_reassigned: self.reassigned.load(Ordering::Relaxed),
            scrub_passes: cache.scrub_passes(),
            quarantined: cache.quarantined(),
            repaired: cache.repaired(),
            degraded: self.degraded.load(Ordering::Relaxed),
            pool_restarts: self.pool_restarts.load(Ordering::Relaxed),
        })
    }

    /// Answers one query: cache first, then bounded admission, then
    /// supervised computation on the stealing pool. `cancel` is the
    /// query's cooperative abort flag — raise it (the connection handler
    /// does, on client disconnect) and the computation stops between
    /// chips and answers [`ServiceReply::Cancelled`].
    ///
    /// Cache hits bypass admission by design: a saturated service keeps
    /// answering the cheap queries.
    pub fn query(&self, query: &StudyQuery, cancel: &Arc<AtomicBool>) -> ServiceReply {
        self.queries.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::QueriesReceived);
        yac_obs::trace_instant(TraceEventKind::QueryReceived, TraceCtx::default());
        if query.chips == 0 {
            return ServiceReply::Error {
                message: "query asks for zero chips".into(),
            };
        }
        if self.draining() {
            yac_obs::inc(Metric::QueriesDraining);
            return ServiceReply::Draining {
                inflight: self.inflight(),
            };
        }
        let key = query.fingerprint();
        if let Some(record) = self.with_cache(|cache| cache.get(key)) {
            return self.served(ServiceReply::Result {
                record,
                key,
                cached: true,
            });
        }
        let limit = self.config.max_inflight.max(1);
        if !self.try_admit(limit) {
            self.busy.fetch_add(1, Ordering::Relaxed);
            yac_obs::inc(Metric::QueriesBusy);
            return ServiceReply::Busy {
                inflight: self.inflight.load(Ordering::Acquire),
                limit,
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        let _slot = InflightSlot(self);
        let _span = yac_obs::phase_ctx(Phase::QueryExec, TraceCtx::default());
        // A pool poisoned by an earlier query is rebuilt before this one
        // fans out, so the damage never outlives the query that saw it.
        self.heal_pool();
        let reply = self.compute(query, key, cancel);
        match reply {
            ServiceReply::Result { .. } => self.served(reply),
            other => other,
        }
    }

    fn served(&self, reply: ServiceReply) -> ServiceReply {
        self.served.fetch_add(1, Ordering::Relaxed);
        yac_obs::inc(Metric::QueriesServed);
        yac_obs::trace_instant(TraceEventKind::QueryServed, TraceCtx::default());
        reply
    }

    fn try_admit(&self, limit: usize) -> bool {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= limit {
                return false;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Computes a missed query on the stealing pool and caches the
    /// record if (and only if) every chip was observed — degraded
    /// results depend on which shards failed, so they are returned but
    /// never cached.
    fn compute(&self, query: &StudyQuery, key: u64, cancel: &Arc<AtomicBool>) -> ServiceReply {
        let mut pop = PopulationConfig::paper(query.seed);
        pop.chips = query.chips;
        let mc = match MonteCarlo::try_new(pop.variation) {
            Ok(mc) => mc,
            Err(e) => {
                return ServiceReply::Error {
                    message: StudyError::Config(e).to_string(),
                }
            }
        };
        let shards = shards_for(query.chips, self.config.exec.shard_chips);
        let job = Arc::new(QueryJob {
            mc,
            pop,
            exec: self.config.exec.clone(),
            cancel: Arc::clone(cancel),
        });
        let (tx, rx) = mpsc::channel::<Option<ShardMsg>>();
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        lock_jobs(&self.jobs).insert(
            job_id,
            ActiveJob {
                job: Arc::clone(&job),
                specs: shards.clone(),
                tx: tx.clone(),
                reassigns: 0,
            },
        );
        for spec in &shards {
            submit_shard(
                &self.pool,
                &self.registry,
                Arc::clone(&job),
                job_id,
                *spec,
                tx.clone(),
            );
        }
        drop(tx);

        // The collector: first report per shard wins (a reassigned shard
        // and its cancelled original may both complete — dedup keeps the
        // result exactly-once), and a periodic timeout checks pool
        // health so a task lost inside a dead worker turns into a typed
        // `Retryable` instead of a hang. The sentinel's reassignments
        // keep the channel open (the job table holds a sender clone)
        // until the job is deregistered below.
        let mut state = CheckpointState::fresh(query.seed, query.chips);
        let mut remaining: HashSet<usize> = shards.iter().map(|s| s.index).collect();
        let mut cancelled = false;
        let mut retryable = false;
        while !remaining.is_empty() {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Some(msg)) => {
                    if remaining.remove(&msg.spec().index) {
                        state.accept(msg);
                    }
                }
                Ok(None) => {
                    cancelled = true;
                    break;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if cancel.load(Ordering::Relaxed) {
                        cancelled = true;
                        break;
                    }
                    if self.heal_pool() {
                        // Shards queued on (or running in) the dead
                        // worker are gone; the pool is already healthy
                        // again, so the same request will succeed.
                        retryable = true;
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        lock_jobs(&self.jobs).remove(&job_id);
        if retryable {
            yac_obs::inc(Metric::QueriesRetryable);
            return ServiceReply::Retryable {
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        if cancelled || cancel.load(Ordering::Relaxed) {
            return ServiceReply::Cancelled;
        }
        if !remaining.is_empty() {
            // Every sender vanished with shards unreported — possible
            // only through a fault the ladder did not cover. Transient
            // by construction: report it as such.
            yac_obs::inc(Metric::QueriesRetryable);
            return ServiceReply::Retryable {
                retry_after_ms: self.config.retry_after_ms,
            };
        }
        let outcome = state.into_outcome(&job.pop);
        match study_result_from_outcome(
            &outcome,
            query.constraint,
            query.kind,
            query.seed,
            query.cpi.as_ref(),
        ) {
            Ok(result) => {
                let record = render_result(&result);
                if result.missing_chips == 0 {
                    self.with_cache(|cache| cache.insert(key, record.clone()));
                } else {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                ServiceReply::Result {
                    record,
                    key,
                    cached: false,
                }
            }
            Err(e) => ServiceReply::Error {
                message: e.to_string(),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Flat JSON encoding
// ---------------------------------------------------------------------
//
// The protocol needs exactly flat objects of scalars, so the codec is
// ~100 lines here instead of a dependency: an escaping writer and a
// recursive-descent parser for one object of string/number/bool/null
// values. Numbers are kept as raw token text until a typed accessor
// parses them, so `u64` seeds survive without an `f64` round trip.

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// One scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
enum JsonScalar {
    Str(String),
    /// Raw number token, parsed on demand by the typed accessors.
    Num(String),
    Bool(bool),
    Null,
}

/// A parsed flat JSON object with typed, diagnostic-bearing accessors.
#[derive(Debug)]
struct FlatObject {
    fields: Vec<(String, JsonScalar)>,
}

impl FlatObject {
    fn get(&self, key: &str) -> Option<&JsonScalar> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(JsonScalar::Str(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(JsonScalar::Num(raw)) => raw
                .parse()
                .map_err(|_| format!("field {key:?} is not an unsigned integer")),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.u64(key).map(|v| v as usize)
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(JsonScalar::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field {key:?} is not a bool")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(_) => self.bool(key).map(Some),
        }
    }
}

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.chars.next_if(|c| c.is_ascii_whitespace()).is_some() {}
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(format!("expected {want:?}, got {c:?}")),
            None => Err(format!("expected {want:?}, got end of input")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .chars
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + digit;
                        }
                        // Surrogates don't appear in our own output;
                        // foreign ones are refused rather than mangled.
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, String> {
        match self.chars.peek() {
            Some('"') => self.string().map(JsonScalar::Str),
            Some('t') => self.literal("true").map(|()| JsonScalar::Bool(true)),
            Some('f') => self.literal("false").map(|()| JsonScalar::Bool(false)),
            Some('n') => self.literal("null").map(|()| JsonScalar::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => {
                let mut raw = String::new();
                while let Some(c) = self
                    .chars
                    .next_if(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                {
                    raw.push(c);
                }
                // Validate the token shape once; integer accessors
                // re-parse the raw text exactly.
                raw.parse::<f64>()
                    .map_err(|_| format!("bad number {raw:?}"))?;
                Ok(JsonScalar::Num(raw))
            }
            Some(c) => Err(format!("unexpected {c:?} (nested values not supported)")),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(())
    }
}

/// Parses one flat JSON object (string/number/bool/null values only).
fn parse_flat_object(text: &str) -> Result<FlatObject, String> {
    let mut p = JsonParser {
        chars: text.chars().peekable(),
    };
    p.skip_ws();
    p.expect('{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.chars.peek() == Some(&'}') {
        p.chars.next();
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(':')?;
            p.skip_ws();
            let value = p.scalar()?;
            fields.push((key, value));
            p.skip_ws();
            match p.chars.next() {
                Some(',') => {}
                Some('}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if let Some(c) = p.chars.next() {
        return Err(format!("trailing {c:?} after object"));
    }
    Ok(FlatObject { fields })
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = std::fmt::Write::write_fmt(out, format_args!("\"{key}\":\""));
    json_escape(out, value);
    out.push('"');
}

impl ServiceRequest {
    /// Renders the request as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceRequest::Query {
                query: q,
                deadline_ms,
            } => {
                let kind = match q.kind {
                    PowerDownKind::Vertical => "vertical",
                    PowerDownKind::Horizontal => "horizontal",
                };
                let mut out = format!(
                    "{{\"op\":\"query\",\"chips\":{},\"seed\":{},\"constraint\":\"{}\",\"kind\":\"{kind}\"",
                    q.chips, q.seed, q.constraint.name
                );
                if let Some(cpi) = &q.cpi {
                    let _ = std::fmt::Write::write_fmt(
                        &mut out,
                        format_args!(
                            ",\"warmup\":{},\"measure\":{}",
                            cpi.warmup_uops, cpi.measure_uops
                        ),
                    );
                }
                if let Some(ms) = deadline_ms {
                    let _ =
                        std::fmt::Write::write_fmt(&mut out, format_args!(",\"deadline_ms\":{ms}"));
                }
                out.push('}');
                out
            }
            ServiceRequest::Stats => "{\"op\":\"stats\"}".to_owned(),
            ServiceRequest::Health => "{\"op\":\"health\"}".to_owned(),
            ServiceRequest::Drain => "{\"op\":\"drain\"}".to_owned(),
            ServiceRequest::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        }
    }

    /// Parses a wire request.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field; the
    /// server sends it back as [`ServiceReply::Error`].
    pub fn parse(text: &str) -> Result<ServiceRequest, String> {
        let obj = parse_flat_object(text)?;
        match obj.str("op")? {
            "stats" => Ok(ServiceRequest::Stats),
            "health" => Ok(ServiceRequest::Health),
            "drain" => Ok(ServiceRequest::Drain),
            "shutdown" => Ok(ServiceRequest::Shutdown),
            "query" => {
                let name = obj.str("constraint")?;
                let constraint = constraint_by_name(name)
                    .ok_or_else(|| format!("unknown constraint {name:?}"))?;
                let kind = match obj.str("kind")? {
                    "vertical" => PowerDownKind::Vertical,
                    "horizontal" => PowerDownKind::Horizontal,
                    other => return Err(format!("unknown kind {other:?}")),
                };
                let cpi = match (obj.opt_u64("warmup")?, obj.opt_u64("measure")?) {
                    (Some(warmup_uops), Some(measure_uops)) => Some(CpiOptions {
                        warmup_uops,
                        measure_uops,
                    }),
                    (None, None) => None,
                    _ => return Err("warmup and measure must be given together".into()),
                };
                Ok(ServiceRequest::Query {
                    query: StudyQuery {
                        chips: obj.usize("chips")?,
                        seed: obj.u64("seed")?,
                        constraint,
                        kind,
                        cpi,
                    },
                    deadline_ms: obj.opt_u64("deadline_ms")?,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl ServiceReply {
    /// Renders the reply as its wire JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            ServiceReply::Result {
                record,
                key,
                cached,
            } => {
                let mut out =
                    format!("{{\"status\":\"ok\",\"cached\":{cached},\"key\":\"{key:016x}\",");
                push_str_field(&mut out, "record", record);
                out.push('}');
                out
            }
            ServiceReply::Busy {
                inflight,
                limit,
                retry_after_ms,
            } => format!(
                "{{\"status\":\"busy\",\"inflight\":{inflight},\"limit\":{limit},\
                 \"retry_after_ms\":{retry_after_ms}}}"
            ),
            ServiceReply::Draining { inflight } => {
                format!("{{\"status\":\"draining\",\"inflight\":{inflight}}}")
            }
            ServiceReply::Deadline { elapsed_ms } => {
                format!("{{\"status\":\"deadline\",\"elapsed_ms\":{elapsed_ms}}}")
            }
            ServiceReply::Cancelled => "{\"status\":\"cancelled\"}".to_owned(),
            ServiceReply::Retryable { retry_after_ms } => {
                format!("{{\"status\":\"retryable\",\"retry_after_ms\":{retry_after_ms}}}")
            }
            ServiceReply::Error { message } => {
                let mut out = "{\"status\":\"error\",".to_owned();
                push_str_field(&mut out, "message", message);
                out.push('}');
                out
            }
            ServiceReply::Stats(s) => format!(
                "{{\"status\":\"stats\",\"queries\":{},\"served\":{},\"busy\":{},\
                 \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
                 \"cache_entries\":{},\"cache_bytes\":{},\"stolen\":{},\
                 \"inflight\":{},\"limit\":{},\"evicted\":{},\"rejected\":{},\
                 \"draining\":{},\"scrub_passes\":{},\"quarantined\":{},\
                 \"repaired\":{},\"reassigned\":{},\"pool_restarts\":{}}}",
                s.queries,
                s.served,
                s.busy,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.cache_entries,
                s.cache_bytes,
                s.stolen,
                s.inflight,
                s.limit,
                s.evicted,
                s.rejected,
                s.draining,
                s.scrub_passes,
                s.quarantined,
                s.repaired,
                s.reassigned,
                s.pool_restarts
            ),
            ServiceReply::Health(h) => format!(
                "{{\"status\":\"health\",\"uptime_ms\":{},\"inflight\":{},\
                 \"lanes\":{},\"lanes_busy\":{},\"lanes_stalled\":{},\
                 \"heartbeats_missed\":{},\"shards_reassigned\":{},\
                 \"scrub_passes\":{},\"quarantined\":{},\"repaired\":{},\
                 \"degraded\":{},\"pool_restarts\":{}}}",
                h.uptime_ms,
                h.inflight,
                h.lanes,
                h.lanes_busy,
                h.lanes_stalled,
                h.heartbeats_missed,
                h.shards_reassigned,
                h.scrub_passes,
                h.quarantined,
                h.repaired,
                h.degraded,
                h.pool_restarts
            ),
            ServiceReply::Bye => "{\"status\":\"bye\"}".to_owned(),
        }
    }

    /// Parses a wire reply.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic naming the malformed field.
    pub fn parse(text: &str) -> Result<ServiceReply, String> {
        let obj = parse_flat_object(text)?;
        match obj.str("status")? {
            "ok" => {
                let key_hex = obj.str("key")?;
                let key =
                    u64::from_str_radix(key_hex, 16).map_err(|_| format!("bad key {key_hex:?}"))?;
                Ok(ServiceReply::Result {
                    record: obj.str("record")?.to_owned(),
                    key,
                    cached: obj.bool("cached")?,
                })
            }
            "busy" => Ok(ServiceReply::Busy {
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Absent from pre-hint servers: assume the default.
                retry_after_ms: obj
                    .opt_u64("retry_after_ms")?
                    .unwrap_or(DEFAULT_RETRY_AFTER_MS),
            }),
            "draining" => Ok(ServiceReply::Draining {
                inflight: obj.usize("inflight")?,
            }),
            "deadline" => Ok(ServiceReply::Deadline {
                elapsed_ms: obj.u64("elapsed_ms")?,
            }),
            "cancelled" => Ok(ServiceReply::Cancelled),
            "retryable" => Ok(ServiceReply::Retryable {
                retry_after_ms: obj
                    .opt_u64("retry_after_ms")?
                    .unwrap_or(DEFAULT_RETRY_AFTER_MS),
            }),
            "error" => Ok(ServiceReply::Error {
                message: obj.str("message")?.to_owned(),
            }),
            "stats" => Ok(ServiceReply::Stats(ServiceStats {
                queries: obj.u64("queries")?,
                served: obj.u64("served")?,
                busy: obj.u64("busy")?,
                cache_hits: obj.u64("cache_hits")?,
                cache_misses: obj.u64("cache_misses")?,
                cache_evictions: obj.u64("cache_evictions")?,
                cache_entries: obj.usize("cache_entries")?,
                cache_bytes: obj.usize("cache_bytes")?,
                stolen: obj.u64("stolen")?,
                inflight: obj.usize("inflight")?,
                limit: obj.usize("limit")?,
                // Hardening-era fields; absent from older servers.
                evicted: obj.opt_u64("evicted")?.unwrap_or(0),
                rejected: obj.opt_u64("rejected")?.unwrap_or(0),
                draining: obj.opt_bool("draining")?.unwrap_or(false),
                // Self-healing-era fields; absent from older servers.
                scrub_passes: obj.opt_u64("scrub_passes")?.unwrap_or(0),
                quarantined: obj.opt_u64("quarantined")?.unwrap_or(0),
                repaired: obj.opt_u64("repaired")?.unwrap_or(0),
                reassigned: obj.opt_u64("reassigned")?.unwrap_or(0),
                pool_restarts: obj.opt_u64("pool_restarts")?.unwrap_or(0),
            })),
            "health" => Ok(ServiceReply::Health(HealthReport {
                uptime_ms: obj.u64("uptime_ms")?,
                inflight: obj.usize("inflight")?,
                lanes: obj.usize("lanes")?,
                lanes_busy: obj.usize("lanes_busy")?,
                lanes_stalled: obj.u64("lanes_stalled")?,
                heartbeats_missed: obj.u64("heartbeats_missed")?,
                shards_reassigned: obj.u64("shards_reassigned")?,
                scrub_passes: obj.u64("scrub_passes")?,
                quarantined: obj.u64("quarantined")?,
                repaired: obj.u64("repaired")?,
                degraded: obj.u64("degraded")?,
                pool_restarts: obj.u64("pool_restarts")?,
            })),
            "bye" => Ok(ServiceReply::Bye),
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Framing and the TCP serve loop
// ---------------------------------------------------------------------

/// Renders the wire image of one frame: big-endian `u32` length,
/// big-endian `u32` CRC-32 of the payload, then the payload.
fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one CRC-checked, length-prefixed frame (big-endian `u32`
/// length, big-endian `u32` payload CRC-32, then the payload) and
/// flushes.
///
/// # Errors
///
/// Propagates the underlying write error; refuses payloads over
/// [`MAX_FRAME`] as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Reads `buf.len()` bytes from a *blocking* reader. `Ok(false)` means
/// clean EOF before the first byte (only honoured when `at_start`).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && at_start => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Diagnoses a frame whose payload fails its CRC.
fn crc_mismatch(want: u32, got: u32) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame payload fails its CRC (header {want:08x}, payload {got:08x})"),
    )
}

/// Reads one CRC-checked, length-prefixed frame from a *blocking*
/// reader. `Ok(None)` means the peer closed the connection cleanly
/// before a frame started.
///
/// The payload buffer grows as bytes actually arrive (in steps of at
/// most 64 KiB), so a hostile header claiming [`MAX_FRAME`] bytes on a
/// connection that then stalls or closes never costs a 16 MiB
/// allocation up front.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the peer closes mid-frame;
/// [`io::ErrorKind::InvalidData`] for frames over [`MAX_FRAME`] or
/// payloads failing their CRC.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_bytes, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_or_eof(r, &mut crc_bytes, false)?;
    let want = u32::from_be_bytes(crc_bytes);
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut chunk = [0u8; 4096];
    while payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        match r.read(&mut chunk[..step]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let got = crc32(&payload);
    if got != want {
        return Err(crc_mismatch(want, got));
    }
    Ok(Some(payload))
}

/// Whether an error is the "no data within the socket timeout" signal.
/// `set_read_timeout` surfaces as either kind depending on platform.
fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// How long connection sockets block per read/write attempt. The kernel
/// parks the thread for up to one tick (`SO_RCVTIMEO`/`SO_SNDTIMEO`),
/// so idling costs no CPU; shutdown and frame deadlines are checked
/// once per tick.
const IO_TICK: Duration = Duration::from_millis(20);

/// One read attempt from a frame loop.
enum FrameIn {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Clean EOF before a frame, or shutdown was requested while idle.
    Closed,
    /// The peer stalled mid-frame past the read deadline: evict it.
    Evicted,
}

/// Reads one frame from a connection socket whose read timeout is
/// [`IO_TICK`]. Idle ticks *between* frames are free — a connected
/// client may stay silent forever — but once the first byte of a frame
/// arrives the rest must follow within `deadline` or the peer is
/// reported as [`FrameIn::Evicted`].
fn read_frame_conn(
    stream: &mut ChaosStream<TcpStream>,
    service: &SweepService,
    deadline: Duration,
) -> io::Result<FrameIn> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    // Header: length then CRC. The eviction clock arms at byte one.
    while filled < 8 {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameIn::Closed),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
            }
            Err(e) if is_would_block(&e) => {
                if filled == 0 {
                    if service.shutdown_requested() {
                        return Ok(FrameIn::Closed);
                    }
                } else if started.is_some_and(|t| t.elapsed() >= deadline) {
                    return Ok(FrameIn::Evicted);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let want = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let armed = started.unwrap_or_else(Instant::now);
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut chunk = [0u8; 4096];
    while payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        match stream.read(&mut chunk[..step]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) if is_would_block(&e) => {
                if armed.elapsed() >= deadline {
                    return Ok(FrameIn::Evicted);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let got = crc32(&payload);
    if got != want {
        return Err(crc_mismatch(want, got));
    }
    Ok(FrameIn::Frame(payload))
}

/// Writes all of `bytes` to a connection socket whose write timeout is
/// [`IO_TICK`], giving up (`TimedOut`) when the peer accepts nothing
/// for `deadline`.
fn write_all_deadline(
    stream: &mut ChaosStream<TcpStream>,
    bytes: &[u8],
    deadline: Duration,
) -> io::Result<()> {
    let started = Instant::now();
    let mut at = 0;
    while at < bytes.len() {
        match stream.write(&bytes[at..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket refused bytes",
                ))
            }
            Ok(n) => at += n,
            Err(e) if is_would_block(&e) => {
                if started.elapsed() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled accepting the reply",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Frames and sends one reply under the service's write deadline. A
/// stalled peer is evicted (counted and traced) and reported as an
/// error so the handler drops the connection.
fn send_reply(
    stream: &mut ChaosStream<TcpStream>,
    service: &SweepService,
    reply: &ServiceReply,
) -> io::Result<()> {
    let frame = frame_bytes(reply.to_json().as_bytes())?;
    match write_all_deadline(stream, &frame, service.config().write_deadline) {
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            service.note_evicted();
            Err(e)
        }
        other => other,
    }
}

/// Watches a query's connection while it computes: raises the query's
/// cancel flag on client disconnect (peeking a shared-description clone
/// of the socket, so it consumes nothing the handler will later read)
/// and, when the query carried a `deadline_ms`, when the deadline
/// expires — recording which of the two fired.
///
/// A failed clone or spawn degrades gracefully: the query runs
/// unwatched (no cancel-on-disconnect, no deadline) instead of killing
/// the connection handler.
struct ConnMonitor {
    stop: Arc<AtomicBool>,
    deadline_hit: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ConnMonitor {
    fn spawn(stream: &TcpStream, cancel: Arc<AtomicBool>, deadline: Option<Duration>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let deadline_hit = Arc::new(AtomicBool::new(false));
        // The clone is optional: without it the watcher still enforces
        // the deadline, it just cannot see disconnects.
        let peek_stream = stream.try_clone().ok();
        let handle = {
            let stop = Arc::clone(&stop);
            let deadline_hit = Arc::clone(&deadline_hit);
            std::thread::Builder::new()
                .name("svc-conn-watch".into())
                .spawn(move || {
                    let started = Instant::now();
                    let mut byte = [0u8; 1];
                    while !stop.load(Ordering::Relaxed) {
                        if deadline.is_some_and(|limit| started.elapsed() >= limit) {
                            deadline_hit.store(true, Ordering::Relaxed);
                            cancel.store(true, Ordering::Relaxed);
                            return;
                        }
                        match peek_stream.as_ref().map(|s| s.peek(&mut byte)) {
                            // No clone: deadline-only watching.
                            None => std::thread::sleep(IO_TICK),
                            // Orderly shutdown by the peer.
                            Some(Ok(0)) => {
                                cancel.store(true, Ordering::Relaxed);
                                return;
                            }
                            // Pipelined bytes: the client is alive. The
                            // peek itself blocked up to IO_TICK, so no
                            // extra nap is needed on this arm or the
                            // timeout arm.
                            Some(Ok(_)) => std::thread::sleep(IO_TICK),
                            Some(Err(e)) if is_would_block(&e) => {}
                            // A signal interrupted the peek: the peer is
                            // not gone, retry. Folding this into the arm
                            // below would cancel live queries spuriously.
                            Some(Err(e)) if e.kind() == io::ErrorKind::Interrupted => {}
                            // Reset or any hard error: treat as gone.
                            Some(Err(_)) => {
                                cancel.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                })
                .ok()
        };
        ConnMonitor {
            stop,
            deadline_hit,
            handle,
        }
    }

    /// Whether the watcher cancelled the query because its deadline
    /// expired (as opposed to a client disconnect).
    fn deadline_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }
}

impl Drop for ConnMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(stream: TcpStream, service: &Arc<SweepService>) {
    let _ = stream.set_nodelay(true);
    // Blocking IO with a short kernel timeout: the thread parks in the
    // kernel between bytes (no poll-loop CPU burn) and surfaces every
    // IO_TICK to check shutdown and frame deadlines.
    if stream.set_read_timeout(Some(IO_TICK)).is_err()
        || stream.set_write_timeout(Some(IO_TICK)).is_err()
    {
        return;
    }
    // All bytes flow through the chaos layer; without a net plan the
    // wrapper is a transparent passthrough.
    let mut stream = ChaosStream::new(stream, NetSite::Server);
    let read_deadline = service.config().read_deadline;
    loop {
        let payload = match read_frame_conn(&mut stream, service, read_deadline) {
            Ok(FrameIn::Frame(payload)) => payload,
            Ok(FrameIn::Closed) => return,
            Ok(FrameIn::Evicted) => {
                service.note_evicted();
                return;
            }
            // A corrupt or oversized frame gets a best-effort typed
            // error before the close — the peer learns why instead of
            // seeing a bare reset. Framing may be desynced, so the
            // connection cannot be reused either way.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = send_reply(
                    &mut stream,
                    service,
                    &ServiceReply::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
            Err(_) => return,
        };
        let request = String::from_utf8(payload)
            .map_err(|_| "request is not UTF-8".to_owned())
            .and_then(|text| ServiceRequest::parse(&text));
        match request {
            Err(message) => {
                if send_reply(&mut stream, service, &ServiceReply::Error { message }).is_err() {
                    return;
                }
            }
            Ok(ServiceRequest::Query { query, deadline_ms }) => {
                let cancel = Arc::new(AtomicBool::new(false));
                let started = Instant::now();
                let monitor = ConnMonitor::spawn(
                    stream.get_ref(),
                    Arc::clone(&cancel),
                    deadline_ms.map(Duration::from_millis),
                );
                let mut reply = service.query(&query, &cancel);
                let deadline_hit = monitor.deadline_hit();
                drop(monitor);
                if deadline_hit && reply == ServiceReply::Cancelled {
                    reply = ServiceReply::Deadline {
                        elapsed_ms: started.elapsed().as_millis() as u64,
                    };
                }
                if send_reply(&mut stream, service, &reply).is_err() {
                    return;
                }
            }
            Ok(ServiceRequest::Stats) => {
                if send_reply(&mut stream, service, &ServiceReply::Stats(service.stats())).is_err()
                {
                    return;
                }
            }
            Ok(ServiceRequest::Health) => {
                let reply = ServiceReply::Health(service.health());
                if send_reply(&mut stream, service, &reply).is_err() {
                    return;
                }
            }
            Ok(ServiceRequest::Drain) => {
                service.request_drain();
                let reply = ServiceReply::Draining {
                    inflight: service.inflight(),
                };
                if send_reply(&mut stream, service, &reply).is_err() {
                    return;
                }
            }
            Ok(ServiceRequest::Shutdown) => {
                let _ = send_reply(&mut stream, service, &ServiceReply::Bye);
                service.request_shutdown();
                return;
            }
        }
    }
}

/// Tells an over-cap connection it was refused: a best-effort `Busy`
/// frame under a short write timeout, then the stream drops. Failures
/// are ignored — the refusal is advisory; the close is the decision.
fn reject_connection(stream: TcpStream, conns: usize, cap: usize, service: &SweepService) {
    service.note_rejected();
    let _ = stream.set_write_timeout(Some(IO_TICK));
    let mut stream = ChaosStream::new(stream, NetSite::Server);
    let reply = ServiceReply::Busy {
        inflight: conns,
        limit: cap,
        retry_after_ms: service.config().retry_after_ms,
    };
    if let Ok(frame) = frame_bytes(reply.to_json().as_bytes()) {
        let _ = write_all_deadline(&mut stream, &frame, IO_TICK);
    }
}

/// Runs the accept loop until [`SweepService::request_shutdown`] (any
/// connection's `shutdown` op, a completed drain, or the embedding
/// process). Each connection gets its own handler thread, up to
/// [`ServiceConfig::max_conns`]; the excess connection is refused with
/// a best-effort `Busy` frame. All handlers are joined before the loop
/// returns, so a clean return means no request is still in flight.
///
/// The loop parks on the service's condvar between accepts (woken by
/// shutdown, drain, and freed inflight slots) instead of sleep-polling,
/// bounded by a 25 ms tick for newly arrived connections.
///
/// # Errors
///
/// Propagates listener errors other than the nonblocking idle signal.
pub fn serve(listener: &TcpListener, service: &Arc<SweepService>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let cap = service.config().max_conns.max(1);
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !service.shutdown_requested() {
        // A drain completes once the last in-flight query finishes; any
        // still-open idle connections see the shutdown flag within one
        // IO_TICK and wind down before the joins below return.
        if service.draining() && service.inflight() == 0 {
            service.request_shutdown();
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                handlers.retain(|h| !h.is_finished());
                if handlers.len() >= cap {
                    reject_connection(stream, handlers.len(), cap, service);
                    continue;
                }
                let service = Arc::clone(service);
                handlers.push(
                    std::thread::Builder::new()
                        .name("svc-conn".into())
                        .spawn(move || handle_connection(stream, &service))
                        .map_err(io::Error::other)?,
                );
            }
            Err(e) if is_would_block(&e) => {
                handlers.retain(|h| !h.is_finished());
                service.park(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
    Ok(())
}

/// Sends one request over a fresh blocking connection and returns the
/// typed reply plus the raw reply JSON (callers print or persist the
/// raw text so nothing is re-rendered on the client side).
///
/// # Errors
///
/// Propagates connect/read/write failures; a malformed reply surfaces
/// as [`io::ErrorKind::InvalidData`].
pub fn client_request(addr: &str, request: &ServiceRequest) -> io::Result<(ServiceReply, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    // Client bytes flow through the chaos layer too, so a torture run
    // exercises both directions of the wire.
    let mut stream = ChaosStream::new(stream, NetSite::Client);
    write_frame(&mut stream, request.to_json().as_bytes())?;
    let payload = read_frame(&mut stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed without replying",
        )
    })?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let reply =
        ServiceReply::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((reply, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> StudyQuery {
        StudyQuery {
            chips: 32,
            seed: 11,
            constraint: ConstraintSpec::STRICT,
            kind: PowerDownKind::Horizontal,
            cpi: Some(CpiOptions {
                warmup_uops: 100,
                measure_uops: 400,
            }),
        }
    }

    #[test]
    fn query_fingerprint_is_the_single_cell_grid_fingerprint() {
        let q = query();
        let grid = SweepGrid {
            chips: q.chips,
            seeds: vec![q.seed],
            constraints: vec![q.constraint],
            kinds: vec![q.kind],
        };
        let config = SweepConfig {
            cpi: q.cpi,
            ..SweepConfig::default()
        };
        assert_eq!(q.fingerprint(), grid.fingerprint(&config));

        // Executor tuning on the service side must not move the key.
        let mut other = config.clone();
        other.exec.workers = 13;
        other.checkpoint_every = 2;
        assert_eq!(q.fingerprint(), grid.fingerprint(&other));

        // Every result-shaping field must.
        for changed in [
            StudyQuery { chips: 33, ..q },
            StudyQuery { seed: 12, ..q },
            StudyQuery {
                constraint: ConstraintSpec::NOMINAL,
                ..q
            },
            StudyQuery {
                kind: PowerDownKind::Vertical,
                ..q
            },
            StudyQuery { cpi: None, ..q },
        ] {
            assert_ne!(changed.fingerprint(), q.fingerprint(), "{changed:?}");
        }
    }

    #[test]
    fn from_spec_keys_match_direct_queries() {
        let grid = SweepGrid {
            chips: 16,
            seeds: vec![5, 6],
            constraints: vec![ConstraintSpec::NOMINAL, ConstraintSpec::STRICT],
            kinds: vec![PowerDownKind::Vertical],
        };
        let config = SweepConfig::default();
        for spec in grid.studies() {
            let warm = StudyQuery::from_spec(&grid, &config, &spec);
            let direct = StudyQuery {
                chips: 16,
                seed: spec.seed,
                constraint: spec.constraint,
                kind: spec.kind,
                cpi: None,
            };
            assert_eq!(warm.fingerprint(), direct.fingerprint());
        }
    }

    #[test]
    fn cache_serves_lru_under_byte_budget() {
        let record = "x".repeat(52); // 100 bytes with overhead
        let mut cache = ResultCache::new(2 * entry_bytes(record.as_bytes()));
        assert!(cache.insert(1, record.clone()));
        assert!(cache.insert(2, record.clone()));
        assert_eq!(cache.bytes(), 2 * entry_bytes(record.as_bytes()));

        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(1).as_deref(), Some(record.as_str()));
        assert!(cache.insert(3, record.clone()));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(2).is_none(), "LRU entry 2 was evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert!(cache.bytes() <= cache.budget());

        // An entry bigger than the whole budget is refused, not churned.
        let before = cache.len();
        assert!(!cache.insert(4, "y".repeat(cache.budget() + 1)));
        assert_eq!(cache.len(), before);

        // Reinserting an existing key replaces, not double-counts.
        assert!(cache.insert(1, record.clone()));
        assert_eq!(cache.bytes(), 2 * entry_bytes(record.as_bytes()));
    }

    #[test]
    fn rotted_entries_are_quarantined_on_read_and_repaired_on_insert() {
        let mut cache = ResultCache::new(4096);
        let record = "total 4 quarantined 0\n".to_string();
        assert!(cache.insert(7, record.clone()));

        // Rot the stored copy behind the CRC's back.
        cache.entries.get_mut(&7).unwrap().record[0] ^= 0x40;

        // The rotted entry is never served: the read quarantines it and
        // reports a miss, so the caller recomputes.
        assert_eq!(cache.get(7), None);
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);

        // The recompute's insert is the repair — and the repaired entry
        // is bit-identical to a cold compute, because it *is* one.
        assert!(cache.insert(7, record.clone()));
        assert_eq!(cache.repaired(), 1);
        assert_eq!(cache.get(7).as_deref(), Some(record.as_str()));

        // A second insert over the same key is a refresh, not a repair.
        assert!(cache.insert(7, record));
        assert_eq!(cache.repaired(), 1);
    }

    #[test]
    fn scrub_quarantines_every_rotted_entry_in_one_pass() {
        let mut cache = ResultCache::new(4096);
        for key in 0..4u64 {
            assert!(cache.insert(key, format!("record {key}\n")));
        }
        cache.entries.get_mut(&1).unwrap().record[3] ^= 0x01;
        cache.entries.get_mut(&3).unwrap().record[5] ^= 0x80;

        assert_eq!(cache.scrub(), 2);
        assert_eq!(cache.scrub_passes(), 1);
        assert_eq!(cache.quarantined(), 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(0).is_some() && cache.get(2).is_some());

        // A clean pass still counts as a pass, quarantines nothing.
        assert_eq!(cache.scrub(), 0);
        assert_eq!(cache.scrub_passes(), 2);
        assert_eq!(cache.quarantined(), 2);
    }

    /// A canonical record (persistable: [`ResultCache::load`] re-parses
    /// entries, so arbitrary text won't do). `total` varies the bytes.
    fn canonical_record(total: usize) -> String {
        use crate::analysis::{LossBreakdown, LossTable, SchemeLosses};
        use crate::confidence::YieldInterval;
        use crate::sweep::StudyResult;
        use yac_circuit::CacheVariant;
        render_result(&StudyResult {
            loss: LossTable {
                base_variant: CacheVariant::Horizontal,
                spec_name: "strict".into(),
                total_chips: total,
                base: LossBreakdown {
                    leakage: 2,
                    delay: vec![1, 0, 0, 0],
                },
                schemes: vec![SchemeLosses {
                    name: "H-YAPD".into(),
                    losses: LossBreakdown {
                        leakage: 2,
                        delay: vec![0, 0, 0, 0],
                    },
                }],
                quarantined: 1,
            },
            yield_interval: YieldInterval {
                estimate: 0.9,
                lo: 0.85,
                hi: 0.95,
            },
            evaluated_chips: total,
            missing_chips: 0,
            degraded_shards: 0,
            mean_cpi: None,
        })
    }

    #[test]
    fn save_skips_rotted_entries_instead_of_laundering_them() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("save-skips-rot.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let keep = canonical_record(100);
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(1, keep.clone()));
        assert!(cache.insert(2, canonical_record(200)));
        cache.entries.get_mut(&2).unwrap().record[0] ^= 0x02;
        cache.save(&path).unwrap();

        // The rotted entry never reaches disk under a fresh line CRC.
        let mut loaded = ResultCache::load(&path, 4096).unwrap().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(1).as_deref(), Some(keep.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scrub_file_rewrites_a_file_with_rotted_lines() {
        let path = std::env::temp_dir()
            .join("yac-service-tests")
            .join("scrub-file-repairs.cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let (alpha, beta) = (canonical_record(100), canonical_record(200));
        let mut cache = ResultCache::new(4096);
        assert!(cache.insert(1, alpha.clone()));
        assert!(cache.insert(2, beta.clone()));
        cache.save(&path).unwrap();

        // Rot one persisted line's payload out from under its CRC.
        let text = std::fs::read_to_string(&path).unwrap();
        let rotted = text.replacen("total 100", "total 101", 1);
        assert_ne!(text, rotted, "fixture line not found");
        std::fs::write(&path, rotted).unwrap();

        // The scrubber counts the rot and rewrites from memory.
        assert_eq!(cache.scrub_file(&path), 1);
        assert_eq!(cache.quarantined(), 1);
        assert_eq!(cache.repaired(), 1);
        let mut reloaded = ResultCache::load(&path, 4096).unwrap().unwrap();
        assert_eq!(reloaded.get(1).as_deref(), Some(alpha.as_str()));
        assert_eq!(reloaded.get(2).as_deref(), Some(beta.as_str()));

        // A clean file is left alone.
        assert_eq!(cache.scrub_file(&path), 0);
        std::fs::remove_file(&path).unwrap();
    }

    fn tiny_service() -> SweepService {
        let mut config = ServiceConfig::default();
        config.exec.workers = 2;
        config.exec.shard_chips = 8;
        // Unit tests drive scrubbing and healing synchronously.
        config.heartbeat_budget = None;
        config.scrub_interval = None;
        SweepService::new(config)
    }

    #[test]
    fn a_poisoned_pool_is_healed_before_the_next_query_fans_out() {
        let service = tiny_service();
        service
            .pool
            .read()
            .unwrap()
            .submit_to(0, Box::new(|_| panic!("poison the pool")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.pool.read().unwrap().dead_workers() == 0 {
            assert!(Instant::now() < deadline, "worker death never observed");
            std::thread::sleep(Duration::from_millis(5));
        }

        // The next query heals in place and then computes normally.
        let q = StudyQuery {
            chips: 16,
            seed: 3,
            constraint: ConstraintSpec::NOMINAL,
            kind: PowerDownKind::Horizontal,
            cpi: None,
        };
        let reply = service.query(&q, &Arc::new(AtomicBool::new(false)));
        assert!(
            matches!(reply, ServiceReply::Result { cached: false, .. }),
            "{reply:?}"
        );
        let stats = service.stats();
        assert_eq!(stats.pool_restarts, 1);
        assert_eq!(service.pool.read().unwrap().dead_workers(), 0);

        // Healing is idempotent: a healthy pool is left alone.
        assert!(!service.heal_pool());
        assert_eq!(service.stats().pool_restarts, 1);
        service.shutdown();
    }

    #[test]
    fn health_report_tracks_lanes_scrubs_and_inflight() {
        let service = tiny_service();
        let report = service.health();
        assert_eq!(report.lanes, 2);
        assert_eq!(report.lanes_busy, 0);
        assert_eq!(report.inflight, 0);
        assert_eq!(report.scrub_passes, 0);

        service.with_cache(|cache| {
            assert!(cache.insert(9, "healthy record\n".into()));
        });
        service.scrub_now();
        let report = service.health();
        assert_eq!(report.scrub_passes, 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.degraded, 0);
        service.shutdown();
    }

    #[test]
    fn requests_round_trip_through_wire_json() {
        for request in [
            ServiceRequest::Query {
                query: query(),
                deadline_ms: None,
            },
            ServiceRequest::Query {
                query: StudyQuery {
                    cpi: None,
                    ..query()
                },
                deadline_ms: Some(1500),
            },
            ServiceRequest::Stats,
            ServiceRequest::Health,
            ServiceRequest::Drain,
            ServiceRequest::Shutdown,
        ] {
            let json = request.to_json();
            assert_eq!(ServiceRequest::parse(&json).unwrap(), request, "{json}");
        }
    }

    #[test]
    fn replies_round_trip_through_wire_json() {
        for reply in [
            ServiceReply::Result {
                record: "total 4 quarantined 0 \"quoted\\path\"\n".into(),
                key: 0xdead_beef_0bad_cafe,
                cached: true,
            },
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: 350,
            },
            ServiceReply::Draining { inflight: 1 },
            ServiceReply::Deadline { elapsed_ms: 420 },
            ServiceReply::Cancelled,
            ServiceReply::Error {
                message: "shard 3 panicked: \"boom\"".into(),
            },
            ServiceReply::Stats(ServiceStats {
                queries: 9,
                served: 7,
                busy: 1,
                cache_hits: 4,
                cache_misses: 3,
                cache_evictions: 2,
                cache_entries: 1,
                cache_bytes: 812,
                stolen: 5,
                inflight: 1,
                limit: 2,
                evicted: 3,
                rejected: 6,
                draining: true,
                scrub_passes: 11,
                quarantined: 2,
                repaired: 1,
                reassigned: 4,
                pool_restarts: 1,
            }),
            ServiceReply::Retryable { retry_after_ms: 75 },
            ServiceReply::Health(HealthReport {
                uptime_ms: 120_500,
                inflight: 1,
                lanes: 4,
                lanes_busy: 2,
                lanes_stalled: 1,
                heartbeats_missed: 3,
                shards_reassigned: 2,
                scrub_passes: 9,
                quarantined: 1,
                repaired: 1,
                degraded: 0,
                pool_restarts: 0,
            }),
            ServiceReply::Bye,
        ] {
            let json = reply.to_json();
            assert_eq!(ServiceReply::parse(&json).unwrap(), reply, "{json}");
        }
    }

    #[test]
    fn busy_without_a_hint_assumes_the_default() {
        let reply =
            ServiceReply::parse("{\"status\":\"busy\",\"inflight\":2,\"limit\":2}").unwrap();
        assert_eq!(
            reply,
            ServiceReply::Busy {
                inflight: 2,
                limit: 2,
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
            }
        );
    }

    #[test]
    fn malformed_requests_are_diagnosed_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            "{\"op\":\"query\"}",
            "{\"op\":\"mystery\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"bogus\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"diagonal\"}",
            "{\"op\":\"query\",\"chips\":8,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\",\"warmup\":5}",
            "{\"op\":\"query\",\"chips\":-3,\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"query\",\"chips\":{},\"seed\":1,\"constraint\":\"nominal\",\"kind\":\"vertical\"}",
            "{\"op\":\"stats\"} trailing",
        ] {
            assert!(ServiceRequest::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_strings_escape_and_unescape() {
        let mut out = String::new();
        json_escape(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
        let obj = parse_flat_object(&format!("{{\"k\":\"{out}\"}}")).unwrap();
        assert_eq!(obj.str("k").unwrap(), "a\"b\\c\nd\te\u{1}");
        // Foreign escapes parse too.
        let obj = parse_flat_object("{\"k\":\"\\u0041\\/\\b\\f\\r\"}").unwrap();
        assert_eq!(obj.str("k").unwrap(), "A/\u{8}\u{c}\r");
    }

    #[test]
    fn frames_round_trip_and_enforce_the_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        // A frame length over the cap is refused before allocation.
        let mut huge = io::Cursor::new(((MAX_FRAME + 1) as u32).to_be_bytes().to_vec());
        assert_eq!(
            read_frame(&mut huge).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A torn frame is an UnexpectedEof, not a silent truncation.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full payload").unwrap();
        torn.truncate(torn.len() - 3);
        let mut r = io::Cursor::new(torn);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corrupted_frames_fail_their_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"precious payload").unwrap();
        // Flip one payload bit: CRC-32 detects every single-bit error.
        for bit in 0..8 {
            let mut rotted = wire.clone();
            let last = rotted.len() - 1;
            rotted[last] ^= 1 << bit;
            let mut r = io::Cursor::new(rotted);
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
            assert!(err.to_string().contains("CRC"), "bit {bit}: {err}");
        }
        // A header CRC flip is caught too.
        let mut rotted = wire.clone();
        rotted[5] ^= 0x10;
        let mut r = io::Cursor::new(rotted);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn constraint_lookup_covers_the_paper_recipes() {
        for spec in [
            ConstraintSpec::NOMINAL,
            ConstraintSpec::RELAXED,
            ConstraintSpec::STRICT,
        ] {
            assert_eq!(constraint_by_name(spec.name), Some(spec));
        }
        assert_eq!(constraint_by_name("bogus"), None);
    }
}
