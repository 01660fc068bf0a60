//! `yac-serve` — the interactive sweep service CLI, its resilient
//! client, and the network torture harness.
//!
//! Serve mode starts a `yac_core::service::SweepService` on a local TCP
//! socket and runs until a client sends the `shutdown` op (or `drain`,
//! which finishes in-flight queries first):
//!
//! ```text
//! yac-serve serve [--listen ADDR] [--port-file PATH] [--workers N]
//!                 [--max-inflight N] [--cache-bytes N]
//!                 [--max-conns N] [--read-deadline-ms N]
//!                 [--write-deadline-ms N] [--retry-after-ms N]
//!                 [--heartbeat-ms N] [--scrub-ms N] [--max-reassigns N]
//!                 [--cache-file PATH] [--warm-journal PATH --chips N --seeds 1,2
//!                  --constraints nominal,... --schemes regular|horizontal|both
//!                  [--cpi WARMUP,MEASURE]]
//!                 [--trace PATH] [--progress]
//! ```
//!
//! `--listen 127.0.0.1:0` (the default) binds an ephemeral port;
//! `--port-file` writes the bound `ADDR:PORT` once listening, which is
//! how scripts (and CI's `service-smoke` job) rendezvous. `--cache-file`
//! loads a `YAC-CACHE v1` snapshot at startup (a corrupt one is
//! discarded with a warning — the cache is an optimisation) and saves
//! the cache there on clean shutdown. `--warm-journal` pre-populates
//! the cache from a completed sweep journal; the grid flags must
//! describe that journal's grid, and a fingerprint mismatch is refused
//! with exit code 4. Serve mode honours `YAC_CHAOS` (including the
//! `net_rate`/`net_delay_us` wire-fault keys and the self-healing
//! drills `mem_rate`/`stall_shard`), so a chaos-injected server can be
//! stood up from the environment alone.
//!
//! The self-healing runtime is on by default: `--heartbeat-ms` sets the
//! stall sentinel's no-progress budget (0 disables supervision),
//! `--scrub-ms` the cache scrubber's pass interval (0 disables the
//! scrubber thread; reads still verify CRCs), and `--max-reassigns` how
//! many times a stalled shard moves to a fresh worker before the query
//! completes with that shard honestly degraded. When `--cache-file` is
//! set the scrubber also re-verifies the persisted snapshot's line CRCs
//! and rewrites it from memory when a line has rotted.
//!
//! Client modes send requests and print the raw reply JSON to stdout
//! (or `--out PATH`):
//!
//! ```text
//! yac-serve query --connect ADDR --chips N --seed S
//!           --constraint nominal|relaxed|strict --kind vertical|horizontal
//!           [--cpi WARMUP,MEASURE] [--deadline-ms N] [--retries N]
//!           [--out PATH]
//! yac-serve stats --connect ADDR
//! yac-serve health --connect ADDR
//! yac-serve drain --connect ADDR
//! yac-serve shutdown --connect ADDR
//! ```
//!
//! `health` asks for the liveness report: uptime, in-flight queries,
//! lane occupancy/stalls, heartbeat misses, reassignments, scrub and
//! quarantine/repair counters, degraded results and pool restarts.
//!
//! Query mode uses the resilient client: transport faults and `busy`
//! refusals are retried with jittered exponential backoff (honouring
//! the server's `retry_after_ms` hint) under a circuit breaker;
//! `--retries` caps the attempts and `--deadline-ms` both bounds the
//! whole call client-side and rides the wire so the server cancels the
//! query cooperatively when it expires.
//!
//! Torture mode runs a seeded client/server chaos campaign in one
//! process and checks the resilience invariants (see `run_torture`):
//!
//! ```text
//! yac-serve torture [--seed N] [--net-rate R] [--clients N]
//!           [--requests N] [--chips N] [--trace PATH]
//! ```
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success (result, stats, health, bye, or a drain acknowledged) |
//! | 1    | error: bad flags, transport failure, server `error` reply, torture invariant violation |
//! | 3    | the service answered `busy` or `retryable` after all retries (typed backpressure — retry later) |
//! | 4    | warm-journal grid-fingerprint mismatch |
//! | 5    | the service is draining and refused the query |
//! | 6    | the query's deadline expired server-side (shards cancelled cooperatively) |
//! | 7    | the resilient client gave up: breaker open, attempts exhausted, or client deadline |

use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use yac_core::client::{ClientConfig, ClientError, ResilientClient};
use yac_core::service::{self, ServiceConfig, ServiceReply, ServiceRequest, StudyQuery};
use yac_core::sweep::CpiOptions;
use yac_core::{
    chaos, ChaosPlan, ConstraintSpec, PowerDownKind, ResultCache, StudyError, SweepConfig,
    SweepGrid, SweepService,
};
use yac_obs::progress::{ProgressConfig, ProgressReporter};
use yac_obs::Metric;

/// Exit code when the service refuses a query with typed backpressure.
const BUSY_EXIT: u8 = 3;
/// Exit code for a warm-journal grid-fingerprint mismatch.
const MISMATCH_EXIT: u8 = 4;
/// Exit code when the service is draining and refused the query.
const DRAINING_EXIT: u8 = 5;
/// Exit code when the query's server-side deadline expired.
const DEADLINE_EXIT: u8 = 6;
/// Exit code when the resilient client gave up (breaker, retries or
/// client deadline).
const UNAVAILABLE_EXIT: u8 = 7;

struct ServeArgs {
    listen: String,
    port_file: Option<String>,
    workers: usize,
    max_inflight: usize,
    cache_bytes: usize,
    max_conns: usize,
    read_deadline_ms: u64,
    write_deadline_ms: u64,
    retry_after_ms: u64,
    /// Stall-sentinel no-progress budget in ms; 0 disables supervision.
    heartbeat_ms: u64,
    /// Cache-scrubber pass interval in ms; 0 disables the thread.
    scrub_ms: u64,
    max_reassigns: u32,
    cache_file: Option<String>,
    warm_journal: Option<String>,
    chips: usize,
    seeds: Vec<u64>,
    constraints: Vec<ConstraintSpec>,
    kinds: Vec<PowerDownKind>,
    cpi: Option<CpiOptions>,
    trace: Option<String>,
    progress: bool,
}

struct ClientArgs {
    connect: String,
    chips: usize,
    seed: u64,
    constraint: ConstraintSpec,
    kind: PowerDownKind,
    cpi: Option<CpiOptions>,
    deadline_ms: Option<u64>,
    retries: u32,
    out: Option<String>,
}

struct TortureArgs {
    seed: u64,
    net_rate: f64,
    clients: usize,
    requests: usize,
    chips: usize,
    trace: Option<String>,
}

fn parse_constraint(name: &str) -> Result<ConstraintSpec, String> {
    service::constraint_by_name(name).ok_or_else(|| format!("unknown constraint {name:?}"))
}

fn parse_cpi(spec: &str) -> Result<CpiOptions, String> {
    let (warm, meas) = spec
        .split_once(',')
        .ok_or_else(|| format!("--cpi: expected WARMUP,MEASURE, got {spec:?}"))?;
    Ok(CpiOptions {
        warmup_uops: warm.trim().parse().map_err(|e| format!("--cpi: {e}"))?,
        measure_uops: meas.trim().parse().map_err(|e| format!("--cpi: {e}"))?,
    })
}

fn parse_serve_args(it: &mut impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let defaults = ServiceConfig::default();
    let mut args = ServeArgs {
        listen: "127.0.0.1:0".to_owned(),
        port_file: None,
        workers: 2,
        max_inflight: 2,
        cache_bytes: 8 << 20,
        max_conns: defaults.max_conns,
        read_deadline_ms: defaults.read_deadline.as_millis() as u64,
        write_deadline_ms: defaults.write_deadline.as_millis() as u64,
        retry_after_ms: defaults.retry_after_ms,
        heartbeat_ms: defaults
            .heartbeat_budget
            .map_or(0, |d| d.as_millis() as u64),
        scrub_ms: defaults.scrub_interval.map_or(0, |d| d.as_millis() as u64),
        max_reassigns: defaults.max_reassigns,
        cache_file: None,
        warm_journal: None,
        chips: 200,
        seeds: vec![2006],
        constraints: vec![ConstraintSpec::NOMINAL],
        kinds: vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
        cpi: None,
        trace: None,
        progress: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-inflight" => {
                args.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--cache-bytes" => {
                args.cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?;
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--read-deadline-ms" => {
                args.read_deadline_ms = value("--read-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--read-deadline-ms: {e}"))?;
            }
            "--write-deadline-ms" => {
                args.write_deadline_ms = value("--write-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--write-deadline-ms: {e}"))?;
            }
            "--retry-after-ms" => {
                args.retry_after_ms = value("--retry-after-ms")?
                    .parse()
                    .map_err(|e| format!("--retry-after-ms: {e}"))?;
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
            }
            "--scrub-ms" => {
                args.scrub_ms = value("--scrub-ms")?
                    .parse()
                    .map_err(|e| format!("--scrub-ms: {e}"))?;
            }
            "--max-reassigns" => {
                args.max_reassigns = value("--max-reassigns")?
                    .parse()
                    .map_err(|e| format!("--max-reassigns: {e}"))?;
            }
            "--cache-file" => args.cache_file = Some(value("--cache-file")?),
            "--warm-journal" => args.warm_journal = Some(value("--warm-journal")?),
            "--chips" => {
                args.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?;
            }
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--constraints" => {
                args.constraints = value("--constraints")?
                    .split(',')
                    .map(|s| parse_constraint(s.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--schemes" => {
                args.kinds = match value("--schemes")?.as_str() {
                    "regular" => vec![PowerDownKind::Vertical],
                    "horizontal" => vec![PowerDownKind::Horizontal],
                    "both" => vec![PowerDownKind::Vertical, PowerDownKind::Horizontal],
                    other => return Err(format!("--schemes: unknown set {other:?}")),
                };
            }
            "--cpi" => args.cpi = Some(parse_cpi(&value("--cpi")?)?),
            "--trace" => args.trace = Some(value("--trace")?),
            "--progress" => args.progress = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse_client_args(it: &mut impl Iterator<Item = String>) -> Result<ClientArgs, String> {
    let mut args = ClientArgs {
        connect: String::new(),
        chips: 200,
        seed: 2006,
        constraint: ConstraintSpec::NOMINAL,
        kind: PowerDownKind::Vertical,
        cpi: None,
        deadline_ms: None,
        retries: ClientConfig::default().max_attempts,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--connect" => args.connect = value("--connect")?,
            "--chips" => {
                args.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--constraint" => args.constraint = parse_constraint(&value("--constraint")?)?,
            "--kind" => {
                args.kind = match value("--kind")?.as_str() {
                    "vertical" => PowerDownKind::Vertical,
                    "horizontal" => PowerDownKind::Horizontal,
                    other => return Err(format!("--kind: unknown kind {other:?}")),
                };
            }
            "--cpi" => args.cpi = Some(parse_cpi(&value("--cpi")?)?),
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.connect.is_empty() {
        return Err("--connect ADDR:PORT is required".into());
    }
    Ok(args)
}

fn parse_torture_args(it: &mut impl Iterator<Item = String>) -> Result<TortureArgs, String> {
    let mut args = TortureArgs {
        seed: 2006,
        net_rate: 0.05,
        clients: 4,
        requests: 12,
        chips: 24,
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--net-rate" => {
                args.net_rate = value("--net-rate")?
                    .parse()
                    .map_err(|e| format!("--net-rate: {e}"))?;
            }
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--chips" => {
                args.chips = value("--chips")?
                    .parse()
                    .map_err(|e| format!("--chips: {e}"))?;
            }
            "--trace" => args.trace = Some(value("--trace")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Installs the `YAC_CHAOS` plan if the environment carries one.
/// Returns `false` (after printing the diagnostic) when the spec is
/// malformed.
fn install_env_chaos(mode: &str) -> bool {
    match ChaosPlan::from_env() {
        Ok(None) => true,
        Ok(Some(plan)) => {
            eprintln!("yac-serve: {mode}: chaos plan installed: {plan:?}");
            chaos::install(plan);
            true
        }
        Err(e) => {
            eprintln!("yac-serve: {mode}: YAC_CHAOS: {e}");
            false
        }
    }
}

/// Writes the bound address to `path` via a temp-name rename, so
/// readers polling the path never observe a half-written address.
fn write_port_file(path: &str, bound: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, bound)?;
    std::fs::rename(&tmp, path)
}

/// Dumps the trace journal as Chrome JSON plus NDJSON next to it.
fn write_traces(trace_path: &str) -> Result<(), String> {
    yac_obs::trace_disable();
    let snapshot = yac_obs::journal().snapshot();
    let trace_path = Path::new(trace_path);
    let ndjson_path = trace_path.with_extension("ndjson");
    yac_obs::perfetto::write_chrome_json(trace_path, &snapshot)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    yac_obs::ndjson::write_ndjson(&ndjson_path, &snapshot)
        .map_err(|e| format!("writing {}: {e}", ndjson_path.display()))?;
    eprintln!(
        "yac-serve: traced {} event(s) on {} thread(s) ({} dropped) -> {} + {}",
        snapshot.total_events(),
        snapshot.threads.len(),
        snapshot.dropped_events,
        trace_path.display(),
        ndjson_path.display(),
    );
    Ok(())
}

fn run_serve(args: &ServeArgs) -> ExitCode {
    let registry = yac_obs::global();
    yac_obs::enable();
    registry.reset();
    if args.trace.is_some() {
        yac_obs::trace_label_thread("main");
        yac_obs::trace_enable();
    }
    if !install_env_chaos("serve") {
        return ExitCode::FAILURE;
    }

    let mut config = ServiceConfig {
        exec: yac_core::ExecutorConfig::with_workers(args.workers.max(1)),
        max_inflight: args.max_inflight.max(1),
        cache_bytes: args.cache_bytes,
        max_conns: args.max_conns.max(1),
        read_deadline: Duration::from_millis(args.read_deadline_ms.max(1)),
        write_deadline: Duration::from_millis(args.write_deadline_ms.max(1)),
        retry_after_ms: args.retry_after_ms,
        heartbeat_budget: (args.heartbeat_ms > 0).then(|| Duration::from_millis(args.heartbeat_ms)),
        scrub_interval: (args.scrub_ms > 0).then(|| Duration::from_millis(args.scrub_ms)),
        // The scrubber re-verifies the persisted snapshot too.
        scrub_file: args.cache_file.as_ref().map(std::path::PathBuf::from),
        max_reassigns: args.max_reassigns,
    };
    config.exec.shard_chips = config.exec.shard_chips.min(args.chips.max(1));
    let service = Arc::new(SweepService::new(config));

    if let Some(path) = &args.cache_file {
        match ResultCache::load(Path::new(path), args.cache_bytes) {
            Ok(Some(loaded)) => {
                let entries = loaded.len();
                service.with_cache(|cache| *cache = loaded);
                eprintln!("yac-serve: loaded {entries} cache entr(ies) from {path}");
            }
            Ok(None) => eprintln!("yac-serve: no cache file at {path}, starting cold"),
            Err(e) => {
                // The cache is an optimisation: refuse to trust the
                // file, but serve anyway.
                eprintln!("yac-serve: discarding cache file {path}: {e}");
            }
        }
    }
    if let Some(journal) = &args.warm_journal {
        let grid = SweepGrid {
            chips: args.chips,
            seeds: args.seeds.clone(),
            constraints: args.constraints.clone(),
            kinds: args.kinds.clone(),
        };
        let sweep_config = SweepConfig {
            cpi: args.cpi,
            ..SweepConfig::default()
        };
        let warmed = service
            .with_cache(|cache| cache.warm_from_journal(&grid, &sweep_config, Path::new(journal)));
        match warmed {
            Ok(n) => eprintln!("yac-serve: warmed {n} cache entr(ies) from {journal}"),
            Err(e @ StudyError::Mismatch(_)) => {
                eprintln!("yac-serve: journal mismatch: {e}");
                return ExitCode::from(MISMATCH_EXIT);
            }
            Err(e) => {
                eprintln!("yac-serve: warming from {journal}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let listener = match std::net::TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("yac-serve: binding {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let bound = match listener.local_addr() {
        Ok(addr) => addr.to_string(),
        Err(e) => {
            eprintln!("yac-serve: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.port_file {
        if let Err(e) = write_port_file(path, &bound) {
            eprintln!("yac-serve: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "yac-serve: listening on {bound} ({} worker(s), {} inflight, {} conn(s), {} cache bytes)",
        args.workers.max(1),
        args.max_inflight.max(1),
        args.max_conns.max(1),
        args.cache_bytes,
    );

    let reporter = args.progress.then(|| {
        ProgressReporter::start(
            registry,
            ProgressConfig {
                total_chips: 0,
                workers: args.workers.max(1),
                interval: Duration::from_secs(1),
                label: "yac-serve".to_owned(),
                total_studies: 0,
            },
        )
    });

    let served = service::serve(&listener, &service);
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    if let Err(e) = served {
        eprintln!("yac-serve: serve loop failed: {e}");
        return ExitCode::FAILURE;
    }

    let stats = service.stats();
    eprintln!(
        "yac-serve: shutting down: {} queries ({} served, {} busy), \
         cache {} hit(s) / {} miss(es) / {} eviction(s), {} task(s) stolen, \
         {} slow client(s) evicted, {} connection(s) rejected",
        stats.queries,
        stats.served,
        stats.busy,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.stolen,
        stats.evicted,
        stats.rejected,
    );
    eprintln!(
        "yac-serve: self-healing: {} scrub pass(es), {} entr(ies) quarantined, \
         {} repaired, {} shard(s) reassigned, {} pool restart(s)",
        stats.scrub_passes,
        stats.quarantined,
        stats.repaired,
        stats.reassigned,
        stats.pool_restarts,
    );
    if let Some(path) = &args.cache_file {
        let saved = service.with_cache(|cache| cache.save(Path::new(path)));
        match saved {
            Ok(()) => eprintln!("yac-serve: saved cache to {path}"),
            Err(e) => {
                eprintln!("yac-serve: saving cache to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(trace_path) = &args.trace {
        if let Err(e) = write_traces(trace_path) {
            eprintln!("yac-serve: {e}");
            return ExitCode::FAILURE;
        }
    }

    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        // A handler thread still holds a reference; workers park until
        // process exit. Harmless, but say so.
        Err(_) => eprintln!("yac-serve: a connection handler outlived the serve loop"),
    }
    ExitCode::SUCCESS
}

/// Maps a terminal reply to the documented exit code. `drain_mode`
/// flips `Draining` from a refusal into the expected acknowledgement.
fn reply_exit(reply: &ServiceReply, drain_mode: bool) -> ExitCode {
    match reply {
        ServiceReply::Result { cached, key, .. } => {
            eprintln!(
                "yac-serve: result key {key:016x} ({})",
                if *cached { "cache hit" } else { "computed" }
            );
            ExitCode::SUCCESS
        }
        ServiceReply::Stats(_) | ServiceReply::Bye => ExitCode::SUCCESS,
        ServiceReply::Health(report) => {
            eprintln!(
                "yac-serve: health: up {} ms, {} inflight, lanes {}/{} busy ({} stalled), \
                 {} heartbeat(s) missed, {} reassigned, {} scrub pass(es), \
                 {} quarantined / {} repaired, {} degraded, {} pool restart(s)",
                report.uptime_ms,
                report.inflight,
                report.lanes_busy,
                report.lanes,
                report.lanes_stalled,
                report.heartbeats_missed,
                report.shards_reassigned,
                report.scrub_passes,
                report.quarantined,
                report.repaired,
                report.degraded,
                report.pool_restarts,
            );
            ExitCode::SUCCESS
        }
        ServiceReply::Retryable { retry_after_ms } => {
            // The same typed-backpressure exit as `busy`: the failure
            // was transient (a healed pool); retrying will succeed.
            eprintln!("yac-serve: transient server fault — retry in {retry_after_ms} ms");
            ExitCode::from(BUSY_EXIT)
        }
        ServiceReply::Busy {
            inflight,
            limit,
            retry_after_ms,
        } => {
            eprintln!(
                "yac-serve: busy ({inflight}/{limit} in flight) — retry in {retry_after_ms} ms"
            );
            ExitCode::from(BUSY_EXIT)
        }
        ServiceReply::Draining { inflight } => {
            if drain_mode {
                eprintln!("yac-serve: draining acknowledged ({inflight} in flight)");
                ExitCode::SUCCESS
            } else {
                eprintln!("yac-serve: service is draining ({inflight} in flight)");
                ExitCode::from(DRAINING_EXIT)
            }
        }
        ServiceReply::Deadline { elapsed_ms } => {
            eprintln!("yac-serve: query deadline expired after {elapsed_ms} ms");
            ExitCode::from(DEADLINE_EXIT)
        }
        ServiceReply::Cancelled => {
            eprintln!("yac-serve: query was cancelled");
            ExitCode::FAILURE
        }
        ServiceReply::Error { message } => {
            eprintln!("yac-serve: error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Sends one request through the resilient client and prints the raw
/// reply (stdout or `--out`).
fn run_client(
    request: &ServiceRequest,
    connect: &str,
    out: Option<&str>,
    config: ClientConfig,
    drain_mode: bool,
) -> ExitCode {
    if !install_env_chaos("client") {
        return ExitCode::FAILURE;
    }
    let mut client = ResilientClient::new(connect, config);
    let (reply, raw) = match client.request(request) {
        Ok(pair) => pair,
        Err(e @ ClientError::BreakerOpen { .. })
        | Err(e @ ClientError::DeadlineExceeded { .. })
        | Err(e @ ClientError::Exhausted { .. }) => {
            eprintln!("yac-serve: {connect}: {e}");
            return ExitCode::from(UNAVAILABLE_EXIT);
        }
    };
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &raw) {
            eprintln!("yac-serve: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        println!("{raw}");
    }
    reply_exit(&reply, drain_mode)
}

/// One slowloris pass: opens a connection, dribbles half a frame
/// header, then stalls past the server's read deadline. Returns whether
/// the server dropped it (EOF/reset instead of a hang).
fn slowloris_once(addr: &str, stall: Duration) -> bool {
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    // Half a header: enough to arm the server's frame deadline.
    if stream.write_all(&[0, 0, 0, 9]).is_err() {
        return true; // already refused — counts as handled
    }
    std::thread::sleep(stall);
    // An evicting server closed the socket: the read must not hang and
    // must not deliver a reply frame.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut byte = [0u8; 1];
    matches!(stream.read(&mut byte), Ok(0) | Err(_))
}

/// The slowloris campaign: stall connections until the server counts an
/// eviction. Under wire chaos an individual pass can end early — a
/// chaos-injected disconnect kills the connection with a plain error
/// before the eviction deadline fires — so keep poking (bounded) until
/// the `slow_clients_evicted` counter moves. Returns whether every pass
/// was dropped rather than hung on.
fn slowloris(addr: &str, stall: Duration) -> bool {
    let registry = yac_obs::global();
    let before = registry.counter(Metric::SlowClientsEvicted);
    for _ in 0..10 {
        if !slowloris_once(addr, stall) {
            return false;
        }
        if registry.counter(Metric::SlowClientsEvicted) > before {
            return true;
        }
    }
    // Dropped every time but never via the eviction path; the counter
    // invariant will report it.
    true
}

/// The network torture campaign: one in-process server under wire
/// chaos, a swarm of resilient clients hammering a small query space, a
/// deliberate slowloris peer, then a graceful drain. Invariants:
///
/// 1. Every request ends in a typed reply or a typed client error —
///    never a hang (the process itself completing is the proof).
/// 2. All `Result` replies for the same key are bit-identical.
/// 3. The slowloris peer is evicted, not serviced and not hung on.
/// 4. After the drain, the serve loop exits cleanly with no in-flight
///    queries and no leaked admission slots.
/// 5. Chaos made the clients work for it: at least one retry when the
///    fault rate is nonzero.
fn run_torture(args: &TortureArgs) -> ExitCode {
    let registry = yac_obs::global();
    yac_obs::enable();
    registry.reset();
    yac_obs::trace_label_thread("main");
    yac_obs::trace_enable();

    // The environment wins so CI can steer the chaos; flags otherwise.
    if std::env::var("YAC_CHAOS").is_ok() {
        if !install_env_chaos("torture") {
            return ExitCode::FAILURE;
        }
    } else {
        let plan = ChaosPlan::new(args.seed, 0.0)
            .and_then(|p| p.with_net(args.net_rate, Duration::from_micros(500)));
        match plan {
            Ok(plan) => {
                eprintln!("yac-serve: torture: chaos plan installed: {plan:?}");
                chaos::install(plan);
            }
            Err(e) => {
                eprintln!("yac-serve: torture: --net-rate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let read_deadline = Duration::from_millis(250);
    let mut config = ServiceConfig {
        exec: yac_core::ExecutorConfig::with_workers(2),
        max_inflight: 2,
        cache_bytes: 8 << 20,
        max_conns: args.clients.max(1) * 2 + 4,
        read_deadline,
        write_deadline: Duration::from_millis(500),
        retry_after_ms: 25,
        ..ServiceConfig::default()
    };
    config.exec.shard_chips = config.exec.shard_chips.min(args.chips.max(1));
    let service = Arc::new(SweepService::new(config));
    let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("yac-serve: torture: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(e) => {
            eprintln!("yac-serve: torture: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    };
    let serve_service = Arc::clone(&service);
    let server = std::thread::spawn(move || service::serve(&listener, &serve_service));
    eprintln!(
        "yac-serve: torture: server on {addr}, {} client(s) x {} request(s), chips {}",
        args.clients.max(1),
        args.requests.max(1),
        args.chips.max(1)
    );

    // The slowloris peer runs alongside the swarm.
    let loris_addr = addr.clone();
    let loris = std::thread::spawn(move || slowloris(&loris_addr, read_deadline * 3));

    // The swarm: each client cycles a tiny query space so cache hits,
    // misses and busy refusals all occur. Records per key collect for
    // the bit-identity check.
    let chips = args.chips.max(1);
    let mut swarm = Vec::new();
    for client_index in 0..args.clients.max(1) {
        let addr = addr.clone();
        let requests = args.requests.max(1);
        let seed_base = args.seed;
        swarm.push(std::thread::spawn(move || {
            yac_obs::trace_label_thread(&format!("client-{client_index}"));
            let mut client = ResilientClient::new(
                addr,
                ClientConfig {
                    max_attempts: 6,
                    base_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(200),
                    deadline: Some(Duration::from_secs(20)),
                    breaker_threshold: 8,
                    breaker_cooldown: Duration::from_millis(100),
                    seed: seed_base ^ (client_index as u64).wrapping_mul(0x9e37),
                },
            );
            let mut results: Vec<(u64, String)> = Vec::new();
            let mut typed_errors = 0usize;
            for i in 0..requests {
                let query = StudyQuery {
                    chips,
                    seed: seed_base + (i % 3) as u64,
                    constraint: ConstraintSpec::NOMINAL,
                    kind: PowerDownKind::Vertical,
                    cpi: None,
                };
                let request = ServiceRequest::Query {
                    query,
                    deadline_ms: Some(15_000),
                };
                match client.request(&request) {
                    Ok((ServiceReply::Result { record, key, .. }, _)) => {
                        results.push((key, record));
                    }
                    Ok(_) | Err(_) => typed_errors += 1,
                }
            }
            (results, typed_errors)
        }));
    }

    let mut records_by_key: std::collections::HashMap<u64, String> =
        std::collections::HashMap::new();
    let mut results = 0usize;
    let mut typed_errors = 0usize;
    let mut mismatches = 0usize;
    for handle in swarm {
        let Ok((client_results, errors)) = handle.join() else {
            eprintln!("yac-serve: torture: a client thread panicked");
            return ExitCode::FAILURE;
        };
        typed_errors += errors;
        for (key, record) in client_results {
            results += 1;
            match records_by_key.get(&key) {
                None => {
                    records_by_key.insert(key, record);
                }
                Some(seen) if *seen == record => {}
                Some(_) => mismatches += 1,
            }
        }
    }
    let loris_evicted = loris.join().unwrap_or(false);

    // Drain: the server finishes in-flight work and exits on its own.
    let mut drainer = ResilientClient::new(addr, ClientConfig::default());
    let drain_ok = matches!(
        drainer.request(&ServiceRequest::Drain),
        Ok((ServiceReply::Draining { .. }, _))
    );
    let serve_result = server.join();
    let clean_exit = matches!(serve_result, Ok(Ok(())));
    let inflight_after = service.inflight();
    let stats = service.stats();

    let retries = registry.counter(Metric::RetryAttempts);
    let evictions = registry.counter(Metric::SlowClientsEvicted);
    let net_faults = registry.counter(Metric::NetFaultsInjected);
    eprintln!(
        "yac-serve: torture: {results} result(s), {typed_errors} typed error(s)/refusal(s), \
         {} distinct key(s), {retries} retry(ies), {evictions} eviction(s), \
         {net_faults} net fault(s), {} rejected, inflight {inflight_after}",
        records_by_key.len(),
        stats.rejected,
    );

    if let Some(trace_path) = &args.trace {
        if let Err(e) = write_traces(trace_path) {
            eprintln!("yac-serve: torture: {e}");
            return ExitCode::FAILURE;
        }
    }
    match Arc::try_unwrap(service) {
        Ok(service) => service.shutdown(),
        Err(_) => eprintln!("yac-serve: torture: a handler outlived the serve loop"),
    }

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("yac-serve: torture: INVARIANT VIOLATED: {what}");
            failed = true;
        }
    };
    check(mismatches == 0, "same-key results must be bit-identical");
    check(results > 0, "at least one request must succeed");
    check(
        loris_evicted,
        "the slowloris peer must be evicted, not hung on",
    );
    check(evictions >= 1, "the eviction must be counted");
    check(drain_ok, "the drain request must be acknowledged");
    check(
        clean_exit,
        "the serve loop must exit cleanly after the drain",
    );
    check(inflight_after == 0, "no admission slot may leak");
    check(
        args.net_rate <= 0.0 || retries >= 1,
        "nonzero chaos must provoke at least one retry",
    );
    if failed {
        return ExitCode::FAILURE;
    }
    eprintln!("yac-serve: torture: all invariants held");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_default();
    match mode.as_str() {
        "serve" => match parse_serve_args(&mut it) {
            Ok(args) => run_serve(&args),
            Err(e) => {
                eprintln!("yac-serve: serve: {e}");
                ExitCode::FAILURE
            }
        },
        "query" => match parse_client_args(&mut it) {
            Ok(args) => {
                let request = ServiceRequest::Query {
                    query: StudyQuery {
                        chips: args.chips,
                        seed: args.seed,
                        constraint: args.constraint,
                        kind: args.kind,
                        cpi: args.cpi,
                    },
                    deadline_ms: args.deadline_ms,
                };
                let config = ClientConfig {
                    max_attempts: args.retries.max(1),
                    ..ClientConfig::default()
                };
                run_client(&request, &args.connect, args.out.as_deref(), config, false)
            }
            Err(e) => {
                eprintln!("yac-serve: query: {e}");
                ExitCode::FAILURE
            }
        },
        "torture" => match parse_torture_args(&mut it) {
            Ok(args) => run_torture(&args),
            Err(e) => {
                eprintln!("yac-serve: torture: {e}");
                ExitCode::FAILURE
            }
        },
        "stats" | "health" | "drain" | "shutdown" => {
            let request = match mode.as_str() {
                "stats" => ServiceRequest::Stats,
                "health" => ServiceRequest::Health,
                "drain" => ServiceRequest::Drain,
                _ => ServiceRequest::Shutdown,
            };
            let mut connect = None;
            let mut out = None;
            while let Some(flag) = it.next() {
                let Some(value) = it.next() else {
                    eprintln!("yac-serve: {mode}: {flag} requires a value");
                    return ExitCode::FAILURE;
                };
                match flag.as_str() {
                    "--connect" => connect = Some(value),
                    "--out" => out = Some(value),
                    other => {
                        eprintln!("yac-serve: {mode}: unknown flag {other}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let Some(connect) = connect else {
                eprintln!("yac-serve: {mode}: --connect ADDR:PORT is required");
                return ExitCode::FAILURE;
            };
            run_client(
                &request,
                &connect,
                out.as_deref(),
                ClientConfig::default(),
                mode == "drain",
            )
        }
        "" => {
            eprintln!(
                "yac-serve: expected a mode: serve | query | stats | health | drain | shutdown | torture"
            );
            ExitCode::FAILURE
        }
        other => {
            eprintln!(
                "yac-serve: unknown mode {other:?} (serve | query | stats | health | drain | shutdown | torture)"
            );
            ExitCode::FAILURE
        }
    }
}
