//! `service_mix`: an in-process sweep service on a loopback socket,
//! driven by two closed-loop clients: ~80% repeats of a warmed hot set
//! (cache hits: cache reads plus the wire path) and ~20% fresh cells
//! (misses: stealing-pool compute plus cache inserts).
//!
//! A cell has 200 chips, `yac-serve query`'s default. The hot-set size,
//! 16 cells, is the benchmark's own choice: see `README.md`.

use crate::measure::{beyond, median, mix, peak_rss_mb, percentile, process_cpu_s, Digest};
use crate::trace::Tracer;
use crate::{nproc, Args, Report};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use yac_core::{
    client_request, read_frame, serve, write_frame, ConstraintSpec, ExecutorConfig, PowerDownKind,
    ServiceConfig, ServiceReply, ServiceRequest, StudyQuery, SweepService,
};

/// Chips per study cell: the default of `yac-serve query`.
const CHIPS: usize = 200;
/// Cells in the warmed hot set (an assumption of the benchmark; every
/// one stays resident in the service's default-sized cache).
const HOT: u64 = 16;
/// One request in this many asks for a fresh cell (20%).
const FRESH_EVERY: u64 = 5;
/// Closed-loop clients, one request outstanding each.
const CLIENTS: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Samples each latency class needs so that at least 10 lie beyond its
/// 95th percentile.
const MIN_SAMPLES: usize = 200;
/// In-process calls timed per kind in the traced run.
const IN_PROCESS_HITS: u64 = 2_000;
const IN_PROCESS_MISSES: u64 = 40;
/// Requests per client in the closed-loop batch of the traced run.
const TRACED_BATCH: u64 = 100;
/// Admission bursts in the traced run.
const BURST_ROUNDS: u64 = 10;

/// Stream offsets keeping every kind of derived cell distinct.
const FRESH_STREAM: u64 = 1 << 40;
const IN_PROCESS_STREAM: u64 = 2 << 40;
const TRACED_FRESH_STREAM: u64 = 3 << 40;
const BURST_STREAM: u64 = 4 << 40;

/// The study cell drawn from `stream` of the workload seed.
fn cell(seed: u64, stream: u64) -> StudyQuery {
    let h = mix(seed, stream);
    let constraints = [
        ConstraintSpec::NOMINAL,
        ConstraintSpec::RELAXED,
        ConstraintSpec::STRICT,
    ];
    StudyQuery {
        chips: CHIPS,
        seed: h >> 8,
        constraint: constraints[(h % 3) as usize],
        kind: if h & 8 == 0 {
            PowerDownKind::Vertical
        } else {
            PowerDownKind::Horizontal
        },
        cpi: None,
    }
}

fn hot_cells(seed: u64) -> Vec<StudyQuery> {
    (0..HOT).map(|i| cell(seed, i)).collect()
}

/// Request `k` of client `client`: every fifth request is a fresh cell
/// (drawn from `fresh`'s stream, so each batch of a run gets cells of
/// its own), the rest a hot cell drawn from the seed. A fixed share keeps
/// the hit/miss mix, and so every aggregate, the same from seed to seed;
/// the clients' fresh requests are offset so they do not coincide.
fn plan(seed: u64, client: u64, k: u64, fresh: u64) -> (bool, StudyQuery) {
    if (k + 2 * client) % FRESH_EVERY == FRESH_EVERY - 1 {
        (true, cell(seed, fresh + (client << 32) + k))
    } else {
        let h = mix(seed ^ 0x5eed, (client << 32) | k);
        (false, cell(seed, h % HOT))
    }
}

fn query(q: StudyQuery) -> ServiceRequest {
    ServiceRequest::Query {
        query: q,
        deadline_ms: None,
    }
}

/// A running service on a loopback port, with the hot set's records.
struct Server {
    service: Arc<SweepService>,
    addr: String,
    serve_loop: JoinHandle<std::io::Result<()>>,
    hot: BTreeMap<u64, String>,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        exec: ExecutorConfig::with_workers(nproc()),
        ..ServiceConfig::default()
    }
}

/// Starts a service, then warms the hot set over the wire: each hot cell
/// is computed once (a miss) and its record kept.
fn start(seed: u64, report: &mut Report) -> Server {
    let service = Arc::new(SweepService::new(service_config()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address")
        .to_string();
    let serve_loop = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve(&listener, &service))
    };
    let mut hot = BTreeMap::new();
    for q in hot_cells(seed) {
        let key = q.fingerprint();
        match client_request(&addr, &query(q)) {
            Ok((
                ServiceReply::Result {
                    record,
                    key: k,
                    cached: false,
                },
                _,
            )) if k == key => {
                hot.insert(key, record);
            }
            other => report.check(false, || format!("warming {key:016x}: {other:?}")),
        }
    }
    Server {
        service,
        addr,
        serve_loop,
        hot,
    }
}

fn stop(server: Server, report: &mut Report) {
    let bye = client_request(&server.addr, &ServiceRequest::Shutdown);
    report.check(matches!(bye, Ok((ServiceReply::Bye, _))), || {
        format!("shutdown: {bye:?}")
    });
    let ended = server.serve_loop.join();
    report.check(matches!(ended, Ok(Ok(()))), || {
        format!("serve loop: {ended:?}")
    });
    match Arc::try_unwrap(server.service) {
        Ok(service) => service.shutdown(),
        Err(_) => report.check(false, || "service still shared at shutdown".to_string()),
    }
}

/// Digest of the hot set's records in key order.
fn hot_digest(hot: &BTreeMap<u64, String>) -> u64 {
    let mut d = Digest::default();
    for (key, record) in hot {
        d.u64(*key).bytes(record.as_bytes());
    }
    d.finish()
}

/// Latencies of one closed-loop batch, in seconds, split by kind.
#[derive(Debug, Default)]
struct Batch {
    hits: Vec<f64>,
    misses: Vec<f64>,
    requests: u64,
    failures: Vec<String>,
}

/// Checks one reply against what the request should get: a hot cell's
/// record byte-equal to its warmed miss record, or a fresh cell computed.
fn check_reply(
    hot: &BTreeMap<u64, String>,
    fresh: bool,
    q: &StudyQuery,
    reply: std::io::Result<(ServiceReply, String)>,
) -> Result<(), String> {
    let key = q.fingerprint();
    match reply {
        Ok((
            ServiceReply::Result {
                record,
                key: k,
                cached,
            },
            _,
        )) => {
            if k != key {
                Err(format!("reply key {k:016x} for query {key:016x}"))
            } else if cached == fresh {
                Err(format!("{key:016x}: cached={cached} for fresh={fresh}"))
            } else if !fresh && hot.get(&key) != Some(&record) {
                Err(format!(
                    "{key:016x}: hit record differs from its miss record"
                ))
            } else {
                Ok(())
            }
        }
        other => Err(format!("{key:016x}: {other:?}")),
    }
}

/// Runs the closed-loop clients. Each sends requests from its plan until
/// `keep_going` says stop; `fresh` picks the stream fresh cells come from.
fn closed_loop(
    server: &Server,
    seed: u64,
    fresh: u64,
    tracer: &Tracer,
    keep_going: &(dyn Fn(u64, usize, usize) -> bool + Sync),
) -> Batch {
    let hits_seen = AtomicUsize::new(0);
    let misses_seen = AtomicUsize::new(0);
    let per_client: Vec<Batch> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (hits_seen, misses_seen) = (&hits_seen, &misses_seen);
                scope.spawn(move || {
                    let mut b = Batch::default();
                    let mut k = 0;
                    while keep_going(
                        k,
                        hits_seen.load(Ordering::Relaxed),
                        misses_seen.load(Ordering::Relaxed),
                    ) {
                        let (is_fresh, q) = plan(seed, client, k, fresh);
                        let t0 = Instant::now();
                        let reply = {
                            let _s =
                                tracer.span("service.client_request", None, (client << 32) | k);
                            client_request(&server.addr, &query(q))
                        };
                        let dt = t0.elapsed().as_secs_f64();
                        b.requests += 1;
                        k += 1;
                        match check_reply(&server.hot, is_fresh, &q, reply) {
                            Ok(()) if is_fresh => {
                                b.misses.push(dt);
                                misses_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(()) => {
                                b.hits.push(dt);
                                hits_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => b.failures.push(e),
                        }
                    }
                    b
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let mut all = Batch::default();
    for b in per_client {
        all.hits.extend(b.hits);
        all.misses.extend(b.misses);
        all.requests += b.requests;
        all.failures.extend(b.failures);
    }
    all
}

fn record_batch(report: &mut Report, batch: &Batch) {
    report.attempted += batch.requests - batch.failures.len() as u64;
    for f in &batch.failures {
        report.check(false, || f.clone());
    }
}

/// Every deterministic count of the workload at `seed`: the hot set's
/// records, computed in process (the service stores the same canonical
/// text it sends).
#[must_use]
pub fn reference_counts(seed: u64) -> Vec<(String, u64)> {
    let service = SweepService::new(service_config());
    let cancel = Arc::new(AtomicBool::new(false));
    let mut hot = BTreeMap::new();
    for q in hot_cells(seed) {
        match service.query(&q, &cancel) {
            ServiceReply::Result { record, key, .. } => {
                hot.insert(key, record);
            }
            other => panic!("reference query failed: {other:?}"),
        }
    }
    service.shutdown();
    let mut report = Report::default();
    report.count("hot_digest", hot_digest(&hot));
    report.count("hot_cells", hot.len() as u64);
    report.counts
}

/// Starts a service and records the warmed hot set's counts.
fn start_counted(seed: u64, report: &mut Report) -> Server {
    let server = start(seed, report);
    report.count("hot_digest", hot_digest(&server.hot));
    report.count("hot_cells", server.hot.len() as u64);
    let warm = server.service.stats();
    println!(
        "service_mix: hot set of {} cells holds {} of {} cache bytes",
        warm.cache_entries,
        warm.cache_bytes,
        server.service.config().cache_bytes
    );
    server
}

/// Runs the workload untraced and reports its end-to-end metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let untraced = Tracer::new(false);
    let t0 = Instant::now();
    let server = start_counted(args.seed, &mut report);
    let mut setups = vec![t0.elapsed().as_secs_f64()];

    let seconds = args.seconds;
    // Past the window, keep going only until both kinds have enough
    // samples for their 95th percentile, and never past the cap.
    let cap = (3.0 * seconds).min(120.0).max(seconds);
    let start_at = Instant::now();
    let cpu0 = process_cpu_s();
    let keep_going = |_k: u64, hits: usize, misses: usize| {
        let t = start_at.elapsed().as_secs_f64();
        t < seconds || ((hits < MIN_SAMPLES || misses < MIN_SAMPLES) && t < cap)
    };
    let batch = closed_loop(&server, args.seed, FRESH_STREAM, &untraced, &keep_going);
    let window = start_at.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    // Read before the remaining set-ups, so that services already shut
    // down do not count towards the measured one's memory.
    let peak_rss = peak_rss_mb();
    record_batch(&mut report, &batch);
    stop(server, &mut report);
    // The remaining set-ups for `setup_s`, each shut down again.
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        let server = start(args.seed, &mut report);
        setups.push(t0.elapsed().as_secs_f64());
        stop(server, &mut report);
    }

    println!(
        "service_mix: {} requests in {window:.3} s from {CLIENTS} closed-loop clients; \
         {} hits ({} beyond p95), {} misses ({} beyond p95)",
        batch.requests,
        batch.hits.len(),
        beyond(batch.hits.len(), 95.0),
        batch.misses.len(),
        beyond(batch.misses.len(), 95.0),
    );
    let ms = |v: &[f64], p: f64| {
        if v.is_empty() {
            f64::NAN
        } else {
            1e3 * percentile(v, p)
        }
    };
    println!(
        "service_mix: hit p50 {:.3} ms, p95 {:.3} ms; miss p50 {:.3} ms, p95 {:.3} ms",
        ms(&batch.hits, 50.0),
        ms(&batch.hits, 95.0),
        ms(&batch.misses, 50.0),
        ms(&batch.misses, 95.0),
    );
    let all: Vec<f64> = batch.hits.iter().chain(&batch.misses).copied().collect();
    report.metric("setup_s", median(&setups), "s");
    // The median request of the 80/20 mix is a hit.
    report.metric(
        "wall_s",
        if all.is_empty() {
            f64::NAN
        } else {
            median(&all)
        },
        "s",
    );
    report.metric("cpu_s", cpu / batch.requests.max(1) as f64, "s");
    // Throughput in requests per second.
    report.metric("throughput", batch.requests as f64 / window, "1/s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report
}

/// Sends [`BURST_ROUNDS`] bursts of fresh cells over the socket, each one
/// request wider than the service admits at once and released together,
/// so the admission path is driven. Each reply must be the cell's
/// computed record or a typed `Busy` at the service's limit; a refusal
/// is the expected answer to an over-limit burst, not a failure.
fn burst(server: &Server, seed: u64, tracer: &Tracer, report: &mut Report) {
    let limit = server.service.config().max_inflight.max(1);
    let width = limit as u64 + 1;
    for round in 0..BURST_ROUNDS {
        let start = std::sync::Barrier::new(width as usize);
        let replies: Vec<_> = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..width)
                .map(|i| {
                    let start = &start;
                    scope.spawn(move || {
                        let request = round * width + i;
                        let q = cell(seed, BURST_STREAM + request);
                        start.wait();
                        let _s = tracer.span("service.client_request", None, request);
                        (q, client_request(&server.addr, &query(q)))
                    })
                })
                .collect();
            senders
                .into_iter()
                .map(|s| s.join().expect("burst threads do not panic"))
                .collect()
        });
        for (q, reply) in replies {
            let ok = match &reply {
                Ok((ServiceReply::Result { key, cached, .. }, _)) => {
                    *key == q.fingerprint() && !cached
                }
                Ok((ServiceReply::Busy { limit: l, .. }, _)) => *l == limit,
                Err(_) | Ok(_) => false,
            };
            report.check(ok, || format!("burst {:016x}: {reply:?}", q.fingerprint()));
        }
    }
}

/// This module's part of every traced run, on a service of its own:
/// in-process hits and misses, the wire codec on an in-memory buffer, a
/// traced closed-loop batch over the socket, whose replies are checked as
/// in the untraced run, then over-limit bursts for the admission path.
pub fn traced(args: &Args, tracer: &Tracer, report: &mut Report) {
    let server = start_counted(args.seed, report);
    measure_layers(args, tracer, &server, report);
    stop(server, report);
}

/// The measurements of [`traced`] against a running `server`.
fn measure_layers(args: &Args, tracer: &Tracer, server: &Server, report: &mut Report) {
    let service = &server.service;
    let cancel = Arc::new(AtomicBool::new(false));
    let hot = hot_cells(args.seed);

    let mut hit_s = Vec::new();
    for r in 0..IN_PROCESS_HITS {
        let q = hot[(r % HOT) as usize];
        let t0 = Instant::now();
        let reply = {
            let _s = tracer.span("service.query", None, r);
            service.query(&q, &cancel)
        };
        hit_s.push(t0.elapsed().as_secs_f64());
        let ok = matches!(&reply, ServiceReply::Result { record, cached: true, key }
            if server.hot.get(key) == Some(record));
        report.check(ok, || format!("in-process hit: {reply:?}"));
    }
    let mut miss_s = Vec::new();
    for r in 0..IN_PROCESS_MISSES {
        let q = cell(args.seed, IN_PROCESS_STREAM + r);
        let t0 = Instant::now();
        let reply = {
            let _s = tracer.span("service.query", None, IN_PROCESS_HITS + r);
            service.query(&q, &cancel)
        };
        miss_s.push(t0.elapsed().as_secs_f64());
        let ok = matches!(reply, ServiceReply::Result { cached: false, .. });
        report.check(ok, || format!("in-process miss: {reply:?}"));
    }

    // The wire path of a hit reply without a socket.
    let (key, record) = server.hot.iter().next().expect("the hot set is warm");
    let reply = ServiceReply::Result {
        record: record.clone(),
        key: *key,
        cached: true,
    };
    let mut wire_s = Vec::new();
    for r in 0..IN_PROCESS_HITS {
        let t0 = Instant::now();
        let root = tracer.span("wire.roundtrip", None, r);
        let json = {
            let _s = tracer.span("wire.to_json", root.id(), r);
            reply.to_json()
        };
        let mut buf = Vec::with_capacity(json.len() + 8);
        {
            let _s = tracer.span("wire.write_frame", root.id(), r);
            write_frame(&mut buf, json.as_bytes()).expect("writing to memory succeeds");
        }
        let payload = {
            let _s = tracer.span("wire.read_frame", root.id(), r);
            read_frame(&mut Cursor::new(&buf))
        };
        let parsed = {
            let _s = tracer.span("wire.parse", root.id(), r);
            payload
                .ok()
                .flatten()
                .and_then(|p| String::from_utf8(p).ok())
                .and_then(|text| ServiceReply::parse(&text).ok())
        };
        drop(root);
        wire_s.push(t0.elapsed().as_secs_f64());
        report.check(parsed.as_ref() == Some(&reply), || {
            "wire round trip changed the reply".to_string()
        });
    }

    let batch_of = |k: u64, _: usize, _: usize| k < TRACED_BATCH;
    let before = service.stats();
    let batch = closed_loop(server, args.seed, TRACED_FRESH_STREAM, tracer, &batch_of);
    let after = service.stats();
    record_batch(report, &batch);
    burst(server, args.seed, tracer, report);
    let after_burst = service.stats();

    let hit_p50_s = median(&hit_s);
    let tcp_hit_p50_s = if batch.hits.is_empty() {
        f64::NAN
    } else {
        median(&batch.hits)
    };
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let conn_overhead_ms = 1e3 * (tcp_hit_p50_s - hit_p50_s);
    println!(
        "service_mix traced: in-process hit p50 {:.3} us over {IN_PROCESS_HITS} calls, \
         TCP hit p50 {:.3} ms over {} requests; connection overhead / in-process hit = {:.0}x",
        1e6 * hit_p50_s,
        1e3 * tcp_hit_p50_s,
        batch.hits.len(),
        conn_overhead_ms * 1e3 / (1e6 * hit_p50_s),
    );
    report.metric("service.query_hit_us", 1e6 * hit_p50_s, "us");
    report.metric("service.conn_overhead_ms", conn_overhead_ms, "ms");
    report.metric("wire.roundtrip_us", 1e6 * median(&wire_s), "us");
    report.metric(
        "service.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let burst_busy = after_burst.busy - after.busy;
    let burst_queries = after_burst.queries - after.queries;
    println!(
        "service_mix traced: {burst_busy} of {burst_queries} burst queries refused busy \
         (bursts of {} against an admission limit of {})",
        service.config().max_inflight.max(1) + 1,
        service.config().max_inflight.max(1),
    );
    report.metric(
        "service.busy_frac",
        burst_busy as f64 / burst_queries.max(1) as f64,
        "ratio",
    );
    report.metric("service.query_miss_ms", 1e3 * median(&miss_s), "ms");
    report.metric(
        "stealing.tasks_stolen",
        (after.stolen - before.stolen) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_draws_one_fresh_cell_in_five() {
        let fresh = (0..10_000)
            .filter(|&k| plan(7, k % 2, k / 2, FRESH_STREAM).0)
            .count();
        assert_eq!(fresh, 2_000);
        let keys: std::collections::BTreeSet<u64> =
            hot_cells(7).iter().map(StudyQuery::fingerprint).collect();
        assert_eq!(keys.len(), HOT as usize);
    }
}
