//! Enabling event tracing must never change a study's results: the
//! journal is observation only, exactly like the metrics registry.
//! These tests run the same study with the global journal off and on
//! and require bit-identical outputs — including on the supervised
//! parallel executor, whose shard lifecycle is the most heavily traced
//! path — and then check the trace actually captured that lifecycle.

use std::sync::Mutex;
use yac_core::{
    run_supervised, suite_cpis_isolated, table2, ConstraintSpec, ExecutorConfig, PerfOptions,
    Population, PopulationConfig, YieldConstraints,
};
use yac_obs::{ndjson, perfetto, TraceEventKind};
use yac_pipeline::PipelineConfig;

/// The tests in this file toggle the process-global journal (and read
/// the global registry), so they must not interleave with each other.
static GLOBAL_JOURNAL: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_JOURNAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Supervised 4-worker study with tracing off vs. on: the merged
/// population and the loss table are bit-identical, per the acceptance
/// criterion that tracing changes no study result.
#[test]
fn supervised_loss_tables_identical_with_tracing_on_and_off() {
    let _lock = serialized();
    let mut cfg = PopulationConfig::paper(2006);
    cfg.chips = 300;
    let exec = ExecutorConfig::with_workers(4);

    yac_obs::trace_disable();
    let off = run_supervised(&cfg, &exec)
        .expect("valid config")
        .population;
    let c_off = YieldConstraints::derive(&off, ConstraintSpec::NOMINAL);
    let t2_off = table2(&off, &c_off);

    yac_obs::enable(); // metrics on top of tracing: the worst case
    yac_obs::trace_enable();
    let on = run_supervised(&cfg, &exec)
        .expect("valid config")
        .population;
    let c_on = YieldConstraints::derive(&on, ConstraintSpec::NOMINAL);
    let t2_on = table2(&on, &c_on);
    yac_obs::trace_disable();

    assert_eq!(off.chips, on.chips, "chips differ with tracing on");
    assert_eq!(off.quarantine(), on.quarantine());
    assert_eq!(t2_off, t2_on, "loss table differs with tracing on");
    // Per-chip figures are bit-identical, not merely close.
    for (a, b) in off.chips.iter().zip(&on.chips) {
        assert_eq!(a.regular.delay.to_bits(), b.regular.delay.to_bits());
        assert_eq!(a.regular.leakage.to_bits(), b.regular.leakage.to_bits());
    }
}

/// Serial study path: same guarantee.
#[test]
fn serial_loss_tables_identical_with_tracing_on_and_off() {
    let _lock = serialized();
    yac_obs::trace_disable();
    let pop_off = Population::generate(200, 7);
    let c_off = YieldConstraints::derive(&pop_off, ConstraintSpec::NOMINAL);
    let t2_off = table2(&pop_off, &c_off);

    yac_obs::trace_enable();
    let pop_on = Population::generate(200, 7);
    let c_on = YieldConstraints::derive(&pop_on, ConstraintSpec::NOMINAL);
    let t2_on = table2(&pop_on, &c_on);
    yac_obs::trace_disable();

    assert_eq!(pop_off.chips, pop_on.chips);
    assert_eq!(t2_off, t2_on);
}

/// Pipeline CPI simulation is unaffected by tracing.
#[test]
fn suite_cpis_identical_with_tracing_on_and_off() {
    let opts = PerfOptions {
        warmup_uops: 2_000,
        measure_uops: 5_000,
        trace_seed: 1,
    };
    let l1d = yac_cache::CacheConfig::l1d_paper();
    let pipeline = PipelineConfig::paper();

    let _lock = serialized();
    yac_obs::trace_disable();
    let (off, fail_off) = suite_cpis_isolated(&l1d, &pipeline, &opts);
    yac_obs::trace_enable();
    let (on, fail_on) = suite_cpis_isolated(&l1d, &pipeline, &opts);
    yac_obs::trace_disable();

    assert_eq!(fail_off, fail_on);
    assert_eq!(off.len(), on.len());
    for ((name_off, cpi_off), (name_on, cpi_on)) in off.iter().zip(&on) {
        assert_eq!(name_off, name_on);
        assert!(
            cpi_off.to_bits() == cpi_on.to_bits(),
            "{name_off}: CPI differs with tracing on ({cpi_off} vs {cpi_on})"
        );
    }
}

/// While enabled, a supervised 4-worker run actually lands in the
/// journal: shard lifecycle events with worker/shard/attempt context,
/// exportable to both formats.
#[test]
fn traced_supervised_run_captures_the_shard_lifecycle() {
    let _lock = serialized();
    let journal = yac_obs::journal();
    journal.clear();
    yac_obs::enable();
    yac_obs::trace_enable();
    let mut cfg = PopulationConfig::paper(11);
    cfg.chips = 256;
    let mut exec = ExecutorConfig::with_workers(4);
    exec.shard_chips = 32; // 8 shards across 4 workers
    let outcome = run_supervised(&cfg, &exec).expect("valid config");
    yac_obs::trace_disable();
    assert!(!outcome.is_degraded());

    let snap = journal.snapshot();
    let events: Vec<_> = snap.threads.iter().flat_map(|t| &t.events).collect();
    let count = |kind| events.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count(TraceEventKind::ShardDispatched), 8);
    assert_eq!(count(TraceEventKind::ShardCompleted), 8);
    // Every completion names its worker, shard and attempt.
    for e in events
        .iter()
        .filter(|e| e.kind == TraceEventKind::ShardCompleted)
    {
        assert!(e.ctx.worker.is_some_and(|w| w < 4), "worker ctx: {e:?}");
        assert!(e.ctx.shard.is_some_and(|s| s < 8), "shard ctx: {e:?}");
        assert_eq!(e.ctx.attempt, Some(0), "first attempt succeeded");
    }
    // Worker threads labelled themselves; every shard-exec span lives on
    // a worker track.
    let worker_tracks: Vec<_> = snap
        .threads
        .iter()
        .filter(|t| t.label.starts_with("worker-"))
        .collect();
    assert!(
        !worker_tracks.is_empty() && worker_tracks.len() <= 4,
        "worker tracks: {:?}",
        snap.threads.iter().map(|t| &t.label).collect::<Vec<_>>()
    );
    let exec_spans: usize = worker_tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| {
            matches!(e.kind, TraceEventKind::PhaseSpan(p) if p == yac_obs::Phase::ShardExec)
                && e.dur_ns > 0
        })
        .count();
    assert_eq!(exec_spans, 8, "one shard-exec span per shard attempt");

    // Both exports round-trip the run.
    let parsed = ndjson::parse_ndjson(&ndjson::to_ndjson(&snap)).expect("ndjson parses");
    assert_eq!(parsed.count_kind(TraceEventKind::ShardCompleted), 8);
    let chrome = perfetto::to_chrome_json(&snap);
    for track in &worker_tracks {
        assert!(chrome.contains(&format!("\"tid\":{}", track.slot)));
    }
    journal.clear();
}

/// A traced suite runs on the bounded batch pool: its 24 `pipeline_sim`
/// spans land on at most one journal thread per available core, so a
/// suite never spends one trace slot per benchmark.
#[test]
fn traced_suite_records_its_spans_on_a_bounded_set_of_threads() {
    let opts = PerfOptions {
        warmup_uops: 2_000,
        measure_uops: 5_000,
        trace_seed: 3,
    };
    let l1d = yac_cache::CacheConfig::l1d_paper();
    let pipeline = PipelineConfig::paper();

    let _lock = serialized();
    let journal = yac_obs::journal();
    journal.clear();
    yac_obs::trace_enable();
    let (cpis, failures) = suite_cpis_isolated(&l1d, &pipeline, &opts);
    yac_obs::trace_disable();
    assert!(failures.is_empty(), "{failures:?}");

    let snap = journal.snapshot();
    let sim_spans = |t: &yac_obs::trace::ThreadTrace| {
        t.events
            .iter()
            .filter(|e| e.kind == TraceEventKind::PhaseSpan(yac_obs::Phase::PipelineSim))
            .count()
    };
    let spans: usize = snap.threads.iter().map(sim_spans).sum();
    let threads = snap.threads.iter().filter(|t| sim_spans(t) > 0).count();
    assert_eq!(spans, cpis.len(), "one pipeline_sim span per benchmark");
    assert_eq!(snap.dropped_events, 0);
    let bound = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(24);
    assert!(
        (1..=bound).contains(&threads),
        "{spans} pipeline_sim spans on {threads} journal threads (bound {bound})"
    );
    journal.clear();
}
