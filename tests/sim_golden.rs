//! Golden `SimStats` for the out-of-order core.
//!
//! Every counter of a short run of each of the 24 benchmarks on:
//!
//! * the healthy L1D and every distinct repaired L1D that the Table 6 rows
//!   map onto under YAPD, VACA and the Hybrid (through `canonical_l1d`);
//! * naive binning (all ways at 5 cycles, scheduler assuming 5);
//! * 1 and 4 MSHRs, and store-to-load forwarding, on the healthy L1D.
//!
//! `tests/fixtures/sim_golden.txt` holds the expected counters. Any change
//! to the core must reproduce it bit for bit; on a mismatch the test prints
//! the table it measured.

use std::collections::BTreeSet;
use yield_aware_cache::core::perf::table6_row_order;
use yield_aware_cache::prelude::*;

const WARMUP: u64 = 800;
const MEASURE: u64 = 2_700;
const TRACE_SEED: u64 = 2006;
const FIXTURE: &str = include_str!("fixtures/sim_golden.txt");

/// `4445-1110`: per-way latency, then per-way enabled flag.
fn shape_name(l1d: &CacheConfig) -> String {
    let lat: String = l1d.way_latency.iter().map(u32::to_string).collect();
    let on: String = l1d
        .way_enabled
        .iter()
        .map(|&on| if on { '1' } else { '0' })
        .collect();
    format!("{lat}-{on}")
}

/// The repaired L1Ds Table 6 simulates, deduplicated the way its memo is.
/// Scheme applicability mirrors `yac_core::perf::table6`.
fn table6_shapes() -> Vec<CacheConfig> {
    let mut seen = BTreeSet::new();
    let mut shapes = Vec::new();
    let mut add = |cfg: CacheConfig| {
        if seen.insert((cfg.way_latency.clone(), cfg.way_enabled.clone())) {
            shapes.push(cfg);
        }
    };
    add(CacheConfig::l1d_paper());
    for census in table6_row_order() {
        if census.ways_5 + census.ways_6_plus <= 1 {
            add(canonical_l1d(census, true)); // YAPD
        }
        if census.ways_6_plus == 0 && !census.all_fast() {
            add(canonical_l1d(census, false)); // VACA
        }
        if census.ways_6_plus <= 1 {
            let disable = census.ways_6_plus > 0 || census.all_fast();
            add(canonical_l1d(census, disable)); // Hybrid
        }
    }
    shapes
}

fn configs() -> Vec<(String, PipelineConfig, CacheConfig)> {
    let paper = PipelineConfig::paper;
    let mut out: Vec<_> = table6_shapes()
        .into_iter()
        .map(|l1d| (shape_name(&l1d), paper(), l1d))
        .collect();

    let mut naive_l1d = CacheConfig::l1d_paper();
    naive_l1d.way_latency = vec![5; naive_l1d.ways];
    let mut naive = paper();
    naive.assumed_load_latency = 5;
    out.push(("naive".into(), naive, naive_l1d));

    for mshrs in [1, 4] {
        let mut cfg = paper();
        cfg.mshrs = mshrs;
        out.push((format!("mshrs{mshrs}"), cfg, CacheConfig::l1d_paper()));
    }

    let mut fwd = paper();
    fwd.store_forwarding = true;
    out.push(("forwarding".into(), fwd, CacheConfig::l1d_paper()));
    out
}

fn render(bench: &str, config: &str, s: &SimStats) -> String {
    format!(
        "{bench} {config} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.cycles,
        s.committed,
        s.replays,
        s.bypass_stalls,
        s.mispredicts,
        s.branches,
        s.loads,
        s.l1d_load_hits,
        s.fetch_stall_cycles,
        s.dispatch_stalls,
        s.forwarded_loads,
        s.mshr_stall_cycles,
    )
}

fn measure() -> Vec<String> {
    let configs = configs();
    let profiles = spec2000::all_profiles();
    let jobs: Vec<_> = profiles
        .iter()
        .flat_map(|p| configs.iter().map(move |c| (p, c)))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_worker = jobs.len().div_ceil(workers);
    let mut lines = vec![String::new(); jobs.len()];
    std::thread::scope(|scope| {
        for (chunk, jobs) in lines.chunks_mut(per_worker).zip(jobs.chunks(per_worker)) {
            scope.spawn(move || {
                for (line, &(profile, (name, pipeline, l1d))) in chunk.iter_mut().zip(jobs) {
                    let mut hier = HierarchyConfig::paper();
                    hier.l1d = l1d.clone();
                    let mem = MemoryHierarchy::new(hier).expect("valid hierarchy");
                    let mut cpu = Pipeline::new(pipeline.clone(), mem).expect("valid pipeline");
                    let trace = TraceGenerator::new(profile.clone(), TRACE_SEED);
                    let stats = cpu.run(trace, WARMUP, MEASURE);
                    *line = render(profile.name, name, &stats);
                }
            });
        }
    });
    lines
}

#[test]
fn sim_stats_match_the_golden_fixture() {
    let header = "# bench config cycles committed replays bypass_stalls mispredicts branches \
                  loads l1d_load_hits fetch_stall_cycles dispatch_stalls forwarded_loads \
                  mshr_stall_cycles";
    let actual = measure();
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let diffs: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != *e)
        .map(|(a, e)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    if !diffs.is_empty() || actual.len() != expected.len() {
        println!("{header}");
        for line in &actual {
            println!("{line}");
        }
        panic!(
            "{} of {} runs differ from the fixture ({} lines); first:\n{}",
            diffs.len(),
            actual.len(),
            expected.len(),
            diffs.iter().take(5).cloned().collect::<Vec<_>>().join("\n")
        );
    }
}
