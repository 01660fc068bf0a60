//! The committed reference: deterministic counts per workload and seed
//! (`reference.txt` beside the manifest), compiled into the binary.
//!
//! A run whose seed the reference covers must reproduce every count it
//! makes exactly; a seed it does not cover skips this check only. Count
//! keys are unique across workloads, so a traced run, which measures the
//! layers of every workload, looks each count up under any workload.

use crate::Report;
use std::fmt::Write as _;
use std::ops::RangeInclusive;

const REFERENCE: &str = include_str!("../reference.txt");

/// Looks up `<any workload> seed key` in the reference.
fn lookup(seed: u64, key: &str) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let _workload = f.next()?;
        let hit = f.next()?.parse::<u64>().ok()? == seed && f.next()? == key;
        if hit {
            f.next()?.parse().ok()
        } else {
            None
        }
    })
}

/// Compares the run's counts with the reference: one checked operation,
/// failed if any covered count differs.
pub fn compare(seed: u64, report: &mut Report) {
    let mut covered = 0;
    let mut mismatches = Vec::new();
    for (key, value) in &report.counts {
        if let Some(want) = lookup(seed, key) {
            covered += 1;
            if want != *value {
                mismatches.push(format!("{key}: reference {want}, measured {value}"));
            }
        }
    }
    if covered == 0 {
        println!("reference: seed {seed} not covered");
        return;
    }
    println!(
        "reference: {covered} counts compared, {} differ",
        mismatches.len()
    );
    report.check(mismatches.is_empty(), || {
        format!("reference counts differ: {}", mismatches.join("; "))
    });
}

/// Computes the reference file for `seeds`: every deterministic count of
/// every workload, traced-only counts included.
#[must_use]
pub fn generate(seeds: RangeInclusive<u64>) -> String {
    let mut out = String::from(
        "# Deterministic counts per workload and seed: workload seed key value.\n\
         # Regenerate with: cargo run --release --manifest-path yacbench/Cargo.toml -- \
         --write-reference <first> <last>\n",
    );
    for seed in seeds {
        for (workload, counts) in [
            ("table6", crate::table6::reference_counts(seed)),
            ("yield_study", crate::yield_study::reference_counts(seed)),
            ("service_mix", crate::service_mix::reference_counts(seed)),
        ] {
            for (key, value) in counts {
                let _ = writeln!(out, "{workload} {seed} {key} {value}");
            }
        }
        eprintln!("reference: seed {seed} done");
    }
    out
}
