//! The robustness layer end to end: deterministic fault injection, the
//! quarantine ledger, and checkpoint/resume of a killed study.
//!
//! Usage: `cargo run --release --example robustness [checkpoint_path]`

use yield_aware_cache::prelude::*;

fn main() {
    // A study where 5% of the dies come out of the fab corrupted: NaN
    // threshold voltages, infinite metal widths, -40-sigma tails, chips
    // dropped outright.
    let plan = FaultPlan::new(0.05, 1).expect("rate in [0, 1]");
    let mut cfg = PopulationConfig::paper(2006);
    cfg.chips = 400;
    cfg.faults = Some(plan);

    let population = Population::generate_with(&cfg);
    println!(
        "generated {} chips: {} classified, {} quarantined",
        cfg.chips,
        population.len(),
        population.quarantine().len()
    );
    for entry in population.quarantine().entries().iter().take(3) {
        println!("  {entry}");
    }
    println!(
        "  ... exactly the planned ones: {}\n",
        population.quarantine().indices() == plan.injected_indices(cfg.seed, cfg.chips)
    );

    // The quarantined chips surface in the loss table instead of
    // poisoning it.
    let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
    println!("{}", render_loss_table(&table2(&population, &constraints)));

    // Checkpoint/resume on one worker with 50-chip shards: simulate a
    // kill after 3 shards (150 chips), then resume. The resumed
    // population is identical to the uninterrupted one.
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("robustness-example.ckpt"));
    let _ = std::fs::remove_file(&path);
    let mut exec = ExecutorConfig::with_workers(1);
    exec.shard_chips = 50;
    let killed = run_checkpointed_workers_budget(&cfg, &exec, &path, 1, Some(3))
        .expect("checkpointing works");
    println!(
        "killed after 150 chips: complete = {} (checkpoint at {})",
        killed.is_some(),
        path.display()
    );
    match run_checkpointed_workers(&cfg, &exec, &path, 1) {
        Ok(resumed) => {
            let resumed = resumed.population;
            let same = resumed.chips == population.chips
                && resumed.quarantine() == population.quarantine();
            println!("resumed to completion: identical to uninterrupted run = {same}");
        }
        Err(e) => println!("resume failed: {e}"),
    }

    // Typed errors: the taxonomy reports *what* was violated.
    println!("\ntyped errors:");
    println!("  {}", FaultPlan::new(1.5, 0).unwrap_err());
    let mut other = cfg.clone();
    other.seed = 9;
    match run_checkpointed_workers(&other, &exec, &path, 1) {
        Ok(_) => println!("  (unexpected: mismatched checkpoint accepted)"),
        Err(e) => println!("  {e}"),
    }
    let _ = std::fs::remove_file(&path);
}
