//! # Yield-Aware Cache Architectures
//!
//! A Rust reproduction of *Yield-Aware Cache Architectures* (Ozdemir,
//! Sinha, Memik, Adams, Zhou — MICRO 2006), complete with every substrate
//! the paper's evaluation depends on:
//!
//! * [`variation`] — spatially-correlated process-variation sampling and
//!   Monte Carlo population generation (§2–3 of the paper);
//! * [`circuit`] — an analytical SRAM timing/leakage model of the 16 KB
//!   4-way cache (the HSPICE substitute, §3);
//! * [`cache`] — functional cache models with way power-down, the H-YAPD
//!   diagonal decoder remap and per-way latencies (§4);
//! * [`workload`] — deterministic synthetic SPEC2000-like traces (§5.2);
//! * [`pipeline`] — a cycle-level out-of-order core with speculative
//!   scheduling, load-bypass buffers and selective replay (the
//!   SimpleScalar substitute, §4.3/§5.2);
//! * [`core`] — the paper's contribution: the YAPD, H-YAPD, VACA and
//!   Hybrid schemes, yield constraints and the full experiment suite
//!   (Tables 2–6, Figures 8–10);
//! * [`obs`] — zero-cost-when-off observability: the metrics registry,
//!   phase timers and benchmark run manifests every layer above reports
//!   into (DESIGN.md §9).
//!
//! # Quick start
//!
//! Reproduce the heart of the paper — how many chips each scheme saves:
//!
//! ```
//! use yield_aware_cache::prelude::*;
//!
//! // 1. Manufacture a (small, for doc-test speed) population of chips.
//! let population = Population::generate(300, 2006);
//!
//! // 2. Derive the paper's yield constraints from the population.
//! let constraints = YieldConstraints::derive(&population, ConstraintSpec::NOMINAL);
//!
//! // 3. Ask each scheme to rescue the failing chips.
//! let table = table2(&population, &constraints);
//! println!("{}", render_loss_table(&table));
//!
//! // The Hybrid dominates: it loses no more chips than YAPD or VACA.
//! let hybrid_losses = table.schemes[2].losses.total();
//! assert!(hybrid_losses <= table.schemes[0].losses.total());
//! assert!(hybrid_losses <= table.schemes[1].losses.total());
//! ```

#![warn(missing_docs)]

pub use yac_cache as cache;
pub use yac_circuit as circuit;
pub use yac_core as core;
pub use yac_obs as obs;
pub use yac_pipeline as pipeline;
pub use yac_variation as variation;
pub use yac_workload as workload;

/// The most commonly used types and functions, re-exported flat.
pub mod prelude {
    pub use yac_cache::{AccessKind, CacheConfig, HierarchyConfig, MemoryHierarchy, SetAssocCache};
    pub use yac_circuit::{CacheCircuitModel, CacheCircuitResult, CacheVariant};
    pub use yac_core::perf::{
        canonical_l1d, render_table6, suite_degradation, table6, PerfOptions,
    };
    pub use yac_core::{
        classify, constraint_sweep, fig8_scatter, full_study, full_study_supervised,
        render_constraint_sweep, render_loss_table, run_checkpointed_workers,
        run_checkpointed_workers_budget, run_supervised, run_sweep, table2, table3, yield_interval,
        ChaosPlan, ChipSample, ConstraintSpec, DegradedShard, DisabledUnit, ExecutorConfig,
        FullStudy, HYapd, Hybrid, HybridPolicy, LossReason, MeasurementError, NaiveBinning,
        Population, PopulationConfig, PowerDownKind, QuarantineLedger, RepairedCache, Scheme,
        SchemeOutcome, ShardFaultPlan, StudyError, StudyOutcome, SweepConfig, SweepGrid,
        SweepOutcome, Vaca, WayCycleCensus, Yapd, YieldConstraints, YieldInterval,
    };
    pub use yac_obs::{Metric, Phase, Registry, RunManifest};
    pub use yac_pipeline::{Pipeline, PipelineConfig, SimStats};
    pub use yac_variation::{CacheVariation, FaultPlan, MonteCarlo, Parameter, VariationConfig};
    pub use yac_workload::{spec2000, BenchmarkProfile, MicroOp, OpClass, TraceGenerator};
}
