//! The repository's benchmark: drives the yield-aware cache
//! reproduction from outside, through the public functions of its
//! crates, and prints every metric of one workload.
//!
//! ```text
//! yacbench --workload <table6|yield_study|service_mix> --seed <n>
//!          --seconds <s> --trace <0|1>
//! yacbench --write-reference <first-seed> <last-seed>
//! ```
//!
//! With `--trace 0` the run is untraced, with the program's own
//! observability (`yac_obs`) off, and prints the workload's end-to-end
//! metrics. With `--trace 1` it records spans around each layer call and
//! prints the per-layer metrics: every traced run measures every layer,
//! whichever workload it names, and runs that workload's own operation
//! traced and untraced to check that both agree. Either way the last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.
//! See `README.md` beside this file for what each metric means.

mod measure;
mod reference;
mod service_mix;
mod table6;
mod trace;
mod yield_study;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Parsed command line of one measured run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed all inputs are made from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one run found: checks, metrics, and the deterministic counts
/// compared against the committed reference.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (each one checked).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed their check.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Deterministic counts: `(key, value)`.
    pub counts: Vec<(String, u64)>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Adds a deterministic count (printed once the run ends).
    pub fn count(&mut self, key: impl Into<String>, value: u64) {
        self.counts.push((key.into(), value));
    }
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["table6", "yield_study", "service_mix"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: yacbench --workload <table6|yield_study|service_mix> --seed <n> \
         --seconds <s> --trace <0|1>\n       yacbench --write-reference <first> <last>"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => trace = Some(matches!(value.as_str(), "1" | "true")),
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace.unwrap_or(false),
    })
}

/// Where span files go: under the build directory, which the checkout
/// ignores.
fn spans_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("yacbench/target"), PathBuf::from);
    target.join("yacbench-spans")
}

fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        let range: Option<(u64, u64)> = argv
            .get(1)
            .zip(argv.get(2))
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
        let Some((first, last)) = range else {
            return usage();
        };
        print!("{}", reference::generate(first..=last));
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    // End-to-end numbers are taken with the program's own metrics
    // registry and event journal off (they are off by default; this
    // makes it explicit).
    yac_obs::disable();
    yac_obs::trace_disable();
    let tracer = Tracer::new(args.trace);
    println!(
        "yacbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let workload = args.workload.as_str();
    if !WORKLOADS.contains(&workload) {
        return usage();
    }
    let mut report = if args.trace {
        let mut report = Report::default();
        table6::traced(&args, &tracer, workload == "table6", &mut report);
        yield_study::traced(&args, &tracer, workload == "yield_study", &mut report);
        service_mix::traced(&args, &tracer, &mut report);
        report
    } else {
        match workload {
            "table6" => table6::run(&args, &tracer),
            "yield_study" => yield_study::run(&args),
            _ => service_mix::run(&args),
        }
    };
    for (key, value) in &report.counts {
        println!("count {key} = {value}");
    }
    reference::compare(args.seed, &mut report);
    let unmeasured: Vec<String> = report
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(name, _, _)| name.clone())
        .collect();
    report.metrics.retain(|(_, v, _)| v.is_finite());
    for name in unmeasured {
        report.check(false, || format!("metric {name} is not finite"));
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if tracer.enabled() {
        let spans = tracer.spans();
        for (name, (total, own)) in trace::self_times(&spans) {
            println!("span {name}: total {total:.6} s, self {own:.6} s");
        }
        report.metric("trace.overhead_s", trace::overhead_s(&spans), "s");
        let dir = spans_dir();
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, trace::spans_json(&args.workload, args.seed, &spans))
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

/// Load threads the benchmark may use: the machine's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
