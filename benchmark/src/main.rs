//! The HyperTester benchmark.
//!
//! Two ways in:
//!
//! * `--workload W --seed S --seconds N --trace 0|1` runs one workload in
//!   this process and prints, as the last line of stdout, one JSON object
//!   `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//!   metrics untraced (`--trace 0`), the per-layer metrics from traced reps
//!   (`--trace 1`).
//! * without `--workload` it is the suite: it re-executes itself once per
//!   workload (one child at a time, so peak RSS is per workload), prints
//!   every metric by name with its unit, and writes raw samples and
//!   quartiles under `benchmark/results/`.  `--repeat N` runs the set N
//!   times and compares; `--check` is the ~1/10-scale self-test.

mod front;
mod kernels;
mod metrics;
mod suite;
mod trace;
mod util;
mod workloads;

use metrics::{Def, Kind, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{summary, Json};
use workloads::{Rep, Scale, Workload};

/// Where results go, relative to the checkout root the benchmark runs from.
pub const RESULTS_DIR: &str = "benchmark/results";
/// Result digests recorded at known seeds: `workload scale seed digest`.
const EXPECTED_DIGESTS: &str = "benchmark/expected_digests.txt";
/// Timed reps of a run never fall below this, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `setup_s` is the median of between this many set-ups …
const MIN_SETUPS: usize = 5;
/// … and this many, as fit in half a second.
const MAX_SETUPS: usize = 51;

/// One reported metric: the samples it is the median of.
#[derive(Debug, Clone)]
struct Reported {
    def: &'static Def,
    samples: Vec<f64>,
}

impl Reported {
    fn new(name: &str, samples: Vec<f64>) -> Self {
        let def =
            metrics::def(name).unwrap_or_else(|| panic!("metric {name} is not in the tables"));
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        Reported { def, samples: samples.into_iter().map(|v| v + 0.0).collect() }
    }

    fn single(name: &str, value: f64) -> Self {
        Reported::new(name, vec![value])
    }

    fn value(&self) -> f64 {
        summary(&self.samples).median()
    }

    /// `metric<TAB>name<TAB>unit<TAB>kind<TAB>samples` — what the suite parses
    /// back from a child.
    fn line(&self) -> String {
        let kind = if self.def.kind == Kind::Exact { "exact" } else { "timed" };
        let samples: Vec<String> = self.samples.iter().map(f64::to_string).collect();
        format!("metric\t{}\t{}\t{kind}\t{}", self.def.name, self.def.unit, samples.join(","))
    }
}

fn expected_digest(w: Workload, scale: Scale, seed: u64) -> Option<u64> {
    let text = std::fs::read_to_string(EXPECTED_DIGESTS).ok()?;
    text.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == w.name() && f[1] == scale.name() && f[2].parse() == Ok(seed))
            .then(|| u64::from_str_radix(f[3], 16).ok())
            .flatten()
    })
}

/// Operations attempted and failed over a run, with the digest discipline:
/// every rep's digest equals the first rep's and, where one is recorded for
/// this seed, the recorded one.  A rep whose digest is off fails all its
/// operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Tally {
    fn add(&mut self, rep: &Rep, expected: Option<u64>) {
        self.attempted += rep.attempted;
        let reference = *self.digest.get_or_insert(rep.digest);
        let off = rep.digest != reference || expected.is_some_and(|e| e != rep.digest);
        if off {
            eprintln!(
                "failed: digest {:016x}, expected {:016x}",
                rep.digest,
                expected.unwrap_or(reference)
            );
        }
        self.failed += if off { rep.attempted } else { rep.failed };
        for why in &rep.failures {
            eprintln!("failed: {why}");
        }
    }

    /// A failed check of the benchmark's own (an exact metric that did not
    /// repeat), counted as one more operation.
    fn fail(&mut self, why: String) {
        eprintln!("failed: {why}");
        self.attempted += 1;
        self.failed += 1;
    }
}

struct ChildArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Exactly this many timed reps (pairs, when tracing) instead of
    /// filling `seconds`.
    reps: Option<usize>,
    scale: Scale,
}

/// Whether another rep fits the run's budget.
fn more(args: &ChildArgs, done: usize, since: Instant) -> bool {
    match args.reps {
        Some(n) => done < n,
        None => done < MIN_REPS || since.elapsed().as_secs_f64() < args.seconds,
    }
}

fn lookup(values: &[(&'static str, f64)], name: &str) -> f64 {
    values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

/// Untraced run: one discarded warm-up rep, then timed reps.
fn run_untraced(args: &ChildArgs, tally: &mut Tally) -> Vec<Reported> {
    let expected = expected_digest(args.workload, args.scale, args.seed);
    let mut run = || {
        let rep = args.workload.rep(args.seed, args.scale, &mut Tracer::new(false));
        tally.add(&rep, expected);
        rep
    };
    run();
    // Set-up is timed on its own, back to back, so that the heap churn a
    // whole rep leaves behind (page faults on re-grown arenas) stays out.
    let since = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && since.elapsed().as_secs_f64() < 0.5)
    {
        let t = Instant::now();
        args.workload.setup_only(args.seed, args.scale);
        setups.push(t.elapsed().as_secs_f64());
    }
    let since = Instant::now();
    let mut reps = Vec::new();
    while more(args, reps.len(), since) {
        reps.push(run());
    }
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    vec![
        Reported::new("wall_s", col(|r| r.wall_s)),
        Reported::new("work_per_s", col(|r| r.work as f64 / r.core_s)),
        Reported::single("peak_rss_mb", util::peak_rss_mb()),
        Reported::new("setup_s", setups),
    ]
}

/// Traced run: a warm-up, then (untraced, traced) pairs.  Layer times are
/// medians over the traced reps; counts come from the first traced rep and
/// must repeat in every other; the untraced reps give the tracing overhead
/// and the workload-specific end-to-end values.  Isolated kernels run last.
fn run_traced(args: &ChildArgs, tally: &mut Tally) -> Vec<Reported> {
    let w = args.workload;
    let expected = expected_digest(w, args.scale, args.seed);
    tally.add(&w.rep(args.seed, args.scale, &mut Tracer::new(false)), expected);

    let since = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Vec<(&'static str, f64)>)> = Vec::new();
    let mut first_trace = None;
    while more(args, traced.len(), since) {
        let rep = w.rep(args.seed, args.scale, &mut Tracer::new(false));
        tally.add(&rep, expected);
        plain.push(rep);
        let mut tr = Tracer::new(true);
        let rep = w.rep(args.seed, args.scale, &mut tr);
        tally.add(&rep, expected);
        let derived = metrics::derive(&rep, &tr);
        traced.push((rep, derived));
        first_trace.get_or_insert(tr);
    }

    let mut values: Vec<Reported> = Vec::new();
    for (i, &(name, first)) in traced[0].1.iter().enumerate() {
        let col: Vec<f64> = traced.iter().map(|(_, d)| d[i].1).collect();
        if metrics::def(name).is_some_and(|d| d.kind == Kind::Exact) {
            if col.iter().any(|&v| v != first) {
                tally.fail(format!("{name} did not repeat exactly: {col:?}"));
            }
            values.push(Reported::single(name, first));
        } else {
            values.push(Reported::new(name, col));
        }
    }
    for (name, ns) in kernels::run(w, args.seed, args.scale, &traced[0].0) {
        values.push(Reported::single(name, ns));
    }

    let median_core =
        |reps: Vec<&Rep>| summary(&reps.iter().map(|r| r.core_s).collect::<Vec<_>>()).median();
    let core_traced = median_core(traced.iter().map(|(r, _)| r).collect());
    let core_plain = median_core(plain.iter().collect());
    values.push(Reported::single(
        "bench.trace_overhead_pct",
        100.0 * (core_traced / core_plain - 1.0),
    ));

    // The end-to-end metrics only some workloads have, from the untraced
    // reps; *simulated* ones repeat exactly and are read off the first.
    let col = |f: &dyn Fn(&Rep) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    values.push(Reported::new("e2e.sim_us_per_s", col(&|r| r.sim_us / r.core_s)));
    values.push(Reported::new(
        "e2e.speedup_e2",
        col(&|r| {
            let e2 = lookup(&r.timed, "e2_run_s");
            if e2 > 0.0 {
                lookup(&r.timed, "e1_run_s") / e2
            } else {
                0.0
            }
        }),
    ));
    let latencies: Vec<f64> = plain.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    let (p50, p99) = if latencies.is_empty() {
        (0.0, 0.0)
    } else {
        let s = summary(&latencies);
        (s.median(), s.quantile(0.99))
    };
    values.push(Reported::single("e2e.task_p50_us", p50));
    values.push(Reported::single("e2e.task_p99_us", p99));
    values.push(Reported::single("e2e.task_samples", latencies.len() as f64));
    for (metric, source) in
        [("e2e.model_err_pct", "model_err_pct"), ("e2e.ratectl_mae_ns", "ratectl_mae_ns")]
    {
        let col = col(&|r| lookup(&r.exact, source));
        if col.iter().any(|&v| v != col[0]) {
            tally.fail(format!("{metric} did not repeat exactly: {col:?}"));
        }
        values.push(Reported::single(metric, col[0]));
    }
    // Exact results that are no metric of their own (accept/refuse counts).
    for &(name, v) in &plain[0].exact {
        if metrics::def(&format!("e2e.{name}")).is_none() {
            println!("info\t{name}\t{v}");
        }
    }

    let trace_file = format!("{RESULTS_DIR}/trace-{}.json", w.name());
    let trace_json = first_trace.expect("at least one traced rep").to_json(w.name()).render();
    if let Err(e) = std::fs::write(&trace_file, trace_json) {
        tally.fail(format!("cannot write {trace_file}: {e}"));
    }

    // Every per-layer metric, in table order; a layer the workload bypasses
    // reads 0.
    PER_LAYER
        .iter()
        .map(|d| {
            values
                .iter()
                .find(|r| r.def.name == d.name)
                .cloned()
                .unwrap_or_else(|| Reported::single(d.name, 0.0))
        })
        .collect()
}

/// Runs one workload in this process; the last stdout line is the result.
fn child(args: &ChildArgs) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR) {
        eprintln!("cannot create {RESULTS_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut tally = Tally::default();
    let reported =
        if args.trace { run_traced(args, &mut tally) } else { run_untraced(args, &mut tally) };
    for r in &reported {
        println!("{}", r.line());
    }
    println!(
        "tally\t{}\t{}\t{:016x}",
        tally.attempted,
        tally.failed,
        tally.digest.unwrap_or_default()
    );
    let metrics = reported
        .iter()
        .map(|r| {
            let value = Json::obj([
                ("value", Json::Num(r.value())),
                ("unit", Json::Str(r.def.unit.into())),
            ]);
            (r.def.name.to_string(), value)
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Int(tally.attempted)),
        ("failed", Json::Int(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark/run.sh [--seed S] [--repeat N] [--check]\n  \
         benchmark/run.sh --workload W --seed S --seconds N --trace 0|1\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut reps, mut scale, mut repeat, mut emit) = (None, Scale::Full, 1usize, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let parsed = match flag.as_str() {
            "--check" => {
                scale = Scale::Check;
                true
            }
            "--emit-benchmark-json" => {
                emit = true;
                true
            }
            flag => match (flag, it.next().map(String::as_str)) {
                ("--workload", Some(v)) => Workload::parse(v).map(|w| workload = Some(w)).is_some(),
                ("--seed", Some(v)) => v.parse().map(|v| seed = v).is_ok(),
                ("--seconds", Some(v)) => v.parse().map(|v| seconds = v).is_ok(),
                ("--reps", Some(v)) => v.parse().map(|v| reps = Some(v)).is_ok(),
                ("--repeat", Some(v)) => v.parse().map(|v| repeat = v).is_ok(),
                ("--trace", Some(v @ ("0" | "1"))) => {
                    trace = v == "1";
                    true
                }
                ("--scale", Some(v @ ("full" | "check"))) => {
                    scale = if v == "full" { Scale::Full } else { Scale::Check };
                    true
                }
                _ => false,
            },
        };
        if !parsed {
            return usage();
        }
    }
    if emit {
        println!("{}", suite::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    match workload {
        Some(workload) => child(&ChildArgs { workload, seed, seconds, trace, reps, scale }),
        None => suite::run(seed, repeat.max(1), scale),
    }
}
