//! The suite: every workload once, each in a child process, with the
//! report, the results files, `--repeat` comparison and the self-checks.

use crate::metrics::{END_TO_END, PASSES, PER_LAYER};
use crate::util::{summary, Json};
use crate::workloads::{Scale, Workload};
use crate::RESULTS_DIR;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
const RUN_SECONDS: u64 = 10;
/// Timed reps per workload of a suite run (then one traced pair).
const SUITE_REPS: usize = 5;

/// `BENCHMARK.json`, generated from the metric and workload tables so the
/// two cannot drift (`run.sh --emit-benchmark-json`; the suite checks the
/// file on disk against it).
pub fn benchmark_json() -> Json {
    let better = |higher: bool| Json::Str(if higher { "higher" } else { "lower" }.into());
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::Str("bash".into()), Json::Str("benchmark/run.sh".into())]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::Str(d.name.into())),
                            ("unit", Json::Str(d.unit.into())),
                            ("better", better(d.higher)),
                            ("bound", Json::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::Str(d.name.into())),
                            ("unit", Json::Str(d.unit.into())),
                            ("better", better(d.higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One metric as parsed back from a child's `metric` line.
#[derive(Debug, Clone)]
struct Parsed {
    name: String,
    unit: String,
    exact: bool,
    samples: Vec<f64>,
    /// Median of `samples`.
    value: f64,
}

impl Parsed {
    /// First and third quartile of the samples.
    fn quartiles(&self) -> (f64, f64) {
        let s = summary(&self.samples);
        (s.quantile(0.25), s.quantile(0.75))
    }
}

/// What one workload produced: both children's metrics and tallies.
#[derive(Debug, Default)]
struct WorkloadOut {
    metrics: Vec<Parsed>,
    attempted: u64,
    failed: u64,
    digest: String,
    /// Other results worth showing (`tasks_accepted = 921`).
    info: Vec<String>,
}

impl WorkloadOut {
    fn get(&self, name: &str) -> Option<&Parsed> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(f64::NAN, |m| m.value)
    }
}

fn parse_metric(line: &str) -> Option<Parsed> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 5 || f[0] != "metric" {
        return None;
    }
    let samples: Vec<f64> = f[4].split(',').filter_map(|s| s.parse().ok()).collect();
    (!samples.is_empty()).then(|| Parsed {
        name: f[1].into(),
        unit: f[2].into(),
        exact: f[3] == "exact",
        value: summary(&samples).median(),
        samples,
    })
}

/// Runs one child to completion and folds its output into `out`.  Returns
/// whether the child itself succeeded.
fn run_child(w: Workload, seed: u64, scale: Scale, trace: bool, out: &mut WorkloadOut) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let reps = match (scale, trace) {
        (Scale::Full, false) => SUITE_REPS,
        _ => 1,
    };
    let child = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string(), "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--reps", &reps.to_string()])
        .args(["--scale", scale.name()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output();
    let child = match child {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot run {}: {e}", w.name());
            return false;
        }
    };
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut tallied = false;
    for line in stdout.lines() {
        if let Some(m) = parse_metric(line) {
            out.metrics.push(m);
        } else if let Some(rest) = line.strip_prefix("tally\t") {
            let f: Vec<&str> = rest.split('\t').collect();
            if f.len() == 3 {
                out.attempted += f[0].parse::<u64>().unwrap_or(0);
                out.failed += f[1].parse::<u64>().unwrap_or(1);
                out.digest = f[2].into();
                tallied = true;
            }
        } else if let Some(rest) = line.strip_prefix("info\t") {
            out.info.push(rest.replace('\t', " = "));
        }
    }
    child.status.success() && tallied
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

fn print_workload(w: Workload, out: &WorkloadOut) {
    println!(
        "\n== {}  attempted {}  failed {}  fail_share {}  digest {}",
        w.name(),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.digest
    );
    for line in &out.info {
        println!("  {line}");
    }
    for m in &out.metrics {
        let alias =
            if m.name == "work_per_s" { format!(" ({})", w.work_alias()) } else { String::new() };
        let spread = if m.samples.len() > 1 {
            let (q1, q3) = m.quartiles();
            format!("  [q1 {} q3 {} n {}]", fmt_value(q1), fmt_value(q3), m.samples.len())
        } else {
            String::new()
        };
        let kind = match END_TO_END.iter().find(|d| d.name == m.name) {
            Some(d) => format!("bound {:.0}%", d.bound * 100.0),
            None if m.exact => "exact".into(),
            None => String::new(),
        };
        println!(
            "  {:<44} {:>16} {:<6}{spread}  {kind}",
            format!("{}{alias}", m.name),
            fmt_value(m.value),
            m.unit
        );
    }
}

fn results_json(seed: u64, scale: Scale, set: &[(Workload, WorkloadOut)]) -> Json {
    let runs = set
        .iter()
        .map(|(w, out)| {
            let metrics = out
                .metrics
                .iter()
                .map(|m| {
                    let (q1, q3) = m.quartiles();
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.clone())),
                            ("exact", Json::Bool(m.exact)),
                            ("q1", Json::Num(q1)),
                            ("q3", Json::Num(q3)),
                            ("samples", Json::nums(&m.samples)),
                        ]),
                    )
                })
                .collect();
            Json::obj([
                ("workload", Json::Str(w.name().into())),
                ("attempted", Json::Int(out.attempted)),
                ("failed", Json::Int(out.failed)),
                ("digest", Json::Str(out.digest.clone())),
                ("metrics", Json::Obj(metrics)),
            ])
        })
        .collect();
    Json::obj([
        ("seed", Json::Int(seed)),
        ("scale", Json::Str(scale.name().into())),
        (
            "host_threads",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

/// Checks of the benchmark itself: the tables match the product and the
/// file the driver reads, and the workloads bypass the layers they claim to.
fn self_checks(set: &[(Workload, WorkloadOut)]) -> Vec<String> {
    let mut problems = Vec::new();
    if hypertester::ntapi::pass_names() != PASSES {
        problems.push(format!("lowering passes changed: {:?}", hypertester::ntapi::pass_names()));
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(on_disk) if on_disk.trim() != benchmark_json().render_pretty().trim() => problems
            .push("BENCHMARK.json differs from the tables (run.sh --emit-benchmark-json)".into()),
        _ => {}
    }
    for (w, out) in set {
        let must_be_zero: &[&str] = match w {
            Workload::RingPartitioned => &["asic.switch.busy_s", "asic.exec.ops_retired"],
            Workload::FrontendMix | Workload::FpPrecompute => &["asic.sim.events"],
            _ => &[],
        };
        for name in must_be_zero {
            if out.value(name) != 0.0 {
                problems.push(format!("{}: {name} = {}, predicted 0", w.name(), out.value(name)));
            }
        }
        for d in END_TO_END.iter() {
            if out.value(d.name).partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                problems.push(format!("{}: {} = {}", w.name(), d.name, out.value(d.name)));
            }
        }
        // The layers' self-times must account for the traced rep.
        if out.value("bench.unattributed_pct").partial_cmp(&5.0) != Some(std::cmp::Ordering::Less) {
            problems.push(format!(
                "{}: {}% of the traced rep is under no span",
                w.name(),
                out.value("bench.unattributed_pct")
            ));
        }
        if out.metrics.len() != END_TO_END.len() + PER_LAYER.len() {
            problems.push(format!("{}: {} metrics reported", w.name(), out.metrics.len()));
        }
    }
    problems
}

/// Compares a later set against the first: any `exact` difference is a
/// failure; timed end-to-end medians print their relative difference
/// beside the bound.
fn compare(
    first: &[(Workload, WorkloadOut)],
    later: &[(Workload, WorkloadOut)],
    round: usize,
) -> u64 {
    let mut mismatches = 0;
    println!("\n== run {round} vs run 1");
    for ((w, a), (_, b)) in first.iter().zip(later) {
        if a.digest != b.digest {
            println!("  {:<18} digest {} vs {}  EXACT MISMATCH", w.name(), b.digest, a.digest);
            mismatches += 1;
        }
        for m in a.metrics.iter().filter(|m| m.exact) {
            // NaN (a missing metric) differs from everything.
            if b.value(&m.name) != m.value {
                println!(
                    "  {:<18} {:<40} {} vs {}  EXACT MISMATCH",
                    w.name(),
                    m.name,
                    b.value(&m.name),
                    m.value
                );
                mismatches += 1;
            }
        }
        for d in END_TO_END.iter() {
            let (va, vb) = (a.value(d.name), b.value(d.name));
            let worse = if d.higher { (va - vb) / va } else { (vb - va) / va };
            println!(
                "  {:<18} {:<12} {:>14} vs {:>14}  {:+6.2}% worse  (bound {:.0}%){}",
                w.name(),
                d.name,
                fmt_value(vb),
                fmt_value(va),
                worse * 100.0,
                d.bound * 100.0,
                if worse > d.bound { "  OVER BOUND" } else { "" }
            );
        }
    }
    println!("  {mismatches} exact mismatch(es)");
    mismatches
}

pub fn run(seed: u64, repeat: usize, scale: Scale) -> ExitCode {
    let started = Instant::now();
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR) {
        eprintln!("cannot create {RESULTS_DIR}: {e}");
        return ExitCode::from(2);
    }
    let build_s = std::env::var("HT_BENCHMARK_BUILD_S").unwrap_or_else(|_| "?".into());
    let mut problems: u64 = 0;
    let mut sets: Vec<Vec<(Workload, WorkloadOut)>> = Vec::new();
    for round in 1..=repeat {
        println!(
            "# HyperTester benchmark: seed {seed}, scale {}, run {round} of {repeat}; \
             build (cargo build --release --offline --locked) took {build_s} s",
            scale.name()
        );
        let mut set = Vec::new();
        for w in Workload::ALL {
            let mut out = WorkloadOut::default();
            for trace in [false, true] {
                if !run_child(w, seed, scale, trace, &mut out) {
                    eprintln!("{}: child (trace {}) failed", w.name(), u8::from(trace));
                    problems += 1;
                }
            }
            print_workload(w, &out);
            problems += out.failed;
            set.push((w, out));
        }
        for p in self_checks(&set) {
            println!("self-check failed: {p}");
            problems += 1;
        }
        let suffix = if round == 1 { String::new() } else { format!(".run{round}") };
        let file = match scale {
            Scale::Full => format!("{RESULTS_DIR}/seed-{seed}{suffix}.json"),
            Scale::Check => format!("{RESULTS_DIR}/check-seed-{seed}{suffix}.json"),
        };
        if let Err(e) = std::fs::write(&file, results_json(seed, scale, &set).render()) {
            eprintln!("cannot write {file}: {e}");
            problems += 1;
        }
        sets.push(set);
    }
    for (i, later) in sets.iter().enumerate().skip(1) {
        problems += compare(&sets[0], later, i + 1);
    }
    println!(
        "\n{} in {:.1} s; results under {RESULTS_DIR}/",
        if problems == 0 {
            "all checks passed".to_string()
        } else {
            format!("{problems} problem(s)")
        },
        started.elapsed().as_secs_f64()
    );
    if problems == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
