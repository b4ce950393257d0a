//! The `htctl bench` command-line front end: the one way to run the
//! suite or a `--filter`ed part of it.
//!
//! Exit-code contract (the same one `htctl lint --json` documents):
//! `0` success, `1` failures (checks, panics, regressions, IO), `2`
//! usage errors.

use crate::report::{compare_to_baseline, BenchReport};
use crate::runner::run_suite;
use crate::{Experiment, Scale};
use std::time::Instant;

/// Parsed `bench` options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Worker threads (default: available parallelism).
    pub workers: usize,
    /// Simulation engine threads per world (default 1: serial loop).
    /// `N > 1` funds a shared pool of `N - 1` extra engine tokens that
    /// `SimThreads::Auto` worlds draw from, so experiment-level and
    /// engine-level parallelism share one budget.
    pub sim_threads: usize,
    /// Run scale.
    pub scale: Scale,
    /// Emit the JSON report on stdout (progress moves to stderr).
    pub json: bool,
    /// Write the JSON report to this path.
    pub out: Option<String>,
    /// Compare result digests and event counts against this committed
    /// baseline (an exact gate: any difference fails the run).
    pub baseline: Option<String>,
    /// Write/refresh the markdown run ledger in this file.
    pub md: Option<String>,
    /// Only run experiments whose name contains this substring.
    pub filter: Option<String>,
    /// List experiment names and exit.
    pub list: bool,
    /// Pipeline executor for every experiment in the run.
    pub exec: ht_asic::ExecMode,
    /// Render per-experiment profile counters into the JSON report.
    pub profile: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            sim_threads: 1,
            scale: Scale::Full,
            json: false,
            out: None,
            baseline: None,
            md: None,
            filter: None,
            list: false,
            exec: ht_asic::ExecMode::default(),
            profile: false,
        }
    }
}

/// Usage text for the `bench` subcommand.
pub const BENCH_USAGE: &str = "usage: bench [--smoke] [--workers N] [--sim-threads N] [--json] \
     [--out FILE] [--baseline FILE] [--md FILE] [--filter SUBSTR] [--list] \
     [--exec interp|compiled|vector] [--profile]";

/// Parses `bench` arguments.  Unknown flags are usage errors.
pub fn parse_bench_args(args: &[String]) -> Result<BenchOpts, String> {
    let mut o = BenchOpts::default();
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => o.scale = Scale::Smoke,
            "--json" => o.json = true,
            "--list" => o.list = true,
            "--workers" => {
                o.workers = value(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_string())?;
                if o.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--sim-threads" => {
                o.sim_threads = value(&mut it, "--sim-threads")?
                    .parse()
                    .map_err(|_| "--sim-threads needs an integer".to_string())?;
                if o.sim_threads == 0 {
                    return Err("--sim-threads must be at least 1".into());
                }
            }
            "--out" => o.out = Some(value(&mut it, "--out")?),
            "--baseline" => o.baseline = Some(value(&mut it, "--baseline")?),
            "--md" => o.md = Some(value(&mut it, "--md")?),
            "--filter" => o.filter = Some(value(&mut it, "--filter")?),
            "--profile" => o.profile = true,
            "--exec" => {
                let v = value(&mut it, "--exec")?;
                o.exec = ht_asic::ExecMode::parse(&v)
                    .ok_or(format!("--exec must be `interp`, `compiled` or `vector`, got `{v}`"))?;
            }
            other => return Err(format!("unknown bench flag: {other}")),
        }
    }
    Ok(o)
}

const MD_BEGIN: &str = "<!-- BEGIN GENERATED (htctl bench) -->";
const MD_END: &str = "<!-- END GENERATED (htctl bench) -->";

/// Splices the generated run ledger into `existing` between the
/// generated-section markers (appending the section if absent).
pub fn splice_markdown(existing: &str, ledger: &str) -> String {
    let section = format!("{MD_BEGIN}\n\n## Run ledger (generated)\n\n{ledger}\n{MD_END}");
    if let (Some(b), Some(e)) = (existing.find(MD_BEGIN), existing.find(MD_END)) {
        if b < e {
            let mut s = existing[..b].to_string();
            s.push_str(&section);
            s.push_str(&existing[e + MD_END.len()..]);
            return s;
        }
    }
    let mut s = existing.to_string();
    if !s.is_empty() && !s.ends_with('\n') {
        s.push('\n');
    }
    s.push('\n');
    s.push_str(&section);
    s.push('\n');
    s
}

/// Runs the full bench front end and returns the process exit code.
pub fn bench_cli(args: &[String], suite: Vec<Box<dyn Experiment>>) -> i32 {
    let opts = match parse_bench_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{BENCH_USAGE}");
            return 2;
        }
    };
    bench_main(&opts, suite)
}

/// Runs the suite under `opts` and returns the process exit code.
pub fn bench_main(opts: &BenchOpts, suite: Vec<Box<dyn Experiment>>) -> i32 {
    let suite: Vec<Box<dyn Experiment>> = match &opts.filter {
        Some(f) => suite.into_iter().filter(|e| e.name().contains(f.as_str())).collect(),
        None => suite,
    };
    if opts.list {
        println!("{:<24} {:<9} {:>6} {:>5}  title", "name", "group", "shards", "facts");
        for e in &suite {
            let shards = match e.shards(opts.scale).len() {
                0 => "-".to_string(),
                n => n.to_string(),
            };
            let facts = if e.analysis_facts() { "yes" } else { "-" };
            println!("{:<24} {:<9} {:>6} {:>5}  {}", e.name(), e.group(), shards, facts, e.title());
        }
        return 0;
    }
    if suite.is_empty() {
        eprintln!("error: no experiments match the filter");
        return 1;
    }

    // Fund the engine-token pool that `SimThreads::Auto` worlds draw from.
    ht_asic::parallel::budget::configure(opts.sim_threads.saturating_sub(1));
    // Every switch built via `ht_core::build` picks this up.
    ht_asic::exec::set_default_mode(opts.exec);

    // With --json on stdout, progress must not pollute the report.
    let progress_to_stderr = opts.json && opts.out.is_none();
    // A filtered human-readable run is someone regenerating a table or
    // figure: show it, not just its verdict.
    let show_output = opts.filter.is_some() && !opts.json;
    let start = Instant::now();
    let results = run_suite(&suite, opts.workers, opts.scale, |p| {
        let line = format!(
            "[{:>2}/{}] {:<24} {:>8.1} ms  {}",
            p.done,
            p.total,
            p.name,
            p.wall_ms,
            if p.ok { "ok" } else { "FAIL" }
        );
        if progress_to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
        if show_output {
            for line in &p.output.lines {
                println!("{line}");
            }
            println!();
            for c in &p.output.checks {
                println!("{} {}: {}", if c.pass { "PASS" } else { "FAIL" }, c.name, c.detail);
            }
        }
    });
    let report = BenchReport {
        scale: opts.scale,
        workers: opts.workers,
        exec: opts.exec.as_str().into(),
        profile: opts.profile,
        wall_ms_total: start.elapsed().as_secs_f64() * 1e3,
        results,
    };

    let json = report.to_json();
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
    }
    if opts.json && opts.out.is_none() {
        print!("{json}");
    }

    if let Some(path) = &opts.md {
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let spliced = splice_markdown(&existing, &report.to_markdown());
        if let Err(e) = std::fs::write(path, spliced) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
    }

    let mut code = 0;
    for r in &report.results {
        if !r.ok {
            code = 1;
            if let Some(p) = &r.panicked {
                eprintln!("FAIL {}: panicked: {p}", r.name);
            }
            for c in r.output.checks.iter().filter(|c| !c.pass) {
                eprintln!("FAIL {}: {}: {}", r.name, c.name, c.detail);
            }
        }
    }

    if let Some(path) = &opts.baseline {
        match std::fs::read_to_string(path) {
            Ok(base) => {
                for reg in compare_to_baseline(&report, &base) {
                    if reg.fatal {
                        eprintln!("REGRESSION: {}", reg.message);
                        code = 1;
                    } else {
                        eprintln!("note: {}", reg.message);
                    }
                }
            }
            Err(e) => {
                eprintln!("error: reading baseline {path}: {e}");
                code = 1;
            }
        }
    }

    if !opts.json {
        let passed = report.results.iter().filter(|r| r.ok).count();
        println!(
            "\n{passed}/{} experiments passed in {:.1} s ({} workers, {} scale)",
            report.results.len(),
            report.wall_ms_total / 1e3,
            report.workers,
            report.scale.name(),
        );
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_flags() {
        let args: Vec<String> = [
            "--smoke",
            "--workers",
            "4",
            "--sim-threads",
            "2",
            "--json",
            "--exec",
            "interp",
            "--profile",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_bench_args(&args).unwrap();
        assert_eq!(o.scale, Scale::Smoke);
        assert_eq!(o.workers, 4);
        assert_eq!(o.sim_threads, 2);
        assert!(o.json);
        assert_eq!(o.exec, ht_asic::ExecMode::Interp);
        assert!(o.profile);
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(parse_bench_args(&["--bogus".to_string()]).is_err());
        assert!(parse_bench_args(&["--workers".to_string(), "zero".to_string()]).is_err());
        assert!(parse_bench_args(&["--sim-threads".to_string(), "0".to_string()]).is_err());
        assert!(parse_bench_args(&["--exec".to_string(), "jit".to_string()]).is_err());
    }

    #[test]
    fn markdown_splice_replaces_only_the_generated_section() {
        let doc = "# Title\n\nprose\n";
        let once = splice_markdown(doc, "ledger v1\n");
        assert!(once.contains("prose"));
        assert!(once.contains("ledger v1"));
        let twice = splice_markdown(&once, "ledger v2\n");
        assert!(twice.contains("ledger v2"));
        assert!(!twice.contains("ledger v1"));
        assert_eq!(twice.matches("Run ledger").count(), 1);
    }
}
