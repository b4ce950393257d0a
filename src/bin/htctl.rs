//! `htctl` — the HyperTester command line.
//!
//! ```text
//! htctl compile [--json] [--dump-ir[=PASS]] <task.nt>
//!                                         validate a task; print the summary,
//!                                         or the IR module after the named
//!                                         lowering pass (default: all passes)
//! htctl lint [--json] <task.nt>           static verification; exit 1 on
//!                                         error diagnostics
//! htctl analyze [--json] [--dump-facts=PASS] <task.nt>
//!                                         abstract-interpretation report:
//!                                         fixpoint stats, certified no-wrap
//!                                         registers, and the full lint
//!                                         findings; `--dump-facts` prints
//!                                         one fact view (value, liveness,
//!                                         reachability, salu-range)
//! htctl fuzz [--cases N] [--seed S] [--corpus DIR] [--json]
//!                                         grammar-driven differential fuzz
//!                                         of the analysis pipeline; exit 1
//!                                         and write minimized
//!                                         counterexamples on any violation
//! htctl p4 <task.nt>                      emit the generated P4 program
//! htctl loc <task.nt>                     NTAPI vs generated-P4 line counts
//! htctl run [--json] <task.nt> [--ports N] [--speed GBPS] [--duration MS]
//!           [--copies N] [--exec interp|compiled|vector]
//!                                         run against a sink testbed and
//!                                         print throughput + query results
//! htctl bench [--smoke] [--workers N] [--json] [--out FILE]
//!             [--baseline FILE] [--md FILE] [--filter SUBSTR] [--list]
//!             [--exec interp|compiled|vector] [--profile]
//!                                         run the experiment suite on the
//!                                         parallel harness; write BENCH.json
//! ```
//!
//! Every subcommand follows the same exit-code contract: `0` success, `1`
//! failures (diagnostics, failed checks, regressions, IO), `2` usage
//! errors.
//!
//! Argument parsing is hand-rolled (the workspace keeps its dependency set
//! to the simulation essentials).

use hypertester::asic::time::ms;
use hypertester::asic::{LinkSpec, Switch, World};
use hypertester::bench::fuzz;
use hypertester::cpu::SwitchCpu;
use hypertester::dut::Sink;
use hypertester::ht::{build, query_result, BuildError, Gbps, QueryResult, TesterConfig};
use hypertester::ir::report_json;
use hypertester::lint::{
    analyze_switch, dump_facts, json_escape, proven_nowrap_regs, Diagnostic, LintReport,
    FACT_PASSES,
};
use hypertester::ntapi::{
    codegen, compile, loc, lower_with, pass_names, resolve_file, CompileOptions, CompiledTask,
    NtapiError, Program, ResolveFailure,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  htctl compile [--json] [--dump-ir[=PASS]] [-I DIR] [--param K=V] <task.nt>\n  \
         htctl lint [--json] [-I DIR] [--param K=V] <task.nt>\n  \
         htctl analyze [--json] [--dump-facts=PASS] [-I DIR] [--param K=V] <task.nt>\n  \
         htctl fuzz [--cases N] [--seed S] [--corpus DIR] [--json]\n  \
         htctl p4 <task.nt>\n  htctl loc <task.nt>\n  \
         htctl run [--json] <task.nt> [--ports N] [--speed GBPS] [--duration MS] [--copies N]\n              \
         [--exec interp|compiled|vector]\n  \
         htctl bench [--smoke] [--workers N] [--json] [--out FILE]\n              \
         [--baseline FILE] [--md FILE] [--filter SUBSTR] [--list]\n              \
         [--exec interp|compiled|vector] [--profile]"
    );
    ExitCode::from(2)
}

/// The front-end configuration shared by every `.nt`-consuming
/// subcommand: the `-I` module search path and `--param NAME=VALUE`
/// overrides.
#[derive(Default, Clone)]
struct Fe {
    search: Vec<PathBuf>,
    params: Vec<(String, String)>,
}

impl Fe {
    /// Resolves the task file (imports, params, templates) into a flat
    /// program.  Resolve failures render with `file:line:col` and a
    /// caret-underlined snippet.
    fn load_program(&self, path: &str) -> Result<Program, String> {
        resolve_file(path, &self.search, &self.params).map_err(|e| e.to_string())
    }

    fn load(&self, path: &str) -> Result<(String, CompiledTask), String> {
        let prog = self.load_program(path)?;
        let src = prog.source.clone().unwrap_or_default();
        let task = compile(&prog).map_err(|e| render_reject(&prog, &e))?;
        Ok((src, task))
    }

    /// Consumes a `-I`/`--param` flag with its value; `false` when the
    /// flag is not a front-end flag or its value is malformed/missing.
    fn take_flag(&mut self, flag: &str, val: Option<&String>) -> bool {
        match (flag, val) {
            ("-I", Some(dir)) => {
                self.search.push(PathBuf::from(dir));
                true
            }
            ("--param", Some(kv)) => match kv.split_once('=') {
                Some((k, v)) if !k.is_empty() => {
                    self.params.push((k.to_string(), v.to_string()));
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }
}

/// Renders a compile-time rejection, pointing at the blamed source span
/// when the program retains one.
fn render_reject(prog: &Program, e: &NtapiError) -> String {
    match e.blame_span(prog) {
        Some(sp) if sp.snippet.is_empty() => {
            format!("task rejected: {e}\n  --> {}", sp.render())
        }
        Some(sp) => format!("task rejected: {e}\n  --> {}\n{}", sp.render(), sp.snippet),
        None => format!("task rejected: {e}"),
    }
}

/// A resolve failure as a uniform `LintReport` diagnostic (for `htctl
/// lint`/`analyze`, whose outputs are diagnostic lists).
fn resolve_diag(failure: &ResolveFailure) -> Diagnostic {
    let mut d = Diagnostic::error(
        failure.error.rule,
        "task",
        failure.error.message.clone(),
        failure.error.hint.clone(),
    );
    if let Some(f) = failure.sources.file(failure.error.span.file) {
        d = d.with_span(hypertester::ir::SourceSpan {
            file: f.name.clone(),
            line: failure.error.span.line,
            col: failure.error.span.col,
            snippet: failure.sources.snippet(failure.error.span).unwrap_or_default(),
        });
    }
    d
}

fn template_kind(t: &hypertester::ntapi::compile::TemplateSpec) -> String {
    match (&t.source_query, t.interval, &t.interval_dist) {
        (Some(q), _, _) => format!("stateless (fires on {q})"),
        (None, Some(iv), _) => format!("interval {} ns", iv / 1000),
        (None, None, Some(_)) => "random interval".into(),
        (None, None, None) => "line rate".into(),
    }
}

fn cmd_compile(fe: &Fe, path: &str, json: bool) -> Result<(), String> {
    let (_, task) = fe.load(path)?;
    if json {
        let templates: Vec<String> = task
            .templates
            .iter()
            .map(|t| {
                format!(
                    "{{\"id\":{},\"trigger\":\"{}\",\"frame_len\":{},\"ports\":{:?},\
                     \"edits\":{},\"kind\":\"{}\"}}",
                    t.id,
                    json_escape(&t.trigger_name),
                    t.frame_len,
                    t.ports,
                    t.edits.len(),
                    json_escape(&template_kind(t))
                )
            })
            .collect();
        let queries: Vec<String> = task
            .queries
            .iter()
            .map(|q| {
                format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\"}}",
                    json_escape(&q.name),
                    json_escape(&format!("{:?}", q.kind))
                )
            })
            .collect();
        let warnings: Vec<String> = task.warnings.iter().map(Diagnostic::to_json).collect();
        println!(
            "{{\"file\":\"{}\",\"ok\":true,\"templates\":[{}],\"queries\":[{}],\"warnings\":[{}]}}",
            json_escape(path),
            templates.join(","),
            queries.join(","),
            warnings.join(",")
        );
        return Ok(());
    }
    println!("task OK: {} trigger(s), {} quer(ies)", task.templates.len(), task.queries.len());
    for w in &task.warnings {
        println!("  {w}");
    }
    for t in &task.templates {
        println!(
            "  template {:>2} {:<4} {:>5} B, ports {:?}, {} edit(s), {}",
            t.id,
            t.trigger_name,
            t.frame_len,
            t.ports,
            t.edits.len(),
            template_kind(t)
        );
    }
    for q in &task.queries {
        let fp =
            q.fp.as_ref()
                .map(|f| {
                    format!(", {} exact-match entries over {} keys", f.entries.len(), f.space_size)
                })
                .unwrap_or_default();
        println!("  query {:<4} {:?}{fp}", q.name, q.kind);
    }
    Ok(())
}

/// Prints the IR module as lowered up to `stop_after` (all passes when
/// `None`), as deterministic text or JSON.
fn cmd_dump_ir(fe: &Fe, path: &str, json: bool, stop_after: Option<&str>) -> Result<(), String> {
    let prog = fe.load_program(path)?;
    let (module, trace, _) = lower_with(&prog, CompileOptions::default(), stop_after)
        .map_err(|e| render_reject(&prog, &e))?;
    let last = trace.runs.last().map(|r| r.name).unwrap_or("");
    if json {
        println!(
            "{{\"file\":\"{}\",\"ok\":true,\"pass\":\"{}\",\"ir\":{}}}",
            json_escape(path),
            json_escape(last),
            module.to_json()
        );
    } else {
        println!("# IR after pass {last}");
        print!("{}", module.to_text());
    }
    Ok(())
}

/// The tester configuration a task is linted and analyzed on: enough
/// ports for the task's replication sets, at 100 Gbps.
fn task_config(task: &CompiledTask) -> Result<TesterConfig, String> {
    let ports =
        task.templates.iter().flat_map(|t| t.ports.iter().copied()).max().map_or(1, |p| p + 1);
    TesterConfig::builder().ports(ports).speed(Gbps(100)).build().map_err(|e| e.to_string())
}

/// Builds the findings for one task file: task-level warnings from the
/// compiler, plus the program-level passes over the built switch, which it
/// hands back when the build succeeded.  A compile or build failure that
/// is *not* a lint rejection is reported as a single `compile-error`
/// diagnostic so the output stays uniform.
fn lint_findings(fe: &Fe, path: &str) -> Result<(LintReport, Option<Switch>), String> {
    let mut report = LintReport::new();
    let prog = match resolve_file(path, &fe.search, &fe.params) {
        Ok(p) => p,
        Err(failure) => {
            report.push(resolve_diag(&failure));
            return Ok((report, None));
        }
    };
    let task = match compile(&prog) {
        Ok(t) => t,
        Err(NtapiError::Lint(diags)) => {
            report.diagnostics.extend(diags);
            return Ok((report, None));
        }
        Err(e) => {
            let mut d = Diagnostic::error("compile-error", path, e.to_string(), "");
            if let Some(sp) = e.blame_span(&prog) {
                d = d.with_span(sp);
            }
            report.push(d);
            return Ok((report, None));
        }
    };
    report.diagnostics.extend(task.warnings.clone());
    let built = match build(&task, &task_config(&task)?) {
        // The build already ran the program passes once; reuse its report.
        Ok(tester) => {
            report.merge(tester.lint);
            Some(tester.switch)
        }
        Err(BuildError::Lint(diags)) => {
            report.diagnostics.extend(diags);
            None
        }
        Err(e) => {
            report.push(Diagnostic::error("compile-error", path, e.to_string(), ""));
            None
        }
    };
    Ok((report, built))
}

fn cmd_lint(fe: &Fe, path: &str, json: bool) -> Result<bool, String> {
    let (report, _) = lint_findings(fe, path)?;
    if json {
        println!("{}", report_json(path, &report));
    } else {
        println!("{path}: {report}");
    }
    Ok(report.has_errors())
}

/// Builds the task's switch program, configured like [`lint_findings`],
/// for the fact dumps.
fn build_switch(fe: &Fe, path: &str) -> Result<Switch, String> {
    let (_, task) = fe.load(path)?;
    let tester = build(&task, &task_config(&task)?).map_err(|e| e.to_string())?;
    Ok(tester.switch)
}

/// `htctl analyze`: the dataflow-analysis view of a task.  `--dump-facts`
/// prints one deterministic fact table (the name is checked against
/// [`FACT_PASSES`] while parsing arguments); otherwise prints fixpoint stats,
/// certified no-wrap registers, and the full lint report (`--json` shares
/// the `htctl lint --json` serializer).  The view solves the dataflow once.
fn cmd_analyze(fe: &Fe, path: &str, json: bool, dump: Option<&str>) -> Result<bool, String> {
    if let Some(pass) = dump {
        let sw = build_switch(fe, path)?;
        let a = analyze_switch(&sw)
            .ok_or_else(|| format!("{path}: analysis diverged; no {pass} facts to dump"))?;
        let text = dump_facts(&sw, &a, pass).expect("fact pass names are checked while parsing");
        print!("{text}");
        return Ok(false);
    }
    let (report, built) = lint_findings(fe, path)?;
    if json {
        println!("{}", report_json(path, &report));
        return Ok(report.has_errors());
    }
    // On a build failure the diagnostics below already explain why.
    if let Some(sw) = built {
        match analyze_switch(&sw) {
            Some(a) => {
                let (vi, li) = a.iterations();
                println!(
                    "{path}: fixpoint in {vi} value / {li} liveness iteration(s){}",
                    if a.has_back_edge() { " (recirculation back edge, widened)" } else { "" }
                );
                let names: Vec<&str> =
                    proven_nowrap_regs(&sw, &a).iter().map(|&r| sw.regs.array(r).name()).collect();
                println!(
                    "{path}: certified no-wrap registers: {}",
                    if names.is_empty() { "(none)".into() } else { names.join(", ") }
                );
            }
            None => println!("{path}: analysis diverged; syntactic passes only"),
        }
    }
    println!("{path}: {report}");
    Ok(report.has_errors())
}

/// `htctl fuzz`: runs the grammar-driven differential campaign and writes
/// minimized counterexamples into the corpus directory.  Exit 1 on any
/// violation.
fn cmd_fuzz(cases: u64, seed: u64, corpus: Option<&str>, json: bool) -> Result<bool, String> {
    let report = fuzz::run_fuzz(cases, seed);
    let mut written: Vec<String> = Vec::new();
    if let Some(dir) = corpus {
        for f in &report.failures {
            let path = fuzz::write_corpus_entry(std::path::Path::new(dir), f)
                .map_err(|e| format!("{dir}: {e}"))?;
            written.push(path.display().to_string());
        }
    }
    if json {
        let failures: Vec<String> = report
            .failures
            .iter()
            .map(|f| {
                format!(
                    "{{\"case\":{},\"invariant\":\"{}\",\"detail\":\"{}\",\"minimized\":\"{}\"}}",
                    f.case_index,
                    f.violation.invariant,
                    json_escape(&f.violation.detail),
                    json_escape(&f.minimized.to_line())
                )
            })
            .collect();
        println!(
            "{{\"cases\":{},\"seed\":{},\"accepted\":{},\"rejected\":{},\"failures\":[{}]}}",
            report.cases,
            seed,
            report.accepted,
            report.rejected,
            failures.join(",")
        );
    } else {
        println!(
            "fuzz: {} case(s), seed {}: {} accepted, {} rejected, {} counterexample(s)",
            report.cases,
            seed,
            report.accepted,
            report.rejected,
            report.failures.len()
        );
        for (i, f) in report.failures.iter().enumerate() {
            println!(
                "  [{}] case {} invariant {}: {}",
                i + 1,
                f.case_index,
                f.violation.invariant,
                f.violation.detail
            );
            println!("      minimized: {}", f.minimized.to_line());
            if let Some(p) = written.get(i) {
                println!("      written to {p}");
            }
        }
    }
    Ok(!report.failures.is_empty())
}

fn cmd_p4(path: &str) -> Result<(), String> {
    let (_, task) = Fe::default().load(path)?;
    print!("{}", codegen::generate_p4(&task));
    Ok(())
}

fn cmd_loc(path: &str) -> Result<(), String> {
    let (src, task) = Fe::default().load(path)?;
    let p4 = codegen::generate_p4(&task);
    println!("NTAPI: {} LoC", loc::count_loc(&src));
    println!("P4   : {} LoC (generated)", loc::count_loc(&p4));
    Ok(())
}

struct RunOpts {
    ports: u16,
    speed_gbps: u64,
    duration_ms: u64,
    copies: Option<usize>,
    exec: hypertester::asic::ExecMode,
    json: bool,
}

fn cmd_run(path: &str, opts: RunOpts) -> Result<(), String> {
    let (_, task) = Fe::default().load(path)?;
    // `build()` leaves the switch on the configured executor.
    let config = TesterConfig::builder()
        .ports(opts.ports)
        .speed(Gbps(opts.speed_gbps))
        .exec(opts.exec)
        .build()
        .map_err(|e| e.to_string())?;
    let mut tester = build(&task, &config).map_err(|e| e.to_string())?;
    let speed_bps = Gbps(opts.speed_gbps).bps();
    let mut templates = Vec::new();
    for i in 0..tester.templates.len() {
        let copies = opts.copies.unwrap_or_else(|| tester.copies_for_line_rate(i, speed_bps));
        templates.extend(tester.template_copies(i, copies));
    }
    if !opts.json {
        println!(
            "running {} template packet(s) on {} × {} G for {} ms…",
            templates.len(),
            opts.ports,
            opts.speed_gbps,
            opts.duration_ms
        );
    }

    let mut world = World::builder().seed(1).build().map_err(|e| e.to_string())?;
    let sw = world.add_device(Box::new(tester.switch));
    let sink = world.add_device(Box::new(Sink::new("sink")));
    for p in 0..opts.ports {
        world.link((sw, p), (sink, p), LinkSpec::new());
    }
    SwitchCpu::new().inject_templates(&mut world, sw, templates, 0);
    world.run_until(ms(opts.duration_ms));

    let s: &Sink = world.device(sink);
    let sw_ref: &Switch = world.device(sw);

    if opts.json {
        let ports: Vec<String> = (0..opts.ports)
            .map(|p| {
                let st = s.ports.get(&p).cloned().unwrap_or_default();
                format!(
                    "{{\"port\":{p},\"frames\":{},\"mpps\":{:.4},\"l2_gbps\":{:.4}}}",
                    st.frames,
                    st.pps() / 1e6,
                    st.l2_bps() / 1e9
                )
            })
            .collect();
        let mut queries = Vec::new();
        let mut names: Vec<&String> = tester.handles.queries.keys().collect();
        names.sort();
        for name in names {
            let h = &tester.handles.queries[name];
            let value = match query_result(sw_ref, h, None) {
                QueryResult::Global(v) => format!("{{\"kind\":\"global\",\"value\":{v}}}"),
                QueryResult::Distinct(d) => format!("{{\"kind\":\"distinct\",\"value\":{d}}}"),
                QueryResult::Keyed(m) => format!("{{\"kind\":\"keyed\",\"keys\":{}}}", m.len()),
            };
            queries.push(format!("{{\"name\":\"{}\",\"result\":{value}}}", json_escape(name)));
        }
        println!(
            "{{\"file\":\"{}\",\"ok\":true,\"ports\":[{}],\"queries\":[{}],\
             \"counters\":{{\"rx\":{},\"tx\":{},\"recirculations\":{},\
             \"ingress_drops\":{},\"egress_drops\":{}}}}}",
            json_escape(path),
            ports.join(","),
            queries.join(","),
            sw_ref.counters.rx_frames,
            sw_ref.counters.tx_frames,
            sw_ref.counters.recirculations,
            sw_ref.counters.ingress_drops,
            sw_ref.counters.egress_drops
        );
        return Ok(());
    }

    println!("\nper-port throughput:");
    for p in 0..opts.ports {
        if let Some(st) = s.ports.get(&p) {
            println!(
                "  port {p}: {:>10} frames, {:>8.2} Mpps, {:>7.2} Gbps L2",
                st.frames,
                st.pps() / 1e6,
                st.l2_bps() / 1e9
            );
        } else {
            println!("  port {p}: idle");
        }
    }

    if !tester.handles.queries.is_empty() {
        println!("\nquery results:");
        let mut names: Vec<&String> = tester.handles.queries.keys().collect();
        names.sort();
        for name in names {
            let h = &tester.handles.queries[name];
            match query_result(sw_ref, h, None) {
                QueryResult::Global(v) => println!("  {name}: {v}"),
                QueryResult::Distinct(d) => println!("  {name}: {d} distinct keys"),
                QueryResult::Keyed(m) => println!("  {name}: {} keys", m.len()),
            }
        }
    }
    println!(
        "\nswitch counters: rx {} tx {} recirc {} drops {}/{}",
        sw_ref.counters.rx_frames,
        sw_ref.counters.tx_frames,
        sw_ref.counters.recirculations,
        sw_ref.counters.ingress_drops,
        sw_ref.counters.egress_drops
    );
    Ok(())
}

/// Maps a command result to the exit-code contract, emitting errors as a
/// JSON object on stdout when `--json` was requested.
fn finish(result: Result<(), String>, path: &str, json: bool) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if json {
                println!(
                    "{{\"file\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                    json_escape(path),
                    json_escape(&e)
                );
            } else {
                eprintln!("error: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };

    if cmd == "bench" {
        return ExitCode::from(
            u8::try_from(hypertester::harness::cli::bench_cli(
                rest,
                &hypertester::bench::suite::ALL,
            ))
            .unwrap_or(1),
        );
    }

    if cmd == "lint" {
        let mut fe = Fe::default();
        let mut json = false;
        let mut path: Option<&String> = None;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--json" => json = true,
                flag @ ("-I" | "--param") => {
                    if !fe.take_flag(flag, it.next()) {
                        return usage();
                    }
                }
                other if other.starts_with('-') => return usage(),
                _ if path.is_some() => return usage(),
                _ => path = Some(tok),
            }
        }
        let Some(path) = path else {
            return usage();
        };
        return match cmd_lint(&fe, path, json) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "analyze" {
        let mut fe = Fe::default();
        let mut json = false;
        let mut dump: Option<String> = None;
        let mut path: Option<&String> = None;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--json" => json = true,
                flag @ ("-I" | "--param") => {
                    if !fe.take_flag(flag, it.next()) {
                        return usage();
                    }
                }
                other if other.starts_with("--dump-facts=") => {
                    let pass = &other["--dump-facts=".len()..];
                    if !FACT_PASSES.contains(&pass) {
                        eprintln!(
                            "unknown fact pass: {pass} (expected one of {})",
                            FACT_PASSES.join(", ")
                        );
                        return usage();
                    }
                    dump = Some(pass.to_string());
                }
                other if other.starts_with('-') => return usage(),
                _ if path.is_some() => return usage(),
                _ => path = Some(tok),
            }
        }
        let Some(path) = path else {
            return usage();
        };
        return match cmd_analyze(&fe, path, json, dump.as_deref()) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "fuzz" {
        let mut cases = 200u64;
        let mut seed = 1u64;
        let mut corpus: Option<String> = None;
        let mut json = false;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--json" => json = true,
                flag @ ("--cases" | "--seed" | "--corpus") => {
                    let Some(val) = it.next() else {
                        eprintln!("missing value for {flag}");
                        return usage();
                    };
                    match flag {
                        "--corpus" => corpus = Some(val.clone()),
                        _ => {
                            let Ok(v) = val.parse::<u64>() else {
                                eprintln!("bad value for {flag}: {val}");
                                return usage();
                            };
                            if flag == "--cases" {
                                cases = v;
                            } else {
                                seed = v;
                            }
                        }
                    }
                }
                other => {
                    eprintln!("bad flag: {other}");
                    return usage();
                }
            }
        }
        return match cmd_fuzz(cases, seed, corpus.as_deref(), json) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if cmd == "compile" {
        let mut fe = Fe::default();
        let mut json = false;
        let mut dump_ir: Option<Option<String>> = None;
        let mut path: Option<&String> = None;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--json" => json = true,
                "--dump-ir" => dump_ir = Some(None),
                flag @ ("-I" | "--param") => {
                    if !fe.take_flag(flag, it.next()) {
                        return usage();
                    }
                }
                other if other.starts_with("--dump-ir=") => {
                    let pass = &other["--dump-ir=".len()..];
                    if !pass_names().contains(&pass) {
                        eprintln!(
                            "unknown pass: {pass} (expected one of {})",
                            pass_names().join(", ")
                        );
                        return usage();
                    }
                    dump_ir = Some(Some(pass.to_string()));
                }
                other if other.starts_with('-') => return usage(),
                _ if path.is_some() => return usage(),
                _ => path = Some(tok),
            }
        }
        let Some(path) = path else {
            return usage();
        };
        return match dump_ir {
            Some(stop) => finish(cmd_dump_ir(&fe, path, json, stop.as_deref()), path, json),
            None => finish(cmd_compile(&fe, path, json), path, json),
        };
    }

    if cmd == "run" {
        let mut opts = RunOpts {
            ports: 1,
            speed_gbps: 100,
            duration_ms: 2,
            copies: None,
            exec: hypertester::asic::ExecMode::default(),
            json: false,
        };
        let mut path: Option<&String> = None;
        let mut it = rest.iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--json" => opts.json = true,
                "--exec" => {
                    let val = it.next().map(String::as_str);
                    let Some(m) = val.and_then(hypertester::asic::ExecMode::parse) else {
                        eprintln!(
                            "bad flag/value: --exec {val:?} (expected interp|compiled|vector)"
                        );
                        return usage();
                    };
                    opts.exec = m;
                }
                flag @ ("--ports" | "--speed" | "--duration" | "--copies") => {
                    let val = it.next().map(String::as_str);
                    let Some(v) = val.and_then(|v| v.parse::<u64>().ok()) else {
                        eprintln!("bad flag/value: {flag} {val:?}");
                        return usage();
                    };
                    match flag {
                        "--ports" => {
                            let Ok(ports) = u16::try_from(v) else {
                                eprintln!("bad flag/value: --ports {v} (at most {})", u16::MAX);
                                return usage();
                            };
                            opts.ports = ports;
                        }
                        "--speed" => opts.speed_gbps = v,
                        "--duration" => opts.duration_ms = v,
                        _ => opts.copies = Some(v as usize),
                    }
                }
                other if other.starts_with("--") => {
                    eprintln!("bad flag: {other}");
                    return usage();
                }
                _ if path.is_some() => return usage(),
                _ => path = Some(tok),
            }
        }
        let Some(path) = path else {
            return usage();
        };
        let json = opts.json;
        return finish(cmd_run(path, opts), path, json);
    }

    let Some(path) = rest.first() else {
        return usage();
    };

    match cmd {
        "p4" => finish(cmd_p4(path), path, false),
        "loc" => finish(cmd_loc(path), path, false),
        _ => usage(),
    }
}
