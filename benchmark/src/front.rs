//! The front-end path shared by every workload that starts from task text:
//! resolve → `lower_with` → `ht_core::build`, one span per layer, plus the
//! traced-rep probes for the layers the product only reaches internally
//! (`lex`/`parse_unit` inside `resolve`, `lint_switch`/`analyze_switch`
//! inside `build`).

use crate::trace::Tracer;
use hypertester::ht::{build, BuildError, BuiltTester, TesterConfig};
use hypertester::ir::{Diagnostic, SourceSpan};
use hypertester::lint::{analysis::analyze_switch, lint_switch};
use hypertester::ntapi::compile::CompileOptions;
use hypertester::ntapi::lexer::lex;
use hypertester::ntapi::{
    lower_with, parse_unit, resolve_file, resolve_str, CompiledTask, FsLoader, MemLoader,
    NtapiError, Program, ResolveFailure, SourceMap,
};

/// How a source's imports are found.
#[derive(Debug, Clone)]
pub enum Loader {
    /// A file of the checkout, through `resolve_file` (imports relative to
    /// it).
    File,
    /// Generated text that imports from the checkout: `resolve_str` with the
    /// filesystem loader, the source's name standing in for its path.
    FsText,
    /// Generated text whose imports are in memory (empty: no imports).
    Mem(MemLoader),
}

/// One task source the benchmark feeds the front end.
#[derive(Debug, Clone)]
pub struct Source {
    /// Display name; for [`Loader::File`]/[`Loader::FsText`] the path
    /// imports resolve against.
    pub name: String,
    /// The entry text (read during set-up for files).
    pub text: String,
    pub loader: Loader,
}

impl Source {
    pub fn plain(name: &str, text: String) -> Self {
        Source { name: name.into(), text, loader: Loader::Mem(MemLoader::default()) }
    }

    /// Every text the front end will lex for this source: the entry plus
    /// in-memory modules (on-disk imports are the resolver's business).
    fn texts(&self) -> impl Iterator<Item = &str> {
        let mods: Vec<&str> = match &self.loader {
            Loader::Mem(m) => m.files.values().map(String::as_str).collect(),
            _ => Vec::new(),
        };
        std::iter::once(self.text.as_str()).chain(mods)
    }
}

/// A task the front end refused, with what the invariants check.
#[derive(Debug)]
pub struct Rejection {
    /// Which layer refused: `resolve`, `lower` or `build`.
    pub stage: &'static str,
    /// Diagnostics carried (≥1 for a well-formed rejection).
    pub diagnostics: usize,
    /// Of those, how many anchor to a source span.
    pub spanned: usize,
    /// Whether every span present lies inside the text it names.
    pub spans_inside: bool,
}

/// Deterministic front-end counts, summed over every task of a rep.
#[derive(Debug, Default, Clone)]
pub struct FrontCounts {
    pub tokens: u64,
    pub diagnostics: u64,
    pub module_bytes: u64,
    pub exec_ops: u64,
    pub fixpoint_iters: u64,
    /// `(pass name, seconds)` summed from the `PassTrace` of every
    /// successful `lower_with` (a failed lowering returns no trace).
    pub pass_s: Vec<(&'static str, f64)>,
}

/// Whether `line:col` addresses a character (or the end) of a line of
/// `text`.
fn inside(text: &str, line: u32, col: u32) -> bool {
    line >= 1
        && col >= 1
        && text
            .lines()
            .nth(line as usize - 1)
            .is_some_and(|l| (col as usize) <= l.chars().count() + 1)
}

fn span_inside(map: Option<&SourceMap>, sp: &SourceSpan) -> bool {
    let Some(map) = map else { return false };
    (0u32..)
        .map_while(|id| map.file(id))
        .find(|f| f.name == sp.file)
        .is_some_and(|f| inside(&f.text, sp.line, sp.col))
}

fn reject_diags(stage: &'static str, diags: &[Diagnostic], map: Option<&SourceMap>) -> Rejection {
    let spans: Vec<&SourceSpan> = diags.iter().filter_map(|d| d.span.as_ref()).collect();
    Rejection {
        stage,
        diagnostics: diags.iter().filter(|d| !d.message.is_empty()).count(),
        spanned: spans.len(),
        spans_inside: spans.iter().all(|sp| span_inside(map, sp)),
    }
}

fn reject_resolve(f: &ResolveFailure) -> Rejection {
    let sp = f.error.span;
    let file = f.sources.file(sp.file);
    Rejection {
        stage: "resolve",
        diagnostics: usize::from(!f.error.message.is_empty()),
        spanned: usize::from(file.is_some()),
        spans_inside: file.is_none_or(|file| inside(&file.text, sp.line, sp.col)),
    }
}

fn reject_lower(e: &NtapiError, prog: &Program) -> Rejection {
    let map = prog.sources.as_deref();
    match e {
        NtapiError::Lint(diags) => reject_diags("lower", diags, map),
        other => {
            let span = other.blame_span(prog);
            Rejection {
                stage: "lower",
                diagnostics: usize::from(!other.to_string().is_empty()),
                spanned: usize::from(span.is_some()),
                spans_inside: span.as_ref().is_none_or(|sp| span_inside(map, sp)),
            }
        }
    }
}

/// Text → resolved program, one `ntapi.resolve` span; the traced rep then
/// probes `lex` and `parse_unit` on the same texts.
fn resolve(tr: &mut Tracer, src: &Source, counts: &mut FrontCounts) -> Result<Program, Rejection> {
    let resolved = tr.span("ntapi.resolve", |_| match &src.loader {
        Loader::File => resolve_file(&src.name, &[], &[]),
        Loader::FsText => resolve_str(&src.text, &src.name, &FsLoader::default(), &[]),
        Loader::Mem(m) => resolve_str(&src.text, &src.name, m, &[]),
    });
    // After the real call, so the probes run as warm as the layers they
    // time ran inside it.
    for text in src.texts() {
        if let Some(Ok(toks)) = tr.probe("probe.lex", || lex(text, 0)) {
            counts.tokens += toks.len() as u64;
        }
        tr.probe("probe.parse", || parse_unit(text).is_ok());
    }
    resolved.map_err(|f| reject_resolve(&f))
}

/// Resolved program → compiled task, one `ntapi.lower` span; per-pass
/// times come from the `PassTrace` `lower_with` returns.
fn lower(
    tr: &mut Tracer,
    prog: &Program,
    counts: &mut FrontCounts,
) -> Result<CompiledTask, Rejection> {
    let options = CompileOptions::default();
    let (ir, trace, report) = tr
        .span("ntapi.lower", |_| lower_with(prog, options, None))
        .map_err(|e| reject_lower(&e, prog))?;
    counts.diagnostics += report.diagnostics.len() as u64;
    if let Some(text) = tr.probe("probe.module_text", || ir.to_text()) {
        counts.module_bytes += text.len() as u64;
        for run in &trace.runs {
            match counts.pass_s.iter_mut().find(|(n, _)| *n == run.name) {
                Some((_, s)) => *s += run.duration.as_secs_f64(),
                None => counts.pass_s.push((run.name, run.duration.as_secs_f64())),
            }
        }
    }
    Ok(CompiledTask { ir, program: prog.clone(), options, warnings: report.diagnostics })
}

/// Compiled task → programmed switch, one `core.build` span (which runs
/// `lint_switch` and the executor compile inside); the traced rep then
/// probes `lint_switch`, `analyze_switch` and a recompile in the same mode on
/// the built switch.
fn build_tester(
    tr: &mut Tracer,
    task: &CompiledTask,
    cfg: &TesterConfig,
    counts: &mut FrontCounts,
) -> Result<BuiltTester, Rejection> {
    let mut built = tr.span("core.build", |_| build(task, cfg)).map_err(|e| match &e {
        BuildError::Lint(diags) => reject_diags("build", diags, task.program.sources.as_deref()),
        other => Rejection {
            stage: "build",
            diagnostics: usize::from(!other.to_string().is_empty()),
            spanned: 0,
            spans_inside: true,
        },
    })?;
    counts.diagnostics += built.lint.diagnostics.len() as u64;
    tr.probe("probe.lint_switch", || lint_switch(&built.switch));
    if let Some(Some(a)) = tr.probe("probe.analyze", || analyze_switch(&built.switch)) {
        let (value, live) = a.iterations();
        counts.fixpoint_iters += (value + live) as u64;
    }
    let mode = built.switch.exec_mode();
    tr.probe("probe.exec_compile", || built.switch.set_exec_mode(mode));
    if let Some((ig, eg)) = built.switch.compile_stats() {
        counts.exec_ops += (ig.ops + eg.ops) as u64;
    }
    Ok(built)
}

/// The whole front end for one source.
pub fn front_end(
    tr: &mut Tracer,
    src: &Source,
    cfg: &TesterConfig,
    counts: &mut FrontCounts,
) -> Result<BuiltTester, Rejection> {
    let prog = resolve(tr, src, counts)?;
    let task = lower(tr, &prog, counts)?;
    build_tester(tr, &task, cfg, counts)
}

/// Front end for the workloads' own fixed tasks, which must be accepted.
pub fn must_build(
    tr: &mut Tracer,
    src: &Source,
    cfg: &TesterConfig,
    counts: &mut FrontCounts,
) -> BuiltTester {
    front_end(tr, src, cfg, counts)
        .unwrap_or_else(|r| panic!("workload task {} rejected at {}", src.name, r.stage))
}
