//! The parallel experiment harness.
//!
//! The paper's evaluation is seventeen independent, seeded, deterministic
//! simulations — embarrassingly parallel across experiments even though
//! each simulation world is strictly single-threaded.  This crate runs a
//! table of [`Experiment`] rows on a thread pool fed by an LPT list
//! scheduler:
//!
//! * [`Experiment`] — one row of plain data: name, group, title, weight,
//!   facts flag and a [`Body`], either one `fn(RunCx) -> RunOutput` or
//!   weighted [`Part`]s plus a merge.  A run produces buffered output
//!   lines, named pass/fail [`Check`]s (replacing ad-hoc `assert!`s in
//!   binaries) and optional machine-readable extras.
//! * [`RunCx`] — what every run is given, by value: the [`Scale`] and the
//!   pipeline executor every tester it builds must use.
//! * [`runner`] — the LPT list scheduler with streamed per-job
//!   progress; results keep suite order regardless of worker count.
//! * [`report`] — `BENCH.json` serialization, a markdown run ledger, and
//!   the exact (digest + event count) comparison against a committed
//!   baseline.
//! * [`cli`] — the `htctl bench` command-line front end, the one way to
//!   run the suite or a `--filter`ed part of it.
//!
//! Nothing here measures time: timing is `benchmark/`'s job.  The one
//! wall clock is the suite total on `htctl bench`'s closing summary line,
//! which goes to the terminal only, so the reports change only when
//! simulated behaviour changes.
//!
//! Determinism contract: an experiment's `lines`, `checks`, and `extras`
//! must depend only on its inputs (simulated time, seeds), never on wall
//! clock or thread identity — the suite digest is byte-identical at
//! `--workers 1` and `--workers 8`.
//!
//! A heavy experiment can split into [`Part`]s (independent units the
//! scheduler balances across workers) with a deterministic merge; the
//! contract extends to parts: suite output and digests are identical
//! whether the parts ran on one worker or across eight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod report;
pub mod runner;

/// How much work an experiment should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-faithful parameters (the committed EXPERIMENTS.md ledger).
    Full,
    /// A reduced configuration for CI smoke runs: same code paths, smaller
    /// sweeps; checks that only hold at full scale are skipped.
    Smoke,
}

impl Scale {
    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// One named pass/fail assertion about an experiment's results — the
/// harness equivalent of the `assert!`s the standalone binaries used, but
/// collected instead of aborting so one failure doesn't hide the rest.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short identifier, stable across runs.
    pub name: String,
    /// Whether the property held.
    pub pass: bool,
    /// Human-readable evidence (measured values).
    pub detail: String,
}

/// Everything an experiment produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Human-readable output (tables, commentary), one line per entry.
    /// Must be deterministic — the result digest is computed over these.
    pub lines: Vec<String>,
    /// Paper-shape assertions.
    pub checks: Vec<Check>,
    /// Extra machine-readable fields merged into the experiment's
    /// `BENCH.json` entry: `(key, raw JSON value)`.
    pub extras: Vec<(String, String)>,
}

impl RunOutput {
    /// Records a check.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), pass, detail: detail.into() });
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// A buffered output sink (the parallel-safe replacement for printing
/// straight to stdout from experiment code).
#[derive(Debug, Default)]
pub struct Out {
    lines: Vec<String>,
}

impl Out {
    /// An empty buffer.
    pub fn new() -> Self {
        Out::default()
    }

    /// Appends one line (split on embedded newlines).
    pub fn say(&mut self, text: impl AsRef<str>) {
        self.lines.extend(text.as_ref().split('\n').map(str::to_string));
    }

    /// Appends an empty line.
    pub fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// Consumes the buffer.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

/// A right-aligned fixed-width table writing into an [`Out`] buffer
/// (the buffered successor of the old `TablePrinter`).
#[derive(Debug)]
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Starts a table: writes the header row and a separator into `out`.
    pub fn new(out: &mut Out, headers: &[&str], widths: &[usize]) -> Self {
        let t = Table { widths: widths.to_vec() };
        t.row(out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let line: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        t.row(out, &line);
        t
    }

    /// Writes one row.
    pub fn row(&self, out: &mut Out, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:>w$}  ", w = w));
        }
        out.lines.push(line.trim_end().to_string());
    }
}

/// What every experiment run is given: how much work to do and the
/// pipeline executor every tester it builds must use.  Passed by value,
/// so two suites in one process can run under different executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCx {
    /// Sweep size.
    pub scale: Scale,
    /// Executor for every tester build (`TesterConfig::exec`).
    pub exec: ht_asic::ExecMode,
}

/// One independently schedulable piece of an [`Experiment`].  Parts of one
/// experiment share no mutable state: each runs on whichever worker picks
/// it up, and only their [`RunOutput`]s meet again, in declaration order.
pub struct Part {
    /// Human-readable label (e.g. `d16/a16/500k`; empty for a whole
    /// experiment), prefixed to the panic message if the part panics.
    pub label: String,
    /// Relative cost weight for scheduling, like [`Experiment::weight`].
    pub weight: u32,
    /// Runs this slice of the experiment.
    pub run: Box<dyn Fn(RunCx) -> RunOutput + Send + Sync>,
}

/// How an [`Experiment`] runs.
#[derive(Clone, Copy)]
pub enum Body {
    /// One job producing the whole output.
    Whole(fn(RunCx) -> RunOutput),
    /// Independently schedulable [`Part`]s, reassembled by a deterministic
    /// `merge` that always receives the part outputs in `parts` order,
    /// whatever order they finished in.
    Parts {
        /// The parts at a run context (at least one).
        parts: fn(RunCx) -> Vec<Part>,
        /// Reassembles one [`RunOutput`] from the part outputs (it feeds
        /// the result digest, so it must be deterministic).
        merge: fn(RunCx, Vec<RunOutput>) -> RunOutput,
    },
}

/// One experiment: a table/figure regenerator (or ablation) the runner
/// can schedule on any worker thread.  Plain data; all simulation state is
/// built inside the body on whichever worker runs it, so per-thread arenas
/// and counters stay coherent and results do not depend on the worker
/// count.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable identifier (the old binary name, e.g. `fig14_accelerator`).
    pub name: &'static str,
    /// Report group: `"paper"` for tables/figures, `"ablation"` for the
    /// design ablations.
    pub group: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// Relative cost weight for scheduling: heavier work is dealt first,
    /// so the longest job starts earliest (LPT order).
    pub weight: u32,
    /// Whether the experiment's compiled NTAPI tasks carry
    /// abstract-interpretation facts (a non-empty `analysis` section in
    /// their IR: field-range or timer-feasibility entries).  Shown as the
    /// `facts` column of `bench --list` so regressions in the
    /// `analysis-annotation` pass are easy to localize.
    pub facts: bool,
    /// What runs.
    pub body: Body,
}

impl Experiment {
    /// The schedulable parts at `cx`: a [`Body::Whole`] experiment is the
    /// one-part case.
    pub fn parts(&self, cx: RunCx) -> Vec<Part> {
        match self.body {
            Body::Whole(run) => {
                vec![Part { label: String::new(), weight: self.weight, run: Box::new(run) }]
            }
            Body::Parts { parts, .. } => parts(cx),
        }
    }

    /// Reassembles the output from the part outputs, in [`parts`](Self::parts)
    /// order (the identity for a whole experiment).
    pub fn merge(&self, cx: RunCx, outputs: Vec<RunOutput>) -> RunOutput {
        match self.body {
            Body::Whole(_) => outputs.into_iter().next().unwrap_or_default(),
            Body::Parts { merge, .. } => merge(cx, outputs),
        }
    }

    /// The shard count `bench --list` and `BENCH.json` report: 0 for a
    /// whole experiment, otherwise its number of parts.
    pub fn shards(&self, cx: RunCx) -> usize {
        match self.body {
            Body::Whole(_) => 0,
            Body::Parts { parts, .. } => parts(cx).len(),
        }
    }
}

/// Digest of an experiment's deterministic payload (lines + check
/// verdicts): FNV-1a 64, the result fingerprint in `BENCH.json`.
pub fn result_digest(out: &RunOutput) -> u64 {
    let mut buf = String::new();
    for l in &out.lines {
        buf.push_str(l);
        buf.push('\n');
    }
    for c in &out.checks {
        buf.push('\n');
        buf.push_str(&c.name);
        buf.push(if c.pass { '+' } else { '-' });
    }
    ht_asic::fingerprint::fnv1a(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_buffers_rows() {
        let mut out = Out::new();
        let t = Table::new(&mut out, &["a", "bb"], &[3, 4]);
        t.row(&mut out, &["1".into(), "2".into()]);
        let lines = out.into_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains('1') && lines[2].contains('2'));
    }

    #[test]
    fn digest_covers_check_verdicts() {
        let mut a = RunOutput::default();
        a.check("x", true, "");
        let mut b = RunOutput::default();
        b.check("x", false, "");
        assert_ne!(result_digest(&a), result_digest(&b));
    }
}
