//! The parallel experiment harness.
//!
//! The paper's evaluation is seventeen independent, seeded, deterministic
//! simulations — embarrassingly parallel across experiments even though
//! each simulation world is strictly single-threaded.  This crate turns
//! each table/figure regenerator into a typed [`Experiment`] job and runs
//! the whole suite on a thread pool fed by an LPT list scheduler:
//!
//! * [`Experiment`] — the job interface: buffered output lines, named
//!   pass/fail [`Check`]s (replacing ad-hoc `assert!`s in binaries), and
//!   optional machine-readable extras.
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
//! Heavy experiments can additionally split themselves into [`Shard`]s
//! (independent sub-jobs the scheduler balances across workers) with a
//! deterministic [`Experiment::merge`]; the contract extends to shards —
//! suite output and digests are identical whether an experiment ran
//! monolithically, sharded on one worker, or sharded across eight.

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

/// One experiment job: a table/figure regenerator (or ablation) that the
/// runner can schedule on any worker thread.
///
/// Implementations are stateless handles (`Send + Sync`); all simulation
/// state is built inside [`run`](Experiment::run) on whichever worker
/// thread executes the job, so per-thread arenas and counters stay
/// coherent and results are independent of the worker count.
pub trait Experiment: Send + Sync {
    /// Stable identifier (the old binary name, e.g. `fig14_accelerator`).
    fn name(&self) -> &'static str;

    /// Report group: `"paper"` for tables/figures, `"ablation"` for the
    /// design ablations.
    fn group(&self) -> &'static str {
        "paper"
    }

    /// One-line human title.
    fn title(&self) -> &'static str;

    /// Relative cost weight for scheduling — heavier jobs are dealt first
    /// so the longest job starts earliest (LPT order).
    fn weight(&self) -> u32 {
        1
    }

    /// Whether the experiment's compiled NTAPI tasks carry
    /// abstract-interpretation facts (a non-empty `analysis` section in
    /// their IR: field-range or timer-feasibility entries).  Shown as the
    /// `facts` column of `bench --list` so regressions in the
    /// `analysis-annotation` pass are easy to localize.
    fn analysis_facts(&self) -> bool {
        false
    }

    /// Splits the experiment into independently runnable [`Shard`]s.
    ///
    /// The default (empty) keeps the experiment monolithic: the runner
    /// calls [`run`](Experiment::run) as one job.  A non-empty vector
    /// makes the runner schedule each shard as its own unit of work and
    /// reassemble the experiment's output via [`merge`](Experiment::merge)
    /// once all shards finish — shard results are always passed to `merge`
    /// in `shards()` order, regardless of completion order.
    fn shards(&self, _scale: Scale) -> Vec<Box<dyn Shard>> {
        Vec::new()
    }

    /// Reassembles one [`RunOutput`] from the shard results, in
    /// [`shards`](Experiment::shards) order.
    ///
    /// Must be deterministic (it feeds the result digest).  Only called
    /// when `shards()` is non-empty; the default panics to catch sharded
    /// experiments that forget to implement it.
    fn merge(&self, _scale: Scale, _parts: Vec<RunOutput>) -> RunOutput {
        unreachable!("sharded experiment must implement merge()")
    }

    /// Runs the experiment at `scale` and returns its buffered results.
    ///
    /// Sharded experiments get this for free — the default runs every
    /// shard serially and merges, so a serial `runner::run_job` produces
    /// byte-identical output to the sharded parallel path by
    /// construction.  Monolithic experiments must override it.
    fn run(&self, scale: Scale) -> RunOutput {
        let shards = self.shards(scale);
        assert!(!shards.is_empty(), "experiment must implement run() or shards()");
        let parts = shards.iter().map(|s| s.run(scale)).collect();
        self.merge(scale, parts)
    }
}

/// One independently schedulable piece of a sharded [`Experiment`].
///
/// Shards of one experiment must not share mutable state: each runs on
/// whichever worker thread picks it up, and only the [`RunOutput`]s meet
/// again (in order) inside [`Experiment::merge`].
pub trait Shard: Send + Sync {
    /// Human-readable shard label (progress display, e.g. `d16/500k`).
    fn label(&self) -> String;

    /// Relative cost weight for scheduling, like [`Experiment::weight`].
    fn weight(&self) -> u32 {
        1
    }

    /// Runs this shard's slice of the experiment.
    fn run(&self, scale: Scale) -> RunOutput;
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
