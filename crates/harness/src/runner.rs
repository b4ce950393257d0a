//! The LPT list scheduler.
//!
//! All work is known up front, so scheduling is simple: units of work are
//! sorted by descending weight and each free worker takes the next unit
//! off that one list through a shared atomic cursor — the longest-
//! processing-time-first list schedule (the heaviest work starts first,
//! and no worker idles while a unit is unclaimed).  Workers are plain
//! scoped threads; finished experiments stream over a channel to the
//! calling thread, which stores them by suite index and runs the caller's
//! progress callback while the pool works.
//!
//! A unit of work is either a whole monolithic experiment or one
//! [`Shard`] of a sharded experiment ([`Experiment::shards`]).  Shards of
//! one experiment can land on different workers; the last one to finish
//! reassembles the experiment via [`Experiment::merge`] with the shard
//! outputs in declaration order, so the merged result — and therefore the
//! suite output and digests — is identical at any worker count.
//!
//! Each unit runs entirely on one worker thread, so the thread-local
//! simulation counters ([`ht_asic::sim::metrics`]) and allocation arenas
//! ([`ht_asic::arena`]) can be read as before/after deltas around the unit
//! — that is where `BENCH.json`'s event counts, peak queue depth, and
//! arena hit rates come from; sharded experiments report the sums (and
//! the per-shard maximum for queue depth).  Nothing here reads a clock.

use crate::{result_digest, Experiment, RunOutput, Scale, Shard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

/// The outcome of one experiment job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Experiment identifier.
    pub name: String,
    /// Report group.
    pub group: String,
    /// Human title.
    pub title: String,
    /// All checks passed and the job did not panic.
    pub ok: bool,
    /// Panic message, if the job panicked.
    pub panicked: Option<String>,
    /// Simulation events processed by the job.
    pub events: u64,
    /// Deepest event queue any world of the job reached.
    pub peak_queue_depth: u64,
    /// PHV buffers the job took from the allocator.
    pub arena_allocs: u64,
    /// PHV buffers the job recycled from the thread-local arena.
    pub arena_reuses: u64,
    /// How many shards the experiment split into (0 = monolithic).
    pub shards: usize,
    /// FNV-1a digest of the deterministic payload (lines + check verdicts).
    pub digest: u64,
    /// Profile counter deltas around the job (ops retired by the compiled
    /// executor, batch-size histogram, events by device kind) — rendered
    /// into the JSON report under `--profile`.
    pub profile: ht_asic::sim::metrics::ProfileSnapshot,
    /// The experiment's buffered output.
    pub output: RunOutput,
}

/// A progress event streamed while the suite runs.
#[derive(Debug, Clone)]
pub struct Progress<'a> {
    /// Experiments finished so far (including this one).
    pub done: usize,
    /// Total experiments.
    pub total: usize,
    /// The finished experiment's name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// Its buffered output lines and check verdicts.
    pub output: &'a RunOutput,
}

/// One measured execution of a closure: counters and either the produced
/// output or the captured panic.
struct Measured {
    panicked: Option<String>,
    output: Option<RunOutput>,
    events: u64,
    peak_queue_depth: u64,
    arena_allocs: u64,
    arena_reuses: u64,
    profile: ht_asic::sim::metrics::ProfileSnapshot,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `f` on the current thread, measuring the thread-local simulation
/// counters around it and capturing panics.
fn measure(f: impl FnOnce() -> RunOutput) -> Measured {
    use ht_asic::sim::metrics;

    let ev0 = metrics::thread_events();
    let _ = metrics::take_thread_peak_queue();
    let ar0 = ht_asic::arena::stats();
    let prof0 = metrics::profile_snapshot();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let events = metrics::thread_events() - ev0;
    let peak_queue_depth = metrics::take_thread_peak_queue();
    let ar = ht_asic::arena::stats();
    let profile = metrics::profile_snapshot().delta_since(&prof0);

    let (output, panicked) = match outcome {
        Ok(out) => (Some(out), None),
        Err(payload) => (None, Some(panic_message(payload))),
    };
    Measured {
        panicked,
        output,
        events,
        peak_queue_depth,
        arena_allocs: ar.allocs - ar0.allocs,
        arena_reuses: ar.reuses - ar0.reuses,
        profile,
    }
}

/// Assembles a [`JobResult`] from an experiment's aggregated measurement.
fn finish_job(exp: &dyn Experiment, shards: usize, m: Measured) -> JobResult {
    let mut output = m.output.unwrap_or_default();
    // Stamp the executor the run used: extras are reported, not digested,
    // so this cannot perturb cross-mode digest comparisons.
    output
        .extras
        .push(("exec_mode".into(), format!("\"{}\"", ht_asic::exec::default_mode().as_str())));
    JobResult {
        name: exp.name().to_string(),
        group: exp.group().to_string(),
        title: exp.title().to_string(),
        ok: m.panicked.is_none() && output.all_passed(),
        panicked: m.panicked,
        events: m.events,
        peak_queue_depth: m.peak_queue_depth,
        arena_allocs: m.arena_allocs,
        arena_reuses: m.arena_reuses,
        shards,
        digest: result_digest(&output),
        profile: m.profile,
        output,
    }
}

/// Executes one experiment on the current thread (shards, if any, run
/// serially via the default [`Experiment::run`]).
pub fn run_job(exp: &dyn Experiment, scale: Scale) -> JobResult {
    let shards = exp.shards(scale).len();
    finish_job(exp, shards, measure(|| exp.run(scale)))
}

/// Combines the per-shard measurements of one experiment (in shard order)
/// into the experiment's [`JobResult`], running [`Experiment::merge`] on
/// the current thread.
fn merge_job(exp: &dyn Experiment, scale: Scale, parts: Vec<Measured>) -> JobResult {
    let shards = parts.len();
    let mut agg = Measured {
        panicked: None,
        output: None,
        events: 0,
        peak_queue_depth: 0,
        arena_allocs: 0,
        arena_reuses: 0,
        profile: Default::default(),
    };
    let mut outputs = Vec::with_capacity(shards);
    for p in parts {
        agg.events += p.events;
        agg.peak_queue_depth = agg.peak_queue_depth.max(p.peak_queue_depth);
        agg.arena_allocs += p.arena_allocs;
        agg.arena_reuses += p.arena_reuses;
        agg.profile.absorb(&p.profile);
        if agg.panicked.is_none() {
            if let Some(msg) = p.panicked {
                agg.panicked = Some(msg);
            }
        }
        if let Some(out) = p.output {
            outputs.push(out);
        }
    }
    if agg.panicked.is_none() {
        match catch_unwind(AssertUnwindSafe(|| exp.merge(scale, outputs))) {
            Ok(out) => agg.output = Some(out),
            Err(payload) => agg.panicked = Some(panic_message(payload)),
        }
    }
    finish_job(exp, shards, agg)
}

/// One schedulable unit: a monolithic experiment or a single shard.
struct Unit {
    exp: usize,
    shard: Option<usize>,
    weight: u32,
}

/// Collects the shard measurements of one sharded experiment until all of
/// them have arrived.
struct Pending {
    parts: Vec<Option<Measured>>,
    remaining: usize,
}

/// Runs `suite` on `workers` threads, invoking `on_progress` as each
/// experiment finishes.  Results come back in suite order regardless of
/// scheduling; sharded experiments produce byte-identical output at any
/// worker count (see the module docs).
pub fn run_suite(
    suite: &[Box<dyn Experiment>],
    workers: usize,
    scale: Scale,
    mut on_progress: impl FnMut(&Progress<'_>),
) -> Vec<JobResult> {
    let workers = workers.max(1);
    let total = suite.len();

    let shard_sets: Vec<Vec<Box<dyn Shard>>> = suite.iter().map(|e| e.shards(scale)).collect();
    let mut units: Vec<Unit> = Vec::new();
    for (i, (exp, shards)) in suite.iter().zip(&shard_sets).enumerate() {
        if shards.is_empty() {
            units.push(Unit { exp: i, shard: None, weight: exp.weight() });
        } else {
            for (j, s) in shards.iter().enumerate() {
                units.push(Unit { exp: i, shard: Some(j), weight: s.weight() });
            }
        }
    }
    let pending: Vec<Mutex<Pending>> = shard_sets
        .iter()
        .map(|s| {
            Mutex::new(Pending { parts: s.iter().map(|_| None).collect(), remaining: s.len() })
        })
        .collect();

    // LPT list: heaviest first; the cursor hands each free worker the
    // next unit.  Relaxed suffices: the cursor publishes no other data
    // (`units`/`order` are immutable and shared by the scope).
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(units[u].weight));
    let cursor = AtomicUsize::new(0);

    let mut results: Vec<Option<JobResult>> = vec![None; total];
    let (tx, rx) = mpsc::channel::<(usize, JobResult)>();

    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (order, cursor, units) = (&order, &cursor, &units);
            let (shard_sets, pending) = (&shard_sets, &pending);
            s.spawn(move || {
                while let Some(&u) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let Unit { exp, shard, .. } = units[u];
                    let r = match shard {
                        None => Some(run_job(suite[exp].as_ref(), scale)),
                        Some(j) => {
                            let m = measure(|| shard_sets[exp][j].run(scale));
                            let mut p = pending[exp].lock().unwrap();
                            p.parts[j] = Some(m);
                            p.remaining -= 1;
                            if p.remaining == 0 {
                                let parts: Vec<Measured> = p
                                    .parts
                                    .iter_mut()
                                    .map(|m| m.take().expect("shard ran"))
                                    .collect();
                                drop(p);
                                Some(merge_job(suite[exp].as_ref(), scale, parts))
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(r) = r {
                        let _ = tx.send((exp, r));
                    }
                }
            });
        }
        drop(tx);
        for (done, (exp, r)) in rx.into_iter().enumerate() {
            on_progress(&Progress {
                done: done + 1,
                total,
                name: r.name.clone(),
                ok: r.ok,
                output: &r.output,
            });
            results[exp] = Some(r);
        }
    });

    results.into_iter().map(|r| r.expect("job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Out;

    struct Fib(&'static str, u64);

    impl Experiment for Fib {
        fn name(&self) -> &'static str {
            self.0
        }
        fn title(&self) -> &'static str {
            "fib"
        }
        fn run(&self, _scale: Scale) -> RunOutput {
            fn fib(n: u64) -> u64 {
                if n < 2 {
                    n
                } else {
                    fib(n - 1) + fib(n - 2)
                }
            }
            let mut out = Out::new();
            out.say(format!("fib({}) = {}", self.1, fib(self.1)));
            let mut r = RunOutput { lines: out.into_lines(), ..Default::default() };
            r.check("computed", true, "");
            r
        }
    }

    struct Panics;

    impl Experiment for Panics {
        fn name(&self) -> &'static str {
            "panics"
        }
        fn title(&self) -> &'static str {
            "always panics"
        }
        fn run(&self, _scale: Scale) -> RunOutput {
            panic!("boom {}", 42);
        }
    }

    /// A sharded experiment: each shard squares one number, the merge
    /// emits one line per shard plus a sum line.
    struct Squares {
        inputs: Vec<u64>,
        panic_at: Option<usize>,
    }

    struct SquareShard {
        x: u64,
        panic: bool,
    }

    impl Shard for SquareShard {
        fn label(&self) -> String {
            format!("x={}", self.x)
        }
        fn weight(&self) -> u32 {
            self.x as u32
        }
        fn run(&self, _scale: Scale) -> RunOutput {
            assert!(!self.panic, "shard exploded");
            let mut r = RunOutput::default();
            r.lines.push(format!("{}^2 = {}", self.x, self.x * self.x));
            r.extras.push(("sq".into(), (self.x * self.x).to_string()));
            r
        }
    }

    impl Experiment for Squares {
        fn name(&self) -> &'static str {
            "squares"
        }
        fn title(&self) -> &'static str {
            "sharded squares"
        }
        fn shards(&self, _scale: Scale) -> Vec<Box<dyn Shard>> {
            self.inputs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    Box::new(SquareShard { x, panic: self.panic_at == Some(i) }) as Box<dyn Shard>
                })
                .collect()
        }
        fn merge(&self, _scale: Scale, parts: Vec<RunOutput>) -> RunOutput {
            let mut r = RunOutput::default();
            let mut sum = 0u64;
            for p in parts {
                r.lines.extend(p.lines);
                sum += p.extras[0].1.parse::<u64>().unwrap();
            }
            r.lines.push(format!("sum = {sum}"));
            r.check("summed", true, "");
            r
        }
    }

    fn suite() -> Vec<Box<dyn Experiment>> {
        vec![Box::new(Fib("fib_a", 18)), Box::new(Fib("fib_b", 10)), Box::new(Fib("fib_c", 14))]
    }

    #[test]
    fn results_keep_suite_order_across_worker_counts() {
        let one = run_suite(&suite(), 1, Scale::Full, |_| {});
        let eight = run_suite(&suite(), 8, Scale::Full, |_| {});
        let names: Vec<_> = one.iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, vec!["fib_a", "fib_b", "fib_c"]);
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.output.lines, b.output.lines);
            assert!(a.ok);
        }
    }

    #[test]
    fn progress_streams_every_job() {
        let mut seen = Vec::new();
        let _ = run_suite(&suite(), 2, Scale::Full, |p| seen.push((p.done, p.name.clone())));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.last().unwrap().0, 3);
    }

    #[test]
    fn panics_are_captured_not_fatal() {
        let suite: Vec<Box<dyn Experiment>> = vec![Box::new(Panics), Box::new(Fib("fib", 5))];
        let r = run_suite(&suite, 4, Scale::Full, |_| {});
        assert!(!r[0].ok);
        assert!(r[0].panicked.as_deref().unwrap().contains("boom"));
        assert!(r[1].ok);
    }

    fn sharded_suite() -> Vec<Box<dyn Experiment>> {
        vec![
            Box::new(Fib("fib_a", 12)),
            Box::new(Squares { inputs: vec![3, 1, 4, 1, 5], panic_at: None }),
            Box::new(Fib("fib_b", 8)),
        ]
    }

    #[test]
    fn sharded_results_are_identical_across_worker_counts_and_run_single() {
        let one = run_suite(&sharded_suite(), 1, Scale::Full, |_| {});
        let eight = run_suite(&sharded_suite(), 8, Scale::Full, |_| {});
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.digest, b.digest, "{}", a.name);
            assert_eq!(a.output.lines, b.output.lines);
        }
        // Merge preserves shard declaration order, not completion order.
        let sq = &one[1];
        assert_eq!(sq.shards, 5);
        assert!(sq.ok);
        assert_eq!(sq.output.lines[0], "3^2 = 9");
        assert_eq!(sq.output.lines[4], "5^2 = 25");
        assert_eq!(sq.output.lines[5], "sum = 52");
        // The serial `run_job` path matches too.
        let single = run_job(&Squares { inputs: vec![3, 1, 4, 1, 5], panic_at: None }, Scale::Full);
        assert_eq!(single.digest, sq.digest);
        assert_eq!(single.shards, 5);
    }

    #[test]
    fn sharded_progress_fires_once_per_experiment() {
        let mut seen = Vec::new();
        let _ = run_suite(&sharded_suite(), 3, Scale::Full, |p| seen.push(p.name.clone()));
        assert_eq!(seen.len(), 3, "one progress event per experiment: {seen:?}");
        assert_eq!(seen.iter().filter(|n| *n == "squares").count(), 1);
    }

    #[test]
    fn shard_panic_is_captured_and_skips_merge() {
        let suite: Vec<Box<dyn Experiment>> =
            vec![Box::new(Squares { inputs: vec![2, 7], panic_at: Some(1) })];
        let r = run_suite(&suite, 2, Scale::Full, |_| {});
        assert!(!r[0].ok);
        assert!(r[0].panicked.as_deref().unwrap().contains("shard exploded"));
        assert!(r[0].output.lines.is_empty(), "merge must not run after a shard panic");
    }

    #[test]
    fn monolithic_jobs_report_zero_shards() {
        let r = run_suite(&suite(), 1, Scale::Full, |_| {});
        assert!(r.iter().all(|j| j.shards == 0));
    }
}
