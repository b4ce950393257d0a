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
//! A unit of work is one [`Part`] of an experiment ([`Experiment::parts`];
//! a whole experiment is the one-part case).  Parts of one experiment can
//! land on different workers; the last one to finish reassembles the
//! experiment via [`Experiment::merge`] with the part outputs in
//! declaration order, so the merged result (and therefore the suite
//! output and digests) is identical at any worker count.
//!
//! Each unit runs entirely on one worker thread, so the thread-local
//! simulation counters ([`ht_asic::sim::metrics`]) and allocation arenas
//! ([`ht_asic::arena`]) can be read as before/after deltas around the unit
//! — that is where `BENCH.json`'s event counts, peak queue depth, and
//! arena hit rates come from; an experiment reports the sums over its
//! parts (and the per-part maximum for queue depth).  Nothing here reads
//! a clock.

use crate::{result_digest, Experiment, Part, RunCx, RunOutput};
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
    /// How many parts the experiment split into (0 = a whole experiment).
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

/// One measured execution of a part: counters and either the produced
/// output or the captured panic message.
struct Measured {
    outcome: Result<RunOutput, String>,
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
/// counters around it and capturing a panic (prefixed with `label`, if
/// any).
fn measure(label: &str, f: impl FnOnce() -> RunOutput) -> Measured {
    use ht_asic::sim::metrics;

    let ev0 = metrics::thread_events();
    let _ = metrics::take_thread_peak_queue();
    let ar0 = ht_asic::arena::stats();
    let prof0 = metrics::profile_snapshot();
    let outcome =
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| match panic_message(payload) {
            msg if label.is_empty() => msg,
            msg => format!("{label}: {msg}"),
        });
    let ar = ht_asic::arena::stats();
    Measured {
        outcome,
        events: metrics::thread_events() - ev0,
        peak_queue_depth: metrics::take_thread_peak_queue(),
        arena_allocs: ar.allocs - ar0.allocs,
        arena_reuses: ar.reuses - ar0.reuses,
        profile: metrics::profile_snapshot().delta_since(&prof0),
    }
}

/// Folds the per-part measurements of one experiment (in part order) into
/// its [`JobResult`], running [`Experiment::merge`] on the current thread
/// unless a part panicked.
fn finish_job(exp: &Experiment, cx: RunCx, parts: Vec<Measured>) -> JobResult {
    let shards = exp.shards(cx);
    let mut panicked = None;
    let (mut events, mut peak_queue_depth, mut arena_allocs, mut arena_reuses) = (0, 0, 0, 0);
    let mut profile = ht_asic::sim::metrics::ProfileSnapshot::default();
    let mut outputs = Vec::with_capacity(parts.len());
    for p in parts {
        events += p.events;
        peak_queue_depth = peak_queue_depth.max(p.peak_queue_depth);
        arena_allocs += p.arena_allocs;
        arena_reuses += p.arena_reuses;
        profile.absorb(&p.profile);
        match p.outcome {
            Ok(out) => outputs.push(out),
            Err(msg) => {
                panicked.get_or_insert(msg);
            }
        }
    }
    let mut output = match panicked {
        Some(_) => RunOutput::default(),
        None => catch_unwind(AssertUnwindSafe(|| exp.merge(cx, outputs))).unwrap_or_else(|p| {
            panicked = Some(panic_message(p));
            RunOutput::default()
        }),
    };
    // Stamp the executor the run used: extras are reported, not digested,
    // so this cannot perturb cross-mode digest comparisons.
    output.extras.push(("exec_mode".into(), format!("\"{}\"", cx.exec.as_str())));
    JobResult {
        name: exp.name.to_string(),
        group: exp.group.to_string(),
        title: exp.title.to_string(),
        ok: panicked.is_none() && output.all_passed(),
        panicked,
        events,
        peak_queue_depth,
        arena_allocs,
        arena_reuses,
        shards,
        digest: result_digest(&output),
        profile,
        output,
    }
}

/// Worker threads for `units` units of work: the requested count, at
/// least one, but never more threads than there is work for.
fn pool_size(workers: usize, units: usize) -> usize {
    workers.max(1).min(units)
}

/// Runs `suite` at `cx` on up to `workers` threads, invoking `on_progress`
/// as each experiment finishes.  Results come back in suite order
/// regardless of scheduling, and are identical at any worker count (see
/// the module docs).
pub fn run_suite(
    suite: &[Experiment],
    workers: usize,
    cx: RunCx,
    mut on_progress: impl FnMut(&Progress<'_>),
) -> Vec<JobResult> {
    let total = suite.len();
    let parts: Vec<Vec<Part>> = suite.iter().map(|e| e.parts(cx)).collect();
    // Each experiment's part measurements, filled in as parts finish.
    let pending: Vec<Mutex<Vec<Option<Measured>>>> =
        parts.iter().map(|p| Mutex::new(p.iter().map(|_| None).collect())).collect();

    // LPT list: one unit `(experiment, part)` per part, heaviest first (a
    // stable sort, so ties keep suite then part order); the cursor hands
    // each free worker the next unit.  Relaxed suffices: the cursor
    // publishes no other data (`order` is immutable and shared by the
    // scope).
    let mut order: Vec<(usize, usize)> =
        parts.iter().enumerate().flat_map(|(i, p)| (0..p.len()).map(move |j| (i, j))).collect();
    order.sort_by_key(|&(i, j)| std::cmp::Reverse(parts[i][j].weight));
    let cursor = AtomicUsize::new(0);

    let mut results: Vec<Option<JobResult>> = vec![None; total];
    let (tx, rx) = mpsc::channel::<(usize, JobResult)>();

    std::thread::scope(|s| {
        for _ in 0..pool_size(workers, order.len()) {
            let tx = tx.clone();
            let (order, cursor, parts, pending) = (&order, &cursor, &parts, &pending);
            s.spawn(move || {
                while let Some(&(i, j)) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let part = &parts[i][j];
                    let m = measure(&part.label, || (part.run)(cx));
                    let mut p = pending[i].lock().unwrap();
                    p[j] = Some(m);
                    // The last part to finish merges the experiment.
                    if p.iter().all(Option::is_some) {
                        let done = p.drain(..).map(Option::unwrap).collect();
                        drop(p);
                        let _ = tx.send((i, finish_job(&suite[i], cx, done)));
                    }
                }
            });
        }
        drop(tx);
        for (done, (i, r)) in rx.into_iter().enumerate() {
            on_progress(&Progress {
                done: done + 1,
                total,
                name: r.name.clone(),
                ok: r.ok,
                output: &r.output,
            });
            results[i] = Some(r);
        }
    });

    results.into_iter().map(|r| r.expect("job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Body, Out, Scale};
    use ht_asic::ExecMode;

    const CX: RunCx = RunCx { scale: Scale::Full, exec: ExecMode::Compiled };

    fn row(name: &'static str, body: Body) -> Experiment {
        Experiment { name, group: "paper", title: "test row", weight: 1, facts: false, body }
    }

    fn fib<const N: u64>(_cx: RunCx) -> RunOutput {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let mut out = Out::new();
        out.say(format!("fib({N}) = {}", fib(N)));
        let mut r = RunOutput { lines: out.into_lines(), ..Default::default() };
        r.check("computed", true, "");
        r
    }

    fn panics(_cx: RunCx) -> RunOutput {
        panic!("boom {}", 42);
    }

    /// One part per input, squaring it (the part at `panic_at` panics).
    fn square_parts(inputs: &[u64], panic_at: Option<usize>) -> Vec<Part> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &x)| Part {
                label: format!("x={x}"),
                weight: x as u32,
                run: Box::new(move |_cx| {
                    assert!(panic_at != Some(i), "part exploded");
                    let mut r = RunOutput::default();
                    r.lines.push(format!("{x}^2 = {}", x * x));
                    r.extras.push(("sq".into(), (x * x).to_string()));
                    r
                }),
            })
            .collect()
    }

    /// Emits one line per part plus a sum line.
    fn sum_squares(_cx: RunCx, parts: Vec<RunOutput>) -> RunOutput {
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

    fn squares() -> Experiment {
        row(
            "squares",
            Body::Parts { parts: |_| square_parts(&[3, 1, 4, 1, 5], None), merge: sum_squares },
        )
    }

    fn suite() -> Vec<Experiment> {
        vec![
            row("fib_a", Body::Whole(fib::<18>)),
            row("fib_b", Body::Whole(fib::<10>)),
            row("fib_c", Body::Whole(fib::<14>)),
        ]
    }

    #[test]
    fn results_keep_suite_order_across_worker_counts() {
        let one = run_suite(&suite(), 1, CX, |_| {});
        let eight = run_suite(&suite(), 8, CX, |_| {});
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
        let _ = run_suite(&suite(), 2, CX, |p| seen.push((p.done, p.name.clone())));
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.last().unwrap().0, 3);
    }

    #[test]
    fn panics_are_captured_not_fatal() {
        let suite = [row("panics", Body::Whole(panics)), row("fib", Body::Whole(fib::<5>))];
        let r = run_suite(&suite, 4, CX, |_| {});
        assert!(!r[0].ok);
        assert_eq!(r[0].panicked.as_deref(), Some("boom 42"));
        assert!(r[1].ok);
    }

    fn sharded_suite() -> Vec<Experiment> {
        vec![row("fib_a", Body::Whole(fib::<12>)), squares(), row("fib_b", Body::Whole(fib::<8>))]
    }

    #[test]
    fn sharded_results_are_identical_across_worker_counts() {
        let one = run_suite(&sharded_suite(), 1, CX, |_| {});
        let eight = run_suite(&sharded_suite(), 8, CX, |_| {});
        for (a, b) in one.iter().zip(&eight) {
            assert_eq!(a.digest, b.digest, "{}", a.name);
            assert_eq!(a.output.lines, b.output.lines);
        }
        // Merge preserves part declaration order, not completion (LPT)
        // order.
        let sq = &one[1];
        assert_eq!(sq.shards, 5);
        assert!(sq.ok);
        assert_eq!(sq.output.lines[0], "3^2 = 9");
        assert_eq!(sq.output.lines[4], "5^2 = 25");
        assert_eq!(sq.output.lines[5], "sum = 52");
    }

    #[test]
    fn sharded_progress_fires_once_per_experiment() {
        let mut seen = Vec::new();
        let _ = run_suite(&sharded_suite(), 3, CX, |p| seen.push(p.name.clone()));
        assert_eq!(seen.len(), 3, "one progress event per experiment: {seen:?}");
        assert_eq!(seen.iter().filter(|n| *n == "squares").count(), 1);
    }

    #[test]
    fn part_panic_is_captured_and_skips_merge() {
        let exploding =
            Body::Parts { parts: |_| square_parts(&[2, 7], Some(1)), merge: sum_squares };
        let r = run_suite(&[row("squares", exploding)], 2, CX, |_| {});
        assert!(!r[0].ok);
        assert_eq!(r[0].panicked.as_deref(), Some("x=7: part exploded"));
        assert!(r[0].output.lines.is_empty(), "merge must not run after a part panic");
    }

    #[test]
    fn monolithic_jobs_report_zero_shards() {
        let r = run_suite(&suite(), 1, CX, |_| {});
        assert!(r.iter().all(|j| j.shards == 0));
    }

    #[test]
    fn the_run_context_reaches_every_part_and_the_exec_stamp() {
        fn echo(cx: RunCx) -> RunOutput {
            RunOutput { lines: vec![format!("{:?} {}", cx.scale, cx.exec)], ..Default::default() }
        }
        let cx = RunCx { scale: Scale::Smoke, exec: ExecMode::Interp };
        let r = run_suite(&[row("echo", Body::Whole(echo))], 1, cx, |_| {});
        assert_eq!(r[0].output.lines, ["Smoke interp"]);
        assert_eq!(r[0].output.extras, [("exec_mode".to_string(), "\"interp\"".to_string())]);
    }

    #[test]
    fn the_pool_never_outnumbers_the_work() {
        assert_eq!(pool_size(100_000, 28), 28);
        assert_eq!(pool_size(4, 28), 4);
        assert_eq!(pool_size(0, 28), 1);
        assert_eq!(pool_size(8, 1), 1);
        assert_eq!(pool_size(8, 0), 0);
    }
}
