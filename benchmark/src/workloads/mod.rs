//! The six workloads.  Each is one function `rep(seed, scale, tracer)` doing
//! identical fixed work every call: seed → inputs → program under test →
//! verified result.  Work sizes are constants below, never calibrated at
//! run time, so every count repeats exactly.
//!
//! All workloads run the product defaults: the default `ExecMode`, the
//! timer-wheel queue, arena pooling on.  They are closed, batch workloads —
//! one caller, the next unit starts when the previous one finishes.

pub mod fp;
pub mod frontend;
pub mod linerate;
pub mod ratectl;
pub mod ring;
mod sender;
pub mod web;

use crate::front::FrontCounts;
use crate::trace::Tracer;
use hypertester::asic::arena::{self, ArenaStats};
use hypertester::asic::sim::metrics::{self, ProfileSnapshot};
use hypertester::asic::switch::SwitchCounters;
use std::time::Instant;

/// Full size, or the ~1/10 self-test size of `run.sh --check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Scale {
    /// `full` at full scale, a tenth of it (at least 1) for `--check`.
    pub fn of(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Check => (full / 10).max(1),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Check => "check",
        }
    }
}

/// The workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Linerate64b,
    RatectlTimer,
    WebStateless,
    RingPartitioned,
    FrontendMix,
    FpPrecompute,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Linerate64b,
        Workload::RatectlTimer,
        Workload::WebStateless,
        Workload::RingPartitioned,
        Workload::FrontendMix,
        Workload::FpPrecompute,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Linerate64b => "linerate_64b",
            Workload::RatectlTimer => "ratectl_timer",
            Workload::WebStateless => "web_stateless",
            Workload::RingPartitioned => "ring_partitioned",
            Workload::FrontendMix => "frontend_mix",
            Workload::FpPrecompute => "fp_precompute",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Linerate64b => {
                "64 B frames at line rate on 4x100G into a sink: per-event cost (queue, flush, \
                 TM/mcast/MAC, sink) dominates; front end and stateful ALUs are nearly idle"
            }
            Workload::RatectlTimer => {
                "four timer-gated points at accelerator capacity: nearly every event is a \
                 recirculation through the SALU timer and gateway; frame size sets batch occupancy"
            }
            Workload::WebStateless => {
                "Table 4 stateless connections against a TCP responder over a delay link: the \
                 pipeline as receiver (filters, cuckoo, FIFOs), then CPU/core result collection"
            }
            Workload::RingPartitioned => {
                "8-forwarder ring, serial and on 2 engines: the only time spent in the partitioned \
                 engine and in sparse queue traffic; no switch pipeline, so executor work must not move it"
            }
            Workload::FrontendMix => {
                "2400 grammar tasks in seeded order plus tasks/*.nt through resolve, lower, build+lint, exec \
                 compile and P4 codegen: the edit-loop/CI/fuzz use; no event is simulated"
            }
            Workload::FpPrecompute => {
                "false-positive precompute over 10k and 2M keys at 16/24/32 digest bits plus a /12 scan \
                 compile: Fig. 17's path, in-cache vs out-of-LLC, counting vs comparison sort"
            }
        }
    }

    /// What `work_per_s` counts on this workload, and the name the metric
    /// goes by in the issue that defined the benchmark.
    pub fn work_alias(self) -> &'static str {
        match self {
            Workload::FrontendMix => "tasks_per_s",
            Workload::FpPrecompute => "keys_per_s",
            _ => "events_per_s",
        }
    }

    /// Set-up alone — seed → program ready to measure — then dropped: what
    /// `setup_s` times, away from the heap churn of whole reps.
    pub fn setup_only(self, seed: u64, scale: Scale) {
        match self {
            Workload::Linerate64b => linerate::setup_only(seed, scale),
            Workload::RatectlTimer => ratectl::setup_only(seed, scale),
            Workload::WebStateless => web::setup_only(seed, scale),
            Workload::RingPartitioned => ring::setup_only(seed, scale),
            Workload::FrontendMix => frontend::setup_only(seed, scale),
            Workload::FpPrecompute => fp::setup_only(seed, scale),
        }
    }

    /// One rep of fixed work.
    pub fn rep(self, seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
        match self {
            Workload::Linerate64b => linerate::rep(seed, scale, tr),
            Workload::RatectlTimer => ratectl::rep(seed, scale, tr),
            Workload::WebStateless => web::rep(seed, scale, tr),
            Workload::RingPartitioned => ring::rep(seed, scale, tr),
            Workload::FrontendMix => frontend::rep(seed, scale, tr),
            Workload::FpPrecompute => fp::rep(seed, scale, tr),
        }
    }
}

/// What one rep produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host s from the seed to the program ready to measure (inputs made,
    /// and on the simulated workloads task compiled, switch built, world
    /// wired, templates injected).
    pub setup_s: f64,
    /// Host s for the whole rep: seed in → verified result out.
    pub wall_s: f64,
    /// Host s inside the measured calls (`run_until`; the front end; the
    /// precompute) — the denominator of `work_per_s`.
    pub core_s: f64,
    /// Work done inside `core_s`: events, tasks or keys.
    pub work: u64,
    /// Simulated µs advanced inside `core_s` (0 off the simulator).
    pub sim_us: f64,
    /// Digest of everything the rep computed.
    pub digest: u64,
    /// Operations attempted / failed (one simulated point, one task, one
    /// key set).
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
    /// Simulated results and other values that repeat exactly per seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Host-time values beyond the three above (`e1_run_s`, …).
    pub timed: Vec<(&'static str, f64)>,
    /// Per-task latencies, µs (`frontend_mix`).
    pub latencies_us: Vec<f64>,
    /// Front-end counts.
    pub front: FrontCounts,
    /// Deepest event queue of the rep's (serial) world.
    pub peak_queue: u64,
    /// Switch counters, summed over the rep's switches.
    pub switch: SwitchCounters,
    /// Thread-local simulator counters the rep moved.
    pub profile: ProfileSnapshot,
    pub arena: ArenaStats,
    pub fp_keys: u64,
}

impl Rep {
    /// Records one operation; `problem` is `None` when every check held.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    pub fn add_switch(&mut self, c: SwitchCounters) {
        self.switch.rx_frames += c.rx_frames;
        self.switch.tx_frames += c.tx_frames;
        self.switch.ingress_drops += c.ingress_drops;
        self.switch.egress_drops += c.egress_drops;
        self.switch.recirculations += c.recirculations;
        self.switch.mcast_replicas += c.mcast_replicas;
    }
}

/// The first failed check of a list, as an operation's problem.
pub fn first_failure(checks: &[(bool, String)]) -> Option<String> {
    checks.iter().find(|(ok, _)| !ok).map(|(_, why)| why.clone())
}

/// Snapshot of the thread-local simulator counters, taken at the start of a
/// rep; [`Counters::finish`] stores the deltas once the rep's worlds are
/// dropped (a world folds its event and batch counters in on drop).
pub struct Counters {
    profile: ProfileSnapshot,
    arena: ArenaStats,
    fp_keys: u64,
}

impl Counters {
    pub fn start() -> Self {
        Counters {
            profile: metrics::profile_snapshot(),
            arena: arena::stats(),
            fp_keys: metrics::thread_fp_keys(),
        }
    }

    pub fn finish(self, rep: &mut Rep) {
        rep.profile = metrics::profile_snapshot().delta_since(&self.profile);
        let a = arena::stats();
        rep.arena = ArenaStats {
            allocs: a.allocs - self.arena.allocs,
            reuses: a.reuses - self.arena.reuses,
            returns: a.returns - self.arena.returns,
        };
        rep.fp_keys = metrics::thread_fp_keys() - self.fp_keys;
    }
}

/// Runs `f` as the rep's root span, handing it the rep's start instant
/// (the origin of `setup_s`), and stamps `wall_s`.
pub fn timed_rep(tr: &mut Tracer, f: impl FnOnce(&mut Tracer, &mut Rep, Instant)) -> Rep {
    let start = Instant::now();
    let counters = Counters::start();
    let mut rep = Rep::default();
    tr.span("rep", |tr| f(tr, &mut rep, start));
    rep.wall_s = start.elapsed().as_secs_f64();
    counters.finish(&mut rep);
    rep
}
