//! Grammar-driven fuzz oracle cross-checking the static analysis.
//!
//! [`run_fuzz`] generates random NTAPI tasks from a small grammar over the
//! builder API, compiles each one, and cross-checks six invariants the
//! static pipeline promises:
//!
//! * **A (accepted ⇒ clean)** — a task the static pipeline accepts
//!   (compile + task lint + switch lint) must build and simulate without
//!   a panic.  Rejections are fine; crashes are findings.
//! * **B (proven facts hold)** — register arrays the analysis certifies
//!   as never-wrapping ([`ht_lint::proven_nowrap_regs`]) must show zero
//!   wrap events in the execution trace
//!   ([`ht_asic::register::RegisterFile::wrap_log`]).
//! * **C (pass-prefix differential)** — lowering stopped right after
//!   `task-lint` (i.e. without the `analysis-annotation` pass) must
//!   produce a module whose simulation digest is byte-identical to the
//!   fully lowered one: analysis facts are annotations, never semantics.
//! * **D (no rogue flows)** — a keyed/distinct query run against the
//!   injected flows must report zero flows outside the injected header
//!   space: every resident or evicted `(bucket, digest)` pair and every
//!   nonzero exact-match counter must correspond to a key the templates
//!   can actually emit.  Keyed specs are simulated on a loop-back
//!   testbed (egress wired into ingress) so the received-traffic query
//!   genuinely observes the generated flows.
//! * **E (executor differential)** — the flattened threaded-code
//!   executor ([`ht_asic::exec`]) must be observationally identical to
//!   the per-stage interpreter: same simulation digest, same register
//!   wrap log, same reported/rogue query flows on the same task.
//! * **F (vector differential)** — the lane-batched vector executor
//!   (`--exec vector`, op-at-a-time over batched PHVs) must likewise be
//!   observationally identical to the interpreter.  Programs whose
//!   ingress the vector planner rejects (externs, RNG/digest ops,
//!   aliased stateful ALUs) fall back to the compiled scalar path inside
//!   the same run — the invariant still holds over the fallback, so the
//!   hazard analysis itself is under test.
//!
//! The grammar covers the module system too: a spec may render
//! *modularly* — each trigger becomes a parameterized `template` in an
//! in-memory library module, the main unit `import`s it and binds
//! `T1 = zztrigN(zzport=…, zzlen=…)` — and the resolved [`Program`] is
//! asserted structurally identical to the direct builder rendering (a
//! divergence panics, surfacing as an invariant-A finding).
//!
//! A violated invariant is shrunk to a minimal reproducer by greedy
//! feature removal; minimized counterexamples serialize into a one-line
//! text form for the corpus under `tests/fuzz_corpus/`
//! ([`replay_corpus`] re-checks every stored case).
//!
//! Everything is deterministic: the generator is a hand-rolled SplitMix64
//! stream, the simulator seed is fixed, and no wall-clock time is read —
//! `htctl fuzz --cases N --seed S` always reproduces byte-identically.

use ht_asic::fingerprint::Fnv1a;
use ht_asic::register::RegId;
use ht_asic::switch::Switch;
use ht_asic::time::us;
use ht_asic::{ExecMode, LinkSpec, World};
use ht_core::results::keyed_by_digest;
use ht_core::{build, TesterConfig};
use ht_cpu::SwitchCpu;
use ht_dut::Sink;
use ht_lint::{analyze_switch, proven_nowrap_regs};
use ht_ntapi::ast::{
    Arg, DistSpec, HeaderField, ImportDecl, InstanceDecl, Item, NtField, QueryDef, ReduceFunc,
    Span, TemplateBody, TemplateDecl, TriggerDef, Value,
};
use ht_ntapi::builder::{program, query, trigger};
use ht_ntapi::compile::QueryKind;
use ht_ntapi::headerspace::global_space;
use ht_ntapi::printer::print_unit;
use ht_ntapi::{compile, lower_with, resolve_str, CompiledTask, MemLoader, Program, SourceUnit};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Ports the fuzz testbed wires tester → sink.
const SIM_PORTS: u16 = 4;
/// Template copies injected per trigger.
const COPIES: usize = 2;
/// Simulated window per run (picoseconds via [`us`]).
const WINDOW_US: u64 = 5;
/// Register slots hashed into the digest per array (bounds digest cost on
/// deep arrays).
const DIGEST_SLOTS: usize = 256;
/// Shrinking budget: maximum re-checks per counterexample.
const SHRINK_BUDGET: usize = 64;

// ---------------------------------------------------------------------------
// Deterministic PRNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, seedable, and stable across platforms — the fuzz
/// stream must reproduce byte-identically from `--seed`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------------------
// The task grammar
// ---------------------------------------------------------------------------

/// One random trigger: every knob the generator can turn, all
/// integer-valued so specs serialize to one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerSpec {
    /// Frame length in bytes (the grammar includes invalid sizes — the
    /// compiler is expected to reject, not crash).
    pub frame_len: u64,
    /// TCP (true) or UDP.
    pub tcp: bool,
    /// Destination port (may exceed 16 bits on purpose).
    pub dport: u64,
    /// `set(sport, range(lo, hi, step))` — `None` = constant sport.
    pub sport_range: Option<(u64, u64, u64)>,
    /// `set(sip, random(uniform, bits))` — `None` = constant sip.
    pub rand_sip_bits: Option<u32>,
    /// Explicit inter-departure interval in ns; `None` = line rate.
    pub interval_ns: Option<u64>,
    /// Injection ports (duplicates allowed — a lint finding, not a crash).
    pub ports: Vec<u64>,
    /// Value-list replay count; 0 = loop forever.
    pub loops: u64,
}

/// Query attached to the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySpec {
    /// No query.
    None,
    /// `query.received().map(pkt_len).reduce(sum)`.
    ReceivedSum,
    /// Same, filtered to one port.
    ReceivedPortSum,
    /// `query().reduce(keys=[sport], func=count)` — keyed, loop-back
    /// testbed, checked by invariant D.
    KeyedSportCount,
    /// `query().distinct(keys=[sport])` — distinct, loop-back testbed,
    /// checked by invariant D.
    DistinctSport,
}

/// One grammar-generated task: triggers plus an optional query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// The triggers, T1..Tn.
    pub triggers: Vec<TriggerSpec>,
    /// The query shape.
    pub query: QuerySpec,
    /// Render through the module system (`import` + parameterized
    /// template instantiations resolved by [`resolve_str`]) instead of
    /// handing the builder program straight to the compiler.
    pub modular: bool,
}

impl TaskSpec {
    fn trigger_def(name: &str, t: &TriggerSpec) -> TriggerDef {
        let mut b = trigger(name).dip("10.0.0.2").sip("10.0.0.1");
        b = if t.tcp { b.proto_tcp() } else { b.proto_udp() };
        b = b.dport(t.dport).frame_len(t.frame_len).loops(t.loops).ports(&t.ports);
        b = match t.sport_range {
            Some((lo, hi, step)) => b.sport_range(lo, hi, step),
            None => b.sport(1000),
        };
        if let Some(bits) = t.rand_sip_bits {
            let hi = 1u64.checked_shl(bits).unwrap_or(u64::MAX);
            b = b.random(HeaderField::Sip, DistSpec::Uniform { lo: 0, hi }, bits);
        }
        if let Some(ns) = t.interval_ns {
            b = b.interval_ns(ns);
        }
        b.build()
    }

    fn query_def(&self) -> Option<QueryDef> {
        match self.query {
            QuerySpec::None => None,
            QuerySpec::ReceivedSum => Some(
                query("Q1").received().map([NtField::PktLen]).reduce_all(ReduceFunc::Sum).build(),
            ),
            QuerySpec::ReceivedPortSum => Some(
                query("Q1")
                    .received_port(0)
                    .map([NtField::PktLen])
                    .reduce_all(ReduceFunc::Sum)
                    .build(),
            ),
            QuerySpec::KeyedSportCount => {
                Some(query("Q1").received().reduce([HeaderField::Sport], ReduceFunc::Count).build())
            }
            QuerySpec::DistinctSport => {
                Some(query("Q1").received().distinct([HeaderField::Sport]).build())
            }
        }
    }

    /// Renders the spec through the NTAPI builder into a [`Program`].
    pub fn to_program(&self) -> Program {
        let trigs: Vec<TriggerDef> = self
            .triggers
            .iter()
            .enumerate()
            .map(|(i, t)| Self::trigger_def(&format!("T{}", i + 1), t))
            .collect();
        program(trigs, self.query_def())
    }

    /// Renders the spec as DSL source through the module system: each
    /// trigger becomes a parameterized `template` in a library module,
    /// and the main unit imports it and instantiates `T1..Tn`.  Returns
    /// `(main unit, library module)` source text.
    pub fn modular_source(&self) -> (String, String) {
        let mut lib = SourceUnit::default();
        let mut main = SourceUnit::default();
        main.items.push(Item::Import(ImportDecl { path: "fuzzlib.nt".into(), span: Span::DUMMY }));
        for (i, t) in self.triggers.iter().enumerate() {
            let tname = format!("zztrig{}", i + 1);
            let mut body = Self::trigger_def(&tname, t);
            // Parameterize the destination port and frame length: the
            // instantiation binds them back to the spec's constants.
            for set in &mut body.sets {
                for (f, v) in set.fields.iter().zip(set.values.iter_mut()) {
                    match f {
                        NtField::Header(HeaderField::Dport) => {
                            *v = Value::Param { name: "zzport".into(), span: Span::DUMMY };
                        }
                        NtField::PktLen => {
                            *v = Value::Param { name: "zzlen".into(), span: Span::DUMMY };
                        }
                        _ => {}
                    }
                }
            }
            lib.items.push(Item::Template(TemplateDecl {
                name: tname.clone(),
                params: vec![("zzport".into(), Span::DUMMY), ("zzlen".into(), Span::DUMMY)],
                body: TemplateBody::Trigger(body),
                span: Span::DUMMY,
            }));
            main.items.push(Item::Instance(InstanceDecl {
                name: format!("T{}", i + 1),
                template: tname,
                args: vec![
                    Arg { name: "zzport".into(), value: Value::Const(t.dport), span: Span::DUMMY },
                    Arg {
                        name: "zzlen".into(),
                        value: Value::Const(t.frame_len),
                        span: Span::DUMMY,
                    },
                ],
                span: Span::DUMMY,
            }));
        }
        if let Some(q) = self.query_def() {
            main.items.push(Item::Query(q));
        }
        (print_unit(&main), print_unit(&lib))
    }

    /// Resolves the modular rendering and cross-checks it against the
    /// direct builder program.  A structural divergence panics — that is
    /// an invariant-A finding (the module system changed semantics), not
    /// a rejection.  `Err` means the resolver statically rejected the
    /// rendered source (legitimate for out-of-grammar values).
    pub fn resolve_modular(&self) -> Result<Program, String> {
        let (main, lib) = self.modular_source();
        let loader = MemLoader { files: [("fuzzlib.nt".to_string(), lib)].into_iter().collect() };
        let resolved =
            resolve_str(&main, "fuzz_main.nt", &loader, &[]).map_err(|e| e.to_string())?;
        let mut want = self.to_program();
        let mut got = resolved.clone();
        want.strip_spans();
        got.strip_spans();
        want.source = None;
        got.source = None;
        want.sources = None;
        got.sources = None;
        assert_eq!(want, got, "modular rendering resolved to a different program\n{main}");
        Ok(resolved)
    }

    /// The program the oracle checks: the resolver pipeline for modular
    /// specs, the builder program otherwise.  `Err` = static rejection.
    fn effective_program(&self) -> Result<Program, String> {
        if self.modular {
            self.resolve_modular()
        } else {
            Ok(self.to_program())
        }
    }

    /// One-line corpus serialization (inverse of [`TaskSpec::parse`]).
    pub fn to_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "query={}",
            match self.query {
                QuerySpec::None => "none",
                QuerySpec::ReceivedSum => "sum",
                QuerySpec::ReceivedPortSum => "portsum",
                QuerySpec::KeyedSportCount => "keyed",
                QuerySpec::DistinctSport => "distinct",
            }
        );
        if self.modular {
            s.push_str(" modular=1");
        }
        for t in &self.triggers {
            let sport = match t.sport_range {
                Some((lo, hi, st)) => format!("{lo}:{hi}:{st}"),
                None => "-".into(),
            };
            let rand = t.rand_sip_bits.map_or("-".into(), |b| b.to_string());
            let ival = t.interval_ns.map_or("-".into(), |n| n.to_string());
            let ports = t.ports.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let _ = write!(
                s,
                " trig frame={} tcp={} dport={} sport={sport} rand={rand} interval={ival} \
                 ports={ports} loops={}",
                t.frame_len,
                u8::from(t.tcp),
                t.dport,
                t.loops
            );
        }
        s
    }

    /// Parses the [`TaskSpec::to_line`] form; `None` on any malformed
    /// part.  The `modular=` token is optional (absent in pre-module
    /// corpus entries) and defaults to `false`.
    pub fn parse(line: &str) -> Option<TaskSpec> {
        let mut query_kind = QuerySpec::None;
        let mut modular = false;
        let mut triggers: Vec<TriggerSpec> = Vec::new();
        for tok in line.split_whitespace() {
            if tok == "trig" {
                triggers.push(TriggerSpec {
                    frame_len: 64,
                    tcp: false,
                    dport: 80,
                    sport_range: None,
                    rand_sip_bits: None,
                    interval_ns: None,
                    ports: vec![0],
                    loops: 0,
                });
                continue;
            }
            let (k, v) = tok.split_once('=')?;
            if k == "query" {
                query_kind = match v {
                    "none" => QuerySpec::None,
                    "sum" => QuerySpec::ReceivedSum,
                    "portsum" => QuerySpec::ReceivedPortSum,
                    "keyed" => QuerySpec::KeyedSportCount,
                    "distinct" => QuerySpec::DistinctSport,
                    _ => return None,
                };
                continue;
            }
            if k == "modular" {
                modular = v == "1";
                continue;
            }
            let t = triggers.last_mut()?;
            match k {
                "frame" => t.frame_len = v.parse().ok()?,
                "tcp" => t.tcp = v == "1",
                "dport" => t.dport = v.parse().ok()?,
                "sport" => {
                    t.sport_range = if v == "-" {
                        None
                    } else {
                        let mut it = v.split(':');
                        Some((
                            it.next()?.parse().ok()?,
                            it.next()?.parse().ok()?,
                            it.next()?.parse().ok()?,
                        ))
                    }
                }
                "rand" => t.rand_sip_bits = if v == "-" { None } else { Some(v.parse().ok()?) },
                "interval" => t.interval_ns = if v == "-" { None } else { Some(v.parse().ok()?) },
                "ports" => {
                    t.ports = v.split(',').map(str::parse).collect::<Result<Vec<u64>, _>>().ok()?
                }
                "loops" => t.loops = v.parse().ok()?,
                _ => return None,
            }
        }
        if triggers.is_empty() {
            return None;
        }
        Some(TaskSpec { triggers, query: query_kind, modular })
    }
}

/// Draws one random spec from the grammar.
pub fn gen_spec(rng: &mut SplitMix64) -> TaskSpec {
    let n_triggers = 1 + usize::from(rng.chance(30));
    let triggers = (0..n_triggers)
        .map(|_| {
            let sport_range = rng.chance(40).then(|| {
                let lo = rng.below(70_000);
                let hi = lo + rng.below(70_000);
                (lo, hi, rng.below(4)) // step 0 is an intended bad case
            });
            TriggerSpec {
                frame_len: rng.pick(&[60, 64, 128, 256, 512, 1024, 1500, 9000]),
                tcp: rng.chance(50),
                dport: rng.below(70_000), // > 65535 is an intended bad case
                sport_range,
                rand_sip_bits: rng.chance(40).then(|| rng.below(40) as u32),
                interval_ns: rng.chance(30).then(|| rng.below(100_000)),
                ports: (0..1 + rng.below(3)).map(|_| rng.below(u64::from(SIM_PORTS))).collect(),
                loops: rng.below(3),
            }
        })
        .collect();
    let query = match rng.below(5) {
        0 => QuerySpec::None,
        1 => QuerySpec::ReceivedSum,
        2 => QuerySpec::ReceivedPortSum,
        3 => QuerySpec::KeyedSportCount,
        _ => QuerySpec::DistinctSport,
    };
    let modular = rng.chance(40);
    TaskSpec { triggers, query, modular }
}

// ---------------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------------

/// One invariant violation, with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke: `"A"`, `"B"`, `"C"`, `"D"`, `"E"`, or
    /// `"F"`.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// Outcome of checking one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The static pipeline rejected the task (a legitimate outcome —
    /// much of the grammar is intentionally out of range).
    Rejected,
    /// Accepted, simulated, all invariants held.
    Accepted,
    /// An invariant broke.
    Violated(Violation),
}

struct SimSummary {
    digest: u64,
    proven_wrap_events: usize,
    /// Total register wrap events (invariant E compares full logs).
    wrap_events: usize,
    recirculations: u64,
    /// Flows reported by keyed/distinct queries (resident + evicted
    /// digest pairs + nonzero exact counters).
    reported_flows: usize,
    /// Reported flows whose key falls outside the injected header space
    /// — any nonzero count is an invariant-D violation.
    rogue_flows: usize,
    /// Whether the switch held a vector plan for this run (always false
    /// under the interp/compiled modes; under vector mode, false means
    /// the planner rejected the ingress and the run used the compiled
    /// fallback).
    vector_planned: bool,
}

enum SimResult {
    /// Switch-level lint (or builder limits) rejected the built program.
    Rejected,
    Ran(SimSummary),
}

/// Builds and simulates one compiled task for a short deterministic
/// window, digesting sink counters and register state.
///
/// Tasks with a keyed/distinct query run on a loop-back testbed (egress
/// ports wired into ingress ports of the same device) so received-traffic
/// queries observe the generated flows; the summary then carries the
/// invariant-D evidence (reported vs. rogue flows).  All other tasks keep
/// the tester → sink wiring.
///
/// `exec` is the pipeline executor the tester is built on (one lowering,
/// at build time), so the invariant-E differential is independent of how
/// the harness was launched.  Turning on the register wrap trace after
/// the build is safe: executor lowering reads only the pipelines and the
/// field table, never register state.
fn simulate(task: &CompiledTask, exec: ExecMode) -> SimResult {
    let cfg = TesterConfig::builder()
        .ports(SIM_PORTS)
        .speed_bps(ht_packet::wire::gbps(100))
        .exec(exec)
        .build()
        .expect("fuzz tester config is statically valid");
    let mut built = match build(task, &cfg) {
        Ok(b) => b,
        Err(_) => return SimResult::Rejected,
    };
    let mut keyed: Vec<_> = built
        .handles
        .queries
        .values()
        .filter(|h| h.engine.is_some() || h.exact.is_some())
        .cloned()
        .collect();
    keyed.sort_by(|a, b| a.name.cmp(&b.name));
    let loopback = !keyed.is_empty();
    let proven: HashSet<RegId> = analyze_switch(&built.switch)
        .map_or_else(Vec::new, |a| proven_nowrap_regs(&built.switch, &a))
        .into_iter()
        .collect();
    built.switch.regs.set_trace_wraps(true);

    let mut templates = Vec::new();
    for i in 0..built.templates.len() {
        templates.extend(built.template_copies(i, COPIES));
    }
    let mut world = World::builder().seed(1).build().unwrap();
    let tester = world.add_device(Box::new(built.switch));
    let sink_id = world.add_device(Box::new(Sink::new("sink")));
    if loopback {
        for p in (0..SIM_PORTS).step_by(2) {
            world.link((tester, p), (tester, p + 1), LinkSpec::new());
        }
    } else {
        for p in 0..SIM_PORTS {
            world.link((tester, p), (sink_id, p), LinkSpec::new());
        }
    }
    SwitchCpu::new().inject_templates(&mut world, tester, templates, 0);
    world.run_until(us(WINDOW_US));

    let mut h = Fnv1a::new();
    {
        let sink: &Sink = world.device(sink_id);
        for p in 0..SIM_PORTS {
            let (frames, bytes) = sink.ports.get(&p).map_or((0, 0), |s| (s.frames, s.bytes));
            h.write(&u64::from(p).to_le_bytes());
            h.write(&frames.to_le_bytes());
            h.write(&bytes.to_le_bytes());
        }
    }
    let sw: &Switch = world.device(tester);
    for arr in sw.regs.iter() {
        for i in 0..arr.depth().min(DIGEST_SLOTS) {
            h.write(&arr.cp_read(i).to_le_bytes());
        }
    }
    let (mut reported_flows, mut rogue_flows) = (0usize, 0usize);
    for handle in &keyed {
        let keys = match &handle.query.kind {
            QueryKind::ReduceKeyed { keys, .. } | QueryKind::Distinct { keys } => keys,
            _ => continue,
        };
        // The injected set: every key tuple the templates can emit.  An
        // unenumerable space means the compiler accepted a keyed query it
        // could not have sized the engine for — skip rather than guess.
        let Ok(space) = global_space(&task.templates, keys, false) else {
            continue;
        };
        if let Some(engine) = &handle.engine {
            // `keyed_by_digest` takes the engine lock itself — merge the
            // digest map before computing canonical pairs under the lock.
            let digest_map = keyed_by_digest(sw, handle);
            let eng = engine.lock().unwrap();
            let canon: HashSet<(u64, u64)> =
                space.iter().map(|k| eng.canonical_of_key(k)).collect();
            for pair in digest_map.keys() {
                reported_flows += 1;
                if !canon.contains(pair) {
                    rogue_flows += 1;
                }
            }
        }
        if let Some((reg, exact_keys)) = &handle.exact {
            let rows: HashSet<Vec<u64>> = space.iter().map(<[u64]>::to_vec).collect();
            let arr = sw.regs.array(*reg);
            for (i, key) in exact_keys.iter().enumerate() {
                if arr.cp_read(i) != 0 {
                    reported_flows += 1;
                    if !rows.contains(key) {
                        rogue_flows += 1;
                    }
                }
            }
        }
    }
    let proven_wrap_events = sw.regs.wrap_log().iter().filter(|e| proven.contains(&e.reg)).count();
    SimResult::Ran(SimSummary {
        digest: h.finish(),
        proven_wrap_events,
        wrap_events: sw.regs.wrap_log().len(),
        recirculations: sw.counters.recirculations,
        reported_flows,
        rogue_flows,
        vector_planned: sw.vector_active(),
    })
}

/// Both sides of the invariant-C differential for one program, simulated
/// under identical testbeds.
pub struct DifferentialDigest {
    /// Digest of the fully lowered task (all passes, including
    /// `analysis-annotation`).
    pub full: u64,
    /// Digest of the lowering stopped right after `task-lint`.
    pub prefix: u64,
    /// Recirculations observed in the full run (lets tests assert the
    /// fixture really exercised the back edge).
    pub recirculations: u64,
}

/// Runs the invariant-C probe on an explicit program: `None` when either
/// pipeline statically rejects it, otherwise both digests.  Equal digests
/// certify that `analysis-annotation` is pure annotation.
pub fn differential_digest(prog: &Program) -> Option<DifferentialDigest> {
    let task = compile(prog).ok()?;
    let (pre, _, _) = lower_with(&task.program, task.options, Some("task-lint")).ok()?;
    let pre_task = CompiledTask {
        ir: pre,
        program: task.program.clone(),
        options: task.options,
        warnings: Vec::new(),
    };
    match (simulate(&task, ExecMode::Compiled), simulate(&pre_task, ExecMode::Compiled)) {
        (SimResult::Ran(f), SimResult::Ran(p)) => Some(DifferentialDigest {
            full: f.digest,
            prefix: p.digest,
            recirculations: f.recirculations,
        }),
        _ => None,
    }
}

/// Both sides of the invariant-E executor differential for one program,
/// simulated under identical testbeds.
pub struct ExecDifferential {
    /// Digest under the per-stage interpreter.
    pub interp: u64,
    /// Digest under the compiled threaded-code executor.
    pub compiled: u64,
    /// Digest under the lane-batched vector executor (or its compiled
    /// fallback when the vector planner rejects the ingress).
    pub vector: u64,
    /// Register wrap events observed under `(interp, compiled, vector)`.
    pub wrap_events: (usize, usize, usize),
    /// `(reported, rogue)` keyed-query flow counts under the interpreter.
    pub interp_flows: (usize, usize),
    /// `(reported, rogue)` keyed-query flow counts under the compiled
    /// executor.
    pub compiled_flows: (usize, usize),
    /// `(reported, rogue)` keyed-query flow counts under the vector
    /// executor.
    pub vector_flows: (usize, usize),
    /// Whether the vector-mode run actually executed lane-batched (the
    /// planner accepted the ingress); `false` means it ran the compiled
    /// fallback, which invariant F deliberately also covers.
    pub vector_planned: bool,
}

impl ExecDifferential {
    /// Whether every compared observable is byte-identical across all
    /// three executors.
    pub fn agree(&self) -> bool {
        self.interp == self.compiled
            && self.interp == self.vector
            && self.wrap_events.0 == self.wrap_events.1
            && self.wrap_events.0 == self.wrap_events.2
            && self.interp_flows == self.compiled_flows
            && self.interp_flows == self.vector_flows
    }
}

/// Runs the invariant-E/F probe on an explicit program: `None` when the
/// static pipeline rejects it, otherwise all three executors' evidence.
pub fn exec_differential(prog: &Program) -> Option<ExecDifferential> {
    let task = compile(prog).ok()?;
    match (
        simulate(&task, ExecMode::Interp),
        simulate(&task, ExecMode::Compiled),
        simulate(&task, ExecMode::Vector),
    ) {
        (SimResult::Ran(i), SimResult::Ran(c), SimResult::Ran(v)) => Some(ExecDifferential {
            interp: i.digest,
            compiled: c.digest,
            vector: v.digest,
            wrap_events: (i.wrap_events, c.wrap_events, v.wrap_events),
            interp_flows: (i.reported_flows, i.rogue_flows),
            compiled_flows: (c.reported_flows, c.rogue_flows),
            vector_flows: (v.reported_flows, v.rogue_flows),
            vector_planned: v.vector_planned,
        }),
        _ => None,
    }
}

fn check_spec_inner(spec: &TaskSpec) -> CaseOutcome {
    let prog = match spec.effective_program() {
        Ok(p) => p,
        Err(_) => return CaseOutcome::Rejected,
    };
    let task = match compile(&prog) {
        Ok(t) => t,
        Err(_) => return CaseOutcome::Rejected,
    };
    // Invariant C precondition: the same program lowered only through
    // `task-lint` (no analysis-annotation).
    let pre = match lower_with(&task.program, task.options, Some("task-lint")) {
        Ok((module, _, _)) => module,
        Err(_) => {
            return CaseOutcome::Violated(Violation {
                invariant: "C",
                detail: "prefix lowering failed where full lowering succeeded".into(),
            })
        }
    };
    let pre_task = CompiledTask {
        ir: pre,
        program: task.program.clone(),
        options: task.options,
        warnings: Vec::new(),
    };

    let full = simulate(&task, ExecMode::Compiled);
    let prefix = simulate(&pre_task, ExecMode::Compiled);
    // Invariant E: the compiled executor must be observationally
    // identical to the interpreter on the fully lowered task.
    let interp = simulate(&task, ExecMode::Interp);
    match (&full, &interp) {
        (SimResult::Ran(c), SimResult::Ran(i)) => {
            if c.digest != i.digest
                || c.wrap_events != i.wrap_events
                || (c.reported_flows, c.rogue_flows) != (i.reported_flows, i.rogue_flows)
            {
                return CaseOutcome::Violated(Violation {
                    invariant: "E",
                    detail: format!(
                        "executors diverged: compiled {:#018x}/{} wraps/{} flows vs \
                         interp {:#018x}/{} wraps/{} flows",
                        c.digest,
                        c.wrap_events,
                        c.reported_flows,
                        i.digest,
                        i.wrap_events,
                        i.reported_flows
                    ),
                });
            }
        }
        (SimResult::Rejected, SimResult::Rejected) => {}
        _ => {
            return CaseOutcome::Violated(Violation {
                invariant: "E",
                detail: "executor choice changed buildability".into(),
            })
        }
    }
    // Invariant F: the lane-batched vector executor (or its compiled
    // fallback when the vector planner rejects the ingress) must match
    // the interpreter on the same observables.
    let vector = simulate(&task, ExecMode::Vector);
    match (&vector, &interp) {
        (SimResult::Ran(v), SimResult::Ran(i)) => {
            if v.digest != i.digest
                || v.wrap_events != i.wrap_events
                || (v.reported_flows, v.rogue_flows) != (i.reported_flows, i.rogue_flows)
            {
                return CaseOutcome::Violated(Violation {
                    invariant: "F",
                    detail: format!(
                        "executors diverged: vector {:#018x}/{} wraps/{} flows vs \
                         interp {:#018x}/{} wraps/{} flows",
                        v.digest,
                        v.wrap_events,
                        v.reported_flows,
                        i.digest,
                        i.wrap_events,
                        i.reported_flows
                    ),
                });
            }
        }
        (SimResult::Rejected, SimResult::Rejected) => {}
        _ => {
            return CaseOutcome::Violated(Violation {
                invariant: "F",
                detail: "vector executor choice changed buildability".into(),
            })
        }
    }
    match (full, prefix) {
        (SimResult::Rejected, SimResult::Rejected) => CaseOutcome::Rejected,
        (SimResult::Rejected, SimResult::Ran(_)) | (SimResult::Ran(_), SimResult::Rejected) => {
            CaseOutcome::Violated(Violation {
                invariant: "C",
                detail: "analysis-annotation changed buildability".into(),
            })
        }
        (SimResult::Ran(f), SimResult::Ran(p)) => {
            if f.digest != p.digest {
                return CaseOutcome::Violated(Violation {
                    invariant: "C",
                    detail: format!(
                        "digest diverged: full {:#018x} vs prefix {:#018x}",
                        f.digest, p.digest
                    ),
                });
            }
            if f.proven_wrap_events > 0 {
                return CaseOutcome::Violated(Violation {
                    invariant: "B",
                    detail: format!(
                        "{} wrap event(s) on registers certified never-wrapping",
                        f.proven_wrap_events
                    ),
                });
            }
            if f.rogue_flows > 0 {
                return CaseOutcome::Violated(Violation {
                    invariant: "D",
                    detail: format!(
                        "{} of {} reported flow(s) outside the injected set",
                        f.rogue_flows, f.reported_flows
                    ),
                });
            }
            CaseOutcome::Accepted
        }
    }
}

/// Checks one spec against all six invariants.  A panic anywhere in
/// resolve/compile/build/simulate is itself an invariant-A violation.
pub fn check_spec(spec: &TaskSpec) -> CaseOutcome {
    match catch_unwind(AssertUnwindSafe(|| check_spec_inner(spec))) {
        Ok(outcome) => outcome,
        Err(_) => CaseOutcome::Violated(Violation {
            invariant: "A",
            detail: "panic during compile/build/simulate".into(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

fn simplifications(spec: &TaskSpec) -> Vec<TaskSpec> {
    let mut out = Vec::new();
    // Drop whole triggers first — the biggest cuts shrink fastest.
    if spec.triggers.len() > 1 {
        for i in 0..spec.triggers.len() {
            let mut s = spec.clone();
            s.triggers.remove(i);
            out.push(s);
        }
    }
    // Peel the module-system layer before field cuts: a violation that
    // survives with `modular = false` is not a resolver finding.
    if spec.modular {
        let mut s = spec.clone();
        s.modular = false;
        out.push(s);
    }
    if spec.query != QuerySpec::None {
        let mut s = spec.clone();
        s.query = QuerySpec::None;
        out.push(s);
    }
    for (i, t) in spec.triggers.iter().enumerate() {
        let mut field_cuts: Vec<TriggerSpec> = Vec::new();
        if t.sport_range.is_some() {
            field_cuts.push(TriggerSpec { sport_range: None, ..t.clone() });
        }
        if t.rand_sip_bits.is_some() {
            field_cuts.push(TriggerSpec { rand_sip_bits: None, ..t.clone() });
        }
        if t.interval_ns.is_some() {
            field_cuts.push(TriggerSpec { interval_ns: None, ..t.clone() });
        }
        if t.frame_len != 64 {
            field_cuts.push(TriggerSpec { frame_len: 64, ..t.clone() });
        }
        if t.dport != 80 {
            field_cuts.push(TriggerSpec { dport: 80, ..t.clone() });
        }
        if t.loops != 0 {
            field_cuts.push(TriggerSpec { loops: 0, ..t.clone() });
        }
        if t.ports != [0] {
            field_cuts.push(TriggerSpec { ports: vec![0], ..t.clone() });
        }
        if t.tcp {
            field_cuts.push(TriggerSpec { tcp: false, ..t.clone() });
        }
        for cut in field_cuts {
            let mut s = spec.clone();
            s.triggers[i] = cut;
            out.push(s);
        }
    }
    out
}

/// Greedily shrinks a violating spec: repeatedly adopts the first
/// simplification that still violates the *same* invariant, within
/// a fixed budget of re-checks.
pub fn shrink(spec: &TaskSpec, invariant: &str) -> TaskSpec {
    let mut current = spec.clone();
    let mut budget = SHRINK_BUDGET;
    loop {
        let mut improved = false;
        for cand in simplifications(&current) {
            if budget == 0 {
                return current;
            }
            budget -= 1;
            if let CaseOutcome::Violated(v) = check_spec(&cand) {
                if v.invariant == invariant {
                    current = cand;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

// ---------------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------------

/// One confirmed, minimized counterexample.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Zero-based index of the generated case.
    pub case_index: u64,
    /// The violated invariant and evidence.
    pub violation: Violation,
    /// The original failing spec.
    pub spec: TaskSpec,
    /// The shrunk reproducer.
    pub minimized: TaskSpec,
}

/// Campaign totals.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases generated.
    pub cases: u64,
    /// Cases the static pipeline accepted (and that passed all checks).
    pub accepted: u64,
    /// Cases the static pipeline rejected.
    pub rejected: u64,
    /// Minimized counterexamples (empty on a healthy build).
    pub failures: Vec<FuzzFailure>,
}

/// Runs `cases` random tasks from `seed` through the oracle, shrinking
/// every violation.
pub fn run_fuzz(cases: u64, seed: u64) -> FuzzReport {
    let mut rng = SplitMix64::new(seed);
    let mut report = FuzzReport { cases, accepted: 0, rejected: 0, failures: Vec::new() };
    for i in 0..cases {
        let spec = gen_spec(&mut rng);
        match check_spec(&spec) {
            CaseOutcome::Accepted => report.accepted += 1,
            CaseOutcome::Rejected => report.rejected += 1,
            CaseOutcome::Violated(v) => {
                let minimized = shrink(&spec, v.invariant);
                report.failures.push(FuzzFailure { case_index: i, violation: v, spec, minimized });
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Serializes one failure as a corpus file body (comment header + the
/// one-line spec).
pub fn corpus_entry(f: &FuzzFailure) -> String {
    format!(
        "# invariant {}: {}\n# original: {}\n{}\n",
        f.violation.invariant,
        f.violation.detail,
        f.spec.to_line(),
        f.minimized.to_line()
    )
}

/// Deterministic corpus file name for a failure.
pub fn corpus_file_name(f: &FuzzFailure) -> String {
    let mut h = Fnv1a::new();
    for b in f.minimized.to_line().bytes() {
        h.write(&u64::from(b).to_le_bytes());
    }
    format!("{}-{:016x}.case", f.violation.invariant.to_lowercase(), h.finish())
}

/// Writes a failure into the corpus directory, returning the path.
pub fn write_corpus_entry(dir: &Path, f: &FuzzFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(corpus_file_name(f));
    std::fs::write(&path, corpus_entry(f))?;
    Ok(path)
}

/// Replays every `.case` file in a corpus directory; returns
/// `(file name, outcome)` per case, sorted by name.  Stored cases are
/// *fixed* past counterexamples — a replay that violates again is a
/// regression.
pub fn replay_corpus(dir: &Path) -> std::io::Result<Vec<(String, CaseOutcome)>> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let body = std::fs::read_to_string(&path)?;
        let spec_line =
            body.lines().find(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty());
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        match spec_line.and_then(TaskSpec::parse) {
            Some(spec) => out.push((name, check_spec(&spec))),
            None => out.push((
                name,
                CaseOutcome::Violated(Violation {
                    invariant: "A",
                    detail: "unparseable corpus entry".into(),
                }),
            )),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        let mut r = SplitMix64::new(1);
        // Reference values of the published SplitMix64 algorithm.
        assert_eq!(r.next_u64(), 0x910a_2dec_8902_5cc1);
        assert_eq!(r.next_u64(), 0xbeeb_8da1_658e_ec67);
    }

    #[test]
    fn spec_line_round_trips() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..50 {
            let spec = gen_spec(&mut rng);
            let line = spec.to_line();
            assert_eq!(TaskSpec::parse(&line).as_ref(), Some(&spec), "{line}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<TaskSpec> = {
            let mut r = SplitMix64::new(9);
            (0..20).map(|_| gen_spec(&mut r)).collect()
        };
        let b: Vec<TaskSpec> = {
            let mut r = SplitMix64::new(9);
            (0..20).map(|_| gen_spec(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn smoke_campaign_has_no_failures() {
        let report = run_fuzz(25, 1);
        assert_eq!(report.cases, 25);
        // The exact split is pinned: grammar or analysis drift must show
        // up here, not pass as a still-mixed campaign.
        assert_eq!((report.accepted, report.rejected), (8, 17), "case mix drifted");
        assert!(report.failures.is_empty(), "unexpected counterexamples: {:?}", report.failures);
    }

    fn minimal_trigger() -> TriggerSpec {
        TriggerSpec {
            frame_len: 64,
            tcp: false,
            dport: 80,
            sport_range: None,
            rand_sip_bits: None,
            interval_ns: None,
            ports: vec![0],
            loops: 0,
        }
    }

    #[test]
    fn valid_minimal_spec_is_accepted() {
        let spec =
            TaskSpec { triggers: vec![minimal_trigger()], query: QuerySpec::None, modular: false };
        assert_eq!(check_spec(&spec), CaseOutcome::Accepted);
    }

    #[test]
    fn out_of_range_dport_is_rejected_not_a_crash() {
        let spec = TaskSpec {
            triggers: vec![TriggerSpec { dport: 70_000, ..minimal_trigger() }],
            query: QuerySpec::None,
            modular: false,
        };
        assert_eq!(check_spec(&spec), CaseOutcome::Rejected);
    }

    #[test]
    fn modular_rendering_resolves_to_the_builder_program() {
        let spec = TaskSpec {
            triggers: vec![
                TriggerSpec { sport_range: Some((2000, 2009, 1)), ..minimal_trigger() },
                TriggerSpec { tcp: true, dport: 443, ..minimal_trigger() },
            ],
            query: QuerySpec::ReceivedSum,
            modular: true,
        };
        let (main, lib) = spec.modular_source();
        assert!(main.contains("import \"fuzzlib.nt\""), "main unit:\n{main}");
        assert!(main.contains("T1 = zztrig1(zzport=80, zzlen=64)"), "main unit:\n{main}");
        assert!(lib.contains("template zztrig1(zzport, zzlen)"), "library:\n{lib}");
        // resolve_modular asserts structural equality internally.
        let resolved = spec.resolve_modular().expect("modular rendering resolves");
        assert_eq!(resolved.triggers.len(), 2);
        assert_eq!(check_spec(&spec), CaseOutcome::Accepted);
    }

    #[test]
    fn modular_out_of_grammar_values_still_reject_cleanly() {
        // dport 70000 overflows the field; the modular path must reject
        // (at resolve or compile), never panic.
        let spec = TaskSpec {
            triggers: vec![TriggerSpec { dport: 70_000, ..minimal_trigger() }],
            query: QuerySpec::None,
            modular: true,
        };
        assert_eq!(check_spec(&spec), CaseOutcome::Rejected);
    }

    #[test]
    fn spec_line_without_modular_token_parses_as_direct() {
        let spec = TaskSpec::parse(
            "query=none trig frame=64 tcp=0 dport=80 sport=- rand=- interval=- ports=0 loops=0",
        )
        .expect("legacy line parses");
        assert!(!spec.modular);
        let round = TaskSpec::parse(&spec.to_line()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn executors_agree_on_a_stateful_keyed_spec() {
        // Invariant E on a spec exercising ranges, random fields, and a
        // keyed engine — the broadest op mix the grammar can produce.
        let spec = TaskSpec {
            triggers: vec![TriggerSpec {
                sport_range: Some((3000, 3015, 1)),
                rand_sip_bits: Some(12),
                ..minimal_trigger()
            }],
            query: QuerySpec::KeyedSportCount,
            modular: false,
        };
        let d = exec_differential(&spec.to_program()).expect("spec builds under both executors");
        assert!(d.agree(), "compiled {:#018x} vs interp {:#018x}", d.compiled, d.interp);
        assert!(d.interp_flows.0 > 0, "differential must observe flows to be non-vacuous");
    }

    #[test]
    fn keyed_query_reports_only_injected_flows() {
        // Invariant D must be non-vacuous: on the loop-back testbed the
        // distinct query observes the generated flows, and every
        // reported flow lies inside the injected sport range.
        let spec = TaskSpec {
            triggers: vec![TriggerSpec { sport_range: Some((5000, 5019, 1)), ..minimal_trigger() }],
            query: QuerySpec::DistinctSport,
            modular: false,
        };
        let task = compile(&spec.to_program()).expect("keyed spec compiles");
        match simulate(&task, ExecMode::Compiled) {
            SimResult::Ran(s) => {
                assert!(s.reported_flows > 0, "loop-back testbed saw no flows");
                assert_eq!(s.rogue_flows, 0, "reported flows outside the injected set");
            }
            SimResult::Rejected => panic!("keyed spec must build"),
        }
        assert_eq!(check_spec(&spec), CaseOutcome::Accepted);
    }
}
