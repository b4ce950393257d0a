//! `frontend_mix` — thousands of tasks per rep through the whole front
//! end: the three `tasks/*.nt` (imports + templates, via `resolve_file`)
//! plus grammar-generated tasks, ≈40 % of them rendered as import+template
//! modules, accepted and refused alike.  Each goes
//! resolve → `lower_with` → `ht_core::build` (which lints) →
//! `set_exec_mode(Compiled)` → `generate_p4`.
//!
//! Why: the edit-loop / CI / fuzz use of the system.  No event is ever
//! simulated, so engine work must not move it.

use super::{timed_rep, Rep, Scale};
use crate::front::{front_end, Loader, Source};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::asic::ExecMode;
use hypertester::bench::fuzz::{gen_spec, SplitMix64};
use hypertester::ht::{Gbps, TesterConfig};
use hypertester::ntapi::codegen::generate_p4;
use hypertester::ntapi::printer::print_program;
use hypertester::ntapi::MemLoader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Generated tasks per rep at full scale (plus the three shipped ones).
const TASKS: u64 = 2_400;
/// The shipped task files, relative to the checkout root.
const SHIPPED: [&str; 3] = ["tasks/scan.nt", "tasks/syn_flood.nt", "tasks/throughput.nt"];

/// The grammar stream the task *shapes* are drawn from.  Fixed, because a
/// shape decides what a task costs (a keyed query over a wide port range
/// runs a false-positive precompute a thousand times dearer than a
/// refusal), and 2 400 draws do not average that out: re-drawing shapes per
/// seed moved `wall_s` by ±12 %.  The seed instead draws everything that is
/// cost-neutral — destination ports within their validity class, which
/// ports a trigger replicates to — and the order of the tasks.
const GRAMMAR_STREAM: u64 = 0x4854_2d66_726f_6e74;

/// The seeded task sources.
pub fn inputs(seed: u64, scale: Scale) -> Vec<Source> {
    let mut shapes = SplitMix64::new(GRAMMAR_STREAM);
    let mut rng = Rng::new(seed, 5);
    let mut sources: Vec<Source> = (0..scale.of(TASKS))
        .map(|i| {
            let mut spec = gen_spec(&mut shapes);
            for t in &mut spec.triggers {
                // > 65535 is the grammar's intended out-of-range case.
                t.dport = if t.dport <= 65_535 {
                    rng.range(1, 65_535)
                } else {
                    rng.range(65_536, 69_999)
                };
                // Rotating keeps duplicates duplicate (a lint finding).
                let turn = rng.range(0, 3);
                for p in &mut t.ports {
                    *p = (*p + turn) % 4;
                }
            }
            if spec.modular {
                let (main, lib) = spec.modular_source();
                Source {
                    name: format!("gen{i}.nt"),
                    text: main,
                    loader: Loader::Mem(MemLoader {
                        files: [("fuzzlib.nt".to_string(), lib)].into_iter().collect(),
                    }),
                }
            } else {
                Source::plain(&format!("gen{i}.nt"), print_program(&spec.to_program()))
            }
        })
        .collect();
    sources.extend(SHIPPED.iter().map(|path| {
        Source {
            name: (*path).into(),
            text: std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("{path}: {e} (run from the checkout root)")),
            loader: Loader::File,
        }
    }));
    for i in (1..sources.len()).rev() {
        sources.swap(i, rng.range(0, i as u64) as usize);
    }
    sources
}

pub fn setup_only(seed: u64, scale: Scale) {
    std::hint::black_box(inputs(seed, scale));
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    timed_rep(tr, |tr, rep, start| {
        let sources = tr.span("bench.inputs", |_| inputs(seed, scale));
        // Every generated trigger replicates within ports 0..4, and so do
        // the shipped tasks.
        let cfg = TesterConfig::builder()
            .ports(4)
            .speed(Gbps(100))
            .build()
            .expect("static tester config");
        rep.setup_s = start.elapsed().as_secs_f64();

        let mut digest = Fnv::default();
        let (mut accepted, mut rejected) = (0u64, 0u64);
        let core = Instant::now();
        for src in &sources {
            let t = Instant::now();
            let front = &mut rep.front;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                front_end(tr, src, &cfg, front).map(|mut built| {
                    tr.span("asic.exec.compile", |_| {
                        built.switch.set_exec_mode(ExecMode::Compiled)
                    });
                    tr.span("ntapi.codegen", |_| generate_p4(&built.task)).len() as u64
                })
            }));
            rep.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            // A task correctly refused is a success when it carries at least
            // one diagnostic with a span inside its source; a panic, or a
            // refusal that explains or points at nothing, is a failure.
            rep.op(match outcome {
                Ok(Ok(p4_len)) => {
                    accepted += 1;
                    digest.words([1, p4_len]);
                    (p4_len == 0).then(|| format!("{}: empty P4", src.name))
                }
                Ok(Err(r)) => {
                    rejected += 1;
                    digest.bytes(r.stage.as_bytes());
                    digest.words([r.diagnostics as u64, r.spanned as u64]);
                    (r.diagnostics == 0 || r.spanned == 0 || !r.spans_inside).then(|| {
                        format!(
                            "{}: refused at {} with {} diagnostic(s), {} span(s), inside: {}",
                            src.name, r.stage, r.diagnostics, r.spanned, r.spans_inside
                        )
                    })
                }
                Err(_) => Some(format!("{}: front end panicked", src.name)),
            });
        }
        rep.core_s = core.elapsed().as_secs_f64();
        rep.work = sources.len() as u64;
        rep.exact.push(("tasks_accepted", accepted as f64));
        rep.exact.push(("tasks_rejected", rejected as f64));
        digest.words([accepted, rejected]);
        rep.digest = digest.0;
    })
}
