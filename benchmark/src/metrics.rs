//! The metric tables (the single source `BENCHMARK.json` is generated
//! from) and the derivation of per-layer metrics from a traced rep.

use crate::trace::Tracer;
use crate::workloads::Rep;

/// Whether a metric is host time (noisy, judged against a bound) or must
/// repeat exactly for a given seed (counts and *simulated* results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Timed,
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` = higher is better.
    pub higher: bool,
    pub kind: Kind,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def { name, unit, higher, kind: Kind::Timed, bound }
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, higher: false, kind: Kind::Timed, bound: 0.0 }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, higher: false, kind: Kind::Exact, bound: 0.0 }
}

const fn up(mut d: Def) -> Def {
    d.higher = true;
    d
}

/// The end-to-end metrics, reported by every workload (never 0).
///
/// `work_per_s` is events/s on the four simulated workloads, tasks/s on
/// `frontend_mix` and keys/s on `fp_precompute`.
pub const END_TO_END: [Def; 4] = [
    e2e("wall_s", "s", false, 0.15),
    e2e("work_per_s", "1/s", true, 0.15),
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// The lowering passes, in `ht_ntapi::pass_names()` order (checked against
/// it by `--check`).
pub const PASSES: [&str; 9] = [
    "template-extraction",
    "field-edit-planning",
    "frame-layout",
    "rate-control-timer-synthesis",
    "query-lowering",
    "resource-annotation",
    "task-lint",
    "analysis-annotation",
    "exec-lowering",
];

/// The per-layer metrics of the traced rep, plus (prefix `e2e.`) the
/// end-to-end metrics that exist on some workloads only and so cannot
/// carry a bound.
pub const PER_LAYER: [Def; 79] = [
    // Front end → tasks/s on frontend_mix.
    timed("ntapi.lex_s", "s"),
    timed("ntapi.parse_s", "s"),
    timed("ntapi.resolve_s", "s"),
    timed("ntapi.lower_s", "s"),
    timed("ntapi.pass.template-extraction_s", "s"),
    timed("ntapi.pass.field-edit-planning_s", "s"),
    timed("ntapi.pass.frame-layout_s", "s"),
    timed("ntapi.pass.rate-control-timer-synthesis_s", "s"),
    timed("ntapi.pass.query-lowering_s", "s"),
    timed("ntapi.pass.resource-annotation_s", "s"),
    timed("ntapi.pass.task-lint_s", "s"),
    timed("ntapi.pass.analysis-annotation_s", "s"),
    timed("ntapi.pass.exec-lowering_s", "s"),
    timed("ntapi.codegen_s", "s"),
    exact("ntapi.tokens", "count"),
    exact("ntapi.diagnostics", "count"),
    exact("ir.module_bytes", "B"),
    timed("lint.switch_s", "s"),
    timed("lint.analyze_s", "s"),
    exact("lint.fixpoint_iters", "count"),
    timed("core.build_s", "s"),
    timed("core.template_copies_s", "s"),
    timed("asic.exec.compile_s", "s"),
    exact("asic.exec.ops", "count"),
    timed("packet.build_ns", "ns"),
    // False-positive precompute → keys/s on fp_precompute.
    timed("ntapi.fp_s", "s"),
    timed("ir.triple_batch_ns_per_key", "ns"),
    exact("ir.keys_hashed", "count"),
    timed("asic.hash.crc_x1_ns_per_key", "ns"),
    timed("asic.hash.crc_x4_ns_per_key", "ns"),
    timed("asic.hash.crc_x8_ns_per_key", "ns"),
    // Event engine → events/s.
    timed("asic.sim.run_s", "s"),
    timed("asic.sim.engine_s", "s"),
    timed("asic.sim.engine_ns_per_event", "ns"),
    exact("asic.sim.events", "count"),
    exact("asic.sim.peak_queue", "count"),
    up(exact("asic.sim.batch_mean", "count")),
    exact("asic.sim.single_event_share", "%"),
    timed("asic.timerwheel.hold_ns", "ns"),
    exact("asic.arena.allocs", "count"),
    up(exact("asic.arena.reuses", "count")),
    // Switch pipeline → events/s on ratectl_timer, web_stateless, linerate_64b.
    timed("asic.switch.busy_s", "s"),
    exact("asic.switch.calls", "count"),
    exact("asic.switch.items", "count"),
    exact("asic.switch.rx_frames", "count"),
    exact("asic.switch.tx_frames", "count"),
    exact("asic.switch.recirculations", "count"),
    exact("asic.switch.mcast_replicas", "count"),
    exact("asic.switch.drops", "count"),
    exact("asic.exec.ops_retired", "count"),
    exact("asic.exec.vector_batches", "count"),
    exact("asic.exec.vector_lanes", "count"),
    timed("asic.parser.parse_ns", "ns"),
    timed("asic.parser.deparse_ns", "ns"),
    timed("asic.switch.batch64_ns_per_pkt.interp", "ns"),
    timed("asic.switch.batch64_ns_per_pkt.compiled", "ns"),
    timed("asic.switch.batch64_ns_per_pkt.vector", "ns"),
    // Devices under test.
    timed("dut.sink.busy_s", "s"),
    exact("dut.sink.items", "count"),
    timed("dut.sink.rx_ns", "ns"),
    timed("dut.responder.busy_s", "s"),
    exact("dut.responder.items", "count"),
    timed("dut.forwarder.busy_s", "s"),
    exact("dut.forwarder.items", "count"),
    // Partitioned engine → speedup_e2 on ring_partitioned.
    timed("asic.parallel.e1_run_s", "s"),
    timed("asic.parallel.e2_run_s", "s"),
    // Collection → wall_s on web_stateless and ratectl_timer.
    timed("cpu.inject_s", "s"),
    timed("cpu.collect_s", "s"),
    timed("core.results_s", "s"),
    timed("stats.error_metrics_s", "s"),
    // The tracing itself.
    timed("bench.trace_overhead_pct", "%"),
    timed("bench.unattributed_pct", "%"),
    // Workload-specific end-to-end metrics (untraced reps of the same run).
    up(timed("e2e.sim_us_per_s", "us/s")),
    up(timed("e2e.speedup_e2", "x")),
    timed("e2e.task_p50_us", "us"),
    timed("e2e.task_p99_us", "us"),
    timed("e2e.task_samples", "count"),
    exact("e2e.model_err_pct", "%"),
    exact("e2e.ratectl_mae_ns", "ns"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values of one traced rep (everything but the kernels, the
/// tracing overhead and the `e2e.` values, which need other reps).  Layers
/// the workload bypasses read 0.
pub fn derive(rep: &Rep, tr: &Tracer) -> Vec<(&'static str, f64)> {
    let t = |name: &str| tr.total_s(name);
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // `lex` and `parse_unit` run inside `resolve`; the probes time them on
    // the same texts, and subtraction gives each layer's own share.
    let (lex, parse, resolve) = (t("probe.lex"), t("probe.parse"), t("ntapi.resolve"));
    m.push(("ntapi.lex_s", lex));
    m.push(("ntapi.parse_s", (parse - lex).max(0.0)));
    m.push(("ntapi.resolve_s", (resolve - parse).max(0.0)));
    m.push(("ntapi.lower_s", t("ntapi.lower")));
    for d in PER_LAYER.iter().filter(|d| d.name.starts_with("ntapi.pass.")) {
        let pass = d.name.trim_start_matches("ntapi.pass.").trim_end_matches("_s");
        let s = rep.front.pass_s.iter().find(|(n, _)| *n == pass).map_or(0.0, |&(_, s)| s);
        m.push((d.name, s));
    }
    m.push(("ntapi.codegen_s", t("ntapi.codegen")));
    m.push(("ntapi.tokens", rep.front.tokens as f64));
    m.push(("ntapi.diagnostics", rep.front.diagnostics as f64));
    m.push(("ir.module_bytes", rep.front.module_bytes as f64));
    // `build` runs `lint_switch` and the executor compile inside; its own
    // share is what is left after the two probes.
    let (lint, compile_probe) = (t("probe.lint_switch"), t("probe.exec_compile"));
    m.push(("lint.switch_s", lint));
    m.push(("lint.analyze_s", t("probe.analyze")));
    m.push(("lint.fixpoint_iters", rep.front.fixpoint_iters as f64));
    m.push(("core.build_s", (t("core.build") - lint - compile_probe).max(0.0)));
    m.push(("core.template_copies_s", t("core.template_copies")));
    let compile_step = t("asic.exec.compile");
    m.push(("asic.exec.compile_s", if compile_step > 0.0 { compile_step } else { compile_probe }));
    m.push(("asic.exec.ops", rep.front.exec_ops as f64));

    m.push(("ntapi.fp_s", t("ntapi.fp")));
    m.push(("ir.keys_hashed", rep.fp_keys as f64));

    // The simulator.  World 0 is the rep's serial world; on the ring it is
    // the serial reference run, whose counts are deterministic.
    let run_s = t("asic.sim.run") + t("asic.parallel.e1_run");
    let world0: Vec<_> = tr.devices.iter().filter(|d| d.world == 0).collect();
    let busy: f64 = world0.iter().map(|d| d.busy_s()).sum();
    let calls: u64 = world0.iter().map(|d| d.calls()).sum();
    let items: u64 = world0.iter().map(|d| d.items()).sum();
    let singles: u64 = world0.iter().map(|d| d.single_calls()).sum();
    let events = if run_s > 0.0 { rep.work } else { 0 };
    m.push(("asic.sim.run_s", run_s));
    m.push(("asic.sim.engine_s", (run_s - busy).max(0.0)));
    m.push(("asic.sim.engine_ns_per_event", ratio((run_s - busy).max(0.0) * 1e9, events as f64)));
    m.push(("asic.sim.events", events as f64));
    m.push(("asic.sim.peak_queue", rep.peak_queue as f64));
    m.push(("asic.sim.batch_mean", ratio(items as f64, calls as f64)));
    m.push(("asic.sim.single_event_share", 100.0 * ratio(singles as f64, calls as f64)));
    m.push(("asic.arena.allocs", rep.arena.allocs as f64));
    m.push(("asic.arena.reuses", rep.arena.reuses as f64));

    for (layer, busy_name, items_name) in [
        ("asic.switch", "asic.switch.busy_s", "asic.switch.items"),
        ("dut.sink", "dut.sink.busy_s", "dut.sink.items"),
        ("dut.responder", "dut.responder.busy_s", "dut.responder.items"),
        ("dut.forwarder", "dut.forwarder.busy_s", "dut.forwarder.items"),
    ] {
        m.push((busy_name, tr.layer_devices(layer, 0).map(|d| d.busy_s()).sum()));
        m.push((items_name, tr.layer_devices(layer, 0).map(|d| d.items()).sum::<u64>() as f64));
    }
    m.push((
        "asic.switch.calls",
        tr.layer_devices("asic.switch", 0).map(|d| d.calls()).sum::<u64>() as f64,
    ));
    let sw = rep.switch;
    m.push(("asic.switch.rx_frames", sw.rx_frames as f64));
    m.push(("asic.switch.tx_frames", sw.tx_frames as f64));
    m.push(("asic.switch.recirculations", sw.recirculations as f64));
    m.push(("asic.switch.mcast_replicas", sw.mcast_replicas as f64));
    m.push(("asic.switch.drops", (sw.ingress_drops + sw.egress_drops) as f64));
    m.push(("asic.exec.ops_retired", rep.profile.ops_retired as f64));
    m.push(("asic.exec.vector_batches", rep.profile.vector_batches as f64));
    m.push(("asic.exec.vector_lanes", rep.profile.vector_lanes as f64));

    m.push(("asic.parallel.e1_run_s", t("asic.parallel.e1_run")));
    m.push(("asic.parallel.e2_run_s", t("asic.parallel.e2_run")));
    m.push(("cpu.inject_s", t("cpu.inject")));
    m.push(("cpu.collect_s", t("cpu.collect")));
    m.push(("core.results_s", t("core.results")));
    m.push(("stats.error_metrics_s", t("stats.error_metrics")));

    // Time of the rep no span covers, as a share of the rep.
    m.push(("bench.unattributed_pct", 100.0 * ratio(tr.self_s("rep"), t("rep"))));
    m
}
