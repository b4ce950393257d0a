//! Static verification of compiled pipeline programs.
//!
//! HyperTester compiles every NTAPI task down to a match-action pipeline
//! before any packet moves (§6: "the compiler rejects tasks that do not fit
//! the target").  This crate is that rejection machinery: a set of passes
//! that walk a built [`Switch`] program — tables, externs, registers,
//! multicast groups, the parser graph — and report everything a real
//! Tofino-like target would refuse to load, *before* simulation starts.
//!
//! The passes, each mapped to a hardware constraint the paper leans on:
//!
//! 1. **Stage resource fitting** ([`check_stage_resources`]) — per-stage
//!    crossbar/SRAM/TCAM/VLIW/hash/SALU/gateway budgets (Table 7).
//! 2. **PHV def-use** ([`check_phv_liveness`]) — reads of metadata no
//!    earlier component can have written, and writes nothing ever reads.
//! 3. **SALU access discipline** ([`check_salu_discipline`]) — one stateful
//!    access per register array per packet pass (§5.1, the constraint that
//!    shapes the FIFO of Fig. 7).
//! 4. **Parser graph** ([`check_parse_graph`]) — unreachable states, cycles
//!    and depth beyond what the parser sustains at line rate.
//! 5. **Replication & recirculation** ([`check_replication`]) — multicast
//!    members must name real ports; recirculation must be bounded by
//!    CPU-managed template residency (§5.1's accelerator).
//! 6. **Gateway reachability** ([`check_reachability`]) — statically-false
//!    or semantically-unsatisfiable predicates that turn a table into dead
//!    logic, proven by abstract interpretation over the pipeline CFG.
//! 7. **Dead field edits** ([`check_dead_field_edits`]) — metadata writes
//!    provably overwritten before any read (liveness dataflow).
//! 8. **Unreachable actions** ([`check_unreachable_actions`]) — installed
//!    entries whose keys can never match the proven field values.
//! 9. **SALU value ranges** ([`check_salu_range`]) — stateful-ALU operands
//!    whose proven range exceeds the register lane and silently wraps.
//!
//! Passes 6–9 read the abstract-interpretation dataflow solutions of the
//! [`analysis`] module (interval/known-bits value analysis and field
//! liveness over the pipeline CFG, recirculation loop included), taken as
//! one solved [`SwitchAnalysis`].
//!
//! [`lint_switch`] calls the passes in the order above and returns one
//! [`LintReport`].  It solves the dataflow once, with [`analyze_switch`],
//! and hands that solution to passes 6–9; when the solver gives up they
//! are skipped.  The parser graph is a compile-time constant, so pass 4 is
//! not part of `lint_switch`: a test asserts the standard graph is clean,
//! and [`check_parse_graph`] serves graphs built elsewhere.  The builder
//! in `ht-core` calls `lint_switch` during `build` and stores the report
//! on the built tester, so the passes run once per compilation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ht_asic::action::{IndexSource, PrimitiveOp};
use ht_asic::parser::ParseGraph;
use ht_asic::phv::{fields, FieldId, FieldTable};
use ht_asic::pipeline::Pipeline;
use ht_asic::register::{CondExpr, RegId, SaluOperand, SaluUpdate};
use ht_asic::resources::{table_usage, ResourceUsage};
use ht_asic::switch::Switch;
use ht_asic::table::Table;
use std::collections::{HashMap, HashSet};

// The diagnostic types (`Severity`, `Diagnostic`, `LintReport`,
// `json_escape`) live in `ht-ir`, shared with the task compiler;
// re-exported here so `ht_lint::…` spellings work.
pub use ht_ir::{json_escape, Diagnostic, LintReport, Severity};

pub mod analysis;

pub use analysis::{
    analyze_switch, check_dead_field_edits, check_reachability, check_salu_range,
    check_unreachable_actions, dump_facts, proven_nowrap_regs, SwitchAnalysis, FACT_PASSES,
};

// ---------------------------------------------------------------------------
// Op introspection helpers
// ---------------------------------------------------------------------------

fn operand_field(op: &SaluOperand) -> Option<FieldId> {
    match op {
        SaluOperand::Field(f) => Some(*f),
        SaluOperand::Const(_) => None,
    }
}

fn index_reads(idx: &IndexSource, out: &mut Vec<FieldId>) {
    match idx {
        IndexSource::Const(_) => {}
        IndexSource::Field(f) => out.push(*f),
        IndexSource::Hash { fields, .. } => out.extend(fields.iter().copied()),
    }
}

fn update_reads(u: &SaluUpdate, out: &mut Vec<FieldId>) {
    match u {
        SaluUpdate::Keep => {}
        SaluUpdate::Set(op) | SaluUpdate::Add(op) | SaluUpdate::Sub(op) => {
            out.extend(operand_field(op));
        }
    }
}

/// PHV fields an op reads.  Read-modify-write ops (`AddConst` etc.) read
/// their destination.
pub(crate) fn op_reads(op: &PrimitiveOp) -> Vec<FieldId> {
    let mut r = Vec::new();
    match op {
        PrimitiveOp::SetConst { .. }
        | PrimitiveOp::RngUniform { .. }
        | PrimitiveOp::SetEgressPort(_)
        | PrimitiveOp::SetMcastGroup(_)
        | PrimitiveOp::Recirculate
        | PrimitiveOp::Drop
        | PrimitiveOp::NoOp => {}
        PrimitiveOp::CopyField { src, .. } => r.push(*src),
        PrimitiveOp::AddConst { dst, .. }
        | PrimitiveOp::AndConst { dst, .. }
        | PrimitiveOp::OrConst { dst, .. }
        | PrimitiveOp::ShiftRight { dst, .. } => r.push(*dst),
        PrimitiveOp::AddField { dst, src } | PrimitiveOp::SubField { dst, src } => {
            r.push(*dst);
            r.push(*src);
        }
        PrimitiveOp::Hash { fields, .. } => r.extend(fields.iter().copied()),
        PrimitiveOp::Digest { fields, .. } => r.extend(fields.iter().copied()),
        PrimitiveOp::Salu { index, program, .. } => {
            index_reads(index, &mut r);
            if let Some(cond) = &program.condition {
                match &cond.expr {
                    CondExpr::Reg => {}
                    CondExpr::Operand(op)
                    | CondExpr::OperandMinusReg(op)
                    | CondExpr::RegMinusOperand(op) => r.extend(operand_field(op)),
                }
                r.extend(operand_field(&cond.rhs));
            }
            update_reads(&program.on_true, &mut r);
            update_reads(&program.on_false, &mut r);
        }
    }
    r
}

/// The PHV field an op writes, if any, plus whether the write is a *plain*
/// ALU write (as opposed to a SALU export, which often exists solely for
/// CPU readback and is exempt from dead-write analysis).
pub(crate) fn op_write(op: &PrimitiveOp) -> Option<(FieldId, bool)> {
    match op {
        PrimitiveOp::SetConst { dst, .. }
        | PrimitiveOp::CopyField { dst, .. }
        | PrimitiveOp::AddConst { dst, .. }
        | PrimitiveOp::AddField { dst, .. }
        | PrimitiveOp::SubField { dst, .. }
        | PrimitiveOp::AndConst { dst, .. }
        | PrimitiveOp::OrConst { dst, .. }
        | PrimitiveOp::ShiftRight { dst, .. }
        | PrimitiveOp::Hash { dst, .. }
        | PrimitiveOp::RngUniform { dst, .. } => Some((*dst, true)),
        PrimitiveOp::Salu { program, .. } => program.output.map(|o| (o.dst, false)),
        _ => None,
    }
}

fn op_salu_reg(op: &PrimitiveOp) -> Option<RegId> {
    match op {
        PrimitiveOp::Salu { reg, .. } => Some(*reg),
        _ => None,
    }
}

pub(crate) fn field_name(ft: &FieldTable, f: FieldId) -> String {
    ft.def(f).name.clone()
}

pub(crate) fn is_dynamic(f: FieldId) -> bool {
    f.0 >= fields::STANDARD_COUNT
}

pub(crate) fn pipelines(sw: &Switch) -> [(&'static str, &Pipeline); 2] {
    [("ingress", &sw.ingress), ("egress", &sw.egress)]
}

/// Register arrays owned by an extern.
pub(crate) fn extern_regs(sw: &Switch) -> HashSet<RegId> {
    pipelines(sw)
        .iter()
        .flat_map(|(_, p)| p.stages.iter())
        .flat_map(|s| s.externs.iter())
        .flat_map(|e| e.registers())
        .collect()
}

/// Fields something reads: a gateway, a match key, an action op or an
/// extern.
pub(crate) fn read_anywhere(sw: &Switch) -> HashSet<FieldId> {
    let mut read = HashSet::new();
    for (_, pipe) in pipelines(sw) {
        for stage in &pipe.stages {
            for t in &stage.tables {
                read.extend(t.gateways().iter().map(|gw| gw.field));
                read.extend(t.key_fields().iter().copied());
                for a in t.actions() {
                    for op in &a.ops {
                        read.extend(op_reads(op));
                    }
                }
            }
            for e in &stage.externs {
                read.extend(e.reads());
            }
        }
    }
    read
}

fn loc(pipe: &str, stage: usize, table: &Table) -> String {
    format!("{pipe} stage {stage} table {}", table.name())
}

// ---------------------------------------------------------------------------
// Pass 1: per-stage resource fitting
// ---------------------------------------------------------------------------

/// Checks every physical stage against the per-stage capacity model
/// ([`ht_asic::resources::stage_capacity`]).
///
/// Register state accessed by a table's SALU ops is charged to the stage of
/// the first accessing table.  Per-entry arrays of one table are merged the
/// way a hardware compiler lowers them — one indexed array per concurrent
/// access, so the SALU demand of a table is the *worst single action* (the
/// entries are alternatives: one packet executes one of them), and storage
/// is pooled across the table's arrays before rounding to SRAM blocks.
/// Arrays owned by externs are excluded here (their lowering spreads across
/// stages and is accounted in the extern's declared [`ResourceUsage`]).
pub fn check_stage_resources(sw: &Switch) -> LintReport {
    let mut report = LintReport::new();
    let cap = ht_asic::resources::stage_capacity();
    let extern_regs = extern_regs(sw);

    let mut charged: HashSet<RegId> = HashSet::new();
    for (pname, pipe) in pipelines(sw) {
        for (si, stage) in pipe.stages.iter().enumerate() {
            let mut usage = ResourceUsage::default();
            for t in &stage.tables {
                usage += table_usage(t);
                let mut worst_action_salus = 0u64;
                let mut storage_bits = 0u64;
                let mut any_new = false;
                for a in t.actions() {
                    let mut action_salus = 0u64;
                    for op in &a.ops {
                        if let Some(reg) = op_salu_reg(op) {
                            action_salus += 1;
                            if !extern_regs.contains(&reg) && charged.insert(reg) {
                                let arr = sw.regs.array(reg);
                                storage_bits += arr.depth() as u64 * u64::from(arr.width());
                                any_new = true;
                            }
                        }
                    }
                    worst_action_salus = worst_action_salus.max(action_salus);
                }
                if any_new {
                    usage += ResourceUsage {
                        salus: worst_action_salus,
                        sram_blocks: storage_bits
                            .div_ceil(ht_asic::resources::SRAM_BLOCK_BITS)
                            .max(1),
                        ..Default::default()
                    };
                }
            }
            for e in &stage.externs {
                usage += e.resources();
            }
            for class in usage.exceeds(&cap) {
                report.push(Diagnostic::error(
                    "resource-overflow",
                    format!("{pname} stage {si}"),
                    format!(
                        "stage needs {} {class} but the target provides {} per stage",
                        usage.class(class),
                        cap.class(class)
                    ),
                    "split the stage's tables across more stages or shrink keys/actions",
                ));
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass 2: PHV def-use / liveness
// ---------------------------------------------------------------------------

/// Flags reads of dynamic metadata no earlier component may have written
/// (`phv-undef-read`, error) and plain writes to dynamic metadata nothing
/// ever reads (`phv-dead-write`, warning).
///
/// The analysis is *may-define*: a field written on any action of an
/// earlier table counts as defined, so conditionally-populated metadata is
/// not a false positive.  Standard fields (parser output and intrinsic
/// metadata) are always defined.  SALU exports and extern writes are
/// exempt from dead-write reporting — the former are frequently
/// CPU-readback paths, the latter a declared interface.
pub fn check_phv_liveness(sw: &Switch) -> LintReport {
    let mut report = LintReport::new();
    let ft = &sw.fields;

    // (field, location) of every plain write to a dynamic field.
    let mut plain_writes: Vec<(FieldId, String)> = Vec::new();

    let mut defined: HashSet<FieldId> = (0..fields::STANDARD_COUNT).map(FieldId).collect();

    for (pname, pipe) in pipelines(sw) {
        for (si, stage) in pipe.stages.iter().enumerate() {
            // Writes by this stage's tables are visible to later tables
            // within the same stage in the sequential model, so merge after
            // each table, in declaration order.
            for t in &stage.tables {
                let at = loc(pname, si, t);
                for gw in t.gateways() {
                    if is_dynamic(gw.field) && !defined.contains(&gw.field) {
                        report.push(Diagnostic::error(
                            "phv-undef-read",
                            at.clone(),
                            format!(
                                "gateway reads `{}` which no earlier component writes",
                                field_name(ft, gw.field)
                            ),
                            "write the field in an earlier stage or gate on a parser-provided field",
                        ));
                    }
                }
                for &k in t.key_fields() {
                    if is_dynamic(k) && !defined.contains(&k) {
                        report.push(Diagnostic::error(
                            "phv-undef-read",
                            at.clone(),
                            format!(
                                "match key `{}` is never written before this table",
                                field_name(ft, k)
                            ),
                            "populate the key field in an earlier stage",
                        ));
                    }
                }
                let mut table_writes: HashSet<FieldId> = HashSet::new();
                for a in t.actions() {
                    let mut local = defined.clone();
                    for op in &a.ops {
                        for r in op_reads(op) {
                            if is_dynamic(r) && !local.contains(&r) {
                                report.push(Diagnostic::error(
                                    "phv-undef-read",
                                    format!("{at} action {}", a.name),
                                    format!(
                                        "op reads `{}` before any component writes it",
                                        field_name(ft, r)
                                    ),
                                    "order the writing table before this one",
                                ));
                            }
                        }
                        if let Some((w, plain)) = op_write(op) {
                            if plain && is_dynamic(w) {
                                plain_writes.push((w, format!("{at} action {}", a.name)));
                            }
                            local.insert(w);
                            table_writes.insert(w);
                        }
                    }
                }
                defined.extend(table_writes);
            }
            for e in &stage.externs {
                for r in e.reads() {
                    if is_dynamic(r) && !defined.contains(&r) {
                        report.push(Diagnostic::error(
                            "phv-undef-read",
                            format!("{pname} stage {si} extern {}", e.name()),
                            format!(
                                "extern requires `{}` which no earlier component writes",
                                field_name(ft, r)
                            ),
                            "produce the field before the extern's stage",
                        ));
                    }
                }
                defined.extend(e.writes());
            }
        }
    }

    let read_anywhere = read_anywhere(sw);
    let mut reported: HashSet<FieldId> = HashSet::new();
    for (f, at) in plain_writes {
        if !read_anywhere.contains(&f) && reported.insert(f) {
            report.push(Diagnostic::warning(
                "phv-dead-write",
                at,
                format!(
                    "`{}` is written but never read by any table, gateway or extern",
                    field_name(ft, f)
                ),
                "remove the write or the unused metadata field",
            ));
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass 3: SALU access discipline
// ---------------------------------------------------------------------------

/// Enforces the one-stateful-access-per-array-per-pass rule (§5.1).
///
/// Violations: two SALU ops on the same array within one action
/// (`salu-double-access`), and the same array accessed from two different
/// tables — or from a table and an extern — in one packet pass
/// (`salu-raw-hazard`).  Two *externs* sharing an array is allowed: that is
/// the paper's FIFO producer/consumer pattern (Fig. 6–7), where the two
/// components execute for disjoint packet classes.
pub fn check_salu_discipline(sw: &Switch) -> LintReport {
    let mut report = LintReport::new();
    let mut extern_regs: HashMap<RegId, String> = HashMap::new();
    for (pname, pipe) in pipelines(sw) {
        for (si, stage) in pipe.stages.iter().enumerate() {
            for e in &stage.externs {
                for r in e.registers() {
                    extern_regs
                        .entry(r)
                        .or_insert_with(|| format!("{pname} stage {si} extern {}", e.name()));
                }
            }
        }
    }

    let mut first_table_access: HashMap<RegId, String> = HashMap::new();
    for (pname, pipe) in pipelines(sw) {
        for (si, stage) in pipe.stages.iter().enumerate() {
            for t in &stage.tables {
                let at = loc(pname, si, t);
                let mut table_regs: Vec<RegId> = Vec::new();
                for a in t.actions() {
                    let mut per_action: HashMap<RegId, u32> = HashMap::new();
                    for op in &a.ops {
                        if let Some(reg) = op_salu_reg(op) {
                            *per_action.entry(reg).or_insert(0) += 1;
                            if !table_regs.contains(&reg) {
                                table_regs.push(reg);
                            }
                        }
                    }
                    for (reg, n) in per_action {
                        if n > 1 {
                            report.push(Diagnostic::error(
                                "salu-double-access",
                                format!("{at} action {}", a.name),
                                format!(
                                    "action performs {n} SALU accesses to register array `{}`; the hardware allows one per packet",
                                    sw.regs.array(reg).name()
                                ),
                                "fold the accesses into one SALU program or split the state across arrays",
                            ));
                        }
                    }
                }
                for reg in table_regs {
                    let name = sw.regs.array(reg).name().to_string();
                    if let Some(ext_at) = extern_regs.get(&reg) {
                        report.push(Diagnostic::error(
                            "salu-raw-hazard",
                            at.clone(),
                            format!(
                                "register array `{name}` is accessed both here and by {ext_at}"
                            ),
                            "give the extern exclusive ownership of its arrays",
                        ));
                    }
                    match first_table_access.get(&reg) {
                        None => {
                            first_table_access.insert(reg, at.clone());
                        }
                        Some(prev) if *prev != at => {
                            report.push(Diagnostic::error(
                                "salu-raw-hazard",
                                at.clone(),
                                format!(
                                    "register array `{name}` was already accessed by {prev} in the same packet pass"
                                ),
                                "merge the two accesses into one table or duplicate the state",
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass 4: parser graph
// ---------------------------------------------------------------------------

/// Validates a parser state graph: unreachable states
/// (`parser-unreachable`, warning), cycles (`parser-cycle`, error — header
/// stacks must be unrolled, not looped) and chains deeper than the
/// target's per-packet state budget (`parser-depth`, error).
pub fn check_parse_graph(g: &ParseGraph) -> LintReport {
    let mut report = LintReport::new();
    let n = g.states.len();
    if n == 0 || g.start >= n {
        report.push(Diagnostic::error(
            "parser-cycle",
            "parser",
            "parse graph has no valid start state",
            "define a start state",
        ));
        return report;
    }

    let reach = g.reachable();
    for (i, reached) in reach.iter().enumerate() {
        if !reached {
            report.push(Diagnostic::warning(
                "parser-unreachable",
                format!("parser state {}", g.states[i].name),
                "state is unreachable from the start state",
                "remove the state or add a transition to it",
            ));
        }
    }

    // Iterative DFS with colors to find back edges; longest-path
    // relaxation gives the exact depth on acyclic graphs.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut depth = vec![0usize; n];
    let mut cyclic = false;
    let mut stack: Vec<(usize, usize)> = vec![(g.start, 0)];
    color[g.start] = GRAY;
    depth[g.start] = 1;
    let mut max_depth_seen = 1usize;
    while let Some(&mut (s, ref mut ti)) = stack.last_mut() {
        let trans = &g.states[s].transitions;
        if *ti < trans.len() {
            let next = trans[*ti];
            *ti += 1;
            if next >= n {
                report.push(Diagnostic::error(
                    "parser-cycle",
                    format!("parser state {}", g.states[s].name),
                    format!("transition targets nonexistent state index {next}"),
                    "fix the transition target",
                ));
                continue;
            }
            if color[next] == GRAY {
                if !cyclic {
                    cyclic = true;
                    report.push(Diagnostic::error(
                        "parser-cycle",
                        format!("parser state {}", g.states[next].name),
                        format!(
                            "parse graph cycle via {} -> {}",
                            g.states[s].name, g.states[next].name
                        ),
                        "parsers must be loop-free; unroll bounded header stacks",
                    ));
                }
            } else {
                let cand = depth[s] + 1;
                if color[next] == WHITE || cand > depth[next] {
                    depth[next] = cand;
                    max_depth_seen = max_depth_seen.max(cand);
                    color[next] = GRAY;
                    stack.push((next, 0));
                }
            }
        } else {
            color[s] = BLACK;
            stack.pop();
        }
    }

    if !cyclic && max_depth_seen > g.max_depth {
        report.push(Diagnostic::error(
            "parser-depth",
            "parser",
            format!(
                "longest parse chain visits {max_depth_seen} states; the target sustains {} per packet",
                g.max_depth
            ),
            "flatten the header chain or parse fewer optional headers",
        ));
    }
    report
}

// ---------------------------------------------------------------------------
// Pass 5: replication and recirculation bounds
// ---------------------------------------------------------------------------

/// Validates multicast configuration and proves recirculation bounded.
///
/// Multicast members must name configured ports (`mcast-bad-port`, error;
/// a replica rid of 0 is a warning — rid 0 means "not a replica" to the
/// egress editor).  `SetMcastGroup` must reference a configured group
/// (`mcast-unknown-group`).  A `Recirculate` op is bounded only when it
/// sits in an *installed entry* of a table keyed on `meta.template_id`:
/// the control plane then bounds the loop by template residency, exactly
/// the paper's accelerator contract (§5.1).  A `Recirculate` in a default
/// action or an un-keyed table loops every matching packet forever
/// (`recirc-unbounded`, error).
pub fn check_replication(sw: &Switch) -> LintReport {
    let mut report = LintReport::new();
    let ports: HashSet<u16> = sw.ports().collect();
    let groups: HashSet<u16> = sw.mcast.groups().map(|(g, _)| g).collect();

    for (g, members) in sw.mcast.groups() {
        for m in members {
            if !ports.contains(&m.port) {
                report.push(Diagnostic::error(
                    "mcast-bad-port",
                    format!("mcast group {g}"),
                    format!(
                        "member references port {} which is not configured on the switch",
                        m.port
                    ),
                    "add the port or drop the member",
                ));
            }
            if m.rid == 0 {
                report.push(Diagnostic::warning(
                    "mcast-bad-port",
                    format!("mcast group {g}"),
                    format!(
                        "member for port {} has replication id 0, which egress treats as \"not a replica\"",
                        m.port
                    ),
                    "use rids starting at 1",
                ));
            }
        }
    }

    for (pname, pipe) in pipelines(sw) {
        for (si, stage) in pipe.stages.iter().enumerate() {
            for t in &stage.tables {
                let at = loc(pname, si, t);
                let keyed_on_template = t.key_fields().contains(&fields::TEMPLATE_ID);
                let acts: Vec<_> = t.actions().collect();
                let n = acts.len();
                for (ai, a) in acts.iter().enumerate() {
                    let is_default = ai + 1 == n;
                    for op in &a.ops {
                        if let PrimitiveOp::SetMcastGroup(g) = op {
                            if *g != 0 && !groups.contains(g) {
                                report.push(Diagnostic::error(
                                    "mcast-unknown-group",
                                    format!("{at} action {}", a.name),
                                    format!(
                                        "action selects multicast group {g} which is not configured"
                                    ),
                                    "install the group in the traffic manager before loading",
                                ));
                            }
                        }
                        if matches!(op, PrimitiveOp::Recirculate)
                            && (is_default || !keyed_on_template)
                        {
                            let why = if is_default {
                                "the table's default action recirculates, so every miss loops forever"
                            } else {
                                "the table is not keyed on meta.template_id, so the control plane cannot retire the loop"
                            };
                            report.push(Diagnostic::error(
                                "recirc-unbounded",
                                format!("{at} action {}", a.name),
                                format!("unbounded recirculation: {why}"),
                                "recirculate only from installed entries of a template-keyed table; the CPU bounds the loop by removing the entry",
                            ));
                        }
                    }
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs every program pass over a built switch, in the order the crate
/// docs list them, and returns the combined report.  The dataflow is
/// solved once and shared by the passes that read it.
pub fn lint_switch(sw: &Switch) -> LintReport {
    let mut report = check_stage_resources(sw);
    report.merge(check_phv_liveness(sw));
    report.merge(check_salu_discipline(sw));
    report.merge(check_replication(sw));
    if let Some(a) = analyze_switch(sw) {
        report.merge(check_reachability(sw, &a));
        report.merge(check_dead_field_edits(sw, &a));
        report.merge(check_unreachable_actions(sw, &a));
        report.merge(check_salu_range(sw, &a));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_asic::action::ActionSet;
    use ht_asic::table::MatchKind;

    thread_local! {
        /// Dataflow solves on this thread, so a test can count them per lint.
        pub(crate) static SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn lint_solves_the_dataflow_once() {
        let mut sw = Switch::new("sw", 1);
        for name in ["first", "second"] {
            let action = ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]);
            sw.ingress.push_table(Table::new(
                name,
                MatchKind::Exact,
                vec![fields::IPV4_DST],
                4,
                action,
            ));
        }
        SOLVES.with(|n| n.set(0));
        let _ = lint_switch(&sw);
        assert_eq!(SOLVES.with(|n| n.get()), 1);
    }

    #[test]
    fn empty_switch_lints_clean() {
        let sw = Switch::new("sw", 1);
        let r = lint_switch(&sw);
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }
}
