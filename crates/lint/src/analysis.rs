//! Semantic verifier passes built on the [`ht_ir::dataflow`] engine.
//!
//! [`analyze_switch`] lowers a built [`Switch`] program into the engine's
//! [`Cfg`] — parser entry → ingress tables/externs → traffic manager →
//! egress tables/externs → deparser exit, with a widened back edge when
//! the program can recirculate — and solves two problems over it:
//!
//! * a forward **value analysis** ([`Env`] of interval + known-bits
//!   [`ValueFact`]s, one per PHV field), whose transfer function mirrors
//!   the ASIC's masked execute semantics (`crate::op_reads` /
//!   [`ht_asic::action`]), havocs extern writes, and refines through
//!   gateway predicates;
//! * a backward **liveness analysis** ([`BitSet`] of live field ids) run
//!   as the forward solver over [`Cfg::reversed`].
//!
//! [`analyze_switch`] is the one place the two problems are solved; the
//! four program passes and the fact consumers below all take the solved
//! [`SwitchAnalysis`]:
//!
//! * [`check_reachability`] — gateway predicates that are statically
//!   false (`gateway-false`), semantically unsatisfiable under the proven
//!   field values (`gateway-contradiction` — strictly subsumes the old
//!   syntactic pair check), or tautological (`gateway-redundant`).
//! * [`check_dead_field_edits`] — writes to dynamic metadata that are
//!   provably overwritten before any read (`dead-field-edit`).
//! * [`check_unreachable_actions`] — installed table entries whose keys
//!   can never match the proven field values (`unreachable-action`).
//! * [`check_salu_range`] — SALU operands whose proven range exceeds the
//!   register lane and will silently truncate or wrap
//!   (`salu-range-overflow`).
//! * [`proven_nowrap_regs`] — the no-overflow certificates the fuzz oracle
//!   cross-checks against execution traces.
//! * [`dump_facts`] — the `htctl analyze --dump-facts` views.

use crate::{extern_regs, field_name, is_dynamic, op_reads, op_write, pipelines, read_anywhere};
use ht_asic::action::PrimitiveOp;
use ht_asic::phv::{fields, mask_for, FieldId, FieldTable};
use ht_asic::register::{Cmp, CondExpr, RegId, SaluCond, SaluOperand, SaluProgram, SaluUpdate};
use ht_asic::switch::{Switch, PORT_UNSET};
use ht_asic::table::{Gateway, MatchKey, MatchKind, Table};
use ht_ir::dataflow::{solve, AbstractDomain, BitSet, Cfg, EdgeKind, Env, Solution, Transfer};
use ht_ir::{Diagnostic, LintReport, ValueFact};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Tables with more installed entries than this are summarized (every
/// field any action writes is havocked once) instead of evaluated
/// entry-by-entry — the false-positive precompute installs thousands of
/// exact entries and per-entry evaluation there buys nothing.
pub const SMALL_TABLE_MAX: usize = 64;

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

/// One CFG node of the lowered pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// Packet arrival: front panel, CPU injection, or recirculation;
    /// intrinsic metadata resets here.
    Entry,
    /// A match-action table: `(pipe, stage, table)` with pipe 0 = ingress.
    Table(usize, usize, usize),
    /// A stateful extern: `(pipe, stage, extern)`.
    Ext(usize, usize, usize),
    /// The traffic manager: unicast pass-through joined with replica
    /// generation.
    Tm,
    /// Deparser exit; source of the recirculation back edge.
    Exit,
}

struct PipelineCfg {
    cfg: Cfg,
    nodes: Vec<Node>,
}

fn recirc_possible(sw: &Switch) -> bool {
    let any_op = pipelines(sw).iter().any(|(_, p)| {
        p.stages.iter().flat_map(|s| &s.tables).any(|t| {
            t.actions().any(|a| a.ops.iter().any(|op| matches!(op, PrimitiveOp::Recirculate)))
        })
    });
    any_op || sw.ports().any(|p| sw.mac(p).loopback)
}

fn build_cfg(sw: &Switch) -> PipelineCfg {
    let mut nodes = vec![Node::Entry];
    for (pi, (_, pipe)) in pipelines(sw).iter().enumerate() {
        for (si, stage) in pipe.stages.iter().enumerate() {
            for ti in 0..stage.tables.len() {
                nodes.push(Node::Table(pi, si, ti));
            }
            for ei in 0..stage.externs.len() {
                nodes.push(Node::Ext(pi, si, ei));
            }
        }
        if pi == 0 {
            nodes.push(Node::Tm);
        }
    }
    nodes.push(Node::Exit);
    let mut cfg = Cfg::new(nodes.len(), 0);
    for i in 0..nodes.len() - 1 {
        cfg.add_edge(i, i + 1, EdgeKind::Forward);
    }
    if recirc_possible(sw) {
        cfg.add_edge(nodes.len() - 1, 0, EdgeKind::Back);
    }
    PipelineCfg { cfg, nodes }
}

fn node_table(sw: &Switch, n: Node) -> Option<&Table> {
    match n {
        Node::Table(pi, si, ti) => {
            let pipe = if pi == 0 { &sw.ingress } else { &sw.egress };
            Some(&pipe.stages[si].tables[ti])
        }
        _ => None,
    }
}

fn node_loc(sw: &Switch, n: Node) -> String {
    match n {
        Node::Entry => "entry".into(),
        Node::Tm => "traffic manager".into(),
        Node::Exit => "exit".into(),
        Node::Table(pi, si, ti) => {
            let (pname, pipe) = pipelines(sw)[pi];
            format!("{pname} stage {si} table {}", pipe.stages[si].tables[ti].name())
        }
        Node::Ext(pi, si, ei) => {
            let (pname, pipe) = pipelines(sw)[pi];
            format!("{pname} stage {si} extern {}", pipe.stages[si].externs[ei].name())
        }
    }
}

// ---------------------------------------------------------------------------
// Value analysis
// ---------------------------------------------------------------------------

fn slot(f: FieldId) -> usize {
    f.0 as usize
}

/// The environment of a packet at arrival: standard (parser-filled) fields
/// span their full lane, dynamic metadata is zero-initialized.
fn boundary_env(ft: &FieldTable) -> Env {
    let slots = (0..ft.len() as u16)
        .map(|i| {
            let f = FieldId(i);
            if is_dynamic(f) {
                ValueFact::exact(0)
            } else {
                ValueFact::full(ft.mask(f))
            }
        })
        .collect();
    Env { slots }
}

/// Mirrors `Switch::reset_metadata`, which runs at every arrival
/// (including recirculation re-entry): intrinsic routing metadata is
/// cleared, timestamps and the ingress port are re-latched.
fn apply_entry_reset(env: &mut Env, ft: &FieldTable) {
    env.set(slot(fields::IG_PORT), ValueFact::full(ft.mask(fields::IG_PORT)));
    env.set(slot(fields::IG_TS), ValueFact::full(ft.mask(fields::IG_TS)));
    env.set(slot(fields::EG_TS), ValueFact::exact(0));
    env.set(slot(fields::EG_PORT), ValueFact::exact(PORT_UNSET));
    for f in [fields::MCAST_GRP, fields::RID, fields::RECIRC_FLAG, fields::DROP_FLAG] {
        env.set(slot(f), ValueFact::exact(0));
    }
}

/// Refines a fact through one gateway predicate; `None` = contradiction.
fn gw_refine(fact: &ValueFact, gw: &Gateway) -> Option<ValueFact> {
    match gw.cmp {
        Cmp::Eq => fact.intersect(gw.value, gw.value),
        Cmp::Ne => fact.exclude(gw.value),
        Cmp::Lt => {
            if gw.value == 0 {
                None
            } else {
                fact.intersect(0, gw.value - 1)
            }
        }
        Cmp::Le => fact.intersect(0, gw.value),
        Cmp::Gt => gw.value.checked_add(1).and_then(|lo| fact.intersect(lo, u64::MAX)),
        Cmp::Ge => fact.intersect(gw.value, u64::MAX),
    }
}

/// Whether the gateway provably holds for every value the fact allows.
fn gw_provably_true(fact: &ValueFact, gw: &Gateway) -> bool {
    match gw.cmp {
        Cmp::Eq => fact.as_const() == Some(gw.value),
        Cmp::Ne => !fact.contains(gw.value),
        Cmp::Lt => fact.hi < gw.value,
        Cmp::Le => fact.hi <= gw.value,
        Cmp::Gt => fact.lo > gw.value,
        Cmp::Ge => fact.lo >= gw.value,
    }
}

/// Abstractly executes one VLIW op, mirroring
/// [`ht_asic::action`]'s masked execute semantics.
fn apply_op(env: &mut Env, op: &PrimitiveOp, sw: &Switch) {
    let ft = &sw.fields;
    match op {
        PrimitiveOp::SetConst { dst, value } => {
            env.set(slot(*dst), ValueFact::set_const(*value, ft.mask(*dst)));
        }
        PrimitiveOp::CopyField { dst, src } => {
            let f = env.get(slot(*src)).copy_into(ft.mask(*dst));
            env.set(slot(*dst), f);
        }
        PrimitiveOp::AddConst { dst, value } => {
            let f = env.get(slot(*dst)).add(&ValueFact::exact(*value), ft.mask(*dst));
            env.set(slot(*dst), f);
        }
        PrimitiveOp::AddField { dst, src } => {
            let f = env.get(slot(*dst)).add(env.get(slot(*src)), ft.mask(*dst));
            env.set(slot(*dst), f);
        }
        PrimitiveOp::SubField { dst, src } => {
            let f = env.get(slot(*dst)).sub(env.get(slot(*src)), ft.mask(*dst));
            env.set(slot(*dst), f);
        }
        PrimitiveOp::AndConst { dst, value } => {
            let f = env.get(slot(*dst)).and_const(*value);
            env.set(slot(*dst), f);
        }
        PrimitiveOp::OrConst { dst, value } => {
            let f = env.get(slot(*dst)).or_const(*value, ft.mask(*dst));
            env.set(slot(*dst), f);
        }
        PrimitiveOp::ShiftRight { dst, bits } => {
            let f = env.get(slot(*dst)).shr(*bits);
            env.set(slot(*dst), f);
        }
        PrimitiveOp::Hash { dst, mask_bits, .. } => {
            env.set(slot(*dst), ValueFact::full(mask_for(*mask_bits).min(ft.mask(*dst))));
        }
        PrimitiveOp::RngUniform { dst, bits, offset } => {
            let span = mask_for((*bits).min(63));
            let mask = ft.mask(*dst);
            let fact = match offset.checked_add(span) {
                Some(hi) if hi <= mask => ValueFact::range(*offset, hi),
                _ => ValueFact::full(mask),
            };
            env.set(slot(*dst), fact);
        }
        PrimitiveOp::Salu { reg, program, .. } => {
            if let Some(out) = program.output {
                let lane = mask_for(sw.regs.array(*reg).width());
                let fact = match out.src {
                    ht_asic::register::SaluOutputSrc::CondFlag => ValueFact::range(0, 1),
                    _ => ValueFact::full(lane),
                };
                env.set(slot(out.dst), fact.copy_into(ft.mask(out.dst)));
            }
        }
        PrimitiveOp::SetEgressPort(p) => {
            env.set(slot(fields::EG_PORT), ValueFact::exact(u64::from(*p)));
        }
        PrimitiveOp::SetMcastGroup(g) => {
            env.set(slot(fields::MCAST_GRP), ValueFact::exact(u64::from(*g)));
        }
        PrimitiveOp::Recirculate => {
            env.set(slot(fields::RECIRC_FLAG), ValueFact::exact(1));
        }
        PrimitiveOp::Drop => {
            env.set(slot(fields::DROP_FLAG), ValueFact::exact(1));
        }
        PrimitiveOp::Digest { .. } | PrimitiveOp::NoOp => {}
    }
}

/// Facts the reporting sweep extracts while re-running a table's transfer.
enum TableFact {
    /// Refinement through the `idx`-th gateway emptied the environment:
    /// the table is dead logic.
    DeadTable,
    /// The `idx`-th installed entry (in [`Table::entries`] order) can
    /// never match; the field named proves it.
    UnreachableEntry { entry_idx: usize, field: FieldId },
}

/// Refines an environment through an entry's match key; `None` when the
/// entry provably cannot match, naming the disproving field.
fn entry_refine(env: &Env, t: &Table, key: &MatchKey) -> Result<Env, FieldId> {
    let mut e = env.clone();
    match key {
        MatchKey::Exact(vals) => {
            for (f, v) in t.key_fields().iter().zip(vals) {
                match e.get(slot(*f)).intersect(*v, *v) {
                    Some(r) => e.set(slot(*f), r),
                    None => return Err(*f),
                }
            }
        }
        MatchKey::Range(ranges) => {
            for (f, (lo, hi)) in t.key_fields().iter().zip(ranges) {
                match e.get(slot(*f)).intersect(*lo, *hi) {
                    Some(r) => e.set(slot(*f), r),
                    None => return Err(*f),
                }
            }
        }
        MatchKey::Ternary(pairs) => {
            for (f, (v, m)) in t.key_fields().iter().zip(pairs) {
                let fact = e.get(slot(*f));
                // A known bit that disagrees with the required pattern is
                // a contradiction; otherwise ternary keys refine nothing.
                if fact.known_mask & m & (fact.known_val ^ v) != 0 {
                    return Err(*f);
                }
            }
        }
        MatchKey::Index(_) => {}
    }
    Ok(e)
}

/// The abstract effect of one table on an input environment: the join of
/// the skip path (unless every gateway provably holds), the default
/// action, and each small-table entry's action on its key-refined input.
/// Big tables havoc their precomputed write summary instead.
fn table_flow(
    sw: &Switch,
    t: &Table,
    state: &Env,
    summary: Option<&[FieldId]>,
    facts: &mut Vec<TableFact>,
) -> Env {
    let mut refined = state.clone();
    let mut all_true = true;
    for gw in t.gateways() {
        let cur = *refined.get(slot(gw.field));
        if !gw_provably_true(&cur, gw) {
            all_true = false;
        }
        match gw_refine(&cur, gw) {
            Some(f) => refined.set(slot(gw.field), f),
            None => {
                facts.push(TableFact::DeadTable);
                // Dead logic: no action ever executes.
                return state.clone();
            }
        }
    }
    let mut out: Option<Env> = if all_true { None } else { Some(state.clone()) };
    let merge = |out: &mut Option<Env>, env: Env| match out {
        Some(o) => {
            o.join(&env);
        }
        None => *out = Some(env),
    };
    if let Some(written) = summary {
        let mut hav = refined.clone();
        for &f in written {
            hav.set(slot(f), ValueFact::full(sw.fields.mask(f)));
        }
        merge(&mut out, hav);
    } else {
        let mut dfl = refined.clone();
        for op in &t.default_action().ops {
            apply_op(&mut dfl, op, sw);
        }
        merge(&mut out, dfl);
        for (ei, (key, _prio, action)) in t.entries().iter().enumerate() {
            match entry_refine(&refined, t, key) {
                Err(field) => facts.push(TableFact::UnreachableEntry { entry_idx: ei, field }),
                Ok(mut e) => {
                    for op in &action.ops {
                        apply_op(&mut e, op, sw);
                    }
                    merge(&mut out, e);
                }
            }
        }
    }
    out.unwrap_or_else(|| state.clone())
}

struct ValueTransfer<'a> {
    sw: &'a Switch,
    nodes: &'a [Node],
    /// Write summaries for big tables (`None` for small ones), aligned
    /// with `nodes`.
    summaries: Vec<Option<Vec<FieldId>>>,
}

impl<'a> ValueTransfer<'a> {
    fn new(sw: &'a Switch, nodes: &'a [Node]) -> Self {
        let summaries = nodes
            .iter()
            .map(|&n| {
                let t = node_table(sw, n)?;
                if t.entry_count() <= SMALL_TABLE_MAX {
                    return None;
                }
                let mut written: Vec<FieldId> = Vec::new();
                for a in t.actions() {
                    for op in &a.ops {
                        if let Some((w, _)) = op_write(op) {
                            if !written.contains(&w) {
                                written.push(w);
                            }
                        }
                    }
                }
                Some(written)
            })
            .collect();
        ValueTransfer { sw, nodes, summaries }
    }
}

impl Transfer<Env> for ValueTransfer<'_> {
    fn boundary(&self) -> Env {
        boundary_env(&self.sw.fields)
    }

    fn flow(&self, node: usize, state: &Env) -> Env {
        let ft = &self.sw.fields;
        match self.nodes[node] {
            Node::Entry => {
                let mut out = state.clone();
                apply_entry_reset(&mut out, ft);
                out
            }
            Node::Exit => state.clone(),
            Node::Tm => {
                // Packets reaching the TM survived the drop check.
                let mut base = state.clone();
                if let Some(f) = base.get(slot(fields::DROP_FLAG)).intersect(0, 0) {
                    base.set(slot(fields::DROP_FLAG), f);
                }
                // Unicast pass-through joined with replica generation
                // (replicas re-arrive with fresh rid/egress routing).
                let mut rep = base.clone();
                rep.set(slot(fields::RID), ValueFact::full(ft.mask(fields::RID)));
                rep.set(slot(fields::EG_PORT), ValueFact::full(ft.mask(fields::EG_PORT)));
                rep.set(slot(fields::MCAST_GRP), ValueFact::exact(0));
                rep.set(slot(fields::RECIRC_FLAG), ValueFact::exact(0));
                let mut out = base;
                out.join(&rep);
                out
            }
            Node::Ext(pi, si, ei) => {
                let (_, pipe) = pipelines(self.sw)[pi];
                let e = &pipe.stages[si].externs[ei];
                let mut out = state.clone();
                for f in e.writes() {
                    out.set(slot(f), ValueFact::full(ft.mask(f)));
                }
                out
            }
            n @ Node::Table(..) => {
                let t = node_table(self.sw, n).expect("table node");
                let mut sink = Vec::new();
                table_flow(self.sw, t, state, self.summaries[node].as_deref(), &mut sink)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Liveness analysis (backward, over the reversed CFG)
// ---------------------------------------------------------------------------

/// Live-in of one table given live-out: per-action backward scans (an
/// action's write kills, its reads generate, in op order), unioned across
/// actions, plus gateway and key reads, plus the skip path when gateways
/// may fail.
fn table_live(t: &Table, live_out: &BitSet) -> BitSet {
    let mut result = if t.gateways().is_empty() { BitSet::new() } else { live_out.clone() };
    for gw in t.gateways() {
        result.insert(slot(gw.field));
    }
    for k in t.key_fields() {
        result.insert(slot(*k));
    }
    for a in t.actions() {
        let mut l = live_out.clone();
        for op in a.ops.iter().rev() {
            if let Some((w, _)) = op_write(op) {
                l.remove(slot(w));
            }
            for r in op_reads(op) {
                l.insert(slot(r));
            }
        }
        result.join(&l);
    }
    result
}

struct LiveTransfer<'a> {
    sw: &'a Switch,
    nodes: &'a [Node],
}

impl Transfer<BitSet> for LiveTransfer<'_> {
    fn boundary(&self) -> BitSet {
        // Everything the deparser emits or the MAC/TM consumes: all
        // standard fields are observable at exit.
        let mut b = BitSet::new();
        for i in 0..fields::STANDARD_COUNT {
            b.insert(usize::from(i));
        }
        b
    }

    fn flow(&self, node: usize, live: &BitSet) -> BitSet {
        match self.nodes[node] {
            Node::Entry | Node::Tm | Node::Exit => live.clone(),
            Node::Ext(pi, si, ei) => {
                let (_, pipe) = pipelines(self.sw)[pi];
                let mut l = live.clone();
                // Externs write conditionally — no kill; their reads gen.
                for r in pipe.stages[si].externs[ei].reads() {
                    l.insert(slot(r));
                }
                l
            }
            n @ Node::Table(..) => table_live(node_table(self.sw, n).expect("table node"), live),
        }
    }
}

// ---------------------------------------------------------------------------
// The solved analysis
// ---------------------------------------------------------------------------

/// Both dataflow solutions over one built switch program.
pub struct SwitchAnalysis {
    nodes: Vec<Node>,
    recirc: bool,
    /// Forward value analysis: `value.pre[n]` is the proven environment
    /// on entry to node `n`.
    value: Solution<Env>,
    /// Backward liveness run forward over the reversed CFG:
    /// `live.pre[n]` is the live-out set of node `n` (reversed-graph
    /// pre-state = forward post-state).
    live: Solution<BitSet>,
}

/// Solves both analyses; `None` if a solver exceeded its visit budget
/// (lawful widening makes this unreachable, but callers degrade to "no
/// facts proven" rather than panicking inside a build).
pub fn analyze_switch(sw: &Switch) -> Option<SwitchAnalysis> {
    #[cfg(test)]
    crate::tests::SOLVES.with(|n| n.set(n.get() + 1));
    let PipelineCfg { cfg, nodes } = build_cfg(sw);
    let recirc = recirc_possible(sw);
    let value = solve(&cfg, &ValueTransfer::new(sw, &nodes)).ok()?;
    let exit = nodes.len() - 1;
    let live = solve(&cfg.reversed(exit), &LiveTransfer { sw, nodes: &nodes }).ok()?;
    Some(SwitchAnalysis { nodes, recirc, value, live })
}

impl SwitchAnalysis {
    /// Worklist iterations of the (value, liveness) solvers — tests
    /// assert these stay small to prove widening terminates.
    pub fn iterations(&self) -> (usize, usize) {
        (self.value.iterations, self.live.iterations)
    }

    /// Whether the pipeline CFG carries a recirculation back edge.
    pub fn has_back_edge(&self) -> bool {
        self.recirc
    }

    fn table_nodes(&self) -> impl Iterator<Item = (usize, Node)> + '_ {
        self.nodes.iter().copied().enumerate().filter(|(_, n)| matches!(n, Node::Table(..)))
    }

    /// The proven environment a table's actions run under: the table's
    /// entry facts refined through its gateways (a contradicting gateway
    /// refines nothing).  `None` when the table is unreachable.
    fn action_env(&self, node: usize, t: &Table) -> Option<Env> {
        let mut env = self.value.pre[node].clone()?;
        for gw in t.gateways() {
            if let Some(f) = gw_refine(env.get(slot(gw.field)), gw) {
                env.set(slot(gw.field), f);
            }
        }
        Some(env)
    }
}

// ---------------------------------------------------------------------------
// Pass: reachability (gateway-false / gateway-contradiction / redundant)
// ---------------------------------------------------------------------------

/// The set of field values syntactically satisfying one gateway given the
/// field width; `None` = empty.
fn gw_syntactically_false(gw: &Gateway, mask: u64) -> bool {
    match gw.cmp {
        Cmp::Eq => gw.value > mask,
        Cmp::Ne => false,
        Cmp::Lt => gw.value == 0,
        Cmp::Le => false,
        Cmp::Gt => gw.value >= mask,
        Cmp::Ge => gw.value > mask,
    }
}

fn gw_is_tautology(gw: &Gateway, mask: u64) -> bool {
    match gw.cmp {
        Cmp::Eq => false,
        Cmp::Ne => gw.value > mask,
        Cmp::Lt => gw.value > mask,
        Cmp::Le => gw.value >= mask,
        Cmp::Gt => false,
        Cmp::Ge => gw.value == 0,
    }
}

fn gw_text(ft: &FieldTable, gw: &Gateway) -> String {
    let op = match gw.cmp {
        Cmp::Eq => "==",
        Cmp::Ne => "!=",
        Cmp::Lt => "<",
        Cmp::Le => "<=",
        Cmp::Gt => ">",
        Cmp::Ge => ">=",
    };
    format!("{} {op} {}", ft.def(gw.field).name, gw.value)
}

/// Reachability over the value analysis: reports gateways that are
/// statically false for the field width (`gateway-false`, error),
/// semantically unsatisfiable under the proven environment — including
/// the old syntactic pair contradictions *and* contradictions only value
/// flow can see (`gateway-contradiction`, error) — and syntactic
/// tautologies (`gateway-redundant`, warning).
pub fn check_reachability(sw: &Switch, a: &SwitchAnalysis) -> LintReport {
    let mut report = LintReport::new();
    let ft = &sw.fields;
    for (ni, n) in a.table_nodes() {
        let t = node_table(sw, n).expect("table node");
        let at = node_loc(sw, n);
        for gw in t.gateways() {
            if gw_syntactically_false(gw, ft.mask(gw.field)) {
                report.push(Diagnostic::error(
                    "gateway-false",
                    at.clone(),
                    format!(
                        "gateway `{}` can never hold for a {}-bit field; the table is dead",
                        gw_text(ft, gw),
                        ft.width(gw.field)
                    ),
                    "remove the table or fix the constant",
                ));
            } else if gw_is_tautology(gw, ft.mask(gw.field)) {
                report.push(Diagnostic::warning(
                    "gateway-redundant",
                    at.clone(),
                    format!("gateway `{}` always holds and wastes a gateway unit", gw_text(ft, gw)),
                    "drop the predicate",
                ));
            }
        }
        let Some(pre) = &a.value.pre[ni] else { continue };
        // Sequentially refine the proven environment through the gateway
        // conjunction; the first refinement that empties it proves the
        // table dead.  Skip gateways that are already reported as
        // syntactically false.
        if t.gateways().iter().any(|gw| gw_syntactically_false(gw, ft.mask(gw.field))) {
            continue;
        }
        let mut env = pre.clone();
        for gw in t.gateways() {
            let cur = *env.get(slot(gw.field));
            match gw_refine(&cur, gw) {
                Some(f) => env.set(slot(gw.field), f),
                None => {
                    report.push(Diagnostic::error(
                        "gateway-contradiction",
                        at.clone(),
                        format!(
                            "gateway `{}` cannot hold: `{}` is proven in [{}, {}] here; \
                             the table is dead",
                            gw_text(ft, gw),
                            field_name(ft, gw.field),
                            cur.lo,
                            cur.hi
                        ),
                        "remove the table or correct the predicate",
                    ));
                    break;
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass: dead field edits
// ---------------------------------------------------------------------------

/// Reports writes to dynamic metadata that are provably overwritten (or
/// never observable) before any read on every path (`dead-field-edit`,
/// warning).  Fields nothing reads anywhere are left to `phv-dead-write`;
/// this pass claims only edits whose field *is* read somewhere, just never
/// after this particular write.
pub fn check_dead_field_edits(sw: &Switch, a: &SwitchAnalysis) -> LintReport {
    let mut report = LintReport::new();
    let ft = &sw.fields;
    // Writes to never-read fields are phv-dead-write's finding, not ours.
    let read_anywhere = read_anywhere(sw);

    for (ni, n) in a.table_nodes() {
        let t = node_table(sw, n).expect("table node");
        // live.pre over the reversed graph = live-out in forward order.
        let Some(live_out) = &a.live.pre[ni] else { continue };
        let at = node_loc(sw, n);
        let mut reported: HashSet<(FieldId, String)> = HashSet::new();
        for act in t.actions() {
            let mut live = live_out.clone();
            for op in act.ops.iter().rev() {
                if let Some((w, plain)) = op_write(op) {
                    if plain
                        && is_dynamic(w)
                        && !live.contains(slot(w))
                        && read_anywhere.contains(&w)
                        && reported.insert((w, act.name.clone()))
                    {
                        report.push(Diagnostic::warning(
                            "dead-field-edit",
                            format!("{at} action {}", act.name),
                            format!(
                                "write to `{}` is dead: every later path overwrites it \
                                 before any read",
                                field_name(ft, w)
                            ),
                            "remove the write or move the consumer before the overwrite",
                        ));
                    }
                    live.remove(slot(w));
                }
                for r in op_reads(op) {
                    live.insert(slot(r));
                }
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass: unreachable table entries
// ---------------------------------------------------------------------------

fn key_text(ft: &FieldTable, t: &Table, key: &MatchKey) -> String {
    let names = |vals: Vec<String>| {
        t.key_fields()
            .iter()
            .zip(vals)
            .map(|(f, v)| format!("{}={v}", ft.def(*f).name))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match key {
        MatchKey::Exact(vs) => names(vs.iter().map(u64::to_string).collect()),
        MatchKey::Ternary(ps) => names(ps.iter().map(|(v, m)| format!("{v:#x}&{m:#x}")).collect()),
        MatchKey::Range(rs) => names(rs.iter().map(|(lo, hi)| format!("[{lo},{hi}]")).collect()),
        MatchKey::Index(i) => format!("index {i}"),
    }
}

/// Reports installed entries whose keys can never match under the proven
/// field values (`unreachable-action`, warning).  Index tables and tables
/// above [`SMALL_TABLE_MAX`] entries are skipped.
pub fn check_unreachable_actions(sw: &Switch, a: &SwitchAnalysis) -> LintReport {
    let mut report = LintReport::new();
    let ft = &sw.fields;
    for (ni, n) in a.table_nodes() {
        let t = node_table(sw, n).expect("table node");
        if t.kind() == MatchKind::Index || t.entry_count() > SMALL_TABLE_MAX {
            continue;
        }
        let Some(pre) = &a.value.pre[ni] else { continue };
        let mut facts = Vec::new();
        let _ = table_flow(sw, t, pre, None, &mut facts);
        let entries = t.entries();
        let at = node_loc(sw, n);
        for fact in facts {
            if let TableFact::UnreachableEntry { entry_idx, field } = fact {
                let (key, _, action) = &entries[entry_idx];
                let cur = pre.get(slot(field));
                report.push(Diagnostic::warning(
                    "unreachable-action",
                    format!("{at} action {}", action.name),
                    format!(
                        "entry ({}) can never match: `{}` is proven in [{}, {}] here",
                        key_text(ft, t, key),
                        field_name(ft, field),
                        cur.lo,
                        cur.hi
                    ),
                    "remove the entry or widen the producing edit",
                ));
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Pass: SALU value ranges
// ---------------------------------------------------------------------------

fn operand_hi(op: &SaluOperand, env: &Env) -> u64 {
    match op {
        SaluOperand::Const(c) => *c,
        SaluOperand::Field(f) => env.get(slot(*f)).hi,
    }
}

fn operand_text(ft: &FieldTable, op: &SaluOperand) -> String {
    match op {
        SaluOperand::Const(c) => c.to_string(),
        SaluOperand::Field(f) => format!("`{}`", ft.def(*f).name),
    }
}

/// Reports SALU update operands whose proven range exceeds the register
/// lane (`salu-range-overflow`, warning): a `Set` silently truncates, an
/// `Add`/`Sub` wraps the stored value.
pub fn check_salu_range(sw: &Switch, a: &SwitchAnalysis) -> LintReport {
    let mut report = LintReport::new();
    let ft = &sw.fields;
    for (ni, n) in a.table_nodes() {
        let t = node_table(sw, n).expect("table node");
        let Some(env) = a.action_env(ni, t) else { continue };
        let at = node_loc(sw, n);
        for act in t.actions() {
            for op in &act.ops {
                let PrimitiveOp::Salu { reg, program, .. } = op else { continue };
                let width = sw.regs.array(*reg).width();
                let lane = mask_for(width);
                for (upd, branch) in [(program.on_true, "on_true"), (program.on_false, "on_false")]
                {
                    let (operand, verb) = match upd {
                        SaluUpdate::Keep => continue,
                        SaluUpdate::Set(o) => (o, "truncates"),
                        SaluUpdate::Add(o) | SaluUpdate::Sub(o) => (o, "wraps"),
                    };
                    let hi = operand_hi(&operand, &env);
                    if hi > lane {
                        report.push(Diagnostic::warning(
                            "salu-range-overflow",
                            format!("{at} action {}", act.name),
                            format!(
                                "{branch} operand {} may reach {hi}, beyond the {width}-bit \
                                 lane of register array `{}`; the SALU silently {verb}",
                                operand_text(ft, &operand),
                                sw.regs.array(*reg).name()
                            ),
                            "widen the register array or mask the operand first",
                        ));
                    }
                }
            }
        }
    }
    report
}

/// Whether one SALU program provably never wraps its register lane:
/// every update is `Keep`, a `Set` of an operand proven within the lane,
/// or the guarded-increment idiom `if reg < K { reg += c }` with
/// `K-1+c ≤ lane`.
fn salu_program_nowrap(prog: &SaluProgram, env: &Env, lane: u64) -> bool {
    let upd_ok = |u: &SaluUpdate| match u {
        SaluUpdate::Keep => true,
        SaluUpdate::Set(o) => operand_hi(o, env) <= lane,
        SaluUpdate::Add(_) | SaluUpdate::Sub(_) => false,
    };
    if upd_ok(&prog.on_true) && upd_ok(&prog.on_false) {
        return true;
    }
    if let Some(SaluCond { expr: CondExpr::Reg, cmp: Cmp::Lt, rhs: SaluOperand::Const(k) }) =
        prog.condition
    {
        if let (SaluUpdate::Add(SaluOperand::Const(c)), SaluUpdate::Keep) =
            (prog.on_true, prog.on_false)
        {
            return k
                .checked_sub(1)
                .and_then(|km1| km1.checked_add(c))
                .is_some_and(|max| max <= lane);
        }
    }
    false
}

/// Register arrays proven never to wrap: every table-side SALU program
/// touching them is no-wrap under the value analysis, and no extern owns
/// them (extern lowering is outside the analysis).  The fuzz oracle
/// cross-checks these certificates against execution-trace wrap events.
pub fn proven_nowrap_regs(sw: &Switch, a: &SwitchAnalysis) -> Vec<RegId> {
    let mut touched: Vec<RegId> = Vec::new();
    let mut broken: HashSet<RegId> = HashSet::new();
    for (ni, n) in a.table_nodes() {
        let t = node_table(sw, n).expect("table node");
        let Some(env) = a.action_env(ni, t) else { continue };
        for act in t.actions() {
            for op in &act.ops {
                let PrimitiveOp::Salu { reg, program, .. } = op else { continue };
                if !touched.contains(reg) {
                    touched.push(*reg);
                }
                let lane = mask_for(sw.regs.array(*reg).width());
                if !salu_program_nowrap(program, &env, lane) {
                    broken.insert(*reg);
                }
            }
        }
    }
    let extern_owned = extern_regs(sw);
    touched.retain(|r| !broken.contains(r) && !extern_owned.contains(r));
    touched
}

// ---------------------------------------------------------------------------
// Fact dumps (htctl analyze --dump-facts)
// ---------------------------------------------------------------------------

/// The fact-dump views `htctl analyze --dump-facts=PASS` accepts.
pub const FACT_PASSES: [&str; 4] = ["value", "liveness", "reachability", "salu-range"];

/// Renders one view of the solved analysis as deterministic text; `None`
/// for an unknown pass name (see [`FACT_PASSES`]).
pub fn dump_facts(sw: &Switch, a: &SwitchAnalysis, pass: &str) -> Option<String> {
    let ft = &sw.fields;
    let mut out = String::new();
    let w = &mut out;
    match pass {
        "value" => {
            let _ = writeln!(w, "# proven field intervals on entry to each table");
            for (ni, n) in a.table_nodes() {
                let Some(pre) = &a.value.pre[ni] else { continue };
                let _ = writeln!(w, "{}", node_loc(sw, n));
                for (i, fact) in pre.slots.iter().enumerate() {
                    let f = FieldId(i as u16);
                    if *fact == ValueFact::full(ft.mask(f)) {
                        continue;
                    }
                    let _ = writeln!(
                        w,
                        "  {} in [{}, {}]{}",
                        ft.def(f).name,
                        fact.lo,
                        fact.hi,
                        fact.as_const().map_or(String::new(), |_| " (const)".into())
                    );
                }
            }
        }
        "liveness" => {
            let _ = writeln!(w, "# fields live after each table");
            for (ni, n) in a.table_nodes() {
                let Some(live) = &a.live.pre[ni] else { continue };
                let names: Vec<&str> = live
                    .iter()
                    .filter(|&b| b < ft.len())
                    .map(|b| ft.def(FieldId(b as u16)).name.as_str())
                    .collect();
                let _ = writeln!(w, "{}: {}", node_loc(sw, n), names.join(" "));
            }
        }
        "reachability" => {
            let _ = writeln!(w, "# table and entry reachability");
            for (ni, n) in a.table_nodes() {
                let t = node_table(sw, n).expect("table node");
                let Some(pre) = &a.value.pre[ni] else {
                    let _ = writeln!(w, "{}: UNREACHABLE", node_loc(sw, n));
                    continue;
                };
                let mut facts = Vec::new();
                let summary = (t.entry_count() > SMALL_TABLE_MAX).then(Vec::new);
                let _ = table_flow(sw, t, pre, summary.as_deref(), &mut facts);
                let dead = facts.iter().any(|f| matches!(f, TableFact::DeadTable));
                let unreachable = facts
                    .iter()
                    .filter(|f| matches!(f, TableFact::UnreachableEntry { .. }))
                    .count();
                let _ = writeln!(
                    w,
                    "{}: {} ({} entries, {} unreachable)",
                    node_loc(sw, n),
                    if dead { "DEAD" } else { "reachable" },
                    t.entry_count(),
                    unreachable
                );
            }
        }
        "salu-range" => {
            let _ = writeln!(w, "# register arrays proven never to wrap");
            for reg in proven_nowrap_regs(sw, a) {
                let arr = sw.regs.array(reg);
                let _ = writeln!(w, "{} ({} x {}-bit)", arr.name(), arr.depth(), arr.width());
            }
        }
        _ => return None,
    }
    Some(out)
}
