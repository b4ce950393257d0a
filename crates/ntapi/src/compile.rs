//! NTAPI compilation: lowering the AST through an ordered table of passes
//! into the typed IR module ([`ht_ir::Module`]) every backend consumes —
//! the sim builder (`ht-core`), the P4 backend ([`crate::codegen`]), and
//! the task-level verifier ([`crate::lint`]).
//!
//! Lowering follows §5.1/§5.2 of the paper, one concern per pass:
//!
//! 1. **`template-extraction`** — each trigger becomes a template packet
//!    spec: constant header values, payload, port set, loop count, and
//!    response-field copies; variable-value `set`s are recorded for the
//!    next pass.
//! 2. **`field-edit-planning`** — value lists, arithmetic progressions,
//!    uniform RNG with power-of-two scope limiting (§6.1), and
//!    inverse-transform tables become editor edits.
//! 3. **`frame-layout`** — the L4 protocol is resolved (explicit `proto`
//!    or inferred from TCP-field references) and the frame length checked
//!    against headers + payload.
//! 4. **`rate-control-timer-synthesis`** — per-template replicator timers
//!    are derived from `interval` values, and the templates are checked
//!    against the recirculation-loop capacity that drives those timers.
//! 5. **`query-lowering`** — each query becomes a compiled query: filter
//!    predicates, the aggregation kind, and (for `distinct`/keyed
//!    `reduce`) the hash configuration plus the precomputed
//!    exact-key-matching entries.
//! 6. **`resource-annotation`** — the logical stage count is computed and
//!    checked against the stage budget.
//! 7. **`task-lint`** — task-level static verification; errors deny
//!    compilation, warnings ride along on the compiled task.
//! 8. **`analysis-annotation`** — proven value intervals of every edit
//!    and timer feasibility against the recirculation quantum.
//! 9. **`exec-lowering`** — the flattened editor programs the compiled
//!    pipeline executor runs ([`ht_ir::execplan`]).
//!
//! Each pass is a plain function over the lowering state; [`lower_with`]
//! runs them in table order and times each one.  Invalid tasks are
//! **rejected** (§6.1: out-of-range field values, malformed ranges,
//! dangling references, and tasks exceeding the accelerator or stage
//! budget).  `htctl compile --dump-ir` uses [`lower_with`] to print the
//! module after any named pass.

use crate::ast::{DistSpec, Program, QueryOp, Value};
use crate::fp::compute_fp_indices;
use crate::headerspace::{global_space, SpaceError};
use ht_asic::timing;
use ht_ir::{AcceleratorPlan, HeaderField, LintReport, Module, NtField, QuerySource, TimerPlan};
use std::time::{Duration, Instant};

// The IR types this compiler produces moved to `ht-ir`; re-exported here
// under their original paths.
pub use ht_ir::{
    CompiledQuery, EditSpec, FpConfig, HashConfig, L4Proto, QueryKind, ResponseCopy, TemplateSpec,
};

/// Errors rejecting a testing task (§6.1: "HyperTester will reject the
/// mistaken testing tasks").
#[derive(Debug, Clone, PartialEq)]
pub enum NtapiError {
    /// A value does not fit the target field (e.g. a TCP port > 65535).
    ValueOutOfRange {
        /// Offending field name.
        field: String,
        /// Offending value.
        value: u64,
        /// Field width in bits.
        width: u32,
    },
    /// A `range` with `step == 0` or `end < start`.
    BadRange {
        /// Offending field name.
        field: String,
    },
    /// The value type is not applicable to the field (e.g. a list for
    /// `pkt_len` — the pipeline cannot change packet lengths, §5.3).
    BadValueType {
        /// Offending field name.
        field: String,
        /// What was found.
        found: String,
    },
    /// A trigger or value references an undefined query.
    UnknownQuery(
        /// The dangling name.
        String,
    ),
    /// A query monitors an undefined trigger.
    UnknownTrigger(
        /// The dangling name.
        String,
    ),
    /// The requested frame length cannot hold the headers and payload.
    FrameTooShort {
        /// Requested length.
        requested: usize,
        /// Minimum needed.
        needed: usize,
    },
    /// More templates than the accelerator (plus configured loopback loops)
    /// can recirculate.
    AcceleratorOverflow {
        /// Templates requested.
        templates: usize,
        /// Capacity available.
        capacity: usize,
    },
    /// The task needs more match-action stages than the ASIC has.
    StageOverflow {
        /// Stages the task would need.
        needed: usize,
        /// Stages available.
        available: usize,
    },
    /// A keyed/distinct query keys on `sport`/`dport` while its triggers
    /// mix L4 protocols: the generic port fields resolve to one
    /// protocol's header ([`crate::ast::HeaderField::Sport`] maps to a
    /// single PHV field per task), so the other protocol's packets would
    /// report key 0 — flows outside the injected set.
    AmbiguousPortKey {
        /// The offending query.
        query: String,
        /// The protocol-dependent key field.
        field: String,
    },
    /// A query's key space cannot be enumerated (too large).
    HeaderSpace(SpaceError),
    /// An RNG table exponent outside `1..=20`.
    BadRandomBits(
        /// The offending exponent.
        u32,
    ),
    /// A cuckoo hash width of [`CompileOptions::hash`] outside `1..=32` bits
    /// (wider ones overflow the bucket/digest masks and the precompute's
    /// packed sort key).
    BadHashBits {
        /// `"array_bits"` or `"digest_bits"`.
        field: &'static str,
        /// The offending width.
        bits: u32,
    },
    /// The task failed static verification (see [`crate::lint`]).
    Lint(
        /// The error diagnostics that denied compilation.
        Vec<ht_ir::Diagnostic>,
    ),
}

impl std::fmt::Display for NtapiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NtapiError::ValueOutOfRange { field, value, width } => {
                write!(f, "value {value} does not fit {width}-bit field {field}")
            }
            NtapiError::BadRange { field } => write!(f, "malformed range for field {field}"),
            NtapiError::BadValueType { field, found } => {
                write!(f, "field {field} cannot take a {found} value")
            }
            NtapiError::UnknownQuery(q) => write!(f, "reference to undefined query {q}"),
            NtapiError::UnknownTrigger(t) => write!(f, "query monitors undefined trigger {t}"),
            NtapiError::FrameTooShort { requested, needed } => {
                write!(f, "frame length {requested} cannot hold headers+payload ({needed} needed)")
            }
            NtapiError::AcceleratorOverflow { templates, capacity } => {
                write!(f, "{templates} templates exceed accelerator capacity {capacity}")
            }
            NtapiError::StageOverflow { needed, available } => {
                write!(f, "task needs {needed} logical stages, ASIC has {available}")
            }
            NtapiError::AmbiguousPortKey { query, field } => write!(
                f,
                "query {query} keys on protocol-dependent field {field} \
                 but its triggers mix TCP and UDP"
            ),
            NtapiError::HeaderSpace(e) => write!(f, "{e}"),
            NtapiError::BadRandomBits(b) => write!(f, "random table exponent {b} out of 1..=20"),
            NtapiError::BadHashBits { field, bits } => {
                write!(f, "hash option {field} = {bits} out of 1..=32")
            }
            NtapiError::Lint(diags) => {
                write!(f, "task rejected by static verification:")?;
                for d in diags {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NtapiError {}

impl NtapiError {
    /// Best-effort source attribution: the span of the program construct
    /// this rejection most plausibly blames, resolved against the
    /// program's retained [`crate::ast::SourceMap`].  `None` for
    /// builder-constructed programs (no source) or errors with no natural
    /// anchor.
    pub fn blame_span(&self, program: &Program) -> Option<ht_ir::SourceSpan> {
        let field_span = |name: &str| -> Option<crate::ast::Span> {
            for t in &program.triggers {
                for s in &t.sets {
                    if s.fields.iter().any(|f| crate::printer::field_name(f) == name) {
                        return Some(s.span);
                    }
                }
            }
            for q in &program.queries {
                for op in &q.ops {
                    if let QueryOp::Filter(p) = op {
                        if p.field.name() == name {
                            return Some(q.span);
                        }
                    }
                }
            }
            None
        };
        let span = match self {
            NtapiError::ValueOutOfRange { field, .. }
            | NtapiError::BadRange { field }
            | NtapiError::BadValueType { field, .. } => field_span(field),
            NtapiError::UnknownQuery(q) => program
                .triggers
                .iter()
                .find(|t| t.source_query.as_deref() == Some(q.as_str()))
                .map(|t| t.span),
            NtapiError::UnknownTrigger(t) => program
                .queries
                .iter()
                .find(|qd| matches!(&qd.source, QuerySource::Trigger(n) if n == t))
                .map(|q| q.span),
            NtapiError::AmbiguousPortKey { query, .. } => {
                program.queries.iter().find(|qd| &qd.name == query).map(|q| q.span)
            }
            NtapiError::FrameTooShort { .. }
            | NtapiError::AcceleratorOverflow { .. }
            | NtapiError::BadRandomBits(_) => program.triggers.first().map(|t| t.span),
            _ => None,
        };
        span.and_then(|sp| source_span(program, sp))
    }
}

impl From<SpaceError> for NtapiError {
    fn from(e: SpaceError) -> Self {
        NtapiError::HeaderSpace(e)
    }
}

/// Compile-time options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Hash configuration for counter-based queries.
    pub hash: HashConfig,
    /// Recirculation loops available: 1 (the internal path) plus any ports
    /// configured in loopback mode (§6.1's capacity extension).
    pub recirc_loops: usize,
    /// Logical stage budget for rejection (ingress + egress).
    pub stage_budget: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { hash: HashConfig::default(), recirc_loops: 1, stage_budget: 24 }
    }
}

/// A fully compiled testing task: the IR module plus the source program it
/// was lowered from.  Derefs to the [`Module`], so `task.templates` and
/// `task.queries` read the IR directly.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTask {
    /// The lowered IR module (templates, queries, plan annotations).
    pub ir: Module,
    /// The source program.
    pub program: Program,
    /// Options used.
    pub options: CompileOptions,
    /// Non-blocking findings from task-level static verification.
    pub warnings: Vec<ht_ir::Diagnostic>,
}

impl std::ops::Deref for CompiledTask {
    type Target = Module;

    fn deref(&self) -> &Module {
        &self.ir
    }
}

/// Compiles a program with default options.
pub fn compile(program: &Program) -> Result<CompiledTask, NtapiError> {
    compile_with(program, CompileOptions::default())
}

/// Compiles a program.
pub fn compile_with(
    program: &Program,
    options: CompileOptions,
) -> Result<CompiledTask, NtapiError> {
    let (module, _trace, report) = lower_with(program, options, None)?;
    Ok(CompiledTask { ir: module, program: program.clone(), options, warnings: report.diagnostics })
}

// ---------------------------------------------------------------------------
// The lowering pipeline
// ---------------------------------------------------------------------------

/// A variable-value `set` recorded by template extraction for the
/// field-edit-planning pass, in source order.
#[derive(Debug, Clone)]
enum PendingEdit {
    /// A header field set from a list, range, or random value.
    Header { field: HeaderField, value: Value },
    /// `set(interval, random(…))`: a distribution-drawn inter-departure
    /// time.
    IntervalDist { dist: DistSpec, bits: u32 },
}

/// Lowering state threaded through the passes: the source program, the
/// module under construction, and per-template intermediate facts.
#[derive(Debug)]
struct Lowering {
    program: Program,
    options: CompileOptions,
    module: Module,
    /// Deferred variable-value sets, one list per template.
    pending: Vec<Vec<PendingEdit>>,
    /// Explicit `pkt_len` requests, one per template.
    explicit_lens: Vec<Option<usize>>,
}

/// One lowering pass: extends the lowering state, adds non-fatal findings
/// to the report, and rejects the task with an error.
type PassFn = fn(&mut Lowering, &mut LintReport) -> Result<(), NtapiError>;

/// The lowering passes, in execution order.
const PASSES: [(&str, PassFn); 9] = [
    ("template-extraction", template_extraction),
    ("field-edit-planning", field_edit_planning),
    ("frame-layout", frame_layout),
    ("rate-control-timer-synthesis", rate_control_timer_synthesis),
    ("query-lowering", query_lowering),
    ("resource-annotation", resource_annotation),
    ("task-lint", task_lint),
    ("analysis-annotation", analysis_annotation),
    ("exec-lowering", exec_lowering),
];

/// Names of the lowering passes, in execution order (the values
/// `htctl compile --dump-ir=<pass>` accepts).
pub fn pass_names() -> Vec<&'static str> {
    PASSES.iter().map(|&(name, _)| name).collect()
}

/// The record of one executed lowering pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    /// Pass name, one of [`pass_names`].
    pub name: &'static str,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
}

/// The passes one [`lower_with`] call ran, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassTrace {
    /// One entry per executed pass.
    pub runs: Vec<PassRun>,
}

/// Runs the lowering passes in order, stopping *after* the pass named
/// `stop_after` when given, and returns the module as lowered so far, the
/// per-pass trace, and the accumulated diagnostics.  A `stop_after` that
/// names no pass runs the whole pipeline, so check user input against
/// [`pass_names`] first.  The first pass error rejects the task: it is
/// returned, no later pass runs, and no trace is kept.  `compile_with` is
/// this with no stop.
pub fn lower_with(
    program: &Program,
    options: CompileOptions,
    stop_after: Option<&str>,
) -> Result<(Module, PassTrace, LintReport), NtapiError> {
    for (field, bits) in
        [("array_bits", options.hash.array_bits), ("digest_bits", options.hash.digest_bits)]
    {
        if !(1..=32).contains(&bits) {
            return Err(NtapiError::BadHashBits { field, bits });
        }
    }
    let mut st = Lowering {
        program: program.clone(),
        options,
        module: Module::default(),
        pending: Vec::new(),
        explicit_lens: Vec::new(),
    };
    st.module.provenance = module_provenance(program);
    let mut report = LintReport::default();
    let mut trace = PassTrace::default();
    for (name, pass) in PASSES {
        let start = Instant::now();
        pass(&mut st, &mut report)?;
        trace.runs.push(PassRun { name, duration: start.elapsed() });
        if stop_after == Some(name) {
            break;
        }
    }
    st.module.provenance.attach(&mut report);
    Ok((st.module, trace, report))
}

/// Resolves an AST span against the program's retained source map into
/// the IR's provenance form (file, 1-based line/col, rendered snippet).
fn source_span(program: &Program, span: crate::ast::Span) -> Option<ht_ir::SourceSpan> {
    if span.is_dummy() {
        return None;
    }
    let map = program.sources.as_ref()?;
    let file = map.file(span.file)?;
    Some(ht_ir::SourceSpan {
        file: file.name.clone(),
        line: span.line,
        col: span.col,
        snippet: map.snippet(span).unwrap_or_default(),
    })
}

/// Builds the module's provenance table from the program's declaration
/// spans.  Empty for builder-constructed programs.
fn module_provenance(program: &Program) -> ht_ir::Provenance {
    let mut p = ht_ir::Provenance::default();
    if program.sources.is_some() {
        // The entry file is always id 0 in the resolver's source map.
        let entry = crate::ast::Span { file: 0, line: 1, col: 1, len: 1 };
        p.task = source_span(program, entry);
    }
    for t in &program.triggers {
        if let Some(s) = source_span(program, t.span) {
            p.triggers.push((t.name.clone(), s));
        }
    }
    for q in &program.queries {
        if let Some(s) = source_span(program, q.span) {
            p.queries.push((q.name.clone(), s));
        }
    }
    p
}

/// Pass 1: triggers → template skeletons (constants, control fields,
/// response copies); variable-value sets are deferred.
fn template_extraction(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    for (i, trig) in st.program.triggers.iter().enumerate() {
        let (tpl, pending, explicit_len) = extract_trigger(&st.program, trig, (i + 1) as u16)?;
        st.module.templates.push(tpl);
        st.pending.push(pending);
        st.explicit_lens.push(explicit_len);
    }
    Ok(())
}

/// Pass 2: deferred sets → editor edits (§5.1's four modification types).
fn field_edit_planning(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    for (tpl, pending) in st.module.templates.iter_mut().zip(&st.pending) {
        for edit in pending {
            match edit {
                PendingEdit::Header { field, value } => {
                    plan_header_edit(tpl, *field, value)?;
                }
                PendingEdit::IntervalDist { dist, bits } => {
                    tpl.interval_dist = Some(random_edit(HeaderField::Ident, dist, *bits, true)?);
                }
            }
        }
    }
    Ok(())
}

/// Pass 3: resolve each template's L4 protocol and frame length.
fn frame_layout(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    for (tpl, explicit_len) in st.module.templates.iter_mut().zip(&st.explicit_lens) {
        layout_frame(tpl, *explicit_len)?;
    }
    Ok(())
}

/// Pass 4: derive the replicator timers and check the templates against
/// the recirculation-loop capacity that drives them (§6.1).
fn rate_control_timer_synthesis(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    // Accelerator capacity check (§6.1): only start-time triggers occupy
    // the recirculation loop permanently; query-based triggers borrow
    // capacity transiently.
    let templates = &st.module.templates;
    let resident = templates.iter().filter(|t| t.source_query.is_none()).count();
    let capacity =
        timing::accelerator_capacity(templates.iter().map(|t| t.frame_len).min().unwrap_or(64))
            * st.options.recirc_loops;
    if resident > capacity {
        return Err(NtapiError::AcceleratorOverflow { templates: resident, capacity });
    }
    st.module.plan.accelerator = AcceleratorPlan { resident, capacity };
    st.module.plan.timers = templates
        .iter()
        .map(|t| TimerPlan {
            template_id: t.id,
            interval: t.interval,
            distribution: t.interval_dist.is_some(),
        })
        .collect();
    Ok(())
}

/// Pass 5: queries → compiled queries with the false-positive precompute.
fn query_lowering(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    for q in &st.program.queries {
        let cq = compile_query(&st.program, &st.module.templates, q, &st.options)?;
        st.module.queries.push(cq);
    }
    Ok(())
}

/// Pass 6: count the logical stages and check the budget.
fn resource_annotation(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    // Stage budget: accelerator + replicator, one timer/editor chain per
    // template, and one or four logical stages per query (global counters
    // vs the exact→cuckoo→cuckoo→FIFO chain).
    let needed: usize = 2
        + st.module
            .templates
            .iter()
            .map(|t| 1 + t.edits.len() + usize::from(!t.response_copies.is_empty()))
            .sum::<usize>()
        + st.module
            .queries
            .iter()
            .map(|q| match q.kind {
                QueryKind::PassThrough | QueryKind::ReduceGlobal { .. } => 1,
                QueryKind::ReduceKeyed { .. } | QueryKind::Distinct { .. } => 4,
            })
            .sum::<usize>();
    st.module.plan.logical_stages = needed;
    st.module.plan.stage_budget = st.options.stage_budget;
    if needed > st.options.stage_budget {
        return Err(NtapiError::StageOverflow { needed, available: st.options.stage_budget });
    }
    Ok(())
}

/// Pass 7: task-level static verification; errors deny compilation,
/// warnings go to the report.
fn task_lint(st: &mut Lowering, report: &mut LintReport) -> Result<(), NtapiError> {
    let mut found = crate::lint::lint_task(&st.module.templates);
    st.module.provenance.attach(&mut found);
    if found.has_errors() {
        return Err(NtapiError::Lint(found.errors().cloned().collect()));
    }
    report.merge(found);
    Ok(())
}

/// The proven interval of one edit spec: the hull of every value its
/// editor can write, as a [`ht_ir::ValueFact`].
fn edit_value_fact(e: &EditSpec) -> ht_ir::ValueFact {
    use ht_ir::{AbstractDomain, ValueFact};
    let hull = |values: &[u64]| {
        let mut it = values.iter();
        let mut fact = ValueFact::exact(*it.next().expect("edits are non-empty"));
        for &v in it {
            fact.join(&ValueFact::exact(v));
        }
        fact
    };
    match e {
        EditSpec::ValueList { values, .. } | EditSpec::RandomTable { values, .. } => hull(values),
        EditSpec::Progression { start, end, .. } => {
            ValueFact::range(*start.min(end), *start.max(end))
        }
        EditSpec::RandomUniform { bits, offset, .. } => {
            let span = 1u64.checked_shl(*bits).map_or(u64::MAX, |v| v - 1);
            ValueFact::range(*offset, offset.saturating_add(span))
        }
    }
}

/// Pass 8: abstract interpretation of the edit plan — per-edit proven
/// value intervals (the hull of every value the editor can write, folded
/// through the [`ht_ir::ValueFact`] join) and timer feasibility against
/// the recirculation rate-control quantum.  Runs after `task-lint`
/// so `--dump-ir=task-lint` shows the module exactly as verified, before
/// annotation.  Facts are warnings at most (`timer-rate-infeasible`);
/// they never deny compilation.
fn analysis_annotation(st: &mut Lowering, report: &mut LintReport) -> Result<(), NtapiError> {
    let mut facts = ht_ir::AnalysisFacts::default();
    for t in &st.module.templates {
        for e in &t.edits {
            let fact = edit_value_fact(e);
            facts.field_ranges.push(ht_ir::FieldRangeFact {
                template_id: t.id,
                field: e.field().name(),
                lo: fact.lo,
                hi: fact.hi,
            });
        }
        // Timer feasibility: a constant cadence below the template's
        // recirculation occupancy cannot be sustained — replicas depart
        // at most once per loop pass (§5.1 rate-control precision).
        if let Some(interval) = t.interval {
            let min = ht_asic::timing::recirc_occupancy(t.frame_len);
            let feasible = interval >= min;
            if !feasible {
                report.push(ht_ir::Diagnostic::warning(
                    "timer-rate-infeasible",
                    format!("template {} \"{}\"", t.id, t.trigger_name),
                    format!(
                        "interval {interval}ps is below the {min}ps recirculation \
                         occupancy of a {}-byte frame; the replicator will emit at \
                         the loop rate instead",
                        t.frame_len
                    ),
                    "raise the interval or shrink the frame",
                ));
            }
            facts.timers.push(ht_ir::TimerFact {
                template_id: t.id,
                interval_ps: interval,
                min_interval_ps: min,
                feasible,
            });
        }
    }
    st.module.plan.analysis = facts;
    Ok(())
}

/// Pass 9: IR-level exec lowering — plans the flattened threaded-code
/// program each template's editor chain compiles to when the built switch
/// runs under `ExecMode::Compiled` ([`ht_ir::execplan`]).  Pure
/// annotation: the plan is never rendered into IR dumps, so golden
/// snapshots are unaffected.
fn exec_lowering(st: &mut Lowering, _: &mut LintReport) -> Result<(), NtapiError> {
    st.module.plan.exec = ht_ir::ExecPlan {
        editors: st
            .module
            .templates
            .iter()
            .map(|t| ht_ir::execplan::plan_editor(t.id, &t.edits))
            .collect(),
    };
    Ok(())
}

// ---------------------------------------------------------------------------
// Pass bodies
// ---------------------------------------------------------------------------

fn check_width(field: HeaderField, value: u64) -> Result<(), NtapiError> {
    let width = field.width();
    if width < 64 && value >= (1u64 << width) {
        return Err(NtapiError::ValueOutOfRange { field: field.name().into(), value, width });
    }
    Ok(())
}

type Extracted = (TemplateSpec, Vec<PendingEdit>, Option<usize>);

fn extract_trigger(
    program: &Program,
    trig: &crate::ast::TriggerDef,
    id: u16,
) -> Result<Extracted, NtapiError> {
    if let Some(q) = &trig.source_query {
        if program.query(q).is_none() {
            return Err(NtapiError::UnknownQuery(q.clone()));
        }
    }

    let mut tpl = TemplateSpec {
        id,
        trigger_name: trig.name.clone(),
        frame_len: 64,
        payload: Vec::new(),
        protocol: L4Proto::Udp,
        base: Vec::new(),
        interval: None,
        interval_dist: None,
        ports: vec![0],
        loop_count: 0,
        edits: Vec::new(),
        source_query: trig.source_query.clone(),
        response_copies: Vec::new(),
    };
    let mut pending: Vec<PendingEdit> = Vec::new();
    let mut explicit_len: Option<usize> = None;

    for set in &trig.sets {
        for (field, value) in set.fields.iter().zip(&set.values) {
            match field {
                NtField::Payload => match value {
                    Value::Bytes(b) => tpl.payload = b.clone(),
                    other => {
                        return Err(NtapiError::BadValueType {
                            field: "payload".into(),
                            found: format!("{other:?}"),
                        })
                    }
                },
                NtField::PktLen => match value {
                    Value::Const(v) => explicit_len = Some(*v as usize),
                    other => {
                        // §5.3: the pipeline cannot change packet lengths,
                        // so pkt_len only takes a constant.
                        return Err(NtapiError::BadValueType {
                            field: "pkt_len".into(),
                            found: format!("{other:?}"),
                        });
                    }
                },
                NtField::Interval => match value {
                    Value::Const(v) => tpl.interval = if *v == 0 { None } else { Some(*v) },
                    Value::Random { dist, bits } => {
                        pending.push(PendingEdit::IntervalDist { dist: *dist, bits: *bits });
                    }
                    other => {
                        return Err(NtapiError::BadValueType {
                            field: "interval".into(),
                            found: format!("{other:?}"),
                        })
                    }
                },
                NtField::Port => match value {
                    Value::Const(v) => tpl.ports = vec![*v as u16],
                    Value::List(vs) => tpl.ports = vs.iter().map(|&v| v as u16).collect(),
                    other => {
                        return Err(NtapiError::BadValueType {
                            field: "port".into(),
                            found: format!("{other:?}"),
                        })
                    }
                },
                NtField::Loop => match value {
                    Value::Const(v) => tpl.loop_count = *v,
                    other => {
                        return Err(NtapiError::BadValueType {
                            field: "loop".into(),
                            found: format!("{other:?}"),
                        })
                    }
                },
                NtField::Header(h) => {
                    extract_header_set(program, trig, &mut tpl, &mut pending, *h, value)?;
                }
            }
        }
    }
    Ok((tpl, pending, explicit_len))
}

fn extract_header_set(
    program: &Program,
    trig: &crate::ast::TriggerDef,
    tpl: &mut TemplateSpec,
    pending: &mut Vec<PendingEdit>,
    field: HeaderField,
    value: &Value,
) -> Result<(), NtapiError> {
    match value {
        Value::Const(v) => {
            check_width(field, *v)?;
            tpl.base.retain(|(f, _)| *f != field);
            tpl.base.push((field, *v));
        }
        Value::List(_) | Value::Range { .. } | Value::Random { .. } => {
            pending.push(PendingEdit::Header { field, value: value.clone() });
        }
        Value::QueryField { query, field: src, offset } => {
            let q = trig.source_query.as_deref();
            if q != Some(query.as_str()) || program.query(query).is_none() {
                return Err(NtapiError::UnknownQuery(query.clone()));
            }
            tpl.response_copies.push(ResponseCopy { dst: field, src: *src, offset: *offset });
        }
        Value::Bytes(_) => {
            return Err(NtapiError::BadValueType {
                field: field.name().into(),
                found: "byte string".into(),
            })
        }
        // The resolver expands CIDR blocks and substitutes parameters
        // before lowering; reaching here means a hand-built program kept
        // a surface-only value.
        Value::Cidr { .. } => {
            return Err(NtapiError::BadValueType {
                field: field.name().into(),
                found: "unresolved CIDR block".into(),
            })
        }
        Value::Param { name, .. } => {
            return Err(NtapiError::BadValueType {
                field: field.name().into(),
                found: format!("unbound parameter `{name}`"),
            })
        }
    }
    Ok(())
}

fn plan_header_edit(
    tpl: &mut TemplateSpec,
    field: HeaderField,
    value: &Value,
) -> Result<(), NtapiError> {
    match value {
        Value::List(vs) => {
            for &v in vs {
                check_width(field, v)?;
            }
            if vs.is_empty() {
                return Err(NtapiError::BadRange { field: field.name().into() });
            }
            tpl.edits.push(EditSpec::ValueList { field, values: vs.clone() });
        }
        Value::Range { start, end, step } => {
            if *step == 0 || end < start {
                return Err(NtapiError::BadRange { field: field.name().into() });
            }
            check_width(field, *end)?;
            tpl.edits.push(EditSpec::Progression { field, start: *start, end: *end, step: *step });
        }
        Value::Random { dist, bits } => {
            tpl.edits.push(random_edit(field, dist, *bits, false)?);
        }
        // Template extraction only defers list/range/random values.
        _ => unreachable!("non-edit value deferred to field-edit planning"),
    }
    Ok(())
}

fn layout_frame(tpl: &mut TemplateSpec, explicit_len: Option<usize>) -> Result<(), NtapiError> {
    // Resolve the protocol from the base proto value; when the trigger
    // never sets `proto` (the paper's Table 4 omits it on response
    // triggers), infer TCP from any TCP-specific field reference.
    let uses_tcp_fields = |f: HeaderField| {
        matches!(
            f,
            HeaderField::TcpFlags | HeaderField::SeqNo | HeaderField::AckNo | HeaderField::Window
        )
    };
    let touches_tcp = tpl.base.iter().any(|&(f, _)| uses_tcp_fields(f))
        || tpl.edits.iter().any(|e| uses_tcp_fields(e.field()))
        || tpl.response_copies.iter().any(|rc| uses_tcp_fields(rc.dst) || uses_tcp_fields(rc.src));
    tpl.protocol = match tpl.base.iter().find(|(f, _)| *f == HeaderField::Proto) {
        Some((_, 6)) => L4Proto::Tcp,
        Some((_, 17)) => L4Proto::Udp,
        None if touches_tcp => L4Proto::Tcp,
        None => L4Proto::Udp,
        Some((_, _)) => L4Proto::None,
    };

    // Frame length: explicit or natural, floored at 64.
    let l4 = match tpl.protocol {
        L4Proto::Tcp => 20,
        L4Proto::Udp => 8,
        L4Proto::None => 0,
    };
    let needed = (14 + 20 + l4 + tpl.payload.len() + 4).max(64);
    match explicit_len {
        Some(len) if len < needed => {
            return Err(NtapiError::FrameTooShort { requested: len, needed })
        }
        Some(len) => tpl.frame_len = len,
        None => tpl.frame_len = needed,
    }
    Ok(())
}

/// Lowers a `random(…)` value to an edit.  Uniform draws use the hardware
/// primitive with the paper's power-of-two scope limitation; other shapes
/// build the two-table inverse transform.
fn random_edit(
    field: HeaderField,
    dist: &DistSpec,
    bits: u32,
    for_interval: bool,
) -> Result<EditSpec, NtapiError> {
    match dist {
        // The table exponent only matters for tabulated distributions; a
        // uniform draw uses the RNG primitive directly and derives its own
        // power-of-two span.
        DistSpec::Normal { .. } | DistSpec::Exponential { .. } if !(1..=20).contains(&bits) => {
            Err(NtapiError::BadRandomBits(bits))
        }
        DistSpec::Uniform { lo, hi } => {
            if hi <= lo {
                return Err(NtapiError::BadRange { field: field.name().into() });
            }
            // §6.1: "HyperTester limits the scope of generated values to the
            // power of two and further increments the generated value with a
            // specific offset."
            let span = hi - lo;
            let pow_bits = 63 - span.next_power_of_two().leading_zeros();
            if !for_interval {
                check_width(field, hi - 1)?;
            }
            Ok(EditSpec::RandomUniform { field, bits: pow_bits.max(1), offset: *lo })
        }
        DistSpec::Normal { mean, std_dev } => {
            let d = ht_stats::Distribution::Normal { mean: *mean, std_dev: *std_dev };
            Ok(EditSpec::RandomTable { field, values: quantile_table(&d, bits), bits })
        }
        DistSpec::Exponential { mean } => {
            let d = ht_stats::Distribution::Exponential { rate: 1.0 / mean };
            Ok(EditSpec::RandomTable { field, values: quantile_table(&d, bits), bits })
        }
    }
}

fn quantile_table(d: &ht_stats::Distribution, bits: u32) -> Vec<u64> {
    ht_stats::CdfTable::from_distribution(d, bits)
        .values()
        .iter()
        .map(|&v| v.max(0.0).round() as u64)
        .collect()
}

fn compile_query(
    program: &Program,
    templates: &[TemplateSpec],
    q: &crate::ast::QueryDef,
    options: &CompileOptions,
) -> Result<CompiledQuery, NtapiError> {
    if let QuerySource::Trigger(t) = &q.source {
        if program.trigger(t).is_none() {
            return Err(NtapiError::UnknownTrigger(t.clone()));
        }
    }

    let mut out = CompiledQuery {
        name: q.name.clone(),
        source: q.source.clone(),
        filters: Vec::new(),
        map: Vec::new(),
        kind: QueryKind::PassThrough,
        result_filter: None,
        capture_for: program
            .triggers
            .iter()
            .filter(|t| t.source_query.as_deref() == Some(q.name.as_str()))
            .map(|t| t.name.clone())
            .collect(),
        fp: None,
    };

    for op in &q.ops {
        match op {
            QueryOp::Filter(p) => {
                check_width(p.field, p.value)?;
                out.filters.push(*p);
            }
            QueryOp::Map(fields) => out.map = fields.clone(),
            QueryOp::Reduce { keys, func } => {
                out.kind = if keys.is_empty() {
                    QueryKind::ReduceGlobal { func: *func }
                } else {
                    QueryKind::ReduceKeyed { keys: keys.clone(), func: *func }
                };
            }
            QueryOp::Distinct { keys } => {
                out.kind = QueryKind::Distinct { keys: keys.clone() };
            }
            QueryOp::FilterResult { cmp, value } => out.result_filter = Some((*cmp, *value)),
            // Resolver output never contains parameterized filters.
            QueryOp::FilterParam { param, .. } => {
                return Err(NtapiError::BadValueType {
                    field: "filter".into(),
                    found: format!("unbound parameter `{param}`"),
                })
            }
        }
    }

    // Keyed queries get the false-positive precompute.
    let keys = match &out.kind {
        QueryKind::ReduceKeyed { keys, .. } | QueryKind::Distinct { keys } => Some(keys.clone()),
        _ => None,
    };
    if let Some(keys) = keys {
        let relevant: Vec<TemplateSpec> = match &out.source {
            QuerySource::Trigger(t) => {
                templates.iter().filter(|tpl| &tpl.trigger_name == t).cloned().collect()
            }
            QuerySource::Received(_) => templates.to_vec(),
        };
        // `sport`/`dport` resolve to one protocol's PHV field per task
        // (`proto_hint`); with mixed TCP/UDP triggers the other
        // protocol's packets would hash key 0 — flows the fuzz oracle's
        // invariant D rightly calls rogue.  Reject statically.
        if let Some(port_key) =
            keys.iter().find(|k| matches!(k, HeaderField::Sport | HeaderField::Dport))
        {
            let udp = relevant.iter().any(|t| t.protocol == L4Proto::Udp);
            let non_udp = relevant.iter().any(|t| t.protocol != L4Proto::Udp);
            if udp && non_udp {
                return Err(NtapiError::AmbiguousPortKey {
                    query: q.name.clone(),
                    field: port_key.name().into(),
                });
            }
        }
        let mirror = matches!(out.source, QuerySource::Received(_));
        let space = global_space(&relevant, &keys, mirror)?;
        // The precompute works over the flat space and returns indices;
        // only the (few) diverted keys are cloned into the IR.
        let entries: Vec<Vec<u64>> = compute_fp_indices(&space, &options.hash)
            .into_iter()
            .map(|i| space.key(i).to_vec())
            .collect();
        out.fp = Some(FpConfig { hash: options.hash, entries, space_size: space.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{DistSpec, HeaderField, ReduceFunc};
    use crate::testutil::{must_compile, must_parse};

    fn throughput_src() -> &'static str {
        r#"
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 1, 1])
    .set([loop, pkt_len], [0, 64])
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
"#
    }

    #[test]
    fn compiles_throughput_task() {
        let task = must_compile(throughput_src());
        assert_eq!(task.templates.len(), 1);
        let t = &task.templates[0];
        assert_eq!(t.frame_len, 64);
        assert_eq!(t.protocol, L4Proto::Udp);
        assert_eq!(t.interval, None, "no interval → line rate");
        assert!(t.edits.is_empty());
        assert_eq!(task.queries.len(), 2);
        assert!(matches!(task.queries[0].kind, QueryKind::ReduceGlobal { func: ReduceFunc::Sum }));
    }

    #[test]
    fn lowering_fills_the_pipeline_plan() {
        let task = must_compile(throughput_src());
        // 2 fixed + 1 template chain + 2 global-counter queries.
        assert_eq!(task.plan.logical_stages, 5);
        assert_eq!(task.plan.stage_budget, 24);
        assert_eq!(task.plan.accelerator.resident, 1);
        assert_eq!(task.plan.accelerator.capacity, 89);
        assert_eq!(task.plan.timers.len(), 1);
        assert_eq!(task.plan.timers[0].interval, None, "line rate");
    }

    /// The names of the passes a trace ran, in order.
    fn ran(trace: &PassTrace) -> Vec<&'static str> {
        trace.runs.iter().map(|r| r.name).collect()
    }

    #[test]
    fn dump_after_named_pass_shows_partial_lowering() {
        let names = pass_names();
        assert_eq!(
            names,
            [
                "template-extraction",
                "field-edit-planning",
                "frame-layout",
                "rate-control-timer-synthesis",
                "query-lowering",
                "resource-annotation",
                "task-lint",
                "analysis-annotation",
                "exec-lowering",
            ],
            "the lowering passes and their order"
        );
        let prog = must_parse("T1 = trigger().set(sport, range(1, 5, 1)).set(interval, 1000ns)");
        for (i, &name) in names.iter().enumerate() {
            let (_, trace, _) = lower_with(&prog, CompileOptions::default(), Some(name)).unwrap();
            assert_eq!(ran(&trace), names[..=i], "stop after {name}");
        }
        let (early, _, _) =
            lower_with(&prog, CompileOptions::default(), Some("template-extraction")).unwrap();
        assert!(early.templates[0].edits.is_empty(), "edits not planned yet");
        assert!(early.plan.timers.is_empty(), "timers not synthesized yet");
        let (full, trace, _) = lower_with(&prog, CompileOptions::default(), None).unwrap();
        assert_eq!(ran(&trace), names);
        assert_eq!(full.templates[0].edits.len(), 1);
        assert_eq!(full.plan.timers[0].interval, Some(1_000_000));
        let (_, trace, _) = lower_with(&prog, CompileOptions::default(), Some("bogus")).unwrap();
        assert_eq!(ran(&trace), names, "an unknown stop name runs every pass");
    }

    #[test]
    fn mid_pipeline_error_stops_the_lowering() {
        // 95 start-time templates overflow the 89-slot accelerator in
        // `rate-control-timer-synthesis`.  The dangling query would fail
        // `query-lowering` and the 95 template chains the 24-stage budget
        // of `resource-annotation`, so any later pass that ran would
        // report its own error instead.
        let mut prog = Program::default();
        for i in 0..95 {
            prog.triggers.push(crate::ast::TriggerDef {
                name: format!("T{i}"),
                source_query: None,
                sets: vec![],
                span: crate::ast::Span::DUMMY,
            });
        }
        prog.queries = must_parse("Q1 = query(T999).reduce(func=sum)").queries;
        let accel = NtapiError::AcceleratorOverflow { templates: 95, capacity: 89 };
        for stop in [None, Some("rate-control-timer-synthesis"), Some("exec-lowering")] {
            assert_eq!(lower_with(&prog, CompileOptions::default(), stop), Err(accel.clone()));
        }
        let (module, trace, _) =
            lower_with(&prog, CompileOptions::default(), Some("frame-layout")).unwrap();
        assert_eq!(ran(&trace), pass_names()[..3]);
        assert_eq!(module.templates.len(), 95);
        // With room for every template, the next failing pass reports.
        let roomy = CompileOptions { recirc_loops: 2, ..Default::default() };
        assert_eq!(
            lower_with(&prog, roomy, None).unwrap_err(),
            NtapiError::UnknownTrigger("T999".into())
        );
    }

    #[test]
    fn rejects_out_of_range_port() {
        // §6.1: "users might specify the TCP port with a value that is
        // larger than 65536".
        let prog = must_parse("T1 = trigger().set(dport, 70000)");
        match compile(&prog) {
            Err(NtapiError::ValueOutOfRange { field, value, width }) => {
                assert_eq!(field, "dport");
                assert_eq!(value, 70000);
                assert_eq!(width, 16);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_step_range_and_dangling_refs() {
        let prog = must_parse("T1 = trigger().set(sport, range(1, 10, 0))");
        assert!(matches!(compile(&prog), Err(NtapiError::BadRange { .. })));

        let prog = must_parse("T1 = trigger(Q9).set(dport, 80)");
        assert!(matches!(compile(&prog), Err(NtapiError::UnknownQuery(_))));

        let prog = must_parse("Q1 = query(T9).reduce(func=sum)");
        assert!(matches!(compile(&prog), Err(NtapiError::UnknownTrigger(_))));
    }

    #[test]
    fn rejects_hash_widths_outside_1_to_32() {
        // A 64-bit width would overflow `1 << bits` (panic in debug, an
        // all-zero mask and one giant digest group in release).
        let prog = must_parse("T1 = trigger().set(dport, 80)");
        for (array_bits, digest_bits, field, bits) in [
            (16, 64, "digest_bits", 64),
            (16, 33, "digest_bits", 33),
            (16, 0, "digest_bits", 0),
            (64, 16, "array_bits", 64),
            (0, 16, "array_bits", 0),
        ] {
            let hash = HashConfig { array_bits, digest_bits };
            let got = compile_with(&prog, CompileOptions { hash, ..Default::default() });
            assert_eq!(got.err(), Some(NtapiError::BadHashBits { field, bits }));
        }
        let hash = HashConfig { array_bits: 32, digest_bits: 32 };
        assert!(compile_with(&prog, CompileOptions { hash, ..Default::default() }).is_ok());
    }

    #[test]
    fn rejects_variable_pkt_len() {
        // §5.3: the pipeline cannot change packet lengths.
        let prog = must_parse("T1 = trigger().set(pkt_len, range(64, 1500, 1))");
        assert!(matches!(compile(&prog), Err(NtapiError::BadValueType { .. })));
    }

    #[test]
    fn rejects_frame_too_short_for_payload() {
        let prog = must_parse(
            r#"T1 = trigger().set(payload, "0123456789012345678901234567890123456789").set(pkt_len, 64)"#,
        );
        match compile(&prog) {
            Err(NtapiError::FrameTooShort { requested: 64, needed }) => assert!(needed > 64),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_accelerator_overflow_and_loopback_extends() {
        let mut prog = Program::default();
        for i in 0..95 {
            prog.triggers.push(crate::ast::TriggerDef {
                name: format!("T{i}"),
                source_query: None,
                sets: vec![],
                span: crate::ast::Span::DUMMY,
            });
        }
        // 95 64-byte templates > capacity 89.
        assert!(matches!(
            compile(&prog),
            Err(NtapiError::AcceleratorOverflow { capacity: 89, .. })
        ));
        // With one loopback port the capacity doubles.
        let opts = CompileOptions { recirc_loops: 2, stage_budget: 400, ..Default::default() };
        assert!(compile_with(&prog, opts).is_ok());
    }

    #[test]
    fn uniform_random_is_power_of_two_limited() {
        let mut prog = Program::default();
        prog.triggers.push(
            crate::builder::trigger("T1")
                .random(HeaderField::Dport, DistSpec::Uniform { lo: 1000, hi: 1600 }, 12)
                .build(),
        );
        let task = compile(&prog).unwrap();
        match &task.templates[0].edits[0] {
            EditSpec::RandomUniform { bits, offset, .. } => {
                // span 600 → next power of two 1024 → 10 bits, offset 1000.
                assert_eq!(*bits, 10);
                assert_eq!(*offset, 1000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn normal_random_builds_monotone_inverse_table() {
        let task = must_compile("T1 = trigger().set(dport, random(normal, 5000, 100, 10))");
        match &task.templates[0].edits[0] {
            EditSpec::RandomTable { values, bits, .. } => {
                assert_eq!(*bits, 10);
                assert_eq!(values.len(), 1024);
                assert!(values.windows(2).all(|w| w[0] <= w[1]));
                let mid = values[512];
                assert!((4990..=5010).contains(&mid), "median {mid}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stateless_connection_compiles_to_response_copies() {
        let src = r#"
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip]).set(ack_no, Q1.seq_no + 1).set(flag, ACK)
"#;
        let task = must_compile(src);
        let t2 = &task.templates[0];
        assert_eq!(t2.source_query.as_deref(), Some("Q1"));
        assert_eq!(t2.response_copies.len(), 3);
        assert_eq!(
            t2.response_copies[2],
            ResponseCopy { dst: HeaderField::AckNo, src: HeaderField::SeqNo, offset: 1 }
        );
        assert_eq!(task.queries[0].capture_for, vec!["T2".to_string()]);
    }

    #[test]
    fn keyed_query_gets_fp_precompute() {
        let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(sport, range(1, 5000, 1))
Q1 = query().reduce(keys=[sport], func=sum)
"#;
        let task = must_compile(src);
        let fp = task.queries[0].fp.as_ref().unwrap();
        // 5000 sent values + mirror orientation (dport side all zero → one
        // extra tuple).
        assert!(fp.space_size >= 5000, "space {}", fp.space_size);
        // With 2^16 buckets and 16-bit digests, 5k keys collide ~never.
        assert!(fp.entries.len() < 5, "entries {}", fp.entries.len());
    }

    #[test]
    fn global_reduce_needs_no_fp() {
        let task = must_compile("Q1 = query().reduce(func=sum)");
        assert!(task.queries[0].fp.is_none());
    }
}
