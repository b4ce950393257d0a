//! The compiled pipeline executor: threaded-code programs for a switch.
//!
//! [`Pipeline::execute`] interprets the pipeline one stage at a time,
//! cloning each matched [`crate::action::ActionSet`] out of its table and
//! re-resolving every field width through the [`FieldTable`] per op.  For
//! the event-bound experiments that interpretation loop is the floor on
//! events/sec, so [`compile`] lowers a fully-programmed pipeline into a
//! flat threaded-code program once at build time:
//!
//! * one linear step list — per-stage table/extern iteration disappears;
//! * match → action fusion — every table entry's action is lowered to a
//!   dense op array (`COp`) with the field mask baked into each op, so
//!   execution never touches the [`FieldTable`] and never clones;
//! * branchless gateway evaluation — gateway predicates are pure (they
//!   only read the PHV), so all predicates of a table are evaluated with
//!   a non-short-circuit AND fold; the common gateway-free table skips
//!   the check entirely;
//! * constant folding — adjacent constant edits of the same destination
//!   collapse into a single pre-masked store, and runs of constant
//!   stores fuse into one `COp::SetBatch` (the compiled analogue of
//!   [`Phv::set_batch`]).
//!
//! Semantics are *bit-identical* to the interpreter: lookup order, hit and
//! miss counters (mirrored back into the live [`crate::table::Table`]s),
//! RNG draw order,
//! digest order and SALU effects are all preserved, which the fuzz
//! oracle's invariant E and the `exec_differential` suite enforce.
//!
//! A compiled program is a snapshot: it must be (re)built after the last
//! table entry is installed ([`crate::Switch::set_exec_mode`] does this at
//! the end of `ht-core`'s build), and entries must not change afterwards.

use crate::action::{ExecCtx, IndexSource, PrimitiveOp};
use crate::digest::{DigestId, DigestRecord};
use crate::hash::{crc32_words_x4, hash_words, HashAlgo};
use crate::phv::{mask_for, FieldId, FieldTable, Phv};
use crate::pipeline::Pipeline;
use crate::register::{RegId, RegisterFile, SaluAccess, SaluOperand, SaluProgram};
use crate::table::{Gateway, MatchKey, MatchKind};

/// Which executor a switch uses.  A plain value: each switch holds its
/// own ([`crate::Switch::set_exec_mode`]; `ht-core`'s `TesterConfig::exec`
/// for a tester build), so switches under different executors can run
/// side by side in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The original per-stage interpreter — kept as the differential
    /// oracle (`--exec interp`).
    Interp,
    /// The flattened threaded-code program built by [`compile`].
    #[default]
    Compiled,
    /// The compiled program run op-at-a-time over a batch of PHV lanes
    /// ([`run_vector`]); single events and programs a [`vector_plan`]
    /// rejects fall back to the per-packet compiled executor.
    Vector,
}

impl ExecMode {
    /// Parses the `--exec` CLI value.
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "interp" => Some(ExecMode::Interp),
            "compiled" => Some(ExecMode::Compiled),
            "vector" => Some(ExecMode::Vector),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Compiled => "compiled",
            ExecMode::Vector => "vector",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pre-resolved register/hash index of a compiled SALU op.
#[derive(Debug, Clone)]
enum CIndex {
    Const(u64),
    Field(FieldId),
    Hash { algo: HashAlgo, fields: Box<[FieldId]>, mask: u64 },
}

/// One decoded op of a compiled action.  Every destination write is
/// pre-masked at compile time, so execution stores raw `u64`s.
#[derive(Debug, Clone)]
enum COp {
    /// `dst = value` (value already masked to the field width).
    Set { dst: FieldId, value: u64 },
    /// A fused run of constant stores (all values pre-masked).
    SetBatch(Box<[(FieldId, u64)]>),
    /// `dst = src & mask`.
    Copy { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = (dst + value) & mask`.
    Add { dst: FieldId, value: u64, mask: u64 },
    /// `dst = (dst + src) & mask`.
    AddF { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = (dst − src) & mask`.
    SubF { dst: FieldId, src: FieldId, mask: u64 },
    /// `dst = dst & value` (an in-range value stays in range).
    And { dst: FieldId, value: u64 },
    /// `dst = dst | value` (value pre-masked).
    Or { dst: FieldId, value: u64 },
    /// `dst = dst >> bits` (`bits < 64`; larger shifts compile to `Set 0`).
    Shr { dst: FieldId, bits: u32 },
    /// `dst = hash(fields) & mask` (mask combines `mask_bits` and width).
    Hash { dst: FieldId, algo: HashAlgo, fields: Box<[FieldId]>, mask: u64 },
    /// `dst = (uniform[0, 2^bits) + offset) & mask`.
    Rng { dst: FieldId, bits: u32, offset: u64, mask: u64 },
    /// One SALU read-modify-write.
    Salu { reg: RegId, index: CIndex, program: SaluProgram },
    /// Emit a digest record.
    Digest { id: DigestId, fields: Box<[FieldId]> },
}

/// Ternary or linear-range entries: one `(value, mask)` / `(lo, hi)` pair
/// per key field, plus the action index.
type PairEntries = Box<[(Box<[(u64, u64)]>, u32)]>;

/// Exact-match lookup map keyed by the concatenated key-field values,
/// hashed with the hot-path [`crate::fxhash`] scheme (SipHash's setup
/// cost is measurable here and DoS resistance buys nothing — table keys
/// come from the task spec, not the wire).
type ExactMap = crate::fxhash::FxHashMap<Vec<u64>, u32>;

/// Match structure of a compiled table, mirroring [`crate::table::Table`]
/// lookup semantics exactly.  Values are indices into the owning
/// [`CTable::actions`].
#[derive(Debug, Clone)]
enum CMatcher {
    Exact(ExactMap),
    /// Single-field exact tables whose keys span a small dense range
    /// (e.g. template ids 0..n): direct indexing replaces hashing.
    /// `NO_ACTION` marks holes in the span.
    ExactDense {
        base: u64,
        slots: Box<[u32]>,
    },
    /// Entries in stored (priority-descending) order; first match wins.
    Ternary(PairEntries),
    /// Sorted non-overlapping single-key ranges: binary search on `lo`.
    RangeSorted(Box<[(u64, u64, u32)]>),
    /// General ranges in stored (priority-descending) order.
    RangeLinear(PairEntries),
    /// Direct-indexed slots; [`CTable::NO_ACTION`] marks an empty slot.
    Index {
        slots: Box<[u32]>,
    },
}

/// One compiled match→action step.
#[derive(Debug, Clone)]
struct CTable {
    /// `(stage, table)` of the live table, for hit/miss mirroring.
    loc: (u32, u32),
    gateways: Box<[Gateway]>,
    key_fields: Box<[FieldId]>,
    matcher: CMatcher,
    /// Index of the compiled default action in [`Self::actions`].
    default_action: u32,
    actions: Box<[Box<[COp]>]>,
    /// Retired-op weight per action, parallel to [`Self::actions`].
    weights: Box<[u32]>,
}

impl CTable {
    const NO_ACTION: u32 = u32::MAX;
}

/// One step of the flattened program.
#[derive(Debug, Clone)]
enum CStep {
    Table(CTable),
    /// Externs stay behind their trait object — they are rare on the hot
    /// experiments and carry internal state the snapshot cannot own.
    Extern {
        stage: u32,
        idx: u32,
    },
}

/// Lowering statistics, for `--profile` reports and the IR exec plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Compiled match→action steps.
    pub table_steps: usize,
    /// Extern dispatch steps.
    pub extern_steps: usize,
    /// Total compiled ops across all actions (after folding).
    pub ops: usize,
    /// Ops eliminated by constant folding and `NoOp` elision.
    pub folded_ops: usize,
    /// Constant stores fused into `SetBatch` runs.
    pub fused_sets: usize,
    /// Tables that compiled without any gateway check.
    pub gateway_free: usize,
}

/// A flattened threaded-code program for one pipeline.
#[derive(Debug, Clone, Default)]
pub struct CompiledPipeline {
    steps: Vec<CStep>,
    stats: CompileStats,
}

impl CompiledPipeline {
    /// Lowering statistics of this program.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Number of steps in the flattened program.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Lowers one primitive op; `None` elides `NoOp`.
fn lower_op(op: &PrimitiveOp, ft: &FieldTable) -> Option<COp> {
    Some(match op {
        PrimitiveOp::SetConst { dst, value } => {
            COp::Set { dst: *dst, value: value & ft.mask(*dst) }
        }
        PrimitiveOp::CopyField { dst, src } => {
            COp::Copy { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::AddConst { dst, value } => {
            // (old + v) mod 2^64 ≡ (old + (v mod 2^w)) (mod 2^w): the
            // addend can be pre-masked because 2^w divides 2^64.
            let mask = ft.mask(*dst);
            COp::Add { dst: *dst, value: value & mask, mask }
        }
        PrimitiveOp::AddField { dst, src } => {
            COp::AddF { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::SubField { dst, src } => {
            COp::SubF { dst: *dst, src: *src, mask: ft.mask(*dst) }
        }
        PrimitiveOp::AndConst { dst, value } => COp::And { dst: *dst, value: *value },
        PrimitiveOp::OrConst { dst, value } => COp::Or { dst: *dst, value: value & ft.mask(*dst) },
        PrimitiveOp::ShiftRight { dst, bits } if *bits >= 64 => COp::Set { dst: *dst, value: 0 },
        PrimitiveOp::ShiftRight { dst, bits } => COp::Shr { dst: *dst, bits: *bits },
        PrimitiveOp::Hash { dst, algo, fields, mask_bits } => COp::Hash {
            dst: *dst,
            algo: *algo,
            fields: fields.clone().into_boxed_slice(),
            mask: mask_for(*mask_bits) & ft.mask(*dst),
        },
        PrimitiveOp::RngUniform { dst, bits, offset } => {
            COp::Rng { dst: *dst, bits: *bits, offset: *offset, mask: ft.mask(*dst) }
        }
        PrimitiveOp::Salu { reg, index, program } => COp::Salu {
            reg: *reg,
            index: match index {
                IndexSource::Const(c) => CIndex::Const(*c),
                IndexSource::Field(f) => CIndex::Field(*f),
                IndexSource::Hash { algo, fields, mask_bits } => CIndex::Hash {
                    algo: *algo,
                    fields: fields.clone().into_boxed_slice(),
                    mask: mask_for(*mask_bits),
                },
            },
            program: *program,
        },
        PrimitiveOp::SetEgressPort(p) => {
            COp::Set { dst: crate::phv::fields::EG_PORT, value: u64::from(*p) }
        }
        PrimitiveOp::SetMcastGroup(g) => {
            COp::Set { dst: crate::phv::fields::MCAST_GRP, value: u64::from(*g) }
        }
        PrimitiveOp::Recirculate => COp::Set { dst: crate::phv::fields::RECIRC_FLAG, value: 1 },
        PrimitiveOp::Drop => COp::Set { dst: crate::phv::fields::DROP_FLAG, value: 1 },
        PrimitiveOp::Digest { id, fields } => {
            COp::Digest { id: *id, fields: fields.clone().into_boxed_slice() }
        }
        PrimitiveOp::NoOp => return None,
    })
}

/// Folds adjacent constant edits of the same destination into one
/// pre-masked store.  Sound because the pair is adjacent: no op between
/// them can observe the intermediate value.
fn fold_consts(ops: &mut Vec<COp>, folded: &mut usize) {
    let mut i = 0;
    while i + 1 < ops.len() {
        let new_value = match (&ops[i], &ops[i + 1]) {
            (COp::Set { dst, value }, COp::Set { dst: d2, value: v2 }) if dst == d2 => Some(*v2),
            (COp::Set { dst, value }, COp::Add { dst: d2, value: v2, mask }) if dst == d2 => {
                Some(value.wrapping_add(*v2) & mask)
            }
            (COp::Set { dst, value }, COp::And { dst: d2, value: v2 }) if dst == d2 => {
                Some(value & v2)
            }
            (COp::Set { dst, value }, COp::Or { dst: d2, value: v2 }) if dst == d2 => {
                Some(value | v2)
            }
            (COp::Set { dst, value }, COp::Shr { dst: d2, bits }) if dst == d2 => {
                Some(value >> bits)
            }
            _ => None,
        };
        if let Some(value) = new_value {
            let dst = match &ops[i] {
                COp::Set { dst, .. } => *dst,
                _ => unreachable!(),
            };
            ops[i] = COp::Set { dst, value };
            ops.remove(i + 1);
            *folded += 1;
            // Re-examine from the previous op: the collapsed store may
            // continue an earlier chain.
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
}

/// Fuses runs of two or more consecutive `Set`s (any destinations) into a
/// single `SetBatch` — one decode for the whole run.
fn fuse_sets(ops: Vec<COp>, fused: &mut usize) -> Vec<COp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut run: Vec<(FieldId, u64)> = Vec::new();
    for op in ops {
        match op {
            COp::Set { dst, value } => run.push((dst, value)),
            other => {
                flush_run(&mut out, &mut run, fused);
                out.push(other);
            }
        }
    }
    flush_run(&mut out, &mut run, fused);
    out
}

fn flush_run(out: &mut Vec<COp>, run: &mut Vec<(FieldId, u64)>, fused: &mut usize) {
    match run.len() {
        0 => {}
        1 => out.push(COp::Set { dst: run[0].0, value: run[0].1 }),
        _ => {
            *fused += run.len();
            out.push(COp::SetBatch(std::mem::take(run).into_boxed_slice()));
        }
    }
    run.clear();
}

fn compile_action(
    action: &crate::action::ActionSet,
    ft: &FieldTable,
    stats: &mut CompileStats,
) -> Box<[COp]> {
    let raw_len = action.ops.len();
    let mut ops: Vec<COp> = action.ops.iter().filter_map(|op| lower_op(op, ft)).collect();
    let mut folded = raw_len - ops.len(); // elided NoOps
    fold_consts(&mut ops, &mut folded);
    let ops = fuse_sets(ops, &mut stats.fused_sets);
    stats.folded_ops += folded;
    stats.ops += ops.iter().map(op_weight).sum::<usize>();
    ops.into_boxed_slice()
}

/// Retired-op weight of a compiled op (a fused batch counts its stores).
fn op_weight(op: &COp) -> usize {
    match op {
        COp::SetBatch(edits) => edits.len(),
        _ => 1,
    }
}

/// Widest key span a single-field exact table may cover and still compile
/// to a direct-indexed dense array instead of a hash map.
const DENSE_SPAN: u64 = 4096;

/// Picks the exact-match representation: single-field tables whose keys
/// fall in a dense range become direct-indexed slot arrays; everything
/// else hashes.  Duplicate keys keep last-insert-wins semantics in both
/// forms, mirroring the live table.
fn compile_exact(entries: Vec<(Vec<u64>, u32)>) -> CMatcher {
    let single = !entries.is_empty() && entries.iter().all(|(k, _)| k.len() == 1);
    if single {
        let min = entries.iter().map(|(k, _)| k[0]).min().unwrap_or(0);
        let max = entries.iter().map(|(k, _)| k[0]).max().unwrap_or(0);
        if max - min < DENSE_SPAN {
            let mut slots = vec![CTable::NO_ACTION; (max - min) as usize + 1];
            for (k, a) in &entries {
                slots[(k[0] - min) as usize] = *a;
            }
            return CMatcher::ExactDense { base: min, slots: slots.into_boxed_slice() };
        }
    }
    CMatcher::Exact(entries.into_iter().collect())
}

fn compile_table(
    table: &crate::table::Table,
    ft: &FieldTable,
    loc: (u32, u32),
    stats: &mut CompileStats,
) -> CTable {
    let mut actions: Vec<Box<[COp]>> = vec![compile_action(table.default_action(), ft, stats)];
    let mut push_action = |a: &crate::action::ActionSet, stats: &mut CompileStats| -> u32 {
        actions.push(compile_action(a, ft, stats));
        (actions.len() - 1) as u32
    };

    let matcher = match table.kind() {
        MatchKind::Exact => {
            let mut entries = Vec::with_capacity(table.entry_count());
            for (key, _, action) in table.entries() {
                let MatchKey::Exact(k) = key else { unreachable!("exact table entry") };
                let idx = push_action(action, stats);
                entries.push((k, idx));
            }
            compile_exact(entries)
        }
        MatchKind::Ternary => CMatcher::Ternary(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Ternary(k) = key else { unreachable!("ternary table entry") };
                    (k.into_boxed_slice(), push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Range if table.range_fast_path() => CMatcher::RangeSorted(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Range(k) = key else { unreachable!("range table entry") };
                    (k[0].0, k[0].1, push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Range => CMatcher::RangeLinear(
            table
                .entries()
                .into_iter()
                .map(|(key, _, action)| {
                    let MatchKey::Range(k) = key else { unreachable!("range table entry") };
                    (k.into_boxed_slice(), push_action(action, stats))
                })
                .collect(),
        ),
        MatchKind::Index => {
            let mut slots = vec![CTable::NO_ACTION; table.capacity()];
            for (key, _, action) in table.entries() {
                let MatchKey::Index(i) = key else { unreachable!("index table entry") };
                slots[i as usize] = push_action(action, stats);
            }
            CMatcher::Index { slots: slots.into_boxed_slice() }
        }
    };

    if table.gateways().is_empty() {
        stats.gateway_free += 1;
    }
    stats.table_steps += 1;
    let weights = actions.iter().map(|a| a.iter().map(op_weight).sum::<usize>() as u32).collect();
    CTable {
        loc,
        gateways: table.gateways().to_vec().into_boxed_slice(),
        key_fields: table.key_fields().to_vec().into_boxed_slice(),
        matcher,
        default_action: 0,
        actions: actions.into_boxed_slice(),
        weights,
    }
}

/// Lowers a fully-programmed pipeline into a flat threaded-code program.
///
/// The snapshot captures gateways, keys, entries and actions; the live
/// [`Pipeline`] remains the owner of externs and hit/miss counters, which
/// [`run`] dispatches to and mirrors into.
pub fn compile(pipeline: &Pipeline, ft: &FieldTable) -> CompiledPipeline {
    let mut steps = Vec::new();
    let mut stats = CompileStats::default();
    for (si, stage) in pipeline.stages.iter().enumerate() {
        for (ti, table) in stage.tables.iter().enumerate() {
            steps.push(CStep::Table(compile_table(table, ft, (si as u32, ti as u32), &mut stats)));
        }
        for ei in 0..stage.externs.len() {
            stats.extern_steps += 1;
            steps.push(CStep::Extern { stage: si as u32, idx: ei as u32 });
        }
    }
    CompiledPipeline { steps, stats }
}

/// Streams PHV fields through the slice-by-8 CRC kernel without the
/// interpreter's per-op `Vec<u64>` — bit-identical to
/// [`hash_words`] over the collected values.
#[inline]
fn hash_fields(algo: HashAlgo, fields: &[FieldId], phv: &Phv) -> u64 {
    let mut buf = [0u64; 8];
    if fields.len() <= buf.len() {
        for (slot, f) in buf.iter_mut().zip(fields) {
            *slot = phv.get(*f);
        }
        hash_words(algo, &buf[..fields.len()])
    } else {
        let words: Vec<u64> = fields.iter().map(|f| phv.get(*f)).collect();
        hash_words(algo, &words)
    }
}

#[inline]
fn run_ops(ops: &[COp], phv: &mut Phv, ctx: &mut ExecCtx<'_>) {
    for op in ops {
        match op {
            COp::Set { dst, value } => phv.set_premasked(*dst, *value),
            COp::SetBatch(edits) => {
                for &(dst, value) in edits.iter() {
                    phv.set_premasked(dst, value);
                }
            }
            COp::Copy { dst, src, mask } => phv.set_premasked(*dst, phv.get(*src) & mask),
            COp::Add { dst, value, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_add(*value) & mask)
            }
            COp::AddF { dst, src, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_add(phv.get(*src)) & mask)
            }
            COp::SubF { dst, src, mask } => {
                phv.set_premasked(*dst, phv.get(*dst).wrapping_sub(phv.get(*src)) & mask)
            }
            COp::And { dst, value } => phv.set_premasked(*dst, phv.get(*dst) & value),
            COp::Or { dst, value } => phv.set_premasked(*dst, phv.get(*dst) | value),
            COp::Shr { dst, bits } => phv.set_premasked(*dst, phv.get(*dst) >> bits),
            COp::Hash { dst, algo, fields, mask } => {
                phv.set_premasked(*dst, hash_fields(*algo, fields, phv) & mask)
            }
            COp::Rng { dst, bits, offset, mask } => {
                use rand::Rng;
                let range = 1u64 << (*bits).min(63);
                let v = ctx.rng.gen_range(0..range).wrapping_add(*offset);
                phv.set_premasked(*dst, v & mask);
            }
            COp::Salu { reg, index, program } => {
                let idx = match index {
                    CIndex::Const(c) => *c,
                    CIndex::Field(f) => phv.get(*f),
                    CIndex::Hash { algo, fields, mask } => hash_fields(*algo, fields, phv) & mask,
                };
                ctx.regs.execute(*reg, idx, program, phv, ctx.table);
            }
            COp::Digest { id, fields } => {
                let values: Vec<u64> = fields.iter().map(|f| phv.get(*f)).collect();
                ctx.digests.push(DigestRecord { id: *id, values, at: ctx.now });
            }
        }
    }
}

/// One matcher probe for one key, shared by the per-packet executor and
/// the vector executor's per-lane fallbacks.
#[inline]
fn scalar_lookup(matcher: &CMatcher, key: &[u64]) -> Option<u32> {
    match matcher {
        CMatcher::Exact(map) => map.get(key).copied(),
        CMatcher::ExactDense { base, slots } => key
            .first()
            .and_then(|k| k.checked_sub(*base))
            .and_then(|i| slots.get(i as usize))
            .copied()
            .filter(|&a| a != CTable::NO_ACTION),
        CMatcher::Ternary(entries) => entries
            .iter()
            .find(|(e, _)| e.iter().zip(key).all(|(&(v, m), &k)| k & m == v & m))
            .map(|&(_, a)| a),
        CMatcher::RangeSorted(entries) => {
            let k = key[0];
            let idx = entries.partition_point(|e| e.0 <= k);
            idx.checked_sub(1).map(|i| entries[i]).filter(|e| k <= e.1).map(|e| e.2)
        }
        CMatcher::RangeLinear(entries) => entries
            .iter()
            .find(|(e, _)| e.iter().zip(key).all(|(&(lo, hi), &k)| lo <= k && k <= hi))
            .map(|&(_, a)| a),
        CMatcher::Index { slots } => {
            let slot = slots[key[0] as usize % slots.len()];
            (slot != CTable::NO_ACTION).then_some(slot)
        }
    }
}

/// Executes a compiled program for one packet.  `pipeline` must be the
/// pipeline the program was compiled from: externs dispatch through it and
/// hit/miss counters are mirrored into its tables.  Returns the number of
/// ops retired (for the `--profile` histogram).
pub fn run(
    prog: &CompiledPipeline,
    pipeline: &mut Pipeline,
    phv: &mut Phv,
    ctx: &mut ExecCtx<'_>,
) -> u64 {
    let mut retired = 0u64;
    for step in &prog.steps {
        match step {
            CStep::Table(t) => {
                if !t.gateways.is_empty() {
                    // Predicates are pure, so a non-short-circuit AND fold
                    // is safe and keeps the loop branch-free.
                    let mut pass = true;
                    for g in t.gateways.iter() {
                        pass &= g.eval(phv);
                    }
                    if !pass {
                        continue;
                    }
                }
                let mut key_buf = [0u64; 8];
                let n = t.key_fields.len().min(8);
                for (slot, f) in key_buf.iter_mut().zip(t.key_fields.iter()) {
                    *slot = phv.get(*f);
                }
                let key = &key_buf[..n];
                let hit = scalar_lookup(&t.matcher, key);
                let live = &mut pipeline.stages[t.loc.0 as usize].tables[t.loc.1 as usize];
                let action = match hit {
                    Some(a) => {
                        live.hits += 1;
                        a
                    }
                    None => {
                        live.misses += 1;
                        t.default_action
                    }
                };
                retired += u64::from(t.weights[action as usize]);
                run_ops(&t.actions[action as usize], phv, ctx);
            }
            CStep::Extern { stage, idx } => {
                retired += 1;
                pipeline.stages[*stage as usize].externs[*idx as usize].execute(phv, ctx);
            }
        }
    }
    retired
}

// ---------------------------------------------------------------------------
// Vector execution: op-at-a-time over a batch of PHV lanes.
// ---------------------------------------------------------------------------

/// Why a compiled program refused vectorization ([`vector_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorHazard {
    /// The program dispatches to an extern (arbitrary state, arbitrary
    /// access order).
    Extern,
    /// An action draws from the shared RNG stream: running ingress ops
    /// batch-first would reorder the draws against the per-packet egress
    /// and jitter draws that follow.
    Rng,
    /// An action emits digest records, whose queue order is the packet
    /// order interleaved with egress digests.
    Digest,
    /// A register array is accessed from more than one SALU op site, or
    /// from both the ingress and egress programs — op-at-a-time execution
    /// would permute its read-modify-write order.
    SaluAliased,
}

impl VectorHazard {
    /// A short diagnostic label.
    pub fn as_str(self) -> &'static str {
        match self {
            VectorHazard::Extern => "extern",
            VectorHazard::Rng => "rng",
            VectorHazard::Digest => "digest",
            VectorHazard::SaluAliased => "salu-aliased",
        }
    }
}

/// Sentinel in the per-lane selection buffer: gateway failed, table
/// skipped for this lane.
const LANE_SKIP: u32 = u32::MAX;

/// Vector matcher for one table step, chosen at plan time.
#[derive(Debug, Clone)]
enum VMatcher {
    /// Single-field dense span: the probe is a gather load.
    Dense,
    /// Open-addressed table keyed by CRC-32 of the key words; batches of
    /// four lanes hash through the interleaved [`crc32_words_x4`] kernel.
    Hashed { klen: usize, keys: Box<[u64]>, actions: Box<[u32]> },
    /// Per-lane probe of the scalar matcher (ternary, ranges, index,
    /// and oversized exact keys).
    Scalar,
}

/// Everything [`run_vector`] needs beyond the compiled program: the SoA
/// column map over program-touched fields, per-step vector matchers, and
/// the SALU register census used for the ingress/egress disjointness
/// check.
#[derive(Debug, Clone)]
pub struct VectorPlan {
    /// `FieldId` → column index; `u32::MAX` marks untouched fields.
    col_of: Box<[u32]>,
    /// Column → `(field, width mask)`.
    cols: Box<[(FieldId, u64)]>,
    /// Per-step matcher, parallel to the program's steps.
    vtables: Box<[VMatcher]>,
    /// Registers the program's SALUs touch (each from exactly one site).
    regs: Box<[RegId]>,
}

impl VectorPlan {
    /// Registers the planned program touches.
    pub fn salu_regs(&self) -> &[RegId] {
        &self.regs
    }

    /// Number of SoA columns (for profiling/diagnostics).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn col(&self, f: FieldId) -> usize {
        self.col_of[f.0 as usize] as usize
    }
}

/// Marks every field an op reads or writes.
fn mark_op_fields(op: &COp, touched: &mut [bool]) {
    fn mark(touched: &mut [bool], f: FieldId) {
        touched[f.0 as usize] = true;
    }
    fn mark_operand(touched: &mut [bool], op: &SaluOperand) {
        if let SaluOperand::Field(f) = op {
            touched[f.0 as usize] = true;
        }
    }
    match op {
        COp::Set { dst, .. } => mark(touched, *dst),
        COp::SetBatch(edits) => edits.iter().for_each(|&(dst, _)| mark(touched, dst)),
        COp::Copy { dst, src, .. } => {
            mark(touched, *dst);
            mark(touched, *src);
        }
        COp::Add { dst, .. }
        | COp::And { dst, .. }
        | COp::Or { dst, .. }
        | COp::Shr { dst, .. } => mark(touched, *dst),
        COp::AddF { dst, src, .. } | COp::SubF { dst, src, .. } => {
            mark(touched, *dst);
            mark(touched, *src);
        }
        COp::Hash { dst, fields, .. } => {
            mark(touched, *dst);
            fields.iter().for_each(|&f| mark(touched, f));
        }
        COp::Rng { dst, .. } => mark(touched, *dst),
        COp::Salu { index, program, .. } => {
            match index {
                CIndex::Const(_) => {}
                CIndex::Field(f) => mark(touched, *f),
                CIndex::Hash { fields, .. } => fields.iter().for_each(|&f| mark(touched, f)),
            }
            if let Some(c) = &program.condition {
                use crate::register::CondExpr;
                match &c.expr {
                    CondExpr::Reg => {}
                    CondExpr::Operand(op)
                    | CondExpr::OperandMinusReg(op)
                    | CondExpr::RegMinusOperand(op) => mark_operand(touched, op),
                }
                mark_operand(touched, &c.rhs);
            }
            for upd in [&program.on_true, &program.on_false] {
                use crate::register::SaluUpdate;
                match upd {
                    SaluUpdate::Keep => {}
                    SaluUpdate::Set(op) | SaluUpdate::Add(op) | SaluUpdate::Sub(op) => {
                        mark_operand(touched, op)
                    }
                }
            }
            if let Some(out) = &program.output {
                mark(touched, out.dst);
            }
        }
        COp::Digest { fields, .. } => fields.iter().for_each(|&f| mark(touched, f)),
    }
}

/// Collects the registers a compiled program's SALUs touch into `regs`,
/// failing on the second site that names an already-seen register.
fn census_salus(prog: &CompiledPipeline, regs: &mut Vec<RegId>) -> Result<(), VectorHazard> {
    for step in &prog.steps {
        let CStep::Table(t) = step else { continue };
        for action in t.actions.iter() {
            for op in action.iter() {
                if let COp::Salu { reg, .. } = op {
                    if regs.contains(reg) {
                        return Err(VectorHazard::SaluAliased);
                    }
                    regs.push(*reg);
                }
            }
        }
    }
    Ok(())
}

/// Multiply–xor fold over key words — the probe hash of the flat
/// open-addressed exact tables ([`VMatcher::Hashed`]).  Same mixing
/// round as [`crate::fxhash::FxHasher`]: two ALU ops per word, an order
/// of magnitude cheaper than a CRC fold for 1–8-word keys.
#[inline]
fn fx_words(key: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h
}

/// Builds the vector matcher for one table's scalar matcher.
fn build_vmatcher(t: &CTable) -> VMatcher {
    match &t.matcher {
        CMatcher::ExactDense { .. } if t.key_fields.len() == 1 => VMatcher::Dense,
        CMatcher::Exact(map) if (1..=8).contains(&t.key_fields.len()) => {
            let klen = t.key_fields.len();
            let cap = (map.len() * 2).next_power_of_two().max(8);
            let mut keys = vec![0u64; cap * klen];
            let mut actions = vec![CTable::NO_ACTION; cap];
            for (k, &a) in map.iter() {
                let mut i = fx_words(k) as usize & (cap - 1);
                // Keys are unique in the source map, so probing stops at
                // the first empty slot.
                while actions[i] != CTable::NO_ACTION {
                    i = (i + 1) & (cap - 1);
                }
                keys[i * klen..(i + 1) * klen].copy_from_slice(k);
                actions[i] = a;
            }
            VMatcher::Hashed {
                klen,
                keys: keys.into_boxed_slice(),
                actions: actions.into_boxed_slice(),
            }
        }
        _ => VMatcher::Scalar,
    }
}

/// Analyzes a compiled ingress program for vector safety and builds its
/// [`VectorPlan`].
///
/// A program is vector-safe when running it op-at-a-time over a batch of
/// lanes is observationally identical to running it packet-at-a-time:
///
/// * **no externs** — they hide state the analysis cannot see;
/// * **no RNG draws** — the switch RNG stream is shared with the egress
///   program and the TM jitter draws that run per packet after the batch,
///   so even one batched draw would permute the stream;
/// * **no digests** — the digest queue observes packet order;
/// * **every register behind a single SALU site** — a register accessed
///   from one site sees its lanes in lane (= packet) order, which is the
///   serial access order; two sites would interleave per packet but run
///   batch-major here.  The `egress` program's SALUs must be disjoint for
///   the same reason: ingress runs batch-first, egress per packet after.
pub fn vector_plan(
    prog: &CompiledPipeline,
    egress: &CompiledPipeline,
    ft: &FieldTable,
) -> Result<VectorPlan, VectorHazard> {
    let mut touched = vec![false; ft.len()];
    let mut regs: Vec<RegId> = Vec::new();
    census_salus(prog, &mut regs)?;
    let ingress_salus = regs.len();
    // Egress SALUs must not alias ingress ones; duplicates *within*
    // egress are fine (egress itself stays per-packet).
    let mut eg_regs: Vec<RegId> = Vec::new();
    for step in &egress.steps {
        let CStep::Table(t) = step else { continue };
        for action in t.actions.iter() {
            for op in action.iter() {
                if let COp::Salu { reg, .. } = op {
                    if regs[..ingress_salus].contains(reg) {
                        return Err(VectorHazard::SaluAliased);
                    }
                    eg_regs.push(*reg);
                }
            }
        }
    }
    for step in &prog.steps {
        let t = match step {
            CStep::Table(t) => t,
            CStep::Extern { .. } => return Err(VectorHazard::Extern),
        };
        for g in t.gateways.iter() {
            touched[g.field.0 as usize] = true;
        }
        for f in t.key_fields.iter() {
            touched[f.0 as usize] = true;
        }
        for action in t.actions.iter() {
            for op in action.iter() {
                match op {
                    COp::Rng { .. } => return Err(VectorHazard::Rng),
                    COp::Digest { .. } => return Err(VectorHazard::Digest),
                    _ => {}
                }
                mark_op_fields(op, &mut touched);
            }
        }
    }
    let mut col_of = vec![u32::MAX; ft.len()];
    let mut cols = Vec::new();
    for (i, &t) in touched.iter().enumerate() {
        if t {
            let f = FieldId(i as u16);
            col_of[i] = cols.len() as u32;
            cols.push((f, ft.mask(f)));
        }
    }
    let vtables = prog
        .steps
        .iter()
        .map(|s| match s {
            CStep::Table(t) => build_vmatcher(t),
            CStep::Extern { .. } => unreachable!("externs rejected above"),
        })
        .collect();
    Ok(VectorPlan {
        col_of: col_of.into_boxed_slice(),
        cols: cols.into_boxed_slice(),
        vtables,
        regs: regs.into_boxed_slice(),
    })
}

/// Reusable SoA lane buffer: one column per program-touched field, laid
/// out `data[col * lanes + lane]`, plus the per-lane action selections
/// and the recycled active/partition lane lists the executor iterates.
/// Allocated once per switch and reused across batches.
#[derive(Debug, Default)]
pub struct LaneBatch {
    data: Vec<u64>,
    /// Selected action per lane for the current table (only meaningful
    /// for lanes on the active list).
    sel: Vec<u32>,
    /// Lanes whose gateways passed for the current table.
    active: Vec<u32>,
    /// Distinct selected actions of the current table (mixed-selection
    /// path).
    distinct: Vec<u32>,
    /// Lane list of the current action group.
    lane_list: Vec<u32>,
    lanes: usize,
}

impl LaneBatch {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lanes of the current batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Prepares the buffer for a batch of `lanes` packets.
    pub fn begin(&mut self, plan: &VectorPlan, lanes: usize) {
        self.lanes = lanes;
        self.data.clear();
        self.data.resize(plan.cols.len() * lanes, 0);
        self.sel.clear();
        self.sel.resize(lanes, 0);
    }

    /// Loads one packet's touched fields into a lane.
    pub fn load(&mut self, plan: &VectorPlan, lane: usize, phv: &Phv) {
        let n = self.lanes;
        for (c, &(f, _)) in plan.cols.iter().enumerate() {
            self.data[c * n + lane] = phv.get(f);
        }
    }

    /// Writes a lane's columns back into a packet's PHV.  Every stored
    /// value is already masked to its field width.
    pub fn store(&self, plan: &VectorPlan, lane: usize, phv: &mut Phv) {
        let n = self.lanes;
        for (c, &(f, _)) in plan.cols.iter().enumerate() {
            phv.set_premasked(f, self.data[c * n + lane]);
        }
    }
}

/// One lane of a [`LaneBatch`] exposed as a [`SaluAccess`] view, so SALUs
/// run through the exact [`RegisterFile::execute_on`] body the scalar
/// executors use.
struct LaneView<'a> {
    batch: &'a mut LaneBatch,
    plan: &'a VectorPlan,
    lane: usize,
}

impl SaluAccess for LaneView<'_> {
    #[inline]
    fn get(&self, f: FieldId) -> u64 {
        self.batch.data[self.plan.col(f) * self.batch.lanes + self.lane]
    }

    #[inline]
    fn set(&mut self, _table: &FieldTable, f: FieldId, v: u64) {
        let c = self.plan.col_of[f.0 as usize] as usize;
        let mask = self.plan.cols[c].1;
        self.batch.data[c * self.batch.lanes + self.lane] = v & mask;
    }
}

/// Computes one op's hash over a lane's columns — bit-identical to
/// [`hash_fields`] on the equivalent PHV.
#[inline]
fn lane_hash(
    batch: &LaneBatch,
    plan: &VectorPlan,
    algo: HashAlgo,
    fields: &[FieldId],
    lane: usize,
) -> u64 {
    let n = batch.lanes;
    let mut buf = [0u64; 8];
    if fields.len() <= buf.len() {
        for (slot, &f) in buf.iter_mut().zip(fields) {
            *slot = batch.data[plan.col(f) * n + lane];
        }
        hash_words(algo, &buf[..fields.len()])
    } else {
        let words: Vec<u64> = fields.iter().map(|&f| batch.data[plan.col(f) * n + lane]).collect();
        hash_words(algo, &words)
    }
}

/// Runs one action's ops over the listed lanes, op-at-a-time.
fn run_ops_lanes(
    ops: &[COp],
    plan: &VectorPlan,
    lanes: &[u32],
    batch: &mut LaneBatch,
    regs: &mut RegisterFile,
    ft: &FieldTable,
) {
    let n = batch.lanes;
    for op in ops {
        match op {
            COp::Set { dst, value } => {
                let c = plan.col(*dst) * n;
                for &l in lanes {
                    batch.data[c + l as usize] = *value;
                }
            }
            COp::SetBatch(edits) => {
                for &(dst, value) in edits.iter() {
                    let c = plan.col(dst) * n;
                    for &l in lanes {
                        batch.data[c + l as usize] = value;
                    }
                }
            }
            COp::Copy { dst, src, mask } => {
                let cd = plan.col(*dst) * n;
                let cs = plan.col(*src) * n;
                for &l in lanes {
                    batch.data[cd + l as usize] = batch.data[cs + l as usize] & mask;
                }
            }
            COp::Add { dst, value, mask } => {
                let c = plan.col(*dst) * n;
                for &l in lanes {
                    let d = &mut batch.data[c + l as usize];
                    *d = d.wrapping_add(*value) & mask;
                }
            }
            COp::AddF { dst, src, mask } => {
                let cd = plan.col(*dst) * n;
                let cs = plan.col(*src) * n;
                for &l in lanes {
                    let v = batch.data[cs + l as usize];
                    let d = &mut batch.data[cd + l as usize];
                    *d = d.wrapping_add(v) & mask;
                }
            }
            COp::SubF { dst, src, mask } => {
                let cd = plan.col(*dst) * n;
                let cs = plan.col(*src) * n;
                for &l in lanes {
                    let v = batch.data[cs + l as usize];
                    let d = &mut batch.data[cd + l as usize];
                    *d = d.wrapping_sub(v) & mask;
                }
            }
            COp::And { dst, value } => {
                let c = plan.col(*dst) * n;
                for &l in lanes {
                    batch.data[c + l as usize] &= value;
                }
            }
            COp::Or { dst, value } => {
                let c = plan.col(*dst) * n;
                for &l in lanes {
                    batch.data[c + l as usize] |= value;
                }
            }
            COp::Shr { dst, bits } => {
                let c = plan.col(*dst) * n;
                for &l in lanes {
                    batch.data[c + l as usize] >>= bits;
                }
            }
            COp::Hash { dst, algo, fields, mask } => {
                let cd = plan.col(*dst) * n;
                if *algo == HashAlgo::Crc32 && fields.len() <= 8 {
                    // Four lanes per probe through the interleaved fold.
                    let w = fields.len();
                    let mut chunks = lanes.chunks_exact(4);
                    let mut bufs = [[0u64; 8]; 4];
                    for quad in chunks.by_ref() {
                        for (j, &l) in quad.iter().enumerate() {
                            for (slot, &f) in bufs[j].iter_mut().zip(fields.iter()) {
                                *slot = batch.data[plan.col(f) * n + l as usize];
                            }
                        }
                        let h = crc32_words_x4([
                            &bufs[0][..w],
                            &bufs[1][..w],
                            &bufs[2][..w],
                            &bufs[3][..w],
                        ]);
                        for (j, &l) in quad.iter().enumerate() {
                            batch.data[cd + l as usize] = u64::from(h[j]) & mask;
                        }
                    }
                    for &l in chunks.remainder() {
                        let v = lane_hash(batch, plan, *algo, fields, l as usize);
                        batch.data[cd + l as usize] = v & mask;
                    }
                } else {
                    for &l in lanes {
                        let v = lane_hash(batch, plan, *algo, fields, l as usize);
                        batch.data[cd + l as usize] = v & mask;
                    }
                }
            }
            COp::Salu { reg, index, program } => {
                for &l in lanes {
                    let idx = match index {
                        CIndex::Const(c) => *c,
                        CIndex::Field(f) => batch.data[plan.col(*f) * n + l as usize],
                        CIndex::Hash { algo, fields, mask } => {
                            lane_hash(batch, plan, *algo, fields, l as usize) & mask
                        }
                    };
                    let mut view = LaneView { batch, plan, lane: l as usize };
                    regs.execute_on(*reg, idx, program, &mut view, ft);
                }
            }
            COp::Rng { .. } | COp::Digest { .. } => {
                unreachable!("vector plans reject rng/digest ops")
            }
        }
    }
}

/// Executes a compiled program op-at-a-time over the lanes of `batch`.
///
/// Semantics are bit-identical to calling [`run`] once per lane in lane
/// order (the fuzz oracle's invariant F): per-lane results depend only on
/// that lane's fields, and the one cross-lane resource — register state —
/// is accessed from a single site per register, which visits lanes in
/// lane order.  Hit/miss counters mirror into the live tables as totals.
/// Returns ops retired across all lanes.
pub fn run_vector(
    prog: &CompiledPipeline,
    plan: &VectorPlan,
    pipeline: &mut Pipeline,
    regs: &mut RegisterFile,
    ft: &FieldTable,
    batch: &mut LaneBatch,
) -> u64 {
    let n = batch.lanes;
    let mut retired = 0u64;
    for (si, step) in prog.steps.iter().enumerate() {
        let CStep::Table(t) = step else { unreachable!("vector plans reject extern steps") };
        // Gateway conjunction → active-lane list.  Only active lanes are
        // probed, selected, or touched by action ops below.
        let mut active = std::mem::take(&mut batch.active);
        active.clear();
        if t.gateways.is_empty() {
            active.extend(0..n as u32);
        } else {
            'lane: for l in 0..n {
                for g in t.gateways.iter() {
                    if !g.cmp.test(batch.data[plan.col(g.field) * n + l], g.value) {
                        continue 'lane;
                    }
                }
                active.push(l as u32);
            }
        }
        if active.is_empty() {
            batch.active = active;
            continue;
        }

        // Per-lane action selection, fused with hit/miss accounting,
        // retired-op weights and uniformity detection.
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut first = LANE_SKIP;
        let mut uniform = true;
        macro_rules! select {
            ($l:expr, $hit:expr) => {{
                let a = match $hit {
                    Some(a) => {
                        hits += 1;
                        a
                    }
                    None => {
                        misses += 1;
                        t.default_action
                    }
                };
                batch.sel[$l as usize] = a;
                retired += u64::from(t.weights[a as usize]);
                if first == LANE_SKIP {
                    first = a;
                } else {
                    uniform &= a == first;
                }
            }};
        }
        match &plan.vtables[si] {
            VMatcher::Dense => {
                let CMatcher::ExactDense { base, slots } = &t.matcher else {
                    unreachable!("Dense plans come from ExactDense matchers")
                };
                let c = plan.col(t.key_fields[0]) * n;
                for &l in &active {
                    let hit = batch.data[c + l as usize]
                        .checked_sub(*base)
                        .and_then(|i| slots.get(i as usize))
                        .copied()
                        .filter(|&a| a != CTable::NO_ACTION);
                    select!(l, hit);
                }
            }
            VMatcher::Hashed { klen, keys, actions } => {
                // Flat open-addressed probe per active lane: gather the
                // key from the lane's columns, fold it with the Fx round,
                // linear-probe the slot-major key array.
                let klen = *klen;
                let capm = actions.len() - 1;
                let mut cols = [0usize; 8];
                for (slot, &f) in cols.iter_mut().zip(t.key_fields.iter().take(klen)) {
                    *slot = plan.col(f) * n;
                }
                for &l in &active {
                    let mut kb = [0u64; 8];
                    for (slot, &c) in kb.iter_mut().zip(cols.iter().take(klen)) {
                        *slot = batch.data[c + l as usize];
                    }
                    let key = &kb[..klen];
                    let mut i = fx_words(key) as usize & capm;
                    let hit = loop {
                        let a = actions[i];
                        if a == CTable::NO_ACTION {
                            break None;
                        }
                        if &keys[i * klen..(i + 1) * klen] == key {
                            break Some(a);
                        }
                        i = (i + 1) & capm;
                    };
                    select!(l, hit);
                }
            }
            VMatcher::Scalar => {
                let kn = t.key_fields.len().min(8);
                for &l in &active {
                    let mut key_buf = [0u64; 8];
                    for (slot, &f) in key_buf.iter_mut().zip(t.key_fields.iter()) {
                        *slot = batch.data[plan.col(f) * n + l as usize];
                    }
                    select!(l, scalar_lookup(&t.matcher, &key_buf[..kn]));
                }
            }
        }
        let live = &mut pipeline.stages[t.loc.0 as usize].tables[t.loc.1 as usize];
        live.hits += hits;
        live.misses += misses;

        // Execute actions op-at-a-time: the whole active list at once
        // when every lane selected the same action, per-action groups of
        // the active list otherwise (each register still sees its lanes
        // in lane order either way — only one action site may touch it).
        if uniform {
            if !t.actions[first as usize].is_empty() {
                run_ops_lanes(&t.actions[first as usize], plan, &active, batch, regs, ft);
            }
        } else {
            let mut distinct = std::mem::take(&mut batch.distinct);
            distinct.clear();
            for &l in &active {
                let a = batch.sel[l as usize];
                if !distinct.contains(&a) {
                    distinct.push(a);
                }
            }
            for &a in &distinct {
                if t.actions[a as usize].is_empty() {
                    continue;
                }
                let mut lanes = std::mem::take(&mut batch.lane_list);
                lanes.clear();
                lanes.extend(active.iter().copied().filter(|&l| batch.sel[l as usize] == a));
                run_ops_lanes(&t.actions[a as usize], plan, &lanes, batch, regs, ft);
                batch.lane_list = lanes;
            }
            batch.distinct = distinct;
        }
        batch.active = active;
    }
    retired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSet, PrimitiveOp};
    use crate::phv::fields;
    use crate::register::RegisterFile;
    use crate::table::Table;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exec_both(pipe_fn: impl Fn() -> Pipeline, phv_fn: impl Fn(&FieldTable) -> Phv) {
        let ft = FieldTable::new();
        // Interpreted.
        let mut p1 = pipe_fn();
        let mut phv1 = phv_fn(&ft);
        let mut regs1 = RegisterFile::new();
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut dg1 = Vec::new();
        {
            let mut ctx =
                ExecCtx { table: &ft, regs: &mut regs1, rng: &mut rng1, digests: &mut dg1, now: 5 };
            p1.execute(&mut phv1, &mut ctx);
        }
        // Compiled.
        let mut p2 = pipe_fn();
        let prog = compile(&p2, &ft);
        let mut phv2 = phv_fn(&ft);
        let mut regs2 = RegisterFile::new();
        let mut rng2 = StdRng::seed_from_u64(9);
        let mut dg2 = Vec::new();
        {
            let mut ctx =
                ExecCtx { table: &ft, regs: &mut regs2, rng: &mut rng2, digests: &mut dg2, now: 5 };
            run(&prog, &mut p2, &mut phv2, &mut ctx);
        }
        assert_eq!(phv1, phv2, "PHV diverged");
        assert_eq!(dg1, dg2, "digests diverged");
        for (s1, s2) in p1.stages.iter().zip(&p2.stages) {
            for (t1, t2) in s1.tables.iter().zip(&s2.tables) {
                assert_eq!((t1.hits, t1.misses), (t2.hits, t2.misses), "counters diverged");
            }
        }
    }

    #[test]
    fn compiled_matches_interpreter_across_match_kinds() {
        use crate::register::Cmp;
        use crate::table::MatchKey;
        let build = || {
            let mut pipe = Pipeline::new();
            let mut exact =
                Table::new("exact", MatchKind::Exact, vec![fields::IPV4_DST], 8, ActionSet::nop());
            exact
                .insert(
                    MatchKey::Exact(vec![42]),
                    ActionSet::new(
                        "hit",
                        vec![
                            PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: 0x1_0001 },
                            PrimitiveOp::AddConst { dst: fields::TCP_SPORT, value: 0xffff },
                            PrimitiveOp::SetConst { dst: fields::TCP_DPORT, value: 7 },
                        ],
                    ),
                    0,
                )
                .unwrap();
            pipe.push_table(exact);
            let mut rng_tbl =
                Table::new("range", MatchKind::Range, vec![fields::TCP_SPORT], 8, ActionSet::nop());
            rng_tbl
                .insert(
                    MatchKey::Range(vec![(0, 100)]),
                    ActionSet::new(
                        "low",
                        vec![PrimitiveOp::Hash {
                            dst: fields::TCP_WINDOW,
                            algo: HashAlgo::Crc32,
                            fields: vec![fields::IPV4_DST, fields::TCP_SPORT],
                            mask_bits: 12,
                        }],
                    ),
                    0,
                )
                .unwrap();
            pipe.push_table(rng_tbl.with_gateway(Gateway {
                field: fields::IPV4_VALID,
                cmp: Cmp::Eq,
                value: 0,
            }));
            let mut tern = Table::new(
                "tern",
                MatchKind::Ternary,
                vec![fields::TCP_DPORT],
                8,
                ActionSet::new(
                    "df",
                    vec![PrimitiveOp::RngUniform { dst: fields::IPV4_IDENT, bits: 4, offset: 16 }],
                ),
            );
            tern.insert(
                MatchKey::Ternary(vec![(7, 0xffff)]),
                ActionSet::new(
                    "dig",
                    vec![PrimitiveOp::Digest {
                        id: DigestId(3),
                        fields: vec![fields::TCP_SPORT, fields::TCP_WINDOW],
                    }],
                ),
                5,
            )
            .unwrap();
            pipe.push_table(tern);
            pipe
        };
        exec_both(build, |ft| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, 42);
            phv
        });
        // Miss path.
        exec_both(build, |ft| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, 43);
            phv
        });
    }

    #[test]
    fn constant_folding_collapses_adjacent_edits() {
        let ft = FieldTable::new();
        let action = ActionSet::new(
            "fold",
            vec![
                PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: 100 },
                PrimitiveOp::AddConst { dst: fields::TCP_SPORT, value: 0xffff_0001 },
                PrimitiveOp::OrConst { dst: fields::TCP_SPORT, value: 2 },
                PrimitiveOp::SetConst { dst: fields::TCP_DPORT, value: 9 },
                PrimitiveOp::NoOp,
            ],
        );
        let mut stats = CompileStats::default();
        let ops = compile_action(&action, &ft, &mut stats);
        // Everything collapses into one fused batch of two stores.
        assert_eq!(ops.len(), 1, "ops: {ops:?}");
        match &ops[0] {
            COp::SetBatch(edits) => {
                assert_eq!(edits.len(), 2);
                assert_eq!(edits[0], (fields::TCP_SPORT, 103)); // (100+1)|2 masked to 16 bits
                assert_eq!(edits[1], (fields::TCP_DPORT, 9));
            }
            other => panic!("expected SetBatch, got {other:?}"),
        }
        assert!(stats.folded_ops >= 3);
        assert_eq!(stats.fused_sets, 2);
    }

    /// Runs `lanes` PHVs through the interpreter packet-at-a-time and
    /// through the vector executor as one batch, asserting identical
    /// PHVs, register contents and hit/miss counters.
    fn exec_vector_vs_interp(
        build: impl Fn(&FieldTable, &mut RegisterFile) -> Pipeline,
        lanes: usize,
        phv_fn: impl Fn(&FieldTable, usize) -> Phv,
    ) {
        let ft = FieldTable::new();
        // Interpreted, packet at a time.
        let mut regs1 = RegisterFile::new();
        let mut p1 = build(&ft, &mut regs1);
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut dg1 = Vec::new();
        let mut phvs1: Vec<Phv> = (0..lanes).map(|i| phv_fn(&ft, i)).collect();
        for phv in phvs1.iter_mut() {
            let mut ctx =
                ExecCtx { table: &ft, regs: &mut regs1, rng: &mut rng1, digests: &mut dg1, now: 5 };
            p1.execute(phv, &mut ctx);
        }
        // Vectorized, op at a time over all lanes.
        let mut regs2 = RegisterFile::new();
        let mut p2 = build(&ft, &mut regs2);
        let prog = compile(&p2, &ft);
        let empty_egress = compile(&Pipeline::new(), &ft);
        let plan = vector_plan(&prog, &empty_egress, &ft).expect("program should be vector-safe");
        let mut phvs2: Vec<Phv> = (0..lanes).map(|i| phv_fn(&ft, i)).collect();
        let mut batch = LaneBatch::new();
        batch.begin(&plan, lanes);
        for (l, phv) in phvs2.iter().enumerate() {
            batch.load(&plan, l, phv);
        }
        run_vector(&prog, &plan, &mut p2, &mut regs2, &ft, &mut batch);
        for (l, phv) in phvs2.iter_mut().enumerate() {
            batch.store(&plan, l, phv);
        }
        assert_eq!(phvs1, phvs2, "PHV lanes diverged");
        for (a1, a2) in regs1.iter().zip(regs2.iter()) {
            for i in 0..a1.depth() {
                assert_eq!(a1.cp_read(i), a2.cp_read(i), "register {} slot {i}", a1.name());
            }
        }
        for (s1, s2) in p1.stages.iter().zip(&p2.stages) {
            for (t1, t2) in s1.tables.iter().zip(&s2.tables) {
                assert_eq!((t1.hits, t1.misses), (t2.hits, t2.misses), "counters diverged");
            }
        }
    }

    #[test]
    fn vector_matches_interp_across_match_kinds() {
        use crate::register::Cmp;
        use crate::table::MatchKey;
        let build = |_ft: &FieldTable, _regs: &mut RegisterFile| {
            let mut pipe = Pipeline::new();
            // Single-field exact with a dense key span → gather-load probe.
            let mut dense =
                Table::new("dense", MatchKind::Exact, vec![fields::IPV4_DST], 8, ActionSet::nop());
            for k in 40..44u64 {
                dense
                    .insert(
                        MatchKey::Exact(vec![k]),
                        ActionSet::new(
                            "hit",
                            vec![
                                PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: k + 1 },
                                PrimitiveOp::AddField {
                                    dst: fields::TCP_SPORT,
                                    src: fields::TCP_DPORT,
                                },
                            ],
                        ),
                        0,
                    )
                    .unwrap();
            }
            pipe.push_table(dense);
            // Two-field exact → open-addressed hashed probe.
            let mut wide = Table::new(
                "wide",
                MatchKind::Exact,
                vec![fields::IPV4_DST, fields::TCP_DPORT],
                8,
                ActionSet::new(
                    "df",
                    vec![PrimitiveOp::SetConst { dst: fields::IPV4_TTL, value: 1 }],
                ),
            );
            for k in [41u64, 43, 60] {
                wide.insert(
                    MatchKey::Exact(vec![k, 7]),
                    ActionSet::new(
                        "hash",
                        vec![PrimitiveOp::Hash {
                            dst: fields::TCP_WINDOW,
                            algo: HashAlgo::Crc32,
                            fields: vec![fields::IPV4_DST, fields::TCP_SPORT],
                            mask_bits: 12,
                        }],
                    ),
                    0,
                )
                .unwrap();
            }
            pipe.push_table(wide);
            // Ternary fallback behind a gateway.
            let mut tern = Table::new(
                "tern",
                MatchKind::Ternary,
                vec![fields::TCP_SPORT],
                8,
                ActionSet::nop(),
            );
            tern.insert(
                MatchKey::Ternary(vec![(0x2a, 0xff)]),
                ActionSet::new(
                    "low",
                    vec![
                        PrimitiveOp::CopyField { dst: fields::IPV4_IDENT, src: fields::TCP_SPORT },
                        PrimitiveOp::ShiftRight { dst: fields::IPV4_IDENT, bits: 1 },
                        PrimitiveOp::OrConst { dst: fields::IPV4_IDENT, value: 0x8000 },
                    ],
                ),
                5,
            )
            .unwrap();
            pipe.push_table(tern.with_gateway(Gateway {
                field: fields::TCP_DPORT,
                cmp: Cmp::Lt,
                value: 9,
            }));
            pipe
        };
        exec_vector_vs_interp(build, 11, |ft, i| {
            let mut phv = ft.new_phv();
            // Mix of dense hits (40..44), misses, hashed hits (dport 7 on
            // 41/43), and gated-out lanes (dport ≥ 9).
            phv.set(ft, fields::IPV4_DST, 38 + i as u64);
            phv.set(ft, fields::TCP_DPORT, if i % 3 == 0 { 7 } else { 4 + i as u64 });
            phv
        });
    }

    #[test]
    fn vector_salu_sees_lanes_in_packet_order() {
        use crate::action::IndexSource;
        use crate::register::SaluProgram;
        use crate::table::MatchKey;
        let build = |_ft: &FieldTable, regs: &mut RegisterFile| {
            let reg = regs.alloc("seq", 32, 4);
            let mut pipe = Pipeline::new();
            // Per-slot sequence numbers: lanes landing on the same slot
            // must observe the serial fetch-and-add order.  The single
            // SALU site lives in the default action; hitting lanes run a
            // plain edit, so selection is mixed across the batch.
            let mut t = Table::new(
                "seq",
                MatchKind::Exact,
                vec![fields::IPV4_DST],
                8,
                ActionSet::new(
                    "count",
                    vec![PrimitiveOp::Salu {
                        reg,
                        index: IndexSource::Field(fields::TCP_DPORT),
                        program: SaluProgram::fetch_add(fields::TCP_WINDOW),
                    }],
                ),
            );
            t.insert(
                MatchKey::Exact(vec![1]),
                ActionSet::new(
                    "tag",
                    vec![PrimitiveOp::SetConst { dst: fields::TCP_WINDOW, value: 0xbeef }],
                ),
                0,
            )
            .unwrap();
            pipe.push_table(t);
            pipe
        };
        exec_vector_vs_interp(build, 9, |ft, i| {
            let mut phv = ft.new_phv();
            phv.set(ft, fields::IPV4_DST, (i % 2) as u64);
            phv.set(ft, fields::TCP_DPORT, (i % 3) as u64);
            phv
        });
    }

    #[test]
    fn vector_plan_rejects_hazards() {
        use crate::action::IndexSource;
        use crate::register::{SaluOperand, SaluProgram};
        let ft = FieldTable::new();
        let empty = compile(&Pipeline::new(), &ft);
        let single = |ops: Vec<PrimitiveOp>| {
            let mut pipe = Pipeline::new();
            pipe.push_table(Table::new(
                "t",
                MatchKind::Exact,
                vec![fields::IPV4_DST],
                8,
                ActionSet::new("a", ops),
            ));
            pipe
        };

        let rng =
            single(vec![PrimitiveOp::RngUniform { dst: fields::IPV4_IDENT, bits: 4, offset: 0 }]);
        assert_eq!(vector_plan(&compile(&rng, &ft), &empty, &ft).unwrap_err(), VectorHazard::Rng);

        let digest =
            single(vec![PrimitiveOp::Digest { id: DigestId(1), fields: vec![fields::TCP_SPORT] }]);
        assert_eq!(
            vector_plan(&compile(&digest, &ft), &empty, &ft).unwrap_err(),
            VectorHazard::Digest
        );

        let mut regs = RegisterFile::new();
        let reg = regs.alloc("shared", 32, 4);
        let salu = |out: FieldId| PrimitiveOp::Salu {
            reg,
            index: IndexSource::Const(0),
            program: SaluProgram::write(SaluOperand::Field(out)),
        };
        let aliased = single(vec![salu(fields::TCP_SPORT), salu(fields::TCP_DPORT)]);
        assert_eq!(
            vector_plan(&compile(&aliased, &ft), &empty, &ft).unwrap_err(),
            VectorHazard::SaluAliased
        );

        // One site per program, but ingress and egress share the array.
        let ig = single(vec![salu(fields::TCP_SPORT)]);
        let eg = single(vec![salu(fields::TCP_DPORT)]);
        assert_eq!(
            vector_plan(&compile(&ig, &ft), &compile(&eg, &ft), &ft).unwrap_err(),
            VectorHazard::SaluAliased
        );
        // Same single-site ingress with a disjoint egress is fine.
        assert!(vector_plan(&compile(&ig, &ft), &empty, &ft).is_ok());
    }

    #[test]
    fn vector_plan_rejects_externs() {
        use crate::resources::ResourceUsage;
        #[derive(Debug)]
        struct Nop;
        impl crate::pipeline::Extern for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn execute(&mut self, _phv: &mut Phv, _ctx: &mut ExecCtx<'_>) {}
            fn resources(&self) -> ResourceUsage {
                ResourceUsage::default()
            }
        }
        let ft = FieldTable::new();
        let mut pipe = Pipeline::new();
        pipe.push_extern(Box::new(Nop));
        let empty = compile(&Pipeline::new(), &ft);
        assert_eq!(
            vector_plan(&compile(&pipe, &ft), &empty, &ft).unwrap_err(),
            VectorHazard::Extern
        );
    }

    #[test]
    fn exec_mode_parse_round_trips() {
        for mode in [ExecMode::Interp, ExecMode::Compiled, ExecMode::Vector] {
            assert_eq!(ExecMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(ExecMode::parse("weird"), None);
        assert_eq!(ExecMode::default(), ExecMode::Compiled);
    }
}
