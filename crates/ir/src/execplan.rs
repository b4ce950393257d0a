//! IR-level executor plan: the flattened op-program shape each template's
//! editor chain lowers to in the compiled pipeline executor
//! (`ht_asic::exec`).
//!
//! The `exec-lowering` pass mirrors, at the IR level, what the backend's
//! threaded-code compiler will do to the per-template editor actions when
//! the built switch is flipped to `ExecMode::Compiled`: each
//! [`EditSpec`](crate::template::EditSpec) becomes a short run of flat
//! ops, single-value lists constant-fold away into the CPU-installed
//! template base, and the remaining op mix is recorded per template.
//! Nothing reads `module.plan.exec` today: neither `--dump-ir` nor any
//! report renders it, and the executor compiles from the built switch.
//!
//! Like [`Provenance`](crate::module::Provenance), the plan is
//! deliberately **not** rendered by `Module::to_text`/`Module::to_json`,
//! so golden IR snapshots are unaffected by executor planning.

/// Planned op mix of one editor program, by op class of the compiled
/// executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMixPlan {
    /// Constant field stores (`Set`/`SetBatch` stores).
    pub sets: usize,
    /// Stateful-ALU register programs (value lists and progressions
    /// advance an index register per packet).
    pub salus: usize,
    /// Hardware RNG draws.
    pub rngs: usize,
    /// Hash computations (inverse-transform table indexing).
    pub hashes: usize,
}

impl OpMixPlan {
    /// Total planned ops across all classes.
    pub fn total(&self) -> usize {
        self.sets + self.salus + self.rngs + self.hashes
    }
}

/// The planned flattened program of one template's editor chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditorProgramPlan {
    /// Template the program edits.
    pub template_id: u16,
    /// Ops the naive one-op-per-edit-step lowering would emit.
    pub raw_ops: usize,
    /// Ops after constant folding (single-value lists fold into the
    /// CPU-installed template base and cost nothing per loop).
    pub ops: usize,
    /// Edits folded away entirely.
    pub folded_edits: usize,
    /// Post-folding op mix.
    pub mix: OpMixPlan,
}

impl EditorProgramPlan {
    /// Whether the backend's vector planner can lane-batch this editor
    /// program: RNG draws consume the world RNG stream in packet order,
    /// so any `rngs > 0` forces the per-packet fallback.  (The remaining
    /// vector hazards — externs, digest emission, aliased stateful
    /// ALUs — are properties of the assembled pipeline, not of a single
    /// editor chain, and are decided by `ht_asic::exec::vector_plan` on
    /// the built switch; this flag mirrors the one hazard knowable at
    /// the IR level.)
    pub fn vector_safe(&self) -> bool {
        self.mix.rngs == 0
    }
}

/// The module-wide executor plan: one entry per template, in template
/// order.  Empty (the default) until the `exec-lowering` pass runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecPlan {
    /// Per-template editor programs.
    pub editors: Vec<EditorProgramPlan>,
}

impl ExecPlan {
    /// Whether the pass has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.editors.is_empty()
    }

    /// Total planned post-folding ops across all templates.
    pub fn total_ops(&self) -> usize {
        self.editors.iter().map(|e| e.ops).sum()
    }

    /// Whether every planned editor program is free of IR-level vector
    /// hazards ([`EditorProgramPlan::vector_safe`]): a `false` here
    /// predicts the backend's vector planner will reject the ingress and
    /// `--exec vector` will run the compiled fallback.
    pub fn vector_safe(&self) -> bool {
        self.editors.iter().all(EditorProgramPlan::vector_safe)
    }
}

/// Plans the flattened editor program of one template's edit list.
///
/// Lowering rules (mirroring the backend threaded-code compiler):
///
/// * a single-value `ValueList` is a constant — it folds into the
///   template base installed by the switch CPU and costs no per-loop ops;
/// * a multi-value `ValueList` costs a SALU index advance plus one store;
/// * a `Progression` is a single SALU program (the register carries the
///   running value);
/// * a `RandomUniform` is one RNG draw;
/// * a `RandomTable` is one RNG draw plus one hash-indexed store.
pub fn plan_editor(template_id: u16, edits: &[crate::template::EditSpec]) -> EditorProgramPlan {
    use crate::template::EditSpec;
    let mut plan = EditorProgramPlan { template_id, ..Default::default() };
    for e in edits {
        match e {
            EditSpec::ValueList { values, .. } if values.len() <= 1 => {
                plan.raw_ops += 1;
                plan.folded_edits += 1;
            }
            EditSpec::ValueList { .. } => {
                plan.raw_ops += 2;
                plan.mix.salus += 1;
                plan.mix.sets += 1;
            }
            EditSpec::Progression { .. } => {
                plan.raw_ops += 1;
                plan.mix.salus += 1;
            }
            EditSpec::RandomUniform { .. } => {
                plan.raw_ops += 1;
                plan.mix.rngs += 1;
            }
            EditSpec::RandomTable { .. } => {
                plan.raw_ops += 2;
                plan.mix.rngs += 1;
                plan.mix.hashes += 1;
            }
        }
    }
    plan.ops = plan.mix.total();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::HeaderField;
    use crate::template::EditSpec;

    #[test]
    fn single_value_lists_fold_away() {
        let edits = vec![
            EditSpec::ValueList { field: HeaderField::Sport, values: vec![7] },
            EditSpec::ValueList { field: HeaderField::Dport, values: vec![1, 2, 3] },
            EditSpec::Progression { field: HeaderField::Sip, start: 0, end: 10, step: 1 },
            EditSpec::RandomUniform { field: HeaderField::Ident, bits: 8, offset: 0 },
            EditSpec::RandomTable { field: HeaderField::Dip, values: vec![1, 2, 3, 4], bits: 2 },
        ];
        let p = plan_editor(3, &edits);
        assert_eq!(p.template_id, 3);
        assert_eq!(p.raw_ops, 7);
        assert_eq!(p.folded_edits, 1);
        assert_eq!(p.ops, 6);
        assert_eq!(p.mix, OpMixPlan { sets: 1, salus: 2, rngs: 2, hashes: 1 });
        // Two RNG draws → the vector planner must fall back per packet.
        assert!(!p.vector_safe());
        assert!(!ExecPlan { editors: vec![p] }.vector_safe());
    }

    #[test]
    fn rng_free_editors_are_vector_safe() {
        let edits = vec![
            EditSpec::ValueList { field: HeaderField::Dport, values: vec![1, 2, 3] },
            EditSpec::Progression { field: HeaderField::Sip, start: 0, end: 10, step: 1 },
        ];
        let p = plan_editor(2, &edits);
        assert!(p.vector_safe());
        assert!(ExecPlan { editors: vec![p] }.vector_safe());
        assert!(ExecPlan::default().vector_safe());
    }

    #[test]
    fn empty_edit_list_plans_no_ops() {
        let p = plan_editor(1, &[]);
        assert_eq!(p.ops, 0);
        assert_eq!(p.raw_ops, 0);
        let plan = ExecPlan { editors: vec![p] };
        assert!(!plan.is_empty());
        assert_eq!(plan.total_ops(), 0);
        assert!(ExecPlan::default().is_empty());
    }
}
