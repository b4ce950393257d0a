//! The typed pipeline IR between the NTAPI surface syntax and every
//! backend of the toolchain.
//!
//! The NTAPI compiler (`ht-ntapi`) lowers a parsed program through its
//! ordered lowering passes into a [`Module`] — template packet specs,
//! compiled queries, and a [`PipelinePlan`] of pass-computed annotations.
//! Three backends consume that one module:
//!
//! * the **sim builder** (`ht-core`) programs a `ht_asic::Switch` from it;
//! * the **P4 backend** (`ht-ntapi`'s codegen) renders it to P4 source;
//! * the **verifier** (`ht-lint`) checks the built switch, reporting in
//!   this crate's [`Diagnostic`] form and solving on its [`dataflow`]
//!   engine.
//!
//! Module map:
//! * [`field`] — the Table 1 field vocabulary shared with the AST.
//! * [`template`] — template packet specs (triggers, §5.1).
//! * [`query`] — compiled queries (§5.2).
//! * [`module`] — the [`Module`] and its [`PipelinePlan`] annotations.
//! * [`hashcfg`] — cuckoo hash configuration carried by keyed queries.
//! * [`keyspace`] — flat key spaces for the false-positive precompute.
//! * [`diag`] — diagnostics ([`Diagnostic`], [`LintReport`]).
//! * [`render`] — deterministic text and JSON dumps of a [`Module`].
//! * [`execplan`] — planned flattened editor programs for the compiled
//!   pipeline executor (`ht_asic::exec`), filled by the `exec-lowering`
//!   pass and never rendered into IR dumps.
//! * [`dataflow`] — the abstract-interpretation engine (CFG, worklist
//!   solver with widening, interval/known-bits and powerset domains) the
//!   semantic verifier passes are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod execplan;
pub mod field;
pub mod hashcfg;
pub mod keyspace;
pub mod module;
pub mod query;
pub mod render;
pub mod template;

pub use dataflow::{AbstractDomain, BitSet, Cfg, EdgeKind, Env, Solution, Transfer, ValueFact};
pub use diag::{json_escape, report_json, Diagnostic, LintReport, Severity, SourceSpan};
pub use execplan::{EditorProgramPlan, ExecPlan, OpMixPlan};
pub use field::{CmpOp, HeaderField, NtField, Predicate, QuerySource, ReduceFunc};
pub use hashcfg::HashConfig;
pub use keyspace::KeySpace;
pub use module::{
    AcceleratorPlan, AnalysisFacts, FieldRangeFact, Module, PipelinePlan, Provenance, TimerFact,
    TimerPlan,
};
pub use query::{CompiledQuery, FpConfig, QueryKind};
pub use template::{EditSpec, L4Proto, ResponseCopy, TemplateSpec};
