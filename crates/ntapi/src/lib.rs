//! NTAPI — the Network Testing API of HyperTester (§4 of the paper).
//!
//! NTAPI abstracts a testing task as *packet stream triggers* (what to
//! generate) and *packet stream queries* (what to measure), in the style of
//! stream-processing frameworks.  This crate provides:
//!
//! * [`ast`] — the task AST (Tables 1 and 2) plus the module-system
//!   surface forms.
//! * [`builder`] — a fluent Rust builder.
//! * [`lexer`] — the spanned tokenizer.
//! * [`mod@parse`] — the textual DSL (the paper's surface syntax).
//! * [`mod@resolve`] — `import` modules, `param` bindings, and `template`
//!   instantiation: surface units → a flat program.
//! * [`mod@compile`] — pass-based lowering onto the typed pipeline IR
//!   ([`ht_ir::Module`]) every backend consumes; mistaken tasks are
//!   rejected (§6.1).
//! * [`headerspace`] — header-space extraction for keyed queries (§5.2).
//! * [`fp`] — the false-positive precompute behind exact key matching.
//! * [`codegen`] — P4 generation (the LoC baseline of Table 5).
//! * [`printer`] — pretty-printing a program back to DSL text.
//! * [`loc`] — Table 5's line-counting rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod codegen;
pub mod compile;
pub mod fp;
pub mod headerspace;
pub mod lexer;
pub mod lint;
pub mod loc;
pub mod parse;
pub mod printer;
pub mod resolve;
#[cfg(test)]
pub(crate) mod testutil;

pub use ast::{HeaderField, NtField, Program, SourceUnit, Value};
pub use compile::{
    compile, compile_with, lower_with, pass_names, CompileOptions, CompiledTask, NtapiError,
    PassRun, PassTrace,
};
pub use loc::{SourceMap, Span};
pub use parse::{parse, parse_unit};
pub use resolve::{resolve_file, resolve_str, FsLoader, MemLoader, ModuleLoader, ResolveFailure};

/// Commonly used NTAPI items: `use ht_ntapi::prelude::*;`.
pub mod prelude {
    pub use crate::ast::{
        CmpOp, DistSpec, HeaderField, NtField, Program, QuerySource, ReduceFunc, Value,
    };
    pub use crate::builder::{program, query, trigger};
    pub use crate::compile::{compile, compile_with, CompileOptions, CompiledTask, NtapiError};
    pub use crate::parse::parse;
    pub use crate::resolve::{resolve_file, resolve_str};
}
