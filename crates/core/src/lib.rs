//! HyperTester core: the paper's primary contribution, assembled.
//!
//! This crate turns a compiled NTAPI task ([`ht_ntapi::CompiledTask`]) into
//! a programmed switch:
//!
//! * [`htps`] — the Packet Sender (§5.1): accelerator, replicator with
//!   register-timer rate control, and the four-mode editor.
//! * [`htpr`] — the Packet Receiver (§5.2): filters, the
//!   false-positive-free counter-based query engine (exact key matching +
//!   partial-key cuckoo hashing + KV FIFO), and capture stages.
//! * [`fifo`] — the register FIFO of §6.1 (Fig. 7), shared by the KV FIFO
//!   and the trigger FIFO.
//! * [`tester`] — building it all onto an `ht-asic` switch, with typed
//!   runtime handles.
//! * [`results`] — switch-CPU result merging (arrays + FIFO + evictions +
//!   exact counters).
//! * [`fieldmap`] — NTAPI field → PHV field resolution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fieldmap;
pub mod fifo;
pub mod htpr;
pub mod htps;
pub mod results;
pub mod tester;

pub use results::{distinct_count, global_value, keyed_results, query_result, QueryResult};
pub use tester::{
    build, BuildError, BuiltTester, ConfigError, Gbps, QueryHandle, TaskHandles, TesterConfig,
    TesterConfigBuilder,
};

/// Common HyperTester items: `use ht_core::prelude::*;`.
pub mod prelude {
    pub use crate::results::{
        distinct_count, global_value, keyed_results, query_result, QueryResult,
    };
    pub use crate::tester::{
        build, BuildError, BuiltTester, ConfigError, Gbps, TesterConfig, TesterConfigBuilder,
    };
    pub use ht_asic::switch::CPU_PORT;
    pub use ht_asic::{SimTime, Switch, World};
    pub use ht_cpu::SwitchCpu;
}
