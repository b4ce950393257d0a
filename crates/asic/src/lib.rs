//! A discrete-event RMT (reconfigurable match-action table) switching-ASIC
//! simulator — the substrate replacing the Tofino hardware the HyperTester
//! paper runs on.
//!
//! The simulator provides exactly the capabilities the paper builds on
//! (§1): reconfigurable match-action tables, the `recirculate` primitive,
//! registers with stateful ALUs, data-plane timestamps, and multicasting —
//! plus the `modify_field_rng_uniform` primitive with its real-world
//! power-of-two parameter limitation (§6.1) and `generate_digest`.
//!
//! Module map:
//! * [`time`] — picosecond simulation time.
//! * [`timing`] — Tofino-calibrated latency/bandwidth constants.
//! * [`phv`] — field registry and packet header vectors.
//! * [`packet`] — the simulated packet ([`packet::SimPacket`]).
//! * [`parser`] — bytes ↔ PHV (checksum-correcting deparser).
//! * [`hash`] — CRC hash units.
//! * [`register`] — register arrays and SALU programs.
//! * [`action`] — primitive ops / compound actions.
//! * [`table`] — exact/ternary/range/index match tables with gateways.
//! * [`exec`] — the compiled (threaded-code) pipeline executor.
//! * [`pipeline`] — stages, pipelines, and the [`pipeline::Extern`] hook.
//! * [`tm`] — multicast group table.
//! * [`mac`] — port MACs with line-rate serialization.
//! * [`switch`] — the switch device.
//! * [`sim`] — world, devices, links with fault injection.
//! * `evloop` (private) — the one event loop: queue, batching, flush.
//! * [`parallel`] — partitioned engines under conservative lookahead.
//! * [`timerwheel`] — hierarchical timer wheel backing the event queue.
//! * [`arena`] — thread-local buffer pooling for per-packet allocations.
//! * [`resources`] — the seven-class resource model of the paper's Table 7.
//! * [`digest`] — `generate_digest` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod arena;
pub mod digest;
mod evloop;
pub mod exec;
pub mod fingerprint;
pub mod fxhash;
pub mod hash;
pub mod mac;
pub mod packet;
pub mod parallel;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod register;
pub mod resources;
pub mod sim;
pub mod switch;
pub mod table;
pub mod time;
pub mod timerwheel;
pub mod timing;
pub mod tm;

pub use exec::ExecMode;
pub use packet::SimPacket;
pub use phv::{fields, FieldId, FieldTable, Phv};
pub use sim::{
    Device, DeviceId, LinkSpec, Outbox, SimThreads, World, WorldBuilder, WorldConfigError,
};
pub use switch::Switch;
pub use time::SimTime;
pub use timerwheel::TimerWheel;
