//! Benchmark harness regenerating every table and figure of the
//! HyperTester paper's evaluation (§7).
//!
//! * [`harness`] — shared testbed runner.
//! * [`apps`] — the four NTAPI applications of Table 5.
//! * [`experiments`] — one function per table/figure.
//! * [`resources`] — the Table 7 resource accounting.
//! * [`ablations`] — design ablations (sketches, precision, cuckoo).
//! * [`suite`] — every experiment as a typed `ht_harness::Experiment`
//!   job for the parallel runner.
//!
//! This crate is a library only.  `htctl bench` is the one front end:
//! `htctl bench --filter fig09` regenerates and prints one table or
//! figure, `htctl bench --baseline BENCH.json` is the exact digest and
//! event-count gate.  Nothing here gates on time (`wall_ms` and
//! `events_per_sec` in `BENCH.json` are informational); the kernels and
//! end-to-end workloads are timed by the standalone crate in `benchmark/`.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod apps;
pub mod corpus;
pub mod experiments;
pub mod fuzz;
pub mod harness;
pub mod resources;
pub mod suite;
