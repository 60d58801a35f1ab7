//! Whodunit: transactional profiling for multi-tier applications.
//!
//! A from-scratch Rust reproduction of *Whodunit: Transactional
//! Profiling for Multi-Tier Applications* (Chanda, Cox, Zwaenepoel —
//! EuroSys 2007). This facade crate re-exports the workspace crates:
//!
//! - [`core`] — the paper's contribution: transaction contexts, CCTs,
//!   shared-memory flow detection, event/SEDA tracking, synopsis IPC,
//!   crosstalk, and the Whodunit runtime.
//! - [`vm`] — the instruction-emulation substrate that stands in for
//!   the paper's QEMU-derived critical-section emulator.
//! - [`sim`] — the deterministic discrete-event multi-tier substrate
//!   (machines, threads, locks, channels, event loops, SEDA stages).
//! - [`workload`] — web-trace and TPC-W browsing-mix generators.
//! - [`apps`] — behavioural models of the paper's subject systems
//!   (Apache-like httpd, MySQL-like dbserver, Squid-like proxy,
//!   Haboob-like SEDA server, Tomcat-like appserver, TPC-W assembly).
//! - [`baselines`] — csprof-only and gprof-like comparator runtimes.
//! - [`report`] — rendering of transactional profiles and tables.
//! - [`collector`] — the online streaming collector tier: incremental
//!   stitching, per-origin aggregation, live queries. Ingest
//!   accepts either `StageDelta` structs or the binary wire frames of
//!   [`core::wire`] (DESIGN.md §16).
//! - [`infer`] — black-box inference stitching: recovering request
//!   origins from bare send/recv timing when tiers can't cooperate,
//!   scored against simulator ground truth.
//!
//! See `examples/quickstart.rs` for a first end-to-end run.

pub use whodunit_apps as apps;
pub use whodunit_baselines as baselines;
pub use whodunit_collector as collector;
pub use whodunit_core as core;
pub use whodunit_infer as infer;
pub use whodunit_report as report;
pub use whodunit_sim as sim;
pub use whodunit_vm as vm;
pub use whodunit_workload as workload;
