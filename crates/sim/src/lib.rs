//! Deterministic discrete-event simulation substrate for multi-tier
//! applications.
//!
//! The paper instruments real processes on a cluster; this crate is the
//! equivalent substrate in virtual time. It models:
//!
//! - **Machines** with a fixed number of cores and round-robin
//!   scheduling of compute bursts ([`machine`]).
//! - **Threads** written as resumable state machines ([`ThreadBody`]):
//!   each resume yields one operation — compute, lock/unlock, condition
//!   wait/notify, channel send/receive, sleep ([`Op`]).
//! - **Locks** with shared/exclusive modes, FIFO granting, and
//!   wait-time measurement ([`lock`]) — the crosstalk hook points.
//! - **Channels** (sockets/pipes) with latency + bandwidth delay and
//!   synopsis piggybacking ([`chan`]) — the §5 hook points.
//! - **Processes**: groups of threads sharing one profiling
//!   [`whodunit_core::rt::Runtime`]; every substrate action calls the
//!   corresponding hook and charges the returned overhead cycles to the
//!   executing thread, which is how profiling overhead becomes
//!   measurable (Table 2, §9).
//! - **SEDA stages** ([`seda`]): reusable stage-queue worker bodies
//!   implementing Figure 5's instrumented stage loop.
//! - **Fault injection** ([`fault`]): seeded, deterministic message
//!   drop/duplication/delay, machine slowdown windows, and process
//!   crashes at a virtual time — the substrate for studying what a
//!   transactional profile looks like when the system degrades.
//! - **Schedule policies** ([`sched`]): pluggable, seeded ready-queue
//!   tie-breaking (FIFO/LIFO/random/perturbation), so every seed is a
//!   distinct legal interleaving of the same workload.
//! - **Chaos exploration** ([`explore`]): sampling random
//!   (schedule, fault-plan) scenarios, greedily shrinking failing
//!   ones to minimal repro files, and the one fault set and planted
//!   livelock pair every assembly materializes a repro with.
//!
//! Everything is single-threaded and seeded: a simulation is a pure
//! function of its inputs.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chan;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod lock;
pub mod machine;
pub mod queue;
pub mod sched;
pub mod seda;
pub mod time;

pub use chan::Msg;
pub use engine::{
    DeadlockLink, DeadlockReport, EventCensus, KindCount, LivelockReport, Op, RunOutcome, Sim,
    SimConfig, ThreadBody, ThreadCx, Wake,
};
pub use explore::{plant_livelock_pair, sample_scenario, shrink, ChaosSpace, ScenarioFaults};
pub use fault::{ChannelFaults, FaultPlan, SendVerdict, Slowdown};
pub use sched::{SchedulePolicy, Scheduler};
pub use time::{Cycles, MachineId};
