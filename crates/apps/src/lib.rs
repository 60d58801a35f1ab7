//! Behavioural models of the paper's subject systems, built on the
//! `whodunit-sim` substrate.
//!
//! | Module | Models | Paper use |
//! |---|---|---|
//! | [`httpd`] | Apache 2.x: listener + worker pool sharing a VM-emulated fd queue (Figure 1) | Fig 8, §9.2, Table 3 |
//! | [`dbserver`] | MySQL 4.x: tables, MyISAM table locks vs InnoDB row locks, query cost model, the §8.1 shared counter | Table 1, Figs 11–12 |
//! | [`proxy`] | Squid: event-driven proxy cache (`httpAccept`, `clientReadRequest`, `commConnectHandle`, `httpReadReply`, `commHandleWrite`) | Fig 9, §9.3 |
//! | [`sedasrv`] | Haboob: SEDA web server (ListenStage … WriteStage) | Fig 10, §9.3 |
//! | [`appserver`] | Tomcat: one servlet per TPC-W interaction, DB RPCs, optional 30 s result caching | §8.4, Table 2 |
//! | [`tpcw`] | The 3-tier assembly squid → tomcat → mysql with closed-loop clients | Table 1, Figs 11–12, Table 2 |
//! | [`dnsd`] | Event-driven DNS cache: `recv_query` → `reply_from_cache` / `forward_query` → `upstream_reply` | §4.1's DNS example |
//! | [`zoo`] | Fan-out, pub/sub and write-through-cache assemblies | black-box inference, chaos |
//! | [`harness`] | The build every `run_*` goes through, and the [`harness::RunTail`] it returns | all of the above |
//! | [`chaos`] | [`chaos::Assembly`]: TPC-W and the zoo as chaos targets, and the one verdict | chaos explorer, sentinel |
//!
//! Each model exposes a `run_*` function that wires a complete
//! simulation, runs it for a configured virtual duration, and returns a
//! report with the measurements the corresponding table/figure needs.
//! All eight build through [`harness`]: it starts the simulator (schedule
//! policy, step budget), registers the profiled tiers and the client
//! process, plants the livelock pair, runs in batch or streaming mode,
//! and returns the [`harness::RunTail`] (outcome, compute truth per
//! tier, comm log, fault counters).
//!
//! [`chaos`] does not model a subject system: its
//! [`chaos::Assembly`] names TPC-W or one [`zoo`] topology, resolves a
//! sampled chaos scenario (schedule policy, step budget, livelock
//! pair, fault plan) onto it, runs it, and checks the
//! [`whodunit_core::oracle`]s over the run's tail — one path for all
//! four.
//!
//! [`zoo`] steps beyond the paper's subjects: a topology zoo (fan-out
//! graph, pub/sub bus, write-through cache pair) with time-varying
//! load shapes, built to exercise black-box inference stitching
//! (`whodunit-infer`) and its ground-truth scoring.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod appserver;
pub mod chaos;
pub mod dbserver;
pub mod dnsd;
pub mod federation;
pub mod harness;
pub mod httpd;
pub mod metrics;
pub mod proxy;
pub mod rtconf;
pub mod sedasrv;
pub mod sentinel;
pub mod tpcw;
pub mod zoo;

/// Livelock bound of the httpd, proxy, haboob and DNS harnesses, and
/// the default `step_budget` of the zoo and of a chaos repro: the most
/// thread resumes at one virtual instant before a run ends in
/// [`whodunit_sim::RunOutcome::Livelock`] (see
/// [`tpcw::TpcwConfig::step_budget`]).
pub const STEP_BUDGET: u64 = 2_000_000;
