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
//!
//! Each module exposes a `run_*` harness that wires a complete
//! simulation, runs it for a configured virtual duration, and returns a
//! report with the measurements the corresponding table/figure needs.
//!
//! [`chaos`] is the exception: it does not model a subject system but
//! materializes sampled chaos scenarios (schedule policy + fault plan)
//! onto the [`tpcw`] assembly and checks the
//! [`whodunit_core::oracle`]s after each run.
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
