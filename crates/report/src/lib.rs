//! Presentation of transactional profiles.
//!
//! The paper presents its results as annotated call-graph figures
//! (Figures 8–10), tables (Tables 1–3) and throughput/latency curves
//! (Figures 11–12). This crate renders:
//!
//! - [`render`]: per-context CCT trees and DOT graphs from
//!   [`whodunit_core::stitch::StageDump`]s, and the stitched text/DOT
//!   views of a [`whodunit_core::pipeline::PipelineReport`];
//! - [`table`]: aligned text tables for the experiment binaries;
//! - [`tpcw`]: the cross-tier resolution (over the request edges of a
//!   [`whodunit_core::pipeline::PipelineReport`]) that labels MySQL's
//!   remote contexts with the TPC-W interaction that produced them, and
//!   the Table 1 assembly;
//! - [`live`]: point-in-time snapshots of the streaming collector
//!   (top-k paths, tier breakdowns, crosstalk hotspots, lag);
//! - [`infer`]: the black-box inference sweep summary (per-scenario
//!   precision/recall/F1 across visibility configurations).

#![warn(missing_docs)]

pub mod diff;
pub mod infer;
pub mod live;
pub mod render;
pub mod table;
pub mod tpcw;

pub use live::{
    diff_snapshots, render_fed_topology, render_incident, render_live_diff, render_live_snapshot,
    FedNodeView, FedTopologyView, Hotspot, IncidentCard, LagStats, LiveDiff, LiveSnapshot,
    ReplaySummary, ShrinkSummary, TierSlice, TopPath,
};
