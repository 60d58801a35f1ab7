//! Quarantine, reorder, and resync state for self-healing ingest.
//!
//! A frame the collector refuses — `StageAccumulator::apply` validates
//! before it mutates, so a refused frame leaves no trace — takes the
//! one route below, whether or not an emitter-side
//! [`whodunit_core::delta::ResyncSource`] is attached. The incremental
//! state stays alive through the damage: an always-on sentinel has to
//! watch SLOs over the very window the damage sits in.
//!
//! - **Duplicated frames** (sequence number below the expected one)
//!   are dropped and counted — the accumulator has already applied
//!   that increment.
//! - **Out-of-order frames** (sequence number above the expected one)
//!   park in a bounded reorder buffer keyed by sequence number; frames
//!   heal in order as the hole fills. A hole that outlives the buffer,
//!   or the stream, is treated as loss and triggers a resync.
//! - **Corrupt frames** (checksum failure, or content inconsistent
//!   with the accumulated state or the minted-synopsis index) are
//!   *quarantined*: counted, dropped, and repaired by a resync.
//! - **Resync** is bounded, to [`MAX_RESYNCS`] per stage: a catch-up
//!   diff from the accumulator's state to the emitter's snapshot,
//!   applied through the normal ingest path so the incremental stitch
//!   state stays exactly consistent.
//! - **Halt**: with no source attached, a source that lags the
//!   collector, a snapshot that does not extend the accumulated state,
//!   or the resync budget spent, the stage halts — its later frames
//!   are dropped, ingest keeps running for every other stage, and the
//!   report carries what the stage had accumulated.
//! - **Stalled streams**: a watchdog (disabled by default) marks a
//!   stage whose stream has gone silent for a configured number of
//!   epochs, so finalize can annotate the report instead of blocking.
//!
//! Every step is counted per stage and named in the stage's `degraded`
//! marker. Every recovery is deterministic: a pure function of the
//! damaged stream's content and the policy knobs, never of timing.

use std::collections::BTreeMap;
use whodunit_core::delta::StageDelta;

/// Resyncs per stage; the one after the last halts the stage instead.
pub(crate) const MAX_RESYNCS: u64 = 8;

/// Tuning knobs for quarantine and resync.
#[derive(Clone, Debug)]
pub struct QuarantinePolicy {
    /// Maximum out-of-order frames parked per stage while waiting for
    /// a sequence hole to fill; one more parked frame treats the hole
    /// as loss and triggers a resync.
    pub reorder_buffer: usize,
    /// Epochs of stage silence before the watchdog declares a stall.
    /// `0` disables the watchdog (a stage with nothing to report emits
    /// no delta at all, so silence is only suspicious when the
    /// deployment knows every stage stays busy).
    pub stall_epochs: u64,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            reorder_buffer: 4,
            stall_epochs: 0,
        }
    }
}

/// Per-stage quarantine accounting and reorder state.
#[derive(Clone, Debug, Default)]
pub struct StageQuarantine {
    /// Corrupt frames (checksum / inconsistency) quarantined.
    pub corrupt: u64,
    /// Duplicated frames dropped (sequence below expected).
    pub duplicates: u64,
    /// Out-of-order frames that healed from the reorder buffer without
    /// needing a resync.
    pub healed: u64,
    /// Resyncs performed.
    pub resyncs: u64,
    /// Frames discarded by a halt: those parked when the stage halted
    /// and every one that arrives after. Parked frames a resync makes
    /// redundant are discarded uncounted, since the snapshot already
    /// covers their content.
    pub dropped: u64,
    /// Stall events declared by the watchdog.
    pub stalls: u64,
    /// Whether the stage is currently considered stalled.
    pub stalled: bool,
    /// Whether the stage is halted (resync exhausted or unavailable);
    /// further frames for it are dropped.
    pub halted: bool,
    /// Epoch of the last applied frame for this stage.
    pub last_progress: u64,
    /// Parked out-of-order frames, keyed by sequence number.
    pub parked: BTreeMap<u64, StageDelta>,
}

impl StageQuarantine {
    /// Whether this stage's stream needed any self-healing: if true,
    /// the final report carries the [`StageQuarantine::marker`]
    /// annotation for it.
    pub fn degraded(&self) -> bool {
        self.corrupt > 0
            || self.duplicates > 0
            || self.healed > 0
            || self.resyncs > 0
            || self.dropped > 0
            || self.stalls > 0
            || self.halted
    }

    /// The explicit degradation annotation for this stage, e.g.
    /// `stage 2 (db): 1 corrupt quarantined, 1 resync`.
    pub fn marker(&self, stage: usize, name: &str) -> String {
        let mut parts = Vec::new();
        if self.corrupt > 0 {
            parts.push(format!("{} corrupt quarantined", self.corrupt));
        }
        if self.duplicates > 0 {
            parts.push(format!("{} duplicates dropped", self.duplicates));
        }
        if self.healed > 0 {
            parts.push(format!("{} reordered healed", self.healed));
        }
        if self.resyncs > 0 {
            parts.push(format!(
                "{} resync{}",
                self.resyncs,
                if self.resyncs == 1 { "" } else { "s" }
            ));
        }
        if self.dropped > 0 {
            parts.push(format!("{} frames dropped", self.dropped));
        }
        if self.stalls > 0 {
            parts.push(format!(
                "{} stall{}",
                self.stalls,
                if self.stalls == 1 { "" } else { "s" }
            ));
        }
        if self.halted {
            parts.push("halted".to_owned());
        }
        format!("stage {stage} ({name}): {}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stage_is_not_degraded() {
        assert!(!StageQuarantine::default().degraded());
    }

    #[test]
    fn every_counter_degrades_and_shows_in_the_marker() {
        for (field, expect) in [
            ("corrupt", "1 corrupt quarantined"),
            ("duplicates", "1 duplicates dropped"),
            ("healed", "1 reordered healed"),
            ("resyncs", "1 resync"),
            ("dropped", "1 frames dropped"),
            ("stalls", "1 stall"),
        ] {
            let mut q = StageQuarantine::default();
            match field {
                "corrupt" => q.corrupt = 1,
                "duplicates" => q.duplicates = 1,
                "healed" => q.healed = 1,
                "resyncs" => q.resyncs = 1,
                "dropped" => q.dropped = 1,
                _ => q.stalls = 1,
            }
            assert!(q.degraded(), "{field}");
            assert!(q.marker(2, "db").contains(expect), "{field}");
        }
        let q = StageQuarantine {
            halted: true,
            resyncs: 2,
            ..StageQuarantine::default()
        };
        assert!(q.degraded());
        let m = q.marker(0, "front");
        assert!(m.starts_with("stage 0 (front): "));
        assert!(m.contains("2 resyncs"));
        assert!(m.contains("halted"));
    }
}
