//! Crosstalk presentation (§6): who-waits-for-whom rows from a stage
//! dump, with contexts rendered readably.

use whodunit_core::cost::cycles_to_ms;
use whodunit_core::stitch::StageDump;

/// One rendered crosstalk pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PairRow {
    /// The waiting context (rendered).
    pub waiter: String,
    /// The holding context (rendered).
    pub holder: String,
    /// Mean wait in milliseconds.
    pub mean_ms: f64,
    /// Number of waits.
    pub count: u64,
}

/// Extracts the ordered crosstalk pairs of one stage, sorted by total
/// impact (mean × count) descending.
pub fn pairs(dump: &StageDump) -> Vec<PairRow> {
    let mut rows: Vec<PairRow> = dump
        .crosstalk_pairs
        .iter()
        .map(|p| PairRow {
            waiter: dump.ctx_string(p.waiter),
            holder: dump.ctx_string(p.holder),
            mean_ms: cycles_to_ms(p.total_wait / p.count.max(1)),
            count: p.count,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.mean_ms * b.count as f64)
            .partial_cmp(&(a.mean_ms * a.count as f64))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::stitch::{DumpAtom, DumpContext, DumpCrosstalkPair};

    fn dump() -> StageDump {
        StageDump {
            proc: 0,
            stage_name: "db".into(),
            frames: vec!["A".into(), "B".into()],
            contexts: vec![
                DumpContext::default(),
                DumpContext {
                    atoms: vec![DumpAtom::Frame(0)].into(),
                },
                DumpContext {
                    atoms: vec![DumpAtom::Frame(1)].into(),
                },
            ],
            crosstalk_pairs: vec![
                DumpCrosstalkPair {
                    waiter: 1,
                    holder: 2,
                    count: 10,
                    total_wait: 24_000_000,
                },
                DumpCrosstalkPair {
                    waiter: 2,
                    holder: 1,
                    count: 1,
                    total_wait: 2_400_000,
                },
            ],
            ..StageDump::default()
        }
    }

    #[test]
    fn pairs_sort_by_impact() {
        let p = pairs(&dump());
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].waiter, "A");
        assert_eq!(p[0].holder, "B");
        assert!((p[0].mean_ms - 1.0).abs() < 1e-9);
        assert_eq!(p[0].count, 10);
    }

    #[test]
    fn empty_dump_has_no_pairs() {
        assert!(pairs(&StageDump::default()).is_empty());
    }
}
