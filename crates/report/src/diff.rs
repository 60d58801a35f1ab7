//! Profile diffing: before/after comparison of stage profiles.
//!
//! The §8.4 workflow is profile → find candidates → optimize →
//! re-measure; a diff view makes the "re-measure" step concrete by
//! comparing two dumps of the same stage (e.g. MyISAM vs InnoDB, or
//! caching off vs on) context by context.

use crate::render::context_shares;
use whodunit_core::stitch::StageDump;

/// One row of a profile diff.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// The context (rendered).
    pub ctx: String,
    /// Percent share in the "before" profile.
    pub before_pct: f64,
    /// Percent share in the "after" profile.
    pub after_pct: f64,
}

impl DiffRow {
    /// Share change in percentage points (after − before).
    pub fn delta(&self) -> f64 {
        self.after_pct - self.before_pct
    }
}

/// Diffs two dumps of the same stage by context share, sorted by the
/// magnitude of the change (largest first).
pub fn diff_contexts(before: &StageDump, after: &StageDump) -> Vec<DiffRow> {
    let b = context_shares(before);
    let a = context_shares(after);
    let mut ctxs: Vec<String> = b
        .iter()
        .map(|s| s.ctx.clone())
        .chain(a.iter().map(|s| s.ctx.clone()))
        .collect();
    ctxs.sort();
    ctxs.dedup();
    let find = |set: &[crate::render::CtxShare], ctx: &str| {
        set.iter()
            .find(|s| s.ctx == ctx)
            .map(|s| s.pct)
            .unwrap_or(0.0)
    };
    let mut rows: Vec<DiffRow> = ctxs
        .into_iter()
        .map(|ctx| DiffRow {
            before_pct: find(&b, &ctx),
            after_pct: find(&a, &ctx),
            ctx,
        })
        .collect();
    rows.sort_by(|x, y| {
        y.delta()
            .abs()
            .partial_cmp(&x.delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Renders a diff as an aligned table.
pub fn render_diff(rows: &[DiffRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.ctx.clone(),
                crate::table::f(r.before_pct, 2),
                crate::table::f(r.after_pct, 2),
                format!("{:+.2}", r.delta()),
            ]
        })
        .collect();
    crate::table::render(&["Context", "Before %", "After %", "Δ pp"], &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whodunit_core::stitch::{DumpCct, DumpContext, DumpNode};

    fn dump(samples: &[(u32, u64)]) -> StageDump {
        // One single-frame CCT per context index.
        let max_ctx = samples.iter().map(|&(c, _)| c).max().unwrap_or(0);
        StageDump {
            proc: 0,
            stage_name: "s".into(),
            frames: vec!["f".into()],
            contexts: (0..=max_ctx)
                .map(|i| DumpContext {
                    atoms: if i == 0 {
                        vec![].into()
                    } else {
                        vec![whodunit_core::stitch::DumpAtom::Frame(0)].into()
                    },
                })
                .collect(),
            ccts: samples
                .iter()
                .map(|&(ctx, n)| DumpCct {
                    ctx,
                    nodes: vec![
                        DumpNode {
                            frame: None,
                            parent: None,
                            samples: 0,
                            cycles: 0,
                            calls: 0,
                        },
                        DumpNode {
                            frame: Some(0),
                            parent: Some(0),
                            samples: n,
                            cycles: n * 10,
                            calls: 0,
                        },
                    ],
                })
                .collect(),
            ..StageDump::default()
        }
    }

    #[test]
    fn diff_orders_by_change_magnitude() {
        // Before: ctx0 80%, ctx1 20%. After: ctx0 30%, ctx1 70%.
        let before = dump(&[(0, 80), (1, 20)]);
        let after = dump(&[(0, 30), (1, 70)]);
        let rows = diff_contexts(&before, &after);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].delta().abs() - 50.0).abs() < 1e-9);
        let table = render_diff(&rows);
        assert!(table.contains("Δ pp"));
        assert!(table.contains("+50.00") || table.contains("-50.00"));
    }

    #[test]
    fn contexts_missing_on_one_side_show_zero() {
        let before = dump(&[(0, 100)]);
        let after = dump(&[(1, 100)]);
        let rows = diff_contexts(&before, &after);
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .any(|r| r.before_pct == 0.0 && r.after_pct == 100.0));
        assert!(rows
            .iter()
            .any(|r| r.before_pct == 100.0 && r.after_pct == 0.0));
    }
}
