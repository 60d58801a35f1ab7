//! Profile diffing: before/after comparison of stage profiles.
//!
//! The §8.4 workflow is profile → find candidates → optimize →
//! re-measure; a diff view makes the "re-measure" step concrete by
//! comparing two profiles of the same stage (e.g. MyISAM vs InnoDB, or
//! caching off vs on) row by row, each row a context's share before
//! and after.

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

    #[test]
    fn rows_render_with_their_change() {
        let rows = [DiffRow {
            ctx: "BestSellers".into(),
            before_pct: 80.0,
            after_pct: 30.0,
        }];
        let table = render_diff(&rows);
        assert!(table.contains("Δ pp"));
        assert!(table.contains("BestSellers") && table.contains("-50.00"));
    }
}
