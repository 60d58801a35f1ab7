//! Golden-file tests for `whodunit-report`: two fixed TPC-W runs (one
//! clean, one faulty) rendered to canonical text and compared
//! byte-for-byte against checked-in goldens under `tests/golden/`.
//!
//! The rendered document is `report::render::render_pipeline` (the
//! stitched transactions + crosstalk matrix from the analysis pipeline)
//! followed by the Table-1 view. Both simulation and analysis
//! are fully deterministic, so any byte difference is a real behavior
//! or format change.
//!
//! # Updating the goldens
//!
//! When an intentional format or behavior change lands, regenerate
//! with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! then review the diff of `tests/golden/*.txt` like any other code
//! change and commit it alongside the change that caused it.

use std::path::PathBuf;
use whodunit::apps::tpcw::{run_tpcw, TpcwConfig};
use whodunit::core::cost::CPU_HZ;
use whodunit::core::pipeline::{analyze, PipelineConfig};
use whodunit::report::{render, table, tpcw};
use whodunit::sim::fault::ChannelFaults;
use whodunit::sim::ScenarioFaults;
use whodunit::workload::Interaction;

fn label_of(frame: &str) -> Option<String> {
    Interaction::ALL
        .iter()
        .find(|i| i.servlet() == frame)
        .map(|i| i.name().to_owned())
}

/// Renders one TPC-W run to the canonical golden document.
fn canonical_doc(cfg: TpcwConfig) -> String {
    let r = run_tpcw(cfg);
    assert_eq!(r.dumps.len(), 3, "squid, tomcat, mysql all dump");
    let rep = analyze(r.dumps, PipelineConfig::default());
    let mut doc = render::render_pipeline(&rep);
    doc.push_str("\n== table 1 ==\n");
    let rows = tpcw::table1(&rep, 2, &|n| label_of(n));
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.interaction.clone(),
                table::f(row.cpu_pct, 1),
                table::f(row.crosstalk_ms, 2),
            ]
        })
        .collect();
    doc.push_str(&table::render(
        &["interaction", "cpu %", "crosstalk ms"],
        &cells,
    ));
    doc
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_report",
            path.display()
        )
    });
    if got != want {
        // Point at the first diverging line rather than dumping both
        // documents whole.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                panic!(
                    "golden mismatch {} at line {}:\n  got:  {g}\n  want: {w}\n\
                     (UPDATE_GOLDEN=1 regenerates after an intentional change)",
                    path.display(),
                    i + 1
                );
            }
        }
        panic!(
            "golden mismatch {}: lengths differ (got {} lines, want {})",
            path.display(),
            got.lines().count(),
            want.lines().count()
        );
    }
}

fn clean_cfg() -> TpcwConfig {
    TpcwConfig {
        clients: 32,
        duration: 60 * CPU_HZ,
        warmup: 15 * CPU_HZ,
        seed: 1,
        ..TpcwConfig::default()
    }
}

fn faulty_cfg() -> TpcwConfig {
    TpcwConfig {
        clients: 24,
        duration: 45 * CPU_HZ,
        warmup: 10 * CPU_HZ,
        seed: 7,
        faults: Some(ScenarioFaults {
            seed: 0xfeed,
            backbone: ChannelFaults {
                drop_p: 0.03,
                dup_p: 0.01,
                delay_p: 0.05,
                delay_cycles: CPU_HZ / 100,
            },
            front: ChannelFaults {
                drop_p: 0.01,
                ..Default::default()
            },
            ..Default::default()
        }),
        step_budget: Some(5_000_000),
        ..TpcwConfig::default()
    }
}

#[test]
fn golden_clean_tpcw_report() {
    check_golden("tpcw_clean.txt", &canonical_doc(clean_cfg()));
}

#[test]
fn golden_faulty_tpcw_report() {
    check_golden("tpcw_faulty.txt", &canonical_doc(faulty_cfg()));
}
