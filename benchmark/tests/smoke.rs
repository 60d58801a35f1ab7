//! Runs both binaries at smoke size on every workload and holds their
//! output to `BENCHMARK.json`: the same workload and metric names, no
//! failed operation, per-layer self times that sum to the traced pass.

use std::path::PathBuf;
use std::process::{Command, Output};

use whodunit_benchmark::harness::Json;
use whodunit_benchmark::selfcheck::BENCHMARK_JSON;
use whodunit_benchmark::workloads::WORKLOADS;

fn contract() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn names(section: &Json) -> Vec<(String, String)> {
    section
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name").to_owned(),
                m.get("unit").and_then(Json::str).unwrap_or("").to_owned(),
            )
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn run(exe: &str, workload: &str, trace: &str, extra: &[&str]) -> Output {
    Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", trace])
        .arg("--out-dir")
        .arg(out_dir(workload))
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// Parses the result line and checks its envelope; returns `metrics`
/// as `(name, value, unit)`.
fn result_metrics(out: &Output) -> Vec<(String, f64, String)> {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("failed").and_then(Json::num),
        Some(0.0),
        "ops_failed"
    );
    assert!(doc.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);
    doc.get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            let value = m.get("value").and_then(Json::num).expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            (
                name.clone(),
                value,
                m.get("unit").and_then(Json::str).expect("unit").to_owned(),
            )
        })
        .collect()
}

fn value(metrics: &[(String, f64, String)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn workloads_are_exactly_those_of_benchmark_json() {
    let listed: Vec<String> = contract()
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("name").to_owned())
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn benchmark_json_keeps_the_contract_limits() {
    let doc = contract();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let ok_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in names(doc.get(section).expect(section)) {
            assert!(ok_name(&name), "bad name {name}");
            assert!(ok_unit(&unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
    }
    for w in doc.get("workloads").expect("workloads").items() {
        let name = w.get("name").and_then(Json::str).expect("name");
        assert!(ok_name(name) && seen.insert(name.to_owned()));
        let why = w.get("why").and_then(Json::str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    assert!(doc.get("per_layer").expect("per_layer").items().len() <= 128);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert_eq!(seconds, whodunit_benchmark::DEFAULT_SECONDS);
    let setup = doc
        .get("end_to_end")
        .expect("end_to_end")
        .items()
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"))
        .expect("setup_s is gated");
    assert_eq!(setup.get("unit").and_then(Json::str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::str), Some("lower"));
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn plain_run_emits_exactly_the_end_to_end_metrics() {
    let want = names(contract().get("end_to_end").expect("end_to_end"));
    for w in WORKLOADS {
        let metrics = result_metrics(&run(env!("CARGO_BIN_EXE_wbench"), w, "0", &[]));
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, want, "{w}");
        for (name, v, _) in &metrics {
            assert!(*v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn traced_run_emits_exactly_the_per_layer_metrics_and_they_sum() {
    let want = names(contract().get("per_layer").expect("per_layer"));
    for w in WORKLOADS {
        let metrics = result_metrics(&run(env!("CARGO_BIN_EXE_wbench-traced"), w, "1", &[]));
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, want, "{w}");

        // The layers' self times account for the traced pass.
        let coverage = value(&metrics, "proc.layer_coverage_pct");
        assert!(
            (95.0..=100.0).contains(&coverage),
            "{w}: coverage {coverage} %"
        );
        let layered: f64 = ["engine", "wire", "collector", "federation"]
            .iter()
            .map(|l| value(&metrics, &format!("{l}.self_ms")))
            .sum::<f64>()
            + value(&metrics, "proc.harness_self_ms");
        let pass_ms = value(&metrics, "proc.traced_pass_s") * 1e3;
        assert!(
            (layered - pass_ms).abs() <= 0.05 * pass_ms,
            "{w}: layers {layered} ms vs pass {pass_ms} ms"
        );

        // And so do the raw spans in the trace file, pass by pass.
        let path = out_dir(w).join(format!("{w}.trace.json"));
        let trace = Json::parse(&std::fs::read_to_string(&path).expect("trace file"))
            .expect("trace parses");
        assert_eq!(
            trace
                .get("stamp")
                .and_then(|s| s.get("workload"))
                .and_then(Json::str),
            Some(w)
        );
        let spans = trace.get("spans").expect("spans").items();
        assert!(!spans.is_empty());
        let field = |s: &Json, i: usize| s.items()[i].num().expect("number");
        let dur = |s: &Json| field(s, 3) - field(s, 2);
        let mut child_ns = vec![0.0; spans.len()];
        for s in spans {
            if field(s, 4) >= 0.0 {
                child_ns[field(s, 4) as usize] += dur(s);
            }
        }
        let passes = spans
            .iter()
            .map(|s| field(s, 5) as usize)
            .max()
            .expect("a pass")
            + 1;
        let (mut root, mut selfs) = (vec![0.0; passes], vec![0.0; passes]);
        for (i, s) in spans.iter().enumerate() {
            let p = field(s, 5) as usize;
            selfs[p] += dur(s) - child_ns[i];
            if field(s, 4) < 0.0 {
                root[p] += dur(s);
            }
        }
        for p in 0..passes {
            assert!(
                (selfs[p] - root[p]).abs() <= 0.05 * root[p],
                "{w} pass {p}: self times {} ns vs pass {} ns",
                selfs[p],
                root[p]
            );
        }
    }
}

#[test]
fn layer_separation_holds_on_the_counts() {
    let wide = result_metrics(&run(
        env!("CARGO_BIN_EXE_wbench-traced"),
        "ingest_wide",
        "1",
        &["--out-dir", out_dir("sep").to_str().expect("utf-8")],
    ));
    assert_eq!(value(&wide, "collector.snapshots"), 0.0);
    assert_eq!(value(&wide, "collector.revivals"), 0.0);
    assert_eq!(value(&wide, "collector.throttled"), 0.0);
    assert_eq!(value(&wide, "federation.checkpoints"), 0.0);
    let churn = result_metrics(&run(
        env!("CARGO_BIN_EXE_wbench-traced"),
        "ingest_churn",
        "1",
        &["--out-dir", out_dir("sep").to_str().expect("utf-8")],
    ));
    assert!(value(&churn, "collector.snapshots") > 0.0);
    assert!(value(&churn, "collector.revivals") > 0.0);
    assert!(value(&churn, "collector.throttled") > 0.0);
}

#[test]
fn exact_counts_repeat_at_the_same_seed() {
    let exe = env!("CARGO_BIN_EXE_wbench-traced");
    let dir = out_dir("repeat");
    let extra = ["--out-dir", dir.to_str().expect("utf-8")];
    for w in ["live_stack", "fed_lossy"] {
        let a = result_metrics(&run(exe, w, "1", &extra));
        let b = result_metrics(&run(exe, w, "1", &extra));
        for ((name, va, _), (_, vb, _)) in a.iter().zip(&b) {
            let exact = name.ends_with(".allocs")
                || name.ends_with(".alloc_mb")
                || ["delta.events", "wire.bytes_per_event", "engine.requests"]
                    .contains(&name.as_str());
            if exact {
                assert_eq!(va, vb, "{w}: {name} differs between two runs at one seed");
            }
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_run_before_any_number() {
    for w in WORKLOADS {
        let out = run(
            env!("CARGO_BIN_EXE_wbench"),
            w,
            "0",
            &["--corrupt-reference"],
        );
        assert!(!out.status.success(), "{w}: a corrupt reference passed");
        assert!(out.stdout.is_empty(), "{w}: printed before failing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("failed verification"), "{w}: {err}");
    }
}

#[test]
fn the_plain_binary_refuses_a_traced_run() {
    let out = run(env!("CARGO_BIN_EXE_wbench"), "ingest_wide", "1", &[]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
