//! Standalone post-mortem profile viewer — the paper's "final
//! presentation phase" (§7.1) as a tool.
//!
//! Reads one or more stage-dump JSON files (as written by
//! `whodunit_core::dumpjson::to_json`), stitches them, and renders the
//! end-to-end transactional profile.
//!
//! ```console
//! $ whodunit-view profile.json             # text trees + edges
//! $ whodunit-view --dot profile.json       # Graphviz DOT (Figure 7)
//! $ whodunit-view --shares profile.json    # per-context CPU shares
//! ```

use std::process::ExitCode;
use whodunit_core::dumpjson;
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_report::render;

fn usage() -> ExitCode {
    eprintln!("usage: whodunit-view [--dot|--shares|--text] <dumps.json>...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "--text".to_owned();
    let mut files = Vec::new();
    for a in args {
        if a.starts_with("--") {
            mode = a;
        } else {
            files.push(a);
        }
    }
    if files.is_empty() {
        return usage();
    }
    let mut dumps = Vec::new();
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("whodunit-view: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match dumpjson::from_json(&text) {
            Ok(mut ds) => dumps.append(&mut ds),
            Err(e) => {
                eprintln!("whodunit-view: {f} is not a profile dump: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let stitched = analyze(dumps, PipelineConfig::default());
    match mode.as_str() {
        "--dot" => print!("{}", render::render_stitched_dot(&stitched)),
        "--shares" => {
            for d in &stitched.stages {
                println!("stage {} ({}):", d.proc, d.stage_name);
                for s in render::context_shares(d) {
                    println!("  {:6.2}%  {}", s.pct, s.ctx);
                }
            }
        }
        "--text" => print!("{}", render::render_stitched_text(&stitched)),
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
