//! Byte identity of the read side's sink writers against the writers
//! they replaced (`read_oracle`), over random dump sets whose stage and
//! frame names carry every byte the JSON escaper treats specially —
//! `"`, `\`, newlines, tabs, other control bytes — plus non-ASCII text
//! and empty names.
//!
//! Every case checks `to_json`, `dump_to_json`, every context label,
//! the stitched and crosstalk texts and the fingerprint byte for byte
//! against the oracle, and that the JSON reads back to the same dumps.
//! The sets are built to reach every branch the texts have: valid and
//! skipped stages, resolved and unresolved remote chains, out-of-range
//! frame and context indices in labels, and crosstalk rows.

mod read_oracle;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;
use std::sync::Arc;
use whodunit_core::dumpjson::{dump_from_json, dump_to_json, from_json, to_json};
use whodunit_core::pipeline::{analyze, PipelineConfig};
use whodunit_core::stitch::{
    ctx_string_of, DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter,
    DumpNode, StageDump,
};
use whodunit_core::synopsis::Synopsis;

/// The pieces names are glued from.
const PIECES: &[&str] = &[
    "", "main", "doGet", "x y", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}",
    "é", "世界", "→", "\\u0041", "/",
];

/// A random set of stage dumps (see the module doc).
struct DumpSets;

impl DumpSets {
    fn name(rng: &mut TestRng) -> String {
        (0..rng.gen_range(0..4usize))
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    /// A frame index, now and then one past the table.
    fn frame(rng: &mut TestRng, frames: usize) -> u32 {
        if frames == 0 || rng.gen_bool(0.05) {
            (frames + rng.gen_range(0..3usize)) as u32
        } else {
            rng.gen_range(0..frames) as u32
        }
    }

    /// A synopsis some stage of the set may have minted, or a stray.
    fn synopsis(rng: &mut TestRng, stages: usize) -> u64 {
        if rng.gen_bool(0.1) {
            rng.gen::<u64>()
        } else {
            Synopsis::new(rng.gen_range(0..stages as u32 + 1), rng.gen_range(0..4u32)).0
        }
    }

    /// A count, now and then a wide one.
    fn count(rng: &mut TestRng) -> u64 {
        if rng.gen_bool(0.2) {
            rng.gen_range(0..1u64 << 40)
        } else {
            rng.gen_range(0..200u64)
        }
    }

    fn stage(rng: &mut TestRng, si: usize, stages: usize) -> StageDump {
        let frames: Vec<Arc<str>> = (0..rng.gen_range(0..6usize))
            .map(|_| Self::name(rng).into())
            .collect();
        let nf = frames.len();
        let mut contexts = vec![DumpContext::default()];
        for _ in 0..rng.gen_range(0..5usize) {
            let mut atoms = Vec::new();
            if rng.gen_bool(0.5) {
                let chain = (0..rng.gen_range(1..4usize)).map(|_| Self::synopsis(rng, stages));
                atoms.push(DumpAtom::Remote(chain.collect()));
            }
            for _ in 0..rng.gen_range(0..3usize) {
                atoms.push(match rng.gen_range(0..3u32) {
                    0 => DumpAtom::Frame(Self::frame(rng, nf)),
                    1 => DumpAtom::Path(
                        (0..rng.gen_range(0..4usize))
                            .map(|_| Self::frame(rng, nf))
                            .collect(),
                    ),
                    _ => DumpAtom::Remote(
                        (0..rng.gen_range(0..3usize))
                            .map(|_| Self::synopsis(rng, stages))
                            .collect(),
                    ),
                });
            }
            contexts.push(DumpContext {
                atoms: atoms.into(),
            });
        }
        let nc = contexts.len() as u32;
        let ctx = |rng: &mut TestRng| {
            if rng.gen_bool(0.05) {
                nc + rng.gen_range(0..3u32)
            } else {
                rng.gen_range(0..nc)
            }
        };
        let ccts = (0..rng.gen_range(0..4usize))
            .map(|_| {
                let mut nodes = vec![DumpNode {
                    samples: Self::count(rng),
                    cycles: Self::count(rng),
                    ..DumpNode::default()
                }];
                for i in 1..rng.gen_range(1..8usize) {
                    nodes.push(DumpNode {
                        frame: Some(Self::frame(rng, nf)),
                        parent: Some(rng.gen_range(0..i as u32)),
                        samples: Self::count(rng),
                        cycles: Self::count(rng),
                        calls: Self::count(rng),
                    });
                }
                DumpCct {
                    ctx: ctx(rng),
                    nodes,
                }
            })
            .collect();
        let synopses = (0..rng.gen_range(0..4u32))
            .map(|counter| (Synopsis::new(si as u32, counter).0, ctx(rng)))
            .collect();
        let crosstalk_pairs = (0..rng.gen_range(0..3usize))
            .map(|_| DumpCrosstalkPair {
                waiter: ctx(rng),
                holder: ctx(rng),
                count: Self::count(rng),
                total_wait: Self::count(rng),
            })
            .collect();
        let crosstalk_waiters = (0..rng.gen_range(0..3usize))
            .map(|_| DumpCrosstalkWaiter {
                waiter: ctx(rng),
                count: Self::count(rng),
                total_wait: Self::count(rng),
            })
            .collect();
        StageDump {
            proc: si as u32,
            stage_name: Self::name(rng),
            frames,
            contexts,
            ccts,
            synopses,
            crosstalk_pairs,
            crosstalk_waiters,
            piggyback_bytes: rng.gen::<u64>(),
            messages: Self::count(rng),
        }
    }
}

impl Strategy for DumpSets {
    type Value = Vec<StageDump>;

    fn generate(&self, rng: &mut TestRng) -> Vec<StageDump> {
        let stages = rng.gen_range(1..6usize);
        (0..stages).map(|si| Self::stage(rng, si, stages)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn sink_writers_match_the_oracle_byte_for_byte(dumps in DumpSets) {
        let json = to_json(&dumps);
        prop_assert_eq!(&json, &read_oracle::to_json(&dumps));
        prop_assert_eq!(from_json(&json).expect("own output parses"), dumps.clone());
        for d in &dumps {
            let one = dump_to_json(d);
            prop_assert_eq!(&one, &read_oracle::dump_to_json(d));
            prop_assert_eq!(&dump_from_json(&one).expect("own output parses"), d);
            for ctx in 0..d.contexts.len() as u32 + 2 {
                prop_assert_eq!(
                    ctx_string_of(&d.frames, &d.contexts, ctx),
                    read_oracle::ctx_string_of(&d.frames, &d.contexts, ctx)
                );
            }
        }

        let rep = analyze(dumps, PipelineConfig::default());
        prop_assert_eq!(rep.stitched_text(), read_oracle::stitched_text(&rep));
        prop_assert_eq!(rep.crosstalk_text(), read_oracle::crosstalk_text(&rep));
        prop_assert_eq!(rep.fingerprint(), read_oracle::fingerprint(&rep));
        for stage in 0..rep.stages.len() + 1 {
            prop_assert_eq!(
                rep.origin_label(stage, 1),
                read_oracle::origin_label(&rep, stage, 1)
            );
        }
    }
}

/// The generator reaches the branches the module doc promises, so the
/// property above is not vacuous about them.
#[test]
fn random_sets_cover_the_text_branches() {
    let mut seen = [false; 6];
    for case in 0..400 {
        let dumps = DumpSets.generate(&mut proptest::test_runner::rng_for_case(case));
        let json = to_json(&dumps);
        seen[0] |= json.contains("\\u00");
        seen[1] |= json.contains("\\\"") && json.contains("世界");
        let rep = analyze(dumps, PipelineConfig::default());
        let text = rep.stitched_text();
        seen[2] |= !rep.warnings.is_empty();
        seen[3] |= !rep.unresolved.is_empty() && !rep.edges.is_empty();
        seen[4] |= text.contains("<frame ") || text.contains("<ctx ");
        seen[5] |= !rep.matrix.pairs.is_empty() && !rep.matrix.waiters.is_empty();
    }
    assert_eq!(
        seen, [true; 6],
        "escapes, names, warnings, edges, placeholders, crosstalk"
    );
}
