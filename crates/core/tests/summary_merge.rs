//! The summary merge on canonical and on non-canonical deltas.
//!
//! `merge_stage_delta` and `merge_owned_delta` merge-join keyed lists
//! in place, and take only deltas in canonical form
//! (`StageDelta::check_order`: every keyed list strictly ascending).
//! Random contiguous delta pairs are cut from three growing snapshots
//! of one stage. A pair as diffed must merge into a delta whose
//! application equals applying both in turn. The same pair with its
//! keyed lists disordered or repeated must be refused by both merges,
//! with both operands left as they were.

use proptest::prelude::*;
use whodunit_core::delta::{diff_dump, StageAccumulator, StageDelta, StreamStage};
use whodunit_core::stitch::{
    DumpAtom, DumpCct, DumpContext, DumpCrosstalkPair, DumpCrosstalkWaiter, DumpNode, StageDump,
};
use whodunit_core::summary::{
    check_merge, merge_owned_delta, merge_stage_delta, seal_delta, MergeError,
};

/// A xorshift stream, so one proptest seed draws a whole stage history.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }
}

fn stage() -> StreamStage {
    StreamStage {
        proc: 1,
        stage_name: "svc".into(),
    }
}

/// The next snapshot after `s`: maybe new frames and contexts, growth
/// and new nodes in some CCTs, a CCT for a context that had none, a
/// synopsis minted, and crosstalk rows grown or added.
fn grow(s: &StageDump, rng: &mut Rng) -> StageDump {
    let mut s = s.clone();
    for _ in 0..rng.below(2) {
        s.frames.push(format!("f{}", s.frames.len()).into());
    }
    for _ in 0..rng.below(3) {
        let f = rng.below(s.frames.len() as u64) as u32;
        s.contexts.push(DumpContext {
            atoms: vec![DumpAtom::Frame(f)].into(),
        });
    }
    let frames = s.frames.len() as u64;
    for c in &mut s.ccts {
        for n in &mut c.nodes {
            if rng.below(2) == 0 {
                n.samples += rng.below(3);
                n.cycles += rng.below(500);
                n.calls += rng.below(2);
            }
        }
        for _ in 0..rng.below(3) {
            let parent = rng.below(c.nodes.len() as u64) as u32;
            c.nodes.push(DumpNode {
                frame: Some(rng.below(frames) as u32),
                parent: Some(parent),
                samples: rng.below(4),
                cycles: rng.below(900),
                calls: 1,
            });
        }
    }
    for ctx in 0..s.contexts.len() as u32 {
        if rng.below(3) == 0 && !s.ccts.iter().any(|c| c.ctx == ctx) {
            let root = DumpNode {
                frame: None,
                parent: None,
                samples: 0,
                cycles: rng.below(100),
                calls: 0,
            };
            s.ccts.push(DumpCct {
                ctx,
                nodes: vec![root],
            });
        }
        if rng.below(4) == 0 && !s.synopses.iter().any(|&(_, c)| c == ctx) {
            s.synopses.push((0x0100_0000 + u64::from(ctx), ctx));
        }
    }
    s.ccts.sort_by_key(|c| c.ctx);
    s.synopses.sort_by_key(|&(_, c)| c);
    for _ in 0..rng.below(4) {
        let (waiter, holder) = (rng.below(4) as u32, rng.below(4) as u32);
        match s
            .crosstalk_pairs
            .iter_mut()
            .find(|p| (p.waiter, p.holder) == (waiter, holder))
        {
            Some(p) => {
                p.count += 1;
                p.total_wait += rng.below(50);
            }
            None => s.crosstalk_pairs.push(DumpCrosstalkPair {
                waiter,
                holder,
                count: 1,
                total_wait: rng.below(50),
            }),
        }
        match s.crosstalk_waiters.iter_mut().find(|w| w.waiter == waiter) {
            Some(w) => {
                w.count += 1;
                w.total_wait += rng.below(50);
            }
            None => s.crosstalk_waiters.push(DumpCrosstalkWaiter {
                waiter,
                count: 1,
                total_wait: rng.below(50),
            }),
        }
    }
    s.crosstalk_pairs.sort_by_key(|p| (p.waiter, p.holder));
    s.crosstalk_waiters.sort_by_key(|w| w.waiter);
    s.piggyback_bytes += rng.below(16);
    s.messages += rng.below(2);
    s
}

/// Three snapshots and the deltas between them: `d0` from nothing,
/// then the contiguous pair `d1`, `d2`. A delta that changes nothing
/// is the empty delta with its seq.
fn history(seed: u64) -> ([StageDump; 3], [StageDelta; 3]) {
    let mut rng = Rng(seed | 1);
    let mut s0 = StageDump {
        proc: 1,
        stage_name: "svc".into(),
        frames: vec!["main".into()],
        ..StageDump::default()
    };
    // A few epochs first, so the pair grows trees of several nodes.
    for _ in 0..1 + rng.below(4) {
        s0 = grow(&s0, &mut rng);
    }
    let s1 = grow(&s0, &mut rng);
    let s2 = grow(&s1, &mut rng);
    let diff = |seq: u64, prev: Option<&StageDump>, cur: &StageDump| {
        diff_dump(0, seq, prev, cur).unwrap_or_else(|| {
            let mut d = whodunit_core::summary::empty_delta(0);
            d.seq = seq;
            d.seal();
            d
        })
    };
    let d = [
        diff(0, None, &s0),
        diff(1, Some(&s0), &s1),
        diff(2, Some(&s1), &s2),
    ];
    ([s0, s1, s2], d)
}

/// `d`'s keyed lists, disordered and repeated as `mask` picks:
/// crosstalk rows reversed and one repeated, growth rows reversed.
fn disorder(d: &mut StageDelta, mask: u8) {
    if mask & 1 != 0 {
        d.pairs.reverse();
        d.waiters.reverse();
    }
    if mask & 2 != 0 {
        if let Some(&p) = d.pairs.first() {
            d.pairs.push(p);
        }
        if let Some(&w) = d.waiters.last() {
            d.waiters.insert(0, w);
        }
    }
    if mask & 4 != 0 {
        d.ccts.iter_mut().for_each(|c| c.grown.reverse());
    }
    if mask & 8 != 0 {
        d.ccts.reverse();
    }
}

/// Both product merges of `next` into `acc`, which must agree; a
/// refused merge leaves both operands as they were.
fn product(acc: &StageDelta, next: &StageDelta) -> Result<StageDelta, MergeError> {
    let mut borrowed = acc.clone();
    let b = merge_stage_delta(&mut borrowed, next);
    let (mut owned, mut spent) = (acc.clone(), next.clone());
    let o = merge_owned_delta(&mut owned, &mut spent);
    assert_eq!(
        (&b, &borrowed),
        (&o, &owned),
        "the borrowed and the owned merge differ"
    );
    if b.is_err() {
        assert_eq!(&borrowed, acc, "a refused merge changed the earlier delta");
        assert_eq!(&spent, next, "a refused owned merge moved rows");
    }
    b.map(|()| borrowed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_pairs_merge_as_applied_in_turn_and_others_are_refused(
        case in (any::<u64>(), 0u8..16, 0u8..16)
    ) {
        let (seed, earlier, later) = case;
        let ([_, _, s2], [d0, d1, d2]) = history(seed);

        // As diffed: the merge law.
        let merged = product(&d1, &d2).expect("contiguous increments merge");
        let mut one = StageAccumulator::new(&stage());
        one.apply(&d0).unwrap();
        one.apply(&seal_delta(merged, 1)).unwrap();
        let mut both = StageAccumulator::new(&stage());
        for d in [&d0, &d1, &d2] {
            both.apply(d).unwrap();
        }
        prop_assert_eq!(one.to_dump(), both.to_dump());
        prop_assert_eq!(one.to_dump(), s2);
        // The running totals are the dump's sums, whether the
        // increments arrived one by one or merged.
        let mass = s2.ccts.iter().flat_map(|c| &c.nodes).map(|n| n.cycles).sum::<u64>();
        let wait = s2.crosstalk_pairs.iter().map(|p| p.total_wait).sum::<u64>();
        for acc in [&one, &both] {
            prop_assert_eq!((acc.mass(), acc.pair_wait()), (mass, wait));
        }

        // Disordered or repeated keys in either operand: refused with
        // the first rule the earlier delta breaks, else the later's,
        // both left untouched (`product`). Every mask that changes a
        // list breaks a rule; one that changes nothing leaves a pair
        // that merges.
        let (mut a, mut n) = (d1.clone(), d2.clone());
        disorder(&mut a, earlier);
        disorder(&mut n, later);
        for (a, n) in [(&a, &n), (&d1, &n), (&a, &d2)] {
            let broken = a.check_order().and(n.check_order());
            prop_assert_eq!(broken.is_ok(), (a, n) == (&d1, &d2));
            let refusal = broken.map_err(|what| MergeError { stage: 0, what });
            prop_assert_eq!(check_merge(a, n), refusal.clone());
            prop_assert_eq!(product(a, n).map(|_| ()), refusal);
        }
    }
}
