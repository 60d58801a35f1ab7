//! The summary merge as it was before it merge-joined sorted lists in
//! place, kept as the oracle for `summary::merge_stage_delta` and
//! `summary::merge_owned_delta`: CCT lists merge-joined into a fresh
//! `Vec`, grown rows placed one `binary_search` + `Vec::insert` at a
//! time, and the crosstalk lists rebuilt through `BTreeMap`s, so any
//! key order and any repeated key compose by sum into one sorted list.
//! The composition checks are the product's own `check_merge`.

use std::collections::BTreeMap;
use whodunit_core::delta::{CctDelta, StageDelta};
use whodunit_core::stitch::{DumpCrosstalkPair, DumpCrosstalkWaiter};
use whodunit_core::summary::{check_merge, MergeError};

/// Sequentially composes `next` into `acc`, as the product did.
pub fn merge(acc: &mut StageDelta, next: &StageDelta) -> Result<(), MergeError> {
    check_merge(acc, next)?;
    acc.new_frames.extend(next.new_frames.iter().cloned());
    acc.new_contexts.extend(next.new_contexts.iter().cloned());
    acc.new_synopses.extend(next.new_synopses.iter().copied());

    let mut merged = Vec::with_capacity(acc.ccts.len() + next.ccts.len());
    let mut ai = std::mem::take(&mut acc.ccts).into_iter().peekable();
    for n in &next.ccts {
        while let Some(a) = ai.next_if(|a| a.ctx < n.ctx) {
            merged.push(a);
        }
        match ai.next_if(|a| a.ctx == n.ctx) {
            Some(mut a) => {
                compose_cct(&mut a, n);
                merged.push(a);
            }
            None => merged.push(n.clone()),
        }
    }
    merged.extend(ai);
    acc.ccts = merged;

    let mut pairs: BTreeMap<(u32, u32), (u64, u64)> = acc
        .pairs
        .drain(..)
        .map(|p| ((p.waiter, p.holder), (p.count, p.total_wait)))
        .collect();
    for p in &next.pairs {
        let e = pairs.entry((p.waiter, p.holder)).or_insert((0, 0));
        e.0 += p.count;
        e.1 += p.total_wait;
    }
    acc.pairs = pairs
        .into_iter()
        .map(
            |((waiter, holder), (count, total_wait))| DumpCrosstalkPair {
                waiter,
                holder,
                count,
                total_wait,
            },
        )
        .collect();
    let mut waiters: BTreeMap<u32, (u64, u64)> = acc
        .waiters
        .drain(..)
        .map(|w| (w.waiter, (w.count, w.total_wait)))
        .collect();
    for w in &next.waiters {
        let e = waiters.entry(w.waiter).or_insert((0, 0));
        e.0 += w.count;
        e.1 += w.total_wait;
    }
    acc.waiters = waiters
        .into_iter()
        .map(|(waiter, (count, total_wait))| DumpCrosstalkWaiter {
            waiter,
            count,
            total_wait,
        })
        .collect();

    acc.piggyback_bytes += next.piggyback_bytes;
    acc.messages += next.messages;
    acc.checksum = 0;
    Ok(())
}

fn compose_cct(a: &mut CctDelta, n: &CctDelta) {
    for &(i, s, cy, ca) in &n.grown {
        if i < a.nodes_before {
            match a.grown.binary_search_by_key(&i, |g| g.0) {
                Ok(at) => {
                    let g = &mut a.grown[at];
                    g.1 += s;
                    g.2 += cy;
                    g.3 += ca;
                }
                Err(at) => a.grown.insert(at, (i, s, cy, ca)),
            }
        } else if let Some(node) = a.new_nodes.get_mut((i - a.nodes_before) as usize) {
            node.samples += s;
            node.cycles += cy;
            node.calls += ca;
        }
    }
    a.new_nodes.extend(n.new_nodes.iter().copied());
}
