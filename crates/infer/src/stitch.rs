//! From pairings to request origins: the nesting heuristic.
//!
//! Pairing answers "which send produced this recv". This module
//! answers the profiling question Whodunit actually cares about:
//! "which *root request* is this message part of". The bridge is the
//! same causal rule the synopsis machinery encodes explicitly and the
//! black-box papers assume implicitly (synchronous workers): **a
//! thread works on behalf of the last message it received**, so a
//! send inherits the origin of its thread's most recent recv, and an
//! origin-tier send mints a fresh root.
//!
//! Everything in [`infer_stitch`] is computed from bare events — the
//! signature cannot see [`CommTruth`](whodunit_core::blackbox::CommTruth).
//! [`hybrid_stitch`] is the one place truth is consulted, and only in
//! the way a real deployment could: a *cooperating* tier's synopsis
//! rides the delivered message, so for a recv whose sender and
//! receiver both cooperate, the exact pairing and origin are simply
//! read off the wire.

use std::collections::{BTreeMap, HashMap};
use whodunit_core::blackbox::{CommEvent, CommEventId, CommKind, CommLog, TierVisibility};

use crate::pair::{infer_pairs, InferredPair, PairSource, Pairing, PairingConfig};

/// One recv attributed to a root request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InferredOrigin {
    /// The recv being attributed.
    pub recv: CommEventId,
    /// The send event that minted the root this recv is claimed to
    /// descend from.
    pub root: CommEventId,
    /// Minimum confidence along the inferred chain from root to here.
    pub confidence_ppm: u32,
    /// Synopsis-exact or timing-inferred.
    pub source: PairSource,
}

/// One aggregated proc → proc communication edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InferredEdge {
    /// Sending proc.
    pub from_proc: u32,
    /// Receiving proc.
    pub to_proc: u32,
    /// Number of paired messages on this edge.
    pub count: u64,
    /// Weakest pairing confidence observed on this edge.
    pub min_confidence_ppm: u32,
}

/// The full black-box stitching result for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InferredStitch {
    /// Asserted recv → send pairings, sorted by recv id.
    pub pairs: Vec<InferredPair>,
    /// Asserted recv → root attributions, sorted by recv id. Recvs
    /// whose chain hit an unknown link are *not* asserted (honesty
    /// beats coverage: precision is measured over what we claim).
    pub origins: Vec<InferredOrigin>,
    /// Procs classified as origin tiers (fresh root per send).
    pub origin_procs: Vec<u32>,
    /// Root-minting sends, sorted.
    pub roots: Vec<CommEventId>,
    /// Aggregated proc → proc edges, sorted by (from, to).
    pub edges: Vec<InferredEdge>,
    /// Recvs no send could be nominated for.
    pub unpaired_recvs: Vec<CommEventId>,
    /// Sends never claimed by any recv.
    pub unclaimed_sends: Vec<CommEventId>,
    /// Recvs that were paired but whose origin chain broke.
    pub unknown_origin_recvs: Vec<CommEventId>,
}

impl InferredStitch {
    /// Asserted origins as a recv → root map.
    pub fn origin_map(&self) -> HashMap<CommEventId, CommEventId> {
        self.origins.iter().map(|o| (o.recv, o.root)).collect()
    }

    /// Asserted pairings as a recv → send map.
    pub fn pair_map(&self) -> HashMap<CommEventId, CommEventId> {
        self.pairs.iter().map(|p| (p.recv, p.send)).collect()
    }
}

/// Infers pairings and origins from bare events (no ground truth).
pub fn infer_stitch(events: &[CommEvent], cfg: &PairingConfig) -> InferredStitch {
    let pairing = infer_pairs(events, cfg);
    let origin_procs = classify_origin_procs(events);
    walk_origins(events, pairing, origin_procs, &HashMap::new())
}

/// Infers with per-tier visibility: recvs whose sender *and* receiver
/// procs both cooperate are attributed exactly from their synopses
/// (the tag rides the delivered message); everything else falls back
/// to timing inference over the remaining traffic. Procs with ids
/// beyond `vis.len()` — e.g. clients the operator cannot instrument —
/// default to [`TierVisibility::Opaque`].
pub fn hybrid_stitch(log: &CommLog, vis: &[TierVisibility], cfg: &PairingConfig) -> InferredStitch {
    let coop = |p: u32| {
        vis.get(p as usize)
            .copied()
            .unwrap_or(TierVisibility::Opaque)
            == TierVisibility::Cooperating
    };
    let by_id: HashMap<CommEventId, &CommEvent> = log.events.iter().map(|e| (e.id, e)).collect();
    let truth_pairs = log.truth_pairs();
    let truth_origins = log.truth_origins();

    // Split the log: synopsis-covered recvs (and the sends that are
    // their true producers) leave the inference problem entirely —
    // each cooperating tier resolves its own inbound edges, which is
    // exactly why partial cooperation makes the opaque remainder
    // *easier*, not harder.
    let mut synopsis_pairs: Vec<InferredPair> = Vec::new();
    let mut exact_origins: HashMap<CommEventId, CommEventId> = HashMap::new();
    let mut covered_sends: HashMap<CommEventId, bool> = HashMap::new();
    for e in &log.events {
        if e.kind != CommKind::Recv {
            continue;
        }
        let Some(&send) = truth_pairs.get(&e.id) else {
            continue;
        };
        let sender_coop = by_id.get(&send).map(|s| coop(s.proc)).unwrap_or(false);
        if sender_coop && coop(e.proc) {
            synopsis_pairs.push(InferredPair {
                recv: e.id,
                send,
                confidence_ppm: 1_000_000,
                source: PairSource::Synopsis,
            });
            if let Some(&root) = truth_origins.get(&e.id) {
                exact_origins.insert(e.id, root);
            }
            covered_sends.insert(send, true);
        }
    }
    let covered_recvs: HashMap<CommEventId, bool> =
        synopsis_pairs.iter().map(|p| (p.recv, true)).collect();
    let residue: Vec<CommEvent> = log
        .events
        .iter()
        .filter(|e| match e.kind {
            CommKind::Send => !covered_sends.contains_key(&e.id),
            CommKind::Recv => !covered_recvs.contains_key(&e.id),
        })
        .cloned()
        .collect();

    let mut pairing = infer_pairs(&residue, cfg);
    pairing.pairs.extend(synopsis_pairs);
    pairing.pairs.sort_by_key(|p| p.recv);

    // Classification still sees the whole log: visibility changes who
    // explains a message, not who exists.
    let origin_procs = classify_origin_procs(&log.events);
    walk_origins(&log.events, pairing, origin_procs, &exact_origins)
}

/// Majority vote per proc: a proc whose threads mostly *send before
/// ever receiving* is an origin tier (clients, load generators);
/// worker tiers wake up to a recv.
fn classify_origin_procs(events: &[CommEvent]) -> Vec<u32> {
    let mut sorted: Vec<&CommEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.at, e.id));
    let mut first_kind: HashMap<(u32, u32), CommKind> = HashMap::new();
    for e in &sorted {
        first_kind.entry((e.proc, e.thread)).or_insert(e.kind);
    }
    let mut votes: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ((proc, _), kind) in &first_kind {
        let v = votes.entry(*proc).or_insert((0, 0));
        match kind {
            CommKind::Send => v.0 += 1,
            CommKind::Recv => v.1 += 1,
        }
    }
    votes
        .into_iter()
        .filter(|(_, (send_first, recv_first))| send_first > recv_first)
        .map(|(p, _)| p)
        .collect()
}

/// Replays the log in causal order, propagating roots through the
/// per-thread inheritance rule.
fn walk_origins(
    events: &[CommEvent],
    pairing: Pairing,
    origin_procs: Vec<u32>,
    exact_origins: &HashMap<CommEventId, CommEventId>,
) -> InferredStitch {
    let mut sorted: Vec<&CommEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.at, e.id));
    let by_id: HashMap<CommEventId, &CommEvent> = events.iter().map(|e| (e.id, e)).collect();
    let pair_of: HashMap<CommEventId, (CommEventId, u32, PairSource)> = pairing
        .pairs
        .iter()
        .map(|p| (p.recv, (p.send, p.confidence_ppm, p.source)))
        .collect();

    let is_origin_proc: HashMap<u32, bool> = origin_procs.iter().map(|&p| (p, true)).collect();
    // Per-thread: (has ever received, origin of last recv if known).
    type ThreadSlot = (bool, Option<(CommEventId, u32)>);
    let mut threads: HashMap<(u32, u32), ThreadSlot> = HashMap::new();
    // Per-send: the root it carries, if known.
    let mut send_origin: HashMap<CommEventId, Option<(CommEventId, u32)>> = HashMap::new();

    let mut origins: Vec<InferredOrigin> = Vec::new();
    let mut roots: Vec<CommEventId> = Vec::new();
    let mut unknown: Vec<CommEventId> = Vec::new();

    for e in &sorted {
        let slot = threads.entry((e.proc, e.thread)).or_insert((false, None));
        match e.kind {
            CommKind::Send => {
                let minted = is_origin_proc.contains_key(&e.proc) || !slot.0;
                if minted {
                    // Fresh root: origin tiers mint per send, and a
                    // thread that has never received is self-starting.
                    roots.push(e.id);
                    send_origin.insert(e.id, Some((e.id, 1_000_000)));
                } else {
                    send_origin.insert(e.id, slot.1);
                }
            }
            CommKind::Recv => {
                slot.0 = true;
                if let Some(&root) = exact_origins.get(&e.id) {
                    // Synopsis-borne origin: exact by construction.
                    origins.push(InferredOrigin {
                        recv: e.id,
                        root,
                        confidence_ppm: 1_000_000,
                        source: PairSource::Synopsis,
                    });
                    slot.1 = Some((root, 1_000_000));
                    continue;
                }
                let resolved = pair_of.get(&e.id).and_then(|&(send, conf, _)| {
                    send_origin
                        .get(&send)
                        .copied()
                        .flatten()
                        .map(|(root, root_conf)| (root, conf.min(root_conf)))
                });
                match resolved {
                    Some((root, conf)) => {
                        origins.push(InferredOrigin {
                            recv: e.id,
                            root,
                            confidence_ppm: conf,
                            source: PairSource::Inferred,
                        });
                        slot.1 = Some((root, conf));
                    }
                    None => {
                        // Chain broke (unpaired, or the paired send's
                        // own origin was unknown): do not guess.
                        unknown.push(e.id);
                        slot.1 = None;
                    }
                }
            }
        }
    }

    let mut edges: BTreeMap<(u32, u32), (u64, u32)> = BTreeMap::new();
    for p in &pairing.pairs {
        let (Some(s), Some(r)) = (by_id.get(&p.send), by_id.get(&p.recv)) else {
            continue;
        };
        let e = edges.entry((s.proc, r.proc)).or_insert((0, u32::MAX));
        e.0 += 1;
        e.1 = e.1.min(p.confidence_ppm);
    }

    origins.sort_by_key(|o| o.recv);
    roots.sort_unstable();
    unknown.sort_unstable();
    InferredStitch {
        pairs: pairing.pairs,
        origins,
        origin_procs,
        roots,
        edges: edges
            .into_iter()
            .map(|((f, t), (count, min_confidence_ppm))| InferredEdge {
                from_proc: f,
                to_proc: t,
                count,
                min_confidence_ppm,
            })
            .collect(),
        unpaired_recvs: pairing.unpaired_recvs,
        unclaimed_sends: pairing.unclaimed_sends,
        unknown_origin_recvs: unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, at: u64, kind: CommKind, chan: u32, proc: u32, thread: u32) -> CommEvent {
        CommEvent {
            id,
            at,
            kind,
            chan,
            proc,
            thread,
            bytes: 64,
        }
    }

    /// client(p0) -> front(p1) -> db(p2): two requests, constant
    /// latencies, one worker thread per tier.
    fn three_tier() -> Vec<CommEvent> {
        let mut v = Vec::new();
        let mut id = 0;
        for i in 0..2u64 {
            let t0 = i * 10_000;
            // client sends on chan 0, front recvs
            v.push(ev(id, t0, CommKind::Send, 0, 0, 0));
            v.push(ev(id + 1, t0 + 500, CommKind::Recv, 0, 1, 0));
            // front forwards on chan 1, db recvs
            v.push(ev(id + 2, t0 + 700, CommKind::Send, 1, 1, 0));
            v.push(ev(id + 3, t0 + 1200, CommKind::Recv, 1, 2, 0));
            // db replies on chan 2, front recvs
            v.push(ev(id + 4, t0 + 1400, CommKind::Send, 2, 2, 0));
            v.push(ev(id + 5, t0 + 1900, CommKind::Recv, 2, 1, 0));
            // front replies on chan 3, client recvs
            v.push(ev(id + 6, t0 + 2000, CommKind::Send, 3, 1, 0));
            v.push(ev(id + 7, t0 + 2500, CommKind::Recv, 3, 0, 0));
            id += 8;
        }
        v
    }

    #[test]
    fn three_tier_pipeline_recovers_exact_origins() {
        let events = three_tier();
        let s = infer_stitch(&events, &PairingConfig::default());
        assert_eq!(s.origin_procs, vec![0]);
        assert_eq!(s.roots, vec![0, 8]);
        // Every recv of request i descends from root 8*i.
        assert_eq!(s.origins.len(), 8);
        for o in &s.origins {
            assert_eq!(o.root, (o.recv / 8) * 8, "recv {} mis-rooted", o.recv);
            assert_eq!(o.confidence_ppm, 1_000_000);
            assert_eq!(o.source, PairSource::Inferred);
        }
        assert!(s.unknown_origin_recvs.is_empty());
        // Edges: 0->1, 1->2, 2->1, 1->0, two messages each.
        assert_eq!(s.edges.len(), 4);
        assert!(s.edges.iter().all(|e| e.count == 2));
    }

    #[test]
    fn broken_chain_is_not_asserted() {
        // The client's first send is missing from the log (tap
        // outage): the front tier's inbound recv cannot be paired,
        // its forwarded send has unknown origin, and the db recv
        // must not be attributed — honesty over coverage.
        let mut events = three_tier();
        events.retain(|e| e.id != 0);
        let s = infer_stitch(&events, &PairingConfig::default());
        assert!(s.unpaired_recvs.contains(&1));
        assert!(s.unknown_origin_recvs.contains(&3));
        assert!(s.origins.iter().all(|o| o.recv != 3));
    }

    #[test]
    fn full_visibility_hybrid_reproduces_truth_exactly() {
        use whodunit_core::blackbox::CommRecorder;
        let mut rec = CommRecorder::default();
        rec.mark_origin_proc(0);
        // Two client requests through one worker.
        for i in 0..2u64 {
            let t = i * 1000;
            let tag = rec.on_send(t, 0, 0, 0, 64);
            rec.on_recv(t + 100, 0, 1, 0, 64, tag);
            let tag = rec.on_send(t + 150, 1, 1, 0, 64);
            rec.on_recv(t + 250, 1, 2, 0, 64, tag);
        }
        let log = rec.finish();
        let vis = vec![TierVisibility::Cooperating; 3];
        let s = hybrid_stitch(&log, &vis, &PairingConfig::default());
        assert_eq!(s.origin_map(), log.truth_origins());
        assert_eq!(s.pair_map(), log.truth_pairs());
        assert!(s.pairs.iter().all(|p| p.source == PairSource::Synopsis));
        assert!(s.origins.iter().all(|o| o.confidence_ppm == 1_000_000));
    }

    #[test]
    fn opaque_middle_tier_degrades_not_collapses() {
        use whodunit_core::blackbox::CommRecorder;
        let mut rec = CommRecorder::default();
        rec.mark_origin_proc(0);
        for i in 0..3u64 {
            let t = i * 10_000;
            let tag = rec.on_send(t, 0, 0, 0, 64);
            rec.on_recv(t + 100, 0, 1, 0, 64, tag);
            let tag = rec.on_send(t + 150, 1, 1, 0, 64);
            rec.on_recv(t + 250, 1, 2, 0, 64, tag);
        }
        let log = rec.finish();
        let vis = vec![
            TierVisibility::Cooperating,
            TierVisibility::Opaque, // middle tier won't export
            TierVisibility::Cooperating,
        ];
        let s = hybrid_stitch(&log, &vis, &PairingConfig::default());
        // Nothing rides a synopsis (every edge touches the opaque
        // tier) but timing still recovers all six origins.
        assert!(s.pairs.iter().all(|p| p.source == PairSource::Inferred));
        assert_eq!(s.origin_map(), log.truth_origins());
    }
}
