//! Message pairing from timing alone (the vPath-style heuristic).
//!
//! For every recv, nominate the send that produced it using only what
//! a passive observer knows: each channel is FIFO-ish, delivery takes
//! at least the channel's base latency, and delays cluster in a
//! bounded band. Nothing here may read [`whodunit_core::blackbox::CommTruth`];
//! the function signature takes bare events to enforce that at the
//! type level.
//!
//! # Algorithm
//!
//! Per channel:
//!
//! 1. **Delay-band estimation** (pass 1): index-align the time-sorted
//!    sends and recvs and take the min/max of the aligned deltas as the
//!    channel's plausible delay band `[min_delay, max_delay]`. With
//!    drops the alignment shifts toward *over*-estimating delay (a recv
//!    aligns with a send at or before its true sender), so the band
//!    stays a sound cover of clean traffic and merely widens under
//!    faults — which is the honest direction: wider band, lower
//!    confidence.
//! 2. **Window matching** (pass 2): a send `s` is *feasible* for recv
//!    `r` iff `min_delay <= r.at - s.at <= max_delay + slack`. The
//!    recv's **ambiguity** is the number of feasible sends — a pure
//!    function of the event log and the band, deliberately independent
//!    of matching state so that widening the band can only ever raise
//!    ambiguity (this monotonicity is what the proptest properties
//!    pin). The reported confidence is `1/ambiguity`.
//! 3. **Choice**: ambiguity 1 pairs the unique feasible send
//!    unconditionally (even if an earlier ambiguous recv already
//!    claimed it — under a sound band the unique feasible send *is*
//!    the true sender). Higher ambiguity pairs the earliest unclaimed
//!    feasible send (FIFO). No feasible send falls back to the
//!    earliest unclaimed send that is merely not-from-the-future, at
//!    confidence 0 — asserted, but admitting it has no timing support.

use std::collections::BTreeSet;
use std::collections::HashMap;
use whodunit_core::blackbox::{CommEvent, CommEventId, CommKind};

/// Pairing knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairingConfig {
    /// Extra cycles added to the top of every channel's estimated
    /// delay band. Models the observer's uncertainty about how much
    /// jitter a faulty network can add; widening it trades confidence
    /// for coverage.
    pub delay_slack: u64,
}

/// Where a pairing came from (hybrid mode mixes both).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairSource {
    /// Exact: the receiving tier read the sender's synopsis chain.
    Synopsis,
    /// Inferred from timing/order alone.
    Inferred,
}

/// One asserted recv → send pairing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InferredPair {
    /// The recv event being attributed.
    pub recv: CommEventId,
    /// The send asserted to have produced it.
    pub send: CommEventId,
    /// `1e6 / ambiguity` — 1.0 means the timing window admitted
    /// exactly one sender; 0 means the pairing has no timing support
    /// (pure FIFO fallback).
    pub confidence_ppm: u32,
    /// Synopsis-exact or timing-inferred.
    pub source: PairSource,
}

/// The pairing pass output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Pairing {
    /// Asserted pairings, sorted by recv id.
    pub pairs: Vec<InferredPair>,
    /// Recvs no send could be nominated for.
    pub unpaired_recvs: Vec<CommEventId>,
    /// Sends never claimed by any recv (dropped, crashed receiver, or
    /// displaced by a mispairing).
    pub unclaimed_sends: Vec<CommEventId>,
}

impl Pairing {
    /// Pairings at full confidence (ambiguity exactly 1).
    pub fn confident(&self) -> impl Iterator<Item = &InferredPair> {
        self.pairs.iter().filter(|p| p.confidence_ppm == 1_000_000)
    }
}

/// Events of one channel, canonically ordered.
struct ChannelView<'a> {
    sends: Vec<&'a CommEvent>,
    recvs: Vec<&'a CommEvent>,
}

/// Infers the recv → send pairing for an event log.
///
/// The result is a pure function of the event *set*: events are
/// canonically re-sorted by `(time, id)` first, so any permutation of
/// the input slice yields byte-identical output.
pub fn infer_pairs(events: &[CommEvent], cfg: &PairingConfig) -> Pairing {
    let mut by_chan: HashMap<u32, ChannelView<'_>> = HashMap::new();
    let mut sorted: Vec<&CommEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.at, e.id));
    for e in &sorted {
        let v = by_chan.entry(e.chan).or_insert_with(|| ChannelView {
            sends: Vec::new(),
            recvs: Vec::new(),
        });
        match e.kind {
            CommKind::Send => v.sends.push(e),
            CommKind::Recv => v.recvs.push(e),
        }
    }

    let mut out = Pairing::default();
    let mut chans: Vec<u32> = by_chan.keys().copied().collect();
    chans.sort_unstable();
    for chan in chans {
        let v = &by_chan[&chan];
        match_channel(v, cfg, &mut out);
    }
    out.pairs.sort_by_key(|p| p.recv);
    out.unpaired_recvs.sort_unstable();
    out.unclaimed_sends.sort_unstable();
    out
}

fn match_channel(v: &ChannelView<'_>, cfg: &PairingConfig, out: &mut Pairing) {
    if v.recvs.is_empty() {
        out.unclaimed_sends.extend(v.sends.iter().map(|s| s.id));
        return;
    }
    if v.sends.is_empty() {
        out.unpaired_recvs.extend(v.recvs.iter().map(|r| r.id));
        return;
    }

    // Pass 1: index-aligned delay band.
    let n = v.sends.len().min(v.recvs.len());
    let mut min_delay = i64::MAX;
    let mut max_delay = i64::MIN;
    for i in 0..n {
        let d = v.recvs[i].at as i64 - v.sends[i].at as i64;
        min_delay = min_delay.min(d);
        max_delay = max_delay.max(d);
    }
    let min_delay = min_delay.max(0) as u64;
    let max_delay = (max_delay.max(0) as u64).max(min_delay) + cfg.delay_slack;

    // Pass 2: window matching. `unclaimed` indexes into `v.sends`,
    // which is (time, id)-sorted, so index order is arrival order.
    let mut unclaimed: BTreeSet<usize> = (0..v.sends.len()).collect();
    for r in &v.recvs {
        // Feasible sends form a contiguous index range [lo, hi).
        let earliest = r.at.saturating_sub(max_delay);
        let latest = r.at.saturating_sub(min_delay);
        let lo = v.sends.partition_point(|s| s.at < earliest);
        let hi = if r.at < min_delay {
            lo // nothing can have been sent "before time began"
        } else {
            v.sends.partition_point(|s| s.at <= latest)
        };
        let ambiguity = hi.saturating_sub(lo);
        let (choice, confidence_ppm) = if ambiguity == 1 {
            // A sound band admitting exactly one sender identifies it,
            // whether or not an earlier (ambiguous, possibly wrong)
            // recv already claimed it.
            (Some(lo), 1_000_000)
        } else if ambiguity > 1 {
            match unclaimed.range(lo..hi).next().copied() {
                Some(i) => (Some(i), (1_000_000 / ambiguity as u64) as u32),
                // Every feasible send already claimed: fall back to
                // FIFO over the past, with no timing support.
                None => (fifo_fallback(v, &unclaimed, r.at), 0),
            }
        } else {
            (fifo_fallback(v, &unclaimed, r.at), 0)
        };
        match choice {
            Some(i) => {
                unclaimed.remove(&i);
                out.pairs.push(InferredPair {
                    recv: r.id,
                    send: v.sends[i].id,
                    confidence_ppm,
                    source: PairSource::Inferred,
                });
            }
            None => out.unpaired_recvs.push(r.id),
        }
    }
    out.unclaimed_sends
        .extend(unclaimed.iter().map(|&i| v.sends[i].id));
}

/// Earliest unclaimed send not from the future.
fn fifo_fallback(v: &ChannelView<'_>, unclaimed: &BTreeSet<usize>, at: u64) -> Option<usize> {
    let hi = v.sends.partition_point(|s| s.at <= at);
    unclaimed.range(..hi).next().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, at: u64, kind: CommKind, chan: u32) -> CommEvent {
        CommEvent {
            id,
            at,
            kind,
            chan,
            proc: if kind == CommKind::Send { 0 } else { 1 },
            thread: if kind == CommKind::Send { 0 } else { 1 },
            bytes: 100,
        }
    }

    #[test]
    fn constant_latency_pipeline_pairs_exactly() {
        // Three sends 1000 apart, constant delay 500: unambiguous.
        let mut events = Vec::new();
        for i in 0..3u64 {
            events.push(ev(2 * i, i * 1000, CommKind::Send, 0));
            events.push(ev(2 * i + 1, i * 1000 + 500, CommKind::Recv, 0));
        }
        let p = infer_pairs(&events, &PairingConfig::default());
        assert_eq!(p.pairs.len(), 3);
        for pair in &p.pairs {
            assert_eq!(pair.send + 1, pair.recv);
            assert_eq!(pair.confidence_ppm, 1_000_000);
        }
        assert!(p.unpaired_recvs.is_empty());
        assert!(p.unclaimed_sends.is_empty());
    }

    #[test]
    fn overlapping_sends_lower_confidence() {
        // Jittery delays (500, 520, 520) widen the learned band to
        // [500, 520]; the middle recv's window then admits two
        // senders and its confidence halves, while the edge recvs
        // stay unambiguous.
        let events = vec![
            ev(0, 0, CommKind::Send, 0),
            ev(1, 10, CommKind::Send, 0),
            ev(2, 20, CommKind::Send, 0),
            ev(3, 500, CommKind::Recv, 0),
            ev(4, 530, CommKind::Recv, 0),
            ev(5, 540, CommKind::Recv, 0),
        ];
        let p = infer_pairs(&events, &PairingConfig::default());
        assert_eq!(p.pairs.len(), 3);
        // FIFO still gets all three right; confidence reflects doubt.
        let got: Vec<_> = p
            .pairs
            .iter()
            .map(|x| (x.recv, x.send, x.confidence_ppm))
            .collect();
        assert_eq!(
            got,
            vec![(3, 0, 1_000_000), (4, 1, 500_000), (5, 2, 1_000_000)]
        );
    }

    #[test]
    fn dropped_send_stays_unclaimed() {
        // Send 1's message is dropped: only one recv arrives. The
        // band estimate aligns recv 0 with send 0 (delay 500).
        let events = vec![
            ev(0, 0, CommKind::Send, 0),
            ev(1, 2000, CommKind::Send, 0),
            ev(2, 500, CommKind::Recv, 0),
        ];
        let p = infer_pairs(&events, &PairingConfig::default());
        assert_eq!(p.pairs.len(), 1);
        assert_eq!((p.pairs[0].recv, p.pairs[0].send), (2, 0));
        assert_eq!(p.unclaimed_sends, vec![1]);
    }

    #[test]
    fn permutation_of_input_is_irrelevant() {
        let events = vec![
            ev(0, 0, CommKind::Send, 0),
            ev(1, 10, CommKind::Send, 0),
            ev(2, 500, CommKind::Recv, 0),
            ev(3, 510, CommKind::Recv, 0),
            ev(4, 20, CommKind::Send, 1),
            ev(5, 700, CommKind::Recv, 1),
        ];
        let a = infer_pairs(&events, &PairingConfig::default());
        let mut shuffled = events.clone();
        shuffled.reverse();
        shuffled.swap(1, 4);
        let b = infer_pairs(&shuffled, &PairingConfig::default());
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.unpaired_recvs, b.unpaired_recvs);
        assert_eq!(a.unclaimed_sends, b.unclaimed_sends);
    }

    #[test]
    fn slack_widens_the_band_and_lowers_confidence() {
        let events = vec![
            ev(0, 0, CommKind::Send, 0),
            ev(1, 400, CommKind::Send, 0),
            ev(2, 500, CommKind::Recv, 0),
            ev(3, 900, CommKind::Recv, 0),
        ];
        let tight = infer_pairs(&events, &PairingConfig { delay_slack: 0 });
        assert!(tight.pairs.iter().all(|p| p.confidence_ppm == 1_000_000));
        let loose = infer_pairs(&events, &PairingConfig { delay_slack: 400 });
        // Same pairing, weaker conviction: the second recv's widened
        // window now admits both senders.
        assert_eq!(
            tight
                .pairs
                .iter()
                .map(|p| (p.recv, p.send))
                .collect::<Vec<_>>(),
            loose
                .pairs
                .iter()
                .map(|p| (p.recv, p.send))
                .collect::<Vec<_>>()
        );
        let confident = |pp: &Pairing| pp.confident().count();
        assert!(confident(&loose) < confident(&tight));
        assert_eq!(loose.pairs.last().unwrap().confidence_ppm, 500_000);
    }
}
