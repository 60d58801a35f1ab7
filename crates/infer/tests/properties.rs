//! Property tests for the black-box inference pipeline.
//!
//! Logs are generated by a tiny hand-rolled chain-topology simulator
//! (per-channel FIFO delivery, per-thread monotone clocks, bounded
//! per-channel delay jitter) driven through [`CommRecorder`] so every
//! log carries exact ground truth. On this family the pinned
//! properties are provable, not merely empirical:
//!
//! - inference is a pure function of the event *set*: deterministic
//!   across runs and invariant under any permutation of the input log;
//! - the full-confidence (ambiguity-1) pairing subset is always
//!   correct, and widening the delay window (`delay_slack`) can only
//!   *shrink* it — certainty degrades monotonically with modelled
//!   jitter, it never flips to a different assertion;
//! - full cooperative visibility reproduces ground truth exactly and
//!   passes the inference-accounting oracle.

// The vendored `proptest!` macro token-munches each body; these
// bodies are long enough to need more than the default budget.
#![recursion_limit = "512"]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use whodunit_core::blackbox::{CommLog, CommRecorder, TierVisibility};
use whodunit_core::oracle::check_inference;
use whodunit_infer::{
    evidence, hybrid_stitch, infer_pairs, infer_stitch, score_confident_pairs, PairingConfig,
};

/// Generates a chain-topology log: `clients` open-loop paced clients
/// fire `reqs` requests each through `tiers` single-threaded tiers
/// and get a reply on a private channel. Per-channel wire delay is
/// `base + U[0, jitter]`; delivery is FIFO — messages leave a channel
/// in exactly the order they entered it (queueing behind the previous
/// delivery and the receiving thread's busy time when needed) — and
/// every thread's event times are monotone. These are the
/// synchronous-worker assumptions under which the timing heuristic's
/// certain subset is provably sound.
///
/// The hop structure is processed channel-by-channel in send order,
/// which keeps recorder call order equal to per-thread time order (so
/// the recorded ground truth is the real causality) while send times
/// and delivery times stay consistent with one global clock.
fn gen_log(seed: u64, clients: usize, reqs: usize, tiers: usize) -> CommLog {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xb1ac_cb0c);
    let client_proc = tiers as u32;
    let mut rec = CommRecorder::new();
    rec.mark_origin_proc(client_proc);

    // Channel i < tiers: hop into tier i. Channel tiers + c: reply to
    // client c. Per-channel (base, jitter) delay model.
    let nchans = tiers + clients;
    let delay: Vec<(u64, u64)> = (0..nchans)
        .map(|_| {
            let base = rng.gen_range(50u64..500);
            (base, rng.gen_range(0..base + 1))
        })
        .collect();
    let draw =
        |rng: &mut SmallRng, chan: usize| delay[chan].0 + rng.gen_range(0..delay[chan].1 + 1);

    // Client sends are paced up front (open loop) and recorded in
    // global time order, so ids agree with the (time, id) sort on the
    // shared entry channel.
    let mut entry_sends: Vec<(u64, usize)> = (0..clients)
        .flat_map(|c| {
            let mut t = 0u64;
            let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64) << 17);
            (0..reqs)
                .map(|_| {
                    t += rng.gen_range(1..5_000u64);
                    (t, c)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    entry_sends.sort_unstable();

    // In-flight messages per channel, in send order: (send time, truth
    // tag, owning client).
    let mut flights: Vec<Vec<(u64, whodunit_core::blackbox::CommTag, usize)>> =
        vec![Vec::new(); nchans];
    for &(t, c) in &entry_sends {
        let tag = rec.on_send(t, 0, client_proc, 1_000 + c as u32, 256);
        flights[0].push((t, tag, c));
    }

    // Each tier drains its input channel in send order: FIFO delivery
    // (a message queues behind the previous one and behind the tier's
    // busy time), a compute burst, then the forward send — so the
    // tier's own output channel is again time- and id-ordered.
    for tier in 0..tiers {
        let incoming = std::mem::take(&mut flights[tier]);
        let mut chan_clock = 0u64;
        let mut busy_until = 0u64;
        for (sent, tag, c) in incoming {
            let arrive = (sent + draw(&mut rng, tier))
                .max(chan_clock + 1)
                .max(busy_until + 1);
            chan_clock = arrive;
            rec.on_recv(arrive, tier as u32, tier as u32, tier as u32, 256, tag);
            busy_until = arrive + rng.gen_range(1..100u64);
            let next_chan = if tier + 1 < tiers {
                tier + 1
            } else {
                tiers + c
            };
            let tag = rec.on_send(busy_until, next_chan as u32, tier as u32, tier as u32, 256);
            flights[next_chan].push((busy_until, tag, c));
        }
    }

    // Replies drain per private client channel, FIFO again.
    for c in 0..clients {
        let incoming = std::mem::take(&mut flights[tiers + c]);
        let mut chan_clock = 0u64;
        for (sent, tag, _) in incoming {
            let arrive = (sent + draw(&mut rng, tiers + c)).max(chan_clock + 1);
            chan_clock = arrive;
            rec.on_recv(
                arrive,
                (tiers + c) as u32,
                client_proc,
                1_000 + c as u32,
                256,
                tag,
            );
        }
    }
    rec.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same events in, same stitch out — across repeat runs and across
    /// any permutation of the log (the observer's file order carries
    /// no information; only timestamps and thread order do).
    #[test]
    fn deterministic_and_permutation_invariant(
        input in (0u64..1_000_000, 1usize..5, 1usize..8, 1usize..4)
    ) {
        let (seed, clients, reqs, tiers) = input;
        let log = gen_log(seed, clients, reqs, tiers);
        let cfg = PairingConfig::default();
        let a = infer_stitch(&log.events, &cfg);
        prop_assert_eq!(&a, &infer_stitch(&log.events, &cfg), "repeat run diverged");

        let mut shuffled = log.events.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5811_ff1e);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        prop_assert_eq!(&a, &infer_stitch(&shuffled, &cfg), "permutation changed the stitch");
        prop_assert_eq!(
            infer_pairs(&log.events, &cfg),
            infer_pairs(&shuffled, &cfg),
            "permutation changed the pairing"
        );
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The certain (ambiguity-1) subset is sound and monotone: every
    /// full-confidence pairing matches ground truth, and widening the
    /// modelled jitter window can only shrink the subset — a pair
    /// never survives at full confidence with a *different* send, and
    /// certain precision never rises above its exact 1.0.
    #[test]
    fn confident_pairs_stay_correct_and_shrink_as_slack_widens(
        input in (0u64..1_000_000, 1usize..5, 1usize..8, 1usize..4)
    ) {
        let (seed, clients, reqs, tiers) = input;
        let log = gen_log(seed, clients, reqs, tiers);
        let truth = log.truth_pairs();
        let mut prev: Option<HashMap<u64, u64>> = None;
        for slack in [0u64, 100, 1_000, 10_000, 100_000] {
            let s = infer_stitch(&log.events, &PairingConfig { delay_slack: slack });
            let certain: HashMap<u64, u64> = s
                .pairs
                .iter()
                .filter(|p| p.confidence_ppm == 1_000_000)
                .map(|p| (p.recv, p.send))
                .collect();
            for (recv, send) in &certain {
                prop_assert_eq!(
                    truth.get(recv), Some(send),
                    "certain pair wrong at slack {}", slack
                );
                if let Some(prev) = &prev {
                    prop_assert_eq!(
                        prev.get(recv), Some(send),
                        "certain set grew or flipped at slack {}", slack
                    );
                }
            }
            let score = score_confident_pairs(&s, &log);
            prop_assert_eq!(score.reported_precision_ppm, 1_000_000);
            prop_assert!(check_inference(&evidence(&s, &log)).is_empty());
            prev = Some(certain);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With every tier cooperating, the hybrid path reproduces ground
    /// truth exactly — synopses resolve everything and nothing falls
    /// back to inference.
    #[test]
    fn full_visibility_reproduces_truth(
        input in (0u64..1_000_000, 1usize..5, 1usize..8, 1usize..4)
    ) {
        let (seed, clients, reqs, tiers) = input;
        let log = gen_log(seed, clients, reqs, tiers);
        let procs = log.events.iter().map(|e| e.proc).max().unwrap_or(0) as usize + 1;
        let s = hybrid_stitch(
            &log,
            &vec![TierVisibility::Cooperating; procs],
            &PairingConfig::default(),
        );
        prop_assert_eq!(s.pair_map(), log.truth_pairs());
        prop_assert_eq!(s.origin_map(), log.truth_origins());
        prop_assert!(check_inference(&evidence(&s, &log)).is_empty());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On drop-free FIFO chain logs the black-box path recovers the
    /// entire truth: pairing and origin F1 both land at exactly 1.0.
    #[test]
    fn clean_chain_logs_are_fully_recovered(
        input in (0u64..1_000_000, 1usize..5, 1usize..8, 1usize..4)
    ) {
        let (seed, clients, reqs, tiers) = input;
        let log = gen_log(seed, clients, reqs, tiers);
        let s = infer_stitch(&log.events, &PairingConfig::default());
        let ev = evidence(&s, &log);
        prop_assert_eq!(ev.pairs.reported_f1_ppm, 1_000_000);
        prop_assert_eq!(ev.origins.reported_f1_ppm, 1_000_000);
        prop_assert!(check_inference(&ev).is_empty());
    }
}
