//! The ordered-exactly-once link protocol of the federation, written
//! once for every level of the tree (DESIGN.md §13).
//!
//! A link carries exactly one thing: the sealed wire frame
//! ([`whodunit_core::wire::seal_summary`] bytes). The sending node
//! seals and encodes a [`SummaryFrame`] once, when it flushes
//! ([`Uplink::seal`]); from then on the spool, checkpoints, first
//! transmissions, go-back-N retransmits and the fabric's duplicates all
//! move the same shared bytes. The receiving node decodes them at most
//! once, and a duplicate not at all ([`RxState::receive`]).
//!
//! - [`Uplink`] is the *durable* sender half — next sequence number,
//!   the spool of unacked frames, the ack horizon. It is `Clone`, and a
//!   node checkpoint copies it whole (cheap: the spool shares its
//!   bytes); only a leaf's accumulators reach its checkpoint another
//!   way, through the redo journal in [`crate::federation`].
//! - [`Sender`] is the *volatile* sender half — the transmit gate, the
//!   send cursor and the retransmission timer. A recovered node builds
//!   a fresh one ([`Sender::restart`]) and simply replays its spool
//!   tail; receivers dedup.
//! - [`RxState`] is the receiver half of one incoming link: envelope
//!   digest and link header → duplicate → body → end-to-end checksum →
//!   bounded park → accept → drain parked. Regionals and the root
//!   differ only in *when* they ack ([`AckMode`]) and in what accepting
//!   a frame means (the `accept` closure).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use whodunit_core::summary::{IncomingSummary, SummaryFrame};
use whodunit_core::wire;

use crate::federation::FederationStats;

/// Initial retransmission timeout in ticks. Exceeds the default
/// checkpoint cadence plus the link round trip, so clean links do not
/// retransmit spuriously while waiting for the ack cadence.
pub(crate) const RTO_INITIAL: u64 = 24;
/// Retransmission timeout ceiling (exponential backoff).
pub(crate) const RTO_MAX: u64 = 192;
/// Reordered frames a receiver parks per link before dropping.
pub(crate) const PARK_MAX: usize = 8;
/// Unacked frames a sender spools before it stalls flushing (the
/// pending increment keeps merging — lag, not loss).
pub(crate) const SPOOL_MAX: usize = 64;

/// A sealed summary frame in the only form a link holds it: the
/// encoder's own buffer, shared.
pub(crate) type WireFrame = Arc<Vec<u8>>;

/// Durable (checkpointed) sender state of one uplink.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Uplink {
    /// Next outgoing frame seq.
    next_seq: u64,
    /// `(events, bytes)` of every sealed frame the parent has not acked
    /// yet. Front seq is `acked`.
    spool: VecDeque<(u64, WireFrame)>,
    spool_events: u64,
    /// Frames `< acked` are acknowledged and discarded.
    acked: u64,
    /// Bytes of the largest frame sealed so far: the size each frame's
    /// buffer is allocated at, so a frame is encoded without regrowing.
    frame_bytes: usize,
}

impl Uplink {
    /// Stamps the link sequence number on `f`, seals it and its deltas
    /// and encodes it ([`wire::seal_summary`]: the one wire encode of
    /// the frame's life, and the one hash of each delta's content at
    /// this hop), and spools the encoder's buffer.
    pub(crate) fn seal(&mut self, mut f: SummaryFrame) {
        f.seq = self.next_seq;
        let mut bytes = Vec::with_capacity(self.frame_bytes.max(256));
        wire::seal_summary(&mut f, &mut bytes);
        self.frame_bytes = self.frame_bytes.max(bytes.len());
        let events = f.events();
        self.next_seq += 1;
        self.spool_events += events;
        self.spool.push_back((events, Arc::new(bytes)));
    }

    /// Whether the spool is at [`SPOOL_MAX`]: the node must not flush
    /// (its pending increment keeps merging instead).
    pub(crate) fn is_full(&self) -> bool {
        self.spool.len() >= SPOOL_MAX
    }

    /// Unacked frames held.
    pub(crate) fn spool_len(&self) -> usize {
        self.spool.len()
    }

    /// Change events resident in the spool.
    pub(crate) fn spool_events(&self) -> u64 {
        self.spool_events
    }
}

/// Volatile sender-side transmission state (never checkpointed).
#[derive(Clone, Debug)]
pub(crate) struct Sender {
    /// Frames `< gate` are checkpoint-covered and transmittable.
    gate: u64,
    next_send: u64,
    rto: u64,
    deadline: u64,
}

impl Sender {
    /// The sender of a node that (re)starts at `now` from the durable
    /// state `up`: everything `up` holds is checkpoint-covered, and the
    /// whole unacked spool is due for (re)transmission.
    pub(crate) fn restart(up: &Uplink, now: u64) -> Sender {
        Sender {
            gate: up.next_seq,
            next_send: up.acked,
            rto: RTO_INITIAL,
            deadline: now + RTO_INITIAL,
        }
    }

    /// The node just checkpointed `up`: every frame sealed so far is
    /// now transmittable (the write-ahead half of exactly-once).
    pub(crate) fn checkpointed(&mut self, up: &Uplink) {
        self.gate = up.next_seq;
    }

    /// First-transmits newly checkpoint-covered frames and, on RTO
    /// expiry, retransmits the whole unacked window (go-back-N) with
    /// exponential backoff.
    pub(crate) fn pump(
        &mut self,
        up: &Uplink,
        now: u64,
        stats: &mut FederationStats,
    ) -> Vec<WireFrame> {
        let frame = |seq: u64| up.spool.get((seq - up.acked) as usize).map(|(_, b)| b);
        let mut out = Vec::new();
        self.next_send = self.next_send.max(up.acked);
        while self.next_send < self.gate {
            let Some(b) = frame(self.next_send) else {
                break;
            };
            out.push(b.clone());
            stats.frames_sent += 1;
            self.next_send += 1;
            self.deadline = now + self.rto;
        }
        if up.acked < self.next_send && now >= self.deadline {
            for b in (up.acked..self.next_send).filter_map(frame) {
                out.push(b.clone());
                stats.retransmits += 1;
            }
            self.rto = self.rto.saturating_mul(2).clamp(RTO_INITIAL, RTO_MAX);
            self.deadline = now + self.rto;
        }
        out
    }

    /// Folds a cumulative ack (everything `<= upto` received and
    /// checkpointed by the parent) into the spool. An ack of a frame
    /// never sealed can only be damage, and is ignored like a stale one.
    pub(crate) fn on_ack(&mut self, up: &mut Uplink, upto: u64, now: u64) {
        if upto < up.acked || upto >= up.next_seq {
            return; // stale, or past every sealed frame
        }
        while up.acked <= upto {
            if let Some((events, _)) = up.spool.pop_front() {
                up.spool_events = up.spool_events.saturating_sub(events);
            }
            up.acked += 1;
        }
        self.rto = RTO_INITIAL;
        self.deadline = now + self.rto;
        self.next_send = self.next_send.max(up.acked);
    }
}

/// When a receiver acknowledges what it accepted.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AckMode {
    /// Ack on accept: the receiver is a durable terminus (the root).
    Immediate,
    /// Ack only what the receiver's own checkpoint covers
    /// ([`RxState::checkpointed`]) — the ack-gate half of exactly-once.
    OnCheckpoint,
}

/// Receiver-side state of one incoming link. Durable: an aggregator
/// checkpoints it with the rest of its state.
#[derive(Clone, Debug, Default)]
pub(crate) struct RxState {
    /// Next in-order frame sequence number.
    expected: u64,
    /// Frames `< ack_gate` are covered by this node's checkpoint and
    /// may be (re-)acked.
    ack_gate: u64,
    /// Bounded reorder buffer, keyed by frame seq. Shared, so a
    /// checkpoint of this state copies pointers, not frames.
    parked: BTreeMap<u64, Arc<IncomingSummary>>,
    parked_events: u64,
}

impl RxState {
    /// Handles one frame off the link; returns the cumulative ack to
    /// send back, if one is due now.
    ///
    /// The envelope is verified and the link header read first: a
    /// duplicate (a seq below the expected one, or one already parked)
    /// is dropped before its body is read, and the former re-acked if
    /// its seq is already ack-covered, to heal a lost ack cheaply.
    /// Damaged bytes (envelope digest, body, then the frame's own
    /// end-to-end checksum) are dropped and counted — the sender's RTO
    /// retransmit heals the link, exactly like a lost frame. A frame
    /// ahead of sequence parks (bounded by [`PARK_MAX`]). The in-order
    /// frame goes to `accept`, followed by every parked frame it makes
    /// contiguous; if `accept` refuses a frame the link seq does not
    /// advance, and the sender retries until the finalize deadline
    /// marks the subtree degraded. A frame reaches `accept` shared only
    /// if a checkpoint of this state still holds it.
    pub(crate) fn receive(
        &mut self,
        bytes: &[u8],
        mode: AckMode,
        stats: &mut FederationStats,
        mut accept: impl FnMut(Arc<IncomingSummary>, &mut FederationStats) -> bool,
    ) -> Option<u64> {
        let Ok(open) = wire::open_summary(bytes) else {
            stats.wire_decode_errors += 1;
            return None;
        };
        let seq = open.seq;
        if seq < self.expected {
            stats.dup_frames += 1;
            return self.ack_gate.checked_sub(1).filter(|_| seq < self.ack_gate);
        }
        if self.parked.contains_key(&seq) {
            return None;
        }
        let Ok((f, _)) = open.read() else {
            stats.wire_decode_errors += 1;
            return None;
        };
        if !f.frame().verify() {
            stats.corrupt_frames += 1;
            return None;
        }
        if seq > self.expected {
            if self.parked.len() < PARK_MAX {
                self.parked_events += f.frame().events();
                self.parked.insert(seq, Arc::new(f));
            } else {
                stats.park_overflow += 1;
            }
            return None;
        }
        if accept(Arc::new(f), stats) {
            self.expected += 1;
            while let Some(n) = self.parked.remove(&self.expected) {
                self.parked_events = self.parked_events.saturating_sub(n.frame().events());
                if !accept(n, stats) {
                    break;
                }
                stats.healed_frames += 1;
                self.expected += 1;
            }
        }
        match mode {
            AckMode::Immediate => self.checkpointed(),
            AckMode::OnCheckpoint => None,
        }
    }

    /// The receiving node's durable state now covers everything
    /// accepted so far: returns the cumulative ack that releases
    /// (periodic re-acks heal lost acks).
    pub(crate) fn checkpointed(&mut self) -> Option<u64> {
        self.ack_gate = self.ack_gate.max(self.expected);
        self.ack_gate.checked_sub(1)
    }

    /// Frames parked out of order.
    pub(crate) fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Change events resident in the park buffer.
    pub(crate) fn parked_events(&self) -> u64 {
        self.parked_events
    }

    /// The parked frames, by seq.
    #[cfg(test)]
    pub(crate) fn parked_frames(&self) -> impl Iterator<Item = &Arc<IncomingSummary>> {
        self.parked.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{batches_for, flat_reference, header2, run};
    use crate::federation::{Federation, FederationConfig, LinkPolicy, LinkVerdict};
    use whodunit_core::summary::{empty_delta, seal_delta};
    use whodunit_core::wire::ENVELOPE_HEAD;

    /// Change events every test frame carries.
    const EVENTS: u64 = 3;

    /// A content-bearing frame; `seq` and `checksum` are the uplink's
    /// to assign.
    fn frame() -> SummaryFrame {
        let mut d = empty_delta(0);
        d.new_frames = (0..EVENTS).map(|i| format!("f{i}").into()).collect();
        SummaryFrame {
            deltas: vec![seal_delta(d, 0)],
            ..SummaryFrame::default()
        }
    }

    /// One link with both ends in hand and the fabric played by the
    /// test: what `pump` returns is delivered, damaged or withheld
    /// explicitly.
    struct Link {
        up: Uplink,
        snd: Sender,
        rx: RxState,
        mode: AckMode,
        stats: FederationStats,
        /// Frame seqs the receiver accepted, in order.
        accepted: Vec<u64>,
    }

    impl Link {
        fn new(mode: AckMode) -> Link {
            let up = Uplink::default();
            Link {
                snd: Sender::restart(&up, 0),
                up,
                rx: RxState::default(),
                mode,
                stats: FederationStats::default(),
                accepted: Vec::new(),
            }
        }

        /// Seals `n` frames and checkpoints the sending node.
        fn flush(&mut self, n: usize) {
            for _ in 0..n {
                self.up.seal(frame());
            }
            self.snd.checkpointed(&self.up);
        }

        fn pump(&mut self, now: u64) -> Vec<WireFrame> {
            self.snd.pump(&self.up, now, &mut self.stats)
        }

        fn deliver(&mut self, bytes: &[u8]) -> Option<u64> {
            let accepted = &mut self.accepted;
            self.rx
                .receive(bytes, self.mode, &mut self.stats, |f, stats| {
                    accepted.push(f.frame().seq);
                    stats.frames_delivered += 1;
                    true
                })
        }
    }

    #[test]
    fn damaged_frame_is_dropped_counted_and_healed_by_rto_retransmit() {
        let mut l = Link::new(AckMode::Immediate);
        l.flush(1);
        let sent = l.pump(1);
        assert_eq!(sent.len(), 1);

        // A bit flipped in flight: the envelope digest catches it.
        let mut flipped = sent[0].to_vec();
        flipped[ENVELOPE_HEAD + 2] ^= 0x10;
        assert_eq!(l.deliver(&flipped), None);
        assert_eq!(l.stats.wire_decode_errors, 1);

        // A frame whose envelope verifies but whose own end-to-end
        // checksum does not (damaged before it was encoded).
        let mut stale = frame().seal();
        stale.checksum ^= 1;
        assert_eq!(l.deliver(&wire::encode_summary(&stale)), None);
        assert_eq!(l.stats.corrupt_frames, 1);
        assert!(l.accepted.is_empty(), "damage must never reach accept");

        // No ack came back, so the RTO fires and the same bytes heal it.
        assert!(l.pump(RTO_INITIAL).is_empty(), "retransmit before the RTO");
        let again = l.pump(1 + RTO_INITIAL);
        assert_eq!(again.len(), 1);
        assert!(Arc::ptr_eq(&again[0], &sent[0]), "retransmit re-encoded");
        assert_eq!(l.stats.retransmits, 1);
        assert_eq!(l.deliver(&again[0]), Some(0));
        assert_eq!(l.accepted, vec![0]);

        l.snd.on_ack(&mut l.up, 0, 2 + RTO_INITIAL);
        assert_eq!((l.up.spool_len(), l.up.spool_events()), (0, 0));
    }

    #[test]
    fn park_buffer_is_bounded_and_the_hole_heals_in_order() {
        let mut l = Link::new(AckMode::OnCheckpoint);
        l.flush(PARK_MAX + 2); // seqs 0..=PARK_MAX + 1
        let sent = l.pump(1);
        assert_eq!(sent.len(), PARK_MAX + 2);

        // Seq 0 is lost. A duplicate of a parked frame must not park
        // (or count) twice, and its body is never read.
        assert_eq!(l.deliver(&sent[1]), None);
        assert_eq!(l.deliver(&sent[1]), None);
        assert_eq!(l.deliver(&headless(1)), None);
        assert_eq!((l.rx.parked_len(), l.rx.parked_events()), (1, EVENTS));
        let s = &l.stats;
        assert_eq!(
            (s.dup_frames, s.wire_decode_errors, s.park_overflow),
            (0, 0, 0)
        );
        for b in &sent[2..] {
            assert_eq!(l.deliver(b), None);
        }
        assert_eq!(l.rx.parked_len(), PARK_MAX);
        assert_eq!(
            l.stats.park_overflow, 1,
            "frame PARK_MAX + 1 must be refused"
        );
        assert!(l.accepted.is_empty());

        // The hole arrives: it and every parked frame apply in order.
        assert_eq!(l.deliver(&sent[0]), None);
        assert_eq!(l.accepted, (0..=PARK_MAX as u64).collect::<Vec<_>>());
        assert_eq!(l.stats.healed_frames, PARK_MAX as u64);
        assert_eq!((l.rx.parked_len(), l.rx.parked_events()), (0, 0));

        // Go-back-N resends the window; only the refused frame is new.
        for b in l.pump(1 + RTO_INITIAL) {
            l.deliver(&b);
        }
        assert_eq!(l.accepted, (0..=PARK_MAX as u64 + 1).collect::<Vec<_>>());
        assert_eq!(l.stats.dup_frames, PARK_MAX as u64 + 1);
        assert_eq!(l.rx.checkpointed(), Some(PARK_MAX as u64 + 1));
    }

    #[test]
    fn duplicates_reack_only_what_the_receiver_checkpoint_covers() {
        // An aggregator: accepted-but-uncheckpointed frames are never
        // acked, not even when the sender asks again.
        let mut l = Link::new(AckMode::OnCheckpoint);
        l.flush(2);
        let sent = l.pump(1);
        assert_eq!(l.deliver(&sent[0]), None);
        assert_eq!(l.deliver(&sent[1]), None);
        assert_eq!(l.deliver(&sent[0]), None, "acked ahead of the checkpoint");
        assert_eq!(l.rx.checkpointed(), Some(1));
        assert_eq!(
            l.deliver(&sent[0]),
            Some(1),
            "covered duplicate heals a lost ack"
        );
        l.flush(1);
        let late = l.pump(2);
        assert_eq!(l.deliver(&late[0]), None);
        assert_eq!(l.deliver(&late[0]), None, "seq 2 is past the ack gate");
        assert_eq!(l.stats.dup_frames, 3);

        // The root is its own durable terminus: every accept and every
        // duplicate acks at once.
        let mut l = Link::new(AckMode::Immediate);
        l.flush(2);
        let sent = l.pump(1);
        assert_eq!(l.deliver(&sent[0]), Some(0));
        assert_eq!(l.deliver(&sent[1]), Some(1));
        assert_eq!(l.deliver(&sent[0]), Some(1));
        assert_eq!(l.stats.dup_frames, 1);
    }

    #[test]
    fn rto_doubles_to_the_ceiling_and_resets_on_ack() {
        let mut l = Link::new(AckMode::Immediate);
        l.flush(2);
        let mut now = 1;
        assert_eq!(l.pump(now).len(), 2);
        let mut rto = RTO_INITIAL;
        let mut rounds = 0;
        while rounds < 2 || rto < RTO_MAX {
            assert!(l.pump(now + rto - 1).is_empty(), "fired before rto {rto}");
            now += rto;
            assert_eq!(l.pump(now).len(), 2, "whole window, rto {rto}");
            rto = (rto * 2).min(RTO_MAX);
            rounds += 1;
        }
        assert_eq!(l.snd.rto, RTO_MAX);
        assert_eq!(l.stats.retransmits, 2 * rounds);

        // A partial ack trims the spool and restarts the timer.
        l.snd.on_ack(&mut l.up, 0, now);
        assert_eq!((l.up.spool_len(), l.up.spool_events()), (1, EVENTS));
        assert!(l.pump(now + RTO_INITIAL - 1).is_empty());
        assert_eq!(l.pump(now + RTO_INITIAL).len(), 1);
        // A stale ack changes nothing.
        l.snd.on_ack(&mut l.up, 0, now);
        assert_eq!(l.up.spool_len(), 1);
    }

    #[test]
    fn an_ack_past_the_last_sealed_frame_is_ignored() {
        let mut l = Link::new(AckMode::Immediate);
        l.flush(2);
        assert_eq!(l.pump(1).len(), 2);
        for upto in [2, 5, u64::MAX] {
            l.snd.on_ack(&mut l.up, upto, 2);
            assert_eq!(
                (l.up.acked, l.up.spool_len()),
                (0, 2),
                "ack of {upto} taken"
            );
        }
        // The link still moves: a true ack trims the spool, and the
        // next sealed frame goes out.
        l.snd.on_ack(&mut l.up, 1, 2);
        assert_eq!(
            (l.up.acked, l.up.spool_len(), l.up.spool_events()),
            (2, 0, 0)
        );
        l.flush(1);
        let next = l.pump(3);
        assert_eq!(next.len(), 1, "the frame sealed after the ack stalled");
        assert_eq!(l.deliver(&next[0]), None, "seqs 0 and 1 never arrived");
        assert_eq!(l.rx.parked_len(), 1);
    }

    /// Bytes whose envelope verifies and whose link header reads `seq`,
    /// but whose body ends there.
    fn headless(seq: u64) -> Vec<u8> {
        let mut b = Vec::new();
        let body = wire::begin_frame(&mut b, wire::KIND_SUMMARY);
        wire::put_u64(&mut b, 0);
        wire::put_u64(&mut b, seq);
        wire::end_frame(&mut b, body);
        assert!(wire::open_summary(&b).is_ok() && wire::decode_summary(&b).is_err());
        b
    }

    #[test]
    fn a_duplicate_is_known_by_its_header_before_its_body_is_read() {
        let mut l = Link::new(AckMode::Immediate);
        l.flush(1);
        let sent = l.pump(1);
        assert_eq!(l.deliver(&sent[0]), Some(0));

        // A duplicate with a damaged body is a duplicate: counted and
        // re-acked, its body never read.
        assert_eq!(l.deliver(&headless(0)), Some(0));
        assert_eq!((l.stats.dup_frames, l.stats.wire_decode_errors), (1, 0));

        // One damaged in flight fails the envelope before its seq is
        // read, like any damaged frame.
        let mut flipped = sent[0].to_vec();
        flipped[ENVELOPE_HEAD + 2] ^= 0x10;
        assert_eq!(l.deliver(&flipped), None);
        assert_eq!((l.stats.dup_frames, l.stats.wire_decode_errors), (1, 1));

        // The same damaged body on a new seq is read, and refused.
        assert_eq!(l.deliver(&headless(1)), None);
        assert_eq!((l.stats.dup_frames, l.stats.wire_decode_errors), (1, 2));
        assert_eq!(l.accepted, vec![0]);
    }

    /// Cuts link 0 (frames up, acks down) before tick `self.0`.
    struct CutUntil(u64);

    impl LinkPolicy for CutUntil {
        fn verdict(&mut self, link: u32, now: u64) -> LinkVerdict {
            LinkVerdict {
                copies: u32::from(link != 0 || now >= self.0),
                delay: 0,
            }
        }
    }

    #[test]
    fn full_spool_stalls_flushing_without_losing_pending_mass() {
        let n = SPOOL_MAX + 16;
        let cfg = FederationConfig {
            flush_every: 1,
            checkpoint_every: 1,
            ..FederationConfig::default()
        };
        let topo = vec![vec![vec![0], vec![1]]];
        let mut fed = Federation::new(&header2(), &topo, cfg, Box::new(CutUntil(n as u64)));
        run(
            &mut fed,
            n,
            &batches_for(0, 0, "front", n),
            &batches_for(1, 1, "db", n),
            0,
        );
        assert!(
            fed.stats().spool_stalls > 0,
            "the cut never filled the spool"
        );
        let out = fed.finalize();
        assert_eq!(out.coverage_ppm, 1_000_000, "a stall is lag, never loss");
        assert!(out.degraded.is_empty());
        assert_eq!(
            out.output.report.fingerprint(),
            flat_reference(n).fingerprint()
        );
        assert_eq!(
            whodunit_core::oracle::check_federation(&out.evidence),
            vec![]
        );
    }
}
