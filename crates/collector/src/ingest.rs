//! The collector's intake and damage route: the queue, the wire doors,
//! per-batch accounting, the one apply, and park / quarantine / resync
//! / halt.

use whodunit_core::delta::{DeltaError, EpochBatch, Incoming, IncomingBatch};
use whodunit_core::wire::{self, WireError};

use crate::{quarantine, Collector};

const TRAILING: WireError = WireError::Malformed("bytes after the frame");
const OTHER_HEADER: WireError = WireError::Malformed("a different stream header is installed");
const NO_HEADER: WireError = WireError::Malformed("no stream header is installed");

/// A decoder's `(value, consumed)` for a buffer that is to hold exactly
/// one frame: the value, or a refusal if anything follows the frame.
fn whole_frame<T>((value, consumed): (T, usize), buf: &[u8]) -> Result<T, WireError> {
    if consumed == buf.len() {
        Ok(value)
    } else {
        Err(TRAILING)
    }
}

impl Collector {
    /// Offers a batch to the ingest queue. Returns `false` (and counts
    /// a throttle) if the queue is at capacity — the emitter must slow
    /// down or retry; the batch was **not** accepted.
    pub fn enqueue(&mut self, batch: EpochBatch) -> bool {
        if self.throttle() {
            return false;
        }
        self.push(batch.into());
        true
    }

    /// Whether the queue is at capacity; counts the refusal if so.
    fn throttle(&mut self) -> bool {
        let full = self.cfg.max_queue > 0 && self.queue.len() >= self.cfg.max_queue;
        if full {
            self.stats.throttled += 1;
        }
        full
    }

    fn push(&mut self, batch: IncomingBatch) {
        // A batch landing on an empty queue starts a new fill/drain
        // cycle: the cycle gauge resets while the all-time peak stays.
        if self.queue.is_empty() {
            self.stats.cycle_peak_queued = 0;
        }
        self.queue.push_back(batch);
        let depth = self.queue.len() as u64;
        self.stats.peak_queued = self.stats.peak_queued.max(depth);
        self.stats.cycle_peak_queued = self.stats.cycle_peak_queued.max(depth);
    }

    /// Installs the stream header from its binary wire frame
    /// ([`whodunit_core::wire::encode_header`]). The wire twin of
    /// [`Collector::start`], except that the frame comes from outside:
    /// a header delivered again (links duplicate) is accepted and
    /// changes nothing, while a different one, bytes after the frame or
    /// a damaged frame are refused and counted in
    /// [`CollectorStats::wire_errors`](crate::CollectorStats::wire_errors).
    pub fn start_wire(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let installed = wire::decode_header(frame)
            .and_then(|decoded| whole_frame(decoded, frame))
            .and_then(|header| {
                if !self.started {
                    self.start(&header);
                } else if header != self.header {
                    return Err(OTHER_HEADER);
                }
                Ok(())
            });
        self.stats.wire_errors += u64::from(installed.is_err());
        installed
    }

    /// Offers a binary wire frame to the ingest queue — the wire twin
    /// of [`Collector::enqueue`]. Queue capacity is checked first:
    /// `Ok(false)` means the queue was full and the frame was **not**
    /// looked at — counted in
    /// [`CollectorStats::throttled`](crate::CollectorStats::throttled)
    /// only, so a damaged frame offered to a full queue is reported on
    /// the retry that finds room. Otherwise the envelope (magic,
    /// version, kind, length, CRC-64 digest) is verified before any
    /// decode; a damaged frame is counted in
    /// [`CollectorStats::wire_errors`](crate::CollectorStats::wire_errors)
    /// and dropped, which the self-healing machinery then treats
    /// exactly like a lost batch (reorder-buffer park on the next good
    /// frame, bounded resync if the hole cannot be healed). So is a
    /// buffer that holds anything after its one frame, and any frame
    /// offered before a stream header is installed: a batch has no
    /// stages to land in then. An accepted frame is decoded into the
    /// storage of batches [`Collector::poll`] has finished with.
    pub fn enqueue_wire(&mut self, frame: &[u8]) -> Result<bool, WireError> {
        if self.throttle() {
            return Ok(false);
        }
        let decoded = if self.started {
            self.decoder.decode(frame)
        } else {
            Err(NO_HEADER)
        };
        match decoded.and_then(|decoded| whole_frame(decoded, frame)) {
            Ok(batch) => {
                self.push(batch);
                self.stats.wire_frames += 1;
                self.stats.wire_bytes += frame.len() as u64;
                Ok(true)
            }
            Err(e) => {
                self.stats.wire_errors += 1;
                Err(e)
            }
        }
    }

    /// Processes one queued batch; returns whether one was processed.
    pub fn poll(&mut self) -> bool {
        let Some(batch) = self.queue.pop_front() else {
            return false;
        };
        self.process_batch(&batch);
        self.decoder.recycle(batch);
        true
    }

    /// Processes every queued batch.
    pub fn drain(&mut self) {
        while self.poll() {}
    }

    /// Number of batches queued but not yet processed.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    fn process_batch(&mut self, queued: &IncomingBatch) {
        assert!(self.started, "collector not started");
        let batch = queued.batch();
        self.stats.batches += 1;
        self.stats.events += batch.events();
        if batch.seq != self.next_batch_seq {
            self.stats.seq_gaps += 1;
        }
        self.next_batch_seq = batch.seq + 1;
        self.ingest_epoch = batch.epoch;
        for d in queued.deltas() {
            self.ingest_delta(d);
        }
        self.live.retry_deferred_xt();
        self.epoch = self.epoch.max(batch.epoch);
        self.now = self.now.max(batch.end);
        // Stall watchdog: a stage silent for the configured number of
        // epochs is explicitly marked (and un-marks on progress; the
        // stall count stays).
        let stall = self.cfg.quarantine.stall_epochs;
        if stall > 0 {
            for q in &mut self.quarantine {
                if !q.halted && !q.stalled && self.epoch.saturating_sub(q.last_progress) >= stall {
                    q.stalled = true;
                    q.stalls += 1;
                    self.stats.stalls += 1;
                }
            }
        }
    }

    /// One stage delta: classify (apply / quarantine / park / drop),
    /// then do the incremental stitching work its content unlocks.
    fn ingest_delta(&mut self, d: Incoming<'_>) {
        let stage = d.delta().stage;
        if stage >= self.accs.len() {
            // No stage to quarantine it under: drop and count.
            self.stats.delta_errors += 1;
            return;
        }
        if self.quarantine[stage].halted {
            self.quarantine[stage].dropped += 1;
            self.stats.dropped_frames += 1;
            return;
        }
        self.try_apply(d);
    }

    /// Validates `d` against the minted-synopsis index and the stage's
    /// accumulator, then applies it and hands it to the read layer; an
    /// `Err` leaves no trace of the frame. The one way a delta, live or
    /// catch-up, reaches collector state.
    fn apply_checked(&mut self, incoming: Incoming<'_>) -> Result<(), DeltaError> {
        let d = incoming.delta();
        self.live.check_mints(d)?;
        let ctx_base = self.accs[d.stage].context_count() as u32;
        incoming.apply_to(&mut self.accs[d.stage])?;
        let q = &mut self.quarantine[d.stage];
        q.last_progress = self.ingest_epoch;
        q.stalled = false;
        self.live.apply(&self.accs, d, ctx_base);
        Ok(())
    }

    /// Applies one live frame plus any parked frames it unblocks, or
    /// routes it by why it was refused: duplicate → drop, gap → park,
    /// corrupt or inconsistent → quarantine and resync.
    fn try_apply(&mut self, incoming: Incoming<'_>) {
        let d = incoming.delta();
        match self.apply_checked(incoming) {
            Ok(()) => self.drain_parked(d.stage),
            Err(DeltaError::SeqGap { expected, got, .. }) if got < expected => {
                // Duplicate of an already-applied frame: drop it.
                self.quarantine[d.stage].duplicates += 1;
                self.stats.dup_frames += 1;
            }
            Err(DeltaError::SeqGap { .. }) => self.park(incoming),
            Err(_) => {
                // Checksum or inconsistency: the frame's content is
                // unusable. Quarantine it and catch up from the
                // emitter snapshot.
                self.quarantine[d.stage].corrupt += 1;
                self.stats.quarantined += 1;
                self.request_resync(d.stage);
            }
        }
    }

    /// Parks an out-of-order frame in the bounded reorder buffer; an
    /// overflowing hole is treated as loss and resyncs. The parked copy
    /// outlives its batch, so an unsealed delta is sealed with its real
    /// checksum first: it comes back through the verifying `apply`.
    fn park(&mut self, incoming: Incoming<'_>) {
        let d = incoming.delta();
        let q = &mut self.quarantine[d.stage];
        q.parked.entry(d.seq).or_insert_with(|| incoming.seal());
        if q.parked.len() > self.cfg.quarantine.reorder_buffer {
            self.request_resync(d.stage);
        }
    }

    /// Applies parked frames that have become contiguous with the
    /// accumulator's expected sequence number.
    fn drain_parked(&mut self, si: usize) {
        loop {
            let next = self.accs[si].next_seq();
            let Some(d) = self.quarantine[si].parked.remove(&next) else {
                return;
            };
            self.quarantine[si].healed += 1;
            self.stats.healed_frames += 1;
            // Recursion depth is bounded by the reorder buffer size.
            self.try_apply(Incoming::Sealed(&d));
        }
    }

    /// Bounded resync: fold the emitter's snapshot in as a synthetic
    /// catch-up delta through the normal ingest path, fast-forward the
    /// sequence horizon, and drain whatever parked frames survive.
    /// No source, a source that lags, a snapshot that does not extend
    /// the accumulated state, or an exhausted budget halts the stage.
    pub(crate) fn request_resync(&mut self, si: usize) {
        if self.quarantine[si].halted {
            return;
        }
        if self.quarantine[si].resyncs >= quarantine::MAX_RESYNCS {
            self.halt(si);
            return;
        }
        let snap = self.resync.as_ref().and_then(|h| h.0.snapshot(si));
        let Some((dump, upto)) = snap else {
            self.halt(si);
            return;
        };
        if upto < self.accs[si].next_seq() {
            // The source lags the collector: it cannot cover the
            // damage (callers must advance it batch-by-batch first).
            self.halt(si);
            return;
        }
        let caught_up = self.accs[si]
            .catchup_delta(si, &dump)
            .and_then(|cd| cd.map_or(Ok(()), |cd| self.apply_checked(Incoming::Sealed(&cd))));
        if caught_up.is_err() {
            self.halt(si);
            return;
        }
        self.quarantine[si].resyncs += 1;
        self.stats.resyncs += 1;
        self.accs[si].set_next_seq(upto);
        // Parked frames the snapshot subsumed are no longer needed.
        self.quarantine[si].parked.retain(|&s, _| s >= upto);
        self.drain_parked(si);
    }

    /// Halts a stage: no more frames are accepted for it, parked ones
    /// are discarded, and the report will carry its degradation marker.
    /// A corrupt frame is counted before its resync is asked for, and
    /// the other asks (a full reorder buffer, a hole open at finalize)
    /// drop a parked frame here, so a halt always leaves a counter.
    fn halt(&mut self, si: usize) {
        let q = &mut self.quarantine[si];
        if q.halted {
            return;
        }
        q.halted = true;
        let parked = q.parked.len() as u64;
        q.parked.clear();
        q.dropped += parked;
        self.stats.dropped_frames += parked;
        debug_assert!(self.degrade_count() > 0, "a halt left no counter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{batches_for, header2};
    use crate::CollectorConfig;
    use whodunit_core::delta::ResyncSource;
    use whodunit_core::stitch::StageDump;

    #[test]
    fn full_queue_refuses_a_wire_frame_without_decoding_it() {
        let frames: Vec<Vec<u8>> = batches_for(0, 0, "front", 2)
            .iter()
            .map(wire::encode_batch)
            .collect();
        let mut c = Collector::new(CollectorConfig {
            max_queue: 1,
            ..CollectorConfig::default()
        });
        c.start(&header2());
        assert_eq!(c.enqueue_wire(&frames[0]), Ok(true));
        let mut bad = frames[1].clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        // Full queue: the damaged frame is refused unseen.
        assert_eq!(c.enqueue_wire(&bad), Ok(false));
        assert_eq!((c.stats().throttled, c.stats().wire_errors), (1, 0));
        // Room again: the same frame is now looked at, and rejected.
        assert!(c.poll());
        assert_eq!(c.enqueue_wire(&bad), Err(WireError::Checksum));
        let st = c.stats();
        assert_eq!((st.throttled, st.wire_errors, st.wire_frames), (1, 1, 1));
    }
    fn front_frames(n: usize) -> Vec<Vec<u8>> {
        batches_for(0, 0, "front", n)
            .iter()
            .map(wire::encode_batch)
            .collect()
    }
    #[test]
    fn bytes_after_the_frame_are_refused_not_dropped() {
        let frames = front_frames(2);
        let header = wire::encode_header(&header2());
        let mut c = Collector::new(CollectorConfig::default());
        // A header frame followed by anything installs nothing.
        let followed = [&header[..], &frames[0]].concat();
        assert_eq!(c.start_wire(&followed), Err(TRAILING));
        assert_eq!(c.stats().wire_errors, 1);
        c.start_wire(&header).expect("the bare header installs");
        // Two batch frames in one buffer: neither is queued or counted
        // as accepted, and the refusal is.
        let both = frames.concat();
        assert_eq!(c.enqueue_wire(&both), Err(TRAILING));
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames, c.queued()), (2, 0, 0));
        // Offered one by one, both are accepted.
        for f in &frames {
            assert_eq!(c.enqueue_wire(f), Ok(true));
        }
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames), (2, 2));
        assert_eq!(st.wire_bytes, both.len() as u64);
    }
    #[test]
    fn a_batch_frame_before_the_header_is_refused_and_finalize_needs_no_header() {
        let frames = front_frames(1);
        let mut c = Collector::new(CollectorConfig::default());
        // No stages to land in: refused and counted like a lost batch,
        // never queued, so draining has nothing to process.
        assert_eq!(c.enqueue_wire(&frames[0]), Err(NO_HEADER));
        c.drain();
        let st = c.stats();
        assert_eq!((st.wire_errors, st.wire_frames, c.queued()), (1, 0, 0));
        // The header never came: the report analyzes no dumps.
        let out = c.finalize();
        assert_eq!((out.stats.batches, out.stats.wire_errors), (0, 1));
        let r = &out.report;
        assert!(r.stages.is_empty() && r.profiles.is_empty() && r.warnings.is_empty());
    }
    #[test]
    fn a_repeated_header_frame_changes_nothing_and_a_different_one_is_refused() {
        let frames = front_frames(2);
        let header = wire::encode_header(&header2());
        let mut c = Collector::new(CollectorConfig::default());
        c.start_wire(&header).expect("header installs");
        assert_eq!(c.enqueue_wire(&frames[0]), Ok(true));
        c.drain();
        // The link delivers the header again mid-stream.
        assert_eq!(c.start_wire(&header), Ok(()));
        assert_eq!(c.stats().wire_errors, 0);
        let mut other = header2();
        other.stages[1].proc = 9;
        let other = wire::encode_header(&other);
        assert_eq!(c.start_wire(&other), Err(OTHER_HEADER));
        assert_eq!(c.stats().wire_errors, 1);
        // Neither touched what the stream had built up.
        assert_eq!(c.enqueue_wire(&frames[1]), Ok(true));
        let out = c.finalize();
        assert_eq!((out.stats.batches, out.stats.quarantined), (2, 0));
        assert_eq!(out.report.stages[0].ccts[0].nodes[0].cycles, 200);
    }
    #[test]
    fn the_resync_after_the_budget_halts_the_stage() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use whodunit_core::delta::RecordedResync;
        /// The emitter's state, advanced in lockstep with the stream.
        struct Lockstep(Rc<RefCell<RecordedResync>>);
        impl ResyncSource for Lockstep {
            fn snapshot(&self, stage: usize) -> Option<(StageDump, u64)> {
                self.0.borrow().snapshot(stage)
            }
        }
        let header = header2();
        let emitter = Rc::new(RefCell::new(RecordedResync::new(&header)));
        let mut c = Collector::new(CollectorConfig::default());
        c.start(&header);
        c.set_resync_source(Box::new(Lockstep(emitter.clone())));
        // Every frame arrives corrupt; each but the last is repaired by
        // a resync to the emitter's state.
        let corrupt = quarantine::MAX_RESYNCS as usize + 1;
        for b in batches_for(0, 0, "front", corrupt) {
            emitter.borrow_mut().advance(&b);
            let mut damaged = b.clone();
            damaged.deltas[0].checksum ^= 1;
            assert!(c.enqueue(damaged));
            c.drain();
        }
        let q = &c.quarantine[0];
        assert_eq!((q.corrupt, q.resyncs, q.halted), (9, 8, true));
        assert_eq!(
            c.degraded_markers(),
            ["stage 0 (front): 9 corrupt quarantined, 8 resyncs, halted"]
        );
    }
    #[test]
    fn a_wire_delta_that_parks_is_healed_not_quarantined() {
        // Frames 1 and 2 carry consecutive deltas of one stage and
        // arrive swapped: delta 2 waits in the reorder buffer, beyond
        // the life of its (unsealed, recycled) batch, and must come
        // back through the verifying `apply` with its real checksum.
        let frames = front_frames(4);
        let header = wire::encode_header(&header2());
        let ingest = |order: [usize; 4]| {
            let mut c = Collector::new(CollectorConfig::default());
            c.start_wire(&header).expect("header installs");
            for i in order {
                assert_eq!(c.enqueue_wire(&frames[i]), Ok(true));
                c.drain();
            }
            c.finalize()
        };
        let (clean, swapped) = (ingest([0, 1, 2, 3]), ingest([0, 2, 1, 3]));
        let st = &swapped.stats;
        assert_eq!((st.healed_frames, st.quarantined, st.resyncs), (1, 0, 0));
        assert_eq!(st.degraded, ["stage 0 (front): 1 reordered healed"]);
        let (a, b) = (&clean.report, &swapped.report);
        assert_eq!(a.stitched_text(), b.stitched_text());
        assert_eq!(a.crosstalk_text(), b.crosstalk_text());
        assert_eq!(a.dumps_json, b.dumps_json);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
