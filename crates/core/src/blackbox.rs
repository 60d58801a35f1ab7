//! Black-box communication logs: what a passive network observer sees.
//!
//! Whodunit proper assumes cooperating tiers that mint synopses. The
//! black-box request-tracing line of work (vPath and the "precise
//! request tracing for multi-tier services of black boxes" papers,
//! arXiv:1003.0955 / arXiv:1007.4057) shows that much of the causal
//! structure can be recovered *without* any in-process cooperation,
//! from three observables alone:
//!
//! 1. per-channel **send/recv events** with timestamps and endpoints
//!    (what a switch-port tap or kernel-level tracer records),
//! 2. the **causal order of events on each thread** (a thread that
//!    receives a message and then sends one acted *because of* the
//!    recv — the synchronous-worker assumption), and
//! 3. message **timing**: a recv can only pair with a send that
//!    happened earlier by at least the channel's base latency.
//!
//! This module defines the wire-neutral log types: [`CommEvent`] is one
//! observed send or recv, [`CommLog`] is the full trace of a run, and
//! [`CommRecorder`] is the builder the simulator drives. Because the
//! simulator knows the real message flow, the recorder also captures
//! the **ground truth** ([`CommTruth`]): which send produced each recv
//! and which root transaction each message belongs to. Inference
//! (`crates/infer`) consumes only [`CommLog::events`]; the truth half is
//! reserved for the scoring oracle
//! ([`crate::oracle::check_inference`]) — an inference pass that read it
//! would be cheating, and the oracle's fabrication checks exist to
//! catch exactly that.
//!
//! [`TierVisibility`] is the hybrid-mode knob: a `Cooperating` tier
//! exports its stage dump (synopses and all), an `Opaque` tier exports
//! nothing but its network footprint, so its edges must be inferred.

use std::collections::HashMap;

/// Identifier of one observed communication event, dense from 0 in
/// observation order. Doubles as the transaction-root id: a root is
/// named by the send event that started it.
pub type CommEventId = u64;

/// How much of a tier the profiling harness can see.
///
/// This is the hybrid-deployment knob: real fleets mix tiers that run
/// the Whodunit runtime with closed appliances that cannot be
/// instrumented. A `Cooperating` tier contributes its stage dump to
/// stitching; an `Opaque` tier contributes only what the network
/// observer saw, and its cross-tier edges fall back to black-box
/// inference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TierVisibility {
    /// The tier runs the profiler and exports synopses + stage dumps.
    #[default]
    Cooperating,
    /// The tier is a black box: no dump, no synopses, network
    /// footprint only.
    Opaque,
}

/// Direction of an observed communication event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommKind {
    /// A message was handed to a channel.
    Send,
    /// A message was received from a channel (application-level
    /// delivery, not wire arrival).
    Recv,
}

/// One observed send or recv: the tuple a passive tap records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommEvent {
    /// Dense event id in observation order.
    pub id: CommEventId,
    /// Simulated time of the observation, in cycles.
    pub at: u64,
    /// Send or recv.
    pub kind: CommKind,
    /// The channel the message moved on.
    pub chan: u32,
    /// The process that performed the event.
    pub proc: u32,
    /// The thread (global id) that performed the event — this is what
    /// carries the causal-order observable.
    pub thread: u32,
    /// Observed payload bytes (piggyback bytes are invisible to the
    /// observer: they ride inside what it sees as opaque payload).
    pub bytes: u64,
}

/// Simulator-known ground truth about a [`CommLog`].
///
/// Everything here is keyed by event ids from the same log. Scoring
/// is per-recv: each recv has exactly one true source send and one
/// true root origin (dropped messages simply never produce a recv;
/// duplicated messages produce two recvs with the same source).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CommTruth {
    /// `(recv event id, send event id)` — the send that produced each
    /// received message. Sorted by recv id (recorded in recv order).
    pub pair_of: Vec<(CommEventId, CommEventId)>,
    /// `(recv event id, root send event id)` — the transaction root
    /// each received message serves. Sorted by recv id.
    pub origin_of: Vec<(CommEventId, CommEventId)>,
    /// Send event ids that minted fresh transaction roots.
    pub roots: Vec<CommEventId>,
}

/// The full communication trace of one simulated run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CommLog {
    /// All observed events, id order == observation order.
    pub events: Vec<CommEvent>,
    /// Ground truth (oracle-only; inference must not read this).
    pub truth: CommTruth,
}

impl CommLog {
    /// Number of recorded recv events.
    pub fn recv_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == CommKind::Recv)
            .count()
    }

    /// Number of recorded send events.
    pub fn send_count(&self) -> usize {
        self.events.len() - self.recv_count()
    }

    /// Ground-truth `recv → send` pairing as a map.
    pub fn truth_pairs(&self) -> HashMap<CommEventId, CommEventId> {
        self.truth.pair_of.iter().copied().collect()
    }

    /// Ground-truth `recv → root` origin map.
    pub fn truth_origins(&self) -> HashMap<CommEventId, CommEventId> {
        self.truth.origin_of.iter().copied().collect()
    }
}

/// The truth tag a simulated message carries while in flight. Purely
/// bookkeeping: the profiler and the application never see it, so it
/// cannot perturb behavior.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommTag {
    /// The send event that put this message on the wire.
    pub send_event: CommEventId,
    /// The transaction root the message serves.
    pub origin: CommEventId,
}

/// Builder the simulator drives while a run executes.
///
/// Per-thread origin propagation implements the ground-truth rule:
/// a thread inherits the origin of the last message it received; a
/// send from a thread on a *marked origin process* (an external
/// client) always mints a fresh root, as does a send from a thread
/// that has received nothing yet (a self-starting internal driver).
#[derive(Debug, Default)]
pub struct CommRecorder {
    log: CommLog,
    origin_procs: Vec<u32>,
    thread_origin: HashMap<u32, CommEventId>,
}

impl CommRecorder {
    /// A fresh recorder with no marked origin processes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `proc` as an external origin: every send from its threads
    /// starts a new transaction (think: each client request).
    pub fn mark_origin_proc(&mut self, proc: u32) {
        if !self.origin_procs.contains(&proc) {
            self.origin_procs.push(proc);
        }
    }

    /// Records a send and returns the truth tag the in-flight message
    /// must carry so the matching recv can be attributed.
    pub fn on_send(&mut self, at: u64, chan: u32, proc: u32, thread: u32, bytes: u64) -> CommTag {
        let id = self.log.events.len() as CommEventId;
        self.log.events.push(CommEvent {
            id,
            at,
            kind: CommKind::Send,
            chan,
            proc,
            thread,
            bytes,
        });
        let inherited = if self.origin_procs.contains(&proc) {
            None
        } else {
            self.thread_origin.get(&thread).copied()
        };
        let origin = inherited.unwrap_or_else(|| {
            self.log.truth.roots.push(id);
            id
        });
        CommTag {
            send_event: id,
            origin,
        }
    }

    /// Records an application-level recv of a message carrying `tag`.
    pub fn on_recv(
        &mut self,
        at: u64,
        chan: u32,
        proc: u32,
        thread: u32,
        bytes: u64,
        tag: CommTag,
    ) {
        let id = self.log.events.len() as CommEventId;
        self.log.events.push(CommEvent {
            id,
            at,
            kind: CommKind::Recv,
            chan,
            proc,
            thread,
            bytes,
        });
        self.log.truth.pair_of.push((id, tag.send_event));
        self.log.truth.origin_of.push((id, tag.origin));
        self.thread_origin.insert(thread, tag.origin);
    }

    /// Consumes the recorder, yielding the finished log.
    pub fn finish(self) -> CommLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_propagation_follows_thread_causality() {
        let mut rec = CommRecorder::new();
        rec.mark_origin_proc(9);
        // Client (proc 9, thread 90) sends a request: fresh root 0.
        let t0 = rec.on_send(100, 1, 9, 90, 400);
        assert_eq!(t0.origin, 0);
        // Server thread 10 receives it, then calls the DB: origin 0
        // propagates along the thread.
        rec.on_recv(150, 1, 0, 10, 400, t0);
        let t1 = rec.on_send(200, 2, 0, 10, 300);
        assert_eq!(t1.origin, 0);
        assert_eq!(t1.send_event, 2);
        // DB thread replies; server thread replies to client.
        rec.on_recv(250, 2, 1, 20, 300, t1);
        let t2 = rec.on_send(300, 3, 1, 20, 500);
        assert_eq!(t2.origin, 0);
        rec.on_recv(350, 3, 0, 10, 500, t2);
        let t3 = rec.on_send(400, 4, 0, 10, 600);
        assert_eq!(t3.origin, 0);
        rec.on_recv(450, 4, 9, 90, 600, t3);
        // The client's *next* request mints a fresh root even though
        // its thread just received origin-0 mass.
        let t4 = rec.on_send(500, 1, 9, 90, 400);
        assert_eq!(t4.origin, t4.send_event);
        let log = rec.finish();
        assert_eq!(log.truth.roots, vec![0, t4.send_event]);
        assert_eq!(log.send_count(), 5);
        assert_eq!(log.recv_count(), 4);
        assert_eq!(log.truth_pairs()[&1], 0);
        assert_eq!(log.truth_origins().values().filter(|&&o| o == 0).count(), 4);
    }

    #[test]
    fn selfstarting_internal_thread_mints_root() {
        let mut rec = CommRecorder::new();
        let t = rec.on_send(10, 1, 3, 30, 64);
        assert_eq!(t.origin, t.send_event);
        assert_eq!(rec.finish().truth.roots.len(), 1);
    }
}
