//! Deterministic fault injection (drops, duplicates, delays, machine
//! slowdowns, process crashes).
//!
//! A [`FaultPlan`] is built before the run from a seed plus declarative
//! fault specs. During the run the engine consults it at exactly two
//! points — once per [`crate::Op::Send`] (the message verdict) and once
//! per [`crate::Op::Compute`] (the machine slowdown factor) — and draws
//! from an internal splitmix64 stream, so two runs with the same plan
//! and workload take bit-identical schedules. Process crashes are not
//! random at all: they are scheduled up front as ordinary events at a
//! fixed virtual time.
//!
//! The plan never touches profiling state. Profilers keep recording the
//! application-requested compute cycles even inside a slowdown window,
//! which is what makes profile-mass conservation checkable under
//! faults: the per-context cycle totals still sum to the per-process
//! ground truth ([`crate::Sim::proc_compute_cycles`]).

use crate::time::{Cycles, MachineId};
use std::collections::HashMap;
use whodunit_core::ids::{ChanId, ProcId};

/// Per-channel fault probabilities.
///
/// All probabilities are in `[0, 1]`; the default is fault-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChannelFaults {
    /// Probability a sent message is silently dropped.
    pub drop_p: f64,
    /// Probability a sent message is delivered twice (requires a
    /// [`crate::Msg::replayable`] payload; otherwise delivered once).
    /// No model in `whodunit-apps` sends a replayable payload yet, so on
    /// every assembly this rolls but never duplicates; making one
    /// replayable moves every faulted fingerprint and needs its own
    /// re-baselining.
    pub dup_p: f64,
    /// Probability a sent message is delayed by [`Self::delay_cycles`]
    /// extra cycles.
    pub delay_p: f64,
    /// Extra delivery delay applied on a delay fault.
    pub delay_cycles: Cycles,
}

/// A network partition window on one channel: every message sent on
/// the channel inside `[from, until)` is lost, deterministically and
/// regardless of the channel's probabilistic fault rates. Collector
/// federation links use these to model a leaf or region dropping off
/// the aggregation tree for a while.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// Affected channel.
    pub chan: u32,
    /// Window start (inclusive, virtual time).
    pub from: Cycles,
    /// Window end (exclusive).
    pub until: Cycles,
}

/// A temporary compute slowdown on one machine.
#[derive(Clone, Copy, Debug)]
pub struct Slowdown {
    /// Affected machine.
    pub machine: MachineId,
    /// Window start (inclusive, virtual time).
    pub from: Cycles,
    /// Window end (exclusive).
    pub until: Cycles,
    /// Compute multiplier (≥ 1) for bursts started inside the window.
    pub factor: u64,
}

/// Outcome of consulting the plan for one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendVerdict {
    /// Delivery copies: 0 = dropped, 1 = normal, 2 = duplicated.
    pub copies: u32,
    /// Extra delivery delay on top of the channel's own.
    pub extra_delay: Cycles,
}

impl Default for SendVerdict {
    fn default() -> Self {
        SendVerdict {
            copies: 1,
            extra_delay: 0,
        }
    }
}

/// A seeded, deterministic fault plan.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    state: u64,
    default_faults: ChannelFaults,
    per_chan: HashMap<u32, ChannelFaults>,
    slowdowns: Vec<Slowdown>,
    partitions: Vec<Partition>,
    crashes: Vec<(ProcId, Cycles)>,
}

impl FaultPlan {
    /// Creates a fault-free plan with the given random seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            state: seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the fault probabilities for channels without an override.
    pub fn default_channel_faults(mut self, f: ChannelFaults) -> Self {
        self.default_faults = f;
        self
    }

    /// Sets the fault probabilities for one channel.
    pub fn channel_faults(mut self, chan: ChanId, f: ChannelFaults) -> Self {
        self.per_chan.insert(chan.0, f);
        self
    }

    /// Adds a machine slowdown window.
    pub fn slowdown(
        mut self,
        machine: MachineId,
        from: Cycles,
        until: Cycles,
        factor: u64,
    ) -> Self {
        self.slowdowns.push(Slowdown {
            machine,
            from,
            until,
            factor,
        });
        self
    }

    /// Partitions `chan` for virtual times in `[from, until)`: every
    /// send in the window is lost (no draw consumed beyond the usual
    /// three — see [`FaultPlan::send_verdict_at`]).
    pub fn partition(mut self, chan: ChanId, from: Cycles, until: Cycles) -> Self {
        self.partitions.push(Partition {
            chan: chan.0,
            from,
            until,
        });
        self
    }

    /// Whether `chan` is inside a partition window at `now`.
    pub fn is_partitioned(&self, chan: ChanId, now: Cycles) -> bool {
        self.partitions
            .iter()
            .any(|p| p.chan == chan.0 && p.from <= now && now < p.until)
    }

    /// Crashes every thread of `proc` at virtual time `at`.
    pub fn crash(mut self, proc: ProcId, at: Cycles) -> Self {
        self.crashes.push((proc, at));
        self
    }

    /// The scheduled crashes, in insertion order.
    pub fn crashes(&self) -> &[(ProcId, Cycles)] {
        &self.crashes
    }

    /// Compute multiplier for a burst starting on `machine` at `now`.
    ///
    /// Overlapping windows take the largest factor; outside every
    /// window the factor is 1.
    pub fn slowdown_factor(&self, machine: MachineId, now: Cycles) -> u64 {
        self.slowdowns
            .iter()
            .filter(|s| s.machine == machine && s.from <= now && now < s.until)
            .map(|s| s.factor.max(1))
            .max()
            .unwrap_or(1)
    }

    /// Draws the fate of one message sent on `chan`.
    ///
    /// Always consumes exactly three draws from the stream, so the
    /// stream position is a pure function of the send sequence.
    pub fn send_verdict(&mut self, chan: ChanId) -> SendVerdict {
        let f = *self.per_chan.get(&chan.0).unwrap_or(&self.default_faults);
        let (drop_roll, dup_roll, delay_roll) = (self.next_f64(), self.next_f64(), self.next_f64());
        if drop_roll < f.drop_p {
            return SendVerdict {
                copies: 0,
                extra_delay: 0,
            };
        }
        SendVerdict {
            copies: if dup_roll < f.dup_p { 2 } else { 1 },
            extra_delay: if delay_roll < f.delay_p {
                f.delay_cycles
            } else {
                0
            },
        }
    }

    /// [`FaultPlan::send_verdict`] plus partition windows: the fate of
    /// one message sent on `chan` at virtual time `now`.
    ///
    /// Consumes exactly the same three draws as `send_verdict` whether
    /// or not a partition applies, so adding or removing partition
    /// windows never shifts the random stream consumed by the
    /// probabilistic faults — a plan's drop/dup/delay schedule is
    /// bit-stable under partition edits.
    pub fn send_verdict_at(&mut self, chan: ChanId, now: Cycles) -> SendVerdict {
        let v = self.send_verdict(chan);
        if self.is_partitioned(chan, now) {
            return SendVerdict {
                copies: 0,
                extra_delay: 0,
            };
        }
        v
    }

    /// splitmix64 — small, seedable, and good enough for fault rolls.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_never_faults() {
        let mut p = FaultPlan::new(42);
        for _ in 0..100 {
            assert_eq!(p.send_verdict(ChanId(0)), SendVerdict::default());
        }
    }

    #[test]
    fn same_seed_same_verdicts() {
        let faults = ChannelFaults {
            drop_p: 0.3,
            dup_p: 0.3,
            delay_p: 0.3,
            delay_cycles: 1000,
        };
        let mut a = FaultPlan::new(7).default_channel_faults(faults);
        let mut b = FaultPlan::new(7).default_channel_faults(faults);
        for _ in 0..200 {
            assert_eq!(a.send_verdict(ChanId(3)), b.send_verdict(ChanId(3)));
        }
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut p = FaultPlan::new(1).channel_faults(
            ChanId(5),
            ChannelFaults {
                drop_p: 1.0,
                ..ChannelFaults::default()
            },
        );
        for _ in 0..50 {
            assert_eq!(p.send_verdict(ChanId(5)).copies, 0);
            // Other channels use the (fault-free) default.
            assert_eq!(p.send_verdict(ChanId(6)), SendVerdict::default());
        }
    }

    #[test]
    fn partition_window_drops_without_shifting_the_stream() {
        let faults = ChannelFaults {
            drop_p: 0.25,
            dup_p: 0.25,
            delay_p: 0.25,
            delay_cycles: 500,
        };
        let mut plain = FaultPlan::new(11).default_channel_faults(faults);
        let mut parted =
            FaultPlan::new(11)
                .default_channel_faults(faults)
                .partition(ChanId(2), 1_000, 2_000);
        for i in 0..200u64 {
            let now = i * 25;
            let a = plain.send_verdict_at(ChanId(2), now);
            let b = parted.send_verdict_at(ChanId(2), now);
            if (1_000..2_000).contains(&now) {
                assert_eq!(b.copies, 0, "sends inside the window are lost");
            } else {
                // Outside the window the verdicts are bit-identical:
                // partition edits never shift the draw stream.
                assert_eq!(a, b, "draw stream shifted at t={now}");
            }
        }
        assert!(parted.is_partitioned(ChanId(2), 1_000));
        assert!(!parted.is_partitioned(ChanId(2), 2_000));
        assert!(!parted.is_partitioned(ChanId(3), 1_500));
    }

    #[test]
    fn slowdown_window_bounds() {
        let p = FaultPlan::new(0).slowdown(MachineId(1), 100, 200, 4);
        assert_eq!(p.slowdown_factor(MachineId(1), 99), 1);
        assert_eq!(p.slowdown_factor(MachineId(1), 100), 4);
        assert_eq!(p.slowdown_factor(MachineId(1), 199), 4);
        assert_eq!(p.slowdown_factor(MachineId(1), 200), 1);
        assert_eq!(p.slowdown_factor(MachineId(0), 150), 1);
    }

    #[test]
    fn overlapping_slowdowns_take_max() {
        let p = FaultPlan::new(0)
            .slowdown(MachineId(0), 0, 1000, 2)
            .slowdown(MachineId(0), 500, 600, 8);
        assert_eq!(p.slowdown_factor(MachineId(0), 550), 8);
        assert_eq!(p.slowdown_factor(MachineId(0), 700), 2);
    }
}
