//! Chaos scenario sampling and shrinking.
//!
//! The chaos explorer drives the system through many *distinct legal
//! executions* of the same workload: each seed deterministically
//! samples one scenario — a [`crate::SchedulePolicy`] for ready-queue
//! tie-breaking plus a fault plan (drops, duplicates, delays, a crash,
//! a slowdown window) — as a pure-data
//! [`whodunit_core::repro::ChaosRepro`]. Every assembly that runs
//! scenarios (the TPC-W stack and the topology zoo in `whodunit-apps`)
//! resolves the repro's fault entries with
//! [`ScenarioFaults::from_repro`], installs them with
//! [`ScenarioFaults::plan`] once its channels and processes exist,
//! plants the zero-progress defect with [`plant_livelock_pair`] when
//! asked, runs, and checks the [`whodunit_core::oracle`]s.
//!
//! When a scenario fails, [`shrink`] greedily minimizes it: drop fault
//! entries one at a time, halve the shrinkable workload knobs, and keep
//! any change under which the caller-supplied `still_fails` predicate
//! holds — looping to a fixpoint. Because a repro is pure data, every
//! candidate is a complete scenario and the minimized repro replays
//! bit-identically.

use crate::engine::{Op, Sim, ThreadBody, ThreadCx, Wake};
use crate::fault::{ChannelFaults, FaultPlan};
use crate::time::{Cycles, MachineId};
use crate::Msg;
use whodunit_core::ids::{ChanId, ProcId};
use whodunit_core::repro::{ChaosRepro, FaultEntry};

/// The faults of one scenario, in the roles every assembly has: the
/// `front` channel clients send into, one `backbone` channel behind the
/// entry tier, and one victim process on its own machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioFaults {
    /// Seed of the fault plan's random stream.
    pub seed: u64,
    /// Faults on the client → entry-tier channel. A *dropped* client
    /// request strands a closed-loop client that has no reply timeout
    /// for the rest of the run, shrinking offered load.
    pub front: ChannelFaults,
    /// Faults on the backbone channel (tomcat → mysql, gateway → svc0,
    /// broker → sub0, shards → store).
    pub backbone: ChannelFaults,
    /// Crash the victim process at this virtual time.
    pub crash_at: Option<Cycles>,
    /// Slow the victim's machine: `(from, until, factor)`.
    pub slowdown: Option<(Cycles, Cycles, u64)>,
}

impl ScenarioFaults {
    /// Resolves a repro's fault entries, with the seed as the plan
    /// seed. An entry whose role is none of the given three is ignored
    /// (a repro sampled from a larger space still runs); a later entry
    /// for the same role and class overwrites an earlier one.
    pub fn from_repro(
        repro: &ChaosRepro,
        front_role: &str,
        backbone_role: &str,
        victim_role: &str,
    ) -> ScenarioFaults {
        let mut faults = ScenarioFaults {
            seed: repro.seed,
            ..ScenarioFaults::default()
        };
        let p = |ppm: &u64| *ppm as f64 / 1_000_000.0;
        for f in &repro.faults {
            let chan = match f {
                FaultEntry::Drop { chan, .. }
                | FaultEntry::Dup { chan, .. }
                | FaultEntry::Delay { chan, .. } => match chan.as_str() {
                    c if c == front_role => Some(&mut faults.front),
                    c if c == backbone_role => Some(&mut faults.backbone),
                    _ => None,
                },
                FaultEntry::Crash { .. } | FaultEntry::Slowdown { .. } => None,
            };
            match (f, chan) {
                (FaultEntry::Drop { ppm, .. }, Some(c)) => c.drop_p = p(ppm),
                (FaultEntry::Dup { ppm, .. }, Some(c)) => c.dup_p = p(ppm),
                (FaultEntry::Delay { ppm, cycles, .. }, Some(c)) => {
                    c.delay_p = p(ppm);
                    c.delay_cycles = *cycles;
                }
                (FaultEntry::Crash { proc, at }, _) if proc == victim_role => {
                    faults.crash_at = Some(*at);
                }
                (
                    FaultEntry::Slowdown {
                        machine,
                        from,
                        until,
                        factor,
                    },
                    _,
                ) if machine == victim_role => {
                    faults.slowdown = Some((*from, *until, *factor));
                }
                _ => {}
            }
        }
        faults
    }

    /// The fault plan over the assembly's concrete channels, victim
    /// process and victim machine.
    pub fn plan(
        &self,
        front: ChanId,
        backbone: ChanId,
        victim_proc: ProcId,
        victim_machine: MachineId,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .channel_faults(front, self.front)
            .channel_faults(backbone, self.backbone);
        if let Some(at) = self.crash_at {
            plan = plan.crash(victim_proc, at);
        }
        if let Some((from, until, factor)) = self.slowdown {
            plan = plan.slowdown(victim_machine, from, until, factor);
        }
        plan
    }
}

/// Plants the zero-progress defect: two threads, `pingpong0` and
/// `pingpong1`, ping-ponging over zero-latency, zero-cost channels.
/// Every exchange happens at the same virtual instant, so the pair
/// makes unbounded scheduler steps without ever advancing time —
/// exactly what the step budget exists to catch. Without a step budget
/// the run never ends.
pub fn plant_livelock_pair(sim: &mut Sim, proc: ProcId, machine: MachineId) {
    let a = sim.add_channel(0, 0);
    let b = sim.add_channel(0, 0);
    for (name, rx, tx, serves) in [("pingpong0", b, a, false), ("pingpong1", a, b, true)] {
        sim.spawn(
            proc,
            machine,
            name,
            Box::new(PingPongPeer { rx, tx, serves }),
        );
    }
}

/// One side of [`plant_livelock_pair`]; the serving side receives
/// first.
struct PingPongPeer {
    rx: ChanId,
    tx: ChanId,
    serves: bool,
}

impl ThreadBody for PingPongPeer {
    fn resume(&mut self, _cx: &mut ThreadCx<'_>, wake: Wake) -> Op {
        match wake {
            Wake::Start if self.serves => Op::Recv(self.rx),
            Wake::Start | Wake::Received(_) => Op::Send(self.tx, Msg::new((), 0)),
            Wake::Done => Op::Recv(self.rx),
            _ => unreachable!("ping-pong only sends and receives"),
        }
    }
}

/// The sampling space: what a scenario is allowed to touch.
#[derive(Clone, Debug, Default)]
pub struct ChaosSpace {
    /// Channel role names eligible for drop/dup/delay entries.
    pub channels: Vec<String>,
    /// Process role names eligible for a crash entry.
    pub crashable: Vec<String>,
    /// Machine role names eligible for a slowdown window.
    pub slowable: Vec<String>,
    /// The run horizon in cycles; crash times and slowdown windows are
    /// sampled inside it.
    pub horizon: Cycles,
    /// Upper bound on sampled fault probabilities (parts per million).
    pub max_fault_ppm: u64,
    /// Upper bound on sampled per-message delays (cycles).
    pub max_delay: Cycles,
}

/// splitmix64, matching the fault plan's stream generator.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[1, max]` (never zero — a zero-probability or
/// zero-length fault entry would be dead weight the shrinker has to
/// discover and remove).
fn draw(state: &mut u64, max: u64) -> u64 {
    if max == 0 {
        return 0;
    }
    1 + next_u64(state) % max
}

/// Samples the scenario for `seed`: a schedule policy plus fault-plan
/// entries over `space`, carrying `workload` along verbatim. The same
/// `(seed, space, workload)` always yields the same repro.
pub fn sample_scenario(seed: u64, space: &ChaosSpace, workload: &[(String, u64)]) -> ChaosRepro {
    let mut st = seed ^ 0xC4A0_5C4A_05C4_A05C;

    // Schedule policy: keep FIFO in the mix so the historical schedule
    // stays covered, but bias toward the adversarial ones.
    let policy = match next_u64(&mut st) % 8 {
        0 => "fifo".to_owned(),
        1 | 2 => "lifo".to_owned(),
        3..=5 => format!("random:{}", next_u64(&mut st)),
        // Perturbation probability up to 50%: mostly-FIFO with seeded
        // inversions, the schedule most likely to hide ordering bugs.
        _ => format!("perturb:{}:{}", next_u64(&mut st), draw(&mut st, 500_000)),
    };

    let mut faults = Vec::new();
    for chan in &space.channels {
        // Each fault class independently present with probability 1/2.
        if next_u64(&mut st).is_multiple_of(2) {
            faults.push(FaultEntry::Drop {
                chan: chan.clone(),
                ppm: draw(&mut st, space.max_fault_ppm),
            });
        }
        if next_u64(&mut st).is_multiple_of(2) {
            faults.push(FaultEntry::Dup {
                chan: chan.clone(),
                ppm: draw(&mut st, space.max_fault_ppm),
            });
        }
        if next_u64(&mut st).is_multiple_of(2) {
            faults.push(FaultEntry::Delay {
                chan: chan.clone(),
                ppm: draw(&mut st, space.max_fault_ppm),
                cycles: draw(&mut st, space.max_delay),
            });
        }
    }
    for proc in &space.crashable {
        if next_u64(&mut st).is_multiple_of(3) {
            // Crash in [30%, 90%] of the horizon: late enough to have
            // profiled something, early enough to matter.
            let lo = space.horizon / 10 * 3;
            let hi = space.horizon / 10 * 9;
            faults.push(FaultEntry::Crash {
                proc: proc.clone(),
                at: lo + draw(&mut st, hi.saturating_sub(lo).max(1)),
            });
        }
    }
    for machine in &space.slowable {
        if next_u64(&mut st).is_multiple_of(3) {
            let from = draw(&mut st, space.horizon / 2);
            let len = draw(&mut st, space.horizon / 4);
            faults.push(FaultEntry::Slowdown {
                machine: machine.clone(),
                from,
                until: from + len,
                factor: 1 + draw(&mut st, 7),
            });
        }
    }

    ChaosRepro {
        seed,
        policy,
        workload: workload.to_vec(),
        faults,
        violation: None,
        window: None,
    }
}

/// Greedily shrinks a failing repro while `still_fails` holds.
///
/// Two moves, applied to a fixpoint:
/// 1. remove each fault entry (smallest plan that still fails);
/// 2. halve each workload knob named in `shrinkable` (floor 1).
///
/// `still_fails` receives complete candidate scenarios and must return
/// whether the run still violates an oracle; the last candidate for
/// which it returned `true` is the result. The input repro itself is
/// assumed failing and is returned unchanged if nothing smaller fails.
pub fn shrink(
    repro: &ChaosRepro,
    shrinkable: &[&str],
    mut still_fails: impl FnMut(&ChaosRepro) -> bool,
) -> ChaosRepro {
    let mut best = repro.clone();
    loop {
        let mut progressed = false;

        // Move 1: drop fault entries, one at a time, re-scanning from
        // the front after each success (indices shift).
        let mut i = 0;
        while i < best.faults.len() {
            let mut candidate = best.clone();
            candidate.faults.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Move 2: halve shrinkable knobs.
        for &name in shrinkable {
            while let Some(v) = best.knob(name) {
                if v <= 1 {
                    break;
                }
                let mut candidate = best.clone();
                candidate.set_knob(name, v / 2);
                if still_fails(&candidate) {
                    best = candidate;
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        if !progressed {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ChaosSpace {
        ChaosSpace {
            channels: vec!["db".into(), "front".into()],
            crashable: vec!["mysql".into()],
            slowable: vec!["mysql".into()],
            horizon: 1_000_000,
            max_fault_ppm: 200_000,
            max_delay: 10_000,
        }
    }

    fn knobs() -> Vec<(String, u64)> {
        vec![("clients".into(), 16), ("livelock_pair".into(), 0)]
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_scenario(42, &space(), &knobs());
        let b = sample_scenario(42, &space(), &knobs());
        assert_eq!(a, b);
        assert_eq!(a.seed, 42);
        assert_eq!(a.workload, knobs());
    }

    #[test]
    fn distinct_seeds_cover_the_space() {
        let mut policies = std::collections::HashSet::new();
        let mut saw_drop = false;
        let mut saw_crash = false;
        let mut saw_slow = false;
        for seed in 0..64 {
            let r = sample_scenario(seed, &space(), &knobs());
            policies.insert(r.policy.split(':').next().unwrap().to_owned());
            for f in &r.faults {
                match f {
                    FaultEntry::Drop { ppm, .. } => {
                        saw_drop = true;
                        assert!(*ppm >= 1 && *ppm <= 200_000);
                    }
                    FaultEntry::Crash { at, .. } => {
                        saw_crash = true;
                        assert!(*at >= 300_000 && *at <= 900_000, "crash at {at}");
                    }
                    FaultEntry::Slowdown {
                        from,
                        until,
                        factor,
                        ..
                    } => {
                        saw_slow = true;
                        assert!(until > from && *factor >= 2);
                    }
                    _ => {}
                }
            }
        }
        assert!(policies.len() >= 3, "policy kinds seen: {policies:?}");
        assert!(saw_drop && saw_crash && saw_slow);
    }

    #[test]
    fn every_policy_string_parses() {
        use crate::sched::SchedulePolicy;
        for seed in 0..256 {
            let r = sample_scenario(seed, &space(), &knobs());
            r.policy
                .parse::<SchedulePolicy>()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn shrink_removes_irrelevant_faults_and_halves_knobs() {
        let full = sample_scenario(7, &space(), &knobs());
        assert!(!full.faults.is_empty(), "seed 7 sampled no faults");
        // "Failure" depends only on having ≥ 4 clients; faults are noise.
        let fails = |r: &ChaosRepro| r.knob("clients").unwrap_or(0) >= 4;
        assert!(fails(&full));
        let small = shrink(&full, &["clients"], fails);
        assert!(small.faults.is_empty(), "all fault entries were noise");
        assert_eq!(small.knob("clients"), Some(4));
        assert!(fails(&small), "shrunk repro must still fail");
    }

    #[test]
    fn shrink_keeps_the_load_bearing_fault() {
        let mut repro = sample_scenario(9, &space(), &knobs());
        repro.faults = vec![
            FaultEntry::Drop {
                chan: "db".into(),
                ppm: 50_000,
            },
            FaultEntry::Crash {
                proc: "mysql".into(),
                at: 500_000,
            },
            FaultEntry::Dup {
                chan: "front".into(),
                ppm: 9,
            },
        ];
        // Only the crash matters.
        let fails = |r: &ChaosRepro| {
            r.faults
                .iter()
                .any(|f| matches!(f, FaultEntry::Crash { .. }))
        };
        let small = shrink(&repro, &["clients"], fails);
        assert_eq!(small.faults.len(), 1);
        assert!(matches!(small.faults[0], FaultEntry::Crash { .. }));
        assert_eq!(small.knob("clients"), Some(1), "knob shrunk to floor");
    }

    #[test]
    fn shrink_of_unshrinkable_repro_is_identity() {
        let repro = sample_scenario(11, &space(), &knobs());
        // Any change at all "fixes" it: nothing shrinks.
        let orig = repro.clone();
        let small = shrink(&repro, &["clients"], |r| *r == orig);
        assert_eq!(small, orig);
    }
}
