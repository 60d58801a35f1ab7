//! Pluggable ready-queue scheduling policies.
//!
//! The engine keeps a queue of threads that became runnable at the
//! current virtual instant. Which of them resumes first is a scheduling
//! *tie-break*: every choice is a legal interleaving, but stitching,
//! epoch pruning, and crosstalk attribution may behave differently
//! under different orders. A [`SchedulePolicy`] makes the tie-break
//! explicit and seedable, so the chaos explorer can treat each seed as
//! a distinct legal schedule while keeping every run bit-reproducible.
//!
//! The default is [`SchedulePolicy::Fifo`], which reproduces the
//! engine's historical behaviour exactly.

use std::fmt;
use std::str::FromStr;

/// How the engine breaks ties among simultaneously-ready threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Resume in the order threads became ready (the historical
    /// behaviour; deterministic without a seed).
    #[default]
    Fifo,
    /// Resume the most recently readied thread first (stack order;
    /// maximizes "unfair" starvation-like interleavings).
    Lifo,
    /// Pick a uniformly random ready thread, from a seeded stream.
    Random {
        /// Seed of the policy's private random stream.
        seed: u64,
    },
    /// Mostly FIFO, but each pick swaps in a random queue entry with
    /// probability `swap_ppm` / 1e6 — small perturbations of the
    /// realistic order, exploring schedules "near" production.
    Perturb {
        /// Seed of the policy's private random stream.
        seed: u64,
        /// Perturbation probability in parts per million.
        swap_ppm: u32,
    },
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::Fifo => write!(f, "fifo"),
            SchedulePolicy::Lifo => write!(f, "lifo"),
            SchedulePolicy::Random { seed } => write!(f, "random:{seed}"),
            SchedulePolicy::Perturb { seed, swap_ppm } => {
                write!(f, "perturb:{seed}:{swap_ppm}")
            }
        }
    }
}

impl FromStr for SchedulePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let num = |p: Option<&str>, what: &str| -> Result<u64, String> {
            p.ok_or_else(|| format!("policy '{s}': missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("policy '{s}': bad {what}"))
        };
        let policy = match head {
            "fifo" => SchedulePolicy::Fifo,
            "lifo" => SchedulePolicy::Lifo,
            "random" => SchedulePolicy::Random {
                seed: num(parts.next(), "seed")?,
            },
            "perturb" => SchedulePolicy::Perturb {
                seed: num(parts.next(), "seed")?,
                swap_ppm: num(parts.next(), "swap_ppm")? as u32,
            },
            other => return Err(format!("unknown schedule policy '{other}'")),
        };
        if parts.next().is_some() {
            return Err(format!("policy '{s}': trailing fields"));
        }
        Ok(policy)
    }
}

/// The live tie-break state: a policy plus its private random stream.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    policy: SchedulePolicy,
    state: u64,
}

impl Scheduler {
    /// Builds the scheduler for `policy`.
    pub fn new(policy: SchedulePolicy) -> Self {
        let state = match policy {
            SchedulePolicy::Fifo | SchedulePolicy::Lifo => 0,
            SchedulePolicy::Random { seed } => seed,
            SchedulePolicy::Perturb { seed, .. } => seed,
        };
        Scheduler { policy, state }
    }

    /// Picks the index of the next ready-queue entry to resume, given
    /// the queue length. Indices count from the front (oldest entry).
    ///
    /// The pick is a pure function of the policy seed and the sequence
    /// of calls so far — never of wall-clock time or queue contents —
    /// which is what keeps seeded runs bit-reproducible.
    pub fn pick(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "pick() on an empty ready queue");
        match self.policy {
            SchedulePolicy::Fifo => 0,
            SchedulePolicy::Lifo => len - 1,
            SchedulePolicy::Random { .. } => (self.next_u64() % len as u64) as usize,
            SchedulePolicy::Perturb { swap_ppm, .. } => {
                // Two draws per pick, unconditionally, so the stream
                // position is a pure function of the pick count.
                let roll = self.next_u64() % 1_000_000;
                let alt = (self.next_u64() % len as u64) as usize;
                if roll < swap_ppm as u64 {
                    alt
                } else {
                    0
                }
            }
        }
    }

    /// splitmix64, the same generator the fault plan uses.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_lifo_are_degenerate() {
        let mut s = Scheduler::new(SchedulePolicy::Fifo);
        assert_eq!(s.pick(5), 0);
        assert_eq!(s.pick(1), 0);
        let mut s = Scheduler::new(SchedulePolicy::Lifo);
        assert_eq!(s.pick(5), 4);
        assert_eq!(s.pick(1), 0);
    }

    #[test]
    fn random_is_seed_deterministic_and_in_range() {
        let mut a = Scheduler::new(SchedulePolicy::Random { seed: 42 });
        let mut b = Scheduler::new(SchedulePolicy::Random { seed: 42 });
        let picks_a: Vec<_> = (0..100).map(|_| a.pick(7)).collect();
        let picks_b: Vec<_> = (0..100).map(|_| b.pick(7)).collect();
        assert_eq!(picks_a, picks_b);
        assert!(picks_a.iter().all(|&i| i < 7));
        // Different seeds diverge.
        let mut c = Scheduler::new(SchedulePolicy::Random { seed: 43 });
        let picks_c: Vec<_> = (0..100).map(|_| c.pick(7)).collect();
        assert_ne!(picks_a, picks_c);
    }

    #[test]
    fn perturb_zero_ppm_is_fifo_and_full_ppm_is_random() {
        let mut s = Scheduler::new(SchedulePolicy::Perturb {
            seed: 1,
            swap_ppm: 0,
        });
        assert!((0..50).all(|_| s.pick(9) == 0));
        let mut s = Scheduler::new(SchedulePolicy::Perturb {
            seed: 1,
            swap_ppm: 1_000_000,
        });
        assert!((0..200).any(|_| s.pick(9) != 0));
    }

    #[test]
    fn policy_roundtrips_through_strings() {
        for p in [
            SchedulePolicy::Fifo,
            SchedulePolicy::Lifo,
            SchedulePolicy::Random { seed: 987 },
            SchedulePolicy::Perturb {
                seed: 3,
                swap_ppm: 250_000,
            },
        ] {
            assert_eq!(p.to_string().parse::<SchedulePolicy>(), Ok(p));
        }
        assert!("nope".parse::<SchedulePolicy>().is_err());
        assert!("random".parse::<SchedulePolicy>().is_err());
        assert!("random:1:2".parse::<SchedulePolicy>().is_err());
        assert!("perturb:1:x".parse::<SchedulePolicy>().is_err());
    }
}
