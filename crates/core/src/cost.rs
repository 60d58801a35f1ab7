//! Profiling overhead cost model.
//!
//! The paper measures Whodunit's overhead on real hardware (§9): csprof
//! ≈3% on TPC-W, gprof ≈24%, Whodunit ≈csprof + <0.1%, plus ≈1%
//! communication overhead from synopsis piggybacking. In this
//! reproduction all execution happens in virtual time, so overhead is
//! *modelled*: every hook returns the cycles its bookkeeping costs and
//! the substrate charges them to the executing thread. The constants
//! below are calibrated so the Table 2 regimes reproduce: a per-call
//! cost that scales with call counts (gprof) versus a per-sample cost
//! that stays flat (csprof/Whodunit).

/// Cycles-per-second of the simulated CPUs.
///
/// The paper's machines are 2.4 GHz Pentium Xeons.
pub const CPU_HZ: u64 = 2_400_000_000;

/// The paper's sampling frequency: gprof's default 666 samples/second,
/// used for csprof and Whodunit alike (§9.1).
pub const SAMPLE_HZ: u64 = 666;

/// Overhead constants for a profiling runtime.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Cycles between statistical samples.
    pub sample_period: u64,
    /// Cycles charged per sample taken (stack unwind + CCT walk).
    pub per_sample_cycles: u64,
    /// Cycles charged per procedure entry (gprof-style mcount
    /// instrumentation; zero for sampling profilers).
    pub per_call_cycles: u64,
    /// Cycles charged per message send (synopsis mint + dictionary).
    pub per_send_cycles: u64,
    /// Cycles charged per message receive (chain scan + CCT switch).
    pub per_recv_cycles: u64,
    /// Cycles charged per lock acquire/release pair (crosstalk
    /// dictionary update).
    pub per_lock_cycles: u64,
}

impl CostModel {
    /// No profiling: everything free.
    pub fn free() -> Self {
        CostModel {
            sample_period: u64::MAX,
            per_sample_cycles: 0,
            per_call_cycles: 0,
            per_send_cycles: 0,
            per_recv_cycles: 0,
            per_lock_cycles: 0,
        }
    }

    /// csprof-like sampling cost at the paper's 666 Hz.
    ///
    /// The per-sample cost is calibrated so a CPU-saturated stage loses
    /// ≈3% of its cycles to sampling, matching Table 2's csprof row
    /// (1184 → 1151 tx/min).
    pub fn csprof() -> Self {
        CostModel {
            sample_period: CPU_HZ / SAMPLE_HZ,
            per_sample_cycles: 100_000,
            per_call_cycles: 0,
            per_send_cycles: 0,
            per_recv_cycles: 0,
            per_lock_cycles: 0,
        }
    }

    /// Whodunit: csprof plus transaction-context bookkeeping.
    ///
    /// The paper measures the addition at "less than 0.1%" (§9.1); the
    /// per-send/recv/lock costs here are small compared to the
    /// per-sample cost.
    pub fn whodunit() -> Self {
        CostModel {
            per_send_cycles: 900,
            per_recv_cycles: 900,
            per_lock_cycles: 250,
            ..Self::csprof()
        }
    }

    /// gprof: per-call mcount instrumentation plus the same sampling.
    ///
    /// Calibrated so call-dense workloads lose ≈24% (Table 2's
    /// 1184 → 898 tx/min).
    pub fn gprof() -> Self {
        CostModel {
            per_call_cycles: 180,
            ..Self::csprof()
        }
    }

    /// How many samples fall in a compute burst of `cycles`, tracked
    /// with a running accumulator `acc` (updated in place).
    ///
    /// This is the deterministic "analytic" sampling used by default:
    /// exactly one sample per full period of accumulated execution.
    pub fn samples_in(&self, acc: &mut u64, cycles: u64) -> u64 {
        if self.sample_period == u64::MAX {
            return 0;
        }
        *acc += cycles;
        let n = *acc / self.sample_period;
        *acc %= self.sample_period;
        n
    }
}

/// How statistical samples are placed in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Deterministic: exactly one sample per period of accumulated
    /// execution (the default; expectation-exact and reproducible).
    Analytic,
    /// Pseudo-random exponential inter-sample gaps with the given seed
    /// (how a real timer-driven sampler behaves; still deterministic
    /// for a fixed seed).
    Stochastic(u64),
}

/// Per-thread sampling state for either [`Sampling`] mode.
#[derive(Clone, Debug)]
pub struct SampleClock {
    /// Cycles until the next sample fires.
    until_next: u64,
    rng: Option<u64>,
    period: u64,
}

impl SampleClock {
    /// Creates a clock for one thread.
    pub fn new(mode: Sampling, period: u64, thread_salt: u64) -> Self {
        match mode {
            Sampling::Analytic => SampleClock {
                until_next: period,
                rng: None,
                period,
            },
            Sampling::Stochastic(seed) => {
                let mut c = SampleClock {
                    until_next: 0,
                    rng: Some(seed ^ thread_salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
                    period,
                };
                c.until_next = c.draw_gap();
                c
            }
        }
    }

    /// xorshift64* step.
    fn next_u64(&mut self) -> u64 {
        let r = self.rng.as_mut().expect("stochastic clock");
        let mut x = *r;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *r = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Exponential gap with mean `period`.
    fn draw_gap(&mut self) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(1e-12);
        ((-u.ln()) * self.period as f64) as u64 + 1
    }

    /// Number of samples falling in a burst of `cycles`.
    pub fn samples_in(&mut self, mut cycles: u64) -> u64 {
        if self.period == u64::MAX {
            return 0;
        }
        let mut n = 0;
        while cycles >= self.until_next {
            cycles -= self.until_next;
            n += 1;
            self.until_next = if self.rng.is_some() {
                self.draw_gap()
            } else {
                self.period
            };
        }
        self.until_next -= cycles;
        n
    }
}

/// Converts cycles to milliseconds at [`CPU_HZ`].
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 * 1e3 / CPU_HZ as f64
}

/// Converts milliseconds to cycles at [`CPU_HZ`].
pub fn ms_to_cycles(ms: f64) -> u64 {
    (ms * CPU_HZ as f64 / 1e3) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_never_samples() {
        let m = CostModel::free();
        let mut acc = 0;
        assert_eq!(m.samples_in(&mut acc, u64::MAX / 2), 0);
    }

    #[test]
    fn analytic_sampling_is_exact_over_many_bursts() {
        let m = CostModel::csprof();
        let mut acc = 0;
        let mut total = 0;
        // 1000 bursts of 1/3 period each → exactly 333 samples.
        let burst = m.sample_period / 3;
        for _ in 0..1000 {
            total += m.samples_in(&mut acc, burst);
        }
        assert_eq!(total, 1000 * burst / m.sample_period);
    }

    #[test]
    fn sample_period_matches_frequency() {
        let m = CostModel::csprof();
        assert_eq!(m.sample_period, CPU_HZ / SAMPLE_HZ);
    }

    #[test]
    fn analytic_clock_matches_accumulator() {
        let m = CostModel::csprof();
        let mut clock = SampleClock::new(Sampling::Analytic, m.sample_period, 0);
        let mut acc = 0;
        let mut a = 0;
        let mut b = 0;
        for i in 0..500u64 {
            let burst = (i * 7919) % (2 * m.sample_period);
            a += m.samples_in(&mut acc, burst);
            b += clock.samples_in(burst);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn stochastic_clock_matches_rate_in_expectation() {
        let period = 1000u64;
        let mut clock = SampleClock::new(Sampling::Stochastic(42), period, 1);
        let mut total = 0u64;
        let bursts = 20_000u64;
        for _ in 0..bursts {
            total += clock.samples_in(700);
        }
        let want = bursts as f64 * 700.0 / period as f64;
        let got = total as f64;
        assert!((got - want).abs() / want < 0.05, "got {got}, want {want}");
    }

    #[test]
    fn stochastic_clock_is_deterministic_per_seed() {
        let mut a = SampleClock::new(Sampling::Stochastic(9), 500, 3);
        let mut b = SampleClock::new(Sampling::Stochastic(9), 500, 3);
        for i in 0..200u64 {
            assert_eq!(a.samples_in(i * 13 % 997), b.samples_in(i * 13 % 997));
        }
    }

    #[test]
    fn unit_conversions_roundtrip() {
        assert!((cycles_to_ms(CPU_HZ) - 1000.0).abs() < 1e-9);
        assert_eq!(ms_to_cycles(1000.0), CPU_HZ);
    }
}
