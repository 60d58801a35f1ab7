//! Deterministic streaming quantile sketch.
//!
//! The sentinel tier keeps one per tier, over the stream of per-epoch
//! cost observations, as the lifetime baseline its budget calibration
//! reads. It needs quantile estimates that are (a) **deterministic** —
//! the same observations yield the same answer, so a replayed run
//! calibrates the same budget; and (b) **bounded** — fixed memory
//! regardless of stream length.
//!
//! [`QuantileSketch`] is a log-bucketed histogram in the HDR style:
//! values land in buckets of bounded *relative* width ([`EPS_SHIFT`]
//! sub-bucket bits per octave, so every bucket spans less than a
//! `1 + 2^-EPS_SHIFT` factor). A quantile query walks the cumulative
//! counts to the bucket holding the target rank and returns that
//! bucket's inclusive upper bound. The estimate `e` for the rank-`r`
//! sample `v` therefore satisfies
//!
//! ```text
//! v <= e  and  e <= v + max(1, v >> EPS_SHIFT)
//! ```
//!
//! i.e. a guaranteed-conservative value within ~6.25% relative error —
//! the property the sentinel proptests pin down against an exact
//! sorted reference.

/// Sub-bucket precision: each power-of-two octave is split into
/// `2^EPS_SHIFT` buckets, bounding relative bucket width by
/// `2^-EPS_SHIFT` (6.25%).
pub const EPS_SHIFT: u32 = 4;

const SUB: usize = 1 << EPS_SHIFT; // sub-buckets per octave
/// Bucket 0 is the exact value 0; values in `[1, 2^EPS_SHIFT)` get one
/// exact bucket each; larger values get `SUB` buckets per octave.
const BUCKETS: usize = 1 + SUB + (64 - EPS_SHIFT as usize) * SUB;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= EPS_SHIFT
    let shift = e - EPS_SHIFT;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    1 + SUB + (e - EPS_SHIFT) as usize * SUB + sub
}

/// Inclusive upper bound of a bucket: the largest value that maps into
/// it.
fn bucket_hi(b: usize) -> u64 {
    if b <= SUB {
        return b as u64;
    }
    let i = b - 1 - SUB;
    let e = EPS_SHIFT + (i / SUB) as u32;
    let sub = (i % SUB) as u64;
    let shift = e - EPS_SHIFT;
    // Top of the sub-bucket: next sub-bucket's base minus one. The
    // adds wrap exactly once, at the very top of the u64 range, where
    // the answer is u64::MAX.
    (1u64 << e).wrapping_add((sub + 1) << shift).wrapping_sub(1)
}

/// A fixed-size, deterministic quantile sketch over `u64`
/// observations. See the module docs for the error contract.
///
/// The histogram is allocated by the first observation: an empty
/// sketch holds none, so creating, cloning and resetting one is free.
#[derive(Clone, Default)]
pub struct QuantileSketch {
    /// `None` until something is recorded.
    counts: Option<Box<[u64; BUCKETS]>>,
    count: u64,
    max: u64,
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets_mut()[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    fn buckets_mut(&mut self) -> &mut [u64; BUCKETS] {
        self.counts.get_or_insert_with(|| Box::new([0; BUCKETS]))
    }

    fn buckets(&self) -> &[u64] {
        self.counts.as_deref().map_or(&[], |c| c.as_slice())
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest observation recorded, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The quantile estimate at `q_ppm` parts-per-million (e.g.
    /// `990_000` = p99): the inclusive upper bound of the bucket
    /// holding the sample of rank `ceil(q * count)` (clamped to
    /// [`QuantileSketch::max`]). Returns `None` on an empty sketch.
    pub fn quantile_ppm(&self, q_ppm: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // rank in [1, count]: ceil(count * q / 1e6), floored at 1.
        let r = rank_of(self.count, q_ppm);
        let mut cum = 0u64;
        for (b, &c) in self.buckets().iter().enumerate() {
            cum += c;
            if cum >= r {
                return Some(bucket_hi(b).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// The 1-based rank the sketch's quantile rule selects at `q_ppm` out
/// of `n` samples: `ceil(n * q / 1e6)`, floored at 1.
fn rank_of(n: u64, q_ppm: u64) -> u64 {
    (n.saturating_mul(q_ppm.min(1_000_000)))
        .div_ceil(1_000_000)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        // Every value maps to a bucket whose bounds contain it, and
        // bucket indices are monotone in the value.
        let mut vals: Vec<u64> = (0..64)
            .flat_map(|s| [0u64, 1, 3].map(|off| (1u64 << s).saturating_add(off)))
            .collect();
        vals.sort_unstable();
        let mut prev_bucket = 0;
        for v in vals {
            let b = bucket_of(v);
            assert!(b >= prev_bucket, "bucket order broke at {v}");
            prev_bucket = b;
            assert!(bucket_hi(b) >= v, "hi({b}) < {v}");
            let width_ok = bucket_hi(b) - v <= (v >> EPS_SHIFT).max(1);
            assert!(width_ok, "bucket too wide at {v}: hi={}", bucket_hi(b));
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        let _ = bucket_hi(BUCKETS - 1); // no overflow panic
    }

    #[test]
    fn exact_small_values() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 2, 3, 9, 15] {
            s.record(v);
        }
        assert_eq!(s.quantile_ppm(0), Some(0));
        assert_eq!(s.quantile_ppm(1_000_000), Some(15));
        assert_eq!(s.quantile_ppm(500_000), Some(2));
    }

    #[test]
    fn estimate_brackets_the_exact_rank_value() {
        let mut s = QuantileSketch::new();
        let mut vals: Vec<u64> = (0..500).map(|i| (i * i * 37 + i) % 100_000).collect();
        for &v in &vals {
            s.record(v);
        }
        vals.sort_unstable();
        for q in [100_000u64, 500_000, 900_000, 990_000, 1_000_000] {
            let r = ((vals.len() as u64 * q).div_ceil(1_000_000)).max(1) as usize;
            let exact = vals[r - 1];
            let est = s.quantile_ppm(q).unwrap();
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            assert!(
                est <= exact + (exact >> EPS_SHIFT).max(1),
                "q={q}: est {est} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile_ppm(990_000), None);
        assert_eq!(s.count(), 0);
    }
}
