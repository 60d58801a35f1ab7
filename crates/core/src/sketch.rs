//! Deterministic streaming quantile sketch.
//!
//! The sentinel tier evaluates tail-latency SLOs continuously over a
//! stream of per-epoch cost observations. It needs quantile estimates
//! that are (a) **deterministic** — the same observations in any epoch
//! grouping yield the same answer, so a replayed repro trips the same
//! budget at the same epoch; (b) **mergeable** — per-epoch sketches
//! combine across retained epochs and across collectors without order
//! sensitivity; and (c) **bounded** — fixed memory regardless of
//! stream length.
//!
//! [`QuantileSketch`] is a log-bucketed histogram in the HDR style:
//! values land in buckets of bounded *relative* width ([`EPS_SHIFT`]
//! sub-bucket bits per octave, so every bucket spans less than a
//! `1 + 2^-EPS_SHIFT` factor). Merging is bucket-wise addition —
//! commutative and associative by construction — and a quantile query
//! walks the cumulative counts to the bucket holding the target rank
//! and returns that bucket's inclusive upper bound. The estimate `e`
//! for the rank-`r` sample `v` therefore satisfies
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

/// A fixed-size, mergeable, deterministic quantile sketch over `u64`
/// observations. See the module docs for the error contract.
///
/// The histogram is allocated by the first observation: an empty
/// sketch holds none, so creating, cloning and resetting one is free.
/// Nodes that keep a sketch per stage and drain it every flush (the
/// federation leaves) hold mostly empty ones.
#[derive(Clone, Default)]
pub struct QuantileSketch {
    /// `None` until something is recorded or merged in.
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

    /// Number of observations recorded (including merged ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest observation recorded, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds `other` into `self`. Bucket-wise addition: commutative,
    /// associative, and loss-free with respect to later queries.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if let Some(theirs) = &other.counts {
            match &mut self.counts {
                Some(mine) => {
                    for (a, b) in mine.iter_mut().zip(theirs.iter()) {
                        *a += b;
                    }
                }
                None => self.counts = Some(theirs.clone()),
            }
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Sparse wire form: the exact max plus every nonzero `(bucket,
    /// count)` pair in ascending bucket order. Federation frames ship
    /// digests in this shape — a handful of pairs instead of the fixed
    /// 7.8 KiB histogram — and [`QuantileSketch::from_wire`] rebuilds a
    /// sketch that merges and queries bit-identically to the original.
    pub fn to_wire(&self) -> (u64, Vec<(u32, u64)>) {
        let buckets = self
            .buckets()
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| (b as u32, c))
            .collect();
        (self.max, buckets)
    }

    /// Rebuilds a sketch from its [`QuantileSketch::to_wire`] form. The
    /// observation count is the sum of the bucket counts; out-of-range
    /// bucket indices are ignored (a corrupt frame fails its checksum
    /// long before reaching this point).
    pub fn from_wire(max: u64, buckets: &[(u32, u64)]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        s.merge_wire(max, buckets);
        s
    }

    /// `self.merge(&QuantileSketch::from_wire(max, buckets))` without
    /// building the other sketch: the pairs are added in place, and the
    /// histogram is allocated only if one lands in range.
    pub fn merge_wire(&mut self, max: u64, buckets: &[(u32, u64)]) {
        for &(b, c) in buckets {
            if (b as usize) < BUCKETS {
                self.buckets_mut()[b as usize] += c;
                self.count += c;
            }
        }
        self.max = self.max.max(max);
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
/// of `n` samples: `ceil(n * q / 1e6)`, floored at 1. Exposed so
/// callers can recognize the extreme ranks (1 = min, `n` = max) and
/// compute those without materializing the sample set.
pub fn rank_of(n: u64, q_ppm: u64) -> u64 {
    (n.saturating_mul(q_ppm.min(1_000_000)))
        .div_ceil(1_000_000)
        .max(1)
}

/// Exactly the estimate a fresh sketch over `values` would return from
/// [`QuantileSketch::quantile_ppm`], computed without allocating one.
/// Bucket indices are monotone in the value, so the bucket holding the
/// rank-`r` sample is the bucket of the rank-`r` value — sorting the
/// values and bucketing one of them gives the identical answer. May
/// reorder `values`. The sentinel uses this on its small per-window
/// slices, where a fixed 7.8 KiB histogram per evaluation would be all
/// allocation and no data.
pub fn quantile_ppm_over(values: &mut [u64], q_ppm: u64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as u64;
    let r = rank_of(n, q_ppm);
    let max = *values.iter().max().expect("non-empty");
    // Extreme ranks need no sort: rank n is the max, rank 1 the min —
    // and high quantiles over small windows (the sentinel's per-epoch
    // case) always land on rank n.
    let v = if r == n {
        max
    } else if r == 1 {
        *values.iter().min().expect("non-empty")
    } else {
        values.sort_unstable();
        values[(r - 1) as usize]
    };
    Some(bucket_hi(bucket_of(v)).min(max))
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
    fn merge_is_commutative_and_matches_single_stream() {
        let vals: Vec<u64> = (0..300).map(|i| (i * 7919) % 50_000).collect();
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for q in [0, 250_000, 500_000, 990_000, 1_000_000] {
            assert_eq!(ab.quantile_ppm(q), ba.quantile_ppm(q));
            assert_eq!(ab.quantile_ppm(q), whole.quantile_ppm(q));
        }
        assert_eq!(ab.count(), whole.count());
        assert_eq!(ab.max(), whole.max());
    }

    #[test]
    fn wire_round_trip_is_exact() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 3, 3, 99, 1 << 20, u64::MAX] {
            s.record(v);
        }
        let (max, buckets) = s.to_wire();
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        let r = QuantileSketch::from_wire(max, &buckets);
        assert_eq!(r.count(), s.count());
        assert_eq!(r.max(), s.max());
        for q in [0u64, 500_000, 990_000, 1_000_000] {
            assert_eq!(r.quantile_ppm(q), s.quantile_ppm(q));
        }
        // Empty sketch round-trips to an empty wire form.
        let (m, b) = QuantileSketch::new().to_wire();
        assert_eq!((m, b.len()), (0, 0));
    }

    #[test]
    fn merge_wire_allocates_only_for_a_pair_that_lands() {
        let mut s = QuantileSketch::new();
        s.merge_wire(7, &[]);
        s.merge_wire(9, &[(BUCKETS as u32, 5), (u32::MAX, 1)]);
        assert!(s.counts.is_none());
        assert_eq!((s.count(), s.max()), (0, 9));
        s.merge_wire(3, &[(2, 4)]);
        assert!(s.counts.is_some());
        assert_eq!((s.count(), s.max()), (4, 9));
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile_ppm(990_000), None);
        assert_eq!(s.count(), 0);
        assert_eq!(quantile_ppm_over(&mut [], 990_000), None);
    }

    #[test]
    fn slice_path_matches_the_sketch_exactly() {
        // Window-sized slices (the sentinel's workload), arbitrary
        // magnitudes and duplicates, every quantile: both paths must
        // agree bit for bit.
        let pools: &[&[u64]] = &[
            &[0],
            &[0, 0, 0],
            &[7],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[u64::MAX, 0, 1 << 40, 1 << 40, 3, 999_999_937],
            &[2_184_000_000, 1_137_603_200, 0, 38_427_600],
        ];
        for vals in pools {
            let mut sk = QuantileSketch::new();
            for &v in *vals {
                sk.record(v);
            }
            for q in [0u64, 100_000, 500_000, 900_000, 990_000, 1_000_000] {
                let mut scratch = vals.to_vec();
                assert_eq!(
                    quantile_ppm_over(&mut scratch, q),
                    sk.quantile_ppm(q),
                    "vals {vals:?} q {q}"
                );
            }
        }
    }
}
