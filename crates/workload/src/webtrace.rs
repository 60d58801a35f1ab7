//! Synthetic web-server trace (stand-in for the Rice CS trace).
//!
//! The paper replays a trace collected at Rice's CS department web
//! server against Apache, Squid, and Haboob. The properties the
//! experiments depend on are:
//!
//! - a skewed file popularity (so proxy/server caches get realistic hit
//!   rates),
//! - a heavy-tailed file-size distribution (so throughput is
//!   bytes-dominated by large files),
//! - clients that "open new connections, send a few HTTP requests over
//!   them, close the connections, and then again send more requests
//!   over new connections" (§9.2) — each new connection crosses
//!   Apache's fd queue and forces critical-section emulation.
//!
//! This module synthesizes a request stream with those properties from
//! a seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of the synthetic trace.
#[derive(Clone, Debug)]
pub struct WebTraceConfig {
    /// Number of distinct files.
    pub files: usize,
    /// RNG seed for the *file population* (sizes, popularity). Trace
    /// instances with the same `seed` agree on every file's size, so
    /// caches at different tiers stay consistent.
    pub seed: u64,
    /// Request-stream selector: instances with the same `seed` but
    /// different `stream`s draw different request sequences over the
    /// same file population (one stream per emulated client).
    pub stream: u64,
}

impl Default for WebTraceConfig {
    fn default() -> Self {
        WebTraceConfig {
            files: 2000,
            seed: 42,
            stream: 0,
        }
    }
}

/// Zipf skew of file popularity (1.0 ≈ classic web traces).
const ZIPF_ALPHA: f64 = 1.0;
/// Mean requests per connection (geometric); the paper's workload
/// sends "a few" requests per connection.
const MEAN_REQS_PER_CONN: f64 = 4.0;
/// Median file size in bytes.
const MEDIAN_FILE_BYTES: f64 = 8.0 * 1024.0;
/// Log-normal sigma of the size distribution.
const SIZE_SIGMA: f64 = 1.2;

/// One HTTP request drawn from the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WebRequest {
    /// File identifier.
    pub file: u32,
    /// Response size in bytes.
    pub bytes: u64,
    /// Whether this request is the last on its connection (the next
    /// request opens a fresh connection).
    pub last_on_connection: bool,
}

/// A seeded synthetic web trace.
#[derive(Clone, Debug)]
pub struct WebTrace {
    cfg: WebTraceConfig,
    rng: SmallRng,
    /// Zipf inverse-CDF table: cumulative popularity per rank.
    cdf: Vec<f64>,
    /// Per-file sizes (fixed per file, heavy-tailed across files).
    sizes: Vec<u64>,
    left_on_conn: u64,
}

impl WebTrace {
    /// Builds the trace generator.
    pub fn new(cfg: WebTraceConfig) -> Self {
        assert!(cfg.files > 0, "trace needs at least one file");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Zipf CDF over ranks 1..=files.
        let mut cdf = Vec::with_capacity(cfg.files);
        let mut acc = 0.0;
        for rank in 1..=cfg.files {
            acc += 1.0 / (rank as f64).powf(ZIPF_ALPHA);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Log-normal sizes: median * exp(sigma * N(0,1)).
        let sizes = (0..cfg.files)
            .map(|_| {
                let n = normal(&mut rng);
                let s = MEDIAN_FILE_BYTES * (SIZE_SIGMA * n).exp();
                (s.max(128.0)) as u64
            })
            .collect();
        // Requests come from a per-stream RNG so clients sharing a
        // file population draw independent sequences.
        let stream_rng = SmallRng::seed_from_u64(
            cfg.seed ^ cfg.stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1,
        );
        let mut t = WebTrace {
            cfg,
            rng: stream_rng,
            cdf,
            sizes,
            left_on_conn: 0,
        };
        t.left_on_conn = t.draw_conn_len();
        t
    }

    fn draw_conn_len(&mut self) -> u64 {
        // Geometric with the configured mean, at least 1.
        let p = 1.0 / MEAN_REQS_PER_CONN;
        let mut n = 1;
        while self.rng.gen::<f64>() > p && n < 64 {
            n += 1;
        }
        n
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> WebRequest {
        let u = self.rng.gen::<f64>();
        let file = self.cdf.partition_point(|&c| c < u).min(self.cfg.files - 1) as u32;
        self.left_on_conn -= 1;
        let last = self.left_on_conn == 0;
        if last {
            self.left_on_conn = self.draw_conn_len();
        }
        WebRequest {
            file,
            bytes: self.sizes[file as usize],
            last_on_connection: last,
        }
    }

    /// The fixed size of `file`.
    pub fn file_size(&self, file: u32) -> u64 {
        self.sizes[file as usize]
    }

    /// Number of distinct files.
    pub fn files(&self) -> usize {
        self.cfg.files
    }
}

/// Standard-normal sample via Box–Muller.
fn normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = WebTrace::new(WebTraceConfig::default());
        let mut b = WebTrace::new(WebTraceConfig::default());
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let mut t = WebTrace::new(WebTraceConfig::default());
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(t.next_request().file).or_insert(0) += 1;
        }
        let top = counts.get(&0).copied().unwrap_or(0);
        let total: u32 = counts.values().sum();
        // Rank-1 under Zipf(1.0) over 2000 files holds ≈12% of mass.
        let share = top as f64 / total as f64;
        assert!(share > 0.05, "rank-1 share {share}");
        // And a long tail exists.
        assert!(counts.len() > 500, "distinct files {}", counts.len());
    }

    #[test]
    fn connections_have_geometric_lengths() {
        let mut t = WebTrace::new(WebTraceConfig::default());
        let n = 20_000;
        let conns = (0..n)
            .filter(|_| t.next_request().last_on_connection)
            .count();
        let mean = n as f64 / conns as f64;
        assert!((2.5..6.0).contains(&mean), "mean reqs/conn {mean}");
    }

    #[test]
    fn streams_share_sizes_but_differ_in_requests() {
        let a = WebTraceConfig {
            stream: 1,
            ..WebTraceConfig::default()
        };
        let b = WebTraceConfig {
            stream: 2,
            ..WebTraceConfig::default()
        };
        let mut ta = WebTrace::new(a);
        let mut tb = WebTrace::new(b);
        for f in 0..100 {
            assert_eq!(ta.file_size(f), tb.file_size(f));
        }
        let ra: Vec<_> = (0..50).map(|_| ta.next_request().file).collect();
        let rb: Vec<_> = (0..50).map(|_| tb.next_request().file).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn sizes_are_heavy_tailed_but_bounded_below() {
        let t = WebTrace::new(WebTraceConfig::default());
        let sizes: Vec<u64> = (0..t.files()).map(|f| t.file_size(f as u32)).collect();
        assert!(sizes.iter().all(|&s| s >= 128));
        let max = *sizes.iter().max().unwrap();
        let mut sorted = sizes.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        assert!(max > 10 * median, "max {max} median {median}");
    }
}
