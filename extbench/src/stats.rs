//! Latency histograms with fixed memory.
//!
//! Values below 2048 ns are kept exactly (one bucket per nanosecond);
//! above that each power of two is split into 1024 buckets, so a
//! reported percentile is within 0.1% of the measured sample. Memory is
//! fixed whatever the sample count, so a run that completes more ops
//! does not use more memory (which would move `peak_rss_mb`).

use std::time::Instant;

const EXACT: u64 = 2048;
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const FIRST_EXP: u32 = 11; // 2^11 == EXACT
const BUCKETS: usize = EXACT as usize + (64 - FIRST_EXP as usize) * SUB;

/// A latency histogram in nanoseconds.
pub struct LatHist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    EXACT as usize + (e - FIRST_EXP) as usize * SUB + m
}

/// The middle of bucket `i`.
fn value(i: usize) -> f64 {
    if i < EXACT as usize {
        return i as f64;
    }
    let e = ((i - EXACT as usize) / SUB) as u32 + FIRST_EXP;
    let m = ((i - EXACT as usize) % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    ((SUB as u64 + m) * width) as f64 + width as f64 / 2.0
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
        self.sum = 0;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Total of all samples, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank percentile `q` in `(0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank {rank} within {} samples", self.n)
    }
}

pub fn ns_between(t0: Instant, t1: Instant) -> u64 {
    t1.saturating_duration_since(t0).as_nanos() as u64
}

/// Nearest-rank percentile `q` in `(0, 1]` of a small sample set; 0
/// when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Median of a small sample set (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_ones_close() {
        for v in [0u64, 1, 2047, 2048, 3000, 123_456, 9_876_543_210] {
            let mid = value(index(v));
            assert!((mid - v as f64).abs() <= v as f64 / 1024.0, "{v} -> {mid}");
        }
        assert_eq!(value(index(1234)), 1234.0);
    }

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut h = LatHist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }
}
