//! The benchmark's arithmetic: percentiles with their sample counts,
//! medians over episodes, a log-linear duration histogram, and the
//! failure share.

/// A nearest-rank percentile together with the sample counts that make
/// it meaningful: how many samples there were and how many lie strictly
/// above the reported value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: u64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, n) - 1];
    let beyond = n - sorted.partition_point(|&x| x <= value);
    Some(Percentile {
        value,
        samples: n,
        beyond,
    })
}

/// Median of a set of per-episode figures (the mean of the two middle
/// values for an even count). `NaN` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Which episodes count towards a run's medians: those whose steal (time
/// the hypervisor took from the workload's CPUs) is at most the lower
/// median steal of the run. That is at least half of them, and all of them
/// when nothing was stolen, so noise from neighbours sharing the host is
/// left out by a signal measured beside the metric, never by the metric
/// itself.
pub fn quieter_half(steal: &[u64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let Some(&cut) = sorted.get(sorted.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// Failed messages as a share of messages attempted, capped at 1 (a
/// flood of duplicates cannot make more than every message fail).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return if failed == 0 { 0.0 } else { 1.0 };
    }
    (failed as f64 / attempted as f64).min(1.0)
}

/// Sub-buckets per power of two: bucket width is at most 1/64 of the
/// value, so an interpolated percentile is within about 1.6%.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Largest exponent kept; longer durations (over ~18 minutes in ns)
/// land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (SUB + (MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear histogram of durations in nanoseconds: exact below 64,
/// then 64 equal-width buckets per power of two. Fixed memory, so a
/// traced run can record every call without keeping every sample.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// Bucket index and the bucket's `[lo, lo + width)` range for `v`.
fn bucket(v: u64) -> (usize, u64, u64) {
    if v < SUB {
        return (v as usize, v, 1);
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
    let sub = (v >> shift) & (SUB - 1);
    let idx = SUB + (exp - SUB_BITS) as u64 * SUB + sub;
    let lo = (1u64 << exp) + (sub << shift);
    (idx as usize, lo, 1u64 << shift)
}

/// The inverse of [`bucket`] for a bucket index.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let exp = (idx - SUB) / SUB + SUB_BITS as u64;
    let sub = (idx - SUB) % SUB;
    let shift = exp - SUB_BITS as u64;
    ((1u64 << exp) + (sub << shift), 1u64 << shift)
}

impl Histogram {
    /// Count one duration.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v).0] += 1;
        self.total += 1;
    }

    /// Add every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Percentile `p` (0 < p < 100), interpolated linearly inside the
    /// bucket that holds the rank. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 100.0, "percentile must be in (0, 100)");
        if self.total == 0 {
            return None;
        }
        let rank = p / 100.0 * self.total as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let into = (rank - below as f64) / c as f64;
                return Some(lo as f64 + into * width as f64);
            }
            below += c;
        }
        unreachable!("rank lies within the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_counts() {
        let v: Vec<u64> = (1..=10).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (5, 10, 5));
        let p90 = percentile(&v, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (9, 1));
        let p100 = percentile(&v, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (10, 0));
        // Ten samples beyond p99 need at least a thousand samples.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&v, 99.0).unwrap().beyond, 10);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ties_are_not_counted_as_beyond() {
        let v = [1, 2, 2, 2, 3];
        let p = percentile(&v, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (2, 1));
        let single = percentile(&[7], 90.0).unwrap();
        assert_eq!((single.value, single.samples, single.beyond), (7, 1, 0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quieter_half_keeps_the_episodes_with_least_steal() {
        assert_eq!(
            quieter_half(&[0, 0, 0]),
            vec![0, 1, 2],
            "no steal: all count"
        );
        assert_eq!(quieter_half(&[5, 1, 9, 2]), vec![1, 3]);
        assert_eq!(quieter_half(&[5, 1, 9, 2, 7]), vec![0, 1, 3]);
        assert_eq!(quieter_half(&[3, 3, 3, 8]), vec![0, 1, 2], "ties stay in");
        assert!(quieter_half(&[]).is_empty());
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(0, 1000), 0.0);
        assert_eq!(failed_share(5, 1000), 0.005);
        assert_eq!(failed_share(3000, 1000), 1.0, "capped at every message");
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(1, 0), 1.0);
    }

    #[test]
    fn buckets_round_trip_and_cover_every_value() {
        for v in (0..5000u64).chain([1 << 20, (1 << 20) + 12345, 1 << 39]) {
            let (idx, lo, width) = bucket(v);
            assert_eq!(bucket_range(idx), (lo, width), "value {v}");
            assert!(lo <= v && v < lo + width, "value {v} outside its bucket");
            assert!(width == 1 || width * SUB <= v, "bucket wider than 1/64");
        }
        assert!(bucket(u64::MAX).0 < BUCKETS);
    }

    #[test]
    fn histogram_percentile_interpolates_within_its_bucket() {
        let mut h = Histogram::default();
        for v in 0..1000 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        assert!((p50 - 500.0).abs() <= 500.0 / 64.0, "p50 {p50}");
        let p90 = h.percentile(90.0).unwrap();
        assert!((p90 - 900.0).abs() <= 900.0 / 64.0, "p90 {p90}");
        // Exact region: 40 ones and 60 twos → the median rank is a two.
        let mut small = Histogram::default();
        (0..40).for_each(|_| small.record(1));
        (0..60).for_each(|_| small.record(2));
        let m = small.percentile(50.0).unwrap();
        assert!((2.0..3.0).contains(&m), "median {m}");
        let mut merged = Histogram::default();
        merged.merge(&small);
        merged.merge(&small);
        assert_eq!(merged.total, 200);
        assert_eq!(merged.percentile(50.0), small.percentile(50.0));
        assert_eq!(Histogram::default().percentile(50.0), None);
    }
}
