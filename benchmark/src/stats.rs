//! Order statistics for the latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` of all samples are at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile together with how well the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (`wanted`, or lower if the sample
    /// is too small).
    pub p: f64,
    pub value: u64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Mantissa bits of a [`Histogram`] bucket: a bucket is 1/512 of its value
/// wide, so a percentile read from it is good to 0.1 %.
const SUB_BITS: u32 = 9;
const SUB: u64 = 1 << SUB_BITS;

/// Latencies in nanoseconds, counted in buckets of constant relative width.
/// Memory is fixed however many operations a run completes, so
/// `peak_rss_mb` does not rise with throughput. Values below 1024 ns are
/// exact.
#[derive(Clone, Default)]
pub struct Histogram {
    counts: Vec<u32>,
    len: usize,
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let block = (exp - SUB_BITS + 1) as u64;
    (block * SUB + (ns >> (exp - SUB_BITS)) - SUB) as usize
}

/// The middle of bucket `index`.
fn bucket_value(index: usize) -> u64 {
    let (block, offset) = (index as u64 / SUB, index as u64 % SUB);
    if block == 0 {
        return offset;
    }
    let width = 1u64 << (block - 1);
    (SUB + offset) * width + width / 2
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        let index = bucket(ns);
        if index >= self.counts.len() {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.len += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.len += other.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The `rank`th smallest sample (from 1), as its bucket's middle.
    fn at_rank(&self, rank: usize) -> u64 {
        let mut seen = 0usize;
        for (index, count) in self.counts.iter().enumerate() {
            seen += *count as usize;
            if seen >= rank {
                return bucket_value(index);
            }
        }
        panic!("rank {rank} of {} samples", self.len);
    }

    /// Nearest-rank percentile; 0 of no samples.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.len == 0 {
            return 0;
        }
        self.at_rank(rank(self.len, p))
    }

    /// The `wanted` percentile if at least [`MIN_BEYOND`] samples lie
    /// beyond it; otherwise the highest percentile that has that many
    /// beyond it (the median when even that is impossible).
    pub fn tail(&self, wanted: f64) -> Tail {
        let n = self.len;
        if n == 0 {
            return Tail {
                p: wanted,
                value: 0,
                beyond: 0,
            };
        }
        let mut r = rank(n, wanted);
        if n - r < MIN_BEYOND {
            r = if n >= 2 * MIN_BEYOND {
                n - MIN_BEYOND
            } else {
                rank(n, 0.5)
            };
        }
        Tail {
            p: if r == rank(n, wanted) {
                wanted
            } else {
                r as f64 / n as f64
            },
            value: self.at_rank(r),
            beyond: n - r,
        }
    }
}

/// Median of unsorted values (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: impl Iterator<Item = u64>) -> Histogram {
        let mut h = Histogram::default();
        values.for_each(|v| h.record(v));
        h
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        let h = histogram(1..=100);
        assert_eq!(
            (h.percentile(0.5), h.percentile(0.99), h.percentile(1.0)),
            (50, 99, 100)
        );
        assert_eq!(Histogram::default().percentile(0.5), 0);
    }

    #[test]
    fn histogram_values_are_within_a_thousandth() {
        for ns in [1, 511, 512, 1023, 1024, 48_371, 8_585_400, u32::MAX as u64] {
            let read = histogram([ns].into_iter()).percentile(0.5);
            assert!(
                read.abs_diff(ns) as f64 <= ns as f64 / 1000.0,
                "{ns} read as {read}"
            );
        }
        // Buckets are in ascending order of value.
        assert!((0..20_000).all(|i| bucket_value(i) < bucket_value(i + 1)));
        let mut merged = histogram(1..=50);
        merged.merge(&histogram(51..=100_000));
        assert_eq!(merged.len(), 100_000);
        assert_eq!(merged.percentile(0.0005), 50);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond — reported as asked.
        let t = histogram(1..=1000).tail(0.99);
        assert_eq!((t.p, t.value, t.beyond), (0.99, 990, 10));

        // 999 samples: only nine beyond rank 990, so fall back to the rank
        // that has ten beyond it.
        let t = histogram(1..=999).tail(0.99);
        assert_eq!((t.value, t.beyond), (989, 10));
        assert!(t.p < 0.99);

        // 200 samples: p95 is the best supported tail.
        let t = histogram(1..=200).tail(0.99);
        assert_eq!((t.p, t.value, t.beyond), (0.95, 190, 10));

        // Too few samples for any tail: the median.
        let t = histogram(1..=15).tail(0.99);
        assert_eq!((t.value, t.beyond), (8, 7));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
