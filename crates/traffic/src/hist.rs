//! Deterministic log-bucketed latency histogram (HDR-histogram style):
//! integer-only bucket math, exact merge, and permille percentile
//! extraction with a bounded relative error of `2^-precision`.
//!
//! Values below `2^precision` get exact unit buckets; above that, each
//! octave is split into `2^precision` sub-buckets, so a reported
//! percentile is the *upper bound* of its bucket — at most a factor
//! `1 + 2^-precision` above the true order statistic, and never below it.

use sst_isa::{Snap, SnapError, SnapReader, SnapWriter};

/// Log-bucketed latency histogram with integer bucket math.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    precision: u32,
    max_value: u64,
    buckets: Vec<u64>,
    saturated: u64,
    total: u64,
}

impl LatencyHistogram {
    /// A histogram tracking values in `[0, max_value]` with
    /// `2^precision` sub-buckets per octave. Values above `max_value`
    /// are counted in a saturation bucket and report as `max_value`.
    pub fn new(precision: u32, max_value: u64) -> LatencyHistogram {
        assert!((1..=10).contains(&precision), "precision out of range");
        assert!(max_value >= (1 << precision));
        let buckets = vec![0; Self::bucket_of(precision, max_value) + 1];
        LatencyHistogram {
            precision,
            max_value,
            buckets,
            saturated: 0,
            total: 0,
        }
    }

    fn bucket_of(precision: u32, v: u64) -> usize {
        if v < (1 << precision) {
            return v as usize;
        }
        let top = 63 - v.leading_zeros(); // index of the highest set bit
        let shift = top - precision;
        let mask = (1u64 << precision) - 1;
        (((shift as usize) + 1) << precision) + (((v >> shift) & mask) as usize)
    }

    /// The largest value a bucket covers (the value percentiles report).
    fn bucket_upper(&self, index: usize) -> u64 {
        let p = self.precision;
        if index < (1usize << p) {
            return index as u64;
        }
        let shift = (index >> p) as u32 - 1;
        let off = (index & ((1 << p) - 1)) as u64;
        // The last sub-bucket of the top octave (values up to u64::MAX)
        // computes `2^(p+1) << (63-p)` = 2^64 here, which sheds its high
        // bit to 0; wrapping the decrement turns that into the intended
        // u64::MAX instead of a debug-build underflow panic. Every other
        // index stays below 2^64 and is unaffected.
        (((1u64 << p) + off + 1) << shift).wrapping_sub(1)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        if v > self.max_value {
            self.saturated += 1;
        } else {
            self.buckets[Self::bucket_of(self.precision, v)] += 1;
        }
        self.total += 1;
    }

    /// Exact element-wise merge. Panics if the shapes differ.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.max_value, other.max_value, "max_value mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.saturated += other.saturated;
        self.total += other.total;
    }

    /// The value at permille rank `p` (`500` = median, `990` = p99,
    /// `999` = p99.9): the upper bound of the bucket holding the
    /// `ceil(total * p / 1000)`-th smallest sample. `None` when empty.
    pub fn percentile_permille(&self, p: u64) -> Option<u64> {
        assert!(p <= 1000, "permille rank out of range");
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as u128 * p as u128).div_ceil(1000) as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_upper(i).min(self.max_value));
            }
        }
        Some(self.max_value) // rank falls among the saturated samples
    }

    /// Total recorded values (including saturated ones).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Values recorded above `max_value`.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }
}

/// The shape, then the occupied buckets as `(index, count)` pairs in
/// ascending index order, then the saturation count. The total is not
/// stored: it is their sum, taken back with checked adds.
impl Snap for LatencyHistogram {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.precision);
        w.put_u64(self.max_value);
        let occupied: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        occupied.put(w);
        w.put_u64(self.saturated);
    }

    fn take(r: &mut SnapReader<'_>) -> Result<LatencyHistogram, SnapError> {
        let (precision, max_value) = (r.take_u32()?, r.take_u64()?);
        if !(1..=10).contains(&precision) || max_value < (1 << precision) {
            return Err(SnapError::Corrupt(format!(
                "histogram shape {precision}/{max_value}"
            )));
        }
        let mut h = LatencyHistogram::new(precision, max_value);
        let mut next = 0;
        for (i, c) in Vec::<(usize, u64)>::take(r)? {
            if i < next || i >= h.buckets.len() {
                return Err(SnapError::Corrupt(format!("histogram bucket {i}")));
            }
            h.buckets[i] = c;
            h.total = h.total.checked_add(c).ok_or_else(overflow)?;
            next = i + 1;
        }
        h.saturated = r.take_u64()?;
        h.total = h.total.checked_add(h.saturated).ok_or_else(overflow)?;
        Ok(h)
    }
}

fn overflow() -> SnapError {
    SnapError::Corrupt("histogram total overflows u64".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_prng::Prng;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new(5, 1 << 20);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_permille(500), None);
        assert_eq!(h.percentile_permille(999), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHistogram::new(5, 1 << 20);
        h.record(777);
        for p in [0, 1, 500, 990, 999, 1000] {
            let got = h.percentile_permille(p).unwrap();
            assert!((777..=777 + 777 / 32).contains(&got), "p{p} -> {got}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new(5, 1 << 20);
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.percentile_permille(500), Some(15));
        assert_eq!(h.percentile_permille(1000), Some(31));
    }

    #[test]
    fn saturating_values_clamp_to_max() {
        let mut h = LatencyHistogram::new(5, 1 << 10);
        h.record(5);
        h.record(u64::MAX);
        h.record(1 << 40);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile_permille(999), Some(1 << 10));
        assert!(h.percentile_permille(333).unwrap() >= 5);
    }

    #[test]
    fn merge_is_associative_and_equals_bulk_recording() {
        let mk = |vals: &[u64]| {
            let mut h = LatencyHistogram::new(5, 1 << 16);
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (
            mk(&[1, 50, 3000, 1 << 20]),
            mk(&[7, 7, 7, 99_999]),
            mk(&[0, 65_536, 12]),
        );
        // (a+b)+c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a+(b+c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // and both equal recording everything into one histogram
        let all = mk(&[1, 50, 3000, 1 << 20, 7, 7, 7, 99_999, 0, 65_536, 12]);
        assert_eq!(left, all);
    }

    #[test]
    fn round_trips_through_sparse_parts() {
        let mut h = LatencyHistogram::new(6, 1 << 24);
        for v in [0, 1, 63, 64, 1000, 123_456, 1 << 24, (1 << 24) + 1] {
            h.record(v);
        }
        let mut w = SnapWriter::new();
        h.put(&mut w);
        let mut r = SnapReader::new(w.as_bytes());
        assert_eq!(LatencyHistogram::take(&mut r), Ok(h));
        r.finish().unwrap();
    }

    /// Encoded shape, bucket pairs and saturation count, as `put` lays
    /// them out, then `take` of those bytes.
    fn take_parts(
        precision: u32,
        max_value: u64,
        buckets: &[(usize, u64)],
        saturated: u64,
    ) -> bool {
        let mut w = SnapWriter::new();
        (precision, max_value, buckets.to_vec(), saturated).put(&mut w);
        LatencyHistogram::take(&mut SnapReader::new(w.as_bytes())).is_ok()
    }

    #[test]
    fn malformed_parts_are_corrupt_not_a_panic() {
        assert!(take_parts(5, 1 << 10, &[(0, 1), (40, 2)], 3), "well-formed");
        assert!(!take_parts(0, 1 << 10, &[], 0), "precision 0");
        assert!(!take_parts(11, 1 << 20, &[], 0), "precision 11");
        assert!(!take_parts(5, 31, &[], 0), "range below 2^precision");
        assert!(
            !take_parts(5, 1 << 10, &[(1 << 20, 1)], 0),
            "index past the last bucket"
        );
        assert!(
            !take_parts(5, 1 << 10, &[(4, 1), (4, 1)], 0),
            "repeated index"
        );
        assert!(
            !take_parts(5, 1 << 10, &[(4, 1), (3, 1)], 0),
            "descending indices"
        );
        assert!(
            !take_parts(5, 1 << 10, &[(0, u64::MAX), (1, u64::MAX)], 0),
            "total overflows"
        );
        assert!(
            !take_parts(5, 1 << 10, &[(0, u64::MAX)], 1),
            "saturation overflows the total"
        );
    }

    /// Bucket edges at the seams: every power of two and its neighbours
    /// must satisfy the reporting contract `v <= upper(bucket_of(v)) <=
    /// v * (1 + 2^-p)`, for every precision — this is where the octave
    /// math can be off by one.
    #[test]
    fn bucket_edges_bracket_powers_of_two() {
        for p in 1..=10u32 {
            let h = LatencyHistogram::new(p, u64::MAX);
            let mut probes: Vec<u64> = vec![0, 1, u64::MAX - 1, u64::MAX];
            for e in 1..64u32 {
                let v = 1u64 << e;
                probes.extend([v - 1, v, v + 1]);
            }
            for v in probes {
                let upper = h.bucket_upper(LatencyHistogram::bucket_of(p, v));
                assert!(upper >= v, "p{p}: upper({v}) = {upper} < value");
                let slack = v.saturating_add((v >> p) + 1);
                assert!(
                    upper <= slack,
                    "p{p}: upper({v}) = {upper} > {v} + 2^-{p} slack"
                );
            }
        }
    }

    /// The sub-`2^precision` region is exact: each value its own bucket,
    /// with the upper bound equal to the value itself.
    #[test]
    fn linear_region_is_exact_per_value() {
        for p in [1u32, 5, 10] {
            let h = LatencyHistogram::new(p, u64::MAX);
            for v in 0..(1u64 << p) {
                let b = LatencyHistogram::bucket_of(p, v);
                assert_eq!(b, v as usize, "p{p}: value {v} not its own bucket");
                assert_eq!(h.bucket_upper(b), v);
            }
            // First value past the linear region starts the octave math.
            let v = 1u64 << p;
            assert!(h.bucket_upper(LatencyHistogram::bucket_of(p, v)) >= v);
        }
    }

    /// Regression: a histogram spanning the full u64 range must report a
    /// percentile from its top bucket without overflowing (`bucket_upper`
    /// used to compute `2^64 - 1` via an underflowing subtraction).
    #[test]
    fn top_bucket_of_full_range_histogram_reports_max() {
        let mut h = LatencyHistogram::new(5, u64::MAX);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.saturated(), 0, "u64::MAX is representable, not saturated");
        assert_eq!(h.percentile_permille(1000), Some(u64::MAX));
        assert!(h.percentile_permille(900).unwrap() >= u64::MAX - (u64::MAX >> 5));
    }

    /// Property check: for random samples, every histogram percentile
    /// must bracket the exact order statistic from a sorted vector:
    /// `exact <= hist <= exact * (1 + 2^-p)` (upper-bound reporting).
    #[test]
    fn percentiles_bracket_exact_quantiles() {
        let mut prng = Prng::seed_from_u64(1234);
        for round in 0..20 {
            let n = 1 + (prng.next_u64() % 3000) as usize;
            let mut vals: Vec<u64> = (0..n)
                .map(|_| {
                    // Mixture: mostly small, a heavy tail.
                    let r = prng.next_u64();
                    if r % 10 == 0 {
                        r % (1 << 22)
                    } else {
                        r % 2048
                    }
                })
                .collect();
            let mut h = LatencyHistogram::new(5, 1 << 30);
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            for p in [1u64, 10, 250, 500, 900, 990, 999, 1000] {
                let rank = ((n as u128 * p as u128).div_ceil(1000) as usize).max(1);
                let exact = vals[rank - 1];
                let got = h.percentile_permille(p).unwrap();
                assert!(got >= exact, "round {round} p{p}: {got} < exact {exact}");
                let slack = exact + (exact >> 5) + 1;
                assert!(
                    got <= slack,
                    "round {round} p{p}: {got} > {exact} + 1/32 ({slack})"
                );
            }
        }
    }
}
