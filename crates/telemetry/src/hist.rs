//! Log2-bucketed histogram for message sizes and span durations.

/// A fixed-shape histogram: bucket `i` counts observations in
/// `[2^(i-1), 2^i)` (bucket 0 holds everything below 1.0). The shape
/// never reallocates after the first observation, keeping the recording
/// hot path cheap.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (meaningless when `count == 0`).
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Log2 bucket counts, indexed as described on the type.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { count: 0, sum: 0.0, min: 0.0, max: 0.0, buckets: [0; Histogram::BUCKETS] }
    }
}

impl Histogram {
    /// Number of log2 buckets: values up to `2^63` land in-range and
    /// larger ones clamp into the last bucket.
    pub const BUCKETS: usize = 64;

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[Histogram::bucket_of(value)] += 1;
    }

    /// Bucket index for a value.
    fn bucket_of(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let exp = value.log2().floor() as usize + 1;
        exp.min(Histogram::BUCKETS - 1)
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::default();
        h.observe(0.5); // bucket 0
        h.observe(1.0); // [1,2) -> bucket 1
        h.observe(1.9); // bucket 1
        h.observe(2.0); // [2,4) -> bucket 2
        h.observe(1024.0); // [1024,2048) -> bucket 11
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1024.0);
        assert!((h.mean() - (0.5 + 1.0 + 1.9 + 2.0 + 1024.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn huge_values_clamp() {
        let mut h = Histogram::default();
        h.observe(f64::MAX);
        assert_eq!(h.buckets[Histogram::BUCKETS - 1], 1);
    }
}
