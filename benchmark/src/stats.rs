//! Order statistics the reports use: the fastest sample the gated
//! timings are taken at, the median, the "highest percentile with at
//! least ten samples beyond it" rule, and the quartile spread the
//! acceptance check is stated in.

/// Linear-interpolated percentile (`p` in 0..=100) of sorted samples.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 50.0)
}

/// The fastest sample: the value every gated timing is reported at
/// (the ROADMAP's min-of-N). Noise on the shared 2-core box is
/// one-sided and bimodal: for seconds at a time, and for anything from
/// a fifth to nine tenths of a run, memory-bound blocks take 1.35-1.7x
/// as long, then return to the same fast level. A run's median (and,
/// in a bad quarter of an hour, its 10th percentile) therefore measures
/// how much of the run the slow mode covered; the fastest block
/// measures the code. README, "Steadiness", has the numbers.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest of the conventional percentiles that still leaves at
/// least ten samples beyond it (p75 at 40 samples, p50 at 20), or
/// `None` below 20 samples, where not even the median has ten beyond.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In permille, so "exactly ten beyond" is exact.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|permille| n * (1000 - permille) >= 10 * 1000)
        .map(|permille| permille as f64 / 10.0)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// which is what the acceptance check uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// What every timing is printed as: the fastest sample it is gated
/// on, the median, the tail percentile the sample count supports, and
/// the count.
pub struct Summary {
    pub fastest: f64,
    pub median: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        fastest: s[0],
        median: percentile_sorted(&s, 50.0),
        tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
        n: s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(21), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_of_forty_samples_reports_p75() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 40);
        assert_eq!(s.median, 20.5);
        assert_eq!(s.fastest, 1.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(s.tail, Some((75.0, 30.25)));
    }

    /// `statistics.quantiles(range(1, 11), n=4)` is
    /// `[2.75, 5.5, 8.25]`; of `[1, 2, 4, 8, 16]` it is `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartile_spread(&v), 5.5 / 5.5);
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }
}
