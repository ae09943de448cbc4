//! The estimators every reported number goes through: medians, nearest-rank
//! percentiles and the percentile-support rule.  (The per-window rule lives
//! with the recorder that cuts the windows.)

/// The median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The nearest-rank `pct`-th percentile of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The percentiles a tail claim may be made at, lowest to highest.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it — the only tail a sample of `n` supports.  `None` below twenty
/// samples (even the median would have fewer than ten on each side).
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|pct| (n as f64) * (1.0 - pct / 100.0) >= 10.0 - 1e-9)
}

/// A timing sample summarised the way every timing metric is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// `(percentile, value)` of the highest supported percentile, if any.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Option<Timing> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile_sorted(&sorted, 50.0)?;
        let p99 = percentile_sorted(&sorted, 99.0)?;
        let tail = supported_percentile(sorted.len())
            .and_then(|pct| percentile_sorted(&sorted, pct).map(|v| (pct, v)));
        Some(Timing {
            count: sorted.len(),
            p50,
            p99,
            tail,
        })
    }

    /// The note carried beside the p50: the supported tail and sample count.
    pub fn note(&self) -> String {
        match self.tail {
            Some((pct, value)) => format!("p{pct} = {value:.4} over {} samples", self.count),
            None => format!("{} samples: too few for any percentile claim", self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn timing_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&samples).unwrap();
        assert_eq!((t.count, t.p50, t.p99), (1000, 500.0, 990.0));
        assert_eq!(t.tail, Some((99.0, 990.0)));
        let few = Timing::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(few.tail, None);
        assert!(few.note().contains("too few"));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
