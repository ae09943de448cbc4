//! Latency statistics and deadline-miss accounting.

/// A summary of a set of retrieval latencies (in slots).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencySummary {
    samples: Vec<usize>,
}

impl LatencySummary {
    /// An empty summary.
    pub fn new() -> Self {
        LatencySummary::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: usize) {
        self.samples.push(latency);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The mean latency, or 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<usize>() as f64 / self.samples.len() as f64
    }

    /// The maximum latency observed.
    pub fn max(&self) -> usize {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The minimum latency observed.
    pub fn min(&self) -> usize {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> usize {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The median latency.
    pub fn median(&self) -> usize {
        self.quantile(0.5)
    }

    /// The 99th-percentile latency.
    pub fn p99(&self) -> usize {
        self.quantile(0.99)
    }

    /// The raw samples.
    pub fn samples(&self) -> &[usize] {
        &self.samples
    }
}

/// Deadline-miss accounting across many retrievals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissReport {
    /// Retrievals that met their deadline.
    pub met: usize,
    /// Retrievals that missed their deadline.
    pub missed: usize,
}

impl MissReport {
    /// Records one retrieval outcome.
    pub fn record(&mut self, met: bool) {
        if met {
            self.met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Total retrievals recorded.
    pub fn total(&self) -> usize {
        self.met + self.missed
    }

    /// The deadline-miss ratio (0 for no retrievals).
    pub fn miss_ratio(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.missed as f64 / self.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = LatencySummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.median(), 0);
    }

    #[test]
    fn summary_statistics() {
        let mut s = LatencySummary::new();
        for l in [5, 1, 9, 3, 7] {
            s.record(l);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert_eq!(s.median(), 5);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 9);
        assert_eq!(s.samples().len(), 5);
    }

    #[test]
    fn p99_tracks_the_tail() {
        let mut s = LatencySummary::new();
        for _ in 0..99 {
            s.record(10);
        }
        s.record(100);
        assert_eq!(s.p99(), 10);
        s.record(100);
        assert!(s.p99() >= 10);
        assert_eq!(s.max(), 100);
    }

    #[test]
    fn miss_report_ratios() {
        let mut m = MissReport::default();
        assert_eq!(m.miss_ratio(), 0.0);
        m.record(true);
        m.record(true);
        m.record(false);
        assert_eq!(m.total(), 3);
        assert!((m.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }
}
