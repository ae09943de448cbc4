//! What a timed run records, and how it becomes the end-to-end metrics.
//!
//! The run is cut into windows of at least half a second, their edges taken
//! at completion instants so a window spans a whole number of retrievals.
//! Every rate, cost and timing is first evaluated **per window** — a rate as
//! count ÷ elapsed, a timing as the median of the window's samples — and the
//! reported value is the window at the **steady decile**: the 90th
//! percentile across windows for a higher-is-better rate, the 10th for a
//! lower-is-better cost or timing.
//!
//! Why not the median window: this box is a two-core microVM whose cores
//! slow by a quarter for seconds at a time when a neighbour is busy (a pure
//! spin loop shows it, and CPU time per retrieval rises with it, so it is
//! not steal).  The median window then measures the neighbour — run-to-run
//! spreads of 15 % on a single-threaded workload — while the steady decile
//! measures the system whenever at least a tenth of the run was left alone.
//! It is a percentile of forty windows of one run, not a best-of over runs;
//! the median window rides along in every note.

use crate::env;
use crate::stats::{self, Timing};
use std::time::Instant;

/// Least width of a window, in seconds.
const WINDOW_S: f64 = 0.5;

/// One closed window.
#[derive(Debug, Clone)]
pub struct Window {
    pub seconds: f64,
    pub retrievals: u64,
    pub bytes: u64,
    pub slots: u64,
    pub cpu_s: f64,
    /// Median request → bytes time of the window's retrievals.
    pub retrieval_ms: f64,
    /// Median of the window's refreshes, if it had any.
    pub refresh_ms: Option<f64>,
}

/// Collects one phase of a workload: every attempted retrieval and refresh,
/// cut into windows.
pub struct Recorder {
    origin: Instant,
    windows: Vec<Window>,
    // The open window.
    opened_at: f64,
    opened_cpu_s: f64,
    opened_slots: u64,
    open_retrievals: u64,
    open_bytes: u64,
    open_retrieval_ms: Vec<f64>,
    open_refresh_ms: Vec<f64>,
    // The whole phase.
    retrievals: u64,
    bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    retrieval_ms: Vec<f64>,
    latency_slots: Vec<f64>,
    refresh_ms: Vec<f64>,
    cpu_start_s: f64,
    medium_start: u64,
    slots_start: u64,
}

impl Recorder {
    pub fn start(slots_now: u64, medium_bytes_now: u64) -> Self {
        let cpu = env::process_cpu_s();
        Recorder {
            origin: Instant::now(),
            windows: Vec::new(),
            opened_at: 0.0,
            opened_cpu_s: cpu,
            opened_slots: slots_now,
            open_retrievals: 0,
            open_bytes: 0,
            open_retrieval_ms: Vec::new(),
            open_refresh_ms: Vec::new(),
            retrievals: 0,
            bytes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            retrieval_ms: Vec::new(),
            latency_slots: Vec::new(),
            refresh_ms: Vec::new(),
            cpu_start_s: cpu,
            medium_start: medium_bytes_now,
            slots_start: slots_now,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> usize {
        self.windows.len()
    }

    /// A retrieval that returned byte-identical contents inside its bound.
    /// `latency_slots` is `None` for a retrieval the medium cost more faults
    /// than its file declared tolerance for: nothing was promised about its
    /// latency, so it counts for everything but the latency distribution.
    /// `slots_now` is only evaluated when this completion closes a window.
    pub fn success(
        &mut self,
        bytes: usize,
        retrieval_ms: f64,
        latency_slots: Option<usize>,
        slots_now: impl FnOnce() -> u64,
    ) {
        self.attempted += 1;
        self.retrievals += 1;
        self.bytes += bytes as u64;
        self.open_retrievals += 1;
        self.open_bytes += bytes as u64;
        self.open_retrieval_ms.push(retrieval_ms);
        self.retrieval_ms.push(retrieval_ms);
        self.latency_slots
            .extend(latency_slots.map(|slots| slots as f64));
        let t = self.elapsed_s();
        if t - self.opened_at >= WINDOW_S {
            let (slots, cpu) = (slots_now(), env::process_cpu_s());
            self.windows.push(Window {
                seconds: t - self.opened_at,
                retrievals: self.open_retrievals,
                bytes: self.open_bytes,
                slots: slots - self.opened_slots,
                cpu_s: cpu - self.opened_cpu_s,
                retrieval_ms: stats::median(&self.open_retrieval_ms)
                    .expect("a window closes on a completion"),
                refresh_ms: stats::median(&self.open_refresh_ms),
            });
            self.opened_at = t;
            self.opened_cpu_s = cpu;
            self.opened_slots = slots;
            self.open_retrievals = 0;
            self.open_bytes = 0;
            self.open_retrieval_ms.clear();
            self.open_refresh_ms.clear();
        }
    }

    /// A retrieval that errored, timed out, returned wrong bytes or broke
    /// the Lemma 3 bound.
    pub fn failure(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(reason);
        }
    }

    /// One content refresh: new bytes handed over → swap applied.
    pub fn refresh(&mut self, refresh_ms: f64) {
        self.open_refresh_ms.push(refresh_ms);
        self.refresh_ms.push(refresh_ms);
    }

    pub fn finish(self, slots_now: u64, medium_bytes_now: u64) -> Measured {
        Measured {
            seconds: self.elapsed_s(),
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            retrievals: self.retrievals,
            goodput_bytes: self.bytes,
            slots: slots_now - self.slots_start,
            medium_bytes: medium_bytes_now - self.medium_start,
            cpu_s: env::process_cpu_s() - self.cpu_start_s,
            windows: self.windows,
            retrieval_ms: Timing::of(&self.retrieval_ms),
            latency_slots: Timing::of(&self.latency_slots),
            refresh_ms: Timing::of(&self.refresh_ms),
        }
    }
}

/// Which way a per-window figure is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steady {
    /// A rate: report the 90th-percentile window.
    High,
    /// A cost or timing: report the 10th-percentile window.
    Low,
}

/// A per-window figure summarised: the steady decile and the median window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decile {
    pub steady: f64,
    pub median: f64,
    pub windows: usize,
}

impl Decile {
    pub fn of(values: &[f64], steady: Steady) -> Option<Decile> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = match steady {
            Steady::High => 90.0,
            Steady::Low => 10.0,
        };
        Some(Decile {
            steady: stats::percentile_sorted(&sorted, pct)?,
            median: stats::median(&sorted)?,
            windows: sorted.len(),
        })
    }

    pub fn note(&self) -> String {
        format!(
            "steady decile of {} windows; median window {:.6}",
            self.windows, self.median
        )
    }
}

/// One finished phase.
#[derive(Debug, Clone)]
pub struct Measured {
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub retrievals: u64,
    pub goodput_bytes: u64,
    pub slots: u64,
    pub medium_bytes: u64,
    pub cpu_s: f64,
    pub windows: Vec<Window>,
    /// Pooled over the phase: sample counts and supported percentiles.
    pub retrieval_ms: Option<Timing>,
    pub latency_slots: Option<Timing>,
    pub refresh_ms: Option<Timing>,
}

impl Measured {
    /// The steady decile of a per-window figure; `None` when the phase
    /// closed no window (or no window had the figure).
    pub fn decile(
        &self,
        steady: Steady,
        figure: impl Fn(&Window) -> Option<f64>,
    ) -> Option<Decile> {
        let values: Vec<f64> = self.windows.iter().filter_map(figure).collect();
        Decile::of(&values, steady)
    }

    /// Medium bytes per delivered byte over the whole phase.
    pub fn medium_bytes_per_goodput_byte(&self) -> Option<f64> {
        (self.goodput_bytes > 0).then(|| self.medium_bytes as f64 / self.goodput_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_failures_against_attempts_and_keeps_them_out_of_the_rates() {
        let mut rec = Recorder::start(100, 1_000);
        rec.success(512, 1.0, Some(10), || 150);
        rec.failure("wrong bytes".into());
        rec.success(512, 3.0, Some(30), || 200);
        rec.refresh(7.0);
        let m = rec.finish(260, 4_000);
        assert_eq!((m.attempted, m.failed, m.retrievals), (3, 1, 2));
        assert_eq!(m.failures, vec!["wrong bytes".to_string()]);
        assert_eq!(
            (m.goodput_bytes, m.slots, m.medium_bytes),
            (1024, 160, 3_000)
        );
        assert!((m.medium_bytes_per_goodput_byte().unwrap() - 3_000.0 / 1024.0).abs() < 1e-12);
        let lat = m.latency_slots.clone().unwrap();
        assert_eq!((lat.count, lat.p50, lat.p99), (2, 10.0, 30.0));
        assert_eq!(m.refresh_ms.clone().unwrap().p50, 7.0);
        // No window closed in a few microseconds: no rate is invented.
        assert!(m.windows.is_empty());
        assert_eq!(
            m.decile(Steady::High, |w| Some(w.bytes as f64 / w.seconds)),
            None
        );
    }

    #[test]
    fn a_window_closes_on_the_first_completion_past_its_width() {
        let mut rec = Recorder::start(0, 0);
        rec.success(100, 1.0, Some(1), || 10);
        rec.refresh(4.0);
        std::thread::sleep(std::time::Duration::from_secs_f64(WINDOW_S + 0.02));
        rec.success(100, 3.0, None, || 40);
        assert_eq!(rec.windows_closed(), 1);
        rec.success(100, 9.0, Some(1), || 50);
        let m = rec.finish(50, 0);
        let w = &m.windows[0];
        assert_eq!((w.retrievals, w.bytes, w.slots), (2, 200, 40));
        assert_eq!((w.retrieval_ms, w.refresh_ms), (2.0, Some(4.0)));
        // The retrieval without a promised latency is in every count but
        // the latency distribution.
        assert_eq!(
            (m.retrievals, m.latency_slots.clone().unwrap().count),
            (3, 2)
        );
        assert!(w.seconds >= WINDOW_S);
    }

    #[test]
    fn the_steady_decile_ignores_the_windows_a_neighbour_slowed() {
        // Ten windows: six at full speed, four slowed by a quarter.
        let rates = [
            100.0, 99.0, 75.0, 74.0, 101.0, 100.0, 76.0, 75.0, 100.0, 102.0,
        ];
        let d = Decile::of(&rates, Steady::High).unwrap();
        assert_eq!((d.steady, d.windows), (101.0, 10));
        assert_eq!(d.median, 99.5);
        let costs = [10.0, 10.1, 13.0, 13.2, 9.9, 10.0, 13.1, 13.0, 10.0, 9.8];
        assert_eq!(Decile::of(&costs, Steady::Low).unwrap().steady, 9.8);
        assert_eq!(Decile::of(&[], Steady::Low), None);
    }
}
