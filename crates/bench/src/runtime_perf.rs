//! Multi-client runtime scaling measurement — the concurrent-serving half
//! of the repo's recorded perf trajectory.
//!
//! For each `(channels, subscribers)` combination this spins up a real
//! threaded runtime (`Station::serve_concurrent`) under a `ManualClock`
//! released in large batches — i.e. the server free-runs as fast as the
//! machine allows — subscribes the whole client fleet, and measures the
//! wall-clock time until every retrieval completes.  `experiments
//! runtime_perf` serialises the result to `BENCH_runtime.json`, the
//! committed baseline the CI perf-regression gate compares against
//! (`experiments check_regression`).

use rtbdisk::{
    Broadcast, FileId, GeneralizedFileSpec, ManualClock, RetrievalResolution, RuntimeConfig,
    Station, WallClock,
};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The subscriber-fleet sizes of the recorded trajectory.
pub const SUBSCRIBER_COUNTS: [usize; 3] = [1, 8, 64];

/// The channel counts of the recorded trajectory.
pub const CHANNEL_COUNTS: [usize; 3] = [1, 2, 4];

/// The fleet sizes of the scaling curve — the publish-once ring's whole
/// point is that serving cost stays flat here.
pub const SCALING_SUBSCRIBER_COUNTS: [usize; 2] = [1000, 10_000];

/// Channels of the scaling-curve station (kept small: the curve varies the
/// fleet, not the lane count).
const SCALING_CHANNELS: usize = 2;

/// Best-of batches per combination (min-time estimator, like `ida_perf`:
/// on a noisy host the mean records the scheduler, not the runtime).
const BATCHES: usize = 5;

/// Slots released per batch — fixed, so the slot-throughput figure divides
/// a deterministic amount of serving work by wall-clock time instead of
/// whatever the advance loop happened to release.
const SLOTS_PER_BATCH: usize = 4096;

/// Length of the timed serving window (phase B), in batches.  Seating a
/// fleet has a fixed wall-clock cost — every client thread must be woken,
/// scheduled and resolved once — that has nothing to do with the per-slot
/// serving rate; a window several batches long amortises it so the figure
/// converges on the steady-state cost of transmitting a slot with the
/// fleet attached.  Sixteen batches keep that fixed cost under a tenth of
/// the window on this class of host.
const SERVE_WINDOW_BATCHES: usize = 16;

/// Throughput of one `(channels, subscribers)` combination.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimePerfRow {
    /// Broadcast channels of the station.
    pub channels: usize,
    /// Concurrent subscribers retrieving files round-robin.
    pub subscribers: usize,
    /// Slots the server transmitted during the fastest batch.
    pub slots_served: u64,
    /// Data slots dropped to lag during the fastest batch (0 with the
    /// measurement's deep ring).
    pub lagged_slots: u64,
    /// Mean retrieval latency in slots (fault-free).
    pub mean_latency_slots: f64,
    /// Completed retrievals per wall-clock second (fleet completion
    /// throughput; spawn + subscribe + serve + reconstruct).
    pub retrievals_per_s: f64,
    /// Slots transmitted per wall-clock second through a multi-batch
    /// serving window with the whole fleet seated — timed from slot
    /// release to drained, so it prices the server's per-slot fan-out
    /// cost, not client-thread spawns (those are `retrievals_per_s`'s
    /// business).
    pub slots_per_s: f64,
}

/// Slot-deadline lateness and serving-phase timings, read off the
/// runtime's `bobs` histograms under a wall-paced run, plus the measured
/// cost of turning telemetry recording on.
///
/// All `_ns` fields are nanoseconds and deliberately carry no
/// `check_regression` throughput suffix — absolute timings vary wildly
/// across hosts; what the gate holds is the `slots_per_s` figures, which
/// run with recording *off* (the shipping default).
#[derive(Debug, Clone, Serialize)]
pub struct LatenessReport {
    /// Slots of the wall-paced lateness window.
    pub slots: u64,
    /// Median signed lateness of a slot's publish against its due-time.
    pub slot_lateness_p50_ns: i64,
    /// 99th-percentile slot lateness.
    pub slot_lateness_p99_ns: i64,
    /// Median cell-build phase of a served burst.
    pub phase_build_p50_ns: i64,
    /// 99th-percentile cell-build phase.
    pub phase_build_p99_ns: i64,
    /// Median ring-publish phase.
    pub phase_publish_p50_ns: i64,
    /// 99th-percentile ring-publish phase.
    pub phase_publish_p99_ns: i64,
    /// Median cohort-wakeup phase.
    pub phase_wakeup_p50_ns: i64,
    /// 99th-percentile cohort-wakeup phase.
    pub phase_wakeup_p99_ns: i64,
    /// Free-run slot rate with recording off (the shipping default).
    pub recording_off_slot_rate: f64,
    /// The same window with recording on.
    pub recording_on_slot_rate: f64,
    /// `(off / on − 1) × 100`: the percentage the free-run slot rate pays
    /// for recording.  Near zero by design; can dip negative from noise.
    pub recording_overhead_pct: f64,
}

/// The full `runtime_perf` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimePerfResult {
    /// One row per `(channels, subscribers)` combination.
    pub rows: Vec<RuntimePerfRow>,
    /// The fleet-scaling curve: one row per [`SCALING_SUBSCRIBER_COUNTS`]
    /// entry, single round — it measures how serving throughput holds up as
    /// the fleet grows by orders of magnitude, not steady-state completion
    /// rates.  Kept separate from `rows` so the grid's structural metric
    /// paths stay stable across baselines.
    pub scaling: Vec<RuntimePerfRow>,
    /// Slot-lateness percentiles, serving-phase timings and the recording
    /// overhead, from the runtime's own telemetry histograms.
    pub lateness: LatenessReport,
}

fn station_for(channels: usize) -> Station {
    // Two files per channel; latencies comfortably feasible so the design
    // step never dominates the measurement.
    let files = (1..=(2 * channels) as u32)
        .map(|i| GeneralizedFileSpec::new(FileId(i), 1, vec![10 + 2 * i, 14 + 2 * i]).unwrap());
    Broadcast::builder()
        .files(files)
        .channels(channels)
        .build()
        .expect("the measurement specs are feasible")
}

/// Fleet rounds per batch, scaled so every batch runs tens of milliseconds
/// — a single fleet completion is sub-millisecond and would record
/// scheduler jitter, not runtime throughput.
fn rounds_for(subscribers: usize) -> usize {
    (256 / subscribers).clamp(4, 64)
}

fn measure_once(channels: usize, subscribers: usize) -> RuntimePerfRow {
    measure(channels, subscribers, rounds_for(subscribers))
}

/// One scaling-curve point: a single fleet round at a large subscriber
/// count (repeating rounds would mostly re-measure thread spawns).
fn measure_scaling(subscribers: usize) -> RuntimePerfRow {
    measure(SCALING_CHANNELS, subscribers, 1)
}

fn measure(channels: usize, subscribers: usize, rounds: usize) -> RuntimePerfRow {
    let station = station_for(channels);
    let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: 1 << 16, // a deep ring: measure fan-out, not lag
        },
    );
    let subscribe_fleet = |window: usize| -> Vec<_> {
        (0..subscribers)
            .map(|i| {
                handle
                    .subscribe(files[i % files.len()], window + (i % 32))
                    .expect("subscription to a served file succeeds")
            })
            .collect()
    };
    let mut latency_total = 0usize;
    let mut budget = 2_000_000i64;

    // Phase A — fleet completion rounds: spawn, subscribe, serve,
    // reconstruct, per round.  Yields `retrievals_per_s` and the latency
    // figure; its wall-clock is dominated by client-thread spawns at large
    // fleets, which is exactly what a completion-throughput metric owes.
    let start = Instant::now();
    for round in 0..rounds {
        // Each round gets its own fixed slot window; the fleet subscribes
        // at the window's start and completes well inside it.
        let clients = subscribe_fleet(round * SLOTS_PER_BATCH);
        clock.advance(SLOTS_PER_BATCH);
        while !clients.iter().all(|c| c.is_finished()) {
            std::thread::sleep(std::time::Duration::from_micros(50));
            budget -= 1;
            assert!(budget > 0, "runtime measurement did not converge");
        }
        for client in clients {
            match client.join().expect("lossless retrievals resolve") {
                RetrievalResolution::Complete(outcome) => latency_total += outcome.latency(),
                other => panic!("measurement retrieval resolved as {other:?}"),
            }
        }
    }
    let completed = start.elapsed().as_secs_f64().max(1e-9);

    // Drain the released windows before phase B: each round above waits for
    // client completion, not for the server to finish the round's window,
    // so leftover slots must not be billed to the timed window below.
    let window = rounds * SLOTS_PER_BATCH;
    let drain_deadline = Instant::now() + std::time::Duration::from_secs(120);
    while handle.slots_served() < window as u64 {
        // Park briefly between probes: the probe is lock-cheap but a
        // `yield_now` spin here would contend with the server for the core.
        std::thread::sleep(std::time::Duration::from_micros(50));
        assert!(
            Instant::now() < drain_deadline,
            "the server did not drain the phase-A windows"
        );
    }

    // Phase B — publish-once serving rate: seat the whole fleet first, then
    // time a multi-batch slot window from release to fully drained.  This
    // prices what the server pays per slot with `subscribers` live readers
    // on the ring — the fan-out cost — without billing thread spawns to the
    // slot rate, and with the window long enough that the fixed wake-up
    // cost of resolving the fleet amortises out of the per-slot figure.
    let serve_window = SERVE_WINDOW_BATCHES * SLOTS_PER_BATCH;
    let clients = subscribe_fleet(window);
    // A sentinel subscriber parked past the window keeps the fleet
    // non-empty for every timed slot: the server publishes a cell for each
    // one (the fan-out cost this figure prices) instead of fast-skipping
    // however much of the window scheduling luck let it, once the real
    // fleet resolved.  Parked for a future slot, the sentinel costs the
    // writer no wakeups.
    let sentinel = handle
        .subscribe(files[0], window + serve_window + SLOTS_PER_BATCH)
        .expect("the sentinel subscription seats");
    let serve_start = Instant::now();
    clock.advance(serve_window);
    let total_slots = (window + serve_window) as u64;
    // Poll the ring's progress probe with short parks: a stats round-trip
    // per poll would preempt the very server being timed, and a yield spin
    // would contend with it for the core.
    let serve_deadline = Instant::now() + std::time::Duration::from_secs(120);
    while handle.slots_served() < total_slots {
        std::thread::sleep(std::time::Duration::from_micros(50));
        assert!(
            Instant::now() < serve_deadline,
            "the server did not drain the released slots"
        );
    }
    let drained = serve_start.elapsed().as_secs_f64().max(1e-9);
    handle.unsubscribe(&sentinel);
    let stats = handle.stats().expect("the runtime is still up");
    while !clients.iter().all(|c| c.is_finished()) {
        std::thread::sleep(std::time::Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the seated fleet did not complete");
    }
    for client in clients {
        match client.join().expect("lossless retrievals resolve") {
            RetrievalResolution::Complete(_) => {}
            other => panic!("measurement retrieval resolved as {other:?}"),
        }
    }
    handle.shutdown().expect("the runtime shuts down cleanly");
    RuntimePerfRow {
        channels,
        subscribers,
        slots_served: stats.slots_served,
        lagged_slots: stats.lagged_slots,
        mean_latency_slots: latency_total as f64 / (subscribers * rounds) as f64,
        retrievals_per_s: (subscribers * rounds) as f64 / completed,
        slots_per_s: serve_window as f64 / drained,
    }
}

/// The free-run slot rate of a small station with one seated subscriber,
/// with telemetry recording toggled.  Under the `ManualClock` free-run this
/// prices the always-on counter path plus (when on) the event-trace path;
/// the wall-clock histograms stay dormant — they require real deadlines —
/// which is exactly the shipping hot path this figure guards.
fn free_run_slot_rate(recording: bool) -> f64 {
    let station = station_for(SCALING_CHANNELS);
    let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: 1 << 16,
        },
    );
    handle.telemetry().set_recording(recording);
    let window = 8 * SLOTS_PER_BATCH;
    // A parked sentinel keeps the fleet non-empty so every slot builds and
    // publishes cells instead of fast-skipping (see phase B above).
    let sentinel = handle
        .subscribe(files[0], window + SLOTS_PER_BATCH)
        .expect("the sentinel subscription seats");
    let start = Instant::now();
    clock.advance(window);
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.slots_served() < window as u64 {
        std::thread::sleep(Duration::from_micros(50));
        assert!(
            Instant::now() < deadline,
            "the free-run window did not drain"
        );
    }
    let rate = window as f64 / start.elapsed().as_secs_f64().max(1e-9);
    handle.unsubscribe(&sentinel);
    handle.shutdown().expect("the runtime shuts down cleanly");
    rate
}

/// Serves `slots` under a real [`WallClock`] with recording on and reads
/// the lateness / phase histograms back off the runtime's telemetry, then
/// prices recording against the free-run slot rate.
fn measure_lateness(slots: usize, period: Duration) -> LatenessReport {
    let station = station_for(SCALING_CHANNELS);
    let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
    let clock = WallClock::new(period);
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: 1 << 16,
        },
    );
    handle.telemetry().set_recording(true);
    let sentinel = handle
        .subscribe(files[0], 2 * slots)
        .expect("the sentinel subscription seats");
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.slots_served() < slots as u64 {
        std::thread::sleep(Duration::from_micros(100));
        assert!(
            Instant::now() < deadline,
            "the wall-paced window did not complete"
        );
    }
    let snapshot = handle.telemetry().snapshot();
    handle.unsubscribe(&sentinel);
    handle.shutdown().expect("the runtime shuts down cleanly");
    let q = |name: &str, quantile: f64| -> i64 {
        snapshot
            .histograms
            .get(name)
            .and_then(|h| h.quantile(quantile))
            .unwrap_or(0)
    };
    // Best-of-3 per mode: free-run rates on a shared box are scheduler
    // noise around a stable peak, and the peak is what recording overhead
    // should be priced against.
    let best = |recording: bool| -> f64 {
        (0..3)
            .map(|_| free_run_slot_rate(recording))
            .fold(0.0, f64::max)
    };
    let off = best(false);
    let on = best(true);
    LatenessReport {
        slots: slots as u64,
        slot_lateness_p50_ns: q("brt_slot_lateness_ns", 0.50),
        slot_lateness_p99_ns: q("brt_slot_lateness_ns", 0.99),
        phase_build_p50_ns: q("brt_phase_build_ns", 0.50),
        phase_build_p99_ns: q("brt_phase_build_ns", 0.99),
        phase_publish_p50_ns: q("brt_phase_publish_ns", 0.50),
        phase_publish_p99_ns: q("brt_phase_publish_ns", 0.99),
        phase_wakeup_p50_ns: q("brt_phase_wakeup_ns", 0.50),
        phase_wakeup_p99_ns: q("brt_phase_wakeup_ns", 0.99),
        recording_off_slot_rate: off,
        recording_on_slot_rate: on,
        recording_overhead_pct: (off / on.max(1e-9) - 1.0) * 100.0,
    }
}

/// Measures every `(channels, subscribers)` combination, best of
/// `BATCHES` runs each (by fleet completion throughput), then the
/// fleet-scaling curve (best of two batches — its rows cost thousands of
/// thread spawns each).
pub fn runtime_perf() -> RuntimePerfResult {
    let best_of = |runs: usize, measure: &dyn Fn() -> RuntimePerfRow| {
        (0..runs)
            .map(|_| measure())
            .max_by(|a: &RuntimePerfRow, b| {
                a.retrievals_per_s
                    .partial_cmp(&b.retrievals_per_s)
                    .expect("throughput is finite")
            })
            .expect("at least one batch ran")
    };
    let mut rows = Vec::new();
    for &channels in &CHANNEL_COUNTS {
        for &subscribers in &SUBSCRIBER_COUNTS {
            rows.push(best_of(BATCHES, &|| measure_once(channels, subscribers)));
        }
    }
    let scaling = SCALING_SUBSCRIBER_COUNTS
        .into_iter()
        .map(|subscribers| best_of(2, &|| measure_scaling(subscribers)))
        .collect();
    let lateness = measure_lateness(2000, Duration::from_micros(250));
    RuntimePerfResult {
        rows,
        scaling,
        lateness,
    }
}

impl core::fmt::Display for RuntimePerfResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Concurrent runtime scaling (threaded server, ManualClock free-run)"
        )?;
        let render = |rows: &[RuntimePerfRow]| {
            let rows: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.channels.to_string(),
                        r.subscribers.to_string(),
                        r.slots_served.to_string(),
                        format!("{:.1}", r.mean_latency_slots),
                        format!("{:.0}", r.retrievals_per_s),
                        format!("{:.0}", r.slots_per_s),
                        r.lagged_slots.to_string(),
                    ]
                })
                .collect();
            crate::render_table(
                &[
                    "k",
                    "clients",
                    "slots",
                    "latency(slots)",
                    "retrievals/s",
                    "slots/s",
                    "lagged",
                ],
                &rows,
            )
        };
        write!(f, "{}", render(&self.rows))?;
        if !self.scaling.is_empty() {
            writeln!(f)?;
            writeln!(f, "Fleet scaling (publish-once ring, single round)")?;
            write!(f, "{}", render(&self.scaling))?;
        }
        let l = &self.lateness;
        writeln!(f)?;
        writeln!(
            f,
            "Slot lateness over {} wall-paced slots: p50 {} ns, p99 {} ns",
            l.slots, l.slot_lateness_p50_ns, l.slot_lateness_p99_ns
        )?;
        writeln!(
            f,
            "Serving phases (p50/p99 ns): build {}/{}, publish {}/{}, wakeup {}/{}",
            l.phase_build_p50_ns,
            l.phase_build_p99_ns,
            l.phase_publish_p50_ns,
            l.phase_publish_p99_ns,
            l.phase_wakeup_p50_ns,
            l.phase_wakeup_p99_ns
        )?;
        writeln!(
            f,
            "Recording overhead: off {:.0} slots/s, on {:.0} slots/s ({:+.2}%)",
            l.recording_off_slot_rate, l.recording_on_slot_rate, l.recording_overhead_pct
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A placeholder lateness block for tests exercising the grid rows.
    fn empty_lateness() -> LatenessReport {
        LatenessReport {
            slots: 0,
            slot_lateness_p50_ns: 0,
            slot_lateness_p99_ns: 0,
            phase_build_p50_ns: 0,
            phase_build_p99_ns: 0,
            phase_publish_p50_ns: 0,
            phase_publish_p99_ns: 0,
            phase_wakeup_p50_ns: 0,
            phase_wakeup_p99_ns: 0,
            recording_off_slot_rate: 0.0,
            recording_on_slot_rate: 0.0,
            recording_overhead_pct: 0.0,
        }
    }

    #[test]
    fn a_single_combination_measures_and_serialises() {
        let row = measure_once(1, 2);
        assert_eq!(row.channels, 1);
        assert_eq!(row.subscribers, 2);
        assert!(row.retrievals_per_s > 0.0);
        assert!(row.slots_per_s > 0.0);
        assert_eq!(row.lagged_slots, 0);
        let json = serde_json::to_string(&RuntimePerfResult {
            rows: vec![row],
            scaling: vec![],
            lateness: empty_lateness(),
        })
        .unwrap();
        assert!(json.contains("retrievals_per_s"));
        assert!(json.contains("slot_lateness_p99_ns"));
    }

    #[test]
    fn the_scaling_curve_measures_a_single_round_fleet() {
        // A small fleet keeps the unit test cheap; the recorded trajectory
        // runs the real 1k/10k counts.
        let row = measure_scaling(64);
        assert_eq!(row.channels, SCALING_CHANNELS);
        assert_eq!(row.subscribers, 64);
        assert!(row.slots_per_s > 0.0);
        assert!(row.retrievals_per_s > 0.0);
        let result = RuntimePerfResult {
            rows: vec![],
            scaling: vec![row],
            lateness: empty_lateness(),
        };
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("scaling"));
        assert!(result.to_string().contains("Fleet scaling"));
    }

    #[test]
    fn the_lateness_window_populates_the_histograms() {
        // A short wall-paced window: the histograms must actually fill and
        // the percentiles must be ordered.
        let report = measure_lateness(64, Duration::from_micros(200));
        assert_eq!(report.slots, 64);
        assert!(report.slot_lateness_p50_ns <= report.slot_lateness_p99_ns);
        assert!(report.phase_build_p99_ns > 0);
        assert!(report.recording_off_slot_rate > 0.0);
        assert!(report.recording_on_slot_rate > 0.0);
    }
}
