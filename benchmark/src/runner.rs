//! Runs one workload: the timed (untraced) run that yields the end-to-end
//! metrics, or the traced run that yields the per-layer ones.

use crate::gen::Catalog;
use crate::record::{Measured, Recorder, Steady, Window};
use crate::report::{Metric, RunResult};
use crate::spec::END_TO_END;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Deployed, Kind, SetupTimes, Teardown};
use crate::{env, layers};
use std::time::{Duration, Instant};

/// Set-ups per run at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// A set-up that takes a millisecond is repeated until this much time has
/// gone into set-ups (or `SETUP_REPEATS_MAX` of them), so its median is as
/// steady as that of a set-up that takes a hundred.
const SETUP_TIME_FLOOR: Duration = Duration::from_millis(400);
const SETUP_REPEATS_MAX: usize = 301;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
}

impl RunConfig {
    /// Two seconds at full length, a tenth of the run when it is short.
    fn warm_up(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).min(2.0))
    }
}

/// Steps `deployed` in a closed loop for `duration`.  Every window of the
/// recorder ends with one content refresh, so refresh times are sampled
/// across the whole run.
pub fn run_phase(
    deployed: &mut dyn Deployed,
    duration: Duration,
    tracer: &mut Tracer,
    invalid: &mut Vec<String>,
) -> Measured {
    let mut rec = Recorder::start(deployed.slots_served(), deployed.medium_bytes());
    let deadline = Instant::now() + duration;
    let mut refreshed_windows = 0;
    while Instant::now() < deadline {
        deployed.step(&mut rec, tracer);
        if rec.windows_closed() > refreshed_windows {
            refreshed_windows = rec.windows_closed();
            match deployed.refresh(tracer) {
                Ok(Some(times)) => rec.refresh(times.total_ms()),
                Ok(None) => {}
                Err(e) => invalid.push(format!("refresh: {e}")),
            }
        }
    }
    rec.finish(deployed.slots_served(), deployed.medium_bytes())
}

/// Sets the workload up at least `SETUP_REPEATS` times; keeps the last one on
/// the air.
fn repeated_setup(
    config: &RunConfig,
    catalog: &Catalog,
    tracer: &mut Tracer,
    invalid: &mut Vec<String>,
) -> Result<(Box<dyn Deployed>, Vec<SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut spent = Duration::ZERO;
    while times.len() + 1 < SETUP_REPEATS
        || (spent < SETUP_TIME_FLOOR && times.len() + 1 < SETUP_REPEATS_MAX)
    {
        let (deployed, t) = workloads::setup(config.kind, catalog, config.seed, tracer)?;
        spent += Duration::from_secs_f64(t.total_s());
        times.push(t);
        invalid.extend(deployed.teardown().invalid);
    }
    let (deployed, t) = workloads::setup(config.kind, catalog, config.seed, tracer)?;
    times.push(t);
    Ok((deployed, times))
}

/// The timed run: tracing off, every end-to-end metric.
pub fn run_timed(config: &RunConfig) -> Result<RunResult, String> {
    let steal_start = env::steal_ticks();
    let shape = config.kind.shape();
    let catalog = Catalog::generate(&shape, config.seed);
    let mut tracer = Tracer::new(false);
    let mut invalid = Vec::new();

    let (mut deployed, setups) = repeated_setup(config, &catalog, &mut tracer, &mut invalid)?;
    let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();

    let mut phase = |duration: Duration, invalid: &mut Vec<String>| {
        run_phase(deployed.as_mut(), duration, &mut tracer, invalid)
    };
    let warm = phase(config.warm_up(), &mut invalid);
    let measured = phase(Duration::from_secs_f64(config.seconds), &mut invalid);
    invalid.extend(deployed.teardown().invalid);

    let metrics = end_to_end_metrics(&measured, &setup_totals, &mut invalid);
    let mut failures = warm.failures.clone();
    failures.extend(measured.failures.iter().cloned());
    Ok(RunResult {
        kind: config.kind,
        seed: config.seed,
        seconds: config.seconds,
        traced: false,
        attempted: warm.attempted + measured.attempted,
        failed: warm.failed + measured.failed,
        failures,
        invalid,
        metrics,
        window_rates: window_rates(&measured),
        steal_ticks: env::steal_ticks().saturating_sub(steal_start),
        env: env::stamp(),
    })
}

fn window_rates(m: &Measured) -> Vec<f64> {
    m.windows
        .iter()
        .map(|w| w.retrievals as f64 / w.seconds)
        .collect()
}

fn end_to_end_metrics(
    m: &Measured,
    setup_totals: &[f64],
    invalid: &mut Vec<String>,
) -> Vec<Metric> {
    // A per-window figure at its steady decile, or — when the phase was too
    // short to close a window — its whole-phase value.
    let windowed =
        |steady: Steady, figure: &dyn Fn(&Window) -> Option<f64>, whole: Option<f64>| match (
            m.decile(steady, figure),
            whole,
        ) {
            (Some(decile), _) => Some((decile.steady, decile.note())),
            (None, Some(whole)) => Some((whole, "whole run: no 0.5 s window closed".to_string())),
            (None, None) => None,
        };
    let per_s = |count: u64| Some(count as f64 / m.seconds.max(1e-9));
    let pooled = |t: &Option<stats::Timing>| t.as_ref().map(|t| (t.p50, t.note()));
    let with_pooled = |value: Option<(f64, String)>, t: &Option<stats::Timing>| {
        value.map(|(v, note)| match t {
            Some(t) => (v, format!("{note}; pooled p50 {:.6}, {}", t.p50, t.note())),
            None => (v, note),
        })
    };
    let value_of = |name: &str| -> Option<(f64, String)> {
        match name {
            "setup_s" => stats::median(setup_totals)
                .map(|s| (s, format!("median of {} set-ups", setup_totals.len()))),
            "goodput_mb_s" => windowed(
                Steady::High,
                &|w| Some(w.bytes as f64 / w.seconds / 1e6),
                per_s(m.goodput_bytes).map(|r| r / 1e6),
            ),
            "retrievals_per_s" => windowed(
                Steady::High,
                &|w| Some(w.retrievals as f64 / w.seconds),
                per_s(m.retrievals),
            ),
            "slots_per_s" => windowed(
                Steady::High,
                &|w| Some(w.slots as f64 / w.seconds),
                per_s(m.slots),
            ),
            "retrieval_ms_p50" => with_pooled(
                windowed(
                    Steady::Low,
                    &|w| Some(w.retrieval_ms),
                    m.retrieval_ms.as_ref().map(|t| t.p50),
                ),
                &m.retrieval_ms,
            ),
            "latency_slots_p50" => pooled(&m.latency_slots),
            "latency_slots_p99" => m.latency_slots.as_ref().map(|t| (t.p99, t.note())),
            "wire_bytes_per_goodput_byte" => m.medium_bytes_per_goodput_byte().map(|r| {
                (
                    r,
                    format!(
                        "{} medium bytes / {} goodput bytes",
                        m.medium_bytes, m.goodput_bytes
                    ),
                )
            }),
            "cpu_ms_per_retrieval" => windowed(
                Steady::Low,
                &|w| Some(w.cpu_s * 1e3 / w.retrievals as f64),
                (m.retrievals > 0).then(|| m.cpu_s * 1e3 / m.retrievals as f64),
            ),
            "refresh_ms_p50" => with_pooled(
                windowed(
                    Steady::Low,
                    &|w| w.refresh_ms,
                    m.refresh_ms.as_ref().map(|t| t.p50),
                ),
                &m.refresh_ms,
            ),
            "peak_rss_mb" => Some((env::peak_rss_mb(), "VmHWM".into())),
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    };
    END_TO_END
        .iter()
        .map(|spec| match value_of(spec.name) {
            Some((value, note)) => Metric::new(spec.name, value, spec.unit).with_note(note),
            None => {
                invalid.push(format!("{}: nothing was measured", spec.name));
                Metric::new(spec.name, 0.0, spec.unit)
            }
        })
        .collect()
}

/// What the traced run hands to the layer report besides its spans.
pub struct TracedPhases {
    pub setup: SetupTimes,
    pub untraced: Measured,
    pub traced: Measured,
    pub teardown: Teardown,
}

/// The traced run: the workload once more (same seed) with spans around the
/// coarse calls of the deployed path, then the shadow pipeline and the
/// per-layer calls; every per-layer metric.
pub fn run_traced(config: &RunConfig) -> Result<(RunResult, layers::LayerReport), String> {
    let steal_start = env::steal_ticks();
    let shape = config.kind.shape();
    let catalog = Catalog::generate(&shape, config.seed);
    let mut tracer = Tracer::new(true);
    let mut invalid = Vec::new();

    let (mut deployed, setup) = workloads::setup(config.kind, &catalog, config.seed, &mut tracer)?;
    let mut phase = |duration: Duration, tracer: &mut Tracer, invalid: &mut Vec<String>| {
        run_phase(deployed.as_mut(), duration, tracer, invalid)
    };
    tracer.set_enabled(false);
    let warm = phase(config.warm_up(), &mut tracer, &mut invalid);
    // A quarter of the run untraced, a quarter traced: their difference is
    // the tracing overhead.  The rest of the time goes to the shadow
    // pipeline and the per-layer calls.
    let quarter = Duration::from_secs_f64(config.seconds * 0.25);
    let untraced = phase(quarter, &mut tracer, &mut invalid);
    tracer.set_enabled(true);
    let traced = phase(quarter, &mut tracer, &mut invalid);
    let mut teardown = deployed.teardown();
    invalid.append(&mut teardown.invalid);
    let phases = TracedPhases {
        setup,
        untraced,
        traced,
        teardown,
    };

    let budget = Duration::from_secs_f64(config.seconds * 0.3);
    let report = layers::measure(config, &catalog, &phases, tracer, budget, &mut invalid)?;
    let deployed_phases = [&warm, &phases.untraced, &phases.traced];
    let attempted =
        deployed_phases.iter().map(|m| m.attempted).sum::<u64>() + report.shadow_retrievals;
    let failed = deployed_phases.iter().map(|m| m.failed).sum::<u64>() + report.shadow_failed;
    let failures = deployed_phases
        .iter()
        .flat_map(|m| m.failures.iter())
        .chain(report.shadow_failures.iter())
        .cloned()
        .collect();
    let result = RunResult {
        kind: config.kind,
        seed: config.seed,
        seconds: config.seconds,
        traced: true,
        attempted,
        failed,
        failures,
        invalid,
        metrics: report.metrics.clone(),
        window_rates: window_rates(&phases.traced),
        steal_ticks: env::steal_ticks().saturating_sub(steal_start),
        env: env::stamp(),
    };
    Ok((result, report))
}
