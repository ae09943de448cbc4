//! `bobs` — broadcast observability.
//!
//! The telemetry substrate the serving stack records into: a lock-cheap
//! metrics [`Registry`] (atomic counters, gauges and log₂-bucket signed
//! [`Histogram`]s), a bounded typed [`EventRing`] trace, and exporters
//! rendering a snapshot as JSON or Prometheus-style text.
//!
//! Everything hangs off a cheaply-cloneable [`Telemetry`] handle:
//!
//! ```
//! let telemetry = bobs::Telemetry::new();
//! let served = telemetry.registry().counter("slots_served");
//! served.inc(); // counters always count — they back the public stats
//!
//! // Histograms and the event trace are gated on the recording flag,
//! // which is OFF by default: a disabled record is one relaxed load.
//! telemetry.set_recording(true);
//! telemetry
//!     .registry()
//!     .histogram("slot_lateness_ns")
//!     .record(-250);
//! telemetry.record_event(|| bobs::Event::SlotPublished { slot: 0, lanes: 2 });
//!
//! let snap = telemetry.snapshot();
//! assert_eq!(snap.counters["slots_served"], 1);
//! assert_eq!(telemetry.trace_snapshot().len(), 1);
//! println!("{}", telemetry.export_text());
//! ```
//!
//! Two recording disciplines keep the data trustworthy:
//!
//! - **Counters and gauges are always on.**  They replace the hand-rolled
//!   stats structs across the workspace, so they must count regardless of
//!   the recording flag.
//! - **Histograms and the trace are recording-gated**, and wall-clock
//!   quantities (lateness, phase timings) are additionally gated on the
//!   slot clock *having* deadlines (`SlotClock::slot_lateness` in `brt`).
//!   Under a manual test clock nothing nondeterministic is ever recorded,
//!   so two identical runs produce identical traces and identical bucket
//!   counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod trace;

pub use export::to_json;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use trace::{Event, EventRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Number of events the trace ring retains.
const TRACE_CAPACITY: usize = 1024;

#[derive(Debug)]
struct TelemetryInner {
    registry: Registry,
    trace: EventRing,
    recording: AtomicBool,
}

/// The shared telemetry handle: registry + event trace + recording flag.
///
/// Clones share storage (`Arc`), so every layer of the stack — runtime
/// loop, ring, UDP fan-out, control plane — records into one place and a
/// scrape sees the whole station.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh handle with recording OFF, retaining the last 1024 trace
    /// events.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(TelemetryInner {
                registry: Registry::new(),
                trace: EventRing::new(TRACE_CAPACITY),
                recording: AtomicBool::new(false),
            }),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The event-trace ring.
    pub fn trace(&self) -> &EventRing {
        &self.inner.trace
    }

    /// Turns histogram + trace recording on or off (counters and gauges
    /// are unaffected — they always count).
    pub fn set_recording(&self, on: bool) {
        self.inner.recording.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.  One relaxed load — this is the entire
    /// hot-path cost of a disabled record site.
    pub fn recording(&self) -> bool {
        self.inner.recording.load(Ordering::Relaxed)
    }

    /// Records an event when recording is on.  The closure is only
    /// evaluated when recording — a disabled call never constructs the
    /// event.
    pub fn record_event(&self, event: impl FnOnce() -> Event) {
        if self.recording() {
            self.inner.trace.push(event());
        }
    }

    /// A point-in-time copy of the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner.registry.snapshot()
    }

    /// A copy of the retained trace events, oldest first.
    pub fn trace_snapshot(&self) -> Vec<Event> {
        self.inner.trace.snapshot()
    }

    /// The registry rendered as one JSON document.
    pub fn export_json(&self) -> String {
        to_json(&self.snapshot())
    }

    /// The registry rendered as Prometheus-style text exposition.
    pub fn export_text(&self) -> String {
        export::to_prometheus_text(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_gates_events_but_not_counters() {
        let telemetry = Telemetry::new();
        assert!(!telemetry.recording());
        telemetry.registry().counter("always").inc();
        let mut built = false;
        telemetry.record_event(|| {
            built = true;
            Event::SlotPublished { slot: 0, lanes: 0 }
        });
        assert!(!built, "a disabled record must not construct the event");
        assert!(telemetry.trace_snapshot().is_empty());
        assert_eq!(telemetry.snapshot().counters["always"], 1);

        telemetry.set_recording(true);
        telemetry.record_event(|| Event::SlotPublished { slot: 7, lanes: 2 });
        assert_eq!(
            telemetry.trace_snapshot(),
            vec![Event::SlotPublished { slot: 7, lanes: 2 }]
        );
    }

    #[test]
    fn clones_share_storage() {
        let a = Telemetry::new();
        let b = a.clone();
        a.registry().counter("n").add(2);
        b.registry().counter("n").inc();
        b.set_recording(true);
        assert!(a.recording());
        assert_eq!(a.snapshot().counters["n"], 3);
    }
}
