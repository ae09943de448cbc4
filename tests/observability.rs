//! Integration tests of the telemetry plane: exporter round-trips through
//! the vendored JSON parser, the runtime stats structs as registry views,
//! and a live metrics scrape over the TCP control plane of a
//! `serve_network` station — the same scrape the loopback CI step runs.

use rtbdisk::bobs::{Registry, Telemetry};
use rtbdisk::{
    Broadcast, ControlClient, FileId, GeneralizedFileSpec, ManualClock, MetricsFormat, NetConfig,
    RetrievalResolution, RuntimeConfig, Station,
};
use serde::Value;
use std::time::Duration;

fn parse(json: &str) -> Value {
    serde_json::from_str(json).expect("the JSON export must parse")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
        .unwrap_or_else(|| panic!("missing field `{key}` in {v:?}"))
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(u) => *u,
        Value::Int(i) if *i >= 0 => *i as u64,
        other => panic!("expected an unsigned integer, got {other:?}"),
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::UInt(u) => *u as i64,
        Value::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    }
}

fn station() -> Station {
    let files = (1..=4u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 1, vec![10 + 2 * i, 14 + 2 * i]).expect("feasible spec")
    });
    Broadcast::builder()
        .files(files)
        .channels(2)
        .build()
        .expect("the test specs are feasible")
}

#[test]
fn json_export_round_trips_through_a_real_parser() {
    let telemetry = Telemetry::new();
    telemetry.set_recording(true);
    let registry = telemetry.registry();
    registry.counter("served \"slots\"").add(42);
    registry.gauge("depth").set(-7);
    let hist = registry.histogram("lateness_ns");
    for v in [-1000, -1, 0, 1, 5, 1000, 1_000_000] {
        hist.record(v);
    }

    let parsed = parse(&telemetry.export_json());
    assert_eq!(
        as_u64(field(field(&parsed, "counters"), "served \"slots\"")),
        42
    );
    assert_eq!(as_i64(field(field(&parsed, "gauges"), "depth")), -7);
    let lateness = field(field(&parsed, "histograms"), "lateness_ns");
    assert_eq!(as_u64(field(lateness, "count")), 7);
    let buckets = field(lateness, "buckets")
        .as_seq()
        .expect("buckets is an array");
    let total: u64 = buckets
        .iter()
        .map(|b| as_u64(&b.as_seq().expect("bucket pair")[1]))
        .sum();
    assert_eq!(total, 7, "every recorded value lands in exactly one bucket");
}

#[test]
fn prometheus_export_is_structurally_sound() {
    let telemetry = Telemetry::new();
    telemetry.set_recording(true);
    let registry = telemetry.registry();
    registry.counter("frames").add(3);
    registry.gauge("peers").set(2);
    let hist = registry.histogram("build_ns");
    for v in [10, 20, 30_000] {
        hist.record(v);
    }

    let text = telemetry.export_text();
    // Every line is a comment or a `name{...} value` / `name value` sample.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "unparseable exposition line: {line:?}"
        );
    }
    assert!(text.contains("# TYPE frames counter"));
    assert!(text.contains("frames 3"));
    assert!(text.contains("# TYPE peers gauge"));
    assert!(text.contains("# TYPE build_ns histogram"));
    // Cumulative buckets end at +Inf with the full count.
    assert!(text.contains("build_ns_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("build_ns_count 3"));
}

#[test]
fn runtime_stats_are_a_view_over_the_registry() {
    let station = station();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(clock.clone(), RuntimeConfig::default());
    let clients: Vec<_> = (1..=4)
        .map(|i| handle.subscribe(FileId(i), 0).unwrap())
        .collect();
    clock.advance(64);
    for _ in 0..20_000 {
        if clients.iter().all(|c| c.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for client in clients {
        match client.join().unwrap() {
            RetrievalResolution::Complete(_) => {}
            other => panic!("a lossless retrieval must complete, got {other:?}"),
        }
    }
    // Let the server drain the whole released window so the counters are
    // at rest before the two reads are compared.
    for _ in 0..20_000 {
        if handle.slots_served() == 64 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let stats = handle.stats().unwrap();
    let snap = handle.telemetry().snapshot();
    // The stats struct and the registry are the same counters: the struct
    // is a snapshot view, not a parallel set of atomics.
    assert_eq!(stats.slots_served, snap.counters["brt_slots_served"]);
    assert_eq!(
        stats.total_subscriptions,
        snap.counters["brt_subscriptions_total"]
    );
    assert_eq!(stats.completed, snap.counters["brt_completed"]);
    assert_eq!(stats.lagged_slots, snap.counters["brt_lagged_slots"]);
    assert_eq!(
        stats.active_subscribers as i64,
        snap.gauges["brt_active_subscribers"]
    );
    handle.shutdown().unwrap();
}

#[test]
fn a_live_station_serves_metrics_over_the_control_plane() {
    let station = station();
    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    serving.telemetry().set_recording(true);
    let control = serving.control_addr().expect("control plane configured");

    // Serve some slots so the scrape shows a moving station.
    clock.advance(32);
    for _ in 0..20_000 {
        if serving.runtime().slots_served() >= 32 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }

    let mut client = ControlClient::connect(control).unwrap();
    // Prometheus text: brt_* and bnet_* share one registry.
    let text = client.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("# TYPE brt_slots_served counter"));
    assert!(text.contains("# TYPE bnet_datagrams_sent counter"));
    assert!(text.contains("brt_slots_served 32"));

    // JSON: parses, and agrees with the runtime's own counters.
    let json = client.metrics(MetricsFormat::Json).unwrap();
    let parsed = parse(&json);
    assert_eq!(
        as_u64(field(field(&parsed, "counters"), "brt_slots_served")),
        32
    );
    assert_eq!(
        as_i64(field(field(&parsed, "gauges"), "bnet_peers")),
        0,
        "no UDP peer ever joined"
    );
    serving.shutdown().unwrap();
}

#[test]
fn the_event_trace_ring_is_bounded_and_counts_evictions() {
    let telemetry = Telemetry::new();
    telemetry.set_recording(true);
    let capacity = telemetry.trace().capacity();
    let events = capacity as u64 + 12;
    for slot in 0..events {
        telemetry.record_event(|| rtbdisk::Event::FrameDropped { slot });
    }
    let trace = telemetry.trace().snapshot();
    assert_eq!(trace.len(), capacity, "the ring holds its capacity");
    assert_eq!(telemetry.trace().dropped(), 12, "evictions are counted");
    assert_eq!(
        trace.last(),
        Some(&rtbdisk::Event::FrameDropped { slot: events - 1 }),
        "the newest events survive"
    );

    // Recording off: the closure must not even run.
    telemetry.set_recording(false);
    telemetry.record_event(|| panic!("a disabled trace must not evaluate events"));
    assert_eq!(telemetry.trace().snapshot().len(), capacity);
}

#[test]
fn registries_reject_kind_confusion_instead_of_corrupting() {
    let registry = Registry::new();
    registry.counter("x").inc();
    let result = std::panic::catch_unwind(|| registry.gauge("x"));
    assert!(
        result.is_err(),
        "re-registering a counter as a gauge must panic loudly"
    );
}
