//! Exporters: a JSON snapshot and a Prometheus-style text exposition.
//!
//! Both render a [`RegistrySnapshot`], so an export is one registry lock
//! plus pure formatting — scraping never blocks the hot path.  Metric
//! names are `[a-z0-9_]` identifiers by convention; the JSON writer still
//! escapes defensively so an unconventional name cannot corrupt the
//! document.

use crate::registry::{HistogramSnapshot, RegistrySnapshot};
use std::fmt::Write as _;

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_histogram_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(out, "{{\"count\":{},\"sum\":{}", h.count, h.sum);
    if let Some(p50) = h.quantile(0.5) {
        let _ = write!(out, ",\"p50\":{p50}");
    }
    if let Some(p99) = h.quantile(0.99) {
        let _ = write!(out, ",\"p99\":{p99}");
    }
    out.push_str(",\"buckets\":[");
    for (i, (rep, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{rep},{n}]");
    }
    out.push_str("]}");
}

/// Renders a snapshot as one JSON document:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`.  Histograms
/// carry `count`, `sum`, `p50`/`p99` representatives (omitted when empty)
/// and the non-empty `[representative, count]` bucket list.
pub fn to_json(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        push_histogram_json(&mut out, h);
    }
    out.push_str("}}");
    out
}

/// Renders a snapshot as Prometheus-style text exposition: `# TYPE` lines
/// followed by samples.  Histograms expose cumulative
/// `name_bucket{le="…"}` series over the log₂ bucket representatives plus
/// the conventional `+Inf`, `name_sum` and `name_count`.
pub(crate) fn to_prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (rep, n) in &h.buckets {
            cumulative += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{rep}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("brt_slots_served").add(42);
        registry.gauge("bnet_peers").set(-3);
        let h = registry.histogram("brt_slot_lateness_ns");
        h.record(1000);
        h.record(-20);
        registry
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let json = to_json(&sample_registry().snapshot());
        // The vendored serde_json validates structure in tests/.
        assert!(json.contains("\"brt_slots_served\":42"));
        assert!(json.contains("\"bnet_peers\":-3"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"sum\":980"));
        assert!(json.contains("[512,1]"));
        assert!(json.contains("[-16,1]"));
    }

    #[test]
    fn json_escapes_hostile_names() {
        let registry = Registry::new();
        registry.counter("we\"ird\\name").inc();
        let json = to_json(&registry.snapshot());
        assert!(json.contains("\"we\\\"ird\\\\name\":1"));
    }

    #[test]
    fn prometheus_text_has_types_and_cumulative_buckets() {
        let text = to_prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE brt_slots_served counter"));
        assert!(text.contains("brt_slots_served 42"));
        assert!(text.contains("# TYPE bnet_peers gauge"));
        assert!(text.contains("# TYPE brt_slot_lateness_ns histogram"));
        assert!(text.contains("brt_slot_lateness_ns_bucket{le=\"-16\"} 1"));
        assert!(text.contains("brt_slot_lateness_ns_bucket{le=\"512\"} 2"));
        assert!(text.contains("brt_slot_lateness_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("brt_slot_lateness_ns_count 2"));
    }

    #[test]
    fn empty_registry_exports_are_well_formed() {
        let registry = Registry::new();
        assert_eq!(
            to_json(&registry.snapshot()),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert_eq!(to_prometheus_text(&registry.snapshot()), "");
    }
}
