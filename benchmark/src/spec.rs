//! The benchmark's contract: every metric's name, unit, direction and — for
//! the end-to-end ones — regression bound.  `BENCHMARK.json` is rendered
//! from these tables (`manifest` subcommand) and a unit test holds the
//! committed file to them; `--smoke` holds every printed result to them.

use crate::json::Json;
use crate::workloads::Kind;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "retrievals_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "slots_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "retrieval_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "latency_slots_p50",
        unit: "slots",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "latency_slots_p99",
        unit: "slots",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wire_bytes_per_goodput_byte",
        unit: "ratio",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "cpu_ms_per_retrieval",
        unit: "ms",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "refresh_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
    },
];

/// A per-layer metric: taken in the traced run, by the benchmark calling the
/// layer's public functions on the workload's own catalog, or read from the
/// layer's public stats.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const KERNEL: &str =
    "goodput_mb_s on drive_fleet_lossy, wire_bulk_auth; refresh_ms_p50; flat on wire_small_plain";
const WRITE: &str = "setup_s, refresh_ms_p50";
const READ: &str = "goodput_mb_s, cpu_ms_per_retrieval on drive_fleet_lossy, wire_bulk_auth";
const COMMIT: &str = "setup_s, refresh_ms_p50 on refresh_as_deployed only";
const VERIFY: &str = "goodput_mb_s on wire_bulk_auth";
const DESIGN: &str = "setup_s, refresh_ms_p50 (small shares; the budget proves it)";
const QUALITY: &str = "latency_slots_p50/p99 everywhere (schedule quality, not speed)";
const SMALL: &str = "slots_per_s on wire_small_plain";
const DRIVE: &str = "retrievals_per_s on drive_fleet_lossy";
const REFRESH: &str = "refresh_ms_p50, retrieval_ms_p50 on refresh_as_deployed";
const WIRE: &str = "slots_per_s, goodput_mb_s, cpu_ms_per_retrieval on both wire workloads";
const OVERHEAD: &str = "wire_bytes_per_goodput_byte";
const HEALTH: &str = "failed, latency_slots_p99";
const DEPLOYED: &str = "setup_s, retrieval_ms_p50 on refresh_as_deployed";

pub const PER_LAYER: [PerLayer; 73] = [
    layer("gf256.mul_acc_mb_s", "MB/s", Higher, KERNEL),
    layer("gf256.invert_us", "us", Lower, KERNEL),
    layer("ida.disperse_mb_s", "MB/s", Higher, WRITE),
    layer("ida.disperse_self_s", "s", Lower, WRITE),
    layer("ida.reconstruct_coded_mb_s", "MB/s", Higher, READ),
    layer("ida.reconstruct_systematic_mb_s", "MB/s", Higher, READ),
    layer("ida.reconstruct_self_s", "s", Lower, READ),
    layer("ida.coded_share", "share", Lower, READ),
    layer("ida.cached_inverses", "count", Lower, READ),
    layer("bauth.sha256_mb_s", "MB/s", Higher, COMMIT),
    layer("bauth.leaf_hash_mb_s", "MB/s", Higher, COMMIT),
    layer("bauth.tree_commit_us", "us", Lower, COMMIT),
    layer("bauth.proof_us", "us", Lower, COMMIT),
    layer("bauth.commit_self_s", "s", Lower, COMMIT),
    layer("bauth.verify_block_us", "us", Lower, VERIFY),
    layer("bauth.verify_self_s", "s", Lower, VERIFY),
    layer("bauth.verify_failures", "count", Lower, VERIFY),
    layer("pinwheel.schedule_ms", "ms", Lower, DESIGN),
    layer("pinwheel.verify_ms", "ms", Lower, DESIGN),
    layer("bcore.design_ms", "ms", Lower, DESIGN),
    layer("bmode.plan_ms", "ms", Lower, DESIGN),
    layer("bcore.density_max", "ratio", Lower, QUALITY),
    layer("bcore.cycle_slots", "slots", Lower, QUALITY),
    layer("bdisk.transmit_ns_per_slot", "ns", Lower, SMALL),
    layer("bdisk.ingest_ns_per_block", "ns", Lower, DRIVE),
    layer("bdisk.finish_us", "us", Lower, DRIVE),
    layer("bdisk.swap_us", "us", Lower, "refresh_ms_p50"),
    layer("bsim.is_lost_ns", "ns", Lower, DRIVE),
    layer("bsim.errors_injected", "count", Lower, DRIVE),
    layer("brt.drive_ns_per_slot", "ns", Lower, DRIVE),
    layer("brt.ring_publish_ns_per_slot", "ns", Lower, SMALL),
    layer("brt.ring_read_ns_per_slot", "ns", Lower, SMALL),
    layer("brt.snapshot_us", "us", Lower, REFRESH),
    layer("brt.subscribe_us", "us", Lower, REFRESH),
    layer("brt.ring_retrieve_ms_p50", "ms", Lower, REFRESH),
    layer("brt.lagged_slots", "count", Lower, REFRESH),
    layer("brt.slots_served", "count", Higher, REFRESH),
    layer(
        "brt.slot_lateness_p50_us",
        "us",
        Lower,
        "slots_per_s on refresh_as_deployed",
    ),
    layer(
        "brt.slot_lateness_p99_us",
        "us",
        Lower,
        "slots_per_s on refresh_as_deployed",
    ),
    layer("bnet.crc32_mb_s", "MB/s", Higher, WIRE),
    layer("bnet.frame_ns_per_frame", "ns", Lower, WIRE),
    layer("bnet.send_ns_per_datagram", "ns", Lower, WIRE),
    layer("bnet.recv_ns_per_datagram", "ns", Lower, WIRE),
    layer("bnet.decode_ns_per_datagram", "ns", Lower, WIRE),
    layer("bnet.reassemble_ns_per_fragment", "ns", Lower, WIRE),
    layer("bnet.feed_self_ns_per_datagram", "ns", Lower, WIRE),
    layer("bnet.datagrams_sent", "count", Lower, OVERHEAD),
    layer("bnet.datagrams_per_slot", "ratio", Lower, OVERHEAD),
    layer("bnet.fragments_per_frame", "ratio", Lower, OVERHEAD),
    layer("bnet.wire_overhead_ratio", "ratio", Lower, OVERHEAD),
    layer("bnet.send_errors", "count", Lower, HEALTH),
    layer("bnet.client_erasures", "count", Lower, HEALTH),
    layer("bnet.decode_errors", "count", Lower, HEALTH),
    layer("bnet.rejoins", "count", Lower, HEALTH),
    layer("bnet.resyncs", "count", Lower, HEALTH),
    layer("bnet.join_ms_p50", "ms", Lower, DEPLOYED),
    layer("bnet.control_subscribe_ms_p50", "ms", Lower, DEPLOYED),
    layer("bnet.client_retrieve_ms_p50", "ms", Lower, DEPLOYED),
    layer(
        "bfault.apply_ns_per_datagram",
        "ns",
        Lower,
        "wire_bulk_auth (should stay a sliver)",
    ),
    layer(
        "bfault.dropped",
        "count",
        Lower,
        "wire_bulk_auth (should stay a sliver)",
    ),
    layer("bobs.counter_inc_ns", "ns", Lower, SMALL),
    layer("bobs.histogram_record_ns", "ns", Lower, SMALL),
    layer("bobs.export_json_us", "us", Lower, SMALL),
    layer("facade.build_s", "s", Lower, "setup_s"),
    layer("facade.serve_start_ms", "ms", Lower, "setup_s"),
    layer("facade.subscribe_us", "us", Lower, DRIVE),
    layer("facade.prepare_mode_ms_p50", "ms", Lower, "refresh_ms_p50"),
    layer("facade.swap_at_ms_p50", "ms", Lower, "refresh_ms_p50"),
    layer(
        "facade.server_us_per_slot",
        "us",
        Lower,
        "slots_per_s when the server side is the busier one",
    ),
    layer(
        "facade.client_us_per_slot",
        "us",
        Lower,
        "slots_per_s when the client side is the busier one",
    ),
    layer(
        "facade.residual_share",
        "share",
        Lower,
        "what no layer call covers",
    ),
    layer(
        "facade.trace_overhead_pct",
        "%",
        Lower,
        "difference between the traced and the untraced run",
    ),
    layer(
        "facade.shadow_goodput_ratio",
        "ratio",
        Higher,
        "how far the single-threaded sum sits from the pipelined reality",
    ),
];

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Kind::ALL
                    .into_iter()
                    .map(|k| {
                        Json::obj(vec![
                            ("name", Json::str(k.name())),
                            ("why", Json::str(k.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_tables_fit_the_contract() {
        let mut names = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Kind::ALL.into_iter().map(|k| (k.name(), "count")))
        {
            assert!(legal_name(name), "{name}");
            assert!(legal_unit(unit), "{name}: unit {unit}");
            assert!(names.insert(name), "{name} is used twice");
        }
        assert!(Kind::ALL
            .into_iter()
            .all(|k| k.why().len() <= 200 && !k.why().contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        // Set-up gets the largest bound, and no bound exceeds the cap.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
        // 4 + 22 runs per workload, each a set-up, a warm-up and a timed
        // run, must fit the driver's 3420 s with room for two builds.
        let runs = 4 + 22 * Kind::ALL.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) + 2 * 120 <= 3420);
    }

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        assert_eq!(Json::parse(&committed).unwrap(), manifest());
        assert!(committed.len() <= 64 * 1024);
    }
}
