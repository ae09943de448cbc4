//! The perf-regression gate behind `experiments check_regression`.
//!
//! Compares freshly measured trajectory files (`BENCH_ida.json`,
//! `BENCH_runtime.json`) against committed baselines and fails when any
//! throughput metric dropped by more than the tolerance.  Metrics are
//! discovered structurally: every numeric leaf whose key ends in a
//! higher-is-better throughput suffix (`_mb_s`, `_per_s`) participates, so
//! new bench figures join the gate by simply serialising such fields —
//! no gate-side edit needed.
//!
//! The tolerance is a fraction (0.30 = a 30% drop fails).  CI overrides it
//! via `RTBDISK_PERF_TOLERANCE` on noisy runners.

use serde::Value;
use std::collections::BTreeMap;

/// Key suffixes that mark a numeric leaf as a higher-is-better throughput
/// metric.
const THROUGHPUT_SUFFIXES: [&str; 2] = ["_mb_s", "_per_s"];

/// One compared metric.
#[derive(Debug, Clone)]
pub struct RegressionRow {
    /// Structural path of the metric (e.g. `rows[1].disperse_mb_s`).
    pub metric: String,
    /// Baseline (committed) value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
    /// `false` when the drop exceeds the tolerance (or the metric vanished).
    pub ok: bool,
}

/// The comparison of one or more file pairs.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// The tolerated fractional drop.
    pub tolerance: f64,
    /// Every compared metric, in structural order per file pair.
    pub rows: Vec<RegressionRow>,
    /// Baseline files that did not exist and were skipped — the bootstrap
    /// path for brand-new figures, which have no committed baseline on
    /// their first run.  Skips never fail the gate.
    pub skipped: Vec<String>,
    /// Metrics whose committed baseline value is zero or not finite and
    /// which were therefore skipped with a warning: no finite ratio exists
    /// against such a baseline, so comparing would either divide by zero or
    /// wave every current value through as an infinite improvement.  A
    /// degenerate baseline is a measurement bug to fix at the source, not a
    /// gate verdict.
    pub skipped_metrics: Vec<String>,
}

impl RegressionReport {
    /// `true` when any metric regressed beyond the tolerance.
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| !r.ok)
    }

    /// The offending rows.
    pub fn regressions(&self) -> impl Iterator<Item = &RegressionRow> {
        self.rows.iter().filter(|r| !r.ok)
    }
}

impl core::fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Perf-regression gate (tolerance: {:.0}% drop)",
            self.tolerance * 100.0
        )?;
        for missing in &self.skipped {
            writeln!(
                f,
                "note: baseline `{missing}` does not exist yet — skipped \
                 (commit the freshly generated figure to arm the gate)"
            )?;
        }
        for degenerate in &self.skipped_metrics {
            writeln!(
                f,
                "warning: baseline metric {degenerate} — skipped \
                 (regenerate and commit a healthy baseline to arm this metric)"
            )?;
        }
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.metric.clone(),
                    format!("{:.1}", r.baseline),
                    format!("{:.1}", r.current),
                    format!("{:.2}x", r.ratio),
                    if r.ok { "ok" } else { "REGRESSED" }.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &["metric", "baseline", "current", "ratio", "verdict"],
                &rows
            )
        )
    }
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Flattens every throughput leaf of a JSON tree into `path → value`.
fn throughput_metrics(value: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    collect(value, String::new(), &mut out);
    out
}

fn collect(value: &Value, path: String, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::Map(entries) => {
            for (key, child) in entries {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                if THROUGHPUT_SUFFIXES.iter().any(|s| key.ends_with(s)) {
                    if let Some(number) = as_number(child) {
                        out.insert(child_path, number);
                        continue;
                    }
                }
                collect(child, child_path, out);
            }
        }
        Value::Seq(items) => {
            for (index, child) in items.iter().enumerate() {
                collect(child, format!("{path}[{index}]"), out);
            }
        }
        _ => {}
    }
}

/// Compares two parsed trajectory documents.  Metrics present in the
/// baseline but missing from the current measurement fail the gate (a
/// silently dropped figure is not an improvement); metrics new in the
/// current measurement are ignored (they become baseline next commit).
pub fn compare(baseline: &str, current: &str, tolerance: f64) -> Result<RegressionReport, String> {
    let baseline: Value =
        serde_json::from_str(baseline).map_err(|e| format!("baseline does not parse: {e}"))?;
    let current: Value =
        serde_json::from_str(current).map_err(|e| format!("current does not parse: {e}"))?;
    let baseline = throughput_metrics(&baseline);
    let current = throughput_metrics(&current);
    if baseline.is_empty() {
        return Err("the baseline contains no throughput metrics".to_string());
    }
    let mut rows = Vec::new();
    let mut skipped_metrics = Vec::new();
    for (metric, &base) in &baseline {
        // A zero or non-finite baseline admits no finite ratio: comparing
        // against it would either divide by zero or pass anything as an
        // "infinite improvement".  Warn and skip instead of guessing.
        if !(base.is_finite() && base > 0.0) {
            skipped_metrics.push(format!("{metric} (baseline value {base} is unusable)"));
            continue;
        }
        rows.push(match current.get(metric) {
            Some(&now) => RegressionRow {
                metric: metric.clone(),
                baseline: base,
                current: now,
                ratio: now / base,
                ok: now >= base * (1.0 - tolerance),
            },
            None => RegressionRow {
                metric: metric.clone(),
                baseline: base,
                current: f64::NAN,
                ratio: 0.0,
                ok: false,
            },
        });
    }
    Ok(RegressionReport {
        tolerance,
        rows,
        skipped: Vec::new(),
        skipped_metrics,
    })
}

/// Compares `(baseline_path, current_path)` file pairs and folds the rows
/// into one report.
///
/// A baseline file that does not exist is skipped with a warning instead
/// of failing: a brand-new figure has no committed baseline on its first
/// run, and the gate must not block the commit that creates one.  A
/// baseline that exists but cannot be parsed — or a *current* file that
/// cannot be read — is still an error, and metrics that vanished from
/// within an existing baseline still fail.
pub fn check_files(pairs: &[(String, String)], tolerance: f64) -> Result<RegressionReport, String> {
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    let mut skipped_metrics = Vec::new();
    for (baseline_path, current_path) in pairs {
        if !std::path::Path::new(baseline_path).exists() {
            skipped.push(baseline_path.clone());
            continue;
        }
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline `{baseline_path}`: {e}"))?;
        let current = std::fs::read_to_string(current_path)
            .map_err(|e| format!("cannot read current `{current_path}`: {e}"))?;
        let mut report = compare(&baseline, &current, tolerance)?;
        for row in &mut report.rows {
            row.metric = format!("{current_path}:{}", row.metric);
        }
        rows.extend(report.rows);
        skipped_metrics.extend(
            report
                .skipped_metrics
                .into_iter()
                .map(|m| format!("{current_path}:{m}")),
        );
    }
    Ok(RegressionReport {
        tolerance,
        rows,
        skipped,
        skipped_metrics,
    })
}

/// The gate's tolerance: `RTBDISK_PERF_TOLERANCE`, else 0.30.
pub fn tolerance() -> f64 {
    std::env::var("RTBDISK_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.30)
        .clamp(0.0, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
        "payload_bytes": 65536,
        "rows": [
            {"m": 5, "n": 10, "disperse_mb_s": 1000.0, "reconstruct_coded_mb_s": 1200.0},
            {"m": 8, "n": 16, "disperse_mb_s": 900.0, "reconstruct_coded_mb_s": 1100.0}
        ],
        "fleet": {"retrievals_per_s": 5000.0}
    }"#;

    #[test]
    fn equal_measurements_pass() {
        let report = compare(BASELINE, BASELINE, 0.30).unwrap();
        assert!(!report.failed());
        // payload_bytes / m / n are not throughput metrics.
        assert_eq!(report.rows.len(), 5);
    }

    #[test]
    fn an_injected_2x_slowdown_fails_the_gate() {
        let slowed = BASELINE
            .replace("1000.0", "500.0")
            .replace("1200.0", "600.0")
            .replace("900.0", "450.0")
            .replace("1100.0", "550.0")
            .replace("5000.0", "2500.0");
        let report = compare(BASELINE, &slowed, 0.30).unwrap();
        assert!(report.failed());
        assert_eq!(report.regressions().count(), 5);
        for row in report.regressions() {
            assert!((row.ratio - 0.5).abs() < 1e-9);
        }
        // A 2x slowdown passes only if the tolerance admits it.
        assert!(!compare(BASELINE, &slowed, 0.60).unwrap().failed());
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let noisy = BASELINE.replace("1000.0", "850.0");
        assert!(!compare(BASELINE, &noisy, 0.30).unwrap().failed());
        let beyond = BASELINE.replace("1000.0", "650.0");
        assert!(compare(BASELINE, &beyond, 0.30).unwrap().failed());
    }

    #[test]
    fn vanished_metrics_fail_and_new_metrics_are_ignored() {
        let missing = r#"{"rows": [{"disperse_mb_s": 1000.0}]}"#;
        let report = compare(BASELINE, missing, 0.30).unwrap();
        assert!(report.failed());
        let grown = BASELINE.replace(r#""payload_bytes": 65536,"#, r#""extra_mb_s": 1.0,"#);
        assert!(!compare(BASELINE, &grown, 0.30).unwrap().failed());
    }

    #[test]
    fn faster_is_never_a_regression() {
        let faster = BASELINE.replace("1000.0", "9000.0");
        assert!(!compare(BASELINE, &faster, 0.0).unwrap().failed());
    }

    #[test]
    fn improvements_and_metric_paths_render() {
        let report = compare(BASELINE, BASELINE, 0.30).unwrap();
        let rendered = report.to_string();
        assert!(rendered.contains("rows[0].disperse_mb_s"));
        assert!(rendered.contains("fleet.retrievals_per_s"));
        assert!(rendered.contains("ok"));
    }

    #[test]
    fn missing_baseline_files_are_skipped_not_failed() {
        let dir = std::env::temp_dir().join("rtbdisk_regression_bootstrap");
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("BENCH_new_figure.json");
        std::fs::write(&current, BASELINE).unwrap();
        let absent = dir.join("does_not_exist_baseline.json");
        let pairs = vec![(
            absent.to_string_lossy().into_owned(),
            current.to_string_lossy().into_owned(),
        )];
        let report = check_files(&pairs, 0.30).unwrap();
        assert!(
            !report.failed(),
            "a missing baseline must not fail the gate"
        );
        assert_eq!(report.skipped.len(), 1);
        assert!(report.rows.is_empty());
        assert!(report.to_string().contains("does not exist yet"));
    }

    #[test]
    fn skips_do_not_mask_regressions_in_other_pairs() {
        let dir = std::env::temp_dir().join("rtbdisk_regression_mixed");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("BENCH_old.json");
        let current = dir.join("BENCH_old_current.json");
        std::fs::write(&baseline, BASELINE).unwrap();
        std::fs::write(&current, BASELINE.replace("1000.0", "100.0")).unwrap();
        let absent = dir.join("no_such_baseline.json");
        let fresh = dir.join("BENCH_fresh.json");
        std::fs::write(&fresh, BASELINE).unwrap();
        let pairs = vec![
            (
                absent.to_string_lossy().into_owned(),
                fresh.to_string_lossy().into_owned(),
            ),
            (
                baseline.to_string_lossy().into_owned(),
                current.to_string_lossy().into_owned(),
            ),
        ];
        let report = check_files(&pairs, 0.30).unwrap();
        assert!(report.failed(), "the regressed pair must still fail");
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn zero_baselines_are_skipped_with_a_warning_not_compared() {
        // A degenerate committed baseline (a figure recorded as 0, e.g. from
        // an interrupted run) must neither fail the gate nor wave the metric
        // through as an infinite improvement — it is warned about and
        // skipped until a healthy baseline is committed.
        let baseline = r#"{"rows": [{"broken_per_s": 0.0, "healthy_mb_s": 100.0}]}"#;
        let current = r#"{"rows": [{"broken_per_s": 5000.0, "healthy_mb_s": 100.0}]}"#;
        let report = compare(baseline, current, 0.30).unwrap();
        assert!(!report.failed());
        assert_eq!(report.rows.len(), 1, "only the healthy metric compares");
        assert_eq!(report.skipped_metrics.len(), 1);
        assert!(report.skipped_metrics[0].contains("broken_per_s"));
        assert!(report.to_string().contains("warning: baseline metric"));
        assert!(report.rows.iter().all(|r| r.ratio.is_finite()));

        // The healthy metric still gates: a real regression next to a
        // degenerate sibling must not be masked by the skip.
        let regressed = r#"{"rows": [{"broken_per_s": 0.0, "healthy_mb_s": 10.0}]}"#;
        let report = compare(baseline, regressed, 0.30).unwrap();
        assert!(report.failed());
        assert_eq!(report.skipped_metrics.len(), 1);
    }

    #[test]
    fn tolerance_defaults_to_thirty_percent() {
        // No env in tests (the harness may run in parallel, so only check
        // the default leg).
        if std::env::var("RTBDISK_PERF_TOLERANCE").is_err() {
            assert_eq!(tolerance(), 0.30);
        }
    }
}
