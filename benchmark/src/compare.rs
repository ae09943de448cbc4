//! `compare <dirA> <dirB>`: per workload × end-to-end metric, how far B sits
//! from A against the metric's bound.  Refuses outright when the two result
//! sets were not taken in the same environment.

use crate::env::MATCH_KEYS;
use crate::json::Json;
use crate::spec::{Better, EndToEnd};
use crate::workloads::Kind;
use std::path::Path;

/// How a comparison ended.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Every metric inside its bound, every failure share unchanged.
    Within,
    /// At least one metric worse than its bound allows, or a failure share
    /// changed.
    Breach,
    /// The environment stamps differ (or a result file is missing or
    /// malformed): the numbers are not comparable.
    Refused(String),
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Signed share of A by which B is *worse* (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// Share of `a` by which `b` is worse, given the metric's direction.  A
/// metric whose baseline is zero cannot express a share: any change from
/// zero in the bad direction counts as fully worse.
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        delta / a.abs()
    } else if delta > 0.0 {
        1.0
    } else {
        0.0
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failure_share(result: &Json) -> Option<f64> {
    let attempted = result.get("attempted")?.as_f64()?;
    let failed = result.get("failed")?.as_f64()?;
    Some(if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    })
}

/// The first stamp field on which the two environments differ.
pub fn stamp_mismatch(a: &Json, b: &Json) -> Option<String> {
    MATCH_KEYS.iter().find_map(|key| {
        let (va, vb) = (a.get("env")?.get(key), b.get("env")?.get(key));
        (va != vb).then(|| format!("{key}: {va:?} vs {vb:?}"))
    })
}

/// Compares one workload's two result files.
pub fn compare_results(
    workload: &str,
    a: &Json,
    b: &Json,
    metrics: &[EndToEnd],
) -> Result<Vec<Row>, String> {
    if a.get("env").is_none() || b.get("env").is_none() {
        return Err(format!(
            "{workload}: a result file carries no environment stamp"
        ));
    }
    if let Some(difference) = stamp_mismatch(a, b) {
        return Err(format!("{workload}: environments differ on {difference}"));
    }
    let mut rows = Vec::with_capacity(metrics.len() + 1);
    for spec in metrics {
        let (Some(va), Some(vb)) = (metric_value(a, spec.name), metric_value(b, spec.name)) else {
            return Err(format!(
                "{workload}: {} is missing from a result file",
                spec.name
            ));
        };
        let worse = worse_by(va, vb, spec.better);
        rows.push(Row {
            workload: workload.to_string(),
            metric: spec.name.to_string(),
            a: va,
            b: vb,
            worse_by: worse,
            bound: spec.bound,
            breach: worse > spec.bound,
        });
    }
    let (Some(fa), Some(fb)) = (failure_share(a), failure_share(b)) else {
        return Err(format!(
            "{workload}: attempted/failed missing from a result file"
        ));
    };
    rows.push(Row {
        workload: workload.to_string(),
        metric: "failed/attempted".to_string(),
        a: fa,
        b: fb,
        worse_by: fb - fa,
        bound: 0.0,
        breach: fa != fb,
    });
    Ok(rows)
}

fn read_result(dir: &Path, kind: Kind) -> Result<Json, String> {
    let path = dir.join(format!("e2e-{}.json", kind.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares every workload's `e2e-*.json` of two output directories and
/// prints one row per workload × metric.
pub fn compare_dirs(dir_a: &Path, dir_b: &Path, metrics: &[EndToEnd]) -> Verdict {
    let mut breach = false;
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for kind in Kind::ALL {
        let rows = read_result(dir_a, kind)
            .and_then(|a| Ok((a, read_result(dir_b, kind)?)))
            .and_then(|(a, b)| compare_results(kind.name(), &a, &b, metrics));
        let rows = match rows {
            Ok(rows) => rows,
            Err(reason) => return Verdict::Refused(reason),
        };
        for row in rows {
            println!(
                "{:<20} {:<28} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                row.workload,
                row.metric,
                row.a,
                row.b,
                row.worse_by * 100.0,
                row.bound * 100.0,
                if row.breach { "  BREACH" } else { "" }
            );
            breach |= row.breach;
        }
    }
    if breach {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn result(goodput: f64, latency: f64, failed: f64, nproc: f64) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v))]);
        let mut metrics: Vec<(&str, Json)> =
            END_TO_END.iter().map(|m| (m.name, metric(1.0))).collect();
        metrics.retain(|(n, _)| !matches!(*n, "goodput_mb_s" | "latency_slots_p50"));
        metrics.push(("goodput_mb_s", metric(goodput)));
        metrics.push(("latency_slots_p50", metric(latency)));
        let env = MATCH_KEYS
            .iter()
            .map(|k| {
                (
                    *k,
                    if *k == "nproc" {
                        Json::Num(nproc)
                    } else {
                        Json::str("same")
                    },
                )
            })
            .chain([("git_commit", Json::str(format!("commit-{goodput}")))])
            .collect();
        Json::obj(vec![
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("env", Json::obj(env)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 1.0);
        assert_eq!(worse_by(0.0, 5.0, Better::Higher), 0.0);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_a_breach_and_a_gain_is_not() {
        let base = result(50.0, 192.0, 0.0, 2.0);
        let rows =
            compare_results("w", &base, &result(35.0, 192.0, 0.0, 2.0), &END_TO_END).unwrap();
        let breaches: Vec<_> = rows
            .iter()
            .filter(|r| r.breach)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(breaches, ["goodput_mb_s"]);
        let rows =
            compare_results("w", &base, &result(80.0, 150.0, 0.0, 2.0), &END_TO_END).unwrap();
        assert!(rows.iter().all(|r| !r.breach));
        // Inside the bound: 4 % slower goodput, 2 % longer latency.
        let rows =
            compare_results("w", &base, &result(48.0, 195.0, 0.0, 2.0), &END_TO_END).unwrap();
        assert!(rows.iter().all(|r| !r.breach));
    }

    #[test]
    fn a_changed_failure_share_is_a_breach() {
        let rows = compare_results(
            "w",
            &result(50.0, 192.0, 0.0, 2.0),
            &result(50.0, 192.0, 1.0, 2.0),
            &END_TO_END,
        )
        .unwrap();
        assert!(rows.last().unwrap().breach);
    }

    #[test]
    fn differing_environments_are_refused_but_differing_commits_are_not() {
        let err = compare_results(
            "w",
            &result(50.0, 192.0, 0.0, 2.0),
            &result(50.0, 192.0, 0.0, 4.0),
            &END_TO_END,
        )
        .unwrap_err();
        assert!(err.contains("nproc"), "{err}");
        assert!(compare_results(
            "w",
            &result(50.0, 192.0, 0.0, 2.0),
            &result(51.0, 192.0, 0.0, 2.0),
            &END_TO_END
        )
        .is_ok());
    }
}
