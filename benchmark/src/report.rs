//! One run's result: what is printed, what is written to `out/`, and the
//! single JSON line the driver reads.

use crate::json::Json;
use crate::workloads::Kind;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form context: the supported tail percentile and sample count of
    /// a timing, or why a count reads zero on this workload.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The outcome of one `run` invocation (timed or traced).
#[derive(Debug, Clone)]
pub struct RunResult {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Reasons the run does not count at all.
    pub invalid: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Retrievals per second of every window of the timed run, in order —
    /// what the steady decile was taken from, kept so a surprising number
    /// can be traced to the windows a neighbour slowed.
    pub window_rates: Vec<f64>,
    pub steal_ticks: u64,
    pub env: Json,
}

impl RunResult {
    /// Every retrieval byte-identical and inside its bound, and the run
    /// itself valid.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// The metrics keyed by name: value and unit, plus `extra(metric)`.
    pub fn metrics_json(&self, extra: impl Fn(&Metric) -> Vec<(&'static str, Json)>) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    fields.extend(extra(m));
                    (m.name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The contract's last stdout line.
    pub fn driver_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(|_| Vec::new())),
        ])
        .compact()
    }

    /// The result file: the driver line's content plus notes (and whatever
    /// `extra` adds per metric), failure reasons and the environment stamp.
    pub fn to_json(&self, extra: impl Fn(&Metric) -> Vec<(&'static str, Json)>) -> Json {
        let strings = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
        let mut env = self.env.clone();
        if let Json::Obj(entries) = &mut env {
            entries.push(("steal_ticks".into(), Json::Num(self.steal_ticks as f64)));
        }
        Json::obj(vec![
            ("workload", Json::str(self.kind.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failures", strings(&self.failures)),
            ("invalid", strings(&self.invalid)),
            ("env", env),
            (
                "window_retrievals_per_s",
                Json::Arr(self.window_rates.iter().map(|r| Json::Num(*r)).collect()),
            ),
            (
                "metrics",
                self.metrics_json(|m| {
                    let mut fields = vec![("note", Json::str(&m.note))];
                    fields.extend(extra(m));
                    fields
                }),
            ),
        ])
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} ({}, seed {}, {} s): attempted {}, failed {}{}",
            self.kind.name(),
            if self.traced { "traced" } else { "timed" },
            self.seed,
            self.seconds,
            self.attempted,
            self.failed,
            if self.correct() {
                ""
            } else {
                "  ** NOT CORRECT **"
            },
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            println!("{:<36} {:>16.6} {:<6}{}", m.name, m.value, m.unit, note);
        }
        for reason in &self.invalid {
            println!("invalid run: {reason}");
        }
        for reason in &self.failures {
            println!("failed retrieval: {reason}");
        }
    }
}

pub fn write_json(dir: &Path, file: &str, value: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
