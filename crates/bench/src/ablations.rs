//! Ablation experiments for three design choices: which pinwheel scheduler
//! backs the planner (`ablation-schedulers`), how much AIDA redundancy to
//! transmit (`ablation-redundancy`), and how finely to disperse, the
//! block-size trade-off (`ablation-blocksize`).

use crate::render_table;
use bdisk::{BroadcastProgram, BroadcastServer, FlatOrder};
use bsim::{worst_case_latency, BernoulliErrors, RetrievalSimulator, SimulationConfig};
use ida::{Dispersal, FileId};
use pinwheel::{
    DoubleIntegerScheduler, ExactSolver, LlfScheduler, PinwheelScheduler, SaScheduler, SxScheduler,
    Task, TaskSystem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Success counts of one scheduler at one density bucket.
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerAblationRow {
    /// Target density of the generated instances.
    pub density: f64,
    /// Per-scheduler success rate, `(name, successes, attempts)`.
    pub results: Vec<(String, usize, usize)>,
}

/// The scheduler-ablation experiment (Ablation A).
#[derive(Debug, Clone, Serialize)]
pub struct SchedulerAblation {
    /// Rows per density bucket.
    pub rows: Vec<SchedulerAblationRow>,
}

impl core::fmt::Display for SchedulerAblation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Ablation A — scheduler success rate vs. instance density (random unit-task instances)"
        )?;
        let names: Vec<&str> = self.rows[0]
            .results
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        let mut headers = vec!["density"];
        headers.extend(names.iter().copied());
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![format!("{:.2}", r.density)];
                cells.extend(r.results.iter().map(|(_, ok, total)| {
                    format!("{:.0}%", 100.0 * *ok as f64 / (*total).max(1) as f64)
                }));
                cells
            })
            .collect();
        write!(f, "{}", render_table(&headers, &rows))
    }
}

/// Generates a random unit-task instance with density close to `target`.
fn random_instance(target: f64, tasks: usize, rng: &mut StdRng) -> TaskSystem {
    // Draw task densities from a symmetric Dirichlet-ish split of the target.
    let mut weights: Vec<f64> = (0..tasks).map(|_| rng.gen_range(0.2..1.0)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w = *w / total * target;
    }
    let tasks: Vec<Task> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            // window = round(1/w), clamped to ≥ 2 to avoid degenerate
            // every-slot tasks.
            let window = (1.0 / w).round().max(2.0) as u32;
            Task::unit(i as u32 + 1, window)
        })
        .collect();
    TaskSystem::new(tasks).expect("valid generated tasks")
}

/// Runs Ablation A: success rates of each scheduler family across a density
/// sweep, validated against the exact solver where it can decide.
pub fn scheduler_ablation(instances_per_bucket: usize, seed: u64) -> SchedulerAblation {
    let densities = [0.45, 0.55, 0.65, 0.70, 0.75, 0.85, 0.95];
    let schedulers: Vec<(&str, Box<dyn PinwheelScheduler>)> = vec![
        ("Sa", Box::new(SaScheduler)),
        ("Sx", Box::new(SxScheduler)),
        ("double-int", Box::new(DoubleIntegerScheduler)),
        ("greedy", Box::new(LlfScheduler)),
    ];
    let exact = ExactSolver {
        state_limit: 200_000,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for &density in &densities {
        let mut results: Vec<(String, usize, usize)> = schedulers
            .iter()
            .map(|(name, _)| (name.to_string(), 0usize, 0usize))
            .collect();
        let mut exact_feasible = 0usize;
        let mut exact_decided = 0usize;
        for i in 0..instances_per_bucket {
            let tasks = 3 + (i % 4);
            let system = random_instance(density, tasks, &mut rng);
            for (idx, (_, scheduler)) in schedulers.iter().enumerate() {
                results[idx].2 += 1;
                if scheduler.schedule(&system).is_ok() {
                    results[idx].1 += 1;
                }
            }
            match exact.decide(&system) {
                pinwheel::ExactOutcome::Schedulable(_) => {
                    exact_feasible += 1;
                    exact_decided += 1;
                }
                pinwheel::ExactOutcome::Infeasible => {
                    exact_decided += 1;
                }
                pinwheel::ExactOutcome::Undecided { .. } => {}
            }
        }
        results.push(("exact-feasible".to_string(), exact_feasible, exact_decided));
        rows.push(SchedulerAblationRow { density, results });
    }
    SchedulerAblation { rows }
}

/// One row of the redundancy ablation (Ablation C).
#[derive(Debug, Clone, Serialize)]
pub struct RedundancyRow {
    /// Number of redundant blocks transmitted per file (n − m).
    pub redundancy: u32,
    /// Channel loss probability.
    pub loss_probability: f64,
    /// Mean retrieval latency (slots).
    pub mean_latency: f64,
    /// 99th-percentile latency (slots).
    pub p99_latency: usize,
    /// Deadline-miss ratio against a deadline of one and a half broadcast
    /// periods — enough slack for AIDA's per-error recovery (≤ Δ slots,
    /// Lemma 2) to fit, while an undispersed program's full-period recovery
    /// (Lemma 1) does not.
    pub miss_ratio: f64,
    /// Bandwidth cost: slots per data cycle relative to the no-redundancy
    /// program.
    pub bandwidth_factor: f64,
}

/// The redundancy-level ablation.
#[derive(Debug, Clone, Serialize)]
pub struct RedundancyAblation {
    /// Rows per (redundancy, loss) combination.
    pub rows: Vec<RedundancyRow>,
}

impl core::fmt::Display for RedundancyAblation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Ablation C — AIDA redundancy level vs. latency and deadline misses (Bernoulli losses)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.redundancy.to_string(),
                    format!("{:.2}", r.loss_probability),
                    format!("{:.1}", r.mean_latency),
                    r.p99_latency.to_string(),
                    format!("{:.2}%", r.miss_ratio * 100.0),
                    format!("{:.2}×", r.bandwidth_factor),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "redundancy",
                    "loss p",
                    "mean lat",
                    "p99 lat",
                    "miss %",
                    "bandwidth"
                ],
                &rows
            )
        )
    }
}

/// Runs Ablation C: for a fixed file mix, sweep the per-file AIDA redundancy
/// and the channel loss rate, measuring latency and deadline misses.
pub fn redundancy_ablation(retrievals: usize, seed: u64) -> RedundancyAblation {
    let blocks_per_file = 5u32;
    let files_count = 4u32;
    let base_cycle = (blocks_per_file * files_count) as usize;
    let mut rows = Vec::new();
    for redundancy in [0u32, 2, 5] {
        let factor = f64::from(blocks_per_file + redundancy) / f64::from(blocks_per_file);
        let files = bsim::workload::uniform_file_set(files_count, blocks_per_file, 32, factor);
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let server = BroadcastServer::with_synthetic_contents(&files, program).unwrap();
        for loss in [0.02f64, 0.10, 0.25] {
            let config = SimulationConfig {
                retrievals_per_file: retrievals,
                deadline_slots: Some(base_cycle + base_cycle / 2),
                max_listen_slots: 50_000,
                seed,
            };
            let mut sim = RetrievalSimulator::new(
                &server,
                BernoulliErrors::new(loss, seed ^ (redundancy as u64) << 8),
                config,
            );
            let report = sim.run_file(FileId(0), blocks_per_file as usize);
            rows.push(RedundancyRow {
                redundancy,
                loss_probability: loss,
                mean_latency: report.latency.mean(),
                p99_latency: report.latency.p99(),
                miss_ratio: report.misses.miss_ratio(),
                bandwidth_factor: factor,
            });
        }
    }
    RedundancyAblation { rows }
}

/// One row of the block-size / dispersal-level ablation (Ablation B,
/// the paper's Section 5 open issue).
#[derive(Debug, Clone, Serialize)]
pub struct BlocksizeRow {
    /// Dispersal level m (number of source blocks the file is split into).
    pub dispersal_level: u32,
    /// Block size in bytes for a fixed 8 KiB file.
    pub block_bytes: usize,
    /// Worst-case extra delay (slots) for one error.
    pub extra_delay_one_error: usize,
    /// Dispersal + reconstruction cost proxy: field multiplications per byte
    /// of file (grows as O(m)).
    pub coding_cost_per_byte: f64,
}

/// The block-size ablation.
#[derive(Debug, Clone, Serialize)]
pub struct BlocksizeAblation {
    /// Rows per dispersal level.
    pub rows: Vec<BlocksizeRow>,
}

impl core::fmt::Display for BlocksizeAblation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Ablation B — dispersal level (block size) vs. recovery delay and coding cost (8 KiB file)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.dispersal_level.to_string(),
                    r.block_bytes.to_string(),
                    r.extra_delay_one_error.to_string(),
                    format!("{:.1}", r.coding_cost_per_byte),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "m (blocks)",
                    "block bytes",
                    "extra delay (1 err)",
                    "GF mults/byte"
                ],
                &rows
            )
        )
    }
}

/// Runs Ablation B: a fixed-size file is dispersed at increasing levels `m`
/// (smaller blocks); finer dispersal shortens error recovery but raises the
/// O(m) coding cost per byte.
pub fn blocksize_ablation() -> BlocksizeAblation {
    let file_bytes = 8 * 1024usize;
    let mut rows = Vec::new();
    for m in [2u32, 4, 8, 16] {
        let n = 2 * m;
        // Two files share the disk so the gap structure is non-trivial.
        let files = bdisk::FileSet::new(vec![
            bdisk::BroadcastFile::new(FileId(0), "target", m, (file_bytes as u32) / m)
                .with_dispersal(n),
            bdisk::BroadcastFile::new(FileId(1), "other", m, (file_bytes as u32) / m)
                .with_dispersal(n),
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let extra = worst_case_latency(&program, FileId(0), m as usize, 1).extra_delay;
        // Coding cost: encoding multiplies an m-vector by an n×m matrix per
        // byte-column → n·m multiplications per m bytes → n mults per byte.
        let dispersal = Dispersal::new(m as usize, n as usize).unwrap();
        let cost = dispersal.total_blocks() as f64;
        rows.push(BlocksizeRow {
            dispersal_level: m,
            block_bytes: file_bytes / m as usize,
            extra_delay_one_error: extra,
            coding_cost_per_byte: cost,
        });
    }
    BlocksizeAblation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_ablation_orders_schedulers_sensibly() {
        let ab = scheduler_ablation(6, 99);
        assert_eq!(ab.rows.len(), 7);
        // At low density every constructive scheduler succeeds on everything.
        let low = &ab.rows[0];
        for (name, ok, total) in &low.results {
            if name != "exact-feasible" {
                assert_eq!(ok, total, "{name} failed at density 0.45");
            }
        }
        // Display renders.
        assert!(!ab.to_string().is_empty());
    }

    #[test]
    fn redundancy_reduces_misses_under_heavy_loss() {
        let ab = redundancy_ablation(60, 5);
        assert_eq!(ab.rows.len(), 9);
        let miss = |red: u32, loss: f64| {
            ab.rows
                .iter()
                .find(|r| r.redundancy == red && (r.loss_probability - loss).abs() < 1e-9)
                .unwrap()
                .miss_ratio
        };
        // At 25% loss, maximum redundancy must not miss more often than no
        // redundancy.
        assert!(miss(5, 0.25) <= miss(0, 0.25));
        assert!(!ab.to_string().is_empty());
    }

    #[test]
    fn finer_dispersal_shortens_recovery_but_costs_more_coding() {
        let ab = blocksize_ablation();
        assert_eq!(ab.rows.len(), 4);
        // Coding cost strictly increases with dispersal level.
        assert!(ab
            .rows
            .windows(2)
            .all(|w| w[1].coding_cost_per_byte > w[0].coding_cost_per_byte));
        // Recovery delay (in slots) stays bounded by a couple of gaps and the
        // coarsest dispersal is never better than the finest.
        let coarsest = ab.rows.first().unwrap().extra_delay_one_error;
        let finest = ab.rows.last().unwrap().extra_delay_one_error;
        assert!(finest <= coarsest.max(4));
        assert!(!ab.to_string().is_empty());
    }
}
