//! Reproduction of the paper's analytic results: Example 1 (pinwheel
//! schedulability), Equations 1 and 2 (bandwidth bounds), and the
//! pinwheel-algebra Examples 2–6.

use crate::render_table;
use bcore::{convert_candidates, Bc, CandidateKind, FileRequirement, Planner, TaskIdAllocator};
use bsim::{RequirementGenerator, WorkloadConfig};
use ida::FileId;
use pinwheel::{ExactOutcome, ExactSolver, Task, TaskSystem};
use serde::Serialize;

/// The outcome of checking the three instances of the paper's Example 1.
#[derive(Debug, Clone, Serialize)]
pub struct Example1 {
    /// `{(1,1,2),(2,1,3)}` is schedulable.
    pub first_schedulable: bool,
    /// `{(1,2,5),(2,1,3)}` is schedulable.
    pub second_schedulable: bool,
    /// For each tested `n`, whether `{(1,1,2),(2,1,3),(3,1,n)}` is
    /// infeasible (the paper: infeasible for every `n`).
    pub third_infeasible_for: Vec<(u32, bool)>,
}

impl core::fmt::Display for Example1 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Example 1 — pinwheel schedulability (exact state-space solver)"
        )?;
        writeln!(
            f,
            "  {{(1,1,2),(2,1,3)}} schedulable      : {}",
            self.first_schedulable
        )?;
        writeln!(
            f,
            "  {{(1,2,5),(2,1,3)}} schedulable      : {}",
            self.second_schedulable
        )?;
        for (n, infeasible) in &self.third_infeasible_for {
            writeln!(
                f,
                "  {{(1,1,2),(2,1,3),(3,1,{n})}} infeasible: {infeasible}"
            )?;
        }
        Ok(())
    }
}

/// Decides the three Example 1 instances with the exact solver.
pub fn example_1() -> Example1 {
    let solver = ExactSolver::default();
    let first = TaskSystem::new(vec![Task::unit(1, 2), Task::unit(2, 3)]).unwrap();
    let second = TaskSystem::new(vec![Task::new(1, 2, 5), Task::unit(2, 3)]).unwrap();
    let third_ns = [6u32, 8, 12, 20, 40];
    Example1 {
        first_schedulable: solver.decide(&first).is_schedulable(),
        second_schedulable: matches!(solver.decide(&second), ExactOutcome::Schedulable(_)),
        third_infeasible_for: third_ns
            .iter()
            .map(|&n| {
                let system =
                    TaskSystem::new(vec![Task::unit(1, 2), Task::unit(2, 3), Task::unit(3, n)])
                        .unwrap();
                (n, solver.decide(&system).is_infeasible())
            })
            .collect(),
    }
}

/// One row of the bandwidth experiment (one generated workload).
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthRow {
    /// Number of files in the workload.
    pub files: usize,
    /// Whether per-file fault tolerance was requested (Equation 2) or not
    /// (Equation 1).
    pub fault_tolerant: bool,
    /// The information-theoretic lower bound on bandwidth.
    pub lower_bound: u64,
    /// The Equation 1/2 sufficient bandwidth.
    pub equation_bound: u64,
    /// The smallest bandwidth at which our scheduler cascade actually
    /// constructed a verified schedule.
    pub constructive: u64,
    /// Overhead of the equation bound over the lower bound.
    pub equation_overhead: f64,
    /// The most `equation_overhead` can be at this lower bound: the paper's
    /// 3/7 plus the `1/lower` its integer ceilings add
    /// ([`bcore::BandwidthPlan::overhead_allowance`]).
    pub overhead_allowance: f64,
    /// Overhead of the constructive bandwidth over the lower bound.
    pub constructive_overhead: f64,
}

/// The Equation 1 / Equation 2 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthExperiment {
    /// Per-workload rows.
    pub rows: Vec<BandwidthRow>,
    /// The worst equation-bound overhead observed (the paper: ≤ 43%).
    pub max_equation_overhead: f64,
    /// The integer-slot allowance of the row with the worst overhead.
    pub max_overhead_allowance: f64,
}

impl core::fmt::Display for BandwidthExperiment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Equations 1 & 2 — bandwidth bounds vs. constructively required bandwidth"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.files.to_string(),
                    if r.fault_tolerant { "eq2" } else { "eq1" }.to_string(),
                    r.lower_bound.to_string(),
                    r.equation_bound.to_string(),
                    r.constructive.to_string(),
                    format!("{:.1}%", r.equation_overhead * 100.0),
                    format!("{:.1}%", r.constructive_overhead * 100.0),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "files",
                    "eq",
                    "lower",
                    "10/7 bound",
                    "constructive",
                    "bound ovh",
                    "constr ovh"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "max equation-bound overhead: {:.1}% (paper claims ≤ 43%; whole slots allow \
             3/7 + 1/lower = {:.1}% on that row)",
            self.max_equation_overhead * 100.0,
            self.max_overhead_allowance * 100.0
        )
    }
}

/// Runs the bandwidth experiment over synthetic workloads of increasing size,
/// with (`Equation 2`) and without (`Equation 1`) fault-tolerance demands.
pub fn bandwidth_experiment(
    sizes: &[usize],
    fault_tolerant: bool,
    seed: u64,
) -> BandwidthExperiment {
    let planner = Planner;
    let mut rows = Vec::new();
    for &files in sizes {
        let config = WorkloadConfig {
            files,
            max_faults: if fault_tolerant { 3 } else { 0 },
        };
        let reqs: Vec<FileRequirement> = RequirementGenerator::new(config, seed).generate();
        let plan = planner.plan(&reqs).expect("valid workload");
        let (constructive, _) = planner
            .minimum_constructive_bandwidth(&reqs)
            .expect("workload is schedulable within the search cap");
        rows.push(BandwidthRow {
            files,
            fault_tolerant,
            lower_bound: plan.lower_bound,
            equation_bound: plan.chan_chin_bound,
            constructive,
            equation_overhead: plan.overhead,
            overhead_allowance: plan.overhead_allowance(),
            constructive_overhead: constructive as f64 / plan.lower_bound.max(1) as f64 - 1.0,
        });
    }
    let worst = rows
        .iter()
        .max_by(|a, b| a.equation_overhead.total_cmp(&b.equation_overhead));
    let (max_equation_overhead, max_overhead_allowance) =
        worst.map_or((0.0, 0.0), |r| (r.equation_overhead, r.overhead_allowance));
    BandwidthExperiment {
        rows,
        max_equation_overhead,
        max_overhead_allowance,
    }
}

/// One row of the Examples 2–6 table.
#[derive(Debug, Clone, Serialize)]
pub struct AlgebraExampleRow {
    /// Which paper example this is.
    pub example: String,
    /// The broadcast condition, rendered.
    pub condition: String,
    /// The density lower bound.
    pub lower_bound: f64,
    /// Density of the TR1 candidate.
    pub tr1: Option<f64>,
    /// Density of the TR2 candidate.
    pub tr2: Option<f64>,
    /// Density of the R1+R5 candidate.
    pub r1r5: Option<f64>,
    /// Density of the subsumption candidate (ours).
    pub subsumption: Option<f64>,
    /// Density of the chosen (best) candidate.
    pub chosen: f64,
    /// The density the paper reports for its chosen transformation.
    pub paper: f64,
}

/// The Examples 2–6 reproduction table.
#[derive(Debug, Clone, Serialize)]
pub struct AlgebraExamples {
    /// One row per example.
    pub rows: Vec<AlgebraExampleRow>,
}

impl core::fmt::Display for AlgebraExamples {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Examples 2–6 — nice-conjunct densities per transformation"
        )?;
        let fmt = |v: Option<f64>| {
            v.map(|x| format!("{x:.4}"))
                .unwrap_or_else(|| "-".to_string())
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.example.clone(),
                    r.condition.clone(),
                    format!("{:.4}", r.lower_bound),
                    fmt(r.tr1),
                    fmt(r.tr2),
                    fmt(r.r1r5),
                    fmt(r.subsumption),
                    format!("{:.4}", r.chosen),
                    format!("{:.4}", r.paper),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "example",
                    "condition",
                    "lower",
                    "TR1",
                    "TR2",
                    "R1+R5",
                    "subsume",
                    "chosen",
                    "paper"
                ],
                &rows
            )
        )
    }
}

/// Reproduces the paper's Examples 2–6 (and reports where our subsumption
/// candidate improves on the paper's chosen density).
pub fn examples_2_to_6() -> AlgebraExamples {
    let cases: Vec<(&str, Bc, f64)> = vec![
        (
            "Example 2",
            Bc::new(FileId(1), 5, vec![100, 105, 110, 115, 120]).unwrap(),
            0.0769,
        ),
        (
            "Example 3",
            Bc::new(FileId(2), 6, vec![105, 110]).unwrap(),
            0.0662,
        ),
        ("Example 4", Bc::new(FileId(3), 4, vec![8, 9]).unwrap(), 0.6),
        (
            "Example 5",
            Bc::new(FileId(4), 2, vec![5, 6, 6]).unwrap(),
            2.0 / 3.0,
        ),
        (
            "Example 6",
            Bc::new(FileId(5), 1, vec![2, 3]).unwrap(),
            2.0 / 3.0,
        ),
    ];
    let mut ids = TaskIdAllocator::new(1);
    let rows = cases
        .into_iter()
        .map(|(name, bc, paper)| {
            let candidates = convert_candidates(&bc, &mut ids).expect("valid conditions");
            let density_of = |kind: CandidateKind| {
                candidates
                    .iter()
                    .find(|c| c.kind == kind)
                    .map(|c| c.density)
            };
            AlgebraExampleRow {
                example: name.to_string(),
                condition: bc.to_string(),
                lower_bound: bc.density_lower_bound(),
                tr1: density_of(CandidateKind::Tr1),
                tr2: density_of(CandidateKind::Tr2),
                r1r5: density_of(CandidateKind::R1R5),
                subsumption: density_of(CandidateKind::Subsumption),
                chosen: candidates[0].density,
                paper,
            }
        })
        .collect();
    AlgebraExamples { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_1_matches_the_paper() {
        let e = example_1();
        assert!(e.first_schedulable);
        assert!(e.second_schedulable);
        assert!(e.third_infeasible_for.iter().all(|&(_, inf)| inf));
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn bandwidth_overhead_stays_within_the_43_percent_claim() {
        let exp = bandwidth_experiment(&[5, 10, 20], false, 42);
        assert_eq!(exp.rows.len(), 3);
        assert!(
            exp.max_equation_overhead <= 0.45,
            "{}",
            exp.max_equation_overhead
        );
        for row in &exp.rows {
            assert!(row.equation_overhead <= row.overhead_allowance + 1e-12);
            assert!(row.constructive >= row.lower_bound);
            assert!(row.constructive <= row.equation_bound + 2);
        }
        // The 10-file row is where `experiments eq1` reads 44.4%: above the
        // paper's 3/7, inside the 3/7 + 1/18 its whole slots allow.
        let ten = &exp.rows[1];
        assert_eq!((ten.equation_bound, ten.lower_bound), (26, 18));
        assert!(ten.equation_overhead > 3.0 / 7.0);
        assert_eq!(exp.max_equation_overhead, ten.equation_overhead);
        assert_eq!(exp.max_overhead_allowance, ten.overhead_allowance);
        assert!(exp.to_string().contains("44.4%"));
        assert!(exp.to_string().contains("48.4%"));
    }

    #[test]
    fn fault_tolerant_bandwidth_is_higher_than_plain() {
        let plain = bandwidth_experiment(&[10], false, 7);
        let ft = bandwidth_experiment(&[10], true, 7);
        assert!(ft.rows[0].equation_bound >= plain.rows[0].equation_bound);
    }

    #[test]
    fn algebra_examples_match_paper_densities() {
        let table = examples_2_to_6();
        assert_eq!(table.rows.len(), 5);
        for row in &table.rows {
            // The chosen density never exceeds the paper's (we may improve on
            // it, e.g. Example 4), and never beats the provable lower bound.
            assert!(
                row.chosen <= row.paper + 1e-3,
                "{}: chosen {} worse than paper {}",
                row.example,
                row.chosen,
                row.paper
            );
            assert!(row.chosen >= row.lower_bound - 1e-9);
        }
        // Example 3's chosen value matches the paper to 4 decimal places.
        let e3 = &table.rows[1];
        assert!((e3.chosen - 0.0662).abs() < 5e-4);
        assert!(!table.to_string().is_empty());
    }
}
