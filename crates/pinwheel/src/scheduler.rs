//! The scheduler trait, shared error type and the cascading [`AutoScheduler`].

use crate::harmonic::HarmonicScheduler;
use crate::{
    Density, DoubleIntegerScheduler, ExactOutcome, ExactSolver, LlfScheduler, SaScheduler,
    Schedule, SxScheduler, TaskSystem, TaskSystemError, VerificationError,
};

/// Why a scheduler declined to produce (or failed to find) a schedule.
///
/// Except for [`ScheduleError::Infeasible`], an error from a heuristic
/// scheduler is *not* a proof of infeasibility — try a different scheduler
/// (or [`crate::ExactSolver`] for small instances).
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The system density exceeds one, so no schedule can exist.
    DensityExceedsOne(Density),
    /// The density exceeds the bound under which this scheduler is
    /// guaranteed (or designed) to work.
    DensityExceedsBound {
        /// System density.
        density: f64,
        /// The scheduler's density bound.
        bound: f64,
    },
    /// A harmonic scheduler was handed windows that do not form a
    /// divisibility chain.
    NotHarmonic {
        /// The two windows that fail to divide one another.
        offending: (u32, u32),
    },
    /// Specializing the windows pushed the density above one for every
    /// candidate base.
    SpecializationFailed {
        /// The best (lowest) specialized density over all candidates tried.
        best_density: f64,
    },
    /// Column packing failed (should not happen when the specialized density
    /// is at most one; kept as a defensive error rather than a panic).
    PackingFailed,
    /// The greedy scheduler hit its step limit before finding a cycle.
    CycleNotFound {
        /// Number of slots simulated before giving up.
        steps: usize,
    },
    /// A greedy scheduler reached a slot in which two tasks both had to be
    /// scheduled simultaneously.
    GreedyConflict {
        /// The slot at which the conflict occurred.
        slot: usize,
    },
    /// The exact solver proved the instance infeasible.
    Infeasible,
    /// The exact solver exceeded its state limit without an answer.
    Undecided {
        /// Number of states explored before giving up.
        states_explored: usize,
    },
    /// The exact solver proved the rule-R3 unit *relaxation* of a multi-unit
    /// system infeasible — which proves nothing about the original system
    /// (it may still be schedulable by another scheduler).
    RelaxationInfeasible,
    /// All schedulers in a cascade failed; the payload is the error from the
    /// last one tried.
    Exhausted(Box<ScheduleError>),
    /// The produced schedule failed post-verification (a scheduler bug guard;
    /// surfaced as an error instead of a panic so callers can fall back).
    VerificationFailed(VerificationError),
    /// The task system itself was malformed.
    System(TaskSystemError),
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::DensityExceedsOne(d) => {
                write!(f, "density {d} exceeds one; the system is infeasible")
            }
            ScheduleError::DensityExceedsBound { density, bound } => {
                write!(
                    f,
                    "density {density:.4} exceeds this scheduler's bound {bound}"
                )
            }
            ScheduleError::NotHarmonic { offending } => write!(
                f,
                "windows {} and {} do not form a divisibility chain",
                offending.0, offending.1
            ),
            ScheduleError::SpecializationFailed { best_density } => write!(
                f,
                "specialization failed: best specialized density {best_density:.4} exceeds one"
            ),
            ScheduleError::PackingFailed => write!(f, "harmonic column packing failed"),
            ScheduleError::CycleNotFound { steps } => {
                write!(f, "no cycle found within {steps} simulated slots")
            }
            ScheduleError::GreedyConflict { slot } => {
                write!(f, "two tasks required the same slot {slot}")
            }
            ScheduleError::Infeasible => write!(f, "the task system is provably infeasible"),
            ScheduleError::Undecided { states_explored } => {
                write!(f, "exact search gave up after {states_explored} states")
            }
            ScheduleError::RelaxationInfeasible => write!(
                f,
                "the unit relaxation is infeasible; the original multi-unit system \
                 remains undecided — try another scheduler"
            ),
            ScheduleError::Exhausted(inner) => {
                write!(
                    f,
                    "all schedulers in the cascade failed; last error: {inner}"
                )
            }
            ScheduleError::VerificationFailed(e) => write!(f, "schedule failed verification: {e}"),
            ScheduleError::System(e) => write!(f, "invalid task system: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<TaskSystemError> for ScheduleError {
    fn from(value: TaskSystemError) -> Self {
        ScheduleError::System(value)
    }
}

impl From<VerificationError> for ScheduleError {
    fn from(value: VerificationError) -> Self {
        ScheduleError::VerificationFailed(value)
    }
}

/// A constructive pinwheel scheduler.
///
/// Implementations must only return schedules that satisfy the system's
/// pinwheel conditions (all implementations in this crate verify their output
/// with [`crate::verify`] before returning it).
pub trait PinwheelScheduler {
    /// A short human-readable name, used in benchmark and experiment tables.
    fn name(&self) -> &'static str;

    /// Attempts to construct a cyclic schedule for `system`.
    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError>;
}

/// The cascade used by the broadcast-disk planner: harmonic column packing
/// → double-integer reduction → single-integer reduction (Sx) → exact
/// state-space search for small instances.  Sx's base search always
/// includes the powers-of-two base, so it succeeds wherever Holte et al.'s
/// Sa does.  The least-laxity greedy ([`LlfScheduler`]) has no stage either:
/// it scheduled no design the reductions had not, yet its failures were
/// most of the cost of each bandwidth the planner's scan rejects.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoScheduler;

/// Product-of-windows threshold below which [`AutoScheduler`] consults the
/// exact solver.
const EXACT_STATE_BUDGET: u128 = 2_000_000;

impl AutoScheduler {
    fn state_space_size(system: &TaskSystem) -> u128 {
        system
            .to_unit_system()
            .tasks()
            .iter()
            .fold(1u128, |acc, t| acc.saturating_mul(u128::from(t.window)))
    }
}

impl PinwheelScheduler for AutoScheduler {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }

        // A harmonic instance is scheduled optimally right away.
        if let Ok(s) = HarmonicScheduler.schedule(system) {
            return Ok(s);
        }

        let mut last_err = None;
        let cascade: [&dyn PinwheelScheduler; 2] = [&DoubleIntegerScheduler, &SxScheduler];
        for scheduler in cascade {
            match scheduler.schedule(system) {
                Ok(s) => return Ok(s),
                Err(e) => last_err = Some(e),
            }
        }

        if Self::state_space_size(system) <= EXACT_STATE_BUDGET {
            match ExactSolver::default().decide(&system.to_unit_system()) {
                ExactOutcome::Schedulable(s) => {
                    crate::verify(&s, system)?;
                    return Ok(s);
                }
                ExactOutcome::Infeasible => {
                    // Infeasibility of the R3 relaxation is only a proof for
                    // unit systems; report it as such, otherwise fall through.
                    if system.is_unit() {
                        return Err(ScheduleError::Infeasible);
                    }
                    last_err = Some(ScheduleError::Infeasible);
                }
                ExactOutcome::Undecided { states_explored } => {
                    last_err = Some(ScheduleError::Undecided { states_explored });
                }
            }
        }

        Err(ScheduleError::Exhausted(Box::new(
            last_err.unwrap_or(ScheduleError::PackingFailed),
        )))
    }
}

/// A named choice among the schedulers in this crate, for a caller that
/// hands one to a designer (`bcore::BdiskDesigner::with_scheduler`).
///
/// Every variant uses its scheduler's default configuration; callers needing
/// tuned sub-schedulers can implement [`PinwheelScheduler`] themselves and
/// hand the designer a custom instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// The harmonic column packer: optimal, but only for divisibility-chain
    /// windows.
    Harmonic,
    /// [`SaScheduler`]: Holte et al.'s powers-of-two specialization
    /// (guaranteed for density ≤ 1/2).
    Sa,
    /// [`SxScheduler`]: single-integer reduction with an exhaustive base
    /// search.
    Sx,
    /// [`DoubleIntegerScheduler`]: two-chain specialization (the Chan & Chin
    /// regime behind the paper's Equations 1 and 2).
    DoubleInteger,
    /// [`LlfScheduler`]: least-laxity-first greedy with cycle detection.
    Llf,
    /// [`ExactSolver`]: state-space search; decides small instances.
    Exact,
    /// [`AutoScheduler`]: the full cascade (the default).
    #[default]
    Auto,
}

impl PinwheelScheduler for SchedulerChoice {
    fn name(&self) -> &'static str {
        match self {
            SchedulerChoice::Harmonic => "harmonic",
            SchedulerChoice::Sa => "Sa",
            SchedulerChoice::Sx => "Sx",
            SchedulerChoice::DoubleInteger => "double-integer",
            SchedulerChoice::Llf => "llf",
            SchedulerChoice::Exact => "exact",
            SchedulerChoice::Auto => "auto",
        }
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        match self {
            SchedulerChoice::Harmonic => HarmonicScheduler.schedule(system),
            SchedulerChoice::Sa => SaScheduler.schedule(system),
            SchedulerChoice::Sx => SxScheduler.schedule(system),
            SchedulerChoice::DoubleInteger => DoubleIntegerScheduler.schedule(system),
            SchedulerChoice::Llf => LlfScheduler.schedule(system),
            SchedulerChoice::Exact => {
                let unit = system.to_unit_system();
                match ExactSolver::default().decide(&unit) {
                    ExactOutcome::Schedulable(s) => {
                        crate::verify(&s, system)?;
                        Ok(s)
                    }
                    // Infeasibility of the R3 unit relaxation is only a proof
                    // for unit systems (cf. [`AutoScheduler`]); for multi-unit
                    // systems the original instance may still be schedulable.
                    ExactOutcome::Infeasible if system.is_unit() => Err(ScheduleError::Infeasible),
                    ExactOutcome::Infeasible => Err(ScheduleError::RelaxationInfeasible),
                    ExactOutcome::Undecided { states_explored } => {
                        Err(ScheduleError::Undecided { states_explored })
                    }
                }
            }
            SchedulerChoice::Auto => AutoScheduler.schedule(system),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Task};

    fn sys(tasks: &[(u32, u32, u32)]) -> TaskSystem {
        TaskSystem::new(
            tasks
                .iter()
                .map(|&(id, a, b)| Task::new(id, a, b))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn auto_schedules_paper_example_1_instances() {
        let auto = AutoScheduler;
        for tasks in [vec![(1, 1, 2), (2, 1, 3)], vec![(1, 2, 5), (2, 1, 3)]] {
            let system = sys(&tasks);
            let s = auto.schedule(&system).expect("schedulable instance");
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn auto_rejects_density_above_one() {
        let auto = AutoScheduler;
        let system = sys(&[(1, 1, 2), (2, 1, 2), (3, 1, 3)]);
        assert!(matches!(
            auto.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn auto_proves_example_1_third_instance_infeasible() {
        // {(1,1,2),(2,1,3),(3,1,n)} is infeasible for every n; check a few.
        let auto = AutoScheduler;
        for n in [6u32, 7, 12, 30] {
            let system = sys(&[(1, 1, 2), (2, 1, 3), (3, 1, n)]);
            let result = auto.schedule(&system);
            assert!(
                matches!(result, Err(ScheduleError::Infeasible)),
                "n = {n}, got {result:?}"
            );
        }
    }

    #[test]
    fn auto_handles_density_point_seven_instances() {
        // A spread of instances at density ≈ 0.7 (the Chan & Chin bound).
        let auto = AutoScheduler;
        let instances = [
            vec![(1u32, 1u32, 3u32), (2, 1, 5), (3, 1, 7), (4, 1, 50)],
            vec![(1, 1, 4), (2, 1, 4), (3, 1, 6), (4, 1, 30)],
            vec![(1, 1, 2), (2, 1, 7), (3, 1, 19)],
            vec![(1, 1, 5), (2, 1, 6), (3, 1, 7), (4, 1, 8), (5, 1, 20)],
        ];
        for tasks in instances {
            let system = sys(&tasks);
            assert!(system.density().within(0.72), "test instance too dense");
            let s = auto
                .schedule(&system)
                .unwrap_or_else(|e| panic!("failed on {tasks:?}: {e}"));
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn auto_handles_multi_unit_requirements() {
        let auto = AutoScheduler;
        let system = sys(&[(1, 2, 10), (2, 3, 12), (3, 1, 9)]);
        let s = auto.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn error_messages_render() {
        let msgs = [
            ScheduleError::DensityExceedsOne(Density(1.25)).to_string(),
            ScheduleError::DensityExceedsBound {
                density: 0.8,
                bound: 0.5,
            }
            .to_string(),
            ScheduleError::NotHarmonic { offending: (4, 6) }.to_string(),
            ScheduleError::SpecializationFailed { best_density: 1.1 }.to_string(),
            ScheduleError::CycleNotFound { steps: 10 }.to_string(),
            ScheduleError::GreedyConflict { slot: 3 }.to_string(),
            ScheduleError::Infeasible.to_string(),
            ScheduleError::Undecided { states_explored: 9 }.to_string(),
            ScheduleError::PackingFailed.to_string(),
            ScheduleError::Exhausted(Box::new(ScheduleError::Infeasible)).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
