//! Bandwidth planning for real-time (fault-tolerant) broadcast disks
//! (paper Section 3.2, Equations 1 and 2).
//!
//! A broadcast file `Fᵢ` is specified by a size `mᵢ` (blocks) and a latency
//! `Tᵢ` (seconds); given a channel bandwidth of `B` blocks/second, meeting
//! the latency means satisfying the pinwheel condition
//! `pc(i, mᵢ + rᵢ, B·Tᵢ)` (with `rᵢ` the number of faults to tolerate).
//! Because Chan & Chin's scheduler handles any pinwheel system of density at
//! most 7/10, the bandwidth
//!
//! ```text
//!     B  =  ⌈ 10/7 · Σᵢ (mᵢ + rᵢ) / Tᵢ ⌉              (Equations 1 and 2)
//! ```
//!
//! is sufficient, and it exceeds the trivial lower bound `Σᵢ (mᵢ + rᵢ)/Tᵢ`
//! by at most 43%.  Counted in whole slots per second, the two ceilings add
//! up to `1/⌈Σᵢ (mᵢ + rᵢ)/Tᵢ⌉` on top of that 3/7 (see
//! [`BandwidthPlan::overhead_allowance`]).  This module computes both
//! bounds, and can also search for the *smallest constructively
//! schedulable* bandwidth so the analytical bound can be compared against
//! what the schedulers actually achieve (the `eq1`/`eq2` experiments).

use pinwheel::{
    AutoScheduler, PinwheelScheduler, Schedule, Task, TaskSystem, CHAN_CHIN_DENSITY_BOUND,
};

/// One file's bandwidth-relevant requirements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileRequirement {
    /// Size `mᵢ` in blocks.
    pub size_blocks: u32,
    /// Latency `Tᵢ` in seconds.
    pub latency_seconds: f64,
    /// Number of faults `rᵢ` that must be tolerated within the latency.
    pub faults: u32,
}

impl FileRequirement {
    /// A real-time file with no fault-tolerance requirement.
    pub fn new(size_blocks: u32, latency_seconds: f64) -> Self {
        FileRequirement {
            size_blocks,
            latency_seconds,
            faults: 0,
        }
    }

    /// Adds a fault-tolerance requirement of `faults` block losses.
    pub fn with_faults(mut self, faults: u32) -> Self {
        self.faults = faults;
        self
    }

    /// The effective block demand `mᵢ + rᵢ`.
    pub(crate) fn demand(&self) -> u32 {
        self.size_blocks + self.faults
    }
}

/// Errors from bandwidth planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerError {
    /// No files were supplied.
    NoFiles,
    /// A latency was zero or negative.
    NonPositiveLatency {
        /// Index of the offending file.
        index: usize,
    },
    /// A file had zero size.
    ZeroSize {
        /// Index of the offending file.
        index: usize,
    },
    /// The searched bandwidth exceeded the search cap without producing a
    /// constructive schedule.
    SearchExhausted {
        /// The largest bandwidth tried.
        max_tried: u64,
    },
}

impl core::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlannerError::NoFiles => write!(f, "no files to plan for"),
            PlannerError::NonPositiveLatency { index } => {
                write!(f, "file {index} has a non-positive latency")
            }
            PlannerError::ZeroSize { index } => write!(f, "file {index} has zero size"),
            PlannerError::SearchExhausted { max_tried } => {
                write!(
                    f,
                    "no schedulable bandwidth found up to {max_tried} blocks/sec"
                )
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// The outcome of planning one broadcast disk.
#[derive(Debug, Clone)]
pub struct BandwidthPlan {
    /// The information-theoretic lower bound `⌈Σ (mᵢ+rᵢ)/Tᵢ⌉`.
    pub lower_bound: u64,
    /// The paper's sufficient bandwidth `⌈10/7 · Σ (mᵢ+rᵢ)/Tᵢ⌉`
    /// (Equation 1 when all `rᵢ = 0`, Equation 2 otherwise).
    pub chan_chin_bound: u64,
    /// The pinwheel density of the task system at `chan_chin_bound`.
    pub density_at_bound: f64,
    /// The overhead of the sufficient bound over the lower bound
    /// (the paper's "at most 43%"; see
    /// [`BandwidthPlan::overhead_allowance`]).
    pub overhead: f64,
}

impl BandwidthPlan {
    /// The most [`BandwidthPlan::overhead`] can be for this plan's lower
    /// bound: `3/7 + 1/lower_bound`.  With `d = Σᵢ (mᵢ + rᵢ)/Tᵢ`,
    /// `⌈10·d/7⌉ ≤ 10·d/7 + 1 ≤ 10·⌈d⌉/7 + 1`, so the ratio to `⌈d⌉` exceeds
    /// 10/7 by at most `1/⌈d⌉`.  The paper's 43% is the 3/7 term alone: the
    /// limit for large demands, which small integer bandwidths can overshoot.
    pub fn overhead_allowance(&self) -> f64 {
        1.0 / CHAN_CHIN_DENSITY_BOUND - 1.0 + 1.0 / self.lower_bound.max(1) as f64
    }
}

/// The bandwidth planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    fn validate(files: &[FileRequirement]) -> Result<(), PlannerError> {
        if files.is_empty() {
            return Err(PlannerError::NoFiles);
        }
        for (index, f) in files.iter().enumerate() {
            if f.latency_seconds <= 0.0 {
                return Err(PlannerError::NonPositiveLatency { index });
            }
            if f.size_blocks == 0 {
                return Err(PlannerError::ZeroSize { index });
            }
        }
        Ok(())
    }

    /// Equations 1 and 2: the analytic bandwidth plan.
    pub fn plan(&self, files: &[FileRequirement]) -> Result<BandwidthPlan, PlannerError> {
        Self::validate(files)?;
        let demand: f64 = files
            .iter()
            .map(|f| f64::from(f.demand()) / f.latency_seconds)
            .sum();
        let lower_bound = demand.ceil() as u64;
        let chan_chin_bound = (demand / CHAN_CHIN_DENSITY_BOUND).ceil() as u64;
        let density_at_bound = Self::density_at(files, chan_chin_bound);
        Ok(BandwidthPlan {
            lower_bound,
            chan_chin_bound,
            density_at_bound,
            overhead: if lower_bound == 0 {
                0.0
            } else {
                chan_chin_bound as f64 / lower_bound as f64 - 1.0
            },
        })
    }

    /// The pinwheel task system induced by a bandwidth of `blocks_per_second`
    /// (windows are `⌊B·Tᵢ⌋` slots).
    pub(crate) fn task_system(
        files: &[FileRequirement],
        blocks_per_second: u64,
    ) -> Result<TaskSystem, PlannerError> {
        Self::validate(files)?;
        let tasks: Vec<Task> = files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let window = (blocks_per_second as f64 * f.latency_seconds).floor() as u32;
                Task::new(i as u32 + 1, f.demand(), window.max(1))
            })
            .collect();
        TaskSystem::new(tasks).map_err(|_| PlannerError::NoFiles)
    }

    /// The density of the induced task system at a given bandwidth.
    pub(crate) fn density_at(files: &[FileRequirement], blocks_per_second: u64) -> f64 {
        files
            .iter()
            .map(|f| {
                let window = (blocks_per_second as f64 * f.latency_seconds)
                    .floor()
                    .max(1.0);
                f64::from(f.demand()) / window
            })
            .sum()
    }

    /// The smallest bandwidth at which the scheduler cascade actually
    /// constructs (and verifies) a schedule, together with that schedule.
    ///
    /// The search starts from the information-theoretic lower bound and walks
    /// upward one bandwidth at a time, up to twice the Equation 1/2 bound
    /// (and at least 8 past the lower bound), far beyond anything needed in
    /// practice.
    pub fn minimum_constructive_bandwidth(
        &self,
        files: &[FileRequirement],
    ) -> Result<(u64, Schedule), PlannerError> {
        Self::validate(files)?;
        let plan = self.plan(files)?;
        let start = plan.lower_bound.max(1);
        let cap = (plan.chan_chin_bound * 2).max(start + 8);
        for b in start..=cap {
            let system = Self::task_system(files, b)?;
            if !system.density().within(1.0) {
                continue;
            }
            if let Ok(schedule) = AutoScheduler.schedule(&system) {
                return Ok((b, schedule));
            }
        }
        Err(PlannerError::SearchExhausted { max_tried: cap })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn awacs_files() -> Vec<FileRequirement> {
        // Loosely modelled on the paper's AWACS example: aircraft positions
        // need 400 ms latency, tank positions 6 s, plus some bulk objects.
        vec![
            FileRequirement::new(2, 0.4),
            FileRequirement::new(4, 6.0),
            FileRequirement::new(10, 10.0),
            FileRequirement::new(20, 30.0),
        ]
    }

    #[test]
    fn equation_1_matches_hand_computation() {
        let files = vec![FileRequirement::new(5, 2.0), FileRequirement::new(3, 1.5)];
        // Σ mᵢ/Tᵢ = 2.5 + 2 = 4.5; lower bound 5; Eq.1 bound ⌈4.5·10/7⌉ = ⌈6.43⌉ = 7.
        let plan = Planner.plan(&files).unwrap();
        assert_eq!(plan.lower_bound, 5);
        assert_eq!(plan.chan_chin_bound, 7);
        assert!(plan.overhead <= 0.43 + 1e-9);
    }

    #[test]
    fn equation_2_adds_fault_tolerance_demand() {
        let files = vec![
            FileRequirement::new(5, 2.0).with_faults(2),
            FileRequirement::new(3, 1.5).with_faults(1),
        ];
        // Σ (mᵢ+rᵢ)/Tᵢ = 3.5 + 8/3 = 6.1667; Eq.2 bound ⌈8.81⌉ = 9.
        let plan = Planner.plan(&files).unwrap();
        assert_eq!(plan.lower_bound, 7);
        assert_eq!(plan.chan_chin_bound, 9);
    }

    #[test]
    fn density_at_the_equation_bound_is_at_most_seven_tenths() {
        // The whole point of Equations 1/2: at the computed bandwidth the
        // pinwheel density is within the Chan & Chin bound (modulo the
        // integer floor on windows, which the ceiling on B absorbs for
        // latencies ≥ 1 second; sub-second latencies are covered by the
        // AWACS case below which we check explicitly).
        let cases = [
            vec![FileRequirement::new(5, 2.0), FileRequirement::new(3, 1.5)],
            vec![
                FileRequirement::new(5, 2.0).with_faults(2),
                FileRequirement::new(3, 1.5).with_faults(1),
            ],
            awacs_files(),
        ];
        for files in cases {
            let plan = Planner.plan(&files).unwrap();
            assert!(
                plan.density_at_bound <= CHAN_CHIN_DENSITY_BOUND + 0.03,
                "density {} too far above 0.7",
                plan.density_at_bound
            );
        }
    }

    #[test]
    fn overhead_stays_within_its_integer_slot_allowance() {
        let planner = Planner;
        // Σ (mᵢ + rᵢ)/Tᵢ = 5 + 2/3 + 1 + 2/3 = 7.33: ⌈10.48⌉ = 11 slots over
        // 8, 37.5%.
        let plan = planner.plan(&awacs_files()).unwrap();
        assert_eq!((plan.chan_chin_bound, plan.lower_bound), (11, 8));
        assert!(plan.overhead <= plan.overhead_allowance());
        // One block a second: ⌈10/7⌉ = 2 slots over 1.  The 100% overhead
        // is far above the paper's 3/7, which only whole slots explain.
        let plan = planner.plan(&[FileRequirement::new(1, 1.0)]).unwrap();
        assert_eq!((plan.chan_chin_bound, plan.lower_bound), (2, 1));
        assert!(plan.overhead > 3.0 / 7.0);
        assert!(plan.overhead <= plan.overhead_allowance());
    }

    #[test]
    fn constructive_bandwidth_lies_between_the_bounds() {
        let files = awacs_files();
        let planner = Planner;
        let plan = planner.plan(&files).unwrap();
        let (b, schedule) = planner.minimum_constructive_bandwidth(&files).unwrap();
        assert!(b >= plan.lower_bound, "constructive {b} below lower bound");
        assert!(
            b <= plan.chan_chin_bound,
            "constructive bandwidth {b} exceeds the Eq.1 bound {}",
            plan.chan_chin_bound
        );
        // The schedule really serves the files: verify against the induced
        // task system at bandwidth b.
        let system = Planner::task_system(&files, b).unwrap();
        pinwheel::verify(&schedule, &system).unwrap();
    }

    #[test]
    fn validation_errors() {
        let planner = Planner;
        assert_eq!(planner.plan(&[]).unwrap_err(), PlannerError::NoFiles);
        assert_eq!(
            planner.plan(&[FileRequirement::new(5, 0.0)]).unwrap_err(),
            PlannerError::NonPositiveLatency { index: 0 }
        );
        assert_eq!(
            planner.plan(&[FileRequirement::new(0, 1.0)]).unwrap_err(),
            PlannerError::ZeroSize { index: 0 }
        );
    }

    #[test]
    fn demand_includes_faults() {
        assert_eq!(FileRequirement::new(5, 1.0).with_faults(3).demand(), 8);
        assert_eq!(FileRequirement::new(5, 1.0).demand(), 5);
    }
}
