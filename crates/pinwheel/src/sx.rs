//! Single-integer reduction (`Sx`): specialization to one geometric chain
//! `{x·2^j}` with an exhaustive search over the base `x`.
//!
//! For each candidate base `x ∈ (⌊w_min/2⌋, w_min]` every window is shrunk to
//! the largest `x·2^j` not exceeding it.  The specialized windows form a
//! divisibility chain, so the harmonic column packer schedules them whenever
//! the specialized density is at most one.  The base achieving the lowest
//! specialized density is chosen.
//!
//! Searching the base is what lifts the guarantee beyond the powers-of-two
//! bound of 1/2: Holte et al. showed a well-chosen single base guarantees
//! density 2/3, and in practice the searched base does considerably better
//! (the scheduler-ablation experiment quantifies this).

use crate::specialize::{candidate_bases, specialize_single, SpecializedSystem};
use crate::{harmonic, PinwheelScheduler, Schedule, ScheduleError, TaskSystem};

/// Single-integer-reduction scheduler with exhaustive base search.
#[derive(Debug, Clone)]
pub struct SxScheduler {
    /// Maximum number of candidate bases examined (the candidate range is
    /// sampled evenly beyond this).  The default of 4096 makes the search
    /// exhaustive for every realistic broadcast-disk instance.
    pub max_candidates: usize,
}

impl Default for SxScheduler {
    fn default() -> Self {
        SxScheduler {
            max_candidates: 4096,
        }
    }
}

impl SxScheduler {
    /// Finds the candidate base minimising the specialized density, together
    /// with that specialization.  Returns `None` when the system is empty.
    pub(crate) fn best_specialization(
        &self,
        unit: &TaskSystem,
    ) -> Option<(u32, SpecializedSystem)> {
        let min_window = unit.min_window();
        let mut best: Option<(u32, SpecializedSystem, f64)> = None;
        for x in candidate_bases(min_window, self.max_candidates) {
            let Some(spec) = SpecializedSystem::build(unit, |w| specialize_single(w, x)) else {
                continue;
            };
            let density = spec.density();
            let better = match &best {
                None => true,
                Some((_, _, best_density)) => density < *best_density - 1e-15,
            };
            if better {
                best = Some((x, spec, density));
            }
        }
        best.map(|(x, spec, _)| (x, spec))
    }
}

impl PinwheelScheduler for SxScheduler {
    fn name(&self) -> &'static str {
        "sx"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        let unit = system.to_unit_system();
        let (_, spec) = self
            .best_specialization(&unit)
            .ok_or(ScheduleError::PackingFailed)?;
        let spec_density = spec.density();
        if spec_density > 1.0 + 1e-12 {
            return Err(ScheduleError::SpecializationFailed {
                best_density: spec_density,
            });
        }
        let schedule = harmonic::schedule_chain(&spec.windows())?;
        crate::verify(&schedule, system)?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, TaskSystem};

    fn unit_sys(windows: &[(u32, u32)]) -> TaskSystem {
        TaskSystem::from_windows(windows).unwrap()
    }

    #[test]
    fn chooses_a_base_that_beats_powers_of_two() {
        // Windows {7, 100}: powers of two give 4 + 64 (density 0.2656…);
        // base 7 gives 7 + 56; base 6 gives 6 + 96 (density 0.177).
        let system = unit_sys(&[(1, 7), (2, 100)]);
        let (x, spec) = SxScheduler::default().best_specialization(&system).unwrap();
        assert!(spec.density() <= 1.0 / 7.0 + 1.0 / 56.0 + 1e-12);
        assert!((4..=7).contains(&x));
        let s = SxScheduler::default().schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn schedules_instances_between_half_and_two_thirds() {
        // These have density in (0.5, 0.67] where Sa may fail but Sx succeeds.
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 3), (2, 6), (3, 8), (4, 30)],
            vec![(1, 2), (2, 8), (3, 26)],
            vec![(1, 4), (2, 4), (3, 8), (4, 33)],
            vec![(1, 3), (2, 4), (3, 24), (4, 50)],
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            let d = system.density().value();
            assert!(
                d > 0.5 && d <= 0.67 + 1e-9,
                "instance {windows:?} density {d}"
            );
            let s = SxScheduler::default()
                .schedule(&system)
                .unwrap_or_else(|e| panic!("failed on {windows:?}: {e}"));
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn rejects_density_above_one() {
        let system = unit_sys(&[(1, 2), (2, 2), (3, 3)]);
        assert!(matches!(
            SxScheduler::default().schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn reports_specialization_failure_when_no_base_fits() {
        // Density 0.95: any single-chain specialization pushes it above 1.
        let system = unit_sys(&[(1, 2), (2, 3), (3, 9), (4, 90)]);
        let result = SxScheduler::default().schedule(&system);
        assert!(
            matches!(result, Err(ScheduleError::SpecializationFailed { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn candidate_cap_is_respected() {
        let sx = SxScheduler { max_candidates: 8 };
        let system = unit_sys(&[(1, 10_000), (2, 30_000), (3, 90_001)]);
        let s = sx.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }
}
