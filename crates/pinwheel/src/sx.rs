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

/// Most candidate bases Sx examines; beyond it the candidate range is
/// sampled evenly.  4096 makes the search exhaustive for every realistic
/// broadcast-disk instance.
const MAX_CANDIDATES: usize = 4096;

/// Single-integer-reduction scheduler with exhaustive base search.
#[derive(Debug, Clone, Copy, Default)]
pub struct SxScheduler;

impl SxScheduler {
    /// Finds the base among `candidate_bases(w_min, max_candidates)`
    /// minimising the specialized density, together with that
    /// specialization.  Returns `None` when the system is empty.
    fn best_specialization(
        unit: &TaskSystem,
        max_candidates: usize,
    ) -> Option<(u32, SpecializedSystem)> {
        let min_window = unit.min_window();
        let mut best: Option<(u32, SpecializedSystem, f64)> = None;
        for x in candidate_bases(min_window, max_candidates) {
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

    /// [`PinwheelScheduler::schedule`] over at most `max_candidates` bases.
    fn schedule_capped(
        system: &TaskSystem,
        max_candidates: usize,
    ) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        let unit = system.to_unit_system();
        let (_, spec) =
            Self::best_specialization(&unit, max_candidates).ok_or(ScheduleError::PackingFailed)?;
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

impl PinwheelScheduler for SxScheduler {
    fn name(&self) -> &'static str {
        "sx"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        Self::schedule_capped(system, MAX_CANDIDATES)
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
        let (x, spec) = SxScheduler::best_specialization(&system, MAX_CANDIDATES).unwrap();
        assert!(spec.density() <= 1.0 / 7.0 + 1.0 / 56.0 + 1e-12);
        assert!((4..=7).contains(&x));
        let s = SxScheduler.schedule(&system).unwrap();
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
            let s = SxScheduler
                .schedule(&system)
                .unwrap_or_else(|e| panic!("failed on {windows:?}: {e}"));
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn rejects_density_above_one() {
        let system = unit_sys(&[(1, 2), (2, 2), (3, 3)]);
        assert!(matches!(
            SxScheduler.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn reports_specialization_failure_when_no_base_fits() {
        // Density 0.95: any single-chain specialization pushes it above 1.
        let system = unit_sys(&[(1, 2), (2, 3), (3, 9), (4, 90)]);
        let result = SxScheduler.schedule(&system);
        assert!(
            matches!(result, Err(ScheduleError::SpecializationFailed { .. })),
            "got {result:?}"
        );
    }

    #[test]
    fn candidate_cap_is_respected() {
        let system = unit_sys(&[(1, 10_000), (2, 30_000), (3, 90_001)]);
        let s = SxScheduler::schedule_capped(&system, 8).unwrap();
        verify(&s, &system).unwrap();
    }

    /// The search always contains Sa's powers-of-two base, whatever its
    /// cap, so Sx schedules every instance Sa schedules — the reason the
    /// auto-scheduler's cascade runs no Sa of its own.  The window ranges
    /// make each cap sample its candidates: above 16 a cap of 8 samples,
    /// above 8193 the cap of 4096 does, and a cap of 1 always does (it
    /// once divided by zero on `{10, 30}`).
    #[test]
    fn sx_schedules_whatever_sa_schedules_at_every_candidate_cap() {
        use crate::{SaScheduler, Task};

        // A fixed linear congruential stream: the crate takes no RNG.
        let mut state = 0x5A07u64;
        let mut window_in = |lo: u32, hi: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (state >> 33) as u32 % (hi - lo)
        };
        let mut systems: Vec<TaskSystem> = [&[10, 30][..], &[4, 9, 17, 40], &[8194, 20_000]]
            .iter()
            .map(|windows| {
                let tasks = windows
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| Task::unit(i as u32 + 1, w))
                    .collect();
                TaskSystem::new(tasks).unwrap()
            })
            .collect();
        for case in 0..48 {
            let (lo, hi, max_tasks) = [(2, 200, 12), (17, 400, 40), (8194, 20_000, 4)][case % 3];
            let target = 0.3 + 0.7 * case as f64 / 48.0;
            let mut tasks = Vec::new();
            let mut density = 0.0;
            while tasks.len() < max_tasks {
                let w = window_in(lo, hi);
                if density + 1.0 / f64::from(w) > target {
                    break;
                }
                density += 1.0 / f64::from(w);
                tasks.push(Task::unit(tasks.len() as u32 + 1, w));
            }
            if !tasks.is_empty() {
                systems.push(TaskSystem::new(tasks).unwrap());
            }
        }
        for system in &systems {
            let sa = SaScheduler.schedule(system);
            for cap in [1, 8, MAX_CANDIDATES] {
                let sx = SxScheduler::schedule_capped(system, cap);
                if sa.is_ok() {
                    let schedule = sx.unwrap_or_else(|e| {
                        panic!("Sx (cap {cap}) failed where Sa succeeded: {e}, {system:?}")
                    });
                    assert!(verify(&schedule, system).is_ok());
                }
            }
        }
    }
}
