//! The `Sa` scheduler of Holte et al.: powers-of-two specialization.
//!
//! Every window is shrunk to the largest power of two not exceeding it; the
//! specialized windows trivially form a divisibility chain and are scheduled
//! by the harmonic column packing.  Since shrinking a window at most
//! doubles the task's density, any instance with density at most **1/2**
//! is guaranteed to be schedulable this way — the "simple and elegant
//! algorithm" the paper cites for the 0.5 bound.

use crate::specialize::{specialize_pow2, SpecializedSystem};
use crate::{harmonic, PinwheelScheduler, Schedule, ScheduleError, TaskSystem};

/// Holte et al.'s powers-of-two scheduler (density bound 1/2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SaScheduler;

impl PinwheelScheduler for SaScheduler {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        let unit = system.to_unit_system();
        let spec = SpecializedSystem::build(&unit, |w| Some(specialize_pow2(w)))
            .expect("powers of two always exist");
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
    use crate::{verify, Task, TaskSystem};

    fn unit_sys(windows: &[(u32, u32)]) -> TaskSystem {
        TaskSystem::from_windows(windows).unwrap()
    }

    #[test]
    fn schedules_any_instance_with_density_at_most_half() {
        // Sweep a few hand-built instances with density ≤ 0.5.
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 2)],
            vec![(1, 3), (2, 7)],
            vec![(1, 5), (2, 8), (3, 11), (4, 23)],
            vec![(1, 5), (2, 9), (3, 13), (4, 17), (5, 40), (6, 100)],
            vec![(1, 10), (2, 10), (3, 10), (4, 10), (5, 10)],
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            assert!(
                system.density().within(0.5),
                "test instance {windows:?} exceeds the Sa bound"
            );
            let s = SaScheduler.schedule(&system).unwrap();
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn may_fail_above_half_but_never_returns_a_bad_schedule() {
        // Density 5/6 > 1/2: Sa specializes {2,3} to {2,2} (density 1) which
        // still packs; {3,3,3} specializes to {2,2,2} (density 1.5) and fails.
        let ok = unit_sys(&[(1, 2), (2, 3)]);
        match SaScheduler.schedule(&ok) {
            Ok(s) => verify(&s, &ok).unwrap(),
            Err(e) => panic!("{e}"),
        }
        let too_dense = unit_sys(&[(1, 3), (2, 3), (3, 3)]);
        assert!(matches!(
            SaScheduler.schedule(&too_dense),
            Err(ScheduleError::SpecializationFailed { .. })
        ));
    }

    #[test]
    fn rejects_density_above_one() {
        let system = unit_sys(&[(1, 2), (2, 2), (3, 2)]);
        assert!(matches!(
            SaScheduler.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn handles_multi_unit_tasks_via_r3() {
        // (2, 9) → (1, 4) → specialized 4; (1, 7) → 4; density ok.
        let system = TaskSystem::new(vec![Task::new(1, 2, 9), Task::unit(2, 7)]).unwrap();
        let s = SaScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn schedule_period_is_a_power_of_two_multiple_of_base() {
        let system = unit_sys(&[(1, 5), (2, 9), (3, 17)]);
        let s = SaScheduler.schedule(&system).unwrap();
        // Specialized windows are 4, 8, 16 → period 16.
        assert_eq!(s.period(), 16);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(SaScheduler.name(), "sa");
    }
}
