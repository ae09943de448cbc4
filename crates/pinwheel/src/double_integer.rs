//! Double-integer reduction (after Chan & Chin 1992).
//!
//! The single-chain specialization of [`crate::SxScheduler`] can inflate a
//! window by a factor approaching 2 (a window just below `x·2^{j+1}` is
//! shrunk to `x·2^j`).  Chan & Chin's insight is to specialize onto the union
//! of **two** geometric chains `{x·2^j} ∪ {y·2^j}` with `x < y < 2x`: the
//! union's consecutive values are at ratio `y/x` and `2x/y`, so choosing `y`
//! near `x·√2` caps the inflation near `√2 ≈ 1.414 < 10/7`, which is how the
//! 7/10 density bound used by the paper's bandwidth Equations 1 and 2 arises.
//!
//! This implementation searches `(x, y)` pairs for the lowest specialized
//! density, and schedules the resulting two-chain instance with a
//! constructive back-end (the greedy cycle-detection scheduler, falling back
//! to exact search for small instances).  Every produced schedule is
//! verified against the *original* windows before being returned.  Unlike
//! the published construction, which schedules every instance of density
//! at most 7/10, the back-end is a search: an instance under the bound can
//! still fail here.  The `ablation-schedulers` experiment measures how
//! often, per density.

use crate::specialize::{candidate_bases, specialize_double, SpecializedSystem};
use crate::{
    harmonic, ExactOutcome, ExactSolver, LlfScheduler, PinwheelScheduler, Schedule, ScheduleError,
    TaskSystem,
};

/// Double-integer-reduction scheduler (two-chain specialization).
#[derive(Debug, Clone, Copy, Default)]
pub struct DoubleIntegerScheduler;

/// Most candidate first bases `x` searched (sampled evenly beyond this).
const MAX_BASE_CANDIDATES: usize = 512;
/// How many of the best `(x, y)` specializations are handed to the
/// constructive back-end before giving up.
const MAX_ATTEMPTS: usize = 8;
/// Step limit of the greedy back-end.
const GREEDY_STEP_LIMIT: usize = 1 << 18;
/// State budget of the exact back-end on the *specialized* instance.
const EXACT_STATE_BUDGET: u128 = 200_000;

/// A scored candidate specialization.
#[derive(Debug, Clone)]
struct Candidate {
    x: u32,
    y: u32,
    spec: SpecializedSystem,
    density: f64,
}

impl DoubleIntegerScheduler {
    /// Enumerates `(x, y)` specializations sorted by specialized density.
    fn candidates(unit: &TaskSystem) -> Vec<Candidate> {
        let min_window = unit.min_window();
        let mut out: Vec<Candidate> = Vec::new();
        for x in candidate_bases(min_window, MAX_BASE_CANDIDATES) {
            // y near x·√2 keeps the worst inflation below 10/7; scan a small
            // neighbourhood so that integer effects (small x) are covered.
            let ideal = (f64::from(x) * std::f64::consts::SQRT_2).round() as u32;
            let lo = ideal.saturating_sub(2).max(x + 1);
            let hi = (ideal + 2).min(2 * x - 1).max(lo);
            for y in lo..=hi {
                if y <= x || y >= 2 * x {
                    continue;
                }
                let Some(spec) = SpecializedSystem::build(unit, |w| specialize_double(w, x, y))
                else {
                    continue;
                };
                let density = spec.density();
                out.push(Candidate {
                    x,
                    y,
                    spec,
                    density,
                });
            }
        }
        out.sort_by(|a, b| {
            a.density
                .partial_cmp(&b.density)
                .expect("densities are finite")
        });
        out
    }

    /// Tries to schedule one specialized instance.
    fn schedule_candidate(candidate: &Candidate) -> Option<Schedule> {
        let windows = candidate.spec.windows();
        // Degenerate case: every window landed on a single chain — the
        // harmonic packer is optimal for it.
        let chain_windows: Vec<u32> = windows.iter().map(|&(_, w)| w).collect();
        if harmonic::check_chain(&chain_windows).is_ok() {
            if let Ok(s) = harmonic::schedule_chain(&windows) {
                return Some(s);
            }
        }
        if let Ok(s) = LlfScheduler::schedule_unit(&windows, GREEDY_STEP_LIMIT) {
            return Some(s);
        }
        // Small specialized instances: let the exact solver decide.
        let states: u128 = windows
            .iter()
            .fold(1u128, |acc, &(_, w)| acc.saturating_mul(u128::from(w)));
        if states <= EXACT_STATE_BUDGET {
            let system = candidate.spec.to_task_system();
            if let ExactOutcome::Schedulable(s) = ExactSolver::default().decide(&system) {
                return Some(s);
            }
        }
        None
    }
}

impl PinwheelScheduler for DoubleIntegerScheduler {
    fn name(&self) -> &'static str {
        "double-integer"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        let unit = system.to_unit_system();
        let candidates = Self::candidates(&unit);
        if candidates.is_empty() {
            return Err(ScheduleError::PackingFailed);
        }
        let best_density = candidates[0].density;
        for (attempts, candidate) in candidates.iter().enumerate() {
            if candidate.density > 1.0 + 1e-12 {
                break;
            }
            if attempts >= MAX_ATTEMPTS {
                break;
            }
            if let Some(schedule) = Self::schedule_candidate(candidate) {
                crate::verify(&schedule, system)?;
                debug_assert!(candidate.y > candidate.x && candidate.y < 2 * candidate.x);
                return Ok(schedule);
            }
        }
        Err(ScheduleError::SpecializationFailed { best_density })
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
    fn two_chain_specialization_beats_single_chain_on_awkward_windows() {
        // Windows chosen so no single chain fits well: 10, 14, 19, 27, 39.
        let system = unit_sys(&[(1, 10), (2, 14), (3, 19), (4, 27), (5, 39)]);
        let candidates = DoubleIntegerScheduler::candidates(&system.to_unit_system());
        assert!(!candidates.is_empty());
        // Inflation of the best candidate must respect the 10/7 cap.
        let best = &candidates[0];
        let inflation = best
            .spec
            .windows()
            .iter()
            .map(|&(id, w)| f64::from(system.task(id).unwrap().window) / f64::from(w))
            .fold(1.0, f64::max);
        assert!(inflation <= 10.0 / 7.0 + 1e-9);
        let s = DoubleIntegerScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn schedules_instances_near_the_seven_tenths_bound() {
        let di = DoubleIntegerScheduler;
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 3), (2, 5), (3, 7), (4, 50)],          // ≈ 0.696
            vec![(1, 4), (2, 5), (3, 9), (4, 13), (5, 60)], // ≈ 0.65
            vec![(1, 5), (2, 6), (3, 7), (4, 8), (5, 20)],  // = 0.70
            vec![
                (1, 10),
                (2, 11),
                (3, 12),
                (4, 13),
                (5, 14),
                (6, 15),
                (7, 16),
            ], // ≈ 0.55
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            assert!(system.density().within(0.705), "instance {windows:?}");
            let s = di
                .schedule(&system)
                .unwrap_or_else(|e| panic!("failed on {windows:?}: {e}"));
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn rejects_density_above_one() {
        let system = unit_sys(&[(1, 2), (2, 2), (3, 5)]);
        assert!(matches!(
            DoubleIntegerScheduler.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn fails_cleanly_when_specialization_cannot_fit() {
        // Density 0.98 with awkward windows: every two-chain specialization
        // exceeds density one, so the scheduler must report failure (and the
        // cascade falls back to the greedy).
        let system = unit_sys(&[(1, 2), (2, 5), (3, 7), (4, 9), (5, 43)]);
        let result = DoubleIntegerScheduler.schedule(&system);
        match result {
            Ok(s) => verify(&s, &system).unwrap(),
            Err(e) => assert!(matches!(
                e,
                ScheduleError::SpecializationFailed { .. } | ScheduleError::PackingFailed
            )),
        }
    }

    #[test]
    fn single_chain_degenerate_case_uses_harmonic_packing() {
        // All windows already powers-of-two multiples of 6: the two-chain
        // search still succeeds (y chain simply unused).
        let system = unit_sys(&[(1, 6), (2, 12), (3, 24), (4, 24)]);
        let s = DoubleIntegerScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(DoubleIntegerScheduler.name(), "double-integer");
    }
}
