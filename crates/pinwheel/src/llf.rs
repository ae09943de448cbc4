//! Greedy slot-by-slot scheduling with cycle detection.
//!
//! This is the constructive back-end used when the specialized instance does
//! not form a single divisibility chain (the double-integer reduction) and
//! the general-purpose fallback of the [`crate::AutoScheduler`] cascade.
//!
//! The policy is *deadline-driven with proportional-progress tie-breaking*:
//!
//! 1. if some task has zero laxity (it must run in this very slot to keep its
//!    window), run it — two such tasks at once is an unrecoverable conflict
//!    and the attempt fails;
//! 2. otherwise run the task that is proportionally most behind its ideal
//!    spacing, i.e. the one maximising `elapsed / window`.
//!
//! Step 2 is what distinguishes the policy from naive least-laxity-first:
//! a freshly-run small-window task has ratio 0 and therefore *yields* the
//! slot to larger-window tasks instead of hogging every slot until someone
//! else's deadline collapses (`{2,5,5}` is the canonical instance where naive
//! LLF fails and this policy produces the optimal `1,2,1,3,…` layout).
//!
//! The state vector (slots elapsed since each task last ran) is finite, so a
//! deterministic policy must eventually revisit a state; the slots between
//! the first and second visit form a valid cyclic schedule (the simulation
//! from the first visit onwards *is* that cyclic repetition).  A failure is
//! not a proof of infeasibility, merely of this heuristic's limit.

use crate::{PinwheelScheduler, Schedule, ScheduleError, TaskId, TaskSystem};
use std::collections::HashMap;

/// Deadline-driven greedy scheduler with proportional-progress tie-breaking.
///
/// (The name is kept short after the "least-laxity family" of greedy
/// distance-constrained schedulers it belongs to.)
#[derive(Debug, Clone, Copy, Default)]
pub struct LlfScheduler;

/// Most slots [`LlfScheduler`] simulates before giving up on finding a
/// cycle.  The state space is bounded by the product of the windows, but in
/// practice cycles appear within a few multiples of the largest window.
const STEP_LIMIT: usize = 1 << 20;

impl LlfScheduler {
    /// Runs the greedy simulation on unit-requirement `(id, window)` tasks
    /// for at most `step_limit` slots and returns the cyclic part of the
    /// trajectory.
    pub(crate) fn schedule_unit(
        windows: &[(TaskId, u32)],
        step_limit: usize,
    ) -> Result<Schedule, ScheduleError> {
        if windows.is_empty() {
            return Err(ScheduleError::PackingFailed);
        }
        let n = windows.len();
        // elapsed[i]: slots since task i last ran (starts at 0: the virtual
        // occurrence just before time zero, matching the dense pinwheel
        // requirement that the first window already be covered).
        let mut elapsed: Vec<u32> = vec![0; n];
        let mut emitted: Vec<Option<TaskId>> = Vec::new();
        let mut seen: HashMap<Vec<u32>, usize> = HashMap::new();
        seen.insert(elapsed.clone(), 0);

        for slot in 0..step_limit {
            let chosen = Self::pick(windows, &elapsed)
                .map_err(|()| ScheduleError::GreedyConflict { slot })?;
            emitted.push(Some(windows[chosen].0));
            for (i, e) in elapsed.iter_mut().enumerate() {
                if i == chosen {
                    *e = 0;
                } else {
                    *e += 1;
                }
            }
            if let Some(&start) = seen.get(&elapsed) {
                // States repeat: slots [start, slot] form the cycle.
                let cycle = emitted[start..=slot].to_vec();
                return Ok(Schedule::new(cycle));
            }
            seen.insert(elapsed.clone(), slot + 1);
        }
        Err(ScheduleError::CycleNotFound { steps: step_limit })
    }

    /// Picks the task to run given the elapsed-time vector, or `Err(())` when
    /// two tasks both have zero laxity (an unrecoverable conflict).
    fn pick(windows: &[(TaskId, u32)], elapsed: &[u32]) -> Result<usize, ()> {
        let mut urgent: Option<usize> = None;
        for (i, &(_, w)) in windows.iter().enumerate() {
            // laxity = (w - 1) - elapsed; zero means "must run now".
            if elapsed[i] + 1 >= w {
                if elapsed[i] + 1 > w {
                    // A window has already been violated (should be caught a
                    // slot earlier, but be defensive).
                    return Err(());
                }
                if urgent.is_some() {
                    return Err(());
                }
                urgent = Some(i);
            }
        }
        if let Some(i) = urgent {
            return Ok(i);
        }
        // No deadline pressure: run the proportionally most-behind task.
        // Compare elapsed_i / w_i as cross-products to stay in integers;
        // ties prefer the smaller window, then input order.
        let mut best = 0usize;
        for i in 1..windows.len() {
            let (eb, wb) = (u64::from(elapsed[best]), u64::from(windows[best].1));
            let (ei, wi) = (u64::from(elapsed[i]), u64::from(windows[i].1));
            let lhs = ei * wb;
            let rhs = eb * wi;
            if lhs > rhs || (lhs == rhs && wi < wb) {
                best = i;
            }
        }
        Ok(best)
    }
}

impl PinwheelScheduler for LlfScheduler {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        let unit = system.to_unit_system();
        let windows: Vec<(TaskId, u32)> = unit.tasks().iter().map(|t| (t.id, t.window)).collect();
        let schedule = Self::schedule_unit(&windows, STEP_LIMIT)?;
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
    fn schedules_paper_example_1() {
        let llf = LlfScheduler;
        let s1 = unit_sys(&[(1, 2), (2, 3)]);
        verify(&llf.schedule(&s1).unwrap(), &s1).unwrap();
        let s2 = TaskSystem::new(vec![Task::new(1, 2, 5), Task::unit(2, 3)]).unwrap();
        verify(&llf.schedule(&s2).unwrap(), &s2).unwrap();
    }

    #[test]
    fn handles_the_naive_llf_counterexample() {
        // {2, 5, 5}: naive least-laxity hogs the resource with the window-2
        // task and then collides; the proportional-progress rule finds the
        // optimal 1,2,1,3,… layout.
        let system = unit_sys(&[(1, 2), (2, 5), (3, 5)]);
        let s = LlfScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert_eq!(s.max_gap(1), Some(2));
    }

    #[test]
    fn schedules_dense_feasible_instances() {
        let llf = LlfScheduler;
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 2), (2, 4), (3, 8), (4, 8)], // harmonic, density 1.0
            vec![(1, 3), (2, 3), (3, 4)],         // density 11/12
            vec![(1, 2), (2, 5), (3, 5)],         // density 0.9
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            assert!(system.density().within(1.0));
            let s = llf
                .schedule(&system)
                .unwrap_or_else(|e| panic!("failed on {windows:?}: {e}"));
            verify(&s, &system).unwrap();
        }
    }

    #[test]
    fn detects_conflicts_instead_of_emitting_bad_schedules() {
        // {2, 3, n}: infeasible for every n; the greedy must fail, never
        // mis-schedule.
        let llf = LlfScheduler;
        for n in [6u32, 10, 100] {
            let system = unit_sys(&[(1, 2), (2, 3), (3, n)]);
            assert!(
                matches!(
                    llf.schedule(&system),
                    Err(ScheduleError::GreedyConflict { .. })
                        | Err(ScheduleError::CycleNotFound { .. })
                ),
                "n = {n}"
            );
        }
    }

    #[test]
    fn rejects_density_above_one() {
        let llf = LlfScheduler;
        let system = unit_sys(&[(1, 2), (2, 3), (3, 4)]);
        assert!(matches!(
            llf.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
    }

    #[test]
    fn step_limit_is_honoured() {
        let windows = [(1, 50), (2, 60), (3, 70)];
        // Three steps are not enough to close a cycle over three tasks.
        assert!(matches!(
            LlfScheduler::schedule_unit(&windows, 3),
            Err(ScheduleError::CycleNotFound { steps: 3 })
        ));
    }

    #[test]
    fn cycle_extraction_produces_small_periods() {
        let llf = LlfScheduler;
        let system = unit_sys(&[(1, 2), (2, 4), (3, 8), (4, 8)]);
        let s = llf.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert!(s.period() <= 64, "period {} unexpectedly large", s.period());
    }

    #[test]
    fn single_task_is_trivially_scheduled() {
        let llf = LlfScheduler;
        let system = unit_sys(&[(9, 7)]);
        let s = llf.schedule(&system).unwrap();
        assert_eq!(s.occurrences(9), s.period());
    }

    #[test]
    fn two_chain_specialized_instances_are_schedulable() {
        // The shape produced by double-integer reduction: windows drawn from
        // {10·2^j} ∪ {14·2^j}.
        let llf = LlfScheduler;
        let system = unit_sys(&[
            (1, 10),
            (2, 14),
            (3, 20),
            (4, 28),
            (5, 40),
            (6, 14),
            (7, 28),
            (8, 10),
            (9, 20),
        ]);
        assert!(system.density().within(1.0));
        let s = llf.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn multi_unit_tasks_are_relaxed_via_r3() {
        let llf = LlfScheduler;
        let system = TaskSystem::new(vec![Task::new(1, 2, 6), Task::new(2, 3, 10)]).unwrap();
        let s = llf.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }
}
