//! Exact schedulability for small pinwheel instances.
//!
//! Pinwheel schedulability of unit-requirement tasks is decided by a search
//! over the finite state space of "slots elapsed since each task last ran"
//! vectors.  The instance is schedulable iff, from the initial state, there
//! is an infinite path that never violates a window — equivalently, iff the
//! initial state survives the iterated removal of dead-end states from the
//! reachable state graph (a greatest-fixed-point computation).
//!
//! The state space has size `Π bᵢ`, so this only scales to small instances —
//! exactly the regime of the paper's worked examples (Example 1's
//! `{(1,1,2),(2,1,3),(3,1,n)}` infeasibility, the 5/6-density three-task
//! counterexample, …).  The solver doubles as ground truth for validating
//! the heuristic schedulers in tests and in the scheduler-ablation
//! experiment.

use crate::{Schedule, TaskId, TaskSystem};
use std::collections::HashMap;

/// The outcome of an exact schedulability decision.
#[derive(Debug, Clone)]
pub enum ExactOutcome {
    /// The instance is schedulable; a witness cyclic schedule is attached.
    Schedulable(Schedule),
    /// The instance is provably infeasible.
    Infeasible,
    /// The state limit was exceeded before the search completed.
    Undecided {
        /// Number of states explored before giving up.
        states_explored: usize,
    },
}

impl ExactOutcome {
    /// `true` for [`ExactOutcome::Schedulable`].
    pub fn is_schedulable(&self) -> bool {
        matches!(self, ExactOutcome::Schedulable(_))
    }

    /// `true` for [`ExactOutcome::Infeasible`].
    pub fn is_infeasible(&self) -> bool {
        matches!(self, ExactOutcome::Infeasible)
    }
}

/// Exact state-space solver for unit-requirement pinwheel systems.
///
/// Multi-unit tasks are first relaxed through rule R3 (`(a,b) → (1, ⌊b/a⌋)`);
/// for such systems `Schedulable` is still a sound certificate (the witness
/// is verified), but `Infeasible` only refers to the relaxed system.
#[derive(Debug, Clone)]
pub struct ExactSolver {
    /// Maximum number of distinct states explored before returning
    /// [`ExactOutcome::Undecided`].
    pub state_limit: usize,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            state_limit: 500_000,
        }
    }
}

impl ExactSolver {
    /// Decides schedulability of `system`.
    pub fn decide(&self, system: &TaskSystem) -> ExactOutcome {
        let unit = system.to_unit_system();
        let windows: Vec<(TaskId, u32)> = unit.tasks().iter().map(|t| (t.id, t.window)).collect();
        self.decide_windows(&windows)
    }

    /// Decides schedulability of a unit-requirement instance given as
    /// `(id, window)` pairs.
    pub(crate) fn decide_windows(&self, windows: &[(TaskId, u32)]) -> ExactOutcome {
        let n = windows.len();
        if n == 0 {
            return ExactOutcome::Schedulable(Schedule::new(vec![None]));
        }
        // Quick necessary condition.
        let density: f64 = windows.iter().map(|&(_, w)| 1.0 / f64::from(w)).sum();
        if density > 1.0 + 1e-12 {
            return ExactOutcome::Infeasible;
        }

        // Forward exploration of the reachable state graph.  A state is the
        // vector of elapsed slots; scheduling task j is allowed iff every
        // *other* task still has a slot of slack left.
        let initial = vec![0u32; n];
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut states: Vec<Vec<u32>> = Vec::new();
        // successors[s] = list of (chosen task index, next state index)
        let mut successors: Vec<Vec<(usize, usize)>> = Vec::new();

        index.insert(initial.clone(), 0);
        states.push(initial);
        successors.push(Vec::new());
        let mut frontier = vec![0usize];

        while let Some(s) = frontier.pop() {
            let state = states[s].clone();
            let mut succ = Vec::new();
            for j in 0..n {
                // Scheduling j: every other task's elapsed grows by one and
                // must stay strictly below its window.
                let feasible = (0..n).all(|i| i == j || state[i] + 1 < windows[i].1);
                if !feasible {
                    continue;
                }
                let mut next = state.clone();
                for (i, v) in next.iter_mut().enumerate() {
                    *v = if i == j { 0 } else { *v + 1 };
                }
                let next_index = match index.get(&next) {
                    Some(&idx) => idx,
                    None => {
                        if states.len() >= self.state_limit {
                            return ExactOutcome::Undecided {
                                states_explored: states.len(),
                            };
                        }
                        let idx = states.len();
                        index.insert(next.clone(), idx);
                        states.push(next);
                        successors.push(Vec::new());
                        frontier.push(idx);
                        idx
                    }
                };
                succ.push((j, next_index));
            }
            successors[s] = succ;
        }

        // Greatest fixed point: repeatedly delete states with no surviving
        // successor.  Survivors are exactly the states from which an infinite
        // violation-free schedule exists.
        let total = states.len();
        let mut alive = vec![true; total];
        let mut changed = true;
        while changed {
            changed = false;
            for s in 0..total {
                if alive[s] && !successors[s].iter().any(|&(_, t)| alive[t]) {
                    alive[s] = false;
                    changed = true;
                }
            }
        }
        if !alive[0] {
            return ExactOutcome::Infeasible;
        }

        // Extract a witness: walk deterministically through surviving
        // successors until a state repeats; the segment between the two
        // visits is a valid cyclic schedule.
        let mut visited: HashMap<usize, usize> = HashMap::new();
        let mut emitted: Vec<Option<TaskId>> = Vec::new();
        let mut current = 0usize;
        loop {
            if let Some(&start) = visited.get(&current) {
                let cycle = emitted[start..].to_vec();
                return ExactOutcome::Schedulable(Schedule::new(cycle));
            }
            visited.insert(current, emitted.len());
            let &(task_index, next) = successors[current]
                .iter()
                .find(|&&(_, t)| alive[t])
                .expect("alive states have an alive successor");
            emitted.push(Some(windows[task_index].0));
            current = next;
        }
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
    fn example_1_first_two_instances_are_schedulable() {
        let solver = ExactSolver::default();
        let s1 = unit_sys(&[(1, 2), (2, 3)]);
        match solver.decide(&s1) {
            ExactOutcome::Schedulable(s) => verify(&s, &s1).unwrap(),
            other => panic!("expected schedulable, got {other:?}"),
        }
        let s2 = TaskSystem::new(vec![Task::new(1, 2, 5), Task::unit(2, 3)]).unwrap();
        match solver.decide(&s2) {
            ExactOutcome::Schedulable(s) => verify(&s, &s2).unwrap(),
            other => panic!("expected schedulable, got {other:?}"),
        }
    }

    #[test]
    fn example_1_third_instance_is_infeasible_for_all_n() {
        // {(1,1,2),(2,1,3),(3,1,n)}: the paper notes this cannot be scheduled
        // for any finite n.
        let solver = ExactSolver::default();
        for n in [3u32, 4, 5, 8, 13, 21, 40] {
            let system = unit_sys(&[(1, 2), (2, 3), (3, n)]);
            assert!(
                solver.decide(&system).is_infeasible(),
                "n = {n} should be infeasible"
            );
        }
    }

    #[test]
    fn density_five_sixths_three_task_boundary() {
        // {2, 3, n} has density 5/6 + 1/n and is infeasible; by contrast
        // {2, 4, 4} (density 1) is schedulable. This is the boundary the
        // Lin & Lin three-task result is about.
        let solver = ExactSolver::default();
        assert!(solver
            .decide(&unit_sys(&[(1, 2), (2, 4), (3, 4)]))
            .is_schedulable());
        assert!(solver
            .decide(&unit_sys(&[(1, 2), (2, 3), (3, 6)]))
            .is_infeasible());
    }

    #[test]
    fn density_above_one_is_immediately_infeasible() {
        let solver = ExactSolver::default();
        assert!(solver
            .decide(&unit_sys(&[(1, 2), (2, 2), (3, 2)]))
            .is_infeasible());
    }

    #[test]
    fn witness_schedules_are_always_valid() {
        let solver = ExactSolver::default();
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 2), (2, 5), (3, 5)],
            vec![(1, 3), (2, 3), (3, 4)],
            vec![(1, 2), (2, 4), (3, 8), (4, 8)],
            vec![(1, 7), (2, 7), (3, 7)],
            vec![(1, 4), (2, 4), (3, 4), (4, 4)],
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            match solver.decide(&system) {
                ExactOutcome::Schedulable(s) => verify(&s, &system).unwrap(),
                other => panic!("{windows:?}: expected schedulable, got {other:?}"),
            }
        }
    }

    #[test]
    fn state_limit_produces_undecided() {
        let solver = ExactSolver { state_limit: 10 };
        let system = unit_sys(&[(1, 50), (2, 60), (3, 70), (4, 80)]);
        match solver.decide(&system) {
            ExactOutcome::Undecided { states_explored } => assert!(states_explored <= 10),
            other => panic!("expected undecided, got {other:?}"),
        }
    }

    #[test]
    fn empty_window_list_is_trivially_schedulable() {
        let solver = ExactSolver::default();
        assert!(solver.decide_windows(&[]).is_schedulable());
    }

    #[test]
    fn single_task_window_one() {
        let solver = ExactSolver::default();
        let system = unit_sys(&[(1, 1)]);
        match solver.decide(&system) {
            ExactOutcome::Schedulable(s) => {
                verify(&s, &system).unwrap();
                assert_eq!(s.occurrences(1), s.period());
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
        // Two tasks that both need every slot: infeasible.
        assert!(solver.decide(&unit_sys(&[(1, 1), (2, 2)])).is_infeasible());
    }

    #[test]
    fn agrees_with_heuristics_on_schedulable_instances() {
        use crate::{PinwheelScheduler, SaScheduler};
        let solver = ExactSolver::default();
        // Anything Sa schedules must be exactly schedulable too.
        let instances: Vec<Vec<(u32, u32)>> = vec![
            vec![(1, 4), (2, 6), (3, 9)],
            vec![(1, 5), (2, 7), (3, 11), (4, 13)],
        ];
        for windows in instances {
            let system = unit_sys(&windows);
            if SaScheduler.schedule(&system).is_ok() {
                assert!(solver.decide(&system).is_schedulable(), "{windows:?}");
            }
        }
    }
}
