//! The pinwheel task model: tasks `(i, a, b)`, task systems and densities.

use std::collections::HashSet;

/// Identifier of a pinwheel task.
///
/// Task ids are opaque to the scheduling machinery; the broadcast-disk layer
/// uses them to refer back to broadcast files (and to the paper's
/// `map(i′, i)` aliases).
pub type TaskId = u32;

/// A single pinwheel task `(id, a, b)`: at least `a` of every `b` consecutive
/// slots must be allocated to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// The task identifier.
    pub id: TaskId,
    /// The computation requirement `a` (slots needed per window).
    pub requirement: u32,
    /// The window size `b`.
    pub window: u32,
}

impl Task {
    /// Creates a task `(id, a, b)`.
    pub fn new(id: TaskId, requirement: u32, window: u32) -> Self {
        Task {
            id,
            requirement,
            window,
        }
    }

    /// Creates a unit-requirement task `(id, 1, b)`.
    pub fn unit(id: TaskId, window: u32) -> Self {
        Task::new(id, 1, window)
    }

    /// The density `a / b` of this task.
    pub fn density(&self) -> f64 {
        f64::from(self.requirement) / f64::from(self.window)
    }

    /// Whether the task is structurally valid (`a ≥ 1`, `b ≥ 1`, `a ≤ b`).
    pub(crate) fn is_valid(&self) -> bool {
        self.requirement >= 1 && self.window >= 1 && self.requirement <= self.window
    }

    /// Rule R3 of the pinwheel algebra: `pc(i, a, b) ⇐ pc(i, 1, ⌊b/a⌋)`.
    ///
    /// Returns the unit-requirement task whose satisfaction implies this one.
    pub(crate) fn to_unit(self) -> Task {
        if self.requirement <= 1 {
            return self;
        }
        Task::unit(self.id, self.window / self.requirement)
    }
}

impl core::fmt::Display for Task {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {}, {})", self.id, self.requirement, self.window)
    }
}

/// Errors raised while building a task system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSystemError {
    /// A task has `a = 0`, `b = 0` or `a > b`.
    InvalidTask(Task),
    /// Two tasks share the same id; the scheduling machinery requires *nice*
    /// systems (one condition per task).
    DuplicateTaskId(TaskId),
    /// The system contains no tasks.
    Empty,
}

impl core::fmt::Display for TaskSystemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TaskSystemError::InvalidTask(t) => write!(f, "invalid task {t}"),
            TaskSystemError::DuplicateTaskId(id) => write!(f, "duplicate task id {id}"),
            TaskSystemError::Empty => write!(f, "task system is empty"),
        }
    }
}

impl std::error::Error for TaskSystemError {}

/// The density of a task system (a plain wrapper so intent is visible in
/// signatures).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Density(pub f64);

impl Density {
    /// The numeric density value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// `true` if the density does not exceed `bound` (within a small epsilon
    /// to absorb floating-point accumulation).
    pub fn within(self, bound: f64) -> bool {
        self.0 <= bound + 1e-12
    }
}

impl core::fmt::Display for Density {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// A pinwheel task system: a set of tasks with distinct ids sharing a single
/// slot-granular resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSystem {
    tasks: Vec<Task>,
}

impl TaskSystem {
    /// Builds a task system, validating every task and id uniqueness.
    pub fn new(tasks: Vec<Task>) -> Result<Self, TaskSystemError> {
        if tasks.is_empty() {
            return Err(TaskSystemError::Empty);
        }
        let mut seen = HashSet::with_capacity(tasks.len());
        for t in &tasks {
            if !t.is_valid() {
                return Err(TaskSystemError::InvalidTask(*t));
            }
            if !seen.insert(t.id) {
                return Err(TaskSystemError::DuplicateTaskId(t.id));
            }
        }
        Ok(TaskSystem { tasks })
    }

    /// Builds a system of unit-requirement tasks from `(id, window)` pairs.
    #[cfg(test)]
    pub(crate) fn from_windows(windows: &[(TaskId, u32)]) -> Result<Self, TaskSystemError> {
        TaskSystem::new(windows.iter().map(|&(id, w)| Task::unit(id, w)).collect())
    }

    /// The tasks, in construction order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the system has no tasks (never constructible through `new`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks a task up by id.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// The system density: the sum of all task densities.  A density above
    /// one is a *necessary* (though not sufficient) certificate of
    /// infeasibility.
    pub fn density(&self) -> Density {
        Density(self.tasks.iter().map(Task::density).sum())
    }

    /// `true` if every task has requirement 1.
    pub(crate) fn is_unit(&self) -> bool {
        self.tasks.iter().all(|t| t.requirement == 1)
    }

    /// The rule-R3 relaxation: every task `(a, b)` is replaced by
    /// `(1, ⌊b/a⌋)`.  A schedule for the result is a schedule for `self`.
    pub(crate) fn to_unit_system(&self) -> TaskSystem {
        TaskSystem {
            tasks: self.tasks.iter().copied().map(Task::to_unit).collect(),
        }
    }

    /// The smallest window in the system.
    pub(crate) fn min_window(&self) -> u32 {
        self.tasks.iter().map(|t| t.window).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_density_and_validity() {
        let t = Task::new(1, 2, 5);
        assert!((t.density() - 0.4).abs() < 1e-12);
        assert!(t.is_valid());
        assert!(!Task::new(1, 0, 5).is_valid());
        assert!(!Task::new(1, 1, 0).is_valid());
        assert!(!Task::new(1, 6, 5).is_valid());
    }

    #[test]
    fn rule_r3_unit_conversion() {
        assert_eq!(Task::new(1, 2, 5).to_unit(), Task::unit(1, 2));
        assert_eq!(Task::new(1, 3, 10).to_unit(), Task::unit(1, 3));
        assert_eq!(Task::new(1, 1, 7).to_unit(), Task::unit(1, 7));
    }

    #[test]
    fn system_construction_validates() {
        assert_eq!(TaskSystem::new(vec![]).unwrap_err(), TaskSystemError::Empty);
        assert_eq!(
            TaskSystem::new(vec![Task::new(1, 0, 3)]).unwrap_err(),
            TaskSystemError::InvalidTask(Task::new(1, 0, 3))
        );
        assert_eq!(
            TaskSystem::new(vec![Task::unit(1, 2), Task::unit(1, 3)]).unwrap_err(),
            TaskSystemError::DuplicateTaskId(1)
        );
    }

    #[test]
    fn example_1_densities() {
        // Paper Example 1: {(1,1,2),(2,1,3)} has density 5/6;
        // {(1,2,5),(2,1,3)} has density 2/5 + 1/3 = 11/15.
        let s1 = TaskSystem::new(vec![Task::unit(1, 2), Task::unit(2, 3)]).unwrap();
        assert!((s1.density().value() - 5.0 / 6.0).abs() < 1e-12);
        let s2 = TaskSystem::new(vec![Task::new(1, 2, 5), Task::new(2, 1, 3)]).unwrap();
        assert!((s2.density().value() - 11.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn density_above_one_is_detectable() {
        let s =
            TaskSystem::new(vec![Task::unit(1, 2), Task::unit(2, 2), Task::unit(3, 2)]).unwrap();
        assert!(!s.density().within(1.0));
        assert!(s.density().within(1.5));
    }

    #[test]
    fn window_extremes_and_lookup() {
        let s = TaskSystem::from_windows(&[(1, 4), (2, 9), (3, 6)]).unwrap();
        assert_eq!(s.min_window(), 4);
        assert_eq!(s.task(2), Some(&Task::unit(2, 9)));
        assert_eq!(s.task(7), None);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.is_unit());
    }

    #[test]
    fn unit_system_conversion_preserves_ids() {
        let s = TaskSystem::new(vec![Task::new(5, 2, 9), Task::new(9, 3, 7)]).unwrap();
        let u = s.to_unit_system();
        assert_eq!(u.task(5), Some(&Task::unit(5, 4)));
        assert_eq!(u.task(9), Some(&Task::unit(9, 2)));
        assert!(u.is_unit());
        assert!(!s.is_unit());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Task::new(3, 1, 9).to_string(), "(3, 1, 9)");
        let d = Density(0.70001);
        assert_eq!(d.to_string(), "0.7000");
    }
}
