//! Cyclic schedules.
//!
//! A pinwheel schedule is an infinite assignment of slots to tasks.  All the
//! schedulers in this crate produce *cyclic* schedules: a finite vector of
//! slots that is repeated forever.  Slot `t` of the infinite schedule is slot
//! `t mod period` of the cycle.

use crate::TaskId;
use std::collections::BTreeMap;

/// A cyclic schedule: `slots[t]` is `Some(task)` when the resource is
/// allocated to `task` in slot `t`, or `None` when the slot is idle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    slots: Vec<Option<TaskId>>,
}

impl Schedule {
    /// Builds a schedule from an explicit slot vector.
    ///
    /// An empty vector denotes the schedule that never allocates the
    /// resource; it trivially satisfies no non-trivial pinwheel condition and
    /// is mostly useful in tests.
    pub fn new(slots: Vec<Option<TaskId>>) -> Self {
        Schedule { slots }
    }

    /// Builds a schedule where every slot is allocated (no idle slots).
    pub fn from_tasks(slots: Vec<TaskId>) -> Self {
        Schedule {
            slots: slots.into_iter().map(Some).collect(),
        }
    }

    /// The cycle length (period) of the schedule.
    pub fn period(&self) -> usize {
        self.slots.len()
    }

    /// The raw cyclic slot vector.
    pub fn slots(&self) -> &[Option<TaskId>] {
        &self.slots
    }

    /// The task allocated at (infinite-schedule) slot `t`.
    pub fn at(&self, t: usize) -> Option<TaskId> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[t % self.slots.len()]
    }

    /// Number of slots per period allocated to `task`.
    pub fn occurrences(&self, task: TaskId) -> usize {
        self.slots.iter().filter(|s| **s == Some(task)).count()
    }

    /// Number of idle slots per period.
    pub(crate) fn idle_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// The fraction of slots per period that are allocated to some task.
    pub fn utilization(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        1.0 - self.idle_slots() as f64 / self.slots.len() as f64
    }

    /// Occurrence counts per task over one period.
    pub fn occurrence_map(&self) -> BTreeMap<TaskId, usize> {
        let mut map = BTreeMap::new();
        for slot in self.slots.iter().flatten() {
            *map.entry(*slot).or_insert(0) += 1;
        }
        map
    }

    /// The positions (within one period) at which `task` is scheduled.
    pub(crate) fn positions(&self, task: TaskId) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (*s == Some(task)).then_some(i))
            .collect()
    }

    /// The maximum gap, in slots, between consecutive occurrences of `task`
    /// in the infinite (cyclically repeated) schedule, measured as the
    /// distance between successive occurrence slots.  Returns `None` if the
    /// task never appears.
    ///
    /// A task with maximum gap `g` satisfies the pinwheel condition
    /// `pc(task, 1, g)` and no tighter unit condition.
    pub fn max_gap(&self, task: TaskId) -> Option<usize> {
        let pos = self.positions(task);
        if pos.is_empty() {
            return None;
        }
        let period = self.period();
        let mut max = 0;
        for i in 0..pos.len() {
            let next = if i + 1 < pos.len() {
                pos[i + 1]
            } else {
                pos[0] + period
            };
            max = max.max(next - pos[i]);
        }
        Some(max)
    }

    /// Renders the schedule in the paper's notation, e.g. `1, 2, 1, ⋆, 2`
    /// where `⋆` is an idle slot.
    pub fn render(&self) -> String {
        self.slots
            .iter()
            .map(|s| match s {
                Some(id) => id.to_string(),
                None => "⋆".to_string(),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Relabels every slot through `f`, dropping slots for which `f` returns
    /// `None`.  Used by the broadcast-disk layer to fold the paper's
    /// `map(i′, i)` aliases back onto their original file.
    pub fn relabel(&self, f: impl Fn(TaskId) -> Option<TaskId>) -> Schedule {
        Schedule {
            slots: self.slots.iter().map(|s| s.and_then(&f)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        // 1, 2, 1, ⋆, 2, 1
        Schedule::new(vec![Some(1), Some(2), Some(1), None, Some(2), Some(1)])
    }

    #[test]
    fn period_and_indexing_wraps() {
        let s = sample();
        assert_eq!(s.period(), 6);
        assert_eq!(s.at(0), Some(1));
        assert_eq!(s.at(3), None);
        assert_eq!(s.at(6), Some(1));
        assert_eq!(s.at(6 * 10 + 4), Some(2));
    }

    #[test]
    fn occurrence_counts_and_utilization() {
        let s = sample();
        assert_eq!(s.occurrences(1), 3);
        assert_eq!(s.occurrences(2), 2);
        assert_eq!(s.occurrences(9), 0);
        assert_eq!(s.idle_slots(), 1);
        assert!((s.utilization() - 5.0 / 6.0).abs() < 1e-12);
        let map = s.occurrence_map();
        assert_eq!(map[&1], 3);
        assert_eq!(map[&2], 2);
    }

    #[test]
    fn positions_and_max_gap() {
        let s = sample();
        assert_eq!(s.positions(1), vec![0, 2, 5]);
        // Gaps for task 1: 2, 3, 1 (wrap from 5 to 0+6) → max 3.
        assert_eq!(s.max_gap(1), Some(3));
        // Gaps for task 2: 3, 3 (wrap) → max 3.
        assert_eq!(s.max_gap(2), Some(3));
        assert_eq!(s.max_gap(9), None);
    }

    #[test]
    fn max_gap_single_occurrence_is_period() {
        let s = Schedule::new(vec![Some(1), None, None, None]);
        assert_eq!(s.max_gap(1), Some(4));
    }

    #[test]
    fn render_uses_paper_notation() {
        let s = Schedule::new(vec![Some(1), Some(2), None]);
        assert_eq!(s.render(), "1, 2, ⋆");
    }

    #[test]
    fn relabel_merges_and_drops() {
        let s = Schedule::new(vec![Some(1), Some(2), Some(3), None]);
        // Merge task 2 into task 1, drop task 3.
        let r = s.relabel(|id| match id {
            1 | 2 => Some(1),
            _ => None,
        });
        assert_eq!(r.slots(), &[Some(1), Some(1), None, None]);
    }

    #[test]
    fn empty_schedule_is_inert() {
        let s = Schedule::new(vec![]);
        assert_eq!(s.period(), 0);
        assert_eq!(s.at(5), None);
        assert_eq!(s.utilization(), 0.0);
    }
}
