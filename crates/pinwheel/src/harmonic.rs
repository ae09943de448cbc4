//! Optimal scheduling of harmonic (divisibility-chain) instances.
//!
//! If the distinct windows of a unit-requirement instance form a
//! *divisibility chain* — every window divides every larger window — then the
//! instance is schedulable **iff** its density is at most one, and the
//! schedule can be built greedily by "column packing":
//!
//! * time is divided into frames of `g` slots, where `g` is the smallest
//!   window; slot positions modulo `g` are the *columns*;
//! * a task with window `w = g·k` needs one slot every `k` frames in some
//!   fixed column; it is assigned a `(column, offset mod k)` pair;
//! * free capacity is tracked as `(column, offset, modulus)` residue classes
//!   and split on demand (a buddy-allocator over residue classes).
//!
//! Because all multipliers `k` divide one another, a residue class of any
//! smaller modulus can always be subdivided exactly into classes of the
//! current modulus, so first-fit placement in non-decreasing window order
//! succeeds whenever the density does not exceed one.
//!
//! The resulting cyclic schedule has period `max window`, and every task's
//! occurrences are spaced *exactly* its (specialized) window apart — the
//! "uniformly spread" layout the paper's Section 2.3 asks broadcast programs
//! to have.

use crate::TaskId;
use crate::{PinwheelScheduler, Schedule, ScheduleError, TaskSystem};

/// Scheduler for harmonic (divisibility-chain) unit-requirement instances.
///
/// For non-chain instances it returns [`ScheduleError::NotHarmonic`]; use one
/// of the specialization-based schedulers instead.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HarmonicScheduler;

/// A free residue class within one column: frames `≡ offset (mod modulus)`.
#[derive(Debug, Clone, Copy)]
struct FreeClass {
    column: u32,
    offset: u32,
    modulus: u32,
}

/// A placed task: occupies `column` in frames `≡ offset (mod multiplier)`.
#[derive(Debug, Clone, Copy)]
struct Placement {
    task: TaskId,
    column: u32,
    offset: u32,
    multiplier: u32,
}

/// Checks that the given windows form a divisibility chain; on failure,
/// returns the first offending pair.
pub(crate) fn check_chain(windows: &[u32]) -> Result<(), (u32, u32)> {
    let mut distinct: Vec<u32> = windows.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    for pair in distinct.windows(2) {
        if pair[1] % pair[0] != 0 {
            return Err((pair[0], pair[1]));
        }
    }
    Ok(())
}

/// Schedules unit tasks whose windows form a divisibility chain.
///
/// This is exposed (crate-internal) so the specialization schedulers can call
/// it directly on already-specialized windows.
pub(crate) fn schedule_chain(windows: &[(TaskId, u32)]) -> Result<Schedule, ScheduleError> {
    if windows.is_empty() {
        return Err(ScheduleError::PackingFailed);
    }
    let ws: Vec<u32> = windows.iter().map(|&(_, w)| w).collect();
    if let Err(offending) = check_chain(&ws) {
        return Err(ScheduleError::NotHarmonic { offending });
    }
    let density: f64 = ws.iter().map(|&w| 1.0 / f64::from(w)).sum();
    if density > 1.0 + 1e-12 {
        return Err(ScheduleError::SpecializationFailed {
            best_density: density,
        });
    }

    let base = *ws.iter().min().expect("non-empty");
    let max_window = *ws.iter().max().expect("non-empty");
    let max_multiplier = max_window / base;

    // Sort tasks by window (stable: preserves input order among equals).
    let mut sorted: Vec<(TaskId, u32)> = windows.to_vec();
    sorted.sort_by_key(|&(_, w)| w);

    // Free residue classes, one per column initially (modulus 1 = every frame).
    let mut free: Vec<FreeClass> = (0..base)
        .map(|column| FreeClass {
            column,
            offset: 0,
            modulus: 1,
        })
        .collect();
    let mut placements: Vec<Placement> = Vec::with_capacity(sorted.len());

    for (task, window) in sorted {
        let multiplier = window / base;
        // First-fit: any free class whose modulus divides this multiplier.
        let slot = free
            .iter()
            .position(|f| multiplier.is_multiple_of(f.modulus))
            .ok_or(ScheduleError::PackingFailed)?;
        let class = free.swap_remove(slot);
        // The task takes frames ≡ class.offset (mod multiplier); the rest of
        // the class is returned to the free list as classes of the new,
        // larger modulus.
        placements.push(Placement {
            task,
            column: class.column,
            offset: class.offset,
            multiplier,
        });
        let mut residue = class.offset + class.modulus;
        while residue < class.offset + multiplier {
            free.push(FreeClass {
                column: class.column,
                offset: residue % multiplier,
                modulus: multiplier,
            });
            residue += class.modulus;
        }
    }

    // Materialise the cyclic schedule: period = base · max_multiplier.
    let period = (base as usize) * (max_multiplier as usize);
    let mut slots: Vec<Option<TaskId>> = vec![None; period];
    for p in &placements {
        let mut frame = p.offset;
        while frame < max_multiplier {
            let index = (frame as usize) * (base as usize) + p.column as usize;
            debug_assert!(slots[index].is_none(), "column packing produced a clash");
            slots[index] = Some(p.task);
            frame += p.multiplier;
        }
    }
    Ok(Schedule::new(slots))
}

impl PinwheelScheduler for HarmonicScheduler {
    fn name(&self) -> &'static str {
        "harmonic"
    }

    fn schedule(&self, system: &TaskSystem) -> Result<Schedule, ScheduleError> {
        let density = system.density();
        if !density.within(1.0) {
            return Err(ScheduleError::DensityExceedsOne(density));
        }
        // Rule R3: relax multi-unit tasks to unit tasks first.
        let unit = system.to_unit_system();
        let windows: Vec<(TaskId, u32)> = unit.tasks().iter().map(|t| (t.id, t.window)).collect();
        let schedule = schedule_chain(&windows)?;
        crate::verify(&schedule, system)?;
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify, Task};

    fn unit_sys(windows: &[(u32, u32)]) -> TaskSystem {
        TaskSystem::from_windows(windows).unwrap()
    }

    #[test]
    fn chain_check() {
        assert!(check_chain(&[2, 4, 8, 8, 16]).is_ok());
        assert!(check_chain(&[5, 10, 40]).is_ok());
        assert!(check_chain(&[3]).is_ok());
        assert_eq!(check_chain(&[2, 3]), Err((2, 3)));
        assert_eq!(check_chain(&[4, 6, 12]), Err((4, 6)));
    }

    #[test]
    fn schedules_full_density_power_of_two_chain() {
        // 2, 4, 8, 8: density = 1/2 + 1/4 + 1/8 + 1/8 = 1.
        let system = unit_sys(&[(1, 2), (2, 4), (3, 8), (4, 8)]);
        let s = HarmonicScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert_eq!(s.idle_slots(), 0);
        assert_eq!(s.period(), 8);
    }

    #[test]
    fn schedules_non_power_of_two_chain() {
        // Base 3: windows 3, 6, 12, 12 → density 1/3+1/6+1/12+1/12 = 2/3.
        let system = unit_sys(&[(1, 3), (2, 6), (3, 12), (4, 12)]);
        let s = HarmonicScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert_eq!(s.period(), 12);
    }

    #[test]
    fn occurrences_are_exactly_window_spaced() {
        let system = unit_sys(&[(1, 4), (2, 8), (3, 16), (4, 16)]);
        let s = HarmonicScheduler.schedule(&system).unwrap();
        for t in system.tasks() {
            assert_eq!(s.max_gap(t.id), Some(t.window as usize), "task {}", t.id);
        }
    }

    #[test]
    fn rejects_non_chain_instances() {
        let system = unit_sys(&[(1, 4), (2, 6)]);
        assert!(matches!(
            HarmonicScheduler.schedule(&system),
            Err(ScheduleError::NotHarmonic { offending: (4, 6) })
        ));
    }

    #[test]
    fn rejects_density_above_one() {
        let system = unit_sys(&[(1, 2), (2, 2), (3, 4)]);
        assert!(matches!(
            HarmonicScheduler.schedule(&system),
            Err(ScheduleError::DensityExceedsOne(_))
        ));
        // Same through the internal chain path.
        assert!(matches!(
            schedule_chain(&[(1, 2), (2, 2), (3, 4)]),
            Err(ScheduleError::SpecializationFailed { .. })
        ));
    }

    #[test]
    fn many_tasks_fill_exactly_to_density_one() {
        // 4 tasks at window 8 plus 2 at window 4 plus 1 at window 2:
        // 4/8 + 2/4 = 1... that's already 1; drop one: use windows
        // 2, 4, 8, 8, 8, 8 → 1/2 + 1/4 + 4/8 = 1.25 > 1. Use 16 tasks of 16.
        let windows: Vec<(u32, u32)> = (0..16).map(|i| (i + 1, 16)).collect();
        let system = unit_sys(&windows);
        let s = HarmonicScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert_eq!(s.idle_slots(), 0);
    }

    #[test]
    fn multi_unit_tasks_are_relaxed_via_r3() {
        // (2, 8) relaxes to (1, 4); chain {4, 8}.
        let system = TaskSystem::new(vec![Task::new(1, 2, 8), Task::unit(2, 8)]).unwrap();
        let s = HarmonicScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
    }

    #[test]
    fn single_task_schedule() {
        let system = unit_sys(&[(7, 5)]);
        let s = HarmonicScheduler.schedule(&system).unwrap();
        verify(&s, &system).unwrap();
        assert_eq!(s.period(), 5);
        assert_eq!(s.occurrences(7), 1);
    }

    #[test]
    fn chain_scheduler_is_deterministic() {
        let windows = [(1, 4), (2, 8), (3, 8), (4, 16)];
        let a = schedule_chain(&windows).unwrap();
        let b = schedule_chain(&windows).unwrap();
        assert_eq!(a, b);
    }
}
