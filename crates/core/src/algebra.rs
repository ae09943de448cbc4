//! The pinwheel algebra: rules R0–R5 of the paper's Figure 8.
//!
//! Each rule states that the condition(s) on its left-hand side are implied
//! by the (hopefully more useful) condition(s) on its right-hand side.  Here
//! every rule is an executable transformation producing the right-hand-side
//! conditions; the transformation functions return `None` when a rule's side
//! conditions do not hold, so misuse is impossible rather than silently
//! unsound.
//!
//! The rules (with `a, b, x, y, n` non-negative integers):
//!
//! | rule | left-hand side | implied by right-hand side |
//! |------|----------------|-----------------------------|
//! | R0 | `pc(i, a−x, b+y)` | `pc(i, a, b)` |
//! | R1 | `pc(i, n·a, n·b)` | `pc(i, a, b)` |
//! | R2 | `pc(i, a−x, b−x)` | `pc(i, a, b)` |
//! | R3 | `pc(i, a, b)` | `pc(i, 1, ⌊b/a⌋)` |
//! | R4 | `pc(i, a, b) ∧ pc(i, a+x, b+y)` | `pc(i, a, b) ∧ pc(i′, x, b+y) ∧ map(i′, i)` |
//! | R5 | `pc(i, a, b) ∧ pc(i, n·a, n·b−x)` | `pc(i, a, b) ∧ pc(i′, x, n·b) ∧ map(i′, i)` |
//!
//! `map(i′, i)` means tasks `i′` and `i` are semantically indistinguishable:
//! the scheduler treats them as separate tasks but blocks of file `Fᵢ` are
//! broadcast whenever either is scheduled — the [`crate::NiceConjunct`]
//! mapping records exactly this.
//!
//! R0–R3 are public.  R4 and R5 split a conjunct into a nice one, so the
//! conversion strategy ([`crate::convert_candidates`]) is what applies them.

use crate::Pc;
use pinwheel::TaskId;

/// Rule R0: weaken a condition by lowering its requirement and/or widening
/// its window: `pc(i, a−x, b+y) ⇐ pc(i, a, b)`.
///
/// Returns the weakened left-hand-side condition (useful for checking what a
/// given condition already implies); `None` if `x ≥ a`.
pub fn r0_relax(p: &Pc, x: u32, y: u32) -> Option<Pc> {
    if x >= p.requirement {
        return None;
    }
    Some(Pc {
        task: p.task,
        requirement: p.requirement - x,
        window: p.window.checked_add(y)?,
    })
}

/// Rule R1: a condition replicated `n` times over an `n`-times-larger window:
/// `pc(i, n·a, n·b) ⇐ pc(i, a, b)`.
pub fn r1_scale(p: &Pc, n: u32) -> Option<Pc> {
    if n == 0 {
        return None;
    }
    Some(Pc {
        task: p.task,
        requirement: p.requirement.checked_mul(n)?,
        window: p.window.checked_mul(n)?,
    })
}

/// Rule R2: shrink both the requirement and the window by `x`:
/// `pc(i, a−x, b−x) ⇐ pc(i, a, b)`.
pub fn r2_shrink(p: &Pc, x: u32) -> Option<Pc> {
    if x >= p.requirement {
        return None;
    }
    Some(Pc {
        task: p.task,
        requirement: p.requirement - x,
        window: p.window - x,
    })
}

/// Rule R3: the unit-requirement condition that *implies* `p`:
/// `pc(i, a, b) ⇐ pc(i, 1, ⌊b/a⌋)`.
///
/// Returns `None` when `⌊b/a⌋ = 0` (cannot happen for valid conditions).
pub fn r3_unit_strengthening(p: &Pc) -> Option<Pc> {
    let window = p.window / p.requirement;
    if window == 0 {
        return None;
    }
    Some(Pc {
        task: p.task,
        requirement: 1,
        window,
    })
}

/// Rule R4: replace the pair `pc(i, a, b) ∧ pc(i, a+x, b+y)` (two conditions
/// on the same task) by the *nice* pair
/// `pc(i, a, b) ∧ pc(i′, x, b+y)` with `map(i′, i)`.
///
/// `first` must be `pc(i, a, b)`, `second` must be `pc(i, a+x, b+y)` with the
/// same task, a strictly larger requirement, and a window at least as large.
/// Returns the kept base condition and the new aliased condition.
pub(crate) fn r4_split(first: &Pc, second: &Pc, alias: TaskId) -> Option<(Pc, Pc)> {
    if first.task != second.task
        || second.requirement <= first.requirement
        || second.window < first.window
    {
        return None;
    }
    let x = second.requirement - first.requirement;
    Some((
        *first,
        Pc {
            task: alias,
            requirement: x,
            window: second.window,
        },
    ))
}

/// Rule R5: replace the pair `pc(i, a, b) ∧ pc(i, n·a, n·b−x)` by the nice
/// pair `pc(i, a, b) ∧ pc(i′, x, n·b)` with `map(i′, i)`.
///
/// `second.requirement` must be an exact multiple `n·a` of the base
/// requirement and `second.window` must not exceed `n·b` (the difference is
/// `x`; when `x = 0` the second condition is already implied by the base via
/// R1 and the function returns the base alone, encoded as `x = 0` ⇒ `None`
/// for the alias).
pub(crate) fn r5_split(base: &Pc, second: &Pc, alias: TaskId) -> Option<(Pc, Option<Pc>)> {
    if base.task != second.task || !second.requirement.is_multiple_of(base.requirement) {
        return None;
    }
    let n = second.requirement / base.requirement;
    if n == 0 {
        return None;
    }
    let nb = base.window.checked_mul(n)?;
    if second.window > nb {
        // n·b < the second window: the base alone already implies it (R1 then
        // R0); callers should drop the second condition instead.
        return None;
    }
    let x = nb - second.window;
    if x == 0 {
        return Some((*base, None));
    }
    Some((
        *base,
        Some(Pc {
            task: alias,
            requirement: x,
            window: nb,
        }),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinwheel::{verify, AutoScheduler, PinwheelScheduler, Schedule, Task, TaskSystem};

    fn pc(task: TaskId, a: u32, b: u32) -> Pc {
        Pc::new(task, a, b).unwrap()
    }

    /// Builds a schedule satisfying `rhs` (as independent tasks), folds the
    /// aliases onto their mapped task, and checks that `lhs` holds — an
    /// end-to-end semantic check of a rule instance.
    fn check_rule_semantically(rhs: &[Pc], aliases: &[(TaskId, TaskId)], lhs: &[Pc]) {
        let system = TaskSystem::new(rhs.iter().copied().map(Pc::to_task).collect()).unwrap();
        let schedule = AutoScheduler
            .schedule(&system)
            .expect("rule-check instance must be schedulable");
        // Fold aliases: slots of i′ count as slots of i.
        let folded: Schedule = schedule.relabel(|id| {
            Some(
                aliases
                    .iter()
                    .find(|&&(from, _)| from == id)
                    .map(|&(_, to)| to)
                    .unwrap_or(id),
            )
        });
        for p in lhs {
            let lhs_system =
                TaskSystem::new(vec![Task::new(p.task, p.requirement, p.window)]).unwrap();
            verify(&folded, &lhs_system)
                .unwrap_or_else(|e| panic!("rule conclusion {p} violated: {e}"));
        }
    }

    #[test]
    fn r0_weakens_requirement_and_window() {
        let p = pc(1, 3, 5);
        assert_eq!(r0_relax(&p, 1, 2), Some(pc(1, 2, 7)));
        assert_eq!(r0_relax(&p, 0, 0), Some(p));
        assert_eq!(r0_relax(&p, 3, 0), None);
    }

    #[test]
    fn r1_scales_both_parameters() {
        let p = pc(1, 2, 5);
        assert_eq!(r1_scale(&p, 3), Some(pc(1, 6, 15)));
        assert_eq!(r1_scale(&p, 1), Some(p));
        assert_eq!(r1_scale(&p, 0), None);
    }

    #[test]
    fn r2_shrinks_both_parameters() {
        let p = pc(1, 4, 6);
        assert_eq!(r2_shrink(&p, 1), Some(pc(1, 3, 5)));
        assert_eq!(r2_shrink(&p, 3), Some(pc(1, 1, 3)));
        assert_eq!(r2_shrink(&p, 4), None);
    }

    #[test]
    fn r3_produces_the_unit_strengthening() {
        assert_eq!(r3_unit_strengthening(&pc(1, 4, 9)), Some(pc(1, 1, 2)));
        assert_eq!(r3_unit_strengthening(&pc(1, 1, 7)), Some(pc(1, 1, 7)));
    }

    #[test]
    fn r4_splits_into_a_nice_pair() {
        // Example from TR2: pc(i,6,105) ∧ pc(i,7,110) ⇐ pc(i,6,105) ∧ pc(i',1,110).
        let first = pc(1, 6, 105);
        let second = pc(1, 7, 110);
        let (base, aux) = r4_split(&first, &second, 99).unwrap();
        assert_eq!(base, first);
        assert_eq!(aux, pc(99, 1, 110));
        // Side conditions.
        assert!(r4_split(&pc(1, 6, 105), &pc(2, 7, 110), 99).is_none());
        assert!(r4_split(&pc(1, 6, 105), &pc(1, 6, 110), 99).is_none());
        assert!(r4_split(&pc(1, 6, 105), &pc(1, 7, 100), 99).is_none());
    }

    #[test]
    fn r5_splits_with_scaled_base() {
        // Example 4: pc(i,1,2) ∧ pc(i,5,9) ⇐ pc(i,1,2) ∧ pc(i′,1,10).
        let base = pc(1, 1, 2);
        let second = pc(1, 5, 9);
        let (kept, aux) = r5_split(&base, &second, 42).unwrap();
        assert_eq!(kept, base);
        assert_eq!(aux, Some(pc(42, 1, 10)));
        // Exact multiple with no slack: no auxiliary task needed.
        let (_, aux) = r5_split(&pc(1, 1, 2), &pc(1, 4, 8), 42).unwrap();
        assert_eq!(aux, None);
        // Non-multiple requirement or too-large window: rule does not apply.
        assert!(r5_split(&pc(1, 2, 5), &pc(1, 5, 9), 42).is_none());
        assert!(r5_split(&pc(1, 1, 2), &pc(1, 4, 9), 42).is_none());
    }

    #[test]
    fn r0_r1_r2_conclusions_hold_semantically() {
        // Any schedule satisfying pc(1,2,4) also satisfies its R0/R1/R2
        // weakenings.
        let base = pc(1, 2, 4);
        let conclusions = vec![
            r0_relax(&base, 1, 3).unwrap(),
            r1_scale(&base, 3).unwrap(),
            r2_shrink(&base, 1).unwrap(),
        ];
        check_rule_semantically(&[base], &[], &conclusions);
    }

    #[test]
    fn r3_strengthening_implies_the_original() {
        let original = pc(1, 3, 10);
        let unit = r3_unit_strengthening(&original).unwrap();
        check_rule_semantically(&[unit], &[], &[original]);
    }

    #[test]
    fn r4_conclusion_holds_semantically() {
        // RHS: pc(1,1,4) ∧ pc(9,1,6) with map(9,1); LHS: pc(1,2,6).
        let base = pc(1, 1, 4);
        let second = pc(1, 2, 6);
        let (kept, aux) = r4_split(&base, &second, 9).unwrap();
        check_rule_semantically(&[kept, aux], &[(9, 1)], &[base, second]);
    }

    #[test]
    fn r5_conclusion_holds_semantically() {
        // Example 4's instance: RHS pc(1,1,2) ∧ pc(9,1,10), LHS pc(1,5,9).
        let base = pc(1, 1, 2);
        let second = pc(1, 5, 9);
        let (kept, aux) = r5_split(&base, &second, 9).unwrap();
        check_rule_semantically(&[kept, aux.unwrap()], &[(9, 1)], &[base, second]);
    }
}
