//! Window specialization.
//!
//! The classic constructive pinwheel schedulers do not schedule arbitrary
//! windows directly.  They first *specialize* every window down to a value
//! drawn from a structured set — powers of two (Holte et al.'s `Sa`),
//! a single geometric chain `{x·2^j}` (single-integer reduction), or the
//! union of two chains `{x·2^j} ∪ {y·2^j}` (Chan & Chin's double-integer
//! reduction) — and then schedule the specialized instance.  Shrinking a
//! window is always safe (rule R0 of the paper's pinwheel algebra), so a
//! schedule for the specialized instance is a schedule for the original;
//! the price is an inflated density.

use crate::{Task, TaskId, TaskSystem};

/// The largest power of two that does not exceed `w` (`w ≥ 1`).
pub(crate) fn specialize_pow2(w: u32) -> u32 {
    debug_assert!(w >= 1);
    1 << (31 - w.leading_zeros())
}

/// The largest value of the form `x·2^j ≤ w`, or `None` when `w < x`.
pub(crate) fn specialize_single(w: u32, x: u32) -> Option<u32> {
    if w < x || x == 0 {
        return None;
    }
    let mut v = u64::from(x);
    while v * 2 <= u64::from(w) {
        v *= 2;
    }
    Some(v as u32)
}

/// The largest value in `{x·2^j} ∪ {y·2^j}` that does not exceed `w`, or
/// `None` when `w < min(x, y)`.
pub(crate) fn specialize_double(w: u32, x: u32, y: u32) -> Option<u32> {
    let a = specialize_single(w, x);
    let b = specialize_single(w, y);
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// One task's specialization: the original window and its specialized value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Specialization {
    /// The task id.
    pub id: TaskId,
    /// The original window.
    pub original: u32,
    /// The specialized (shrunk) window.
    pub specialized: u32,
}

/// A fully specialized unit-requirement system, remembering the mapping back
/// to the original windows.
#[derive(Debug, Clone)]
pub(crate) struct SpecializedSystem {
    entries: Vec<Specialization>,
}

impl SpecializedSystem {
    /// Specializes every window of a *unit* task system through `f`.
    ///
    /// Returns `None` if any window cannot be specialized (i.e. `f` returns
    /// `None` for it).
    pub(crate) fn build(
        system: &TaskSystem,
        mut f: impl FnMut(u32) -> Option<u32>,
    ) -> Option<SpecializedSystem> {
        let mut entries = Vec::with_capacity(system.len());
        for t in system.tasks() {
            debug_assert_eq!(t.requirement, 1, "specialization expects unit tasks");
            let specialized = f(t.window)?;
            debug_assert!(specialized <= t.window);
            entries.push(Specialization {
                id: t.id,
                original: t.window,
                specialized,
            });
        }
        Some(SpecializedSystem { entries })
    }

    /// The density of the specialized system, `Σ 1/specialized`.
    pub(crate) fn density(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| 1.0 / f64::from(e.specialized))
            .sum()
    }

    /// The specialized system as a unit [`TaskSystem`] (ids preserved).
    pub(crate) fn to_task_system(&self) -> TaskSystem {
        TaskSystem::new(
            self.entries
                .iter()
                .map(|e| Task::unit(e.id, e.specialized))
                .collect(),
        )
        .expect("specialized windows are ≥ 1 and ids are unique")
    }

    /// The specialized windows as `(id, window)` pairs.
    pub(crate) fn windows(&self) -> Vec<(TaskId, u32)> {
        self.entries.iter().map(|e| (e.id, e.specialized)).collect()
    }
}

/// Candidate bases for single- and double-integer reduction, ascending.
///
/// Bases `x ≤ ⌊w_min/2⌋` are equivalent (on windows ≥ `w_min`) to their
/// doubled representative in `(⌊w_min/2⌋, w_min]`, so only that half-open
/// range needs to be searched.  For very large `w_min` the range is sampled
/// down to `max_candidates ≥ 1` evenly spaced values (both endpoints included
/// once there is room for two).  The power-of-two base
/// [`specialize_pow2`]`(w_min)` is always a candidate — when sampling, it
/// takes the place of the nearest sample — so a search over these bases
/// never does worse than Sa's powers-of-two specialization.
pub(crate) fn candidate_bases(min_window: u32, max_candidates: usize) -> Vec<u32> {
    if min_window == 0 {
        return Vec::new();
    }
    let lo = min_window / 2 + 1;
    let hi = min_window;
    let count = (hi - lo + 1) as usize;
    if count <= max_candidates {
        return (lo..=hi).collect();
    }
    let steps = (max_candidates - 1).max(1);
    let mut out: Vec<u32> = (0..max_candidates)
        .map(|i| lo + ((hi - lo) as usize * i / steps) as u32)
        .collect();
    out.dedup();
    let pow2 = specialize_pow2(min_window);
    if let Err(at) = out.binary_search(&pow2) {
        // `pow2` lies in `[lo, hi]`, so a sample sits on at least one side.
        let nearest = match (at.checked_sub(1), out.get(at)) {
            (Some(below), Some(&above)) if above - pow2 < pow2 - out[below] => at,
            (Some(below), _) => below,
            (None, _) => at,
        };
        out[nearest] = pow2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_specialization() {
        assert_eq!(specialize_pow2(1), 1);
        assert_eq!(specialize_pow2(2), 2);
        assert_eq!(specialize_pow2(3), 2);
        assert_eq!(specialize_pow2(4), 4);
        assert_eq!(specialize_pow2(7), 4);
        assert_eq!(specialize_pow2(8), 8);
        assert_eq!(specialize_pow2(1023), 512);
        assert_eq!(specialize_pow2(u32::MAX), 1 << 31);
    }

    #[test]
    fn single_chain_specialization() {
        assert_eq!(specialize_single(13, 5), Some(10));
        assert_eq!(specialize_single(100, 7), Some(56));
        assert_eq!(specialize_single(7, 7), Some(7));
        assert_eq!(specialize_single(6, 7), None);
        assert_eq!(specialize_single(10, 0), None);
        // Equivalence of a base and its halved version on windows ≥ base.
        for w in 7..200 {
            assert_eq!(
                specialize_single(w, 7),
                specialize_single(w, 14).or(specialize_single(w, 7))
            );
        }
    }

    #[test]
    fn double_chain_specialization_takes_the_larger() {
        // chains {5,10,20,40,...} and {7,14,28,...}
        assert_eq!(specialize_double(13, 5, 7), Some(10));
        assert_eq!(specialize_double(14, 5, 7), Some(14));
        assert_eq!(specialize_double(27, 5, 7), Some(20));
        assert_eq!(specialize_double(28, 5, 7), Some(28));
        assert_eq!(specialize_double(6, 5, 7), Some(5));
        assert_eq!(specialize_double(4, 5, 7), None);
    }

    #[test]
    fn specialization_never_exceeds_factor_two_for_pow2() {
        for w in 1u32..5000 {
            let s = specialize_pow2(w);
            assert!(s <= w);
            assert!(f64::from(w) / f64::from(s) < 2.0);
        }
    }

    #[test]
    fn double_specialization_with_sqrt2_ratio_bounds_inflation() {
        // With y ≈ x·√2 the worst inflation approaches √2 ≈ 1.415 < 10/7.
        let (x, y) = (10u32, 14u32);
        for w in 10u32..20_000 {
            let s = specialize_double(w, x, y).unwrap();
            let inflation = f64::from(w) / f64::from(s);
            assert!(
                inflation <= 10.0 / 7.0 + 1e-9,
                "w = {w}, inflation {inflation}"
            );
        }
    }

    #[test]
    fn specialized_system_bookkeeping() {
        let system = TaskSystem::from_windows(&[(1, 10), (2, 13), (3, 27)]).unwrap();
        let spec = SpecializedSystem::build(&system, |w| specialize_single(w, 5)).unwrap();
        assert_eq!(spec.windows(), vec![(1, 10), (2, 10), (3, 20)]);
        assert!((spec.density() - (0.1 + 0.1 + 0.05)).abs() < 1e-12);
        let ts = spec.to_task_system();
        assert_eq!(ts.task(3).unwrap().window, 20);
    }

    #[test]
    fn specialization_fails_when_window_below_base() {
        let system = TaskSystem::from_windows(&[(1, 4), (2, 13)]).unwrap();
        assert!(SpecializedSystem::build(&system, |w| specialize_single(w, 5)).is_none());
    }

    #[test]
    fn candidate_bases_cover_upper_half() {
        assert_eq!(candidate_bases(10, 100), vec![6, 7, 8, 9, 10]);
        assert_eq!(candidate_bases(1, 100), vec![1]);
        assert_eq!(candidate_bases(2, 100), vec![2]);
        assert_eq!(candidate_bases(3, 100), vec![2, 3]);
        assert_eq!(candidate_bases(0, 100), Vec::<u32>::new());
        // A cap of one keeps only the power-of-two base.
        assert_eq!(candidate_bases(10, 1), vec![8]);
        assert_eq!(candidate_bases(4, 1), vec![4]);
        assert_eq!(candidate_bases(3, 1), vec![2]);
        assert_eq!(candidate_bases(1, 1), vec![1]);
        // A cap of two keeps the top endpoint beside the power-of-two base.
        assert_eq!(candidate_bases(10, 2), vec![8, 10]);
        assert_eq!(candidate_bases(12, 2), vec![8, 12]);
    }

    #[test]
    fn candidate_bases_sampling_respects_cap() {
        let c = candidate_bases(100_000, 16);
        assert!(c.len() <= 16);
        assert_eq!(*c.first().unwrap(), 50_001);
        assert_eq!(*c.last().unwrap(), 100_000);
        // Monotone increasing.
        assert!(c.windows(2).all(|p| p[0] < p[1]));
        // The power-of-two base is in every sample, whatever the cap.
        for min_window in [4u32, 10, 30, 1000, 8193, 65_535, 65_536, 100_000, 131_071] {
            for cap in [1usize, 2, 3, 8, 16, 4096] {
                let c = candidate_bases(min_window, cap);
                assert!(c.len() <= cap, "w_min {min_window}, cap {cap}: {c:?}");
                assert!(
                    c.contains(&specialize_pow2(min_window)),
                    "w_min {min_window}, cap {cap}: {c:?}"
                );
                assert!(c.windows(2).all(|p| p[0] < p[1]));
            }
        }
    }
}
