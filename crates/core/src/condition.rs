//! Broadcast-file conditions, pinwheel conditions and nice conjuncts
//! (paper Section 4.1, definitions 1–6).

use ida::FileId;
use pinwheel::{Task, TaskId, TaskSystem};
use std::collections::BTreeMap;

/// Errors building conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConditionError {
    /// A pinwheel condition needs `1 ≤ a ≤ b`.
    InvalidPinwheelCondition {
        /// Requirement supplied.
        requirement: u32,
        /// Window supplied.
        window: u32,
    },
    /// A broadcast condition needs `m ≥ 1` and a non-empty latency vector of
    /// positive entries.
    InvalidBroadcastCondition,
    /// The latency vector makes some fault level unsatisfiable
    /// (`m + j > d⁽ʲ⁾`): even a program broadcasting the file in every slot
    /// could not meet it.
    UnsatisfiableFaultLevel {
        /// The offending fault level `j`.
        fault_level: usize,
        /// Blocks required at that level (`m + j`).
        required: u32,
        /// The latency `d⁽ʲ⁾` at that level.
        window: u32,
    },
    /// Two conditions in a would-be nice conjunct share a task id.
    NotNice(TaskId),
}

impl core::fmt::Display for ConditionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConditionError::InvalidPinwheelCondition { requirement, window } => {
                write!(f, "invalid pinwheel condition: need 1 ≤ a ≤ b, got a={requirement}, b={window}")
            }
            ConditionError::InvalidBroadcastCondition => {
                write!(f, "invalid broadcast condition: need m ≥ 1 and positive latencies")
            }
            ConditionError::UnsatisfiableFaultLevel {
                fault_level,
                required,
                window,
            } => write!(
                f,
                "fault level {fault_level} requires {required} blocks within {window} slots, which is impossible"
            ),
            ConditionError::NotNice(id) => {
                write!(f, "conjunct is not nice: task id {id} appears twice")
            }
        }
    }
}

impl std::error::Error for ConditionError {}

/// A pinwheel task condition `pc(i, a, b)`: the broadcast program's slot
/// sequence for task `i` contains at least `a` of every `b` consecutive
/// slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pc {
    /// The scheduled task.
    pub task: TaskId,
    /// The requirement `a`.
    pub requirement: u32,
    /// The window `b`.
    pub window: u32,
}

impl Pc {
    /// Builds `pc(task, a, b)`, validating `1 ≤ a ≤ b`.
    pub fn new(task: TaskId, requirement: u32, window: u32) -> Result<Self, ConditionError> {
        if requirement == 0 || window == 0 || requirement > window {
            return Err(ConditionError::InvalidPinwheelCondition {
                requirement,
                window,
            });
        }
        Ok(Pc {
            task,
            requirement,
            window,
        })
    }

    /// The density `a / b` of the condition.
    pub fn density(&self) -> f64 {
        f64::from(self.requirement) / f64::from(self.window)
    }

    /// The condition as a pinwheel [`Task`].
    pub(crate) fn to_task(self) -> Task {
        Task::new(self.task, self.requirement, self.window)
    }

    /// Normalises the condition by the gcd of `a` and `b` (rule R1 in
    /// reverse: `pc(a/g, b/g) ⇒ pc(a, b)`), which preserves density and is
    /// the form the paper's examples report.
    pub(crate) fn normalized(&self) -> Pc {
        let g = gcd(self.requirement, self.window);
        Pc {
            task: self.task,
            requirement: self.requirement / g,
            window: self.window / g,
        }
    }

    /// A sound (syntactic) implication test: `true` means every broadcast
    /// program satisfying `self` also satisfies `other` **for the same
    /// task**.
    ///
    /// The test searches for a derivation `self ⇒ other` through rules R1
    /// (multiply up), R2 (shrink both by `x`) and R0 (relax): `pc(a, b)`
    /// implies `pc(c, d)` whenever for some `n ≥ 1`,
    /// `c ≤ n·a − max(0, n·b − d)`.
    pub(crate) fn implies(&self, other: &Pc) -> bool {
        if self.task != other.task {
            return false;
        }
        let (a, b) = (u64::from(self.requirement), u64::from(self.window));
        let (c, d) = (u64::from(other.requirement), u64::from(other.window));
        // n beyond c/a + 1 cannot help: the deficit n·b − d grows as fast as n·a.
        let max_n = c / a + 2;
        for n in 1..=max_n {
            let have = n * a;
            let deficit = (n * b).saturating_sub(d);
            if have >= deficit && have - deficit >= c {
                return true;
            }
        }
        false
    }
}

impl core::fmt::Display for Pc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "pc({}, {}, {})",
            self.task, self.requirement, self.window
        )
    }
}

/// A broadcast-file condition `bc(i, mᵢ, d⃗ᵢ)` (paper definition 3): the
/// program transmits at least `mᵢ + j` blocks of file `i` in every window of
/// `d⁽ʲ⁾` consecutive slots, for every fault level `j = 0..=r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bc {
    /// The broadcast file.
    pub file: FileId,
    /// The file size `mᵢ` in blocks.
    pub size: u32,
    /// The latency vector `d⃗ᵢ` (slots), indexed by fault level.
    pub latencies: Vec<u32>,
}

impl Bc {
    /// Builds a broadcast condition, validating that every fault level is
    /// individually satisfiable.
    pub fn new(file: FileId, size: u32, latencies: Vec<u32>) -> Result<Self, ConditionError> {
        if size == 0 || latencies.is_empty() || latencies.contains(&0) {
            return Err(ConditionError::InvalidBroadcastCondition);
        }
        for (j, &d) in latencies.iter().enumerate() {
            let required = size + j as u32;
            if required > d {
                return Err(ConditionError::UnsatisfiableFaultLevel {
                    fault_level: j,
                    required,
                    window: d,
                });
            }
        }
        Ok(Bc {
            file,
            size,
            latencies,
        })
    }

    /// The number of faults tolerated, `r`.
    pub fn max_faults(&self) -> usize {
        self.latencies.len() - 1
    }

    /// Equation 3 of the paper: `bc(i, m, d⃗) ≡ ⋀_j pc(i, m + j, d⁽ʲ⁾)`.
    ///
    /// The task id used for every expanded condition is `task` (they all
    /// refer to the same broadcast file).
    pub fn expand(&self, task: TaskId) -> Vec<Pc> {
        self.latencies
            .iter()
            .enumerate()
            .map(|(j, &d)| Pc {
                task,
                requirement: self.size + j as u32,
                window: d,
            })
            .collect()
    }

    /// The *density lower bound* of the condition,
    /// `max_j (m + j) / d⁽ʲ⁾` — no nice conjunct of pinwheel conditions
    /// implying `bc` can have smaller density (paper Section 4.2).
    pub fn density_lower_bound(&self) -> f64 {
        self.latencies
            .iter()
            .enumerate()
            .map(|(j, &d)| f64::from(self.size + j as u32) / f64::from(d))
            .fold(0.0, f64::max)
    }
}

impl core::fmt::Display for Bc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let ds: Vec<String> = self.latencies.iter().map(u32::to_string).collect();
        write!(f, "bc({}, {}, [{}])", self.file, self.size, ds.join(", "))
    }
}

/// A *nice* conjunct of pinwheel conditions: at most one condition per
/// scheduled task, together with the `map(i′, i)` aliases that record which
/// broadcast file each task transmits for (paper rule R4's `map`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NiceConjunct {
    conditions: Vec<Pc>,
    mapping: BTreeMap<TaskId, FileId>,
}

impl NiceConjunct {
    /// Builds a nice conjunct, checking id uniqueness.
    pub fn new(
        conditions: Vec<Pc>,
        mapping: BTreeMap<TaskId, FileId>,
    ) -> Result<Self, ConditionError> {
        for (i, c) in conditions.iter().enumerate() {
            if conditions.iter().skip(i + 1).any(|d| d.task == c.task) {
                return Err(ConditionError::NotNice(c.task));
            }
        }
        Ok(NiceConjunct {
            conditions,
            mapping,
        })
    }

    /// The conditions of the conjunct.
    pub fn conditions(&self) -> &[Pc] {
        &self.conditions
    }

    /// The file a task broadcasts for, if mapped.
    pub fn file_of(&self, task: TaskId) -> Option<FileId> {
        self.mapping.get(&task).copied()
    }

    /// All `task → file` aliases.
    pub fn mapping(&self) -> &BTreeMap<TaskId, FileId> {
        &self.mapping
    }

    /// The conjunct density, `Σ aᵢ/bᵢ` — the quantity fed to the Chan & Chin
    /// 7/10 test.
    pub fn density(&self) -> f64 {
        self.conditions.iter().map(Pc::density).sum()
    }

    /// Number of conditions.
    pub fn len(&self) -> usize {
        self.conditions.len()
    }

    /// `true` when the conjunct has no conditions.
    pub fn is_empty(&self) -> bool {
        self.conditions.is_empty()
    }

    /// Merges another nice conjunct into this one (task ids must stay
    /// disjoint — the designer allocates fresh ids per file).
    pub(crate) fn merge(&mut self, other: NiceConjunct) -> Result<(), ConditionError> {
        for c in &other.conditions {
            if self.conditions.iter().any(|d| d.task == c.task) {
                return Err(ConditionError::NotNice(c.task));
            }
        }
        self.conditions.extend(other.conditions);
        self.mapping.extend(other.mapping);
        Ok(())
    }

    /// The conjunct as a pinwheel [`TaskSystem`] ready for scheduling.
    pub fn to_task_system(&self) -> Result<TaskSystem, pinwheel::TaskSystemError> {
        TaskSystem::new(self.conditions.iter().copied().map(Pc::to_task).collect())
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_validation_and_density() {
        assert!(Pc::new(1, 0, 5).is_err());
        assert!(Pc::new(1, 6, 5).is_err());
        assert!(Pc::new(1, 1, 0).is_err());
        let p = Pc::new(1, 2, 5).unwrap();
        assert!((p.density() - 0.4).abs() < 1e-12);
        assert_eq!(p.to_string(), "pc(1, 2, 5)");
    }

    #[test]
    fn pc_normalization_divides_by_gcd() {
        assert_eq!(
            Pc::new(1, 4, 6).unwrap().normalized(),
            Pc::new(1, 2, 3).unwrap()
        );
        assert_eq!(
            Pc::new(1, 3, 7).unwrap().normalized(),
            Pc::new(1, 3, 7).unwrap()
        );
    }

    #[test]
    fn pc_implication_examples_from_the_paper() {
        // Example 6: pc(i,2,3) ⇒ pc(i,1,2) (via R2).
        assert!(Pc::new(1, 2, 3)
            .unwrap()
            .implies(&Pc::new(1, 1, 2).unwrap()));
        // Example 5: pc(i,4,6) ⇒ pc(i,3,6) (R0) and pc(i,4,6) ⇒ pc(i,2,5).
        assert!(Pc::new(1, 4, 6)
            .unwrap()
            .implies(&Pc::new(1, 3, 6).unwrap()));
        assert!(Pc::new(1, 4, 6)
            .unwrap()
            .implies(&Pc::new(1, 2, 5).unwrap()));
        // R1: pc(i,2,3) ⇒ pc(i,4,6).
        assert!(Pc::new(1, 2, 3)
            .unwrap()
            .implies(&Pc::new(1, 4, 6).unwrap()));
        // Not implied: a tighter condition.
        assert!(!Pc::new(1, 1, 2)
            .unwrap()
            .implies(&Pc::new(1, 2, 3).unwrap()));
        // Different tasks never imply each other.
        assert!(!Pc::new(1, 2, 3)
            .unwrap()
            .implies(&Pc::new(2, 1, 2).unwrap()));
    }

    #[test]
    fn implication_is_reflexive_and_respects_relaxation() {
        let p = Pc::new(3, 2, 7).unwrap();
        assert!(p.implies(&p));
        assert!(p.implies(&Pc::new(3, 1, 7).unwrap()));
        assert!(p.implies(&Pc::new(3, 2, 9).unwrap()));
        assert!(!p.implies(&Pc::new(3, 3, 7).unwrap()));
    }

    #[test]
    fn bc_validation() {
        assert!(Bc::new(FileId(1), 0, vec![5]).is_err());
        assert!(Bc::new(FileId(1), 1, vec![]).is_err());
        assert!(Bc::new(FileId(1), 1, vec![0]).is_err());
        // m + j > d(j): 2 blocks + 1 fault = 3 blocks needed in 2 slots.
        assert!(matches!(
            Bc::new(FileId(1), 2, vec![5, 2]),
            Err(ConditionError::UnsatisfiableFaultLevel { fault_level: 1, .. })
        ));
        let bc = Bc::new(FileId(1), 2, vec![5, 7]).unwrap();
        assert_eq!(bc.max_faults(), 1);
    }

    #[test]
    fn bc_expansion_is_equation_3() {
        // bc(i, 2, [5, 6, 6]) ≡ pc(i,2,5) ∧ pc(i,3,6) ∧ pc(i,4,6) (Example 5).
        let bc = Bc::new(FileId(1), 2, vec![5, 6, 6]).unwrap();
        let expanded = bc.expand(9);
        assert_eq!(
            expanded,
            vec![
                Pc::new(9, 2, 5).unwrap(),
                Pc::new(9, 3, 6).unwrap(),
                Pc::new(9, 4, 6).unwrap(),
            ]
        );
    }

    #[test]
    fn density_lower_bounds_match_the_paper() {
        // Example 2: 0.075; Example 3: 0.0636; Example 4: 0.5556; Example 6: 2/3.
        let e2 = Bc::new(FileId(1), 5, vec![100, 105, 110, 115, 120]).unwrap();
        assert!((e2.density_lower_bound() - 0.075).abs() < 1e-9);
        let e3 = Bc::new(FileId(1), 6, vec![105, 110]).unwrap();
        assert!((e3.density_lower_bound() - 7.0 / 110.0).abs() < 1e-9);
        let e4 = Bc::new(FileId(1), 4, vec![8, 9]).unwrap();
        assert!((e4.density_lower_bound() - 5.0 / 9.0).abs() < 1e-9);
        let e6 = Bc::new(FileId(1), 1, vec![2, 3]).unwrap();
        assert!((e6.density_lower_bound() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn nice_conjunct_rejects_duplicate_tasks() {
        let dup = NiceConjunct::new(
            vec![Pc::new(1, 1, 2).unwrap(), Pc::new(1, 1, 3).unwrap()],
            BTreeMap::new(),
        );
        assert_eq!(dup.unwrap_err(), ConditionError::NotNice(1));
    }

    #[test]
    fn nice_conjunct_density_and_task_system() {
        let mut mapping = BTreeMap::new();
        mapping.insert(1, FileId(10));
        mapping.insert(2, FileId(10));
        let nc = NiceConjunct::new(
            vec![Pc::new(1, 1, 2).unwrap(), Pc::new(2, 1, 3).unwrap()],
            mapping,
        )
        .unwrap();
        assert!((nc.density() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(nc.file_of(1), Some(FileId(10)));
        assert_eq!(nc.file_of(9), None);
        let ts = nc.to_task_system().unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(nc.len(), 2);
        assert!(!nc.is_empty());
    }

    #[test]
    fn merging_conjuncts_with_disjoint_ids() {
        let mut a = NiceConjunct::new(vec![Pc::new(1, 1, 2).unwrap()], BTreeMap::new()).unwrap();
        let b = NiceConjunct::new(vec![Pc::new(2, 1, 3).unwrap()], BTreeMap::new()).unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.len(), 2);
        let clash = NiceConjunct::new(vec![Pc::new(2, 1, 5).unwrap()], BTreeMap::new()).unwrap();
        assert!(a.merge(clash).is_err());
    }
}
