//! Conversion of broadcast-file conditions to nice pinwheel conjuncts
//! (paper Section 4.2, transformation rules TR1/TR2 and the R0–R5 based
//! simplifications of Examples 2–6).
//!
//! The "conversion to nice pinwheel" problem — find a nice conjunct of
//! minimum density implying a given conjunct — is conjectured NP-hard in the
//! paper, so like the paper we generate a small set of candidate conversions
//! and keep the one with the smallest density:
//!
//! * **TR1** — a single unit-requirement condition
//!   `pc(i, 1, min_j ⌊d⁽ʲ⁾/(m+j)⌋)`;
//! * **TR2** — keep `pc(i, m, d⁽⁰⁾)` verbatim and add an aliased helper task
//!   `pc(i_j, 1, d⁽ʲ⁾)` per fault level (repeated rule R4), exactly as the
//!   paper states it;
//! * **R1 + R5** — when the base condition can be reduced by its gcd (rule
//!   R1) and the higher fault levels absorbed by rule R5, as in Example 4;
//! * **Subsumption** — expand via Equation 3, drop every condition implied by
//!   another (rules R0/R2, the manual simplifications of Examples 5 and 6),
//!   and convert what survives with R4 helpers.  On Example 4 this candidate
//!   finds `pc(i, 5, 9)` at density 5/9 ≈ 0.556 — *below* the paper's best of
//!   0.6 and exactly at the density lower bound (the `examples`
//!   experiment prints both beside the paper's).
//!
//! The best candidate is chosen by density (ties broken towards fewer
//! conditions), which is the paper's "choose the candidate transformation
//! with the smaller density" strategy.

use crate::algebra;
use crate::{Bc, ConditionError, NiceConjunct, Pc};
use ida::FileId;
use pinwheel::TaskId;
use std::collections::BTreeMap;

/// Which construction produced a candidate conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// Transformation rule TR1 (single unit-requirement condition).
    Tr1,
    /// Transformation rule TR2 (base condition plus one helper per fault
    /// level), as stated in the paper.
    Tr2,
    /// The R1 + R5 reduction of Example 4.
    R1R5,
    /// Equation-3 expansion with subsumption pruning (this implementation's
    /// generalisation of the Examples 5/6 simplifications).
    Subsumption,
}

impl core::fmt::Display for CandidateKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CandidateKind::Tr1 => write!(f, "TR1"),
            CandidateKind::Tr2 => write!(f, "TR2"),
            CandidateKind::R1R5 => write!(f, "R1+R5"),
            CandidateKind::Subsumption => write!(f, "subsumption"),
        }
    }
}

/// A candidate nice conjunct for one broadcast file, with provenance.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The construction that produced this candidate.
    pub kind: CandidateKind,
    /// The nice conjunct itself.
    pub conjunct: NiceConjunct,
    /// Its density.
    pub density: f64,
}

/// Allocates task ids for the conditions of one file.  The designer hands
/// each file its own allocator position so conjuncts of different files never
/// clash.
#[derive(Debug, Clone)]
pub struct TaskIdAllocator {
    next: TaskId,
}

impl TaskIdAllocator {
    /// Starts allocating from `first`.
    pub fn new(first: TaskId) -> Self {
        TaskIdAllocator { next: first }
    }

    /// Returns a fresh task id.
    pub(crate) fn allocate(&mut self) -> TaskId {
        let id = self.next;
        self.next += 1;
        id
    }
}

/// Converts a broadcast-file condition into candidate nice conjuncts (best —
/// lowest density, fewest conditions — first).  Fresh task ids are drawn from
/// `ids` and every allocated task is mapped back to the file.
pub fn convert_candidates(
    bc: &Bc,
    ids: &mut TaskIdAllocator,
) -> Result<Vec<Candidate>, ConditionError> {
    let mut candidates = Vec::new();
    let raw = bc.expand(0);
    let pruned = pruned_expansion(&raw);
    if let Some(c) = tr1_candidate(bc, ids)? {
        candidates.push(c);
    }
    if let Some(c) = chain_candidate(CandidateKind::Tr2, bc.file, &raw, ids)? {
        candidates.push(c);
    }
    if let Some(c) = r1r5_candidate(bc.file, &raw, ids)? {
        candidates.push(c);
    }
    if pruned != raw {
        if let Some(c) = chain_candidate(CandidateKind::Subsumption, bc.file, &pruned, ids)? {
            candidates.push(c);
        }
    }
    // Sort by density (quantised so that algebraically equal densities
    // computed along different routes compare equal), then by the number of
    // conditions: fewer scheduled tasks is simpler for the scheduler.
    candidates.sort_by_key(|c| ((c.density * 1e9).round() as i64, c.conjunct.len()));
    Ok(candidates)
}

/// The best (lowest-density) nice conjunct for a broadcast condition.
pub(crate) fn convert_to_nice(
    bc: &Bc,
    ids: &mut TaskIdAllocator,
) -> Result<Candidate, ConditionError> {
    let mut candidates = convert_candidates(bc, ids)?;
    debug_assert!(!candidates.is_empty(), "TR1 always yields a candidate");
    Ok(candidates.remove(0))
}

/// TR1: `bc(i, m, d⃗) ⇐ pc(i, 1, min_j ⌊d⁽ʲ⁾/(m+j)⌋)`.
fn tr1_candidate(bc: &Bc, ids: &mut TaskIdAllocator) -> Result<Option<Candidate>, ConditionError> {
    let window = bc
        .latencies
        .iter()
        .enumerate()
        .map(|(j, &d)| d / (bc.size + j as u32))
        .min()
        .expect("latency vector is non-empty");
    if window == 0 {
        return Ok(None);
    }
    let task = ids.allocate();
    let condition = Pc::new(task, 1, window)?;
    let conjunct = conjunct_for(bc.file, vec![condition])?;
    Ok(Some(Candidate {
        kind: CandidateKind::Tr1,
        density: conjunct.density(),
        conjunct,
    }))
}

/// Equation 3 expansion followed by subsumption pruning: conditions implied
/// by another condition (rules R0/R2, see Examples 5 and 6) are dropped.  Of
/// two equivalent conditions the later one is kept.  The result is sorted by
/// requirement; after pruning, windows are non-decreasing in that order.
fn pruned_expansion(expanded: &[Pc]) -> Vec<Pc> {
    let mut kept: Vec<Pc> = Vec::new();
    for (i, p) in expanded.iter().enumerate() {
        let implied_by_other = expanded
            .iter()
            .enumerate()
            .any(|(j, q)| j != i && q.implies(p) && !(p.implies(q) && j < i));
        if !implied_by_other {
            kept.push(*p);
        }
    }
    kept.sort_by_key(|p| (p.requirement, p.window));
    kept.dedup();
    kept
}

/// Base-plus-R4-helpers conversion of a chain of conditions on one task: the
/// first condition is kept verbatim (normalised by its gcd) and every later
/// one contributes an aliased helper with the incremental requirement.  For
/// the raw Equation-3 expansion the increments are all 1 and this is exactly
/// the paper's TR2.
fn chain_candidate(
    kind: CandidateKind,
    file: FileId,
    chain: &[Pc],
    ids: &mut TaskIdAllocator,
) -> Result<Option<Candidate>, ConditionError> {
    let Some((base, rest)) = chain.split_first() else {
        return Ok(None);
    };
    // R4 needs non-decreasing windows along the chain.
    if chain.windows(2).any(|w| w[1].window < w[0].window) {
        return Ok(None);
    }
    let base_task = ids.allocate();
    let mut conditions = vec![Pc::new(base_task, base.requirement, base.window)?.normalized()];
    let mut previous = *base;
    for level in rest {
        let alias = ids.allocate();
        let Some((_, aux)) = algebra::r4_split(&previous, level, alias) else {
            return Ok(None);
        };
        conditions.push(aux);
        previous = *level;
    }
    let conjunct = conjunct_for(file, conditions)?;
    Ok(Some(Candidate {
        kind,
        density: conjunct.density(),
        conjunct,
    }))
}

/// The Example-4 construction: reduce the base condition with R1 (divide by
/// the gcd of its parameters) and absorb the higher fault levels with R5.
/// Applies only when the base actually reduces and every higher level's
/// requirement is a multiple of the reduced base requirement.
fn r1r5_candidate(
    file: FileId,
    chain: &[Pc],
    ids: &mut TaskIdAllocator,
) -> Result<Option<Candidate>, ConditionError> {
    let Some((base, rest)) = chain.split_first() else {
        return Ok(None);
    };
    if rest.is_empty() {
        return Ok(None);
    }
    let reduced_form = base.normalized();
    if reduced_form == *base {
        // No reduction possible; this candidate would coincide with TR2.
        return Ok(None);
    }
    let base_task = ids.allocate();
    let reduced = Pc::new(base_task, reduced_form.requirement, reduced_form.window)?;
    let mut conditions = vec![reduced];
    for level in rest {
        let with_base_id = Pc {
            task: base_task,
            ..*level
        };
        let alias = ids.allocate();
        match algebra::r5_split(&reduced, &with_base_id, alias) {
            Some((_, Some(aux))) => conditions.push(aux),
            Some((_, None)) => {}
            None => {
                // R5 inapplicable; if the reduced base already implies this
                // level (R1 then R0) we can still drop it, otherwise give up.
                if reduced.implies(&with_base_id) {
                    continue;
                }
                return Ok(None);
            }
        }
    }
    let conjunct = conjunct_for(file, conditions)?;
    Ok(Some(Candidate {
        kind: CandidateKind::R1R5,
        density: conjunct.density(),
        conjunct,
    }))
}

fn conjunct_for(file: FileId, conditions: Vec<Pc>) -> Result<NiceConjunct, ConditionError> {
    let mapping: BTreeMap<TaskId, FileId> = conditions.iter().map(|c| (c.task, file)).collect();
    NiceConjunct::new(conditions, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn convert(bc: &Bc) -> Vec<Candidate> {
        let mut ids = TaskIdAllocator::new(1);
        convert_candidates(bc, &mut ids).unwrap()
    }

    fn best(bc: &Bc) -> Candidate {
        let mut ids = TaskIdAllocator::new(1);
        convert_to_nice(bc, &mut ids).unwrap()
    }

    fn of_kind(candidates: &[Candidate], kind: CandidateKind) -> Option<&Candidate> {
        candidates.iter().find(|c| c.kind == kind)
    }

    /// Semantic guard used by every example test: a schedule satisfying the
    /// chosen nice conjunct, with aliases folded onto one representative
    /// task, satisfies every expanded `pc(i, m+j, d⁽ʲ⁾)` of the original
    /// broadcast condition.
    fn assert_conjunct_implies_bc(candidate: &Candidate, bc: &Bc) {
        use pinwheel::{verify, AutoScheduler, PinwheelScheduler, Task, TaskSystem};
        let system = candidate.conjunct.to_task_system().unwrap();
        let schedule = AutoScheduler
            .schedule(&system)
            .expect("candidate conjunct must be schedulable for the semantic check");
        let representative: pinwheel::TaskId = 1_000_000;
        let folded = schedule.relabel(|id| candidate.conjunct.file_of(id).map(|_| representative));
        for expanded in bc.expand(representative) {
            let lhs = TaskSystem::new(vec![Task::new(
                representative,
                expanded.requirement,
                expanded.window,
            )])
            .unwrap();
            verify(&folded, &lhs)
                .unwrap_or_else(|e| panic!("conjunct does not imply {expanded:?}: {e}"));
        }
    }

    #[test]
    fn example_2_tr1_wins_at_density_0_0769() {
        // F_i: m=5, d = [100,105,110,115,120]; TR1 yields pc(i,1,13) with
        // density 0.0769, within 2.5% of the 0.075 lower bound.
        let bc = Bc::new(FileId(1), 5, vec![100, 105, 110, 115, 120]).unwrap();
        let candidates = convert(&bc);
        let winner = &candidates[0];
        assert_eq!(winner.kind, CandidateKind::Tr1);
        assert_eq!(winner.conjunct.conditions().len(), 1);
        assert_eq!(winner.conjunct.conditions()[0].window, 13);
        assert!((winner.density - 1.0 / 13.0).abs() < 1e-9);
        let lb = bc.density_lower_bound();
        assert!(winner.density / lb < 1.03, "within 2.5% of the lower bound");
        assert_conjunct_implies_bc(winner, &bc);
    }

    #[test]
    fn example_3_tr2_wins_at_density_0_0662() {
        // F_i: m=6, d = [105,110]; TR1 gives pc(i,1,15) = 0.0667 while TR2
        // gives pc(i,6,105) ∧ pc(i',1,110) = 0.0662, which is selected.
        let bc = Bc::new(FileId(1), 6, vec![105, 110]).unwrap();
        let candidates = convert(&bc);
        let winner = &candidates[0];
        assert_eq!(winner.kind, CandidateKind::Tr2);
        let expected = 6.0 / 105.0 + 1.0 / 110.0;
        assert!((winner.density - expected).abs() < 1e-9);
        let tr1 = of_kind(&candidates, CandidateKind::Tr1).unwrap();
        assert!((tr1.density - 1.0 / 15.0).abs() < 1e-9);
        // Within 4.1% of the 0.0636 lower bound.
        assert!(winner.density / bc.density_lower_bound() < 1.042);
        assert_conjunct_implies_bc(winner, &bc);
    }

    #[test]
    fn example_4_reproduces_the_paper_and_improves_on_it() {
        // F_i: m=4, d=[8,9].  The paper reports: TR1 → density 1.0,
        // TR2 → 0.6111, R1+R5 → 0.6000.  Our subsumption candidate notices
        // that pc(i,5,9) alone implies the whole condition, reaching the
        // 5/9 ≈ 0.5556 lower bound.
        let bc = Bc::new(FileId(1), 4, vec![8, 9]).unwrap();
        let candidates = convert(&bc);

        let tr1 = of_kind(&candidates, CandidateKind::Tr1).unwrap();
        assert!((tr1.density - 1.0).abs() < 1e-9);

        let tr2 = of_kind(&candidates, CandidateKind::Tr2).unwrap();
        assert!((tr2.density - (0.5 + 1.0 / 9.0)).abs() < 1e-9);

        let r1r5 = of_kind(&candidates, CandidateKind::R1R5).unwrap();
        assert!((r1r5.density - 0.6).abs() < 1e-9);
        let windows: Vec<(u32, u32)> = r1r5
            .conjunct
            .conditions()
            .iter()
            .map(|c| (c.requirement, c.window))
            .collect();
        assert_eq!(windows, vec![(1, 2), (1, 10)]);

        let winner = &candidates[0];
        assert_eq!(winner.kind, CandidateKind::Subsumption);
        assert!((winner.density - 5.0 / 9.0).abs() < 1e-9);
        assert!((winner.density - bc.density_lower_bound()).abs() < 1e-9);
        assert_conjunct_implies_bc(winner, &bc);
        assert_conjunct_implies_bc(r1r5, &bc);
        assert_conjunct_implies_bc(tr2, &bc);
    }

    #[test]
    fn example_5_pruning_reaches_the_optimal_density() {
        // bc(i, 2, [5,6,6]) ⇐ pc(i,2,3): the subsumption pruning keeps only
        // pc(i,4,6), which normalises to pc(i,2,3) — density equal to the
        // lower bound (optimal), exactly the paper's conclusion.
        let bc = Bc::new(FileId(1), 2, vec![5, 6, 6]).unwrap();
        let winner = best(&bc);
        assert_eq!(winner.kind, CandidateKind::Subsumption);
        assert_eq!(winner.conjunct.conditions().len(), 1);
        let only = winner.conjunct.conditions()[0];
        assert_eq!((only.requirement, only.window), (2, 3));
        assert!((winner.density - bc.density_lower_bound()).abs() < 1e-9);
        assert_conjunct_implies_bc(&winner, &bc);
    }

    #[test]
    fn example_6_single_condition_at_two_thirds() {
        // bc(i, 1, [2,3]) ≡ pc(i,1,2) ∧ pc(i,2,3); pc(i,2,3) alone is
        // equivalent (density 0.6667), beating the naive TR2 result 0.8333 —
        // both numbers as reported in the paper.
        let bc = Bc::new(FileId(1), 1, vec![2, 3]).unwrap();
        let candidates = convert(&bc);
        let tr2 = of_kind(&candidates, CandidateKind::Tr2).unwrap();
        assert!((tr2.density - (0.5 + 1.0 / 3.0)).abs() < 1e-9);
        let winner = &candidates[0];
        assert_eq!(winner.conjunct.conditions().len(), 1);
        let only = winner.conjunct.conditions()[0];
        assert_eq!((only.requirement, only.window), (2, 3));
        assert!((winner.density - 2.0 / 3.0).abs() < 1e-9);
        assert_conjunct_implies_bc(winner, &bc);
    }

    #[test]
    fn regular_real_time_files_reduce_to_a_single_condition() {
        // r = 0: bc(i, m, [d]) is pc(i, m, d) itself; the best conjunct's
        // density must equal the lower bound m/d.
        let bc = Bc::new(FileId(3), 4, vec![20]).unwrap();
        let winner = best(&bc);
        assert!((winner.density - 0.2).abs() < 1e-9);
        assert_conjunct_implies_bc(&winner, &bc);
    }

    #[test]
    fn uniform_fault_tolerant_files_collapse_via_pruning() {
        // Regular fault-tolerant file: equal latencies [d,d,…,d]; only the
        // highest fault level survives pruning, giving pc(i, m+r, d).
        let bc = Bc::new(FileId(3), 3, vec![12, 12, 12]).unwrap();
        let winner = best(&bc);
        assert_eq!(winner.conjunct.conditions().len(), 1);
        let only = winner.conjunct.conditions()[0].normalized();
        assert_eq!((only.requirement, only.window), (5, 12));
        assert_conjunct_implies_bc(&winner, &bc);
    }

    #[test]
    fn every_candidate_maps_all_tasks_to_the_file() {
        let bc = Bc::new(FileId(7), 6, vec![105, 110, 130]).unwrap();
        for candidate in convert(&bc) {
            assert!(!candidate.conjunct.is_empty());
            for c in candidate.conjunct.conditions() {
                assert_eq!(candidate.conjunct.file_of(c.task), Some(FileId(7)));
            }
        }
    }

    #[test]
    fn task_ids_are_unique_across_candidates_and_files() {
        let mut ids = TaskIdAllocator::new(10);
        let bc1 = Bc::new(FileId(1), 4, vec![8, 9]).unwrap();
        let bc2 = Bc::new(FileId(2), 6, vec![105, 110]).unwrap();
        let c1 = convert_candidates(&bc1, &mut ids).unwrap();
        let c2 = convert_candidates(&bc2, &mut ids).unwrap();
        let mut seen = std::collections::HashSet::new();
        for c in c1.iter().chain(c2.iter()) {
            for p in c.conjunct.conditions() {
                assert!(seen.insert(p.task), "task id {} reused", p.task);
            }
        }
    }

    #[test]
    fn density_never_below_the_lower_bound() {
        // The chosen conjunct must never claim a density below the provable
        // lower bound (that would indicate an unsound transformation).
        let cases = [
            Bc::new(FileId(1), 5, vec![100, 105, 110, 115, 120]).unwrap(),
            Bc::new(FileId(1), 6, vec![105, 110]).unwrap(),
            Bc::new(FileId(1), 4, vec![8, 9]).unwrap(),
            Bc::new(FileId(1), 2, vec![5, 6, 6]).unwrap(),
            Bc::new(FileId(1), 1, vec![2, 3]).unwrap(),
            Bc::new(FileId(1), 3, vec![10, 14, 21]).unwrap(),
            Bc::new(FileId(1), 7, vec![70, 71, 80, 95]).unwrap(),
        ];
        for bc in cases {
            let winner = best(&bc);
            assert!(
                winner.density >= bc.density_lower_bound() - 1e-9,
                "{bc}: density {} below lower bound {}",
                winner.density,
                bc.density_lower_bound()
            );
        }
    }

    #[test]
    fn decreasing_latency_vectors_still_produce_a_sound_conversion() {
        // d⁽¹⁾ < d⁽⁰⁾ is unusual but legal; TR2's chain construction does not
        // apply (windows must not decrease) but TR1 and subsumption do.
        let bc = Bc::new(FileId(1), 2, vec![9, 7]).unwrap();
        let winner = best(&bc);
        assert_conjunct_implies_bc(&winner, &bc);
    }
}
