//! Exact worst-case retrieval-delay analysis under bounded reception
//! failures.
//!
//! For a given broadcast program, target file and number of reception
//! failures `r`, the *worst-case latency* is the longest a client can
//! possibly need to collect its `m` distinct blocks when an adversary picks
//! the request slot **and** which `r` receptions fail.  This is the quantity
//! behind the paper's Figure 7 table, Lemma 1 (flat programs:
//! extra delay ≤ r·τ) and Lemma 2 (AIDA programs: extra delay ≤ r·Δ where Δ
//! is the maximum inter-block gap).
//!
//! The analysis is exact: for every request slot the adversary's choice of
//! failures is explored by a branch-and-bound search.  Two structural facts
//! shrink the space far below the naive `2^receptions`:
//!
//! 1. only receptions carrying a *new* block are choice points — failing a
//!    duplicate wastes an error and receiving one changes nothing — so the
//!    search tree has depth at most `m + r`;
//! 2. from any state, completion is forced no later than the slot where
//!    `need + errors_left` *distinct* uncollected blocks have gone by (the
//!    adversary can fail at most `errors_left` of their first appearances),
//!    which gives an admissible upper bound to prune against the incumbent.
//!
//! This scales Figure-7-style tables well past the `n ≈ 20` the previous
//! memoised exhaustive search managed; dispersals wider than the exact-search
//! limit (40 blocks) still fall back to a pessimistic greedy adversary and
//! are flagged in the result.

use bdisk::{BroadcastProgram, ProgramEntry};
use ida::FileId;

/// The result of a worst-case analysis for one `(file, r)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorstCaseAnalysis {
    /// Number of reception failures the adversary may inject.
    pub errors: usize,
    /// Worst-case retrieval latency in slots (inclusive of the completing
    /// slot).
    pub latency: usize,
    /// Worst-case *extra* delay relative to the fault-free worst case.
    pub extra_delay: usize,
    /// `true` when the exact adversary search was used; `false` means the
    /// dispersal width was too large and a greedy (still adversarial, but
    /// possibly not maximal) strategy was used instead.
    pub exact: bool,
}

/// Exact-search width limit: dispersals up to this many blocks use the
/// branch-and-bound adversary (the pruning keeps instances this wide cheap;
/// the collected-set bitmask caps it below 64 regardless).
const EXACT_WIDTH_LIMIT: usize = 40;

/// Computes the worst-case retrieval latency (slots) for retrieving `file`
/// (needing `threshold` distinct blocks) from `program`, when an adversary
/// chooses the request slot and fails exactly up to `errors` receptions.
pub fn worst_case_latency(
    program: &BroadcastProgram,
    file: FileId,
    threshold: usize,
    errors: usize,
) -> WorstCaseAnalysis {
    let receptions = reception_sequence(program, file);
    assert!(
        !receptions.is_empty(),
        "file {file} never appears in the program"
    );
    let width = (receptions.iter().map(|r| r.block).max().unwrap_or(0) + 1) as usize;
    let exact = width <= EXACT_WIDTH_LIMIT;

    let cycle = program.data_cycle();
    let fault_free = (0..cycle)
        .map(|s| latency_from(&receptions, cycle, s, threshold, 0, exact))
        .max()
        .expect("non-empty cycle");
    let with_errors = (0..cycle)
        .map(|s| latency_from(&receptions, cycle, s, threshold, errors, exact))
        .max()
        .expect("non-empty cycle");
    WorstCaseAnalysis {
        errors,
        latency: with_errors,
        extra_delay: with_errors.saturating_sub(fault_free),
        exact,
    }
}

/// The worst-case latency table for `r = 0..=max_errors` (absolute
/// latencies).
pub fn worst_case_table(
    program: &BroadcastProgram,
    file: FileId,
    threshold: usize,
    max_errors: usize,
) -> Vec<WorstCaseAnalysis> {
    (0..=max_errors)
        .map(|r| worst_case_latency(program, file, threshold, r))
        .collect()
}

/// The paper's Figure 7 view: worst-case **extra** delay per error count.
pub fn extra_delay_table(
    program: &BroadcastProgram,
    file: FileId,
    threshold: usize,
    max_errors: usize,
) -> Vec<usize> {
    worst_case_table(program, file, threshold, max_errors)
        .into_iter()
        .map(|a| a.extra_delay)
        .collect()
}

/// One reception opportunity for the target file within the data cycle.
#[derive(Debug, Clone, Copy)]
struct Reception {
    slot: usize,
    block: u32,
}

fn reception_sequence(program: &BroadcastProgram, file: FileId) -> Vec<Reception> {
    program
        .entries()
        .iter()
        .enumerate()
        .filter_map(|(slot, e)| match e {
            ProgramEntry::Block { file: f, block } if *f == file => Some(Reception {
                slot,
                block: *block,
            }),
            _ => None,
        })
        .collect()
}

/// Worst-case completion latency when the retrieval starts at `start` and the
/// adversary may fail up to `errors` receptions.
fn latency_from(
    receptions: &[Reception],
    cycle: usize,
    start: usize,
    threshold: usize,
    errors: usize,
    exact: bool,
) -> usize {
    // Materialise the reception stream from `start`, long enough that even
    // `errors` failures plus duplicate blocks cannot exhaust it: every data
    // cycle contains every dispersed block at least once, so
    // `errors + threshold + 1` cycles are always sufficient.
    let cycles_needed = errors + threshold + 1;
    let mut stream = Vec::with_capacity(receptions.len() * cycles_needed);
    for c in 0..cycles_needed {
        for r in receptions {
            let slot = r.slot + c * cycle;
            if slot >= start {
                stream.push(Reception {
                    slot,
                    block: r.block,
                });
            }
        }
    }
    if exact {
        let mut incumbent = 0usize;
        bb_search(&stream, 0, 0u64, threshold, errors, &mut incumbent);
        incumbent - start + 1
    } else {
        let slot = greedy_adversary(&stream, threshold, errors);
        slot - start + 1
    }
}

/// Exact branch-and-bound adversary: maximise the completion slot over all
/// choices of which receptions to fail (at most `errors_left`).
///
/// Only receptions carrying a block the client has not collected are choice
/// points: failing a reception of an already-collected (or duplicate) block
/// spends an error without changing the client's state, and receiving one is
/// a no-op — an adversary that skips such moves does at least as well, so
/// restricting the branching preserves exactness while capping the tree
/// depth at `threshold + errors_left`.
fn bb_search(
    stream: &[Reception],
    index: usize,
    collected: u64,
    threshold: usize,
    errors_left: usize,
    incumbent: &mut usize,
) {
    if errors_left == 0 {
        // No choices left: the client collects deterministically.
        let slot = fault_free_completion(stream, index, collected, threshold);
        *incumbent = (*incumbent).max(slot);
        return;
    }
    // Admissible upper bound: completion is forced once `need + errors_left`
    // distinct uncollected blocks have gone by (at most `errors_left` of
    // their first appearances can be failed, so at least `need` distinct
    // blocks get through by then).
    if completion_upper_bound(stream, index, collected, threshold, errors_left) <= *incumbent {
        return;
    }
    // Advance to the next choice point: a reception of an uncollected block.
    let mut i = index;
    let (at, bit) = loop {
        match stream.get(i) {
            None => {
                // Horizon exhausted (defensive; the stream is sized so
                // completion happens first for well-formed programs).
                let slot = stream.last().map(|r| r.slot).unwrap_or(0);
                *incumbent = (*incumbent).max(slot);
                return;
            }
            Some(r) => {
                let bit = 1u64 << r.block;
                if collected & bit == 0 {
                    break (*r, bit);
                }
                i += 1;
            }
        }
    };
    // Fail branch first: delaying moves tend to raise the incumbent early,
    // which makes the bound prune harder on the success branches.
    bb_search(
        stream,
        i + 1,
        collected,
        threshold,
        errors_left - 1,
        incumbent,
    );
    let next = collected | bit;
    if next.count_ones() as usize >= threshold {
        *incumbent = (*incumbent).max(at.slot);
    } else {
        bb_search(stream, i + 1, next, threshold, errors_left, incumbent);
    }
}

/// The slot at which a client in state `(index, collected)` completes when
/// no further receptions fail.
fn fault_free_completion(
    stream: &[Reception],
    index: usize,
    collected: u64,
    threshold: usize,
) -> usize {
    let mut set = collected;
    for r in &stream[index.min(stream.len())..] {
        let bit = 1u64 << r.block;
        if set & bit == 0 {
            set |= bit;
            if set.count_ones() as usize >= threshold {
                return r.slot;
            }
        }
    }
    stream.last().map(|r| r.slot).unwrap_or(0)
}

/// An upper bound on the completion slot any adversary with `errors_left`
/// failures can force from state `(index, collected)`: the slot of the
/// `(need + errors_left)`-th *distinct* uncollected block seen from `index`.
fn completion_upper_bound(
    stream: &[Reception],
    index: usize,
    collected: u64,
    threshold: usize,
    errors_left: usize,
) -> usize {
    let need = threshold.saturating_sub(collected.count_ones() as usize);
    let target = need + errors_left;
    let mut seen = collected;
    let mut distinct = 0usize;
    for r in &stream[index.min(stream.len())..] {
        let bit = 1u64 << r.block;
        if seen & bit == 0 {
            seen |= bit;
            distinct += 1;
            if distinct >= target {
                return r.slot;
            }
        }
    }
    stream.last().map(|r| r.slot).unwrap_or(0)
}

/// Pessimistic greedy adversary for very wide dispersals: fail the last
/// `errors` receptions that would otherwise complete the retrieval.
fn greedy_adversary(stream: &[Reception], threshold: usize, errors: usize) -> usize {
    let mut errors_left = errors;
    let mut collected: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for r in stream {
        let is_new = !collected.contains(&r.block);
        if is_new && collected.len() + 1 >= threshold && errors_left > 0 {
            // This reception would complete the retrieval: fail it.
            errors_left -= 1;
            continue;
        }
        if is_new {
            collected.insert(r.block);
            if collected.len() >= threshold {
                return r.slot;
            }
        }
    }
    stream.last().map(|r| r.slot).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk::{BroadcastFile, BroadcastProgram, FileSet, FlatOrder};

    fn paper_files(dispersed: bool) -> FileSet {
        let (na, nb) = if dispersed { (10, 6) } else { (5, 3) };
        FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(na),
            BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(nb),
        ])
        .unwrap()
    }

    #[test]
    fn lemma_1_flat_program_extra_delay_is_bounded_by_r_tau() {
        // Lemma 1: extra delay ≤ r·τ where τ is the broadcast period.
        let files = paper_files(false);
        let program = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
        let tau = program.broadcast_period();
        for (file, m) in [(FileId(0), 5usize), (FileId(1), 3usize)] {
            for r in 0..=4 {
                let analysis = worst_case_latency(&program, file, m, r);
                assert!(analysis.exact);
                assert!(
                    analysis.extra_delay <= r * tau,
                    "file {file}, r={r}: extra {} > r·τ = {}",
                    analysis.extra_delay,
                    r * tau
                );
            }
        }
    }

    #[test]
    fn lemma_2_aida_program_extra_delay_is_bounded_by_r_delta() {
        // Lemma 2: extra delay ≤ r·Δ where Δ is the maximum inter-block gap.
        // The bound applies while the error count stays within the file's
        // redundancy (r ≤ nᵢ − mᵢ): beyond that the client starts seeing
        // duplicate blocks and a single further error can cost more than Δ
        // (see EXPERIMENTS.md).  File A tolerates 5 errors, file B only 3.
        let files = paper_files(true);
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        for (file, m, max_r) in [(FileId(0), 5usize, 5usize), (FileId(1), 3usize, 3usize)] {
            let delta = program.max_gap(file).unwrap();
            for r in 0..=max_r {
                let analysis = worst_case_latency(&program, file, m, r);
                assert!(
                    analysis.extra_delay <= r * delta,
                    "file {file}, r={r}: extra {} > r·Δ = {}",
                    analysis.extra_delay,
                    r * delta
                );
            }
        }
    }

    #[test]
    fn figure_7_shape_ida_beats_no_ida_and_errors_cost_a_period_without_ida() {
        let flat = BroadcastProgram::flat(&paper_files(false), FlatOrder::Spread).unwrap();
        let aida = BroadcastProgram::aida_flat(&paper_files(true), FlatOrder::Spread).unwrap();
        let without = extra_delay_table(&flat, FileId(0), 5, 5);
        let with = extra_delay_table(&aida, FileId(0), 5, 5);
        assert_eq!(without[0], 0);
        assert_eq!(with[0], 0);
        for r in 1..=5 {
            // Without IDA every error costs a full broadcast period (8 slots).
            assert_eq!(without[r], r * 8, "without IDA, r={r}");
            // With IDA the cost is a handful of slots, strictly better.
            assert!(with[r] < without[r], "r={r}: {} !< {}", with[r], without[r]);
            assert!(
                with[r] <= 8,
                "r={r}: extra {} should stay within one period",
                with[r]
            );
        }
        // Monotonicity in r.
        assert!(with.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fault_free_latency_never_exceeds_the_broadcast_period_for_flat_programs() {
        let files = paper_files(true);
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        for (file, m) in [(FileId(0), 5usize), (FileId(1), 3usize)] {
            let analysis = worst_case_latency(&program, file, m, 0);
            assert!(analysis.latency <= program.broadcast_period());
            assert_eq!(analysis.extra_delay, 0);
        }
    }

    #[test]
    fn single_block_files_recover_in_one_gap() {
        // A 1-block file dispersed into 3: one error costs at most the gap to
        // the next copy.
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "X", 1, 64).with_dispersal(3),
            BroadcastFile::new(FileId(1), "Y", 3, 64).with_dispersal(3),
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let delta = program.max_gap(FileId(0)).unwrap();
        let a = worst_case_latency(&program, FileId(0), 1, 1);
        assert!(a.extra_delay <= delta);
    }

    #[test]
    fn greedy_fallback_is_used_for_very_wide_dispersals() {
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "W", 16, 64).with_dispersal(48)
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let a = worst_case_latency(&program, FileId(0), 16, 2);
        assert!(!a.exact);
        assert!(a.latency >= 16);
    }

    #[test]
    fn exact_adversary_dominates_the_greedy_one() {
        // On a small instance the exact adversary must be at least as bad
        // (for the client) as the greedy heuristic.
        let files = paper_files(true);
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let receptions = reception_sequence(&program, FileId(0));
        let cycle = program.data_cycle();
        for start in 0..cycle {
            for r in 0..=3 {
                let exact = latency_from(&receptions, cycle, start, 5, r, true);
                let greedy = latency_from(&receptions, cycle, start, 5, r, false);
                assert!(exact >= greedy, "start {start}, r {r}");
            }
        }
    }

    /// The pre-pruning exhaustive adversary (memoised over every reception,
    /// branching on duplicates too), kept as the exactness oracle for the
    /// branch-and-bound search.
    fn exhaustive_adversary(
        stream: &[Reception],
        index: usize,
        collected: u64,
        threshold: usize,
        errors_left: usize,
        memo: &mut std::collections::HashMap<(usize, u64, usize), usize>,
    ) -> usize {
        if index >= stream.len() {
            return stream.last().map(|r| r.slot).unwrap_or(0);
        }
        let key = (index, collected, errors_left);
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let reception = stream[index];
        let bit = 1u64 << reception.block;
        let succeed = {
            let next = collected | bit;
            if next.count_ones() as usize >= threshold {
                reception.slot
            } else {
                exhaustive_adversary(stream, index + 1, next, threshold, errors_left, memo)
            }
        };
        let fail = if errors_left > 0 {
            exhaustive_adversary(
                stream,
                index + 1,
                collected,
                threshold,
                errors_left - 1,
                memo,
            )
        } else {
            0
        };
        let best = succeed.max(fail);
        memo.insert(key, best);
        best
    }

    #[test]
    fn branch_and_bound_matches_the_exhaustive_adversary() {
        // Identical results on every instance the old memoised search could
        // handle: the pruning must not change a single number.
        let programs = [
            BroadcastProgram::aida_flat(&paper_files(true), FlatOrder::Spread).unwrap(),
            BroadcastProgram::flat(&paper_files(false), FlatOrder::Spread).unwrap(),
            BroadcastProgram::aida_flat(&paper_files(true), FlatOrder::Sequential).unwrap(),
        ];
        for program in &programs {
            let cycle = program.data_cycle();
            for (file, m) in [(FileId(0), 5usize), (FileId(1), 3usize)] {
                let receptions = reception_sequence(program, file);
                for start in 0..cycle {
                    for r in 0..=4usize {
                        let cycles_needed = r + m + 1;
                        let mut stream = Vec::new();
                        for c in 0..cycles_needed {
                            for rec in &receptions {
                                let slot = rec.slot + c * cycle;
                                if slot >= start {
                                    stream.push(Reception {
                                        slot,
                                        block: rec.block,
                                    });
                                }
                            }
                        }
                        let mut memo = std::collections::HashMap::new();
                        let reference = exhaustive_adversary(&stream, 0, 0, m, r, &mut memo);
                        let mut incumbent = 0usize;
                        bb_search(&stream, 0, 0, m, r, &mut incumbent);
                        assert_eq!(incumbent, reference, "file {file}, start {start}, r {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_analysis_scales_past_twenty_dispersed_blocks() {
        // n = 36 > the old limit of 20: the pruned search stays exact (and
        // fast — the old memoised search would have needed 2³⁶-sized keys).
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "W", 12, 64).with_dispersal(36),
            BroadcastFile::new(FileId(1), "X", 4, 64).with_dispersal(12),
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let delta = program.max_gap(FileId(0)).unwrap();
        for r in 0..=3usize {
            let a = worst_case_latency(&program, FileId(0), 12, r);
            assert!(a.exact, "n = 36 must use the exact adversary now");
            // Lemma 2 still bounds the extra delay (r within redundancy).
            assert!(
                a.extra_delay <= r * delta,
                "r={r}: extra {} > r·Δ = {}",
                a.extra_delay,
                r * delta
            );
        }
        // Monotone in r, and the pruned search dominates greedy.
        let table = worst_case_table(&program, FileId(0), 12, 3);
        assert!(table.windows(2).all(|w| w[0].latency <= w[1].latency));
    }
}
