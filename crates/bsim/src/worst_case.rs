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
//! The analysis is exact at every dispersal width.  The program repeats
//! every data cycle, so the file's receptions in one cycle, read as a
//! periodic stream, are every reception there is.  Only one request slot
//! per reception is tried: the slot just after it.  Every later request
//! before the next reception waits for the same receptions and completes at
//! the same slot, so the earliest of them has the longest latency.
//!
//! From each request slot the adversary's choice of failures is explored by
//! a branch-and-bound search.  Two structural facts shrink the space far
//! below the naive `2^receptions`:
//!
//! 1. only receptions carrying a *new* block are choice points — failing a
//!    duplicate wastes an error and receiving one changes nothing — so the
//!    search tree has depth at most `m + r`;
//! 2. from any state, completion is forced no later than the slot where
//!    `need + errors_left` *distinct* uncollected blocks have gone by (the
//!    adversary can fail at most `errors_left` of their first appearances),
//!    and no later than the end of `errors_left + 1` data cycles (each
//!    carries every block once or more, so every block gets through), which
//!    gives an admissible upper bound to prune against the incumbent.

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
}

/// Computes the worst-case retrieval latency (slots) for retrieving `file`
/// (needing `threshold` distinct blocks) from `program`, when an adversary
/// chooses the request slot and fails up to `errors` receptions.
///
/// # Panics
///
/// If `file` never appears in `program`, or `program` carries fewer than
/// `threshold` distinct blocks of it.
pub fn worst_case_latency(
    program: &BroadcastProgram,
    file: FileId,
    threshold: usize,
    errors: usize,
) -> WorstCaseAnalysis {
    let receptions = Receptions::of(program, file, threshold);
    let latency = receptions.worst_latency(errors);
    WorstCaseAnalysis {
        errors,
        latency,
        extra_delay: latency - receptions.worst_latency(0),
    }
}

/// The worst-case analysis for every `r = 0..=max_errors`, sharing one
/// fault-free worst case.
///
/// # Panics
///
/// As [`worst_case_latency`].
pub fn worst_case_table(
    program: &BroadcastProgram,
    file: FileId,
    threshold: usize,
    max_errors: usize,
) -> Vec<WorstCaseAnalysis> {
    let receptions = Receptions::of(program, file, threshold);
    let latencies: Vec<usize> = (0..=max_errors)
        .map(|errors| receptions.worst_latency(errors))
        .collect();
    latencies
        .iter()
        .enumerate()
        .map(|(errors, &latency)| WorstCaseAnalysis {
            errors,
            latency,
            extra_delay: latency - latencies[0],
        })
        .collect()
}

/// One reception opportunity for the target file.
#[derive(Debug, Clone, Copy)]
struct Reception {
    slot: usize,
    block: u32,
}

/// The target file's receptions in one data cycle, read as an endless
/// periodic stream: reception `k` is the `(k mod len)`-th of the cycle,
/// `k / len` cycles later.
struct Receptions {
    cycle: usize,
    once: Vec<Reception>,
    /// One past the largest block index the file is broadcast with.
    width: usize,
    threshold: usize,
}

impl Receptions {
    fn of(program: &BroadcastProgram, file: FileId, threshold: usize) -> Receptions {
        let once: Vec<Reception> = program
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
            .collect();
        assert!(!once.is_empty(), "file {file} never appears in the program");
        let width = once.iter().map(|r| r.block as usize).max().unwrap_or(0) + 1;
        let mut distinct = BlockSet::with_width(width);
        for r in &once {
            distinct.insert(r.block);
        }
        assert!(
            threshold <= distinct.len,
            "file {file} needs {threshold} distinct blocks but the program carries only {}",
            distinct.len
        );
        Receptions {
            cycle: program.data_cycle(),
            once,
            width,
            threshold,
        }
    }

    /// Reception `k` of the periodic stream.
    fn at(&self, k: usize) -> Reception {
        let r = self.once[k % self.once.len()];
        Reception {
            slot: r.slot + (k / self.once.len()) * self.cycle,
            block: r.block,
        }
    }

    /// The worst latency over every request slot, when the adversary may
    /// fail up to `errors` receptions: the worst over the slots just after
    /// each reception, each of which waits from the next reception on.
    fn worst_latency(&self, errors: usize) -> usize {
        (0..self.once.len())
            .map(|k| self.latest_completion(k + 1, errors) - self.once[k].slot)
            .max()
            .expect("the file appears in the program")
    }

    /// The latest slot at which a client listening from reception `from`
    /// on completes, over every choice of up to `errors` failures.
    fn latest_completion(&self, from: usize, errors: usize) -> usize {
        let mut search = Search {
            receptions: self,
            collected: BlockSet::with_width(self.width),
            scratch: BlockSet::with_width(self.width),
            latest: 0,
        };
        search.branch(from, errors);
        search.latest
    }
}

/// A set of block indices, one bit per index below the file's width.
#[derive(Clone)]
struct BlockSet {
    words: Vec<u64>,
    len: usize,
}

impl BlockSet {
    fn with_width(width: usize) -> BlockSet {
        BlockSet {
            words: vec![0; width.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, block: u32) -> bool {
        self.words[block as usize / 64] & (1 << (block % 64)) != 0
    }

    /// Adds `block`, returning whether it was new.
    fn insert(&mut self, block: u32) -> bool {
        let new = !self.contains(block);
        self.words[block as usize / 64] |= 1 << (block % 64);
        self.len += usize::from(new);
        new
    }

    /// Takes out `block`, which must be in the set.
    fn remove(&mut self, block: u32) {
        self.words[block as usize / 64] &= !(1 << (block % 64));
        self.len -= 1;
    }
}

/// The branch-and-bound adversary for one request slot.
struct Search<'a> {
    receptions: &'a Receptions,
    /// The blocks the client holds in the state being explored.
    collected: BlockSet,
    /// Room for the forward scans to mark blocks without touching
    /// `collected`.
    scratch: BlockSet,
    /// The incumbent: the latest completion slot found so far.
    latest: usize,
}

impl Search<'_> {
    /// Maximises the completion slot over all choices of which receptions
    /// from `index` on to fail (at most `errors_left`).
    ///
    /// Only receptions carrying a block the client has not collected are
    /// choice points: failing a reception of an already-collected block
    /// spends an error without changing the client's state, and receiving
    /// one is a no-op — an adversary that skips such moves does at least as
    /// well, so restricting the branching preserves exactness while capping
    /// the tree depth at `threshold + errors_left`.
    fn branch(&mut self, index: usize, errors_left: usize) {
        if errors_left == 0 {
            // No choices left: the client collects deterministically.
            let slot = self.fault_free_completion(index);
            self.latest = self.latest.max(slot);
            return;
        }
        if self.completion_bound(index, errors_left) <= self.latest {
            return;
        }
        // Advance to the next choice point: a reception of an uncollected
        // block.  One exists within a cycle, since the client holds fewer
        // than `threshold` of the file's distinct blocks.
        let mut i = index;
        while self.collected.contains(self.receptions.at(i).block) {
            i += 1;
        }
        let at = self.receptions.at(i);
        // Fail branch first: delaying moves tend to raise the incumbent
        // early, which makes the bound prune harder on the success branches.
        self.branch(i + 1, errors_left - 1);
        self.collected.insert(at.block);
        if self.collected.len >= self.receptions.threshold {
            self.latest = self.latest.max(at.slot);
        } else {
            self.branch(i + 1, errors_left);
        }
        self.collected.remove(at.block);
    }

    /// The slot at which the client completes from reception `index` on
    /// when no further receptions fail.
    fn fault_free_completion(&mut self, index: usize) -> usize {
        self.scratch.clone_from(&self.collected);
        (index..)
            .map(|k| self.receptions.at(k))
            .find(|r| self.scratch.insert(r.block) && self.scratch.len >= self.receptions.threshold)
            .expect("a data cycle carries every block")
            .slot
    }

    /// An upper bound on the completion slot any adversary with
    /// `errors_left` failures can force from reception `index` on: the slot
    /// of the `(need + errors_left)`-th *distinct* uncollected block, or the
    /// end of `errors_left + 1` data cycles, whichever comes first.
    fn completion_bound(&mut self, index: usize, errors_left: usize) -> usize {
        let target = self.receptions.threshold - self.collected.len + errors_left;
        let horizon = index + (errors_left + 1) * self.receptions.once.len();
        self.scratch.clone_from(&self.collected);
        let mut distinct = 0;
        for k in index..horizon {
            let r = self.receptions.at(k);
            if self.scratch.insert(r.block) {
                distinct += 1;
                if distinct >= target {
                    return r.slot;
                }
            }
        }
        self.receptions.at(horizon - 1).slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdisk::{BroadcastFile, BroadcastProgram, FileSet, FlatOrder};
    use std::collections::HashMap;

    fn paper_files(dispersed: bool) -> FileSet {
        let (na, nb) = if dispersed { (10, 6) } else { (5, 3) };
        FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(na),
            BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(nb),
        ])
        .unwrap()
    }

    /// The three programs of the paper's two-file example: AIDA spread,
    /// flat spread and AIDA sequential.
    fn paper_programs() -> [BroadcastProgram; 3] {
        [
            BroadcastProgram::aida_flat(&paper_files(true), FlatOrder::Spread).unwrap(),
            BroadcastProgram::flat(&paper_files(false), FlatOrder::Spread).unwrap(),
            BroadcastProgram::aida_flat(&paper_files(true), FlatOrder::Sequential).unwrap(),
        ]
    }

    fn extra_delays(program: &BroadcastProgram, m: usize, max_errors: usize) -> Vec<usize> {
        worst_case_table(program, FileId(0), m, max_errors)
            .iter()
            .map(|a| a.extra_delay)
            .collect()
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
        // (the `lemmas` experiment sweeps r only within the redundancy).
        // File A tolerates 5 errors, file B only 3.
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
        let [aida, flat, _] = paper_programs();
        let without = extra_delays(&flat, 5, 5);
        let with = extra_delays(&aida, 5, 5);
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
    #[should_panic(expected = "file F0 needs 6 distinct blocks but the program carries only 5")]
    fn a_threshold_above_the_files_distinct_blocks_is_refused() {
        let [_, flat, _] = paper_programs();
        worst_case_latency(&flat, FileId(0), 6, 1);
    }

    /// The receptions from slot `start` on, copied out for `cycles` data
    /// cycles: the finite stream the exhaustive oracle walks.
    fn copied_stream(receptions: &Receptions, start: usize, cycles: usize) -> Vec<Reception> {
        (0..cycles * receptions.once.len())
            .map(|k| receptions.at(k))
            .filter(|r| r.slot >= start)
            .collect()
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
        memo: &mut HashMap<(usize, u64, usize), usize>,
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

    /// The exhaustive adversary's latest completion slot for a request at
    /// `start`, over a stream long enough that it never runs dry.
    fn exhaustive_completion(receptions: &Receptions, start: usize, errors: usize) -> usize {
        let cycles = errors + receptions.threshold + 1;
        let stream = copied_stream(receptions, start, cycles);
        let mut memo = HashMap::new();
        exhaustive_adversary(&stream, 0, 0, receptions.threshold, errors, &mut memo)
    }

    #[test]
    fn branch_and_bound_matches_the_exhaustive_adversary() {
        // Identical results from every request slot: neither the pruning
        // nor the periodic view may change a single number.
        for program in &paper_programs() {
            for (file, m) in [(FileId(0), 5usize), (FileId(1), 3usize)] {
                let receptions = Receptions::of(program, file, m);
                for start in 0..program.data_cycle() {
                    // The first reception at or after `start`.
                    let first = receptions
                        .once
                        .iter()
                        .position(|r| r.slot >= start)
                        .unwrap_or(receptions.once.len());
                    for r in 0..=4usize {
                        assert_eq!(
                            receptions.latest_completion(first, r),
                            exhaustive_completion(&receptions, start, r),
                            "file {file}, start {start}, r {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_slots_just_after_each_reception_hold_the_worst_request() {
        // Trying one request slot per reception loses nothing: the worst
        // over them is the worst over every slot of the data cycle.
        for program in &paper_programs() {
            for (file, m) in [(FileId(0), 5usize), (FileId(1), 3usize)] {
                let receptions = Receptions::of(program, file, m);
                for r in 0..=4usize {
                    let every_start = (0..program.data_cycle())
                        .map(|start| exhaustive_completion(&receptions, start, r) - start + 1)
                        .max()
                        .unwrap();
                    assert_eq!(
                        worst_case_latency(program, file, m, r).latency,
                        every_start,
                        "file {file}, r {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_dispersals_are_analysed_exactly() {
        // Widths past any machine word: two (64, 68) files, as the wire
        // workloads serve, and one (16, 48) file.
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "W", 64, 64).with_dispersal(68),
            BroadcastFile::new(FileId(1), "X", 64, 64).with_dispersal(68),
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let latencies: Vec<usize> = worst_case_table(&program, FileId(0), 64, 4)
            .iter()
            .map(|a| a.latency)
            .collect();
        assert_eq!(latencies, [128, 130, 132, 134, 136]);

        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "W", 16, 64).with_dispersal(48)
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let latencies: Vec<usize> = worst_case_table(&program, FileId(0), 16, 2)
            .iter()
            .map(|a| a.latency)
            .collect();
        assert_eq!(latencies, [16, 17, 18]);
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
            // Lemma 2 still bounds the extra delay (r within redundancy).
            assert!(
                a.extra_delay <= r * delta,
                "r={r}: extra {} > r·Δ = {}",
                a.extra_delay,
                r * delta
            );
        }
        // Monotone in r.
        let table = worst_case_table(&program, FileId(0), 12, 3);
        assert!(table.windows(2).all(|w| w[0].latency <= w[1].latency));
    }
}
