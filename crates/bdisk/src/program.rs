//! Broadcast programs: the cyclic layout of blocks on the channel.
//!
//! A broadcast program assigns to every time slot either a block of some file
//! or nothing (an idle slot).  Two nested cycles matter (paper Figure 6):
//!
//! * the **broadcast period** `τ` — long enough that every file has enough
//!   blocks (at least `mᵢ`) in it for a client to reconstruct it;
//! * the **program data cycle** — long enough that *every dispersed block* of
//!   every file appears; the server transmits different dispersed blocks of a
//!   file in successive broadcast periods, which is what turns one lost block
//!   into a wait of a few slots rather than a whole period.

use crate::{BroadcastFile, FileSet};
use ida::FileId;
use pinwheel::{Schedule, TaskId};
use std::collections::BTreeMap;

/// One slot of a broadcast program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramEntry {
    /// Nothing is transmitted in this slot.
    Idle,
    /// A specific dispersed block of a file is transmitted.
    Block {
        /// The file the block belongs to.
        file: FileId,
        /// The dispersal index of the block (`0 ≤ block < nᵢ`).
        block: u32,
    },
}

/// How a flat program orders blocks within one broadcast period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlatOrder {
    /// Blocks of each file are spread as uniformly as possible across the
    /// period (the layout of the paper's Figure 6, which minimises the
    /// maximum inter-block gap Δ and therefore the error-recovery delay of
    /// Lemma 2).
    #[default]
    Spread,
    /// Blocks are laid out file after file (simplest possible program).
    Sequential,
}

/// Errors from program construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The file set was empty.
    EmptyFileSet,
    /// A pinwheel-schedule-driven program referenced a task with no file
    /// mapping.
    UnmappedTask(TaskId),
    /// A file never appears in the driving pinwheel schedule.
    FileNeverScheduled(FileId),
}

impl core::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProgramError::EmptyFileSet => write!(f, "cannot build a program over no files"),
            ProgramError::UnmappedTask(t) => write!(f, "pinwheel task {t} has no file mapping"),
            ProgramError::FileNeverScheduled(id) => {
                write!(f, "file {id} never appears in the schedule")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A cyclic broadcast program covering one full program data cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastProgram {
    entries: Vec<ProgramEntry>,
    broadcast_period: usize,
}

impl BroadcastProgram {
    /// A *flat* broadcast program (paper Figure 5): every file contributes
    /// its `mᵢ` source blocks once per broadcast period; the data cycle
    /// equals the broadcast period.
    pub fn flat(files: &FileSet, order: FlatOrder) -> Result<Self, ProgramError> {
        if files.is_empty() {
            return Err(ProgramError::EmptyFileSet);
        }
        let layout = period_layout(files.files(), order, |f| f.size_blocks);
        let period = layout.len();
        let mut counters: BTreeMap<FileId, u32> = BTreeMap::new();
        let entries = layout
            .into_iter()
            .map(|file| {
                let c = counters.entry(file).or_insert(0);
                let sized = files
                    .get(file)
                    .expect("layout uses known files")
                    .size_blocks;
                let entry = ProgramEntry::Block {
                    file,
                    block: *c % sized,
                };
                *c += 1;
                entry
            })
            .collect();
        Ok(BroadcastProgram {
            entries,
            broadcast_period: period,
        })
    }

    /// An *AIDA-based* flat broadcast program (paper Figure 6): every file
    /// still contributes `mᵢ` blocks per broadcast period, but successive
    /// periods carry different dispersed blocks, cycling through all `nᵢ` of
    /// them over the program data cycle.
    pub fn aida_flat(files: &FileSet, order: FlatOrder) -> Result<Self, ProgramError> {
        if files.is_empty() {
            return Err(ProgramError::EmptyFileSet);
        }
        let layout = period_layout(files.files(), order, |f| f.size_blocks);
        let period = layout.len();
        // Number of broadcast periods in a full data cycle: each file wraps
        // after nᵢ / gcd(nᵢ, mᵢ) periods.
        let periods = files
            .files()
            .iter()
            .map(|f| {
                let n = u64::from(f.dispersed_blocks.max(1));
                let m = u64::from(f.size_blocks.max(1));
                n / gcd(n, m)
            })
            .fold(1u64, lcm) as usize;
        let mut counters: BTreeMap<FileId, u64> = BTreeMap::new();
        let mut entries = Vec::with_capacity(period * periods);
        for _ in 0..periods {
            for &file in &layout {
                let n = files
                    .get(file)
                    .expect("layout uses known files")
                    .dispersed_blocks
                    .max(1);
                let c = counters.entry(file).or_insert(0);
                entries.push(ProgramEntry::Block {
                    file,
                    block: (*c % u64::from(n)) as u32,
                });
                *c += 1;
            }
        }
        Ok(BroadcastProgram {
            entries,
            broadcast_period: period,
        })
    }

    /// Builds a program from a pinwheel schedule: every slot allocated to a
    /// task broadcasts the next dispersed block of the mapped file (block
    /// indices advance round-robin over the file's `nᵢ` dispersed blocks, so
    /// the data cycle is the schedule period times however many repetitions
    /// it takes every file's counter to wrap).
    ///
    /// `mapping` translates scheduled task ids to broadcast files — this is
    /// where the paper's `map(i′, i)` aliases collapse back onto their file.
    pub fn from_pinwheel_schedule(
        schedule: &Schedule,
        files: &FileSet,
        mapping: impl Fn(TaskId) -> Option<FileId>,
    ) -> Result<Self, ProgramError> {
        if files.is_empty() {
            return Err(ProgramError::EmptyFileSet);
        }
        let period = schedule.period();
        // Occurrences of each file per schedule period.
        let mut per_period: BTreeMap<FileId, u64> = BTreeMap::new();
        for slot in 0..period {
            if let Some(task) = schedule.at(slot) {
                let file = mapping(task).ok_or(ProgramError::UnmappedTask(task))?;
                *per_period.entry(file).or_insert(0) += 1;
            }
        }
        for f in files.files() {
            if !per_period.contains_key(&f.id) {
                return Err(ProgramError::FileNeverScheduled(f.id));
            }
        }
        let repetitions = files
            .files()
            .iter()
            .map(|f| {
                let n = u64::from(f.dispersed_blocks.max(1));
                let k = per_period[&f.id];
                n / gcd(n, k)
            })
            .fold(1u64, lcm) as usize;

        let mut counters: BTreeMap<FileId, u64> = BTreeMap::new();
        let mut entries = Vec::with_capacity(period * repetitions);
        for rep in 0..repetitions {
            for slot in 0..period {
                match schedule.at(slot) {
                    None => entries.push(ProgramEntry::Idle),
                    Some(task) => {
                        let file = mapping(task).ok_or(ProgramError::UnmappedTask(task))?;
                        let n = files
                            .get(file)
                            .expect("checked above")
                            .dispersed_blocks
                            .max(1);
                        let c = counters.entry(file).or_insert(0);
                        entries.push(ProgramEntry::Block {
                            file,
                            block: (*c % u64::from(n)) as u32,
                        });
                        *c += 1;
                    }
                }
            }
            let _ = rep;
        }
        Ok(BroadcastProgram {
            entries,
            broadcast_period: period,
        })
    }

    /// The broadcast period `τ` in slots.
    pub fn broadcast_period(&self) -> usize {
        self.broadcast_period
    }

    /// The program data cycle length in slots.
    pub fn data_cycle(&self) -> usize {
        self.entries.len()
    }

    /// The entry transmitted in (infinite-schedule) slot `t`.
    pub fn entry(&self, slot: usize) -> ProgramEntry {
        if self.entries.is_empty() {
            return ProgramEntry::Idle;
        }
        self.entries[slot % self.entries.len()]
    }

    /// All entries of one data cycle.
    pub fn entries(&self) -> &[ProgramEntry] {
        &self.entries
    }

    /// Slots (within one data cycle) at which `file` is transmitted.
    pub(crate) fn occurrence_slots(&self, file: FileId) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                ProgramEntry::Block { file: f, .. } if *f == file => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Number of occurrences of `file` per data cycle.
    pub fn occurrences(&self, file: FileId) -> usize {
        self.occurrence_slots(file).len()
    }

    /// The maximum gap Δ, in slots, between consecutive transmissions of any
    /// block of `file` in the infinite repetition of the program — the
    /// quantity in the paper's Lemma 2.  `None` if the file never appears.
    pub fn max_gap(&self, file: FileId) -> Option<usize> {
        let slots = self.occurrence_slots(file);
        if slots.is_empty() {
            return None;
        }
        let cycle = self.data_cycle();
        let mut max = 0;
        for (i, &s) in slots.iter().enumerate() {
            let next = if i + 1 < slots.len() {
                slots[i + 1]
            } else {
                slots[0] + cycle
            };
            max = max.max(next - s);
        }
        Some(max)
    }

    /// Fraction of slots per data cycle carrying a block.
    pub fn utilization(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let busy = self
            .entries
            .iter()
            .filter(|e| matches!(e, ProgramEntry::Block { .. }))
            .count();
        busy as f64 / self.entries.len() as f64
    }

    /// Renders one data cycle in the paper's figure notation, e.g.
    /// `A1 B1 A2 …` given a naming function.
    pub fn render(&self, name: impl Fn(FileId) -> String) -> String {
        self.entries
            .iter()
            .map(|e| match e {
                ProgramEntry::Idle => "·".to_string(),
                ProgramEntry::Block { file, block } => format!("{}{}", name(*file), block + 1),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Lays out one broadcast period: each file appears `quota(f)` times, ordered
/// according to `order`.
fn period_layout(
    files: &[BroadcastFile],
    order: FlatOrder,
    quota: impl Fn(&BroadcastFile) -> u32,
) -> Vec<FileId> {
    match order {
        FlatOrder::Sequential => {
            let mut out = Vec::new();
            for f in files {
                for _ in 0..quota(f) {
                    out.push(f.id);
                }
            }
            out
        }
        FlatOrder::Spread => {
            // Largest-accumulated-credit spreading (a Bresenham-style
            // interleave): every slot each file gains credit equal to its
            // quota, and the file with the largest credit transmits, paying
            // the full period back.  Reproduces the layout of Figure 6.
            let total: i64 = files.iter().map(|f| i64::from(quota(f))).sum();
            let mut credit: Vec<i64> = vec![0; files.len()];
            let mut out = Vec::with_capacity(total as usize);
            for _ in 0..total {
                for (i, f) in files.iter().enumerate() {
                    credit[i] += i64::from(quota(f));
                }
                let chosen = (0..files.len())
                    .max_by_key(|&i| {
                        (
                            credit[i],
                            quota(&files[i]),
                            std::cmp::Reverse(files[i].id.0),
                        )
                    })
                    .expect("non-empty file list");
                credit[chosen] -= total;
                out.push(files[chosen].id);
            }
            out
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_files() -> FileSet {
        FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(10),
            BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(6),
        ])
        .unwrap()
    }

    fn name(id: FileId) -> String {
        match id.0 {
            0 => "A".to_string(),
            1 => "B".to_string(),
            other => format!("F{other}"),
        }
    }

    #[test]
    fn flat_program_matches_figure_5_structure() {
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 64),
            BroadcastFile::new(FileId(1), "B", 3, 64),
        ])
        .unwrap();
        let p = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
        assert_eq!(p.broadcast_period(), 8);
        assert_eq!(p.data_cycle(), 8);
        assert_eq!(p.occurrences(FileId(0)), 5);
        assert_eq!(p.occurrences(FileId(1)), 3);
        // Every block index 0..5 of A appears exactly once.
        let mut a_blocks: Vec<u32> = p
            .entries()
            .iter()
            .filter_map(|e| match e {
                ProgramEntry::Block { file, block } if *file == FileId(0) => Some(*block),
                _ => None,
            })
            .collect();
        a_blocks.sort_unstable();
        assert_eq!(a_blocks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn aida_flat_program_matches_figure_6() {
        let p = BroadcastProgram::aida_flat(&paper_files(), FlatOrder::Spread).unwrap();
        assert_eq!(p.broadcast_period(), 8);
        assert_eq!(p.data_cycle(), 16);
        // All 10 dispersed blocks of A and all 6 of B appear exactly once per
        // data cycle.
        for (file, n) in [(FileId(0), 10u32), (FileId(1), 6u32)] {
            let mut blocks: Vec<u32> = p
                .entries()
                .iter()
                .filter_map(|e| match e {
                    ProgramEntry::Block { file: f, block } if *f == file => Some(*block),
                    _ => None,
                })
                .collect();
            blocks.sort_unstable();
            assert_eq!(blocks, (0..n).collect::<Vec<_>>());
        }
        // The rendered first period matches the paper's layout
        // A1 B1 A2 A3 B2 A4 B3 A5.
        let rendered = p.render(name);
        assert!(
            rendered.starts_with("A1 B1 A2 A3 B2 A4 B3 A5"),
            "got {rendered}"
        );
    }

    #[test]
    fn spread_order_minimises_the_maximum_gap() {
        let files = paper_files();
        let spread = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let seq = BroadcastProgram::aida_flat(&files, FlatOrder::Sequential).unwrap();
        // For file B the spread layout has gap ≤ 3 while sequential groups
        // all three blocks together, leaving a gap of 6.
        assert!(spread.max_gap(FileId(1)).unwrap() <= 3);
        assert!(seq.max_gap(FileId(1)).unwrap() >= 6);
    }

    #[test]
    fn section_2_3_uniform_spreading_example() {
        // "if the broadcast program consists of 200 blocks from 10 different
        // files, each consisting of 20 blocks, then it is possible to spread
        // the blocks in such a way that blocks from the same file are located
        // at most Δ = 10 blocks away from each other."
        let files: FileSet = (0..10)
            .map(|i| BroadcastFile::new(FileId(i), format!("F{i}"), 20, 64))
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let p = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
        assert_eq!(p.data_cycle(), 200);
        for i in 0..10 {
            assert_eq!(p.max_gap(FileId(i)), Some(10), "file {i}");
        }
    }

    #[test]
    fn sequential_order_concatenates_files() {
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 2, 64),
            BroadcastFile::new(FileId(1), "B", 2, 64),
        ])
        .unwrap();
        let p = BroadcastProgram::flat(&files, FlatOrder::Sequential).unwrap();
        let rendered = p.render(name);
        assert_eq!(rendered, "A1 A2 B1 B2");
    }

    #[test]
    fn empty_file_set_is_rejected() {
        let empty = FileSet::default();
        assert_eq!(
            BroadcastProgram::flat(&empty, FlatOrder::Spread).unwrap_err(),
            ProgramError::EmptyFileSet
        );
        assert_eq!(
            BroadcastProgram::aida_flat(&empty, FlatOrder::Spread).unwrap_err(),
            ProgramError::EmptyFileSet
        );
    }

    #[test]
    fn pinwheel_program_advances_block_indices() {
        use pinwheel::Schedule;
        // Schedule: file A (task 1) every other slot, file B (task 2) the rest.
        let schedule = Schedule::from_tasks(vec![1, 2, 1, 2]);
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 2, 64).with_dispersal(4),
            BroadcastFile::new(FileId(1), "B", 1, 64).with_dispersal(3),
        ])
        .unwrap();
        let p = BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |t| match t {
            1 => Some(FileId(0)),
            2 => Some(FileId(1)),
            _ => None,
        })
        .unwrap();
        assert_eq!(p.broadcast_period(), 4);
        // A appears twice per period with 4 dispersed blocks → wraps after 2
        // periods; B appears twice per period with 3 blocks → wraps after 3.
        // Data cycle = 4 · lcm(2, 3) = 24.
        assert_eq!(p.data_cycle(), 24);
        // Every dispersed block of each file appears at least once.
        for (file, n) in [(FileId(0), 4u32), (FileId(1), 3u32)] {
            for b in 0..n {
                assert!(
                    p.entries()
                        .contains(&ProgramEntry::Block { file, block: b }),
                    "missing block {b} of {file}"
                );
            }
        }
    }

    #[test]
    fn pinwheel_program_errors() {
        use pinwheel::Schedule;
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 2, 64),
            BroadcastFile::new(FileId(1), "B", 1, 64),
        ])
        .unwrap();
        let schedule = Schedule::from_tasks(vec![1, 1]);
        // Task 1 unmapped.
        assert_eq!(
            BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |_| None).unwrap_err(),
            ProgramError::UnmappedTask(1)
        );
        // File B never scheduled.
        assert_eq!(
            BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |t| {
                (t == 1).then_some(FileId(0))
            })
            .unwrap_err(),
            ProgramError::FileNeverScheduled(FileId(1))
        );
    }

    #[test]
    fn idle_slots_are_preserved_from_the_schedule() {
        use pinwheel::Schedule;
        let schedule = Schedule::new(vec![Some(1), None, Some(1), None]);
        let files = FileSet::new(vec![BroadcastFile::new(FileId(0), "A", 1, 64)]).unwrap();
        let p = BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |_| Some(FileId(0)))
            .unwrap();
        assert_eq!(p.utilization(), 0.5);
        assert_eq!(p.entry(1), ProgramEntry::Idle);
        assert_eq!(p.entry(5), ProgramEntry::Idle);
    }

    #[test]
    fn entry_indexing_wraps_around_the_data_cycle() {
        let p = BroadcastProgram::aida_flat(&paper_files(), FlatOrder::Spread).unwrap();
        assert_eq!(p.entry(0), p.entry(16));
        assert_eq!(p.entry(7), p.entry(23));
    }
}
