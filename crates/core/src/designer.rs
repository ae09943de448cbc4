//! The end-to-end broadcast-program designer for generalized fault-tolerant
//! real-time broadcast disks (paper Section 4).
//!
//! Pipeline, given the available bandwidth (slots are block-transmission
//! times, so latencies are expressed directly in slots):
//!
//! 1. every file specification becomes a broadcast condition `bc(i, mᵢ, d⃗ᵢ)`;
//! 2. each condition is converted to its best *nice* pinwheel conjunct
//!    (TR1 / TR2 / R1+R5 / subsumption — see [`crate::transform`]);
//! 3. the union of the conjuncts is scheduled by the pinwheel scheduler
//!    cascade;
//! 4. the schedule is turned into a broadcast program: every slot assigned to
//!    any of a file's (possibly aliased) tasks broadcasts that file's next
//!    dispersed block;
//! 5. the program is *verified* against every original broadcast condition —
//!    the report carries the verification result, so a designed program is
//!    never silently wrong.

use crate::transform::{convert_to_nice, Candidate, TaskIdAllocator};
use crate::{Bc, ConditionError, NiceConjunct, Pc};
use bdisk::{BroadcastFile, BroadcastProgram, FileSet, ProgramEntry};
use ida::FileId;
use pinwheel::{AutoScheduler, PinwheelScheduler, Schedule, ScheduleError, Task};
use std::collections::BTreeMap;

/// A generalized fault-tolerant real-time broadcast file specification
/// (paper Section 4.1): `mᵢ` blocks, and for every fault level `j` a
/// worst-case latency `d⁽ʲ⁾ᵢ` in slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizedFileSpec {
    /// The file identifier.
    pub id: FileId,
    /// Human-readable name (propagated into the broadcast file set).
    pub name: String,
    /// File size `mᵢ` in blocks.
    pub size_blocks: u32,
    /// Latency vector `d⃗ᵢ` in slots.
    pub latencies: Vec<u32>,
    /// Size of one block in bytes (defaults to 512; only matters when the
    /// program is actually served).
    pub block_bytes: u32,
    /// A floor on the dispersal width `nᵢ` the designer chooses (default 0 —
    /// no floor beyond the designer's own `mᵢ + rᵢ` minimum).  Mode profiles
    /// use this to demand extra AIDA redundancy for a file without touching
    /// its latency vector: the designer transmits at least this many distinct
    /// dispersed blocks per data cycle.
    pub min_dispersal: u32,
}

impl GeneralizedFileSpec {
    /// Creates a specification; fails if the latency vector is empty, has a
    /// zero entry, or makes some fault level unsatisfiable.
    pub fn new(id: FileId, size_blocks: u32, latencies: Vec<u32>) -> Result<Self, ConditionError> {
        // Validate through Bc construction.
        Bc::new(id, size_blocks, latencies.clone())?;
        Ok(GeneralizedFileSpec {
            id,
            name: format!("F{}", id.0),
            size_blocks,
            latencies,
            block_bytes: 512,
            min_dispersal: 0,
        })
    }

    /// Sets a human-readable name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the block size in bytes.
    pub fn with_block_bytes(mut self, block_bytes: u32) -> Self {
        self.block_bytes = block_bytes;
        self
    }

    /// Sets a floor on the dispersal width the designer chooses for this
    /// file (clamped to the GF(2⁸) maximum of 255 dispersed blocks).  The
    /// designer still widens beyond the floor when the schedule gives the
    /// file more per-cycle occurrences.
    pub fn with_min_dispersal(mut self, width: u32) -> Self {
        self.min_dispersal = width.min(255);
        self
    }

    /// The broadcast condition of this specification.
    pub fn condition(&self) -> Bc {
        Bc::new(self.id, self.size_blocks, self.latencies.clone())
            .expect("validated at construction")
    }

    /// The number of faults tolerated (`r`).
    pub fn max_faults(&self) -> usize {
        self.latencies.len() - 1
    }
}

/// Why a design attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// No specifications were given.
    NoFiles,
    /// Two specifications share a file id.
    DuplicateFile(FileId),
    /// A specification was invalid.
    Condition(ConditionError),
    /// The combined nice conjunct has density above one — no bandwidth
    /// assignment at this slot granularity can satisfy the specifications.
    DensityExceedsOne {
        /// The combined density.
        density: f64,
    },
    /// Greedy density balancing could not fit the file set onto a fixed
    /// number of channels (each under a density ≤ 1 budget).  The total
    /// density may still be below the aggregate budget: greedy balancing is
    /// not an optimal bin-packer, so a lumpy set can miss a fit that
    /// exists — more channels (or auto mode) will absorb it.
    ChannelOverload {
        /// The requested channel count.
        channels: usize,
        /// The file set's total nice-conjunct density.
        total_density: f64,
    },
    /// The pinwheel scheduler cascade could not construct a schedule.
    Scheduling(ScheduleError),
    /// Program construction failed (should not happen once a schedule
    /// exists; kept as an error rather than a panic).
    Program(String),
}

impl core::fmt::Display for DesignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DesignError::NoFiles => write!(f, "no file specifications supplied"),
            DesignError::DuplicateFile(id) => write!(f, "duplicate file id {id}"),
            DesignError::Condition(e) => write!(f, "invalid specification: {e}"),
            DesignError::DensityExceedsOne { density } => {
                write!(f, "combined condition density {density:.3} exceeds one")
            }
            DesignError::ChannelOverload {
                channels,
                total_density,
            } => write!(
                f,
                "could not balance the file set (total density {total_density:.3}) onto \
                 {channels} channels under a density <= 1 budget each"
            ),
            DesignError::Scheduling(e) => write!(f, "scheduling failed: {e}"),
            DesignError::Program(e) => write!(f, "program construction failed: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<ConditionError> for DesignError {
    fn from(value: ConditionError) -> Self {
        DesignError::Condition(value)
    }
}

impl From<ScheduleError> for DesignError {
    fn from(value: ScheduleError) -> Self {
        DesignError::Scheduling(value)
    }
}

/// The result of a successful design.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// The per-file chosen nice conjuncts (with provenance).
    pub conversions: Vec<(FileId, Candidate)>,
    /// The merged nice conjunct handed to the scheduler.
    pub conjunct: NiceConjunct,
    /// Its density (the quantity compared against 7/10).
    pub density: f64,
    /// The pinwheel schedule (tasks are the conjunct's task ids).
    pub schedule: Schedule,
    /// The broadcast file set (with dispersal widths chosen by the designer).
    pub files: FileSet,
    /// The final broadcast program.
    pub program: BroadcastProgram,
    /// The outcome of verifying the program against every original broadcast
    /// condition; `Ok(())` unless something is deeply wrong.
    pub verification: Result<(), String>,
}

impl DesignReport {
    /// The fraction of program slots left idle.
    pub fn idle_fraction(&self) -> f64 {
        1.0 - self.program.utilization()
    }
}

/// The broadcast-program designer for generalized Bdisks.
///
/// The scheduler backing step 3 of the pipeline is a type parameter so that
/// callers can plug in any [`PinwheelScheduler`] (a `SchedulerChoice`, for
/// one); the default, which every `rtbdisk` station uses, is the
/// [`AutoScheduler`] cascade.
#[derive(Debug, Clone, Default)]
pub struct BdiskDesigner<S: PinwheelScheduler = AutoScheduler> {
    scheduler: S,
}

impl BdiskDesigner<AutoScheduler> {
    /// The default designer, backed by the [`AutoScheduler`] cascade.
    ///
    /// An inherent shadow of `Default::default` so that
    /// `BdiskDesigner::default()` keeps inferring `S = AutoScheduler`
    /// (default type parameters don't participate in expression inference).
    #[allow(clippy::should_implement_trait)]
    pub fn default() -> Self {
        BdiskDesigner {
            scheduler: AutoScheduler,
        }
    }
}

impl<S: PinwheelScheduler> BdiskDesigner<S> {
    /// Creates a designer with an explicitly configured scheduler.
    pub fn with_scheduler(scheduler: S) -> Self {
        BdiskDesigner { scheduler }
    }

    /// The scheduler backing this designer.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Designs a broadcast program for the given specifications.
    pub fn design(&self, specs: &[GeneralizedFileSpec]) -> Result<DesignReport, DesignError> {
        if specs.is_empty() {
            return Err(DesignError::NoFiles);
        }
        for (i, s) in specs.iter().enumerate() {
            if specs.iter().skip(i + 1).any(|t| t.id == s.id) {
                return Err(DesignError::DuplicateFile(s.id));
            }
        }

        // 1–2: conditions → best nice conjunct per file, merged.
        let mut ids = TaskIdAllocator::new(1);
        let mut conversions = Vec::with_capacity(specs.len());
        let mut conjunct = NiceConjunct::default();
        for spec in specs {
            let bc = spec.condition();
            let candidate = convert_to_nice(&bc, &mut ids)?;
            conjunct.merge(candidate.conjunct.clone())?;
            conversions.push((spec.id, candidate));
        }
        let density = conjunct.density();
        if density > 1.0 + 1e-12 {
            return Err(DesignError::DensityExceedsOne { density });
        }

        // 3: schedule the merged conjunct.
        let system = conjunct
            .to_task_system()
            .map_err(|e| DesignError::Program(e.to_string()))?;
        let schedule = self.scheduler.schedule(&system)?;

        // 4: build the broadcast file set and program.  Each file's dispersal
        // width is its per-data-cycle occurrence count — every slot the
        // schedule gives the file broadcasts a distinct dispersed block, the
        // AIDA layout of Section 2.3.
        let mut per_cycle: BTreeMap<FileId, u32> = BTreeMap::new();
        for slot in 0..schedule.period() {
            if let Some(task) = schedule.at(slot) {
                if let Some(file) = conjunct.file_of(task) {
                    *per_cycle.entry(file).or_insert(0) += 1;
                }
            }
        }
        let files: Vec<BroadcastFile> = specs
            .iter()
            .map(|s| {
                let occurrences = per_cycle.get(&s.id).copied().unwrap_or(s.size_blocks);
                // The dispersal width must cover the fault tolerance: a window
                // with mᵢ + j occurrences only yields mᵢ *distinct* blocks
                // after j losses when nᵢ ≥ mᵢ + j, so nᵢ is at least
                // mᵢ + rᵢ (and at least the per-cycle occurrence count, so
                // every visit in a cycle carries a distinct block).
                let min_width = (s.size_blocks + s.max_faults() as u32).max(s.min_dispersal);
                BroadcastFile::new(s.id, s.name.clone(), s.size_blocks, s.block_bytes)
                    .with_dispersal(occurrences.max(min_width))
                    .with_latency_vector(
                        bdisk::LatencyVector::new(s.latencies.clone())
                            .expect("validated at construction"),
                    )
            })
            .collect();
        let files = FileSet::new(files).expect("duplicate ids rejected above");
        let mapping = conjunct.mapping().clone();
        let program = BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |task| {
            mapping.get(&task).copied()
        })
        .map_err(|e| DesignError::Program(e.to_string()))?;

        // 5: verify the program against every original broadcast condition.
        let verification = verify_program(&program, specs);

        Ok(DesignReport {
            conversions,
            density,
            conjunct,
            schedule,
            files,
            program,
            verification,
        })
    }
}

/// Checks that `program` satisfies `bc(i, mᵢ + j, d⁽ʲ⁾)` for every file and
/// fault level: every window of `d⁽ʲ⁾` slots contains at least `mᵢ + j`
/// blocks of the file.
pub(crate) fn verify_program(
    program: &BroadcastProgram,
    specs: &[GeneralizedFileSpec],
) -> Result<(), String> {
    // Reuse the pinwheel verifier by viewing the program as a schedule over
    // file ids.
    let as_schedule = Schedule::new(
        program
            .entries()
            .iter()
            .map(|e| match e {
                ProgramEntry::Idle => None,
                ProgramEntry::Block { file, .. } => Some(file.0),
            })
            .collect(),
    );
    for spec in specs {
        for (j, &d) in spec.latencies.iter().enumerate() {
            let requirement = spec.size_blocks + j as u32;
            let task = Task::new(spec.id.0, requirement, d);
            pinwheel::verify_task(&as_schedule, &task).map_err(|e| {
                format!(
                    "file {} violates fault level {j} (need {requirement} blocks per {d} slots): {e}",
                    spec.id
                )
            })?;
        }
    }
    Ok(())
}

/// Expands the specifications into the conjunct of pinwheel conditions of
/// Lemma 3 (useful for reporting and for the experiments binary).
pub fn lemma_3_conditions(specs: &[GeneralizedFileSpec]) -> Vec<Pc> {
    specs
        .iter()
        .flat_map(|s| s.condition().expand(s.id.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    #[test]
    fn designs_a_simple_two_file_disk() {
        let specs = vec![spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        assert!(report.density <= 1.0);
        assert!(report.verification.is_ok(), "{:?}", report.verification);
        assert_eq!(report.conversions.len(), 2);
        assert_eq!(report.files.len(), 2);
        // Every file appears in the program.
        for s in &specs {
            assert!(report.program.occurrences(s.id) > 0);
        }
    }

    #[test]
    fn designs_the_paper_example_files() {
        // Example 2 and Example 3 files on one disk: total density ≈ 0.143,
        // trivially schedulable; the program must satisfy all fault levels.
        let specs = vec![
            spec(1, 5, &[100, 105, 110, 115, 120]),
            spec(2, 6, &[105, 110]),
        ];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        assert!(report.density < 0.2);
        assert!(report.verification.is_ok(), "{:?}", report.verification);
    }

    #[test]
    fn generalized_latencies_are_honoured_under_inspection() {
        // A file that wants 1 block per 4 slots normally but is content with
        // 2 blocks per 12 slots when one fault occurs.
        let specs = vec![spec(1, 1, &[4, 12]), spec(2, 2, &[9])];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        assert!(report.verification.is_ok());
        // Manual spot check of the fault-free level: max gap ≤ 4.
        assert!(report.program.max_gap(FileId(1)).unwrap() <= 4);
    }

    #[test]
    fn dispersal_width_covers_occurrences_and_fault_tolerance() {
        let specs = vec![spec(1, 2, &[8, 10]), spec(2, 1, &[6])];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        for (file, spec) in report.files.files().iter().zip(&specs) {
            let per_cycle: u32 = report
                .schedule
                .occurrence_map()
                .iter()
                .filter(|(task, _)| report.conjunct.file_of(**task) == Some(file.id))
                .map(|(_, count)| *count as u32)
                .sum();
            let min_width = spec.size_blocks + spec.max_faults() as u32;
            assert_eq!(file.dispersed_blocks, per_cycle.max(min_width));
            assert!(file.dispersed_blocks >= min_width);
        }
    }

    #[test]
    fn min_dispersal_floors_the_chosen_width() {
        let base = vec![spec(1, 2, &[8, 10]), spec(2, 1, &[6])];
        let widened = vec![spec(1, 2, &[8, 10]).with_min_dispersal(9), spec(2, 1, &[6])];
        let plain = BdiskDesigner::default().design(&base).unwrap();
        let floored = BdiskDesigner::default().design(&widened).unwrap();
        assert!(plain.files.get(FileId(1)).unwrap().dispersed_blocks < 9);
        assert_eq!(floored.files.get(FileId(1)).unwrap().dispersed_blocks, 9);
        // The floor adds redundancy only; verification still holds and the
        // untouched file keeps its width.
        assert!(floored.verification.is_ok(), "{:?}", floored.verification);
        assert_eq!(
            plain.files.get(FileId(2)).unwrap().dispersed_blocks,
            floored.files.get(FileId(2)).unwrap().dispersed_blocks
        );
        // The clamp keeps widths representable in GF(2⁸).
        assert_eq!(spec(3, 1, &[9]).with_min_dispersal(400).min_dispersal, 255);
    }

    #[test]
    fn infeasible_specifications_are_rejected() {
        // Three files each demanding half the channel.
        let specs = vec![spec(1, 1, &[2]), spec(2, 1, &[2]), spec(3, 1, &[2])];
        match BdiskDesigner::default().design(&specs) {
            Err(DesignError::DensityExceedsOne { density }) => assert!(density > 1.0),
            other => panic!("expected density error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_empty_inputs_are_rejected() {
        assert_eq!(
            BdiskDesigner::default().design(&[]).unwrap_err(),
            DesignError::NoFiles
        );
        let dup = vec![spec(1, 1, &[4]), spec(1, 1, &[5])];
        assert_eq!(
            BdiskDesigner::default().design(&dup).unwrap_err(),
            DesignError::DuplicateFile(FileId(1))
        );
    }

    #[test]
    fn invalid_specs_surface_condition_errors() {
        assert!(GeneralizedFileSpec::new(FileId(1), 0, vec![5]).is_err());
        assert!(GeneralizedFileSpec::new(FileId(1), 3, vec![5, 3]).is_err());
        assert!(GeneralizedFileSpec::new(FileId(1), 3, vec![]).is_err());
    }

    #[test]
    fn lemma_3_expansion_covers_every_fault_level() {
        let specs = vec![spec(1, 2, &[5, 6, 7]), spec(2, 1, &[3])];
        let conditions = lemma_3_conditions(&specs);
        assert_eq!(conditions.len(), 4);
        assert!(conditions.contains(&Pc::new(1, 4, 7).unwrap()));
        assert!(conditions.contains(&Pc::new(2, 1, 3).unwrap()));
    }

    #[test]
    fn report_exposes_idle_fraction() {
        let specs = vec![spec(1, 1, &[10])];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        assert!(report.idle_fraction() >= 0.0);
        assert!(report.idle_fraction() < 1.0);
    }

    #[test]
    fn awacs_style_mixed_criticality_disk() {
        // Aircraft positions: 1 block, every 4 slots even with 2 faults
        // (high criticality); tank positions: 1 block per 60 slots, 1 fault;
        // terrain data: 8 blocks per 200 slots.
        let specs = vec![
            spec(1, 1, &[4, 8, 12]).with_name("aircraft"),
            spec(2, 1, &[60, 80]).with_name("tank"),
            spec(3, 8, &[200]).with_name("terrain"),
        ];
        let report = BdiskDesigner::default().design(&specs).unwrap();
        assert!(report.verification.is_ok(), "{:?}", report.verification);
        // The aircraft file must come around at least every 4 slots.
        assert!(report.program.max_gap(FileId(1)).unwrap() <= 4);
    }
}
