//! Reproduction of the paper's figures: the example broadcast programs
//! (Figures 5 and 6), the worst-case delay table (Figure 7), the delay-bound
//! lemmas, and the Section 2.3 error-recovery speedup example.

use crate::render_table;
use bdisk::{BroadcastFile, BroadcastProgram, FileSet, FlatOrder};
use bsim::{worst_case_latency, worst_case_table};
use ida::FileId;
use serde::Serialize;

/// The two-file example of Section 2.3: A has 5 blocks, B has 3; with AIDA
/// they are dispersed into 10 and 6 blocks respectively.
pub fn paper_example_files(dispersed: bool) -> FileSet {
    let (na, nb) = if dispersed { (10, 6) } else { (5, 3) };
    FileSet::new(vec![
        BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(na),
        BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(nb),
    ])
    .expect("distinct ids")
}

fn file_name(id: FileId) -> String {
    match id.0 {
        0 => "A".to_string(),
        1 => "B".to_string(),
        n => format!("F{n}"),
    }
}

/// A rendered broadcast-program figure.
#[derive(Debug, Clone, Serialize)]
pub struct ProgramFigure {
    /// Which figure this reproduces.
    pub figure: String,
    /// Broadcast period in slots.
    pub broadcast_period: usize,
    /// Program data cycle in slots.
    pub data_cycle: usize,
    /// The rendered slot sequence (one data cycle).
    pub layout: String,
    /// Maximum inter-block gap Δ per file.
    pub max_gaps: Vec<(String, usize)>,
}

impl core::fmt::Display for ProgramFigure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{}", self.figure)?;
        writeln!(f, "  broadcast period : {}", self.broadcast_period)?;
        writeln!(f, "  program data cycle: {}", self.data_cycle)?;
        writeln!(f, "  layout            : {}", self.layout)?;
        for (name, gap) in &self.max_gaps {
            writeln!(f, "  max gap Δ({name})    : {gap}")?;
        }
        Ok(())
    }
}

/// Figure 5: the flat broadcast program over files A (5 blocks) and B (3).
pub fn figure_5() -> ProgramFigure {
    let files = paper_example_files(false);
    let program = BroadcastProgram::flat(&files, FlatOrder::Spread).expect("non-empty set");
    figure_from(
        &files,
        &program,
        "Figure 5 — flat broadcast program (A: 5 blocks, B: 3 blocks)",
    )
}

/// Figure 6: the AIDA-based flat program (A: 5→10 blocks, B: 3→6 blocks).
pub fn figure_6() -> ProgramFigure {
    let files = paper_example_files(true);
    let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).expect("non-empty set");
    figure_from(
        &files,
        &program,
        "Figure 6 — AIDA-based flat program (A: 5→10 blocks, B: 3→6 blocks)",
    )
}

fn figure_from(files: &FileSet, program: &BroadcastProgram, title: &str) -> ProgramFigure {
    ProgramFigure {
        figure: title.to_string(),
        broadcast_period: program.broadcast_period(),
        data_cycle: program.data_cycle(),
        layout: program.render(file_name),
        max_gaps: files
            .files()
            .iter()
            .map(|f| (f.name.clone(), program.max_gap(f.id).unwrap_or(0)))
            .collect(),
    }
}

/// One row of the Figure 7 table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Figure7Row {
    /// Number of transmission errors.
    pub errors: usize,
    /// Worst-case extra delay with IDA (measured, our layout).
    pub with_ida: usize,
    /// Worst-case extra delay without IDA (measured).
    pub without_ida: usize,
    /// The value the paper reports with IDA.
    pub paper_with_ida: usize,
    /// The value the paper reports without IDA.
    pub paper_without_ida: usize,
}

/// The Figure 7 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Figure7 {
    /// Rows for r = 0..=5.
    pub rows: Vec<Figure7Row>,
}

impl core::fmt::Display for Figure7 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Figure 7 — worst-case extra delay (slots) vs. number of errors, file A"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.errors.to_string(),
                    r.with_ida.to_string(),
                    r.without_ida.to_string(),
                    r.paper_with_ida.to_string(),
                    r.paper_without_ida.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "errors",
                    "with IDA",
                    "without IDA",
                    "paper(IDA)",
                    "paper(no IDA)"
                ],
                &rows
            )
        )
    }
}

/// Figure 7: worst-case delays versus errors for file A, with and without
/// IDA, next to the paper's reported numbers.
pub fn figure_7() -> Figure7 {
    let flat = BroadcastProgram::flat(&paper_example_files(false), FlatOrder::Spread).unwrap();
    let aida = BroadcastProgram::aida_flat(&paper_example_files(true), FlatOrder::Spread).unwrap();
    let with_ida = worst_case_table(&aida, FileId(0), 5, 5);
    let without_ida = worst_case_table(&flat, FileId(0), 5, 5);
    let paper_with = [0usize, 3, 4, 6, 7, 8];
    let paper_without = [0usize, 8, 16, 24, 32, 40];
    Figure7 {
        rows: (0..=5)
            .map(|r| Figure7Row {
                errors: r,
                with_ida: with_ida[r].extra_delay,
                without_ida: without_ida[r].extra_delay,
                paper_with_ida: paper_with[r],
                paper_without_ida: paper_without[r],
            })
            .collect(),
    }
}

/// Empirical check of Lemmas 1 and 2 over randomized file sets.
#[derive(Debug, Clone, Serialize)]
pub struct LemmaBounds {
    /// Per-case rows: (description, r, measured extra delay, bound).
    pub rows: Vec<(String, usize, usize, usize)>,
    /// Whether every measured value respected its bound.
    pub all_within_bounds: bool,
}

impl core::fmt::Display for LemmaBounds {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Lemmas 1 & 2 — measured worst-case extra delay vs. analytic bound"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(case, r, measured, bound)| {
                vec![
                    case.clone(),
                    r.to_string(),
                    measured.to_string(),
                    bound.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["case", "errors", "measured", "bound"], &rows)
        )?;
        writeln!(f, "all within bounds: {}", self.all_within_bounds)
    }
}

/// Measures worst-case extra delays for a family of synthetic file sets and
/// compares them against the Lemma 1 (`r·τ`) and Lemma 2 (`r·Δ`) bounds.
pub fn lemma_bounds() -> LemmaBounds {
    let mut rows = Vec::new();
    let mut ok = true;
    // A few deterministic configurations of (files, blocks, dispersal).
    let configs = [(2u32, 4u32), (3, 5), (5, 3), (4, 6)];
    for (nfiles, blocks) in configs {
        // Lemma 1: flat (undispersed) program, bound r·τ.
        let flat_set = bsim::workload::uniform_file_set(nfiles, blocks, 32, 1.0);
        let flat = BroadcastProgram::flat(&flat_set, FlatOrder::Spread).unwrap();
        let tau = flat.broadcast_period();
        for r in 0..=2usize {
            let a = worst_case_latency(&flat, FileId(0), blocks as usize, r);
            let bound = r * tau;
            ok &= a.extra_delay <= bound;
            rows.push((format!("lemma1 {nfiles}x{blocks}"), r, a.extra_delay, bound));
        }
        // Lemma 2: AIDA program with dispersal factor 2, bound r·Δ,
        // r within the redundancy.
        let aida_set = bsim::workload::uniform_file_set(nfiles, blocks, 32, 2.0);
        let aida = BroadcastProgram::aida_flat(&aida_set, FlatOrder::Spread).unwrap();
        let delta = aida.max_gap(FileId(0)).unwrap();
        for r in 0..=(blocks as usize).min(3) {
            let a = worst_case_latency(&aida, FileId(0), blocks as usize, r);
            let bound = r * delta;
            ok &= a.extra_delay <= bound;
            rows.push((format!("lemma2 {nfiles}x{blocks}"), r, a.extra_delay, bound));
        }
    }
    LemmaBounds {
        rows,
        all_within_bounds: ok,
    }
}

/// The Section 2.3 spreading example: 10 files × 20 blocks, Δ = 10, giving a
/// 20-fold error-recovery speedup over waiting a whole period.
#[derive(Debug, Clone, Serialize)]
pub struct SpeedupExample {
    /// Broadcast period τ (slots).
    pub period: usize,
    /// The maximum inter-block gap Δ achieved by uniform spreading.
    pub max_gap: usize,
    /// The resulting error-recovery speedup τ/Δ.
    pub speedup: f64,
}

impl core::fmt::Display for SpeedupExample {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Section 2.3 — uniform spreading example (10 files × 20 blocks)"
        )?;
        writeln!(f, "  broadcast period τ : {}", self.period)?;
        writeln!(f, "  max inter-block Δ  : {}", self.max_gap)?;
        writeln!(f, "  recovery speedup   : {:.1}×", self.speedup)
    }
}

/// Reproduces the 20-fold speedup claim of Section 2.3.
pub fn section_2_3_speedup() -> SpeedupExample {
    let files = bsim::workload::uniform_file_set(10, 20, 64, 1.0);
    let program = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
    let period = program.data_cycle();
    let max_gap = (0..10)
        .map(|i| program.max_gap(FileId(i)).unwrap_or(period))
        .max()
        .unwrap_or(period);
    SpeedupExample {
        period,
        max_gap,
        speedup: period as f64 / max_gap as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_5_and_6_reproduce_the_paper_structure() {
        let f5 = figure_5();
        assert_eq!(f5.broadcast_period, 8);
        assert_eq!(f5.data_cycle, 8);
        let f6 = figure_6();
        assert_eq!(f6.broadcast_period, 8);
        assert_eq!(f6.data_cycle, 16);
        assert!(f6.layout.starts_with("A1 B1 A2 A3 B2 A4 B3 A5"));
        assert!(!f6.to_string().is_empty());
    }

    #[test]
    fn figure_7_shape_matches_the_paper() {
        let fig = figure_7();
        assert_eq!(fig.rows.len(), 6);
        assert_eq!(fig.rows[0].with_ida, 0);
        assert_eq!(fig.rows[0].without_ida, 0);
        for row in &fig.rows[1..] {
            // Without IDA the measured value matches the paper exactly
            // (r errors cost r full periods).
            assert_eq!(row.without_ida, row.paper_without_ida);
            // With IDA the measured value is of the same magnitude as the
            // paper's (a few slots, never a full period per error) and is
            // always strictly better than the no-IDA column.
            assert!(row.with_ida <= row.paper_with_ida + 2);
            assert!(row.with_ida < row.without_ida);
        }
        assert!(!fig.to_string().is_empty());
    }

    #[test]
    fn lemma_bounds_hold_everywhere() {
        let l = lemma_bounds();
        assert!(l.all_within_bounds, "{l}");
        assert!(!l.rows.is_empty());
    }

    #[test]
    fn speedup_example_reaches_twenty_fold() {
        let s = section_2_3_speedup();
        assert_eq!(s.period, 200);
        assert_eq!(s.max_gap, 10);
        assert!((s.speedup - 20.0).abs() < 1e-9);
    }
}
