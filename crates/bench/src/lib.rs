//! # bench — experiment harness for every table and figure in the paper
//!
//! Each experiment is a pure function returning a serialisable result struct
//! with a human-readable `Display` implementation.  The `experiments` binary
//! prints them (optionally as JSON); the Criterion benches in `benches/`
//! measure the underlying machinery.
//!
//! Paper artefacts covered, by `experiments` id (the binary's docs list
//! the ids beyond the paper: `modes` and the perf trajectories):
//!
//! | id | artefact | function |
//! |----|----------|----------|
//! | `fig5` | flat broadcast program example | [`figures::figure_5`] |
//! | `fig6` | AIDA flat program example | [`figures::figure_6`] |
//! | `fig7` | worst-case delay vs. errors table | [`figures::figure_7`] |
//! | `lemma1`/`lemma2` | delay bounds for flat / AIDA programs | [`figures::lemma_bounds`] |
//! | `speedup` | §2.3 uniform-spreading 20× example | [`figures::section_2_3_speedup`] |
//! | `example1` | pinwheel schedulability examples | [`bounds::example_1`] |
//! | `eq1`/`eq2` | bandwidth bounds and overhead | [`bounds::bandwidth_experiment`] |
//! | `examples` | pinwheel-algebra Examples 2–6 | [`bounds::examples_2_to_6`] |
//! | `ablation-schedulers` | scheduler success-rate vs. density | [`ablations::scheduler_ablation`] |
//! | `ablation-redundancy` | AIDA redundancy vs. miss rate | [`ablations::redundancy_ablation`] |
//! | `ablation-blocksize` | dispersal level vs. recovery delay and cost | [`ablations::blocksize_ablation`] |
//! | `sharding` | 1/2/4-channel density, latency and miss ratio | [`sharding::sharding_figure`] |

#![forbid(unsafe_code)]

pub mod ablations;
pub mod bounds;
pub mod fault_matrix;
pub mod figures;
pub mod modes;
pub mod net_perf;
pub mod perf;
pub mod regression;
pub mod runtime_perf;
pub mod sharding;

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let table = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["long-name".to_string(), "23".to_string()],
            ],
        );
        assert!(table.contains("name"));
        assert!(table.contains("long-name"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
