//! Integration checks of the paper's headline quantitative results, pinned so
//! that regressions in any crate are caught by a single suite (these are the
//! numbers `cargo run --release -p bench --bin experiments -- all` prints).

use bench::{ablations, bounds, figures};

#[test]
fn figure_5_and_6_periods_and_cycles() {
    let f5 = figures::figure_5();
    assert_eq!((f5.broadcast_period, f5.data_cycle), (8, 8));
    let f6 = figures::figure_6();
    assert_eq!((f6.broadcast_period, f6.data_cycle), (8, 16));
    // The first broadcast period of our Figure 6 layout coincides with the
    // paper's: A1 B1 A2 A3 B2 A4 B3 A5.
    assert!(f6.layout.starts_with("A1 B1 A2 A3 B2 A4 B3 A5"));
}

#[test]
fn figure_7_without_ida_column_is_exact_and_ida_wins() {
    let fig = figures::figure_7();
    let without: Vec<usize> = fig.rows.iter().map(|r| r.without_ida).collect();
    assert_eq!(without, vec![0, 8, 16, 24, 32, 40], "paper's exact column");
    for row in &fig.rows[1..] {
        assert!(row.with_ida < row.without_ida);
        assert!(row.with_ida <= 8, "IDA extra delay stays within one period");
    }
}

#[test]
fn lemma_bound_sweep_is_clean() {
    assert!(figures::lemma_bounds().all_within_bounds);
}

#[test]
fn section_2_3_twenty_fold_speedup() {
    let s = figures::section_2_3_speedup();
    assert_eq!(s.max_gap, 10);
    assert!((s.speedup - 20.0).abs() < 1e-9);
}

#[test]
fn example_1_schedulability_verdicts() {
    let e = bounds::example_1();
    assert!(e.first_schedulable);
    assert!(e.second_schedulable);
    assert!(e
        .third_infeasible_for
        .iter()
        .all(|&(_, infeasible)| infeasible));
}

#[test]
fn bandwidth_overhead_matches_the_43_percent_claim() {
    for fault_tolerant in [false, true] {
        let exp = bounds::bandwidth_experiment(&[5, 10, 20, 50], fault_tolerant, 42);
        assert!(
            exp.max_equation_overhead <= 0.45,
            "overhead {:.3} above the paper's 43% (+ceiling slack)",
            exp.max_equation_overhead
        );
        for row in &exp.rows {
            // The paper's 43% plus the 1/lower its integer ceilings add.
            assert!(
                row.equation_overhead <= row.overhead_allowance + 1e-12,
                "{} files: overhead {:.3} above its allowance {:.3}",
                row.files,
                row.equation_overhead,
                row.overhead_allowance
            );
            // The constructive bandwidth our schedulers need never exceeds the
            // analytic Equation 1/2 bound (floors on windows allow ±2).
            assert!(row.constructive <= row.equation_bound + 2);
            assert!(row.constructive >= row.lower_bound);
        }
    }
}

#[test]
fn algebra_examples_reproduce_paper_densities() {
    let table = bounds::examples_2_to_6();
    let by_name = |name: &str| {
        table
            .rows
            .iter()
            .find(|r| r.example == name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    // Example 2: TR1 chosen at 0.0769.
    let e2 = by_name("Example 2");
    assert!((e2.chosen - 0.0769).abs() < 5e-4);
    // Example 3: TR2 chosen at 0.0662.
    let e3 = by_name("Example 3");
    assert!((e3.chosen - 0.0662).abs() < 5e-4);
    // Example 4: the paper reaches 0.6; our subsumption candidate reaches the
    // 5/9 lower bound; the paper's R1+R5 number is still reproduced.
    let e4 = by_name("Example 4");
    assert!((e4.r1r5.unwrap() - 0.6).abs() < 1e-9);
    assert!((e4.chosen - 5.0 / 9.0).abs() < 1e-9);
    // Examples 5 and 6: optimal 2/3.
    for name in ["Example 5", "Example 6"] {
        let row = by_name(name);
        assert!((row.chosen - 2.0 / 3.0).abs() < 1e-9);
    }
}

#[test]
fn scheduler_ablation_has_sane_structure() {
    let ab = ablations::scheduler_ablation(8, 7);
    // Densities are increasing and every row reports every scheduler.
    assert!(ab.rows.windows(2).all(|w| w[0].density < w[1].density));
    for row in &ab.rows {
        assert_eq!(row.results.len(), 5);
        for (name, ok, total) in &row.results {
            assert!(ok <= total, "{name}");
        }
    }
}

#[test]
fn blocksize_ablation_exhibits_the_tradeoff() {
    let ab = ablations::blocksize_ablation();
    // Coding cost grows with dispersal level — the O(m) side of the paper's
    // Section 5 trade-off.
    assert!(ab
        .rows
        .windows(2)
        .all(|w| w[1].coding_cost_per_byte > w[0].coding_cost_per_byte));
}
