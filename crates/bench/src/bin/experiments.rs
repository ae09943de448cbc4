//! Regenerates every table and figure of the paper (plus the ablations) from
//! the command line.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- fig7 --json
//! ```
//!
//! Available experiment ids: `fig5`, `fig6`, `fig7`, `lemma1`, `lemma2`,
//! `example1`, `eq1`, `eq2`, `examples`, `speedup`, `ablation-schedulers`,
//! `ablation-redundancy`, `ablation-blocksize`, `sharding`, `modes`,
//! `ida_perf`, `runtime_perf`, `net_perf`, `fault_matrix`,
//! `check_regression`, `all`.
//!
//! `ida_perf` / `runtime_perf` / `net_perf` / `fault_matrix` additionally
//! write their results to `BENCH_ida.json` / `BENCH_runtime.json` /
//! `BENCH_net.json` / `BENCH_fault.json` in the current directory — the
//! repo's recorded perf trajectories.  Because of that side effect (and
//! their multi-second runtimes) they only run when requested explicitly,
//! never as part of `all`.
//!
//! `check_regression` is the CI perf gate: it compares the trajectories
//! against committed baselines and exits non-zero on a throughput drop
//! beyond the tolerance (30%, or `RTBDISK_PERF_TOLERANCE` on noisy
//! runners):
//!
//! ```text
//! experiments check_regression \
//!     --pair BENCH_ida.baseline.json:BENCH_ida.json \
//!     --pair BENCH_runtime.baseline.json:BENCH_runtime.json \
//!     --pair BENCH_net.baseline.json:BENCH_net.json \
//!     --pair BENCH_fault.baseline.json:BENCH_fault.json
//! ```
//!
//! (the pairs above are the default when none are given.)

use bench::{
    ablations, bounds, fault_matrix, figures, modes, net_perf, perf, regression, runtime_perf,
    sharding,
};

fn print_experiment<T: core::fmt::Display + serde::Serialize>(value: &T, json: bool) {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("experiment results serialise")
        );
    } else {
        println!("{value}");
    }
}

fn run(id: &str, json: bool) -> bool {
    match id {
        "fig5" => print_experiment(&figures::figure_5(), json),
        "fig6" => print_experiment(&figures::figure_6(), json),
        "fig7" => print_experiment(&figures::figure_7(), json),
        "lemma1" | "lemma2" | "lemmas" => print_experiment(&figures::lemma_bounds(), json),
        "speedup" => print_experiment(&figures::section_2_3_speedup(), json),
        "example1" => print_experiment(&bounds::example_1(), json),
        "eq1" => print_experiment(
            &bounds::bandwidth_experiment(&[5, 10, 20, 50, 100], false, 42),
            json,
        ),
        "eq2" => print_experiment(
            &bounds::bandwidth_experiment(&[5, 10, 20, 50, 100], true, 42),
            json,
        ),
        "examples" => print_experiment(&bounds::examples_2_to_6(), json),
        "ablation-schedulers" => print_experiment(&ablations::scheduler_ablation(40, 2024), json),
        "ablation-redundancy" => print_experiment(&ablations::redundancy_ablation(300, 7), json),
        "ablation-blocksize" => print_experiment(&ablations::blocksize_ablation(), json),
        "sharding" => print_experiment(&sharding::sharding_figure(100, 0x5A4D), json),
        "modes" => print_experiment(&modes::modes_figure(25, 0x0D35), json),
        "ida_perf" => {
            let result = perf::ida_perf(perf::ITERS);
            let pretty = serde_json::to_string_pretty(&result).expect("perf results serialise");
            std::fs::write("BENCH_ida.json", &pretty).expect("BENCH_ida.json is writable");
            print_experiment(&result, json);
        }
        "runtime_perf" => {
            let result = runtime_perf::runtime_perf();
            let pretty = serde_json::to_string_pretty(&result).expect("perf results serialise");
            std::fs::write("BENCH_runtime.json", &pretty).expect("BENCH_runtime.json is writable");
            print_experiment(&result, json);
        }
        "net_perf" => {
            let result = net_perf::net_perf();
            let pretty = serde_json::to_string_pretty(&result).expect("perf results serialise");
            std::fs::write("BENCH_net.json", &pretty).expect("BENCH_net.json is writable");
            print_experiment(&result, json);
        }
        "fault_matrix" => {
            let result = fault_matrix::fault_matrix();
            let pretty = serde_json::to_string_pretty(&result).expect("perf results serialise");
            std::fs::write("BENCH_fault.json", &pretty).expect("BENCH_fault.json is writable");
            print_experiment(&result, json);
        }
        _ => return false,
    }
    true
}

/// Runs the `check_regression` gate; returns the process exit code.
fn check_regression(args: &[String]) -> i32 {
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--pair" => {
                let Some(pair) = iter.next().and_then(|v| v.split_once(':')) else {
                    eprintln!("--pair needs `baseline.json:current.json`");
                    return 2;
                };
                pairs.push((pair.0.to_string(), pair.1.to_string()));
            }
            other => {
                eprintln!("unknown check_regression argument `{other}`");
                return 2;
            }
        }
    }
    if pairs.is_empty() {
        pairs = vec![
            (
                "BENCH_ida.baseline.json".to_string(),
                "BENCH_ida.json".to_string(),
            ),
            (
                "BENCH_runtime.baseline.json".to_string(),
                "BENCH_runtime.json".to_string(),
            ),
            (
                "BENCH_net.baseline.json".to_string(),
                "BENCH_net.json".to_string(),
            ),
            (
                "BENCH_fault.baseline.json".to_string(),
                "BENCH_fault.json".to_string(),
            ),
        ];
    }
    let tolerance = regression::tolerance();
    match regression::check_files(&pairs, tolerance) {
        Ok(report) => {
            println!("{report}");
            if report.failed() {
                eprintln!(
                    "perf regression: {} metric(s) dropped more than {:.0}%",
                    report.regressions().count(),
                    tolerance * 100.0
                );
                1
            } else {
                0
            }
        }
        Err(message) => {
            eprintln!("check_regression failed: {message}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check_regression") {
        std::process::exit(check_regression(&args[1..]));
    }
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = [
        "fig5",
        "fig6",
        "fig7",
        "lemmas",
        "speedup",
        "example1",
        "eq1",
        "eq2",
        "examples",
        "ablation-schedulers",
        "ablation-redundancy",
        "ablation-blocksize",
        "sharding",
        "modes",
    ];
    let selected: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        all.to_vec()
    } else {
        ids
    };
    for (i, id) in selected.iter().enumerate() {
        if i > 0 && !json {
            println!();
        }
        if !run(id, json) {
            eprintln!("unknown experiment id `{id}`; known ids: {all:?}");
            std::process::exit(2);
        }
    }
}
