//! The retrieval-journey benchmark of `rtbdisk`.
//!
//! Four workloads, eleven end-to-end metrics, and a per-layer stage budget
//! — all measured from outside, through the crates' public functions.  See
//! `README.md` beside this crate for what each number means.
//!
//! ```text
//! rtbdisk-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! rtbdisk-benchmark all [--seed N] [--seconds S] [--out DIR]
//! rtbdisk-benchmark --smoke
//! rtbdisk-benchmark compare <dirA> <dirB>
//! rtbdisk-benchmark manifest
//! ```

mod compare;
mod env;
mod gen;
mod json;
mod layers;
mod pacer;
mod record;
mod report;
mod runner;
mod shadow;
mod spec;
mod stats;
mod trace;
mod workloads;

use compare::Verdict;
use json::Json;
use runner::RunConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Kind;

/// Exit codes: 0 all correct; 1 a comparison breached a bound; 2 a run was
/// incorrect or invalid; 3 a comparison was refused; 64 bad usage.
const EXIT_BREACH: u8 = 1;
const EXIT_INCORRECT: u8 = 2;
const EXIT_REFUSED: u8 = 3;
const EXIT_USAGE: u8 = 64;

struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn default_out() -> PathBuf {
    // `cargo run` exports the manifest directory at run time; fall back to
    // where the crate was built.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: default_out(),
        positional: Vec::new(),
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                options.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--out" => options.out = PathBuf::from(value("--out")?),
            "--smoke" => options.positional.insert(0, "smoke".into()),
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => options.positional.push(other.to_string()),
        }
    }
    Ok(options)
}

/// Runs one workload in this process, timed or traced; prints it, writes its
/// files and ends standard output with the driver's line.
fn cmd_run(options: &Options) -> Result<ExitCode, String> {
    let kind = options.workload.ok_or("run needs --workload <name>")?;
    let config = RunConfig {
        kind,
        seed: options.seed,
        seconds: options.seconds,
    };
    let name = kind.name();
    let out = &options.out;
    let result = if options.trace {
        let (result, report) = runner::run_traced(&config)?;
        result.print();
        let layers = report.layers_json(&result);
        report::write_json(out, &format!("layers-{name}.json"), &layers)?;
        report::write_json(out, &format!("trace-{name}.json"), &report.trace_json())?;
        result
    } else {
        let result = runner::run_timed(&config)?;
        result.print();
        report::write_json(
            out,
            &format!("e2e-{name}.json"),
            &result.to_json(|_| Vec::new()),
        )?;
        result
    };
    // The driver reads the last line of standard output.
    println!("{}", result.driver_line());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// What a child `run` printed last, and whether it exited 0.
struct ChildRun {
    context: String,
    traced: bool,
    succeeded: bool,
    last_line: String,
}

/// Runs one workload the way the driver does — a process of its own, so peak
/// memory and CPU time are that run's alone — and relays what it printed,
/// keeping the final JSON line back.
fn run_child(
    kind: Kind,
    traced: bool,
    seconds: f64,
    options: &Options,
    out: &Path,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", kind.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last_line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, last)) => (report, last),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    Ok(ChildRun {
        context: format!(
            "{} ({})",
            kind.name(),
            if traced { "traced" } else { "timed" }
        ),
        traced,
        succeeded: output.status.success(),
        last_line: last_line.to_string(),
    })
}

fn summarise(label: &str, runs: &[ChildRun], problems: &[String]) -> ExitCode {
    for run in runs.iter().filter(|r| !r.succeeded) {
        println!("incorrect: {}", run.context);
    }
    for problem in problems {
        println!("schema: {problem}");
    }
    let incorrect = runs.iter().filter(|r| !r.succeeded).count();
    println!(
        "== {label}: {} runs, {incorrect} incorrect, {} schema problems",
        runs.len(),
        problems.len()
    );
    if incorrect == 0 && problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    }
}

/// Every workload: the timed run, then the traced run at half its length.
fn cmd_all(options: &Options) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    for kind in Kind::ALL {
        runs.push(run_child(
            kind,
            false,
            options.seconds,
            options,
            &options.out,
        )?);
        runs.push(run_child(
            kind,
            true,
            options.seconds / 2.0,
            options,
            &options.out,
        )?);
    }
    println!("results in {}", options.out.display());
    Ok(summarise("all", &runs, &[]))
}

/// Every workload for one second, timed and traced: correctness and the
/// shape of what is printed, nothing about speed.
fn cmd_smoke(options: &Options) -> Result<ExitCode, String> {
    let out = options.out.join("smoke");
    let mut runs = Vec::new();
    for kind in Kind::ALL {
        for traced in [false, true] {
            runs.push(run_child(kind, traced, 1.0, options, &out)?);
        }
    }
    let problems: Vec<String> = runs.iter().flat_map(schema_problems).collect();
    Ok(summarise("smoke", &runs, &problems))
}

/// Checks the line a run printed last against the contract: exactly the four
/// keys, exactly the declared metrics, each a finite number with its unit.
fn schema_problems(run: &ChildRun) -> Vec<String> {
    let context = &run.context;
    let mut problems = Vec::new();
    let line = match Json::parse(&run.last_line) {
        Ok(line) => line,
        Err(e) => return vec![format!("{context}: the last line is not JSON: {e}")],
    };
    let keys: Vec<&str> = line
        .as_obj()
        .map_or(Vec::new(), |o| o.iter().map(|(k, _)| k.as_str()).collect());
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("{context}: keys are {keys:?}"));
    }
    if line
        .get("attempted")
        .and_then(Json::as_f64)
        .is_none_or(|a| a < 1.0)
    {
        problems.push(format!("{context}: attempted is not at least 1"));
    }
    let expected: Vec<(&str, &str)> = if run.traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got = line.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    if got.len() != expected.len() {
        problems.push(format!(
            "{context}: {} metrics, the contract lists {}",
            got.len(),
            expected.len()
        ));
    }
    for (name, unit) in expected {
        let Some(metric) = line.get("metrics").and_then(|m| m.get(name)) else {
            problems.push(format!("{context}: {name} is missing"));
            continue;
        };
        if metric.get("unit").and_then(Json::as_str) != Some(unit) {
            problems.push(format!("{context}: {name} is not in {unit}"));
        }
        match metric.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() => {
                if !run.traced && v == 0.0 {
                    problems.push(format!("{context}: end-to-end {name} reads zero"));
                }
            }
            _ => problems.push(format!("{context}: {name} is not a finite number")),
        }
    }
    problems
}

fn cmd_compare(options: &Options) -> Result<ExitCode, String> {
    let [_, a, b] = options.positional.as_slice() else {
        return Err("compare needs <dirA> <dirB>".into());
    };
    Ok(
        match compare::compare_dirs(Path::new(a), Path::new(b), &spec::END_TO_END) {
            Verdict::Within => {
                println!("== every metric within its bound");
                ExitCode::SUCCESS
            }
            Verdict::Breach => {
                println!("== at least one metric is worse than its bound allows");
                ExitCode::from(EXIT_BREACH)
            }
            Verdict::Refused(reason) => {
                eprintln!("refused: {reason}");
                ExitCode::from(EXIT_REFUSED)
            }
        },
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let command = options.positional.first().map(String::as_str);
    let outcome = match command {
        Some("run") => cmd_run(&options),
        Some("all") => cmd_all(&options),
        Some("smoke") => cmd_smoke(&options),
        Some("compare") => cmd_compare(&options),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] | \
                  all | --smoke | compare <dirA> <dirB> | manifest"
                .into(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_INCORRECT)
        }
    }
}
