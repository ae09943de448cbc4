//! The crate graph, pinned: what each serving crate links.
//!
//! The serving path — the slot runtime (`brt`) and the network station
//! (`bnet`) — must build without the simulator (`bsim`), the experiment
//! harness (`bench`) or the fault injector (`bfault`).  A retrieval on the
//! air needs the loss seam (`bdisk::ChannelErrorModel`) and mode schedules
//! (`bmode::ModeSchedule`), never the stochastic models, the worst-case
//! analyser or the workload generators behind them.  Nor does it link
//! `serde`: nothing on the air is persisted, and only `bench` renders its
//! result rows as JSON.
//!
//! The check reads the workspace manifests (`crates/*` and `vendor/*`),
//! follows `[dependencies]` only — dev-dependencies never link into a
//! library — and compares each crate's full closure with the table below.
//! A new edge anywhere shows up here as a named diff.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every serving crate and the exact set of crates it links.
const SERVING: &[(&str, &[&str])] = &[
    ("gf256", &[]),
    ("bauth", &[]),
    ("bobs", &[]),
    ("ida", &["bauth", "bytes", "gf256"]),
    ("pinwheel", &[]),
    ("bdisk", &["bauth", "bytes", "gf256", "ida", "pinwheel"]),
    (
        "brt",
        &[
            "bauth", "bcore", "bdisk", "bmode", "bobs", "bytes", "gf256", "ida", "pinwheel",
        ],
    ),
    (
        "bnet",
        &[
            "bauth", "bcore", "bdisk", "bmode", "bobs", "brt", "bytes", "gf256", "ida", "pinwheel",
            "rand",
        ],
    ),
];

/// Crates no serving crate may link.
const OFF_THE_AIR: &[&str] = &[
    "bsim",
    "bench",
    "bfault",
    "rtbdisk",
    "serde",
    "serde_derive",
];

/// `[package] name` → `[dependencies]` keys, for every manifest under the
/// given workspace directories.
fn manifests(dirs: &[&str]) -> BTreeMap<String, BTreeSet<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut graph = BTreeMap::new();
    for dir in dirs {
        for entry in std::fs::read_dir(root.join(dir)).expect("workspace directory") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue;
            };
            let (name, deps) = parse_manifest(&text);
            graph.insert(name.expect("every manifest names its package"), deps);
        }
    }
    graph
}

/// The package name and the keys of the `[dependencies]` table.
fn parse_manifest(text: &str) -> (Option<String>, BTreeSet<String>) {
    let mut section = "";
    let mut name = None;
    let mut deps = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "[dependencies]" => {
                let crate_name = key.split('.').next().unwrap_or(key);
                deps.insert(crate_name.to_string());
            }
            _ => {}
        }
    }
    (name, deps)
}

fn closure(graph: &BTreeMap<String, BTreeSet<String>>, krate: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut todo: Vec<&str> = graph[krate].iter().map(String::as_str).collect();
    while let Some(next) = todo.pop() {
        if seen.insert(next.to_string()) {
            let deps = graph
                .get(next)
                .unwrap_or_else(|| panic!("`{next}` is not a workspace crate"));
            todo.extend(deps.iter().map(String::as_str));
        }
    }
    seen
}

#[test]
fn the_serving_path_links_no_simulator() {
    let graph = manifests(&["crates", "vendor"]);
    for &(krate, _) in SERVING {
        let links = closure(&graph, krate);
        for &banned in OFF_THE_AIR {
            assert!(!links.contains(banned), "`{krate}` links `{banned}`");
        }
    }
}

#[test]
fn each_serving_crate_links_exactly_its_listed_closure() {
    let graph = manifests(&["crates", "vendor"]);
    for &(krate, expected) in SERVING {
        let links = closure(&graph, krate);
        let expected: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
        assert_eq!(links, expected, "what `{krate}` links");
    }
}

#[test]
fn only_the_experiment_harness_depends_on_serde() {
    for (krate, deps) in manifests(&["crates"]) {
        if krate == "bench" {
            continue;
        }
        for banned in ["serde", "serde_json"] {
            assert!(!deps.contains(banned), "`{krate}` depends on `{banned}`");
        }
    }
}

#[test]
fn the_manifest_reader_sees_dependencies_not_dev_dependencies() {
    let (name, deps) = parse_manifest(
        "[package]\nname = \"x\"\n\n[dependencies]\na.workspace = true\nb = { path = \"../b\" }\n\n\
         [dev-dependencies]\nc.workspace = true\n",
    );
    assert_eq!(name.as_deref(), Some("x"));
    assert_eq!(deps, BTreeSet::from(["a".to_string(), "b".to_string()]));
}
