//! The public surface, pinned: every `pub` item has a caller.
//!
//! rustc's `dead_code` lint cannot see a `pub` item, so an exported
//! function nothing calls survives every build.  This test builds a name
//! index instead.  It lists the `pub` `fn` / `struct` / `enum` / `trait` /
//! `type` / `const` / `static` items each library crate under `crates/`
//! declares (the experiment harness `bench` calls the libraries but is not
//! one), and those the facade declares under `src/`, a library too.  It
//! lists the identifiers every file *outside* that crate uses: the other
//! crates, the facade, `tests/`, `examples/` and the out-of-workspace
//! `benchmark/` package (for the facade: everything but `src/`).  A `pub`
//! item whose name no outside file uses has no caller.  It should be
//! `pub(crate)`, after which `dead_code` says whether anything calls it at
//! all.
//!
//! The index is a heuristic: it matches names, not paths, so a name like
//! `new` or `len` always counts as called.  Comments and string literals
//! are skipped, and so are `#[cfg(test)]` modules when listing items (a
//! test in another crate still counts as a caller).  It is deterministic:
//! the same tree always gives the same answer.
//!
//! [`ALLOWLIST`] names the uncalled items that stay `pub` on purpose, each
//! with its [`Reason`].  The list can only shrink: an entry that gains a
//! caller or stops being a `pub` item fails the test as well.
//!
//! The option surface is pinned the same way.  An option is a `pub` field
//! of a `pub struct` whose crate hand-writes its `impl Default` (a chosen
//! default is a knob; a `#[derive(Default)]` stats struct is not), a
//! `pub fn …(mut self, …) -> Self` setter of a builder [`BUILDERS`] names,
//! or an `RTBDISK_*` environment variable some code under `crates/`, `src/`
//! or `tests/` reads.  [`OPTIONS`] lists each one with the non-test source
//! that sets it, or the reason it stays with none.  A new option and a
//! stale entry both fail, by name.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Why an item with no outside caller stays `pub`.
#[derive(Clone, Copy, Debug)]
enum Reason {
    /// A public signature names it (a return, parameter or field type), so
    /// rustc will not let it be hidden.
    Signature,
    /// It is a rule or condition the paper states by name, kept callable so
    /// the reproduction can be checked against the paper.
    Paper,
    /// It feeds the client metrics README § Observability documents.
    Metric,
}

use Reason::{Metric, Paper, Signature};

/// `(crate, item, reason)`: the uncalled items that stay `pub`.
const ALLOWLIST: &[(&str, &str, Reason)] = &[
    ("bauth", "Commitment", Signature),        // `CommitPlan::commit`
    ("bcore", "BandwidthPlan", Signature),     // `Planner::plan`
    ("bcore", "NiceConjunct", Signature),      // `Candidate::conjunct`
    ("bcore", "Pc", Signature),                // the R0–R3 rules below
    ("bcore", "PlannerError", Signature),      // `Planner::plan`
    ("bcore", "lemma_3_conditions", Paper),    // Lemma 3's expansion
    ("bcore", "r0_relax", Paper),              // Figure 8, rule R0
    ("bcore", "r1_scale", Paper),              // Figure 8, rule R1
    ("bcore", "r2_shrink", Paper),             // Figure 8, rule R2
    ("bcore", "r3_unit_strengthening", Paper), // Figure 8, rule R3
    ("bdisk", "SwapApplied", Signature),       // `EpochBank::swap`
    ("bfault", "ImpairStats", Signature),      // `Impairer::stats`
    ("bfault", "LinkStats", Signature),        // `ImpairedLink::stats`
    ("bmode", "ModePlan", Signature),          // `ModePlanner::plan`
    ("bnet", "UdpFanout", Signature),          // `NetServer::bind`
    ("bnet", "WireError", Signature),          // `wire::decode`
    ("bnet", "export_into", Metric),           // `ClientStats::export_into`
    ("bobs", "EventRing", Signature),          // `Telemetry::trace`
    ("bobs", "HistogramSnapshot", Signature),  // `Histogram::snapshot`
    ("brt", "RuntimeController", Signature),   // `Runtime::controller`
    ("bsim", "LatencySummary", Signature),     // `SimulationReport::latency`
    ("bsim", "MissReport", Signature),         // `SimulationReport::misses`
    ("bsim", "SimulationReport", Signature),   // `RetrievalSimulator::run_file`
    ("bsim", "WorstCaseAnalysis", Signature),  // `worst_case_latency`
    ("gf256", "FieldError", Signature),        // `Gf256::inverse`
    ("pinwheel", "Density", Signature),        // `TaskSystem::density`
    ("pinwheel", "VerificationError", Signature), // `verify`
];

/// How an option is set outside the tests, or why it stays without a setter.
#[derive(Clone, Copy, Debug)]
enum Setter {
    /// `(file, name)`: a non-test source, relative to the repository root,
    /// that sets the option through `name` (the field, a builder method or
    /// the variable).
    In(&'static str, &'static str),
    /// Nothing outside the tests sets it; it stays for this reason.
    Because(&'static str),
}

use Setter::{Because, In};

const FAULT_MATRIX: &str = "crates/bench/src/fault_matrix.rs";
const ABLATIONS: &str = "crates/bench/src/ablations.rs";
const CI: &str = ".github/workflows/ci.yml";

/// Every option, with its setter: `Struct::field` or the variable's name.
const OPTIONS: &[(&str, Setter)] = &[
    (
        "RuntimeConfig::queue_capacity",
        In("crates/bench/src/runtime_perf.rs", "queue_capacity"),
    ),
    (
        "NetConfig::data_bind",
        In("examples/net_client.rs", "data_bind"),
    ),
    (
        "NetConfig::control_bind",
        In(FAULT_MATRIX, "with_control_plane"),
    ),
    (
        "NetConfig::mtu",
        Because("`benchmark/` sizes its wire frames by the default"),
    ),
    (
        "RecoveryConfig::join_backoff",
        In(FAULT_MATRIX, "join_backoff"),
    ),
    (
        "RecoveryConfig::max_backoff",
        In(FAULT_MATRIX, "max_backoff"),
    ),
    ("RecoveryConfig::watchdog", In(FAULT_MATRIX, "watchdog")),
    (
        "RecoveryConfig::max_recoveries",
        In(FAULT_MATRIX, "max_recoveries"),
    ),
    ("RecoveryConfig::control", In(FAULT_MATRIX, "with_control")),
    ("RecoveryConfig::seed", In(FAULT_MATRIX, "seed")),
    (
        "SimulationConfig::retrievals_per_file",
        In(ABLATIONS, "retrievals_per_file"),
    ),
    (
        "SimulationConfig::deadline_slots",
        In(ABLATIONS, "deadline_slots"),
    ),
    (
        "SimulationConfig::max_listen_slots",
        In(ABLATIONS, "max_listen_slots"),
    ),
    ("SimulationConfig::seed", In(ABLATIONS, "seed")),
    (
        "WorkloadConfig::files",
        In("crates/bench/src/bounds.rs", "files"),
    ),
    (
        "WorkloadConfig::max_faults",
        In("crates/bench/src/bounds.rs", "max_faults"),
    ),
    ("ExactSolver::state_limit", In(ABLATIONS, "state_limit")),
    (
        "BroadcastBuilder::file",
        In("examples/quickstart.rs", ".file("),
    ),
    (
        "BroadcastBuilder::files",
        In("examples/sharded_broadcast.rs", ".files("),
    ),
    (
        "BroadcastBuilder::content",
        In("benchmark/src/gen.rs", ".content("),
    ),
    (
        "BroadcastBuilder::channels",
        In("examples/sharded_broadcast.rs", ".channels("),
    ),
    (
        "BroadcastBuilder::auto_channels",
        Because("ROADMAP item 12 measures it"),
    ),
    (
        "BroadcastBuilder::listen_cap",
        In("benchmark/src/workloads/drive.rs", ".listen_cap("),
    ),
    (
        "BroadcastBuilder::authenticated",
        In(FAULT_MATRIX, ".authenticated("),
    ),
    (
        "ModeSpec::file",
        Because("the one-file form of `ModeSpec::files`, as on `BroadcastBuilder`"),
    ),
    (
        "ModeSpec::files",
        In("crates/bench/src/modes.rs", ".files("),
    ),
    (
        "ModeSpec::with_profile",
        In("crates/bench/src/modes.rs", ".with_profile("),
    ),
    ("RTBDISK_PROP_CASES", In(CI, "RTBDISK_PROP_CASES")),
    ("RTBDISK_PERF_TOLERANCE", In(CI, "RTBDISK_PERF_TOLERANCE")),
];

/// The builders whose `pub fn …(mut self, …) -> Self` setters are options:
/// each setter is a knob a caller picks, as a `pub` config field is.
const BUILDERS: &[&str] = &["BroadcastBuilder", "ModeSpec"];

/// Where an `RTBDISK_*` variable may be read.
const OPTION_READERS: &[&str] = &["crates", "src", "tests"];

/// The experiment harness under `crates/`.
const HARNESS: &str = "bench";

/// Sources outside `crates/` and the facade's `src/` that call the
/// libraries.
const CALLERS: &[&str] = &["tests", "examples", "benchmark/src", "benchmark/build.rs"];

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Ident(String),
    Punct(char),
    /// The body of a plain string literal.
    Str(String),
}

/// Splits Rust source into identifiers, punctuation and plain string
/// literals, dropping comments, other literals, lifetimes and numbers.
fn tokens(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let word_end = |mut i: usize| {
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        i
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let end = skip_string(&chars, i + 1);
            let body = chars[i + 1..end.saturating_sub(1).max(i + 1)].iter();
            out.push(Token::Str(body.collect()));
            i = end;
        } else if c == '\'' {
            i = skip_char_or_lifetime(&chars, i, word_end(i + 1));
        } else if c.is_ascii_digit() {
            i = word_end(i);
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            i = word_end(i);
            let word: String = chars[start..i].iter().collect();
            let hashes = chars[i..].iter().take_while(|&&h| h == '#').count();
            match (word.as_str(), chars.get(i)) {
                ("b" | "r" | "br", Some('"')) => i = skip_string(&chars, i + 1),
                ("r" | "br", Some('#')) if chars.get(i + hashes) == Some(&'"') => {
                    i = skip_raw_string(&chars, i + hashes + 1, hashes);
                }
                ("b", Some('\'')) => i = skip_char_or_lifetime(&chars, i, i + 1),
                _ => out.push(Token::Ident(word)),
            }
        } else {
            out.push(Token::Punct(c));
            i += 1;
        }
    }
    out
}

/// The index just past the `"` closing a string whose body starts at `i`.
fn skip_string(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// The index just past the `"#…#` closing a raw string whose body starts at
/// `i`.
fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize) -> usize {
    while i < chars.len() {
        let closes = chars[i + 1..].iter().take(hashes).filter(|&&h| h == '#');
        if chars[i] == '"' && closes.count() == hashes {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// The index just past a character literal opening at `i`, or past the
/// lifetime or label (`'a`) whose name ends at `name_end`.
fn skip_char_or_lifetime(chars: &[char], i: usize, name_end: usize) -> usize {
    if chars.get(i + 1) == Some(&'\\') {
        // `'\x'`: the escaped character is never the closing quote.
        let close = chars.iter().skip(i + 3).position(|&c| c == '\'');
        close.map_or(chars.len(), |at| i + 3 + at + 1)
    } else if chars.get(i + 2) == Some(&'\'') {
        i + 3
    } else {
        name_end
    }
}

fn is_ident(token: Option<&Token>, word: &str) -> bool {
    matches!(token, Some(Token::Ident(w)) if w == word)
}

/// `tokens` without the `#[cfg(test)] mod … { … }` blocks.
fn non_test_tokens(src: &str) -> Vec<Token> {
    let all = tokens(src);
    let cfg_test = [
        Token::Punct('#'),
        Token::Punct('['),
        Token::Ident("cfg".into()),
        Token::Punct('('),
        Token::Ident("test".into()),
        Token::Punct(')'),
        Token::Punct(']'),
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < all.len() {
        if !(all[i..].starts_with(&cfg_test) && is_ident(all.get(i + 7), "mod")) {
            out.push(all[i].clone());
            i += 1;
            continue;
        }
        i += 7;
        while i < all.len() && ![Token::Punct('{'), Token::Punct(';')].contains(&all[i]) {
            i += 1;
        }
        let mut depth = 0;
        while i < all.len() {
            match all[i] {
                Token::Punct('{') => depth += 1,
                Token::Punct('}') => depth -= 1,
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    out
}

/// The names of the `pub` items a source file declares outside its test
/// modules.  `pub(crate)` and the other restricted visibilities are not
/// `pub`.
fn declared_items(src: &str) -> BTreeSet<String> {
    let toks = non_test_tokens(src);
    let mut names = BTreeSet::new();
    for (i, token) in toks.iter().enumerate() {
        if *token != Token::Ident("pub".into()) || toks.get(i + 1) == Some(&Token::Punct('(')) {
            continue;
        }
        let mut j = i + 1;
        while ["unsafe", "async", "extern"]
            .iter()
            .any(|q| is_ident(toks.get(j), q))
            || (is_ident(toks.get(j), "const")
                && ["fn", "unsafe"]
                    .iter()
                    .any(|q| is_ident(toks.get(j + 1), q)))
        {
            j += 1;
        }
        let is_item = ["fn", "struct", "enum", "trait", "type", "const", "static"]
            .iter()
            .any(|kw| is_ident(toks.get(j), kw));
        if let (true, Some(Token::Ident(name))) = (is_item, toks.get(j + 1)) {
            names.insert(name.clone());
        }
    }
    names
}

/// Every identifier a source file uses in code, test modules included.
fn identifiers(src: &str) -> BTreeSet<String> {
    tokens(src)
        .into_iter()
        .filter_map(|t| match t {
            Token::Ident(w) => Some(w),
            Token::Punct(_) | Token::Str(_) => None,
        })
        .collect()
}

/// Every `.rs` file at or under `path`, in a stable order, skipping build
/// output.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("directory entry").path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter(|p| p.file_name().is_some_and(|n| n != "target"))
        .flat_map(|p| {
            if p.is_dir() {
                rust_files(&p)
            } else if p.extension().is_some_and(|e| e == "rs") {
                vec![p]
            } else {
                Vec::new()
            }
        })
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The package name a manifest declares.
fn package_name(manifest: &str) -> String {
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if let (true, Some(("name", value))) =
            (in_package, line.split_once('=').map(|(k, v)| (k.trim(), v)))
        {
            return value.trim().trim_matches('"').to_string();
        }
    }
    panic!("manifest without a package name")
}

/// Per library crate: the `pub` items it declares, and the identifiers
/// every file outside it uses.
struct Index {
    declared: BTreeMap<String, BTreeSet<String>>,
    outside: BTreeMap<String, BTreeSet<String>>,
}

/// One crate's sources: `src/` (its surface, for a library) and everything
/// else it compiles.
struct Member {
    name: String,
    library: bool,
    surface: Vec<String>,
    other: Vec<String>,
}

impl Index {
    fn build(members: &[Member], callers: &[String]) -> Index {
        let used: Vec<(&str, BTreeSet<String>)> = members
            .iter()
            .map(|m| {
                let idents = m
                    .surface
                    .iter()
                    .chain(&m.other)
                    .flat_map(|s| identifiers(s));
                (m.name.as_str(), idents.collect())
            })
            .collect();
        let from_callers: BTreeSet<String> = callers.iter().flat_map(|s| identifiers(s)).collect();
        let mut declared = BTreeMap::new();
        let mut outside = BTreeMap::new();
        for member in members.iter().filter(|m| m.library) {
            let items = member
                .surface
                .iter()
                .flat_map(|s| declared_items(s))
                .collect();
            let mut names = from_callers.clone();
            for (other, idents) in &used {
                if *other != member.name {
                    names.extend(idents.iter().cloned());
                }
            }
            declared.insert(member.name.clone(), items);
            outside.insert(member.name.clone(), names);
        }
        Index { declared, outside }
    }

    fn of_workspace() -> Index {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
            .expect("crates directory")
            .map(|e| e.expect("directory entry").path())
            .collect();
        dirs.sort();
        let mut members: Vec<Member> = dirs
            .iter()
            .map(|dir| {
                let name = package_name(&read(&dir.join("Cargo.toml")));
                let (surface, other): (Vec<PathBuf>, Vec<PathBuf>) = rust_files(dir)
                    .into_iter()
                    .partition(|f| f.starts_with(dir.join("src")));
                Member {
                    library: name != HARNESS,
                    name,
                    surface: surface.iter().map(|f| read(f)).collect(),
                    other: other.iter().map(|f| read(f)).collect(),
                }
            })
            .collect();
        // The facade's tests and examples are `CALLERS`: they call it from
        // outside `src/`, as they call every crate.
        members.push(Member {
            name: package_name(&read(&root.join("Cargo.toml"))),
            library: true,
            surface: rust_files(&root.join("src"))
                .iter()
                .map(|f| read(f))
                .collect(),
            other: Vec::new(),
        });
        let callers: Vec<String> = CALLERS
            .iter()
            .flat_map(|dir| rust_files(&root.join(dir)))
            .map(|f| read(&f))
            .collect();
        Index::build(&members, &callers)
    }

    /// `(crate, item)` for every `pub` item no file outside its crate names.
    fn uncalled(&self) -> BTreeSet<(String, String)> {
        self.declared
            .iter()
            .flat_map(|(krate, items)| {
                items
                    .iter()
                    .filter(|item| !self.outside[krate].contains(*item))
                    .map(|item| (krate.clone(), item.clone()))
            })
            .collect()
    }

    /// An uncalled item missing from `allowlist`, and an allowlist entry no
    /// longer declared or since called, each as a readable problem.
    fn problems(&self, allowlist: &[(&str, &str, Reason)]) -> Vec<String> {
        let uncalled = self.uncalled();
        let allowed: BTreeSet<(String, String)> = allowlist
            .iter()
            .map(|&(krate, item, _)| (krate.to_string(), item.to_string()))
            .collect();
        let mut problems = Vec::new();
        for (krate, item) in uncalled.difference(&allowed) {
            problems.push(format!(
                "`{krate}::{item}` is `pub` but nothing outside `{krate}` names it: make it \
                 `pub(crate)` (and delete it if `dead_code` then says so)"
            ));
        }
        for (krate, item) in allowed.difference(&uncalled) {
            let declared = self
                .declared
                .get(krate)
                .is_some_and(|items| items.contains(item));
            problems.push(if declared {
                format!("allowlisted `{krate}::{item}` has a caller now: drop it from ALLOWLIST")
            } else {
                format!("allowlisted `{krate}::{item}` is not a `pub` item: drop it from ALLOWLIST")
            });
        }
        problems
    }
}

/// `Struct::field` for every `pub` field of a `pub struct` that one of
/// `crates` hand-writes `impl Default` for, each crate given as its
/// sources' texts.
fn option_fields(crates: &[Vec<String>]) -> BTreeSet<String> {
    let mut options = BTreeSet::new();
    for sources in crates {
        let toks: Vec<Vec<Token>> = sources.iter().map(|s| non_test_tokens(s)).collect();
        let defaulted: BTreeSet<String> = toks
            .iter()
            .flat_map(|t| t.windows(4))
            .filter_map(|w| match w {
                [Token::Ident(i), Token::Ident(d), Token::Ident(f), Token::Ident(name)]
                    if i == "impl" && d == "Default" && f == "for" =>
                {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect();
        for t in &toks {
            for (i, _) in t
                .iter()
                .enumerate()
                .filter(|&(i, _)| is_ident(t.get(i), "pub") && is_ident(t.get(i + 1), "struct"))
            {
                let Some(Token::Ident(name)) = t.get(i + 2) else {
                    continue;
                };
                if !defaulted.contains(name) || t.get(i + 3) != Some(&Token::Punct('{')) {
                    continue;
                }
                let mut depth = 0;
                for (j, token) in t.iter().enumerate().skip(i + 3) {
                    match token {
                        Token::Punct('{') => depth += 1,
                        Token::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                    if let (1, true, Some(Token::Ident(field)), Some(Token::Punct(':'))) = (
                        depth,
                        is_ident(Some(token), "pub"),
                        t.get(j + 1),
                        t.get(j + 2),
                    ) {
                        options.insert(format!("{name}::{field}"));
                    }
                }
            }
        }
    }
    options
}

/// `Builder::setter` for every `pub fn setter(mut self, …) -> Self` that an
/// `impl Builder { … }` block of `sources` declares, for each builder
/// `builders` names.
fn option_setters(sources: &[String], builders: &[&str]) -> BTreeSet<String> {
    let mut options = BTreeSet::new();
    for t in sources.iter().map(|s| non_test_tokens(s)) {
        for i in (0..t.len()).filter(|&i| is_ident(t.get(i), "impl")) {
            let Some(Token::Ident(name)) = t.get(i + 1) else {
                continue;
            };
            if !builders.contains(&name.as_str()) || t.get(i + 2) != Some(&Token::Punct('{')) {
                continue;
            }
            let mut depth = 0;
            for (j, token) in t.iter().enumerate().skip(i + 2) {
                match token {
                    Token::Punct('{') => depth += 1,
                    Token::Punct('}') => depth -= 1,
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
                let Some(Token::Ident(setter)) = t.get(j + 2) else {
                    continue;
                };
                let head = (is_ident(Some(token), "pub") && is_ident(t.get(j + 1), "fn"))
                    && t.get(j + 3) == Some(&Token::Punct('('))
                    && is_ident(t.get(j + 4), "mut")
                    && is_ident(t.get(j + 5), "self");
                if depth == 1 && head && returns_self(&t[j + 3..]) {
                    options.insert(format!("{name}::{setter}"));
                }
            }
        }
    }
    options
}

/// Whether the parameter list opening `t` is followed by `-> Self`.
fn returns_self(t: &[Token]) -> bool {
    let mut depth = 0;
    for (k, token) in t.iter().enumerate() {
        match token {
            Token::Punct('(') => depth += 1,
            Token::Punct(')') => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return t.get(k + 1) == Some(&Token::Punct('-'))
                && t.get(k + 2) == Some(&Token::Punct('>'))
                && is_ident(t.get(k + 3), "Self");
        }
    }
    false
}

/// Every `RTBDISK_*` variable a source reads: the string literal passed to
/// `var(` or `var_os(`.
fn option_variables(sources: &[String]) -> BTreeSet<String> {
    sources
        .iter()
        .flat_map(|s| {
            tokens(s)
                .windows(3)
                .filter_map(|w| match w {
                    [Token::Ident(read), Token::Punct('('), Token::Str(name)]
                        if (read == "var" || read == "var_os") && name.starts_with("RTBDISK_") =>
                    {
                        Some(name.clone())
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The workspace's options: each crate's (and the facade's) `pub` fields
/// with a hand-written default, the setters of [`BUILDERS`], and the
/// variables read under [`OPTION_READERS`].
fn workspace_options() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path().join("src"))
        .collect();
    crate_dirs.push(root.join("src"));
    crate_dirs.sort();
    let crates: Vec<Vec<String>> = crate_dirs
        .iter()
        .map(|dir| rust_files(dir).iter().map(|f| read(f)).collect())
        .collect();
    let readers: Vec<String> = OPTION_READERS
        .iter()
        .flat_map(|dir| rust_files(&root.join(dir)))
        .map(|f| read(&f))
        .collect();
    let mut options = option_fields(&crates);
    options.extend(option_setters(&crates.concat(), BUILDERS));
    options.extend(option_variables(&readers));
    options
}

/// An option `table` does not list and a table entry that is no option,
/// each as a readable problem.
fn option_problems(options: &BTreeSet<String>, table: &[(&str, Setter)]) -> Vec<String> {
    let listed: BTreeSet<String> = table.iter().map(|(o, _)| o.to_string()).collect();
    let mut problems = Vec::new();
    for option in options.difference(&listed) {
        problems.push(format!(
            "`{option}` is a new option: make it a constant, or list it in OPTIONS with the \
             non-test source that sets it"
        ));
    }
    for option in listed.difference(options) {
        problems.push(format!(
            "OPTIONS lists `{option}`, which is not an option any more: drop the entry"
        ));
    }
    problems
}

#[test]
fn every_public_item_has_a_caller_or_a_stated_reason() {
    let problems = Index::of_workspace().problems(ALLOWLIST);
    assert!(
        problems.is_empty(),
        "{} problem(s):\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
}

#[test]
fn the_facade_is_a_library_of_the_index() {
    let facade = &Index::of_workspace().declared["rtbdisk"];
    assert!(facade.contains("Station") && facade.contains("subscribe"));
}

#[test]
fn the_allowlist_stays_short_and_names_each_item_once() {
    assert!(ALLOWLIST.len() <= 27, "{} entries", ALLOWLIST.len());
    let keys: BTreeSet<(&str, &str)> = ALLOWLIST.iter().map(|&(k, i, _)| (k, i)).collect();
    assert_eq!(keys.len(), ALLOWLIST.len(), "an entry is listed twice");
}

fn library(name: &str, surface: &str) -> Member {
    Member {
        name: name.into(),
        library: true,
        surface: vec![surface.into()],
        other: Vec::new(),
    }
}

#[test]
fn a_new_uncalled_item_and_a_stale_allowlist_entry_both_fail() {
    let lib = library(
        "lib",
        "pub fn used() {}\npub(crate) fn internal() {}\npub const fn fresh() {}\n\
         pub struct Kept;\npub fn gone_quiet() {}",
    );
    let user = "fn main() { lib::used(); let _: lib::Kept; lib::gone_quiet(); }".to_string();
    let index = Index::build(&[lib], &[user]);
    assert_eq!(
        index.uncalled(),
        BTreeSet::from([("lib".to_string(), "fresh".to_string())])
    );
    let problems = index.problems(&[
        ("lib", "fresh", Signature),
        ("lib", "gone_quiet", Signature),
        ("lib", "deleted", Paper),
    ]);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].contains("`lib::deleted` is not a `pub` item"));
    assert!(problems[1].contains("`lib::gone_quiet` has a caller now"));
    assert_eq!(index.problems(&[]).len(), 1);
}

#[test]
fn a_crate_does_not_call_itself_and_the_harness_has_no_surface() {
    let mut harness = library("bench", "pub fn experiment() { a::helper(); }");
    harness.library = false;
    let mut a = library("a", "pub fn helper() {}\npub fn own() { own(); }");
    a.other = vec!["fn integration() { a::own(); }".into()];
    let index = Index::build(&[a, harness], &[]);
    assert_eq!(index.declared.keys().collect::<Vec<_>>(), ["a"]);
    assert_eq!(
        index.uncalled(),
        BTreeSet::from([("a".to_string(), "own".to_string())])
    );
}

#[test]
fn the_tokenizer_skips_comments_strings_and_test_modules() {
    let src = r####"
        // pub fn in_a_comment() {}
        /* pub fn in_a /* nested */ block() {} */
        /// Calls [`doc_link`].
        pub fn real<'a>(x: &'a str) -> char { let _ = "pub fn in_a_string() {}"; '"' }
        pub unsafe fn risky() {}
        pub const unsafe fn raw_risky() {}
        pub const LIMIT: u8 = b'\''; pub const QUOTE: char = '\'';
        pub static RAW: &str = r#"pub fn in_a_raw_string() {}"#;
        #[cfg(test)]
        mod tests { pub fn helper() { let _ = '{'; } }
        pub(super) fn restricted() {}
        pub trait Shape {}
    "####;
    assert_eq!(
        declared_items(src),
        [
            "LIMIT",
            "QUOTE",
            "RAW",
            "Shape",
            "raw_risky",
            "real",
            "risky"
        ]
        .into_iter()
        .map(String::from)
        .collect()
    );
    let idents = identifiers(src);
    assert!(idents.contains("helper"), "test modules still call things");
    for hidden in [
        "in_a_comment",
        "block",
        "doc_link",
        "in_a_string",
        "in_a_raw_string",
        "a",
    ] {
        assert!(!idents.contains(hidden), "`{hidden}` is not code");
    }
}

#[test]
fn every_option_has_a_setter_or_a_stated_reason() {
    let problems = option_problems(&workspace_options(), OPTIONS);
    assert!(
        problems.is_empty(),
        "{} problem(s):\n  {}",
        problems.len(),
        problems.join("\n  ")
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for &(option, setter) in OPTIONS {
        match setter {
            In(file, name) => {
                let text = std::fs::read_to_string(root.join(file))
                    .unwrap_or_else(|e| panic!("`{option}`'s setter {file}: {e}"));
                assert!(
                    text.contains(name),
                    "`{option}`: {file} never names `{name}`"
                );
            }
            Because(reason) => assert!(!reason.is_empty(), "`{option}` states no reason"),
        }
    }
    let keys: BTreeSet<&str> = OPTIONS.iter().map(|&(o, _)| o).collect();
    assert_eq!(keys.len(), OPTIONS.len(), "an option is listed twice");
}

#[test]
fn a_new_option_and_a_stale_option_entry_both_fail() {
    let config = "pub struct Config { pub depth: u8, pub(crate) hidden: u8, pub seed: u64 }\n\
                  impl Default for Config { fn default() -> Self { todo!() } }\n\
                  #[derive(Default)] pub struct Stats { pub count: u64 }\n\
                  pub struct Plain { pub field: u8 }\n\
                  #[cfg(test)] mod tests { impl Default for Plain { } }";
    let reader = "fn knob() { std::env::var(\"RTBDISK_NEW\"); }\n\
                  // std::env::var(\"RTBDISK_COMMENTED\")\n\
                  const LISTED: &str = \"RTBDISK_NOT_READ\";";
    let mut options = option_fields(&[vec![config.to_string()]]);
    options.extend(option_variables(&[reader.to_string()]));
    let expected = ["Config::depth", "Config::seed", "RTBDISK_NEW"];
    assert_eq!(options, expected.iter().map(|o| o.to_string()).collect());
    let table = [
        ("Config::depth", Because("kept")),
        ("RTBDISK_NEW", Because("kept")),
        ("Gone::field", Because("kept")),
    ];
    let problems = option_problems(&options, &table);
    assert_eq!(problems.len(), 2, "{problems:?}");
    assert!(problems[0].contains("`Config::seed` is a new option"));
    assert!(problems[1].contains("`Gone::field`, which is not an option"));
    let complete = [
        ("Config::depth", Because("kept")),
        ("Config::seed", Because("kept")),
        ("RTBDISK_NEW", Because("kept")),
    ];
    assert!(option_problems(&options, &complete).is_empty());
}

#[test]
fn a_builders_setters_are_options_and_nothing_else_is() {
    let builder = "pub struct Builder { depth: u8 }\n\
                   impl Builder {\n\
                       pub fn depth(mut self, depth: u8) -> Self { self.depth = depth; self }\n\
                       pub fn pairs(mut self, p: impl IntoIterator<Item = (u8, u8)>) -> Self { self }\n\
                       pub fn build(self) -> Thing { todo!() }\n\
                       pub fn peek(&self) -> u8 { self.depth }\n\
                       pub(crate) fn hidden(mut self) -> Self { self }\n\
                       fn private(mut self) -> Self { self }\n\
                       pub fn sized(mut self) -> Result<Self, ()> { Ok(self) }\n\
                   }\n\
                   impl Other { pub fn knob(mut self) -> Self { self } }\n\
                   #[cfg(test)] mod tests { impl Builder { pub fn seed(mut self) -> Self { self } } }";
    let setters = option_setters(&[builder.to_string()], &["Builder"]);
    let expected = ["Builder::depth", "Builder::pairs"];
    assert_eq!(setters, expected.iter().map(|o| o.to_string()).collect());
}
