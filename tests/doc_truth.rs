//! The prose docs name only what the code has.
//!
//! Over README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md`, outside
//! fenced code blocks:
//!
//! * every `ALPHAWAN_*` environment variable must occur in the Rust
//!   sources under `crates/`, `examples/`, `tests/` and `src/`;
//! * every backticked Rust path — `Type`, `module::Type`,
//!   `Type::method`, with or without a call suffix — must be made of
//!   identifiers those sources contain;
//! * every backticked all-lowercase path that starts with a workspace
//!   crate — `netserver::dedup`, `sim::accum::tests::some_test`,
//!   `obs::proc_mem()` — must name a module file under
//!   `crates/<crate>/src` (`<module>.rs` or `<module>/mod.rs`) for each
//!   segment, until one names an item the last such file contains.
//!
//! Comments in the sources do not count, so a name that survives only
//! in a comment does not keep a doc line alive; string literals do, so
//! a variable the code reads with `std::env::var` resolves. A deletion
//! that leaves a doc naming the deleted item fails here.
//!
//! A third check holds every relative Markdown link in those docs and
//! ROADMAP.md to a file in the repository. A fourth keeps every
//! crate's API honest: every `pub fn` in `crates/*/src` outside test
//! code must be named by some non-test source besides its definition
//! and its re-exports, or sit on one allow-list with one of two
//! reasons.
//! A fifth holds the golden set to the code: `results/*.csv` are
//! exactly the tables the experiments `emit` minus the measured ones
//! `report.rs` sends to `results/out/`, and EXPERIMENTS.md's catalogue
//! names those tables and marks the measured ones.
//! A sixth keeps `benchmark/` the one perf system: the retired perf
//! stack's names occur in no source, doc, manifest or CI workflow, and
//! no non-test source outside `benchmark/` writes a `BENCH_*.json`.
//! A seventh holds docs/OBSERVABILITY.md's endpoint table to the paths
//! each daemon's `http_handler` matches, row for path, and its
//! `/metrics` rows to the metric names the daemons register.
//! An eighth keeps the code a daemon runs free of `.unwrap()` and
//! `.expect("…")`: a malformed input must not panic a daemon.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The docs whose names must resolve, as paths relative to the root.
fn prose_docs() -> Vec<PathBuf> {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(PathBuf::from)
        .collect();
    let mut extra: Vec<PathBuf> = fs::read_dir(root().join("docs"))
        .expect("docs/ readable")
        .map(|e| e.expect("docs/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .map(|p| p.strip_prefix(root()).expect("under root").to_path_buf())
        .collect();
    extra.sort();
    docs.extend(extra);
    docs
}

fn read(rel: &Path) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{}: {e}", rel.display()))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") && !path.ends_with(file!()) {
            out.push(path);
        }
    }
}

/// `src` with its `//` and `/* */` comments blanked. String and char
/// literals are copied whole, so a `//` inside one is not a comment.
fn strip_comments(src: &str) -> String {
    let c: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < c.len() {
        let next = c.get(i + 1).copied();
        if c[i] == '/' && next == Some('/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if c[i] == '/' && next == Some('*') {
            i += 2;
            while i < c.len() && !(c[i - 1] == '*' && c[i] == '/') {
                i += 1;
            }
            i += 1;
            out.push(' ');
        } else if let Some(end) = literal_end(&c, i) {
            out.extend(&c[i..end]);
            i = end;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// The index just past the string, raw string or char literal that
/// opens at `i`, if one does.
fn literal_end(c: &[char], i: usize) -> Option<usize> {
    if let Some(hashes) = raw_string_at(c, i) {
        // A raw string runs to a quote followed by as many hashes.
        let closes = |j: usize| c[j] == '"' && c[j + 1..].iter().take(hashes).all(|&h| h == '#');
        let mut j = i + 2 + hashes;
        while j < c.len() && !closes(j) {
            j += 1;
        }
        Some((j + 1 + hashes).min(c.len()))
    } else if c[i] == '"' {
        let mut j = i + 1;
        while j < c.len() && c[j] != '"' {
            j += if c[j] == '\\' { 2 } else { 1 };
        }
        Some((j + 1).min(c.len()))
    } else if c[i] == '\'' && c.get(i + 1) == Some(&'\\') {
        // Escaped char literal: `'\''`, `'\\'`, `'\u{..}'`.
        let end = c
            .get(i + 3..)
            .and_then(|t| t.iter().position(|&ch| ch == '\''))
            .map_or(c.len(), |p| i + 4 + p);
        Some(end)
    } else if c[i] == '\'' && c.get(i + 2) == Some(&'\'') {
        Some(i + 3)
    } else {
        None
    }
}

/// The number of `#`s if a raw string literal (`r"`, `r#"`, `br#"`)
/// opens at `i`.
fn raw_string_at(c: &[char], i: usize) -> Option<usize> {
    let in_word = i > 0 && (c[i - 1].is_alphanumeric() || c[i - 1] == '_') && c[i - 1] != 'b';
    if c[i] != 'r' || in_word {
        return None;
    }
    let hashes = c[i + 1..].iter().take_while(|&&ch| ch == '#').count();
    (c.get(i + 1 + hashes) == Some(&'"')).then_some(hashes)
}

/// Every word (`[A-Za-z0-9_]+`) outside comments in the sources,
/// scanned once per test binary.
fn source_words() -> &'static HashSet<String> {
    static WORDS: OnceLock<HashSet<String>> = OnceLock::new();
    WORDS.get_or_init(scan_source_words)
}

fn scan_source_words() -> HashSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests", "src"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "only {} source files found", files.len());
    let mut words = HashSet::new();
    for f in files {
        let src = fs::read_to_string(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        let code = strip_comments(&src);
        words.extend(
            code.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                .filter(|w| !w.is_empty())
                .map(str::to_string),
        );
    }
    words
}

/// `code` (comments already stripped) with every `#[cfg(test)]` item
/// blanked: from the attribute through the item's first `;` or, if a
/// `{` comes first, its matching `}`. Braces inside literals do not
/// count.
fn without_test_items(code: &str) -> String {
    let c: Vec<char> = code.chars().collect();
    let attr: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut out = String::with_capacity(code.len());
    let mut i = 0;
    while i < c.len() {
        if c[i..].starts_with(&attr) {
            i = item_end(&c, i + attr.len());
            out.push(' ');
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// The index just past the item that starts at `i`.
fn item_end(c: &[char], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < c.len() {
        match c[i] {
            '{' => depth += 1,
            '}' if depth <= 1 => return i + 1,
            '}' => depth -= 1,
            ';' if depth == 0 => return i + 1,
            _ => {
                if let Some(end) = literal_end(c, i) {
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    c.len()
}

/// The workspace crates, as their directory names under `crates/`.
fn workspace_crates() -> Vec<String> {
    let mut crates: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ readable")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("src").is_dir())
        .map(|p| p.file_name().expect("named").to_string_lossy().into_owned())
        .collect();
    crates.sort();
    crates
}

/// Every non-test Rust source — `crates/*/src`, `benchmark/src`,
/// `examples` and `src` — as (path, code) with comments and
/// `#[cfg(test)]` items blanked. A module file declared under
/// `#[cfg(test)]` (`#[cfg(test)] mod oracle;`) is test code and left out.
fn non_test_sources() -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    for krate in workspace_crates() {
        rust_files(&root().join("crates").join(krate).join("src"), &mut files);
    }
    for dir in ["benchmark/src", "examples", "src"] {
        rust_files(&root().join(dir), &mut files);
    }
    let code: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|f| {
            let src = fs::read_to_string(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            (f, strip_comments(&src))
        })
        .collect();
    let test_only: Vec<PathBuf> = code
        .iter()
        .flat_map(|(f, code)| test_only_modules(f, code))
        .collect();
    code.into_iter()
        .filter(|(f, _)| !test_only.iter().any(|m| f.starts_with(m)))
        .map(|(f, code)| (f, without_test_items(&code)))
        .collect()
}

/// The files and directories of the modules `file` declares under
/// `#[cfg(test)]` with a `mod name;` (its `code` comment-free).
fn test_only_modules(file: &Path, code: &str) -> Vec<PathBuf> {
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = match stem {
        "lib" | "main" | "mod" => file.parent().expect("in a dir").to_path_buf(),
        _ => file.with_extension(""),
    };
    let mut modules = Vec::new();
    for (at, m) in code.match_indices("#[cfg(test)]") {
        let item = code[at + m.len()..].trim_start();
        let item = item.strip_prefix("pub ").unwrap_or(item);
        let Some(rest) = item.strip_prefix("mod ") else {
            continue;
        };
        let name = words(rest).next().unwrap_or("");
        if rest.trim_start()[name.len()..]
            .trim_start()
            .starts_with(';')
        {
            modules.push(dir.join(format!("{name}.rs")));
            modules.push(dir.join(name));
        }
    }
    modules
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
        .filter(|w| !w.is_empty())
}

/// The names of the `pub fn`s `code` defines.
fn pub_fns(code: &str) -> Vec<&str> {
    code.match_indices("pub fn ")
        .filter(|&(at, _)| at == 0 || !code[..at].ends_with(|ch: char| ch.is_alphanumeric()))
        .filter_map(|(at, m)| words(&code[at + m.len()..]).next())
        .collect()
}

/// `code` with every re-export (`pub use …;`, `pub(crate) use …;`)
/// blanked: naming a fn there is not calling it.
fn without_reexports(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    while let Some(at) = reexport_at(rest) {
        out.push_str(&rest[..at]);
        let end = rest[at..].find(';').map_or(rest.len(), |e| at + e + 1);
        out.push(' ');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Where the first `pub use` or `pub(…) use` in `code` starts.
fn reexport_at(code: &str) -> Option<usize> {
    code.match_indices("pub")
        .filter(|&(at, _)| {
            at == 0 || !code[..at].ends_with(|ch: char| ch.is_alphanumeric() || ch == '_')
        })
        .find(|&(at, m)| {
            let after = &code[at + m.len()..];
            let after = match after.strip_prefix('(') {
                Some(vis) => vis.find(')').map_or("", |close| &vis[close + 1..]),
                None => after,
            };
            after.starts_with(" use ")
        })
        .map(|(at, _)| at)
}

/// The `pub fn`s of `crates/<krate>/src` whose every occurrence in
/// non-test source outside re-exports is a definition (`fn name`),
/// ascending.
fn uncalled_pub_fns(sources: &[(PathBuf, String)], krate: &str) -> Vec<String> {
    let mut uses: HashMap<&str, usize> = HashMap::new();
    let mut defs: HashMap<&str, usize> = HashMap::new();
    let live: Vec<(&PathBuf, String)> = sources
        .iter()
        .map(|(f, code)| (f, without_reexports(code)))
        .collect();
    for (_, code) in &live {
        let mut prev = "";
        for w in words(code) {
            *uses.entry(w).or_default() += 1;
            if prev == "fn" {
                *defs.entry(w).or_default() += 1;
            }
            prev = w;
        }
    }
    let src = root().join("crates").join(krate).join("src");
    let mut uncalled: Vec<String> = live
        .iter()
        .filter(|(f, _)| f.starts_with(&src))
        .flat_map(|(_, code)| pub_fns(code))
        .filter(|name| uses[name] <= defs[name])
        .map(str::to_string)
        .collect();
    uncalled.sort();
    uncalled.dedup();
    uncalled
}

/// `text` with the lines of its fenced code blocks blanked.
fn outside_fences(text: &str) -> String {
    let mut in_fence = false;
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if !in_fence {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The inline code spans of `text`: a run of n backticks up to the
/// next run of exactly n, as Markdown pairs them.
fn code_spans(text: &str) -> Vec<String> {
    let c: Vec<char> = text.chars().collect();
    let run = |i: usize| c[i..].iter().take_while(|&&ch| ch == '`').count();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < c.len() {
        if c[i] != '`' {
            i += 1;
            continue;
        }
        let n = run(i);
        let body = i + n;
        let mut j = body;
        let close = loop {
            if j >= c.len() {
                break None;
            }
            if c[j] == '`' {
                let m = run(j);
                if m == n {
                    break Some(j);
                }
                j += m;
            } else {
                j += 1;
            }
        };
        match close {
            Some(j) => {
                spans.push(c[body..j].iter().collect::<String>().trim().to_string());
                i = j + n;
            }
            None => i = body,
        }
    }
    spans
}

/// The identifiers of `span` if it is a Rust path naming a type:
/// `::`-separated identifiers, at least one of them UpperCamelCase,
/// optionally followed by a call's parentheses.
fn type_path(span: &str) -> Option<Vec<&str>> {
    let path = match span.find('(') {
        Some(p) if span.ends_with(')') => &span[..p],
        Some(_) => return None,
        None => span,
    };
    let segs: Vec<&str> = path.split("::").collect();
    let is_ident = |s: &str| {
        s.chars()
            .next()
            .is_some_and(|ch| ch.is_ascii_alphabetic() || ch == '_')
            && s.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
    };
    let is_type = |s: &str| {
        s.starts_with(|ch: char| ch.is_ascii_uppercase())
            && s.chars().any(|ch| ch.is_ascii_lowercase())
    };
    (segs.iter().all(|s| is_ident(s)) && segs.iter().any(|s| is_type(s))).then_some(segs)
}

/// The segments of `span` if it is an all-lowercase Rust path of two
/// or more segments whose first is a workspace crate (`lora_mac` for
/// `crates/lora-mac`), optionally followed by a call's parentheses.
fn crate_path(span: &str) -> Option<Vec<&str>> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segs: Vec<&str> = path.split("::").collect();
    let lower_ident = |s: &str| {
        s.starts_with(|ch: char| ch.is_ascii_lowercase() || ch == '_')
            && s.chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_')
    };
    let is_crate = |s: &str| root().join("crates").join(s.replace('_', "-")).is_dir();
    (segs.len() >= 2 && segs.iter().all(|s| lower_ident(s)) && is_crate(segs[0])).then_some(segs)
}

/// The first segment of crate path `segs` that resolves to nothing.
/// Each segment after the crate descends into `<module>.rs` or
/// `<module>/mod.rs` while one exists; from the first that does not,
/// the segments must be words of the last module file reached (an
/// item it defines or re-exports, or an inline `mod tests`).
fn crate_path_lack(segs: &[&str]) -> Option<String> {
    let mut dir = root()
        .join("crates")
        .join(segs[0].replace('_', "-"))
        .join("src");
    let mut file = dir.join("lib.rs");
    let mut rest = &segs[1..];
    while let Some((seg, tail)) = rest.split_first() {
        let module = [dir.join(format!("{seg}.rs")), dir.join(seg).join("mod.rs")]
            .into_iter()
            .find(|f| f.is_file());
        let Some(module) = module else { break };
        dir = dir.join(seg);
        file = module;
        rest = tail;
    }
    if rest.is_empty() {
        return None;
    }
    let src = fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let code = strip_comments(&src);
    let words: HashSet<&str> = code
        .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
        .collect();
    rest.iter()
        .find(|s| !words.contains(**s))
        .map(|s| s.to_string())
}

/// Every `ALPHAWAN_*` name, backticked type path and backticked crate
/// path in `text` (a doc already cut to [`outside_fences`]), each with
/// the first part the sources lack, if any.
fn doc_names(text: &str, words: &HashSet<String>) -> Vec<(String, Option<String>)> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices("ALPHAWAN_") {
        let name: String = text[at..]
            .chars()
            .take_while(|ch| ch.is_ascii_uppercase() || ch.is_ascii_digit() || *ch == '_')
            .collect();
        if name.len() > "ALPHAWAN_".len() {
            let lack = (!words.contains(&name)).then(|| name.clone());
            names.push((format!("variable {name}"), lack));
        }
    }
    for span in code_spans(text) {
        if let Some(segs) = type_path(&span) {
            let lack = segs
                .iter()
                .find(|s| !words.contains(**s))
                .map(|s| s.to_string());
            names.push((format!("`{span}`"), lack));
        } else if let Some(segs) = crate_path(&span) {
            names.push((format!("`{span}`"), crate_path_lack(&segs)));
        }
    }
    names
}

/// The relative targets of the `[text](target)` links in `text`: no
/// URLs, no in-page anchors, and an anchor suffix cut off.
fn relative_links(text: &str) -> Vec<&str> {
    let mut links = Vec::new();
    for (at, _) in text.match_indices("](") {
        // A link is `[text](target)`: a `[` before with no `]` in
        // between, and a target without whitespace up to `)`.
        let before = &text[..at];
        if before
            .rfind('[')
            .is_none_or(|open| before[open..].contains(']'))
        {
            continue;
        }
        let rest = &text[at + 2..];
        let Some(end) = rest.find(|ch: char| ch == ')' || ch.is_whitespace()) else {
            continue;
        };
        let target = &rest[..end];
        if target.is_empty() || !rest[end..].starts_with(')') {
            continue;
        }
        if ["http://", "https://", "mailto:", "#"]
            .iter()
            .any(|p| target.starts_with(p))
        {
            continue;
        }
        links.push(target.split('#').next().unwrap_or(target));
    }
    links
}

#[test]
fn docs_name_only_what_the_sources_have() {
    let words = source_words();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in prose_docs() {
        for (name, lack) in doc_names(&outside_fences(&read(&doc)), words) {
            checked += 1;
            if let Some(lack) = lack {
                missing.push(format!(
                    "{}: {name} ({lack} not in the sources)",
                    doc.display()
                ));
            }
        }
    }
    assert!(
        checked >= 150,
        "only {checked} names checked: the scan lost the docs"
    );
    assert!(
        missing.is_empty(),
        "{} of {checked} doc names resolve to nothing in the sources:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

#[test]
fn relative_links_resolve() {
    let mut docs = prose_docs();
    docs.push(PathBuf::from("ROADMAP.md"));
    let mut bad = Vec::new();
    for doc in &docs {
        let text = read(doc);
        let dir = doc.parent().unwrap_or(Path::new(""));
        for path in relative_links(&text) {
            if !root().join(dir).join(path).exists() {
                bad.push(format!("{}: broken link -> {path}", doc.display()));
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The table names the experiment modules pass to `Table::emit`,
/// ascending.
fn emitted_tables() -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root().join("crates/bench/src/experiments"), &mut files);
    let mut names = Vec::new();
    for f in files {
        let src = fs::read_to_string(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        let code = strip_comments(&src);
        for (at, m) in code.match_indices(".emit(\"") {
            let rest = &code[at + m.len()..];
            names.push(rest[..rest.find('"').expect("closed literal")].to_string());
        }
    }
    names.sort();
    names
}

/// The string literals of `report.rs`'s `MEASURED` array: the tables
/// of wall-clock measurements, written outside the golden set.
fn measured_tables() -> Vec<String> {
    let code = strip_comments(&read(Path::new("crates/bench/src/report.rs")));
    let at = code
        .find("const MEASURED")
        .expect("report.rs declares MEASURED");
    let value = &code[at + code[at..].find('=').expect("MEASURED has a value")..];
    let value = &value[..value.find(';').expect("MEASURED ends")];
    value
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The CSV names of EXPERIMENTS.md's catalogue (the table's second
/// column), each with whether a `†` marks it measured.
fn catalogue_tables() -> Vec<(String, bool)> {
    let doc = read(Path::new("EXPERIMENTS.md"));
    let start = doc
        .find("## Experiment catalogue")
        .expect("EXPERIMENTS.md has a catalogue");
    let section = &doc[start..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |e| e + 1)];
    section
        .lines()
        .filter(|l| l.starts_with('|'))
        .filter_map(|l| l.split('|').nth(2))
        .flat_map(|cell| {
            let measured = cell.contains('†');
            code_spans(cell)
                .into_iter()
                .map(move |name| (name, measured))
        })
        .collect()
}

#[test]
fn results_hold_exactly_the_golden_tables() {
    let emitted = emitted_tables();
    let measured = measured_tables();
    assert!(emitted.len() >= 30, "only {} emits found", emitted.len());
    assert!(!measured.is_empty(), "no MEASURED tables found");
    for m in &measured {
        assert!(
            emitted.contains(m),
            "MEASURED names {m}, which nothing emits"
        );
        let copy = root().join("results").join(format!("{m}.csv"));
        assert!(!copy.exists(), "measured table {m} has a committed copy");
    }
    let golden: Vec<String> = emitted
        .iter()
        .filter(|n| !measured.contains(n))
        .cloned()
        .collect();
    let committed: Vec<String> = fs::read_dir(root().join("results"))
        .expect("results/ readable")
        .map(|e| e.expect("results/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| p.file_stem().expect("named").to_string_lossy().into_owned())
        .collect();
    let orphans: Vec<&String> = committed.iter().filter(|n| !golden.contains(n)).collect();
    let unpinned: Vec<&String> = golden.iter().filter(|n| !committed.contains(n)).collect();
    assert!(
        orphans.is_empty() && unpinned.is_empty(),
        "results/*.csv must be exactly the emitted, non-measured tables: \
         no emit writes {orphans:?}, no CSV holds {unpinned:?} (re-pin: run \
         all_experiments, review git diff results/, commit)"
    );
    let catalogue = catalogue_tables();
    let mut named: Vec<String> = catalogue.iter().map(|(n, _)| n.clone()).collect();
    named.sort();
    assert_eq!(
        named, emitted,
        "EXPERIMENTS.md's catalogue must name every emitted table once"
    );
    for (name, dagger) in &catalogue {
        assert_eq!(
            *dagger,
            measured.contains(name),
            "EXPERIMENTS.md: † must mark exactly the measured tables ({name})"
        );
    }
}

/// Allow-list reason: ROADMAP item 9's downlink path, built and tested
/// but not yet driven by a daemon.
const DOWNLINK: &str = "ROADMAP item 9's downlink path";
/// Allow-list reason: an integration test (a crate of its own) drives
/// it, so `#[cfg(test)]` cannot reach it.
const ACROSS: &str = "an integration test in another crate drives it";

/// The `pub fn`s kept without a non-test caller: (crate, name, why),
/// `why` one of the two reasons above.
const UNCALLED_PUB_FNS: [(&str, &str, &str); 17] = [
    // Plan the RX window, send the PULL_RESP, decide whether the
    // device heard it, decode and apply the command.
    ("netserver", "plan_downlink", DOWNLINK),
    ("svc", "send_downlink", DOWNLINK),
    ("sim", "evaluate_downlinks", DOWNLINK),
    ("lora-mac", "decode_all_downlink", DOWNLINK),
    ("lora-mac", "apply", DOWNLINK),
    // Driven by svc/tests and tests/frame_pipeline.rs.
    ("gateway", "pull", ACROSS),
    ("gateway", "recv_downlink", ACROSS),
    ("gateway", "set_ack_timeout", ACROSS),
    ("lora-mac", "defaults", ACROSS),
    ("lora-mac", "enabled_channels", ACROSS),
    ("lora-mac", "next_fcnt", ACROSS),
    // Driven by chaos/tests, sim/tests, tests/sim_equivalence.rs,
    // tests/obs_determinism.rs and tests/json_reader.rs.
    ("chaos", "arrivals", ACROSS),
    ("chaos", "to_json", ACROSS),
    ("sim", "collect_chunks", ACROSS),
    ("sim", "statistically_equivalent", ACROSS),
    ("sim", "run_with_faults_reference", ACROSS),
    ("sim", "take_obs_sink", ACROSS),
];

#[test]
fn every_pub_fn_has_a_non_test_caller() {
    let sources = non_test_sources();
    let crates = workspace_crates();
    assert!(crates.len() >= 10, "only {} crates found", crates.len());
    for &(krate, name, _) in &UNCALLED_PUB_FNS {
        assert!(
            crates.iter().any(|k| k == krate),
            "{name}: no crate {krate}"
        );
    }
    for krate in &crates {
        let uncalled = uncalled_pub_fns(&sources, krate);
        let allowed: Vec<(&str, &str)> = UNCALLED_PUB_FNS
            .iter()
            .filter(|&&(k, _, _)| k == krate)
            .map(|&(_, name, why)| (name, why))
            .collect();
        let unexpected: Vec<&String> = uncalled
            .iter()
            .filter(|f| allowed.iter().all(|(name, _)| name != f))
            .collect();
        assert!(
            unexpected.is_empty(),
            "{krate} `pub fn`s nothing outside tests names (delete them or give \
             one a caller): {unexpected:?}"
        );
        for (name, why) in allowed {
            assert!(
                uncalled.iter().any(|f| f == name),
                "{name} ({why}) now has a caller: drop it from the allow-list"
            );
        }
    }
}

/// The retired perf stack: its runner, its floor file and the command
/// that ran its benches.
const RETIRED_PERF_NAMES: [&str; 3] = ["benchctl", "BENCH_baseline", "cargo bench"];

/// The `BENCH_*.json` names the string literals of `code` (comments
/// already stripped) spell, whole or as a `format!` template.
fn bench_artifacts(code: &str) -> Vec<String> {
    let c: Vec<char> = code.chars().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < c.len() {
        let Some(end) = literal_end(&c, i) else {
            i += 1;
            continue;
        };
        let literal: String = c[i..end].iter().collect();
        let body = literal.trim_end_matches('#').trim_end_matches('"');
        if let Some(at) = body.find("BENCH_") {
            if body.ends_with(".json") {
                names.push(body[at..].to_string());
            }
        }
        i = end;
    }
    names
}

#[test]
fn the_retired_perf_stack_is_named_nowhere() {
    let mut files = Vec::new();
    for dir in ["crates", "examples", "tests", "src", "benchmark/src"] {
        rust_files(&root().join(dir), &mut files);
    }
    files.extend(prose_docs().into_iter().map(|doc| root().join(doc)));
    for entry in fs::read_dir(root().join(".github/workflows")).expect("workflows readable") {
        files.push(entry.expect("workflow entry").path());
    }
    files.push(root().join("Cargo.toml"));
    for dir in ["crates", "vendor"] {
        for entry in fs::read_dir(root().join(dir)).expect("readable") {
            let manifest = entry.expect("entry").path().join("Cargo.toml");
            if manifest.exists() {
                files.push(manifest);
            }
        }
    }
    assert!(files.len() > 100, "only {} files scanned", files.len());
    let mut hits = Vec::new();
    for f in &files {
        let text = fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        for name in RETIRED_PERF_NAMES {
            if text.contains(name) {
                hits.push(format!("{}: {name}", f.display()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "the repo benchmark is the one perf system; these still name the retired one:\n{}",
        hits.join("\n")
    );
}

#[test]
fn only_the_benchmark_writes_bench_artifacts() {
    let benchmark = root().join("benchmark");
    let writers: Vec<String> = non_test_sources()
        .iter()
        .filter(|(f, _)| !f.starts_with(&benchmark))
        .flat_map(|(f, code)| {
            bench_artifacts(code)
                .into_iter()
                .map(move |name| format!("{}: {name}", f.display()))
        })
        .collect();
    assert!(
        writers.is_empty(),
        "`BENCH_*.json` artifacts are the repo benchmark's alone:\n{}",
        writers.join("\n")
    );
}

#[test]
fn bench_artifact_names_are_found_in_string_literals() {
    let code = "let a = \"results/out/BENCH_svc.json\";\n\
                let b = format!(\"BENCH_{name}.json\", name = n);\n\
                let c = BENCH_SCHEMA_VERSION; let q = '\"';\n\
                let d = \"BENCH_ notes\"; let e = \"x.json\";\n";
    assert_eq!(
        bench_artifacts(code),
        ["BENCH_svc.json", "BENCH_{name}.json"]
    );
    let commented = strip_comments("// writes \"BENCH_x.json\"\nlet y = 1;\n");
    assert!(bench_artifacts(&commented).is_empty());
}

#[test]
fn test_items_are_blanked_and_pub_fns_found() {
    let code = "pub fn kept() { helper(); }\n#[cfg(test)]\nmod tests { fn t() { \"}\"; } }\n\
                #[cfg(test)]\nmod big;\npub(crate) fn inner() {}\nfn helper() {}\n\
                #[cfg(test)]\npub fn only_in_tests() -> u8 { 1 }\npub fn after() {}\n";
    let live = without_test_items(code);
    for gone in ["mod tests", "fn t()", "mod big", "only_in_tests"] {
        assert!(!live.contains(gone), "{gone} survived: {live}");
    }
    for kept in [
        "pub fn kept()",
        "pub(crate) fn inner",
        "fn helper",
        "pub fn after",
    ] {
        assert!(live.contains(kept), "{kept} lost: {live}");
    }
    assert_eq!(pub_fns(&live), ["kept", "after"]);
}

#[test]
fn a_pub_fn_named_only_in_a_reexport_is_uncalled() {
    let src = root().join("crates/demo/src");
    let lib = "pub mod m;\npub use m::{called, reexported};\npub(crate) use m::{\n    inner,\n};\n";
    let sources = vec![
        (src.join("lib.rs"), lib.to_string()),
        (
            src.join("m.rs"),
            "pub fn called() {}\npub fn reexported() {}\npub fn inner() {}\n".to_string(),
        ),
        (
            root().join("examples/demo.rs"),
            "fn main() { demo::called(); }\n".to_string(),
        ),
    ];
    assert_eq!(without_reexports(lib), "pub mod m;\n \n \n");
    assert_eq!(uncalled_pub_fns(&sources, "demo"), ["inner", "reexported"]);
}

#[test]
fn modules_declared_under_cfg_test_are_test_code() {
    let dir = root().join("crates/demo/src");
    let lib = "#[cfg(test)]\nmod oracle;\n#[cfg(test)]\nmod tests {}\npub mod live;\n\
               #[cfg(test)] pub mod fixtures;\n";
    assert_eq!(
        test_only_modules(&dir.join("lib.rs"), lib),
        [
            dir.join("oracle.rs"),
            dir.join("oracle"),
            dir.join("fixtures.rs"),
            dir.join("fixtures"),
        ]
    );
    assert_eq!(
        test_only_modules(&dir.join("cp/ga.rs"), "#[cfg(test)]\nmod oracle;\n"),
        [dir.join("cp/ga/oracle.rs"), dir.join("cp/ga/oracle")]
    );
    // The CP solver's exhaustive oracle is such a module.
    let brute = root().join("crates/alphawan/src/cp/brute.rs");
    assert!(brute.is_file());
    assert!(non_test_sources().iter().all(|(f, _)| *f != brute));
}

#[test]
fn a_doc_naming_a_type_the_sources_lack_fails() {
    let doc = "Keep the tail in a `NoSuchRecorder`; snapshot it with \
               `obs::NoSuchRecorder::open()` into a `VecSink`.\n";
    let names = doc_names(doc, source_words());
    let lacking: Vec<_> = names
        .iter()
        .filter_map(|(_, lack)| lack.as_deref())
        .collect();
    assert_eq!(names.len(), 3, "{names:?}");
    assert_eq!(lacking, ["NoSuchRecorder", "NoSuchRecorder"], "{names:?}");
}

#[test]
fn a_doc_naming_a_module_its_crate_lacks_fails() {
    let doc = "Frames reach `netserver::dedup` through `svc::netserverd`, not \
               `netserver::udp`; see `sim::accum::tests::no_such_test`, \
               `obs::proc_mem()`, `lora_mac::frame` and `std::thread::scope`.\n";
    let names = doc_names(doc, source_words());
    let lacking: Vec<_> = names
        .iter()
        .filter_map(|(_, lack)| lack.as_deref())
        .collect();
    assert_eq!(names.len(), 6, "{names:?}");
    assert_eq!(lacking, ["udp", "no_such_test"], "{names:?}");
}

#[test]
fn a_doc_naming_an_unread_variable_fails() {
    let doc = "Set `ALPHAWAN_HEARTBEAT` or ALPHAWAN_NO_SUCH_KNOB=1; \
               a bare `ALPHAWAN_` prefix names nothing.\n";
    let names = doc_names(doc, source_words());
    assert_eq!(
        names,
        [
            ("variable ALPHAWAN_HEARTBEAT".to_string(), None),
            (
                "variable ALPHAWAN_NO_SUCH_KNOB".to_string(),
                Some("ALPHAWAN_NO_SUCH_KNOB".to_string())
            ),
        ]
    );
}

#[test]
fn names_inside_fenced_blocks_are_not_checked() {
    let doc = "Use `VecSink`.\n```rust\nlet r = NoSuchRecorder::new();\n```\nDone.\n";
    let text = outside_fences(doc);
    assert_eq!(
        text.lines().count(),
        doc.lines().count(),
        "line numbers kept"
    );
    assert!(!text.contains("NoSuchRecorder"), "{text}");
    assert!(
        text.contains("`VecSink`") && text.contains("Done."),
        "{text}"
    );
}

#[test]
fn comments_are_blanked_but_strings_are_kept() {
    let src = "let a = 1; // OnlyInComment\n/* Block\nComment */ let b = \"// Kept\";\n\
               let c = \"esc \\\" // StillString\"; let d = '/';\n";
    let code = strip_comments(src);
    for gone in ["OnlyInComment", "Block", "Comment */"] {
        assert!(!code.contains(gone), "{gone} survived: {code}");
    }
    for kept in [
        "let a = 1;",
        "\"// Kept\"",
        "// StillString",
        "let d = '/';",
    ] {
        assert!(code.contains(kept), "{kept} lost: {code}");
    }
}

#[test]
fn raw_strings_and_char_literals_are_not_comments() {
    let src = "let r = r#\"a \" // Raw\"#; let b = br\"// Bytes\";\n\
               let q = '\"'; let e = '\\''; fn f<'a>(x: &'a str) {} // Gone\n";
    let code = strip_comments(src);
    for kept in [
        "// Raw\"#",
        "// Bytes",
        "let q = '\"';",
        "let e = '\\'';",
        "fn f<'a>",
    ] {
        assert!(code.contains(kept), "{kept} lost: {code}");
    }
    assert!(!code.contains("Gone"), "{code}");
    // `r` ending an identifier does not open a raw string.
    assert_eq!(
        raw_string_at(&"for\"x\"".chars().collect::<Vec<_>>(), 2),
        None
    );
    assert_eq!(
        raw_string_at(&"r##\"x\"##".chars().collect::<Vec<_>>(), 0),
        Some(2)
    );
}

#[test]
fn code_spans_pair_backtick_runs_of_equal_length() {
    assert_eq!(
        code_spans("a `One` b `` Two`s `` c ``` Three ``` d `open"),
        ["One", "Two`s", "Three"]
    );
}

#[test]
fn type_paths_are_told_from_other_code_spans() {
    for (span, want) in [
        ("VecSink", Some(&["VecSink"][..])),
        ("obs::VecSink", Some(&["obs", "VecSink"][..])),
        (
            "JsonlSink::create_atomic",
            Some(&["JsonlSink", "create_atomic"][..]),
        ),
        ("SweepRunner::new(n)", Some(&["SweepRunner", "new"][..])),
        ("cargo test", None),
        ("snake_case_fn", None),
        ("SCREAMING_CONST", None),
        ("obs::sink", None),
        ("Vec<u8>", None),
        ("f(x", None),
        ("--quick", None),
    ] {
        assert_eq!(type_path(span).as_deref(), want, "{span}");
    }
}

#[test]
fn link_scan_keeps_only_relative_targets() {
    let doc = "See [design](DESIGN.md), [scaling](docs/SCALING.md#knobs), \
               [site](https://example.org/x.md), [top](#top), [mail](mailto:a@b), \
               an array[i](j) call, [spaced](a b), and [empty]().\n";
    assert_eq!(relative_links(doc), ["DESIGN.md", "docs/SCALING.md", "j"]);
}

/// The daemons that serve HTTP, as their module names under
/// `crates/svc/src`.
const DAEMONS: [&str; 2] = ["masterd", "netserverd"];

/// The string literals that open the match arms of the item starting
/// at the first `fn http_handler` in `code` (comments already
/// stripped): the paths the handler serves.
fn handler_paths(code: &str) -> BTreeSet<String> {
    let c: Vec<char> = code.chars().collect();
    let Some(start) = code.find("fn http_handler") else {
        return BTreeSet::new();
    };
    let start = code[..start].chars().count();
    let end = item_end(&c, start);
    let mut paths = BTreeSet::new();
    let mut i = start;
    while i < end {
        let Some(after) = literal_end(&c, i) else {
            i += 1;
            continue;
        };
        let rest: String = c[after..end.min(after + 8)].iter().collect();
        if c[i] == '"' && rest.trim_start().starts_with("=>") {
            paths.insert(c[i + 1..after - 1].iter().collect());
        }
        i = after;
    }
    paths
}

/// Per daemon, the paths an endpoint table (`| Path | Serves |`) in
/// `doc` lists for it: a row's path is its first cell's first code
/// span, and the row is every daemon's unless its second cell opens
/// with "(`<daemon>` only)".
fn documented_paths(doc: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut served: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Path | Serves |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'));
    for row in rows {
        let mut cells = row.split('|').skip(1);
        let (Some(path), Some(serves)) = (cells.next(), cells.next()) else {
            continue;
        };
        let Some(path) = path.split('`').nth(1) else {
            continue;
        };
        let only = serves
            .trim_start()
            .strip_prefix("(`")
            .and_then(|r| r.split_once("` only)"))
            .map(|(daemon, _)| daemon);
        for daemon in DAEMONS.into_iter().filter(|d| only.is_none_or(|o| o == *d)) {
            served
                .entry(daemon.to_string())
                .or_default()
                .insert(path.to_string());
        }
    }
    served
}

#[test]
fn the_endpoint_table_lists_exactly_the_paths_the_daemons_serve() {
    let table = documented_paths(&read(Path::new("docs/OBSERVABILITY.md")));
    for daemon in DAEMONS {
        let code = strip_comments(&read(Path::new(&format!("crates/svc/src/{daemon}.rs"))));
        let served = handler_paths(&without_test_items(&code));
        assert!(
            served.contains("/healthz"),
            "{daemon}: the handler scan found only {served:?}"
        );
        assert_eq!(
            table.get(daemon),
            Some(&served),
            "docs/OBSERVABILITY.md's endpoint table against {daemon}'s `http_handler`"
        );
    }
}

#[test]
fn endpoint_scans_read_match_arms_and_table_rows() {
    let code = "fn other() { match p { \"/not\" => 1 } }\n\
                fn http_handler(x: u8) -> H {\n\
                    Arc::new(move |path| match path {\n\
                        \"/metrics\" => Some((\"text/plain\", body(\"/x\"))),\n\
                        \"/healthz\" => None,\n\
                        _ => None,\n\
                    })\n\
                }\n\
                fn after() { match p { \"/late\" => 1 } }\n";
    assert_eq!(
        handler_paths(code).into_iter().collect::<Vec<_>>(),
        ["/healthz", "/metrics"]
    );
    let doc = "| Path | Serves |\n|---|---|\n\
               | `/metrics` | the registry |\n\
               | `/decisions` | (`netserverd` only) the log |\n\
               | `/metrics`: `extra` | (`netserverd` only) a gauge |\n\
               \n| `/after` | not in the table |\n";
    let table = documented_paths(doc);
    let paths = |d: &str| table[d].iter().map(String::as_str).collect::<Vec<_>>();
    assert_eq!(paths("masterd"), ["/metrics"]);
    assert_eq!(paths("netserverd"), ["/decisions", "/metrics"]);
}

/// `name` with every `open`…`close` span read as the placeholder `<>`.
fn placeholders(name: &str, open: char, close: char) -> String {
    let mut out = String::new();
    let mut rest = name;
    while let Some(at) = rest.find(open) {
        out.push_str(&rest[..at]);
        out.push_str("<>");
        rest = rest[at..]
            .find(close)
            .map_or("", |end| &rest[at + end + 1..]);
    }
    out.push_str(rest);
    out
}

/// The string literal `s` opens with, if any, with every `{…}` of a
/// `format!` template read as the placeholder `<>`.
fn leading_literal(s: &str) -> Option<String> {
    let body = s.strip_prefix('"')?;
    Some(placeholders(&body[..body.find('"')?], '{', '}'))
}

/// The metric names `code` (comments stripped) registers: the string
/// literal or `format!` template passed first to `inc`, `observe` or
/// `set_gauge`, each name of the `[("name", …), …]` list a
/// `for (name, …)` loop feeds to one, and each `# TYPE <name>` line
/// written by hand.
fn registered_metrics(code: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for call in [".inc(", ".observe(", ".set_gauge("] {
        for (at, m) in code.match_indices(call) {
            let arg = code[at + m.len()..].trim_start();
            let arg = arg.strip_prefix("&format!(").unwrap_or(arg);
            if let Some(name) = leading_literal(arg) {
                names.insert(name);
                continue;
            }
            let binder = format!("for ({},", words(arg).next().unwrap_or(""));
            let Some(list) = code[..at]
                .rfind(&binder)
                .and_then(|b| code[b..at].find(" in [").map(|i| b + i + 5))
            else {
                continue;
            };
            let end = code[list..].find(']').map_or(list, |e| list + e);
            for tuple in code[list..end].split('(').skip(1) {
                names.extend(leading_literal(tuple.trim_start()));
            }
        }
    }
    for (at, m) in code.match_indices("# TYPE ") {
        names.extend(words(&code[at + m.len()..]).next().map(str::to_string));
    }
    names
}

/// The metric names `doc`'s endpoint table names in its `/metrics`
/// rows: the code spans made of lowercase words joined by `_`, a
/// `<kind>` placeholder read as `<>` and `a_{b,c}_d` as both `a_b_d`
/// and `a_c_d`.
fn documented_metrics(doc: &str) -> BTreeSet<String> {
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| Path | Serves |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter(|row| code_spans(row).first().is_some_and(|p| p == "/metrics"));
    let mut names = BTreeSet::new();
    for span in rows.flat_map(code_spans) {
        let metric = span.starts_with(|ch: char| ch.is_ascii_lowercase())
            && span.contains('_')
            && span
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || "_<>{},".contains(ch));
        if !metric {
            continue;
        }
        let name = placeholders(&span, '<', '>');
        match (name.find('{'), name.find('}')) {
            (Some(open), Some(close)) if open < close => {
                for alt in name[open + 1..close].split(',') {
                    names.insert(format!("{}{alt}{}", &name[..open], &name[close + 1..]));
                }
            }
            _ => {
                names.insert(name);
            }
        }
    }
    names
}

#[test]
fn the_metrics_rows_name_exactly_what_the_daemons_register() {
    let mut files = Vec::new();
    rust_files(&root().join("crates/svc/src"), &mut files);
    let mut registered = BTreeSet::new();
    for f in &files {
        let src = fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        registered.extend(registered_metrics(&without_test_items(&strip_comments(
            &src,
        ))));
    }
    let metrics = strip_comments(&read(Path::new("crates/obs/src/metrics.rs")));
    let start = metrics
        .find("fn sample_process_memory")
        .expect("Registry::sample_process_memory");
    let c: Vec<char> = metrics.chars().collect();
    let start = metrics[..start].chars().count();
    let body: String = c[start..item_end(&c, start)].iter().collect();
    registered.extend(registered_metrics(&body));
    assert!(
        registered.contains("svc_pkts_total") && registered.contains("process_rss_bytes"),
        "the registration scan found only {registered:?}"
    );

    let documented = documented_metrics(&read(Path::new("docs/OBSERVABILITY.md")));
    let undocumented: Vec<&String> = registered.difference(&documented).collect();
    let unregistered: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "docs/OBSERVABILITY.md's `/metrics` rows against the daemons' registrations: \
         registered but not documented {undocumented:?}, documented but not registered \
         {unregistered:?}"
    );
}

#[test]
fn metric_scans_read_calls_loops_templates_and_table_rows() {
    let code = "fn publish(reg: &mut Registry) {\n\
                    for (name, by) in [(\"a_total\", 1), (\"b_seen\", x.y)] {\n\
                        reg.inc(name, by);\n\
                    }\n\
                    reg.observe(\n\"lat_us\", &BOUNDS, v);\n\
                    reg.inc(&format!(\"req_{kind}_total\"), 1);\n\
                    h.observe(v);\n\
                    text.push_str(\"# TYPE hand_gauge gauge\\nhand_gauge 1\\n\");\n\
                }\n";
    assert_eq!(
        registered_metrics(code).into_iter().collect::<Vec<_>>(),
        ["a_total", "b_seen", "hand_gauge", "lat_us", "req_<>_total"]
    );
    let doc = "| Path | Serves |\n|---|---|\n\
               | `/metrics` | counts `a_total` (so `a_total / b_seen` is a share), \
               `req_<kind>_total`, `x_{one,two}_total` and `lat_us` via \
               `Registry::render_prometheus` on `netserverd` (`obs::proc_mem()`) |\n\
               | `/metrics`: `hand_gauge` | (`netserverd` only) read on `/proc/net/udp` |\n\
               | `/healthz` | `not_a_metric` |\n";
    assert_eq!(
        documented_metrics(doc).into_iter().collect::<Vec<_>>(),
        [
            "a_total",
            "hand_gauge",
            "lat_us",
            "req_<>_total",
            "x_one_total",
            "x_two_total"
        ]
    );
}

/// The module trees a daemon runs: `svc`, `netserver`, the gateway's
/// forwarder and the Master.
const DAEMON_CODE: [&str; 4] = [
    "crates/svc/src",
    "crates/netserver/src",
    "crates/gateway/src/forwarder",
    "crates/alphawan/src/master",
];

/// The lines of `code` (comments stripped) that call `.unwrap()` or
/// `.expect("…")` before its first `#[cfg(test)]`.
fn panic_shortcuts(code: &str) -> Vec<usize> {
    let code = code.split("#[cfg(test)]").next().unwrap_or("");
    code.lines()
        .enumerate()
        .filter(|(_, line)| line.contains(".unwrap()") || line.contains(".expect(\""))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn daemon_code_neither_unwraps_nor_expects() {
    let mut files = Vec::new();
    for dir in DAEMON_CODE {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(
        files.len() >= 15,
        "only {} daemon sources found",
        files.len()
    );
    let offenders: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let src = fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            let rel = f.strip_prefix(root()).unwrap_or(f).display().to_string();
            panic_shortcuts(&strip_comments(&src))
                .into_iter()
                .map(move |line| format!("{rel}:{line}"))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "a daemon must not panic on what it is sent: return the error instead ({offenders:?})"
    );
}

#[test]
fn panic_shortcuts_stop_at_the_first_test_item() {
    let code = "fn a() { self.expect(b'{')?; x.unwrap_or(0); }\n\
                fn b() { y.unwrap() }\n\
                fn c() { z.expect(\"set\") }\n\
                #[cfg(test)]\n\
                mod tests { fn d() { w.unwrap() } }\n";
    assert_eq!(panic_shortcuts(code), [2, 3]);
}
