//! Docs cite code that exists: every backticked Rust path containing
//! `::` in `DESIGN.md`, `EXPERIMENTS.md` and `README.md` must end in a
//! name declared somewhere in the workspace's Rust sources (`crates/`,
//! `src/`, `tests/`, `examples/`) — as a fn, type, enum variant, struct
//! field, const/static, module or `use … as` alias. `std::` and `core::`
//! paths are skipped.
//!
//! Only the last segment is checked, so a renamed or deleted item shows
//! up as soon as no declaration of that name is left anywhere.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 3] = ["DESIGN.md", "EXPERIMENTS.md", "README.md"];
const SOURCE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];
/// Words followed by the name they declare (`as` for `use` aliases).
const DECLARING_WORDS: [&str; 10] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "as",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') && s.chars().all(is_ident_char)
}

/// The contents of every inline code span in `markdown`, outside fenced
/// code blocks.
fn code_spans(markdown: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// The `a::b::c` paths in one code span, as segment lists. A trailing
/// `::` (a `use` group such as `tail::{…}`) is dropped.
fn rust_paths(span: &str) -> Vec<Vec<&str>> {
    span.split(|c: char| !(is_ident_char(c) || c == ':'))
        .filter(|run| run.contains("::"))
        .filter_map(|run| {
            let segments: Vec<&str> = run.trim_matches(':').split("::").collect();
            (segments.len() >= 2 && segments.iter().all(|s| is_ident(s))).then_some(segments)
        })
        .collect()
}

/// Adds the names one source line declares, as rustfmt lays code out:
/// the word after a [`DECLARING_WORDS`] entry, every `name:` (a field),
/// and a variant opening the line (`Name,`, `Name(…)`, `Name {`,
/// `Name = 3`). Comment lines declare nothing. Parameters and
/// struct-literal fields also read as fields, so the scan
/// over-approximates, but only with names the code spells.
fn declare(line: &str, names: &mut BTreeSet<String>) {
    let line = line.trim_start();
    if line.starts_with("//") {
        return;
    }
    let mut words = line
        .split(|c| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .peekable();
    while let Some(word) = words.next() {
        if DECLARING_WORDS.contains(&word) {
            if let Some(name) = words.peek().filter(|n| is_ident(n)) {
                names.insert(name.to_string());
            }
        }
    }
    let mut rest = line;
    while let Some(colon) = rest.find(':') {
        let (before, after) = rest.split_at(colon);
        let name = before.rsplit(|c| !is_ident_char(c)).next().unwrap_or("");
        if !after.starts_with("::") && is_ident(name) {
            names.insert(name.to_string());
        }
        rest = after.trim_start_matches(':');
    }
    let name_end = line.find(|c| !is_ident_char(c)).unwrap_or(line.len());
    let (name, after) = line.split_at(name_end);
    let opens_variant = after.is_empty()
        || after.starts_with([',', '('])
        || after.starts_with(" {")
        || (after.starts_with(" =") && !after.starts_with(" =="));
    if is_ident(name) && opens_variant {
        names.insert(name.to_string());
    }
}

fn declare_dir(dir: &Path, names: &mut BTreeSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() && !path.ends_with("target") {
            declare_dir(&path, names);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).expect("source file reads");
            for line in src.lines() {
                declare(line, names);
            }
        }
    }
}

#[test]
fn every_doc_path_names_a_declared_item() {
    let mut names = BTreeSet::new();
    for dir in SOURCE_DIRS {
        declare_dir(&root().join(dir), &mut names);
    }
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc reads");
        for path in code_spans(&text).into_iter().flat_map(rust_paths) {
            if matches!(path[0], "std" | "core") {
                continue;
            }
            checked += 1;
            if !names.contains(*path.last().expect("two or more segments")) {
                missing.push(format!("{doc}: `{}`", path.join("::")));
            }
        }
    }
    assert!(checked > 50, "only {checked} doc paths found");
    assert!(
        missing.is_empty(),
        "doc paths naming no declared item:\n  {}",
        missing.join("\n  ")
    );
}

#[test]
fn design_and_the_snapshot_crate_doc_name_the_current_schema() {
    // Every payload change bumps `SCHEMA`; both descriptions of the
    // envelope must follow it.
    let schema = rvsim_snapshot::SCHEMA;
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("doc reads");
    assert!(
        design.contains(schema),
        "DESIGN.md does not name `{schema}`"
    );
    let src =
        std::fs::read_to_string(root().join("crates/snapshot/src/lib.rs")).expect("source reads");
    assert!(
        src.lines()
            .any(|l| l.starts_with("//!") && l.contains(schema)),
        "the rvsim_snapshot crate doc does not name `{schema}`"
    );
}

#[test]
fn the_scan_reads_declarations_not_mentions() {
    let src = "/// Mentions `Fake::Ghost`.
        pub(crate) const fn helper() -> u8 {
        pub enum Shape {
            Dot,
            Line(u32),
            Boxed { width: u32 },
            Tagged = 3,
        }
        pub left: char,
        use std::fmt::Write as FmtWrite;
        // fn commented_out() {}
        match w.name { \"quoted\" => Shape::Dot }";
    let mut names = BTreeSet::new();
    for line in src.lines() {
        declare(line, &mut names);
    }
    let declared = [
        "helper", "Shape", "Dot", "Line", "Boxed", "width", "Tagged", "left", "FmtWrite",
    ];
    for name in declared {
        assert!(names.contains(name), "scan missed `{name}`: {names:?}");
    }
    for name in ["Ghost", "commented_out", "quoted", "match"] {
        assert!(!names.contains(name), "scan invented `{name}`");
    }
    assert_eq!(
        rust_paths("Fig9Row::pool(&Campaign, core) and rtosbench::tail::{self}"),
        vec![vec!["Fig9Row", "pool"], vec!["rtosbench", "tail"]]
    );
}
