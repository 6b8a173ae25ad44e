//! The lint must run clean over the live workspace modulo the committed baseline,
//! with no baseline entry left stale — the same invariant CI enforces with
//! `cargo run -p f2-lint -- --check` — and a violation seeded into a watched module
//! must surface with a file:line diagnostic.

use std::path::Path;

use f2_lint::{analyze, analyze_source, find_workspace_root, Baseline, Registry, REGISTRY_PATH};

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the workspace")
}

#[test]
fn workspace_is_clean_modulo_the_committed_baseline() {
    let root = workspace_root();
    let analysis = analyze(&root).expect("workspace analyzes");
    assert!(analysis.files_scanned > 40, "walked only {} files", analysis.files_scanned);

    let baseline_text =
        std::fs::read_to_string(root.join("LINT_baseline.json")).expect("committed baseline");
    let baseline = Baseline::parse(&baseline_text).expect("baseline parses");
    let matched = baseline.partition(&analysis.findings);
    let rendered: Vec<String> = matched
        .fresh
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        rendered.is_empty(),
        "new lint findings (fix them or run `cargo run -p f2-lint -- --update-baseline`):\n{}",
        rendered.join("\n")
    );
    let stale: Vec<String> = matched
        .stale
        .iter()
        .map(|((rule, file, function, snippet), left)| {
            format!("{file} `{function}` [{rule}] ×{left}: {snippet}")
        })
        .collect();
    assert!(
        stale.is_empty(),
        "stale baseline entries (run `cargo run -p f2-lint -- --update-baseline`):\n{}",
        stale.join("\n")
    );
}

#[test]
fn seeding_a_violation_into_a_watched_module_is_caught_with_file_and_line() {
    let root = workspace_root();
    let wire = root.join("crates/io/src/wire.rs");
    let source = std::fs::read_to_string(&wire).expect("wire.rs readable");
    let registry_text =
        std::fs::read_to_string(root.join(REGISTRY_PATH)).expect("registry readable");
    let registry = Registry::parse(&registry_text).expect("registry parses");

    let seeded = format!("{source}\npub fn smuggled(buf: &[u8]) -> u8 {{\n    buf[0]\n}}\n");
    let result = analyze_source("crates/io/src/wire.rs", &seeded, &registry);
    // The trailing newline of `source`, a blank line, the `fn` line, then the body
    // line the indexing finding anchors on.
    let expected_line = u32::try_from(source.lines().count() + 3).expect("line fits");
    let hit = result
        .findings
        .iter()
        .find(|f| f.rule == "slice-index" && f.function == "smuggled")
        .unwrap_or_else(|| panic!("seeded violation not caught: {:?}", result.findings));
    assert_eq!(hit.file, "crates/io/src/wire.rs");
    assert_eq!(hit.line, expected_line, "diagnostic points at the seeded line");

    // The unmodified module stays clean: the catch above is not baseline noise.
    let clean = analyze_source("crates/io/src/wire.rs", &source, &registry);
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}
