//! Every rule family is pinned by a fixture pair: a violating source that must
//! produce the expected findings, and a clean sibling that must be silent. The
//! fixtures are plain `.rs` texts under `tests/fixtures/` analyzed via
//! [`f2_lint::analyze_source`]; they are never compiled.

use f2_lint::{analyze_source, Baseline, Registry};

fn rules_of(result: &f2_lint::CheckResult) -> Vec<&str> {
    result.findings.iter().map(|f| f.rule).collect()
}

fn count(result: &f2_lint::CheckResult, rule: &str) -> usize {
    result.findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn untrusted_rules_fire_on_the_violation_fixture() {
    let src = include_str!("fixtures/untrusted_violation.rs");
    let result = analyze_source("tests/fixtures/untrusted_violation.rs", src, &Registry::default());
    assert_eq!(count(&result, "slice-index"), 1, "{:?}", rules_of(&result));
    assert_eq!(count(&result, "no-unwrap"), 2, "{:?}", rules_of(&result)); // unwrap + expect
    assert_eq!(count(&result, "no-panic"), 3, "{:?}", rules_of(&result)); // panic!/unreachable!/todo!
    assert_eq!(count(&result, "alloc-before-cap"), 1, "{:?}", rules_of(&result));
    assert!(count(&result, "truncating-cast") >= 2, "{:?}", rules_of(&result));
    // Diagnostics carry the function and a 1-based line into the fixture.
    let idx = result.findings.iter().find(|f| f.rule == "slice-index").unwrap();
    assert_eq!(idx.function, "parse");
    assert_eq!(idx.line, 4);
    assert_eq!(idx.file, "tests/fixtures/untrusted_violation.rs");
}

#[test]
fn untrusted_clean_fixture_is_silent() {
    let src = include_str!("fixtures/untrusted_clean.rs");
    let result = analyze_source("tests/fixtures/untrusted_clean.rs", src, &Registry::default());
    assert!(result.findings.is_empty(), "{:?}", result.findings);
}

#[test]
fn allow_comments_suppress_with_a_reason_and_fire_without_one() {
    let src = include_str!("fixtures/allow_comment.rs");
    let result = analyze_source("tests/fixtures/allow_comment.rs", src, &Registry::default());
    // `masked` and `wrapped` are fully suppressed (3 would-be findings);
    // `reasonless` yields the meta-finding plus its unsuppressed violation.
    assert_eq!(count(&result, "allow-missing-reason"), 1, "{:?}", rules_of(&result));
    assert_eq!(count(&result, "slice-index"), 1, "{:?}", rules_of(&result));
    assert_eq!(count(&result, "truncating-cast"), 0, "{:?}", rules_of(&result));
    assert!(result.allowed >= 3, "suppressed {} findings", result.allowed);
    let leftover = result.findings.iter().find(|f| f.rule == "slice-index").unwrap();
    assert_eq!(leftover.function, "reasonless");
}

#[test]
fn constant_time_rules_follow_the_registry() {
    let registry =
        Registry::parse("tests/fixtures/secret_flow.rs :: mod_exp :: exp").expect("registry");
    let src = include_str!("fixtures/secret_flow.rs");
    let result = analyze_source("tests/fixtures/secret_flow.rs", src, &registry);
    assert!(count(&result, "secret-branch") >= 1, "{:?}", rules_of(&result));
    assert!(count(&result, "secret-divmod") >= 1, "{:?}", rules_of(&result));
    assert!(count(&result, "secret-index") >= 1, "{:?}", rules_of(&result));
    // Taint is function-scoped: the unlisted sibling with identical shapes is silent.
    assert!(result.findings.iter().all(|f| f.function == "mod_exp"), "{:?}", result.findings);

    // Without the registry entry the whole fixture is silent.
    let silent = analyze_source("tests/fixtures/secret_flow.rs", src, &Registry::default());
    assert!(silent.findings.is_empty(), "{:?}", silent.findings);
}

#[test]
fn hygiene_rules_fire_and_clear() {
    let src = include_str!("fixtures/hygiene_violation.rs");
    let result = analyze_source("tests/fixtures/hygiene_violation.rs", src, &Registry::default());
    assert_eq!(count(&result, "thread-local"), 1, "{:?}", rules_of(&result));
    assert_eq!(count(&result, "chunk-seed-discipline"), 1, "{:?}", rules_of(&result));
    assert_eq!(count(&result, "reseed-uses-seed"), 1, "{:?}", rules_of(&result));
    let call = result.findings.iter().find(|f| f.rule == "chunk-seed-discipline").unwrap();
    assert_eq!(call.function, "chunk_key", "call sites, not the definition");

    let clean = include_str!("fixtures/hygiene_clean.rs");
    let result = analyze_source("tests/fixtures/hygiene_clean.rs", clean, &Registry::default());
    assert!(result.findings.is_empty(), "{:?}", result.findings);
}

#[test]
fn crate_roots_must_forbid_unsafe() {
    let missing = include_str!("fixtures/lib_missing_forbid.rs");
    let result = analyze_source("tests/fixtures/lib.rs", missing, &Registry::default());
    assert_eq!(count(&result, "missing-forbid-unsafe"), 1, "{:?}", rules_of(&result));

    let clean = include_str!("fixtures/lib_clean.rs");
    let result = analyze_source("tests/fixtures/lib.rs", clean, &Registry::default());
    assert!(result.findings.is_empty(), "{:?}", result.findings);

    // A non-root module is never held to the crate-root attribute rule.
    let result = analyze_source("tests/fixtures/module.rs", missing, &Registry::default());
    assert!(result.findings.is_empty(), "{:?}", result.findings);
}

#[test]
fn baseline_suppresses_known_findings_but_not_new_ones() {
    let src = include_str!("fixtures/untrusted_violation.rs");
    let label = "tests/fixtures/untrusted_violation.rs";
    let result = analyze_source(label, src, &Registry::default());
    assert!(!result.findings.is_empty());

    // A baseline built from today's findings covers all of them…
    let baseline = Baseline::from_findings(&result.findings);
    let matched = baseline.partition(&result.findings);
    assert_eq!(matched.covered.len(), result.findings.len());
    assert!(matched.fresh.is_empty(), "{:?}", matched.fresh);

    // …and it survives a JSON round trip.
    let reparsed = Baseline::parse(&baseline.to_json()).expect("baseline parses");
    let fresh = reparsed.partition(&result.findings).fresh;
    assert!(fresh.is_empty(), "{fresh:?}");

    // A new violation seeded below the known ones is NOT covered.
    let seeded = format!("{src}\npub fn fresh_violation(buf: &[u8]) -> u8 {{\n    buf[7]\n}}\n");
    let seeded_result = analyze_source(label, &seeded, &Registry::default());
    let fresh = reparsed.partition(&seeded_result.findings).fresh;
    assert_eq!(fresh.len(), 1, "{fresh:?}");
    assert_eq!(fresh[0].rule, "slice-index");
    assert_eq!(fresh[0].function, "fresh_violation");
}
