//! Fixture corpus: one known-bad and one known-good (or
//! allow-annotated) file per dmp-lint rule, pinned to exact finding
//! counts, rule ids, and line numbers. The fixtures live under
//! `tests/fixtures/` — a directory the workspace walker skips by name —
//! and are linted under *virtual* paths chosen to exercise the module
//! class each rule is gated on. They are lint subjects, not compile
//! targets. (`fixtures/clippy/` is the one that compiles: CI's clippy
//! step checks that the class headers fire.)

use dmp_lint::{lint_source, Finding};

/// Assert the findings are exactly `(rule, line)` in order.
fn assert_findings(findings: &[Finding], expected: &[(&str, u32)]) {
    let got: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        expected.to_vec(),
        "findings:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// Virtual paths (see dmp_lint::MODULE_MAP): the reactor-inline class,
// and an unclassified path for the globally-enforced lock rules.
const REACTOR: &str = "crates/service/src/reactor.rs";
const UNCLASSIFIED: &str = "crates/anywhere/src/helper.rs";

#[test]
fn lock_across_fsync_fires() {
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/lock-across-fsync/bad.rs"),
    );
    assert_findings(&f, &[("lock-across-fsync", 3), ("lock-across-fsync", 4)]);
}

#[test]
fn lock_across_fsync_scoped_guard_is_clean() {
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/lock-across-fsync/good.rs"),
    );
    assert_findings(&f, &[]);
}

#[test]
fn lock_order_inversion_fires() {
    let f = lint_source(UNCLASSIFIED, include_str!("fixtures/lock-order/bad.rs"));
    assert_eq!(f.len(), 2, "one finding per direction of the inversion");
    assert!(f.iter().all(|x| x.rule == "lock-order"));
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![3, 9], "second acquisition of each direction");
}

#[test]
fn lock_order_consistent_order_is_clean() {
    let f = lint_source(UNCLASSIFIED, include_str!("fixtures/lock-order/good.rs"));
    assert_findings(&f, &[]);
}

#[test]
fn lock_reactor_inline_fires() {
    let f = lint_source(REACTOR, include_str!("fixtures/lock-reactor-inline/bad.rs"));
    assert_findings(&f, &[("lock-reactor-inline", 2)]);
}

#[test]
fn lock_reactor_inline_try_lock_is_clean() {
    let f = lint_source(
        REACTOR,
        include_str!("fixtures/lock-reactor-inline/good.rs"),
    );
    assert_findings(&f, &[]);
}

#[test]
fn allow_unused_fires_on_stale_annotation() {
    let f = lint_source(UNCLASSIFIED, include_str!("fixtures/allow-unused/bad.rs"));
    assert_findings(&f, &[("allow-unused", 1)]);
}

#[test]
fn allow_unused_absent_when_no_annotations() {
    let f = lint_source(UNCLASSIFIED, include_str!("fixtures/allow-unused/good.rs"));
    assert_findings(&f, &[]);
}

#[test]
fn allow_malformed_fires() {
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/allow-malformed/bad.rs"),
    );
    assert_findings(
        &f,
        &[
            ("allow-malformed", 1), // missing `-- <reason>`
            ("allow-malformed", 3), // unknown rule id
            ("allow-malformed", 5), // `deny(...)` is not part of the grammar
        ],
    );
}

#[test]
fn allow_well_formed_and_used_is_clean() {
    let f = lint_source(REACTOR, include_str!("fixtures/allow-malformed/good.rs"));
    assert_findings(&f, &[]);
}
