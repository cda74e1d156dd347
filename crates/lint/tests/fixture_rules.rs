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

// Virtual path (see dmp_lint::MODULE_MAP): an unclassified file, since
// every lock rule applies workspace-wide.
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
fn lock_across_fsync_fires_on_the_checkpoint_writes() {
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/lock-across-fsync-checkpoint/bad.rs"),
    );
    assert_findings(&f, &[("lock-across-fsync", 3), ("lock-across-fsync", 4)]);
}

#[test]
fn lock_across_fsync_checkpoint_outside_the_guard_is_clean() {
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/lock-across-fsync-checkpoint/good.rs"),
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
    let f = lint_source(
        UNCLASSIFIED,
        include_str!("fixtures/allow-malformed/good.rs"),
    );
    assert_findings(&f, &[]);
}
