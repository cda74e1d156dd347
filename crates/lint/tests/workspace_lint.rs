//! The self-check that pins the workspace lint-clean: `cargo test -q`
//! runs the full dmp-lint pass over the repository and fails on any
//! finding, so a violation merged anywhere fails both this test and
//! the CI lint step. The other tests guard against the pass silently
//! going blind: a synthetic tree with a declassified module must be
//! caught, every map entry must still name a real file, and a root
//! with nothing to lint is an error, not a clean pass.

use std::fs;
use std::path::{Path, PathBuf};

use dmp_lint::{lint_workspace, summarize, MODULE_MAP};

/// The repository root, two levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(&repo_root()).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "dmp-lint found {} violation(s):\n{}\n\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n"),
        summarize(&findings),
    );
}

#[test]
fn seeded_violation_is_caught() {
    // A synthetic tree shaped like the workspace: the classifier keys
    // on the relative path, so `crates/core/src/market.rs` must carry
    // the replay header, and a copy without one is declassified.
    let root = std::env::temp_dir().join(format!("dmp-lint-seeded-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src_dir = root.join("crates/core/src");
    fs::create_dir_all(&src_dir).expect("temp tree");
    fs::write(
        src_dir.join("market.rs"),
        "use std::collections::HashMap;\npub fn f() -> HashMap<u64, u64> { HashMap::new() }\n",
    )
    .expect("seed file");

    let findings = lint_workspace(&root).expect("seeded walk succeeds");
    let _ = fs::remove_dir_all(&root);

    let got: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(got, [("crates/core/src/market.rs", "class-header", 1)]);
}

#[test]
fn every_map_entry_names_a_file_of_the_tree() {
    // A renamed or moved classified file would otherwise drop all of
    // its checks without a finding.
    let root = repo_root();
    for entry in MODULE_MAP {
        let file = entry.header_file();
        assert!(
            root.join(&file).is_file(),
            "MODULE_MAP entry `{}` matches no file: {file} is gone",
            entry.pattern
        );
    }
}

#[test]
fn a_root_with_nothing_to_lint_is_an_error() {
    let missing = std::env::temp_dir().join(format!("dmp-lint-missing-{}", std::process::id()));
    assert!(
        lint_workspace(&missing).is_err(),
        "a root that does not exist"
    );

    let empty = std::env::temp_dir().join(format!("dmp-lint-empty-{}", std::process::id()));
    fs::create_dir_all(empty.join("docs")).expect("temp tree");
    let result = lint_workspace(&empty);
    let _ = fs::remove_dir_all(&empty);
    assert!(result.is_err(), "a root without src/**/*.rs: {result:?}");
}
