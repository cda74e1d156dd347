//! The `dmp-lint` binary: walk the workspace, print findings and the
//! per-rule summary, exit nonzero on any finding.
//!
//! ```text
//! dmp-lint [--deny-all] [root]
//! ```
//!
//! Deny is the default and only mode; `--deny-all` is accepted so the
//! CI invocation states its semantics explicitly.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-all" => {} // the default; kept for explicit CI invocations
            "--help" | "-h" => {
                println!("usage: dmp-lint [--deny-all] [root]");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = PathBuf::from(other),
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let findings = match dmp_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dmp-lint: cannot lint {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for f in &findings {
        println!("{}", f.render());
    }
    if !findings.is_empty() {
        println!();
    }
    print!("{}", dmp_lint::summarize(&findings));
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
