//! dmp-lint: lock-discipline static analysis for the workspace, and
//! the check that keeps clippy's per-module classes in step with the
//! module map. Zero external dependencies, in the house style of
//! `compat/polling` and the telemetry exposition linter: a small
//! hand-rolled lexer ([`lexer`]), a checked-in module classification
//! map ([`classify`](mod@classify)), and the lock rules ([`rules`]).
//!
//! Clippy carries determinism, float strictness and panic hygiene:
//! each [`MODULE_MAP`] entry's file carries the `#![deny(clippy::…)]`
//! header of its classes, and the `class-header` rule reports one that
//! is missing.
//!
//! The contract: `lint_workspace(root)` returns zero findings, forever.
//! `tests/workspace_lint.rs` pins that under `cargo test`; CI runs the
//! binary with `--deny-all`. Suppressions exist only as in-source
//! annotations the tool itself validates:
//!
//! ```text
//! // dmp-lint: allow(<rule>[, <rule>]) -- <reason>
//! ```
//!
//! A trailing annotation suppresses findings on its own line; a
//! standalone comment line suppresses the next token-bearing line. The
//! reason is mandatory, unknown rule ids are errors
//! (`allow-malformed`), and an annotation that suppresses nothing is an
//! error (`allow-unused`) — so stale allows cannot accumulate.
//!
//! Scope: every `.rs` file under a `src/` directory in the workspace
//! (crates/, compat/, the facade), test modules included. `tests/` and
//! `examples/` are out of scope.

pub mod classify;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use classify::{HEADERS, MODULE_MAP};
pub use rules::{Finding, RULES};

use lexer::{Comment, Tok};
use rules::{LockPair, ALLOW_MALFORMED, ALLOW_UNUSED, CLASS_HEADER, LOCK_ORDER};

/// One parsed `// dmp-lint: allow(...)` annotation.
#[derive(Debug)]
struct AllowSite {
    path: String,
    line: u32,
    /// The line whose findings this annotation suppresses.
    target: Option<u32>,
    rules: Vec<String>,
    used: bool,
}

/// Accumulates per-file analyses, then resolves the cross-file checks
/// (lock ordering, allow usage) in [`Linter::finish`].
#[derive(Default)]
pub struct Linter {
    findings: Vec<Finding>,
    pairs: Vec<LockPair>,
    allows: Vec<AllowSite>,
}

impl Linter {
    /// Lint one file. `path` is used both for reporting and for module
    /// classification, so fixtures can present virtual paths.
    pub fn check_file(&mut self, path: &str, src: &str) {
        let lexed = lexer::lex(src);
        let reactor_inline = classify::classify(path).contains(&"reactor_inline");
        let analysis = rules::analyze(path, &lexed.toks, reactor_inline);
        self.findings.extend(analysis.findings);
        self.pairs.extend(analysis.pairs);
        self.check_headers(path, &lexed.toks);
        self.collect_allows(path, &lexed.comments, &lexed.toks);
    }

    /// `class-header`: the map entries whose header file `path` is must
    /// find each of their classes' headers in it, compared token by
    /// token so that rustfmt's wrapping does not matter.
    fn check_headers(&mut self, path: &str, toks: &[Tok]) {
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        for entry in MODULE_MAP {
            if !path.ends_with(&entry.header_file()) {
                continue;
            }
            for (class, header) in HEADERS.iter().filter(|(c, _)| entry.classes.contains(c)) {
                let want: Vec<String> = lexer::lex(header)
                    .toks
                    .into_iter()
                    .map(|t| t.text)
                    .collect();
                if !texts.windows(want.len()).any(|w| w == want.as_slice()) {
                    self.findings.push(Finding {
                        path: path.to_string(),
                        line: 1,
                        rule: CLASS_HEADER,
                        message: format!(
                            "MODULE_MAP classifies `{}` as {class}, but the file lacks `{header}`",
                            entry.pattern
                        ),
                    });
                }
            }
        }
    }

    fn collect_allows(&mut self, path: &str, comments: &[Comment], toks: &[Tok]) {
        for c in comments {
            let Some(parsed) = parse_annotation(&c.text) else {
                continue;
            };
            match parsed {
                Ok(rules) => {
                    let target = if c.trailing {
                        Some(c.line)
                    } else {
                        toks.iter().map(|t| t.line).find(|&l| l > c.line)
                    };
                    self.allows.push(AllowSite {
                        path: path.to_string(),
                        line: c.line,
                        target,
                        rules,
                        used: false,
                    });
                }
                Err(why) => self.findings.push(Finding {
                    path: path.to_string(),
                    line: c.line,
                    rule: ALLOW_MALFORMED,
                    message: why,
                }),
            }
        }
    }

    /// Resolve workspace-wide checks and apply suppressions. Returns
    /// the surviving findings, sorted by path and line.
    pub fn finish(mut self) -> Vec<Finding> {
        // Lock-order inversions: group held→acquired pairs, look for
        // both directions of the same receiver pair.
        let mut by_pair: BTreeMap<(String, String), Vec<(String, u32)>> = BTreeMap::new();
        for p in &self.pairs {
            by_pair
                .entry((p.first.clone(), p.second.clone()))
                .or_default()
                .push((p.path.clone(), p.line));
        }
        for ((a, b), sites) in &by_pair {
            if a >= b {
                continue; // report each unordered pair once
            }
            let Some(rev) = by_pair.get(&(b.clone(), a.clone())) else {
                continue;
            };
            for (dir_sites, x, y, other) in [(sites, a, b, rev.first()), (rev, b, a, sites.first())]
            {
                if let (Some((path, line)), Some((opath, oline))) = (dir_sites.first(), other) {
                    self.findings.push(Finding {
                        path: path.clone(),
                        line: *line,
                        rule: LOCK_ORDER,
                        message: format!(
                            "`{y}` acquired while `{x}` is held, but the opposite \
                             order occurs at {opath}:{oline} — deadlock under \
                             concurrency"
                        ),
                    });
                }
            }
        }

        // Apply suppressions, marking the annotations that fire.
        let allows = &mut self.allows;
        let mut kept = Vec::with_capacity(self.findings.len());
        for f in self.findings {
            if f.rule == ALLOW_MALFORMED {
                kept.push(f);
                continue;
            }
            let mut suppressed = false;
            for a in allows.iter_mut() {
                if a.path == f.path
                    && a.target == Some(f.line)
                    && a.rules.iter().any(|r| r == f.rule)
                {
                    a.used = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                kept.push(f);
            }
        }
        for a in allows.iter() {
            if !a.used {
                kept.push(Finding {
                    path: a.path.clone(),
                    line: a.line,
                    rule: ALLOW_UNUSED,
                    message: format!(
                        "allow({}) suppresses nothing — delete it or move it to \
                         the offending line",
                        a.rules.join(", ")
                    ),
                });
            }
        }
        kept.sort_by(|x, y| {
            (x.path.as_str(), x.line, x.rule).cmp(&(y.path.as_str(), y.line, y.rule))
        });
        kept
    }
}

/// Lint a single source text under a virtual path (fixtures, tests).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let mut l = Linter::default();
    l.check_file(path, src);
    l.finish()
}

/// Lint every in-scope file under `root` (a workspace checkout). A
/// root that cannot be read, or holds no in-scope file, is an error:
/// a clean pass over nothing proves nothing.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = walk(root)?;
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "no `src/**/*.rs` file under the root",
        ));
    }
    let mut linter = Linter::default();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        linter.check_file(&rel, &src);
    }
    Ok(linter.finish())
}

/// Collect the files in scope: `**/src/**/*.rs`, skipping build output,
/// VCS metadata, and the lint fixture corpus (which is known-bad on
/// purpose). Sorted for deterministic output — this tool had better
/// practice what it preaches.
fn walk(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if dir == root => return Err(e),
            Err(_) => continue, // unreadable subdirectories are out of scope
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                if rel.components().any(|c| c.as_os_str() == "src") {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Per-rule findings table, printed even when everything is clean.
pub fn summarize(findings: &[Finding]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let width = RULES.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("{:width$}  findings\n", "rule"));
    for r in RULES {
        let n = counts.get(r).copied().unwrap_or(0);
        out.push_str(&format!("{r:width$}  {n}\n"));
    }
    out.push_str(&format!("{:width$}  {}\n", "total", findings.len()));
    out
}

/// Parse a comment body as a dmp-lint annotation.
///
/// Returns `None` if the comment is not addressed to dmp-lint at all,
/// `Some(Ok(rules))` for a well-formed allow, and `Some(Err(why))` for
/// anything that names the tool but fails the grammar — misspelled
/// annotations must not silently do nothing.
fn parse_annotation(text: &str) -> Option<Result<Vec<String>, String>> {
    let body = text.trim();
    let rest = body.strip_prefix("dmp-lint")?;
    let Some(rest) = rest.trim_start().strip_prefix(':') else {
        return Some(Err(
            "expected `dmp-lint: allow(...) -- <reason>`".to_string()
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some(Err(
            "only `allow(...)` is recognized after `dmp-lint:`".to_string()
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Err("expected `(` after `allow`".to_string()));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed rule list in allow(...)".to_string()));
    };
    let (list, after) = (&rest[..close], &rest[close + 1..]);
    let mut rules_out = Vec::new();
    for raw in list.split(',') {
        let id = raw.trim();
        if id.is_empty() {
            return Some(Err("empty rule id in allow(...)".to_string()));
        }
        if !RULES.contains(&id) {
            return Some(Err(format!("unknown rule id `{id}` in allow(...)")));
        }
        rules_out.push(id.to_string());
    }
    if rules_out.is_empty() {
        return Some(Err("allow(...) names no rules".to_string()));
    }
    let after = after.trim_start();
    let Some(reason) = after.strip_prefix("--") else {
        return Some(Err(
            "missing mandatory `-- <reason>` after allow(...)".to_string()
        ));
    };
    if reason.trim().is_empty() {
        return Some(Err("the `--` reason must not be empty".to_string()));
    }
    Some(Ok(rules_out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar() {
        assert!(parse_annotation(" just a comment").is_none());
        assert_eq!(
            parse_annotation(" dmp-lint: allow(lock-order) -- one global order"),
            Some(Ok(vec!["lock-order".to_string()]))
        );
        let multi = parse_annotation(" dmp-lint: allow(lock-order, lock-across-fsync) -- WAL");
        assert_eq!(
            multi,
            Some(Ok(vec![
                "lock-order".to_string(),
                "lock-across-fsync".to_string()
            ]))
        );
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(lock-order)"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(det-wall-clock) -- moved to clippy"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(lock-order) -- "),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: deny(x)"),
            Some(Err(_))
        ));
    }

    #[test]
    fn trailing_and_standalone_allows_suppress() {
        let src = "fn f() {\n\
                   let a = self.ring.lock(); // dmp-lint: allow(lock-reactor-inline) -- copy-out\n\
                   // dmp-lint: allow(lock-reactor-inline) -- copy-out\n\
                   let b = self.ring.lock();\n\
                   }\n";
        let f = lint_source("crates/service/src/reactor.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// dmp-lint: allow(lock-order) -- nope\nfn f() {}\n";
        let f = lint_source("crates/core/src/arbiter/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "allow-unused");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn class_header_matches_tokens_not_lines() {
        // rustfmt wraps the panic-free header one lint per line.
        let wrapped = "//! Settlement.\n\n\
                       #![deny(\n    clippy::unwrap_used,\n    clippy::expect_used,\n    \
                       clippy::panic,\n    clippy::unreachable,\n    clippy::todo,\n    \
                       clippy::unimplemented\n)]\n#![deny(clippy::indexing_slicing)]\n";
        let path = "crates/core/src/arbiter/pipeline/settlement.rs";
        assert!(lint_source(path, wrapped).is_empty());

        let f = lint_source(path, "#![deny(clippy::indexing_slicing)]\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("class-header", 1));
        assert!(f[0].message.contains("panic_free"), "{}", f[0].message);
    }

    #[test]
    fn summary_lists_every_rule_even_clean() {
        let s = summarize(&[]);
        for r in RULES {
            assert!(s.contains(r), "summary missing {r}");
        }
        assert!(s.contains("total"));
    }
}
