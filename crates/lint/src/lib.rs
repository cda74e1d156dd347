//! dmp-lint: determinism, lock-discipline, and panic-hygiene static
//! analysis for the workspace. Zero external dependencies, in the
//! house style of `compat/polling` and the telemetry exposition linter:
//! a small hand-rolled lexer ([`lexer`]), a checked-in module
//! classification map ([`classify`]), and a token-pattern rule engine
//! ([`rules`]).
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
//! (crates/, compat/, the facade). Test code — `tests/`, `examples/`
//! and `#[cfg(test)]` modules — is exempt: tests unwrap and index
//! freely by design, and none of it runs during replay.

pub mod classify;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use classify::{classify, Classes, MapEntry, MODULE_MAP};
pub use rules::{rule, Finding, RuleInfo, RULES};

use lexer::{Comment, Tok};
use rules::LockPair;

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
    pub fn new() -> Linter {
        Linter::default()
    }

    /// Lint one file. `path` is used both for reporting and for module
    /// classification, so fixtures can present virtual paths.
    pub fn check_file(&mut self, path: &str, src: &str) {
        let lexed = lexer::lex(src);
        let (toks, removed) = strip_cfg_test(lexed.toks);
        let classes = classify::classify(path);
        let analysis = rules::analyze(path, &toks, &classes);
        self.findings.extend(analysis.findings);
        self.pairs.extend(analysis.pairs);
        self.collect_allows(path, &lexed.comments, &toks, &removed);
    }

    fn collect_allows(
        &mut self,
        path: &str,
        comments: &[Comment],
        toks: &[Tok],
        removed: &[(u32, u32)],
    ) {
        for c in comments {
            if removed.iter().any(|&(a, b)| c.line >= a && c.line <= b) {
                continue; // annotation inside a #[cfg(test)] module
            }
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
                    rule: "allow-malformed",
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
                        rule: "lock-order",
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
            if f.rule == "allow-malformed" {
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
                    rule: "allow-unused",
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
    let mut l = Linter::new();
    l.check_file(path, src);
    l.finish()
}

/// Lint every in-scope file under `root` (a workspace checkout).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut linter = Linter::new();
    for path in walk(root)? {
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
pub fn walk(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // unreadable dirs are out of scope
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
    let width = RULES.iter().map(|r| r.id.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!("{:width$}  findings\n", "rule"));
    for r in RULES {
        out.push_str(&format!(
            "{:width$}  {}\n",
            r.id,
            counts.get(r.id).copied().unwrap_or(0)
        ));
    }
    out.push_str(&format!("{:width$}  {}\n", "total", findings.len()));
    out
}

/// The `--explain` text for one rule.
pub fn explain(info: &RuleInfo) -> String {
    format!(
        "{id} [{family}]\n\n  {summary}\n\noffending:\n{bad}\n\nfix:\n{fix}\n",
        id = info.id,
        family = info.family,
        summary = info.summary,
        bad = indent(info.bad),
        fix = indent(info.fix),
    )
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
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
        if rules::rule(id).is_none() {
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

/// Remove `#[cfg(test)]` items (in practice: `mod tests { … }`) from
/// the token stream. Returns the surviving tokens plus the removed line
/// spans, so annotations inside test modules are ignored too.
fn strip_cfg_test(toks: Vec<Tok>) -> (Vec<Tok>, Vec<(u32, u32)>) {
    let mut keep = Vec::with_capacity(toks.len());
    let mut removed = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Some(end) = cfg_test_item_end(&toks, i) {
            let first = toks[i].line;
            let last = toks.get(end - 1).map_or(first, |t| t.line);
            removed.push((first, last));
            i = end;
        } else {
            keep.push(toks[i].clone());
            i += 1;
        }
    }
    (keep, removed)
}

/// If `toks[i]` starts a `#[cfg(test)]`-gated item, return the index
/// one past its end.
fn cfg_test_item_end(toks: &[Tok], i: usize) -> Option<usize> {
    let ident = |j: usize, s: &str| toks.get(j).is_some_and(|t| t.is_ident(s));
    let punct = |j: usize, c: char| toks.get(j).is_some_and(|t| t.is_punct(c));
    if !(punct(i, '#') && punct(i + 1, '[') && ident(i + 2, "cfg") && punct(i + 3, '(')) {
        return None;
    }
    // Scan the cfg argument list for a bare `test`.
    let mut j = i + 4;
    let mut depth = 1;
    let mut has_test = false;
    while j < toks.len() && depth > 0 {
        match &toks[j] {
            t if t.is_punct('(') => depth += 1,
            t if t.is_punct(')') => depth -= 1,
            t if t.is_ident("test") => has_test = true,
            _ => {}
        }
        j += 1;
    }
    if !has_test || !punct(j, ']') {
        return None;
    }
    j += 1;
    // Skip any further attributes on the same item.
    while punct(j, '#') && punct(j + 1, '[') {
        let mut bdepth = 0;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                bdepth += 1;
            } else if toks[j].is_punct(']') {
                bdepth -= 1;
                if bdepth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // The item body: through the matching brace of its first `{`, or to
    // a top-level `;` for brace-less items (`#[cfg(test)] use …;`).
    let mut bdepth = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            bdepth += 1;
        } else if t.is_punct('}') {
            bdepth -= 1;
            if bdepth == 0 {
                return Some(j + 1);
            }
        } else if t.is_punct(';') && bdepth == 0 {
            return Some(j + 1);
        }
        j += 1;
    }
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar() {
        assert!(parse_annotation(" just a comment").is_none());
        assert_eq!(
            parse_annotation(" dmp-lint: allow(det-wall-clock) -- telemetry only"),
            Some(Ok(vec!["det-wall-clock".to_string()]))
        );
        let multi = parse_annotation(" dmp-lint: allow(panic-unwrap, det-float) -- boundary");
        assert_eq!(
            multi,
            Some(Ok(vec![
                "panic-unwrap".to_string(),
                "det-float".to_string()
            ]))
        );
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(det-wall-clock)"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(no-such-rule) -- x"),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: allow(det-wall-clock) -- "),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_annotation(" dmp-lint: deny(x)"),
            Some(Err(_))
        ));
    }

    #[test]
    fn cfg_test_mod_is_stripped_but_code_before_is_not() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = lint_source("crates/service/src/journal.rs", src);
        let unwraps: Vec<u32> = f
            .iter()
            .filter(|f| f.rule == "panic-unwrap")
            .map(|f| f.line)
            .collect();
        assert_eq!(unwraps, [1], "only the non-test unwrap: {f:?}");
    }

    #[test]
    fn trailing_and_standalone_allows_suppress() {
        let src = "fn f() {\n\
                   let t = Instant::now(); // dmp-lint: allow(det-wall-clock) -- telemetry\n\
                   // dmp-lint: allow(det-wall-clock) -- telemetry\n\
                   let u = Instant::now();\n\
                   }\n";
        let f = lint_source("crates/core/src/arbiter/x.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let src = "// dmp-lint: allow(det-rng) -- nope\nfn f() {}\n";
        let f = lint_source("crates/core/src/arbiter/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "allow-unused");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn summary_lists_every_rule_even_clean() {
        let s = summarize(&[]);
        for r in RULES {
            assert!(s.contains(r.id), "summary missing {}", r.id);
        }
        assert!(s.contains("total"));
    }
}
