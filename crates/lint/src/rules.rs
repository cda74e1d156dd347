//! The lock-discipline rules: every `.lock()` site is recorded, guards
//! held across fsync-bearing calls are flagged, pairwise acquisition
//! order is checked for inversions workspace-wide, and reactor-inline
//! modules may not block on a lock at all. The other three rules
//! ([`CLASS_HEADER`] and the two annotation checks) are produced by
//! [`crate::Linter`]; clippy carries determinism, float and panic
//! hygiene (README "Correctness tooling").
//!
//! Known approximations, chosen over false negatives:
//!
//! - Lock tracking recognizes `.lock()` only (the parking_lot shim and
//!   std). `.read()`/`.write()` collide with `io::Read`/`io::Write`
//!   too often to match on tokens; the workspace's `RwLock`s live in
//!   discovery caches outside every class.
//! - Guard liveness is brace-scoped from the acquisition site, plus
//!   explicit `drop(guard)`. That is exactly how the codebase scopes
//!   guards, but a guard smuggled out of a block by value would escape
//!   the analysis.

use crate::lexer::{Tok, TokKind};

/// One lint finding at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Guard A (`first`) was held while guard B (`second`) was acquired at
/// `path:line`. Collected per file, checked for inversions
/// workspace-wide by [`crate::Linter::finish`].
#[derive(Debug, Clone)]
pub struct LockPair {
    pub first: String,
    pub second: String,
    pub path: String,
    pub line: u32,
}

/// Per-file analysis output.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub pairs: Vec<LockPair>,
}

/// A `Mutex` guard is live across an fsync-bearing call (`sync_all`,
/// `sync_data`, `journal.append`, `write_snapshot`): every other path
/// on that lock stalls for the disk.
///
/// ```text
/// let mut inner = self.inner.lock();
/// inner.journal.append(&cmd)?; // fsync inside; lock held ~ms
/// ```
///
/// Move the I/O out of the critical section, or, where the WAL
/// ordering invariant needs append and apply to be atomic, annotate:
/// `// dmp-lint: allow(lock-across-fsync) -- WAL invariant: durable-before-visible`.
pub const LOCK_ACROSS_FSYNC: &str = "lock-across-fsync";

/// Two locks are taken in opposite orders at different sites: under
/// concurrency, a deadlock waiting for its interleaving.
///
/// ```text
/// fn a() { let _l = licenses.lock(); let _h = holds.lock(); }
/// fn b() { let _h = holds.lock(); let _l = licenses.lock(); }
/// ```
///
/// Keep the one global order (licenses before exclusive_holds before
/// ci_policies; escrows before accounts) and restructure the outlier.
pub const LOCK_ORDER: &str = "lock-order";

/// A blocking `.lock()` in a reactor-inline module: one thread owns
/// every connection, so blocking it stalls the whole gateway.
///
/// ```text
/// fn handle_metrics(&self) -> String { self.entries.lock().render() }
/// ```
///
/// Use `try_lock` with a lossy fallback (as the trace ring's writers
/// do), or annotate with the bounded-hold argument:
/// `// dmp-lint: allow(lock-reactor-inline) -- held for a snapshot copy only`.
pub const LOCK_REACTOR_INLINE: &str = "lock-reactor-inline";

/// A [`MODULE_MAP`](crate::MODULE_MAP) entry's file (or `mod.rs`, for
/// a directory entry) lacks the `#![deny(clippy::…)]` header of one of
/// its classes ([`HEADERS`](crate::classify::HEADERS)), so clippy no
/// longer checks what the map says it does. Add the header, or take
/// the class out of the map in the same change.
pub const CLASS_HEADER: &str = "class-header";

/// A `// dmp-lint: allow(…)` annotation suppressed nothing; a stale
/// allow hides a future regression at that site. Delete it, or move
/// it to the line it was meant for.
pub const ALLOW_UNUSED: &str = "allow-unused";

/// A `// dmp-lint:` annotation that does not parse, names an unknown
/// rule, or omits the mandatory `-- <reason>`. Write
/// `// dmp-lint: allow(<rule>[, <rule>]) -- <why this is sound>`.
pub const ALLOW_MALFORMED: &str = "allow-malformed";

/// Every rule id, in the order the findings table prints them.
pub const RULES: &[&str] = &[
    LOCK_ACROSS_FSYNC,
    LOCK_ORDER,
    LOCK_REACTOR_INLINE,
    CLASS_HEADER,
    ALLOW_UNUSED,
    ALLOW_MALFORMED,
];

/// A live lock guard.
struct Guard {
    /// Binding name when `let`-bound (enables `drop(name)` tracking).
    name: Option<String>,
    /// The field/variable the lock was taken on (`self.inner.lock()` →
    /// `inner`): the identity used for ordering checks.
    receiver: String,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below it.
    depth: i32,
    /// Not `let`-bound: a temporary dropped at the end of its statement.
    temp: bool,
}

/// Analyze one file's token stream. `reactor_inline`: the file is in
/// that class of [`MODULE_MAP`](crate::MODULE_MAP).
pub fn analyze(path: &str, toks: &[Tok], reactor_inline: bool) -> Analysis {
    let mut out = Analysis::default();
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending_let: Option<String> = None;

    let ident = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    let punct = |i: usize, c: char| toks.get(i).is_some_and(|t| t.is_punct(c));

    let push = |out: &mut Analysis, rule: &'static str, line: u32, msg: String| {
        out.findings.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message: msg,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        let line = t.line;

        // --- scope bookkeeping ---------------------------------------
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    pending_let = None;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    pending_let = None;
                }
                ";" => {
                    guards.retain(|g| !(g.temp && g.depth == depth));
                    pending_let = None;
                }
                _ => {}
            }
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // A new item: expression guards cannot span it.
                "fn" => guards.clear(),
                "let" => {
                    let mut j = i + 1;
                    if ident(j) == Some("mut") {
                        j += 1;
                    }
                    pending_let = ident(j).map(str::to_string);
                }
                // `drop(guard)` releases by name.
                "drop" if punct(i + 1, '(') && punct(i + 3, ')') => {
                    if let Some(name) = ident(i + 2) {
                        guards.retain(|g| g.name.as_deref() != Some(name));
                    }
                }
                _ => {}
            }
        }

        // --- lock discipline -----------------------------------------
        let is_lock_call = t.is_ident("lock")
            && i > 0
            && punct(i - 1, '.')
            && punct(i + 1, '(')
            && punct(i + 2, ')');
        if is_lock_call {
            let receiver = if i >= 2 && toks[i - 2].kind == TokKind::Ident {
                toks[i - 2].text.clone()
            } else {
                "<expr>".to_string()
            };
            // A `let`-bound acquisition only produces a *live* guard if
            // the binding IS the guard: the statement must end right
            // after `.lock()`, modulo the `.unwrap()`/`.expect(..)` a
            // std mutex needs. `let n = m.lock().values().fold(..);`
            // binds the fold result; its guard is a temporary that dies
            // at the `;`.
            let mut j = i + 3;
            loop {
                if punct(j, '.')
                    && matches!(ident(j + 1), Some("unwrap" | "expect"))
                    && punct(j + 2, '(')
                {
                    let mut k = j + 3;
                    let mut pdepth = 1;
                    while k < toks.len() && pdepth > 0 {
                        if punct(k, '(') {
                            pdepth += 1;
                        } else if punct(k, ')') {
                            pdepth -= 1;
                        }
                        k += 1;
                    }
                    j = k;
                } else {
                    break;
                }
            }
            let binds_guard = pending_let.is_some() && punct(j, ';');
            if reactor_inline {
                push(
                    &mut out,
                    LOCK_REACTOR_INLINE,
                    line,
                    format!(
                        "blocking `.lock()` on `{receiver}` in a reactor-inline \
                         module (try_lock or annotate)"
                    ),
                );
            }
            for g in &guards {
                if g.receiver != receiver {
                    out.pairs.push(LockPair {
                        first: g.receiver.clone(),
                        second: receiver.clone(),
                        path: path.to_string(),
                        line,
                    });
                }
            }
            guards.push(Guard {
                name: if binds_guard {
                    pending_let.clone()
                } else {
                    None
                },
                receiver,
                depth,
                temp: !binds_guard,
            });
        }
        if !guards.is_empty() {
            let marker = match ident(i) {
                Some(m @ ("sync_all" | "sync_data")) if punct(i.wrapping_sub(1), '.') => Some(m),
                Some(m @ "write_snapshot") if punct(i + 1, '(') => Some(m),
                Some(m @ "append")
                    if punct(i.wrapping_sub(1), '.')
                        && ident(i.wrapping_sub(2)) == Some("journal") =>
                {
                    Some(m)
                }
                _ => None,
            };
            if let Some(m) = marker {
                let held: Vec<&str> = guards.iter().map(|g| g.receiver.as_str()).collect();
                push(
                    &mut out,
                    LOCK_ACROSS_FSYNC,
                    line,
                    format!(
                        "`{m}` (fsync-bearing) while holding lock(s) on {}: the \
                         disk write serializes every waiter",
                        held.join(", ")
                    ),
                );
            }
        }
    }
    out
}
