//! The lock-discipline rule: every `.lock()` site is tracked, and a
//! guard held across an fsync-bearing call is flagged. The other three
//! rules ([`CLASS_HEADER`] and the two annotation checks) are produced
//! by [`crate::Linter`]; clippy carries determinism, float and panic
//! hygiene (README "Correctness tooling").
//!
//! There is no lock-order rule: every owner of market state has one
//! guard and no code path holds two, so there is no order to keep.
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

/// A `Mutex` guard is live across an fsync-bearing call (`sync_all`,
/// `sync_data`, `journal.append`, `journal.truncate_prefix`,
/// `write_image`): every other path on that lock stalls for the disk.
///
/// ```text
/// let mut inner = self.inner.lock();
/// inner.journal.append(&cmd)?; // fsync inside; lock held ~ms
/// ```
///
/// Move the I/O out of the critical section, or, where the WAL
/// ordering invariant needs append and apply to be atomic, annotate:
/// `// dmp-lint: allow(lock-across-fsync) -- WAL invariant: durable-before-visible`.
///
/// The rule is lexical: it sees a guard taken in the function it reads.
/// A guard passed down as `&mut NodeInner`, as the node's checkpoint
/// path passes it to the snapshot write and the journal compaction, is
/// out of its reach.
pub const LOCK_ACROSS_FSYNC: &str = "lock-across-fsync";

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
    CLASS_HEADER,
    ALLOW_UNUSED,
    ALLOW_MALFORMED,
];

/// A live lock guard.
struct Guard {
    /// Binding name when `let`-bound (enables `drop(name)` tracking).
    name: Option<String>,
    /// The field/variable the lock was taken on (`self.inner.lock()` →
    /// `inner`), named in the finding.
    receiver: String,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below it.
    depth: i32,
    /// Not `let`-bound: a temporary dropped at the end of its statement.
    temp: bool,
}

/// Analyze one file's token stream.
pub fn analyze(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending_let: Option<String> = None;

    let ident = |i: usize| -> Option<&str> {
        toks.get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    let punct = |i: usize, c: char| toks.get(i).is_some_and(|t| t.is_punct(c));

    let push = |out: &mut Vec<Finding>, rule: &'static str, line: u32, msg: String| {
        out.push(Finding {
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
                Some(m @ "write_image") if punct(i + 1, '(') => Some(m),
                Some(m @ ("append" | "truncate_prefix"))
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
