//! The replay-critical module map: which rule classes apply to which
//! source files.
//!
//! The map is checked in on purpose. Whether a module is
//! replay-critical is an architectural fact, not something a tool can
//! infer — so it lives here, next to the rules, where a PR that adds a
//! new settlement path has to edit it (and a reviewer gets to ask why
//! if it doesn't). Clippy does the checking, through the header each
//! class puts in the file ([`HEADERS`]); dmp-lint's `class-header` rule
//! keeps the headers and the map in step.
//!
//! Deliberate exemptions, documented so they read as decisions rather
//! than omissions:
//!
//! - `service::wire` and `service::command` carry amounts as `f64`
//!   because the paper's interface is priced in real-valued credits;
//!   the ledger converts to integer micro-credits at the boundary.
//!   They are in the replay class (decode drives replay) but not the
//!   float-strict class.
//! - `service::node`'s `/health` body formats uptime as a float; that
//!   is presentation, never state, so node.rs is not float-strict.
//! - `service::reactor` and `service::timer` keep `HashMap`s of
//!   connections and use `Instant` for timeouts; connection bookkeeping
//!   is not replayed, so they are not in the replay class. The reactor
//!   is instead in the reactor-inline class: handlers it runs inline
//!   must not block on locks.

/// The `#![deny(clippy::…)]` header each clippy-checked class puts in
/// its entry's file, or in `mod.rs` for a directory entry (an inner
/// attribute covers the whole module subtree). `clippy.toml` names
/// what `disallowed_types` and `disallowed_methods` refuse.
///
/// - `replay`: state here is rebuilt by WAL replay and must be
///   bit-identical across runs and shard counts, so no
///   `HashMap`/`HashSet`, wall clock or entropy draw.
/// - `float_strict`: integer-exact zones (the micro-credit ledger, WAL
///   framing, the codecs): float arithmetic and lossy casts to floats
///   each justify themselves.
/// - `panic_free`: WAL append, recovery and settlement propagate
///   errors; they do not abort mid-critical-section.
/// - `no_index`: the same paths, where a `[]` index is a hidden panic.
///
/// The fifth class, `reactor_inline`, has no header: dmp-lint itself
/// enforces it ([`LOCK_REACTOR_INLINE`](crate::rules::LOCK_REACTOR_INLINE)).
pub const HEADERS: &[(&str, &str)] = &[
    (
        "replay",
        "#![deny(clippy::disallowed_types, clippy::disallowed_methods)]",
    ),
    (
        "float_strict",
        "#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]",
    ),
    (
        "panic_free",
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
         clippy::unreachable, clippy::todo, clippy::unimplemented)]",
    ),
    ("no_index", "#![deny(clippy::indexing_slicing)]"),
];

/// One row of the module map.
pub struct MapEntry {
    /// Path pattern, `/`-separated. A trailing `/` means "directory
    /// prefix" (matched anywhere in the path); otherwise the pattern
    /// must match a path suffix.
    pub pattern: &'static str,
    /// Class names this entry grants: one of [`HEADERS`], or
    /// `reactor_inline`.
    pub classes: &'static [&'static str],
    /// Why the module is classified this way.
    pub why: &'static str,
}

/// The checked-in map. Order does not matter; classes accumulate.
pub const MODULE_MAP: &[MapEntry] = &[
    MapEntry {
        pattern: "crates/core/src/arbiter/",
        classes: &["replay"],
        why: "every arbiter pipeline stage re-runs during WAL replay and must \
              produce bit-identical rounds",
    },
    MapEntry {
        pattern: "crates/core/src/market.rs",
        classes: &["replay"],
        why: "round driver + shared substrate; iteration order here is trade order",
    },
    MapEntry {
        pattern: "crates/core/src/arbiter/ledger.rs",
        classes: &["float_strict", "panic_free", "no_index"],
        why: "integer micro-credit ledger: exact conservation is the invariant, \
              floats exist only at the wire boundary; runs inside settlement",
    },
    MapEntry {
        pattern: "crates/core/src/arbiter/pipeline/settlement.rs",
        classes: &["panic_free", "no_index"],
        why: "the one settlement path (library and shard router): conflict-graph \
              planning, then commits in global offer-id order; a panic between \
              escrow release and license grant strands funds",
    },
    MapEntry {
        pattern: "crates/integration/src/dod.rs",
        classes: &["replay"],
        why: "anchor ranking decides which datasets a buyer pays for, and WAL \
              replay re-runs it",
    },
    MapEntry {
        pattern: "crates/integration/src/join_graph.rs",
        classes: &["replay"],
        why: "join-path choice decides which datasets a mashup joins, and WAL \
              replay re-runs it",
    },
    MapEntry {
        pattern: "crates/service/src/command.rs",
        classes: &["replay"],
        why: "command decode is the first step of replay",
    },
    MapEntry {
        pattern: "crates/service/src/wire.rs",
        classes: &["replay", "panic_free", "no_index"],
        why: "the JSON parser is the first decoder every byte from disk or a \
              socket meets: hostile input must come back as a WireError with \
              a position, never as a panic",
    },
    MapEntry {
        pattern: "crates/service/src/journal.rs",
        classes: &["replay", "float_strict", "panic_free", "no_index"],
        why: "WAL append and frame scan: must report torn tails as errors, \
              never panic while the journal is mid-write",
    },
    MapEntry {
        pattern: "crates/service/src/snapshot.rs",
        classes: &["replay", "float_strict", "panic_free", "no_index"],
        why: "snapshot encode/decode feeds recovery; a corrupt file must fall \
              back to full replay, not abort",
    },
    MapEntry {
        pattern: "crates/service/src/state.rs",
        classes: &["replay", "float_strict", "panic_free", "no_index"],
        why: "materialized-state codec: decode(encode(state)) must be \
              digest-identical, floats travel as bit patterns, and a corrupt \
              image must error (fall back to replay), never panic",
    },
    MapEntry {
        pattern: "crates/service/src/node.rs",
        classes: &["replay", "panic_free", "no_index"],
        why: "command application: the WAL ordering invariant lives here",
    },
    MapEntry {
        pattern: "crates/service/src/shard.rs",
        classes: &["replay", "panic_free", "no_index"],
        why: "participant routing, global offer ids and the round seed stream; \
              1-shard == M-shard equivalence depends on them (clearing and \
              settlement order live in core's pipeline)",
    },
    MapEntry {
        pattern: "crates/service/src/codec.rs",
        classes: &["replay", "float_strict", "panic_free", "no_index"],
        why: "distributed round codec: decode(encode(export)) must be bit-exact, \
              floats travel as bit patterns, and a malformed candidate payload \
              from the wire must error, never panic a round",
    },
    MapEntry {
        pattern: "crates/service/src/worker.rs",
        classes: &["replay", "panic_free"],
        why: "worker replicas re-execute the coordinator's rounds from wire \
              payloads and must land bit-identical; a panic kills the replica",
    },
    MapEntry {
        pattern: "crates/service/src/coordinator.rs",
        classes: &["panic_free"],
        why: "worker-pool RPC fan-out runs inside the apply critical section; \
              a panic there poisons the exchange, a worker fault must degrade \
              to re-dispatch or local compute instead",
    },
    MapEntry {
        pattern: "crates/service/src/reactor.rs",
        classes: &["reactor_inline"],
        why: "one thread owns every connection; a blocking lock here stalls \
              the whole gateway",
    },
    MapEntry {
        pattern: "crates/telemetry/src/registry.rs",
        classes: &["reactor_inline"],
        why: "/metrics renders inline on the reactor thread",
    },
    MapEntry {
        pattern: "crates/telemetry/src/trace.rs",
        classes: &["reactor_inline"],
        why: "/trace renders inline on the reactor thread",
    },
];

impl MapEntry {
    /// The file that carries this entry's headers: the entry's own
    /// file, or `mod.rs` for a directory entry.
    pub fn header_file(&self) -> String {
        if self.pattern.ends_with('/') {
            format!("{}mod.rs", self.pattern)
        } else {
            self.pattern.to_string()
        }
    }
}

/// The class names [`MODULE_MAP`] grants a `/`-separated path, which
/// may be absolute or repo-relative.
pub fn classify(path: &str) -> Vec<&'static str> {
    MODULE_MAP
        .iter()
        .filter(|e| {
            if e.pattern.ends_with('/') {
                path.contains(e.pattern)
            } else {
                path.ends_with(e.pattern)
            }
        })
        .flat_map(|e| e.classes.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_dir_is_replay() {
        let c = classify("/root/repo/crates/core/src/arbiter/pricing.rs");
        assert_eq!(c, ["replay"]);
    }

    #[test]
    fn ledger_accumulates_dir_and_file_classes() {
        let c = classify("crates/core/src/arbiter/ledger.rs");
        assert_eq!(c, ["replay", "float_strict", "panic_free", "no_index"]);
    }

    #[test]
    fn dod_engine_is_replay_only() {
        for path in [
            "crates/integration/src/dod.rs",
            "crates/integration/src/join_graph.rs",
        ] {
            assert_eq!(classify(path), ["replay"], "{path}");
        }
    }

    #[test]
    fn reactor_is_inline_only() {
        assert_eq!(
            classify("crates/service/src/reactor.rs"),
            ["reactor_inline"]
        );
    }

    #[test]
    fn unclassified_file_gets_nothing() {
        assert!(classify("crates/relation/src/lib.rs").is_empty());
    }

    #[test]
    fn every_map_class_name_is_known() {
        for e in MODULE_MAP {
            for class in e.classes {
                assert!(
                    *class == "reactor_inline" || HEADERS.iter().any(|(c, _)| c == class),
                    "unknown class `{class}` in the entry for {}",
                    e.pattern
                );
            }
        }
    }
}
