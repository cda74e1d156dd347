//! The replay-critical module map: which rule classes apply to which
//! source files.
//!
//! The map is checked in on purpose. Whether a module is
//! replay-critical is an architectural fact, not something a tool can
//! infer — so it lives here, next to the rules, where a PR that adds a
//! new settlement path has to edit it (and a reviewer gets to ask why
//! if it doesn't).
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

/// Rule classes a file can belong to. A file accumulates the classes
/// of every map entry that matches it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Classes {
    /// Replay-critical: state here is reconstructed by WAL replay and
    /// must be bit-identical across runs and shard counts. Enables
    /// `det-unordered-collection`, `det-wall-clock`, `det-rng`.
    pub replay: bool,
    /// Float-strict: integer-exact arithmetic zones (the micro-credit
    /// ledger, WAL framing). Float literals and casts to `f64`/`f32`
    /// must each justify themselves. Enables `det-float`.
    pub float_strict: bool,
    /// Panic-free: WAL append, recovery, and settlement paths must
    /// propagate errors, not abort mid-critical-section. Enables
    /// `panic-unwrap`, `panic-macro`.
    pub panic_free: bool,
    /// No-indexing: same paths, `[]` indexing (a hidden panic) needs a
    /// bounds argument. Enables `panic-indexing`.
    pub no_index: bool,
    /// Reactor-inline: code that runs on the reactor thread while
    /// serving `/health`, `/metrics`, `/trace`. Blocking lock
    /// acquisitions stall every connection. Enables
    /// `lock-reactor-inline`.
    pub reactor_inline: bool,
}

/// One row of the module map.
pub struct MapEntry {
    /// Path pattern, `/`-separated. A trailing `/` means "directory
    /// prefix" (matched anywhere in the path); otherwise the pattern
    /// must match a path suffix.
    pub pattern: &'static str,
    /// Class names this entry grants (see [`Classes`]).
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

/// Classify a path against [`MODULE_MAP`]. Accepts either `/` or `\`
/// separators and both absolute and repo-relative paths.
pub fn classify(path: &str) -> Classes {
    let norm: String = path
        .chars()
        .map(|c| if c == '\\' { '/' } else { c })
        .collect();
    let mut out = Classes::default();
    for entry in MODULE_MAP {
        let hit = if entry.pattern.ends_with('/') {
            norm.contains(entry.pattern)
        } else {
            norm.ends_with(entry.pattern)
        };
        if !hit {
            continue;
        }
        for class in entry.classes {
            match *class {
                "replay" => out.replay = true,
                "float_strict" => out.float_strict = true,
                "panic_free" => out.panic_free = true,
                "no_index" => out.no_index = true,
                "reactor_inline" => out.reactor_inline = true,
                other => unreachable!("unknown class name in MODULE_MAP: {other}"),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbiter_dir_is_replay() {
        let c = classify("/root/repo/crates/core/src/arbiter/pricing.rs");
        assert!(c.replay);
        assert!(!c.float_strict);
    }

    #[test]
    fn ledger_accumulates_dir_and_file_classes() {
        let c = classify("crates/core/src/arbiter/ledger.rs");
        assert!(c.replay, "dir entry");
        assert!(c.float_strict && c.panic_free && c.no_index, "file entry");
    }

    #[test]
    fn dod_engine_is_replay_only() {
        for path in [
            "crates/integration/src/dod.rs",
            "crates/integration/src/join_graph.rs",
        ] {
            let c = classify(path);
            assert!(c.replay, "{path}");
            assert!(!c.float_strict && !c.panic_free && !c.no_index, "{path}");
        }
    }

    #[test]
    fn reactor_is_inline_only() {
        let c = classify("crates/service/src/reactor.rs");
        assert!(c.reactor_inline);
        assert!(!c.replay && !c.panic_free);
    }

    #[test]
    fn unclassified_file_gets_nothing() {
        assert_eq!(classify("crates/relation/src/lib.rs"), Classes::default());
    }

    #[test]
    fn every_map_class_name_is_known() {
        // classify() would hit unreachable!() on a typo; touch every
        // entry once.
        for e in MODULE_MAP {
            let _ = classify(&format!("x/{}", e.pattern.trim_end_matches('/')));
            let _ = classify(&format!("x/{}/y.rs", e.pattern.trim_end_matches('/')));
        }
    }
}
