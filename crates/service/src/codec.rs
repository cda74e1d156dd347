//! Versioned wire codec for the distributed protocol: the
//! [`CandidatePhaseExport`]s that coordinator and shard workers exchange
//! between processes, and every internal RPC message — the bodies of
//! `/internal/{apply,candidates,settle,restore}` and the workers'
//! replies.
//!
//! Format rules (shared with the snapshot codec in [`crate::state`]):
//!
//! * every export carries an explicit `"v"` version tag and decoding
//!   refuses unknown versions — a mixed-version deployment fails fast
//!   instead of settling a round from a misread candidate graph;
//! * integers ride as decimal strings and floats as `{:016x}` bit
//!   patterns, so a decoded bid is **bit-exact** — the clearing pass and
//!   the settlement planner on the far side see the same `f64`s the
//!   exporter computed, and the cross-process equivalence proptests can
//!   pin ledgers bit-for-bit;
//! * decoding is total: every defect (missing field, bad integer,
//!   unknown tag, version skew) is a [`WireError`], never a panic.
//!
//! Each message is one `record!` table, written token by token as
//! compact text and decoded straight from the body bytes, so no `Json`
//! tree is built on either side of the socket. The `/internal/apply`
//! body's `cmd` keeps the client command grammar of
//! [`command`](crate::command), streamed the same way. [`encode_exports`] /
//! [`decode_exports`] give the benchmark's codec probes the exports as
//! a tree: the text parsed, and a tree's dump read as text.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(clippy::indexing_slicing)]

use std::borrow::Cow;

use dmp_core::arbiter::mashup_builder::BuiltMashup;
use dmp_core::arbiter::pipeline::CandidatePhaseExport;
use dmp_core::arbiter::pricing::RoundBid;

use crate::command::Command;
use crate::shard::RouterImage;
use crate::state::{enc_all, from_text, record, to_text, tree, Wire};
use crate::wire::{Json, Parser, Sink, Text, WireError};

/// The current candidate-codec version. Bump on any format change and
/// keep decode refusing everything it does not understand.
pub const CANDIDATE_CODEC_VERSION: u64 = 1;

record!(RoundBid {
    offer_id => "offer",
    buyer => "buyer",
    bid => "bid",
    satisfaction => "satisfaction",
    datasets => "datasets",
    reserve_floor => "reserve_floor",
    license_multiplier => "license_multiplier",
});

record!(BuiltMashup {
    relation => "relation",
    datasets => "datasets",
    coverage => "coverage",
    confidence => "confidence",
    missing => "missing",
});

// One shard's full candidate phase: the bids, the winning mashups
// settlement needs, the unmet-demand report inputs, and the audit
// events the candidate stage appended.
record!(
    #[version = CANDIDATE_CODEC_VERSION]
    CandidatePhaseExport {
        round => "round",
        bids => "bids",
        best_mashups => "mashups",
        missing => "missing",
        negotiations => "negotiations",
        audit_events => "audit",
    }
);

/// The `/internal/apply` body: one journaled command and its seq.
pub(crate) struct ApplyBody<'a> {
    pub(crate) fp: String,
    pub(crate) seq: u64,
    pub(crate) cmd: Cow<'a, Command>,
}

record!(ApplyBody<'_> {
    fp => "fp",
    seq => "seq",
    cmd => "cmd",
});

/// The `/internal/candidates` body: the round, its seed, and the
/// shards whose candidate phase the worker computes.
pub(crate) struct CandidatesBody {
    pub(crate) fp: String,
    pub(crate) round: u64,
    pub(crate) seed: u64,
    pub(crate) shards: Vec<usize>,
}

record!(CandidatesBody {
    fp => "fp",
    round => "round",
    seed => "seed",
    shards => "shards",
});

/// The `/internal/settle` body: the round the coordinator settled, and
/// the exports of the shards the receiving worker did not compute,
/// `shards` naming each one's index.
pub(crate) struct SettleBody<'a> {
    pub(crate) fp: String,
    pub(crate) round: u64,
    pub(crate) seed: u64,
    pub(crate) shards: Vec<usize>,
    pub(crate) exports: Vec<Cow<'a, CandidatePhaseExport>>,
}

record!(SettleBody<'_> {
    fp => "fp",
    round => "round",
    seed => "seed",
    shards => "shards",
    exports => "exports",
});

/// The `/internal/restore` body: the coordinator's state at journal seq
/// `applied`, and the digest it must restore to. The image is written
/// straight from the export and decoded straight into a router image.
pub(crate) struct RestoreBody<'a> {
    pub(crate) fp: String,
    pub(crate) applied: u64,
    pub(crate) digest: u64,
    pub(crate) state: Cow<'a, RouterImage>,
}

record!(RestoreBody<'_> {
    fp => "fp",
    applied => "applied",
    digest => "digest",
    state => "state",
});

/// A worker's `/internal/apply` reply.
pub(crate) struct ApplyReply {
    pub(crate) applied: u64,
}

record!(ApplyReply { applied => "applied" });

/// A worker's `/internal/settle` reply.
pub(crate) struct SettleReply {
    pub(crate) rounds: u64,
    pub(crate) sales: usize,
}

record!(SettleReply {
    rounds => "rounds",
    sales => "sales",
});

/// A worker's `/internal/digest` reply: the replica-equivalence probe.
pub(crate) struct DigestReply {
    pub(crate) digest: u64,
    pub(crate) rounds: u64,
    pub(crate) applied: u64,
}

record!(DigestReply {
    digest => "digest",
    rounds => "rounds",
    applied => "applied",
});

/// A worker's `/internal/restore` reply.
pub(crate) struct RestoreReply {
    pub(crate) digest: u64,
    pub(crate) applied: u64,
}

record!(RestoreReply {
    digest => "digest",
    applied => "applied",
});

/// A worker's `/internal/candidates` reply: one export per shard it was
/// asked for, in the order it was asked.
struct CandidatesReply<'a> {
    round: u64,
    exports: Vec<Cow<'a, CandidatePhaseExport>>,
}

record!(CandidatesReply<'_> {
    round => "round",
    exports => "exports",
});

/// A borrowed value travels as the value itself and decodes owned, so
/// a message can be written from exports the sender keeps.
impl<T: Wire + Clone> Wire for Cow<'_, T> {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        T::enc(self, e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        T::dec(r).map(Cow::Owned)
    }
}

/// The settle body for a worker that lacks `shards` (ascending indices
/// into `exports`, the round's exports in shard order). An index past
/// the end ships nothing, which the worker refuses.
pub(crate) fn settle_text(
    fp: &str,
    round: u64,
    seed: u64,
    exports: &[CandidatePhaseExport],
    shards: Vec<usize>,
) -> String {
    let shipped = shards
        .iter()
        .filter_map(|&i| exports.get(i).map(Cow::Borrowed))
        .collect();
    to_text(&SettleBody {
        fp: fp.to_owned(),
        round,
        seed,
        shards,
        exports: shipped,
    })
}

/// A candidates reply for `round` carrying `exports`.
pub(crate) fn candidates_reply_text(round: u64, exports: Vec<&CandidatePhaseExport>) -> String {
    to_text(&CandidatesReply {
        round,
        exports: exports.into_iter().map(Cow::Borrowed).collect(),
    })
}

/// Decode a worker's candidates reply from its bytes: it must be for
/// `round` and carry exactly `shards` exports, else it is refused
/// before anything uses it.
pub fn decode_candidates_reply(
    bytes: &[u8],
    round: u64,
    shards: usize,
) -> Result<Vec<CandidatePhaseExport>, WireError> {
    let reply: CandidatesReply<'static> = from_text(bytes)?;
    if reply.round != round {
        return Err(WireError::new(format!(
            "reply is for round {}, not {round}",
            reply.round
        )));
    }
    if reply.exports.len() != shards {
        return Err(WireError::new(format!(
            "expected {shards} shard exports, got {}",
            reply.exports.len()
        )));
    }
    Ok(reply.exports.into_iter().map(Cow::into_owned).collect())
}

/// Tree adapter: exports in the order given, as their text parsed.
pub fn encode_exports(exports: &[CandidatePhaseExport]) -> Json {
    tree(|e| enc_all(exports, e))
}

/// Tree adapter: decode exports from the tree's dump; `shards` pins
/// the expected count so a short or padded payload is refused.
pub fn decode_exports(j: &Json, shards: usize) -> Result<Vec<CandidatePhaseExport>, WireError> {
    let exports: Vec<CandidatePhaseExport> = from_text(j.try_dump()?.as_bytes())?;
    if exports.len() != shards {
        return Err(WireError::new(format!(
            "expected {shards} shard exports, got {}",
            exports.len()
        )));
    }
    Ok(exports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_core::arbiter::pipeline::NegotiationRequest;
    use dmp_core::trust::AuditEvent;
    use dmp_relation::{DataType, DatasetId, Relation, Schema, Value};

    fn bid(offer_id: u64) -> RoundBid {
        RoundBid {
            offer_id,
            buyer: format!("buyer \"q\" π {offer_id}"),
            bid: 123.456789,
            satisfaction: 0.875,
            datasets: vec![DatasetId(3), DatasetId(11)],
            reserve_floor: 7.25,
            license_multiplier: 1.5,
        }
    }

    fn mashup() -> BuiltMashup {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)])
            .unwrap()
            .shared();
        let mut rel = Relation::empty("m", schema);
        rel.push_values(vec![Value::Int(1), Value::str("x")])
            .unwrap();
        BuiltMashup {
            relation: std::sync::Arc::new(rel.with_source(DatasetId(3))),
            datasets: vec![DatasetId(3)],
            coverage: 0.5,
            confidence: 0.25,
            missing: vec!["e".into()],
        }
    }

    /// An export carrying `bids` and nothing else.
    fn export_of(round: u64, bids: Vec<RoundBid>) -> CandidatePhaseExport {
        CandidatePhaseExport {
            round,
            bids,
            best_mashups: Vec::new(),
            missing: Vec::new(),
            negotiations: Vec::new(),
            audit_events: Vec::new(),
        }
    }

    /// [`bid`]'s text, as every message carrying it has held it.
    fn bid_text(offer_id: u64) -> String {
        format!(
            concat!(
                r#"{{"offer":"{0}","buyer":"buyer \"q\" π {0}","bid":"405edd3c07ee0b0b","#,
                r#""satisfaction":"3fec000000000000","datasets":["3","11"],"#,
                r#""reserve_floor":"401d000000000000","license_multiplier":"3ff8000000000000"}}"#
            ),
            offer_id
        )
    }

    /// [`export_of`]'s text for `round` and bids of these offers.
    fn export_text(round: u64, offers: &[u64]) -> String {
        let bids: Vec<String> = offers.iter().map(|&id| bid_text(id)).collect();
        format!(
            r#"{{"v":"1","round":"{round}","bids":[{}],"mashups":[],"missing":[],"negotiations":[],"audit":[]}}"#,
            bids.join(",")
        )
    }

    #[test]
    fn export_with_a_missing_field_is_refused() {
        let decode = |text: &str| from_text::<CandidatePhaseExport>(text.as_bytes());
        let full = to_text(&export_of(9, vec![bid(42)]));
        assert_eq!(full, export_text(9, &[42]));
        assert_eq!(
            decode(&full).expect("decodes back"),
            export_of(9, vec![bid(42)])
        );
        // Malformed exports are refused, not defaulted.
        assert!(decode(r#"{"v":"1","round":"1"}"#).is_err());
        let bid_missing_fields = r#"{"v":"1","round":"1","bids":[{"offer":"1"}],"mashups":[],"missing":[],"negotiations":[],"audit":[]}"#;
        assert!(decode(bid_missing_fields).is_err());
    }

    #[test]
    fn version_skew_is_refused() {
        let mut encoded = to_text(&export_of(1, Vec::new()));
        encoded = encoded.replacen("\"1\"", "\"2\"", 1);
        let err = from_text::<CandidatePhaseExport>(encoded.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Missing version tag is also refused.
        let unversioned =
            r#"{"round":"1","bids":[],"mashups":[],"missing":[],"negotiations":[],"audit":[]}"#;
        assert!(from_text::<CandidatePhaseExport>(unversioned.as_bytes()).is_err());
    }

    #[test]
    fn export_round_trips_through_the_wire() {
        let export = CandidatePhaseExport {
            round: 4,
            bids: vec![bid(7), bid(9)],
            best_mashups: vec![(7, mashup())],
            missing: vec![vec!["e".into(), "f".into()], Vec::new()],
            negotiations: vec![NegotiationRequest {
                offer_id: 9,
                buyer: "bob".into(),
                missing: vec!["e".into()],
                candidate_sellers: vec!["s1".into()],
            }],
            audit_events: vec![AuditEvent::MashupBuilt {
                offer: 7,
                datasets: vec![DatasetId(3)],
            }],
        };
        let encoded = to_text(&export);
        let decoded = from_text::<CandidatePhaseExport>(encoded.as_bytes()).expect("decodes back");
        assert_eq!(decoded, export, "wire round-trip changed the export");
    }

    #[test]
    fn float_bit_patterns_survive_the_wire() {
        // Values with no short decimal form must still round-trip
        // bit-exactly — the codec ships bit patterns, not decimals.
        let mut b = bid(1);
        b.bid = 0.1 + 0.2;
        b.satisfaction = f64::MIN_POSITIVE;
        let export = export_of(1, vec![b.clone()]);
        let decoded = from_text::<CandidatePhaseExport>(to_text(&export).as_bytes()).unwrap();
        let back = decoded.bids.first().unwrap();
        assert_eq!(back.bid.to_bits(), b.bid.to_bits());
        assert_eq!(back.satisfaction.to_bits(), b.satisfaction.to_bits());
    }

    #[test]
    fn round_messages_are_their_pinned_bytes() {
        let exports = vec![
            export_of(3, vec![bid(42), bid(7)]),
            export_of(3, Vec::new()),
            export_of(3, vec![bid(1)]),
        ];
        let exports_text = format!(
            "[{},{},{}]",
            export_text(3, &[42, 7]),
            export_text(3, &[]),
            export_text(3, &[1])
        );
        let settle = settle_text("v5 shards=3", 3, 99, &exports, vec![0, 1, 2]);
        assert_eq!(
            settle,
            format!(
                r#"{{"fp":"v5 shards=3","round":"3","seed":"99","shards":["0","1","2"],"exports":{exports_text}}}"#
            )
        );
        let reply = candidates_reply_text(3, exports.iter().collect());
        assert_eq!(
            reply,
            format!(r#"{{"round":"3","exports":{exports_text}}}"#)
        );
        // The tree adapter is the same text, parsed.
        assert_eq!(encode_exports(&exports).dump(), exports_text);

        // And back, straight from the bytes.
        assert_eq!(
            decode_candidates_reply(reply.as_bytes(), 3, 3).unwrap(),
            exports
        );
        let body: SettleBody = from_text(settle.as_bytes()).unwrap();
        assert_eq!(
            (body.fp.as_str(), body.round, body.seed),
            ("v5 shards=3", 3, 99)
        );
        assert_eq!(body.shards, [0, 1, 2]);
        assert_eq!(
            body.exports,
            exports.iter().map(Cow::Borrowed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_settle_body_ships_only_the_listed_shards() {
        let exports = vec![export_of(2, vec![bid(1)]), export_of(2, vec![bid(2)])];
        let text = settle_text("fp", 2, 5, &exports, vec![1]);
        let body: SettleBody = from_text(text.as_bytes()).unwrap();
        assert_eq!(body.shards, [1]);
        assert_eq!(body.exports, [Cow::Borrowed(&exports[1])]);
    }

    #[test]
    fn a_candidates_reply_for_another_round_or_count_is_refused() {
        let exports = [export_of(4, vec![bid(9)])];
        let reply = candidates_reply_text(4, exports.iter().collect());
        assert!(decode_candidates_reply(reply.as_bytes(), 4, 1).is_ok());
        assert!(decode_candidates_reply(reply.as_bytes(), 5, 1).is_err());
        assert!(decode_candidates_reply(reply.as_bytes(), 4, 2).is_err());
        // Trailing bytes, a missing member and a bad version are refused.
        assert!(decode_candidates_reply(format!("{reply}x").as_bytes(), 4, 1).is_err());
        assert!(decode_candidates_reply(br#"{"round":"4"}"#, 4, 0).is_err());
        let skewed = reply.replacen(r#""v":"1""#, r#""v":"2""#, 1);
        assert!(decode_candidates_reply(skewed.as_bytes(), 4, 1).is_err());
    }

    #[test]
    fn exports_pin_shard_count() {
        let j = encode_exports(&[]);
        assert!(decode_exports(&j, 0).unwrap().is_empty());
        assert!(decode_exports(&j, 2).is_err(), "short payload refused");
    }

    use proptest::prelude::*;

    /// Arbitrary bids: buyer names over the full escapable-character
    /// space and floats drawn as raw bit patterns, so the strategy
    /// reaches NaNs, infinities, subnormals and negative zero.
    const BITS: std::ops::RangeInclusive<u64> = 0u64..=u64::MAX;

    fn arb_bid() -> impl Strategy<Value = RoundBid> {
        (
            BITS,
            ".{0,12}",
            BITS,
            BITS,
            proptest::collection::vec(BITS, 0..4),
            BITS,
            BITS,
        )
            .prop_map(|(offer_id, buyer, bid, sat, ds, floor, mult)| RoundBid {
                offer_id,
                buyer,
                bid: f64::from_bits(bid),
                satisfaction: f64::from_bits(sat),
                datasets: ds.into_iter().map(DatasetId).collect(),
                reserve_floor: f64::from_bits(floor),
                license_multiplier: f64::from_bits(mult),
            })
    }

    /// Bit-level view of a bid (NaN != NaN under `PartialEq`, but the
    /// wire must preserve even NaN payload bits).
    fn bid_bits(b: &RoundBid) -> (u64, &str, u64, u64, Vec<u64>, u64, u64) {
        (
            b.offer_id,
            &b.buyer,
            b.bid.to_bits(),
            b.satisfaction.to_bits(),
            b.datasets.iter().map(|d| d.0).collect(),
            b.reserve_floor.to_bits(),
            b.license_multiplier.to_bits(),
        )
    }

    proptest! {
        /// `decode(encode(export)) == export` for arbitrary bids,
        /// bit-for-bit, through an actual serialize → parse cycle of
        /// the JSON text.
        #[test]
        fn export_codec_round_trips(
            round in BITS,
            bids in proptest::collection::vec(arb_bid(), 0..8),
        ) {
            let export = export_of(round, bids);
            let text = to_text(&export);
            let decoded = from_text::<CandidatePhaseExport>(text.as_bytes())
                .expect("self-produced payload decodes");
            prop_assert_eq!(decoded.round, export.round);
            prop_assert_eq!(decoded.bids.len(), export.bids.len());
            for (a, b) in decoded.bids.iter().zip(&export.bids) {
                prop_assert_eq!(bid_bits(a), bid_bits(b));
            }
        }
    }
}
