//! Versioned wire codec for the distributed round protocol: the
//! [`CandidatePhaseExport`]s that coordinator and shard workers exchange
//! between processes, and the two round messages that carry them — a
//! worker's reply to `/internal/candidates` and the coordinator's
//! `/internal/settle` body.
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
//! The node's round path is streamed: each message is one `record!`
//! table, written token by token as compact text and decoded straight
//! from the body bytes, so no `Json` tree is built on either side of
//! the socket. [`encode_exports`] / [`decode_exports`] are tree
//! adapters over the same table, kept for the benchmark's codec probes;
//! a message's text is byte-identical to the dump of its tree form.

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

use crate::state::{enc_all, from_text, record, Wire};
use crate::wire::{Emitter, Json, Reader, Text, Tree, WireError};

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
    fn enc<E: Emitter>(&self, e: &mut E) {
        T::enc(self, e);
    }

    fn dec<R: Reader>(r: &mut R) -> Result<Self, WireError> {
        T::dec(r).map(Cow::Owned)
    }
}

/// `value`'s canonical compact text.
fn to_text<T: Wire>(value: &T) -> String {
    let mut out = String::new();
    value.enc(&mut Text::new(&mut out));
    out
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

/// Decode a settle body from its bytes. The shard list is the worker's
/// to check: which shards it still needs is its own state.
pub(crate) fn decode_settle(bytes: &[u8]) -> Result<SettleBody<'static>, WireError> {
    from_text(bytes)
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

/// Tree adapter: encode exports in the order given.
pub fn encode_exports(exports: &[CandidatePhaseExport]) -> Json {
    Tree::build(|t| enc_all(exports, t))
}

/// Tree adapter: decode exports; `shards` pins the expected count so a
/// short or padded payload is refused.
pub fn decode_exports(j: &Json, shards: usize) -> Result<Vec<CandidatePhaseExport>, WireError> {
    let exports: Vec<CandidatePhaseExport> = Wire::from_json(j)?;
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

    #[test]
    fn export_with_a_missing_field_is_refused() {
        let decode = |text: &str| CandidatePhaseExport::from_json(&Json::parse(text).unwrap());
        let full = export_of(9, vec![bid(42)]).json().dump();
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
        let mut encoded = export_of(1, Vec::new()).json().dump();
        encoded = encoded.replacen("\"1\"", "\"2\"", 1);
        let err = CandidatePhaseExport::from_json(&Json::parse(&encoded).unwrap()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Missing version tag is also refused.
        let unversioned =
            r#"{"round":"1","bids":[],"mashups":[],"missing":[],"negotiations":[],"audit":[]}"#;
        assert!(CandidatePhaseExport::from_json(&Json::parse(unversioned).unwrap()).is_err());
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
        let encoded = export.json().dump();
        let decoded =
            CandidatePhaseExport::from_json(&Json::parse(&encoded).unwrap()).expect("decodes back");
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
        let decoded =
            CandidatePhaseExport::from_json(&Json::parse(&export.json().dump()).unwrap()).unwrap();
        let back = decoded.bids.first().unwrap();
        assert_eq!(back.bid.to_bits(), b.bid.to_bits());
        assert_eq!(back.satisfaction.to_bits(), b.satisfaction.to_bits());
    }

    #[test]
    fn streamed_round_messages_are_the_dump_of_their_tree_form() {
        let exports = vec![
            export_of(3, vec![bid(42), bid(7)]),
            export_of(3, Vec::new()),
            export_of(3, vec![bid(1)]),
        ];
        let settle = settle_text("v5 shards=3", 3, 99, &exports, vec![0, 1, 2]);
        let tree = Json::obj([
            ("fp", Json::str("v5 shards=3")),
            ("round", 3u64.json()),
            ("seed", 99u64.json()),
            ("shards", vec![0usize, 1, 2].json()),
            ("exports", encode_exports(&exports)),
        ]);
        assert_eq!(settle, tree.dump());
        let reply = candidates_reply_text(3, exports.iter().collect());
        let tree = Json::obj([
            ("round", 3u64.json()),
            ("exports", encode_exports(&exports)),
        ]);
        assert_eq!(reply, tree.dump());

        // And back, straight from the bytes.
        assert_eq!(
            decode_candidates_reply(reply.as_bytes(), 3, 3).unwrap(),
            exports
        );
        let body = decode_settle(settle.as_bytes()).unwrap();
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
        let body = decode_settle(settle_text("fp", 2, 5, &exports, vec![1]).as_bytes()).unwrap();
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
            let text = export.json().dump();
            let decoded = CandidatePhaseExport::from_json(&Json::parse(&text).expect("self-produced json"))
                .expect("self-produced payload decodes");
            prop_assert_eq!(decoded.round, export.round);
            prop_assert_eq!(decoded.bids.len(), export.bids.len());
            for (a, b) in decoded.bids.iter().zip(&export.bids) {
                prop_assert_eq!(bid_bits(a), bid_bits(b));
            }
        }
    }
}
