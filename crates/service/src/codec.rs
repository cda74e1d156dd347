//! Versioned wire codec for the distributed round protocol: the
//! [`CandidatePhaseExport`]s that coordinator and shard workers exchange
//! between processes.
//!
//! Format rules (shared with the snapshot codec in [`crate::state`]):
//!
//! * every payload carries an explicit `"v"` version tag and decoding
//!   refuses unknown versions — a mixed-version deployment fails fast
//!   instead of settling a round from a misread candidate graph;
//! * integers ride as decimal strings and floats as `{:016x}` bit
//!   patterns, so a decoded bid is **bit-exact** — the clearing pass and
//!   the settlement planner on the far side see the same `f64`s the
//!   exporter computed, and the cross-process equivalence proptests can
//!   pin ledgers bit-for-bit;
//! * decoding is total: every defect (missing field, bad integer,
//!   unknown tag, version skew) is a [`WireError`], never a panic.

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

use dmp_core::arbiter::mashup_builder::BuiltMashup;
use dmp_core::arbiter::pipeline::CandidatePhaseExport;
use dmp_core::arbiter::pricing::RoundBid;

use crate::state::{enc_all, record, Wire};
use crate::wire::{Json, WireError};

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

/// Encode a whole round's exports (one per shard, shard order).
pub fn encode_exports(exports: &[CandidatePhaseExport]) -> Json {
    enc_all(exports)
}

/// Decode a whole round's exports; `shards` pins the expected count so
/// a short or padded payload is refused before it reaches settlement.
pub fn decode_exports(j: &Json, shards: usize) -> Result<Vec<CandidatePhaseExport>, WireError> {
    let exports: Vec<CandidatePhaseExport> = Wire::dec(j)?;
    if exports.len() != shards {
        return Err(WireError::new(format!(
            "expected {shards} shard exports, got {}",
            exports.len()
        )));
    }
    Ok(exports)
}

/// Encode indexed exports `(shard, export)` — the candidates RPC reply,
/// which carries only the shards the worker was assigned.
pub fn encode_indexed_exports(exports: &[(usize, CandidatePhaseExport)]) -> Json {
    enc_all(exports)
}

/// Decode indexed exports, validating every shard index against the
/// deployment's shard count.
pub fn decode_indexed_exports(
    j: &Json,
    shards: usize,
) -> Result<Vec<(usize, CandidatePhaseExport)>, WireError> {
    let exports: Vec<(usize, CandidatePhaseExport)> = Wire::dec(j)?;
    match exports.iter().find(|(shard, _)| *shard >= shards) {
        Some((shard, _)) => Err(WireError::new(format!(
            "shard index {shard} out of range for {shards} shards"
        ))),
        None => Ok(exports),
    }
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
            relation: rel.with_source(DatasetId(3)),
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
        let decode = |text: &str| CandidatePhaseExport::dec(&Json::parse(text).unwrap());
        let full = export_of(9, vec![bid(42)]).enc().dump();
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
        let mut encoded = export_of(1, Vec::new()).enc().dump();
        encoded = encoded.replacen("\"1\"", "\"2\"", 1);
        let err = CandidatePhaseExport::dec(&Json::parse(&encoded).unwrap()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Missing version tag is also refused.
        let unversioned =
            r#"{"round":"1","bids":[],"mashups":[],"missing":[],"negotiations":[],"audit":[]}"#;
        assert!(CandidatePhaseExport::dec(&Json::parse(unversioned).unwrap()).is_err());
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
        let encoded = export.enc().dump();
        let decoded =
            CandidatePhaseExport::dec(&Json::parse(&encoded).unwrap()).expect("decodes back");
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
            CandidatePhaseExport::dec(&Json::parse(&export.enc().dump()).unwrap()).unwrap();
        let back = decoded.bids.first().unwrap();
        assert_eq!(back.bid.to_bits(), b.bid.to_bits());
        assert_eq!(back.satisfaction.to_bits(), b.satisfaction.to_bits());
    }

    #[test]
    fn indexed_exports_validate_shard_range() {
        let exports = vec![(1usize, export_of(1, Vec::new()))];
        let j = encode_indexed_exports(&exports);
        let decoded = decode_indexed_exports(&j, 2).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded.first().unwrap().0, 1);
        assert!(decode_indexed_exports(&j, 1).is_err(), "index out of range");
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
            let text = export.enc().dump();
            let decoded = CandidatePhaseExport::dec(&Json::parse(&text).expect("self-produced json"))
                .expect("self-produced payload decodes");
            prop_assert_eq!(decoded.round, export.round);
            prop_assert_eq!(decoded.bids.len(), export.bids.len());
            for (a, b) in decoded.bids.iter().zip(&export.bids) {
                prop_assert_eq!(bid_bits(a), bid_bits(b));
            }
        }
    }
}
