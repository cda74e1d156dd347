//! Materialized-state image codec (snapshot format v3) and the state
//! digest defined over it.
//!
//! Serializes a [`RouterImage`] — the shard router's complete durable
//! state — to wire JSON and back. The encoding is *lossless and
//! canonical*: every integer is a decimal string (wire JSON numbers are
//! `f64`, which cannot carry `u64` RNG state words), every float the
//! hex form of its IEEE-754 bit pattern (bit-exact, and immune to the
//! wire codec's non-finite rejection), every record an object with
//! exactly its fields in a fixed order. Decoding accepts exactly what
//! encoding emits, so an image has one byte form and
//! [`StateImage::digest`] — FNV-1a over those bytes — identifies the
//! state: `digest(image) == digest(encode(restore(decode(image))))`.
//!
//! One `Wire` trait carries both directions. Each image type names
//! its fields once, in a `record!` or `tagged!` table whose
//! generated `enc` destructures the value **without `..`** — a field
//! added to an image struct does not compile until it is listed. The
//! exact-bits scalar forms live in the scalar impls and nowhere else.
//!
//! The codec never panics on malformed input: a corrupt snapshot decodes
//! to a [`WireError`] and recovery falls back to the previous snapshot
//! or full journal replay.

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

use std::sync::Arc;

use dmp_core::arbiter::ledger::{EscrowImage, LedgerImage};
use dmp_core::arbiter::services::Purchase;
use dmp_core::license::{ContextualIntegrityPolicy, License};
use dmp_core::market::{
    DatasetShare, Delivery, MarketShardState, NegotiationRequest, Offer, OfferState, Participant,
    Settlement, SubstrateImage, TransactionRecord,
};
use dmp_core::trust::{AuditEvent, Dispute, DisputeState};
use dmp_discovery::metadata::{DatasetEntryImage, MetadataImage};
use dmp_discovery::LineageEvent;
use dmp_mechanism::wtp::{IntrinsicConstraints, PriceCurve, TaskKind, WtpFunction};
use dmp_relation::{
    DataType, DatasetId, Field, ProvAtom, Provenance, Relation, Row, Schema, Sourced, Value,
};

use crate::shard::{Fnv1a, RouterImage};
use crate::wire::{Json, WireError};

/// The framed form of a materialized snapshot: one JSON tree for the
/// shared substrate, one per shard, and one for the router-level
/// allocators. `snapshot.rs` writes each tree as its own CRC frame so a
/// torn write is detected per-section.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// Shared substrate (catalog, lineage, ledger, licensing terms).
    pub substrate: Json,
    /// One tree per shard, in shard order.
    pub shards: Vec<Json>,
    /// Router-level allocators (offer ids, round-seed RNG, round count).
    pub router: Json,
}

impl StateImage {
    /// The sections in file order: substrate, every shard, router.
    pub fn sections(&self) -> impl Iterator<Item = &Json> {
        std::iter::once(&self.substrate)
            .chain(&self.shards)
            .chain([&self.router])
    }

    /// The state digest: FNV-1a over the sections' wire text in file
    /// order, hashed as it is produced (nothing is allocated). Two
    /// images with equal digests encode the same state, and because the
    /// encoding is canonical the digest of an image equals
    /// [`ShardRouter::state_digest`](crate::shard::ShardRouter::state_digest)
    /// of the router it restores to.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::default();
        for section in self.sections() {
            // Only a non-finite number fails to dump; `encode` emits no
            // numbers and the parser accepts none that are non-finite.
            let _ = section.dump_into(&mut hash);
        }
        hash.finish()
    }

    /// The image as one document (the `/internal/restore` payload).
    pub fn into_json(self) -> Json {
        Json::obj([
            ("substrate", self.substrate),
            ("shards", Json::Arr(self.shards)),
            ("router", self.router),
        ])
    }

    /// Inverse of [`StateImage::into_json`].
    pub fn from_json(j: &Json) -> Result<StateImage, WireError> {
        Ok(StateImage {
            substrate: field(j, "substrate")?.clone(),
            shards: arr(field(j, "shards")?)?.to_vec(),
            router: field(j, "router")?.clone(),
        })
    }
}

/// Encode a router state image into its wire-JSON snapshot form.
pub fn encode(image: &RouterImage) -> StateImage {
    let RouterImage {
        substrate,
        shards,
        next_offer,
        round_rng,
        rounds,
    } = image;
    StateImage {
        substrate: substrate.enc(),
        shards: shards.iter().map(Wire::enc).collect(),
        router: Json::obj([
            ("next_offer", next_offer.enc()),
            ("rng", round_rng.enc()),
            ("rounds", rounds.enc()),
        ]),
    }
}

/// Decode a snapshot back into a router state image. Any structural
/// defect — missing field, bad integer, unknown tag — is a [`WireError`];
/// the caller treats the snapshot as unusable and falls back.
pub fn decode(state: &StateImage) -> Result<RouterImage, WireError> {
    let mut router = Fields::of(&state.router)?;
    let image = RouterImage {
        substrate: Wire::dec(&state.substrate)?,
        shards: state
            .shards
            .iter()
            .map(Wire::dec)
            .collect::<Result<_, _>>()?,
        next_offer: router.next("next_offer")?,
        round_rng: router.next("rng")?,
        rounds: router.next("rounds")?,
    };
    router.end()?;
    Ok(image)
}

/// A value with one canonical wire-JSON form: `dec` accepts exactly
/// what `enc` emits and nothing else.
pub(crate) trait Wire: Sized {
    /// The canonical encoding.
    fn enc(&self) -> Json;
    /// Decode, refusing anything `enc` would not have produced.
    fn dec(j: &Json) -> Result<Self, WireError>;
}

// ---------------------------------------------------------------------
// Scalars: the exact-bits rules, stated once.
// ---------------------------------------------------------------------

/// Whether `s` is how `to_string` renders an integer: digits with an
/// optional `-`, no `+`, no leading zero, no `-0`.
fn canonical_decimal(s: &str) -> bool {
    let digits = s.strip_prefix('-').unwrap_or(s);
    match digits.as_bytes() {
        [b'0'] => digits.len() == s.len(),
        [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
        _ => false,
    }
}

/// Integers travel as decimal strings.
macro_rules! decimal_wire {
    ($($int:ty),+) => {$(
        impl Wire for $int {
            fn enc(&self) -> Json {
                Json::Str(self.to_string())
            }

            fn dec(j: &Json) -> Result<Self, WireError> {
                j.as_str()
                    .filter(|s| canonical_decimal(s))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        WireError::new(concat!("expected decimal ", stringify!($int), " string"))
                    })
            }
        }
    )+};
}
decimal_wire!(u64, i64, u32, usize);

/// A 64-bit word as 16 lower-case hex digits (floats' bit patterns, and
/// the digest in a snapshot header).
pub(crate) fn enc_hex(word: u64) -> Json {
    Json::Str(format!("{word:016x}"))
}

/// Inverse of [`enc_hex`]: no sign, no upper case, no other width.
pub(crate) fn dec_hex(j: &Json) -> Result<u64, WireError> {
    j.as_str()
        .filter(|s| s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| WireError::new("expected 16 lower-case hex digits"))
}

/// Floats travel as the hex bit pattern: exact for every value including
/// NaN payloads and infinities, which wire JSON cannot represent.
impl Wire for f64 {
    fn enc(&self) -> Json {
        enc_hex(self.to_bits())
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        dec_hex(j).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        j.as_bool().ok_or_else(|| WireError::new("expected bool"))
    }
}

impl Wire for String {
    fn enc(&self) -> Json {
        Json::Str(self.clone())
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| WireError::new("expected string"))
    }
}

impl Wire for DatasetId {
    fn enc(&self) -> Json {
        self.0.enc()
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        u64::dec(j).map(DatasetId)
    }
}

// ---------------------------------------------------------------------
// Containers.
// ---------------------------------------------------------------------

pub(crate) fn arr(j: &Json) -> Result<&[Json], WireError> {
    j.as_arr().ok_or_else(|| WireError::new("expected array"))
}

/// Field lookup in an RPC envelope (records decode through [`Fields`]).
pub(crate) fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    obj.get(key)
        .ok_or_else(|| WireError::new(format!("missing field '{key}'")))
}

/// A slice as an array of its elements' encodings.
pub(crate) fn enc_all<T: Wire>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(T::enc).collect())
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self) -> Json {
        enc_all(self)
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        arr(j)?.iter().map(T::dec).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::enc)
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        match j {
            Json::Null => Ok(None),
            other => T::dec(other).map(Some),
        }
    }
}

/// A shared value travels as the value itself.
impl<T: Wire> Wire for Arc<T> {
    fn enc(&self) -> Json {
        T::enc(self)
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        T::dec(j).map(Arc::new)
    }
}

/// xoshiro256++ state words.
impl Wire for [u64; 4] {
    fn enc(&self) -> Json {
        enc_all(self)
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        <Vec<u64>>::dec(j)?
            .try_into()
            .map_err(|_| WireError::new("rng state must be 4 words"))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self) -> Json {
        Json::Arr(vec![self.0.enc(), self.1.enc()])
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        match arr(j)? {
            [a, b] => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err(WireError::new("expected a 2-element array")),
        }
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn enc(&self) -> Json {
        Json::Arr(vec![self.0.enc(), self.1.enc(), self.2.enc()])
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        match arr(j)? {
            [a, b, c] => Ok((A::dec(a)?, B::dec(b)?, C::dec(c)?)),
            _ => Err(WireError::new("expected a 3-element array")),
        }
    }
}

/// Cursor over an object's fields for record decoding: every field must
/// be present, in encoding order, and nothing may follow the last.
pub(crate) struct Fields<'a>(std::slice::Iter<'a, (String, Json)>);

impl<'a> Fields<'a> {
    pub(crate) fn of(j: &'a Json) -> Result<Self, WireError> {
        match j {
            Json::Obj(pairs) => Ok(Fields(pairs.iter())),
            _ => Err(WireError::new("expected object")),
        }
    }

    /// Decode the next field, which must be `key`.
    pub(crate) fn next<T: Wire>(&mut self, key: &str) -> Result<T, WireError> {
        match self.0.next() {
            Some((k, v)) if k == key => T::dec(v),
            _ => Err(WireError::new(format!("missing field '{key}'"))),
        }
    }

    /// The leading `"v"` field of a versioned record: anything but
    /// `supported` is refused.
    pub(crate) fn version(&mut self, supported: u64) -> Result<(), WireError> {
        match self.next::<u64>("v")? {
            v if v == supported => Ok(()),
            v => Err(WireError::new(format!(
                "wire version {v} is not the supported {supported}"
            ))),
        }
    }

    pub(crate) fn end(mut self) -> Result<(), WireError> {
        match self.0.next() {
            None => Ok(()),
            Some((k, _)) => Err(WireError::new(format!("unexpected field '{k}'"))),
        }
    }
}

/// `record!(Type { field => "key", … })` — an object with exactly these
/// fields in this order; `#[version = V]` puts a checked `"v"` first.
/// `record!(Type as (field, …))` — the same fields as a bare array.
/// Either way `enc` destructures without `..`.
macro_rules! record {
    ($(#[version = $version:expr])? $ty:path { $($field:ident => $key:literal),+ $(,)? }) => {
        impl $crate::state::Wire for $ty {
            fn enc(&self) -> $crate::wire::Json {
                let Self { $($field),+ } = self;
                $crate::wire::Json::Obj(vec![
                    $(("v".to_string(), $crate::state::Wire::enc(&$version)),)?
                    $(($key.to_string(), $crate::state::Wire::enc($field))),+
                ])
            }

            fn dec(j: &$crate::wire::Json) -> Result<Self, $crate::wire::WireError> {
                let mut fields = $crate::state::Fields::of(j)?;
                $(fields.version($version)?;)?
                let out = Self { $($field: fields.next($key)?),+ };
                fields.end()?;
                Ok(out)
            }
        }
    };
    ($ty:path as ($($field:ident),+)) => {
        impl $crate::state::Wire for $ty {
            fn enc(&self) -> $crate::wire::Json {
                let Self { $($field),+ } = self;
                $crate::wire::Json::Arr(vec![$($crate::state::Wire::enc($field)),+])
            }

            fn dec(j: &$crate::wire::Json) -> Result<Self, $crate::wire::WireError> {
                let ($($field),+) = $crate::state::Wire::dec(j)?;
                Ok(Self { $($field),+ })
            }
        }
    };
}
pub(crate) use record;

/// `tagged!(Enum { "tag" => Variant { field => "key", … }, … })` — an
/// object led by the variant's `"k"` tag. The generated `match` is
/// exhaustive and its patterns have no `..`.
macro_rules! tagged {
    ($ty:path {
        $($tag:literal => $variant:ident $({ $($field:ident => $key:literal),+ })?),+ $(,)?
    }) => {
        impl Wire for $ty {
            fn enc(&self) -> Json {
                match self {
                    $(Self::$variant $({ $($field),+ })? => Json::Obj(vec![
                        ("k".to_string(), Json::str($tag)),
                        $($(($key.to_string(), $field.enc())),+)?
                    ]),)+
                }
            }

            fn dec(j: &Json) -> Result<Self, WireError> {
                let mut fields = Fields::of(j)?;
                let tag: String = fields.next("k")?;
                let out = match tag.as_str() {
                    $($tag => Self::$variant $({ $($field: fields.next($key)?),+ })?,)+
                    _ => return Err(WireError::new(concat!("unknown ", stringify!($ty), " tag"))),
                };
                fields.end()?;
                Ok(out)
            }
        }
    };
}

// ---------------------------------------------------------------------
// Relations and cell values: schema-typed, so written by hand.
// ---------------------------------------------------------------------

impl Wire for DataType {
    fn enc(&self) -> Json {
        Json::str(match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Timestamp => "ts",
            DataType::Any => "any",
        })
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        match j.as_str() {
            Some("bool") => Ok(DataType::Bool),
            Some("int") => Ok(DataType::Int),
            Some("float") => Ok(DataType::Float),
            Some("str") => Ok(DataType::Str),
            Some("ts") => Ok(DataType::Timestamp),
            Some("any") => Ok(DataType::Any),
            _ => Err(WireError::new("unknown dtype tag")),
        }
    }
}

/// Cell values as compact tagged tuples: `["N"]`, `["B",bool]`,
/// `["I","42"]`, `["F","<bits>"]`, `["S","text"]`, `["T","-3"]`,
/// `["M",[["<src>",value],...]]`.
impl Wire for Value {
    fn enc(&self) -> Json {
        let tagged = |tag: &str, payload: Json| Json::Arr(vec![Json::str(tag), payload]);
        match self {
            Value::Null => Json::Arr(vec![Json::str("N")]),
            Value::Bool(b) => tagged("B", b.enc()),
            Value::Int(i) => tagged("I", i.enc()),
            Value::Float(f) => tagged("F", f.enc()),
            Value::Str(s) => tagged("S", Json::str(s.as_ref())),
            Value::Timestamp(t) => tagged("T", t.enc()),
            Value::Multi(parts) => tagged("M", parts.enc()),
        }
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        let (tag, payload) = match arr(j)? {
            [Json::Str(tag), payload @ ..] => (tag.as_str(), payload),
            _ => return Err(WireError::new("value tag must be a string")),
        };
        match (tag, payload) {
            ("N", []) => Ok(Value::Null),
            ("B", [b]) => bool::dec(b).map(Value::Bool),
            ("I", [i]) => i64::dec(i).map(Value::Int),
            ("F", [f]) => f64::dec(f).map(Value::Float),
            ("S", [Json::Str(s)]) => Ok(Value::Str(Arc::from(s.as_str()))),
            ("T", [t]) => i64::dec(t).map(Value::Timestamp),
            ("M", [parts]) => Wire::dec(parts).map(Value::Multi),
            _ => Err(WireError::new("unknown value tag or payload")),
        }
    }
}

record!(Sourced as (source, value));
record!(ProvAtom as (dataset, row));

/// `[name, dtype]`.
impl Wire for Field {
    fn enc(&self) -> Json {
        Json::Arr(vec![Json::str(self.name()), self.dtype().enc()])
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        let (name, dtype): (String, DataType) = Wire::dec(j)?;
        Ok(Field::new(name, dtype))
    }
}

/// `[[value, …], [atom, …]]`: the cells, then the recorded provenance.
impl Wire for Row {
    fn enc(&self) -> Json {
        Json::Arr(vec![
            enc_all(self.values()),
            enc_all(self.provenance().atoms()),
        ])
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        let (values, atoms): (Vec<Value>, Vec<ProvAtom>) = Wire::dec(j)?;
        Ok(Row::new(values, Provenance::from_atoms(atoms)))
    }
}

impl Wire for Relation {
    fn enc(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name())),
            ("source", self.source().enc()),
            ("schema", enc_all(self.schema().fields())),
            ("rows", enc_all(self.rows())),
        ])
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        let mut fields = Fields::of(j)?;
        let name: String = fields.next("name")?;
        let source: Option<DatasetId> = fields.next("source")?;
        let schema: Vec<Field> = fields.next("schema")?;
        let rows: Vec<Row> = fields.next("rows")?;
        fields.end()?;
        let schema = Schema::new(schema)
            .map_err(|e| WireError::new(format!("bad snapshot schema: {e}")))?
            .shared();
        let rel = Relation::from_rows(name, schema, rows)
            .map_err(|e| WireError::new(format!("bad snapshot relation: {e}")))?;
        Ok(match source {
            // `with_source_raw` keeps the recorded provenance verbatim;
            // `with_source` would re-stamp it and lose mashup lineage.
            Some(id) => rel.with_source_raw(id),
            None => rel,
        })
    }
}

// ---------------------------------------------------------------------
// Substrate: catalog, lineage, ledger, licensing terms.
// ---------------------------------------------------------------------

record!(SubstrateImage {
    metadata => "metadata",
    lineage => "lineage",
    lineage_seq => "lineage_seq",
    ledger => "ledger",
    reserves => "reserves",
    licenses => "licenses",
    ci_policies => "ci_policies",
    exclusive_holds => "holds",
});

record!(MetadataImage {
    entries => "entries",
    next_id => "next_id",
    clock => "clock",
});

record!(DatasetEntryImage {
    id => "id",
    name => "name",
    owner => "owner",
    relation => "relation",
    version => "version",
    registered_at => "registered_at",
    snapshot_at => "snapshot_at",
    tags => "tags",
});

record!(LedgerImage {
    accounts => "accounts",
    escrows => "escrows",
    next_escrow => "next_escrow",
});

record!(EscrowImage {
    id => "id",
    from => "from",
    remaining_micros => "rem",
    held => "held",
});

tagged!(LineageEvent {
    "used" => UsedInMashup { mashup => "mashup", rows_contributed => "rows" },
    "sold" => SoldInMashup { mashup => "mashup", revenue => "revenue" },
    "upd" => Updated { version => "version" },
    "priv" => PrivateRelease { epsilon => "epsilon" },
});

tagged!(License {
    "std" => Standard,
    "excl" => Exclusive { tax_rate => "tax", hold_rounds => "rounds" },
    "own" => OwnershipTransfer,
    "nt" => NonTransferable,
});

record!(ContextualIntegrityPolicy {
    context => "context",
    allowed_roles => "roles",
    forbidden_purposes => "forbidden",
});

// ---------------------------------------------------------------------
// Shard-private market state.
// ---------------------------------------------------------------------

record!(MarketShardState {
    clock => "clock",
    round => "round",
    next_offer => "next_offer",
    next_tx => "next_tx",
    next_delivery => "next_delivery",
    offers => "offers",
    transactions => "txs",
    deliveries => "deliveries",
    purchases => "purchases",
    participants => "participants",
    last_missing => "missing",
    last_negotiations => "negotiations",
    rng => "rng",
    audit_events => "audit",
    disputes => "disputes",
});

record!(Offer {
    id => "id",
    wtp => "wtp",
    purpose => "purpose",
    submitted_at => "submitted_at",
    state => "state",
});

tagged!(OfferState {
    "pending" => Pending,
    "fulfilled" => Fulfilled { tx => "tx" },
    "await" => AwaitingReport { delivery => "delivery" },
    "expired" => Expired,
});

record!(WtpFunction {
    buyer => "buyer",
    attributes => "attributes",
    keywords => "keywords",
    task => "task",
    curve => "curve",
    constraints => "constraints",
    owned_data => "owned",
    min_rows => "min_rows",
});

tagged!(TaskKind {
    "cls" => Classification { label => "label" },
    "reg" => Regression { target => "target" },
    "agg" => AggregateCompleteness { group_by => "group_by", expected_groups => "expected" },
    "cov" => AttributeCoverage,
});

/// Two tuple variants, which the `tagged!` table has no syntax for.
impl Wire for PriceCurve {
    fn enc(&self) -> Json {
        let tag = |k: &str| ("k", Json::str(k));
        match self {
            PriceCurve::Step(steps) => Json::obj([tag("step"), ("steps", steps.enc())]),
            PriceCurve::Linear {
                min_satisfaction,
                max_price,
            } => Json::obj([
                tag("lin"),
                ("min", min_satisfaction.enc()),
                ("max", max_price.enc()),
            ]),
            PriceCurve::Constant(p) => Json::obj([tag("const"), ("p", p.enc())]),
        }
    }

    fn dec(j: &Json) -> Result<Self, WireError> {
        let mut fields = Fields::of(j)?;
        let tag: String = fields.next("k")?;
        let out = match tag.as_str() {
            "step" => PriceCurve::Step(fields.next("steps")?),
            "lin" => PriceCurve::Linear {
                min_satisfaction: fields.next("min")?,
                max_price: fields.next("max")?,
            },
            "const" => PriceCurve::Constant(fields.next("p")?),
            _ => return Err(WireError::new("unknown curve tag")),
        };
        fields.end()?;
        Ok(out)
    }
}

record!(IntrinsicConstraints {
    max_age => "max_age",
    expires_at => "expires_at",
    authors => "authors",
    require_provenance => "require_provenance",
    max_missing_ratio => "max_missing",
});

record!(TransactionRecord {
    id => "id",
    offer_id => "offer_id",
    buyer => "buyer",
    price => "price",
    fee => "fee",
    satisfaction => "satisfaction",
    datasets => "datasets",
    shares => "shares",
    round => "round",
});

record!(DatasetShare as (dataset, amount));

record!(Delivery {
    id => "id",
    offer_id => "offer_id",
    buyer => "buyer",
    relation => "relation",
    satisfaction => "satisfaction",
    escrow => "escrow",
    datasets => "datasets",
    settlement => "settlement",
});

record!(Settlement {
    paid => "paid",
    penalty => "penalty",
    audited => "audited",
});

record!(Purchase {
    buyer => "buyer",
    datasets => "datasets",
});

record!(Participant {
    name => "name",
    role => "role",
    reputation => "reputation",
    excluded_until => "excluded_until",
});

record!(NegotiationRequest {
    offer_id => "offer_id",
    buyer => "buyer",
    missing => "missing",
    candidate_sellers => "sellers",
});

tagged!(AuditEvent {
    "reg" => DatasetRegistered { dataset => "dataset", seller => "seller" },
    "wtp" => WtpSubmitted { offer => "offer", buyer => "buyer" },
    "mash" => MashupBuilt { offer => "offer", datasets => "datasets" },
    "settle" => TransactionSettled { tx => "tx", buyer => "buyer", price => "price" },
    "priv" => PrivacyRelease { dataset => "dataset", epsilon => "epsilon" },
    "expost" => ExPostAudit { delivery => "delivery", underreported => "under" },
    "disp" => Dispute { dispute => "dispute", note => "note" },
});

record!(Dispute {
    id => "id",
    complainant => "complainant",
    tx => "tx",
    reason => "reason",
    state => "state",
});

tagged!(DisputeState {
    "open" => Open,
    "res" => Resolved { refund => "refund" },
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    fn round_trips<T: Wire + PartialEq + Debug>(values: &[T]) {
        for v in values {
            assert_eq!(&T::dec(&v.enc()).unwrap(), v);
        }
    }

    fn refuses<T: Wire + Debug>(forms: &[Json]) {
        for form in forms {
            assert!(T::dec(form).is_err(), "accepted {form:?}");
        }
    }

    /// Spellings `str::parse` would take but `to_string` never writes,
    /// and things that are not integers at all.
    const NOT_CANONICAL: [&str; 14] = [
        "+5", "007", "00", "-0", "-", "", " 5", "5 ", "0x10", "1e3", "1.0", "٣", "5_000", "--5",
    ];

    #[test]
    fn integers_round_trip_at_their_bounds_and_refuse_every_other_spelling() {
        round_trips(&[0u64, 1, 10, u64::MAX]);
        round_trips(&[i64::MIN, -10, -1, 0, 1, i64::MAX]);
        round_trips(&[0u32, 9, u32::MAX]);
        round_trips(&[0usize, 100, usize::MAX]);
        let bad: Vec<Json> = NOT_CANONICAL
            .iter()
            .map(|s| Json::str(*s))
            .chain([Json::Num(5.0), Json::Null, Json::Arr(vec![Json::str("5")])])
            .collect();
        refuses::<u64>(&bad);
        refuses::<i64>(&bad);
        refuses::<u32>(&bad);
        refuses::<usize>(&bad);
        // Canonical, but out of the type's range.
        refuses::<u64>(&[Json::str("18446744073709551616"), Json::str("-1")]);
        refuses::<i64>(&[
            Json::str("9223372036854775808"),
            Json::str("-9223372036854775809"),
        ]);
        refuses::<u32>(&[Json::str("4294967296")]);
    }

    #[test]
    fn floats_round_trip_bit_for_bit_and_refuse_every_other_spelling() {
        for bits in [
            0u64,
            (-0.0f64).to_bits(),
            1.5f64.to_bits(),
            f64::MIN_POSITIVE.to_bits(),
            f64::MAX.to_bits(),
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0x7ff8_0000_dead_beef, // a NaN with a payload
            u64::MAX,
        ] {
            let encoded = f64::from_bits(bits).enc();
            assert_eq!(encoded, Json::str(format!("{bits:016x}")));
            assert_eq!(f64::dec(&encoded).unwrap().to_bits(), bits);
        }
        refuses::<f64>(&[
            Json::str("+00000000000003f"),
            Json::str("-00000000000003f"),
            Json::str("3FF0000000000000"),
            Json::str("3ff000000000000"),
            Json::str("03ff0000000000000"),
            Json::str("3ff00000000000 0"),
            Json::str("3ff0000000000g00"),
            Json::str(""),
            Json::Num(1.5),
            Json::Null,
        ]);
    }

    #[test]
    fn records_take_exactly_their_fields_in_order() {
        let p = Participant {
            name: "a".into(),
            role: "buyer".into(),
            reputation: 0.5,
            excluded_until: 3,
        };
        let Json::Obj(pairs) = p.enc() else {
            panic!("a record encodes as an object")
        };
        let back = Participant::dec(&Json::Obj(pairs.clone())).unwrap();
        assert_eq!(
            (back.name, back.role, back.reputation, back.excluded_until),
            (p.name, p.role, p.reputation, p.excluded_until)
        );
        let mut missing = pairs.clone();
        missing.pop();
        let mut extra = pairs.clone();
        extra.push(("note".into(), Json::Null));
        let mut swapped = pairs.clone();
        swapped.swap(0, 1);
        let mut doubled = pairs.clone();
        doubled.insert(0, pairs.first().unwrap().clone());
        refuses::<Participant>(&[
            Json::Obj(missing),
            Json::Obj(extra),
            Json::Obj(swapped),
            Json::Obj(doubled),
            Json::Arr(Vec::new()),
        ]);
    }

    #[test]
    fn tagged_variants_and_tuples_are_as_strict() {
        round_trips(&[
            License::Standard,
            License::Exclusive {
                tax_rate: 0.35,
                hold_rounds: 2,
            },
            License::NonTransferable,
        ]);
        let parse = |text: &str| Json::parse(text).unwrap();
        refuses::<License>(&[
            parse(r#"{"k":"nope"}"#),
            parse(r#"{"k":"std","tax":"3fd6666666666666"}"#),
            parse(r#"{"k":"excl","tax":"3fd6666666666666"}"#),
            parse(r#"{"tax":"3fd6666666666666","k":"excl","rounds":"2"}"#),
            parse(r#"{}"#),
        ]);
        round_trips(&[Value::Null, Value::Int(-3), Value::str("x")]);
        refuses::<Value>(&[
            parse(r#"["N","extra"]"#),
            parse(r#"["I"]"#),
            parse(r#"["I","1","2"]"#),
            parse(r#"["S",1]"#),
            parse(r#"[]"#),
        ]);
        refuses::<(u64, u64)>(&[parse(r#"["1"]"#), parse(r#"["1","2","3"]"#)]);
        refuses::<[u64; 4]>(&[parse(r#"["1","2","3"]"#)]);
    }
}
