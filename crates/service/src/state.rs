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
//! encoding emits, so an image has one byte form and [`digest`] —
//! FNV-1a over those bytes — identifies the state:
//! `digest(image) == digest(restore(decode(encode(image))))`.
//!
//! One `Wire` trait carries both directions, and each image type has
//! one `enc` and one `dec`. `enc` writes compact text token by token
//! into any [`wire::Sink`](crate::wire::Sink) — a snapshot frame, a
//! request body, the digest's hasher — and `dec` reads it back token by
//! token with the wire parser, under [`Json::parse`]'s grammar and
//! depth limit. No `Json` tree is built on either side: the node
//! checkpoints, digests and recovers on the text, and the internal RPC
//! messages (`codec.rs`) are tables over the same trait. Each type
//! names its fields once, in a `record!` or `tagged!` table whose
//! generated `enc` destructures the value **without `..`** — a field
//! added to an image struct does not compile until it is listed. The
//! exact-bits scalar forms live in the scalar impls and nowhere else.
//!
//! [`encode`] and [`decode`] are the one place a tree appears: they
//! give the benchmark and the tests the image as [`StateImage`] trees,
//! by parsing the text and by reading a tree's dump.
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
use crate::wire::{Json, Parser, Sink, Text, WireError};

/// The tree form of a materialized snapshot: one JSON tree for the
/// shared substrate, one per shard, and one for the router-level
/// allocators — the sections `snapshot.rs` writes as CRC frames, so a
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

    /// The state digest of the trees: FNV-1a over their wire text in
    /// file order, hashed as it is dumped. Equal to [`digest`] of the
    /// image they encode, so an image's digest is also
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

    /// The image as one document: the form of a `/internal/restore`
    /// body's `state`.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("substrate", self.substrate),
            ("shards", Json::Arr(self.shards)),
            ("router", self.router),
        ])
    }
}

/// The router section: the router-level allocators.
pub(crate) struct Allocators {
    next_offer: u64,
    rng: [u64; 4],
    rounds: u64,
}

/// One section of an image, in the order a snapshot file holds them.
pub(crate) enum Section<'a> {
    Substrate(&'a SubstrateImage),
    Shard(&'a MarketShardState),
    Router(Allocators),
}

impl Section<'_> {
    /// Encode the section into `e`.
    pub(crate) fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        match self {
            Section::Substrate(substrate) => substrate.enc(e),
            Section::Shard(shard) => shard.enc(e),
            Section::Router(allocators) => allocators.enc(e),
        }
    }
}

/// `image`'s sections in file order: substrate, every shard, router.
pub(crate) fn sections(image: &RouterImage) -> impl Iterator<Item = Section<'_>> {
    let RouterImage {
        substrate,
        shards,
        next_offer,
        round_rng,
        rounds,
    } = image;
    let router = Allocators {
        next_offer: *next_offer,
        rng: *round_rng,
        rounds: *rounds,
    };
    std::iter::once(Section::Substrate(substrate))
        .chain(shards.iter().map(Section::Shard))
        .chain([Section::Router(router)])
}

/// The state digest: FNV-1a over the image's wire text, section by
/// section in file order, hashed as it is written — no tree and no
/// text is held.
pub fn digest(image: &RouterImage) -> u64 {
    let mut hash = Fnv1a::default();
    for section in sections(image) {
        section.enc(&mut Text::new(&mut hash));
    }
    hash.finish()
}

/// Encode a router state image into its tree form: each section's
/// text, parsed.
pub fn encode(image: &RouterImage) -> StateImage {
    let mut trees: Vec<Json> = sections(image)
        .map(|section| tree(|e| section.enc(e)))
        .collect();
    let router = trees.pop().unwrap_or(Json::Null);
    let mut trees = trees.into_iter();
    StateImage {
        substrate: trees.next().unwrap_or(Json::Null),
        shards: trees.collect(),
        router,
    }
}

/// Decode a snapshot's trees back into a router state image: each
/// section's dump, read as text. Any structural defect — missing
/// field, bad integer, unknown tag — is a [`WireError`]; the caller
/// treats the snapshot as unusable and falls back.
pub fn decode(state: &StateImage) -> Result<RouterImage, WireError> {
    let texts = state
        .sections()
        .map(Json::try_dump)
        .collect::<Result<Vec<_>, _>>()?;
    let sections: Vec<&[u8]> = texts.iter().map(String::as_bytes).collect();
    decode_text(&sections)
}

/// Decode a snapshot's sections — substrate, every shard, router — from
/// their text, as the file holds them: no tree is built.
pub(crate) fn decode_text(sections: &[&[u8]]) -> Result<RouterImage, WireError> {
    let missing = || WireError::new("a state image needs a substrate and a router section");
    let (substrate, rest) = sections.split_first().ok_or_else(missing)?;
    let (router, shards) = rest.split_last().ok_or_else(missing)?;
    Ok(image(
        from_text(substrate)?,
        shards
            .iter()
            .map(|s| from_text(s))
            .collect::<Result<_, _>>()?,
        from_text(router)?,
    ))
}

fn image(
    substrate: SubstrateImage,
    shards: Vec<MarketShardState>,
    router: Allocators,
) -> RouterImage {
    let Allocators {
        next_offer,
        rng,
        rounds,
    } = router;
    RouterImage {
        substrate,
        shards,
        next_offer,
        round_rng: rng,
        rounds,
    }
}

/// The tree of the text `write` writes (the tree adapters' one way to
/// make a tree).
pub(crate) fn tree(write: impl FnOnce(&mut Text<'_, String>)) -> Json {
    let mut text = String::new();
    write(&mut Text::new(&mut text));
    // Images and exports hold no numbers, so their text parses unless
    // it nests past the parser's depth limit; then the tree is `null`,
    // which no decoder takes.
    Json::parse(&text).unwrap_or(Json::Null)
}

/// `value`'s canonical compact text.
pub(crate) fn to_text<T: Wire>(value: &T) -> String {
    let mut out = String::new();
    value.enc(&mut Text::new(&mut out));
    out
}

/// Decode one document from its text: `T`'s canonical form, with
/// whitespace and escapes wherever [`Json::parse`] allows them, and
/// nothing else.
pub(crate) fn from_text<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut parser = Parser::over(bytes)?;
    let value = T::dec(&mut parser)?;
    parser.finish()?;
    Ok(value)
}

/// A value with one canonical wire-JSON form: `dec` accepts exactly
/// what `enc` emits and nothing else.
pub(crate) trait Wire: Sized {
    /// The canonical encoding.
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>);
    /// Decode, refusing anything `enc` would not have produced.
    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError>;
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
            fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
                let n = *self as i128;
                e.decimal(n.unsigned_abs() as u64, n < 0);
            }

            fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
                Some(r.str()?)
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

/// The 16 lower-case hex digits of `s` as a word: no sign, no upper
/// case, no other width.
fn hex_word(s: &str) -> Result<u64, WireError> {
    Some(s)
        .filter(|s| s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| WireError::new("expected 16 lower-case hex digits"))
}

/// A 64-bit word as 16 lower-case hex digits (the digest in a snapshot
/// header; floats' bit patterns are the same form).
pub(crate) struct Hex(pub(crate) u64);

impl Wire for Hex {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.hex(self.0);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        hex_word(&r.str()?).map(Hex)
    }
}

/// Floats travel as the hex bit pattern: exact for every value including
/// NaN payloads and infinities, which wire JSON cannot represent.
impl Wire for f64 {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        Hex(self.to_bits()).enc(e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        Hex::dec(r).map(|Hex(bits)| f64::from_bits(bits))
    }
}

impl Wire for bool {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.bool(*self);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.bool()
    }
}

impl Wire for String {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.str(self);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.str().map(|s| s.into_owned())
    }
}

impl Wire for DatasetId {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        self.0.enc(e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        u64::dec(r).map(DatasetId)
    }
}

// ---------------------------------------------------------------------
// Containers.
// ---------------------------------------------------------------------

/// A slice as an array of its elements' encodings.
pub(crate) fn enc_all<T: Wire, S: Sink>(items: &[T], e: &mut Text<'_, S>) {
    e.open_arr();
    for item in items {
        e.item();
        item.enc(e);
    }
    e.close_arr();
}

impl<T: Wire> Wire for Vec<T> {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        enc_all(self, e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_arr()?;
        let mut items = Vec::new();
        while r.more()? {
            items.push(T::dec(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        match self {
            Some(value) => value.enc(e),
            None => e.null(),
        }
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        if r.null()? {
            Ok(None)
        } else {
            T::dec(r).map(Some)
        }
    }
}

/// A shared value travels as the value itself.
impl<T: Wire> Wire for Arc<T> {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        T::enc(self, e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        T::dec(r).map(Arc::new)
    }
}

/// xoshiro256++ state words.
impl Wire for [u64; 4] {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        enc_all(self, e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        <Vec<u64>>::dec(r)?
            .try_into()
            .map_err(|_| WireError::new("rng state must be 4 words"))
    }
}

/// Tuples are arrays of their elements.
macro_rules! tuple_wire {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
                e.open_arr();
                $(
                    e.item();
                    self.$i.enc(e);
                )+
                e.close_arr();
            }

            fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
                r.open_arr()?;
                let out = ($({
                    r.item()?;
                    $t::dec(r)?
                },)+);
                r.close_arr()?;
                Ok(out)
            }
        }
    };
}
tuple_wire!(A.0, B.1);
tuple_wire!(A.0, B.1, C.2);

/// Decode the next member of a record, which must be `key`.
pub(crate) fn member<T: Wire>(r: &mut Parser<'_>, key: &str) -> Result<T, WireError> {
    r.key(key)?;
    T::dec(r)
}

/// The leading `"v"` member of a versioned record: anything but
/// `supported` is refused.
pub(crate) fn version(r: &mut Parser<'_>, supported: u64) -> Result<(), WireError> {
    match member::<u64>(r, "v")? {
        v if v == supported => Ok(()),
        v => Err(WireError::new(format!(
            "wire version {v} is not the supported {supported}"
        ))),
    }
}

/// `record!(Type { field => "key", … })` — an object with exactly these
/// fields in this order; `#[version = V]` puts a checked `"v"` first.
/// `record!(Type as (field, …))` — the same fields as a bare array.
/// Either way `enc` destructures without `..`.
macro_rules! record {
    ($(#[version = $version:expr])? $ty:path { $($field:ident => $key:literal),+ $(,)? }) => {
        impl $crate::state::Wire for $ty {
            fn enc<S: $crate::wire::Sink>(&self, e: &mut $crate::wire::Text<'_, S>) {
                let Self { $($field),+ } = self;
                e.open_obj();
                $(
                    e.key("v");
                    $crate::state::Wire::enc(&$version, e);
                )?
                $(
                    e.key($key);
                    $crate::state::Wire::enc($field, e);
                )+
                e.close_obj();
            }

            fn dec(r: &mut $crate::wire::Parser<'_>) -> Result<Self, $crate::wire::WireError> {
                r.open_obj()?;
                $($crate::state::version(r, $version)?;)?
                let out = Self { $($field: $crate::state::member(r, $key)?),+ };
                r.close_obj()?;
                Ok(out)
            }
        }
    };
    ($ty:path as ($($field:ident),+)) => {
        impl $crate::state::Wire for $ty {
            fn enc<S: $crate::wire::Sink>(&self, e: &mut $crate::wire::Text<'_, S>) {
                let Self { $($field),+ } = self;
                e.open_arr();
                $(
                    e.item();
                    $crate::state::Wire::enc($field, e);
                )+
                e.close_arr();
            }

            fn dec(r: &mut $crate::wire::Parser<'_>) -> Result<Self, $crate::wire::WireError> {
                let ($($field),+) = $crate::state::Wire::dec(r)?;
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
            fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
                match self {
                    $(Self::$variant $({ $($field),+ })? => {
                        e.open_obj();
                        e.key("k");
                        e.str($tag);
                        $($(
                            e.key($key);
                            $field.enc(e);
                        )+)?
                    })+
                }
                e.close_obj();
            }

            fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
                r.open_obj()?;
                let tag: String = member(r, "k")?;
                let out = match tag.as_str() {
                    $($tag => Self::$variant $({ $($field: member(r, $key)?),+ })?,)+
                    _ => return Err(WireError::new(concat!("unknown ", stringify!($ty), " tag"))),
                };
                r.close_obj()?;
                Ok(out)
            }
        }
    };
}

// ---------------------------------------------------------------------
// Relations and cell values: schema-typed, so written by hand.
// ---------------------------------------------------------------------

impl Wire for DataType {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.str(match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Timestamp => "ts",
            DataType::Any => "any",
        });
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        match r.str()?.as_ref() {
            "bool" => Ok(DataType::Bool),
            "int" => Ok(DataType::Int),
            "float" => Ok(DataType::Float),
            "str" => Ok(DataType::Str),
            "ts" => Ok(DataType::Timestamp),
            "any" => Ok(DataType::Any),
            _ => Err(WireError::new("unknown dtype tag")),
        }
    }
}

/// Cell values as compact tagged tuples: `["N"]`, `["B",bool]`,
/// `["I","42"]`, `["F","<bits>"]`, `["S","text"]`, `["T","-3"]`,
/// `["M",[["<src>",value],...]]`.
impl Wire for Value {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        let tag = match self {
            Value::Null => "N",
            Value::Bool(_) => "B",
            Value::Int(_) => "I",
            Value::Float(_) => "F",
            Value::Str(_) => "S",
            Value::Timestamp(_) => "T",
            Value::Multi(_) => "M",
        };
        e.open_arr();
        e.item();
        e.str(tag);
        match self {
            Value::Null => {}
            Value::Bool(b) => {
                e.item();
                b.enc(e);
            }
            Value::Int(i) | Value::Timestamp(i) => {
                e.item();
                i.enc(e);
            }
            Value::Float(f) => {
                e.item();
                f.enc(e);
            }
            Value::Str(s) => {
                e.item();
                e.str(s);
            }
            Value::Multi(parts) => {
                e.item();
                parts.enc(e);
            }
        }
        e.close_arr();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_arr()?;
        r.item()?;
        let tag = match r.str()?.as_bytes() {
            [tag @ (b'N' | b'B' | b'I' | b'F' | b'S' | b'T' | b'M')] => *tag,
            _ => return Err(WireError::new("unknown value tag")),
        };
        if tag != b'N' {
            r.item()?;
        }
        let value = match tag {
            b'B' => Value::Bool(bool::dec(r)?),
            b'I' => Value::Int(i64::dec(r)?),
            b'F' => Value::Float(f64::dec(r)?),
            b'S' => Value::Str(Arc::from(r.str()?.as_ref())),
            b'T' => Value::Timestamp(i64::dec(r)?),
            b'M' => Value::Multi(Wire::dec(r)?),
            _ => Value::Null,
        };
        r.close_arr()?;
        Ok(value)
    }
}

record!(Sourced as (source, value));
record!(ProvAtom as (dataset, row));

/// `[name, dtype]`.
impl Wire for Field {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_arr();
        e.item();
        e.str(self.name());
        e.item();
        self.dtype().enc(e);
        e.close_arr();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        let (name, dtype): (String, DataType) = Wire::dec(r)?;
        Ok(Field::new(name, dtype))
    }
}

/// `[[value, …], [atom, …]]`: the cells, then the recorded provenance.
impl Wire for Row {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_arr();
        e.item();
        enc_all(self.values(), e);
        e.item();
        enc_all(self.provenance().atoms(), e);
        e.close_arr();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        let (values, atoms): (Vec<Value>, Vec<ProvAtom>) = Wire::dec(r)?;
        Ok(Row::new(values, Provenance::from_atoms(atoms)))
    }
}

impl Wire for Relation {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_obj();
        e.key("name");
        e.str(self.name());
        e.key("source");
        self.source().enc(e);
        e.key("schema");
        enc_all(self.schema().fields(), e);
        e.key("rows");
        enc_all(self.rows(), e);
        e.close_obj();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_obj()?;
        let name: String = member(r, "name")?;
        let source: Option<DatasetId> = member(r, "source")?;
        let schema: Vec<Field> = member(r, "schema")?;
        let rows: Vec<Row> = member(r, "rows")?;
        r.close_obj()?;
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
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_obj();
        e.key("k");
        match self {
            PriceCurve::Step(steps) => {
                e.str("step");
                e.key("steps");
                steps.enc(e);
            }
            PriceCurve::Linear {
                min_satisfaction,
                max_price,
            } => {
                e.str("lin");
                e.key("min");
                min_satisfaction.enc(e);
                e.key("max");
                max_price.enc(e);
            }
            PriceCurve::Constant(p) => {
                e.str("const");
                e.key("p");
                p.enc(e);
            }
        }
        e.close_obj();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_obj()?;
        let tag: String = member(r, "k")?;
        let out = match tag.as_str() {
            "step" => PriceCurve::Step(member(r, "steps")?),
            "lin" => PriceCurve::Linear {
                min_satisfaction: member(r, "min")?,
                max_price: member(r, "max")?,
            },
            "const" => PriceCurve::Constant(member(r, "p")?),
            _ => return Err(WireError::new("unknown curve tag")),
        };
        r.close_obj()?;
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

// ---------------------------------------------------------------------
// Router-level allocators.
// ---------------------------------------------------------------------

record!(Allocators {
    next_offer => "next_offer",
    rng => "rng",
    rounds => "rounds",
});

/// The whole image as one document, `{substrate, shards, router}`: the
/// sections of a snapshot file, in its order, and the `state` of a
/// `/internal/restore` body ([`StateImage::into_json`]'s form).
impl Wire for RouterImage {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        let RouterImage {
            substrate,
            shards,
            next_offer,
            round_rng,
            rounds,
        } = self;
        e.open_obj();
        e.key("substrate");
        substrate.enc(e);
        e.key("shards");
        enc_all(shards, e);
        e.key("router");
        Allocators {
            next_offer: *next_offer,
            rng: *round_rng,
            rounds: *rounds,
        }
        .enc(e);
        e.close_obj();
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_obj()?;
        let substrate = member(r, "substrate")?;
        let shards = member(r, "shards")?;
        let router = member(r, "router")?;
        r.close_obj()?;
        Ok(image(substrate, shards, router))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// Each value writes exactly its pinned text (the bytes every
    /// snapshot and digest so far was made of), and reads back from it.
    fn pinned<T: Wire + PartialEq + Debug>(cases: &[(T, &str)]) {
        for (value, pin) in cases {
            assert_eq!(to_text(value), *pin);
            assert_eq!(&from_text::<T>(pin.as_bytes()).unwrap(), value);
        }
    }

    fn round_trips<T: Wire + PartialEq + Debug>(values: &[T]) {
        for v in values {
            assert_eq!(&from_text::<T>(to_text(v).as_bytes()).unwrap(), v);
        }
    }

    /// The reader refuses each form's text.
    fn refuses<T: Wire + Debug>(forms: &[Json]) {
        for form in forms {
            let dumped = form.dump();
            assert!(
                from_text::<T>(dumped.as_bytes()).is_err(),
                "accepted {dumped}"
            );
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
        pinned(&[(u64::MAX, r#""18446744073709551615""#)]);
        pinned(&[(i64::MIN, r#""-9223372036854775808""#)]);
        pinned(&[(u32::MAX, r#""4294967295""#)]);
        pinned(&[(0usize, r#""0""#)]);
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
            let dumped = to_text(&f64::from_bits(bits));
            assert_eq!(dumped, format!("\"{bits:016x}\""));
            assert_eq!(from_text::<f64>(dumped.as_bytes()).unwrap().to_bits(), bits);
        }
        assert_eq!(to_text(&f64::NEG_INFINITY), r#""fff0000000000000""#);
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
        let pin =
            r#"{"name":"a","role":"buyer","reputation":"3fe0000000000000","excluded_until":"3"}"#;
        assert_eq!(to_text(&p), pin);
        let back = from_text::<Participant>(pin.as_bytes()).unwrap();
        assert_eq!(
            (back.name, back.role, back.reputation, back.excluded_until),
            (p.name, p.role, p.reputation, p.excluded_until)
        );
        let Ok(Json::Obj(pairs)) = Json::parse(pin) else {
            panic!("a record encodes as an object")
        };
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
        pinned(&[
            (License::Standard, r#"{"k":"std"}"#),
            (
                License::Exclusive {
                    tax_rate: 0.35,
                    hold_rounds: 2,
                },
                r#"{"k":"excl","tax":"3fd6666666666666","rounds":"2"}"#,
            ),
            (License::NonTransferable, r#"{"k":"nt"}"#),
        ]);
        let parse = |text: &str| Json::parse(text).unwrap();
        refuses::<License>(&[
            parse(r#"{"k":"nope"}"#),
            parse(r#"{"k":"std","tax":"3fd6666666666666"}"#),
            parse(r#"{"k":"excl","tax":"3fd6666666666666"}"#),
            parse(r#"{"tax":"3fd6666666666666","k":"excl","rounds":"2"}"#),
            parse(r#"{}"#),
        ]);
        pinned(&[
            (Value::Null, r#"["N"]"#),
            (Value::Int(-3), r#"["I","-3"]"#),
            (Value::str("x"), r#"["S","x"]"#),
            (Value::Float(1.5), r#"["F","3ff8000000000000"]"#),
            (Value::Bool(true), r#"["B",true]"#),
        ]);
        refuses::<Value>(&[
            parse(r#"["N","extra"]"#),
            parse(r#"["I"]"#),
            parse(r#"["I","1","2"]"#),
            parse(r#"["S",1]"#),
            parse(r#"[]"#),
        ]);
        pinned(&[(Some((false, String::from("x"))), r#"[false,"x"]"#)]);
        pinned(&[((None::<u64>, Vec::<i64>::new()), r#"[null,[]]"#)]);
        refuses::<(u64, u64)>(&[parse(r#"["1"]"#), parse(r#"["1","2","3"]"#)]);
        refuses::<[u64; 4]>(&[parse(r#"["1","2","3"]"#)]);
    }

    /// Every one-byte insertion of a structural character and every
    /// one-byte deletion of a document: the text reader accepts the
    /// variant exactly when the parser does and the reader takes the
    /// parsed tree's canonical dump, and decodes it to the same value.
    fn single_edits_agree<T: Wire + PartialEq + Debug>(value: &T, pin: &str) {
        let honest = to_text(value);
        assert_eq!(honest, pin);
        let mut variants = Vec::new();
        for at in 0..=honest.len() {
            for b in b",:[]{}\" n1\\\t" {
                let mut v = honest.clone().into_bytes();
                v.insert(at, *b);
                variants.push(v);
            }
            if at < honest.len() {
                let mut v = honest.clone().into_bytes();
                v.remove(at);
                variants.push(v);
            }
        }
        for variant in variants {
            let canonical =
                Json::parse_bytes(&variant).and_then(|j| from_text::<T>(j.dump().as_bytes()));
            let streamed = from_text::<T>(&variant);
            assert_eq!(
                canonical.ok(),
                streamed.ok(),
                "{}",
                String::from_utf8_lossy(&variant)
            );
        }
    }

    #[test]
    fn the_text_reader_agrees_with_the_tree_path_on_every_single_edit() {
        let multi = Value::Multi(vec![
            Sourced {
                source: DatasetId(1),
                value: Value::str("a\"b"),
            },
            Sourced {
                source: DatasetId(20),
                value: Value::Null,
            },
        ]);
        single_edits_agree(
            &(
                (
                    License::Exclusive {
                        tax_rate: 0.35,
                        hold_rounds: 2,
                    },
                    PriceCurve::Step(vec![(0.8, 100.0)]),
                ),
                (
                    vec![multi, Value::Float(1.5), Value::Bool(true)],
                    Some((false, String::from("x"))),
                ),
            ),
            concat!(
                r#"[[{"k":"excl","tax":"3fd6666666666666","rounds":"2"},"#,
                r#"{"k":"step","steps":[["3fe999999999999a","4059000000000000"]]}],"#,
                r#"[[["M",[["1",["S","a\"b"]],["20",["N"]]]],["F","3ff8000000000000"],["B",true]],"#,
                r#"[false,"x"]]]"#,
            ),
        );
        single_edits_agree(&(None::<u64>, Vec::<i64>::new()), "[null,[]]");
    }
}
