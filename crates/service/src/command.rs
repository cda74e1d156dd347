//! Externally-visible market mutations as serializable [`Command`]s.
//!
//! Every mutation the gateway accepts becomes exactly one `Command`,
//! appended to the write-ahead journal *before* it is applied to the
//! sharded market (event sourcing). Because PR 1 made the round
//! pipeline bit-identical under replay, re-applying a journaled command
//! stream to a freshly-deployed market reproduces the exact ledger
//! balances, offer book and allocations — that determinism is what the
//! crash-recovery tests pin down.
//!
//! A `Command` carries the core's own [`TaskKind`], [`PriceCurve`] and
//! [`License`]. Its wire grammar is stated once, in the `grammar!`
//! tables below: an object led by `"op"` holding the command's members,
//! with `"kind"`-tagged tasks, curves and licences. Each table generates
//! one encoder, which writes compact text token by token through the
//! wire module's `Text`, and one decoder, which reads it straight from
//! the bytes with its `Parser`; neither builds a `Json` tree. The decoder takes
//! members in any order (a tag, too, may come after the members it
//! chooses), skips members it does not know and reads the first of a
//! repeated one. A journal record and an `/internal/apply` body carry
//! the whole command; a write route's request body is its members
//! without `"op"` (`from_route`). [`Command::encode`] and
//! [`Command::decode`] adapt the text to and from the tree form.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::borrow::Cow;

use dmp_core::license::License;
use dmp_mechanism::wtp::{IntrinsicConstraints, PriceCurve, TaskKind, WtpFunction};
use dmp_relation::{DataType, Relation, RelationBuilder, Value};

use crate::state::Wire;
use crate::wire::{Json, Parser, Sink, Text, WireError};

/// One externally-visible market mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Enroll a participant under a role.
    Enroll {
        /// Principal name.
        name: String,
        /// Role ("buyer", "seller", ... — matched by CI policies).
        role: String,
    },
    /// Mint funds into an account.
    Deposit {
        /// Account name.
        account: String,
        /// Amount in credits (micro-credit rounded by the ledger).
        amount: f64,
    },
    /// Submit a buyer WTP offer.
    SubmitOffer(OfferSpec),
    /// Submit a seller ask: share a dataset, optionally with a reserve
    /// price and a license.
    SubmitAsk(AskSpec),
    /// Attach a license to an already-shared dataset.
    GrantLicense {
        /// The owning seller.
        seller: String,
        /// Dataset id (shard-local; the seller's shard is derived from
        /// the seller name, the same routing that registered it).
        dataset: u64,
        /// The license to attach.
        license: License,
    },
    /// Run one or more market rounds across every shard.
    RunRound {
        /// Number of rounds (>= 1).
        rounds: u32,
    },
}

/// Wire form of a WTP offer.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferSpec {
    /// Buyer principal.
    pub buyer: String,
    /// Attributes the buyer needs.
    pub attributes: Vec<String>,
    /// Optional discovery keywords.
    pub keywords: Vec<String>,
    /// The data task.
    pub task: TaskKind,
    /// satisfaction → price curve.
    pub curve: PriceCurve,
    /// Minimum rows for a usable mashup.
    pub min_rows: u64,
    /// Declared purpose (contextual integrity).
    pub purpose: String,
}

/// Wire form of a seller ask.
#[derive(Debug, Clone, PartialEq)]
pub struct AskSpec {
    /// Seller principal.
    pub seller: String,
    /// The dataset, inline.
    pub table: TableSpec,
    /// Reserve price floor (optional).
    pub reserve: Option<f64>,
    /// License to attach at share time (optional; Standard otherwise).
    pub license: Option<License>,
}

/// An inline relation: name, typed columns, rows of scalar cells.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Relation name.
    pub name: String,
    /// `(column, type)` pairs; types are `"int" | "float" | "str" |
    /// "bool" | "timestamp"`.
    pub columns: Vec<(String, ColType)>,
    /// Rows; each cell is decoded against its column type.
    pub rows: Vec<Vec<CellSpec>>,
}

/// Wire-supported column types (the 1NF scalar subset of
/// [`dmp_relation::DataType`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
    /// Unix-epoch timestamps.
    Timestamp,
}

/// A scalar cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// Absent value.
    Null,
    /// Integer cell (int / timestamp columns).
    Int(i64),
    /// Float cell.
    Float(f64),
    /// String cell.
    Str(String),
    /// Bool cell.
    Bool(bool),
}

impl Command {
    /// Upper bound on `RunRound::rounds` in one command: a round batch
    /// executes while holding the node's write path and replays in
    /// full on recovery, so a single command must stay bounded.
    pub const MAX_ROUNDS_PER_COMMAND: u64 = 1024;

    /// The wire form as a tree: the encoder's text, parsed.
    pub fn encode(&self) -> Json {
        // A command nests six deep at most, far inside the parser's
        // depth limit, so its text always parses.
        Json::parse(&text(self)).unwrap_or(Json::Null)
    }

    /// Decode the tree form: its text, read by the decoder. Two fields
    /// have defaults, which the encoder always writes out: `role` is
    /// `"participant"` and `rounds` is 1.
    pub fn decode(json: &Json) -> Result<Command, WireError> {
        read(json.try_dump()?.as_bytes())
    }

    /// A decoded command runs a bounded number of rounds.
    fn bounded(self) -> Result<Command, WireError> {
        match self {
            Command::RunRound { rounds }
                if !(1..=Command::MAX_ROUNDS_PER_COMMAND).contains(&u64::from(rounds)) =>
            {
                Err(WireError::new(format!(
                    "'rounds' must be in 1..={}",
                    Command::MAX_ROUNDS_PER_COMMAND
                )))
            }
            cmd => Ok(cmd),
        }
    }
}

/// A write route's command: `body` (an empty one is `{}`) holds the
/// members of the command `op` names; an `"op"` among them is skipped
/// like any member the command does not have. `/enroll` may also carry
/// an opening `"deposit"`, returned as read: a non-number is NaN, which
/// the deposit bound refuses.
pub(crate) fn from_route(op: &str, body: &[u8]) -> Result<(Command, Option<f64>), WireError> {
    let mut r = Parser::over(if body.is_empty() { b"{}" } else { body })?;
    r.open_obj()
        .map_err(|_| WireError::new("request body must be a JSON object"))?;
    let mut deposit = None;
    let cmd = Command::take_variant(op, &mut r, Vec::new(), &mut |key, r| {
        if op != "enroll" || key != "deposit" || deposit.is_some() {
            return Ok(false);
        }
        deposit = Some(match r.peek() {
            Some(b'-' | b'0'..=b'9') => r.num()?,
            _ => r.skip().map(|()| f64::NAN)?,
        });
        Ok(true)
    })?;
    r.finish()?;
    Ok((cmd, deposit))
}

impl OfferSpec {
    /// A minimal attribute-coverage offer with a constant price.
    pub fn simple(
        buyer: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
        price: f64,
    ) -> Self {
        OfferSpec {
            buyer: buyer.into(),
            attributes: attributes.into_iter().map(Into::into).collect(),
            keywords: Vec::new(),
            task: TaskKind::AttributeCoverage,
            curve: PriceCurve::Constant(price),
            min_rows: 1,
            purpose: "analytics".to_string(),
        }
    }

    /// Materialize into a core [`WtpFunction`].
    pub fn to_wtp(&self) -> WtpFunction {
        WtpFunction {
            buyer: self.buyer.clone(),
            attributes: self.attributes.clone(),
            keywords: self.keywords.clone(),
            task: self.task.clone(),
            curve: self.curve.clone(),
            constraints: IntrinsicConstraints::default(),
            owned_data: None,
            min_rows: self.min_rows as usize,
        }
    }
}

impl ColType {
    fn as_str(self) -> &'static str {
        match self {
            ColType::Int => "int",
            ColType::Float => "float",
            ColType::Str => "str",
            ColType::Bool => "bool",
            ColType::Timestamp => "timestamp",
        }
    }

    fn from_str(s: &str) -> Result<ColType, WireError> {
        match s {
            "int" => Ok(ColType::Int),
            "float" => Ok(ColType::Float),
            "str" => Ok(ColType::Str),
            "bool" => Ok(ColType::Bool),
            "timestamp" => Ok(ColType::Timestamp),
            other => Err(WireError::new(format!("unknown column type '{other}'"))),
        }
    }

    fn to_data_type(self) -> DataType {
        match self {
            ColType::Int => DataType::Int,
            ColType::Float => DataType::Float,
            ColType::Str => DataType::Str,
            ColType::Bool => DataType::Bool,
            ColType::Timestamp => DataType::Timestamp,
        }
    }
}

impl CellSpec {
    /// Type a decoded cell by its column: a number is an integer cell in
    /// an int or timestamp column, and must be one.
    fn typed(&mut self, col: ColType) -> Result<(), WireError> {
        match (&*self, col) {
            (CellSpec::Null, _)
            | (CellSpec::Int(_), ColType::Int | ColType::Timestamp)
            | (CellSpec::Float(_), ColType::Float)
            | (CellSpec::Str(_), ColType::Str)
            | (CellSpec::Bool(_), ColType::Bool) => Ok(()),
            (CellSpec::Float(n), ColType::Int | ColType::Timestamp) => {
                if n.fract() != 0.0 || n.abs() > 2f64.powi(53) {
                    return Err(WireError::new("expected integer cell"));
                }
                *self = CellSpec::Int(*n as i64);
                Ok(())
            }
            _ => Err(WireError::new(format!(
                "cell does not match column type '{}'",
                col.as_str()
            ))),
        }
    }

    fn to_value(&self, col: ColType) -> Value {
        match (self, col) {
            (CellSpec::Null, _) => Value::Null,
            (CellSpec::Int(i), ColType::Timestamp) => Value::Timestamp(*i),
            (CellSpec::Int(i), _) => Value::Int(*i),
            (CellSpec::Float(f), _) => Value::Float(*f),
            (CellSpec::Str(s), _) => Value::str(s),
            (CellSpec::Bool(b), _) => Value::Bool(*b),
        }
    }
}

impl TableSpec {
    /// Type every row by the columns: one cell per column, each of its
    /// column's type.
    fn typed(mut self) -> Result<TableSpec, WireError> {
        for row in &mut self.rows {
            if row.len() != self.columns.len() {
                return Err(WireError::new(format!(
                    "row has {} cells, schema has {} columns",
                    row.len(),
                    self.columns.len()
                )));
            }
            for (cell, (_, ty)) in row.iter_mut().zip(&self.columns) {
                cell.typed(*ty)?;
            }
        }
        Ok(self)
    }

    /// Materialize into a core [`Relation`].
    pub fn to_relation(&self) -> Result<Relation, WireError> {
        let mut b = RelationBuilder::new(self.name.clone());
        for (name, ty) in &self.columns {
            b = b.column(name.clone(), ty.to_data_type());
        }
        for row in &self.rows {
            b = b.row(
                row.iter()
                    .zip(&self.columns)
                    .map(|(cell, (_, ty))| cell.to_value(*ty))
                    .collect(),
            );
        }
        b.build()
            .map_err(|e| WireError::new(format!("invalid table: {e:?}")))
    }
}

// ---------------------------------------------------------------------
// The grammar.
// ---------------------------------------------------------------------

grammar!(Command by "op" as "op" {
    "enroll" => Enroll { name, role } [
        name => "name",
        role => "role" or "participant".to_string(),
    ],
    "deposit" => Deposit { account, amount } [account => "account", amount => "amount"],
    "offer" => SubmitOffer(OfferSpec {
        buyer,
        attributes,
        keywords,
        task,
        curve,
        min_rows,
        purpose,
    }) [
        buyer => "buyer",
        attributes => "attributes",
        keywords => "keywords" or Vec::new(),
        task => "task" or TaskKind::AttributeCoverage,
        curve => "curve",
        min_rows => "min_rows" or 1,
        purpose => "purpose" or "analytics".to_string(),
    ],
    "ask" => SubmitAsk(AskSpec { seller, table, reserve, license }) [
        seller => "seller",
        table => "table",
        reserve => "reserve",
        license => "license",
    ],
    "grant_license" => GrantLicense { seller, dataset, license } [
        seller => "seller",
        dataset => "dataset",
        license => "license",
    ],
    "run_round" => RunRound { rounds } [rounds => "rounds" or 1],
} check Command::bounded);

grammar!(TaskKind by "kind" as "task kind" {
    "attribute_coverage" => AttributeCoverage {} [],
    "classification" => Classification { label } [label => "label"],
    "regression" => Regression { target } [target => "target"],
    "aggregate_completeness" => AggregateCompleteness { group_by, expected_groups } [
        group_by => "group_by",
        expected_groups => "expected_groups",
    ],
});

grammar!(PriceCurve by "kind" as "curve kind" {
    "constant" => Constant(price) [price => "price"],
    "linear" => Linear { min_satisfaction, max_price } [
        min_satisfaction => "min_satisfaction",
        max_price => "max_price",
    ],
    "step" => Step(steps) [steps => "steps"],
});

grammar!(License by "kind" as "license kind" {
    "standard" => Standard {} [],
    "exclusive" => Exclusive { tax_rate, hold_rounds } [
        tax_rate => "tax_rate",
        hold_rounds => "hold_rounds",
    ],
    "ownership_transfer" => OwnershipTransfer {} [],
    "non_transferable" => NonTransferable {} [],
});

grammar!(TableSpec {
    name => "name",
    columns => "columns",
    rows => "rows",
} check TableSpec::typed);

/// A command inside an internal message keeps its own grammar.
impl Wire for Command {
    fn enc<S: Sink>(&self, e: &mut Text<'_, S>) {
        self.put(e);
    }

    fn dec(r: &mut Parser<'_>) -> Result<Self, WireError> {
        Command::take(r)
    }
}

/// A value of the command grammar: `put` writes it as compact text and
/// `take` reads it back.
pub(crate) trait Grammar: Sized {
    /// Write the value.
    fn put<S: Sink>(&self, e: &mut Text<'_, S>);
    /// Read one value.
    fn take(r: &mut Parser<'_>) -> Result<Self, WireError>;
    /// What an absent member reads as; `None`: the member is required.
    fn absent() -> Option<Self> {
        None
    }
    /// Whether a member holding this value is written.
    fn present(&self) -> bool {
        true
    }
}

/// A `grammar!` enum: an object whose tag member names the variant.
trait Tagged: Sized {
    /// The tag member's key.
    const TAG: &'static str;

    /// Read the members of the variant `tag` names, through the object's
    /// `}`: first `early`, the members that came before the tag, then
    /// the rest. `extra` is offered each member no field takes, and the
    /// member is skipped unless it takes it.
    fn take_variant<'a>(
        tag: &str,
        r: &mut Parser<'a>,
        early: Vec<Early<'a>>,
        extra: &mut Extra<'a, '_>,
    ) -> Result<Self, WireError>;
}

/// A member read before its object's tag: the key, and a bookmark at
/// the value.
pub(crate) type Early<'a> = (Cow<'a, str>, Parser<'a>);

/// A hook for members a variant does not have: `true` if it read one.
type Extra<'a, 'f> = dyn FnMut(&str, &mut Parser<'a>) -> Result<bool, WireError> + 'f;

/// Read a tagged object: the members ahead of the tag are bookmarked
/// until it names the variant.
fn take_tagged<T: Tagged>(r: &mut Parser<'_>) -> Result<T, WireError> {
    r.open_obj()?;
    let mut early = Vec::new();
    while let Some(key) = r.next_key()? {
        if key == T::TAG {
            let tag = r.str()?;
            return T::take_variant(&tag, r, early, &mut |_, _| Ok(false));
        }
        early.push((key, r.clone()));
        r.skip()?;
    }
    Err(missing(T::TAG))
}

/// Write one member, unless its value is absent.
pub(crate) fn put_member<T: Grammar, S: Sink>(e: &mut Text<'_, S>, key: &str, value: &T) {
    if value.present() {
        e.key(key);
        value.put(e);
    }
}

/// A member's value: the one read, else its type's absent value.
pub(crate) fn member<T: Grammar>(read: Option<T>, key: &str) -> Result<T, WireError> {
    read.or_else(T::absent).ok_or_else(|| missing(key))
}

fn missing(key: &str) -> WireError {
    WireError::new(format!("missing field '{key}'"))
}

/// An error inside member `key`, named by it.
pub(crate) fn in_member(key: &str, e: WireError) -> WireError {
    WireError {
        msg: format!("'{key}': {}", e.msg),
        pos: e.pos,
    }
}

/// `value`'s text.
fn text<T: Grammar>(value: &T) -> String {
    let mut out = String::new();
    value.put(&mut Text::new(&mut out));
    out
}

/// Read one document: a `T`, then nothing but whitespace.
pub(crate) fn read<T: Grammar>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Parser::over(bytes)?;
    let value = T::take(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// `grammar!(Type { field => "key", … })` — an object with these
/// members. `grammar!(Enum by "tag" as "what" { "name" => Variant shape
/// [field => "key", …], … })` — an object whose `"tag"` member, written
/// first, names the variant; `shape` binds the variant's fields by name
/// without `..`, so a field added to the type does not compile until
/// it is listed. Members are written in table order and read in any
/// order: the first of a repeated member counts and an unknown one is
/// skipped. An absent member takes its row's `or` default, else its
/// type's [`Grammar::absent`] value, else it is an error. `check f`
/// passes each decoded value through `f`.
macro_rules! grammar {
    (@members $r:ident, $early:ident, $extra:ident,
        [$($field:ident => $key:literal $(or $default:expr)?),*]) => {
        $(let mut $field = None;)*
        for (key, mut at) in $early {
            $crate::command::grammar!(@member key, &mut at, $extra, [$($field => $key),*]);
        }
        while let Some(key) = $r.next_key()? {
            $crate::command::grammar!(@member key, $r, $extra, [$($field => $key),*]);
        }
        $(let $field = $crate::command::member($field $(.or_else(|| Some($default)))?, $key)?;)*
    };
    (@member $name:ident, $p:expr, $extra:ident, [$($field:ident => $key:literal),*]) => {
        match $name.as_ref() {
            $($key if $field.is_none() => {
                $field = Some(
                    $crate::command::Grammar::take($p)
                        .map_err(|e| $crate::command::in_member($key, e))?,
                );
            })*
            _ => {
                if !$extra(&$name, $p)? {
                    $p.skip()?;
                }
            }
        }
    };
    ($ty:ident by $tag_key:literal as $what:literal {
        $($tag:literal => $variant:ident $shape:tt
            [$($field:ident => $key:literal $(or $default:expr)?),* $(,)?]),+ $(,)?
    } $(check $check:path)?) => {
        impl $crate::command::Grammar for $ty {
            fn put<S: $crate::wire::Sink>(&self, e: &mut $crate::wire::Text<'_, S>) {
                e.open_obj();
                e.key($tag_key);
                match self {
                    $(Self::$variant $shape => {
                        e.str($tag);
                        $($crate::command::put_member(e, $key, $field);)*
                    })+
                }
                e.close_obj();
            }

            fn take(r: &mut $crate::wire::Parser<'_>) -> Result<Self, $crate::wire::WireError> {
                $crate::command::take_tagged(r)
            }
        }

        impl $crate::command::Tagged for $ty {
            const TAG: &'static str = $tag_key;

            fn take_variant<'a>(
                tag: &str,
                r: &mut $crate::wire::Parser<'a>,
                early: Vec<$crate::command::Early<'a>>,
                extra: &mut $crate::command::Extra<'a, '_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let out = match tag {
                    $($tag => {
                        $crate::command::grammar!(@members r, early, extra,
                            [$($field => $key $(or $default)?),*]);
                        Self::$variant $shape
                    })+
                    other => {
                        return Err($crate::wire::WireError::new(format!(
                            concat!("unknown ", $what, " '{}'"),
                            other
                        )))
                    }
                };
                $(let out = $check(out)?;)?
                Ok(out)
            }
        }
    };
    ($ty:ty { $($field:ident => $key:literal $(or $default:expr)?),+ $(,)? }
        $(check $check:path)?) => {
        impl $crate::command::Grammar for $ty {
            fn put<S: $crate::wire::Sink>(&self, e: &mut $crate::wire::Text<'_, S>) {
                let Self { $($field),+ } = self;
                e.open_obj();
                $($crate::command::put_member(e, $key, $field);)+
                e.close_obj();
            }

            fn take(r: &mut $crate::wire::Parser<'_>) -> Result<Self, $crate::wire::WireError> {
                r.open_obj()?;
                let early: Vec<$crate::command::Early<'_>> = Vec::new();
                let extra = |_: &str, _: &mut $crate::wire::Parser<'_>| Ok(false);
                $crate::command::grammar!(@members r, early, extra,
                    [$($field => $key $(or $default)?),+]);
                let out = Self { $($field),+ };
                $(let out = $check(out)?;)?
                Ok(out)
            }
        }
    };
}
pub(crate) use grammar;

// ---------------------------------------------------------------------
// Scalars and containers.
// ---------------------------------------------------------------------

impl Grammar for String {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.str(self);
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.str().map(Cow::into_owned)
    }
}

/// Any finite JSON number.
impl Grammar for f64 {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.num(*self);
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.num()
    }
}

/// A number that is a whole value in `0..=2^53`, where every integer
/// is exact.
impl Grammar for u64 {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.num(*self as f64);
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        match r.num()? {
            n if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Ok(n as u64),
            _ => Err(WireError::new("expected a non-negative integer")),
        }
    }
}

/// Narrower integers: a `u64` in their range.
macro_rules! narrow_grammar {
    ($($int:ty),+) => {$(
        impl Grammar for $int {
            fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
                e.num(*self as f64);
            }

            fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
                <$int>::try_from(u64::take(r)?).map_err(|_| {
                    WireError::new(concat!("integer exceeds ", stringify!($int), " range"))
                })
            }
        }
    )+};
}
narrow_grammar!(u32, usize);

impl<T: Grammar> Grammar for Vec<T> {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_arr();
        for item in self {
            e.item();
            item.put(e);
        }
        e.close_arr();
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_arr()?;
        let mut items = Vec::new();
        while r.more()? {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

/// A pair is an array of exactly two.
impl<A: Grammar, B: Grammar> Grammar for (A, B) {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.open_arr();
        e.item();
        self.0.put(e);
        e.item();
        self.1.put(e);
        e.close_arr();
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        r.open_arr()?;
        r.item()?;
        let a = A::take(r)?;
        r.item()?;
        let b = B::take(r)?;
        r.close_arr()?;
        Ok((a, b))
    }
}

/// An optional member: written only when it holds a value, `None` when
/// absent. A `null` is not absent.
impl<T: Grammar> Grammar for Option<T> {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        match self {
            Some(value) => value.put(e),
            None => e.null(),
        }
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        T::take(r).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }

    fn present(&self) -> bool {
        self.is_some()
    }
}

/// A borrowed value is written as the value and read owned.
impl<T: Grammar + Clone> Grammar for Cow<'_, T> {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        T::put(self, e);
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        T::take(r).map(Cow::Owned)
    }
}

impl Grammar for ColType {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        e.str(self.as_str());
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        ColType::from_str(&r.str()?)
    }
}

/// A cell is a JSON scalar. A number reads as a float until
/// [`TableSpec::typed`] types it by its column.
impl Grammar for CellSpec {
    fn put<S: Sink>(&self, e: &mut Text<'_, S>) {
        match self {
            CellSpec::Null => e.null(),
            CellSpec::Int(i) => e.num(*i as f64),
            CellSpec::Float(f) => e.num(*f),
            CellSpec::Str(s) => e.str(s),
            CellSpec::Bool(b) => e.bool(*b),
        }
    }

    fn take(r: &mut Parser<'_>) -> Result<Self, WireError> {
        match r.peek() {
            Some(b'"') => r.str().map(|s| CellSpec::Str(s.into_owned())),
            Some(b't' | b'f') => r.bool().map(CellSpec::Bool),
            Some(b'n') => r.null().map(|_| CellSpec::Null),
            _ => r.num().map(CellSpec::Float),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cmd: Command) {
        let encoded = cmd.encode().dump();
        let decoded = Command::decode(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, cmd, "wire round-trip changed the command");
    }

    fn decode(text: &str) -> Result<Command, WireError> {
        read(text.as_bytes())
    }

    #[test]
    fn commands_round_trip() {
        round_trip(Command::Enroll {
            name: "alice".into(),
            role: "buyer".into(),
        });
        round_trip(Command::Deposit {
            account: "alice".into(),
            amount: 123.456789,
        });
        round_trip(Command::SubmitOffer(OfferSpec {
            buyer: "alice".into(),
            attributes: vec!["city".into(), "temp".into()],
            keywords: vec!["weather".into()],
            task: TaskKind::AggregateCompleteness {
                group_by: "city".into(),
                expected_groups: 12,
            },
            curve: PriceCurve::Step(vec![(0.8, 100.0), (0.9, 150.0)]),
            min_rows: 3,
            purpose: "research".into(),
        }));
        round_trip(Command::SubmitAsk(AskSpec {
            seller: "weather-co".into(),
            table: TableSpec {
                name: "temps".into(),
                columns: vec![
                    ("city".into(), ColType::Str),
                    ("temp".into(), ColType::Float),
                    ("at".into(), ColType::Timestamp),
                ],
                rows: vec![
                    vec![
                        CellSpec::Str("chicago".into()),
                        CellSpec::Float(3.5),
                        CellSpec::Int(1700000000),
                    ],
                    vec![CellSpec::Null, CellSpec::Null, CellSpec::Null],
                ],
            },
            reserve: Some(5.0),
            license: Some(License::Exclusive {
                tax_rate: 0.5,
                hold_rounds: 3,
            }),
        }));
        round_trip(Command::GrantLicense {
            seller: "weather-co".into(),
            dataset: 0,
            license: License::NonTransferable,
        });
        round_trip(Command::RunRound { rounds: 4 });
    }

    fn pinned_commands() -> Vec<Command> {
        let two53 = 1i64 << 53;
        let offer = |task, curve| {
            Command::SubmitOffer(OfferSpec {
                buyer: "b".into(),
                attributes: vec!["city".into(), "temp".into()],
                keywords: vec!["weather".into()],
                task,
                curve,
                min_rows: 3,
                purpose: "research".into(),
            })
        };
        let table = TableSpec {
            name: "t \"q\" π\n".into(),
            columns: vec![
                ("k".into(), ColType::Int),
                ("at".into(), ColType::Timestamp),
                ("x".into(), ColType::Float),
                ("s".into(), ColType::Str),
                ("ok".into(), ColType::Bool),
            ],
            rows: vec![
                vec![
                    CellSpec::Int(two53),
                    CellSpec::Int(-two53),
                    CellSpec::Float(0.1),
                    CellSpec::Str("Zürich\t→ \\ \u{1}😀".into()),
                    CellSpec::Bool(true),
                ],
                vec![
                    CellSpec::Int(-7),
                    CellSpec::Int(1_700_000_000),
                    CellSpec::Float(-0.0),
                    CellSpec::Null,
                    CellSpec::Bool(false),
                ],
                vec![
                    CellSpec::Null,
                    CellSpec::Null,
                    CellSpec::Float(1e-7),
                    CellSpec::Str(String::new()),
                    CellSpec::Null,
                ],
            ],
        };
        vec![
            Command::Enroll {
                name: "alice".into(),
                role: "buyer".into(),
            },
            Command::Deposit {
                account: "a\"b\\c\n\u{1f}é→😀".into(),
                amount: 123.456789,
            },
            Command::Deposit {
                account: "big".into(),
                amount: 1e21,
            },
            offer(TaskKind::AttributeCoverage, PriceCurve::Constant(9.5)),
            offer(
                TaskKind::Classification {
                    label: "label".into(),
                },
                PriceCurve::Linear {
                    min_satisfaction: 0.25,
                    max_price: 120.0,
                },
            ),
            offer(
                TaskKind::Regression { target: "y".into() },
                PriceCurve::Step(vec![(0.5, 10.0), (0.9, 20.25)]),
            ),
            offer(
                TaskKind::AggregateCompleteness {
                    group_by: "city".into(),
                    expected_groups: 12,
                },
                PriceCurve::Step(Vec::new()),
            ),
            Command::SubmitOffer(OfferSpec::simple("b", Vec::<String>::new(), 0.0)),
            Command::SubmitAsk(AskSpec {
                seller: "s".into(),
                table: table.clone(),
                reserve: None,
                license: None,
            }),
            Command::SubmitAsk(AskSpec {
                seller: "s".into(),
                table: TableSpec {
                    name: "empty".into(),
                    columns: Vec::new(),
                    rows: Vec::new(),
                },
                reserve: Some(5.0),
                license: Some(License::Exclusive {
                    tax_rate: 0.5,
                    hold_rounds: 3,
                }),
            }),
            Command::SubmitAsk(AskSpec {
                seller: "s".into(),
                table: TableSpec {
                    name: "one".into(),
                    columns: vec![("k".into(), ColType::Int)],
                    rows: vec![vec![CellSpec::Int(1)]],
                },
                reserve: Some(0.75),
                license: None,
            }),
            Command::SubmitAsk(AskSpec {
                seller: "s".into(),
                table: TableSpec {
                    name: "one".into(),
                    columns: vec![("k".into(), ColType::Int)],
                    rows: vec![vec![CellSpec::Int(1)]],
                },
                reserve: None,
                license: Some(License::Standard),
            }),
            Command::GrantLicense {
                seller: "s".into(),
                dataset: 0,
                license: License::OwnershipTransfer,
            },
            Command::GrantLicense {
                seller: "s".into(),
                dataset: 9_007_199_254_740_992,
                license: License::NonTransferable,
            },
            Command::RunRound { rounds: 1024 },
        ]
    }

    /// The bytes the tree encoder (`encode().dump()`) wrote for
    /// [`pinned_commands`] before the grammar was streamed: every
    /// variant, `reserve` and `license` absent and present, every task
    /// and curve, escaped and multi-byte strings, integer cells at
    /// ±2^53 and floats whose shortest form has no exponent.
    const PINNED: [&str; 15] = [
        r#"{"op":"enroll","name":"alice","role":"buyer"}"#,
        r#"{"op":"deposit","account":"a\"b\\c\n\u001fé→😀","amount":123.456789}"#,
        r#"{"op":"deposit","account":"big","amount":1000000000000000000000}"#,
        r#"{"op":"offer","buyer":"b","attributes":["city","temp"],"keywords":["weather"],"task":{"kind":"attribute_coverage"},"curve":{"kind":"constant","price":9.5},"min_rows":3,"purpose":"research"}"#,
        r#"{"op":"offer","buyer":"b","attributes":["city","temp"],"keywords":["weather"],"task":{"kind":"classification","label":"label"},"curve":{"kind":"linear","min_satisfaction":0.25,"max_price":120},"min_rows":3,"purpose":"research"}"#,
        r#"{"op":"offer","buyer":"b","attributes":["city","temp"],"keywords":["weather"],"task":{"kind":"regression","target":"y"},"curve":{"kind":"step","steps":[[0.5,10],[0.9,20.25]]},"min_rows":3,"purpose":"research"}"#,
        r#"{"op":"offer","buyer":"b","attributes":["city","temp"],"keywords":["weather"],"task":{"kind":"aggregate_completeness","group_by":"city","expected_groups":12},"curve":{"kind":"step","steps":[]},"min_rows":3,"purpose":"research"}"#,
        r#"{"op":"offer","buyer":"b","attributes":[],"keywords":[],"task":{"kind":"attribute_coverage"},"curve":{"kind":"constant","price":0},"min_rows":1,"purpose":"analytics"}"#,
        r#"{"op":"ask","seller":"s","table":{"name":"t \"q\" π\n","columns":[["k","int"],["at","timestamp"],["x","float"],["s","str"],["ok","bool"]],"rows":[[9007199254740992,-9007199254740992,0.1,"Zürich\t→ \\ \u0001😀",true],[-7,1700000000,-0,null,false],[null,null,0.0000001,"",null]]}}"#,
        r#"{"op":"ask","seller":"s","table":{"name":"empty","columns":[],"rows":[]},"reserve":5,"license":{"kind":"exclusive","tax_rate":0.5,"hold_rounds":3}}"#,
        r#"{"op":"ask","seller":"s","table":{"name":"one","columns":[["k","int"]],"rows":[[1]]},"reserve":0.75}"#,
        r#"{"op":"ask","seller":"s","table":{"name":"one","columns":[["k","int"]],"rows":[[1]]},"license":{"kind":"standard"}}"#,
        r#"{"op":"grant_license","seller":"s","dataset":0,"license":{"kind":"ownership_transfer"}}"#,
        r#"{"op":"grant_license","seller":"s","dataset":9007199254740992,"license":{"kind":"non_transferable"}}"#,
        r#"{"op":"run_round","rounds":1024}"#,
    ];

    #[test]
    fn every_variant_writes_its_pinned_bytes_and_reads_them_back() {
        let cmds = pinned_commands();
        assert_eq!(cmds.len(), PINNED.len());
        for (cmd, pin) in cmds.into_iter().zip(PINNED) {
            assert_eq!(text(&cmd), pin);
            assert_eq!(cmd.encode().dump(), pin);
            assert_eq!(decode(pin), Ok(cmd), "{pin}");
        }
    }

    #[test]
    fn a_non_finite_number_is_written_as_a_null_no_decoder_takes() {
        let cmd = Command::Deposit {
            account: "a".into(),
            amount: f64::NAN,
        };
        assert_eq!(
            text(&cmd),
            r#"{"op":"deposit","account":"a","amount":null}"#
        );
        assert!(decode(&text(&cmd)).is_err());
    }

    #[test]
    fn table_spec_materializes() {
        let table = TableSpec {
            name: "t".into(),
            columns: vec![("k".into(), ColType::Int), ("v".into(), ColType::Str)],
            rows: vec![
                vec![CellSpec::Int(1), CellSpec::Str("a".into())],
                vec![CellSpec::Int(2), CellSpec::Null],
            ],
        };
        let rel = table.to_relation().unwrap();
        assert_eq!(rel.name(), "t");
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn mistyped_cells_rejected() {
        let table = |columns: &str, rows: &str| {
            let text = format!(r#"{{"name":"t","columns":{columns},"rows":{rows}}}"#);
            read::<TableSpec>(text.as_bytes())
        };
        assert!(table(r#"[["k","int"]]"#, r#"[[1],[null],[-3]]"#).is_ok());
        for (columns, rows) in [
            (r#"[["k","int"]]"#, r#"[["oops"]]"#),
            (r#"[["k","int"]]"#, r#"[[1.5]]"#),
            (r#"[["k","timestamp"]]"#, r#"[[9007199254740994]]"#),
            (r#"[["k","float"]]"#, r#"[[true]]"#),
            (r#"[["k","str"]]"#, r#"[[1]]"#),
            (r#"[["k","bool"]]"#, r#"[[[]]]"#),
            (r#"[["k","int"]]"#, r#"[[1,2]]"#),
            (r#"[["k","int"]]"#, r#"[[]]"#),
            (r#"[["k","int"]]"#, r#"[1]"#),
            (r#"[["k","day"]]"#, r#"[]"#),
            (r#"[["k"]]"#, r#"[]"#),
            (r#"[["k","int","x"]]"#, r#"[]"#),
        ] {
            assert!(table(columns, rows).is_err(), "{columns} {rows}");
        }
    }

    #[test]
    fn unknown_op_rejected() {
        assert!(decode(r#"{"op":"frobnicate"}"#).is_err());
        assert!(decode(r#"{"name":"a"}"#).is_err());
    }

    #[test]
    fn run_round_count_is_bounded() {
        assert!(decode(r#"{"op":"run_round","rounds":1024}"#).is_ok());
        for bad in [
            r#"{"op":"run_round","rounds":0}"#,
            r#"{"op":"run_round","rounds":1025}"#,
            r#"{"op":"run_round","rounds":4000000000}"#,
            r#"{"op":"run_round","rounds":2.5}"#,
        ] {
            assert!(decode(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn role_and_rounds_have_defaults_but_no_silent_ones() {
        assert_eq!(
            decode(r#"{"op":"enroll","name":"a"}"#).unwrap(),
            Command::Enroll {
                name: "a".into(),
                role: "participant".into(),
            }
        );
        assert_eq!(
            decode(r#"{"op":"run_round"}"#).unwrap(),
            Command::RunRound { rounds: 1 }
        );
        // Encoding writes both fields out, so a journal never relies on
        // a default.
        let text = Command::RunRound { rounds: 1 }.encode().dump();
        assert_eq!(text, r#"{"op":"run_round","rounds":1}"#);
        assert!(decode(r#"{"op":"enroll","name":"a","role":5}"#).is_err());
        // The first "op" is the one read.
        assert_eq!(
            decode(r#"{"op":"run_round","op":"enroll","name":"a"}"#).unwrap(),
            Command::RunRound { rounds: 1 }
        );
    }

    #[test]
    fn members_come_in_any_order_unknown_ones_are_skipped_and_the_first_counts() {
        let ask = |text: &str| match decode(text) {
            Ok(Command::SubmitAsk(ask)) => ask,
            other => panic!("{text}: {other:?}"),
        };
        let canonical = ask(PINNED[9]);
        for text in [
            // Tags after the members they choose; rows before columns.
            r#"{"table":{"rows":[],"columns":[],"name":"empty"},"license":{"hold_rounds":3,"tax_rate":0.5,"kind":"exclusive"},"reserve":5,"seller":"s","op":"ask"}"#,
            // Unknown members of every kind, nested and escaped.
            r#"{"op":"ask","x":{"a":[1,{"b":null}],"c":"\u0041"},"seller":"s","table":{"name":"empty","columns":[],"rows":[],"extra":[[]]},"reserve":5,"license":{"kind":"exclusive","tax_rate":0.5,"hold_rounds":3,"label":7},"y":-0.5e3}"#,
            // The first of a repeated member counts; a later one need
            // only be JSON.
            r#"{"op":"ask","seller":"s","seller":5,"table":{"name":"empty","columns":[],"rows":[],"rows":"x"},"reserve":5,"reserve":null,"license":{"kind":"exclusive","kind":"standard","tax_rate":0.5,"hold_rounds":3}}"#,
            // Escaped keys are the keys they spell; whitespace anywhere.
            " {\"\\u006fp\" : \"ask\" ,\n\"seller\":\"s\",\"t\\u0061ble\":{\"name\":\"empty\",\"columns\":[ ],\"rows\":[]},\"reserve\":5,\"license\":{\"kind\":\"exclusive\",\"tax_rate\":0.5,\"hold_rounds\":3}}\t",
        ] {
            assert_eq!(ask(text), canonical, "{text}");
        }
        for bad in [
            // A repeated member's first value decides, even when wrong.
            r#"{"op":"ask","seller":5,"seller":"s","table":{"name":"empty","columns":[],"rows":[]}}"#,
            // `null` is not absent.
            r#"{"op":"ask","seller":"s","table":{"name":"empty","columns":[],"rows":[]},"reserve":null}"#,
            r#"{"op":"ask","seller":"s","table":{"name":"empty","columns":[],"rows":[]},"license":null}"#,
            r#"{"op":"offer","buyer":"b","attributes":[],"keywords":null,"curve":{"kind":"constant","price":1}}"#,
            // A skipped member must still be JSON, and so must the rest.
            r#"{"op":"run_round","x":[1,]}"#,
            r#"{"op":"run_round"} x"#,
            r#"{"op":"run_round",}"#,
            r#"{"op":"run_round" "rounds":1}"#,
            // A tag that is not a string, or absent.
            r#"{"op":"ask","seller":"s","table":{"name":"e","columns":[],"rows":[]},"license":{"kind":1}}"#,
            r#"{"op":"offer","buyer":"b","attributes":[],"curve":{"price":1}}"#,
        ] {
            assert!(decode(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn a_route_reads_its_commands_members_and_an_enroll_its_deposit() {
        let route = |op: &str, body: &str| from_route(op, body.as_bytes());
        let alice = Command::Enroll {
            name: "alice".into(),
            role: "participant".into(),
        };
        assert_eq!(
            route("enroll", r#"{"name":"alice","op":"run_round"}"#),
            Ok((alice.clone(), None))
        );
        assert_eq!(
            route("enroll", r#"{"deposit":5,"name":"alice","deposit":"x"}"#),
            Ok((alice.clone(), Some(5.0)))
        );
        let Ok((_, Some(nan))) = route("enroll", r#"{"name":"alice","deposit":{"a":1}}"#) else {
            panic!("a non-number deposit was not read");
        };
        assert!(nan.is_nan());
        // Only `/enroll` has a deposit: elsewhere it is an unknown member.
        assert_eq!(
            route("deposit", r#"{"account":"a","amount":1,"deposit":5}"#),
            Ok((
                Command::Deposit {
                    account: "a".into(),
                    amount: 1.0,
                },
                None
            ))
        );
        assert_eq!(
            route("run_round", ""),
            Ok((Command::RunRound { rounds: 1 }, None))
        );
        for bad in [
            "null",
            "[]",
            "{",
            r#"{"name":"alice","deposit":1,}"#,
            "{} {}",
        ] {
            assert!(route("enroll", bad).is_err(), "accepted {bad}");
        }
    }
}
