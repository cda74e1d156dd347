//! Hand-rolled JSON wire codec. The build environment has no crates.io
//! access, so there is no serde: this module implements the subset of
//! JSON the gateway and journal need — full parse/serialize round-trip
//! for null, bool, finite numbers, strings (with `\uXXXX` escapes and
//! surrogate pairs), arrays and objects.
//!
//! Parsing is linear in the document: UTF-8 is validated once (by the
//! caller's `&str`, or by [`Json::parse_bytes`] for bytes off a disk or
//! a socket) and strings are copied a run at a time. This is the first
//! decoder every outside byte meets, so clippy holds it panic-free and
//! index-free (the headers below); `tests/wire_parser.rs` holds the
//! hostile-input, scaling and golden-file suites.
//!
//! Canonical form: objects keep insertion order, numbers serialize via
//! Rust's shortest round-trip `f64` formatting, and non-finite numbers
//! are rejected at encode time (JSON has no NaN/Infinity). `dump ∘
//! parse` is the identity on every value this module can produce; the
//! property suite in `tests/wire_props.rs` pins that down.
//!
//! Codecs that state a type's form once (`state.rs`, `command.rs`)
//! write and read it a token at a time and build no tree: `Text` writes
//! compact text into a [`Sink`], byte-identical to dumping the same
//! value, and the parser reads it back token by token with its own
//! grammar and depth limit.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
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
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse / decode error with byte position context.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for structural decode errors).
    pub pos: usize,
}

impl WireError {
    /// A structural (non-positional) decode error.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError {
            msg: msg.into(),
            pos: 0,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for WireError {}

/// Maximum nesting depth accepted by the parser (stack safety).
const MAX_DEPTH: usize = 64;

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer accessor (rejects fractional numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field helpers for decoders: a missing or mistyped field
    /// is a structural [`WireError`].
    pub fn req_str(&self, key: &str) -> Result<String, WireError> {
        self.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| WireError::new(format!("missing string field '{key}'")))
    }

    /// Required number field.
    pub fn req_f64(&self, key: &str) -> Result<f64, WireError> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| WireError::new(format!("missing number field '{key}'")))
    }

    /// Required integer field.
    pub fn req_u64(&self, key: &str) -> Result<u64, WireError> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::new(format!("missing integer field '{key}'")))
    }

    /// Required array field.
    pub fn req_arr<'a>(&'a self, key: &str) -> Result<&'a [Json], WireError> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::new(format!("missing array field '{key}'")))
    }

    /// Serialize to a compact JSON string. Panics on non-finite numbers
    /// (the codec never produces them; see [`Json::try_dump`]).
    #[expect(
        clippy::expect_used,
        reason = "encode side, not a decoder: every caller that can hold a non-finite number (journal append, snapshot write) goes through try_dump/dump_into"
    )]
    pub fn dump(&self) -> String {
        self.try_dump()
            .expect("non-finite number cannot be serialized to JSON")
    }

    /// Serialize, reporting non-finite numbers as an error.
    pub fn try_dump(&self) -> Result<String, WireError> {
        let mut out = String::new();
        self.dump_into(&mut out)?;
        Ok(out)
    }

    /// Serialize onto the end of `out` — a `String`, or a `Vec<u8>`
    /// such as a frame or request buffer, so a document is written
    /// where it is going instead of into a `String` that is then
    /// copied. On a non-finite number `out` keeps the partial text.
    pub fn dump_into<S: Sink>(&self, out: &mut S) -> Result<(), WireError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(WireError::new("non-finite number"));
                }
                write_num(*n, out);
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push_str("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    item.dump_into(out)?;
                }
                out.push_str("]");
            }
            Json::Obj(pairs) => {
                out.push_str("{");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    write_escaped(k, out);
                    out.push_str(":");
                    v.dump_into(out)?;
                }
                out.push_str("}");
            }
        }
        Ok(())
    }

    /// Parse a JSON document (one value, surrounded by whitespace only).
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut p = Parser::new(input);
        let value = p.value(0)?;
        p.finish()?;
        Ok(value)
    }

    /// Parse a JSON document from bytes off a disk or a socket: one
    /// UTF-8 validation of the whole buffer, then [`Json::parse`] on it
    /// in place. Invalid UTF-8 is an error at the first bad byte —
    /// never repaired.
    pub fn parse_bytes(input: &[u8]) -> Result<Json, WireError> {
        Json::parse(utf8(input)?)
    }
}

/// `input` as text: invalid UTF-8 is an error at the first bad byte.
fn utf8(input: &[u8]) -> Result<&str, WireError> {
    std::str::from_utf8(input).map_err(|e| WireError {
        msg: "invalid UTF-8".into(),
        pos: e.valid_up_to(),
    })
}

/// A buffer [`Json::dump_into`] can append UTF-8 text to.
pub trait Sink {
    /// Append `text`.
    fn push_str(&mut self, text: &str);
}

impl Sink for String {
    fn push_str(&mut self, text: &str) {
        String::push_str(self, text);
    }
}

impl Sink for Vec<u8> {
    fn push_str(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// `fmt::Write` over a [`Sink`], so numbers format straight into it.
struct FmtSink<'a, S: Sink>(&'a mut S);

impl<S: Sink> fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.0.push_str(text);
        Ok(())
    }
}

/// A finite number in Rust's shortest round-trip `f64` form, which is
/// valid JSON. Writing into a sink cannot fail.
fn write_num<S: Sink>(n: f64, out: &mut S) {
    let _ = write!(FmtSink(out), "{n}");
}

/// Bytes a JSON string cannot carry verbatim: the closing quote, the
/// escape introducer and the control range. All ASCII, so in valid
/// UTF-8 they only ever occur as whole characters — a run of other
/// bytes between two of them starts and ends on a char boundary.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn write_escaped<S: Sink>(s: &str, out: &mut S) {
    out.push_str("\"");
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(s.get(run_start..i).unwrap_or_default());
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(FmtSink(out), "\\u{b:04x}");
            }
        }
        run_start = i + 1;
    }
    out.push_str(s.get(run_start..).unwrap_or_default());
    out.push_str("\"");
}

/// Recursive-descent parser over the input `&str`. UTF-8 was validated
/// once, when the `&str` was made; the parser only ever stops on ASCII
/// bytes, so every slice it takes is on char boundaries and `get`
/// returning `None` is unreachable rather than a panic.
///
/// It reads a document two ways over the same primitives: into a
/// [`Json`] tree ([`Json::parse`]), or a token at a time (client
/// commands, the codec's messages and state-image sections), with one
/// grammar and one depth limit. A clone is a bookmark: it reads on
/// from where it was made.
#[derive(Clone)]
pub(crate) struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Token reading only: containers open around the cursor.
    depth: usize,
    /// Token reading only: the innermost open container has had no
    /// element or member yet.
    first: bool,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let mut p = Parser {
            src,
            pos: 0,
            depth: 0,
            first: false,
        };
        p.skip_ws();
        p
    }

    /// A token reader over one document in `input`, bytes off a disk
    /// or a socket: validated as [`Json::parse_bytes`] validates them.
    /// Read one value, then [`Parser::finish`].
    pub(crate) fn over(input: &'a [u8]) -> Result<Self, WireError> {
        utf8(input).map(Parser::new)
    }

    /// Only whitespace may follow the value.
    pub(crate) fn finish(mut self) -> Result<(), WireError> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    fn err(&self, msg: impl Into<String>) -> WireError {
        WireError {
            msg: msg.into(),
            pos: self.pos,
        }
    }

    /// The unread bytes.
    fn rest(&self) -> &'a [u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// The next byte: at a value, the first of it.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn keyword(&mut self, lit: &str) -> Result<(), WireError> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, WireError> {
        self.keyword(lit).map(|()| value)
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.require(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.require(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.cow_string().map(Cow::into_owned)
    }

    /// A string literal, borrowed from the input when it holds no
    /// escape.
    fn cow_string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.require(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next byte that needs a decision;
            // the time spent on a string is linear in its length.
            let src = self.src;
            let rest = src.get(self.pos..).unwrap_or_default();
            let len = rest.bytes().position(needs_escape).unwrap_or(rest.len());
            let run = rest.get(..len).unwrap_or_default();
            self.pos += len;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char: `out` is empty only
                    // if there was none.
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    /// Decode one escape; `pos` is just past the backslash.
    fn escape(&mut self) -> Result<char, WireError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if !(0xd800..0xdc00).contains(&hi) {
                    return char::from_u32(hi).ok_or_else(|| self.err("lone low surrogate"));
                }
                // Surrogate pair: require the low half.
                if !self.rest().starts_with(b"\\u") {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign: `from_str_radix` alone would
    /// take `+041`).
    fn hex4(&mut self) -> Result<u32, WireError> {
        let Some(digits) = self.rest().get(..4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut v = 0u32;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + d;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let n: f64 = self
            .src
            .get(start..self.pos)
            .and_then(|text| text.parse().ok())
            .ok_or_else(|| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Token streams: a value written or read one token at a time, so a
// codec (`state.rs`) states each type's form once.
// ---------------------------------------------------------------------

/// Compact text written token by token into a [`Sink`]: the bytes
/// [`Json::dump_into`] writes for the same value. Callers pair every
/// `open_*` with its `close_*`, call [`Text::item`] before each array
/// element and [`Text::key`] before each member's value.
pub(crate) struct Text<'s, S: Sink> {
    out: &'s mut S,
    /// The innermost open container has had no element or member yet.
    first: bool,
}

impl<'s, S: Sink> Text<'s, S> {
    pub(crate) fn new(out: &'s mut S) -> Self {
        Text { out, first: false }
    }

    fn quoted(&mut self, digits: Digits) {
        self.out.push_str("\"");
        self.out.push_str(digits.as_str());
        self.out.push_str("\"");
    }

    fn separate(&mut self) {
        if !self.first {
            self.out.push_str(",");
        }
        self.first = false;
    }

    /// A string.
    pub(crate) fn str(&mut self, s: &str) {
        write_escaped(s, self.out);
    }

    /// An integer as a string of its decimal digits, led by `-` when
    /// `negative`: `to_string`'s form.
    pub(crate) fn decimal(&mut self, magnitude: u64, negative: bool) {
        self.quoted(Digits::decimal(magnitude, negative));
    }

    /// A 64-bit word as a string of 16 lower-case hex digits.
    pub(crate) fn hex(&mut self, word: u64) {
        self.quoted(Digits::hex(word));
    }

    /// `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.out.push_str("null");
    }

    /// A number, as [`Json::dump_into`] writes it. JSON has no
    /// non-finite numbers: one is written as `null`, which no number
    /// reader takes.
    pub(crate) fn num(&mut self, n: f64) {
        if n.is_finite() {
            write_num(n, self.out);
        } else {
            self.null();
        }
    }

    /// `[`.
    pub(crate) fn open_arr(&mut self) {
        self.out.push_str("[");
        self.first = true;
    }

    /// Before each array element.
    pub(crate) fn item(&mut self) {
        self.separate();
    }

    /// `]`.
    pub(crate) fn close_arr(&mut self) {
        self.out.push_str("]");
        self.first = false;
    }

    /// `{`.
    pub(crate) fn open_obj(&mut self) {
        self.out.push_str("{");
        self.first = true;
    }

    /// Before each member's value.
    pub(crate) fn key(&mut self, key: &str) {
        self.separate();
        write_escaped(key, self.out);
        self.out.push_str(":");
    }

    /// `}`.
    pub(crate) fn close_obj(&mut self) {
        self.out.push_str("}");
        self.first = false;
    }
}

/// A number's digits, written on the stack for [`Text`]: formatting
/// through `fmt` costs more than the digits, and a state image holds
/// hundreds of thousands of numbers. At most 20 characters: the digits
/// of `u64::MAX`, or `-` and the 19 of `i64::MIN`.
struct Digits {
    buf: [u8; 20],
    start: usize,
}

impl Digits {
    /// Decimal, led by `-` when `negative`: `to_string`'s form.
    fn decimal(mut magnitude: u64, negative: bool) -> Digits {
        let mut d = Digits {
            buf: [0; 20],
            start: 20,
        };
        loop {
            d.push(b'0' + (magnitude % 10) as u8);
            magnitude /= 10;
            if magnitude == 0 {
                break;
            }
        }
        if negative {
            d.push(b'-');
        }
        d
    }

    /// 16 lower-case hex digits: `{:016x}`.
    fn hex(word: u64) -> Digits {
        let mut d = Digits {
            buf: [0; 20],
            start: 20,
        };
        for nibble in (0..16).map(|i| (word >> (4 * i) & 0xf) as u8) {
            d.push(if nibble < 10 {
                b'0' + nibble
            } else {
                b'a' + nibble - 10
            });
        }
        d
    }

    /// Prepend `b`.
    fn push(&mut self, b: u8) {
        self.start = self.start.saturating_sub(1);
        if let Some(slot) = self.buf.get_mut(self.start) {
            *slot = b;
        }
    }

    fn as_str(&self) -> &str {
        let digits = self.buf.get(self.start..).unwrap_or_default();
        std::str::from_utf8(digits).unwrap_or_default()
    }
}

/// The token reader over text: the grammar of [`Json::parse`], the
/// depth limit included, with whitespace allowed wherever it allows it.
/// Each call refuses what is not there. Inside an array,
/// [`Parser::more`] comes before each element and once after the last;
/// inside an object, [`Parser::key`] names each member in order and
/// [`Parser::close_obj`] follows the last, or [`Parser::next_key`]
/// reads the members in whatever order they come.
impl<'a> Parser<'a> {
    /// Past a separator: a value starts here, as deep as
    /// [`Parser::value`] would have been asked to read it.
    fn element(&mut self) -> Result<(), WireError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        Ok(())
    }

    fn open(&mut self, b: u8) -> Result<(), WireError> {
        self.require(b)?;
        self.depth += 1;
        self.first = true;
        self.skip_ws();
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
        self.first = false;
        self.skip_ws();
    }

    /// A string (borrowed where it holds no escape).
    pub(crate) fn str(&mut self) -> Result<Cow<'a, str>, WireError> {
        let s = self.cow_string()?;
        self.skip_ws();
        Ok(s)
    }

    /// `true` / `false`.
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        let b = match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.err("expected bool")),
        }?;
        self.skip_ws();
        Ok(b)
    }

    /// Consume a `null` if one is next; `false` leaves the value.
    pub(crate) fn null(&mut self) -> Result<bool, WireError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null")?;
        self.skip_ws();
        Ok(true)
    }

    /// A number.
    pub(crate) fn num(&mut self) -> Result<f64, WireError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.err("expected number"));
        }
        let n = self.number()?;
        self.skip_ws();
        Ok(n)
    }

    /// Past one value of any kind, checked as [`Json::parse`] checks
    /// it; nothing of it is kept.
    pub(crate) fn skip(&mut self) -> Result<(), WireError> {
        match self.peek() {
            Some(b'[') => {
                self.open_arr()?;
                while self.more()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.open_obj()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.null().map(drop),
            Some(b'-' | b'0'..=b'9') => self.num().map(drop),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `[`.
    pub(crate) fn open_arr(&mut self) -> Result<(), WireError> {
        self.open(b'[')
    }

    /// Whether another element follows; `false` has consumed the `]`.
    pub(crate) fn more(&mut self) -> Result<bool, WireError> {
        match (self.peek(), std::mem::take(&mut self.first)) {
            (Some(b']'), _) => {
                self.close();
                Ok(false)
            }
            (_, true) => self.element().map(|()| true),
            (Some(b','), false) => {
                self.pos += 1;
                self.element().map(|()| true)
            }
            _ => Err(self.err("expected ',' or ']' in array")),
        }
    }

    /// Another element must follow.
    pub(crate) fn item(&mut self) -> Result<(), WireError> {
        if self.more()? {
            Ok(())
        } else {
            Err(WireError::new("array too short"))
        }
    }

    /// No element may follow.
    pub(crate) fn close_arr(&mut self) -> Result<(), WireError> {
        if self.more()? {
            Err(WireError::new("array too long"))
        } else {
            Ok(())
        }
    }

    /// `{`.
    pub(crate) fn open_obj(&mut self) -> Result<(), WireError> {
        self.open(b'{')
    }

    /// The next member, which must be named `key`.
    pub(crate) fn key(&mut self, key: &str) -> Result<(), WireError> {
        if !std::mem::take(&mut self.first) {
            self.require(b',')
                .map_err(|_| self.err(format!("missing field '{key}'")))?;
            self.skip_ws();
        }
        if self.cow_string()? != key {
            return Err(self.err(format!("missing field '{key}'")));
        }
        self.skip_ws();
        self.require(b':')?;
        self.element()
    }

    /// The next member's key, whatever it is, or `None` once the
    /// object's `}` is consumed.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, WireError> {
        match (self.peek(), std::mem::take(&mut self.first)) {
            (Some(b'}'), _) => {
                self.close();
                return Ok(None);
            }
            (_, true) => {}
            (Some(b','), false) => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.err("expected ',' or '}' in object")),
        }
        let key = self.cow_string()?;
        self.skip_ws();
        self.require(b':')?;
        self.element()?;
        Ok(Some(key))
    }

    /// `}`, with no member left.
    pub(crate) fn close_obj(&mut self) -> Result<(), WireError> {
        if self.peek() != Some(b'}') {
            return Err(self.err("expected '}': unexpected field"));
        }
        self.close();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Num(0.0)),
            ("-12.5", Json::Num(-12.5)),
            ("1e-6", Json::Num(1e-6)),
            ("\"hi\"", Json::str("hi")),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value);
            assert_eq!(Json::parse(&value.dump()).unwrap(), value);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", Json::str("alice")),
            ("scores", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
            (
                "nested",
                Json::obj([("ok", Json::Bool(true)), ("none", Json::Null)]),
            ),
        ]);
        let text = v.dump();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"name":"alice","scores":[1,2.5],"nested":{"ok":true,"none":null}}"#
        );
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::str("line\nquote\"back\\slash\ttab\u{0001}u\u{1F600}");
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
        // Incoming \u escapes, including surrogate pairs, decode too.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00 \u0041""#).unwrap(),
            Json::str("\u{1F600} A")
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "{:1}",
            "[1,]",
            "nan",
            "\"\\ud800x\"",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_rejected_at_encode() {
        assert!(Json::Num(f64::NAN).try_dump().is_err());
        assert!(Json::Num(f64::INFINITY).try_dump().is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.req_arr("a").unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }
}
