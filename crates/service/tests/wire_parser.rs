//! The wire parser against hostile and large input: a differential
//! suite against the scanner it replaced, byte-level fuzzing of
//! `Json::parse_bytes`, a linear-scaling check, and hostile snapshot
//! headers and sections, internal RPC bodies, journal records and write
//! route bodies for the decoders that read straight from bytes, the
//! last two against the tree decoder the command grammar replaced.
//! (The golden durability files this suite introduced are in
//! `tests/golden.rs`.)

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dmp_core::arbiter::ledger::MAX_AMOUNT;
use dmp_core::license::License;
use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_mechanism::wtp::{PriceCurve, TaskKind};
use dmp_service::codec;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::gateway::Service;
use dmp_service::http::Request;
use dmp_service::journal::{crc32, Journal};
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::ShardRouter;
use dmp_service::snapshot;
use dmp_service::state;
use dmp_service::test_support::ScratchDir;
use dmp_service::wire::{Json, WireError};
use dmp_service::worker::{WorkerConfig, WorkerNode};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

// ---------------------------------------------------------------------
// (a) Differential: the scanner this parser replaced, kept as the
// reference. It consumed one scalar at a time (and re-validated the
// rest of the document for each, which is why it is not in src/).
// ---------------------------------------------------------------------

type RefError = (usize, &'static str);

/// The old `Parser::hex4`, verbatim.
fn reference_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, RefError> {
    if *pos + 4 > bytes.len() {
        return Err((*pos, "truncated \\u escape"));
    }
    let hex =
        std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|_| (*pos, "invalid \\u escape"))?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| (*pos, "invalid \\u escape"))?;
    *pos += 4;
    Ok(v)
}

/// A document that is one string literal, parsed the old way:
/// `Json::parse`'s framing around the old `Parser::string`.
fn reference_parse(input: &str) -> Result<String, RefError> {
    let bytes = input.as_bytes();
    let ws = |pos: &mut usize| {
        while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            *pos += 1;
        }
    };
    let mut pos = 0;
    ws(&mut pos);
    match bytes.get(pos) {
        Some(b'"') => pos += 1,
        Some(_) => return Err((pos, "unexpected character")),
        None => return Err((pos, "unexpected end of input")),
    }
    let mut out = String::new();
    loop {
        match bytes.get(pos).copied() {
            None => return Err((pos, "unterminated string")),
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos).copied() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        pos += 1;
                        let hi = reference_hex4(bytes, &mut pos)?;
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            if !bytes[pos..].starts_with(b"\\u") {
                                return Err((pos, "lone high surrogate"));
                            }
                            pos += 2;
                            let lo = reference_hex4(bytes, &mut pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err((pos, "invalid low surrogate"));
                            }
                            let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(cp).ok_or((pos, "invalid surrogate pair"))?
                        } else {
                            char::from_u32(hi).ok_or((pos, "lone low surrogate"))?
                        };
                        out.push(c);
                        continue;
                    }
                    _ => return Err((pos, "invalid escape")),
                }
                pos += 1;
            }
            Some(_) => {
                let c = std::str::from_utf8(&bytes[pos..])
                    .map_err(|_| (pos, "invalid UTF-8"))?
                    .chars()
                    .next()
                    .unwrap();
                if (c as u32) < 0x20 {
                    return Err((pos, "unescaped control character"));
                }
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    ws(&mut pos);
    if pos != bytes.len() {
        return Err((pos, "trailing characters after JSON value"));
    }
    Ok(out)
}

/// What the old byte-holding callers did: validate, then parse.
fn reference_parse_bytes(input: &[u8]) -> Result<String, RefError> {
    match std::str::from_utf8(input) {
        Ok(text) => reference_parse(text),
        Err(e) => Err((e.valid_up_to(), "invalid UTF-8")),
    }
}

/// Same value, or both refuse at the same byte for the same reason.
fn assert_agrees(input: &[u8]) {
    let got = Json::parse_bytes(input);
    match (&got, reference_parse_bytes(input)) {
        (Ok(Json::Str(s)), Ok(expected)) => assert_eq!(*s, expected, "value for {input:?}"),
        (Err(e), Err((pos, msg))) => {
            assert_eq!(e.pos, pos, "error position for {input:?}: {e}");
            assert!(e.msg.starts_with(msg), "error for {input:?}: {e} vs {msg}");
        }
        (_, expected) => panic!("{input:?}: parser {got:?}, reference {expected:?}"),
    }
}

/// Pieces of a string-literal body, biased toward everything the
/// scanner has to decide about. No `+`: see
/// `sign_inside_a_unicode_escape_is_refused`.
const PIECES: &[&str] = &[
    "a",
    "z9 _-",
    "/",
    "\u{7f}",
    "é",
    "π",
    "→",
    "\u{1F600}",
    "\u{FFFD}",
    "\u{10FFFF}",
    // every escape
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\uFFFF",
    "\\u0000",
    // surrogates: a pair, lone halves, a high half before the wrong thing
    "\\ud83d\\ude00",
    "\\uD83D\\uDE00",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\ud800\\n",
    "\\udbff\\udfff",
    // malformed escapes
    "\\x",
    "\\é",
    "\\",
    "\\u",
    "\\u12",
    "\\u12g4",
    "\\u12é",
    "\\u 123",
    // control bytes that must be refused, and an early close
    "\n",
    "\t",
    "\u{0001}",
    "\u{001f}",
    "\"",
];

struct StringDocument;

impl Strategy for StringDocument {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut doc = String::from(["", " ", "\n\t"][rng.gen_range(0usize..3)]);
        doc.push('"');
        for _ in 0..rng.gen_range(0usize..10) {
            doc.push_str(PIECES[rng.gen_range(0usize..PIECES.len())]);
        }
        doc.push('"');
        doc.push_str(["", "", " ", "\r\n", "x", "\"\""][rng.gen_range(0usize..6)]);
        doc
    }
}

#[test]
fn every_piece_alone_agrees_with_the_reference() {
    for piece in PIECES {
        let doc = format!("\"{piece}\"");
        for cut in 0..=doc.len() {
            assert_agrees(&doc.as_bytes()[..cut]);
        }
    }
}

#[test]
fn sign_inside_a_unicode_escape_is_refused() {
    // The one deliberate difference: the old scanner handed the four
    // bytes to `from_str_radix`, which takes a sign, so `\u+041` read
    // as "A". JSON wants four hex digits.
    let doc = r#""\u+041""#;
    assert_eq!(reference_parse(doc), Ok("A".to_string()));
    let err = Json::parse(doc).unwrap_err();
    assert_eq!((err.pos, err.msg.as_str()), (3, "invalid \\u escape"));
    assert!(Json::parse(r#""\u-041""#).is_err());
}

// ---------------------------------------------------------------------
// (b) Bytes from outside: never a panic, never more lenient than
// validate-then-parse.
// ---------------------------------------------------------------------

/// `parse_bytes` must be exactly `from_utf8` then `parse`; and whatever
/// it accepts must re-encode to a document that parses to itself.
fn assert_bytes_contract(bytes: &[u8]) {
    let got = Json::parse_bytes(bytes);
    match std::str::from_utf8(bytes) {
        Ok(text) => assert_eq!(got, Json::parse(text), "{bytes:?}"),
        Err(e) => {
            let err = got.expect_err("invalid UTF-8 must be refused");
            assert_eq!(err.pos, e.valid_up_to(), "{bytes:?}");
        }
    }
    if let Ok(value) = Json::parse_bytes(bytes) {
        assert_eq!(Json::parse(&value.dump()), Ok(value), "{bytes:?}");
    }
}

fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    let text = |rng: &mut TestRng| -> String {
        (0..rng.gen_range(0usize..6))
            .map(|_| PIECES[rng.gen_range(0usize..10)])
            .collect::<String>()
            + ["", "\"", "\\", "\n", "\u{1}"][rng.gen_range(0usize..5)]
    };
    match rng.gen_range(0u32..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<bool>()),
        2 => Json::Num(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 8.0),
        3 => Json::Str(text(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0usize..4))
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..4))
                .map(|_| (text(rng), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A valid document with a few bytes damaged.
struct MutatedDocument;

impl Strategy for MutatedDocument {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let bytes = arb_json(rng, 3).dump().into_bytes();
        MutatedDocument::damage(rng, bytes)
    }
}

impl MutatedDocument {
    /// A few bytes of `bytes` flipped, replaced, inserted, removed or
    /// cut off.
    fn damage(rng: &mut TestRng, mut bytes: Vec<u8>) -> Vec<u8> {
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0usize..bytes.len().max(1));
            match rng.gen_range(0u32..5) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.gen_range(0u32..8),
                1 if !bytes.is_empty() => bytes[at] = rng.gen::<u8>(),
                2 => bytes.insert(at, rng.gen::<u8>()),
                3 if !bytes.is_empty() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
        bytes
    }
}

/// Bytes with no structure at all, over an alphabet where JSON
/// punctuation and UTF-8 lead/continuation bytes are common.
struct ArbitraryBytes;

impl Strategy for ArbitraryBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        const COMMON: &[u8] = b"\"\\{}[]:,ut0e-. \n\x00\x1f\x7f\x80\xbf\xc3\xe2\xf0\xff";
        (0..rng.gen_range(0usize..24))
            .map(|_| {
                if rng.gen_bool(0.8) {
                    COMMON[rng.gen_range(0usize..COMMON.len())]
                } else {
                    rng.gen::<u8>()
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn string_scanning_agrees_with_the_reference_at_every_cut(doc in StringDocument) {
        for cut in 0..=doc.len() {
            assert_agrees(&doc.as_bytes()[..cut]);
        }
    }

    #[test]
    fn mutated_documents_never_panic_or_slip_through(bytes in MutatedDocument) {
        assert_bytes_contract(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_or_slip_through(bytes in ArbitraryBytes) {
        assert_bytes_contract(&bytes);
    }

    #[test]
    fn dump_into_bytes_is_dump(value in MutatedDocument) {
        // Whatever parses: the byte sink and the string sink agree.
        if let Ok(value) = Json::parse_bytes(&value) {
            let mut bytes = b"prefix".to_vec();
            value.dump_into(&mut bytes).unwrap();
            prop_assert_eq!(String::from_utf8(bytes).unwrap(), format!("prefix{}", value.dump()));
        }
    }
}

#[test]
fn invalid_utf8_is_refused_at_the_first_bad_byte() {
    let err = Json::parse_bytes(b"{\"name\":\"caf\xff\"}").unwrap_err();
    assert_eq!(
        err,
        WireError {
            msg: "invalid UTF-8".into(),
            pos: 12
        }
    );
    // A multi-byte scalar cut short by the end of the buffer.
    assert_eq!(Json::parse_bytes(b"\"\xe2\x86").unwrap_err().pos, 1);
}

// ---------------------------------------------------------------------
// (c) Linear time: cost per byte does not grow with the document.
// ---------------------------------------------------------------------

/// A string-heavy document shaped like a state-image section: records
/// of decimal-string integers, hex-string floats and names.
fn image_like_document(target_bytes: usize) -> String {
    let mut rows = Vec::new();
    let mut size = 0;
    let mut i = 0u64;
    while size < target_bytes {
        let row = Json::obj([
            ("id", Json::str(i.to_string())),
            ("owner", Json::str(format!("séller-{} \"q\" →", i % 97))),
            (
                "bits",
                Json::str(format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15))),
            ),
            (
                "cells",
                Json::Arr(
                    (0..4)
                        .map(|c| Json::Arr(vec![Json::str("F"), Json::str((i + c).to_string())]))
                        .collect(),
                ),
            ),
        ]);
        size += row.dump().len() + 1;
        rows.push(row);
        i += 1;
    }
    Json::obj([("version", Json::str("2")), ("rows", Json::Arr(rows))]).dump()
}

/// Best-of-`runs` nanoseconds per byte (the minimum is the run the
/// machine disturbed least).
fn parse_ns_per_byte(doc: &str, runs: usize) -> f64 {
    let best = (0..runs)
        .map(|_| {
            let started = Instant::now();
            let parsed = Json::parse(std::hint::black_box(doc)).unwrap();
            let elapsed = started.elapsed();
            std::hint::black_box(parsed);
            elapsed
        })
        .min()
        .unwrap_or(Duration::ZERO);
    best.as_nanos() as f64 / doc.len() as f64
}

#[test]
fn parse_cost_per_byte_is_flat_from_64_kib_to_4_mib() {
    let small = image_like_document(64 * 1024);
    let large = image_like_document(4 * 1024 * 1024);
    let small_ns = parse_ns_per_byte(&small, 16);
    let large_ns = parse_ns_per_byte(&large, 3);
    // The quadratic scanner was ~60x apart here; a linear one differs
    // only by what the allocator and the caches make of a bigger tree.
    assert!(
        large_ns < 4.0 * small_ns,
        "parse is super-linear: {small_ns:.1} ns/B at {} B, {large_ns:.1} ns/B at {} B",
        small.len(),
        large.len()
    );
}

// ---------------------------------------------------------------------
// (d) The snapshot reader: a node decodes the header and each
// CRC-checked section straight from the file's bytes. Whatever a
// section holds, it must never panic and must accept exactly what
// `Json::parse_bytes` and `state::decode` accept (`load_file` is that
// tree path); whatever the header holds, both loaders must refuse it
// unless it is a canonical header.
// ---------------------------------------------------------------------

fn honest_market() -> MarketConfig {
    MarketConfig::external(11).with_design(MarketDesign::posted_price_baseline(5.0))
}

/// A small honest command stream: strings with escapes, floats, an
/// offer the first round clears, and an offer left pending after it.
fn honest_commands() -> Vec<Command> {
    let table = TableSpec {
        name: "cities \"q\" π\n".into(),
        columns: vec![
            ("city".into(), ColType::Str),
            ("pop".into(), ColType::Float),
        ],
        rows: vec![
            vec![CellSpec::Str("Zürich\t→".into()), CellSpec::Float(0.1)],
            vec![CellSpec::Null, CellSpec::Float(-2.5)],
        ],
    };
    vec![
        Command::Enroll {
            name: "s".into(),
            role: "seller".into(),
        },
        Command::Enroll {
            name: "b".into(),
            role: "buyer".into(),
        },
        Command::Deposit {
            account: "b".into(),
            amount: 40.0,
        },
        Command::SubmitAsk(AskSpec {
            seller: "s".into(),
            table,
            reserve: None,
            license: None,
        }),
        Command::SubmitOffer(OfferSpec::simple("b", ["city", "pop"], 9.0)),
        Command::RunRound { rounds: 1 },
        Command::SubmitOffer(OfferSpec::simple("b", ["elevation"], 3.0)),
    ]
}

/// Where the first round of [`honest_commands`] starts.
const BEFORE_ROUND_ONE: usize = 5;

/// The frame payloads (header, substrate, shards, router) of a small
/// honest two-shard snapshot of [`honest_commands`].
fn honest_sections() -> &'static Vec<Vec<u8>> {
    static SECTIONS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SECTIONS.get_or_init(|| {
        let router = ShardRouter::new(&honest_market(), 2);
        for cmd in honest_commands() {
            let _ = router.apply(&cmd);
        }
        let dir = ScratchDir::new("wire-parser-sections");
        let (path, _) = snapshot::write_image(dir.path(), 7, &router.export_state()).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let mut sections = Vec::new();
        let mut rest = &bytes[..];
        while rest.len() >= 8 {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            sections.push(rest[8..8 + len].to_vec());
            rest = &rest[8 + len..];
        }
        assert_eq!(sections.len(), 5, "header, substrate, two shards, router");
        sections
    })
}

/// The honest file with section `at` holding `payload`, CRC-valid.
fn snapshot_with(at: usize, payload: &[u8]) -> Vec<u8> {
    let mut file = Vec::new();
    for (i, section) in honest_sections().iter().enumerate() {
        let payload = if i == at { payload } else { section };
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
    }
    file
}

/// Write `file` and read it with both loaders: they must both refuse,
/// or both accept and decode to images with equal digests. Returns
/// whether they accepted.
fn loaders_agree_on(file: &[u8]) -> bool {
    let dir = ScratchDir::new("wire-parser-loaders");
    let path = dir.join("snapshot-00000000000000000007.dmp");
    std::fs::write(&path, file).unwrap();
    let streamed = snapshot::load_image(&path)
        .ok()
        .map(|f| state::digest(&f.image));
    let trees = snapshot::load_file(&path)
        .and_then(|snap| state::decode(&snap.state).ok())
        .map(|image| state::digest(&image));
    assert_eq!(streamed, trees, "the loaders disagree");
    streamed.is_some()
}

/// What hostile input holds instead of `honest`: the honest text
/// damaged as [`MutatedDocument`] damages a document, or cut short, or
/// [`ArbitraryBytes`].
fn hostile(rng: &mut TestRng, honest: &[u8]) -> Vec<u8> {
    match rng.gen_range(0u32..3) {
        0 => MutatedDocument::damage(rng, honest.to_vec()),
        1 => honest[..rng.gen_range(0usize..=honest.len())].to_vec(),
        _ => ArbitraryBytes.generate(rng),
    }
}

/// A frame (the header, or a section) and what it holds instead:
/// [`hostile`].
struct HostileSection;

impl Strategy for HostileSection {
    type Value = (usize, Vec<u8>);
    fn generate(&self, rng: &mut TestRng) -> (usize, Vec<u8>) {
        let sections = honest_sections();
        let at = rng.gen_range(0usize..sections.len());
        (at, hostile(rng, &sections[at]))
    }
}

/// The seq and digest of `header` if it is a canonical header of a
/// format-v3 snapshot of two shards: exactly its four members, in
/// order, each in the one spelling the writer uses.
fn canonical_header(header: &Json) -> Option<(u64, u64)> {
    let Json::Obj(pairs) = header else {
        return None;
    };
    let [(k0, Json::Str(version)), (k1, Json::Str(seq)), (k2, Json::Str(digest)), (k3, Json::Str(shards))] =
        pairs.as_slice()
    else {
        return None;
    };
    let shape = [k0, k1, k2, k3] == ["version", "seq", "digest", "shards"]
        && version == "3"
        && shards == "2";
    let seq = seq.parse::<u64>().ok().filter(|n| n.to_string() == *seq);
    let hex = digest.len() == 16
        && digest
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let digest = u64::from_str_radix(digest, 16).ok().filter(|_| hex);
    shape.then_some((seq?, digest?))
}

/// A file whose header frame holds `payload`: the loaders agree on it,
/// and read a seq and digest exactly when it is a canonical header.
fn loaders_read_the_header_only_when_canonical(payload: &[u8]) {
    let dir = ScratchDir::new("wire-parser-header");
    let path = dir.join("snapshot-00000000000000000007.dmp");
    std::fs::write(&path, snapshot_with(0, payload)).unwrap();
    let streamed = snapshot::load_image(&path).ok().map(|f| (f.seq, f.digest));
    let trees = snapshot::load_file(&path).map(|snap| (snap.seq, snap.digest));
    assert_eq!(streamed, trees, "the loaders disagree");
    let expected = Json::parse_bytes(payload)
        .ok()
        .and_then(|header| canonical_header(&header));
    assert_eq!(streamed, expected, "{}", String::from_utf8_lossy(payload));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(640))]

    #[test]
    fn hostile_sections_never_panic_and_the_loaders_agree(hostile in HostileSection) {
        let (at, payload) = hostile;
        loaders_agree_on(&snapshot_with(at, &payload));
        if at == 0 {
            loaders_read_the_header_only_when_canonical(&payload);
        }
    }
}

#[test]
fn the_honest_snapshot_and_reformatted_sections_load_alike() {
    assert!(loaders_agree_on(&snapshot_with(0, &honest_sections()[0])));
    loaders_read_the_header_only_when_canonical(&honest_sections()[0]);
    // Whitespace between every token and escapes for plain characters
    // are the same document to the parser, so to both loaders.
    for at in 1..honest_sections().len() {
        let text = std::str::from_utf8(&honest_sections()[at]).unwrap();
        let spaced = text
            .replace(',', " ,\n")
            .replace(':', "\t: ")
            .replace('[', "[ ")
            .replace('}', "\r\n}");
        assert!(loaders_agree_on(&snapshot_with(at, spaced.as_bytes())));
        let escaped = text.replacen("\"k\"", "\"\\u006b\"", 1);
        assert!(loaders_agree_on(&snapshot_with(at, escaped.as_bytes())));
    }
}

#[test]
fn invalid_utf8_in_a_section_is_refused_by_both_loaders() {
    for at in 1..honest_sections().len() {
        let mut bytes = honest_sections()[at].clone();
        let quote = bytes.iter().position(|&b| b == b'"').unwrap();
        bytes.insert(quote + 1, 0xff);
        assert!(!loaders_agree_on(&snapshot_with(at, &bytes)));
    }
}

#[test]
fn the_depth_limit_is_the_parsers_in_both_loaders() {
    // A fused cell nested `k` deep in place of the first float cell:
    // each level opens three containers, so some `k` crosses the
    // parser's 64-level limit; both loaders must refuse from there on.
    let substrate = std::str::from_utf8(&honest_sections()[1]).unwrap();
    let float = substrate.find("[\"F\",\"").unwrap();
    let end = float + substrate[float..].find(']').unwrap() + 1;
    let verdicts: Vec<bool> = (0..30)
        .flat_map(|k| {
            ["[\"N\"]", "[\"M\",[]]", "[\"S\",\"x\"]"].map(|inner| {
                let nested =
                    (0..k).fold(inner.to_string(), |v, _| format!("[\"M\",[[\"1\",{v}]]]"));
                let text = format!("{}{nested}{}", &substrate[..float], &substrate[end..]);
                loaders_agree_on(&snapshot_with(1, text.as_bytes()))
            })
        })
        .collect();
    assert!(verdicts.first() == Some(&true) && verdicts.last() == Some(&false));
}

// ---------------------------------------------------------------------
// (e) The internal RPC bodies: a worker decodes every body, and the
// coordinator a candidates reply, straight from the bytes. Neither may
// panic on anything, and a refused RPC must leave the worker's replica
// where it was.
// ---------------------------------------------------------------------

/// Round 1 of [`honest_commands`] as the wire carries it: the settle
/// body shipping both shards, a candidates reply carrying both exports
/// and the candidates request asking for them, an apply body for the
/// command after the round, and a restore body for the state the round
/// starts from. All are written in the tree form, whose dump the
/// streamed writers equal byte for byte.
struct HonestRound {
    settle: Vec<u8>,
    reply: Vec<u8>,
    apply: Vec<u8>,
    candidates: Vec<u8>,
    restore: Vec<u8>,
}

fn honest_round() -> &'static HonestRound {
    static ROUND: OnceLock<HonestRound> = OnceLock::new();
    ROUND.get_or_init(|| {
        let replica = ShardRouter::new(&honest_market(), 2);
        for cmd in &honest_commands()[..BEFORE_ROUND_ONE] {
            let _ = replica.apply(cmd);
        }
        let image = state::encode(&replica.export_state());
        let digest = image.digest();
        let seed = replica.draw_round_seed();
        let exports: Vec<_> = replica
            .shards()
            .iter()
            .map(|m| m.begin_round_exported(seed).1)
            .collect();
        assert!(!exports[0].bids.is_empty() || !exports[1].bids.is_empty());
        let fp = fresh_worker(false).fingerprint().to_string();
        let settle = Json::obj([
            ("fp", Json::str(&fp)),
            ("round", Json::str("1")),
            ("seed", Json::str(seed.to_string())),
            ("shards", Json::Arr(vec![Json::str("0"), Json::str("1")])),
            ("exports", codec::encode_exports(&exports)),
        ]);
        let reply = Json::obj([
            ("round", Json::str("1")),
            ("exports", codec::encode_exports(&exports)),
        ]);
        let apply = Json::obj([
            ("fp", Json::str(&fp)),
            ("seq", Json::str((BEFORE_ROUND_ONE + 2).to_string())),
            ("cmd", honest_commands()[BEFORE_ROUND_ONE + 1].encode()),
        ]);
        let candidates = Json::obj([
            ("fp", Json::str(&fp)),
            ("round", Json::str("1")),
            ("seed", Json::str(seed.to_string())),
            ("shards", Json::Arr(vec![Json::str("0"), Json::str("1")])),
        ]);
        let restore = Json::obj([
            ("fp", Json::str(&fp)),
            ("applied", Json::str(BEFORE_ROUND_ONE.to_string())),
            ("digest", Json::str(digest.to_string())),
            ("state", image.into_json()),
        ]);
        HonestRound {
            settle: settle.dump().into_bytes(),
            reply: reply.dump().into_bytes(),
            apply: apply.dump().into_bytes(),
            candidates: candidates.dump().into_bytes(),
            restore: restore.dump().into_bytes(),
        }
    })
}

/// A worker just before round 1 of [`honest_commands`], with shard 0's
/// candidate phase stashed if `stash`.
fn fresh_worker(stash: bool) -> WorkerNode {
    let worker = WorkerNode::new(WorkerConfig::new(honest_market(), 2));
    for cmd in &honest_commands()[..BEFORE_ROUND_ONE] {
        let _ = worker.router().apply(cmd);
    }
    if stash {
        let seed = worker.router().predict_round_seed();
        let body = Json::obj([
            ("fp", Json::str(worker.fingerprint())),
            ("round", Json::str("1")),
            ("seed", Json::str(seed.to_string())),
            ("shards", Json::Arr(vec![Json::str("0")])),
        ]);
        let resp = worker.handle(&post("/internal/candidates", body.dump().into_bytes()));
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    worker
}

fn post(path: &str, body: Vec<u8>) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        headers: Vec::new(),
        body,
    }
}

/// What a refused settle must leave alone.
fn watermarks(worker: &WorkerNode) -> (u64, u64, u64) {
    let router = worker.router();
    (
        router.predict_round_seed(),
        router.rounds_completed(),
        router.state_digest(),
    )
}

/// One of the round's honest bodies, as [`hostile`] input.
struct HostileBody(fn(&HonestRound) -> &[u8]);

impl Strategy for HostileBody {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        hostile(rng, (self.0)(honest_round()))
    }
}

/// Send `body` to a worker just before round 1; whatever it answers, a
/// refusal must have left the replica where it was.
fn a_refusal_moves_nothing(path: &str, body: Vec<u8>, stash: bool) -> Result<(), TestCaseError> {
    let worker = fresh_worker(stash);
    let before = watermarks(&worker);
    let resp = worker.handle(&post(path, body));
    if resp.status != 200 {
        prop_assert_eq!(watermarks(&worker), before, "refused with {}", resp.body);
    }
    Ok(())
}

#[test]
fn the_honest_round_bodies_are_accepted() {
    for stash in [false, true] {
        let worker = fresh_worker(stash);
        let resp = worker.handle(&post("/internal/settle", honest_round().settle.clone()));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().rounds_completed(), 1);
    }
    assert!(codec::decode_candidates_reply(&honest_round().reply, 1, 2).is_ok());
    let round = honest_round();
    for (path, body) in [
        ("/internal/candidates", &round.candidates),
        ("/internal/apply", &round.apply),
        ("/internal/restore", &round.restore),
    ] {
        let worker = fresh_worker(false);
        let resp = worker.handle(&post(path, body.clone()));
        assert_eq!(resp.status, 200, "{path}: {}", resp.body);
    }
}

#[test]
fn an_apply_body_is_read_under_the_parsers_depth_limit() {
    // `cmd` is read as one value, and the command grammar ignores a
    // member it does not know: the body is accepted exactly when it
    // parses whole.
    let verdicts: Vec<bool> = (60..70)
        .map(|k| {
            let worker = fresh_worker(false);
            let deep = format!("{}{}", "[".repeat(k), "]".repeat(k));
            let body = format!(
                r#"{{"fp":"{}","seq":"6","cmd":{{"op":"enroll","name":"c","role":"buyer","x":{deep}}}}}"#,
                worker.fingerprint()
            );
            let resp = worker.handle(&post("/internal/apply", body.clone().into_bytes()));
            assert_eq!(resp.status == 200, Json::parse(&body).is_ok(), "{k} deep");
            resp.status == 200
        })
        .collect();
    assert!(verdicts.first() == Some(&true) && verdicts.last() == Some(&false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_settle_bodies_never_panic_or_move_a_refusing_worker(
        body in HostileBody(|r| &r.settle),
        stash in proptest::bool::ANY,
    ) {
        a_refusal_moves_nothing("/internal/settle", body, stash)?;
    }

    #[test]
    fn hostile_candidates_bodies_never_panic_or_move_a_refusing_worker(
        body in HostileBody(|r| &r.candidates),
        stash in proptest::bool::ANY,
    ) {
        a_refusal_moves_nothing("/internal/candidates", body, stash)?;
    }

    #[test]
    fn hostile_apply_bodies_never_panic_or_move_a_refusing_worker(
        body in HostileBody(|r| &r.apply),
        stash in proptest::bool::ANY,
    ) {
        a_refusal_moves_nothing("/internal/apply", body, stash)?;
    }

    #[test]
    fn hostile_restore_bodies_never_panic_or_move_a_refusing_worker(
        body in HostileBody(|r| &r.restore),
        stash in proptest::bool::ANY,
    ) {
        a_refusal_moves_nothing("/internal/restore", body, stash)?;
    }

    #[test]
    fn hostile_candidate_replies_never_panic_and_agree_with_the_tree(
        body in HostileBody(|r| &r.reply),
    ) {
        // Whatever the streamed decoder accepts, the tree adapter reads
        // as the same exports.
        if let Ok(exports) = codec::decode_candidates_reply(&body, 1, 2) {
            let tree = Json::parse_bytes(&body).ok().and_then(|j| {
                j.get("exports").and_then(|e| codec::decode_exports(e, 2).ok())
            });
            prop_assert_eq!(tree, Some(exports));
        }
    }
}

// ---------------------------------------------------------------------
// (f) The command grammar: journal records and write-route bodies are
// decoded straight from their bytes. The tree decoder that grammar
// replaced is kept below, verbatim but for free functions in place of
// methods, as the oracle: on any bytes, the streamed decoder must never
// panic and must accept exactly what it accepted, as the same command.
// ---------------------------------------------------------------------

/// An optional field: `None` when absent, `read` of it when present.
/// Strict: a field `read` refuses is an error naming what it
/// `must_be`, never a silent default (the journaled command must mean
/// what the client said).
fn opt<'a, T>(
    json: &'a Json,
    key: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
    must_be: &str,
) -> Result<Option<T>, WireError> {
    json.get(key)
        .map(|j| read(j).ok_or_else(|| WireError::new(format!("'{key}' must be {must_be}"))))
        .transpose()
}

fn str_list(items: &[Json]) -> Result<Vec<String>, WireError> {
    items
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| WireError::new("expected string in list"))
        })
        .collect()
}

/// `Command::decode` of the tree decoder.
fn tree_command(json: &Json) -> Result<Command, WireError> {
    let op = json.req_str("op")?;
    match op.as_str() {
        "enroll" => Ok(Command::Enroll {
            name: json.req_str("name")?,
            role: opt(json, "role", Json::as_str, "a string")?
                .unwrap_or("participant")
                .to_string(),
        }),
        "deposit" => Ok(Command::Deposit {
            account: json.req_str("account")?,
            amount: json.req_f64("amount")?,
        }),
        "offer" => Ok(Command::SubmitOffer(tree_offer(json)?)),
        "ask" => Ok(Command::SubmitAsk(tree_ask(json)?)),
        "grant_license" => Ok(Command::GrantLicense {
            seller: json.req_str("seller")?,
            dataset: json.req_u64("dataset")?,
            license: dec_license(
                json.get("license")
                    .ok_or_else(|| WireError::new("missing field 'license'"))?,
            )?,
        }),
        "run_round" => {
            let rounds = opt(json, "rounds", Json::as_u64, "a positive integer")?.unwrap_or(1);
            if rounds == 0 || rounds > Command::MAX_ROUNDS_PER_COMMAND {
                return Err(WireError::new(format!(
                    "'rounds' must be in 1..={}",
                    Command::MAX_ROUNDS_PER_COMMAND
                )));
            }
            Ok(Command::RunRound {
                rounds: rounds as u32,
            })
        }
        other => Err(WireError::new(format!("unknown op '{other}'"))),
    }
}

fn tree_offer(json: &Json) -> Result<OfferSpec, WireError> {
    Ok(OfferSpec {
        buyer: json.req_str("buyer")?,
        attributes: str_list(json.req_arr("attributes")?)?,
        keywords: str_list(opt(json, "keywords", Json::as_arr, "an array")?.unwrap_or(&[]))?,
        task: match json.get("task") {
            Some(j) => dec_task(j)?,
            None => TaskKind::AttributeCoverage,
        },
        curve: dec_curve(
            json.get("curve")
                .ok_or_else(|| WireError::new("missing field 'curve'"))?,
        )?,
        min_rows: opt(json, "min_rows", Json::as_u64, "a non-negative integer")?.unwrap_or(1),
        purpose: opt(json, "purpose", Json::as_str, "a string")?
            .unwrap_or("analytics")
            .to_string(),
    })
}

fn tree_ask(json: &Json) -> Result<AskSpec, WireError> {
    Ok(AskSpec {
        seller: json.req_str("seller")?,
        table: tree_table(
            json.get("table")
                .ok_or_else(|| WireError::new("missing field 'table'"))?,
        )?,
        reserve: opt(
            json,
            "reserve",
            |j| j.as_f64().filter(|r| r.is_finite()),
            "a finite number",
        )?,
        license: json.get("license").map(dec_license).transpose()?,
    })
}

fn col_type(s: &str) -> Result<ColType, WireError> {
    match s {
        "int" => Ok(ColType::Int),
        "float" => Ok(ColType::Float),
        "str" => Ok(ColType::Str),
        "bool" => Ok(ColType::Bool),
        "timestamp" => Ok(ColType::Timestamp),
        other => Err(WireError::new(format!("unknown column type '{other}'"))),
    }
}

fn tree_cell(json: &Json, col: ColType) -> Result<CellSpec, WireError> {
    match (json, col) {
        (Json::Null, _) => Ok(CellSpec::Null),
        (Json::Num(n), ColType::Int | ColType::Timestamp) => {
            if n.fract() != 0.0 || n.abs() > 2f64.powi(53) {
                return Err(WireError::new("expected integer cell"));
            }
            Ok(CellSpec::Int(*n as i64))
        }
        (Json::Num(n), ColType::Float) => Ok(CellSpec::Float(*n)),
        (Json::Str(s), ColType::Str) => Ok(CellSpec::Str(s.clone())),
        (Json::Bool(b), ColType::Bool) => Ok(CellSpec::Bool(*b)),
        _ => Err(WireError::new("cell does not match column type")),
    }
}

fn tree_table(json: &Json) -> Result<TableSpec, WireError> {
    let name = json.req_str("name")?;
    let mut columns = Vec::new();
    for col in json.req_arr("columns")? {
        let pair = col
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| WireError::new("column must be a [name, type] pair"))?;
        let cname = pair[0]
            .as_str()
            .ok_or_else(|| WireError::new("column name must be a string"))?;
        let ctype = pair[1]
            .as_str()
            .ok_or_else(|| WireError::new("column type must be a string"))?;
        columns.push((cname.to_string(), col_type(ctype)?));
    }
    let mut rows = Vec::new();
    for row in json.req_arr("rows")? {
        let cells = row
            .as_arr()
            .ok_or_else(|| WireError::new("row must be an array"))?;
        if cells.len() != columns.len() {
            return Err(WireError::new(format!(
                "row has {} cells, schema has {} columns",
                cells.len(),
                columns.len()
            )));
        }
        rows.push(
            cells
                .iter()
                .zip(&columns)
                .map(|(cell, (_, ty))| tree_cell(cell, *ty))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    Ok(TableSpec {
        name,
        columns,
        rows,
    })
}

fn dec_task(json: &Json) -> Result<TaskKind, WireError> {
    match json.req_str("kind")?.as_str() {
        "attribute_coverage" => Ok(TaskKind::AttributeCoverage),
        "classification" => Ok(TaskKind::Classification {
            label: json.req_str("label")?,
        }),
        "regression" => Ok(TaskKind::Regression {
            target: json.req_str("target")?,
        }),
        "aggregate_completeness" => Ok(TaskKind::AggregateCompleteness {
            group_by: json.req_str("group_by")?,
            expected_groups: usize::try_from(json.req_u64("expected_groups")?)
                .map_err(|_| WireError::new("'expected_groups' exceeds usize range"))?,
        }),
        other => Err(WireError::new(format!("unknown task kind '{other}'"))),
    }
}

fn dec_curve(json: &Json) -> Result<PriceCurve, WireError> {
    match json.req_str("kind")?.as_str() {
        "constant" => Ok(PriceCurve::Constant(json.req_f64("price")?)),
        "linear" => Ok(PriceCurve::Linear {
            min_satisfaction: json.req_f64("min_satisfaction")?,
            max_price: json.req_f64("max_price")?,
        }),
        "step" => {
            let mut steps = Vec::new();
            for step in json.req_arr("steps")? {
                let pair = step
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| WireError::new("step must be a [satisfaction, price] pair"))?;
                let t = pair[0]
                    .as_f64()
                    .ok_or_else(|| WireError::new("step threshold must be a number"))?;
                let p = pair[1]
                    .as_f64()
                    .ok_or_else(|| WireError::new("step price must be a number"))?;
                steps.push((t, p));
            }
            Ok(PriceCurve::Step(steps))
        }
        other => Err(WireError::new(format!("unknown curve kind '{other}'"))),
    }
}

fn dec_license(json: &Json) -> Result<License, WireError> {
    match json.req_str("kind")?.as_str() {
        "standard" => Ok(License::Standard),
        "exclusive" => Ok(License::Exclusive {
            tax_rate: json.req_f64("tax_rate")?,
            hold_rounds: u32::try_from(json.req_u64("hold_rounds")?)
                .map_err(|_| WireError::new("'hold_rounds' exceeds u32 range"))?,
        }),
        "ownership_transfer" => Ok(License::OwnershipTransfer),
        "non_transferable" => Ok(License::NonTransferable),
        other => Err(WireError::new(format!("unknown license kind '{other}'"))),
    }
}

/// The journal's record decode over the tree decoder.
fn tree_record(payload: &[u8]) -> Option<(u64, Command)> {
    let json = Json::parse_bytes(payload).ok()?;
    let seq = json.req_u64("seq").ok()?;
    let cmd = tree_command(json.get("cmd")?).ok()?;
    Some((seq, cmd))
}

/// A write route's decode over the tree decoder: the command and
/// `/enroll`'s opening deposit, or `None` for a 400 before anything is
/// journaled.
fn tree_route(op: &str, body: &[u8]) -> Option<(Command, Option<f64>)> {
    let body = if body.is_empty() {
        Json::Obj(Vec::new())
    } else {
        Json::parse_bytes(body).ok()?
    };
    let Json::Obj(pairs) = body else {
        return None;
    };
    let json = Json::Obj(
        std::iter::once(("op".to_string(), Json::str(op)))
            .chain(pairs)
            .collect(),
    );
    let cmd = tree_command(&json).ok()?;
    let deposit = match json.get("deposit") {
        Some(j) if op == "enroll" => {
            let amount = j.as_f64().unwrap_or(f64::NAN);
            if !(0.0..=MAX_AMOUNT).contains(&amount) {
                return None;
            }
            Some(amount)
        }
        _ => None,
    };
    Some((cmd, deposit))
}

/// [`honest_commands`] and one command of every other shape: each task,
/// curve and licence, a reserve, and a timestamp column.
fn grammar_commands() -> Vec<Command> {
    let mut cmds = honest_commands();
    let offer = |task, curve| {
        Command::SubmitOffer(OfferSpec {
            buyer: "b".into(),
            attributes: vec!["city".into()],
            keywords: vec!["weather".into(), "\u{1F600}".into()],
            task,
            curve,
            min_rows: 2,
            purpose: "research".into(),
        })
    };
    cmds.extend([
        offer(
            TaskKind::Classification { label: "l".into() },
            PriceCurve::Linear {
                min_satisfaction: 0.5,
                max_price: 12.25,
            },
        ),
        offer(
            TaskKind::AggregateCompleteness {
                group_by: "city".into(),
                expected_groups: 4,
            },
            PriceCurve::Step(vec![(0.5, 1.0), (0.75, 3.5)]),
        ),
        offer(
            TaskKind::Regression { target: "t".into() },
            PriceCurve::Constant(1e-3),
        ),
        Command::SubmitAsk(AskSpec {
            seller: "s".into(),
            table: TableSpec {
                name: "ts".into(),
                columns: vec![
                    ("at".into(), ColType::Timestamp),
                    ("ok".into(), ColType::Bool),
                ],
                rows: vec![vec![CellSpec::Int(-3), CellSpec::Bool(true)]],
            },
            reserve: Some(2.5),
            license: Some(License::Exclusive {
                tax_rate: 0.25,
                hold_rounds: 2,
            }),
        }),
        Command::GrantLicense {
            seller: "s".into(),
            dataset: 0,
            license: License::OwnershipTransfer,
        },
        Command::RunRound { rounds: 3 },
    ]);
    cmds
}

/// Every command of [`grammar_commands`] as a journal payload, in the
/// bytes the journal writes.
fn honest_records() -> &'static Vec<Vec<u8>> {
    static RECORDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let dir = ScratchDir::new("wire-parser-records");
        let path = dir.join("journal.wal");
        let (mut journal, _) = Journal::open(&path, false).unwrap();
        for (seq, cmd) in (1..).zip(grammar_commands()) {
            journal.append(seq, &cmd).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let mut records = Vec::new();
        let mut rest = &bytes[..];
        while rest.len() >= 8 {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            records.push(rest[8..8 + len].to_vec());
            rest = &rest[8 + len..];
        }
        assert_eq!(records.len(), grammar_commands().len());
        records
    })
}

/// A journal holding one CRC-intact frame of `payload` replays exactly
/// the record the tree decoder read from it, or none.
fn the_journal_reads_what_the_tree_read(payload: &[u8]) {
    let dir = ScratchDir::new("wire-parser-record");
    let path = dir.join("journal.wal");
    let mut file = (payload.len() as u32).to_le_bytes().to_vec();
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(payload);
    std::fs::write(&path, file).unwrap();
    let (_, records) = Journal::open(&path, false).unwrap();
    let expected: Vec<_> = tree_record(payload).into_iter().collect();
    assert_eq!(records, expected, "{}", String::from_utf8_lossy(payload));
}

/// Every command of [`grammar_commands`] that has a write route, as its
/// route, op and body: the command's members without `"op"`, and for an
/// enroll an opening deposit.
fn honest_route_bodies() -> &'static Vec<(&'static str, &'static str, Vec<u8>)> {
    static BODIES: OnceLock<Vec<(&'static str, &'static str, Vec<u8>)>> = OnceLock::new();
    BODIES.get_or_init(|| {
        grammar_commands()
            .iter()
            .map(|cmd| {
                let (path, op) = match cmd {
                    Command::Enroll { .. } => ("/enroll", "enroll"),
                    Command::Deposit { .. } => ("/deposits", "deposit"),
                    Command::SubmitOffer(_) => ("/offers", "offer"),
                    Command::SubmitAsk(_) => ("/asks", "ask"),
                    Command::GrantLicense { .. } => ("/licenses", "grant_license"),
                    Command::RunRound { .. } => ("/rounds", "run_round"),
                };
                let Json::Obj(mut pairs) = cmd.encode() else {
                    panic!("a command encodes to an object");
                };
                pairs.retain(|(k, _)| k != "op");
                if op == "enroll" {
                    pairs.push(("deposit".into(), Json::Num(25.5)));
                }
                (path, op, Json::Obj(pairs).dump().into_bytes())
            })
            .collect()
    })
}

/// Post `body` to `path` on a fresh node: it journals exactly what the
/// tree decoder decoded from it (an enroll's deposit only when the
/// enroll succeeded), or nothing and answers 400.
fn the_route_journals_what_the_tree_read(path: &str, op: &str, body: &[u8]) {
    let dir = ScratchDir::new("wire-parser-route");
    let cfg = ServiceConfig::new(dir.path(), honest_market())
        .with_shards(2)
        .with_fsync(false);
    let node = ServiceNode::open(cfg).unwrap();
    let resp = node.handle(&post(path, body.to_vec()));
    drop(node);
    let (_, records) = Journal::open(dir.join("journal.wal"), false).unwrap();
    let cmds: Vec<Command> = records.into_iter().map(|(_, cmd)| cmd).collect();
    let what = String::from_utf8_lossy(body);
    match tree_route(op, body) {
        None => {
            assert_eq!(resp.status, 400, "{path} {what}: {}", resp.body);
            assert!(cmds.is_empty(), "{path} {what}: journaled {cmds:?}");
        }
        Some((cmd, deposit)) => {
            assert_eq!(cmds.first(), Some(&cmd), "{path} {what}");
            let opening = match (&cmd, deposit) {
                (Command::Enroll { name, .. }, Some(amount)) if resp.status == 200 => {
                    Some(Command::Deposit {
                        account: name.clone(),
                        amount,
                    })
                }
                _ => None,
            };
            assert_eq!(cmds.get(1), opening.as_ref(), "{path} {what}");
            assert!(cmds.len() <= 2, "{path} {what}");
        }
    }
}

/// `json` with every object's members reversed: tags after the members
/// they choose, a table's rows before its columns.
fn reversed(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reversed(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(reversed).collect()),
        other => other.clone(),
    }
}

/// `json` with every object's members repeated after it, each repeat
/// holding `junk`, and an unknown member: none of it may count.
fn padded(json: &Json, junk: &Json) -> Json {
    match json {
        Json::Obj(pairs) => {
            let mut out: Vec<(String, Json)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), padded(v, junk)))
                .collect();
            out.extend(pairs.iter().map(|(k, _)| (k.clone(), junk.clone())));
            out.push(("unknown".into(), junk.clone()));
            Json::Obj(out)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|v| padded(v, junk)).collect()),
        other => other.clone(),
    }
}

#[test]
fn reordered_and_padded_commands_decode_as_the_tree_decoded_them() {
    let junk = Json::obj([("x", Json::Arr(vec![Json::Null, Json::Num(-1.5)]))]);
    for (payload, (path, op, body)) in honest_records().iter().zip(honest_route_bodies()) {
        the_journal_reads_what_the_tree_read(payload);
        the_route_journals_what_the_tree_read(path, op, body);
        let record = Json::parse_bytes(payload).unwrap();
        let body = Json::parse_bytes(body).unwrap();
        for variant in [
            reversed(&record),
            padded(&record, &junk),
            padded(&record, &Json::Null),
        ] {
            assert!(tree_record(variant.dump().as_bytes()).is_some());
            the_journal_reads_what_the_tree_read(variant.dump().as_bytes());
        }
        for variant in [reversed(&body), padded(&body, &junk)] {
            the_route_journals_what_the_tree_read(path, op, variant.dump().as_bytes());
        }
    }
}

/// One of the honest journal payloads, as [`hostile`] input.
struct HostileRecord;

impl Strategy for HostileRecord {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let records = honest_records();
        let at = rng.gen_range(0usize..records.len());
        hostile(rng, &records[at])
    }
}

/// One of the honest write-route bodies, as [`hostile`] input.
struct HostileRouteBody;

impl Strategy for HostileRouteBody {
    type Value = (&'static str, &'static str, Vec<u8>);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let bodies = honest_route_bodies();
        let (path, op, body) = &bodies[rng.gen_range(0usize..bodies.len())];
        (path, op, hostile(rng, body))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_journal_records_replay_as_the_tree_decoded_them(payload in HostileRecord) {
        the_journal_reads_what_the_tree_read(&payload);
    }

    #[test]
    fn hostile_route_bodies_journal_what_the_tree_decoded(body in HostileRouteBody) {
        let (path, op, body) = body;
        the_route_journals_what_the_tree_read(path, op, &body);
    }
}
