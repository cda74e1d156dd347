//! The wire parser against hostile and large input: a differential
//! suite against the scanner it replaced, byte-level fuzzing of
//! `Json::parse_bytes`, a linear-scaling check, and hostile snapshot
//! sections and round-protocol bodies for the decoders that read
//! straight from bytes. (The golden durability files this suite
//! introduced are in `tests/golden.rs`.)

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::codec;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::gateway::Service;
use dmp_service::http::Request;
use dmp_service::journal::crc32;
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
// (d) The snapshot section reader: a node decodes each CRC-checked
// section straight from the file's bytes. Whatever a section holds, it
// must never panic and must accept exactly what `Json::parse_bytes`
// and `state::decode` accept (`load_file` is that tree path).
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

/// A section (never the header) and what it holds instead: [`hostile`].
struct HostileSection;

impl Strategy for HostileSection {
    type Value = (usize, Vec<u8>);
    fn generate(&self, rng: &mut TestRng) -> (usize, Vec<u8>) {
        let sections = honest_sections();
        let at = rng.gen_range(1usize..sections.len());
        (at, hostile(rng, &sections[at]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_sections_never_panic_and_the_loaders_agree(hostile in HostileSection) {
        let (at, payload) = hostile;
        loaders_agree_on(&snapshot_with(at, &payload));
    }
}

#[test]
fn the_honest_snapshot_and_reformatted_sections_load_alike() {
    assert!(loaders_agree_on(&snapshot_with(0, &honest_sections()[0])));
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
// (e) The round protocol's bodies: a worker decodes the settle body,
// and the coordinator a candidates reply, straight from the bytes.
// Neither may panic on anything, and a refused settle must leave the
// worker's replica where it was.
// ---------------------------------------------------------------------

/// Round 1 of [`honest_commands`] as the wire carries it: the settle
/// body shipping both shards, and a candidates reply carrying both
/// exports. Both are written in the tree form, whose dump the streamed
/// writers equal byte for byte.
struct HonestRound {
    settle: Vec<u8>,
    reply: Vec<u8>,
}

fn honest_round() -> &'static HonestRound {
    static ROUND: OnceLock<HonestRound> = OnceLock::new();
    ROUND.get_or_init(|| {
        let replica = ShardRouter::new(&honest_market(), 2);
        for cmd in &honest_commands()[..BEFORE_ROUND_ONE] {
            let _ = replica.apply(cmd);
        }
        let seed = replica.draw_round_seed();
        let exports: Vec<_> = replica
            .shards()
            .iter()
            .map(|m| m.begin_round_exported(seed).1)
            .collect();
        assert!(!exports[0].bids.is_empty() || !exports[1].bids.is_empty());
        let fp = fresh_worker(false).fingerprint().to_string();
        let settle = Json::obj([
            ("fp", Json::str(fp)),
            ("round", Json::str("1")),
            ("seed", Json::str(seed.to_string())),
            ("shards", Json::Arr(vec![Json::str("0"), Json::str("1")])),
            ("exports", codec::encode_exports(&exports)),
        ]);
        let reply = Json::obj([
            ("round", Json::str("1")),
            ("exports", codec::encode_exports(&exports)),
        ]);
        HonestRound {
            settle: settle.dump().into_bytes(),
            reply: reply.dump().into_bytes(),
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

#[test]
fn the_honest_round_bodies_are_accepted() {
    for stash in [false, true] {
        let worker = fresh_worker(stash);
        let resp = worker.handle(&post("/internal/settle", honest_round().settle.clone()));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(worker.router().rounds_completed(), 1);
    }
    assert!(codec::decode_candidates_reply(&honest_round().reply, 1, 2).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_settle_bodies_never_panic_or_move_a_refusing_worker(
        body in HostileBody(|r| &r.settle),
        stash in proptest::bool::ANY,
    ) {
        let worker = fresh_worker(stash);
        let before = watermarks(&worker);
        let resp = worker.handle(&post("/internal/settle", body));
        if resp.status != 200 {
            prop_assert_eq!(watermarks(&worker), before, "refused with {}", resp.body);
        }
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
