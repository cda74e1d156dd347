//! Golden durability files (`tests/fixtures/README.md`): node
//! directories written by named commits, and what today's code owes
//! each of them.
//!
//! * `written_by_v5/` is in the current formats (fingerprint v5,
//!   snapshot format 3): it must load, digest-verify through the image
//!   and through the journal alone, and be written back byte for byte.
//! * `written_by_pr18/` predates the fingerprint covering the whole
//!   `MarketConfig` (fingerprint v4): it must be *refused by name*. Its
//!   journal and snapshot are byte-identical to `written_by_v5/`'s;
//!   only `node.meta` differs.
//! * `written_by_bc9fe67/` predates the digest's redefinition
//!   (fingerprint v3, snapshot format 2): it must be *refused by name*,
//!   never misread — while its image sections, whose encoding did not
//!   change, still re-encode to the same bytes, and its journal, whose
//!   format did not change either, still replays.
//!
//! All three were produced by [`script`]; `regenerate_golden` is the
//! tool for the next deliberate format change.

use std::path::{Path, PathBuf};

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::journal::{crc32, Journal};
use dmp_service::metrics::metrics;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::ShardRouter;
use dmp_service::state::{self, StateImage};
use dmp_service::test_support::ScratchDir;
use dmp_service::{snapshot, Json};

/// Fingerprint v3, snapshot format 2.
const V3: &str = "written_by_bc9fe67";
/// Fingerprint v4, snapshot format 3.
const V4: &str = "written_by_pr18";
const CURRENT: &str = "written_by_v5";
const SNAPSHOT: &str = "snapshot-00000000000000000012.dmp";
/// `snapshot_now()` runs after this many commands of the script.
const SNAPSHOT_AT: usize = 12;

fn golden(dir: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
}

/// The 15 commands every directory holds: enrolments with multi-byte,
/// quoted, escaped and control characters in the names, deposits, three
/// asks, four offers (one from a principal that never enrolled, so it
/// is journaled and rejected), a round, then — after the snapshot — a
/// three-command tail ending in a second round.
fn script() -> Vec<Command> {
    let seller = "sélène \"q\" \\ 😀";
    let buyer = "büyer\ttab\nline \u{1} →";
    let enroll = |name: &str, role: &str| Command::Enroll {
        name: name.into(),
        role: role.into(),
    };
    let deposit = |account: &str, amount: f64| Command::Deposit {
        account: account.into(),
        amount,
    };
    let ask = |i: i64| {
        Command::SubmitAsk(AskSpec {
            seller: seller.into(),
            table: TableSpec {
                name: format!("täble-{i}"),
                columns: vec![
                    ("k".into(), ColType::Int),
                    (format!("a{i}"), ColType::Float),
                    ("note".into(), ColType::Str),
                ],
                rows: (0..6)
                    .map(|r| {
                        vec![
                            CellSpec::Int(r),
                            CellSpec::Float(i as f64 + 1.5 * r as f64),
                            CellSpec::Str(format!("röw \"{r}\" \\ π")),
                        ]
                    })
                    .collect(),
            },
            reserve: Some(1.0),
            license: None,
        })
    };
    let offer = |buyer: &str, attrs: [&str; 2], price: f64| {
        Command::SubmitOffer(OfferSpec::simple(buyer, attrs, price))
    };
    vec![
        enroll(seller, "seller"),
        enroll(buyer, "buyer"),
        enroll("plain", "buyer"),
        deposit(buyer, 500.25),
        deposit("plain", 300.0),
        ask(0),
        ask(1),
        ask(2),
        offer(buyer, ["a0", "a1"], 40.0),
        offer("plain", ["a1", "a2"], 35.0),
        Command::SubmitOffer(OfferSpec::simple("ghost", ["a0"], 5.0)),
        Command::RunRound { rounds: 1 },
        deposit("plain", 7.5),
        offer("plain", ["a0", "a2"], 33.0),
        Command::RunRound { rounds: 1 },
    ]
}

fn market() -> MarketConfig {
    MarketConfig::external(5).with_design(MarketDesign::posted_price_baseline(10.0))
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::new(dir, market())
        .with_shards(2)
        .with_snapshot_every(0)
        .with_fsync(false)
}

/// What an in-memory router holds after the first `commands` of the
/// script — the oracle that owes nothing to any file.
fn reference(commands: usize) -> ShardRouter {
    let router = ShardRouter::new(&market(), 2);
    for cmd in script().iter().take(commands) {
        let _ = router.apply(cmd);
    }
    router
}

/// `key=value` out of a directory's `expected.txt`.
fn expected(dir: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(golden(dir).join("expected.txt")).unwrap();
    let value = text
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("expected.txt has no {key}"));
    let radix = if key.ends_with("digest") { 16 } else { 10 };
    u64::from_str_radix(value, radix).unwrap()
}

/// A private copy of some of a golden directory's files (opening a
/// node may write).
fn copy_of(dir: &str, label: &str, files: &[&str]) -> ScratchDir {
    let copy = ScratchDir::new(label);
    for name in files {
        std::fs::copy(golden(dir).join(name), copy.join(name)).unwrap();
    }
    copy
}

/// The payloads of a framed file (`len: u32 LE, crc: u32 LE, payload`).
fn frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut payloads = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (header, tail) = rest.split_at(8);
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let (payload, tail) = tail.split_at(len);
        assert_eq!(crc32(payload), crc, "golden frame fails its CRC");
        payloads.push(payload);
        rest = tail;
    }
    payloads
}

/// Append the script to a fresh journal and return the file's bytes.
fn script_as_journal_bytes() -> Vec<u8> {
    let out = ScratchDir::new("golden-reappend");
    let (mut journal, _) = Journal::open(out.join("journal.wal"), false).unwrap();
    for (i, cmd) in script().iter().enumerate() {
        journal.append(i as u64 + 1, cmd).unwrap();
    }
    drop(journal);
    std::fs::read(out.join("journal.wal")).unwrap()
}

// ---------------------------------------------------------------------
// The current formats.
// ---------------------------------------------------------------------

#[test]
fn current_snapshot_loads_verifies_and_rewrites_bit_identically() {
    let golden_bytes = std::fs::read(golden(CURRENT).join(SNAPSHOT)).unwrap();
    let snap = snapshot::load_file(&golden(CURRENT).join(SNAPSHOT))
        .expect("a snapshot in the current format must load");
    assert_eq!(snap.seq, expected(CURRENT, "snapshot_seq"));
    assert_eq!(snap.digest, expected(CURRENT, "snapshot_digest"));
    // The digest is of the file's own section bytes, and it is the
    // digest of the state an in-memory router reaches.
    assert_eq!(snap.state.digest(), snap.digest);
    assert_eq!(reference(SNAPSHOT_AT).state_digest(), snap.digest);

    let out = ScratchDir::new("golden-rewrite");
    let rewritten = snapshot::write_snapshot(out.path(), &snap).unwrap();
    assert_eq!(
        std::fs::read(rewritten).unwrap(),
        golden_bytes,
        "snapshot format changed"
    );

    // Restore + tail replay reaches the recorded digest. Full journal
    // replay would reach it too, so also require that the image was
    // the one restored (decoded and digest-verified).
    let dir = copy_of(
        CURRENT,
        "golden-open",
        &["journal.wal", "node.meta", SNAPSHOT],
    );
    let verified = || metrics().recovery_snapshot_verified.get();
    let before = verified();
    let node = ServiceNode::open(config(dir.path())).unwrap();
    assert!(verified() > before, "the golden image was not used");
    assert_eq!(node.applied(), expected(CURRENT, "applied"));
    assert_eq!(node.state_digest(), expected(CURRENT, "digest"));
}

#[test]
fn current_journal_replays_and_rewrites_bit_identically() {
    let golden_bytes = std::fs::read(golden(CURRENT).join("journal.wal")).unwrap();

    // Journal alone: full replay reaches the same state.
    let dir = copy_of(CURRENT, "golden-journal", &["journal.wal", "node.meta"]);
    let node = ServiceNode::open(config(dir.path())).unwrap();
    assert_eq!(node.applied(), expected(CURRENT, "applied"));
    assert_eq!(node.state_digest(), expected(CURRENT, "digest"));
    drop(node);
    assert_eq!(
        std::fs::read(dir.join("journal.wal")).unwrap(),
        golden_bytes,
        "recovery must not rewrite an intact journal"
    );

    // Decode every record and append it again: the same bytes.
    let (_, records) = Journal::open(dir.join("journal.wal"), false).unwrap();
    let commands: Vec<Command> = records.into_iter().map(|(_, cmd)| cmd).collect();
    assert_eq!(commands, script());
    assert_eq!(
        script_as_journal_bytes(),
        golden_bytes,
        "journal record format changed"
    );
}

// ---------------------------------------------------------------------
// Older formats: refused by name, never misread.
// ---------------------------------------------------------------------

#[test]
fn parent_directory_is_refused_by_fingerprint() {
    for (older, version) in [(V4, "v4"), (V3, "v3")] {
        let dir = copy_of(
            older,
            "golden-parent-open",
            &["journal.wal", "node.meta", SNAPSHOT],
        );
        let err = match ServiceNode::open(config(dir.path())) {
            Ok(_) => panic!("a {version} directory opened under v5 code"),
            Err(e) => e.to_string(),
        };
        assert!(
            err.contains(&format!("'{version} shards=2")) && err.contains("'v5 shards=2"),
            "the refusal must name both versions: {err}"
        );
    }
    // v5 changed what node.meta records and nothing else.
    for name in ["journal.wal", SNAPSHOT, "expected.txt"] {
        assert_eq!(
            std::fs::read(golden(V4).join(name)).unwrap(),
            std::fs::read(golden(CURRENT).join(name)).unwrap(),
            "{name} differs between {V4} and {CURRENT}"
        );
    }
}

#[test]
fn parent_snapshot_is_refused_by_version() {
    assert!(snapshot::load_file(&golden(V3).join(SNAPSHOT)).is_none());
    // Smuggled past the fingerprint, it costs a fallback, not a misread:
    // recovery rejects it and replays the journal.
    let dir = copy_of(V3, "golden-parent-snap", &["journal.wal", SNAPSHOT]);
    let rejected = || metrics().recovery_snapshot_rejected.get();
    let before = rejected();
    let node = ServiceNode::open(config(dir.path())).unwrap();
    assert!(rejected() > before);
    assert_eq!(
        node.state_digest(),
        reference(script().len()).state_digest()
    );
}

#[test]
fn parent_image_sections_still_reencode_byte_for_byte() {
    // Only the digest's definition changed; the image encoding did not.
    let bytes = std::fs::read(golden(V3).join(SNAPSHOT)).unwrap();
    let sections = frames(&bytes);
    let (_header, sections) = sections.split_first().unwrap();
    let mut trees: Vec<Json> = sections
        .iter()
        .map(|payload| Json::parse_bytes(payload).unwrap())
        .collect();
    let router_section = trees.pop().unwrap();
    let image = StateImage {
        substrate: trees.remove(0),
        shards: trees,
        router: router_section,
    };
    let router = ShardRouter::new(&market(), 2);
    router
        .restore_state(state::decode(&image).expect("the parent's image decodes"))
        .unwrap();
    let again = state::encode(&router.export_state());
    assert_eq!(again, image);
    let dumped: Vec<Vec<u8>> = again
        .sections()
        .map(|section| section.dump().into_bytes())
        .collect();
    assert_eq!(dumped, sections, "image encoding changed");
    // And it is the state the script reaches at the snapshot.
    assert_eq!(again.digest(), reference(SNAPSHOT_AT).state_digest());
}

#[test]
fn parent_journal_replays_without_its_meta_and_reappends_bit_identically() {
    let golden_bytes = std::fs::read(golden(V3).join("journal.wal")).unwrap();
    let dir = copy_of(V3, "golden-parent-journal", &["journal.wal"]);
    let node = ServiceNode::open(config(dir.path())).unwrap();
    assert_eq!(node.applied(), expected(V3, "applied"));
    assert_eq!(node.applied(), script().len() as u64);
    assert_eq!(
        node.state_digest(),
        reference(script().len()).state_digest()
    );
    drop(node);
    assert_eq!(
        std::fs::read(dir.join("journal.wal")).unwrap(),
        golden_bytes,
        "recovery must not rewrite an intact journal"
    );
    assert_eq!(
        script_as_journal_bytes(),
        golden_bytes,
        "journal record format changed"
    );
}

// ---------------------------------------------------------------------
// The tool.
// ---------------------------------------------------------------------

/// Rewrite `written_by_<this commit>/` with this build's code. Run only
/// for a deliberate format change (one that bumps the fingerprint):
/// rename `CURRENT`, keep the old directory with the refusal tests, then
/// `cargo test -p dmp-service --test golden -- --ignored regenerate_golden`.
#[test]
#[ignore = "writes into tests/fixtures; see the doc comment"]
fn regenerate_golden() {
    let dir = golden(CURRENT);
    let _ = std::fs::remove_dir_all(&dir);
    let node = ServiceNode::open(config(&dir)).unwrap();
    let mut lines = Vec::new();
    for (i, cmd) in script().into_iter().enumerate() {
        let _ = node.apply(cmd);
        if i + 1 == SNAPSHOT_AT {
            lines.push(format!("snapshot_seq={}", node.snapshot_now().unwrap()));
            lines.push(format!("snapshot_digest={:016x}", node.state_digest()));
        }
    }
    lines.push(format!("applied={}", node.applied()));
    lines.push(format!("digest={:016x}", node.state_digest()));
    std::fs::write(dir.join("expected.txt"), lines.join("\n") + "\n").unwrap();
}
