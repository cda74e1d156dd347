//! Compaction crash-injection: kill the checkpoint procedure at every
//! ordering point between "snapshot written" and "journal truncated"
//! and prove recovery is **bit-identical** to the uncrashed node.
//!
//! The checkpoint sequence under bounded retention is:
//!
//! ```text
//! 1. write snapshot tmp            (crash → stale .tmp, journal intact)
//! 2. rename tmp → snapshot-N.dmp   (crash → extra snapshot, journal intact)
//! 3. verify on-disk snapshot       (crash → same as 2)
//! 4. prune old snapshots           (crash → fewer snapshots, journal intact)
//! 5. write journal.compact         (crash → stale .compact, journal intact)
//! 6. rename .compact → journal.wal (crash → truncated journal + snapshot)
//! ```
//!
//! Every intermediate directory state must recover to the same state
//! digest as a node that never crashed, and keep accepting commands.

use std::path::Path;
use std::sync::OnceLock;

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::journal::Journal;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::snapshot;
use dmp_service::test_support::ScratchDir;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 3;
const SNAPSHOT_EVERY: u64 = 6;

fn market_config() -> MarketConfig {
    MarketConfig::external(51).with_design(MarketDesign::posted_price_baseline(11.0))
}

/// A short mixed stream: enough commands to cross several snapshot
/// boundaries (snapshots at 6, 12, 18 for 20 commands).
fn command_stream() -> Vec<Command> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de);
    let mut cmds = Vec::new();
    for i in 0..3 {
        cmds.push(Command::Enroll {
            name: format!("seller{i}"),
            role: "seller".into(),
        });
        cmds.push(Command::Enroll {
            name: format!("buyer{i}"),
            role: "buyer".into(),
        });
        cmds.push(Command::Deposit {
            account: format!("buyer{i}"),
            amount: 300.0,
        });
    }
    while cmds.len() < 19 {
        match rng.gen_range(0u32..3) {
            0 => cmds.push(Command::SubmitAsk(AskSpec {
                seller: format!("seller{}", rng.gen_range(0usize..3)),
                table: TableSpec {
                    name: format!("t{}", cmds.len()),
                    columns: vec![("a".into(), ColType::Float), ("b".into(), ColType::Float)],
                    rows: (0..3)
                        .map(|_| {
                            vec![
                                CellSpec::Float(rng.gen_range(0i64..100) as f64 / 4.0),
                                CellSpec::Float(rng.gen_range(0i64..100) as f64 / 4.0),
                            ]
                        })
                        .collect(),
                },
                reserve: None,
                license: None,
            })),
            1 => cmds.push(Command::SubmitOffer(OfferSpec::simple(
                format!("buyer{}", rng.gen_range(0usize..3)),
                ["a", "b"],
                rng.gen_range(5i64..30) as f64,
            ))),
            _ => cmds.push(Command::RunRound { rounds: 1 }),
        }
    }
    cmds.push(Command::RunRound { rounds: 1 });
    cmds
}

fn config(dir: &Path, keep: usize) -> ServiceConfig {
    ServiceConfig::new(dir, market_config())
        .with_shards(SHARDS)
        .with_snapshot_every(SNAPSHOT_EVERY)
        .with_fsync(false)
        .with_keep_snapshots(keep)
}

/// Donor state: run with unbounded retention so the full journal *and*
/// every snapshot survive — the crash cases are carved out of this.
/// Built once per process and held as file contents, so every case
/// writes its own private copy and none can disturb another's.
struct Donor {
    digest: u64,
    applied: u64,
    journal: Vec<u8>,
    meta: Vec<u8>,
    /// `(seq, file name, contents)`, ascending by seq.
    snapshots: Vec<(u64, String, Vec<u8>)>,
}

impl Donor {
    fn newest_seq(&self) -> u64 {
        self.snapshots.last().expect("donor has snapshots").0
    }
}

fn donor() -> &'static Donor {
    static DONOR: OnceLock<Donor> = OnceLock::new();
    DONOR.get_or_init(|| {
        let dir = ScratchDir::new("compact-donor");
        let node = ServiceNode::open(config(dir.path(), 0)).unwrap();
        for cmd in command_stream() {
            let _ = node.apply(cmd);
        }
        let snapshots: Vec<(u64, String, Vec<u8>)> = snapshot::list_snapshots(dir.path())
            .into_iter()
            .map(|(seq, path)| {
                let name = path.file_name().unwrap().to_str().unwrap().to_string();
                (seq, name, std::fs::read(&path).unwrap())
            })
            .collect();
        assert!(
            snapshots.len() >= 3,
            "donor run must cross ≥3 snapshot boundaries, got {}",
            snapshots.len()
        );
        Donor {
            digest: node.state_digest(),
            applied: node.applied(),
            journal: std::fs::read(dir.join("journal.wal")).unwrap(),
            meta: std::fs::read(dir.join("node.meta")).unwrap(),
            snapshots,
        }
    })
}

/// Materialize a crash directory: the donor journal plus the snapshots
/// whose seq passes `keep_snapshot`.
fn carve(donor: &Donor, name: &str, keep_snapshot: impl Fn(u64) -> bool) -> ScratchDir {
    let dir = ScratchDir::new(&format!("compact-{name}"));
    std::fs::write(dir.join("journal.wal"), &donor.journal).unwrap();
    std::fs::write(dir.join("node.meta"), &donor.meta).unwrap();
    for (seq, file_name, bytes) in &donor.snapshots {
        if keep_snapshot(*seq) {
            std::fs::write(dir.join(file_name), bytes).unwrap();
        }
    }
    dir
}

/// Recover `dir` under bounded retention and require the exact donor
/// state, then prove the node still takes writes and re-recovers.
fn assert_recovers_bit_identical(donor: &Donor, dir: &Path, case: &str) {
    let node = ServiceNode::open(config(dir, 1)).unwrap();
    assert_eq!(node.applied(), donor.applied, "{case}: applied seq");
    assert_eq!(node.state_digest(), donor.digest, "{case}: state digest");
    node.apply(Command::Enroll {
        name: "post-crash".into(),
        role: "buyer".into(),
    })
    .unwrap();
    let digest_after = node.state_digest();
    drop(node);
    let reopened = ServiceNode::open(config(dir, 1)).unwrap();
    assert_eq!(
        reopened.state_digest(),
        digest_after,
        "{case}: post-crash appends must replay"
    );
}

#[test]
fn crash_with_stale_snapshot_tmp_recovers() {
    let d = donor();
    // Crash between tmp write and rename: the newest snapshot never
    // landed, a garbage .tmp did.
    let newest = d.newest_seq();
    let dir = carve(d, "tmp-stale", |seq| seq < newest);
    std::fs::write(
        dir.join(format!("snapshot-{newest:020}.tmp")),
        b"half-written snapshot",
    )
    .unwrap();
    assert_recovers_bit_identical(d, dir.path(), "stale-tmp");
    assert!(
        !dir.join(format!("snapshot-{newest:020}.tmp")).exists(),
        "open must sweep the stale tmp"
    );
}

#[test]
fn crash_after_snapshot_durable_before_prune_recovers() {
    let d = donor();
    // All snapshots present, journal untouched: the prune never ran.
    let dir = carve(d, "pre-prune", |_| true);
    assert_recovers_bit_identical(d, dir.path(), "pre-prune");
}

#[test]
fn crash_after_prune_before_truncate_recovers() {
    let d = donor();
    // Only the newest snapshot survives, journal still full-length.
    let newest = d.newest_seq();
    let dir = carve(d, "pre-truncate", |seq| seq == newest);
    assert_recovers_bit_identical(d, dir.path(), "pre-truncate");
}

#[test]
fn crash_with_stale_journal_compact_recovers() {
    let d = donor();
    // Crash between writing journal.compact and the rename: the live
    // journal is intact and the partial copy must be discarded.
    let newest = d.newest_seq();
    let dir = carve(d, "compact-stale", |seq| seq == newest);
    std::fs::write(dir.join("journal.compact"), b"partial compacted journal").unwrap();
    assert_recovers_bit_identical(d, dir.path(), "stale-compact");
    assert!(
        !dir.join("journal.compact").exists(),
        "open must remove the stale journal.compact"
    );
}

#[test]
fn crash_after_truncate_recovers_from_snapshot_plus_tail() {
    let d = donor();
    // The completed compaction: journal holds only seq > newest.
    let newest = d.newest_seq();
    let dir = carve(d, "post-truncate", |seq| seq == newest);
    {
        let (mut journal, _) = Journal::open(dir.join("journal.wal"), false).unwrap();
        let dropped = journal.truncate_prefix(newest).unwrap();
        assert!(dropped > 0, "truncation must actually drop the prefix");
    }
    assert_recovers_bit_identical(d, dir.path(), "post-truncate");
}

/// End-to-end: a node *running* with bounded retention compacts as it
/// goes, its journal stays shorter than the unbounded donor's, and its
/// recovered state is identical.
#[test]
fn live_compaction_shrinks_journal_and_matches_donor() {
    let d = donor();
    let dir = ScratchDir::new("compact-live");
    let node = ServiceNode::open(config(dir.path(), 1)).unwrap();
    for cmd in command_stream() {
        let _ = node.apply(cmd);
    }
    assert_eq!(
        node.state_digest(),
        d.digest,
        "live compaction changed state"
    );
    let compacted = node.journal_len().unwrap();
    let full = d.journal.len() as u64;
    assert!(
        compacted < full,
        "compaction did not shrink the journal: {compacted} >= {full}"
    );
    assert_eq!(
        snapshot::list_snapshots(dir.path()).len(),
        1,
        "retention must keep exactly one snapshot"
    );
    drop(node);
    let recovered = ServiceNode::open(config(dir.path(), 1)).unwrap();
    assert_eq!(recovered.state_digest(), d.digest);
    assert_eq!(recovered.applied(), d.applied);
}
