//! Crash-recovery determinism: journal ~50 mixed-command rounds, crash
//! at random byte offsets (torn tail record included), recover via
//! `snapshot + journal replay`, and assert the ledger balances and the
//! offer book are **bit-identical** to an uncrashed run over the same
//! surviving command prefix.

use std::path::Path;

use dmp_core::license::License;
use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_mechanism::wtp::{PriceCurve, TaskKind};
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, OfferSpec, TableSpec};
use dmp_service::journal::Journal;
use dmp_service::node::{ServiceConfig, ServiceNode};
use dmp_service::shard::ShardRouter;
use dmp_service::test_support::ScratchDir;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 3;

fn market_config() -> MarketConfig {
    MarketConfig::external(23).with_design(MarketDesign::posted_price_baseline(12.0))
}

fn tmp_dir(name: &str) -> ScratchDir {
    ScratchDir::new(&format!("recovery-{name}"))
}

fn table(name: &str, cols: &[&str], rows: usize, rng: &mut rand::rngs::StdRng) -> TableSpec {
    TableSpec {
        name: name.to_string(),
        columns: cols
            .iter()
            .map(|c| (c.to_string(), ColType::Float))
            .collect(),
        rows: (0..rows)
            .map(|_| {
                cols.iter()
                    .map(|_| CellSpec::Float((rng.gen_range(0i64..1000) as f64) / 10.0))
                    .collect()
            })
            .collect(),
    }
}

/// A deterministic stream of mixed commands: enrolls, deposits, asks,
/// offers, license grants and `rounds` round executions.
fn command_stream(rounds: usize, seed: u64) -> Vec<Command> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cmds = Vec::new();
    let attrs = ["a", "b", "c", "d"];
    // A base population so early rounds have work to do.
    for i in 0..4 {
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
            amount: 500.0,
        });
    }
    for round in 0..rounds {
        for _ in 0..rng.gen_range(2usize..6) {
            match rng.gen_range(0u32..10) {
                0..=2 => {
                    let seller = format!("seller{}", rng.gen_range(0usize..4));
                    let n_cols = rng.gen_range(1usize..3);
                    let start = rng.gen_range(0usize..attrs.len() - n_cols + 1);
                    let cols: Vec<&str> = attrs[start..start + n_cols].to_vec();
                    let t = table(&format!("t{round}_{}", cmds.len()), &cols, 4, &mut rng);
                    cmds.push(Command::SubmitAsk(AskSpec {
                        seller,
                        table: t,
                        reserve: if rng.gen::<bool>() {
                            Some(rng.gen_range(0i64..50) as f64 / 10.0)
                        } else {
                            None
                        },
                        license: if rng.gen_bool(0.25) {
                            Some(License::Exclusive {
                                tax_rate: 0.5,
                                hold_rounds: 2,
                            })
                        } else {
                            None
                        },
                    }));
                }
                3..=6 => {
                    let n_attrs = rng.gen_range(1usize..3);
                    let start = rng.gen_range(0usize..attrs.len() - n_attrs + 1);
                    cmds.push(Command::SubmitOffer(OfferSpec {
                        buyer: format!("buyer{}", rng.gen_range(0usize..4)),
                        attributes: attrs[start..start + n_attrs]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        keywords: Vec::new(),
                        task: TaskKind::AttributeCoverage,
                        curve: PriceCurve::Constant(rng.gen_range(10i64..200) as f64 / 10.0),
                        min_rows: 1,
                        purpose: "analytics".into(),
                    }));
                }
                7 => cmds.push(Command::Deposit {
                    account: format!("buyer{}", rng.gen_range(0usize..4)),
                    amount: rng.gen_range(0i64..1000) as f64 / 10.0,
                }),
                8 => cmds.push(Command::GrantLicense {
                    seller: format!("seller{}", rng.gen_range(0usize..4)),
                    dataset: rng.gen_range(0u64..6),
                    license: License::NonTransferable,
                }),
                _ => cmds.push(Command::Enroll {
                    name: format!("late{}", rng.gen_range(0usize..6)),
                    role: "buyer".into(),
                }),
            }
        }
        cmds.push(Command::RunRound { rounds: 1 });
    }
    cmds
}

/// Bit-exact fingerprint of ledger balances and the offer book.
fn fingerprint(router: &ShardRouter) -> (Vec<(usize, String, u64)>, Vec<String>) {
    let mut balances = Vec::new();
    let mut offers = Vec::new();
    for (i, market) in router.shards().iter().enumerate() {
        for (account, balance) in market.ledger().balances() {
            balances.push((i, account, balance.to_bits()));
        }
        for (id, holder, remaining) in market.ledger().escrow_holds() {
            balances.push((i, format!("escrow#{id}:{holder}"), remaining.to_bits()));
        }
        for offer in market.offers() {
            offers.push(format!(
                "shard{} {:?} max_price_bits={}",
                i,
                offer,
                offer.wtp.max_price().to_bits()
            ));
        }
    }
    (balances, offers)
}

/// Reference state: a fresh router with the first `k` commands applied
/// directly (no journal, no snapshots).
fn reference_state(cmds: &[Command], k: usize) -> (Vec<(usize, String, u64)>, Vec<String>) {
    let router = ShardRouter::new(&market_config(), SHARDS);
    for cmd in &cmds[..k] {
        let _ = router.apply(cmd);
    }
    fingerprint(&router)
}

/// Byte offsets where each journal record ends (frame boundaries).
fn record_boundaries(path: &Path) -> Vec<usize> {
    let bytes = std::fs::read(path).unwrap();
    let mut boundaries = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        boundaries.push(pos);
    }
    assert_eq!(pos, bytes.len(), "journal must end on a frame boundary");
    boundaries
}

/// Copy the crash survivors into a fresh dir: the truncated journal and
/// every snapshot taken at or below the surviving sequence number (the
/// WAL is fsync'd before a snapshot is written, so a snapshot can never
/// outlive the journal records it summarizes).
fn copy_crashed(src: &Path, dst: &Path, journal_bytes: &[u8], survivors: usize) {
    std::fs::create_dir_all(dst).unwrap();
    std::fs::write(dst.join("journal.wal"), journal_bytes).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".dmp"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if seq <= survivors as u64 {
                std::fs::copy(entry.path(), dst.join(&name)).unwrap();
            }
        }
    }
}

#[test]
fn crash_at_random_offsets_recovers_bit_identical_state() {
    let cmds = command_stream(50, 0xfeed);
    let dir = tmp_dir("bitident");
    let cfg = ServiceConfig::new(dir.path(), market_config())
        .with_shards(SHARDS)
        .with_snapshot_every(40)
        .with_fsync(false);

    // Uncrashed run: journal everything.
    let node = ServiceNode::open(cfg.clone()).unwrap();
    for cmd in &cmds {
        let _ = node.apply(cmd.clone());
    }
    assert_eq!(node.applied(), cmds.len() as u64);
    let full_fingerprint = fingerprint(node.router());
    drop(node);

    let journal_path = dir.join("journal.wal");
    let bytes = std::fs::read(&journal_path).unwrap();
    let boundaries = record_boundaries(&journal_path);
    assert_eq!(boundaries.len(), cmds.len());

    // Crash at random byte offsets — most cuts tear a record in half.
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut cuts: Vec<usize> = (0..4)
        .map(|_| rng.gen_range(64usize..bytes.len()))
        .collect();
    cuts.push(bytes.len()); // clean shutdown as a control
    for (case, cut) in cuts.into_iter().enumerate() {
        let survivors = boundaries.iter().filter(|&&b| b <= cut).count();
        let crash_dir = tmp_dir(&format!("bitident-crash{case}"));
        copy_crashed(dir.path(), crash_dir.path(), &bytes[..cut], survivors);

        let recovered = ServiceNode::open(
            ServiceConfig::new(crash_dir.path(), market_config())
                .with_shards(SHARDS)
                .with_snapshot_every(0)
                .with_fsync(false),
        )
        .unwrap();
        assert_eq!(
            recovered.applied(),
            survivors as u64,
            "case {case}: every intact record (and nothing more) replays"
        );

        let (ref_balances, ref_offers) = reference_state(&cmds, survivors);
        let (got_balances, got_offers) = fingerprint(recovered.router());
        assert_eq!(
            got_balances, ref_balances,
            "case {case} (cut {cut}): ledger balances must be bit-identical"
        );
        assert_eq!(
            got_offers, ref_offers,
            "case {case} (cut {cut}): offer book must be bit-identical"
        );
        if survivors == cmds.len() {
            assert_eq!(fingerprint(recovered.router()), full_fingerprint.clone());
        }

        // The truncated journal accepts appends after recovery.
        let (mut journal, records) = Journal::open(crash_dir.join("journal.wal"), false).unwrap();
        assert_eq!(records.len(), survivors);
        journal
            .append(survivors as u64 + 1, &Command::RunRound { rounds: 1 })
            .unwrap();
    }
}

#[test]
fn snapshot_accelerated_recovery_equals_journal_only_recovery() {
    let cmds = command_stream(20, 0xbead);
    let dir_snap = tmp_dir("snapshotted");
    let cfg_snap = ServiceConfig::new(dir_snap.path(), market_config())
        .with_shards(SHARDS)
        .with_snapshot_every(25)
        .with_fsync(false);
    let node = ServiceNode::open(cfg_snap.clone()).unwrap();
    for cmd in &cmds {
        let _ = node.apply(cmd.clone());
    }
    drop(node);
    assert!(
        dmp_service::snapshot::load_latest(dir_snap.path()).is_some(),
        "run must have produced at least one snapshot"
    );

    // Recover once with snapshots present, once from the journal alone.
    let with_snap = ServiceNode::open(cfg_snap).unwrap();
    let dir_journal = tmp_dir("journal-only");
    std::fs::copy(
        dir_snap.join("journal.wal"),
        dir_journal.join("journal.wal"),
    )
    .unwrap();
    let journal_only = ServiceNode::open(
        ServiceConfig::new(dir_journal.path(), market_config())
            .with_shards(SHARDS)
            .with_snapshot_every(0)
            .with_fsync(false),
    )
    .unwrap();

    assert_eq!(with_snap.applied(), journal_only.applied());
    assert_eq!(
        fingerprint(with_snap.router()),
        fingerprint(journal_only.router())
    );
    assert_eq!(with_snap.state_digest(), journal_only.state_digest());
}

#[test]
fn corrupted_snapshot_falls_back_to_journal() {
    let cmds = command_stream(10, 0xabcd);
    let dir = tmp_dir("badsnap");
    let cfg = ServiceConfig::new(dir.path(), market_config())
        .with_shards(SHARDS)
        .with_snapshot_every(15)
        .with_fsync(false);
    let node = ServiceNode::open(cfg.clone()).unwrap();
    for cmd in &cmds {
        let _ = node.apply(cmd.clone());
    }
    let expect = fingerprint(node.router());
    drop(node);

    // Corrupt every snapshot payload byte-flip-style.
    for entry in std::fs::read_dir(dir.path()).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if name.starts_with("snapshot-") {
            let mut bytes = std::fs::read(entry.path()).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(entry.path(), bytes).unwrap();
        }
    }
    let recovered = ServiceNode::open(cfg).unwrap();
    assert_eq!(fingerprint(recovered.router()), expect);
}

/// Enroll four accounts, then spread `deposits` deposits over them:
/// a history whose length is free and whose state is not.
fn apply_deposit_history(node: &ServiceNode, deposits: u64) {
    for i in 0..4 {
        node.apply(Command::Enroll {
            name: format!("buyer{i}"),
            role: "buyer".into(),
        })
        .unwrap();
    }
    for i in 0..deposits {
        node.apply(Command::Deposit {
            account: format!("buyer{}", i % 4),
            amount: 1.0,
        })
        .unwrap();
    }
}

/// What a closed node leaves on disk after [`apply_deposit_history`],
/// checkpointing every 64 commands and keeping one snapshot: `(journal
/// bytes, snapshot bytes)`. Also pins that exactly one snapshot and the
/// four records past the last checkpoint remain, and that the directory
/// reopens to the state it was closed in.
fn disk_after_compacted_history(deposits: u64) -> (u64, u64) {
    let dir = tmp_dir(&format!("history-{deposits}"));
    let cfg = ServiceConfig::new(dir.path(), market_config())
        .with_shards(SHARDS)
        .with_snapshot_every(64)
        .with_keep_snapshots(1)
        .with_fsync(false);
    let digest = {
        let node = ServiceNode::open(cfg.clone()).unwrap();
        apply_deposit_history(&node, deposits);
        node.state_digest()
    };

    let snapshots = dmp_service::snapshot::list_snapshots(dir.path());
    assert_eq!(
        snapshots.len(),
        1,
        "retention must prune to one snapshot after {deposits} deposits"
    );
    let snapshot_bytes = std::fs::metadata(&snapshots[0].1).unwrap().len();
    let journal = dir.join("journal.wal");
    // 4 + N commands, last checkpoint at N: the four past it remain.
    assert_eq!(
        record_boundaries(&journal).len(),
        4,
        "compaction must truncate the journal after {deposits} deposits"
    );
    let journal_bytes = std::fs::metadata(&journal).unwrap().len();

    let reopened = ServiceNode::open(cfg).unwrap();
    assert_eq!(reopened.applied(), 4 + deposits);
    assert_eq!(reopened.state_digest(), digest);
    (journal_bytes, snapshot_bytes)
}

/// Recovery is O(state), not O(history), pinned on what recovery reads
/// rather than on a clock: an 8× longer history over the same four
/// accounts leaves the same journal tail and the same size of image.
/// Fails if compaction stops truncating (the record count grows with
/// history) or retention stops pruning (more than one snapshot). The
/// timed form of the claim is `marketbench`'s `checkpoint_cycle`
/// `recovery_s`.
#[test]
fn what_recovery_reads_is_bounded_by_state_not_history() {
    // One uncompacted 64-record journal, as the yardstick for bytes.
    let window = {
        let dir = tmp_dir("history-window");
        let node = ServiceNode::open(
            ServiceConfig::new(dir.path(), market_config())
                .with_shards(SHARDS)
                .with_snapshot_every(0)
                .with_fsync(false),
        )
        .unwrap();
        apply_deposit_history(&node, 60);
        node.journal_len().unwrap()
    };

    let (short_journal, short_snapshot) = disk_after_compacted_history(256);
    let (long_journal, long_snapshot) = disk_after_compacted_history(2048);
    assert!(
        short_journal < window && long_journal < window,
        "compacted journals ({short_journal} B, {long_journal} B) must stay under one \
         64-record window ({window} B)"
    );
    // Same accounts, larger balances: only the digits differ.
    assert!(
        short_snapshot.abs_diff(long_snapshot) < 64,
        "snapshot grew with history: {short_snapshot} B after 256 deposits, \
         {long_snapshot} B after 2048"
    );
}
