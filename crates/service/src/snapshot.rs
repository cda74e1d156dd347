//! Materialized state snapshots (format v3) for O(state) recovery.
//!
//! A snapshot is the shard router's *serialized state* — catalog,
//! ledger, offer book, licenses, trust records, RNG streams — encoded
//! by `state.rs` and re-framed with the journal's CRC records, plus a
//! header carrying the expected state digest. Recovery = load the
//! newest intact snapshot, decode and restore it into a fresh router,
//! verify the digest *proves* the decoded state is equivalent, then
//! replay only the journal tail (`seq > snapshot.seq`). Restore cost is
//! O(live state), not O(history): a node that ran a million rounds
//! recovers as fast as one that ran forty. A torn or digest-mismatched
//! snapshot is simply ignored: the journal remains the source of truth.
//!
//! Format v3 frames: `header, substrate, shard × N, router`. The
//! sections are encoded as in v2; what changed is the *definition* of
//! the header's digest (FNV-1a over the sections' own bytes, see
//! [`StateImage::digest`]), so a v2 file — like a v1 command-prefix
//! checkpoint — is not readable by this module, and the node's
//! `node.meta` fingerprint was bumped alongside so older directories
//! are refused at open, never misread.
//!
//! Files are written atomically (`.tmp` + fsync + rename + directory
//! fsync), named `snapshot-<seq>.dmp` so the newest sorts last. Stale
//! `.tmp` files (a crash between create and rename) are swept at node
//! open; superseded snapshots are pruned under the node's retention
//! knob once a newer snapshot is verified durable.

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

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::journal::{frame_json, scan_frames};
use crate::state::{dec_hex, enc_hex, field, StateImage, Wire};
use crate::wire::Json;

/// An in-memory snapshot: materialized state + expected digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Sequence number of the last command folded into the state.
    pub seq: u64,
    /// FNV-1a digest the restored router state must reproduce.
    pub digest: u64,
    /// The encoded router state (substrate, shards, router allocators).
    pub state: StateImage,
}

/// On-disk format version. v1 (command-prefix checkpoints) and v2 (a
/// digest over a second rendering of the state) are refused.
const FORMAT_VERSION: &str = "3";

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:020}.dmp"))
}

/// Parse the sequence number out of a `snapshot-<seq>.dmp` file name.
fn seq_of(path: &Path) -> Option<u64> {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("snapshot-"))
        .and_then(|n| n.strip_suffix(".dmp"))
        .and_then(|n| n.parse::<u64>().ok())
}

/// Write `snapshot` atomically into `dir`; returns the final path.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let header = Json::obj([
        ("version", Json::str(FORMAT_VERSION)),
        // u64 seq and digest exceed f64's exact-integer range: strings.
        ("seq", snapshot.seq.enc()),
        ("digest", enc_hex(snapshot.digest)),
        ("shards", snapshot.state.shards.len().enc()),
    ]);
    let mut buf = Vec::new();
    for section in std::iter::once(&header).chain(snapshot.state.sections()) {
        frame_json(section, &mut buf)?;
    }

    let final_path = snapshot_path(dir, snapshot.seq);
    let tmp_path = final_path.with_extension("tmp");
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself (directory entry). A failed directory
    // fsync means the snapshot may *vanish* on power loss even though
    // the data blocks are safe — swallowing that error would let the
    // caller report a durability point that does not exist. Propagate
    // it; the node logs the failure and keeps running on the journal,
    // and recovery falls back to the previous intact snapshot. (A
    // directory that cannot be *opened* for syncing is a platform
    // limitation, not a write failure — tolerated.)
    if let Ok(d) = File::open(dir) {
        d.sync_all()?;
    }
    Ok(final_path)
}

fn parse_snapshot(bytes: &[u8]) -> Option<Snapshot> {
    let (payloads, valid_len) = scan_frames(bytes);
    if valid_len != bytes.len() || payloads.is_empty() {
        return None; // torn or trailing garbage: not an intact snapshot
    }
    let (first, rest) = payloads.split_first()?;
    let header = Json::parse_bytes(first).ok()?;
    if header.req_str("version").ok()? != FORMAT_VERSION {
        return None;
    }
    let seq = field(&header, "seq").and_then(u64::dec).ok()?;
    let digest = field(&header, "digest").and_then(dec_hex).ok()?;
    let shards = field(&header, "shards").and_then(usize::dec).ok()?;
    // header + substrate + shards + router.
    if rest.len() != shards + 2 {
        return None;
    }
    let mut trees = rest
        .iter()
        .map(|payload| Json::parse_bytes(payload).ok())
        .collect::<Option<Vec<Json>>>()?;
    let router = trees.pop()?;
    let mut trees = trees.into_iter();
    let substrate = trees.next()?;
    Some(Snapshot {
        seq,
        digest,
        state: StateImage {
            substrate,
            shards: trees.collect(),
            router,
        },
    })
}

/// Parse one snapshot file; `None` if missing, torn, or unparseable.
pub fn load_file(path: &Path) -> Option<Snapshot> {
    parse_snapshot(&fs::read(path).ok()?)
}

/// All snapshot files in `dir`, sorted by sequence number ascending.
pub fn list_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            seq_of(&path).map(|seq| (seq, path))
        })
        .collect();
    out.sort();
    out
}

/// Load the newest intact snapshot in `dir`, skipping torn or
/// unparseable files (recovery falls back to full journal replay when
/// none survives).
pub fn load_latest(dir: &Path) -> Option<Snapshot> {
    list_snapshots(dir)
        .iter()
        .rev()
        .find_map(|(_, path)| load_file(path))
}

/// Remove stale `snapshot-*.tmp` files — the residue of a crash between
/// tmp-write and rename. Returns how many were removed. Errors listing
/// the directory are reported; errors unlinking a single file are not
/// fatal (the stray tmp is cosmetic, never loaded).
pub fn sweep_tmp(dir: &Path) -> std::io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let stale = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".tmp"));
        if stale && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Delete all but the newest `keep` snapshots (`keep` ≥ 1 is enforced:
/// pruning every snapshot would forfeit accelerated recovery). Returns
/// the removed count.
pub fn prune_snapshots(dir: &Path, keep: usize) -> std::io::Result<usize> {
    let keep = keep.max(1);
    let all = list_snapshots(dir);
    let excess = all.len().saturating_sub(keep);
    let mut removed = 0;
    for (_, path) in all.iter().take(excess) {
        fs::remove_file(path)?;
        removed += 1;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::frame;
    use crate::test_support::ScratchDir;

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("snapshot-{name}"))
    }

    fn sample() -> Snapshot {
        Snapshot {
            seq: 17,
            digest: 0xdead_beef_cafe_f00d,
            state: StateImage {
                substrate: Json::obj([("ledger", Json::str("..."))]),
                shards: vec![
                    Json::obj([("clock", Json::str("4"))]),
                    Json::obj([("clock", Json::str("9"))]),
                ],
                router: Json::obj([("rounds", Json::str("2"))]),
            },
        }
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tmp("roundtrip");
        write_snapshot(dir.path(), &sample()).unwrap();
        assert_eq!(load_latest(dir.path()).unwrap(), sample());
    }

    #[test]
    fn newest_intact_snapshot_wins() {
        let dir = tmp("newest");
        let old = Snapshot { seq: 3, ..sample() };
        write_snapshot(dir.path(), &old).unwrap();
        write_snapshot(dir.path(), &sample()).unwrap();
        assert_eq!(load_latest(dir.path()).unwrap().seq, 17);
    }

    #[test]
    fn torn_snapshot_is_skipped() {
        let dir = tmp("torn");
        let old = Snapshot { seq: 3, ..sample() };
        write_snapshot(dir.path(), &old).unwrap();
        let newest = write_snapshot(dir.path(), &sample()).unwrap();
        // Chop bytes off the newest: loader must fall back to seq 3.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(load_latest(dir.path()).unwrap().seq, 3);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp("empty");
        assert!(load_latest(dir.path()).is_none());
    }

    #[test]
    fn v1_command_prefix_snapshots_are_refused() {
        // A v1 file (numeric version header framing a command prefix)
        // must parse as "no snapshot", never as garbage state.
        let dir = tmp("v1");
        let mut buf = Vec::new();
        let header = r#"{"version":1,"seq":17,"digest":"deadbeefcafef00d","count":0}"#;
        frame(header.as_bytes(), &mut buf);
        fs::write(snapshot_path(dir.path(), 17), &buf).unwrap();
        assert!(load_latest(dir.path()).is_none());
    }

    #[test]
    fn v2_snapshots_are_refused_by_version() {
        // Same frames, same sections — but a v2 header's digest is of a
        // rendering this code no longer has. Only the version says so.
        let dir = tmp("v2");
        let path = write_snapshot(dir.path(), &sample()).unwrap();
        let bytes = fs::read(&path).unwrap();
        let (payloads, _) = scan_frames(&bytes);
        let header = String::from_utf8(payloads[0].to_vec()).unwrap();
        assert!(header.contains(r#""version":"3""#), "{header}");
        let mut downgraded = Vec::new();
        frame(
            header
                .replace(r#""version":"3""#, r#""version":"2""#)
                .as_bytes(),
            &mut downgraded,
        );
        for payload in &payloads[1..] {
            frame(payload, &mut downgraded);
        }
        fs::write(&path, &downgraded).unwrap();
        assert!(load_file(&path).is_none());
        // And the header's scalars take no second spelling.
        let mut padded = Vec::new();
        frame(
            header.replace(r#""seq":"17""#, r#""seq":"017""#).as_bytes(),
            &mut padded,
        );
        for payload in &payloads[1..] {
            frame(payload, &mut padded);
        }
        fs::write(&path, &padded).unwrap();
        assert!(load_file(&path).is_none());
    }

    #[test]
    fn write_failure_is_propagated_not_swallowed() {
        // A regular file where the snapshot directory should be: every
        // path of write_snapshot (create_dir_all onward) must surface
        // the error to the caller instead of reporting a phantom
        // durability point.
        let dir = tmp("as-file");
        let not_a_dir = dir.join("occupied");
        fs::write(&not_a_dir, b"file, not dir").unwrap();
        assert!(write_snapshot(&not_a_dir, &sample()).is_err());
    }

    #[test]
    fn lost_newest_snapshot_falls_back_to_previous() {
        // The failure mode an undurable rename leaves behind after a
        // crash: the newest snapshot file simply is not there. Recovery
        // must fall back to the previous intact snapshot.
        let dir = tmp("lost");
        let old = Snapshot { seq: 3, ..sample() };
        write_snapshot(dir.path(), &old).unwrap();
        let newest = write_snapshot(dir.path(), &sample()).unwrap();
        fs::remove_file(&newest).unwrap();
        assert_eq!(load_latest(dir.path()).unwrap().seq, 3);
    }

    #[test]
    fn stale_tmp_files_are_swept() {
        let dir = tmp("sweep");
        write_snapshot(dir.path(), &sample()).unwrap();
        fs::write(dir.join("snapshot-00000000000000000099.tmp"), b"torn").unwrap();
        fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        assert_eq!(sweep_tmp(dir.path()).unwrap(), 1);
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(load_latest(dir.path()).unwrap().seq, 17);
    }

    #[test]
    fn prune_keeps_newest_k() {
        let dir = tmp("prune");
        for seq in [3, 9, 17] {
            write_snapshot(dir.path(), &Snapshot { seq, ..sample() }).unwrap();
        }
        assert_eq!(prune_snapshots(dir.path(), 2).unwrap(), 1);
        let kept: Vec<u64> = list_snapshots(dir.path()).iter().map(|(s, _)| *s).collect();
        assert_eq!(kept, vec![9, 17]);
        // keep = 0 is clamped to 1: never prune the last snapshot.
        assert_eq!(prune_snapshots(dir.path(), 0).unwrap(), 1);
        assert_eq!(load_latest(dir.path()).unwrap().seq, 17);
    }
}
