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
//! [`state::digest`]), so a v2 file — like a v1 command-prefix
//! checkpoint — is not readable by this module, and the node's
//! `node.meta` fingerprint was bumped alongside so older directories
//! are refused at open, never misread.
//!
//! The node writes and reads the file as text and builds no tree: the
//! header is a `record!` table like the sections, [`write_image`]
//! streams each section into its frame and takes the digest from those
//! same bytes, and [`load_image`] decodes each CRC-checked section
//! straight from the file's bytes. [`write_snapshot`] and
//! [`load_file`] are the same files with the sections as trees
//! ([`Snapshot`]), for the benchmark and the tests: one format, one
//! header codec, one frame scan.
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

use std::fs;
use std::path::{Path, PathBuf};

use crate::journal::{frame_json, frame_text, replace_durably, scan_frames};
use crate::shard::{Fnv1a, RouterImage};
use crate::state::{self, from_text, record, Hex, StateImage, Wire};
use crate::wire::{Json, WireError};

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

/// A snapshot file decoded straight from its bytes, with no tree.
pub struct ImageFile {
    /// Sequence number of the last command folded into the state.
    pub seq: u64,
    /// FNV-1a digest the restored router state must reproduce.
    pub digest: u64,
    /// The decoded router state.
    pub image: RouterImage,
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

/// The header frame's payload: format version, seq, digest and shard
/// count. Integers ride as decimal strings and the digest as hex, like
/// every integer of the state image.
struct Header {
    version: String,
    seq: u64,
    digest: Hex,
    shards: usize,
}

record!(Header {
    version => "version",
    seq => "seq",
    digest => "digest",
    shards => "shards",
});

/// The header frame.
fn header(seq: u64, digest: u64, shards: usize) -> Vec<u8> {
    let header = Header {
        version: FORMAT_VERSION.to_owned(),
        seq,
        digest: Hex(digest),
        shards,
    };
    let mut frame = Vec::new();
    frame_text(&mut frame, |e| header.enc(e));
    frame
}

/// Write the file's bytes atomically into `dir`; returns the final
/// path. A failed directory fsync propagates: the node logs it and
/// keeps running on the journal, and recovery falls back to the
/// previous intact snapshot.
fn write_file(dir: &Path, seq: u64, bytes: &[u8]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let final_path = snapshot_path(dir, seq);
    replace_durably(&final_path.with_extension("tmp"), &final_path, bytes)?;
    Ok(final_path)
}

/// Write `snapshot` atomically into `dir`; returns the final path.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> std::io::Result<PathBuf> {
    let state = &snapshot.state;
    let mut buf = header(snapshot.seq, snapshot.digest, state.shards.len());
    for section in state.sections() {
        frame_json(section, &mut buf)?;
    }
    write_file(dir, snapshot.seq, &buf)
}

/// Write `image` as the snapshot at `seq`, each section streamed as
/// text into its frame; returns the final path and the state digest,
/// hashed from those same section bytes (so it equals
/// [`state::digest`] of `image`).
pub fn write_image(dir: &Path, seq: u64, image: &RouterImage) -> std::io::Result<(PathBuf, u64)> {
    // The header comes first but carries the digest of what follows.
    // The digest is always 16 hex digits, so a header framed around a
    // placeholder has the real one's length: reserve it, write the
    // sections, then overwrite it.
    let shards = image.shards.len();
    let mut buf = header(seq, 0, shards);
    let mut hash = Fnv1a::default();
    for section in state::sections(image) {
        let payload = buf.len() + 8;
        frame_text(&mut buf, |e| section.enc(e));
        hash.update(buf.get(payload..).unwrap_or_default());
    }
    let digest = hash.finish();
    let header = header(seq, digest, shards);
    if let Some(slot) = buf.get_mut(..header.len()) {
        slot.copy_from_slice(&header);
    }
    Ok((write_file(dir, seq, &buf)?, digest))
}

/// The header's seq and digest and the section payloads, in file
/// order, of an intact format-v3 snapshot; `None` if torn, of another
/// version, or not holding the sections its header counts.
fn frames(bytes: &[u8]) -> Option<(u64, u64, Vec<&[u8]>)> {
    let (payloads, valid_len) = scan_frames(bytes);
    if valid_len != bytes.len() {
        return None; // torn or trailing garbage: not an intact snapshot
    }
    let (first, sections) = payloads.split_first()?;
    let Header {
        version,
        seq,
        digest: Hex(digest),
        shards,
    } = from_text(first).ok()?;
    if version != FORMAT_VERSION {
        return None;
    }
    // substrate + shards + router.
    if shards.checked_add(2) != Some(sections.len()) {
        return None;
    }
    Some((seq, digest, sections.to_vec()))
}

/// Parse one snapshot file into trees; `None` if missing, torn, or
/// unparseable.
pub fn load_file(path: &Path) -> Option<Snapshot> {
    let bytes = fs::read(path).ok()?;
    let (seq, digest, sections) = frames(&bytes)?;
    let mut trees = sections
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

/// Read one snapshot file and decode each section straight from its
/// bytes. Accepts exactly the files [`load_file`] and then
/// [`state::decode`] accept, and decodes them to the same image.
pub fn load_image(path: &Path) -> Result<ImageFile, WireError> {
    let bytes = fs::read(path).map_err(|e| WireError::new(format!("unreadable: {e}")))?;
    let (seq, digest, sections) =
        frames(&bytes).ok_or_else(|| WireError::new("torn, or not a format-v3 snapshot"))?;
    Ok(ImageFile {
        seq,
        digest,
        image: state::decode_text(&sections)?,
    })
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
        let header = r#"{"version":"3","seq":"17","digest":"deadbeefcafef00d","shards":"2"}"#;
        assert_eq!(payloads[0], header.as_bytes());
        // And the header takes no second spelling: whitespace is the
        // parser's to allow, but a scalar spelled otherwise, or a member
        // out of order, missing or extra, is not a header.
        let swapped = r#""seq":"17","version":"3""#;
        for (variant, loads) in [
            (
                header.replace(r#""version":"3""#, r#""version":"2""#),
                false,
            ),
            (header.replace(r#""seq":"17""#, r#""seq":"017""#), false),
            (
                header.replace("deadbeefcafef00d", "DEADBEEFCAFEF00D"),
                false,
            ),
            (
                header.replace(r#""version":"3","seq":"17""#, swapped),
                false,
            ),
            (header.replace(r#","shards":"2""#, ""), false),
            (header.replace('}', r#","count":"0"}"#), false),
            (header.replace(',', " ,\n"), true),
        ] {
            let mut file = Vec::new();
            frame(variant.as_bytes(), &mut file);
            for payload in &payloads[1..] {
                frame(payload, &mut file);
            }
            fs::write(&path, &file).unwrap();
            assert_eq!(load_file(&path).is_some(), loads, "{variant}");
        }
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
