//! The event journal: a length-prefixed, CRC-protected write-ahead log
//! of [`Command`]s.
//!
//! Record framing (all little-endian):
//!
//! ```text
//! ┌──────────┬──────────┬─────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload: len bytes of JSON  │
//! └──────────┴──────────┴─────────────────────────────┘
//! payload = {"seq": <u64>, "cmd": <Command wire form>}
//! ```
//!
//! Appends are flushed (and, with [`Journal::fsync`] on, `fdatasync`'d)
//! *before* the command is applied to the market — classic WAL
//! ordering, so an applied mutation is always recoverable. A crash can
//! leave at most one torn record at the tail; [`Journal::open`] detects
//! it (short frame or CRC mismatch), truncates the file back to the
//! last intact record, and returns every valid `(seq, Command)` for
//! replay.

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

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::command::Command;
use crate::metrics::metrics;
use crate::wire::Json;

/// One step of the reflected CRC-32 (IEEE 802.3) per byte value.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated; byte < 256 is the loop condition"
)]
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) over a byte slice, a table lookup per
/// byte: snapshot sections run to megabytes.
#[expect(clippy::indexing_slicing, reason = "a u8 indexes a 256-entry table")]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc = CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// The 8-byte header in front of `payload`: length, then CRC.
fn frame_header(payload: &[u8]) -> [u8; 8] {
    let mut header = [0u8; 8];
    let (len, crc) = header.split_at_mut(4);
    len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
    crc.copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Frame one journal/snapshot record.
pub(crate) fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
}

/// Frame `json` as one record, serializing it straight into `out`
/// behind a header that is filled in once the payload is there.
/// Byte-identical to `frame(json.dump().as_bytes(), out)`. A value
/// the wire cannot carry (a non-finite number from a library caller)
/// is `InvalidData`, not a panic, and leaves `out` as it was.
pub(crate) fn frame_json(json: &Json, out: &mut Vec<u8>) -> std::io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    if let Err(e) = json.dump_into(out) {
        out.truncate(start);
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            e.to_string(),
        ));
    }
    let (head, payload) = out.split_at_mut(start + 8);
    if let Some(slot) = head.get_mut(start..) {
        slot.copy_from_slice(&frame_header(payload));
    }
    Ok(())
}

/// Scan framed records out of a byte buffer, stopping cleanly at the
/// first torn or corrupt frame. Returns `(payloads, valid_len)`; the
/// payloads borrow from `bytes`.
pub(crate) fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    // Checked reads throughout: this scan runs over arbitrary on-disk
    // bytes, so a short or corrupt buffer must stop the scan (torn
    // tail: header truncated), never panic it.
    while let (Some(len), Some(crc)) = (read_u32_le(bytes, pos), read_u32_le(bytes, pos + 4)) {
        let start = pos + 8;
        let payload = match start
            .checked_add(len as usize)
            .and_then(|end| bytes.get(start..end))
        {
            Some(p) => p,
            None => break, // torn tail: payload truncated mid-write
        };
        if crc32(payload) != crc {
            break; // torn tail: header written, payload garbage
        }
        payloads.push(payload);
        pos = start + payload.len();
    }
    (payloads, pos)
}

/// Little-endian u32 at `at`, `None` if the buffer is too short.
fn read_u32_le(bytes: &[u8], at: usize) -> Option<u32> {
    let s = bytes.get(at..at.checked_add(4)?)?;
    s.try_into().ok().map(u32::from_le_bytes)
}

/// The maximum journal record payload accepted on replay (a corrupt
/// length prefix must not allocate unbounded memory).
const MAX_RECORD: usize = 64 * 1024 * 1024;

/// Decode one journal payload into `(seq, Command)`.
fn decode_record(payload: &[u8]) -> Option<(u64, Command)> {
    if payload.len() > MAX_RECORD {
        return None;
    }
    let json = Json::parse_bytes(payload).ok()?;
    let seq = json.req_u64("seq").ok()?;
    let cmd = Command::decode(json.get("cmd")?).ok()?;
    Some((seq, cmd))
}

/// An append-only command journal backed by one file.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Bytes of fully-written, replayable records (the append cursor;
    /// a failed append rolls the file back to this boundary).
    valid_len: u64,
    /// Set when a failed append could not be rolled back: the file may
    /// end in a torn frame the writer cannot account for. A poisoned
    /// journal refuses all further appends — writing *past* a torn
    /// frame would strand durable records behind garbage, because
    /// recovery stops scanning at the first bad frame.
    poisoned: bool,
    /// `fdatasync` every append (off trades durability for throughput;
    /// the OS still sees the write immediately, so only a *machine*
    /// crash can lose the tail).
    pub fsync: bool,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying every intact
    /// record and truncating a torn or undecodable tail left by a
    /// crash. Returns the journal positioned for appends plus the
    /// recovered records in append order.
    pub fn open(
        path: impl AsRef<Path>,
        fsync: bool,
    ) -> std::io::Result<(Journal, Vec<(u64, Command)>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (payloads, mut valid_len) = scan_frames(&bytes);

        let mut records = Vec::with_capacity(payloads.len());
        let mut decoded_len = 0usize;
        for payload in payloads {
            if decode_record(payload).map(|r| records.push(r)).is_none() {
                // A CRC-intact frame that does not decode is corruption
                // too: keep the consistent prefix, drop it and the rest
                // (appends verify replayability, so this means tamper
                // or a codec regression, not normal operation).
                valid_len = decoded_len;
                break;
            }
            decoded_len += 8 + payload.len();
        }
        if valid_len < bytes.len() {
            // Torn/undecodable tail: drop it so the next append starts
            // on a clean, replayable frame boundary.
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;

        Ok((
            Journal {
                file,
                path,
                valid_len: valid_len as u64,
                poisoned: false,
                fsync,
            },
            records,
        ))
    }

    /// Append one command under a sequence number. The record is on
    /// disk (modulo `fsync`) when this returns. WAL invariant: only
    /// records that replay are ever written — the framed payload is
    /// round-tripped through the decoder first, and a failed write
    /// rolls the file back to the last good frame boundary so a later
    /// successful append can never strand durable records behind a
    /// torn frame.
    pub fn append(&mut self, seq: u64, cmd: &Command) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "journal is poisoned: a failed append could not be rolled back, so the \
                 file may end in a torn frame; reopen the journal to truncate and resume",
            ));
        }
        #[expect(
            clippy::cast_precision_loss,
            reason = "JSON wire carries seq as f64; the round-trip decode below refuses any seq that does not survive exactly"
        )]
        let record = Json::obj([("seq", Json::Num(seq as f64)), ("cmd", cmd.encode())]);
        let mut buf = Vec::new();
        frame_json(&record, &mut buf)?;
        match buf.get(8..).and_then(decode_record) {
            Some((s, c)) if s == seq && c == *cmd => {}
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "command does not survive the wire round-trip (e.g. integer cell \
                     beyond 2^53); refusing to journal an unreplayable record",
                ));
            }
        }
        let m = metrics();
        #[expect(
            clippy::disallowed_methods,
            reason = "append latency telemetry; never journaled or applied"
        )]
        let started = Instant::now();
        let result = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.flush())
            .and_then(|()| {
                if self.fsync {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "fsync latency telemetry; never journaled or applied"
                    )]
                    let sync_started = Instant::now();
                    let r = self.file.sync_data();
                    m.journal_fsync_us
                        .record_duration_us(sync_started.elapsed());
                    r
                } else {
                    Ok(())
                }
            });
        match result {
            Ok(()) => {
                self.valid_len += buf.len() as u64;
                m.journal_appends.inc();
                m.journal_bytes.add(buf.len() as u64);
                m.journal_append_us.record_duration_us(started.elapsed());
                Ok(())
            }
            Err(e) => {
                // Roll back the partial frame (ENOSPC and friends). If
                // the rollback itself fails, the file may hold a torn
                // frame this writer can no longer see past — recovery
                // would stop at it, so appending *more* records behind
                // it would silently lose them. Poison the journal:
                // every later append fails loudly until a reopen
                // re-scans and truncates the tail.
                let rolled_back = self
                    .file
                    .set_len(self.valid_len)
                    .and_then(|()| self.file.seek(SeekFrom::End(0)).map(|_| ()));
                if rolled_back.is_err() {
                    self.poisoned = true;
                    m.journal_poisoned.inc();
                }
                Err(e)
            }
        }
    }

    /// Drop every record with `seq <= upto_seq` — the prefix a verified
    /// durable snapshot has made redundant. The kept tail is rewritten
    /// into a sibling `.compact` file (original frame bytes, so CRCs
    /// are preserved verbatim), fsync'd, renamed over the journal, and
    /// the directory entry is fsync'd; the live file handle is then
    /// reopened on the new inode. Crash-safe at every step: before the
    /// rename the old journal is intact, after it the compacted journal
    /// is complete. Returns the number of bytes dropped.
    pub fn truncate_prefix(&mut self, upto_seq: u64) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "journal is poisoned: refusing to compact a file that may end in a \
                 torn frame; reopen the journal first",
            ));
        }
        self.file.flush()?;
        let bytes = std::fs::read(&self.path)?;
        let (payloads, scanned_len) = scan_frames(&bytes);
        if scanned_len as u64 != self.valid_len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "journal changed underneath the writer during compaction",
            ));
        }
        let mut kept = Vec::new();
        let mut dropped = 0u64;
        for payload in &payloads {
            let seq = decode_record(payload).map(|(seq, _)| seq).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "undecodable record inside the journal's valid prefix",
                )
            })?;
            if seq > upto_seq {
                frame(payload, &mut kept);
            } else {
                dropped += 8 + payload.len() as u64;
            }
        }
        if dropped == 0 {
            return Ok(0);
        }

        let compact_path = self.path.with_extension("compact");
        {
            let mut f = File::create(&compact_path)?;
            f.write_all(&kept)?;
            f.sync_all()?;
        }
        std::fs::rename(&compact_path, &self.path)?;
        // Persist the rename (same directory-fsync contract as
        // snapshot writes; an unopenable directory is tolerated).
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                d.sync_all()?;
            }
        }
        // The old handle still points at the pre-rename inode; appends
        // through it would write to an unlinked file. Reopen.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.valid_len = kept.len() as u64;
        Ok(dropped)
    }

    /// Current journal size in bytes.
    pub fn len(&self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// True iff the journal holds no records.
    pub fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::ScratchDir;

    fn tmp(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("journal-{name}"))
    }

    fn sample_cmds() -> Vec<Command> {
        vec![
            Command::Enroll {
                name: "a".into(),
                role: "buyer".into(),
            },
            Command::Deposit {
                account: "a".into(),
                amount: 10.5,
            },
            Command::RunRound { rounds: 1 },
        ]
    }

    #[test]
    fn append_then_reopen_replays() {
        let dir = tmp("replay");
        let path = dir.join("journal.wal");
        let cmds = sample_cmds();
        {
            let (mut j, existing) = Journal::open(&path, true).unwrap();
            assert!(existing.is_empty());
            for (i, c) in cmds.iter().enumerate() {
                j.append(i as u64 + 1, c).unwrap();
            }
        }
        let (_, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), cmds.len());
        for (i, (seq, cmd)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(cmd, &cmds[i]);
        }
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp("torn");
        let path = dir.join("journal.wal");
        {
            let (mut j, _) = Journal::open(&path, true).unwrap();
            for (i, c) in sample_cmds().iter().enumerate() {
                j.append(i as u64 + 1, c).unwrap();
            }
        }
        // Simulate a crash mid-append: chop arbitrary bytes off the end.
        let full = std::fs::read(&path).unwrap();
        for cut in [1, 3, 7, 11] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let (j, records) = Journal::open(&path, true).unwrap();
            assert_eq!(records.len(), 2, "cut {cut}: only the tail record lost");
            // The file is truncated back to a clean frame boundary and
            // accepts new appends.
            drop(j);
            let (mut j, _) = Journal::open(&path, true).unwrap();
            j.append(3, &Command::RunRound { rounds: 2 }).unwrap();
            let (_, records) = Journal::open(&path, true).unwrap();
            assert_eq!(records.len(), 3);
        }
    }

    #[test]
    fn corrupt_payload_stops_replay() {
        let dir = tmp("corrupt");
        let path = dir.join("journal.wal");
        {
            let (mut j, _) = Journal::open(&path, true).unwrap();
            for (i, c) in sample_cmds().iter().enumerate() {
                j.append(i as u64 + 1, c).unwrap();
            }
        }
        // Flip a byte inside the *second* record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload_start = first_len + 8 + 8;
        bytes[second_payload_start + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 1, "replay stops at the corrupt record");
    }

    #[test]
    fn unreplayable_command_refused_at_append() {
        use crate::command::{AskSpec, CellSpec, ColType, TableSpec};
        let dir = tmp("unreplayable");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path, true).unwrap();
        // An integer cell beyond 2^53 cannot survive the f64 wire
        // encoding; the WAL must refuse it rather than journal a
        // record that will not replay.
        let cmd = Command::SubmitAsk(AskSpec {
            seller: "s".into(),
            table: TableSpec {
                name: "t".into(),
                columns: vec![("k".into(), ColType::Int)],
                rows: vec![vec![CellSpec::Int(i64::MAX)]],
            },
            reserve: None,
            license: None,
        });
        let err = j.append(1, &cmd).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The journal is untouched and still accepts good records.
        j.append(1, &Command::RunRound { rounds: 1 }).unwrap();
        let (_, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn undecodable_record_truncated_on_open() {
        let dir = tmp("undecodable");
        let path = dir.join("journal.wal");
        {
            let (mut j, _) = Journal::open(&path, true).unwrap();
            for (i, c) in sample_cmds().iter().enumerate() {
                j.append(i as u64 + 1, c).unwrap();
            }
        }
        // Hand-craft a CRC-valid frame whose payload is not a command
        // and splice it between record 1 and the rest.
        let bytes = std::fs::read(&path).unwrap();
        let first_len = 8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mut spliced = bytes[..first_len].to_vec();
        frame(br#"{"seq":2,"cmd":{"op":"frobnicate"}}"#, &mut spliced);
        spliced.extend_from_slice(&bytes[first_len..]);
        std::fs::write(&path, &spliced).unwrap();

        let (mut j, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 1, "replay keeps only the consistent prefix");
        // The file was truncated back to that prefix, so appends resume
        // on a clean boundary.
        j.append(2, &Command::RunRound { rounds: 1 }).unwrap();
        let (_, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn poisoned_journal_refuses_appends_until_reopen() {
        let dir = tmp("poisoned");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path, true).unwrap();
        j.append(1, &Command::RunRound { rounds: 1 }).unwrap();
        assert!(!j.poisoned);
        // The state a failed rollback sets (an `ftruncate` failure is
        // not portably inducible from a test).
        j.poisoned = true;
        let err = j.append(2, &Command::RunRound { rounds: 1 }).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Reopen re-scans the tail and clears the poison; the journal
        // resumes on a clean frame boundary.
        drop(j);
        let (mut j, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 1);
        assert!(!j.poisoned);
        j.append(2, &Command::RunRound { rounds: 1 }).unwrap();
        let (_, records) = Journal::open(&path, true).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn truncate_prefix_drops_covered_records_and_keeps_appending() {
        let dir = tmp("compact");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path, true).unwrap();
        for (i, c) in sample_cmds().iter().enumerate() {
            j.append(i as u64 + 1, c).unwrap();
        }
        let before = j.len().unwrap();
        let dropped = j.truncate_prefix(2).unwrap();
        assert!(dropped > 0);
        assert_eq!(j.len().unwrap(), before - dropped);
        // A second compaction at the same boundary is a no-op.
        assert_eq!(j.truncate_prefix(2).unwrap(), 0);
        // Appends land in the *new* inode, on a clean frame boundary.
        j.append(4, &Command::RunRound { rounds: 7 }).unwrap();
        drop(j);
        let (_, records) = Journal::open(&path, true).unwrap();
        let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn truncate_prefix_refused_on_poisoned_journal() {
        let dir = tmp("compact-poisoned");
        let path = dir.join("journal.wal");
        let (mut j, _) = Journal::open(&path, true).unwrap();
        j.append(1, &Command::RunRound { rounds: 1 }).unwrap();
        j.poisoned = true;
        assert!(j.truncate_prefix(1).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise loop the table replaced, kept as its reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut random = |len: usize| {
            (0..len)
                .map(|_| rng.gen::<u64>() as u8)
                .collect::<Vec<u8>>()
        };
        for len in (0..64).chain([255, 256, 257, 4096, 100_003]) {
            let bytes = random(len);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
        for byte in 0..=255u8 {
            assert_eq!(crc32(&[byte]), crc32_bitwise(&[byte]));
        }
    }
}
