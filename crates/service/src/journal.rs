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
//!
//! A payload is written straight into its frame and read straight from
//! its bytes by the command grammar's streamed codec (`command.rs`); no
//! `Json` tree is built either way.
//!
//! Reading a journal back on open is one sequential frame walk that
//! checks lengths and CRCs, then a decode of the intact payloads on the
//! rayon pool, a fixed-size chunk of records per item. The first record
//! that does not decode cuts the journal exactly where a
//! record-by-record decode would, so what open returns and keeps on disk
//! is the same on any number of threads. Compaction decodes no record
//! but the last: seqs are gap-free, so a record's seq is the journal's
//! first seq plus its position.

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

use std::borrow::Cow;
use std::convert::Infallible;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rayon::prelude::*;

use crate::command::{self, grammar, Command, Grammar};
use crate::metrics::metrics;
use crate::wire::{Json, Text};

/// Slicing-by-8 tables of the reflected CRC-32 (IEEE 802.3):
/// `CRC_TABLES[0][b]` steps the CRC over byte `b`, and `CRC_TABLES[k][b]`
/// over `b` followed by `k` zero bytes, so eight lookups advance it eight
/// bytes at once.
#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated; byte < 256 and k < 8 are the loop conditions"
)]
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over a byte slice, slicing-by-8:
/// every journal frame is checked on open and snapshot sections run to
/// megabytes.
#[expect(clippy::indexing_slicing, reason = "a u8 indexes a 256-entry table")]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc: u32 = 0xffff_ffff;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = t7[usize::from(b0 ^ c0)]
            ^ t6[usize::from(b1 ^ c1)]
            ^ t5[usize::from(b2 ^ c2)]
            ^ t4[usize::from(b3 ^ c3)]
            ^ t3[usize::from(b4)]
            ^ t2[usize::from(b5)]
            ^ t1[usize::from(b6)]
            ^ t0[usize::from(b7)];
    }
    for &b in tail {
        crc = t0[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
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

/// Frame one journal/snapshot record (tests splice frames by hand).
#[cfg(test)]
pub(crate) fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
}

/// Frame what `write` appends to `out` as one record, behind a header
/// that is filled in once the payload is there, so a document is
/// serialized straight into its frame. An error leaves `out` as it was.
fn frame_with<E>(
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    if let Err(e) = write(out) {
        out.truncate(start);
        return Err(e);
    }
    let (head, payload) = out.split_at_mut(start + 8);
    if let Some(slot) = head.get_mut(start..) {
        slot.copy_from_slice(&frame_header(payload));
    }
    Ok(())
}

/// Append one frame holding the text `write` writes.
pub(crate) fn frame_text(out: &mut Vec<u8>, write: impl FnOnce(&mut Text<'_, Vec<u8>>)) {
    let Ok(()) = frame_with(out, |out| {
        write(&mut Text::new(out));
        Ok::<(), Infallible>(())
    });
}

/// Frame `json` as one record. Byte-identical to
/// `frame(json.dump().as_bytes(), out)`. A value the wire cannot carry
/// (a non-finite number from a library caller) is `InvalidData`, not a
/// panic, and leaves `out` as it was.
pub(crate) fn frame_json(json: &Json, out: &mut Vec<u8>) -> std::io::Result<()> {
    frame_with(out, |out| json.dump_into(out))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
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

/// One journal payload: a command under its seq.
struct Record<'c> {
    seq: u64,
    cmd: Cow<'c, Command>,
}

grammar!(Record<'_> {
    seq => "seq",
    cmd => "cmd",
});

/// Frame `cmd` under `seq` as `append` writes it.
fn frame_record(seq: u64, cmd: &Command, out: &mut Vec<u8>) {
    let record = Record {
        seq,
        cmd: Cow::Borrowed(cmd),
    };
    frame_text(out, |e| record.put(e));
}

/// Decode one journal payload into `(seq, Command)`, straight from its
/// bytes.
fn decode_record(payload: &[u8]) -> Option<(u64, Command)> {
    if payload.len() > MAX_RECORD {
        return None;
    }
    let Record { seq, cmd } = command::read(payload).ok()?;
    Some((seq, cmd.into_owned()))
}

/// Records one pool item decodes: enough that claiming an item costs
/// nothing beside decoding it, few enough that a whole-journal replay
/// of 10⁵ records spreads over every core. A journal of at most this
/// many records is decoded inline on the caller.
const DECODE_CHUNK: usize = 512;

/// Decode `payloads` with [`decode_record`] on the rayon pool, one
/// [`DECODE_CHUNK`] per item, and return the records of the longest
/// prefix that decodes: the first undecodable payload ends the result,
/// exactly where a sequential decode would stop.
fn decode_prefix(payloads: &[&[u8]]) -> Vec<(u64, Command)> {
    let chunks: Vec<&[&[u8]]> = payloads.chunks(DECODE_CHUNK).collect();
    let decoded: Vec<Vec<(u64, Command)>> = chunks
        .par_iter()
        .map(|chunk| {
            chunk
                .iter()
                .map_while(|payload| decode_record(payload))
                .collect()
        })
        .collect();
    let mut records = Vec::with_capacity(payloads.len());
    for (chunk, mut done) in chunks.iter().zip(decoded) {
        let whole = done.len() == chunk.len();
        records.append(&mut done);
        if !whole {
            break;
        }
    }
    records
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
    /// The seq of the first record the file holds (`None` while it
    /// holds none). Seqs are gap-free — the node appends them in order
    /// and refuses a journal with a gap at open — so the record at
    /// index `i` is `first + i`.
    first: Option<u64>,
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
    ///
    /// One sequential walk checks every frame's length and CRC; the
    /// intact payloads are then decoded on the rayon pool, a fixed-size
    /// chunk of records per item. The first record that does not decode
    /// still cuts the journal there, as a record-by-record decode
    /// would: the records returned, the length kept and the bytes left
    /// on disk do not depend on the thread count.
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

        let records = decode_prefix(&payloads);
        if records.len() < payloads.len() {
            // A CRC-intact frame that does not decode is corruption
            // too: keep the consistent prefix, drop it and the rest
            // (appends verify replayability, so this means tamper or a
            // codec regression, not normal operation).
            valid_len = payloads
                .iter()
                .take(records.len())
                .map(|payload| 8 + payload.len())
                .sum();
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
                first: records.first().map(|(seq, _)| *seq),
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
        // The wire carries seq as a JSON number: the round-trip decode
        // below refuses any seq, or any number in the command, that does
        // not survive exactly.
        let mut buf = Vec::new();
        frame_record(seq, cmd, &mut buf);
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
                self.first.get_or_insert(seq);
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
    ///
    /// Seqs are gap-free, so a record's seq is the journal's first seq
    /// plus its index and no record is decoded but the last, whose seq
    /// must agree; a disagreement is `InvalidData` and leaves the file
    /// as it was.
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
        let (Some(first), Some(last)) = (self.first, payloads.last()) else {
            return Ok(0);
        };
        let last_seq = first.checked_add(payloads.len() as u64 - 1);
        if decode_record(last).map(|(seq, _)| seq) != last_seq {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "the journal's last record does not carry the seq its position implies",
            ));
        }
        let covered = upto_seq.saturating_add(1).saturating_sub(first);
        let dropped: usize = payloads
            .iter()
            .take(usize::try_from(covered).unwrap_or(usize::MAX))
            .map(|payload| 8 + payload.len())
            .sum();
        if dropped == 0 {
            return Ok(0);
        }
        let kept = bytes.get(dropped..scanned_len).unwrap_or_default();

        replace_durably(&self.path.with_extension("compact"), &self.path, kept)?;
        // The old handle still points at the pre-rename inode; appends
        // through it would write to an unlinked file. Reopen.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.valid_len = kept.len() as u64;
        self.first = (!kept.is_empty()).then_some(first + covered);
        Ok(dropped as u64)
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

/// Replace `dest` with `bytes` so a crash leaves either the old file or
/// the new one, whole: write them to `tmp`, fsync it, rename it over
/// `dest`, then fsync the directory so the rename itself survives power
/// loss. A failed directory fsync is returned — the caller must not
/// report a durability point that may vanish — but a directory that
/// cannot be *opened* for syncing is a platform limitation, not a
/// write failure, and is tolerated.
pub(crate) fn replace_durably(tmp: &Path, dest: &Path, bytes: &[u8]) -> std::io::Result<()> {
    {
        let mut f = File::create(tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, dest)?;
    if let Some(dir) = dest.parent() {
        if let Ok(d) = File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::ScratchDir;
    use proptest::prelude::*;

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

    /// The record-by-record decode `Journal::open` ran before decoding
    /// moved onto the pool: the reference the chunked decode must equal.
    /// Returns the records and the length the file is cut to.
    fn sequential_open(bytes: &[u8]) -> (Vec<(u64, Command)>, usize) {
        let (payloads, mut valid_len) = scan_frames(bytes);
        let mut records = Vec::new();
        let mut decoded_len = 0usize;
        for payload in payloads {
            if decode_record(payload).map(|r| records.push(r)).is_none() {
                valid_len = decoded_len;
                break;
            }
            decoded_len += 8 + payload.len();
        }
        (records, valid_len)
    }

    /// The longest generated journal: three decode chunks and two more.
    const MAX_RECORDS: usize = 3 * DECODE_CHUNK + 2;

    /// A journal of `MAX_RECORDS` mixed deposits, offers and rounds
    /// under seqs 1, 2, …, framed as `append` frames them, and the
    /// offset of each frame plus the end: a journal of `n` records is
    /// its first `offsets[n]` bytes.
    fn generated_journal() -> &'static (Vec<u8>, Vec<usize>) {
        use crate::command::OfferSpec;
        use dmp_mechanism::wtp::{PriceCurve, TaskKind};
        static JOURNAL: std::sync::OnceLock<(Vec<u8>, Vec<usize>)> = std::sync::OnceLock::new();
        JOURNAL.get_or_init(|| {
            let mut bytes = Vec::new();
            let mut offsets = vec![0];
            for i in 1..=MAX_RECORDS as u32 {
                let cmd = match i * i % 7 % 3 {
                    0 => Command::Deposit {
                        account: format!("buyer-{}", i % 5),
                        amount: f64::from(i % 97 + 1),
                    },
                    1 => Command::SubmitOffer(OfferSpec {
                        buyer: format!("buyer-{}", i % 5),
                        attributes: vec!["city".into(), format!("attr-{}", i % 11)],
                        keywords: vec![],
                        task: TaskKind::AttributeCoverage,
                        curve: PriceCurve::Constant(f64::from(i % 13 + 1)),
                        min_rows: 1,
                        purpose: "research".into(),
                    }),
                    _ => Command::RunRound { rounds: 1 + i % 3 },
                };
                frame_record(u64::from(i), &cmd, &mut bytes);
                offsets.push(bytes.len());
            }
            (bytes, offsets)
        })
    }

    proptest! {
        /// `Journal::open` returns the records and keeps the bytes of
        /// the record-by-record reference, on intact journals and on
        /// every kind of damage a crash or tamper leaves: a torn tail,
        /// a flipped byte, a CRC-intact frame that does not decode. In
        /// half the cases that are long enough, the damage hits a record
        /// next to the first chunk boundary. The reopened journal then
        /// takes appends on a clean frame boundary.
        #[test]
        fn chunked_decode_equals_the_sequential_reference(
            len in 0usize..MAX_RECORDS + 1,
            damage in 0u8..4,
            near_boundary in 0usize..6,
            pick in 0u64..u64::MAX,
        ) {
            let (full, offsets) = generated_journal();
            let mut bytes = full[..offsets[len]].to_vec();
            // The damaged record: one of CHUNK − 1, CHUNK, CHUNK + 1,
            // or any record.
            let at = match near_boundary {
                k @ 0..=2 if DECODE_CHUNK - 1 + k <= len => DECODE_CHUNK - 1 + k,
                _ => (pick % (len as u64 + 1)) as usize,
            };
            let start = offsets[at];
            let extent = if at < len { offsets[at + 1] - start } else { 0 };
            let within = (pick >> 32) as usize % (extent + 1);
            match damage {
                1 => bytes.truncate(start + within),
                2 if !bytes.is_empty() => {
                    let byte = (start + within).min(bytes.len() - 1);
                    bytes[byte] ^= 1 << (pick % 8);
                }
                3 => {
                    let payload: &[u8] = match pick % 3 {
                        0 => br#"{"seq":1,"cmd":{"op":"frobnicate"}}"#,
                        1 => br#"{"cmd":{"op":"run_round","rounds":1}}"#,
                        _ => b"not json",
                    };
                    let mut spliced = bytes[..start].to_vec();
                    frame(payload, &mut spliced);
                    spliced.extend_from_slice(&bytes[start..]);
                    bytes = spliced;
                }
                _ => {}
            }
            let (expected, expected_len) = sequential_open(&bytes);

            let dir = tmp("chunked");
            let path = dir.join("journal.wal");
            std::fs::write(&path, &bytes).unwrap();
            let (mut journal, records) = Journal::open(&path, false).unwrap();
            prop_assert_eq!(&records, &expected);
            prop_assert_eq!(journal.len().unwrap(), expected_len as u64);

            let next = records.last().map_or(1, |(seq, _)| seq + 1);
            let appended = Command::RunRound { rounds: 2 };
            journal.append(next, &appended).unwrap();
            drop(journal);
            let (_, reopened) = Journal::open(&path, false).unwrap();
            prop_assert_eq!(reopened.len(), records.len() + 1);
            prop_assert_eq!(reopened.last(), Some(&(next, appended)));
        }
    }

    /// `truncate_prefix` as it was before seqs came from positions:
    /// decode every record and re-frame those past `upto`.
    fn decoding_compaction(bytes: &[u8], upto: u64) -> Vec<u8> {
        let (payloads, _) = scan_frames(bytes);
        let mut kept = Vec::new();
        for payload in payloads {
            let (seq, _) = decode_record(payload).unwrap();
            if seq > upto {
                frame(payload, &mut kept);
            }
        }
        kept
    }

    #[test]
    fn compaction_by_position_keeps_what_decoding_every_record_kept() {
        let (full, offsets) = generated_journal();
        let records = 40;
        let bytes = &full[..offsets[records]];
        let next = Command::RunRound { rounds: 1 };
        for upto in [0, 1, records as u64 / 2, records as u64] {
            let dir = tmp("positional");
            let path = dir.join("journal.wal");
            std::fs::write(&path, bytes).unwrap();
            let (mut journal, _) = Journal::open(&path, false).unwrap();
            let expected = decoding_compaction(bytes, upto);
            let dropped = journal.truncate_prefix(upto).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), expected, "cut at {upto}");
            assert_eq!(dropped, (bytes.len() - expected.len()) as u64);
            // The journal still knows its first seq: it takes the next
            // append, and a second compaction agrees with the loop too.
            journal.append(records as u64 + 1, &next).unwrap();
            let grown = std::fs::read(&path).unwrap();
            journal.truncate_prefix(upto + 1).unwrap();
            let expected = decoding_compaction(&grown, upto + 1);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                expected,
                "cut at {}",
                upto + 1
            );
        }
    }

    #[test]
    fn compaction_refuses_a_journal_whose_last_seq_disagrees_with_its_position() {
        let dir = tmp("positional-gap");
        let path = dir.join("journal.wal");
        let (mut journal, _) = Journal::open(&path, false).unwrap();
        for seq in [1, 2, 4] {
            journal
                .append(seq, &Command::RunRound { rounds: 1 })
                .unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let err = journal.truncate_prefix(2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), before);
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
