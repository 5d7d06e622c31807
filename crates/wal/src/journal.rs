//! The append-only journal: CRC-32-framed records over a storage
//! backend, and the replay that survives torn tails, bit rot and
//! duplicated appends.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! ┌─────────┬────────┬─────────┬───────────────┬─────────┐
//! │ len u32 │ ver u8 │ seq u64 │ payload (len) │ crc u32 │
//! └─────────┴────────┴─────────┴───────────────┴─────────┘
//!            └────────── CRC-32/ETHERNET ─────┘
//! ```
//!
//! `len` counts only the payload. `seq` is a strictly increasing frame
//! number, which is what makes duplicated appends detectable. The CRC
//! covers `ver ‖ seq ‖ payload` — not `len`, because a corrupted `len`
//! makes the frame boundary itself untrustworthy and is classified as
//! a torn tail.
//!
//! **The torn-tail rule.** Replay distinguishes two corruptions:
//!
//! * a frame whose bytes are all present but whose CRC disagrees is
//!   *bit rot* — count it, skip it, keep replaying, because every
//!   frame behind it was durable long before the rot;
//! * a frame that runs past the end of the log (or whose `len` is
//!   absurd) is a *torn tail* — the crash cut a write short, nothing
//!   after this point was ever acknowledged, so replay **stops**.
//!
//! Replaying past a torn tail would fabricate acknowledged state from
//! garbage; `analyze::JournalModel` checks exactly this rule.

use crate::hasher::FrameHasher;
use crate::record::{Record, WIRE_VERSION};
use crate::storage::StorageBackend;

/// Frame header bytes preceding the payload: `len` + `ver` + `seq`.
pub const FRAME_HEADER: usize = 4 + 1 + 8;

/// Trailer bytes after the payload: the CRC.
pub const FRAME_TRAILER: usize = 4;

/// Payloads above this are never written; replay treats a larger `len`
/// as a torn tail (a length field made of garbage).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Counters a journal accumulates while appending.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Frames appended.
    pub frames: u64,
    /// Payload + framing bytes appended.
    pub bytes: u64,
    /// Flushes issued.
    pub flushes: u64,
}

/// An append-only record journal over a [`StorageBackend`].
pub struct Journal {
    backend: Box<dyn StorageBackend>,
    hasher: Box<dyn FrameHasher>,
    next_seq: u64,
    stats: JournalStats,
    /// The frame `append` builds, kept for its storage.
    frame: Vec<u8>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("next_seq", &self.next_seq)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// What one replay of the durable bytes found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Accepted records in journal order, with their frame sequence
    /// numbers.
    pub records: Vec<(u64, Record)>,
    /// Frames that verified and decoded.
    pub frames_ok: u64,
    /// `true` when replay stopped at a torn tail.
    pub torn_tail: bool,
    /// Complete frames whose CRC disagreed (bit rot): skipped.
    pub corrupt_frames: u64,
    /// Frames replaying an already-seen sequence number (duplicated
    /// appends): skipped.
    pub duplicate_frames: u64,
    /// Verified frames whose payload failed to decode: skipped.
    pub decode_errors: u64,
    /// Durable bytes examined (through the last accepted frame).
    pub bytes_scanned: usize,
}

impl Replay {
    /// `true` when every durable byte replayed cleanly.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.torn_tail
            && self.corrupt_frames == 0
            && self.duplicate_frames == 0
            && self.decode_errors == 0
    }
}

/// Replays `bytes` (a durable journal image) with `hasher` verifying
/// each frame's CRC. Implements the torn-tail rule documented at the
/// module level.
#[must_use]
pub fn replay_bytes(bytes: &[u8], hasher: &mut dyn FrameHasher) -> Replay {
    let mut out = Replay {
        records: Vec::new(),
        frames_ok: 0,
        torn_tail: false,
        corrupt_frames: 0,
        duplicate_frames: 0,
        decode_errors: 0,
        bytes_scanned: 0,
    };
    let mut pos = 0usize;
    let mut last_seq: Option<u64> = None;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER + FRAME_TRAILER {
            out.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
        if len > MAX_PAYLOAD || (len as usize) > remaining - FRAME_HEADER - FRAME_TRAILER {
            out.torn_tail = true;
            break;
        }
        let len = len as usize;
        let body = &bytes[pos + 4..pos + 4 + 1 + 8 + len]; // ver ‖ seq ‖ payload
        let crc_at = pos + FRAME_HEADER + len;
        let stored = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("4"));
        let frame_end = crc_at + 4;
        if hasher.crc32(body) != stored {
            out.corrupt_frames += 1;
            pos = frame_end;
            continue;
        }
        let ver = body[0];
        let seq = u64::from_le_bytes(body[1..9].try_into().expect("8"));
        if ver != WIRE_VERSION {
            // A verified frame from a future format: skip it rather
            // than misparse it.
            out.decode_errors += 1;
            pos = frame_end;
            continue;
        }
        if last_seq.is_some_and(|prev| seq <= prev) {
            out.duplicate_frames += 1;
            pos = frame_end;
            continue;
        }
        match Record::decode(&body[9..]) {
            Ok(rec) => {
                last_seq = Some(seq);
                out.frames_ok += 1;
                out.records.push((seq, rec));
                out.bytes_scanned = frame_end;
            }
            Err(_) => {
                out.decode_errors += 1;
            }
        }
        pos = frame_end;
    }
    out
}

impl Journal {
    /// A journal over an empty (or to-be-overwritten) backend, writing
    /// frames from sequence 1.
    #[must_use]
    pub fn new(backend: Box<dyn StorageBackend>, hasher: Box<dyn FrameHasher>) -> Self {
        Journal {
            backend,
            hasher,
            next_seq: 1,
            stats: JournalStats::default(),
            frame: Vec::new(),
        }
    }

    /// Opens a journal over a backend that may already hold frames —
    /// the crash-restart path. Replays the durable bytes, positions
    /// the writer after the last accepted sequence number, and
    /// truncates whatever the crash left past it (a torn tail is a
    /// replay STOP condition, so garbage left in place would strand
    /// every frame the new epoch appends behind it — the next replay
    /// would stop at the old tear and never reach them).
    #[must_use]
    pub fn recover(
        mut backend: Box<dyn StorageBackend>,
        mut hasher: Box<dyn FrameHasher>,
    ) -> (Self, Replay) {
        let replay = replay_bytes(&backend.durable(), hasher.as_mut());
        backend.truncate(replay.bytes_scanned);
        let next_seq = replay.records.last().map_or(1, |(seq, _)| seq + 1);
        (
            Journal {
                backend,
                hasher,
                next_seq,
                stats: JournalStats::default(),
                frame: Vec::new(),
            },
            replay,
        )
    }

    /// Appends one record as a framed, CRC'd write. Durable only after
    /// [`flush`](Self::flush).
    pub fn append(&mut self, rec: &Record) {
        // The frame is built in place: the length is patched in once the
        // payload is written, and the CRC covers everything after it.
        let frame = &mut self.frame;
        frame.clear();
        frame.extend_from_slice(&[0; 4]);
        frame.push(WIRE_VERSION);
        frame.extend_from_slice(&self.next_seq.to_le_bytes());
        rec.encode_into(frame);
        let len = u32::try_from(frame.len() - FRAME_HEADER).expect("payload fits u32");
        assert!(len <= MAX_PAYLOAD, "record payload exceeds MAX_PAYLOAD");
        frame[..4].copy_from_slice(&len.to_le_bytes());
        let crc = self.hasher.crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());
        self.backend.append(frame);
        self.next_seq += 1;
        self.stats.frames += 1;
        self.stats.bytes += frame.len() as u64;
    }

    /// Makes every appended frame durable.
    pub fn flush(&mut self) {
        self.backend.flush();
        self.stats.flushes += 1;
    }

    /// The next frame sequence number.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append-side counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The hasher's accumulated counters (frames, software path,
    /// ladder runs).
    #[must_use]
    pub fn hasher_stats(&self) -> crate::hasher::HasherStats {
        self.hasher.stats()
    }

    /// Mutable access to the frame hasher, for harnesses that inject
    /// fabric faults or force the software path.
    pub fn hasher_mut(&mut self) -> &mut dyn FrameHasher {
        self.hasher.as_mut()
    }

    /// Replays the currently durable bytes without disturbing the
    /// writer (diagnostics; recovery uses [`Journal::recover`]).
    #[must_use]
    pub fn replay_durable(&mut self) -> Replay {
        let bytes = self.backend.durable();
        replay_bytes(&bytes, self.hasher.as_mut())
    }
}

/// Walks the complete frames in `bytes` and returns the byte range of
/// each frame's *payload* (after `ver`/`seq`). A bit-rot fault uses
/// this to pick a cold byte that corrupts record content rather than
/// the frame geometry, keeping the damage CRC-detectable instead of
/// boundary-destroying.
#[must_use]
pub fn payload_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER + FRAME_TRAILER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
        if len > MAX_PAYLOAD {
            break;
        }
        let len = len as usize;
        let end = pos + FRAME_HEADER + len + FRAME_TRAILER;
        if end > bytes.len() {
            break;
        }
        if len > 0 {
            out.push((pos + FRAME_HEADER, pos + FRAME_HEADER + len));
        }
        pos = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::SoftwareHasher;
    use crate::storage::{CrashKind, SharedDisk, SimDisk};

    fn sample(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| match i % 3 {
                0 => Record::Clock { now: i },
                1 => Record::Open {
                    id: i,
                    shard: u32::try_from(i % 4).unwrap(),
                    personality: format!("eth{i}"),
                },
                _ => Record::FeedWatermark {
                    id: i,
                    bytes_fed: i * 7,
                },
            })
            .collect()
    }

    fn journal_with(records: &[Record]) -> (Journal, SharedDisk) {
        let disk = SharedDisk::new();
        let mut j = Journal::new(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        for r in records {
            j.append(r);
        }
        j.flush();
        (j, disk)
    }

    #[test]
    fn append_replay_round_trips() {
        let recs = sample(9);
        let (mut j, _disk) = journal_with(&recs);
        let replay = j.replay_durable();
        assert!(replay.clean());
        assert_eq!(replay.frames_ok, 9);
        let got: Vec<Record> = replay.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, recs);
    }

    #[test]
    fn unflushed_suffix_is_lost_on_crash() {
        let disk = SharedDisk::new();
        let mut j = Journal::new(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        j.append(&Record::Clock { now: 1 });
        j.flush();
        j.append(&Record::Clock { now: 2 });
        disk.crash(CrashKind::LostSuffix);
        let (j2, replay) = Journal::recover(Box::new(disk), Box::new(SoftwareHasher::new()));
        assert!(replay.clean());
        assert_eq!(replay.frames_ok, 1);
        assert_eq!(replay.records[0].1, Record::Clock { now: 1 });
        assert_eq!(j2.next_seq(), 2, "writer resumes after the survivor");
    }

    #[test]
    fn torn_tail_stops_replay() {
        let disk = SharedDisk::new();
        let mut j = Journal::new(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        j.append(&Record::Clock { now: 1 });
        j.flush();
        j.append(&Record::Finish { id: 7 });
        // Tear mid-frame: keep a strict prefix of the pending frame.
        disk.crash(CrashKind::Torn { keep: 5 });
        let (_, replay) = Journal::recover(Box::new(disk), Box::new(SoftwareHasher::new()));
        assert!(replay.torn_tail);
        assert_eq!(replay.frames_ok, 1, "records before the tear survive");
        assert_eq!(replay.corrupt_frames, 0, "a tear is not bit rot");
    }

    #[test]
    fn bit_rot_is_skipped_not_fatal() {
        let recs = sample(5);
        let (_, disk) = journal_with(&recs);
        let durable = disk.durable();
        let ranges = payload_ranges(&durable);
        assert_eq!(ranges.len(), 5);
        // Rot a payload byte of the middle frame.
        disk.corrupt_byte(ranges[2].0, 0x40);
        let (_, replay) = Journal::recover(Box::new(disk), Box::new(SoftwareHasher::new()));
        assert!(!replay.torn_tail);
        assert_eq!(replay.corrupt_frames, 1);
        assert_eq!(replay.frames_ok, 4, "frames around the rot replay fine");
    }

    #[test]
    fn duplicated_append_is_deduplicated_by_seq() {
        let disk = SharedDisk::new();
        let mut j = Journal::new(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        j.append(&Record::Clock { now: 1 });
        disk.arm_duplicate();
        j.append(&Record::Finish { id: 3 });
        j.append(&Record::Clock { now: 2 });
        j.flush();
        let (_, replay) = Journal::recover(Box::new(disk), Box::new(SoftwareHasher::new()));
        assert_eq!(replay.duplicate_frames, 1);
        assert_eq!(replay.frames_ok, 3);
        assert_eq!(
            replay
                .records
                .iter()
                .filter(|(_, r)| *r == Record::Finish { id: 3 })
                .count(),
            1,
            "the duplicated frame applies once"
        );
    }

    #[test]
    fn absurd_length_field_is_a_torn_tail() {
        let mut disk = SimDisk::new();
        {
            let d: &mut dyn StorageBackend = &mut disk;
            d.append(&(MAX_PAYLOAD + 1).to_le_bytes());
            d.append(&[0u8; 32]);
            d.flush();
        }
        let mut h = SoftwareHasher::new();
        let replay = replay_bytes(&disk.durable(), &mut h);
        assert!(replay.torn_tail);
        assert_eq!(replay.frames_ok, 0);
    }

    #[test]
    fn recovered_journal_appends_a_new_epoch() {
        let recs = sample(4);
        let (_, disk) = journal_with(&recs);
        disk.crash(CrashKind::LostSuffix); // no-op: everything flushed
        let (mut j2, replay) =
            Journal::recover(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        assert_eq!(replay.frames_ok, 4);
        j2.append(&Record::Clock { now: 99 });
        j2.flush();
        let (_, replay2) = Journal::recover(Box::new(disk), Box::new(SoftwareHasher::new()));
        assert!(replay2.clean());
        assert_eq!(replay2.frames_ok, 5);
        assert_eq!(replay2.records.last().unwrap().1, Record::Clock { now: 99 });
    }
}
