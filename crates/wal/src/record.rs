//! The journal's record vocabulary and its wire encoding.
//!
//! Records are the control-plane facts a crashed cluster needs to
//! rebuild itself: hosted personalities, stream lifecycle (open, feed
//! watermarks, finish), checkpoint anchors (the only durable copy of a
//! stream's state), tokenized migrations (begin / applied / abort, so
//! recovery resolves in-flight transfers exactly once), shard
//! lifecycle (drain, down, reopen), breaker state, upgrade steps, and
//! typed losses.
//!
//! The encoding is hand-rolled little-endian: `tag: u8` then the
//! fields in declaration order. Strings are `u16` length + UTF-8
//! bytes; optional shard scopes are a `u8` flag followed by the value
//! only when present. The format is **pinned** — `WIRE_VERSION` frames
//! carry it, and the golden corpus test locks the bytes. Changing any
//! encoding here is a wire-format break: bump [`WIRE_VERSION`] instead
//! of mutating version 1.

/// The journal wire-format version stamped into every frame.
pub const WIRE_VERSION: u8 = 1;

/// One durable control-plane fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// The cluster clock at the start of a tick.
    Clock {
        /// Tick counter value.
        now: u64,
    },
    /// A CRC personality was hosted (`shard: None` = every shard).
    HostCrc {
        /// Target shard index, or `None` for all shards.
        shard: Option<u32>,
        /// Lane name.
        name: String,
        /// Catalogue spec name (e.g. `"CRC-32/ETHERNET"`).
        spec: String,
        /// Datapath parallelism M.
        m: u8,
    },
    /// A scrambler personality was hosted (`shard: None` = every shard).
    HostScrambler {
        /// Target shard index, or `None` for all shards.
        shard: Option<u32>,
        /// Lane name.
        name: String,
        /// Catalogue spec name (e.g. `"IEEE-802.11"`).
        spec: String,
        /// Datapath parallelism M.
        m: u8,
    },
    /// A stream was admitted.
    Open {
        /// Stream id.
        id: u64,
        /// Shard it landed on.
        shard: u32,
        /// Personality lane it runs on.
        personality: String,
    },
    /// Cumulative bytes fed to a stream (diagnostic watermark).
    FeedWatermark {
        /// Stream id.
        id: u64,
        /// Total bytes accepted so far.
        bytes_fed: u64,
    },
    /// A stream completed and left the control plane.
    Finish {
        /// Stream id.
        id: u64,
    },
    /// A checkpoint anchor: the durable snapshot recovery restores
    /// from. Supersedes any earlier anchor for the same stream.
    CheckpointAnchor {
        /// Stream id.
        id: u64,
        /// Shard the stream was on when captured.
        shard: u32,
        /// Byte offset the client must rewind its feed to.
        resume_from: u64,
        /// Output bits already delivered at capture time.
        delivered_bits: u64,
        /// Opaque checkpoint snapshot bytes.
        bytes: Vec<u8>,
    },
    /// A tokenized migration started.
    MigrateBegin {
        /// Idempotency token.
        token: u64,
        /// Stream id.
        id: u64,
        /// Source shard.
        from: u32,
        /// Target shard.
        to: u32,
    },
    /// A migration's transfer landed (any path: tokenized, drain,
    /// rebalance, probe). The stream now routes to `to`.
    Migrated {
        /// Stream id.
        id: u64,
        /// Source shard.
        from: u32,
        /// Target shard.
        to: u32,
    },
    /// A tokenized migration failed and was undone.
    MigrateAbort {
        /// Idempotency token.
        token: u64,
        /// Stream id.
        id: u64,
    },
    /// A token entered the ledger: the operation's effect committed.
    TokenApplied {
        /// Idempotency token.
        token: u64,
        /// Stream the operation acted on.
        id: u64,
    },
    /// A shard was fenced for draining.
    Drain {
        /// Shard index.
        shard: u32,
    },
    /// A shard went down (`reason` is a `cluster::DownReason` code).
    ShardDown {
        /// Shard index.
        shard: u32,
        /// Down-reason code.
        reason: u8,
    },
    /// A drained shard was brought back with a fresh fabric.
    Reopen {
        /// Shard index.
        shard: u32,
    },
    /// A shard's circuit breaker changed state.
    Breaker {
        /// Shard index.
        shard: u32,
        /// Breaker rank (closed/open/half-open).
        rank: u8,
        /// Rank-local progress counter.
        count: u32,
    },
    /// A rolling-upgrade step was taken.
    UpgradeStage {
        /// Stage label.
        stage: String,
    },
    /// A stream was declared lost (`reason` is a `cluster::LossReason`
    /// code).
    Lost {
        /// Stream id.
        id: u64,
        /// Shard it was lost from.
        shard: u32,
        /// Loss-reason code.
        reason: u8,
    },
    /// A stream failed over from a dead shard to a survivor.
    Failover {
        /// Stream id.
        id: u64,
        /// Dead source shard.
        from: u32,
        /// Surviving target shard.
        to: u32,
    },
}

/// Why a record payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field at `offset` was complete.
    Truncated {
        /// Byte offset where the reader ran dry.
        offset: usize,
    },
    /// An unknown record tag.
    UnknownTag {
        /// The tag byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadString {
        /// Byte offset of the string field.
        offset: usize,
    },
    /// Bytes remained after the last field of the record.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { offset } => write!(f, "payload truncated at byte {offset}"),
            DecodeError::UnknownTag { tag } => write!(f, "unknown record tag {tag}"),
            DecodeError::BadString { offset } => write!(f, "invalid UTF-8 at byte {offset}"),
            DecodeError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

const TAG_CLOCK: u8 = 1;
const TAG_HOST_CRC: u8 = 2;
const TAG_HOST_SCRAMBLER: u8 = 3;
const TAG_OPEN: u8 = 4;
const TAG_FEED_WATERMARK: u8 = 5;
const TAG_FINISH: u8 = 6;
const TAG_CHECKPOINT_ANCHOR: u8 = 7;
const TAG_MIGRATE_BEGIN: u8 = 8;
const TAG_MIGRATED: u8 = 9;
const TAG_MIGRATE_ABORT: u8 = 10;
const TAG_TOKEN_APPLIED: u8 = 11;
const TAG_DRAIN: u8 = 12;
const TAG_SHARD_DOWN: u8 = 13;
const TAG_REOPEN: u8 = 14;
const TAG_BREAKER: u8 = 15;
const TAG_UPGRADE_STAGE: u8 = 16;
const TAG_LOST: u8 = 17;
const TAG_FAILOVER: u8 = 18;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("journal strings are short");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u32(out, x);
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    let len = u32::try_from(b.len()).expect("snapshot fits u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(b);
}

/// A bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::Truncated { offset: self.pos })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let at = self.pos;
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadString { offset: at })
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, DecodeError> {
        if self.u8()? == 0 {
            Ok(None)
        } else {
            Ok(Some(self.u32()?))
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn finish(&self) -> Result<(), DecodeError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes { extra })
        }
    }
}

impl Record {
    /// Short kind label for traces and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Record::Clock { .. } => "clock",
            Record::HostCrc { .. } => "host_crc",
            Record::HostScrambler { .. } => "host_scrambler",
            Record::Open { .. } => "open",
            Record::FeedWatermark { .. } => "feed_watermark",
            Record::Finish { .. } => "finish",
            Record::CheckpointAnchor { .. } => "checkpoint_anchor",
            Record::MigrateBegin { .. } => "migrate_begin",
            Record::Migrated { .. } => "migrated",
            Record::MigrateAbort { .. } => "migrate_abort",
            Record::TokenApplied { .. } => "token_applied",
            Record::Drain { .. } => "drain",
            Record::ShardDown { .. } => "shard_down",
            Record::Reopen { .. } => "reopen",
            Record::Breaker { .. } => "breaker",
            Record::UpgradeStage { .. } => "upgrade_stage",
            Record::Lost { .. } => "lost",
            Record::Failover { .. } => "failover",
        }
    }

    /// Encodes the record as a version-1 payload (tag + fields).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Record::encode`]'s payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Clock { now } => {
                out.push(TAG_CLOCK);
                put_u64(out, *now);
            }
            Record::HostCrc {
                shard,
                name,
                spec,
                m,
            } => {
                out.push(TAG_HOST_CRC);
                put_opt_u32(out, *shard);
                put_str(out, name);
                put_str(out, spec);
                out.push(*m);
            }
            Record::HostScrambler {
                shard,
                name,
                spec,
                m,
            } => {
                out.push(TAG_HOST_SCRAMBLER);
                put_opt_u32(out, *shard);
                put_str(out, name);
                put_str(out, spec);
                out.push(*m);
            }
            Record::Open {
                id,
                shard,
                personality,
            } => {
                out.push(TAG_OPEN);
                put_u64(out, *id);
                put_u32(out, *shard);
                put_str(out, personality);
            }
            Record::FeedWatermark { id, bytes_fed } => {
                out.push(TAG_FEED_WATERMARK);
                put_u64(out, *id);
                put_u64(out, *bytes_fed);
            }
            Record::Finish { id } => {
                out.push(TAG_FINISH);
                put_u64(out, *id);
            }
            Record::CheckpointAnchor {
                id,
                shard,
                resume_from,
                delivered_bits,
                bytes,
            } => {
                out.push(TAG_CHECKPOINT_ANCHOR);
                put_u64(out, *id);
                put_u32(out, *shard);
                put_u64(out, *resume_from);
                put_u64(out, *delivered_bits);
                put_bytes(out, bytes);
            }
            Record::MigrateBegin {
                token,
                id,
                from,
                to,
            } => {
                out.push(TAG_MIGRATE_BEGIN);
                put_u64(out, *token);
                put_u64(out, *id);
                put_u32(out, *from);
                put_u32(out, *to);
            }
            Record::Migrated { id, from, to } => {
                out.push(TAG_MIGRATED);
                put_u64(out, *id);
                put_u32(out, *from);
                put_u32(out, *to);
            }
            Record::MigrateAbort { token, id } => {
                out.push(TAG_MIGRATE_ABORT);
                put_u64(out, *token);
                put_u64(out, *id);
            }
            Record::TokenApplied { token, id } => {
                out.push(TAG_TOKEN_APPLIED);
                put_u64(out, *token);
                put_u64(out, *id);
            }
            Record::Drain { shard } => {
                out.push(TAG_DRAIN);
                put_u32(out, *shard);
            }
            Record::ShardDown { shard, reason } => {
                out.push(TAG_SHARD_DOWN);
                put_u32(out, *shard);
                out.push(*reason);
            }
            Record::Reopen { shard } => {
                out.push(TAG_REOPEN);
                put_u32(out, *shard);
            }
            Record::Breaker { shard, rank, count } => {
                out.push(TAG_BREAKER);
                put_u32(out, *shard);
                out.push(*rank);
                put_u32(out, *count);
            }
            Record::UpgradeStage { stage } => {
                out.push(TAG_UPGRADE_STAGE);
                put_str(out, stage);
            }
            Record::Lost { id, shard, reason } => {
                out.push(TAG_LOST);
                put_u64(out, *id);
                put_u32(out, *shard);
                out.push(*reason);
            }
            Record::Failover { id, from, to } => {
                out.push(TAG_FAILOVER);
                put_u64(out, *id);
                put_u32(out, *from);
                put_u32(out, *to);
            }
        }
    }

    /// Decodes one version-1 payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the payload is truncated, carries an
    /// unknown tag, holds invalid UTF-8, or has trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Record, DecodeError> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_CLOCK => Record::Clock { now: r.u64()? },
            TAG_HOST_CRC => Record::HostCrc {
                shard: r.opt_u32()?,
                name: r.string()?,
                spec: r.string()?,
                m: r.u8()?,
            },
            TAG_HOST_SCRAMBLER => Record::HostScrambler {
                shard: r.opt_u32()?,
                name: r.string()?,
                spec: r.string()?,
                m: r.u8()?,
            },
            TAG_OPEN => Record::Open {
                id: r.u64()?,
                shard: r.u32()?,
                personality: r.string()?,
            },
            TAG_FEED_WATERMARK => Record::FeedWatermark {
                id: r.u64()?,
                bytes_fed: r.u64()?,
            },
            TAG_FINISH => Record::Finish { id: r.u64()? },
            TAG_CHECKPOINT_ANCHOR => Record::CheckpointAnchor {
                id: r.u64()?,
                shard: r.u32()?,
                resume_from: r.u64()?,
                delivered_bits: r.u64()?,
                bytes: r.bytes()?,
            },
            TAG_MIGRATE_BEGIN => Record::MigrateBegin {
                token: r.u64()?,
                id: r.u64()?,
                from: r.u32()?,
                to: r.u32()?,
            },
            TAG_MIGRATED => Record::Migrated {
                id: r.u64()?,
                from: r.u32()?,
                to: r.u32()?,
            },
            TAG_MIGRATE_ABORT => Record::MigrateAbort {
                token: r.u64()?,
                id: r.u64()?,
            },
            TAG_TOKEN_APPLIED => Record::TokenApplied {
                token: r.u64()?,
                id: r.u64()?,
            },
            TAG_DRAIN => Record::Drain { shard: r.u32()? },
            TAG_SHARD_DOWN => Record::ShardDown {
                shard: r.u32()?,
                reason: r.u8()?,
            },
            TAG_REOPEN => Record::Reopen { shard: r.u32()? },
            TAG_BREAKER => Record::Breaker {
                shard: r.u32()?,
                rank: r.u8()?,
                count: r.u32()?,
            },
            TAG_UPGRADE_STAGE => Record::UpgradeStage { stage: r.string()? },
            TAG_LOST => Record::Lost {
                id: r.u64()?,
                shard: r.u32()?,
                reason: r.u8()?,
            },
            TAG_FAILOVER => Record::Failover {
                id: r.u64()?,
                from: r.u32()?,
                to: r.u32()?,
            },
            tag => return Err(DecodeError::UnknownTag { tag }),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every record kind, with non-trivial field values.
    pub(crate) fn specimens() -> Vec<Record> {
        vec![
            Record::Clock { now: 42 },
            Record::HostCrc {
                shard: None,
                name: "eth8".into(),
                spec: "CRC-32/ETHERNET".into(),
                m: 8,
            },
            Record::HostCrc {
                shard: Some(2),
                name: "eth32".into(),
                spec: "CRC-32/ETHERNET".into(),
                m: 32,
            },
            Record::HostScrambler {
                shard: Some(1),
                name: "wifi16".into(),
                spec: "IEEE-802.11".into(),
                m: 16,
            },
            Record::Open {
                id: 7,
                shard: 1,
                personality: "eth8".into(),
            },
            Record::FeedWatermark {
                id: 7,
                bytes_fed: 96,
            },
            Record::Finish { id: 7 },
            Record::CheckpointAnchor {
                id: 9,
                shard: 0,
                resume_from: 64,
                delivered_bits: 448,
                bytes: vec![0xAB; 17],
            },
            Record::MigrateBegin {
                token: 0xDEAD_BEEF,
                id: 9,
                from: 0,
                to: 2,
            },
            Record::Migrated {
                id: 9,
                from: 0,
                to: 2,
            },
            Record::MigrateAbort {
                token: 0xDEAD_BEEF,
                id: 9,
            },
            Record::TokenApplied {
                token: 0xDEAD_BEEF,
                id: 9,
            },
            Record::Drain { shard: 3 },
            Record::ShardDown {
                shard: 3,
                reason: 0,
            },
            Record::Reopen { shard: 3 },
            Record::Breaker {
                shard: 1,
                rank: 2,
                count: 1,
            },
            Record::UpgradeStage {
                stage: "cordon:2".into(),
            },
            Record::Lost {
                id: 11,
                shard: 2,
                reason: 1,
            },
            Record::Failover {
                id: 12,
                from: 2,
                to: 0,
            },
        ]
    }

    #[test]
    fn every_record_round_trips() {
        for rec in specimens() {
            let enc = rec.encode();
            let dec = Record::decode(&enc).expect("round trip");
            assert_eq!(dec, rec, "{}", rec.label());
            // Re-encoding the decode is byte-identical (canonical form).
            assert_eq!(dec.encode(), enc);
        }
    }

    #[test]
    fn unknown_tag_is_typed() {
        assert_eq!(
            Record::decode(&[0xEE]),
            Err(DecodeError::UnknownTag { tag: 0xEE })
        );
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        for rec in specimens() {
            let enc = rec.encode();
            for cut in 0..enc.len() {
                let err = Record::decode(&enc[..cut]).expect_err("truncated must fail");
                assert!(
                    matches!(
                        err,
                        DecodeError::Truncated { .. } | DecodeError::TrailingBytes { .. }
                    ),
                    "{}[..{cut}] gave {err:?}",
                    rec.label()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Record::Finish { id: 1 }.encode();
        enc.push(0);
        assert_eq!(
            Record::decode(&enc),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }
}
