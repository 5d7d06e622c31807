//! Serializable stream snapshots with a guarded binary envelope.
//!
//! A checkpoint captures everything needed to resume a stream
//! bit-exactly: the LFSR state **in the domain it lives in**, the
//! staged residual bits, undelivered scrambler output, the unprocessed
//! chunk queue, and the scheduling metadata. Transformed states are
//! stamped with the [`DerbyTransform::digest`] of the transform that
//! produced them: re-synthesis preserves the transform (same spec, same
//! M), so a snapshot rehydrates onto a reloaded or re-synthesized lane
//! directly, while a lane built for a different M is rejected with a
//! typed error instead of silently computing garbage.
//!
//! The wire format is deliberately dull — little-endian, length
//! prefixed — and wrapped in an envelope of magic, version and a
//! CRC-32/ETHERNET over every preceding byte, so any single corrupted
//! or missing byte is rejected at decode time.
//!
//! [`DerbyTransform::digest`]: lfsr_parallel::DerbyTransform::digest

use crate::session::{Priority, StreamKind};
use gf2::BitVec;
use lfsr::crc::{CrcSpec, SlicingCrc};
use std::fmt;
use std::sync::OnceLock;

/// Envelope magic: "PiCoGA STream Checkpoint".
pub const MAGIC: [u8; 4] = *b"PSTC";
/// Envelope version accepted by this build.
pub const VERSION: u16 = 1;

/// Digest value meaning "no transform": the state is plain, or the lane
/// is a dense fallback whose transform is the identity.
pub const NO_TRANSFORM: u64 = 0;

/// A self-contained snapshot of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Personality the stream was (and must again be) served by.
    pub name: String,
    /// What the stream computes.
    pub kind: StreamKind,
    /// Scheduling class.
    pub priority: Priority,
    /// Absolute deadline tick (EDF key) at checkpoint time.
    pub deadline: u64,
    /// `true` when `state` is in the plain (software) domain; `false`
    /// when it is in the transformed domain of the lane identified by
    /// `t_digest`.
    pub plain_domain: bool,
    /// [`DerbyTransform::digest`] of the transform `state` lives under,
    /// or [`NO_TRANSFORM`] for plain states and dense lanes.
    ///
    /// [`DerbyTransform::digest`]: lfsr_parallel::DerbyTransform::digest
    pub t_digest: u64,
    /// The LFSR state, in the domain named by `plain_domain`.
    pub state: BitVec,
    /// Residual bits staged toward the next M-bit block.
    pub staged: BitVec,
    /// Scrambler output produced but not yet collected.
    pub out_pending: BitVec,
    /// Chunks that were queued but never pumped.
    pub queued: Vec<Vec<u8>>,
    /// Payload bytes already absorbed into `state`/`staged`.
    pub bytes_fed: u64,
}

/// Why a snapshot failed to decode or rehydrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the envelope or a length prefix promised.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic(
        /// The bytes found instead.
        [u8; 4],
    ),
    /// The envelope version is not [`VERSION`].
    BadVersion(
        /// The version found.
        u16,
    ),
    /// The envelope CRC does not match the payload.
    CrcMismatch {
        /// CRC stored in the envelope.
        stored: u64,
        /// CRC recomputed over the received bytes.
        computed: u64,
    },
    /// Structurally invalid payload (bad tag, bad UTF-8, inconsistent
    /// lengths).
    Malformed(
        /// What was malformed.
        &'static str,
    ),
    /// The snapshot's transformed state was produced under a different
    /// Derby transform than the target lane's — resuming would compute
    /// garbage.
    TransformMismatch {
        /// Digest the snapshot was stamped with.
        snapshot: u64,
        /// Digest of the target lane's transform.
        lane: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            CheckpointError::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            CheckpointError::CrcMismatch { stored, computed } => write!(
                f,
                "snapshot envelope CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            CheckpointError::TransformMismatch { snapshot, lane } => write!(
                f,
                "snapshot transform digest {snapshot:#018x} does not match lane {lane:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What a higher layer should do about a failed restore. Cluster
/// migration reacts differently to damaged bytes (retransfer the
/// snapshot and retry) than to an intact-but-unrunnable snapshot
/// (route it to a compatible shard or declare the stream lost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreDisposition {
    /// The bytes were damaged in transit or storage (truncation, bad
    /// magic, envelope CRC mismatch): the original snapshot may still
    /// be intact at the source — retransfer and retry.
    RetryTransfer,
    /// The snapshot decoded (or failed) with a valid envelope but
    /// cannot run here: wrong version, wrong Derby transform, wrong
    /// widths. Retrying the same bytes on the same host cannot succeed.
    Incompatible,
}

impl CheckpointError {
    /// Classifies this failure for retry-vs-declare-lost decisions
    /// (see [`RestoreDisposition`]).
    ///
    /// `Malformed` classifies as [`RestoreDisposition::Incompatible`]:
    /// it is only reachable *after* the envelope CRC verified, so the
    /// bytes arrived exactly as encoded and retrying cannot help.
    #[must_use]
    pub fn disposition(&self) -> RestoreDisposition {
        match self {
            CheckpointError::Truncated { .. }
            | CheckpointError::BadMagic(_)
            | CheckpointError::CrcMismatch { .. } => RestoreDisposition::RetryTransfer,
            CheckpointError::BadVersion(_)
            | CheckpointError::Malformed(_)
            | CheckpointError::TransformMismatch { .. } => RestoreDisposition::Incompatible,
        }
    }
}

/// The envelope's CRC-32/ETHERNET, on a slicing-by-8 kernel whose 16 KiB
/// of tables are built once per process and shared by every service.
fn envelope_crc(bytes: &[u8]) -> u64 {
    static KERNEL: OnceLock<SlicingCrc> = OnceLock::new();
    KERNEL
        .get_or_init(|| {
            SlicingCrc::new(CrcSpec::crc32_ethernet(), 8).expect("CRC-32/ETHERNET is reflected")
        })
        .checksum_of(bytes)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The length, then [`BitVec::to_le_bytes`] read straight off the words
/// (the bits past the length are zero).
fn put_bits(out: &mut Vec<u8>, bits: &BitVec) {
    put_u32(out, u32::try_from(bits.len()).expect("bit length fits u32"));
    let bytes = bits.words().iter().flat_map(|w| w.to_le_bytes());
    out.extend(bytes.take(bits.len().div_ceil(8)));
}

/// Sequential little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated {
                need: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bits(&mut self) -> Result<BitVec, CheckpointError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len.div_ceil(8))?;
        Ok(BitVec::from_le_bytes(bytes, len))
    }
}

/// A snapshot's fields, borrowed: what [`StreamCheckpoint::encode`]
/// writes, so a live session is serialized without being copied first.
pub(crate) struct CheckpointRef<'a> {
    pub(crate) name: &'a str,
    pub(crate) kind: StreamKind,
    pub(crate) priority: Priority,
    pub(crate) deadline: u64,
    pub(crate) plain_domain: bool,
    pub(crate) t_digest: u64,
    pub(crate) state: &'a BitVec,
    pub(crate) staged: &'a BitVec,
    pub(crate) out_pending: &'a BitVec,
    /// The queued chunks, oldest first, in two runs (as a `VecDeque`
    /// holds them).
    pub(crate) queued: [&'a [Vec<u8>]; 2],
    pub(crate) bytes_fed: u64,
}

impl StreamCheckpoint {
    /// Serializes the snapshot into the guarded envelope.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        CheckpointRef {
            name: &self.name,
            kind: self.kind,
            priority: self.priority,
            deadline: self.deadline,
            plain_domain: self.plain_domain,
            t_digest: self.t_digest,
            state: &self.state,
            staged: &self.staged,
            out_pending: &self.out_pending,
            queued: [&self.queued, &[]],
            bytes_fed: self.bytes_fed,
        }
        .encode()
    }
}

impl CheckpointRef<'_> {
    /// See [`StreamCheckpoint::encode`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.name.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // The payload length, patched in once the payload is written.
        put_u32(&mut out, 0);
        out.push(match self.kind {
            StreamKind::Crc => 0u8,
            StreamKind::Scrambler => 1u8,
        });
        out.push(match self.priority {
            Priority::Low => 0u8,
            Priority::High => 1u8,
        });
        out.push(u8::from(self.plain_domain));
        put_u32(&mut out, u32::try_from(self.name.len()).expect("name fits"));
        out.extend_from_slice(self.name.as_bytes());
        put_u64(&mut out, self.t_digest);
        put_u64(&mut out, self.deadline);
        put_u64(&mut out, self.bytes_fed);
        put_bits(&mut out, self.state);
        put_bits(&mut out, self.staged);
        put_bits(&mut out, self.out_pending);
        let queued = self.queued[0].len() + self.queued[1].len();
        put_u32(&mut out, u32::try_from(queued).expect("queue fits"));
        for chunk in self.queued.iter().copied().flatten() {
            put_u32(&mut out, u32::try_from(chunk.len()).expect("chunk fits"));
            out.extend_from_slice(chunk);
        }
        let payload_len = u32::try_from(out.len() - 10).expect("payload fits");
        out[6..10].copy_from_slice(&payload_len.to_le_bytes());
        let crc = envelope_crc(&out);
        out.extend_from_slice(&u32::try_from(crc).expect("32-bit CRC").to_le_bytes());
        out
    }
}

impl StreamCheckpoint {
    /// Validates the envelope and decodes the snapshot.
    ///
    /// # Errors
    ///
    /// Every structural defect maps to a distinct [`CheckpointError`];
    /// any single corrupted byte fails at least the CRC check.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 14 {
            return Err(CheckpointError::Truncated {
                need: 14,
                have: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let payload_len = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
        let total = 10 + payload_len + 4;
        if bytes.len() != total {
            return Err(CheckpointError::Truncated {
                need: total,
                have: bytes.len(),
            });
        }
        let stored = u64::from(u32::from_le_bytes(
            bytes[total - 4..].try_into().expect("4 bytes"),
        ));
        let computed = envelope_crc(&bytes[..total - 4]);
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { stored, computed });
        }

        let mut r = Reader {
            buf: &bytes[10..total - 4],
            pos: 0,
        };
        let kind = match r.u8()? {
            0 => StreamKind::Crc,
            1 => StreamKind::Scrambler,
            _ => return Err(CheckpointError::Malformed("stream kind tag")),
        };
        let priority = match r.u8()? {
            0 => Priority::Low,
            1 => Priority::High,
            _ => return Err(CheckpointError::Malformed("priority tag")),
        };
        let plain_domain = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Malformed("domain tag")),
        };
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| CheckpointError::Malformed("personality name UTF-8"))?
            .to_string();
        let t_digest = r.u64()?;
        let deadline = r.u64()?;
        let bytes_fed = r.u64()?;
        let state = r.bits()?;
        let staged = r.bits()?;
        let out_pending = r.bits()?;
        let n_queued = r.u32()? as usize;
        let mut queued = Vec::with_capacity(n_queued.min(1024));
        for _ in 0..n_queued {
            let len = r.u32()? as usize;
            queued.push(r.take(len)?.to_vec());
        }
        if r.pos != r.buf.len() {
            return Err(CheckpointError::Malformed("trailing payload bytes"));
        }
        Ok(StreamCheckpoint {
            name,
            kind,
            priority,
            deadline,
            plain_domain,
            t_digest,
            state,
            staged,
            out_pending,
            queued,
            bytes_fed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint {
            name: "eth32".into(),
            kind: StreamKind::Crc,
            priority: Priority::High,
            deadline: 17,
            plain_domain: false,
            t_digest: 0xDEAD_BEEF_CAFE_F00D,
            state: BitVec::from_u64(0x1234_5678, 32),
            staged: BitVec::from_u64(0b1011, 4),
            out_pending: BitVec::zeros(0),
            queued: vec![vec![1, 2, 3], vec![]],
            bytes_fed: 99,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cp = sample();
        assert_eq!(StreamCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn envelope_crc_matches_the_bit_serial_reference() {
        let spec = CrcSpec::crc32_ethernet();
        let data: Vec<u8> = (0..300u32).map(|i| (i * 151 + 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 100, 300] {
            assert_eq!(
                envelope_crc(&data[..len]),
                lfsr::crc::crc_bitwise(spec, &data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                StreamCheckpoint::decode(&bad).is_err(),
                "corruption at byte {i} slipped through"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                StreamCheckpoint::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes slipped through"
            );
        }
    }

    #[test]
    fn envelope_defects_are_typed() {
        let good = sample().encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            StreamCheckpoint::decode(&bad),
            Err(CheckpointError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            StreamCheckpoint::decode(&bad),
            Err(CheckpointError::BadVersion(_))
        ));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            StreamCheckpoint::decode(&bad),
            Err(CheckpointError::CrcMismatch { .. })
        ));

        assert!(matches!(
            StreamCheckpoint::decode(&good[..5]),
            Err(CheckpointError::Truncated { .. })
        ));
    }
}
