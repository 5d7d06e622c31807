//! Crash-consistent durability for the picolfsr cluster control plane.
//!
//! A serving stack built on the paper's adaptive DSP cannot ship
//! without crash consistency: checkpoints, placements, breaker state
//! and idempotency tokens all live in memory, and a whole-process
//! crash loses every one of them. This crate is the durability layer:
//!
//! * [`Journal`] — an append-only log of versioned, length-prefixed,
//!   CRC-32-framed [`Record`]s over a [`StorageBackend`];
//! * [`SimDisk`] / [`SharedDisk`] — a simulated disk with partial
//!   flush, so crashes can tear writes, lose unflushed suffixes, rot
//!   cold bytes and duplicate appends — all byte-reproducible;
//! * [`FabricHasher`] — frame CRCs computed through the fabric's own
//!   CRC-32/ETHERNET personality under the resilience policy, falling
//!   back to the software kernel when the lane degrades, so journal
//!   framing itself dogfoods the recovery ladder the paper's CRC
//!   application makes possible;
//! * [`replay_bytes`] — recovery replay implementing the torn-tail
//!   rule: bit rot is skipped and counted, a torn tail stops replay.
//!
//! `cluster::Cluster` journals its control-plane transitions through
//! this crate and rebuilds itself from a replay after a crash; the crash
//! storm (run by the `cluster_campaigns` bench binary) kills and
//! recovers whole clusters under seeded storage faults and gates the
//! result.

pub mod hasher;
pub mod journal;
pub mod record;
pub mod storage;

pub use hasher::{FabricHasher, FrameHasher, HasherStats, SoftwareHasher, WAL_LANE};
pub use journal::{
    payload_ranges, replay_bytes, Journal, JournalStats, Replay, FRAME_HEADER, FRAME_TRAILER,
    MAX_PAYLOAD,
};
pub use record::{DecodeError, Record, WIRE_VERSION};
pub use storage::{CrashKind, DiskStats, SharedDisk, SimDisk, StorageBackend};
