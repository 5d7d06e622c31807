//! The cluster control plane: N shards, one route table, three
//! robustness flows.
//!
//! Each shard is a full serving stack — a [`StreamService`] over a
//! [`resilience::ResilientSystem`] over its own simulated DREAM fabric.
//! The cluster in front owns global stream identity (monotonic ids that
//! never collide across shards), deterministic placement
//! ([`crate::placement`]), a checkpoint store fed by a periodic sweep,
//! and the three flows this crate exists for:
//!
//! * **live migration** — checkpoint-detach on the source shard,
//!   digest-verified transfer, restore-and-resume on the target. A
//!   failed restore is classified through the typed
//!   [`RestoreDisposition`]: damaged bytes are retransferred once,
//!   an incompatible snapshot is restored back onto its source and the
//!   caller told, so a stream is never stranded mid-flight.
//! * **shard drain** — an admission fence (no new placements) plus a
//!   bounded per-tick migrate-out until the shard holds nothing, then
//!   retirement.
//! * **whole-shard failover** — on a kill (simulated power loss), a
//!   tick that errors, or a health-monitor verdict, every stream routed
//!   to the dead shard is replayed from its last swept checkpoint onto
//!   survivors; streams without a usable checkpoint become **typed
//!   losses**, never silent ones.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::chaos::TransferChaos;
use crate::health::{HealthPolicy, HealthVerdict, ShardHealthMonitor};
use crate::placement::{mix64, shard_seed, PlacementPolicy, ShardView};
use crate::rebalance::{plan_moves, RebalancePolicy};
use crate::retry::{OpApply, OpToken, RetryPolicy};
use dream::ControlModel;
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::CrcSpec;
use lfsr::scramble::ScramblerSpec;
use obs::{EventKind, ScopeId, SpanCtx, SpanId};
use picoga::PicogaParams;
use resilience::FabricHealthSummary;
use resilience::{RecoveryPolicy, ResilientSystem};
use std::collections::BTreeMap;
use std::fmt;
use stream::{
    AdmissionConfig, Priority, RestoreDisposition, ServiceError, StreamCheckpoint, StreamOutput,
    StreamProgress, StreamService,
};
use wal::{Journal, Record as WalRecord, Replay};

/// FNV-1a 64 over the snapshot bytes: the transfer-channel integrity
/// digest a migration verifies before restoring. (The snapshot's own
/// CRC envelope guards decode; this digest guards the hand-off itself
/// and lets the cluster distinguish "channel damaged it" from "source
/// produced garbage".)
#[must_use]
pub fn transfer_digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Shard index as the journal's u32 wire type (indexes are small; a
/// saturation can only mean a corrupted journal, which replay rejects).
fn shard32(shard: usize) -> u32 {
    u32::try_from(shard).unwrap_or(u32::MAX)
}

/// Datapath width M as the journal's u8 wire type (the paper's M is at
/// most 128).
fn m_code(m: usize) -> u8 {
    u8::try_from(m).unwrap_or(u8::MAX)
}

/// Static description of one shard.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Stable name (rendezvous identity, metric scope, trace lane).
    pub name: String,
    /// Admission and overload configuration for the shard's service.
    pub admission: AdmissionConfig,
}

/// Static description of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shards, in index order.
    pub shards: Vec<ShardSpec>,
    /// Recovery policy every shard's resilient system runs under.
    pub recovery: RecoveryPolicy,
    /// Placement policy for new streams and replayed snapshots.
    pub placement: PlacementPolicy,
    /// When shards are retired on health grounds.
    pub health: HealthPolicy,
    /// Sweep every live and parked stream into the checkpoint store
    /// each this many ticks (`0` disables the sweep — failover then
    /// loses every stream, typed).
    pub checkpoint_interval: u64,
    /// Streams migrated off each draining shard per tick.
    pub drain_batch: usize,
    /// Per-shard circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Retry schedule for tokenized control-plane operations.
    pub retry: RetryPolicy,
    /// Load-driven rebalancing policy (disabled by default).
    pub rebalance: RebalancePolicy,
}

impl ClusterConfig {
    /// `n` identically configured shards named `shard0..shard{n-1}`.
    #[must_use]
    pub fn homogeneous(n: usize, admission: AdmissionConfig) -> Self {
        ClusterConfig {
            shards: (0..n)
                .map(|i| ShardSpec {
                    name: format!("shard{i}"),
                    admission,
                })
                .collect(),
            recovery: RecoveryPolicy::stream_serving(),
            placement: PlacementPolicy::default(),
            health: HealthPolicy::default(),
            checkpoint_interval: 8,
            drain_batch: 4,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            rebalance: RebalancePolicy::disabled(),
        }
    }
}

/// Lifecycle state of a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving and accepting new placements.
    Active,
    /// Serving existing streams, fenced against new placements, being
    /// emptied by the per-tick drain step.
    Draining,
    /// Retired; its service is never touched again.
    Down(
        /// Why the shard went down.
        DownReason,
    ),
}

impl ShardState {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ShardState::Active => "active",
            ShardState::Draining => "draining",
            ShardState::Down(_) => "down",
        }
    }
}

/// Why a shard was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownReason {
    /// Planned drain completed with the shard empty.
    Drained,
    /// [`Cluster::kill_shard`] — simulated power loss.
    Killed,
    /// The health monitor saw the fabric abandoned for too long.
    Abandoned,
    /// The shard's own tick failed; the cluster isolated it.
    TickFailed,
}

impl DownReason {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DownReason::Drained => "drained",
            DownReason::Killed => "killed",
            DownReason::Abandoned => "abandoned",
            DownReason::TickFailed => "tick_failed",
        }
    }

    /// Stable wire code for journal records.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            DownReason::Drained => 0,
            DownReason::Killed => 1,
            DownReason::Abandoned => 2,
            DownReason::TickFailed => 3,
        }
    }

    /// Decodes a journal wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(DownReason::Drained),
            1 => Some(DownReason::Killed),
            2 => Some(DownReason::Abandoned),
            3 => Some(DownReason::TickFailed),
            _ => None,
        }
    }
}

/// Why a stream on a dead shard could not be replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// The checkpoint sweep never captured it (or sweeps are off).
    NoCheckpoint,
    /// Its snapshot is intact but no surviving shard can run it.
    Incompatible,
    /// Every compatible survivor refused it for capacity.
    NoCapacity,
    /// Its stored snapshot fails validation even after a retransfer.
    Corrupt,
}

impl LossReason {
    /// Stable label for traces and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LossReason::NoCheckpoint => "no_checkpoint",
            LossReason::Incompatible => "incompatible",
            LossReason::NoCapacity => "no_capacity",
            LossReason::Corrupt => "corrupt",
        }
    }

    /// Stable wire code for journal records.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            LossReason::NoCheckpoint => 0,
            LossReason::Incompatible => 1,
            LossReason::NoCapacity => 2,
            LossReason::Corrupt => 3,
        }
    }

    /// Decodes a journal wire code.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(LossReason::NoCheckpoint),
            1 => Some(LossReason::Incompatible),
            2 => Some(LossReason::NoCapacity),
            3 => Some(LossReason::Corrupt),
            _ => None,
        }
    }
}

/// A typed loss record: the cluster's promise is that a stream either
/// keeps running somewhere or appears here — never neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLoss {
    /// The lost stream's cluster id.
    pub id: u64,
    /// The dead shard it was routed to.
    pub shard: usize,
    /// Why it could not be replayed.
    pub reason: LossReason,
}

/// One stream replayed onto a survivor, with everything a client needs
/// to resume: re-offer payload from byte `resume_from`, and (for
/// scramblers) discard collected output beyond `delivered_bits` — the
/// replayed stream regenerates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverResume {
    /// The stream's cluster id (unchanged by failover).
    pub id: u64,
    /// The dead shard it was on.
    pub from_shard: usize,
    /// The survivor now serving it.
    pub to_shard: usize,
    /// Client re-feed offset in payload bytes. Always a whole-chunk
    /// boundary: absorbed bytes advance chunk-at-a-time and queued
    /// chunks travel inside the snapshot.
    pub resume_from: u64,
    /// Scrambler output bits the checkpoint had already delivered;
    /// anything a client collected past this is regenerated and must be
    /// dropped before re-collecting.
    pub delivered_bits: u64,
}

/// What [`Cluster::recover`] rebuilt from the journal — and what it
/// could not. Every stream the journal knew about is accounted for in
/// `streams_restored + streams_lost + losses_carried` plus the
/// finished set; recovery never drops one silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames the journal replay accepted.
    pub frames_replayed: u64,
    /// Whether replay stopped at a torn tail.
    pub torn_tail: bool,
    /// Complete frames dropped for CRC mismatch (bit rot).
    pub corrupt_frames: u64,
    /// Frames skipped as duplicated appends.
    pub duplicate_frames: u64,
    /// Personalities re-hosted from the spec catalogue.
    pub hosts_restored: u64,
    /// Host records that could not be re-hosted (unknown spec, dead
    /// scope, capacity); streams needing them become typed losses.
    pub hosts_failed: u64,
    /// Streams restored from their checkpoint anchors.
    pub streams_restored: u64,
    /// Streams newly declared lost by this recovery (anchored but
    /// unplaceable, or live with no anchor).
    pub streams_lost: u64,
    /// Losses already typed before the crash, carried over.
    pub losses_carried: u64,
    /// Idempotency tokens re-entered into the ledger.
    pub tokens_restored: u64,
    /// In-flight migrations resolved as committed (transfer landed).
    pub migrations_committed: u64,
    /// In-flight migrations resolved as aborted (no landing recorded).
    pub migrations_aborted: u64,
    /// Shard circuit breakers restored from their last journal record.
    pub breakers_restored: u64,
}

/// Typed refusals and failures of the cluster layer.
#[derive(Debug)]
pub enum ClusterError {
    /// No stream with this cluster id (never opened, or finished).
    UnknownStream(
        /// The id requested.
        u64,
    ),
    /// No shard with this index.
    UnknownShard(
        /// The index requested.
        usize,
    ),
    /// The stream's shard is down (transient: failover runs in the
    /// same call that retires a shard, so callers should not see this).
    ShardDown(
        /// The down shard.
        usize,
    ),
    /// Migration target refused by the admission fence: the shard is
    /// draining, down, or its circuit breaker is not admitting.
    NotAccepting(
        /// The fenced shard.
        usize,
    ),
    /// [`Cluster::reopen_shard`] on a shard that is not cleanly drained
    /// — only a `Down(Drained)` shard can be rebuilt and rehosted.
    NotReopenable(
        /// The shard requested.
        usize,
    ),
    /// No active shard could take the stream.
    NoEligibleShard,
    /// The stream was declared lost during failover. The record is
    /// permanent: every later operation on the id returns this.
    StreamLost {
        /// The lost stream's cluster id.
        id: u64,
        /// The dead shard it was on.
        shard: usize,
        /// Why it was lost.
        reason: LossReason,
    },
    /// Snapshot bytes failed validation and a retransfer failed the
    /// same way — the snapshot itself is damaged.
    SnapshotCorrupt,
    /// The snapshot is intact but the requested target cannot run it;
    /// the stream was restored back onto its source shard.
    Incompatible {
        /// The stream left where it was.
        id: u64,
    },
    /// A shard-level error, with stream ids translated to cluster ids.
    Shard(ServiceError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownStream(id) => write!(f, "unknown cluster stream {id}"),
            ClusterError::UnknownShard(s) => write!(f, "unknown shard {s}"),
            ClusterError::ShardDown(s) => write!(f, "shard {s} is down"),
            ClusterError::NotAccepting(s) => write!(f, "shard {s} is not accepting streams"),
            ClusterError::NotReopenable(s) => {
                write!(f, "shard {s} is not cleanly drained; cannot reopen")
            }
            ClusterError::NoEligibleShard => write!(f, "no active shard can take this stream"),
            ClusterError::StreamLost { id, shard, reason } => write!(
                f,
                "stream {id} was lost with shard {shard} ({})",
                reason.label()
            ),
            ClusterError::SnapshotCorrupt => write!(f, "snapshot damaged beyond retransfer"),
            ClusterError::Incompatible { id } => {
                write!(f, "target cannot run stream {id}; left on source")
            }
            ClusterError::Shard(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServiceError> for ClusterError {
    fn from(e: ServiceError) -> Self {
        ClusterError::Shard(e)
    }
}

/// Where a stream currently lives.
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: usize,
    local: u64,
}

/// A swept snapshot plus the client-resume facts decoded from it once.
#[derive(Debug, Clone)]
struct CheckpointRecord {
    bytes: Vec<u8>,
    resume_from: u64,
    delivered_bits: u64,
}

impl CheckpointRecord {
    fn from_snapshot(bytes: Vec<u8>) -> Option<Self> {
        let cp = StreamCheckpoint::decode(&bytes).ok()?;
        let queued: u64 = cp.queued.iter().map(|c| c.len() as u64).sum();
        let delivered_bits = (cp.bytes_fed * 8)
            .saturating_sub(cp.staged.len() as u64)
            .saturating_sub(cp.out_pending.len() as u64);
        Some(CheckpointRecord {
            resume_from: cp.bytes_fed + queued,
            delivered_bits,
            bytes,
        })
    }
}

/// One shard: its service, lifecycle state, health streak, circuit
/// breaker, and any chaos disturbances currently applied to it.
struct Shard {
    name: String,
    seed: u64,
    state: ShardState,
    svc: StreamService,
    monitor: ShardHealthMonitor,
    breaker: CircuitBreaker,
    /// Chaos: ticks this shard still misses entirely (slowdown/skew).
    slow_ticks: u32,
    /// Chaos: ticks the health channel still reports a fabricated
    /// abandoned summary (byzantine probe).
    lie_ticks: u32,
}

/// Registry handles for the cluster's own decision counters (kept in a
/// cluster-level registry, separate from every shard's).
#[derive(Debug, Clone, Copy)]
struct ClusterIds {
    opened: obs::CounterId,
    completed: obs::CounterId,
    migrations: obs::CounterId,
    migration_retries: obs::CounterId,
    drains_started: obs::CounterId,
    shards_drained: obs::CounterId,
    shards_down: obs::CounterId,
    failovers: obs::CounterId,
    lost_streams: obs::CounterId,
    checkpoints_stored: obs::CounterId,
    breaker_trips: obs::CounterId,
    retry_attempts: obs::CounterId,
    retry_backoff_ticks: obs::CounterId,
    rebalance_moves: obs::CounterId,
    retire_vetoes: obs::CounterId,
    shards_reopened: obs::CounterId,
    probe_migrations: obs::CounterId,
    // WAL mirrors (satellite: journal health visible in snapshots, not
    // only in BENCH_crash.json). Counters mirror the journal's own
    // monotonic stats via set_counter; gauges carry point-in-time facts.
    wal_frames: obs::CounterId,
    wal_flushes: obs::CounterId,
    wal_bytes: obs::GaugeId,
    wal_frames_replayed: obs::CounterId,
    wal_frames_skipped: obs::CounterId,
    wal_torn_tails: obs::CounterId,
    wal_hasher_frames: obs::CounterId,
    wal_hasher_software_frames: obs::CounterId,
    wal_hasher_ladder_runs: obs::CounterId,
    wal_hasher_dmr_mismatches: obs::CounterId,
    wal_hasher_level: obs::GaugeId,
}

impl ClusterIds {
    fn register(reg: &mut obs::MetricsRegistry) -> Self {
        ClusterIds {
            opened: reg.counter("cluster.opened"),
            completed: reg.counter("cluster.completed"),
            migrations: reg.counter("cluster.migrations"),
            migration_retries: reg.counter("cluster.migration_retries"),
            drains_started: reg.counter("cluster.drains_started"),
            shards_drained: reg.counter("cluster.shards_drained"),
            shards_down: reg.counter("cluster.shards_down"),
            failovers: reg.counter("cluster.failovers"),
            lost_streams: reg.counter("cluster.lost_streams"),
            checkpoints_stored: reg.counter("cluster.checkpoints_stored"),
            breaker_trips: reg.counter("cluster.breaker_trips"),
            retry_attempts: reg.counter("cluster.retry_attempts"),
            retry_backoff_ticks: reg.counter("cluster.retry_backoff_ticks"),
            rebalance_moves: reg.counter("cluster.rebalance_moves"),
            retire_vetoes: reg.counter("cluster.retire_vetoes"),
            shards_reopened: reg.counter("cluster.shards_reopened"),
            probe_migrations: reg.counter("cluster.probe_migrations"),
            wal_frames: reg.counter("cluster.wal.frames_appended"),
            wal_flushes: reg.counter("cluster.wal.flushes"),
            wal_bytes: reg.gauge("cluster.wal.bytes"),
            wal_frames_replayed: reg.counter("cluster.wal.frames_replayed"),
            wal_frames_skipped: reg.counter("cluster.wal.frames_skipped"),
            wal_torn_tails: reg.counter("cluster.wal.torn_tails"),
            wal_hasher_frames: reg.counter("cluster.wal.hasher_frames"),
            wal_hasher_software_frames: reg.counter("cluster.wal.hasher_software_frames"),
            wal_hasher_ladder_runs: reg.counter("cluster.wal.hasher_ladder_runs"),
            wal_hasher_dmr_mismatches: reg.counter("cluster.wal.hasher_dmr_mismatches"),
            wal_hasher_level: reg.gauge("cluster.wal.hasher_level"),
        }
    }
}

/// Cumulative cluster-level decision counters (a typed view over the
/// cluster registry, mirroring [`stream::ServiceCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Streams opened (across all shards).
    pub opened: u64,
    /// Streams finished and delivered.
    pub completed: u64,
    /// Successful migrations (live, drain-driven and manual alike).
    pub migrations: u64,
    /// Restores retried after a damaged transfer.
    pub migration_retries: u64,
    /// Drains initiated.
    pub drains_started: u64,
    /// Shards retired empty by a completed drain.
    pub shards_drained: u64,
    /// Shards retired down (killed, abandoned, tick-failed).
    pub shards_down: u64,
    /// Streams replayed onto survivors by failover.
    pub failovers: u64,
    /// Streams declared lost (typed, permanent).
    pub lost_streams: u64,
    /// Snapshots captured into the checkpoint store by sweeps.
    pub checkpoints_stored: u64,
    /// Circuit-breaker trips (any shard entering Open).
    pub breaker_trips: u64,
    /// Tokenized-operation retry attempts performed.
    pub retry_attempts: u64,
    /// Total backoff (ticks) charged across those retries.
    pub retry_backoff_ticks: u64,
    /// Streams moved by the load rebalancer.
    pub rebalance_moves: u64,
    /// Health death-verdicts vetoed by the direct confirmation probe.
    pub retire_vetoes: u64,
    /// Drained shards rebuilt and reopened (rolling upgrades).
    pub shards_reopened: u64,
    /// Probe migrations sent to HalfOpen shards by the healing loop.
    pub probe_migrations: u64,
}

/// The sharded control plane. See the module docs for the three flows.
pub struct Cluster {
    shards: Vec<Shard>,
    specs: Vec<ShardSpec>,
    recovery: RecoveryPolicy,
    placement: PlacementPolicy,
    health: HealthPolicy,
    checkpoint_interval: u64,
    drain_batch: usize,
    breaker_cfg: BreakerConfig,
    retry: RetryPolicy,
    rebalance: RebalancePolicy,
    routes: BTreeMap<u64, Route>,
    store: BTreeMap<u64, CheckpointRecord>,
    losses: BTreeMap<u64, StreamLoss>,
    resumes: Vec<FailoverResume>,
    /// Idempotency ledger: applied operation token → committed payload
    /// (the stream id the operation concerned).
    ledger: BTreeMap<u64, u64>,
    /// Chaos: the next migration's transfer channel is sabotaged.
    armed_transfer: Option<TransferChaos>,
    /// The attached write-ahead journal, when durability is on.
    journal: Option<Journal>,
    next_id: u64,
    now: u64,
    registry: obs::MetricsRegistry,
    tracer: obs::Tracer,
    ids: ClusterIds,
    /// Per-shard breaker-state gauges (`shard{i}/breaker.state`,
    /// Closed = 0, Open = 1, HalfOpen = 2), index-aligned with `shards`.
    breaker_gauges: Vec<obs::GaugeId>,
    /// Innermost-first stack of the causal spans currently open in this
    /// call tree; `record` stamps events with the top.
    span_stack: Vec<SpanId>,
    /// Open cross-tick `drain` span per draining shard.
    drain_spans: BTreeMap<usize, SpanId>,
    /// Open cross-tick `upgrade` span per shard being rolled.
    upgrade_spans: BTreeMap<usize, SpanId>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards.len())
            .field("routes", &self.routes.len())
            .field("losses", &self.losses.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Builds the cluster: one full serving stack per shard spec.
    #[must_use]
    pub fn new(cfg: &ClusterConfig) -> Self {
        let mut registry = obs::MetricsRegistry::new();
        let ids = ClusterIds::register(&mut registry);
        let breaker_gauges = (0..cfg.shards.len())
            .map(|i| registry.scoped_gauge(&ScopeId::shard(i as u64), "breaker.state"))
            .collect();
        let shards = cfg
            .shards
            .iter()
            .map(|spec| {
                let rs = ResilientSystem::new(
                    PicogaParams::dream(),
                    ControlModel::default(),
                    cfg.recovery,
                );
                Shard {
                    seed: shard_seed(&spec.name),
                    name: spec.name.clone(),
                    state: ShardState::Active,
                    svc: StreamService::new(rs, spec.admission),
                    monitor: ShardHealthMonitor::default(),
                    breaker: CircuitBreaker::new(cfg.breaker),
                    slow_ticks: 0,
                    lie_ticks: 0,
                }
            })
            .collect();
        Cluster {
            shards,
            specs: cfg.shards.clone(),
            recovery: cfg.recovery,
            placement: cfg.placement,
            health: cfg.health,
            checkpoint_interval: cfg.checkpoint_interval,
            drain_batch: cfg.drain_batch.max(1),
            breaker_cfg: cfg.breaker,
            retry: cfg.retry,
            rebalance: cfg.rebalance,
            routes: BTreeMap::new(),
            store: BTreeMap::new(),
            losses: BTreeMap::new(),
            resumes: Vec::new(),
            ledger: BTreeMap::new(),
            armed_transfer: None,
            journal: None,
            next_id: 1,
            now: 0,
            registry,
            tracer: obs::Tracer::new(4096),
            ids,
            breaker_gauges,
            span_stack: Vec::new(),
            drain_spans: BTreeMap::new(),
            upgrade_spans: BTreeMap::new(),
        }
    }

    // ----- hosting ------------------------------------------------------

    /// Hosts a CRC personality on every shard (the homogeneous case:
    /// any stream can live anywhere).
    ///
    /// # Errors
    ///
    /// The first shard's hosting failure, translated.
    pub fn host_crc(
        &mut self,
        name: &str,
        spec: &CrcSpec,
        opts: FlowOptions,
    ) -> Result<(), ClusterError> {
        for sh in &mut self.shards {
            sh.svc.host_crc(name, spec, opts)?;
        }
        self.log(WalRecord::HostCrc {
            shard: None,
            name: name.to_string(),
            spec: spec.name.to_string(),
            m: m_code(opts.m),
        });
        Ok(())
    }

    /// Hosts a scrambler personality on every shard.
    ///
    /// # Errors
    ///
    /// The first shard's hosting failure, translated.
    pub fn host_scrambler(
        &mut self,
        name: &str,
        spec: &ScramblerSpec,
        opts: &FlowOptions,
    ) -> Result<(), ClusterError> {
        for sh in &mut self.shards {
            sh.svc.host_scrambler(name, spec, opts)?;
        }
        self.log(WalRecord::HostScrambler {
            shard: None,
            name: name.to_string(),
            spec: spec.name.to_string(),
            m: m_code(opts.m),
        });
        Ok(())
    }

    /// Hosts a CRC personality on one shard only (heterogeneous
    /// clusters; streams then only place where their personality is).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownShard`] or the hosting failure.
    pub fn host_crc_on(
        &mut self,
        shard: usize,
        name: &str,
        spec: &CrcSpec,
        opts: FlowOptions,
    ) -> Result<(), ClusterError> {
        let sh = self
            .shards
            .get_mut(shard)
            .ok_or(ClusterError::UnknownShard(shard))?;
        sh.svc.host_crc(name, spec, opts)?;
        self.log(WalRecord::HostCrc {
            shard: Some(shard32(shard)),
            name: name.to_string(),
            spec: spec.name.to_string(),
            m: m_code(opts.m),
        });
        Ok(())
    }

    /// Hosts a scrambler personality on one shard only (see
    /// [`Cluster::host_crc_on`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownShard`] or the hosting failure.
    pub fn host_scrambler_on(
        &mut self,
        shard: usize,
        name: &str,
        spec: &ScramblerSpec,
        opts: &FlowOptions,
    ) -> Result<(), ClusterError> {
        let sh = self
            .shards
            .get_mut(shard)
            .ok_or(ClusterError::UnknownShard(shard))?;
        sh.svc.host_scrambler(name, spec, opts)?;
        self.log(WalRecord::HostScrambler {
            shard: Some(shard32(shard)),
            name: name.to_string(),
            spec: spec.name.to_string(),
            m: m_code(opts.m),
        });
        Ok(())
    }

    // ----- durability ---------------------------------------------------

    /// Attaches a write-ahead journal: every subsequent control-plane
    /// transition (hosting, admission, checkpoints, migrations, shard
    /// lifecycle, breaker moves, losses) is appended as a typed
    /// [`wal::Record`], and [`Cluster::tick`] flushes once per tick.
    /// [`Cluster::recover`] rebuilds a cluster from the journal after a
    /// crash.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable access to the attached journal (harnesses degrade and
    /// heal its frame hasher through this).
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// Detaches and returns the journal, flushing it first.
    pub fn detach_journal(&mut self) -> Option<Journal> {
        let mut j = self.journal.take()?;
        j.flush();
        Some(j)
    }

    /// Appends one record when a journal is attached; a no-op without.
    fn log(&mut self, rec: WalRecord) {
        if let Some(j) = self.journal.as_mut() {
            j.append(&rec);
        }
    }

    /// Flushes the attached journal's pending frames to durable bytes
    /// and mirrors the journal's health into the cluster registry
    /// (`cluster.wal.*`), so WAL facts show up in every snapshot and
    /// rollup instead of only in the crash-storm report.
    fn flush_journal(&mut self) {
        let ids = self.ids;
        if let Some(j) = self.journal.as_mut() {
            j.flush();
            let s = j.stats();
            let h = j.hasher_stats();
            self.registry.set_counter(ids.wal_frames, s.frames);
            self.registry.set_counter(ids.wal_flushes, s.flushes);
            self.registry
                .set_gauge(ids.wal_bytes, i64::try_from(s.bytes).unwrap_or(i64::MAX));
            self.registry.set_counter(ids.wal_hasher_frames, h.frames);
            self.registry
                .set_counter(ids.wal_hasher_software_frames, h.software_frames);
            self.registry
                .set_counter(ids.wal_hasher_ladder_runs, h.ladder_runs);
            self.registry
                .set_counter(ids.wal_hasher_dmr_mismatches, h.dmr_mismatches);
            // Ladder level: 0 while the CRC lane runs on fabric, 1 on
            // the degraded software path.
            let level = i64::from(!j.hasher_mut().lane_healthy());
            self.registry.set_gauge(ids.wal_hasher_level, level);
        }
    }

    // ----- accessors ----------------------------------------------------

    /// Number of shards (any state).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A shard's lifecycle state.
    #[must_use]
    pub fn shard_state(&self, shard: usize) -> Option<ShardState> {
        self.shards.get(shard).map(|s| s.state)
    }

    /// A shard's name.
    #[must_use]
    pub fn shard_name(&self, shard: usize) -> Option<&str> {
        self.shards.get(shard).map(|s| s.name.as_str())
    }

    /// Indices of shards currently accepting placements.
    #[must_use]
    pub fn active_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == ShardState::Active)
            .map(|(i, _)| i)
            .collect()
    }

    /// A shard's service, read-only (killed shards included — their
    /// final state is frozen).
    #[must_use]
    pub fn shard_service(&self, shard: usize) -> Option<&StreamService> {
        self.shards.get(shard).map(|s| &s.svc)
    }

    /// Mutable access to a serving shard's service (fault injection in
    /// harnesses). `None` for unknown or down shards: a dead shard's
    /// state is never touched again.
    pub fn shard_service_mut(&mut self, shard: usize) -> Option<&mut StreamService> {
        self.shards
            .get_mut(shard)
            .filter(|s| !matches!(s.state, ShardState::Down(_)))
            .map(|s| &mut s.svc)
    }

    /// Every routed stream id, ascending.
    #[must_use]
    pub fn route_ids(&self) -> Vec<u64> {
        self.routes.keys().copied().collect()
    }

    /// The shard a stream is currently routed to.
    #[must_use]
    pub fn shard_of(&self, id: u64) -> Option<usize> {
        self.routes.get(&id).map(|r| r.shard)
    }

    /// All typed loss records so far, ascending by stream id.
    #[must_use]
    pub fn losses(&self) -> Vec<StreamLoss> {
        self.losses.values().copied().collect()
    }

    /// Drains the pending failover-resume notices. Each tells a client
    /// where its stream went and from which byte offset to re-feed.
    pub fn take_failover_resumes(&mut self) -> Vec<FailoverResume> {
        std::mem::take(&mut self.resumes)
    }

    /// Snapshots currently held in the checkpoint store.
    #[must_use]
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// The cluster's own tick counter.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// A shard's circuit-breaker state.
    #[must_use]
    pub fn breaker_state(&self, shard: usize) -> Option<BreakerState> {
        self.shards.get(shard).map(|s| s.breaker.state())
    }

    // ----- chaos hooks --------------------------------------------------
    //
    // Deterministic disturbance injection for the chaos harness (see
    // [`crate::chaos`]). Each hook records a typed `ChaosInject` event
    // in the cluster trace so every run is byte-reproducible and
    // explainable. The hooks model *external* adversity — a slow or
    // power-starved shard, a lossy transfer channel, a lying health
    // probe — never reach into stream state directly.

    /// Chaos: the shard misses its next `ticks` cluster ticks entirely
    /// (its service neither pumps nor ages; the breaker sees each
    /// missed tick as a failure).
    pub fn chaos_slow_shard(&mut self, shard: usize, ticks: u32) {
        if let Some(sh) = self.shards.get_mut(shard) {
            sh.slow_ticks = sh.slow_ticks.saturating_add(ticks);
            self.record(
                None,
                Some(shard),
                EventKind::ChaosInject { what: "slowdown" },
            );
        }
    }

    /// Chaos: for the next `ticks` ticks the shard's routine health
    /// probe reports a fabricated fully-abandoned fabric (a byzantine
    /// probe). The direct confirmation probe is unaffected — that is
    /// precisely the defense under test.
    pub fn chaos_lie_health(&mut self, shard: usize, ticks: u32) {
        if let Some(sh) = self.shards.get_mut(shard) {
            sh.lie_ticks = sh.lie_ticks.saturating_add(ticks);
            self.record(
                None,
                Some(shard),
                EventKind::ChaosInject {
                    what: "byzantine_health",
                },
            );
        }
    }

    /// Chaos: sabotages the transfer channel of the *next* migration
    /// (corrupt or truncate). The source keeps its pristine snapshot,
    /// so the typed undo path restores the stream; a tokenized retry
    /// then succeeds.
    pub fn chaos_arm_transfer(&mut self, mode: TransferChaos) {
        self.armed_transfer = Some(mode);
        self.record(None, None, EventKind::ChaosInject { what: mode.label() });
    }

    /// Cluster-level decision counters.
    #[must_use]
    pub fn counters(&self) -> ClusterCounters {
        let reg = &self.registry;
        ClusterCounters {
            opened: reg.counter_value(self.ids.opened),
            completed: reg.counter_value(self.ids.completed),
            migrations: reg.counter_value(self.ids.migrations),
            migration_retries: reg.counter_value(self.ids.migration_retries),
            drains_started: reg.counter_value(self.ids.drains_started),
            shards_drained: reg.counter_value(self.ids.shards_drained),
            shards_down: reg.counter_value(self.ids.shards_down),
            failovers: reg.counter_value(self.ids.failovers),
            lost_streams: reg.counter_value(self.ids.lost_streams),
            checkpoints_stored: reg.counter_value(self.ids.checkpoints_stored),
            breaker_trips: reg.counter_value(self.ids.breaker_trips),
            retry_attempts: reg.counter_value(self.ids.retry_attempts),
            retry_backoff_ticks: reg.counter_value(self.ids.retry_backoff_ticks),
            rebalance_moves: reg.counter_value(self.ids.rebalance_moves),
            retire_vetoes: reg.counter_value(self.ids.retire_vetoes),
            shards_reopened: reg.counter_value(self.ids.shards_reopened),
            probe_migrations: reg.counter_value(self.ids.probe_migrations),
        }
    }

    /// The cluster-level event trace.
    #[must_use]
    pub fn trace(&self) -> &obs::Tracer {
        &self.tracer
    }

    /// Cluster-level metrics only.
    #[must_use]
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    /// One merged snapshot of the whole deployment: cluster metrics
    /// under `cluster/`, every shard's full registry under its name.
    /// Deterministic (name-ordered) and byte-stable across same-seed
    /// runs, like every other export in the stack.
    #[must_use]
    pub fn metrics_merged(&self) -> obs::MetricsSnapshot {
        let mut all = self.registry.snapshot().scoped("cluster");
        for sh in &self.shards {
            all.merge(&sh.svc.obs().registry.snapshot().scoped(&sh.name));
        }
        all
    }

    // ----- routing helpers ----------------------------------------------

    fn views(&self) -> Vec<ShardView> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardView {
                index: i,
                seed: s.seed,
                // Placement only trusts shards whose breaker is fully
                // Closed; a HalfOpen shard is probed by explicit
                // migrations, not by fresh traffic.
                eligible: s.state == ShardState::Active
                    && s.breaker.state() == BreakerState::Closed,
                load: s.svc.live_streams() as u64,
            })
            .collect()
    }

    /// Applies a breaker transition's bookkeeping: the trip counter and
    /// the `breaker_state` trace event.
    fn note_breaker(&mut self, shard: usize, transition: Option<(&'static str, &'static str)>) {
        if let Some((from, to)) = transition {
            if to == "open" {
                self.registry.inc(self.ids.breaker_trips);
            }
            let rank = match self.shards[shard].breaker.state() {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            self.registry.set_gauge(self.breaker_gauges[shard], rank);
            self.record(None, Some(shard), EventKind::BreakerState { from, to });
            if self.journal.is_some() {
                let (rank, count) = self.shards[shard].breaker.raw();
                self.log(WalRecord::Breaker {
                    shard: shard32(shard),
                    rank,
                    count,
                });
            }
        }
    }

    fn route_of(&self, id: u64) -> Result<Route, ClusterError> {
        if let Some(loss) = self.losses.get(&id) {
            return Err(ClusterError::StreamLost {
                id,
                shard: loss.shard,
                reason: loss.reason,
            });
        }
        self.routes
            .get(&id)
            .copied()
            .ok_or(ClusterError::UnknownStream(id))
    }

    /// Translates shard-local stream ids inside a passthrough error to
    /// the cluster id the caller used.
    fn remap(e: ServiceError, id: u64) -> ClusterError {
        let e = match e {
            ServiceError::UnknownStream(_) => ServiceError::UnknownStream(id),
            ServiceError::UnknownParked(_) => ServiceError::UnknownParked(id),
            ServiceError::StreamParked(_) => ServiceError::StreamParked(id),
            ServiceError::StreamQueueFull { depth, .. } => {
                ServiceError::StreamQueueFull { id, depth }
            }
            other => other,
        };
        ClusterError::Shard(e)
    }

    fn record(&mut self, stream: Option<u64>, shard: Option<usize>, kind: EventKind) {
        let lane = shard.map(|i| self.shards[i].name.as_str());
        match self.span_stack.last().copied() {
            Some(sp) => self.tracer.record_in_span(self.now, sp, stream, lane, kind),
            None => self.tracer.record(self.now, stream, lane, kind),
        }
    }

    /// Records an event inside an explicit span (for cross-tick spans
    /// that are not on the call-scoped stack).
    fn record_spanned(
        &mut self,
        span: SpanId,
        stream: Option<u64>,
        shard: Option<usize>,
        kind: EventKind,
    ) {
        let lane = shard.map(|i| self.shards[i].name.as_str());
        self.tracer
            .record_in_span(self.now, span, stream, lane, kind);
    }

    /// Opens a causal span and pushes it on the call-scoped stack, so
    /// nested operations and events attribute to it. A context without
    /// an explicit parent inherits the current stack top.
    fn begin_op(&mut self, op: &'static str, mut ctx: SpanCtx) -> SpanId {
        if ctx.parent.is_none() {
            ctx.parent = self.span_stack.last().copied();
        }
        let id = self.tracer.begin_span(self.now, op, ctx);
        self.span_stack.push(id);
        id
    }

    /// Opens a cross-tick span (drain, upgrade) *without* putting it on
    /// the stack — it outlives this call tree and is closed by whoever
    /// tracks it.
    fn begin_op_detached(&mut self, op: &'static str, mut ctx: SpanCtx) -> SpanId {
        if ctx.parent.is_none() {
            ctx.parent = self.span_stack.last().copied();
        }
        self.tracer.begin_span(self.now, op, ctx)
    }

    /// Closes a span and unwinds it (and anything still above it) off
    /// the stack; detached spans are simply closed.
    fn end_op(&mut self, id: SpanId, outcome: &'static str) {
        self.tracer.end_span(self.now, id, outcome);
        if let Some(pos) = self.span_stack.iter().rposition(|&s| s == id) {
            self.span_stack.truncate(pos);
        }
    }

    /// Stable span-outcome label for a failed control-plane operation.
    fn outcome_label(e: &ClusterError) -> &'static str {
        match e {
            ClusterError::SnapshotCorrupt => "snapshot_corrupt",
            ClusterError::Incompatible { .. } => "incompatible",
            ClusterError::StreamLost { .. } => "lost",
            ClusterError::NotAccepting(_) => "not_accepting",
            ClusterError::NoEligibleShard => "no_eligible_shard",
            ClusterError::ShardDown(_) => "shard_down",
            ClusterError::NotReopenable(_) => "not_reopenable",
            ClusterError::UnknownStream(_) | ClusterError::UnknownShard(_) => "unknown",
            ClusterError::Shard(_) => "shard_error",
        }
    }

    /// Closes a shard's open upgrade span as interrupted — the rolling
    /// upgrade lost the shard (killed mid-drain, or reopened behind its
    /// back) and is skipping it.
    pub(crate) fn abort_upgrade_span(&mut self, shard: usize) {
        if let Some(sp) = self.upgrade_spans.remove(&shard) {
            self.tracer.end_span(self.now, sp, "interrupted");
        }
    }

    /// Records a rolling-upgrade stage transition in the cluster trace,
    /// opening the shard's `upgrade` span at the drain stage and
    /// closing it at rehost.
    pub(crate) fn note_upgrade(&mut self, shard: usize, stage: &'static str) {
        let span = match stage {
            "drain" => {
                let sp = self.begin_op_detached("upgrade", SpanCtx::shard(shard as u64));
                self.upgrade_spans.insert(shard, sp);
                Some(sp)
            }
            _ => self.upgrade_spans.get(&shard).copied(),
        };
        match span {
            Some(sp) => {
                self.record_spanned(sp, None, Some(shard), EventKind::UpgradeStage { stage });
            }
            None => self.record(None, Some(shard), EventKind::UpgradeStage { stage }),
        }
        self.log(WalRecord::UpgradeStage {
            stage: stage.to_string(),
        });
        if stage == "rehost" {
            if let Some(sp) = self.upgrade_spans.remove(&shard) {
                self.end_op(sp, "ok");
            }
        }
    }

    // ----- stream lifecycle ---------------------------------------------

    /// Opens a CRC stream somewhere: shards are tried in placement
    /// order, skipping any that refuse admission or do not host the
    /// personality. Returns the cluster-wide stream id.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoEligibleShard`] when every active shard
    /// refused; hard shard errors pass through.
    pub fn open_crc(
        &mut self,
        name: &str,
        priority: Priority,
        deadline_in: u64,
    ) -> Result<u64, ClusterError> {
        self.open_with(name, |svc| svc.open_crc(name, priority, deadline_in))
    }

    /// Opens a scrambler stream somewhere (see [`Cluster::open_crc`]).
    ///
    /// # Errors
    ///
    /// As [`Cluster::open_crc`].
    pub fn open_scrambler(
        &mut self,
        name: &str,
        seed: u64,
        priority: Priority,
        deadline_in: u64,
    ) -> Result<u64, ClusterError> {
        self.open_with(name, |svc| {
            svc.open_scrambler(name, seed, priority, deadline_in)
        })
    }

    fn open_with(
        &mut self,
        personality: &str,
        mut open: impl FnMut(&mut StreamService) -> Result<u64, ServiceError>,
    ) -> Result<u64, ClusterError> {
        let id = self.next_id;
        let order = self.placement.ordered(id, &self.views());
        for shard in order {
            match open(&mut self.shards[shard].svc) {
                Ok(local) => {
                    self.next_id += 1;
                    self.routes.insert(id, Route { shard, local });
                    self.registry.inc(self.ids.opened);
                    self.record(Some(id), Some(shard), EventKind::StreamAdmit);
                    self.log(WalRecord::Open {
                        id,
                        shard: shard32(shard),
                        personality: personality.to_string(),
                    });
                    return Ok(id);
                }
                // Refusals spill to the next-preferred shard; anything
                // else is a real fault.
                Err(
                    ServiceError::UnknownPersonality(_)
                    | ServiceError::RejectedByBucket
                    | ServiceError::RejectedByOverload
                    | ServiceError::RejectedByCapacity,
                ) => {}
                Err(e) => return Err(ClusterError::Shard(e)),
            }
        }
        Err(ClusterError::NoEligibleShard)
    }

    /// Queues a chunk on a stream, wherever it lives.
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's backpressure (ids translated).
    pub fn feed(&mut self, id: u64, chunk: &[u8]) -> Result<(), ClusterError> {
        let r = self.route_of(id)?;
        if matches!(self.shards[r.shard].state, ShardState::Down(_)) {
            return Err(ClusterError::ShardDown(r.shard));
        }
        if self.shards[r.shard].svc.is_parked(r.local) {
            return Err(ClusterError::Shard(ServiceError::StreamParked(id)));
        }
        self.shards[r.shard]
            .svc
            .feed(r.local, chunk)
            .map_err(|e| Self::remap(e, id))?;
        if self.journal.is_some() {
            if let Ok(p) = self.shards[r.shard].svc.progress(r.local) {
                self.log(WalRecord::FeedWatermark {
                    id,
                    bytes_fed: p.fed_through(),
                });
            }
        }
        Ok(())
    }

    /// Takes the scrambler output produced so far.
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's (ids translated).
    pub fn collect(&mut self, id: u64) -> Result<BitVec, ClusterError> {
        let r = self.route_of(id)?;
        self.shards[r.shard]
            .svc
            .collect(r.local)
            .map_err(|e| Self::remap(e, id))
    }

    /// Progress marker of a live stream (see
    /// [`StreamService::progress`]).
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's (ids translated).
    pub fn progress(&self, id: u64) -> Result<StreamProgress, ClusterError> {
        let r = self.route_of(id)?;
        self.shards[r.shard]
            .svc
            .progress(r.local)
            .map_err(|e| Self::remap(e, id))
    }

    /// Resumes a stream parked at the shard level. A stream revived by
    /// migration or failover is already live; that case is an Ok no-op.
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's (ids translated).
    pub fn resume(&mut self, id: u64) -> Result<(), ClusterError> {
        let r = self.route_of(id)?;
        if self.shards[r.shard].svc.is_live(r.local) {
            return Ok(());
        }
        self.shards[r.shard]
            .svc
            .resume(r.local)
            .map_err(|e| Self::remap(e, id))
    }

    /// Finishes a stream and delivers its output; the route and any
    /// stored checkpoint are released.
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's — notably
    /// [`ServiceError::StreamParked`] (translated) when recovery parked
    /// the stream while draining its queue; resume and call again.
    pub fn finish(&mut self, id: u64) -> Result<StreamOutput, ClusterError> {
        let r = self.route_of(id)?;
        if matches!(self.shards[r.shard].state, ShardState::Down(_)) {
            return Err(ClusterError::ShardDown(r.shard));
        }
        match self.shards[r.shard].svc.finish(r.local) {
            Ok(out) => {
                self.routes.remove(&id);
                self.store.remove(&id);
                self.registry.inc(self.ids.completed);
                self.record(Some(id), Some(r.shard), EventKind::StreamComplete);
                self.log(WalRecord::Finish { id });
                Ok(out)
            }
            Err(e) => Err(Self::remap(e, id)),
        }
    }

    // ----- checkpointing ------------------------------------------------

    /// Captures one stream's snapshot into the checkpoint store right
    /// now (the periodic sweep does this for every stream).
    ///
    /// # Errors
    ///
    /// Routing errors, or the shard's (ids translated).
    pub fn checkpoint_now(&mut self, id: u64) -> Result<(), ClusterError> {
        let r = self.route_of(id)?;
        let bytes = if self.shards[r.shard].svc.is_live(r.local) {
            self.shards[r.shard]
                .svc
                .checkpoint(r.local)
                .map_err(|e| Self::remap(e, id))?
        } else if let Some(b) = self.shards[r.shard].svc.parked_snapshot(r.local) {
            b.to_vec()
        } else {
            return Err(ClusterError::UnknownStream(id));
        };
        if let Some(rec) = CheckpointRecord::from_snapshot(bytes) {
            if self.journal.is_some() {
                self.log(WalRecord::CheckpointAnchor {
                    id,
                    shard: shard32(r.shard),
                    resume_from: rec.resume_from,
                    delivered_bits: rec.delivered_bits,
                    bytes: rec.bytes.clone(),
                });
            }
            self.store.insert(id, rec);
            self.registry.inc(self.ids.checkpoints_stored);
        }
        Ok(())
    }

    fn checkpoint_sweep(&mut self) {
        let entries: Vec<u64> = self.routes.keys().copied().collect();
        for id in entries {
            // Sweeping best-effort: a stream that raced away is fine.
            let _ = self.checkpoint_now(id);
        }
    }

    // ----- live migration -----------------------------------------------

    /// Live-migrates a stream to an explicit target shard: checkpoint
    /// and detach on the source, digest-verified transfer, restore on
    /// the target. Parked streams migrate their retained snapshot and
    /// come back *live* on the target.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NotAccepting`] — target is fenced (draining or
    ///   down); the stream is untouched.
    /// * [`ClusterError::Incompatible`] — target cannot run the
    ///   snapshot; the stream was restored back onto its source.
    /// * [`ClusterError::SnapshotCorrupt`] — validation failed even
    ///   after a retransfer (cannot happen with an honest in-process
    ///   channel; the path exists for the typed-error contract).
    pub fn migrate(&mut self, id: u64, target: usize) -> Result<(), ClusterError> {
        let r = self.route_of(id)?;
        if target >= self.shards.len() {
            return Err(ClusterError::UnknownShard(target));
        }
        if r.shard == target {
            return Ok(());
        }
        if self.shards[target].state != ShardState::Active {
            return Err(ClusterError::NotAccepting(target));
        }
        if !self.shards[target].breaker.admits() {
            return Err(ClusterError::NotAccepting(target));
        }
        if matches!(self.shards[r.shard].state, ShardState::Down(_)) {
            return Err(ClusterError::ShardDown(r.shard));
        }
        self.probe_transfer(id, r.shard, target)
    }

    /// The moving half of a migration: probe the target's breaker,
    /// detach on the source, digest, push the (possibly sabotaged) wire
    /// copy through [`Self::transfer_restore`]. Callers have already
    /// validated both shards; `source == target` is allowed — that is
    /// the self-probe a half-open shard runs when it is the only one
    /// left to donate a stream.
    fn probe_transfer(
        &mut self,
        id: u64,
        source: usize,
        target: usize,
    ) -> Result<(), ClusterError> {
        let span = self.begin_op("migrate", SpanCtx::shard(target as u64).with_stream(id));
        let result = self.probe_transfer_inner(id, source, target);
        let outcome = match &result {
            Ok(()) => "ok",
            Err(e) => Self::outcome_label(e),
        };
        self.end_op(span, outcome);
        result
    }

    fn probe_transfer_inner(
        &mut self,
        id: u64,
        source: usize,
        target: usize,
    ) -> Result<(), ClusterError> {
        let local = self.route_of(id)?.local;
        // Restoring onto a HalfOpen shard is its one allowed probe.
        self.shards[target].breaker.begin_probe();
        let src = &mut self.shards[source].svc;
        let detached = if src.is_live(local) {
            src.detach(local)
        } else {
            src.take_parked(local)
        };
        let bytes = match detached {
            Ok(b) => b,
            Err(e) => {
                // The source never produced a snapshot: the target was
                // not actually probed, so release its slot unjudged.
                self.shards[target].breaker.cancel_probe();
                return Err(Self::remap(e, id));
            }
        };
        let sum = transfer_digest(&bytes);
        // The simulated channel: chaos may corrupt or truncate what
        // the target receives; the source's copy stays pristine until
        // the hand-off commits.
        let wire = match self.armed_transfer.take() {
            Some(mode) => mode.mangle(&bytes),
            None => bytes.clone(),
        };
        self.transfer_restore(id, source, target, &wire, sum, &bytes)
    }

    /// The receive half of a migration: verify the transfer digest over
    /// what the channel delivered (`wire`), restore, classify failures.
    /// On `Incompatible` the snapshot is restored back onto the source
    /// shard (which just held it, so capacity is there); every undo
    /// uses the source's `pristine` copy, never the wire bytes — a
    /// corrupted channel must not be able to destroy the original.
    fn transfer_restore(
        &mut self,
        id: u64,
        source: usize,
        target: usize,
        wire: &[u8],
        sum: u64,
        pristine: &[u8],
    ) -> Result<(), ClusterError> {
        if transfer_digest(wire) != sum {
            // The simulated channel handed over different bytes than
            // the source digested — retransfer is the only option; the
            // caller's tokenized retry re-runs the whole hand-off.
            let tr = self.shards[target].breaker.on_failure();
            self.note_breaker(target, tr);
            return self.undo_detach(id, source, pristine, ClusterError::SnapshotCorrupt);
        }
        let mut attempt = self.shards[target].svc.restore(wire);
        if matches!(
            attempt.as_ref().map_err(ServiceError::restore_disposition),
            Err(Some(RestoreDisposition::RetryTransfer))
        ) {
            // Typed contract: damaged bytes are worth one retransfer.
            self.registry.inc(self.ids.migration_retries);
            attempt = self.shards[target].svc.restore(wire);
        }
        match attempt {
            Ok(local) => {
                let tr = self.shards[target].breaker.on_success();
                self.note_breaker(target, tr);
                self.routes.insert(
                    id,
                    Route {
                        shard: target,
                        local,
                    },
                );
                if let Some(rec) = CheckpointRecord::from_snapshot(wire.to_vec()) {
                    self.store.insert(id, rec);
                }
                self.registry.inc(self.ids.migrations);
                self.record(
                    Some(id),
                    Some(target),
                    EventKind::StreamMigrate {
                        from_shard: source as u64,
                        to_shard: target as u64,
                    },
                );
                self.log(WalRecord::Migrated {
                    id,
                    from: shard32(source),
                    to: shard32(target),
                });
                Ok(())
            }
            Err(e) => {
                let err = match e.restore_disposition() {
                    Some(RestoreDisposition::RetryTransfer) => ClusterError::SnapshotCorrupt,
                    Some(RestoreDisposition::Incompatible) => ClusterError::Incompatible { id },
                    None => Self::remap(e, id),
                };
                // A damaged restore is target-side evidence; a clean
                // refusal (incompatible/capacity) still proves the
                // shard is answering correctly.
                let tr = if matches!(err, ClusterError::SnapshotCorrupt) {
                    self.shards[target].breaker.on_failure()
                } else {
                    self.shards[target].breaker.on_success()
                };
                self.note_breaker(target, tr);
                self.undo_detach(id, source, pristine, err)
            }
        }
    }

    /// Puts a detached snapshot back onto its source shard after a
    /// failed hand-off, so migration never strands a stream. Returns
    /// `err` (the original failure) on success of the undo; a failed
    /// undo escalates to a typed loss.
    fn undo_detach(
        &mut self,
        id: u64,
        source: usize,
        bytes: &[u8],
        err: ClusterError,
    ) -> Result<(), ClusterError> {
        match self.shards[source].svc.restore(bytes) {
            Ok(local) => {
                self.routes.insert(
                    id,
                    Route {
                        shard: source,
                        local,
                    },
                );
                Err(err)
            }
            Err(_) => {
                // Source had it a moment ago and now refuses: the
                // snapshot is damaged. Never silent.
                self.declare_lost(id, source, LossReason::Corrupt);
                Err(ClusterError::StreamLost {
                    id,
                    shard: source,
                    reason: LossReason::Corrupt,
                })
            }
        }
    }

    // ----- tokenized operations -----------------------------------------

    /// Whether a failed control-plane operation is worth retrying: only
    /// transfer damage is transient; refusals and losses are final.
    fn retryable(e: &ClusterError) -> bool {
        matches!(e, ClusterError::SnapshotCorrupt)
    }

    /// Charges one retry: counters, backoff, trace. Returns the delay.
    fn charge_retry(&mut self, id: Option<u64>, token: OpToken, attempt: u32) -> u64 {
        let delay = self.retry.backoff_ticks(token, attempt);
        self.registry.inc(self.ids.retry_attempts);
        self.registry.add(self.ids.retry_backoff_ticks, delay);
        if let Some(&sp) = self.span_stack.last() {
            self.tracer.span_retry(sp);
        }
        self.record(
            id,
            None,
            EventKind::OpRetry {
                attempt: u64::from(attempt),
                delay,
            },
        );
        delay
    }

    /// [`Cluster::migrate`] under an idempotency token, with bounded
    /// deterministic-jitter retry on transient transfer damage. A
    /// duplicate delivery of an already-applied token returns
    /// [`OpApply::Duplicate`] without touching any state — retries can
    /// never double-apply a migration.
    ///
    /// # Errors
    ///
    /// As [`Cluster::migrate`], after the retry budget is spent. A
    /// failed call leaves the token unrecorded, so the caller may
    /// safely re-deliver it.
    pub fn migrate_with_token(
        &mut self,
        token: OpToken,
        id: u64,
        target: usize,
    ) -> Result<OpApply, ClusterError> {
        if self.ledger.contains_key(&token.0) {
            return Ok(OpApply::Duplicate);
        }
        if self.journal.is_some() {
            if let Ok(r) = self.route_of(id) {
                self.log(WalRecord::MigrateBegin {
                    token: token.0,
                    id,
                    from: shard32(r.shard),
                    to: shard32(target),
                });
            }
        }
        let span = self.begin_op(
            "migrate_op",
            SpanCtx::shard(target as u64)
                .with_stream(id)
                .with_token(token.0),
        );
        let mut attempt = 1u32;
        let result = loop {
            match self.migrate(id, target) {
                Ok(()) => {
                    self.ledger.insert(token.0, id);
                    self.log(WalRecord::TokenApplied { token: token.0, id });
                    break Ok(OpApply::Applied);
                }
                Err(e) if Self::retryable(&e) && attempt < self.retry.max_attempts.max(1) => {
                    self.charge_retry(Some(id), token, attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.log(WalRecord::MigrateAbort { token: token.0, id });
                    break Err(e);
                }
            }
        };
        let outcome = match &result {
            Ok(_) => "ok",
            Err(e) => Self::outcome_label(e),
        };
        self.end_op(span, outcome);
        result
    }

    /// [`Cluster::checkpoint_now`] under an idempotency token: a
    /// duplicate delivery does not re-capture (the store would
    /// otherwise silently advance the resume point a second time).
    ///
    /// # Errors
    ///
    /// As [`Cluster::checkpoint_now`]; failure leaves the token
    /// unrecorded.
    pub fn checkpoint_with_token(
        &mut self,
        token: OpToken,
        id: u64,
    ) -> Result<OpApply, ClusterError> {
        if self.ledger.contains_key(&token.0) {
            return Ok(OpApply::Duplicate);
        }
        self.checkpoint_now(id)?;
        self.ledger.insert(token.0, id);
        self.log(WalRecord::TokenApplied { token: token.0, id });
        Ok(OpApply::Applied)
    }

    /// [`Cluster::adopt`] under an idempotency token: a duplicate
    /// delivery returns the id the first delivery created instead of
    /// restoring a second copy of the stream.
    ///
    /// # Errors
    ///
    /// As [`Cluster::adopt`]; failure leaves the token unrecorded.
    pub fn adopt_with_token(
        &mut self,
        token: OpToken,
        bytes: &[u8],
    ) -> Result<(u64, OpApply), ClusterError> {
        if let Some(&id) = self.ledger.get(&token.0) {
            return Ok((id, OpApply::Duplicate));
        }
        let id = self.adopt(bytes)?;
        self.ledger.insert(token.0, id);
        self.log(WalRecord::TokenApplied { token: token.0, id });
        Ok((id, OpApply::Applied))
    }

    /// Adopts an external snapshot (from another cluster, or storage)
    /// onto the best compatible shard, returning the new cluster id.
    ///
    /// # Errors
    ///
    /// [`ClusterError::SnapshotCorrupt`] for damaged bytes,
    /// [`ClusterError::NoEligibleShard`] when no active shard can run
    /// or fit it.
    pub fn adopt(&mut self, bytes: &[u8]) -> Result<u64, ClusterError> {
        let id = self.next_id;
        let order = self.placement.ordered(id, &self.views());
        for shard in order {
            match self.shards[shard].svc.restore(bytes) {
                Ok(local) => {
                    self.next_id += 1;
                    self.routes.insert(id, Route { shard, local });
                    if let Some(rec) = CheckpointRecord::from_snapshot(bytes.to_vec()) {
                        if self.journal.is_some() {
                            self.log(WalRecord::CheckpointAnchor {
                                id,
                                shard: shard32(shard),
                                resume_from: rec.resume_from,
                                delivered_bits: rec.delivered_bits,
                                bytes: rec.bytes.clone(),
                            });
                        }
                        self.store.insert(id, rec);
                    }
                    self.registry.inc(self.ids.opened);
                    self.record(Some(id), Some(shard), EventKind::StreamAdmit);
                    return Ok(id);
                }
                Err(e) => match e.restore_disposition() {
                    // Damaged bytes fail identically everywhere.
                    Some(RestoreDisposition::RetryTransfer) => {
                        return Err(ClusterError::SnapshotCorrupt)
                    }
                    // Incompatible here may fit elsewhere; capacity
                    // refusals likewise spill.
                    Some(RestoreDisposition::Incompatible) => {}
                    None => {}
                },
            }
        }
        Err(ClusterError::NoEligibleShard)
    }

    // ----- drain --------------------------------------------------------

    /// Fences a shard against new placements and starts emptying it:
    /// each [`Cluster::tick`] migrates up to `drain_batch` of its
    /// streams to active shards until none remain, then retires it.
    /// Idempotent on an already-draining shard.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownShard`] / [`ClusterError::ShardDown`].
    pub fn drain_shard(&mut self, shard: usize) -> Result<(), ClusterError> {
        match self.shards.get(shard).map(|s| s.state) {
            None => Err(ClusterError::UnknownShard(shard)),
            Some(ShardState::Down(_)) => Err(ClusterError::ShardDown(shard)),
            Some(ShardState::Draining) => Ok(()),
            Some(ShardState::Active) => {
                self.shards[shard].state = ShardState::Draining;
                self.registry.inc(self.ids.drains_started);
                // The drain outlives this call: it closes when the last
                // resident leaves (drain_step) or the shard is killed
                // mid-drain. An upgrade rolling this shard parents it.
                let ctx = match self.upgrade_spans.get(&shard) {
                    Some(&up) => SpanCtx::child(up).with_shard(shard as u64),
                    None => SpanCtx::shard(shard as u64),
                };
                let span = self.begin_op_detached("drain", ctx);
                self.drain_spans.insert(shard, span);
                self.record_spanned(
                    span,
                    None,
                    Some(shard),
                    EventKind::shard_state(shard as u64, "active", "draining"),
                );
                self.log(WalRecord::Drain {
                    shard: shard32(shard),
                });
                Ok(())
            }
        }
    }

    fn drain_step(&mut self) {
        for shard in 0..self.shards.len() {
            if self.shards[shard].state != ShardState::Draining {
                continue;
            }
            // Re-enter the shard's open drain span for this batch so
            // its migrations attribute to the drain, not to the tick.
            let drain_span = self.drain_spans.get(&shard).copied();
            if let Some(sp) = drain_span {
                self.span_stack.push(sp);
            }
            let residents: Vec<u64> = self
                .routes
                .iter()
                .filter(|(_, r)| r.shard == shard)
                .map(|(id, _)| *id)
                .collect();
            let mut moved = 0usize;
            for id in &residents {
                if moved >= self.drain_batch {
                    break;
                }
                let Some(target) = self
                    .placement
                    .ordered(*id, &self.views())
                    .into_iter()
                    .find(|&t| t != shard)
                else {
                    break; // nowhere to go this tick; retry next tick
                };
                // A failed migration leaves the stream on the shard
                // (restored by the undo path); it is retried next tick.
                if self.migrate(*id, target).is_ok() {
                    moved += 1;
                }
            }
            let empty = !self.routes.values().any(|r| r.shard == shard);
            if empty {
                self.shards[shard].state = ShardState::Down(DownReason::Drained);
                self.registry.inc(self.ids.shards_drained);
                self.record(
                    None,
                    Some(shard),
                    EventKind::shard_state(shard as u64, "draining", "down"),
                );
                self.log(WalRecord::ShardDown {
                    shard: shard32(shard),
                    reason: DownReason::Drained.code(),
                });
                if let Some(sp) = self.drain_spans.remove(&shard) {
                    self.end_op(sp, "ok");
                }
            }
            if let Some(sp) = drain_span {
                if let Some(pos) = self.span_stack.iter().rposition(|&s| s == sp) {
                    self.span_stack.truncate(pos);
                }
            }
        }
    }

    // ----- reopen (rolling upgrades) ------------------------------------

    /// Rebuilds a cleanly drained shard from scratch and returns it to
    /// Active: a fresh fabric stack, an empty service, a reset health
    /// monitor and breaker. The rehost half of a rolling personality
    /// upgrade — the caller re-hosts personalities (its new generation)
    /// before traffic lands, via [`Cluster::host_crc_on`] /
    /// [`Cluster::host_scrambler_on`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownShard`]; [`ClusterError::NotReopenable`]
    /// unless the shard is `Down(Drained)` — a killed or abandoned
    /// shard's hardware is gone, only a planned drain leaves it
    /// rebuildable.
    pub fn reopen_shard(&mut self, shard: usize) -> Result<(), ClusterError> {
        match self.shards.get(shard).map(|s| s.state) {
            None => Err(ClusterError::UnknownShard(shard)),
            Some(ShardState::Down(DownReason::Drained)) => {
                let rs = ResilientSystem::new(
                    PicogaParams::dream(),
                    ControlModel::default(),
                    self.recovery,
                );
                let admission = self.specs[shard].admission;
                let sh = &mut self.shards[shard];
                sh.svc = StreamService::new(rs, admission);
                sh.monitor = ShardHealthMonitor::default();
                sh.breaker = CircuitBreaker::new(self.breaker_cfg);
                sh.slow_ticks = 0;
                sh.lie_ticks = 0;
                sh.state = ShardState::Active;
                // The rebuilt breaker starts Closed; keep its gauge honest.
                self.registry.set_gauge(self.breaker_gauges[shard], 0);
                self.registry.inc(self.ids.shards_reopened);
                self.log(WalRecord::Reopen {
                    shard: shard32(shard),
                });
                self.record(None, Some(shard), EventKind::ShardReopen);
                self.record(
                    None,
                    Some(shard),
                    EventKind::shard_state(shard as u64, "down", "active"),
                );
                Ok(())
            }
            Some(_) => Err(ClusterError::NotReopenable(shard)),
        }
    }

    // ----- rebalancing --------------------------------------------------

    /// One pass of the load-driven rebalancer (called from
    /// [`Cluster::tick`] on the policy's cadence): compares the live
    /// load of healthy shards and token-migrates streams hottest →
    /// coldest when the gap exceeds the policy threshold.
    fn rebalance_step(&mut self) {
        let pol = self.rebalance;
        if pol.every_ticks == 0 || !self.now.is_multiple_of(pol.every_ticks) {
            return;
        }
        let loads: Vec<(usize, u64)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.state == ShardState::Active && s.breaker.state() == BreakerState::Closed
            })
            .map(|(i, s)| (i, s.svc.live_streams() as u64))
            .collect();
        let Some((hot, cold, budget)) = plan_moves(&pol, &loads) else {
            return;
        };
        let span = self.begin_op("rebalance", SpanCtx::shard(hot as u64));
        let residents: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.shard == hot)
            .map(|(id, _)| *id)
            .collect();
        let mut moved = 0u64;
        for id in residents {
            if moved >= budget {
                break;
            }
            // Deterministic per-(pass, stream) token, salted so it can
            // never collide with harness-chosen tokens.
            let token = OpToken(mix64((self.now << 24) ^ id) ^ 0x5EBA_1A4C_0000_0000);
            if matches!(
                self.migrate_with_token(token, id, cold),
                Ok(OpApply::Applied)
            ) {
                self.registry.inc(self.ids.rebalance_moves);
                moved += 1;
            }
        }
        if moved > 0 {
            self.record(None, Some(hot), EventKind::RebalanceRun { moved });
        }
        self.end_op(span, if moved > 0 { "ok" } else { "no_moves" });
    }

    /// One pass of the breaker-healing probe loop (called from
    /// [`Cluster::tick`]): every HalfOpen shard with a free probe slot
    /// gets one token-fenced migration from the most loaded donor
    /// shard. A successful restore counts toward closing the breaker;
    /// a failure re-opens it. Without chaos every breaker stays Closed
    /// and this is a no-op.
    fn probe_step(&mut self) {
        for shard in 0..self.shards.len() {
            let s = &self.shards[shard];
            if s.state != ShardState::Active
                || s.breaker.state() != BreakerState::HalfOpen
                || !s.breaker.admits()
            {
                continue;
            }
            // Donor: the most loaded shard that still serves (ties to
            // the lowest index). Its breaker state is irrelevant — the
            // breaker guards *inbound* restores, not outbound detaches.
            let donor = self
                .shards
                .iter()
                .enumerate()
                .filter(|(i, d)| *i != shard && d.state == ShardState::Active)
                .max_by_key(|(i, d)| (d.svc.live_streams(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i);
            let donor_stream = donor.and_then(|d| {
                self.routes
                    .iter()
                    .find(|(_, r)| r.shard == d)
                    .map(|(id, _)| *id)
            });
            let span = self.begin_op("breaker_probe", SpanCtx::shard(shard as u64));
            let probed = if let Some(id) = donor_stream {
                let token = OpToken(mix64((self.now << 24) ^ id) ^ 0x9B0B_E500_0000_0000);
                if matches!(
                    self.migrate_with_token(token, id, shard),
                    Ok(OpApply::Applied)
                ) {
                    self.registry.inc(self.ids.probe_migrations);
                    true
                } else {
                    false
                }
            } else if let Some(id) = self
                .routes
                .iter()
                .find(|(_, r)| r.shard == shard)
                .map(|(id, _)| *id)
            {
                // No other shard can donate (this may be the last one
                // standing): self-probe with a detach/restore
                // round-trip of one resident stream — the exact path
                // the breaker guards.
                if self.probe_transfer(id, shard, shard).is_ok() {
                    self.registry.inc(self.ids.probe_migrations);
                    true
                } else {
                    false
                }
            } else {
                // Nothing to restore anywhere in the cluster: an idle
                // shard's probe degenerates to a trivial no-op
                // round-trip, which always succeeds.
                let s = &mut self.shards[shard];
                s.breaker.begin_probe();
                let tr = s.breaker.on_success();
                self.note_breaker(shard, tr);
                self.registry.inc(self.ids.probe_migrations);
                true
            };
            self.end_op(span, if probed { "ok" } else { "failed" });
        }
    }

    // ----- failover -----------------------------------------------------

    /// Kills a shard outright — simulated power loss. Its service is
    /// never consulted again; every resident stream is replayed from
    /// its last swept checkpoint onto survivors, or declared lost with
    /// a typed reason.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownShard`]; killing a down shard is a no-op.
    pub fn kill_shard(&mut self, shard: usize) -> Result<(), ClusterError> {
        match self.shards.get(shard).map(|s| s.state) {
            None => Err(ClusterError::UnknownShard(shard)),
            Some(ShardState::Down(_)) => Ok(()),
            Some(_) => {
                self.retire(shard, DownReason::Killed);
                Ok(())
            }
        }
    }

    /// Whether any shard other than `shard` is active.
    fn another_active(&self, shard: usize) -> bool {
        self.shards
            .iter()
            .enumerate()
            .any(|(i, s)| i != shard && s.state == ShardState::Active)
    }

    fn retire(&mut self, shard: usize, reason: DownReason) {
        let span = self.begin_op("shard_down", SpanCtx::shard(shard as u64));
        // A kill interrupts any drain or upgrade rolling this shard:
        // close their spans truthfully rather than leaking them open.
        if let Some(sp) = self.drain_spans.remove(&shard) {
            self.tracer.end_span(self.now, sp, "interrupted");
        }
        if let Some(sp) = self.upgrade_spans.remove(&shard) {
            self.tracer.end_span(self.now, sp, "interrupted");
        }
        let from = self.shards[shard].state.label();
        self.shards[shard].state = ShardState::Down(reason);
        self.registry.inc(self.ids.shards_down);
        self.record(
            None,
            Some(shard),
            EventKind::shard_state(shard as u64, from, "down"),
        );
        self.log(WalRecord::ShardDown {
            shard: shard32(shard),
            reason: reason.code(),
        });
        self.fail_over(shard);
        self.end_op(span, reason.label());
    }

    /// Replays every stream routed to `dead` from its last checkpoint
    /// onto survivors; the rest become typed losses.
    fn fail_over(&mut self, dead: usize) {
        let victims: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.shard == dead)
            .map(|(id, _)| *id)
            .collect();
        for id in victims {
            let span = self.begin_op(
                "failover_stream",
                SpanCtx::shard(dead as u64).with_stream(id),
            );
            let outcome = match self.store.get(&id).cloned() {
                None => {
                    self.declare_lost(id, dead, LossReason::NoCheckpoint);
                    LossReason::NoCheckpoint.label()
                }
                Some(rec) => match self.place_snapshot(id, &rec.bytes, dead) {
                    Ok((to, local)) => {
                        self.routes.insert(id, Route { shard: to, local });
                        self.registry.inc(self.ids.failovers);
                        self.record(
                            Some(id),
                            Some(to),
                            EventKind::StreamFailover {
                                from_shard: dead as u64,
                                to_shard: to as u64,
                            },
                        );
                        self.log(WalRecord::Failover {
                            id,
                            from: shard32(dead),
                            to: shard32(to),
                        });
                        self.resumes.push(FailoverResume {
                            id,
                            from_shard: dead,
                            to_shard: to,
                            resume_from: rec.resume_from,
                            delivered_bits: rec.delivered_bits,
                        });
                        "ok"
                    }
                    Err(reason) => {
                        self.declare_lost(id, dead, reason);
                        reason.label()
                    }
                },
            };
            self.end_op(span, outcome);
        }
    }

    /// Restores a snapshot onto the best willing active shard other
    /// than `exclude`. Failures are folded into the typed loss reason.
    fn place_snapshot(
        &mut self,
        id: u64,
        bytes: &[u8],
        exclude: usize,
    ) -> Result<(usize, u64), LossReason> {
        let order: Vec<usize> = self
            .placement
            .ordered(id, &self.views())
            .into_iter()
            .filter(|&s| s != exclude)
            .collect();
        if order.is_empty() {
            return Err(LossReason::NoCapacity);
        }
        let mut saw_capacity = false;
        for shard in order {
            match self.shards[shard].svc.restore(bytes) {
                Ok(local) => return Ok((shard, local)),
                Err(e) => match e.restore_disposition() {
                    Some(RestoreDisposition::RetryTransfer) => return Err(LossReason::Corrupt),
                    Some(RestoreDisposition::Incompatible) => {}
                    None => saw_capacity = true,
                },
            }
        }
        Err(if saw_capacity {
            LossReason::NoCapacity
        } else {
            LossReason::Incompatible
        })
    }

    fn declare_lost(&mut self, id: u64, shard: usize, reason: LossReason) {
        self.routes.remove(&id);
        self.store.remove(&id);
        self.losses.insert(id, StreamLoss { id, shard, reason });
        self.registry.inc(self.ids.lost_streams);
        self.record(
            Some(id),
            Some(shard),
            EventKind::StreamLost {
                shard: shard as u64,
                reason: reason.label(),
            },
        );
        self.log(WalRecord::Lost {
            id,
            shard: shard32(shard),
            reason: reason.code(),
        });
    }

    // ----- the clock ----------------------------------------------------

    /// Advances the whole cluster one tick: every serving shard's
    /// service ticks (a shard whose tick *fails* is retired and failed
    /// over instead of taking the cluster down), health monitors run,
    /// draining shards shed a batch, and the periodic checkpoint sweep
    /// fires. Never returns an error: shard failure is a handled event
    /// here, not an exception.
    pub fn tick(&mut self) {
        self.now += 1;
        self.log(WalRecord::Clock { now: self.now });
        for shard in 0..self.shards.len() {
            if matches!(self.shards[shard].state, ShardState::Down(_)) {
                continue;
            }
            // Chaos slowdown: the shard misses this tick entirely. The
            // breaker counts every missed tick as a failure, so a
            // sustained slowdown trips it and placement routes around
            // the shard until it proves itself again.
            if self.shards[shard].slow_ticks > 0 {
                self.shards[shard].slow_ticks -= 1;
                let tr = self.shards[shard].breaker.on_failure();
                self.note_breaker(shard, tr);
                continue;
            }
            if self.shards[shard].svc.tick().is_err() {
                self.retire(shard, DownReason::TickFailed);
                continue;
            }
            let summary = if self.shards[shard].lie_ticks > 0 {
                // Byzantine probe: the routine health channel reports a
                // fabricated, fully abandoned fabric.
                self.shards[shard].lie_ticks -= 1;
                Self::fabricated_abandoned(&self.shards[shard].svc.system().health_summary())
            } else {
                self.shards[shard].svc.system().health_summary()
            };
            let verdict = self.shards[shard].monitor.observe(&summary, &self.health);
            // Health-driven retirement never takes down the last
            // active shard: a fabric-abandoned shard still serves
            // correctly on its software kernels, and retiring it with
            // nowhere to fail over to would turn a slow cluster into
            // no cluster. Explicit kills are not subject to this —
            // power loss cannot be refused.
            if verdict == HealthVerdict::Dead && self.another_active(shard) {
                // Trust, but verify: a death verdict built from routine
                // probes must be corroborated by a direct, synchronous
                // probe of the shard before anything is retired — a
                // lying probe channel alone can never kill a healthy
                // shard.
                let direct = self.shards[shard].svc.system().health_summary();
                if direct.fabric_abandoned() {
                    self.retire(shard, DownReason::Abandoned);
                } else {
                    self.registry.inc(self.ids.retire_vetoes);
                    self.record(None, Some(shard), EventKind::RetireVeto);
                }
            }
            let tr = self.shards[shard].breaker.on_tick();
            self.note_breaker(shard, tr);
        }
        self.drain_step();
        self.rebalance_step();
        self.probe_step();
        if self.checkpoint_interval > 0 && self.now.is_multiple_of(self.checkpoint_interval) {
            self.checkpoint_sweep();
        }
        self.flush_journal();
    }

    /// What a byzantine probe fabricates: the shard's real lane list,
    /// every lane reported fallen back.
    fn fabricated_abandoned(real: &FabricHealthSummary) -> FabricHealthSummary {
        FabricHealthSummary {
            lanes: real
                .lanes
                .iter()
                .map(|(name, _)| (name.clone(), dream::Health::Fallback))
                .collect(),
            fallback: real.lanes.len(),
            suspect: 0,
            unrecovered: real.unrecovered,
            recoveries: real.recoveries,
        }
    }

    // ----- crash recovery -------------------------------------------

    /// Rebuilds a cluster from a replayed journal after a whole-process
    /// crash.
    ///
    /// The caller replays the durable bytes first (usually via
    /// [`Journal::recover`], which already applies the torn-tail rule:
    /// bit-rotted frames are skipped and counted, a torn tail stops
    /// replay) and hands over both the journal — still positioned to
    /// append — and the replay. Recovery folds the records:
    ///
    /// 1. **Hosting** — the last `HostCrc`/`HostScrambler` per
    ///    `(scope, lane)` is re-hosted from the spec catalogue; unknown
    ///    specs are counted, not fatal.
    /// 2. **Shard lifecycle** — drains, downs and reopens fold to each
    ///    shard's final state; breaker states are restored from the
    ///    last `Breaker` record per shard.
    /// 3. **Tokens** — every `TokenApplied` re-enters the idempotency
    ///    ledger. An in-flight `MigrateBegin` (no `TokenApplied` /
    ///    `MigrateAbort` after it) resolves **commit-or-abort**: it
    ///    committed iff a later `Migrated` for the same stream and
    ///    target landed, in which case its token enters the ledger so a
    ///    redelivery returns [`OpApply::Duplicate`] — never a double
    ///    apply.
    /// 4. **Streams** — each unfinished, un-lost stream restores from
    ///    its last `CheckpointAnchor` onto its last-known shard (or the
    ///    best survivor), emitting a [`FailoverResume`] so clients know
    ///    where to rewind; an anchored restore that no shard accepts —
    ///    and any live stream with **no** anchor — becomes a typed
    ///    [`StreamLoss`], never a silent disappearance.
    ///
    /// The recovered cluster starts a fresh journal epoch on the same
    /// log: it re-appends its reconstructed state (clock, hosts, shard
    /// states, breakers, tokens, losses, anchors), so the journal stays
    /// append-only across repeated crashes and later recoveries never
    /// depend on frames older than the last epoch.
    #[must_use]
    pub fn recover(
        cfg: &ClusterConfig,
        journal: Journal,
        replay: &Replay,
    ) -> (Self, RecoveryReport) {
        let mut report = RecoveryReport {
            frames_replayed: replay.frames_ok,
            torn_tail: replay.torn_tail,
            corrupt_frames: replay.corrupt_frames,
            duplicate_frames: replay.duplicate_frames,
            ..RecoveryReport::default()
        };

        // ---- fold the journal into last-writer-wins facts ----
        struct AnchorInfo {
            shard: u32,
            resume_from: u64,
            delivered_bits: u64,
            bytes: Vec<u8>,
        }
        let mut now = 0u64;
        // Every stream any surviving record names.
        let mut ids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut hosts: BTreeMap<(bool, u32, String), (String, u8)> = BTreeMap::new();
        let mut placed: BTreeMap<u64, u32> = BTreeMap::new();
        let mut anchors: BTreeMap<u64, AnchorInfo> = BTreeMap::new();
        let mut finished: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut lost: BTreeMap<u64, (u32, u8)> = BTreeMap::new();
        let mut tokens: BTreeMap<u64, u64> = BTreeMap::new();
        let mut shard_states: BTreeMap<u32, ShardState> = BTreeMap::new();
        let mut breakers: BTreeMap<u32, (u8, u32)> = BTreeMap::new();
        let mut pending_begin: BTreeMap<u64, (usize, u64, u32)> = BTreeMap::new();
        let mut migrated_at: Vec<(usize, u64, u32)> = Vec::new();

        for (pos, (_seq, rec)) in replay.records.iter().enumerate() {
            match rec {
                WalRecord::Clock { now: n } => now = *n,
                WalRecord::HostCrc {
                    shard,
                    name,
                    spec,
                    m,
                } => {
                    hosts.insert(
                        (true, shard.unwrap_or(u32::MAX), name.clone()),
                        (spec.clone(), *m),
                    );
                }
                WalRecord::HostScrambler {
                    shard,
                    name,
                    spec,
                    m,
                } => {
                    hosts.insert(
                        (false, shard.unwrap_or(u32::MAX), name.clone()),
                        (spec.clone(), *m),
                    );
                }
                WalRecord::Open { id, shard, .. } => {
                    placed.insert(*id, *shard);
                    ids.insert(*id);
                }
                WalRecord::FeedWatermark { id, .. } => {
                    ids.insert(*id);
                }
                WalRecord::Finish { id } => {
                    finished.insert(*id);
                    ids.insert(*id);
                }
                WalRecord::CheckpointAnchor {
                    id,
                    shard,
                    resume_from,
                    delivered_bits,
                    bytes,
                } => {
                    anchors.insert(
                        *id,
                        AnchorInfo {
                            shard: *shard,
                            resume_from: *resume_from,
                            delivered_bits: *delivered_bits,
                            bytes: bytes.clone(),
                        },
                    );
                    ids.insert(*id);
                }
                WalRecord::MigrateBegin { token, id, to, .. } => {
                    pending_begin.insert(*token, (pos, *id, *to));
                    ids.insert(*id);
                }
                WalRecord::Migrated { id, to, .. } => {
                    placed.insert(*id, *to);
                    migrated_at.push((pos, *id, *to));
                    ids.insert(*id);
                }
                WalRecord::MigrateAbort { token, id } => {
                    pending_begin.remove(token);
                    ids.insert(*id);
                }
                WalRecord::TokenApplied { token, id } => {
                    tokens.insert(*token, *id);
                    pending_begin.remove(token);
                    ids.insert(*id);
                }
                WalRecord::Drain { shard } => {
                    shard_states.insert(*shard, ShardState::Draining);
                }
                WalRecord::ShardDown { shard, reason } => {
                    let r = DownReason::from_code(*reason).unwrap_or(DownReason::Killed);
                    shard_states.insert(*shard, ShardState::Down(r));
                }
                WalRecord::Reopen { shard } => {
                    shard_states.insert(*shard, ShardState::Active);
                }
                WalRecord::Breaker { shard, rank, count } => {
                    breakers.insert(*shard, (*rank, *count));
                }
                WalRecord::UpgradeStage { .. } => {}
                WalRecord::Lost { id, shard, reason } => {
                    lost.insert(*id, (*shard, *reason));
                    ids.insert(*id);
                }
                WalRecord::Failover { id, to, .. } => {
                    placed.insert(*id, *to);
                    ids.insert(*id);
                }
            }
        }

        // In-flight migrations resolve commit-or-abort: committed iff
        // the transfer landed (a later `Migrated` for the same stream
        // and target); its token then enters the ledger so redelivery
        // is a duplicate, never a second apply.
        for (token, (pos, id, to)) in &pending_begin {
            let committed = migrated_at
                .iter()
                .any(|&(p, mid, mto)| p > *pos && mid == *id && mto == *to);
            if committed {
                tokens.insert(*token, *id);
                report.migrations_committed += 1;
            } else {
                report.migrations_aborted += 1;
            }
        }

        // ---- rebuild: a fresh cluster, the journal reattached ----
        let mut cl = Cluster::new(cfg);
        cl.journal = Some(journal);
        cl.now = now;
        let max_id = ids.last().copied().unwrap_or(0);
        cl.next_id = max_id.saturating_add(1).max(1);
        cl.log(WalRecord::Clock { now });
        // Everything the fold re-derives — losses, re-placed streams,
        // re-logged state — descends causally from this recovery span.
        let rspan = cl.begin_op("wal_recover", SpanCtx::default());
        cl.registry
            .set_counter(cl.ids.wal_frames_replayed, replay.frames_ok);
        cl.registry.set_counter(
            cl.ids.wal_frames_skipped,
            replay
                .corrupt_frames
                .saturating_add(replay.duplicate_frames)
                .saturating_add(replay.decode_errors),
        );
        cl.registry
            .set_counter(cl.ids.wal_torn_tails, u64::from(replay.torn_tail));

        // Hosting (the hooks re-journal each host for the new epoch).
        for ((is_crc, scope, name), (spec, m)) in &hosts {
            let opts = FlowOptions::dream_with_m(usize::from(*m));
            let ok = if *is_crc {
                CrcSpec::by_name(spec).is_some_and(|s| {
                    if *scope == u32::MAX {
                        cl.host_crc(name, s, opts).is_ok()
                    } else {
                        cl.host_crc_on(*scope as usize, name, s, opts).is_ok()
                    }
                })
            } else {
                ScramblerSpec::by_name(spec).is_some_and(|s| {
                    if *scope == u32::MAX {
                        cl.host_scrambler(name, s, &opts).is_ok()
                    } else {
                        cl.host_scrambler_on(*scope as usize, name, s, &opts)
                            .is_ok()
                    }
                })
            };
            if ok {
                report.hosts_restored += 1;
            } else {
                report.hosts_failed += 1;
            }
        }

        // Shard lifecycle and breakers.
        for (shard, state) in &shard_states {
            let i = *shard as usize;
            if i >= cl.shards.len() {
                continue;
            }
            cl.shards[i].state = *state;
            match state {
                ShardState::Draining => {
                    // The drain survives the crash: reopen its span in
                    // the new epoch so drain_step can close it.
                    let sp = cl.begin_op_detached("drain", SpanCtx::shard(u64::from(*shard)));
                    cl.drain_spans.insert(i, sp);
                    cl.log(WalRecord::Drain { shard: *shard });
                }
                ShardState::Down(r) => cl.log(WalRecord::ShardDown {
                    shard: *shard,
                    reason: r.code(),
                }),
                ShardState::Active => {}
            }
        }
        for (shard, (rank, count)) in &breakers {
            let i = *shard as usize;
            if i >= cl.shards.len() {
                continue;
            }
            cl.shards[i].breaker.restore_raw(*rank, *count);
            let state_rank = match cl.shards[i].breaker.state() {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            cl.registry.set_gauge(cl.breaker_gauges[i], state_rank);
            let (rank, count) = cl.shards[i].breaker.raw();
            cl.log(WalRecord::Breaker {
                shard: *shard,
                rank,
                count,
            });
            report.breakers_restored += 1;
        }

        // The idempotency ledger and carried-over losses.
        for (token, id) in &tokens {
            cl.ledger.insert(*token, *id);
            cl.log(WalRecord::TokenApplied {
                token: *token,
                id: *id,
            });
            report.tokens_restored += 1;
        }
        for (id, (shard, code)) in &lost {
            let reason = LossReason::from_code(*code).unwrap_or(LossReason::Corrupt);
            cl.losses.insert(
                *id,
                StreamLoss {
                    id: *id,
                    shard: *shard as usize,
                    reason,
                },
            );
            cl.log(WalRecord::Lost {
                id: *id,
                shard: *shard,
                reason: reason.code(),
            });
            report.losses_carried += 1;
        }
        // Re-emit finished-ness so the new epoch is self-contained:
        // bit rot in a cold (pre-epoch) segment must never resurrect a
        // stream the previous epoch already delivered.
        for id in &finished {
            cl.log(WalRecord::Finish { id: *id });
        }

        // Streams: anchored ones restore, anchor-less live ones are
        // typed losses — never silent.
        for (id, a) in &anchors {
            if finished.contains(id) || lost.contains_key(id) {
                continue;
            }
            let rec = CheckpointRecord {
                bytes: a.bytes.clone(),
                resume_from: a.resume_from,
                delivered_bits: a.delivered_bits,
            };
            let prefer = placed.get(id).copied().unwrap_or(a.shard) as usize;
            let span = cl.begin_op(
                "failover_stream",
                SpanCtx::shard(prefer as u64).with_stream(*id),
            );
            let outcome = match cl.restore_recovered(*id, prefer, &rec) {
                Ok(()) => {
                    report.streams_restored += 1;
                    "ok"
                }
                Err(reason) => {
                    let blame = prefer.min(cl.shards.len().saturating_sub(1));
                    cl.declare_lost(*id, blame, reason);
                    report.streams_lost += 1;
                    reason.label()
                }
            };
            cl.end_op(span, outcome);
        }
        for (id, shard) in &placed {
            if finished.contains(id) || lost.contains_key(id) || anchors.contains_key(id) {
                continue;
            }
            let blame = (*shard as usize).min(cl.shards.len().saturating_sub(1));
            cl.declare_lost(*id, blame, LossReason::NoCheckpoint);
            report.streams_lost += 1;
        }
        // A stream whose `Open` (and any `Lost`) frame rotted away is
        // still named by its other records, such as feed watermarks.
        // Unplaced, unanchored and neither finished nor lost on record,
        // it is a live stream without an anchor: a typed loss, blamed on
        // shard 0 since its shard went with the `Open`.
        for id in &ids {
            if placed.contains_key(id)
                || anchors.contains_key(id)
                || finished.contains(id)
                || lost.contains_key(id)
            {
                continue;
            }
            cl.declare_lost(*id, 0, LossReason::NoCheckpoint);
            report.streams_lost += 1;
        }

        cl.record(
            None,
            None,
            EventKind::WalRecovered(Box::new(obs::WalRecovery {
                frames: report.frames_replayed,
                corrupt: report.corrupt_frames,
                torn_tail: report.torn_tail,
                restored: report.streams_restored,
                lost: report.streams_lost,
            })),
        );
        cl.end_op(rspan, "ok");
        cl.flush_journal();
        (cl, report)
    }

    /// Restores a recovered snapshot, preferring the stream's last
    /// known shard, spilling to placement order. On success the stream
    /// routes, re-anchors (journal + store) and queues a
    /// [`FailoverResume`] so the client rewinds its feed.
    fn restore_recovered(
        &mut self,
        id: u64,
        prefer: usize,
        rec: &CheckpointRecord,
    ) -> Result<(), LossReason> {
        let mut order: Vec<usize> = Vec::new();
        if self
            .shards
            .get(prefer)
            .is_some_and(|s| s.state == ShardState::Active)
        {
            order.push(prefer);
        }
        order.extend(
            self.placement
                .ordered(id, &self.views())
                .into_iter()
                .filter(|&s| s != prefer),
        );
        if order.is_empty() {
            return Err(LossReason::NoCapacity);
        }
        let mut saw_capacity = false;
        for shard in order {
            match self.shards[shard].svc.restore(&rec.bytes) {
                Ok(local) => {
                    self.routes.insert(id, Route { shard, local });
                    self.resumes.push(FailoverResume {
                        id,
                        from_shard: prefer,
                        to_shard: shard,
                        resume_from: rec.resume_from,
                        delivered_bits: rec.delivered_bits,
                    });
                    if self.journal.is_some() {
                        self.log(WalRecord::CheckpointAnchor {
                            id,
                            shard: shard32(shard),
                            resume_from: rec.resume_from,
                            delivered_bits: rec.delivered_bits,
                            bytes: rec.bytes.clone(),
                        });
                        if shard != prefer {
                            self.log(WalRecord::Failover {
                                id,
                                from: shard32(prefer),
                                to: shard32(shard),
                            });
                        }
                    }
                    self.store.insert(id, rec.clone());
                    self.registry.inc(self.ids.failovers);
                    self.record(
                        Some(id),
                        Some(shard),
                        EventKind::StreamFailover {
                            from_shard: prefer as u64,
                            to_shard: shard as u64,
                        },
                    );
                    return Ok(());
                }
                Err(e) => match e.restore_disposition() {
                    Some(RestoreDisposition::RetryTransfer) => return Err(LossReason::Corrupt),
                    Some(RestoreDisposition::Incompatible) => {}
                    None => saw_capacity = true,
                },
            }
        }
        Err(if saw_capacity {
            LossReason::NoCapacity
        } else {
            LossReason::Incompatible
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream_lfsr::FlowOptions;
    use lfsr::crc::CrcSpec;
    use stream::AdmissionConfig;

    /// Marks every lane hosted on `shard` as fallen back, so the next
    /// health observation sees an abandoned fabric.
    fn abandon_fabric(cl: &mut Cluster, shard: usize) {
        let lanes: Vec<String> = {
            let svc = cl.shard_service(shard).expect("shard exists");
            svc.system()
                .health_summary()
                .lanes
                .into_iter()
                .map(|(name, _)| name)
                .collect()
        };
        assert!(!lanes.is_empty(), "hosting must create fabric lanes");
        let svc = cl.shard_service_mut(shard).expect("shard serving");
        for lane in &lanes {
            svc.system_mut()
                .system_mut()
                .set_health(lane, dream::Health::Fallback);
        }
    }

    fn two_shard_cluster(abandoned_ticks: u32) -> Cluster {
        let mut cfg = ClusterConfig::homogeneous(2, AdmissionConfig::default());
        cfg.health = HealthPolicy { abandoned_ticks };
        let mut cl = Cluster::new(&cfg);
        let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
        cl.host_crc("crc", &eth, FlowOptions::dream_with_m(8))
            .expect("host");
        cl
    }

    #[test]
    fn abandoned_shard_is_retired_while_survivors_remain() {
        let mut cl = two_shard_cluster(2);
        abandon_fabric(&mut cl, 0);
        cl.tick();
        assert_eq!(
            cl.shard_state(0),
            Some(ShardState::Active),
            "one bad tick is only degraded"
        );
        cl.tick();
        assert_eq!(
            cl.shard_state(0),
            Some(ShardState::Down(DownReason::Abandoned)),
            "second consecutive abandoned tick crosses the threshold"
        );
        assert_eq!(cl.shard_state(1), Some(ShardState::Active));
    }

    #[test]
    fn last_active_shard_is_never_health_retired() {
        let mut cl = two_shard_cluster(2);
        abandon_fabric(&mut cl, 0);
        for _ in 0..3 {
            cl.tick();
        }
        assert_eq!(
            cl.shard_state(0),
            Some(ShardState::Down(DownReason::Abandoned))
        );
        // Now abandon the sole survivor: the monitor keeps voting Dead,
        // but the cluster refuses to retire its last active shard.
        abandon_fabric(&mut cl, 1);
        for _ in 0..10 {
            cl.tick();
        }
        assert_eq!(
            cl.shard_state(1),
            Some(ShardState::Active),
            "a degraded cluster beats no cluster"
        );
    }

    use lfsr::crc::crc_bitwise;
    use wal::{CrashKind, SharedDisk, SoftwareHasher, StorageBackend};

    fn journaled_cluster(cfg: &ClusterConfig) -> (Cluster, SharedDisk) {
        let disk = SharedDisk::new();
        let mut cl = Cluster::new(cfg);
        cl.attach_journal(Journal::new(
            Box::new(disk.clone()),
            Box::new(SoftwareHasher::new()),
        ));
        let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
        cl.host_crc("crc", &eth, FlowOptions::dream_with_m(8))
            .expect("host");
        (cl, disk)
    }

    #[test]
    fn journaled_cluster_recovers_streams_after_crash() {
        let cfg = ClusterConfig::homogeneous(2, AdmissionConfig::default());
        let (mut cl, disk) = journaled_cluster(&cfg);
        let data: Vec<u8> = (0..96).map(|i| (i * 37) as u8).collect();

        let id = cl.open_crc("crc", Priority::High, 8).expect("open");
        cl.feed(id, &data[..48]).expect("feed");
        cl.tick();
        cl.checkpoint_now(id).expect("anchor");
        cl.tick(); // flushes the anchor frame

        // Power loss: the unflushed suffix is gone, the process dies.
        disk.crash(CrashKind::LostSuffix);
        drop(cl);

        let (journal, replay) =
            Journal::recover(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        assert!(replay.frames_ok > 0, "flushed frames survive the crash");
        let (mut rec, report) = Cluster::recover(&cfg, journal, &replay);
        assert_eq!(report.streams_restored, 1, "{report:?}");
        assert_eq!(report.streams_lost, 0, "{report:?}");
        assert_eq!(report.hosts_restored, 1, "{report:?}");

        let resumes = rec.take_failover_resumes();
        assert_eq!(resumes.len(), 1);
        let resume = resumes[0];
        assert_eq!(resume.id, id);

        // The client rewinds its feed to the anchor offset and the
        // digest comes out as if the crash never happened.
        let from = usize::try_from(resume.resume_from).expect("small");
        rec.feed(id, &data[from..]).expect("refeed");
        rec.tick();
        match rec.finish(id).expect("finish") {
            StreamOutput::Crc(got) => {
                let eth = CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
                assert_eq!(got, crc_bitwise(eth, &data));
            }
            other => panic!("CRC stream delivered {other:?}"),
        }
    }

    #[test]
    fn token_redelivery_after_recovery_is_a_duplicate() {
        let cfg = ClusterConfig::homogeneous(2, AdmissionConfig::default());
        let (mut cl, disk) = journaled_cluster(&cfg);

        let id = cl.open_crc("crc", Priority::High, 8).expect("open");
        cl.feed(id, &[0xA5; 32]).expect("feed");
        cl.tick();
        let target = 1 - cl.shard_of(id).expect("routed");
        let token = OpToken(0xFEED_0001);
        assert!(matches!(
            cl.migrate_with_token(token, id, target),
            Ok(OpApply::Applied)
        ));
        cl.tick(); // flush

        disk.crash(CrashKind::LostSuffix);
        drop(cl);

        let (journal, replay) =
            Journal::recover(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
        let (mut rec, report) = Cluster::recover(&cfg, journal, &replay);
        assert!(report.tokens_restored >= 1, "{report:?}");

        // Redelivering the committed token must not double-apply.
        assert!(matches!(
            rec.migrate_with_token(token, id, target),
            Ok(OpApply::Duplicate)
        ));
    }

    /// A loss outlives bit rot in the frames that recorded it: with the
    /// stream's `Open` and its `Lost` frame both rotted, the next
    /// recovery still knows the stream from its feed watermark and
    /// declares it lost again instead of forgetting it.
    #[test]
    fn a_stream_outlives_its_rotted_open_and_loss_frames() {
        let cfg = ClusterConfig::homogeneous(2, AdmissionConfig::default());
        let (mut cl, disk) = journaled_cluster(&cfg);
        let id = cl.open_crc("crc", Priority::High, 8).expect("open");
        cl.feed(id, &[0x3C; 16]).expect("feed");
        cl.tick(); // flushes the open and the watermark; no anchor is taken

        let recover = |disk: &SharedDisk| {
            disk.crash(CrashKind::LostSuffix);
            let (journal, replay) =
                Journal::recover(Box::new(disk.clone()), Box::new(SoftwareHasher::new()));
            Cluster::recover(&cfg, journal, &replay)
        };
        drop(cl);
        let (cl, report) = recover(&disk);
        assert_eq!(report.streams_lost, 1, "{report:?}");
        assert_eq!(cl.losses().iter().map(|l| l.id).collect::<Vec<_>>(), [id]);
        drop(cl);

        let durable = disk.durable();
        let mut sw = SoftwareHasher::new();
        let records = wal::replay_bytes(&durable, &mut sw).records;
        let ranges = wal::payload_ranges(&durable);
        assert_eq!(records.len(), ranges.len(), "no frame is damaged yet");
        let frames: Vec<usize> = (0..records.len())
            .filter(|&i| match &records[i].1 {
                WalRecord::Open { id: x, .. } | WalRecord::Lost { id: x, .. } => *x == id,
                _ => false,
            })
            .collect();
        assert_eq!(frames.len(), 2, "one open, one loss");
        assert!(
            records
                .iter()
                .any(|(_, r)| matches!(r, WalRecord::FeedWatermark { id: x, .. } if *x == id)),
            "a watermark still names the stream"
        );
        for i in frames {
            disk.corrupt_byte(ranges[i].0, 0x10);
        }

        let (cl, report) = recover(&disk);
        assert_eq!(report.corrupt_frames, 2, "{report:?}");
        assert_eq!(report.streams_lost, 1, "{report:?}");
        assert_eq!(
            cl.losses().iter().map(|l| l.id).collect::<Vec<_>>(),
            [id],
            "the stream is not forgotten"
        );
    }
}
