//! The stream service: deadline-aware pumping, transactional fault
//! handling, checkpoint/park/resume, and the overload ladder's actions.
//!
//! ## Why batches are transactions
//!
//! The fabric can break *between* any two blocks of a stream, and a
//! scrub only detects it after the fact. The pump therefore treats
//! every batch of chunks as a transaction:
//!
//! 1. snapshot the pre-batch state of every involved session — the
//!    previous batch's guard proved those states clean;
//! 2. run the batch;
//! 3. guard: scrub the configuration memory and probe the personality
//!    with a known-answer message;
//! 4. on detection, roll every session back to its pre-batch state, run
//!    the recovery ladder, and re-run the batch wherever
//!    [`MigrationAdvice`] points — the repaired lane, the software
//!    kernel (after marshalling the states out of the transformed
//!    domain), or nowhere (checkpoint and park, losing no bytes).
//!
//! No state that was ever exposed to a detected fault survives, which
//! is what makes the storm campaign's digest-mismatch count stay zero.

use crate::admission::{AdmissionConfig, OverloadLevel, ServiceCounters, TokenBucket};
use crate::checkpoint::{
    CheckpointError, CheckpointRef, RestoreDisposition, StreamCheckpoint, NO_TRANSFORM,
};
use crate::pump::{BatchScheduler, EdfScheduler, PumpCandidate};
use crate::session::{Domain, Priority, StreamKind, StreamSession};
use dream::{Health, SystemError};
use dream_lfsr::{build_scrambler_personality, FlowOptions};
use gf2::BitVec;
use lfsr::crc::{finalize_raw, message_bits, CrcSpec};
use lfsr::scramble::ScramblerSpec;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::DerbyTransform;
use obs::{CounterId, EventKind, HistogramId};
use resilience::{MigrationAdvice, ResilienceError, ResilientSystem};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Fabric re-run attempts per batch before the service stops trusting
/// the lane and finishes the batch on the software kernel.
const MAX_FABRIC_ATTEMPTS: usize = 3;

/// One pump batch: `(stream id, chunk)` in service order.
type BatchItems = Vec<(u64, Vec<u8>)>;

/// What a finished stream delivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOutput {
    /// The final checksum of a CRC stream.
    Crc(u64),
    /// The remaining scrambled bits of a scrambler stream (output
    /// already taken via [`StreamService::collect`] is not repeated).
    Scrambled(BitVec),
}

/// How far a live stream has progressed (see
/// [`StreamService::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Payload bytes already absorbed into the stream's state (pumped
    /// chunks; a snapshot taken now would resume *after* these).
    pub bytes_fed: u64,
    /// Payload bytes accepted but still queued (these travel inside a
    /// snapshot and replay on restore).
    pub queued_bytes: usize,
}

impl StreamProgress {
    /// Total payload bytes a snapshot taken now would carry: a client
    /// replaying the stream re-offers data from this byte offset.
    #[must_use]
    pub fn fed_through(&self) -> u64 {
        self.bytes_fed + self.queued_bytes as u64
    }
}

/// Typed refusals and failures of the serving layer.
#[derive(Debug)]
pub enum ServiceError {
    /// No live session with this id.
    UnknownStream(
        /// The id requested.
        u64,
    ),
    /// No parked snapshot with this id.
    UnknownParked(
        /// The id requested.
        u64,
    ),
    /// No hosted personality with this name (or wrong kind for the
    /// requested stream).
    UnknownPersonality(
        /// The name requested.
        String,
    ),
    /// Open refused: the admission token bucket is empty.
    RejectedByBucket,
    /// Open refused: the overload ladder is at
    /// [`OverloadLevel::RejectNew`] or above.
    RejectedByOverload,
    /// Open (or resume) refused: `max_streams` sessions are live.
    RejectedByCapacity,
    /// Feed refused: this stream's own queue is full.
    StreamQueueFull {
        /// The stream whose queue is full.
        id: u64,
        /// Chunks already queued.
        depth: usize,
    },
    /// Feed refused: the global queued-byte budget is exhausted.
    GlobalQueueFull {
        /// Bytes currently queued service-wide.
        queued: usize,
        /// The configured budget.
        capacity: usize,
    },
    /// The stream was checkpointed and parked mid-operation (recovery
    /// advised [`MigrationAdvice::Park`]); resume it later.
    StreamParked(
        /// The parked stream's id.
        u64,
    ),
    /// The underlying system refused an operation.
    System(SystemError),
    /// Hosting or recovery failed.
    Resilience(ResilienceError),
    /// A snapshot failed to decode or rehydrate.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            ServiceError::UnknownParked(id) => write!(f, "no parked stream {id}"),
            ServiceError::UnknownPersonality(name) => {
                write!(f, "no hosted personality {name:?} for this stream kind")
            }
            ServiceError::RejectedByBucket => write!(f, "open rejected: admission bucket empty"),
            ServiceError::RejectedByOverload => {
                write!(f, "open rejected: service is shedding new work")
            }
            ServiceError::RejectedByCapacity => {
                write!(f, "open rejected: session capacity reached")
            }
            ServiceError::StreamQueueFull { id, depth } => {
                write!(f, "stream {id} queue full ({depth} chunks)")
            }
            ServiceError::GlobalQueueFull { queued, capacity } => {
                write!(f, "global queue full ({queued}/{capacity} bytes)")
            }
            ServiceError::StreamParked(id) => {
                write!(f, "stream {id} was checkpointed and parked by recovery")
            }
            ServiceError::System(e) => write!(f, "system error: {e}"),
            ServiceError::Resilience(e) => write!(f, "resilience error: {e}"),
            ServiceError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::System(e) => Some(e),
            ServiceError::Resilience(e) => Some(e),
            ServiceError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl ServiceError {
    /// How a failed [`StreamService::restore`] should be handled by a
    /// higher layer (a cluster migrating streams between shards).
    ///
    /// All snapshot-validation failures flow through the single typed
    /// [`ServiceError::Checkpoint`] variant and classify as either
    /// [`RestoreDisposition::RetryTransfer`] (the bytes were damaged —
    /// retransfer the original snapshot) or
    /// [`RestoreDisposition::Incompatible`] (the snapshot is intact but
    /// cannot run on this host — route it elsewhere or declare the
    /// stream lost). A personality this host does not serve is likewise
    /// `Incompatible`. Returns `None` for errors that are not about the
    /// snapshot at all (capacity refusals, unknown ids), which the
    /// caller handles through its own admission logic.
    #[must_use]
    pub fn restore_disposition(&self) -> Option<RestoreDisposition> {
        match self {
            ServiceError::Checkpoint(e) => Some(e.disposition()),
            ServiceError::UnknownPersonality(_) => Some(RestoreDisposition::Incompatible),
            _ => None,
        }
    }
}

impl From<SystemError> for ServiceError {
    fn from(e: SystemError) -> Self {
        ServiceError::System(e)
    }
}

impl From<ResilienceError> for ServiceError {
    fn from(e: ResilienceError) -> Self {
        ServiceError::Resilience(e)
    }
}

impl From<CheckpointError> for ServiceError {
    fn from(e: CheckpointError) -> Self {
        ServiceError::Checkpoint(e)
    }
}

/// Cached facts about a hosted personality the hot path needs without
/// re-asking the system.
#[derive(Debug, Clone)]
struct Hosted {
    kind: StreamKind,
    m: usize,
    state_bits: usize,
    crc_spec: Option<CrcSpec>,
    t_digest: u64,
}

/// Pre-batch image of one session, for transactional rollback.
struct SessionSnap {
    id: u64,
    domain: Domain,
    state: BitVec,
    staged: BitVec,
    out_pending_len: usize,
    bytes_fed: u64,
}

/// The reason a stream is being parked (drives distinct counters).
enum ParkReason {
    Idle,
    Fault,
    Explicit,
}

/// Registry handles for every service decision counter plus the
/// queue-depth histogram. All `service.*` metrics live in the unified
/// registry owned by the fabric simulator underneath.
#[derive(Debug, Clone, Copy)]
struct SvcIds {
    opened: CounterId,
    completed: CounterId,
    rejected_admission: CounterId,
    rejected_overload: CounterId,
    rejected_capacity: CounterId,
    rejected_queue_full: CounterId,
    rejected_global_full: CounterId,
    degraded_low_priority: CounterId,
    parked_idle: CounterId,
    parked_fault: CounterId,
    resumed: CounterId,
    checkpoints: CounterId,
    restores: CounterId,
    fault_rollbacks: CounterId,
    batch_reruns: CounterId,
    migrated_to_software: CounterId,
    chunks_processed: CounterId,
    level_transitions: CounterId,
    detached: CounterId,
    queue_depth: HistogramId,
    live_sessions: obs::GaugeId,
    queued_bytes: obs::GaugeId,
}

impl SvcIds {
    fn register(reg: &mut obs::MetricsRegistry) -> Self {
        SvcIds {
            opened: reg.counter("service.opened"),
            completed: reg.counter("service.completed"),
            rejected_admission: reg.counter("service.rejected_admission"),
            rejected_overload: reg.counter("service.rejected_overload"),
            rejected_capacity: reg.counter("service.rejected_capacity"),
            rejected_queue_full: reg.counter("service.rejected_queue_full"),
            rejected_global_full: reg.counter("service.rejected_global_full"),
            degraded_low_priority: reg.counter("service.degraded_low_priority"),
            parked_idle: reg.counter("service.parked_idle"),
            parked_fault: reg.counter("service.parked_fault"),
            resumed: reg.counter("service.resumed"),
            checkpoints: reg.counter("service.checkpoints"),
            restores: reg.counter("service.restores"),
            fault_rollbacks: reg.counter("service.fault_rollbacks"),
            batch_reruns: reg.counter("service.batch_reruns"),
            migrated_to_software: reg.counter("service.migrated_to_software"),
            chunks_processed: reg.counter("service.chunks_processed"),
            level_transitions: reg.counter("service.level_transitions"),
            detached: reg.counter("service.detached"),
            queue_depth: reg.histogram("service.queue_depth", &obs::Histogram::pow2_bounds(16)),
            live_sessions: reg.gauge("service.live_sessions"),
            queued_bytes: reg.gauge("service.queued_bytes"),
        }
    }
}

/// A session-oriented, fault-tolerant streaming front-end over a
/// [`ResilientSystem`].
#[derive(Debug)]
pub struct StreamService {
    rs: ResilientSystem,
    cfg: AdmissionConfig,
    bucket: TokenBucket,
    level: OverloadLevel,
    /// Live sessions. A `BTreeMap` so every iteration order — and
    /// therefore every campaign — is deterministic.
    sessions: BTreeMap<u64, StreamSession>,
    /// Parked snapshots, by the id the stream had when parked.
    parked: BTreeMap<u64, Vec<u8>>,
    hosted: HashMap<String, Hosted>,
    /// Software kernels per personality (serial state-space engines).
    soft: HashMap<String, StateSpaceLfsr>,
    next_id: u64,
    now: u64,
    global_queued_bytes: usize,
    ids: SvcIds,
    sched: Box<dyn BatchScheduler>,
}

impl StreamService {
    /// A service over `rs` with the given admission configuration and
    /// the default EDF pump scheduler.
    #[must_use]
    pub fn new(rs: ResilientSystem, cfg: AdmissionConfig) -> Self {
        Self::with_scheduler(rs, cfg, Box::new(EdfScheduler))
    }

    /// A service with an explicit pump scheduling policy (see
    /// [`BatchScheduler`]).
    #[must_use]
    pub fn with_scheduler(
        mut rs: ResilientSystem,
        cfg: AdmissionConfig,
        sched: Box<dyn BatchScheduler>,
    ) -> Self {
        let bucket = TokenBucket::new(cfg.bucket_capacity, cfg.bucket_refill);
        let ids = SvcIds::register(&mut rs.obs_mut().registry);
        StreamService {
            rs,
            cfg,
            bucket,
            level: OverloadLevel::Normal,
            sessions: BTreeMap::new(),
            parked: BTreeMap::new(),
            hosted: HashMap::new(),
            soft: HashMap::new(),
            next_id: 1,
            now: 0,
            global_queued_bytes: 0,
            ids,
            sched,
        }
    }

    /// The active pump scheduling policy's name.
    #[must_use]
    pub fn scheduler_name(&self) -> &'static str {
        self.sched.name()
    }

    /// The wrapped resilient system.
    pub fn system(&self) -> &ResilientSystem {
        &self.rs
    }

    /// Mutable access to the wrapped system (fault injection).
    pub fn system_mut(&mut self) -> &mut ResilientSystem {
        &mut self.rs
    }

    /// Cumulative decision counters, assembled as a view over the
    /// unified metrics registry.
    pub fn counters(&self) -> ServiceCounters {
        let reg = &self.rs.obs().registry;
        ServiceCounters {
            opened: reg.counter_value(self.ids.opened),
            completed: reg.counter_value(self.ids.completed),
            rejected_admission: reg.counter_value(self.ids.rejected_admission),
            rejected_overload: reg.counter_value(self.ids.rejected_overload),
            rejected_capacity: reg.counter_value(self.ids.rejected_capacity),
            rejected_queue_full: reg.counter_value(self.ids.rejected_queue_full),
            rejected_global_full: reg.counter_value(self.ids.rejected_global_full),
            degraded_low_priority: reg.counter_value(self.ids.degraded_low_priority),
            parked_idle: reg.counter_value(self.ids.parked_idle),
            parked_fault: reg.counter_value(self.ids.parked_fault),
            resumed: reg.counter_value(self.ids.resumed),
            checkpoints: reg.counter_value(self.ids.checkpoints),
            restores: reg.counter_value(self.ids.restores),
            fault_rollbacks: reg.counter_value(self.ids.fault_rollbacks),
            batch_reruns: reg.counter_value(self.ids.batch_reruns),
            migrated_to_software: reg.counter_value(self.ids.migrated_to_software),
            chunks_processed: reg.counter_value(self.ids.chunks_processed),
            level_transitions: reg.counter_value(self.ids.level_transitions),
            detached: reg.counter_value(self.ids.detached),
        }
    }

    /// Snapshot of the service-wide queue-depth histogram (one sample
    /// per tick, recorded before the pump runs).
    pub fn queue_depth_stats(&self) -> obs::HistogramSnapshot {
        self.rs
            .obs()
            .registry
            .histogram_ref(self.ids.queue_depth)
            .snapshot()
    }

    /// The observability hub (registry, tracer, fabric profiler).
    pub fn obs(&self) -> &obs::ObsHub {
        self.rs.obs()
    }

    /// Mutable access to the observability hub.
    pub fn obs_mut(&mut self) -> &mut obs::ObsHub {
        self.rs.obs_mut()
    }

    /// Bumps one of this service's registry counters.
    fn bump(&mut self, id: CounterId) {
        self.rs.obs_mut().registry.inc(id);
    }

    /// The ladder's current level.
    pub fn level(&self) -> OverloadLevel {
        self.level
    }

    /// Live (non-parked) sessions.
    pub fn live_streams(&self) -> usize {
        self.sessions.len()
    }

    /// Ids of parked streams, ascending.
    pub fn parked_ids(&self) -> Vec<u64> {
        self.parked.keys().copied().collect()
    }

    /// Ids of live (non-parked) sessions, ascending.
    pub fn stream_ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// Whether `id` names a live (non-parked) session.
    #[must_use]
    pub fn is_live(&self, id: u64) -> bool {
        self.sessions.contains_key(&id)
    }

    /// Whether `id` names a parked snapshot.
    #[must_use]
    pub fn is_parked(&self, id: u64) -> bool {
        self.parked.contains_key(&id)
    }

    /// Total queued chunks across all live sessions.
    pub fn queue_depth_total(&self) -> usize {
        self.sessions.values().map(StreamSession::queue_depth).sum()
    }

    /// Total queued payload bytes across all live sessions.
    pub fn queued_bytes(&self) -> usize {
        self.global_queued_bytes
    }

    /// Hosts a CRC personality (built through the full flow) for
    /// streaming, and prepares its software kernel.
    ///
    /// # Errors
    ///
    /// Build or registration failures as [`ServiceError::Resilience`].
    pub fn host_crc(
        &mut self,
        name: &str,
        spec: &CrcSpec,
        opts: FlowOptions,
    ) -> Result<(), ServiceError> {
        self.rs.host(name, spec, opts)?;
        let t_digest = self
            .rs
            .system()
            .crc_derby(name)
            .map_or(NO_TRANSFORM, DerbyTransform::digest);
        let m = self
            .rs
            .system()
            .stream_block_bits(name)
            .expect("just hosted");
        self.hosted.insert(
            name.to_string(),
            Hosted {
                kind: StreamKind::Crc,
                m,
                state_bits: spec.width,
                crc_spec: Some(*spec),
                t_digest,
            },
        );
        let serial = StateSpaceLfsr::crc(&spec.generator()).map_err(|source| {
            ServiceError::System(SystemError::BadSpec {
                name: name.to_string(),
                source,
            })
        })?;
        self.soft.insert(name.to_string(), serial);
        Ok(())
    }

    /// Hosts a scrambler personality for streaming, and prepares its
    /// software kernel.
    ///
    /// # Errors
    ///
    /// Build or registration failures.
    pub fn host_scrambler(
        &mut self,
        name: &str,
        spec: &ScramblerSpec,
        opts: &FlowOptions,
    ) -> Result<(), ServiceError> {
        let p = build_scrambler_personality(name.to_string(), spec, opts)
            .map_err(ResilienceError::from)?;
        self.rs.system_mut().register_scrambler(p)?;
        let t_digest = self
            .rs
            .system()
            .scrambler_derby(name)
            .map_or(NO_TRANSFORM, DerbyTransform::digest);
        self.hosted.insert(
            name.to_string(),
            Hosted {
                kind: StreamKind::Scrambler,
                m: opts.m,
                state_bits: spec.width,
                crc_spec: None,
                t_digest,
            },
        );
        let serial = StateSpaceLfsr::additive_scrambler(&spec.polynomial()).map_err(|source| {
            ServiceError::System(SystemError::BadSpec {
                name: name.to_string(),
                source,
            })
        })?;
        self.soft.insert(name.to_string(), serial);
        Ok(())
    }

    fn admit(&mut self, name: &str) -> Result<(), ServiceError> {
        if self.level >= OverloadLevel::RejectNew {
            self.bump(self.ids.rejected_overload);
            self.rs.obs_mut().event_for(
                None,
                Some(name),
                EventKind::StreamShed { reason: "overload" },
            );
            return Err(ServiceError::RejectedByOverload);
        }
        if self.sessions.len() >= self.cfg.max_streams {
            self.bump(self.ids.rejected_capacity);
            self.rs.obs_mut().event_for(
                None,
                Some(name),
                EventKind::StreamShed { reason: "capacity" },
            );
            return Err(ServiceError::RejectedByCapacity);
        }
        if !self.bucket.try_take() {
            self.bump(self.ids.rejected_admission);
            self.rs.obs_mut().event_for(
                None,
                Some(name),
                EventKind::StreamShed {
                    reason: "admission",
                },
            );
            return Err(ServiceError::RejectedByBucket);
        }
        Ok(())
    }

    fn insert_session(&mut self, s: StreamSession) -> u64 {
        let id = self.next_id;
        let name = s.name.clone();
        self.next_id += 1;
        self.sessions.insert(id, s);
        self.bump(self.ids.opened);
        self.rs
            .obs_mut()
            .event_for(Some(id), Some(&name), EventKind::StreamAdmit);
        id
    }

    /// Opens a CRC stream on `name`, due `deadline_in` ticks from now.
    ///
    /// # Errors
    ///
    /// Admission refusals ([`ServiceError::RejectedByBucket`] /
    /// [`ServiceError::RejectedByOverload`] /
    /// [`ServiceError::RejectedByCapacity`]) or an unknown personality.
    pub fn open_crc(
        &mut self,
        name: &str,
        priority: Priority,
        deadline_in: u64,
    ) -> Result<u64, ServiceError> {
        let hosted = self
            .hosted
            .get(name)
            .filter(|h| h.kind == StreamKind::Crc)
            .ok_or_else(|| ServiceError::UnknownPersonality(name.to_string()))?
            .clone();
        self.admit(name)?;
        let state = self.rs.system().crc_stream_begin(name)?;
        debug_assert_eq!(state.len(), hosted.state_bits);
        Ok(self.insert_session(StreamSession {
            name: name.to_string(),
            kind: StreamKind::Crc,
            priority,
            deadline: self.now + deadline_in,
            domain: Domain::Fabric,
            state,
            staged: BitVec::zeros(0),
            out_pending: BitVec::zeros(0),
            queue: VecDeque::new(),
            queued_bytes: 0,
            bytes_fed: 0,
            last_active: self.now,
        }))
    }

    /// Opens a scrambler stream on `name` seeded with `seed`.
    ///
    /// # Errors
    ///
    /// As [`StreamService::open_crc`], plus
    /// [`SystemError::BadSeed`] for seeds wider than the register.
    pub fn open_scrambler(
        &mut self,
        name: &str,
        seed: u64,
        priority: Priority,
        deadline_in: u64,
    ) -> Result<u64, ServiceError> {
        self.hosted
            .get(name)
            .filter(|h| h.kind == StreamKind::Scrambler)
            .ok_or_else(|| ServiceError::UnknownPersonality(name.to_string()))?;
        self.admit(name)?;
        let state = self.rs.system().scramble_stream_begin(name, seed)?;
        Ok(self.insert_session(StreamSession {
            name: name.to_string(),
            kind: StreamKind::Scrambler,
            priority,
            deadline: self.now + deadline_in,
            domain: Domain::Fabric,
            state,
            staged: BitVec::zeros(0),
            out_pending: BitVec::zeros(0),
            queue: VecDeque::new(),
            queued_bytes: 0,
            bytes_fed: 0,
            last_active: self.now,
        }))
    }

    /// Queues a chunk on a stream. The chunk is not processed until a
    /// [`StreamService::tick`] pumps it (or [`StreamService::finish`]
    /// drains it).
    ///
    /// # Errors
    ///
    /// [`ServiceError::StreamQueueFull`] /
    /// [`ServiceError::GlobalQueueFull`] when a bound is hit — the
    /// caller owns retry policy.
    pub fn feed(&mut self, id: u64, chunk: &[u8]) -> Result<(), ServiceError> {
        let now = self.now;
        let per_stream = self.cfg.per_stream_queue_chunks;
        let global_cap = self.cfg.global_queue_bytes;
        let global = self.global_queued_bytes;
        let depth = self
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?
            .queue
            .len();
        if chunk.is_empty() {
            return Ok(());
        }
        if depth >= per_stream {
            self.bump(self.ids.rejected_queue_full);
            self.rs.obs_mut().event_for(
                Some(id),
                None,
                EventKind::StreamShed {
                    reason: "queue_full",
                },
            );
            return Err(ServiceError::StreamQueueFull { id, depth });
        }
        if global + chunk.len() > global_cap {
            self.bump(self.ids.rejected_global_full);
            self.rs.obs_mut().event_for(
                Some(id),
                None,
                EventKind::StreamShed {
                    reason: "global_full",
                },
            );
            return Err(ServiceError::GlobalQueueFull {
                queued: global,
                capacity: global_cap,
            });
        }
        let session = self.sessions.get_mut(&id).expect("checked above");
        session.queue.push_back(chunk.to_vec());
        session.queued_bytes += chunk.len();
        session.last_active = now;
        self.global_queued_bytes += chunk.len();
        Ok(())
    }

    /// Takes the scrambled output produced so far for a stream.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`].
    pub fn collect(&mut self, id: u64) -> Result<BitVec, ServiceError> {
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        Ok(std::mem::replace(
            &mut session.out_pending,
            BitVec::zeros(0),
        ))
    }

    /// One service tick: refill the admission bucket, move the overload
    /// ladder, apply its rungs (degrade / park), and pump queued chunks
    /// in deadline order under the configured budget.
    ///
    /// # Errors
    ///
    /// Propagates system and recovery errors (typed refusals never come
    /// from `tick`).
    pub fn tick(&mut self) -> Result<(), ServiceError> {
        self.now += 1;
        self.bucket.tick();
        let depth = self.queue_depth_total() as u64;
        let queue_depth = self.ids.queue_depth;
        self.rs.obs_mut().registry.observe(queue_depth, depth);
        let (live_g, bytes_g) = (self.ids.live_sessions, self.ids.queued_bytes);
        let (live, queued) = (self.sessions.len(), self.global_queued_bytes);
        let reg = &mut self.rs.obs_mut().registry;
        reg.set_gauge(live_g, i64::try_from(live).unwrap_or(i64::MAX));
        reg.set_gauge(bytes_g, i64::try_from(queued).unwrap_or(i64::MAX));
        let occupancy_pct = u32::try_from(
            (self.global_queued_bytes as u64) * 100 / (self.cfg.global_queue_bytes as u64).max(1),
        )
        .unwrap_or(u32::MAX);
        let next = self.cfg.next_level(self.level, occupancy_pct);
        if next != self.level {
            self.bump(self.ids.level_transitions);
            self.rs.obs_mut().event(EventKind::LevelTransition {
                from: self.level.name(),
                to: next.name(),
            });
            self.level = next;
        }
        if self.level >= OverloadLevel::DegradeLowPriority {
            let victims: Vec<u64> = self
                .sessions
                .iter()
                .filter(|(_, s)| s.priority == Priority::Low && s.domain == Domain::Fabric)
                .map(|(id, _)| *id)
                .collect();
            for id in victims {
                self.degrade(id)?;
                self.bump(self.ids.degraded_low_priority);
            }
        }
        if self.level >= OverloadLevel::ParkIdle {
            let idle: Vec<u64> = self
                .sessions
                .iter()
                .filter(|(_, s)| {
                    s.queue.is_empty() && s.last_active + self.cfg.idle_grace_ticks < self.now
                })
                .map(|(id, _)| *id)
                .collect();
            for id in idle {
                self.park_internal(id, &ParkReason::Idle)?;
            }
        }
        self.pump(self.cfg.pump_budget_chunks)
    }

    /// Migrates a stream to the software kernel: the state is
    /// marshalled out of the transformed domain (`x = T·x_t`), staged
    /// residual bits are absorbed bit-serially, and all further feeds
    /// run on the control processor. A no-op for streams already in
    /// software.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`] / marshalling errors.
    pub fn degrade(&mut self, id: u64) -> Result<(), ServiceError> {
        let session = self
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        if session.domain == Domain::Software {
            return Ok(());
        }
        let (name, kind, state, staged) = (
            session.name.clone(),
            session.kind,
            session.state.clone(),
            session.staged.clone(),
        );
        let plain = self.rs.system().export_stream_state(&name, &state)?;
        let engine = self.soft.get_mut(&name).expect("hosted implies kernel");
        engine.set_state(plain);
        let emitted = match kind {
            StreamKind::Crc => {
                engine.absorb(&staged);
                BitVec::zeros(0)
            }
            StreamKind::Scrambler => engine.transduce(&staged),
        };
        let new_state = engine.state().clone();
        let session = self.sessions.get_mut(&id).expect("checked above");
        session.state = new_state;
        session.staged = BitVec::zeros(0);
        session.out_pending = session.out_pending.concat(&emitted);
        session.domain = Domain::Software;
        self.rs
            .obs_mut()
            .event_for(Some(id), Some(&name), EventKind::Degrade);
        Ok(())
    }

    /// Finishes a stream: drains its queue (transactionally, like the
    /// pump), finalizes per domain, and removes the session.
    ///
    /// # Errors
    ///
    /// [`ServiceError::StreamParked`] if recovery parked the stream
    /// while draining — resume it and call `finish` again.
    pub fn finish(&mut self, id: u64) -> Result<StreamOutput, ServiceError> {
        // Drain everything still queued, in order, as one batch.
        let (name, items) = {
            let session = self
                .sessions
                .get_mut(&id)
                .ok_or(ServiceError::UnknownStream(id))?;
            let mut items = Vec::new();
            while let Some(chunk) = session.queue.pop_front() {
                session.queued_bytes -= chunk.len();
                items.push((id, chunk));
            }
            (session.name.clone(), items)
        };
        for (_, chunk) in &items {
            self.global_queued_bytes -= chunk.len();
        }
        if !items.is_empty() {
            self.transact(&name, &items)?;
        }
        if !self.sessions.contains_key(&id) {
            // Recovery parked the stream while draining; nothing lost.
            return Err(ServiceError::StreamParked(id));
        }

        let session = self.sessions.get(&id).expect("checked above");
        let (kind, domain, state, staged) = (
            session.kind,
            session.domain,
            session.state.clone(),
            session.staged.clone(),
        );
        let out = match (kind, domain) {
            (StreamKind::Crc, Domain::Fabric) => {
                let (crc, _) = self
                    .rs
                    .system_mut()
                    .crc_stream_finish(&name, &state, &staged)?;
                // The finalize step ran the anti-transform network on
                // the fabric — guard it like any other fabric work.
                if self.lane_suspect(&name)? {
                    self.bump(self.ids.fault_rollbacks);
                    self.rs.recover(&name)?;
                    StreamOutput::Crc(self.software_crc_finish(&name, &state, &staged)?)
                } else {
                    StreamOutput::Crc(crc)
                }
            }
            (StreamKind::Crc, Domain::Software) => {
                let spec = self.crc_spec_of(&name)?;
                StreamOutput::Crc(finalize_raw(&spec, state.to_u64()))
            }
            (StreamKind::Scrambler, Domain::Fabric) => {
                // Anti-transform and tail transduction are host-side
                // matrix math — no fabric exposure, no guard needed.
                let (tail, _) = self
                    .rs
                    .system_mut()
                    .scramble_stream_finish(&name, &state, &staged)?;
                let session = self.sessions.get(&id).expect("checked above");
                StreamOutput::Scrambled(session.out_pending.concat(&tail))
            }
            (StreamKind::Scrambler, Domain::Software) => {
                let session = self.sessions.get(&id).expect("checked above");
                StreamOutput::Scrambled(session.out_pending.clone())
            }
        };
        self.sessions.remove(&id);
        self.bump(self.ids.completed);
        self.rs
            .obs_mut()
            .event_for(Some(id), Some(&name), EventKind::StreamComplete);
        Ok(out)
    }

    /// The authoritative software path for a CRC finalize: marshal the
    /// transformed state out, absorb the residue serially, apply the
    /// output conventions.
    fn software_crc_finish(
        &mut self,
        name: &str,
        x_t: &BitVec,
        staged: &BitVec,
    ) -> Result<u64, ServiceError> {
        let spec = self.crc_spec_of(name)?;
        let plain = self.rs.system().export_stream_state(name, x_t)?;
        let engine = self.soft.get_mut(name).expect("hosted implies kernel");
        engine.set_state(plain);
        engine.absorb(staged);
        Ok(finalize_raw(&spec, engine.state().to_u64()))
    }

    fn crc_spec_of(&self, name: &str) -> Result<CrcSpec, ServiceError> {
        self.hosted
            .get(name)
            .and_then(|h| h.crc_spec)
            .ok_or_else(|| ServiceError::UnknownPersonality(name.to_string()))
    }

    /// Serializes a snapshot of a live stream (the stream keeps
    /// running).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`].
    pub fn checkpoint(&mut self, id: u64) -> Result<Vec<u8>, ServiceError> {
        let session = self
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        let hosted = self.hosted.get(&session.name).expect("session is hosted");
        let plain_domain = session.domain == Domain::Software;
        let (front, back) = session.queue.as_slices();
        let bytes = CheckpointRef {
            name: &session.name,
            kind: session.kind,
            priority: session.priority,
            deadline: session.deadline,
            plain_domain,
            t_digest: if plain_domain {
                NO_TRANSFORM
            } else {
                hosted.t_digest
            },
            state: &session.state,
            staged: &session.staged,
            out_pending: &session.out_pending,
            queued: [front, back],
            bytes_fed: session.bytes_fed,
        }
        .encode();
        self.bump(self.ids.checkpoints);
        Ok(bytes)
    }

    /// Progress marker of a live stream: how many payload bytes a
    /// client would have to re-offer if the stream were resumed from a
    /// snapshot taken *right now* (`bytes_fed` are absorbed into the
    /// state, queued bytes travel inside the snapshot).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`].
    pub fn progress(&self, id: u64) -> Result<StreamProgress, ServiceError> {
        let s = self
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        Ok(StreamProgress {
            bytes_fed: s.bytes_fed,
            queued_bytes: s.queued_bytes,
        })
    }

    /// Checkpoints a live stream, removes its session (freeing
    /// capacity), and returns the snapshot bytes — the source half of a
    /// cross-shard migration. Unlike [`StreamService::park`], the
    /// snapshot is **not** retained here; the caller owns it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`].
    pub fn detach(&mut self, id: u64) -> Result<Vec<u8>, ServiceError> {
        let bytes = self.checkpoint(id)?;
        let session = self.sessions.remove(&id).expect("checkpoint proved it");
        self.global_queued_bytes -= session.queued_bytes;
        self.bump(self.ids.detached);
        self.rs
            .obs_mut()
            .event_for(Some(id), Some(&session.name), EventKind::StreamDetach);
        Ok(bytes)
    }

    /// The retained snapshot of a parked stream, if `id` is parked.
    #[must_use]
    pub fn parked_snapshot(&self, id: u64) -> Option<&[u8]> {
        self.parked.get(&id).map(Vec::as_slice)
    }

    /// Removes a parked stream's snapshot and returns it — the source
    /// half of migrating a *parked* stream to another shard.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownParked`].
    pub fn take_parked(&mut self, id: u64) -> Result<Vec<u8>, ServiceError> {
        let bytes = self
            .parked
            .remove(&id)
            .ok_or(ServiceError::UnknownParked(id))?;
        self.bump(self.ids.detached);
        self.rs
            .obs_mut()
            .event_for(Some(id), None, EventKind::StreamDetach);
        Ok(bytes)
    }

    /// Checkpoints a stream and parks it: the session leaves the live
    /// set (freeing capacity) and its snapshot is retained for
    /// [`StreamService::resume`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownStream`].
    pub fn park(&mut self, id: u64) -> Result<(), ServiceError> {
        self.park_internal(id, &ParkReason::Explicit)
    }

    fn park_internal(&mut self, id: u64, reason: &ParkReason) -> Result<(), ServiceError> {
        let bytes = self.checkpoint(id)?;
        let session = self.sessions.remove(&id).expect("checkpoint proved it");
        self.global_queued_bytes -= session.queued_bytes;
        self.parked.insert(id, bytes);
        let label = match reason {
            ParkReason::Idle => {
                self.bump(self.ids.parked_idle);
                "idle"
            }
            ParkReason::Fault => {
                self.bump(self.ids.parked_fault);
                "fault"
            }
            ParkReason::Explicit => "explicit",
        };
        self.rs.obs_mut().event_for(
            Some(id),
            Some(&session.name),
            EventKind::StreamPark { reason: label },
        );
        Ok(())
    }

    /// Rehydrates a parked stream under its original id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownParked`], capacity refusals, or snapshot
    /// validation failures.
    pub fn resume(&mut self, id: u64) -> Result<(), ServiceError> {
        let bytes = self
            .parked
            .get(&id)
            .ok_or(ServiceError::UnknownParked(id))?;
        let cp = StreamCheckpoint::decode(bytes)?;
        self.rehydrate(cp, id)?;
        self.parked.remove(&id);
        self.bump(self.ids.resumed);
        self.rs
            .obs_mut()
            .event_for(Some(id), None, EventKind::StreamResume);
        Ok(())
    }

    /// Rehydrates an external snapshot as a new stream, returning its
    /// id.
    ///
    /// # Errors
    ///
    /// Snapshot validation failures — including
    /// [`CheckpointError::TransformMismatch`] when the snapshot's
    /// transformed state does not belong to the hosted lane's
    /// transform.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<u64, ServiceError> {
        let cp = StreamCheckpoint::decode(bytes)?;
        let id = self.next_id;
        // Allocate the id only once rehydration succeeds, so failed
        // restores (corrupt or incompatible snapshots) don't burn ids
        // and a retry lands on the id the caller expects.
        self.rehydrate(cp, id)?;
        self.next_id += 1;
        Ok(id)
    }

    fn rehydrate(&mut self, cp: StreamCheckpoint, id: u64) -> Result<(), ServiceError> {
        let hosted = self
            .hosted
            .get(&cp.name)
            .filter(|h| h.kind == cp.kind)
            .ok_or_else(|| ServiceError::UnknownPersonality(cp.name.clone()))?
            .clone();
        if self.sessions.len() >= self.cfg.max_streams {
            self.bump(self.ids.rejected_capacity);
            self.rs.obs_mut().event_for(
                Some(id),
                None,
                EventKind::StreamShed { reason: "capacity" },
            );
            return Err(ServiceError::RejectedByCapacity);
        }
        if !cp.plain_domain && cp.t_digest != hosted.t_digest {
            return Err(CheckpointError::TransformMismatch {
                snapshot: cp.t_digest,
                lane: hosted.t_digest,
            }
            .into());
        }
        if cp.state.len() != hosted.state_bits {
            return Err(CheckpointError::Malformed("state width").into());
        }
        if !cp.plain_domain && cp.staged.len() >= hosted.m {
            return Err(CheckpointError::Malformed("staged residue too wide").into());
        }
        if cp.plain_domain && !cp.staged.is_empty() {
            return Err(CheckpointError::Malformed("software snapshot with staged bits").into());
        }
        let queued_bytes: usize = cp.queued.iter().map(Vec::len).sum();
        let session = StreamSession {
            name: cp.name,
            kind: cp.kind,
            priority: cp.priority,
            deadline: cp.deadline.max(self.now),
            domain: if cp.plain_domain {
                Domain::Software
            } else {
                Domain::Fabric
            },
            state: cp.state,
            staged: cp.staged,
            out_pending: cp.out_pending,
            queue: cp.queued.into(),
            queued_bytes,
            bytes_fed: cp.bytes_fed,
            last_active: self.now,
        };
        self.global_queued_bytes += queued_bytes;
        self.sessions.insert(id, session);
        self.bump(self.ids.restores);
        Ok(())
    }

    /// Pumps up to `budget` chunks in the order the configured
    /// [`BatchScheduler`] plans (EDF by default), grouped into
    /// per-personality transactional batches.
    fn pump(&mut self, budget: usize) -> Result<(), ServiceError> {
        let candidates: Vec<PumpCandidate> = self
            .sessions
            .iter()
            .filter(|(_, s)| !s.queue.is_empty())
            .map(|(id, s)| PumpCandidate {
                id: *id,
                deadline: s.deadline,
                queued_chunks: s.queue.len(),
            })
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let picks = self.sched.plan(&candidates, budget);
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
        for id in picks.into_iter().take(budget) {
            let Some(session) = self.sessions.get_mut(&id) else {
                continue; // scheduler named a stream that is not live
            };
            if let Some(chunk) = session.queue.pop_front() {
                session.queued_bytes -= chunk.len();
                self.global_queued_bytes -= chunk.len();
                batch.push((id, chunk));
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        // Group by personality, preserving first-appearance order.
        let mut groups: Vec<(String, BatchItems)> = Vec::new();
        for (id, chunk) in batch {
            let name = &self.sessions.get(&id).expect("still live").name;
            match groups.iter_mut().find(|(n, _)| n == name) {
                Some((_, items)) => items.push((id, chunk)),
                None => groups.push((name.clone(), vec![(id, chunk)])),
            }
        }
        for (name, items) in groups {
            self.transact(&name, &items)?;
        }
        Ok(())
    }

    /// Runs one per-personality batch as a transaction (see the module
    /// docs). On a guard detection: rollback, recover, and follow the
    /// migration advice.
    fn transact(&mut self, name: &str, items: &[(u64, Vec<u8>)]) -> Result<(), ServiceError> {
        let mut involved: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        involved.sort_unstable();
        involved.dedup();
        let pre: Vec<SessionSnap> = involved
            .iter()
            .map(|id| {
                let s = self.sessions.get(id).expect("batch built from live set");
                SessionSnap {
                    id: *id,
                    domain: s.domain,
                    state: s.state.clone(),
                    staged: s.staged.clone(),
                    out_pending_len: s.out_pending.len(),
                    bytes_fed: s.bytes_fed,
                }
            })
            .collect();

        for attempt in 0..MAX_FABRIC_ATTEMPTS {
            let mut used_fabric = false;
            for (id, chunk) in items {
                used_fabric |= self.process_chunk(*id, chunk)?;
            }
            if !used_fabric || !self.lane_suspect(name)? {
                let chunks = self.ids.chunks_processed;
                self.rs.obs_mut().registry.add(chunks, items.len() as u64);
                let now = self.now;
                for id in &involved {
                    if let Some(s) = self.sessions.get_mut(id) {
                        s.last_active = now;
                    }
                }
                return Ok(());
            }

            // Detection: nothing this batch produced can be trusted.
            self.bump(self.ids.fault_rollbacks);
            self.rollback(&pre);
            self.rs.obs_mut().event_for(
                None,
                Some(name),
                EventKind::BatchRollback {
                    streams: involved.len() as u64,
                },
            );
            let outcome = self.rs.recover(name)?;
            match outcome.migration_advice() {
                MigrationAdvice::StayFabric => {
                    // The lane is repaired; re-run from the clean
                    // pre-batch states. If repairs keep failing, the
                    // loop bottoms out in a software migration below.
                    self.bump(self.ids.batch_reruns);
                    if attempt + 1 == MAX_FABRIC_ATTEMPTS {
                        self.migrate_involved(&involved)?;
                    }
                }
                MigrationAdvice::MarshalToSoftware => {
                    self.bump(self.ids.batch_reruns);
                    self.migrate_involved(&involved)?;
                }
                MigrationAdvice::Park => {
                    // Give the bytes back to the queues (front, in
                    // order) and park every involved stream.
                    for (id, chunk) in items.iter().rev() {
                        let s = self.sessions.get_mut(id).expect("rolled back");
                        s.queued_bytes += chunk.len();
                        self.global_queued_bytes += chunk.len();
                        s.queue.push_front(chunk.clone());
                    }
                    for id in &involved {
                        self.park_internal(*id, &ParkReason::Fault)?;
                    }
                    return Ok(());
                }
            }
        }
        // Final attempt after forced software migration cannot touch
        // the fabric, so it cannot fail the guard.
        for (id, chunk) in items {
            self.process_chunk(*id, chunk)?;
        }
        let chunks = self.ids.chunks_processed;
        self.rs.obs_mut().registry.add(chunks, items.len() as u64);
        Ok(())
    }

    fn migrate_involved(&mut self, involved: &[u64]) -> Result<(), ServiceError> {
        for id in involved {
            let fabric = self
                .sessions
                .get(id)
                .is_some_and(|s| s.domain == Domain::Fabric);
            if fabric {
                self.degrade(*id)?;
                self.bump(self.ids.migrated_to_software);
            }
        }
        Ok(())
    }

    fn rollback(&mut self, pre: &[SessionSnap]) {
        for snap in pre {
            let s = self
                .sessions
                .get_mut(&snap.id)
                .expect("involved stays live");
            s.domain = snap.domain;
            s.state = snap.state.clone();
            s.staged = snap.staged.clone();
            s.out_pending = s.out_pending.slice(0, snap.out_pending_len);
            s.bytes_fed = snap.bytes_fed;
        }
    }

    /// Guard verdict for one personality after a fabric batch: the
    /// scrub re-proves every resident configuration against its
    /// pristine registration (complete for configuration upsets), and
    /// the affine datapath sweep re-proves the physical array against
    /// the resident configuration (complete for stuck-at cells in the
    /// XOR fault model). Together they leave no silent corruption
    /// channel — a sampled known-answer probe alone can be fooled by a
    /// stuck cell its probe data happens not to excite.
    fn lane_suspect(&mut self, name: &str) -> Result<bool, ServiceError> {
        let flagged = self
            .rs
            .system_mut()
            .scrub()
            .iter()
            .any(|f| f.personality == name);
        if flagged {
            return Ok(true);
        }
        Ok(!self.rs.system_mut().datapath_probe(name)?)
    }

    /// Advances one session by one chunk. Returns whether the fabric
    /// was used (and therefore whether the batch needs a guard). A feed
    /// that fails leaves the session as it was.
    fn process_chunk(&mut self, id: u64, chunk: &[u8]) -> Result<bool, ServiceError> {
        let s = self
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownStream(id))?;
        // A lane retired to software fallback must not be fed on the
        // fabric; late sessions migrate the moment they are pumped.
        if s.domain == Domain::Fabric && self.rs.system().health(&s.name) == Health::Fallback {
            self.degrade(id)?;
            self.bump(self.ids.migrated_to_software);
        }
        let StreamService {
            rs,
            sessions,
            hosted,
            soft,
            ..
        } = self;
        let s = sessions.get_mut(&id).expect("checked above");
        let h = hosted.get(&s.name).expect("session is hosted");
        let incoming = match s.kind {
            StreamKind::Crc => {
                let spec = h
                    .crc_spec
                    .ok_or_else(|| ServiceError::UnknownPersonality(s.name.clone()))?;
                message_bits(&spec, chunk)
            }
            StreamKind::Scrambler => BitVec::from_le_bytes(chunk, chunk.len() * 8),
        };

        let used_fabric = match s.domain {
            Domain::Fabric => {
                let m = h.m;
                let all = if s.staged.is_empty() {
                    incoming
                } else {
                    s.staged.concat(&incoming)
                };
                let full = all.len() / m * m;
                let (blocks, rest) = if full == 0 {
                    (BitVec::zeros(0), all)
                } else if full == all.len() {
                    (all, BitVec::zeros(0))
                } else {
                    (all.slice(0, full), all.slice(full, all.len() - full))
                };
                if full > 0 {
                    let sys = rs.system_mut();
                    match s.kind {
                        StreamKind::Crc => {
                            s.state = sys.crc_stream_feed(&s.name, &s.state, &blocks)?;
                        }
                        StreamKind::Scrambler => {
                            let (out, ns) = sys.scramble_stream_feed(&s.name, &s.state, &blocks)?;
                            s.state = ns;
                            s.out_pending = s.out_pending.concat(&out);
                        }
                    }
                }
                s.staged = rest;
                full > 0
            }
            Domain::Software => {
                let engine = soft.get_mut(&s.name).expect("hosted implies kernel");
                engine.set_state(std::mem::take(&mut s.state));
                match s.kind {
                    StreamKind::Crc => engine.absorb(&incoming),
                    StreamKind::Scrambler => {
                        let out = engine.transduce(&incoming);
                        s.out_pending = s.out_pending.concat(&out);
                    }
                }
                s.state = engine.state().clone();
                false
            }
        };
        s.bytes_fed += chunk.len() as u64;
        Ok(used_fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dream::ControlModel;
    use picoga::PicogaParams;
    use resilience::RecoveryPolicy;

    fn service() -> StreamService {
        let rs = ResilientSystem::new(
            PicogaParams::dream(),
            ControlModel::default(),
            RecoveryPolicy::stream_serving(),
        );
        StreamService::new(rs, AdmissionConfig::default())
    }

    #[test]
    fn a_live_checkpoint_encodes_as_its_owned_snapshot() {
        let mut svc = service();
        svc.host_crc(
            "eth",
            CrcSpec::crc32_ethernet(),
            FlowOptions::dream_with_m(32),
        )
        .unwrap();
        let id = svc.open_crc("eth", Priority::Low, 8).unwrap();
        svc.process_chunk(id, b"abcde").unwrap();
        // A queue whose chunks wrap around its ring.
        let s = svc.sessions.get_mut(&id).unwrap();
        s.queue = VecDeque::with_capacity(4);
        for chunk in [&b"x"[..], b"yy", b"zzz"] {
            s.queue.push_back(chunk.to_vec());
        }
        s.queue.pop_front();
        s.queue.pop_front();
        for chunk in [&b"1"[..], b"22", b"333"] {
            s.queue.push_back(chunk.to_vec());
        }
        assert!(!s.queue.as_slices().1.is_empty(), "the ring wraps");
        let s = &svc.sessions[&id];
        let owned = StreamCheckpoint {
            name: s.name.clone(),
            kind: s.kind,
            priority: s.priority,
            deadline: s.deadline,
            plain_domain: false,
            t_digest: svc.hosted["eth"].t_digest,
            state: s.state.clone(),
            staged: s.staged.clone(),
            out_pending: s.out_pending.clone(),
            queued: s.queue.iter().cloned().collect(),
            bytes_fed: s.bytes_fed,
        };
        assert_eq!(svc.checkpoint(id).unwrap(), owned.encode());
    }

    #[test]
    fn a_failed_fabric_feed_leaves_the_session_untouched() {
        let mut svc = service();
        svc.host_crc(
            "eth",
            CrcSpec::crc32_ethernet(),
            FlowOptions::dream_with_m(32),
        )
        .unwrap();
        svc.host_scrambler(
            "wifi",
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(16),
        )
        .unwrap();
        let crc = svc.open_crc("eth", Priority::High, 8).unwrap();
        let scr = svc.open_scrambler("wifi", 0x55, Priority::High, 8).unwrap();
        for id in [crc, scr] {
            // One byte stays staged, short of a block.
            assert!(!svc.process_chunk(id, &[0xA5]).unwrap());
            let s = svc.sessions.get_mut(&id).unwrap();
            assert_eq!(s.staged.len(), 8);
            // A state one bit too wide makes the next fabric feed fail.
            s.state = s.state.resized(s.state.len() + 1);
            s.out_pending = BitVec::from_u64(0b101, 3);
            let snap = |s: &StreamSession| {
                (
                    s.state.clone(),
                    s.staged.clone(),
                    s.out_pending.clone(),
                    s.bytes_fed,
                )
            };
            let before = snap(s);
            let err = svc.process_chunk(id, &[1, 2, 3, 4, 5]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServiceError::System(SystemError::StateWidthMismatch { .. })
                ),
                "{err}"
            );
            assert_eq!(snap(&svc.sessions[&id]), before);
        }
    }
}
