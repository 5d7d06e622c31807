//! Cycle-stamped structured event tracing over a bounded ring buffer.
//!
//! Events carry the fabric's *simulated* cycle count as their timestamp —
//! never a wall clock — so two runs with the same seed produce
//! byte-identical traces. A monotonically increasing sequence number keeps
//! global ordering even after the ring drops old events.
//!
//! An event is kept small (at most 80 bytes), because every fabric, shard
//! and cluster holds a ring of thousands: its sequence number follows from
//! its place in the ring, its lane is an index into the tracer's interned
//! names, and the two payloads wider than 32 bytes are boxed.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::num::NonZeroU64;
use std::sync::Arc;

use crate::json_escape;
use crate::span::{SpanCtx, SpanId, SpanRecord};

/// What happened. Variants mirror the decision points of the simulated
/// stack: fabric reconfiguration, configuration-cache behaviour, the
/// scrub/probe/recovery ladder, and stream-service admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A configuration bitstream was written into a context slot.
    ContextLoad {
        /// Destination context slot.
        slot: usize,
    },
    /// The active context changed (pipeline break, 2-cycle switch).
    ContextSwitch {
        /// Newly active context slot.
        slot: usize,
    },
    /// A personality was already resident — configuration-cache hit.
    ContextHit {
        /// Slot that was reused.
        slot: usize,
    },
    /// A resident personality was evicted to make room.
    ContextEvict {
        /// Slot whose occupant was displaced.
        slot: usize,
    },
    /// A configuration scrub pass completed.
    ScrubRun {
        /// Corrupted contexts found by this pass.
        findings: u64,
    },
    /// A self-check probe (checksum or datapath) completed.
    ProbeRun {
        /// Whether the probe passed.
        ok: bool,
    },
    /// A fault was detected (scrub finding or failed probe).
    Detection,
    /// The recovery ladder started for a lane.
    RecoveryStart,
    /// The recovery ladder finished.
    RecoveryOutcome {
        /// Ladder rung that resolved it: `healed_reload`,
        /// `healed_resynthesis`, `software_fallback`, `checkpoint_park`
        /// or `unrecovered`.
        outcome: &'static str,
    },
    /// A stream was admitted and a session opened.
    StreamAdmit,
    /// A stream or chunk was shed by admission control.
    StreamShed {
        /// Which gate rejected it (e.g. `overload`, `capacity`,
        /// `admission`, `queue_full`, `global_full`).
        reason: &'static str,
    },
    /// A session was parked (checkpointed out of the active set).
    StreamPark {
        /// Why: `idle`, `fault` or `explicit`.
        reason: &'static str,
    },
    /// A parked session was resumed.
    StreamResume,
    /// A session finished and delivered its digest.
    StreamComplete,
    /// A session was migrated to the software CRC path.
    Degrade,
    /// The overload ladder moved.
    LevelTransition {
        /// Level before the move.
        from: &'static str,
        /// Level after the move.
        to: &'static str,
    },
    /// A batch was rolled back and re-run after a mid-batch fault.
    BatchRollback {
        /// Streams whose chunks were re-queued.
        streams: u64,
    },
    /// A session was checkpointed out of this node for cross-shard
    /// migration (the snapshot leaves with the caller).
    StreamDetach,
    /// Cluster-level: a shard changed lifecycle state.
    ShardState(Box<ShardTransition>),
    /// Cluster-level: a stream migrated between shards (checkpoint →
    /// transfer → restore, digest-verified).
    StreamMigrate {
        /// Source shard index.
        from_shard: u64,
        /// Target shard index.
        to_shard: u64,
    },
    /// Cluster-level: a stream was replayed from its last known
    /// checkpoint onto a survivor after its shard died.
    StreamFailover {
        /// The dead shard's index.
        from_shard: u64,
        /// The surviving shard now serving the stream.
        to_shard: u64,
    },
    /// Cluster-level: a stream on a dead shard could not be recovered
    /// and was declared lost (typed, never silent).
    StreamLost {
        /// The dead shard's index.
        shard: u64,
        /// Why: `no_checkpoint` or `incompatible`.
        reason: &'static str,
    },
    /// Chaos-level: the chaos scheduler injected a typed disturbance
    /// (slowdown, transfer corruption, byzantine probe, …).
    ChaosInject {
        /// Which disturbance (e.g. `slowdown`, `transfer_corrupt`,
        /// `transfer_truncate`, `byzantine_health`, `flapping_fault`,
        /// `admission_storm`).
        what: &'static str,
    },
    /// Cluster-level: a shard's circuit breaker changed state.
    BreakerState {
        /// State before (`closed`, `open`, `half_open`).
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// Cluster-level: a tokenized control-plane operation is being
    /// retried after a transient failure, with a deterministic backoff.
    OpRetry {
        /// 1-based attempt number about to run.
        attempt: u64,
        /// Backoff delay (ticks) charged before this attempt.
        delay: u64,
    },
    /// Cluster-level: the load rebalancer ran and moved streams.
    RebalanceRun {
        /// Streams migrated hottest→coldest this pass.
        moved: u64,
    },
    /// Cluster-level: a health-monitor death verdict was vetoed by a
    /// direct confirmation probe (byzantine-probe defense).
    RetireVeto,
    /// Cluster-level: a drained shard was rebuilt and reopened
    /// (rolling-upgrade rehost).
    ShardReopen,
    /// Cluster-level: a rolling upgrade advanced a stage.
    UpgradeStage {
        /// The stage entered (`drain`, `rehost`, `done`).
        stage: &'static str,
    },
    /// A causal span opened (see [`crate::SpanRecord`]). The event's
    /// `span` field carries the new span's id; the span table holds the
    /// authoritative record.
    SpanBegin {
        /// The span's operation label.
        op: &'static str,
    },
    /// A causal span closed with an outcome.
    SpanEnd {
        /// The span's operation label.
        op: &'static str,
        /// Outcome recorded at end time (`ok`, `aborted`, `lost`, …).
        outcome: &'static str,
    },
    /// Cluster-level: the control plane was rebuilt from its
    /// write-ahead log after a whole-cluster crash.
    WalRecovered(Box<WalRecovery>),
}

/// The payload of [`EventKind::ShardState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTransition {
    /// The shard's index in the cluster.
    pub shard: u64,
    /// State before (`active`, `draining`, `down`).
    pub from: &'static str,
    /// State after.
    pub to: &'static str,
}

/// The payload of [`EventKind::WalRecovered`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Complete frames the replay accepted.
    pub frames: u64,
    /// CRC-rejected frames the replay skipped.
    pub corrupt: u64,
    /// Whether the durable log ended in a torn (truncated) frame.
    pub torn_tail: bool,
    /// Streams restored to a serving shard.
    pub restored: u64,
    /// Streams declared lost (typed, never silent).
    pub lost: u64,
}

impl EventKind {
    /// [`EventKind::ShardState`] for shard `shard` moving `from` → `to`.
    #[must_use]
    pub fn shard_state(shard: u64, from: &'static str, to: &'static str) -> Self {
        EventKind::ShardState(Box::new(ShardTransition { shard, from, to }))
    }

    /// Stable, machine-friendly label for the event type.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::ContextLoad { .. } => "context_load",
            EventKind::ContextSwitch { .. } => "context_switch",
            EventKind::ContextHit { .. } => "context_hit",
            EventKind::ContextEvict { .. } => "context_evict",
            EventKind::ScrubRun { .. } => "scrub_run",
            EventKind::ProbeRun { .. } => "probe_run",
            EventKind::Detection => "detection",
            EventKind::RecoveryStart => "recovery_start",
            EventKind::RecoveryOutcome { .. } => "recovery_outcome",
            EventKind::StreamAdmit => "stream_admit",
            EventKind::StreamShed { .. } => "stream_shed",
            EventKind::StreamPark { .. } => "stream_park",
            EventKind::StreamResume => "stream_resume",
            EventKind::StreamComplete => "stream_complete",
            EventKind::Degrade => "degrade",
            EventKind::LevelTransition { .. } => "level_transition",
            EventKind::BatchRollback { .. } => "batch_rollback",
            EventKind::StreamDetach => "stream_detach",
            EventKind::ShardState(_) => "shard_state",
            EventKind::StreamMigrate { .. } => "stream_migrate",
            EventKind::StreamFailover { .. } => "stream_failover",
            EventKind::StreamLost { .. } => "stream_lost",
            EventKind::ChaosInject { .. } => "chaos_inject",
            EventKind::BreakerState { .. } => "breaker_state",
            EventKind::OpRetry { .. } => "op_retry",
            EventKind::RebalanceRun { .. } => "rebalance_run",
            EventKind::RetireVeto => "retire_veto",
            EventKind::ShardReopen => "shard_reopen",
            EventKind::UpgradeStage { .. } => "upgrade_stage",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::WalRecovered(_) => "wal_recovered",
        }
    }

    /// The variant's payload as deterministic `(key, value)` pairs.
    #[must_use]
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        match self {
            EventKind::ContextLoad { slot }
            | EventKind::ContextSwitch { slot }
            | EventKind::ContextHit { slot }
            | EventKind::ContextEvict { slot } => vec![("slot", slot.to_string())],
            EventKind::ScrubRun { findings } => vec![("findings", findings.to_string())],
            EventKind::ProbeRun { ok } => vec![("ok", ok.to_string())],
            EventKind::RecoveryOutcome { outcome } => vec![("outcome", (*outcome).to_string())],
            EventKind::StreamShed { reason } | EventKind::StreamPark { reason } => {
                vec![("reason", (*reason).to_string())]
            }
            EventKind::LevelTransition { from, to } => {
                vec![("from", (*from).to_string()), ("to", (*to).to_string())]
            }
            EventKind::BatchRollback { streams } => vec![("streams", streams.to_string())],
            EventKind::ShardState(t) => vec![
                ("shard", t.shard.to_string()),
                ("from", t.from.to_string()),
                ("to", t.to.to_string()),
            ],
            EventKind::StreamMigrate {
                from_shard,
                to_shard,
            }
            | EventKind::StreamFailover {
                from_shard,
                to_shard,
            } => vec![
                ("from_shard", from_shard.to_string()),
                ("to_shard", to_shard.to_string()),
            ],
            EventKind::StreamLost { shard, reason } => vec![
                ("shard", shard.to_string()),
                ("reason", (*reason).to_string()),
            ],
            EventKind::ChaosInject { what } => vec![("what", (*what).to_string())],
            EventKind::BreakerState { from, to } => {
                vec![("from", (*from).to_string()), ("to", (*to).to_string())]
            }
            EventKind::OpRetry { attempt, delay } => vec![
                ("attempt", attempt.to_string()),
                ("delay", delay.to_string()),
            ],
            EventKind::RebalanceRun { moved } => vec![("moved", moved.to_string())],
            EventKind::UpgradeStage { stage } => vec![("stage", (*stage).to_string())],
            EventKind::SpanBegin { op } => vec![("op", (*op).to_string())],
            EventKind::SpanEnd { op, outcome } => vec![
                ("op", (*op).to_string()),
                ("outcome", (*outcome).to_string()),
            ],
            EventKind::WalRecovered(r) => vec![
                ("frames", r.frames.to_string()),
                ("corrupt", r.corrupt.to_string()),
                ("torn_tail", r.torn_tail.to_string()),
                ("restored", r.restored.to_string()),
                ("lost", r.lost.to_string()),
            ],
            EventKind::Detection
            | EventKind::RecoveryStart
            | EventKind::StreamAdmit
            | EventKind::StreamResume
            | EventKind::StreamComplete
            | EventKind::Degrade
            | EventKind::StreamDetach
            | EventKind::RetireVeto
            | EventKind::ShardReopen => Vec::new(),
        }
    }
}

/// One recorded event. Its sequence number and lane name live in the
/// [`Tracer`] that holds it (see [`Tracer::events_with_seq`] and
/// [`Tracer::lane_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated fabric cycle at record time.
    pub cycle: u64,
    /// Correlated stream id, when the event belongs to a session.
    pub stream: Option<u64>,
    /// Correlated personality/lane name, when known: an index into the
    /// tracer's interned names.
    lane: Option<u32>,
    /// Enclosing causal span's id, when the event happened inside one
    /// (span ids start at 1).
    span: Option<NonZeroU64>,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The enclosing causal span's raw id, when the event happened
    /// inside one (see [`crate::SpanId`]).
    #[must_use]
    pub fn span(&self) -> Option<u64> {
        self.span.map(NonZeroU64::get)
    }
}

/// Bounded ring buffer of [`TraceEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracer {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<TraceEvent>,
    spans: Vec<SpanRecord>,
    span_misuse: u64,
    /// Every lane name recorded so far, once each; an event holds its
    /// index.
    lanes: Vec<Arc<str>>,
    /// Index of each name in `lanes`.
    lane_ids: HashMap<Arc<str>, u32>,
    /// The lane interned last: runs of events on one lane skip the map.
    last_lane: Option<u32>,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::new(),
            spans: Vec::new(),
            span_misuse: 0,
            lanes: Vec::new(),
            lane_ids: HashMap::new(),
            last_lane: None,
        }
    }

    /// Records an event stamped with simulated `cycle`, with optional
    /// stream/personality correlation ids. Drops the oldest event when
    /// full.
    pub fn record(&mut self, cycle: u64, stream: Option<u64>, lane: Option<&str>, kind: EventKind) {
        self.push(cycle, None, stream, lane, kind);
    }

    /// Records an event inside causal span `span` (same drop policy as
    /// [`Tracer::record`]).
    pub fn record_in_span(
        &mut self,
        cycle: u64,
        span: SpanId,
        stream: Option<u64>,
        lane: Option<&str>,
        kind: EventKind,
    ) {
        self.push(cycle, Some(span.raw()), stream, lane, kind);
    }

    fn push(
        &mut self,
        cycle: u64,
        span: Option<u64>,
        stream: Option<u64>,
        lane: Option<&str>,
        kind: EventKind,
    ) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped = self.dropped.saturating_add(1);
        }
        let lane = lane.map(|l| self.intern(l));
        self.buf.push_back(TraceEvent {
            cycle,
            stream,
            lane,
            span: span.and_then(NonZeroU64::new),
            kind,
        });
        self.next_seq = self.next_seq.saturating_add(1);
    }

    /// The index of `lane` among the interned names, added on its first
    /// use.
    fn intern(&mut self, lane: &str) -> u32 {
        if let Some(i) = self.last_lane.filter(|&i| *self.lanes[i as usize] == *lane) {
            return i;
        }
        let i = match self.lane_ids.get(lane) {
            Some(&i) => i,
            None => {
                let i = u32::try_from(self.lanes.len()).expect("lane count fits u32");
                let name: Arc<str> = Arc::from(lane);
                self.lanes.push(Arc::clone(&name));
                self.lane_ids.insert(name, i);
                i
            }
        };
        self.last_lane = Some(i);
        i
    }

    /// The lane name `e` is correlated to, when it has one.
    #[must_use]
    pub fn lane_of(&self, e: &TraceEvent) -> Option<&str> {
        e.lane.map(|i| &*self.lanes[i as usize])
    }

    /// Opens a causal span for operation `op` at simulated `cycle` with
    /// the given correlation context, records a
    /// [`EventKind::SpanBegin`] event inside it, and returns its id.
    ///
    /// The span table is a plain `Vec` outside the event ring: spans
    /// are never dropped, so open-span accounting survives ring wraps.
    pub fn begin_span(&mut self, cycle: u64, op: &'static str, ctx: SpanCtx) -> SpanId {
        let id = SpanId::from_raw(self.spans.len() as u64 + 1);
        self.spans.push(SpanRecord {
            id,
            parent: ctx.parent,
            op,
            shard: ctx.shard,
            stream: ctx.stream,
            token: ctx.token,
            retries: 0,
            begin_cycle: cycle,
            end_cycle: None,
            outcome: None,
        });
        self.push(
            cycle,
            Some(id.raw()),
            ctx.stream,
            None,
            EventKind::SpanBegin { op },
        );
        id
    }

    /// Closes span `id` at simulated `cycle` with `outcome`, recording
    /// a [`EventKind::SpanEnd`] event inside it. Ending an unknown or
    /// already-closed span is counted in [`Tracer::span_misuse`] and
    /// otherwise ignored — never a panic in the serving path.
    pub fn end_span(&mut self, cycle: u64, id: SpanId, outcome: &'static str) {
        let Some(rec) = self.span_mut(id) else {
            self.span_misuse = self.span_misuse.saturating_add(1);
            return;
        };
        if rec.end_cycle.is_some() {
            self.span_misuse = self.span_misuse.saturating_add(1);
            return;
        }
        rec.end_cycle = Some(cycle.max(rec.begin_cycle));
        rec.outcome = Some(outcome);
        let (op, stream) = (rec.op, rec.stream);
        self.push(
            cycle,
            Some(id.raw()),
            stream,
            None,
            EventKind::SpanEnd { op, outcome },
        );
    }

    /// Charges one retry attempt to span `id` (unknown ids are counted
    /// as misuse and ignored).
    pub fn span_retry(&mut self, id: SpanId) {
        if let Some(rec) = self.span_mut(id) {
            rec.retries = rec.retries.saturating_add(1);
        } else {
            self.span_misuse = self.span_misuse.saturating_add(1);
        }
    }

    fn span_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        let idx = id.raw().checked_sub(1)? as usize;
        self.spans.get_mut(idx)
    }

    /// The span table, in id order (id `n` is at index `n - 1`).
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Looks one span up by id.
    #[must_use]
    pub fn span(&self, id: SpanId) -> Option<&SpanRecord> {
        let idx = id.raw().checked_sub(1)? as usize;
        self.spans.get(idx)
    }

    /// Number of spans begun but not yet ended. A steady state of 0 at
    /// campaign end is the open-span-leak gate.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.spans.iter().filter(|s| s.is_open()).count()
    }

    /// Misuse count: `end_span`/`span_retry` calls against unknown or
    /// already-closed spans.
    #[must_use]
    pub fn span_misuse(&self) -> u64 {
        self.span_misuse
    }

    /// Ends every still-open span at `cycle` with `outcome`, returning
    /// how many were closed. For harnesses that simulate a power loss:
    /// the crash is what truthfully ended those operations, so the
    /// crashed epoch's span table is closed out before being adopted
    /// into the campaign accumulator.
    pub fn close_open_spans(&mut self, cycle: u64, outcome: &'static str) -> usize {
        let open: Vec<SpanId> = self
            .spans
            .iter()
            .filter(|s| s.is_open())
            .map(|s| s.id)
            .collect();
        for id in &open {
            self.end_span(cycle, *id, outcome);
        }
        open.len()
    }

    /// Moves another tracer's span table into this one, rebasing ids
    /// (and parent links) past the spans already held, and merging its
    /// misuse count. How a multi-epoch campaign accumulates the span
    /// tables of per-epoch tracers into one queryable table.
    pub fn adopt_spans(&mut self, other: &Tracer) {
        let base = self.spans.len() as u64;
        for s in &other.spans {
            let mut s = s.clone();
            s.id = SpanId::from_raw(s.id.raw() + base);
            s.parent = s.parent.map(|p| SpanId::from_raw(p.raw() + base));
            self.spans.push(s);
        }
        self.span_misuse = self.span_misuse.saturating_add(other.span_misuse);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// The retained events with their global sequence numbers, oldest
    /// first. The ring holds the last events recorded, so the numbers
    /// are consecutive and end just before [`Tracer::recorded`].
    pub fn events_with_seq(&self) -> impl Iterator<Item = (u64, &TraceEvent)> {
        let first = self.next_seq - self.buf.len() as u64;
        (first..).zip(self.buf.iter())
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Discards all retained events (sequence numbering continues).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Deterministic one-line-per-event text rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.events_with_seq() {
            let _ = write!(out, "seq={seq} cycle={} kind={}", e.cycle, e.kind.label());
            if let Some(s) = e.stream {
                let _ = write!(out, " stream={s}");
            }
            if let Some(lane) = self.lane_of(e) {
                let _ = write!(out, " lane={lane}");
            }
            if let Some(span) = e.span() {
                let _ = write!(out, " span={span}");
            }
            for (k, v) in e.kind.fields() {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// JSON-lines export, one event object per line, oldest first.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.events_with_seq() {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"cycle\":{},\"kind\":\"{}\"",
                e.cycle,
                e.kind.label()
            );
            if let Some(s) = e.stream {
                let _ = write!(out, ",\"stream\":{s}");
            }
            if let Some(lane) = self.lane_of(e) {
                let _ = write!(out, ",\"lane\":\"{}\"", json_escape(lane));
            }
            if let Some(span) = e.span() {
                let _ = write!(out, ",\"span\":{span}");
            }
            for (k, v) in e.kind.fields() {
                // Numeric payloads stay numeric; everything else is quoted.
                if v.chars().all(|c| c.is_ascii_digit()) {
                    let _ = write!(out, ",\"{k}\":{v}");
                } else {
                    let _ = write!(out, ",\"{k}\":\"{}\"", json_escape(&v));
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{EventKind, SpanCtx, SpanId, TraceEvent, Tracer};

    #[test]
    fn ring_drops_oldest_and_keeps_sequence() {
        let mut t = Tracer::new(2);
        t.record(1, None, None, EventKind::Detection);
        t.record(2, None, None, EventKind::StreamAdmit);
        t.record(3, Some(7), Some("eth32"), EventKind::StreamComplete);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.recorded(), 3);
        let seqs: Vec<u64> = t.events_with_seq().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        t.clear();
        t.record(4, None, Some("eth8"), EventKind::Detection);
        let (seq, e) = t.events_with_seq().next().unwrap();
        assert_eq!((seq, t.lane_of(e)), (3, Some("eth8")));
    }

    #[test]
    fn events_stay_small() {
        assert!(std::mem::size_of::<TraceEvent>() <= 80);
    }

    #[test]
    fn lanes_are_interned_once_and_resolved() {
        let mut t = Tracer::new(8);
        for lane in ["a", "b", "a", "a", "c", "b"] {
            t.record(1, None, Some(lane), EventKind::StreamAdmit);
        }
        t.record(1, None, None, EventKind::StreamAdmit);
        let lanes: Vec<Option<&str>> = t.events().map(|e| t.lane_of(e)).collect();
        assert_eq!(
            lanes,
            [
                Some("a"),
                Some("b"),
                Some("a"),
                Some("a"),
                Some("c"),
                Some("b"),
                None
            ]
        );
        assert_eq!(t.lanes.len(), 3);
    }

    #[test]
    fn render_is_deterministic_and_structured() {
        let mut t = Tracer::new(8);
        t.record(
            10,
            Some(1),
            Some("eth32"),
            EventKind::StreamShed { reason: "overload" },
        );
        t.record(
            12,
            None,
            None,
            EventKind::LevelTransition {
                from: "Normal",
                to: "RejectNew",
            },
        );
        let r = t.render();
        assert!(r.contains("seq=0 cycle=10 kind=stream_shed stream=1 lane=eth32 reason=overload"));
        assert!(r.contains("from=Normal to=RejectNew"));
        assert_eq!(r, t.clone().render());
        let j = t.to_json_lines();
        assert!(j.contains("\"kind\":\"stream_shed\""));
        assert!(j.contains("\"stream\":1"));
        assert!(j.contains("\"reason\":\"overload\""));
    }

    #[test]
    fn spans_nest_close_and_survive_ring_wrap() {
        let mut t = Tracer::new(2);
        let root = t.begin_span(10, "shard_down", SpanCtx::shard(1));
        let child = t.begin_span(11, "failover_stream", SpanCtx::child(root).with_stream(7));
        assert_eq!(t.open_spans(), 2);
        t.end_span(14, child, "ok");
        t.end_span(20, root, "ok");
        // The 2-slot ring has long since dropped the begin events…
        assert!(t.dropped() > 0);
        // …but the span table is complete and closed.
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.spans().len(), 2);
        let c = t.span(child).unwrap();
        assert_eq!(c.parent, Some(root));
        assert_eq!(c.stream, Some(7));
        assert_eq!(c.duration(), Some(3));
        assert_eq!(c.outcome, Some("ok"));
        assert_eq!(t.span_misuse(), 0);
    }

    #[test]
    fn span_misuse_is_counted_not_panicked() {
        let mut t = Tracer::new(8);
        let s = t.begin_span(1, "migrate", SpanCtx::default());
        t.end_span(2, s, "ok");
        t.end_span(3, s, "ok"); // double end
        t.end_span(3, SpanId::from_raw(99), "ok"); // unknown id
        t.span_retry(SpanId::from_raw(99)); // unknown id
        assert_eq!(t.span_misuse(), 3);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn span_events_are_rendered_with_span_field() {
        let mut t = Tracer::new(8);
        let s = t.begin_span(5, "migrate", SpanCtx::shard(0).with_stream(3));
        t.record_in_span(
            6,
            s,
            Some(3),
            None,
            EventKind::OpRetry {
                attempt: 2,
                delay: 4,
            },
        );
        t.span_retry(s);
        t.end_span(9, s, "ok");
        let r = t.render();
        assert!(r.contains("kind=span_begin stream=3 span=1 op=migrate"));
        assert!(r.contains("kind=op_retry stream=3 span=1 attempt=2 delay=4"));
        assert!(r.contains("kind=span_end stream=3 span=1 op=migrate outcome=ok"));
        let j = t.to_json_lines();
        assert!(j.contains("\"span\":1"));
        assert!(j.contains("\"outcome\":\"ok\""));
        assert_eq!(t.span(s).unwrap().retries, 1);
    }

    #[test]
    fn adopt_spans_rebases_ids_and_parents() {
        let mut a = Tracer::new(8);
        let ra = a.begin_span(1, "wal_recover", SpanCtx::default());
        a.end_span(2, ra, "ok");
        let mut b = Tracer::new(8);
        let rb = b.begin_span(3, "shard_down", SpanCtx::shard(0));
        let cb = b.begin_span(4, "failover_stream", SpanCtx::child(rb));
        b.end_span(5, cb, "ok");
        b.end_span(6, rb, "ok");
        a.adopt_spans(&b);
        assert_eq!(a.spans().len(), 3);
        let adopted_child = &a.spans()[2];
        assert_eq!(adopted_child.op, "failover_stream");
        assert_eq!(adopted_child.id, SpanId::from_raw(3));
        assert_eq!(adopted_child.parent, Some(SpanId::from_raw(2)));
        assert_eq!(a.open_spans(), 0);
    }

    #[test]
    fn end_cycle_never_precedes_begin() {
        let mut t = Tracer::new(8);
        let s = t.begin_span(10, "probe", SpanCtx::default());
        t.end_span(4, s, "ok"); // clock misuse: clamped, not negative
        assert_eq!(t.span(s).unwrap().duration(), Some(0));
    }
}
