//! The crash storm: whole-cluster power loss and journal recovery
//! under storage chaos.
//!
//! This harness runs chaos-storm-shaped traffic over a cluster whose
//! control plane journals every decision to a simulated disk
//! ([`wal::SharedDisk`]), then — at seeded, chaos-chosen progress
//! points mid-campaign — cuts
//! the power: the entire `Cluster` is dropped on the floor, exactly
//! like a host losing all its shards at once. Nothing survives except
//! the disk, and the disk itself is hostile: the chaos scheduler arms
//! torn tail writes, lost unflushed suffixes, duplicated appends and
//! bit rot in cold (superseded) segments. Recovery is
//! [`wal::Journal::recover`] followed by [`crate::Cluster::recover`],
//! after which the clients reconcile: restored streams rewind to their
//! resume offsets, typed losses restart, and every idempotency token
//! that was durably applied is redelivered and must come back
//! [`crate::OpApply::Duplicate`].
//!
//! The crash storm is the crate's campaign engine with the chaos
//! schedule and the journal turned on: the client loop, the chaos
//! dispatch and the tokenized migrations are the chaos storm's
//! ([`crate::chaos`]); the journal, its lane events and the power
//! losses are this campaign's own fault source.
//!
//! The journal's own frames are checksummed through a fabric lane
//! ([`wal::FabricHasher`]) that the campaign degrades, faults and
//! heals mid-run, so framing the log exercises the paper's recovery
//! ladder: fabric CRC when the lane is healthy, the software kernel
//! otherwise.
//!
//! The gates are absolute: zero oracle digest mismatches, zero
//! unaccounted stream losses, zero double-applied tokens, nothing
//! stranded — plus coverage floors proving the campaign actually
//! crashed, tore, rotted and rode the ladder.

use crate::campaign::{self, Spec};
use crate::chaos::{ChaosConfig, ChaosCounts};
use crate::cluster::{ClusterCounters, ClusterError};
use crate::storm::{ClusterStormConfig, ShardSummary, SpanAudit};
use std::fmt::Write as _;

/// Shape of one crash storm campaign.
#[derive(Debug, Clone)]
pub struct CrashStormConfig {
    /// The underlying traffic shape (seed, shards, streams, admission).
    /// The scripted drain/kill are usually disabled here — lifecycle
    /// violence comes from the crashes.
    pub storm: ClusterStormConfig,
    /// The disturbance schedule, storage faults included
    /// (`storage_prob > 0`).
    pub chaos: ChaosConfig,
    /// Whole-cluster crashes injected mid-campaign. The exact crash
    /// points (completed-stream thresholds) are drawn from the
    /// campaign seed, so every crash lands while traffic is live.
    pub crashes: usize,
    /// Probability that an applied tokenized migration is immediately
    /// redelivered with the same token (must be suppressed).
    pub dup_prob: f64,
    /// Datapath width M of the journal's fabric CRC lane.
    pub hasher_m: usize,
    /// Tick at which the journal's fabric lane is forced onto the
    /// software path (0 = never).
    pub degrade_tick: u64,
    /// Tick at which the degraded lane is healed via the recovery
    /// ladder (0 = never).
    pub heal_tick: u64,
    /// Tick at which an SEU is injected into the journal's fabric lane
    /// (0 = never); the guarded checksum's self-check must catch it.
    pub fault_tick: u64,
}

impl CrashStormConfig {
    /// The CI smoke campaign: 4 shards, 160 streams, three seeded
    /// whole-cluster crashes under the full storage-fault schedule,
    /// with a forced degrade → heal window and a mid-run SEU on the
    /// journal's fabric lane.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        let mut storm = ClusterStormConfig::smoke(seed);
        storm.streams = 160;
        storm.ticks = 150;
        // Lifecycle violence comes from the crashes, not the script.
        storm.drain_tick = 0;
        storm.kill_tick = 0;
        // Health-driven retirement stays off (as in the plain storm):
        // the campaign measures crash recovery, not abandonment.
        storm.abandoned_ticks = 0;
        storm.crc_ms = vec![8, 32];
        let mut chaos = ChaosConfig::smoke();
        chaos.storage_prob = 0.30;
        CrashStormConfig {
            storm,
            chaos,
            crashes: 3,
            dup_prob: 0.5,
            hasher_m: 8,
            degrade_tick: 20,
            heal_tick: 24,
            fault_tick: 60,
        }
    }
}

/// What one crash storm campaign did and found.
#[derive(Debug, Clone)]
pub struct CrashStormReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub planned: u64,
    /// Logical streams completed with a verified digest.
    pub completed: u64,
    /// Typed-loss restarts.
    pub restarts: u64,
    /// Completed streams whose digest differed from the oracle (must
    /// be zero).
    pub mismatches: u64,
    /// Losses the cluster recorded that the harness never observed
    /// (must be zero).
    pub losses_unaccounted: u64,
    /// Losses the harness observed that the cluster no longer records
    /// (must be zero).
    pub losses_forgotten: u64,
    /// Logical streams still unfinished at the drain budget (must be
    /// zero).
    pub unfinished: u64,
    /// Tokenized operations that were double-applied (must be zero) —
    /// immediate duplicates and post-recovery redeliveries combined.
    pub dup_violations: u64,
    /// Tokenized duplicates correctly suppressed.
    pub dups_suppressed: u64,
    /// Whole-cluster crashes injected.
    pub crashes: u64,
    /// Recoveries completed (always equals `crashes`).
    pub recoveries: u64,
    /// Crashes that persisted a partial (torn) suffix.
    pub torn_tails: u64,
    /// Cold durable bytes rotted.
    pub bit_rots: u64,
    /// Appends the disk wrote twice.
    pub dup_appends: u64,
    /// Replays that stopped at a torn tail.
    pub torn_detected: u64,
    /// Corrupt (bit-rotted) frames replay detected and skipped.
    pub corrupt_detected: u64,
    /// Duplicated frames replay detected and skipped.
    pub dup_frames_detected: u64,
    /// Frames accepted across all recoveries.
    pub frames_replayed: u64,
    /// Streams restored from journal anchors across all recoveries.
    pub streams_restored: u64,
    /// Streams recovery had to declare lost (typed, never silent).
    pub streams_lost: u64,
    /// Idempotency tokens restored into the ledger across recoveries.
    pub tokens_restored: u64,
    /// In-flight migrations recovery resolved as committed.
    pub migrations_committed: u64,
    /// In-flight migrations recovery resolved as aborted.
    pub migrations_aborted: u64,
    /// In-doubt (unflushed) tokenized migrations redelivered after
    /// recovery that were suppressed (the original had committed).
    pub in_doubt_suppressed: u64,
    /// In-doubt redeliveries that legitimately re-applied (the
    /// original never became durable).
    pub in_doubt_reapplied: u64,
    /// In-doubt redeliveries that could not run (stream lost/refused).
    pub in_doubt_void: u64,
    /// Journal frames checksummed (append + replay sides).
    pub hasher_frames: u64,
    /// Frames whose CRC took the software path.
    pub hasher_software_frames: u64,
    /// Recovery-ladder outcomes observed by the journal's hashers.
    pub hasher_ladder_runs: u64,
    /// Injection counts by kind.
    pub chaos: ChaosCounts,
    /// Background fabric faults injected into serving shards.
    pub faults_injected: u64,
    /// Ticks simulated (main phase + drain).
    pub ticks_run: u64,
    /// Final-epoch cluster decision counters.
    pub counters: ClusterCounters,
    /// Per-shard end-of-campaign summaries.
    pub shard_lines: Vec<ShardSummary>,
    /// Merged final-epoch deployment-wide metrics snapshot.
    pub metrics: obs::MetricsSnapshot,
    /// Rendered final-epoch cluster event trace.
    pub trace_log: String,
    /// Campaign-wide span audit over every epoch's operations (spans
    /// cut short by a crash are closed as `"crashed"` before adoption).
    pub spans: SpanAudit,
    /// Accumulated span tables of every epoch (crashed epochs closed
    /// out, then adopted), for trace-query consumers like the SLO
    /// report `cluster_campaigns` writes.
    pub tracer: obs::Tracer,
}

impl CrashStormReport {
    /// Crashes may cost work, never correctness: zero mismatches, zero
    /// silent losses, zero double-applies, nothing stranded.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0
            && self.losses_unaccounted == 0
            && self.losses_forgotten == 0
            && self.unfinished == 0
            && self.dup_violations == 0
            && self.spans.clean()
    }

    /// Coverage floors proving the campaign exercised what it claims:
    /// at least three crashes with a torn tail and detected bit rot,
    /// and journal frames that rode both the fabric lane's recovery
    /// ladder and the software fallback.
    #[must_use]
    pub fn exercised(&self) -> bool {
        self.crashes >= 3
            && self.recoveries == self.crashes
            && self.torn_tails >= 1
            && self.bit_rots >= 1
            && self.corrupt_detected >= 1
            && self.hasher_ladder_runs >= 1
            && self.hasher_software_frames >= 1
            && self.streams_restored >= 1
            && self.tokens_restored >= 1
    }

    /// Deterministic text rendering — byte-identical across runs with
    /// the same seed.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let c = &self.counters;
        let ch = &self.chaos;
        let _ = writeln!(s, "crash storm   seed={} shards={}", self.seed, self.shards);
        let _ = writeln!(
            s,
            "streams       planned={} completed={} restarts={} unfinished={}",
            self.planned, self.completed, self.restarts, self.unfinished
        );
        let _ = writeln!(
            s,
            "correctness   mismatches={} silent_losses={} forgotten_losses={} dup_violations={} \
             dups_suppressed={}",
            self.mismatches,
            self.losses_unaccounted,
            self.losses_forgotten,
            self.dup_violations,
            self.dups_suppressed
        );
        let _ = writeln!(
            s,
            "crashes       injected={} recovered={} torn_tails={} bit_rots={} dup_appends={}",
            self.crashes, self.recoveries, self.torn_tails, self.bit_rots, self.dup_appends
        );
        let _ = writeln!(
            s,
            "replay        frames_ok={} torn_detected={} corrupt_detected={} dup_frames={}",
            self.frames_replayed,
            self.torn_detected,
            self.corrupt_detected,
            self.dup_frames_detected
        );
        let _ = writeln!(
            s,
            "recovery      restored={} lost={} tokens={} committed={} aborted={}",
            self.streams_restored,
            self.streams_lost,
            self.tokens_restored,
            self.migrations_committed,
            self.migrations_aborted
        );
        let _ = writeln!(
            s,
            "in_doubt      suppressed={} reapplied={} void={}",
            self.in_doubt_suppressed, self.in_doubt_reapplied, self.in_doubt_void
        );
        let _ = writeln!(
            s,
            "hasher        frames={} software={} ladder_runs={}",
            self.hasher_frames, self.hasher_software_frames, self.hasher_ladder_runs
        );
        let _ = writeln!(
            s,
            "chaos         slowdowns={} corrupt={} truncate={} flaps={} adm_storms={} storage={}",
            ch.slowdowns,
            ch.transfers_corrupted,
            ch.transfers_truncated,
            ch.fault_flaps,
            ch.admission_storms,
            ch.storage_torn_tails
                + ch.storage_bit_rots
                + ch.storage_lost_suffixes
                + ch.storage_dup_appends
        );
        let _ = writeln!(
            s,
            "fleet         migrations={} failovers={} faults_injected={} sweeps_stored={}",
            c.migrations, c.failovers, self.faults_injected, c.checkpoints_stored
        );
        let _ = writeln!(
            s,
            "spans         total={} open={} misuse={} failovers_unrooted={}",
            self.spans.total, self.spans.open, self.spans.misuse, self.spans.failovers_unrooted
        );
        for line in &self.shard_lines {
            let _ = writeln!(
                s,
                "shard {:<8} state={:<8} opened={} completed={} chunks={}",
                line.name, line.state, line.opened, line.completed, line.chunks
            );
        }
        let _ = writeln!(s, "ticks         {}", self.ticks_run);
        let _ = writeln!(
            s,
            "verdict       {}",
            if self.passed() && self.exercised() {
                "PASS"
            } else {
                "FAIL"
            }
        );
        s
    }
}

/// Runs one crash storm campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors; everything the
/// crashes and storage faults can cause (typed losses, parked or
/// rewound streams, refused operations) is handled and counted.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities or the journal's
/// fabric lane cannot be hosted (a capacity problem, not a fault).
pub fn run_crash_storm(cfg: &CrashStormConfig) -> Result<CrashStormReport, ClusterError> {
    let spec = Spec {
        chaos: Some((cfg.chaos, cfg.dup_prob)),
        journal: Some(cfg),
        ..Spec::plain(&cfg.storm)
    };
    let (r, x) = campaign::run(&spec)?;
    let t = x.crash;
    Ok(CrashStormReport {
        seed: r.seed,
        shards: r.shards,
        planned: r.planned,
        completed: r.completed,
        restarts: r.restarts,
        mismatches: r.mismatches,
        losses_unaccounted: r.losses_unaccounted,
        losses_forgotten: r.losses_forgotten,
        unfinished: r.unfinished,
        dup_violations: x.dup_violations,
        dups_suppressed: x.dups_suppressed,
        crashes: t.crashes,
        recoveries: t.recoveries,
        torn_tails: t.disk.torn_tails,
        bit_rots: t.disk.rotted_bytes,
        dup_appends: t.disk.duplicated_appends,
        torn_detected: t.torn_detected,
        corrupt_detected: t.corrupt_detected,
        dup_frames_detected: t.dup_frames_detected,
        frames_replayed: t.frames_replayed,
        streams_restored: t.streams_restored,
        streams_lost: t.streams_lost,
        tokens_restored: t.tokens_restored,
        migrations_committed: t.migrations_committed,
        migrations_aborted: t.migrations_aborted,
        in_doubt_suppressed: t.in_doubt_suppressed,
        in_doubt_reapplied: t.in_doubt_reapplied,
        in_doubt_void: t.in_doubt_void,
        hasher_frames: t.hasher.frames,
        hasher_software_frames: t.hasher.software_frames,
        hasher_ladder_runs: t.hasher.ladder_runs,
        chaos: x.chaos,
        faults_injected: r.faults_injected,
        ticks_run: r.ticks_run,
        counters: r.counters,
        shard_lines: r.shard_lines,
        metrics: r.metrics,
        trace_log: r.trace_log,
        spans: r.spans,
        tracer: r.tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_crash_storm_survives_and_is_deterministic() {
        let mut cfg = CrashStormConfig::smoke(2008);
        cfg.storm.streams = 48;
        cfg.storm.ticks = 90;
        cfg.storm.crc_ms = vec![8];
        cfg.storm.scrambler_m = 16;
        cfg.degrade_tick = 10;
        cfg.heal_tick = 13;
        cfg.fault_tick = 16;
        let a = run_crash_storm(&cfg).unwrap();
        assert!(a.passed(), "crash storm must pass:\n{}", a.render());
        assert!(a.crashes >= 3, "crashes happened:\n{}", a.render());
        assert!(a.recoveries == a.crashes);
        assert!(
            a.ticks_run > cfg.fault_tick,
            "the SEU tick is inside the run"
        );
        assert!(
            a.hasher_software_frames >= 1 && a.hasher_ladder_runs >= 2,
            "the degrade, the heal and the SEU each reached the lane:\n{}",
            a.render()
        );
        let b = run_crash_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
