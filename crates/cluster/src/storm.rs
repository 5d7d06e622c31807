//! Seeded cluster-wide stress harness ("cluster storm").
//!
//! One deterministic simulation drives every robustness flow the
//! cluster owns, at once: staggered arrivals placed across shards,
//! random per-shard fabric fault injection, random **live migrations**
//! under traffic, a planned **shard drain** mid-run, a forced
//! **whole-shard kill** mid-run (power loss: the shard's state is
//! frozen, survivors replay from swept checkpoints), clients rewinding
//! to their resume offsets, and typed-loss restarts. Every completed
//! stream's digest is compared against a pure-software oracle — the
//! campaign passes only with **zero** mismatches and zero silent
//! losses.
//!
//! The storm is the crate's campaign engine with only its baseline
//! fault sources on — background fabric faults and the scripted drain
//! and kill; the chaos ([`crate::chaos`]) and crash ([`crate::crash`])
//! storms run the same client loop with more sources turned on.
//!
//! All randomness flows from one [`resilience::rng::SplitMix64`]; every
//! cluster and service structure iterates deterministically; two runs
//! with the same seed render byte-identical reports (CI asserts this
//! with `cmp`).

use crate::campaign::{self, Spec};
use crate::cluster::{ClusterCounters, ClusterError};
use std::fmt::Write as _;
use stream::AdmissionConfig;

/// Shape of one cluster storm campaign.
#[derive(Debug, Clone)]
pub struct ClusterStormConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub streams: usize,
    /// Ticks of the main phase (a bounded drain phase follows).
    pub ticks: u64,
    /// Chunk sizes drawn uniformly from this inclusive range (bytes).
    pub chunk_bytes: (usize, usize),
    /// Chunks per stream drawn uniformly from this inclusive range.
    pub chunks_per_stream: (usize, usize),
    /// Per-tick, per-shard probability of injecting a fabric fault.
    pub fault_prob: f64,
    /// New streams offered per tick.
    pub base_arrivals: usize,
    /// Per-tick probability of live-migrating one random stream to a
    /// random active shard (exercises migration under traffic).
    pub migrate_prob: f64,
    /// Tick at which `drain_shard` starts draining (0 = never).
    pub drain_tick: u64,
    /// The shard the planned drain empties.
    pub drain_shard: usize,
    /// Tick at which `kill_shard` is killed outright (0 = never).
    pub kill_tick: u64,
    /// The shard the forced kill takes down.
    pub kill_shard: usize,
    /// Cluster checkpoint-sweep interval (ticks).
    pub checkpoint_interval: u64,
    /// Consecutive fabric-abandoned ticks before the health monitor
    /// retires a shard (see [`crate::HealthPolicy`]).
    pub abandoned_ticks: u32,
    /// Look-ahead factors for the hosted CRC-32 personalities.
    pub crc_ms: Vec<usize>,
    /// Look-ahead factor for the 802.11 scrambler personality (0 =
    /// none).
    pub scrambler_m: usize,
    /// Admission configuration for every shard.
    pub admission: AdmissionConfig,
}

impl ClusterStormConfig {
    /// The CI smoke campaign: 480 streams over 4 shards, with a
    /// planned drain of shard 1 and a forced kill of shard 0 mid-run.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        ClusterStormConfig {
            seed,
            shards: 4,
            streams: 480,
            ticks: 240,
            chunk_bytes: (5, 32),
            chunks_per_stream: (2, 6),
            fault_prob: 0.02,
            base_arrivals: 3,
            migrate_prob: 0.25,
            drain_tick: 70,
            drain_shard: 1,
            kill_tick: 120,
            kill_shard: 0,
            checkpoint_interval: 3,
            // Health-driven retirement is off in the smoke: fallback is
            // terminal per lane, so under sustained fault injection any
            // threshold eventually retires both unscripted shards and
            // the scripted kill then zeroes out the cluster. The
            // abandonment path is pinned by cluster unit tests instead.
            abandoned_ticks: 0,
            crc_ms: vec![8, 32],
            scrambler_m: 16,
            admission: AdmissionConfig {
                max_streams: 96,
                global_queue_bytes: 4096,
                bucket_capacity: 32,
                bucket_refill: 12,
                pump_budget_chunks: 12,
                ..AdmissionConfig::default()
            },
        }
    }
}

/// Per-shard end-of-campaign summary line.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The shard's name.
    pub name: String,
    /// Final lifecycle state label.
    pub state: &'static str,
    /// Streams the shard opened over the campaign.
    pub opened: u64,
    /// Streams the shard completed.
    pub completed: u64,
    /// Chunks the shard pumped.
    pub chunks: u64,
}

/// What one cluster storm campaign did and found.
#[derive(Debug, Clone)]
pub struct ClusterStormReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Shards in the cluster.
    pub shards: usize,
    /// Logical streams planned.
    pub planned: u64,
    /// Logical streams completed with a verified digest.
    pub completed: u64,
    /// Typed-loss restarts (a lost stream re-opened from scratch).
    pub restarts: u64,
    /// Losses by reason: `no_checkpoint`.
    pub lost_no_checkpoint: u64,
    /// Losses by reason: `incompatible`.
    pub lost_incompatible: u64,
    /// Losses by reason: `no_capacity`.
    pub lost_no_capacity: u64,
    /// Losses by reason: `corrupt`.
    pub lost_corrupt: u64,
    /// Losses the cluster recorded that the harness never observed —
    /// the silent-loss count, which must be zero.
    pub losses_unaccounted: u64,
    /// Losses the harness observed that the cluster no longer records
    /// (must be zero).
    pub losses_forgotten: u64,
    /// Completed streams whose digest differed from the oracle (must
    /// be zero, always).
    pub mismatches: u64,
    /// Logical streams still unfinished at the drain budget (must be
    /// zero).
    pub unfinished: u64,
    /// Fabric faults injected across all shards.
    pub faults_injected: u64,
    /// Ticks simulated (main phase + drain).
    pub ticks_run: u64,
    /// Cluster-level decision counters.
    pub counters: ClusterCounters,
    /// Per-shard summaries, in index order.
    pub shard_lines: Vec<ShardSummary>,
    /// Merged deployment-wide metrics snapshot (cluster + every
    /// shard, name-scoped; byte-identical across same-seed runs).
    pub metrics: obs::MetricsSnapshot,
    /// Causal-span audit over the cluster tracer at campaign end.
    pub spans: SpanAudit,
    /// The cluster tracer (events + span table), for trace queries and
    /// the SLO report.
    pub tracer: obs::Tracer,
    /// Rendered cluster-level event trace.
    pub trace_log: String,
}

impl ClusterStormReport {
    /// Zero mismatches, nothing stranded, no silent losses, and a
    /// clean causal-span audit (nothing leaked open, every failover
    /// rooted in a kill or a recovery).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches == 0
            && self.unfinished == 0
            && self.losses_unaccounted == 0
            && self.losses_forgotten == 0
            && self.spans.clean()
    }

    /// Deterministic text rendering — byte-identical across runs with
    /// the same seed (CI compares two runs with `cmp`).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let c = &self.counters;
        let _ = writeln!(s, "cluster storm seed={} shards={}", self.seed, self.shards);
        let _ = writeln!(
            s,
            "streams       planned={} completed={} restarts={} unfinished={}",
            self.planned, self.completed, self.restarts, self.unfinished
        );
        let _ = writeln!(
            s,
            "correctness   mismatches={} faults_injected={} silent_losses={} forgotten_losses={}",
            self.mismatches, self.faults_injected, self.losses_unaccounted, self.losses_forgotten
        );
        let _ = writeln!(
            s,
            "migration     live+drain={} retries={} failovers={}",
            c.migrations, c.migration_retries, c.failovers
        );
        let _ = writeln!(
            s,
            "losses        no_checkpoint={} incompatible={} no_capacity={} corrupt={}",
            self.lost_no_checkpoint,
            self.lost_incompatible,
            self.lost_no_capacity,
            self.lost_corrupt
        );
        let _ = writeln!(
            s,
            "lifecycle     drains_started={} shards_drained={} shards_down={} sweeps_stored={}",
            c.drains_started, c.shards_drained, c.shards_down, c.checkpoints_stored
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
            if self.passed() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// End-of-campaign causal-span audit: the invariants every storm
/// asserts over the tracer's span table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAudit {
    /// Spans begun over the whole campaign.
    pub total: u64,
    /// Spans never ended — must be zero at campaign end.
    pub open: u64,
    /// Tracer-counted span API misuse (double-end, unknown id) — must
    /// be zero.
    pub misuse: u64,
    /// `failover_stream` spans with no `shard_down` / `wal_recover`
    /// ancestor — every failover must be causally rooted in the event
    /// that forced it. Must be zero.
    pub failovers_unrooted: u64,
}

impl SpanAudit {
    /// Every audited invariant holds.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.open == 0 && self.misuse == 0 && self.failovers_unrooted == 0
    }
}

/// Audits a tracer's span table at campaign end: counts leaked-open
/// spans, API misuse, and causally-unrooted failovers.
#[must_use]
pub fn audit_spans(tracer: &obs::Tracer) -> SpanAudit {
    let q = obs::TraceQuery::new(tracer);
    let failovers = q.spans().by_kind("failover_stream");
    let unrooted = failovers
        .iter()
        .filter(|s| {
            !q.spans()
                .by_span(s.id)
                .rooted_in_any(&["shard_down", "wal_recover"])
        })
        .count() as u64;
    SpanAudit {
        total: q.spans().count() as u64,
        open: tracer.open_spans() as u64,
        misuse: tracer.span_misuse(),
        failovers_unrooted: unrooted,
    }
}

/// Runs one cluster storm campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors, and a failed
/// scripted drain or kill; admission refusals, backpressure, parking,
/// migration refusals and typed losses are all handled (and counted) by
/// the harness.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities.
pub fn run_cluster_storm(cfg: &ClusterStormConfig) -> Result<ClusterStormReport, ClusterError> {
    campaign::run(&Spec::plain(cfg)).map(|(report, _)| report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cluster_storm_is_exact_and_deterministic() {
        let cfg = ClusterStormConfig {
            streams: 60,
            ticks: 80,
            drain_tick: 10,
            kill_tick: 15,
            crc_ms: vec![8],
            scrambler_m: 16,
            ..ClusterStormConfig::smoke(2008)
        };
        let a = run_cluster_storm(&cfg).unwrap();
        let text = a.render();
        assert!(a.passed(), "storm must pass:\n{text}");
        assert_eq!(a.shard_lines[1].state, "drained", "drain fired:\n{text}");
        assert_eq!(a.shard_lines[0].state, "killed", "kill fired:\n{text}");
        assert!(a.counters.failovers >= 1, "the kill failed over:\n{text}");
        let b = run_cluster_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
