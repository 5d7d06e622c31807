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
//! All randomness flows from one [`SplitMix64`]; every cluster and
//! service structure iterates deterministically; two runs with the same
//! seed render byte-identical reports (CI asserts this with `cmp`).

use crate::cluster::{
    Cluster, ClusterConfig, ClusterCounters, ClusterError, ShardState, StreamLoss,
};
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use resilience::rng::SplitMix64;
use resilience::FaultInjector;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use stream::{AdmissionConfig, Priority, ServiceError, StreamOutput, StreamService};

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

/// One planned logical stream. Shared with the chaos harness
/// ([`crate::chaos`]), which runs the same traffic under injected
/// adversity.
pub(crate) struct Plan {
    pub(crate) personality: String,
    pub(crate) is_crc: bool,
    pub(crate) seed: u64,
    pub(crate) priority: Priority,
    pub(crate) data: Vec<u8>,
    /// Chunk boundaries (prefix sums, last == data.len()).
    pub(crate) cuts: Vec<usize>,
    pub(crate) arrive_tick: u64,
}

/// Live client-side bookkeeping for an opened stream.
pub(crate) struct Client {
    pub(crate) plan: usize,
    pub(crate) gid: u64,
    pub(crate) next_cut: usize,
    pub(crate) fed_all: bool,
    pub(crate) parked: bool,
    pub(crate) collected: BitVec,
}

pub(crate) fn gen_plans(
    cfg: &ClusterStormConfig,
    rng: &mut SplitMix64,
    names: &[(String, bool)],
) -> Vec<Plan> {
    let per_tick = cfg.base_arrivals.max(1);
    let mut plans = Vec::with_capacity(cfg.streams);
    for i in 0..cfg.streams {
        let (name, is_crc) = names[rng.below(names.len())].clone();
        let n_chunks = cfg.chunks_per_stream.0
            + rng.below(cfg.chunks_per_stream.1 - cfg.chunks_per_stream.0 + 1);
        let mut data = Vec::new();
        let mut cuts = Vec::new();
        for _ in 0..n_chunks {
            let len = cfg.chunk_bytes.0 + rng.below(cfg.chunk_bytes.1 - cfg.chunk_bytes.0 + 1);
            for _ in 0..len {
                data.push((rng.next_u64() & 0xFF) as u8);
            }
            cuts.push(data.len());
        }
        plans.push(Plan {
            personality: name,
            is_crc,
            seed: rng.next_u64() & 0x7F,
            priority: if rng.chance(0.3) {
                Priority::High
            } else {
                Priority::Low
            },
            data,
            cuts,
            arrive_tick: 1 + (i / per_tick) as u64,
        });
    }
    plans
}

/// Loss accounting of a storm harness against the cluster's record:
/// `(unaccounted, forgotten)`, the losses the cluster recorded that the
/// harness never saw and the losses the harness saw that the cluster no
/// longer records. Both must be zero; counting them apart keeps a
/// forgotten loss from cancelling an unseen one.
pub(crate) fn loss_gaps(recorded: &[StreamLoss], seen: &BTreeSet<u64>) -> (u64, u64) {
    let recorded: BTreeSet<u64> = recorded.iter().map(|l| l.id).collect();
    (
        recorded.difference(seen).count() as u64,
        seen.difference(&recorded).count() as u64,
    )
}

pub(crate) fn inject_random_fault(svc: &mut StreamService, inj: &mut FaultInjector) -> bool {
    let stuck = inj.rng().chance(0.15);
    let resident: Vec<usize> = (0..16)
        .filter(|&slot| svc.system().system().fabric().context(slot).is_some())
        .collect();
    if resident.is_empty() {
        return false;
    }
    let slot = resident[inj.rng().below(resident.len())];
    let op = svc
        .system()
        .system()
        .fabric()
        .context(slot)
        .expect("listed above")
        .clone();
    let fault = if stuck {
        inj.random_stuck_cell(&op)
    } else {
        inj.random_wire_flip(slot, &op)
    };
    fault.is_some_and(|fault| {
        svc.system_mut()
            .system_mut()
            .fabric_mut()
            .inject(&fault)
            .is_ok()
    })
}

/// Applies pending failover-resume notices: rewind the client to the
/// checkpoint's re-feed offset and drop scrambler output the replayed
/// stream will regenerate. Must run before the client feeds again —
/// a chunk offered at the old position would skip the replay window.
pub(crate) fn apply_resumes(cl: &mut Cluster, clients: &mut [Client], plans: &[Plan]) {
    for resume in cl.take_failover_resumes() {
        if let Some(client) = clients.iter_mut().find(|c| c.gid == resume.id) {
            let plan = &plans[client.plan];
            let cut = plan
                .cuts
                .partition_point(|&c| c as u64 <= resume.resume_from);
            client.next_cut = cut;
            client.fed_all = cut == plan.cuts.len();
            client.parked = false;
            let keep = usize::try_from(resume.delivered_bits).unwrap_or(usize::MAX);
            if client.collected.len() > keep {
                client.collected = client.collected.slice(0, keep);
            }
        }
    }
}

pub(crate) fn oracle_matches(plan: &Plan, collected: &BitVec, out: &StreamOutput) -> bool {
    if plan.is_crc {
        let spec = CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
        match out {
            StreamOutput::Crc(got) => *got == crc_bitwise(spec, &plan.data),
            StreamOutput::Scrambled(_) => false,
        }
    } else {
        let spec = ScramblerSpec::ieee80211();
        let mut reference = AdditiveScrambler::with_seed(spec, plan.seed).expect("valid seed");
        let frame = BitVec::from_le_bytes(&plan.data, plan.data.len() * 8);
        let expected = reference.scramble(&frame);
        match out {
            StreamOutput::Scrambled(tail) => collected.concat(tail) == expected,
            StreamOutput::Crc(_) => false,
        }
    }
}

/// Runs one cluster storm campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors; admission refusals,
/// backpressure, parking, migration refusals and typed losses are all
/// handled (and counted) by the harness.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities.
#[allow(clippy::too_many_lines)]
pub fn run_cluster_storm(cfg: &ClusterStormConfig) -> Result<ClusterStormReport, ClusterError> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut injectors: Vec<FaultInjector> = (0..cfg.shards)
        .map(|_| FaultInjector::new(rng.fork().next_u64()))
        .collect();

    let mut ccfg = ClusterConfig::homogeneous(cfg.shards, cfg.admission);
    ccfg.checkpoint_interval = cfg.checkpoint_interval;
    ccfg.health = crate::HealthPolicy {
        abandoned_ticks: cfg.abandoned_ticks,
    };
    let mut cl = Cluster::new(&ccfg);
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    let mut names: Vec<(String, bool)> = Vec::new();
    for &m in &cfg.crc_ms {
        let name = format!("eth{m}");
        cl.host_crc(&name, &eth, FlowOptions::dream_with_m(m))?;
        names.push((name, true));
    }
    if cfg.scrambler_m > 0 {
        let name = format!("wifi{}", cfg.scrambler_m);
        cl.host_scrambler(
            &name,
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(cfg.scrambler_m),
        )?;
        names.push((name, false));
    }
    assert!(!names.is_empty(), "storm needs at least one personality");

    let plans = gen_plans(cfg, &mut rng, &names);
    let mut next_plan = 0usize;
    let mut due: VecDeque<usize> = VecDeque::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut seen_losses: BTreeSet<u64> = BTreeSet::new();
    let mut completed = 0u64;
    let mut mismatches = 0u64;
    let mut restarts = 0u64;
    let mut faults_injected = 0u64;
    let mut lost_by_reason = [0u64; 4];
    let mut tick = 0u64;
    let drain_budget = cfg.ticks + 2000;

    while completed < plans.len() as u64 && tick < drain_budget {
        tick += 1;
        let draining = tick > cfg.ticks;

        // Per-shard fault injection (dead shards are left untouched).
        for (shard, injector) in injectors.iter_mut().enumerate() {
            if rng.chance(cfg.fault_prob) {
                if let Some(svc) = cl.shard_service_mut(shard) {
                    if inject_random_fault(svc, injector) {
                        faults_injected += 1;
                    }
                }
            }
        }

        // The two scheduled lifecycle events.
        if cfg.drain_tick > 0 && tick == cfg.drain_tick {
            cl.drain_shard(cfg.drain_shard)?;
        }
        if cfg.kill_tick > 0 && tick == cfg.kill_tick {
            cl.kill_shard(cfg.kill_shard)?;
        }
        // Rewind any client whose stream the kill just replayed,
        // before it feeds at its (now stale) position.
        apply_resumes(&mut cl, &mut clients, &plans);

        // Arrivals due this tick join the open queue; lost streams
        // already sit in it awaiting a restart.
        while next_plan < plans.len() && (plans[next_plan].arrive_tick <= tick || draining) {
            due.push_back(next_plan);
            next_plan += 1;
        }
        while let Some(&pi) = due.front() {
            let plan = &plans[pi];
            let opened = if plan.is_crc {
                cl.open_crc(&plan.personality, plan.priority, 4 + rng.below(8) as u64)
            } else {
                cl.open_scrambler(
                    &plan.personality,
                    plan.seed,
                    plan.priority,
                    4 + rng.below(8) as u64,
                )
            };
            match opened {
                Ok(gid) => {
                    due.pop_front();
                    clients.push(Client {
                        plan: pi,
                        gid,
                        next_cut: 0,
                        fed_all: false,
                        parked: false,
                        collected: BitVec::zeros(0),
                    });
                }
                // Every active shard refused; back off to next tick.
                Err(ClusterError::NoEligibleShard) => break,
                Err(e) => return Err(e),
            }
        }

        // Feeds: each live client offers its next chunk; backpressure
        // is retried next tick.
        for client in &mut clients {
            if client.fed_all || client.parked {
                continue;
            }
            if !draining && !rng.chance(0.8) {
                continue;
            }
            let plan = &plans[client.plan];
            let start = if client.next_cut == 0 {
                0
            } else {
                plan.cuts[client.next_cut - 1]
            };
            let end = plan.cuts[client.next_cut];
            match cl.feed(client.gid, &plan.data[start..end]) {
                Ok(()) => {
                    client.next_cut += 1;
                    client.fed_all = client.next_cut == plan.cuts.len();
                }
                Err(ClusterError::Shard(
                    ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                )) => {}
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => client.parked = true,
                // A loss is reconciled in the loss pass below.
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(e),
            }
        }

        // Random live migration under traffic.
        if rng.chance(cfg.migrate_prob) {
            let routed = cl.route_ids();
            let targets = cl.active_shards();
            if !routed.is_empty() && !targets.is_empty() {
                let gid = routed[rng.below(routed.len())];
                let target = targets[rng.below(targets.len())];
                // Refusals (fenced target, racing loss) are typed and
                // leave the stream where it was.
                let _ = cl.migrate(gid, target);
            }
        }

        cl.tick();

        // Failover notices from in-tick retirements (health monitor,
        // tick failures).
        apply_resumes(&mut cl, &mut clients, &plans);

        // Typed losses: restart the logical stream from scratch. The
        // seen-set proves every cluster-recorded loss was surfaced.
        for loss in cl.losses() {
            if !seen_losses.insert(loss.id) {
                continue;
            }
            lost_by_reason[loss.reason as usize] += 1;
            if let Some(pos) = clients.iter().position(|c| c.gid == loss.id) {
                let client = clients.swap_remove(pos);
                due.push_back(client.plan);
                restarts += 1;
            }
        }

        // Collect scrambler output; resume shard-parked clients.
        for client in &mut clients {
            if client.parked {
                if cl.resume(client.gid).is_ok() {
                    client.parked = false;
                } else {
                    continue;
                }
            }
            if !plans[client.plan].is_crc {
                if let Ok(bits) = cl.collect(client.gid) {
                    client.collected = client.collected.concat(&bits);
                }
            }
        }

        // Finish clients that fed everything.
        let mut finished: Vec<usize> = Vec::new();
        for (ci, client) in clients.iter_mut().enumerate() {
            if !client.fed_all || client.parked {
                continue;
            }
            match cl.finish(client.gid) {
                Ok(out) => {
                    if !oracle_matches(&plans[client.plan], &client.collected, &out) {
                        mismatches += 1;
                    }
                    completed += 1;
                    finished.push(ci);
                }
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => client.parked = true,
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(e),
            }
        }
        for ci in finished.into_iter().rev() {
            clients.swap_remove(ci);
        }
    }

    let (losses_unaccounted, losses_forgotten) = loss_gaps(&cl.losses(), &seen_losses);
    let shard_lines = (0..cfg.shards)
        .map(|i| {
            let svc = cl.shard_service(i).expect("index in range");
            let c = svc.counters();
            ShardSummary {
                name: cl.shard_name(i).expect("index in range").to_string(),
                state: cl.shard_state(i).map_or("?", |s| match s {
                    ShardState::Active => "active",
                    ShardState::Draining => "draining",
                    ShardState::Down(r) => r.label(),
                }),
                opened: c.opened,
                completed: c.completed,
                chunks: c.chunks_processed,
            }
        })
        .collect();
    Ok(ClusterStormReport {
        seed: cfg.seed,
        shards: cfg.shards,
        planned: plans.len() as u64,
        completed,
        restarts,
        lost_no_checkpoint: lost_by_reason[0],
        lost_incompatible: lost_by_reason[1],
        lost_no_capacity: lost_by_reason[2],
        lost_corrupt: lost_by_reason[3],
        losses_unaccounted,
        losses_forgotten,
        mismatches,
        unfinished: plans.len() as u64 - completed,
        faults_injected,
        ticks_run: tick,
        counters: cl.counters(),
        shard_lines,
        metrics: cl.metrics_merged(),
        spans: audit_spans(cl.trace()),
        tracer: cl.trace().clone(),
        trace_log: cl.trace().render(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LossReason;

    fn losses(ids: &[u64]) -> Vec<StreamLoss> {
        ids.iter()
            .map(|&id| StreamLoss {
                id,
                shard: 0,
                reason: LossReason::NoCheckpoint,
            })
            .collect()
    }

    #[test]
    fn a_forgotten_loss_does_not_cancel_an_unseen_one() {
        let seen: BTreeSet<u64> = [1, 3].into();
        // Recorded {1, 2}, seen {1, 3}: a length difference reads 0.
        assert_eq!(loss_gaps(&losses(&[1, 2]), &seen), (1, 1));
        // Forgotten only: a length difference would underflow.
        assert_eq!(loss_gaps(&losses(&[1]), &seen), (0, 1));
        assert_eq!(loss_gaps(&[], &seen), (0, 2));
        assert_eq!(loss_gaps(&losses(&[1, 3]), &seen), (0, 0));
        assert_eq!(loss_gaps(&losses(&[1, 3, 4]), &seen), (1, 0));
    }

    #[test]
    fn tiny_cluster_storm_is_exact_and_deterministic() {
        let cfg = ClusterStormConfig {
            streams: 60,
            ticks: 80,
            drain_tick: 25,
            kill_tick: 50,
            crc_ms: vec![8],
            scrambler_m: 16,
            ..ClusterStormConfig::smoke(2008)
        };
        let a = run_cluster_storm(&cfg).unwrap();
        assert!(a.passed(), "storm must pass:\n{}", a.render());
        let b = run_cluster_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
