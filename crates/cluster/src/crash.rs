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
//! [`wal::Journal::recover`] followed by [`Cluster::recover`], after
//! which the clients reconcile: restored streams rewind to their
//! resume offsets, typed losses restart, and every idempotency token
//! that was durably applied is redelivered and must come back
//! [`OpApply::Duplicate`].
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

use crate::chaos::{
    eligible_shards, ChaosConfig, ChaosCounts, ChaosEvent, ChaosScheduler, StorageChaos,
};
use crate::cluster::{Cluster, ClusterConfig, ClusterCounters, ClusterError, ShardState};
use crate::placement::mix64;
use crate::retry::{OpApply, OpToken};
use crate::storm::{
    apply_resumes, audit_spans, gen_plans, inject_random_fault, loss_gaps, oracle_matches, Client,
    ClusterStormConfig, ShardSummary, SpanAudit,
};
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::CrcSpec;
use lfsr::scramble::ScramblerSpec;
use resilience::rng::SplitMix64;
use resilience::FaultInjector;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use stream::ServiceError;
use wal::{
    payload_ranges, CrashKind, FabricHasher, HasherStats, Journal, SharedDisk, StorageBackend,
};

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
    /// out, then adopted), for trace-query consumers like
    /// `cluster_report`.
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

/// Draws `n` distinct crash points as completed-stream thresholds in
/// the middle of the campaign (15% – 75% of the planned streams), so
/// every crash lands while traffic is genuinely live — routed streams,
/// pending journal bytes, tokens in flight — regardless of how fast
/// the fleet drains the plan.
fn draw_crash_points(rng: &mut SplitMix64, n: usize, planned: usize) -> Vec<u64> {
    let lo = (planned * 15 / 100).max(1) as u64;
    let hi = ((planned * 75 / 100) as u64).max(lo + n as u64);
    let span = usize::try_from(hi - lo).unwrap_or(1).max(n);
    let mut picked: BTreeSet<u64> = BTreeSet::new();
    while picked.len() < n {
        picked.insert(lo + rng.below(span) as u64);
    }
    picked.into_iter().collect()
}

/// Applies a drawn bit-rot fault to one payload byte of the cold
/// (superseded) prefix of the disk. Returns `true` when a byte was
/// actually rotted.
fn apply_bit_rot(disk: &SharedDisk, cold_end: usize, offset: u64, mask: u8) -> bool {
    if cold_end == 0 {
        return false;
    }
    let durable = disk.durable();
    let cold = &durable[..cold_end.min(durable.len())];
    let ranges = payload_ranges(cold);
    if ranges.is_empty() {
        return false;
    }
    let (start, end) = ranges[(offset as usize) % ranges.len()];
    let byte = start + ((offset >> 32) as usize) % (end - start);
    disk.corrupt_byte(byte, mask);
    true
}

fn rehost_all(cl: &mut Cluster, cfg: &ClusterStormConfig) -> Result<(), ClusterError> {
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    for &m in &cfg.crc_ms {
        cl.host_crc(&format!("eth{m}"), &eth, FlowOptions::dream_with_m(m))?;
    }
    if cfg.scrambler_m > 0 {
        cl.host_scrambler(
            &format!("wifi{}", cfg.scrambler_m),
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(cfg.scrambler_m),
        )?;
    }
    Ok(())
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
#[allow(clippy::too_many_lines)]
pub fn run_crash_storm(cfg: &CrashStormConfig) -> Result<CrashStormReport, ClusterError> {
    let base = &cfg.storm;
    let mut rng = SplitMix64::new(base.seed);
    let mut injectors: Vec<FaultInjector> = (0..base.shards)
        .map(|_| FaultInjector::new(rng.fork().next_u64()))
        .collect();
    let mut scheduler = ChaosScheduler::new(cfg.chaos, rng.fork().next_u64());
    let mut crash_rng = rng.fork();
    let crash_points = draw_crash_points(&mut crash_rng, cfg.crashes, base.streams);
    let mut next_crash = 0usize;

    let mut ccfg = ClusterConfig::homogeneous(base.shards, base.admission);
    ccfg.checkpoint_interval = base.checkpoint_interval;
    ccfg.health = crate::HealthPolicy {
        abandoned_ticks: base.abandoned_ticks,
    };

    let disk = SharedDisk::new();
    let fabric =
        FabricHasher::with_m(cfg.hasher_m).expect("journal fabric lane hosts at configured M");
    let journal = Journal::new(Box::new(disk.clone()), Box::new(fabric));
    let mut cl = Cluster::new(&ccfg);
    cl.attach_journal(journal);
    rehost_all(&mut cl, base)?;
    let mut names: Vec<(String, bool)> = Vec::new();
    for &m in &base.crc_ms {
        names.push((format!("eth{m}"), true));
    }
    if base.scrambler_m > 0 {
        names.push((format!("wifi{}", base.scrambler_m), false));
    }
    assert!(!names.is_empty(), "crash storm needs personalities");

    let plans = gen_plans(base, &mut rng, &names);
    let mut next_plan = 0usize;
    let mut due: VecDeque<usize> = VecDeque::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut seen_losses: BTreeSet<u64> = BTreeSet::new();
    let mut completed = 0u64;
    let mut mismatches = 0u64;
    let mut restarts = 0u64;
    let mut faults_injected = 0u64;
    let mut dup_violations = 0u64;
    let mut dups_suppressed = 0u64;
    // Every tokenized migration the harness knows became durable
    // (applied in a tick strictly before the last flush): after any
    // later recovery, redelivery must come back Duplicate.
    let mut durable_tokens: Vec<(OpToken, u64, usize)> = Vec::new();
    // Crash-kind armed by the storage chaos schedule.
    let mut armed_crash: Option<CrashKind> = None;
    // Superseded prefix of the disk: everything before the byte length
    // recorded at the previous crash. Bit rot is confined here — those
    // frames were re-journaled by the recovery epoch, so rotting them
    // exercises detection without destroying live state.
    let mut cold_end = 0usize;
    let mut rots_applied = 0u64;
    // Accumulated across epochs (each recovery hosts a fresh hasher).
    let mut hasher_total = HasherStats::default();
    // Span tables of the doomed epochs, closed as "crashed" at the
    // power-loss cycle and adopted here so the campaign-wide audit and
    // trace queries see every operation ever begun. Capacity 1: only
    // the span table matters, the event ring stays with each epoch.
    let mut span_acc = obs::Tracer::new(1);
    let mut crashes = 0u64;
    let mut recoveries = 0u64;
    let mut torn_detected = 0u64;
    let mut corrupt_detected = 0u64;
    let mut dup_frames_detected = 0u64;
    let mut frames_replayed = 0u64;
    let mut streams_restored = 0u64;
    let mut streams_lost = 0u64;
    let mut tokens_restored = 0u64;
    let mut migrations_committed = 0u64;
    let mut migrations_aborted = 0u64;
    let mut in_doubt_suppressed = 0u64;
    let mut in_doubt_reapplied = 0u64;
    let mut in_doubt_void = 0u64;
    let mut tick = 0u64;
    let drain_budget = base.ticks + 2000;

    while completed < plans.len() as u64 && tick < drain_budget {
        tick += 1;
        let draining = tick > base.ticks;

        if !draining {
            // Journal-lane chaos: force the software path, heal through
            // the ladder, and land an SEU the self-check must catch.
            if cfg.degrade_tick > 0 && tick == cfg.degrade_tick {
                if let Some(j) = cl.journal_mut() {
                    j.hasher_mut().degrade();
                }
            }
            if cfg.heal_tick > 0 && tick == cfg.heal_tick {
                if let Some(j) = cl.journal_mut() {
                    j.hasher_mut().heal();
                }
            }
            if cfg.fault_tick > 0 && tick == cfg.fault_tick {
                if let Some(j) = cl.journal_mut() {
                    j.hasher_mut().inject_fault(base.seed ^ tick);
                }
            }

            let eligible = eligible_shards(&cl);
            let active = cl.active_shards();
            for event in scheduler.draw(&eligible, &active) {
                match event {
                    ChaosEvent::Slowdown { shard, ticks } => cl.chaos_slow_shard(shard, ticks),
                    ChaosEvent::TransferFault(mode) => {
                        cl.chaos_arm_transfer(mode);
                        let routed = cl.route_ids();
                        let targets = cl.active_shards();
                        if !routed.is_empty() && !targets.is_empty() {
                            let gid = routed[rng.below(routed.len())];
                            let target = targets[rng.below(targets.len())];
                            let token = OpToken(mix64(base.seed ^ (tick << 20) ^ gid));
                            if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target)
                            {
                                durable_tokens.push((token, gid, target));
                                if rng.chance(cfg.dup_prob) {
                                    match cl.migrate_with_token(token, gid, target) {
                                        Ok(OpApply::Duplicate) => dups_suppressed += 1,
                                        _ => dup_violations += 1,
                                    }
                                }
                            }
                        }
                    }
                    ChaosEvent::ByzantineHealth { shard, ticks } => {
                        cl.chaos_lie_health(shard, ticks);
                    }
                    ChaosEvent::FaultFlap { shard, burst } => {
                        for _ in 0..burst {
                            if let Some(svc) = cl.shard_service_mut(shard) {
                                if inject_random_fault(svc, &mut injectors[shard]) {
                                    faults_injected += 1;
                                }
                            }
                        }
                    }
                    ChaosEvent::AdmissionStorm { extra } => {
                        let mut pulled = 0usize;
                        while pulled < extra && next_plan < plans.len() {
                            due.push_back(next_plan);
                            next_plan += 1;
                            pulled += 1;
                        }
                    }
                    ChaosEvent::StorageFault(kind) => match kind {
                        StorageChaos::TornTail { keep } => {
                            armed_crash = Some(CrashKind::Torn {
                                keep: keep as usize,
                            });
                        }
                        StorageChaos::LostSuffix => {
                            armed_crash = Some(CrashKind::LostSuffix);
                        }
                        StorageChaos::DuplicateAppend => {
                            disk.arm_duplicate();
                        }
                        StorageChaos::BitRot { offset, mask } => {
                            if apply_bit_rot(&disk, cold_end, offset, mask) {
                                rots_applied += 1;
                            }
                        }
                    },
                }
            }

            for (shard, injector) in injectors.iter_mut().enumerate() {
                if rng.chance(base.fault_prob) {
                    if let Some(svc) = cl.shard_service_mut(shard) {
                        if inject_random_fault(svc, injector) {
                            faults_injected += 1;
                        }
                    }
                }
            }
        }

        apply_resumes(&mut cl, &mut clients, &plans);

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
                Err(ClusterError::NoEligibleShard) => break,
                Err(e) => return Err(e),
            }
        }

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
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(e),
            }
        }

        if rng.chance(base.migrate_prob) {
            let routed = cl.route_ids();
            let targets = cl.active_shards();
            if !routed.is_empty() && !targets.is_empty() {
                let gid = routed[rng.below(routed.len())];
                let target = targets[rng.below(targets.len())];
                let token = OpToken(mix64(base.seed ^ (tick << 20) ^ gid ^ (1 << 63)));
                if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
                    durable_tokens.push((token, gid, target));
                    if rng.chance(cfg.dup_prob) {
                        match cl.migrate_with_token(token, gid, target) {
                            Ok(OpApply::Duplicate) => dups_suppressed += 1,
                            _ => dup_violations += 1,
                        }
                    }
                }
            }
        }

        cl.tick();
        apply_resumes(&mut cl, &mut clients, &plans);

        for loss in cl.losses() {
            if !seen_losses.insert(loss.id) {
                continue;
            }
            if let Some(pos) = clients.iter().position(|c| c.gid == loss.id) {
                let client = clients.swap_remove(pos);
                due.push_back(client.plan);
                restarts += 1;
            }
        }

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

        // ---- The crash point -------------------------------------
        if next_crash < crash_points.len() && completed >= crash_points[next_crash] {
            next_crash += 1;
            let crash_idx = crashes;
            crashes += 1;

            // Unflushed work for the tear to bite: a few clients feed
            // one more chunk (applied in memory, journaled as pending
            // bytes only), and one in-doubt tokenized migration runs
            // entirely inside the flush window.
            let mut fed = 0usize;
            for client in &mut clients {
                if fed >= 4 {
                    break;
                }
                if client.fed_all || client.parked {
                    continue;
                }
                let plan = &plans[client.plan];
                let start = if client.next_cut == 0 {
                    0
                } else {
                    plan.cuts[client.next_cut - 1]
                };
                let end = plan.cuts[client.next_cut];
                if cl.feed(client.gid, &plan.data[start..end]).is_ok() {
                    client.next_cut += 1;
                    client.fed_all = client.next_cut == plan.cuts.len();
                    fed += 1;
                }
            }
            let mut in_doubt: Option<(OpToken, u64, usize)> = None;
            {
                let routed = cl.route_ids();
                let targets = cl.active_shards();
                if !routed.is_empty() && !targets.is_empty() {
                    let gid = routed[crash_rng.below(routed.len())];
                    let target = targets[crash_rng.below(targets.len())];
                    let token = OpToken(mix64(base.seed ^ (crash_idx << 40) ^ gid ^ 0xD0B7));
                    if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
                        in_doubt = Some((token, gid, target));
                    }
                }
            }

            // Power loss: bank the doomed epoch's hasher counters,
            // then drop the whole cluster. Only the disk survives.
            if let Some(j) = cl.journal() {
                let s = j.hasher_stats();
                hasher_total.frames += s.frames;
                hasher_total.software_frames += s.software_frames;
                hasher_total.ladder_runs += s.ladder_runs;
                hasher_total.dmr_mismatches += s.dmr_mismatches;
            }
            // Bank the doomed epoch's spans: whatever was still open
            // (cross-tick drains, upgrades) was truthfully ended by
            // the power loss, so close it as "crashed" before adopting
            // the table into the campaign accumulator.
            let mut dead_trace = cl.trace().clone();
            dead_trace.close_open_spans(cl.now(), "crashed");
            span_acc.adopt_spans(&dead_trace);
            let pending = disk.pending_len();
            let kind = match armed_crash.take() {
                Some(CrashKind::Torn { keep }) => CrashKind::Torn {
                    keep: keep % pending.max(1),
                },
                Some(k) => k,
                // Default to a torn tail until one has actually bitten
                // so the coverage floor never depends on the draw.
                None if pending > 0 && disk.stats().torn_tails == 0 => CrashKind::Torn {
                    keep: (pending / 2).max(1),
                },
                None => CrashKind::LostSuffix,
            };
            drop(cl);
            disk.crash(kind);
            // Guarantee at least one detectable rot once a superseded
            // prefix exists.
            if crash_idx >= 1 && rots_applied == 0 {
                let mask = 1 << (crash_rng.below(8) as u8);
                if apply_bit_rot(&disk, cold_end, crash_rng.next_u64(), mask) {
                    rots_applied += 1;
                }
            }
            // Recovery: replay the durable bytes through a fresh
            // fabric lane, then rebuild the control plane from them.
            // `recover` truncates the damaged tail, so the durable
            // length afterwards is exactly the superseded prefix the
            // next epoch's bit rot may chew on.
            let fabric = FabricHasher::with_m(cfg.hasher_m)
                .expect("journal fabric lane hosts at configured M");
            let (journal, replay) = Journal::recover(Box::new(disk.clone()), Box::new(fabric));
            cold_end = disk.durable_len();
            torn_detected += u64::from(replay.torn_tail);
            corrupt_detected += replay.corrupt_frames;
            dup_frames_detected += replay.duplicate_frames;
            frames_replayed += replay.frames_ok;
            let (recovered, report) = Cluster::recover(&ccfg, journal, &replay);
            cl = recovered;
            recoveries += 1;
            streams_restored += report.streams_restored;
            streams_lost += report.streams_lost;
            tokens_restored += report.tokens_restored;
            migrations_committed += report.migrations_committed;
            migrations_aborted += report.migrations_aborted;

            // Clients rewind to their resume offsets before feeding.
            apply_resumes(&mut cl, &mut clients, &plans);

            // Idempotence across the crash: every token that was
            // durably applied must be suppressed on redelivery.
            for (token, gid, target) in &durable_tokens {
                match cl.migrate_with_token(*token, *gid, *target) {
                    Ok(OpApply::Duplicate) => dups_suppressed += 1,
                    _ => dup_violations += 1,
                }
            }
            // The in-doubt operation may resolve either way — commit
            // (suppressed) or abort (cleanly re-applied) — but never
            // double-applies: a re-apply only succeeds when the
            // original's effects did not survive.
            if let Some((token, gid, target)) = in_doubt {
                match cl.migrate_with_token(token, gid, target) {
                    Ok(OpApply::Duplicate) => in_doubt_suppressed += 1,
                    Ok(OpApply::Applied) => {
                        in_doubt_reapplied += 1;
                        durable_tokens.push((token, gid, target));
                    }
                    Err(_) => in_doubt_void += 1,
                }
            }
        }
    }

    if let Some(j) = cl.journal() {
        let s = j.hasher_stats();
        hasher_total.frames += s.frames;
        hasher_total.software_frames += s.software_frames;
        hasher_total.ladder_runs += s.ladder_runs;
        hasher_total.dmr_mismatches += s.dmr_mismatches;
    }
    // The surviving epoch's spans join the accumulator un-doctored:
    // anything still open here is a genuine leak the audit must flag.
    span_acc.adopt_spans(cl.trace());
    let span_audit = audit_spans(&span_acc);
    let dstats = disk.stats();
    let (losses_unaccounted, losses_forgotten) = loss_gaps(&cl.losses(), &seen_losses);
    let shard_lines = (0..base.shards)
        .map(|i| {
            let svc = cl.shard_service(i).expect("index in range");
            let sc = svc.counters();
            ShardSummary {
                name: cl.shard_name(i).expect("index in range").to_string(),
                state: cl.shard_state(i).map_or("?", |s| match s {
                    ShardState::Active => "active",
                    ShardState::Draining => "draining",
                    ShardState::Down(r) => r.label(),
                }),
                opened: sc.opened,
                completed: sc.completed,
                chunks: sc.chunks_processed,
            }
        })
        .collect();
    Ok(CrashStormReport {
        seed: base.seed,
        shards: base.shards,
        planned: plans.len() as u64,
        completed,
        restarts,
        mismatches,
        losses_unaccounted,
        losses_forgotten,
        unfinished: plans.len() as u64 - completed,
        dup_violations,
        dups_suppressed,
        crashes,
        recoveries,
        torn_tails: dstats.torn_tails,
        bit_rots: dstats.rotted_bytes,
        dup_appends: dstats.duplicated_appends,
        torn_detected,
        corrupt_detected,
        dup_frames_detected,
        frames_replayed,
        streams_restored,
        streams_lost,
        tokens_restored,
        migrations_committed,
        migrations_aborted,
        in_doubt_suppressed,
        in_doubt_reapplied,
        in_doubt_void,
        hasher_frames: hasher_total.frames,
        hasher_software_frames: hasher_total.software_frames,
        hasher_ladder_runs: hasher_total.ladder_runs,
        chaos: scheduler.counts(),
        faults_injected,
        ticks_run: tick,
        counters: cl.counters(),
        shard_lines,
        metrics: cl.metrics_merged(),
        trace_log: cl.trace().render(),
        spans: span_audit,
        tracer: span_acc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_are_distinct_sorted_and_mid_campaign() {
        let mut rng = SplitMix64::new(7);
        let points = draw_crash_points(&mut rng, 3, 160);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(points.iter().all(|&p| (1..=120).contains(&p)));
    }

    #[test]
    fn tiny_crash_storm_survives_and_is_deterministic() {
        let mut cfg = CrashStormConfig::smoke(2008);
        cfg.storm.streams = 48;
        cfg.storm.ticks = 90;
        cfg.storm.crc_ms = vec![8];
        cfg.storm.scrambler_m = 16;
        cfg.degrade_tick = 10;
        cfg.heal_tick = 13;
        cfg.fault_tick = 30;
        let a = run_crash_storm(&cfg).unwrap();
        assert!(a.passed(), "crash storm must pass:\n{}", a.render());
        assert!(a.crashes >= 3, "crashes happened:\n{}", a.render());
        assert!(a.recoveries == a.crashes);
        assert!(
            a.hasher_software_frames >= 1 && a.hasher_ladder_runs >= 1,
            "ladder coverage:\n{}",
            a.render()
        );
        let b = run_crash_storm(&cfg).unwrap();
        assert_eq!(a.render(), b.render(), "same seed, same campaign");
    }
}
