//! `cluster_crash`: the `CrashStormConfig::smoke` shape driven through
//! the `Cluster` API.
//!
//! 4 shards, a journal on a `SharedDisk` framed by a `FabricHasher` at
//! M = 8, storage faults from the chaos schedule, and seeded
//! whole-cluster power losses, each followed by `Journal::recover` and
//! `Cluster::recover`. Every tick journals and flushes and every third
//! sweeps checkpoints, so the cluster and wal layers dominate and the
//! fabric sees thousands of ~50 B frames. Each round is one campaign on
//! a fresh cluster; digests are checked against their oracle, and
//! unaccounted losses and double-applied tokens count as failures.

use crate::report::{add_stack_counters, round_seed, timed, Outcome, RunOpts};
use crate::stream_storm::{draw_plan, inject_fault, Plan};
use crate::trace::Recorder;
use cluster::{
    mix64, BreakerState, ChaosEvent, ChaosScheduler, Cluster, ClusterConfig, ClusterError,
    CrashStormConfig, HealthPolicy, OpApply, OpToken, ShardState, StorageChaos,
};
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::scramble::ScramblerSpec;
use resilience::rng::SplitMix64;
use resilience::FaultInjector;
use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;
use stream::ServiceError;
use wal::{
    payload_ranges, CrashKind, FabricHasher, FrameHasher, Journal, Record, SharedDisk,
    SoftwareHasher, StorageBackend,
};

struct Client {
    plan: usize,
    gid: u64,
    next_cut: usize,
    fed_all: bool,
    parked: bool,
    collected: BitVec,
}

/// Shards placement trusts: Active with a Closed breaker.
fn eligible(cl: &Cluster) -> Vec<usize> {
    (0..cl.shard_count())
        .filter(|&i| {
            cl.shard_state(i) == Some(ShardState::Active)
                && cl.breaker_state(i) == Some(BreakerState::Closed)
        })
        .collect()
}

/// Rewinds clients named by failover-resume notices to their re-feed
/// offsets, dropping scrambler output the replay regenerates.
fn apply_resumes(cl: &mut Cluster, clients: &mut [Client], plans: &[Plan]) {
    for resume in cl.take_failover_resumes() {
        if let Some(c) = clients.iter_mut().find(|c| c.gid == resume.id) {
            let plan = &plans[c.plan];
            c.next_cut = plan
                .cuts
                .partition_point(|&x| x as u64 <= resume.resume_from);
            c.fed_all = c.next_cut == plan.cuts.len();
            c.parked = false;
            let keep = usize::try_from(resume.delivered_bits).unwrap_or(usize::MAX);
            if c.collected.len() > keep {
                c.collected = c.collected.slice(0, keep);
            }
        }
    }
}

/// Rots one payload byte of the superseded prefix of the disk.
fn bit_rot(disk: &SharedDisk, cold_end: usize, offset: u64, mask: u8) -> bool {
    let durable = disk.durable();
    let ranges = payload_ranges(&durable[..cold_end.min(durable.len())]);
    if ranges.is_empty() {
        return false;
    }
    let (start, end) = ranges[(offset as usize) % ranges.len()];
    disk.corrupt_byte(start + ((offset >> 32) as usize) % (end - start), mask);
    true
}

fn rehost(cl: &mut Cluster, cfg: &CrashStormConfig) -> Result<(), ClusterError> {
    for &m in &cfg.storm.crc_ms {
        cl.host_crc(
            &format!("eth{m}"),
            crate::fabric_bulk::eth(),
            FlowOptions::dream_with_m(m),
        )?;
    }
    let m = cfg.storm.scrambler_m;
    cl.host_scrambler(
        &format!("wifi{m}"),
        ScramblerSpec::ieee80211(),
        &FlowOptions::dream_with_m(m),
    )
}

/// Tries a tokenized migration and, with probability `dup_prob`, its
/// immediate redelivery (which must be suppressed).
#[allow(clippy::too_many_arguments)]
fn migrate(
    cl: &mut Cluster,
    rec: &mut Recorder,
    rng: &mut SplitMix64,
    token: OpToken,
    gid: u64,
    target: usize,
    dup_prob: f64,
    t: &mut Tally,
) {
    let applied = rec.time("cluster.migrate", gid, || {
        cl.migrate_with_token(token, gid, target)
    });
    if let Ok(OpApply::Applied) = applied {
        t.durable_tokens.push((token, gid, target));
        if rng.chance(dup_prob) {
            match rec.time("cluster.migrate", gid, || {
                cl.migrate_with_token(token, gid, target)
            }) {
                Ok(OpApply::Duplicate) => t.dups_suppressed += 1,
                _ => t.dup_violations += 1,
            }
        }
    }
}

/// Decision counts and the tokens known durable.
#[derive(Default)]
struct Tally {
    durable_tokens: Vec<(OpToken, u64, usize)>,
    dups_suppressed: u64,
    dup_violations: u64,
}

/// Banks a doomed (or final) epoch's counters into the fingerprint.
fn bank_epoch(out: &mut Outcome, cl: &Cluster) {
    for i in 0..cl.shard_count() {
        add_stack_counters(out, cl.shard_service(i).expect("index in range").system());
        let c = cl.shard_service(i).expect("index in range").counters();
        out.add_sim("cluster.chunks_processed", c.chunks_processed);
        out.add_sim("resilience.software_runs", c.migrated_to_software);
    }
    let c = cl.counters();
    out.add_sim("cluster.migrations", c.migrations);
    out.add_sim("cluster.failovers", c.failovers);
    out.add_sim("cluster.checkpoints_stored", c.checkpoints_stored);
    out.add_sim("cluster.losses", cl.losses().len() as u64);
    if let Some(j) = cl.journal() {
        out.add_sim("wal.frames_appended", j.stats().frames);
        out.add_sim("wal.bytes_appended", j.stats().bytes);
        out.add_sim(
            "wal.hasher_software_frames",
            j.hasher_stats().software_frames,
        );
    }
}

/// Host time and payload of one campaign.
#[derive(Default)]
struct Round {
    serve_s: f64,
    completed: u64,
    crc_bytes: u64,
    scr_bytes: u64,
    /// The record mix of the largest replay, for the append probe.
    records: Vec<Record>,
}

#[allow(clippy::too_many_lines)]
fn run_round(k: u64, seed: u64, out: &mut Outcome, rec: &mut Recorder) -> Result<Round, String> {
    let cfg = CrashStormConfig::smoke(round_seed(seed, k));
    let base = &cfg.storm;
    let fp = k == 0;
    let mut rng = SplitMix64::new(base.seed);
    let mut injectors: Vec<FaultInjector> = (0..base.shards)
        .map(|_| FaultInjector::new(rng.fork().next_u64()))
        .collect();
    let mut scheduler = ChaosScheduler::new(cfg.chaos, rng.fork().next_u64());
    let mut crash_rng = rng.fork();
    let crash_points: Vec<u64> = {
        let planned = base.streams;
        let lo = (planned * 15 / 100).max(1) as u64;
        let hi = ((planned * 75 / 100) as u64).max(lo + cfg.crashes as u64);
        let mut picked = BTreeSet::new();
        while picked.len() < cfg.crashes {
            picked.insert(lo + crash_rng.below((hi - lo) as usize) as u64);
        }
        picked.into_iter().collect()
    };

    let mut ccfg = ClusterConfig::homogeneous(base.shards, base.admission);
    ccfg.checkpoint_interval = base.checkpoint_interval;
    ccfg.health = HealthPolicy {
        abandoned_ticks: base.abandoned_ticks,
    };
    let disk = SharedDisk::new();
    let span = rec.begin("bench.setup", k);
    let (built, dt) = timed(|| -> Result<Cluster, ClusterError> {
        let hasher = FabricHasher::with_m(cfg.hasher_m).expect("journal lane hosts at M = 8");
        let mut cl = Cluster::new(&ccfg);
        cl.attach_journal(Journal::new(Box::new(disk.clone()), Box::new(hasher)));
        rehost(&mut cl, &cfg)?;
        Ok(cl)
    });
    rec.end(span);
    out.setup_s.push(dt);
    let mut cl = built.map_err(|e| format!("hosting: {e}"))?;

    let names: Vec<(String, bool)> = base
        .crc_ms
        .iter()
        .map(|m| (format!("eth{m}"), true))
        .chain(std::iter::once((
            format!("wifi{}", base.scrambler_m),
            false,
        )))
        .collect();
    let per_tick = base.base_arrivals.max(1);
    let plans: Vec<Plan> = (0..base.streams)
        .map(|i| {
            let arrive = 1 + (i / per_tick) as u64;
            draw_plan(
                &mut rng,
                &names,
                base.chunk_bytes,
                base.chunks_per_stream,
                arrive,
            )
        })
        .collect();
    out.attempted += plans.len() as u64 + cfg.crashes as u64;

    let mut r = Round::default();
    let mut t = Tally::default();
    let mut next_plan = 0;
    let mut next_crash = 0;
    let mut due: VecDeque<usize> = VecDeque::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut seen_losses: BTreeSet<u64> = BTreeSet::new();
    let mut mismatches = 0;
    let mut armed_crash: Option<CrashKind> = None;
    let mut cold_end = 0;
    let mut rots = 0;
    let (mut attempts, mut refused, mut replayed) = (0u64, 0u64, 0u64);
    let mut tick = 0;
    let budget = base.ticks + 2000;

    while r.completed < plans.len() as u64 && tick < budget {
        tick += 1;
        let draining = tick > base.ticks;
        let t_tick = Instant::now();
        let tick_span = rec.begin("bench.tick", tick);

        if !draining {
            if let Some(j) = cl.journal_mut() {
                let h = j.hasher_mut();
                if tick == cfg.degrade_tick {
                    h.degrade();
                }
                if tick == cfg.heal_tick {
                    h.heal();
                }
                if tick == cfg.fault_tick {
                    h.inject_fault(base.seed ^ tick);
                }
            }
            let (ok, active) = (eligible(&cl), cl.active_shards());
            for event in scheduler.draw(&ok, &active) {
                match event {
                    ChaosEvent::Slowdown { shard, ticks } => cl.chaos_slow_shard(shard, ticks),
                    ChaosEvent::TransferFault(mode) => {
                        cl.chaos_arm_transfer(mode);
                        let (routed, targets) = (cl.route_ids(), cl.active_shards());
                        if !routed.is_empty() && !targets.is_empty() {
                            let gid = routed[rng.below(routed.len())];
                            let target = targets[rng.below(targets.len())];
                            let token = OpToken(mix64(base.seed ^ (tick << 20) ^ gid));
                            migrate(
                                &mut cl,
                                rec,
                                &mut rng,
                                token,
                                gid,
                                target,
                                cfg.dup_prob,
                                &mut t,
                            );
                        }
                    }
                    ChaosEvent::ByzantineHealth { shard, ticks } => {
                        cl.chaos_lie_health(shard, ticks)
                    }
                    ChaosEvent::FaultFlap { shard, burst } => {
                        for _ in 0..burst {
                            if let Some(svc) = cl.shard_service_mut(shard) {
                                inject_fault(svc.system_mut(), &mut injectors[shard]);
                            }
                        }
                    }
                    ChaosEvent::AdmissionStorm { extra } => {
                        let pulled = extra.min(plans.len() - next_plan);
                        due.extend(next_plan..next_plan + pulled);
                        next_plan += pulled;
                    }
                    ChaosEvent::StorageFault(kind) => match kind {
                        StorageChaos::TornTail { keep } => {
                            armed_crash = Some(CrashKind::Torn {
                                keep: keep as usize,
                            });
                        }
                        StorageChaos::LostSuffix => armed_crash = Some(CrashKind::LostSuffix),
                        StorageChaos::DuplicateAppend => disk.arm_duplicate(),
                        StorageChaos::BitRot { offset, mask } => {
                            rots +=
                                u64::from(cold_end > 0 && bit_rot(&disk, cold_end, offset, mask));
                        }
                    },
                }
            }
            for (shard, inj) in injectors.iter_mut().enumerate() {
                if rng.chance(base.fault_prob) {
                    if let Some(svc) = cl.shard_service_mut(shard) {
                        inject_fault(svc.system_mut(), inj);
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
            let ttl = 4 + rng.below(8) as u64;
            attempts += 1;
            let opened = rec.time("cluster.open", pi as u64, || {
                if plan.is_crc {
                    cl.open_crc(&plan.personality, plan.priority, ttl)
                } else {
                    cl.open_scrambler(&plan.personality, plan.seed, plan.priority, ttl)
                }
            });
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
                Err(ClusterError::NoEligibleShard) => {
                    refused += 1;
                    break;
                }
                Err(e) => return Err(format!("open: {e}")),
            }
        }

        for c in &mut clients {
            if c.fed_all || c.parked || (!draining && !rng.chance(0.8)) {
                continue;
            }
            let plan = &plans[c.plan];
            attempts += 1;
            let fed = rec.time("cluster.feed", c.gid, || {
                cl.feed(c.gid, &plan.data[plan.chunk(c.next_cut)])
            });
            match fed {
                Ok(()) => {
                    c.next_cut += 1;
                    c.fed_all = c.next_cut == plan.cuts.len();
                }
                Err(ClusterError::Shard(
                    ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                )) => refused += 1,
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => c.parked = true,
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(format!("feed: {e}")),
            }
        }

        if rng.chance(base.migrate_prob) {
            let (routed, targets) = (cl.route_ids(), cl.active_shards());
            if !routed.is_empty() && !targets.is_empty() {
                let gid = routed[rng.below(routed.len())];
                let target = targets[rng.below(targets.len())];
                let token = OpToken(mix64(base.seed ^ (tick << 20) ^ gid ^ (1 << 63)));
                migrate(
                    &mut cl,
                    rec,
                    &mut rng,
                    token,
                    gid,
                    target,
                    cfg.dup_prob,
                    &mut t,
                );
            }
        }

        rec.time("cluster.tick", tick, || cl.tick());
        apply_resumes(&mut cl, &mut clients, &plans);

        for loss in cl.losses() {
            if seen_losses.insert(loss.id) {
                if let Some(pos) = clients.iter().position(|c| c.gid == loss.id) {
                    due.push_back(clients.swap_remove(pos).plan);
                }
            }
        }
        for c in &mut clients {
            if c.parked {
                if rec
                    .time("cluster.resume", c.gid, || cl.resume(c.gid))
                    .is_err()
                {
                    continue;
                }
                c.parked = false;
            }
            if !plans[c.plan].is_crc {
                if let Ok(bits) = rec.time("cluster.collect", c.gid, || cl.collect(c.gid)) {
                    c.collected = c.collected.concat(&bits);
                }
            }
        }
        let mut done = Vec::new();
        for (ci, c) in clients.iter_mut().enumerate() {
            if !c.fed_all || c.parked {
                continue;
            }
            match rec.time("cluster.finish", c.gid, || cl.finish(c.gid)) {
                Ok(output) => {
                    let plan = &plans[c.plan];
                    mismatches += u64::from(!plan.oracle_matches(&c.collected, &output));
                    r.completed += 1;
                    if plan.is_crc {
                        r.crc_bytes += plan.data.len() as u64;
                    } else {
                        r.scr_bytes += plan.data.len() as u64;
                    }
                    done.push(ci);
                }
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => c.parked = true,
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(format!("finish: {e}")),
            }
        }
        for ci in done.into_iter().rev() {
            clients.swap_remove(ci);
        }
        rec.end(tick_span);
        let dt = t_tick.elapsed().as_secs_f64();
        r.serve_s += dt;
        out.step_us.push(dt * 1e6);
        out.probe_pace();

        // ---- Power loss and recovery --------------------------------
        if next_crash < crash_points.len() && r.completed >= crash_points[next_crash] {
            let crash_idx = next_crash as u64;
            next_crash += 1;
            // Unflushed work for the tear to bite, and one in-doubt
            // tokenized migration inside the flush window.
            let mut fed = 0;
            for c in clients.iter_mut().filter(|c| !c.fed_all && !c.parked) {
                if fed >= 4 {
                    break;
                }
                let plan = &plans[c.plan];
                if cl.feed(c.gid, &plan.data[plan.chunk(c.next_cut)]).is_ok() {
                    c.next_cut += 1;
                    c.fed_all = c.next_cut == plan.cuts.len();
                    fed += 1;
                }
            }
            let mut in_doubt = None;
            let (routed, targets) = (cl.route_ids(), cl.active_shards());
            if !routed.is_empty() && !targets.is_empty() {
                let gid = routed[crash_rng.below(routed.len())];
                let target = targets[crash_rng.below(targets.len())];
                let token = OpToken(mix64(base.seed ^ (crash_idx << 40) ^ gid ^ 0xD0B7));
                if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
                    in_doubt = Some((token, gid, target));
                }
            }
            if fp {
                bank_epoch(out, &cl);
            }
            let pending = disk.pending_len();
            let kind = match armed_crash.take() {
                Some(CrashKind::Torn { keep }) => CrashKind::Torn {
                    keep: keep % pending.max(1),
                },
                Some(k) => k,
                None if pending > 0 && disk.stats().torn_tails == 0 => CrashKind::Torn {
                    keep: (pending / 2).max(1),
                },
                None => CrashKind::LostSuffix,
            };
            drop(cl);
            disk.crash(kind);
            if crash_idx >= 1 && rots == 0 {
                let mask = 1 << (crash_rng.below(8) as u8);
                rots +=
                    u64::from(cold_end > 0 && bit_rot(&disk, cold_end, crash_rng.next_u64(), mask));
            }

            let t_rec = Instant::now();
            let span = rec.begin("bench.recover", crash_idx);
            let hasher = FabricHasher::with_m(cfg.hasher_m).expect("journal lane hosts at M = 8");
            let (journal, replay) = rec.time("wal.recover", crash_idx, || {
                Journal::recover(Box::new(disk.clone()), Box::new(hasher))
            });
            let (recovered, _) = rec.time("cluster.recover", crash_idx, || {
                Cluster::recover(&ccfg, journal, &replay)
            });
            rec.end(span);
            out.recover_ms.push(t_rec.elapsed().as_secs_f64() * 1e3);
            cl = recovered;
            cold_end = disk.durable_len();
            replayed += replay.frames_ok;
            if replay.records.len() > r.records.len() {
                r.records = replay
                    .records
                    .into_iter()
                    .map(|(_, record)| record)
                    .collect();
            }

            apply_resumes(&mut cl, &mut clients, &plans);
            for &(token, gid, target) in &t.durable_tokens {
                match cl.migrate_with_token(token, gid, target) {
                    Ok(OpApply::Duplicate) => t.dups_suppressed += 1,
                    _ => t.dup_violations += 1,
                }
            }
            if let Some((token, gid, target)) = in_doubt {
                if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
                    t.durable_tokens.push((token, gid, target));
                }
            }
        }
    }

    let unaccounted = cl.losses().len() as u64 - seen_losses.len() as u64;
    out.fail("oracle_mismatch", mismatches);
    out.fail("unfinished", plans.len() as u64 - r.completed);
    out.fail("unaccounted_loss", unaccounted);
    out.fail("double_apply", t.dup_violations);
    if fp {
        bank_epoch(out, &cl);
        out.add_sim("payload_bits", (r.crc_bytes + r.scr_bytes) * 8);
        out.add_sim("cluster.ticks", tick);
        out.add_sim("cluster.crashes", next_crash as u64);
        out.add_sim("cluster.attempts", attempts);
        out.add_sim("cluster.refused", refused);
        out.add_sim("cluster.dups_suppressed", t.dups_suppressed);
        out.add_sim("cluster.active_shards_end", cl.active_shards().len() as u64);
        out.add_sim("wal.frames_replayed", replayed);
        let s = rec.begin("obs.metrics_merged", k);
        let merged = cl.metrics_merged();
        rec.end(s);
        out.add_sim("obs.merged_metrics", merged.len() as u64);
    }
    Ok(r)
}

/// Mean µs per `Journal::append` of `records` into a fresh journal.
fn append_us(
    records: &[Record],
    hasher: Box<dyn FrameHasher>,
    rec: &mut Recorder,
    name: &'static str,
) -> f64 {
    let mut j = Journal::new(Box::new(SharedDisk::new()), hasher);
    let t = Instant::now();
    for (i, r) in records.iter().enumerate() {
        rec.time(name, i as u64, || j.append(r));
    }
    j.flush();
    t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64
}

/// Runs the workload.
///
/// # Errors
///
/// Hosting failures and unexpected cluster errors.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    for kind in [
        "oracle_mismatch",
        "unfinished",
        "unaccounted_loss",
        "double_apply",
    ] {
        out.fail(kind, 0);
    }
    let t0 = Instant::now();
    let mut k = 0;
    while opts.more(t0, k, out.step_us.len()) {
        let t_round = Instant::now();
        let span = rec.begin("bench.round", k);
        let r = run_round(k, opts.seed, &mut out, rec)?;
        rec.end(span);
        let wall_s = t_round.elapsed().as_secs_f64();
        if k == 0 && rec.enabled() {
            // The run's own record mix, re-appended with each hasher.
            let fabric = FabricHasher::with_m(8).expect("journal lane hosts at M = 8");
            let us = append_us(&r.records, Box::new(fabric), rec, "wal.append.fabric");
            out.layer.push(("wal.append_us.fabric".into(), us, "us"));
            let us = append_us(
                &r.records,
                Box::new(SoftwareHasher::new()),
                rec,
                "wal.append.software",
            );
            out.layer.push(("wal.append_us.software".into(), us, "us"));
        }
        let pace = out.end_round(r.serve_s, wall_s);
        out.crc_mbps
            .push(r.crc_bytes as f64 / 1e6 / r.serve_s * pace);
        out.scramble_mbps
            .push(r.scr_bytes as f64 / 1e6 / r.serve_s * pace);
        out.streams_per_s
            .push(r.completed as f64 / r.serve_s * pace);
        k += 1;
    }
    Ok(out)
}
