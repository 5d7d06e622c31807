//! The one campaign engine behind the cluster, chaos and crash storms.
//!
//! Every campaign runs the same client loop: staggered arrivals placed
//! across shards, chunked feeds under backpressure, random live
//! migrations, failover resumes, typed-loss restarts, and every
//! completed stream's digest checked against a pure-software oracle.
//! What differs between the campaigns is which fault sources are on,
//! and that is data in a [`Spec`]:
//!
//! * always: per-shard background fabric faults and the scripted drain
//!   and kill;
//! * `chaos`: the [`ChaosScheduler`]'s disturbances, tokenized
//!   migrations with duplicate redelivery, and the reopen of drained
//!   shards when the drain phase starts. Background faults and the
//!   schedule then run in the main phase only, and a scripted drain or
//!   kill the schedule has pre-empted is tolerated;
//! * `upgrade`: the rolling personality upgrade;
//! * `journal`: the write-ahead journal on a hostile disk, its fabric
//!   lane's scripted degrade, heal and SEU, and the seeded whole-cluster
//!   power losses with their recoveries.
//!
//! All randomness flows from one [`SplitMix64`], forked in a fixed
//! order: the per-shard injectors, then the scheduler, then the crash
//! points; the plans are drawn last. The same spec replays byte for
//! byte.

use crate::breaker::BreakerState;
use crate::chaos::{ChaosConfig, ChaosCounts, ChaosEvent, ChaosScheduler, StorageChaos};
use crate::cluster::{Cluster, ClusterConfig, ClusterError, DownReason, ShardState, StreamLoss};
use crate::crash::CrashStormConfig;
use crate::placement::mix64;
use crate::retry::{OpApply, OpToken};
use crate::storm::{audit_spans, ClusterStormConfig, ClusterStormReport, ShardSummary};
use crate::upgrade::{RollingUpgrade, UpgradeStatus};
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use resilience::rng::SplitMix64;
use resilience::FaultInjector;
use std::collections::{BTreeSet, VecDeque};
use stream::{Priority, ServiceError, StreamOutput};
use wal::{
    payload_ranges, CrashKind, DiskStats, FabricHasher, HasherStats, Journal, SharedDisk,
    StorageBackend,
};

/// What one campaign runs: its traffic, its cluster, and the fault
/// sources it turns on beyond background faults and the scripted
/// drain/kill.
pub(crate) struct Spec<'a> {
    /// Traffic shape, background fault rate and the scripted drain/kill.
    pub(crate) storm: &'a ClusterStormConfig,
    /// The cluster the campaign builds.
    pub(crate) cluster: ClusterConfig,
    /// The disturbance schedule, and the probability that an applied
    /// tokenized migration is redelivered with the same token.
    pub(crate) chaos: Option<(ChaosConfig, f64)>,
    /// The rolling upgrade's start tick (0 = never) and its shards.
    pub(crate) upgrade: Option<(u64, &'a [usize])>,
    /// The journal plan: power losses, the lane's width and its events.
    pub(crate) journal: Option<&'a CrashStormConfig>,
}

impl<'a> Spec<'a> {
    /// The plain storm: background faults and the scripted drain/kill
    /// over a homogeneous cluster.
    pub(crate) fn plain(storm: &'a ClusterStormConfig) -> Self {
        let mut cluster = ClusterConfig::homogeneous(storm.shards, storm.admission);
        cluster.checkpoint_interval = storm.checkpoint_interval;
        cluster.health = crate::HealthPolicy {
            abandoned_ticks: storm.abandoned_ticks,
        };
        Spec {
            storm,
            cluster,
            chaos: None,
            upgrade: None,
            journal: None,
        }
    }
}

/// What a campaign found beyond the plain storm's report.
#[derive(Default)]
pub(crate) struct Extra {
    pub(crate) dups_suppressed: u64,
    pub(crate) dup_violations: u64,
    pub(crate) chaos: ChaosCounts,
    pub(crate) upgraded: u64,
    pub(crate) upgrade_skipped: u64,
    pub(crate) crash: CrashTally,
}

/// Power losses, replays and recoveries summed over a campaign.
#[derive(Default)]
pub(crate) struct CrashTally {
    pub(crate) crashes: u64,
    pub(crate) recoveries: u64,
    pub(crate) disk: DiskStats,
    /// Banked per epoch: each recovery hosts a fresh hasher.
    pub(crate) hasher: HasherStats,
    pub(crate) torn_detected: u64,
    pub(crate) corrupt_detected: u64,
    pub(crate) dup_frames_detected: u64,
    pub(crate) frames_replayed: u64,
    pub(crate) streams_restored: u64,
    pub(crate) streams_lost: u64,
    pub(crate) tokens_restored: u64,
    pub(crate) migrations_committed: u64,
    pub(crate) migrations_aborted: u64,
    pub(crate) in_doubt_suppressed: u64,
    pub(crate) in_doubt_reapplied: u64,
    pub(crate) in_doubt_void: u64,
}

/// One planned logical stream.
struct Plan {
    personality: String,
    is_crc: bool,
    seed: u64,
    priority: Priority,
    data: Vec<u8>,
    /// Chunk boundaries (prefix sums, last == data.len()).
    cuts: Vec<usize>,
    arrive_tick: u64,
}

/// Live client-side bookkeeping for an opened stream.
struct Client {
    plan: usize,
    gid: u64,
    next_cut: usize,
    fed_all: bool,
    parked: bool,
    collected: BitVec,
}

impl Client {
    /// The chunk the client offers next.
    fn chunk<'p>(&self, plans: &'p [Plan]) -> &'p [u8] {
        let plan = &plans[self.plan];
        let start = self.next_cut.checked_sub(1).map_or(0, |c| plan.cuts[c]);
        &plan.data[start..plan.cuts[self.next_cut]]
    }

    /// The cluster took the chunk.
    fn advance(&mut self, plans: &[Plan]) {
        self.next_cut += 1;
        self.fed_all = self.next_cut == plans[self.plan].cuts.len();
    }
}

/// Draws every planned stream over the personalities the campaign
/// hosts.
fn gen_plans(cfg: &ClusterStormConfig, rng: &mut SplitMix64) -> Vec<Plan> {
    let mut names: Vec<(String, bool)> = cfg
        .crc_ms
        .iter()
        .map(|m| (format!("eth{m}"), true))
        .collect();
    if cfg.scrambler_m > 0 {
        names.push((format!("wifi{}", cfg.scrambler_m), false));
    }
    assert!(
        !names.is_empty(),
        "a campaign needs at least one personality"
    );
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

/// Hosts every personality on one shard, or on all of them.
fn host(
    cl: &mut Cluster,
    cfg: &ClusterStormConfig,
    shard: Option<usize>,
) -> Result<(), ClusterError> {
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    for &m in &cfg.crc_ms {
        let (name, opts) = (format!("eth{m}"), FlowOptions::dream_with_m(m));
        match shard {
            Some(shard) => cl.host_crc_on(shard, &name, &eth, opts)?,
            None => cl.host_crc(&name, &eth, opts)?,
        }
    }
    if cfg.scrambler_m > 0 {
        let name = format!("wifi{}", cfg.scrambler_m);
        let (spec, opts) = (
            ScramblerSpec::ieee80211(),
            FlowOptions::dream_with_m(cfg.scrambler_m),
        );
        match shard {
            Some(shard) => cl.host_scrambler_on(shard, &name, spec, &opts)?,
            None => cl.host_scrambler(&name, spec, &opts)?,
        }
    }
    Ok(())
}

/// Loss accounting of a campaign against the cluster's record:
/// `(unaccounted, forgotten)`, the losses the cluster recorded that the
/// harness never saw and the losses the harness saw that the cluster no
/// longer records. Both must be zero; counting them apart keeps a
/// forgotten loss from cancelling an unseen one.
fn loss_gaps(recorded: &[StreamLoss], seen: &BTreeSet<u64>) -> (u64, u64) {
    let recorded: BTreeSet<u64> = recorded.iter().map(|l| l.id).collect();
    (
        recorded.difference(seen).count() as u64,
        seen.difference(&recorded).count() as u64,
    )
}

/// Injects one random fabric fault into a serving shard (dead shards
/// are left untouched). Returns whether a fault landed.
fn inject_fault(cl: &mut Cluster, shard: usize, inj: &mut FaultInjector) -> bool {
    let Some(svc) = cl.shard_service_mut(shard) else {
        return false;
    };
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
fn apply_resumes(cl: &mut Cluster, clients: &mut [Client], plans: &[Plan]) {
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

fn oracle_matches(plan: &Plan, collected: &BitVec, out: &StreamOutput) -> bool {
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

/// Shards placement currently trusts: Active with a Closed breaker.
fn eligible_shards(cl: &Cluster) -> Vec<usize> {
    (0..cl.shard_count())
        .filter(|&i| {
            cl.shard_state(i) == Some(ShardState::Active)
                && cl.breaker_state(i) == Some(BreakerState::Closed)
        })
        .collect()
}

/// A random routed stream and a random active target, if both exist.
fn pick_move(cl: &Cluster, rng: &mut SplitMix64) -> Option<(u64, usize)> {
    let routed = cl.route_ids();
    let targets = cl.active_shards();
    if routed.is_empty() || targets.is_empty() {
        return None;
    }
    let gid = routed[rng.below(routed.len())];
    Some((gid, targets[rng.below(targets.len())]))
}

/// Which campaign migration an idempotency token names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenKind {
    /// The migration a transfer fault forces through the sabotaged
    /// channel.
    Transfer,
    /// The random live migration under traffic.
    Random,
    /// The migration a crash point runs inside the flush window; its
    /// `at` is the crash index, not the tick.
    InDoubt,
}

/// The idempotency token of one campaign migration,
/// `mix64(seed ^ (at << shift) ^ gid ^ salt)`. The kind's salt is XORed
/// in after the shift, so a transfer-fault migration and a random one
/// of the same stream in the same tick carry different tokens.
fn migration_token(seed: u64, at: u64, gid: u64, kind: TokenKind) -> OpToken {
    let (shift, salt) = match kind {
        TokenKind::Transfer => (20, 0),
        TokenKind::Random => (20, 1 << 63),
        TokenKind::InDoubt => (40, 0xD0B7),
    };
    OpToken(mix64(seed ^ (at << shift) ^ gid ^ salt))
}

/// Tokenized migrations: every applied token, and how its redeliveries
/// came back.
#[derive(Default)]
struct Tokens {
    dup_prob: f64,
    /// Applied `(token, stream, target)`s; after any later recovery a
    /// redelivery must come back `Duplicate`.
    applied: Vec<(OpToken, u64, usize)>,
    suppressed: u64,
    violations: u64,
}

impl Tokens {
    /// A tokenized migration, redelivered with the same token at
    /// `dup_prob`: exactly one delivery may apply.
    fn migrate(
        &mut self,
        cl: &mut Cluster,
        rng: &mut SplitMix64,
        token: OpToken,
        gid: u64,
        target: usize,
    ) {
        if let Ok(OpApply::Applied) = cl.migrate_with_token(token, gid, target) {
            self.applied.push((token, gid, target));
            if rng.chance(self.dup_prob) {
                self.redeliver(cl, self.applied.len() - 1);
            }
        }
    }

    /// Redelivers the applied tokens from index `from` on.
    fn redeliver(&mut self, cl: &mut Cluster, from: usize) {
        for &(token, gid, target) in &self.applied[from..] {
            match cl.migrate_with_token(token, gid, target) {
                Ok(OpApply::Duplicate) => self.suppressed += 1,
                _ => self.violations += 1,
            }
        }
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

/// The journal fault source: the control plane journals every decision
/// to a simulated disk, the scheduler's storage faults sabotage that
/// disk, and at seeded crash points the whole cluster loses power and
/// recovers from the disk alone.
struct Journaled<'a> {
    plan: &'a CrashStormConfig,
    /// The campaign seed (the lane's SEU and in-doubt tokens use it).
    seed: u64,
    disk: SharedDisk,
    /// Crash points, in-doubt migrations and guaranteed rot draw here.
    rng: SplitMix64,
    points: Vec<u64>,
    /// Crash kind armed by the storage chaos schedule.
    armed: Option<CrashKind>,
    /// Superseded prefix of the disk: everything before the byte length
    /// recorded at the previous crash. Bit rot is confined here — those
    /// frames were re-journaled by the recovery epoch, so rotting them
    /// exercises detection without destroying live state.
    cold_end: usize,
    rots: u64,
    /// Span tables of the doomed epochs, closed as "crashed" at the
    /// power-loss cycle and adopted here so the campaign-wide audit and
    /// trace queries see every operation ever begun. Capacity 1: only
    /// the span table matters, the event ring stays with each epoch.
    spans: obs::Tracer,
    tally: CrashTally,
}

impl<'a> Journaled<'a> {
    fn new(plan: &'a CrashStormConfig, storm: &ClusterStormConfig, mut rng: SplitMix64) -> Self {
        let points = draw_crash_points(&mut rng, plan.crashes, storm.streams);
        Journaled {
            plan,
            seed: storm.seed,
            disk: SharedDisk::new(),
            rng,
            points,
            armed: None,
            cold_end: 0,
            rots: 0,
            spans: obs::Tracer::new(1),
            tally: CrashTally::default(),
        }
    }

    /// A fresh fabric lane for the journal's frame CRCs.
    fn hasher(&self) -> Box<FabricHasher> {
        let lane = FabricHasher::with_m(self.plan.hasher_m);
        Box::new(lane.expect("journal fabric lane hosts at configured M"))
    }

    /// Journal-lane chaos: force the software path, heal through the
    /// ladder, and land an SEU the self-check must catch.
    fn lane_events(&self, cl: &mut Cluster, tick: u64) {
        let plan = self.plan;
        let Some(lane) = cl.journal_mut().map(Journal::hasher_mut) else {
            return;
        };
        if tick == plan.degrade_tick {
            lane.degrade();
        }
        if tick == plan.heal_tick {
            lane.heal();
        }
        if tick == plan.fault_tick {
            lane.inject_fault(self.seed ^ tick);
        }
    }

    fn storage_fault(&mut self, kind: StorageChaos) {
        match kind {
            StorageChaos::TornTail { keep } => {
                self.armed = Some(CrashKind::Torn {
                    keep: keep as usize,
                });
            }
            StorageChaos::LostSuffix => self.armed = Some(CrashKind::LostSuffix),
            StorageChaos::DuplicateAppend => self.disk.arm_duplicate(),
            StorageChaos::BitRot { offset, mask } => self.rot(offset, mask),
        }
    }

    /// XORs `mask` into one payload byte of the cold (superseded)
    /// prefix of the disk, chosen by `offset`, if that prefix has one.
    fn rot(&mut self, offset: u64, mask: u8) {
        if self.cold_end == 0 {
            return;
        }
        let durable = self.disk.durable();
        let ranges = payload_ranges(&durable[..self.cold_end.min(durable.len())]);
        if ranges.is_empty() {
            return;
        }
        let (start, end) = ranges[(offset as usize) % ranges.len()];
        self.disk
            .corrupt_byte(start + ((offset >> 32) as usize) % (end - start), mask);
        self.rots += 1;
    }

    /// Banks an epoch's hasher counters before its cluster goes away.
    fn bank_hasher(&mut self, cl: &Cluster) {
        if let Some(s) = cl.journal().map(Journal::hasher_stats) {
            let total = &mut self.tally.hasher;
            total.frames += s.frames;
            total.software_frames += s.software_frames;
            total.ladder_runs += s.ladder_runs;
        }
    }

    /// Whether the completed count has reached the next crash point.
    fn due(&self, completed: u64) -> bool {
        let next = usize::try_from(self.tally.crashes).unwrap_or(usize::MAX);
        self.points
            .get(next)
            .is_some_and(|&point| completed >= point)
    }

    /// Cuts the power and recovers: leaves unflushed work for the tear
    /// to bite, drops the whole cluster, damages the disk, replays it
    /// through a fresh fabric lane into a new cluster, and reconciles
    /// the clients and every applied token with it.
    fn power_loss(
        &mut self,
        mut cl: Cluster,
        cfg: &ClusterConfig,
        clients: &mut [Client],
        plans: &[Plan],
        tokens: &mut Tokens,
    ) -> Cluster {
        let crash_idx = self.tally.crashes;
        self.tally.crashes += 1;

        // Unflushed work: a few clients feed one more chunk (applied in
        // memory, journaled as pending bytes only), and one in-doubt
        // tokenized migration runs entirely inside the flush window.
        let mut fed = 0;
        for client in clients.iter_mut().filter(|c| !c.fed_all && !c.parked) {
            if fed == 4 {
                break;
            }
            if cl.feed(client.gid, client.chunk(plans)).is_ok() {
                client.advance(plans);
                fed += 1;
            }
        }
        let in_doubt = pick_move(&cl, &mut self.rng).and_then(|(gid, target)| {
            let token = migration_token(self.seed, crash_idx, gid, TokenKind::InDoubt);
            let applied = cl.migrate_with_token(token, gid, target);
            matches!(applied, Ok(OpApply::Applied)).then_some((token, gid, target))
        });

        // Power loss: bank the doomed epoch's hasher counters and its
        // spans — whatever was still open (cross-tick drains, upgrades)
        // was truthfully ended by the power loss, so close it as
        // "crashed" before adopting the table — then drop the whole
        // cluster. Only the disk survives.
        self.bank_hasher(&cl);
        let mut dead_trace = cl.trace().clone();
        dead_trace.close_open_spans(cl.now(), "crashed");
        self.spans.adopt_spans(&dead_trace);
        let pending = self.disk.pending_len();
        let kind = match self.armed.take() {
            Some(CrashKind::Torn { keep }) => CrashKind::Torn {
                keep: keep % pending.max(1),
            },
            Some(k) => k,
            // Default to a torn tail until one has actually bitten so
            // the coverage floor never depends on the draw.
            None if pending > 0 && self.disk.stats().torn_tails == 0 => CrashKind::Torn {
                keep: (pending / 2).max(1),
            },
            None => CrashKind::LostSuffix,
        };
        drop(cl);
        self.disk.crash(kind);
        // Guarantee at least one detectable rot once a superseded
        // prefix exists.
        if crash_idx >= 1 && self.rots == 0 {
            let mask = 1 << (self.rng.below(8) as u8);
            let offset = self.rng.next_u64();
            self.rot(offset, mask);
        }

        // Recovery: replay the durable bytes, then rebuild the control
        // plane from them. `recover` truncates the damaged tail, so the
        // durable length afterwards is exactly the superseded prefix the
        // next epoch's bit rot may chew on.
        let (journal, replay) = Journal::recover(Box::new(self.disk.clone()), self.hasher());
        self.cold_end = self.disk.durable_len();
        let (mut cl, report) = Cluster::recover(cfg, journal, &replay);
        let t = &mut self.tally;
        t.recoveries += 1;
        t.torn_detected += u64::from(replay.torn_tail);
        t.corrupt_detected += replay.corrupt_frames;
        t.dup_frames_detected += replay.duplicate_frames;
        t.frames_replayed += replay.frames_ok;
        t.streams_restored += report.streams_restored;
        t.streams_lost += report.streams_lost;
        t.tokens_restored += report.tokens_restored;
        t.migrations_committed += report.migrations_committed;
        t.migrations_aborted += report.migrations_aborted;

        // Clients rewind to their resume offsets before feeding, and
        // every applied token must be suppressed on redelivery. The
        // in-doubt migration may resolve either way — commit
        // (suppressed) or abort (cleanly re-applied) — but a re-apply
        // only succeeds when the original's effects did not survive.
        apply_resumes(&mut cl, clients, plans);
        tokens.redeliver(&mut cl, 0);
        if let Some((token, gid, target)) = in_doubt {
            match cl.migrate_with_token(token, gid, target) {
                Ok(OpApply::Duplicate) => t.in_doubt_suppressed += 1,
                Ok(OpApply::Applied) => {
                    t.in_doubt_reapplied += 1;
                    tokens.applied.push((token, gid, target));
                }
                Err(_) => t.in_doubt_void += 1,
            }
        }
        cl
    }

    /// Banks the surviving epoch and returns the campaign-wide span
    /// table with the tally.
    fn close(mut self, cl: &Cluster) -> (obs::Tracer, CrashTally) {
        self.bank_hasher(cl);
        // The surviving epoch's spans join the accumulator un-doctored:
        // anything still open here is a genuine leak the audit must flag.
        self.spans.adopt_spans(cl.trace());
        self.tally.disk = self.disk.stats();
        (self.spans, self.tally)
    }
}

/// Runs one campaign.
///
/// # Errors
///
/// Propagates hosting and unexpected shard errors, and a failed
/// scripted drain or kill when no chaos schedule runs; refusals,
/// backpressure, parking, typed losses and everything a fault source
/// causes are handled and counted.
///
/// # Panics
///
/// Panics if the configuration hosts no personalities or the journal's
/// fabric lane cannot be hosted.
#[allow(clippy::too_many_lines)]
pub(crate) fn run(spec: &Spec) -> Result<(ClusterStormReport, Extra), ClusterError> {
    let storm = spec.storm;
    let mut rng = SplitMix64::new(storm.seed);
    let mut injectors: Vec<FaultInjector> = (0..storm.shards)
        .map(|_| FaultInjector::new(rng.fork().next_u64()))
        .collect();
    let mut scheduler = spec
        .chaos
        .map(|(chaos, _)| ChaosScheduler::new(chaos, rng.fork().next_u64()));
    let mut journal = spec
        .journal
        .map(|plan| Journaled::new(plan, storm, rng.fork()));
    let mut tokens = Tokens {
        dup_prob: spec.chaos.map_or(0.0, |(_, p)| p),
        ..Tokens::default()
    };

    let mut cl = Cluster::new(&spec.cluster);
    if let Some(j) = &journal {
        cl.attach_journal(Journal::new(Box::new(j.disk.clone()), j.hasher()));
    }
    host(&mut cl, storm, None)?;
    let plans = gen_plans(storm, &mut rng);
    let mut extra = Extra::default();
    let mut next_plan = 0usize;
    let mut due: VecDeque<usize> = VecDeque::new();
    let mut clients: Vec<Client> = Vec::new();
    let mut seen_losses: BTreeSet<u64> = BTreeSet::new();
    let mut lost_by_reason = [0u64; 4];
    let (mut completed, mut mismatches, mut restarts, mut faults) = (0u64, 0u64, 0u64, 0u64);
    let mut upgrade: Option<RollingUpgrade> = None;
    let mut tick = 0u64;

    while completed < plans.len() as u64 && tick < storm.ticks + 2000 {
        tick += 1;
        let draining = tick > storm.ticks;

        // Entering the drain phase after a chaos siege, capacity drained
        // for maintenance comes back: every shard parked in
        // Down(Drained) is reopened and rehosted so the backlog has
        // somewhere to land. Killed and health-retired shards stay
        // down — their streams already failed over.
        if scheduler.is_some() && tick == storm.ticks + 1 {
            for shard in 0..cl.shard_count() {
                if cl.shard_state(shard) == Some(ShardState::Down(DownReason::Drained))
                    && cl.reopen_shard(shard).is_ok()
                {
                    host(&mut cl, storm, Some(shard))?;
                }
            }
        }

        // The lane events and the disturbance schedule run through the
        // main phase only: the drain phase is chaos-free so the campaign
        // converges and the gates measure recovery, not an endless
        // siege.
        if !draining {
            if let Some(j) = &journal {
                j.lane_events(&mut cl, tick);
            }
            let events = scheduler
                .as_mut()
                .map(|s| s.draw(&eligible_shards(&cl), &cl.active_shards()));
            for event in events.unwrap_or_default() {
                match event {
                    ChaosEvent::Slowdown { shard, ticks } => cl.chaos_slow_shard(shard, ticks),
                    ChaosEvent::TransferFault(mode) => {
                        // Force a migration through the sabotaged
                        // channel right now: detach, digest mismatch,
                        // typed undo, tokenized retry.
                        cl.chaos_arm_transfer(mode);
                        if let Some((gid, target)) = pick_move(&cl, &mut rng) {
                            let token = migration_token(storm.seed, tick, gid, TokenKind::Transfer);
                            tokens.migrate(&mut cl, &mut rng, token, gid, target);
                        }
                    }
                    ChaosEvent::ByzantineHealth { shard, ticks } => {
                        cl.chaos_lie_health(shard, ticks);
                    }
                    ChaosEvent::FaultFlap { shard, burst } => {
                        for _ in 0..burst {
                            faults +=
                                u64::from(inject_fault(&mut cl, shard, &mut injectors[shard]));
                        }
                    }
                    ChaosEvent::AdmissionStorm { extra } => {
                        let pulled = extra.min(plans.len() - next_plan);
                        due.extend(next_plan..next_plan + pulled);
                        next_plan += pulled;
                    }
                    // Storage faults need a disk; without a journal
                    // there is none to sabotage.
                    ChaosEvent::StorageFault(kind) => {
                        if let Some(j) = journal.as_mut() {
                            j.storage_fault(kind);
                        }
                    }
                }
            }
        }

        // Background fabric fault noise: every tick of a plain storm,
        // the main phase only under a chaos schedule.
        if scheduler.is_none() || !draining {
            for (shard, injector) in injectors.iter_mut().enumerate() {
                if rng.chance(storm.fault_prob) {
                    faults += u64::from(inject_fault(&mut cl, shard, injector));
                }
            }
        }

        // The scripted lifecycle events and the rolling upgrade. Under
        // a chaos schedule a failed drain or kill is tolerated: the
        // schedule may already have retired the shard.
        if tick == storm.drain_tick {
            let drained = cl.drain_shard(storm.drain_shard);
            if scheduler.is_none() {
                drained?;
            }
        }
        if tick == storm.kill_tick {
            let killed = cl.kill_shard(storm.kill_shard);
            if scheduler.is_none() {
                killed?;
            }
        }
        if let Some((at, shards)) = spec.upgrade {
            if tick == at {
                upgrade = Some(RollingUpgrade::new(shards.to_vec()));
            }
        }
        if let Some(up) = upgrade.as_mut() {
            match up.step(&mut cl) {
                UpgradeStatus::NeedsRehost(shard) => {
                    host(&mut cl, storm, Some(shard))?;
                    extra.upgraded += 1;
                }
                UpgradeStatus::Skipped(_) => extra.upgrade_skipped += 1,
                UpgradeStatus::Draining(_) => {}
                UpgradeStatus::Done => upgrade = None,
            }
        }
        // Rewind any client whose stream a kill just replayed, before
        // it feeds at its (now stale) position.
        apply_resumes(&mut cl, &mut clients, &plans);

        // Arrivals due this tick join the open queue; lost streams
        // already sit in it awaiting a restart.
        while next_plan < plans.len() && (plans[next_plan].arrive_tick <= tick || draining) {
            due.push_back(next_plan);
            next_plan += 1;
        }
        while let Some(&pi) = due.front() {
            let plan = &plans[pi];
            let budget = 4 + rng.below(8) as u64;
            let opened = if plan.is_crc {
                cl.open_crc(&plan.personality, plan.priority, budget)
            } else {
                cl.open_scrambler(&plan.personality, plan.seed, plan.priority, budget)
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
            if client.fed_all || client.parked || (!draining && !rng.chance(0.8)) {
                continue;
            }
            match cl.feed(client.gid, client.chunk(&plans)) {
                Ok(()) => client.advance(&plans),
                Err(ClusterError::Shard(
                    ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                )) => {}
                Err(ClusterError::Shard(ServiceError::StreamParked(_))) => client.parked = true,
                // A loss is reconciled in the loss pass below.
                Err(ClusterError::StreamLost { .. } | ClusterError::ShardDown(_)) => {}
                Err(e) => return Err(e),
            }
        }

        // Random live migration under traffic: tokenized under a chaos
        // schedule, plain otherwise. Refusals (fenced target, racing
        // loss) are typed and leave the stream where it was.
        if rng.chance(storm.migrate_prob) {
            if let Some((gid, target)) = pick_move(&cl, &mut rng) {
                if scheduler.is_some() {
                    let token = migration_token(storm.seed, tick, gid, TokenKind::Random);
                    tokens.migrate(&mut cl, &mut rng, token, gid, target);
                } else {
                    let _ = cl.migrate(gid, target);
                }
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
                due.push_back(clients.swap_remove(pos).plan);
                restarts += 1;
            }
        }

        // Collect scrambler output; resume shard-parked clients.
        for client in &mut clients {
            if client.parked {
                if cl.resume(client.gid).is_err() {
                    continue;
                }
                client.parked = false;
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

        if let Some(j) = journal.as_mut() {
            if j.due(completed) {
                cl = j.power_loss(cl, &spec.cluster, &mut clients, &plans, &mut tokens);
            }
        }
    }

    let tracer = match journal {
        Some(j) => {
            let (tracer, tally) = j.close(&cl);
            extra.crash = tally;
            tracer
        }
        None => cl.trace().clone(),
    };
    extra.chaos = scheduler.map(|s| s.counts()).unwrap_or_default();
    extra.dups_suppressed = tokens.suppressed;
    extra.dup_violations = tokens.violations;
    let (losses_unaccounted, losses_forgotten) = loss_gaps(&cl.losses(), &seen_losses);
    let shard_lines = (0..storm.shards)
        .map(|i| {
            let c = cl.shard_service(i).expect("index in range").counters();
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
    let report = ClusterStormReport {
        seed: storm.seed,
        shards: storm.shards,
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
        faults_injected: faults,
        ticks_run: tick,
        counters: cl.counters(),
        shard_lines,
        metrics: cl.metrics_merged(),
        spans: audit_spans(&tracer),
        tracer,
        trace_log: cl.trace().render(),
    };
    Ok((report, extra))
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
    fn distinct_migrations_get_distinct_tokens() {
        let mut seen = BTreeSet::new();
        for kind in [TokenKind::Transfer, TokenKind::Random] {
            for tick in 1..=400 {
                for gid in 0..200 {
                    let token = migration_token(2008, tick, gid, kind);
                    assert!(seen.insert(token), "{kind:?} tick {tick} stream {gid}");
                }
            }
        }
        for crash in 0..8 {
            for gid in 0..200 {
                let token = migration_token(2008, crash, gid, TokenKind::InDoubt);
                assert!(seen.insert(token), "in-doubt crash {crash} stream {gid}");
            }
        }
    }

    #[test]
    fn crash_points_are_distinct_sorted_and_mid_campaign() {
        let mut rng = SplitMix64::new(7);
        let points = draw_crash_points(&mut rng, 3, 160);
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(points.iter().all(|&p| (1..=120).contains(&p)));
    }
}
