//! `stream_storm`: the `StormConfig::full` shape driven through
//! `StreamService`'s public API.
//!
//! 4,000 streams of 5–48 B chunks over five personalities (more than
//! the 4 fabric contexts hold, so the configuration cache thrashes),
//! seeded fabric faults and an overload window. Arrivals are open-loop
//! on the simulated clock; a refused client retries on the next tick.
//! The host runs the simulation as fast as it can. Each round is one
//! whole storm on a fresh service; every digest is checked against
//! `crc_bitwise` or `AdditiveScrambler`.

use crate::report::{add_stack_counters, random_bytes, round_seed, timed, Outcome, RunOpts};
use crate::trace::Recorder;
use dream::ControlModel;
use dream_lfsr::FlowOptions;
use gf2::BitVec;
use lfsr::crc::crc_bitwise;
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use picoga::PicogaParams;
use resilience::rng::SplitMix64;
use resilience::{FaultInjector, RecoveryPolicy, ResilientSystem};
use std::time::Instant;
use stream::{OverloadLevel, Priority, ServiceError, StormConfig, StreamOutput, StreamService};

/// One planned logical stream.
pub struct Plan {
    /// Personality name.
    pub personality: String,
    /// CRC (else scrambler) stream.
    pub is_crc: bool,
    /// Scrambler seed.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: Priority,
    /// The whole payload.
    pub data: Vec<u8>,
    /// Chunk ends (prefix sums; the last is `data.len()`).
    pub cuts: Vec<usize>,
    /// Tick the client first offers the stream.
    pub arrive_tick: u64,
}

impl Plan {
    /// Byte range of chunk `i`.
    #[must_use]
    pub fn chunk(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.cuts[i - 1] };
        start..self.cuts[i]
    }

    /// Whether the delivered output equals the software oracle's.
    #[must_use]
    pub fn oracle_matches(&self, collected: &BitVec, out: &StreamOutput) -> bool {
        match (self.is_crc, out) {
            (true, StreamOutput::Crc(got)) => {
                *got == crc_bitwise(crate::fabric_bulk::eth(), &self.data)
            }
            (false, StreamOutput::Scrambled(tail)) => {
                let mut oracle =
                    AdditiveScrambler::with_seed(ScramblerSpec::ieee80211(), self.seed)
                        .expect("seed fits the 7-bit register");
                let frame = BitVec::from_le_bytes(&self.data, self.data.len() * 8);
                collected.concat(tail) == oracle.scramble(&frame)
            }
            _ => false,
        }
    }
}

/// Draws one stream's shape: personality, chunks, seed and priority.
pub fn draw_plan(
    rng: &mut SplitMix64,
    names: &[(String, bool)],
    chunk_bytes: (usize, usize),
    chunks: (usize, usize),
    arrive_tick: u64,
) -> Plan {
    let (personality, is_crc) = names[rng.below(names.len())].clone();
    let n_chunks = chunks.0 + rng.below(chunks.1 - chunks.0 + 1);
    let mut data = Vec::new();
    let mut cuts = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let len = chunk_bytes.0 + rng.below(chunk_bytes.1 - chunk_bytes.0 + 1);
        data.extend(random_bytes(rng, len));
        cuts.push(data.len());
    }
    Plan {
        personality,
        is_crc,
        seed: rng.next_u64() & 0x7F,
        priority: if rng.chance(0.3) {
            Priority::High
        } else {
            Priority::Low
        },
        data,
        cuts,
        arrive_tick,
    }
}

/// Plans with the storm's arrival curve: `base_arrivals` per tick,
/// `spike_arrivals` inside the overload window.
fn gen_plans(cfg: &StormConfig, rng: &mut SplitMix64, names: &[(String, bool)]) -> Vec<Plan> {
    let per_tick = |t: u64| {
        if (cfg.overload_window.0..cfg.overload_window.1).contains(&t) {
            cfg.spike_arrivals.max(1)
        } else {
            cfg.base_arrivals.max(1)
        }
    };
    let mut tick = 1;
    let mut slots = per_tick(tick);
    (0..cfg.streams)
        .map(|_| {
            while slots == 0 {
                tick += 1;
                slots = per_tick(tick);
            }
            slots -= 1;
            draw_plan(rng, names, cfg.chunk_bytes, cfg.chunks_per_stream, tick)
        })
        .collect()
}

/// Corrupts one resident context: a wire flip (SEU), or 15% of the
/// time a stuck cell.
pub fn inject_fault(rs: &mut ResilientSystem, inj: &mut FaultInjector) -> bool {
    let stuck = inj.rng().chance(0.15);
    let fabric = rs.system().fabric();
    let resident: Vec<usize> = (0..16).filter(|&s| fabric.context(s).is_some()).collect();
    if resident.is_empty() {
        return false;
    }
    let slot = resident[inj.rng().below(resident.len())];
    let op = fabric.context(slot).expect("listed above").clone();
    let fault = if stuck {
        inj.random_stuck_cell(&op)
    } else {
        inj.random_wire_flip(slot, &op)
    };
    fault.is_some_and(|f| rs.system_mut().fabric_mut().inject(&f).is_ok())
}

struct Client {
    plan: usize,
    id: u64,
    next_cut: usize,
    fed_all: bool,
    parked: bool,
    collected: BitVec,
}

/// Builds a service and hosts the storm's personalities.
fn build_service(cfg: &StormConfig) -> Result<(StreamService, Vec<(String, bool)>), ServiceError> {
    let rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::stream_serving(),
    );
    let mut svc = StreamService::new(rs, cfg.admission);
    let mut names = Vec::new();
    for &m in &cfg.crc_ms {
        let name = format!("eth{m}");
        svc.host_crc(
            &name,
            crate::fabric_bulk::eth(),
            FlowOptions::dream_with_m(m),
        )?;
        names.push((name, true));
    }
    let name = format!("wifi{}", cfg.scrambler_m);
    svc.host_scrambler(
        &name,
        ScramblerSpec::ieee80211(),
        &FlowOptions::dream_with_m(cfg.scrambler_m),
    )?;
    names.push((name, false));
    Ok((svc, names))
}

/// Host time and payload of one storm.
#[derive(Default)]
struct Round {
    serve_s: f64,
    completed: u64,
    crc_bytes: u64,
    scr_bytes: u64,
}

#[allow(clippy::too_many_lines)]
fn run_round(k: u64, seed: u64, out: &mut Outcome, rec: &mut Recorder) -> Result<Round, String> {
    let cfg = StormConfig::full(round_seed(seed, k));
    let mut rng = SplitMix64::new(cfg.seed);
    let mut inj = FaultInjector::new(rng.fork().next_u64());
    let span = rec.begin("bench.setup", k);
    let (built, dt) = timed(|| build_service(&cfg));
    rec.end(span);
    out.setup_s.push(dt);
    let (mut svc, names) = built.map_err(|e| format!("hosting: {e}"))?;
    let plans = gen_plans(&cfg, &mut rng, &names);
    out.attempted += plans.len() as u64;

    let mut r = Round::default();
    let mut clients: Vec<Client> = Vec::new();
    let mut next_plan = 0;
    let mut mismatches = 0;
    let (mut attempts, mut refused) = (0u64, 0u64);
    let mut tick = 0;
    let budget = cfg.ticks + 2000;
    while r.completed < plans.len() as u64 && tick < budget {
        tick += 1;
        let draining = tick > cfg.ticks;
        let t_tick = Instant::now();
        let tick_span = rec.begin("bench.tick", tick);

        if rng.chance(cfg.fault_prob) {
            rec.time("resilience.inject", tick, || {
                inject_fault(svc.system_mut(), &mut inj)
            });
        }
        while next_plan < plans.len() && (plans[next_plan].arrive_tick <= tick || draining) {
            let plan = &plans[next_plan];
            let ttl = 4 + rng.below(8) as u64;
            attempts += 1;
            let s = rec.begin("stream.open", next_plan as u64);
            let opened = if plan.is_crc {
                svc.open_crc(&plan.personality, plan.priority, ttl)
            } else {
                svc.open_scrambler(&plan.personality, plan.seed, plan.priority, ttl)
            };
            rec.end(s);
            match opened {
                Ok(id) => {
                    clients.push(Client {
                        plan: next_plan,
                        id,
                        next_cut: 0,
                        fed_all: false,
                        parked: false,
                        collected: BitVec::zeros(0),
                    });
                    next_plan += 1;
                }
                Err(
                    ServiceError::RejectedByBucket
                    | ServiceError::RejectedByOverload
                    | ServiceError::RejectedByCapacity,
                ) => {
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
            let s = rec.begin("stream.feed", c.id);
            let fed = svc.feed(c.id, &plan.data[plan.chunk(c.next_cut)]);
            rec.end(s);
            match fed {
                Ok(()) => {
                    c.next_cut += 1;
                    c.fed_all = c.next_cut == plan.cuts.len();
                }
                Err(
                    ServiceError::StreamQueueFull { .. } | ServiceError::GlobalQueueFull { .. },
                ) => {
                    refused += 1;
                }
                Err(ServiceError::UnknownStream(_)) => c.parked = true,
                Err(e) => return Err(format!("feed: {e}")),
            }
        }

        rec.time("stream.tick", tick, || svc.tick())
            .map_err(|e| format!("tick: {e}"))?;

        let parked_now = svc.parked_ids();
        for c in &mut clients {
            if parked_now.contains(&c.id) {
                c.parked = true;
            } else if !c.parked && !plans[c.plan].is_crc {
                if let Ok(bits) = rec.time("stream.collect", c.id, || svc.collect(c.id)) {
                    c.collected = c.collected.concat(&bits);
                }
            }
        }
        if draining || svc.level() < OverloadLevel::RejectNew {
            for c in clients.iter_mut().filter(|c| c.parked) {
                if rec.time("stream.resume", c.id, || svc.resume(c.id)).is_ok() {
                    c.parked = false;
                }
            }
        }

        let mut done = Vec::new();
        for (ci, c) in clients.iter_mut().enumerate() {
            if !c.fed_all || c.parked {
                continue;
            }
            match rec.time("stream.finish", c.id, || svc.finish(c.id)) {
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
                Err(ServiceError::StreamParked(_)) => c.parked = true,
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
    }

    out.fail("oracle_mismatch", mismatches);
    out.fail("unfinished", plans.len() as u64 - r.completed);
    if k == 0 {
        add_stack_counters(out, svc.system());
        let payload = r.crc_bytes + r.scr_bytes;
        out.add_sim("payload_bits", payload * 8);
        out.add_sim("stream.ticks", tick);
        out.add_sim("stream.attempts", attempts);
        out.add_sim("stream.refused", refused);
        out.add_sim("stream.queue_depth_p99", svc.queue_depth_stats().p99);
        let c = svc.counters();
        for (key, v) in [
            ("stream.completed", c.completed),
            ("stream.chunks_processed", c.chunks_processed),
            ("stream.checkpoints", c.checkpoints),
            ("stream.restores", c.restores),
            ("stream.parked_idle", c.parked_idle),
            ("stream.degraded_low_priority", c.degraded_low_priority),
            ("stream.fault_rollbacks", c.fault_rollbacks),
            // Streams leave the fabric through the serving layer, not
            // dream's per-message fallback, so both count as software runs.
            ("resilience.software_runs", c.migrated_to_software),
            (
                "stream.rejected",
                c.rejected_admission
                    + c.rejected_overload
                    + c.rejected_capacity
                    + c.rejected_queue_full
                    + c.rejected_global_full,
            ),
        ] {
            out.add_sim(key, v);
        }
    }
    Ok(r)
}

/// Runs the workload.
///
/// # Errors
///
/// Hosting failures and unexpected service errors.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.fail("oracle_mismatch", 0);
    out.fail("unfinished", 0);
    let t0 = Instant::now();
    let mut k = 0;
    while opts.more(t0, k, out.step_us.len()) {
        let t_round = Instant::now();
        let span = rec.begin("bench.round", k);
        let r = run_round(k, opts.seed, &mut out, rec)?;
        rec.end(span);
        let wall_s = t_round.elapsed().as_secs_f64();
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
