//! `fabric_bulk`: one closed-loop client with one call outstanding, on
//! one `ResilientSystem` under the standard policy (a self-check every
//! 4th guarded message).
//!
//! Each round sends a batch per personality, so the 4-context
//! configuration cache mostly hits: CRC-32/ETHERNET at M ∈ {8, 32, 128}
//! on 64 B, 1,500 B and 64 KiB messages, then the 802.11 scrambler at
//! M = 16 on 64 B and 1,500 B frames. Every CRC is checked against
//! `crc_bitwise` and every frame against `AdditiveScrambler`.

use crate::report::{add_stack_counters, random_bytes, round_seed, timed, Outcome, RunOpts};
use crate::trace::Recorder;
use dream::ControlModel;
use dream_lfsr::{build_scrambler_personality, FlowOptions};
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use picoga::PicogaParams;
use resilience::rng::SplitMix64;
use resilience::{RecoveryPolicy, ResilientSystem};
use std::time::Instant;

/// The hosted CRC personalities: (name, M).
pub const CRCS: [(&str, usize); 3] = [("eth8", 8), ("eth32", 32), ("eth128", 128)];
/// The hosted scrambler personality.
pub const SCRAMBLER: (&str, usize) = ("wifi16", 16);
/// CRC messages per personality per round: (bytes, count).
const CRC_MIX: [(usize, usize); 3] = [(64, 24), (1500, 16), (65536, 1)];
/// The call a step latency times: a 1,500 B message at M = 128. One
/// personality and size only, so the step median is one kind of call
/// and the tail is the self-check riding on every 4th message.
const STEP: (&str, usize) = ("eth128", 1500);
/// Scrambler frames per round: (bytes, count). About a third of a
/// round's host time, so `scramble_MBps` rests on as much time as CRC.
const SCRAMBLE_MIX: [(usize, usize); 2] = [(64, 64), (1500, 16)];
/// A throwaway stack is built after every this many rounds, so the
/// `setup_s` samples are spread over the whole run.
const SETUP_EVERY: u64 = 3;

/// The CRC every personality computes.
pub fn eth() -> &'static CrcSpec {
    CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry")
}

/// Builds the stack and hosts every personality.
///
/// # Errors
///
/// Hosting failures, rendered.
pub fn build_stack(rec: &mut Recorder) -> Result<ResilientSystem, String> {
    let s = rec.begin("bench.setup", 0);
    let mut rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::standard(),
    );
    for (name, m) in CRCS {
        rec.time("resilience.host", m as u64, || {
            rs.host(name, eth(), FlowOptions::dream_with_m(m))
        })
        .map_err(|e| format!("hosting {name}: {e}"))?;
    }
    let (name, m) = SCRAMBLER;
    let p = rec
        .time("flow.build_scrambler_personality", m as u64, || {
            build_scrambler_personality(
                name,
                ScramblerSpec::ieee80211(),
                &FlowOptions::dream_with_m(m),
            )
        })
        .map_err(|e| format!("building {name}: {e}"))?;
    rs.system_mut()
        .register_scrambler(p)
        .map_err(|e| format!("registering {name}: {e}"))?;
    rec.end(s);
    Ok(rs)
}

/// Shuffled message sizes of one batch.
fn batch(rng: &mut SplitMix64, mix: &[(usize, usize)]) -> Vec<usize> {
    let mut sizes: Vec<usize> = mix
        .iter()
        .flat_map(|&(len, n)| std::iter::repeat_n(len, n))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i + 1));
    }
    sizes
}

/// Per-round tallies.
#[derive(Default)]
struct Round {
    crc_bytes: u64,
    crc_s: f64,
    scr_bytes: u64,
    scr_s: f64,
    messages: u64,
    modelled_cycles: u64,
}

fn run_round(
    rs: &mut ResilientSystem,
    seed: u64,
    k: u64,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Round {
    let mut rng = SplitMix64::new(round_seed(seed, k));
    let mut r = Round::default();
    for (name, _) in CRCS {
        for len in batch(&mut rng, &CRC_MIX) {
            let data = random_bytes(&mut rng, len);
            out.attempted += 1;
            let s = rec.begin("resilience.checksum_guarded", len as u64);
            let (res, dt) = timed(|| rs.checksum_guarded(name, &data));
            rec.end(s);
            match res {
                Ok(run) => {
                    r.crc_bytes += len as u64;
                    r.crc_s += dt;
                    r.messages += 1;
                    r.modelled_cycles += run.cycles;
                    if (name, len) == STEP {
                        out.step_us.push(dt * 1e6);
                    }
                    if k == 0 {
                        out.add_sim("payload_bits", len as u64 * 8);
                        out.add_sim("bulk.crc_messages", 1);
                        out.add_sim("bulk.software_answers", u64::from(run.software));
                    }
                    out.fail(
                        "oracle_mismatch",
                        u64::from(run.crc != crc_bitwise(eth(), &data)),
                    );
                }
                Err(_) => out.fail("hard_error", 1),
            }
            out.probe_pace();
        }
    }
    let (name, _) = SCRAMBLER;
    for len in batch(&mut rng, &SCRAMBLE_MIX) {
        let data = random_bytes(&mut rng, len);
        let frame = BitVec::from_le_bytes(&data, len * 8);
        let scr_seed = 1 + rng.below(127) as u64;
        out.attempted += 1;
        let s = rec.begin("dream.scramble", len as u64);
        let (res, dt) = timed(|| rs.system_mut().scramble(name, scr_seed, &frame));
        rec.end(s);
        match res {
            Ok((got, report)) => {
                r.scr_bytes += len as u64;
                r.scr_s += dt;
                r.messages += 1;
                r.modelled_cycles += report.total_cycles();
                if k == 0 {
                    out.add_sim("payload_bits", len as u64 * 8);
                    out.add_sim("bulk.scrambled_frames", 1);
                }
                let mut oracle = AdditiveScrambler::with_seed(ScramblerSpec::ieee80211(), scr_seed)
                    .expect("seed fits the 7-bit register");
                out.fail("oracle_mismatch", u64::from(got != oracle.scramble(&frame)));
            }
            Err(_) => out.fail("hard_error", 1),
        }
        out.probe_pace();
    }
    r
}

/// Runs the workload.
///
/// # Errors
///
/// Stack build failures.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let (built, dt) = timed(|| build_stack(rec));
    out.setup_s.push(dt);
    let mut rs = built?;
    out.fail("oracle_mismatch", 0);
    out.fail("hard_error", 0);

    let mut k = 0;
    while opts.more(t0, k, out.step_us.len()) {
        if k > 0 && k % SETUP_EVERY == 0 {
            let (built, dt) = timed(|| build_stack(rec));
            out.setup_s.push(dt);
            built?;
        }
        let t_round = Instant::now();
        let span = rec.begin("bench.round", k);
        let r = run_round(&mut rs, opts.seed, k, &mut out, rec);
        rec.end(span);
        let wall_s = t_round.elapsed().as_secs_f64();
        if k == 0 {
            add_stack_counters(&mut out, &rs);
            let fabric = rs.system().counters().total();
            out.add_sim(
                "dream.control_tail_cycles",
                r.modelled_cycles.saturating_sub(fabric),
            );
        }
        let pace = out.end_round(r.crc_s + r.scr_s, wall_s);
        out.crc_mbps.push(r.crc_bytes as f64 / 1e6 / r.crc_s * pace);
        out.scramble_mbps
            .push(r.scr_bytes as f64 / 1e6 / r.scr_s * pace);
        out.streams_per_s
            .push(r.messages as f64 / (r.crc_s + r.scr_s) * pace);
        k += 1;
    }
    Ok(out)
}
