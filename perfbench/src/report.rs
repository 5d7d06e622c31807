//! What one workload run measured, and the helpers every workload loop
//! shares.

use crate::pace::{unit_ns, NOMINAL_NS};
use crate::stats::Summary;
use resilience::rng::SplitMix64;
use resilience::ResilientSystem;
use std::collections::BTreeMap;
use std::time::Instant;

/// The modelled fabric clock (paper §5: PiCoGA at 200 MHz).
pub const CLOCK_HZ: f64 = 200e6;

/// How long a workload loop runs.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed; round `k` draws its inputs from `(seed, k)`.
    pub seed: u64,
    /// Host seconds to keep starting rounds for.
    pub seconds: f64,
    /// Step-latency samples to collect before stopping, so the tail
    /// percentile has ten samples beyond it.
    pub min_steps: usize,
}

impl RunOpts {
    /// One round and nothing else (the warm-up before the tracing
    /// overhead is measured).
    #[must_use]
    pub fn single(seed: u64) -> Self {
        RunOpts {
            seed,
            seconds: 0.0,
            min_steps: 0,
        }
    }

    /// Whether a loop that started at `t0`, has run `rounds` rounds
    /// and collected `steps` latency samples should start another.
    /// Round 0, the deterministic fingerprint, always runs.
    #[must_use]
    pub fn more(&self, t0: Instant, rounds: u64, steps: usize) -> bool {
        rounds == 0 || t0.elapsed().as_secs_f64() < self.seconds || steps < self.min_steps
    }
}

/// The seed of round `k` of a run seeded with `seed`.
#[must_use]
pub fn round_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: messages, streams and recoveries.
    pub attempted: u64,
    /// Failures by kind (oracle mismatches, unfinished streams,
    /// unaccounted losses, double-applies, hard errors).
    pub failures: BTreeMap<&'static str, u64>,
    /// Host seconds per stack build (every personality hosted), paced
    /// by the round it belongs to once that round ends.
    pub setup_s: Vec<f64>,
    /// CRC payload MB per paced host second, one sample per round.
    pub crc_mbps: Vec<f64>,
    /// Scrambler payload MB per paced host second, one sample per round.
    pub scramble_mbps: Vec<f64>,
    /// Completed streams (or messages) per paced host second, per round.
    pub streams_per_s: Vec<f64>,
    /// Raw step latencies in µs: one closed-loop call or one client-loop
    /// tick.
    pub step_us: Vec<f64>,
    /// Paced median and p90 of each round's step latencies, in µs.
    pub round_steps: Vec<(f64, f64)>,
    /// Host ms per crash recovery (journal replay + cluster fold).
    pub recover_ms: Vec<f64>,
    /// Host seconds of the measured calls in each round.
    pub round_s: Vec<f64>,
    /// Host seconds of each whole round, recorder calls included.
    pub round_wall_s: Vec<f64>,
    /// Pace of each round (see [`crate::pace`]): 1 is the nominal host
    /// speed, above 1 the host ran slow.
    pub pace: Vec<f64>,
    /// Reference nanoseconds and units probed in the open round.
    pace_ns: f64,
    pace_units: u64,
    /// Steps already summarised into `round_steps`.
    steps_closed: usize,
    /// Set-up samples already paced.
    setups_closed: usize,
    /// Deterministic simulated counters of round 0 (the fingerprint).
    pub sim: BTreeMap<&'static str, u64>,
    /// Per-layer figures only this workload can measure (traced runs).
    pub layer: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Adds `n` failures of `kind` (a zero is recorded too, so every
    /// kind the workload checks shows in the report).
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        *self.failures.entry(kind).or_default() += n;
    }

    /// Total failures.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Times one reference unit. Workloads call this after each measured
    /// call or tick, so a round's pace samples the host while the round's
    /// work ran.
    pub fn probe_pace(&mut self) {
        self.pace_ns += unit_ns(self.pace_units);
        self.pace_units += 1;
    }

    /// Closes a round: its measured-call seconds and its whole wall time.
    /// Returns the round's pace, by which the caller scales its rates.
    pub fn end_round(&mut self, serve_s: f64, wall_s: f64) -> f64 {
        self.probe_pace();
        let pace = self.pace_ns / self.pace_units as f64 / NOMINAL_NS;
        (self.pace_ns, self.pace_units) = (0.0, 0);
        self.close_round(serve_s, wall_s, pace);
        pace
    }

    /// Closes a round run at `pace`: paces the set-ups and steps it
    /// added and summarises its steps.
    fn close_round(&mut self, serve_s: f64, wall_s: f64, pace: f64) {
        let s = Summary::of(&self.step_us[self.steps_closed..]);
        self.round_steps.push((s.p50 / pace, s.p90 / pace));
        self.steps_closed = self.step_us.len();
        for dt in &mut self.setup_s[self.setups_closed..] {
            *dt /= pace;
        }
        self.setups_closed = self.setup_s.len();
        self.round_s.push(serve_s);
        self.round_wall_s.push(wall_s);
        self.pace.push(pace);
    }

    /// Adds `n` to simulated counter `key`.
    pub fn add_sim(&mut self, key: &'static str, n: u64) {
        *self.sim.entry(key).or_default() += n;
    }

    /// Modelled cycles of the fingerprint round (fabric + control + tail).
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        [
            "picoga.compute_cycles",
            "picoga.context_switch_cycles",
            "picoga.context_load_cycles",
            "dream.control_tail_cycles",
        ]
        .iter()
        .map(|k| self.sim.get(k).copied().unwrap_or(0))
        .sum()
    }

    /// Payload Gbit/s on the modelled clock.
    #[must_use]
    pub fn sim_gbps(&self) -> f64 {
        let bits = self.sim.get("payload_bits").copied().unwrap_or(0) as f64;
        let cycles = self.sim_cycles().max(1) as f64;
        bits * CLOCK_HZ / cycles / 1e9
    }

    /// FNV-1a digest over the simulated counters, in name order.
    #[must_use]
    pub fn sim_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.sim {
            for b in format!("{k}={v}\n").bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Adds one serving stack's fabric counters (cycles by cause, cache
/// and recovery-ladder counts) to the fingerprint.
pub fn add_stack_counters(out: &mut Outcome, rs: &ResilientSystem) {
    let c = rs.system().counters();
    out.add_sim("picoga.compute_cycles", c.compute);
    out.add_sim("picoga.context_switch_cycles", c.context_switch);
    out.add_sim("picoga.context_load_cycles", c.context_load);
    out.add_sim("picoga.stall_cycles", rs.obs().profiler.fill_drain_stalls());
    let reg = &rs.obs().registry;
    for (key, name) in [
        ("dream.cache_hits", "dream.cache.hits"),
        ("dream.cache_misses", "dream.cache.misses"),
        ("dream.cache_evictions", "dream.cache.evictions"),
        ("resilience.self_checks", "dream.resilience.scrub_runs"),
        ("resilience.ladder_runs", "resilience.recoveries"),
        (
            "resilience.software_runs",
            "dream.resilience.fallback_messages",
        ),
    ] {
        out.add_sim(key, reg.counter_by_name(name).unwrap_or(0));
    }
}

/// Random payload bytes.
pub fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// Host seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_counter() {
        let mut a = Outcome::default();
        a.add_sim("x", 1);
        a.add_sim("y", 2);
        let mut b = Outcome::default();
        b.add_sim("y", 2);
        b.add_sim("x", 1);
        assert_eq!(a.sim_digest(), b.sim_digest());
        b.add_sim("x", 1);
        assert_ne!(a.sim_digest(), b.sim_digest());
    }

    #[test]
    fn each_round_summarises_only_its_own_steps() {
        let mut o = Outcome::default();
        o.step_us.extend([1.0, 2.0, 3.0]);
        o.close_round(0.1, 0.2, 1.0);
        o.step_us.extend([10.0, 30.0]);
        o.close_round(0.1, 0.2, 1.0);
        assert_eq!(o.round_steps, vec![(2.0, 3.0), (20.0, 30.0)]);
        assert_eq!(o.round_wall_s, vec![0.2, 0.2]);
    }

    #[test]
    fn a_round_paces_only_its_own_steps_and_setups() {
        let mut o = Outcome::default();
        o.setup_s.push(0.4);
        o.step_us.extend([10.0, 30.0]);
        o.close_round(0.1, 0.2, 2.0);
        o.setup_s.push(0.4);
        o.step_us.extend([10.0, 30.0]);
        o.close_round(0.1, 0.2, 1.0);
        assert_eq!(o.round_steps, vec![(10.0, 15.0), (20.0, 30.0)]);
        assert_eq!(o.setup_s, vec![0.2, 0.4]);
        assert_eq!(o.pace, vec![2.0, 1.0]);
        // Raw samples stay raw; a measured round has a positive pace.
        assert_eq!(o.step_us[3], 30.0);
        assert!(o.end_round(0.1, 0.2) > 0.0);
    }

    #[test]
    fn sim_gbps_uses_every_cycle_cause() {
        let mut o = Outcome::default();
        o.add_sim("payload_bits", 2_000);
        o.add_sim("picoga.compute_cycles", 100);
        o.add_sim("dream.control_tail_cycles", 100);
        // 2,000 bits in 200 cycles at 200 MHz = 2 Gbit/s.
        assert!((o.sim_gbps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn round_seeds_differ_per_round_and_repeat_per_seed() {
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_ne!(round_seed(1, 0), round_seed(2, 0));
        assert_eq!(round_seed(7, 3), round_seed(7, 3));
    }
}
