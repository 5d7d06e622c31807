//! Seeded fault-injection campaigns: injection rate × M × policy.
//!
//! A campaign cell fixes a fault-injection rate, a look-ahead factor M
//! and a recovery policy, then runs independent trials. Each trial
//! builds a fresh resilient system, streams a message workload through
//! it, injects at most one random fault at a random point, and grades
//! the outcome against exact ground truth:
//!
//! * **detection coverage** — of the faults that change semantics
//!   (decided exactly by [`crate::inject::classify`]), how many did a
//!   scrub, probe or DMR comparison catch?
//! * **SDC rate** — how many trials delivered at least one wrong
//!   checksum to the caller (silent data corruption)?
//! * **throughput cost** — total cycles relative to the same workload
//!   on a fault-free system under the same policy (self-checking is
//!   not free; the ratio makes its price visible).
//!
//! Everything — workload bytes, fault choice, injection point — derives
//! from the campaign seed through [`SplitMix64`], so a report is
//! reproducible bit-for-bit from `(seed, config)`.

use crate::inject::{classify, classify_load, FaultEffect, FaultInjector};
use crate::policy::{RecoveryPolicy, ResilienceError, ResilientSystem};
use crate::rng::SplitMix64;
use dream::ControlModel;
use dream_lfsr::FlowOptions;
use lfsr::crc::{crc_bitwise, CrcSpec};
use picoga::{LoadCorruption, PicogaParams};
use std::fmt::Write as _;

/// What a campaign sweeps and how hard it works each cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Look-ahead factors to sweep.
    pub ms: Vec<usize>,
    /// Labeled recovery policies to sweep.
    pub policies: Vec<(String, RecoveryPolicy)>,
    /// Per-trial fault-injection probabilities to sweep.
    pub rates: Vec<f64>,
    /// Trials per (rate, M, policy) cell.
    pub trials: usize,
    /// Messages streamed per trial.
    pub messages: usize,
    /// Message length in bytes.
    pub message_len: usize,
}

impl CampaignConfig {
    /// The default sweep: rates {0.5, 1.0} × M {32, 64} × policies
    /// {standard, detect-only, dmr}, 8 trials per cell.
    #[must_use]
    pub fn default_sweep(seed: u64) -> Self {
        CampaignConfig {
            seed,
            ms: vec![32, 64],
            policies: vec![
                ("standard".into(), RecoveryPolicy::standard()),
                ("detect-only".into(), RecoveryPolicy::detect_only()),
                ("dmr".into(), RecoveryPolicy::dmr()),
            ],
            rates: vec![0.5, 1.0],
            trials: 8,
            messages: 8,
            message_len: 32,
        }
    }

    /// A fast CI-sized campaign: one rate, one M, standard + dmr,
    /// 3 trials per cell.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        CampaignConfig {
            seed,
            ms: vec![32],
            policies: vec![
                ("standard".into(), RecoveryPolicy::standard()),
                ("dmr".into(), RecoveryPolicy::dmr()),
            ],
            rates: vec![1.0],
            trials: 3,
            messages: 6,
            message_len: 24,
        }
    }
}

/// Aggregated results for one (rate, M, policy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Policy label.
    pub policy: String,
    /// Look-ahead factor.
    pub m: usize,
    /// Fault-injection probability per trial.
    pub rate: f64,
    /// Trials run.
    pub trials: usize,
    /// Trials that actually received a fault.
    pub faulted: usize,
    /// Faulted trials whose fault was semantics-changing (ground truth).
    pub semantic: usize,
    /// Semantic trials on which a detector (scrub, probe, DMR) fired.
    pub detected: usize,
    /// Trials that delivered at least one wrong checksum.
    pub sdc_trials: usize,
    /// Total wrong checksums delivered across the cell.
    pub wrong_answers: u64,
    /// Trials that ended retired to the software kernel.
    pub fallbacks: usize,
    /// Trials healed on-fabric (reload or re-synthesis).
    pub healed: usize,
    /// Total cycles across all trials, fault-free baseline.
    pub baseline_cycles: u64,
    /// Total cycles across all trials, with injection.
    pub cycles: u64,
}

impl CampaignRow {
    /// Detected fraction of semantics-changing faults (1 when none).
    #[must_use]
    pub fn detection_coverage(&self) -> f64 {
        if self.semantic == 0 {
            1.0
        } else {
            self.detected as f64 / self.semantic as f64
        }
    }

    /// Fraction of trials with silent data corruption.
    #[must_use]
    pub fn sdc_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sdc_trials as f64 / self.trials as f64
        }
    }

    /// Cycle cost relative to the fault-free baseline (1.0 = free).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        if self.baseline_cycles == 0 {
            1.0
        } else {
            self.cycles as f64 / self.baseline_cycles as f64
        }
    }
}

/// A full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// One row per (rate, M, policy) cell, in sweep order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// Overall detection coverage across every cell of `policy`.
    #[must_use]
    pub fn coverage_for(&self, policy: &str) -> f64 {
        let (det, sem) = self
            .rows
            .iter()
            .filter(|r| r.policy == policy)
            .fold((0usize, 0usize), |(d, s), r| {
                (d + r.detected, s + r.semantic)
            });
        if sem == 0 {
            1.0
        } else {
            det as f64 / sem as f64
        }
    }

    /// Total wrong answers delivered across every cell of `policy`.
    #[must_use]
    pub fn wrong_answers_for(&self, policy: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.wrong_answers)
            .sum()
    }

    /// Renders the report as an aligned text table with a summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fault campaign (seed {})", self.seed);
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>5} {:>7} {:>8} {:>9} {:>9} {:>6} {:>9} {:>9}",
            "policy",
            "M",
            "rate",
            "trials",
            "semantic",
            "coverage",
            "sdc-rate",
            "wrong",
            "healed",
            "overhead"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<12} {:>4} {:>5.2} {:>7} {:>8} {:>8.1}% {:>8.1}% {:>6} {:>9} {:>8.2}x",
                r.policy,
                r.m,
                r.rate,
                r.trials,
                r.semantic,
                100.0 * r.detection_coverage(),
                100.0 * r.sdc_rate(),
                r.wrong_answers,
                r.healed,
                r.overhead(),
            );
        }
        let mut policies: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !policies.contains(&r.policy.as_str()) {
                policies.push(&r.policy);
            }
        }
        let _ = writeln!(out);
        for p in policies {
            let _ = writeln!(
                out,
                "{p}: detection coverage {:.1}% of semantic faults, {} wrong answer(s) delivered",
                100.0 * self.coverage_for(p),
                self.wrong_answers_for(p),
            );
        }
        out
    }
}

/// The four fault kinds a trial can draw.
#[derive(Debug, Clone, Copy)]
enum FaultKind {
    Wire,
    Tap,
    Stuck,
    Load,
}

impl FaultKind {
    fn draw(rng: &mut SplitMix64) -> FaultKind {
        match rng.below(4) {
            0 => FaultKind::Wire,
            1 => FaultKind::Tap,
            2 => FaultKind::Stuck,
            _ => FaultKind::Load,
        }
    }
}

/// Outcome of one trial, before aggregation.
struct Trial {
    faulted: bool,
    semantic: bool,
    detected: bool,
    wrong_answers: u64,
    fell_back: bool,
    healed: bool,
    cycles: u64,
}

/// Runs the full sweep. Deterministic: the same `(config)` yields the
/// same report, bit for bit.
///
/// # Errors
///
/// Propagates build and system errors from trial construction; grading
/// itself cannot fail.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, ResilienceError> {
    let spec = CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry");
    let mut master = SplitMix64::new(cfg.seed);
    let mut rows = Vec::new();
    for rate in &cfg.rates {
        for &m in &cfg.ms {
            for (label, policy) in &cfg.policies {
                let mut cell_rng = master.fork();
                let mut row = CampaignRow {
                    policy: label.clone(),
                    m,
                    rate: *rate,
                    trials: cfg.trials,
                    faulted: 0,
                    semantic: 0,
                    detected: 0,
                    sdc_trials: 0,
                    wrong_answers: 0,
                    fallbacks: 0,
                    healed: 0,
                    baseline_cycles: 0,
                    cycles: 0,
                };
                for _ in 0..cfg.trials {
                    let mut trial_rng = cell_rng.fork();
                    // Baseline first, on a clone of the trial rng: the
                    // same draw sequence yields the same workload bytes,
                    // but rate 0 means no fault is ever injected.
                    let mut baseline_rng = trial_rng.clone();
                    let base = run_trial(cfg, spec, m, *policy, 0.0, &mut baseline_rng)?;
                    row.baseline_cycles += base.cycles;
                    let t = run_trial(cfg, spec, m, *policy, *rate, &mut trial_rng)?;
                    row.faulted += usize::from(t.faulted);
                    row.semantic += usize::from(t.semantic);
                    row.detected += usize::from(t.semantic && t.detected);
                    row.sdc_trials += usize::from(t.wrong_answers > 0);
                    row.wrong_answers += t.wrong_answers;
                    row.fallbacks += usize::from(t.fell_back);
                    row.healed += usize::from(t.healed);
                    row.cycles += t.cycles;
                }
                rows.push(row);
            }
        }
    }
    Ok(CampaignReport {
        seed: cfg.seed,
        rows,
    })
}

/// One trial: build, stream, inject (maybe), grade.
fn run_trial(
    cfg: &CampaignConfig,
    spec: &CrcSpec,
    m: usize,
    policy: RecoveryPolicy,
    rate: f64,
    rng: &mut SplitMix64,
) -> Result<Trial, ResilienceError> {
    // Workload and fault script drawn up front so the faulted run and
    // any baseline re-run agree byte-for-byte.
    let messages: Vec<Vec<u8>> = (0..cfg.messages)
        .map(|_| {
            (0..cfg.message_len)
                .map(|_| (rng.next_u64() & 0xFF) as u8)
                .collect()
        })
        .collect();
    let faulted = rng.chance(rate);
    let kind = FaultKind::draw(rng);
    // Config faults need a resident context, so they land after the
    // first message at the earliest.
    let inject_at = 1 + rng.below(cfg.messages.saturating_sub(1).max(1));
    let mut injector = FaultInjector::new(rng.next_u64());

    let opts = FlowOptions::dream_with_m(m);
    let mut rs = ResilientSystem::new(PicogaParams::dream(), ControlModel::default(), policy);
    rs.host("crc", spec, opts)?;

    let start_detections = rs.system().resilience_counters().detections;
    let mut injected = false;
    let mut semantic = false;
    let mut wrong_answers: u64 = 0;
    let mut cycles: u64 = 0;

    for (i, msg) in messages.iter().enumerate() {
        if faulted && !injected && i == inject_at.min(cfg.messages - 1) && i > 0 {
            semantic = inject_one(&mut rs, kind, &mut injector);
            injected = true;
        }
        let run = rs.checksum_guarded("crc", msg)?;
        cycles += run.cycles;
        if run.crc != crc_bitwise(spec, msg) {
            wrong_answers += 1;
        }
    }
    // End-of-stream checkpoint: faults injected near the tail still get
    // their detection opportunity.
    let fab0 = rs.system().fabric().counters().total();
    let tail_outcomes = rs.self_check()?;
    cycles += rs.system().fabric().counters().total() - fab0;

    let detections = rs.system().resilience_counters().detections - start_detections;
    let detected = detections > 0 || rs.dmr_mismatches() > 0;
    let fell_back = rs
        .hosted()
        .any(|n| rs.system().health(n) == dream::Health::Fallback);
    let healed = !fell_back
        && detected
        && rs
            .hosted()
            .all(|n| rs.system().health(n) == dream::Health::Healthy);
    let _ = tail_outcomes;

    Ok(Trial {
        faulted: injected,
        semantic,
        detected,
        wrong_answers,
        fell_back,
        healed,
        cycles,
    })
}

/// Injects one fault of `kind` into the trial system. Returns the exact
/// ground truth: does the fault change the semantics of any resident
/// operation?
fn inject_one(rs: &mut ResilientSystem, kind: FaultKind, injector: &mut FaultInjector) -> bool {
    // Resident contexts of the primary personality (update + finalize
    // when present). Ground truth must consider every operation the
    // fault can reach, not just the one it was shaped for.
    let residents: Vec<(usize, picoga::PgaOperation)> = [0u8, 1]
        .iter()
        .filter_map(|&role| rs.system().slot_of("crc", role))
        .filter_map(|slot| {
            rs.system()
                .fabric()
                .context(slot)
                .map(|op| (slot, op.clone()))
        })
        .collect();
    let Some((slot, op)) = residents.first().cloned() else {
        return false;
    };
    match kind {
        FaultKind::Wire => {
            let Some(f) = injector.random_wire_flip(slot, &op) else {
                return false;
            };
            let sem = classify(&f, &op) == FaultEffect::Semantic;
            let _ = rs.system_mut().fabric_mut().inject(&f);
            sem
        }
        FaultKind::Tap => {
            let Some(f) = injector.random_tap_flip(slot, &op) else {
                return false;
            };
            let sem = classify(&f, &op) == FaultEffect::Semantic;
            let _ = rs.system_mut().fabric_mut().inject(&f);
            sem
        }
        FaultKind::Stuck => {
            let Some(f) = injector.random_stuck_cell(&op) else {
                return false;
            };
            // A stuck cell is physical: it can disturb *every* resident
            // placement that uses the cell, so ground truth is the OR
            // over all of them.
            let sem = residents
                .iter()
                .any(|(_, o)| classify(&f, o) == FaultEffect::Semantic);
            let _ = rs.system_mut().fabric_mut().inject(&f);
            sem
        }
        FaultKind::Load => {
            // Corrupt the next off-fabric load: evict the personality so
            // a load must happen, and arm the corruption against it.
            let Some(fault) = injector.random_load_fault(rs.system().fabric().loads_seen(), &op)
            else {
                return false;
            };
            let sem = classify_load(&fault.fault, &op) == FaultEffect::Semantic;
            rs.system_mut().evict("crc");
            let next_load = rs.system().fabric().loads_seen();
            rs.system_mut()
                .fabric_mut()
                .arm_load_corruption(LoadCorruption {
                    load_index: next_load,
                    fault: fault.fault,
                });
            sem
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_deterministic() {
        let cfg = CampaignConfig::smoke(0xC0FFEE);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a, b, "same seed, same report");
        assert!(!a.rows.is_empty());
        let rendered = a.render();
        assert!(rendered.contains("fault campaign (seed"));
    }

    #[test]
    fn smoke_campaign_detects_semantic_faults_and_dmr_has_no_sdc() {
        let cfg = CampaignConfig::smoke(2024);
        let rep = run_campaign(&cfg).unwrap();
        // Standard policy: every semantics-changing fault detected.
        assert!(
            rep.coverage_for("standard") >= 0.99,
            "coverage {:.3}",
            rep.coverage_for("standard")
        );
        // DMR: zero wrong answers delivered, ever.
        assert_eq!(rep.wrong_answers_for("dmr"), 0, "DMR means zero SDC");
    }
}
