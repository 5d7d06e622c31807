//! Typed recovery policy and the resilient system wrapper.
//!
//! [`DreamSystem`] exposes the *mechanisms* (scrub, probe, reload,
//! replace, software checksum); this module is the *policy* that drives
//! them as a ladder:
//!
//! 1. **Reload** — a bounded number of context reloads from pristine
//!    off-fabric configuration memory. Heals SEUs in resident contexts
//!    and load-time corruption; cannot heal physical stuck-at cells.
//! 2. **Re-synthesis** — rebuild the personality through the full flow
//!    with perturbed synthesis options, yielding a different network and
//!    placement that can route around a stuck cell.
//! 3. **Software fallback** — retire the personality to the control
//!    processor's software kernel. Always correct, never fast.
//!
//! The optional **DMR mode** hosts a second, independently synthesized
//! placement of every personality and compares the two lanes on every
//! message: any disagreement is detected *before* the answer is
//! delivered, which is what drives the campaign's zero-SDC result.
//!
//! Scrambler personalities keep their `DreamSystem`-level mechanisms
//! (scrub/probe/reload); the wrapper here hosts CRC personalities, the
//! only kind with a software fallback kernel.

use dream::{ControlModel, DreamSystem, Health, RunReport, SystemError};
use dream_lfsr::{build_personality, FlowOptions};
use lfsr::crc::CrcSpec;
use obs::{EventKind, SpanCtx};
use picoga::PicogaParams;
use std::fmt;

/// Suffix appended to a personality name for its DMR shadow lane.
pub const DMR_SUFFIX: &str = "::dmr";

/// The shadow-lane name for `name` in DMR mode.
#[must_use]
pub fn shadow_name(name: &str) -> String {
    format!("{name}{DMR_SUFFIX}")
}

/// How far the system may go to keep a personality serviceable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Context reloads attempted before escalating (step 1 of the
    /// ladder). 0 skips straight to re-synthesis.
    pub max_reload_retries: u32,
    /// Permit step 2: re-synthesize with perturbed options and replace
    /// the registration.
    pub allow_resynthesis: bool,
    /// Permit step 3: retire the personality to the software kernel.
    pub allow_software_fallback: bool,
    /// Known-answer blocks pushed through the datapath per probe.
    pub probe_blocks: usize,
    /// Run a scrub + probe checkpoint every this many messages
    /// (0 disables periodic checking — detection then rests on DMR).
    pub scrub_period: u64,
    /// Host a second placement of every personality and compare lanes
    /// on every message.
    pub dmr: bool,
    /// The checkpoint-migrate rung: when every permitted repair step
    /// fails (or software fallback is disallowed), report
    /// [`RecoveryOutcome::CheckpointPark`] instead of
    /// [`RecoveryOutcome::Unrecovered`]. The personality still serves
    /// nothing, but a stream-serving layer is told to checkpoint its
    /// live sessions and park them for later resumption rather than
    /// dropping them (see [`RecoveryOutcome::migration_advice`]).
    pub park_streams: bool,
}

impl RecoveryPolicy {
    /// The default ladder: 2 reload retries, re-synthesis, software
    /// fallback, checkpoint every 4 messages, no DMR.
    #[must_use]
    pub fn standard() -> Self {
        RecoveryPolicy {
            max_reload_retries: 2,
            allow_resynthesis: true,
            allow_software_fallback: true,
            probe_blocks: 2,
            scrub_period: 4,
            dmr: false,
            park_streams: false,
        }
    }

    /// Detection without repair: checkpoints run, but nothing is
    /// reloaded, replaced or retired. The campaign's control arm.
    #[must_use]
    pub fn detect_only() -> Self {
        RecoveryPolicy {
            max_reload_retries: 0,
            allow_resynthesis: false,
            allow_software_fallback: false,
            ..Self::standard()
        }
    }

    /// The standard ladder plus dual-lane modular redundancy.
    #[must_use]
    pub fn dmr() -> Self {
        RecoveryPolicy {
            dmr: true,
            ..Self::standard()
        }
    }

    /// The ladder tuned for a stream-serving layer: the full repair
    /// sequence, plus the checkpoint-migrate rung so live sessions are
    /// parked (never dropped) when a lane cannot be repaired in place.
    #[must_use]
    pub fn stream_serving() -> Self {
        RecoveryPolicy {
            park_streams: true,
            ..Self::standard()
        }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// What the recovery ladder achieved for one personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// A context reload restored correct behaviour.
    HealedByReload {
        /// Reload attempts spent (1-based).
        retries: u32,
    },
    /// A re-synthesized replacement placement restored correct
    /// behaviour (typical for stuck-at cells).
    HealedByResynthesis,
    /// The personality now runs on the control processor's software
    /// kernel.
    SoftwareFallback,
    /// The checkpoint-migrate rung ([`RecoveryPolicy::park_streams`]):
    /// no repair step succeeded, so a serving layer should checkpoint
    /// the personality's live streams and park them until the lane is
    /// replaced.
    CheckpointPark,
    /// Every permitted step failed or was disallowed; the personality
    /// stays suspect on the fabric.
    Unrecovered,
}

/// What a stream-serving layer should do with the live sessions of a
/// personality after the recovery ladder ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationAdvice {
    /// The lane is healthy again (reload or re-synthesis); transformed
    /// stream states remain valid because re-synthesis preserves the
    /// Derby transform for a given spec and M — keep feeding the fabric.
    StayFabric,
    /// The personality retired to the software kernel: marshal each
    /// session's state out of the transformed space (T · x_t) and
    /// continue on the software path.
    MarshalToSoftware,
    /// Nothing can serve this personality right now: checkpoint each
    /// session and park it for later restoration.
    Park,
}

impl RecoveryOutcome {
    /// The stream-migration consequence of this outcome.
    #[must_use]
    pub fn migration_advice(&self) -> MigrationAdvice {
        match self {
            RecoveryOutcome::HealedByReload { .. } | RecoveryOutcome::HealedByResynthesis => {
                MigrationAdvice::StayFabric
            }
            RecoveryOutcome::SoftwareFallback => MigrationAdvice::MarshalToSoftware,
            RecoveryOutcome::CheckpointPark | RecoveryOutcome::Unrecovered => MigrationAdvice::Park,
        }
    }
}

/// Errors from hosting or recovering personalities.
#[derive(Debug)]
pub enum ResilienceError {
    /// The synthesis flow failed to (re)build a personality.
    Build(dream::BuildError),
    /// The underlying system refused an operation.
    System(SystemError),
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Build(e) => write!(f, "personality build failed: {e}"),
            ResilienceError::System(e) => write!(f, "system error: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Build(e) => Some(e),
            ResilienceError::System(e) => Some(e),
        }
    }
}

impl From<dream::BuildError> for ResilienceError {
    fn from(e: dream::BuildError) -> Self {
        ResilienceError::Build(e)
    }
}

impl From<SystemError> for ResilienceError {
    fn from(e: SystemError) -> Self {
        ResilienceError::System(e)
    }
}

/// One guarded checksum: the answer plus everything it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedRun {
    /// The CRC value delivered to the caller.
    pub crc: u64,
    /// Total cycles spent by this call: fabric work (compute, context
    /// switches, loads, probes, reloads) plus control/tail/stall cycles
    /// of every kernel invoked.
    pub cycles: u64,
    /// The delivered answer came from the software kernel.
    pub software: bool,
    /// DMR lanes disagreed on this message (the answer was then taken
    /// from software, so it is still correct).
    pub dmr_mismatch: bool,
    /// Recovery ladders run during this call (checkpoint- or
    /// DMR-triggered), in execution order.
    pub outcomes: Vec<RecoveryOutcome>,
}

/// A [`DreamSystem`] wrapped with a [`RecoveryPolicy`]: hosts CRC
/// personalities, self-checks them periodically, and walks the recovery
/// ladder when a check fails.
#[derive(Debug)]
pub struct ResilientSystem {
    sys: DreamSystem,
    policy: RecoveryPolicy,
    /// The lanes hosted through this wrapper, shadow lanes included, in
    /// hosting order: checkpoints walk them in this order, so every
    /// campaign is deterministic.
    lanes: Vec<Lane>,
    messages_seen: u64,
    dmr_mismatches: u64,
    /// Handles into the fabric's unified metrics registry.
    ids: ResIds,
}

/// A lane hosted through [`ResilientSystem::host`].
#[derive(Debug)]
struct Lane {
    name: String,
    /// The flow inputs, kept for re-synthesis.
    spec: CrcSpec,
    opts: FlowOptions,
    /// A DMR primary's shadow lane, by name.
    shadow: Option<String>,
}

/// Coarse per-fabric health, aggregated from lane health and the
/// recovery ladder's terminal counters (see
/// [`ResilientSystem::health_summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricHealthSummary {
    /// Every hosted lane (shadow lanes included) with its health.
    pub lanes: Vec<(String, Health)>,
    /// Lanes retired to the software kernel.
    pub fallback: usize,
    /// Lanes with an outstanding detection.
    pub suspect: usize,
    /// Recovery-ladder runs that ended [`RecoveryOutcome::Unrecovered`].
    pub unrecovered: u64,
    /// Recovery-ladder runs started (any outcome).
    pub recoveries: u64,
}

impl FabricHealthSummary {
    /// `true` when no hosted lane still runs on the fabric — every lane
    /// is in software fallback or suspect. An empty fabric (nothing
    /// hosted) is *not* degraded.
    #[must_use]
    pub fn fabric_abandoned(&self) -> bool {
        !self.lanes.is_empty() && self.fallback + self.suspect == self.lanes.len()
    }
}

/// Registry handles for the recovery ladder's metrics.
#[derive(Debug, Clone, Copy)]
struct ResIds {
    recoveries: obs::CounterId,
    healed_reload: obs::CounterId,
    healed_resynthesis: obs::CounterId,
    software_fallbacks: obs::CounterId,
    parked: obs::CounterId,
    unrecovered: obs::CounterId,
    recovery_cycles: obs::HistogramId,
}

impl ResIds {
    fn register(reg: &mut obs::MetricsRegistry) -> Self {
        ResIds {
            recoveries: reg.counter("resilience.recoveries"),
            healed_reload: reg.counter("resilience.healed_reload"),
            healed_resynthesis: reg.counter("resilience.healed_resynthesis"),
            software_fallbacks: reg.counter("resilience.software_fallbacks"),
            parked: reg.counter("resilience.parked"),
            unrecovered: reg.counter("resilience.unrecovered"),
            recovery_cycles: reg.histogram(
                "resilience.recovery_cycles",
                &obs::Histogram::pow2_bounds(24),
            ),
        }
    }
}

impl ResilientSystem {
    /// An empty resilient system on the given fabric.
    #[must_use]
    pub fn new(params: PicogaParams, control: ControlModel, policy: RecoveryPolicy) -> Self {
        let mut sys = DreamSystem::new(params, control);
        let ids = ResIds::register(&mut sys.obs_mut().registry);
        ResilientSystem {
            sys,
            policy,
            lanes: Vec::new(),
            messages_seen: 0,
            dmr_mismatches: 0,
            ids,
        }
    }

    /// The wrapped system (counters, health, fabric access).
    pub fn system(&self) -> &DreamSystem {
        &self.sys
    }

    /// Mutable access to the wrapped system, e.g. for fault injection.
    pub fn system_mut(&mut self) -> &mut DreamSystem {
        &mut self.sys
    }

    /// The observability hub (delegates through the wrapped system).
    pub fn obs(&self) -> &obs::ObsHub {
        self.sys.obs()
    }

    /// Mutable observability hub access, for layers stacked on top.
    pub fn obs_mut(&mut self) -> &mut obs::ObsHub {
        self.sys.obs_mut()
    }

    /// The active policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Messages on which the two DMR lanes disagreed so far.
    pub fn dmr_mismatches(&self) -> u64 {
        self.dmr_mismatches
    }

    /// Personalities hosted through this wrapper, in hosting order
    /// (shadow lanes included).
    pub fn hosted(&self) -> impl Iterator<Item = &str> + '_ {
        self.lanes.iter().map(|l| l.name.as_str())
    }

    /// A coarse health summary of every hosted lane plus the ladder's
    /// terminal-outcome counters — the signal a cluster-level shard
    /// health monitor aggregates to decide whether an entire fabric
    /// should be declared dead (all lanes off the fabric, or recoveries
    /// that ended unrecovered).
    #[must_use]
    pub fn health_summary(&self) -> FabricHealthSummary {
        let mut lanes = Vec::with_capacity(self.lanes.len());
        let (mut fallback, mut suspect) = (0usize, 0usize);
        for lane in &self.lanes {
            let h = self.sys.health(&lane.name);
            match h {
                Health::Fallback => fallback += 1,
                Health::Suspect => suspect += 1,
                _ => {}
            }
            lanes.push((lane.name.clone(), h));
        }
        let reg = &self.sys.obs().registry;
        FabricHealthSummary {
            lanes,
            fallback,
            suspect,
            unrecovered: reg.counter_value(self.ids.unrecovered),
            recoveries: reg.counter_value(self.ids.recoveries),
        }
    }

    /// Builds `spec` through the flow and registers it under `name`; in
    /// DMR mode also builds and registers an independently synthesized
    /// shadow lane.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::Build`] if synthesis fails,
    /// [`ResilienceError::System`] if registration is refused.
    pub fn host(
        &mut self,
        name: &str,
        spec: &CrcSpec,
        opts: FlowOptions,
    ) -> Result<(), ResilienceError> {
        let p = build_personality(name.to_string(), spec, &opts)?;
        self.sys.register(p)?;
        self.push_lane(name.to_string(), spec, opts);
        if self.policy.dmr {
            let sh = shadow_name(name);
            let mut sopts = opts;
            // A genuinely different placement: toggle pattern sharing so
            // the shadow network is synthesized down a different path.
            sopts.synth.share_patterns = !sopts.synth.share_patterns;
            let p2 = build_personality(sh.clone(), spec, &sopts)?;
            self.sys.register(p2)?;
            let primary = self.lanes.len() - 1;
            self.lanes[primary].shadow = Some(sh.clone());
            self.push_lane(sh, spec, sopts);
        }
        Ok(())
    }

    /// Adds the lane of the personality just registered under `name`.
    fn push_lane(&mut self, name: String, spec: &CrcSpec, opts: FlowOptions) {
        self.lanes.push(Lane {
            name,
            spec: *spec,
            opts,
            shadow: None,
        });
    }

    /// Computes a checksum under the policy: DMR lane comparison when
    /// enabled, software kernel for retired personalities, and a
    /// scrub + probe checkpoint every `scrub_period` messages (after the
    /// answer — detection latency is real).
    ///
    /// # Errors
    ///
    /// Propagates system and re-synthesis errors; unknown names surface
    /// as [`SystemError::UnknownPersonality`].
    pub fn checksum_guarded(
        &mut self,
        name: &str,
        data: &[u8],
    ) -> Result<GuardedRun, ResilienceError> {
        let fab0 = self.sys.fabric().counters().total();
        let mut soft_cycles: u64 = 0;
        let mut outcomes = Vec::new();
        let mut dmr_mismatch = false;

        let mut software = self.sys.health(name) == Health::Fallback;
        let shadow = if self.policy.dmr && !software {
            self.lanes
                .iter()
                .find(|l| l.name == name)
                .and_then(|l| l.shadow.as_deref())
        } else {
            None
        };
        let crc = if software {
            let (v, rep) = self.sys.checksum_software(name, data)?;
            soft_cycles += non_fabric(&rep);
            v
        } else if let Some(shadow) = shadow {
            let (a, ra) = self.sys.checksum(name, data)?;
            soft_cycles += non_fabric(&ra);
            let (b, rb) = if self.sys.health(shadow) == Health::Fallback {
                self.sys.checksum_software(shadow, data)?
            } else {
                self.sys.checksum(shadow, data)?
            };
            soft_cycles += non_fabric(&rb);
            if a == b {
                a
            } else {
                dmr_mismatch = true;
                self.dmr_mismatches += 1;
                let shadow = shadow.to_string();
                self.sys.set_health(name, Health::Suspect);
                self.sys.set_health(&shadow, Health::Suspect);
                outcomes.push(self.recover(name)?);
                outcomes.push(self.recover(&shadow)?);
                // The lanes disagreed, so neither can be trusted for
                // this message: answer from the software kernel.
                let (v, rep) = self.sys.checksum_software(name, data)?;
                soft_cycles += non_fabric(&rep);
                software = true;
                v
            }
        } else {
            let (v, rep) = self.sys.checksum(name, data)?;
            soft_cycles += non_fabric(&rep);
            v
        };

        self.messages_seen += 1;
        if self.policy.scrub_period > 0
            && self.messages_seen.is_multiple_of(self.policy.scrub_period)
        {
            outcomes.extend(self.self_check()?);
        }

        let cycles = self.sys.fabric().counters().total() - fab0 + soft_cycles;
        Ok(GuardedRun {
            crc,
            cycles,
            software,
            dmr_mismatch,
            outcomes,
        })
    }

    /// One checkpoint: scrub every resident context, probe every hosted
    /// fabric personality, and run the recovery ladder for whatever was
    /// flagged. Returns the ladder outcomes (empty when all clean).
    ///
    /// # Errors
    ///
    /// Propagates system and re-synthesis errors.
    pub fn self_check(&mut self) -> Result<Vec<RecoveryOutcome>, ResilienceError> {
        // A scrub finding can name a personality registered on the wrapped
        // system directly (a scrambler), which has no lane, so the flagged
        // list holds names; a clean checkpoint flags none.
        let mut flagged: Vec<String> = self
            .sys
            .scrub()
            .into_iter()
            .map(|f| f.personality)
            .collect();
        for lane in &self.lanes {
            if self.sys.health(&lane.name) == Health::Fallback {
                continue;
            }
            if !self
                .sys
                .probe(&lane.name, self.policy.probe_blocks.max(1))?
            {
                flagged.push(lane.name.clone());
            }
        }
        flagged.dedup();
        let mut outcomes = Vec::new();
        let mut done: Vec<String> = Vec::new();
        for name in flagged {
            if done.contains(&name) || self.sys.health(&name) == Health::Fallback {
                continue;
            }
            outcomes.push(self.recover(&name)?);
            done.push(name);
        }
        Ok(outcomes)
    }

    /// Walks the recovery ladder for `name` until a step restores a
    /// clean scrub + probe, or the permitted steps run out.
    ///
    /// # Errors
    ///
    /// Propagates system errors (including unknown personalities).
    pub fn recover(&mut self, name: &str) -> Result<RecoveryOutcome, ResilienceError> {
        let hub = self.sys.obs_mut();
        let t0 = hub.now_cycles();
        // One causal span per ladder run: its duration is the ladder
        // latency, its outcome the rung that ended the walk.
        let span = hub
            .tracer
            .begin_span(t0, "recovery_ladder", SpanCtx::default());
        hub.tracer
            .record_in_span(t0, span, None, Some(name), EventKind::RecoveryStart);
        let outcome = self.recover_ladder(name)?;
        let ids = self.ids;
        let hub = self.sys.obs_mut();
        let latency = hub.now_cycles().saturating_sub(t0);
        hub.registry.inc(ids.recoveries);
        hub.registry.observe(ids.recovery_cycles, latency);
        let (label, counter) = match outcome {
            RecoveryOutcome::HealedByReload { .. } => ("healed_reload", ids.healed_reload),
            RecoveryOutcome::HealedByResynthesis => ("healed_resynthesis", ids.healed_resynthesis),
            RecoveryOutcome::SoftwareFallback => ("software_fallback", ids.software_fallbacks),
            RecoveryOutcome::CheckpointPark => ("checkpoint_park", ids.parked),
            RecoveryOutcome::Unrecovered => ("unrecovered", ids.unrecovered),
        };
        hub.registry.inc(counter);
        let t1 = hub.now_cycles();
        hub.tracer.record_in_span(
            t1,
            span,
            None,
            Some(name),
            EventKind::RecoveryOutcome { outcome: label },
        );
        hub.tracer.end_span(t1, span, label);
        Ok(outcome)
    }

    /// The ladder itself: reload retries, then re-synthesis, then the
    /// policy's terminal rung.
    fn recover_ladder(&mut self, name: &str) -> Result<RecoveryOutcome, ResilienceError> {
        for retry in 1..=self.policy.max_reload_retries {
            self.sys.reload(name)?;
            if self.lane_clean(name)? {
                self.sys.set_health(name, Health::Healthy);
                return Ok(RecoveryOutcome::HealedByReload { retries: retry });
            }
        }
        if self.policy.allow_resynthesis {
            if let Some(i) = self.lanes.iter().position(|l| l.name == name) {
                let (spec, mut opts) = (self.lanes[i].spec, self.lanes[i].opts);
                // Perturb along two axes: toggling pattern sharing alone
                // would make a recovered DMR lane identical to its
                // partner (same options, same placement), and two
                // identical placements over the same stuck cell fail
                // identically — the comparison would go blind. Shrinking
                // the fan-in as well keeps every replacement distinct
                // from both the failed placement and the other lane.
                opts.synth.share_patterns = !opts.synth.share_patterns;
                opts.synth.max_fanin = (opts.synth.max_fanin - 1).max(2);
                if let Ok(p) = build_personality(name.to_string(), &spec, &opts) {
                    self.sys.replace_personality(p)?;
                    self.lanes[i].opts = opts;
                    if self.lane_clean(name)? {
                        self.sys.set_health(name, Health::Healthy);
                        return Ok(RecoveryOutcome::HealedByResynthesis);
                    }
                }
            }
        }
        if self.policy.allow_software_fallback {
            self.sys.set_health(name, Health::Fallback);
            return Ok(RecoveryOutcome::SoftwareFallback);
        }
        self.sys.set_health(name, Health::Suspect);
        if self.policy.park_streams {
            return Ok(RecoveryOutcome::CheckpointPark);
        }
        Ok(RecoveryOutcome::Unrecovered)
    }

    /// Scrub shows no finding for `name`, the affine-complete datapath
    /// sweep passes, and a fresh known-answer probe passes.
    ///
    /// The datapath sweep is what makes a rung's "healed" verdict
    /// trustworthy: a reload fixes configuration upsets but not
    /// stuck-at cells, and a sampled probe can miss a stuck cell that
    /// live traffic would excite — the sweep cannot.
    ///
    /// The sweep itself is guarded by the lane's static linearity
    /// certificate: `datapath_probe` returns
    /// [`SystemError::ProbeUnsound`] for a personality the `analyze`
    /// prover could not show affine, and that error propagates out of
    /// the whole recovery ladder via `?` — a lane whose health cannot
    /// be soundly decided must never be declared healed.
    fn lane_clean(&mut self, name: &str) -> Result<bool, SystemError> {
        if self.sys.scrub().iter().any(|f| f.personality == name) {
            return Ok(false);
        }
        if !self.sys.datapath_probe(name)? {
            return Ok(false);
        }
        self.sys.probe(name, self.policy.probe_blocks.max(1))
    }
}

/// Non-fabric cycles of a run (fabric cycles are read off the shared
/// simulator counters instead, so probes and reloads are included).
fn non_fabric(rep: &RunReport) -> u64 {
    rep.control_cycles + rep.tail_cycles + rep.memory_stall_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{classify, FaultEffect, FaultInjector};
    use lfsr::crc::crc_bitwise;
    use picoga::ConfigFault;

    fn mk(policy: RecoveryPolicy) -> ResilientSystem {
        ResilientSystem::new(PicogaParams::dream(), ControlModel::default(), policy)
    }

    fn spec() -> CrcSpec {
        *CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry")
    }

    fn message() -> Vec<u8> {
        (0..64u32).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// A semantic fault in the resident update context of `name`.
    fn semantic_fault_in_update(rs: &ResilientSystem, name: &str, seed: u64) -> ConfigFault {
        let slot = rs.system().slot_of(name, 0).expect("update resident");
        let pristine = rs.system().fabric().context(slot).expect("context").clone();
        let mut inj = FaultInjector::new(seed);
        loop {
            let f = inj.random_wire_flip(slot, &pristine).expect("fault");
            if classify(&f, &pristine) == FaultEffect::Semantic {
                return f;
            }
        }
    }

    #[test]
    fn seu_is_detected_at_checkpoint_and_healed_by_reload() {
        let mut rs = mk(RecoveryPolicy {
            scrub_period: 1,
            ..RecoveryPolicy::standard()
        });
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();
        let data = message();
        let expected = crc_bitwise(&spec, &data);

        let r1 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r1.crc, expected);
        assert!(r1.outcomes.is_empty(), "clean system, no recovery");

        let fault = semantic_fault_in_update(&rs, "eth", 17);
        rs.system_mut().fabric_mut().inject(&fault).unwrap();

        // The checkpoint after this message must detect and heal.
        let r2 = rs.checksum_guarded("eth", &data).unwrap();
        assert!(
            r2.outcomes
                .iter()
                .any(|o| matches!(o, RecoveryOutcome::HealedByReload { .. })),
            "reload heals an SEU: {:?}",
            r2.outcomes
        );
        assert_eq!(rs.system().health("eth"), Health::Healthy);

        let r3 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r3.crc, expected);
        assert!(!r3.software);

        let c = rs.system().resilience_counters();
        assert!(c.detections >= 1, "scrub counted the detection");
        assert!(c.reloads >= 1, "reload was accounted");
    }

    #[test]
    fn stuck_cell_evades_scrub_and_retires_to_software() {
        // Resynthesis disallowed: the ladder must end in fallback.
        let mut rs = mk(RecoveryPolicy {
            scrub_period: 1,
            allow_resynthesis: false,
            ..RecoveryPolicy::standard()
        });
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();
        let data = message();
        let expected = crc_bitwise(&spec, &data);
        rs.checksum_guarded("eth", &data).unwrap();

        // A semantic stuck-at cell in the resident update placement.
        let slot = rs.system().slot_of("eth", 0).unwrap();
        let pristine = rs.system().fabric().context(slot).unwrap().clone();
        let mut inj = FaultInjector::new(23);
        let fault = loop {
            let f = inj.random_stuck_cell(&pristine).unwrap();
            if classify(&f, &pristine) == FaultEffect::Semantic {
                break f;
            }
        };
        rs.system_mut().fabric_mut().inject(&fault).unwrap();

        let r2 = rs.checksum_guarded("eth", &data).unwrap();
        assert!(
            r2.outcomes.contains(&RecoveryOutcome::SoftwareFallback),
            "reload cannot heal stuck silicon: {:?}",
            r2.outcomes
        );
        assert_eq!(rs.system().health("eth"), Health::Fallback);

        let r3 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r3.crc, expected, "software kernel is exact");
        assert!(r3.software);
        assert!(rs.system().resilience_counters().fallback_messages >= 1);
    }

    #[test]
    fn dmr_delivers_no_wrong_answer_even_without_checkpoints() {
        let mut rs = mk(RecoveryPolicy {
            scrub_period: 0, // no periodic checking: DMR alone
            ..RecoveryPolicy::dmr()
        });
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();
        assert_eq!(rs.hosted().count(), 2, "shadow lane hosted");
        let data = message();
        let expected = crc_bitwise(&spec, &data);

        let r1 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r1.crc, expected);
        assert!(!r1.dmr_mismatch);

        let fault = semantic_fault_in_update(&rs, "eth", 31);
        rs.system_mut().fabric_mut().inject(&fault).unwrap();

        let r2 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r2.crc, expected, "mismatch answered from software");
        assert!(r2.dmr_mismatch);
        assert!(r2.software);
        assert!(rs.dmr_mismatches() >= 1);

        // The faulted lane healed by reload; the system is whole again.
        let r3 = rs.checksum_guarded("eth", &data).unwrap();
        assert_eq!(r3.crc, expected);
        assert!(!r3.dmr_mismatch);
        assert!(!r3.software);
    }

    #[test]
    fn exhausted_ladder_parks_streams_when_the_policy_says_so() {
        // Stream-serving policy with every repair step disabled: the
        // ladder must end on the checkpoint-migrate rung, not in a
        // silent Unrecovered, and the advice must be Park.
        let mut rs = mk(RecoveryPolicy {
            max_reload_retries: 0,
            allow_resynthesis: false,
            allow_software_fallback: false,
            ..RecoveryPolicy::stream_serving()
        });
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();

        let outcome = rs.recover("eth").unwrap();
        assert_eq!(outcome, RecoveryOutcome::CheckpointPark);
        assert_eq!(outcome.migration_advice(), MigrationAdvice::Park);
        assert_eq!(rs.system().health("eth"), Health::Suspect);

        // The full ladder maps to the expected migration advice.
        assert_eq!(
            RecoveryOutcome::HealedByReload { retries: 1 }.migration_advice(),
            MigrationAdvice::StayFabric
        );
        assert_eq!(
            RecoveryOutcome::SoftwareFallback.migration_advice(),
            MigrationAdvice::MarshalToSoftware
        );
    }

    #[test]
    fn dmr_stays_correct_under_a_stuck_cell() {
        // Regression: recovery via re-synthesis must never leave the two
        // lanes with identical placements — a physical stuck cell would
        // then corrupt both identically and the comparison would go
        // blind. Whatever the ladder does, no wrong answer may escape.
        let mut rs = mk(RecoveryPolicy {
            scrub_period: 0,
            ..RecoveryPolicy::dmr()
        });
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();
        let data = message();
        let expected = crc_bitwise(&spec, &data);
        rs.checksum_guarded("eth", &data).unwrap();

        let slot = rs.system().slot_of("eth", 0).unwrap();
        let pristine = rs.system().fabric().context(slot).unwrap().clone();
        let mut inj = FaultInjector::new(23);
        let fault = loop {
            let f = inj.random_stuck_cell(&pristine).unwrap();
            if classify(&f, &pristine) == FaultEffect::Semantic {
                break f;
            }
        };
        rs.system_mut().fabric_mut().inject(&fault).unwrap();

        for _ in 0..8 {
            let r = rs.checksum_guarded("eth", &data).unwrap();
            assert_eq!(r.crc, expected, "DMR must never deliver a wrong answer");
        }
        assert!(rs.dmr_mismatches() >= 1, "the stuck cell was noticed");
    }

    #[test]
    fn probe_unsound_cert_aborts_the_recovery_ladder_with_a_typed_error() {
        let mut rs = mk(RecoveryPolicy::standard());
        let spec = spec();
        rs.host("eth", &spec, FlowOptions::dream_with_m(32))
            .unwrap();

        // Doctor the lane's linearity certificate: pretend the prover
        // found a nonlinear cell. Every rung's lane_clean check runs
        // the datapath sweep, which must now refuse rather than certify.
        let mut p = build_personality("eth", &spec, &FlowOptions::dream_with_m(32)).unwrap();
        let genuine = p.linearity.take().expect("dream presets attach a cert");
        p.linearity = Some(analyze::LinearityCert {
            affine: false,
            linear: false,
            n_affine: 0,
            n_nonlinear: 1,
            offending_cells: vec![3],
            matrix: None,
            offset: None,
            ..genuine
        });
        rs.system_mut().replace_personality(p).unwrap();

        let err = rs.recover("eth").unwrap_err();
        assert!(
            matches!(
                err,
                ResilienceError::System(SystemError::ProbeUnsound { .. })
            ),
            "recovery must not declare an unprobeable lane healed: {err}"
        );
    }
}
