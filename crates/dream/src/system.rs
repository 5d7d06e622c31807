//! Whole-SoC view: one fabric, many application personalities.
//!
//! The paper's introduction motivates reconfigurable LFSR engines with
//! multi-standard devices: "Multi-mode devices need to handle this in a
//! flexible way, requiring a dedicated circuit for each supported standard
//! or a reconfigurable/reprogrammable implementation."
//!
//! [`DreamSystem`] owns a single [`PicogaSim`] and hosts any number of
//! *personalities* (pairs/singletons of PGA operations produced by the
//! flow). The 4-entry on-fabric configuration cache is managed with an LRU
//! policy: switching to a resident personality costs the 2-cycle context
//! exchange; a miss additionally pays the off-fabric configuration load —
//! the cost structure that makes the paper's Fig. 4/5 overhead story
//! concrete at the system level.

use crate::perf::{ControlModel, RunReport};
use crate::scrambler_app::ScramblerLane;
use gf2::BitVec;
use lfsr::crc::{message_bits_into, reflect, CrcSpec, SarwateCrc, SoftwareKernel};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use lfsr::StateSpaceLfsr;
use lfsr_parallel::DerbyTransform;
use obs::EventKind;
use picoga::{OpStats, OpStatsGauges, PgaOperation, PicogaParams, PicogaSim, SimError};
use std::fmt;

mod stream_ext;

/// A named personality: the operations one application needs resident.
#[derive(Debug, Clone)]
pub struct Personality {
    /// Name used to select the personality.
    pub name: String,
    /// The CRC spec (only CRC personalities are hosted here; scramblers
    /// keep their single-op `DreamScramblerApp`).
    pub spec: CrcSpec,
    /// Look-ahead factor.
    pub m: usize,
    /// State-update operation.
    pub update: PgaOperation,
    /// Anti-transform operation (Derby personalities).
    pub finalize: Option<PgaOperation>,
    /// The transform, for state conversion.
    pub derby: Option<DerbyTransform>,
    /// Static linearity certificate covering every operation. Attached
    /// by the build flow's analysis pass; derived lazily (and cached)
    /// by [`DreamSystem::datapath_probe`] when absent. The probe's
    /// zero+basis sweep is complete only for affine networks, so a
    /// non-affine certificate makes the probe refuse to run.
    pub linearity: Option<analyze::LinearityCert>,
}

/// Errors from driving the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// No personality registered under that name.
    UnknownPersonality {
        /// The requested name.
        name: String,
    },
    /// A personality with that name already exists.
    DuplicatePersonality {
        /// The clashing name.
        name: String,
    },
    /// A personality needs more context slots than the fabric has.
    TooManyOps {
        /// Slots needed.
        needed: usize,
        /// Contexts available.
        available: usize,
    },
    /// The personality's LFSR specification is degenerate.
    BadSpec {
        /// The personality being registered.
        name: String,
        /// Why the serial LFSR could not be constructed.
        source: lfsr::LfsrError,
    },
    /// A zero-length message was submitted. The empty CRC/frame is
    /// well-defined mathematically, but a zero-bit fabric run would
    /// charge setup cycles for no work — callers must not pay the
    /// message-level overhead model for nothing, so the API refuses
    /// instead of silently answering.
    EmptyInput {
        /// The personality the message was addressed to.
        name: String,
    },
    /// A scrambler seed has bits beyond the LFSR's state width (the
    /// excess would previously be truncated silently, scrambling with a
    /// different seed than the caller asked for).
    BadSeed {
        /// The personality the seed was addressed to.
        name: String,
        /// The offending seed.
        seed: u64,
        /// The scrambler's state width in bits.
        width: usize,
    },
    /// A chunked stream feed was not a whole number of M-bit blocks.
    BlockMisaligned {
        /// Bits submitted.
        len: usize,
        /// The personality's block size M.
        m: usize,
    },
    /// A stream state vector has the wrong dimension for the
    /// personality it was submitted to.
    StateWidthMismatch {
        /// Bits in the submitted state.
        got: usize,
        /// The personality's state dimension.
        expected: usize,
    },
    /// The affine-complete datapath probe was asked to certify a lane
    /// whose personality is **not** affine: the zero+basis sweep is
    /// complete only for affine functions, so running it would produce
    /// an unsound "clean" verdict. This is a configuration property
    /// (caught statically), not a runtime fault — the lane's health is
    /// left untouched.
    ProbeUnsound {
        /// The personality whose probe was refused.
        name: String,
        /// The linearity certificate's one-line summary.
        summary: String,
    },
    /// Underlying simulator error.
    Sim(SimError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::UnknownPersonality { name } => {
                write!(f, "unknown personality '{name}'")
            }
            SystemError::DuplicatePersonality { name } => {
                write!(f, "personality '{name}' already registered")
            }
            SystemError::TooManyOps { needed, available } => {
                write!(
                    f,
                    "personality needs {needed} contexts, fabric has {available}"
                )
            }
            SystemError::BadSpec { name, source } => {
                write!(f, "personality '{name}' has an invalid spec: {source}")
            }
            SystemError::EmptyInput { name } => {
                write!(f, "zero-length message submitted to '{name}'")
            }
            SystemError::BadSeed { name, seed, width } => {
                write!(
                    f,
                    "seed {seed:#x} does not fit the {width}-bit scrambler state of '{name}'"
                )
            }
            SystemError::BlockMisaligned { len, m } => {
                write!(f, "stream feed of {len} bits is not a multiple of M={m}")
            }
            SystemError::StateWidthMismatch { got, expected } => {
                write!(
                    f,
                    "stream state has {got} bits, personality needs {expected}"
                )
            }
            SystemError::ProbeUnsound { name, summary } => {
                write!(
                    f,
                    "datapath probe of '{name}' refused: {summary} — the affine-complete sweep \
                     is unsound for non-affine personalities"
                )
            }
            SystemError::Sim(e) => write!(f, "fabric error: {e}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Sim(e) => Some(e),
            SystemError::BadSpec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SimError> for SystemError {
    fn from(e: SimError) -> Self {
        SystemError::Sim(e)
    }
}

/// What occupies one context slot: one role of the personality whose
/// record is `record`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotState {
    /// Index of the personality's record.
    record: usize,
    /// 0 = update op, 1 = finalize op, 2 = scrambler op.
    role: u8,
    last_use: u64,
}

/// Everything the system keeps for one name.
#[derive(Debug, Clone)]
struct Record {
    name: String,
    hosted: Hosted,
    /// As judged by scrubs and probes; kept when the personality is
    /// replaced.
    health: Health,
    /// The matrix each of the personality's operations computes,
    /// indexed by role, derived on its first scrub and kept until the
    /// personality is replaced.
    pristine: [Option<gf2::BitMat>; 3],
    /// The `op.{name}.{role}` gauges each context load republishes,
    /// indexed by role, looked up on the first load.
    gauges: [Option<OpStatsGauges>; 3],
}

/// What a name hosts.
#[derive(Debug, Clone)]
enum Hosted {
    /// Nothing yet: the name's health was set before anything was
    /// registered under it.
    Nothing,
    Crc(Box<CrcHost>),
    Scrambler(Box<ScramblerHost>),
}

/// A CRC personality and its host half.
#[derive(Debug, Clone)]
struct CrcHost {
    p: Personality,
    /// The serial tail engine.
    tail: StateSpaceLfsr,
    /// The state every message starts from, one word (CRC widths are
    /// at most 64): the spec's init register, transformed (`T⁻¹·init`)
    /// for Derby personalities.
    start: u64,
    /// The known-answer probe's reference: Sarwate's byte table (one
    /// 2 KiB table, of which a probe's 2–32 B touch fewer cache lines
    /// than of slicing-by-8's eight), bit-serial for widths under 8.
    /// Built on the personality's first probe.
    reference: Option<SoftwareKernel>,
    /// The software fallback kernel (slicing-by-8 for reflected specs,
    /// else Sarwate, else bit-serial), built on the personality's first
    /// fallback message.
    soft: Option<SoftwareKernel>,
}

/// A scrambler personality and its host half: packed seed and state
/// maps, and its serial tail engine.
#[derive(Debug, Clone)]
struct ScramblerHost {
    p: ScramblerPersonality,
    lane: ScramblerLane,
}

impl Hosted {
    fn crc(&self) -> Option<&CrcHost> {
        match self {
            Hosted::Crc(c) => Some(c),
            _ => None,
        }
    }

    fn scrambler(&self) -> Option<&ScramblerHost> {
        match self {
            Hosted::Scrambler(h) => Some(h),
            _ => None,
        }
    }

    /// The registered operation of `role`, if the lane has one.
    fn op(&self, role: u8) -> Option<&PgaOperation> {
        match (self, role) {
            (Hosted::Crc(c), 0) => Some(&c.p.update),
            (Hosted::Crc(c), 1) => c.p.finalize.as_ref(),
            (Hosted::Scrambler(h), 2) => Some(&h.p.op),
            _ => None,
        }
    }
}

impl CrcHost {
    fn new(p: Personality) -> Result<Self, SystemError> {
        let tail =
            StateSpaceLfsr::crc(&p.spec.generator()).map_err(|source| SystemError::BadSpec {
                name: p.name.clone(),
                source,
            })?;
        Ok(CrcHost {
            start: start_state(&p),
            tail,
            reference: None,
            soft: None,
            p,
        })
    }

    /// The probe's reference kernel, built on first use.
    fn reference(&mut self) -> &mut SoftwareKernel {
        let spec = self.p.spec;
        self.reference.get_or_insert_with(|| {
            SarwateCrc::new(&spec).map_or(SoftwareKernel::Bitwise(spec), SoftwareKernel::Sarwate)
        })
    }

    /// The fallback kernel, built on first use.
    fn fallback(&mut self) -> &mut SoftwareKernel {
        let spec = self.p.spec;
        self.soft.get_or_insert_with(|| SoftwareKernel::new(&spec))
    }
}

/// A scrambler personality: one autonomous-scrambler operation.
#[derive(Debug, Clone)]
pub struct ScramblerPersonality {
    /// Name used to select the personality.
    pub name: String,
    /// The scrambler spec.
    pub spec: ScramblerSpec,
    /// Look-ahead factor.
    pub m: usize,
    /// The single PGA operation.
    pub op: PgaOperation,
    /// The transform (for seed conversion).
    pub derby: DerbyTransform,
    /// Static linearity certificate for the operation (see
    /// [`Personality::linearity`]).
    pub linearity: Option<analyze::LinearityCert>,
}

/// Health of one hosted personality, as tracked by the runtime
/// self-checking layer (scrubs, probes, and the recovery policy driving
/// them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Health {
    /// No outstanding detection.
    #[default]
    Healthy,
    /// A scrub or probe found the resident configuration or datapath
    /// wrong; recovery has not yet succeeded.
    Suspect,
    /// The fabric path is abandoned for this personality; messages run
    /// on the software kernel.
    Fallback,
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Suspect => "suspect",
            Health::Fallback => "fallback",
        })
    }
}

/// Counters of the detection/recovery machinery (one set per system).
///
/// A thin view: the values live in the fabric's unified metrics registry
/// under `dream.resilience.*` and are assembled on demand by
/// [`DreamSystem::resilience_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Configuration scrub passes executed.
    pub scrub_runs: u64,
    /// Known-answer probe messages executed.
    pub probe_runs: u64,
    /// Faults detected (scrub findings + failed probes).
    pub detections: u64,
    /// Pristine-configuration reloads issued by [`DreamSystem::reload`].
    pub reloads: u64,
    /// Personalities replaced via
    /// [`DreamSystem::replace_personality`] (re-synthesis / re-place).
    pub replacements: u64,
    /// Messages served by the software fallback kernel.
    pub fallback_messages: u64,
}

/// One configuration-scrub finding: a resident context no longer
/// computes the matrix its pristine registration proves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// The context slot holding the corrupted configuration.
    pub slot: usize,
    /// The personality the slot belongs to.
    pub personality: String,
    /// 0 = update op, 1 = finalize op, 2 = scrambler op.
    pub role: u8,
    /// The equivalence rejection (localised to outputs/columns).
    pub error: verify::EquivError,
}

/// One fabric hosting many reconfigurable personalities.
///
/// Each name has one record; a call resolves its name once, and the
/// context slots hold record indices, so a cache hit compares integers
/// and a miss allocates nothing.
#[derive(Debug, Clone)]
pub struct DreamSystem {
    sim: PicogaSim,
    control: ControlModel,
    /// One record per name, in the order the names first appeared; a
    /// record keeps its index for the system's life.
    records: Vec<Record>,
    slots: Vec<Option<SlotState>>,
    use_clock: u64,
    /// The last checksum's message bits, kept for their storage.
    msg_bits: BitVec,
    /// Handles into the fabric's unified metrics registry.
    ids: DreamIds,
}

/// Registry handles for the DREAM layer's counters.
#[derive(Debug, Clone, Copy)]
struct DreamIds {
    scrub_runs: obs::CounterId,
    probe_runs: obs::CounterId,
    detections: obs::CounterId,
    reloads: obs::CounterId,
    replacements: obs::CounterId,
    fallback_messages: obs::CounterId,
    cache_hits: obs::CounterId,
    cache_misses: obs::CounterId,
    cache_evictions: obs::CounterId,
    feed_blocks: obs::CounterId,
}

impl DreamIds {
    fn register(reg: &mut obs::MetricsRegistry) -> Self {
        DreamIds {
            scrub_runs: reg.counter("dream.resilience.scrub_runs"),
            probe_runs: reg.counter("dream.resilience.probe_runs"),
            detections: reg.counter("dream.resilience.detections"),
            reloads: reg.counter("dream.resilience.reloads"),
            replacements: reg.counter("dream.resilience.replacements"),
            fallback_messages: reg.counter("dream.resilience.fallback_messages"),
            cache_hits: reg.counter("dream.cache.hits"),
            cache_misses: reg.counter("dream.cache.misses"),
            cache_evictions: reg.counter("dream.cache.evictions"),
            feed_blocks: reg.counter("dream.stream.feed_blocks"),
        }
    }
}

impl DreamSystem {
    /// Creates an empty system on the given fabric.
    pub fn new(params: PicogaParams, control: ControlModel) -> Self {
        let contexts = params.contexts;
        let mut sim = PicogaSim::new(params);
        let ids = DreamIds::register(&mut sim.obs_mut().registry);
        DreamSystem {
            sim,
            control,
            records: Vec::new(),
            slots: vec![None; contexts],
            use_clock: 0,
            msg_bits: BitVec::default(),
            ids,
        }
    }

    /// The record index of `name`, if the name has one. A system hosts
    /// a handful of names, so comparing them beats hashing one.
    fn find(&self, name: &str) -> Option<usize> {
        self.records.iter().position(|r| r.name == name)
    }

    /// The record index of a registered CRC personality.
    fn crc_record(&self, name: &str) -> Result<usize, SystemError> {
        self.find(name)
            .filter(|&i| self.records[i].hosted.crc().is_some())
            .ok_or_else(|| SystemError::UnknownPersonality { name: name.into() })
    }

    /// The record index of a registered scrambler personality.
    fn scrambler_record(&self, name: &str) -> Result<usize, SystemError> {
        self.find(name)
            .filter(|&i| self.records[i].hosted.scrambler().is_some())
            .ok_or_else(|| SystemError::UnknownPersonality { name: name.into() })
    }

    /// The CRC host half of record `i`, which the caller has resolved as
    /// a CRC personality.
    fn crc_host(&mut self, i: usize) -> &mut CrcHost {
        match &mut self.records[i].hosted {
            Hosted::Crc(c) => c,
            _ => unreachable!("record {i} hosts a CRC personality"),
        }
    }

    /// The scrambler host half of record `i`, which the caller has
    /// resolved as a scrambler personality.
    fn scrambler_host(&mut self, i: usize) -> &mut ScramblerHost {
        match &mut self.records[i].hosted {
            Hosted::Scrambler(h) => h,
            _ => unreachable!("record {i} hosts a scrambler"),
        }
    }

    /// Refuses a name that already hosts a personality of either kind.
    fn check_new(&self, name: &str) -> Result<(), SystemError> {
        match self.find(name) {
            Some(i) if !matches!(self.records[i].hosted, Hosted::Nothing) => {
                Err(SystemError::DuplicatePersonality { name: name.into() })
            }
            _ => Ok(()),
        }
    }

    /// Puts `hosted` under `name`, in the name's record when it has one
    /// (its health was set before), else in a new one. Returns the
    /// record's index.
    fn host(&mut self, name: &str, hosted: Hosted) -> usize {
        if let Some(i) = self.find(name) {
            self.records[i].hosted = hosted;
            return i;
        }
        let i = self.records.len();
        self.records.push(Record {
            name: name.to_string(),
            hosted,
            health: Health::default(),
            pristine: Default::default(),
            gauges: [None; 3],
        });
        i
    }

    /// Registers a personality (does not load it yet — loading is lazy,
    /// on first use).
    ///
    /// # Errors
    ///
    /// [`SystemError::DuplicatePersonality`] / [`SystemError::TooManyOps`]
    /// / [`SystemError::BadSpec`].
    pub fn register(&mut self, p: Personality) -> Result<(), SystemError> {
        self.check_new(&p.name)?;
        let needed = 1 + p.finalize.is_some() as usize;
        if needed > self.slots.len() {
            return Err(SystemError::TooManyOps {
                needed,
                available: self.slots.len(),
            });
        }
        let name = p.name.clone();
        let hosted = Hosted::Crc(Box::new(CrcHost::new(p)?));
        self.host(&name, hosted);
        Ok(())
    }

    /// Registered CRC personality names.
    pub fn personalities(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.hosted.crc().is_some())
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Which personality-role pairs are currently resident on the fabric.
    pub fn resident(&self) -> Vec<(String, u8)> {
        self.slots
            .iter()
            .flatten()
            .map(|s| (self.records[s.record].name.clone(), s.role))
            .collect()
    }

    /// The fabric parameters this system hosts personalities on.
    pub fn params(&self) -> &PicogaParams {
        self.sim.params()
    }

    /// Context slots the registered working set needs to be fully
    /// resident: one per CRC update, one per anti-transform, one per
    /// scrambler. When this exceeds the fabric's context count,
    /// round-robin traffic reloads configurations on every switch.
    pub fn context_demand(&self) -> usize {
        self.records
            .iter()
            .map(|r| match &r.hosted {
                Hosted::Nothing => 0,
                Hosted::Crc(c) => 1 + usize::from(c.p.finalize.is_some()),
                Hosted::Scrambler(_) => 1,
            })
            .sum()
    }

    /// Cycle counters accumulated so far (compute + switches + loads).
    pub fn counters(&self) -> picoga::CycleCounters {
        self.sim.counters()
    }

    /// Resets the counters (residency is preserved).
    pub fn reset_counters(&mut self) {
        self.sim.reset_counters();
    }

    /// Registers a scrambler personality (one context slot; loading is
    /// lazy).
    ///
    /// # Errors
    ///
    /// [`SystemError::DuplicatePersonality`] / [`SystemError::BadSpec`].
    pub fn register_scrambler(&mut self, p: ScramblerPersonality) -> Result<(), SystemError> {
        self.check_new(&p.name)?;
        let tail = StateSpaceLfsr::additive_scrambler(&p.spec.polynomial()).map_err(|source| {
            SystemError::BadSpec {
                name: p.name.clone(),
                source,
            }
        })?;
        let lane = ScramblerLane::new(p.m, &p.derby, tail);
        let name = p.name.clone();
        self.host(
            &name,
            Hosted::Scrambler(Box::new(ScramblerHost { p, lane })),
        );
        Ok(())
    }

    /// Scrambles one frame under the named scrambler personality.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] for unregistered names,
    /// [`SystemError::EmptyInput`] for a zero-length frame,
    /// [`SystemError::BadSeed`] when the seed has bits beyond the
    /// scrambler's state width (it would otherwise be silently
    /// truncated), or fabric errors.
    pub fn scramble(
        &mut self,
        name: &str,
        seed: u64,
        data: &BitVec,
    ) -> Result<(BitVec, RunReport), SystemError> {
        let i = self.scrambler_record(name)?;
        if data.is_empty() {
            return Err(SystemError::EmptyInput { name: name.into() });
        }
        let h = self.records[i].hosted.scrambler().expect("a scrambler");
        check_seed(name, seed, h.p.derby.dim())?;
        let start = self.sim.counters();
        self.ensure_resident(i, 2)?;
        let Hosted::Scrambler(h) = &mut self.records[i].hosted else {
            unreachable!("record {i} hosts a scrambler");
        };
        Ok(h.lane
            .scramble(&mut self.sim, &self.control, seed, data, start)?)
    }

    /// A configuration-cache miss: loads role `role` of record `i` into
    /// an empty slot, else the LRU victim, republishes its stats and
    /// makes it active. The clone of a registered operation shares its
    /// configuration, compile and stats, so the host pays no copy, no
    /// compile and no allocation here once the role's gauges exist.
    fn load_on_miss(&mut self, i: usize, role: u8) -> Result<usize, SystemError> {
        let Some(op) = self.records[i].hosted.op(role).cloned() else {
            let name = self.records[i].name.clone();
            return Err(SystemError::UnknownPersonality { name });
        };
        let idx = self.pick_victim_slot();
        let stats = op.stats();
        self.note_cache_miss(i, idx);
        self.sim.load_context(idx, op)?;
        let r = usize::from(role.min(2));
        let record = &mut self.records[i];
        let gauges = match record.gauges[r] {
            Some(g) => g,
            None => {
                let role_name = ["update", "finalize", "scrambler"][r];
                let prefix = format!("op.{}.{role_name}", record.name);
                let g = OpStats::gauges(&mut self.sim.obs_mut().registry, &prefix);
                *record.gauges[r].insert(g)
            }
        };
        stats.publish_to(&mut self.sim.obs_mut().registry, gauges);
        self.slots[idx] = Some(SlotState {
            record: i,
            role,
            last_use: self.use_clock,
        });
        self.sim.switch_to(idx)?;
        Ok(idx)
    }

    /// Records a configuration-cache hit: counter, correlated event, and
    /// profiler attribution to the personality about to run.
    fn note_cache_hit(&mut self, i: usize, slot: usize) {
        let name = self.records[i].name.as_str();
        let hub = self.sim.obs_mut();
        hub.registry.inc(self.ids.cache_hits);
        hub.event_for(None, Some(name), EventKind::ContextHit { slot });
        hub.profiler.set_lane(name);
    }

    /// Records a configuration-cache miss (and the eviction, when the
    /// victim slot was occupied), and attributes subsequent fabric runs
    /// to the incoming personality.
    fn note_cache_miss(&mut self, i: usize, slot: usize) {
        let hub = self.sim.obs_mut();
        hub.registry.inc(self.ids.cache_misses);
        if let Some(victim) = &self.slots[slot] {
            hub.registry.inc(self.ids.cache_evictions);
            let lane = Some(self.records[victim.record].name.as_str());
            hub.event_for(None, lane, EventKind::ContextEvict { slot });
        }
        hub.profiler.set_lane(&self.records[i].name);
    }

    fn pick_victim_slot(&self) -> usize {
        self.slots
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_ref().map_or(0, |s| s.last_use))
                    .map(|(i, _)| i)
                    .expect("at least one slot")
            })
    }

    /// The slot holding role `role` of record `i`, if resident.
    fn slot_at(&self, i: usize, role: u8) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.is_some_and(|s| s.record == i && s.role == role))
    }

    /// Finds or loads the slot holding role `role` of record `i`,
    /// LRU-evicting if necessary, and makes it active. Returns the slot
    /// index.
    fn ensure_resident(&mut self, i: usize, role: u8) -> Result<usize, SystemError> {
        self.use_clock += 1;
        if let Some(idx) = self.slot_at(i, role) {
            self.slots[idx].as_mut().expect("hit").last_use = self.use_clock;
            self.note_cache_hit(i, idx);
            self.sim.switch_to(idx)?;
            return Ok(idx);
        }
        self.load_on_miss(i, role)
    }

    /// Computes one message's checksum under the named personality.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] for unregistered names,
    /// [`SystemError::EmptyInput`] for a zero-length message, or fabric
    /// errors.
    pub fn checksum(&mut self, name: &str, data: &[u8]) -> Result<(u64, RunReport), SystemError> {
        let i = self.crc_record(name)?;
        self.checksum_at(i, data)
    }

    /// [`DreamSystem::checksum`] under the CRC personality of record `i`.
    fn checksum_at(&mut self, i: usize, data: &[u8]) -> Result<(u64, RunReport), SystemError> {
        let c = self.records[i].hosted.crc().expect("a CRC personality");
        if data.is_empty() {
            let name = self.records[i].name.clone();
            return Err(SystemError::EmptyInput { name });
        }
        let (spec, m, derby, x0) = (c.p.spec, c.p.m, c.p.derby.is_some(), c.start);
        let start = self.sim.counters();
        let mut report = RunReport {
            bits: (data.len() * 8) as u64,
            control_cycles: self.control.msg_setup_cycles + self.control.msg_finalize_cycles,
            ..Default::default()
        };

        // Taken for the call and put back at its end (a failed call only
        // costs the next one an allocation).
        let mut bits = std::mem::take(&mut self.msg_bits);
        message_bits_into(&spec, data, &mut bits);
        let full = bits.len() / m;

        self.ensure_resident(i, 0)?;
        let mut x = if derby {
            let x_t = self.sim.run_crc_blocks_word(x0, &bits, full)?;
            self.ensure_resident(i, 1)?;
            self.sim.run_linear_word(x_t)?
        } else {
            self.sim.run_crc_dense_blocks_word(x0, &bits, full)?
        };

        let tail_len = bits.len() - full * m;
        if tail_len > 0 {
            report.tail_cycles += (tail_len as u64).div_ceil(8) * self.control.tail_cycles_per_byte;
            let tail = &self.crc_host(i).tail;
            x = tail.absorb_word(x, &bits, full * m..bits.len());
        }
        self.msg_bits = bits;

        let end = self.sim.counters();
        report.picoga = picoga::CycleCounters {
            compute: end.compute - start.compute,
            context_switch: end.context_switch - start.context_switch,
            context_load: end.context_load - start.context_load,
        };

        let mut out = x;
        if spec.refout {
            out = reflect(out, spec.width);
        }
        Ok(((out ^ spec.xorout) & spec.mask(), report))
    }
}

/// Runtime self-checking and graceful degradation (fabric-harden).
///
/// Detection is layered: [`DreamSystem::scrub`] re-proves every resident
/// configuration against its pristine registration (complete for
/// configuration corruption, blind to physical cell faults, costs no
/// fabric cycles — it reads configuration memory, not the datapath);
/// [`DreamSystem::probe`] pushes known-answer messages through the real
/// datapath (catches stuck-at cells too, pays real cycles). Recovery is
/// a ladder the policy layer climbs: [`DreamSystem::reload`] (heals
/// configuration upsets), [`DreamSystem::replace_personality`] (a
/// re-synthesized placement can route around dead cells), and
/// [`DreamSystem::checksum_software`] (the software kernel always works).
impl DreamSystem {
    /// The underlying fabric simulator (fault-injection campaigns address
    /// contexts and cells through this).
    pub fn fabric(&self) -> &PicogaSim {
        &self.sim
    }

    /// Mutable fabric access, for fault injection.
    pub fn fabric_mut(&mut self) -> &mut PicogaSim {
        &mut self.sim
    }

    /// The observability hub (delegates to the fabric simulator).
    pub fn obs(&self) -> &obs::ObsHub {
        self.sim.obs()
    }

    /// Mutable observability hub access, for layers stacked on top.
    pub fn obs_mut(&mut self) -> &mut obs::ObsHub {
        self.sim.obs_mut()
    }

    /// The context slot currently holding `(personality, role)`, if
    /// resident.
    pub fn slot_of(&self, name: &str, role: u8) -> Option<usize> {
        self.slot_at(self.find(name)?, role)
    }

    /// Current health of a personality (unknown names are `Healthy` —
    /// health is tracked, not registered).
    pub fn health(&self, name: &str) -> Health {
        self.find(name)
            .map_or(Health::default(), |i| self.records[i].health)
    }

    /// Overrides a personality's health (the recovery policy records its
    /// verdicts here). A name that hosts nothing keeps the verdict too.
    pub fn set_health(&mut self, name: &str, health: Health) {
        let i = match self.find(name) {
            Some(i) => i,
            None => self.host(name, Hosted::Nothing),
        };
        self.records[i].health = health;
    }

    /// Detection/recovery counters accumulated so far (a view assembled
    /// from the fabric's unified registry).
    pub fn resilience_counters(&self) -> ResilienceCounters {
        let reg = &self.sim.obs().registry;
        ResilienceCounters {
            scrub_runs: reg.counter_value(self.ids.scrub_runs),
            probe_runs: reg.counter_value(self.ids.probe_runs),
            detections: reg.counter_value(self.ids.detections),
            reloads: reg.counter_value(self.ids.reloads),
            replacements: reg.counter_value(self.ids.replacements),
            fallback_messages: reg.counter_value(self.ids.fallback_messages),
        }
    }

    /// Configuration scrub: re-proves every resident context equivalent
    /// to the matrix of its pristine registered operation (basis-probe
    /// proof — complete for linear networks). A resident context that
    /// still shares the registered configuration (no upset has copied
    /// it) is that configuration and needs no proof. Personalities with
    /// findings are marked [`Health::Suspect`].
    pub fn scrub(&mut self) -> Vec<ScrubFinding> {
        self.sim.obs_mut().registry.inc(self.ids.scrub_runs);
        let mut findings = Vec::new();
        for (slot, state) in self.slots.iter().enumerate() {
            let Some(state) = state else { continue };
            let Some(resident) = self.sim.context(slot) else {
                continue;
            };
            let record = &mut self.records[state.record];
            let Some(pristine) = record.hosted.op(state.role) else {
                continue;
            };
            // A resident copy that still shares the registered
            // configuration is that configuration: every fault hook
            // copies before it writes.
            if resident.shares_config(pristine) {
                continue;
            }
            let expected = record.pristine[usize::from(state.role.min(2))]
                .get_or_insert_with(|| pristine.network().to_matrix());
            if let Err(error) = verify::check_network(resident.network(), expected) {
                record.health = Health::Suspect;
                findings.push(ScrubFinding {
                    slot,
                    personality: record.name.clone(),
                    role: state.role,
                    error,
                });
            }
        }
        let hub = self.sim.obs_mut();
        hub.registry.add(self.ids.detections, findings.len() as u64);
        hub.event(EventKind::ScrubRun {
            findings: findings.len() as u64,
        });
        for f in &findings {
            hub.event_for(None, Some(&f.personality), EventKind::Detection);
        }
        findings
    }

    /// Known-answer probe: runs `blocks` blocks of deterministic data
    /// through the personality's full fabric path and compares against
    /// a software reference: for a CRC personality, Sarwate's byte table
    /// (bit-serial under 8 bits), built on the personality's first probe
    /// and kept; for a scrambler, the serial [`AdditiveScrambler`].
    /// Unlike [`DreamSystem::scrub`] this exercises the physical
    /// datapath, so stuck-at cells are caught; it also pays real fabric
    /// cycles (visible in [`DreamSystem::counters`] — self-checking is
    /// not free).
    ///
    /// Returns `true` when the answer matched.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] or fabric errors.
    pub fn probe(&mut self, name: &str, blocks: usize) -> Result<bool, SystemError> {
        self.sim.obs_mut().registry.inc(self.ids.probe_runs);
        let salt = self.sim.obs().registry.counter_value(self.ids.probe_runs);
        let unknown = || SystemError::UnknownPersonality { name: name.into() };
        let i = self.find(name).ok_or_else(unknown)?;
        let ok = match &self.records[i].hosted {
            Hosted::Crc(c) => {
                let len = ((c.p.m * blocks.max(1)) / 8).max(1);
                // The message lives on the stack unless it is unusually long.
                let (mut stack, mut heap) = ([0u8; 256], Vec::new());
                let data = if len <= stack.len() {
                    &mut stack[..len]
                } else {
                    heap.resize(len, 0);
                    &mut heap[..]
                };
                for (i, b) in (0u64..).zip(data.iter_mut()) {
                    *b = (i.wrapping_mul(151).wrapping_add(salt.wrapping_mul(29)) ^ 0x5A) as u8;
                }
                let (got, _) = self.checksum_at(i, data)?;
                got == self.crc_host(i).reference().checksum(data)
            }
            Hosted::Scrambler(h) => {
                let (spec, bits) = (h.p.spec, h.p.m * blocks.max(1));
                let mut frame = BitVec::zeros(bits);
                for i in 0..bits {
                    if (i as u64)
                        .wrapping_mul(37)
                        .wrapping_add(salt)
                        .is_multiple_of(3)
                    {
                        frame.set(i, true);
                    }
                }
                let (got, _) = self.scramble(name, spec.default_seed, &frame)?;
                let mut reference =
                    AdditiveScrambler::new(&spec).map_err(|source| SystemError::BadSpec {
                        name: name.to_string(),
                        source,
                    })?;
                got == reference.scramble(&frame)
            }
            Hosted::Nothing => return Err(unknown()),
        };
        if !ok {
            self.sim.obs_mut().registry.inc(self.ids.detections);
            self.records[i].health = Health::Suspect;
        }
        self.sim
            .obs_mut()
            .event_for(None, Some(name), EventKind::ProbeRun { ok });
        Ok(ok)
    }

    /// Affine-complete physical probe of every context a personality
    /// owns (update and, when present, finalize for CRC lanes; the
    /// transducer for scramblers): each context is made resident and
    /// its physical datapath is swept with the zero vector and the full
    /// input basis (see `PicogaSim::affine_probe`). Unlike the sampled
    /// known-answer [`DreamSystem::probe`], this cannot be fooled by a
    /// stuck-at cell that the probe data happens not to excite — for
    /// the XOR fault model the sweep is complete.
    ///
    /// A failing personality is marked [`Health::Suspect`].
    ///
    /// The sweep's completeness holds **only for affine datapaths**, so
    /// the probe first consults the personality's static
    /// [`analyze::LinearityCert`] (deriving and caching one when the
    /// build flow did not attach it) and refuses with
    /// [`SystemError::ProbeUnsound`] — a hard error, not a silent
    /// fallback — when the personality is not affine.
    ///
    /// Returns `true` when every context's datapath matches its
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`], [`SystemError::ProbeUnsound`]
    /// or fabric errors.
    pub fn datapath_probe(&mut self, name: &str) -> Result<bool, SystemError> {
        if !self.certified_affine(name)? {
            let cert = self.linearity_cert(name)?;
            return Err(SystemError::ProbeUnsound {
                name: name.into(),
                summary: cert.summary(),
            });
        }
        self.sim.obs_mut().registry.inc(self.ids.probe_runs);
        let unknown = || SystemError::UnknownPersonality { name: name.into() };
        let i = self.find(name).ok_or_else(unknown)?;
        let roles: &[u8] = match &self.records[i].hosted {
            Hosted::Crc(c) if c.p.finalize.is_some() => &[0, 1],
            Hosted::Crc(_) => &[0],
            Hosted::Scrambler(_) => &[2],
            Hosted::Nothing => return Err(unknown()),
        };
        let mut ok = true;
        for &role in roles {
            let slot = self.ensure_resident(i, role)?;
            self.sim.switch_to(slot)?;
            if !self.sim.affine_probe()? {
                ok = false;
                break;
            }
        }
        if !ok {
            self.sim.obs_mut().registry.inc(self.ids.detections);
            self.records[i].health = Health::Suspect;
        }
        self.sim
            .obs_mut()
            .event_for(None, Some(name), EventKind::ProbeRun { ok });
        Ok(ok)
    }

    /// Whether the personality's linearity certificate (see
    /// [`DreamSystem::linearity_cert`]) proves it affine, read without
    /// copying the certificate.
    fn certified_affine(&mut self, name: &str) -> Result<bool, SystemError> {
        let attached = self.find(name).and_then(|i| match &self.records[i].hosted {
            Hosted::Crc(c) => c.p.linearity.as_ref(),
            Hosted::Scrambler(h) => h.p.linearity.as_ref(),
            Hosted::Nothing => None,
        });
        match attached {
            Some(cert) => Ok(cert.affine),
            None => Ok(self.linearity_cert(name)?.affine),
        }
    }

    /// The personality's linearity certificate: the one the build flow
    /// attached, or — for personalities registered without analysis —
    /// one derived here from the registered operations and cached.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`].
    pub fn linearity_cert(&mut self, name: &str) -> Result<analyze::LinearityCert, SystemError> {
        let hosted = self.find(name).map(|i| &mut self.records[i].hosted);
        let (ops, slot): (Vec<&PgaOperation>, _) = match hosted {
            Some(Hosted::Crc(c)) => (
                std::iter::once(&c.p.update)
                    .chain(c.p.finalize.as_ref())
                    .collect(),
                &mut c.p.linearity,
            ),
            Some(Hosted::Scrambler(h)) => (vec![&h.p.op], &mut h.p.linearity),
            _ => return Err(SystemError::UnknownPersonality { name: name.into() }),
        };
        if let Some(c) = slot {
            return Ok(c.clone());
        }
        let parts: Vec<_> = ops
            .into_iter()
            .map(|op| analyze::certify(&analyze::FabricConfig::from_op(op)).0)
            .collect();
        let cert = analyze::LinearityCert::merge(name, &parts);
        Ok(slot.insert(cert).clone())
    }

    /// Reloads the pristine configuration of every resident context of
    /// `name` from the registry (off-fabric configuration memory). Heals
    /// resident-context upsets; useless against stuck-at cells. The
    /// reload cycles are charged to the fabric counters. Returns the
    /// number of contexts reloaded (0 when nothing is resident — the
    /// next use lazy-loads pristine configuration anyway).
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] or fabric errors.
    pub fn reload(&mut self, name: &str) -> Result<usize, SystemError> {
        let i = self
            .find(name)
            .filter(|&i| !matches!(self.records[i].hosted, Hosted::Nothing))
            .ok_or_else(|| SystemError::UnknownPersonality { name: name.into() })?;
        let mut reloaded = 0;
        for slot in 0..self.slots.len() {
            let Some(state) = self.slots[slot].filter(|s| s.record == i) else {
                continue;
            };
            reloaded += 1;
            let Some(op) = self.records[i].hosted.op(state.role).cloned() else {
                continue;
            };
            self.sim.load_context(slot, op)?;
            self.sim.obs_mut().registry.inc(self.ids.reloads);
        }
        Ok(reloaded)
    }

    /// Drops every resident context of `name` (the slots are reused by
    /// the LRU policy; the personality stays registered and lazy-loads
    /// on next use). Returns the number of slots freed.
    pub fn evict(&mut self, name: &str) -> usize {
        self.find(name).map_or(0, |i| self.evict_record(i))
    }

    /// Drops every resident context of record `i`; returns how many.
    fn evict_record(&mut self, i: usize) -> usize {
        let mut n = 0;
        for s in &mut self.slots {
            if s.is_some_and(|s| s.record == i) {
                *s = None;
                n += 1;
            }
        }
        n
    }

    /// Replaces a registered personality with a re-synthesized one of
    /// the same name (a different placement can route around stuck-at
    /// cells). Resident contexts of the old personality are evicted.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] when nothing of that name is
    /// registered, [`SystemError::BadSpec`] for degenerate specs.
    pub fn replace_personality(&mut self, p: Personality) -> Result<(), SystemError> {
        let i = self.crc_record(&p.name)?;
        let host = CrcHost::new(p)?;
        self.evict_record(i);
        let record = &mut self.records[i];
        record.hosted = Hosted::Crc(Box::new(host));
        record.pristine = Default::default();
        self.sim.obs_mut().registry.inc(self.ids.replacements);
        Ok(())
    }

    /// Computes one message's checksum entirely in software
    /// ([`SoftwareKernel`]: slicing-by-8 for reflected specs, Sarwate's
    /// byte table for the others, bit-serial for widths under 8, built on
    /// the personality's first fallback message and kept until the
    /// personality is replaced). The last rung of the degradation
    /// ladder: no fabric cycles, byte-rate cost on the control processor.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] / [`SystemError::EmptyInput`]
    /// (mirroring [`DreamSystem::checksum`], so degradation never
    /// changes the accepted input domain).
    pub fn checksum_software(
        &mut self,
        name: &str,
        data: &[u8],
    ) -> Result<(u64, RunReport), SystemError> {
        let i = self.crc_record(name)?;
        if data.is_empty() {
            return Err(SystemError::EmptyInput { name: name.into() });
        }
        let crc = self.crc_host(i).fallback().checksum(data);
        self.sim.obs_mut().registry.inc(self.ids.fallback_messages);
        let report = RunReport {
            bits: (data.len() * 8) as u64,
            control_cycles: self.control.msg_setup_cycles + self.control.msg_finalize_cycles,
            tail_cycles: (data.len() as u64) * self.control.tail_cycles_per_byte,
            ..Default::default()
        };
        Ok((crc, report))
    }
}

/// The state a CRC personality's messages start from: the spec's init
/// register, in the transformed domain when the lane is a Derby lane.
fn start_state(p: &Personality) -> u64 {
    let init = BitVec::from_u64(p.spec.init & p.spec.mask(), p.spec.width);
    match &p.derby {
        Some(derby) => derby.transform_state(&init).to_u64(),
        None => init.to_u64(),
    }
}

/// Rejects seeds with bits beyond the scrambler's state width; the
/// excess used to be truncated silently by `BitVec::from_u64`.
fn check_seed(name: &str, seed: u64, width: usize) -> Result<(), SystemError> {
    if width < 64 && seed >> width != 0 {
        return Err(SystemError::BadSeed {
            name: name.into(),
            seed,
            width,
        });
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::crc_app::BuildError;
    use lfsr::crc::crc_bitwise;
    use lfsr_parallel::{BlockSystem, DerbyTransform};
    use xornet::{synthesize, SynthOptions};

    /// Builds a Derby personality directly (mirrors DreamCrcApp::build).
    pub(crate) fn personality(
        name: &str,
        spec: &CrcSpec,
        m: usize,
    ) -> Result<Personality, BuildError> {
        let params = PicogaParams::dream();
        let serial = StateSpaceLfsr::crc(&spec.generator()).unwrap();
        let block = BlockSystem::new(&serial, m).unwrap();
        let derby = DerbyTransform::new(&block).expect("derby ok for these specs");
        let update_net = synthesize(derby.b_mt(), SynthOptions::default());
        let update = PgaOperation::crc_update("u", update_net, derby.a_mt(), &params)
            .map_err(|source| BuildError::Map { op: "u", source })?;
        let fin_net = synthesize(derby.t(), SynthOptions::default());
        let finalize = PgaOperation::linear("f", fin_net, &params)
            .map_err(|source| BuildError::Map { op: "f", source })?;
        Ok(Personality {
            name: name.into(),
            spec: *spec,
            m,
            update,
            finalize: Some(finalize),
            derby: Some(derby),
            linearity: None,
        })
    }

    fn system_with(names: &[(&str, &str, usize)]) -> DreamSystem {
        let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
        for (name, spec, m) in names {
            let spec = CrcSpec::by_name(spec).unwrap();
            sys.register(personality(name, spec, *m).unwrap()).unwrap();
        }
        sys
    }

    #[test]
    fn hosts_multiple_personalities_correctly() {
        let mut sys = system_with(&[
            ("eth", "CRC-32/ETHERNET", 32),
            ("hdlc", "CRC-16/IBM-SDLC", 32),
        ]);
        let data = b"multi-standard traffic".to_vec();
        let (eth, _) = sys.checksum("eth", &data).unwrap();
        let (hdlc, _) = sys.checksum("hdlc", &data).unwrap();
        assert_eq!(eth, crc_bitwise(CrcSpec::crc32_ethernet(), &data));
        assert_eq!(
            hdlc,
            crc_bitwise(CrcSpec::by_name("CRC-16/IBM-SDLC").unwrap(), &data)
        );
    }

    #[test]
    fn second_run_hits_the_configuration_cache() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        let data = vec![0xAAu8; 64];
        let (_, first) = sys.checksum("eth", &data).unwrap();
        let (_, second) = sys.checksum("eth", &data).unwrap();
        assert!(first.picoga.context_load > 0, "cold start loads configs");
        assert_eq!(second.picoga.context_load, 0, "warm run must not reload");
        assert!(second.total_cycles() < first.total_cycles());
    }

    #[test]
    fn lru_evicts_when_cache_overflows() {
        // Three 2-op personalities on a 4-context cache: ping-ponging
        // between all three forces evictions.
        let mut sys = system_with(&[
            ("a", "CRC-32/ETHERNET", 32),
            ("b", "CRC-16/IBM-SDLC", 32),
            ("c", "CRC-16/XMODEM", 32),
        ]);
        let data = vec![0x55u8; 32];
        for name in ["a", "b", "c", "a", "b", "c"] {
            let (crc, _) = sys.checksum(name, &data).unwrap();
            let spec = *sys.crc_spec(name).unwrap();
            assert_eq!(crc, crc_bitwise(&spec, &data), "{name}");
        }
        // Only 4 slots exist, so at most 2 personalities resident.
        assert!(sys.resident().len() <= 4);
        // Cumulative loads exceed the initial 6 op-loads: evictions happened.
        assert!(sys.counters().context_load > 6 * PicogaParams::dream().context_load_cycles);
    }

    #[test]
    fn unknown_and_duplicate_names_are_errors() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        assert!(matches!(
            sys.checksum("nope", b"x"),
            Err(SystemError::UnknownPersonality { .. })
        ));
        let dup = personality("eth", CrcSpec::crc32_ethernet(), 16).unwrap();
        assert!(matches!(
            sys.register(dup),
            Err(SystemError::DuplicatePersonality { .. })
        ));
    }

    #[test]
    fn health_of_a_name_that_hosts_nothing_is_kept() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        assert_eq!(sys.health("ghost"), Health::Healthy, "untracked");
        sys.set_health("ghost", Health::Suspect);
        assert_eq!(sys.health("ghost"), Health::Suspect);
        // It is tracked, not hosted.
        assert_eq!(sys.personalities(), ["eth"]);
        assert_eq!(sys.context_demand(), 2);
        assert!(matches!(
            sys.checksum("ghost", b"x"),
            Err(SystemError::UnknownPersonality { .. })
        ));
        assert!(matches!(
            sys.reload("ghost"),
            Err(SystemError::UnknownPersonality { .. })
        ));
        assert_eq!(sys.evict("ghost"), 0);
        // Registering the name later keeps the verdict.
        sys.register(personality("ghost", CrcSpec::crc32_ethernet(), 8).unwrap())
            .unwrap();
        assert_eq!(sys.health("ghost"), Health::Suspect);
        let mut names = sys.personalities();
        names.sort_unstable();
        assert_eq!(names, ["eth", "ghost"]);
        let (crc, _) = sys.checksum("ghost", b"now hosted").unwrap();
        assert_eq!(crc, crc_bitwise(CrcSpec::crc32_ethernet(), b"now hosted"));
    }

    #[test]
    fn scrambler_personality_coexists_with_crc() {
        use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        // Build the 802.11 scrambler op by hand (mirrors the flow).
        let sspec = ScramblerSpec::ieee80211();
        let serial = StateSpaceLfsr::additive_scrambler(&sspec.polynomial()).unwrap();
        let block = BlockSystem::new(&serial, 32).unwrap();
        let derby = DerbyTransform::new(&block).unwrap();
        let net_matrix = derby.output_matrix(&block);
        let net = synthesize(&net_matrix, SynthOptions::default());
        let op =
            PgaOperation::scrambler("scr", net, derby.a_mt(), 32, &PicogaParams::dream()).unwrap();
        sys.register_scrambler(ScramblerPersonality {
            name: "wifi".into(),
            spec: *sspec,
            m: 32,
            op,
            derby,
            linearity: None,
        })
        .unwrap();

        let frame = BitVec::from_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF, 100);
        let (scrambled, _) = sys.scramble("wifi", sspec.default_seed, &frame).unwrap();
        let mut reference = AdditiveScrambler::new(sspec).unwrap();
        assert_eq!(scrambled, reference.scramble(&frame));

        // And the CRC personality still works afterwards.
        let (crc, _) = sys.checksum("eth", b"mixed traffic").unwrap();
        assert_eq!(
            crc,
            crc_bitwise(CrcSpec::crc32_ethernet(), b"mixed traffic")
        );

        // Duplicate names across kinds are rejected.
        let dup = personality("wifi", CrcSpec::crc32_ethernet(), 16).unwrap();
        assert!(matches!(
            sys.register(dup),
            Err(SystemError::DuplicatePersonality { .. })
        ));
    }

    #[test]
    fn zero_length_checksum_is_a_typed_error() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        assert!(matches!(
            sys.checksum("eth", b""),
            Err(SystemError::EmptyInput { name }) if name == "eth"
        ));
        // The software fallback refuses identically.
        assert!(matches!(
            sys.checksum_software("eth", b""),
            Err(SystemError::EmptyInput { .. })
        ));
        // Nothing was loaded onto the fabric for the refused message.
        assert!(sys.resident().is_empty());
    }

    /// Builds the 802.11 scrambler personality (mirrors the flow).
    pub(crate) fn wifi_scrambler(m: usize) -> ScramblerPersonality {
        use lfsr::scramble::ScramblerSpec;
        let sspec = ScramblerSpec::ieee80211();
        let serial = StateSpaceLfsr::additive_scrambler(&sspec.polynomial()).unwrap();
        let block = BlockSystem::new(&serial, m).unwrap();
        let derby = DerbyTransform::new(&block).unwrap();
        let net_matrix = derby.output_matrix(&block);
        let net = synthesize(&net_matrix, SynthOptions::default());
        let op =
            PgaOperation::scrambler("scr", net, derby.a_mt(), m, &PicogaParams::dream()).unwrap();
        ScramblerPersonality {
            name: "wifi".into(),
            spec: *sspec,
            m,
            op,
            derby,
            linearity: None,
        }
    }

    #[test]
    fn zero_length_and_oversized_seed_scramble_are_typed_errors() {
        let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
        sys.register_scrambler(wifi_scrambler(32)).unwrap();
        let empty = BitVec::zeros(0);
        assert!(matches!(
            sys.scramble("wifi", 0x5D, &empty),
            Err(SystemError::EmptyInput { name }) if name == "wifi"
        ));
        // The 802.11 scrambler state is 7 bits: bit 7 and above of the
        // seed used to be truncated silently.
        let frame = BitVec::from_u64(0xAA55, 16);
        assert!(matches!(
            sys.scramble("wifi", 0x180, &frame),
            Err(SystemError::BadSeed {
                width: 7,
                seed: 0x180,
                ..
            })
        ));
        // Every in-range seed still scrambles exactly.
        use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
        let sspec = ScramblerSpec::ieee80211();
        let (got, _) = sys.scramble("wifi", 0x7F, &frame).unwrap();
        let mut reference = AdditiveScrambler::with_seed(sspec, 0x7F).unwrap();
        assert_eq!(got, reference.scramble(&frame));
    }

    #[test]
    fn resident_set_reflects_usage() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        assert!(sys.resident().is_empty(), "lazy loading");
        sys.checksum("eth", &[1, 2, 3, 4]).unwrap();
        let resident = sys.resident();
        assert!(resident.contains(&("eth".to_string(), 0)));
        assert!(resident.contains(&("eth".to_string(), 1)));
    }

    /// Finds a wire flip on the resident update op that changes its
    /// matrix (a semantic SEU).
    fn semantic_flip_for(sys: &DreamSystem, slot: usize) -> picoga::ConfigFault {
        semantic_flip_where(sys, slot, |_| true)
    }

    /// The first semantic wire flip on the context in `slot` that
    /// `accept` takes.
    fn semantic_flip_where(
        sys: &DreamSystem,
        slot: usize,
        accept: impl Fn(&picoga::ConfigFault) -> bool,
    ) -> picoga::ConfigFault {
        let op = sys.fabric().context(slot).expect("resident");
        let t = op.network().to_matrix();
        for gate in (0..op.network().gate_count()).rev() {
            for new_signal in 0..op.network().n_inputs() {
                let mut probe = op.clone();
                let fault = picoga::ConfigFault::WireFlip {
                    slot,
                    gate,
                    pin: 0,
                    new_signal,
                };
                if probe.corrupt_wire(gate, 0, new_signal).is_ok()
                    && probe.network().to_matrix() != t
                    && accept(&fault)
                {
                    return fault;
                }
            }
        }
        panic!("no semantic flip found");
    }

    #[test]
    fn scrub_detects_config_flip_and_reload_heals() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        let data = b"scrub me".to_vec();
        sys.checksum("eth", &data).unwrap();
        assert!(sys.scrub().is_empty(), "pristine fabric is clean");
        assert_eq!(sys.health("eth"), Health::Healthy);

        let slot = sys.slot_of("eth", 0).unwrap();
        let fault = semantic_flip_for(&sys, slot);
        sys.fabric_mut().inject(&fault).unwrap();

        let findings = sys.scrub();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].personality, "eth");
        assert_eq!(findings[0].role, 0);
        assert_eq!(sys.health("eth"), Health::Suspect);

        // The corrupted fabric actually computes wrong checksums.
        let (bad, _) = sys.checksum("eth", &data).unwrap();
        assert_ne!(bad, crc_bitwise(CrcSpec::crc32_ethernet(), &data));

        // Reload from configuration memory heals an SEU.
        let loads_before = sys.counters().context_load;
        assert_eq!(sys.reload("eth").unwrap(), 2, "both ops resident");
        assert!(
            sys.counters().context_load > loads_before,
            "reload cycles are charged"
        );
        assert!(sys.scrub().is_empty());
        assert!(sys.probe("eth", 2).unwrap());
        sys.set_health("eth", Health::Healthy);

        let (good, _) = sys.checksum("eth", &data).unwrap();
        assert_eq!(good, crc_bitwise(CrcSpec::crc32_ethernet(), &data));
        let c = sys.resilience_counters();
        assert_eq!(c.detections, 1);
        assert_eq!(c.reloads, 2);
        assert!(c.scrub_runs >= 3 && c.probe_runs >= 1);
    }

    /// Whether `fault` makes the next known-answer probe of `name`
    /// (2 blocks) fail: tried on a copy of the system, whose probe sees
    /// the same data.
    fn probe_excites(sys: &DreamSystem, name: &str, fault: &picoga::ConfigFault) -> bool {
        let mut trial = sys.clone();
        trial.fabric_mut().inject(fault).unwrap();
        !trial.probe(name, 2).unwrap()
    }

    /// A stuck cell under the update placement of `name` that the next
    /// known-answer probe excites.
    fn excited_stuck_cell(sys: &DreamSystem, name: &str) -> picoga::ConfigFault {
        let slot = sys.slot_of(name, 0).expect("resident");
        let rows = sys.fabric().context(slot).unwrap().placement().rows();
        for (row, gates) in rows.iter().enumerate() {
            for cell in 0..gates.len() {
                for value in [true, false] {
                    let fault = picoga::ConfigFault::StuckCell { row, cell, value };
                    if probe_excites(sys, name, &fault) {
                        return fault;
                    }
                }
            }
        }
        panic!("no stuck cell the probe data excites");
    }

    #[test]
    fn probe_catches_stuck_cell_that_scrub_cannot_see() {
        for m in [8, 32, 128] {
            let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", m)]);
            sys.checksum("eth", b"warm up").unwrap();
            assert!(sys.probe("eth", 2).unwrap(), "M={m}: a sound lane passes");
            assert_eq!(sys.health("eth"), Health::Healthy);
            // Stick a cell used by the resident placement.
            let fault = excited_stuck_cell(&sys, "eth");
            sys.fabric_mut().inject(&fault).unwrap();
            // Scrub reads configuration memory: the stored bits are intact.
            assert!(sys.scrub().is_empty(), "scrub is blind to silicon faults");
            // The datapath probe is not.
            assert!(!sys.probe("eth", 2).unwrap(), "M={m}");
            assert_eq!(sys.health("eth"), Health::Suspect);
            // Reload cannot fix silicon.
            sys.reload("eth").unwrap();
            assert!(!sys.probe("eth", 2).unwrap(), "M={m}");
            // Software fallback always can.
            sys.set_health("eth", Health::Fallback);
            let data = b"fallback path".to_vec();
            let (crc, report) = sys.checksum_software("eth", &data).unwrap();
            assert_eq!(crc, crc_bitwise(CrcSpec::crc32_ethernet(), &data));
            assert_eq!(report.picoga.total(), 0, "no fabric cycles in fallback");
            assert!(report.tail_cycles > 0);
            assert_eq!(sys.resilience_counters().fallback_messages, 1);
        }
    }

    #[test]
    fn probe_catches_a_wire_flip_its_data_excites() {
        for m in [8, 32, 128] {
            let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", m)]);
            sys.checksum("eth", b"warm up").unwrap();
            assert!(sys.probe("eth", 2).unwrap(), "M={m}: a sound lane passes");
            let slot = sys.slot_of("eth", 0).unwrap();
            let fault = semantic_flip_where(&sys, slot, |f| probe_excites(&sys, "eth", f));
            sys.fabric_mut().inject(&fault).unwrap();
            let detections = sys.resilience_counters().detections;
            assert!(!sys.probe("eth", 2).unwrap(), "M={m}");
            assert_eq!(sys.health("eth"), Health::Suspect, "M={m}");
            assert_eq!(sys.resilience_counters().detections, detections + 1);
            // A reload heals the upset, and the probe agrees.
            sys.reload("eth").unwrap();
            assert!(sys.probe("eth", 2).unwrap(), "M={m}: healed");
        }
    }

    #[test]
    fn datapath_probe_derives_and_caches_a_linearity_cert() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        // Registered without a cert: the probe derives one on first use.
        assert!(sys.datapath_probe("eth").unwrap());
        let cert = sys.linearity_cert("eth").unwrap();
        assert!(
            cert.affine,
            "CRC personalities are linear: {}",
            cert.summary()
        );
        assert_eq!(cert.n_nonlinear, 0);
    }

    #[test]
    fn non_affine_cert_makes_the_probe_refuse() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        // Doctor the cert: pretend the prover found a nonlinear cell.
        let mut p = personality("eth2", CrcSpec::crc32_ethernet(), 32).unwrap();
        p.linearity = Some(analyze::LinearityCert {
            affine: false,
            linear: false,
            n_affine: 0,
            n_nonlinear: 1,
            offending_cells: vec![7],
            matrix: None,
            offset: None,
            ..sys.linearity_cert("eth").unwrap()
        });
        sys.register(p).unwrap();
        let err = sys.datapath_probe("eth2").unwrap_err();
        assert!(matches!(err, SystemError::ProbeUnsound { .. }), "{err}");
        assert!(err.to_string().contains("unsound"));
        // A config property, not a fault: health is untouched.
        assert_eq!(sys.health("eth2"), Health::Healthy);
    }

    #[test]
    fn replace_personality_evicts_and_swaps_the_registration() {
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        sys.checksum("eth", b"resident now").unwrap();
        assert_eq!(sys.resident().len(), 2);
        // Re-synthesized personality under the same name (different M —
        // stand-in for a different placement).
        let fresh = personality("eth", CrcSpec::crc32_ethernet(), 64).unwrap();
        sys.replace_personality(fresh).unwrap();
        assert!(sys.resident().is_empty(), "old contexts evicted");
        let (crc, _) = sys.checksum("eth", b"resident now").unwrap();
        assert_eq!(crc, crc_bitwise(CrcSpec::crc32_ethernet(), b"resident now"));
        assert_eq!(sys.resilience_counters().replacements, 1);
        // Unknown names are typed errors.
        let other = personality("ghost", CrcSpec::crc32_ethernet(), 32).unwrap();
        assert!(matches!(
            sys.replace_personality(other),
            Err(SystemError::UnknownPersonality { .. })
        ));
    }

    #[test]
    fn replacing_the_spec_under_the_same_name_moves_its_start_state() {
        // Same generator and M, only the init register differs: a start
        // state kept from the first spec would run without complaint.
        let data = b"replaced under the same name!".to_vec();
        for (first, second) in [
            ("CRC-16/ARC", "CRC-16/MODBUS"),
            ("CRC-32/ETHERNET", "CRC-32/CKSUM"),
        ] {
            let spec = CrcSpec::by_name(first).unwrap();
            let mut sys = system_with(&[("lane", first, 32)]);
            let (crc, _) = sys.checksum("lane", &data).unwrap();
            assert_eq!(crc, crc_bitwise(spec, &data), "{first}");
            let spec = CrcSpec::by_name(second).unwrap();
            sys.replace_personality(personality("lane", spec, 32).unwrap())
                .unwrap();
            let (crc, _) = sys.checksum("lane", &data).unwrap();
            assert_eq!(crc, crc_bitwise(spec, &data), "{second}");
            // A stream starts from the same state.
            let bits = lfsr::crc::message_bits(spec, &data);
            let full = bits.len() / 32 * 32;
            let x0 = sys.crc_stream_begin("lane").unwrap();
            let x = sys
                .crc_stream_feed("lane", &x0, &bits.slice(0, full))
                .unwrap();
            let rest = bits.slice(full, bits.len() - full);
            let (crc, _) = sys.crc_stream_finish("lane", &x, &rest).unwrap();
            assert_eq!(crc, crc_bitwise(spec, &data), "{second} streamed");
        }
    }

    #[test]
    fn compiles_stay_exact_through_reload_and_replacement() {
        let mut sys = system_with(&[
            ("eth", "CRC-32/ETHERNET", 32),
            ("hdlc", "CRC-16/IBM-SDLC", 8),
        ]);
        let data = b"compile cache".to_vec();
        let want = crc_bitwise(CrcSpec::crc32_ethernet(), &data);
        let exact = |sys: &DreamSystem| {
            (0..sys.params().contexts).all(|s| sys.fabric().compile_is_exact(s) != Some(false))
        };
        sys.checksum("eth", &data).unwrap();
        sys.checksum("hdlc", &data).unwrap();
        assert!(exact(&sys));

        // A wire flip, then a reload of the pristine operations.
        let slot = sys.slot_of("eth", 0).unwrap();
        let fault = semantic_flip_for(&sys, slot);
        sys.fabric_mut().inject(&fault).unwrap();
        assert!(exact(&sys));
        assert_ne!(sys.checksum("eth", &data).unwrap().0, want);
        let (loads, cycles) = (sys.fabric().loads_seen(), sys.counters().context_load);
        assert_eq!(sys.reload("eth").unwrap(), 2);
        assert_eq!(sys.fabric().loads_seen(), loads + 2, "reloads are loads");
        assert_eq!(
            sys.counters().context_load,
            cycles + 2 * sys.params().context_load_cycles
        );
        assert!(exact(&sys));
        assert_eq!(sys.checksum("eth", &data).unwrap().0, want);

        // A stuck cell under the placements, then a re-synthesized
        // replacement loaded while it is still there.
        sys.fabric_mut()
            .inject(&picoga::ConfigFault::StuckCell {
                row: 0,
                cell: 0,
                value: true,
            })
            .unwrap();
        assert!(exact(&sys));
        let fresh = personality("eth", CrcSpec::crc32_ethernet(), 64).unwrap();
        sys.replace_personality(fresh).unwrap();
        sys.checksum("eth", &data).unwrap();
        assert!(exact(&sys));
        sys.fabric_mut().clear_stuck_cells();
        assert!(exact(&sys));
        assert_eq!(sys.checksum("eth", &data).unwrap().0, want);
        let hdlc = CrcSpec::by_name("CRC-16/IBM-SDLC").unwrap();
        assert_eq!(
            sys.checksum("hdlc", &data).unwrap().0,
            crc_bitwise(hdlc, &data)
        );
        assert!(exact(&sys));
    }

    #[test]
    fn system_error_sources_are_wired() {
        use std::error::Error as _;
        let mut sys = system_with(&[("eth", "CRC-32/ETHERNET", 32)]);
        sys.checksum("eth", b"x").unwrap();
        // Force a SimError through the public API via a bad injection,
        // then check the SystemError wrapper exposes source().
        let e = SystemError::Sim(picoga::SimError::EmptySlot { slot: 3 });
        assert!(e.source().is_some());
        let e = SystemError::UnknownPersonality { name: "n".into() };
        assert!(e.source().is_none());
    }

    #[test]
    fn cache_thrash_five_personalities_on_four_contexts() {
        // 5 single-op (dense CRC-16/DECT-X has no finalize) + ... easier:
        // five 2-op personalities on a 4-slot cache: every round-robin
        // pass must reload, in LRU order, and FL008 warns about it.
        let mut sys = system_with(&[
            ("a", "CRC-32/ETHERNET", 32),
            ("b", "CRC-16/IBM-SDLC", 32),
            ("c", "CRC-16/XMODEM", 32),
            ("d", "CRC-32/MPEG-2", 32),
            ("e", "CRC-16/USB", 32),
        ]);
        let params = *sys.params();
        assert_eq!(sys.context_demand(), 10, "5 Derby personalities, 2 ops");
        let report = verify::lint_context_demand(sys.context_demand(), &params);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == verify::Code::CacheOverflow),
            "FL008 must flag a 10-op working set on a 4-context cache"
        );

        let data = vec![0x3Cu8; 32];
        let mut expected_loads = 0u64;
        for name in ["a", "b", "c", "d", "e", "a", "b", "c", "d", "e"] {
            let before = sys.counters().context_load;
            let (crc, _) = sys.checksum(name, &data).unwrap();
            let spec = *CrcSpec::by_name(match name {
                "a" => "CRC-32/ETHERNET",
                "b" => "CRC-16/IBM-SDLC",
                "c" => "CRC-16/XMODEM",
                "d" => "CRC-32/MPEG-2",
                _ => "CRC-16/USB",
            })
            .unwrap();
            assert_eq!(crc, crc_bitwise(&spec, &data), "{name} stays bit-exact");
            let loads = sys.counters().context_load - before;
            // Thrash: every message must reload both its ops (update +
            // finalize) — the 4-slot cache can never hold a personality
            // across a full 5-way round-robin.
            assert_eq!(
                loads,
                2 * params.context_load_cycles,
                "{name} must miss twice under thrash"
            );
            expected_loads += loads;
        }
        assert_eq!(sys.counters().context_load, expected_loads);
        // At most 4 slots occupied, naturally.
        assert!(sys.resident().len() <= 4);
    }

    #[test]
    fn lru_eviction_order_is_least_recently_used() {
        // 2-op personalities a, b on 4 slots: both resident. Touch a,
        // then host c: c's two ops must evict b's (the LRU pair), not a's.
        let mut sys = system_with(&[
            ("a", "CRC-32/ETHERNET", 32),
            ("b", "CRC-16/IBM-SDLC", 32),
            ("c", "CRC-16/XMODEM", 32),
        ]);
        let data = vec![1u8; 16];
        sys.checksum("b", &data).unwrap();
        sys.checksum("a", &data).unwrap(); // a is now most recent
        let resident: Vec<String> = sys.resident().into_iter().map(|(n, _)| n).collect();
        assert!(resident.contains(&"a".to_string()) && resident.contains(&"b".to_string()));

        sys.checksum("c", &data).unwrap();
        let resident: Vec<String> = sys.resident().into_iter().map(|(n, _)| n).collect();
        assert!(
            resident.contains(&"a".to_string()),
            "recently used a survives"
        );
        assert!(
            resident.contains(&"c".to_string()),
            "newcomer c is resident"
        );
        assert!(
            !resident.contains(&"b".to_string()),
            "LRU personality b was evicted"
        );
    }
}
