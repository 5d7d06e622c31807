//! PGA operations: placed, validated configurations for the fabric.
//!
//! A [`PgaOperation`] is the unit the configuration cache holds and the
//! RISC core triggers. Two shapes cover the paper's applications:
//!
//! * [`PgaOperation::linear`] — a pure feed-forward XOR network (the
//!   anti-transform `y = T·x_t`, or a scrambler's whole block step since
//!   its M-block state update is feed-forward too once unrolled).
//! * [`PgaOperation::crc_update`] — the Derby-structured state update: a
//!   deep feed-forward pipeline computing `p = B_Mt·u`, plus **one**
//!   feedback row implementing the companion update
//!   `x′ = A_Mt·x ⊕ p` on the 4-bit ALU/GF cells. Because the loop is
//!   confined to a single row, a new block can issue every cycle (II = 1)
//!   no matter how deep the input network is — the whole point of choosing
//!   Derby's method for a *pipelined* gate array.

use crate::arch::PicogaParams;
use crate::compiled::Compiled;
use crate::fault::InjectError;
use crate::tape::probe_inputs;
use gf2::{BitMat, BitVec};
use std::fmt;
use std::sync::{Arc, OnceLock};
use xornet::XorNetwork;

/// Errors from mapping an operation onto the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The network needs more rows than the array has.
    InsufficientRows {
        /// Rows required by the placement.
        needed: usize,
        /// Rows physically available.
        available: usize,
    },
    /// A gate exceeds the cell fan-in.
    FaninTooLarge {
        /// The offending fan-in.
        fanin: usize,
        /// The cell limit.
        limit: usize,
    },
    /// Primary input bandwidth exceeded.
    TooManyInputs {
        /// Bits required.
        needed: usize,
        /// Bits available per issue.
        available: usize,
    },
    /// Primary output bandwidth exceeded.
    TooManyOutputs {
        /// Bits required.
        needed: usize,
        /// Bits available per issue.
        available: usize,
    },
    /// The feedback matrix of a CRC update is not in companion form.
    FeedbackNotCompanion,
    /// The feedback row does not fit (state too wide for one row of ALU
    /// cells).
    FeedbackRowTooWide {
        /// Cells needed.
        needed: usize,
        /// Cells per row.
        available: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::InsufficientRows { needed, available } => {
                write!(f, "placement needs {needed} rows, array has {available}")
            }
            MapError::FaninTooLarge { fanin, limit } => {
                write!(f, "gate fan-in {fanin} exceeds cell limit {limit}")
            }
            MapError::TooManyInputs { needed, available } => {
                write!(
                    f,
                    "operation needs {needed} input bits, fabric provides {available}"
                )
            }
            MapError::TooManyOutputs { needed, available } => {
                write!(
                    f,
                    "operation needs {needed} output bits, fabric provides {available}"
                )
            }
            MapError::FeedbackNotCompanion => {
                write!(f, "CRC update feedback matrix must be in companion form")
            }
            MapError::FeedbackRowTooWide { needed, available } => {
                write!(
                    f,
                    "feedback row needs {needed} ALU cells, row has {available}"
                )
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Row-by-row placement of a feed-forward network: `rows[r]` lists the gate
/// indices computed in physical row `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    rows: Vec<Vec<usize>>,
}

impl Placement {
    /// Packs a levelized network into rows of at most `cells_per_row`
    /// gates, preserving level order (a level wider than one row spills
    /// into the next; dependencies still only point backwards).
    fn pack(net: &XorNetwork, cells_per_row: usize) -> Placement {
        let mut rows = Vec::new();
        for level in net.levelize() {
            for chunk in level.chunks(cells_per_row) {
                rows.push(chunk.to_vec());
            }
        }
        Placement { rows }
    }

    /// Builds a placement directly from per-row gate-index lists.
    ///
    /// [`PgaOperation`] constructors always pack topologically; this
    /// constructor exists for analysis tooling (e.g. the fabric linter's
    /// hazard tests) that needs to examine arbitrary row assignments.
    pub fn from_rows(rows: Vec<Vec<usize>>) -> Placement {
        Placement { rows }
    }

    /// Rows used.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The physical row computing gate `gate_idx`, if it is placed.
    pub fn row_of(&self, gate_idx: usize) -> Option<usize> {
        self.rows.iter().position(|row| row.contains(&gate_idx))
    }

    /// Gate indices per row.
    pub fn rows(&self) -> &[Vec<usize>] {
        &self.rows
    }

    /// Total cells occupied.
    pub fn cell_count(&self) -> usize {
        self.rows.iter().map(std::vec::Vec::len).sum()
    }
}

/// The single-row companion feedback stage of a CRC update operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompanionFeedback {
    /// State width k.
    pub k: usize,
    /// The last column of the companion matrix (generator coefficients of
    /// the transformed polynomial).
    pub g_col: BitVec,
    /// ALU cells occupied in the feedback row.
    pub cells: usize,
}

impl CompanionFeedback {
    /// Applies `x′ = A_Mt·x ⊕ p` where `A_Mt` is the companion matrix with
    /// last column `g_col`.
    pub fn apply(&self, x: &BitVec, p: &BitVec) -> BitVec {
        debug_assert_eq!(x.len(), self.k);
        debug_assert_eq!(p.len(), self.k);
        let mut next = BitVec::zeros(self.k);
        let top = x.get(self.k - 1);
        for i in 0..self.k {
            let mut v = p.get(i);
            if i > 0 {
                v ^= x.get(i - 1);
            }
            if top && self.g_col.get(i) {
                v = !v;
            }
            if v {
                next.set(i, true);
            }
        }
        next
    }

    /// [`CompanionFeedback::apply`] on one word, for `k ≤ 64`: the
    /// returned step maps `(x, p)` to `A_Mt·x ⊕ p`.
    pub(crate) fn word_step(&self) -> impl Fn(u64, u64) -> u64 {
        debug_assert!((1..=64).contains(&self.k));
        let (top, mask) = (self.k - 1, u64::MAX >> (64 - self.k));
        let g = self.g_col.words().first().copied().unwrap_or(0);
        move |x, p| ((x << 1) & mask) ^ p ^ (g & ((x >> top) & 1).wrapping_neg())
    }

    /// [`CompanionFeedback::apply`] on packed words: `x` and `p` hold the
    /// `k` state and input bits as `k.div_ceil(64)` LSB-first words, and
    /// `x` is updated in place. Input words past the end of `p` read 0,
    /// so an empty `p` takes an autonomous step.
    pub(crate) fn step_words(&self, x: &mut [u64], p: &[u64]) {
        let p = |i: usize| p.get(i).copied().unwrap_or(0);
        if let [w] = x {
            *w = self.word_step()(*w, p(0));
            return;
        }
        let k = self.k;
        let fold = ((x[(k - 1) / 64] >> ((k - 1) % 64)) & 1).wrapping_neg();
        let mut carry = 0;
        for w in x.iter_mut() {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        if !k.is_multiple_of(64) {
            x[(k - 1) / 64] &= (1 << (k % 64)) - 1;
        }
        for (i, (w, &gi)) in x.iter_mut().zip(self.g_col.words()).enumerate() {
            *w ^= p(i) ^ (gi & fold);
        }
    }
}

/// Internal shape of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OpKind {
    Linear,
    CrcUpdate(CompanionFeedback),
    /// Autonomous scrambler: companion state row + output network reading
    /// `[x_t | u]` (the first `k` network inputs are the registered state).
    Scrambler {
        feedback: CompanionFeedback,
        /// Input block bits per issue (M).
        m: usize,
    },
    /// Dense (untransformed) look-ahead update: the network computes the
    /// whole `x′ = A^M·x + B_M·u` over `[x | u]`, so the feedback loop
    /// spans the full pipeline and a new block can only issue once the
    /// previous state has drained (II = latency). The fallback when
    /// Derby's transform does not exist for the generator/M pair.
    CrcUpdateDense {
        /// State width k (the first `k` network inputs and all outputs).
        k: usize,
    },
}

/// A placed, validated PiCoGA operation.
///
/// Clones share one configuration through an `Arc`, so a clone costs
/// O(1); the fault hooks ([`PgaOperation::corrupt_wire`],
/// [`PgaOperation::corrupt_output_tap`]) copy it on write. The shared
/// configuration also keeps the host's stuck-free compile of itself,
/// made on its first load: every clone reuses it until a fault hook
/// gives that clone a configuration of its own, without a compile.
#[derive(Clone)]
pub struct PgaOperation {
    config: Arc<Config>,
}

/// What the clones of an operation share.
#[derive(Clone)]
struct Config {
    name: String,
    net: XorNetwork,
    placement: Placement,
    kind: OpKind,
    /// The compile of this configuration on a fabric with no stuck
    /// cells under it, made on first use.
    compiled: OnceLock<Arc<Compiled>>,
    /// The configuration's gate-order responses to the datapath probe's
    /// vectors, made on the first probe (see
    /// [`PgaOperation::probe_responses`]).
    probe: OnceLock<Vec<u64>>,
}

impl PartialEq for PgaOperation {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.config, &*other.config);
        Arc::ptr_eq(&self.config, &other.config)
            || (a.name == b.name
                && a.net == b.net
                && a.placement == b.placement
                && a.kind == b.kind)
    }
}

impl Eq for PgaOperation {}

impl fmt::Debug for PgaOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &*self.config;
        f.debug_struct("PgaOperation")
            .field("name", &c.name)
            .field("net", &c.net)
            .field("placement", &c.placement)
            .field("kind", &c.kind)
            .finish()
    }
}

/// Resource/latency statistics of a placed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Pipeline rows used (= pipeline depth in stages).
    pub rows: usize,
    /// Logic cells used.
    pub cells: usize,
    /// Primary input bits consumed per issue.
    pub input_bits: usize,
    /// Primary output bits produced per issue.
    pub output_bits: usize,
    /// Initiation interval in cycles (1 for all shapes here).
    pub initiation_interval: u64,
    /// Latency from issue to result, in cycles.
    pub latency: u64,
}

/// The six gauges [`OpStats::publish`] writes under one prefix, looked
/// up once so an operation that is published again and again (on every
/// context load) skips the name formatting and lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStatsGauges([obs::GaugeId; 6]);

impl OpStats {
    /// Gauge name suffixes, in publishing order.
    const SUFFIXES: [&'static str; 6] = [
        "rows",
        "cells",
        "input_bits",
        "output_bits",
        "ii",
        "latency",
    ];

    /// Publishes the stats as gauges `{prefix}.rows`, `{prefix}.cells`,
    /// `{prefix}.input_bits`, `{prefix}.output_bits`, `{prefix}.ii`,
    /// `{prefix}.latency` into the unified registry, making the legacy
    /// struct a thin view over it (see [`OpStats::from_registry`]).
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds `i64::MAX` (impossible for any real
    /// fabric) or if a name is already registered as a non-gauge.
    pub fn publish(&self, reg: &mut obs::MetricsRegistry, prefix: &str) {
        let gauges = OpStats::gauges(reg, prefix);
        self.publish_to(reg, gauges);
    }

    /// Registers (or finds) the gauges [`OpStats::publish`] writes under
    /// `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if a name is already registered as a non-gauge.
    pub fn gauges(reg: &mut obs::MetricsRegistry, prefix: &str) -> OpStatsGauges {
        OpStatsGauges(OpStats::SUFFIXES.map(|suffix| reg.gauge(&format!("{prefix}.{suffix}"))))
    }

    /// [`OpStats::publish`] into gauges found by [`OpStats::gauges`].
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds `i64::MAX`.
    pub fn publish_to(&self, reg: &mut obs::MetricsRegistry, gauges: OpStatsGauges) {
        let values = [
            self.rows as u64,
            self.cells as u64,
            self.input_bits as u64,
            self.output_bits as u64,
            self.initiation_interval,
            self.latency,
        ];
        for (id, v) in gauges.0.into_iter().zip(values) {
            reg.set_gauge(id, i64::try_from(v).expect("op stat fits i64"));
        }
    }

    /// Reassembles stats published under `prefix` by [`OpStats::publish`].
    /// Returns `None` when any of the six gauges is missing.
    #[must_use]
    pub fn from_registry(reg: &obs::MetricsRegistry, prefix: &str) -> Option<OpStats> {
        let get = |suffix: &str| reg.gauge_by_name(&format!("{prefix}.{suffix}"));
        Some(OpStats {
            rows: usize::try_from(get("rows")?).ok()?,
            cells: usize::try_from(get("cells")?).ok()?,
            input_bits: usize::try_from(get("input_bits")?).ok()?,
            output_bits: usize::try_from(get("output_bits")?).ok()?,
            initiation_interval: u64::try_from(get("ii")?).ok()?,
            latency: u64::try_from(get("latency")?).ok()?,
        })
    }
}

impl PgaOperation {
    fn from_parts(name: String, net: XorNetwork, placement: Placement, kind: OpKind) -> Self {
        PgaOperation {
            config: Arc::new(Config {
                name,
                net,
                placement,
                kind,
                compiled: OnceLock::new(),
                probe: OnceLock::new(),
            }),
        }
    }

    /// The configuration for writing: copied first when other clones
    /// share it, and without its compile and probe responses, which no
    /// longer describe it.
    fn config_mut(&mut self) -> &mut Config {
        let config = Arc::make_mut(&mut self.config);
        config.compiled = OnceLock::new();
        config.probe = OnceLock::new();
        config
    }

    /// What the configuration answers to the datapath probe's vectors
    /// (the zero vector and every input basis vector, 64 to a pass as
    /// `Tape::sweep` runs them): for each pass, the gate-order
    /// evaluation's word for every output, `outputs().len()` words per
    /// pass. It depends on the configuration alone, so it is made on the
    /// first probe and shared by every clone that still shares the
    /// configuration; the datapath side is swept on every probe.
    pub(crate) fn probe_responses(&self) -> &[u64] {
        self.config.probe.get_or_init(|| {
            let net = &self.config.net;
            let n = net.n_inputs();
            let outputs = net.outputs().len();
            let mut inputs = vec![0u64; n];
            let mut values = Vec::new();
            let mut responses = Vec::with_capacity(n.div_ceil(64).max(1) * outputs);
            for lo in (0..=n).step_by(64) {
                probe_inputs(lo, &mut inputs);
                net.evaluate_lanes(&inputs, &mut values);
                responses.extend((0..outputs).map(|o| net.output_lanes(&values, o)));
            }
            responses
        })
    }

    /// Where the configuration lives, to tell a write in place from a
    /// copy.
    #[cfg(test)]
    pub(crate) fn config_addr(&self) -> *const () {
        Arc::as_ptr(&self.config).cast()
    }

    /// The stuck-free compile of this configuration, made on first use
    /// and shared by every clone that still shares the configuration.
    pub(crate) fn compiled(&self) -> Arc<Compiled> {
        let c = self
            .config
            .compiled
            .get_or_init(|| Arc::new(Compiled::new(self, &[])));
        Arc::clone(c)
    }

    /// Whether `self` and `other` share one configuration: one is a
    /// clone of the other and neither has been corrupted since, so they
    /// are the same configuration bit for bit.
    pub fn shares_config(&self, other: &PgaOperation) -> bool {
        Arc::ptr_eq(&self.config, &other.config)
    }

    /// Whether `code` is this configuration's cached compile.
    #[cfg(test)]
    pub(crate) fn shares_compile(&self, code: &Arc<Compiled>) -> bool {
        self.config
            .compiled
            .get()
            .is_some_and(|c| Arc::ptr_eq(c, code))
    }

    /// Maps a pure feed-forward network.
    ///
    /// # Errors
    ///
    /// Any of the [`MapError`] resource violations.
    pub fn linear(
        name: impl Into<String>,
        net: XorNetwork,
        params: &PicogaParams,
    ) -> Result<Self, MapError> {
        Self::check_common(&net, params, 0)?;
        let placement = Placement::pack(&net, params.usable_cells_per_row);
        if placement.row_count() > params.rows {
            return Err(MapError::InsufficientRows {
                needed: placement.row_count(),
                available: params.rows,
            });
        }
        Ok(PgaOperation::from_parts(
            name.into(),
            net,
            placement,
            OpKind::Linear,
        ))
    }

    /// Maps a Derby CRC state update: `net` computes `p = B_Mt·u` (its
    /// outputs must be `k` bits), and `a_mt` is the companion feedback.
    ///
    /// # Errors
    ///
    /// Any of the [`MapError`] resource violations, including
    /// [`MapError::FeedbackNotCompanion`].
    pub fn crc_update(
        name: impl Into<String>,
        net: XorNetwork,
        a_mt: &BitMat,
        params: &PicogaParams,
    ) -> Result<Self, MapError> {
        if !a_mt.is_companion() {
            return Err(MapError::FeedbackNotCompanion);
        }
        let k = a_mt.rows();
        // The state flows in through the feedback row registers, not the
        // primary inputs, so only u counts against input bandwidth; the
        // state register readout counts against outputs.
        Self::check_common(&net, params, k)?;
        let fb_cells = k.div_ceil(params.alu_bits_per_cell);
        if fb_cells > params.usable_cells_per_row {
            return Err(MapError::FeedbackRowTooWide {
                needed: fb_cells,
                available: params.usable_cells_per_row,
            });
        }
        let placement = Placement::pack(&net, params.usable_cells_per_row);
        let total_rows = placement.row_count() + 1;
        if total_rows > params.rows {
            return Err(MapError::InsufficientRows {
                needed: total_rows,
                available: params.rows,
            });
        }
        Ok(PgaOperation::from_parts(
            name.into(),
            net,
            placement,
            OpKind::CrcUpdate(CompanionFeedback {
                k,
                g_col: a_mt.column(k - 1),
                cells: fb_cells,
            }),
        ))
    }

    /// Maps a dense (untransformed) look-ahead CRC update: `net` computes
    /// `x′ = A^M·x + B_M·u` over `[x | u]` (first `k` inputs = state).
    ///
    /// The feedback traverses the whole pipeline, so the operation's
    /// initiation interval equals its latency — the performance penalty
    /// Derby's transformation exists to avoid (paper §2). Use it only when
    /// the transform is mathematically unavailable.
    ///
    /// # Errors
    ///
    /// Any of the [`MapError`] resource violations.
    pub fn crc_update_dense(
        name: impl Into<String>,
        net: XorNetwork,
        k: usize,
        params: &PicogaParams,
    ) -> Result<Self, MapError> {
        debug_assert!(net.n_inputs() > k, "dense update reads [x | u]");
        let m = net.n_inputs() - k;
        if m > params.input_bits {
            return Err(MapError::TooManyInputs {
                needed: m,
                available: params.input_bits,
            });
        }
        if k > params.output_bits {
            return Err(MapError::TooManyOutputs {
                needed: k,
                available: params.output_bits,
            });
        }
        if let Some(g) = net
            .gates()
            .iter()
            .find(|g| g.inputs.len() > params.max_cell_fanin)
        {
            return Err(MapError::FaninTooLarge {
                fanin: g.inputs.len(),
                limit: params.max_cell_fanin,
            });
        }
        let placement = Placement::pack(&net, params.usable_cells_per_row);
        if placement.row_count() > params.rows {
            return Err(MapError::InsufficientRows {
                needed: placement.row_count(),
                available: params.rows,
            });
        }
        Ok(PgaOperation::from_parts(
            name.into(),
            net,
            placement,
            OpKind::CrcUpdateDense { k },
        ))
    }

    /// Maps an autonomous scrambler operation: `a_mt` is the (transformed)
    /// companion state update; `net` computes the M output bits from
    /// `[x_t | u]` — its first `k` inputs are the registered state, the
    /// remaining `m` the data block.
    ///
    /// # Errors
    ///
    /// Any of the [`MapError`] resource violations.
    pub fn scrambler(
        name: impl Into<String>,
        net: XorNetwork,
        a_mt: &BitMat,
        m: usize,
        params: &PicogaParams,
    ) -> Result<Self, MapError> {
        if !a_mt.is_companion() {
            return Err(MapError::FeedbackNotCompanion);
        }
        let k = a_mt.rows();
        debug_assert_eq!(net.n_inputs(), k + m, "scrambler net reads [x_t | u]");
        // Only the data block arrives through primary inputs; the state is
        // fabric-resident.
        if m > params.input_bits {
            return Err(MapError::TooManyInputs {
                needed: m,
                available: params.input_bits,
            });
        }
        if net.outputs().len() > params.output_bits {
            return Err(MapError::TooManyOutputs {
                needed: net.outputs().len(),
                available: params.output_bits,
            });
        }
        if let Some(g) = net
            .gates()
            .iter()
            .find(|g| g.inputs.len() > params.max_cell_fanin)
        {
            return Err(MapError::FaninTooLarge {
                fanin: g.inputs.len(),
                limit: params.max_cell_fanin,
            });
        }
        let fb_cells = k.div_ceil(params.alu_bits_per_cell);
        if fb_cells > params.usable_cells_per_row {
            return Err(MapError::FeedbackRowTooWide {
                needed: fb_cells,
                available: params.usable_cells_per_row,
            });
        }
        let placement = Placement::pack(&net, params.usable_cells_per_row);
        let total_rows = placement.row_count() + 1;
        if total_rows > params.rows {
            return Err(MapError::InsufficientRows {
                needed: total_rows,
                available: params.rows,
            });
        }
        Ok(PgaOperation::from_parts(
            name.into(),
            net,
            placement,
            OpKind::Scrambler {
                feedback: CompanionFeedback {
                    k,
                    g_col: a_mt.column(k - 1),
                    cells: fb_cells,
                },
                m,
            },
        ))
    }

    fn check_common(
        net: &XorNetwork,
        params: &PicogaParams,
        extra_outputs: usize,
    ) -> Result<(), MapError> {
        if let Some(g) = net
            .gates()
            .iter()
            .find(|g| g.inputs.len() > params.max_cell_fanin)
        {
            return Err(MapError::FaninTooLarge {
                fanin: g.inputs.len(),
                limit: params.max_cell_fanin,
            });
        }
        if net.n_inputs() > params.input_bits {
            return Err(MapError::TooManyInputs {
                needed: net.n_inputs(),
                available: params.input_bits,
            });
        }
        let outs = net.outputs().len().max(extra_outputs);
        if outs > params.output_bits {
            return Err(MapError::TooManyOutputs {
                needed: outs,
                available: params.output_bits,
            });
        }
        Ok(())
    }

    /// Operation name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The feed-forward network.
    pub fn network(&self) -> &XorNetwork {
        &self.config.net
    }

    /// The row placement of the feed-forward network.
    pub fn placement(&self) -> &Placement {
        &self.config.placement
    }

    /// The companion feedback stage, if this op has one.
    pub fn feedback(&self) -> Option<&CompanionFeedback> {
        match &self.config.kind {
            OpKind::CrcUpdate(fb) => Some(fb),
            OpKind::Scrambler { feedback, .. } => Some(feedback),
            OpKind::Linear | OpKind::CrcUpdateDense { .. } => None,
        }
    }

    /// The block size M consumed per issue, if this is a scrambler op.
    pub fn scrambler_m(&self) -> Option<usize> {
        match &self.config.kind {
            OpKind::Scrambler { m, .. } => Some(*m),
            _ => None,
        }
    }

    /// `true` if this op carries a CRC-update feedback stage.
    pub fn is_crc_update(&self) -> bool {
        matches!(self.config.kind, OpKind::CrcUpdate(_))
    }

    /// The state width of a dense look-ahead update, if this is one.
    pub fn dense_update_k(&self) -> Option<usize> {
        match &self.config.kind {
            OpKind::CrcUpdateDense { k } => Some(*k),
            _ => None,
        }
    }

    /// `true` if this op is a pure feed-forward network.
    pub fn is_linear(&self) -> bool {
        matches!(self.config.kind, OpKind::Linear)
    }

    /// A stable name for the operation's shape, for reports and lints.
    pub fn kind_name(&self) -> &'static str {
        match &self.config.kind {
            OpKind::Linear => "linear",
            OpKind::CrcUpdate(_) => "crc-update",
            OpKind::Scrambler { .. } => "scrambler",
            OpKind::CrcUpdateDense { .. } => "crc-update-dense",
        }
    }

    /// Fault-injection hook: redirects fan-in `pin` of gate `gate` to
    /// `new_signal`, modelling an SEU in this configuration's routing
    /// bits. The operation keeps its placement and statistics — an upset
    /// does not re-place anything — but in general no longer computes its
    /// source matrix.
    ///
    /// # Errors
    ///
    /// [`InjectError::BadCoordinate`] when the gate, pin, or signal does
    /// not exist (or the signal is not earlier than the gate).
    pub fn corrupt_wire(
        &mut self,
        gate: usize,
        pin: usize,
        new_signal: usize,
    ) -> Result<(), InjectError> {
        let gates = self.config.net.gates();
        let Some(g) = gates.get(gate) else {
            return Err(InjectError::BadCoordinate {
                what: "gate",
                got: gate,
                bound: gates.len(),
            });
        };
        if pin >= g.inputs.len() {
            return Err(InjectError::BadCoordinate {
                what: "pin",
                got: pin,
                bound: g.inputs.len(),
            });
        }
        let own = self.config.net.n_inputs() + gate;
        if new_signal >= own {
            return Err(InjectError::BadCoordinate {
                what: "wire source signal",
                got: new_signal,
                bound: own,
            });
        }
        self.config_mut().net.set_gate_input(gate, pin, new_signal);
        Ok(())
    }

    /// Fault-injection hook: re-taps primary output `output` to
    /// `new_tap` (`None` = constant 0), modelling an SEU in this
    /// configuration's output routing bits.
    ///
    /// # Errors
    ///
    /// [`InjectError::BadCoordinate`] when the output or signal does not
    /// exist.
    pub fn corrupt_output_tap(
        &mut self,
        output: usize,
        new_tap: Option<usize>,
    ) -> Result<(), InjectError> {
        if output >= self.config.net.outputs().len() {
            return Err(InjectError::BadCoordinate {
                what: "output",
                got: output,
                bound: self.config.net.outputs().len(),
            });
        }
        if let Some(s) = new_tap {
            if s >= self.config.net.n_signals() {
                return Err(InjectError::BadCoordinate {
                    what: "tap signal",
                    got: s,
                    bound: self.config.net.n_signals(),
                });
            }
        }
        self.config_mut().net.set_output(output, new_tap);
        Ok(())
    }

    /// Resource and timing statistics.
    pub fn stats(&self) -> OpStats {
        let fb = self.feedback();
        let rows = self.config.placement.row_count() + fb.map_or(0, |_| 1);
        let cells = self.config.placement.cell_count() + fb.map_or(0, |f| f.cells);
        let ii = match &self.config.kind {
            OpKind::CrcUpdateDense { .. } => (rows as u64).max(1),
            _ => 1,
        };
        OpStats {
            rows,
            cells,
            input_bits: match &self.config.kind {
                OpKind::Scrambler { m, .. } => *m,
                OpKind::CrcUpdateDense { k } => self.config.net.n_inputs() - k,
                _ => self.config.net.n_inputs(),
            },
            output_bits: match &self.config.kind {
                OpKind::Linear | OpKind::Scrambler { .. } => self.config.net.outputs().len(),
                OpKind::CrcUpdate(f) => f.k,
                OpKind::CrcUpdateDense { k } => *k,
            },
            initiation_interval: ii,
            latency: rows as u64,
        }
    }
}

impl fmt::Display for PgaOperation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PGA op '{}': {} rows, {} cells, in {} / out {} bits, latency {}",
            self.config.name, s.rows, s.cells, s.input_bits, s.output_bits, s.latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::Gf2Poly;
    use xornet::{synthesize, SynthOptions};

    fn small_params() -> PicogaParams {
        PicogaParams {
            rows: 4,
            cells_per_row: 4,
            usable_cells_per_row: 4,
            ..PicogaParams::dream()
        }
    }

    fn net_from(mat: &BitMat) -> XorNetwork {
        synthesize(mat, SynthOptions::default())
    }

    #[test]
    fn linear_op_maps_and_reports() {
        let m = BitMat::identity(8);
        let op = PgaOperation::linear("wires", net_from(&m), &PicogaParams::dream()).unwrap();
        let s = op.stats();
        assert_eq!(s.rows, 0); // pure wiring
        assert_eq!(s.initiation_interval, 1);
    }

    #[test]
    fn insufficient_rows_detected() {
        // 16-input parity at fan-in 2 needs 4 levels; give it 2 rows.
        let m = BitMat::from_rows(vec![BitVec::ones(16)]);
        let net = synthesize(
            &m,
            SynthOptions {
                max_fanin: 2,
                share_patterns: false,
            },
        );
        let mut p = small_params();
        p.rows = 2;
        p.cells_per_row = 16;
        p.usable_cells_per_row = 16;
        p.max_cell_fanin = 2;
        match PgaOperation::linear("parity", net, &p) {
            Err(MapError::InsufficientRows { needed, available }) => {
                assert_eq!(available, 2);
                assert!(needed > 2);
            }
            other => panic!("expected InsufficientRows, got {other:?}"),
        }
    }

    #[test]
    fn fanin_violation_detected() {
        let m = BitMat::from_rows(vec![BitVec::ones(16)]);
        let net = synthesize(
            &m,
            SynthOptions {
                max_fanin: 16,
                share_patterns: false,
            },
        );
        let p = PicogaParams::dream(); // cell limit 10
        assert!(matches!(
            PgaOperation::linear("wide", net, &p),
            Err(MapError::FaninTooLarge {
                fanin: 16,
                limit: 10
            })
        ));
    }

    #[test]
    fn io_bandwidth_violations_detected() {
        let p = PicogaParams::dream();
        let m = BitMat::identity(p.input_bits + 1);
        assert!(matches!(
            PgaOperation::linear("too-wide", net_from(&m), &p),
            Err(MapError::TooManyInputs { .. })
        ));
        let m = BitMat::from_rows(vec![BitVec::unit(0, 4); 200]);
        assert!(matches!(
            PgaOperation::linear("too-many-outs", net_from(&m), &p),
            Err(MapError::TooManyOutputs { .. })
        ));
    }

    #[test]
    fn crc_update_requires_companion() {
        let p = PicogaParams::dream();
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        let dense = a.pow(16); // not companion
        let net = net_from(&BitMat::identity(16));
        assert_eq!(
            PgaOperation::crc_update("bad", net.clone(), &dense, &p).unwrap_err(),
            MapError::FeedbackNotCompanion
        );
        assert!(PgaOperation::crc_update("ok", net, &a, &p).is_ok());
    }

    #[test]
    fn companion_feedback_matches_matrix_product() {
        let g = Gf2Poly::from_crc_notation(0x04C11DB7, 32);
        let a = BitMat::companion(&g);
        let fb = CompanionFeedback {
            k: 32,
            g_col: a.column(31),
            cells: 8,
        };
        let mut x = BitVec::from_u64(0x8123_4567, 32);
        let p = BitVec::from_u64(0x0F0F_1234, 32);
        let expect = &a.mul_vec(&x) ^ &p;
        assert_eq!(fb.apply(&x, &p), expect);
        // And with top bit clear (no polynomial fold):
        x.set(31, false);
        let expect = &a.mul_vec(&x) ^ &p;
        assert_eq!(fb.apply(&x, &p), expect);
    }

    #[test]
    fn clones_share_until_a_fault_hook_copies() {
        let net = net_from(&BitMat::identity(8));
        let op = PgaOperation::linear("id", net, &PicogaParams::dream()).unwrap();
        let mut copy = op.clone();
        assert!(copy.shares_config(&op));
        assert!(copy.corrupt_wire(999, 0, 0).is_err());
        assert!(copy.shares_config(&op), "a refused hook copies nothing");
        copy.corrupt_output_tap(0, None).unwrap();
        assert!(!copy.shares_config(&op));
        assert_ne!(copy, op);
        assert!(
            op.network().outputs()[0].is_some(),
            "the original is untouched"
        );
        let equal =
            PgaOperation::linear("id", net_from(&BitMat::identity(8)), &PicogaParams::dream())
                .unwrap();
        assert!(!equal.shares_config(&op));
        assert_eq!(equal, op, "equality compares configurations, not sharing");
    }

    #[test]
    fn word_step_matches_bitwise_apply() {
        let mut r = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            r
        };
        for k in [3, 7, 16, 32, 63, 64, 65, 100] {
            let g_col = BitVec::from_words(vec![next(), next()], k);
            let fb = CompanionFeedback { k, g_col, cells: 1 };
            for _ in 0..20 {
                let x = BitVec::from_words(vec![next(), next()], k);
                let p = BitVec::from_words(vec![next(), next()], k);
                let mut w = x.words().to_vec();
                fb.step_words(&mut w, p.words());
                assert_eq!(BitVec::from_words(w, k), fb.apply(&x, &p), "k={k}");
                // An empty input steps autonomously.
                let mut w = x.words().to_vec();
                fb.step_words(&mut w, &[]);
                let zero = BitVec::zeros(k);
                assert_eq!(BitVec::from_words(w, k), fb.apply(&x, &zero), "k={k}");
                if k <= 64 {
                    let one = fb.word_step()(x.words()[0], p.words()[0]);
                    assert_eq!(BitVec::from_words(vec![one], k), fb.apply(&x, &p));
                }
            }
        }
    }

    #[test]
    fn feedback_row_width_enforced() {
        let mut p = PicogaParams::dream();
        p.cells_per_row = 4; // 4 cells × 4 bits = 16 state bits max
        p.usable_cells_per_row = 4;
        let g = Gf2Poly::from_crc_notation(0x04C11DB7, 32);
        let a = BitMat::companion(&g);
        let net = net_from(&BitMat::identity(32));
        assert!(matches!(
            PgaOperation::crc_update("wide-state", net, &a, &p),
            Err(MapError::FeedbackRowTooWide {
                needed: 8,
                available: 4
            })
        ));
    }

    #[test]
    fn stats_count_feedback_row() {
        let p = PicogaParams::dream();
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        // A nontrivial ff network: B_M for M=16.
        let sys = lfsr_like_b16(&g);
        let net = net_from(&sys);
        let op = PgaOperation::crc_update("upd", net, &a, &p).unwrap();
        let s = op.stats();
        assert!(s.rows >= 2, "ff depth + feedback row");
        assert_eq!(s.latency, s.rows as u64);
        assert_eq!(s.output_bits, 16);
    }

    #[test]
    fn op_stats_round_trip_through_registry() {
        let stats = OpStats {
            rows: 7,
            cells: 42,
            input_bits: 128,
            output_bits: 33,
            initiation_interval: 1,
            latency: 7,
        };
        let mut reg = obs::MetricsRegistry::new();
        stats.publish(&mut reg, "op.eth32.update");
        assert_eq!(OpStats::from_registry(&reg, "op.eth32.update"), Some(stats));
        let gauges = OpStats::gauges(&mut reg, "op.eth32.update");
        assert_eq!(reg.len(), 6, "the same six gauges");
        let grown = OpStats { rows: 8, ..stats };
        grown.publish_to(&mut reg, gauges);
        assert_eq!(OpStats::from_registry(&reg, "op.eth32.update"), Some(grown));
        assert_eq!(OpStats::from_registry(&reg, "op.missing"), None);
    }

    // Builds a B_M-like 16x16 matrix from companion powers.
    fn lfsr_like_b16(g: &Gf2Poly) -> BitMat {
        let a = BitMat::companion(g);
        let mut b = BitVec::zeros(16);
        for i in 0..16 {
            if g.coeff(i) {
                b.set(i, true);
            }
        }
        let cols: Vec<BitVec> = (0..16).map(|j| a.pow(15 - j as u64).mul_vec(&b)).collect();
        BitMat::from_columns(&cols)
    }
}
