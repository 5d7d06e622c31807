//! Cycle-accurate PiCoGA simulator.
//!
//! [`PicogaSim`] executes placed [`PgaOperation`]s bit-true while counting
//! cycles exactly as the fabric's row pipeline would spend them:
//!
//! * one wavefront of data advances one **row** per cycle;
//! * a new block issues every cycle (II = 1) — for CRC updates the state
//!   feedback is confined to its single row, so back-to-back issue is
//!   legal by construction;
//! * switching the active configuration context costs
//!   [`PicogaParams::context_switch_cycles`] (2 on DREAM);
//! * loading a context from off-fabric configuration memory costs
//!   [`PicogaParams::context_load_cycles`] and is charged only on misses.

use crate::arch::PicogaParams;
use crate::compiled::Compiled;
use crate::fault::{ConfigFault, InjectError, LoadCorruption, LoadFault};
use crate::op::{OpStats, PgaOperation};
use gf2::BitVec;
use obs::{EventKind, ObsHub};
use std::fmt;
use std::sync::Arc;
#[cfg(test)]
use {crate::op::Placement, xornet::XorNetwork};

/// Errors from driving the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Context slot out of range.
    BadSlot {
        /// The requested slot.
        slot: usize,
        /// Number of contexts.
        contexts: usize,
    },
    /// No operation loaded in the addressed slot.
    EmptySlot {
        /// The requested slot.
        slot: usize,
    },
    /// No context has been activated yet.
    NoActiveContext,
    /// The active operation has a different shape than the call expects.
    WrongOpShape {
        /// What the call needed.
        expected: &'static str,
    },
    /// Input width does not match the operation.
    InputWidthMismatch {
        /// Bits supplied.
        got: usize,
        /// Bits expected.
        expected: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadSlot { slot, contexts } => {
                write!(
                    f,
                    "context slot {slot} out of range (fabric has {contexts})"
                )
            }
            SimError::EmptySlot { slot } => write!(f, "context slot {slot} is empty"),
            SimError::NoActiveContext => write!(f, "no active context selected"),
            SimError::WrongOpShape { expected } => {
                write!(f, "active operation is not a {expected} operation")
            }
            SimError::InputWidthMismatch { got, expected } => {
                write!(f, "input width {got} does not match operation ({expected})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cycle breakdown maintained by the simulator.
///
/// Since the observability migration this is a thin *view*: the values
/// live in the simulator's [`obs::MetricsRegistry`] under
/// `picoga.cycles.*` and are assembled on demand by
/// [`PicogaSim::counters`]. The struct itself is unchanged so existing
/// callers keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounters {
    /// Cycles spent streaming data through an operation (incl. pipeline
    /// fill and drain).
    pub compute: u64,
    /// Cycles spent exchanging the active context.
    pub context_switch: u64,
    /// Cycles spent loading configurations from off-fabric memory.
    pub context_load: u64,
}

impl CycleCounters {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.compute + self.context_switch + self.context_load
    }
}

/// The fabric simulator: configuration cache + active pipeline.
#[derive(Debug, Clone)]
pub struct PicogaSim {
    params: PicogaParams,
    contexts: Vec<Option<Context>>,
    active: Option<usize>,
    /// The observability spine: metrics registry (including the cycle
    /// counters), cycle-stamped event tracer, and fabric profiler. The
    /// layers above reach it through [`PicogaSim::obs_mut`].
    obs: ObsHub,
    /// Physical stuck-at cell faults: `(row, cell, value)`. They outlive
    /// context loads — reloading a configuration does not repair silicon.
    stuck: Vec<(usize, usize, bool)>,
    /// Corruptions armed against future context loads.
    pending_load_faults: Vec<LoadCorruption>,
    /// Count of `load_context` calls since construction (the 0-based
    /// index [`LoadCorruption::load_index`] refers to).
    loads_seen: u64,
    /// Buffers the datapath evaluates into, reused across calls.
    scratch: Scratch,
}

/// One resident context: the configuration as stored, and its compiled
/// form, which the host runs (replaced whenever the configuration or the
/// stuck-cell set changes).
#[derive(Debug, Clone)]
struct Context {
    op: PgaOperation,
    code: Arc<Compiled>,
}

/// Reusable buffers: the tape's signal words for a probe sweep, and one
/// result's words.
#[derive(Debug, Clone, Default)]
struct Scratch {
    values: Vec<u64>,
    out: Vec<u64>,
}

/// The first `k` bits of `v` as `k.div_ceil(64)` LSB-first words.
fn state_words(v: &BitVec, k: usize) -> Vec<u64> {
    v.resized(k).words().to_vec()
}

/// Word `g` of block `b` of a packed stream of `m`-bit blocks, that is,
/// bits `[b·m + 64g, b·m + 64g + 64)` of `bits`. The stream's words
/// past the block may follow in the high bits; the tables ignore them.
/// Only words that start inside one of the stream's blocks are read.
fn packed(bits: &BitVec, m: usize) -> impl Fn(usize, usize) -> u64 + '_ {
    let words = bits.words();
    // When m divides 64 or 64 divides m, no block's bits cross from one
    // stream word into the next.
    let straddles = !(64usize.is_multiple_of(m) || m.is_multiple_of(64));
    move |b, g| {
        let start = b * m + 64 * g;
        let (wi, sh) = (start / 64, start % 64);
        let lo = words[wi] >> sh;
        if straddles && sh != 0 {
            lo | words.get(wi + 1).map_or(0, |&hi| hi << (64 - sh))
        } else {
            lo
        }
    }
}

/// The error of a one-word call on an operation wider than a word.
const ONE_WORD: SimError = SimError::WrongOpShape {
    expected: "one-word",
};

/// The dense loop on a one-word state: `s ← c ⊕ D·u_b ⊕ S·s` per block.
fn dense_word_loop(
    code: &Compiled,
    mut s: u64,
    n: usize,
    word: impl Fn(usize, usize) -> u64,
) -> u64 {
    for b in 0..n {
        let y = code.data.apply_word(|g| word(b, g));
        s = y ^ code.state.apply_word(|_| s);
    }
    s
}

/// Word `g` of block `b` of a list of blocks.
fn listed<'a>(blocks: &'a [&'a BitVec]) -> impl Fn(usize, usize) -> u64 + 'a {
    move |b, g| blocks[b].words()[g]
}

/// XORs `v` into `words` at bit `start`; bits past the last word drop.
fn put_bits(words: &mut [u64], start: usize, v: u64) {
    let (wi, sh) = (start / 64, start % 64);
    words[wi] ^= v << sh;
    if sh != 0 {
        if let Some(hi) = words.get_mut(wi + 1) {
            *hi ^= v >> (64 - sh);
        }
    }
}

/// The compiled form of `op` on a fabric with stuck cells `stuck`: the
/// configuration's cached stuck-free compile when no stuck cell lies
/// under its placement (a compile would equal it), a fresh compile when
/// one does or when `fresh` asks for it.
fn compile(op: &PgaOperation, stuck: &[(usize, usize, bool)], fresh: bool) -> Arc<Compiled> {
    let rows = op.placement().rows();
    let under = stuck
        .iter()
        .any(|&(row, cell, _)| rows.get(row).is_some_and(|r| cell < r.len()));
    if fresh || under {
        Arc::new(Compiled::new(op, stuck))
    } else {
        op.compiled()
    }
}

/// Collects `blocks` up to the first one whose width is not `width`,
/// which is returned as the error that ends the stream there.
fn valid_prefix<'a>(
    blocks: impl IntoIterator<Item = &'a BitVec>,
    width: usize,
) -> (Vec<&'a BitVec>, Option<SimError>) {
    let blocks = blocks.into_iter();
    let mut ok = Vec::with_capacity(blocks.size_hint().0);
    for b in blocks {
        if b.len() != width {
            let e = SimError::InputWidthMismatch {
                got: b.len(),
                expected: width,
            };
            return (ok, Some(e));
        }
        ok.push(b);
    }
    (ok, None)
}

/// Evaluates the gates of `net` row by row following `placement`, from a
/// zeroed value buffer, one input vector at a time — the evaluator the
/// simulator ran before it compiled contexts, kept as the oracle the
/// compiled tables are tested against. Row order is *not* immaterial:
/// the placement is topological only while the configuration is
/// pristine, and a wire flip that reads a gate placed in a later row
/// reads it as 0 here, as on the fabric. Physical stuck-at cell faults
/// (`stuck`: gate index → forced value, resolved from physical
/// coordinates by [`stuck_gates`]) land on the right gate.
#[cfg(test)]
fn eval_by_rows(
    net: &XorNetwork,
    placement: &Placement,
    inputs: &BitVec,
    stuck: &[(usize, bool)],
) -> Vec<bool> {
    let mut values = vec![false; net.n_signals()];
    for (i, v) in values.iter_mut().enumerate().take(net.n_inputs()) {
        *v = inputs.get(i);
    }
    for row in placement.rows() {
        for &gi in row {
            let g = &net.gates()[gi];
            let mut v = g.inputs.iter().fold(false, |acc, &s| acc ^ values[s]);
            if let Some(&(_, forced)) = stuck.iter().find(|&&(sg, _)| sg == gi) {
                v = forced;
            }
            values[net.n_inputs() + gi] = v;
        }
    }
    values
}

/// Resolves physical stuck-cell coordinates to gate indices under one
/// placement (cells holding no gate of this operation are harmless).
#[cfg(test)]
fn stuck_gates(stuck: &[(usize, usize, bool)], placement: &Placement) -> Vec<(usize, bool)> {
    stuck
        .iter()
        .filter_map(|&(row, cell, value)| {
            placement
                .rows()
                .get(row)
                .and_then(|r| r.get(cell))
                .map(|&gi| (gi, value))
        })
        .collect()
}

#[cfg(test)]
fn outputs_from(net: &XorNetwork, values: &[bool]) -> BitVec {
    let mut out = BitVec::zeros(net.outputs().len());
    for (i, o) in net.outputs().iter().enumerate() {
        if let Some(s) = o {
            if values[*s] {
                out.set(i, true);
            }
        }
    }
    out
}

impl PicogaSim {
    /// Creates a simulator for the given fabric.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail validation.
    pub fn new(params: PicogaParams) -> Self {
        params.validate().expect("invalid fabric parameters");
        PicogaSim {
            contexts: vec![None; params.contexts],
            obs: ObsHub::new(params.rows),
            params,
            active: None,
            stuck: Vec::new(),
            pending_load_faults: Vec::new(),
            loads_seen: 0,
            scratch: Scratch::default(),
        }
    }

    /// Fabric parameters.
    pub fn params(&self) -> &PicogaParams {
        &self.params
    }

    /// Cycle counters so far (a view assembled from the registry).
    pub fn counters(&self) -> CycleCounters {
        CycleCounters {
            compute: self.obs.registry.counter_value(self.obs.cycles.compute),
            context_switch: self
                .obs
                .registry
                .counter_value(self.obs.cycles.context_switch),
            context_load: self
                .obs
                .registry
                .counter_value(self.obs.cycles.context_load),
        }
    }

    /// Resets the cycle counters (configurations stay loaded; the tracer
    /// and profiler are untouched).
    pub fn reset_counters(&mut self) {
        self.obs.registry.set_counter(self.obs.cycles.compute, 0);
        self.obs
            .registry
            .set_counter(self.obs.cycles.context_switch, 0);
        self.obs
            .registry
            .set_counter(self.obs.cycles.context_load, 0);
    }

    /// The observability hub (metrics registry, tracer, profiler).
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable access to the observability hub, used by the layers above
    /// to register their own metrics and record correlated events.
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Currently active slot.
    pub fn active_slot(&self) -> Option<usize> {
        self.active
    }

    /// The operation resident in context `slot`, if any — read-only
    /// access for inspection and static verification of loaded contexts.
    pub fn context(&self, slot: usize) -> Option<&PgaOperation> {
        self.contexts
            .get(slot)
            .and_then(Option::as_ref)
            .map(|c| &c.op)
    }

    /// Loads an operation into a context slot, charging the off-fabric
    /// load cost.
    ///
    /// The host reuses the configuration's compiled tables when the
    /// incoming operation shares the configuration they were compiled
    /// from, no armed corruption strikes this load, and no stuck cell
    /// lies under the placement; otherwise it compiles afresh. The
    /// simulated load is the same either way.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSlot`] if the slot does not exist.
    pub fn load_context(&mut self, slot: usize, mut op: PgaOperation) -> Result<(), SimError> {
        if slot >= self.contexts.len() {
            return Err(SimError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        let idx = self.loads_seen;
        self.loads_seen += 1;
        // Deliver any corruption armed against this load. A corruption
        // whose coordinates miss the incoming operation lands in unused
        // configuration padding: physically real, semantically harmless.
        let mut delivered = false;
        let mut i = 0;
        while i < self.pending_load_faults.len() {
            if self.pending_load_faults[i].load_index == idx {
                delivered = true;
                match self.pending_load_faults.remove(i).fault {
                    LoadFault::WireFlip {
                        gate,
                        pin,
                        new_signal,
                    } => {
                        let _ = op.corrupt_wire(gate, pin, new_signal);
                    }
                    LoadFault::TapFlip { output, new_tap } => {
                        let _ = op.corrupt_output_tap(output, new_tap);
                    }
                }
            } else {
                i += 1;
            }
        }
        let code = compile(&op, &self.stuck, delivered);
        self.contexts[slot] = Some(Context { op, code });
        self.obs.registry.add(
            self.obs.cycles.context_load,
            self.params.context_load_cycles,
        );
        self.obs.event(EventKind::ContextLoad { slot });
        if self.active == Some(slot) {
            self.active = None;
        }
        Ok(())
    }

    /// Injects one fault into the fabric: an SEU in a resident context
    /// (wire/tap flip, mutating the stored configuration) or a physical
    /// stuck-at cell (persisting across context reloads). A second
    /// stuck-at fault on the same cell replaces the first.
    ///
    /// # Errors
    ///
    /// [`InjectError`] when the fault addresses a slot, gate, pin,
    /// signal, or cell that does not exist.
    pub fn inject(&mut self, fault: &ConfigFault) -> Result<(), InjectError> {
        match *fault {
            ConfigFault::WireFlip {
                slot,
                gate,
                pin,
                new_signal,
            } => self.corrupt_context(slot, |op| op.corrupt_wire(gate, pin, new_signal)),
            ConfigFault::TapFlip {
                slot,
                output,
                new_tap,
            } => self.corrupt_context(slot, |op| op.corrupt_output_tap(output, new_tap)),
            ConfigFault::StuckCell { row, cell, value } => {
                if row >= self.params.rows {
                    return Err(InjectError::BadCoordinate {
                        what: "row",
                        got: row,
                        bound: self.params.rows,
                    });
                }
                if cell >= self.params.cells_per_row {
                    return Err(InjectError::BadCoordinate {
                        what: "cell",
                        got: cell,
                        bound: self.params.cells_per_row,
                    });
                }
                if let Some(e) = self.stuck.iter_mut().find(|e| e.0 == row && e.1 == cell) {
                    e.2 = value;
                } else {
                    self.stuck.push((row, cell, value));
                }
                self.recompile_all();
                Ok(())
            }
        }
    }

    /// Applies an SEU to the configuration resident in `slot` and
    /// recompiles it.
    fn corrupt_context(
        &mut self,
        slot: usize,
        corrupt: impl FnOnce(&mut PgaOperation) -> Result<(), InjectError>,
    ) -> Result<(), InjectError> {
        if slot >= self.contexts.len() {
            return Err(InjectError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        let ctx = self.contexts[slot]
            .as_mut()
            .ok_or(InjectError::EmptySlot { slot })?;
        corrupt(&mut ctx.op)?;
        ctx.code = compile(&ctx.op, &self.stuck, false);
        Ok(())
    }

    /// Recompiles every resident context after the stuck-cell set
    /// changed.
    fn recompile_all(&mut self) {
        for ctx in self.contexts.iter_mut().flatten() {
            ctx.code = compile(&ctx.op, &self.stuck, false);
        }
    }

    /// Whether the compiled form the host runs for context `slot` equals
    /// a fresh compile of its resident configuration under the present
    /// stuck cells (`None` for an empty or missing slot) — the property
    /// the compile cache must keep.
    pub fn compile_is_exact(&self, slot: usize) -> Option<bool> {
        let ctx = self.contexts.get(slot)?.as_ref()?;
        Some(*ctx.code == Compiled::new(&ctx.op, &self.stuck))
    }

    /// Arms a corruption against a future context load (see
    /// [`LoadCorruption`]). Several corruptions may target the same load.
    pub fn arm_load_corruption(&mut self, corruption: LoadCorruption) {
        self.pending_load_faults.push(corruption);
    }

    /// Applies a whole [`FaultPlan`](crate::FaultPlan): injects every
    /// configuration fault and arms every load corruption. Stops at the
    /// first invalid coordinate (faults before it stay applied).
    ///
    /// # Errors
    ///
    /// The first [`InjectError`] encountered.
    pub fn apply_plan(&mut self, plan: &crate::fault::FaultPlan) -> Result<(), InjectError> {
        for f in &plan.config {
            self.inject(f)?;
        }
        for &c in &plan.loads {
            self.arm_load_corruption(c);
        }
        Ok(())
    }

    /// Context loads performed since construction — the index space of
    /// [`LoadCorruption::load_index`].
    pub fn loads_seen(&self) -> u64 {
        self.loads_seen
    }

    /// The physical stuck-at cell faults currently present, as
    /// `(row, cell, value)` triples.
    pub fn stuck_cells(&self) -> &[(usize, usize, bool)] {
        &self.stuck
    }

    /// Repairs all stuck-at cell faults (test/diagnostic hook; real
    /// silicon stays broken, which is what the recovery ladder's
    /// re-placement and software-fallback rungs exist for).
    pub fn clear_stuck_cells(&mut self) {
        self.stuck.clear();
        self.recompile_all();
    }

    /// Makes `slot` the active context, charging the 2-cycle exchange when
    /// it actually changes.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSlot`] / [`SimError::EmptySlot`].
    pub fn switch_to(&mut self, slot: usize) -> Result<(), SimError> {
        if slot >= self.contexts.len() {
            return Err(SimError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        if self.contexts[slot].is_none() {
            return Err(SimError::EmptySlot { slot });
        }
        if self.active != Some(slot) {
            self.obs.registry.add(
                self.obs.cycles.context_switch,
                self.params.context_switch_cycles,
            );
            self.obs.event(EventKind::ContextSwitch { slot });
            self.active = Some(slot);
        }
        Ok(())
    }

    /// The active context and the reusable buffers, borrowed together.
    fn active_parts(&mut self) -> Result<(&Context, &mut Scratch), SimError> {
        let slot = self.active.ok_or(SimError::NoActiveContext)?;
        let ctx = self.contexts[slot]
            .as_ref()
            .ok_or(SimError::EmptySlot { slot })?;
        Ok((ctx, &mut self.scratch))
    }

    /// Charges a stream of `n` blocks at II = 1: one fill plus one cycle
    /// per further block (nothing for an empty stream).
    fn charge_stream(&mut self, stats: OpStats, n: u64) {
        if n > 0 {
            self.obs
                .registry
                .add(self.obs.cycles.compute, stats.latency + (n - 1));
            self.obs
                .profiler
                .record_stream(stats.rows, stats.latency, n);
        }
    }

    /// Runs one issue of the active **linear** operation, charging its full
    /// latency (used for one-shot networks like the CRC anti-transform).
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_linear(&mut self, inputs: &BitVec) -> Result<BitVec, SimError> {
        let (ctx, _) = self.active_parts()?;
        if !ctx.op.is_linear() {
            return Err(SimError::WrongOpShape { expected: "linear" });
        }
        let n_in = ctx.op.network().n_inputs();
        if inputs.len() != n_in {
            return Err(SimError::InputWidthMismatch {
                got: inputs.len(),
                expected: n_in,
            });
        }
        let table = &ctx.code.data;
        let mut out = vec![0u64; table.out_words()];
        table.apply(inputs.words(), &mut out);
        let (width, stats) = (table.n_outputs(), ctx.op.stats());
        self.charge_linear(stats);
        Ok(BitVec::from_words(out, width))
    }

    /// [`PicogaSim::run_linear`] for an operation of at most 64 inputs
    /// and 64 outputs, on one word each way (bit `i` is signal bit `i`):
    /// nothing is allocated.
    ///
    /// # Errors
    ///
    /// [`SimError::WrongOpShape`] unless the active operation is linear
    /// and one word wide.
    pub fn run_linear_word(&mut self, inputs: u64) -> Result<u64, SimError> {
        let (ctx, _) = self.active_parts()?;
        if !ctx.op.is_linear() {
            return Err(SimError::WrongOpShape { expected: "linear" });
        }
        let table = &ctx.code.data;
        if table.n_inputs() > 64 || table.out_words() > 1 {
            return Err(ONE_WORD);
        }
        let (out, stats) = (table.apply_word(|_| inputs), ctx.op.stats());
        self.charge_linear(stats);
        Ok(out)
    }

    /// Charges one issue of a linear operation: its full latency.
    fn charge_linear(&mut self, stats: OpStats) {
        let latency = stats.latency.max(1);
        self.obs.registry.add(self.obs.cycles.compute, latency);
        self.obs.profiler.record_stream(stats.rows, latency, 1);
    }

    /// Physical self-test of the active operation: evaluates the zero
    /// vector and every input basis vector through the physical
    /// datapath (stuck-at effects included) and compares each response
    /// against the resident configuration's matrix.
    ///
    /// This is *complete* for the fabric's fault model: the networks
    /// are XOR-only, so any combination of stuck-at cells leaves the
    /// physical function affine, and an affine map equals the
    /// configured linear map iff the two agree on the zero vector and
    /// the full input basis. (Configuration corruption — wire or tap
    /// flips — moves the matrix itself and is the scrub's job; this
    /// probe catches what the scrub structurally cannot.)
    ///
    /// The `n + 1` vectors run 64 to a pass through the context's
    /// row-ordered tape — the datapath itself, never the tables compiled
    /// from it — and the configured matrix's columns come from the
    /// configuration's own gate-order evaluation of the same lanes,
    /// which depends on the configuration alone and is kept with it.
    ///
    /// Charges one latency per evaluation: self-checking is not free.
    ///
    /// Returns `true` when the datapath matches the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveContext`] / [`SimError::EmptySlot`].
    pub fn affine_probe(&mut self) -> Result<bool, SimError> {
        let (ctx, scratch) = self.active_parts()?;
        let (expected, tape) = (ctx.op.probe_responses(), &ctx.code.tape);
        let stats = ctx.op.stats();
        let (n, outputs) = (tape.n_inputs(), ctx.op.network().outputs().len());
        let mut ok = true;
        tape.sweep(&mut scratch.values, |lo, values| {
            let want = &expected[lo / 64 * outputs..][..outputs];
            ok = want
                .iter()
                .enumerate()
                .all(|(o, &w)| tape.output(values, o) == w);
            ok
        });
        let latency = stats.latency.max(1);
        self.obs
            .registry
            .add(self.obs.cycles.compute, latency * (n as u64 + 1));
        self.obs
            .profiler
            .record_iterative(stats.rows, latency, n as u64 + 1);
        Ok(ok)
    }

    /// Streams `blocks` through the active **CRC update** operation,
    /// starting from transformed state `x_t`; returns the final transformed
    /// state.
    ///
    /// Cycle cost: pipeline latency + one cycle per additional block
    /// (II = 1). An empty stream costs nothing.
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_crc_stream<'a, I>(&mut self, x_t: &BitVec, blocks: I) -> Result<BitVec, SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let width = self.crc_update_width()?;
        self.check_state(x_t)?;
        let (blocks, err) = valid_prefix(blocks, width);
        if let Some(e) = err {
            return Err(e);
        }
        self.crc_stream(x_t, blocks.len(), listed(&blocks), None)
    }

    /// [`PicogaSim::run_crc_stream`] over the first `n` M-bit blocks of
    /// a packed bit stream (block `b` is bits `[b·M, (b+1)·M)` of
    /// `bits`), read a word at a time. Once the context's compile has a
    /// word table, the stream's whole 64-bit words take one table sweep
    /// each, and the blocks after them go one at a time; the cycles
    /// charged are the same.
    ///
    /// # Errors
    ///
    /// Shape mismatches per [`SimError`];
    /// [`SimError::InputWidthMismatch`] when `bits` is shorter than
    /// `n` blocks or `x_t` is not k bits.
    pub fn run_crc_blocks(
        &mut self,
        x_t: &BitVec,
        bits: &BitVec,
        n: usize,
    ) -> Result<BitVec, SimError> {
        let m = self.crc_update_width()?;
        check_packed(bits, n, m)?;
        self.check_state(x_t)?;
        self.crc_stream(x_t, n, packed(bits, m), Some(bits.words()))
    }

    /// [`PicogaSim::run_crc_blocks`] for a state of at most 64 bits, held
    /// in one word (bit `i` is state bit `i`): nothing is allocated.
    ///
    /// # Errors
    ///
    /// As [`PicogaSim::run_crc_blocks`]; [`SimError::WrongOpShape`] when
    /// the state is wider than a word.
    pub fn run_crc_blocks_word(
        &mut self,
        x_t: u64,
        bits: &BitVec,
        n: usize,
    ) -> Result<u64, SimError> {
        let m = self.crc_update_width()?;
        check_packed(bits, n, m)?;
        self.crc_stream_word(x_t, n, packed(bits, m), Some(bits.words()))
    }

    /// The block width M of the active CRC update operation.
    fn crc_update_width(&self) -> Result<usize, SimError> {
        let op = self.active_op()?;
        if !op.is_crc_update() {
            return Err(SimError::WrongOpShape {
                expected: "CRC update",
            });
        }
        Ok(op.network().n_inputs())
    }

    /// Each block's feed-forward `p` from the tables, then the feedback
    /// row (one word when k ≤ 64). `stream` holds the words of a packed
    /// stream, which may take the word table (see
    /// [`PicogaSim::crc_stream_word`]).
    fn crc_stream(
        &mut self,
        x_t: &BitVec,
        n: usize,
        word: impl Fn(usize, usize) -> u64,
        stream: Option<&[u64]>,
    ) -> Result<BitVec, SimError> {
        if n == 0 {
            return Ok(x_t.clone());
        }
        let (ctx, scratch) = self.active_parts()?;
        let fb = ctx.op.feedback().expect("crc update has feedback");
        let k = fb.k;
        if k <= 64 {
            let s = self.crc_stream_word(x_t.word_at(0), n, word, stream)?;
            return Ok(BitVec::from_u64(s, k));
        }
        let table = &ctx.code.data;
        let mut state = state_words(x_t, k);
        let p = &mut scratch.out;
        p.resize(table.out_words(), 0);
        for b in 0..n {
            table.apply_with(|g| word(b, g), p);
            fb.step_words(&mut state, p);
        }
        let stats = ctx.op.stats();
        self.charge_stream(stats, n as u64);
        Ok(BitVec::from_words(state, k))
    }

    /// [`PicogaSim::crc_stream`] for a state of at most 64 bits: the
    /// feedback row is one word. A packed stream (`stream`: its words,
    /// `L` blocks to a word) runs its whole words through the compile's
    /// word table when it has one, and the rest block by block; a list
    /// of blocks always runs block by block.
    fn crc_stream_word(
        &mut self,
        x_t: u64,
        n: usize,
        word: impl Fn(usize, usize) -> u64,
        stream: Option<&[u64]>,
    ) -> Result<u64, SimError> {
        let (ctx, _) = self.active_parts()?;
        let fb = ctx.op.feedback().expect("crc update has feedback");
        if fb.k > 64 {
            return Err(ONE_WORD);
        }
        let mut s = x_t & (u64::MAX >> (64 - fb.k));
        let (code, stats) = (&ctx.code, ctx.op.stats());
        let mut done = 0;
        if let Some(words) = stream {
            if let Some(table) = code.word_table(fb, n) {
                let whole = n / table.blocks();
                s = words[..whole].iter().fold(s, |s, &w| table.step(s, w));
                done = whole * table.blocks();
            }
        }
        let step = fb.word_step();
        for b in done..n {
            s = step(s, code.data.apply_word(|g| word(b, g)));
        }
        self.charge_stream(stats, n as u64);
        Ok(s)
    }

    /// Streams `blocks` through the active **dense look-ahead** update
    /// operation: `x′ = net([x | u])`. The feedback spans the whole
    /// pipeline, so each block costs the full latency (II = latency).
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_crc_stream_dense<'a, I>(
        &mut self,
        state: &BitVec,
        blocks: I,
    ) -> Result<BitVec, SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let m = self.dense_block_width()?;
        // Blocks before a malformed one have run (and been charged)
        // when the error surfaces, as on the fabric.
        let (blocks, err) = valid_prefix(blocks, m);
        let st = self.crc_dense(state, blocks.len(), listed(&blocks));
        if let Some(e) = err {
            return Err(e);
        }
        self.record_dense(blocks.len());
        Ok(st)
    }

    /// [`PicogaSim::run_crc_stream_dense`] over the first `n` M-bit
    /// blocks of a packed bit stream.
    ///
    /// # Errors
    ///
    /// Shape mismatches per [`SimError`];
    /// [`SimError::InputWidthMismatch`] when `bits` is shorter than
    /// `n` blocks.
    pub fn run_crc_dense_blocks(
        &mut self,
        state: &BitVec,
        bits: &BitVec,
        n: usize,
    ) -> Result<BitVec, SimError> {
        let m = self.dense_block_width()?;
        check_packed(bits, n, m)?;
        let st = self.crc_dense(state, n, packed(bits, m));
        self.record_dense(n);
        Ok(st)
    }

    /// [`PicogaSim::run_crc_dense_blocks`] for a state of at most 64 bits,
    /// held in one word (bit `i` is state bit `i`): nothing is allocated.
    ///
    /// # Errors
    ///
    /// As [`PicogaSim::run_crc_dense_blocks`]; [`SimError::WrongOpShape`]
    /// when the state is wider than a word.
    pub fn run_crc_dense_blocks_word(
        &mut self,
        state: u64,
        bits: &BitVec,
        n: usize,
    ) -> Result<u64, SimError> {
        let m = self.dense_block_width()?;
        check_packed(bits, n, m)?;
        let code = &self.active_parts()?.0.code;
        if code.state.n_inputs() > 64 || code.out_words() > 1 {
            return Err(ONE_WORD);
        }
        let s = dense_word_loop(code, state, n, packed(bits, m));
        self.charge_dense(n);
        self.record_dense(n);
        Ok(s)
    }

    /// The data block width M of the active dense update operation.
    fn dense_block_width(&self) -> Result<usize, SimError> {
        let op = self.active_op()?;
        let Some(k) = op.dense_update_k() else {
            return Err(SimError::WrongOpShape {
                expected: "dense CRC update",
            });
        };
        Ok(op.network().n_inputs() - k)
    }

    fn active_op(&self) -> Result<&PgaOperation, SimError> {
        let slot = self.active.ok_or(SimError::NoActiveContext)?;
        self.contexts[slot]
            .as_ref()
            .map(|c| &c.op)
            .ok_or(SimError::EmptySlot { slot })
    }

    /// The dense loop over the tables on `[x | u]`, block by block (the
    /// next block's state is this block's output), charging the full
    /// latency per block.
    fn crc_dense(
        &mut self,
        state: &BitVec,
        n: usize,
        word: impl Fn(usize, usize) -> u64,
    ) -> BitVec {
        let (ctx, scratch) = self.active_parts().expect("shape checked");
        let code = &ctx.code;
        let mut st = state.clone();
        if n > 0 {
            let (w, width) = (code.out_words(), code.data.n_outputs());
            let mut x = state.words().to_vec();
            x.resize(code.state.n_inputs().div_ceil(64).max(w), 0);
            if let [s] = x.as_mut_slice() {
                *s = dense_word_loop(code, *s, n, word);
            } else {
                let out = &mut scratch.out;
                out.resize(w, 0);
                for b in 0..n {
                    code.data.apply_with(|g| word(b, g), out);
                    code.state.xor_product(&x, out);
                    x[..w].copy_from_slice(out);
                    x[w..].fill(0);
                }
            }
            x.truncate(w);
            st = BitVec::from_words(x, width);
        }
        self.charge_dense(n);
        st
    }

    /// Charges `n` dense blocks to the compute clock: the full latency
    /// each.
    fn charge_dense(&mut self, n: usize) {
        let latency = self.active_op().expect("shape checked").stats().latency;
        self.obs
            .registry
            .add(self.obs.cycles.compute, latency.max(1) * n as u64);
    }

    fn record_dense(&mut self, n: usize) {
        let stats = self.active_op().expect("shape checked").stats();
        self.obs
            .profiler
            .record_iterative(stats.rows, stats.latency.max(1), n as u64);
    }

    /// Streams an **interleaved** sequence of `(lane, block)` items through
    /// the active CRC update operation, one per-lane state in `states`.
    ///
    /// All lanes share the single pipeline: the whole batch costs one fill
    /// (latency) plus one cycle per block, which is exactly the Kong–Parhi
    /// interleaving benefit the paper's Fig. 5 exploits.
    ///
    /// # Errors
    ///
    /// Shape/width/lane mismatches per [`SimError`].
    pub fn run_crc_interleaved<'a, I>(
        &mut self,
        states: &mut [BitVec],
        items: I,
    ) -> Result<(), SimError>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let width = self.crc_update_width()?;
        let mut valid: Vec<(usize, &BitVec)> = Vec::new();
        let mut err = None;
        for (lane, block) in items {
            if lane >= states.len() {
                err = Some(SimError::BadSlot {
                    slot: lane,
                    contexts: states.len(),
                });
                break;
            }
            if block.len() != width {
                err = Some(SimError::InputWidthMismatch {
                    got: block.len(),
                    expected: width,
                });
                break;
            }
            valid.push((lane, block));
        }
        // Items before a malformed one have run (and been charged) when
        // the error surfaces, as on the fabric.
        let (ctx, scratch) = self.active_parts()?;
        let fb = ctx.op.feedback().expect("crc update has feedback");
        let table = &ctx.code.data;
        let mut words: Vec<Option<Vec<u64>>> = vec![None; states.len()];
        let p = &mut scratch.out;
        p.resize(table.out_words(), 0);
        for &(lane, block) in &valid {
            table.apply(block.words(), p);
            let st = words[lane].get_or_insert_with(|| state_words(&states[lane], fb.k));
            fb.step_words(st, p);
        }
        let (k, stats) = (fb.k, ctx.op.stats());
        for (state, w) in states.iter_mut().zip(words) {
            if let Some(w) = w {
                *state = BitVec::from_words(w, k);
            }
        }
        self.charge_stream(stats, valid.len() as u64);
        err.map_or(Ok(()), Err)
    }

    /// Streams `blocks` through the active **scrambler** operation from
    /// transformed seed `x_t`; returns the concatenated output bits and
    /// the final transformed state.
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_scrambler_stream<'a, I>(
        &mut self,
        x_t: &BitVec,
        blocks: I,
    ) -> Result<(BitVec, BitVec), SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let m = self.scrambler_width()?;
        self.check_state(x_t)?;
        let (blocks, err) = valid_prefix(blocks, m);
        if let Some(e) = err {
            return Err(e);
        }
        Ok(self.scrambler_stream(x_t, blocks.len(), listed(&blocks), None))
    }

    /// [`PicogaSim::run_scrambler_stream`] over the first `n` M-bit
    /// blocks of a packed bit stream. Once the context's compile has a
    /// word table, the stream's whole 64-bit words take one table sweep
    /// each, writing one output word, and the blocks after them go one
    /// at a time; the cycles charged are the same.
    ///
    /// # Errors
    ///
    /// Shape mismatches per [`SimError`];
    /// [`SimError::InputWidthMismatch`] when `bits` is shorter than
    /// `n` blocks or `x_t` is not k bits.
    pub fn run_scrambler_blocks(
        &mut self,
        x_t: &BitVec,
        bits: &BitVec,
        n: usize,
    ) -> Result<(BitVec, BitVec), SimError> {
        let m = self.scrambler_width()?;
        check_packed(bits, n, m)?;
        self.check_state(x_t)?;
        Ok(self.scrambler_stream(x_t, n, packed(bits, m), Some(bits.words())))
    }

    /// [`PicogaSim::run_scrambler_blocks`] for a state of at most 64
    /// bits, taken and returned in one word (bit `i` is state bit `i`):
    /// only the output is allocated.
    ///
    /// # Errors
    ///
    /// As [`PicogaSim::run_scrambler_blocks`]; [`SimError::WrongOpShape`]
    /// when the state is wider than a word.
    pub fn run_scrambler_blocks_word(
        &mut self,
        x_t: u64,
        bits: &BitVec,
        n: usize,
    ) -> Result<(BitVec, u64), SimError> {
        let m = self.scrambler_width()?;
        check_packed(bits, n, m)?;
        self.scrambler_stream_word(x_t, n, packed(bits, m), Some(bits.words()))
    }

    /// Checks that start state `x_t` has the k bits of the active CRC
    /// update's or scrambler's state row.
    fn check_state(&self, x_t: &BitVec) -> Result<(), SimError> {
        let k = self.active_op()?.feedback().map_or(0, |fb| fb.k);
        if x_t.len() != k {
            return Err(SimError::InputWidthMismatch {
                got: x_t.len(),
                expected: k,
            });
        }
        Ok(())
    }

    /// The block width M of the active scrambler operation.
    fn scrambler_width(&self) -> Result<usize, SimError> {
        self.active_op()?
            .scrambler_m()
            .ok_or(SimError::WrongOpShape {
                expected: "scrambler",
            })
    }

    /// The scrambler over `n` blocks from transformed state `x_t`: the
    /// output bits and the final state.
    fn scrambler_stream(
        &mut self,
        x_t: &BitVec,
        n: usize,
        word: impl Fn(usize, usize) -> u64,
        stream: Option<&[u64]>,
    ) -> (BitVec, BitVec) {
        let k = x_t.len();
        if k <= 64 {
            let (out, s) = self
                .scrambler_stream_word(x_t.word_at(0), n, word, stream)
                .expect("shape checked");
            return (out, BitVec::from_u64(s, k));
        }
        let mut state = state_words(x_t, k);
        let out = self.scrambler_run(&mut state, n, word, stream);
        (out, BitVec::from_words(state, k))
    }

    /// [`PicogaSim::scrambler_stream`] for a state of at most 64 bits.
    fn scrambler_stream_word(
        &mut self,
        x_t: u64,
        n: usize,
        word: impl Fn(usize, usize) -> u64,
        stream: Option<&[u64]>,
    ) -> Result<(BitVec, u64), SimError> {
        let k = self
            .active_op()?
            .feedback()
            .expect("scrambler has feedback")
            .k;
        if k > 64 {
            return Err(ONE_WORD);
        }
        let mut s = [x_t & (u64::MAX >> (64 - k))];
        let out = self.scrambler_run(&mut s, n, word, stream);
        Ok((out, s[0]))
    }

    /// The scrambler over `n` blocks from the state words `state`, which
    /// it advances; returns the output bits. A packed stream (`stream`:
    /// its words, `L` blocks to a word) on a one-word state runs its
    /// whole words through the compile's word table when it has one,
    /// each writing one output word. The other blocks go one at a time:
    /// block `b`'s output `c ⊕ D·u_b ⊕ S·x_b` from the tables, written
    /// at bit `b·width`, then one autonomous step of the state (no data
    /// enters the loop).
    fn scrambler_run(
        &mut self,
        state: &mut [u64],
        n: usize,
        word: impl Fn(usize, usize) -> u64,
        stream: Option<&[u64]>,
    ) -> BitVec {
        let (ctx, scratch) = self.active_parts().expect("shape checked");
        let fb = ctx.op.feedback().expect("scrambler has feedback");
        let code = &ctx.code;
        let width = code.data.n_outputs();
        let mut out = vec![0u64; (n * width).div_ceil(64)];
        let mut done = 0;
        if let (Some(words), [x]) = (stream, &mut *state) {
            if let Some(table) = code.word_table(fb, n) {
                let whole = n / table.blocks();
                let mut s = *x;
                for (y, &w) in out.iter_mut().zip(&words[..whole]) {
                    (*y, s) = table.scramble(s, w);
                }
                *x = s;
                done = whole * table.blocks();
            }
        }
        if let ([x], 1) = (&mut *state, code.out_words()) {
            let step = fb.word_step();
            let mut s = *x;
            for b in done..n {
                let y = code.data.apply_word(|g| word(b, g)) ^ code.state.apply_word(|_| s);
                put_bits(&mut out, b * width, y);
                s = step(s, 0);
            }
            *x = s;
        } else {
            let y = &mut scratch.out;
            y.resize(code.out_words(), 0);
            for b in done..n {
                code.data.apply_with(|g| word(b, g), y);
                code.state.xor_product(state, y);
                for (g, &v) in y.iter().enumerate() {
                    put_bits(&mut out, b * width + 64 * g, v);
                }
                fb.step_words(state, &[]);
            }
        }
        let stats = ctx.op.stats();
        self.charge_stream(stats, n as u64);
        BitVec::from_words(out, n * width)
    }
}

/// Checks that `bits` holds `n` whole `m`-bit blocks.
fn check_packed(bits: &BitVec, n: usize, m: usize) -> Result<(), SimError> {
    if n * m > bits.len() {
        return Err(SimError::InputWidthMismatch {
            got: bits.len(),
            expected: n * m,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::WordTable;
    use gf2::{BitMat, Gf2Poly};
    use xornet::{synthesize, SynthOptions};

    fn params() -> PicogaParams {
        PicogaParams::dream()
    }

    fn identity_op(n: usize) -> PgaOperation {
        let net = synthesize(&BitMat::identity(n), SynthOptions::default());
        PgaOperation::linear("id", net, &params()).unwrap()
    }

    #[test]
    fn context_management_costs() {
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, identity_op(8)).unwrap();
        sim.load_context(1, identity_op(8)).unwrap();
        assert_eq!(
            sim.counters().context_load,
            2 * params().context_load_cycles
        );
        sim.switch_to(0).unwrap();
        sim.switch_to(0).unwrap(); // no-op
        sim.switch_to(1).unwrap();
        assert_eq!(
            sim.counters().context_switch,
            2 * params().context_switch_cycles
        );
    }

    #[test]
    fn bad_slots_and_shapes_are_errors() {
        let mut sim = PicogaSim::new(params());
        assert!(matches!(
            sim.switch_to(9),
            Err(SimError::BadSlot { slot: 9, .. })
        ));
        assert!(matches!(
            sim.switch_to(1),
            Err(SimError::EmptySlot { slot: 1 })
        ));
        assert!(matches!(
            sim.run_linear(&BitVec::zeros(4)),
            Err(SimError::NoActiveContext)
        ));
        sim.load_context(0, identity_op(8)).unwrap();
        sim.switch_to(0).unwrap();
        assert!(matches!(
            sim.run_linear(&BitVec::zeros(4)),
            Err(SimError::InputWidthMismatch {
                got: 4,
                expected: 8
            })
        ));
        assert!(matches!(
            sim.run_crc_stream(&BitVec::zeros(8), std::iter::empty()),
            Err(SimError::WrongOpShape { .. })
        ));
    }

    #[test]
    fn linear_op_computes_and_charges_latency() {
        let mut sim = PicogaSim::new(params());
        // y = T·x for a random-ish invertible T: use a companion power.
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(5);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let lat = op.stats().latency;
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();
        let x = BitVec::from_u64(0xBEEF, 16);
        let y = sim.run_linear(&x).unwrap();
        assert_eq!(y, t.mul_vec(&x));
        assert_eq!(sim.counters().compute, lat.max(1));
    }

    #[test]
    fn crc_stream_cycle_accounting_is_ii1() {
        // Build a small Derby-like op by hand: k=16, M=16.
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        // Feed-forward p = B·u with B = [A^15·b … b].
        let mut b = BitVec::zeros(16);
        for i in 0..16 {
            if g.coeff(i) {
                b.set(i, true);
            }
        }
        let cols: Vec<BitVec> = (0..16u64).map(|j| a.pow(15 - j).mul_vec(&b)).collect();
        let bm = BitMat::from_columns(&cols);
        let net = synthesize(&bm, SynthOptions::default());
        let op = PgaOperation::crc_update("upd", net, &a, &params()).unwrap();
        let latency = op.stats().latency;

        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();

        let blocks: Vec<BitVec> = (0..10u64)
            .map(|i| BitVec::from_u64(i * 37 + 1, 16))
            .collect();
        let fin = sim
            .run_crc_stream(&BitVec::zeros(16), blocks.iter())
            .unwrap();
        // Cycles: latency + (n-1).
        assert_eq!(sim.counters().compute, latency + 9);

        // Functional check against the matrix semantics.
        let mut expect = BitVec::zeros(16);
        for blk in &blocks {
            expect = &a.mul_vec(&expect) ^ &bm.mul_vec(blk);
        }
        assert_eq!(fin, expect);
    }

    #[test]
    fn empty_stream_is_free() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        let net = synthesize(&BitMat::identity(16), SynthOptions::default());
        let op = PgaOperation::crc_update("upd", net, &a, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();
        let s = sim
            .run_crc_stream(&BitVec::from_u64(0xAA, 16), std::iter::empty())
            .unwrap();
        assert_eq!(s.to_u64(), 0xAA);
        assert_eq!(sim.counters().compute, 0);
    }

    #[test]
    fn scrambler_stream_matches_block_semantics() {
        // Scrambler: k=7, M=8, y = C_stack·x ⊕ u, x' = companion·x.
        let s_poly = Gf2Poly::from_u64(0b1001_0001);
        let a_fib = lfsr_fibonacci(&s_poly);
        // Use Derby on A^8 to get companion feedback.
        let a8 = a_fib.pow(8);
        let t = a8.krylov(&BitVec::unit(0, 7));
        let t_inv = t.inverse().unwrap();
        let a8t = t_inv.mul(&a8).mul(&t);
        assert!(a8t.is_companion());
        // Output rows: y(i) = c·A^i·x for i in 0..8, transformed by T, plus u.
        let c_row = a_fib.row(6).clone();
        let mut rows = Vec::new();
        for i in 0..8u64 {
            // First 7 columns: c·A^i·T; column 7+i: the u identity bit.
            let r7 = BitMat::from_rows(vec![c_row.clone()])
                .mul(&a_fib.pow(i))
                .mul(&t)
                .row(0)
                .clone();
            let mut full = r7.resized(15);
            full.set(7 + i as usize, true);
            rows.push(full);
        }
        let net = synthesize(&BitMat::from_rows(rows.clone()), SynthOptions::default());
        let op = PgaOperation::scrambler("scr", net, &a8t, 8, &params()).unwrap();

        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();

        let seed = BitVec::from_u64(0x5B, 7);
        let x_t0 = t_inv.mul_vec(&seed);
        let blocks: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(0x9E ^ i, 8)).collect();
        let (out, _fin) = sim.run_scrambler_stream(&x_t0, blocks.iter()).unwrap();

        // Reference: serial Fibonacci scrambler.
        let mut x = seed.clone();
        let mut expect = BitVec::zeros(0);
        for blk in &blocks {
            for j in 0..8 {
                let y = c_row.dot(&x) ^ blk.get(j);
                expect = expect.concat(&BitVec::from_bits([y]));
                x = a_fib.mul_vec(&x);
            }
        }
        assert_eq!(out, expect);
    }

    /// Find a wire flip that provably changes the operation's matrix, and
    /// a basis input on which the corrupted matrix disagrees with `t`.
    fn semantic_wire_flip(op: &PgaOperation) -> (usize, usize, BitVec) {
        let t = op.network().to_matrix();
        for gate in (0..op.network().gate_count()).rev() {
            for new_signal in 0..op.network().n_inputs() {
                let mut probe = op.clone();
                if probe.corrupt_wire(gate, 0, new_signal).is_err() {
                    continue;
                }
                let m = probe.network().to_matrix();
                if m == t {
                    continue;
                }
                for j in 0..t.cols() {
                    if m.column(j) != t.column(j) {
                        let mut x = BitVec::zeros(t.cols());
                        x.set(j, true);
                        return (gate, new_signal, x);
                    }
                }
            }
        }
        panic!("no semantic wire flip found");
    }

    #[test]
    fn wire_flip_changes_semantics_and_reload_heals_it() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let (gate, new_signal, x) = semantic_wire_flip(&op);
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        let clean = sim.run_linear(&x).unwrap();
        assert_eq!(clean, t.mul_vec(&x));

        sim.inject(&ConfigFault::WireFlip {
            slot: 0,
            gate,
            pin: 0,
            new_signal,
        })
        .unwrap();
        let corrupt = sim.run_linear(&x).unwrap();
        assert_ne!(corrupt, clean, "SEU must change the computed function");

        // Reloading the pristine configuration heals the SEU.
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), clean);
    }

    #[test]
    fn stuck_cell_survives_reload_and_tap_flip_zeroes_an_output() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        let x = BitVec::from_u64(0xFFFF, 16);
        let clean = sim.run_linear(&x).unwrap();

        // Stick the first placed cell at 1; a reload must NOT repair it.
        sim.inject(&ConfigFault::StuckCell {
            row: 0,
            cell: 0,
            value: true,
        })
        .unwrap();
        assert_eq!(sim.stuck_cells().len(), 1);
        let faulty = sim.run_linear(&BitVec::zeros(16)).unwrap();
        assert!(!faulty.is_zero(), "stuck-at-1 breaks linearity at x = 0");
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        let still_faulty = sim.run_linear(&BitVec::zeros(16)).unwrap();
        assert!(!still_faulty.is_zero(), "reload cannot fix silicon");
        sim.clear_stuck_cells();
        assert_eq!(sim.run_linear(&x).unwrap(), clean);

        // Tap flip: output 3 re-tapped to constant 0.
        sim.inject(&ConfigFault::TapFlip {
            slot: 0,
            output: 3,
            new_tap: None,
        })
        .unwrap();
        let tapped = sim.run_linear(&BitVec::ones(16)).unwrap();
        assert!(!tapped.get(3));
    }

    #[test]
    fn affine_probe_is_complete_for_stuck_cells() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert!(sim.affine_probe().unwrap(), "clean datapath passes");

        // Soundness of a passing verdict: for every stuck-at fault
        // under a placed gate, if the probe passes then the physical
        // function is exact at arbitrary (non-basis) inputs too — the
        // property a sampled known-answer probe cannot promise.
        let placement = op.placement().clone();
        let witnesses: Vec<BitVec> = (1..=32u64)
            .map(|k| BitVec::from_u64(k.wrapping_mul(0x9E37_79B9) & 0xFFFF, 16))
            .collect();
        let mut detections = 0;
        for (ri, row) in placement.rows().iter().enumerate() {
            for ci in 0..row.len() {
                for value in [false, true] {
                    sim.clear_stuck_cells();
                    sim.inject(&ConfigFault::StuckCell {
                        row: ri,
                        cell: ci,
                        value,
                    })
                    .unwrap();
                    let probe_ok = sim.affine_probe().unwrap();
                    if !probe_ok {
                        detections += 1;
                        continue;
                    }
                    for x in &witnesses {
                        assert_eq!(
                            sim.run_linear(x).unwrap(),
                            t.mul_vec(x),
                            "probe passed but stuck ({ri},{ci})={value} corrupts {x:?}"
                        );
                    }
                }
            }
        }
        assert!(detections > 0, "the sweep was actually exercised");
        sim.clear_stuck_cells();
        assert!(sim.affine_probe().unwrap());
    }

    #[test]
    fn load_corruption_strikes_the_armed_load_only() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(3);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let (gate, new_signal, x) = semantic_wire_flip(&op);
        let mut sim = PicogaSim::new(params());
        // Arm against the second load (index 1).
        sim.arm_load_corruption(LoadCorruption {
            load_index: 1,
            fault: LoadFault::WireFlip {
                gate,
                pin: 0,
                new_signal,
            },
        });
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 0 clean");

        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert_ne!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 1 hit");

        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 2 clean");
        assert_eq!(sim.loads_seen(), 3);
    }

    #[test]
    fn inject_rejects_bad_coordinates() {
        let mut sim = PicogaSim::new(params());
        assert!(matches!(
            sim.inject(&ConfigFault::WireFlip {
                slot: 9,
                gate: 0,
                pin: 0,
                new_signal: 0
            }),
            Err(InjectError::BadSlot { slot: 9, .. })
        ));
        assert!(matches!(
            sim.inject(&ConfigFault::TapFlip {
                slot: 0,
                output: 0,
                new_tap: None
            }),
            Err(InjectError::EmptySlot { slot: 0 })
        ));
        sim.load_context(0, identity_op(8)).unwrap();
        assert!(matches!(
            sim.inject(&ConfigFault::WireFlip {
                slot: 0,
                gate: 999,
                pin: 0,
                new_signal: 0
            }),
            Err(InjectError::BadCoordinate { what: "gate", .. })
        ));
        assert!(matches!(
            sim.inject(&ConfigFault::StuckCell {
                row: 999,
                cell: 0,
                value: true
            }),
            Err(InjectError::BadCoordinate { what: "row", .. })
        ));
    }

    /// Differential tests of the compiled tapes against the
    /// gate-at-a-time evaluator they replaced, on random networks at
    /// M ∈ {8, 32, 128} with wire flips (some reading gates placed in
    /// later rows), tap flips and stuck cells.
    mod differential {
        use super::*;

        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }
            fn bits(&mut self, len: usize) -> BitVec {
                BitVec::from_words((0..len.div_ceil(64)).map(|_| self.next()).collect(), len)
            }
            fn matrix(&mut self, rows: usize, cols: usize) -> BitMat {
                BitMat::from_rows((0..rows).map(|_| self.bits(cols)).collect())
            }
        }

        /// A fabric large enough for any random network below.
        fn roomy() -> PicogaParams {
            PicogaParams {
                rows: 64,
                cells_per_row: 64,
                usable_cells_per_row: 64,
                input_bits: 1024,
                output_bits: 1024,
                ..PicogaParams::dream()
            }
        }

        /// The four operation shapes over an `m`-bit block.
        fn ops(rng: &mut Rng, m: usize) -> Vec<PgaOperation> {
            let p = roomy();
            let fb = BitMat::companion(&Gf2Poly::from_crc_notation(0x04C1_1DB7, 32));
            let scr = BitMat::companion(&Gf2Poly::from_u64(0b1001_0001));
            let synth = |mat: &BitMat| synthesize(mat, SynthOptions::default());
            vec![
                PgaOperation::linear("lin", synth(&rng.matrix(32, m)), &p).unwrap(),
                PgaOperation::crc_update("upd", synth(&rng.matrix(32, m)), &fb, &p).unwrap(),
                PgaOperation::crc_update_dense("dense", synth(&rng.matrix(16, 16 + m)), 16, &p)
                    .unwrap(),
                PgaOperation::scrambler("scr", synth(&rng.matrix(m, 7 + m)), &scr, m, &p).unwrap(),
            ]
        }

        /// Corrupts `sim`'s context 0 (holding `op`) and the fabric with
        /// random faults; returns how many wire flips read a gate placed
        /// in the same or a later row.
        fn corrupt(sim: &mut PicogaSim, op: &PgaOperation, rng: &mut Rng) -> usize {
            let net = op.network();
            let pl = op.placement();
            let mut forward = 0;
            for _ in 0..1 + rng.below(3) {
                let gate = rng.below(net.gate_count());
                let pin = rng.below(net.gates()[gate].inputs.len());
                let own = net.n_inputs() + gate;
                // Half the flips read a gate placed no earlier than the
                // reader, when one exists.
                let later: Vec<usize> = (0..gate)
                    .filter(|&h| pl.row_of(h) >= pl.row_of(gate))
                    .collect();
                let new_signal = if !later.is_empty() && rng.below(2) == 0 {
                    forward += 1;
                    net.n_inputs() + later[rng.below(later.len())]
                } else {
                    rng.below(own)
                };
                let f = ConfigFault::WireFlip {
                    slot: 0,
                    gate,
                    pin,
                    new_signal,
                };
                sim.inject(&f).unwrap();
            }
            if rng.below(2) == 0 {
                let output = rng.below(net.outputs().len());
                let tap = rng.below(net.n_signals() + 1);
                let f = ConfigFault::TapFlip {
                    slot: 0,
                    output,
                    new_tap: (tap < net.n_signals()).then_some(tap),
                };
                sim.inject(&f).unwrap();
            }
            for _ in 0..rng.below(3) {
                let row = rng.below(pl.row_count().max(1));
                let cell = rng.below(pl.rows().get(row).map_or(1, Vec::len).max(1));
                let f = ConfigFault::StuckCell {
                    row,
                    cell,
                    value: rng.below(2) == 0,
                };
                sim.inject(&f).unwrap();
            }
            forward
        }

        /// The gate-at-a-time evaluation of the resident context.
        fn oracle(sim: &PicogaSim, inputs: &BitVec) -> BitVec {
            let op = sim.context(0).unwrap();
            let stuck = stuck_gates(sim.stuck_cells(), op.placement());
            let values = eval_by_rows(op.network(), op.placement(), inputs, &stuck);
            outputs_from(op.network(), &values)
        }

        /// The zero + basis sweep as `affine_probe` ran it before.
        fn oracle_probe(sim: &PicogaSim) -> bool {
            let net = sim.context(0).unwrap().network();
            let n = net.n_inputs();
            let expected = net.to_matrix();
            oracle(sim, &BitVec::zeros(n)).is_zero()
                && (0..n).all(|i| oracle(sim, &BitVec::unit(i, n)) == expected.column(i))
        }

        fn packed(blocks: &[BitVec]) -> BitVec {
            blocks
                .iter()
                .fold(BitVec::zeros(0), |acc, b| acc.concat(b))
                .concat(&BitVec::from_u64(0b101, 3))
        }

        fn check(sim: &mut PicogaSim, rng: &mut Rng, m: usize) {
            let op = sim.context(0).unwrap().clone();
            assert_eq!(
                sim.affine_probe().unwrap(),
                oracle_probe(sim),
                "{}",
                op.name()
            );
            assert_eq!(sim.compile_is_exact(0), Some(true));
            let n_in = op.network().n_inputs();
            // The tables themselves, on random `[x | u]`.
            let code = Arc::clone(&sim.contexts[0].as_ref().unwrap().code);
            let k = code.state.n_inputs();
            for _ in 0..8 {
                let x = rng.bits(n_in);
                let mut y = vec![0u64; code.out_words()];
                code.data.apply(x.slice(k, n_in - k).words(), &mut y);
                code.state.xor_product(x.words(), &mut y);
                let width = code.data.n_outputs();
                assert_eq!(
                    BitVec::from_words(y, width),
                    oracle(sim, &x).resized(width),
                    "{} tables",
                    op.name()
                );
            }
            let n = [0, 1, 63, 64, 65, 130][rng.below(6)];
            let blocks: Vec<BitVec> = (0..n).map(|_| rng.bits(m)).collect();
            let bits = packed(&blocks);
            match op.kind_name() {
                "linear" => {
                    let x = rng.bits(n_in);
                    let want = oracle(sim, &x);
                    assert_eq!(sim.run_linear(&x).unwrap(), want);
                    let word = sim.run_linear_word(x.word_at(0));
                    if n_in <= 64 {
                        assert_eq!(word.unwrap(), want.to_u64());
                    } else {
                        assert_eq!(word, Err(ONE_WORD));
                    }
                }
                "crc-update" => {
                    let fb = op.feedback().unwrap().clone();
                    let x0 = rng.bits(32);
                    let want = blocks
                        .iter()
                        .fold(x0.clone(), |x, b| fb.apply(&x, &oracle(sim, b)));
                    assert_eq!(sim.run_crc_stream(&x0, blocks.iter()).unwrap(), want);
                    assert_eq!(sim.run_crc_blocks(&x0, &bits, n).unwrap(), want);
                    let word = sim.run_crc_blocks_word(x0.to_u64(), &bits, n);
                    assert_eq!(word.unwrap(), want.to_u64());
                    let mut lanes: Vec<BitVec> = (0..3).map(|_| rng.bits(32)).collect();
                    let mut want = lanes.clone();
                    let items: Vec<(usize, &BitVec)> =
                        blocks.iter().map(|b| (rng.below(3), b)).collect();
                    for &(l, b) in &items {
                        want[l] = fb.apply(&want[l], &oracle(sim, b));
                    }
                    sim.run_crc_interleaved(&mut lanes, items).unwrap();
                    assert_eq!(lanes, want);
                }
                "crc-update-dense" => {
                    let s0 = rng.bits(16);
                    let want = blocks
                        .iter()
                        .fold(s0.clone(), |s, b| oracle(sim, &s.concat(b)));
                    assert_eq!(sim.run_crc_stream_dense(&s0, blocks.iter()).unwrap(), want);
                    assert_eq!(sim.run_crc_dense_blocks(&s0, &bits, n).unwrap(), want);
                    let word = sim.run_crc_dense_blocks_word(s0.to_u64(), &bits, n);
                    assert_eq!(word.unwrap(), want.to_u64());
                }
                _ => {
                    let fb = op.feedback().unwrap().clone();
                    let x0 = rng.bits(7);
                    let (mut out, mut x) = (BitVec::zeros(0), x0.clone());
                    for b in &blocks {
                        out = out.concat(&oracle(sim, &x.concat(b)));
                        x = fb.apply(&x, &BitVec::zeros(7));
                    }
                    let want = if n == 0 { (out, x0.clone()) } else { (out, x) };
                    assert_eq!(sim.run_scrambler_stream(&x0, blocks.iter()).unwrap(), want);
                    assert_eq!(sim.run_scrambler_blocks(&x0, &bits, n).unwrap(), want);
                }
            }
        }

        #[test]
        fn tables_match_the_row_evaluator_under_faults() {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
            let mut forward = 0;
            for m in [8, 32, 128] {
                for op in ops(&mut rng, m) {
                    for _ in 0..4 {
                        let mut sim = PicogaSim::new(roomy());
                        sim.load_context(0, op.clone()).unwrap();
                        sim.switch_to(0).unwrap();
                        check(&mut sim, &mut rng, m);
                        forward += corrupt(&mut sim, &op, &mut rng);
                        check(&mut sim, &mut rng, m);
                        sim.clear_stuck_cells();
                        check(&mut sim, &mut rng, m);
                    }
                }
            }
            assert!(
                forward > 10,
                "flips reading later-placed gates were exercised"
            );
        }

        /// `affine_probe` against the uncached oracle after every write
        /// in a random sequence: the configuration responses it caches
        /// must follow wire and tap flips on a shared configuration
        /// (the write copies it) and on a unique one (`Arc::make_mut`
        /// writes in place), and stuck cells added and cleared.
        #[test]
        fn probe_responses_follow_every_configuration_write() {
            let mut rng = Rng(0xC0FF_EE15_D00D);
            for m in [8, 32, 128] {
                for op in ops(&mut rng, m) {
                    let net = op.network();
                    for shared_at_first in [true, false] {
                        let mut sim = PicogaSim::new(roomy());
                        sim.load_context(0, op.clone()).unwrap();
                        sim.switch_to(0).unwrap();
                        if !shared_at_first {
                            // A write that changes nothing still copies.
                            let keep = net.gates()[0].inputs[0];
                            sim.inject(&wire_flip(0, 0, keep)).unwrap();
                        }
                        let mut shared = shared_at_first;
                        for step in 0..8 {
                            let what = format!("{} m{m} shared {shared} step {step}", op.name());
                            assert_eq!(sim.affine_probe().unwrap(), oracle_probe(&sim), "{what}");
                            let resident = sim.context(0).unwrap();
                            assert_eq!(resident.shares_config(&op), shared, "{what}");
                            let addr = resident.config_addr();
                            let fault = match rng.below(4) {
                                0 => {
                                    let gate = rng.below(net.gate_count());
                                    let pin = rng.below(net.gates()[gate].inputs.len());
                                    wire_flip(gate, pin, rng.below(net.n_inputs() + gate))
                                }
                                1 => ConfigFault::TapFlip {
                                    slot: 0,
                                    output: rng.below(net.outputs().len()),
                                    new_tap: Some(rng.below(net.n_signals())),
                                },
                                2 => {
                                    let row = rng.below(op.placement().row_count());
                                    ConfigFault::StuckCell {
                                        row,
                                        cell: rng.below(op.placement().rows()[row].len()),
                                        value: rng.below(2) == 0,
                                    }
                                }
                                _ => {
                                    sim.clear_stuck_cells();
                                    continue;
                                }
                            };
                            sim.inject(&fault).unwrap();
                            if !matches!(fault, ConfigFault::StuckCell { .. }) {
                                let moved = sim.context(0).unwrap().config_addr() != addr;
                                assert_eq!(moved, shared, "copied iff shared: {what}");
                                shared = false;
                            }
                        }
                        assert_eq!(sim.affine_probe().unwrap(), oracle_probe(&sim));
                    }
                }
            }
        }

        /// CRC updates over `m`-bit blocks, one per generator: CRC-5/USB's
        /// (k < L at M = 8), CRC-8's, CRC-16/CCITT's and CRC-32's, each
        /// with a random feed-forward network.
        fn crc_updates(rng: &mut Rng, m: usize) -> Vec<PgaOperation> {
            [(0x05, 5), (0x07, 8), (0x1021, 16), (0x04C1_1DB7, 32)]
                .into_iter()
                .map(|(poly, k)| {
                    let fb = BitMat::companion(&Gf2Poly::from_crc_notation(poly, k));
                    let net = synthesize(&rng.matrix(k, m), SynthOptions::default());
                    PgaOperation::crc_update(format!("crc{k}"), net, &fb, &roomy()).unwrap()
                })
                .collect()
        }

        /// Scramblers over `m`-bit blocks, one per state width of the
        /// catalogue: the 802.11 (k = 7), DVB (15), PRBS23 and PRBS31
        /// generators, each with a random output network over `[x | u]`.
        fn scramblers(rng: &mut Rng, m: usize) -> Vec<PgaOperation> {
            [0x91, 0xC001, 0x84_0001, 0x9000_0001]
                .into_iter()
                .map(|poly| {
                    let a = BitMat::companion(&Gf2Poly::from_u64(poly));
                    let k = a.rows();
                    let net = synthesize(&rng.matrix(m, k + m), SynthOptions::default());
                    PgaOperation::scrambler(format!("scr{k}"), net, &a, m, &roomy()).unwrap()
                })
                .collect()
        }

        /// Runs the first `n` packed blocks of `bits` through the CRC
        /// update or scrambler in slot 0 from the zero state, through the
        /// one-word entry point when `one_word`.
        fn run_packed(sim: &mut PicogaSim, bits: &BitVec, n: usize, one_word: bool) {
            let op = sim.context(0).unwrap();
            let x0 = BitVec::zeros(op.feedback().unwrap().k);
            match (op.is_crc_update(), one_word) {
                (true, true) => sim.run_crc_blocks_word(0, bits, n).map(drop),
                (true, false) => sim.run_crc_blocks(&x0, bits, n).map(drop),
                (false, true) => sim.run_scrambler_blocks_word(0, bits, n).map(drop),
                (false, false) => sim.run_scrambler_blocks(&x0, bits, n).map(drop),
            }
            .unwrap();
        }

        /// Streams packed blocks through the fresh compile in slot 0 up
        /// to its word table's build point: one block short of it there
        /// is no table, at it there is one. Returns whether the
        /// operation gets a table at all.
        fn drive_to_build_point(sim: &mut PicogaSim, rng: &mut Rng, m: usize) -> bool {
            let op = sim.context(0).unwrap();
            let (k, keyed) = (op.feedback().unwrap().k, !op.is_crc_update());
            assert!(!code(sim).has_word_table(), "a fresh compile has none");
            let Some(entries) = WordTable::entries(k, m, keyed) else {
                run_packed(sim, &rng.bits(4096 * m), 4096, false);
                assert!(!code(sim).has_word_table());
                return false;
            };
            let bits = rng.bits(entries * m);
            run_packed(sim, &bits, entries - 1, true);
            assert!(!code(sim).has_word_table(), "one block short");
            assert_eq!(sim.compile_is_exact(0), Some(true));
            run_packed(sim, &bits, 1, false);
            assert!(code(sim).has_word_table(), "built at the build point");
            assert_eq!(sim.compile_is_exact(0), Some(true));
            true
        }

        /// The packed, one-word and listed entry points of the CRC
        /// update or scrambler in slot 0 against the gate-at-a-time
        /// oracle on `n` random blocks, for every `n` around a word of
        /// `L` blocks, with the cycles each charges.
        fn check_word_path(sim: &mut PicogaSim, rng: &mut Rng, m: usize) {
            let op = sim.context(0).unwrap().clone();
            let fb = op.feedback().unwrap().clone();
            let l = (64 / m).max(1);
            for n in [0, 1, l - 1, l, l + 1, 130] {
                let what = format!("{} m{m} n{n}", op.name());
                let blocks: Vec<BitVec> = (0..n).map(|_| rng.bits(m)).collect();
                let bits = packed(&blocks);
                let x0 = rng.bits(fb.k);
                let cycles = if n == 0 {
                    0
                } else {
                    op.stats().latency + n as u64 - 1
                };
                sim.reset_counters();
                if op.is_crc_update() {
                    let want = blocks
                        .iter()
                        .fold(x0.clone(), |x, b| fb.apply(&x, &oracle(sim, b)));
                    assert_eq!(sim.run_crc_blocks(&x0, &bits, n).unwrap(), want, "{what}");
                    assert_eq!(sim.counters().compute, cycles, "{what}");
                    sim.reset_counters();
                    let word = sim.run_crc_blocks_word(x0.to_u64(), &bits, n).unwrap();
                    assert_eq!(word, want.to_u64(), "{what} one-word");
                    assert_eq!(sim.counters().compute, cycles, "{what} one-word");
                    let listed = sim.run_crc_stream(&x0, blocks.iter()).unwrap();
                    assert_eq!(listed, want, "{what} listed");
                } else {
                    let (mut out, mut x) = (BitVec::zeros(0), x0.clone());
                    for b in &blocks {
                        out = out.concat(&oracle(sim, &x.concat(b)));
                        x = fb.apply(&x, &BitVec::zeros(fb.k));
                    }
                    let want = (out, x);
                    let got = sim.run_scrambler_blocks(&x0, &bits, n).unwrap();
                    assert_eq!(got, want, "{what}");
                    assert_eq!(sim.counters().compute, cycles, "{what}");
                    sim.reset_counters();
                    let (out, s) = sim
                        .run_scrambler_blocks_word(x0.to_u64(), &bits, n)
                        .unwrap();
                    assert_eq!((&out, s), (&want.0, want.1.to_u64()), "{what} one-word");
                    assert_eq!(sim.counters().compute, cycles, "{what} one-word");
                    let listed = sim.run_scrambler_stream(&x0, blocks.iter()).unwrap();
                    assert_eq!(listed, want, "{what} listed");
                }
            }
        }

        /// Word tables against the gate-at-a-time evaluator, through the
        /// packed, one-word and listed entry points, at M ∈ {8, 16, 32}:
        /// CRC updates at k ∈ {5, 8, 16, 32} and scramblers at
        /// k ∈ {7, 15, 23, 31}, pristine, under random wire flips (some
        /// reading later-row gates), tap flips and stuck cells, and under
        /// an armed load corruption. M = 128 never gets a table.
        #[test]
        fn word_tables_match_the_row_evaluator_under_faults() {
            let mut rng = Rng(0x0057_0D0C_A5E5);
            let mut forward = 0;
            for m in [8, 16, 32, 128] {
                let mut ops = crc_updates(&mut rng, m);
                ops.extend(scramblers(&mut rng, m));
                for op in ops {
                    for round in 0..3 {
                        let mut sim = PicogaSim::new(roomy());
                        if round == 2 {
                            let (gate, new_signal, _) = semantic_wire_flip(&op);
                            sim.arm_load_corruption(LoadCorruption {
                                load_index: 0,
                                fault: LoadFault::WireFlip {
                                    gate,
                                    pin: 0,
                                    new_signal,
                                },
                            });
                        }
                        sim.load_context(0, op.clone()).unwrap();
                        sim.switch_to(0).unwrap();
                        if round == 1 {
                            forward += corrupt(&mut sim, &op, &mut rng);
                        }
                        let built = drive_to_build_point(&mut sim, &mut rng, m);
                        assert_eq!(built, m < 64, "{} m{m}", op.name());
                        if built {
                            let fb = op.feedback().unwrap();
                            let code = code(&sim);
                            let table = code.word_table(fb, 0).unwrap();
                            let top = (64 / m).min(fb.k).div_ceil(8);
                            let key = if op.is_crc_update() {
                                0
                            } else {
                                fb.k.div_ceil(8)
                            };
                            assert_eq!(table.heap_bytes(), 2048 * (8 + key + top));
                        }
                        check_word_path(&mut sim, &mut rng, m);
                    }
                }
            }
            assert!(
                forward > 10,
                "flips reading later-placed gates were exercised"
            );
        }

        /// A word table lives and dies with its compile. A stuck cell
        /// under the placement, `clear_stuck_cells` and a wire flip
        /// (which copies the configuration) each leave the resident
        /// compile without one; the next is built at the build point
        /// again and matches the oracle. Evicting the context and
        /// reloading an operation that shares its configuration keeps
        /// the compile, table included.
        #[test]
        fn word_tables_follow_every_recompile() {
            let mut rng = Rng(0x5EED_0016);
            for m in [8, 16, 32] {
                let other = ops(&mut rng, m).swap_remove(0);
                let crc = crc_updates(&mut rng, m).swap_remove(3);
                for op in [crc, scramblers(&mut rng, m).swap_remove(0)] {
                    let mut sim = PicogaSim::new(roomy());
                    sim.load_context(0, op.clone()).unwrap();
                    sim.switch_to(0).unwrap();
                    let stuck = ConfigFault::StuckCell {
                        row: 0,
                        cell: 0,
                        value: true,
                    };
                    let (gate, new_signal, _) = semantic_wire_flip(&op);
                    let reload = |sim: &mut PicogaSim| {
                        sim.load_context(0, other.clone()).unwrap();
                        sim.load_context(0, op.clone()).unwrap();
                        sim.switch_to(0).unwrap();
                    };
                    // Each step, and whether the resident table survives it.
                    type Step<'a> = (&'a dyn Fn(&mut PicogaSim), bool);
                    let steps: [Step; 5] = [
                        (&|sim| sim.inject(&stuck).unwrap(), false),
                        (&|sim| sim.clear_stuck_cells(), false),
                        (&reload, true),
                        (
                            &|sim| sim.inject(&wire_flip(gate, 0, new_signal)).unwrap(),
                            false,
                        ),
                        (&|sim| sim.inject(&stuck).unwrap(), false),
                    ];
                    for (step, kept) in steps {
                        let before = code(&sim);
                        step(&mut sim);
                        assert_eq!(sim.compile_is_exact(0), Some(true));
                        if kept {
                            assert!(Arc::ptr_eq(&code(&sim), &before), "{}", op.name());
                            assert!(code(&sim).has_word_table(), "{} kept", op.name());
                        } else {
                            assert!(drive_to_build_point(&mut sim, &mut rng, m));
                        }
                        check_word_path(&mut sim, &mut rng, m);
                    }
                }
            }
        }

        /// An interleaved batch whose j-th item is malformed has run the
        /// j items before it, and charged them.
        #[test]
        fn a_malformed_interleaved_item_charges_the_blocks_before_it() {
            let mut rng = Rng(0x0BAD_17E5);
            let op = ops(&mut rng, 8).swap_remove(1);
            let (fb, latency) = (op.feedback().unwrap().clone(), op.stats().latency);
            let mut sim = PicogaSim::new(roomy());
            sim.load_context(0, op).unwrap();
            sim.switch_to(0).unwrap();
            let blocks: Vec<BitVec> = (0..6).map(|_| rng.bits(8)).collect();
            let short = rng.bits(7);
            for j in 0..blocks.len() {
                for bad_lane in [false, true] {
                    let mut items: Vec<(usize, &BitVec)> =
                        blocks.iter().enumerate().map(|(i, b)| (i % 3, b)).collect();
                    items[j] = if bad_lane {
                        (3, &blocks[j])
                    } else {
                        (j % 3, &short)
                    };
                    let mut lanes: Vec<BitVec> = (0..3).map(|_| rng.bits(32)).collect();
                    let mut want = lanes.clone();
                    for &(l, b) in &items[..j] {
                        want[l] = fb.apply(&want[l], &oracle(&sim, b));
                    }
                    sim.reset_counters();
                    let err = sim.run_crc_interleaved(&mut lanes, items).unwrap_err();
                    let expected = if bad_lane {
                        SimError::BadSlot {
                            slot: 3,
                            contexts: 3,
                        }
                    } else {
                        SimError::InputWidthMismatch {
                            got: 7,
                            expected: 8,
                        }
                    };
                    assert_eq!(err, expected);
                    assert_eq!(lanes, want, "item {j}");
                    let cycles = if j == 0 { 0 } else { latency + j as u64 - 1 };
                    assert_eq!(sim.counters().compute, cycles, "item {j}");
                }
            }
        }

        /// Every CRC and scrambler stream entry point refuses a start
        /// state that is not k bits wide, and charges nothing for it.
        #[test]
        fn start_states_of_the_wrong_width_are_refused() {
            let mut rng = Rng(0x0057_A7E5);
            let ops = ops(&mut rng, 8);
            for op in [&ops[1], &ops[3]] {
                let k = op.feedback().unwrap().k;
                let mut sim = PicogaSim::new(roomy());
                sim.load_context(0, op.clone()).unwrap();
                sim.switch_to(0).unwrap();
                sim.reset_counters();
                let blocks: Vec<BitVec> = (0..4).map(|_| rng.bits(8)).collect();
                let bits = packed(&blocks);
                for len in [k / 2, k - 1, k + 1] {
                    let x = rng.bits(len);
                    let want = SimError::InputWidthMismatch {
                        got: len,
                        expected: k,
                    };
                    let errs = if op.is_crc_update() {
                        [
                            sim.run_crc_stream(&x, blocks.iter()).unwrap_err(),
                            sim.run_crc_blocks(&x, &bits, 4).unwrap_err(),
                        ]
                    } else {
                        [
                            sim.run_scrambler_stream(&x, blocks.iter()).unwrap_err(),
                            sim.run_scrambler_blocks(&x, &bits, 4).unwrap_err(),
                        ]
                    };
                    assert_eq!(errs, [want.clone(), want], "{} {len} bits", op.name());
                }
                assert_eq!(sim.counters().compute, 0);
            }
        }

        fn wire_flip(gate: usize, pin: usize, new_signal: usize) -> ConfigFault {
            ConfigFault::WireFlip {
                slot: 0,
                gate,
                pin,
                new_signal,
            }
        }

        #[test]
        fn cycle_charges_follow_the_fabric_model() {
            let mut rng = Rng(77);
            let op = ops(&mut rng, 32).swap_remove(1);
            let latency = op.stats().latency;
            let mut sim = PicogaSim::new(roomy());
            sim.load_context(0, op).unwrap();
            sim.switch_to(0).unwrap();
            sim.reset_counters();
            let bits = rng.bits(32 * 100);
            sim.run_crc_blocks(&BitVec::zeros(32), &bits, 100).unwrap();
            assert_eq!(sim.counters().compute, latency + 99);
            assert!(matches!(
                sim.run_crc_blocks(&BitVec::zeros(32), &bits, 101),
                Err(SimError::InputWidthMismatch { .. })
            ));
            assert_eq!(
                sim.counters().compute,
                latency + 99,
                "refused runs are free"
            );
        }

        /// The compiled form resident in slot 0.
        fn code(sim: &PicogaSim) -> Arc<Compiled> {
            Arc::clone(&sim.contexts[0].as_ref().unwrap().code)
        }

        /// Every load charges and records a load, whatever the host
        /// reuses.
        fn assert_loads_charged(sim: &PicogaSim) {
            let loads = sim.loads_seen();
            assert_eq!(
                sim.counters().context_load,
                loads * sim.params().context_load_cycles
            );
            let events = sim
                .obs()
                .tracer
                .events()
                .filter(|e| matches!(e.kind, EventKind::ContextLoad { .. }))
                .count();
            assert_eq!(events as u64, loads);
        }

        #[test]
        fn reload_of_a_pristine_op_reuses_its_compile() {
            let mut rng = Rng(5);
            let ops = ops(&mut rng, 32);
            let (op, other) = (ops[1].clone(), ops[0].clone());
            let mut sim = PicogaSim::new(roomy());
            sim.load_context(0, op.clone()).unwrap();
            let first = code(&sim);
            assert!(op.shares_compile(&first), "a load compiles once");
            assert_eq!(sim.compile_is_exact(0), Some(true));
            // Corrupt the resident copy: it gets its own compile, and the
            // registered op keeps the pristine one.
            let (gate, new_signal, _) = semantic_wire_flip(&op);
            sim.inject(&ConfigFault::WireFlip {
                slot: 0,
                gate,
                pin: 0,
                new_signal,
            })
            .unwrap();
            assert!(!op.shares_compile(&code(&sim)));
            assert!(op.shares_compile(&first));
            assert_ne!(*code(&sim), *first);
            assert_eq!(sim.compile_is_exact(0), Some(true));
            // Evict by loading another op, then reload the pristine one.
            sim.load_context(0, other).unwrap();
            assert_eq!(sim.compile_is_exact(0), Some(true));
            sim.load_context(0, op.clone()).unwrap();
            assert!(Arc::ptr_eq(&code(&sim), &first), "reload compiles nothing");
            assert_eq!(sim.compile_is_exact(0), Some(true));
            assert_eq!(sim.loads_seen(), 3);
            assert_loads_charged(&sim);
        }

        #[test]
        fn an_armed_load_corruption_compiles_fresh() {
            let mut rng = Rng(6);
            let op = ops(&mut rng, 8).swap_remove(1);
            let (gate, new_signal, _) = semantic_wire_flip(&op);
            let mut sim = PicogaSim::new(roomy());
            sim.arm_load_corruption(LoadCorruption {
                load_index: 1,
                fault: LoadFault::WireFlip {
                    gate,
                    pin: 0,
                    new_signal,
                },
            });
            // A corruption that misses the op still bypasses the cache.
            sim.arm_load_corruption(LoadCorruption {
                load_index: 2,
                fault: LoadFault::TapFlip {
                    output: 999,
                    new_tap: None,
                },
            });
            sim.load_context(0, op.clone()).unwrap();
            let pristine = code(&sim);
            assert!(op.shares_compile(&pristine));
            sim.load_context(0, op.clone()).unwrap();
            assert!(!Arc::ptr_eq(&code(&sim), &pristine));
            assert_ne!(*code(&sim), *pristine, "the hit load computes another map");
            assert_eq!(sim.compile_is_exact(0), Some(true));
            sim.load_context(0, op.clone()).unwrap();
            assert!(!Arc::ptr_eq(&code(&sim), &pristine));
            assert_eq!(
                *code(&sim),
                *pristine,
                "a missed corruption changes nothing"
            );
            sim.load_context(0, op.clone()).unwrap();
            assert!(Arc::ptr_eq(&code(&sim), &pristine), "load 3 is clean");
            assert_loads_charged(&sim);
        }

        #[test]
        fn stuck_cells_under_the_placement_compile_fresh() {
            let mut rng = Rng(7);
            let op = ops(&mut rng, 128).swap_remove(2);
            let pl = op.placement().clone();
            let mut sim = PicogaSim::new(roomy());
            sim.load_context(0, op.clone()).unwrap();
            let pristine = code(&sim);
            // A cell past the placement's rows, and one past a row's end.
            let short = (0..pl.row_count())
                .find(|&r| pl.rows()[r].len() < roomy().cells_per_row)
                .expect("a row with a free cell");
            for (row, cell) in [(pl.row_count(), 0), (short, pl.rows()[short].len())] {
                sim.inject(&ConfigFault::StuckCell {
                    row,
                    cell,
                    value: true,
                })
                .unwrap();
                assert!(Arc::ptr_eq(&code(&sim), &pristine), "({row},{cell})");
                assert_eq!(sim.compile_is_exact(0), Some(true));
                sim.load_context(0, op.clone()).unwrap();
                assert!(Arc::ptr_eq(&code(&sim), &pristine));
                sim.clear_stuck_cells();
                assert!(Arc::ptr_eq(&code(&sim), &pristine));
            }
            // A cell under the placement.
            sim.inject(&ConfigFault::StuckCell {
                row: 0,
                cell: 0,
                value: true,
            })
            .unwrap();
            assert!(!Arc::ptr_eq(&code(&sim), &pristine));
            assert_ne!(*code(&sim), *pristine);
            assert_eq!(sim.compile_is_exact(0), Some(true));
            sim.load_context(0, op.clone()).unwrap();
            assert!(
                !Arc::ptr_eq(&code(&sim), &pristine),
                "reload cannot fix silicon"
            );
            assert_eq!(sim.compile_is_exact(0), Some(true));
            sim.clear_stuck_cells();
            assert!(Arc::ptr_eq(&code(&sim), &pristine));
            assert_eq!(sim.compile_is_exact(0), Some(true));
            assert_loads_charged(&sim);
        }

        #[test]
        fn compiles_die_with_their_operation() {
            let mut rng = Rng(8);
            let mut ops = ops(&mut rng, 32);
            let (op, other) = (ops.swap_remove(3), ops.swap_remove(0));
            let mut sim = PicogaSim::new(roomy());
            sim.load_context(0, op.clone()).unwrap();
            let weak = Arc::downgrade(&code(&sim));
            drop(op);
            assert!(weak.upgrade().is_some(), "the resident copy holds it");
            sim.load_context(0, other).unwrap();
            assert!(weak.upgrade().is_none(), "nothing is left behind");
        }
    }

    fn lfsr_fibonacci(s: &Gf2Poly) -> BitMat {
        let k = s.degree().unwrap();
        let mut a = BitMat::zeros(k, k);
        for i in 0..k - 1 {
            a.set(i, i + 1, true);
        }
        for i in 0..k {
            if s.coeff(i) {
                a.set(k - 1, i, true);
            }
        }
        a
    }
}
