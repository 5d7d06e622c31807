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
use crate::fault::{ConfigFault, InjectError, LoadCorruption, LoadFault};
use crate::op::{OpStats, PgaOperation};
use crate::tape::{gather, scatter, Tape};
use gf2::BitVec;
use obs::{EventKind, ObsHub};
use std::fmt;
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
    /// Words the tapes evaluate into, reused across calls.
    lanes: Lanes,
}

/// One resident context: the configuration as stored, and the tape the
/// host runs for it (recompiled whenever the configuration or the
/// stuck-cell set changes).
#[derive(Debug, Clone)]
struct Context {
    op: PgaOperation,
    tape: Tape,
}

/// Reusable buffers of the tape evaluation: one word per signal, and the
/// per-block words a chunk's outputs or states are unpacked into.
#[derive(Debug, Clone, Default)]
struct Lanes {
    values: Vec<u64>,
    rows: Vec<u64>,
}

/// Most blocks one tape pass evaluates: one per bit of a word.
const CHUNK: usize = 64;

/// The first `k` bits of `v` as `k.div_ceil(64)` LSB-first words.
fn state_words(v: &BitVec, k: usize) -> Vec<u64> {
    v.resized(k).words().to_vec()
}

/// Collects `blocks` up to the first one whose width is not `width`,
/// which is returned as the error that ends the stream there.
fn valid_prefix<'a>(
    blocks: impl IntoIterator<Item = &'a BitVec>,
    width: usize,
) -> (Vec<&'a BitVec>, Option<SimError>) {
    let mut ok = Vec::new();
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

/// Feeds `n` blocks through a feed-forward tape 64 at a time: `row(b, g)`
/// returns word `g` of block `b`'s input, and `sink(b, p)` receives block
/// `b`'s first `width` outputs as words, in block order.
fn feed_forward(
    tape: &Tape,
    lanes: &mut Lanes,
    n: usize,
    width: usize,
    row: impl Fn(usize, usize) -> u64,
    mut sink: impl FnMut(usize, &[u64]),
) {
    let ww = width.div_ceil(64);
    tape.prepare(&mut lanes.values);
    lanes.rows.resize(CHUNK * ww, 0);
    for c0 in (0..n).step_by(CHUNK) {
        let cn = (n - c0).min(CHUNK);
        gather(&mut lanes.values[..tape.n_inputs()], cn, |j, g| {
            row(c0 + j, g)
        });
        tape.run(&mut lanes.values);
        let (values, rows) = (&lanes.values, &mut lanes.rows);
        scatter(
            width,
            cn,
            |i| tape.output(values, i),
            |j, g, w| {
                rows[j * ww + g] = w;
            },
        );
        for j in 0..cn {
            sink(c0 + j, &lanes.rows[j * ww..(j + 1) * ww]);
        }
    }
}

/// Evaluates the gates of `net` row by row following `placement`, from a
/// zeroed value buffer, one input vector at a time — the evaluator the
/// simulator ran before it compiled tapes, kept as the oracle they are
/// tested against. Row order is *not* immaterial: the placement is
/// topological only while the configuration is pristine, and a wire flip
/// that reads a gate placed in a later row reads it as 0 here, as on the
/// fabric. Physical stuck-at cell faults (`stuck`: gate index → forced
/// value, resolved from physical coordinates by [`stuck_gates`]) land on
/// the right gate.
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
            lanes: Lanes::default(),
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
        let mut i = 0;
        while i < self.pending_load_faults.len() {
            if self.pending_load_faults[i].load_index == idx {
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
        let tape = Tape::compile(op.network(), op.placement(), &self.stuck);
        self.contexts[slot] = Some(Context { op, tape });
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
    /// recompiles its tape.
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
        ctx.tape = Tape::compile(ctx.op.network(), ctx.op.placement(), &self.stuck);
        Ok(())
    }

    /// Recompiles every resident tape after the stuck-cell set changed.
    fn recompile_all(&mut self) {
        for ctx in self.contexts.iter_mut().flatten() {
            ctx.tape = Tape::compile(ctx.op.network(), ctx.op.placement(), &self.stuck);
        }
    }

    /// Arms a corruption against a future context load (see
    /// [`LoadCorruption`]). Several corruptions may target the same load.
    pub fn arm_load_corruption(&mut self, corruption: LoadCorruption) {
        self.pending_load_faults.push(corruption);
    }

    /// Applies a whole [`FaultPlan`]: injects every configuration fault
    /// and arms every load corruption. Stops at the first invalid
    /// coordinate (faults before it stay applied).
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

    /// The active context and the reusable lanes, borrowed together.
    fn active_parts(&mut self) -> Result<(&Context, &mut Lanes), SimError> {
        let slot = self.active.ok_or(SimError::NoActiveContext)?;
        let ctx = self.contexts[slot]
            .as_ref()
            .ok_or(SimError::EmptySlot { slot })?;
        Ok((ctx, &mut self.lanes))
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
        let (ctx, lanes) = self.active_parts()?;
        if !ctx.op.is_linear() {
            return Err(SimError::WrongOpShape { expected: "linear" });
        }
        let n_in = ctx.tape.n_inputs();
        if inputs.len() != n_in {
            return Err(SimError::InputWidthMismatch {
                got: inputs.len(),
                expected: n_in,
            });
        }
        let width = ctx.tape.n_outputs();
        let mut out = vec![0u64; width.div_ceil(64)];
        feed_forward(
            &ctx.tape,
            lanes,
            1,
            width,
            |_, g| inputs.words()[g],
            |_, p| out.copy_from_slice(p),
        );
        let stats = ctx.op.stats();
        let latency = stats.latency.max(1);
        self.obs.registry.add(self.obs.cycles.compute, latency);
        self.obs.profiler.record_stream(stats.rows, latency, 1);
        Ok(BitVec::from_words(out, width))
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
    /// The `n + 1` vectors run 64 to a tape pass, and the configured
    /// matrix's columns come from the configuration's own gate-order
    /// evaluation of the same lanes.
    ///
    /// Charges one latency per evaluation: self-checking is not free.
    ///
    /// Returns `true` when the datapath matches the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveContext`] / [`SimError::EmptySlot`].
    pub fn affine_probe(&mut self) -> Result<bool, SimError> {
        let (ctx, lanes) = self.active_parts()?;
        let (net, tape) = (ctx.op.network(), &ctx.tape);
        let stats = ctx.op.stats();
        let n = net.n_inputs();
        // Lane j of the pass starting at `lo` drives vector lo + j:
        // vector 0 is the zero vector, vector i + 1 the basis vector e_i.
        let mut inputs = vec![0u64; n];
        let mut expected = Vec::new();
        tape.prepare(&mut lanes.values);
        let mut ok = true;
        for lo in (0..=n).step_by(CHUNK) {
            for (i, w) in inputs.iter_mut().enumerate() {
                *w = if (lo..lo + CHUNK).contains(&(i + 1)) {
                    1 << (i + 1 - lo)
                } else {
                    0
                };
            }
            net.evaluate_lanes(&inputs, &mut expected);
            lanes.values[..n].copy_from_slice(&inputs);
            tape.run(&mut lanes.values);
            ok = (0..net.outputs().len())
                .all(|o| tape.output(&lanes.values, o) == net.output_lanes(&expected, o));
            if !ok {
                break;
            }
        }
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
        let (blocks, err) = valid_prefix(blocks, width);
        if let Some(e) = err {
            return Err(e);
        }
        self.crc_stream(x_t, blocks.len(), |b, g| blocks[b].words()[g])
    }

    /// [`PicogaSim::run_crc_stream`] over the first `n` M-bit blocks of
    /// a packed bit stream (block `b` is bits `[b·M, (b+1)·M)` of
    /// `bits`), read a word at a time.
    ///
    /// # Errors
    ///
    /// Shape mismatches per [`SimError`];
    /// [`SimError::InputWidthMismatch`] when `bits` is shorter than
    /// `n` blocks.
    pub fn run_crc_blocks(
        &mut self,
        x_t: &BitVec,
        bits: &BitVec,
        n: usize,
    ) -> Result<BitVec, SimError> {
        let m = self.crc_update_width()?;
        check_packed(bits, n, m)?;
        self.crc_stream(x_t, n, |b, g| bits.word_at(b * m + 64 * g))
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

    /// The feed-forward wavefront of every block 64 at a time, then the
    /// single feedback row block by block.
    fn crc_stream(
        &mut self,
        x_t: &BitVec,
        n: usize,
        row: impl Fn(usize, usize) -> u64,
    ) -> Result<BitVec, SimError> {
        if n == 0 {
            return Ok(x_t.clone());
        }
        let (ctx, lanes) = self.active_parts()?;
        let fb = ctx.op.feedback().expect("crc update has feedback");
        let mut state = state_words(x_t, fb.k);
        feed_forward(&ctx.tape, lanes, n, fb.k, row, |_, p| {
            fb.step_words(&mut state, p);
        });
        let (k, stats) = (fb.k, ctx.op.stats());
        self.charge_stream(stats, n as u64);
        Ok(BitVec::from_words(state, k))
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
        let st = self.crc_dense(state, blocks.len(), |b, g| blocks[b].words()[g]);
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
        let st = self.crc_dense(state, n, |b, g| bits.word_at(b * m + 64 * g));
        self.record_dense(n);
        Ok(st)
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

    /// The dense loop, one block per tape pass (the next block's input
    /// is this block's output), charging the full latency per block.
    fn crc_dense(&mut self, state: &BitVec, n: usize, row: impl Fn(usize, usize) -> u64) -> BitVec {
        let (ctx, lanes) = self.active_parts().expect("shape checked");
        let k = ctx.op.dense_update_k().expect("shape checked");
        let tape = &ctx.tape;
        let mut st = state.clone();
        tape.prepare(&mut lanes.values);
        for b in 0..n {
            let (head, tail) = lanes.values[..tape.n_inputs()].split_at_mut(k);
            gather(head, 1, |_, g| st.word_at(64 * g));
            gather(tail, 1, |_, g| row(b, g));
            tape.run(&mut lanes.values);
            let width = tape.n_outputs();
            let mut words = vec![0u64; width.div_ceil(64)];
            let values = &lanes.values;
            scatter(width, 1, |i| tape.output(values, i), |_, g, w| words[g] = w);
            st = BitVec::from_words(words, width);
        }
        let latency = ctx.op.stats().latency.max(1);
        self.obs
            .registry
            .add(self.obs.cycles.compute, latency * n as u64);
        st
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
        // Items before a malformed one have updated their lanes when the
        // error surfaces.
        let (ctx, lanes) = self.active_parts()?;
        let fb = ctx.op.feedback().expect("crc update has feedback");
        let mut words: Vec<Option<Vec<u64>>> = vec![None; states.len()];
        feed_forward(
            &ctx.tape,
            lanes,
            valid.len(),
            fb.k,
            |b, g| valid[b].1.words()[g],
            |b, p| {
                let lane = valid[b].0;
                let st = words[lane].get_or_insert_with(|| state_words(&states[lane], fb.k));
                fb.step_words(st, p);
            },
        );
        let (k, stats) = (fb.k, ctx.op.stats());
        for (state, w) in states.iter_mut().zip(words) {
            if let Some(w) = w {
                *state = BitVec::from_words(w, k);
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        self.charge_stream(stats, valid.len() as u64);
        Ok(())
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
        let (blocks, err) = valid_prefix(blocks, m);
        if let Some(e) = err {
            return Err(e);
        }
        Ok(self.scrambler_stream(x_t, blocks.len(), |b, g| blocks[b].words()[g]))
    }

    /// [`PicogaSim::run_scrambler_stream`] over the first `n` M-bit
    /// blocks of a packed bit stream.
    ///
    /// # Errors
    ///
    /// Shape mismatches per [`SimError`];
    /// [`SimError::InputWidthMismatch`] when `bits` is shorter than
    /// `n` blocks.
    pub fn run_scrambler_blocks(
        &mut self,
        x_t: &BitVec,
        bits: &BitVec,
        n: usize,
    ) -> Result<(BitVec, BitVec), SimError> {
        let m = self.scrambler_width()?;
        check_packed(bits, n, m)?;
        Ok(self.scrambler_stream(x_t, n, |b, g| bits.word_at(b * m + 64 * g)))
    }

    /// The block width M of the active scrambler operation.
    fn scrambler_width(&self) -> Result<usize, SimError> {
        self.active_op()?
            .scrambler_m()
            .ok_or(SimError::WrongOpShape {
                expected: "scrambler",
            })
    }

    /// Steps the autonomous state sequence of a chunk first (no data
    /// enters the loop), then evaluates the chunk's output network over
    /// `[x_t | u]` 64 blocks at a time, writing each block's output
    /// straight into the result.
    fn scrambler_stream(
        &mut self,
        x_t: &BitVec,
        n: usize,
        row: impl Fn(usize, usize) -> u64,
    ) -> (BitVec, BitVec) {
        if n == 0 {
            return (BitVec::zeros(0), x_t.clone());
        }
        let (ctx, lanes) = self.active_parts().expect("shape checked");
        let fb = ctx.op.feedback().expect("scrambler has feedback");
        let tape = &ctx.tape;
        let (k, width) = (fb.k, tape.n_outputs());
        let kw = k.div_ceil(64);
        let mut state = state_words(x_t, k);
        let zero = vec![0u64; kw];
        let mut out = BitVec::zeros(n * width);
        tape.prepare(&mut lanes.values);
        lanes.rows.resize(CHUNK * kw, 0);
        for c0 in (0..n).step_by(CHUNK) {
            let cn = (n - c0).min(CHUNK);
            for j in 0..cn {
                lanes.rows[j * kw..(j + 1) * kw].copy_from_slice(&state);
                fb.step_words(&mut state, &zero);
            }
            let (head, tail) = lanes.values[..tape.n_inputs()].split_at_mut(k);
            let states = &lanes.rows;
            gather(head, cn, |j, g| states[j * kw + g]);
            gather(tail, cn, |j, g| row(c0 + j, g));
            tape.run(&mut lanes.values);
            let values = &lanes.values;
            scatter(
                width,
                cn,
                |i| tape.output(values, i),
                |j, g, w| {
                    out.xor_word_at((c0 + j) * width + 64 * g, w);
                },
            );
        }
        let stats = ctx.op.stats();
        self.charge_stream(stats, n as u64);
        (out, BitVec::from_words(state, k))
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
            let n_in = op.network().n_inputs();
            let n = [0, 1, 63, 64, 65, 130][rng.below(6)];
            let blocks: Vec<BitVec> = (0..n).map(|_| rng.bits(m)).collect();
            let bits = packed(&blocks);
            match op.kind_name() {
                "linear" => {
                    let x = rng.bits(n_in);
                    assert_eq!(sim.run_linear(&x).unwrap(), oracle(sim, &x));
                }
                "crc-update" => {
                    let fb = op.feedback().unwrap().clone();
                    let x0 = rng.bits(32);
                    let want = blocks
                        .iter()
                        .fold(x0.clone(), |x, b| fb.apply(&x, &oracle(sim, b)));
                    assert_eq!(sim.run_crc_stream(&x0, blocks.iter()).unwrap(), want);
                    assert_eq!(sim.run_crc_blocks(&x0, &bits, n).unwrap(), want);
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
        fn tapes_match_the_row_evaluator_under_faults() {
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
