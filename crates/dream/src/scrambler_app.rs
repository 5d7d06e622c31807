//! The paper's second application: the IEEE 802.11(e) scrambler on DREAM
//! (§5, Fig. 8), "working with up to 128 bit in parallel, thus reaching
//! the max output bandwidth achievable".
//!
//! Unlike the CRC, "the implementation requires a single operation on
//! PiCoGA": the LFSR is autonomous, so the Derby-transformed state row
//! updates by itself while a feed-forward network produces all M output
//! bits (`y = C_stack·T·x_t ⊕ u`) off the registered state.

use crate::crc_app::BuildError;
use crate::perf::{ControlModel, RunReport};
use gf2::{BitMat, BitVec};
use lfsr::scramble::ScramblerSpec;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyTransform};
use picoga::{CycleCounters, OpStats, PgaOperation, PicogaParams, PicogaSim, SimError};
use xornet::{synthesize, SynthOptions};

/// Context slot used by the scrambler (it needs only one).
const SCRAMBLER_SLOT: usize = 0;

/// A ready-to-run additive-scrambler accelerator on the DREAM model.
#[derive(Debug, Clone)]
pub struct DreamScramblerApp {
    spec: ScramblerSpec,
    derby: DerbyTransform,
    lane: ScramblerLane,
    sim: PicogaSim,
    control: ControlModel,
    stats: OpStats,
}

/// The host half of a scrambler lane, which [`DreamScramblerApp`] and
/// each scrambler personality of [`crate::DreamSystem`] keep: the block
/// size M, the state maps packed one word per column (a scrambler's
/// state has at most 63 bits), and the serial engine that scrambles
/// tails of fewer than M bits.
#[derive(Debug, Clone)]
pub(crate) struct ScramblerLane {
    m: usize,
    /// State bits, k.
    k: usize,
    /// `T⁻¹`'s columns: a plain seed into the transformed domain.
    to_fabric: Vec<u64>,
    /// `T`'s columns: a transformed state back to the plain domain.
    to_plain: Vec<u64>,
    serial: StateSpaceLfsr,
}

impl ScramblerLane {
    /// The lane at block size `m` under transform `derby`, with the
    /// scrambler's serial engine `serial`.
    pub(crate) fn new(m: usize, derby: &DerbyTransform, serial: StateSpaceLfsr) -> Self {
        let columns = |t: &BitMat| (0..t.cols()).map(|j| t.column(j).to_u64()).collect();
        ScramblerLane {
            m,
            k: derby.dim(),
            to_fabric: columns(derby.t_inv()),
            to_plain: columns(derby.t()),
            serial,
        }
    }

    /// The block size M.
    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// Plain seed `seed` in the transformed domain, `T⁻¹·seed`.
    pub(crate) fn transform_seed(&self, seed: u64) -> u64 {
        apply_columns(&self.to_fabric, seed)
    }

    /// Scrambles `residual` on the serial engine from transformed state
    /// `x_t`, anti-transformed first.
    pub(crate) fn tail(&mut self, x_t: u64, residual: &BitVec) -> BitVec {
        let plain = apply_columns(&self.to_plain, x_t);
        self.serial.set_state(BitVec::from_u64(plain, self.k));
        self.serial.transduce(residual)
    }

    /// Scrambles one frame from plain seed `seed` on `sim`, whose active
    /// context is this lane's scrambler: the seed into the transformed
    /// domain, the whole M-bit blocks on the fabric, and a tail of fewer
    /// than M bits on the serial engine. Only the returned frame is
    /// allocated when there is no tail. The report's fabric cycles count
    /// from `start`, the counters before the caller made the context
    /// active.
    ///
    /// # Errors
    ///
    /// Fabric errors.
    pub(crate) fn scramble(
        &mut self,
        sim: &mut PicogaSim,
        control: &ControlModel,
        seed: u64,
        data: &BitVec,
        start: CycleCounters,
    ) -> Result<(BitVec, RunReport), SimError> {
        let mut report = RunReport {
            bits: data.len() as u64,
            control_cycles: control.msg_setup_cycles + control.msg_finalize_cycles,
            ..Default::default()
        };
        let full = data.len() / self.m;
        let x_t0 = self.transform_seed(seed);
        let (mut out, x_t) = sim.run_scrambler_blocks_word(x_t0, data, full)?;
        let tail_len = data.len() - full * self.m;
        if tail_len > 0 {
            report.tail_cycles += (tail_len as u64).div_ceil(8) * control.tail_cycles_per_byte;
            out = out.concat(&self.tail(x_t, &data.slice(full * self.m, tail_len)));
        }
        let end = sim.counters();
        report.picoga = CycleCounters {
            compute: end.compute - start.compute,
            context_switch: end.context_switch - start.context_switch,
            context_load: end.context_load - start.context_load,
        };
        Ok((out, report))
    }
}

/// The product of the matrix with these columns (one word each) and `x`.
fn apply_columns(columns: &[u64], mut x: u64) -> u64 {
    let mut y = 0;
    while x != 0 {
        y ^= columns[x.trailing_zeros() as usize];
        x &= x - 1;
    }
    y
}

impl DreamScramblerApp {
    /// Builds, maps and loads the scrambler operation.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when the math or the mapping fails.
    pub fn build(
        spec: &ScramblerSpec,
        m: usize,
        params: &PicogaParams,
        synth: SynthOptions,
        control: ControlModel,
    ) -> Result<Self, BuildError> {
        let serial = StateSpaceLfsr::additive_scrambler(&spec.polynomial())?;
        let block = BlockSystem::new(&serial, m)?;
        let derby = DerbyTransform::new(&block)?;
        let lane = ScramblerLane::new(m, &derby, serial);

        // Output network over [x_t | u]: rows = [C_stack·T | D_stack].
        let net_matrix = derby.output_matrix(&block);
        let net = synthesize(&net_matrix, synth);
        let op = PgaOperation::scrambler("scrambler", net, derby.a_mt(), m, params).map_err(
            |source| BuildError::Map {
                op: "scrambler",
                source,
            },
        )?;

        let stats = op.stats();
        let mut sim = PicogaSim::new(*params);
        sim.load_context(SCRAMBLER_SLOT, op)
            .map_err(|source| BuildError::Fabric {
                op: "scrambler",
                source,
            })?;
        sim.reset_counters();

        Ok(DreamScramblerApp {
            spec: *spec,
            derby,
            lane,
            sim,
            control,
            stats,
        })
    }

    /// The scrambler spec in use.
    pub fn spec(&self) -> &ScramblerSpec {
        &self.spec
    }

    /// The look-ahead factor (bits per fabric cycle).
    pub fn m(&self) -> usize {
        self.lane.m()
    }

    /// Resource statistics of the single PGA operation.
    pub fn stats(&self) -> OpStats {
        self.stats
    }

    /// The loaded scrambler operation (for inspection and static
    /// verification of the resident configuration).
    pub fn op(&self) -> &PgaOperation {
        self.sim.context(SCRAMBLER_SLOT).expect("loaded at build")
    }

    /// The Derby transform backing the datapath.
    pub fn transform(&self) -> &DerbyTransform {
        &self.derby
    }

    /// The fabric simulator this application runs on — read access for
    /// observability (cycle counters, profiler, tracer).
    pub fn fabric(&self) -> &PicogaSim {
        &self.sim
    }

    /// Kernel-only peak throughput: M bits per cycle at the fabric clock.
    pub fn kernel_throughput_bps(&self) -> f64 {
        self.m() as f64 * self.sim.params().clock_hz
    }

    /// Scrambles one block-based frame from `seed`, returning the
    /// scrambled bits and the cycle report. Descrambling is the same call
    /// (the operation is an involution for matching seeds).
    pub fn scramble(&mut self, seed: u64, data: &BitVec) -> (BitVec, RunReport) {
        self.sim.reset_counters();
        let start = self.sim.counters();
        self.sim.switch_to(SCRAMBLER_SLOT).expect("loaded");
        self.lane
            .scramble(&mut self.sim, &self.control, seed, data, start)
            .expect("shape checked at build time")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfsr::scramble::AdditiveScrambler;

    fn app(m: usize) -> DreamScramblerApp {
        DreamScramblerApp::build(
            ScramblerSpec::ieee80211(),
            m,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap()
    }

    fn frame(n_bits: usize, seed: u64) -> BitVec {
        let mut v = BitVec::zeros(n_bits);
        let mut x = seed | 1;
        for i in 0..n_bits {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                v.set(i, true);
            }
        }
        v
    }

    #[test]
    fn matches_serial_scrambler_for_all_m() {
        let spec = ScramblerSpec::ieee80211();
        for m in [8usize, 16, 32, 64, 128] {
            let mut a = app(m);
            for bits in [0usize, 7, 64, 100, 1024] {
                let data = frame(bits, 0xC0FFEE);
                let mut reference = AdditiveScrambler::new(spec).unwrap();
                let expect = reference.scramble(&data);
                let (got, report) = a.scramble(spec.default_seed, &data);
                assert_eq!(got, expect, "M={m} bits={bits}");
                assert_eq!(report.bits, bits as u64);
            }
        }
    }

    #[test]
    fn descramble_roundtrip_through_fabric() {
        let spec = ScramblerSpec::ieee80211();
        let mut a = app(64);
        let data = frame(512, 0xF00D);
        let (scrambled, _) = a.scramble(spec.default_seed, &data);
        let (restored, _) = a.scramble(spec.default_seed, &scrambled);
        assert_eq!(restored, data);
    }

    #[test]
    fn single_operation_no_context_switch_overhead_between_frames() {
        let mut a = app(128);
        let data = frame(1280, 1);
        let (_, r1) = a.scramble(0x7F, &data);
        let (_, r2) = a.scramble(0x7F, &data);
        // After the first switch the context stays active; reset_counters
        // zeroes the sim but switch_to is a no-op only within a run — both
        // runs pay at most one 2-cycle switch.
        assert!(r1.picoga.context_switch <= 2);
        assert!(r2.picoga.context_switch <= 2);
    }

    #[test]
    fn m128_reaches_max_output_bandwidth() {
        let a = app(128);
        let p = PicogaParams::dream();
        assert_eq!(a.stats().output_bits, p.output_bits);
        assert!(a.kernel_throughput_bps() > 25e9);
    }

    #[test]
    fn throughput_grows_with_block_length() {
        let mut a = app(128);
        let (_, short) = a.scramble(0x55, &frame(128, 3));
        let (_, long) = a.scramble(0x55, &frame(8192, 3));
        assert!(long.throughput_bps(200e6) > short.throughput_bps(200e6));
    }
}
