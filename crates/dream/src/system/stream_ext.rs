//! Chunked, resumable entry points on [`DreamSystem`] (stream-harden).
//!
//! The one-shot [`DreamSystem::checksum`] / [`DreamSystem::scramble`]
//! calls own a whole message from setup to finalization. A *serving*
//! layer cannot work that way: thousands of logical streams interleave
//! on one fabric, chunks arrive in arbitrary sizes, and a stream's state
//! must be able to leave the system (checkpoint) and come back (restore,
//! possibly on a different lane). This module exposes the minimal
//! resumable surface those sessions are built from:
//!
//! * `*_stream_begin` — the canonical initial state, already in the
//!   **transformed** (`T`-domain) state space the fabric computes in;
//! * `*_stream_feed` — advance a transformed state by whole M-bit
//!   blocks (the fabric's natural unit; residual-bit staging is the
//!   caller's job, see `crates/stream`);
//! * `*_stream_finish` — anti-transform, absorb a residual tail on the
//!   serial engine, and apply the spec's output conventions;
//! * `export_stream_state` / `import_stream_state` — the explicit
//!   `T`/`T⁻¹` marshalling path between the transformed domain and the
//!   plain domain, which is what lets a checkpointed fabric stream
//!   resume on the software kernel (and vice versa).
//!
//! Dense (non-Derby) personalities use the identity transform: their
//! "transformed" state *is* the plain state, and the same API holds.

use super::{check_seed, DreamSystem, Personality, ScramblerPersonality, SystemError};
use crate::perf::RunReport;
use gf2::BitVec;
use lfsr::crc::{finalize_raw, CrcSpec};
use lfsr::scramble::ScramblerSpec;
use lfsr_parallel::DerbyTransform;

impl DreamSystem {
    /// Looks up a CRC personality by name.
    fn personality(&self, name: &str) -> Option<&Personality> {
        let i = self.find(name)?;
        self.records[i].hosted.crc().map(|c| &c.p)
    }

    /// Looks up a scrambler personality by name.
    fn scrambler(&self, name: &str) -> Option<&ScramblerPersonality> {
        let i = self.find(name)?;
        self.records[i].hosted.scrambler().map(|h| &h.p)
    }

    /// Accounts `n` blocks pushed through the chunked feed paths.
    fn note_feed_blocks(&mut self, n: u64) {
        self.sim.obs_mut().registry.add(self.ids.feed_blocks, n);
    }

    /// The CRC spec of a registered CRC personality.
    pub fn crc_spec(&self, name: &str) -> Option<&CrcSpec> {
        self.personality(name).map(|p| &p.spec)
    }

    /// The Derby transform of a registered CRC personality (`None` for
    /// dense fallback personalities, whose transform is the identity).
    pub fn crc_derby(&self, name: &str) -> Option<&DerbyTransform> {
        self.personality(name).and_then(|p| p.derby.as_ref())
    }

    /// The spec of a registered scrambler personality.
    pub fn scrambler_spec(&self, name: &str) -> Option<&ScramblerSpec> {
        self.scrambler(name).map(|p| &p.spec)
    }

    /// The Derby transform of a registered scrambler personality.
    pub fn scrambler_derby(&self, name: &str) -> Option<&DerbyTransform> {
        self.scrambler(name).map(|p| &p.derby)
    }

    /// The block size M of a registered personality of either kind —
    /// the number of bits one fabric cycle absorbs, and therefore the
    /// granularity of every `*_stream_feed` call.
    pub fn stream_block_bits(&self, name: &str) -> Option<usize> {
        self.personality(name)
            .map(|p| p.m)
            .or_else(|| self.scrambler(name).map(|p| p.m))
    }

    /// The state dimension of a registered personality of either kind.
    pub fn stream_state_bits(&self, name: &str) -> Option<usize> {
        self.personality(name)
            .map(|p| p.spec.width)
            .or_else(|| self.scrambler(name).map(|p| p.derby.dim()))
    }

    /// Starts a CRC stream: the spec's init register, mapped into the
    /// transformed domain. Touches no fabric state.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`].
    pub fn crc_stream_begin(&self, name: &str) -> Result<BitVec, SystemError> {
        let i = self.crc_record(name)?;
        let c = self.records[i].hosted.crc().expect("a CRC personality");
        Ok(BitVec::from_u64(c.start, c.p.spec.width))
    }

    /// Advances a transformed CRC stream state by `bits` (a whole number
    /// of M-bit blocks, already refin-adjusted by
    /// [`lfsr::crc::message_bits`]). Returns the new transformed state.
    /// Fabric cycles accrue on [`DreamSystem::counters`].
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`],
    /// [`SystemError::BlockMisaligned`] unless `bits.len()` is a
    /// multiple of M, [`SystemError::StateWidthMismatch`], or fabric
    /// errors.
    pub fn crc_stream_feed(
        &mut self,
        name: &str,
        x_t: &BitVec,
        bits: &BitVec,
    ) -> Result<BitVec, SystemError> {
        let i = self.crc_record(name)?;
        let p = &self.crc_host(i).p;
        let (m, width, dense) = (p.m, p.spec.width, p.derby.is_none());
        if x_t.len() != width {
            return Err(SystemError::StateWidthMismatch {
                got: x_t.len(),
                expected: width,
            });
        }
        if !bits.len().is_multiple_of(m) {
            return Err(SystemError::BlockMisaligned { len: bits.len(), m });
        }
        if bits.is_empty() {
            return Ok(x_t.clone());
        }
        let n = bits.len() / m;
        self.ensure_resident(i, 0)?;
        self.note_feed_blocks(n as u64);
        if dense {
            Ok(self.sim.run_crc_dense_blocks(x_t, bits, n)?)
        } else {
            Ok(self.sim.run_crc_blocks(x_t, bits, n)?)
        }
    }

    /// Finishes a CRC stream: anti-transforms the state (on the fabric
    /// for Derby personalities — the paper's second PGA operation),
    /// absorbs a residual of fewer-than-M staged bits on the serial tail
    /// engine, and applies refout/xorout. Returns the delivered CRC and
    /// a report of the tail work.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`],
    /// [`SystemError::StateWidthMismatch`], or fabric errors.
    pub fn crc_stream_finish(
        &mut self,
        name: &str,
        x_t: &BitVec,
        residual: &BitVec,
    ) -> Result<(u64, RunReport), SystemError> {
        let i = self.crc_record(name)?;
        let p = &self.crc_host(i).p;
        let (spec, has_derby) = (p.spec, p.derby.is_some());
        if x_t.len() != spec.width {
            return Err(SystemError::StateWidthMismatch {
                got: x_t.len(),
                expected: spec.width,
            });
        }
        let mut x = if has_derby {
            self.ensure_resident(i, 1)?;
            self.sim.run_linear_word(x_t.to_u64())?
        } else {
            x_t.to_u64()
        };
        let mut report = RunReport::default();
        if !residual.is_empty() {
            report.tail_cycles +=
                (residual.len() as u64).div_ceil(8) * self.control.tail_cycles_per_byte;
            let tail = &self.crc_host(i).tail;
            x = tail.absorb_word(x, residual, 0..residual.len());
        }
        Ok((finalize_raw(&spec, x), report))
    }

    /// Starts a scrambler stream from `seed`: the seed mapped into the
    /// transformed domain. Touches no fabric state.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] / [`SystemError::BadSeed`].
    pub fn scramble_stream_begin(&self, name: &str, seed: u64) -> Result<BitVec, SystemError> {
        let p = self
            .scrambler(name)
            .ok_or_else(|| SystemError::UnknownPersonality { name: name.into() })?;
        check_seed(name, seed, p.derby.dim())?;
        let seed_state = BitVec::from_u64(seed, p.derby.dim());
        Ok(p.derby.transform_state(&seed_state))
    }

    /// Advances a transformed scrambler stream by whole M-bit blocks,
    /// returning the scrambled output bits and the new transformed
    /// state.
    ///
    /// # Errors
    ///
    /// As [`DreamSystem::crc_stream_feed`].
    pub fn scramble_stream_feed(
        &mut self,
        name: &str,
        x_t: &BitVec,
        bits: &BitVec,
    ) -> Result<(BitVec, BitVec), SystemError> {
        let i = self.scrambler_record(name)?;
        let p = &self.scrambler_host(i).p;
        let (m, dim) = (p.m, p.derby.dim());
        if x_t.len() != dim {
            return Err(SystemError::StateWidthMismatch {
                got: x_t.len(),
                expected: dim,
            });
        }
        if !bits.len().is_multiple_of(m) {
            return Err(SystemError::BlockMisaligned { len: bits.len(), m });
        }
        if bits.is_empty() {
            return Ok((BitVec::zeros(0), x_t.clone()));
        }
        let n = bits.len() / m;
        self.ensure_resident(i, 2)?;
        self.note_feed_blocks(n as u64);
        Ok(self.sim.run_scrambler_blocks(x_t, bits, n)?)
    }

    /// Finishes a scrambler stream: transduces a residual of
    /// fewer-than-M bits on the serial tail engine. Returns the residual
    /// output bits (empty residual → empty output).
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] /
    /// [`SystemError::StateWidthMismatch`].
    pub fn scramble_stream_finish(
        &mut self,
        name: &str,
        x_t: &BitVec,
        residual: &BitVec,
    ) -> Result<(BitVec, RunReport), SystemError> {
        let i = self.scrambler_record(name)?;
        let dim = self.scrambler_host(i).p.derby.dim();
        if x_t.len() != dim {
            return Err(SystemError::StateWidthMismatch {
                got: x_t.len(),
                expected: dim,
            });
        }
        let mut report = RunReport::default();
        if residual.is_empty() {
            return Ok((BitVec::zeros(0), report));
        }
        report.tail_cycles +=
            (residual.len() as u64).div_ceil(8) * self.control.tail_cycles_per_byte;
        let lane = &mut self.scrambler_host(i).lane;
        Ok((lane.tail(x_t.to_u64(), residual), report))
    }

    /// Marshals a transformed stream state into the plain domain
    /// (`x = T·x_t`) — the representation the software kernels and the
    /// checkpoint migration path understand.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] /
    /// [`SystemError::StateWidthMismatch`].
    pub fn export_stream_state(&self, name: &str, x_t: &BitVec) -> Result<BitVec, SystemError> {
        let (derby, dim) = self.transform_of(name)?;
        if x_t.len() != dim {
            return Err(SystemError::StateWidthMismatch {
                got: x_t.len(),
                expected: dim,
            });
        }
        Ok(match derby {
            Some(d) => d.anti_transform_state(x_t),
            None => x_t.clone(),
        })
    }

    /// Marshals a plain-domain state into the transformed domain
    /// (`x_t = T⁻¹·x`) — the inverse of
    /// [`DreamSystem::export_stream_state`].
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownPersonality`] /
    /// [`SystemError::StateWidthMismatch`].
    pub fn import_stream_state(&self, name: &str, plain: &BitVec) -> Result<BitVec, SystemError> {
        let (derby, dim) = self.transform_of(name)?;
        if plain.len() != dim {
            return Err(SystemError::StateWidthMismatch {
                got: plain.len(),
                expected: dim,
            });
        }
        Ok(match derby {
            Some(d) => d.transform_state(plain),
            None => plain.clone(),
        })
    }

    /// The transform (if any) and state dimension of either personality
    /// kind.
    fn transform_of(&self, name: &str) -> Result<(Option<&DerbyTransform>, usize), SystemError> {
        if let Some(p) = self.personality(name) {
            return Ok((p.derby.as_ref(), p.spec.width));
        }
        if let Some(p) = self.scrambler(name) {
            return Ok((Some(&p.derby), p.derby.dim()));
        }
        Err(SystemError::UnknownPersonality { name: name.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::ControlModel;
    use lfsr::crc::{crc_bitwise, message_bits};
    use picoga::PicogaParams;

    fn crc_system(m: usize) -> DreamSystem {
        let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
        let spec = CrcSpec::by_name("CRC-32/ETHERNET").unwrap();
        sys.register(crate::system::tests::personality("eth", spec, m).unwrap())
            .unwrap();
        sys
    }

    #[test]
    fn chunked_feeds_match_the_one_shot_path() {
        let mut sys = crc_system(32);
        let spec = *sys.crc_spec("eth").unwrap();
        let data: Vec<u8> = (0..203u32).map(|i| (i * 13 + 5) as u8).collect();
        let bits = message_bits(&spec, &data);
        let m = sys.stream_block_bits("eth").unwrap();

        let mut x_t = sys.crc_stream_begin("eth").unwrap();
        // Feed in ragged block-aligned pieces; keep the final residual.
        let full = bits.len() / m * m;
        let mut pos = 0;
        for take in [m, 3 * m, 7 * m] {
            let take = take.min(full - pos);
            x_t = sys
                .crc_stream_feed("eth", &x_t, &bits.slice(pos, take))
                .unwrap();
            pos += take;
        }
        x_t = sys
            .crc_stream_feed("eth", &x_t, &bits.slice(pos, full - pos))
            .unwrap();
        let residual = bits.slice(full, bits.len() - full);
        let (crc, _) = sys.crc_stream_finish("eth", &x_t, &residual).unwrap();
        assert_eq!(crc, crc_bitwise(&spec, &data));
    }

    /// The CRC and the scrambler feeds refuse a chunk that is not whole
    /// blocks and a state of the wrong width; the finishes refuse the
    /// state too.
    #[test]
    fn misaligned_and_mismatched_feeds_are_typed_errors() {
        let mut sys = crc_system(32);
        sys.register_scrambler(crate::system::tests::wifi_scrambler(16))
            .unwrap();
        let crc = sys.crc_stream_begin("eth").unwrap();
        let scr = sys.scramble_stream_begin("wifi", 0x5D).unwrap();
        // (personality, a valid state, M, k)
        for (name, x_t, m, k) in [("eth", crc, 32, 32), ("wifi", scr, 16, 7)] {
            let scrambler = name == "wifi";
            let feed = |sys: &mut DreamSystem, x: &BitVec, bits: &BitVec| {
                if scrambler {
                    sys.scramble_stream_feed(name, x, bits).map(drop)
                } else {
                    sys.crc_stream_feed(name, x, bits).map(drop)
                }
            };
            let finish = |sys: &mut DreamSystem, x: &BitVec| {
                if scrambler {
                    sys.scramble_stream_finish(name, x, &BitVec::zeros(3))
                        .map(drop)
                } else {
                    sys.crc_stream_finish(name, x, &BitVec::zeros(3)).map(drop)
                }
            };
            let len = m + 1;
            assert_eq!(
                feed(&mut sys, &x_t, &BitVec::zeros(len)),
                Err(SystemError::BlockMisaligned { len, m }),
                "{name}"
            );
            for got in [k - 1, k + 1] {
                let wrong = SystemError::StateWidthMismatch { got, expected: k };
                let x = BitVec::zeros(got);
                assert_eq!(feed(&mut sys, &x, &BitVec::zeros(m)), Err(wrong.clone()));
                assert_eq!(finish(&mut sys, &x), Err(wrong), "{name}");
            }
            assert_eq!(feed(&mut sys, &x_t, &BitVec::zeros(m)), Ok(()), "{name}");
            assert_eq!(finish(&mut sys, &x_t), Ok(()), "{name}");
        }
        assert!(matches!(
            sys.crc_stream_begin("ghost"),
            Err(SystemError::UnknownPersonality { .. })
        ));
    }

    #[test]
    fn export_import_round_trips_through_the_transform() {
        let sys = crc_system(32);
        let x_t = sys.crc_stream_begin("eth").unwrap();
        let plain = sys.export_stream_state("eth", &x_t).unwrap();
        // The exported initial state is the spec's init register.
        let spec = sys.crc_spec("eth").unwrap();
        assert_eq!(plain.to_u64(), spec.init & spec.mask());
        assert_eq!(sys.import_stream_state("eth", &plain).unwrap(), x_t);
    }

    #[test]
    fn software_continuation_of_a_fabric_stream_is_exact() {
        // Absorb a prefix on the fabric, marshal T·x_t out, continue on
        // the serial software engine — the fabric→software migration in
        // miniature.
        let mut sys = crc_system(32);
        let spec = *sys.crc_spec("eth").unwrap();
        let data: Vec<u8> = (0..96u32).map(|i| (i * 29 + 1) as u8).collect();
        let bits = message_bits(&spec, &data);

        let x_t = sys.crc_stream_begin("eth").unwrap();
        let x_t = sys
            .crc_stream_feed("eth", &x_t, &bits.slice(0, 512))
            .unwrap();
        let plain = sys.export_stream_state("eth", &x_t).unwrap();

        let mut serial = lfsr::StateSpaceLfsr::crc(&spec.generator()).unwrap();
        serial.set_state(plain);
        serial.absorb(&bits.slice(512, bits.len() - 512));
        assert_eq!(
            finalize_raw(&spec, serial.state().to_u64()),
            crc_bitwise(&spec, &data)
        );
    }
}
