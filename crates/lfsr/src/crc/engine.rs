//! Spec-aware CRC engine over interchangeable raw LFSR cores.
//!
//! The state-space machinery (serial here, the look-ahead/Derby/GFMAC
//! engines in `lfsr-parallel`, and the PiCoGA-mapped hardware in `dream`)
//! all compute the *raw* LFSR register: `A(x)·x^k mod g(x)` for an
//! MSB-first bit stream, starting from an arbitrary initial register.
//! [`CrcEngine`] wraps any such core with a [`CrcSpec`]'s conventions —
//! per-byte input reflection, initial value, output reflection and final
//! XOR — so that every core can be validated against the published check
//! values and against each other.

use super::software::finalize_raw;
use super::spec::CrcSpec;
use crate::statespace::StateSpaceLfsr;
use gf2::BitVec;

/// A raw CRC core: advances the plain (non-reflected) LFSR register through
/// a bit stream.
///
/// `bits` are consumed in index order (bit 0 first); bit values are the
/// message bits after any per-byte reflection has already been applied by
/// the caller. Implementations may process the stream serially or in
/// M-bit parallel blocks — the contract is only about the final state.
pub trait RawCrcCore {
    /// Register width `k`.
    fn width(&self) -> usize;

    /// Processes `bits` starting from `state`, returning the final register.
    fn process(&mut self, state: &BitVec, bits: &BitVec) -> BitVec;

    /// Native block size of the core in bits (1 for serial cores). Purely
    /// informational; `process` must accept any length.
    fn block_bits(&self) -> usize {
        1
    }
}

/// The serial reference core: one [`StateSpaceLfsr`] step per bit.
#[derive(Debug, Clone)]
pub struct SerialCore {
    sys: StateSpaceLfsr,
}

impl SerialCore {
    /// Builds the serial core for a spec's generator polynomial.
    pub fn new(spec: &CrcSpec) -> Self {
        let sys =
            StateSpaceLfsr::crc(&spec.generator()).expect("catalogue generators have degree >= 1");
        SerialCore { sys }
    }
}

impl RawCrcCore for SerialCore {
    fn width(&self) -> usize {
        self.sys.dim()
    }

    fn process(&mut self, state: &BitVec, bits: &BitVec) -> BitVec {
        self.sys.set_state(state.clone());
        self.sys.absorb(bits);
        self.sys.state().clone()
    }
}

/// Converts a byte message to the raw core's feed-order bit stream,
/// honouring the spec's input reflection (LSB-first per byte when
/// `refin`, MSB-first otherwise).
pub fn message_bits(spec: &CrcSpec, data: &[u8]) -> BitVec {
    let mut bits = BitVec::default();
    message_bits_into(spec, data, &mut bits);
    bits
}

/// [`message_bits`] into `out`, reusing its storage.
pub fn message_bits_into(spec: &CrcSpec, data: &[u8], out: &mut BitVec) {
    if spec.refin {
        out.assign_le_bytes(data, |w| w);
    } else {
        // Reversing all 64 bits, then the byte order, reverses each
        // byte's bits in place.
        out.assign_le_bytes(data, |w| w.reverse_bits().swap_bytes());
    }
}

/// A complete CRC algorithm: a [`CrcSpec`] driving any [`RawCrcCore`].
///
/// # Examples
///
/// ```
/// use lfsr::crc::{CrcEngine, CrcSpec, SerialCore};
///
/// let spec = CrcSpec::crc32_ethernet();
/// let mut engine = CrcEngine::new(*spec, SerialCore::new(spec));
/// assert_eq!(engine.checksum(b"123456789"), 0xCBF43926);
/// ```
#[derive(Debug, Clone)]
pub struct CrcEngine<C> {
    spec: CrcSpec,
    core: C,
}

impl<C: RawCrcCore> CrcEngine<C> {
    /// Pairs a spec with a raw core.
    ///
    /// # Panics
    ///
    /// Panics if the core width disagrees with the spec width.
    pub fn new(spec: CrcSpec, core: C) -> Self {
        assert_eq!(
            core.width(),
            spec.width,
            "core width {} != spec width {}",
            core.width(),
            spec.width
        );
        CrcEngine { spec, core }
    }

    /// The spec in use.
    pub fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// Borrows the underlying core.
    pub fn core(&self) -> &C {
        &self.core
    }

    /// Consumes the engine, returning the core.
    pub fn into_core(self) -> C {
        self.core
    }

    /// Computes the checksum of `data` under the spec's conventions.
    pub fn checksum(&mut self, data: &[u8]) -> u64 {
        let bits = message_bits(&self.spec, data);
        let init = BitVec::from_u64(self.spec.init & self.spec.mask(), self.spec.width);
        let fin = self.core.process(&init, &bits);
        finalize_raw(&self.spec, fin.to_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::software::crc_bitwise;
    use crate::crc::spec::CATALOG;

    #[test]
    fn message_bits_reflect_each_byte_as_the_spec_says() {
        let data: Vec<u8> = (0..21u32).map(|i| (i * 73 + 5) as u8).collect();
        let mut reused = BitVec::from_u64(u64::MAX, 200);
        for spec in CATALOG {
            for len in [0, 1, 7, 8, 9, 21] {
                let data = &data[..len];
                let want: BitVec = if spec.refin {
                    data.iter()
                        .flat_map(|&b| (0..8).map(move |i| (b >> i) & 1 == 1))
                        .collect()
                } else {
                    data.iter()
                        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
                        .collect()
                };
                assert_eq!(message_bits(spec, data), want, "{} len {len}", spec.name);
                message_bits_into(spec, data, &mut reused);
                assert_eq!(reused, want, "{} len {len} into", spec.name);
            }
        }
    }

    #[test]
    fn serial_engine_matches_every_check_value() {
        for spec in CATALOG {
            let mut e = CrcEngine::new(*spec, SerialCore::new(spec));
            assert_eq!(e.checksum(b"123456789"), spec.check, "{}", spec.name);
        }
    }

    #[test]
    fn serial_engine_matches_bitwise_on_random_messages() {
        // Deterministic pseudo-random bytes without pulling in rand here.
        let mut x = 0x12345678u32;
        let mut msg = Vec::new();
        for _ in 0..257 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            msg.push((x >> 24) as u8);
        }
        for spec in CATALOG.iter().filter(|s| s.width == 16 || s.width == 32) {
            let mut e = CrcEngine::new(*spec, SerialCore::new(spec));
            for len in [0, 1, 2, 63, 64, 65, 257] {
                assert_eq!(
                    e.checksum(&msg[..len]),
                    crc_bitwise(spec, &msg[..len]),
                    "{} len={}",
                    spec.name,
                    len
                );
            }
        }
    }

    #[test]
    fn message_bits_orderings() {
        let eth = CrcSpec::crc32_ethernet(); // refin = true
        let bits = message_bits(eth, &[0b1000_0001]);
        assert!(bits.get(0) && bits.get(7) && !bits.get(1));
        let mpeg = CrcSpec::crc32_mpeg2(); // refin = false
        let bits = message_bits(mpeg, &[0b1000_0001]);
        assert!(bits.get(0) && bits.get(7) && !bits.get(6));
    }

    #[test]
    #[should_panic]
    fn mismatched_core_width_panics() {
        let eth = CrcSpec::crc32_ethernet();
        let kermit = CrcSpec::by_name("CRC-16/KERMIT").unwrap();
        let _ = CrcEngine::new(*eth, SerialCore::new(kermit));
    }
}
