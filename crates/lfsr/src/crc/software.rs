//! Software CRC implementations.
//!
//! Three classic algorithm families, in increasing sophistication:
//!
//! * [`crc_bitwise`] — the serial shift-register reference, 1 bit per
//!   iteration. This is the ground truth everything else is tested against.
//! * [`SarwateCrc`] — the byte-at-a-time 256-entry table method, i.e. the
//!   "fast software implementation on a RISC processor" the paper uses as
//!   its Table 1 baseline (look-up table plus shift-and-add, as in
//!   Albertengo & Sisto \[8\]).
//! * [`SlicingCrc`] — slicing-by-4/8, reading 32/64 input bits per step
//!   with N parallel tables (the fastest practical software method for
//!   reflected CRCs such as Ethernet's).

use super::spec::CrcSpec;
use std::fmt;

/// Errors from constructing software CRC engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoftwareCrcError {
    /// Table-driven engines need a register of at least 8 bits.
    WidthTooSmall {
        /// The offending width.
        width: usize,
    },
    /// Slicing is implemented for reflected algorithms only.
    NotReflected,
    /// Slice count must be 4 or 8.
    BadSliceCount {
        /// The requested slice count.
        slices: usize,
    },
}

impl fmt::Display for SoftwareCrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoftwareCrcError::WidthTooSmall { width } => {
                write!(f, "table-driven CRC requires width >= 8, got {width}")
            }
            SoftwareCrcError::NotReflected => {
                write!(
                    f,
                    "slicing CRC is implemented for reflected algorithms only"
                )
            }
            SoftwareCrcError::BadSliceCount { slices } => {
                write!(f, "slice count must be 4 or 8, got {slices}")
            }
        }
    }
}

impl std::error::Error for SoftwareCrcError {}

/// Reflects the low `width` bits of `value`.
pub fn reflect(value: u64, width: usize) -> u64 {
    assert!(width <= 64 && width > 0, "width must be in 1..=64");
    value.reverse_bits() >> (64 - width)
}

/// Applies the spec's output conventions (reflection and xor-out) to a
/// raw LFSR register value. This is the single place where a raw
/// state-space register becomes a delivered checksum; every engine,
/// stream and system-level path funnels through it, so a resumable
/// stream checkpointed as a raw register finalizes identically
/// everywhere.
pub fn finalize_raw(spec: &CrcSpec, raw: u64) -> u64 {
    let out = if spec.refout {
        reflect(raw, spec.width)
    } else {
        raw
    };
    (out ^ spec.xorout) & spec.mask()
}

/// Bit-serial reference CRC over `data` for any catalogue spec.
///
/// Processes one message bit per loop iteration exactly as the serial LFSR
/// of the paper's Fig. 1 does, then applies the reflection and xor-out
/// conventions.
pub fn crc_bitwise(spec: &CrcSpec, data: &[u8]) -> u64 {
    let w = spec.width;
    let mask = spec.mask();
    let top = 1u64 << (w - 1);
    let mut reg = spec.init & mask;
    for &byte in data {
        for k in 0..8 {
            let bit = if spec.refin {
                (byte >> k) & 1 == 1
            } else {
                (byte >> (7 - k)) & 1 == 1
            };
            let fb = ((reg & top) != 0) ^ bit;
            reg = (reg << 1) & mask;
            if fb {
                reg ^= spec.poly & mask;
            }
        }
    }
    let out = if spec.refout { reflect(reg, w) } else { reg };
    (out ^ spec.xorout) & mask
}

/// Byte-at-a-time table-driven CRC (Sarwate's method) — the paper's
/// software baseline.
///
/// Supports streaming via [`SarwateCrc::update`] / [`SarwateCrc::finalize`].
///
/// # Examples
///
/// ```
/// use lfsr::crc::{CrcSpec, SarwateCrc};
///
/// let mut crc = SarwateCrc::new(CrcSpec::crc32_ethernet())?;
/// crc.update(b"123456789");
/// assert_eq!(crc.finalize(), 0xCBF43926);
/// # Ok::<(), lfsr::crc::SoftwareCrcError>(())
/// ```
#[derive(Clone)]
pub struct SarwateCrc {
    spec: CrcSpec,
    table: Box<[u64; 256]>,
    reg: u64,
}

impl SarwateCrc {
    /// Builds the 256-entry table for `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`SoftwareCrcError::WidthTooSmall`] if `width < 8`.
    pub fn new(spec: &CrcSpec) -> Result<Self, SoftwareCrcError> {
        if spec.width < 8 {
            return Err(SoftwareCrcError::WidthTooSmall { width: spec.width });
        }
        let table = Box::new(build_table(spec));
        let mut s = SarwateCrc {
            spec: *spec,
            table,
            reg: 0,
        };
        s.reset();
        Ok(s)
    }

    /// The spec this engine implements.
    pub fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// Restarts the computation.
    pub fn reset(&mut self) {
        self.reg = if self.spec.refin {
            reflect(self.spec.init & self.spec.mask(), self.spec.width)
        } else {
            self.spec.init & self.spec.mask()
        };
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        let w = self.spec.width;
        if self.spec.refin {
            for &b in data {
                let idx = ((self.reg ^ b as u64) & 0xFF) as usize;
                self.reg = (self.reg >> 8) ^ self.table[idx];
            }
        } else {
            for &b in data {
                let idx = (((self.reg >> (w - 8)) ^ b as u64) & 0xFF) as usize;
                self.reg = ((self.reg << 8) & self.spec.mask()) ^ self.table[idx];
            }
        }
    }

    /// Returns the checksum of everything absorbed since the last reset.
    pub fn finalize(&self) -> u64 {
        let w = self.spec.width;
        // With a reflected table the register already holds the reflected
        // value, so refin==refout needs no final reflection.
        let out = match (self.spec.refin, self.spec.refout) {
            (true, true) | (false, false) => self.reg,
            (true, false) => reflect(self.reg, w),
            (false, true) => reflect(self.reg, w),
        };
        (out ^ self.spec.xorout) & self.spec.mask()
    }

    /// One-shot convenience.
    pub fn checksum(&mut self, data: &[u8]) -> u64 {
        self.reset();
        self.update(data);
        self.finalize()
    }
}

impl fmt::Debug for SarwateCrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SarwateCrc")
            .field("spec", &self.spec.name)
            .field("reg", &format_args!("0x{:X}", self.reg))
            .finish()
    }
}

fn build_table(spec: &CrcSpec) -> [u64; 256] {
    let w = spec.width;
    let mask = spec.mask();
    let mut table = [0u64; 256];
    if spec.refin {
        let poly_r = reflect(spec.poly & mask, w);
        for (i, slot) in table.iter_mut().enumerate() {
            let mut v = i as u64;
            for _ in 0..8 {
                v = if v & 1 == 1 {
                    (v >> 1) ^ poly_r
                } else {
                    v >> 1
                };
            }
            *slot = v;
        }
    } else {
        let top = 1u64 << (w - 1);
        for (i, slot) in table.iter_mut().enumerate() {
            let mut v = (i as u64) << (w - 8);
            for _ in 0..8 {
                v = if v & top != 0 {
                    ((v << 1) & mask) ^ (spec.poly & mask)
                } else {
                    (v << 1) & mask
                };
            }
            *slot = v & mask;
        }
    }
    table
}

/// Slicing-by-4 / slicing-by-8 CRC for reflected algorithms.
///
/// Consumes 4 or 8 bytes per step through N parallel tables; the remainder
/// tail falls back to the byte table. This is the method high-throughput
/// software stacks (e.g. Linux's Ethernet FCS) use, and serves as the
/// "best software" point in the benchmark harness.
#[derive(Clone)]
pub struct SlicingCrc {
    spec: CrcSpec,
    slices: usize,
    tables: Vec<[u64; 256]>,
    reg: u64,
}

impl SlicingCrc {
    /// Builds a slicing engine with `slices` ∈ {4, 8}.
    ///
    /// # Errors
    ///
    /// * [`SoftwareCrcError::NotReflected`] unless `refin && refout`.
    /// * [`SoftwareCrcError::WidthTooSmall`] if `width < 8`.
    /// * [`SoftwareCrcError::BadSliceCount`] for other slice counts.
    pub fn new(spec: &CrcSpec, slices: usize) -> Result<Self, SoftwareCrcError> {
        if !(spec.refin && spec.refout) {
            return Err(SoftwareCrcError::NotReflected);
        }
        if spec.width < 8 {
            return Err(SoftwareCrcError::WidthTooSmall { width: spec.width });
        }
        if slices != 4 && slices != 8 {
            return Err(SoftwareCrcError::BadSliceCount { slices });
        }
        let t0 = build_table(spec);
        let mut tables = vec![t0];
        for k in 1..slices {
            let prev = &tables[k - 1];
            let mut t = [0u64; 256];
            for i in 0..256 {
                let v = prev[i];
                t[i] = (v >> 8) ^ tables[0][(v & 0xFF) as usize];
            }
            tables.push(t);
        }
        let mut s = SlicingCrc {
            spec: *spec,
            slices,
            tables,
            reg: 0,
        };
        s.reset();
        Ok(s)
    }

    /// The spec this engine implements.
    pub fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// Number of slices (bytes consumed per main-loop step).
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Restarts the computation.
    pub fn reset(&mut self) {
        self.reg = reflect(self.spec.init & self.spec.mask(), self.spec.width);
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.reg = self.absorb(self.reg, data);
    }

    /// The register after absorbing `data` from register `reg`.
    fn absorb(&self, mut reg: u64, data: &[u8]) -> u64 {
        let n = self.slices;
        let mut chunks = data.chunks_exact(n);
        for chunk in &mut chunks {
            // XOR the register onto the leading bytes (little-endian layout
            // of the reflected register), then combine one table per byte.
            let mut acc = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                let x = if j < 8 {
                    b as u64 ^ ((reg >> (8 * j)) & 0xFF)
                } else {
                    b as u64
                };
                acc ^= self.tables[n - 1 - j][x as usize];
            }
            // Any register bytes beyond the chunk (width > 8*n) shift down.
            reg = if 8 * n >= 64 { 0 } else { reg >> (8 * n) } ^ acc;
        }
        // Byte-table tail.
        for &b in chunks.remainder() {
            let idx = ((reg ^ b as u64) & 0xFF) as usize;
            reg = (reg >> 8) ^ self.tables[0][idx];
        }
        reg
    }

    /// Returns the checksum of everything absorbed since the last reset.
    pub fn finalize(&self) -> u64 {
        (self.reg ^ self.spec.xorout) & self.spec.mask()
    }

    /// One-shot convenience.
    pub fn checksum(&mut self, data: &[u8]) -> u64 {
        self.reset();
        self.update(data);
        self.finalize()
    }

    /// The checksum of `data` alone, leaving the running computation
    /// untouched, so one engine and its tables can serve any number of
    /// callers through a shared reference.
    pub fn checksum_of(&self, data: &[u8]) -> u64 {
        let init = reflect(self.spec.init & self.spec.mask(), self.spec.width);
        (self.absorb(init, data) ^ self.spec.xorout) & self.spec.mask()
    }
}

impl fmt::Debug for SlicingCrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlicingCrc")
            .field("spec", &self.spec.name)
            .field("slices", &self.slices)
            .finish()
    }
}

/// The fastest software kernel this module has for a spec, built once
/// and reused per message: slicing-by-8 when the spec is reflected
/// (`refin && refout`), Sarwate's byte table for the other specs of
/// width ≥ 8, and the bit-serial [`crc_bitwise`] below that.
///
/// # Examples
///
/// ```
/// use lfsr::crc::{CrcSpec, SoftwareKernel};
///
/// let mut k = SoftwareKernel::new(CrcSpec::crc32_ethernet());
/// assert!(matches!(k, SoftwareKernel::Slicing8(_)));
/// assert_eq!(k.checksum(b"123456789"), 0xCBF43926);
/// ```
#[derive(Clone, Debug)]
pub enum SoftwareKernel {
    /// Slicing-by-8 (eight 256-entry tables, 16 KiB).
    Slicing8(SlicingCrc),
    /// Sarwate's byte table (one 256-entry table, 2 KiB).
    Sarwate(SarwateCrc),
    /// Bit-serial, for widths under 8.
    Bitwise(CrcSpec),
}

impl SoftwareKernel {
    /// Builds the kernel for `spec`.
    pub fn new(spec: &CrcSpec) -> Self {
        if let Ok(s) = SlicingCrc::new(spec, 8) {
            SoftwareKernel::Slicing8(s)
        } else if let Ok(s) = SarwateCrc::new(spec) {
            SoftwareKernel::Sarwate(s)
        } else {
            SoftwareKernel::Bitwise(*spec)
        }
    }

    /// The checksum of `data` under the kernel's spec.
    pub fn checksum(&mut self, data: &[u8]) -> u64 {
        match self {
            SoftwareKernel::Slicing8(s) => s.checksum(data),
            SoftwareKernel::Sarwate(s) => s.checksum(data),
            SoftwareKernel::Bitwise(spec) => crc_bitwise(spec, data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::spec::CATALOG;

    #[test]
    fn bitwise_matches_every_catalogue_check_value() {
        for spec in CATALOG {
            assert_eq!(
                crc_bitwise(spec, b"123456789"),
                spec.check,
                "{} check value mismatch",
                spec.name
            );
        }
    }

    #[test]
    fn sarwate_matches_bitwise_on_all_wide_specs() {
        let msgs: [&[u8]; 4] = [b"", b"a", b"123456789", b"the quick brown fox"];
        for spec in CATALOG.iter().filter(|s| s.width >= 8) {
            let mut s = SarwateCrc::new(spec).unwrap();
            for m in msgs {
                assert_eq!(
                    s.checksum(m),
                    crc_bitwise(spec, m),
                    "{} on {:?}",
                    spec.name,
                    m
                );
            }
        }
    }

    #[test]
    fn software_kernel_matches_bitwise_for_every_spec() {
        let msg: Vec<u8> = (0..1500u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8)
            .collect();
        for spec in CATALOG {
            let mut k = SoftwareKernel::new(spec);
            let want_slicing = spec.refin && spec.refout && spec.width >= 8;
            assert_eq!(
                matches!(k, SoftwareKernel::Slicing8(_)),
                want_slicing,
                "{}",
                spec.name
            );
            assert_eq!(
                matches!(k, SoftwareKernel::Bitwise(_)),
                spec.width < 8,
                "{}",
                spec.name
            );
            for len in (0..=17).chain([1500]) {
                assert_eq!(
                    k.checksum(&msg[..len]),
                    crc_bitwise(spec, &msg[..len]),
                    "{} len={len}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn sarwate_streaming_equals_oneshot() {
        let spec = CrcSpec::crc32_ethernet();
        let mut s = SarwateCrc::new(spec).unwrap();
        s.reset();
        s.update(b"1234");
        s.update(b"");
        s.update(b"56789");
        assert_eq!(s.finalize(), 0xCBF43926);
    }

    #[test]
    fn slicing_matches_bitwise_for_reflected_specs() {
        let msg: Vec<u8> = (0..255u8).collect();
        for spec in CATALOG
            .iter()
            .filter(|s| s.refin && s.refout && s.width >= 8)
        {
            for slices in [4, 8] {
                let mut s = SlicingCrc::new(spec, slices).unwrap();
                for len in [0, 1, 3, 4, 7, 8, 9, 31, 255] {
                    assert_eq!(
                        s.checksum(&msg[..len]),
                        crc_bitwise(spec, &msg[..len]),
                        "{} slices={} len={}",
                        spec.name,
                        slices,
                        len
                    );
                }
            }
        }
    }

    #[test]
    fn slicing_rejects_unreflected_and_bad_counts() {
        let mpeg = CrcSpec::crc32_mpeg2();
        assert_eq!(
            SlicingCrc::new(mpeg, 4).unwrap_err(),
            SoftwareCrcError::NotReflected
        );
        let eth = CrcSpec::crc32_ethernet();
        assert_eq!(
            SlicingCrc::new(eth, 3).unwrap_err(),
            SoftwareCrcError::BadSliceCount { slices: 3 }
        );
    }

    #[test]
    fn sarwate_rejects_narrow_widths() {
        let gsm = CrcSpec::by_name("CRC-3/GSM").unwrap();
        assert_eq!(
            SarwateCrc::new(gsm).unwrap_err(),
            SoftwareCrcError::WidthTooSmall { width: 3 }
        );
    }

    #[test]
    fn reflect_involution() {
        for w in [1usize, 3, 8, 17, 32, 64] {
            for v in [0u64, 1, 0xF0F0, 0xDEADBEEF] {
                let m = if w == 64 { !0 } else { (1 << w) - 1 };
                assert_eq!(reflect(reflect(v & m, w), w), v & m);
            }
        }
        assert_eq!(reflect(0b1, 8), 0b1000_0000);
    }

    #[test]
    fn ethernet_known_vectors() {
        // Independently known CRC-32 values.
        let spec = CrcSpec::crc32_ethernet();
        assert_eq!(crc_bitwise(spec, b""), 0x0000_0000);
        assert_eq!(crc_bitwise(spec, b"a"), 0xE8B7_BE43);
        assert_eq!(crc_bitwise(spec, b"abc"), 0x3524_41C2);
        assert_eq!(
            crc_bitwise(spec, b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
