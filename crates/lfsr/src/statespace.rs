//! State-space formulation of LFSR applications (paper §2, Fig. 1–2).
//!
//! Every LFSR application in the paper is an instance of the linear system
//!
//! ```text
//! x(n+1) = A·x(n) + b·u(n)
//! y(n)   = C·x(n) + d·u(n)
//! ```
//!
//! over GF(2), where for a **CRC** `A` is the companion matrix of the
//! generator, `b = [g₀ … g_{k−1}]ᵀ`, `C = I` and `d = 0` (the checksum is the
//! final state), and for a **scrambler** the LFSR is autonomous (`b = 0`)
//! and the output combines a selection of state bits with the input
//! (`y = C·x + d·u`).

use gf2::{BitMat, BitVec, Gf2Poly};
use std::fmt;

/// Errors produced when constructing a state-space LFSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LfsrError {
    /// The generator polynomial must have degree ≥ 1.
    DegreeTooSmall,
    /// Matrix/vector dimensions are inconsistent.
    DimensionMismatch {
        /// Human-readable description of the offending dimension.
        what: &'static str,
    },
}

impl fmt::Display for LfsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfsrError::DegreeTooSmall => {
                write!(f, "generator polynomial must have degree at least 1")
            }
            LfsrError::DimensionMismatch { what } => {
                write!(f, "inconsistent dimension: {what}")
            }
        }
    }
}

impl std::error::Error for LfsrError {}

/// A single-input linear system over GF(2): the generic scheme of the
/// paper's Fig. 2 at `M = 1`.
///
/// The struct owns the four system matrices and the current state, and is
/// the *serial reference* every parallel engine in `lfsr-parallel` is
/// verified against. [`StateSpaceLfsr::step`] applies the matrices as
/// written; [`StateSpaceLfsr::absorb`] and [`StateSpaceLfsr::transduce`]
/// step the same system on packed words (a word-oriented LFSR in the
/// sense of Tsaban and Vishne).
#[derive(Clone, PartialEq, Eq)]
pub struct StateSpaceLfsr {
    a: BitMat,
    b: BitVec,
    c: BitMat,
    d: BitVec,
    state: BitVec,
    packed: Packed,
}

/// `A`'s columns, `b` and `C`'s first row as LSB-first words, packed
/// once at construction for the word-level engine; for a one-word state
/// also the 8-step map that absorbs a whole byte of input.
#[derive(Clone, PartialEq, Eq)]
struct Packed {
    /// Words per state vector, `k.div_ceil(64)`.
    kw: usize,
    /// Column `j` of `A` is `a_cols[j·kw..(j + 1)·kw]`.
    a_cols: Vec<u64>,
    b: Vec<u64>,
    /// Row 0 of `C` (empty when `C` has no rows).
    c0: Vec<u64>,
    /// Column `j` of `A^8` (one-word states only, else empty).
    a8_cols: Vec<u64>,
    /// `A^{7−j}·b`, what input bit `j` of a byte adds after the byte's
    /// eight steps (one-word states only).
    b8: [u64; 8],
}

impl Packed {
    fn new(a: &BitMat, b: &BitVec, c: &BitMat) -> Packed {
        let kw = a.rows().div_ceil(64);
        let mut a_cols = vec![0u64; a.cols() * kw];
        for (i, row) in a.iter_rows().enumerate() {
            for j in row.iter_ones() {
                a_cols[j * kw + i / 64] |= 1 << (i % 64);
            }
        }
        let mut p = Packed {
            kw,
            a_cols,
            b: b.words().to_vec(),
            c0: c
                .iter_rows()
                .next()
                .map_or(Vec::new(), |r| r.words().to_vec()),
            a8_cols: Vec::new(),
            b8: [0; 8],
        };
        if kw == 1 {
            // A^e·x, one step at a time.
            let pow = |x: u64, e: usize| {
                (0..e).fold(x, |x, _| {
                    let mut next = [0];
                    p.step(&[x], false, &mut next);
                    next[0]
                })
            };
            let a8_cols = (0..a.cols()).map(|j| pow(1 << j, 8)).collect();
            let b8 = std::array::from_fn(|j| pow(p.b[0], 7 - j));
            (p.a8_cols, p.b8) = (a8_cols, b8);
        }
        p
    }

    /// Eight steps of a one-word state at once: `A^8·x` plus the
    /// columns of the set bits of `byte` (input bit `j` is bit `j`).
    #[inline]
    fn step8(&self, x: u64, byte: u64) -> u64 {
        let mut acc = 0;
        let mut w = x;
        while w != 0 {
            acc ^= self.a8_cols[w.trailing_zeros() as usize];
            w &= w - 1;
        }
        let mut u = byte & 0xFF;
        while u != 0 {
            acc ^= self.b8[u.trailing_zeros() as usize];
            u &= u - 1;
        }
        acc
    }

    /// `next = A·x ⊕ b·u`, XORing the column of every set state bit.
    #[inline]
    fn step(&self, x: &[u64], u: bool, next: &mut [u64]) {
        let kw = self.kw;
        if kw == 1 {
            let mut acc = if u { self.b[0] } else { 0 };
            let mut w = x[0];
            while w != 0 {
                acc ^= self.a_cols[w.trailing_zeros() as usize];
                w &= w - 1;
            }
            next[0] = acc;
            return;
        }
        if u {
            next.copy_from_slice(&self.b);
        } else {
            next.fill(0);
        }
        for (wi, &xw) in x.iter().enumerate() {
            let mut w = xw;
            while w != 0 {
                let j = 64 * wi + w.trailing_zeros() as usize;
                for (n, a) in next.iter_mut().zip(&self.a_cols[j * kw..][..kw]) {
                    *n ^= a;
                }
                w &= w - 1;
            }
        }
    }

    /// `C`'s first row dotted with `x`.
    #[inline]
    fn out0(&self, x: &[u64]) -> bool {
        self.c0
            .iter()
            .zip(x)
            .fold(0, |acc, (c, x)| acc ^ (c & x))
            .count_ones()
            & 1
            == 1
    }
}

impl StateSpaceLfsr {
    /// Builds a system from explicit matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::DimensionMismatch`] unless `A` is `k×k`,
    /// `b` has length `k`, `C` is `m×k` and `d` has length `m`.
    pub fn new(a: BitMat, b: BitVec, c: BitMat, d: BitVec) -> Result<Self, LfsrError> {
        let k = a.rows();
        if a.cols() != k {
            return Err(LfsrError::DimensionMismatch {
                what: "A not square",
            });
        }
        if b.len() != k {
            return Err(LfsrError::DimensionMismatch {
                what: "b length != k",
            });
        }
        if c.cols() != k {
            return Err(LfsrError::DimensionMismatch {
                what: "C columns != k",
            });
        }
        if d.len() != c.rows() {
            return Err(LfsrError::DimensionMismatch {
                what: "d length != C rows",
            });
        }
        let state = BitVec::zeros(k);
        let packed = Packed::new(&a, &b, &c);
        Ok(StateSpaceLfsr {
            a,
            b,
            c,
            d,
            state,
            packed,
        })
    }

    /// The serial CRC system for generator `g`: `A = companion(g)`,
    /// `b = [g₀…g_{k−1}]ᵀ`, `C = I`, `d = 0`.
    ///
    /// Stepping this system with the message bits (MSB of the message first)
    /// from the all-zero state computes `A(x)·x^k mod g(x)` — the raw CRC
    /// core before init/reflection/xor-out conventions.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::DegreeTooSmall`] if `deg g < 1`.
    pub fn crc(g: &Gf2Poly) -> Result<Self, LfsrError> {
        let k = g
            .degree()
            .filter(|&d| d >= 1)
            .ok_or(LfsrError::DegreeTooSmall)?;
        let a = BitMat::companion(g);
        let mut b = BitVec::zeros(k);
        for i in 0..k {
            if g.coeff(i) {
                b.set(i, true);
            }
        }
        let c = BitMat::identity(k);
        let d = BitVec::zeros(k);
        StateSpaceLfsr::new(a, b, c, d)
    }

    /// The additive (frame-synchronous) scrambler for feedback polynomial
    /// `s(x) = x^k + Σ sᵢ·x^i`, in Fibonacci form: the register shifts down
    /// and the new top bit is the parity of the tapped positions; the output
    /// bit is the same parity, XORed with the input (`y = c·x + u`).
    ///
    /// This matches the IEEE 802.11 scrambler when `s(x) = x⁷ + x⁴ + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::DegreeTooSmall`] if `deg s < 1`.
    pub fn additive_scrambler(s: &Gf2Poly) -> Result<Self, LfsrError> {
        let k = s
            .degree()
            .filter(|&d| d >= 1)
            .ok_or(LfsrError::DegreeTooSmall)?;
        let a = fibonacci_matrix(s);
        let b = BitVec::zeros(k);
        // Output row = the same tap parity that feeds back (row k-1 of A).
        let c = BitMat::from_rows(vec![a.row(k - 1).clone()]);
        let d = BitVec::from_bits([true]);
        StateSpaceLfsr::new(a, b, c, d)
    }

    /// The self-synchronising (multiplicative) **scrambler** for
    /// `s(x) = x^k + … + 1`, as a linear system: state bit `i` holds the
    /// scrambler *output* from `i+1` steps ago, the output is
    /// `y = u ⊕ Σ taps(x)` and feeds back into the register:
    ///
    /// ```text
    /// A = shift + e₀·tᵀ,  b = e₀,  C = tᵀ,  d = 1
    /// ```
    ///
    /// where `t_i = 1` iff `s` has the `x^{i+1}` term. Because the system
    /// is linear, the same M-level look-ahead machinery used for CRCs
    /// parallelises it (e.g. the 64B/66B PCS scrambler at 10 Gb/s+).
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::DegreeTooSmall`] if `deg s < 1`.
    pub fn multiplicative_scrambler(s: &Gf2Poly) -> Result<Self, LfsrError> {
        let k = s
            .degree()
            .filter(|&d| d >= 1)
            .ok_or(LfsrError::DegreeTooSmall)?;
        let mut taps = BitVec::zeros(k);
        for i in 0..k {
            if s.coeff(i + 1) {
                taps.set(i, true);
            }
        }
        // A = shift (x_i' = x_{i-1}) with row 0 = taps (x_0' = y|_{u=0}).
        let mut a = BitMat::zeros(k, k);
        for i in 1..k {
            a.set(i, i - 1, true);
        }
        for j in taps.iter_ones() {
            a.set(0, j, true);
        }
        let b = BitVec::unit(0, k);
        let c = BitMat::from_rows(vec![taps]);
        let d = BitVec::from_bits([true]);
        StateSpaceLfsr::new(a, b, c, d)
    }

    /// The matching self-synchronising **descrambler**: identical output
    /// function, but the register shifts in the *received* bit, so any
    /// seed mismatch flushes out after `k` steps.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::DegreeTooSmall`] if `deg s < 1`.
    pub fn multiplicative_descrambler(s: &Gf2Poly) -> Result<Self, LfsrError> {
        let k = s
            .degree()
            .filter(|&d| d >= 1)
            .ok_or(LfsrError::DegreeTooSmall)?;
        let mut taps = BitVec::zeros(k);
        for i in 0..k {
            if s.coeff(i + 1) {
                taps.set(i, true);
            }
        }
        let mut a = BitMat::zeros(k, k);
        for i in 1..k {
            a.set(i, i - 1, true);
        }
        let b = BitVec::unit(0, k);
        let c = BitMat::from_rows(vec![taps]);
        let d = BitVec::from_bits([true]);
        StateSpaceLfsr::new(a, b, c, d)
    }

    /// State dimension `k`.
    pub fn dim(&self) -> usize {
        self.a.rows()
    }

    /// Output dimension (rows of `C`).
    pub fn out_dim(&self) -> usize {
        self.c.rows()
    }

    /// Borrows the state-update matrix `A`.
    pub fn a(&self) -> &BitMat {
        &self.a
    }

    /// Borrows the input vector `b`.
    pub fn b(&self) -> &BitVec {
        &self.b
    }

    /// Borrows the output matrix `C`.
    pub fn c(&self) -> &BitMat {
        &self.c
    }

    /// Borrows the feed-through vector `d`.
    pub fn d(&self) -> &BitVec {
        &self.d
    }

    /// Borrows the current state `x(n)`.
    pub fn state(&self) -> &BitVec {
        &self.state
    }

    /// Overwrites the state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != k`.
    pub fn set_state(&mut self, state: BitVec) {
        assert_eq!(state.len(), self.dim(), "state dimension mismatch");
        self.state = state;
    }

    /// Resets the state to all zeros.
    pub fn reset(&mut self) {
        self.state.clear();
    }

    /// Advances one serial step with input bit `u`, returning the output
    /// `y(n) = C·x(n) + d·u(n)` computed *before* the state update.
    pub fn step(&mut self, u: bool) -> BitVec {
        let mut y = self.c.mul_vec(&self.state);
        if u {
            y.xor_assign(&self.d);
        }
        let mut next = self.a.mul_vec(&self.state);
        if u {
            next.xor_assign(&self.b);
        }
        self.state = next;
        y
    }

    /// Steps through `bits` in index order (bit 0 of `bits` first),
    /// discarding outputs — the CRC usage pattern. Runs on packed words,
    /// a byte at a time when the state fits one word (see
    /// [`StateSpaceLfsr::absorb_word`]); the result equals `bits.len()`
    /// calls of [`StateSpaceLfsr::step`].
    pub fn absorb(&mut self, bits: &BitVec) {
        if self.packed.kw == 1 {
            let x = self.absorb_word(self.state.to_u64(), bits, 0..bits.len());
            self.state = BitVec::from_u64(x, self.dim());
        } else {
            self.run_words(bits, None);
        }
    }

    /// The state after absorbing bits `range` of `bits` from state `x`,
    /// for a state of at most 64 bits held in one word: the engine's own
    /// state is untouched and nothing is allocated. Whole bytes of the
    /// range take the 8-step map; only the last `range.len() % 8` bits
    /// step one at a time.
    ///
    /// # Panics
    ///
    /// Panics if the state is wider than 64 bits.
    pub fn absorb_word(&self, x: u64, bits: &BitVec, range: std::ops::Range<usize>) -> u64 {
        let p = &self.packed;
        assert_eq!(p.kw, 1, "absorb_word needs a one-word state");
        let bytes = range.len() / 8;
        let x = (0..bytes).fold(x, |x, b| p.step8(x, bits.word_at(range.start + 8 * b)));
        let (mut x, mut next) = ([x], [0u64]);
        for i in range.start + 8 * bytes..range.end {
            p.step(&x, bits.get(i), &mut next);
            x = next;
        }
        x[0]
    }

    /// Steps through `bits`, collecting the (single-bit) outputs — the
    /// scrambler usage pattern. Runs on packed words, like
    /// [`StateSpaceLfsr::absorb`].
    ///
    /// # Panics
    ///
    /// Panics if the output dimension is not 1.
    pub fn transduce(&mut self, bits: &BitVec) -> BitVec {
        assert_eq!(self.out_dim(), 1, "transduce requires scalar output");
        let mut out = vec![0u64; bits.len().div_ceil(64)];
        self.run_words(bits, Some(&mut out));
        BitVec::from_words(out, bits.len())
    }

    /// The word-level engine behind `absorb` and `transduce`: one step
    /// per bit of `bits`, writing output `i` to bit `i` of `out` when
    /// given.
    fn run_words(&mut self, bits: &BitVec, mut out: Option<&mut [u64]>) {
        let p = &self.packed;
        let d0 = self.d.words().first().is_some_and(|w| w & 1 == 1);
        let mut x = self.state.words().to_vec();
        let mut next = vec![0u64; p.kw];
        for i in 0..bits.len() {
            let u = bits.get(i);
            if let Some(out) = out.as_deref_mut() {
                let y = p.out0(&x) ^ (u && d0);
                out[i / 64] |= u64::from(y) << (i % 64);
            }
            p.step(&x, u, &mut next);
            std::mem::swap(&mut x, &mut next);
        }
        self.state = BitVec::from_words(x, self.dim());
    }
}

impl fmt::Debug for StateSpaceLfsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSpaceLfsr")
            .field("k", &self.dim())
            .field("out_dim", &self.out_dim())
            .field("state", &self.state)
            .finish()
    }
}

/// Builds the Fibonacci-form state-update matrix for feedback polynomial
/// `s(x) = x^k + Σ sᵢ·x^i`: `x_{i}(n+1) = x_{i+1}(n)` for `i < k−1` and
/// `x_{k−1}(n+1) = Σ_{i: sᵢ=1} x_i(n)`.
///
/// # Panics
///
/// Panics if `deg s < 1`.
pub fn fibonacci_matrix(s: &Gf2Poly) -> BitMat {
    let k = s.degree().expect("zero polynomial");
    assert!(k >= 1, "fibonacci_matrix requires degree >= 1");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn crc4() -> StateSpaceLfsr {
        StateSpaceLfsr::crc(&Gf2Poly::from_u64(0b10011)).unwrap()
    }

    #[test]
    fn crc_system_shape() {
        let s = crc4();
        assert_eq!(s.dim(), 4);
        assert!(s.a().is_companion());
        assert_eq!(s.b().to_u64(), 0b0011); // g0=1, g1=1
        assert_eq!(*s.c(), BitMat::identity(4));
        assert!(s.d().is_zero());
    }

    #[test]
    fn absorb_word_matches_absorb_on_the_range() {
        let mut s = StateSpaceLfsr::crc(&Gf2Poly::from_u64(0x1_04C1_1DB7)).unwrap();
        let bits = BitVec::from_bits((0..150u32).map(|i| (i * 7 + i / 3) % 5 < 2));
        for (start, end) in [(0, 0), (0, 1), (3, 40), (17, 150), (64, 130)] {
            let x0 = 0xDEAD_BEEFu64 ^ start as u64;
            s.set_state(BitVec::from_u64(x0, 32));
            s.absorb(&bits.slice(start, end - start));
            let before = s.state().clone();
            assert_eq!(s.absorb_word(x0, &bits, start..end), before.to_u64());
            assert_eq!(*s.state(), before, "own state untouched");
        }
    }

    #[test]
    fn serial_crc_matches_polynomial_arithmetic() {
        // Absorbing message bits MSB-first computes A(x)*x^k mod g(x).
        let g = Gf2Poly::from_u64(0b10011);
        let mut s = StateSpaceLfsr::crc(&g).unwrap();
        let msg: u64 = 0b1_1010_1101;
        let nbits = 9;
        // Feed MSB first: bit index 0 of the stream = MSB of msg.
        let stream = BitVec::from_bits((0..nbits).map(|i| (msg >> (nbits - 1 - i)) & 1 == 1));
        s.absorb(&stream);
        let a_poly = Gf2Poly::from_u64(msg);
        let expect = a_poly.mul(&Gf2Poly::x_pow(4)).rem(&g);
        assert_eq!(s.state().to_u64(), expect.to_u64());
    }

    #[test]
    fn step_is_linear_in_state_and_input() {
        // x(n+1) for (state ^ state', u ^ u') equals xor of individual updates
        // plus the zero-response — linearity of the whole system.
        let g = Gf2Poly::from_u64(0b10011);
        let mk = || StateSpaceLfsr::crc(&g).unwrap();
        for st in 0..16u64 {
            for st2 in 0..16u64 {
                let mut a = mk();
                a.set_state(BitVec::from_u64(st, 4));
                a.step(true);
                let mut b = mk();
                b.set_state(BitVec::from_u64(st2, 4));
                b.step(false);
                let mut c = mk();
                c.set_state(BitVec::from_u64(st ^ st2, 4));
                c.step(true);
                assert_eq!(c.state().to_u64(), a.state().to_u64() ^ b.state().to_u64());
            }
        }
    }

    #[test]
    fn scrambler_roundtrip() {
        // Scrambling then descrambling with the same seed restores the data.
        let s_poly = Gf2Poly::from_u64(0b10010001); // x^7 + x^4 + 1
        let mut tx = StateSpaceLfsr::additive_scrambler(&s_poly).unwrap();
        let mut rx = StateSpaceLfsr::additive_scrambler(&s_poly).unwrap();
        let seed = BitVec::from_u64(0b1011101, 7);
        tx.set_state(seed.clone());
        rx.set_state(seed);
        let data = BitVec::from_u64(0xDEAD_BEEF_CAFE, 48);
        let scrambled = tx.transduce(&data);
        let restored = rx.transduce(&scrambled);
        assert_eq!(restored, data);
        assert_ne!(scrambled, data, "scrambler should actually change the data");
    }

    #[test]
    fn scrambler_is_autonomous() {
        // The state trajectory must not depend on the input bits (b = 0).
        let s_poly = Gf2Poly::from_u64(0b10010001);
        let mut a = StateSpaceLfsr::additive_scrambler(&s_poly).unwrap();
        let mut b = StateSpaceLfsr::additive_scrambler(&s_poly).unwrap();
        let seed = BitVec::from_u64(0x55, 7);
        a.set_state(seed.clone());
        b.set_state(seed);
        a.transduce(&BitVec::from_u64(0xFFFF, 16));
        b.transduce(&BitVec::from_u64(0x0000, 16));
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn multiplicative_statespace_roundtrip_and_selfsync() {
        // 64B/66B PCS polynomial x^58 + x^39 + 1.
        let s_poly = {
            let mut p = Gf2Poly::x_pow(58);
            p.set_coeff(39, true);
            p.set_coeff(0, true);
            p
        };
        let mut tx = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
        let mut rx = StateSpaceLfsr::multiplicative_descrambler(&s_poly).unwrap();
        // Mismatched seeds: tx random, rx zero.
        tx.set_state(BitVec::from_u64(
            0x0123_4567_89AB_CDEF & ((1 << 58) - 1),
            58,
        ));
        let data = BitVec::from_u128(0xFEED_FACE_0123_4567_89AB_CDEF_5555, 120);
        let scrambled = tx.transduce(&data);
        let restored = rx.transduce(&scrambled);
        // Self-synchronisation: exact after the first 58 bits.
        for i in 58..120 {
            assert_eq!(restored.get(i), data.get(i), "bit {i}");
        }
        // With matching seeds it is exact from bit 0.
        let mut tx2 = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
        let mut rx2 = StateSpaceLfsr::multiplicative_descrambler(&s_poly).unwrap();
        let seed = BitVec::from_u64(0x5A5A_5A5A, 58);
        tx2.set_state(seed.clone());
        rx2.set_state(seed);
        assert_eq!(rx2.transduce(&tx2.transduce(&data)), data);
    }

    #[test]
    fn multiplicative_statespace_matches_direct_recurrence() {
        // y_t = u_t ^ y_{t-3} ^ y_{t-7} for s(x) = x^7 + x^3 + 1.
        let s_poly = Gf2Poly::from_u64(0b1000_1001);
        let mut sys = StateSpaceLfsr::multiplicative_scrambler(&s_poly).unwrap();
        let data = BitVec::from_u64(0xBEEF_CAFE_1234, 48);
        let got = sys.transduce(&data);
        let mut hist = [false; 7]; // hist[i] = y from i+1 steps ago
        let mut expect = BitVec::zeros(48);
        for t in 0..48 {
            let y = data.get(t) ^ hist[2] ^ hist[6];
            if y {
                expect.set(t, true);
            }
            hist.rotate_right(1);
            hist[0] = y;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn fibonacci_matrix_period_of_primitive_poly() {
        // x^7 + x^4 + 1 is primitive (802.11 scrambler); period 127.
        let a = fibonacci_matrix(&Gf2Poly::from_u64(0b10010001));
        assert_eq!(a.pow(127), BitMat::identity(7));
        assert_ne!(a.pow(63), BitMat::identity(7));
    }

    #[test]
    fn rejects_degree_zero() {
        assert_eq!(
            StateSpaceLfsr::crc(&Gf2Poly::one()).unwrap_err(),
            LfsrError::DegreeTooSmall
        );
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let a = BitMat::identity(3);
        let b = BitVec::zeros(4);
        let c = BitMat::identity(3);
        let d = BitVec::zeros(3);
        assert!(matches!(
            StateSpaceLfsr::new(a, b, c, d),
            Err(LfsrError::DimensionMismatch { .. })
        ));
    }
}
