//! Bit-packed vectors over GF(2).
//!
//! [`BitVec`] is the fundamental value type of the whole workspace: LFSR
//! states, message blocks, matrix rows and netlist signals are all `BitVec`s.
//! Bit `i` is stored at bit `i % 64` of word `i / 64` (LSB-first), and all
//! bits beyond `len` are kept zero as an internal invariant.

use std::fmt;
use std::ops::{BitXor, BitXorAssign};

/// A fixed-length vector of bits over GF(2).
///
/// Addition over GF(2) is exclusive-or, provided through [`BitXorAssign`].
///
/// # Examples
///
/// ```
/// use gf2::BitVec;
///
/// let mut v = BitVec::zeros(8);
/// v.set(3, true);
/// v ^= &BitVec::from_u64(0b1001, 8);
/// assert_eq!(v.to_u64(), 0b0001);
/// assert_eq!(v.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            len,
            words: vec![!0u64; words_for(len)],
        };
        v.mask_tail();
        v
    }

    /// Creates a `len`-bit vector from the low bits of `value`.
    ///
    /// Bits of `value` above `len` are discarded; bits above 64 are zero.
    pub fn from_u64(value: u64, len: usize) -> Self {
        let mut v = BitVec::zeros(len);
        if len > 0 {
            v.words[0] = value;
            v.mask_tail();
        }
        v
    }

    /// Creates a vector from an iterator of bits, LSB (index 0) first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Creates a unit vector `e_index` of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn unit(index: usize, len: usize) -> Self {
        let mut v = BitVec::zeros(len);
        v.set(index, true);
        v
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        if value {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Dot product over GF(2): parity of `self AND other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot product of unequal lengths");
        let ones: u32 = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum();
        ones & 1 == 1
    }

    /// Iterates over the indices of the one bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterates over all bits, index 0 first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Returns the low 64 bits as an integer (bits above 64 are ignored).
    pub fn to_u64(&self) -> u64 {
        self.words.first().copied().unwrap_or(0)
    }

    /// Returns the low 128 bits as an integer.
    pub fn to_u128(&self) -> u128 {
        let lo = self.words.first().copied().unwrap_or(0) as u128;
        let hi = self.words.get(1).copied().unwrap_or(0) as u128;
        lo | (hi << 64)
    }

    /// Creates a `len`-bit vector from the low bits of a `u128`.
    pub fn from_u128(value: u128, len: usize) -> Self {
        let mut v = BitVec::zeros(len);
        if !v.words.is_empty() {
            v.words[0] = value as u64;
        }
        if v.words.len() > 1 {
            v.words[1] = (value >> 64) as u64;
        }
        v.mask_tail();
        v
    }

    /// Returns a copy with the bit order reversed (bit `i` ↔ bit `len-1-i`).
    pub fn reversed(&self) -> Self {
        let mut out = BitVec::zeros(self.len);
        for i in self.iter_ones() {
            out.set(self.len - 1 - i, true);
        }
        out
    }

    /// Concatenates `self` (low bits) with `other` (high bits).
    pub fn concat(&self, other: &BitVec) -> Self {
        let mut out = self.resized(self.len + other.len);
        for (wi, &w) in other.words.iter().enumerate() {
            out.xor_word_at(self.len + wi * 64, w);
        }
        out
    }

    /// Returns bits `[start, start + count)` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    pub fn slice(&self, start: usize, count: usize) -> Self {
        assert!(start + count <= self.len, "slice out of range");
        let words = (0..words_for(count))
            .map(|wi| self.word_at(start + wi * 64))
            .collect();
        BitVec::from_words(words, count)
    }

    /// Returns a copy resized to `new_len` bits (truncating or zero-padding).
    pub fn resized(&self, new_len: usize) -> Self {
        let mut words = self.words.clone();
        words.resize(words_for(new_len), 0);
        BitVec::from_words(words, new_len)
    }

    /// The 64 bits `[start, start + 64)` as one word, bit `start` in the
    /// least significant position. Bits at or beyond `len` read as 0.
    ///
    /// # Panics
    ///
    /// Panics if `start > len`.
    #[inline]
    pub fn word_at(&self, start: usize) -> u64 {
        assert!(
            start <= self.len,
            "word start {start} out of range {}",
            self.len
        );
        let (wi, sh) = (start / 64, start % 64);
        let lo = self.words.get(wi).copied().unwrap_or(0);
        if sh == 0 {
            return lo;
        }
        let hi = self.words.get(wi + 1).copied().unwrap_or(0);
        (lo >> sh) | (hi << (64 - sh))
    }

    /// XORs `value` into bits `[start, start + 64)`, bit 0 of `value`
    /// landing on bit `start`. Bits that would land at or beyond `len`
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `start > len`.
    #[inline]
    pub fn xor_word_at(&mut self, start: usize, value: u64) {
        assert!(
            start <= self.len,
            "word start {start} out of range {}",
            self.len
        );
        let (wi, sh) = (start / 64, start % 64);
        if let Some(w) = self.words.get_mut(wi) {
            *w ^= value << sh;
        }
        if sh != 0 {
            if let Some(w) = self.words.get_mut(wi + 1) {
                *w ^= value >> (64 - sh);
            }
        }
        self.mask_tail();
    }

    /// Builds a `len`-bit vector from LSB-first words: bit `i` is bit
    /// `i % 64` of `words[i / 64]`. Missing words read as zero; words and
    /// bits beyond `len` are dropped.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(words_for(len), 0);
        let mut v = BitVec { len, words };
        v.mask_tail();
        v
    }

    /// Index of the highest set bit, or `None` if the vector is zero.
    pub fn highest_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        None
    }

    /// Raw backing words (LSB-first). The tail beyond `len` is zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Packs the bits into `ceil(len/8)` little-endian bytes: byte `i`
    /// holds bits `8i..8i+8`, LSB first. Unused high bits of the last
    /// byte are zero. The length itself is *not* encoded — callers that
    /// serialize a `BitVec` must store it alongside (see
    /// [`BitVec::from_le_bytes`]).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for i in self.iter_ones() {
            out[i / 8] |= 1 << (i % 8);
        }
        out
    }

    /// Rebuilds a `len`-bit vector from its [`BitVec::to_le_bytes`]
    /// encoding. Bytes beyond `ceil(len/8)` and bits beyond `len` are
    /// ignored, so a truncated-then-padded buffer round-trips exactly.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Self {
        let bytes = &bytes[..bytes.len().min(len.div_ceil(8))];
        let words = bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        BitVec::from_words(words, len)
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }

    /// In-place XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor of unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;
    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out ^= rhs;
        out
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        // MSB-first rendering so the value reads like a binary literal.
        for i in (0..self.len).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = BitVec::zeros(100);
        assert_eq!(v.len(), 100);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(69) && !v.get(35));
        v.flip(35);
        assert!(v.get(35));
        v.flip(35);
        assert!(!v.get(35));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn from_u64_masks_excess_bits() {
        let v = BitVec::from_u64(0xFF, 4);
        assert_eq!(v.to_u64(), 0xF);
        assert_eq!(v.count_ones(), 4);
    }

    #[test]
    fn ones_respects_tail() {
        let v = BitVec::ones(67);
        assert_eq!(v.count_ones(), 67);
        assert_eq!(v.words().len(), 2);
    }

    #[test]
    fn xor_is_gf2_addition() {
        let a = BitVec::from_u64(0b1100, 4);
        let b = BitVec::from_u64(0b1010, 4);
        let c = &a ^ &b;
        assert_eq!(c.to_u64(), 0b0110);
        // a + a = 0
        assert!((&a ^ &a).is_zero());
    }

    #[test]
    fn dot_product_parity() {
        let a = BitVec::from_u64(0b1110, 4);
        let b = BitVec::from_u64(0b0111, 4);
        // common ones at bits 1,2 -> parity 0
        assert!(!a.dot(&b));
        let c = BitVec::from_u64(0b0010, 4);
        assert!(a.dot(&c));
    }

    #[test]
    fn iter_ones_order() {
        let v = BitVec::from_bits([true, false, true, false, false, true]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn reversed_roundtrip() {
        let v = BitVec::from_u64(0b1011000, 7);
        let r = v.reversed();
        assert_eq!(r.to_u64(), 0b0001101);
        assert_eq!(r.reversed(), v);
    }

    #[test]
    fn concat_and_slice() {
        let a = BitVec::from_u64(0b101, 3);
        let b = BitVec::from_u64(0b11, 2);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.to_u64(), 0b11101);
        assert_eq!(c.slice(0, 3), a);
        assert_eq!(c.slice(3, 2), b);
    }

    #[test]
    fn highest_one() {
        assert_eq!(BitVec::zeros(10).highest_one(), None);
        assert_eq!(BitVec::from_u64(0b100100, 10).highest_one(), Some(5));
        let mut v = BitVec::zeros(130);
        v.set(129, true);
        assert_eq!(v.highest_one(), Some(129));
    }

    #[test]
    fn u128_roundtrip() {
        let x = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128;
        let v = BitVec::from_u128(x, 128);
        assert_eq!(v.to_u128(), x);
    }

    #[test]
    fn resized_truncates_and_pads() {
        let v = BitVec::from_u64(0b1111, 4);
        assert_eq!(v.resized(2).to_u64(), 0b11);
        assert_eq!(v.resized(8).to_u64(), 0b1111);
        assert_eq!(v.resized(8).len(), 8);
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(4);
        v.get(4);
    }

    #[test]
    fn le_bytes_round_trip() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 100] {
            let mut v = BitVec::zeros(len);
            for i in (0..len).step_by(3) {
                v.set(i, true);
            }
            let bytes = v.to_le_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8), "len={len}");
            assert_eq!(BitVec::from_le_bytes(&bytes, len), v, "len={len}");
        }
    }

    #[test]
    fn le_bytes_layout_is_lsb_first() {
        let v = BitVec::from_u64(0x1A3, 9);
        assert_eq!(v.to_le_bytes(), vec![0xA3, 0x01]);
        // Extra bytes and bits beyond `len` are ignored on decode.
        assert_eq!(
            BitVec::from_le_bytes(&[0xA3, 0xFF, 0xEE], 9).to_u64(),
            0x1A3
        );
    }
}
