//! Affine maps over GF(2) compiled to byte tables.
//!
//! [`AffineTable`] applies `y = c ⊕ M·u` by the method of four Russians
//! with 8-bit blocks: for every 8 input bits it stores the 256 products
//! `M·v` of that block's columns, packed as output words. An application
//! then costs one table-row XOR per input byte, where
//! [`BitMat::mul_vec`] costs one row dot product per output bit.

use crate::bitvec::BitVec;
use crate::matrix::BitMat;
use std::fmt;

/// An affine map `y = c ⊕ M·u` from `n_in` to `n_out` bits, stored as
/// `n_in.div_ceil(8)` tables of 256 entries of `n_out.div_ceil(64)`
/// words each.
///
/// # Examples
///
/// ```
/// use gf2::{AffineTable, BitMat, BitVec};
///
/// let m = BitMat::from_rows(vec![
///     BitVec::from_u64(0b1011, 4),
///     BitVec::from_u64(0b0110, 4),
///     BitVec::from_u64(0b1111, 4),
/// ]);
/// let c = BitVec::from_u64(0b100, 3);
/// let t = AffineTable::from_matrix(&m, &c);
/// let u = BitVec::from_u64(0b0101, 4);
/// let mut y = [0u64];
/// t.apply(u.words(), &mut y);
/// assert_eq!(BitVec::from_words(y.to_vec(), 3), &m.mul_vec(&u) ^ &c);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct AffineTable {
    n_in: usize,
    n_out: usize,
    /// Input bytes, `n_in.div_ceil(8)`.
    groups: usize,
    /// Words per output vector.
    words: usize,
    /// `c`, `words` words.
    offset: Vec<u64>,
    /// Entry `v` of byte `g` is `table[(256·g + v)·words..][..words]`,
    /// the product of `M` with `v` placed at input bits `8g..8g + 8`.
    table: Vec<u64>,
}

impl AffineTable {
    /// Builds the map from its offset `c` and its columns `M·e_i`, all as
    /// LSB-first words of `w = n_out.div_ceil(64)` words each: column `i`
    /// is `columns[i·w..(i + 1)·w]`. Bits at or beyond `n_out` are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is shorter than `w` words or `columns` shorter
    /// than `n_in·w` words.
    pub fn from_columns(n_in: usize, n_out: usize, offset: &[u64], columns: &[u64]) -> Self {
        let w = n_out.div_ceil(64);
        assert!(offset.len() >= w, "offset needs {w} words");
        assert!(columns.len() >= n_in * w, "columns need {} words", n_in * w);
        let tail = if n_out.is_multiple_of(64) {
            u64::MAX
        } else {
            (1 << (n_out % 64)) - 1
        };
        let mask = |o: usize, x: u64| if o + 1 == w { x & tail } else { x };
        let groups = n_in.div_ceil(8);
        let mut table = vec![0u64; groups * 256 * w];
        for (g, block) in table.chunks_exact_mut(256 * w).enumerate() {
            // Entry v extends the entry without v's lowest set bit by that
            // bit's column; bits past n_in have no column and add nothing.
            for v in 1..256usize {
                let i = 8 * g + v.trailing_zeros() as usize;
                let prev = (v & (v - 1)) * w;
                for o in 0..w {
                    let col = if i < n_in {
                        mask(o, columns[i * w + o])
                    } else {
                        0
                    };
                    block[v * w + o] = block[prev + o] ^ col;
                }
            }
        }
        AffineTable {
            n_in,
            n_out,
            groups,
            words: w,
            offset: (0..w).map(|o| mask(o, offset[o])).collect(),
            table,
        }
    }

    /// Builds the map `u ↦ c ⊕ M·u` from a matrix and an offset.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != m.rows()`.
    pub fn from_matrix(m: &BitMat, c: &BitVec) -> Self {
        assert_eq!(c.len(), m.rows(), "offset length must match the rows");
        let columns: Vec<u64> = (0..m.cols())
            .flat_map(|j| m.column(j).words().to_vec())
            .collect();
        AffineTable::from_columns(m.cols(), m.rows(), c.words(), &columns)
    }

    /// Input width `n_in`.
    pub fn n_inputs(&self) -> usize {
        self.n_in
    }

    /// Output width `n_out`.
    pub fn n_outputs(&self) -> usize {
        self.n_out
    }

    /// Words of one output vector, `n_out.div_ceil(64)`.
    pub fn out_words(&self) -> usize {
        self.words
    }

    /// Heap bytes held by the tables and the offset.
    pub fn heap_bytes(&self) -> usize {
        8 * (self.table.len() + self.offset.len())
    }

    /// `out = c ⊕ M·u`, with `u` read LSB-first from `input` (bit `i`
    /// is bit `i % 64` of `input[i / 64]`; bits at or beyond `n_in` are
    /// ignored) and `out` receiving [`AffineTable::out_words`] words.
    ///
    /// # Panics
    ///
    /// Panics if `input` holds fewer than `n_in.div_ceil(64)` words or
    /// `out` fewer than `out_words`.
    #[inline]
    pub fn apply(&self, input: &[u64], out: &mut [u64]) {
        self.apply_with(|i| input[i], out);
    }

    /// `out ^= M·u` — [`AffineTable::apply`] without the offset.
    ///
    /// # Panics
    ///
    /// As [`AffineTable::apply`].
    #[inline]
    pub fn xor_product(&self, input: &[u64], out: &mut [u64]) {
        self.xor_product_with(|i| input[i], out);
    }

    /// [`AffineTable::apply`] with input word `i` read through
    /// `word(i)`, for `i < n_in.div_ceil(64)`.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `out_words` words.
    #[inline]
    pub fn apply_with(&self, word: impl Fn(usize) -> u64, out: &mut [u64]) {
        if self.words == 1 {
            out[0] = self.offset[0] ^ self.product_word(word);
        } else {
            out[..self.words].copy_from_slice(&self.offset);
            self.xor_product_with(word, out);
        }
    }

    /// [`AffineTable::xor_product`] with input word `i` read through
    /// `word(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `out_words` words.
    #[inline]
    pub fn xor_product_with(&self, word: impl Fn(usize) -> u64, out: &mut [u64]) {
        let w = self.words;
        if w == 1 {
            out[0] ^= self.product_word(word);
            return;
        }
        let out = &mut out[..w];
        self.for_each_byte(word, |row| {
            let e = &self.table[row * w..][..w];
            for (o, t) in out.iter_mut().zip(e) {
                *o ^= t;
            }
        });
    }

    /// `c ⊕ M·u` as one word, for maps of at most 64 outputs, with input
    /// word `i` read through `word(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_out > 64`.
    #[inline]
    pub fn apply_word(&self, word: impl Fn(usize) -> u64) -> u64 {
        assert!(self.words <= 1, "apply_word needs at most 64 outputs");
        match self.offset.first() {
            Some(&c) => c ^ self.product_word(word),
            None => 0,
        }
    }

    /// [`AffineTable::apply_word`] on an input of whole words read in
    /// place: `input` holds the `n_in / 64` words of `u`, and each word
    /// sweeps its eight byte tables directly.
    ///
    /// # Panics
    ///
    /// Panics if `n_out > 64`, and in debug builds unless `input` holds
    /// exactly `n_in / 64` words and `n_in` is a multiple of 64.
    #[inline]
    pub fn apply_whole_words(&self, input: &[u64]) -> u64 {
        assert!(
            self.words <= 1,
            "apply_whole_words needs at most 64 outputs"
        );
        debug_assert_eq!(64 * input.len(), self.n_in, "whole input words");
        let Some(&c) = self.offset.first() else {
            return 0;
        };
        let (bytes, _) = self.table.as_chunks::<256>();
        let (words, _) = bytes.as_chunks::<8>();
        let mut y = c;
        for (&x, tables) in input.iter().zip(words) {
            for (j, e) in tables.iter().enumerate() {
                y ^= e[((x >> (8 * j)) & 0xFF) as usize];
            }
        }
        y
    }

    /// `M·u` for a one-word map.
    #[inline]
    fn product_word(&self, word: impl Fn(usize) -> u64) -> u64 {
        let mut y = 0;
        self.for_each_byte(word, |row| y ^= self.table[row]);
        y
    }

    /// Calls `visit(256·g + v)` for every input byte `g` with value `v`,
    /// reading each input word once.
    #[inline]
    fn for_each_byte(&self, word: impl Fn(usize) -> u64, mut visit: impl FnMut(usize)) {
        let (full, rest) = (self.groups / 8, self.groups % 8);
        for i in 0..full {
            let x = word(i);
            for j in 0..8 {
                visit(((8 * i + j) << 8) | ((x >> (8 * j)) & 0xFF) as usize);
            }
        }
        if rest != 0 {
            let x = word(full);
            for j in 0..rest {
                visit(((8 * full + j) << 8) | ((x >> (8 * j)) & 0xFF) as usize);
            }
        }
    }
}

impl fmt::Debug for AffineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AffineTable")
            .field("n_in", &self.n_in)
            .field("n_out", &self.n_out)
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn bits(next: &mut impl FnMut() -> u64, len: usize) -> BitVec {
        BitVec::from_words((0..len.div_ceil(64)).map(|_| next()).collect(), len)
    }

    #[test]
    fn matches_matrix_products_at_awkward_widths() {
        let mut next = rng(0x5EED);
        for (rows, cols) in [
            (1, 1),
            (3, 13),
            (32, 8),
            (64, 64),
            (65, 9),
            (130, 71),
            (7, 0),
        ] {
            let m = BitMat::from_rows((0..rows).map(|_| bits(&mut next, cols)).collect());
            let c = bits(&mut next, rows);
            let t = AffineTable::from_matrix(&m, &c);
            assert_eq!(
                t.heap_bytes(),
                8 * t.out_words() * (256 * cols.div_ceil(8) + 1)
            );
            for _ in 0..20 {
                let u = bits(&mut next, cols);
                // Garbage past n_in in the last word must be ignored.
                let mut input = u.words().to_vec();
                if let Some(last) = input.last_mut() {
                    if cols % 64 != 0 {
                        *last |= next() << (cols % 64);
                    }
                }
                input.resize(cols.div_ceil(64), 0);
                let mut y = vec![0u64; t.out_words()];
                t.apply(&input, &mut y);
                let want = &m.mul_vec(&u) ^ &c;
                assert_eq!(BitVec::from_words(y.clone(), rows), want, "{rows}x{cols}");
                assert_eq!(y, want.words(), "no bits past n_out");
            }
        }
    }

    #[test]
    fn whole_words_match_the_word_reader() {
        let mut next = rng(0x0A11_0F64);
        for (rows, cols) in [(1, 64), (5, 256), (16, 192), (32, 128), (64, 64)] {
            let m = BitMat::from_rows((0..rows).map(|_| bits(&mut next, cols)).collect());
            let t = AffineTable::from_matrix(&m, &bits(&mut next, rows));
            for _ in 0..20 {
                let u = bits(&mut next, cols);
                let want = t.apply_word(|i| u.words()[i]);
                assert_eq!(t.apply_whole_words(u.words()), want, "{rows}x{cols}");
            }
        }
    }
}
