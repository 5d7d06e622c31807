//! A context's transfer function, compiled once per configuration.
//!
//! Every configuration the fault model can produce computes an affine
//! map: the gates are XORs, a stuck cell forces a constant, and a read of
//! a signal placed in a later row is a constant 0. So the tape's
//! responses to the zero vector and the basis vectors determine every
//! output bit: the zero response is the offset `c`, and the response to
//! `e_i` is `c ⊕ M·e_i`. [`Compiled`] keeps those responses as byte
//! tables ([`gf2::AffineTable`]), split where the operation's state
//! inputs end, so the stream loops feed the state and the data block
//! from separate words: `y = c ⊕ S·x ⊕ D·u`.
//!
//! A CRC update or a scrambler whose block width M divides 64 may also
//! get a [`WordTable`]: `L = 64/M` issues composed into one step per
//! 64-bit word of a packed message. It is derived from the compile's
//! tables and the feedback row, built only once the compile has streamed
//! enough blocks to pay for it, and dies with the compile.

use crate::op::{CompanionFeedback, PgaOperation};
use crate::tape::{scatter, Tape};
use gf2::AffineTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The host's form of one context: the tape, and the tables swept from it.
#[derive(Debug)]
pub(crate) struct Compiled {
    /// The gates in row order, which `affine_probe` sweeps at probe time.
    pub(crate) tape: Tape,
    /// `x ↦ S·x` over the state inputs: the first `k` inputs of a dense
    /// update or a scrambler, none for linear and CRC-update operations.
    pub(crate) state: AffineTable,
    /// `u ↦ c ⊕ D·u` over the data inputs (the rest).
    pub(crate) data: AffineTable,
    /// `D` is the identity: every data column is its unit vector.
    unit_data: bool,
    /// The word table of a CRC update or a scrambler, once built.
    word: OnceLock<WordTable>,
    /// Blocks packed streams have run through the per-block loop of this
    /// compile while it had no word table.
    streamed: AtomicUsize,
}

/// Equality of the compiled map: the word table, the block count and
/// whether `D` is the identity are derived state, so whether the table
/// has been built yet does not count.
impl PartialEq for Compiled {
    fn eq(&self, other: &Self) -> bool {
        (&self.tape, &self.state, &self.data) == (&other.tape, &other.state, &other.data)
    }
}

impl Eq for Compiled {}

impl Compiled {
    /// Compiles `op` on a fabric whose stuck-at cells are `stuck`, as
    /// `(row, cell, value)`.
    pub(crate) fn new(op: &PgaOperation, stuck: &[(usize, usize, bool)]) -> Compiled {
        let tape = Tape::compile(op.network(), op.placement(), stuck);
        let n = tape.n_inputs();
        let k = state_inputs(op).min(n);
        // A CRC update's row feeds exactly k outputs into the state; past
        // the network's outputs they read 0, as on the fabric.
        let width = op
            .feedback()
            .filter(|_| op.is_crc_update())
            .map_or(op.network().outputs().len(), |fb| fb.k);
        let w = width.div_ceil(64);
        // Response v (v = 0 the zero vector, v = i + 1 for e_i) at
        // resp[v·w..(v + 1)·w].
        let mut resp = vec![0u64; (n + 1) * w];
        let mut values = Vec::new();
        tape.sweep(&mut values, |lo, values| {
            scatter(
                width,
                (n + 1 - lo).min(64),
                |o| tape.output(values, o),
                |j, g, word| resp[(lo + j) * w + g] = word,
            );
            true
        });
        let (offset, columns) = resp.split_at_mut(w);
        for (i, c) in columns.iter_mut().enumerate() {
            *c ^= offset[i % w];
        }
        let (x_cols, u_cols) = columns.split_at(k * w);
        let unit_data = w == 1 && u_cols.len() == width && (0..width).all(|t| u_cols[t] == 1 << t);
        Compiled {
            state: AffineTable::from_columns(k, width, &vec![0; w], x_cols),
            data: AffineTable::from_columns(n - k, width, offset, u_cols),
            unit_data,
            tape,
            word: OnceLock::new(),
            streamed: AtomicUsize::new(0),
        }
    }

    /// Words of one result vector.
    pub(crate) fn out_words(&self) -> usize {
        self.data.out_words()
    }

    /// The word table of this CRC update or scrambler compile (feedback
    /// `fb`), for a packed stream of `n` more blocks. It is built once
    /// the blocks packed streams have run block by block through this
    /// compile, these `n` included, reach its entry count: rent until the
    /// rent paid equals the price. `None` before then, and for an
    /// operation that has none (k > 64, M ≥ 64, M not dividing 64, or a
    /// scrambler whose blocks do not yield M output bits).
    pub(crate) fn word_table(&self, fb: &CompanionFeedback, n: usize) -> Option<&WordTable> {
        if let Some(t) = self.word.get() {
            return Some(t);
        }
        let entries = self.word_entries(fb.k)?;
        let streamed = self.streamed.fetch_add(n, Ordering::Relaxed) + n;
        (streamed >= entries).then(|| {
            self.word.get_or_init(|| {
                if self.state.n_inputs() > 0 {
                    WordTable::Scrambler(ScramblerWords::new(self, fb))
                } else {
                    WordTable::Crc(CrcWords::new(&self.data, fb))
                }
            })
        })
    }

    /// The words of the word table a `k`-bit state gets over this
    /// compile, or `None` when it gets none. A CRC update's: eight byte
    /// tables over the message word and `ceil(h/8)` over the top
    /// `h = min(L, k)` state bits. A scrambler's: two words per entry of
    /// its `ceil(k/8)` state-byte tables, and the eight message-word
    /// tables only when `D` is not the identity.
    pub(crate) fn word_entries(&self, k: usize) -> Option<usize> {
        let m = self.data.n_inputs();
        if !((1..=64).contains(&k) && m < 64 && 64usize.is_multiple_of(m)) {
            return None;
        }
        // A scrambler reads its state through the state table; a CRC
        // update's state passes through the feedback row alone.
        let tables = if self.state.n_inputs() == 0 {
            8 + (64 / m).min(k).div_ceil(8)
        } else if self.data.n_outputs() == m {
            2 * k.div_ceil(8) + if self.unit_data { 0 } else { 8 }
        } else {
            return None;
        };
        Some(256 * tables)
    }

    /// Whether the word table has been built.
    #[cfg(test)]
    pub(crate) fn has_word_table(&self) -> bool {
        self.word.get().is_some()
    }
}

/// `L = 64/M` issues of a CRC update or a scrambler composed into one
/// step per 64-bit message word. The columns come from the compile's own
/// tables and the feedback row, so the composite is exact for every
/// configuration the fault model produces.
#[derive(Debug)]
pub(crate) enum WordTable {
    /// A CRC update's.
    Crc(CrcWords),
    /// A scrambler's.
    Scrambler(ScramblerWords),
}

/// A CRC update's word step.
///
/// One issue is `s ← A·s ⊕ c ⊕ D·u_b`, with `A` the feedback row's
/// companion matrix and `c ⊕ D·u_b` the data table's answer to block
/// `b`. `L` of them give
/// `s ← A^L·s ⊕ Σ_{i<L} A^{L−1−i}·(c ⊕ D·u_i)`: an affine map of the
/// message word (block `i` is its bits `[i·M, (i + 1)·M)`), kept as
/// eight byte tables, plus `A^L·s`.
///
/// `A^L` on the state: the bits below `k − h`, `h = min(L, k)`, only
/// shift up by `L`; the top `h` go through byte tables of their own —
/// Sarwate's table, `L` bits at a time. So the loop-carried chain is a
/// shift, one lookup (`h ≤ 8`) and the XORs.
#[derive(Debug)]
pub(crate) struct CrcWords {
    /// Blocks per word, `L`.
    blocks: usize,
    /// The state bits that only shift under `A^L`, and by how much.
    low: u64,
    shift: u32,
    /// Where the top `h` state bits start, and `A^L` on them, 256
    /// entries per byte of them.
    top_at: u32,
    top: Vec<[u64; 256]>,
    /// The data term of the word, 256 entries per byte of the message
    /// word; the constant term is folded into byte 0's entries.
    data: Box<[[u64; 256]; 8]>,
}

impl CrcWords {
    /// Composes the issues of the data table `data` (`c ⊕ D·u` over one
    /// block) and the feedback row `fb`.
    fn new(data: &AffineTable, fb: &CompanionFeedback) -> CrcWords {
        let (k, m) = (fb.k, data.n_inputs());
        let l = 64 / m;
        let step = fb.word_step();
        let pow = |v: u64, e: usize| (0..e).fold(v, |v, _| step(v, 0));
        let c = data.apply_word(|_| 0);
        // Word bit i·M + t enters block i as D·e_t, which the L − 1 − i
        // later issues carry on.
        let columns: Vec<u64> = (0..64)
            .map(|j| pow(data.apply_word(|_| 1 << (j % m)) ^ c, l - 1 - j / m))
            .collect();
        let mut bytes = word_bytes(&columns);
        let offset = (0..l).fold(0, |s, _| step(s, c));
        for e in &mut bytes[0] {
            *e ^= offset;
        }
        let h = l.min(k);
        let top: Vec<u64> = (k - h..k).map(|i| pow(1 << i, l)).collect();
        CrcWords {
            blocks: l,
            low: if h < k { (1 << (k - h)) - 1 } else { 0 },
            shift: if h < k { l as u32 } else { 0 },
            top_at: (k - h) as u32,
            top: byte_tables(&top),
            data: bytes,
        }
    }

    /// Blocks one word carries, `L`.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// The state after the `L` blocks of message word `w`, from `s`.
    #[inline]
    pub(crate) fn step(&self, s: u64, w: u64) -> u64 {
        let t = s >> self.top_at;
        let mut y = (s & self.low) << self.shift;
        for (g, e) in self.top.iter().enumerate() {
            y ^= e[((t >> (8 * g)) & 0xFF) as usize];
        }
        for (g, e) in self.data.iter().enumerate() {
            y ^= e[((w >> (8 * g)) & 0xFF) as usize];
        }
        y
    }

    /// Heap bytes of the tables.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.data[..]) + std::mem::size_of_val(&self.top[..])
    }
}

/// A scrambler's word step.
///
/// One issue outputs `y_b = c ⊕ D·u_b ⊕ S·x_b` (`S` the state table) and
/// steps `x_{b+1} = A·x_b`; no data enters the state. `L` of them write
/// the output word `Σ_{i<L} (c ⊕ D·u_i ⊕ S·A^i·x) << i·M` and leave
/// `A^L·x`.
///
/// Both state terms are linear in `x`, so one table per state byte holds
/// the byte's share of each: entry `v` of byte `g` is the keystream
/// `Σ_{i<L} S·A^i·x << i·M` and the next state `A^L·x` for `x = v << 8g`.
/// The 802.11 scrambler (k = 7) reads one entry per word, and that read
/// is the loop's only serial dependence. The message term is
/// `Σ_{i<L} D·u_i << i·M`: when the compile's data columns are the unit
/// vectors (every pristine additive scrambler, `D = I`), that is the
/// message word itself, and the word step XORs it with the constant
/// `Σ_{i<L} c << i·M`. Otherwise (a fault on the data side) it is eight
/// byte tables over the message word.
#[derive(Debug)]
pub(crate) struct ScramblerWords {
    /// Blocks per word, `L`.
    blocks: usize,
    /// The constant term, `Σ_{i<L} c << i·M`.
    offset: u64,
    /// The message term's byte tables, 256 entries per byte of the
    /// message word; `None` when `D` is the identity.
    data: Option<Box<[[u64; 256]; 8]>>,
    /// The state terms, 256 entries per byte of the state.
    state: Vec<[Share; 256]>,
}

/// One state byte's share of a scrambler word step.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct Share {
    /// Of the keystream word.
    key: u64,
    /// Of the state `L` blocks on.
    next: u64,
}

impl ScramblerWords {
    /// Composes the issues of the scrambler compile `code` (data table
    /// `c ⊕ D·u` and state table `S` over one block) and the feedback
    /// row `fb`.
    fn new(code: &Compiled, fb: &CompanionFeedback) -> ScramblerWords {
        let (k, m) = (fb.k, code.data.n_inputs());
        let l = 64 / m;
        let step = fb.word_step();
        let pow = |v: u64, e: usize| (0..e).fold(v, |v, _| step(v, 0));
        let c = code.data.apply_word(|_| 0);
        // Block i's output is bits [i·M, (i + 1)·M) of the output word.
        let at = |i: usize, y: u64| y << (i * m);
        let data = (!code.unit_data).then(|| {
            let columns: Vec<u64> = (0..64)
                .map(|j| at(j / m, code.data.apply_word(|_| 1 << (j % m)) ^ c))
                .collect();
            word_bytes(&columns)
        });
        let share = |j: usize| Share {
            key: (0..l).fold(0, |y, i| {
                y ^ at(i, code.state.apply_word(|_| pow(1 << j, i)))
            }),
            next: pow(1 << j, l),
        };
        let columns: Vec<Share> = (0..k).map(share).collect();
        let state = columns
            .chunks(8)
            .map(|cols| {
                let mut t = [Share::default(); 256];
                for v in 1..256usize {
                    let (prev, j) = (t[v & (v - 1)], v.trailing_zeros() as usize);
                    let col = cols.get(j).copied().unwrap_or_default();
                    t[v] = Share {
                        key: prev.key ^ col.key,
                        next: prev.next ^ col.next,
                    };
                }
                t
            })
            .collect();
        ScramblerWords {
            blocks: l,
            offset: (0..l).fold(0, |y, i| y ^ at(i, c)),
            data,
            state,
        }
    }

    /// Blocks one word carries, `L`.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Writes the output word of each message word of `words` into
    /// `out`, from state `s`, and returns the state after them.
    pub(crate) fn scramble(&self, mut s: u64, words: &[u64], out: &mut [u64]) -> u64 {
        let c = self.offset;
        match &self.data {
            None => {
                for (y, &w) in out.iter_mut().zip(words) {
                    let (key, next) = self.state_step(s);
                    *y = w ^ c ^ key;
                    s = next;
                }
            }
            Some(bytes) => {
                for (y, &w) in out.iter_mut().zip(words) {
                    let (key, next) = self.state_step(s);
                    let mut d = c ^ key;
                    for (g, e) in bytes.iter().enumerate() {
                        d ^= e[((w >> (8 * g)) & 0xFF) as usize];
                    }
                    *y = d;
                    s = next;
                }
            }
        }
        s
    }

    /// The keystream word and the state `L` blocks on, from state `s`.
    /// The sums start from byte 0's share, so a one-byte state (k ≤ 8:
    /// the 802.11 scrambler) carries one lookup and no XOR from word to
    /// word.
    #[inline]
    fn state_step(&self, s: u64) -> (u64, u64) {
        let Share { mut key, mut next } = self.state[0][(s & 0xFF) as usize];
        for (g, t) in self.state.iter().enumerate().skip(1) {
            let e = &t[((s >> (8 * g)) & 0xFF) as usize];
            key ^= e.key;
            next ^= e.next;
        }
        (key, next)
    }

    /// Whether the message word passes through (`D` is the identity).
    #[cfg(test)]
    pub(crate) fn passes_data_through(&self) -> bool {
        self.data.is_none()
    }

    /// Heap bytes of the tables.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data
            .as_ref()
            .map_or(0, |d| std::mem::size_of_val(&d[..]))
            + std::mem::size_of_val(&self.state[..])
    }
}

/// The eight byte tables of a linear map of the message word with these
/// 64 columns.
fn word_bytes(columns: &[u64]) -> Box<[[u64; 256]; 8]> {
    byte_tables(columns)
        .into_boxed_slice()
        .try_into()
        .expect("a word has eight bytes")
}

/// Four-Russians tables of the linear map with these columns: for each
/// eight columns, the 256 XORs of their subsets (entry `v` of table `g`
/// holds the columns `8g + j` for the set bits `j` of `v`).
fn byte_tables(columns: &[u64]) -> Vec<[u64; 256]> {
    columns
        .chunks(8)
        .map(|cols| {
            let mut t = [0; 256];
            for v in 1..256usize {
                let j = v.trailing_zeros() as usize;
                t[v] = t[v & (v - 1)] ^ cols.get(j).copied().unwrap_or(0);
            }
            t
        })
        .collect()
}

/// The operation's state inputs: the first `k` network inputs of a dense
/// update or a scrambler.
fn state_inputs(op: &PgaOperation) -> usize {
    op.dense_update_k()
        .or_else(|| op.scrambler_m().and(op.feedback()).map(|fb| fb.k))
        .unwrap_or(0)
}
