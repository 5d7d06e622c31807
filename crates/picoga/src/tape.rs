//! How the host executes a placed operation: a compiled, bitsliced tape.
//!
//! When a context is loaded, its network is flattened into a [`Tape`]:
//! the gates in placement-row order, each with its fan-in signal indices,
//! and with the physical stuck-at cells under the placement resolved to
//! forced words. The tape evaluates 64 independent input vectors per
//! `u64` — bit `j` of every word belongs to vector `j` — so 64 blocks of
//! a stream go through the network in one pass.
//!
//! Row order is part of the semantics, not an optimisation. A pristine
//! placement is topological, but a wire flip may make a gate read a gate
//! that is placed in a *later* row. The row pipeline sees that wire
//! before the later gate has produced anything, that is, as 0. The
//! compiler drops such reads (and taps of never-computed signals), which
//! is exactly what a row-by-row evaluation from a zeroed value buffer
//! yields; every read the tape does make is of a signal written earlier
//! in the same pass, so the value buffer never needs clearing.

use crate::op::Placement;
use xornet::XorNetwork;

/// One gate of the tape: `values[dst] = force ^ XOR of values[fanin[lo..hi]]`.
/// A stuck cell has an empty fan-in range and `force` all zeros or ones.
#[derive(Debug, Clone, Copy)]
struct Step {
    dst: u32,
    lo: u32,
    hi: u32,
    force: u64,
}

/// A context's network compiled for 64-lane evaluation.
#[derive(Debug, Clone)]
pub(crate) struct Tape {
    n_inputs: usize,
    n_signals: usize,
    steps: Vec<Step>,
    fanin: Vec<u32>,
    /// Output taps; `None` reads constant 0 (untapped, or a signal the
    /// placement never computes).
    outputs: Vec<Option<u32>>,
}

fn index(s: usize) -> u32 {
    u32::try_from(s).expect("signal index fits u32")
}

impl Tape {
    /// Compiles `net` under `placement`, with `stuck` holding the
    /// fabric's stuck-at cells as `(row, cell, value)`. Cells holding no
    /// gate of this placement are harmless; when several stuck cells name
    /// the same gate, the first one listed wins.
    pub(crate) fn compile(
        net: &XorNetwork,
        placement: &Placement,
        stuck: &[(usize, usize, bool)],
    ) -> Tape {
        let forced: Vec<(usize, bool)> = stuck
            .iter()
            .filter_map(|&(row, cell, value)| {
                placement
                    .rows()
                    .get(row)
                    .and_then(|r| r.get(cell))
                    .map(|&gi| (gi, value))
            })
            .collect();
        let n_in = net.n_inputs();
        let mut ready = vec![false; net.n_signals()];
        ready[..n_in].fill(true);
        let mut steps = Vec::with_capacity(placement.cell_count());
        let mut fanin = Vec::new();
        for &gi in placement.rows().iter().flatten() {
            let lo = index(fanin.len());
            let force = match forced.iter().find(|&&(g, _)| g == gi) {
                Some(&(_, value)) => u64::from(value).wrapping_neg(),
                None => {
                    let live = net.gates()[gi].inputs.iter().filter(|&&s| ready[s]);
                    fanin.extend(live.map(|&s| index(s)));
                    0
                }
            };
            steps.push(Step {
                dst: index(n_in + gi),
                lo,
                hi: index(fanin.len()),
                force,
            });
            ready[n_in + gi] = true;
        }
        let outputs = net
            .outputs()
            .iter()
            .map(|o| o.filter(|&s| ready[s]).map(index))
            .collect();
        Tape {
            n_inputs: n_in,
            n_signals: net.n_signals(),
            steps,
            fanin,
            outputs,
        }
    }

    pub(crate) fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    pub(crate) fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Sizes `values` for this tape (one word per signal).
    pub(crate) fn prepare(&self, values: &mut Vec<u64>) {
        values.resize(self.n_signals, 0);
    }

    /// Runs every gate over `values`, whose first `n_inputs` words hold
    /// the input lanes.
    pub(crate) fn run(&self, values: &mut [u64]) {
        for st in &self.steps {
            let ins = &self.fanin[st.lo as usize..st.hi as usize];
            values[st.dst as usize] = ins.iter().fold(st.force, |a, &s| a ^ values[s as usize]);
        }
    }

    /// Output `o`'s lanes after [`Tape::run`]; 0 past the last output.
    pub(crate) fn output(&self, values: &[u64], o: usize) -> u64 {
        self.outputs
            .get(o)
            .copied()
            .flatten()
            .map_or(0, |s| values[s as usize])
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of word `r` trades
/// places with bit `r` of word `c`.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> width) ^ a[k + width]) & mask;
            a[k] ^= t << width;
            a[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Loads the lanes of `n ≤ 64` vectors: afterwards bit `j` of `lanes[i]`
/// is bit `i` of vector `j`, where `row(j, g)` returns bits
/// `[64g, 64g + 64)` of vector `j` (bits past `lanes.len()` are ignored).
pub(crate) fn gather(lanes: &mut [u64], n: usize, row: impl Fn(usize, usize) -> u64) {
    debug_assert!(n <= 64);
    if n == 1 {
        for (i, l) in lanes.iter_mut().enumerate() {
            *l = (row(0, i / 64) >> (i % 64)) & 1;
        }
        return;
    }
    let mut buf = [0u64; 64];
    for (g, chunk) in lanes.chunks_mut(64).enumerate() {
        for (j, b) in buf.iter_mut().enumerate() {
            *b = if j < n { row(j, g) } else { 0 };
        }
        transpose64(&mut buf);
        chunk.copy_from_slice(&buf[..chunk.len()]);
    }
}

/// The inverse of [`gather`] for `width` lanes read through `lane(i)`:
/// `put(j, g, w)` receives bits `[64g, 64g + 64)` of vector `j < n`.
pub(crate) fn scatter(
    width: usize,
    n: usize,
    lane: impl Fn(usize) -> u64,
    mut put: impl FnMut(usize, usize, u64),
) {
    let mut buf = [0u64; 64];
    for g in 0..width.div_ceil(64) {
        for (i, b) in buf.iter_mut().enumerate() {
            let idx = 64 * g + i;
            *b = if idx < width { lane(idx) } else { 0 };
        }
        transpose64(&mut buf);
        for (j, &w) in buf.iter().enumerate().take(n) {
            put(j, g, w);
        }
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

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut next = rng(7);
        let a: [u64; 64] = std::array::from_fn(|_| next());
        let mut t = a;
        transpose64(&mut t);
        for (r, tr) in t.iter().enumerate() {
            for (c, ac) in a.iter().enumerate() {
                assert_eq!((tr >> c) & 1, (ac >> r) & 1, "({r},{c})");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, a, "an involution");
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let mut next = rng(11);
        for (width, n) in [(8usize, 64usize), (130, 17), (64, 1), (200, 64), (3, 5)] {
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..width.div_ceil(64)).map(|_| next()).collect())
                .collect();
            let mut lanes = vec![0u64; width];
            gather(&mut lanes, n, |j, g| rows[j][g]);
            for (i, l) in lanes.iter().enumerate() {
                for (j, r) in rows.iter().enumerate() {
                    assert_eq!((l >> j) & 1, (r[i / 64] >> (i % 64)) & 1);
                }
                if n < 64 {
                    assert_eq!(l >> n, 0, "unused lanes are 0");
                }
            }
            let mut back = vec![vec![0u64; width.div_ceil(64)]; n];
            scatter(width, n, |i| lanes[i], |j, g, w| back[j][g] = w);
            for (b, r) in back.iter().zip(&rows) {
                for g in 0..b.len() {
                    let bits = (width - 64 * g).min(64);
                    let mask = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
                    assert_eq!(b[g], r[g] & mask);
                }
            }
        }
    }
}
