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

use crate::op::PgaOperation;
use crate::tape::{scatter, Tape};
use gf2::AffineTable;

/// The host's form of one context: the tape, and the tables swept from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Compiled {
    /// The gates in row order, which `affine_probe` sweeps at probe time.
    pub(crate) tape: Tape,
    /// `x ↦ S·x` over the state inputs: the first `k` inputs of a dense
    /// update or a scrambler, none for linear and CRC-update operations.
    pub(crate) state: AffineTable,
    /// `u ↦ c ⊕ D·u` over the data inputs (the rest).
    pub(crate) data: AffineTable,
}

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
        Compiled {
            state: AffineTable::from_columns(k, width, &vec![0; w], x_cols),
            data: AffineTable::from_columns(n - k, width, offset, u_cols),
            tape,
        }
    }

    /// Words of one result vector.
    pub(crate) fn out_words(&self) -> usize {
        self.data.out_words()
    }
}

/// The operation's state inputs: the first `k` network inputs of a dense
/// update or a scrambler.
fn state_inputs(op: &PgaOperation) -> usize {
    op.dense_update_k()
        .or_else(|| op.scrambler_m().and(op.feedback()).map(|fb| fb.k))
        .unwrap_or(0)
}
