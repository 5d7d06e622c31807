//! Symbolic GF(2) equivalence checking: prove that a synthesized
//! [`XorNetwork`] computes exactly `y = M·x` for its source matrix.
//!
//! Over GF(2) an XOR network is a linear map by construction, so probing
//! it with every basis vector `e_j` is a **complete proof**, not a
//! sample: if `net(e_j) = M·e_j` for all `j` then `net(x) = M·x` for all
//! `x` by linearity. The probe drives [`XorNetwork::evaluate_lanes`],
//! 64 basis vectors per pass, so the proof covers the network's
//! evaluation semantics independently of the IR's own symbolic
//! `to_matrix` pass. On a mismatch, a second, forward support-tracking
//! pass localises the offending outputs and input columns.

use crate::diag::{Code, Diagnostic, Location};
use gf2::{BitMat, BitVec};
use std::fmt;
use xornet::XorNetwork;

/// One output row whose function differs from the source matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMismatch {
    /// The output (matrix row) index.
    pub output: usize,
    /// Input columns where the functions differ.
    pub bad_inputs: Vec<usize>,
}

impl fmt::Display for RowMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output {} differs on input column(s) {:?}",
            self.output, self.bad_inputs
        )
    }
}

/// Why [`check_network`] rejected a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The network and matrix do not even have matching dimensions.
    ShapeMismatch {
        /// Matrix rows (expected outputs).
        expected_outputs: usize,
        /// Matrix columns (expected inputs).
        expected_inputs: usize,
        /// Network outputs.
        got_outputs: usize,
        /// Network inputs.
        got_inputs: usize,
    },
    /// The shapes agree but the functions differ.
    NotEquivalent {
        /// Every differing output row with its differing columns.
        mismatches: Vec<RowMismatch>,
        /// Basis probes run (`= n_inputs`), for the proof record.
        probes: usize,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::ShapeMismatch {
                expected_outputs,
                expected_inputs,
                got_outputs,
                got_inputs,
            } => write!(
                f,
                "shape mismatch: matrix is {expected_outputs}x{expected_inputs}, \
                 network has {got_outputs} outputs over {got_inputs} inputs"
            ),
            EquivError::NotEquivalent { mismatches, probes } => {
                write!(
                    f,
                    "not equivalent after {probes} basis probes: {} bad row(s): ",
                    mismatches.len()
                )?;
                for (i, m) in mismatches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EquivError {}

impl EquivError {
    /// Converts the rejection into `FL000` diagnostics (one per bad
    /// output, or one for a shape mismatch).
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        match self {
            EquivError::ShapeMismatch { .. } => vec![Diagnostic::error(
                Code::NonEquivalent,
                Location::Network,
                self.to_string(),
            )],
            EquivError::NotEquivalent { mismatches, .. } => mismatches
                .iter()
                .map(|m| {
                    Diagnostic::error(
                        Code::NonEquivalent,
                        Location::Output(m.output),
                        format!(
                            "differs from source row on input column(s) {:?}",
                            m.bad_inputs
                        ),
                    )
                })
                .collect(),
        }
    }
}

/// Proves `net(x) = matrix·x` for all `x`, or reports exactly where the
/// functions differ.
///
/// # Errors
///
/// [`EquivError::ShapeMismatch`] when dimensions disagree,
/// [`EquivError::NotEquivalent`] with per-row localisation otherwise.
pub fn check_network(net: &XorNetwork, matrix: &BitMat) -> Result<(), EquivError> {
    if net.n_inputs() != matrix.cols() || net.outputs().len() != matrix.rows() {
        return Err(EquivError::ShapeMismatch {
            expected_outputs: matrix.rows(),
            expected_inputs: matrix.cols(),
            got_outputs: net.outputs().len(),
            got_inputs: net.n_inputs(),
        });
    }
    let n = net.n_inputs();
    let rows = matrix.rows();

    // Basis probe through the runtime evaluator, 64 basis vectors per
    // pass: lane j of pass c drives e_{64c+j}, so output i's word is
    // columns [64c, 64c + 64) of row i of the network's linear map.
    // Lanes past n drive the zero vector and must read 0 on both sides.
    let mut bad: Vec<Vec<usize>> = vec![Vec::new(); rows];
    let mut any = false;
    let mut inputs = vec![0u64; n];
    let mut values = Vec::new();
    for lo in (0..n).step_by(64) {
        for (i, w) in inputs.iter_mut().enumerate() {
            *w = if (lo..lo + 64).contains(&i) {
                1 << (i - lo)
            } else {
                0
            };
        }
        net.evaluate_lanes(&inputs, &mut values);
        for (i, bad_row) in bad.iter_mut().enumerate() {
            let mut diff = net.output_lanes(&values, i) ^ matrix.row(i).word_at(lo);
            any |= diff != 0;
            while diff != 0 {
                bad_row.push(lo + diff.trailing_zeros() as usize);
                diff &= diff - 1;
            }
        }
    }
    // A linear map sends 0 to 0; assert the evaluator agrees (guards
    // against a nonlinear regression in the IR itself). The evaluation
    // lives inside the assertion, so release builds skip it.
    debug_assert!(
        n == 0 || net.evaluate(&BitVec::zeros(n)).is_zero(),
        "XOR network must be linear"
    );
    if !any {
        return Ok(());
    }
    Err(not_equivalent(bad, n))
}

fn not_equivalent(bad: Vec<Vec<usize>>, probes: usize) -> EquivError {
    EquivError::NotEquivalent {
        mismatches: bad
            .into_iter()
            .enumerate()
            .filter(|(_, cols)| !cols.is_empty())
            .map(|(output, bad_inputs)| RowMismatch { output, bad_inputs })
            .collect(),
        probes,
    }
}

/// The basis probe as it ran before lane evaluation: one basis vector
/// per [`XorNetwork::evaluate`] call. Kept as the oracle the lane
/// version is tested against.
#[cfg(test)]
fn check_network_oracle(net: &XorNetwork, matrix: &BitMat) -> Result<(), EquivError> {
    if net.n_inputs() != matrix.cols() || net.outputs().len() != matrix.rows() {
        return Err(EquivError::ShapeMismatch {
            expected_outputs: matrix.rows(),
            expected_inputs: matrix.cols(),
            got_outputs: net.outputs().len(),
            got_inputs: net.n_inputs(),
        });
    }
    let n = net.n_inputs();
    let mut bad: Vec<Vec<usize>> = vec![Vec::new(); matrix.rows()];
    for j in 0..n {
        let probe = net.evaluate(&BitVec::unit(j, n));
        for (i, bad_row) in bad.iter_mut().enumerate() {
            if probe.get(i) != matrix.get(i, j) {
                bad_row.push(j);
            }
        }
    }
    if bad.iter().all(Vec::is_empty) {
        return Ok(());
    }
    Err(not_equivalent(bad, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xornet::{synthesize, SynthOptions};

    fn dense_matrix(rows: usize, cols: usize, seed: u64) -> BitMat {
        let mut m = BitMat::zeros(rows, cols);
        let mut x = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x & 1 == 1 {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    #[test]
    fn accepts_synthesized_networks() {
        for seed in 1..5u64 {
            let m = dense_matrix(16, 24, seed);
            let net = synthesize(&m, SynthOptions::default());
            assert_eq!(check_network(&net, &m), Ok(()));
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let m = dense_matrix(4, 8, 3);
        let net = synthesize(&m, SynthOptions::default());
        let wider = dense_matrix(4, 9, 3);
        assert!(matches!(
            check_network(&net, &wider),
            Err(EquivError::ShapeMismatch { .. })
        ));
        let taller = dense_matrix(5, 8, 3);
        assert!(matches!(
            check_network(&net, &taller),
            Err(EquivError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn localises_a_flipped_matrix_bit() {
        let m = dense_matrix(8, 12, 7);
        let net = synthesize(&m, SynthOptions::default());
        let mut wrong = m.clone();
        wrong.set(5, 9, !wrong.get(5, 9));
        let err = check_network(&net, &wrong).unwrap_err();
        match err {
            EquivError::NotEquivalent { mismatches, probes } => {
                assert_eq!(probes, 12);
                assert_eq!(mismatches.len(), 1);
                assert_eq!(mismatches[0].output, 5);
                assert_eq!(mismatches[0].bad_inputs, vec![9]);
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_corrupted_network() {
        // Swap two outputs of a synthesized network; unless the rows were
        // identical the checker must notice.
        let mut m = dense_matrix(6, 10, 11);
        // Force rows 0 and 1 to differ.
        m.set(0, 0, true);
        m.set(1, 0, false);
        let net = synthesize(&m, SynthOptions::default());
        let mut corrupted = XorNetwork::new(net.n_inputs(), net.max_fanin());
        for g in net.gates() {
            corrupted.add_gate(g.inputs.clone());
        }
        let outs = net.outputs();
        corrupted.add_output(outs[1]);
        corrupted.add_output(outs[0]);
        for o in &outs[2..] {
            corrupted.add_output(*o);
        }
        let err = check_network(&corrupted, &m).unwrap_err();
        match err {
            EquivError::NotEquivalent { mismatches, .. } => {
                let outputs: Vec<usize> = mismatches.iter().map(|r| r.output).collect();
                assert!(outputs.contains(&0) && outputs.contains(&1));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn diagnostics_carry_fl000() {
        let m = dense_matrix(4, 6, 5);
        let net = synthesize(&m, SynthOptions::default());
        let mut wrong = m.clone();
        wrong.set(2, 3, !wrong.get(2, 3));
        let diags = check_network(&net, &wrong).unwrap_err().diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NonEquivalent);
        assert_eq!(diags[0].location, Location::Output(2));
    }

    #[test]
    fn lane_probe_matches_the_one_vector_oracle_under_corruption() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (rows, cols) in [(8, 8), (32, 32), (32, 128), (16, 150), (3, 64)] {
            let m = dense_matrix(rows, cols, next());
            let net = synthesize(&m, SynthOptions::default());
            for _ in 0..6 {
                let mut bad = net.clone();
                for _ in 0..(next() % 3) {
                    let gi = (next() as usize) % bad.gate_count().max(1);
                    if bad.gate_count() > 0 {
                        let own = bad.n_inputs() + gi;
                        let pin = (next() as usize) % bad.gates()[gi].inputs.len();
                        bad.set_gate_input(gi, pin, (next() as usize) % own);
                    }
                }
                if next() % 2 == 0 {
                    let o = (next() as usize) % rows;
                    let tap = (next() as usize) % (bad.n_signals() + 1);
                    bad.set_output(o, (tap < bad.n_signals()).then_some(tap));
                }
                let mut target = m.clone();
                if next() % 3 == 0 {
                    let (i, j) = ((next() as usize) % rows, (next() as usize) % cols);
                    target.set(i, j, !target.get(i, j));
                }
                assert_eq!(
                    check_network(&bad, &target),
                    check_network_oracle(&bad, &target)
                );
            }
        }
        let m = dense_matrix(4, 6, 3);
        let net = synthesize(&m, SynthOptions::default());
        assert_eq!(
            check_network(&net, &BitMat::zeros(5, 6)),
            check_network_oracle(&net, &BitMat::zeros(5, 6))
        );
    }

    #[test]
    fn empty_and_wire_networks_check() {
        let m = BitMat::identity(5);
        let net = synthesize(&m, SynthOptions::default());
        assert_eq!(check_network(&net, &m), Ok(()));
        let z = BitMat::zeros(3, 4);
        let net = synthesize(&z, SynthOptions::default());
        assert_eq!(check_network(&net, &z), Ok(()));
    }
}
