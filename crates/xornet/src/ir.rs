//! XOR-network intermediate representation.
//!
//! A [`XorNetwork`] is a DAG of XOR gates over a set of primary inputs,
//! computing a *linear* function over GF(2). It is the hand-off format
//! between the synthesis flow (`synth`) and the PiCoGA / ASIC back-ends:
//! gates carry no placement yet, only fan-in lists and topological levels.

use gf2::{BitMat, BitVec};
use std::fmt;

/// Reference to a signal: primary input `0..n_inputs`, then gate outputs
/// in creation order at `n_inputs..`.
pub type SignalId = usize;

/// One multi-input XOR gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorGate {
    /// Fan-in signal ids (at least 1; a 1-input gate is a buffer).
    pub inputs: Vec<SignalId>,
}

/// A combinational XOR network.
///
/// # Invariants
///
/// * Gates only reference earlier signals (inputs or previously created
///   gates), so the gate list is already topologically ordered.
/// * Outputs reference any signal, or `None` for the constant 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorNetwork {
    n_inputs: usize,
    gates: Vec<XorGate>,
    outputs: Vec<Option<SignalId>>,
    max_fanin: usize,
}

impl XorNetwork {
    /// Creates an empty network over `n_inputs` primary inputs with the
    /// given gate fan-in limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_fanin < 2`.
    pub fn new(n_inputs: usize, max_fanin: usize) -> Self {
        assert!(max_fanin >= 2, "fan-in limit must be at least 2");
        XorNetwork {
            n_inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
            max_fanin,
        }
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gate fan-in limit this network was built under.
    pub fn max_fanin(&self) -> usize {
        self.max_fanin
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[XorGate] {
        &self.gates
    }

    /// The output signal list (`None` = constant 0).
    pub fn outputs(&self) -> &[Option<SignalId>] {
        &self.outputs
    }

    /// Total signal count (inputs + gates).
    pub fn n_signals(&self) -> usize {
        self.n_inputs + self.gates.len()
    }

    /// Adds a gate, returning its output signal id.
    ///
    /// # Panics
    ///
    /// Panics if the fan-in is empty, exceeds the limit, or references a
    /// not-yet-defined signal.
    pub fn add_gate(&mut self, inputs: Vec<SignalId>) -> SignalId {
        assert!(!inputs.is_empty(), "gate needs at least one input");
        assert!(
            inputs.len() <= self.max_fanin,
            "gate fan-in {} exceeds limit {}",
            inputs.len(),
            self.max_fanin
        );
        let next = self.n_signals();
        assert!(
            inputs.iter().all(|&s| s < next),
            "gate references undefined signal"
        );
        self.gates.push(XorGate { inputs });
        next
    }

    /// Appends an output.
    ///
    /// # Panics
    ///
    /// Panics if the signal is undefined.
    pub fn add_output(&mut self, signal: Option<SignalId>) {
        if let Some(s) = signal {
            assert!(s < self.n_signals(), "output references undefined signal");
        }
        self.outputs.push(signal);
    }

    /// Evaluates the network on concrete input bits.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n_inputs`.
    pub fn evaluate(&self, inputs: &BitVec) -> BitVec {
        assert_eq!(inputs.len(), self.n_inputs, "input width mismatch");
        let mut values = Vec::with_capacity(self.n_signals());
        for i in 0..self.n_inputs {
            values.push(inputs.get(i));
        }
        for g in &self.gates {
            let v = g.inputs.iter().fold(false, |acc, &s| acc ^ values[s]);
            values.push(v);
        }
        let mut out = BitVec::zeros(self.outputs.len());
        for (i, o) in self.outputs.iter().enumerate() {
            if let Some(s) = o {
                if values[*s] {
                    out.set(i, true);
                }
            }
        }
        out
    }

    /// Evaluates the network on 64 input vectors at once, bitsliced: bit
    /// `j` of `inputs[i]` is input `i` of vector `j`. On return `values`
    /// holds one word per signal (inputs first, then gates in creation
    /// order); read an output's word with [`XorNetwork::output_lanes`].
    /// `values` is a caller-owned buffer, reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n_inputs`.
    pub fn evaluate_lanes(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.n_inputs, "input width mismatch");
        values.clear();
        values.extend_from_slice(inputs);
        for g in &self.gates {
            let v = g.inputs.iter().fold(0, |acc, &s| acc ^ values[s]);
            values.push(v);
        }
    }

    /// Output `out_idx`'s word after [`XorNetwork::evaluate_lanes`]
    /// filled `values` (0 for an untapped output).
    pub fn output_lanes(&self, values: &[u64], out_idx: usize) -> u64 {
        self.outputs[out_idx].map_or(0, |s| values[s])
    }

    /// Topological level of every signal: inputs at level 0, each gate one
    /// level above its deepest fan-in.
    pub fn levels(&self) -> Vec<usize> {
        let mut lv = vec![0usize; self.n_signals()];
        for (gi, g) in self.gates.iter().enumerate() {
            let l = g.inputs.iter().map(|&s| lv[s]).max().unwrap_or(0) + 1;
            lv[self.n_inputs + gi] = l;
        }
        lv
    }

    /// Logic depth: maximum level over output signals (0 for wire-only
    /// networks).
    pub fn depth(&self) -> usize {
        let lv = self.levels();
        self.outputs
            .iter()
            .flatten()
            .map(|&s| lv[s])
            .max()
            .unwrap_or(0)
    }

    /// Gates grouped by level (level 1 first). The width of the widest
    /// level bounds how many cells one pipeline stage must hold.
    pub fn levelize(&self) -> Vec<Vec<usize>> {
        let lv = self.levels();
        let depth = (0..self.gates.len())
            .map(|gi| lv[self.n_inputs + gi])
            .max()
            .unwrap_or(0);
        let mut levels = vec![Vec::new(); depth];
        for gi in 0..self.gates.len() {
            levels[lv[self.n_inputs + gi] - 1].push(gi);
        }
        levels
    }

    /// Recovers the linear function as a matrix (row per output, column per
    /// input) by symbolic evaluation — the correctness oracle for the
    /// synthesis flow.
    pub fn to_matrix(&self) -> BitMat {
        // Propagate input-support bitsets through the DAG.
        let mut support: Vec<BitVec> = Vec::with_capacity(self.n_signals());
        for i in 0..self.n_inputs {
            support.push(BitVec::unit(i, self.n_inputs));
        }
        for g in &self.gates {
            let mut s = BitVec::zeros(self.n_inputs);
            for &inp in &g.inputs {
                s.xor_assign(&support[inp]);
            }
            support.push(s);
        }
        let rows = self
            .outputs
            .iter()
            .map(|o| match o {
                Some(s) => support[*s].clone(),
                None => BitVec::zeros(self.n_inputs),
            })
            .collect();
        BitMat::from_rows(rows)
    }
}

impl fmt::Display for XorNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XorNetwork: {} inputs, {} gates, {} outputs, depth {}",
            self.n_inputs,
            self.gates.len(),
            self.outputs.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain() -> XorNetwork {
        // out0 = i0^i1^i2, out1 = i2, out2 = 0
        let mut n = XorNetwork::new(3, 2);
        let g0 = n.add_gate(vec![0, 1]);
        let g1 = n.add_gate(vec![g0, 2]);
        n.add_output(Some(g1));
        n.add_output(Some(2));
        n.add_output(None);
        n
    }

    #[test]
    fn lanes_agree_with_single_vector_evaluation() {
        let net = xor_chain();
        let inputs = [0b1010_1100u64, 0b0110_0101, 0b1111_0000];
        let mut values = Vec::new();
        net.evaluate_lanes(&inputs, &mut values);
        for lane in 0..8 {
            let x = BitVec::from_bits(inputs.iter().map(|w| (w >> lane) & 1 == 1));
            let y = net.evaluate(&x);
            for o in 0..net.outputs().len() {
                assert_eq!(
                    (net.output_lanes(&values, o) >> lane) & 1 == 1,
                    y.get(o),
                    "lane {lane}, output {o}"
                );
            }
        }
    }

    #[test]
    fn evaluate_truth_table() {
        let n = xor_chain();
        for v in 0..8u64 {
            let inp = BitVec::from_u64(v, 3);
            let out = n.evaluate(&inp);
            let (i0, i1, i2) = (v & 1 == 1, v >> 1 & 1 == 1, v >> 2 & 1 == 1);
            assert_eq!(out.get(0), i0 ^ i1 ^ i2);
            assert_eq!(out.get(1), i2);
            assert!(!out.get(2));
        }
    }

    #[test]
    fn depth_and_levels() {
        let n = xor_chain();
        assert_eq!(n.depth(), 2);
        let levels = n.levelize();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0], vec![0]);
        assert_eq!(levels[1], vec![1]);
    }

    #[test]
    fn to_matrix_matches_evaluate() {
        let n = xor_chain();
        let m = n.to_matrix();
        for v in 0..8u64 {
            let inp = BitVec::from_u64(v, 3);
            assert_eq!(m.mul_vec(&inp), n.evaluate(&inp));
        }
    }

    #[test]
    #[should_panic]
    fn fanin_limit_enforced() {
        let mut n = XorNetwork::new(4, 2);
        n.add_gate(vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn undefined_signal_rejected() {
        let mut n = XorNetwork::new(2, 4);
        n.add_gate(vec![0, 7]);
    }

    #[test]
    fn fanout_live_and_support_hooks() {
        // g0 = i0^i1 feeds g1; g2 = i0^i2 is dead; out = [g1, i2].
        let mut n = XorNetwork::new(3, 2);
        let g0 = n.add_gate(vec![0, 1]);
        let g1 = n.add_gate(vec![g0, 2]);
        let g2 = n.add_gate(vec![0, 2]);
        n.add_output(Some(g1));
        n.add_output(Some(2));

        let fan = n.fanout_counts();
        assert_eq!(fan[0], 2); // i0 read by g0 and g2
        assert_eq!(fan[2], 3); // i2 read by g1, g2 and output 1
        assert_eq!(fan[g1], 1);
        assert_eq!(fan[g2], 0);

        let live = n.live_signals();
        assert!(live[0] && live[1] && live[2] && live[g0] && live[g1]);
        assert!(!live[g2], "g2 feeds nothing");

        assert_eq!(n.signal_support(0), BitVec::unit(0, 3));
        let s = n.signal_support(g1);
        assert!(s.get(0) && s.get(1) && s.get(2));
        let s = n.signal_support(g2);
        assert!(s.get(0) && !s.get(1) && s.get(2));
    }

    #[test]
    fn wire_only_network_has_depth_zero() {
        let mut n = XorNetwork::new(2, 4);
        n.add_output(Some(1));
        n.add_output(Some(0));
        assert_eq!(n.depth(), 0);
        assert_eq!(n.gate_count(), 0);
        let m = n.to_matrix();
        assert!(m.get(0, 1) && m.get(1, 0) && !m.get(0, 0));
    }
}

impl XorNetwork {
    /// How many readers each signal has: gate fan-ins plus primary
    /// outputs. Indexed like [`levels`](Self::levels) (inputs first).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_signals()];
        for g in &self.gates {
            for &s in &g.inputs {
                counts[s] += 1;
            }
        }
        for o in self.outputs.iter().flatten() {
            counts[*o] += 1;
        }
        counts
    }

    /// Which signals transitively reach a primary output. Gates that are
    /// not live are dead logic (they burn a cell for nothing).
    pub fn live_signals(&self) -> Vec<bool> {
        let mut live = vec![false; self.n_signals()];
        for o in self.outputs.iter().flatten() {
            live[*o] = true;
        }
        // Gates are topologically ordered, so one reverse sweep suffices.
        for gi in (0..self.gates.len()).rev() {
            if live[self.n_inputs + gi] {
                for &s in &self.gates[gi].inputs {
                    live[s] = true;
                }
            }
        }
        live
    }

    /// The input-support vector of one signal: which primary inputs its
    /// value depends on (symbolic forward propagation, the per-signal
    /// view behind [`to_matrix`](Self::to_matrix)).
    pub fn signal_support(&self, signal: SignalId) -> BitVec {
        assert!(signal < self.n_signals(), "undefined signal");
        if signal < self.n_inputs {
            return BitVec::unit(signal, self.n_inputs);
        }
        let mut support: Vec<BitVec> = Vec::with_capacity(signal + 1);
        for i in 0..self.n_inputs {
            support.push(BitVec::unit(i, self.n_inputs));
        }
        for g in &self.gates[..=signal - self.n_inputs] {
            let mut s = BitVec::zeros(self.n_inputs);
            for &inp in &g.inputs {
                s.xor_assign(&support[inp]);
            }
            support.push(s);
        }
        support[signal].clone()
    }

    /// Redirects one fan-in wire of gate `gate_idx` to `new_signal`,
    /// modelling a single-event upset in the routing configuration. The
    /// new source must still be an *earlier* signal so the DAG invariant
    /// (and hence the topological gate order) survives the corruption —
    /// a PiCoGA wire can only ever be driven from a previous row.
    ///
    /// This is a **fault-injection hook**: it deliberately bypasses the
    /// synthesis flow, and the resulting network in general no longer
    /// computes its source matrix.
    ///
    /// # Panics
    ///
    /// Panics if the gate, pin, or signal is out of range, or if
    /// `new_signal` is not earlier than the gate's own output signal.
    pub fn set_gate_input(&mut self, gate_idx: usize, pin: usize, new_signal: SignalId) {
        assert!(gate_idx < self.gates.len(), "gate out of range");
        let own = self.n_inputs + gate_idx;
        assert!(
            new_signal < own,
            "wire must come from an earlier signal ({new_signal} >= {own})"
        );
        let g = &mut self.gates[gate_idx];
        assert!(pin < g.inputs.len(), "pin out of range");
        g.inputs[pin] = new_signal;
    }

    /// Re-taps primary output `out_idx` to `new_signal` (or the constant
    /// 0), modelling a single-event upset in the output routing.
    ///
    /// Like [`set_gate_input`](Self::set_gate_input), this is a
    /// fault-injection hook, not part of the synthesis flow.
    ///
    /// # Panics
    ///
    /// Panics if the output index or the signal is out of range.
    pub fn set_output(&mut self, out_idx: usize, new_signal: Option<SignalId>) {
        assert!(out_idx < self.outputs.len(), "output out of range");
        if let Some(s) = new_signal {
            assert!(s < self.n_signals(), "output references undefined signal");
        }
        self.outputs[out_idx] = new_signal;
    }

    /// Renders the network as Graphviz DOT (inputs as boxes, gates as
    /// circles labelled with their level, outputs as double circles) —
    /// the debugging view the mapping flow prints on request.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let lv = self.levels();
        let mut d = String::new();
        let _ = writeln!(d, "digraph \"{name}\" {{");
        let _ = writeln!(d, "  rankdir=LR;");
        for i in 0..self.n_inputs {
            let _ = writeln!(d, "  i{i} [shape=box,label=\"in{i}\"];");
        }
        for (gi, g) in self.gates.iter().enumerate() {
            let sid = self.n_inputs + gi;
            let _ = writeln!(d, "  g{gi} [shape=circle,label=\"^ L{}\"];", lv[sid]);
            for &s in &g.inputs {
                if s < self.n_inputs {
                    let _ = writeln!(d, "  i{s} -> g{gi};");
                } else {
                    let _ = writeln!(d, "  g{} -> g{gi};", s - self.n_inputs);
                }
            }
        }
        for (oi, o) in self.outputs.iter().enumerate() {
            let _ = writeln!(d, "  o{oi} [shape=doublecircle,label=\"out{oi}\"];");
            match o {
                Some(s) if *s < self.n_inputs => {
                    let _ = writeln!(d, "  i{s} -> o{oi};");
                }
                Some(s) => {
                    let _ = writeln!(d, "  g{} -> o{oi};", s - self.n_inputs);
                }
                None => {}
            }
        }
        let _ = writeln!(d, "}}");
        d
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_output_names_every_node_and_edge() {
        let mut n = XorNetwork::new(3, 4);
        let g0 = n.add_gate(vec![0, 1]);
        let g1 = n.add_gate(vec![g0, 2]);
        n.add_output(Some(g1));
        n.add_output(None);
        let d = n.to_dot("test");
        assert!(d.starts_with("digraph \"test\""));
        for node in ["i0", "i1", "i2", "g0", "g1", "o0", "o1"] {
            assert!(d.contains(node), "missing {node} in:\n{d}");
        }
        assert!(d.contains("i0 -> g0;"));
        assert!(d.contains("g0 -> g1;"));
        assert!(d.contains("g1 -> o0;"));
        // The constant-0 output has no driver edge.
        assert!(!d.contains("-> o1;"));
        // Levels annotated.
        assert!(d.contains("L1") && d.contains("L2"));
    }
}
