//! Linear-network synthesis: matrix rows → ≤K-input XOR gates.
//!
//! This reproduces the back half of the authors' design-automation flow
//! (§4): "it maps the required matrices on 10-bit XORs, by an algorithm
//! that reduces the number of required XORs detecting 10-bit common
//! patterns among the rows of B_Mt and T".
//!
//! Two phases:
//!
//! 1. **Common-pattern extraction** — greedy common-subexpression
//!    elimination: repeatedly find the signal pair shared by the most
//!    rows, grow it into a pattern of up to `max_fanin` signals that still
//!    co-occurs in at least two rows, materialise it as a gate and
//!    substitute it everywhere. The pair counts are updated in place: a
//!    round costs one pass over the count table's cached row maxima, a
//!    holder scan over the rows per signal the pattern gains, and
//!    `O(|P|·|R|)` count updates per row `R` rewritten with pattern `P`
//!    (see `extract_patterns`).
//! 2. **Covering** — each row's residual signal set is reduced with a
//!    balanced tree of ≤`max_fanin`-input gates.

use crate::ir::{SignalId, XorNetwork};
use gf2::BitMat;

/// Synthesis options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOptions {
    /// Maximum gate fan-in (10 for a PiCoGA logic cell).
    pub max_fanin: usize,
    /// Enable phase 1 (common-pattern extraction). Disabling it yields the
    /// naive per-row trees, useful as an ablation baseline.
    pub share_patterns: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            max_fanin: 10,
            share_patterns: true,
        }
    }
}

/// Synthesises the linear function `y = M·x` into an XOR network.
///
/// Each matrix row becomes one output; ones in the row select the input
/// signals to XOR.
///
/// # Panics
///
/// Panics if `opts.max_fanin < 2`.
pub fn synthesize(matrix: &BitMat, opts: SynthOptions) -> XorNetwork {
    synthesize_with(matrix, opts, extract_patterns)
}

/// Phase 1 implementations share this signature (the production one and
/// the test oracle).
type Extractor = fn(&mut XorNetwork, &mut [Vec<SignalId>], usize);

fn synthesize_with(matrix: &BitMat, opts: SynthOptions, extract: Extractor) -> XorNetwork {
    let mut net = XorNetwork::new(matrix.cols(), opts.max_fanin);
    // Rows as sorted signal-id sets.
    let mut rows: Vec<Vec<SignalId>> = matrix
        .iter_rows()
        .map(|r| r.iter_ones().collect())
        .collect();

    if opts.share_patterns {
        extract(&mut net, &mut rows, opts.max_fanin);
    }

    for row in rows {
        let out = cover_row(&mut net, row, opts.max_fanin);
        net.add_output(out);
    }
    net
}

/// Phase 1: repeatedly materialise the most-shared pattern.
///
/// A pattern of `s` signals shared by `c` rows removes `c·(s−1)` literals
/// from the cover phase at the price of one extra gate; since a ≤K tree
/// over `L` literals costs about `(L−1)/(K−1)` gates, extraction only pays
/// when `c·(s−1) ≥ K`. Patterns below that bar are left to the cover
/// phase — on dense random-like matrices (a big `B_Mt`) this makes the phase
/// a no-op rather than a pessimisation.
///
/// The most-shared pair is the one with the highest count, ties going to
/// the smallest `(a, b)`. Counts live in a dense [`PairCounts`] table,
/// counted once from the rows. A round then costs:
/// - the best-pair search: one pass over the `n` table rows' cached
///   maxima, plus a rescan of each row a decrement may have lowered;
/// - growth: a holder scan over the rows per signal the pattern gains;
/// - substitution: `O(|P|·|R|)` count updates per row `R` rewritten with
///   a pattern `P`.
fn extract_patterns(net: &mut XorNetwork, rows: &mut [Vec<SignalId>], max_fanin: usize) {
    // Past this literal budget the naive cover is used. The bound is part
    // of the synthesizer's output, not a runtime guard: raising it would
    // change every network above it (matrices this big exceed any
    // PiCoGA-class fabric anyway).
    const CSE_LITERAL_BUDGET: usize = 4096;
    if rows.iter().map(std::vec::Vec::len).sum::<usize>() > CSE_LITERAL_BUDGET {
        return;
    }
    let mut counts = PairCounts::new(net.n_signals(), rows);
    while let Some((best_pair, count)) = counts.best() {
        if count < 2 {
            break;
        }

        // Grow the pattern: add signals common to every row containing it,
        // as long as the sharing row set keeps at least 2 rows.
        let mut pattern = vec![best_pair.0, best_pair.1];
        loop {
            if pattern.len() >= max_fanin {
                break;
            }
            let holders: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| holds(r, &pattern))
                .map(|(i, _)| i)
                .collect();
            // Candidate extensions: signals present in *all* holder rows.
            let mut candidate: Option<SignalId> = None;
            if holders.len() >= 2 {
                let first = &rows[holders[0]];
                candidate = first.iter().copied().find(|s| {
                    !pattern.contains(s)
                        && holders[1..]
                            .iter()
                            .all(|&h| rows[h].binary_search(s).is_ok())
                });
            }
            match candidate {
                Some(s) => pattern.push(s),
                None => break,
            }
        }
        pattern.sort_unstable();

        // Acceptance: the extraction must actually save cover gates.
        let holders = rows.iter().filter(|r| holds(r, &pattern)).count();
        if holders * (pattern.len() - 1) < max_fanin {
            break;
        }

        // Materialise and substitute. The new gate is the highest signal
        // so far, so pushing it keeps every row sorted.
        let gate = net.add_gate(pattern.clone());
        counts.add_signal(gate);
        for row in rows.iter_mut().filter(|r| holds(r, &pattern)) {
            row.retain(|s| pattern.binary_search(s).is_err());
            counts.substitute(&pattern, row, gate);
            row.push(gate);
        }
    }
}

/// `true` if the sorted `row` contains every signal of `pattern`.
fn holds(row: &[SignalId], pattern: &[SignalId]) -> bool {
    pattern.iter().all(|s| row.binary_search(s).is_ok())
}

/// Occurrence counts of signal pairs across the rows, in a dense square
/// table over the signals that can pair at all (those of rows with two
/// or more literals, plus every gate added since). Dense indices follow
/// signal order, so `(a, b)` order over dense indices is signal order.
///
/// Each table row `a` caches its highest count over `b > a` and the
/// smallest `b` holding it. An increment keeps that cache exact; a
/// decrement of the cached entry marks the row stale, and
/// [`PairCounts::best`] rescans only stale rows before it compares the
/// cached maxima.
struct PairCounts {
    /// Signal id → dense index (`u32::MAX` for signals that never pair).
    dense: Vec<u32>,
    /// Dense index → signal id.
    signal: Vec<SignalId>,
    /// `stride × stride` counts; only `a < b` is used.
    table: Vec<u32>,
    stride: usize,
    /// Per dense row `a`: its highest count and the smallest `b` with it
    /// (`(0, 0)` for a row of zeros). Exact unless the row is stale.
    row_best: Vec<(u32, usize)>,
    /// Rows whose cached maximum a decrement may have lowered.
    stale: Vec<bool>,
}

impl PairCounts {
    /// Counts every pair of every row.
    fn new(n_signals: usize, rows: &[Vec<SignalId>]) -> Self {
        let pairing_rows = || rows.iter().filter(|r| r.len() >= 2);
        let mut pairs = vec![false; n_signals];
        for row in pairing_rows() {
            row.iter().for_each(|&s| pairs[s] = true);
        }
        let mut dense = vec![u32::MAX; n_signals];
        let mut signal = Vec::new();
        for (s, _) in pairs.iter().enumerate().filter(|(_, &p)| p) {
            dense[s] = u32::try_from(signal.len()).expect("signal count fits u32");
            signal.push(s);
        }
        let stride = signal.len() + signal.len() / 2 + 8;
        let mut table = vec![0; stride * stride];
        for row in pairing_rows() {
            for (i, &a) in row.iter().enumerate() {
                let base = dense[a] as usize * stride;
                for &b in &row[i + 1..] {
                    table[base + dense[b] as usize] += 1;
                }
            }
        }
        PairCounts {
            row_best: vec![(0, 0); signal.len()],
            stale: vec![true; signal.len()],
            dense,
            signal,
            table,
            stride,
        }
    }

    /// Gives a newly created gate output a dense index, growing the table
    /// when it is full. The gate's table row starts as zeros.
    fn add_signal(&mut self, s: SignalId) {
        self.dense.resize(s + 1, u32::MAX);
        self.dense[s] = u32::try_from(self.signal.len()).expect("signal count fits u32");
        self.signal.push(s);
        self.row_best.push((0, 0));
        self.stale.push(false);
        if self.signal.len() > self.stride {
            let stride = self.stride * 2;
            let mut table = vec![0; stride * stride];
            for (a, row) in self.table.chunks(self.stride).enumerate() {
                table[a * stride..a * stride + self.stride].copy_from_slice(row);
            }
            self.table = table;
            self.stride = stride;
        }
    }

    /// Updates the counts for a row that held `pattern` and now holds
    /// `rest` and `gate`: every pair touching the pattern goes, and
    /// `(x, gate)` comes in for each `x` of `rest`.
    fn substitute(&mut self, pattern: &[SignalId], rest: &[SignalId], gate: SignalId) {
        for (i, &p) in pattern.iter().enumerate() {
            let dp = self.dense[p] as usize;
            for &q in &pattern[i + 1..] {
                self.decrement(dp, self.dense[q] as usize);
            }
            for &x in rest {
                let dx = self.dense[x] as usize;
                self.decrement(dp.min(dx), dp.max(dx));
            }
        }
        let dg = self.dense[gate] as usize;
        for &x in rest {
            self.increment(self.dense[x] as usize, dg);
        }
    }

    /// Counts one more `(a, b)`, dense indices with `a < b`.
    fn increment(&mut self, a: usize, b: usize) {
        let c = &mut self.table[a * self.stride + b];
        *c += 1;
        let best = &mut self.row_best[a];
        if *c > best.0 || (*c == best.0 && b < best.1) {
            *best = (*c, b);
        }
    }

    /// Counts one `(a, b)` fewer, dense indices with `a < b`.
    fn decrement(&mut self, a: usize, b: usize) {
        self.table[a * self.stride + b] -= 1;
        if self.row_best[a].1 == b {
            self.stale[a] = true;
        }
    }

    /// The most frequent pair and its count, ties going to the smallest
    /// pair; `None` when no row holds two signals.
    fn best(&mut self) -> Option<((SignalId, SignalId), u32)> {
        let mut best: Option<(usize, u32)> = None;
        for a in 0..self.signal.len() {
            if self.stale[a] {
                self.rescan(a);
            }
            let c = self.row_best[a].0;
            if c > 0 && best.is_none_or(|(_, bc)| c > bc) {
                best = Some((a, c));
            }
        }
        best.map(|(a, c)| ((self.signal[a], self.signal[self.row_best[a].1]), c))
    }

    /// Recomputes row `a`'s cached maximum from the table.
    fn rescan(&mut self, a: usize) {
        let n = self.signal.len();
        let row = &self.table[a * self.stride..a * self.stride + n];
        let mut best = (0, 0);
        for (b, &c) in row.iter().enumerate().skip(a + 1) {
            if c > best.0 {
                best = (c, b);
            }
        }
        self.row_best[a] = best;
        self.stale[a] = false;
    }
}

/// Phase 2: balanced ≤K tree over one row's residual signals.
fn cover_row(net: &mut XorNetwork, mut row: Vec<SignalId>, max_fanin: usize) -> Option<SignalId> {
    match row.len() {
        0 => None,
        1 => Some(row[0]),
        _ => {
            while row.len() > 1 {
                let mut next = Vec::with_capacity(row.len().div_ceil(max_fanin));
                for chunk in row.chunks(max_fanin) {
                    if chunk.len() == 1 {
                        next.push(chunk[0]);
                    } else {
                        next.push(net.add_gate(chunk.to_vec()));
                    }
                }
                row = next;
            }
            Some(row[0])
        }
    }
}

/// Convenience report of a synthesis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthReport {
    /// Number of XOR gates.
    pub gates: usize,
    /// Logic depth in gate levels.
    pub depth: usize,
    /// Width of the widest level (cells needed in the fullest stage).
    pub max_level_width: usize,
}

/// Summarises a network.
pub fn report(net: &XorNetwork) -> SynthReport {
    let levels = net.levelize();
    SynthReport {
        gates: net.gate_count(),
        depth: net.depth(),
        max_level_width: levels.iter().map(std::vec::Vec::len).max().unwrap_or(0),
    }
}

/// The phase-1 pair counter this module used before [`PairCounts`]: a
/// `HashMap` rebuilt from every row on every iteration. Kept as the
/// oracle the incremental table is tested against.
#[cfg(test)]
fn extract_patterns_oracle(net: &mut XorNetwork, rows: &mut [Vec<SignalId>], max_fanin: usize) {
    use std::collections::HashMap;
    if rows.iter().map(std::vec::Vec::len).sum::<usize>() > 4096 {
        return;
    }
    loop {
        let mut pair_count: HashMap<(SignalId, SignalId), usize> = HashMap::new();
        for row in rows.iter() {
            for i in 0..row.len() {
                for j in i + 1..row.len() {
                    *pair_count.entry((row[i], row[j])).or_insert(0) += 1;
                }
            }
        }
        let Some((&best_pair, &count)) = pair_count
            .iter()
            .max_by_key(|&(pair, c)| (*c, std::cmp::Reverse(*pair)))
        else {
            break;
        };
        if count < 2 {
            break;
        }
        let mut pattern = vec![best_pair.0, best_pair.1];
        while pattern.len() < max_fanin {
            let holders: Vec<usize> = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| pattern.iter().all(|s| r.contains(s)))
                .map(|(i, _)| i)
                .collect();
            let mut candidate: Option<SignalId> = None;
            if holders.len() >= 2 {
                let first = &rows[holders[0]];
                'cand: for &s in first {
                    if pattern.contains(&s) {
                        continue;
                    }
                    for &h in &holders[1..] {
                        if !rows[h].contains(&s) {
                            continue 'cand;
                        }
                    }
                    candidate = Some(s);
                    break;
                }
            }
            match candidate {
                Some(s) => pattern.push(s),
                None => break,
            }
        }
        pattern.sort_unstable();
        let holders = rows
            .iter()
            .filter(|r| pattern.iter().all(|s| r.contains(s)))
            .count();
        if holders * (pattern.len() - 1) < max_fanin {
            break;
        }
        let gate = net.add_gate(pattern.clone());
        for row in rows.iter_mut() {
            if pattern.iter().all(|s| row.contains(s)) {
                row.retain(|s| !pattern.contains(s));
                row.push(gate);
                row.sort_unstable();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{BitMat, BitVec, Gf2Poly};

    /// A matrix whose entries are 1 with probability about `ones / 8`.
    fn biased_matrix(rows: usize, cols: usize, ones: u32, seed: u64) -> BitMat {
        let mut m = BitMat::zeros(rows, cols);
        let mut x = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if ((x >> 20) & 7) < u64::from(ones) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Fourteen rows over 24 inputs: row 0 is the pair `{0, 1}`, row 1 is
    /// `{0, …, 9}`, and the other twelve hold `{0, …, 9}` plus some of
    /// inputs 10–23. Pattern `{0, 1}` goes first at every fan-in, so row 0
    /// becomes that gate alone and gains no pair.
    fn row_equal_to_a_pattern() -> BitMat {
        let mut m = biased_matrix(14, 24, 4, 5);
        for i in 0..14 {
            for j in 0..10 {
                m.set(i, j, i != 0 || j < 2);
            }
            if i < 2 {
                (10..24).for_each(|j| m.set(i, j, false));
            }
        }
        m
    }

    /// Rows after phase 1 alone, and the gates it materialised.
    fn extracted(m: &BitMat, max_fanin: usize) -> (Vec<Vec<SignalId>>, usize) {
        let mut net = XorNetwork::new(m.cols(), max_fanin);
        let mut rows: Vec<Vec<SignalId>> = m.iter_rows().map(|r| r.iter_ones().collect()).collect();
        extract_patterns(&mut net, &mut rows, max_fanin);
        (rows, net.gate_count())
    }

    #[test]
    fn dense_pair_table_matches_the_hashmap_oracle() {
        let g = Gf2Poly::from_crc_notation(0x04C1_1DB7, 32);
        let a = BitMat::companion(&g);
        // B_Mt's shape at M = 128: ~50 rounds rewrite ~600 rows.
        let wide = random_matrix(32, 128, 0x5EED);
        // 300 rows over 10 inputs: more gates than the table's initial
        // stride has room for, at every fan-in.
        let narrow = random_matrix(300, 10, 3);
        let row_pattern = row_equal_to_a_pattern();
        let mut mats = vec![
            a.pow(8),
            a.pow(32),
            a.pow(128),
            BitMat::from_rows(vec![BitVec::from_u64(0x3FF, 10); 10]),
            wide,
            narrow.clone(),
            row_pattern.clone(),
        ];
        for seed in 1..13u64 {
            let (r, c) = (4 + (seed as usize * 7) % 24, 8 + (seed as usize * 13) % 72);
            mats.push(biased_matrix(r, c, 1 + (seed % 7) as u32, seed));
        }
        for max_fanin in [2, 9, 10] {
            let (rows, _) = extracted(&row_pattern, max_fanin);
            assert_eq!(rows[0], [24], "row 0 is the first gate alone");
            let (_, gates) = extracted(&narrow, max_fanin);
            let stride = PairCounts::new(10, &[(0..10).collect()]).stride;
            assert!(gates > stride - 10, "{gates} gates fit the initial stride");
            for m in &mats {
                let opts = SynthOptions {
                    max_fanin,
                    share_patterns: true,
                };
                assert_eq!(
                    synthesize(m, opts),
                    synthesize_with(m, opts, extract_patterns_oracle),
                    "{}x{} at fan-in {max_fanin}",
                    m.rows(),
                    m.cols()
                );
            }
        }
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> BitMat {
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

    fn check_equivalence(m: &BitMat, opts: SynthOptions) {
        let net = synthesize(m, opts);
        assert_eq!(net.to_matrix(), *m, "symbolic mismatch");
        // Spot-check with concrete vectors too.
        let mut x = 0xACE1u64;
        for _ in 0..16 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut v = BitVec::zeros(m.cols());
            for j in 0..m.cols() {
                if (x >> (j % 64)) & 1 == 1 {
                    v.set(j, true);
                }
            }
            assert_eq!(net.evaluate(&v), m.mul_vec(&v));
        }
    }

    #[test]
    fn synthesis_preserves_function_random() {
        for seed in 1..6u64 {
            let m = random_matrix(24, 40, seed);
            check_equivalence(&m, SynthOptions::default());
            check_equivalence(
                &m,
                SynthOptions {
                    share_patterns: false,
                    max_fanin: 10,
                },
            );
            check_equivalence(
                &m,
                SynthOptions {
                    share_patterns: true,
                    max_fanin: 2,
                },
            );
        }
    }

    #[test]
    fn synthesis_preserves_function_crc_matrices() {
        // Use a real B_M-shaped matrix: powers of the CRC-16 companion.
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        let a16 = a.pow(16);
        check_equivalence(&a16, SynthOptions::default());
    }

    #[test]
    fn sharing_never_increases_gate_count() {
        for seed in 1..8u64 {
            let m = random_matrix(16, 32, seed * 7 + 1);
            let shared = synthesize(&m, SynthOptions::default());
            let naive = synthesize(
                &m,
                SynthOptions {
                    share_patterns: false,
                    max_fanin: 10,
                },
            );
            assert!(
                shared.gate_count() <= naive.gate_count() + m.rows(),
                "sharing exploded: {} vs {}",
                shared.gate_count(),
                naive.gate_count()
            );
        }
    }

    #[test]
    fn dense_identical_rows_share_one_gate_tree() {
        // Ten identical 10-bit rows: sharing should need ~1 gate, naive 10.
        let row = BitVec::from_u64(0x3FF, 10);
        let m = BitMat::from_rows(vec![row; 10]);
        let shared = synthesize(&m, SynthOptions::default());
        let naive = synthesize(
            &m,
            SynthOptions {
                share_patterns: false,
                max_fanin: 10,
            },
        );
        assert!(shared.gate_count() < naive.gate_count());
        assert_eq!(shared.gate_count(), 1);
        assert_eq!(shared.to_matrix(), m);
    }

    #[test]
    fn zero_and_identity_rows() {
        let mut m = BitMat::zeros(3, 4);
        m.set(1, 2, true); // wire
        let net = synthesize(&m, SynthOptions::default());
        assert_eq!(net.gate_count(), 0);
        assert_eq!(net.outputs()[0], None);
        assert_eq!(net.outputs()[1], Some(2));
        assert_eq!(net.to_matrix(), m);
    }

    #[test]
    fn fanin_two_builds_binary_tree_depth() {
        // 16-input parity at fan-in 2 needs depth ceil(log2 16) = 4.
        let m = BitMat::from_rows(vec![BitVec::ones(16)]);
        let net = synthesize(
            &m,
            SynthOptions {
                share_patterns: false,
                max_fanin: 2,
            },
        );
        assert_eq!(net.depth(), 4);
        assert_eq!(net.gate_count(), 15);
    }

    #[test]
    fn report_is_consistent() {
        let m = random_matrix(20, 30, 99);
        let net = synthesize(&m, SynthOptions::default());
        let r = report(&net);
        assert_eq!(r.gates, net.gate_count());
        assert_eq!(r.depth, net.depth());
        assert!(r.max_level_width >= 1);
    }
}
