//! Fabric profiler: per-row occupancy, pipeline fill/drain stalls and
//! per-personality utilization for the PiCoGA simulator.
//!
//! The PiCoGA pipes one block per cycle through its rows (II = 1 for
//! Derby-transformed CRCs), so a stream of `n` blocks on an op of latency
//! `L` occupies each used row for `n` cycles and wastes `L − 1` cycles
//! filling and draining the pipeline. Dense/iterative ops (II = latency)
//! stall `(L − 1)` cycles per evaluation. The profiler accounts both,
//! attributed to the *personality* currently resident (the DREAM layer
//! labels the lane before each run, because op names inside a personality
//! are generic — `update`, `finalize`, `scrambler`).

use std::collections::BTreeMap;

/// Per-personality usage accumulated by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneUsage {
    /// Fabric cycles charged to this lane (compute only).
    pub busy_cycles: u64,
    /// Distinct runs (streams, linear evaluations, probes).
    pub issues: u64,
    /// Blocks / evaluations pushed through the pipeline.
    pub blocks: u64,
}

/// The profiler. Lives inside the fabric simulator; all inputs are
/// simulated quantities, so its output is seed-reproducible.
#[derive(Debug, Clone)]
pub struct FabricProfiler {
    rows: usize,
    row_busy: Vec<u64>,
    fill_drain_stalls: u64,
    /// The attribution label.
    lane: String,
    /// The label's entry in `usage`, once it has one.
    lane_at: Option<usize>,
    /// Usage per charged label (`"?"` for the empty one), in order of
    /// first charge.
    usage: Vec<(String, LaneUsage)>,
}

impl FabricProfiler {
    /// Creates a profiler for a fabric with `rows` pipeline rows.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        FabricProfiler {
            rows,
            row_busy: vec![0; rows],
            fill_drain_stalls: 0,
            lane: String::new(),
            lane_at: None,
            usage: Vec::new(),
        }
    }

    /// Sets the attribution label for subsequent runs (the resident
    /// personality's name). An empty label attributes to `"?"`.
    pub fn set_lane(&mut self, name: &str) {
        if self.lane != name {
            self.lane.clear();
            self.lane.push_str(name);
            let key = self.key();
            self.lane_at = self.usage.iter().position(|(n, _)| n == key);
        }
    }

    /// The usage key of the label.
    fn key(&self) -> &str {
        if self.lane.is_empty() {
            "?"
        } else {
            &self.lane
        }
    }

    fn charge(&mut self, rows_used: usize, busy: u64, issues: u64, blocks: u64, stalls: u64) {
        for r in self.row_busy.iter_mut().take(rows_used.min(self.rows)) {
            *r = r.saturating_add(blocks);
        }
        self.fill_drain_stalls = self.fill_drain_stalls.saturating_add(stalls);
        // The label gets its entry, and its key allocated, on its first
        // charge only.
        let at = match self.lane_at {
            Some(at) => at,
            None => {
                self.usage
                    .push((self.key().to_owned(), LaneUsage::default()));
                *self.lane_at.insert(self.usage.len() - 1)
            }
        };
        let u = &mut self.usage[at].1;
        u.busy_cycles = u.busy_cycles.saturating_add(busy);
        u.issues = u.issues.saturating_add(issues);
        u.blocks = u.blocks.saturating_add(blocks);
    }

    /// Accounts a pipelined (II = 1) run: `blocks` blocks through
    /// `rows_used` rows at pipeline depth `latency`. Total fabric cost is
    /// `latency + blocks − 1` cycles, of which `latency − 1` are
    /// fill/drain stall.
    pub fn record_stream(&mut self, rows_used: usize, latency: u64, blocks: u64) {
        if blocks == 0 {
            return;
        }
        let busy = latency.saturating_add(blocks).saturating_sub(1);
        self.charge(rows_used, busy, 1, blocks, latency.saturating_sub(1));
    }

    /// Accounts an iterative (II = latency) run: `evals` full passes, each
    /// costing `latency` cycles and stalling `latency − 1` of them.
    pub fn record_iterative(&mut self, rows_used: usize, latency: u64, evals: u64) {
        if evals == 0 {
            return;
        }
        let busy = latency.saturating_mul(evals);
        self.charge(
            rows_used,
            busy,
            1,
            evals,
            latency.saturating_sub(1).saturating_mul(evals),
        );
    }

    /// Cycles each row spent processing a block (index = row).
    #[must_use]
    pub fn row_busy(&self) -> &[u64] {
        &self.row_busy
    }

    /// Total pipeline fill/drain stall cycles.
    #[must_use]
    pub fn fill_drain_stalls(&self) -> u64 {
        self.fill_drain_stalls
    }

    /// Per-personality usage, name-ordered.
    #[must_use]
    pub fn lanes(&self) -> BTreeMap<&str, LaneUsage> {
        self.usage.iter().map(|(n, u)| (n.as_str(), *u)).collect()
    }

    /// Per-row occupancy in percent of `total_cycles` (0 when
    /// `total_cycles` is 0). Deterministic integer arithmetic.
    #[must_use]
    pub fn occupancy_pct(&self, total_cycles: u64) -> Vec<u64> {
        self.row_busy
            .iter()
            .map(|&b| b.saturating_mul(100).checked_div(total_cycles).unwrap_or(0))
            .collect()
    }

    /// Number of fabric rows being profiled.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Clears all accumulated usage, keeping the row count and lane label.
    pub fn reset(&mut self) {
        for r in &mut self.row_busy {
            *r = 0;
        }
        self.fill_drain_stalls = 0;
        self.usage.clear();
        self.lane_at = None;
    }
}

#[cfg(test)]
mod tests {
    use super::FabricProfiler;

    #[test]
    fn stream_run_charges_rows_and_stalls() {
        let mut p = FabricProfiler::new(4);
        p.set_lane("eth32");
        // 10 blocks through 3 rows at depth 3: 12 busy cycles, 2 stall.
        p.record_stream(3, 3, 10);
        assert_eq!(p.row_busy(), &[10, 10, 10, 0]);
        assert_eq!(p.fill_drain_stalls(), 2);
        let u = p.lanes()["eth32"];
        assert_eq!(u.busy_cycles, 12);
        assert_eq!(u.issues, 1);
        assert_eq!(u.blocks, 10);
    }

    #[test]
    fn iterative_run_stalls_per_eval() {
        let mut p = FabricProfiler::new(2);
        p.record_iterative(2, 4, 5);
        assert_eq!(p.fill_drain_stalls(), 15);
        assert_eq!(p.lanes()["?"].busy_cycles, 20);
    }

    #[test]
    fn empty_runs_are_free() {
        let mut p = FabricProfiler::new(2);
        p.record_stream(2, 3, 0);
        p.record_iterative(2, 3, 0);
        assert_eq!(p.row_busy(), &[0, 0]);
        assert!(p.lanes().is_empty());
    }

    #[test]
    fn charges_land_in_the_current_lane() {
        let mut p = FabricProfiler::new(2);
        // Lane A takes 1 block, B 2, A again 4, the empty label 8.
        for (lane, blocks) in [("A", 1), ("B", 2), ("A", 4), ("", 8)] {
            p.set_lane(lane);
            p.record_stream(1, 1, blocks);
        }
        let blocks = |p: &FabricProfiler, lane: &str| p.lanes()[lane].blocks;
        assert_eq!(
            (blocks(&p, "A"), blocks(&p, "B"), blocks(&p, "?")),
            (5, 2, 8)
        );
        assert_eq!(p.lanes()["A"].issues, 2);
        // A lane named "?" shares the empty label's entry.
        p.set_lane("?");
        p.record_stream(1, 1, 16);
        assert_eq!(blocks(&p, "?"), 24);
    }

    #[test]
    fn lanes_are_name_ordered() {
        let mut p = FabricProfiler::new(1);
        for lane in ["wifi16", "eth8", "", "eth128", "eth32"] {
            p.set_lane(lane);
            p.record_iterative(1, 2, 1);
        }
        let names: Vec<&str> = p.lanes().into_keys().collect();
        assert_eq!(names, ["?", "eth128", "eth32", "eth8", "wifi16"]);
    }

    #[test]
    fn reset_keeps_the_label_and_the_next_charge_recreates_its_entry() {
        let mut p = FabricProfiler::new(2);
        p.set_lane("eth32");
        p.record_stream(2, 3, 10);
        p.set_lane("wifi16");
        p.record_stream(1, 2, 4);
        p.reset();
        assert!(p.lanes().is_empty());
        assert_eq!(p.row_busy(), &[0, 0]);
        assert_eq!(p.fill_drain_stalls(), 0);
        p.record_stream(1, 2, 5);
        let lanes = p.lanes();
        assert_eq!(lanes.keys().copied().collect::<Vec<_>>(), ["wifi16"]);
        assert_eq!(lanes["wifi16"].blocks, 5);
        assert_eq!(lanes["wifi16"].issues, 1);
        // A lane charged before the reset starts again from nothing.
        p.set_lane("eth32");
        p.record_stream(2, 3, 1);
        assert_eq!(p.lanes()["eth32"].busy_cycles, 3);
    }

    #[test]
    fn occupancy_is_integer_percent() {
        let mut p = FabricProfiler::new(2);
        p.record_stream(1, 1, 50);
        assert_eq!(p.occupancy_pct(100), vec![50, 0]);
        assert_eq!(p.occupancy_pct(0), vec![0, 0]);
    }
}
