//! The trace query engine: a small combinator API over a tracer's span
//! table and event ring, used directly by tests and storm harnesses to
//! assert causality — "every failover descends from a `shard_down`
//! span", "no migration span is still open at campaign end" — and to
//! cut deterministic duration percentiles for the SLO report.

use crate::span::{SpanId, SpanRecord};
use crate::trace::{TraceEvent, Tracer};

/// Entry point: wraps a tracer for querying.
#[derive(Debug, Clone, Copy)]
pub struct TraceQuery<'a> {
    tracer: &'a Tracer,
}

impl<'a> TraceQuery<'a> {
    /// Queries `tracer`.
    #[must_use]
    pub fn new(tracer: &'a Tracer) -> Self {
        TraceQuery { tracer }
    }

    /// Every span, as a filterable set.
    #[must_use]
    pub fn spans(&self) -> SpanSet<'a> {
        SpanSet {
            all: self.tracer.spans(),
            picked: self.tracer.spans().iter().collect(),
        }
    }

    /// Retained events stamped inside span `id` (ring-bounded: events
    /// dropped by the ring are gone; the span table itself is not).
    #[must_use]
    pub fn events_in_span(&self, id: SpanId) -> Vec<&'a TraceEvent> {
        self.tracer
            .events()
            .filter(|e| e.span() == Some(id.raw()))
            .collect()
    }

    /// Retained events whose kind label is `label`.
    #[must_use]
    pub fn events_by_kind(&self, label: &str) -> Vec<&'a TraceEvent> {
        self.tracer
            .events()
            .filter(|e| e.kind.label() == label)
            .collect()
    }
}

/// A filtered set of spans. Combinators narrow the set; `all` keeps the
/// full table so lineage queries (`descendants`, `rooted_in`) can walk
/// parent links outside the current selection.
#[derive(Debug, Clone)]
pub struct SpanSet<'a> {
    all: &'a [SpanRecord],
    picked: Vec<&'a SpanRecord>,
}

impl<'a> SpanSet<'a> {
    fn filter(self, pred: impl Fn(&SpanRecord) -> bool) -> Self {
        SpanSet {
            all: self.all,
            picked: self.picked.into_iter().filter(|s| pred(s)).collect(),
        }
    }

    fn lookup(&self, id: SpanId) -> Option<&'a SpanRecord> {
        let idx = id.raw().checked_sub(1)? as usize;
        self.all.get(idx)
    }

    /// Keeps spans whose operation label is `op`.
    #[must_use]
    pub fn by_kind(self, op: &str) -> Self {
        self.filter(|s| s.op == op)
    }

    /// Keeps spans correlated to shard `shard`.
    #[must_use]
    pub fn by_shard(self, shard: u64) -> Self {
        self.filter(|s| s.shard == Some(shard))
    }

    /// Keeps spans correlated to stream `stream`.
    #[must_use]
    pub fn by_stream(self, stream: u64) -> Self {
        self.filter(|s| s.stream == Some(stream))
    }

    /// Keeps exactly the span with id `id` (empty set if absent).
    #[must_use]
    pub fn by_span(self, id: SpanId) -> Self {
        self.filter(|s| s.id == id)
    }

    /// Keeps spans that closed with outcome `outcome`.
    #[must_use]
    pub fn by_outcome(self, outcome: &str) -> Self {
        self.filter(|s| s.outcome == Some(outcome))
    }

    /// Keeps spans that retried at least once.
    #[must_use]
    pub fn retried(self) -> Self {
        self.filter(|s| s.retries > 0)
    }

    /// Keeps still-open spans.
    #[must_use]
    pub fn open(self) -> Self {
        self.filter(SpanRecord::is_open)
    }

    /// Keeps closed spans.
    #[must_use]
    pub fn closed(self) -> Self {
        self.filter(|s| !s.is_open())
    }

    /// Keeps spans inside the subtree rooted at `root` — `root` itself
    /// plus every transitive child, regardless of the current
    /// selection's lineage gaps (parent walks use the full table).
    #[must_use]
    pub fn descendants(self, root: SpanId) -> Self {
        let all = self.all;
        let lookup = |id: SpanId| {
            let idx = (id.raw().checked_sub(1)).map_or(usize::MAX, |i| i as usize);
            all.get(idx)
        };
        self.filter(|s| {
            let mut cur = Some(s.id);
            while let Some(id) = cur {
                if id == root {
                    return true;
                }
                cur = lookup(id).and_then(|r| r.parent);
            }
            false
        })
    }

    /// True when the set is non-trivially rooted: every span in the set
    /// has an ancestor (or is itself) whose operation label is `op`.
    /// The causality assertion behind "every failover descends from a
    /// `shard_down` span".
    #[must_use]
    pub fn rooted_in(&self, op: &str) -> bool {
        self.picked.iter().all(|s| {
            let mut cur = Some(s.id);
            while let Some(id) = cur {
                match self.lookup(id) {
                    Some(r) if r.op == op => return true,
                    Some(r) => cur = r.parent,
                    None => return false,
                }
            }
            false
        })
    }

    /// Like [`SpanSet::rooted_in`], accepting any of several root
    /// operations — "every failover descends from a `shard_down` *or*
    /// a `wal_recover` span".
    #[must_use]
    pub fn rooted_in_any(&self, ops: &[&str]) -> bool {
        self.picked.iter().all(|s| {
            let mut cur = Some(s.id);
            while let Some(id) = cur {
                match self.lookup(id) {
                    Some(r) if ops.contains(&r.op) => return true,
                    Some(r) => cur = r.parent,
                    None => return false,
                }
            }
            false
        })
    }

    /// Closed-span durations, ascending — deterministic input for
    /// percentile cuts.
    #[must_use]
    pub fn durations(&self) -> Vec<u64> {
        let mut d: Vec<u64> = self.picked.iter().filter_map(|s| s.duration()).collect();
        d.sort_unstable();
        d
    }

    /// Nearest-rank percentile (0–100) over closed-span durations, in
    /// simulated cycles. `None` when no span in the set has closed.
    /// Integer arithmetic only — byte-stable across platforms.
    #[must_use]
    pub fn duration_percentile(&self, pct: u64) -> Option<u64> {
        let d = self.durations();
        if d.is_empty() {
            return None;
        }
        let n = d.len() as u64;
        let rank = (n * pct.min(100)).div_ceil(100).max(1);
        Some(d[(rank - 1) as usize])
    }

    /// Total retry attempts charged across the set.
    #[must_use]
    pub fn retries_total(&self) -> u64 {
        self.picked
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.retries))
    }

    /// Number of spans in the set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.picked.len()
    }

    /// True when nothing matched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.picked.is_empty()
    }

    /// The selected spans, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a SpanRecord> + '_ {
        self.picked.iter().copied()
    }

    /// The selected span ids, in id order.
    #[must_use]
    pub fn ids(&self) -> Vec<SpanId> {
        self.picked.iter().map(|s| s.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::TraceQuery;
    use crate::span::SpanCtx;
    use crate::trace::Tracer;

    fn storm_tracer() -> Tracer {
        let mut t = Tracer::new(64);
        // shard 1 dies; two streams fail over under the kill span.
        let kill = t.begin_span(100, "shard_down", SpanCtx::shard(1));
        let f1 = t.begin_span(101, "failover_stream", SpanCtx::child(kill).with_stream(7));
        t.end_span(105, f1, "ok");
        let f2 = t.begin_span(101, "failover_stream", SpanCtx::child(kill).with_stream(8));
        t.end_span(110, f2, "lost");
        t.end_span(111, kill, "ok");
        // an unrelated migration, retried once.
        let m = t.begin_span(
            200,
            "migrate_op",
            SpanCtx::shard(0).with_stream(9).with_token(42),
        );
        t.span_retry(m);
        t.end_span(230, m, "ok");
        t
    }

    #[test]
    fn combinators_narrow_and_count() {
        let t = storm_tracer();
        let q = TraceQuery::new(&t);
        assert_eq!(q.spans().count(), 4);
        assert_eq!(q.spans().by_kind("failover_stream").count(), 2);
        assert_eq!(
            q.spans()
                .by_kind("failover_stream")
                .by_outcome("lost")
                .count(),
            1
        );
        assert_eq!(q.spans().by_shard(1).count(), 1);
        assert_eq!(q.spans().by_stream(9).count(), 1);
        assert_eq!(q.spans().open().count(), 0);
        assert_eq!(q.spans().retried().count(), 1);
        assert_eq!(q.spans().retries_total(), 1);
    }

    #[test]
    fn lineage_descendants_and_rooting() {
        let t = storm_tracer();
        let q = TraceQuery::new(&t);
        let kill = q.spans().by_kind("shard_down").ids()[0];
        let sub = q.spans().descendants(kill);
        assert_eq!(sub.count(), 3); // kill + 2 failovers
        assert!(q.spans().by_kind("failover_stream").rooted_in("shard_down"));
        assert!(!q.spans().by_kind("migrate_op").rooted_in("shard_down"));
        // rooted_in on an empty set is vacuously true (no orphan).
        assert!(q.spans().by_kind("nope").rooted_in("shard_down"));
    }

    #[test]
    fn duration_percentiles_are_nearest_rank() {
        let t = storm_tracer();
        let q = TraceQuery::new(&t);
        let f = q.spans().by_kind("failover_stream");
        assert_eq!(f.durations(), vec![4, 9]);
        assert_eq!(f.duration_percentile(50), Some(4));
        assert_eq!(f.duration_percentile(99), Some(9));
        assert_eq!(f.duration_percentile(0), Some(4)); // rank clamps to 1
        assert_eq!(q.spans().by_kind("nope").duration_percentile(50), None);
    }

    #[test]
    fn events_are_queryable_by_span_and_kind() {
        let t = storm_tracer();
        let q = TraceQuery::new(&t);
        let kill = q.spans().by_kind("shard_down").ids()[0];
        let evs = q.events_in_span(kill);
        assert_eq!(evs.len(), 2); // span_begin + span_end
        assert_eq!(q.events_by_kind("span_end").len(), 4);
    }
}
