//! Static span-balance checking over a recorded trace.
//!
//! The causal span machinery in `obs` is deliberately forgiving at
//! runtime — misuse is counted, never a panic — so something has to
//! judge the recorded table *after* the fact. This analyzer walks a
//! [`obs::Tracer`]'s span table and proves the structural invariants
//! every well-formed campaign must satisfy:
//!
//! 1. **Balance** — every span begun was ended exactly once (the table
//!    representation makes double-ends impossible, so this reduces to
//!    "no open spans"), and the tracer saw no `end_span`/`span_retry`
//!    misuse.
//! 2. **Time sanity** — no span ends before it begins.
//! 3. **Parent integrity** — every parent link resolves to a span in
//!    the table, no span is its own parent, and a child never begins
//!    before its parent (causality runs forward in simulated cycles).
//!
//! `fabric-analyze` checks configurations before they serve; this
//! checks the serving record after it is written. The storm harnesses
//! gate on the same invariants through `cluster::audit_spans`; this
//! module is the standalone, harness-independent form with named
//! violations, used by the `cluster_campaigns` SLO report and the
//! acceptance tests.

use obs::{SpanRecord, Tracer};
use std::fmt;

/// Outcome of [`check_span_balance`]: totals plus every violation
/// found, in deterministic (table) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanBalanceReport {
    /// Spans in the table.
    pub spans: u64,
    /// Spans begun but never ended.
    pub open: u64,
    /// Runtime misuse events the tracer counted.
    pub misuse: u64,
    /// Human-readable violations, one line each, table order.
    pub violations: Vec<String>,
}

impl SpanBalanceReport {
    /// True when the span table is perfectly balanced: nothing open,
    /// no misuse, no structural violations.
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.open == 0 && self.misuse == 0 && self.violations.is_empty()
    }
}

impl fmt::Display for SpanBalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "span balance  spans={} open={} misuse={} violations={}",
            self.spans,
            self.open,
            self.misuse,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

fn lookup(tracer: &Tracer, rec: &SpanRecord) -> Option<SpanRecord> {
    rec.parent.and_then(|p| tracer.span(p).cloned())
}

/// Checks every span in `tracer`'s table for balance, time sanity and
/// parent integrity. Never panics; every problem becomes a violation
/// line.
#[must_use]
pub fn check_span_balance(tracer: &Tracer) -> SpanBalanceReport {
    let mut report = SpanBalanceReport {
        spans: tracer.spans().len() as u64,
        open: 0,
        misuse: tracer.span_misuse(),
        violations: Vec::new(),
    };
    for rec in tracer.spans() {
        let id = rec.id.raw();
        match rec.end_cycle {
            None => {
                report.open += 1;
                report
                    .violations
                    .push(format!("span {id} ({}) begun but never ended", rec.op));
            }
            Some(end) if end < rec.begin_cycle => {
                report.violations.push(format!(
                    "span {id} ({}) ends at cycle {end} before it begins at {}",
                    rec.op, rec.begin_cycle
                ));
            }
            Some(_) => {}
        }
        if rec.end_cycle.is_some() && rec.outcome.is_none() {
            report
                .violations
                .push(format!("span {id} ({}) ended without an outcome", rec.op));
        }
        if let Some(parent) = rec.parent {
            if parent == rec.id {
                report
                    .violations
                    .push(format!("span {id} ({}) is its own parent", rec.op));
            } else {
                match lookup(tracer, rec) {
                    None => report.violations.push(format!(
                        "span {id} ({}) has dangling parent {}",
                        rec.op,
                        parent.raw()
                    )),
                    Some(p) if p.begin_cycle > rec.begin_cycle => {
                        report.violations.push(format!(
                            "span {id} ({}) begins at cycle {} before its parent {} at {}",
                            rec.op,
                            rec.begin_cycle,
                            p.id.raw(),
                            p.begin_cycle
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if report.misuse > 0 {
        report.violations.push(format!(
            "tracer counted {} span misuse event(s)",
            report.misuse
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::SpanCtx;

    #[test]
    fn balanced_tree_passes() {
        let mut t = Tracer::new(64);
        let root = t.begin_span(10, "migrate_op", SpanCtx::shard(0));
        let child = t.begin_span(12, "migrate", SpanCtx::child(root));
        t.end_span(15, child, "ok");
        t.end_span(16, root, "ok");
        let r = check_span_balance(&t);
        assert!(r.balanced(), "{r}");
        assert_eq!(r.spans, 2);
    }

    #[test]
    fn open_span_is_a_violation() {
        let mut t = Tracer::new(64);
        let _leak = t.begin_span(5, "drain", SpanCtx::shard(1));
        let r = check_span_balance(&t);
        assert!(!r.balanced());
        assert_eq!(r.open, 1);
        assert!(r.violations[0].contains("never ended"), "{r}");
    }

    #[test]
    fn misuse_is_a_violation() {
        let mut t = Tracer::new(64);
        let id = t.begin_span(5, "probe", SpanCtx::default());
        t.end_span(6, id, "ok");
        t.end_span(7, id, "ok"); // double end: counted, not panicked
        let r = check_span_balance(&t);
        assert!(!r.balanced());
        assert_eq!(r.misuse, 1);
    }

    #[test]
    fn close_open_spans_restores_balance() {
        let mut t = Tracer::new(64);
        let _a = t.begin_span(5, "drain", SpanCtx::shard(0));
        let _b = t.begin_span(6, "upgrade", SpanCtx::shard(1));
        assert_eq!(t.close_open_spans(9, "crashed"), 2);
        let r = check_span_balance(&t);
        assert!(r.balanced(), "{r}");
    }
}
