//! # picolfsr-obs — the deterministic observability spine
//!
//! One registry, one tracer, one profiler, shared by every execution layer
//! of the simulated stack (`picoga::sim` → `dream` → `resilience` →
//! `stream`). Three design rules keep it reproducible:
//!
//! 1. **No wall clock.** Every event is stamped with the fabric's
//!    simulated cycle count, so two runs with the same seed produce
//!    byte-identical traces and snapshots (CI diffs them).
//! 2. **No background collection.** Metrics are plain values mutated
//!    through cheap copyable handles ([`CounterId`], [`GaugeId`],
//!    [`HistogramId`]); reading is a snapshot, not a scrape.
//! 3. **Saturating arithmetic.** Counters and histogram sums saturate
//!    instead of wrapping, so arbitrarily long campaigns degrade to a
//!    pegged value rather than a lie.
//!
//! The legacy per-layer counter structs (`CycleCounters`,
//! `ResilienceCounters`, `ServiceCounters`, `OpStats`, `UcrcStats`) remain
//! the public API of their crates but are assembled from this registry —
//! thin views over one unified store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod hub;
mod json;
mod profile;
mod query;
mod registry;
mod scope;
mod span;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use hub::{CycleIds, ObsHub};
pub use json::{json_objects, json_section, json_str, json_u64};
pub use profile::{FabricProfiler, LaneUsage};
pub use query::{SpanSet, TraceQuery};
pub use registry::{
    CounterId, GaugeId, HistogramId, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use scope::{Rollup, ScopeId, ScopedView};
pub use span::{SpanCtx, SpanId, SpanRecord};
pub use trace::{EventKind, ShardTransition, TraceEvent, Tracer, WalRecovery};

/// Minimal JSON string escaping (quotes, backslash, control chars) for the
/// hand-rolled exporters. Metric and lane names are ASCII identifiers in
/// practice; this keeps the output well-formed even if they are not.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("plain.name"), "plain.name");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
