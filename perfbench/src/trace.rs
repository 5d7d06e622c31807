//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the program, around the public calls
//! the workload loops make into each layer. A disabled recorder does nothing,
//! so the untraced run pays only a branch per call. Spans are kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanIdx = u32;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Call name, `layer.call` (e.g. `stream.feed`).
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start: u64,
    /// End, in the same clock (equal to `start` while open).
    pub end: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanIdx>,
    /// Tick number or stream id the span belongs to.
    pub tag: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanIdx>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: u64) -> Option<SpanIdx> {
        if !self.enabled {
            return None;
        }
        let idx = SpanIdx::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            tag,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes `span` (and anything opened inside it and left open).
    pub fn end(&mut self, span: Option<SpanIdx>) {
        let Some(idx) = span else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, tag);
        let out = f();
        self.end(s);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }

    /// Writes the spans as JSON lines: id, name, start, end, parent, tag.
    ///
    /// # Errors
    ///
    /// Write errors of `w`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"tag\":{}}}",
                s.name, s.start, s.end, s.tag
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval), so overlapping children are not
/// subtracted twice.
#[must_use]
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Per-name totals: calls, inclusive time and self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations (ns).
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover (ns).
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part of it
/// its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur();
        e.self_ns += s.dur() - covered(s.start, s.end, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanIdx>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            tag: 0,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50 ns, not 60.
        assert_eq!(covered(0, 100, &[(10, 40), (30, 60)]), 50);
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["a"].self_ns, 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
        assert_eq!(covered(10, 20, &[(0, 5), (25, 30)]), 0);
        // Nested and disjoint children.
        assert_eq!(covered(0, 100, &[(0, 10), (2, 5), (50, 60)]), 20);
    }

    #[test]
    fn self_time_sums_per_name() {
        let spans = vec![
            span("tick", 0, 10, None),
            span("feed", 2, 6, Some(0)),
            span("tick", 20, 30, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["tick"].calls, 2);
        assert_eq!(t["tick"].self_ns, 16);
        assert_eq!(t["feed"].self_ns, 4);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer", 1);
        let inner = r.begin("inner", 2);
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end >= r.spans()[1].end);
        let mut file = Vec::new();
        r.write_jsonl(&mut file).unwrap();
        assert_eq!(String::from_utf8(file).unwrap().lines().count(), 2);

        let mut off = Recorder::new(false);
        let s = off.begin("x", 0);
        off.end(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer", 0);
        let _leaked = r.begin("inner", 0);
        r.end(outer);
        assert!(r.spans().iter().all(|s| s.end >= s.start));
        let next = r.begin("next", 0);
        assert_eq!(r.spans()[next.unwrap() as usize].parent, None);
    }
}
