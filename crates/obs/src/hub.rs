//! The observability hub owned by the fabric simulator.
//!
//! The fabric is the natural home for the spine: every layer above it
//! (DREAM system, resilience ladder, stream service) already reaches the
//! simulator through its wrapper chain, and the fabric's cycle counters
//! are the stack's only clock — which is exactly the timestamp the tracer
//! needs.

use crate::profile::FabricProfiler;
use crate::registry::{CounterId, MetricsRegistry};
use crate::trace::{EventKind, Tracer};

/// Default ring-buffer capacity for the tracer.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Handles to the fabric's three cycle counters, registered by
/// [`ObsHub::new`]. The names are owned by this crate so every layer
/// agrees on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleIds {
    /// `picoga.cycles.compute` — datapath issue cycles.
    pub compute: CounterId,
    /// `picoga.cycles.context_switch` — pipeline-break cycles.
    pub context_switch: CounterId,
    /// `picoga.cycles.context_load` — configuration-load cycles.
    pub context_load: CounterId,
}

/// Registry + tracer + profiler, bundled for embedding in the simulator.
#[derive(Debug, Clone)]
pub struct ObsHub {
    /// The unified metrics registry for the whole stack.
    pub registry: MetricsRegistry,
    /// The cycle-stamped event ring buffer.
    pub tracer: Tracer,
    /// The fabric profiler.
    pub profiler: FabricProfiler,
    /// Handles to the fabric cycle counters.
    pub cycles: CycleIds,
}

impl ObsHub {
    /// Creates a hub for a fabric with `rows` pipeline rows, registering
    /// the `picoga.cycles.*` counters.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        let mut registry = MetricsRegistry::new();
        let cycles = CycleIds {
            compute: registry.counter("picoga.cycles.compute"),
            context_switch: registry.counter("picoga.cycles.context_switch"),
            context_load: registry.counter("picoga.cycles.context_load"),
        };
        ObsHub {
            registry,
            tracer: Tracer::new(DEFAULT_TRACE_CAPACITY),
            profiler: FabricProfiler::new(rows),
            cycles,
        }
    }

    /// The simulated clock: total fabric cycles spent so far.
    #[must_use]
    pub fn now_cycles(&self) -> u64 {
        self.registry
            .counter_value(self.cycles.compute)
            .saturating_add(self.registry.counter_value(self.cycles.context_switch))
            .saturating_add(self.registry.counter_value(self.cycles.context_load))
    }

    /// Records an uncorrelated event stamped with the current cycle.
    pub fn event(&mut self, kind: EventKind) {
        let now = self.now_cycles();
        self.tracer.record(now, None, None, kind);
    }

    /// Records an event correlated to a stream and/or personality.
    pub fn event_for(&mut self, stream: Option<u64>, lane: Option<&str>, kind: EventKind) {
        let now = self.now_cycles();
        self.tracer.record(now, stream, lane, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::ObsHub;
    use crate::trace::EventKind;

    #[test]
    fn events_are_stamped_with_fabric_cycles() {
        let mut hub = ObsHub::new(4);
        hub.registry.add(hub.cycles.compute, 40);
        hub.registry.add(hub.cycles.context_load, 2);
        assert_eq!(hub.now_cycles(), 42);
        hub.event_for(Some(3), Some("eth32"), EventKind::StreamAdmit);
        let e = hub.tracer.events().next().unwrap().clone();
        assert_eq!(e.cycle, 42);
        assert_eq!(e.stream, Some(3));
        assert_eq!(hub.tracer.lane_of(&e), Some("eth32"));
    }
}
