//! Flight recorder: the one record path of the trace-event stream.
//!
//! Every [`TraceEvent`] the simulator emits goes through
//! [`FlightRecorder::record`], which appends it to up to two bounded
//! [`Tracer`] rings: the global packet trace (`Network::trace`, enabled
//! by `Network::enable_trace`) and a small ring owned by the event's
//! node. When the sanitize auditor records a violation, or a QP is torn
//! down after exhausting retries, the ring of the offending node is
//! snapshotted into a [`FlightDump`] — turning "audit failed at
//! t=1.2ms" into the last N things that node did.
//!
//! Recording costs one branch per ring kind when disabled (the default)
//! and a ring write when enabled; dumps are cold and capped so a
//! violation storm cannot allocate without bound.

use crate::event::NodeId;
use crate::trace::{TraceEvent, Tracer};
use crate::units::Time;

/// Maximum number of dumps retained per run. Violation storms beyond
/// this keep counting in the auditor but stop snapshotting.
pub const MAX_DUMPS: usize = 8;

/// One snapshot of a node's recent history, taken at a trigger point.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Simulation time of the trigger.
    pub at: Time,
    /// The node whose ring was dumped.
    pub node: NodeId,
    /// Why the dump was taken (e.g. the violation kind, or
    /// "qp_teardown flow=3").
    pub reason: String,
    /// The node's recent trace events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// The global trace ring plus per-node bounded rings of recent events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    trace: Tracer,
    enabled: bool,
    rings: Vec<Tracer>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A recorder for `n_nodes` nodes with every ring disabled.
    /// [`FlightRecorder::record`] is two branches until a ring is
    /// enabled.
    pub fn new(n_nodes: usize) -> FlightRecorder {
        FlightRecorder {
            trace: Tracer::disabled(),
            enabled: false,
            rings: (0..n_nodes).map(|_| Tracer::disabled()).collect(),
            dumps: Vec::new(),
        }
    }

    /// Enables the per-node rings with `capacity` events each.
    /// Re-enabling clears previously buffered events (same contract as
    /// [`Tracer::enable`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn enable(&mut self, capacity: usize) {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        self.enabled = true;
        for ring in &mut self.rings {
            ring.enable(capacity);
        }
    }

    /// Whether the per-node rings are buffering events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables the global trace ring with `capacity` events (0 disables
    /// it; see [`Tracer::enable`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The global trace ring.
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// Appends an event to the global trace and to its node's ring. One
    /// branch for each when disabled.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.trace.record(ev);
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.rings.get_mut(ev.node.0) {
            ring.record(ev);
        }
    }

    /// Snapshots `node`'s ring into a [`FlightDump`]. No-op when the
    /// per-node rings are disabled or [`MAX_DUMPS`] snapshots already
    /// exist.
    pub fn dump(&mut self, node: NodeId, at: Time, reason: &str) {
        if !self.enabled || self.dumps.len() >= MAX_DUMPS {
            return;
        }
        let events = match self.rings.get(node.0) {
            Some(ring) => ring.iter().copied().collect(),
            None => Vec::new(),
        };
        self.dumps.push(FlightDump {
            at,
            node,
            reason: reason.to_string(),
            events,
        });
    }

    /// The dumps taken so far, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::trace::TraceKind;

    fn ev(node: usize, detail: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_nanos(detail),
            node: NodeId(node),
            flow: FlowId(u64::MAX),
            kind: TraceKind::Delivered,
            detail,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut fr = FlightRecorder::new(2);
        fr.record(ev(0, 1));
        fr.dump(NodeId(0), Time::ZERO, "why");
        assert!(fr.dumps().is_empty());
        assert!(!fr.is_enabled());
    }

    #[test]
    fn ring_keeps_most_recent_per_node() {
        let mut fr = FlightRecorder::new(2);
        fr.enable(3);
        for i in 0..5 {
            fr.record(ev(0, i));
        }
        fr.record(ev(1, 100));
        fr.dump(NodeId(0), Time::ZERO, "node0");
        fr.dump(NodeId(1), Time::ZERO, "node1");
        let d0 = &fr.dumps()[0];
        let kept: Vec<u64> = d0.events.iter().map(|e| e.detail).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest-first, last 3 of 5");
        assert_eq!(fr.dumps()[1].events.len(), 1);
    }

    #[test]
    fn dumps_are_capped() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(2);
        for i in 0..(MAX_DUMPS + 3) {
            fr.dump(NodeId(0), Time::ZERO, &format!("trigger {i}"));
        }
        assert_eq!(fr.dumps().len(), MAX_DUMPS);
    }

    #[test]
    fn reenable_clears_buffered_events() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(4);
        fr.record(ev(0, 1));
        fr.enable(4);
        fr.dump(NodeId(0), Time::ZERO, "after re-enable");
        assert!(fr.dumps()[0].events.is_empty());
    }

    #[test]
    fn out_of_range_node_is_ignored() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(2);
        fr.record(ev(5, 1));
        fr.dump(NodeId(5), Time::ZERO, "ghost");
        assert!(fr.dumps()[0].events.is_empty());
    }
}
