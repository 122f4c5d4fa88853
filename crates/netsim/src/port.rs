//! A transmit port: per-priority egress queues, PFC pause state, and the
//! transmitter itself. Used by both switches and host NICs: PFC is a
//! link-level mechanism that both ends of a link run alike, so the
//! egress path — [`Port::start_tx`], [`Port::finish_tx`] and
//! [`Port::receive_pfc`] — lives here once, and each node kind adds only
//! its own policy around it (go-back-N and pacing on the host; buffer
//! release, RESUME checks and the storm watchdog on the switch).

use crate::event::{Event, LinkId, NodeId, PortId};
use crate::network::Ctx;
use crate::packet::{Packet, NUM_PRIORITIES};
use crate::telemetry::spans::HopSpan;
use crate::units::checked::{checked_accum, checked_drain};
use crate::units::{Bandwidth, Duration, Time};
use std::collections::VecDeque;

/// Where a port is plugged in: the link and the far end.
#[derive(Debug, Clone, Copy)]
pub struct Attachment {
    /// Link this port terminates.
    pub link: LinkId,
    /// Node on the other side.
    pub peer: NodeId,
    /// Port on the other side.
    pub peer_port: PortId,
    /// Link bandwidth (same both directions).
    pub bandwidth: Bandwidth,
    /// One-way propagation delay (includes forwarding pipeline latency).
    pub delay: Duration,
}

/// A queued packet plus the ingress attribution needed to release shared
/// buffer space when it finally leaves the switch. `None` for packets that
/// never occupied the shared buffer (host-generated, or switch-local PFC).
#[derive(Debug, Clone)]
pub struct Queued {
    /// The packet.
    pub pkt: Packet,
    /// `(ingress port index, priority)` for buffer release, if attributed.
    pub ingress: Option<(usize, usize)>,
    /// When the packet entered this egress queue (`Time::ZERO` when not
    /// stamped). Feeds the causal tracer's per-hop residency spans.
    pub enqueued_at: Time,
    /// Whether this entry is counted in `queued_bytes` (PFC frames from
    /// the dedicated queue are not).
    counted: bool,
}

impl Queued {
    /// A packet destined for the per-priority queues.
    pub fn new(pkt: Packet, ingress: Option<(usize, usize)>) -> Queued {
        Queued {
            pkt,
            ingress,
            enqueued_at: Time::ZERO,
            counted: false,
        }
    }

    /// Stamps the enqueue time (builder-style, for call sites that know
    /// the clock).
    pub fn at(mut self, now: Time) -> Queued {
        self.enqueued_at = now;
        self
    }
}

/// A transmit port with strict-priority scheduling across `NUM_PRIORITIES`
/// classes, plus a dedicated always-first queue for link-local PFC frames
/// (which must never be blocked or reordered behind data).
#[derive(Debug)]
pub struct Port {
    /// Link attachment; `None` for unconnected ports.
    pub attach: Option<Attachment>,
    /// Locally generated PFC frames awaiting transmission.
    pub pfc_queue: VecDeque<Packet>,
    /// Per-priority FIFO egress queues.
    pub queues: Vec<VecDeque<Queued>>,
    /// Bytes queued per priority (wire bytes, including the in-flight
    /// packet's — a packet counts until its transmission completes).
    pub queued_bytes: [u64; NUM_PRIORITIES],
    /// Classes paused by a PFC PAUSE received *on this port* — we must stop
    /// transmitting them until RESUME.
    pub rx_paused: [bool; NUM_PRIORITIES],
    /// Classes for which *we* have paused the upstream neighbor (this port
    /// viewed as ingress). Used for RESUME hysteresis.
    pub tx_pause_sent: [bool; NUM_PRIORITIES],
    /// When each class's current rx pause began (`Time::NEVER` when not
    /// paused). Feeds the PFC storm watchdog.
    pub rx_paused_since: [Time; NUM_PRIORITIES],
    /// Classes whose incoming PAUSE is currently being *ignored* because
    /// the storm watchdog tripped (restored after its recovery interval).
    pub pfc_ignore: [bool; NUM_PRIORITIES],
    /// Classes with a live watchdog check chain (one chain per class, the
    /// soft-deadline pattern used by host timers).
    pub wd_armed: [bool; NUM_PRIORITIES],
    /// The packet currently being serialized; the transmitter is busy
    /// exactly while this is `Some`.
    pub current: Option<Queued>,
}

impl Default for Port {
    fn default() -> Port {
        Port::new()
    }
}

impl Port {
    /// Creates an unattached, empty port.
    pub fn new() -> Port {
        Port {
            attach: None,
            pfc_queue: VecDeque::new(),
            queues: (0..NUM_PRIORITIES).map(|_| VecDeque::new()).collect(),
            queued_bytes: [0; NUM_PRIORITIES],
            rx_paused: [false; NUM_PRIORITIES],
            tx_pause_sent: [false; NUM_PRIORITIES],
            rx_paused_since: [Time::NEVER; NUM_PRIORITIES],
            pfc_ignore: [false; NUM_PRIORITIES],
            wd_armed: [false; NUM_PRIORITIES],
            current: None,
        }
    }

    /// Enqueues a packet on its priority class.
    pub fn enqueue(&mut self, mut q: Queued) {
        let prio = q.pkt.priority as usize;
        q.counted = true;
        let ok = checked_accum(&mut self.queued_bytes[prio], q.pkt.wire_bytes);
        debug_assert!(ok, "queued_bytes overflow");
        self.queues[prio].push_back(q);
    }

    /// Total bytes across all priority queues.
    pub fn total_queued_bytes(&self) -> u64 {
        self.queued_bytes.iter().sum()
    }

    /// Picks the next packet to transmit under strict priority + PFC pause
    /// state, or `None` if nothing is eligible. PFC frames always win and
    /// are never paused.
    pub fn dequeue_next(&mut self) -> Option<Queued> {
        if let Some(pkt) = self.pfc_queue.pop_front() {
            return Some(Queued {
                pkt,
                ingress: None,
                enqueued_at: Time::ZERO,
                counted: false,
            });
        }
        for prio in 0..NUM_PRIORITIES {
            if self.rx_paused[prio] {
                continue;
            }
            if let Some(q) = self.queues[prio].pop_front() {
                return Some(q);
            }
        }
        None
    }

    /// True when some queue holds a transmittable packet right now.
    pub fn has_eligible(&self) -> bool {
        !self.pfc_queue.is_empty()
            || (0..NUM_PRIORITIES).any(|p| !self.rx_paused[p] && !self.queues[p].is_empty())
    }

    /// Applies a received PFC frame to this port's transmit state.
    /// Returns true if a paused class was released (caller should retry
    /// transmission). PAUSE is discarded while the storm watchdog has the
    /// class in its ignore window; RESUME is always honored.
    pub fn apply_pfc(&mut self, class: u8, pause: bool, now: Time) -> bool {
        let c = class as usize;
        if pause && self.pfc_ignore[c] {
            return false;
        }
        let was = self.rx_paused[c];
        self.rx_paused[c] = pause;
        if pause {
            if !was {
                self.rx_paused_since[c] = now;
            }
        } else {
            self.rx_paused_since[c] = Time::NEVER;
        }
        was && !pause
    }

    /// Starts serializing the next eligible frame if the transmitter is
    /// idle, scheduling `TxDone` for `(node, pid)` when the last bit is
    /// out. Only `TxDone` is scheduled here; [`Port::finish_tx`] moves the
    /// frame out of `current` and schedules its `Deliver` — one pending
    /// event per frame in flight, and no per-packet clone.
    pub fn start_tx(&mut self, ctx: &mut Ctx, node: NodeId, pid: PortId) {
        if self.current.is_some() {
            return;
        }
        let Some(att) = self.attach else { return };
        let Some(q) = self.dequeue_next() else { return };
        let ser = att.bandwidth.serialize(q.pkt.wire_bytes);
        let now = ctx.queue.now();
        ctx.queue
            .schedule(now + ser, Event::TxDone { node, port: pid });
        self.current = Some(q);
    }

    /// The frame in `current` finished serializing: records its hop span
    /// (data frames, spans on) and hands it to the wire, where its
    /// `Deliver` fires one link delay later. Returns the shared-buffer
    /// charge it held — `(ingress port, priority, wire bytes)` — for
    /// frames with an ingress attribution, which the switch releases.
    pub fn finish_tx(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        pid: PortId,
    ) -> Option<(usize, usize, u64)> {
        let done = self.current.take()?;
        let wire = done.pkt.wire_bytes;
        if done.counted {
            // In-flight frames count toward `queued_bytes` until done.
            let prio = done.pkt.priority as usize;
            let ok = checked_drain(&mut self.queued_bytes[prio], wire);
            debug_assert!(ok, "queued_bytes underflow");
        }
        // `start_tx` only goes busy on an attached port; degrade to
        // dropping the frame rather than panicking the run.
        let Some(att) = self.attach else {
            debug_assert!(false, "transmitting port must be attached");
            return None;
        };
        let now = ctx.queue.now();
        if ctx.spans.is_enabled() && done.pkt.is_data() {
            let ser = att.bandwidth.serialize(wire);
            ctx.spans.record_hop(HopSpan {
                flow: done.pkt.flow,
                node,
                port: pid,
                enqueued: done.enqueued_at,
                start: now - ser,
                end: now,
            });
        }
        let pkt = ctx.pool.insert(done.pkt);
        ctx.queue.schedule(
            now + att.delay,
            Event::Deliver {
                node: att.peer,
                port: att.peer_port,
                pkt,
            },
        );
        done.ingress.map(|(port, prio)| (port, prio, wire))
    }

    /// Applies a PFC frame received on this port ([`Port::apply_pfc`]) and,
    /// when it releases a paused class, observes how long the class was
    /// paused in `pause_duration_us`. Returns true on release (the caller
    /// retries transmission).
    pub fn receive_pfc(&mut self, ctx: &mut Ctx, class: u8, pause: bool) -> bool {
        let now = ctx.queue.now();
        let paused_since = self.rx_paused_since[class as usize];
        let released = self.apply_pfc(class, pause, now);
        if released && paused_since != Time::NEVER {
            ctx.metrics
                .pause_duration_us
                .observe(now.saturating_since(paused_since).as_micros_f64() as u64);
        }
        released
    }

    /// Clears all PFC state, as a physical link reset does: outstanding
    /// rx pauses expire, our own PAUSE bookkeeping is forgotten (the far
    /// end lost its state too), and any watchdog ignore window ends.
    /// Called by the fault layer on link down *and* up transitions.
    pub fn reset_pfc(&mut self) {
        self.rx_paused = [false; NUM_PRIORITIES];
        self.rx_paused_since = [Time::NEVER; NUM_PRIORITIES];
        self.tx_pause_sent = [false; NUM_PRIORITIES];
        self.pfc_ignore = [false; NUM_PRIORITIES];
        // Undelivered PFC frames die with the link. A stale PAUSE sent
        // after the reset would pause a peer whose RESUME bookkeeping was
        // just forgotten — a permanent freeze.
        self.pfc_queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Auditor;
    use crate::event::{EventQueue, NodeId};
    use crate::packet::{FlowId, PacketKind};
    use crate::rng::SplitMix64;
    use crate::slab::PacketPool;
    use crate::telemetry::spans::Spans;
    use crate::telemetry::{FlightRecorder, Metrics};

    const BW: Bandwidth = Bandwidth::gbps(40);
    const DELAY: Duration = Duration::from_micros(2);
    const NODE: NodeId = NodeId(0);
    const PID: PortId = PortId(2);

    fn ctx() -> Ctx {
        Ctx {
            queue: EventQueue::new(),
            rng: SplitMix64::new(1),
            ecmp_salt: 0,
            flow_stats: Vec::new(),
            audit: Auditor::default(),
            metrics: Metrics::default(),
            flight: FlightRecorder::new(2),
            spans: Spans::disabled(),
            pool: PacketPool::new(),
        }
    }

    /// A port on `NODE` wired to port 3 of node 1.
    fn attached() -> Port {
        let mut port = Port::new();
        port.attach = Some(Attachment {
            link: LinkId(0),
            peer: NodeId(1),
            peer_port: PortId(3),
            bandwidth: BW,
            delay: DELAY,
        });
        port
    }

    /// Pops the next event, which must be `(NODE, PID)`'s `TxDone`, and
    /// returns its time.
    fn pop_tx_done(ctx: &mut Ctx) -> Time {
        let (at, ev) = ctx.queue.pop().expect("TxDone scheduled");
        let Event::TxDone { node, port } = ev else {
            panic!("expected TxDone, got {ev:?}");
        };
        assert_eq!((node, port), (NODE, PID));
        at
    }

    /// Runs one frame through the transmitter: `start_tx`, then
    /// `finish_tx` at its `TxDone` time. Returns the charge and the time
    /// serialization ended.
    fn transmit(port: &mut Port, ctx: &mut Ctx) -> (Option<(usize, usize, u64)>, Time) {
        port.start_tx(ctx, NODE, PID);
        let at = pop_tx_done(ctx);
        (port.finish_tx(ctx, NODE, PID), at)
    }

    #[test]
    fn start_tx_schedules_tx_done_after_serialization_while_idle() {
        let mut ctx = ctx();
        ctx.queue.advance_clock(Time::from_micros(5));
        let mut port = attached();
        port.enqueue(data(3, 1500));
        port.enqueue(data(3, 1000));
        port.start_tx(&mut ctx, NODE, PID);
        assert!(port.current.is_some(), "busy while a frame is on the wire");
        // A busy transmitter takes nothing more off the queues.
        port.start_tx(&mut ctx, NODE, PID);
        assert_eq!(ctx.queue.len(), 1);
        assert_eq!(port.queues[3].len(), 1);
        let at = pop_tx_done(&mut ctx);
        assert_eq!(at, Time::from_micros(5) + BW.serialize(1500));
    }

    #[test]
    fn start_tx_needs_an_attached_port_and_an_eligible_frame() {
        let mut ctx = ctx();
        let mut idle = attached();
        idle.start_tx(&mut ctx, NODE, PID);
        let mut unattached = Port::new();
        unattached.enqueue(data(3, 1500));
        unattached.start_tx(&mut ctx, NODE, PID);
        assert!(ctx.queue.is_empty());
        assert!(idle.current.is_none() && unattached.current.is_none());
    }

    #[test]
    fn finish_tx_delivers_to_the_peer_after_the_link_delay() {
        let mut ctx = ctx();
        let mut port = attached();
        port.enqueue(data(3, 1500));
        let (charge, done_at) = transmit(&mut port, &mut ctx);
        assert_eq!(charge, Some((2, 3, 1500)), "(ingress port, prio, wire)");
        assert!(port.current.is_none());
        assert_eq!(port.total_queued_bytes(), 0);
        let (at, ev) = ctx.queue.pop().expect("Deliver scheduled");
        assert_eq!(at, done_at + DELAY);
        let Event::Deliver {
            node,
            port: peer_port,
            pkt,
        } = ev
        else {
            panic!("expected Deliver, got {ev:?}");
        };
        assert_eq!((node, peer_port), (NodeId(1), PortId(3)));
        assert_eq!(ctx.pool.take(pkt).wire_bytes, 1500);
        assert!(ctx.queue.is_empty());
    }

    #[test]
    fn finish_tx_charges_only_attributed_frames() {
        let mut ctx = ctx();
        let mut port = attached();
        let mut host_frame = data(3, 1500);
        host_frame.ingress = None;
        port.enqueue(host_frame);
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        // The PFC frame goes first; neither holds shared-buffer space.
        assert_eq!(transmit(&mut port, &mut ctx).0, None);
        ctx.queue.pop().expect("PFC frame delivered");
        assert_eq!(transmit(&mut port, &mut ctx).0, None);
        ctx.queue.pop().expect("host frame delivered");
        // An idle port has nothing to finish.
        assert_eq!(port.finish_tx(&mut ctx, NODE, PID), None);
        assert!(ctx.queue.is_empty());
    }

    #[test]
    fn finish_tx_records_hops_for_data_frames_while_spans_are_on() {
        let mut ctx = ctx();
        let mut port = attached();
        port.enqueue(data(3, 1500).at(Time::ZERO));
        transmit(&mut port, &mut ctx);
        assert!(ctx.spans.hops().is_empty(), "spans off: no hop");

        ctx.spans.enable(4);
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        transmit(&mut port, &mut ctx);
        assert!(ctx.spans.hops().is_empty(), "control frames have no hop");

        let enqueued = ctx.queue.now();
        port.enqueue(data(3, 1500).at(enqueued));
        let (_, end) = transmit(&mut port, &mut ctx);
        assert_eq!(
            ctx.spans.hops(),
            &[HopSpan {
                flow: FlowId(1),
                node: NODE,
                port: PID,
                enqueued,
                start: end - BW.serialize(1500),
                end,
            }]
        );
    }

    #[test]
    fn receive_pfc_observes_the_paused_interval_on_release() {
        let mut ctx = ctx();
        let mut port = attached();
        let samples = |ctx: &Ctx| ctx.metrics.pause_duration_us.count();
        ctx.queue.advance_clock(Time::from_micros(10));
        assert!(!port.receive_pfc(&mut ctx, 3, true));
        ctx.queue.advance_clock(Time::from_micros(15));
        assert!(!port.receive_pfc(&mut ctx, 3, true), "refresh PAUSE");
        assert_eq!(samples(&ctx), 0, "no sample on a PAUSE");
        ctx.queue.advance_clock(Time::from_micros(40));
        assert!(port.receive_pfc(&mut ctx, 3, false));
        assert_eq!(samples(&ctx), 1);
        assert_eq!(ctx.metrics.pause_duration_us.max(), 30);
        assert!(!port.receive_pfc(&mut ctx, 3, false), "duplicate RESUME");
        assert_eq!(samples(&ctx), 1, "no sample on a duplicate RESUME");
    }

    fn data(prio: u8, bytes: u64) -> Queued {
        let mut p = Packet::data(NodeId(0), NodeId(1), FlowId(1), prio, 0, bytes - 64);
        p.wire_bytes = bytes;
        Queued::new(p, Some((2, prio as usize)))
    }

    #[test]
    fn strict_priority_ordering() {
        let mut port = Port::new();
        port.enqueue(data(5, 1500));
        port.enqueue(data(3, 1500));
        port.enqueue(data(0, 64));
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 0);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 3);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 5);
        assert!(port.dequeue_next().is_none());
    }

    #[test]
    fn fifo_within_priority() {
        let mut port = Port::new();
        let mut a = data(3, 1000);
        a.pkt.wire_bytes = 1000;
        port.enqueue(a);
        port.enqueue(data(3, 1500));
        assert_eq!(port.dequeue_next().unwrap().pkt.wire_bytes, 1000);
        assert_eq!(port.dequeue_next().unwrap().pkt.wire_bytes, 1500);
    }

    #[test]
    fn pfc_frames_preempt_everything() {
        let mut port = Port::new();
        port.enqueue(data(0, 64));
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        let first = port.dequeue_next().unwrap();
        assert!(matches!(first.pkt.kind, PacketKind::Pfc { .. }));
    }

    #[test]
    fn paused_classes_are_skipped() {
        let mut port = Port::new();
        port.enqueue(data(3, 1500));
        port.enqueue(data(5, 1500));
        port.apply_pfc(3, true, Time::ZERO);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 5);
        assert!(port.dequeue_next().is_none());
        assert!(!port.has_eligible());
        let released = port.apply_pfc(3, false, Time::ZERO);
        assert!(released);
        assert!(port.has_eligible());
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 3);
    }

    #[test]
    fn byte_accounting_spans_transmission() {
        let mut ctx = ctx();
        let mut port = attached();
        port.enqueue(data(3, 1500));
        assert_eq!(port.queued_bytes[3], 1500);
        port.start_tx(&mut ctx, NODE, PID);
        // Still accounted while in flight.
        assert_eq!(port.queued_bytes[3], 1500);
        port.finish_tx(&mut ctx, NODE, PID);
        assert_eq!(port.total_queued_bytes(), 0);
    }

    #[test]
    fn apply_pfc_reports_release_only_on_transition() {
        let mut port = Port::new();
        assert!(!port.apply_pfc(3, true, Time::ZERO));
        assert!(!port.apply_pfc(3, true, Time::ZERO));
        assert!(port.apply_pfc(3, false, Time::ZERO));
        assert!(!port.apply_pfc(3, false, Time::ZERO));
    }

    #[test]
    fn apply_pfc_tracks_pause_onset_for_the_watchdog() {
        let mut port = Port::new();
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
        port.apply_pfc(3, true, Time::from_micros(10));
        assert_eq!(port.rx_paused_since[3], Time::from_micros(10));
        // A refresh PAUSE does not restart the clock.
        port.apply_pfc(3, true, Time::from_micros(20));
        assert_eq!(port.rx_paused_since[3], Time::from_micros(10));
        port.apply_pfc(3, false, Time::from_micros(30));
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
    }

    #[test]
    fn ignore_window_discards_pause_but_honors_resume() {
        let mut port = Port::new();
        port.pfc_ignore[3] = true;
        port.apply_pfc(3, true, Time::ZERO);
        assert!(!port.rx_paused[3], "PAUSE ignored while watchdog tripped");
        port.pfc_ignore[3] = false;
        port.apply_pfc(3, true, Time::ZERO);
        assert!(port.rx_paused[3]);
        port.pfc_ignore[3] = true;
        assert!(
            port.apply_pfc(3, false, Time::ZERO),
            "RESUME always honored"
        );
    }

    #[test]
    fn reset_pfc_clears_all_pause_state() {
        let mut port = Port::new();
        port.apply_pfc(3, true, Time::from_micros(5));
        port.tx_pause_sent[4] = true;
        port.pfc_ignore[5] = true;
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        port.reset_pfc();
        assert!(!port.rx_paused[3]);
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
        assert!(!port.tx_pause_sent[4]);
        assert!(!port.pfc_ignore[5]);
        assert!(
            port.pfc_queue.is_empty(),
            "stale PFC frames die with the link"
        );
    }
}
