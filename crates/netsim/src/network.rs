//! The network: nodes, links, the event loop, and the experiment-facing
//! API (build a topology, add flows, inject messages, run, read stats).

use crate::audit::{check_queue_drain, Auditor, Violation, ViolationKind};
use crate::cc::CongestionControl;
use crate::ecn::RedConfig;
use crate::event::{Event, EventQueue, LinkId, NodeId, PortId, TimerKind};
use crate::faults::{FaultAction, FaultConfig, FaultEngine, FaultPlan, FaultStats, WireFate};
use crate::host::{Host, HostConfig};
use crate::packet::{FlowId, Packet, Priority, NUM_PRIORITIES};
use crate::port::{Attachment, Port};
use crate::rng::SplitMix64;
use crate::routing::{compute_routes_masked, Edge};
use crate::slab::PacketPool;
use crate::stats::{FlowStats, SamplerConfig, SwitchStats};
use crate::switch::{Switch, SwitchConfig};
use crate::telemetry::recorder::{FlightDump, FlightRecorder};
use crate::telemetry::spans::{CongestionTree, Spans, NUM_SPAN_STATES};
use crate::telemetry::timeline::{Timeline, TimelineSet, TrackId, TrackKind, DEFAULT_POINT_BUDGET};
use crate::telemetry::{Dashboard, Json, Metrics, Series};
use crate::trace::{TraceEvent, TraceKind, Tracer};
use crate::units::{Bandwidth, Duration, Time};
use std::collections::HashMap;

/// Trace-ring capacity per node when the flight recorder is enabled
/// automatically alongside the sanitize auditor.
const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// A node is either a switch or a host.
pub enum Node {
    /// A shared-buffer switch.
    Switch(Switch),
    /// An end host with one NIC.
    Host(Host),
}

impl Node {
    /// The node's ports, indexed by [`PortId`]: a switch's egress ports,
    /// or a host's NIC as a one-element slice.
    pub fn ports(&self) -> &[Port] {
        match self {
            Node::Switch(s) => &s.ports,
            Node::Host(h) => std::slice::from_ref(&h.port),
        }
    }

    /// Mutable [`Node::ports`].
    pub fn ports_mut(&mut self) -> &mut [Port] {
        match self {
            Node::Switch(s) => &mut s.ports,
            Node::Host(h) => std::slice::from_mut(&mut h.port),
        }
    }
}

/// Mutable context threaded through node callbacks: the event queue, the
/// simulator RNG, and global per-flow statistics. Kept separate from the
/// node table so node methods can borrow both.
pub struct Ctx {
    /// The event queue (also the clock).
    pub queue: EventQueue,
    /// Simulator-internal randomness (RED sampling).
    pub rng: SplitMix64,
    /// Per-run ECMP hash salt.
    pub ecmp_salt: u64,
    /// Per-flow counters, indexed by flow id (ids are handed out
    /// sequentially from 0, so a flat Vec beats hashing on every packet).
    pub flow_stats: Vec<FlowStats>,
    /// Runtime invariant auditor (active only with the `sanitize`
    /// feature; otherwise every call is an inlined no-op).
    pub audit: Auditor,
    /// Run-wide measurements no per-node store owns (histograms, the
    /// buffer high-water mark, convergence tallies). Plain fields.
    pub metrics: Metrics,
    /// The one trace record path: feeds the global packet trace
    /// (disabled unless enabled on the network) and the per-node flight
    /// rings (disabled by default; auto-enabled when the sanitize
    /// auditor is compiled in). Each is one branch when disabled.
    pub flight: FlightRecorder,
    /// Span-based causal tracer (disabled unless enabled on the network;
    /// every hook is one branch when off).
    pub spans: Spans,
    /// Slab of in-flight packets: `Event::Deliver` carries a handle into
    /// this pool, recycled when the event dispatches.
    pub pool: PacketPool,
}

impl Ctx {
    /// Mutable access to a flow's counters (created on first touch).
    pub fn stats(&mut self, id: FlowId) -> &mut FlowStats {
        let i = id.0 as usize;
        if i >= self.flow_stats.len() {
            self.flow_stats.resize_with(i + 1, FlowStats::default);
        }
        &mut self.flow_stats[i]
    }

    /// Settles a flow's span timeline at a message completion and routes
    /// any FCT-decomposition mismatch (`Σ spans != fct`) to the sanitize
    /// auditor. One branch when span tracing is disabled.
    #[inline]
    pub fn complete_span(&mut self, flow: FlowId, host: NodeId, now: Time) {
        if let Some((fct, sum)) = self.spans.on_complete(flow, now) {
            self.audit.on_span_mismatch(host, flow, fct, sum, now);
        }
    }
}

/// One-shot mutation executed at a scheduled time (start flows, flip
/// configuration mid-run).
pub type Hook = Box<dyn FnMut(&mut Network)>;

/// Declarative network construction.
pub struct NetworkBuilder {
    seed: u64,
    nodes: Vec<NodeSpec>,
    links: Vec<(NodeId, NodeId, Bandwidth, Duration)>,
}

enum NodeSpec {
    Host(HostConfig),
    Switch(SwitchConfig),
}

impl NetworkBuilder {
    /// Starts a build; `seed` fixes all simulator randomness (RED sampling
    /// and the ECMP salt).
    pub fn new(seed: u64) -> NetworkBuilder {
        NetworkBuilder {
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a host.
    pub fn host(&mut self, config: HostConfig) -> NodeId {
        self.nodes.push(NodeSpec::Host(config));
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a switch (port count is inferred from its links).
    pub fn switch(&mut self, config: SwitchConfig) -> NodeId {
        self.nodes.push(NodeSpec::Switch(config));
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a full-duplex link and returns its id (for
    /// fault injection; links are numbered in declaration order).
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Duration,
    ) -> LinkId {
        self.links.push((a, b, bandwidth, delay));
        LinkId(self.links.len() - 1)
    }

    /// Materializes the network: allocates ports, attaches links, computes
    /// shortest-path ECMP routes toward every host.
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        // Assign port indices per node in link-declaration order.
        let mut port_count = vec![0usize; n];
        let mut edges: Vec<Edge> = Vec::with_capacity(self.links.len());
        let mut attach: Vec<(NodeId, usize, Attachment)> = Vec::new();
        for (li, &(a, b, bw, delay)) in self.links.iter().enumerate() {
            let pa = PortId(port_count[a.0]);
            let pb = PortId(port_count[b.0]);
            port_count[a.0] += 1;
            port_count[b.0] += 1;
            edges.push((a, pa, b, pb));
            attach.push((
                a,
                pa.0,
                Attachment {
                    link: LinkId(li),
                    peer: b,
                    peer_port: pb,
                    bandwidth: bw,
                    delay,
                },
            ));
            attach.push((
                b,
                pb.0,
                Attachment {
                    link: LinkId(li),
                    peer: a,
                    peer_port: pa,
                    bandwidth: bw,
                    delay,
                },
            ));
        }

        let mut nodes: Vec<Node> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                NodeSpec::Host(cfg) => {
                    assert!(
                        port_count[i] <= 1,
                        "host {i} has {} links; hosts have one NIC",
                        port_count[i]
                    );
                    Node::Host(Host::new(NodeId(i), cfg))
                }
                NodeSpec::Switch(cfg) => Node::Switch(Switch::new(NodeId(i), port_count[i], cfg)),
            })
            .collect();

        for (node, port, att) in attach {
            nodes[node.0].ports_mut()[port].attach = Some(att);
        }

        // Routes toward every host.
        let dests: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Host(_)))
            .map(|(i, _)| NodeId(i))
            .collect();
        let tables = compute_routes_masked(n, &edges, &[], &dests);
        for (i, table) in tables.into_iter().enumerate() {
            if let Node::Switch(s) = &mut nodes[i] {
                s.routes = table;
            }
        }

        let mut rng = SplitMix64::new(self.seed);
        let ecmp_salt = rng.next_u64();
        let num_links = edges.len();
        let mut flight = FlightRecorder::new(n);
        if Auditor::enabled() {
            // With the auditor compiled in, a violation must always yield
            // an event history — enable the recorder from the start.
            flight.enable(DEFAULT_FLIGHT_CAPACITY);
        }
        Network {
            nodes,
            ctx: Ctx {
                queue: EventQueue::new(),
                rng,
                ecmp_salt,
                flow_stats: Vec::new(),
                audit: Auditor::default(),
                metrics: Metrics::default(),
                flight,
                spans: Spans::disabled(),
                pool: PacketPool::new(),
            },
            edges,
            dests,
            faults: FaultEngine::inactive(num_links),
            flow_locator: HashMap::new(),
            flow_order: Vec::new(),
            next_flow_id: 0,
            sampler: Sampler::default(),
            sample_interval: None,
            timelines: TimelineSet::new(),
            hooks: Vec::new(),
            dumped_violations: 0,
            batch: Vec::new(),
        }
    }
}

/// A flow whose instantaneous CC rate the sampler records, resolved to
/// its host/slot once at registration so the per-tick read is two array
/// indexes.
#[derive(Debug, Clone, Copy)]
struct RateTap {
    flow: FlowId,
    host: NodeId,
    slot: usize,
    track: TrackId,
}

/// A fabric-wide counter sampled as per-interval deltas (PAUSE/ECN/CNP/
/// drop rates). `counter` indexes [`COUNTERS`]; `prev` is the counter
/// value at the previous tick.
#[derive(Debug, Clone, Copy)]
struct CounterTap {
    counter: usize,
    track: TrackId,
    prev: u64,
}

/// A fabric-wide counter: its report name and its derivation.
type Counter = (&'static str, fn(&Network) -> u64);

/// Every fabric-wide counter, in report order (the `counters` section of
/// the telemetry report keeps this order). Each count is kept once, by
/// the store that owns it: per-switch [`SwitchStats`], per-flow
/// [`FlowStats`], the fault layer's [`FaultStats`] or, for the
/// convergence tallies, [`Metrics`].
const COUNTERS: [Counter; 20] = [
    ("ecn_marks", |n| n.switch_sum(|s| s.ecn_marks)),
    ("pause_tx", |n| n.switch_sum(|s| s.pause_tx)),
    ("pause_rx", |n| n.switch_sum(|s| s.pause_rx)),
    ("resume_tx", |n| n.switch_sum(|s| s.resume_tx)),
    ("drops_pool", |n| n.switch_sum(|s| s.drops_pool)),
    ("drops_lossy", |n| n.switch_sum(|s| s.drops_lossy)),
    // `wire_fate` is the only place a frame is lost to a fault.
    ("fault_drops", |n| {
        n.faults.stats.link_drops + n.faults.stats.crc_drops
    }),
    ("forwarded", |n| n.switch_sum(|s| s.forwarded)),
    ("retx_pkts", |n| n.flow_sum(|f| f.retx_pkts)),
    ("timeouts", |n| n.flow_sum(|f| f.timeouts)),
    ("nacks_sent", |n| n.flow_sum(|f| f.nacks_sent)),
    ("cnps_sent", |n| n.flow_sum(|f| f.cnps_sent)),
    ("watchdog_trips", |n| n.switch_sum(|s| s.watchdog_trips)),
    ("watchdog_restores", |n| {
        n.switch_sum(|s| s.watchdog_restores)
    }),
    ("qp_teardowns", |n| n.flow_sum(|f| u64::from(f.aborted))),
    ("completions", |n| {
        n.flow_sum(|f| f.completions.len() as u64)
    }),
    ("link_transitions", |n| n.faults.stats.transitions),
    ("storm_pauses", |n| n.faults.stats.storm_pauses),
    ("convergence_checks", |n| n.ctx.metrics.convergence_checks),
    ("convergence_violations", |n| {
        n.ctx.metrics.convergence_violations
    }),
];

/// The periodic sampler's resolved state: every watched quantity bound
/// to its timeline track at `enable_sampling` time (cold), so
/// `take_sample` does no name lookups and no allocation.
#[derive(Debug, Clone, Default)]
struct Sampler {
    queues: Vec<(NodeId, PortId, TrackId)>,
    rates: Vec<RateTap>,
    counters: Vec<CounterTap>,
    /// Delivered-bytes track per flow, indexed by flow id (`None` until
    /// sampling binds the flow).
    bytes: Vec<Option<TrackId>>,
}

/// A fully built network plus its simulation state.
pub struct Network {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// Event queue, RNG, per-flow stats.
    pub ctx: Ctx,
    /// Bounded-memory time-series tracks (populated when sampling is
    /// enabled; see `telemetry::timeline`).
    pub timelines: TimelineSet,
    /// All links, indexed by [`LinkId`] (declaration order).
    edges: Vec<Edge>,
    /// Route destinations (every host), kept for failover recomputation.
    dests: Vec<NodeId>,
    /// Fault-injection engine. Inactive (one dead branch on the Deliver
    /// path) unless a fault plan is installed or a link is toggled.
    faults: FaultEngine,
    flow_locator: HashMap<FlowId, (NodeId, usize)>,
    /// Flow ids in registration order. Ids are handed out sequentially,
    /// so this is always sorted — `take_sample` iterates it instead of
    /// collecting and sorting `flow_stats` keys every tick.
    flow_order: Vec<FlowId>,
    next_flow_id: u64,
    sampler: Sampler,
    sample_interval: Option<Duration>,
    hooks: Vec<Option<Hook>>,
    /// How many recorded auditor violations have already triggered a
    /// flight-recorder dump (cursor into `audit.violations()`).
    dumped_violations: usize,
    /// Reusable buffer for same-timestamp event cohorts (see `run_until`);
    /// held on the network so the allocation survives across calls.
    batch: Vec<Event>,
}

impl Network {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.ctx.queue.now()
    }

    /// Borrow a host.
    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("node {} is a switch", id.0),
        }
    }

    /// Mutably borrow a host.
    pub fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("node {} is a switch", id.0),
        }
    }

    /// Borrow a switch.
    pub fn switch(&self, id: NodeId) -> &Switch {
        match &self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("node {} is a host", id.0),
        }
    }

    /// Mutably borrow a switch.
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("node {} is a host", id.0),
        }
    }

    /// A switch's counters.
    pub fn switch_stats(&self, id: NodeId) -> SwitchStats {
        self.switch(id).stats
    }

    /// One `SwitchStats` field summed over every switch.
    fn switch_sum(&self, field: impl Fn(&SwitchStats) -> u64) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Switch(s) => field(&s.stats),
                Node::Host(_) => 0,
            })
            .sum()
    }

    /// One `FlowStats` field summed over every flow.
    fn flow_sum(&self, field: impl Fn(&FlowStats) -> u64) -> u64 {
        self.ctx.flow_stats.iter().map(field).sum()
    }

    /// Line rate of a host's NIC.
    pub fn line_rate(&self, host: NodeId) -> Bandwidth {
        self.host(host).line_rate()
    }

    /// Registers a flow from `src` to `dst`; `make_cc` receives the NIC
    /// line rate and returns the flow's congestion-control instance.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        make_cc: impl FnOnce(Bandwidth) -> Box<dyn CongestionControl>,
    ) -> FlowId {
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let line = self.line_rate(src);
        let idx = self
            .host_mut(src)
            .add_flow(id, dst, priority, make_cc(line));
        self.flow_locator.insert(id, (src, idx));
        self.flow_order.push(id);
        self.ctx.stats(id); // materialize the flow's counters
        if self.sample_interval.is_some() {
            // Sampling records every flow: bind the newcomer to its bytes
            // track so flows added mid-run are recorded too.
            let track = self.bytes_track(id);
            self.set_bytes_track(id, track);
        }
        id
    }

    /// Schedules `bytes` to be handed to `flow` at time `at` (clamped to
    /// now). Use `u64::MAX` for a greedy, never-ending flow.
    pub fn send_message(&mut self, flow: FlowId, bytes: u64, at: Time) {
        let (host, idx) = self.flow_locator[&flow];
        let at = at.max(self.ctx.queue.now());
        self.ctx.queue.schedule(
            at,
            Event::Timer {
                node: host,
                kind: TimerKind::MessageArrival { flow: idx, bytes },
            },
        );
    }

    /// A flow's counters.
    pub fn flow_stats(&self, flow: FlowId) -> &FlowStats {
        &self.ctx.flow_stats[flow.0 as usize]
    }

    /// A flow's current CC rate.
    pub fn flow_rate(&self, flow: FlowId) -> Bandwidth {
        let (host, idx) = self.flow_locator[&flow];
        self.host(host).flows[idx].current_rate()
    }

    /// Average receiver goodput of a flow over `[from, to]`, in Gbps,
    /// computed from delivered bytes. Requires `from < to`.
    ///
    /// Uses the flow's sampled delivered-bytes timeline when available
    /// (exact at the boundaries while the track's bucket width is finer
    /// than the sampling interval — true for every experiment cadence in
    /// the harness), else the flow's total counters.
    pub fn goodput_gbps(&self, flow: FlowId, from: Time, to: Time) -> f64 {
        let dt = (to - from).as_secs_f64();
        if let Some(tl) = self.flow_bytes_timeline(flow) {
            if tl.count() > 0 {
                let at = |t: Time| tl.value_at(t).unwrap_or(0.0);
                return (at(to) - at(from)) * 8.0 / dt / 1e9;
            }
        }
        let st = &self.ctx.flow_stats[flow.0 as usize];
        st.delivered_bytes as f64 * 8.0 / dt / 1e9
    }

    /// The queue-depth timeline of a watched `(node, port)` (`None`
    /// unless sampling was enabled with that queue).
    pub fn queue_timeline(&self, node: NodeId, port: PortId) -> Option<&Timeline> {
        self.sampler
            .queues
            .iter()
            .find(|&&(n, p, _)| n == node && p == port)
            .map(|&(_, _, track)| self.timelines.get(track))
    }

    /// A flow's cumulative delivered-bytes timeline (`None` unless the
    /// sampler records it).
    pub fn flow_bytes_timeline(&self, flow: FlowId) -> Option<&Timeline> {
        self.sampler
            .bytes
            .get(flow.0 as usize)
            .copied()
            .flatten()
            .map(|track| self.timelines.get(track))
    }

    /// A flow's instantaneous CC-rate timeline in Gbps (`None` unless it
    /// was listed in `SamplerConfig::rate_flows`).
    pub fn flow_rate_timeline(&self, flow: FlowId) -> Option<&Timeline> {
        self.sampler
            .rates
            .iter()
            .find(|tap| tap.flow == flow)
            .map(|tap| self.timelines.get(tap.track))
    }

    /// Registers (or re-finds) a flow's delivered-bytes track. Cold.
    fn bytes_track(&mut self, id: FlowId) -> TrackId {
        self.timelines.track(
            &format!("flow_bytes/{}", id.0),
            TrackKind::Cumulative,
            1.0,
            DEFAULT_POINT_BUDGET,
        )
    }

    /// Binds a flow id to its bytes track, growing the id-indexed slot
    /// table as needed.
    fn set_bytes_track(&mut self, id: FlowId, track: TrackId) {
        let i = id.0 as usize;
        if i >= self.sampler.bytes.len() {
            self.sampler.bytes.resize(i + 1, None);
        }
        self.sampler.bytes[i] = Some(track);
    }

    /// Enables packet-level tracing with a ring of `capacity` events.
    ///
    /// A `capacity` of 0 means "no tracing": the tracer is returned to
    /// its disabled state (one branch per record) rather than an
    /// always-empty ring that still pays the record cost.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.ctx.flight.enable_trace(capacity);
    }

    /// The recorded trace (empty unless [`Network::enable_trace`] was
    /// called).
    pub fn trace(&self) -> &Tracer {
        self.ctx.flight.trace()
    }

    /// Enables span-based causal tracing (see `telemetry::spans`): up to
    /// `capacity` closed spans per flow plus bounded hop spans and
    /// PAUSE-propagation edges. A `capacity` of 0 disables it.
    pub fn enable_spans(&mut self, capacity: usize) {
        self.ctx.spans.enable(capacity);
    }

    /// The causal-tracing recorder (inert unless
    /// [`Network::enable_spans`] was called).
    pub fn spans(&self) -> &Spans {
        &self.ctx.spans
    }

    /// A flow's per-state attributed time as of the current simulation
    /// time (see `telemetry::spans` for the decomposition identity).
    pub fn span_breakdown(&self, flow: FlowId) -> Option<[Duration; NUM_SPAN_STATES]> {
        self.ctx.spans.breakdown(flow, self.now())
    }

    /// Folds recorded PAUSE/RESUME edges into the run's congestion tree:
    /// root port(s), aggregated who-paused-whom edges, and victim flows.
    pub fn congestion_tree(&self) -> CongestionTree {
        self.ctx.spans.congestion_tree(self.now())
    }

    /// Renders everything the span tracer recorded as deterministic
    /// Chrome trace-event JSON (loads in Perfetto / `about://tracing`).
    pub fn chrome_trace(&self) -> Json {
        self.ctx.spans.chrome_trace(self.now())
    }

    /// Enables periodic sampling every `interval`: each queue, rate flow
    /// and counter named by `config`, and every flow's delivered bytes,
    /// becomes a bounded-memory track in [`Network::timelines`].
    /// Registration (name formatting, track allocation) happens here,
    /// once; the per-tick sample does no name lookups.
    ///
    /// # Panics
    /// Panics when `config.counters` names an unknown counter — a config
    /// typo, caught up front.
    pub fn enable_sampling(&mut self, interval: Duration, config: SamplerConfig) {
        let mut sampler = Sampler::default();
        for &(node, port) in &config.queues {
            let track = self.timelines.track(
                &format!("queue_bytes/{}:{}", node.0, port.0),
                TrackKind::Gauge,
                1.0,
                DEFAULT_POINT_BUDGET,
            );
            sampler.queues.push((node, port, track));
        }
        for &id in &config.rate_flows {
            let (host, slot) = self.flow_locator[&id];
            let track = self.timelines.track(
                &format!("flow_rate_gbps/{}", id.0),
                TrackKind::Gauge,
                1e-6, // micro-Gbps fixed point
                DEFAULT_POINT_BUDGET,
            );
            sampler.rates.push(RateTap {
                flow: id,
                host,
                slot,
                track,
            });
        }
        for name in &config.counters {
            let counter = COUNTERS
                .iter()
                .position(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("enable_sampling: unknown counter '{name}'"));
            let track = self.timelines.track(
                &format!("rate/{name}"),
                TrackKind::Counter,
                1.0,
                DEFAULT_POINT_BUDGET,
            );
            sampler.counters.push(CounterTap {
                counter,
                track,
                prev: (COUNTERS[counter].1)(self),
            });
        }
        self.sampler = sampler;
        for id in self.flow_order.clone() {
            let track = self.bytes_track(id);
            self.set_bytes_track(id, track);
        }
        self.sample_interval = Some(interval);
        let at = self.ctx.queue.now() + interval;
        self.ctx.queue.schedule(at, Event::Sample);
    }

    /// Installs a fault plan: activates the fault engine (with `config`'s
    /// failover policy and bit-error seed) and schedules every planned
    /// action on the event queue. Actions planned in the past fire
    /// immediately (clamped to now).
    ///
    /// # Panics
    /// Panics when the plan fails [`FaultPlan::validate`] (overlapping or
    /// nested events on the same link/storm — their interleaving would be
    /// undefined, so they are rejected up front with the validator's
    /// message rather than silently reordered).
    pub fn install_faults(&mut self, plan: &FaultPlan, config: FaultConfig) {
        if let Err(msg) = plan.validate() {
            panic!("{msg}");
        }
        self.faults.activate(config);
        let now = self.ctx.queue.now();
        for &(at, action) in plan.actions() {
            self.ctx
                .queue
                .schedule(at.max(now), Event::Fault { action });
        }
    }

    /// Fault-engine counters (all zero when no faults were injected).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Is `link` currently up? (Always true before any fault injection.)
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.faults.link_up(link)
    }

    /// The link connecting `a` and `b` directly (either order), if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.edges
            .iter()
            .position(|&(x, _, y, _)| (x == a && y == b) || (x == b && y == a))
            .map(LinkId)
    }

    /// Administratively sets one link up or down, immediately.
    ///
    /// A transition (either direction) fails both directions at once and
    /// resets PFC state on both endpoints — a repaired link comes back
    /// with a clean slate, and a dead one cannot leave its neighbor
    /// stuck honoring a PAUSE whose RESUME will never arrive. With
    /// failover enabled (the default) routes are recomputed over the
    /// surviving topology. Packets already in flight on the link when it
    /// dies are lost (counted as fault drops).
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        if self.faults.links[link.0].up == up {
            return;
        }
        self.faults.active = true;
        self.faults.links[link.0].up = up;
        self.faults.stats.transitions += 1;
        let (a, pa, b, pb) = self.edges[link.0];
        self.reset_pfc_at(a, pa);
        self.reset_pfc_at(b, pb);
        self.ctx.flight.record(TraceEvent {
            at: self.ctx.queue.now(),
            node: a,
            flow: FlowId(u64::MAX),
            kind: if up {
                TraceKind::LinkUp
            } else {
                TraceKind::LinkDown
            },
            detail: link.0 as u64,
        });
        if self.faults.config.failover {
            self.recompute_routes();
        }
    }

    /// Recomputes every switch's routing table over the currently-up
    /// links (route failover / restoration).
    pub fn recompute_routes(&mut self) {
        let down: Vec<bool> = self.faults.links.iter().map(|l| !l.up).collect();
        let tables = compute_routes_masked(self.nodes.len(), &self.edges, &down, &self.dests);
        for (i, table) in tables.into_iter().enumerate() {
            if let Node::Switch(s) = &mut self.nodes[i] {
                s.routes = table;
            }
        }
        self.faults.stats.reroutes += 1;
    }

    /// Clears all PFC state on one endpoint of a transitioning link and
    /// kicks its transmitter (it may have been pause-blocked).
    fn reset_pfc_at(&mut self, node: NodeId, port: PortId) {
        let Network { nodes, ctx, .. } = self;
        ctx.audit.on_pfc_reset(node, port.0);
        match &mut nodes[node.0] {
            Node::Switch(s) => s.reset_link_pfc(ctx, port),
            Node::Host(h) => {
                h.port.reset_pfc();
                h.try_send(ctx);
                h.update_spans(ctx);
            }
        }
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown { link } => self.set_link_state(link, false),
            FaultAction::LinkUp { link } => self.set_link_state(link, true),
            FaultAction::SetBitError { link, drop_prob } => {
                self.faults.active = true;
                self.faults.links[link.0].drop_prob = drop_prob;
            }
            FaultAction::EcnOff { switch } => {
                // The §5 misconfiguration case: marking silently stops.
                self.switch_mut(switch).config.red = RedConfig::disabled();
            }
            FaultAction::PauseStormTick {
                host,
                class,
                until,
                refresh,
            } => {
                let now = self.ctx.queue.now();
                let Network {
                    nodes, ctx, faults, ..
                } = self;
                if let Node::Host(h) = &mut nodes[host.0] {
                    if let Some(att) = h.port.attach {
                        h.port
                            .pfc_queue
                            .push_back(Packet::pfc(host, att.peer, class, true));
                        faults.stats.storm_pauses += 1;
                        if ctx.spans.is_enabled() {
                            ctx.spans.record_pause_edge(crate::faults::storm_pause_edge(
                                host, att, class, now,
                            ));
                        }
                        h.try_send(ctx);
                        h.update_spans(ctx);
                    }
                }
                let next = now + refresh;
                if refresh > Duration::ZERO && next <= until {
                    self.ctx.queue.schedule(next, Event::Fault { action });
                }
            }
            FaultAction::WedgeWatchdog {
                switch,
                port,
                class,
            } => {
                let Network { nodes, ctx, .. } = self;
                if let Node::Switch(s) = &mut nodes[switch.0] {
                    s.wedge_watchdog(ctx, port, class as usize);
                }
            }
        }
    }

    /// Schedules a one-shot mutation of the network at time `at`.
    pub fn schedule_hook(&mut self, at: Time, hook: Hook) {
        let id = self.hooks.len();
        self.hooks.push(Some(hook));
        self.ctx.queue.schedule(at, Event::Hook { id });
    }

    /// Runs the simulation until (and including) events at `until`.
    pub fn run_until(&mut self, until: Time) {
        // Events sharing a timestamp are drained from the queue as one
        // cohort and dispatched back-to-back, skipping the scheduler's
        // bucket/heap machinery between them. Order is unchanged: anything
        // a dispatch schedules at the same timestamp gets a higher seq
        // than the whole drained cohort and forms the *next* cohort.
        // The buffer is taken out of `self` so `dispatch` (which may run
        // arbitrary hooks) can borrow the network freely.
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.ctx.queue.pop_batch(until, &mut batch) {
            for event in batch.drain(..) {
                self.ctx.audit.on_event(t);
                self.dispatch(event);
                if self.ctx.audit.buffer_check_due() {
                    self.audit_buffers_now();
                }
                // Dead branch without the sanitize feature (`violations()`
                // is a constant empty slice).
                if self.ctx.audit.violations().len() != self.dumped_violations {
                    self.flight_dump_new_violations();
                }
            }
        }
        self.batch = batch;
        // The loop leaves the clock at the last *popped* event, which may
        // fall well short of `until` (or never move at all in an idle
        // window). Land on the horizon itself so spans, telemetry
        // timestamps, and back-to-back `run_until` calls all measure the
        // window the caller asked for.
        self.ctx.queue.advance_clock(until);
    }

    /// Snapshots the flight recorder for every newly recorded auditor
    /// violation that names a node. Cold path.
    fn flight_dump_new_violations(&mut self) {
        let Ctx { audit, flight, .. } = &mut self.ctx;
        let violations = audit.violations();
        for v in violations.iter().skip(self.dumped_violations) {
            if let Some(node) = v.node {
                flight.dump(node, v.at, &format!("{:?}: {}", v.kind, v.context));
            }
        }
        self.dumped_violations = violations.len();
    }

    /// The runtime invariant auditor's findings (always empty without the
    /// `sanitize` feature).
    pub fn audit(&self) -> &Auditor {
        &self.ctx.audit
    }

    /// Runs the shared-buffer conservation check on every switch right
    /// now. The event loop does this periodically on its own; tests call
    /// it directly to audit a hand-corrupted state.
    pub fn audit_buffers_now(&mut self) {
        let now = self.ctx.queue.now();
        let Network { nodes, ctx, .. } = self;
        for node in nodes.iter() {
            if let Node::Switch(s) = node {
                ctx.audit.check_buffer(
                    s.id,
                    s.buffer.occupied(),
                    s.buffer.ingress_total(),
                    s.buffer.config().total_bytes,
                    now,
                );
            }
        }
        // Tests call this directly (outside the event loop), so sweep for
        // dumps here too, not only in `run_until`.
        if self.ctx.audit.violations().len() != self.dumped_violations {
            self.flight_dump_new_violations();
        }
    }

    /// Number of links in the fabric (fault injection targets).
    pub fn num_links(&self) -> usize {
        self.edges.len()
    }

    /// Sum of queued bytes across every port of every node (switch egress
    /// queues plus host NICs). The convergence drain samples read this.
    pub fn total_queued_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(Node::ports)
            .map(Port::total_queued_bytes)
            .sum()
    }

    /// Per-flow delivered-byte counters indexed by flow id. The
    /// convergence stuck-QP check snapshots this at the start of the
    /// settle window and compares at the end.
    pub fn delivered_snapshot(&self) -> Vec<u64> {
        self.ctx
            .flow_stats
            .iter()
            .map(|s| s.delivered_bytes)
            .collect()
    }

    /// Post-fault convergence audit. Call after the last planned fault
    /// has cleared plus a settling bound: `settle_start` is when the
    /// settle window began (all faults cleared), `baseline` a
    /// [`Network::delivered_snapshot`] taken at `settle_start`, and
    /// `queue_samples` periodic `(time, total_queued_bytes)` probes taken
    /// across the window. Checks, in order:
    ///
    /// 1. every link is up and carries no residual bit-error probability,
    /// 2. every PFC watchdog has restored (no `pfc_ignore` anywhere),
    /// 3. no port has been pause-blocked continuously since before the
    ///    settle window (transient PAUSE under live traffic is normal),
    /// 4. queues drained below `queue_threshold`, or are at least still
    ///    visibly draining (see [`check_queue_drain`]),
    /// 5. every live, unfinished QP made byte progress across the window
    ///    (torn-down QPs are legitimate degradation, not stuck state),
    /// 6. every switch's routes equal a fresh [`compute_routes_masked`]
    ///    over the current link state.
    ///
    /// The list is returned unconditionally so release campaign runs can
    /// read it; with the `sanitize` feature the violations are also
    /// folded into the auditor as [`ViolationKind::Convergence`] and the
    /// flight recorder is dumped for each violation that names a node.
    ///
    /// The settling bound must exceed the watchdog recovery interval and
    /// the worst-case RTO backoff gap (`rto × rto_backoff_cap`), or
    /// healthy in-progress recovery can be misread as stuck state.
    pub fn check_convergence(
        &mut self,
        settle_start: Time,
        queue_threshold: u64,
        baseline: &[u64],
        queue_samples: &[(Time, u64)],
    ) -> Vec<Violation> {
        let now = self.ctx.queue.now();
        let mut violations: Vec<Violation> = Vec::new();
        let conv = |node: Option<NodeId>, context: String| Violation {
            at: now,
            kind: ViolationKind::Convergence,
            node,
            context,
        };

        // 1. Link health.
        for (i, l) in self.faults.links.iter().enumerate() {
            let (a, _, b, _) = self.edges[i];
            if !l.up {
                violations.push(conv(
                    Some(a),
                    format!("link {i} ({}-{}) still down at convergence check", a.0, b.0),
                ));
            }
            if l.drop_prob > 0.0 {
                let p = l.drop_prob;
                violations.push(conv(
                    Some(a),
                    format!(
                        "link {i} ({}-{}) still degraded (bit-error p={p})",
                        a.0, b.0
                    ),
                ));
            }
        }

        // 2 + 3. Port pause state: wedged watchdogs and standing pauses.
        for (ni, node) in self.nodes.iter().enumerate() {
            for (pid, port) in node.ports().iter().enumerate() {
                for c in 0..NUM_PRIORITIES {
                    if port.pfc_ignore[c] {
                        violations.push(conv(
                            Some(NodeId(ni)),
                            format!(
                                "node {ni} port {pid} class {c}: watchdog still \
                                 tripped (PAUSE ignored) after settle window"
                            ),
                        ));
                    }
                    if port.rx_paused[c] && port.rx_paused_since[c] <= settle_start {
                        let since = port.rx_paused_since[c];
                        violations.push(conv(
                            Some(NodeId(ni)),
                            format!(
                                "node {ni} port {pid} class {c}: pause-blocked \
                                 continuously since {since} (before settle window)"
                            ),
                        ));
                    }
                }
            }
        }

        // 4. Queue drain across the settle window.
        if let Some(v) = check_queue_drain(queue_samples, queue_threshold) {
            violations.push(v);
        }

        // 5. Stuck QPs: live, unfinished flows must have moved bytes.
        for node in &self.nodes {
            if let Node::Host(h) = node {
                for f in &h.flows {
                    if f.dead || f.is_idle() {
                        continue;
                    }
                    let i = f.id.0 as usize;
                    let before = baseline.get(i).copied().unwrap_or(0);
                    let after = self.ctx.flow_stats.get(i).map_or(0, |s| s.delivered_bytes);
                    if after <= before {
                        violations.push(conv(
                            Some(h.id),
                            format!(
                                "flow {} on host {}: live QP made no byte progress \
                                 across the settle window ({after} B delivered)",
                                f.id.0, h.id.0
                            ),
                        ));
                    }
                }
            }
        }

        // 6. Route consistency with the (healed) topology.
        let down: Vec<bool> = self.faults.links.iter().map(|l| !l.up).collect();
        let fresh = compute_routes_masked(self.nodes.len(), &self.edges, &down, &self.dests);
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Switch(s) = node {
                if s.routes != fresh[i] {
                    violations.push(conv(
                        Some(s.id),
                        format!(
                            "switch {i}: routes differ from a fresh computation \
                             over the current topology (stale failover state)"
                        ),
                    ));
                }
            }
        }

        self.ctx.metrics.convergence_checks += 1;
        self.ctx.metrics.convergence_violations += violations.len() as u64;
        self.ctx.audit.record_all(&violations);
        if self.ctx.audit.violations().len() != self.dumped_violations {
            self.flight_dump_new_violations();
        }
        violations
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.ctx.queue.events_executed()
    }

    /// Enables the per-node flight recorder with `capacity` events per
    /// node (on by default when the `sanitize` feature is compiled in).
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.ctx.flight.enable(capacity);
    }

    /// Flight-recorder dumps taken so far (violations and QP teardowns).
    pub fn flight_dumps(&self) -> &[FlightDump] {
        self.ctx.flight.dumps()
    }

    /// A fabric-wide counter by name (0 for unknown names), derived from
    /// the per-switch, per-flow and fault stats (see `COUNTERS`): a
    /// walk over every node or flow, so a cold, post-run accessor.
    pub fn metric(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, derive)| derive(self))
    }

    /// Builds the machine-readable run report: every fabric-wide counter,
    /// the buffer high-water gauge, every histogram, per-flow stats,
    /// fault/audit tallies and timeline summaries. Deterministic for a
    /// deterministic run — same topology, workload and seed ⇒ identical
    /// JSON.
    pub fn telemetry_report(&self) -> Json {
        let now = self.ctx.queue.now();
        let metrics = &self.ctx.metrics;

        let mut counters = Json::obj(vec![]);
        for (name, derive) in COUNTERS {
            counters.push(name, Json::UInt(derive(self)));
        }
        let gauges = Json::obj(vec![(
            "peak_buffer_bytes",
            Json::UInt(metrics.peak_buffer_bytes),
        )]);
        let mut histograms = Json::obj(vec![]);
        for (name, hist) in metrics.histograms() {
            let buckets = Json::Arr(
                hist.nonzero_buckets()
                    .map(|(floor, count)| {
                        Json::obj(vec![
                            ("count", Json::UInt(count)),
                            ("ge", Json::UInt(floor)),
                        ])
                    })
                    .collect(),
            );
            histograms.push(
                name,
                Json::obj(vec![
                    ("buckets", buckets),
                    ("count", Json::UInt(hist.count())),
                    ("max", Json::UInt(hist.max())),
                    ("mean", Json::Float(hist.mean())),
                    ("min", Json::UInt(hist.min())),
                    ("p50", Json::UInt(hist.percentile(50.0))),
                    ("p50_mid", Json::Float(hist.percentile_midpoint(50.0))),
                    ("p99", Json::UInt(hist.percentile(99.0))),
                    ("p99_mid", Json::Float(hist.percentile_midpoint(99.0))),
                ]),
            );
        }

        let secs = now.as_secs_f64();
        let flows = Json::Arr(
            self.flow_order
                .iter()
                .map(|&id| {
                    let st = &self.ctx.flow_stats[id.0 as usize];
                    let goodput = if secs > 0.0 {
                        st.delivered_bytes as f64 * 8.0 / secs / 1e9
                    } else {
                        0.0
                    };
                    Json::obj(vec![
                        ("aborted", Json::Bool(st.aborted)),
                        ("cnps_sent", Json::UInt(st.cnps_sent)),
                        ("completions", Json::UInt(st.completions.len() as u64)),
                        ("delivered_bytes", Json::UInt(st.delivered_bytes)),
                        ("goodput_gbps", Json::Float(goodput)),
                        ("id", Json::UInt(id.0)),
                        ("nacks_sent", Json::UInt(st.nacks_sent)),
                        ("retx_pkts", Json::UInt(st.retx_pkts)),
                        ("sent_pkts", Json::UInt(st.sent_pkts)),
                        ("timeouts", Json::UInt(st.timeouts)),
                    ])
                })
                .collect(),
        );

        let audit = Json::obj(vec![
            ("fault_drops", Json::UInt(self.metric("fault_drops"))),
            (
                "flight_dumps",
                Json::UInt(self.ctx.flight.dumps().len() as u64),
            ),
            ("violations", Json::UInt(self.ctx.audit.total_violations())),
        ]);
        let fs = self.faults.stats;
        let faults = Json::obj(vec![
            ("crc_drops", Json::UInt(fs.crc_drops)),
            ("link_drops", Json::UInt(fs.link_drops)),
            ("reroutes", Json::UInt(fs.reroutes)),
            ("storm_pauses", Json::UInt(fs.storm_pauses)),
            ("transitions", Json::UInt(fs.transitions)),
        ]);

        Json::obj(vec![
            ("audit", audit),
            ("counters", counters),
            ("events_executed", Json::UInt(self.events_executed())),
            ("faults", faults),
            ("flows", flows),
            ("gauges", gauges),
            ("histograms", histograms),
            ("sim_time_us", Json::Float(now.as_micros_f64())),
            ("timelines", self.timelines.summary_json()),
        ])
    }

    /// Builds the run's dashboard: one chart per sampled track family
    /// (queue depth, CC rate, goodput, counter rates), span attribution
    /// when span tracing is enabled, and a counter-totals table. A pure
    /// function of the run state, so the rendered file is byte-identical
    /// across machines and `REPRO_THREADS` settings (the CI
    /// `dash-determinism` job pins this).
    pub fn dashboard(&self, title: &str) -> Dashboard {
        let now = self.now();
        let mut d = Dashboard::new(title);
        d.fact("sim time", &format!("{:.1} \u{b5}s", now.as_micros_f64()));
        d.fact("events", &self.events_executed().to_string());
        d.fact("flows", &self.flow_order.len().to_string());

        // Queue depth in KB. Plotted at the per-bucket max: the peaks
        // are what PFC/ECN thresholds react to (Fig. 13-class plots).
        let qseries: Vec<Series> = self
            .sampler
            .queues
            .iter()
            .map(|&(node, port, track)| Series {
                label: format!("sw{}:p{}", node.0, port.0),
                points: self
                    .timelines
                    .get(track)
                    .buckets()
                    .map(|b| (b.last.as_micros_f64(), b.max / 1000.0))
                    .collect(),
            })
            .collect();
        if !qseries.is_empty() {
            d.chart("queue depth", "KB", qseries);
        }

        // Instantaneous CC rates (Fig. 7/10/13-class rate traces).
        let rseries: Vec<Series> = self
            .sampler
            .rates
            .iter()
            .map(|tap| Series {
                label: format!("flow {}", tap.flow.0),
                points: self
                    .timelines
                    .get(tap.track)
                    .buckets()
                    .map(|b| (b.last.as_micros_f64(), b.mean()))
                    .collect(),
            })
            .collect();
        if !rseries.is_empty() {
            d.chart("CC rate", "Gbps", rseries);
        }

        // Goodput derived from delivered bytes; cap the panel at 8 flows
        // (deterministically the lowest ids) to keep the file readable.
        let mut gseries = Vec::new();
        let mut sampled_flows = 0usize;
        for (i, slot) in self.sampler.bytes.iter().enumerate() {
            let Some(track) = slot else { continue };
            let tl = self.timelines.get(*track);
            if tl.count() < 2 {
                continue;
            }
            sampled_flows += 1;
            if gseries.len() >= 8 {
                continue;
            }
            let rates = tl.series().to_rate_gbps();
            gseries.push(Series {
                label: format!("flow {i}"),
                points: rates
                    .times
                    .iter()
                    .zip(&rates.values)
                    .map(|(t, v)| (t.as_micros_f64(), *v))
                    .collect(),
            });
        }
        if !gseries.is_empty() {
            let title = if sampled_flows > 8 {
                format!("goodput (first 8 of {sampled_flows} flows)")
            } else {
                "goodput".to_string()
            };
            d.chart(&title, "Gbps", gseries);
        }

        // Control-plane rates: sampled counter deltas per interval.
        let cseries: Vec<Series> = self
            .sampler
            .counters
            .iter()
            .map(|tap| Series {
                label: self
                    .timelines
                    .name(tap.track)
                    .trim_start_matches("rate/")
                    .to_string(),
                points: self
                    .timelines
                    .get(tap.track)
                    .buckets()
                    .map(|b| (b.last.as_micros_f64(), b.sum))
                    .collect(),
            })
            .collect();
        if !cseries.is_empty() {
            d.chart("control frames / interval", "count", cseries);
        }

        // Span attribution: where each flow's time went (first 8 flows
        // with any attributed time).
        if self.ctx.spans.is_enabled() {
            let categories: Vec<String> = crate::telemetry::spans::SpanState::ALL
                .iter()
                .map(|s| s.name().to_string())
                .collect();
            let mut rows = Vec::new();
            for &id in &self.flow_order {
                if rows.len() >= 8 {
                    break;
                }
                if let Some(parts) = self.ctx.spans.breakdown(id, now) {
                    let vals: Vec<f64> = parts.iter().map(|p| p.as_secs_f64() * 1e6).collect();
                    if vals.iter().sum::<f64>() > 0.0 {
                        rows.push((format!("flow {}", id.0), vals));
                    }
                }
            }
            if !rows.is_empty() {
                d.stacked("span attribution (\u{b5}s per state)", categories, rows);
            }
        }

        // End-of-run counter totals (nonzero only, report order).
        let totals: Vec<(String, String)> = COUNTERS
            .iter()
            .map(|(name, derive)| (name, derive(self)))
            .filter(|&(_, v)| v > 0)
            .map(|(name, v)| (name.to_string(), v.to_string()))
            .collect();
        if !totals.is_empty() {
            d.table("counters", totals);
        }
        d
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { node, port, pkt } => {
                let Network {
                    nodes, ctx, faults, ..
                } = self;
                // Reclaim the pooled slot first: dropped-by-fault packets
                // must recycle too, or the slab would leak per drop.
                let pkt = ctx.pool.take(pkt);
                // One dead branch when no faults are injected: with the
                // engine inactive this path is byte-identical to a
                // fault-free build.
                if faults.active {
                    if let Some(att) = nodes[node.0].ports()[port.0].attach {
                        let fate = faults.wire_fate(att.link);
                        // Counted in `FaultStats` by `wire_fate`. Never
                        // reported to the auditor's losslessness rule:
                        // injected damage is not a simulator bug.
                        if fate != WireFate::Deliver {
                            ctx.flight.record(TraceEvent {
                                at: ctx.queue.now(),
                                node,
                                flow: pkt.flow,
                                kind: TraceKind::FaultDropped,
                                detail: (fate == WireFate::CrcDrop) as u64,
                            });
                            return;
                        }
                    }
                }
                match &mut nodes[node.0] {
                    Node::Switch(s) => s.receive(ctx, port, pkt),
                    Node::Host(h) => h.receive(ctx, pkt),
                }
            }
            Event::TxDone { node, port } => {
                let Network { nodes, ctx, .. } = self;
                match &mut nodes[node.0] {
                    Node::Switch(s) => s.tx_done(ctx, port),
                    Node::Host(h) => h.tx_done(ctx),
                }
            }
            Event::Timer { node, kind } => {
                let Network { nodes, ctx, .. } = self;
                match &mut nodes[node.0] {
                    Node::Host(h) => h.timer(ctx, kind),
                    Node::Switch(_) => unreachable!("switches have no timers"),
                }
            }
            Event::Sample => {
                self.take_sample();
                if let Some(interval) = self.sample_interval {
                    let at = self.ctx.queue.now() + interval;
                    self.ctx.queue.schedule(at, Event::Sample);
                }
            }
            Event::Hook { id } => {
                if let Some(mut hook) = self.hooks[id].take() {
                    hook(self);
                }
            }
            Event::Fault { action } => self.apply_fault(action),
            Event::Watchdog {
                node,
                port,
                class,
                restore,
            } => {
                let Network { nodes, ctx, .. } = self;
                match &mut nodes[node.0] {
                    Node::Switch(s) => s.watchdog(ctx, port, class, restore),
                    // Hosts have no watchdog; a stray event is a no-op.
                    Node::Host(_) => {}
                }
            }
        }
    }

    /// One periodic sampler tick. Every watched quantity was bound to
    /// its track at `enable_sampling`/`add_flow` time, so this does no
    /// name lookups and no allocation (beyond a track's one-time,
    /// budget-capped bucket growth). A sampled counter costs one walk
    /// over the switches or flows that own it.
    fn take_sample(&mut self) {
        let now = self.ctx.queue.now();
        let Network {
            nodes,
            ctx,
            timelines,
            sampler,
            ..
        } = self;
        for k in 0..sampler.queues.len() {
            let (node, port, track) = sampler.queues[k];
            let depth = nodes[node.0].ports()[port.0].total_queued_bytes();
            timelines.record(track, now, depth);
        }
        // `bytes` is indexed by flow id, ascending — same deterministic
        // order the sorted `flow_order` walk used to give.
        for i in 0..sampler.bytes.len() {
            if let Some(track) = sampler.bytes[i] {
                let bytes = ctx.flow_stats.get(i).map_or(0, |s| s.delivered_bytes);
                timelines.record(track, now, bytes);
            }
        }
        for k in 0..sampler.rates.len() {
            let tap = sampler.rates[k];
            let rate = match &nodes[tap.host.0] {
                Node::Host(h) => h.flows[tap.slot].current_rate().as_gbps_f64(),
                Node::Switch(_) => 0.0,
            };
            timelines.record_f64(tap.track, now, rate);
        }
        for k in 0..self.sampler.counters.len() {
            let tap = self.sampler.counters[k];
            let value = (COUNTERS[tap.counter].1)(self);
            self.timelines.record(tap.track, now, value - tap.prev);
            self.sampler.counters[k].prev = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCc;
    use crate::packet::DATA_PRIORITY;

    fn tiny() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(crate::switch::SwitchConfig::paper_default());
        let h1 = b.host(crate::host::HostConfig::default());
        let h2 = b.host(crate::host::HostConfig::default());
        b.connect(h1, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(h2, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        (b.build(), h1, h2)
    }

    #[test]
    fn builder_assigns_ports_in_link_order() {
        let (net, h1, _) = tiny();
        let sw = net.switch(NodeId(0));
        assert_eq!(sw.ports.len(), 2);
        assert_eq!(sw.ports[0].attach.unwrap().peer, h1);
        let host = net.host(h1);
        assert_eq!(host.port.attach.unwrap().peer, NodeId(0));
        assert_eq!(host.line_rate(), Bandwidth::gbps(40));
    }

    #[test]
    fn flow_ids_are_sequential_and_locatable() {
        let (mut net, h1, h2) = tiny();
        let f0 = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        let f1 = net.add_flow(h2, h1, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        assert_eq!(
            (f0, f1),
            (crate::packet::FlowId(0), crate::packet::FlowId(1))
        );
        assert_eq!(net.flow_rate(f0), Bandwidth::gbps(40));
        assert_eq!(net.flow_stats(f1).sent_pkts, 0);
    }

    #[test]
    fn run_until_respects_the_horizon() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, u64::MAX, Time::ZERO);
        net.run_until(Time::from_micros(100));
        assert!(net.now() <= Time::from_micros(100));
        let sent_100us = net.flow_stats(f).sent_pkts;
        net.run_until(Time::from_micros(200));
        assert!(net.flow_stats(f).sent_pkts > sent_100us, "resumable");
    }

    /// Regression: `run_until` used to leave `now()` at the last popped
    /// event, so an idle window (or the gap after the final event) was
    /// invisible to spans and telemetry, and repeated calls compounded
    /// the shortfall.
    #[test]
    fn run_until_advances_the_clock_to_the_horizon() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        // A short message drains long before 1 ms.
        net.send_message(f, 3000, Time::ZERO);
        net.run_until(Time::from_millis(1));
        assert_eq!(net.now(), Time::from_millis(1));
        // A completely idle window must still advance the clock.
        net.run_until(Time::from_millis(2));
        assert_eq!(net.now(), Time::from_millis(2));
        // And events scheduled after idle windows still run in order.
        net.send_message(f, 3000, net.now());
        net.run_until(Time::from_millis(3));
        assert_eq!(net.now(), Time::from_millis(3));
        assert_eq!(net.flow_stats(f).completions.len(), 2);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = COUNTERS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTERS.len());
        let (net, _, _) = tiny();
        assert_eq!(net.metric("ecn_marks"), 0);
        assert_eq!(net.metric("no_such_counter"), 0);
    }

    #[test]
    #[should_panic(expected = "is a switch")]
    fn host_accessor_rejects_switches() {
        let (net, _, _) = tiny();
        let _ = net.host(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is a host")]
    fn switch_accessor_rejects_hosts() {
        let (net, h1, _) = tiny();
        let _ = net.switch(h1);
    }

    #[test]
    #[should_panic(expected = "hosts have one NIC")]
    fn hosts_cannot_be_multihomed() {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(crate::switch::SwitchConfig::paper_default());
        let h = b.host(crate::host::HostConfig::default());
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        let _ = b.build();
    }

    #[test]
    fn send_message_clamps_past_times_to_now() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, 1000, Time::ZERO);
        net.run_until(Time::from_millis(1));
        // Scheduling "in the past" now must not panic.
        net.send_message(f, 1000, Time::ZERO);
        net.run_until(Time::from_millis(2));
        assert_eq!(net.flow_stats(f).completions.len(), 2);
    }
}
