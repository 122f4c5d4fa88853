//! The fabric simulator's benchmark: three workloads on the Figure 2 Clos
//! testbed, each built from the simulator's public API so the boundary
//! between set-up, the event loop and output rendering stays visible.
//!
//! * `pfc_victim` — the Figure 4 victim-flow scenario under PFC alone.
//! * `dcqcn_victim_spans` — the same flows under DCQCN (Figure 9), with
//!   span tracing and the trace ring on.
//! * `clos_benchmark` — one §6.2 / Figure 16 cell: 20 DCQCN user pairs
//!   with Poisson arrivals plus an 8-way disk-rebuild incast.
//!
//! `README.md` next to this crate explains why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod host;
pub mod probe;

use experiments::common::CcChoice;
use netsim::cc::CcFactory;
use netsim::event::NodeId;
use netsim::network::Network;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::rng::SplitMix64;
use netsim::stats::SamplerConfig;
use netsim::telemetry::Json;
use netsim::topology::{clos_testbed, ClosTestbed, LinkParams};
use netsim::units::{Duration, Time};
use std::time::Instant;
use workloads::traffic::{pick_one, setup_incast, setup_user_traffic, UserTrafficConfig};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4: greedy incast plus a victim flow, PFC only.
    PfcVictim,
    /// Figure 9: the same flows under DCQCN, spans and trace ring on.
    DcqcnVictimSpans,
    /// Figure 16 cell: DCQCN user pairs plus a rebuild incast.
    ClosBenchmark,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PfcVictim,
        Workload::DcqcnVictimSpans,
        Workload::ClosBenchmark,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PfcVictim => "pfc_victim",
            Workload::DcqcnVictimSpans => "dcqcn_victim_spans",
            Workload::ClosBenchmark => "clos_benchmark",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The congestion-control scheme the workload runs.
    pub fn cc(self) -> CcChoice {
        match self {
            Workload::PfcVictim => CcChoice::None,
            Workload::DcqcnVictimSpans | Workload::ClosBenchmark => CcChoice::dcqcn_paper(),
        }
    }

    /// Whether the workload records spans and the trace ring by default.
    pub fn spans_by_default(self) -> bool {
        self == Workload::DcqcnVictimSpans
    }

    /// Simulated time one cell runs.
    pub fn horizon(self) -> Duration {
        Duration::from_millis(25)
    }

    /// Independent cells (fabric + traffic draws) one repetition runs.
    /// The goodput metrics pool every cell, so they describe the
    /// workload's distribution rather than one ECMP draw.
    pub fn cells(self) -> usize {
        16
    }
}

/// Closed spans kept per flow when span tracing is on (as `repro fig9`).
pub const SPAN_CAPACITY: usize = 256;
/// Packet-trace ring size when the trace ring is on.
pub const TRACE_CAPACITY: usize = 1 << 16;
/// Minimum size of a user transfer counted in the Figure 16 goodput.
pub const MIN_TRANSFER_BYTES: u64 = 1_000_000;

/// The cells of one repetition under `seed`: the workload's
/// [`Workload::cells`] configurations, each with its own seed drawn from
/// `seed`.
pub fn cells(workload: Workload, seed: u64) -> Vec<Config> {
    let mut rng = SplitMix64::new(seed);
    (0..workload.cells())
        .map(|_| Config::new(workload, rng.next_u64()))
        .collect()
}

/// Everything that fixes one cell's simulation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for the topology's randomness and the traffic draws.
    pub seed: u64,
    /// Span tracing and the trace ring on?
    pub spans: bool,
}

impl Config {
    /// The workload as documented, under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            spans: workload.spans_by_default(),
        }
    }

    /// The end of the run.
    pub fn end(&self) -> Time {
        Time::ZERO + self.workload.horizon()
    }

    /// Start of the goodput window on the victim workloads.
    pub fn warmup(&self) -> Time {
        Time::ZERO + self.workload.horizon() / 5
    }
}

/// A built workload, ready to run.
pub struct Setup {
    /// The testbed and its network.
    pub tb: ClosTestbed,
    /// Every flow with the number of messages handed to it.
    pub flows: Vec<(FlowId, u64)>,
    /// The user-pair flows (`clos_benchmark` only).
    pub user_flows: Vec<FlowId>,
    /// Host time of `clos_testbed` (topology and routes).
    pub topology: std::time::Duration,
    /// Host time to add flows, generate traffic and enable observation.
    pub generate: std::time::Duration,
}

impl Setup {
    /// Messages handed to flows (a greedy flow's endless message is one).
    /// Each is one operation of the repetition.
    pub fn messages(&self) -> u64 {
        self.flows.iter().map(|&(_, m)| m).sum()
    }

    /// Operations lost to QP teardown: every message of an aborted flow.
    pub fn aborted_operations(&self) -> u64 {
        self.flows
            .iter()
            .filter(|&&(f, _)| self.tb.net.flow_stats(f).aborted)
            .map(|&(_, m)| m)
            .sum()
    }
}

/// The workload's CC factory, unwrapped.
pub fn plain_factory(w: Workload) -> CcFactory {
    Box::new(w.cc().factory())
}

/// Builds the workload: topology, flows, traffic and observation.
pub fn setup(cfg: &Config, cc: &CcFactory) -> Setup {
    let scheme = cfg.workload.cc();
    let started = Instant::now();
    let mut tb = clos_testbed(
        5,
        LinkParams::default(),
        scheme.host_config(),
        scheme.switch_config(true, false),
        cfg.seed,
    );
    let topology = started.elapsed();

    let started = Instant::now();
    let mut flows = Vec::new();
    let mut user_flows = Vec::new();
    let sample_every = match cfg.workload {
        Workload::PfcVictim | Workload::DcqcnVictimSpans => {
            // Figure 4: four T1 senders and two T3 senders stream greedily
            // to one T4 receiver; the victim VS→VR shares no link with
            // the incast bottleneck.
            let receiver = tb.hosts[3][0];
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            pairs.extend((0..4).map(|i| (tb.hosts[0][i], receiver)));
            pairs.extend((0..2).map(|i| (tb.hosts[2][i], receiver)));
            pairs.push((tb.hosts[0][4], tb.hosts[1][0]));
            for (src, dst) in pairs {
                let f = tb.net.add_flow(src, dst, DATA_PRIORITY, cc);
                tb.net.send_message(f, u64::MAX, Time::ZERO);
                flows.push((f, 1));
            }
            Duration::from_micros(500)
        }
        Workload::ClosBenchmark => {
            let hosts: Vec<NodeId> = tb.hosts.iter().flatten().copied().collect();
            let horizon = cfg.workload.horizon();
            let users = UserTrafficConfig {
                mean_interarrival: Duration::from_micros(4000),
                ..UserTrafficConfig::benchmark(20, horizon)
            };
            for p in setup_user_traffic(&mut tb.net, &hosts, &users, &**cc, cfg.seed ^ 0xA5A5) {
                flows.push((p.flow, p.transfers as u64));
                user_flows.push(p.flow);
            }
            let target = pick_one(&hosts, cfg.seed ^ 0x1111);
            // Enough bytes that the rebuild outlasts the run.
            let bytes = (horizon.as_secs_f64() * 40e9 / 8.0) as u64;
            let incast = setup_incast(
                &mut tb.net,
                &hosts,
                target,
                8,
                bytes,
                Time::ZERO,
                DATA_PRIORITY,
                &**cc,
                cfg.seed ^ 0x2222,
            );
            flows.extend(incast.into_iter().map(|f| (f, 1)));
            Duration::from_micros(1000)
        }
    };
    if cfg.spans {
        tb.net.enable_spans(SPAN_CAPACITY);
        tb.net.enable_trace(TRACE_CAPACITY);
    }
    tb.net.enable_sampling(
        sample_every,
        SamplerConfig {
            all_flows: true,
            ..SamplerConfig::default()
        },
    );
    Setup {
        tb,
        flows,
        user_flows,
        topology,
        generate: started.elapsed(),
    }
}

/// Runs the event loop to `end` in slices of `slice` simulated time,
/// appending each slice's host time (ms) to `slice_ms`.
pub fn run_sliced(net: &mut Network, end: Time, slice: Duration, slice_ms: &mut Vec<f64>) {
    let mut t = net.now();
    while t < end {
        t = (t + slice).min(end);
        let started = Instant::now();
        net.run_until(t);
        slice_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
}

/// One cell's rendered outputs and what they cost.
pub struct Outputs {
    /// Goodputs (Gbps, simulated time) the two goodput metrics summarize.
    pub goodputs: Vec<f64>,
    /// The telemetry report, kept for the digest.
    pub report: Json,
    /// Rendered sizes in bytes: telemetry JSON, Chrome trace, dashboard.
    pub bytes: [usize; 3],
    /// Host time of each render: telemetry JSON, Chrome trace, dashboard.
    pub times: [std::time::Duration; 3],
    /// Host time of the goodput extraction.
    pub goodput_time: std::time::Duration,
}

impl Outputs {
    /// Total host time spent producing outputs.
    pub fn total(&self) -> std::time::Duration {
        self.goodput_time + self.times.iter().sum::<std::time::Duration>()
    }
}

/// Builds and renders the run's outputs: the goodput samples, the
/// telemetry JSON, the Chrome trace and the dashboard HTML (what
/// `repro fig9 --json --trace --dash` writes). Renders stay in memory.
pub fn outputs(cfg: &Config, s: &Setup) -> Outputs {
    let net = &s.tb.net;
    let started = Instant::now();
    let goodputs = goodputs(cfg, s);
    let goodput_time = started.elapsed();

    let started = Instant::now();
    let report = net.telemetry_report();
    let report_len = report.render().len();
    let report_time = started.elapsed();

    let started = Instant::now();
    let trace_len = net.chrome_trace().render().len();
    let trace_time = started.elapsed();

    let started = Instant::now();
    let dash_len = net.dashboard(cfg.workload.name()).render().len();
    let dash_time = started.elapsed();

    Outputs {
        goodputs,
        report,
        bytes: [report_len, trace_len, dash_len],
        times: [report_time, trace_time, dash_time],
        goodput_time,
    }
}

/// The workload's goodput samples: every flow's goodput after warm-up on
/// the victim workloads, per-transfer goodput of user transfers of at
/// least [`MIN_TRANSFER_BYTES`] on `clos_benchmark` (the Figure 16
/// metric).
fn goodputs(cfg: &Config, s: &Setup) -> Vec<f64> {
    let net = &s.tb.net;
    match cfg.workload {
        Workload::PfcVictim | Workload::DcqcnVictimSpans => s
            .flows
            .iter()
            .map(|&(f, _)| net.goodput_gbps(f, cfg.warmup(), cfg.end()))
            .collect(),
        Workload::ClosBenchmark => {
            workloads::traffic::transfer_goodputs(net, &s.user_flows, MIN_TRANSFER_BYTES)
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The simulation digest: events executed, every registry counter (by
/// name, from the telemetry report) and every flow's delivered bytes.
/// Identical digests mean the runs simulated the same thing.
pub fn sim_digest(net: &Network, report: &Json) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, &net.events_executed().to_le_bytes());
    if let Some(Json::Obj(counters)) = report.get("counters") {
        for (name, value) in counters {
            fnv(&mut h, name.as_bytes());
            fnv(&mut h, &value.as_u64().unwrap_or(u64::MAX).to_le_bytes());
        }
    }
    for bytes in net.delivered_snapshot() {
        fnv(&mut h, &bytes.to_le_bytes());
    }
    h
}

/// A registry gauge from the telemetry report (0 when absent).
pub fn gauge(report: &Json, name: &str) -> u64 {
    report
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The output checks of one repetition, beyond digest equality: a
/// lossless fabric drops nothing, the run has the paper's shape for its
/// scheme, and the goodputs are physically possible. Returns one message
/// per failed check.
pub fn check(cfg: &Config, s: &Setup, goodputs: &[f64]) -> Vec<String> {
    let net = &s.tb.net;
    let mut failures = Vec::new();
    let drops = net.metric("drops_pool") + net.metric("drops_lossy");
    if drops != 0 {
        failures.push(format!("{drops} packet drops on a lossless fabric"));
    }
    let (pauses, cnps) = (net.metric("pause_tx"), net.metric("cnps_sent"));
    match cfg.workload {
        Workload::PfcVictim => {
            if pauses == 0 {
                failures.push("PFC-only incast sent no PAUSE".to_string());
            }
            if cnps != 0 {
                failures.push(format!("{cnps} CNPs without congestion control"));
            }
        }
        Workload::DcqcnVictimSpans | Workload::ClosBenchmark => {
            if cnps == 0 {
                failures.push("DCQCN run sent no CNP".to_string());
            }
        }
    }
    if goodputs.is_empty() {
        failures.push("no goodput samples".to_string());
    }
    let line = 40.0 * 1.0001;
    if let Some(g) = goodputs
        .iter()
        .find(|g| !g.is_finite() || **g < 0.0 || **g > line)
    {
        failures.push(format!("goodput {g} Gbps outside [0, 40]"));
    }
    failures
}
