//! Telemetry subsystem: metrics registry, HDR-style histograms, flight
//! recorder, deterministic JSON, causal spans, timelines and dashboards.
//!
//! The paper's evaluation (§5) is measurement: per-flow throughput,
//! pause-frame counts, queue-depth CDFs, mark/drop/retransmit tallies.
//! This module family makes every run produce those measurables
//! natively, with hot-path costs suitable for the packet pipeline:
//!
//! * [`registry`] — named counters, gauges and log2-bucket histograms
//!   registered **once** at build time and updated through `Copy`
//!   handles, so an update is a single array index (no hashing, no
//!   allocation per event).
//! * [`hist`] — the allocation-free [`Histogram`] backing the registry:
//!   65 log2 buckets plus exact count/sum/min/max.
//! * [`recorder`] — the [`FlightRecorder`]: a bounded ring of recent
//!   trace events per node, snapshotted automatically when the sanitize
//!   auditor records a violation or a QP is torn down.
//! * [`json`] — a small deterministic JSON renderer (sorted keys, fixed
//!   float formatting) used for the experiments binary's `--json` run
//!   reports; no external crates.
//! * [`spans`] — span-based causal tracing: per-flow latency
//!   attribution (the FCT decomposition identity), the
//!   pause-propagation congestion tree, and a deterministic Chrome
//!   trace-event exporter. Disabled, it costs one branch per hook.
//! * [`timeline`] — bounded-memory time-series tracks with
//!   hierarchical downsampling: when a track fills its point budget,
//!   adjacent buckets merge and resolution halves, so memory is
//!   `O(budget)` for any horizon. Backs the periodic sampler
//!   (`Network::enable_sampling`).
//! * [`dash`] — a dependency-free HTML + inline-SVG dashboard emitter
//!   rendering timelines and span attribution to a single
//!   deterministic file (`repro <id> --dash <dir>`).
//!
//! The simulator owns one [`Metrics`] per network (see
//! `Network::telemetry_report`); experiments read it back by handle or
//! by name when building reports.
//!
//! ```
//! use netsim::telemetry::Metrics;
//!
//! let mut m = Metrics::standard();
//! let h = m.h; // Copy handles: capture once, use on the hot path
//! m.inc(h.ecn_marks);
//! m.observe(h.queue_depth_bytes, 4096);
//! assert_eq!(m.registry.counter_value("ecn_marks"), Some(1));
//! assert_eq!(m.registry.hist_get(h.queue_depth_bytes).count(), 1);
//! ```

pub mod dash;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod spans;
pub mod timeline;

pub use dash::{Dashboard, Series};
pub use hist::Histogram;
pub use json::{fmt_f64, Json};
pub use recorder::{FlightDump, FlightRecorder};
pub use registry::{CounterId, GaugeId, HistId, Metrics, Registry, WellKnown};
pub use spans::{
    CongestionTree, FlowSpan, HopSpan, PauseEdge, SpanCompletion, SpanState, Spans, TreeEdge,
    TreeRoot, TreeVictim, NUM_SPAN_STATES,
};
pub use timeline::{BucketView, Timeline, TimelineSet, TrackId, TrackKind, DEFAULT_POINT_BUDGET};
