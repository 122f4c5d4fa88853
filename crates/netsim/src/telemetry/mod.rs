//! Telemetry subsystem: run-wide metrics, HDR-style histograms, flight
//! recorder, deterministic JSON, causal spans, timelines and dashboards.
//!
//! The paper's evaluation (§5) is measurement: per-flow throughput,
//! pause-frame counts, queue-depth CDFs, mark/drop/retransmit tallies.
//! This module family makes every run produce those measurables
//! natively, with hot-path costs suitable for the packet pipeline:
//!
//! * [`metrics`] — the plain [`Metrics`] struct: the measurements no
//!   per-node store owns (convergence tallies, the buffer high-water
//!   mark, four histograms). Every event *count* lives once, in
//!   `SwitchStats`, `FlowStats` or `FaultStats`; fabric-wide totals are
//!   sums derived on demand (`Network::metric`).
//! * [`hist`] — the allocation-free [`Histogram`]: 65 log2 buckets plus
//!   exact count/sum/min/max.
//! * [`recorder`] — the [`FlightRecorder`]: the one path every trace
//!   event takes. It feeds the global packet trace (`Network::trace`)
//!   and a bounded ring of recent events per node, snapshotted
//!   automatically when the sanitize auditor records a violation or a
//!   QP is torn down.
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
//! The simulator owns one [`Metrics`] per network; experiments read
//! counts back by name through `Network::metric` or from
//! `Network::telemetry_report`.

pub mod dash;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod spans;
pub mod timeline;

pub use dash::{Dashboard, Series};
pub use hist::Histogram;
pub use json::{fmt_f64, Json};
pub use metrics::Metrics;
pub use recorder::{FlightDump, FlightRecorder};
pub use spans::{
    CongestionTree, FlowSpan, HopSpan, PauseEdge, SpanCompletion, SpanState, Spans, TreeEdge,
    TreeRoot, TreeVictim, NUM_SPAN_STATES,
};
pub use timeline::{BucketView, Timeline, TimelineSet, TrackId, TrackKind, DEFAULT_POINT_BUDGET};
