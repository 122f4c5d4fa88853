//! One repetition: every cell of the workload, set up, run and rendered
//! in a fresh worker process, with its measurements and checks. The
//! worker prints the repetition as JSON and the parent parses it back.

use fabricbench::host::peak_rss_mb;
use fabricbench::probe::{counting_factory, timing_floor, Callback, CcProbe};
use fabricbench::{
    check, gauge, outputs, plain_factory, run_sliced, setup, sim_digest, Config, Outputs,
};
use netsim::stats::percentile;
use netsim::telemetry::Json;
use netsim::units::Duration;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-up-only samples each worker takes after its warm-up.
const SETUP_SAMPLES: usize = 10;
/// A cell's outputs are rendered again until this much host time is
/// spent on them, at most [`OUTPUT_SAMPLES_MAX`] times.
const OUTPUT_SAMPLE_TIME: std::time::Duration = std::time::Duration::from_millis(10);
const OUTPUT_SAMPLES_MAX: usize = 25;
/// Simulated time per `run_until` slice in a traced repetition.
const SLICE: Duration = Duration::from_millis(1);

/// How a repetition observes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole `run_until`, plain CC: the end-to-end measurement.
    Untraced,
    /// Sliced `run_until` and the counting CC wrapper.
    Traced,
    /// Untraced, with span recording flipped from the workload's default.
    SpansFlipped,
}

impl Kind {
    /// Every kind, in the order a traced run cycles through them.
    pub const ALL: [Kind; 3] = [Kind::Untraced, Kind::Traced, Kind::SpansFlipped];

    /// The name used on the worker command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Untraced => "untraced",
            Kind::Traced => "traced",
            Kind::SpansFlipped => "spans_flipped",
        }
    }

    /// Parses a worker command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Registry counters the per-layer metrics read.
pub const COUNTERS: [&str; 12] = [
    "forwarded",
    "ecn_marks",
    "pause_tx",
    "resume_tx",
    "drops_pool",
    "drops_lossy",
    "cnps_sent",
    "retx_pkts",
    "nacks_sent",
    "timeouts",
    "completions",
    "qp_teardowns",
];

/// CC callbacks the per-layer metrics report, by metric suffix.
pub const CC_CALLS: [(&str, Callback); 6] = [
    ("rate_calls", Callback::Rate),
    ("on_send", Callback::Send),
    ("on_ack", Callback::Ack),
    ("on_cnp", Callback::Cnp),
    ("on_timer", Callback::Timer),
    ("on_loss", Callback::Loss),
];

/// One repetition's measurements and checks, summed over its cells.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up-only samples (s, topology ms, generation ms), all cells each.
    pub setups: Vec<[f64; 3]>,
    pub run_s: f64,
    pub output_s: f64,
    /// Render times (ms) and sizes (B): telemetry JSON, Chrome trace,
    /// dashboard.
    pub render_ms: [f64; 3],
    pub render_bytes: [u64; 3],
    /// Goodput mean, p50 and p10 over every cell's samples (Gbps).
    pub goodput: [f64; 3],
    pub digest: u64,
    pub failures: Vec<String>,
    pub aborted: u64,
    pub messages: u64,
    pub flows: u64,
    pub events: u64,
    pub counters: BTreeMap<String, u64>,
    pub peak_buffer_bytes: u64,
    /// Host time of each `run_until` slice (traced repetitions only).
    pub slice_ms: Vec<f64>,
    /// Calls per CC callback, host time inside CC net of the probe's own
    /// cost, and that cost per call (traced only).
    pub cc_calls: BTreeMap<String, u64>,
    pub cc_busy_ms: f64,
    pub cc_floor_ns: f64,
    pub peak_rss_mb: f64,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every cell once, observed as `kind`.
fn run_cells(cells: &[Config], kind: Kind) -> Rep {
    let probe = (kind == Kind::Traced).then(CcProbe::new);
    let mut rep = Rep::default();
    let mut goodputs = Vec::new();
    for cell in cells {
        let cfg = Config {
            spans: cell.spans ^ (kind == Kind::SpansFlipped),
            ..*cell
        };
        let factory = match &probe {
            Some(p) => counting_factory(plain_factory(cfg.workload), Arc::clone(p)),
            None => plain_factory(cfg.workload),
        };
        let mut s = setup(&cfg, &factory);
        let started = Instant::now();
        if kind == Kind::Traced {
            run_sliced(&mut s.tb.net, cfg.end(), SLICE, &mut rep.slice_ms);
        } else {
            s.tb.net.run_until(cfg.end());
        }
        rep.run_s += started.elapsed().as_secs_f64();
        // Rendering is deterministic; a cheap render is repeated and its
        // median kept, so the timing is not one noisy reading.
        let mut renders = vec![outputs(&cfg, &s)];
        let mut spent = renders[0].total();
        while spent < OUTPUT_SAMPLE_TIME && renders.len() < OUTPUT_SAMPLES_MAX {
            renders.push(outputs(&cfg, &s));
            spent += renders[renders.len() - 1].total();
        }
        let median_ms = |f: &dyn Fn(&Outputs) -> std::time::Duration| {
            percentile(
                &renders.iter().map(|o| ms(f(o))).collect::<Vec<f64>>(),
                50.0,
            )
        };
        rep.output_s += median_ms(&|o| o.total()) / 1e3;
        for i in 0..3 {
            rep.render_ms[i] += median_ms(&|o| o.times[i]);
        }
        let out = renders.swap_remove(0);
        let net = &s.tb.net;
        for i in 0..3 {
            rep.render_bytes[i] += out.bytes[i] as u64;
        }
        rep.digest = rep.digest.rotate_left(7) ^ sim_digest(net, &out.report);
        rep.failures.extend(
            check(&cfg, &s, &out.goodputs)
                .into_iter()
                .map(|f| format!("cell seed {}: {f}", cfg.seed)),
        );
        rep.aborted += s.aborted_operations();
        rep.messages += s.messages();
        rep.flows += s.flows.len() as u64;
        rep.events += net.events_executed();
        for c in COUNTERS {
            *rep.counters.entry(c.to_string()).or_default() += net.metric(c);
        }
        rep.peak_buffer_bytes = rep
            .peak_buffer_bytes
            .max(gauge(&out.report, "peak_buffer_bytes"));
        goodputs.extend(out.goodputs);
    }
    let mean = goodputs.iter().sum::<f64>() / goodputs.len() as f64;
    rep.goodput = [
        mean,
        percentile(&goodputs, 50.0),
        percentile(&goodputs, 10.0),
    ];
    if let Some(p) = probe {
        for (name, cb) in CC_CALLS {
            rep.cc_calls.insert(name.to_string(), p.calls(cb));
        }
        rep.cc_floor_ns = timing_floor().as_nanos() as f64;
        rep.cc_busy_ms = ms(p.busy(std::time::Duration::from_nanos(rep.cc_floor_ns as u64)));
    }
    rep
}

/// The worker's whole job: warm up on the first cell (untimed), take the
/// set-up-only samples, then run the repetition.
pub fn work(cells: &[Config], kind: Kind) -> Rep {
    // Fills caches and the allocator so the timed work starts warm. It
    // runs as `kind` too, so the worker's peak RSS is that kind's own.
    std::hint::black_box(run_cells(&cells[..1], kind).digest);
    // Set-up is ~0.1 ms per cell, far below the host's timing noise, so
    // it is sampled many times; each sample builds every cell.
    let factory = plain_factory(cells[0].workload);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let mut sample = [0.0; 3];
        for cell in cells {
            let s = setup(cell, &factory);
            sample[0] += (s.topology + s.generate).as_secs_f64();
            sample[1] += ms(s.topology);
            sample[2] += ms(s.generate);
        }
        setups.push(sample);
    }
    let mut rep = run_cells(cells, kind);
    rep.setups = setups;
    rep.peak_rss_mb = peak_rss_mb();
    rep
}

fn floats(v: &[f64]) -> Json {
    Json::from(v.to_vec())
}

fn map(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(m.iter().map(|(k, &v)| (k.clone(), Json::UInt(v))).collect())
}

impl Rep {
    /// The worker's report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "setups",
                Json::Arr(self.setups.iter().map(|s| floats(s)).collect()),
            ),
            ("run_s", Json::Float(self.run_s)),
            ("output_s", Json::Float(self.output_s)),
            ("render_ms", floats(&self.render_ms)),
            ("render_bytes", Json::from(self.render_bytes.to_vec())),
            ("goodput", floats(&self.goodput)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("failures", Json::from(self.failures.clone())),
            ("aborted", Json::UInt(self.aborted)),
            ("messages", Json::UInt(self.messages)),
            ("flows", Json::UInt(self.flows)),
            ("events", Json::UInt(self.events)),
            ("counters", map(&self.counters)),
            ("peak_buffer_bytes", Json::UInt(self.peak_buffer_bytes)),
            ("slice_ms", floats(&self.slice_ms)),
            ("cc_calls", map(&self.cc_calls)),
            ("cc_busy_ms", Json::Float(self.cc_busy_ms)),
            ("cc_floor_ns", Json::Float(self.cc_floor_ns)),
            ("peak_rss_mb", Json::Float(self.peak_rss_mb)),
        ])
    }

    /// Parses a worker's report.
    pub fn from_json(j: &Json) -> Result<Rep, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report lacks '{k}'"));
        let float = |v: &Json| match *v {
            Json::Float(x) => Ok(x),
            Json::UInt(u) => Ok(u as f64),
            Json::Int(i) => Ok(i as f64),
            _ => Err(format!("not a number: {v:?}")),
        };
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("'{k}' is not a count"))
        };
        let arr = |k: &str| {
            field(k)?
                .as_arr()
                .ok_or_else(|| format!("'{k}' is not an array"))
        };
        let floats = |k: &str| arr(k)?.iter().map(float).collect::<Result<Vec<f64>, _>>();
        let three = |k: &str| -> Result<[f64; 3], String> {
            floats(k)?
                .try_into()
                .map_err(|_| format!("'{k}' needs three numbers"))
        };
        let map = |k: &str| -> Result<BTreeMap<String, u64>, String> {
            match field(k)? {
                Json::Obj(pairs) => pairs
                    .iter()
                    .map(|(n, v)| Ok((n.clone(), v.as_u64().ok_or("bad count")?)))
                    .collect(),
                _ => Err(format!("'{k}' is not an object")),
            }
        };
        let setups = arr("setups")?
            .iter()
            .map(|s| {
                let v = s
                    .as_arr()
                    .ok_or("bad set-up sample")?
                    .iter()
                    .map(float)
                    .collect::<Result<Vec<f64>, _>>()?;
                v.try_into()
                    .map_err(|_| "set-up sample needs three numbers".to_string())
            })
            .collect::<Result<Vec<[f64; 3]>, String>>()?;
        let bytes = three("render_bytes")?.map(|b| b as u64);
        let digest = field("digest")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("bad digest")?;
        let failures = arr("failures")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("bad failure"))
            .collect::<Result<Vec<String>, _>>()?;
        Ok(Rep {
            setups,
            run_s: float(field("run_s")?)?,
            output_s: float(field("output_s")?)?,
            render_ms: three("render_ms")?,
            render_bytes: bytes,
            goodput: three("goodput")?,
            digest,
            failures,
            aborted: uint("aborted")?,
            messages: uint("messages")?,
            flows: uint("flows")?,
            events: uint("events")?,
            counters: map("counters")?,
            peak_buffer_bytes: uint("peak_buffer_bytes")?,
            slice_ms: floats("slice_ms")?,
            cc_calls: map("cc_calls")?,
            cc_busy_ms: float(field("cc_busy_ms")?)?,
            cc_floor_ns: float(field("cc_floor_ns")?)?,
            peak_rss_mb: float(field("peak_rss_mb")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut rep = Rep {
            setups: vec![[0.001, 0.9, 0.1]],
            run_s: 1.25,
            output_s: 0.01,
            render_ms: [1.0, 2.0, 3.0],
            render_bytes: [10, 20, 30],
            goodput: [7.5, 6.25, 1.0 / 3.0],
            digest: u64::MAX - 5,
            failures: vec!["cell seed 1: no CNP".to_string()],
            aborted: 1,
            messages: 9,
            flows: 7,
            events: 1 << 40,
            peak_buffer_bytes: 12345,
            slice_ms: vec![0.5, 0.25],
            cc_busy_ms: 3.5,
            cc_floor_ns: 40.0,
            peak_rss_mb: 15.25,
            ..Rep::default()
        };
        rep.counters.insert("pause_tx".to_string(), 42);
        rep.cc_calls.insert("on_cnp".to_string(), 3);
        let text = rep.to_json().render();
        let back = Rep::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rep:?}"));
    }

    #[test]
    fn kinds_parse_by_name() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("bogus"), None);
    }
}
