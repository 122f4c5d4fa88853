//! `fabricbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Measures one workload for `--seconds` of host time and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured untraced; with `--trace 1` they are the per-layer ones, from
//! traced repetitions measured from outside the simulator (sliced
//! `run_until`, a counting CC wrapper, timed output calls, registry
//! counters). Every repetition's outputs are checked.
//!
//! Each repetition runs in a fresh worker process (`--worker <kind>`),
//! one at a time, each with one simulation thread. Timings vary more
//! between processes than within one, so a median over repetitions that
//! each ran in their own process is what repeats from run to run; each
//! worker's peak RSS is also that repetition's own.

mod rep;

use fabricbench::host::{allowed_cpus, Fingerprint};
use fabricbench::Workload;
use netsim::stats::percentile;
use netsim::telemetry::Json;
use rep::{Kind, Rep, CC_CALLS};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Fewest repetitions per run, however short `--seconds`; whole rounds
/// are run until there are at least this many.
const MIN_REPS: usize = 3;
/// Most CPUs a round spreads its workers over.
const MAX_CPUS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: Option<Kind>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: fabricbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut worker) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed '{value}': {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds '{value}': {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            "--worker" => {
                worker =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown worker '{value}'"))?)
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    if worker.is_some() {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            worker,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        worker,
    })
}

/// Runs one repetition in a fresh worker process, pinned to `cpu` when
/// given, and waits for it.
fn spawn(args: &Args, kind: Kind, cpu: Option<u32>) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = match cpu {
        Some(c) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(c.to_string()).arg(exe);
            cmd
        }
        None => Command::new(exe),
    };
    let out = cmd
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--worker", kind.name()])
        .output()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} worker exited with {}: {}",
            kind.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Rep::from_json(&Json::parse(&text)?)
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest of p99/p90/p50 with at least ten samples above it.
fn tail(v: &[f64]) -> (f64, f64) {
    for p in [99.0, 90.0, 50.0] {
        if v.len() as f64 * (1.0 - p / 100.0) >= 10.0 {
            return (p, percentile(v, p));
        }
    }
    (100.0, percentile(v, 100.0))
}

/// A JSON number with every digit of Rust's shortest round-trip form.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Metrics in report order, printed as lines and as the result object.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Repetitions of one kind and the per-repetition columns they yield.
#[derive(Default)]
struct Reps(Vec<Rep>);

impl Reps {
    fn col(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.0.iter().map(f).collect()
    }

    fn median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.col(f))
    }
}

/// Prints a timing's median, tail, quartiles and sample count.
fn describe(name: &str, v: &[f64], unit: &str) {
    let (p, t) = tail(v);
    println!(
        "{name}: median {} {unit}, p{p} {t}, quartiles {} / {}, n = {}",
        median(v),
        percentile(v, 25.0),
        percentile(v, 75.0),
        v.len()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fabricbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cells = fabricbench::cells(args.workload, args.seed);

    if let Some(kind) = args.worker {
        print!("{}", rep::work(&cells, kind).to_json().render());
        return ExitCode::SUCCESS;
    }

    let fp = Fingerprint::detect(std::path::Path::new("."));
    println!("fingerprint: host = {}", fp.host_key());
    println!("fingerprint: commit = {}", fp.commit);
    println!(
        "workload {} seed {}: {} cells of {} ms simulated per repetition, {} s, trace {}",
        args.workload.name(),
        args.seed,
        cells.len(),
        args.workload.horizon().as_secs_f64() * 1e3,
        args.seconds,
        args.trace as u8
    );

    // On a shared host one CPU can be much noisier than another, and a
    // process keeps the CPU it starts on. So a round runs every kind once
    // on each CPU (pinned with `taskset` where available), and each
    // median mixes the CPUs in equal parts instead of by chance.
    let cpus = allowed_cpus(MAX_CPUS);
    let pinned = cpus.first().is_some_and(|c| {
        Command::new("taskset")
            .args(["-c", &c.to_string(), "true"])
            .status()
            .is_ok_and(|s| s.success())
    });
    let pins: Vec<Option<u32>> = if pinned {
        cpus.iter().copied().map(Some).collect()
    } else {
        vec![None]
    };
    let kinds: &[Kind] = if args.trace {
        &Kind::ALL
    } else {
        &[Kind::Untraced]
    };
    let round: Vec<(Kind, Option<u32>)> = kinds
        .iter()
        .flat_map(|&k| pins.iter().map(move |&p| (k, p)))
        .collect();
    println!("workers per round: {} (CPUs {pins:?})", round.len());

    let (mut untraced, mut traced, mut flipped) =
        (Reps::default(), Reps::default(), Reps::default());
    let mut correct = true;
    let mut reference = None;
    // Start another round only if it fits in `--seconds`, judged by the
    // slowest worker so far.
    let started = Instant::now();
    let mut slowest = 0.0f64;
    let mut done = 0usize;
    'rounds: while done < MIN_REPS
        || started.elapsed().as_secs_f64() + slowest * round.len() as f64 <= args.seconds
    {
        for &(kind, cpu) in &round {
            done += 1;
            let rep_started = Instant::now();
            let mut rep = match spawn(&args, kind, cpu) {
                Ok(r) => r,
                Err(e) => {
                    println!("check failed: {e}");
                    correct = false;
                    break 'rounds;
                }
            };
            slowest = slowest.max(rep_started.elapsed().as_secs_f64());
            // Tracing, slicing and span recording observe the simulation;
            // none of them may change it.
            let expect = *reference.get_or_insert(rep.digest);
            if rep.digest != expect {
                rep.failures.push(format!(
                    "{} digest {:016x} differs from {expect:016x}",
                    kind.name(),
                    rep.digest
                ));
            }
            match kind {
                Kind::Untraced => untraced.0.push(rep),
                Kind::Traced => traced.0.push(rep),
                Kind::SpansFlipped => flipped.0.push(rep),
            }
        }
    }

    let all: Vec<&Rep> = untraced
        .0
        .iter()
        .chain(&traced.0)
        .chain(&flipped.0)
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in &all {
        attempted += r.messages;
        if r.failures.is_empty() {
            failed += r.aborted;
        } else {
            correct = false;
            failed += r.messages;
            for f in &r.failures {
                println!("check failed: {f}");
            }
        }
    }
    let (Some(first), Some(digest)) = (untraced.0.first(), reference) else {
        println!("no repetition finished");
        return ExitCode::FAILURE;
    };
    let setups = |i: usize| -> Vec<f64> {
        all.iter()
            .flat_map(|r| r.setups.iter().map(move |s| s[i]))
            .collect()
    };
    let setup_s = setups(0);
    let run_s = untraced.col(|r| r.run_s);
    let [mean, p50, p10] = first.goodput;

    println!("sim_digest: {digest:016x} ({} repetitions)", all.len());
    println!("events executed: {} per repetition", first.events);
    println!(
        "ops_failed_ratio: {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!("goodput: mean {mean} p50 {p50} p10 {p10} Gbps (simulated time)");
    describe("setup_s", &setup_s, "s");
    describe("run_s", &run_s, "s");

    let mut m = Metrics::default();
    if !args.trace {
        m.put("setup_s", median(&setup_s), "s");
        m.put("run_s", median(&run_s), "s");
        m.put("output_s", untraced.median(|r| r.output_s), "s");
        m.put("peak_rss_mb", untraced.median(|r| r.peak_rss_mb), "MB");
        m.put("goodput_mean_gbps", mean, "Gbps");
    } else {
        let (Some(t), Some(_)) = (traced.0.first(), flipped.0.first()) else {
            println!("no traced or span-flipped repetition finished");
            return ExitCode::FAILURE;
        };
        let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
        let run_ms = traced.col(|r| r.slice_ms.iter().sum());
        let busy_ms = traced.median(|r| r.cc_busy_ms);
        let slices: Vec<f64> = traced
            .0
            .iter()
            .flat_map(|r| r.slice_ms.iter().copied())
            .collect();
        let events = t.events as f64;
        describe("network.slice_ms", &slices, "ms");

        m.put("event.executed", events, "count");
        m.put("network.run_ms", median(&run_ms), "ms");
        m.put("network.ns_per_event", median(&run_ms) * 1e6 / events, "ns");
        m.put("network.slice_ms_p50", median(&slices), "ms");
        m.put("network.slice_ms_tail", tail(&slices).1, "ms");

        for name in ["forwarded", "ecn_marks", "pause_tx", "resume_tx"] {
            m.put(&format!("switch.{name}"), counter(name), "count");
        }
        let drops = counter("drops_pool") + counter("drops_lossy");
        m.put("switch.drops", drops, "count");
        m.put("switch.peak_buffer_bytes", t.peak_buffer_bytes as f64, "B");
        for name in [
            "cnps_sent",
            "retx_pkts",
            "nacks_sent",
            "timeouts",
            "completions",
            "qp_teardowns",
        ] {
            m.put(&format!("host.{name}"), counter(name), "count");
        }

        for (name, _) in CC_CALLS {
            let calls = t.cc_calls.get(name).copied().unwrap_or(0);
            m.put(&format!("cc.{name}"), calls as f64, "count");
        }
        println!(
            "cc probe cost: {} ns per callback, subtracted from cc.busy_ms",
            traced.median(|r| r.cc_floor_ns)
        );
        m.put("cc.busy_ms", busy_ms, "ms");
        // Against the untraced run: what CC costs a run nobody observes.
        m.put("cc.share", 100.0 * busy_ms / (1e3 * median(&run_s)), "%");

        m.put("topology.build_ms", median(&setups(1)), "ms");
        m.put("workloads.gen_ms", median(&setups(2)), "ms");
        m.put("workloads.flows", first.flows as f64, "count");
        m.put("workloads.messages", first.messages as f64, "count");
        m.put("workloads.goodput_p50_gbps", p50, "Gbps");
        m.put("workloads.goodput_p10_gbps", p10, "Gbps");

        for (i, out) in ["report", "trace", "dash"].into_iter().enumerate() {
            let t = untraced.median(|r| r.render_ms[i]);
            m.put(&format!("telemetry.{out}_ms"), t, "ms");
            m.put(
                &format!("telemetry.{out}_bytes"),
                first.render_bytes[i] as f64,
                "B",
            );
        }

        // Spans on against spans off, whichever is the workload's default.
        let (mut on, mut off) = (&untraced, &flipped);
        if !args.workload.spans_by_default() {
            std::mem::swap(&mut on, &mut off);
        }
        let cost = on.median(|r| r.run_s) / off.median(|r| r.run_s) - 1.0;
        m.put("telemetry.spans_cost_pct", 100.0 * cost, "%");
        let rss = on.median(|r| r.peak_rss_mb) - off.median(|r| r.peak_rss_mb);
        m.put("telemetry.spans_rss_mb", rss, "MB");

        let overhead = traced.median(|r| r.run_s) / median(&run_s) - 1.0;
        m.put("bench.trace_overhead_pct", 100.0 * overhead, "%");
    }
    for (name, v, unit) in &m.0 {
        println!("{name}: {} {unit}", num(*v));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        m.json()
    );
    ExitCode::SUCCESS
}
