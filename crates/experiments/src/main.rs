//! `repro` — regenerate every table and figure of the DCQCN paper.
//!
//! ```text
//! repro <id>... [--quick] [--json <dir>] [--trace <dir>] [--dash <dir>]
//! repro all [--quick]                    run every experiment
//! repro list                             list experiment ids
//! repro compare <a.json> <b.json> [..]   diff two telemetry reports
//! ```
//!
//! Several positional ids run in order: `repro fig3 fig4 fig9`. Unknown
//! ids and unknown `--flags` are rejected up front with exit status 2 —
//! nothing runs.
//!
//! `--json <dir>` additionally writes one machine-readable report per
//! experiment to `<dir>/<id>.json`; `--trace <dir>` writes a Chrome
//! trace-event file (`<dir>/<id>.trace.json`, loadable in Perfetto or
//! `about://tracing`) for the experiments that export a causal trace;
//! `--dash <dir>` writes a dependency-free single-file HTML dashboard
//! (`<dir>/<id>.html`) for the experiments that render one. All three
//! are deterministic byte-for-byte across `REPRO_THREADS` settings
//! (see DESIGN.md, "Telemetry" and "Causal tracing").

use std::path::Path;
use std::time::Instant;

fn usage() {
    eprintln!(
        "usage: repro <id>...|all|list [--quick] [--json <dir>] [--trace <dir>] [--dash <dir>]"
    );
    eprintln!(
        "       repro compare <a.json> <b.json> [--rel-pct <p>] [--abs <v>] [--ignore <key>]"
    );
    eprintln!("       repro chaos [--seed <n>] [--cases <n>] [--quick] [--out <dir>]");
    eprintln!("       repro chaos --replay <file>");
    eprintln!("ids: {}", experiments::ALL.join(" "));
    eprintln!("ext: ext {}", experiments::EXT.join(" "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `chaos` owns its flag vocabulary (--seed, --cases, --replay, …),
    // so it parses its own arguments instead of the shared loop below.
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(experiments::chaos::cli(&args[1..]));
    }
    // `compare` likewise owns its flags.
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(experiments::compare::cli(&args[1..]));
    }
    let mut quick = false;
    let mut ids: Vec<&str> = Vec::new();
    let mut json_dir: Option<&str> = None;
    let mut trace_dir: Option<&str> = None;
    let mut dash_dir: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => match it.next() {
                Some(d) => json_dir = Some(d.as_str()),
                None => {
                    eprintln!("--json requires an output directory");
                    std::process::exit(2);
                }
            },
            "--trace" => match it.next() {
                Some(d) => trace_dir = Some(d.as_str()),
                None => {
                    eprintln!("--trace requires an output directory");
                    std::process::exit(2);
                }
            },
            "--dash" => match it.next() {
                Some(d) => dash_dir = Some(d.as_str()),
                None => {
                    eprintln!("--dash requires an output directory");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                usage();
                std::process::exit(2);
            }
            id => ids.push(id),
        }
    }

    if ids.is_empty() || ids.contains(&"help") {
        usage();
        return;
    }
    if ids.contains(&"list") {
        for id in experiments::ALL.iter().chain(experiments::EXT) {
            println!("{id}");
        }
        return;
    }
    // Validate every id up front so a typo late in the list cannot waste
    // the runs before it.
    for id in &ids {
        let known = *id == "all"
            || *id == "ext"
            || experiments::ALL.contains(id)
            || experiments::EXT.contains(id);
        if !known {
            eprintln!("unknown experiment '{id}'");
            usage();
            std::process::exit(2);
        }
    }

    if let Some(dir) = json_dir {
        if let Err(e) = experiments::report::set_dir(Path::new(dir)) {
            eprintln!("cannot create report directory {dir}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = trace_dir {
        if let Err(e) = experiments::report::set_trace_dir(Path::new(dir)) {
            eprintln!("cannot create trace directory {dir}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = dash_dir {
        if let Err(e) = experiments::report::set_dash_dir(Path::new(dir)) {
            eprintln!("cannot create dashboard directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    let t0 = Instant::now();
    let many = ids.len() > 1 || ids.contains(&"all") || ids.contains(&"ext");
    for id in &ids {
        match *id {
            "all" => {
                for id in experiments::ALL {
                    let t = Instant::now();
                    experiments::dispatch(id, quick);
                    eprintln!("[{id} took {:.1}s]", t.elapsed().as_secs_f64());
                }
            }
            id => {
                let t = Instant::now();
                experiments::dispatch(id, quick);
                if many {
                    eprintln!("[{id} took {:.1}s]", t.elapsed().as_secs_f64());
                }
            }
        }
    }
    if many {
        eprintln!("[total {:.1}s]", t0.elapsed().as_secs_f64());
    }
}
