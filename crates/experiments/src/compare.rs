//! `repro compare` — cross-run regression diffing of telemetry JSON
//! reports.
//!
//! `compare` walks two reports produced by `repro <id> --json <dir>` (or
//! any [`Json`] documents) key by key and reports every leaf that
//! differs beyond the configured tolerances. Reports are deterministic,
//! so every leaf diffs exact by default; `--ignore <key>` skips a key
//! wherever it appears and `--rel-pct` / `--abs` forgive numeric drift.
//! Exit status: 0 when the reports match within tolerance, 1 when they
//! differ, 2 on a usage error or an unreadable or malformed file — made
//! for CI gates (`repro compare old.json new.json || fail`).

use netsim::telemetry::Json;

/// Numeric and key-ignore tolerances for [`diff`]. The default is exact
/// and ignores nothing.
#[derive(Default)]
pub struct Tolerances {
    /// Allowed relative difference, in percent of `max(|a|, |b|)`.
    pub rel_pct: f64,
    /// Allowed absolute difference.
    pub abs: f64,
    /// Object keys skipped wherever they appear in the tree.
    pub ignore: Vec<String>,
}

impl Tolerances {
    fn within(&self, a: f64, b: f64) -> bool {
        let d = (a - b).abs();
        if d <= self.abs {
            return true;
        }
        let scale = a.abs().max(b.abs());
        scale > 0.0 && d / scale * 100.0 <= self.rel_pct
    }
}

/// One leaf-level difference between two documents.
pub struct Diff {
    /// Dotted path to the differing node (`scenarios[1].checksum`).
    pub path: String,
    /// Human-readable `a vs b` description.
    pub detail: String,
}

fn num(j: &Json) -> Option<f64> {
    match *j {
        Json::Int(i) => Some(i as f64),
        Json::UInt(u) => Some(u as f64),
        Json::Float(f) => Some(f),
        _ => None,
    }
}

fn walk(a: &Json, b: &Json, path: &str, tol: &Tolerances, out: &mut Vec<Diff>) {
    // Numbers compare numerically across Int/UInt/Float so a value that
    // crosses an integer/float boundary between runs still matches.
    if let (Some(x), Some(y)) = (num(a), num(b)) {
        if !tol.within(x, y) {
            out.push(Diff {
                path: path.to_string(),
                detail: format!("{x} vs {y}"),
            });
        }
        return;
    }
    match (a, b) {
        (Json::Obj(pa), Json::Obj(pb)) => {
            for (k, va) in pa {
                if tol.ignore.iter().any(|i| i == k) {
                    continue;
                }
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match b.get(k) {
                    Some(vb) => walk(va, vb, &sub, tol, out),
                    None => out.push(Diff {
                        path: sub,
                        detail: "missing in b".to_string(),
                    }),
                }
            }
            for (k, _) in pb {
                if tol.ignore.iter().any(|i| i == k) || a.get(k).is_some() {
                    continue;
                }
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                out.push(Diff {
                    path: sub,
                    detail: "missing in a".to_string(),
                });
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            if xa.len() != xb.len() {
                out.push(Diff {
                    path: path.to_string(),
                    detail: format!("array length {} vs {}", xa.len(), xb.len()),
                });
                return;
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                walk(va, vb, &format!("{path}[{i}]"), tol, out);
            }
        }
        _ if a == b => {}
        _ => out.push(Diff {
            path: path.to_string(),
            detail: format!("{} vs {}", a.render().trim(), b.render().trim()),
        }),
    }
}

/// Recursively diffs two documents; an empty result means they match
/// within `tol`.
pub fn diff(a: &Json, b: &Json, tol: &Tolerances) -> Vec<Diff> {
    let mut out = Vec::new();
    walk(a, b, "", tol, &mut out);
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `repro compare a.json b.json [--rel-pct <p>] [--abs <v>] [--ignore <key>]`.
/// Exit status 2 on usage/IO/parse errors, 1 when the reports differ, 0
/// when they match.
pub fn cli(args: &[String]) -> i32 {
    let mut tol = Tolerances::default();
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rel-pct" | "--abs" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("{a} requires a number");
                    return 2;
                };
                if a == "--rel-pct" {
                    tol.rel_pct = v;
                } else {
                    tol.abs = v;
                }
            }
            "--ignore" => match it.next() {
                Some(k) => tol.ignore.push(k.clone()),
                None => {
                    eprintln!("--ignore requires a key name");
                    return 2;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                return 2;
            }
            f => files.push(f),
        }
    }
    let [fa, fb] = files[..] else {
        eprintln!(
            "usage: repro compare <a.json> <b.json> [--rel-pct <p>] [--abs <v>] [--ignore <key>]"
        );
        return 2;
    };
    let (a, b) = match (load(fa), load(fb)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let diffs = diff(&a, &b, &tol);
    if diffs.is_empty() {
        println!("compare: {fa} and {fb} match within tolerance");
        0
    } else {
        for d in &diffs {
            println!("DIFF {}: {}", d.path, d.detail);
        }
        println!(
            "compare: {} difference(s) between {fa} and {fb}",
            diffs.len()
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    #[test]
    fn self_diff_is_empty() {
        let a = obj(vec![
            ("x", Json::Float(1.5)),
            ("wall_ms", Json::Float(100.0)),
            ("arr", Json::Arr(vec![Json::UInt(1), Json::UInt(2)])),
        ]);
        assert!(diff(&a, &a, &Tolerances::default()).is_empty());
    }

    #[test]
    fn ignored_keys_do_not_diff() {
        let a = obj(vec![("x", Json::UInt(1)), ("wall_ms", Json::Float(1.0))]);
        let b = obj(vec![("x", Json::UInt(1)), ("wall_ms", Json::Float(999.0))]);
        assert_eq!(diff(&a, &b, &Tolerances::default()).len(), 1);
        let ignore = Tolerances {
            ignore: vec!["wall_ms".to_string()],
            ..Tolerances::default()
        };
        assert!(diff(&a, &b, &ignore).is_empty());
    }

    #[test]
    fn numeric_regression_is_caught_and_tolerances_forgive() {
        let a = obj(vec![("goodput", Json::Float(38.0))]);
        let b = obj(vec![("goodput", Json::Float(36.0))]);
        let strict = diff(&a, &b, &Tolerances::default());
        assert_eq!(strict.len(), 1);
        assert_eq!(strict[0].path, "goodput");
        let loose = Tolerances {
            rel_pct: 10.0,
            ..Tolerances::default()
        };
        assert!(diff(&a, &b, &loose).is_empty());
        let abs = Tolerances {
            abs: 2.5,
            ..Tolerances::default()
        };
        assert!(diff(&a, &b, &abs).is_empty());
    }

    #[test]
    fn missing_keys_and_int_float_cross_type() {
        let a = obj(vec![("x", Json::UInt(2)), ("only_a", Json::UInt(1))]);
        let b = obj(vec![("x", Json::Float(2.0)), ("only_b", Json::UInt(1))]);
        let d = diff(&a, &b, &Tolerances::default());
        // 2 and 2.0 compare equal; each one-sided key reports once.
        let paths: Vec<&str> = d.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(paths, ["only_a", "only_b"]);
    }

    #[test]
    fn nested_paths_name_the_leaf() {
        let a = obj(vec![(
            "scenarios",
            Json::Arr(vec![obj(vec![("checksum", Json::Float(1.0))])]),
        )]);
        let b = obj(vec![(
            "scenarios",
            Json::Arr(vec![obj(vec![("checksum", Json::Float(2.0))])]),
        )]);
        let d = diff(&a, &b, &Tolerances::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "scenarios[0].checksum");
    }
}
