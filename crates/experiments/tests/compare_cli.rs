//! The `repro compare` exit-code contract, driven through the real
//! binary: self-diff is clean (exit 0), an injected counter regression
//! fails (exit 1), tolerances forgive small drift, and unreadable or
//! malformed files are usage errors (exit 2). The malformed-file cases
//! also drive `repro chaos --replay`, the other command that parses a
//! JSON file from disk.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-compare-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

const BASE: &str = r#"{
  "id": "fig19",
  "metrics": {
    "counters": {
      "ecn_marks": 1200,
      "pause_tx": 40
    },
    "wall_ms": 917
  },
  "quick": true
}
"#;

#[test]
fn self_diff_exits_zero() {
    let dir = tmp_dir("self");
    let a = write(&dir, "a.json", BASE);
    let status = repro().arg("compare").arg(&a).arg(&a).status().unwrap();
    assert_eq!(status.code(), Some(0), "a report always matches itself");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_counter_regression_exits_nonzero() {
    let dir = tmp_dir("regress");
    let a = write(&dir, "a.json", BASE);
    let b = write(&dir, "b.json", &BASE.replace("1200", "1400"));
    let out = repro().arg("compare").arg(&a).arg(&b).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "regression must fail the diff");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("metrics.counters.ecn_marks"),
        "diff names the regressed leaf:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wall_clock_noise_is_ignored_and_tolerances_forgive() {
    let dir = tmp_dir("tol");
    let a = write(&dir, "a.json", BASE);
    // wall_ms differs and is ignored by name; pause_tx drifts by 2.5%.
    let b = write(
        &dir,
        "b.json",
        &BASE
            .replace("917", "2048")
            .replace("\"pause_tx\": 40", "\"pause_tx\": 41"),
    );
    let strict = repro()
        .arg("compare")
        .arg(&a)
        .arg(&b)
        .args(["--ignore", "wall_ms"])
        .status()
        .unwrap();
    assert_eq!(
        strict.code(),
        Some(1),
        "2.5% drift differs at default tolerance"
    );
    let loose = repro()
        .args(["compare"])
        .arg(&a)
        .arg(&b)
        .args(["--ignore", "wall_ms", "--rel-pct", "5"])
        .status()
        .unwrap();
    assert_eq!(loose.code(), Some(0), "--rel-pct 5 forgives 2.5% drift");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_usage_error() {
    let status = repro()
        .args(["compare", "/nonexistent/a.json", "/nonexistent/b.json"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2));
}

/// Runs `repro compare f f` and `repro chaos --replay f` on `text` and
/// asserts both reject the file as a usage error (exit 2) that names
/// `reason`, rather than aborting or reporting a difference.
fn assert_rejected(tag: &str, text: &str, reason: &str) {
    let dir = tmp_dir(tag);
    let path = write(&dir, "bad.json", text);
    let f = path.to_str().unwrap();
    for cmd in [["compare", f, f], ["chaos", "--replay", f]] {
        let out = repro().args(cmd).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
        assert!(stderr.contains(reason), "{cmd:?} names the cause: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_file_is_a_usage_error() {
    // Without a depth bound this overflows the parser's stack.
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    assert_rejected("deep", &deep, "nesting deeper than");
}

#[test]
fn non_finite_number_is_a_usage_error() {
    // 1e999 would otherwise parse as infinity and diff as `inf vs inf`.
    assert_rejected(
        "inf",
        "{\"x\": 1e999}\n",
        "non-finite number '1e999' at byte 6",
    );
}
