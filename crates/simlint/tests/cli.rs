//! The `simlint` binary on hostile input: a bad baseline file exits 2
//! with a message, never aborts.

use std::process::Command;

#[test]
fn deeply_nested_baseline_exits_2() {
    let path = std::env::temp_dir().join(format!("simlint-deep-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_simlint"))
        .arg("--baseline")
        .arg(&path)
        .output()
        .expect("run simlint");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("nesting deeper than 128"),
        "stderr: {stderr}"
    );
}
