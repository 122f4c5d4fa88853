//! `repro chaos --replay` on replay files whose faults name things the
//! topology does not have, driven through the real binary: each is a
//! usage error (exit 2) naming the bad index, never a panic.

use std::process::Command;

/// Replays a valid 4-host star case (4 links, one 4-port switch) with
/// `fault` spliced in, and asserts exit 2 with `reason` on stderr.
fn assert_replay_rejected(tag: &str, fault: &str, reason: &str) {
    let dir = std::env::temp_dir().join(format!("repro-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.json");
    let case = format!(
        r#"{{"cc": "dcqcn", "duration_us": 2000, "faults": [{fault}],
  "flows": [{{"bytes": 65536, "dst": 1, "src": 0, "start_us": 0}}],
  "queue_threshold": 65536, "seed": 7, "settle_us": 4000,
  "topo": {{"hosts": 4, "kind": "star"}}}}"#
    );
    std::fs::write(&path, case).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["chaos", "--replay"])
        .arg(&path)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
    assert!(stderr.contains(reason), "{tag} names the cause: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flap_on_a_missing_link_is_a_usage_error() {
    assert_replay_rejected(
        "link",
        r#"{"kind": "flap", "link": 999, "at_us": 100, "down_us": 50, "period_us": 200, "times": 1}"#,
        "fault references link 999, out of range 0..4",
    );
}

#[test]
fn storm_from_a_missing_host_is_a_usage_error() {
    assert_replay_rejected(
        "host",
        r#"{"kind": "storm", "host": 999, "class": 3, "from_us": 100, "until_us": 500, "refresh_us": 20}"#,
        "fault references host 999, out of range 0..4",
    );
}

#[test]
fn storm_on_a_missing_class_is_a_usage_error() {
    assert_replay_rejected(
        "class",
        r#"{"kind": "storm", "host": 1, "class": 200, "from_us": 100, "until_us": 500, "refresh_us": 20}"#,
        "fault references class 200, out of range 0..8",
    );
}

#[test]
fn wedge_on_a_missing_switch_is_a_usage_error() {
    assert_replay_rejected(
        "switch",
        r#"{"kind": "wedge", "switch": 999, "port": 0, "class": 3, "at_us": 100}"#,
        "fault references switch 999, out of range 0..1",
    );
}

#[test]
fn wedge_on_a_missing_port_is_a_usage_error() {
    assert_replay_rejected(
        "port",
        r#"{"kind": "wedge", "switch": 0, "port": 9, "class": 3, "at_us": 100}"#,
        "fault references port 9, out of range 0..4",
    );
}
