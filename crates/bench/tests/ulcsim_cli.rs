//! `ulcsim` turns bad input into exit status 2 and a message, never a
//! panic: malformed trace files, impossible hierarchies, and unknown
//! flags, workloads or schemes.

use std::process::{Command, Output};

fn ulcsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ulcsim"))
        .args(args)
        .output()
        .expect("spawn ulcsim")
}

/// Asserts a clean usage/input error: exit 2, `needle` in the message,
/// and no panic.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = ulcsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn malformed_trace_file_is_rejected() {
    let path = std::env::temp_dir().join(format!("ulcsim_bad_trace_{}.txt", std::process::id()));
    std::fs::write(&path, "0 17\nnot-a-block\n").expect("write temp trace");
    let arg = format!("--trace={}", path.display());
    assert_rejected(&[&arg], "line 2");
    std::fs::remove_file(&path).ok();
    assert_rejected(&[&arg], "cannot open");
}

#[test]
fn client_id_space_is_bounded() {
    let path = std::env::temp_dir().join(format!("ulcsim_many_clients_{}.txt", std::process::id()));
    // One reference from client 256 would otherwise build 257 client caches.
    std::fs::write(&path, "0 1\n256 2\n").expect("write temp trace");
    let arg = format!("--trace={}", path.display());
    assert_rejected(&[&arg, "--caps=4,4"], "at most 256 clients");
    std::fs::write(&path, "0 1\n255 2\n0 1\n").expect("write temp trace");
    let out = ulcsim(&[&arg, "--caps=4,4", "--warmup=0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&path, "4294967296 2\n").expect("write temp trace");
    assert_rejected(&[&arg, "--caps=4,4"], "line 1");
    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_capacity_levels_are_rejected() {
    assert_rejected(&["--caps=0,0", "--refs=1000"], "at least one block");
}

#[test]
fn schemes_that_do_not_fit_the_hierarchy_are_rejected() {
    assert_rejected(
        &["--scheme=mq", "--caps=64", "--refs=1000"],
        "needs exactly two levels",
    );
    assert_rejected(
        &[
            "--workload=httpd-multi",
            "--caps=4,4,4",
            "--scheme=ulc",
            "--refs=1000",
        ],
        "multi-client ULC needs exactly two levels",
    );
}

#[test]
fn unknown_flags_workloads_and_schemes_are_rejected() {
    assert_rejected(&["--frobnicate"], "unknown argument");
    assert_rejected(&["--workload=nope", "--refs=1000"], "unknown workload");
    assert_rejected(&["--scheme=lfu"], "unknown scheme");
    assert_rejected(&["--refs=many"], "--refs");
    assert_rejected(&["--refs=10", "--warmup=100"], "exceeds the trace length");
}

#[test]
fn one_level_hierarchy_runs() {
    let out = ulcsim(&["--caps=64", "--refs=2000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ULC"));
}
