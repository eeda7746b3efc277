//! Command-line behaviour of the sweep binaries.

use std::process::Command;

#[test]
fn unusable_trace_directory_exits_2_before_any_run() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig13-trace-parent");
    std::fs::write(&file, "a regular file, not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig13"))
        .args(["--quick", "--scale", "0.01", "--threads", "1", "--trace"])
        .arg(file.join("traces"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot create trace dir"),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no run may start: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unhonoured_snapshot_flags_exit_2_before_any_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig12-snapshots");
    let out = Command::new(env!("CARGO_BIN_EXE_fig12"))
        .args(["--quick", "--snapshot-dir"])
        .arg(&dir)
        .arg("--resume")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--snapshot-dir"), "stderr: {stderr}");
    let usage = stderr.lines().last().unwrap_or_default();
    assert!(
        usage.starts_with("usage:") && !usage.contains("--snapshot-dir"),
        "the usage line lists only honoured flags: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no run may start: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}
