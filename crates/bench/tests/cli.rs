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
