//! Command-line behaviour of the `tta-cost` binary.

use std::process::Command;

#[test]
fn unusable_out_path_exits_2_with_one_line() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tta-cost-out-parent");
    std::fs::write(&file, "a regular file, not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tta-cost"))
        .args(["--quiet", "--out"])
        .arg(file.join("journal.json"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
}
