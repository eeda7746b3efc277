//! Command-line behaviour of `tta-snap-bisect`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the bisect tool at the smallest scale with its snapshots under a
/// directory of its own; returns the output and that directory.
fn bisect(workload: &str, platform: &str) -> (Output, PathBuf) {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bisect-{workload}-{platform}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_tta-snap-bisect"))
        .args(["--workload", workload, "--platform", platform])
        .args(["--chunks", "2", "--scale", "0.01", "--snapshot-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    (out, dir)
}

#[test]
fn unsupported_pairings_exit_2_with_a_usage_error() {
    for (workload, platform) in [("btree", "rta"), ("nbody", "rta"), ("rtnn", "simt")] {
        let (out, dir) = bisect(workload, platform);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{workload}/{platform}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{workload}/{platform}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("--workload {workload}"))
                && stderr.contains(&format!("--platform {platform}")),
            "the error names the pairing: {stderr}"
        );
        assert!(
            stderr.lines().any(|l| l.starts_with("usage:")),
            "{workload}/{platform}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "no replay may start: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(!dir.exists(), "no pre-trip snapshot is written");
    }
}

#[test]
fn supported_pairings_replay_clean() {
    for (workload, platform) in [("btree", "tta"), ("nbody", "tta")] {
        let (out, dir) = bisect(workload, platform);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{workload}/{platform}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("no trip"), "{stdout}");
        assert!(!dir.exists(), "a clean replay writes no snapshot");
    }
}
