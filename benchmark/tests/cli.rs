//! Command-line contract: malformed input exits 2 with a usage line, and
//! `compare` exits non-zero exactly when a pair regressed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tta-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tta-benchmark-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn malformed_arguments_exit_2_with_usage() {
    let dir = std::env::temp_dir();
    for args in [
        &["--workload", "bogus"][..],
        &["--workload", "fleet", "--seed", "-1"],
        &["--workload", "fleet", "--seed", "abc"],
        &["--workload", "fleet", "--seconds", "0"],
        &["--workload", "fleet", "--trace", "2"],
        &["--workload"],
        &["--seed", "1"],
        &["--frobnicate"],
        &["compare", "only-one"],
    ] {
        let out = bench(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A result line with every end-to-end metric scaled by `f`.
fn line(f: f64) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\
         \"wall_s\": {{\"value\": {}, \"unit\": \"s\"}}, \
         \"queries_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}, \
         \"setup_s\": {{\"value\": {}, \"unit\": \"s\"}}, \
         \"peak_rss_mb\": {{\"value\": 50, \"unit\": \"MB\"}}}}}}\n",
        3.0 * f,
        1e4 / f,
        0.01 * f
    )
}

fn result_set(root: &Path, name: &str, scale: f64) {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).expect("result dir");
    for w in ["nbody3d", "raytrace", "index", "fleet"] {
        let lines: String = [1.0, 1.01, 0.99, 1.0, 1.005]
            .iter()
            .map(|j| line(scale * j))
            .collect();
        std::fs::write(dir.join(format!("{w}.jsonl")), lines).expect("result file");
    }
}

#[test]
fn compare_exits_nonzero_only_on_regression() {
    let root = scratch("compare");
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
        root.join("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json");
    result_set(&root, "a", 1.0);
    result_set(&root, "same", 1.02);
    result_set(&root, "slow", 1.5);

    let same = bench(&["compare", "a", "same"], &root);
    assert_eq!(same.status.code(), Some(0));
    let rows = String::from_utf8_lossy(&same.stdout).into_owned();
    assert_eq!(rows.matches(" ok").count(), 4 * 5, "{rows}");

    let slow = bench(&["compare", "a", "slow"], &root);
    assert_eq!(slow.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&slow.stdout).contains("regressed"));

    let missing = bench(&["compare", "a", "nowhere"], &root);
    assert_eq!(missing.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&root);
}
