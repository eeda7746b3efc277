//! `tta-benchmark` CLI: runs one workload and prints its result line, or
//! compares two result sets against the `BENCHMARK.json` bounds.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use tta_benchmark::plan::{Sizes, Workload};
use tta_benchmark::{compare, measure, report};

const USAGE: &str = "usage: tta-benchmark --workload <nbody3d|raytrace|index|fleet> [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       tta-benchmark compare <a-dir> <b-dir>";

/// Where `--trace 1` writes the Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = "bench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--seconds needs a positive integer, got `{v}`")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace needs 0 or 1, got `{v}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let m = measure(
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        &Sizes::BENCH,
    );
    let metrics = if args.trace {
        let rep = m
            .reps
            .iter()
            .rev()
            .find(|r| r.detailed)
            .expect("a traced measurement has detailed repetitions");
        let path = Path::new(TRACE_DIR).join(format!("{}.trace.json", args.workload.name()));
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, report::chrome_json(args.workload.name(), rep)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("[tta-benchmark] trace written to {}", path.display());
        report::per_layer(&m)
    } else {
        let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        report::end_to_end(&m, rss)
    };
    let speeds: Vec<f64> = m.reps.iter().map(|r| r.speed).collect();
    eprintln!(
        "[tta-benchmark] {}: {} repetitions, {} of {} runs failed, median speed factor {:.3}",
        args.workload.name(),
        m.reps.len(),
        m.failed,
        m.attempted,
        report::median(&speeds)
    );
    println!("sim_digest {:016x}", m.sim_digest);
    println!(
        "{}",
        report::result_line(m.failed == 0, m.attempted, m.failed, &metrics)
    );
    Ok(())
}

fn compare_sets(a: &str, b: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let spec = compare::parse_spec(&text)?;
    compare::compare(&spec, Path::new(a), Path::new(b))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare_sets(a, b).map(|regressed| !regressed),
            _ => {
                eprintln!("error: compare needs two result-set directories\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        _ => match parse_args(&argv) {
            Ok(args) => run(&args).map(|()| true),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
