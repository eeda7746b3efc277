//! Perf-trajectory gatekeeper for the committed `BENCH_fig13.json` log.
//!
//! Three subcommands (see `tta_bench::bench_log` for the file format):
//!
//! * `validate <log.json>` — parse + schema-check the committed log and
//!   require it in the canonical form `record` writes.
//! * `record <log.json> --mode <m> --date <YYYY-MM-DD> (--timing <sidecar>
//!   | --wall-seconds <s>) [--threads <n>] [--note <text>]` — append one
//!   measurement (wall-clock from a sweep timing sidecar or given
//!   directly) and rewrite the log canonically.
//! * `check <log.json> --mode <m> (--timing <sidecar> | --wall-seconds
//!   <s>) [--max-regress <frac>]` — compare a fresh measurement against
//!   the latest committed entry of the same mode; exit non-zero when it is
//!   more than `max-regress` (default 0.25) slower.
//!
//! `check` intentionally gates only against *regression*: faster runs pass
//! silently, and the trajectory is updated explicitly via `record`
//! (`scripts/bench.sh`), never as a CI side effect.

use std::process::exit;

use tta_bench::bench_log::{sweep_wall_seconds, BenchEntry, BenchLog, MODES};

const USAGE: &str = "usage: bench_gate <validate|record|check> <log.json> [options]
  validate <log.json>
  record   <log.json> --mode <m> --date <YYYY-MM-DD>
           (--timing <sidecar.json> | --wall-seconds <s>)
           [--threads <n>] [--note <text>]
  check    <log.json> --mode <m>
           (--timing <sidecar.json> | --wall-seconds <s>)
           [--max-regress <frac>]
  modes: quick | quick-shadow | quick-snap-cold | quick-snap-warm | full";

fn fail(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    exit(2);
}

#[derive(Default)]
struct Opts {
    mode: Option<String>,
    date: Option<String>,
    timing: Option<String>,
    wall_seconds: Option<f64>,
    threads: u64,
    note: String,
    max_regress: f64,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        threads: 1,
        max_regress: 0.25,
        ..Opts::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--mode" => o.mode = Some(value("--mode")),
            "--date" => o.date = Some(value("--date")),
            "--timing" => o.timing = Some(value("--timing")),
            "--note" => o.note = value("--note"),
            "--wall-seconds" => {
                o.wall_seconds = Some(
                    value("--wall-seconds")
                        .parse()
                        .unwrap_or_else(|_| fail("--wall-seconds must be a number")),
                )
            }
            "--threads" => {
                o.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads must be an integer"))
            }
            "--max-regress" => {
                o.max_regress = value("--max-regress")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-regress must be a number"))
            }
            other => fail(&format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    o
}

/// The measured wall-clock: `--wall-seconds` wins, else the timing sidecar.
fn measured_wall(o: &Opts) -> f64 {
    if let Some(s) = o.wall_seconds {
        return s;
    }
    let path = o
        .timing
        .as_ref()
        .unwrap_or_else(|| fail("need --timing <sidecar> or --wall-seconds <s>"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    sweep_wall_seconds(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn required_mode(o: &Opts) -> String {
    let mode = o.mode.clone().unwrap_or_else(|| fail("--mode is required"));
    if !MODES.contains(&mode.as_str()) {
        fail(&format!("unknown mode {mode:?} (want one of {MODES:?})"));
    }
    mode
}

fn load(path: &str, parse: fn(&str) -> Result<BenchLog, String>) -> BenchLog {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, log_path, rest) = match argv.split_first() {
        Some((cmd, rest)) => match rest.split_first() {
            Some((path, opts)) => (cmd.as_str(), path.clone(), opts.to_vec()),
            None => fail(USAGE),
        },
        None => fail(USAGE),
    };

    match cmd {
        "validate" => {
            let log = load(&log_path, BenchLog::validate);
            println!(
                "bench_gate: {log_path} ok — bench {:?}, {} entries",
                log.bench,
                log.entries.len()
            );
        }
        "record" => {
            let o = parse_opts(&rest);
            let mode = required_mode(&o);
            let date = o.date.clone().unwrap_or_else(|| fail("--date is required"));
            let mut log = load(&log_path, BenchLog::parse);
            let entry = BenchEntry {
                id: log.next_id(&mode),
                mode,
                threads: o.threads,
                wall_seconds: measured_wall(&o),
                date,
                note: o.note.clone(),
            };
            println!(
                "bench_gate: recording {} = {:.3}s ({})",
                entry.id, entry.wall_seconds, entry.note
            );
            log.entries.push(entry);
            // Re-validate the result before writing: `record` must never
            // produce a file `validate` rejects.
            let text = log.to_json();
            BenchLog::parse(&text).unwrap_or_else(|e| fail(&format!("internal: {e}")));
            std::fs::write(&log_path, text)
                .unwrap_or_else(|e| fail(&format!("cannot write {log_path}: {e}")));
        }
        "check" => {
            let o = parse_opts(&rest);
            let mode = required_mode(&o);
            let log = load(&log_path, BenchLog::parse);
            let Some(baseline) = log.latest(&mode) else {
                fail(&format!("{log_path} has no {mode:?} entry to gate against"));
            };
            let measured = measured_wall(&o);
            let limit = baseline.wall_seconds * (1.0 + o.max_regress);
            println!(
                "bench_gate: {mode} measured {measured:.3}s, committed {} = {:.3}s, \
                 limit {limit:.3}s (+{:.0}%)",
                baseline.id,
                baseline.wall_seconds,
                o.max_regress * 100.0
            );
            if measured > limit {
                eprintln!(
                    "bench_gate: REGRESSION — {measured:.3}s exceeds {limit:.3}s; \
                     fix the slowdown or record a new baseline via scripts/bench.sh"
                );
                exit(1);
            }
            println!("bench_gate: ok");
        }
        other => fail(&format!("unknown command {other:?}\n{USAGE}")),
    }
}
