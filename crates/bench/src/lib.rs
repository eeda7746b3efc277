//! Shared support for the figure/table harness binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §5 for the index). They share:
//!
//! * [`Args`] — a tiny CLI: `--scale <f>` multiplies workload sizes
//!   (default 1.0 = the laptop-scale defaults documented in DESIGN.md;
//!   larger values approach the paper's sizes), `--quick` shrinks runs for
//!   smoke testing, `--threads <n>` sets the sweep worker count (default:
//!   available parallelism, capped at 8; results are byte-identical at any
//!   value). Each binary names the optional flags it honours at its
//!   [`Args::parse`] call, and any other flag exits 2: `--trace <dir>`
//!   writes one Chrome trace per run into `<dir>` (see DESIGN.md §10;
//!   traces are byte-identical at any thread count), `--snapshot-dir
//!   <dir>` keeps a [`SnapshotStore`] of final run states so reruns
//!   restore instead of re-simulating (`--resume` makes a miss fatal; see
//!   DESIGN.md §15).
//! * [`sweep`] — starts a [`harness::Sweep`] sized from the parsed args;
//!   every binary runs its independent experiment points through it and
//!   gets `results/<name>.journal.json` (+ `.timing.json`) for free.
//! * [`Report`] — aligned console tables plus a CSV copy under `results/`.
//! * [`activity_of`] — adapts a [`workloads::RunResult`] into the energy
//!   model's [`energy::ActivityCounts`].

use energy::ActivityCounts;
use workloads::runner::parse_scale;
use workloads::RunResult;

pub use harness::{prepare, run_or_resume, InputCache, SnapshotStore, Sweep};

/// Command-line arguments shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload size multiplier.
    pub scale: f64,
    /// Smoke-test mode: tiny sizes, for CI.
    pub quick: bool,
    /// Sweep worker threads.
    pub threads: usize,
    /// Chrome-trace output directory (`None` = tracing disabled, the
    /// zero-overhead default).
    pub trace: Option<std::path::PathBuf>,
    /// Snapshot-store directory (`None` = snapshotting disabled). With a
    /// store, binaries that run through [`run_or_resume`] save each run's
    /// final state on a cold pass and restore it on reruns, skipping
    /// simulation while producing byte-identical journals.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Strict warm mode: every run must restore from the store; a missing
    /// snapshot aborts instead of silently re-simulating.
    pub resume: bool,
}

/// The optional flags a binary may honour on top of `--scale`, `--quick`
/// and `--threads`, each with its usage text.
const OPTIONAL: [(&str, &str); 3] = [
    ("--trace", " [--trace <dir>]"),
    ("--snapshot-dir", " [--snapshot-dir <dir>]"),
    ("--resume", " [--resume]"),
];

/// The one-line usage string of a binary honouring the optional flags
/// `honoured`, shared by `--help` and parse errors.
pub fn usage(honoured: &[&str]) -> String {
    let optional = OPTIONAL.iter().filter(|(flag, _)| honoured.contains(flag));
    let optional: String = optional.map(|(_, text)| *text).collect();
    format!("usage: [--scale <f>] [--quick] [--threads <n>]{optional}")
}

impl Args {
    /// Parses `std::env::args` for a binary that honours the optional
    /// flags `honoured`, printing a clear error and the binary's usage
    /// line (exit code 2) on malformed input or an optional flag it does
    /// not honour, instead of a panic backtrace or a silent no-op. The
    /// `--trace` directory is created here, before any run starts, so
    /// an unusable path also exits 2 instead of failing after the sweep.
    pub fn parse(honoured: &[&str]) -> Self {
        let usage = usage(honoured);
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        let args = Self::parse_from(honoured, argv.into_iter()).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2)
        });
        if let Some(dir) = &args.trace {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create trace dir {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
        args
    }

    /// Parses an argument list (without the program name) for a binary
    /// that honours the optional flags `honoured`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown or unhonoured flag,
    /// a missing value, or an invalid value — notably `--threads 0`,
    /// which is rejected here rather than silently clamped to 1 deep
    /// inside [`harness::pool::run_ordered`].
    pub fn parse_from(
        honoured: &[&str],
        mut it: impl Iterator<Item = String>,
    ) -> Result<Self, String> {
        let mut args = Args {
            scale: 1.0,
            quick: false,
            threads: harness::pool::default_threads(),
            trace: None,
            snapshot_dir: None,
            resume: false,
        };
        while let Some(a) = it.next() {
            if OPTIONAL.iter().any(|(f, _)| *f == a) && !honoured.contains(&a.as_str()) {
                return Err(format!("this binary does not honour `{a}`"));
            }
            match a.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    args.scale = parse_scale(&v).map_err(|e| e.to_string())?;
                }
                "--quick" => args.quick = true,
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a directory")?;
                    args.trace = Some(std::path::PathBuf::from(v));
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    args.threads = match v.parse::<usize>() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(format!("--threads needs a positive integer, got `{v}`")),
                    };
                }
                "--snapshot-dir" => {
                    let v = it.next().ok_or("--snapshot-dir needs a directory")?;
                    args.snapshot_dir = Some(std::path::PathBuf::from(v));
                }
                "--resume" => args.resume = true,
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
        }
        if args.resume && args.snapshot_dir.is_none() {
            return Err("--resume requires --snapshot-dir".to_owned());
        }
        Ok(args)
    }

    /// Opens the snapshot store named by `--snapshot-dir` (exiting with a
    /// clear error when the directory cannot be created). Tracing and
    /// snapshot restore are mutually exclusive — a restored run performs
    /// no launches, so its trace would be empty; when both are requested
    /// the store is disabled and the runs trace normally.
    pub fn snapshot_store(&self) -> Option<SnapshotStore> {
        let dir = self.snapshot_dir.as_ref()?;
        if self.trace.is_some() {
            eprintln!("[snap] --trace requested; ignoring --snapshot-dir for this run");
            return None;
        }
        match SnapshotStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Scales a default size, with a floor so nothing degenerates.
    pub fn sized(&self, default: usize) -> usize {
        let f = if self.quick {
            self.scale * 0.25
        } else {
            self.scale
        };
        ((default as f64 * f) as usize).max(64)
    }

    /// Starts the sweep every binary funnels its runs through: `name`
    /// names the journal files under `results/`.
    pub fn sweep(&self, name: &str) -> Sweep {
        Sweep::new(name, self.threads)
    }
}

/// A console + CSV report writer.
#[derive(Debug)]
pub struct Report {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a report; `name` becomes `results/<name>.csv`.
    pub fn new(name: &str, title: &str, paper_expectation: &str) -> Self {
        println!("==================================================================");
        println!("{title}");
        println!("paper: {paper_expectation}");
        println!("==================================================================");
        Report {
            name: name.to_owned(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn columns(&mut self, cols: &[&str]) {
        self.columns = cols.iter().map(|s| (*s).to_owned()).collect();
    }

    /// Adds one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the aligned table and writes the CSV.
    pub fn finish(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
                .collect();
            println!("{}", line.join("  "));
        };
        print_row(&self.columns);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            print_row(row);
        }
        // CSV copy.
        let _ = std::fs::create_dir_all("results");
        let mut csv = self.columns.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = format!("results/{}.csv", self.name);
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("(csv written to {path})");
        }
        println!();
    }
}

/// Adapts a finished run into energy-model activity counts.
pub fn activity_of(run: &RunResult) -> ActivityCounts {
    let mut unit_ops = Vec::new();
    let mut warp_buffer_accesses = 0;
    if let Some(a) = &run.accel {
        warp_buffer_accesses = a.engine.warp_buffer_accesses;
        for (name, s) in &a.units {
            if s.invocations > 0 {
                unit_ops.push((name.clone(), s.invocations));
            }
        }
    }
    ActivityCounts {
        cycles: run.stats.cycles,
        core_lane_instructions: run.core_instructions(),
        dram_bytes: run.stats.dram.bytes_read + run.stats.dram.bytes_written,
        warp_buffer_accesses,
        unit_ops,
    }
}

/// The canonical baseline-RTA platform.
pub fn platform_rta() -> workloads::Platform {
    workloads::Platform::BaselineRta(rta::RtaConfig::baseline())
}

/// The canonical TTA platform (paper defaults).
pub fn platform_tta() -> workloads::Platform {
    workloads::Platform::Tta(tta::backend::TtaConfig::default_paper())
}

/// The canonical TTA+ platform with the given μop programs registered.
pub fn platform_ttaplus(programs: Vec<tta::programs::UopProgram>) -> workloads::Platform {
    workloads::Platform::TtaPlus(tta::ttaplus::TtaPlusConfig::default_paper(), programs)
}

/// Formats a ratio as `N.NNx`.
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_applies_scale_and_floor() {
        let a = Args {
            scale: 0.5,
            quick: false,
            threads: 1,
            trace: None,
            snapshot_dir: None,
            resume: false,
        };
        assert_eq!(a.sized(1000), 500);
        assert_eq!(a.sized(10), 64, "floor applies");
        let q = Args {
            scale: 1.0,
            quick: true,
            threads: 1,
            trace: None,
            snapshot_dir: None,
            resume: false,
        };
        assert_eq!(q.sized(1000), 250);
    }

    #[test]
    fn parse_from_rejects_zero_threads_with_clear_error() {
        let all = ["--trace", "--snapshot-dir", "--resume"];
        let parse = |argv: &[&str]| Args::parse_from(&all, argv.iter().map(|s| (*s).to_owned()));
        let err = parse(&["--threads", "0"]).unwrap_err();
        assert!(err.contains("positive integer"), "unhelpful error: {err}");
        assert!(parse(&["--threads", "-2"]).is_err());
        assert!(parse(&["--threads", "four"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        let ok = parse(&["--threads", "3", "--quick", "--scale", "0.5"]).unwrap();
        assert_eq!(ok.threads, 3);
        assert!(ok.quick);
        assert!((ok.scale - 0.5).abs() < 1e-12);
        // An infinite scale never finishes sizing a sweep; the others
        // would silently run it at the 64-element floor.
        for bad in ["inf", "nan", "0", "-1", "x"] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains("finite number above 0"), "{bad}: {err}");
        }
        assert!(ok.trace.is_none(), "tracing is opt-in");
        let tr = parse(&["--trace", "results/tr"]).unwrap();
        assert_eq!(
            tr.trace.as_deref(),
            Some(std::path::Path::new("results/tr"))
        );
        assert!(parse(&["--trace"]).is_err());
        let sn = parse(&["--snapshot-dir", "results/snaps", "--resume"]).unwrap();
        assert_eq!(
            sn.snapshot_dir.as_deref(),
            Some(std::path::Path::new("results/snaps"))
        );
        assert!(sn.resume);
        assert!(parse(&["--snapshot-dir"]).is_err());
        let err = parse(&["--resume"]).unwrap_err();
        assert!(err.contains("--snapshot-dir"), "unhelpful error: {err}");
    }

    #[test]
    fn parse_from_rejects_flags_the_binary_does_not_honour() {
        let parse = |honoured: &[&str], argv: &[&str]| {
            Args::parse_from(honoured, argv.iter().map(|s| (*s).to_owned()))
        };
        for flag in ["--trace", "--snapshot-dir"] {
            let err = parse(&[], &[flag, "d"]).unwrap_err();
            assert!(err.contains(flag), "unhelpful error: {err}");
        }
        assert!(parse(&["--snapshot-dir"], &["--snapshot-dir", "d", "--resume"]).is_err());
        assert!(parse(&["--trace"], &["--trace", "d"]).is_ok());
        assert_eq!(
            usage(&["--trace"]),
            "usage: [--scale <f>] [--quick] [--threads <n>] [--trace <dir>]"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fx(2.0), "2.00x");
        assert_eq!(pct(0.153), "15.3%");
    }
}
