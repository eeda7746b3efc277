//! `tta-snap-bisect` — localize a failure to one launch window by
//! replaying a workload session with snapshots at every step boundary.
//!
//! Two failure families motivate this tool:
//!
//! * **Soundness trips.** With `TTA_SHADOW_CHECK=1` / `TTA_RACE_CHECK=1`
//!   (read by the workload runner at GPU construction), a shadow-checker
//!   or race-sanitizer violation aborts the run. A full sweep only says
//!   *that* it tripped; this tool replays the same run step by step,
//!   snapshots before every launch, and reports which step tripped, the
//!   virtual-clock window it started at, and the path of the pre-trip
//!   snapshot — which `--resume <file>` then replays in seconds instead
//!   of re-simulating from cycle zero.
//! * **Restore divergence.** `--diff` checks the snapshot subsystem
//!   itself: it records the straight-line state at every boundary, then
//!   restores each boundary onto a fresh session, runs one step, and
//!   byte-compares against the straight-line state one step later. The
//!   first mismatching boundary localizes a restore bug to one launch.
//!
//! ```text
//! usage: tta-snap-bisect [--workload btree|rtree|rtnn|nbody|rt]
//!                        [--platform simt|rta|tta|ttaplus] [--chunks <n>]
//!                        [--scale <f>] [--snapshot-dir <dir>]
//!                        [--resume <file>] [--diff]
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use gpu_sim::GpuConfig;
use trees::BTreeFlavor;
use tta_snap::{decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, StateBag};
use workloads::btree::BTreeExperiment;
use workloads::lumibench::{RtExperiment, RtWorkload};
use workloads::nbody::NBodyExperiment;
use workloads::rtnn::{LeafPath, RtnnExperiment};
use workloads::rtree::RTreeExperiment;
use workloads::runner::parse_scale;
use workloads::{Platform, RunSession};

const USAGE: &str = "usage: tta-snap-bisect [--workload btree|rtree|rtnn|nbody|rt] \
[--platform simt|rta|tta|ttaplus] [--chunks <n>] [--scale <f>] \
[--snapshot-dir <dir>] [--resume <file>] [--diff]
Set TTA_SHADOW_CHECK=1 / TTA_RACE_CHECK=1 to replay under the soundness checkers.";

struct Opts {
    workload: String,
    platform: String,
    chunks: usize,
    scale: f64,
    snapshot_dir: PathBuf,
    resume: Option<PathBuf>,
    diff: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "btree".to_owned(),
        platform: "tta".to_owned(),
        chunks: 8,
        scale: 1.0,
        snapshot_dir: PathBuf::from("results/bisect"),
        resume: None,
        diff: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            "--workload" => o.workload = val("--workload")?,
            "--platform" => o.platform = val("--platform")?,
            "--chunks" => {
                let v = val("--chunks")?;
                o.chunks = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--chunks needs a positive integer, got `{v}`"))?;
            }
            "--scale" => {
                o.scale = parse_scale(&val("--scale")?).map_err(|e| e.to_string())?;
            }
            "--snapshot-dir" => o.snapshot_dir = PathBuf::from(val("--snapshot-dir")?),
            "--resume" => o.resume = Some(PathBuf::from(val("--resume")?)),
            "--diff" => o.diff = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn platform_for(o: &Opts, programs: Vec<tta::programs::UopProgram>) -> Result<Platform, String> {
    match o.platform.as_str() {
        "simt" => Ok(Platform::BaselineGpu),
        "rta" => Ok(Platform::BaselineRta(rta::RtaConfig::baseline())),
        "tta" => Ok(Platform::Tta(tta::backend::TtaConfig::default_paper())),
        "ttaplus" => Ok(Platform::TtaPlus(
            tta::ttaplus::TtaPlusConfig::default_paper(),
            programs,
        )),
        other => Err(format!("unknown platform `{other}`")),
    }
}

fn make_session(o: &Opts) -> Result<Box<dyn RunSession>, String> {
    let sz = |d: usize| ((d as f64 * o.scale) as usize).max(64);
    match o.workload.as_str() {
        "btree" => {
            let mut e = BTreeExperiment::new(
                BTreeFlavor::BTree,
                sz(8000),
                sz(768),
                platform_for(o, BTreeExperiment::uop_programs())?,
            );
            e.gpu = GpuConfig::small_test();
            Ok(Box::new(e.session(o.chunks)))
        }
        "rtree" => {
            let mut e = RTreeExperiment::new(
                sz(4000),
                sz(256),
                platform_for(o, RTreeExperiment::uop_programs())?,
            );
            e.gpu = GpuConfig::small_test();
            Ok(Box::new(e.session(o.chunks)))
        }
        "rtnn" => {
            if o.platform == "simt" {
                return Err("RTNN has no SIMT baseline; use --platform rta".to_owned());
            }
            let mut e = RtnnExperiment::new(
                sz(4000),
                sz(256),
                platform_for(o, RtnnExperiment::uop_programs())?,
                LeafPath::Shader,
            );
            e.gpu = GpuConfig::small_test();
            Ok(Box::new(e.session(o.chunks)))
        }
        "nbody" => {
            let mut e = NBodyExperiment::new(
                3,
                sz(512),
                platform_for(o, NBodyExperiment::uop_programs())?,
            );
            e.gpu = GpuConfig::small_test();
            Ok(Box::new(e.session()))
        }
        "rt" => {
            let mut e = RtExperiment::new(
                RtWorkload::BlobPt,
                platform_for(o, RtExperiment::uop_programs())?,
            );
            e.gpu = GpuConfig::small_test();
            Ok(Box::new(e.session()))
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The simulator clock inside an exported session bag, for reporting.
fn clock_of(bag: &StateBag) -> u64 {
    bag.entry("gpu")
        .and_then(|g| g.as_bag("gpu")?.entry("clock")?.as_u64("clock"))
        .unwrap_or(0)
}

/// Replays a snapshot file to completion (reproduce-from-snapshot mode).
fn run_resume(o: &Opts, path: &PathBuf) -> Result<ExitCode, String> {
    let bag = read_snapshot(path).map_err(|e| e.to_string())?;
    let mut session = make_session(o)?;
    session
        .import_state(&bag)
        .map_err(|e| format!("snapshot does not fit this session: {e}"))?;
    println!(
        "resumed `{}` at step {} (clock {})",
        session.snapshot_key(),
        session.steps_done(),
        clock_of(&bag)
    );
    while !session.done() {
        let step = session.steps_done();
        session.step();
        println!("  step {step} ok");
    }
    let result = session.finish();
    println!(
        "completed clean: {} ({} cycles)",
        result.label, result.stats.cycles
    );
    Ok(ExitCode::SUCCESS)
}

/// Steps the session to completion, snapshotting before every launch;
/// on a panic (shadow/race trip, any assertion) reports the step, its
/// virtual-clock entry point, and the pre-trip snapshot path.
fn run_trip(o: &Opts) -> Result<ExitCode, String> {
    let mut session = make_session(o)?;
    let key = session.snapshot_key().to_owned();
    println!("replaying `{key}` step by step");
    loop {
        if session.done() {
            let result = session.finish();
            println!(
                "no trip: {} completed clean ({} cycles)",
                result.label, result.stats.cycles
            );
            return Ok(ExitCode::SUCCESS);
        }
        let step = session.steps_done();
        let pre = session.export_state();
        let clock = clock_of(&pre);
        let outcome = catch_unwind(AssertUnwindSafe(|| session.step()));
        if outcome.is_err() {
            std::fs::create_dir_all(&o.snapshot_dir)
                .map_err(|e| format!("creating {}: {e}", o.snapshot_dir.display()))?;
            let path = o.snapshot_dir.join(format!("trip-step{step}.ttasnap"));
            write_snapshot(&path, &pre).map_err(|e| e.to_string())?;
            println!("TRIP in step {step} (virtual clock at step entry: {clock})");
            println!("pre-trip snapshot: {}", path.display());
            println!(
                "reproduce with: tta-snap-bisect --workload {} --platform {} --chunks {} --resume {}",
                o.workload,
                o.platform,
                o.chunks,
                path.display()
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("  step {step} ok (entered at clock {clock})");
    }
}

/// Restore-divergence check: every boundary state, restored onto a fresh
/// session and stepped once, must byte-match the straight-line state one
/// step later.
fn run_diff(o: &Opts) -> Result<ExitCode, String> {
    let mut straight = make_session(o)?;
    let mut boundaries = vec![encode_snapshot(&straight.export_state())];
    while !straight.done() {
        straight.step();
        boundaries.push(encode_snapshot(&straight.export_state()));
    }
    let steps = boundaries.len() - 1;
    println!(
        "straight-line run: {steps} steps, {} snapshot bytes total",
        boundaries.iter().map(Vec::len).sum::<usize>()
    );
    for i in 0..steps {
        let bag = decode_snapshot(&boundaries[i]).map_err(|e| e.to_string())?;
        let mut resumed = make_session(o)?;
        resumed
            .import_state(&bag)
            .map_err(|e| format!("boundary {i} does not restore: {e}"))?;
        resumed.step();
        let got = encode_snapshot(&resumed.export_state());
        if got != boundaries[i + 1] {
            let clock = clock_of(&bag);
            println!(
                "DIVERGENCE: restore at boundary {i} (clock {clock}) + 1 step != straight-line boundary {}",
                i + 1
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("  boundary {i} restores and replays byte-identically");
    }
    println!("no divergence across {steps} boundaries");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(path) = opts.resume.clone() {
        run_resume(&opts, &path)
    } else if opts.diff {
        run_diff(&opts)
    } else {
        run_trip(&opts)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
