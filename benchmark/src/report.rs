//! Turns measured repetitions into metrics, the result line and the
//! Chrome trace.
//!
//! Host times are medians over repetitions, each repetition's times
//! scaled by its reference-loop speed factor ([`Rep::speed`]). A time is
//! reported only for a layer every workload reaches. Layers that only
//! some workloads reach (one platform's launches, the snapshot round
//! trip, the fleet loop) are reported as shares of the measured phase, so
//! a workload that never reaches one reads 0 rather than a time of 0.

use crate::drive::{Rep, Span};
use crate::Measurement;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Value; always finite.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        // `+ 0.0` turns the -0.0 that an empty float sum yields into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
    }
}

/// Median of `values` (0 for an empty list).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 for an empty list).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Host ns of `rep`'s spans matching `pred`, scaled to the nominal
/// reference speed.
fn host_ns(rep: &Rep, pred: impl Fn(&Span) -> bool) -> f64 {
    let ns: f64 = rep
        .spans
        .iter()
        .filter(|s| pred(s))
        .map(|s| s.ns() as f64)
        .sum();
    ns * rep.speed
}

fn named(name: &'static str) -> impl Fn(&Span) -> bool {
    move |s| s.name == name
}

fn is_launch(s: &Span) -> bool {
    s.name.starts_with("gpu_sim.launch.") || s.name == "serve.run_batch"
}

/// Host ns of one repetition's measured phase: its runs and its journal.
fn measured_ns(rep: &Rep) -> f64 {
    host_ns(rep, |s| {
        s.depth == 0 && (s.name == "run" || s.name == "harness.journal")
    })
}

/// Simulated totals of one repetition; identical on every repetition and
/// under any host-only change.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    cycles: u64,
    warp_instrs: u64,
    l1_hits: u64,
    l1_accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    dram_bytes: u64,
    nodes: u64,
    node_fetches: u64,
    fetch_merges: u64,
    rays: u64,
    unit_ops: u64,
    program_runs: u64,
    batches: u64,
    fleet_completed: u64,
    fleet_p99: u64,
    shard_misses: u64,
}

impl Totals {
    /// Sums the simulated statistics of a repetition's results.
    pub(crate) fn of(results: &[workloads::RunResult]) -> Totals {
        let mut t = Totals::default();
        for r in results {
            let s = &r.stats;
            t.cycles += s.cycles;
            t.warp_instrs += s.warp_instrs;
            t.l1_hits += s.l1.hits;
            t.l1_accesses += s.l1.hits + s.l1.misses;
            t.l2_hits += s.l2.hits;
            t.l2_accesses += s.l2.hits + s.l2.misses;
            t.dram_bytes += s.dram.bytes_read + s.dram.bytes_written;
            if let Some(a) = &r.accel {
                t.nodes += a.engine.nodes_processed;
                t.node_fetches += a.engine.node_fetches;
                t.fetch_merges += a.engine.fetch_merges;
                t.rays += a.engine.rays_completed;
                t.unit_ops += a.units.iter().map(|(_, u)| u.invocations).sum::<u64>();
                t.program_runs += a.programs.iter().map(|(_, p)| p.invocations).sum::<u64>();
            }
            if let Some(f) = &r.fleet {
                t.batches += f.batches;
                t.fleet_completed += f.completed;
                t.fleet_p99 = t.fleet_p99.max(f.p99_latency);
                t.shard_misses += f.shard_misses;
            }
        }
        t
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics, from the repetitions without detail spans.
pub fn end_to_end(m: &Measurement, peak_rss_mb: f64) -> Vec<Metric> {
    let plain: Vec<&Rep> = m.reps.iter().filter(|r| !r.detailed).collect();
    let runs = plain.first().map_or(0, |r| r.run_ns.len());
    let run_medians: f64 = (0..runs)
        .map(|i| {
            let ns: Vec<f64> = plain
                .iter()
                .filter_map(|r| r.run_ns[i].map(|n| n as f64 * r.speed))
                .collect();
            median(&ns)
        })
        .sum();
    let journal: Vec<f64> = plain
        .iter()
        .map(|r| host_ns(r, named("harness.journal")))
        .collect();
    let wall_s = (run_medians + median(&journal)) / 1e9;
    let setup: Vec<f64> = plain
        .iter()
        .map(|r| host_ns(r, |s| s.name == "trees.build" || s.name == "workloads.open"))
        .collect();
    vec![
        metric("wall_s", "s", wall_s),
        metric("queries_per_s", "1/s", m.queries as f64 / wall_s),
        metric("setup_s", "s", median(&setup) / 1e9),
        metric("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// The per-layer metrics, from the repetitions with detail spans.
pub fn per_layer(m: &Measurement) -> Vec<Metric> {
    let detailed: Vec<&Rep> = m.reps.iter().filter(|r| r.detailed).collect();
    let plain: Vec<&Rep> = m.reps.iter().filter(|r| !r.detailed).collect();
    let t = &m.totals;

    // Median over the detailed repetitions of a per-repetition value.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(&detailed.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let secs = |name: &'static str| per_rep(&|r| host_ns(r, named(name)) / 1e9);
    let share = |pred: &dyn Fn(&Span) -> bool| per_rep(&|r| host_ns(r, pred) / measured_ns(r));
    let snap_rate = |name: &'static str| {
        per_rep(&|r| r.snap_bytes as f64 / 1e6 / (host_ns(r, named(name)) / 1e9))
    };
    let launch_us: Vec<f64> = detailed
        .iter()
        .flat_map(|r| {
            r.spans
                .iter()
                .filter(|s| is_launch(s))
                .map(|s| s.ns() as f64 * r.speed / 1e3)
        })
        .collect();
    let wall = |reps: &[&Rep]| median(&reps.iter().map(|r| measured_ns(r)).collect::<Vec<_>>());

    vec![
        metric("trees.build_s", "s", secs("trees.build")),
        metric("workloads.open_s", "s", secs("workloads.open")),
        metric(
            "gpu_sim.launch_s",
            "s",
            per_rep(&|r| host_ns(r, is_launch) / 1e9),
        ),
        metric("workloads.finish_s", "s", secs("workloads.finish")),
        metric("harness.journal_s", "s", secs("harness.journal")),
        metric("gpu_sim.launch_p50_us", "us", percentile(&launch_us, 50.0)),
        metric("gpu_sim.launch_p99_us", "us", percentile(&launch_us, 99.0)),
        metric(
            "rta.ns_per_node",
            "ns",
            per_rep(&|r| {
                host_ns(r, |s| is_launch(s) && s.name != "gpu_sim.launch.base") / t.nodes as f64
            }),
        ),
        metric(
            "share.launch.base",
            "frac",
            share(&named("gpu_sim.launch.base")),
        ),
        metric(
            "share.launch.rta",
            "frac",
            share(&named("gpu_sim.launch.rta")),
        ),
        metric(
            "share.launch.tta",
            "frac",
            share(&named("gpu_sim.launch.tta")),
        ),
        metric(
            "share.launch.ttaplus",
            "frac",
            share(&named("gpu_sim.launch.ttaplus")),
        ),
        metric(
            "share.serve.run_batch",
            "frac",
            share(&named("serve.run_batch")),
        ),
        metric(
            "share.fleet.loop",
            "frac",
            per_rep(&|r| {
                (host_ns(r, named("fleet.run_fleet")) - host_ns(r, named("serve.run_batch")))
                    / measured_ns(r)
            }),
        ),
        metric(
            "share.snap",
            "frac",
            share(&|s| s.name.starts_with("snap.")),
        ),
        metric("share.finish", "frac", share(&named("workloads.finish"))),
        metric("share.journal", "frac", share(&named("harness.journal"))),
        metric(
            "snap.mb",
            "MB",
            detailed.first().map_or(0.0, |r| r.snap_bytes as f64 / 1e6),
        ),
        metric("snap.export_mb_per_s", "MB/s", snap_rate("snap.export")),
        metric("snap.encode_mb_per_s", "MB/s", snap_rate("snap.encode")),
        metric("snap.decode_mb_per_s", "MB/s", snap_rate("snap.decode")),
        metric("snap.import_mb_per_s", "MB/s", snap_rate("snap.import")),
        metric(
            "bench.span_coverage",
            "frac",
            share(&|s| s.depth == 1 || s.name == "harness.journal"),
        ),
        metric(
            "bench.trace_overhead_frac",
            "frac",
            wall(&detailed) / wall(&plain) - 1.0,
        ),
        metric("gpu_sim.launches", "count", m.launches as f64),
        metric("gpu_sim.sim_cycles", "cycles", t.cycles as f64),
        metric(
            "gpu_sim.sim_cycles_per_s",
            "cycles/s",
            t.cycles as f64 / (wall(&detailed) / 1e9),
        ),
        metric("gpu_sim.warp_instrs", "count", t.warp_instrs as f64),
        metric("gpu_sim.mem.l1_accesses", "count", t.l1_accesses as f64),
        metric(
            "gpu_sim.mem.l1_hit_rate",
            "frac",
            ratio(t.l1_hits, t.l1_accesses),
        ),
        metric(
            "gpu_sim.mem.l2_hit_rate",
            "frac",
            ratio(t.l2_hits, t.l2_accesses),
        ),
        metric("gpu_sim.mem.dram_mb", "MB", t.dram_bytes as f64 / 1e6),
        metric("rta.nodes_processed", "count", t.nodes as f64),
        metric("rta.node_fetches", "count", t.node_fetches as f64),
        metric(
            "rta.fetch_merge_frac",
            "frac",
            ratio(t.fetch_merges, t.node_fetches + t.fetch_merges),
        ),
        metric("rta.rays_completed", "count", t.rays as f64),
        metric("tta.unit_ops", "count", t.unit_ops as f64),
        metric("tta.program_runs", "count", t.program_runs as f64),
        metric("serve.batches", "count", t.batches as f64),
        metric(
            "serve.queries_per_batch",
            "count",
            ratio(t.fleet_completed, t.batches),
        ),
        metric("fleet.p99_cycles", "cycles", t.fleet_p99 as f64),
        metric("fleet.shard_misses", "count", t.shard_misses as f64),
    ]
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One repetition's spans as a Chrome `trace_event` document: host time
/// in integer µs, one `run` span per run with its calls nested inside.
/// Span names are fixed identifiers, so nothing needs escaping.
pub fn chrome_json(workload: &str, rep: &Rep) -> String {
    let mut lines = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"tta-benchmark {workload}\"}}}}"
    )];
    for s in &rep.spans {
        // Flooring both ends keeps nesting: a child's floored interval
        // stays inside its parent's.
        let (ts, end) = (s.start / 1000, s.end / 1000);
        lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":1,\"tid\":1}}",
            s.name,
            end - ts
        ));
    }
    format!(
        "{{\"schema\":\"tta-trace-v1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
