//! Shared experiment plumbing: assemble a GPU + accelerators for a chosen
//! platform, run kernels, and harvest the statistics every figure needs.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use gpu_sim::{Gpu, GpuConfig, SimStats};
use rta::engine::{TraversalEngine, TraversalSemantics};
use rta::units::{FixedFunctionBackend, IntersectionBackend, TestKind};
use rta::{AccelReport, RtaConfig};
use trace::{ChromeTraceSink, TraceHandle};
use tta::backend::TtaConfig;
use tta::pipeline::{AcceleratorGen, ConfigError, TraversalPipeline};
use tta::programs::UopProgram;
use tta::ttaplus::{TtaPlusBackend, TtaPlusConfig};

/// Which hardware configuration executes the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Platform {
    /// General-purpose SIMT cores only (the "baseline GPU" of Fig. 12 top).
    BaselineGpu,
    /// Unmodified RTA (baseline for the ray-tracing workloads).
    BaselineRta(RtaConfig),
    /// TTA: modified fixed-function units.
    Tta(TtaConfig),
    /// TTA+: OP units + crossbar, with custom μop programs.
    TtaPlus(TtaPlusConfig, Vec<UopProgram>),
    /// TTA+ reusing the baseline RTA structural config (warp buffer etc.)
    /// with a different engine config — convenience for sweeps. Its
    /// shader fallback stays the baseline RTA's, like `TtaPlus`'s.
    TtaPlusWith(RtaConfig, TtaPlusConfig, Vec<UopProgram>),
}

impl Platform {
    /// Short label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            Platform::BaselineGpu => "BASE",
            Platform::BaselineRta(_) => "RTA",
            Platform::Tta(_) => "TTA",
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..) => "TTA+",
        }
    }

    /// Does this platform attach an accelerator?
    pub fn has_accelerator(&self) -> bool {
        !matches!(self, Platform::BaselineGpu)
    }

    /// The generation the platform's pipelines are built for, `None`
    /// without an accelerator; a TTA+ without SQRT is `TtaPlusNoSqrt`.
    pub fn generation(&self) -> Option<AcceleratorGen> {
        Some(match self {
            Platform::BaselineGpu => return None,
            Platform::BaselineRta(_) => AcceleratorGen::BaselineRta,
            Platform::Tta(_) => AcceleratorGen::Tta,
            Platform::TtaPlus(c, _) | Platform::TtaPlusWith(_, c, _) if !c.with_sqrt => {
                AcceleratorGen::TtaPlusNoSqrt
            }
            Platform::TtaPlus(..) | Platform::TtaPlusWith(..) => AcceleratorGen::TtaPlus,
        })
    }

    /// The (inner, leaf) tests of the pipeline `declare` builds for this
    /// accelerator platform; panics with the [`ConfigError`] text when the
    /// platform cannot run it, and on TTA+ when the registered μop
    /// programs do not start with the pipeline's `programs()`, whose ids
    /// the tests name.
    pub(crate) fn declared_tests(
        &self,
        declare: impl FnOnce(AcceleratorGen) -> Result<TraversalPipeline, ConfigError>,
    ) -> (TestKind, TestKind) {
        let gen = self.generation().expect("an accelerator platform");
        let label = self.label();
        let pipeline =
            declare(gen).unwrap_or_else(|e| panic!("{label} cannot run this workload: {e}"));
        if let Platform::TtaPlus(_, programs) | Platform::TtaPlusWith(_, _, programs) = self {
            let declared = pipeline.programs();
            let names =
                |list: &[UopProgram]| list.iter().map(|p| p.name().to_owned()).collect::<Vec<_>>();
            assert!(
                programs.starts_with(&declared),
                "{label} cannot run this workload: its μop programs {:?} do not start with \
                 pipeline `{}`'s {:?}",
                names(programs),
                pipeline.name(),
                names(&declared),
            );
        }
        pipeline.test_kinds()
    }

    /// The configuration the platform's traversal engine runs under:
    /// `TtaPlus` uses the baseline RTA's. `None` without an accelerator.
    pub(crate) fn engine_config(&self) -> Option<RtaConfig> {
        match self {
            Platform::BaselineGpu => None,
            Platform::BaselineRta(c) | Platform::TtaPlusWith(c, ..) => Some(c.clone()),
            Platform::Tta(c) => Some(c.rta.clone()),
            Platform::TtaPlus(..) => Some(RtaConfig::baseline()),
        }
    }
}

/// A `--scale` workload-size multiplier that is not a finite number
/// above 0; carries the rejected text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError(pub String);

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "--scale needs a finite number above 0, got `{}`", self.0)
    }
}

impl std::error::Error for ScaleError {}

/// Parses a `--scale` workload-size multiplier. An infinite scale would
/// size a sweep without end; a NaN, zero or negative one would silently
/// shrink every size to its floor.
///
/// # Errors
///
/// [`ScaleError`] unless `v` is a finite number above 0.
pub fn parse_scale(v: &str) -> Result<f64, ScaleError> {
    v.parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| ScaleError(v.to_owned()))
}

/// Aggregated metrics of one *online-serving* run (produced by the
/// `tta-serve` crate's virtual-clock engine). This is plain data living
/// here — rather than in `tta-serve` — so [`RunResult`] and the harness
/// journal can carry a serving section without a dependency cycle.
///
/// All cycle quantities are virtual-clock cycles; nothing here is
/// wall-clock, so equal runs serialize byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Batching-policy label (e.g. `size32`, `deadline500`, `cont8w`).
    pub policy: String,
    /// Backend label (e.g. `BASE`, `RTA`, `TTA`, `TTA+`).
    pub backend: String,
    /// Mean inter-arrival time of the offered stream, in cycles.
    pub arrival_mean_cycles: f64,
    /// Queries offered by the arrival stream.
    pub offered: u64,
    /// Queries admitted to the queue (offered − dropped).
    pub admitted: u64,
    /// Queries rejected by backpressure (bounded queue full on arrival).
    pub dropped: u64,
    /// Queries that completed (every admitted query completes).
    pub completed: u64,
    /// Kernel batches launched.
    pub batches: u64,
    /// Median per-query latency (arrival → completion), in cycles.
    pub p50_latency: u64,
    /// 95th-percentile latency, in cycles.
    pub p95_latency: u64,
    /// 99th-percentile latency, in cycles.
    pub p99_latency: u64,
    /// Worst-case latency, in cycles.
    pub max_latency: u64,
    /// Completed queries per 1000 virtual cycles of makespan.
    pub throughput_qpkc: f64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: u64,
    /// Virtual cycle at which the last query completed.
    pub makespan_cycles: u64,
    /// Device-free cycles spent with queries waiting in the queue.
    pub queue_wait_cycles: u64,
    /// Device-free cycles spent with an empty queue.
    pub idle_cycles: u64,
    /// Virtual cycle at which the device last went quiet; launch cycles +
    /// `queue_wait_cycles` + `idle_cycles` always sum to this.
    pub horizon_cycles: u64,
}

/// Per-device totals of one fleet serving run — one row per simulated
/// device in the journal's schema-v4 `"fleet"` section. The three cycle
/// buckets partition the cluster horizon on every device:
/// `busy + queue_wait + idle == horizon_cycles`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetDeviceSummary {
    /// Device index within the fleet.
    pub device: u64,
    /// Kernel batches this device launched.
    pub batches: u64,
    /// Queries this device completed.
    pub completed: u64,
    /// Queries dropped at this device's bounded queue.
    pub dropped: u64,
    /// Cycles the device spent executing batches (including shard-miss
    /// and cold-start overheads charged to its launches).
    pub busy_cycles: u64,
    /// Device-free cycles with queries waiting for the policy to trigger.
    pub queue_wait_cycles: u64,
    /// Device-free cycles with an empty queue (or while cold).
    pub idle_cycles: u64,
    /// Deepest this device's queue ever got.
    pub max_queue_depth: u64,
    /// Queries served by this device whose shard was not resident.
    pub shard_misses: u64,
    /// Warm-up transitions this device paid the cold-start penalty for.
    pub cold_starts: u64,
}

/// Per-SLO-class totals of one fleet serving run — one row per priority
/// class in the journal's schema-v4 `"fleet"` section. Conservation:
/// `completed + dropped == offered` for every class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetClassSummary {
    /// Class label (e.g. `interactive`, `batch`).
    pub class: String,
    /// The class's latency SLO, in cycles.
    pub deadline_cycles: u64,
    /// Queries of this class the stream offered.
    pub offered: u64,
    /// Queries of this class that completed.
    pub completed: u64,
    /// Queries of this class dropped by admission control.
    pub dropped: u64,
    /// Completed queries whose latency exceeded the class deadline.
    pub slo_misses: u64,
    /// Median latency of the class's completed queries (nearest-rank).
    pub p50_latency: u64,
    /// 99th-percentile latency (nearest-rank; the max sample when the
    /// class completed fewer than 100 queries).
    pub p99_latency: u64,
    /// Worst-case latency of the class.
    pub max_latency: u64,
}

/// Cluster-wide metrics of one fleet serving run: the journal's schema-v4
/// `"fleet"` section, produced by `tta-fleet` and serialized by the
/// harness with the same stable-field-order determinism contract as
/// [`ServeSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Router-policy label (`rr`, `jsq`, `p2c`, `locality`).
    pub router: String,
    /// Backend label (e.g. `BASE`, `TTA`, `TTA+`).
    pub backend: String,
    /// Batching-policy label (per device).
    pub policy: String,
    /// Simulated devices in the fleet.
    pub devices: u64,
    /// Tree shards the query universe is partitioned into.
    pub shards: u64,
    /// Devices holding a replica of each shard.
    pub replication: u64,
    /// Per-query penalty (cycles) for serving a non-resident shard.
    pub shard_miss_penalty: u64,
    /// Mean inter-arrival time of the offered stream, in cycles.
    pub arrival_mean_cycles: f64,
    /// Queries offered by the arrival stream.
    pub offered: u64,
    /// Queries admitted past admission control (offered − dropped).
    pub admitted: u64,
    /// Queries dropped (admission control + bounded device queues).
    pub dropped: u64,
    /// Queries completed across all devices.
    pub completed: u64,
    /// Kernel batches launched across all devices.
    pub batches: u64,
    /// Median cluster latency, in cycles (nearest-rank).
    pub p50_latency: u64,
    /// 95th-percentile cluster latency, in cycles.
    pub p95_latency: u64,
    /// 99th-percentile cluster latency, in cycles.
    pub p99_latency: u64,
    /// Worst-case cluster latency, in cycles.
    pub max_latency: u64,
    /// Completed queries per 1000 virtual cycles of makespan.
    pub throughput_qpkc: f64,
    /// Completed queries that missed their class deadline.
    pub slo_misses: u64,
    /// Queries served by a device holding their shard.
    pub shard_hits: u64,
    /// Queries served by a device *not* holding their shard.
    pub shard_misses: u64,
    /// Cold-start transitions paid by the autoscaler.
    pub cold_starts: u64,
    /// Virtual cycle at which the last query completed.
    pub makespan_cycles: u64,
    /// Cluster horizon: every device's `busy + queue_wait + idle` equals
    /// this, so the cluster-wide sum is `devices × horizon_cycles`.
    pub horizon_cycles: u64,
    /// One row per device, in device order.
    pub per_device: Vec<FleetDeviceSummary>,
    /// One row per SLO class, in class order.
    pub per_class: Vec<FleetClassSummary>,
}

// The journal's field lists, in journal order.
trace::json_fields! {
    ServeSummary {
        policy, backend, arrival_mean_cycles, offered, admitted, dropped, completed, batches,
        p50_latency, p95_latency, p99_latency, max_latency, throughput_qpkc, max_queue_depth,
        makespan_cycles, queue_wait_cycles, idle_cycles, horizon_cycles,
    };
    FleetDeviceSummary {
        device, batches, completed, dropped, busy_cycles, queue_wait_cycles, idle_cycles,
        max_queue_depth, shard_misses, cold_starts,
    };
    FleetClassSummary {
        class, deadline_cycles, offered, completed, dropped, slo_misses, p50_latency,
        p99_latency, max_latency,
    };
    FleetSummary {
        router, backend, policy, devices, shards, replication, shard_miss_penalty,
        arrival_mean_cycles, offered, admitted, dropped, completed, batches, p50_latency,
        p95_latency, p99_latency, max_latency, throughput_qpkc, slo_misses, shard_hits,
        shard_misses, cold_starts, makespan_cycles, horizon_cycles, per_device, per_class,
    };
}

/// The outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Human-readable configuration label.
    pub label: String,
    /// SIMT-core / memory statistics of the launch(es), summed.
    pub stats: SimStats,
    /// Accelerator report (None for the pure-SIMT baseline).
    pub accel: Option<AccelReport>,
    /// Serving metrics (None for the closed-batch figure experiments;
    /// filled by `tta-serve` runs).
    pub serve: Option<ServeSummary>,
    /// Fleet (multi-device) serving metrics (None everywhere except
    /// `tta-fleet` runs).
    pub fleet: Option<FleetSummary>,
}

impl RunResult {
    /// End-to-end cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Speedup of this run relative to `baseline`. [`f64::NAN`] when the
    /// baseline executed zero cycles (same contract as
    /// [`SimStats::speedup_over`]).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        self.stats.speedup_over(&baseline.stats)
    }

    /// Total dynamic lane-instructions executed on the general-purpose
    /// cores, including intersection-shader callbacks (Fig. 20's
    /// "compute" portion).
    pub fn core_instructions(&self) -> u64 {
        let shader = self
            .accel
            .as_ref()
            .map_or(0, |a| a.shader_lane_instructions);
        self.stats.mix.total() - self.stats.mix.traverse + shader
    }
}

/// Builds the simulated GPU for an experiment. When the
/// `TTA_SHADOW_CHECK` environment variable is set to `1`, every launch is
/// shadow-checked against the abstract interpreter (the CI soundness
/// gate): a register value or SIMT stack depth escaping its static
/// abstraction aborts the run. When `TTA_RACE_CHECK` is set to `1`, every
/// launch additionally runs the dynamic race sanitizer: a cross-warp
/// write-write or read-write conflict on global memory aborts the run —
/// the runtime gate behind the static race-freedom proofs.
pub fn build_gpu(cfg: &GpuConfig, mem_bytes: usize) -> Gpu {
    let mut gpu = Gpu::new(cfg.clone(), mem_bytes);
    if std::env::var("TTA_SHADOW_CHECK").is_ok_and(|v| v == "1") {
        gpu.enable_shadow_check();
    }
    if std::env::var("TTA_RACE_CHECK").is_ok_and(|v| v == "1") {
        gpu.enable_race_check();
    }
    gpu
}

/// Builds the (handle, sink) pair for an experiment run: a live Chrome
/// sink when a `--trace` directory was requested, a disabled handle (zero
/// overhead) otherwise.
pub fn trace_pair(dir: Option<&Path>) -> (TraceHandle, Option<Rc<RefCell<ChromeTraceSink>>>) {
    match dir {
        Some(_) => {
            let (handle, sink) = ChromeTraceSink::shared();
            (handle, Some(sink))
        }
        None => (TraceHandle::default(), None),
    }
}

/// Writes a finished run's events to `<dir>/<slug(label)>.trace.json`
/// (creating `dir` as needed).
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_trace(dir: &Path, label: &str, sink: &RefCell<ChromeTraceSink>) {
    let path = dir.join(trace::file_name_for_label(label));
    sink.borrow()
        .write_to(&path)
        .unwrap_or_else(|e| panic!("writing trace {} failed: {e}", path.display()));
}

/// Attaches accelerators for `platform`. `make_semantics` is invoked once
/// per SM and returns the pipeline list (pipeline id = index).
pub fn attach_platform<F>(gpu: &mut Gpu, platform: &Platform, make_semantics: F)
where
    F: Fn() -> Vec<Box<dyn TraversalSemantics>>,
{
    let Some(engine) = platform.engine_config() else {
        return;
    };
    let platform = platform.clone();
    gpu.attach_accelerators(move |_| {
        let backend: Box<dyn IntersectionBackend> = match &platform {
            Platform::Tta(c) => Box::new(c.backend()),
            Platform::TtaPlus(plus, programs) | Platform::TtaPlusWith(_, plus, programs) => {
                Box::new(TtaPlusBackend::new(plus.clone(), programs.clone()))
            }
            _ => Box::new(FixedFunctionBackend::new(&engine)),
        };
        Box::new(TraversalEngine::new(
            engine.clone(),
            backend,
            make_semantics(),
        ))
    });
}

/// Sums the stats of several sequential launches into one.
pub fn sum_stats(parts: &[SimStats]) -> SimStats {
    let mut total = SimStats::default();
    for s in parts {
        // Launches are sequential: rebase this part's per-warp completion
        // cycles onto the end of the preceding parts before appending.
        let offset = total.cycles;
        total
            .warp_completions
            .extend(s.warp_completions.iter().map(|c| c + offset));
        total.warp_size = s.warp_size;
        total.cycles += s.cycles;
        total.warp_instrs += s.warp_instrs;
        total.lane_instrs += s.lane_instrs;
        total.mix.alu += s.mix.alu;
        total.mix.control += s.mix.control;
        total.mix.memory += s.mix.memory;
        total.mix.traverse += s.mix.traverse;
        total.flops += s.flops;
        total.l1.absorb(&s.l1);
        total.l2.absorb(&s.l2);
        total.dram.absorb(&s.dram);
        total.dram_channels = s.dram_channels;
        total.traversals_offloaded += s.traversals_offloaded;
        total.sm_active_cycles += s.sm_active_cycles;
        total.attribution.merge(&s.attribution);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimStats;

    #[test]
    fn platform_labels_and_accelerator_flags() {
        assert_eq!(Platform::BaselineGpu.label(), "BASE");
        assert!(!Platform::BaselineGpu.has_accelerator());
        assert_eq!(Platform::BaselineRta(RtaConfig::baseline()).label(), "RTA");
        assert_eq!(Platform::Tta(TtaConfig::default_paper()).label(), "TTA");
        let plus = Platform::TtaPlus(TtaPlusConfig::default_paper(), vec![]);
        assert_eq!(plus.label(), "TTA+");
        assert!(plus.has_accelerator());
    }

    #[test]
    fn sum_stats_adds_fields() {
        let mut a = SimStats {
            cycles: 10,
            warp_instrs: 5,
            lane_instrs: 100,
            ..Default::default()
        };
        a.mix.alu = 70;
        a.dram.bytes_read = 1000;
        let mut b = SimStats {
            cycles: 20,
            warp_instrs: 7,
            lane_instrs: 150,
            ..Default::default()
        };
        b.mix.alu = 90;
        b.dram.bytes_read = 500;
        let s = sum_stats(&[a, b]);
        assert_eq!(s.cycles, 30);
        assert_eq!(s.warp_instrs, 12);
        assert_eq!(s.lane_instrs, 250);
        assert_eq!(s.mix.alu, 160);
        assert_eq!(s.dram.bytes_read, 1500);
    }

    #[test]
    fn sum_stats_rebases_warp_completions_onto_prior_launches() {
        let a = SimStats {
            cycles: 100,
            warp_completions: vec![40, 90],
            ..Default::default()
        };
        let b = SimStats {
            cycles: 50,
            warp_completions: vec![30],
            ..Default::default()
        };
        let s = sum_stats(&[a, b]);
        // Launch 2 starts after launch 1's 100 cycles.
        assert_eq!(s.warp_completions, vec![40, 90, 130]);
    }

    #[test]
    fn sum_stats_memory_counters_equal_the_delta_over_all_launches() {
        // Three bursts of reads and writes from two SMs stand in for three
        // launches, each reporting its `since` delta like `Gpu::launch`.
        let cfg = GpuConfig::small_test();
        let mut mem = gpu_sim::MemorySystem::new(&cfg.mem, 2, false);
        let reading = |m: &gpu_sim::MemorySystem| (m.l1_stats, m.l2_stats, m.dram_stats.clone());
        let start = reading(&mem);
        let mut before = start.clone();
        let mut parts = Vec::new();
        for launch in 0..3u64 {
            let now = launch * 10_000;
            for i in 0..96u64 {
                let addr = (i % 40 + launch * 16) * 128;
                let _ = mem.read((i / 3 % 2) as usize, addr, 64, now + i / 4);
                if i % 8 == 0 {
                    let _ = mem.write(0, addr, 4 * (i % 5 + 1) as u32, now + i);
                }
            }
            let after = reading(&mem);
            parts.push(SimStats {
                l1: after.0.since(&before.0),
                l2: after.1.since(&before.1),
                dram: after.2.since(&before.2),
                ..Default::default()
            });
            before = after;
        }
        let total = sum_stats(&parts);
        let l1 = before.0.since(&start.0);
        let dram = before.2.since(&start.2);
        assert_eq!(total.l1, l1);
        assert_eq!(total.l2, before.1.since(&start.1));
        assert_eq!(total.dram, dram);
        // Every counter moved, so dropping one from `absorb` fails above.
        assert!(l1.hits > 0 && l1.misses > 0 && l1.mshr_merges > 0);
        assert!(total.l2.hits > 0 && total.l2.misses > 0 && total.l2.mshr_merges > 0);
        assert!(dram.bytes_read > 0 && dram.bytes_written > 0 && dram.bytes_requested > 0);
        assert!(dram.busy_channel_cycles > 0.0 && dram.transactions > 0);
    }

    #[test]
    fn run_result_core_instructions_exclude_traverse_include_shader() {
        let mut stats = SimStats::default();
        stats.mix.alu = 100;
        stats.mix.traverse = 10;
        let accel = AccelReport {
            shader_lane_instructions: 40,
            ..Default::default()
        };
        let r = RunResult {
            label: "x".into(),
            stats,
            accel: Some(accel),
            serve: None,
            fleet: None,
        };
        assert_eq!(r.core_instructions(), 100 + 40);
    }
}
