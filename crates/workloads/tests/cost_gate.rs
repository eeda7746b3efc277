//! The static cost-model soundness gate: on every shipped workload and
//! platform, the measured cycle count must fall inside the statically
//! predicted `[lower, upper]` bracket, and the predicted coalescing
//! classes must agree with the simulator's transaction counters.
//!
//! A failure here means `gpu_sim::absint::cost` (or the fact derivation
//! in `workloads::cost`) claims a bound the machine does not honor — the
//! static analyzer is unsound for the simulator it models, which is a
//! bug in the analyzer, never an acceptable regression.
//!
//! The documented tolerance of the model is exactly what this file
//! asserts: containment (never violated) plus a per-row tightness
//! ceiling on `upper / lower` (`RATIO_CEILING`, recorded per workload ×
//! platform class). The ceilings are not aspirational: tightening the
//! model should come with tightening the constants.

use std::sync::Arc;

use gpu_sim::absint::{coalescing, divergence, CycleBounds, LaunchBounds};
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::GpuConfig;
use rta::RtaConfig;
use trace::{ChromeTraceSink, EventKind};
use trees::BTreeFlavor;
use tta::backend::TtaConfig;
use tta::ttaplus::TtaPlusConfig;
use tta_workloads::btree::BTreeExperiment;
use tta_workloads::cost;
use tta_workloads::lumibench::{RtExperiment, RtWorkload};
use tta_workloads::nbody::{NBodyExperiment, PostProcess};
use tta_workloads::rtnn::{LeafPath, RtnnExperiment};
use tta_workloads::rtree::RTreeExperiment;
use tta_workloads::runner::Platform;
use tta_workloads::CacheableExperiment;

/// Per-row tightness ceilings on `upper / lower`. The SIMT rows pay for
/// flat per-thread trip totals multiplied by full warp serialization; the
/// accelerated rows pay for the worst-case shader callback charged to
/// every traversal step. Recorded from the current model; tighten the
/// model, then tighten these.
const SIMT_RATIO_CEILING: f64 = 2e8;
const ACCEL_RATIO_CEILING: f64 = 2e7;
/// RTNN's host oracle exposes no visit counts, so its fact is the
/// whole-tree structural cap — the loosest bracket in the suite.
const STRUCTURAL_RATIO_CEILING: f64 = 2e8;

fn assert_sound(label: &str, bounds: CycleBounds, measured: u64, ceiling: f64) {
    // Visible under --nocapture; the EXPERIMENTS.md predicted-vs-measured
    // table is transcribed from these lines.
    println!(
        "{label}: static [{}, {}], measured {measured}, ratio {:.0}",
        bounds.lower,
        bounds.upper,
        bounds.ratio()
    );
    assert!(
        bounds.brackets(measured),
        "{label}: measured {measured} outside static [{}, {}]",
        bounds.lower,
        bounds.upper
    );
    assert!(bounds.lower >= 1, "{label}: degenerate lower bound");
    assert!(
        bounds.ratio() <= ceiling,
        "{label}: tightness regressed: ratio {:.1} > ceiling {ceiling}",
        bounds.ratio()
    );
}

// ---- containment: 5 workloads x platforms ------------------------------

#[test]
fn btree_measured_cycles_stay_inside_static_bounds() {
    let platforms = [
        ("SIMT", Platform::BaselineGpu, SIMT_RATIO_CEILING),
        (
            "TTA",
            Platform::Tta(TtaConfig::default_paper()),
            ACCEL_RATIO_CEILING,
        ),
        (
            "TTA+",
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                BTreeExperiment::uop_programs(),
            ),
            ACCEL_RATIO_CEILING,
        ),
    ];
    for (name, p, ceiling) in platforms {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 256, p);
        e.gpu = GpuConfig::small_test();
        e.inputs = Some(Arc::new(e.build_inputs()));
        let bounds = cost::predict(&e.session(1));
        let r = e.run();
        assert_sound(&format!("btree/{name}"), bounds, r.stats.cycles, ceiling);
    }
}

#[test]
fn nbody_measured_cycles_stay_inside_static_bounds() {
    let platforms = [
        ("SIMT", Platform::BaselineGpu, SIMT_RATIO_CEILING),
        (
            "TTA",
            Platform::Tta(TtaConfig::default_paper()),
            ACCEL_RATIO_CEILING,
        ),
        (
            "TTA+",
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                NBodyExperiment::uop_programs(),
            ),
            ACCEL_RATIO_CEILING,
        ),
    ];
    // Every launch plan: traversal only, a separate integrate launch, and
    // the merged traverse-integrate kernel.
    for (name, p, ceiling) in platforms {
        for post in [PostProcess::None, PostProcess::Split, PostProcess::Merged] {
            let mut e = NBodyExperiment::new(3, 800, p.clone());
            e.gpu = GpuConfig::small_test();
            e.post = post;
            e.inputs = Some(Arc::new(e.build_inputs()));
            let bounds = cost::predict(&e.session());
            let r = e.run();
            let label = format!("nbody/{name}/{post:?}");
            assert_sound(&label, bounds, r.stats.cycles, ceiling);
        }
    }
}

#[test]
fn rtnn_measured_cycles_stay_inside_static_bounds() {
    let platforms = [
        ("RTA", Platform::BaselineRta(RtaConfig::baseline())),
        (
            "TTA+",
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                RtnnExperiment::uop_programs(),
            ),
        ),
    ];
    for (name, p) in platforms {
        let mut e = RtnnExperiment::new(3000, 128, p, LeafPath::Shader);
        e.gpu = GpuConfig::small_test();
        e.inputs = Some(Arc::new(e.build_inputs()));
        let bounds = cost::predict(&e.session(1));
        let r = e.run();
        assert_sound(
            &format!("rtnn/{name}"),
            bounds,
            r.stats.cycles,
            STRUCTURAL_RATIO_CEILING,
        );
    }
}

#[test]
fn rtree_measured_cycles_stay_inside_static_bounds() {
    let platforms = [
        ("SIMT", Platform::BaselineGpu, SIMT_RATIO_CEILING),
        (
            "TTA",
            Platform::Tta(TtaConfig::default_paper()),
            ACCEL_RATIO_CEILING,
        ),
        (
            "TTA+",
            Platform::TtaPlus(
                TtaPlusConfig::default_paper(),
                RTreeExperiment::uop_programs(),
            ),
            ACCEL_RATIO_CEILING,
        ),
    ];
    for (name, p, ceiling) in platforms {
        let mut e = RTreeExperiment::new(4_000, 256, p);
        e.gpu = GpuConfig::small_test();
        e.inputs = Some(Arc::new(e.build_inputs()));
        let bounds = cost::predict(&e.session(1));
        let r = e.run();
        assert_sound(&format!("rtree/{name}"), bounds, r.stats.cycles, ceiling);
    }
}

#[test]
fn rt_measured_cycles_stay_inside_static_bounds() {
    let platforms = [
        ("RTA", Platform::BaselineRta(RtaConfig::baseline())),
        (
            "TTA+",
            Platform::TtaPlus(TtaPlusConfig::default_paper(), RtExperiment::uop_programs()),
        ),
    ];
    for (name, p) in platforms {
        let mut e = RtExperiment::new(RtWorkload::BlobPt, p);
        e.gpu = GpuConfig::small_test();
        e.width = 32;
        e.height = 24;
        e.detail = 0.05;
        e.inputs = Some(Arc::new(e.build_inputs()));
        let bounds = cost::predict_rt(&e.session());
        let r = e.run();
        assert_sound(
            &format!("rt/{name}"),
            bounds,
            r.stats.cycles,
            ACCEL_RATIO_CEILING,
        );
    }
}

// ---- coalescing: predicted classes vs measured transactions ------------

/// One load per thread at `stride` bytes per tid (0 = broadcast).
fn load_microkernel(name: &str, stride: u32) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let t = k.reg();
    let a = k.reg();
    let v = k.reg();
    k.mov_sreg(t, SReg::ThreadId);
    k.mov_sreg(a, SReg::Param(0));
    if stride > 0 {
        let off = k.reg();
        k.imul_imm(off, t, stride);
        k.iadd(a, a, off);
    }
    k.load(v, a, 0);
    k.iadd(v, v, t); // keep the load live
    k.exit();
    k.build()
}

#[test]
fn microkernel_read_transactions_match_the_static_coalescing_bracket() {
    let cfg = GpuConfig::small_test();
    let threads = 256usize;
    let warps = (threads as u64).div_ceil(u64::from(cfg.warp_width as u32));
    for (stride, expect_class) in [(0u32, "broadcast"), (4, "strided-4"), (32, "strided-32")] {
        let kernel = load_microkernel(&format!("coalesce-probe-{stride}"), stride);
        let report = coalescing(
            &kernel,
            LaunchBounds {
                num_threads: threads as u32,
            },
            &cfg,
        );
        let loads: Vec<_> = report.sites.iter().filter(|s| !s.is_store).collect();
        assert_eq!(loads.len(), 1, "probe has exactly one load");
        let site = loads[0];
        assert_eq!(
            site.class.to_string(),
            expect_class,
            "stride {stride} classified as {}",
            site.class
        );

        let mut gpu = tta_workloads::runner::build_gpu(&cfg, 1 << 20);
        let stats = gpu.launch(&kernel, threads, &[4096]);
        let measured = stats.l1.hits + stats.l1.misses;
        let (lo, hi) = (
            warps * u64::from(site.lines_min),
            warps * u64::from(site.lines_max),
        );
        assert!(
            lo <= measured && measured <= hi,
            "stride {stride}: {measured} read transactions outside static [{lo}, {hi}]"
        );
    }
}

#[test]
fn simt_workload_transactions_stay_inside_the_structural_envelope() {
    // End-to-end cross-check on a real SIMT workload: every lane memory
    // access is one 4-byte request; the coalescer can merge at most a
    // full warp into one transaction and never splits a lane access into
    // more than one read transaction per line it touches (loads) or one
    // line write (stores). So transactions land in
    // [lane_mem_instrs / warp_size, lane_mem_instrs].
    let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 256, Platform::BaselineGpu);
    e.gpu = GpuConfig::small_test();
    let r = e.run();
    let lane_mem = r.stats.mix.memory;
    let reads = r.stats.l1.hits + r.stats.l1.misses;
    assert!(lane_mem > 0 && reads > 0);
    assert!(
        reads <= lane_mem,
        "more read transactions ({reads}) than lane memory accesses ({lane_mem})"
    );
    assert!(
        reads >= lane_mem / u64::from(r.stats.warp_size) / 2,
        "transactions ({reads}) below the perfect-coalescing floor of {lane_mem} lane accesses"
    );
}

// ---- divergence: static verdicts vs trace events -----------------------

#[test]
fn proved_uniform_kernel_emits_no_diverge_events() {
    let kernel = tta_workloads::kernels::nbody_integrate_kernel();
    let rep = divergence(&kernel, LaunchBounds { num_threads: 256 });
    assert!(rep.proved_uniform(), "{:?}", rep.branches);

    let cfg = GpuConfig::small_test();
    let (handle, sink) = ChromeTraceSink::shared();
    let mut gpu = tta_workloads::runner::build_gpu(&cfg, 1 << 20);
    gpu.set_trace(handle);
    gpu.launch(&kernel, 256, &[0, 0, 0, 4096]);
    let diverges = sink
        .borrow()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Instant {
                    name: "diverge",
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        diverges, 0,
        "statically proved-uniform kernel diverged at runtime"
    );
}

#[test]
fn proved_divergent_kernel_does_diverge_at_runtime() {
    // Branch on the raw tid: statically proved divergent, and the trace
    // must confirm at least one warp split.
    let mut k = KernelBuilder::new("tid-branch-probe");
    let t = k.reg();
    k.mov_sreg(t, SReg::ThreadId);
    let tok = k.begin_if_nz(t);
    k.iadd_imm(t, t, 1);
    k.end_if(tok);
    k.exit();
    let kernel = k.build();
    let rep = divergence(&kernel, LaunchBounds { num_threads: 256 });
    assert_eq!(rep.proved_divergent().len(), 1, "{:?}", rep.branches);

    let cfg = GpuConfig::small_test();
    let (handle, sink) = ChromeTraceSink::shared();
    let mut gpu = tta_workloads::runner::build_gpu(&cfg, 1 << 20);
    gpu.set_trace(handle);
    gpu.launch(&kernel, 256, &[]);
    let diverges = sink
        .borrow()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Instant {
                    name: "diverge",
                    ..
                }
            )
        })
        .count();
    assert!(
        diverges >= 1,
        "proved-divergent branch produced no diverge trace events"
    );
}
