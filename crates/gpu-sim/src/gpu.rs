//! Top-level GPU: SMs + memory system + per-SM accelerators, with an
//! event-skipping simulation loop.

use crate::accel::{AccelCtx, Accelerator};
use crate::config::GpuConfig;
use crate::kernel::Kernel;
use crate::mem::{GlobalMemory, MemorySystem};
use crate::simt::Warp;
use crate::sm::Sm;
use crate::stats::SimStats;
use trace::{Bucket, TraceHandle, Track};

/// A simulated GPU.
///
/// # Examples
///
/// ```
/// use tta_gpu_sim::{Gpu, GpuConfig};
/// use tta_gpu_sim::kernel::KernelBuilder;
/// use tta_gpu_sim::isa::SReg;
///
/// // Kernel: out[tid] = tid * 2
/// let mut k = KernelBuilder::new("double");
/// let tid = k.reg();
/// let out = k.reg();
/// let v = k.reg();
/// k.mov_sreg(tid, SReg::ThreadId);
/// k.mov_sreg(out, SReg::Param(0));
/// let t = k.reg();
/// k.shl_imm(t, tid, 2);
/// k.iadd(out, out, t);
/// k.shl_imm(v, tid, 1);
/// k.store(v, out, 0);
/// k.exit();
/// let kernel = k.build();
///
/// let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
/// let buf = gpu.gmem.alloc(4 * 64, 64);
/// let stats = gpu.launch(&kernel, 64, &[buf as u32]);
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.gmem.read_u32(buf + 4 * 10), 20);
/// ```
#[derive(Debug)]
pub struct Gpu {
    /// Configuration (Table II by default).
    pub cfg: GpuConfig,
    /// Functional global memory.
    pub gmem: GlobalMemory,
    mem: MemorySystem,
    sms: Vec<Sm>,
    accels: Vec<Option<Box<dyn Accelerator>>>,
    /// Per SM, whether `launch` still visits its accelerator: attached,
    /// and with work left after its last tick or a request since.
    accel_live: Vec<bool>,
    clock: u64,
    trace: TraceHandle,
    /// Fig. 17 "Perf. RT" limit: accelerator node fetches are free.
    pub perfect_node_fetch: bool,
    shadow_enabled: bool,
    shadow_value_checks: u64,
    shadow_stack_checks: u64,
    race: Option<crate::race::RaceSanitizer>,
}

impl Gpu {
    /// Creates a GPU with `mem_capacity` bytes of global memory.
    pub fn new(cfg: GpuConfig, mem_capacity: usize) -> Self {
        cfg.validate();
        let mem = MemorySystem::new(&cfg.mem, cfg.num_sms, cfg.perfect_memory);
        let sms = (0..cfg.num_sms)
            .map(|i| Sm::new(i, cfg.max_warps_per_sm))
            .collect();
        let accels = (0..cfg.num_sms).map(|_| None).collect();
        let accel_live = vec![false; cfg.num_sms];
        Gpu {
            cfg,
            gmem: GlobalMemory::new(mem_capacity),
            mem,
            sms,
            accels,
            accel_live,
            clock: 0,
            trace: TraceHandle::default(),
            perfect_node_fetch: false,
            shadow_enabled: false,
            shadow_value_checks: 0,
            shadow_stack_checks: 0,
            race: None,
        }
    }

    /// Enables the abstract-interpretation soundness gate: every launch
    /// first analyzes its kernel ([`crate::absint::analyze`]) and then
    /// shadow-checks each instruction issue against the static
    /// abstraction, panicking when a register value or SIMT-stack depth
    /// escapes it. Intended for tests and CI (it roughly doubles
    /// simulation cost).
    pub fn enable_shadow_check(&mut self) {
        self.shadow_enabled = true;
    }

    /// Cumulative (per-lane value, per-issue stack) shadow checks
    /// performed across all launches since construction.
    pub fn shadow_checks(&self) -> (u64, u64) {
        (self.shadow_value_checks, self.shadow_stack_checks)
    }

    /// Enables the dynamic race sanitizer ([`crate::race::RaceSanitizer`]):
    /// every lane's global-memory `Load`/`Store` is recorded in a
    /// per-word last-accessor table (reset at each launch boundary), and
    /// a cross-warp write-write or read-write conflict panics with both
    /// accessors attributed. Bookkeeping only — statistics and journals
    /// are unaffected.
    pub fn enable_race_check(&mut self) {
        self.race = Some(crate::race::RaceSanitizer::new());
    }

    /// Cumulative sanitizer access checks performed across all launches
    /// since the race check was enabled (0 when disabled).
    pub fn race_checks(&self) -> u64 {
        self.race.as_ref().map_or(0, |r| r.checks())
    }

    /// Attaches one accelerator per SM, built by `make(sm_id)`.
    pub fn attach_accelerators<F>(&mut self, make: F)
    where
        F: Fn(usize) -> Box<dyn Accelerator>,
    {
        for i in 0..self.cfg.num_sms {
            let mut acc = make(i);
            if self.trace.enabled() {
                acc.set_trace(self.trace.clone());
            }
            self.accels[i] = Some(acc);
        }
    }

    /// Installs a trace handle, propagating it to the memory system and to
    /// every attached accelerator (accelerators attached later inherit it).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace.clone();
        self.mem.set_trace(trace.clone());
        for acc in self.accels.iter_mut().flatten() {
            acc.set_trace(trace.clone());
        }
    }

    /// Current global cycle (persists across launches so cache and DRAM
    /// state stay warm, like consecutive kernels on a real GPU).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Runs `kernel` over `num_threads` threads and returns the statistics
    /// of this launch (cycles, instruction mix, cache/DRAM deltas).
    ///
    /// # Panics
    ///
    /// Panics if the kernel executes `Traverse` with no accelerator
    /// attached, or if simulation exceeds an internal watchdog limit
    /// (indicating a hung kernel).
    pub fn launch(&mut self, kernel: &Kernel, num_threads: usize, params: &[u32]) -> SimStats {
        assert!(num_threads > 0, "launch requires at least one thread");
        let start_cycle = self.clock;
        let l1_before = self.mem.l1_stats;
        let l2_before = self.mem.l2_stats;
        let dram_before = self.mem.dram_stats.clone();

        let mut stats = SimStats {
            warp_size: self.cfg.warp_width as u32,
            dram_channels: self.cfg.mem.dram_channels,
            ..Default::default()
        };

        // Soundness gate: build the static abstraction for this launch and
        // shadow-check every issue against it.
        let mut shadow = self.shadow_enabled.then(|| {
            crate::absint::ShadowChecker::new(
                kernel,
                crate::absint::LaunchBounds {
                    num_threads: num_threads as u32,
                },
                params,
            )
        });

        // Launch boundaries synchronize: reset the sanitizer's history.
        if let Some(rs) = &mut self.race {
            rs.begin_launch(&kernel.name);
        }

        // Pre-decode once: the per-cycle issue loop reads operand lists,
        // destinations, and classes from this side table instead of
        // re-matching on `Instr` every scoreboard check.
        let decoded = kernel.decode();

        // Pending warp descriptors: (base_tid, lanes).
        let warp_width = self.cfg.warp_width;
        let num_warps = num_threads.div_ceil(warp_width);
        let mut next_warp = 0usize;
        let warp_desc = |i: usize| {
            let base = i * warp_width;
            let lanes = warp_width.min(num_threads - base);
            (base as u32, lanes)
        };

        // Only live units are visited (DESIGN.md §12): an SM with a
        // resident warp, and an accelerator whose last tick left it work or
        // whose SM has since handed it a `Traverse`. Skipping the rest is
        // exact, as their calls would change nothing, and the visited units
        // keep ascending SM order. Every attached accelerator starts live,
        // so the first tick decides.
        for (live, acc) in self.accel_live.iter_mut().zip(&self.accels) {
            *live = acc.is_some();
        }

        let watchdog = 4_000_000_000u64;
        loop {
            let now = self.clock;
            // 1. Fill free warp slots round-robin: one warp per SM per
            // sweep, repeating until slots or warps run out, so a launch
            // smaller than one SM's slot budget still spreads across all
            // SMs instead of piling onto SM 0.
            if next_warp < num_warps {
                'fill: loop {
                    let mut filled = false;
                    for sm in &mut self.sms {
                        if next_warp >= num_warps {
                            break 'fill;
                        }
                        if sm.has_free_slot() {
                            let (base_tid, lanes) = warp_desc(next_warp);
                            sm.add_warp(Warp::new(next_warp, base_tid, lanes, kernel.num_regs, 0));
                            next_warp += 1;
                            filled = true;
                        }
                    }
                    if !filled {
                        break;
                    }
                }
            }

            // 2. Tick live accelerators (process events due now, deliver
            // wakeups).
            for i in 0..self.sms.len() {
                if !self.accel_live[i] {
                    continue;
                }
                let acc = self.accels[i].as_mut().expect("a live accelerator");
                let mut ctx = AccelCtx {
                    mem: &mut self.mem,
                    gmem: &mut self.gmem,
                    sm_id: i,
                    perfect_node_fetch: self.perfect_node_fetch,
                };
                let live = acc.tick(now, &mut ctx);
                for token in acc.drain_completed() {
                    self.sms[i].complete_traversal(token as usize);
                }
                self.accel_live[i] = live;
            }

            // 3. One issue slot per SM that holds a warp.
            let mut any_issued = false;
            let mut any_mem_stall = false;
            let mut min_wake: Option<u64> = None;
            for i in 0..self.sms.len() {
                if self.sms[i].is_idle() {
                    continue;
                }
                let accel = self.accels[i].as_mut();
                let r = self.sms[i].tick(
                    now,
                    &self.cfg,
                    &decoded,
                    params,
                    &mut self.mem,
                    &mut self.gmem,
                    accel,
                    &mut stats,
                    &self.trace,
                    shadow.as_mut(),
                    self.race.as_mut(),
                );
                self.accel_live[i] |= r.offloaded;
                any_issued |= r.issued;
                any_mem_stall |= r.mem_stall;
                if let Some(w) = r.next_wake {
                    min_wake = Some(min_wake.map_or(w, |m: u64| m.min(w)));
                }
            }
            if any_issued {
                stats.sm_active_cycles += 1;
            }

            // 4. Termination check.
            let sms_idle = self.sms.iter().all(Sm::is_idle);
            let accels_idle = self.live_accels().all(|a| !a.busy());
            if sms_idle && accels_idle && next_warp >= num_warps {
                // The terminating iteration usually issued the last warp's
                // `Exit`. That cycle was historically counted in
                // `sm_active_cycles` but not in `cycles` (the clock never
                // advanced past it), so `sm_activity()` could exceed 1 on
                // tiny kernels. Advance past it so the attribution buckets
                // partition `cycles` exactly.
                if any_issued {
                    stats.attribution.add(Bucket::SimtBusy, 1);
                    self.clock = now + 1;
                }
                break;
            }

            // 5. Advance time, skipping dead cycles.
            let mut next = now + 1;
            if !any_issued {
                let mut target: Option<u64> = min_wake;
                for acc in self.live_accels() {
                    if let Some(e) = acc.next_event(now) {
                        target = Some(target.map_or(e, |t: u64| t.min(e)));
                    }
                }
                if let Some(t) = target {
                    next = next.max(t.max(now + 1));
                }
            }
            // Attribute this landing cycle plus any skipped interval, so
            // the buckets partition `stats.cycles` exactly (asserted after
            // the loop). The break path above attributes nothing.
            let landing = if any_issued {
                Bucket::SimtBusy
            } else if !accels_idle {
                Bucket::AccelBusy
            } else if any_mem_stall {
                Bucket::SimtStallMem
            } else {
                Bucket::SimtStallOther
            };
            stats.attribution.add(landing, 1);
            if next > now + 1 {
                let skipped = if !accels_idle {
                    Bucket::AccelStarved
                } else if any_mem_stall {
                    Bucket::SimtStallMem
                } else {
                    Bucket::SimtStallOther
                };
                stats.attribution.add(skipped, next - now - 1);
            }
            self.clock = next;
            assert!(
                self.clock - start_cycle < watchdog,
                "kernel `{}` exceeded the simulation watchdog",
                kernel.name
            );
        }

        if let Some(sc) = &shadow {
            self.shadow_value_checks += sc.value_checks();
            self.shadow_stack_checks += sc.stack_checks();
        }
        stats.cycles = self.clock - start_cycle;
        debug_assert_eq!(
            stats.attribution.total(),
            stats.cycles,
            "attribution buckets must partition the launch cycles"
        );
        debug_assert_eq!(
            stats.attribution.simt_busy, stats.sm_active_cycles,
            "SimtBusy must equal sm_active_cycles (double-count audit)"
        );
        if self.trace.enabled() {
            self.trace.span_arg(
                Track::Gpu,
                "launch",
                start_cycle,
                self.clock,
                num_threads as u64,
            );
            self.trace
                .counters(Track::Gpu, &stats.attribution, self.clock);
        }
        // Completion cycles were recorded on the absolute clock; rebase
        // them to this launch. Every launched warp exits before the loop
        // terminates, so the vector is dense over [0, num_warps).
        debug_assert_eq!(stats.warp_completions.len(), num_warps);
        for c in &mut stats.warp_completions {
            *c -= start_cycle;
        }
        stats.l1 = self.mem.l1_stats.since(&l1_before);
        stats.l2 = self.mem.l2_stats.since(&l2_before);
        stats.dram = self.mem.dram_stats.since(&dram_before);
        stats
    }

    /// The accelerators `launch` still visits, in SM order.
    fn live_accels(&self) -> impl Iterator<Item = &dyn Accelerator> {
        let live = self.accels.iter().zip(&self.accel_live);
        live.filter_map(|(acc, &live)| acc.as_deref().filter(|_| live))
    }

    /// Read-only access to an attached accelerator (for harvesting its
    /// statistics after a run).
    pub fn accelerator(&self, sm: usize) -> Option<&dyn Accelerator> {
        self.accels[sm].as_deref()
    }

    // Snapshot support: all persistent cross-launch state — the clock,
    // the functional memory image, the timing-model state (cache tags,
    // MSHRs, port/channel busy stamps, cumulative stats), shadow-check
    // counters, and each attached accelerator's state. Warp, scoreboard
    // and SIMT-stack state is transient within a launch and never
    // serialized; restore targets a GPU built with the same configuration
    // and the same accelerators attached.
    crate::snap_fields! {
        /// # Panics
        ///
        /// Panics when called mid-launch (an SM or accelerator is busy).
        pub fn export_state / import_state, before export assert_quiescent;
        clock,
        gmem,
        mem,
        shadow_value_checks,
        shadow_stack_checks,
        #[host] accels,
    }

    /// Snapshots are taken only between launches, when every SM is idle
    /// and no accelerator is busy.
    fn assert_quiescent(&self) {
        assert!(
            self.sms.iter().all(Sm::is_idle)
                && self
                    .accels
                    .iter()
                    .all(|a| a.as_deref().is_none_or(|a| !a.busy())),
            "snapshots are taken only at quiescent points (between launches)"
        );
    }
}

crate::snap_state!(Gpu);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::NullAccelerator;
    use crate::config::SchedulerKind;
    use crate::isa::{Cmp, SReg};
    use crate::kernel::KernelBuilder;
    use crate::mem::{CacheStats, DramStats};
    use crate::snapshot::{BagError, SnapValue};
    use crate::stats::InstrMix;
    use trace::CycleAttribution;

    /// out[tid] = in[tid] + 1
    fn incr_kernel() -> Kernel {
        let mut k = KernelBuilder::new("incr");
        let tid = k.reg();
        let inp = k.reg();
        let out = k.reg();
        let v = k.reg();
        let one = k.reg();
        let off = k.reg();
        k.mov_sreg(tid, SReg::ThreadId);
        k.mov_sreg(inp, SReg::Param(0));
        k.mov_sreg(out, SReg::Param(1));
        k.shl_imm(off, tid, 2);
        k.iadd(inp, inp, off);
        k.iadd(out, out, off);
        k.load(v, inp, 0);
        k.mov_imm(one, 1);
        k.iadd(v, v, one);
        k.store(v, out, 0);
        k.exit();
        k.build()
    }

    #[test]
    fn functional_correctness_and_stats() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let n = 1000usize;
        let inp = gpu.gmem.alloc(4 * n, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        for i in 0..n {
            gpu.gmem.write_u32(inp + 4 * i as u64, i as u32 * 3);
        }
        let stats = gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
        for i in 0..n {
            assert_eq!(gpu.gmem.read_u32(out + 4 * i as u64), i as u32 * 3 + 1);
        }
        assert!(stats.cycles > 0);
        assert_eq!(stats.mix.memory, 2 * n as u64);
        assert!(
            stats.simt_efficiency() > 0.9,
            "straight-line code should not diverge"
        );
        assert!(stats.l1.hits + stats.l1.misses > 0);
    }

    /// Kernel with data-dependent loop counts: thread i loops (i % 8) + 1
    /// times, producing divergence.
    fn divergent_kernel() -> Kernel {
        let mut k = KernelBuilder::new("divergent");
        let tid = k.reg();
        let count = k.reg();
        let acc = k.reg();
        let cond = k.reg();
        let zero = k.reg();
        k.mov_sreg(tid, SReg::ThreadId);
        k.and_imm(count, tid, 7);
        k.iadd_imm(count, count, 1);
        k.mov_imm(acc, 0);
        k.mov_imm(zero, 0);
        let mut l = k.begin_loop();
        k.icmp(Cmp::Gt, cond, count, zero);
        k.break_if_z(cond, &mut l);
        k.iadd_imm(acc, acc, 5);
        k.iadd_imm(count, count, u32::MAX); // -1
        k.end_loop(l);
        // Store acc to park the result.
        let out = k.reg();
        let off = k.reg();
        k.mov_sreg(out, SReg::Param(0));
        k.shl_imm(off, tid, 2);
        k.iadd(out, out, off);
        k.store(acc, out, 0);
        k.exit();
        k.build()
    }

    #[test]
    fn divergence_lowers_simt_efficiency() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let n = 256usize;
        let out = gpu.gmem.alloc(4 * n, 64);
        let stats = gpu.launch(&divergent_kernel(), n, &[out as u32]);
        for i in 0..n {
            let expect = ((i % 8) + 1) as u32 * 5;
            assert_eq!(gpu.gmem.read_u32(out + 4 * i as u64), expect, "thread {i}");
        }
        let eff = stats.simt_efficiency();
        assert!(
            eff < 0.95,
            "variable trip counts must diverge (eff = {eff})"
        );
        assert!(eff > 0.2, "efficiency implausibly low (eff = {eff})");
    }

    #[test]
    fn traverse_offload_roundtrip() {
        let mut k = KernelBuilder::new("offload");
        let q = k.reg();
        let root = k.reg();
        k.mov_sreg(q, SReg::Param(0));
        k.mov_sreg(root, SReg::Param(1));
        k.traverse(q, root, 0);
        k.exit();
        let kernel = k.build();

        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        gpu.attach_accelerators(|_| Box::new(NullAccelerator::new(50)));
        let stats = gpu.launch(&kernel, 128, &[0, 0]);
        assert_eq!(stats.traversals_offloaded, 128 / 32);
        assert_eq!(stats.mix.traverse, 128);
        assert!(stats.cycles >= 50);
    }

    #[test]
    #[should_panic(expected = "no accelerator")]
    fn traverse_without_accelerator_panics() {
        let mut k = KernelBuilder::new("offload");
        let q = k.reg();
        k.mov_sreg(q, SReg::Param(0));
        k.traverse(q, q, 0);
        k.exit();
        let kernel = k.build();
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 16);
        let _ = gpu.launch(&kernel, 32, &[0]);
    }

    #[test]
    fn warp_fill_spreads_across_sms() {
        // 4 warps onto 2 SMs with 8 slots each: round-robin fill must give
        // each SM 2 warps (the old greedy fill parked all 4 on SM 0).
        let mut k = KernelBuilder::new("offload");
        let q = k.reg();
        let root = k.reg();
        k.mov_sreg(q, SReg::Param(0));
        k.mov_sreg(root, SReg::Param(1));
        k.traverse(q, root, 0);
        k.exit();
        let kernel = k.build();

        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        gpu.attach_accelerators(|_| Box::new(NullAccelerator::new(50)));
        let stats = gpu.launch(&kernel, 128, &[0, 0]);
        assert_eq!(stats.traversals_offloaded, 4);
        let per_sm: Vec<u64> = gpu
            .accels
            .iter()
            .map(|a| a.as_deref().expect("attached").traverse_instructions())
            .collect();
        assert_eq!(
            per_sm,
            vec![2, 2],
            "round-robin fill must balance warps across SMs"
        );
    }

    #[test]
    fn partial_warp_width_launch() {
        // warp_width below the hardware maximum: 20 threads at width 8 form
        // warps of 8, 8 and 4 lanes, and every lane loop must honour the
        // narrow masks instead of assuming 32 lanes.
        let mut cfg = GpuConfig::small_test();
        cfg.warp_width = 8;
        let mut gpu = Gpu::new(cfg, 1 << 20);
        let n = 20usize;
        let inp = gpu.gmem.alloc(4 * n, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        for i in 0..n {
            gpu.gmem.write_u32(inp + 4 * i as u64, i as u32 * 7);
        }
        let stats = gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
        for i in 0..n {
            assert_eq!(
                gpu.gmem.read_u32(out + 4 * i as u64),
                i as u32 * 7 + 1,
                "thread {i}"
            );
        }
        assert_eq!(stats.warp_completions.len(), 3);
        // Two memory instructions per thread, counted per active lane.
        assert_eq!(stats.mix.memory, 2 * n as u64);
        assert_eq!(stats.lane_instrs % n as u64, 0, "straight-line kernel");
    }

    #[test]
    fn per_warp_completions_are_dense_and_bounded() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let n = 1000usize;
        let inp = gpu.gmem.alloc(4 * n, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        let stats = gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
        assert_eq!(stats.warp_completions.len(), n.div_ceil(32));
        assert!(
            stats.warp_completions.iter().all(|&c| c <= stats.cycles),
            "completions are launch-relative"
        );
        let max = *stats.warp_completions.iter().max().unwrap();
        assert_eq!(stats.warp_completion_percentile(100.0), Some(max));
        // A second launch starts its completion clock from zero again.
        let s2 = gpu.launch(&incr_kernel(), 64, &[inp as u32, out as u32]);
        assert_eq!(s2.warp_completions.len(), 2);
        assert!(s2.warp_completions.iter().all(|&c| c <= s2.cycles));
    }

    #[test]
    fn perfect_memory_is_faster() {
        let n = 4096usize;
        let run = |perfect: bool| {
            let mut cfg = GpuConfig::small_test();
            cfg.perfect_memory = perfect;
            let mut gpu = Gpu::new(cfg, 1 << 22);
            let inp = gpu.gmem.alloc(4 * n, 64);
            let out = gpu.gmem.alloc(4 * n, 64);
            gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32])
                .cycles
        };
        let real = run(false);
        let perfect = run(true);
        assert!(
            perfect < real,
            "perfect memory ({perfect}) must beat real memory ({real})"
        );
    }

    #[test]
    fn shadow_checked_launch_stays_inside_the_abstraction() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        gpu.enable_shadow_check();
        let n = 256usize;
        let inp = gpu.gmem.alloc(4 * n, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
        gpu.launch(&divergent_kernel(), n, &[out as u32]);
        let (values, stacks) = gpu.shadow_checks();
        assert!(values > 0, "shadow mode must actually check lane values");
        assert!(stacks > 0, "shadow mode must actually check stack depths");
    }

    #[test]
    fn race_checked_launch_is_clean_on_disjoint_footprints() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        gpu.enable_race_check();
        let n = 256usize;
        let inp = gpu.gmem.alloc(4 * n, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
        assert!(gpu.race_checks() > 0, "race mode must actually check");
        // A second launch writing the same buffer is synchronized by the
        // launch boundary — no false positive.
        gpu.launch(&incr_kernel(), n, &[inp as u32, out as u32]);
    }

    /// Every thread stores its tid to the same word of Param(0) — a
    /// cross-warp write-write race by construction.
    fn racy_kernel() -> Kernel {
        let mut k = KernelBuilder::new("racy");
        let tid = k.reg();
        let out = k.reg();
        k.mov_sreg(tid, SReg::ThreadId);
        k.mov_sreg(out, SReg::Param(0));
        k.store(tid, out, 0);
        k.exit();
        k.build()
    }

    #[test]
    #[should_panic(expected = "cross-warp write-after-write")]
    fn race_sanitizer_catches_the_racy_kernel() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        gpu.enable_race_check();
        let out = gpu.gmem.alloc(64, 64);
        let _ = gpu.launch(&racy_kernel(), 64, &[out as u32]);
    }

    #[test]
    fn race_check_off_misses_the_racy_kernel() {
        // The same launch without the sanitizer runs to completion (last
        // writer wins) — the check is opt-in and changes no semantics.
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let out = gpu.gmem.alloc(64, 64);
        let _ = gpu.launch(&racy_kernel(), 64, &[out as u32]);
        assert_eq!(gpu.race_checks(), 0);
    }

    #[test]
    fn snapshot_between_launches_resumes_identically() {
        // Straight-line: two launches back to back. Snapshotted: snapshot
        // after the first launch, restore onto a *fresh* GPU, run the
        // second launch there. Stats and memory must match bit for bit —
        // warm caches, clock and accelerator counters all carry over.
        let build = || {
            let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
            gpu.attach_accelerators(|_| Box::new(NullAccelerator::new(50)));
            gpu
        };
        let mut k = KernelBuilder::new("offload");
        let q = k.reg();
        let root = k.reg();
        k.mov_sreg(q, SReg::Param(0));
        k.mov_sreg(root, SReg::Param(1));
        k.traverse(q, root, 0);
        k.exit();
        let offload = k.build();

        let mut straight = build();
        let inp = straight.gmem.alloc(4 * 256, 64);
        let out = straight.gmem.alloc(4 * 256, 64);
        for i in 0..256u64 {
            straight.gmem.write_u32(inp + 4 * i, i as u32);
        }
        straight.launch(&incr_kernel(), 256, &[inp as u32, out as u32]);
        straight.launch(&offload, 128, &[0, 0]);
        let snap = straight.export_state();

        let mut resumed = build();
        resumed.import_state(&snap).expect("snapshot fits");
        assert_eq!(resumed.now(), straight.now());
        assert_eq!(resumed.export_state(), snap, "export/import is lossless");

        let a = straight.launch(&incr_kernel(), 256, &[inp as u32, out as u32]);
        let b = resumed.launch(&incr_kernel(), 256, &[inp as u32, out as u32]);
        assert_eq!(a, b, "resumed launch must replay exactly");
        let a2 = straight.launch(&offload, 128, &[0, 0]);
        let b2 = resumed.launch(&offload, 128, &[0, 0]);
        assert_eq!(a2, b2);
        assert_eq!(resumed.now(), straight.now());
        for i in 0..256u64 {
            assert_eq!(
                resumed.gmem.read_u32(out + 4 * i),
                straight.gmem.read_u32(out + 4 * i)
            );
        }
    }

    #[test]
    fn snapshot_rejects_mismatched_host() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let inp = gpu.gmem.alloc(4 * 64, 64);
        let out = gpu.gmem.alloc(4 * 64, 64);
        gpu.launch(&incr_kernel(), 64, &[inp as u32, out as u32]);
        let snap = gpu.export_state();

        // Different SM count: structured error, no panic.
        let mut cfg = GpuConfig::small_test();
        cfg.num_sms = 4;
        let mut other = Gpu::new(cfg, 1 << 20);
        assert!(matches!(
            other.import_state(&snap),
            Err(BagError::Mismatch(_))
        ));

        // Snapshot carries accelerator state, host has none attached.
        let mut accel_gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        accel_gpu.attach_accelerators(|_| Box::new(NullAccelerator::new(50)));
        let mut k = KernelBuilder::new("offload");
        let q = k.reg();
        k.mov_sreg(q, SReg::Param(0));
        k.traverse(q, q, 0);
        k.exit();
        accel_gpu.launch(&k.build(), 64, &[0]);
        let accel_snap = accel_gpu.export_state();
        let mut bare = Gpu::new(GpuConfig::small_test(), 1 << 20);
        assert!(matches!(
            bare.import_state(&accel_snap),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn multiple_launches_accumulate_clock() {
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 20);
        let inp = gpu.gmem.alloc(4 * 64, 64);
        let out = gpu.gmem.alloc(4 * 64, 64);
        let s1 = gpu.launch(&incr_kernel(), 64, &[inp as u32, out as u32]);
        let t1 = gpu.now();
        let s2 = gpu.launch(&incr_kernel(), 64, &[inp as u32, out as u32]);
        assert_eq!(gpu.now(), t1 + s2.cycles);
        // Second run hits warm caches: no slower than the first.
        assert!(s2.cycles <= s1.cycles);
    }

    #[test]
    fn pending_fills_stay_bounded_by_cache_capacity() {
        // Each launch reads 1024 fresh words (32 lines), so K launches
        // touch more distinct lines than either L1 or the L2 holds. The
        // exported fills must stay within each cache's line count, after
        // K launches and after 2K alike.
        let cfg = GpuConfig::small_test();
        let l1_lines = cfg.mem.l1_bytes / cfg.mem.line_size;
        let l2_lines = cfg.mem.l2_bytes / cfg.mem.line_size;
        let (n, k) = (1024usize, 24usize);
        let mut gpu = Gpu::new(cfg, 1 << 20);
        let inp = gpu.gmem.alloc(4 * n * 2 * k, 64);
        let out = gpu.gmem.alloc(4 * n, 64);
        let fills = |cache: &SnapValue| {
            let cache = cache.as_bag("cache").unwrap();
            cache
                .entry("fills")
                .unwrap()
                .as_list("fills")
                .unwrap()
                .len()
                / 2
        };
        for launch in 1..=2 * k {
            let slice = inp + (4 * n * (launch - 1)) as u64;
            gpu.launch(&incr_kernel(), n, &[slice as u32, out as u32]);
            if launch % k == 0 {
                let snap = gpu.export_state();
                let mem = snap.entry("mem").unwrap().as_bag("mem").unwrap();
                for l1 in mem.entry("l1").unwrap().as_list("l1").unwrap() {
                    let l1 = l1.as_bag("l1").unwrap().entry("cache").unwrap();
                    assert!(fills(l1) <= l1_lines, "L1 after {launch} launches");
                }
                let l2 = fills(mem.entry("l2").unwrap());
                assert!(l2 > 0 && l2 <= l2_lines, "L2 after {launch} launches: {l2}");
            }
        }
    }

    /// out[tid] = in[tid] + 1, with a `Traverse` on the loaded value
    /// between the load and the store.
    fn load_offload_store_kernel() -> Kernel {
        let mut k = KernelBuilder::new("load_offload_store");
        let tid = k.reg();
        let inp = k.reg();
        let out = k.reg();
        let off = k.reg();
        let v = k.reg();
        k.mov_sreg(tid, SReg::ThreadId);
        k.mov_sreg(inp, SReg::Param(0));
        k.mov_sreg(out, SReg::Param(1));
        k.shl_imm(off, tid, 2);
        k.iadd(inp, inp, off);
        k.iadd(out, out, off);
        k.load(v, inp, 0);
        k.traverse(inp, v, 0);
        k.iadd_imm(v, v, 1);
        k.store(v, out, 0);
        k.exit();
        k.build()
    }

    #[test]
    fn one_warp_on_a_wide_gpu_matches_the_full_scan() {
        // One warp on four SMs: three SM/accelerator pairs hold no work for
        // the whole launch, so `launch` never visits them. The expected
        // stats were recorded when every unit was visited each iteration.
        let expected = |cold: bool| SimStats {
            warp_size: 32,
            cycles: if cold { 486 } else { 90 },
            warp_instrs: 11,
            lane_instrs: 352,
            mix: InstrMix {
                alu: 224,
                control: 32,
                memory: 64,
                traverse: 32,
            },
            l1: CacheStats {
                hits: if cold { 0 } else { 2 },
                misses: if cold { 2 } else { 0 },
                mshr_merges: 0,
            },
            l2: CacheStats {
                misses: if cold { 2 } else { 0 },
                ..Default::default()
            },
            dram: DramStats {
                bytes_read: if cold { 256 } else { 0 },
                bytes_written: 128,
                bytes_requested: 128,
                busy_channel_cycles: if cold { 48.0 } else { 16.0 },
                transactions: if cold { 4 } else { 2 },
            },
            dram_channels: 6,
            traversals_offloaded: 1,
            sm_active_cycles: 11,
            attribution: CycleAttribution {
                simt_busy: 11,
                simt_stall_mem: if cold { 417 } else { 21 },
                simt_stall_other: 9,
                accel_busy: 1,
                accel_starved: 48,
                ..Default::default()
            },
            warp_completions: vec![if cold { 485 } else { 89 }],
            ..Default::default()
        };
        for scheduler in [SchedulerKind::EventDriven, SchedulerKind::ReferenceScan] {
            let mut cfg = GpuConfig::small_test();
            cfg.num_sms = 4;
            cfg.scheduler = scheduler;
            let mut gpu = Gpu::new(cfg, 1 << 20);
            gpu.attach_accelerators(|_| Box::new(NullAccelerator::new(50)));
            let inp = gpu.gmem.alloc(4 * 32, 64);
            let out = gpu.gmem.alloc(4 * 32, 64);
            let kernel = load_offload_store_kernel();
            for cold in [true, false] {
                let stats = gpu.launch(&kernel, 32, &[inp as u32, out as u32]);
                assert_eq!(stats, expected(cold), "{scheduler:?}, cold = {cold}");
            }
        }
    }
}
