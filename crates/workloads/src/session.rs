//! Resumable experiment sessions: each experiment's `run()` decomposed
//! into a sequence of kernel launches with *quiescent snapshot points*
//! between them.
//!
//! The simulator only snapshots between launches (warp state is transient
//! within one), so a session splits an experiment into steps — one launch
//! each — and exposes [`RunSession::export_state`] /
//! [`RunSession::import_state`] at every step boundary. Every workload
//! runs on one session type, [`QuerySession`], over the [`QueryDevice`]
//! the serving backends use too: the single-launch workloads (B-Tree,
//! R-Tree, RTNN, the instanced two-level scenes) gain interior snapshot
//! points by chunking their query range, and N-Body steps through its
//! traverse/integrate launch plan. Ray tracing's [`RtSession`] is a
//! `QuerySession` whose plan grows by one launch per secondary round
//! once the primary pass has run.
//!
//! The parity contract: `experiment.run()` *is* `session(1)` stepped to
//! completion, so a single-chunk session produces the exact `RunResult`
//! `run()` always produced — byte-identical journals by construction. The
//! `tta-snap` differential suite then asserts the stronger property: a
//! chunked run that exports mid-way and resumes on a freshly-constructed
//! session matches the chunked straight-line run exactly.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use geometry::Vec3;
use gpu_sim::kernel::Kernel;
use gpu_sim::snapshot::{BagError, SnapValue, StateBag};
use gpu_sim::{GpuConfig, SimStats};
use rta::bvh_semantics::read_ray_result;
use rta::AccelReport;
use trace::ChromeTraceSink;
use tta::pipeline::AcceleratorGen;

use crate::btree::{BTreeExperiment, BTreeLookups};
use crate::cacheable::{inputs_or_build, CacheableExperiment};
use crate::instanced::{InstancedExperiment, InstancedRays};
use crate::kernels::nbody_integrate_kernel;
use crate::lumibench::{RayQueries, RtExperiment};
use crate::nbody::{merged_traverse_integrate_kernel, ForceQueries, NBodyExperiment, PostProcess};
use crate::query::{QueryDevice, QueryWorkload};
use crate::rtnn::{LeafPath, RadiusQueries, RtnnExperiment};
use crate::rtree::{RTreeExperiment, RTreeRanges};
use crate::runner::{sum_stats, Platform, RunResult};

/// A resumable experiment run: a fixed sequence of launches with snapshot
/// points between them.
pub trait RunSession {
    /// `true` once every launch has executed; [`RunSession::finish`] may
    /// then be called.
    fn done(&self) -> bool;

    /// Launches executed so far.
    fn steps_done(&self) -> usize;

    /// The session's configuration key: the string
    /// [`RunSession::import_state`] checks a snapshot against. Snapshot
    /// stores use it as the storage key, so equal-configuration sessions
    /// share an entry and everything else misses.
    fn snapshot_key(&self) -> &str;

    /// Executes the next launch.
    ///
    /// # Panics
    ///
    /// Panics when the session is already [`RunSession::done`].
    fn step(&mut self);

    /// Exports the full session state (simulator + cursor + accumulated
    /// per-launch stats) at the current quiescent point.
    fn export_state(&self) -> StateBag;

    /// Overlays a previously exported state onto this freshly-constructed
    /// session; subsequent steps replay exactly as the exporting session
    /// would have. On error the session may be partly overwritten and
    /// must be discarded.
    ///
    /// # Errors
    ///
    /// [`BagError::Mismatch`] when the snapshot was taken by a session with
    /// a different configuration key, [`BagError`] variants from the
    /// simulator when the simulator state does not fit.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError>;

    /// Verifies (when configured) and harvests the final [`RunResult`].
    ///
    /// # Panics
    ///
    /// Panics when the session is not [`RunSession::done`], or when
    /// verification fails.
    fn finish(self: Box<Self>) -> RunResult;
}

/// Splits `n` work items into `chunks` contiguous `(start, len)` ranges.
/// Clamps to at least one chunk and at most one chunk per item; no items
/// give no chunks. The earlier chunks absorb the remainder.
fn split_chunks(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, n.max(1));
    let (base, extra) = (n / chunks, n % chunks);
    let mut start = 0;
    (0..chunks)
        .map(|c| {
            let len = base + usize::from(c < extra);
            start += len;
            (start - len, len)
        })
        .filter(|&(_, len)| len > 0)
        .collect()
}

/// Runs a session to completion and harvests the result — the body every
/// experiment's `run()` delegates to.
pub fn run_to_end(mut session: Box<dyn RunSession>) -> RunResult {
    while !session.done() {
        session.step();
    }
    session.finish()
}

// ------------------------------------------------- query-device sessions

/// The run-level settings of a [`QuerySession`] besides its device.
struct SessionSpec<'a> {
    platform: &'a Platform,
    gpu: &'a GpuConfig,
    label: String,
    key: String,
    verify: bool,
    trace_dir: Option<&'a Path>,
}

/// A resumable run of a [`QueryWorkload`] experiment: one
/// [`QueryDevice`] holding every query in its own slot, stepped through a
/// launch plan. B-Tree, R-Tree, RTNN and the instanced scenes chunk their
/// query range into launches of the device kernel; N-Body steps through
/// its traverse/integrate plan; [`RtSession`] appends its secondary
/// rounds after the primary pass.
pub struct QuerySession<W: QueryWorkload> {
    pub(crate) dev: QueryDevice<W>,
    pub(crate) queries: Vec<W::Query>,
    /// The platform as the experiment gives it (before
    /// [`QueryWorkload::platform`]), which the cost model charges.
    pub(crate) platform: Platform,
    pub(crate) plan: Vec<(Kernel, usize, [u32; 4])>,
    cursor: usize,
    parts: Vec<SimStats>,
    key: String,
    label: String,
    verify: bool,
    trace: Option<(PathBuf, Rc<RefCell<ChromeTraceSink>>)>,
}

impl<W: QueryWorkload> QuerySession<W> {
    /// Opens the device with one slot per query (plus `extra_slot_bytes`
    /// per slot) and writes every query; the launch plan starts empty.
    fn open(w: W, queries: Vec<W::Query>, extra_slot_bytes: usize, spec: SessionSpec) -> Self {
        let (trace, sink) = crate::runner::trace_pair(spec.trace_dir);
        let mut dev = QueryDevice::open(
            w,
            spec.platform,
            spec.gpu,
            queries.len(),
            extra_slot_bytes,
            trace,
        );
        for (slot, &q) in queries.iter().enumerate() {
            dev.write(slot, q);
        }
        QuerySession {
            dev,
            queries,
            platform: spec.platform.clone(),
            plan: Vec::new(),
            cursor: 0,
            parts: Vec::new(),
            key: spec.key,
            label: spec.label,
            verify: spec.verify,
            trace: spec.trace_dir.map(Path::to_path_buf).zip(sink),
        }
    }

    /// Opens a session that runs the device kernel over `chunks`
    /// contiguous query ranges, one launch each. No queries means no
    /// launches: the session is done when opened.
    fn chunked(w: W, queries: Vec<W::Query>, chunks: usize, mut spec: SessionSpec) -> Self {
        let ranges = split_chunks(queries.len(), chunks);
        spec.key = format!("{}|chunks={}", spec.key, ranges.len());
        let mut s = Self::open(w, queries, 0, spec);
        s.plan = ranges
            .into_iter()
            .map(|(start, len)| (s.dev.kernel.clone(), len, s.dev.params(start)))
            .collect();
        s
    }

    /// The restore check: one launch part per step done, and no more
    /// steps than the plan has.
    fn check_plan(&self) -> Result<(), BagError> {
        let (cursor, parts, steps) = (self.cursor, self.parts.len(), self.plan.len());
        if parts != cursor {
            return Err(BagError::Mismatch(format!(
                "snapshot has {parts} launch parts but cursor {cursor}"
            )));
        }
        if cursor > steps {
            return Err(BagError::Mismatch(format!(
                "cursor {cursor} past the {steps}-step plan"
            )));
        }
        Ok(())
    }

    /// Checks the sampled oracle when configured.
    ///
    /// # Panics
    ///
    /// Panics with the run's label on the first mismatch.
    fn check_oracle(&self) {
        if self.verify {
            if let Err(e) = self.dev.check(&self.queries) {
                panic!("{}: {e}", self.label);
            }
        }
    }
}

impl<W: QueryWorkload> RunSession for QuerySession<W> {
    fn done(&self) -> bool {
        self.cursor == self.plan.len()
    }

    fn steps_done(&self) -> usize {
        self.cursor
    }

    fn snapshot_key(&self) -> &str {
        &self.key
    }

    fn step(&mut self) {
        let (kernel, threads, params) = &self.plan[self.cursor];
        self.parts
            .push(self.dev.gpu.launch(kernel, *threads, params));
        self.cursor += 1;
    }

    // The configuration key first (restore-target check), then the step
    // cursor, the per-launch stats collected so far, and the simulator.
    gpu_sim::snap_fields! {
        fn export_state / import_state, after import check_plan;
        #[check] key,
        cursor,
        parts,
        gpu: dev.gpu,
    }

    /// Checks the sampled oracle (when configured) and harvests the
    /// result, summing the stats of every launch.
    fn finish(self: Box<Self>) -> RunResult {
        assert!(self.done(), "session not done");
        self.check_oracle();
        let result = RunResult {
            stats: sum_stats(&self.parts),
            label: self.label,
            accel: AccelReport::harvest(&self.dev.gpu),
            serve: None,
            fleet: None,
        };
        if let Some((dir, sink)) = &self.trace {
            crate::runner::write_trace(dir, &result.label, sink);
        }
        result
    }
}

impl BTreeExperiment {
    /// Opens a resumable session over this experiment, splitting the query
    /// range into `chunks` launches. `run()` is exactly `session(1)`
    /// stepped to completion.
    pub fn session(&self, chunks: usize) -> QuerySession<BTreeLookups> {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let mut queries = inputs.queries.clone();
        if self.sort_queries {
            queries.sort_unstable();
        }
        let p = self.platform.label();
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!("{} {}k keys {p}", self.flavor, self.keys / 1000),
            key: format!("{}|{p}|sort={}", self.inputs_key(), self.sort_queries),
            verify: self.verify,
            trace_dir: self.trace_dir.as_deref(),
        };
        QuerySession::chunked(BTreeLookups(inputs), queries, chunks, spec)
    }
}

impl RTreeExperiment {
    /// Opens a resumable session, splitting the query range into `chunks`
    /// launches. `run()` is exactly `session(1)` stepped to completion.
    pub fn session(&self, chunks: usize) -> QuerySession<RTreeRanges> {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!(
                "R-Tree {}k rects {}",
                self.rects / 1000,
                self.platform.label()
            ),
            key: format!("{}|{}", self.inputs_key(), self.platform.label()),
            verify: self.verify,
            trace_dir: None,
        };
        QuerySession::chunked(
            RTreeRanges(Arc::clone(&inputs)),
            inputs.queries.clone(),
            chunks,
            spec,
        )
    }
}

impl RtnnExperiment {
    /// Opens a resumable session, splitting the query range into `chunks`
    /// launches. `run()` is exactly `session(1)` stepped to completion.
    pub fn session(&self, chunks: usize) -> QuerySession<RadiusQueries> {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let star = if self.leaf == LeafPath::Offloaded {
            "*"
        } else {
            ""
        };
        let p = self.platform.label();
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!("{star}RTNN {}k pts {p}", self.points / 1000),
            key: format!("{}|{p}|{:?}", self.inputs_key(), self.leaf),
            verify: self.verify,
            trace_dir: self.trace_dir.as_deref(),
        };
        let queries = inputs.queries.clone();
        let w = RadiusQueries {
            inputs,
            radius: self.radius,
            leaf: self.leaf,
        };
        QuerySession::chunked(w, queries, chunks, spec)
    }
}

impl InstancedExperiment {
    /// Opens a resumable session, splitting the ray range into `chunks`
    /// launches. `run()` is exactly `session(1)` stepped to completion.
    ///
    /// # Panics
    ///
    /// Panics on the pure-SIMT baseline: the two-level walk is
    /// accelerator-only.
    pub fn session(&self, chunks: usize) -> QuerySession<InstancedRays> {
        assert!(
            self.platform.has_accelerator(),
            "the instanced workload requires an RTA/TTA/TTA+ platform"
        );
        let (p, side) = (self.platform.label(), self.side);
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!("Instanced {side}x{side} {p}"),
            key: format!(
                "instanced/{side}/{:#x}|{}x{}|{p}",
                self.seed, self.width, self.height
            ),
            verify: self.verify,
            trace_dir: None,
        };
        let w = self.workload();
        let rays = w.rays.clone();
        QuerySession::chunked(w, rays, chunks, spec)
    }
}

impl NBodyExperiment {
    /// Opens a resumable session stepping through the experiment's launch
    /// plan (1 launch for `PostProcess::None`/`Merged` on an accelerator,
    /// 2 for `Split` and the integrating baseline). `run()` is exactly
    /// `session(1)` stepped to completion — the chunk argument every other
    /// session takes does not apply here, so there is none.
    pub fn session(&self) -> QuerySession<ForceQueries> {
        let inputs = inputs_or_build(self, self.inputs.as_ref());
        let p = self.platform.label();
        let post = match self.post {
            PostProcess::Merged => " merged",
            PostProcess::Split => " split",
            PostProcess::None => "",
        };
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!("N-Body {}D {} {p}{post}", self.dims, self.bodies),
            key: format!("{}|{p}|{:?}", self.inputs_key(), self.post),
            verify: self.verify,
            trace_dir: self.trace_dir.as_deref(),
        };
        let queries = inputs.particles.iter().map(|p| p.pos).collect();
        let w = ForceQueries {
            inputs,
            theta: self.theta,
        };
        // The extra 12 bytes per slot hold the integrated velocities.
        let mut s = QuerySession::open(w, queries, 12, spec);
        let dev = &s.dev;
        let n = s.queries.len();
        let force = (dev.kernel.clone(), n, dev.params(0));
        let integrate_params = [dev.qbase, dev.tree_base, dev.stacks, dev.extra].map(|a| a as u32);
        let integrate = (nbody_integrate_kernel(), n, integrate_params);
        s.plan = match (self.platform.has_accelerator(), self.post) {
            (_, PostProcess::None) => vec![force],
            (true, PostProcess::Merged) => {
                vec![(merged_traverse_integrate_kernel(), n, integrate_params)]
            }
            _ => vec![force, integrate],
        };
        s
    }
}

// ------------------------------------------------------------ LumiBench

/// A resumable [`RtExperiment`] run: a [`QuerySession`] over the camera
/// rays whose plan grows after the primary pass. Step 0 is the primary
/// pass; the session then appends one launch per secondary round, each
/// tracing the round's rays from the same slots. The surfels of the
/// primary hits are the one piece of state the inner session does not
/// hold: secondary rounds overwrite the ray records they were read from,
/// so they are exported as their own entry.
pub struct RtSession {
    pub(crate) inner: QuerySession<RayQueries>,
    surfels: Option<Vec<(Vec3, Vec3, Vec3)>>,
}

impl RtExperiment {
    /// Opens a resumable session. `run()` is exactly this session stepped
    /// to completion; the step count is 1 (primary) plus the workload's
    /// secondary rounds (0 when the primary pass hits nothing).
    ///
    /// # Panics
    ///
    /// Panics on the same platform/feature conflicts `run()` rejects.
    pub fn session(&self) -> RtSession {
        let is_plus = self
            .platform
            .generation()
            .is_some_and(AcceleratorGen::is_tta_plus);
        assert!(
            !self.sato || is_plus,
            "SATO needs TTA+'s programmable traversal (the paper's *SHIP_SH)"
        );
        assert!(
            !self.offload_sphere || is_plus,
            "Ray-Sphere offload needs TTA+'s SQRT unit (the paper's *WKND_PT)"
        );
        assert!(
            self.platform.has_accelerator() || !self.workload.uses_spheres(),
            "the baseline SIMT trace kernel supports triangle scenes only"
        );
        let (p, starred) = (self.platform.label(), self.sato || self.offload_sphere);
        let star = if starred { "*" } else { "" };
        let spec = SessionSpec {
            platform: &self.platform,
            gpu: &self.gpu,
            label: format!("{star}{} {p}", self.workload),
            key: format!(
                "{}|{p}|{}x{}|sato={}|sphere={}|perfect={}",
                self.inputs_key(),
                self.width,
                self.height,
                self.sato,
                self.offload_sphere,
                self.perfect_node_fetch
            ),
            verify: self.verify,
            trace_dir: None,
        };
        let w = RayQueries::new(self);
        let rays = w.rays.clone();
        let mut inner = QuerySession::open(w, rays, 0, spec);
        inner.dev.gpu.perfect_node_fetch = self.perfect_node_fetch;
        let (dev, n) = (&inner.dev, inner.queries.len());
        inner.plan = vec![(dev.workload.kernel(0), n, dev.params(0))];
        RtSession {
            inner,
            surfels: None,
        }
    }
}

impl RtSession {
    /// Appends one launch per secondary round over `surfels` (none when
    /// the primary pass hit nothing). The primary pass has been checked by
    /// then, here or by the session that exported this state, and the
    /// rounds overwrite its records, so finishing checks nothing.
    fn grow_plan(&mut self, surfels: Vec<(Vec3, Vec3, Vec3)>) {
        let w = &self.inner.dev.workload;
        let pipeline = w.exp.workload.secondary_pipeline();
        let pass = (w.kernel(pipeline), surfels.len(), self.inner.dev.params(0));
        if !surfels.is_empty() {
            let rounds = w.exp.workload.secondary_rounds();
            self.inner.plan.extend(std::iter::repeat_n(pass, rounds));
        }
        self.inner.verify = false;
        self.surfels = Some(surfels);
    }

    /// The offset hit point, normal and incoming direction of every
    /// primary ray that hit, read back from its record.
    fn primary_surfels(&self) -> Vec<(Vec3, Vec3, Vec3)> {
        let dev = &self.inner.dev;
        let mut surfels = Vec::new();
        for (i, r) in self.inner.queries.iter().enumerate() {
            let (t, prim, ..) = read_ray_result(&dev.gpu.gmem, dev.slot_addr(i));
            if t.is_finite() {
                let (p, bvh) = (r.at(t), &dev.workload.inputs.bvh);
                let nrm = crate::lumibench::prim_normal(bvh, prim as usize, p, r.dir);
                surfels.push((p + nrm * 1e-3, nrm, r.dir));
            }
        }
        surfels
    }
}

impl RunSession for RtSession {
    fn done(&self) -> bool {
        self.inner.done()
    }

    fn steps_done(&self) -> usize {
        self.inner.steps_done()
    }

    fn snapshot_key(&self) -> &str {
        self.inner.snapshot_key()
    }

    /// The primary pass is checked against the oracle before the first
    /// secondary round overwrites its records.
    fn step(&mut self) {
        let cursor = self.inner.cursor;
        if let Some(surfels) = &self.surfels {
            let exp = &self.inner.dev.workload.exp;
            let rays = exp.secondary_rays(surfels, cursor as u32 - 1);
            for (slot, r) in rays.into_iter().enumerate() {
                self.inner.dev.write(slot, r);
            }
        }
        self.inner.step();
        if cursor == 0 {
            self.inner.check_oracle();
            self.grow_plan(self.primary_surfels());
        }
    }

    fn export_state(&self) -> StateBag {
        let mut bag = self.inner.export_state();
        if let Some(surfels) = &self.surfels {
            // 9 little-endian f32s per surfel (offset point, normal,
            // incoming dir), bit-exact.
            let bytes = surfels
                .iter()
                .flat_map(|(p, n, d)| [p, n, d].map(|v| [v.x, v.y, v.z]))
                .flat_map(|v| v.map(f32::to_le_bytes))
                .flatten()
                .collect();
            bag.put("surfels", SnapValue::Bytes(bytes));
        }
        bag
    }

    /// The surfels come first: they grow the plan the inner session's
    /// cursor is checked against.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        if let Some(v) = bag.get("surfels") {
            let bytes = v.as_bytes("surfels")?;
            if bytes.len() % 36 != 0 {
                return Err(BagError::Mismatch(format!(
                    "surfel blob of {} bytes is not a multiple of 36",
                    bytes.len()
                )));
            }
            let f = |c: &[u8]| f32::from_le_bytes(c.try_into().expect("4 bytes"));
            let v = |c: &[u8]| Vec3::new(f(&c[0..4]), f(&c[4..8]), f(&c[8..12]));
            let surfel = |c: &[u8]| (v(&c[0..12]), v(&c[12..24]), v(&c[24..36]));
            self.grow_plan(bytes.chunks_exact(36).map(surfel).collect());
        }
        self.inner.import_state(bag)?;
        if self.inner.cursor > 0 && self.surfels.is_none() {
            return Err(BagError::Mismatch(
                "snapshot past the primary pass carries no surfels".into(),
            ));
        }
        Ok(())
    }

    fn finish(self: Box<Self>) -> RunResult {
        Box::new(self.inner).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta::RtaConfig;
    use trees::BTreeFlavor;
    use tta::backend::TtaConfig;
    use tta::ttaplus::TtaPlusConfig;

    #[test]
    fn split_chunks_covers_the_range() {
        assert_eq!(split_chunks(10, 1), vec![(0, 10)]);
        assert_eq!(split_chunks(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(split_chunks(2, 5), vec![(0, 1), (1, 1)]);
        assert_eq!(split_chunks(0, 3), vec![]);
    }

    #[test]
    fn chunked_btree_session_matches_oracle_and_snapshots() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 192, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();

        // Straight-line chunked run.
        let mut straight = e.session(3);
        while !straight.done() {
            straight.step();
        }
        let expected = straight.export_state();

        // Snapshot after chunk 1, restore onto a fresh session, continue.
        let mut first = e.session(3);
        first.step();
        let snap = first.export_state();
        let mut resumed = e.session(3);
        resumed.import_state(&snap).expect("snapshot fits");
        while !resumed.done() {
            resumed.step();
        }
        assert_eq!(resumed.export_state(), expected, "resumed ≡ straight-line");
        let r = Box::new(resumed).finish(); // verify=true checks the oracle
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn snapshot_rejects_wrong_session_key() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, 64, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();
        let snap = e.session(2).export_state();
        let mut other = e.clone();
        other.sort_queries = true;
        let mut s = other.session(2);
        assert!(matches!(s.import_state(&snap), Err(BagError::Mismatch(_))));
    }

    #[test]
    fn run_equals_single_chunk_session() {
        let mut e = BTreeExperiment::new(BTreeFlavor::BPlus, 2000, 128, Platform::BaselineGpu);
        e.gpu = GpuConfig::small_test();
        let a = e.run();
        let mut s = e.session(1);
        while !s.done() {
            s.step();
        }
        let b = Box::new(s).finish();
        assert_eq!(a.label, b.label);
        assert_eq!(a.stats, b.stats);
        assert_eq!(format!("{:?}", a.accel), format!("{:?}", b.accel));
    }

    /// BASE, TTA and TTA+ for a workload whose baseline is `base` and
    /// whose μop programs are `programs`.
    fn platforms(base: Platform, programs: Vec<tta::programs::UopProgram>) -> [Platform; 3] {
        [
            base,
            Platform::Tta(TtaConfig::default_paper()),
            Platform::TtaPlus(TtaPlusConfig::default_paper(), programs),
        ]
    }

    /// Runs `open(queries, chunks)` to completion and checks the launch
    /// count: no queries give an empty plan and empty stats.
    fn assert_runs(open: impl Fn(usize, usize) -> Box<dyn RunSession>) {
        let empty = open(0, 3);
        assert!(empty.done(), "a zero-query session is done when opened");
        assert_eq!(empty.steps_done(), 0);
        assert_eq!(empty.finish().stats, SimStats::default());
        // More chunks than queries: one single-query launch per query.
        let mut s = open(5, 8);
        let mut launches = 0;
        while !s.done() {
            s.step();
            launches += 1;
        }
        assert_eq!(launches, 5);
        assert!(s.finish().stats.cycles > 0); // verify=true checks the oracle
    }

    #[test]
    fn zero_query_and_overchunked_sessions_run() {
        let gpu = GpuConfig::small_test();
        for p in platforms(Platform::BaselineGpu, BTreeExperiment::uop_programs()) {
            assert_runs(|n, chunks| {
                let mut e = BTreeExperiment::new(BTreeFlavor::BTree, 2000, n, p.clone());
                e.gpu = gpu.clone();
                Box::new(e.session(chunks))
            });
        }
        for p in platforms(Platform::BaselineGpu, RTreeExperiment::uop_programs()) {
            assert_runs(|n, chunks| {
                let mut e = RTreeExperiment::new(2000, n, p.clone());
                e.gpu = gpu.clone();
                Box::new(e.session(chunks))
            });
        }
        let rta = Platform::BaselineRta(RtaConfig::baseline());
        for p in platforms(rta, RtnnExperiment::uop_programs()) {
            let leaf = if p.label() == "RTA" {
                LeafPath::Shader
            } else {
                LeafPath::Offloaded
            };
            assert_runs(|n, chunks| {
                let mut e = RtnnExperiment::new(2000, n, p.clone(), leaf);
                e.gpu = gpu.clone();
                Box::new(e.session(chunks))
            });
        }
    }
}
