//! Drives one repetition of a workload through the program's public
//! functions and times every call from outside.
//!
//! Setup (`trees.build`, `workloads.open`), each run (`run`) and the
//! journal (`harness.journal`) are always timed; they give the end-to-end
//! metrics. With detail on, every call inside a run gets its own span as
//! well: each launch (`gpu_sim.launch.<platform>`), the snapshot round
//! trip (`snap.*`), `workloads.finish`, and for the fleet `fleet.run_fleet`
//! with one `serve.run_batch` span per batch.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use fleet::{run_fleet, summarize, FleetConfig, FleetExperiment};
use gpu_sim::snapshot::{fnv1a_64, BagError, StateBag};
use gpu_sim::SimStats;
use harness::InputCache;
use serve::{build_service, BatchService};
use trace::TraceHandle;
use workloads::runner::sum_stats;
use workloads::{AccelReport, CacheableExperiment, RunResult, RunSession};

use crate::plan::{Exp, Run};

/// One timed call. Times are host nanoseconds since the repetition began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `gpu_sim.launch.tta`.
    pub name: &'static str,
    /// 0 for setup, runs and the journal; 1 inside a run; 2 inside
    /// `fleet.run_fleet`.
    pub depth: u8,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Collects the spans and counts of one repetition.
struct Recorder {
    origin: Instant,
    detail: bool,
    spans: Vec<Span>,
    launches: u64,
    snap_bytes: u64,
}

impl Recorder {
    fn new(detail: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            detail,
            spans: Vec::new(),
            launches: 0,
            snap_bytes: 0,
        }
    }

    fn now(&self) -> u64 {
        ns_since(self.origin)
    }

    fn close(&mut self, name: &'static str, depth: u8, start: u64) {
        let end = self.now();
        self.spans.push(Span {
            name,
            depth,
            start,
            end,
        });
    }

    /// Times `f` as a span recorded in every mode.
    fn always<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.close(name, 0, start);
        out
    }

    /// Times `f` as a span inside a run, recorded only with detail on.
    fn inner<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.detail {
            return f();
        }
        let start = self.now();
        let out = f();
        self.close(name, 1, start);
        out
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a repetition lasts under 584 years")
}

/// The timings of one repetition.
pub struct Rep {
    /// Whether the detail spans were recorded.
    pub detailed: bool,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Per run: the host ns of its measured phase, or `None` when it
    /// failed.
    pub run_ns: Vec<Option<u64>>,
    /// Kernel launches executed (steps and fleet batches).
    pub launches: u64,
    /// Encoded snapshot bytes, summed over the runs.
    pub snap_bytes: u64,
    /// FNV-1a hash of the journal of the runs that completed.
    pub sim_digest: u64,
    /// Factor that scales this repetition's host times to the nominal
    /// speed of the reference loop in `lib.rs`; 1 until measured.
    pub speed: f64,
}

/// FNV-1a hash of one run's journal entry.
pub(crate) fn run_digest(result: &RunResult) -> u64 {
    fnv1a_64(harness::journal::journal_json("", std::slice::from_ref(result)).as_bytes())
}

/// Drives every run of a workload once and returns its timings and, per
/// run, the result or `None` when the run panicked (a failed oracle check
/// panics too). Inputs are built from scratch (one build per distinct
/// input key, as the figure sweeps share them) and every run opens fresh
/// sessions, so simulated caches start cold.
pub fn drive_rep(sweep: &str, runs: &[Run], detail: bool) -> (Rep, Vec<Option<RunResult>>) {
    let mut rec = Recorder::new(detail);
    let cache = InputCache::new();
    let mut run_ns = Vec::with_capacity(runs.len());
    let results: Vec<Option<RunResult>> = runs
        .iter()
        .map(|run| {
            let first_span = rec.spans.len();
            let result = catch_unwind(AssertUnwindSafe(|| drive_run(&mut rec, &cache, run))).ok();
            run_ns.push(result.as_ref().and_then(|_| {
                rec.spans[first_span..]
                    .iter()
                    .find(|s| s.name == "run")
                    .map(Span::ns)
            }));
            result
        })
        .collect();
    let done: Vec<RunResult> = results.iter().flatten().cloned().collect();
    let journal = rec.always("harness.journal", || {
        harness::journal::journal_json(sweep, &done)
    });
    let rep = Rep {
        detailed: detail,
        spans: rec.spans,
        run_ns,
        launches: rec.launches,
        snap_bytes: rec.snap_bytes,
        sim_digest: fnv1a_64(journal.as_bytes()),
        speed: 1.0,
    };
    (rep, results)
}

/// Builds `e`'s inputs through `cache` (timed as `trees.build` on a miss)
/// and attaches them.
fn prepared<E: CacheableExperiment + Clone>(rec: &mut Recorder, cache: &InputCache, e: &E) -> E {
    let mut e = e.clone();
    let inputs = cache.get_or_build(&e.inputs_key(), || {
        rec.always("trees.build", || e.build_inputs())
    });
    e.set_inputs(inputs);
    e
}

type Opener = Box<dyn Fn() -> Box<dyn RunSession>>;

fn opener(rec: &mut Recorder, cache: &InputCache, exp: &Exp) -> Opener {
    match exp {
        Exp::BTree(e) => {
            let e = prepared(rec, cache, e);
            Box::new(move || Box::new(e.session(1)))
        }
        Exp::Rtnn(e) => {
            let e = prepared(rec, cache, e);
            Box::new(move || Box::new(e.session(1)))
        }
        Exp::RTree(e) => {
            let e = prepared(rec, cache, e);
            Box::new(move || Box::new(e.session(1)))
        }
        Exp::NBody(e) => {
            let e = prepared(rec, cache, e);
            Box::new(move || Box::new(e.session()))
        }
        Exp::Rt(e) => {
            let e = prepared(rec, cache, e);
            Box::new(move || Box::new(e.session()))
        }
        Exp::Fleet(_) => unreachable!("fleet runs are driven by drive_fleet"),
    }
}

fn drive_run(rec: &mut Recorder, cache: &InputCache, run: &Run) -> RunResult {
    if let Exp::Fleet(e) = &run.exp {
        return drive_fleet(rec, cache, e, run.launch_span);
    }
    let open = opener(rec, cache, &run.exp);
    let mut session = rec.always("workloads.open", &open);
    // The restore target is opened with the rest of the setup so the run
    // span holds only measured work.
    let fresh = run.snapshot.then(|| rec.always("workloads.open", &open));
    let start = rec.now();
    while !session.done() {
        rec.inner(run.launch_span, || session.step());
        rec.launches += 1;
    }
    if let Some(mut fresh) = fresh {
        let bag = rec.inner("snap.export", || session.export_state());
        let bytes = rec.inner("snap.encode", || snap::encode_snapshot(&bag));
        let bag = rec
            .inner("snap.decode", || snap::decode_snapshot(&bytes))
            .expect("a just-encoded snapshot decodes");
        rec.inner("snap.import", || fresh.import_state(&bag))
            .expect("a snapshot fits an identically configured session");
        rec.snap_bytes += bytes.len() as u64;
        session = fresh;
    }
    let result = rec.inner("workloads.finish", || session.finish());
    rec.close("run", 0, start);
    result
}

/// Runs a [`FleetExperiment`] exactly as [`FleetExperiment::run`] does,
/// but with the devices opened and timed here and, with detail on, each
/// one wrapped in a [`TimedService`] whose batches become `batch_span`
/// spans.
fn drive_fleet(
    rec: &mut Recorder,
    cache: &InputCache,
    e: &FleetExperiment,
    batch_span: &'static str,
) -> RunResult {
    let e = prepared(rec, cache, e);
    let inputs = e.inputs.clone().expect("prepared attaches inputs");
    let batches = Rc::new(RefCell::new(Vec::new()));
    let (origin, detail) = (rec.origin, rec.detail);
    let (mut services, arrivals, classes, cfg) = rec.always("workloads.open", || {
        let max_batch = e.policy.max_batch(e.gpu.warp_width);
        let services: Vec<Box<dyn BatchService>> = (0..e.devices)
            .map(|_| {
                let svc =
                    build_service(&e.workload, e.backend, &inputs, &e.gpu, max_batch, e.verify);
                if detail {
                    Box::new(TimedService {
                        inner: svc,
                        origin,
                        batches: Rc::clone(&batches),
                    })
                } else {
                    svc
                }
            })
            .collect();
        let arrivals =
            workloads::gen::exponential_arrivals(e.offered, e.arrival_mean_cycles, e.seed);
        let classes = workloads::gen::class_assignments(e.offered, &e.slo.weights(), e.seed);
        let cfg = FleetConfig {
            policy: e.policy.clone(),
            router: e.router,
            router_seed: e.seed,
            queue_capacity: e.queue_capacity,
            shards: e.shards.clone(),
            shard_miss_penalty: e.shard_miss_penalty,
            slo: e.slo.clone(),
            autoscale: e.autoscale.clone(),
            trace: TraceHandle::default(),
        };
        (services, arrivals, classes, cfg)
    });
    let start = rec.now();
    let outcome = rec.inner("fleet.run_fleet", || {
        run_fleet(&mut services, &cfg, &arrivals, &classes)
    });
    rec.spans
        .extend(batches.borrow().iter().map(|&(start, end)| Span {
            name: batch_span,
            depth: 2,
            start,
            end,
        }));
    let result = rec.inner("workloads.finish", || {
        let backend_label = services[0].label();
        let summary = summarize(&cfg, &backend_label, e.arrival_mean_cycles, &outcome);
        let label = format!(
            "fleet {} {} {} d{} {} mean{}",
            e.workload.name(),
            backend_label,
            e.router.label(),
            e.devices,
            e.policy.label(),
            e.arrival_mean_cycles
        );
        let all_stats: Vec<SimStats> = outcome
            .per_device
            .iter()
            .flat_map(|d| d.launch_stats.iter().cloned())
            .collect();
        RunResult {
            label,
            stats: sum_stats(&all_stats),
            accel: merge_accel(services.iter().filter_map(|s| s.accel_report())),
            serve: None,
            fleet: Some(summary),
        }
    });
    rec.close("run", 0, start);
    rec.launches += outcome
        .per_device
        .iter()
        .map(|d| d.launch_stats.len() as u64)
        .sum::<u64>();
    result
}

/// A fleet device that records the host time of every batch it runs.
struct TimedService {
    inner: Box<dyn BatchService>,
    origin: Instant,
    batches: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl BatchService for TimedService {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn warp_width(&self) -> usize {
        self.inner.warp_width()
    }

    fn run_batch(&mut self, ids: &[usize]) -> SimStats {
        let start = ns_since(self.origin);
        let stats = self.inner.run_batch(ids);
        self.batches
            .borrow_mut()
            .push((start, ns_since(self.origin)));
        stats
    }

    fn accel_report(&self) -> Option<AccelReport> {
        self.inner.accel_report()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn export_state(&self) -> StateBag {
        self.inner.export_state()
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        self.inner.import_state(bag)
    }
}

/// Sums accelerator reports across the fleet's devices — the fold
/// `FleetExperiment::run` applies, which the fleet crate keeps private.
/// The transparency test checks the two stay byte-identical.
fn merge_accel(reports: impl Iterator<Item = AccelReport>) -> Option<AccelReport> {
    let mut acc: Option<AccelReport> = None;
    for r in reports {
        let Some(a) = acc.as_mut() else {
            acc = Some(r);
            continue;
        };
        a.engine.warps_accepted += r.engine.warps_accepted;
        a.engine.rays_completed += r.engine.rays_completed;
        a.engine.node_fetches += r.engine.node_fetches;
        a.engine.fetch_merges += r.engine.fetch_merges;
        a.engine.nodes_processed += r.engine.nodes_processed;
        a.engine.warp_buffer_accesses += r.engine.warp_buffer_accesses;
        a.engine.prefetches += r.engine.prefetches;
        a.engine.busy_cycles += r.engine.busy_cycles;
        a.shader_lane_instructions += r.shader_lane_instructions;
        a.traversals += r.traversals;
        for (name, s) in r.units {
            match a.units.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.invocations += s.invocations;
                    t.busy_cycles += s.busy_cycles;
                    t.peak_in_flight = t.peak_in_flight.max(s.peak_in_flight);
                    t.total_latency += s.total_latency;
                }
                None => a.units.push((name, s)),
            }
        }
        for (name, s) in r.programs {
            match a.programs.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => {
                    t.invocations += s.invocations;
                    t.total_latency += s.total_latency;
                    t.icnt_cycles += s.icnt_cycles;
                }
                None => a.programs.push((name, s)),
            }
        }
    }
    acc
}
