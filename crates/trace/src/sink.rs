//! Trace sinks and the cheap-to-clone [`TraceHandle`] that the simulator
//! threads through its hot loops.

use std::cell::RefCell;
use std::rc::Rc;

use crate::chrome;
use crate::event::{Bucket, CycleAttribution, EventKind, TraceEvent, Track};

/// A consumer of trace events.
///
/// Sinks are driven single-threaded: each simulated `Gpu` (and each serve
/// session) lives on one worker thread and owns its handle, so `record`
/// takes `&mut self` behind a `RefCell` with no locking.
pub trait TraceSink: std::fmt::Debug {
    /// Consumes one event. Called only while tracing is enabled.
    fn record(&mut self, ev: &TraceEvent);
}

/// Retains every event and serializes them as Chrome `trace_event` JSON
/// (load the file in `chrome://tracing` or Perfetto).
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<TraceEvent>,
}

impl ChromeTraceSink {
    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serializes to Chrome `trace_event` JSON. Deterministic: depends
    /// only on the recorded events.
    #[must_use]
    pub fn to_json(&self) -> String {
        chrome::to_chrome_json(&self.events)
    }

    /// Writes [`Self::to_json`] to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Convenience: a recording sink plus a handle feeding it. The caller
    /// keeps the `Rc` to inspect or serialize the events afterwards.
    #[must_use]
    pub fn shared() -> (TraceHandle, Rc<RefCell<ChromeTraceSink>>) {
        let sink = Rc::new(RefCell::new(ChromeTraceSink::default()));
        (TraceHandle::shared(sink.clone()), sink)
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// The handle the simulator carries. Default (and `disabled()`) is a
/// no-sink handle whose emitters reduce to one branch on an `Option` —
/// this is the "zero-cost when disabled" contract, verified by the
/// overhead measurement in DESIGN.md §10.
///
/// Cloning shares the underlying sink (`Rc`); handles never cross
/// threads — each harness worker builds its own `Gpu` and sink inside its
/// job closure.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl TraceHandle {
    /// A handle that records nothing and costs one branch per call site.
    #[must_use]
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// Wraps a sink in a fresh handle.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        TraceHandle::shared(Rc::new(RefCell::new(sink)))
    }

    /// Builds a handle over an already-shared sink.
    #[must_use]
    pub fn shared(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Whether events will be recorded. Call sites guard any non-trivial
    /// argument computation behind this.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a raw event.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(&ev);
        }
    }

    /// Emits a synchronous span `[start, end)`.
    #[inline]
    pub fn span(&self, track: Track, name: &'static str, start: u64, end: u64) {
        self.span_arg(track, name, start, end, 0);
    }

    /// Emits a synchronous span with a payload word.
    #[inline]
    pub fn span_arg(&self, track: Track, name: &'static str, start: u64, end: u64, arg: u64) {
        if self.sink.is_some() {
            debug_assert!(end >= start, "span {name} ends before it starts");
            self.record(TraceEvent {
                track,
                cycle: start,
                kind: EventKind::Span { name, end, arg },
            });
        }
    }

    /// Emits an asynchronous (possibly overlapping) span `[start, end)`.
    #[inline]
    pub fn async_span(
        &self,
        track: Track,
        name: &'static str,
        id: u64,
        start: u64,
        end: u64,
        arg: u64,
    ) {
        if self.sink.is_some() {
            debug_assert!(end >= start, "async span {name} ends before it starts");
            self.record(TraceEvent {
                track,
                cycle: start,
                kind: EventKind::Async { name, id, end, arg },
            });
        }
    }

    /// Emits a point event.
    #[inline]
    pub fn instant(&self, track: Track, name: &'static str, cycle: u64, arg: u64) {
        if self.sink.is_some() {
            self.record(TraceEvent {
                track,
                cycle,
                kind: EventKind::Instant { name, arg },
            });
        }
    }

    /// Emits one attribution-summary counter (skipping empty buckets is
    /// the caller's choice).
    #[inline]
    pub fn counter(&self, track: Track, bucket: Bucket, cycles: u64, at: u64) {
        if self.sink.is_some() {
            self.record(TraceEvent {
                track,
                cycle: at,
                kind: EventKind::Counter { bucket, cycles },
            });
        }
    }

    /// Emits one counter per non-empty bucket of `attribution` at cycle
    /// `at` (the canonical end-of-launch summary emission).
    pub fn counters(&self, track: Track, attribution: &CycleAttribution, at: u64) {
        if self.sink.is_some() {
            for b in Bucket::ALL {
                let v = attribution.get(b);
                if v > 0 {
                    self.counter(track, b, v, at);
                }
            }
        }
    }
}

/// Sanitizes a run label into a file name: `<label>.trace.json` with
/// non-alphanumeric runs collapsed to `-`. The `*` marker the workload
/// labels use (offloaded leaves, B\*Tree) is spelled out as `star` so
/// that labels differing only by it — e.g. `B-Tree` vs `B*Tree` — don't
/// collide on one file.
#[must_use]
pub fn file_name_for_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len() + 11);
    let mut last_dash = true; // suppress a leading dash
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '+' {
            out.push(c.to_ascii_lowercase());
            last_dash = false;
        } else if c == '*' {
            if !last_dash {
                out.push('-');
            }
            out.push_str("star-");
            last_dash = true;
        } else if !last_dash {
            out.push('-');
            last_dash = true;
        }
    }
    while out.ends_with('-') {
        out.pop();
    }
    if out.is_empty() {
        out.push_str("run");
    }
    out.push_str(".trace.json");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reports_disabled() {
        let h = TraceHandle::default();
        assert!(!h.enabled());
        // No sink: these must be no-ops, not panics.
        h.span(Track::Gpu, "launch", 0, 10);
        h.instant(Track::Sm(0), "issue_alu", 1, 32);
        h.counter(Track::Gpu, Bucket::SimtBusy, 5, 10);
    }

    #[test]
    fn chrome_sink_retains_events_in_emission_order() {
        let (h, sink) = ChromeTraceSink::shared();
        h.instant(Track::Sm(1), "b", 5, 0);
        h.instant(Track::Sm(0), "a", 2, 0);
        let s = sink.borrow();
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].cycle, 5);
        assert_eq!(s.events()[1].cycle, 2);
    }

    #[test]
    fn label_sanitization_is_filesystem_safe() {
        assert_eq!(
            file_name_for_label("btree 64k keys TTA+"),
            "btree-64k-keys-tta+.trace.json"
        );
        assert_eq!(
            file_name_for_label("serve btree TTA cont8w mean150"),
            "serve-btree-tta-cont8w-mean150.trace.json"
        );
        assert_eq!(file_name_for_label("///"), "run.trace.json");
        // `*` is meaningful in workload labels — B*Tree must not collide
        // with B-Tree, and the offloaded-leaf marker must survive.
        assert_eq!(
            file_name_for_label("B*Tree 16k keys TTA"),
            "b-star-tree-16k-keys-tta.trace.json"
        );
        assert_eq!(
            file_name_for_label("*RTNN 16k pts TTA"),
            "star-rtnn-16k-pts-tta.trace.json"
        );
        assert_ne!(
            file_name_for_label("B*Tree 16k keys BASE"),
            file_name_for_label("B-Tree 16k keys BASE")
        );
    }
}
