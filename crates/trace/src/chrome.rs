//! Chrome `trace_event` JSON serialization.
//!
//! One event per line, written by [`crate::json`], so traces diff cleanly
//! and golden files stay reviewable. The mapping:
//!
//! | [`EventKind`]          | Chrome `ph`        |
//! |------------------------|--------------------|
//! | `Span`                 | `X` (complete)     |
//! | `Async`                | `b` + `e` pair     |
//! | `Instant`              | `i` (thread scope) |
//! | `Counter`              | `C`                |
//!
//! Tracks map to `pid` (category) / `tid` (index); metadata
//! `process_name` / `thread_name` events are emitted first, derived from
//! the sorted set of tracks actually present, so output depends only on
//! the event list. Timestamps are simulated cycles (the viewer will call
//! them microseconds; ignore the unit).

use crate::event::{EventKind, TraceEvent, Track};
use crate::json::{Array, Json, Object, COMPACT, LINES};

/// Serializes events to a Chrome `trace_event` "JSON object format"
/// document. Deterministic: byte-identical for identical event lists.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    let mut doc = Object::new(&mut out, COMPACT);
    doc.field("schema", "tta-trace-v1")
        .field("displayTimeUnit", "ns");
    let mut rows = Array::new(doc.key("traceEvents"), LINES);

    // Metadata rows from the sorted distinct track set.
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut last_pid = u32::MAX;
    for t in &tracks {
        let (pid, tid) = (t.category_id(), t.index());
        if pid != last_pid {
            last_pid = pid;
            let row = begin(&mut rows, "process_name", None, "M");
            finish(row, (pid, 0), Some(("name", &t.category().to_owned())));
        }
        let name = format!("{} {tid}", t.category());
        let row = begin(&mut rows, "thread_name", None, "M");
        finish(row, (pid, tid), Some(("name", &name)));
    }

    for ev in events {
        let cat = Some(ev.track.category());
        let at = (ev.track.category_id(), ev.track.index());
        let ts = ev.cycle;
        match ev.kind {
            EventKind::Span { name, end, arg } => {
                let mut row = begin(&mut rows, name, cat, "X");
                row.field("ts", &ts).field("dur", &(end - ts));
                finish(row, at, Some(("arg", &arg)));
            }
            EventKind::Async { name, id, end, arg } => {
                let mut row = begin(&mut rows, name, cat, "b");
                row.field("id", &id).field("ts", &ts);
                finish(row, at, Some(("arg", &arg)));
                let mut row = begin(&mut rows, name, cat, "e");
                row.field("id", &id).field("ts", &end);
                finish(row, at, None);
            }
            EventKind::Instant { name, arg } => {
                let mut row = begin(&mut rows, name, cat, "i");
                row.field("s", "t").field("ts", &ts);
                finish(row, at, Some(("arg", &arg)));
            }
            EventKind::Counter { bucket, cycles } => {
                let mut row = begin(&mut rows, "attribution", cat, "C");
                row.field("ts", &ts);
                finish(row, at, Some((bucket.name(), &cycles)));
            }
        }
    }
    rows.end();
    doc.end();
    out.push('\n');
    out
}

/// Starts a row with its `name`, `cat` (metadata rows have none) and
/// `ph` fields; the caller adds the phase's own fields and [`finish`]es
/// it.
fn begin<'a>(rows: &'a mut Array<'_>, name: &str, cat: Option<&str>, ph: &str) -> Object<'a> {
    let mut row = Object::new(rows.slot(), COMPACT);
    row.field("name", name);
    if let Some(cat) = cat {
        row.field("cat", cat);
    }
    row.field("ph", ph);
    row
}

/// Ends a row with its `pid`, `tid` and `args` (one entry, or none).
fn finish(mut row: Object<'_>, (pid, tid): (u32, u32), arg: Option<(&str, &dyn Json)>) {
    row.field("pid", &pid).field("tid", &tid);
    let mut args = Object::new(row.key("args"), COMPACT);
    if let Some((key, value)) = arg {
        args.field(key, value);
    }
    args.end();
    row.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Bucket;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                track: Track::Sm(0),
                cycle: 3,
                kind: EventKind::Instant {
                    name: "issue_alu",
                    arg: 32,
                },
            },
            TraceEvent {
                track: Track::Accel(0),
                cycle: 10,
                kind: EventKind::Span {
                    name: "busy",
                    end: 25,
                    arg: 0,
                },
            },
            TraceEvent {
                track: Track::Mem(0),
                cycle: 5,
                kind: EventKind::Async {
                    name: "read_miss",
                    id: 7,
                    end: 160,
                    arg: 128,
                },
            },
            TraceEvent {
                track: Track::Gpu,
                cycle: 200,
                kind: EventKind::Counter {
                    bucket: Bucket::SimtBusy,
                    cycles: 40,
                },
            },
        ]
    }

    #[test]
    fn serialization_is_deterministic_and_well_formed() {
        let a = to_chrome_json(&sample());
        let b = to_chrome_json(&sample());
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"dur\":15"));
        assert!(a.contains("\"ph\":\"b\""));
        assert!(a.contains("\"ph\":\"e\""));
        assert!(a.contains("\"simt_busy\":40"));
        assert!(a.contains("\"process_name\""));
        // It must parse with our own parser.
        let v = crate::json::parse(&a).expect("valid JSON");
        let evs = v
            .get("traceEvents")
            .and_then(crate::json::Value::as_array)
            .expect("traceEvents array");
        // metadata (4 tracks → 4 process + 4 thread rows) + 1 instant +
        // 1 span + 2 async halves + 1 counter.
        assert_eq!(evs.len(), 8 + 5);
    }
}
