//! The traced output is a valid Chrome trace whose layer spans cover the
//! measured phase, and both metric sets match what `BENCHMARK.json`
//! declares.

use std::time::Duration;

use trace::json::{parse, Value};
use trace::validate_chrome_json;
use tta_benchmark::plan::{runs, Sizes, Workload};
use tta_benchmark::report::{chrome_json, end_to_end, per_layer, Metric};
use tta_benchmark::{measure, MIN_REPS};

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

/// `(name, ts, dur)` of every `X` span in a Chrome document.
fn spans(doc: &Value) -> Vec<(String, u64, u64)> {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let num = |k| e.get(k).and_then(Value::as_num).expect("integer field") as u64;
            let name = e.get("name").and_then(Value::as_str).expect("name");
            (name.to_owned(), num("ts"), num("dur"))
        })
        .collect()
}

/// Self time of every span: its duration minus its direct children's.
fn self_times(spans: &[(String, u64, u64)]) -> Vec<i64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].1, std::cmp::Reverse(spans[i].2)));
    let mut own: Vec<i64> = spans.iter().map(|s| s.2 as i64).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        let (start, end) = (spans[i].1, spans[i].1 + spans[i].2);
        // Drop enclosing candidates that do not contain this span.
        while stack
            .last()
            .is_some_and(|&p| !(spans[p].1 <= start && end <= spans[p].1 + spans[p].2))
        {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            own[p] -= spans[i].2 as i64;
        }
        stack.push(i);
    }
    own
}

#[test]
fn traced_runs_write_valid_nested_chrome_json_covering_the_measured_phase() {
    for w in Workload::ALL {
        let m = measure(w, 3, Duration::ZERO, true, &Sizes::SMALL);
        assert_eq!(m.failed, 0);
        assert_eq!(m.reps.iter().filter(|r| r.detailed).count(), MIN_REPS);
        let rep = m.reps.iter().rev().find(|r| r.detailed).expect("detailed");
        let text = chrome_json(w.name(), rep);
        validate_chrome_json(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name()));

        let spans = spans(&parse(&text).expect("valid JSON"));
        let run_spans = spans.iter().filter(|s| s.0 == "run").count();
        assert_eq!(
            run_spans,
            runs(w, 3, &Sizes::SMALL).len(),
            "one span per run"
        );
        assert!(self_times(&spans).iter().all(|&t| t >= 0), "{}", w.name());

        let metrics = per_layer(&m);
        assert_eq!(reported(&metrics), declared("per_layer"), "{}", w.name());
        let coverage = metrics
            .iter()
            .find(|x| x.name == "bench.span_coverage")
            .expect("coverage")
            .value;
        assert!(coverage >= 0.95, "{} coverage {coverage}", w.name());
    }
}

#[test]
fn untraced_runs_report_the_declared_end_to_end_metrics() {
    for w in Workload::ALL {
        let m = measure(w, 3, Duration::ZERO, false, &Sizes::SMALL);
        assert_eq!((m.failed, m.reps.len()), (0, MIN_REPS));
        let metrics = end_to_end(&m, 1.0);
        assert_eq!(reported(&metrics), declared("end_to_end"), "{}", w.name());
        assert!(metrics.iter().all(|x| x.value > 0.0), "{metrics:?}");
    }
}
