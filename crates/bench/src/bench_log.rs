//! The perf-trajectory log: `BENCH_fig13.json` parsing, validation and
//! regression gating.
//!
//! The repository tracks the wall-clock cost of the `fig13` sweep — the
//! broadest figure harness, covering every workload × platform pair — as a
//! committed series of measurements. `scripts/bench.sh` appends entries;
//! CI validates the file's schema and fails when a fresh shadow-checked
//! `--quick` run regresses more than the configured fraction against the
//! latest committed entry of the same mode (see `scripts/ci.sh`).
//!
//! The file is plain JSON with a fixed shape:
//!
//! ```json
//! {"schema": 1, "bench": "fig13", "entries": [
//!   {"id": "quick-1", "mode": "quick", "threads": 1,
//!    "wall_seconds": 9.13, "date": "2026-08-09", "note": "pre-PR baseline"}
//! ]}
//! ```
//!
//! Parsing goes through [`trace::json`], the workspace's one JSON reader
//! (no serde in the workspace).

use trace::json::{escape, parse, Value};

/// The measurement modes a trajectory entry may carry.
pub const MODES: [&str; 5] = [
    "quick",
    "quick-shadow",
    "quick-snap-cold",
    "quick-snap-warm",
    "full",
];

/// One measurement of the fig13 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Unique entry label, e.g. `"quick-2"`.
    pub id: String,
    /// One of [`MODES`]: `--quick`, shadow-checked `--quick`, the
    /// snapshot-store cold/warm `--quick` pair, or full scale.
    pub mode: String,
    /// Sweep worker threads the measurement used.
    pub threads: u64,
    /// End-to-end wall-clock of the sweep binary, in seconds.
    pub wall_seconds: f64,
    /// ISO date (`YYYY-MM-DD`) the measurement was taken.
    pub date: String,
    /// Free-form context (what changed relative to the previous entry).
    pub note: String,
}

/// The parsed, schema-validated trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLog {
    /// Benchmark name (always `"fig13"` today).
    pub bench: String,
    /// Measurements, oldest first.
    pub entries: Vec<BenchEntry>,
}

impl BenchLog {
    /// Parses and validates a trajectory file.
    pub fn parse(text: &str) -> Result<BenchLog, String> {
        let root = parse(text)?;
        let schema = root
            .get("schema")
            .and_then(Value::as_num)
            .ok_or("missing numeric \"schema\"")?;
        if schema != 1.0 {
            return Err(format!("unsupported schema version {schema}"));
        }
        let bench = root
            .get("bench")
            .and_then(Value::as_str)
            .ok_or("missing string \"bench\"")?
            .to_string();
        let raw_entries = root
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("missing array \"entries\"")?;
        let mut entries = Vec::with_capacity(raw_entries.len());
        let mut seen_ids = Vec::new();
        for (i, e) in raw_entries.iter().enumerate() {
            let field_str = |k: &str| -> Result<String, String> {
                e.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("entry {i}: missing string {k:?}"))
            };
            let id = field_str("id")?;
            if seen_ids.contains(&id) {
                return Err(format!("entry {i}: duplicate id {id:?}"));
            }
            seen_ids.push(id.clone());
            let mode = field_str("mode")?;
            if !MODES.contains(&mode.as_str()) {
                return Err(format!("entry {i}: unknown mode {mode:?} (want {MODES:?})"));
            }
            let date = field_str("date")?;
            if date.len() != 10 || date.as_bytes()[4] != b'-' || date.as_bytes()[7] != b'-' {
                return Err(format!("entry {i}: date {date:?} is not YYYY-MM-DD"));
            }
            let wall_seconds = e
                .get("wall_seconds")
                .and_then(Value::as_num)
                .ok_or(format!("entry {i}: missing numeric \"wall_seconds\""))?;
            if !(wall_seconds.is_finite() && wall_seconds > 0.0) {
                return Err(format!(
                    "entry {i}: wall_seconds {wall_seconds} not positive"
                ));
            }
            let threads = e
                .get("threads")
                .and_then(Value::as_num)
                .ok_or(format!("entry {i}: missing numeric \"threads\""))?;
            if threads < 1.0 || threads.fract() != 0.0 {
                return Err(format!(
                    "entry {i}: threads {threads} not a positive integer"
                ));
            }
            entries.push(BenchEntry {
                id,
                mode,
                threads: threads as u64,
                wall_seconds,
                date,
                note: field_str("note")?,
            });
        }
        Ok(BenchLog { bench, entries })
    }

    /// The newest entry recorded with `mode`.
    pub fn latest(&self, mode: &str) -> Option<&BenchEntry> {
        self.entries.iter().rev().find(|e| e.mode == mode)
    }

    /// A fresh id for an entry of `mode`: `"<mode>-<n>"`, n counting
    /// existing entries of that mode.
    pub fn next_id(&self, mode: &str) -> String {
        let n = self.entries.iter().filter(|e| e.mode == mode).count() + 1;
        format!("{mode}-{n}")
    }

    /// Serializes back to the canonical on-disk form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n");
        out.push_str(&format!("  \"bench\": {},\n", escape(&self.bench)));
        out.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"id\": {}, \"mode\": {}, \"threads\": {}, \
                 \"wall_seconds\": {}, \"date\": {}, \"note\": {}}}",
                escape(&e.id),
                escape(&e.mode),
                e.threads,
                format_seconds(e.wall_seconds),
                escape(&e.date),
                escape(&e.note),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Seconds with millisecond precision (wall-clock noise below that is
/// meaningless and churns the committed file).
fn format_seconds(s: f64) -> String {
    format!("{s:.3}")
}

/// Reads `wall_seconds` out of a sweep timing sidecar
/// (`results/<name>.timing.json`).
pub fn sweep_wall_seconds(timing_json: &str) -> Result<f64, String> {
    parse(timing_json)?
        .get("wall_seconds")
        .and_then(Value::as_num)
        .ok_or("timing sidecar has no \"wall_seconds\"".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "schema": 1, "bench": "fig13",
      "entries": [
        {"id": "quick-1", "mode": "quick", "threads": 1,
         "wall_seconds": 9.13, "date": "2026-08-09", "note": "baseline"},
        {"id": "quick-2", "mode": "quick", "threads": 1,
         "wall_seconds": 1.32, "date": "2026-08-09", "note": "event-driven"}
      ]
    }"#;

    #[test]
    fn parses_and_finds_latest() {
        let log = BenchLog::parse(SAMPLE).unwrap();
        assert_eq!(log.bench, "fig13");
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.latest("quick").unwrap().id, "quick-2");
        assert!(log.latest("full").is_none());
        assert_eq!(log.next_id("quick"), "quick-3");
        assert_eq!(log.next_id("full"), "full-1");
    }

    #[test]
    fn roundtrips_through_to_json() {
        let log = BenchLog::parse(SAMPLE).unwrap();
        let again = BenchLog::parse(&log.to_json()).unwrap();
        assert_eq!(log, again);
    }

    #[test]
    fn rejects_bad_schema_version() {
        let bad = SAMPLE.replace("\"schema\": 1", "\"schema\": 2");
        assert!(BenchLog::parse(&bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn rejects_unknown_mode() {
        let bad = SAMPLE.replace("\"mode\": \"quick\"", "\"mode\": \"warm\"");
        assert!(BenchLog::parse(&bad).unwrap_err().contains("mode"));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let bad = SAMPLE.replace("quick-2", "quick-1");
        assert!(BenchLog::parse(&bad).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn rejects_nonpositive_wall() {
        let bad = SAMPLE.replace("1.32", "0.0");
        assert!(BenchLog::parse(&bad).unwrap_err().contains("wall_seconds"));
    }

    #[test]
    fn rejects_malformed_date() {
        let bad = SAMPLE.replace("2026-08-09", "yesterday..");
        assert!(BenchLog::parse(&bad).unwrap_err().contains("date"));
    }

    #[test]
    fn reads_timing_sidecar() {
        let t = r#"{"sweep": "fig13", "threads": 1, "wall_seconds": 2.354, "runs": []}"#;
        assert_eq!(sweep_wall_seconds(t).unwrap(), 2.354);
    }

    #[test]
    fn notes_with_control_characters_roundtrip() {
        let mut log = BenchLog::parse(SAMPLE).unwrap();
        log.entries[0].note = "tab\there \"quoted\" \u{1} end".into();
        let again = BenchLog::parse(&log.to_json()).unwrap();
        assert_eq!(log, again);
    }
}
