//! Deterministic JSON run journals.
//!
//! One journal per sweep, one entry per run, replacing the ad-hoc printlns
//! the fig binaries used to rely on. The text is written by
//! [`trace::json`] and is **deterministic**: stable field order, integer
//! counters verbatim, floats via Rust's shortest-roundtrip `Display`
//! (`NaN`/infinities become `null`). Equal result lists therefore
//! serialize to byte-identical text, which is what the 1-thread-vs-N-thread
//! determinism test asserts.
//!
//! Wall-clock timings are deliberately **not** part of the journal — they
//! differ run to run and would break byte-identity. [`crate::sweep`]
//! writes them to a separate `.timing.json` sidecar.

use trace::json::{Array, Object, PRETTY, SPACED};
use workloads::RunResult;

/// Journal schema version (bump on breaking shape changes).
///
/// v2 added the per-run `"serve"` section (online-serving metrics, `null`
/// for closed-batch figure runs) and `"warp_completions"` inside
/// `"stats"`.
///
/// v3 added the per-run `"attribution"` section (cycle-attribution
/// buckets summing to `cycles`) and the `queue_wait_cycles` /
/// `idle_cycles` / `horizon_cycles` counters inside `"serve"`.
///
/// v4 added the per-run `"fleet"` section (multi-device cluster-serving
/// metrics with nested `per_device` and `per_class` rows, `null` for
/// non-fleet runs).
pub const SCHEMA_VERSION: u32 = 4;

/// Serializes a finished sweep as the journal JSON document.
pub fn journal_json(sweep: &str, results: &[RunResult]) -> String {
    let mut out = String::with_capacity(4096);
    let mut doc = Object::new(&mut out, PRETTY[0]);
    doc.field("schema", &SCHEMA_VERSION)
        .field("sweep", sweep)
        .field("run_count", &results.len());
    let mut runs = Array::new(doc.key("runs"), PRETTY[1]);
    for r in results {
        let mut run = Object::new(runs.slot(), PRETTY[2]);
        run.field("label", &r.label)
            .field("cycles", &r.stats.cycles)
            .field("simt_efficiency", &r.stats.simt_efficiency())
            .field("dram_utilization", &r.stats.dram_utilization())
            .field("arithmetic_intensity", &r.stats.arithmetic_intensity())
            .field("core_instructions", &r.core_instructions())
            .field("stats", &r.stats)
            .field("attribution", &r.stats.attribution)
            .field("serve", &r.serve)
            .field("fleet", &r.fleet)
            .field("accel", &r.accel);
        run.end();
    }
    runs.end();
    doc.end();
    out.push('\n');
    out
}

/// Timing sidecar: wall-clock per run and for the whole sweep. Lives next
/// to the journal but in a separate file precisely because it is *not*
/// deterministic.
pub fn timing_json(
    sweep: &str,
    threads: usize,
    wall_seconds: f64,
    runs: &[(String, f64)],
) -> String {
    let mut out = String::with_capacity(1024);
    let mut doc = Object::new(&mut out, PRETTY[0]);
    doc.field("sweep", sweep)
        .field("threads", &threads)
        .field("wall_seconds", &wall_seconds);
    let mut items = Array::new(doc.key("runs"), PRETTY[1]);
    for (label, secs) in runs {
        let mut run = Object::new(items.slot(), SPACED);
        run.field("label", label).field("wall_seconds", secs);
        run.end();
    }
    items.end();
    doc.end();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimStats;
    use workloads::ServeSummary;

    fn result(label: &str, cycles: u64) -> RunResult {
        let mut stats = SimStats {
            cycles,
            warp_instrs: 10,
            lane_instrs: 300,
            ..Default::default()
        };
        stats.mix.alu = 200;
        stats.mix.memory = 100;
        RunResult {
            label: label.to_owned(),
            stats,
            accel: None,
            serve: None,
            fleet: None,
        }
    }

    #[test]
    fn equal_results_serialize_identically() {
        let runs = vec![result("a", 100), result("b", 250)];
        let x = journal_json("test", &runs);
        let y = journal_json("test", &runs.clone());
        assert_eq!(x, y);
        assert!(x.contains("\"sweep\": \"test\""));
        assert!(x.contains("\"cycles\": 100"));
        assert!(x.contains("\"run_count\": 2"));
        assert!(x.contains("\"accel\": null"));
        assert!(
            x.contains("\"attribution\": {"),
            "v3 journals carry the attribution section"
        );
    }

    #[test]
    fn serve_section_serializes_deterministically() {
        let mut r = result("serve", 5000);
        r.serve = Some(ServeSummary {
            policy: "cont8w".into(),
            backend: "TTA".into(),
            arrival_mean_cycles: 120.5,
            offered: 512,
            admitted: 512,
            dropped: 0,
            completed: 512,
            batches: 9,
            p50_latency: 400,
            p95_latency: 900,
            p99_latency: 1200,
            max_latency: 1500,
            throughput_qpkc: 2.5,
            max_queue_depth: 64,
            makespan_cycles: 204800,
            queue_wait_cycles: 3200,
            idle_cycles: 160000,
            horizon_cycles: 204800,
        });
        let a = journal_json("serve", std::slice::from_ref(&r));
        let b = journal_json("serve", &[r.clone()]);
        assert_eq!(a, b, "equal serve runs must serialize byte-identically");
        for key in [
            "\"policy\":\"cont8w\"",
            "\"backend\":\"TTA\"",
            "\"p99_latency\":1200",
            "\"dropped\":0",
            "\"max_queue_depth\":64",
            "\"throughput_qpkc\":2.5",
            "\"queue_wait_cycles\":3200",
            "\"idle_cycles\":160000",
            "\"horizon_cycles\":204800",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
        // Closed-batch runs keep a null serve section.
        let plain = journal_json("plain", &[result("x", 1)]);
        assert!(plain.contains("\"serve\": null"));
    }

    #[test]
    fn fleet_section_serializes_deterministically() {
        use workloads::{FleetClassSummary, FleetDeviceSummary, FleetSummary};
        let mut r = result("fleet", 9000);
        r.fleet = Some(FleetSummary {
            router: "p2c".into(),
            backend: "TTA".into(),
            policy: "cont8w".into(),
            devices: 2,
            shards: 8,
            replication: 2,
            shard_miss_penalty: 500,
            arrival_mean_cycles: 75.0,
            offered: 256,
            admitted: 250,
            dropped: 6,
            completed: 250,
            batches: 17,
            p50_latency: 300,
            p95_latency: 800,
            p99_latency: 1100,
            max_latency: 1400,
            throughput_qpkc: 3.5,
            slo_misses: 4,
            shard_hits: 200,
            shard_misses: 50,
            cold_starts: 1,
            makespan_cycles: 80_000,
            horizon_cycles: 80_000,
            per_device: vec![FleetDeviceSummary {
                device: 0,
                batches: 9,
                completed: 130,
                dropped: 0,
                busy_cycles: 50_000,
                queue_wait_cycles: 10_000,
                idle_cycles: 20_000,
                max_queue_depth: 40,
                shard_misses: 25,
                cold_starts: 0,
            }],
            per_class: vec![FleetClassSummary {
                class: "interactive".into(),
                deadline_cycles: 2_000,
                offered: 200,
                completed: 196,
                dropped: 4,
                slo_misses: 3,
                p50_latency: 280,
                p99_latency: 1_050,
                max_latency: 1_400,
            }],
        });
        let a = journal_json("fleet", std::slice::from_ref(&r));
        let b = journal_json("fleet", &[r.clone()]);
        assert_eq!(a, b, "equal fleet runs must serialize byte-identically");
        for key in [
            "\"router\":\"p2c\"",
            "\"devices\":2",
            "\"shard_miss_penalty\":500",
            "\"per_device\":[{\"device\":0,",
            "\"per_class\":[{\"class\":\"interactive\",",
            "\"slo_misses\":4",
            "\"cold_starts\":1",
            "\"horizon_cycles\":80000",
        ] {
            assert!(a.contains(key), "missing {key}");
        }
        // Non-fleet runs keep a null fleet section (v4 contract).
        let plain = journal_json("plain", &[result("x", 1)]);
        assert!(plain.contains("\"fleet\": null"));
    }

    #[test]
    fn empty_sweep_is_valid() {
        let j = journal_json("empty", &[]);
        assert!(j.contains("\"runs\": []\n"), "{j}");
        let t = timing_json("empty", 4, 0.0, &[]);
        assert!(t.contains("\"threads\": 4"));
    }
}
