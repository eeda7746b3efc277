//! The measurement must not change the program it measures: the
//! benchmark's instrumented drive (stepped sessions, timing wrappers, the
//! snapshot round trip, the wrapped fleet devices) produces journal bytes
//! identical to the experiments' own `run()`.
//!
//! Run with `cargo test --release`: the fig13 comparison simulates the
//! full-size fig13 rows.

use gpu_sim::snapshot::fnv1a_64;
use harness::journal::journal_json;
use tta_benchmark::drive::drive_rep;
use tta_benchmark::plan::{runs, Exp, Sizes, Workload};
use workloads::RunResult;

fn plain_run(exp: &Exp) -> RunResult {
    match exp {
        Exp::BTree(e) => e.run(),
        Exp::Rtnn(e) => e.run(),
        Exp::RTree(e) => e.run(),
        Exp::NBody(e) => e.run(),
        Exp::Rt(e) => e.run(),
        Exp::Fleet(e) => e.run(),
    }
}

fn completed(results: Vec<Option<RunResult>>) -> Vec<RunResult> {
    results
        .into_iter()
        .map(|r| r.expect("every run completes and passes its oracle"))
        .collect()
}

#[test]
fn instrumented_drive_matches_plain_runs_byte_for_byte() {
    for w in Workload::ALL {
        let runs = runs(w, 7, &Sizes::SMALL);
        let plain: Vec<RunResult> = runs.iter().map(|r| plain_run(&r.exp)).collect();
        let expected = journal_json(w.name(), &plain);
        for detail in [false, true] {
            let (rep, results) = drive_rep(w.name(), &runs, detail);
            let got = journal_json(w.name(), &completed(results));
            assert_eq!(got, expected, "{} with detail={detail}", w.name());
            assert_eq!(rep.sim_digest, fnv1a_64(expected.as_bytes()));
        }
    }
}

/// One run's entry as the schema-3 journal writes it, without the
/// document around it. `results/fig13.journal.json` predates schema 4,
/// whose only change to a non-fleet run is the `"fleet": null` line.
fn schema3_entry(result: &RunResult) -> String {
    let doc = journal_json("", std::slice::from_ref(result));
    let start = doc.find("\"runs\": [\n").expect("journal has a runs list") + 10;
    let end = doc.rfind("\n  ]\n}").expect("journal closes its runs list");
    doc[start..end].replace("      \"fleet\": null,\n", "")
}

#[test]
fn seed_zero_rows_match_the_committed_fig13_journal() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig13.journal.json");
    let committed = std::fs::read_to_string(path).expect("the committed fig13 journal");
    assert!(
        committed.contains("\"schema\": 3,"),
        "the comparison assumes schema 3"
    );
    let mut matched = Vec::new();
    for w in [Workload::Nbody3d, Workload::Index] {
        let (_, results) = drive_rep(w.name(), &runs(w, 0, &Sizes::FIG13), false);
        for r in completed(results) {
            if r.label.starts_with("R-Tree") {
                continue; // not a fig13 row
            }
            assert!(
                committed.contains(&schema3_entry(&r)),
                "`{}` differs from its fig13 row",
                r.label
            );
            matched.push(r.label);
        }
    }
    // 3 N-Body 3D rows, 9 B-Tree-flavour rows and 3 RTNN rows: all of fig13.
    assert_eq!(matched.len(), 15, "{matched:?}");
}
