//! Table III — TTA+ intersection-test statistics: the μop composition of
//! every benchmark's inner and leaf tests.
//!
//! This regenerates the table from the canned programs; the unit tests in
//! `tta::programs` assert the counts cell-by-cell against the paper.

use tta::op_unit::OpUnit;
use tta::programs::UopProgram;
use tta_bench::{Args, Report};

fn main() {
    // No simulations here — run an empty sweep so the binary still leaves
    // a (run_count: 0) journal under results/ like every other harness bin.
    Args::parse(&[]).sweep("table3").run();
    let mut rep = Report::new(
        "table3",
        "Table III: TTA+ intersection test statistics (μops per test)",
        "row/column counts match the paper verbatim (asserted by unit tests)",
    );
    let mut cols = vec!["benchmark", "test", "total"];
    for u in OpUnit::ALL {
        cols.push(u.name());
    }
    rep.columns(&cols);

    let rows: Vec<(&str, &str, UopProgram)> = vec![
        (
            "B-Tree/B*Tree/B+Tree",
            "Inner (Query-Key)",
            UopProgram::query_key_inner(),
        ),
        (
            "B-Tree/B*Tree/B+Tree",
            "Leaf (Query-Key)",
            UopProgram::query_key_leaf(),
        ),
        (
            "N-Body 2D, 3D",
            "Inner (Point-to-Point)",
            UopProgram::point_to_point_inner(),
        ),
        (
            "N-Body 2D, 3D",
            "Leaf (Force)",
            UopProgram::nbody_force_leaf(),
        ),
        ("*RTNN", "Inner (Ray-Box)", UopProgram::ray_box()),
        ("*RTNN", "Leaf (Point-to-Point)", UopProgram::rtnn_leaf()),
        ("*WKND_PT", "Inner (Ray-Box)", UopProgram::ray_box()),
        (
            "*WKND_PT",
            "Leaf (Ray-Sphere)",
            UopProgram::ray_sphere_leaf(),
        ),
        ("LumiBench", "Inner (Ray-Box)", UopProgram::ray_box()),
        (
            "LumiBench",
            "Leaf (Ray-Tri)",
            UopProgram::ray_triangle_leaf(),
        ),
    ];
    for (bench, test, prog) in rows {
        let mut row = vec![bench.to_owned(), test.to_owned(), prog.len().to_string()];
        for u in OpUnit::ALL {
            row.push(prog.count_of(u).to_string());
        }
        rep.row(row);
    }
    rep.finish();
}
