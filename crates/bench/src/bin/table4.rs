//! Table IV — Baseline RTA area vs. TTA+ area (one set of operation
//! units), plus the §V-C1 TTA overheads.

use energy::area;
use tta::op_unit::OpUnit;
use tta_bench::{Args, Report};

fn main() {
    // No simulations here — run an empty sweep so the binary still leaves
    // a (run_count: 0) journal under results/ like every other harness bin.
    Args::parse(&[]).sweep("table4").run();
    let mut rep = Report::new(
        "table4",
        "Table IV: area comparison (FreePDK45, um^2)",
        "TTA+ w/o SQRT -10.8%; with SQRT +36.4%; TTA Ray-Box +1.8% (<1% total)",
    );
    rep.columns(&["component", "area um^2", "% of its total"]);

    let b_total = area::BASELINE_TOTAL_UM2;
    rep.row(vec![
        "Baseline Ray-Box".into(),
        format!("{:.1}", area::BASELINE_RAY_BOX_UM2),
        format!("{:.1}%", area::BASELINE_RAY_BOX_UM2 / b_total * 100.0),
    ]);
    rep.row(vec![
        "Baseline Ray-Triangle".into(),
        format!("{:.1}", area::BASELINE_RAY_TRIANGLE_UM2),
        format!("{:.1}%", area::BASELINE_RAY_TRIANGLE_UM2 / b_total * 100.0),
    ]);
    rep.row(vec![
        "Baseline total".into(),
        format!("{b_total:.1}"),
        "100.0%".into(),
    ]);

    let p_total = area::ttaplus_total_um2();
    rep.row(vec![
        "TTA+ ICNT 16x16 (120B)".into(),
        format!("{:.1}", area::TTAPLUS_INTERCONNECT_UM2),
        format!("{:.1}%", area::TTAPLUS_INTERCONNECT_UM2 / p_total * 100.0),
    ]);
    for u in [
        OpUnit::Vec3AddSub,
        OpUnit::Multiplier,
        OpUnit::MinMax,
        OpUnit::MaxMin,
        OpUnit::CrossProduct,
        OpUnit::DotProduct,
    ] {
        let a = area::op_unit_area_um2(u).expect("priced individually");
        rep.row(vec![
            format!("TTA+ {}", u.name()),
            format!("{a:.1}"),
            format!("{:.1}%", a / p_total * 100.0),
        ]);
    }
    rep.row(vec![
        "TTA+ RCP x3".into(),
        format!("{:.1}", area::TTAPLUS_RCP_X3_UM2),
        format!("{:.1}%", area::TTAPLUS_RCP_X3_UM2 / p_total * 100.0),
    ]);
    rep.row(vec![
        format!(
            "TTA+ w/o SQRT  ({:+.1}% vs baseline)",
            area::ttaplus_no_sqrt_ratio() * 100.0
        ),
        format!("{:.1}", area::ttaplus_total_without_sqrt_um2()),
        format!(
            "{:.1}%",
            area::ttaplus_total_without_sqrt_um2() / p_total * 100.0
        ),
    ]);
    rep.row(vec![
        "TTA+ SQRT".into(),
        format!("{:.1}", area::TTAPLUS_SQRT_UM2),
        format!("{:.1}%", area::TTAPLUS_SQRT_UM2 / p_total * 100.0),
    ]);
    rep.row(vec![
        format!(
            "TTA+ total  ({:+.1}% vs baseline)",
            area::ttaplus_ratio() * 100.0
        ),
        format!("{p_total:.1}"),
        "100.0%".into(),
    ]);
    rep.finish();

    println!(
        "TTA modified Ray-Box: {:.1} um^2 ({:+.1}% of the Ray-Box unit, {:+.2}% of total)",
        area::TTA_RAY_BOX_UM2,
        area::tta_ray_box_overhead() * 100.0,
        area::tta_total_overhead() * 100.0,
    );
    println!(
        "TTA Ray-Box power: {:.1} -> {:.1} mW (+0.7%)",
        energy::power::RAY_BOX_POWER_MW,
        energy::power::TTA_RAY_BOX_POWER_MW,
    );
}
