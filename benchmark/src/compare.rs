//! `tta-benchmark compare <a> <b>`: applies the `BENCHMARK.json` bounds
//! to two result sets.
//!
//! A result set is a directory holding `<workload>.jsonl` per workload,
//! one result line (the benchmark's last line of output) per run. For
//! every (end-to-end metric, workload) pair the verdict is:
//!
//! * `unresolved` when either set's spread (interquartile range over
//!   median) is wider than the bound, unless every run of `b` reads better
//!   than every run of `a`;
//! * `regressed` when `b`'s median is worse than `a`'s by more than the
//!   bound, as a share of `a`'s median;
//! * `ok` otherwise.
//!
//! Each workload also gets a `failed_frac` row: any increase in the share
//! of failed runs is a regression.

use std::path::Path;

use trace::json::{parse, Value};

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of the baseline median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bound>,
}

/// Parses `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming the first missing or malformed field.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no `{key}` list"))
    };
    let field = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("BENCHMARK.json entry without a `{key}` string"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_num)
                    .ok_or("BENCHMARK.json metric without a numeric `bound`")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        workloads,
        end_to_end,
    })
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (its default "exclusive" method); `None` for fewer than two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(2), q(3)))
}

/// Applies `bound` to the baseline values `a` and the candidate values
/// `b` of one metric on one workload.
fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    // Positive when `b` is worse than `a`.
    let worse = |x: f64, y: f64| if bound.lower_is_better { y - x } else { x - y };
    let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
    if spread > bound.bound {
        let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse(am, bm) / am > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One result line's fields.
struct Line {
    attempted: f64,
    failed: f64,
    metrics: Value,
}

fn read_set(dir: &Path, workload: &str) -> Result<Vec<Line>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .map(|l| {
            let v = parse(l).map_err(|e| format!("{}: {e}", path.display()))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Value::as_num)
                    .ok_or(format!("{}: a result line without `{k}`", path.display()))
            };
            Ok(Line {
                attempted: num("attempted")?,
                failed: num("failed")?,
                metrics: v.get("metrics").cloned().ok_or(format!(
                    "{}: a result line without `metrics`",
                    path.display()
                ))?,
            })
        })
        .collect()
}

fn values(lines: &[Line], metric: &str) -> Vec<f64> {
    lines
        .iter()
        .filter_map(|l| l.metrics.get(metric)?.get("value")?.as_num())
        .collect()
}

fn failed_frac(lines: &[Line]) -> f64 {
    let attempted: f64 = lines.iter().map(|l| l.attempted).sum();
    lines.iter().map(|l| l.failed).sum::<f64>() / attempted.max(1.0)
}

/// Compares result set `b` against baseline `a`, printing one row per
/// (metric, workload) pair. Returns whether any pair regressed.
///
/// # Errors
///
/// A message when a result file is missing or malformed.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let mut regressed = false;
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "a IQR", "b IQR", "bound"
    );
    for w in &spec.workloads {
        let (la, lb) = (read_set(a, w)?, read_set(b, w)?);
        for bound in &spec.end_to_end {
            let (va, vb) = (values(&la, &bound.name), values(&lb, &bound.name));
            let v = verdict(&va, &vb, bound);
            regressed |= v == Verdict::Regressed;
            let spread = |vals: &[f64]| {
                quartiles(vals).map_or("-".to_owned(), |(q1, m, q3)| {
                    format!("{:.1}%", 100.0 * (q3 - q1) / m)
                })
            };
            let (ma, mb) = (crate::report::median(&va), crate::report::median(&vb));
            println!(
                "{:<10} {:<18} {:>14.6} {:>14.6} {:>7.1}% {:>7} {:>7} {:>5.0}%  {}",
                w,
                bound.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                spread(&va),
                spread(&vb),
                100.0 * bound.bound,
                v.label()
            );
        }
        let (fa, fb) = (failed_frac(&la), failed_frac(&lb));
        let v = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed |= v == Verdict::Regressed;
        println!(
            "{:<10} {:<18} {:>14.6} {:>14.6} {:>8} {:>7} {:>7} {:>6}  {}",
            w,
            "failed_frac",
            fa,
            fb,
            "",
            "",
            "",
            "0",
            v.label()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
            Some((2.75, 5.5, 8.25))
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = Bound {
            name: "wall_s".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &[10.5, 10.4, 10.6, 10.5], &lower), Verdict::Ok);
        assert_eq!(
            verdict(&a, &[11.5, 11.4, 11.6, 11.5], &lower),
            Verdict::Regressed
        );
        let noisy = [5.0, 20.0, 8.0, 14.0];
        assert_eq!(verdict(&a, &noisy, &lower), Verdict::Unresolved);
        // Noisy but every candidate run is better than every baseline run.
        assert_eq!(verdict(&a, &[2.0, 8.0, 4.0, 6.0], &lower), Verdict::Ok);
        let higher = Bound {
            lower_is_better: false,
            ..lower
        };
        assert_eq!(
            verdict(&a, &[8.5, 8.4, 8.6, 8.5], &higher),
            Verdict::Regressed
        );
    }
}
