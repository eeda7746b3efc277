//! The `tta-lint` CI gate: run every static-analysis pass over the shipped
//! μop programs, workload kernels, and traversal pipelines.
//!
//! ```text
//! tta-lint [--deny-warnings] [--deny <pass>]... [--only <pass>]... [--quiet] [--json]
//! ```
//!
//! Exit status is nonzero when any error-severity diagnostic is produced
//! (or any diagnostic at all under `--deny-warnings`; or any warning of a
//! `--deny`-named pass). `--only <pass>` (repeatable) restricts the report
//! — and the gate — to the named passes, so a single pass can be iterated
//! on without wading through the full inventory. With `--json` each
//! diagnostic prints as one JSON object per line (and the human summary
//! line is suppressed) so CI tooling can consume the findings. Output
//! order is stable: diagnostics are sorted by pass, location, and message,
//! so `--json` streams diff cleanly across runs.

use tta_lint::{lint_shipped, Diagnostic, Severity};

fn main() {
    let mut deny_warnings = false;
    let mut deny_passes: Vec<String> = Vec::new();
    let mut only_passes: Vec<String> = Vec::new();
    let mut quiet = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--deny" => match args.next() {
                Some(pass) => deny_passes.push(pass),
                None => {
                    eprintln!("tta-lint: --deny requires a pass name");
                    std::process::exit(2);
                }
            },
            "--only" => match args.next() {
                Some(pass) => only_passes.push(pass),
                None => {
                    eprintln!("tta-lint: --only requires a pass name");
                    std::process::exit(2);
                }
            },
            "--quiet" | "-q" => quiet = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: tta-lint [--deny-warnings] [--deny <pass>]... [--only <pass>]... \
                     [--quiet] [--json]"
                );
                println!();
                println!("Statically analyzes every shipped Table III μop program,");
                println!("workload kernel, and Listing-1 pipeline; exits nonzero on");
                println!("any error-severity diagnostic. --deny <pass> additionally");
                println!("fails the gate on warnings of the named pass (repeatable,");
                println!("e.g. --deny race-freedom). --only <pass> restricts the run");
                println!("to the named passes (repeatable, e.g. --only kernel-cost");
                println!("--only kernel-coalescing). --json emits one JSON object");
                println!("per diagnostic instead of the human-readable report.");
                return;
            }
            other => {
                eprintln!("tta-lint: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let mut diags = lint_shipped();
    if !only_passes.is_empty() {
        diags.retain(|d| only_passes.iter().any(|p| p == d.pass));
    }
    // Stable output ordering for CI diffs and the --json line protocol.
    diags.sort_by(|a: &Diagnostic, b: &Diagnostic| {
        (a.pass, &a.location, &a.message, a.severity).cmp(&(
            b.pass,
            &b.location,
            &b.message,
            b.severity,
        ))
    });
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    let denied = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning && deny_passes.iter().any(|p| p == d.pass))
        .count();

    if json {
        for d in &diags {
            println!("{}", trace::json::to_string(d));
        }
    } else if !quiet {
        for d in &diags {
            println!("{d}");
        }
        println!(
            "tta-lint: {} error{}, {} warning{}{}",
            errors,
            if errors == 1 { "" } else { "s" },
            warnings,
            if warnings == 1 { "" } else { "s" },
            if denied > 0 {
                format!(" ({denied} denied)")
            } else {
                String::new()
            },
        );
    }

    let gate_failed = errors > 0 || (deny_warnings && warnings > 0) || denied > 0;
    std::process::exit(if gate_failed { 1 } else { 0 });
}
