//! The `tta-cost` report: run the static cost model over the shipped
//! inventory and journal every prediction.
//!
//! ```text
//! tta-cost [--threads N] [--out <path>] [--quiet]
//! ```
//!
//! For each shipped kernel (at the inventory's representative 1024-thread
//! launch bounds, on the `vulkan_sim_default` device) the journal records
//! the divergence verdict of every conditional branch, the coalescing
//! class and per-warp transaction bracket of every memory site, and the
//! static cycle bounds derived from the cost facts of the kernel's row in
//! `workloads::kernels::shipped_kernels`. For each Table III μop program it
//! records the `[critical_path, serial]` latency bracket on the paper's
//! crossbar.
//!
//! The journal is byte-identical at any `--threads`: work items are
//! analyzed independently and joined in inventory order, and every field
//! is derived from the static analyses alone (no clocks, no RNG). CI
//! diffs the journal across two thread counts to enforce this.

use gpu_sim::absint::{coalescing, cycle_bounds, divergence, Divergence};
use trace::json::{Array, Object, ALIGNED, COMPACT, PRETTY};
use tta::ttaplus::TtaPlusConfig;
use tta_lint::{shipped_programs, SHIPPED_BOUNDS};
use workloads::kernels::{shipped_kernels, ShippedKernel};

fn usage() -> ! {
    eprintln!("usage: tta-cost [--threads N] [--out <path>] [--quiet]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("tta-cost: {msg}");
    std::process::exit(2);
}

/// One self-contained unit of analysis; the journal is the concatenation
/// of every item's fragment in inventory order, independent of which
/// worker produced it.
enum Item {
    Kernel(Box<ShippedKernel>),
    Program(tta::programs::UopProgram),
}

/// A kernel's journal fragment, and whether it has finite cycle bounds.
fn kernel_fragment(s: &ShippedKernel, gpu: &gpu_sim::GpuConfig) -> (String, bool) {
    let div = divergence(&s.kernel, SHIPPED_BOUNDS);
    let coal = coalescing(&s.kernel, SHIPPED_BOUNDS, gpu);
    let (uniform, may, proved) =
        div.branches
            .iter()
            .fold((0u32, 0u32, 0u32), |acc, b| match b.kind {
                Divergence::Uniform => (acc.0 + 1, acc.1, acc.2),
                Divergence::MayDiverge => (acc.0, acc.1 + 1, acc.2),
                Divergence::Divergent => (acc.0, acc.1, acc.2 + 1),
            });
    let mut out = String::new();
    let mut k = Object::new(&mut out, ALIGNED);
    k.field("kernel", &s.kernel.name);

    let mut d = Object::new(k.key("divergence"), COMPACT);
    d.field("branches", &div.branches.len())
        .field("uniform", &uniform)
        .field("may_diverge", &may)
        .field("divergent", &proved)
        .field("proved_uniform", &div.proved_uniform());
    d.end();

    let (lines_lo, lines_hi) = coal.lines_bracket();
    let mut c = Object::new(k.key("coalescing"), COMPACT);
    c.field("lines_bracket", &[lines_lo, lines_hi][..]);
    let mut sites = Array::new(c.key("sites"), COMPACT);
    for site in &coal.sites {
        let mut o = Object::new(sites.slot(), COMPACT);
        o.field("pc", &site.pc)
            .field("kind", if site.is_store { "store" } else { "load" })
            .field("class", &site.class.to_string())
            .field("lines_min", &site.lines_min)
            .field("lines_max", &site.lines_max)
            .field("misaligned", &site.misaligned);
        o.end();
    }
    sites.end();
    c.end();

    let facts = workloads::cost::shipped_facts(s, gpu);
    let rep = cycle_bounds(&s.kernel, SHIPPED_BOUNDS, gpu, &facts);
    match &rep.bounds {
        Some(b) => {
            let mut o = Object::new(k.key("cycle_bounds"), COMPACT);
            o.field("lower", &b.lower)
                .field("upper", &b.upper)
                .field("ratio", &format!("{:.4}", b.ratio()));
            o.end();
        }
        None => {
            k.field("cycle_bounds", &None::<u64>);
        }
    }
    let issues: Vec<String> = rep.issues.iter().map(ToString::to_string).collect();
    k.field("issues", &issues);
    k.end();
    (out, rep.bounds.is_some())
}

fn program_fragment(p: &tta::programs::UopProgram, hop: u64) -> String {
    let (lo, hi) = p.latency_bounds(hop);
    let mut out = String::new();
    let mut o = Object::new(&mut out, COMPACT);
    o.field("program", p.name())
        .field("uops", &p.len())
        .field("critical_path", &lo)
        .field("serial_upper", &hi);
    o.end();
    out
}

fn main() {
    let mut threads = 1usize;
    let mut out = std::path::PathBuf::from("results/tta-cost.journal.json");
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => usage(),
            },
            "--out" => match args.next() {
                Some(p) => out = p.into(),
                None => usage(),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("usage: tta-cost [--threads N] [--out <path>] [--quiet]");
                println!();
                println!("Journals the static cost model's predictions for every");
                println!("shipped kernel (divergence, coalescing, cycle bounds) and");
                println!("Table III program (latency bracket). The journal is");
                println!("byte-identical at any --threads.");
                return;
            }
            _ => usage(),
        }
    }

    let gpu = gpu_sim::GpuConfig::vulkan_sim_default();
    let hop = TtaPlusConfig::default_paper().crossbar_hop_latency;

    let items: Vec<Item> = shipped_kernels()
        .into_iter()
        .map(|s| Item::Kernel(Box::new(s)))
        .chain(shipped_programs().into_iter().map(Item::Program))
        .collect();
    let n_kernels = items
        .iter()
        .filter(|i| matches!(i, Item::Kernel(_)))
        .count();

    // Fragment `i` is identical no matter which worker computed it, and
    // the pool returns results in submission order, so the joined journal
    // is byte-stable across --threads values.
    let jobs: Vec<_> = items
        .iter()
        .map(|item| {
            let gpu = &gpu;
            move || match item {
                Item::Kernel(s) => kernel_fragment(s, gpu),
                Item::Program(p) => (program_fragment(p, hop), false),
            }
        })
        .collect();
    let fragments = harness::pool::run_ordered(jobs, threads);

    let mut journal = String::new();
    let mut doc = Object::new(&mut journal, PRETTY[0]);
    doc.field("schema", &1u32)
        .field("report", "tta-cost")
        .field("gpu", "vulkan_sim_default")
        .field("launch_bounds", &SHIPPED_BOUNDS.num_threads)
        .field("crossbar_hop_latency", &hop);
    let (kernels, programs) = fragments.split_at(n_kernels);
    for (key, frags) in [("kernels", kernels), ("programs", programs)] {
        let mut items = Array::new(doc.key(key), PRETTY[1]);
        for (frag, _) in frags {
            items.slot().push_str(frag);
        }
        items.end();
    }
    doc.end();
    journal.push('\n');

    // `create_dir_all("")` is a no-op, so a bare file name needs no special case.
    let dir = out.parent().unwrap_or(std::path::Path::new(""));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&out, journal))
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", out.display())));

    if !quiet {
        let with_bounds = kernels.iter().filter(|(_, bounded)| *bounded).count();
        println!(
            "tta-cost: {} kernels analyzed ({} with finite cycle bounds), {} programs; journal at {}",
            n_kernels,
            with_bounds,
            programs.len(),
            out.display(),
        );
    }
}
