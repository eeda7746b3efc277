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
//! static cycle bounds derived from the kernel's declared cost facts
//! (`workloads::cost::shipped_facts`). For each Table III μop program it
//! records the `[critical_path, serial]` latency bracket on the paper's
//! crossbar.
//!
//! The journal is byte-identical at any `--threads`: work items are
//! analyzed independently and joined in inventory order, and every field
//! is derived from the static analyses alone (no clocks, no RNG). CI
//! diffs the journal across two thread counts to enforce this.

use std::io::Write as _;

use gpu_sim::absint::{coalescing, cycle_bounds, divergence, CostReport, Divergence};
use trace::json::escape;
use tta::ttaplus::TtaPlusConfig;
use tta_lint::{shipped_kernel_inventory, shipped_programs};

fn usage() -> ! {
    eprintln!("usage: tta-cost [--threads N] [--out <path>] [--quiet]");
    std::process::exit(2);
}

/// One self-contained unit of analysis; the journal is the concatenation
/// of every item's fragment in inventory order, independent of which
/// worker produced it.
enum Item {
    Kernel(Box<tta_lint::ShippedKernel>),
    Program(tta::programs::UopProgram),
}

fn kernel_fragment(s: &tta_lint::ShippedKernel, gpu: &gpu_sim::GpuConfig) -> String {
    let div = divergence(&s.kernel, s.bounds);
    let coal = coalescing(&s.kernel, s.bounds, gpu);
    let (uniform, may, proved) =
        div.branches
            .iter()
            .fold((0u32, 0u32, 0u32), |acc, b| match b.kind {
                Divergence::Uniform => (acc.0 + 1, acc.1, acc.2),
                Divergence::MayDiverge => (acc.0, acc.1 + 1, acc.2),
                Divergence::Divergent => (acc.0, acc.1, acc.2 + 1),
            });
    let sites: Vec<String> = coal
        .sites
        .iter()
        .map(|site| {
            format!(
                "{{\"pc\":{},\"kind\":\"{}\",\"class\":\"{}\",\"lines_min\":{},\"lines_max\":{},\"misaligned\":{}}}",
                site.pc,
                if site.is_store { "store" } else { "load" },
                site.class,
                site.lines_min,
                site.lines_max,
                site.misaligned,
            )
        })
        .collect();
    let (lines_lo, lines_hi) = coal.lines_bracket();
    let facts = workloads::cost::shipped_facts(&s.kernel.name, gpu);
    let (bounds_json, issues) = match &facts {
        Some(facts) => {
            let rep: CostReport = cycle_bounds(&s.kernel, s.bounds, gpu, facts);
            let bounds_json = match rep.bounds {
                Some(b) => format!(
                    "{{\"lower\":{},\"upper\":{},\"ratio\":\"{:.4}\"}}",
                    b.lower,
                    b.upper,
                    b.ratio()
                ),
                None => "null".to_string(),
            };
            let issues: Vec<String> = rep.issues.iter().map(|i| escape(&i.to_string())).collect();
            (bounds_json, issues)
        }
        None => (
            "null".to_string(),
            vec!["\"no declared cost facts\"".to_string()],
        ),
    };
    format!(
        "    {{\"kernel\":\"{}\",\n     \"divergence\":{{\"branches\":{},\"uniform\":{uniform},\"may_diverge\":{may},\"divergent\":{proved},\"proved_uniform\":{}}},\n     \"coalescing\":{{\"lines_bracket\":[{lines_lo},{lines_hi}],\"sites\":[{}]}},\n     \"cycle_bounds\":{bounds_json},\n     \"issues\":[{}]}}",
        s.kernel.name,
        div.branches.len(),
        div.proved_uniform(),
        sites.join(","),
        issues.join(","),
    )
}

fn program_fragment(p: &tta::programs::UopProgram, hop: u64) -> String {
    let (lo, hi) = p.latency_bounds(hop);
    format!(
        "    {{\"program\":\"{}\",\"uops\":{},\"critical_path\":{lo},\"serial_upper\":{hi}}}",
        p.name(),
        p.len(),
    )
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

    let items: Vec<Item> = shipped_kernel_inventory()
        .into_iter()
        .map(|s| Item::Kernel(Box::new(s)))
        .chain(shipped_programs().into_iter().map(Item::Program))
        .collect();
    let n_kernels = items
        .iter()
        .filter(|i| matches!(i, Item::Kernel(_)))
        .count();

    // Round-robin sharding with index-ordered reassembly: fragment `i` is
    // identical no matter which worker computed it, so the joined journal
    // is byte-stable across --threads values.
    let mut fragments: Vec<Option<String>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads.min(items.len().max(1)) {
            let items = &items;
            let gpu = &gpu;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, String)> = Vec::new();
                for (i, item) in items.iter().enumerate() {
                    if i % threads != worker {
                        continue;
                    }
                    let frag = match item {
                        Item::Kernel(s) => kernel_fragment(s, gpu),
                        Item::Program(p) => program_fragment(p, hop),
                    };
                    done.push((i, frag));
                }
                done
            }));
        }
        for h in handles {
            for (i, frag) in h.join().expect("cost worker panicked") {
                fragments[i] = Some(frag);
            }
        }
    });
    let fragments: Vec<String> = fragments
        .into_iter()
        .map(|f| f.expect("every item analyzed"))
        .collect();

    let journal = format!(
        "{{\n  \"schema\": 1,\n  \"report\": \"tta-cost\",\n  \"gpu\": \"vulkan_sim_default\",\n  \"launch_bounds\": 1024,\n  \"crossbar_hop_latency\": {hop},\n  \"kernels\": [\n{}\n  ],\n  \"programs\": [\n{}\n  ]\n}}\n",
        fragments[..n_kernels].join(",\n"),
        fragments[n_kernels..].join(",\n"),
    );

    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create journal directory");
        }
    }
    let mut f = std::fs::File::create(&out).expect("create journal");
    f.write_all(journal.as_bytes()).expect("write journal");

    if !quiet {
        let with_bounds = fragments[..n_kernels]
            .iter()
            .filter(|f| !f.contains("\"cycle_bounds\":null"))
            .count();
        println!(
            "tta-cost: {} kernels analyzed ({} with finite cycle bounds), {} programs; journal at {}",
            n_kernels,
            with_bounds,
            fragments.len() - n_kernels,
            out.display(),
        );
    }
}
