//! Quickstart: index 100k keys in a 9-wide B-Tree, run the same 16k queries
//! on the baseline SIMT GPU and on a TTA, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use trees::BTreeFlavor;
use tta::pipeline::AcceleratorGen;
use workloads::btree::BTreeExperiment;
use workloads::Platform;

fn main() {
    // 1. The programming model: B-Tree declares its traversal the way the
    //    paper's Listing 1 does — layouts, intersection tests, termination
    //    — and the builder validates it against the TTA generation. This
    //    is the pipeline the TTA run below executes.
    let pipeline = BTreeExperiment::pipeline(AcceleratorGen::Tta).expect("a valid TTA pipeline");
    println!(
        "configured pipeline `{}` for {:?}",
        pipeline.name(),
        pipeline.generation()
    );

    // 2. Run the full experiment (tree build, GPU setup, kernel, oracle
    //    verification) on both platforms.
    let keys = 100_000;
    let queries = 16_384;
    println!("indexing {keys} keys, running {queries} queries...");

    let base = BTreeExperiment::new(BTreeFlavor::BTree, keys, queries, Platform::BaselineGpu).run();
    let tta = BTreeExperiment::new(
        BTreeFlavor::BTree,
        keys,
        queries,
        Platform::Tta(tta::backend::TtaConfig::default_paper()),
    )
    .run();

    println!();
    println!(
        "baseline GPU : {:>10} cycles, SIMT efficiency {:.0}%, DRAM util {:.1}%",
        base.cycles(),
        base.stats.simt_efficiency() * 100.0,
        base.stats.dram_utilization() * 100.0
    );
    println!(
        "TTA          : {:>10} cycles, dynamic instructions cut by {:.0}%",
        tta.cycles(),
        (1.0 - tta.core_instructions() as f64 / base.core_instructions() as f64) * 100.0
    );
    println!("speedup      : {:.2}x", tta.speedup_over(&base));
}
