//! End-to-end tests: TTA/TTA+ traversals over the simulated GPU must return
//! exactly what the host-side tree oracles compute.

use geometry::Vec3;
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::{Gpu, GpuConfig};
use rta::units::TestKind;
use rta::TraversalEngine;
use trees::{BTree, BTreeFlavor, BarnesHutTree, Bvh, BvhPrimitive, Particle};
use tta::backend::TtaConfig;
use tta::btree_sem::{read_query_result, write_query_record, BTreeSemantics, QUERY_RECORD_SIZE};
use tta::nbody_sem::{read_nbody_result, write_nbody_record, BarnesHutSemantics};
use tta::programs::UopProgram;
use tta::radius_sem::{read_radius_result, write_radius_record, RadiusSearchSemantics};
use tta::ttaplus::{TtaPlusBackend, TtaPlusConfig};

fn traverse_kernel(record_size: u32) -> Kernel {
    let mut k = KernelBuilder::new("traverse");
    let tid = k.reg();
    let q = k.reg();
    let root = k.reg();
    let off = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(q, SReg::Param(0));
    k.mov_sreg(root, SReg::Param(1));
    k.imul_imm(off, tid, record_size);
    k.iadd(q, q, off);
    k.traverse(q, root, 0);
    k.exit();
    k.build()
}

#[derive(Clone, Copy, PartialEq)]
enum Accel {
    Tta,
    TtaPlus,
}

fn btree_run(flavor: BTreeFlavor, accel: Accel) {
    let keys: Vec<u32> = (0..4000u32).map(|k| k * 7 + 3).collect();
    let tree = BTree::bulk_load(flavor, &keys);
    let ser = tree.serialize();

    let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
    let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
    gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());

    let n = 256usize;
    let queries: Vec<u32> = (0..n as u32).map(|i| i * 53 + 1).collect();
    let qbase = gpu.gmem.alloc(n * QUERY_RECORD_SIZE, 64);
    for (i, &q) in queries.iter().enumerate() {
        write_query_record(&mut gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64, q);
    }

    let bplus = flavor == BTreeFlavor::BPlus;
    gpu.attach_accelerators(move |_| {
        let sem = |inner, leaf| BTreeSemantics {
            tree_base,
            bplus,
            inner_test: inner,
            leaf_test: leaf,
        };
        match accel {
            Accel::Tta => {
                let cfg = TtaConfig::default_paper();
                Box::new(TraversalEngine::new(
                    cfg.rta.clone(),
                    Box::new(cfg.backend()),
                    vec![Box::new(sem(TestKind::QueryKey, TestKind::QueryKey))],
                )) as Box<dyn gpu_sim::Accelerator>
            }
            Accel::TtaPlus => {
                let backend = TtaPlusBackend::new(
                    TtaPlusConfig::default_paper(),
                    vec![UopProgram::query_key_inner(), UopProgram::query_key_leaf()],
                );
                Box::new(TraversalEngine::new(
                    rta::RtaConfig::baseline(),
                    Box::new(backend),
                    vec![Box::new(sem(TestKind::Program(0), TestKind::Program(1)))],
                ))
            }
        }
    });

    let kernel = traverse_kernel(QUERY_RECORD_SIZE as u32);
    let stats = gpu.launch(&kernel, n, &[qbase as u32, tree_base as u32]);
    assert!(stats.cycles > 0);

    for (i, &q) in queries.iter().enumerate() {
        let (found, visited) = read_query_result(&gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64);
        let oracle = tree.search(q);
        assert_eq!(found, oracle.found, "{flavor} query {q}");
        assert_eq!(
            visited as usize, oracle.nodes_visited,
            "{flavor} path length for {q}"
        );
    }
}

#[test]
fn btree_queries_on_tta_match_oracle() {
    for flavor in BTreeFlavor::ALL {
        btree_run(flavor, Accel::Tta);
    }
}

#[test]
fn btree_queries_on_ttaplus_match_oracle() {
    btree_run(BTreeFlavor::BTree, Accel::TtaPlus);
}

#[test]
fn nbody_forces_match_oracle() {
    let particles: Vec<Particle> = (0..600)
        .map(|i| Particle {
            pos: Vec3::new(
                (i % 25) as f32 * 1.7,
                ((i * 7) % 31) as f32 * 1.3,
                ((i * 13) % 17) as f32 * 2.1,
            ),
            mass: 1.0 + (i % 3) as f32,
        })
        .collect();
    let tree = BarnesHutTree::build(&particles, 3);
    let ser = tree.serialize();

    let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
    let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
    gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
    let particle_base = tree_base + ser.particle_base as u64;

    let n = 64usize;
    let theta = 0.6f32;
    let probes: Vec<Vec3> = (0..n)
        .map(|i| Vec3::new((i % 8) as f32 * 5.0 - 2.0, (i / 8) as f32 * 4.0, 7.0))
        .collect();
    let qbase = gpu.gmem.alloc(n * 32, 64);
    for (i, &p) in probes.iter().enumerate() {
        write_nbody_record(&mut gpu.gmem, qbase + (i * 32) as u64, p, theta);
    }

    gpu.attach_accelerators(move |_| {
        let cfg = TtaConfig::default_paper();
        Box::new(TraversalEngine::new(
            cfg.rta.clone(),
            Box::new(cfg.backend()),
            vec![Box::new(BarnesHutSemantics {
                tree_base,
                particle_base,
                open_test: TestKind::PointToPoint,
                force_test: TestKind::IntersectionShader,
            })],
        ))
    });

    let kernel = traverse_kernel(32);
    let _ = gpu.launch(&kernel, n, &[qbase as u32, tree_base as u32]);

    for (i, &p) in probes.iter().enumerate() {
        let (force, visited) = read_nbody_result(&gpu.gmem, qbase + (i * 32) as u64);
        let oracle = tree.force_on(p, theta);
        let err = (force - oracle).length();
        assert!(
            err <= 1e-3 * oracle.length().max(1e-3),
            "probe {i}: {force} vs oracle {oracle}"
        );
        assert!(visited > 0);
    }
}

#[test]
fn radius_search_counts_match_oracle() {
    let radius = 3.0f32;
    let points: Vec<Vec3> = (0..800)
        .map(|i| {
            Vec3::new(
                (i % 40) as f32 * 1.1,
                ((i * 11) % 29) as f32 * 1.4,
                ((i * 3) % 7) as f32 * 0.9,
            )
        })
        .collect();
    let prims: Vec<BvhPrimitive> = points
        .iter()
        .map(|&c| BvhPrimitive::Sphere(geometry::Sphere::new(c, radius)))
        .collect();
    let bvh = Bvh::build(prims);
    let ser = bvh.serialize();

    let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
    let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
    gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
    let prim_base = tree_base + ser.prim_base as u64;

    let n = 96usize;
    let queries: Vec<Vec3> = (0..n)
        .map(|i| Vec3::new((i % 12) as f32 * 3.3, (i / 12) as f32 * 4.1, 2.0))
        .collect();
    let qbase = gpu.gmem.alloc(n * 32, 64);
    for (i, &q) in queries.iter().enumerate() {
        write_radius_record(&mut gpu.gmem, qbase + (i * 32) as u64, q, radius);
    }

    gpu.attach_accelerators(move |_| {
        let cfg = TtaConfig::default_paper();
        Box::new(TraversalEngine::new(
            cfg.rta.clone(),
            Box::new(cfg.backend()),
            vec![Box::new(RadiusSearchSemantics {
                tree_base,
                prim_base,
                inner_test: TestKind::RayBox,
                leaf_test: TestKind::PointToPoint,
            })],
        ))
    });

    let kernel = traverse_kernel(32);
    let _ = gpu.launch(&kernel, n, &[qbase as u32, tree_base as u32]);

    let mut nonzero = 0;
    for (i, &q) in queries.iter().enumerate() {
        let (count, _) = read_radius_result(&gpu.gmem, qbase + (i * 32) as u64);
        let oracle = bvh.points_within(q, radius).len() as u32;
        assert_eq!(count, oracle, "query {i} at {q}");
        if count > 0 {
            nonzero += 1;
        }
    }
    assert!(
        nonzero > n / 2,
        "radius misconfigured: too few non-empty results"
    );
}
