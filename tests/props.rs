//! Workspace-level property-style tests: on random inputs, the simulated
//! accelerator pipelines must agree exactly with the host-side oracles.
//!
//! Written against the workspace's seeded `rand` shim rather than
//! `proptest` (no registry access in the build environment): each property
//! runs a fixed number of deterministic random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use geometry::Vec3;
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::{Gpu, GpuConfig};
use rta::units::TestKind;
use rta::TraversalEngine;
use trees::{BTree, BTreeFlavor, BarnesHutTree, Bvh, BvhPrimitive, Particle};
use tta::backend::TtaConfig;
use tta::btree_sem::{read_query_result, write_query_record, BTreeSemantics, QUERY_RECORD_SIZE};
use tta::radius_sem::{read_radius_result, write_radius_record, RadiusSearchSemantics};

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

fn attach_btree(gpu: &mut Gpu, tree_base: u64, bplus: bool) {
    gpu.attach_accelerators(move |_| {
        let cfg = TtaConfig::default_paper();
        Box::new(TraversalEngine::new(
            cfg.rta.clone(),
            Box::new(cfg.backend()),
            vec![Box::new(BTreeSemantics {
                tree_base,
                bplus,
                inner_test: TestKind::QueryKey,
                leaf_test: TestKind::QueryKey,
            })],
        ))
    });
}

/// Random key sets + random queries: the TTA traversal over the serialized
/// image returns exactly what the host B-tree returns, for every variant.
#[test]
fn btree_tta_equals_oracle() {
    let mut rng = StdRng::seed_from_u64(0xb7ee);
    for case in 0..12 {
        let seed = rng.random_range(0u64..1000);
        let nkeys = rng.random_range(64usize..2000);
        let flavor = BTreeFlavor::ALL[case % 3];
        let keys = workloads::gen::btree_keys(nkeys, seed);
        let queries = workloads::gen::btree_queries(&keys, 96, seed ^ 1);
        let tree = BTree::bulk_load(flavor, &keys);
        let ser = tree.serialize();

        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 22);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let qbase = gpu.gmem.alloc(queries.len() * QUERY_RECORD_SIZE, 64);
        for (i, &q) in queries.iter().enumerate() {
            write_query_record(&mut gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64, q);
        }
        attach_btree(&mut gpu, tree_base, flavor == BTreeFlavor::BPlus);
        let kernel = traverse_kernel(QUERY_RECORD_SIZE as u32);
        gpu.launch(&kernel, queries.len(), &[qbase as u32, tree_base as u32]);

        for (i, &q) in queries.iter().enumerate() {
            let (found, visited) =
                read_query_result(&gpu.gmem, qbase + (i * QUERY_RECORD_SIZE) as u64);
            let oracle = tree.search(q);
            assert_eq!(found, oracle.found, "{flavor} query {q}");
            assert_eq!(visited as usize, oracle.nodes_visited, "{flavor} query {q}");
        }
    }
}

/// Random point clouds: accelerated radius-search counts equal both the
/// BVH oracle and a brute-force count.
#[test]
fn radius_search_equals_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x7ad1);
    for _case in 0..12 {
        let seed = rng.random_range(0u64..1000);
        let npoints = rng.random_range(100usize..800);
        let radius: f32 = rng.random_range(0.5..4.0);
        let points = workloads::gen::lidar_points(npoints, seed);
        let prims: Vec<BvhPrimitive> = points
            .iter()
            .map(|&c| BvhPrimitive::Sphere(geometry::Sphere::new(c, radius)))
            .collect();
        let bvh = Bvh::build(prims);
        let ser = bvh.serialize();

        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 23);
        let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
        let prim_base = tree_base + ser.prim_base as u64;
        let queries: Vec<Vec3> = points.iter().step_by(13).take(64).copied().collect();
        let qbase = gpu.gmem.alloc(queries.len() * 32, 64);
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
        gpu.launch(&kernel, queries.len(), &[qbase as u32, tree_base as u32]);

        let r2 = radius * radius;
        for (i, &q) in queries.iter().enumerate() {
            let (count, _) = read_radius_result(&gpu.gmem, qbase + (i * 32) as u64);
            let brute = points
                .iter()
                .filter(|p| p.distance_squared(q) <= r2)
                .count() as u32;
            // The BVH oracle uses the same arithmetic as the accelerator;
            // brute force may differ by boundary rounding on a few points.
            let oracle = bvh.points_within(q, radius).len() as u32;
            assert_eq!(count, oracle, "query {i} at {q}");
            let diff = count.abs_diff(brute);
            assert!(diff <= 2, "count {count} vs brute {brute} at {q}");
        }
    }
}

/// Random particle sets: tree aggregates conserve mass and the force walk
/// converges toward direct summation as theta shrinks.
#[test]
fn barnes_hut_aggregation_invariants() {
    let mut rng = StdRng::seed_from_u64(0xba24);
    for _case in 0..12 {
        let seed = rng.random_range(0u64..1000);
        let n = rng.random_range(50usize..600);
        let dims = rng.random_range(2usize..4);
        let particles = workloads::gen::nbody_particles(n, dims, seed);
        let tree = BarnesHutTree::build(&particles, dims);
        let total: f32 = particles.iter().map(|p| p.mass).sum();
        assert!((tree.total_mass() - total).abs() < 1e-2 * total);

        let probe = Vec3::new(400.0, 300.0, if dims == 3 { 200.0 } else { 0.0 });
        let exact = tree.direct_force_on(probe);
        let tight = tree.force_on(probe, 0.1);
        let loose = tree.force_on(probe, 1.2);
        let err_tight = (tight - exact).length() / exact.length().max(1e-6);
        let err_loose = (loose - exact).length() / exact.length().max(1e-6);
        assert!(err_tight < 0.05, "theta=0.1 error {err_tight}");
        assert!(
            err_tight <= err_loose + 1e-6,
            "accuracy must not improve with looser theta"
        );
    }
}

/// Serialization round-trip: particles and search results survive the
/// image encoding byte-for-byte.
#[test]
fn serialization_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x5e21);
    for _case in 0..12 {
        let seed = rng.random_range(0u64..1000);
        let n = rng.random_range(10usize..300);
        let particles: Vec<Particle> = workloads::gen::nbody_particles(n, 3, seed);
        let tree = BarnesHutTree::build(&particles, 3);
        let ser = tree.serialize();
        for (i, p) in tree.particles().iter().enumerate() {
            assert_eq!(ser.read_particle(i), *p);
        }
        let keys = workloads::gen::btree_keys(n.max(64), seed);
        let btree = BTree::bulk_load(BTreeFlavor::BStar, &keys);
        let bser = btree.serialize();
        for &k in keys.iter().step_by(7) {
            assert!(bser.search_image(k).found);
        }
    }
}
