//! End-to-end test: a warp of rays offloaded to the RTA must return exactly
//! the hits the host-side BVH oracle computes, and the engine's statistics
//! must be self-consistent.

use geometry::{Ray, Sphere, Triangle, Vec3};
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::{Gpu, GpuConfig};
use trees::{Bvh, BvhPrimitive};
use tta_rta::bvh_semantics::{
    read_ray_result, write_ray_record, BvhSemantics, LeafGeometry, RayQueryMode, RAY_RECORD_SIZE,
};
use tta_rta::units::FixedFunctionBackend;
use tta_rta::{AccelReport, RtaConfig, TraversalEngine};

/// Kernel: each thread computes its record address and offloads a traversal.
fn traverse_kernel() -> Kernel {
    let mut k = KernelBuilder::new("trace");
    let tid = k.reg();
    let q = k.reg();
    let root = k.reg();
    let off = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(q, SReg::Param(0));
    k.mov_sreg(root, SReg::Param(1));
    k.imul_imm(off, tid, RAY_RECORD_SIZE as u32);
    k.iadd(q, q, off);
    k.traverse(q, root, 0);
    k.exit();
    k.build()
}

fn tri_scene() -> Vec<BvhPrimitive> {
    let mut prims = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            let x = i as f32 * 2.0;
            let y = j as f32 * 2.0;
            // Two depth layers so closest-hit matters.
            for (layer, z) in [(0, 10.0), (1, 20.0)] {
                let _ = layer;
                prims.push(BvhPrimitive::Triangle(Triangle::new(
                    Vec3::new(x, y, z),
                    Vec3::new(x + 1.8, y, z),
                    Vec3::new(x, y + 1.8, z),
                )));
            }
        }
    }
    prims
}

struct Setup {
    gpu: Gpu,
    query_base: u64,
    root_addr: u64,
    bvh: Bvh,
    n_rays: usize,
}

fn setup(prims: Vec<BvhPrimitive>, rays: &[Ray], leaf: LeafGeometry, mode: RayQueryMode) -> Setup {
    setup_with(prims, rays, leaf, mode, RtaConfig::baseline())
}

fn setup_with(
    prims: Vec<BvhPrimitive>,
    rays: &[Ray],
    leaf: LeafGeometry,
    mode: RayQueryMode,
    cfg: RtaConfig,
) -> Setup {
    let bvh = Bvh::build(prims);
    let ser = bvh.serialize();

    let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
    let image_base = gpu.gmem.alloc(ser.image.len(), 64);
    gpu.gmem.write_bytes(image_base, ser.image.as_bytes());
    let query_base = gpu.gmem.alloc(rays.len() * RAY_RECORD_SIZE, 64);
    for (i, r) in rays.iter().enumerate() {
        write_ray_record(&mut gpu.gmem, query_base + (i * RAY_RECORD_SIZE) as u64, r);
    }

    let tree_base = image_base;
    let prim_base = image_base + ser.prim_base as u64;
    let root_addr = tree_base;
    gpu.attach_accelerators(move |_| {
        let cfg = cfg.clone();
        let backend = Box::new(FixedFunctionBackend::new(&cfg));
        let semantics = BvhSemantics {
            tree_base,
            prim_base,
            leaf,
            mode,
            sato: false,
        };
        Box::new(TraversalEngine::new(
            cfg,
            backend,
            vec![Box::new(semantics)],
        ))
    });
    Setup {
        gpu,
        query_base,
        root_addr,
        bvh,
        n_rays: rays.len(),
    }
}

fn grid_rays(n: usize) -> Vec<Ray> {
    (0..n)
        .map(|i| {
            let x = (i % 16) as f32 * 1.5 + 0.3;
            let y = (i / 16) as f32 * 1.5 + 0.4;
            Ray::new(
                Vec3::new(x, y, 0.0),
                Vec3::new(0.02, -0.01, 1.0).normalized(),
            )
        })
        .collect()
}

#[test]
fn closest_hit_matches_host_oracle() {
    let rays = grid_rays(128);
    let mut s = setup(
        tri_scene(),
        &rays,
        LeafGeometry::TRIANGLE,
        RayQueryMode::ClosestHit,
    );
    let kernel = traverse_kernel();
    let stats = s.gpu.launch(
        &kernel,
        s.n_rays,
        &[s.query_base as u32, s.root_addr as u32],
    );
    assert!(stats.cycles > 0);
    assert_eq!(stats.traversals_offloaded, (s.n_rays / 32) as u64);

    let mut hits = 0;
    for (i, r) in rays.iter().enumerate() {
        let addr = s.query_base + (i * RAY_RECORD_SIZE) as u64;
        let (t, prim, u, v) = read_ray_result(&s.gpu.gmem, addr);
        let (oracle, _) = s.bvh.closest_hit(r);
        match oracle {
            Some(h) => {
                hits += 1;
                assert_eq!(prim, h.prim as u32, "ray {i} hit the wrong primitive");
                assert!((t - h.t).abs() < 1e-4, "ray {i}: t {t} vs oracle {}", h.t);
                assert!(
                    (u - h.u).abs() < 1e-4 && (v - h.v).abs() < 1e-4,
                    "ray {i} uv"
                );
            }
            None => {
                assert_eq!(prim, u32::MAX, "ray {i} must miss");
                assert!(t.is_infinite());
            }
        }
    }
    assert!(hits > 32, "scene misconfigured: almost no hits ({hits})");
}

#[test]
fn any_hit_terminates_early() {
    let rays = grid_rays(64);
    let mut closest = setup(
        tri_scene(),
        &rays,
        LeafGeometry::TRIANGLE,
        RayQueryMode::ClosestHit,
    );
    let mut any = setup(
        tri_scene(),
        &rays,
        LeafGeometry::TRIANGLE,
        RayQueryMode::AnyHit,
    );
    let kernel = traverse_kernel();
    let _ = closest.gpu.launch(
        &kernel,
        64,
        &[closest.query_base as u32, closest.root_addr as u32],
    );
    let _ = any
        .gpu
        .launch(&kernel, 64, &[any.query_base as u32, any.root_addr as u32]);
    // Any-hit agreement on hit/miss.
    for i in 0..64usize {
        let (tc, ..) = read_ray_result(&closest.gpu.gmem, closest.query_base + (i * 48) as u64);
        let (ta, ..) = read_ray_result(&any.gpu.gmem, any.query_base + (i * 48) as u64);
        assert_eq!(tc.is_finite(), ta.is_finite(), "ray {i} hit/miss mismatch");
    }
    // Any-hit must do no more node work than closest-hit.
    let nodes = |gpu: &Gpu| {
        (0..gpu.cfg.num_sms)
            .filter_map(|i| gpu.accelerator(i))
            .map(|a| a.traverse_instructions())
            .sum::<u64>()
    };
    assert_eq!(nodes(&closest.gpu), nodes(&any.gpu));
}

#[test]
fn sphere_scene_uses_intersection_shader() {
    let prims: Vec<BvhPrimitive> = (0..64)
        .map(|i| {
            let x = (i % 8) as f32 * 4.0;
            let y = (i / 8) as f32 * 4.0;
            BvhPrimitive::Sphere(Sphere::new(Vec3::new(x, y, 15.0), 1.2))
        })
        .collect();
    let rays: Vec<Ray> = (0..64)
        .map(|i| {
            let x = (i % 8) as f32 * 4.0 + 0.2;
            let y = (i / 8) as f32 * 4.0 - 0.1;
            Ray::new(Vec3::new(x, y, 0.0), Vec3::new(0.0, 0.0, 1.0))
        })
        .collect();
    let leaf = LeafGeometry::Sphere {
        test: tta_rta::TestKind::IntersectionShader,
    };
    let mut s = setup(prims, &rays, leaf, RayQueryMode::ClosestHit);
    let kernel = traverse_kernel();
    let _ = s
        .gpu
        .launch(&kernel, 64, &[s.query_base as u32, s.root_addr as u32]);
    let mut hits = 0;
    for (i, r) in rays.iter().enumerate() {
        let (t, ..) = read_ray_result(&s.gpu.gmem, s.query_base + (i * 48) as u64);
        let (oracle, _) = s.bvh.closest_hit(r);
        assert_eq!(t.is_finite(), oracle.is_some(), "ray {i}");
        if let Some(h) = oracle {
            hits += 1;
            assert!((t - h.t).abs() < 1e-3);
        }
    }
    assert!(hits >= 32, "sphere scene should hit most rays ({hits})");
    // Shader path must actually have been exercised.
    let shader_invocations: u64 = (0..s.gpu.cfg.num_sms)
        .filter_map(|i| s.gpu.accelerator(i))
        .map(|a| a.traverse_instructions())
        .sum();
    assert!(shader_invocations > 0);
}

#[test]
fn warp_buffer_backpressure_slows_nothing_functionally() {
    // Enough warps to overflow the 4-entry warp buffer repeatedly.
    let rays = grid_rays(512);
    let mut s = setup(
        tri_scene(),
        &rays,
        LeafGeometry::TRIANGLE,
        RayQueryMode::ClosestHit,
    );
    let kernel = traverse_kernel();
    let stats = s
        .gpu
        .launch(&kernel, 512, &[s.query_base as u32, s.root_addr as u32]);
    assert_eq!(stats.traversals_offloaded, 16);
    for (i, r) in rays.iter().enumerate() {
        let (t, ..) = read_ray_result(&s.gpu.gmem, s.query_base + (i * 48) as u64);
        let (oracle, _) = s.bvh.closest_hit(r);
        assert_eq!(t.is_finite(), oracle.is_some(), "ray {i}");
    }
}

#[test]
fn child_prefetching_helps_and_stays_correct() {
    let rays = grid_rays(256);
    let kernel = traverse_kernel();

    let run = |prefetch: bool| {
        let bvh = Bvh::build(tri_scene());
        let ser = bvh.serialize();
        let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
        let image_base = gpu.gmem.alloc(ser.image.len(), 64);
        gpu.gmem.write_bytes(image_base, ser.image.as_bytes());
        let query_base = gpu.gmem.alloc(rays.len() * RAY_RECORD_SIZE, 64);
        for (i, r) in rays.iter().enumerate() {
            write_ray_record(&mut gpu.gmem, query_base + (i * RAY_RECORD_SIZE) as u64, r);
        }
        let prim_base = image_base + ser.prim_base as u64;
        gpu.attach_accelerators(move |_| {
            let cfg = RtaConfig {
                prefetch_children: prefetch,
                ..RtaConfig::baseline()
            };
            let backend = Box::new(FixedFunctionBackend::new(&cfg));
            let semantics = BvhSemantics {
                tree_base: image_base,
                prim_base,
                leaf: LeafGeometry::TRIANGLE,
                mode: RayQueryMode::ClosestHit,
                sato: false,
            };
            Box::new(TraversalEngine::new(
                cfg,
                backend,
                vec![Box::new(semantics)],
            ))
        });
        let stats = gpu.launch(&kernel, rays.len(), &[query_base as u32, image_base as u32]);
        // Results must be identical to the oracle either way.
        for (i, r) in rays.iter().enumerate().step_by(11) {
            let (t, ..) = read_ray_result(&gpu.gmem, query_base + (i * RAY_RECORD_SIZE) as u64);
            let (oracle, _) = bvh.closest_hit(r);
            assert_eq!(
                t.is_finite(),
                oracle.is_some(),
                "prefetch={prefetch} ray {i}"
            );
        }
        let report = AccelReport::harvest(&gpu).expect("engines attached");
        (stats.cycles, report.engine.prefetches)
    };

    let (plain, p0) = run(false);
    let (prefetched, p1) = run(true);
    assert_eq!(p0, 0);
    assert!(p1 > 0, "prefetcher must issue prefetches");
    // Speculation must not slow the cold-cache traversal down materially.
    assert!(
        prefetched <= plain + plain / 10,
        "prefetching regressed: {prefetched} vs {plain}"
    );
}

#[test]
fn leftover_prefetches_keep_a_drained_engine_live() {
    // With node fetches free (the Fig. 17 "Perf. RT" limit), demand
    // fetches take nearly every issue slot, so the child-prefetch backlog
    // outlives each traversal: an engine drains with prefetches still
    // queued and issues them on later ticks, in this launch and the next.
    // That issue order is observable, so such an engine must still be
    // visited. The pinned values were recorded when every engine was
    // ticked on every loop iteration.
    let rays = grid_rays(128);
    let cfg = RtaConfig {
        prefetch_children: true,
        ..RtaConfig::baseline()
    };
    let mode = RayQueryMode::ClosestHit;
    let mut s = setup_with(tri_scene(), &rays, LeafGeometry::TRIANGLE, mode, cfg);
    s.gpu.perfect_node_fetch = true;
    let kernel = traverse_kernel();
    let mut launches = Vec::new();
    let mut issued = 0;
    for launch in 0..2 {
        let stats = s.gpu.launch(
            &kernel,
            s.n_rays,
            &[s.query_base as u32, s.root_addr as u32],
        );
        let prefetches = AccelReport::harvest(&s.gpu)
            .expect("engines attached")
            .engine
            .prefetches;
        launches.push((stats.cycles, prefetches - issued));
        issued = prefetches;
        if launch == 0 {
            for sm in 0..s.gpu.cfg.num_sms {
                let engine = s.gpu.accelerator(sm).expect("attached");
                let state = engine.export_state();
                let queued = state.entry("prefetch_queue").unwrap();
                assert!(
                    !engine.busy() && !queued.as_list("prefetch_queue").unwrap().is_empty(),
                    "engine {sm} must end the launch drained with prefetches queued"
                );
            }
        }
    }
    for (i, r) in rays.iter().enumerate() {
        let (t, ..) = read_ray_result(&s.gpu.gmem, s.query_base + (i * RAY_RECORD_SIZE) as u64);
        assert_eq!(t.is_finite(), s.bvh.closest_hit(r).0.is_some(), "ray {i}");
    }
    assert_eq!(launches, vec![(1036, 237), (1050, 301)]);
}
