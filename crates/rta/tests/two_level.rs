//! End-to-end test: two-level instanced traversal on the RTA must match the
//! host oracle and must exercise the R-XFORM transform unit.

use geometry::{Ray, Triangle, Vec3};
use gpu_sim::isa::SReg;
use gpu_sim::kernel::{Kernel, KernelBuilder};
use gpu_sim::{Gpu, GpuConfig};
use trees::two_level::{Instance, TwoLevelScene};
use trees::BvhPrimitive;
use tta_rta::bvh_semantics::{read_ray_result, write_ray_record, RAY_RECORD_SIZE};
use tta_rta::two_level_semantics::TwoLevelSemantics;
use tta_rta::units::{FixedFunctionBackend, TestKind};
use tta_rta::{AccelReport, RtaConfig, TraversalEngine};

fn traverse_kernel() -> Kernel {
    let mut k = KernelBuilder::new("trace2l");
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

fn blas(z: f32, n: usize) -> Vec<BvhPrimitive> {
    (0..n)
        .map(|i| {
            let x = i as f32 * 2.0 - n as f32;
            BvhPrimitive::Triangle(Triangle::new(
                Vec3::new(x, -2.0, z),
                Vec3::new(x + 1.8, -2.0, z),
                Vec3::new(x, 2.0, z),
            ))
        })
        .collect()
}

#[test]
fn two_level_traversal_matches_oracle_and_uses_rxform() {
    let instances: Vec<Instance> = (0..12)
        .map(|i| Instance {
            translation: Vec3::new(
                (i % 4) as f32 * 25.0,
                (i / 4) as f32 * 15.0,
                (i % 3) as f32 * 4.0,
            ),
            blas: i % 2,
        })
        .collect();
    let scene = TwoLevelScene::build(vec![blas(6.0, 10), blas(11.0, 6)], instances);
    let ser = scene.serialize();

    let rays: Vec<Ray> = (0..96)
        .map(|i| {
            let x = (i % 12) as f32 * 7.0 - 4.0;
            let y = (i / 12) as f32 * 5.0 - 2.0;
            Ray::new(
                Vec3::new(x, y, -20.0),
                Vec3::new(0.01, 0.005, 1.0).normalized(),
            )
        })
        .collect();

    let mut gpu = Gpu::new(GpuConfig::small_test(), 1 << 24);
    let tree_base = gpu.gmem.alloc(ser.image.len(), 64);
    gpu.gmem.write_bytes(tree_base, ser.image.as_bytes());
    let qbase = gpu.gmem.alloc(rays.len() * RAY_RECORD_SIZE, 64);
    for (i, r) in rays.iter().enumerate() {
        write_ray_record(&mut gpu.gmem, qbase + (i * RAY_RECORD_SIZE) as u64, r);
    }
    let instance_base = tree_base + ser.instance_base as u64;
    let restore_addr = tree_base + (ser.restore_index * 64) as u64;
    gpu.attach_accelerators(move |_| {
        let cfg = RtaConfig::baseline();
        let backend = Box::new(FixedFunctionBackend::new(&cfg));
        Box::new(TraversalEngine::new(
            cfg,
            backend,
            vec![Box::new(TwoLevelSemantics {
                tree_base,
                instance_base,
                restore_addr,
                transform_test: TestKind::Transform,
            })],
        ))
    });

    let kernel = traverse_kernel();
    let _ = gpu.launch(&kernel, rays.len(), &[qbase as u32, tree_base as u32]);

    let mut hits = 0;
    for (i, r) in rays.iter().enumerate() {
        let (t, ..) = read_ray_result(&gpu.gmem, qbase + (i * RAY_RECORD_SIZE) as u64);
        let oracle = scene.closest_hit(r);
        match oracle {
            Some(h) => {
                hits += 1;
                assert!(
                    (t - h.t).abs() < 1e-3 * h.t.max(1.0),
                    "ray {i}: {t} vs {}",
                    h.t
                );
            }
            None => assert!(t.is_infinite(), "ray {i} should miss, got t={t}"),
        }
    }
    assert!(hits >= 16, "scene misconfigured: only {hits} hits");

    // The transform unit must have run (instance entry + restore per visit).
    let report = AccelReport::harvest(&gpu).expect("engines attached");
    let xform_ops = report.unit("Transform").expect("R-XFORM unit").invocations;
    assert!(xform_ops > 0, "R-XFORM never exercised");
    assert_eq!(
        xform_ops % 2,
        0,
        "every instance entry pairs with a restore"
    );
}
