//! Two-level (TLAS/BLAS) ray-tracing semantics: instanced traversal with
//! ray transforms on the R-XFORM unit.
//!
//! Table III notes that the two-level workloads "require an R-XFORM μop
//! between the levels": entering an instance transforms the ray into object
//! space; a restore pseudo-node popped after the BLAS subtree undoes it.
//! The translation state lives in the three spare warp-buffer ray registers
//! (RR13–RR15), which is why instances are translations (a full 3×4 matrix
//! would not fit the 64-byte entry — the same constraint real warp buffers
//! impose).
//!
//! Ray records use the 48-byte layout of [`crate::bvh_semantics`]; the
//! reported "primitive id" is the image-relative byte offset of the hit
//! triangle (BLAS-local indices are not globally unique).

use geometry::{intersect, Aabb, Ray, Triangle, Vec3};
use gpu_sim::mem::GlobalMemory;
use trees::bvh::TRIANGLE_STRIDE;
use trees::image::NodeHeader;
use trees::two_level::{INSTANCE_STRIDE, KIND_INSTANCE, KIND_RESTORE};
use trees::NODE_SIZE;

use crate::engine::{RayState, StepAction, TraversalSemantics};
use crate::units::TestKind;

const R_ORIGIN: usize = 0;
const R_DIR: usize = 3;
const R_TMIN: usize = 6;
const R_TMAX: usize = 7;
const R_BEST_T: usize = 8;
const R_BEST_PRIM: usize = 9;
const R_BEST_U: usize = 10;
const R_BEST_V: usize = 11;
const R_HIT_FLAG: usize = 12;
const R_XLATE: usize = 13; // 13..16: current instance translation

/// Two-level instanced-scene traversal semantics (closest hit, triangles).
#[derive(Debug, Clone)]
pub struct TwoLevelSemantics {
    /// Byte address of the scene image (node 0 = TLAS root).
    pub tree_base: u64,
    /// Byte address of the instance table.
    pub instance_base: u64,
    /// Byte address of the transform-restore pseudo-node.
    pub restore_addr: u64,
    /// Unit for the per-level ray transform (normally
    /// [`TestKind::Transform`]; a TTA+ program id works too).
    pub transform_test: TestKind,
}

impl TwoLevelSemantics {
    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }

    /// The ray in the *current* space (object space inside a BLAS).
    fn local_ray(ray: &RayState) -> Ray {
        let xl = Vec3::new(
            ray.reg_f32(R_XLATE),
            ray.reg_f32(R_XLATE + 1),
            ray.reg_f32(R_XLATE + 2),
        );
        Ray::with_interval(
            Vec3::new(
                ray.reg_f32(R_ORIGIN),
                ray.reg_f32(R_ORIGIN + 1),
                ray.reg_f32(R_ORIGIN + 2),
            ) - xl,
            Vec3::new(
                ray.reg_f32(R_DIR),
                ray.reg_f32(R_DIR + 1),
                ray.reg_f32(R_DIR + 2),
            ),
            ray.reg_f32(R_TMIN),
            ray.reg_f32(R_TMAX),
        )
    }

    fn read_box(gmem: &GlobalMemory, node: u64, first_word: usize) -> Aabb {
        let f = |w: usize| gmem.read_f32(node + (first_word + w) as u64 * 4);
        Aabb::new(Vec3::new(f(0), f(1), f(2)), Vec3::new(f(3), f(4), f(5)))
    }
}

impl TraversalSemantics for TwoLevelSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        for i in 0..8 {
            ray.regs[i] = gmem.read_u32(ray.query_addr + i as u64 * 4);
        }
        ray.set_reg_f32(R_BEST_T, f32::INFINITY);
        ray.regs[R_BEST_PRIM] = u32::MAX;
        ray.set_reg_f32(R_BEST_U, 0.0);
        ray.set_reg_f32(R_BEST_V, 0.0);
        ray.regs[R_HIT_FLAG] = 0;
        for i in 0..3 {
            ray.set_reg_f32(R_XLATE + i, 0.0);
        }
        ray.stack.push(ray.root_addr);
    }

    fn step(
        &self,
        gmem: &GlobalMemory,
        ray: &mut RayState,
        tests: &mut Vec<TestKind>,
    ) -> StepAction {
        let node = ray.current_node;
        let header = NodeHeader::unpack(gmem.read_u32(node));
        match header.kind {
            NodeHeader::KIND_INNER => {
                let r = Self::local_ray(ray);
                let left = self.node_addr(gmem.read_u32(node + 4));
                let right = self.node_addr(gmem.read_u32(node + 14 * 4));
                let lb = Self::read_box(gmem, node, 2);
                let rb = Self::read_box(gmem, node, 8);
                let lh = intersect::ray_aabb(&r, &lb, r.tmin, r.tmax);
                let rh = intersect::ray_aabb(&r, &rb, r.tmin, r.tmax);
                let children = &mut ray.stack;
                match (lh, rh) {
                    (Some(l), Some(rr)) => {
                        if l.t_enter <= rr.t_enter {
                            children.push(right);
                            children.push(left);
                        } else {
                            children.push(left);
                            children.push(right);
                        }
                    }
                    (Some(_), None) => children.push(left),
                    (None, Some(_)) => children.push(right),
                    (None, None) => {}
                }
                tests.push(TestKind::RayBox);
            }
            NodeHeader::KIND_LEAF => {
                let count = header.count as u64;
                // BLAS leaves carry the image-relative prim byte offset.
                let prim_off = gmem.read_u32(node + 4) as u64;
                if ray.phase == 0 {
                    return StepAction::Fetch(
                        self.tree_base + prim_off,
                        (count * TRIANGLE_STRIDE as u64) as u32,
                    );
                }
                let r = Self::local_ray(ray);
                for p in 0..count {
                    let base = self.tree_base + prim_off + p * TRIANGLE_STRIDE as u64;
                    let f = |w: u64| gmem.read_f32(base + w * 4);
                    let tri = Triangle::new(
                        Vec3::new(f(0), f(1), f(2)),
                        Vec3::new(f(3), f(4), f(5)),
                        Vec3::new(f(6), f(7), f(8)),
                    );
                    if let Some(h) = intersect::ray_triangle(&r, &tri) {
                        if h.t < ray.reg_f32(R_BEST_T) {
                            ray.set_reg_f32(R_BEST_T, h.t);
                            ray.regs[R_BEST_PRIM] = (prim_off + p * TRIANGLE_STRIDE as u64) as u32;
                            ray.set_reg_f32(R_BEST_U, h.u);
                            ray.set_reg_f32(R_BEST_V, h.v);
                            ray.set_reg_f32(R_TMAX, h.t);
                            ray.regs[R_HIT_FLAG] = 1;
                        }
                    }
                }
                tests.extend(std::iter::repeat_n(TestKind::RayTriangle, count as usize));
            }
            KIND_INSTANCE => {
                // Enter the instance: load its translation, transform the
                // ray on the R-XFORM unit, and descend into the BLAS with a
                // restore marker queued behind it.
                let instance = gmem.read_u32(node + 4) as u64;
                let entry = self.instance_base + instance * INSTANCE_STRIDE as u64;
                for i in 0..3 {
                    ray.regs[R_XLATE + i] = gmem.read_u32(entry + i as u64 * 4);
                }
                let blas_root = self.node_addr(gmem.read_u32(entry + 12));
                ray.stack.extend([self.restore_addr, blas_root]);
                tests.push(self.transform_test);
            }
            KIND_RESTORE => {
                // Leave the instance: restore the world-space ray.
                for i in 0..3 {
                    ray.set_reg_f32(R_XLATE + i, 0.0);
                }
                tests.push(self.transform_test);
            }
            other => panic!("unknown two-level node kind {other}"),
        }
        StepAction::Test { terminate: false }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        let out = ray.query_addr + 32;
        let best_t = if ray.regs[R_HIT_FLAG] != 0 {
            ray.reg_f32(R_BEST_T)
        } else {
            f32::INFINITY
        };
        gmem.write_f32(out, best_t);
        gmem.write_u32(out + 4, ray.regs[R_BEST_PRIM]);
        gmem.write_f32(out + 8, ray.reg_f32(R_BEST_U));
        gmem.write_f32(out + 12, ray.reg_f32(R_BEST_V));
        16
    }
}
