//! Baseline ray-tracing traversal semantics: BVH with Ray-Box inner tests
//! and Ray-Triangle (or intersection-shader Ray-Sphere) leaf tests.
//!
//! The 48-byte ray record layout (matching the `DecodeR` configuration a
//! Vulkan app would declare):
//!
//! | bytes  | field |
//! |--------|-------|
//! | 0–11   | origin (3 × f32) |
//! | 12–23  | direction (3 × f32) |
//! | 24–27  | tmin |
//! | 28–31  | tmax |
//! | 32–35  | **out** hit distance (f32; +inf if miss) |
//! | 36–39  | **out** primitive id (u32::MAX if miss) |
//! | 40–43  | **out** barycentric u |
//! | 44–47  | **out** barycentric v |

use geometry::{intersect, Aabb, Ray, Sphere, Triangle, Vec3};
use gpu_sim::mem::GlobalMemory;
use trees::image::NodeHeader;
use trees::NODE_SIZE;

use crate::engine::{RayState, StepAction, TraversalSemantics};
use crate::units::TestKind;

/// Byte stride of one ray record.
pub const RAY_RECORD_SIZE: usize = 48;
/// Byte offset of the output section within a ray record.
pub const RAY_RECORD_OUT: usize = 32;

// Ray-register assignment inside the warp buffer.
const R_ORIGIN: usize = 0; // 0..3
const R_DIR: usize = 3; // 3..6
const R_TMIN: usize = 6;
const R_TMAX: usize = 7; // shrinks on closest-hit
const R_BEST_T: usize = 8;
const R_BEST_PRIM: usize = 9;
const R_BEST_U: usize = 10;
const R_BEST_V: usize = 11;
const R_HIT_FLAG: usize = 12;

/// Traversal mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RayQueryMode {
    /// Find the nearest hit (primary/secondary rays).
    ClosestHit,
    /// Stop at the first accepted hit (shadow rays).
    AnyHit,
}

/// What the leaf primitives are and which unit tests them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafGeometry {
    /// 36-byte triangles; `test` is normally [`TestKind::RayTriangle`] but
    /// alpha-masked geometry routes through the intersection shader.
    Triangle {
        /// Unit that performs the Ray-Triangle test.
        test: TestKind,
    },
    /// 16-byte spheres; `test` chooses the path: the baseline RTA uses
    /// [`TestKind::IntersectionShader`], TTA+ a [`TestKind::Program`].
    Sphere {
        /// Unit that performs the Ray-Sphere test.
        test: TestKind,
    },
}

impl LeafGeometry {
    /// Plain hardware-tested triangles.
    pub const TRIANGLE: LeafGeometry = LeafGeometry::Triangle {
        test: TestKind::RayTriangle,
    };
}

/// Ray-tracing BVH traversal semantics.
///
/// One instance describes one scene + pipeline configuration; it is shared
/// by every ray of every warp the engine processes.
#[derive(Debug, Clone)]
pub struct BvhSemantics {
    /// Byte address of node 0 in GPU memory.
    pub tree_base: u64,
    /// Byte address of the primitive buffer.
    pub prim_base: u64,
    /// Primitive kind and leaf test routing.
    pub leaf: LeafGeometry,
    /// Closest-hit or any-hit.
    pub mode: RayQueryMode,
    /// Surface-area traversal ordering for any-hit rays (the SATO
    /// optimisation enabled by TTA+; must not be used on the baseline RTA).
    pub sato: bool,
}

impl BvhSemantics {
    fn prim_stride(&self) -> u64 {
        match self.leaf {
            LeafGeometry::Triangle { .. } => 36,
            LeafGeometry::Sphere { .. } => 16,
        }
    }

    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }

    fn read_box(gmem: &GlobalMemory, node: u64, first_word: usize) -> Aabb {
        let f = |w: usize| gmem.read_f32(node + (first_word + w) as u64 * 4);
        Aabb::new(Vec3::new(f(0), f(1), f(2)), Vec3::new(f(3), f(4), f(5)))
    }

    fn ray_of(ray: &RayState) -> Ray {
        Ray::with_interval(
            Vec3::new(
                ray.reg_f32(R_ORIGIN),
                ray.reg_f32(R_ORIGIN + 1),
                ray.reg_f32(R_ORIGIN + 2),
            ),
            Vec3::new(
                ray.reg_f32(R_DIR),
                ray.reg_f32(R_DIR + 1),
                ray.reg_f32(R_DIR + 2),
            ),
            ray.reg_f32(R_TMIN),
            ray.reg_f32(R_TMAX),
        )
    }
}

impl TraversalSemantics for BvhSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        for i in 0..8 {
            ray.regs[i] = gmem.read_u32(ray.query_addr + i as u64 * 4);
        }
        ray.set_reg_f32(R_BEST_T, f32::INFINITY);
        ray.regs[R_BEST_PRIM] = u32::MAX;
        ray.set_reg_f32(R_BEST_U, 0.0);
        ray.set_reg_f32(R_BEST_V, 0.0);
        ray.regs[R_HIT_FLAG] = 0;
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
        if !header.is_leaf() {
            let r = Self::ray_of(ray);
            let left = self.node_addr(gmem.read_u32(node + 4));
            let right = self.node_addr(gmem.read_u32(node + 14 * 4));
            let lb = Self::read_box(gmem, node, 2);
            let rb = Self::read_box(gmem, node, 8);
            let lh = intersect::ray_aabb(&r, &lb, r.tmin, r.tmax);
            let rh = intersect::ray_aabb(&r, &rb, r.tmin, r.tmax);
            // Push order: next-to-visit goes last.
            let children = &mut ray.stack;
            match (lh, rh) {
                (Some(l), Some(rr)) => {
                    let near_first = if self.sato && self.mode == RayQueryMode::AnyHit {
                        // SATO: visit the child holding more geometry area
                        // first (the serialized word-15 score).
                        gmem.read_f32(node + 15 * 4) >= 0.5
                    } else {
                        l.t_enter <= rr.t_enter
                    };
                    if near_first {
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
            // One Ray-Box issue tests the node's two child boxes (the unit
            // is node-wide; Table III bills one 19-μop inner test per node).
            tests.push(TestKind::RayBox);
            StepAction::Test { terminate: false }
        } else {
            let count = header.count as u64;
            let first = gmem.read_u32(node + 4) as u64;
            let stride = self.prim_stride();
            if ray.phase == 0 {
                return StepAction::Fetch(self.prim_base + first * stride, (count * stride) as u32);
            }
            // Primitive data available: run the leaf tests functionally.
            let r = Self::ray_of(ray);
            let mut hit_any = false;
            for p in first..first + count {
                let base = self.prim_base + p * stride;
                let f = |w: u64| gmem.read_f32(base + w * 4);
                let hit = match self.leaf {
                    LeafGeometry::Triangle { .. } => {
                        let tri = Triangle::new(
                            Vec3::new(f(0), f(1), f(2)),
                            Vec3::new(f(3), f(4), f(5)),
                            Vec3::new(f(6), f(7), f(8)),
                        );
                        intersect::ray_triangle(&r, &tri).map(|h| (h.t, h.u, h.v))
                    }
                    LeafGeometry::Sphere { .. } => {
                        let s = Sphere::new(Vec3::new(f(0), f(1), f(2)), f(3));
                        intersect::ray_sphere(&r, &s).map(|h| (h.t, 0.0, 0.0))
                    }
                };
                if let Some((t, u, v)) = hit {
                    if t < ray.reg_f32(R_BEST_T) {
                        ray.set_reg_f32(R_BEST_T, t);
                        ray.regs[R_BEST_PRIM] = p as u32;
                        ray.set_reg_f32(R_BEST_U, u);
                        ray.set_reg_f32(R_BEST_V, v);
                        ray.set_reg_f32(R_TMAX, t); // closest-hit pruning
                        ray.regs[R_HIT_FLAG] = 1;
                        hit_any = true;
                    }
                }
            }
            let test_kind = match self.leaf {
                LeafGeometry::Triangle { test } | LeafGeometry::Sphere { test } => test,
            };
            tests.extend(std::iter::repeat_n(test_kind, count as usize));
            StepAction::Test {
                terminate: self.mode == RayQueryMode::AnyHit && hit_any,
            }
        }
    }

    fn prefetch_hints(&self, gmem: &GlobalMemory, node_addr: u64, hints: &mut Vec<u64>) {
        if !NodeHeader::unpack(gmem.read_u32(node_addr)).is_leaf() {
            hints.push(self.node_addr(gmem.read_u32(node_addr + 4)));
            hints.push(self.node_addr(gmem.read_u32(node_addr + 14 * 4)));
        }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        let out = ray.query_addr + RAY_RECORD_OUT as u64;
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

/// Writes a ray into a query-record buffer slot.
pub fn write_ray_record(gmem: &mut GlobalMemory, addr: u64, ray: &Ray) {
    for (i, v) in [
        ray.origin.x,
        ray.origin.y,
        ray.origin.z,
        ray.dir.x,
        ray.dir.y,
        ray.dir.z,
        ray.tmin,
        ray.tmax,
    ]
    .into_iter()
    .enumerate()
    {
        gmem.write_f32(addr + i as u64 * 4, v);
    }
    gmem.write_f32(addr + 32, f32::INFINITY);
    gmem.write_u32(addr + 36, u32::MAX);
    gmem.write_f32(addr + 40, 0.0);
    gmem.write_f32(addr + 44, 0.0);
}

/// Reads the result section of a ray record: `(t, prim, u, v)`.
pub fn read_ray_result(gmem: &GlobalMemory, addr: u64) -> (f32, u32, f32, f32) {
    (
        gmem.read_f32(addr + 32),
        gmem.read_u32(addr + 36),
        gmem.read_f32(addr + 40),
        gmem.read_f32(addr + 44),
    )
}
