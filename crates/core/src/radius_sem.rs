//! RTNN-style radius search semantics.
//!
//! RTNN maps neighbour search onto the ray-tracing pipeline: points become
//! spheres of the search radius, the BVH's inflated AABBs are tested on the
//! Ray-Box unit, and the exact distance check runs — on the baseline RTA —
//! in an *intersection shader* on the cores. The paper's \*RTNN
//! optimisation replaces that shader with the TTA Point-to-Point unit
//! (or the 5-μop TTA+ program), which is what [`RadiusSearchSemantics`]
//! parameterises via `leaf_test`.
//!
//! The query record is 32 bytes:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0–11  | query point (3 × f32) |
//! | 12–15 | search radius |
//! | 16–19 | **out** neighbour count |
//! | 20–23 | **out** nodes visited |
//! | 24–31 | reserved |

use geometry::{Aabb, Vec3};
use gpu_sim::mem::GlobalMemory;
use rta::engine::{RayState, StepAction, TraversalSemantics};
use rta::units::TestKind;
use trees::bvh::SPHERE_STRIDE;
use trees::image::NodeHeader;
use trees::NODE_SIZE;

/// Byte stride of one radius-search query record.
pub const QUERY_RECORD_SIZE: usize = 32;

const R_POS: usize = 0; // 0..3
const R_RADIUS: usize = 3;
const R_COUNT: usize = 4;
const R_VISITED: usize = 5;

/// Radius-search traversal over a sphere BVH.
#[derive(Debug, Clone)]
pub struct RadiusSearchSemantics {
    /// Byte address of node 0 of the sphere BVH.
    pub tree_base: u64,
    /// Byte address of the sphere buffer (16-byte stride).
    pub prim_base: u64,
    /// Unit performing the inner AABB test (always [`TestKind::RayBox`] —
    /// RTNN's whole trick is reusing the hardware box test).
    pub inner_test: TestKind,
    /// Unit performing the per-point distance check:
    /// [`TestKind::IntersectionShader`] (baseline RTNN),
    /// [`TestKind::PointToPoint`] (\*RTNN on TTA), or a
    /// [`TestKind::Program`] (\*RTNN on TTA+).
    pub leaf_test: TestKind,
}

impl RadiusSearchSemantics {
    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }

    fn read_box(gmem: &GlobalMemory, node: u64, first_word: usize) -> Aabb {
        let f = |w: usize| gmem.read_f32(node + (first_word + w) as u64 * 4);
        Aabb::new(Vec3::new(f(0), f(1), f(2)), Vec3::new(f(3), f(4), f(5)))
    }
}

impl TraversalSemantics for RadiusSearchSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        for i in 0..4 {
            ray.regs[i] = gmem.read_u32(ray.query_addr + i as u64 * 4);
        }
        ray.regs[R_COUNT] = 0;
        ray.regs[R_VISITED] = 0;
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
        let pos = Vec3::new(
            ray.reg_f32(R_POS),
            ray.reg_f32(R_POS + 1),
            ray.reg_f32(R_POS + 2),
        );
        let radius = ray.reg_f32(R_RADIUS);

        if header.is_leaf() {
            let count = header.count as u64;
            let first = gmem.read_u32(node + 4) as u64;
            if ray.phase == 0 {
                ray.regs[R_VISITED] += 1;
                return StepAction::Fetch(
                    self.prim_base + first * SPHERE_STRIDE as u64,
                    (count * SPHERE_STRIDE as u64) as u32,
                );
            }
            let r2 = radius * radius;
            for p in first..first + count {
                let base = self.prim_base + p * SPHERE_STRIDE as u64;
                let c = Vec3::new(
                    gmem.read_f32(base),
                    gmem.read_f32(base + 4),
                    gmem.read_f32(base + 8),
                );
                if c.distance_squared(pos) <= r2 {
                    ray.regs[R_COUNT] += 1;
                }
            }
            tests.extend(std::iter::repeat_n(self.leaf_test, count as usize));
            return StepAction::Test { terminate: false };
        }

        // Inner node: test the query point against both (inflated) child
        // boxes on the Ray-Box unit.
        ray.regs[R_VISITED] += 1;
        let left = self.node_addr(gmem.read_u32(node + 4));
        let right = self.node_addr(gmem.read_u32(node + 14 * 4));
        let lb = Self::read_box(gmem, node, 2);
        let rb = Self::read_box(gmem, node, 8);
        // The BVH's boxes are inflated by the sphere radius, so containment
        // of the query point is the exact pruning test (q within r of p
        // implies q inside p's inflated box).
        if rb.contains(pos) {
            ray.stack.push(right);
        }
        if lb.contains(pos) {
            ray.stack.push(left);
        }
        tests.push(self.inner_test);
        StepAction::Test { terminate: false }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        gmem.write_u32(ray.query_addr + 16, ray.regs[R_COUNT]);
        gmem.write_u32(ray.query_addr + 20, ray.regs[R_VISITED]);
        8
    }
}

/// Writes a radius-search query record.
pub fn write_radius_record(gmem: &mut GlobalMemory, addr: u64, point: Vec3, radius: f32) {
    gmem.write_f32(addr, point.x);
    gmem.write_f32(addr + 4, point.y);
    gmem.write_f32(addr + 8, point.z);
    gmem.write_f32(addr + 12, radius);
    for off in (16..32).step_by(4) {
        gmem.write_u32(addr + off, 0);
    }
}

/// Reads the result: `(neighbour_count, nodes_visited)`.
pub fn read_radius_result(gmem: &GlobalMemory, addr: u64) -> (u32, u32) {
    (gmem.read_u32(addr + 16), gmem.read_u32(addr + 20))
}
