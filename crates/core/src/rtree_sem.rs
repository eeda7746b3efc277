//! R-Tree range-query traversal semantics — the extension workload.
//!
//! A range query tests the query rectangle against each node's MBR; the
//! interval-overlap comparisons are exactly what the TTA's modified
//! min/max network computes, so the inner test runs on the Ray-Box unit
//! ([`rta::units::TestKind::RayBox`]) on TTA and as the Table III Ray-Box
//! program on TTA+.
//!
//! The query record is 32 bytes:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0–11  | query box min (3 × f32) |
//! | 12–23 | query box max (3 × f32) |
//! | 24–27 | **out** overlapping-entry count |
//! | 28–31 | **out** nodes visited |

use geometry::{Aabb, Vec3};
use gpu_sim::mem::GlobalMemory;
use rta::engine::{RayState, StepAction, TraversalSemantics};
use rta::units::TestKind;
use trees::image::NodeHeader;
use trees::rtree::ENTRY_STRIDE;
use trees::NODE_SIZE;

/// Byte stride of one range-query record.
pub const QUERY_RECORD_SIZE: usize = 32;

const R_MIN: usize = 0; // 0..3
const R_MAX: usize = 3; // 3..6
const R_COUNT: usize = 6;
const R_VISITED: usize = 7;

/// R-Tree range-query semantics.
#[derive(Debug, Clone)]
pub struct RTreeSemantics {
    /// Byte address of node 0.
    pub tree_base: u64,
    /// Byte address of the entry buffer (28-byte stride).
    pub entry_base: u64,
    /// Unit performing the MBR overlap test.
    pub inner_test: TestKind,
    /// Unit performing each leaf-entry overlap test.
    pub leaf_test: TestKind,
}

impl RTreeSemantics {
    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }

    fn query_box(ray: &RayState) -> Aabb {
        Aabb::new(
            Vec3::new(
                ray.reg_f32(R_MIN),
                ray.reg_f32(R_MIN + 1),
                ray.reg_f32(R_MIN + 2),
            ),
            Vec3::new(
                ray.reg_f32(R_MAX),
                ray.reg_f32(R_MAX + 1),
                ray.reg_f32(R_MAX + 2),
            ),
        )
    }

    fn read_box(gmem: &GlobalMemory, addr: u64) -> Aabb {
        let f = |w: u64| gmem.read_f32(addr + w * 4);
        Aabb::new(Vec3::new(f(0), f(1), f(2)), Vec3::new(f(3), f(4), f(5)))
    }
}

impl TraversalSemantics for RTreeSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        for i in 0..6 {
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
        let query = Self::query_box(ray);
        let mbr = Self::read_box(gmem, node + 8);

        if header.is_leaf() {
            let count = header.count as u64;
            let first = gmem.read_u32(node + 4) as u64;
            if ray.phase == 0 {
                ray.regs[R_VISITED] += 1;
                if !mbr.overlaps(&query) {
                    // Pruned without touching the entry buffer.
                    tests.push(self.inner_test);
                    return StepAction::Test { terminate: false };
                }
                return StepAction::Fetch(
                    self.entry_base + first * ENTRY_STRIDE as u64,
                    (count * ENTRY_STRIDE as u64) as u32,
                );
            }
            for e in first..first + count {
                let rect = Self::read_box(gmem, self.entry_base + e * ENTRY_STRIDE as u64);
                if rect.overlaps(&query) {
                    ray.regs[R_COUNT] += 1;
                }
            }
            tests.extend(std::iter::repeat_n(self.leaf_test, count as usize));
            return StepAction::Test { terminate: false };
        }

        // Inner node: one MBR overlap test; descend only on overlap.
        ray.regs[R_VISITED] += 1;
        if mbr.overlaps(&query) {
            let first = gmem.read_u32(node + 4);
            ray.stack
                .extend((0..header.count as u32).map(|i| self.node_addr(first + i)));
        }
        tests.push(self.inner_test);
        StepAction::Test { terminate: false }
    }

    fn prefetch_hints(&self, gmem: &GlobalMemory, node_addr: u64, hints: &mut Vec<u64>) {
        let header = NodeHeader::unpack(gmem.read_u32(node_addr));
        if !header.is_leaf() {
            let first = gmem.read_u32(node_addr + 4);
            hints.extend((0..header.count as u32).map(|i| self.node_addr(first + i)));
        }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        gmem.write_u32(ray.query_addr + 24, ray.regs[R_COUNT]);
        gmem.write_u32(ray.query_addr + 28, ray.regs[R_VISITED]);
        8
    }
}

/// Writes a range-query record.
pub fn write_range_record(gmem: &mut GlobalMemory, addr: u64, query: &Aabb) {
    for (i, v) in [
        query.min.x,
        query.min.y,
        query.min.z,
        query.max.x,
        query.max.y,
        query.max.z,
    ]
    .into_iter()
    .enumerate()
    {
        gmem.write_f32(addr + i as u64 * 4, v);
    }
    gmem.write_u32(addr + 24, 0);
    gmem.write_u32(addr + 28, 0);
}

/// Reads the result: `(overlap_count, nodes_visited)`.
pub fn read_range_result(gmem: &GlobalMemory, addr: u64) -> (u32, u32) {
    (gmem.read_u32(addr + 24), gmem.read_u32(addr + 28))
}
