//! Barnes-Hut N-Body traversal semantics.
//!
//! The query record is 32 bytes:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0–11  | query position (3 × f32) |
//! | 12–15 | opening angle θ |
//! | 16–27 | **out** accumulated force (3 × f32) |
//! | 28–31 | **out** nodes visited |
//!
//! Inner nodes run the Point-to-Point distance test of Algorithm 2 with
//! `threshold = cell_width / θ` (supported by both TTA and TTA+). Force
//! accumulation — for far cells approximated by their centre of mass, and
//! for every particle of a visited leaf — needs a square root, so on TTA it
//! bounces to the cores as a shader callback while TTA+ executes the
//! 5-μop force program (Table III) on its OP units. This asymmetry is
//! exactly the paper's "leaf nodes require the SQRT operation only
//! accelerated on TTA+".

use geometry::Vec3;
use gpu_sim::mem::GlobalMemory;
use rta::engine::{RayState, StepAction, TraversalSemantics};
use rta::units::TestKind;
use trees::barnes_hut::{G, PARTICLE_STRIDE, SOFTENING};
use trees::image::NodeHeader;
use trees::NODE_SIZE;

/// Byte stride of one N-Body query record.
pub const QUERY_RECORD_SIZE: usize = 32;

const R_POS: usize = 0; // 0..3
const R_THETA: usize = 3;
const R_FORCE: usize = 4; // 4..7
const R_VISITED: usize = 7;

/// Barnes-Hut force-walk semantics.
#[derive(Debug, Clone)]
pub struct BarnesHutSemantics {
    /// Byte address of node 0.
    pub tree_base: u64,
    /// Byte address of the particle buffer.
    pub particle_base: u64,
    /// Unit performing the opening test ([`TestKind::PointToPoint`] on
    /// TTA, a [`TestKind::Program`] on TTA+).
    pub open_test: TestKind,
    /// Unit performing each force accumulation
    /// ([`TestKind::IntersectionShader`] on TTA — the SQRT lives on the
    /// cores — or the force [`TestKind::Program`] on TTA+).
    pub force_test: TestKind,
}

impl BarnesHutSemantics {
    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }

    fn accumulate(ray: &mut RayState, target: Vec3, mass: f32) {
        let pos = Vec3::new(
            ray.reg_f32(R_POS),
            ray.reg_f32(R_POS + 1),
            ray.reg_f32(R_POS + 2),
        );
        let delta = target - pos;
        let r2 = delta.length_squared() + SOFTENING * SOFTENING;
        if r2 <= SOFTENING * SOFTENING * 1.5 {
            return; // self-interaction guard
        }
        let inv_r = 1.0 / r2.sqrt();
        let f = delta * (G * mass * inv_r * inv_r * inv_r);
        ray.set_reg_f32(R_FORCE, ray.reg_f32(R_FORCE) + f.x);
        ray.set_reg_f32(R_FORCE + 1, ray.reg_f32(R_FORCE + 1) + f.y);
        ray.set_reg_f32(R_FORCE + 2, ray.reg_f32(R_FORCE + 2) + f.z);
    }
}

impl TraversalSemantics for BarnesHutSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        for i in 0..4 {
            ray.regs[i] = gmem.read_u32(ray.query_addr + i as u64 * 4);
        }
        ray.set_reg_f32(R_FORCE, 0.0);
        ray.set_reg_f32(R_FORCE + 1, 0.0);
        ray.set_reg_f32(R_FORCE + 2, 0.0);
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
        let com = Vec3::new(
            gmem.read_f32(node + 8),
            gmem.read_f32(node + 12),
            gmem.read_f32(node + 16),
        );
        let mass = gmem.read_f32(node + 20);
        let width = gmem.read_f32(node + 24);

        if header.is_leaf() {
            let count = header.count as u64;
            let first = gmem.read_u32(node + 4) as u64;
            if ray.phase == 0 {
                ray.regs[R_VISITED] += 1;
                return StepAction::Fetch(
                    self.particle_base + first * PARTICLE_STRIDE as u64,
                    (count * PARTICLE_STRIDE as u64) as u32,
                );
            }
            // Direct sum over the leaf's particles: one force op each.
            for i in first..first + count {
                let base = self.particle_base + i * PARTICLE_STRIDE as u64;
                let p = Vec3::new(
                    gmem.read_f32(base),
                    gmem.read_f32(base + 4),
                    gmem.read_f32(base + 8),
                );
                let m = gmem.read_f32(base + 12);
                Self::accumulate(ray, p, m);
            }
            tests.extend(std::iter::repeat_n(self.force_test, count as usize));
            return StepAction::Test { terminate: false };
        }

        // Inner node: the opening test (Algorithm 2).
        ray.regs[R_VISITED] += 1;
        let pos = Vec3::new(
            ray.reg_f32(R_POS),
            ray.reg_f32(R_POS + 1),
            ray.reg_f32(R_POS + 2),
        );
        let theta = ray.reg_f32(R_THETA);
        let d2 = com.distance_squared(pos) + SOFTENING * SOFTENING;
        let threshold = width / theta;
        let open = d2 < threshold * threshold;
        tests.push(self.open_test);
        if open {
            let first_child = gmem.read_u32(node + 4);
            let count = header.count as u32;
            ray.stack
                .extend((0..count).map(|i| self.node_addr(first_child + i)));
        } else {
            // Far cell: one centre-of-mass force accumulation.
            Self::accumulate(ray, com, mass);
            tests.push(self.force_test);
        }
        StepAction::Test { terminate: false }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        gmem.write_f32(ray.query_addr + 16, ray.reg_f32(R_FORCE));
        gmem.write_f32(ray.query_addr + 20, ray.reg_f32(R_FORCE + 1));
        gmem.write_f32(ray.query_addr + 24, ray.reg_f32(R_FORCE + 2));
        gmem.write_u32(ray.query_addr + 28, ray.regs[R_VISITED]);
        16
    }
}

/// Writes an N-Body query record.
pub fn write_nbody_record(gmem: &mut GlobalMemory, addr: u64, pos: Vec3, theta: f32) {
    gmem.write_f32(addr, pos.x);
    gmem.write_f32(addr + 4, pos.y);
    gmem.write_f32(addr + 8, pos.z);
    gmem.write_f32(addr + 12, theta);
    for off in (16..32).step_by(4) {
        gmem.write_u32(addr + off, 0);
    }
}

/// Reads the result force and visit count: `(force, nodes_visited)`.
pub fn read_nbody_result(gmem: &GlobalMemory, addr: u64) -> (Vec3, u32) {
    (
        Vec3::new(
            gmem.read_f32(addr + 16),
            gmem.read_f32(addr + 20),
            gmem.read_f32(addr + 24),
        ),
        gmem.read_u32(addr + 28),
    )
}
