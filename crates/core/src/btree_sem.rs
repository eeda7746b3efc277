//! B-Tree query traversal semantics (the paper's flagship TTA workload).
//!
//! The query record is 16 bytes:
//!
//! | bytes | field |
//! |-------|-------|
//! | 0–3   | query key (u32) |
//! | 4–7   | **out** found flag |
//! | 8–11  | **out** nodes visited |
//! | 12–15 | reserved |
//!
//! At each 9-wide inner node the modified Ray-Box unit performs one
//! Query-Key comparison (Algorithm 1): equality terminates the search
//! (classic B-Tree/B\*Tree only), otherwise the one-hot child selector
//! picks `first_child + i`. B+Trees route to the leaf level where a final
//! equality test decides membership.

use gpu_sim::mem::GlobalMemory;
use rta::engine::{RayState, StepAction, TraversalSemantics};
use rta::units::TestKind;
use trees::btree::{CHILD_WORD, KEYS_WORD, MAX_KEYS};
use trees::image::NodeHeader;
use trees::NODE_SIZE;

/// Byte stride of one B-Tree query record.
pub const QUERY_RECORD_SIZE: usize = 16;

const R_KEY: usize = 0;
const R_FOUND: usize = 1;
const R_VISITED: usize = 2;

/// B-Tree search semantics for the TTA.
#[derive(Debug, Clone)]
pub struct BTreeSemantics {
    /// Byte address of node 0.
    pub tree_base: u64,
    /// `true` for B+Trees: inner nodes route only (no early termination).
    pub bplus: bool,
    /// Unit performing the inner Query-Key comparison
    /// ([`TestKind::QueryKey`] on TTA, [`TestKind::Program`] on TTA+).
    pub inner_test: TestKind,
    /// Unit performing the leaf equality test.
    pub leaf_test: TestKind,
}

impl BTreeSemantics {
    fn node_addr(&self, index: u32) -> u64 {
        self.tree_base + index as u64 * NODE_SIZE as u64
    }
}

impl TraversalSemantics for BTreeSemantics {
    fn init(&self, gmem: &GlobalMemory, ray: &mut RayState) {
        ray.regs[R_KEY] = gmem.read_u32(ray.query_addr);
        ray.regs[R_FOUND] = 0;
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
        let nkeys = header.count as usize;
        debug_assert!(nkeys <= MAX_KEYS);
        let query = ray.regs[R_KEY];
        ray.regs[R_VISITED] += 1;
        if header.is_leaf() {
            for i in 0..nkeys {
                if gmem.read_u32(node + ((KEYS_WORD + i) * 4) as u64) == query {
                    ray.regs[R_FOUND] = 1;
                    break;
                }
            }
            tests.push(self.leaf_test);
            return StepAction::Test { terminate: true };
        }
        // Inner node: Algorithm 1 over up to MAX_KEYS separator keys.
        let first_child = gmem.read_u32(node + (CHILD_WORD * 4) as u64);
        let mut next = nkeys; // rightmost child by default
        let mut found = false;
        for i in 0..nkeys {
            let k = gmem.read_u32(node + ((KEYS_WORD + i) * 4) as u64);
            if !self.bplus && query == k {
                found = true;
                break;
            }
            if query < k {
                next = i;
                break;
            }
        }
        tests.push(self.inner_test);
        if found {
            ray.regs[R_FOUND] = 1;
            return StepAction::Test { terminate: true };
        }
        ray.stack.push(self.node_addr(first_child + next as u32));
        StepAction::Test { terminate: false }
    }

    fn prefetch_hints(&self, gmem: &GlobalMemory, node_addr: u64, hints: &mut Vec<u64>) {
        let header = NodeHeader::unpack(gmem.read_u32(node_addr));
        if !header.is_leaf() {
            let first = gmem.read_u32(node_addr + (CHILD_WORD * 4) as u64);
            hints.extend((0..=header.count as u32).map(|i| self.node_addr(first + i)));
        }
    }

    fn finish(&self, gmem: &mut GlobalMemory, ray: &RayState) -> u32 {
        gmem.write_u32(ray.query_addr + 4, ray.regs[R_FOUND]);
        gmem.write_u32(ray.query_addr + 8, ray.regs[R_VISITED]);
        8
    }
}

/// Writes a query key into a record slot.
pub fn write_query_record(gmem: &mut GlobalMemory, addr: u64, key: u32) {
    gmem.write_u32(addr, key);
    gmem.write_u32(addr + 4, 0);
    gmem.write_u32(addr + 8, 0);
    gmem.write_u32(addr + 12, 0);
}

/// Reads the result of a query record: `(found, nodes_visited)`.
pub fn read_query_result(gmem: &GlobalMemory, addr: u64) -> (bool, u32) {
    (gmem.read_u32(addr + 4) != 0, gmem.read_u32(addr + 8))
}
