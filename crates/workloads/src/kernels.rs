//! Baseline ("CUDA") SIMT kernels, hand-written in the simulator's mini-ISA.
//!
//! These are the non-accelerated implementations every speedup in Fig. 12
//! is measured against. They follow the standard GPU formulations — one
//! thread per query, while-while traversal with an in-memory stack [Aila &
//! Laine 2009] — so control-flow divergence (different trip counts and exit
//! points per lane) and memory divergence (each lane chasing its own node
//! chain) emerge from the algorithm itself, not from tuning constants.
//!
//! Launch-parameter convention (see [`params`]):
//!
//! | param | meaning |
//! |-------|---------|
//! | 0 | query-record buffer base |
//! | 1 | tree base (= root node address) |
//! | 2 | per-thread stack buffer base (kernels that need one) |
//! | 3 | auxiliary data base (primitives / particles) |
//!
//! [`shipped_kernels`] is the one table of every kernel the workspace
//! ships: each row states the kernel's memory contracts and cost facts.

use gpu_sim::absint::{AccessMode, ContractLen, MemContract, TripFact};
use gpu_sim::isa::{Cmp, Reg, SReg};
use gpu_sim::kernel::{Kernel, KernelBuilder, LoopToken};
use rta::bvh_semantics::RAY_RECORD_SIZE;
use trees::btree::MAX_KEYS;
use trees::rtree::RTREE_FANOUT;
use tta::btree_sem::QUERY_RECORD_SIZE as BTREE_RECORD;
use tta::nbody_sem::QUERY_RECORD_SIZE as NBODY_RECORD;
use tta::rtree_sem::QUERY_RECORD_SIZE as RTREE_RECORD;

use crate::cost::Walk;
use crate::nbody::merged_traverse_integrate_kernel;
use crate::rtree::rtree_range_kernel;

/// Launch-parameter indices shared by the traversal kernels.
pub mod params {
    /// Query-record buffer base address.
    pub const QUERIES: u8 = 0;
    /// Tree base / root node address.
    pub const TREE: u8 = 1;
    /// Per-thread traversal-stack buffer base.
    pub const STACKS: u8 = 2;
    /// Auxiliary data base (primitive / particle buffer).
    pub const AUX: u8 = 3;
}

/// Bytes reserved per thread for the in-memory traversal stack used by the
/// baseline BVH / Barnes-Hut kernels (64 entries).
pub const THREAD_STACK_BYTES: u32 = 256;

/// Squared softening length, matching `trees::barnes_hut::SOFTENING`.
const EPS2: f32 = 1e-4;

/// `rd = base + tid * stride` — the per-thread record address.
fn record_addr(k: &mut KernelBuilder, rd: Reg, tid: Reg, base_param: u8, stride: u32) {
    let t = k.reg();
    k.mov_sreg(rd, SReg::Param(base_param));
    k.imul_imm(t, tid, stride);
    k.iadd(rd, rd, t);
}

/// A thread's traversal stack of node addresses: `base` is the bottom of
/// its [`THREAD_STACK_BYTES`] slice of the [`params::STACKS`] buffer, `sp`
/// the next free word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stack {
    pub(crate) sp: Reg,
    pub(crate) base: Reg,
}

impl Stack {
    /// Points `base` and `sp` at thread `tid`'s slice.
    fn open(k: &mut KernelBuilder, sp: Reg, base: Reg, tid: Reg) -> Stack {
        record_addr(k, base, tid, params::STACKS, THREAD_STACK_BYTES);
        k.mov(sp, base);
        Stack { sp, base }
    }

    /// Pushes the address in `node`.
    pub(crate) fn push(self, k: &mut KernelBuilder, node: Reg) {
        k.store(node, self.sp, 0);
        k.iadd_imm(self.sp, self.sp, 4);
    }

    /// Opens the walk loop: leaves it once the stack is empty (`cond` is
    /// scratch), else pops the next address into `node`.
    pub(crate) fn begin_walk(self, k: &mut KernelBuilder, cond: Reg, node: Reg) -> LoopToken {
        let mut walk = k.begin_loop();
        k.ucmp(Cmp::Gt, cond, self.sp, self.base);
        k.break_if_z(cond, &mut walk);
        k.iadd_imm(self.sp, self.sp, (-4i32) as u32);
        k.load(node, self.sp, 0);
        walk
    }
}

/// Baseline B-Tree search kernel (Algorithm 1 inside a while-loop).
///
/// One thread per query over 16-byte query records. `bplus` disables the
/// early-exit equality test at internal nodes — the reason B+Tree kernels
/// diverge less and gain less from TTA (§V-A).
pub fn btree_search_kernel(bplus: bool) -> Kernel {
    let mut k = KernelBuilder::new(if bplus {
        "bplus_search"
    } else {
        "btree_search"
    });
    let tid = k.reg();
    let qaddr = k.reg();
    let tree = k.reg();
    let node = k.reg();
    let key = k.reg();
    let found = k.reg();
    let done = k.reg();
    let visited = k.reg();
    let header = k.reg();
    let kind = k.reg();
    let nkeys = k.reg();
    let first_child = k.reg();
    let i = k.reg();
    let next = k.reg();
    let matched = k.reg();
    let kv = k.reg();
    let cond = k.reg();
    let lt = k.reg();
    let tmp = k.reg();

    k.mov_sreg(tid, SReg::ThreadId);
    record_addr(&mut k, qaddr, tid, params::QUERIES, BTREE_RECORD as u32);
    k.mov_sreg(tree, SReg::Param(params::TREE));
    k.load(key, qaddr, 0);
    k.mov(node, tree);
    k.mov_imm(found, 0);
    k.mov_imm(done, 0);
    k.mov_imm(visited, 0);

    let mut walk = k.begin_loop();
    k.break_if_nz(done, &mut walk);
    k.iadd_imm(visited, visited, 1);
    k.load(header, node, 0);
    k.and_imm(kind, header, 0xff);
    k.shr_imm(nkeys, header, 8);
    k.and_imm(nkeys, nkeys, 0xff);
    k.load(first_child, node, 4);

    // Key scan: find equality (classic only) or the first greater key.
    k.mov_imm(i, 0);
    k.mov(next, nkeys);
    k.mov_imm(matched, 0);
    let mut scan = k.begin_loop();
    k.icmp(Cmp::Lt, cond, i, nkeys);
    k.break_if_z(cond, &mut scan);
    k.shl_imm(tmp, i, 2);
    k.iadd(tmp, tmp, node);
    k.load(kv, tmp, 8); // keys start at byte offset 8
    k.ucmp(Cmp::Eq, cond, key, kv);
    let eq_tok = k.begin_if_nz(cond);
    k.mov_imm(matched, 1);
    k.end_if(eq_tok);
    k.ucmp(Cmp::Lt, lt, key, kv);
    let lt_tok = k.begin_if_nz(lt);
    k.mov(next, i);
    k.end_if(lt_tok);
    if bplus {
        // B+Tree: only a strictly-greater key stops the routing scan.
        k.break_if_nz(lt, &mut scan);
    } else {
        // Classic: equality or a greater key stops the scan.
        k.or(cond, matched, lt);
        k.break_if_nz(cond, &mut scan);
    }
    k.iadd_imm(i, i, 1);
    k.end_loop(scan);

    // Leaf: the scan's equality answer is the membership answer.
    k.mov_imm(tmp, 1);
    k.icmp(Cmp::Eq, cond, kind, tmp);
    let leaf_tok = k.begin_if_nz(cond);
    {
        k.or(found, found, matched);
        k.mov_imm(done, 1);
    }
    k.end_if(leaf_tok);

    if !bplus {
        // Classic inner: a match terminates the whole search.
        let hit_tok = k.begin_if_nz(matched);
        k.mov_imm(found, 1);
        k.mov_imm(done, 1);
        k.end_if(hit_tok);
    }

    // Descend: node = tree + (first_child + next) * 64.
    let go_tok = k.begin_if_z(done);
    {
        k.iadd(tmp, first_child, next);
        k.shl_imm(tmp, tmp, 6);
        k.iadd(node, tree, tmp);
    }
    k.end_if(go_tok);
    k.end_loop(walk);

    k.store(found, qaddr, 4);
    k.store(visited, qaddr, 8);
    k.exit();
    k.build()
}

/// Baseline Barnes-Hut force kernel: stack-based octree walk with inline
/// force accumulation (the standard GPU formulation of Burtscher &
/// Pingali's tree-walk, one thread per body).
///
/// Query records use the 32-byte `tta::nbody_sem` layout; param 2 points at
/// the per-thread stack buffer, param 3 at the particle array.
pub fn nbody_force_kernel() -> Kernel {
    let mut k = KernelBuilder::new("nbody_force");
    let tid = k.reg();
    let qaddr = k.reg();
    let tree = k.reg();
    let parts = k.reg();
    let sp = k.reg();
    let base = k.reg();
    let node = k.reg();
    let px = k.reg();
    let py = k.reg();
    let pz = k.reg();
    let theta = k.reg();
    let fx = k.reg();
    let fy = k.reg();
    let fz = k.reg();
    let visited = k.reg();
    let header = k.reg();
    let kind = k.reg();
    let count = k.reg();
    let first = k.reg();
    let ax = k.reg();
    let ay = k.reg();
    let az = k.reg();
    let mass = k.reg();
    let width = k.reg();
    let dx = k.reg();
    let dy = k.reg();
    let dz = k.reg();
    let d2 = k.reg();
    let thr = k.reg();
    let cond = k.reg();
    let tmp = k.reg();
    let tmp2 = k.reg();
    let j = k.reg();
    let inv = k.reg();
    let f = k.reg();
    let one = k.reg();
    let eps2 = k.reg();

    k.mov_sreg(tid, SReg::ThreadId);
    record_addr(&mut k, qaddr, tid, params::QUERIES, NBODY_RECORD as u32);
    k.mov_sreg(tree, SReg::Param(params::TREE));
    k.mov_sreg(parts, SReg::Param(params::AUX));
    let stack = Stack::open(&mut k, sp, base, tid);

    k.load(px, qaddr, 0);
    k.load(py, qaddr, 4);
    k.load(pz, qaddr, 8);
    k.load(theta, qaddr, 12);
    k.mov_imm_f32(fx, 0.0);
    k.mov_imm_f32(fy, 0.0);
    k.mov_imm_f32(fz, 0.0);
    k.mov_imm(visited, 0);
    k.mov_imm_f32(one, 1.0);
    k.mov_imm_f32(eps2, EPS2);

    stack.push(&mut k, tree);
    let walk = stack.begin_walk(&mut k, cond, node);
    k.iadd_imm(visited, visited, 1);

    k.load(header, node, 0);
    k.and_imm(kind, header, 0xff);
    k.shr_imm(count, header, 8);
    k.and_imm(count, count, 0xff);
    k.load(first, node, 4);
    k.load(ax, node, 8);
    k.load(ay, node, 12);
    k.load(az, node, 16);
    k.load(mass, node, 20);
    k.load(width, node, 24);

    // d2 = |com - p|^2 + eps2
    k.fsub(dx, ax, px);
    k.fsub(dy, ay, py);
    k.fsub(dz, az, pz);
    k.fmul(d2, dx, dx);
    k.fmul(tmp, dy, dy);
    k.fadd(d2, d2, tmp);
    k.fmul(tmp, dz, dz);
    k.fadd(d2, d2, tmp);
    k.fadd(d2, d2, eps2);

    // open = d2 < (width / theta)^2, inner = (kind == 0)
    k.fdiv(thr, width, theta);
    k.fmul(thr, thr, thr);
    k.fcmp(Cmp::Lt, cond, d2, thr);
    k.mov_imm(tmp2, 0);
    k.icmp(Cmp::Eq, tmp, kind, tmp2);
    k.and(cond, cond, tmp);

    let mut open_tok = k.begin_if_nz(cond);
    {
        // Opened inner cell: push all children.
        k.mov_imm(j, 0);
        let mut push = k.begin_loop();
        k.icmp(Cmp::Lt, tmp2, j, count);
        k.break_if_z(tmp2, &mut push);
        k.iadd(tmp2, first, j);
        k.shl_imm(tmp2, tmp2, 6);
        k.iadd(tmp2, tmp2, tree);
        stack.push(&mut k, tmp2);
        k.iadd_imm(j, j, 1);
        k.end_loop(push);
    }
    k.begin_else(&mut open_tok);
    {
        // Closed cell or leaf.
        let leaf_cmp = k.reg();
        k.mov_imm(tmp2, 1);
        k.icmp(Cmp::Eq, leaf_cmp, kind, tmp2);
        let mut leaf_tok = k.begin_if_nz(leaf_cmp);
        {
            // Leaf: direct sum over particles (16-byte stride).
            k.mov_imm(j, 0);
            let mut part = k.begin_loop();
            k.icmp(Cmp::Lt, tmp2, j, count);
            k.break_if_z(tmp2, &mut part);
            k.iadd(tmp2, first, j);
            k.shl_imm(tmp2, tmp2, 4);
            k.iadd(tmp2, tmp2, parts);
            k.load(ax, tmp2, 0);
            k.load(ay, tmp2, 4);
            k.load(az, tmp2, 8);
            k.load(mass, tmp2, 12);
            k.fsub(dx, ax, px);
            k.fsub(dy, ay, py);
            k.fsub(dz, az, pz);
            k.fmul(d2, dx, dx);
            k.fmul(tmp, dy, dy);
            k.fadd(d2, d2, tmp);
            k.fmul(tmp, dz, dz);
            k.fadd(d2, d2, tmp);
            k.fadd(d2, d2, eps2);
            // Self-interaction gate: contribute only when d2 > 1.5 * eps2.
            k.mov_imm_f32(tmp, EPS2 * 1.5);
            k.fcmp(Cmp::Gt, tmp, d2, tmp);
            k.itof(tmp, tmp);
            // f = gate * m / (d2 * sqrt(d2))
            k.fsqrt(inv, d2);
            k.fmul(inv, inv, d2);
            k.fdiv(f, mass, inv);
            k.fmul(f, f, tmp);
            k.fmul(tmp, dx, f);
            k.fadd(fx, fx, tmp);
            k.fmul(tmp, dy, f);
            k.fadd(fy, fy, tmp);
            k.fmul(tmp, dz, f);
            k.fadd(fz, fz, tmp);
            k.iadd_imm(j, j, 1);
            k.end_loop(part);
        }
        k.begin_else(&mut leaf_tok);
        {
            // Far cell: single centre-of-mass contribution.
            k.fsqrt(inv, d2);
            k.fmul(inv, inv, d2);
            k.fdiv(f, mass, inv);
            k.fmul(tmp, dx, f);
            k.fadd(fx, fx, tmp);
            k.fmul(tmp, dy, f);
            k.fadd(fy, fy, tmp);
            k.fmul(tmp, dz, f);
            k.fadd(fz, fz, tmp);
        }
        k.end_if(leaf_tok);
    }
    k.end_if(open_tok);
    k.end_loop(walk);

    k.store(fx, qaddr, 16);
    k.store(fy, qaddr, 20);
    k.store(fz, qaddr, 24);
    k.store(visited, qaddr, 28);
    k.exit();
    k.build()
}

/// Post-traversal N-Body integration kernel (the "heavy computations after
/// the tree traversal", §V-A): reads the accumulated force from the query
/// record and advances a velocity state vector (12 bytes per body at
/// param 3) with a 12-step sub-cycled velocity kick — the per-body compute
/// load that makes kernel merging worthwhile.
pub fn nbody_integrate_kernel() -> Kernel {
    let mut k = KernelBuilder::new("nbody_integrate");
    let tid = k.reg();
    let qaddr = k.reg();
    let vaddr = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    record_addr(&mut k, qaddr, tid, params::QUERIES, NBODY_RECORD as u32);
    record_addr(&mut k, vaddr, tid, params::AUX, 12);
    emit_integrate(&mut k, qaddr, vaddr);
    k.exit();
    k.build()
}

/// Emits the integration body (shared by the standalone and merged
/// kernels): a 12-step sub-cycled velocity kick with a soft speed limiter.
pub fn emit_integrate(k: &mut KernelBuilder, qaddr: Reg, vaddr: Reg) {
    let fx = k.reg();
    let fy = k.reg();
    let fz = k.reg();
    let vx = k.reg();
    let vy = k.reg();
    let vz = k.reg();
    let dt = k.reg();
    let tmp = k.reg();
    let s2 = k.reg();
    let inv = k.reg();
    let one = k.reg();
    let step = k.reg();
    let cond = k.reg();
    let zero = k.reg();

    k.load(fx, qaddr, 16);
    k.load(fy, qaddr, 20);
    k.load(fz, qaddr, 24);
    k.load(vx, vaddr, 0);
    k.load(vy, vaddr, 4);
    k.load(vz, vaddr, 8);
    k.mov_imm_f32(dt, 0.01 / 12.0);
    k.mov_imm_f32(one, 1.0);
    k.mov_imm(zero, 0);
    k.mov_imm(step, 12);
    let mut sub = k.begin_loop();
    k.icmp(Cmp::Gt, cond, step, zero);
    k.break_if_z(cond, &mut sub);
    k.fmul(tmp, fx, dt);
    k.fadd(vx, vx, tmp);
    k.fmul(tmp, fy, dt);
    k.fadd(vy, vy, tmp);
    k.fmul(tmp, fz, dt);
    k.fadd(vz, vz, tmp);
    k.fmul(s2, vx, vx);
    k.fmul(tmp, vy, vy);
    k.fadd(s2, s2, tmp);
    k.fmul(tmp, vz, vz);
    k.fadd(s2, s2, tmp);
    k.fadd(s2, s2, one);
    k.fsqrt(inv, s2);
    k.fdiv(inv, one, inv);
    k.fadd(inv, inv, one);
    k.fmul(inv, inv, one);
    k.fmul(vx, vx, inv);
    k.fmul(vy, vy, inv);
    k.fmul(vz, vz, inv);
    k.iadd_imm(step, step, u32::MAX); // step -= 1
    k.end_loop(sub);
    k.store(vx, vaddr, 0);
    k.store(vy, vaddr, 4);
    k.store(vz, vaddr, 8);
}

/// Baseline SIMT BVH ray-tracing kernel (closest-hit, triangles): the
/// while-while traversal with an in-memory stack, inline slab tests and
/// Möller-Trumbore — what ray tracing costs on a GPU *without* an RTA
/// (the "RT" bar of Fig. 1).
///
/// Ray records use the 48-byte `rta::bvh_semantics` layout; param 2 is the
/// per-thread stack buffer, param 3 the triangle buffer.
pub fn bvh_trace_kernel() -> Kernel {
    let mut k = KernelBuilder::new("bvh_trace");
    let tid = k.reg();
    let qaddr = k.reg();
    let tree = k.reg();
    let prims = k.reg();
    let sp = k.reg();
    let base = k.reg();
    let node = k.reg();
    // Ray.
    let ox = k.reg();
    let oy = k.reg();
    let oz = k.reg();
    let dxr = k.reg();
    let dyr = k.reg();
    let dzr = k.reg();
    let idx = k.reg();
    let idy = k.reg();
    let idz = k.reg();
    let tmin = k.reg();
    let tmax = k.reg();
    // Best hit.
    let best_t = k.reg();
    let best_p = k.reg();
    let best_u = k.reg();
    let best_v = k.reg();
    // Scratch.
    let header = k.reg();
    let kind = k.reg();
    let count = k.reg();
    let first = k.reg();
    let cond = k.reg();
    let tmp = k.reg();
    let tmp2 = k.reg();
    let one = k.reg();

    k.mov_sreg(tid, SReg::ThreadId);
    record_addr(&mut k, qaddr, tid, params::QUERIES, RAY_RECORD_SIZE as u32);
    k.mov_sreg(tree, SReg::Param(params::TREE));
    k.mov_sreg(prims, SReg::Param(params::AUX));
    let stack = Stack::open(&mut k, sp, base, tid);

    k.load(ox, qaddr, 0);
    k.load(oy, qaddr, 4);
    k.load(oz, qaddr, 8);
    k.load(dxr, qaddr, 12);
    k.load(dyr, qaddr, 16);
    k.load(dzr, qaddr, 20);
    k.load(tmin, qaddr, 24);
    k.load(tmax, qaddr, 28);
    k.mov_imm_f32(one, 1.0);
    k.fdiv(idx, one, dxr);
    k.fdiv(idy, one, dyr);
    k.fdiv(idz, one, dzr);
    k.mov_imm_f32(best_t, f32::INFINITY);
    k.mov_imm(best_p, u32::MAX);
    k.mov_imm_f32(best_u, 0.0);
    k.mov_imm_f32(best_v, 0.0);

    stack.push(&mut k, tree);

    // Inline helper state for box tests.
    let te = k.reg(); // t_enter
    let tx = k.reg();
    let ty = k.reg();
    let t0 = k.reg();
    let t1 = k.reg();

    // Emit the slab test of the child box starting at `word_off` bytes into
    // the node; leaves hit-flag in `cond` and t_enter in `te`.
    // (A macro-like closure over the builder.)
    let slab = |k: &mut KernelBuilder,
                word_off: i32,
                node: Reg,
                cond: Reg,
                te: Reg,
                scratch: (Reg, Reg, Reg, Reg)| {
        let (t0, t1, tx, ty) = scratch;
        // X slab.
        k.load(tx, node, word_off); // min.x
        k.fsub(tx, tx, ox);
        k.fmul(t0, tx, idx);
        k.load(tx, node, word_off + 12); // max.x
        k.fsub(tx, tx, ox);
        k.fmul(t1, tx, idx);
        k.fmin(te, t0, t1);
        k.fmax(ty, t0, t1); // ty = t_exit so far
                            // Y slab.
        k.load(tx, node, word_off + 4);
        k.fsub(tx, tx, oy);
        k.fmul(t0, tx, idy);
        k.load(tx, node, word_off + 16);
        k.fsub(tx, tx, oy);
        k.fmul(t1, tx, idy);
        k.fmin(tmp, t0, t1);
        k.fmax(te, te, tmp);
        k.fmax(tmp, t0, t1);
        k.fmin(ty, ty, tmp);
        // Z slab.
        k.load(tx, node, word_off + 8);
        k.fsub(tx, tx, oz);
        k.fmul(t0, tx, idz);
        k.load(tx, node, word_off + 20);
        k.fsub(tx, tx, oz);
        k.fmul(t1, tx, idz);
        k.fmin(tmp, t0, t1);
        k.fmax(te, te, tmp);
        k.fmax(tmp, t0, t1);
        k.fmin(ty, ty, tmp);
        // Clamp to the ray interval and compare.
        k.fmax(te, te, tmin);
        k.fmin(ty, ty, best_t); // closest-hit pruning via best_t
        k.fmin(ty, ty, tmax);
        k.fcmp(Cmp::Le, cond, te, ty);
    };

    let walk = stack.begin_walk(&mut k, cond, node);

    k.load(header, node, 0);
    k.and_imm(kind, header, 0xff);
    k.shr_imm(count, header, 8);
    k.and_imm(count, count, 0xff);
    k.load(first, node, 4);

    k.mov_imm(tmp, 1);
    k.icmp(Cmp::Eq, tmp2, kind, tmp);
    let mut leaf_tok = k.begin_if_nz(tmp2);
    {
        // Leaf: Möller-Trumbore per triangle (36-byte stride).
        let j = k.reg();
        let e1x = k.reg();
        let e1y = k.reg();
        let e1z = k.reg();
        let e2x = k.reg();
        let e2y = k.reg();
        let e2z = k.reg();
        let pvx = k.reg();
        let pvy = k.reg();
        let pvz = k.reg();
        let det = k.reg();
        let tvx = k.reg();
        let tvy = k.reg();
        let tvz = k.reg();
        let uu = k.reg();
        let vv = k.reg();
        let tt = k.reg();
        let v0x = k.reg();
        let v0y = k.reg();
        let v0z = k.reg();
        let pb = k.reg();
        let ok = k.reg();
        let zero = k.reg();
        k.mov_imm_f32(zero, 0.0);
        k.mov_imm(j, 0);
        let mut prim = k.begin_loop();
        k.icmp(Cmp::Lt, cond, j, count);
        k.break_if_z(cond, &mut prim);
        // pb = prims + (first + j) * 36
        k.iadd(pb, first, j);
        k.imul_imm(pb, pb, 36);
        k.iadd(pb, pb, prims);
        k.load(v0x, pb, 0);
        k.load(v0y, pb, 4);
        k.load(v0z, pb, 8);
        k.load(e1x, pb, 12);
        k.load(e1y, pb, 16);
        k.load(e1z, pb, 20);
        k.fsub(e1x, e1x, v0x);
        k.fsub(e1y, e1y, v0y);
        k.fsub(e1z, e1z, v0z);
        k.load(e2x, pb, 24);
        k.load(e2y, pb, 28);
        k.load(e2z, pb, 32);
        k.fsub(e2x, e2x, v0x);
        k.fsub(e2y, e2y, v0y);
        k.fsub(e2z, e2z, v0z);
        // pvec = dir × e2
        k.fmul(pvx, dyr, e2z);
        k.fmul(tmp, dzr, e2y);
        k.fsub(pvx, pvx, tmp);
        k.fmul(pvy, dzr, e2x);
        k.fmul(tmp, dxr, e2z);
        k.fsub(pvy, pvy, tmp);
        k.fmul(pvz, dxr, e2y);
        k.fmul(tmp, dyr, e2x);
        k.fsub(pvz, pvz, tmp);
        // det = e1 · pvec
        k.fmul(det, e1x, pvx);
        k.fmul(tmp, e1y, pvy);
        k.fadd(det, det, tmp);
        k.fmul(tmp, e1z, pvz);
        k.fadd(det, det, tmp);
        // tvec = origin - v0; u = (tvec · pvec) / det
        k.fsub(tvx, ox, v0x);
        k.fsub(tvy, oy, v0y);
        k.fsub(tvz, oz, v0z);
        k.fmul(uu, tvx, pvx);
        k.fmul(tmp, tvy, pvy);
        k.fadd(uu, uu, tmp);
        k.fmul(tmp, tvz, pvz);
        k.fadd(uu, uu, tmp);
        k.fdiv(uu, uu, det);
        // qvec = tvec × e1 (reuse pvec registers)
        k.fmul(pvx, tvy, e1z);
        k.fmul(tmp, tvz, e1y);
        k.fsub(pvx, pvx, tmp);
        k.fmul(pvy, tvz, e1x);
        k.fmul(tmp, tvx, e1z);
        k.fsub(pvy, pvy, tmp);
        k.fmul(pvz, tvx, e1y);
        k.fmul(tmp, tvy, e1x);
        k.fsub(pvz, pvz, tmp);
        // v = (dir · qvec) / det ; t = (e2 · qvec) / det
        k.fmul(vv, dxr, pvx);
        k.fmul(tmp, dyr, pvy);
        k.fadd(vv, vv, tmp);
        k.fmul(tmp, dzr, pvz);
        k.fadd(vv, vv, tmp);
        k.fdiv(vv, vv, det);
        k.fmul(tt, e2x, pvx);
        k.fmul(tmp, e2y, pvy);
        k.fadd(tt, tt, tmp);
        k.fmul(tmp, e2z, pvz);
        k.fadd(tt, tt, tmp);
        k.fdiv(tt, tt, det);
        // Accept: u >= 0, v >= 0, u + v <= 1, tmin <= t < best_t, t <= tmax.
        k.fcmp(Cmp::Ge, ok, uu, zero);
        k.fcmp(Cmp::Ge, cond, vv, zero);
        k.and(ok, ok, cond);
        k.fadd(tmp, uu, vv);
        k.fcmp(Cmp::Le, cond, tmp, one);
        k.and(ok, ok, cond);
        k.fcmp(Cmp::Ge, cond, tt, tmin);
        k.and(ok, ok, cond);
        k.fcmp(Cmp::Le, cond, tt, tmax);
        k.and(ok, ok, cond);
        k.fcmp(Cmp::Lt, cond, tt, best_t);
        k.and(ok, ok, cond);
        let hit_tok = k.begin_if_nz(ok);
        {
            k.mov(best_t, tt);
            k.iadd(best_p, first, j); // prim index
            k.mov(best_u, uu);
            k.mov(best_v, vv);
        }
        k.end_if(hit_tok);
        k.iadd_imm(j, j, 1);
        k.end_loop(prim);
    }
    k.begin_else(&mut leaf_tok);
    {
        // Inner: slab-test both children; push far first, near last.
        let lhit = k.reg();
        let lte = k.reg();
        let rhit = k.reg();
        let rte = k.reg();
        let laddr = k.reg();
        let raddr = k.reg();
        slab(&mut k, 8, node, lhit, lte, (t0, t1, tx, ty));
        // Save left t_enter before reusing scratch.
        k.mov(rte, lte);
        k.mov(tmp2, lhit);
        slab(&mut k, 32, node, rhit, te, (t0, t1, tx, ty));
        k.mov(lte, rte);
        k.mov(rte, te);
        k.mov(lhit, tmp2);
        // Child addresses.
        k.load(laddr, node, 4);
        k.shl_imm(laddr, laddr, 6);
        k.iadd(laddr, laddr, tree);
        k.load(raddr, node, 56);
        k.shl_imm(raddr, raddr, 6);
        k.iadd(raddr, raddr, tree);
        // near = (lte <= rte) ? left : right; far = the other.
        k.fcmp(Cmp::Le, cond, lte, rte);
        // swap so that laddr = near when cond, raddr = near when !cond.
        let both = k.reg();
        k.and(both, lhit, rhit);
        let mut both_tok = k.begin_if_nz(both);
        {
            // Push far then near (near popped first).
            let near_left = k.begin_if_nz(cond);
            stack.push(&mut k, raddr);
            stack.push(&mut k, laddr);
            k.end_if(near_left);
            let near_right = k.begin_if_z(cond);
            stack.push(&mut k, laddr);
            stack.push(&mut k, raddr);
            k.end_if(near_right);
        }
        k.begin_else(&mut both_tok);
        {
            let lonly = k.begin_if_nz(lhit);
            stack.push(&mut k, laddr);
            k.end_if(lonly);
            let ronly = k.begin_if_nz(rhit);
            stack.push(&mut k, raddr);
            k.end_if(ronly);
        }
        k.end_if(both_tok);
    }
    k.end_if(leaf_tok);
    k.end_loop(walk);

    k.store(best_t, qaddr, 32);
    k.store(best_p, qaddr, 36);
    k.store(best_u, qaddr, 40);
    k.store(best_v, qaddr, 44);
    k.exit();
    k.build()
}

/// The accelerated kernel, built as `name`: compute the address of the
/// thread's `record_size`-byte record and offload it to traversal
/// pipeline `pipeline` — the whole traversal becomes one
/// `traverseTreeTTA` instruction.
pub fn traverse_only_kernel(name: &str, record_size: u32, pipeline: u16) -> Kernel {
    let mut k = KernelBuilder::new(name);
    let tid = k.reg();
    let q = k.reg();
    let root = k.reg();
    let off = k.reg();
    k.mov_sreg(tid, SReg::ThreadId);
    k.mov_sreg(q, SReg::Param(params::QUERIES));
    k.mov_sreg(root, SReg::Param(params::TREE));
    k.imul_imm(off, tid, record_size);
    k.iadd(q, q, off);
    k.traverse(q, root, pipeline);
    k.exit();
    k.build()
}

/// Bytes of the tree and primitive pools the shipped contracts declare.
/// The memory-safety verdicts on shared pools do not depend on the exact
/// value — pointer-chasing node addresses are unprovable (warnings) at any
/// size — so one round number serves every workload.
pub const SHIPPED_POOL_BYTES: u64 = 1 << 20;

/// Flat trip total of the 12-step integrate loop: 12 body iterations plus
/// the final (breaking) header evaluation.
const INTEGRATE_TRIPS: TripFact = TripFact { min: 12, max: 13 };

/// One row of [`shipped_kernels`]: a kernel, the memory contracts the
/// proving passes check it against, and its cost facts.
#[derive(Debug, Clone)]
pub struct ShippedKernel {
    /// The kernel itself.
    pub kernel: Kernel,
    /// Its allocations; shared pools are [`SHIPPED_POOL_BYTES`] long.
    pub contracts: Vec<MemContract>,
    /// Its flat trip totals over a walk, one per back-edge in pc order.
    /// `crate::cost` adds the traversal fact of a kernel that offloads.
    pub trips: fn(&Walk) -> Vec<TripFact>,
}

/// Every kernel the workspace ships, in the order the `tta-cost` journal
/// pins. The lint inventory, the cost model and the validator tests read
/// it; a kernel that is not a row has no cost facts.
pub fn shipped_kernels() -> Vec<ShippedKernel> {
    let queries =
        |record: usize| MemContract::per_thread("queries", params::QUERIES, record as u64);
    let tree = MemContract::shared("tree", params::TREE, SHIPPED_POOL_BYTES);
    let stacks = MemContract::per_thread("stacks", params::STACKS, THREAD_STACK_BYTES as u64);
    let velocities = MemContract::per_thread("velocities", params::AUX, 12);
    let btree = |bplus| ShippedKernel {
        kernel: btree_search_kernel(bplus),
        contracts: vec![queries(BTREE_RECORD), tree],
        // The key scan, then the node walk. The scan header runs at most
        // MAX_KEYS+1 times per visited node.
        trips: |w| {
            vec![
                TripFact::new(1, w.max_visits * (MAX_KEYS as u64 + 1)),
                TripFact::new(1, w.max_visits + 1),
            ]
        },
    };
    // The offload kernel issues no loads or stores (the traversal unit owns
    // all memory traffic), so its contracts only describe its operands.
    let offload = |name, record: usize, pipeline| ShippedKernel {
        kernel: traverse_only_kernel(name, record as u32, pipeline),
        contracts: vec![queries(record), tree],
        trips: |_| Vec::new(),
    };
    vec![
        btree(false),
        btree(true),
        ShippedKernel {
            kernel: nbody_force_kernel(),
            contracts: vec![
                queries(NBODY_RECORD),
                tree,
                stacks,
                // The force pass gathers every interacting particle's
                // record: threads read each other's entries by design, and
                // nothing writes.
                MemContract {
                    name: "particles",
                    base_param: params::AUX,
                    len: ContractLen::BytesPerThread(16),
                    mode: AccessMode::ReadShared,
                },
            ],
            // Child push, leaf particle sum, walk. Every node pops at most
            // once (walk ≤ nodes+1 headers); pushes total the child count
            // (< nodes) plus one closing header per opened node (≤ nodes);
            // particle rounds total the particles plus one closing header
            // per visited leaf (≤ nodes).
            trips: |w| {
                vec![
                    TripFact::new(0, 2 * w.nodes),
                    TripFact::new(0, w.items + w.nodes),
                    TripFact::new(1, w.nodes + 1),
                ]
            },
        },
        ShippedKernel {
            kernel: nbody_integrate_kernel(),
            contracts: vec![queries(NBODY_RECORD), velocities],
            trips: |_| vec![INTEGRATE_TRIPS],
        },
        ShippedKernel {
            kernel: bvh_trace_kernel(),
            contracts: vec![
                queries(RAY_RECORD_SIZE),
                tree,
                stacks,
                MemContract::shared("prims", params::AUX, SHIPPED_POOL_BYTES),
            ],
            // Triangle loop, walk. Triangle-loop headers total the tests
            // plus one closing evaluation per visited leaf.
            trips: |w| {
                vec![
                    TripFact::new(0, w.items + w.max_visits),
                    TripFact::new(1, w.max_visits + 1),
                ]
            },
        },
        ShippedKernel {
            kernel: rtree_range_kernel(),
            contracts: vec![
                queries(RTREE_RECORD),
                tree,
                stacks,
                MemContract::shared("entries", params::AUX, SHIPPED_POOL_BYTES),
            ],
            // Leaf entry scan, child push, walk: each visited node tests at
            // most a fanout of entries or children.
            trips: |w| {
                let tests = w.max_visits * (RTREE_FANOUT as u64 + 1);
                vec![
                    TripFact::new(0, tests),
                    TripFact::new(0, tests),
                    TripFact::new(1, w.max_visits + 1),
                ]
            },
        },
        offload("rt_pipeline0", RAY_RECORD_SIZE, 0),
        offload("rt_pipeline1", RAY_RECORD_SIZE, 1),
        offload("traverse_only", BTREE_RECORD, 0),
        ShippedKernel {
            kernel: merged_traverse_integrate_kernel(),
            contracts: vec![queries(NBODY_RECORD), tree, velocities],
            trips: |_| vec![INTEGRATE_TRIPS],
        },
    ]
}

#[cfg(test)]
mod validator_tests {
    use super::*;

    /// Every shipped kernel, the SIMT baselines and the offload kernels,
    /// must pass the static dataflow checks with zero *errors*. (Warnings
    /// are allowed: the SIMT baselines keep far more than 16 live
    /// registers — exactly the register pressure the traversal offload
    /// removes.)
    #[test]
    fn all_baseline_kernels_are_clean() {
        for ShippedKernel { kernel, .. } in shipped_kernels() {
            let issues: Vec<_> = gpu_sim::verify::check(&kernel)
                .into_iter()
                .filter(|i| i.is_error())
                .collect();
            assert!(issues.is_empty(), "{}: {issues:?}", kernel.name);
        }
    }

    /// The kernels disassemble cleanly (one line per instruction).
    #[test]
    fn kernels_disassemble() {
        let k = btree_search_kernel(false);
        let text = k.disassemble();
        assert_eq!(text.lines().count(), k.instrs.len() + 1);
        assert!(text.contains("bz"));
    }
}
