//! TTA+ μop programs: the contents of `ConfigI`/`ConfigL` for every
//! benchmark, matching Table III of the paper μop-for-μop.
//!
//! A [`UopProgram`] is the validated list of μops an intersection test
//! executes by visiting OP units through the crossbar. Since the lint
//! subsystem landed, every μop also carries its *operand routing* — where
//! each source value comes from ([`Operand`]) and which OP Dest Table slot
//! receives the result — so the dataflow verifier in [`crate::dataflow`]
//! can reject ill-formed programs before any cycle is simulated. The canned
//! constructors below reproduce each row of Table III; a unit test asserts
//! the exact per-unit counts of the table.
//!
//! # Value model
//!
//! Each OP Dest Table slot holds one `vec3` result. A μop reads up to three
//! operands (routed through the crossbar from the decoded ray record, the
//! decoded node record, or an earlier μop's dest slot), executes on its
//! unit, and writes one result slot. Slots still live when the program ends
//! are its *outputs*: the final μop's slot is the traversal predicate, and
//! leaf programs may write further slots back into the ray record
//! (Listing 1's result fields).

use crate::op_unit::OpUnit;
use rta::units::TestKind;

/// Number of result slots in the OP Dest Table (one 16-entry vec3 register
/// bank, matching the 16x16 crossbar and the 16-register warp-buffer record
/// of Fig. 7). Programs may be up to 64 μops deep, but at most this many
/// results can be live at once.
pub const OP_DEST_SLOTS: usize = 16;

/// Maximum μops per program (the OP Dest Table routing depth).
pub const MAX_PROGRAM_LEN: usize = 64;

/// Where a μop source operand comes from (the Config Regs routing state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Field `i` of the decoded ray/query record (`DecodeR` layout).
    Ray(usize),
    /// Field `i` of the decoded node record (`DecodeI`/`DecodeL` layout,
    /// depending on whether the program runs as the inner or leaf test).
    Node(usize),
    /// The OP Dest Table slot written by an earlier μop.
    Slot(u8),
    /// A constant preloaded into the config registers (no crossbar
    /// transfer).
    Imm,
}

/// One micro-operation: the executing unit plus its operand routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// Executing unit.
    pub unit: OpUnit,
    /// Source operands (up to three, e.g. `MIN(a, MAX(b, c))`).
    pub srcs: [Option<Operand>; 3],
    /// OP Dest Table slot receiving the result.
    pub dest: u8,
}

impl Uop {
    /// Builds a μop from a source slice (at most three operands).
    ///
    /// # Panics
    ///
    /// Panics on more than three sources.
    pub fn new(unit: OpUnit, srcs: &[Operand], dest: u8) -> Self {
        assert!(srcs.len() <= 3, "a μop reads at most three operands");
        let mut s = [None; 3];
        for (slot, &op) in s.iter_mut().zip(srcs) {
            *slot = Some(op);
        }
        Uop {
            unit,
            srcs: s,
            dest,
        }
    }

    /// The populated source operands, in order.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        self.srcs.iter().filter_map(|s| *s)
    }

    /// Number of operands routed through the crossbar ([`Operand::Imm`]
    /// constants live in the config registers and consume no transfer
    /// lane).
    pub fn crossbar_fan_in(&self) -> usize {
        self.operands()
            .filter(|o| !matches!(o, Operand::Imm))
            .count()
    }
}

/// A validated μop program for one intersection test.
///
/// # Examples
///
/// ```
/// use tta::programs::UopProgram;
///
/// let p = UopProgram::ray_box();
/// assert_eq!(p.len(), 19); // Table III: RTNN/LumiBench inner test
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UopProgram {
    name: String,
    uops: Vec<Uop>,
}

impl UopProgram {
    /// Builds a program from a unit sequence, deriving a serial default
    /// routing: the first μop reads ray field 0 and node field 0, every
    /// later μop reads its predecessor's result, and dest slots cycle
    /// through the OP Dest Table. Use [`UopProgram::from_uops`] to author
    /// explicit routing.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Empty`] for an empty sequence and
    /// [`ProgramError::TooLong`] beyond 64 μops (the OP Dest Table depth).
    pub fn new(name: impl Into<String>, units: Vec<OpUnit>) -> Result<Self, ProgramError> {
        let uops = units
            .iter()
            .enumerate()
            .map(|(i, &unit)| {
                let dest = (i % OP_DEST_SLOTS) as u8;
                if i == 0 {
                    Uop::new(unit, &[Operand::Ray(0), Operand::Node(0)], dest)
                } else {
                    let prev = ((i - 1) % OP_DEST_SLOTS) as u8;
                    Uop::new(unit, &[Operand::Slot(prev)], dest)
                }
            })
            .collect();
        Self::from_uops(name, uops)
    }

    /// Builds a program from fully-routed μops.
    ///
    /// Only the structural limits are enforced here; dataflow-level
    /// validity (read-before-write, dead results, table capacity, crossbar
    /// fan-in, ...) is the job of [`crate::dataflow::check_program`].
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Empty`] for an empty sequence and
    /// [`ProgramError::TooLong`] beyond 64 μops.
    pub fn from_uops(name: impl Into<String>, uops: Vec<Uop>) -> Result<Self, ProgramError> {
        if uops.is_empty() {
            return Err(ProgramError::Empty);
        }
        if uops.len() > MAX_PROGRAM_LEN {
            return Err(ProgramError::TooLong(uops.len()));
        }
        Ok(UopProgram {
            name: name.into(),
            uops,
        })
    }

    /// Program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The μops in execution order.
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// Number of μops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// `true` for a zero-μop program (never constructible via `new`).
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Count of μops executing on `unit`.
    pub fn count_of(&self, unit: OpUnit) -> usize {
        self.uops.iter().filter(|u| u.unit == unit).count()
    }

    /// Whether the program needs the SQRT unit (unsupported on TTA; the
    /// reason WKND_PT cannot be offloaded there, §V-A).
    pub fn needs_sqrt(&self) -> bool {
        self.count_of(OpUnit::Sqrt) > 0
    }

    /// Sum of unit latencies — the fully serialised bound on the test's
    /// latency, before crossbar hops and contention. Superseded for lint
    /// purposes by [`UopProgram::critical_path_latency`], which follows the
    /// operand routing instead of assuming every μop depends on its
    /// predecessor.
    pub fn unit_latency_sum(&self) -> u64 {
        self.uops.iter().map(|u| u.unit.latency()).sum()
    }

    /// Critical-path latency through the routed dataflow graph: each μop
    /// becomes ready when its last slot operand is produced, then pays one
    /// crossbar hop (`hop` cycles) plus its unit latency. Ray/node/constant
    /// operands are ready at time zero (they arrive with the scheduled
    /// test). This is the contention-free lower bound the TTA+ backend can
    /// approach when μops with independent routing overlap, and the metric
    /// the `latency-bound` lint pass checks — unlike the purely serial
    /// [`UopProgram::unit_latency_sum`].
    pub fn critical_path_latency(&self, hop: u64) -> u64 {
        let mut slot_ready = [0u64; 256];
        let mut finish = 0u64;
        for uop in &self.uops {
            let ready = uop
                .operands()
                .map(|op| match op {
                    Operand::Slot(s) => slot_ready[s as usize],
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            let done = ready + hop + uop.unit.latency();
            slot_ready[uop.dest as usize] = done;
            finish = finish.max(done);
        }
        finish
    }

    /// Static `[lower, upper]` latency bracket for one scheduled test of
    /// this program on a TTA+ backend with crossbar hop cost `hop`. The
    /// lower end is the contention-free critical path; the upper end is
    /// the fully serialised schedule (every μop waits for its predecessor
    /// and pays its own hop), which dominates any legal issue order.
    pub fn latency_bounds(&self, hop: u64) -> (u64, u64) {
        (
            self.critical_path_latency(hop),
            self.unit_latency_sum() + hop * self.len() as u64,
        )
    }

    // ---- Table III rows ------------------------------------------------
    //
    // Routing conventions shared with the shipped workload pipelines
    // (checked by `TraversalPipeline::check_decode_coverage`):
    //   Ray(0) = the query value (search key / query point / ray origin)
    //   Ray(1) = the second query field (ray direction / search radius)
    //   Node(0) = the node header word
    //   Node(2..) = the node payload (keys / child boxes / centre of mass)

    /// B-Tree/B\*Tree/B+Tree inner node: Query-Key comparison (12 μops:
    /// 6 MIN/MAX, 3 Vec3 CMP, 3 Vec3 OR).
    pub fn query_key_inner() -> Self {
        let mut uops = Vec::new();
        // Three minmax/maxmin pairs, each comparing the query to 3 keys.
        for i in 0..3u8 {
            uops.push(Uop::new(
                OpUnit::MinMax,
                &[Operand::Ray(0), Operand::Node(2)],
                2 * i,
            ));
            uops.push(Uop::new(
                OpUnit::MaxMin,
                &[Operand::Ray(0), Operand::Node(2)],
                2 * i + 1,
            ));
        }
        // Equality checks on each bound pair.
        for i in 0..3u8 {
            uops.push(Uop::new(
                OpUnit::Vec3Cmp,
                &[Operand::Slot(2 * i), Operand::Slot(2 * i + 1)],
                6 + i,
            ));
        }
        // One-hot child selection: OR-reduce, then mask with the header's
        // valid-key bits.
        uops.push(Uop::new(
            OpUnit::Logical,
            &[Operand::Slot(6), Operand::Slot(7)],
            9,
        ));
        uops.push(Uop::new(
            OpUnit::Logical,
            &[Operand::Slot(9), Operand::Slot(8)],
            10,
        ));
        uops.push(Uop::new(
            OpUnit::Logical,
            &[Operand::Slot(10), Operand::Node(0)],
            11,
        ));
        Self::from_uops("QueryKey/Inner", uops).expect("static program")
    }

    /// B-Tree leaf: Query-Key equality only (3 Vec3 CMP μops). Each result
    /// slot stays live at program end: the found flags are written back to
    /// the ray record.
    pub fn query_key_leaf() -> Self {
        let uops = (0..3u8)
            .map(|i| Uop::new(OpUnit::Vec3Cmp, &[Operand::Ray(0), Operand::Node(2)], i))
            .collect();
        Self::from_uops("QueryKey/Leaf", uops).expect("static program")
    }

    /// N-Body inner node: Point-to-Point distance (3 μops: SUB, DOT, CMP).
    /// Compares |com - p|^2 against the opening threshold derived from the
    /// node width (theta is folded into the config constants).
    pub fn point_to_point_inner() -> Self {
        let uops = vec![
            Uop::new(OpUnit::Vec3AddSub, &[Operand::Ray(0), Operand::Node(2)], 0),
            Uop::new(OpUnit::DotProduct, &[Operand::Slot(0), Operand::Slot(0)], 1),
            Uop::new(OpUnit::Vec3Cmp, &[Operand::Slot(1), Operand::Node(4)], 2),
        ];
        Self::from_uops("PointToPoint/Inner", uops).expect("static program")
    }

    /// N-Body leaf: force computation (5 μops: 3 MUL, 1 SQRT, 1 R-XFORM —
    /// the paper folds three multiplications into one R-XFORM).
    pub fn nbody_force_leaf() -> Self {
        let uops = vec![
            // G * m
            Uop::new(OpUnit::Multiplier, &[Operand::Node(3), Operand::Imm], 0),
            // |d|^2 lanes from the particle position
            Uop::new(OpUnit::Multiplier, &[Operand::Node(2), Operand::Node(2)], 1),
            Uop::new(OpUnit::Multiplier, &[Operand::Slot(0), Operand::Slot(1)], 2),
            Uop::new(OpUnit::Sqrt, &[Operand::Slot(2)], 3),
            // Scale the displacement and accumulate into the force field.
            Uop::new(
                OpUnit::RayTransform,
                &[Operand::Slot(3), Operand::Ray(0), Operand::Node(2)],
                4,
            ),
        ];
        Self::from_uops("NBodyForce/Leaf", uops).expect("static program")
    }

    /// Ray-Box intersection (19 μops: 2 SUB, 6 MUL, 3 RCP, 6 MIN/MAX,
    /// 1 CMP, 1 OR) — the inner test of RTNN, WKND_PT and LumiBench.
    pub fn ray_box() -> Self {
        use Operand::{Imm, Node, Ray, Slot};
        let uops = vec![
            // box.min - o, box.max - o
            Uop::new(OpUnit::Vec3AddSub, &[Node(2), Ray(0)], 0),
            Uop::new(OpUnit::Vec3AddSub, &[Node(3), Ray(0)], 1),
            // 1 / dir lanes
            Uop::new(OpUnit::Reciprocal, &[Ray(1)], 2),
            Uop::new(OpUnit::Reciprocal, &[Ray(1)], 3),
            Uop::new(OpUnit::Reciprocal, &[Ray(1)], 4),
            // t planes
            Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(2)], 5),
            Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(3)], 6),
            Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(4)], 7),
            Uop::new(OpUnit::Multiplier, &[Slot(1), Slot(2)], 8),
            Uop::new(OpUnit::Multiplier, &[Slot(1), Slot(3)], 9),
            Uop::new(OpUnit::Multiplier, &[Slot(1), Slot(4)], 10),
            // Fold per-axis entry/exit times (the 3-operand MIN/MAX forms
            // carry the previous axis's result along).
            Uop::new(OpUnit::MinMax, &[Slot(5), Slot(8)], 0),
            Uop::new(OpUnit::MaxMin, &[Slot(5), Slot(8)], 1),
            Uop::new(OpUnit::MinMax, &[Slot(6), Slot(9), Slot(0)], 2),
            Uop::new(OpUnit::MaxMin, &[Slot(6), Slot(9), Slot(1)], 3),
            Uop::new(OpUnit::MinMax, &[Slot(7), Slot(10), Slot(2)], 4),
            Uop::new(OpUnit::MaxMin, &[Slot(7), Slot(10), Slot(3)], 5),
            // t_enter <= t_exit, masked with interval validity.
            Uop::new(OpUnit::Vec3Cmp, &[Slot(4), Slot(5)], 6),
            Uop::new(OpUnit::Logical, &[Slot(6), Imm], 7),
        ];
        Self::from_uops("RayBox/Inner", uops).expect("static program")
    }

    /// RTNN leaf: Point-to-Point distance with radius compare (5 μops:
    /// SUB, DOT, MUL, CMP, OR).
    pub fn rtnn_leaf() -> Self {
        use Operand::{Imm, Node, Ray, Slot};
        let uops = vec![
            Uop::new(OpUnit::Vec3AddSub, &[Node(2), Ray(0)], 0),
            Uop::new(OpUnit::DotProduct, &[Slot(0), Slot(0)], 1),
            Uop::new(OpUnit::Multiplier, &[Ray(1), Ray(1)], 2),
            Uop::new(OpUnit::Vec3Cmp, &[Slot(1), Slot(2)], 3),
            Uop::new(OpUnit::Logical, &[Slot(3), Imm], 4),
        ];
        Self::from_uops("RTNN/Leaf", uops).expect("static program")
    }

    /// WKND_PT leaf: Ray-Sphere intersection (18 μops: 5 SUB, 5 MUL,
    /// 1 SQRT, 1 RCP, 3 DOT, 2 CMP, 1 OR).
    pub fn ray_sphere_leaf() -> Self {
        use Operand::{Imm, Node, Ray, Slot};
        let uops = vec![
            // a = d . d ; oc = o - c
            Uop::new(OpUnit::DotProduct, &[Ray(1), Ray(1)], 0),
            Uop::new(OpUnit::Vec3AddSub, &[Ray(0), Node(2)], 1),
            // b = oc . d ; oc . oc ; r^2
            Uop::new(OpUnit::DotProduct, &[Slot(1), Ray(1)], 2),
            Uop::new(OpUnit::DotProduct, &[Slot(1), Slot(1)], 3),
            Uop::new(OpUnit::Multiplier, &[Node(3), Node(3)], 4),
            // c = oc.oc - r^2 ; disc = b^2 - a*c
            Uop::new(OpUnit::Vec3AddSub, &[Slot(3), Slot(4)], 5),
            Uop::new(OpUnit::Multiplier, &[Slot(2), Slot(2)], 6),
            Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(5)], 7),
            Uop::new(OpUnit::Vec3AddSub, &[Slot(6), Slot(7)], 8),
            Uop::new(OpUnit::Sqrt, &[Slot(8)], 9),
            Uop::new(OpUnit::Reciprocal, &[Slot(0)], 10),
            // t0 = (-b + sqrt(disc)) / a ; t1 = (-b - sqrt(disc)) / a
            Uop::new(OpUnit::Vec3AddSub, &[Slot(9), Slot(2)], 11),
            Uop::new(OpUnit::Multiplier, &[Slot(11), Slot(10)], 12),
            Uop::new(OpUnit::Vec3AddSub, &[Slot(2), Slot(9)], 13),
            Uop::new(OpUnit::Multiplier, &[Slot(13), Slot(10)], 14),
            // Range checks and combine.
            Uop::new(OpUnit::Vec3Cmp, &[Slot(12), Imm], 15),
            Uop::new(OpUnit::Vec3Cmp, &[Slot(14), Slot(12)], 0),
            Uop::new(OpUnit::Logical, &[Slot(15), Slot(0)], 1),
        ];
        Self::from_uops("RaySphere/Leaf", uops).expect("static program")
    }

    /// LumiBench leaf: Ray-Triangle (Möller-Trumbore, 17 μops: 3 SUB,
    /// 3 MUL, 1 RCP, 2 CROSS, 4 DOT, 2 CMP, 2 OR).
    pub fn ray_triangle_leaf() -> Self {
        use Operand::{Imm, Node, Ray, Slot};
        let uops = vec![
            // e1, e2, tvec
            Uop::new(OpUnit::Vec3AddSub, &[Node(3), Node(2)], 0),
            Uop::new(OpUnit::Vec3AddSub, &[Node(4), Node(2)], 1),
            Uop::new(OpUnit::Vec3AddSub, &[Ray(0), Node(2)], 4),
            // pvec = d x e2 ; qvec = tvec x e1
            Uop::new(OpUnit::CrossProduct, &[Ray(1), Slot(1)], 2),
            Uop::new(OpUnit::CrossProduct, &[Slot(4), Slot(0)], 5),
            // det, u*det, v*det, t*det
            Uop::new(OpUnit::DotProduct, &[Slot(0), Slot(2)], 3),
            Uop::new(OpUnit::DotProduct, &[Slot(4), Slot(2)], 6),
            Uop::new(OpUnit::DotProduct, &[Ray(1), Slot(5)], 7),
            Uop::new(OpUnit::DotProduct, &[Slot(1), Slot(5)], 8),
            // 1/det, then scale u, v, t
            Uop::new(OpUnit::Reciprocal, &[Slot(3)], 9),
            Uop::new(OpUnit::Multiplier, &[Slot(6), Slot(9)], 10),
            Uop::new(OpUnit::Multiplier, &[Slot(7), Slot(9)], 11),
            Uop::new(OpUnit::Multiplier, &[Slot(8), Slot(9)], 12),
            // Barycentric range checks and combine.
            Uop::new(OpUnit::Vec3Cmp, &[Slot(10), Slot(11)], 13),
            Uop::new(OpUnit::Vec3Cmp, &[Slot(12), Imm], 14),
            Uop::new(OpUnit::Logical, &[Slot(13), Slot(14)], 15),
            Uop::new(OpUnit::Logical, &[Slot(15), Imm], 0),
        ];
        Self::from_uops("RayTriangle/Leaf", uops).expect("static program")
    }

    /// The two-level-BVH transform step (1 R-XFORM μop) used by RTNN,
    /// WKND_PT and LumiBench between BVH levels: transforms the ray by the
    /// instance matrix stored in the node.
    pub fn transform() -> Self {
        let uops = vec![Uop::new(
            OpUnit::RayTransform,
            &[Operand::Ray(0), Operand::Node(2)],
            0,
        )];
        Self::from_uops("Transform", uops).expect("static program")
    }

    /// The Table III program TTA+ runs for the fixed-function test `kind`,
    /// in either slot; `None` for a shader call or a registered program.
    /// The backend and the pipeline lint passes both read this mapping.
    pub fn canned(kind: TestKind) -> Option<Self> {
        Some(match kind {
            TestKind::RayBox => Self::ray_box(),
            TestKind::RayTriangle => Self::ray_triangle_leaf(),
            TestKind::QueryKey => Self::query_key_inner(),
            TestKind::PointToPoint => Self::point_to_point_inner(),
            TestKind::Transform => Self::transform(),
            TestKind::IntersectionShader | TestKind::Program(_) => return None,
        })
    }

    /// The §IV-A strength-reduction the paper applies to the N-Body force
    /// program: "we also optimize operations on the TTA+ by combining three
    /// multiplications into a single R-XFORM operation". Every run of three
    /// consecutive Multiplier μops becomes one R-XFORM μop (the transform
    /// unit is a 3-lane multiply-accumulate array).
    ///
    /// The fused μop reads the run's external inputs (operands not produced
    /// inside the run) and writes the run's final dest slot; later reads of
    /// the run's intermediate slots are rerouted to that slot, so the
    /// program stays clean under the [`crate::dataflow`] passes. A run
    /// whose external operand set exceeds the three R-XFORM source ports is
    /// left unfused (dropping an operand would sever dataflow edges); the
    /// window slides by one multiply so a later sub-run may still fuse.
    ///
    /// Idempotent: when no run fuses — in particular on any program this
    /// method already fused — `self` is returned unchanged, name included.
    pub fn fuse_muls_into_xform(&self) -> Self {
        let fusable = self
            .uops
            .windows(3)
            .any(|w| w.iter().all(|u| u.unit == OpUnit::Multiplier));
        if !fusable {
            return self.clone();
        }

        let mut out: Vec<Uop> = Vec::with_capacity(self.uops.len());
        // Slots folded away by fusion: reads of key are rerouted to value
        // until the key slot is written again.
        let mut remap: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
        let mut run: Vec<Uop> = Vec::new();

        let apply = |uop: &Uop, remap: &std::collections::HashMap<u8, u8>| -> Uop {
            let mut u = *uop;
            for src in u.srcs.iter_mut().flatten() {
                if let Operand::Slot(s) = src {
                    if let Some(&to) = remap.get(s) {
                        *src = Operand::Slot(to);
                    }
                }
            }
            u
        };
        let define = |slot: u8, remap: &mut std::collections::HashMap<u8, u8>| {
            // A fresh write ends any reroute through or into this slot.
            remap.remove(&slot);
            remap.retain(|_, v| *v != slot);
        };

        let mut fused_any = false;
        for uop in &self.uops {
            let uop = apply(uop, &remap);
            if uop.unit == OpUnit::Multiplier {
                run.push(uop);
                if run.len() == 3 {
                    let dest = run[2].dest;
                    let internal: Vec<u8> = run[..2].iter().map(|u| u.dest).collect();
                    let mut srcs: Vec<Operand> = Vec::new();
                    for (i, m) in run.iter().enumerate() {
                        for op in m.operands() {
                            let is_internal = matches!(op, Operand::Slot(s)
                                if internal[..i.min(2)].contains(&s));
                            if !is_internal && !srcs.contains(&op) {
                                srcs.push(op);
                            }
                        }
                    }
                    if srcs.len() > 3 {
                        // More externals than R-XFORM source ports: fusing
                        // would sever dataflow edges. Emit the oldest
                        // multiply unfused and slide the window.
                        let m = run.remove(0);
                        define(m.dest, &mut remap);
                        out.push(m);
                    } else {
                        // Fresh write to dest: clear stale aliases BEFORE
                        // recording the run's own reroutes, which define()
                        // would otherwise delete.
                        define(dest, &mut remap);
                        for d in internal {
                            if d != dest {
                                // The folded write destroys any value an
                                // earlier reroute parked in d.
                                define(d, &mut remap);
                                remap.insert(d, dest);
                            }
                        }
                        out.push(Uop::new(OpUnit::RayTransform, &srcs, dest));
                        run.clear();
                        fused_any = true;
                    }
                }
            } else {
                for m in run.drain(..) {
                    define(m.dest, &mut remap);
                    out.push(m);
                }
                define(uop.dest, &mut remap);
                out.push(uop);
            }
        }
        for m in run.drain(..) {
            out.push(m);
        }
        if !fused_any {
            // Every candidate run was too wide to route — nothing changed.
            return self.clone();
        }
        Self::from_uops(format!("{}+fused", self.name), out).expect("fusion preserves validity")
    }
}

/// Errors from μop program construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// A program must contain at least one μop.
    Empty,
    /// Program exceeds the OP Dest Table depth.
    TooLong(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "μop program must not be empty"),
            ProgramError::TooLong(n) => {
                write!(
                    f,
                    "μop program of {n} μops exceeds the {MAX_PROGRAM_LEN}-entry OP Dest Table"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(p: &UopProgram) -> [usize; 11] {
        let mut c = [0usize; 11];
        for (i, u) in OpUnit::ALL.iter().enumerate() {
            c[i] = p.count_of(*u);
        }
        c
    }

    // Table III columns: [SUB, MUL, RCP, CROSS, DOT, CMP, MINMAX, MAXMIN,
    // OR, SQRT, XFORM] — reordered to OpUnit::ALL order:
    // [Vec3AddSub, Multiplier, Reciprocal, Cross, Dot, Vec3Cmp, MinMax,
    //  MaxMin, Logical, Sqrt, RayTransform]

    #[test]
    fn table_iii_btree_rows() {
        let inner = UopProgram::query_key_inner();
        assert_eq!(inner.len(), 12);
        assert_eq!(counts(&inner), [0, 0, 0, 0, 0, 3, 3, 3, 3, 0, 0]);
        let leaf = UopProgram::query_key_leaf();
        assert_eq!(leaf.len(), 3);
        assert_eq!(counts(&leaf), [0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0]);
        assert!(!inner.needs_sqrt());
    }

    #[test]
    fn table_iii_nbody_rows() {
        let inner = UopProgram::point_to_point_inner();
        assert_eq!(inner.len(), 3);
        assert_eq!(counts(&inner), [1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0]);
        let leaf = UopProgram::nbody_force_leaf();
        assert_eq!(leaf.len(), 5);
        assert_eq!(counts(&leaf), [0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 1]);
        assert!(
            leaf.needs_sqrt(),
            "force computation needs SQRT (TTA+ only)"
        );
    }

    #[test]
    fn table_iii_ray_box_row() {
        let p = UopProgram::ray_box();
        assert_eq!(p.len(), 19);
        assert_eq!(counts(&p), [2, 6, 3, 0, 0, 1, 3, 3, 1, 0, 0]);
    }

    #[test]
    fn table_iii_rtnn_leaf_row() {
        let p = UopProgram::rtnn_leaf();
        assert_eq!(p.len(), 5);
        assert_eq!(counts(&p), [1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn table_iii_ray_sphere_row() {
        let p = UopProgram::ray_sphere_leaf();
        assert_eq!(p.len(), 18);
        assert_eq!(counts(&p), [5, 5, 1, 0, 3, 2, 0, 0, 1, 1, 0]);
        assert!(p.needs_sqrt(), "Ray-Sphere needs SQRT — unsupported by TTA");
    }

    #[test]
    fn table_iii_ray_triangle_row() {
        let p = UopProgram::ray_triangle_leaf();
        assert_eq!(p.len(), 17);
        assert_eq!(counts(&p), [3, 3, 1, 2, 4, 2, 0, 0, 2, 0, 0]);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(UopProgram::new("x", vec![]), Err(ProgramError::Empty));
        assert_eq!(
            UopProgram::new("x", vec![OpUnit::Logical; 65]),
            Err(ProgramError::TooLong(65))
        );
    }

    #[test]
    fn mul_fusion_matches_the_papers_nbody_optimisation() {
        // Table III already shows the fused form of the force program
        // (3 MUL + R-XFORM); fusing an unfused 6-MUL variant produces two
        // R-XFORMs and shortens the μop chain.
        let unfused = UopProgram::new(
            "force-unfused",
            vec![
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Sqrt,
            ],
        )
        .unwrap();
        let fused = unfused.fuse_muls_into_xform();
        assert_eq!(fused.len(), 3, "6 MUL + SQRT -> 2 R-XFORM + SQRT");
        assert_eq!(fused.count_of(OpUnit::RayTransform), 2);
        assert_eq!(fused.count_of(OpUnit::Multiplier), 0);
        // Partial runs survive unfused.
        let partial = UopProgram::new(
            "p",
            vec![OpUnit::Multiplier, OpUnit::Multiplier, OpUnit::Vec3Cmp],
        )
        .unwrap();
        let out = partial.fuse_muls_into_xform();
        assert_eq!(out.count_of(OpUnit::Multiplier), 2);
        assert_eq!(out.count_of(OpUnit::RayTransform), 0);
        // Fewer μops means fewer crossbar hops: latency bound improves.
        let cost = |p: &UopProgram| p.unit_latency_sum() + 4 * p.len() as u64;
        assert!(cost(&fused) < cost(&unfused));
    }

    #[test]
    fn mul_fusion_is_idempotent() {
        let unfused = UopProgram::new(
            "force-unfused",
            vec![
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Multiplier,
                OpUnit::Sqrt,
            ],
        )
        .unwrap();
        let once = unfused.fuse_muls_into_xform();
        assert_eq!(once.name(), "force-unfused+fused");
        let twice = once.fuse_muls_into_xform();
        assert_eq!(once, twice, "second fusion must be a no-op");
        assert_eq!(
            twice.name(),
            "force-unfused+fused",
            "the name must not grow to +fused+fused"
        );
        // A program with no 3-run is returned untouched, name included.
        let partial = UopProgram::new(
            "p",
            vec![OpUnit::Multiplier, OpUnit::Multiplier, OpUnit::Vec3Cmp],
        )
        .unwrap();
        assert_eq!(partial.fuse_muls_into_xform(), partial);
    }

    #[test]
    fn fusion_reroutes_reads_of_intermediate_slots() {
        use Operand::{Node, Ray, Slot};
        // Regression: the AddSub reads Slot(0) — an *intermediate* of the
        // fused run, not its final dest — and must be rerouted to the
        // R-XFORM's dest slot. (define(dest) used to run after the reroute
        // inserts and delete them, leaving a read of an unwritten slot.)
        let p = UopProgram::from_uops(
            "intermediate-read",
            vec![
                Uop::new(OpUnit::Multiplier, &[Ray(0), Ray(0)], 0),
                Uop::new(OpUnit::Multiplier, &[Node(2), Node(2)], 1),
                Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(1)], 2),
                Uop::new(OpUnit::Vec3AddSub, &[Slot(0), Slot(2)], 3),
            ],
        )
        .unwrap();
        let fused = p.fuse_muls_into_xform();
        assert_eq!(fused.count_of(OpUnit::Multiplier), 0);
        let addsub = fused.uops().last().unwrap();
        assert_eq!(addsub.unit, OpUnit::Vec3AddSub);
        assert_eq!(addsub.srcs[0], Some(Slot(2)), "intermediate read rerouted");
        assert_eq!(addsub.srcs[1], Some(Slot(2)));
        let issues =
            crate::dataflow::check_program(&fused, &crate::ttaplus::TtaPlusConfig::default_paper());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn fusion_skips_runs_with_too_many_external_operands() {
        use Operand::{Node, Ray, Slot};
        // Four distinct external inputs cannot route into the three
        // R-XFORM source ports — the run must stay unfused rather than
        // silently dropping an operand.
        let wide = UopProgram::from_uops(
            "wide",
            vec![
                Uop::new(OpUnit::Multiplier, &[Ray(0), Ray(1)], 0),
                Uop::new(OpUnit::Multiplier, &[Node(2), Node(3)], 1),
                Uop::new(OpUnit::Multiplier, &[Slot(0), Slot(1)], 2),
            ],
        )
        .unwrap();
        assert_eq!(
            wide.fuse_muls_into_xform(),
            wide,
            "unchanged, name included"
        );
        // With a fourth multiply, the window slides past the wide run and
        // fuses the narrower sub-run [mul1, mul2, mul3] (externals: Node(2),
        // Node(3), Slot(0) — mul0's now-external result).
        let mut uops = wide.uops().to_vec();
        uops.push(Uop::new(OpUnit::Multiplier, &[Slot(2), Slot(2)], 3));
        let slid = UopProgram::from_uops("wide4", uops)
            .unwrap()
            .fuse_muls_into_xform();
        assert_eq!(slid.count_of(OpUnit::Multiplier), 1);
        assert_eq!(slid.count_of(OpUnit::RayTransform), 1);
        let xform = &slid.uops()[1];
        assert_eq!(xform.srcs, [Some(Node(2)), Some(Node(3)), Some(Slot(0))]);
        let issues =
            crate::dataflow::check_program(&slid, &crate::ttaplus::TtaPlusConfig::default_paper());
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn fusion_reroutes_consumers_of_folded_slots() {
        // The fused R-XFORM writes the run's final slot; the SQRT consumer
        // of that slot keeps a valid operand.
        let fused = UopProgram::nbody_force_leaf().fuse_muls_into_xform();
        assert_eq!(fused.count_of(OpUnit::Multiplier), 0);
        let xform_dest = fused.uops()[0].dest;
        let sqrt = &fused.uops()[1];
        assert_eq!(sqrt.unit, OpUnit::Sqrt);
        assert_eq!(sqrt.srcs[0], Some(Operand::Slot(xform_dest)));
    }

    #[test]
    fn latency_sum_reflects_units() {
        // Query-Key inner: 6×1 + 3×1 + 3×1 = 12 cycles of raw unit time.
        assert_eq!(UopProgram::query_key_inner().unit_latency_sum(), 12);
        // Ray-Box: 2×4 + 6×4 + 3×4 + 6×1 + 1×1 + 1×1 = 52.
        assert_eq!(UopProgram::ray_box().unit_latency_sum(), 52);
    }

    #[test]
    fn critical_path_beats_serial_sum_on_parallel_routing() {
        let hop = 4;
        for p in [
            UopProgram::ray_box(),
            UopProgram::query_key_inner(),
            UopProgram::ray_triangle_leaf(),
            UopProgram::ray_sphere_leaf(),
        ] {
            let cp = p.critical_path_latency(hop);
            let serial = p.unit_latency_sum() + hop * p.len() as u64;
            assert!(
                cp < serial,
                "{}: critical path {cp} must beat serial {serial}",
                p.name()
            );
        }
        // A `new()`-derived chain is fully serial: the two agree.
        let chain = UopProgram::new("chain", vec![OpUnit::Sqrt; 8]).unwrap();
        assert_eq!(
            chain.critical_path_latency(hop),
            chain.unit_latency_sum() + hop * 8
        );
    }

    #[test]
    fn latency_bounds_bracket_every_table_iii_program() {
        let hop = 4;
        for p in [
            UopProgram::query_key_inner(),
            UopProgram::query_key_leaf(),
            UopProgram::point_to_point_inner(),
            UopProgram::nbody_force_leaf(),
            UopProgram::ray_box(),
            UopProgram::rtnn_leaf(),
            UopProgram::ray_sphere_leaf(),
            UopProgram::ray_triangle_leaf(),
            UopProgram::transform(),
        ] {
            let (lo, hi) = p.latency_bounds(hop);
            assert_eq!(lo, p.critical_path_latency(hop), "{}", p.name());
            assert_eq!(
                hi,
                p.unit_latency_sum() + hop * p.len() as u64,
                "{}",
                p.name()
            );
            assert!(lo <= hi, "{}: {lo} > {hi}", p.name());
            assert!(lo > 0, "{}", p.name());
        }
    }
}
