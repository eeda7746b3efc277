//! TTA+ operation units — Table I of the paper.
//!
//! TTA+ decomposes the fixed-function intersection pipelines into individual
//! OP units connected by a crossbar. Each unit type here carries the
//! pipeline latency published in Table I; the unit-latency test in this
//! module asserts the table verbatim.

/// The OP unit types of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpUnit {
    /// Pipelined FP32 `vec3 ± vec3`.
    Vec3AddSub,
    /// Pipelined FP32 scalar multiply.
    Multiplier,
    /// FP32 `1/x` (like the CPU `RCPSS` instruction).
    Reciprocal,
    /// Pipelined cross product of two FP32 `vec3`s.
    CrossProduct,
    /// Pipelined dot product of two FP32 `vec3`s.
    DotProduct,
    /// `(a <= b) ? 1 : 0` on all `vec3` components.
    Vec3Cmp,
    /// `MIN(a, MAX(b, c))`; also plain `MIN`/`MAX`.
    MinMax,
    /// `MAX(a, MIN(b, c))`; also plain `MIN`/`MAX`.
    MaxMin,
    /// Logical AND/OR/XOR/NOT.
    Logical,
    /// Square root.
    Sqrt,
    /// Ray transform matrix multiplication (R-XFORM).
    RayTransform,
}

impl OpUnit {
    /// All unit types, in Table I order.
    pub const ALL: [OpUnit; 11] = [
        OpUnit::Vec3AddSub,
        OpUnit::Multiplier,
        OpUnit::Reciprocal,
        OpUnit::CrossProduct,
        OpUnit::DotProduct,
        OpUnit::Vec3Cmp,
        OpUnit::MinMax,
        OpUnit::MaxMin,
        OpUnit::Logical,
        OpUnit::Sqrt,
        OpUnit::RayTransform,
    ];

    /// Position in [`OpUnit::ALL`] (the declaration order).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Pipeline latency in cycles (Table I).
    pub const fn latency(self) -> u64 {
        match self {
            OpUnit::Vec3AddSub => 4,
            OpUnit::Multiplier => 4,
            OpUnit::Reciprocal => 4,
            OpUnit::CrossProduct => 5,
            OpUnit::DotProduct => 5,
            OpUnit::Vec3Cmp => 1,
            OpUnit::MinMax => 1,
            OpUnit::MaxMin => 1,
            OpUnit::Logical => 1,
            OpUnit::Sqrt => 11,
            OpUnit::RayTransform => 4,
        }
    }

    /// Display name matching the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            OpUnit::Vec3AddSub => "Vec3 Add/Sub",
            OpUnit::Multiplier => "Multiplier",
            OpUnit::Reciprocal => "RCP",
            OpUnit::CrossProduct => "Cross Product",
            OpUnit::DotProduct => "Dot Product",
            OpUnit::Vec3Cmp => "Vec3 CMP",
            OpUnit::MinMax => "MINMAX",
            OpUnit::MaxMin => "MAXMIN",
            OpUnit::Logical => "Logical",
            OpUnit::Sqrt => "SQRT",
            OpUnit::RayTransform => "R-XFORM",
        }
    }
}

impl std::fmt::Display for OpUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, u) in OpUnit::ALL.into_iter().enumerate() {
            assert_eq!(u.index(), i, "{u}");
        }
    }

    #[test]
    fn table_i_latencies() {
        assert_eq!(OpUnit::Vec3AddSub.latency(), 4);
        assert_eq!(OpUnit::Multiplier.latency(), 4);
        assert_eq!(OpUnit::Reciprocal.latency(), 4);
        assert_eq!(OpUnit::CrossProduct.latency(), 5);
        assert_eq!(OpUnit::DotProduct.latency(), 5);
        assert_eq!(OpUnit::Vec3Cmp.latency(), 1);
        assert_eq!(OpUnit::MinMax.latency(), 1);
        assert_eq!(OpUnit::MaxMin.latency(), 1);
        assert_eq!(OpUnit::Logical.latency(), 1);
        assert_eq!(OpUnit::Sqrt.latency(), 11);
        assert_eq!(OpUnit::RayTransform.latency(), 4);
    }

    #[test]
    fn all_lists_every_unit_once() {
        let mut seen = std::collections::HashSet::new();
        for u in OpUnit::ALL {
            assert!(seen.insert(u), "{u} listed twice");
        }
        assert_eq!(seen.len(), 11);
    }
}
