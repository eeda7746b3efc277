//! RTA configuration: warp buffer depth, unit-set count, pipeline latencies.

/// Configuration of one RTA instance (one per SM).
///
/// Defaults follow the paper: 4-warp warp buffer, 4 sets of intersection
/// units, a 13-cycle 4-stage Ray-Box pipeline and a 37-cycle 4-stage
/// Ray-Triangle pipeline (§II-B), one node memory request per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct RtaConfig {
    /// Warp-buffer capacity in warps (Table II: 4; swept in Fig. 14).
    pub warp_buffer_warps: usize,
    /// Number of intersection-unit sets (Table II: 4).
    pub unit_sets: usize,
    /// Ray-Box pipeline latency in cycles (swept in Fig. 14).
    pub ray_box_latency: u64,
    /// Ray-Triangle pipeline latency in cycles.
    pub ray_triangle_latency: u64,
    /// Ray transform (R-XFORM) latency for two-level BVHs.
    pub transform_latency: u64,
    /// Round-trip cost of bouncing a leaf test to an *intersection shader*
    /// on the general-purpose cores (baseline RTA path for procedural
    /// geometry): core wakeup + shader execution + return.
    pub shader_callback_latency: u64,
    /// Dynamic lane-instructions charged per intersection-shader call
    /// (bookkeeping for the Fig. 20 instruction mix and energy model).
    pub shader_instructions: u64,
    /// Initiation interval of the callback path: a new shader call can
    /// start only every this many cycles (the cores' issue slots bound the
    /// callback throughput).
    pub shader_interval: u64,
    /// Node size fetched per request, bytes.
    pub node_fetch_bytes: u32,
    /// Cycles to copy a ray's registers from the core into the warp buffer
    /// at `traceRay` time (the paper: per-ray information is stored in the
    /// warp buffer when the instruction is issued — no memory fetch).
    pub submit_latency: u64,
    /// Enable child prefetching: when a node's data arrives, speculatively
    /// fetch its children before the intersection test decides whether they
    /// are needed (a simple form of the treelet prefetching the paper cites
    /// as an orthogonal architectural improvement, Fig. 17).
    pub prefetch_children: bool,
}

impl RtaConfig {
    /// The paper's baseline RTA configuration.
    pub fn baseline() -> Self {
        RtaConfig {
            warp_buffer_warps: 4,
            unit_sets: 4,
            ray_box_latency: 13,
            ray_triangle_latency: 37,
            transform_latency: 4,
            shader_callback_latency: 400,
            shader_instructions: 40,
            shader_interval: 24,
            node_fetch_bytes: 64,
            submit_latency: 4,
            prefetch_children: false,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized structures.
    pub fn validate(&self) {
        assert!(self.warp_buffer_warps > 0);
        assert!(self.unit_sets > 0);
        assert!(self.ray_box_latency > 0);
        assert!(self.ray_triangle_latency > 0);
        assert!(self.node_fetch_bytes > 0);
    }
}

impl Default for RtaConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = RtaConfig::baseline();
        c.validate();
        assert_eq!(c.warp_buffer_warps, 4);
        assert_eq!(c.unit_sets, 4);
        assert_eq!(c.ray_box_latency, 13);
        assert_eq!(c.ray_triangle_latency, 37);
    }
}
