//! Shared-input caching for experiments.
//!
//! Every experiment spends most of its host-side time generating inputs
//! (`gen::*`) and building/serializing the tree they index. Within a sweep
//! those artifacts are identical across platform/configuration points, so
//! each experiment type exposes its expensive immutable inputs as a
//! dedicated `*Inputs` struct that can be built once, wrapped in an
//! [`Arc`], and shared across runs (and across worker threads — inputs are
//! `Send + Sync` and never mutated after construction).
//!
//! The contract: `run()` with pre-built inputs produces *exactly* the same
//! [`crate::RunResult`] as `run()` without them, because `build_inputs`
//! is the identical code path (seeded RNG, same construction order). The
//! harness crate relies on this to keep journals byte-identical at any
//! worker-thread count.

use std::sync::Arc;

/// An experiment whose expensive immutable inputs can be pre-built and
/// shared across runs.
pub trait CacheableExperiment {
    /// The pre-built inputs (generated data + built/serialized tree).
    type Inputs: Send + Sync + 'static;

    /// Cache key: two experiments with equal keys must build equal inputs.
    /// Keys namespace the experiment type (e.g. `btree/...`) so distinct
    /// input types never collide in a shared cache.
    fn inputs_key(&self) -> String;

    /// Builds the inputs from scratch — the same construction `run()`
    /// performs when no inputs are attached.
    fn build_inputs(&self) -> Self::Inputs;

    /// Attaches pre-built inputs; the next `run()` uses them instead of
    /// rebuilding. Attaching inputs built from a *different* configuration
    /// is a logic error (results would be silently wrong), so only attach
    /// what `build_inputs` on an equal-key experiment returned.
    fn set_inputs(&mut self, inputs: Arc<Self::Inputs>);
}

/// The inputs attached with [`CacheableExperiment::set_inputs`], or a
/// fresh [`build_inputs`](CacheableExperiment::build_inputs) when none are.
pub fn inputs_or_build<E: CacheableExperiment>(
    exp: &E,
    attached: Option<&Arc<E::Inputs>>,
) -> Arc<E::Inputs> {
    attached.map_or_else(|| Arc::new(exp.build_inputs()), Arc::clone)
}
