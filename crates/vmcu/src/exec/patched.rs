//! The patched schedule: the high-resolution spatial front stage runs
//! tile by tile (only a tile's receptive-field slab is resident, halo
//! recompute charged honestly), the tail reuses the fusion-node runner.

use super::fused::run_fusion_nodes;
use super::{Kernels, Run, StagedLayer};
use crate::error::EngineError;
use vmcu_graph::Graph;
use vmcu_kernels::patched::run_patched_front;
use vmcu_plan::PatchPlan;
use vmcu_tensor::Tensor;

/// Runs a patch plan: the patched front (the plan's first row, when the
/// graph has a patchable prefix), then the fused tail.
pub(crate) fn run_patched(
    run: &mut Run<'_>,
    kernels: Kernels,
    graph: &Graph,
    staged: &[StagedLayer],
    plan: &PatchPlan,
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    let Some(front) = &plan.front else {
        return run_fusion_nodes(run, kernels, graph, staged, &plan.tail.nodes, input);
    };
    let flash = staged[..plan.front_len]
        .iter()
        .map(|s| s.single("vMCU-patched"))
        .collect::<Result<Vec<_>, _>>()?;
    let front_out = run.node(|m| Ok(run_patched_front(m, front, input, &flash)?))?;
    run_fusion_nodes(run, kernels, graph, staged, &plan.tail.nodes, &front_out)
}
