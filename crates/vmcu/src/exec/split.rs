//! The split schedule: a pipelined multi-device run. Each stage of the
//! memoized `SplitPlan` runs its fused sub-plan on its own device (the
//! shared fusion-node runner, so stage execution is bit-identical to the
//! single-device fused path), then the boundary activation streams to
//! the next stage over a board-to-board link priced by the deterministic
//! [`LinkModel`] — one `link` report per cut edge, charged exactly once,
//! matching the deploy-time plan entry byte for byte.
//!
//! The simulation runs the pipeline on one [`Machine`](vmcu_sim::Machine):
//! the between-node RAM reset bounds instantaneous residency to a single
//! stage's window (each physical device holds only its own stage), and
//! the host-side tensor hand-off between stages *is* the modeled network
//! hop. Aggregate counters therefore read as whole-pipeline work;
//! per-stage peaks are validated per device by the deploy fit check.

use super::fused::run_fusion_nodes;
use super::{Kernels, Run, StagedLayer};
use crate::error::EngineError;
use vmcu_plan::SplitPlan;
use vmcu_sim::{Counters, ExecSummary, LinkModel};
use vmcu_tensor::Tensor;

/// Runs every stage of `plan` against its memoized sub-graph (stage-local
/// node indices), reporting each cut-edge transfer between stages.
pub(crate) fn run_split(
    run: &mut Run<'_>,
    kernels: Kernels,
    staged: &[StagedLayer],
    plan: &SplitPlan,
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    let link = LinkModel::default();
    let mut cur = input.clone();
    for stage in plan.stages() {
        let stage_staged = &staged[stage.start..stage.end];
        cur = run_fusion_nodes(
            run,
            kernels,
            &stage.graph,
            stage_staged,
            &stage.fusion.nodes,
            &cur,
        )?;
        if stage.cut_bytes > 0 {
            // Simulated link time and energy are integer-derived, so
            // bit-reproducible across hosts; no machine counters move.
            let bytes = stage.cut_bytes as u64;
            run.record(ExecSummary {
                counters: Counters::default(),
                latency_ms: link.transfer_ms(bytes),
                energy_mj: link.transfer_energy_mj(bytes),
            });
        }
    }
    Ok(cur)
}
