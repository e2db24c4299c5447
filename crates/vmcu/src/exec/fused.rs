//! Fusion-plan nodes: runs of fusable layers execute as one fused chain
//! in a single pool window (intermediates live only as line-buffer
//! rings); singleton nodes run through the policy's single-layer body.

use super::{exec_layer, Kernels, Run, StagedLayer};
use crate::error::EngineError;
use vmcu_graph::Graph;
use vmcu_kernels::fused_chain::run_fused_chain;
use vmcu_plan::FusionNode;
use vmcu_pool::SegmentPool;
use vmcu_tensor::Tensor;

/// Executes a sequence of fusion-plan nodes — the whole graph under the
/// fused policy, the tail under the patched policy, one stage under the
/// split policy — reporting one node per plan row. Node indices address
/// `graph` and `staged`.
pub(crate) fn run_fusion_nodes(
    run: &mut Run<'_>,
    kernels: Kernels,
    graph: &Graph,
    staged: &[StagedLayer],
    nodes: &[FusionNode],
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    let mut cur = input.clone();
    for node in nodes {
        cur = match node {
            FusionNode::Single { index, .. } => {
                let layer = &graph.layers()[*index];
                run.node(|m| exec_layer(m, kernels, layer, staged[*index], &cur))?
            }
            FusionNode::Fused(group) => {
                let flash = staged[group.start..group.end]
                    .iter()
                    .map(|s| s.single("vMCU-fused"))
                    .collect::<Result<Vec<_>, _>>()?;
                let d = group.exec_distance;
                let out_layer = &graph.layers()[group.end - 1];
                run.node(|m| {
                    let mut pool = SegmentPool::new(m, 0, group.window, group.chain.seg())?;
                    pool.host_fill_live(m, 0, &cur.as_bytes())?;
                    run_fused_chain(m, &mut pool, &group.chain, 0, -d, &flash, group.window)?;
                    let out = pool.host_read(m, -d, out_layer.out_bytes())?;
                    Ok(Tensor::from_bytes(&out_layer.out_shape(), &out))
                })?
            }
        };
    }
    Ok(cur)
}
