//! Whole-network pointer chaining (§4's multi-layer deployment story).
//!
//! The paper sets each layer's input pointer to the previous layer's
//! output pointer: the entire network then flows through **one** circular
//! pool window, with every layer's output chasing its input. This module
//! plans that chain — per-layer executable distances from the kernel
//! traces, composed into absolute bases — and sizes the single window as
//! the maximum per-layer span.

use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::conv2d::conv2d_exec_distance;
use vmcu_kernels::depthwise::depthwise_exec_distance;
use vmcu_kernels::fc::fc_exec_distance;
use vmcu_kernels::fused_ib::{ib_exec_distance, ib_workspace_bytes};
use vmcu_kernels::merge::{add_exec_distance, concat_exec_distance};
use vmcu_kernels::pointwise::pointwise_exec_distance;
use vmcu_kernels::IbScheme;

/// The planned chain: one pool window, one base pointer per tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainPlan {
    /// Pool window in bytes (max per-layer span).
    pub window: usize,
    /// Workspace bytes beside the pool (max across fused layers).
    pub workspace: usize,
    /// Logical base address of every activation tensor: `bases[0]` is the
    /// graph input, `bases[i+1]` the output of layer `i`.
    pub bases: Vec<i64>,
    /// Executable `bIn − bOut` per layer.
    pub distances: Vec<i64>,
    /// Index of the layer that sets the window size.
    pub peak_layer: usize,
}

impl ChainPlan {
    /// Total RAM for the chained deployment (window + workspace).
    pub fn total_bytes(&self) -> usize {
        self.window + self.workspace
    }
}

/// Executable distance and workspace for one layer under vMCU policy.
pub fn layer_distance(layer: &LayerDesc, scheme: IbScheme) -> (i64, usize) {
    match layer {
        LayerDesc::Pointwise(p) => (pointwise_exec_distance(p), 0),
        LayerDesc::Conv2d(p) => (conv2d_exec_distance(p), 0),
        LayerDesc::Depthwise(p) => (depthwise_exec_distance(p), 0),
        LayerDesc::Dense(p) => (fc_exec_distance(p), 0),
        LayerDesc::Ib(p) => (ib_exec_distance(p, scheme), ib_workspace_bytes(p, scheme)),
        // Merges never appear on a linear chain (arity 2), but the
        // kernels publish executable distances, so the match stays total.
        LayerDesc::Add(p) => (add_exec_distance(p), 0),
        LayerDesc::Concat(p) => (concat_exec_distance(p), 0),
    }
}

/// Plans a linear graph into one circular pool.
///
/// # Panics
///
/// Panics only if internal bookkeeping breaks (the running `bases`
/// vector is seeded non-empty) — never for a well-formed graph.
pub fn plan_chain(graph: &Graph, scheme: IbScheme) -> ChainPlan {
    crate::telemetry::record_plan_call();
    let mut bases = vec![0i64];
    let mut distances = Vec::with_capacity(graph.len());
    let mut window = 0usize;
    let mut workspace = 0usize;
    let mut peak_layer = 0usize;
    for (i, layer) in graph.layers().iter().enumerate() {
        let (d, ws) = layer_distance(layer, scheme);
        let used = d.max(0) as usize;
        let span = (layer.in_bytes() + used).max(layer.out_bytes());
        if span > window {
            window = span;
            peak_layer = i;
        }
        workspace = workspace.max(ws);
        distances.push(d);
        let b_in = *bases.last().expect("bases starts non-empty");
        bases.push(b_in - d);
    }
    ChainPlan {
        window,
        workspace,
        bases,
        distances,
        peak_layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_graph::zoo;
    use vmcu_kernels::params::PointwiseParams;
    use vmcu_tensor::Requant;

    fn pw(h: usize, c: usize, k: usize) -> LayerDesc {
        LayerDesc::Pointwise(PointwiseParams::new(h, h, c, k, Requant::identity()))
    }

    #[test]
    fn chain_bases_compose_distances() {
        let g = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 8, 4)]).unwrap();
        let plan = plan_chain(&g, IbScheme::RowBuffer);
        assert_eq!(plan.bases.len(), 3);
        assert_eq!(plan.bases[0], 0);
        assert_eq!(plan.bases[1], -plan.distances[0]);
        assert_eq!(plan.bases[2], plan.bases[1] - plan.distances[1]);
    }

    #[test]
    fn window_is_max_layer_span_not_sum() {
        let g = zoo::demo_linear_net();
        let plan = plan_chain(&g, IbScheme::RowBuffer);
        let sum: usize = g
            .layers()
            .iter()
            .map(|l| l.in_bytes() + l.out_bytes())
            .sum();
        assert!(plan.window < sum, "chained window must reuse memory");
        let max_tensor = g
            .layers()
            .iter()
            .map(|l| l.in_bytes().max(l.out_bytes()))
            .max()
            .unwrap();
        assert!(plan.window >= max_tensor);
        assert!(plan.peak_layer < g.len());
    }

    #[test]
    fn workspace_tracks_fused_layers_only() {
        let g = Graph::linear("g", vec![pw(8, 4, 8), pw(8, 8, 4)]).unwrap();
        assert_eq!(plan_chain(&g, IbScheme::RowBuffer).workspace, 0);
        let g = zoo::demo_linear_net();
        assert!(plan_chain(&g, IbScheme::RowBuffer).workspace > 0);
    }
}
