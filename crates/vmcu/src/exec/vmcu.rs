//! vMCU's segment-level kernels: one circular pool per layer, sized to
//! the layer's executable `bIn − bOut` distance — plus the §4
//! whole-network chained mode, where every layer shares one pool.

use super::StagedLayer;
use crate::engine::{InferenceReport, LayerReport};
use crate::error::EngineError;
use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::conv2d::run_conv2d;
use vmcu_kernels::depthwise::run_depthwise;
use vmcu_kernels::fc::run_fc;
use vmcu_kernels::fused_ib::{run_fused_ib, IbFlash};
use vmcu_kernels::pointwise::run_pointwise;
use vmcu_kernels::IbScheme;
use vmcu_plan::{ChainPlan, LayerPlan};
use vmcu_pool::SegmentPool;
use vmcu_sim::{Device, Machine};
use vmcu_tensor::Tensor;

/// Runs one single-input layer's segment kernel in `pool`, reading its
/// input at logical `b_in` and writing its output at `b_out`. Fused
/// inverted bottlenecks put their workspace right after the pool window.
fn run_layer_in_pool(
    m: &mut Machine,
    pool: &mut SegmentPool,
    layer: &LayerDesc,
    staged: StagedLayer,
    scheme: IbScheme,
    b_in: i64,
    b_out: i64,
) -> Result<(), EngineError> {
    match layer {
        LayerDesc::Pointwise(p) => {
            run_pointwise(m, pool, p, b_in, b_out, staged.single("vMCU")?, None)?;
        }
        LayerDesc::Conv2d(p) => run_conv2d(m, pool, p, b_in, b_out, staged.single("vMCU")?, None)?,
        LayerDesc::Depthwise(p) => {
            run_depthwise(m, pool, p, b_in, b_out, staged.single("vMCU")?, None)?;
        }
        LayerDesc::Dense(p) => run_fc(m, pool, p, b_in, b_out, staged.single("vMCU")?, None)?,
        LayerDesc::Ib(p) => {
            let StagedLayer::Ib { w1, wdw, w2 } = staged else {
                return Err(EngineError::Unsupported {
                    kind: layer.kind(),
                    executor: "vMCU",
                });
            };
            let (flash, ws_base) = (IbFlash { w1, wdw, w2 }, pool.window_len());
            run_fused_ib(m, pool, p, scheme, b_in, b_out, &flash, ws_base)?;
        }
        // Merges take two inputs; they never reach a single-input body.
        LayerDesc::Add(_) | LayerDesc::Concat(_) => {
            return Err(EngineError::Unsupported {
                kind: layer.kind(),
                executor: "vMCU",
            })
        }
    }
    Ok(())
}

/// Single-layer segment execution — the body every vMCU-family schedule
/// runs single nodes with, so all of them run identical kernels on
/// identical pools.
pub(crate) fn exec_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    staged: StagedLayer,
    input: &Tensor<i8>,
    scheme: IbScheme,
) -> Result<Tensor<i8>, EngineError> {
    let seg = match layer {
        LayerDesc::Pointwise(p) => p.seg,
        LayerDesc::Conv2d(p) => p.seg,
        LayerDesc::Depthwise(p) => p.c,
        LayerDesc::Dense(p) => p.seg,
        LayerDesc::Ib(p) => p.seg(),
        LayerDesc::Add(_) | LayerDesc::Concat(_) => {
            return Err(EngineError::Unsupported {
                kind: layer.kind(),
                executor: "vMCU",
            })
        }
    };
    let (d, _) = vmcu_plan::chain::layer_distance(layer, scheme);
    let window = (layer.in_bytes() + d.max(0) as usize).max(layer.out_bytes());
    let mut pool = SegmentPool::new(m, 0, window, seg)?;
    pool.host_fill_live(m, 0, &input.as_bytes())?;
    run_layer_in_pool(m, &mut pool, layer, staged, scheme, 0, -d)?;
    let out = pool.host_read(m, -d, layer.out_bytes())?;
    Ok(Tensor::from_bytes(&layer.out_shape(), &out))
}

/// Chained whole-network execution: each layer's input pointer is the
/// previous layer's output pointer, and the whole network flows through
/// one circular pool window of `max(per-layer span)` bytes (§4's
/// multi-layer deployment model).
pub(crate) fn infer_chained(
    m: &mut Machine,
    device: &Device,
    graph: &Graph,
    staged: &[StagedLayer],
    plan: &ChainPlan,
    scheme: IbScheme,
    input: &Tensor<i8>,
) -> Result<InferenceReport, EngineError> {
    let needed = plan.total_bytes() + device.runtime_overhead_bytes;
    if needed > device.ram_bytes {
        return Err(EngineError::DoesNotFit {
            layer: format!("chained {}", graph.name),
            needed,
            available: device.ram_bytes,
        });
    }
    let seg = match graph.layers().first() {
        Some(LayerDesc::Ib(p)) => p.seg(),
        Some(LayerDesc::Pointwise(p)) => p.seg,
        Some(LayerDesc::Dense(p)) => p.seg,
        _ => 1,
    };
    let mut pool = SegmentPool::new(m, 0, plan.window, seg.max(1))?;
    pool.host_fill_live(m, plan.bases[0], &input.as_bytes())?;
    let mut layers = Vec::with_capacity(graph.len());
    for (i, layer) in graph.layers().iter().enumerate() {
        let before = m.snapshot();
        let (b_in, b_out) = (plan.bases[i], plan.bases[i + 1]);
        run_layer_in_pool(m, &mut pool, layer, staged[i], scheme, b_in, b_out)?;
        let exec = m.summarize_since(&before);
        let name = format!("{}#{i}", layer.kind());
        layers.push(LayerReport {
            name: name.clone(),
            plan: LayerPlan {
                name,
                kind: layer.kind(),
                activation_bytes: plan.window,
                workspace_bytes: plan.workspace,
                measured_bytes: needed,
                fits: true,
            },
            exec,
        });
    }
    let out_bytes = graph.layers().last().expect("non-empty graph").out_bytes();
    let out_base = *plan.bases.last().expect("bases non-empty");
    let out = pool.host_read(m, out_base, out_bytes)?;
    let output = Tensor::from_bytes(&graph.out_shape(), &out);
    Ok(InferenceReport { output, layers })
}
