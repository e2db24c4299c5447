//! TinyEngine's tensor-level baseline kernels (in-place depthwise,
//! im2col staging) — the paper's strongest baseline, and the kernels
//! HMCOS schedules run (HMCOS contributes no kernels of its own, §7).

use super::StagedLayer;
use crate::error::EngineError;
use vmcu_graph::LayerDesc;
use vmcu_kernels::tinyengine::{
    run_depthwise_te_inplace, run_ib_te, run_pointwise_te, TeIbLayout, TePointwiseLayout,
};
use vmcu_kernels::PointwiseParams;
use vmcu_sim::Machine;
use vmcu_tensor::Tensor;

/// Names the kernels in typed errors.
const EXECUTOR: &str = "TinyEngine";

/// Single-layer baseline execution, for TinyEngine and HMCOS alike.
pub(crate) fn exec_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    staged: StagedLayer,
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    match layer {
        LayerDesc::Pointwise(p) => {
            let w_base = staged.single(EXECUTOR)?;
            let layout = TePointwiseLayout {
                input: 0,
                output: p.in_bytes(),
                im2col: p.in_bytes() + p.out_bytes(),
            };
            m.host_write_ram(layout.input, &input.as_bytes())?;
            run_pointwise_te(m, p, 1, layout, w_base, None)?;
            let out = m.host_read_ram(layout.output, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.h, p.w, p.k], &out))
        }
        LayerDesc::Dense(p) => {
            // Dense == pointwise over M "pixels" of one column.
            let pw = PointwiseParams {
                h: p.m,
                w: 1,
                c: p.k,
                k: p.n,
                seg: p.seg,
                rq: p.rq,
                clamp: p.clamp,
            };
            let w_base = staged.single(EXECUTOR)?;
            let layout = TePointwiseLayout {
                input: 0,
                output: pw.in_bytes(),
                im2col: pw.in_bytes() + pw.out_bytes(),
            };
            m.host_write_ram(layout.input, &input.as_bytes())?;
            run_pointwise_te(m, &pw, 1, layout, w_base, None)?;
            let out = m.host_read_ram(layout.output, pw.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.m, p.n], &out))
        }
        LayerDesc::Depthwise(p) => {
            let w_base = staged.single(EXECUTOR)?;
            m.host_write_ram(0, &input.as_bytes())?;
            run_depthwise_te_inplace(m, p, 0, p.in_bytes(), w_base)?;
            let out = m.host_read_ram(0, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.out_h(), p.out_w(), p.c], &out))
        }
        LayerDesc::Ib(p) => {
            let StagedLayer::Ib { w1, wdw, w2 } = staged else {
                return Err(EngineError::Unsupported {
                    kind: layer.kind(),
                    executor: EXECUTOR,
                });
            };
            let (layout, _end) = TeIbLayout::packed(p, 0);
            m.host_write_ram(layout.a, &input.as_bytes())?;
            run_ib_te(m, p, layout, w1, wdw, w2)?;
            let out = m.host_read_ram(layout.d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.hw2(), p.hw2(), p.c_out], &out))
        }
        // Merges take two inputs; they never reach a single-input body.
        LayerDesc::Conv2d(_) | LayerDesc::Add(_) | LayerDesc::Concat(_) => {
            Err(EngineError::Unsupported {
                kind: layer.kind(),
                executor: EXECUTOR,
            })
        }
    }
}
