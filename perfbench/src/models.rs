//! The benchmark's model set, policy configurations and devices.

use crate::measure::derive_seed;
use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;

/// Seeded random graphs of each kind per run.
const RANDOM_NETS: u64 = 3;

/// The eight policy configurations, with the short id used in metric names.
pub fn policies() -> [(&'static str, PlannerKind); 8] {
    [
        ("vmcu", PlannerKind::Vmcu(IbScheme::RowBuffer)),
        ("vmcu_pw", PlannerKind::Vmcu(IbScheme::PixelWindow)),
        ("fused", PlannerKind::VmcuFused(IbScheme::RowBuffer)),
        ("patched", PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
        ("tinyengine", PlannerKind::TinyEngine),
        ("hmcos", PlannerKind::Hmcos),
        (
            "split4",
            PlannerKind::VmcuSplit {
                devices: 4,
                scheme: IbScheme::RowBuffer,
            },
        ),
        ("reorder", PlannerKind::VmcuReorder(IbScheme::RowBuffer)),
    ]
}

/// The devices infer-zoo's cell list spans: Cortex-M4 (dual-lane) and
/// Cortex-M55 (MVE).
pub fn infer_devices() -> [Device; 2] {
    [Device::stm32_f411re(), Device::mps3_an547()]
}

/// Short device id for metric names (`stm32-f411re`).
pub fn device_id(device: &Device) -> String {
    device.name.to_ascii_lowercase()
}

/// A model with its seeded weights.
pub struct Model {
    /// Stable name; seeded random graphs are named by slot, not by seed.
    pub name: String,
    /// The graph.
    pub graph: Graph,
    /// Weights drawn from the run seed.
    pub weights: Vec<LayerWeights>,
}

/// The named zoo graphs, the paper's single-layer cases (Fig. 7 pointwise
/// convolutions, Table 2 VWW and ImageNet inverted bottlenecks) and
/// `RANDOM_NETS` seeded random linear and DAG graphs, each with weights
/// drawn from `seed`.
///
/// # Panics
///
/// Panics if a single-layer case fails to form a graph (it cannot).
pub fn models(seed: u64) -> Vec<Model> {
    let mut graphs: Vec<(String, Graph)> = vec![
        ("demo-linear".into(), zoo::demo_linear_net()),
        ("mbv2-block-unfused".into(), zoo::mbv2_block_unfused()),
        ("wide-expand-chain".into(), zoo::wide_expand_chain()),
        ("hires-front-stage".into(), zoo::hires_front_stage()),
        ("hires-split-only".into(), zoo::hires_split_only()),
        ("mbv2-residual-dag".into(), zoo::mbv2_residual_dag()),
        ("two-head-net".into(), zoo::two_head_net()),
        ("branchy-oom-net".into(), zoo::branchy_oom_net()),
    ];
    for case in zoo::fig7_cases() {
        let layer = LayerDesc::Pointwise(case.params);
        let name = format!(
            "fig7-{}",
            case.name.to_ascii_lowercase().replace(['/', ','], "-")
        );
        graphs.push((name.clone(), single_layer(&name, layer)));
    }
    for module in zoo::mcunet_5fps_vww()
        .into_iter()
        .chain(zoo::mcunet_320kb_imagenet())
    {
        let name = format!("table2-{}", module.name.to_ascii_lowercase());
        graphs.push((
            name.clone(),
            single_layer(&name, LayerDesc::Ib(module.params)),
        ));
    }
    for i in 0..RANDOM_NETS {
        graphs.push((
            format!("random-linear-{i}"),
            zoo::random_linear_net(derive_seed(seed, 0x11_0000 + i), 6),
        ));
        graphs.push((
            format!("random-dag-{i}"),
            zoo::random_dag_net(derive_seed(seed, 0x0DA6_0000 + i), 5),
        ));
    }
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, (name, graph))| {
            let weights = graph.random_weights(derive_seed(seed, 0x3E16_0000 + i as u64));
            Model {
                name,
                graph,
                weights,
            }
        })
        .collect()
}

fn single_layer(name: &str, layer: LayerDesc) -> Graph {
    Graph::linear(name.to_owned(), vec![layer]).expect("a single layer always chains")
}
