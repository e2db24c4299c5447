//! The deployed schedule, and the kernels that run it.
//!
//! vMCU plans offline and runs a fixed schedule on the device. A policy
//! is a [`MemoryPlanner`] (how much RAM, decided at deploy time) plus a
//! [`Schedule`]: the plan artifacts the device walks at inference time.
//! `Schedule::plan` builds both for a [`PlannerKind`] once, at deploy;
//! [`Session::infer`](crate::deploy::Session::infer) runs the schedule
//! with one `match`. Adding a policy is a planner impl in `vmcu-plan`,
//! a `PlannerKind` arm, and, only if it walks the graph in a new way, a
//! `Schedule` arm.
//!
//! Running a schedule touches deployed state only: the graph, the
//! memoized plans, and the weights already staged into device Flash
//! (`StagedLayer`). It must not plan (the plan-call telemetry in
//! `vmcu_plan::telemetry` makes that checkable) and must not program
//! Flash (the session's reset assertions turn that into a typed
//! [`EngineError::StateLeak`]).
//!
//! [`MemoryPlanner`]: vmcu_plan::MemoryPlanner
//! [`EngineError::StateLeak`]: crate::error::EngineError::StateLeak

pub(crate) mod fused;
pub(crate) mod patched;
pub(crate) mod split;
pub(crate) mod tinyengine;
pub(crate) mod vmcu;

use crate::engine::{InferenceReport, LayerReport, PlannerKind};
use crate::error::EngineError;
use vmcu_graph::{Graph, LayerDesc, LayerWeights, NodeInput};
use vmcu_kernels::merge::{add_exec_distance, concat_exec_distance, run_add, run_concat};
use vmcu_kernels::IbScheme;
use vmcu_plan::{
    ChainPlan, FusionPlan, LayerPlan, MemoryPlan, MemoryPlanner, OrderPlan, PatchPlan, SplitPlan,
};
use vmcu_pool::SegmentPool;
use vmcu_sim::{Device, ExecSummary, Machine};
use vmcu_tensor::Tensor;

/// How a deployment walks its graph at inference time, with the plan
/// artifacts that walk needs, memoized at deploy.
///
/// Every schedule emits one report per row of the deployment's
/// [`MemoryPlan`], in row order.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Node by node, one pool per node, each activation held until its
    /// last consumer. Used by vMCU, reorder, TinyEngine and HMCOS, and by
    /// the chain-only policies (fused, patched, split) on branchy DAGs.
    Nodes {
        /// The searched minimum-peak execution order (reorder policy);
        /// `None` runs the nodes in index order.
        order: Option<OrderPlan>,
        /// The §4 whole-network chain plan that
        /// [`Session::infer_chained`](crate::deploy::Session::infer_chained)
        /// runs (vMCU policy on chain graphs only).
        chain: Option<ChainPlan>,
    },
    /// Runs of fusable layers as fused chains in one pool window each
    /// (fused policy).
    Fused(FusionPlan),
    /// The spatial front tile by tile, then the fused tail (patched
    /// policy).
    Patched(PatchPlan),
    /// Fused stages on networked devices, with every cut-edge transfer
    /// priced by the link model (split policy).
    Split(SplitPlan),
}

impl Schedule {
    /// Plans `graph` for `kind` on `device`: the memory plan (fit
    /// validation and per-node report accounting) and the schedule it
    /// prices. Called once, at deploy. Policies whose artifacts only
    /// exist on chains (fused, patched, split) fall back to the
    /// node-by-node walk on branchy DAGs.
    pub(crate) fn plan(
        kind: PlannerKind,
        planner: &dyn MemoryPlanner,
        graph: &Graph,
        device: &Device,
    ) -> (MemoryPlan, Self) {
        let nodes = |order, chain| Schedule::Nodes { order, chain };
        match kind {
            PlannerKind::VmcuFused(_)
            | PlannerKind::VmcuPatched(_)
            | PlannerKind::VmcuSplit { .. }
                if !graph.is_chain() =>
            {
                (
                    vmcu_plan::plan_graph(planner, graph, device),
                    nodes(None, None),
                )
            }
            PlannerKind::Vmcu(scheme) => {
                let memory = vmcu_plan::plan_graph(planner, graph, device);
                // The §4 chain deployment model threads one circular
                // window through consecutive layers: chains only.
                let chain = graph
                    .is_chain()
                    .then(|| vmcu_plan::plan_chain(graph, scheme));
                (memory, nodes(None, chain))
            }
            PlannerKind::TinyEngine | PlannerKind::Hmcos => (
                vmcu_plan::plan_graph(planner, graph, device),
                nodes(None, None),
            ),
            // Each policy below runs its search once; the same artifact
            // is both the schedule and what the memory plan prices.
            PlannerKind::VmcuReorder(_) => {
                let order = vmcu_plan::plan_order(planner, graph);
                let memory =
                    vmcu_plan::order::plan_model_for_order(planner, graph, device, &order.order);
                (memory, nodes(Some(order), None))
            }
            PlannerKind::VmcuFused(scheme) => {
                let fusion = vmcu_plan::fuse_graph(graph, scheme);
                let memory =
                    vmcu_plan::FusedPlanner { scheme }.plan_model_from(&fusion, graph, device);
                (memory, Schedule::Fused(fusion))
            }
            PlannerKind::VmcuPatched(scheme) => {
                let patch_planner = vmcu_plan::PatchedPlanner {
                    scheme,
                    ..vmcu_plan::PatchedPlanner::default()
                };
                let patch = patch_planner.patch_plan(graph);
                let memory = patch_planner.plan_model_from(&patch, graph, device);
                (memory, Schedule::Patched(patch))
            }
            PlannerKind::VmcuSplit { devices, scheme } => {
                let split = vmcu_plan::plan_split(graph, devices, scheme);
                let memory =
                    vmcu_plan::SplitPlanner { devices, scheme }.plan_model_from(&split, device);
                (memory, Schedule::Split(split))
            }
        }
    }
}

/// The kernels a policy runs single graph nodes with, and the layout its
/// merges use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernels {
    /// vMCU's segment-level kernels (inverted bottlenecks use the given
    /// workspace scheme). Merges overlap their dying operands.
    Segment(IbScheme),
    /// The tensor-level baseline kernels. TinyEngine adds in place
    /// (`add_in_place`) and lays concat outputs disjoint; HMCOS, which
    /// contributes no kernels of its own (§7), lays every merge disjoint.
    Baseline {
        /// Whether an add writes over one of its operands.
        add_in_place: bool,
    },
}

impl Kernels {
    fn merge_mode(self, layer: &LayerDesc) -> MergeMode {
        match (self, layer) {
            (Kernels::Segment(_), _)
            | (Kernels::Baseline { add_in_place: true }, LayerDesc::Add(_)) => MergeMode::Overlap,
            _ => MergeMode::Disjoint,
        }
    }
}

/// Flash addresses of one layer's weights, staged at deploy time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StagedLayer {
    /// One contiguous weight image (pointwise, conv2d, depthwise, dense).
    Single(usize),
    /// The three images of a fused inverted bottleneck.
    Ib {
        /// Expand (1×1) weights.
        w1: usize,
        /// Depthwise weights.
        wdw: usize,
        /// Project (1×1) weights.
        w2: usize,
    },
    /// No weight image — merge layers (add, concat) carry no weights.
    None,
}

impl StagedLayer {
    /// The single image address, or a typed error for layers staged as
    /// multiple images or none (`executor` names the kernels in the
    /// error).
    pub(crate) fn single(&self, executor: &'static str) -> Result<usize, EngineError> {
        match self {
            StagedLayer::Single(addr) => Ok(*addr),
            StagedLayer::Ib { .. } => Err(EngineError::Unsupported {
                kind: "inverted-bottleneck",
                executor,
            }),
            StagedLayer::None => Err(EngineError::Unsupported {
                kind: "merge",
                executor,
            }),
        }
    }
}

/// Programs one layer's weights into Flash, returning the staged
/// addresses. Inverted bottlenecks stage `w1`, `wdw`, `w2` in that
/// order.
///
/// # Errors
///
/// Returns [`EngineError::Unsupported`] for a layer/weights kind
/// mismatch and memory errors when the Flash capacity is exceeded.
pub(crate) fn stage_layer(
    m: &mut Machine,
    layer: &LayerDesc,
    weights: &LayerWeights,
) -> Result<StagedLayer, EngineError> {
    match (layer, weights) {
        (LayerDesc::Pointwise(_), LayerWeights::Pointwise(t))
        | (LayerDesc::Conv2d(_), LayerWeights::Conv2d(t))
        | (LayerDesc::Depthwise(_), LayerWeights::Depthwise(t))
        | (LayerDesc::Dense(_), LayerWeights::Dense(t)) => {
            Ok(StagedLayer::Single(m.host_program_flash(&t.as_bytes())?))
        }
        (LayerDesc::Ib(_), LayerWeights::Ib { w1, wdw, w2 }) => Ok(StagedLayer::Ib {
            w1: m.host_program_flash(&w1.as_bytes())?,
            wdw: m.host_program_flash(&wdw.as_bytes())?,
            w2: m.host_program_flash(&w2.as_bytes())?,
        }),
        (LayerDesc::Add(_) | LayerDesc::Concat(_), LayerWeights::None) => Ok(StagedLayer::None),
        _ => Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "staging",
        }),
    }
}

/// Stages a whole graph's weights into Flash in layer order — the
/// deployment's firmware image.
///
/// # Errors
///
/// Same contract as [`stage_layer`], per layer.
pub(crate) fn stage_graph(
    m: &mut Machine,
    layers: &[LayerDesc],
    weights: &[LayerWeights],
) -> Result<Vec<StagedLayer>, EngineError> {
    layers
        .iter()
        .zip(weights)
        .map(|(l, w)| stage_layer(m, l, w))
        .collect()
}

/// One inference in progress: the machine, and one report per executed
/// schedule node, paired in order with the rows of the deployment's
/// memory plan.
pub(crate) struct Run<'a> {
    m: &'a mut Machine,
    rows: std::slice::Iter<'a, LayerPlan>,
    layers: Vec<LayerReport>,
}

impl<'a> Run<'a> {
    pub(crate) fn new(m: &'a mut Machine, plan: &'a MemoryPlan) -> Self {
        Self {
            m,
            rows: plan.layers.iter(),
            layers: Vec::with_capacity(plan.layers.len()),
        }
    }

    /// Executes one schedule node and reports it against the next plan
    /// row. RAM starts from boot state; the counters keep accumulating,
    /// so the report takes their delta.
    pub(crate) fn node<T>(
        &mut self,
        exec: impl FnOnce(&mut Machine) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.m.ram.clear();
        let before = self.m.snapshot();
        let out = exec(self.m)?;
        let summary = self.m.summarize_since(&before);
        self.record(summary);
        Ok(out)
    }

    /// Reports a node that does no machine work (a split link transfer)
    /// against the next plan row.
    pub(crate) fn record(&mut self, exec: ExecSummary) {
        let plan = self
            .rows
            .next()
            .expect("the memory plan has one row per executed node")
            .clone();
        self.layers.push(LayerReport {
            name: plan.name.clone(),
            plan,
            exec,
        });
    }

    pub(crate) fn finish(self, output: Tensor<i8>) -> InferenceReport {
        InferenceReport {
            output,
            layers: self.layers,
        }
    }
}

/// Executes one single-input layer on a machine whose RAM the caller
/// cleared, reading the input from the host and returning the output.
/// Flash is never touched.
///
/// # Errors
///
/// Returns [`EngineError::Unsupported`] for layer kinds the kernels
/// cannot run, and pool/memory errors on internal bugs.
pub(crate) fn exec_layer(
    m: &mut Machine,
    kernels: Kernels,
    layer: &LayerDesc,
    staged: StagedLayer,
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    match kernels {
        Kernels::Segment(scheme) => vmcu::exec_layer(m, layer, staged, input, scheme),
        Kernels::Baseline { .. } => tinyengine::exec_layer(m, layer, staged, input),
    }
}

/// Executes one graph node given all of its input tensors in slot
/// order: single-input layers through [`exec_layer`], merges through
/// [`exec_merge`] in the kernels' merge layout.
fn exec_node(
    m: &mut Machine,
    kernels: Kernels,
    layer: &LayerDesc,
    staged: StagedLayer,
    inputs: &[&Tensor<i8>],
) -> Result<Tensor<i8>, EngineError> {
    match inputs {
        [single] => exec_layer(m, kernels, layer, staged, single),
        _ => exec_merge(m, layer, inputs, kernels.merge_mode(layer)),
    }
}

/// How a merge kernel lays its output relative to its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeMode {
    /// Segment-level overlap: the output lands at `−d` where `d` is the
    /// kernel's executable distance, so it reuses the dying operand
    /// slots.
    Overlap,
    /// Disjoint output after both operands.
    Disjoint,
}

/// Shared merge-layer body: stages both operands consecutively in one
/// pool (`A` at logical 0, `B` right after), runs the segment-aware
/// merge kernel, and reads the output back. The window matches the
/// planners' pricing for each mode, so executed peaks equal planned
/// peaks byte for byte.
fn exec_merge(
    m: &mut Machine,
    layer: &LayerDesc,
    inputs: &[&Tensor<i8>],
    mode: MergeMode,
) -> Result<Tensor<i8>, EngineError> {
    let [a, b] = inputs else {
        return Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "merge",
        });
    };
    match layer {
        LayerDesc::Add(p) => {
            let (d, window) = match mode {
                MergeMode::Overlap => {
                    let d = add_exec_distance(p);
                    let w = (p.in_bytes() as i64 + d.max(0)).max(p.out_bytes() as i64);
                    (d, w as usize)
                }
                MergeMode::Disjoint => (-(p.in_bytes() as i64), p.in_bytes() + p.out_bytes()),
            };
            let mut pool = SegmentPool::new(m, 0, window, p.seg)?;
            pool.host_fill_live(m, 0, &a.as_bytes())?;
            pool.host_fill_live(m, p.tensor_bytes() as i64, &b.as_bytes())?;
            run_add(m, &mut pool, p, 0, -d)?;
            let out = pool.host_read(m, -d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.h, p.w, p.c], &out))
        }
        LayerDesc::Concat(p) => {
            let (d, window) = match mode {
                MergeMode::Overlap => {
                    let d = concat_exec_distance(p);
                    let w = (p.in_bytes() as i64 + d.max(0)).max(p.out_bytes() as i64);
                    (d, w as usize)
                }
                MergeMode::Disjoint => (-(p.in_bytes() as i64), p.in_bytes() + p.out_bytes()),
            };
            let mut pool = SegmentPool::new(m, 0, window, p.seg())?;
            pool.host_fill_live(m, 0, &a.as_bytes())?;
            pool.host_fill_live(m, p.a_bytes() as i64, &b.as_bytes())?;
            run_concat(m, &mut pool, p, 0, -d)?;
            let out = pool.host_read(m, -d, p.out_bytes())?;
            Ok(Tensor::from_bytes(&[p.h, p.w, p.c_a + p.c_b], &out))
        }
        _ => Err(EngineError::Unsupported {
            kind: layer.kind(),
            executor: "merge",
        }),
    }
}

/// Walks a deployed graph in `order` (index order when `None`), holding
/// every produced activation host-side until its last consumer — the
/// execution mirror of the planners' last-consumer liveness pricing.
/// The plan rows are consumed by step (row `k` prices the `k`-th
/// executed node), which is the identity mapping for index-order plans
/// and the searched order for reorder plans.
///
/// # Panics
///
/// Panics if `order` is not topological (a node executes before one of
/// its producers) — deploy-time validation rules that out.
pub(crate) fn run_nodes(
    run: &mut Run<'_>,
    kernels: Kernels,
    graph: &Graph,
    staged: &[StagedLayer],
    order: Option<&OrderPlan>,
    input: &Tensor<i8>,
) -> Result<Tensor<i8>, EngineError> {
    let n = graph.len();
    let index_order: Vec<usize>;
    let order: &[usize] = match order {
        Some(plan) => &plan.order,
        None => {
            index_order = (0..n).collect();
            &index_order
        }
    };
    let mut acts: Vec<Option<Tensor<i8>>> = vec![None; n];
    for &v in order {
        let layer = &graph.layers()[v];
        let inputs: Vec<&Tensor<i8>> = graph
            .node_inputs(v)
            .iter()
            .map(|edge| match edge {
                NodeInput::GraphInput => input,
                NodeInput::Node(j) => acts[*j]
                    .as_ref()
                    .expect("topological order runs producers first"),
            })
            .collect();
        let out = run.node(|m| exec_node(m, kernels, layer, staged[v], &inputs))?;
        acts[v] = Some(out);
    }
    Ok(acts[n - 1]
        .take()
        .expect("the last node is the graph output"))
}
