//! The inference engine: plan, deploy, execute, report.
//!
//! [`Engine`] ties the whole reproduction together: pick a device and a
//! planner policy, [`deploy`](Engine::deploy) a model once — fit is
//! validated, every plan artifact is memoized, weights are staged into
//! Flash — and run as many inferences as you like through the resulting
//! [`Session`](crate::deploy::Session) with zero replanning. A policy is
//! a [`MemoryPlanner`] that decides RAM at deploy time plus the
//! [`Schedule`](crate::exec::Schedule) the device runs. vMCU plans are
//! additionally validated at run time by the checked pool — a planning
//! bug turns into a typed error, never a wrong answer.

use crate::deploy::Deployment;
use crate::error::EngineError;
use crate::exec::{self, stage_layer, Kernels};
use vmcu_graph::{Graph, LayerDesc, LayerWeights};
use vmcu_kernels::IbScheme;
use vmcu_plan::planner::MemoryPlanner;
use vmcu_plan::{
    FusedPlanner, HmcosPlanner, LayerPlan, MemoryPlan, PatchedPlanner, ReorderPlanner,
    SplitPlanner, TinyEnginePlanner, VmcuPlanner,
};
use vmcu_sim::{Device, ExecSummary, Machine};
use vmcu_tensor::Tensor;

/// Planning policy selection.
///
/// A `PlannerKind` resolves to the planning policy object
/// ([`planner`](PlannerKind::planner)) that decides RAM at deploy time,
/// and to the [`Schedule`](crate::exec::Schedule) the device runs.
/// [`Engine::deploy`] resolves both once and caches them in the
/// [`Deployment`].
///
/// # Examples
///
/// Patch-based execution ([`PlannerKind::VmcuPatched`]) admits spatial
/// workloads no whole-tensor policy can: `zoo::hires_front_stage`'s
/// 147 KB input activation exceeds the 128 KB device outright, yet the
/// patched engine deploys it.
///
/// ```
/// use vmcu::prelude::*;
///
/// let g = vmcu::vmcu_graph::zoo::hires_front_stage();
/// let weights = g.random_weights(1);
/// let dev = Device::stm32_f411re();
/// let whole_tensor = Engine::new(dev.clone()).deploy(&g, &weights);
/// assert!(matches!(whole_tensor, Err(EngineError::DoesNotFit { .. })));
/// let patched = Engine::new(dev)
///     .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
///     .deploy(&g, &weights);
/// assert!(patched.is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    /// vMCU segment-level management (fused modules use the given
    /// workspace scheme).
    Vmcu(IbScheme),
    /// vMCU segment-level management **plus** the multi-layer segment
    /// fusion pass: runs of fusable layers execute as one fused chain in
    /// a single pool window, so fat intermediates never materialize.
    VmcuFused(IbScheme),
    /// vMCU segment-level management **plus** patch-based front-stage
    /// execution: the high-resolution spatial front runs tile by tile
    /// (only a tile's receptive-field slab is resident, halo recompute
    /// charged honestly), the tail reuses the fusion pass — the policy
    /// for models whose front activations exceed SRAM outright.
    VmcuPatched(IbScheme),
    /// TinyEngine tensor-level management.
    TinyEngine,
    /// HMCOS scheduling (planned with HMCOS policy; executed with the
    /// baseline kernels — HMCOS contributes no kernels of its own).
    Hmcos,
    /// Split inference across up to `devices` networked MCUs: the graph
    /// is cut layer-wise into contiguous per-device stages minimizing
    /// the max per-device peak (each stage planned by the fusion pass),
    /// and the pipelined schedule streams the boundary activations
    /// stage-to-stage with every transfer priced by the deterministic
    /// `vmcu_sim::LinkModel` — the policy for models no *single* device
    /// can hold.
    VmcuSplit {
        /// Maximum number of networked devices to cut across (2–8;
        /// clamped by the partitioner).
        devices: u8,
        /// Workspace scheme for fused inverted-bottleneck singletons
        /// inside each stage.
        scheme: IbScheme,
    },
    /// vMCU segment-level management **plus** execution-order search on
    /// branchy DAGs: nodes run in the searched minimum-peak topological
    /// order (exhaustive up to 14 nodes, greedy memory-aware beyond),
    /// with every tensor held only until its last consumer. The searched
    /// order is structurally never worse than the default one — the
    /// policy for branchy models whose default interleaving holds two
    /// fat branches co-resident.
    VmcuReorder(IbScheme),
}

impl PlannerKind {
    /// Planner display name.
    pub fn name(&self) -> &'static str {
        match self {
            PlannerKind::Vmcu(_) => "vMCU",
            PlannerKind::VmcuFused(_) => "vMCU-fused",
            PlannerKind::VmcuPatched(_) => "vMCU-patched",
            PlannerKind::TinyEngine => "TinyEngine",
            PlannerKind::Hmcos => "HMCOS",
            PlannerKind::VmcuSplit { .. } => "vMCU-split",
            PlannerKind::VmcuReorder(_) => "vMCU-reorder",
        }
    }

    /// The planning policy object for this kind — the same one the
    /// engine plans with, so external capacity math (admission control)
    /// can never disagree with execution. Resolve once and cache (a
    /// [`Deployment`] does); don't re-box per pricing call.
    pub fn planner(&self) -> Box<dyn MemoryPlanner> {
        match self {
            PlannerKind::Vmcu(scheme) => Box::new(VmcuPlanner { scheme: *scheme }),
            PlannerKind::VmcuFused(scheme) => Box::new(FusedPlanner { scheme: *scheme }),
            PlannerKind::VmcuPatched(scheme) => Box::new(PatchedPlanner {
                scheme: *scheme,
                ..PatchedPlanner::default()
            }),
            PlannerKind::TinyEngine => Box::new(TinyEnginePlanner),
            PlannerKind::Hmcos => Box::new(HmcosPlanner),
            PlannerKind::VmcuSplit { devices, scheme } => Box::new(SplitPlanner {
                devices: *devices,
                scheme: *scheme,
            }),
            PlannerKind::VmcuReorder(scheme) => Box::new(ReorderPlanner::new(*scheme)),
        }
    }

    /// The kernels this policy runs single nodes with, and its merge
    /// layout.
    pub(crate) fn kernels(&self) -> Kernels {
        match self {
            PlannerKind::Vmcu(scheme)
            | PlannerKind::VmcuFused(scheme)
            | PlannerKind::VmcuPatched(scheme)
            | PlannerKind::VmcuSplit { scheme, .. }
            | PlannerKind::VmcuReorder(scheme) => Kernels::Segment(*scheme),
            PlannerKind::TinyEngine => Kernels::Baseline { add_in_place: true },
            PlannerKind::Hmcos => Kernels::Baseline {
                add_in_place: false,
            },
        }
    }
}

/// Per-layer execution record.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// The memory plan for this layer.
    pub plan: LayerPlan,
    /// Counted work, latency, and energy of the layer.
    pub exec: ExecSummary,
}

/// Whole-run record.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Final output tensor.
    pub output: Tensor<i8>,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerReport>,
}

impl InferenceReport {
    /// Peak planned RAM across layers (bytes, including runtime
    /// overhead): the largest `LayerPlan::measured_bytes`, which is
    /// planner arithmetic, not a reading taken while the kernels ran.
    pub fn peak_ram_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.plan.measured_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.exec.latency_ms).sum()
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.layers.iter().map(|l| l.exec.energy_mj).sum()
    }
}

/// The inference engine.
#[derive(Debug, Clone)]
pub struct Engine {
    device: Device,
    kind: PlannerKind,
}

impl Engine {
    /// Creates an engine for a device with the default policy
    /// (vMCU, row-buffer fusion).
    pub fn new(device: Device) -> Self {
        Self {
            device,
            kind: PlannerKind::Vmcu(IbScheme::RowBuffer),
        }
    }

    /// Plans the whole graph and verifies every layer fits the device.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DoesNotFit`] for the bottleneck layer of a
    /// non-deployable plan.
    pub fn check_fit(&self, graph: &Graph) -> Result<MemoryPlan, EngineError> {
        let plan = vmcu_plan::plan_graph(&*self.kind.planner(), graph, &self.device);
        if !plan.deployable() {
            let worst = &plan.layers[plan.bottleneck()];
            return Err(EngineError::DoesNotFit {
                layer: worst.name.clone(),
                needed: worst.measured_bytes,
                available: self.device.ram_bytes,
            });
        }
        Ok(plan)
    }

    /// Selects the policy.
    pub fn planner(mut self, kind: PlannerKind) -> Self {
        self.kind = kind;
        self
    }

    /// The device this engine targets.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The selected policy.
    pub fn planner_kind(&self) -> PlannerKind {
        self.kind
    }

    /// Deploys a model: validates device fit once, memoizes the
    /// [`MemoryPlan`] and the policy's schedule (with its
    /// fusion/patch/split/order/chain plans), resolves the planner, and
    /// takes ownership of the weights that sessions will stage into
    /// Flash. This is the entry point of the plan-once/run-many flow:
    ///
    /// ```
    /// use vmcu::prelude::*;
    ///
    /// let g = vmcu::vmcu_graph::zoo::demo_linear_net();
    /// let weights = g.random_weights(1);
    /// let input = vmcu::vmcu_tensor::random::tensor_i8(&g.in_shape(), 2);
    /// let deployment = Engine::new(Device::stm32_f411re()).deploy(&g, &weights)?;
    /// let mut session = deployment.session();
    /// let report = session.infer(&input)?; // zero replanning, call after call
    /// assert_eq!(report.layers.len(), g.len());
    /// # Ok::<(), vmcu::EngineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DoesNotFit`] naming the bottleneck layer
    /// for non-deployable models, [`EngineError::WeightsMismatch`] when
    /// `weights` does not hold one entry per layer,
    /// [`EngineError::Unsupported`] for layer/weights kinds that cannot
    /// stage, and a memory error when the firmware image exceeds the
    /// device Flash.
    pub fn deploy(
        &self,
        graph: &Graph,
        weights: &[LayerWeights],
    ) -> Result<Deployment, EngineError> {
        Deployment::new(self.device.clone(), self.kind, graph, weights)
    }

    /// [`deploy`](Engine::deploy) without the whole-graph per-layer fit
    /// gate. Chain-mode execution
    /// ([`Session::infer_chained`](crate::deploy::Session::infer_chained))
    /// flows the entire network through **one** circular window of
    /// `max(per-layer span)` bytes, which can fit devices the per-layer
    /// plan does not — this is the deploy path for such chain-only
    /// models (the chain validates its own window at inference).
    /// Staging (layer/weights kinds, Flash capacity) is still validated.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::WeightsMismatch`] when `weights` does not
    /// hold one entry per layer, [`EngineError::Unsupported`] for
    /// layer/weights kinds that cannot stage and a memory error when the
    /// firmware image exceeds the device Flash.
    pub fn deploy_unchecked(
        &self,
        graph: &Graph,
        weights: &[LayerWeights],
    ) -> Result<Deployment, EngineError> {
        Deployment::new_unchecked(self.device.clone(), self.kind, graph, weights)
    }

    /// Plans one layer and checks device fit.
    fn plan_layer(&self, name: &str, layer: &LayerDesc) -> Result<LayerPlan, EngineError> {
        let plan = self
            .kind
            .planner()
            .plan(&[(name.to_owned(), layer.clone())], &self.device);
        let lp = plan.layers.into_iter().next().expect("one layer planned");
        if !lp.fits {
            return Err(EngineError::DoesNotFit {
                layer: name.to_owned(),
                needed: lp.measured_bytes,
                available: self.device.ram_bytes,
            });
        }
        Ok(lp)
    }

    /// Runs a single layer on a fresh machine, returning the output and
    /// the report. For repeated inference, prefer
    /// [`deploy`](Engine::deploy) — this path replans and restages on
    /// every call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::DoesNotFit`] when the plan exceeds device
    /// RAM, [`EngineError::Unsupported`] for layer kinds the selected
    /// policy's kernels cannot run, and pool/memory errors on internal
    /// bugs.
    pub fn run_layer(
        &self,
        name: &str,
        layer: &LayerDesc,
        weights: &LayerWeights,
        input: &Tensor<i8>,
    ) -> Result<(Tensor<i8>, LayerReport), EngineError> {
        let plan = self.plan_layer(name, layer)?;
        let mut m = Machine::new(self.device.clone());
        let staged = stage_layer(&mut m, layer, weights)?;
        let before = m.snapshot();
        let output = exec::exec_layer(&mut m, self.kind.kernels(), layer, staged, input)?;
        let exec = m.summarize_since(&before);
        Ok((
            output,
            LayerReport {
                name: name.to_owned(),
                plan,
                exec,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu_graph::zoo;
    use vmcu_tensor::random;

    fn input_for(layer: &LayerDesc, seed: u64) -> Tensor<i8> {
        random::tensor_i8(&layer.in_shape(), seed)
    }

    fn infer(
        engine: &Engine,
        g: &Graph,
        weights: &[LayerWeights],
        input: &Tensor<i8>,
    ) -> InferenceReport {
        engine
            .deploy(g, weights)
            .unwrap()
            .session()
            .infer(input)
            .unwrap()
    }

    #[test]
    fn vmcu_and_tinyengine_agree_functionally() {
        let layer = LayerDesc::Ib(zoo::mcunet_5fps_vww()[4].params); // S5: 5x5, small
        let w = LayerWeights::random(&layer, 3);
        let input = input_for(&layer, 4);
        let dev = Device::stm32_f767zi();
        let (out_v, rep_v) = Engine::new(dev.clone())
            .run_layer("S5", &layer, &w, &input)
            .unwrap();
        let (out_t, rep_t) = Engine::new(dev)
            .planner(PlannerKind::TinyEngine)
            .run_layer("S5", &layer, &w, &input)
            .unwrap();
        assert_eq!(out_v, out_t, "both kernel families must agree bit-exact");
        assert!(rep_v.plan.measured_bytes < rep_t.plan.measured_bytes);
    }

    #[test]
    fn does_not_fit_is_reported_like_the_paper() {
        // Figure 7 case 1 on F411RE: TinyEngine exceeds 128 KB; vMCU runs.
        let case = &zoo::fig7_cases()[0];
        let layer = LayerDesc::Pointwise(case.params);
        let w = LayerWeights::random(&layer, 1);
        let input = input_for(&layer, 2);
        let dev = Device::stm32_f411re();
        let err = Engine::new(dev.clone())
            .planner(PlannerKind::TinyEngine)
            .run_layer(&case.name, &layer, &w, &input)
            .unwrap_err();
        assert!(matches!(err, EngineError::DoesNotFit { .. }));
        let ok = Engine::new(dev).run_layer(&case.name, &layer, &w, &input);
        assert!(ok.is_ok(), "vMCU must deploy case 1 on the 128 KB device");
    }

    #[test]
    fn graph_run_matches_reference_executor() {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(11);
        let input = random::tensor_i8(&g.in_shape(), 12);
        let report = infer(&Engine::new(Device::stm32_f767zi()), &g, &weights, &input);
        let reference = vmcu_graph::exec::run_reference(&g, &weights, &input);
        assert_eq!(&report.output, reference.last().unwrap());
        assert_eq!(report.layers.len(), g.len());
        assert!(report.latency_ms() > 0.0);
        assert!(report.energy_mj() > 0.0);
        assert!(report.peak_ram_bytes() > 0);
    }

    #[test]
    fn engine_and_work_items_are_send() {
        // The fleet scheduler moves engines, deployments, and sessions
        // into worker threads; regressions here break `vmcu-serve` at
        // compile time.
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert_send::<Deployment>();
        assert_send::<crate::deploy::Session>();
        assert_send::<InferenceReport>();
    }

    #[test]
    fn session_reuse_is_bit_identical_to_fresh_sessions() {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(21);
        let input = random::tensor_i8(&g.in_shape(), 22);
        let engine = Engine::new(Device::stm32_f767zi());
        let fresh = infer(&engine, &g, &weights, &input);
        let deployment = engine.deploy(&g, &weights).unwrap();
        let mut session = deployment.session();
        // Second pass through a warm session must agree in outputs AND
        // in measured counters (the reset must not leak state).
        session.infer(&input).unwrap();
        let warm = session.infer(&input).unwrap();
        assert_eq!(warm.output, fresh.output);
        assert_eq!(warm.latency_ms(), fresh.latency_ms());
        assert_eq!(warm.energy_mj(), fresh.energy_mj());
        assert_eq!(warm.peak_ram_bytes(), fresh.peak_ram_bytes());
    }

    #[test]
    fn oversized_model_is_a_typed_error_under_both_planners() {
        // 200x200x16 -> 16 pointwise: ~640 KB of input alone, far beyond
        // the 128 KB device under every policy.
        let huge = LayerDesc::Pointwise(vmcu_kernels::PointwiseParams::new(
            200,
            200,
            16,
            16,
            vmcu_tensor::Requant::identity(),
        ));
        let g = Graph::linear("huge", vec![huge.clone()]).unwrap();
        let dev = Device::stm32_f411re();
        let weights = g.random_weights(1);
        for kind in [
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            PlannerKind::TinyEngine,
        ] {
            let err = Engine::new(dev.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap_err();
            match err {
                EngineError::DoesNotFit {
                    needed, available, ..
                } => {
                    assert!(needed > available, "{kind:?}: {needed} vs {available}");
                    assert_eq!(available, dev.ram_bytes);
                }
                other => panic!("{kind:?}: expected DoesNotFit, got {other}"),
            }
            // The layer-level run path reports the same typed error
            // instead of panicking.
            let w = LayerWeights::random(&huge, 1);
            let input = input_for(&huge, 2);
            let err = Engine::new(dev.clone())
                .planner(kind)
                .run_layer("huge", &huge, &w, &input)
                .unwrap_err();
            assert!(matches!(err, EngineError::DoesNotFit { .. }), "{kind:?}");
        }
    }

    #[test]
    fn check_fit_returns_the_full_plan_when_deployable() {
        let g = zoo::demo_linear_net();
        let plan = Engine::new(Device::stm32_f411re()).check_fit(&g).unwrap();
        assert_eq!(plan.layers.len(), g.len());
        assert!(plan.deployable());
        // The checked deploy path succeeds for the same model and
        // memoizes the identical plan.
        let deployment = Engine::new(Device::stm32_f411re())
            .deploy(&g, &g.random_weights(1))
            .unwrap();
        assert_eq!(deployment.plan(), &plan);
    }

    #[test]
    fn fused_graph_run_matches_reference_executor() {
        for g in [zoo::demo_linear_net(), zoo::mbv2_block_unfused()] {
            let weights = g.random_weights(31);
            let input = random::tensor_i8(&g.in_shape(), 32);
            let engine = Engine::new(Device::stm32_f767zi())
                .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer));
            let report = infer(&engine, &g, &weights, &input);
            let reference = vmcu_graph::exec::run_reference(&g, &weights, &input);
            assert_eq!(&report.output, reference.last().unwrap(), "{}", g.name);
            assert!(report.latency_ms() > 0.0);
        }
    }

    #[test]
    fn fused_peak_ram_is_strictly_below_vmcu_on_the_zoo_chain() {
        let g = zoo::mbv2_block_unfused();
        let weights = g.random_weights(41);
        let input = random::tensor_i8(&g.in_shape(), 42);
        let dev = Device::stm32_f411re();
        let fused_engine =
            Engine::new(dev.clone()).planner(PlannerKind::VmcuFused(IbScheme::RowBuffer));
        let fused = infer(&fused_engine, &g, &weights, &input);
        let vmcu = infer(&Engine::new(dev), &g, &weights, &input);
        assert_eq!(fused.output, vmcu.output, "policies must agree bit-exact");
        assert!(
            fused.peak_ram_bytes() < vmcu.peak_ram_bytes(),
            "fused {} must be strictly below vMCU {}",
            fused.peak_ram_bytes(),
            vmcu.peak_ram_bytes()
        );
        // One report node for the whole fused chain.
        assert_eq!(fused.layers.len(), 1);
        assert_eq!(fused.layers[0].plan.kind, "fused-chain");
    }

    #[test]
    fn wide_chain_deploys_only_under_the_fused_policy() {
        let g = zoo::wide_expand_chain();
        let weights = g.random_weights(51);
        let input = random::tensor_i8(&g.in_shape(), 52);
        let dev = Device::stm32_f411re();
        let err = Engine::new(dev.clone()).deploy(&g, &weights).unwrap_err();
        assert!(matches!(err, EngineError::DoesNotFit { .. }));
        let deployment = Engine::new(dev)
            .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer))
            .deploy(&g, &weights)
            .unwrap();
        let report = deployment.session().infer(&input).unwrap();
        let reference = vmcu_graph::exec::run_reference(&g, &weights, &input);
        assert_eq!(&report.output, reference.last().unwrap());
        assert!(report.peak_ram_bytes() <= 128 * 1024);
    }

    #[test]
    fn patched_graph_run_matches_reference_executor() {
        for g in [
            zoo::demo_linear_net(),
            zoo::mbv2_block_unfused(),
            zoo::hires_front_stage(),
        ] {
            let weights = g.random_weights(71);
            let input = random::tensor_i8(&g.in_shape(), 72);
            let engine = Engine::new(Device::stm32_f767zi())
                .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer));
            let report = infer(&engine, &g, &weights, &input);
            let reference = vmcu_graph::exec::run_reference(&g, &weights, &input);
            assert_eq!(&report.output, reference.last().unwrap(), "{}", g.name);
            assert!(report.latency_ms() > 0.0);
        }
    }

    #[test]
    fn hires_front_stage_deploys_only_under_the_patched_policy() {
        let g = zoo::hires_front_stage();
        let weights = g.random_weights(81);
        let input = random::tensor_i8(&g.in_shape(), 82);
        let dev = Device::stm32_f411re();
        for kind in [
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            PlannerKind::VmcuFused(IbScheme::RowBuffer),
            PlannerKind::TinyEngine,
            PlannerKind::Hmcos,
        ] {
            let err = Engine::new(dev.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap_err();
            assert!(
                matches!(err, EngineError::DoesNotFit { .. }),
                "{kind:?} must OOM on the 147 KB front activation"
            );
        }
        let deployment = Engine::new(dev)
            .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
            .deploy(&g, &weights)
            .unwrap();
        let report = deployment.session().infer(&input).unwrap();
        let reference = vmcu_graph::exec::run_reference(&g, &weights, &input);
        assert_eq!(&report.output, reference.last().unwrap());
        assert!(report.peak_ram_bytes() <= 128 * 1024);
        // One report node for the patched front, named like the plan.
        assert_eq!(report.layers[0].plan.kind, "patched-front");
        assert!(report.layers[0].name.starts_with("patched[0..4]@"));
    }

    #[test]
    fn patched_session_reuse_is_bit_identical_to_fresh_sessions() {
        let g = zoo::hires_front_stage();
        let weights = g.random_weights(91);
        let input = random::tensor_i8(&g.in_shape(), 92);
        let engine = Engine::new(Device::stm32_f411re())
            .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer));
        let fresh = infer(&engine, &g, &weights, &input);
        let mut session = engine.deploy(&g, &weights).unwrap().session();
        session.infer(&input).unwrap();
        let warm = session.infer(&input).unwrap();
        assert_eq!(warm.output, fresh.output);
        assert_eq!(warm.latency_ms(), fresh.latency_ms());
        assert_eq!(warm.peak_ram_bytes(), fresh.peak_ram_bytes());
    }

    #[test]
    fn vmcu_latency_is_comparable_to_tinyengine_on_modules() {
        // Table 3's headline: vMCU ~1.03x TinyEngine on fused modules.
        let layer = LayerDesc::Ib(zoo::mcunet_5fps_vww()[5].params); // S6
        let w = LayerWeights::random(&layer, 5);
        let input = input_for(&layer, 6);
        let dev = Device::stm32_f411re();
        let (_, rv) = Engine::new(dev.clone())
            .run_layer("S6", &layer, &w, &input)
            .unwrap();
        let (_, rt) = Engine::new(dev)
            .planner(PlannerKind::TinyEngine)
            .run_layer("S6", &layer, &w, &input)
            .unwrap();
        let ratio = rv.exec.latency_ms / rt.exec.latency_ms;
        assert!(
            (0.6..=1.4).contains(&ratio),
            "latency ratio {ratio:.2} outside comparable band"
        );
    }
}
