//! Plan once, run many: [`Deployment`] and [`Session`].
//!
//! vMCU's whole point is that planning — segment-level memory layout,
//! fusion grouping, patch-grid search — happens ahead of time, so the
//! device only executes a fixed schedule. This module makes that split a
//! first-class API:
//!
//! * [`Deployment`] (built via [`Engine::deploy`]) validates device fit
//!   **once**, memoizes the [`MemoryPlan`] and the policy's
//!   [`Schedule`], caches the resolved planner, and owns the weights
//!   that will be staged into Flash. Deployments are cheap to clone
//!   (`Arc`-backed) and `Send + Sync`, so a fleet shares one per model
//!   across workers.
//! * [`Session`] ([`Deployment::session`]) boots a machine, stages the
//!   firmware image (weights into Flash) once, and then serves
//!   [`Session::infer`] calls with **zero planning work** — checkable
//!   via [`vmcu_plan::telemetry`]. Between inferences only the volatile
//!   state (RAM, counters) resets; the flash image stays resident, and
//!   a leaked-state bug (a kernel programming Flash mid-inference)
//!   surfaces as a typed [`EngineError::StateLeak`], never as silent
//!   corruption.
//!
//! [`Engine::deploy`]: crate::engine::Engine::deploy

use crate::engine::{InferenceReport, PlannerKind};
use crate::error::EngineError;
use crate::exec::{self, stage_graph, Kernels, Run, Schedule, StagedLayer};
use std::sync::Arc;
use std::time::Instant;
use vmcu_graph::{Graph, LayerWeights};
use vmcu_plan::planner::MemoryPlanner;
use vmcu_plan::{ChainPlan, MemoryPlan};
use vmcu_sim::{Device, Machine};
use vmcu_tensor::Tensor;

struct DeployInner {
    device: Device,
    kind: PlannerKind,
    planner: Box<dyn MemoryPlanner>,
    graph: Graph,
    weights: Vec<LayerWeights>,
    plan: MemoryPlan,
    schedule: Schedule,
    planning_ms: f64,
    image_bytes: usize,
}

impl std::fmt::Debug for DeployInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("device", &self.device.name)
            .field("kind", &self.kind)
            .field("graph", &self.graph.name)
            .field("nodes", &self.plan.layers.len())
            .field("planning_ms", &self.planning_ms)
            .finish_non_exhaustive()
    }
}

/// A model deployed to a device under one policy: fit validated once,
/// plan and schedule memoized, planner resolved, weights owned. Cheap to
/// clone and share across threads; create per-device execution state
/// with [`Deployment::session`].
#[derive(Debug, Clone)]
pub struct Deployment {
    inner: Arc<DeployInner>,
}

impl Deployment {
    /// The checked construction path: plans the graph, rejects
    /// non-deployable models with a typed error naming the bottleneck.
    pub(crate) fn new(
        device: Device,
        kind: PlannerKind,
        graph: &Graph,
        weights: &[LayerWeights],
    ) -> Result<Self, EngineError> {
        let dep = Self::new_unchecked(device, kind, graph, weights)?;
        let plan = &dep.inner.plan;
        if !plan.deployable() {
            let worst = &plan.layers[plan.bottleneck()];
            return Err(EngineError::DoesNotFit {
                layer: worst.name.clone(),
                needed: worst.measured_bytes,
                available: dep.inner.device.ram_bytes,
            });
        }
        Ok(dep)
    }

    /// Plans and stages without the whole-graph fit check — the chained
    /// mode validates only its (smaller) chain window, so it must not be
    /// gated on per-layer deployability.
    pub(crate) fn new_unchecked(
        device: Device,
        kind: PlannerKind,
        graph: &Graph,
        weights: &[LayerWeights],
    ) -> Result<Self, EngineError> {
        if weights.len() != graph.len() {
            return Err(EngineError::WeightsMismatch {
                layers: graph.len(),
                weights: weights.len(),
            });
        }
        let started = Instant::now();
        let planner = kind.planner();
        let (plan, schedule) = Schedule::plan(kind, &*planner, graph, &device);
        // Validate the firmware image up front so `session()` cannot
        // fail: a dry-run staging into a probe machine exercises the
        // exact code path sessions use (layer/weights kinds, Flash
        // capacity), so the validation can never drift from it.
        let mut probe = Machine::new(device.clone());
        stage_graph(&mut probe, graph.layers(), weights)?;
        let image_bytes = probe.flash.used();
        drop(probe);
        let planning_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(Self {
            inner: Arc::new(DeployInner {
                device,
                kind,
                planner,
                graph: graph.clone(),
                weights: weights.to_vec(),
                plan,
                schedule,
                planning_ms,
                image_bytes,
            }),
        })
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The deployed policy.
    pub fn planner_kind(&self) -> PlannerKind {
        self.inner.kind
    }

    /// The deployed graph.
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// The cached planning policy object — resolved once at deploy, never
    /// re-boxed per call.
    pub fn planner(&self) -> &dyn MemoryPlanner {
        &*self.inner.planner
    }

    /// The memoized whole-graph memory plan (one entry per execution
    /// node).
    pub fn plan(&self) -> &MemoryPlan {
        &self.inner.plan
    }

    /// The memoized schedule: how [`Session::infer`] walks the graph,
    /// with the plan artifacts (fusion, patch, split, order, chain) the
    /// policy produced.
    pub fn schedule(&self) -> &Schedule {
        &self.inner.schedule
    }

    /// Peak SRAM this model commits on its device (activations +
    /// workspace at the bottleneck node, excluding the per-device runtime
    /// overhead) — priced from the **cached** plan, so admission control
    /// never replans.
    pub fn peak_demand_bytes(&self) -> usize {
        if self.inner.plan.layers.is_empty() {
            return 0;
        }
        self.inner
            .plan
            .bottleneck_bytes()
            .saturating_sub(self.inner.device.runtime_overhead_bytes)
    }

    /// Host milliseconds spent planning this deployment (fit validation
    /// plus every memoized plan artifact) — the cost `session().infer()`
    /// amortizes away.
    pub fn planning_ms(&self) -> f64 {
        self.inner.planning_ms
    }

    /// Size of the staged firmware image (all weights programmed into
    /// Flash), measured once at deploy time from the dry-run probe —
    /// the bytes a hot-swap must re-program.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmcu::prelude::*;
    ///
    /// let g = vmcu_graph::zoo::demo_linear_net();
    /// let weights = g.random_weights(7);
    /// let dep = Engine::new(Device::stm32_f767zi()).deploy(&g, &weights)?;
    /// assert!(dep.image_bytes() > 0);
    /// assert!(dep.image_bytes() <= dep.device().flash_bytes);
    /// # Ok::<(), vmcu::EngineError>(())
    /// ```
    pub fn image_bytes(&self) -> usize {
        self.inner.image_bytes
    }

    /// Simulated device milliseconds to (re-)stage this deployment's
    /// firmware image into Flash — [`image_bytes`](Self::image_bytes)
    /// priced through the device cost model's flash-programming cost.
    ///
    /// This is what a model hot-swap charges: evict a resident model,
    /// stage this one, and the device is busy for `staging_ms()` of
    /// simulated time before it can serve the first request. Staging is
    /// deterministic (pure integer cycle counts scaled by the device
    /// clock), so fleet simulations that charge it stay bit-reproducible.
    ///
    /// # Examples
    ///
    /// ```
    /// use vmcu::prelude::*;
    ///
    /// let g = vmcu_graph::zoo::demo_linear_net();
    /// let weights = g.random_weights(7);
    /// let dep = Engine::new(Device::stm32_f411re()).deploy(&g, &weights)?;
    /// // Programming flash is slow: staging costs real simulated time.
    /// assert!(dep.staging_ms() > 0.0);
    /// # Ok::<(), vmcu::EngineError>(())
    /// ```
    pub fn staging_ms(&self) -> f64 {
        let cycles = self
            .inner
            .device
            .cost
            .flash_write_cost(self.inner.image_bytes as u64);
        self.inner.device.cycles_to_ms(cycles)
    }

    /// Creates a session: boots a machine for the device and stages the
    /// firmware image (all weights into Flash) once. Everything that can
    /// fail was validated at deploy time.
    ///
    /// # Panics
    ///
    /// Panics if staging the firmware image fails — deploy-time
    /// validation of layer kinds and flash capacity rules that out.
    pub fn session(&self) -> Session {
        let mut machine = Machine::new(self.inner.device.clone());
        let staged = stage_graph(&mut machine, self.inner.graph.layers(), &self.inner.weights)
            .expect("deploy validated layer kinds and flash capacity");
        let staged_flash_bytes = machine.flash.used();
        Session {
            deployment: self.clone(),
            machine,
            staged,
            staged_flash_bytes,
            inferences: 0,
        }
    }
}

/// Reusable per-device execution state for one deployment: the simulated
/// machine (its RAM buffer alone is the full device SRAM) with the
/// deployment's weights resident in Flash. [`Session::infer`] runs with
/// zero replanning; a long-lived worker keeps one session per resident
/// model and calls it for every request.
#[derive(Debug)]
pub struct Session {
    deployment: Deployment,
    machine: Machine,
    staged: Vec<StagedLayer>,
    staged_flash_bytes: usize,
    inferences: u64,
}

impl Session {
    /// The deployment this session executes.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Inferences served so far.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Bytes of Flash this session staged when it booted.
    pub fn staged_flash_bytes(&self) -> usize {
        self.staged_flash_bytes
    }

    /// Simulated device milliseconds it cost to stage this session's
    /// flash image — the price a fleet charges when it hot-swaps this
    /// model onto the device. Delegates to
    /// [`Deployment::staging_ms`].
    pub fn staging_ms(&self) -> f64 {
        self.deployment.staging_ms()
    }

    /// Resets volatile machine state between inferences and verifies the
    /// deployed invariants first: the staged flash image must be exactly
    /// as deploy left it — a kernel that programmed Flash mid-run is
    /// a leaked-state bug, reported as a typed error, never silently
    /// absorbed.
    fn reset_between_inferences(&mut self) -> Result<(), EngineError> {
        let found = self.machine.flash.used();
        if found != self.staged_flash_bytes {
            return Err(EngineError::StateLeak {
                what: "staged flash image",
                expected: self.staged_flash_bytes,
                found,
            });
        }
        self.machine.reset_volatile();
        Ok(())
    }

    /// Runs one inference through the deployed schedule — no planning,
    /// no flash programming, no allocation beyond the report itself.
    /// Results are bit-identical call after call.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StateLeak`] when a previous inference
    /// corrupted deployed state, [`EngineError::DoesNotFit`] for a plan
    /// row over the device RAM (reachable only through
    /// [`Engine::deploy_unchecked`](crate::engine::Engine::deploy_unchecked)),
    /// [`EngineError::Unsupported`] for layer kinds the policy's kernels
    /// cannot run, and pool/memory errors on internal bugs.
    pub fn infer(&mut self, input: &Tensor<i8>) -> Result<InferenceReport, EngineError> {
        self.reset_between_inferences()?;
        let dep = &*self.deployment.inner;
        if let Some(row) = dep.plan.layers.iter().find(|row| !row.fits) {
            return Err(EngineError::DoesNotFit {
                layer: row.name.clone(),
                needed: row.measured_bytes,
                available: dep.device.ram_bytes,
            });
        }
        let kernels = dep.kind.kernels();
        let (graph, staged) = (&dep.graph, self.staged.as_slice());
        let mut run = Run::new(&mut self.machine, &dep.plan);
        let output = match &dep.schedule {
            Schedule::Nodes { order, .. } => {
                exec::run_nodes(&mut run, kernels, graph, staged, order.as_ref(), input)
            }
            Schedule::Fused(fusion) => exec::fused::run_fusion_nodes(
                &mut run,
                kernels,
                graph,
                staged,
                &fusion.nodes,
                input,
            ),
            Schedule::Patched(patch) => {
                exec::patched::run_patched(&mut run, kernels, graph, staged, patch, input)
            }
            Schedule::Split(split) => {
                exec::split::run_split(&mut run, kernels, staged, split, input)
            }
        }?;
        let report = run.finish(output);
        self.inferences += 1;
        Ok(report)
    }

    /// Runs one inference chained through a single circular pool (§4's
    /// whole-network deployment model). Only the vMCU policy on a chain
    /// graph supports it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] for other policies and for branchy
    /// DAGs, [`EngineError::DoesNotFit`] when the chain window exceeds
    /// RAM, plus the [`Session::infer`] contract.
    pub fn infer_chained(
        &mut self,
        input: &Tensor<i8>,
    ) -> Result<(InferenceReport, ChainPlan), EngineError> {
        self.reset_between_inferences()?;
        let dep = &*self.deployment.inner;
        let (
            Schedule::Nodes {
                chain: Some(plan), ..
            },
            Kernels::Segment(scheme),
        ) = (&dep.schedule, dep.kind.kernels())
        else {
            return Err(EngineError::Unsupported {
                kind: if dep.graph.is_chain() {
                    "chained graph"
                } else {
                    "chained DAG"
                },
                executor: dep.kind.name(),
            });
        };
        let report = exec::vmcu::infer_chained(
            &mut self.machine,
            &dep.device,
            &dep.graph,
            &self.staged,
            plan,
            scheme,
            input,
        )?;
        self.inferences += 1;
        Ok((report, plan.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use vmcu_graph::zoo;
    use vmcu_kernels::IbScheme;
    use vmcu_tensor::random;

    fn deployed() -> (Deployment, Tensor<i8>) {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(7);
        let input = random::tensor_i8(&g.in_shape(), 8);
        let dep = Engine::new(Device::stm32_f767zi())
            .deploy(&g, &weights)
            .unwrap();
        (dep, input)
    }

    #[test]
    fn deployment_memoizes_the_policy_plans() {
        let g = zoo::mbv2_block_unfused();
        let weights = g.random_weights(1);
        let dev = Device::stm32_f411re();
        let schedule = |kind| {
            Engine::new(dev.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap()
                .schedule()
                .clone()
        };
        assert!(
            matches!(
                schedule(PlannerKind::Vmcu(IbScheme::RowBuffer)),
                Schedule::Nodes {
                    order: None,
                    chain: Some(_)
                }
            ),
            "vMCU memoizes the chain plan"
        );
        assert!(matches!(
            schedule(PlannerKind::VmcuFused(IbScheme::RowBuffer)),
            Schedule::Fused(_)
        ));
        assert!(matches!(
            schedule(PlannerKind::VmcuPatched(IbScheme::RowBuffer)),
            Schedule::Patched(_)
        ));
        assert!(matches!(
            schedule(PlannerKind::TinyEngine),
            Schedule::Nodes {
                order: None,
                chain: None
            }
        ));
        let te = Engine::new(dev)
            .planner(PlannerKind::TinyEngine)
            .deploy(&g, &weights)
            .unwrap();
        assert!(te.planning_ms() >= 0.0);
    }

    #[test]
    fn peak_demand_prices_from_the_cached_plan() {
        let (dep, _) = deployed();
        let expected = vmcu_plan::peak_demand_bytes(dep.planner(), dep.graph());
        assert_eq!(dep.peak_demand_bytes(), expected);
    }

    #[test]
    fn session_counts_inferences_and_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Deployment>();
        assert_send::<Session>();
        let (dep, input) = deployed();
        let mut s = dep.session();
        assert_eq!(s.inferences(), 0);
        s.infer(&input).unwrap();
        s.infer(&input).unwrap();
        assert_eq!(s.inferences(), 2);
        assert_eq!(s.deployment().graph().name, "demo-linear-net");
    }

    #[test]
    fn flash_leak_between_inferences_is_a_typed_error() {
        let (dep, input) = deployed();
        let mut s = dep.session();
        s.infer(&input).unwrap();
        // Simulate a kernel bug: extra flash programmed mid-session.
        s.machine.host_program_flash(&[0xAB; 16]).unwrap();
        let err = s.infer(&input).unwrap_err();
        match err {
            EngineError::StateLeak {
                what,
                expected,
                found,
            } => {
                assert_eq!(what, "staged flash image");
                assert_eq!(found, expected + 16);
            }
            other => panic!("expected StateLeak, got {other}"),
        }
    }

    #[test]
    fn staging_is_priced_from_the_probe_image() {
        let (dep, _) = deployed();
        // The probe image at deploy equals what a live session stages.
        let s = dep.session();
        assert_eq!(dep.image_bytes(), s.staged_flash_bytes());
        // And the simulated staging price is the flash-write cost of
        // exactly those bytes, scaled by the device clock.
        let dev = dep.device();
        let expected = dev.cycles_to_ms(dev.cost.flash_write_cost(dep.image_bytes() as u64));
        assert_eq!(dep.staging_ms(), expected);
        assert_eq!(s.staging_ms(), expected);
        assert!(expected > 0.0);
    }

    #[test]
    fn oversized_firmware_image_is_rejected_at_deploy() {
        let g = zoo::demo_linear_net();
        let weights = g.random_weights(3);
        let mut dev = Device::stm32_f411re();
        dev.flash_bytes = 64; // far below any real weight image
        let err = Engine::new(dev).deploy(&g, &weights).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Mem(vmcu_sim::MemError::FlashOutOfRange { .. })
        ));
    }
}
