//! # vmcu — coordinated memory management and kernel optimization for DNN
//! inference on MCUs
//!
//! A production-quality Rust reproduction of *vMCU* (MLSys 2024). The
//! paper's idea: virtualize the MCU's tiny SRAM as a circular pool of
//! segments and coordinate the memory manager with the kernels so that a
//! layer's output partially overlaps its input while the kernel is still
//! consuming it — cutting RAM for exactly the layers (fully-connected,
//! 2D/pointwise convolution, fused inverted bottlenecks) where tensor-level
//! managers can do nothing.
//!
//! ## Crate map
//!
//! | Crate | Paper section | Role |
//! |---|---|---|
//! | [`vmcu_ir`] | §4, §6 | affine formulation + kernel IR/DSL |
//! | [`vmcu_solver`] | §4, §5.2 | `min bIn − bOut` solvers (enumerative, analytic, closed-form, fused) |
//! | [`vmcu_sim`] | §7.1 | simulated Cortex-M4/M7 devices, cost & energy models |
//! | [`vmcu_tensor`] | — | int8 tensors, requantization, reference operators |
//! | [`vmcu_pool`] | §3–4 | the circular segment pool with clobber detection |
//! | [`vmcu_kernels`] | §5, §6.1 | segment-aware kernels + TinyEngine baselines |
//! | [`vmcu_graph`] | §7 | model graphs + the Table 2 / Figure 7 zoo |
//! | [`vmcu_plan`] | §2.3, §4, §5.2 | vMCU / TinyEngine / HMCOS / arena planners + the multi-layer fusion pass |
//! | [`vmcu_codegen`] | §6 | IR → C emission and the IR interpreter |
//!
//! ## Quickstart — plan once, run many
//!
//! Planning (memory layout, fusion grouping, patch-grid search) happens
//! once at [`Engine::deploy`]; the [`Session`] then executes a fixed
//! schedule with zero replanning — exactly the paper's offline/on-device
//! split.
//!
//! ```
//! use vmcu::prelude::*;
//!
//! // Figure 7, case H/W80,C16,K16 on the 128 KB STM32-F411RE.
//! let case = vmcu::vmcu_graph::zoo::fig7_cases()[0].clone();
//! let graph = Graph::linear(case.name.clone(), vec![LayerDesc::Pointwise(case.params)])?;
//! let weights = graph.random_weights(1);
//! let input = vmcu::vmcu_tensor::random::tensor_i8(&graph.in_shape(), 2);
//!
//! let engine = Engine::new(Device::stm32_f411re());
//! let deployment = engine.deploy(&graph, &weights)?; // fit checked, plans memoized
//! let mut session = deployment.session();            // weights staged into Flash
//! let report = session.infer(&input)?;               // zero planning from here on
//! assert_eq!(report.output.shape(), &[80, 80, 16]);
//! // vMCU fits this layer in 128 KB; TinyEngine cannot (the paper's
//! // out-of-memory cases in Figure 7).
//! assert!(report.peak_ram_bytes() <= 128 * 1024);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod deploy;
pub mod engine;
pub mod error;
pub mod exec;

pub use deploy::{Deployment, Session};
pub use engine::{Engine, InferenceReport, LayerReport, PlannerKind};
pub use error::EngineError;
pub use exec::Schedule;

// Re-export the workspace crates under their natural names.
pub use vmcu_codegen;
pub use vmcu_graph;
pub use vmcu_ir;
pub use vmcu_kernels;
pub use vmcu_plan;
pub use vmcu_pool;
pub use vmcu_sim;
pub use vmcu_solver;
pub use vmcu_tensor;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::deploy::{Deployment, Session};
    pub use crate::engine::{Engine, InferenceReport, LayerReport, PlannerKind};
    pub use crate::error::EngineError;
    pub use vmcu_graph::{Graph, LayerDesc, LayerWeights};
    pub use vmcu_kernels::{IbParams, IbScheme, PointwiseParams};
    pub use vmcu_plan::{
        FusedPlanner, HmcosPlanner, MemoryPlanner, PatchedPlanner, ReorderPlanner, SplitPlanner,
        TinyEnginePlanner, VmcuPlanner,
    };
    pub use vmcu_sim::Device;
    pub use vmcu_tensor::{Requant, Tensor};
}
