//! End-to-end DAG pipeline: the branchy zoo deploys and runs bit-exact
//! against the reference executor under the default walk and the
//! searched reorder, the reorder-only model OOMs under **every** other
//! policy yet fits under `PlannerKind::VmcuReorder`, repeated inference
//! on one session replays the memoized plan with zero replanning, and
//! the chain-only fast paths reject DAG deployments with typed errors
//! instead of silently mis-executing.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_plan::telemetry;
use vmcu::vmcu_tensor::random;
use vmcu::Schedule;

fn infer_under(
    kind: PlannerKind,
    g: &vmcu::vmcu_graph::Graph,
    weights: &[LayerWeights],
    input: &vmcu::vmcu_tensor::Tensor<i8>,
) -> InferenceReport {
    Engine::new(Device::stm32_f767zi())
        .planner(kind)
        .deploy(g, weights)
        .and_then(|d| d.session().infer(input))
        .unwrap_or_else(|e| panic!("{} under {kind:?}: {e}", g.name))
}

#[test]
fn branchy_zoo_is_bit_exact_under_default_and_reordered_walks() {
    for g in zoo::branchy_zoo() {
        let weights = g.random_weights(7);
        let input = random::tensor_i8(&g.in_shape(), 8);
        let reference = exec::run_reference(&g, &weights, &input);
        let expected = reference.last().unwrap();
        let default = infer_under(PlannerKind::Vmcu(IbScheme::RowBuffer), &g, &weights, &input);
        let reordered = infer_under(
            PlannerKind::VmcuReorder(IbScheme::RowBuffer),
            &g,
            &weights,
            &input,
        );
        assert_eq!(
            &default.output, expected,
            "{}: default walk diverges from reference",
            g.name
        );
        assert_eq!(
            &reordered.output, expected,
            "{}: reordered walk diverges from reference",
            g.name
        );
        // The reorder policy's bottleneck never exceeds the default's.
        assert!(
            reordered.peak_ram_bytes() <= default.peak_ram_bytes(),
            "{}: reordered peak {} > default peak {}",
            g.name,
            reordered.peak_ram_bytes(),
            default.peak_ram_bytes()
        );
    }
}

#[test]
fn branchy_oom_net_deploys_only_under_the_reorder_policy() {
    let g = zoo::branchy_oom_net();
    let weights = g.random_weights(81);
    let input = random::tensor_i8(&g.in_shape(), 82);
    let dev = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
        PlannerKind::VmcuSplit {
            devices: 8,
            scheme: IbScheme::RowBuffer,
        },
    ] {
        let err = Engine::new(dev.clone())
            .planner(kind)
            .deploy(&g, &weights)
            .unwrap_err();
        assert!(
            matches!(err, EngineError::DoesNotFit { .. }),
            "{kind:?} must OOM: the default order holds both fat branches co-resident"
        );
    }
    let deployment = Engine::new(dev)
        .planner(PlannerKind::VmcuReorder(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    // The memoized order retires one branch before starting the other.
    let Schedule::Nodes {
        order: Some(order), ..
    } = deployment.schedule()
    else {
        panic!("reorder memoizes its order");
    };
    assert!(order.improved(), "the search must beat the default order");
    assert_ne!(order.order, vec![0, 1, 2, 3, 4]);
    let report = deployment.session().infer(&input).unwrap();
    let reference = exec::run_reference(&g, &weights, &input);
    assert_eq!(&report.output, reference.last().unwrap());
    assert!(report.peak_ram_bytes() <= 128 * 1024);
}

#[test]
fn session_reuse_replays_the_memoized_order_with_zero_replanning() {
    let g = zoo::branchy_oom_net();
    let weights = g.random_weights(91);
    let input = random::tensor_i8(&g.in_shape(), 92);
    let deployment = Engine::new(Device::stm32_f411re())
        .planner(PlannerKind::VmcuReorder(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    let mut session = deployment.session();
    let first = session.infer(&input).unwrap();
    let before = telemetry::plan_calls();
    for _ in 0..3 {
        let again = session.infer(&input).unwrap();
        // Bit-identical replay: output and every simulated counter.
        assert_eq!(again.output, first.output);
        assert_eq!(again.layers.len(), first.layers.len());
        for (a, b) in again.layers.iter().zip(&first.layers) {
            assert_eq!(a.exec.counters, b.exec.counters);
            assert_eq!(a.plan, b.plan);
        }
    }
    assert_eq!(
        telemetry::plan_calls(),
        before,
        "inference after deploy must never replan"
    );
    assert_eq!(session.inferences(), 4);
}

#[test]
fn chained_execution_rejects_dags_with_a_typed_error() {
    let g = zoo::mbv2_residual_dag();
    let weights = g.random_weights(11);
    let input = random::tensor_i8(&g.in_shape(), 12);
    let deployment = Engine::new(Device::stm32_f767zi())
        .deploy(&g, &weights)
        .unwrap();
    // The single-window chain plan is absent on a DAG deployment …
    assert!(matches!(
        deployment.schedule(),
        Schedule::Nodes { chain: None, .. }
    ));
    // … and the chained entry point refuses rather than mis-executing.
    let err = deployment
        .session()
        .infer_chained(&input)
        .map(|_| ())
        .expect_err("chained execution must reject a branchy DAG");
    assert!(matches!(
        err,
        EngineError::Unsupported {
            kind: "chained DAG",
            ..
        }
    ));
}

#[test]
fn chain_only_policies_drop_their_plans_and_fall_back_on_dags() {
    let g = zoo::two_head_net();
    let weights = g.random_weights(21);
    let input = random::tensor_i8(&g.in_shape(), 22);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();
    let dev = Device::stm32_f767zi();

    // Fused: no fusion grouping on a branchy DAG.
    let fused = Engine::new(dev.clone())
        .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    assert!(matches!(fused.schedule(), Schedule::Nodes { .. }));
    assert_eq!(&fused.session().infer(&input).unwrap().output, expected);

    // Patched: no patchable spatial prefix on a branchy DAG.
    let patched = Engine::new(dev.clone())
        .planner(PlannerKind::VmcuPatched(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    assert!(matches!(patched.schedule(), Schedule::Nodes { .. }));
    assert_eq!(&patched.session().infer(&input).unwrap().output, expected);

    // Split: the layer-wise partitioner degrades to one stage, so the
    // deployment carries no split plan and runs on a single device.
    let split = Engine::new(dev)
        .planner(PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        })
        .deploy(&g, &weights)
        .unwrap();
    assert!(matches!(split.schedule(), Schedule::Nodes { .. }));
    assert_eq!(&split.session().infer(&input).unwrap().output, expected);
}
