//! The deploy-once/run-many contract, end to end: `Engine::deploy` →
//! `Deployment::session` → `Session::infer` must be repeatable call
//! after call for every policy (outputs AND execution counters), must
//! perform zero planning work after deploy — asserted via the
//! `vmcu_plan::telemetry` plan-call counter — and must reject malformed
//! input with typed errors.

use vmcu::prelude::*;
use vmcu::vmcu_graph::zoo;
use vmcu::vmcu_tensor::random;

fn all_kinds() -> [PlannerKind; 5] {
    [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::VmcuPatched(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ]
}

/// `(model, device, policies that deploy it)` — including the zoo models
/// that exist precisely because only one policy admits them.
fn matrix() -> Vec<(Graph, Device, Vec<PlannerKind>)> {
    vec![
        (
            zoo::demo_linear_net(),
            Device::stm32_f767zi(),
            all_kinds().to_vec(),
        ),
        (
            zoo::mbv2_block_unfused(),
            Device::stm32_f411re(),
            vec![
                PlannerKind::Vmcu(IbScheme::RowBuffer),
                PlannerKind::VmcuFused(IbScheme::RowBuffer),
                PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            ],
        ),
        (
            zoo::wide_expand_chain(),
            Device::stm32_f411re(),
            vec![
                PlannerKind::VmcuFused(IbScheme::RowBuffer),
                PlannerKind::VmcuPatched(IbScheme::RowBuffer),
            ],
        ),
        (
            zoo::hires_front_stage(),
            Device::stm32_f411re(),
            vec![PlannerKind::VmcuPatched(IbScheme::RowBuffer)],
        ),
    ]
}

#[test]
fn repeated_infer_on_one_session_is_bit_identical_including_counters() {
    for (g, device, kinds) in matrix() {
        let weights = g.random_weights(0x5E55);
        let input = random::tensor_i8(&g.in_shape(), 0x10);
        for kind in kinds {
            let mut session = Engine::new(device.clone())
                .planner(kind)
                .deploy(&g, &weights)
                .unwrap()
                .session();
            let first = session.infer(&input).unwrap();
            let second = session.infer(&input).unwrap();
            assert_eq!(first.output, second.output, "{}/{kind:?}", g.name);
            for (a, b) in first.layers.iter().zip(&second.layers) {
                assert_eq!(
                    a.exec.counters, b.exec.counters,
                    "{}/{kind:?}/{}: the machine reset must not leak state \
                     between inferences",
                    g.name, a.name
                );
                assert_eq!(a.plan, b.plan);
            }
            assert_eq!(session.inferences(), 2);
        }
    }
}

#[test]
fn session_infer_performs_zero_planning_after_deploy() {
    // The acceptance criterion, per policy: every plan artifact is
    // memoized at deploy time; `infer` must not add a single planning
    // pass (the counter is thread-local, so concurrent tests cannot
    // interfere).
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(0xAB5);
    let input = random::tensor_i8(&g.in_shape(), 2);
    for kind in all_kinds() {
        let mut session = Engine::new(Device::stm32_f767zi())
            .planner(kind)
            .deploy(&g, &weights)
            .unwrap()
            .session();
        let before = vmcu::vmcu_plan::telemetry::plan_calls();
        session.infer(&input).unwrap();
        session.infer(&input).unwrap();
        session.infer(&input).unwrap();
        assert_eq!(
            vmcu::vmcu_plan::telemetry::plan_calls(),
            before,
            "{kind:?}: infer must do zero planning work after deploy"
        );
    }
    // The chained mode executes the memoized chain plan too.
    let mut session = Engine::new(Device::stm32_f767zi())
        .deploy(&g, &weights)
        .unwrap()
        .session();
    let before = vmcu::vmcu_plan::telemetry::plan_calls();
    session.infer_chained(&input).unwrap();
    session.infer_chained(&input).unwrap();
    assert_eq!(vmcu::vmcu_plan::telemetry::plan_calls(), before);
}

#[test]
fn chained_session_repeats_exactly() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(0xC4A1);
    let input = random::tensor_i8(&g.in_shape(), 0xC4A2);
    let mut session = Engine::new(Device::stm32_f411re())
        .deploy(&g, &weights)
        .unwrap()
        .session();
    let (first, plan) = session.infer_chained(&input).unwrap();
    let (again, again_plan) = session.infer_chained(&input).unwrap();
    assert_eq!(first.output, again.output);
    assert_eq!(plan, again_plan);
    assert_eq!(first.latency_ms(), again.latency_ms());
    for (a, b) in first.layers.iter().zip(&again.layers) {
        assert_eq!(a.exec.counters, b.exec.counters);
    }
}

#[test]
fn one_deployment_serves_many_sessions() {
    // The fleet pattern: one shared deployment, one session per device.
    let g = zoo::mbv2_block_unfused();
    let weights = g.random_weights(0xF1EE);
    let deployment = Engine::new(Device::stm32_f411re())
        .planner(PlannerKind::VmcuFused(IbScheme::RowBuffer))
        .deploy(&g, &weights)
        .unwrap();
    let shared = deployment.clone(); // Arc-backed: cloning shares the plans
    let input = random::tensor_i8(&g.in_shape(), 0xAB);
    let mut outputs = Vec::new();
    for _device in 0..3 {
        let mut session = shared.session();
        outputs.push(session.infer(&input).unwrap().output.clone());
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn deploy_rejects_what_the_planner_rejects() {
    // The deploy path carries the same typed fails-to-run outcome the
    // paper reports — and it matches `check_fit` exactly.
    let g = zoo::hires_front_stage();
    let weights = g.random_weights(1);
    let dev = Device::stm32_f411re();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::VmcuFused(IbScheme::RowBuffer),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        let engine = Engine::new(dev.clone()).planner(kind);
        let deploy_err = engine.deploy(&g, &weights).unwrap_err();
        let fit_err = engine.check_fit(&g).unwrap_err();
        match (deploy_err, fit_err) {
            (
                EngineError::DoesNotFit {
                    layer: a,
                    needed: na,
                    ..
                },
                EngineError::DoesNotFit {
                    layer: b,
                    needed: nb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "{kind:?}");
                assert_eq!(na, nb, "{kind:?}");
            }
            other => panic!("{kind:?}: expected DoesNotFit twice, got {other:?}"),
        }
    }
}

#[test]
fn deploy_with_the_wrong_number_of_weights_is_a_typed_error() {
    let g = zoo::demo_linear_net();
    let mut weights = g.random_weights(3);
    weights.pop();
    for engine in [
        Engine::new(Device::stm32_f411re()),
        Engine::new(Device::stm32_f411re()).planner(PlannerKind::VmcuFused(IbScheme::RowBuffer)),
    ] {
        for result in [
            engine.deploy(&g, &weights),
            engine.deploy_unchecked(&g, &weights),
        ] {
            match result {
                Err(EngineError::WeightsMismatch { layers, weights: w }) => {
                    assert_eq!(layers, g.len());
                    assert_eq!(w, g.len() - 1);
                }
                other => panic!("expected WeightsMismatch, got {other:?}"),
            }
        }
    }
}
