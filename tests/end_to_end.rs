//! Cross-crate integration: whole graphs planned, deployed, and executed
//! on the simulated MCU under every policy, checked against the reference
//! executor.

use vmcu::prelude::*;
use vmcu::vmcu_graph::{exec, zoo};
use vmcu::vmcu_tensor::random;
use vmcu::Schedule;

/// Deploy-once/infer-once through the new Session API.
fn run(
    engine: &Engine,
    g: &Graph,
    weights: &[LayerWeights],
    input: &Tensor<i8>,
) -> Result<InferenceReport, EngineError> {
    engine.deploy(g, weights)?.session().infer(input)
}

#[test]
fn demo_net_runs_identically_under_all_executors() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(100);
    let input = random::tensor_i8(&g.in_shape(), 101);
    let expected = exec::run_reference(&g, &weights, &input);
    let expected = expected.last().unwrap();

    let device = Device::stm32_f767zi();
    for kind in [
        PlannerKind::Vmcu(IbScheme::RowBuffer),
        PlannerKind::Vmcu(IbScheme::PixelWindow),
        PlannerKind::Vmcu(IbScheme::SlidingWindow),
        PlannerKind::TinyEngine,
        PlannerKind::Hmcos,
    ] {
        let report = run(
            &Engine::new(device.clone()).planner(kind),
            &g,
            &weights,
            &input,
        )
        .unwrap_or_else(|e| panic!("{kind:?} failed: {e}"));
        assert_eq!(&report.output, expected, "{kind:?} output mismatch");
    }
}

#[test]
fn vmcu_peak_ram_is_lowest_across_policies() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(5);
    let input = random::tensor_i8(&g.in_shape(), 6);
    let device = Device::stm32_f767zi();
    let peak = |kind| {
        run(
            &Engine::new(device.clone()).planner(kind),
            &g,
            &weights,
            &input,
        )
        .unwrap()
        .peak_ram_bytes()
    };
    let vm = peak(PlannerKind::Vmcu(IbScheme::RowBuffer));
    let te = peak(PlannerKind::TinyEngine);
    let hm = peak(PlannerKind::Hmcos);
    assert!(vm < te, "vMCU {vm} must beat TinyEngine {te}");
    assert!(te <= hm, "TinyEngine {te} must not exceed HMCOS {hm}");
}

#[test]
fn reports_expose_consistent_totals() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(7);
    let input = random::tensor_i8(&g.in_shape(), 8);
    let report = run(&Engine::new(Device::stm32_f767zi()), &g, &weights, &input).unwrap();
    let per_layer_ms: f64 = report.layers.iter().map(|l| l.exec.latency_ms).sum();
    assert!((report.latency_ms() - per_layer_ms).abs() < 1e-9);
    assert!(report.energy_mj() > 0.0);
    assert_eq!(
        report.peak_ram_bytes(),
        report
            .layers
            .iter()
            .map(|l| l.plan.measured_bytes)
            .max()
            .unwrap()
    );
    // Every layer fits by construction (run_layer rejects misfits).
    assert!(report.layers.iter().all(|l| l.plan.fits));
}

#[test]
fn oversized_layer_is_rejected_not_corrupted() {
    // A layer that cannot fit 128 KB under any policy.
    let layer = LayerDesc::Pointwise(PointwiseParams::new(128, 128, 16, 16, Requant::identity()));
    let weights = LayerWeights::random(&layer, 1);
    let input = random::tensor_i8(&layer.in_shape(), 2);
    let err = Engine::new(Device::stm32_f411re())
        .run_layer("too-big", &layer, &weights, &input)
        .unwrap_err();
    match err {
        EngineError::DoesNotFit {
            needed, available, ..
        } => {
            assert!(needed > available);
        }
        other => panic!("expected DoesNotFit, got {other}"),
    }
}

#[test]
fn every_vww_module_is_bit_exact_across_schemes() {
    let device = Device::stm32_f411re();
    for m in zoo::mcunet_5fps_vww().into_iter().take(4) {
        let layer = LayerDesc::Ib(m.params);
        let weights = LayerWeights::random(&layer, 9);
        let input = random::tensor_i8(&layer.in_shape(), 10);
        let mut outputs = Vec::new();
        for kind in [
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            PlannerKind::Vmcu(IbScheme::SlidingWindow),
            PlannerKind::TinyEngine,
        ] {
            let (out, _) = Engine::new(device.clone())
                .planner(kind)
                .run_layer(m.name, &layer, &weights, &input)
                .unwrap();
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "{}: scheme divergence", m.name);
        assert_eq!(outputs[0], outputs[2], "{}: baseline divergence", m.name);
    }
}

#[test]
fn chained_graph_runs_in_one_window_and_matches_reference() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(200);
    let input = random::tensor_i8(&g.in_shape(), 201);
    let expected = exec::run_reference(&g, &weights, &input);

    let engine = Engine::new(Device::stm32_f411re());
    let deployment = engine.deploy(&g, &weights).expect("demo net deploys");
    let (report, plan) = deployment
        .session()
        .infer_chained(&input)
        .expect("demo net chains on 128 KB");
    assert!(
        matches!(deployment.schedule(), Schedule::Nodes { chain: Some(memoized), .. } if *memoized == plan),
        "the executed chain plan is the memoized one"
    );
    assert_eq!(&report.output, expected.last().unwrap());

    // The single window must be far below the sum of all activations and
    // below the per-layer (re-staged) peak as well.
    let sum: usize = g
        .layers()
        .iter()
        .map(|l| l.in_bytes() + l.out_bytes())
        .sum();
    assert!(plan.window < sum);
    let per_layer = run(&engine, &g, &weights, &input).unwrap();
    assert!(plan.total_bytes() <= per_layer.peak_ram_bytes());
    // Every tensor's base is the previous output pointer: strictly
    // monotone decreasing by the per-layer distances.
    for (i, d) in plan.distances.iter().enumerate() {
        assert_eq!(plan.bases[i + 1], plan.bases[i] - d);
    }
}

#[test]
fn chained_graph_is_rejected_for_baseline_policies() {
    let g = zoo::demo_linear_net();
    let weights = g.random_weights(1);
    let input = random::tensor_i8(&g.in_shape(), 2);
    let err = Engine::new(Device::stm32_f767zi())
        .planner(PlannerKind::TinyEngine)
        .deploy(&g, &weights)
        .unwrap()
        .session()
        .infer_chained(&input)
        .unwrap_err();
    assert!(matches!(err, EngineError::Unsupported { .. }));
}
