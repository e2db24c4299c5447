//! `compile-zoo`: `Engine::deploy` and `vmcu_verify::audit` over every
//! model × policy configuration × SIMD-ladder device. No kernel runs and
//! nothing is served, so only the planners and the verifier do work.

use crate::measure::{geomean, median, repeated_setup, CpuClock, MinTimes, Outcome};
use crate::models::{models, policies, Model};
use crate::report::{EndToEnd, PerLayer, POLICIES};
use crate::trace::{self, span};
use crate::Args;
use std::time::{Duration, Instant};
use vmcu::prelude::*;
use vmcu::vmcu_plan::{self, telemetry};

/// Setup builds before the first timed call, and again after each pass;
/// `setup_s` is the median of all of them, spread over the run.
const SETUP_BUILDS: usize = 32;
/// Passes per run, at least: the first over every cell, the others over
/// every cell but [`FIRST_PASS_ONLY`]'s, for `--seconds`.
const MIN_PASSES: usize = 3;
/// The model and policy whose cells only the first pass of a run covers:
/// `vMCU-split` planning of `hires-split-only` takes about 4 s per device,
/// about 90% of a pass over every cell, and its four cells cannot move the
/// median cell that `ops_per_s` reports.
const FIRST_PASS_ONLY: (&str, &str) = ("hires-split-only", "split4");

#[derive(Debug, Clone, Copy)]
struct Cell {
    model: usize,
    device: usize,
    policy: usize,
}

/// What deploying one cell decided.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Deployed: bottleneck bytes including the runtime overhead, and the
    /// simulated ms to program its firmware image into Flash.
    Fits(usize, f64),
    /// `DoesNotFit`; the bytes the plan needed.
    DoesNotFit(usize),
}

struct Setup {
    models: Vec<Model>,
    devices: Vec<Device>,
    cells: Vec<Cell>,
}

fn setup(seed: u64) -> Setup {
    let models = span("graph", "models", 0, || models(seed));
    let devices = Device::simd_ladder();
    let mut cells = Vec::new();
    for model in 0..models.len() {
        for device in 0..devices.len() {
            for policy in 0..policies().len() {
                cells.push(Cell {
                    model,
                    device,
                    policy,
                });
            }
        }
    }
    Setup {
        models,
        devices,
        cells,
    }
}

/// One pass over every cell (but [`FIRST_PASS_ONLY`]'s unless
/// `every_cell`): deploy each, audit what deployed. A cell's
/// deploy and audit together are one operation; its thread CPU time goes
/// to `times[side]`, where `side` is 1 when the cell was traced. `parity`
/// picks the traced cells (see [`trace::alternate`]).
fn pass(
    s: &Setup,
    every_cell: bool,
    parity: Option<usize>,
    verdicts: &mut [Option<Verdict>],
    times: &mut [MinTimes],
    layers: &mut PerLayer,
    out: &mut Outcome,
) {
    let policies = policies();
    for (i, c) in s.cells.iter().enumerate() {
        let model = &s.models[c.model];
        let (pid, kind) = policies[c.policy];
        if !every_cell && (model.name.as_str(), pid) == FIRST_PASS_ONLY {
            continue;
        }
        let engine = Engine::new(s.devices[c.device].clone()).planner(kind);
        let op = i as u64;
        trace::alternate(parity, i);
        let side = usize::from(trace::enabled());
        let calls_before = telemetry::plan_calls();
        let start = CpuClock::Thread.now_s();
        let result = span("plan", format!("deploy.{pid}"), op, || {
            engine.deploy(&model.graph, &model.weights)
        });
        let calls = telemetry::plan_calls() - calls_before;
        let label = || format!("{} × {pid} × {}", model.name, s.devices[c.device].name);
        let verdict = match result {
            Ok(dep) => {
                let report = span("verify", format!("audit.{pid}"), op, || {
                    vmcu_verify::audit(&dep)
                });
                times[side].record(i, CpuClock::Thread.now_s() - start);
                if side == 1 {
                    layers.nodes_checked += report.nodes_checked as u64;
                    layers.distances_checked += report.distances_checked as u64;
                }
                out.check(if report.is_clean() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: {} audit violations",
                        label(),
                        report.violations.len()
                    ))
                });
                Verdict::Fits(dep.plan().bottleneck_bytes(), dep.staging_ms())
            }
            Err(EngineError::DoesNotFit { needed, .. }) => {
                times[side].record(i, CpuClock::Thread.now_s() - start);
                Verdict::DoesNotFit(needed)
            }
            Err(e) => {
                out.check(Err(format!(
                    "{}: deploy error other than DoesNotFit: {e}",
                    label()
                )));
                continue;
            }
        };
        if side == 1 {
            layers.plan_calls[c.policy] += calls;
            layers.deployable += u64::from(matches!(verdict, Verdict::Fits(..)));
        }
        out.check(match &verdicts[i] {
            Some(first) if *first != verdict => Err(format!(
                "{}: verdict changed between passes ({first:?} then {verdict:?})",
                label()
            )),
            _ => Ok(()),
        });
        verdicts[i].get_or_insert(verdict);
    }
    if parity.is_some() {
        trace::set_enabled(false);
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut setup_times = Vec::new();
    let s = repeated_setup(SETUP_BUILDS, &mut setup_times, || setup(args.seed));
    let mut out = Outcome::default();
    let mut verdicts = vec![None; s.cells.len()];
    println!(
        "compile-zoo: {} cells = {} models x {} policies x {} devices",
        s.cells.len(),
        s.models.len(),
        policies().len(),
        s.devices.len()
    );
    if args.trace {
        traced(args.seed, &s, &mut verdicts, &mut out).report(&mut out);
        return out;
    }

    let mut times = [MinTimes::new(s.cells.len())];
    let mut unused = PerLayer::default();
    pass(
        &s,
        true,
        None,
        &mut verdicts,
        &mut times,
        &mut unused,
        &mut out,
    );
    repeated_setup(SETUP_BUILDS, &mut setup_times, || setup(args.seed));
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 1;
    while passes < MIN_PASSES || Instant::now() < deadline {
        pass(
            &s,
            false,
            None,
            &mut verdicts,
            &mut times,
            &mut unused,
            &mut out,
        );
        passes += 1;
        repeated_setup(SETUP_BUILDS, &mut setup_times, || setup(args.seed));
    }
    let cell_ms = times[0].median() * 1e3;
    println!(
        "compile-zoo: {passes} passes; fastest per cell: {:.3} s in all, median cell {cell_ms:.4} ms",
        times[0].sum(),
    );
    let mut by_policy = [0.0; POLICIES];
    for (c, t) in s.cells.iter().zip(times[0].values()) {
        by_policy[c.policy] += t;
    }
    for ((pid, _), secs) in policies().iter().zip(by_policy) {
        println!("  {pid:<12} {secs:>9.3} s deploy and audit, fastest per cell, summed");
    }

    let peaks = verdicts.iter().flatten().map(|v| match v {
        Verdict::Fits(b, _) | Verdict::DoesNotFit(b) => *b as f64 / 1e3,
    });
    let staging = verdicts.iter().flatten().filter_map(|v| match v {
        Verdict::Fits(_, ms) => Some(*ms),
        Verdict::DoesNotFit(_) => None,
    });
    let deployable = verdicts
        .iter()
        .filter(|v| matches!(v, Some(Verdict::Fits(..))))
        .count();
    println!(
        "compile-zoo: {deployable} of {} cells deploy",
        s.cells.len()
    );
    EndToEnd {
        setup_s: median(&setup_times),
        ops_per_s: 1e3 / cell_ms,
        sim_peak_ram_kb_geomean: geomean(peaks),
        sim_latency_ms: geomean(staging),
    }
    .report(&mut out);
    out
}

/// The traced run: one traced setup build, an untraced warm-up pass, then
/// two passes over every cell that each trace every other cell (the
/// median ratio of a cell's traced and untraced time is the tracing
/// overhead), then direct calls of each planning phase per model, printed
/// but not reported.
fn traced(seed: u64, s: &Setup, verdicts: &mut [Option<Verdict>], out: &mut Outcome) -> PerLayer {
    let mut layers = PerLayer::default();
    trace::set_enabled(true);
    let build = trace::span_count();
    drop(setup(seed));
    trace::set_enabled(false);
    let build = build..trace::span_count();

    let n = s.cells.len();
    pass(
        s,
        false,
        None,
        verdicts,
        &mut [MinTimes::new(n)],
        &mut PerLayer::default(),
        out,
    );
    let mut times = [MinTimes::new(n), MinTimes::new(n)];
    let passes = trace::span_count();
    for parity in 0..2 {
        pass(
            s,
            true,
            Some(parity),
            verdicts,
            &mut times,
            &mut layers,
            out,
        );
    }
    let passes = passes..trace::span_count();

    trace::set_enabled(true);
    let phases = trace::span_count();
    let f411 = Device::stm32_f411re();
    let vmcu = VmcuPlanner {
        scheme: IbScheme::RowBuffer,
    };
    let patched = PatchedPlanner::default();
    for (m, model) in s.models.iter().enumerate() {
        let op = (n + m) as u64;
        let g = &model.graph;
        span("plan", "phase.plan_graph", op, || {
            vmcu_plan::plan_graph(&vmcu, g, &f411)
        });
        span("plan", "phase.fuse_graph", op, || {
            vmcu_plan::fuse_graph(g, IbScheme::RowBuffer)
        });
        span("plan", "phase.patch_plan", op, || patched.patch_plan(g));
        span("plan", "phase.plan_order", op, || {
            vmcu_plan::plan_order(&vmcu, g)
        });
        span("plan", "phase.plan_split", op, || {
            vmcu_plan::plan_split(g, 4, IbScheme::RowBuffer)
        });
    }
    trace::set_enabled(false);

    let spans = trace::spans();
    layers.graph_build_ms = trace::layer_self_ms(&spans, build, "graph");
    // Between them the two passes traced every cell once.
    layers.plan_deploy_ms = trace::layer_self_ms(&spans, passes.clone(), "plan");
    layers.audit_ms = trace::layer_self_ms(&spans, passes.clone(), "verify");
    for (name, ms) in trace::self_ms_by_name(&spans, passes) {
        println!("  {name:<28} {ms:>12.3} ms traced self time");
    }
    for (name, ms) in trace::self_ms_by_name(&spans, phases..spans.len()) {
        println!("  {name:<28} {ms:>12.3} ms traced self time, one call per model");
    }
    layers.overhead_ratio = times[1].median_ratio(&times[0]);
    layers
}
