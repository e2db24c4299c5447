//! `infer-zoo`: repeated, bit-checked `Session::infer` over a fixed list
//! of (model, policy, device) cells. Deploys, reference outputs and
//! session boots happen in setup, so only the kernels, the simulator and
//! the pool do timed work. After the timed passes every listed deployment
//! is audited, so the plans that ran are certified hazard-free.

use crate::measure::{
    cpu_timed, derive_seed, geomean, median, repeated_setup, CpuClock, MinTimes, Outcome,
};
use crate::models::{device_id, infer_devices as devices, models, policies, Model};
use crate::report::{add_counters, EndToEnd, PerLayer, POLICIES};
use crate::trace::{self, span};
use crate::Args;
use std::time::{Duration, Instant};
use vmcu::prelude::*;
use vmcu::vmcu_graph::exec::run_reference;
use vmcu::vmcu_plan::telemetry;
use vmcu::vmcu_sim::Counters;
use vmcu::vmcu_tensor::random;

/// The fixed cell list: every cell that deploys at the default seed on the
/// two devices below, as `model policy device` lines.
const CELLS: &str = include_str!("../infer_cells.txt");
/// Setup builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 2;
/// Passes through the cell list per run, at least; more if time allows.
const MIN_PASSES: usize = 2;
/// Back-to-back rounds over one model's cells per pass.
const ROUNDS: usize = 3;

struct Cell {
    model: usize,
    policy: usize,
    device: usize,
    deployment: Option<Deployment>,
}

struct Setup {
    models: Vec<Model>,
    inputs: Vec<Tensor<i8>>,
    references: Vec<Tensor<i8>>,
    cells: Vec<Cell>,
    /// Planning passes per policy while deploying the cells.
    plan_calls: [u64; POLICIES],
}

/// Parses the committed cell list against this run's model set.
fn parse_cells(models: &[Model]) -> Vec<(usize, usize, usize)> {
    let devices = devices();
    CELLS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let model = models.iter().position(|m| m.name == f[0]);
            let policy = policies().iter().position(|(p, _)| *p == f[1]);
            let device = devices.iter().position(|d| device_id(d) == f[2]);
            match (model, policy, device) {
                (Some(m), Some(p), Some(d)) => (m, p, d),
                _ => panic!("infer_cells.txt: unknown cell `{line}`"),
            }
        })
        .collect()
}

fn setup(seed: u64, out: &mut Outcome) -> Setup {
    let models = span("graph", "models", 0, || models(seed));
    let inputs: Vec<Tensor<i8>> = span("graph", "inputs", 0, || {
        models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                random::tensor_i8(&m.graph.in_shape(), derive_seed(seed, 0x1B_0000 + i as u64))
            })
            .collect()
    });
    let references = models
        .iter()
        .zip(&inputs)
        .enumerate()
        .map(|(i, (m, input))| {
            span("graph", "run_reference", i as u64, || {
                run_reference(&m.graph, &m.weights, input)
                    .pop()
                    .expect("a graph has an output")
            })
        })
        .collect();
    let devices = devices();
    let policies = policies();
    let mut plan_calls = [0; POLICIES];
    let cells = parse_cells(&models)
        .into_iter()
        .enumerate()
        .map(|(i, (model, policy, device))| {
            let (pid, kind) = policies[policy];
            let m = &models[model];
            let engine = Engine::new(devices[device].clone()).planner(kind);
            let before = telemetry::plan_calls();
            let deployed = span("plan", format!("deploy.{pid}"), i as u64, || {
                engine.deploy(&m.graph, &m.weights)
            });
            plan_calls[policy] += telemetry::plan_calls() - before;
            // Staging is validated here; sessions are re-booted per model
            // in the timed loop so no more than one model's are alive.
            let deployment = match deployed {
                Ok(dep) => {
                    span("vmcu", "session", i as u64, || drop(dep.session()));
                    out.check(Ok(()));
                    Some(dep)
                }
                Err(e) => {
                    out.check(Err(format!(
                        "listed cell {} × {pid} × {} no longer deploys: {e}",
                        m.name, devices[device].name
                    )));
                    None
                }
            };
            Cell {
                model,
                policy,
                device,
                deployment,
            }
        })
        .collect();
    Setup {
        models,
        inputs,
        references,
        cells,
        plan_calls,
    }
}

/// The simulated outcome of one inference of one cell.
#[derive(Debug, Clone, PartialEq)]
struct SimResult {
    latency_ms: f64,
    energy_mj: f64,
    counters: Counters,
}

/// One pass: per model, boot its cells' sessions, then `ROUNDS` rounds of
/// timed inferences over them, each output checked against the reference.
/// Thread CPU times go to `times[side]`, where `side` is 1 when the cell
/// was traced; `parity` picks the traced cells (see [`trace::alternate`]).
fn pass(
    s: &Setup,
    parity: Option<usize>,
    sims: &mut [Option<SimResult>],
    times: &mut [MinTimes],
    out: &mut Outcome,
) {
    let policies = policies();
    let devices = devices();
    for (model, m) in s.models.iter().enumerate() {
        if parity.is_some() {
            trace::set_enabled(false);
        }
        let mut sessions: Vec<(usize, Session)> = s
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.model == model)
            .filter_map(|(i, c)| {
                let dep = c.deployment.as_ref()?;
                Some((i, span("vmcu", "session", i as u64, || dep.session())))
            })
            .collect();
        for _ in 0..ROUNDS {
            for (i, session) in &mut sessions {
                let c = &s.cells[*i];
                let name = format!(
                    "infer.{}@{}",
                    policies[c.policy].0,
                    device_id(&devices[c.device])
                );
                trace::alternate(parity, *i);
                let (result, secs) = cpu_timed(CpuClock::Thread, || {
                    span("kernels", name, *i as u64, || {
                        session.infer(&s.inputs[model])
                    })
                });
                times[usize::from(trace::enabled())].record(*i, secs);
                let label = || {
                    format!(
                        "{} × {} × {}",
                        m.name, policies[c.policy].0, devices[c.device].name
                    )
                };
                let report = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.check(Err(format!("{}: infer failed: {e}", label())));
                        continue;
                    }
                };
                let reference = &s.references[model];
                if report.output.shape() != reference.shape()
                    || report.output.data() != reference.data()
                {
                    out.check(Err(format!(
                        "{}: output differs from run_reference",
                        label()
                    )));
                    continue;
                }
                let sim = SimResult {
                    latency_ms: report.latency_ms(),
                    energy_mj: report.energy_mj(),
                    counters: report.layers.iter().fold(Counters::new(), |mut acc, l| {
                        add_counters(&mut acc, &l.exec.counters);
                        acc
                    }),
                };
                out.check(match &sims[*i] {
                    Some(first) if *first != sim => Err(format!(
                        "{}: simulated result changed between runs",
                        label()
                    )),
                    _ => Ok(()),
                });
                sims[*i].get_or_insert(sim);
            }
        }
    }
}

/// Audits every listed deployment; returns the nodes and distances the
/// audits checked.
fn audit(s: &Setup, out: &mut Outcome) -> (u64, u64) {
    let (mut nodes, mut distances) = (0, 0);
    for (i, c) in s.cells.iter().enumerate() {
        let Some(dep) = &c.deployment else { continue };
        let report = span("verify", "audit", i as u64, || vmcu_verify::audit(dep));
        nodes += report.nodes_checked as u64;
        distances += report.distances_checked as u64;
        out.check(if report.is_clean() {
            Ok(())
        } else {
            Err(format!(
                "{} × {} × {}: {} audit violations",
                s.models[c.model].name,
                policies()[c.policy].0,
                devices()[c.device].name,
                report.violations.len()
            ))
        });
    }
    (nodes, distances)
}

/// Geometric mean of the listed deployments' peak simulated RAM, KB.
fn peak_ram_kb_geomean(s: &Setup) -> f64 {
    geomean(
        s.cells
            .iter()
            .filter_map(|c| c.deployment.as_ref())
            .map(|d| d.plan().bottleneck_bytes() as f64 / 1e3),
    )
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        let mut out = Outcome::default();
        trace::set_enabled(true);
        let s = setup(args.seed, &mut out);
        trace::set_enabled(false);
        traced(&s, &mut out).report(&mut out);
        return out;
    }
    // The last build's deploy checks stand for all of them.
    let mut setup_times = Vec::new();
    let (s, mut out) = repeated_setup(SETUP_BUILDS, &mut setup_times, || {
        let mut checks = Outcome::default();
        (setup(args.seed, &mut checks), checks)
    });
    println!(
        "infer-zoo: {} listed cells on {} models",
        s.cells.len(),
        s.models.len()
    );

    let mut sims = vec![None; s.cells.len()];
    let mut times = [MinTimes::new(s.cells.len())];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        pass(&s, None, &mut sims, &mut times, &mut out);
        passes += 1;
    }
    let measured = sims.iter().flatten().count();
    println!("infer-zoo: {passes} passes x {ROUNDS} rounds, min per cell over {measured} cells");
    audit(&s, &mut out);

    EndToEnd {
        setup_s: median(&setup_times),
        ops_per_s: measured as f64 / times[0].sum(),
        sim_peak_ram_kb_geomean: peak_ram_kb_geomean(&s),
        sim_latency_ms: geomean(sims.iter().flatten().map(|r| r.latency_ms)),
    }
    .report(&mut out);
    out
}

/// The traced run: setup was traced; after an untraced warm-up pass, two
/// passes each trace every other cell. The median ratio of a cell's traced
/// and untraced inference is the tracing overhead; between them the two
/// passes traced every cell `ROUNDS` times, which gives the kernel rates.
/// The audits come last, traced.
fn traced(s: &Setup, out: &mut Outcome) -> PerLayer {
    let n = s.cells.len();
    let mut sims = vec![None; n];
    let setup_spans = 0..trace::span_count();
    pass(s, None, &mut sims, &mut [MinTimes::new(n)], out);
    let mut times = [MinTimes::new(n), MinTimes::new(n)];
    let passes = trace::span_count();
    for parity in 0..2 {
        pass(s, Some(parity), &mut sims, &mut times, out);
    }
    let passes = passes..trace::span_count();
    trace::set_enabled(true);
    let audits = trace::span_count();
    let (nodes_checked, distances_checked) = audit(s, out);
    trace::set_enabled(false);
    let audits = audits..trace::span_count();

    let spans = trace::spans();
    let mut layers = PerLayer {
        graph_build_ms: trace::layer_self_ms(&spans, setup_spans.clone(), "graph"),
        plan_deploy_ms: trace::layer_self_ms(&spans, setup_spans.clone(), "plan"),
        plan_calls: s.plan_calls,
        deployable: s.cells.iter().filter(|c| c.deployment.is_some()).count() as u64,
        audit_ms: trace::layer_self_ms(&spans, audits, "verify"),
        nodes_checked,
        distances_checked,
        sessions: spans[setup_spans.clone()]
            .iter()
            .filter(|s| s.layer == "vmcu")
            .count() as u64,
        session_ms: trace::layer_self_ms(&spans, setup_spans, "vmcu"),
        overhead_ratio: times[1].median_ratio(&times[0]),
        ..PerLayer::default()
    };
    let kernel_ms = trace::self_ms_by_name(&spans, passes);
    let rounds = ROUNDS as u64;
    let policies = policies();
    let devices = devices();
    for (c, sim) in s.cells.iter().zip(&sims) {
        let Some(sim) = sim else { continue };
        layers.kernel_macs[c.policy] += sim.counters.macs * rounds;
        layers.kernel_macs_by_device[c.device] += sim.counters.macs * rounds;
        add_counters(&mut layers.sim, &sim.counters);
        layers.sim_cycles[c.policy] += sim.counters.cycles;
    }
    for (name, ms) in &kernel_ms {
        let Some((pid, device)) = name.strip_prefix("infer.").and_then(|k| k.split_once('@'))
        else {
            continue;
        };
        if let Some(p) = policies.iter().position(|(id, _)| *id == pid) {
            layers.kernel_ms[p] += ms;
        }
        if let Some(d) = devices.iter().position(|d| device_id(d) == device) {
            layers.kernel_ms_by_device[d] += ms;
        }
    }
    layers.sim_energy_mj_geomean = geomean(sims.iter().flatten().map(|r| r.energy_mj));
    layers
}

/// Prints the cell list for `seed`: every cell of the model set that
/// deploys on the two devices.
pub fn print_cells(seed: u64) {
    let models = models(seed);
    println!("# model policy device — cells that deploy at seed {seed}");
    for m in &models {
        for (pid, kind) in policies() {
            for d in devices() {
                if Engine::new(d.clone())
                    .planner(kind)
                    .deploy(&m.graph, &m.weights)
                    .is_ok()
                {
                    println!("{} {pid} {}", m.name, device_id(&d));
                }
            }
        }
    }
}
