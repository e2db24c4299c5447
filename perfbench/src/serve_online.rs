//! `serve-online`: an STM32-F411RE fleet of two workers under the vMCU
//! RowBuffer policy serves `ModelCatalog::standard()` through an
//! open-loop, seeded Poisson stream. The event loop, EDF queues, router
//! and swap ledger do the work; kernels run only the one calibration
//! probe per (worker, model) of each run. After the timed reruns the
//! fleet's deployments are audited.

use crate::measure::{derive_seed, digest, geomean, median, repeated_setup, timed, Outcome};
use crate::report::{EndToEnd, PerLayer, ServeLayer};
use crate::trace::{self, span};
use crate::Args;
use std::time::{Duration, Instant};
use vmcu::prelude::*;
use vmcu::vmcu_plan::telemetry;
use vmcu_serve::{ArrivalProfile, Fleet, FleetConfig, ModelCatalog, OnlineConfig, OnlineReport};

/// Fleet size, fixed in the workload rather than read from the host.
const WORKERS: usize = 2;
/// Nominal arrival rate of the main stream, requests per simulated second.
const RATE: f64 = 100.0;
/// Latency limit on the p99 sojourn, simulated ms.
const SLO_MS: f64 = 250.0;
/// Requests in the main stream.
const REQUESTS: usize = 1_000_000;
/// Rate ladder for `max_rate_at_slo`, requests per simulated second.
pub const LADDER: [u32; 5] = [50, 75, 100, 125, 150];
/// Requests per ladder rung; the backlog test reruns each rung at twice
/// this length.
const LADDER_REQUESTS: usize = 100_000;
/// A rung has a growing backlog when doubling its stream raises its p99
/// by more than this share (the `p99_sojourn_ms` bound).
const BACKLOG_BOUND: f64 = 0.1;
/// Most shed requests a rung may drop and still meet the SLO.
const MAX_SHED_RATE: f64 = 0.01;
/// Setup builds before the first timed call, and one after each warm
/// rerun; `setup_s` is the median of all of them, spread over the run.
const SETUP_BUILDS: usize = 16;
/// Warm reruns of the main stream per run, at least.
const MIN_WARM: usize = 3;
/// Untraced and traced warm-rerun pairs in the traced run.
const TRACED_PAIRS: usize = 3;

fn build_fleet() -> Fleet {
    let catalog = span("graph", "catalog", 0, ModelCatalog::standard);
    span("plan", "fleet_new", 0, || {
        Fleet::new(
            FleetConfig::new(
                Device::stm32_f411re(),
                WORKERS,
                PlannerKind::Vmcu(IbScheme::RowBuffer),
            ),
            catalog,
        )
    })
}

/// The fleet's deployments, one per catalog model that deployed.
fn deployments(fleet: &Fleet) -> Vec<&Deployment> {
    fleet
        .catalog()
        .models()
        .iter()
        .filter_map(|m| fleet.deployment(m.name))
        .collect()
}

/// Audits the fleet's deployments; returns the nodes and distances the
/// audits checked.
fn audit(fleet: &Fleet, out: &mut Outcome) -> (u64, u64) {
    let (mut nodes, mut distances) = (0, 0);
    for (i, dep) in deployments(fleet).into_iter().enumerate() {
        let report = span("verify", "audit", i as u64, || vmcu_verify::audit(dep));
        nodes += report.nodes_checked as u64;
        distances += report.distances_checked as u64;
        out.check(if report.is_clean() {
            Ok(())
        } else {
            Err(format!(
                "fleet deployment of {}: {} audit violations",
                dep.graph().name,
                report.violations.len()
            ))
        });
    }
    (nodes, distances)
}

fn stream(seed: u64, rate: f64, requests: usize) -> OnlineConfig {
    OnlineConfig::new(
        ArrivalProfile::Poisson { rate_per_sec: rate },
        requests,
        derive_seed(
            seed,
            0x5E7E_0000 + rate as u64 * 1_000_000 + requests as u64,
        ),
    )
    .with_slo_ms(SLO_MS)
}

/// Bit-exact witness of a run's simulated statistics.
fn sim_digest(report: &OnlineReport) -> u64 {
    digest(&format!(
        "{:?} {:?}",
        report.stats.simulated(),
        report.workers
    ))
}

/// Checks one run: no failed request.
fn check_run(out: &mut Outcome, what: &str, report: &OnlineReport) {
    out.check(if report.stats.failed == 0 {
        Ok(())
    } else {
        Err(format!("{what}: {} requests failed", report.stats.failed))
    });
}

/// One rung of the rate ladder: its p99 and whether it meets the SLO
/// without shedding more than `MAX_SHED_RATE` or a growing backlog.
struct Rung {
    rate: u32,
    p99_ms: f64,
    meets_slo: bool,
}

fn rung(fleet: &Fleet, seed: u64, rate: u32, out: &mut Outcome) -> Rung {
    let runs = [LADDER_REQUESTS, 2 * LADDER_REQUESTS].map(|n| {
        let report = span("serve", format!("ladder.r{rate}"), u64::from(rate), || {
            fleet.run_online(&stream(seed, f64::from(rate), n))
        });
        check_run(out, &format!("ladder rung {rate} req/s"), &report);
        report.stats
    });
    let [short, long] = &runs;
    Rung {
        rate,
        p99_ms: short.p99_sojourn_ms,
        meets_slo: short.p99_sojourn_ms <= SLO_MS
            && short.shed_rate <= MAX_SHED_RATE
            && long.p99_sojourn_ms <= short.p99_sojourn_ms * (1.0 + BACKLOG_BOUND),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let fleet = repeated_setup(SETUP_BUILDS, &mut setup_times, build_fleet);
    let cfg = stream(args.seed, RATE, REQUESTS);

    // The first run is untimed: its cost depends on the allocator's and
    // the kernel's state, not only on the code (see the traced run).
    let first = fleet.run_online(&cfg);
    check_run(&mut out, "first run", &first);
    let expected = sim_digest(&first);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut warm_s = f64::INFINITY;
    let mut reps = 0;
    while reps < MIN_WARM || Instant::now() < deadline {
        let (warm, secs) = timed(|| fleet.run_online(&cfg));
        warm_s = warm_s.min(secs);
        check_run(&mut out, "warm rerun", &warm);
        out.check(if sim_digest(&warm) == expected {
            Ok(())
        } else {
            Err("warm rerun simulated a different result than the first run".into())
        });
        reps += 1;
        repeated_setup(1, &mut setup_times, build_fleet);
    }
    audit(&fleet, &mut out);
    println!(
        "serve-online: {WORKERS} x STM32-F411RE, {REQUESTS} requests at {RATE} req/s, SLO {SLO_MS} ms; \
         {reps} warm reruns on {} host threads",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let s = &first.stats;
    println!(
        "serve-online: p99 over {} completed requests ({} offered, {} shed, {} rejected)",
        s.completed, s.offered, s.shed, s.rejected
    );
    EndToEnd {
        setup_s: median(&setup_times),
        ops_per_s: REQUESTS as f64 / warm_s,
        sim_peak_ram_kb_geomean: peak_ram_kb_geomean(&fleet),
        sim_latency_ms: s.p99_sojourn_ms,
    }
    .report(&mut out);
    out
}

/// Geometric mean of the fleet deployments' peak simulated RAM, KB.
fn peak_ram_kb_geomean(fleet: &Fleet) -> f64 {
    geomean(
        deployments(fleet)
            .iter()
            .map(|d| d.plan().bottleneck_bytes() as f64 / 1e3),
    )
}

/// The traced run: fleet deploy, the cold first run, alternating
/// untraced and traced warm reruns, arrival generation, the ladder and
/// the audits, each in a span.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    trace::set_enabled(true);
    let calls_before = telemetry::plan_calls();
    let fleet = build_fleet();
    let plan_calls = telemetry::plan_calls() - calls_before;
    let build = 0..trace::span_count();
    let cfg = stream(args.seed, RATE, REQUESTS);
    // The first run comes straight after deploy: any large allocation
    // freed before it (the arrival stream, say) would warm it up.
    let (first, first_s) =
        timed(|| span("serve", "run_online.first", 1, || fleet.run_online(&cfg)));
    check_run(&mut out, "cold run", &first);
    // An untraced warm-up, then untraced and traced reruns, alternating.
    trace::set_enabled(false);
    fleet.run_online(&cfg);
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRACED_PAIRS {
        plain_s = plain_s.min(timed(|| fleet.run_online(&cfg)).1);
        trace::set_enabled(true);
        let (rerun, secs) =
            timed(|| span("serve", "run_online.rerun", 2, || fleet.run_online(&cfg)));
        trace::set_enabled(false);
        traced_s = traced_s.min(secs);
        check_run(&mut out, "warm rerun", &rerun);
        out.check(if sim_digest(&rerun) == sim_digest(&first) {
            Ok(())
        } else {
            Err("rerun simulated a different result than the first run".into())
        });
    }
    trace::set_enabled(true);
    let models = fleet.catalog().models().len();
    span("serve", "arrivals", 3, || {
        cfg.profile.stream(cfg.requests, models, cfg.seed)
    });
    let ladder: Vec<Rung> = LADDER
        .iter()
        .map(|&r| rung(&fleet, args.seed, r, &mut out))
        .collect();
    let audits = trace::span_count();
    let (nodes_checked, distances_checked) = audit(&fleet, &mut out);
    trace::set_enabled(false);
    let audits = audits..trace::span_count();

    let spans = trace::spans();
    for (name, ms) in trace::self_ms_by_name(&spans, 0..spans.len()) {
        println!("  {name:<28} {ms:>12.3} ms traced self time");
    }
    let s = &first.stats;
    let mut plan_calls_by_policy = [0; crate::report::POLICIES];
    plan_calls_by_policy[0] = plan_calls;
    PerLayer {
        graph_build_ms: trace::layer_self_ms(&spans, build.clone(), "graph"),
        plan_deploy_ms: trace::layer_self_ms(&spans, build, "plan"),
        plan_calls: plan_calls_by_policy,
        deployable: deployments(&fleet).len() as u64,
        audit_ms: trace::layer_self_ms(&spans, audits, "verify"),
        nodes_checked,
        distances_checked,
        serve: ServeLayer {
            cold_over_warm: first_s / traced_s,
            completed: s.completed as u64,
            rejected: s.rejected as u64,
            shed: s.shed as u64,
            slo_violations: s.slo_violations as u64,
            swaps: s.swaps,
            stagings: s.stagings,
            evictions: s.evictions,
            swap_ms: s.swap_ms,
            busy_ratio: [0, 1].map(|i| {
                first
                    .workers
                    .get(i)
                    .map_or(0.0, |w| w.busy_us as f64 / w.clock_us as f64)
            }),
            p50_sojourn_ms: s.p50_sojourn_ms,
            slo_attainment: (s.completed - s.slo_violations) as f64 / s.offered as f64,
            max_rate_at_slo: ladder
                .iter()
                .filter(|r| r.meets_slo)
                .map(|r| f64::from(r.rate))
                .fold(0.0, f64::max),
            ladder_p99_ms: ladder.iter().map(|r| (r.rate, r.p99_ms)).collect(),
        },
        overhead_ratio: traced_s / plain_s,
        ..PerLayer::default()
    }
    .report(&mut out);
    out
}
