//! The benchmark's metric set, one for every workload.
//!
//! Every workload reports the same end-to-end metrics (`--trace 0`) and
//! the same per-layer metrics (`--trace 1`), each measured on its own
//! work: `ops_per_s` is cells deployed and audited per second on
//! compile-zoo, inferences per second on infer-zoo and requests per
//! second on serve-online. A layer a workload never enters reports 0 for
//! its counts and rates. Host times are reported only for layers every
//! workload enters (graph building, planning, auditing), so no host time
//! reads 0. `BENCHMARK.json` lists the same names in the same order, and
//! `main` refuses a result that does not match it.

use crate::measure::{peak_rss_mb, Outcome};
use crate::models::{device_id, infer_devices, policies};
use vmcu::vmcu_sim::Counters;

/// Policy configurations, the length of the per-policy arrays below.
pub const POLICIES: usize = 8;

/// The end-to-end metrics of one workload, measured with tracing off.
pub struct EndToEnd {
    /// Fastest build of everything made before the first timed call, s.
    pub setup_s: f64,
    /// The workload's operations per host second.
    pub ops_per_s: f64,
    /// Geometric mean of the peak simulated RAM of the workload's
    /// deployments (bottleneck bytes with the runtime overhead), KB.
    pub sim_peak_ram_kb_geomean: f64,
    /// Simulated device latency of the workload's operation, ms.
    pub sim_latency_ms: f64,
}

impl EndToEnd {
    /// Adds the metrics to `out`, in manifest order.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", "s", self.setup_s);
        out.metric("peak_rss_mb", "MB", peak_rss_mb());
        out.metric("ops_per_s", "1/s", self.ops_per_s);
        out.metric(
            "sim_peak_ram_kb_geomean",
            "sim_KB",
            self.sim_peak_ram_kb_geomean,
        );
        out.metric("sim_latency_ms", "sim_ms", self.sim_latency_ms);
    }
}

/// What the serving layer did in the traced run (serve-online only).
#[derive(Debug, Default, Clone)]
pub struct ServeLayer {
    /// Cold first run over the fastest warm rerun, host seconds.
    pub cold_over_warm: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests shed from a full queue.
    pub shed: u64,
    /// Completed requests past their deadline.
    pub slo_violations: u64,
    /// Hot swaps across the fleet.
    pub swaps: u64,
    /// Model stagings across the fleet.
    pub stagings: u64,
    /// Model evictions across the fleet.
    pub evictions: u64,
    /// Simulated staging time charged, ms.
    pub swap_ms: f64,
    /// Busy share of each worker's simulated clock.
    pub busy_ratio: [f64; 2],
    /// Median simulated sojourn, ms.
    pub p50_sojourn_ms: f64,
    /// (completed − SLO violations) / offered.
    pub slo_attainment: f64,
    /// Highest rung of the rate ladder that meets the SLO, req/s.
    pub max_rate_at_slo: f64,
    /// p99 simulated sojourn of each ladder rung, ms.
    pub ladder_p99_ms: Vec<(u32, f64)>,
}

/// The per-layer metrics of one workload's traced run.
#[derive(Debug, Default, Clone)]
pub struct PerLayer {
    /// Self time building graphs, weights, inputs and references, ms.
    pub graph_build_ms: f64,
    /// Self time of `Engine::deploy` (`Fleet::new` on serve-online), ms.
    pub plan_deploy_ms: f64,
    /// Planning passes per policy (`vmcu_plan::telemetry::plan_calls`).
    pub plan_calls: [u64; POLICIES],
    /// Deployments made.
    pub deployable: u64,
    /// Self time of `vmcu_verify::audit`, ms.
    pub audit_ms: f64,
    /// Nodes the audits replayed.
    pub nodes_checked: u64,
    /// Execution distances the audits re-derived.
    pub distances_checked: u64,
    /// `Deployment::session` boots traced.
    pub sessions: u64,
    /// Self time of the traced session boots, ms.
    pub session_ms: f64,
    /// MACs of the traced `Session::infer` calls, per policy.
    pub kernel_macs: [u64; POLICIES],
    /// Self time of the traced `Session::infer` calls per policy, ms.
    pub kernel_ms: [f64; POLICIES],
    /// MACs of the traced inferences per device of [`infer_devices`].
    pub kernel_macs_by_device: [u64; 2],
    /// Self time of the traced inferences per device, ms.
    pub kernel_ms_by_device: [f64; 2],
    /// Simulated counters summed over one inference per cell.
    pub sim: Counters,
    /// Simulated cycles of one inference per cell, per policy.
    pub sim_cycles: [u64; POLICIES],
    /// Geometric mean of simulated energy per inference, mJ.
    pub sim_energy_mj_geomean: f64,
    /// The serving layer.
    pub serve: ServeLayer,
    /// Traced over untraced time of the same operations.
    pub overhead_ratio: f64,
}

/// `work` per microsecond of `ms`, or 0 when nothing ran.
fn per_us(work: u64, ms: f64) -> f64 {
    if work == 0 || ms <= 0.0 {
        0.0
    } else {
        work as f64 / (ms * 1e3)
    }
}

impl PerLayer {
    /// Adds the metrics to `out`, in manifest order.
    pub fn report(&self, out: &mut Outcome) {
        let policies = policies();
        out.metric("graph.build_ms", "ms", self.graph_build_ms);
        out.metric("plan.deploy_ms", "ms", self.plan_deploy_ms);
        out.metric(
            "plan.calls",
            "count",
            self.plan_calls.iter().sum::<u64>() as f64,
        );
        for ((pid, _), calls) in policies.iter().zip(self.plan_calls) {
            out.metric(format!("plan.calls.{pid}"), "count", calls as f64);
        }
        out.metric("plan.deployable", "count", self.deployable as f64);
        out.metric("verify.audit_ms", "ms", self.audit_ms);
        out.metric("verify.nodes_checked", "count", self.nodes_checked as f64);
        out.metric(
            "verify.distances_checked",
            "count",
            self.distances_checked as f64,
        );
        out.metric(
            "vmcu.sessions_per_s",
            "1/s",
            per_us(self.sessions, self.session_ms) * 1e6,
        );
        out.metric(
            "kernels.macs_per_us",
            "1/us",
            per_us(self.kernel_macs.iter().sum(), self.kernel_ms.iter().sum()),
        );
        for (i, (pid, _)) in policies.iter().enumerate() {
            out.metric(
                format!("kernels.macs_per_us.{pid}"),
                "1/us",
                per_us(self.kernel_macs[i], self.kernel_ms[i]),
            );
        }
        for (i, d) in infer_devices().iter().enumerate() {
            out.metric(
                format!("kernels.macs_per_us.{}", device_id(d)),
                "1/us",
                per_us(self.kernel_macs_by_device[i], self.kernel_ms_by_device[i]),
            );
        }
        let s = &self.sim;
        for (name, value) in [
            ("cycles", s.cycles),
            ("macs", s.macs),
            ("ram_read_bytes", s.ram_read_bytes),
            ("ram_write_bytes", s.ram_write_bytes),
            ("flash_read_bytes", s.flash_read_bytes),
            ("modulo_ops", s.modulo_ops),
            ("branches", s.branches),
        ] {
            out.metric(format!("sim.{name}"), "count", value as f64);
        }
        for ((pid, _), cycles) in policies.iter().zip(self.sim_cycles) {
            out.metric(format!("sim.cycles.{pid}"), "count", cycles as f64);
        }
        out.metric(
            "sim.energy_mj_geomean",
            "sim_mJ",
            self.sim_energy_mj_geomean,
        );
        let v = &self.serve;
        out.metric("serve.cold_over_warm", "ratio", v.cold_over_warm);
        for (name, value) in [
            ("completed", v.completed),
            ("rejected", v.rejected),
            ("shed", v.shed),
            ("slo_violations", v.slo_violations),
            ("swaps", v.swaps),
            ("stagings", v.stagings),
            ("evictions", v.evictions),
        ] {
            out.metric(format!("serve.{name}"), "count", value as f64);
        }
        out.metric("serve.swap_ms", "sim_ms", v.swap_ms);
        for (i, busy) in v.busy_ratio.iter().enumerate() {
            out.metric(format!("serve.busy_ratio.w{i}"), "ratio", *busy);
        }
        out.metric("serve.p50_sojourn_ms", "sim_ms", v.p50_sojourn_ms);
        out.metric("serve.slo_attainment", "ratio", v.slo_attainment);
        out.metric("serve.max_rate_at_slo", "sim_req/s", v.max_rate_at_slo);
        for rate in crate::serve_online::LADDER {
            let p99 = v
                .ladder_p99_ms
                .iter()
                .find(|(r, _)| *r == rate)
                .map_or(0.0, |(_, p)| *p);
            out.metric(format!("serve.ladder_p99_ms.r{rate}"), "sim_ms", p99);
        }
        out.metric("trace.overhead_ratio", "ratio", self.overhead_ratio);
    }
}

/// Adds `c` into `acc`, field by field.
pub fn add_counters(acc: &mut Counters, c: &Counters) {
    acc.cycles += c.cycles;
    acc.macs += c.macs;
    acc.ram_read_bytes += c.ram_read_bytes;
    acc.ram_write_bytes += c.ram_write_bytes;
    acc.flash_read_bytes += c.flash_read_bytes;
    acc.modulo_ops += c.modulo_ops;
    acc.branches += c.branches;
}
