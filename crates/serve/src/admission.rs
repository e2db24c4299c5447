//! Planner-driven admission control.
//!
//! Each simulated device can keep several models *resident* at once —
//! weights in flash, an SRAM arena reserved per model — and serves their
//! requests one inference at a time. The admission controller is the
//! gatekeeper: it prices every model at its planner's peak-RAM estimate
//! ([`vmcu_plan::peak_demand_bytes`]) and only admits a request when some
//! device still has that much SRAM uncommitted. Because vMCU's
//! segment-level plans peak far below tensor-level plans, the same fleet
//! admits strictly more concurrent models under vMCU — the paper's §7 RAM
//! savings, restated as serving capacity.
//!
//! Under the split policy (`PlannerKind::VmcuSplit`) a model is priced
//! as a *vector* of per-stage demands and admitted against the fleet's
//! **aggregate** RAM: each pipeline stage commits its arena on a
//! distinct device, so a model that fits no single device deploys the
//! moment enough devices jointly have the room. Requests pin to the
//! entry (stage-0) device, which drives the pipeline.

use crate::request::RejectReason;
use vmcu::prelude::MemoryPlanner;
use vmcu::PlannerKind;
use vmcu_graph::Graph;
use vmcu_sim::Device;

/// Per-worker SRAM ledger.
#[derive(Debug, Clone, Default)]
struct Ledger {
    /// Bytes committed to resident models.
    committed: usize,
    /// Names of resident models (each priced once — requests to an
    /// already-resident model reuse its arena).
    resident: Vec<String>,
    /// Requests assigned so far (load-balance key).
    assigned: usize,
}

/// Deterministic admission controller for a homogeneous fleet.
pub struct AdmissionController {
    device: Device,
    kind: PlannerKind,
    /// The planning policy object, resolved **once** at construction —
    /// pricing a model must not re-box a planner per call.
    planner: Box<dyn MemoryPlanner>,
    workers: Vec<Ledger>,
    /// Per-stage demands per model name (single-element for every
    /// non-split policy). Seeded from cached deployment plans via
    /// [`with_priced_models`](Self::with_priced_models) /
    /// [`with_priced_stage_demands`](Self::with_priced_stage_demands) so
    /// the serving path never replans; unseeded models (e.g. ones that
    /// failed to deploy) are priced once on first sight.
    demand_cache: std::collections::HashMap<String, Vec<usize>>,
    /// Worker indices hosting each resident model's stages, entry
    /// (stage-0) worker first.
    placements: std::collections::HashMap<String, Vec<usize>>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("device", &self.device.name)
            .field("planner", &self.planner.name())
            .field("workers", &self.workers.len())
            .field("priced_models", &self.demand_cache.len())
            .finish()
    }
}

impl AdmissionController {
    /// Creates a controller for `workers` copies of `device` planned with
    /// `kind`, resolving the planning policy object once.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero — a fleet needs at least one device.
    pub fn new(device: Device, kind: PlannerKind, workers: usize) -> Self {
        Self::with_priced_models(device, kind, workers, [])
    }

    /// [`new`](Self::new), with the demand cache pre-seeded from prices
    /// already computed elsewhere — the fleet scheduler seeds it from its
    /// cached deployment [`MemoryPlan`](vmcu_plan::MemoryPlan)s, so
    /// admitting a batch does zero planning work.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn with_priced_models(
        device: Device,
        kind: PlannerKind,
        workers: usize,
        prices: impl IntoIterator<Item = (String, usize)>,
    ) -> Self {
        Self::with_priced_stage_demands(
            device,
            kind,
            workers,
            prices.into_iter().map(|(name, d)| (name, vec![d])),
        )
    }

    /// [`with_priced_models`](Self::with_priced_models), with each model
    /// priced as a **vector of per-stage demands** — the split policy's
    /// shape, harvested from a `vmcu::Schedule::Split` deployment. Non-split
    /// models pass single-element vectors.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn with_priced_stage_demands(
        device: Device,
        kind: PlannerKind,
        workers: usize,
        prices: impl IntoIterator<Item = (String, Vec<usize>)>,
    ) -> Self {
        assert!(workers > 0, "fleet needs at least one worker");
        Self {
            device,
            kind,
            planner: kind.planner(),
            workers: vec![Ledger::default(); workers],
            demand_cache: prices.into_iter().collect(),
            placements: std::collections::HashMap::new(),
        }
    }

    /// Peak SRAM a model commits on whichever device hosts it
    /// (activations + workspace at the bottleneck layer; the fixed
    /// runtime overhead is paid once per device, not per model). Priced
    /// with the cached planner.
    pub fn demand_bytes(&self, graph: &Graph) -> usize {
        vmcu_plan::peak_demand_bytes(&*self.planner, graph)
    }

    /// Per-stage demands for a model: the split partition's stage peaks
    /// under `VmcuSplit`, a single-element vector under every other
    /// policy.
    fn stage_demands(&self, graph: &Graph) -> Vec<usize> {
        match self.kind {
            PlannerKind::VmcuSplit { devices, scheme } => {
                vmcu_plan::plan_split(graph, devices, scheme).stage_demands()
            }
            _ => vec![self.demand_bytes(graph)],
        }
    }

    /// Decides one request: `Ok(worker)` pins the request to a device,
    /// `Err` carries the typed rejection.
    ///
    /// Deterministic given the call sequence: a model already resident
    /// routes to its entry worker; otherwise each stage commits its
    /// arena on a **distinct** least-loaded worker with room (stage
    /// count is 1 under every non-split policy, so this degenerates to
    /// the classic single-device placement); ties break to the lowest
    /// index.
    ///
    /// # Errors
    ///
    /// [`RejectReason::EmptyModel`] for a model with zero planned
    /// demand; [`RejectReason::TooLargeForDevice`] when some stage
    /// exceeds even an empty device; [`RejectReason::NoCapacity`] when
    /// the fleet's aggregate uncommitted SRAM (or worker count) cannot
    /// host every stage at once.
    ///
    /// # Panics
    ///
    /// Panics only if the demand vector is empty past the zero-demand
    /// refusal above — unreachable.
    pub fn admit(&mut self, model: &str, graph: &Graph) -> Result<usize, RejectReason> {
        let demands = match self.demand_cache.get(model) {
            Some(d) => d.clone(),
            None => {
                let d = self.stage_demands(graph);
                self.demand_cache.insert(model.to_owned(), d.clone());
                d
            }
        };
        let budget = self.device.usable_ram_bytes();
        let total: usize = demands.iter().sum();
        // A zero-demand model (empty graph) would be admitted without
        // bound while `capacity::concurrent_capacity` reports 0 for it;
        // keep the two surfaces agreeing by refusing it outright.
        if total == 0 {
            return Err(RejectReason::EmptyModel);
        }
        let max_stage = *demands.iter().max().expect("non-empty demands");
        if max_stage > budget {
            return Err(RejectReason::TooLargeForDevice {
                needed: max_stage + self.device.runtime_overhead_bytes,
                available: self.device.ram_bytes,
            });
        }
        if demands.len() > self.workers.len() {
            return Err(RejectReason::NoCapacity { needed: total });
        }
        // Already resident: route to the entry (stage-0) worker, which
        // drives the pipeline — the arenas are already paid for.
        if let Some(placement) = self.placements.get(model) {
            let entry = placement[0];
            self.workers[entry].assigned += 1;
            return Ok(entry);
        }
        // Place every stage on a distinct least-loaded worker with room
        // before committing anything, so a partial fit never leaks
        // commitments.
        let mut chosen: Vec<usize> = Vec::with_capacity(demands.len());
        for demand in &demands {
            let Some((w, _)) = self
                .workers
                .iter()
                .enumerate()
                .filter(|(w, l)| !chosen.contains(w) && l.committed + demand <= budget)
                .min_by_key(|(w, l)| (l.assigned, *w))
            else {
                return Err(RejectReason::NoCapacity { needed: total });
            };
            chosen.push(w);
        }
        for (&w, &demand) in chosen.iter().zip(&demands) {
            let ledger = &mut self.workers[w];
            ledger.committed += demand;
            ledger.resident.push(model.to_owned());
        }
        self.placements.insert(model.to_owned(), chosen.clone());
        let entry = chosen[0];
        self.workers[entry].assigned += 1;
        Ok(entry)
    }

    /// Bytes committed on a worker.
    pub fn committed_bytes(&self, worker: usize) -> usize {
        self.workers[worker].committed
    }

    /// Total stage residencies across the fleet (one per model under
    /// the single-device policies, one per pipeline stage under split).
    pub fn resident_models(&self) -> usize {
        self.workers.iter().map(|l| l.resident.len()).sum()
    }

    /// The worker indices hosting a resident model's stages (entry
    /// worker first), when it is resident.
    pub fn placement(&self, model: &str) -> Option<&[usize]> {
        self.placements.get(model).map(Vec::as_slice)
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcu::prelude::IbScheme;
    use vmcu_graph::zoo;

    fn single(name: &str) -> Graph {
        zoo::fleet_catalog()
            .into_iter()
            .find(|m| m.name == name)
            .expect("model in catalog")
            .graph
    }

    #[test]
    fn vmcu_admits_more_residencies_than_tinyengine_at_128kb() {
        let g = single("vww-s6");
        let mut admitted = Vec::new();
        for kind in [
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            PlannerKind::TinyEngine,
        ] {
            let mut ac = AdmissionController::new(Device::stm32_f411re(), kind, 1);
            let mut count = 0usize;
            // Each distinct name forces a fresh residency commitment.
            for i in 0..64 {
                if ac.admit(&format!("clone-{i}"), &g).is_ok() {
                    count += 1;
                }
            }
            admitted.push(count);
        }
        assert!(
            admitted[0] > admitted[1],
            "vMCU residencies {} must exceed TinyEngine {}",
            admitted[0],
            admitted[1]
        );
        assert!(admitted[1] > 0, "S6 fits at least once under TinyEngine");
    }

    #[test]
    fn too_large_models_are_rejected_with_numbers() {
        let g = single("fig7-hw80-c16-k16");
        let mut ac = AdmissionController::new(Device::stm32_f411re(), PlannerKind::TinyEngine, 2);
        match ac.admit("case1", &g) {
            Err(RejectReason::TooLargeForDevice { needed, available }) => {
                assert!(needed > available);
                assert_eq!(available, 128 * 1024);
            }
            other => panic!("expected TooLargeForDevice, got {other:?}"),
        }
        // The same model is admitted under the vMCU policy.
        let mut ac = AdmissionController::new(
            Device::stm32_f411re(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            2,
        );
        assert!(ac.admit("case1", &g).is_ok());
    }

    #[test]
    fn zero_demand_models_are_refused_like_capacity_zero() {
        // An empty graph plans to zero bytes; `concurrent_capacity`
        // reports 0 for it, and admission must agree instead of
        // admitting it without bound.
        let empty = Graph::linear("empty", vec![]).unwrap();
        let mut ac = AdmissionController::new(
            Device::stm32_f411re(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            1,
        );
        assert_eq!(ac.admit("empty", &empty), Err(RejectReason::EmptyModel));
        assert_eq!(ac.resident_models(), 0);
    }

    #[test]
    fn repeat_requests_reuse_residency_and_balance_load() {
        let g = single("vww-s5");
        let mut ac = AdmissionController::new(
            Device::stm32_f411re(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            2,
        );
        let w0 = ac.admit("vww-s5", &g).unwrap();
        let committed = ac.committed_bytes(w0);
        // A second request to the same model stays on its host without
        // committing more SRAM.
        let w1 = ac.admit("vww-s5", &g).unwrap();
        assert_eq!(w0, w1);
        assert_eq!(ac.committed_bytes(w0), committed);
        assert_eq!(ac.resident_models(), 1);
        // A different model lands on the other (less loaded) worker.
        let w2 = ac.admit("vww-s5-b", &g).unwrap();
        assert_ne!(w2, w0);
    }

    #[test]
    fn split_admits_against_aggregate_ram_across_distinct_workers() {
        // hires-split-only OOMs every single device but partitions into
        // stages that each fit; a 4-worker fleet must admit it by
        // committing one stage per worker.
        let g = single("hires-split-only");
        let split = PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        };
        let mut ac = AdmissionController::new(Device::stm32_f411re(), split, 4);
        let entry = ac.admit("hires", &g).unwrap();
        let placement = ac.placement("hires").unwrap().to_vec();
        assert_eq!(placement[0], entry, "requests pin to the entry worker");
        assert!(placement.len() >= 2, "the model must actually be split");
        let mut distinct = placement.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            placement.len(),
            "stages on distinct workers"
        );
        assert_eq!(ac.resident_models(), placement.len());
        // Every placed stage committed SRAM on its worker.
        for &w in &placement {
            assert!(ac.committed_bytes(w) > 0);
        }
        // Repeat requests reuse the pipeline without committing more.
        let committed: Vec<_> = (0..4).map(|w| ac.committed_bytes(w)).collect();
        assert_eq!(ac.admit("hires", &g).unwrap(), entry);
        assert_eq!(
            (0..4).map(|w| ac.committed_bytes(w)).collect::<Vec<_>>(),
            committed
        );
    }

    #[test]
    fn split_needs_enough_workers_for_its_stages() {
        // The same model on a single-worker fleet: each stage fits a
        // device, but there are not enough devices to host the pipeline.
        let g = single("hires-split-only");
        let split = PlannerKind::VmcuSplit {
            devices: 4,
            scheme: IbScheme::RowBuffer,
        };
        let mut ac = AdmissionController::new(Device::stm32_f411re(), split, 1);
        match ac.admit("hires", &g) {
            Err(RejectReason::NoCapacity { needed }) => {
                assert!(needed > Device::stm32_f411re().usable_ram_bytes());
            }
            other => panic!("expected NoCapacity, got {other:?}"),
        }
        assert_eq!(ac.resident_models(), 0, "a failed placement leaks nothing");
        // And under every single-device policy the model is simply too
        // large, regardless of fleet width.
        let mut ac = AdmissionController::new(
            Device::stm32_f411re(),
            PlannerKind::Vmcu(IbScheme::RowBuffer),
            8,
        );
        assert!(matches!(
            ac.admit("hires", &g),
            Err(RejectReason::TooLargeForDevice { .. })
        ));
    }
}
