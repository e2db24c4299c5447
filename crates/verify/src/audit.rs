//! Per-policy audit dispatch: one entry point, [`audit`], that proves a
//! resolved [`Deployment`] hazard-free from plan arithmetic alone.
//!
//! The auditor never executes a kernel. It takes each kernel's dry-run
//! store/free trace (the same generator the planners consume), places it
//! at the plan's offsets, and replays the byte intervals through
//! [`crate::replay::PoolModel`]; at the graph level it re-derives
//! last-consumer liveness through [`crate::schedule`]; for every
//! overlapped segment it re-derives the minimum execution distance two
//! independent ways and cross-checks the plan against both.

use crate::replay::{check_distance, replay_into, replay_layer, LayerSpec, PoolModel};
use crate::schedule::{audit_schedule, canonical_frees};
use crate::violation::{AuditReport, Violation};
use vmcu::{Deployment, PlannerKind, Schedule};
use vmcu_graph::{Graph, LayerDesc};
use vmcu_kernels::fused_chain::{chain_exec_trace, chain_workspace_bytes, ChainOp};
use vmcu_kernels::trace::{exec_distance, ExecEvent};
use vmcu_kernels::IbScheme;
use vmcu_plan::fusion::chain_solver_distance;
use vmcu_plan::{ChainPlan, FusionNode, FusionPlan, OrderPlan, PatchPlan, SplitPlan};
use vmcu_sim::Device;

/// The dry-run store/free trace the executor's kernel would emit for one
/// layer — the byte-interval event stream the whole audit replays.
pub fn layer_events(layer: &LayerDesc, scheme: IbScheme) -> Vec<ExecEvent> {
    match layer {
        LayerDesc::Pointwise(p) => vmcu_kernels::fc::fc_exec_trace(&p.as_fc()),
        LayerDesc::Conv2d(p) => vmcu_kernels::conv2d::conv2d_exec_trace(p),
        LayerDesc::Depthwise(p) => vmcu_kernels::depthwise::depthwise_exec_trace(p),
        LayerDesc::Dense(p) => vmcu_kernels::fc::fc_exec_trace(p),
        LayerDesc::Ib(p) => vmcu_kernels::fused_ib::ib_exec_trace(p, scheme),
        LayerDesc::Add(p) => vmcu_kernels::merge::add_exec_trace(p),
        LayerDesc::Concat(p) => vmcu_kernels::merge::concat_exec_trace(p),
    }
}

/// The trace of one sliced patch-stage operator.
fn op_events(op: &ChainOp) -> Vec<ExecEvent> {
    match op {
        ChainOp::Pointwise(p) => vmcu_kernels::fc::fc_exec_trace(&p.as_fc()),
        ChainOp::Depthwise(p) => vmcu_kernels::depthwise::depthwise_exec_trace(p),
        ChainOp::Conv2d(p) => vmcu_kernels::conv2d::conv2d_exec_trace(p),
        ChainOp::Dense(p) => vmcu_kernels::fc::fc_exec_trace(p),
    }
}

fn op_io_bytes(op: &ChainOp) -> (usize, usize) {
    match op {
        ChainOp::Pointwise(p) => (p.in_bytes(), p.out_bytes()),
        ChainOp::Depthwise(p) => (p.in_bytes(), p.out_bytes()),
        ChainOp::Conv2d(p) => (p.in_bytes(), p.out_bytes()),
        ChainOp::Dense(p) => (p.in_bytes(), p.out_bytes()),
    }
}

/// Audits one layer in the overlapped per-node layout `exec_layer_vmcu`
/// uses: input at logical 0, output at `−D`, window `(in+max(D,0)) ∨ out`.
/// Returns the violations plus the number of distances cross-checked.
pub fn audit_node(site: &str, layer: &LayerDesc, scheme: IbScheme) -> (Vec<Violation>, usize) {
    let events = layer_events(layer, scheme);
    let in_len = layer.in_bytes();
    let out_len = layer.out_bytes();
    let planned = exec_distance(in_len, events.iter().copied());
    let mut v = check_distance(site, planned, in_len, &events);
    let window = (in_len + planned.max(0) as usize).max(out_len).max(1);
    v.extend(replay_layer(&LayerSpec {
        site,
        in_len,
        out_len,
        distance: planned,
        window,
        events: &events,
    }));
    (v, 1)
}

/// Audits one fused group against its planned window, workspace, and
/// execution distance (including the §5.2 solver lower bound).
pub fn audit_fused_group(
    site: &str,
    group: &vmcu_plan::fusion::FusedGroup,
) -> (Vec<Violation>, usize) {
    let chain = &group.chain;
    let events = chain_exec_trace(chain);
    let in_len = chain.in_bytes();
    let out_len = chain.out_bytes();
    let mut v = check_distance(site, group.exec_distance, in_len, &events);
    if let Some(lower) = chain_solver_distance(chain) {
        if group.exec_distance < lower {
            v.push(Violation::DistanceTooSmall {
                site: format!("{site} (below the §5.2 solver lower bound)"),
                planned: group.exec_distance,
                derived: lower,
            });
        }
    }
    let need_window = (in_len + group.exec_distance.max(0) as usize).max(out_len);
    if group.window < need_window {
        v.push(Violation::OutOfBounds {
            site: site.into(),
            needed: need_window,
            budget: group.window,
        });
    }
    let need_ws = chain_workspace_bytes(chain);
    if group.workspace < need_ws {
        v.push(Violation::OutOfBounds {
            site: format!("{site} (workspace)"),
            needed: need_ws,
            budget: group.workspace,
        });
    }
    v.extend(replay_layer(&LayerSpec {
        site,
        in_len,
        out_len,
        distance: group.exec_distance,
        window: group.window.max(1),
        events: &events,
    }));
    (v, 1)
}

/// Audits a whole-network chained deployment: every tensor base from the
/// plan, one persistent circular window, liveness carried across layers
/// exactly as `Session::infer_chained` executes it.
pub fn audit_chain_plan(
    graph: &Graph,
    plan: &ChainPlan,
    scheme: IbScheme,
    device: &Device,
) -> (Vec<Violation>, usize) {
    let n = graph.len();
    let mut v = Vec::new();
    let mut distances = 0usize;
    if n == 0 {
        return (v, 0);
    }
    if plan.bases.len() != n + 1 || plan.distances.len() != n {
        v.push(Violation::OutOfBounds {
            site: "chain plan shape".into(),
            needed: n + 1,
            budget: plan.bases.len(),
        });
        return (v, 0);
    }
    if plan.total_bytes() + device.runtime_overhead_bytes > device.ram_bytes {
        v.push(Violation::OutOfBounds {
            site: "chain plan total".into(),
            needed: plan.total_bytes() + device.runtime_overhead_bytes,
            budget: device.ram_bytes,
        });
    }
    if plan.window == 0 {
        v.push(Violation::OutOfBounds {
            site: "chain plan window".into(),
            needed: 1,
            budget: 0,
        });
        return (v, 0);
    }
    let mut pool = PoolModel::new(plan.window);
    let in_len = graph.layers()[0].in_bytes();
    pool.fill("chain input", plan.bases[0], in_len, &mut v);
    for (i, layer) in graph.layers().iter().enumerate() {
        let site = format!("chain layer {i} ({})", layer.kind());
        let events = layer_events(layer, scheme);
        let in_bytes = layer.in_bytes();
        // The base chaining identity: b_out = b_in − D.
        if plan.bases[i + 1] != plan.bases[i] - plan.distances[i] {
            v.push(Violation::DistanceTooSmall {
                site: format!(
                    "{site} (base does not compose: b[{}] ≠ b[{i}] − D[{i}])",
                    i + 1
                ),
                planned: plan.bases[i] - plan.bases[i + 1],
                derived: plan.distances[i],
            });
        }
        v.extend(check_distance(&site, plan.distances[i], in_bytes, &events));
        distances += 1;
        // The layer's span must fit the shared window.
        let span = (in_bytes + plan.distances[i].max(0) as usize).max(layer.out_bytes());
        if span > plan.window {
            v.push(Violation::OutOfBounds {
                site: site.clone(),
                needed: span,
                budget: plan.window,
            });
        }
        replay_into(
            &mut pool,
            &site,
            plan.bases[i],
            plan.bases[i + 1],
            &events,
            &mut v,
        );
    }
    let out_len = graph.layers()[n - 1].out_bytes();
    pool.expect_exactly("chain output", plan.bases[n], out_len, &mut v);
    (v, distances)
}

/// Audits a fusion plan node-by-node: singles replay in their overlapped
/// per-node layout, fused groups replay their whole-chain trace, and
/// every node's demand must fit the device.
pub fn audit_fusion_plan(
    graph: &Graph,
    plan: &FusionPlan,
    scheme: IbScheme,
    device: &Device,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    for node in &plan.nodes {
        nodes += 1;
        match node {
            FusionNode::Single { index, .. } => {
                let Some(layer) = graph.layers().get(*index) else {
                    v.push(Violation::OutOfBounds {
                        site: "fusion plan node index".into(),
                        needed: *index,
                        budget: graph.len(),
                    });
                    continue;
                };
                let site = format!("node {index} ({})", layer.kind());
                let (nv, nd) = audit_node(&site, layer, scheme);
                v.extend(nv);
                distances += nd;
            }
            FusionNode::Fused(group) => {
                let site = format!("fused[{}..={}]", group.start, group.end);
                let (gv, gd) = audit_fused_group(&site, group);
                v.extend(gv);
                distances += gd;
            }
        }
        let demand = node.demand_bytes() + device.runtime_overhead_bytes;
        if demand > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: format!("fusion node demand ({})", node.layer_range().0),
                needed: demand,
                budget: device.ram_bytes,
            });
        }
    }
    (v, nodes, distances)
}

/// Audits a patched deployment: the output tiles must partition the
/// front-stage output exactly (a gap is a [`Violation::Leak`], an
/// overlap a [`Violation::Clobber`]), every sliced per-tile operator
/// replays hazard-free in its own slab window, the slab-peak accounting
/// behind `front_demand_bytes` is re-derived, and the tail audits as a
/// fusion plan.
pub fn audit_patch_plan(
    graph: &Graph,
    plan: &PatchPlan,
    scheme: IbScheme,
    device: &Device,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    if let Some(front) = &plan.front {
        nodes += 1;
        let (oh, ow, oc) = front.out_dims();
        let grid = front.grid();
        let mut covered = vec![0u32; oh * ow];
        let mut slab_peak = 0usize;
        for ty in 0..grid.gy {
            for tx in 0..grid.gx {
                let tile = front.out_tile(ty, tx);
                let site = format!("patch tile ({ty},{tx})");
                if tile.y0 < 0 || tile.x0 < 0 || tile.y1 > oh as i64 || tile.x1 > ow as i64 {
                    v.push(Violation::OutOfBounds {
                        site: site.clone(),
                        needed: tile.y1.max(tile.x1).max(0) as usize,
                        budget: oh.max(ow),
                    });
                    continue;
                }
                for y in tile.y0..tile.y1 {
                    for x in tile.x0..tile.x1 {
                        covered[y as usize * ow + x as usize] += 1;
                    }
                }
                for (si, stage) in front.patch_stages(ty, tx).iter().enumerate() {
                    let stage_site = format!("{site} stage {si} ({})", stage.op.kind());
                    let events = op_events(&stage.op);
                    let (in_len, out_len) = op_io_bytes(&stage.op);
                    let d = exec_distance(in_len, events.iter().copied());
                    v.extend(check_distance(&stage_site, d, in_len, &events));
                    distances += 1;
                    let window = (in_len + d.max(0) as usize).max(out_len).max(1);
                    slab_peak = slab_peak.max(window);
                    v.extend(replay_layer(&LayerSpec {
                        site: &stage_site,
                        in_len,
                        out_len,
                        distance: d,
                        window,
                        events: &events,
                    }));
                }
            }
        }
        // Exact tiling of the front output.
        if let Some(first_gap) = covered.iter().position(|&c| c == 0) {
            let gaps = covered.iter().filter(|&&c| c == 0).count();
            v.push(Violation::Leak {
                site: "patch tiling".into(),
                byte: (first_gap * oc) as i64,
                len: gaps * oc,
                detail: "front output pixels no tile produces".into(),
            });
        }
        if let Some(first_dup) = covered.iter().position(|&c| c > 1) {
            let dups = covered.iter().filter(|&&c| c > 1).count();
            v.push(Violation::Clobber {
                site: "patch tiling".into(),
                byte: (first_dup * oc) as i64,
                len: dups * oc,
            });
        }
        // Slab-peak accounting: the plan's front demand must cover the
        // worst sliced window plus the front-output accumulator.
        let need = slab_peak + oh * ow * oc;
        if plan.front_demand_bytes < need {
            v.push(Violation::OutOfBounds {
                site: "patched front demand".into(),
                needed: need,
                budget: plan.front_demand_bytes,
            });
        }
        if plan.front_demand_bytes + device.runtime_overhead_bytes > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: "patched front demand".into(),
                needed: plan.front_demand_bytes + device.runtime_overhead_bytes,
                budget: device.ram_bytes,
            });
        }
    }
    let (tv, tn, td) = audit_fusion_plan(graph, &plan.tail, scheme, device);
    v.extend(tv);
    (v, nodes + tn, distances + td)
}

/// Audits a split deployment: the stages must partition the chain
/// contiguously, boundary activations must agree byte-for-byte in size,
/// and every stage audits as its own fusion plan on its own device.
pub fn audit_split_plan(
    graph: &Graph,
    plan: &SplitPlan,
    scheme: IbScheme,
    device: &Device,
) -> (Vec<Violation>, usize, usize) {
    let mut v = Vec::new();
    let mut nodes = 0usize;
    let mut distances = 0usize;
    let stages = plan.stages();
    if stages.is_empty() {
        return (v, 0, 0);
    }
    let mut expect_start = 0usize;
    for (k, stage) in stages.iter().enumerate() {
        let site = format!("split stage {k} (dev{})", stage.device);
        if stage.start != expect_start {
            v.push(Violation::Leak {
                site: format!("{site} boundary"),
                byte: expect_start as i64,
                len: stage.start.abs_diff(expect_start),
                detail: "stages do not partition the layer range contiguously".into(),
            });
        }
        expect_start = stage.end;
        let (sv, sn, sd) = audit_fusion_plan(&stage.graph, &stage.fusion, scheme, device);
        v.extend(sv.into_iter().map(|viol| prefix_site(&site, viol)));
        nodes += sn;
        distances += sd;
        if stage.demand_bytes + device.runtime_overhead_bytes > device.ram_bytes {
            v.push(Violation::OutOfBounds {
                site: site.clone(),
                needed: stage.demand_bytes + device.runtime_overhead_bytes,
                budget: device.ram_bytes,
            });
        }
        // Boundary activation continuity: the cut tensor leaving this
        // stage must be exactly the next stage's input.
        if k + 1 < stages.len() {
            let out_bytes = graph
                .layers()
                .get(stage.end.wrapping_sub(1))
                .map_or(0, LayerDesc::out_bytes);
            let next_in: usize = stages[k + 1].graph.in_shape().iter().product();
            if stage.cut_bytes != out_bytes || next_in != out_bytes {
                v.push(Violation::OutOfBounds {
                    site: format!("{site} cut tensor"),
                    needed: out_bytes,
                    budget: stage.cut_bytes.min(next_in),
                });
            }
        }
    }
    if expect_start != graph.len() {
        v.push(Violation::Leak {
            site: "split coverage".into(),
            byte: expect_start as i64,
            len: graph.len().saturating_sub(expect_start),
            detail: "trailing layers no stage executes".into(),
        });
    }
    (v, nodes, distances)
}

fn prefix_site(prefix: &str, v: Violation) -> Violation {
    let tag = |site: String| format!("{prefix}: {site}");
    match v {
        Violation::Clobber { site, byte, len } => Violation::Clobber {
            site: tag(site),
            byte,
            len,
        },
        Violation::OutOfBounds {
            site,
            needed,
            budget,
        } => Violation::OutOfBounds {
            site: tag(site),
            needed,
            budget,
        },
        Violation::Leak {
            site,
            byte,
            len,
            detail,
        } => Violation::Leak {
            site: tag(site),
            byte,
            len,
            detail,
        },
        Violation::DoubleFree { site, byte, len } => Violation::DoubleFree {
            site: tag(site),
            byte,
            len,
        },
        Violation::DistanceTooSmall {
            site,
            planned,
            derived,
        } => Violation::DistanceTooSmall {
            site: tag(site),
            planned,
            derived,
        },
        Violation::UseAfterFree {
            site,
            tensor,
            detail,
        } => Violation::UseAfterFree {
            site: tag(site),
            tensor,
            detail,
        },
    }
}

fn scheme_of(kind: PlannerKind) -> IbScheme {
    match kind {
        PlannerKind::Vmcu(s)
        | PlannerKind::VmcuFused(s)
        | PlannerKind::VmcuPatched(s)
        | PlannerKind::VmcuReorder(s) => s,
        PlannerKind::VmcuSplit { scheme, .. } => scheme,
        PlannerKind::TinyEngine | PlannerKind::Hmcos => IbScheme::RowBuffer,
    }
}

/// Whether the policy executes each graph node in its own per-layer
/// window (so plan rows are step-aligned and the per-step RAM budget is
/// enforced at the schedule level).
fn per_layer_policy(kind: PlannerKind) -> bool {
    matches!(
        kind,
        PlannerKind::Vmcu(_)
            | PlannerKind::TinyEngine
            | PlannerKind::Hmcos
            | PlannerKind::VmcuReorder(_)
    )
}

/// Whether the policy's executor runs overlapped vMCU kernels per node
/// (baselines place whole disjoint tensors instead, so the overlap
/// replay does not model their layout).
fn overlapped_policy(kind: PlannerKind) -> bool {
    matches!(kind, PlannerKind::Vmcu(_) | PlannerKind::VmcuReorder(_))
}

/// Statically audits a resolved deployment, proving (or refuting) the
/// hazard-freedom of its memory plan without executing a kernel.
pub fn audit(dep: &Deployment) -> AuditReport {
    let graph = dep.graph();
    let device = dep.device();
    let kind = dep.planner_kind();
    let scheme = scheme_of(kind);
    let n = graph.len();
    let mut report = AuditReport {
        planner: kind.name().to_string(),
        model: format!(
            "{n}-node {}",
            if graph.is_chain() { "chain" } else { "dag" }
        ),
        device: device.name.clone(),
        ..AuditReport::default()
    };
    if n == 0 {
        return report;
    }

    // 1. Schedule-level liveness audit (every policy): producer-before-
    //    consumer, freed exactly once at the last consumer, per-step
    //    demand. Policies that do not execute per-layer windows (fusion
    //    groups, patched tiles, split stages) enforce their budget at the
    //    artifact level instead, so the schedule pass only checks
    //    liveness for them.
    let order: Vec<usize> = match dep.schedule() {
        Schedule::Nodes {
            order: Some(plan), ..
        } => plan.order.clone(),
        _ => (0..n).collect(),
    };
    let frees = canonical_frees(graph, &order);
    let costs: Vec<(usize, usize)> = graph
        .layers()
        .iter()
        .map(|l| dep.planner().plan_layer(l))
        .collect();
    let budget_device = if per_layer_policy(kind) {
        device.clone()
    } else {
        Device {
            ram_bytes: usize::MAX / 2,
            ..device.clone()
        }
    };
    let sched = audit_schedule(graph, &order, &frees, &costs, &budget_device);
    report.violations.extend(sched.violations);
    report.nodes_checked += n;

    // 2. Plan-row cross-check for per-layer policies: rows are step-
    //    aligned, so row k must price at least the independently derived
    //    demand of the k-th executed node.
    if per_layer_policy(kind) {
        let rows = &dep.plan().layers;
        if rows.len() == sched.step_demand_bytes.len() {
            for (k, (row, derived)) in rows.iter().zip(&sched.step_demand_bytes).enumerate() {
                let need = derived + device.runtime_overhead_bytes;
                if row.measured_bytes < need {
                    report.violations.push(Violation::OutOfBounds {
                        site: format!("plan row {k} ({}) under-prices the step", row.name),
                        needed: need,
                        budget: row.measured_bytes,
                    });
                }
                if row.fits && row.measured_bytes > device.ram_bytes {
                    report.violations.push(Violation::OutOfBounds {
                        site: format!("plan row {k} ({}) claims fit", row.name),
                        needed: row.measured_bytes,
                        budget: device.ram_bytes,
                    });
                }
            }
        } else {
            report.violations.push(Violation::OutOfBounds {
                site: "plan rows are not step-aligned".into(),
                needed: sched.step_demand_bytes.len(),
                budget: rows.len(),
            });
        }
    }

    // 3. Per-node overlapped replay for policies running vMCU kernels in
    //    per-layer windows.
    if overlapped_policy(kind) {
        for (i, layer) in graph.layers().iter().enumerate() {
            let site = format!("node {i} ({})", layer.kind());
            let (v, d) = audit_node(&site, layer, scheme);
            report.violations.extend(v);
            report.distances_checked += d;
        }
    }

    // 4. Artifact-specific audits.
    let (v, nodes, d) = match dep.schedule() {
        Schedule::Nodes { order, chain } => {
            let (mut v, d) = chain.as_ref().map_or_else(
                || (Vec::new(), 0),
                |chain| audit_chain_plan(graph, chain, scheme, device),
            );
            if let Some(order_plan) = order {
                v.extend(audit_order_plan(order_plan, &sched.step_demand_bytes));
            }
            (v, 0, d)
        }
        Schedule::Fused(fusion) => audit_fusion_plan(graph, fusion, scheme, device),
        Schedule::Patched(patch) => audit_patch_plan(graph, patch, scheme, device),
        Schedule::Split(split) => audit_split_plan(graph, split, scheme, device),
    };
    report.violations.extend(v);
    report.nodes_checked += nodes;
    report.distances_checked += d;
    report
}

/// Cross-checks a searched order's per-step and peak demand against the
/// independently derived step demand.
fn audit_order_plan(plan: &OrderPlan, derived_steps: &[usize]) -> Vec<Violation> {
    let mut violations = Vec::new();
    if plan.step_demand_bytes.len() == derived_steps.len() {
        for (k, (planned, derived)) in plan.step_demand_bytes.iter().zip(derived_steps).enumerate()
        {
            if planned < derived {
                violations.push(Violation::OutOfBounds {
                    site: format!("order plan step {k} under-prices demand"),
                    needed: *derived,
                    budget: *planned,
                });
            }
        }
    }
    let peak = derived_steps.iter().copied().max().unwrap_or(0);
    if plan.peak_bytes < peak {
        violations.push(Violation::OutOfBounds {
            site: "order plan peak under-prices demand".into(),
            needed: peak,
            budget: plan.peak_bytes,
        });
    }
    violations
}
