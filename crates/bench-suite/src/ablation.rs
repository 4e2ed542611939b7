//! Ablation studies of the design choices `DESIGN.md` calls out:
//!
//! 1. **Decomposition strategy** — every applicable strategy per kernel,
//!    priced by measured per-tile counters (does the paper's PMA beat a
//!    plain eigendecomposition? when does the autotuner diverge?).
//! 2. **Fusion factor** — the §IV-A temporal-fusion depth sweep: the
//!    paper fixes 3×; the sweep shows the sweet spot and the cliff when
//!    the fused radius no longer fits the 16×16 tile.
//! 3. **Cost-model sensitivity** — the headline LoRA/ConvStencil
//!    geomean under perturbed calibration constants (are the paper-shape
//!    conclusions robust to the calibration?).

use crate::report::{format_table, geomean};
use crate::runner::evaluate;
use crate::workloads;
use lorastencil::rdg::RdgGeometry;
use lorastencil::{autotune, decompose, fusion, ExecConfig, LoRaStencil, Plan, Workspace};
use stencil_core::{kernels, Grid2D, StencilKernel};
use tcu_sim::{CostModel, GlobalArray, PerfCounters};

/// Run one custom plan over a grid and return counters.
fn run_plan(plan: &Plan, n: usize) -> PerfCounters {
    let grid = Grid2D::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 23) as f64 * 0.2);
    let input = GlobalArray::from_vec(n, n, grid.as_slice().to_vec());
    let mut out = GlobalArray::new(n, n);
    Workspace::new(plan, &[n, n]).apply(&input, &mut out)
}

/// Study 1: decomposition-strategy ablation on the fused 2-D kernels.
pub fn decomposition_ablation(model: &CostModel) -> String {
    let mut rows = Vec::new();
    for k in kernels::all_kernels() {
        if k.dims() != 2 {
            continue;
        }
        let fused = fusion::fuse_kernel(&k, fusion::fusion_factor(&k));
        let geo = RdgGeometry::for_radius(fused.radius);
        let base_plan = Plan::new(&k, ExecConfig::full());
        for cand in autotune::candidates(fused.weights_2d(), 1e-12) {
            if cand.reconstruction_error(fused.weights_2d()) > 1e-8 {
                continue;
            }
            let plan = base_plan.with_decomposition(cand.clone());
            let counters = run_plan(&plan, 64);
            let est = model.estimate(&counters, &plan.block_resources());
            rows.push(vec![
                fused.name.clone(),
                format!("{:?}", cand.strategy),
                cand.num_terms().to_string(),
                (cand.num_terms() as u64 * geo.mma_per_term()).to_string(),
                format!("{:.1}", est.gstencil_per_sec(counters.points_updated)),
            ]);
        }
    }
    let header: Vec<String> = ["Kernel (fused)", "Strategy", "Terms", "MMA/tile", "GStencil/s"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = String::from(
        "Ablation 1 — decomposition strategy (same executor, same tiles, measured counters)\n\n",
    );
    out.push_str(&format_table(&header, &rows));
    out.push_str("\nPyramidal wins ties by construction (decreasing term sizes, free 1x1 tip);\nthe autotuner only diverges when the matrix rank is below the pyramid's term count.\n");
    out
}

/// Study 2: temporal-fusion depth sweep for Box-2D9P (§IV-A fixes 3×).
pub fn fusion_sweep(model: &CostModel) -> String {
    let base = kernels::box_2d9p();
    let mut rows = Vec::new();
    for t in 1..=5usize {
        let fused = fusion::fuse_kernel(&base, t);
        let decomp = decompose::decompose(fused.weights_2d(), 1e-12);
        let geo = RdgGeometry::for_radius(fused.radius);
        let plan = Plan::custom_2d(fused.clone(), t, decomp.clone(), ExecConfig::full());
        let counters = run_plan(&plan, 96);
        let est = model.estimate(&counters, &plan.block_resources());
        rows.push(vec![
            format!("{t}x"),
            fused.radius.to_string(),
            geo.s.to_string(),
            decomp.num_terms().to_string(),
            format!("{:.2}", counters.mma_ops as f64 / counters.points_updated as f64),
            format!("{:.1}", est.gstencil_per_sec(counters.points_updated)),
        ]);
    }
    let header: Vec<String> =
        ["Fusion", "Radius", "Tile S", "Terms", "MMA/point-step", "GStencil/s"]
            .iter()
            .map(|s| s.to_string())
            .collect();
    let mut out =
        String::from("Ablation 2 — temporal fusion depth, Box-2D9P (the paper fixes 3x)\n\n");
    out.push_str(&format_table(&header, &rows));
    out.push_str("\nFusing amortizes the tile traffic over more time steps until the fused\nradius outgrows the 16x16 tile (S jumps to 24 at 5x) — the paper's 3x sits\non the flat part of the optimum.\n");
    out
}

/// Study 3: sensitivity of the headline LoRA/ConvStencil geomean to the
/// calibrated cost-model constants.
pub fn sensitivity(base: &CostModel) -> String {
    let wls = workloads::reduced(workloads::table_ii());
    let headline = |model: &CostModel| -> f64 {
        let ratios: Vec<f64> = wls
            .iter()
            .map(|w| {
                let lora = evaluate(&LoRaStencil::new(), w, model);
                let conv = evaluate(&baselines::ConvStencil::new(), w, model);
                lora.gstencil / conv.gstencil
            })
            .collect();
        geomean(&ratios)
    };

    let mut rows =
        vec![vec!["baseline".to_string(), String::new(), format!("{:.2}x", headline(base))]];
    let mut push = |name: &str, value: String, m: CostModel| {
        rows.push(vec![name.to_string(), value, format!("{:.2}x", headline(&m))]);
    };
    for f in [0.5, 0.9] {
        let mut m = base.clone();
        m.achievable_fraction = f;
        push("achievable_fraction", format!("{f}"), m);
    }
    for f in [0.3, 1.0] {
        let mut m = base.clone();
        m.staging_overhead = f;
        push("staging_overhead", format!("{f}"), m);
    }
    for f in [33.0, 100.0] {
        let mut m = base.clone();
        m.shuffle_exposed_cycles = f;
        push("shuffle_exposed_cycles", format!("{f}"), m);
    }
    for f in [0.2, 0.5] {
        let mut m = base.clone();
        m.latency_saturation_occupancy = f;
        push("latency_saturation_occ", format!("{f}"), m);
    }
    let header: Vec<String> = ["Perturbed constant", "Value", "LoRA/ConvStencil geomean"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = String::from(
        "Ablation 3 — cost-model sensitivity of the headline speedup (paper: 1.37x)\n\n",
    );
    out.push_str(&format_table(&header, &rows));
    out.push_str("\nThe LoRAStencil advantage persists under every perturbation: it is driven\nby the measured counter ratios, not by the calibration constants.\n");
    out
}

/// Headline LoRA/ConvStencil geomean for a model (exposed for tests).
pub fn headline_ratio(model: &CostModel) -> f64 {
    let wls = workloads::reduced(workloads::table_ii());
    let ratios: Vec<f64> = wls
        .iter()
        .map(|w| {
            let lora = evaluate(&LoRaStencil::new(), w, model);
            let conv = evaluate(&baselines::ConvStencil::new(), w, model);
            lora.gstencil / conv.gstencil
        })
        .collect();
    geomean(&ratios)
}

/// Autotune-vs-default planning comparison across every 2-D kernel
/// (including the extended library).
pub fn autotune_report() -> String {
    let mut rows = Vec::new();
    let mut all: Vec<StencilKernel> = kernels::all_kernels();
    all.extend(stencil_core::kernels_ext::all_extended());
    for k in all {
        if k.dims() != 2 {
            continue;
        }
        let d = Plan::new(&k, ExecConfig::full());
        let a = Plan::new_autotuned(&k, ExecConfig::full());
        rows.push(vec![
            k.name.clone(),
            format!("{:?} ({})", d.decomp().strategy, d.decomp().num_terms()),
            format!("{:?} ({})", a.decomp().strategy, a.decomp().num_terms()),
            if autotune::tile_cost(a.decomp(), a.geo) < autotune::tile_cost(d.decomp(), d.geo) {
                "autotune wins".to_string()
            } else {
                "tie".to_string()
            },
        ]);
    }
    let header: Vec<String> = ["Kernel", "Default (terms)", "Autotuned (terms)", "Outcome"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = String::from("Ablation 4 — autotuned vs precedence-based planning\n\n");
    out.push_str(&format_table(&header, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_survives_perturbation() {
        // the central robustness claim of study 3, asserted
        let base = CostModel::a100();
        for f in [0.5, 0.9] {
            let mut m = base.clone();
            m.achievable_fraction = f;
            assert!(headline_ratio(&m) > 1.0, "LoRA must keep winning at fraction {f}");
        }
        let mut m = base.clone();
        m.latency_saturation_occupancy = 0.2;
        assert!(headline_ratio(&m) > 1.0);
    }

    #[test]
    fn fusion_sweep_renders() {
        let s = fusion_sweep(&CostModel::a100());
        assert!(s.contains("3x"));
        assert!(s.contains("5x"));
    }

    #[test]
    fn decomposition_ablation_covers_all_2d_kernels() {
        let s = decomposition_ablation(&CostModel::a100());
        for name in ["Heat-2Dx3", "Box-2D9Px3", "Star-2D13P", "Box-2D49P"] {
            assert!(s.contains(name), "{name} missing");
        }
    }
}
